//! `secdir-verif`: verification tooling for the SecDir reproduction.
//!
//! Three cooperating analyses (DESIGN.md §8):
//!
//! 1. An **exhaustive protocol model checker** ([`model`], [`checker`]):
//!    breadth-first exploration of every reachable state of a bounded
//!    abstract machine built on the *production* step relation
//!    (`secdir_coherence::step`), for each directory organization —
//!    baseline (quirk and fixed), way-partitioned, SecDir, and VD-only —
//!    checking every line of every state with
//!    [`secdir_coherence::check_line`] plus the model's capacity bounds,
//!    with a typed [`Failure`] and a shortest counterexample trace.
//! 2. A **runtime invariant oracle** (`Machine::verify` in
//!    `secdir-machine`, swept periodically under its `check` feature):
//!    the same `check_line` over the concrete simulator state.
//! 3. A **token-level static-analysis engine** ([`analysis`], DESIGN.md
//!    §11): a lossless Rust lexer, structural scope/region tracking, and
//!    a pluggable rule registry gating panics, hot-path allocation,
//!    wall-clock reads, JSONL flush discipline, crate hygiene, hash-iter
//!    determinism, barrier panic-safety, and atomic orderings in CI.
//!
//! The `secdir-sim verif` and `secdir-sim lint` subcommands front-end the
//! first and third; the second is armed by building with
//! `--features check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod canon;
pub mod checker;
pub mod model;
pub mod pack;
pub mod perf;

pub use analysis::{lint_workspace, render_json, Diagnostic, LintReport, Severity};
pub use canon::{CanonTable, PermPair};
pub use checker::{
    check, check_all_quick, check_opt, CheckOptions, CheckReport, Counterexample, Failure,
};
pub use model::{DirKind, Fault, Model, ModelConfig, ModelState};
pub use perf::{run_checker_bench, CheckerBenchRecord};
