//! `secdir-verif`: verification tooling for the SecDir reproduction.
//!
//! Two cooperating analyses (DESIGN.md §8):
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
//!
//! The `secdir-sim verif` subcommand front-ends the first; the second is
//! armed by building with `--features check`.

pub mod canon;
pub mod checker;
pub mod model;
pub mod pack;
pub mod perf;

pub use canon::{CanonTable, PermPair};
pub use checker::{
    check, check_all_quick, check_opt, CheckOptions, CheckReport, Counterexample, Failure,
};
pub use model::{DirKind, Fault, Model, ModelConfig, ModelState};
pub use perf::{run_checker_bench, CheckerBenchRecord};
