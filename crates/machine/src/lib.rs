//! Trace-driven multicore cache-hierarchy simulator for the SecDir
//! reproduction.
//!
//! Models a Skylake-X-like server (paper Table 4): per-core L1D and
//! non-inclusive L2, a sliced non-inclusive LLC whose tags double as the
//! Traditional Directory, and a pluggable directory organization —
//! [`DirectoryKind::Baseline`] (conventional Skylake-X), `SecDir`, or
//! `SecDirVdOnly` (the §9 worst-case-attacker mode).
//!
//! The engine is an *atomic-transaction* MOESI model: every memory access
//! completes its full directory transaction before the next access touches
//! that slice, and timing is a fixed-latency model with the paper's Table-4
//! round-trip latencies. Both the baseline and SecDir run under the
//! identical engine, so the normalized comparisons the paper reports (IPC,
//! execution time, L2-miss breakdowns) keep their shape.
//!
//! # Examples
//!
//! ```
//! use secdir_machine::{DirectoryKind, Machine, MachineConfig};
//! use secdir_mem::{CoreId, LineAddr};
//!
//! let mut m = Machine::new(MachineConfig::skylake_x(8, DirectoryKind::SecDir));
//! let miss = m.access(CoreId(0), LineAddr::new(0x4000), false);
//! let hit = m.access(CoreId(0), LineAddr::new(0x4000), false);
//! assert!(hit.latency < miss.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod caches;
mod config;
mod engine;
pub mod inject;
mod machine;
pub mod oracle;
pub mod panics;
pub mod perf;
pub mod resume;
pub mod serve;
mod sliced;
mod stats;
pub mod sweep;

pub use caches::PrivateCaches;
pub use config::{DirectoryKind, Latencies, MachineConfig, TimingMitigation};
pub use engine::{run_workload, Access, AccessStream, CoreRun, Engine, RunSummary};
pub use inject::{FaultKind, FaultPlan, InjectOutcome};
pub use machine::{AccessOutcome, Machine, ServedBy};
pub use oracle::{OracleError, ORACLE_INTERVAL};
pub use sliced::{run_workload_sliced, run_workload_sliced_with, SlicedOptions};
pub use stats::{CoreStats, MachineStats};
