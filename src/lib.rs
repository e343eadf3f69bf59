//! Umbrella crate for the SecDir reproduction suite.
//!
//! Re-exports the member crates so the examples under `examples/` and the
//! integration tests under `tests/` can reach everything through a single
//! dependency. The real APIs live in the individual crates:
//!
//! * [`secdir`](mod@core) — the secure directory itself (Victim Directories,
//!   cuckoo hashing, the SecDir engine),
//! * [`machine`] — the multicore cache-hierarchy simulator,
//! * [`workloads`] — SPEC/PARSEC-like and victim workload generators,
//! * [`attack`] — conflict-based directory attack toolkit,
//! * [`area`] — storage/area models and design-space analytics.

pub use secdir as core;
pub use secdir_area as area;
pub use secdir_attack as attack;
pub use secdir_cache as cache;
pub use secdir_coherence as coherence;
pub use secdir_machine as machine;
pub use secdir_mem as mem;
pub use secdir_workloads as workloads;
