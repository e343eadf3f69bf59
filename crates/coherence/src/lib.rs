//! Coherence states, directory-slice abstraction, and the baseline
//! Skylake-X TD+ED directory.
//!
//! The paper (§2.1, Figure 2(a)) models the Skylake-X non-inclusive cache
//! hierarchy with a two-part directory per LLC slice:
//!
//! * the **Traditional Directory (TD)** — one entry per LLC-slice line
//!   (tags + sharer vector coupled to the LLC data array), and
//! * the **Extended Directory (ED)** — entries for lines that live only in
//!   private L2 caches.
//!
//! This crate provides the [`DirSlice`] trait through which the machine
//! drives any directory organization; [`EdTd`], the ED + TD pair every
//! ED/TD organization shares; and the slices built on it:
//! [`BaselineSlice`] — the conventional (insecure) directory, including
//! the Appendix-A Skylake-X implementation quirk as a configurable
//! behaviour — and [`WayPartitionedSlice`]. The secure directory lives in
//! the `secdir` crate and implements the same trait on the same core.
//!
//! # Examples
//!
//! ```
//! use secdir_coherence::{AccessKind, BaselineDirConfig, BaselineSlice, DirSlice};
//! use secdir_mem::{CoreId, LineAddr};
//!
//! let mut slice = BaselineSlice::new(BaselineDirConfig::skylake_x(), 0);
//! let resp = slice.request(LineAddr::new(0x40), CoreId(0), AccessKind::Read);
//! assert!(resp.invalidations.is_empty()); // empty directory: clean miss
//! ```

mod baseline;
mod ed_td;
mod invariant;
mod protocol;
mod sharers;
mod state;
pub mod step;
mod way_partitioned;

pub use baseline::{BaselineDirConfig, BaselineSlice};
pub use ed_td::{AppendixA, EdEntry, EdTd, TdEntry, TdVictimPolicy};
pub use invariant::{check_line, DirParts, Home, LineView, Violation};
pub use protocol::{
    AccessKind, DataSource, DirHitKind, DirResponse, DirSlice, DirSliceStats, DirWhere,
    Invalidation, InvalidationCause, Invalidations,
};
pub use sharers::SharerSet;
pub use state::Moesi;
pub use way_partitioned::WayPartitionedSlice;
