//! Machine-level statistics.
//!
//! Every counter here is part of the determinism contract: serial reruns,
//! sweep fan-out, and the slice-parallel engine (`crate::sliced`) must all
//! reproduce these structures bit for bit, and the golden-stats suite
//! (`tests/golden_stats.rs`) pins the full serialized form per directory
//! kind for both engines.

use secdir_coherence::{DirSliceStats, InvalidationCause};
use serde::{Deserialize, Serialize};

/// Per-core event counters.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // field names are self-describing counters
pub struct CoreStats {
    pub accesses: u64,
    pub reads: u64,
    pub writes: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    /// L2 misses that went to the directory for data (paper Figure 7(b)'s
    /// denominator). Write upgrades are not L2 misses.
    pub l2_misses: u64,
    /// L2 misses satisfied by an ED or TD hit.
    pub ed_td_hits: u64,
    /// L2 misses satisfied by a VD hit.
    pub vd_hits: u64,
    /// L2 misses that went to main memory.
    pub memory_accesses: u64,
    /// Write upgrades (store to a Shared/Owned resident line).
    pub upgrades: u64,
    /// Lines removed from this core's private caches by directory pressure
    /// (TD conflicts, the Appendix-A quirk, or VD self-conflicts).
    pub inclusion_victims: u64,
    /// Dirty copies this core wrote back to memory on invalidation.
    pub invalidation_writebacks: u64,
    /// Dirty L2 victims written into the LLC.
    pub l2_writebacks: u64,
}

/// Machine-wide statistics: per-core counters, the merged directory
/// counters, and invalidation accounting by cause.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineStats {
    /// One entry per core.
    pub cores: Vec<CoreStats>,
    /// Sum of all slices' directory stats. The slices own the live
    /// counters, so `Machine::stats` leaves this zeroed; whoever needs it
    /// fills it from `Machine::directory_stats` (sweep records do).
    pub directory: DirSliceStats,
    /// Lines invalidated from private caches, by cause:
    /// `[Coherence, TdConflict, EdToTdQuirk, VdConflict]`.
    pub invalidations_by_cause: [u64; 4],
    /// Dirty lines written back to memory (all sources).
    pub memory_writebacks: u64,
}

impl MachineStats {
    pub(crate) fn new(cores: usize) -> Self {
        MachineStats {
            cores: (0..cores).map(|_| CoreStats::default()).collect(),
            ..Default::default()
        }
    }

    /// Buckets one invalidation into [`MachineStats::invalidations_by_cause`].
    pub(crate) fn count_invalidation(&mut self, cause: InvalidationCause) {
        let idx = match cause {
            InvalidationCause::Coherence => 0,
            InvalidationCause::TdConflict => 1,
            InvalidationCause::EdToTdQuirk => 2,
            InvalidationCause::VdConflict => 3,
        };
        self.invalidations_by_cause[idx] += 1;
    }

    /// Total L2 misses over all cores.
    pub fn total_l2_misses(&self) -> u64 {
        self.cores.iter().map(|c| c.l2_misses).sum()
    }

    /// Total accesses over all cores.
    pub fn total_accesses(&self) -> u64 {
        self.cores.iter().map(|c| c.accesses).sum()
    }

    /// Total inclusion victims over all cores.
    pub fn total_inclusion_victims(&self) -> u64 {
        self.cores.iter().map(|c| c.inclusion_victims).sum()
    }

    /// The Figure 7(b)/8(b) miss breakdown `(ed_td_hits, vd_hits,
    /// memory_accesses)` summed over all cores.
    pub fn miss_breakdown(&self) -> (u64, u64, u64) {
        let ed_td = self.cores.iter().map(|c| c.ed_td_hits).sum();
        let vd = self.cores.iter().map(|c| c.vd_hits).sum();
        let mem = self.cores.iter().map(|c| c.memory_accesses).sum();
        (ed_td, vd, mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sizes_core_vec() {
        let s = MachineStats::new(8);
        assert_eq!(s.cores.len(), 8);
    }

    #[test]
    fn invalidation_causes_bucketed() {
        let mut s = MachineStats::new(1);
        s.count_invalidation(InvalidationCause::Coherence);
        s.count_invalidation(InvalidationCause::TdConflict);
        s.count_invalidation(InvalidationCause::TdConflict);
        s.count_invalidation(InvalidationCause::VdConflict);
        assert_eq!(s.invalidations_by_cause, [1, 2, 0, 1]);
    }

    #[test]
    fn totals_sum_across_cores() {
        let mut s = MachineStats::new(2);
        s.cores[0].l2_misses = 3;
        s.cores[1].l2_misses = 4;
        s.cores[0].ed_td_hits = 1;
        s.cores[1].vd_hits = 2;
        s.cores[1].memory_accesses = 4;
        assert_eq!(s.total_l2_misses(), 7);
        assert_eq!(s.miss_breakdown(), (1, 2, 4));
    }
}
