//! The VD-only slice: SecDir under the paper's worst-case attacker.
//!
//! §9 emulates the most powerful adversary — one that fully controls the
//! shared ED and TD — by simulating SecDir *without* ED or TD: the victim
//! can only use its private Victim Directory. Figure 6 (the AES trace) and
//! the CKVD/NoCKVD columns of Table 6 run in this mode.

use secdir_coherence::{
    AccessKind, DataSource, DirHitKind, DirParts, DirResponse, DirSlice, DirSliceStats,
    Invalidations, SharerSet,
};
use secdir_mem::{CoreId, LineAddr};

use crate::vd_banks::VdBanks;
use crate::{SecDirConfig, VdBank};

/// A directory slice consisting only of per-core VD banks.
///
/// Semantics (paper §9): a fetched line's directory entry is inserted
/// directly into the requester's VD bank; when a line is evicted from an
/// L2, its VD entry is evicted too ("because there is no TD"), so a later
/// access goes to main memory.
///
/// # Examples
///
/// ```
/// use secdir::{SecDirConfig, VdOnlySlice};
/// use secdir_coherence::{AccessKind, DirHitKind, DirSlice};
/// use secdir_mem::{CoreId, LineAddr};
///
/// let mut s = VdOnlySlice::new(SecDirConfig::skylake_x(8), 0);
/// let r = s.request(LineAddr::new(5), CoreId(0), AccessKind::Read);
/// assert_eq!(r.hit, DirHitKind::Miss); // cold: straight to memory
/// assert!(s.vd_bank(CoreId(0)).contains(LineAddr::new(5)));
/// ```
#[derive(Clone, Debug)]
pub struct VdOnlySlice {
    vds: VdBanks,
    stats: DirSliceStats,
}

impl VdOnlySlice {
    /// Creates the slice; only the VD fields of `config` are used.
    pub fn new(config: SecDirConfig, seed: u64) -> Self {
        VdOnlySlice {
            vds: VdBanks::new(&config, seed, 0x2000),
            stats: DirSliceStats::default(),
        }
    }

    /// Read-only view of a core's VD bank in this slice.
    pub fn vd_bank(&self, core: CoreId) -> &VdBank {
        self.vds.bank(core)
    }
}

impl DirSlice for VdOnlySlice {
    fn request(&mut self, line: LineAddr, core: CoreId, kind: AccessKind) -> DirResponse {
        let (stats, vds) = (&mut self.stats, &mut self.vds);
        stats.requests += 1;
        let mut resp = DirResponse::new(DataSource::Memory, DirHitKind::Miss);
        let sets = vds.sets(line);
        let hit = vds.serve(sets, line, core, kind, false, stats, &mut resp);
        // Only a hit reports a probed VD array (a miss pays no VD array
        // latency), and no search batches are reported. With no ED, a miss
        // places the requester's entry straight into its own bank.
        (resp.vd_array_probed, resp.vd_batches) = (hit, 0);
        if !hit {
            stats.misses += 1;
            vds.insert(sets, line, core, stats, &mut resp.invalidations);
        }
        resp
    }

    fn l2_evict(&mut self, line: LineAddr, core: CoreId, _dirty: bool) -> Invalidations {
        // No TD to consolidate into: the evicting core's entry is dropped.
        let sets = self.vds.sets(line);
        self.vds.remove(sets, line, SharerSet::single(core));
        Invalidations::new()
    }

    fn parts(&self, line: LineAddr) -> DirParts {
        DirParts {
            vd: self.vds.holders(self.vds.sets(line), line),
            ..DirParts::default()
        }
    }

    fn stats(&self) -> &DirSliceStats {
        &self.stats
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(LineAddr, SharerSet)) {
        self.vds.for_each_entry(f);
    }

    fn fault_flip_sharer(&mut self, line: LineAddr, core: CoreId) -> bool {
        // The bank residency *is* the presence bit here: toggling means
        // dropping a tracked line (inclusion violation) or fabricating a
        // residency for an unheld one (stale sharer).
        let bank = self.vds.bank_mut(core);
        if !bank.remove(line) {
            bank.insert(line);
        }
        true
    }

    fn validate(&self) -> Result<(), String> {
        self.vds.check_storage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VdHashing;
    use secdir_cache::Geometry;
    use secdir_coherence::{DataSource, DirWhere, InvalidationCause};

    fn tiny() -> VdOnlySlice {
        VdOnlySlice::new(
            SecDirConfig {
                ed: Geometry::new(1, 1),
                td: Geometry::new(1, 1),
                vd_bank: Geometry::new(4, 2),
                num_banks: 2,
                hashing: VdHashing::Cuckoo { num_relocations: 4 },
                empty_bit: true,
                search_batch: None,
            },
            3,
        )
    }

    #[test]
    fn fetch_goes_straight_to_vd() {
        let mut s = tiny();
        let r = s.request(LineAddr::new(9), CoreId(0), AccessKind::Read);
        assert_eq!(r.hit, DirHitKind::Miss);
        assert_eq!(r.source, DataSource::Memory);
        assert_eq!(
            s.locate(LineAddr::new(9)),
            Some(DirWhere::Vd(SharerSet::single(CoreId(0))))
        );
    }

    #[test]
    fn l2_evict_drops_the_entry() {
        let mut s = tiny();
        s.request(LineAddr::new(9), CoreId(0), AccessKind::Read);
        s.l2_evict(LineAddr::new(9), CoreId(0), false);
        assert_eq!(s.locate(LineAddr::new(9)), None);
        // Re-access misses to memory again (Figure 6's behaviour).
        let r = s.request(LineAddr::new(9), CoreId(0), AccessKind::Read);
        assert_eq!(r.source, DataSource::Memory);
    }

    #[test]
    fn cross_core_read_hits_vd() {
        let mut s = tiny();
        s.request(LineAddr::new(9), CoreId(0), AccessKind::Read);
        let r = s.request(LineAddr::new(9), CoreId(1), AccessKind::Read);
        assert_eq!(r.hit, DirHitKind::Vd);
        assert_eq!(r.source, DataSource::L2Cache(CoreId(0)));
        assert!(s.vd_bank(CoreId(1)).contains(LineAddr::new(9)));
    }

    #[test]
    fn write_invalidates_other_banks() {
        let mut s = tiny();
        s.request(LineAddr::new(9), CoreId(0), AccessKind::Read);
        s.request(LineAddr::new(9), CoreId(1), AccessKind::Read);
        let r = s.request(LineAddr::new(9), CoreId(1), AccessKind::Write);
        assert_eq!(r.source, DataSource::None);
        assert_eq!(r.invalidations[0].cores, SharerSet::single(CoreId(0)));
        assert!(!s.vd_bank(CoreId(0)).contains(LineAddr::new(9)));
    }

    #[test]
    fn self_conflicts_are_reported() {
        let mut s = VdOnlySlice::new(
            SecDirConfig {
                ed: Geometry::new(1, 1),
                td: Geometry::new(1, 1),
                vd_bank: Geometry::new(2, 1),
                num_banks: 1,
                hashing: VdHashing::Cuckoo { num_relocations: 2 },
                empty_bit: true,
                search_batch: None,
            },
            8,
        );
        let mut conflicts = 0;
        for l in 0..64u64 {
            let r = s.request(LineAddr::new(l * 7 + 1), CoreId(0), AccessKind::Read);
            conflicts += r
                .invalidations
                .iter()
                .filter(|i| i.cause == InvalidationCause::VdConflict)
                .count();
        }
        assert!(conflicts > 0);
        assert_eq!(s.stats().vd_self_conflicts as usize, conflicts);
    }
}
