//! The conventional (insecure) Skylake-X directory slice: TD + ED.

use secdir_cache::Geometry;
use secdir_mem::{CoreId, LineAddr};
use serde::{Deserialize, Serialize};

use crate::ed_td::DiscardVictims;
use crate::{
    AccessKind, AppendixA, DataSource, DirHitKind, DirParts, DirResponse, DirSlice, DirSliceStats,
    EdTd, Invalidations, SharerSet,
};

/// Configuration of a [`BaselineSlice`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineDirConfig {
    /// ED geometry (Skylake-X: 2048 sets × 12 ways).
    pub ed: Geometry,
    /// TD geometry, which is also the LLC slice geometry
    /// (Skylake-X: 2048 sets × 11 ways).
    pub td: Geometry,
    /// Appendix-A behaviour.
    pub appendix_a: AppendixA,
}

impl BaselineDirConfig {
    /// The Intel Skylake-X parameters of paper Table 3 (with the stock
    /// Appendix-A quirk).
    pub fn skylake_x() -> Self {
        BaselineDirConfig {
            ed: Geometry::new(2048, 12),
            td: Geometry::new(2048, 11),
            appendix_a: AppendixA::SkylakeQuirk,
        }
    }

    /// Skylake-X geometry with the Appendix-A fix applied.
    pub fn skylake_x_fixed() -> Self {
        BaselineDirConfig {
            appendix_a: AppendixA::Fixed,
            ..Self::skylake_x()
        }
    }
}

impl Default for BaselineDirConfig {
    fn default() -> Self {
        Self::skylake_x()
    }
}

/// One slice of the conventional Skylake-X directory (paper Figure 2(a))
/// together with the coupled LLC data presence: an [`EdTd`] whose TD
/// conflicts discard their victim (Figure 3(a) ②).
///
/// # Examples
///
/// ```
/// use secdir_coherence::{AccessKind, BaselineDirConfig, BaselineSlice, DirSlice, DirHitKind};
/// use secdir_mem::{CoreId, LineAddr};
///
/// let mut s = BaselineSlice::new(BaselineDirConfig::skylake_x(), 0);
/// let line = LineAddr::new(0x99);
/// // First access allocates in the ED.
/// assert_eq!(s.request(line, CoreId(0), AccessKind::Read).hit, DirHitKind::Miss);
/// // A second core's read now hits the ED entry.
/// assert_eq!(s.request(line, CoreId(1), AccessKind::Read).hit, DirHitKind::Ed);
/// ```
#[derive(Clone, Debug)]
pub struct BaselineSlice {
    dir: EdTd,
    stats: DirSliceStats,
}

impl BaselineSlice {
    /// Creates an empty slice. `seed` feeds the ED's random replacement.
    pub fn new(config: BaselineDirConfig, seed: u64) -> Self {
        BaselineSlice {
            dir: EdTd::new(config.ed, config.td, config.appendix_a, [seed, seed ^ 1]),
            stats: DirSliceStats::default(),
        }
    }
}

impl DirSlice for BaselineSlice {
    fn request(&mut self, line: LineAddr, core: CoreId, kind: AccessKind) -> DirResponse {
        self.stats.requests += 1;
        let (stats, victims) = (&mut self.stats, &mut DiscardVictims);
        let mut resp = DirResponse::new(DataSource::Memory, DirHitKind::Miss);
        if !self.dir.serve(line, core, kind, stats, victims, &mut resp) {
            stats.misses += 1;
            let out = &mut resp.invalidations;
            self.dir.allocate_ed(line, core, stats, victims, out);
        }
        resp
    }

    fn prefetch(&self, line: LineAddr) {
        self.dir.prefetch(line);
    }

    fn l2_evict(&mut self, line: LineAddr, core: CoreId, dirty: bool) -> Invalidations {
        let mut out = Invalidations::new();
        let (dir, stats, victims) = (&mut self.dir, &mut self.stats, &mut DiscardVictims);
        let tracked = dir.l2_evict(line, core, dirty, stats, victims, &mut out);
        debug_assert!(tracked, "L2 evicted a line with no directory entry: {line}");
        out
    }

    fn parts(&self, line: LineAddr) -> DirParts {
        self.dir.parts(line)
    }

    fn stats(&self) -> &DirSliceStats {
        &self.stats
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(LineAddr, SharerSet)) {
        self.dir.for_each_entry(f);
    }

    fn fault_flip_sharer(&mut self, line: LineAddr, core: CoreId) -> bool {
        self.dir.fault_flip_sharer(line, core)
    }

    fn validate(&self) -> Result<(), String> {
        self.dir.check_storage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirWhere;
    use crate::InvalidationCause;

    fn tiny(appendix_a: AppendixA) -> BaselineSlice {
        // 1-set structures so conflicts are easy to force.
        BaselineSlice::new(
            BaselineDirConfig {
                ed: Geometry::new(1, 2),
                td: Geometry::new(1, 2),
                appendix_a,
            },
            7,
        )
    }

    fn read(s: &mut BaselineSlice, line: u64, core: usize) -> DirResponse {
        s.request(LineAddr::new(line), CoreId(core), AccessKind::Read)
    }

    #[test]
    fn miss_allocates_in_ed() {
        let mut s = tiny(AppendixA::Fixed);
        let r = read(&mut s, 1, 0);
        assert_eq!(r.hit, DirHitKind::Miss);
        assert_eq!(r.source, DataSource::Memory);
        assert!(matches!(s.locate(LineAddr::new(1)), Some(DirWhere::Ed(_))));
    }

    #[test]
    fn second_reader_joins_ed_sharers() {
        let mut s = tiny(AppendixA::Fixed);
        read(&mut s, 1, 0);
        let r = read(&mut s, 1, 1);
        assert_eq!(r.hit, DirHitKind::Ed);
        assert_eq!(r.source, DataSource::L2Cache(CoreId(0)));
        let DirWhere::Ed(sharers) = s.locate(LineAddr::new(1)).unwrap() else {
            panic!("expected ED entry");
        };
        assert_eq!(sharers.count(), 2);
    }

    #[test]
    fn ed_conflict_migrates_to_td() {
        let mut s = tiny(AppendixA::Fixed);
        read(&mut s, 1, 0);
        read(&mut s, 2, 0);
        read(&mut s, 3, 0); // ED has 2 ways: one victim migrates to TD
        let in_td = [1u64, 2, 3]
            .iter()
            .filter(|&&l| matches!(s.locate(LineAddr::new(l)), Some(DirWhere::Td { .. })))
            .count();
        assert_eq!(in_td, 1);
        assert_eq!(s.stats().ed_to_td_migrations, 1);
    }

    #[test]
    fn fixed_mode_ed_conflict_creates_no_inclusion_victim() {
        let mut s = tiny(AppendixA::Fixed);
        read(&mut s, 1, 0);
        read(&mut s, 2, 0);
        let r = read(&mut s, 3, 0);
        assert!(r.invalidations.is_empty());
        assert_eq!(s.stats().quirk_invalidations, 0);
    }

    #[test]
    fn quirk_mode_ed_conflict_invalidates_exclusive_copy() {
        let mut s = tiny(AppendixA::SkylakeQuirk);
        read(&mut s, 1, 0);
        read(&mut s, 2, 0);
        let r = read(&mut s, 3, 0);
        let quirk: Vec<_> = r
            .invalidations
            .iter()
            .filter(|i| i.cause == InvalidationCause::EdToTdQuirk)
            .collect();
        assert_eq!(quirk.len(), 1);
        assert_eq!(quirk[0].cores.count(), 1);
        assert_eq!(s.stats().quirk_invalidations, 1);
        // The migrated entry sits in TD with data and no sharers.
        let migrated = quirk[0].line;
        assert_eq!(
            s.locate(migrated),
            Some(DirWhere::Td {
                sharers: SharerSet::empty(),
                has_data: true
            })
        );
    }

    #[test]
    fn quirk_mode_keeps_shared_copies() {
        let mut s = tiny(AppendixA::SkylakeQuirk);
        read(&mut s, 1, 0);
        read(&mut s, 1, 1); // two sharers: quirk does not apply
        read(&mut s, 2, 0);
        let r = read(&mut s, 3, 0);
        assert!(r
            .invalidations
            .iter()
            .all(|i| i.cause != InvalidationCause::EdToTdQuirk || i.line != LineAddr::new(1)));
    }

    #[test]
    fn td_conflict_discards_and_invalidates() {
        let mut s = tiny(AppendixA::Fixed);
        // Fill ED (2 ways) + TD (2 ways) with lines of core 0.
        for l in 1..=4 {
            read(&mut s, l, 0);
        }
        assert_eq!(s.stats().td_conflict_discards, 0);
        let r = read(&mut s, 5, 0); // ED victim → TD conflict → discard
        let td_conflicts: Vec<_> = r
            .invalidations
            .iter()
            .filter(|i| i.cause == InvalidationCause::TdConflict)
            .collect();
        assert_eq!(td_conflicts.len(), 1);
        assert_eq!(s.stats().td_conflict_discards, 1);
        // Exactly 4 lines still tracked (5 touched, 1 discarded).
        let tracked = (1..=5)
            .filter(|&l| s.locate(LineAddr::new(l)).is_some())
            .count();
        assert_eq!(tracked, 4);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut s = tiny(AppendixA::Fixed);
        read(&mut s, 1, 0);
        read(&mut s, 1, 1);
        let r = s.request(LineAddr::new(1), CoreId(2), AccessKind::Write);
        assert_eq!(r.hit, DirHitKind::Ed);
        assert_eq!(r.invalidations.len(), 1);
        assert_eq!(r.invalidations[0].cores.count(), 2);
        assert_eq!(r.invalidations[0].cause, InvalidationCause::Coherence);
        let DirWhere::Ed(sharers) = s.locate(LineAddr::new(1)).unwrap() else {
            panic!("entry stays in ED");
        };
        assert_eq!(sharers, SharerSet::single(CoreId(2)));
    }

    #[test]
    fn upgrade_by_existing_sharer_needs_no_data() {
        let mut s = tiny(AppendixA::Fixed);
        read(&mut s, 1, 0);
        read(&mut s, 1, 1);
        let r = s.request(LineAddr::new(1), CoreId(0), AccessKind::Write);
        assert_eq!(r.source, DataSource::None);
        assert_eq!(r.invalidations[0].cores, SharerSet::single(CoreId(1)));
    }

    #[test]
    fn l2_evict_moves_ed_entry_to_td_with_data() {
        let mut s = tiny(AppendixA::Fixed);
        read(&mut s, 1, 0);
        let out = s.l2_evict(LineAddr::new(1), CoreId(0), true);
        assert!(out.is_empty());
        assert_eq!(
            s.locate(LineAddr::new(1)),
            Some(DirWhere::Td {
                sharers: SharerSet::empty(),
                has_data: true
            })
        );
        assert!(s.parts(LineAddr::new(1)).td.is_some_and(|t| t.has_data));
        assert_eq!(s.stats().llc_data_fills, 1);
    }

    #[test]
    fn read_after_llc_fill_hits_td_and_serves_from_llc() {
        let mut s = tiny(AppendixA::Fixed);
        read(&mut s, 1, 0);
        s.l2_evict(LineAddr::new(1), CoreId(0), false);
        let r = read(&mut s, 1, 1);
        assert_eq!(r.hit, DirHitKind::Td);
        assert_eq!(r.source, DataSource::Llc);
    }

    #[test]
    fn write_to_td_entry_migrates_back_to_ed() {
        let mut s = tiny(AppendixA::Fixed);
        read(&mut s, 1, 0);
        s.l2_evict(LineAddr::new(1), CoreId(0), false);
        let r = s.request(LineAddr::new(1), CoreId(1), AccessKind::Write);
        assert_eq!(r.hit, DirHitKind::Td);
        assert_eq!(r.source, DataSource::Llc);
        assert!(matches!(s.locate(LineAddr::new(1)), Some(DirWhere::Ed(_))));
        assert!(!s.parts(LineAddr::new(1)).td.is_some_and(|t| t.has_data));
        assert_eq!(s.stats().td_to_ed_migrations, 1);
    }

    #[test]
    fn td_conflict_dirty_llc_line_writes_back() {
        let mut s = tiny(AppendixA::Fixed);
        // Two dirty lines into the LLC via L2 evictions.
        for l in 1..=2 {
            read(&mut s, l, 0);
            s.l2_evict(LineAddr::new(l), CoreId(0), true);
        }
        // A third fill conflicts in the single TD set.
        read(&mut s, 3, 0);
        let out = s.l2_evict(LineAddr::new(3), CoreId(0), false);
        assert_eq!(out.len(), 1);
        assert!(out[0].llc_writeback, "dirty LLC victim must write back");
    }

    #[test]
    fn dirty_travels_through_td_sharer_removal() {
        let mut s = tiny(AppendixA::Fixed);
        read(&mut s, 1, 0);
        read(&mut s, 1, 1);
        // Core 0 evicts its dirty copy; entry is in ED with 2 sharers.
        let out = s.l2_evict(LineAddr::new(1), CoreId(0), true);
        assert!(out.is_empty());
        let DirWhere::Td { sharers, has_data } = s.locate(LineAddr::new(1)).unwrap() else {
            panic!("entry must be in TD");
        };
        assert!(has_data);
        assert_eq!(sharers, SharerSet::single(CoreId(1)));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut s = tiny(AppendixA::Fixed);
        read(&mut s, 1, 0);
        read(&mut s, 1, 1);
        s.l2_evict(LineAddr::new(1), CoreId(0), false);
        read(&mut s, 1, 2);
        let st = s.stats();
        assert_eq!(st.requests, 3);
        assert_eq!(st.misses, 1);
        assert_eq!(st.ed_hits, 1);
        assert_eq!(st.td_hits, 1);
    }
}
