//! The full SecDir directory slice: the baseline's ED/TD core plus per-core VD banks.

use secdir_coherence::step::{self, TdConflict};
use secdir_coherence::{
    AccessKind, AppendixA, DataSource, DirHitKind, DirParts, DirResponse, DirSlice, DirSliceStats,
    EdEntry, EdTd, Invalidations, SharerSet, TdEntry, TdVictimPolicy,
};
use secdir_mem::{CoreId, LineAddr};

use crate::vd_banks::VdBanks;
use crate::{SecDirConfig, VdBank};

/// One slice of the SecDir directory (paper Figure 2(b)).
///
/// The shared ED and TD behave like the baseline directory *with the
/// Appendix-A fix* by construction: they are the baseline's [`EdTd`],
/// built with [`AppendixA::Fixed`]. What changes is the TD conflict path
/// (Figure 3(b)): the VD banks are this slice's [`TdVictimPolicy`], so a
/// conflicting TD entry whose line still lives in private L2s migrates
/// into the Victim Directory bank of every sharer (③), where no other
/// core can touch it, instead of being discarded.
///
/// # Examples
///
/// ```
/// use secdir::{SecDirConfig, SecDirSlice};
/// use secdir_coherence::DirSlice;
/// use secdir_mem::{CoreId, LineAddr};
/// use secdir_coherence::AccessKind;
///
/// let mut s = SecDirSlice::new(SecDirConfig::skylake_x(8), 1);
/// s.request(LineAddr::new(7), CoreId(2), AccessKind::Read);
/// assert_eq!(s.stats().requests, 1);
/// ```
#[derive(Clone, Debug)]
pub struct SecDirSlice {
    dir: EdTd,
    vds: VdBanks,
    stats: DirSliceStats,
}

/// SecDir's TD conflict resolution (Figure 3(b)). A dirty LLC victim is
/// counted in `llc_writebacks` only: unlike the baseline's, it reaches no
/// invalidation, so the machine's `memory_writebacks` never sees it.
impl TdVictimPolicy for VdBanks {
    fn td_victim(
        &mut self,
        line: LineAddr,
        victim: TdEntry,
        stats: &mut DirSliceStats,
        out: &mut Invalidations,
    ) {
        match step::td_conflict(victim, true) {
            // ②: the line lived only in the LLC; the victim process
            // itself had already evicted it from its L2 (self-conflict),
            // so discarding leaks nothing.
            TdConflict::Discard { llc_writeback, .. } => {
                stats.llc_writebacks += u64::from(llc_writeback);
                stats.td_conflict_discards += 1;
            }
            // ③: every sharer keeps its L2 copy; the directory state
            // moves into the sharers' private VD banks. No coherence
            // transaction, no L2 state change.
            TdConflict::MigrateToVd {
                sharers,
                llc_writeback,
            } => {
                stats.llc_writebacks += u64::from(llc_writeback);
                stats.td_to_vd_migrations += 1;
                let sets = self.sets(line);
                for core in sharers.iter() {
                    self.insert(sets, line, core, stats, out);
                }
            }
        }
    }
}

impl SecDirSlice {
    /// Creates an empty slice with `config.num_banks` VD banks.
    pub fn new(config: SecDirConfig, seed: u64) -> Self {
        SecDirSlice {
            dir: EdTd::new(config.ed, config.td, AppendixA::Fixed, [seed, seed ^ 1]),
            vds: VdBanks::new(&config, seed, 0x1000),
            stats: DirSliceStats::default(),
        }
    }

    /// Read-only view of a core's VD bank in this slice.
    pub fn vd_bank(&self, core: CoreId) -> &VdBank {
        self.vds.bank(core)
    }
}

impl DirSlice for SecDirSlice {
    fn request(&mut self, line: LineAddr, core: CoreId, kind: AccessKind) -> DirResponse {
        self.stats.requests += 1;
        let (stats, vds) = (&mut self.stats, &mut self.vds);
        let mut resp = DirResponse::new(DataSource::Memory, DirHitKind::Miss);
        if self.dir.serve(line, core, kind, stats, vds, &mut resp) {
            return resp;
        }
        // ED/TD missed: the VD is consulted (after them, §4.1); a read may
        // stop at the first matching batch. A reader that hits joins the
        // line's VD residency in its own bank (placement the paper leaves
        // open; see DESIGN.md), so the attacker cannot touch its entry.
        let (sets, early_exit) = (vds.sets(line), kind == AccessKind::Read);
        if !vds.serve(sets, line, core, kind, early_exit, stats, &mut resp) {
            stats.misses += 1;
            self.dir
                .allocate_ed(line, core, stats, vds, &mut resp.invalidations);
        }
        resp
    }

    fn prefetch(&self, line: LineAddr) {
        self.dir.prefetch(line);
    }

    fn l2_evict(&mut self, line: LineAddr, core: CoreId, dirty: bool) -> Invalidations {
        let mut out = Invalidations::new();
        let (stats, vds) = (&mut self.stats, &mut self.vds);
        if self.dir.l2_evict(line, core, dirty, stats, vds, &mut out) {
            return out;
        }
        // Transition ④: the line's state lives in VD banks. Consolidate
        // every matching entry into a single TD entry and write the data
        // back into the LLC.
        let sets = vds.sets(line);
        let matched = vds.holders(sets, line);
        if matched.is_empty() {
            debug_assert!(false, "L2 evicted a line with no directory entry: {line}");
            return out;
        }
        stats.vd_to_td_migrations += 1;
        vds.remove(sets, line, matched);
        // The consolidated entry transitions exactly like an ED entry whose
        // sharer vector is the VD residency.
        let entry = step::l2_evict_ed(EdEntry { sharers: matched }, core, dirty);
        self.dir.insert_td(line, entry, stats, vds, &mut out);
        out
    }

    fn parts(&self, line: LineAddr) -> DirParts {
        DirParts {
            vd: self.vds.holders(self.vds.sets(line), line),
            ..self.dir.parts(line)
        }
    }

    fn stats(&self) -> &DirSliceStats {
        &self.stats
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(LineAddr, SharerSet)) {
        self.dir.for_each_entry(f);
        self.vds.for_each_entry(f);
    }

    fn fault_flip_sharer(&mut self, line: LineAddr, core: CoreId) -> bool {
        self.dir.fault_flip_sharer(line, core)
    }

    fn fault_leak_vd(&mut self, line: LineAddr, core: CoreId) -> bool {
        // Replay the LeakVdOnConsolidate protocol bug on the production
        // structures: a raw bank insert that leaves the line's live ED/TD
        // entry in place, creating the VD-aliasing state the oracle must
        // flag. Only meaningful when such an entry exists.
        if !self.dir.tracks(line) {
            return false;
        }
        self.vds.bank_mut(core).insert(line);
        true
    }

    fn validate(&self) -> Result<(), String> {
        self.vds.check_storage()?;
        self.dir.check_storage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VdHashing;
    use secdir_cache::Geometry;
    use secdir_coherence::{DataSource, DirWhere, InvalidationCause};

    /// A slice small enough to force every transition: 1-set ED/TD with 2
    /// ways each, 4 cores, 4-set × 2-way cuckoo VD banks.
    fn tiny() -> SecDirSlice {
        SecDirSlice::new(
            SecDirConfig {
                ed: Geometry::new(1, 2),
                td: Geometry::new(1, 2),
                vd_bank: Geometry::new(4, 2),
                num_banks: 4,
                hashing: VdHashing::Cuckoo { num_relocations: 8 },
                empty_bit: true,
                search_batch: None,
            },
            11,
        )
    }

    fn read(s: &mut SecDirSlice, line: u64, core: usize) -> DirResponse {
        s.request(LineAddr::new(line), CoreId(core), AccessKind::Read)
    }

    /// Drive `lines` through ED and TD so their entries land where a TD
    /// conflict will hit them.
    fn fill_ed_td(s: &mut SecDirSlice, first: u64, n: u64, core: usize) {
        for l in first..first + n {
            read(s, l, core);
        }
    }

    #[test]
    fn td_conflict_with_sharers_migrates_to_vd_not_invalidates() {
        let mut s = tiny();
        // 4 lines owned by core 0 fill ED (2) + TD (2).
        fill_ed_td(&mut s, 1, 4, 0);
        // Line 5 forces: ED conflict → TD insert → TD conflict. The TD
        // victim has core 0 as sharer, so it must go to core 0's VD.
        let r = read(&mut s, 5, 0);
        assert!(
            r.invalidations
                .iter()
                .all(|i| i.cause != InvalidationCause::TdConflict),
            "no inclusion victims on the secure path"
        );
        assert_eq!(s.stats().td_to_vd_migrations, 1);
        assert_eq!(s.stats().td_conflict_discards, 0);
        // Exactly one line now lives in core 0's VD bank.
        let in_vd = (1..=5)
            .filter(|&l| matches!(s.locate(LineAddr::new(l)), Some(DirWhere::Vd(_))))
            .count();
        assert_eq!(in_vd, 1);
    }

    #[test]
    fn td_conflict_without_sharers_discards() {
        let mut s = tiny();
        read(&mut s, 1, 0);
        s.l2_evict(LineAddr::new(1), CoreId(0), false); // line 1: LLC only
        read(&mut s, 2, 0);
        s.l2_evict(LineAddr::new(2), CoreId(0), false); // line 2: LLC only
                                                        // TD (2 ways) is now full of sharer-less entries; force a third fill.
        read(&mut s, 3, 0);
        s.l2_evict(LineAddr::new(3), CoreId(0), false);
        assert_eq!(s.stats().td_conflict_discards, 1);
        assert_eq!(s.stats().td_to_vd_migrations, 0);
    }

    #[test]
    fn td_to_vd_covers_every_sharer() {
        let mut s = tiny();
        read(&mut s, 1, 0);
        read(&mut s, 1, 1);
        read(&mut s, 1, 2); // line 1 shared by cores 0,1,2 (entry in ED)
                            // Evict line 1's entry from ED into TD (data-less), then conflict it
                            // out of TD.
        fill_ed_td(&mut s, 2, 2, 3); // fills remaining ED way + forces line 1 out
                                     // line 1's ED entry may have been victimized already; keep pushing
                                     // until it reaches VD.
        let mut next = 4u64;
        while !matches!(s.locate(LineAddr::new(1)), Some(DirWhere::Vd(_))) {
            read(&mut s, next, 3);
            next += 1;
            assert!(next < 64, "line 1 never migrated to VD");
        }
        let Some(DirWhere::Vd(sharers)) = s.locate(LineAddr::new(1)) else {
            unreachable!()
        };
        assert!(sharers.contains(CoreId(0)));
        assert!(sharers.contains(CoreId(1)));
        assert!(sharers.contains(CoreId(2)));
    }

    #[test]
    fn vd_read_hit_serves_from_owner_and_isolates_requester() {
        let mut s = tiny();
        fill_ed_td(&mut s, 1, 4, 0);
        read(&mut s, 5, 0); // some line of core 0 now lives in its VD
        let vd_line = (1..=5)
            .map(LineAddr::new)
            .find(|&l| matches!(s.locate(l), Some(DirWhere::Vd(_))))
            .expect("one line in VD");
        let r = s.request(vd_line, CoreId(1), AccessKind::Read);
        assert_eq!(r.hit, DirHitKind::Vd);
        assert_eq!(r.source, DataSource::L2Cache(CoreId(0)));
        assert_eq!(s.stats().vd_hits, 1);
        // Requester's entry joined its own bank.
        let Some(DirWhere::Vd(sharers)) = s.locate(vd_line) else {
            panic!("line left VD");
        };
        assert!(sharers.contains(CoreId(0)) && sharers.contains(CoreId(1)));
    }

    #[test]
    fn vd_write_hit_invalidates_other_banks() {
        let mut s = tiny();
        fill_ed_td(&mut s, 1, 4, 0);
        read(&mut s, 5, 0);
        let vd_line = (1..=5)
            .map(LineAddr::new)
            .find(|&l| matches!(s.locate(l), Some(DirWhere::Vd(_))))
            .expect("one line in VD");
        s.request(vd_line, CoreId(1), AccessKind::Read); // two VD sharers
        let r = s.request(vd_line, CoreId(1), AccessKind::Write);
        assert_eq!(r.hit, DirHitKind::Vd);
        assert_eq!(r.source, DataSource::None, "writer already held a copy");
        assert_eq!(r.invalidations.len(), 1);
        assert_eq!(r.invalidations[0].cores, SharerSet::single(CoreId(0)));
        assert_eq!(r.invalidations[0].cause, InvalidationCause::Coherence);
        assert_eq!(
            s.locate(vd_line),
            Some(DirWhere::Vd(SharerSet::single(CoreId(1))))
        );
    }

    #[test]
    fn l2_evict_consolidates_vd_entries_into_td() {
        let mut s = tiny();
        fill_ed_td(&mut s, 1, 4, 0);
        read(&mut s, 5, 0);
        let vd_line = (1..=5)
            .map(LineAddr::new)
            .find(|&l| matches!(s.locate(l), Some(DirWhere::Vd(_))))
            .expect("one line in VD");
        s.request(vd_line, CoreId(1), AccessKind::Read); // second VD sharer
        let before = s.stats().vd_to_td_migrations;
        s.l2_evict(vd_line, CoreId(0), true);
        assert_eq!(s.stats().vd_to_td_migrations, before + 1);
        let Some(DirWhere::Td { sharers, has_data }) = s.locate(vd_line) else {
            panic!("consolidated entry must be in TD");
        };
        assert!(has_data);
        assert_eq!(sharers, SharerSet::single(CoreId(1)), "evictor removed");
        assert!(!s.vd_bank(CoreId(0)).contains(vd_line));
        assert!(!s.vd_bank(CoreId(1)).contains(vd_line));
    }

    #[test]
    fn vd_self_conflicts_only_touch_the_owning_core() {
        let mut s = SecDirSlice::new(
            SecDirConfig {
                ed: Geometry::new(1, 1),
                td: Geometry::new(1, 1),
                vd_bank: Geometry::new(2, 1), // tiny VD: conflicts guaranteed
                num_banks: 2,
                hashing: VdHashing::Cuckoo { num_relocations: 2 },
                empty_bit: true,
                search_batch: None,
            },
            5,
        );
        for l in 1..40 {
            let r = read(&mut s, l, 0);
            for inv in &r.invalidations {
                if inv.cause == InvalidationCause::VdConflict {
                    assert_eq!(
                        inv.cores,
                        SharerSet::single(CoreId(0)),
                        "VD conflicts must be self-conflicts"
                    );
                }
            }
        }
        assert!(
            s.stats().vd_self_conflicts > 0,
            "tiny VD must self-conflict"
        );
    }

    #[test]
    fn empty_bit_suppresses_probes_on_empty_banks() {
        let mut s = tiny();
        read(&mut s, 1, 0); // miss: VD queried, all banks empty
        assert_eq!(s.stats().vd_lookups, 1);
        assert_eq!(s.stats().vd_bank_probes, 0);
        assert_eq!(s.stats().vd_bank_probes_without_eb, 4);
    }

    #[test]
    fn isolation_attacker_cannot_touch_victim_vd_bank() {
        // The security core: fill everything from attacker cores 1..3 and
        // verify core 0's VD contents are untouched.
        let mut s = tiny();
        fill_ed_td(&mut s, 1, 4, 0);
        read(&mut s, 5, 0);
        let victim_resident: Vec<LineAddr> = s.vd_bank(CoreId(0)).iter().collect();
        assert!(!victim_resident.is_empty());
        // Attacker storm from other cores.
        for l in 100..300 {
            read(&mut s, l, 1 + (l as usize % 3));
        }
        for &l in &victim_resident {
            assert!(
                s.vd_bank(CoreId(0)).contains(l),
                "attacker displaced victim VD entry {l}"
            );
        }
    }

    #[test]
    fn stats_requests_counted() {
        let mut s = tiny();
        read(&mut s, 1, 0);
        s.request(LineAddr::new(1), CoreId(0), AccessKind::Write);
        assert_eq!(s.stats().requests, 2);
    }
}
