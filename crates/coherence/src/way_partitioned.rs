//! The way-partitioned directory — the paper's rejected alternative (§1).
//!
//! "A second approach is to way-partition the directory. Each application
//! is given some of the directory ways, to which it has uncontested use.
//! … Unfortunately, this approach is inflexible, low performing, and
//! limited, since servers can have many more cores than directory ways."
//!
//! This module implements that strawman faithfully so the claim can be
//! measured: each core owns `⌊W/N⌋` private ED ways and TD ways per set.
//! A directory entry lives in its *allocating* core's partition; conflicts
//! are therefore always self-conflicts (secure, like SecDir), but each
//! core's effective directory — and LLC share — shrinks to a sliver, and
//! the design cannot support more cores than ways at all.

use secdir_cache::Geometry;
use secdir_mem::{CoreId, LineAddr};

use crate::ed_td::DiscardVictims;
use crate::{
    AccessKind, AppendixA, BaselineDirConfig, DataSource, DirHitKind, DirParts, DirResponse,
    DirSlice, DirSliceStats, EdTd, Invalidations, SharerSet, TdEntry, TdVictimPolicy,
};

/// One slice of a statically way-partitioned directory: one [`EdTd`] per
/// core, each with that core's share of the ways.
///
/// # Examples
///
/// ```
/// use secdir_coherence::{BaselineDirConfig, WayPartitionedSlice};
///
/// assert!(WayPartitionedSlice::supports(&BaselineDirConfig::skylake_x(), 8));
/// assert!(!WayPartitionedSlice::supports(&BaselineDirConfig::skylake_x(), 16));
/// ```
#[derive(Clone, Debug)]
pub struct WayPartitionedSlice {
    /// Per-core private ED and TD/LLC partitions.
    parts: Vec<EdTd>,
    stats: DirSliceStats,
}

/// A partition's TD conflict (always a self-conflict) discards the victim
/// like the baseline's, but also counts a dirty LLC victim in
/// `llc_writebacks`, which the baseline leaves to `memory_writebacks`.
struct DiscardCountingWritebacks;

impl TdVictimPolicy for DiscardCountingWritebacks {
    fn td_victim(
        &mut self,
        line: LineAddr,
        victim: TdEntry,
        stats: &mut DirSliceStats,
        out: &mut Invalidations,
    ) {
        stats.llc_writebacks += u64::from(victim.has_data && victim.llc_dirty);
        DiscardVictims.td_victim(line, victim, stats, out);
    }
}

impl WayPartitionedSlice {
    /// Whether the geometry can give every one of `cores` cores at least
    /// one private ED way and one private TD way — the fundamental limit
    /// the paper points out.
    pub fn supports(config: &BaselineDirConfig, cores: usize) -> bool {
        cores > 0 && config.ed.ways() >= cores && config.td.ways() >= cores
    }

    /// Creates a slice partitioned among `cores` cores, each partition with
    /// the Appendix-A fix (the partitioned design has no reason for the
    /// quirk).
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot support that many partitions
    /// (see [`WayPartitionedSlice::supports`]).
    pub fn new(config: BaselineDirConfig, cores: usize, seed: u64) -> Self {
        assert!(
            Self::supports(&config, cores),
            "way partitioning cannot serve {cores} cores with {}+{} ways",
            config.ed.ways(),
            config.td.ways()
        );
        let share = |g: Geometry| Geometry::new(g.sets(), g.ways() / cores);
        let (ed, td, fixed) = (share(config.ed), share(config.td), AppendixA::Fixed);
        WayPartitionedSlice {
            parts: (0..cores as u64)
                .map(|i| EdTd::new(ed, td, fixed, [seed ^ (0x40 + i), seed ^ (0x80 + i)]))
                .collect(),
            stats: DirSliceStats::default(),
        }
    }
}

impl DirSlice for WayPartitionedSlice {
    fn request(&mut self, line: LineAddr, core: CoreId, kind: AccessKind) -> DirResponse {
        self.stats.requests += 1;
        let (stats, victims) = (&mut self.stats, &mut DiscardCountingWritebacks);
        // A line lives in one partition at most, so the probe order changes
        // no result; starting at the requester's finds its own lines first.
        let mut resp = DirResponse::new(DataSource::Memory, DirHitKind::Miss);
        for part in (core.0..self.parts.len()).chain(0..core.0) {
            if !self.parts[part].hit(line, core, kind, stats, &mut resp) {
                continue;
            }
            // A write moves the entry into the writer's partition: a TD hit
            // has consumed it, an ED hit elsewhere gives it up.
            if kind == AccessKind::Write && (resp.hit == DirHitKind::Td || part != core.0) {
                if resp.hit == DirHitKind::Ed {
                    self.parts[part].remove_ed(line);
                }
                let out = &mut resp.invalidations;
                self.parts[core.0].allocate_ed(line, core, stats, victims, out);
            }
            return resp;
        }
        stats.misses += 1;
        let out = &mut resp.invalidations;
        self.parts[core.0].allocate_ed(line, core, stats, victims, out);
        resp
    }

    fn l2_evict(&mut self, line: LineAddr, core: CoreId, dirty: bool) -> Invalidations {
        let mut out = Invalidations::new();
        let mut order = (core.0..self.parts.len()).chain(0..core.0);
        let tracked = order.any(|part| {
            let victims = &mut DiscardCountingWritebacks;
            self.parts[part].l2_evict(line, core, dirty, &mut self.stats, victims, &mut out)
        });
        debug_assert!(tracked, "L2 evicted a line with no directory entry: {line}");
        out
    }

    fn parts(&self, line: LineAddr) -> DirParts {
        let mut parts = self.parts.iter().enumerate();
        match parts.find(|(_, p)| p.tracks(line)) {
            Some((i, p)) => DirParts {
                partition: Some(i),
                ..p.parts(line)
            },
            None => DirParts::default(),
        }
    }

    fn stats(&self) -> &DirSliceStats {
        &self.stats
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(LineAddr, SharerSet)) {
        for p in &self.parts {
            p.for_each_entry(f);
        }
    }

    fn fault_flip_sharer(&mut self, line: LineAddr, core: CoreId) -> bool {
        let mut parts = self.parts.iter_mut();
        parts.any(|p| p.fault_flip_sharer(line, core))
    }

    fn validate(&self) -> Result<(), String> {
        // A line has one entry across all partitions (they split one
        // address space). The model keeps one entry per line and cannot
        // break this, so it is checked here, not in `check_line`.
        for (part, p) in self.parts.iter().enumerate() {
            let mut found = p.check_storage();
            p.for_each_entry(&mut |line, _| {
                let twin = (0..self.parts.len()).find(|&o| o != part && self.parts[o].tracks(line));
                if let (Ok(()), Some(o)) = (&found, twin) {
                    found = Err(format!("line {line} resident in partitions {part} and {o}"));
                }
            });
            found.map_err(|e| format!("partition {part}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(cores: usize) -> WayPartitionedSlice {
        WayPartitionedSlice::new(
            BaselineDirConfig {
                ed: Geometry::new(2, 4),
                td: Geometry::new(2, 4),
                appendix_a: crate::AppendixA::Fixed,
            },
            cores,
            5,
        )
    }

    fn read(s: &mut WayPartitionedSlice, line: u64, core: usize) -> DirResponse {
        s.request(LineAddr::new(line), CoreId(core), AccessKind::Read)
    }

    #[test]
    fn supports_respects_way_budget() {
        let cfg = BaselineDirConfig::skylake_x();
        assert!(WayPartitionedSlice::supports(&cfg, 11));
        assert!(!WayPartitionedSlice::supports(&cfg, 12)); // TD has 11 ways
        assert!(!WayPartitionedSlice::supports(&cfg, 0));
    }

    #[test]
    #[should_panic(expected = "cannot serve")]
    fn too_many_cores_panics() {
        slice(5); // 4 ways, 5 cores
    }

    #[test]
    fn conflicts_are_partition_private() {
        let mut s = slice(2);
        // Core 0 fills its 2-way ED partition in set 0 and overflows it.
        read(&mut s, 0, 0);
        read(&mut s, 2, 0);
        read(&mut s, 4, 0); // self-conflict: core 0's own victim migrates
                            // Core 1's single entry is untouched throughout.
        read(&mut s, 6, 1);
        for l in (8..40).step_by(2) {
            read(&mut s, l, 0);
        }
        assert!(
            s.locate(LineAddr::new(6)).is_some(),
            "core 1's entry was displaced by core 0's traffic"
        );
    }

    #[test]
    fn attacker_cannot_create_victim_invalidations() {
        let mut s = slice(2);
        read(&mut s, 0, 0); // victim entry
        let mut victim_invalidated = false;
        for l in (2..200).step_by(2) {
            let r = read(&mut s, l, 1); // attacker storm
            victim_invalidated |= r.invalidations.iter().any(|i| i.cores.contains(CoreId(0)));
        }
        assert!(!victim_invalidated, "way partitioning must isolate cores");
    }

    #[test]
    fn cross_core_reads_still_work() {
        let mut s = slice(2);
        read(&mut s, 0, 0);
        let r = read(&mut s, 0, 1);
        assert_eq!(r.hit, DirHitKind::Ed);
        assert_eq!(r.source, DataSource::L2Cache(CoreId(0)));
    }

    #[test]
    fn write_moves_entry_to_writer_partition() {
        let mut s = slice(2);
        read(&mut s, 0, 0);
        s.request(LineAddr::new(0), CoreId(1), AccessKind::Write);
        // Now core 1's traffic can conflict with it, core 0's cannot.
        let w = s.locate(LineAddr::new(0)).expect("entry present");
        assert_eq!(w.sharers(), SharerSet::single(CoreId(1)));
    }

    #[test]
    fn l2_evict_fills_own_llc_partition() {
        let mut s = slice(2);
        read(&mut s, 0, 0);
        let out = s.l2_evict(LineAddr::new(0), CoreId(0), true);
        assert!(out.is_empty());
        assert!(s.parts(LineAddr::new(0)).td.is_some_and(|t| t.has_data));
    }

    #[test]
    fn partitioned_capacity_is_a_fraction() {
        // Each core only reaches ways/cores of the structure: with 4 ways
        // over 2 cores and 2 sets, core 0 can keep at most 2 ED + 2 TD
        // entries per set.
        let mut s = slice(2);
        for l in (0..64).step_by(2) {
            read(&mut s, l, 0); // all map to set 0
        }
        let tracked = (0..64u64)
            .step_by(2)
            .filter(|&l| s.locate(LineAddr::new(l)).is_some())
            .count();
        assert_eq!(tracked, 4, "2 ED + 2 TD private ways in the set");
    }
}
