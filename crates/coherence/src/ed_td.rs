//! The Skylake-X ED + TD pair ([`EdTd`]) that the baseline, each
//! way partition and SecDir hold. It runs, through [`step`], every
//! transition of paper Figure 3 the designs share; the one they disagree
//! on — what becomes of a TD set-conflict victim — is the slice's
//! [`TdVictimPolicy`].

use secdir_cache::{Geometry, ReplacementPolicy, SetAssoc};
use secdir_mem::{CoreId, LineAddr};
use serde::{Deserialize, Serialize};

use crate::step::{self, TdConflict};
use crate::{
    AccessKind, DirHitKind, DirParts, DirResponse, DirSliceStats, Invalidation, InvalidationCause,
    Invalidations, SharerSet,
};

/// An Extended Directory entry: a line that lives only in private L2s.
///
/// Per the paper's §7 accounting an ED entry carries the address tag, the
/// presence bit vector, and a Valid bit; dirtiness is tracked by the MOESI
/// state of the L2 copies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EdEntry {
    /// Cores whose L2s hold the line.
    pub sharers: SharerSet,
}

/// A Traditional Directory entry, coupled to an LLC data way
/// (paper Figure 2: the TD has a Data column).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TdEntry {
    /// Cores whose L2s hold the line.
    pub sharers: SharerSet,
    /// Whether the LLC way holds the line's data. Always true on a stock
    /// Skylake-X; the Appendix-A fix allows data-less TD entries.
    pub has_data: bool,
    /// Whether the LLC data copy is dirty relative to memory.
    pub llc_dirty: bool,
}

/// Whether the directory reproduces the Skylake-X Appendix-A implementation
/// quirk or the paper's proposed fix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppendixA {
    /// Stock Skylake-X: every TD entry must hold LLC data, so an ED→TD
    /// migration of an exclusively-held line invalidates the private copy —
    /// the inclusion victim exploited by the prime+probe attack of [Yan et
    /// al., S&P'19].
    #[default]
    SkylakeQuirk,
    /// The paper's fix: TD entries may be data-less, so ED conflicts never
    /// evict private-cache lines. SecDir always uses this behaviour.
    Fixed,
}

/// What a directory does with the entry a TD set conflict evicts — the
/// transition of paper Figure 3 in which the designs differ.
pub trait TdVictimPolicy {
    /// Disposes of `victim`, the TD entry of `line` an insertion displaced,
    /// counting into `stats` and pushing invalidations onto `out`.
    fn td_victim(
        &mut self,
        line: LineAddr,
        victim: TdEntry,
        stats: &mut DirSliceStats,
        out: &mut Invalidations,
    );
}

/// Transition ② of Figure 3, the baseline's policy: the victim is
/// discarded and every private copy of its line invalidated — the
/// inclusion victim a conflict-based attacker creates. The machine writes
/// a dirty LLC copy back to memory.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DiscardVictims;

impl TdVictimPolicy for DiscardVictims {
    fn td_victim(
        &mut self,
        line: LineAddr,
        victim: TdEntry,
        stats: &mut DirSliceStats,
        out: &mut Invalidations,
    ) {
        stats.td_conflict_discards += 1;
        let TdConflict::Discard {
            invalidate,
            llc_writeback,
        } = step::td_conflict(victim, false)
        else {
            unreachable!("a TD conflict without a VD always discards");
        };
        out.push(Invalidation {
            line,
            cores: invalidate,
            llc_writeback,
            cause: InvalidationCause::TdConflict,
        });
    }
}

/// The Extended and Traditional Directory of one slice (paper Figure 2),
/// with the coupled LLC data presence. Counters go to the caller's
/// [`DirSliceStats`], so a slice may hold several (one per way partition).
#[derive(Clone, Debug)]
pub struct EdTd {
    ed: SetAssoc<EdEntry>,
    td: SetAssoc<TdEntry>,
    appendix_a: AppendixA,
}

impl EdTd {
    /// Creates empty arrays whose random replacement is seeded `[ed, td]`.
    pub fn new(ed: Geometry, td: Geometry, appendix_a: AppendixA, seeds: [u64; 2]) -> Self {
        EdTd {
            ed: SetAssoc::new(ed, ReplacementPolicy::Random, seeds[0]),
            td: SetAssoc::new(td, ReplacementPolicy::Random, seeds[1]),
            appendix_a,
        }
    }

    /// Serves an ED or TD hit into `resp`, a memory miss until then: a
    /// reader joins the sharers, a writer invalidates the others and
    /// becomes the sole sharer; a written TD entry is removed for the caller
    /// to re-allocate in the ED ([`EdTd::serve`]). Returns whether either
    /// array tracks the line. Always inlined: way partitioning calls it
    /// once per partition.
    #[inline(always)]
    pub(crate) fn hit(
        &mut self,
        line: LineAddr,
        core: CoreId,
        kind: AccessKind,
        stats: &mut DirSliceStats,
        resp: &mut DirResponse,
    ) -> bool {
        let read = kind == AccessKind::Read;
        let (source, hit, invalidate) = if let Some(way) = self.ed.lookup_touch(line) {
            stats.ed_hits += 1;
            let slot = self.ed.payload_mut(way);
            if read {
                debug_assert!(
                    !slot.sharers.contains(core),
                    "read miss by a core the ED already lists as sharer"
                );
                let r = step::ed_read_hit(*slot, core);
                *slot = r.entry;
                (r.source, DirHitKind::Ed, SharerSet::empty())
            } else {
                let r = step::ed_write_hit(*slot, core);
                *slot = r.entry;
                (r.source, DirHitKind::Ed, r.invalidate)
            }
        } else {
            let Some(way) = self.td.lookup(line) else {
                return false;
            };
            stats.td_hits += 1;
            if read {
                self.td.touch(way);
                let slot = self.td.payload_mut(way);
                let r = step::td_read_hit(*slot, core);
                *slot = r.entry;
                (r.source, DirHitKind::Td, SharerSet::empty())
            } else {
                stats.td_to_ed_migrations += 1;
                let r = step::td_write_hit(self.td.take(way), core);
                (r.source, DirHitKind::Td, r.invalidate)
            }
        };
        (resp.source, resp.hit) = (source, hit);
        if !invalidate.is_empty() {
            resp.invalidations.push(Invalidation {
                line,
                cores: invalidate,
                llc_writeback: false,
                cause: InvalidationCause::Coherence,
            });
        }
        true
    }

    /// Serves an ED or TD hit into `resp`, completing a TD→ED migration in
    /// this pair. Returns whether either array tracks the line.
    pub fn serve<P: TdVictimPolicy>(
        &mut self,
        line: LineAddr,
        core: CoreId,
        kind: AccessKind,
        stats: &mut DirSliceStats,
        victims: &mut P,
        resp: &mut DirResponse,
    ) -> bool {
        if !self.hit(line, core, kind, stats, resp) {
            return false;
        }
        if kind == AccessKind::Write && resp.hit == DirHitKind::Td {
            self.allocate_ed(line, core, stats, victims, &mut resp.invalidations);
        }
        true
    }

    /// Allocates an ED entry for `core`'s newly fetched line, migrating any
    /// ED victim into the TD per [`step::ed_victim_to_td`].
    pub fn allocate_ed<P: TdVictimPolicy>(
        &mut self,
        line: LineAddr,
        core: CoreId,
        stats: &mut DirSliceStats,
        victims: &mut P,
        out: &mut Invalidations,
    ) {
        let sharers = SharerSet::single(core);
        let Some(victim) = self.ed.insert_new(line, EdEntry { sharers }) else {
            return;
        };
        stats.ed_to_td_migrations += 1;
        let m = step::ed_victim_to_td(victim.payload, self.appendix_a);
        if !m.quirk_invalidate.is_empty() {
            stats.quirk_invalidations += 1;
            out.push(Invalidation {
                line: victim.line,
                cores: m.quirk_invalidate,
                llc_writeback: false,
                cause: InvalidationCause::EdToTdQuirk,
            });
        }
        self.insert_td(victim.line, m.entry, stats, victims, out);
    }

    /// Inserts `entry` into the TD, handing any conflict victim to
    /// `victims`.
    pub fn insert_td<P: TdVictimPolicy>(
        &mut self,
        line: LineAddr,
        entry: TdEntry,
        stats: &mut DirSliceStats,
        victims: &mut P,
        out: &mut Invalidations,
    ) {
        if entry.has_data {
            stats.llc_data_fills += 1;
        }
        if let Some(victim) = self.td.insert_new(line, entry) {
            victims.td_victim(victim.line, victim.payload, stats, out);
        }
    }

    /// An L2 eviction (a victim write-back into the LLC): an ED entry
    /// migrates into the TD with data, a TD entry drops the evictor and
    /// takes the data. `false` when neither array tracks the line.
    pub fn l2_evict<P: TdVictimPolicy>(
        &mut self,
        line: LineAddr,
        core: CoreId,
        dirty: bool,
        stats: &mut DirSliceStats,
        victims: &mut P,
        out: &mut Invalidations,
    ) -> bool {
        if let Some(way) = self.ed.lookup(line) {
            stats.ed_to_td_migrations += 1;
            let entry = step::l2_evict_ed(self.ed.take(way), core, dirty);
            self.insert_td(line, entry, stats, victims, out);
            return true;
        }
        let Some(way) = self.td.lookup(line) else {
            return false;
        };
        let slot = self.td.payload_mut(way);
        let (entry, fills) = step::l2_evict_td(*slot, core, dirty);
        *slot = entry;
        if fills {
            stats.llc_data_fills += 1;
        }
        true
    }

    /// Removes `line`'s ED entry, if any (no replacement touch).
    pub(crate) fn remove_ed(&mut self, line: LineAddr) -> Option<EdEntry> {
        self.ed.remove(line)
    }

    /// `line`'s ED and TD entries.
    pub fn parts(&self, line: LineAddr) -> DirParts {
        DirParts {
            ed: self.ed.get(line).copied(),
            td: self.td.get(line).copied(),
            ..DirParts::default()
        }
    }

    /// Whether either array tracks `line`.
    pub fn tracks(&self, line: LineAddr) -> bool {
        self.ed.contains(line) || self.td.contains(line)
    }

    /// Hints the host CPU to pull the rows a request for `line` probes.
    pub fn prefetch(&self, line: LineAddr) {
        self.ed.prefetch(line);
        self.td.prefetch(line);
    }

    /// Visits every ED entry, then every TD entry.
    pub fn for_each_entry(&self, f: &mut dyn FnMut(LineAddr, SharerSet)) {
        self.ed.iter().for_each(|(line, e)| f(line, e.sharers));
        self.td.iter().for_each(|(line, e)| f(line, e.sharers));
    }

    /// Fault injection: toggles `core` in `line`'s ED or TD entry.
    /// Returns `false` when neither array tracks the line.
    pub fn fault_flip_sharer(&mut self, line: LineAddr, core: CoreId) -> bool {
        if let Some(e) = self.ed.get_mut(line) {
            e.sharers.toggle(core);
        } else if let Some(e) = self.td.get_mut(line) {
            e.sharers.toggle(core);
        } else {
            return false;
        }
        true
    }

    /// Checks both arrays' storage.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_storage(&self) -> Result<(), String> {
        self.ed
            .check_storage()
            .map_err(|e| format!("ED storage: {e}"))?;
        self.td
            .check_storage()
            .map_err(|e| format!("TD storage: {e}"))
    }
}
