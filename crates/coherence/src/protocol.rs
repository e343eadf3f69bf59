//! The directory-slice protocol: requests, responses, side effects, and the
//! [`DirSlice`] trait every directory organization implements.

use secdir_mem::{CoreId, InlineVec, LineAddr};
use serde::{Deserialize, Serialize};

use crate::{DirParts, SharerSet};

/// The kind of private-cache event that reaches the directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load that missed in the requester's private caches.
    Read,
    /// A store. The requester may already hold a Shared/Owned copy (an
    /// upgrade) or no copy at all (a write miss); the directory handles both
    /// identically — invalidate every other copy, make the writer the sole
    /// owner.
    Write,
}

/// Where the requested data is served from, which determines access latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataSource {
    /// Cache-to-cache transfer from another core's private L2.
    L2Cache(CoreId),
    /// The data array of the home LLC slice.
    Llc,
    /// Main memory.
    Memory,
    /// No data movement needed (upgrade: the writer already holds the line).
    None,
}

/// Which directory structure satisfied the lookup (paper Figure 7(b)'s
/// categories).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DirHitKind {
    /// Hit in the Extended Directory.
    Ed,
    /// Hit in the Traditional Directory.
    Td,
    /// Hit in a Victim Directory bank (SecDir only).
    Vd,
    /// Miss everywhere — the access goes to main memory.
    Miss,
}

/// Why the directory asks the machine to invalidate private-cache copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InvalidationCause {
    /// Ordinary coherence: a writer invalidates the other sharers.
    Coherence,
    /// A TD set conflict discarded the entry (paper Figure 3(a) ②) — this is
    /// the transition a conflict-based attacker exploits to create inclusion
    /// victims.
    TdConflict,
    /// The Skylake-X Appendix-A quirk: an ED→TD migration pulled the line
    /// into the LLC and could not keep the private Exclusive copy.
    EdToTdQuirk,
    /// A Victim Directory self-conflict (paper transition ⑤): only ever
    /// evicts the owning core's own line, so it is not attacker-controllable.
    VdConflict,
}

impl InvalidationCause {
    /// Whether an invalidation with this cause creates an *inclusion victim*
    /// in the sense of the threat model: a line removed from a private cache
    /// by directory pressure rather than by the coherence protocol.
    pub fn creates_inclusion_victim(self) -> bool {
        !matches!(self, InvalidationCause::Coherence)
    }
}

/// A side effect the machine must apply to the private caches: remove
/// `line` from the L1/L2 of every core in `cores`.
///
/// The machine consults its own per-line MOESI state to decide whether each
/// removed copy needs a memory write-back; `llc_writeback` additionally
/// signals that the directory dropped a dirty LLC copy of the line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Invalidation {
    /// The line to remove.
    pub line: LineAddr,
    /// The cores whose private copies must be removed.
    pub cores: SharerSet,
    /// A dirty LLC data copy was dropped and must be written to memory.
    pub llc_writeback: bool,
    /// Why the invalidation happened (for inclusion-victim accounting).
    pub cause: InvalidationCause,
}

/// The invalidation list carried by a [`DirResponse`] and returned by
/// [`DirSlice::l2_evict`].
///
/// Almost every transaction produces zero or one invalidation, so the
/// first four live inline ([`InlineVec`]) and the steady-state request
/// path never touches the heap (see `tests/alloc_free.rs`).
pub type Invalidations = InlineVec<Invalidation, 4>;

/// The directory's answer to a [`DirSlice::request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirResponse {
    /// Where the data comes from.
    pub source: DataSource,
    /// Which structure the lookup hit in.
    pub hit: DirHitKind,
    /// Private-cache invalidations the machine must apply.
    pub invalidations: Invalidations,
    /// Whether the VD Empty-Bit array was consulted (adds 2 cycles).
    pub vd_eb_checked: bool,
    /// Whether any VD bank data array was actually probed (adds 5 cycles).
    pub vd_array_probed: bool,
    /// With batched VD search (§5.1), how many batches the search touched
    /// (0 or 1 for the default all-parallel search). Each batch pays one
    /// array-access time.
    pub vd_batches: u32,
}

impl DirResponse {
    /// A response with no side effects.
    pub fn new(source: DataSource, hit: DirHitKind) -> Self {
        DirResponse {
            source,
            hit,
            invalidations: Invalidations::new(),
            vd_eb_checked: false,
            vd_array_probed: false,
            vd_batches: 0,
        }
    }
}

/// Where a line's directory entry currently lives — used by tests and the
/// invariant checks, not by the protocol itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirWhere {
    /// In the Extended Directory with these sharers.
    Ed(SharerSet),
    /// In the Traditional Directory.
    Td {
        /// Cores whose L2s hold the line.
        sharers: SharerSet,
        /// Whether the LLC slice holds the data.
        has_data: bool,
    },
    /// In the Victim Directory banks of these cores.
    Vd(SharerSet),
}

impl DirWhere {
    /// The sharer set recorded wherever the entry is.
    pub fn sharers(&self) -> SharerSet {
        match *self {
            DirWhere::Ed(s) | DirWhere::Vd(s) => s,
            DirWhere::Td { sharers, .. } => sharers,
        }
    }
}

/// Event counters for one directory slice. All figures and tables of the
/// paper's evaluation are computed from these (plus the machine's cache
/// counters).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // field names are self-describing counters
pub struct DirSliceStats {
    pub requests: u64,
    pub ed_hits: u64,
    pub td_hits: u64,
    pub vd_hits: u64,
    pub misses: u64,
    /// TD entries discarded due to set conflicts (transition ② of Fig 3).
    pub td_conflict_discards: u64,
    /// TD→VD migrations (SecDir transition ③).
    pub td_to_vd_migrations: u64,
    /// VD→TD consolidations (SecDir transition ④).
    pub vd_to_td_migrations: u64,
    /// VD entries dropped by cuckoo/bank overflow (transition ⑤) — the
    /// "self-conflicts" of Table 6.
    pub vd_self_conflicts: u64,
    /// Entries inserted into VD banks.
    pub vd_inserts: u64,
    /// Cuckoo relocation steps performed during VD inserts.
    pub cuckoo_relocations: u64,
    /// ED→TD migrations (ED conflicts or L2 write-backs).
    pub ed_to_td_migrations: u64,
    /// TD→ED migrations (writes to TD-resident lines).
    pub td_to_ed_migrations: u64,
    /// Lines invalidated from private caches by the Appendix-A quirk.
    pub quirk_invalidations: u64,
    /// VD queries issued (each would probe all N banks without the EB).
    pub vd_lookups: u64,
    /// VD bank arrays actually probed (after Empty-Bit filtering).
    pub vd_bank_probes: u64,
    /// VD bank arrays that would be probed without the Empty Bit.
    pub vd_bank_probes_without_eb: u64,
    /// Dirty LLC lines written back to memory.
    pub llc_writebacks: u64,
    /// Lines filled into the LLC data array (victim-cache fills).
    pub llc_data_fills: u64,
}

impl DirSliceStats {
    /// The counter deltas since `earlier` (for skip-then-measure runs).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter of `earlier` exceeds `self`'s.
    pub fn diff(&self, earlier: &DirSliceStats) -> DirSliceStats {
        DirSliceStats {
            requests: self.requests - earlier.requests,
            ed_hits: self.ed_hits - earlier.ed_hits,
            td_hits: self.td_hits - earlier.td_hits,
            vd_hits: self.vd_hits - earlier.vd_hits,
            misses: self.misses - earlier.misses,
            td_conflict_discards: self.td_conflict_discards - earlier.td_conflict_discards,
            td_to_vd_migrations: self.td_to_vd_migrations - earlier.td_to_vd_migrations,
            vd_to_td_migrations: self.vd_to_td_migrations - earlier.vd_to_td_migrations,
            vd_self_conflicts: self.vd_self_conflicts - earlier.vd_self_conflicts,
            vd_inserts: self.vd_inserts - earlier.vd_inserts,
            cuckoo_relocations: self.cuckoo_relocations - earlier.cuckoo_relocations,
            ed_to_td_migrations: self.ed_to_td_migrations - earlier.ed_to_td_migrations,
            td_to_ed_migrations: self.td_to_ed_migrations - earlier.td_to_ed_migrations,
            quirk_invalidations: self.quirk_invalidations - earlier.quirk_invalidations,
            vd_lookups: self.vd_lookups - earlier.vd_lookups,
            vd_bank_probes: self.vd_bank_probes - earlier.vd_bank_probes,
            vd_bank_probes_without_eb: self.vd_bank_probes_without_eb
                - earlier.vd_bank_probes_without_eb,
            llc_writebacks: self.llc_writebacks - earlier.llc_writebacks,
            llc_data_fills: self.llc_data_fills - earlier.llc_data_fills,
        }
    }

    /// Accumulates `other` into `self` (for machine-wide aggregation).
    pub fn merge(&mut self, other: &DirSliceStats) {
        self.requests += other.requests;
        self.ed_hits += other.ed_hits;
        self.td_hits += other.td_hits;
        self.vd_hits += other.vd_hits;
        self.misses += other.misses;
        self.td_conflict_discards += other.td_conflict_discards;
        self.td_to_vd_migrations += other.td_to_vd_migrations;
        self.vd_to_td_migrations += other.vd_to_td_migrations;
        self.vd_self_conflicts += other.vd_self_conflicts;
        self.vd_inserts += other.vd_inserts;
        self.cuckoo_relocations += other.cuckoo_relocations;
        self.ed_to_td_migrations += other.ed_to_td_migrations;
        self.td_to_ed_migrations += other.td_to_ed_migrations;
        self.quirk_invalidations += other.quirk_invalidations;
        self.vd_lookups += other.vd_lookups;
        self.vd_bank_probes += other.vd_bank_probes;
        self.vd_bank_probes_without_eb += other.vd_bank_probes_without_eb;
        self.llc_writebacks += other.llc_writebacks;
        self.llc_data_fills += other.llc_data_fills;
    }
}

/// One directory slice (plus the coupled LLC data presence), as seen by the
/// machine.
///
/// Implementations: [`BaselineSlice`](crate::BaselineSlice) (conventional
/// Skylake-X TD+ED), [`WayPartitionedSlice`](crate::WayPartitionedSlice)
/// (per-core way partitions of the same), and `SecDirSlice` and
/// `VdOnlySlice` in the `secdir` crate. The ED/TD slices share one
/// [`EdTd`](crate::EdTd) core and differ in their
/// [`TdVictimPolicy`](crate::TdVictimPolicy).
pub trait DirSlice {
    /// Handles a private-cache miss (or write upgrade) by `core` for `line`.
    ///
    /// Mutates directory state — allocating/migrating entries and resolving
    /// any conflicts those allocations cause — and returns where the data is
    /// served from plus the invalidations the machine must apply.
    fn request(&mut self, line: LineAddr, core: CoreId, kind: AccessKind) -> DirResponse;

    /// Handles the eviction of `line` from `core`'s private L2 (a victim
    /// write-back into the LLC). `dirty` is the evicted copy's MOESI
    /// dirtiness.
    fn l2_evict(&mut self, line: LineAddr, core: CoreId, dirty: bool) -> Invalidations;

    /// `line`'s directory state, one part per structure (cold: the
    /// invariant oracle builds its [`LineView`](crate::LineView) from it).
    fn parts(&self, line: LineAddr) -> DirParts;

    /// Where `line`'s entry currently lives, if anywhere (for tests).
    fn locate(&self, line: LineAddr) -> Option<DirWhere> {
        self.parts(line).locate()
    }

    /// This slice's event counters.
    fn stats(&self) -> &DirSliceStats;

    /// Hints the host CPU to pull the metadata rows a future request for
    /// `line` would probe into its cache. Purely a performance hint with
    /// no simulated effect; the default does nothing.
    ///
    /// Its caller is the sliced engine's phase B
    /// (`secdir_machine::run_workload_sliced`): each participant hints
    /// every request in its slices' inboxes, then drains them, so every
    /// hinted request is certain to run. The serial engine does not call
    /// it.
    fn prefetch(&self, line: LineAddr) {
        let _ = line;
    }

    /// Checks the storage of every backing structure (occupancy and tag
    /// bookkeeping); the oracle checks the protocol rules per line with
    /// [`check_line`](crate::check_line) over [`DirSlice::parts`]. Cold
    /// diagnostic path: allocation is fine on failure.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    fn validate(&self) -> Result<(), String>;

    /// Visits every live directory entry of this slice as
    /// `(line, tracked cores)` — one call per ED/TD entry, and one call per
    /// VD bank residency (a singleton set naming the bank owner).
    ///
    /// Cold diagnostic path: the runtime oracle checks the line of every
    /// entry (so an entry no cache holds is seen too), and fault injection
    /// picks its targets here.
    fn for_each_entry(&self, f: &mut dyn FnMut(LineAddr, SharerSet));

    /// Fault injection: corrupt the directory by toggling `core`'s presence
    /// bit in `line`'s entry (or its VD residency). Returns `false` when the
    /// slice holds no entry this fault can apply to — the injector then
    /// retries on a later access. Test/diagnostic hook only; the default
    /// refuses (structures without a mutable sharer representation).
    fn fault_flip_sharer(&mut self, _line: LineAddr, _core: CoreId) -> bool {
        false
    }

    /// Fault injection: leak a Victim-Directory entry for `line` into
    /// `core`'s bank without clearing the line's ED/TD entry — the
    /// consolidation bug of `secdir_verif::Fault::LeakVdOnConsolidate`,
    /// replayed on the production structures. Returns `false` for slices
    /// with no VD banks (the fault is inapplicable). Test/diagnostic hook
    /// only.
    fn fault_leak_vd(&mut self, _line: LineAddr, _core: CoreId) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inclusion_victim_causes() {
        assert!(!InvalidationCause::Coherence.creates_inclusion_victim());
        assert!(InvalidationCause::TdConflict.creates_inclusion_victim());
        assert!(InvalidationCause::EdToTdQuirk.creates_inclusion_victim());
        assert!(InvalidationCause::VdConflict.creates_inclusion_victim());
    }

    #[test]
    fn dir_where_sharers() {
        let s = SharerSet::single(secdir_mem::CoreId(1));
        assert_eq!(DirWhere::Ed(s).sharers(), s);
        assert_eq!(
            DirWhere::Td {
                sharers: s,
                has_data: true
            }
            .sharers(),
            s
        );
        assert_eq!(DirWhere::Vd(s).sharers(), s);
    }

    #[test]
    fn stats_merge_adds() {
        let mut a = DirSliceStats {
            requests: 1,
            vd_hits: 2,
            ..Default::default()
        };
        let b = DirSliceStats {
            requests: 3,
            llc_writebacks: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.requests, 4);
        assert_eq!(a.vd_hits, 2);
        assert_eq!(a.llc_writebacks, 4);
    }

    #[test]
    fn response_constructor_has_no_side_effects() {
        let r = DirResponse::new(DataSource::Memory, DirHitKind::Miss);
        assert!(r.invalidations.is_empty());
        assert!(!r.vd_eb_checked && !r.vd_array_probed);
    }
}
