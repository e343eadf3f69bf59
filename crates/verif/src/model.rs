//! A bounded abstract model of the simulated machine, built on the *same*
//! pure step relation (`secdir_coherence::step`) the production slices run.
//!
//! The model replaces the locate phase — set-associative arrays, skewed
//! cuckoo banks, replacement policies — with tiny per-line maps plus
//! *nondeterministic victim choice*: wherever a production structure would
//! pick a replacement victim (by LRU, random, or cuckoo chain), the model
//! branches on **every** occupied candidate. The reachable state space of
//! the model therefore over-approximates every concrete replacement policy
//! at once, while the transition phase (sharer-vector updates, migrations
//! ②③④⑤, the Appendix-A quirk) is the exact production code.
//!
//! Capacities are counts, not geometries: `ed_capacity` bounds how many
//! lines may hold ED entries simultaneously (one fully-associative set), and
//! likewise for the TD and the per-core VD banks. This matches a 1-set
//! configuration of the real structures.

use std::fmt;

use secdir_coherence::step::{self, TdConflict};
use secdir_coherence::{AccessKind, AppendixA, DataSource, EdEntry, Moesi, SharerSet, TdEntry};
use secdir_mem::CoreId;

/// Upper bound on model cores (array-backed state).
pub const MAX_CORES: usize = 4;
/// Upper bound on model lines (array-backed state).
pub const MAX_LINES: usize = 4;

/// Which directory organization the model abstracts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DirKind {
    /// Conventional Skylake-X TD+ED (quirk or fixed Appendix-A behaviour).
    Baseline(AppendixA),
    /// Per-core way-partitioned TD+ED.
    WayPartitioned,
    /// SecDir: TD+ED plus per-core Victim Directory banks.
    SecDir,
    /// The §9 worst-case mode: VD banks only.
    VdOnly,
}

impl DirKind {
    /// Short display name (used in reports and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            DirKind::Baseline(AppendixA::SkylakeQuirk) => "baseline",
            DirKind::Baseline(AppendixA::Fixed) => "baseline-fixed",
            DirKind::WayPartitioned => "way-partitioned",
            DirKind::SecDir => "secdir",
            DirKind::VdOnly => "vd-only",
        }
    }

    /// All kinds the checker explores by default.
    pub const ALL: [DirKind; 5] = [
        DirKind::Baseline(AppendixA::SkylakeQuirk),
        DirKind::Baseline(AppendixA::Fixed),
        DirKind::WayPartitioned,
        DirKind::SecDir,
        DirKind::VdOnly,
    ];
}

/// A seeded protocol bug for checker self-tests: each fault corrupts one
/// application point of the step relation, and the checker must produce a
/// counterexample trace reaching the resulting broken state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Fault {
    /// No fault: the checker must find zero violations.
    #[default]
    None,
    /// A write hit stops invalidating the other sharers' copies —
    /// the classic lost-invalidation bug; breaks SWMR.
    SkipWriteInvalidation,
    /// The VD→TD consolidation of transition ④ forgets to clear the VD
    /// entries it consolidated; breaks TD/VD mutual exclusion.
    LeakVdOnConsolidate,
    /// The Appendix-A quirk migration drops its inclusion-victim
    /// invalidation; breaks directory inclusion.
    SkipQuirkInvalidation,
}

/// Bounded model parameters.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Directory organization under test.
    pub kind: DirKind,
    /// Cores (≤ [`MAX_CORES`]).
    pub cores: usize,
    /// Distinct cache lines (≤ [`MAX_LINES`]).
    pub lines: usize,
    /// Per-core private L2 capacity, in lines.
    pub l2_capacity: usize,
    /// ED entry capacity (per partition for way-partitioned).
    pub ed_capacity: usize,
    /// TD entry capacity (per partition for way-partitioned).
    pub td_capacity: usize,
    /// Per-core VD bank capacity (SecDir / VD-only).
    pub vd_capacity: usize,
    /// Seeded fault, if any.
    pub fault: Fault,
}

impl ModelConfig {
    /// The default small-but-nontrivial configuration the `verif` CLI and
    /// the smoke tests explore: 2 cores × 3 lines with single-entry
    /// directory structures, so every conflict/migration transition is
    /// forced.
    pub fn quick(kind: DirKind) -> Self {
        ModelConfig {
            kind,
            cores: 2,
            lines: 3,
            l2_capacity: 2,
            ed_capacity: 1,
            td_capacity: 1,
            vd_capacity: 1,
            fault: Fault::None,
        }
    }

    /// The full 4-core × 4-line configuration (`secdir-sim verif --full`):
    /// the model's maximum geometry, reachable in CI time only through the
    /// packed/canonicalized checker ([`check_opt`](crate::check_opt)).
    /// Directory capacities stay at one entry so conflict, migration, and
    /// eviction transitions all stay forced.
    pub fn full(kind: DirKind) -> Self {
        ModelConfig {
            cores: 4,
            lines: 4,
            ..ModelConfig::quick(kind)
        }
    }
}

/// One abstract machine state: private-cache MOESI per (core, line) plus
/// the per-line directory entries. Unused array tails stay at their
/// defaults so derived `Hash`/`Eq` work on whole arrays.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ModelState {
    /// MOESI state of each line in each core's private L2.
    pub caches: [[Moesi; MAX_LINES]; MAX_CORES],
    /// Per-line ED entry and its owning partition (0 except way-partitioned).
    pub ed: [Option<(u8, EdEntry)>; MAX_LINES],
    /// Per-line TD entry and its owning partition.
    pub td: [Option<(u8, TdEntry)>; MAX_LINES],
    /// Per-line set of cores whose VD bank holds the line.
    pub vd: [SharerSet; MAX_LINES],
}

impl ModelState {
    /// The empty machine: all caches invalid, all directories empty.
    pub fn initial() -> Self {
        ModelState {
            caches: [[Moesi::Invalid; MAX_LINES]; MAX_CORES],
            ed: [None; MAX_LINES],
            td: [None; MAX_LINES],
            vd: [SharerSet::empty(); MAX_LINES],
        }
    }
}

/// A transition label, for counterexample traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Label {
    /// A read by `core` to `line` that missed the private caches.
    Read {
        /// Requesting core.
        core: usize,
        /// Target line.
        line: usize,
    },
    /// A write by `core` to `line` (miss or S/O upgrade).
    Write {
        /// Requesting core.
        core: usize,
        /// Target line.
        line: usize,
    },
    /// A silent E→M upgrade (no directory transaction).
    SilentUpgrade {
        /// Writing core.
        core: usize,
        /// Target line.
        line: usize,
    },
    /// A voluntary L2 eviction (capacity victim write-back).
    Evict {
        /// Evicting core.
        core: usize,
        /// Evicted line.
        line: usize,
    },
}

/// Human-readable rendering for trace printing.
impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Label::Read { core, line } => write!(f, "core{core}: read miss on line{line}"),
            Label::Write { core, line } => write!(f, "core{core}: write to line{line}"),
            Label::SilentUpgrade { core, line } => {
                write!(f, "core{core}: silent E\u{2192}M upgrade of line{line}")
            }
            Label::Evict { core, line } => write!(f, "core{core}: L2 eviction of line{line}"),
        }
    }
}

/// The bounded model: generates successors of abstract states by running
/// the production step relation under nondeterministic victim choice.
#[derive(Clone, Copy, Debug)]
pub struct Model {
    cfg: ModelConfig,
}

impl Model {
    /// Builds a model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration exceeds [`MAX_CORES`]/[`MAX_LINES`] or
    /// has a zero capacity.
    pub fn new(cfg: ModelConfig) -> Self {
        assert!(
            cfg.cores >= 1 && cfg.cores <= MAX_CORES,
            "cores out of range"
        );
        assert!(
            cfg.lines >= 1 && cfg.lines <= MAX_LINES,
            "lines out of range"
        );
        assert!(
            cfg.l2_capacity >= 1
                && cfg.ed_capacity >= 1
                && cfg.td_capacity >= 1
                && cfg.vd_capacity >= 1,
            "capacities must be at least 1"
        );
        Model { cfg }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// All `(label, successor)` pairs of `s`. Each label may appear several
    /// times — once per nondeterministic victim choice. Allocating
    /// convenience wrapper over [`Model::successors_each`].
    pub fn successors(&self, s: &ModelState) -> Vec<(Label, ModelState)> {
        let mut out = Vec::new();
        self.successors_into(s, &mut out);
        out
    }

    /// Writes all `(label, successor)` pairs of `s` into `out` (cleared
    /// first), in [`Model::successors_each`]'s order. Allocates nothing
    /// once `out` has grown to the largest successor set.
    pub fn successors_into(&self, s: &ModelState, out: &mut Vec<(Label, ModelState)>) {
        out.clear();
        self.successors_each(s, &mut |label, ns| out.push((label, ns)));
    }

    /// Hands every `(label, successor)` pair of `s` to `emit`, in a fixed
    /// order: by core, then line, then access kind, then victim choice.
    /// Every branch reaches `emit` through continuation sinks, and each
    /// branch owns its state, copied only where the branches fork, so
    /// expansion itself allocates nothing: the checker keys each
    /// successor inside `emit` and never stores the state.
    pub fn successors_each(&self, s: &ModelState, emit: &mut impl FnMut(Label, ModelState)) {
        for core in 0..self.cfg.cores {
            for line in 0..self.cfg.lines {
                let st = s.caches[core][line];
                if !st.is_valid() {
                    for (kind, label) in [
                        (AccessKind::Read, Label::Read { core, line }),
                        (AccessKind::Write, Label::Write { core, line }),
                    ] {
                        self.access(s.clone(), core, line, kind, &mut |ns| emit(label, ns));
                    }
                    continue;
                }
                match st {
                    Moesi::Exclusive => {
                        let mut ns = s.clone();
                        ns.caches[core][line] = Moesi::Modified;
                        emit(Label::SilentUpgrade { core, line }, ns);
                    }
                    Moesi::Shared | Moesi::Owned => {
                        let label = Label::Write { core, line };
                        self.upgrade(s.clone(), core, line, &mut |ns| emit(label, ns));
                    }
                    _ => {}
                }
                // Voluntary capacity eviction.
                let mut ns = s.clone();
                ns.caches[core][line] = Moesi::Invalid;
                let label = Label::Evict { core, line };
                self.dir_l2_evict(ns, core, line, st.is_dirty(), &mut |es| emit(label, es));
            }
        }
    }

    /// A private-cache miss: directory request, invalidation delivery,
    /// fill, and (branching) L2 capacity-victim handling — the model's
    /// mirror of `Machine::access`'s miss path. Final states go to `emit`.
    fn access(
        &self,
        s: ModelState,
        core: usize,
        line: usize,
        kind: AccessKind,
        emit: &mut impl FnMut(ModelState),
    ) {
        self.dir_request(s, core, line, kind, &mut |mut ns, source| {
            if kind == AccessKind::Read {
                if let DataSource::L2Cache(owner) = source {
                    // MOESI: the forwarding owner downgrades (M→O, E→S),
                    // mirroring the machine's post-request bookkeeping.
                    let os = ns.caches[owner.0][line];
                    ns.caches[owner.0][line] = os.after_remote_read();
                }
            }
            let fill = step::fill_state(kind, source);
            let residents = self.lines_where(|x| x != line && ns.caches[core][x].is_valid());
            if residents.count_ones() as usize >= self.cfg.l2_capacity {
                for_each_choice(ns, residents, |mut es, victim| {
                    let vstate = es.caches[core][victim];
                    es.caches[core][victim] = Moesi::Invalid;
                    es.caches[core][line] = fill;
                    self.dir_l2_evict(es, core, victim, vstate.is_dirty(), emit);
                });
            } else {
                ns.caches[core][line] = fill;
                emit(ns);
            }
        });
    }

    /// A store upgrade of a resident Shared/Owned line — the model's
    /// mirror of `Machine::upgrade`.
    fn upgrade(&self, s: ModelState, core: usize, line: usize, emit: &mut impl FnMut(ModelState)) {
        self.dir_request(s, core, line, AccessKind::Write, &mut |mut ns, _source| {
            if ns.caches[core][line].is_valid() {
                ns.caches[core][line] = Moesi::Modified;
            }
            emit(ns);
        });
    }

    fn invalidate(&self, s: &mut ModelState, line: usize, cores: SharerSet) {
        for c in cores.iter() {
            s.caches[c.0][line] = Moesi::Invalid;
        }
    }

    /// The lines `x` of the model with `pred(x)`, as a bit mask.
    fn lines_where(&self, pred: impl Fn(usize) -> bool) -> u32 {
        (0..self.cfg.lines).fold(0, |mask, x| mask | u32::from(pred(x)) << x)
    }

    /// Dispatches a directory request per kind, mirroring each slice's
    /// `request`; every `(state, data source)` branch goes to `emit`.
    fn dir_request(
        &self,
        s: ModelState,
        core: usize,
        line: usize,
        kind: AccessKind,
        emit: &mut impl FnMut(ModelState, DataSource),
    ) {
        match self.cfg.kind {
            DirKind::Baseline(appendix_a) => {
                self.request_ed_td(s, core, line, kind, appendix_a, false, emit)
            }
            DirKind::WayPartitioned => {
                self.request_ed_td(s, core, line, kind, AppendixA::Fixed, false, emit)
            }
            DirKind::SecDir => {
                self.request_ed_td(s, core, line, kind, AppendixA::Fixed, true, emit)
            }
            DirKind::VdOnly => self.request_vd_only(s, core, line, kind, emit),
        }
    }

    /// Whether partitions are in play (way-partitioned keys capacities and
    /// victim choice by the owning partition).
    fn partitioned(&self) -> bool {
        self.cfg.kind == DirKind::WayPartitioned
    }

    /// The shared ED/TD request path of baseline, way-partitioned, and
    /// SecDir (which adds the VD probe after both miss).
    #[expect(clippy::too_many_arguments, reason = "the request's fields")]
    fn request_ed_td(
        &self,
        mut s: ModelState,
        core: usize,
        line: usize,
        kind: AccessKind,
        appendix_a: AppendixA,
        has_vd: bool,
        emit: &mut impl FnMut(ModelState, DataSource),
    ) {
        let requester = CoreId(core);
        if let Some((part, entry)) = s.ed[line] {
            match kind {
                AccessKind::Read => {
                    let r = step::ed_read_hit(entry, requester);
                    s.ed[line] = Some((part, r.entry));
                    emit(s, r.source);
                }
                AccessKind::Write => {
                    let r = step::ed_write_hit(entry, requester);
                    s.ed[line] = Some((part, r.entry));
                    if self.cfg.fault != Fault::SkipWriteInvalidation {
                        self.invalidate(&mut s, line, r.invalidate);
                    }
                    if self.partitioned() && part as usize != core {
                        // Ownership moves to the writer's partition.
                        s.ed[line] = None;
                        let (moved, source) = (r.entry, r.source);
                        self.alloc_ed_entry(s, line, moved, core, appendix_a, has_vd, &mut |es| {
                            emit(es, source)
                        });
                    } else {
                        emit(s, r.source);
                    }
                }
            }
            return;
        }
        if let Some((part, entry)) = s.td[line] {
            match kind {
                AccessKind::Read => {
                    let r = step::td_read_hit(entry, requester);
                    s.td[line] = Some((part, r.entry));
                    emit(s, r.source);
                }
                AccessKind::Write => {
                    let r = step::td_write_hit(entry, requester);
                    s.td[line] = None;
                    if self.cfg.fault != Fault::SkipWriteInvalidation {
                        self.invalidate(&mut s, line, r.invalidate);
                    }
                    let fresh = EdEntry {
                        sharers: SharerSet::single(requester),
                    };
                    let source = r.source;
                    self.alloc_ed_entry(s, line, fresh, core, appendix_a, has_vd, &mut |es| {
                        emit(es, source)
                    });
                }
            }
            return;
        }
        let s = if has_vd {
            match self.secdir_vd_path(s, core, line, kind, emit) {
                Some(missed) => missed,
                None => return,
            }
        } else {
            s
        };
        // Full miss: fetch from memory, allocate an ED entry.
        let fresh = EdEntry {
            sharers: SharerSet::single(requester),
        };
        self.alloc_ed_entry(s, line, fresh, core, appendix_a, has_vd, &mut |es| {
            emit(es, DataSource::Memory)
        });
    }

    /// SecDir's VD probe after an ED/TD miss. Hands `s` back untouched
    /// when the VD missed too, for the caller's memory path; `None`
    /// means the VD served the request.
    fn secdir_vd_path(
        &self,
        mut s: ModelState,
        core: usize,
        line: usize,
        kind: AccessKind,
        emit: &mut impl FnMut(ModelState, DataSource),
    ) -> Option<ModelState> {
        let requester = CoreId(core);
        let matched = s.vd[line];
        match kind {
            AccessKind::Read => {
                let Some(owner) = matched.without(requester).any() else {
                    return Some(s);
                };
                // The reader joins the line's VD residency in its own bank.
                self.vd_insert(s, line, core, &mut |ns| {
                    emit(ns, DataSource::L2Cache(owner))
                });
            }
            AccessKind::Write => {
                if matched.is_empty() {
                    return Some(s);
                }
                let had_copy = matched.contains(requester);
                let others = matched.without(requester);
                let source = if had_copy {
                    DataSource::None
                } else {
                    DataSource::L2Cache(step::forwarding_sharer(others))
                };
                for other in others.iter() {
                    s.vd[line].remove(other);
                }
                if self.cfg.fault != Fault::SkipWriteInvalidation {
                    self.invalidate(&mut s, line, others);
                }
                if had_copy {
                    emit(s, source);
                } else {
                    self.vd_insert(s, line, core, &mut |es| emit(es, source));
                }
            }
        }
        None
    }

    /// The VD-only request path, mirroring `VdOnlySlice::request`.
    fn request_vd_only(
        &self,
        mut s: ModelState,
        core: usize,
        line: usize,
        kind: AccessKind,
        emit: &mut impl FnMut(ModelState, DataSource),
    ) {
        let requester = CoreId(core);
        let matched = s.vd[line];
        let others = matched.without(requester);
        match kind {
            AccessKind::Read => {
                let source = match others.any() {
                    Some(owner) => DataSource::L2Cache(owner),
                    None => DataSource::Memory,
                };
                self.vd_insert(s, line, core, &mut |ns| emit(ns, source));
            }
            AccessKind::Write => {
                let had_copy = matched.contains(requester);
                let source = if had_copy {
                    DataSource::None
                } else if let Some(owner) = others.any() {
                    DataSource::L2Cache(owner)
                } else {
                    DataSource::Memory
                };
                for other in others.iter() {
                    s.vd[line].remove(other);
                }
                if self.cfg.fault != Fault::SkipWriteInvalidation {
                    self.invalidate(&mut s, line, others);
                }
                if had_copy {
                    emit(s, source);
                } else {
                    self.vd_insert(s, line, core, &mut |es| emit(es, source));
                }
            }
        }
    }

    /// Allocates `entry` for `line` in the ED (of `core`'s partition when
    /// way-partitioned), branching over every possible ED victim when the
    /// structure is full; victims migrate into the TD per
    /// [`step::ed_victim_to_td`]. Results go to `emit`.
    #[expect(clippy::too_many_arguments, reason = "the request's fields")]
    fn alloc_ed_entry(
        &self,
        mut s: ModelState,
        line: usize,
        entry: EdEntry,
        core: usize,
        appendix_a: AppendixA,
        has_vd: bool,
        emit: &mut impl FnMut(ModelState),
    ) {
        debug_assert!(s.ed[line].is_none(), "ED allocation over a live entry");
        let part = if self.partitioned() { core as u8 } else { 0 };
        let occupied = self.lines_where(|x| matches!(s.ed[x], Some((p, _)) if p == part));
        if (occupied.count_ones() as usize) < self.cfg.ed_capacity {
            s.ed[line] = Some((part, entry));
            emit(s);
            return;
        }
        for_each_choice(s, occupied, |mut ns, vline| {
            let Some((vpart, victim)) = ns.ed[vline] else {
                unreachable!("an occupied ED line holds an entry");
            };
            ns.ed[vline] = None;
            ns.ed[line] = Some((part, entry));
            let m = step::ed_victim_to_td(victim, appendix_a);
            if !m.quirk_invalidate.is_empty() && self.cfg.fault != Fault::SkipQuirkInvalidation {
                self.invalidate(&mut ns, vline, m.quirk_invalidate);
            }
            self.insert_td_entry(ns, vline, m.entry, vpart, has_vd, emit);
        });
    }

    /// Inserts a TD entry for `line`, branching over every TD victim when
    /// full; victims resolve per [`step::td_conflict`] (discard ② or, for
    /// SecDir, VD migration ③). Results go to `emit`.
    fn insert_td_entry(
        &self,
        mut s: ModelState,
        line: usize,
        entry: TdEntry,
        part: u8,
        has_vd: bool,
        emit: &mut impl FnMut(ModelState),
    ) {
        debug_assert!(s.td[line].is_none(), "TD insertion over a live entry");
        let occupied = self.lines_where(|x| matches!(s.td[x], Some((p, _)) if p == part));
        if (occupied.count_ones() as usize) < self.cfg.td_capacity {
            s.td[line] = Some((part, entry));
            emit(s);
            return;
        }
        for_each_choice(s, occupied, |mut ns, vline| {
            let Some((_, victim)) = ns.td[vline] else {
                unreachable!("an occupied TD line holds an entry");
            };
            ns.td[vline] = None;
            ns.td[line] = Some((part, entry));
            match step::td_conflict(victim, has_vd) {
                TdConflict::Discard { invalidate, .. } => {
                    self.invalidate(&mut ns, vline, invalidate);
                    emit(ns);
                }
                TdConflict::MigrateToVd { sharers, .. } => {
                    // Every sharer's bank receives the entry.
                    self.vd_insert_each(ns, vline, sharers, emit);
                }
            }
        });
    }

    /// Inserts `line` into the VD bank of every core in `banks`, in
    /// ascending core order. Each insert may branch on a self-conflict
    /// victim; the branches multiply out depth-first, the lowest bank's
    /// choice varying slowest. Recursion goes through `dyn`, so the
    /// continuation type stays finite.
    fn vd_insert_each(
        &self,
        s: ModelState,
        line: usize,
        banks: SharerSet,
        emit: &mut dyn FnMut(ModelState),
    ) {
        let Some(first) = banks.any() else {
            emit(s);
            return;
        };
        let rest = banks.without(first);
        self.vd_insert(s, line, first.0, &mut |ns| {
            self.vd_insert_each(ns, line, rest, emit)
        });
    }

    /// Inserts `line` into `core`'s VD bank (idempotent), branching over
    /// every resident victim on a bank self-conflict (transition ⑤, which
    /// invalidates the bank owner's own copy of the displaced line).
    /// Results go to `emit`.
    fn vd_insert(
        &self,
        mut s: ModelState,
        line: usize,
        core: usize,
        emit: &mut impl FnMut(ModelState),
    ) {
        let owner = CoreId(core);
        if s.vd[line].contains(owner) {
            emit(s);
            return;
        }
        let residents = self.lines_where(|x| x != line && s.vd[x].contains(owner));
        if (residents.count_ones() as usize) < self.cfg.vd_capacity {
            s.vd[line].insert(owner);
            emit(s);
            return;
        }
        for_each_choice(s, residents, |mut ns, vline| {
            ns.vd[vline].remove(owner);
            ns.caches[core][vline] = Moesi::Invalid;
            ns.vd[line].insert(owner);
            emit(ns);
        });
    }

    /// Dispatches an L2 eviction per kind, mirroring each slice's
    /// `l2_evict`. Results go to `emit`.
    fn dir_l2_evict(
        &self,
        mut s: ModelState,
        core: usize,
        line: usize,
        dirty: bool,
        emit: &mut impl FnMut(ModelState),
    ) {
        let evictor = CoreId(core);
        match self.cfg.kind {
            DirKind::VdOnly => {
                s.vd[line].remove(evictor);
                emit(s);
            }
            DirKind::Baseline(..) | DirKind::WayPartitioned | DirKind::SecDir => {
                let has_vd = self.cfg.kind == DirKind::SecDir;
                if let Some((part, entry)) = s.ed[line] {
                    s.ed[line] = None;
                    let moved = step::l2_evict_ed(entry, evictor, dirty);
                    self.insert_td_entry(s, line, moved, part, has_vd, emit);
                    return;
                }
                if let Some((part, entry)) = s.td[line] {
                    let (updated, _fills) = step::l2_evict_td(entry, evictor, dirty);
                    s.td[line] = Some((part, updated));
                    emit(s);
                    return;
                }
                if has_vd && !s.vd[line].is_empty() {
                    // Transition ④: consolidate the VD residency into a TD
                    // entry, exactly as `SecDirSlice::l2_evict` does.
                    let matched = s.vd[line];
                    if self.cfg.fault != Fault::LeakVdOnConsolidate {
                        s.vd[line] = SharerSet::empty();
                    }
                    let consolidated =
                        step::l2_evict_ed(EdEntry { sharers: matched }, evictor, dirty);
                    self.insert_td_entry(s, line, consolidated, 0, true, emit);
                    return;
                }
                // No directory entry: only reachable in faulty runs whose
                // violation the checker reports before exploring deeper.
                emit(s);
            }
        }
    }
}

/// Calls `f` once per set bit `x` of `choices`, in ascending order, with
/// a state of its own: copies of `s` for all but the last choice, which
/// takes `s` itself — a branch point copies the state only when it
/// really forks.
fn for_each_choice(s: ModelState, mut choices: u32, mut f: impl FnMut(ModelState, usize)) {
    while choices != 0 {
        let x = choices.trailing_zeros() as usize;
        choices &= choices - 1;
        if choices == 0 {
            f(s, x);
            return;
        }
        f(s.clone(), x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacities must be at least 1")]
    fn zero_vd_capacity_is_rejected() {
        Model::new(ModelConfig {
            vd_capacity: 0,
            ..ModelConfig::quick(DirKind::SecDir)
        });
    }
}
