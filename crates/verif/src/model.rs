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

impl Label {
    /// Human-readable rendering for trace printing.
    pub fn describe(self) -> String {
        match self {
            Label::Read { core, line } => format!("core{core}: read miss on line{line}"),
            Label::Write { core, line } => format!("core{core}: write to line{line}"),
            Label::SilentUpgrade { core, line } => {
                format!("core{core}: silent E\u{2192}M upgrade of line{line}")
            }
            Label::Evict { core, line } => format!("core{core}: L2 eviction of line{line}"),
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
    /// convenience wrapper over [`Model::successors_into`].
    pub fn successors(&self, s: &ModelState) -> Vec<(Label, ModelState)> {
        let mut out = Vec::new();
        self.successors_into(s, &mut out);
        out
    }

    /// Writes all `(label, successor)` pairs of `s` into `out` (cleared
    /// first). The checker reuses one buffer across its whole exploration,
    /// so steady-state expansion allocates only for the successor states
    /// themselves, not for per-call result vectors.
    pub fn successors_into(&self, s: &ModelState, out: &mut Vec<(Label, ModelState)>) {
        out.clear();
        let mut evicted = Vec::new();
        for core in 0..self.cfg.cores {
            for line in 0..self.cfg.lines {
                let st = s.caches[core][line];
                if !st.is_valid() {
                    self.access(
                        s,
                        core,
                        line,
                        AccessKind::Read,
                        Label::Read { core, line },
                        out,
                    );
                    self.access(
                        s,
                        core,
                        line,
                        AccessKind::Write,
                        Label::Write { core, line },
                        out,
                    );
                    continue;
                }
                match st {
                    Moesi::Exclusive => {
                        let mut ns = s.clone();
                        ns.caches[core][line] = Moesi::Modified;
                        out.push((Label::SilentUpgrade { core, line }, ns));
                    }
                    Moesi::Shared | Moesi::Owned => {
                        self.upgrade(s, core, line, out);
                    }
                    _ => {}
                }
                // Voluntary capacity eviction.
                let mut ns = s.clone();
                ns.caches[core][line] = Moesi::Invalid;
                evicted.clear();
                self.dir_l2_evict(&ns, core, line, st.is_dirty(), &mut evicted);
                let label = Label::Evict { core, line };
                out.extend(evicted.drain(..).map(|es| (label, es)));
            }
        }
    }

    /// A private-cache miss: directory request, invalidation delivery,
    /// fill, and (branching) L2 capacity-victim handling — the model's
    /// mirror of `Machine::access`'s miss path. Final states are pushed
    /// into `out` under `label`.
    fn access(
        &self,
        s: &ModelState,
        core: usize,
        line: usize,
        kind: AccessKind,
        label: Label,
        out: &mut Vec<(Label, ModelState)>,
    ) {
        let mut evicted = Vec::new();
        for (mut ns, source) in self.dir_request(s, core, line, kind) {
            if kind == AccessKind::Read {
                if let DataSource::L2Cache(owner) = source {
                    // MOESI: the forwarding owner downgrades (M→O, E→S),
                    // mirroring the machine's post-request bookkeeping.
                    let os = ns.caches[owner.0][line];
                    ns.caches[owner.0][line] = os.after_remote_read();
                }
            }
            let fill = step::fill_state(kind, source);
            let resident = |st: &ModelState, x: usize| x != line && st.caches[core][x].is_valid();
            let resident_count = (0..self.cfg.lines).filter(|&x| resident(&ns, x)).count();
            if resident_count >= self.cfg.l2_capacity {
                for victim in 0..self.cfg.lines {
                    if !resident(&ns, victim) {
                        continue;
                    }
                    let vstate = ns.caches[core][victim];
                    let mut es = ns.clone();
                    es.caches[core][victim] = Moesi::Invalid;
                    es.caches[core][line] = fill;
                    evicted.clear();
                    self.dir_l2_evict(&es, core, victim, vstate.is_dirty(), &mut evicted);
                    out.extend(evicted.drain(..).map(|e| (label, e)));
                }
            } else {
                ns.caches[core][line] = fill;
                out.push((label, ns));
            }
        }
    }

    /// A store upgrade of a resident Shared/Owned line — the model's
    /// mirror of `Machine::upgrade`.
    fn upgrade(
        &self,
        s: &ModelState,
        core: usize,
        line: usize,
        out: &mut Vec<(Label, ModelState)>,
    ) {
        for (mut ns, _source) in self.dir_request(s, core, line, AccessKind::Write) {
            if ns.caches[core][line].is_valid() {
                ns.caches[core][line] = Moesi::Modified;
            }
            out.push((Label::Write { core, line }, ns));
        }
    }

    fn invalidate(&self, s: &mut ModelState, line: usize, cores: SharerSet) {
        for c in cores.iter() {
            s.caches[c.0][line] = Moesi::Invalid;
        }
    }

    /// Dispatches a directory request per kind, mirroring each slice's
    /// `request`; returns every `(state, data source)` branch.
    fn dir_request(
        &self,
        s: &ModelState,
        core: usize,
        line: usize,
        kind: AccessKind,
    ) -> Vec<(ModelState, DataSource)> {
        match self.cfg.kind {
            DirKind::Baseline(appendix_a) => {
                self.request_ed_td(s, core, line, kind, appendix_a, false)
            }
            DirKind::WayPartitioned => {
                self.request_ed_td(s, core, line, kind, AppendixA::Fixed, false)
            }
            DirKind::SecDir => self.request_ed_td(s, core, line, kind, AppendixA::Fixed, true),
            DirKind::VdOnly => self.request_vd_only(s, core, line, kind),
        }
    }

    /// Whether partitions are in play (way-partitioned keys capacities and
    /// victim choice by the owning partition).
    fn partitioned(&self) -> bool {
        self.cfg.kind == DirKind::WayPartitioned
    }

    /// The shared ED/TD request path of baseline, way-partitioned, and
    /// SecDir (which adds the VD probe after both miss).
    fn request_ed_td(
        &self,
        s: &ModelState,
        core: usize,
        line: usize,
        kind: AccessKind,
        appendix_a: AppendixA,
        has_vd: bool,
    ) -> Vec<(ModelState, DataSource)> {
        let requester = CoreId(core);
        if let Some((part, entry)) = s.ed[line] {
            return match kind {
                AccessKind::Read => {
                    let r = step::ed_read_hit(entry, requester);
                    let mut ns = s.clone();
                    ns.ed[line] = Some((part, r.entry));
                    vec![(ns, r.source)]
                }
                AccessKind::Write => {
                    let r = step::ed_write_hit(entry, requester);
                    let mut ns = s.clone();
                    ns.ed[line] = Some((part, r.entry));
                    if self.cfg.fault != Fault::SkipWriteInvalidation {
                        self.invalidate(&mut ns, line, r.invalidate);
                    }
                    if self.partitioned() && part as usize != core {
                        // Ownership moves to the writer's partition.
                        let moved = r.entry;
                        ns.ed[line] = None;
                        let mut states = Vec::new();
                        self.alloc_ed_entry(
                            &ns,
                            line,
                            moved,
                            core,
                            appendix_a,
                            has_vd,
                            &mut states,
                        );
                        states.into_iter().map(|es| (es, r.source)).collect()
                    } else {
                        vec![(ns, r.source)]
                    }
                }
            };
        }
        if let Some((part, entry)) = s.td[line] {
            return match kind {
                AccessKind::Read => {
                    let r = step::td_read_hit(entry, requester);
                    let mut ns = s.clone();
                    ns.td[line] = Some((part, r.entry));
                    vec![(ns, r.source)]
                }
                AccessKind::Write => {
                    let r = step::td_write_hit(entry, requester);
                    let mut ns = s.clone();
                    ns.td[line] = None;
                    if self.cfg.fault != Fault::SkipWriteInvalidation {
                        self.invalidate(&mut ns, line, r.invalidate);
                    }
                    let fresh = EdEntry {
                        sharers: SharerSet::single(requester),
                    };
                    let mut states = Vec::new();
                    self.alloc_ed_entry(&ns, line, fresh, core, appendix_a, has_vd, &mut states);
                    states.into_iter().map(|es| (es, r.source)).collect()
                }
            };
        }
        if has_vd {
            if let Some(r) = self.secdir_vd_path(s, core, line, kind, appendix_a) {
                return r;
            }
        }
        // Full miss: fetch from memory, allocate an ED entry.
        let fresh = EdEntry {
            sharers: SharerSet::single(requester),
        };
        let mut states = Vec::new();
        self.alloc_ed_entry(s, line, fresh, core, appendix_a, has_vd, &mut states);
        states
            .into_iter()
            .map(|es| (es, DataSource::Memory))
            .collect()
    }

    /// SecDir's VD probe after an ED/TD miss; `None` means the VD missed
    /// too and the caller falls through to the memory path.
    fn secdir_vd_path(
        &self,
        s: &ModelState,
        core: usize,
        line: usize,
        kind: AccessKind,
        _appendix_a: AppendixA,
    ) -> Option<Vec<(ModelState, DataSource)>> {
        let requester = CoreId(core);
        let matched = s.vd[line];
        match kind {
            AccessKind::Read => {
                let owner = matched.without(requester).any()?;
                // The reader joins the line's VD residency in its own bank.
                let mut states = Vec::new();
                self.vd_insert(s, line, core, &mut states);
                Some(
                    states
                        .into_iter()
                        .map(|ns| (ns, DataSource::L2Cache(owner)))
                        .collect(),
                )
            }
            AccessKind::Write => {
                if matched.is_empty() {
                    return None;
                }
                let had_copy = matched.contains(requester);
                let others = matched.without(requester);
                let source = if had_copy {
                    DataSource::None
                } else {
                    DataSource::L2Cache(step::forwarding_sharer(others))
                };
                let mut ns = s.clone();
                for other in others.iter() {
                    ns.vd[line].remove(other);
                }
                if self.cfg.fault != Fault::SkipWriteInvalidation {
                    self.invalidate(&mut ns, line, others);
                }
                if had_copy {
                    Some(vec![(ns, source)])
                } else {
                    let mut states = Vec::new();
                    self.vd_insert(&ns, line, core, &mut states);
                    Some(states.into_iter().map(|es| (es, source)).collect())
                }
            }
        }
    }

    /// The VD-only request path, mirroring `VdOnlySlice::request`.
    fn request_vd_only(
        &self,
        s: &ModelState,
        core: usize,
        line: usize,
        kind: AccessKind,
    ) -> Vec<(ModelState, DataSource)> {
        let requester = CoreId(core);
        let matched = s.vd[line];
        let others = matched.without(requester);
        match kind {
            AccessKind::Read => {
                let source = match others.any() {
                    Some(owner) => DataSource::L2Cache(owner),
                    None => DataSource::Memory,
                };
                let mut states = Vec::new();
                self.vd_insert(s, line, core, &mut states);
                states.into_iter().map(|ns| (ns, source)).collect()
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
                let mut ns = s.clone();
                for other in others.iter() {
                    ns.vd[line].remove(other);
                }
                if self.cfg.fault != Fault::SkipWriteInvalidation {
                    self.invalidate(&mut ns, line, others);
                }
                if had_copy {
                    vec![(ns, source)]
                } else {
                    let mut states = Vec::new();
                    self.vd_insert(&ns, line, core, &mut states);
                    states.into_iter().map(|es| (es, source)).collect()
                }
            }
        }
    }

    /// Allocates `entry` for `line` in the ED (of `core`'s partition when
    /// way-partitioned), branching over every possible ED victim when the
    /// structure is full; victims migrate into the TD per
    /// [`step::ed_victim_to_td`]. Results are appended to `out`.
    #[allow(clippy::too_many_arguments)]
    fn alloc_ed_entry(
        &self,
        s: &ModelState,
        line: usize,
        entry: EdEntry,
        core: usize,
        appendix_a: AppendixA,
        has_vd: bool,
        out: &mut Vec<ModelState>,
    ) {
        debug_assert!(s.ed[line].is_none(), "ED allocation over a live entry");
        let part = if self.partitioned() { core as u8 } else { 0 };
        let occupied = |x: usize| matches!(s.ed[x], Some((p, _)) if p == part);
        let occupants = (0..self.cfg.lines).filter(|&x| occupied(x)).count();
        if occupants < self.cfg.ed_capacity {
            let mut ns = s.clone();
            ns.ed[line] = Some((part, entry));
            out.push(ns);
            return;
        }
        for vline in 0..self.cfg.lines {
            let Some((vpart, victim)) = s.ed[vline].filter(|_| occupied(vline)) else {
                continue;
            };
            let mut ns = s.clone();
            ns.ed[vline] = None;
            ns.ed[line] = Some((part, entry));
            let m = step::ed_victim_to_td(victim, appendix_a);
            if !m.quirk_invalidate.is_empty() && self.cfg.fault != Fault::SkipQuirkInvalidation {
                self.invalidate(&mut ns, vline, m.quirk_invalidate);
            }
            self.insert_td_entry(&ns, vline, m.entry, vpart, has_vd, out);
        }
    }

    /// Inserts a TD entry for `line`, branching over every TD victim when
    /// full; victims resolve per [`step::td_conflict`] (discard ② or, for
    /// SecDir, VD migration ③). Results are appended to `out`.
    fn insert_td_entry(
        &self,
        s: &ModelState,
        line: usize,
        entry: TdEntry,
        part: u8,
        has_vd: bool,
        out: &mut Vec<ModelState>,
    ) {
        debug_assert!(s.td[line].is_none(), "TD insertion over a live entry");
        let occupied = |x: usize| matches!(s.td[x], Some((p, _)) if p == part);
        let occupants = (0..self.cfg.lines).filter(|&x| occupied(x)).count();
        if occupants < self.cfg.td_capacity {
            let mut ns = s.clone();
            ns.td[line] = Some((part, entry));
            out.push(ns);
            return;
        }
        for vline in 0..self.cfg.lines {
            let Some((_, victim)) = s.td[vline].filter(|_| occupied(vline)) else {
                continue;
            };
            let mut ns = s.clone();
            ns.td[vline] = None;
            ns.td[line] = Some((part, entry));
            match step::td_conflict(victim, has_vd) {
                TdConflict::Discard { invalidate, .. } => {
                    self.invalidate(&mut ns, vline, invalidate);
                    out.push(ns);
                }
                TdConflict::MigrateToVd { sharers, .. } => {
                    // Every sharer's bank receives the entry; each insert
                    // may branch on a self-conflict victim.
                    let mut states = vec![ns];
                    let mut next = Vec::new();
                    for sharer in sharers.iter() {
                        next.clear();
                        for st in &states {
                            self.vd_insert(st, vline, sharer.0, &mut next);
                        }
                        std::mem::swap(&mut states, &mut next);
                    }
                    out.append(&mut states);
                }
            }
        }
    }

    /// Inserts `line` into `core`'s VD bank (idempotent), branching over
    /// every resident victim on a bank self-conflict (transition ⑤, which
    /// invalidates the bank owner's own copy of the displaced line).
    /// Results are appended to `out`.
    fn vd_insert(&self, s: &ModelState, line: usize, core: usize, out: &mut Vec<ModelState>) {
        let owner = CoreId(core);
        if s.vd[line].contains(owner) {
            out.push(s.clone());
            return;
        }
        let resident = |x: usize| x != line && s.vd[x].contains(owner);
        let resident_count = (0..self.cfg.lines).filter(|&x| resident(x)).count();
        if resident_count < self.cfg.vd_capacity {
            let mut ns = s.clone();
            ns.vd[line].insert(owner);
            out.push(ns);
            return;
        }
        for vline in 0..self.cfg.lines {
            if !resident(vline) {
                continue;
            }
            let mut ns = s.clone();
            ns.vd[vline].remove(owner);
            ns.caches[core][vline] = Moesi::Invalid;
            ns.vd[line].insert(owner);
            out.push(ns);
        }
    }

    /// Dispatches an L2 eviction per kind, mirroring each slice's
    /// `l2_evict`. Results are appended to `out`.
    fn dir_l2_evict(
        &self,
        s: &ModelState,
        core: usize,
        line: usize,
        dirty: bool,
        out: &mut Vec<ModelState>,
    ) {
        let evictor = CoreId(core);
        match self.cfg.kind {
            DirKind::VdOnly => {
                let mut ns = s.clone();
                ns.vd[line].remove(evictor);
                out.push(ns);
            }
            DirKind::Baseline(..) | DirKind::WayPartitioned | DirKind::SecDir => {
                let has_vd = self.cfg.kind == DirKind::SecDir;
                if let Some((part, entry)) = s.ed[line] {
                    let mut ns = s.clone();
                    ns.ed[line] = None;
                    self.insert_td_entry(
                        &ns,
                        line,
                        step::l2_evict_ed(entry, evictor, dirty),
                        part,
                        has_vd,
                        out,
                    );
                    return;
                }
                if let Some((part, entry)) = s.td[line] {
                    let mut ns = s.clone();
                    let (updated, _fills) = step::l2_evict_td(entry, evictor, dirty);
                    ns.td[line] = Some((part, updated));
                    out.push(ns);
                    return;
                }
                if has_vd && !s.vd[line].is_empty() {
                    // Transition ④: consolidate the VD residency into a TD
                    // entry, exactly as `SecDirSlice::l2_evict` does.
                    let matched = s.vd[line];
                    let mut ns = s.clone();
                    if self.cfg.fault != Fault::LeakVdOnConsolidate {
                        ns.vd[line] = SharerSet::empty();
                    }
                    self.insert_td_entry(
                        &ns,
                        line,
                        step::l2_evict_ed(EdEntry { sharers: matched }, evictor, dirty),
                        0,
                        true,
                        out,
                    );
                    return;
                }
                // No directory entry: only reachable in faulty runs whose
                // violation the checker reports before exploring deeper.
                out.push(s.clone());
            }
        }
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
