//! Exhaustive exploration of the model's reachable state space, checking
//! the paper's safety invariants at every state and reconstructing a
//! labeled counterexample trace on the first violation. The invariants
//! are the runtime oracle's own: [`invariant_failure`] builds a
//! [`LineView`] per line and calls [`check_line`].
//!
//! Two exploration cores share the packed-state machinery of
//! [`pack`](crate::pack):
//!
//! * [`check`] — the original **serial BFS**, keyed on packed `u128`
//!   states: the visited set holds each state's four line words as one
//!   word. Exploration order, reachable-state counts, and
//!   shortest-counterexample semantics are identical to the PR 3 checker;
//!   the quick-config fingerprints (562/856/8701/7564/106) are unchanged.
//! * [`check_opt`] — the scalable core: **level-synchronized frontier
//!   BFS**, its expansion optionally fanned out over
//!   [`par::for_each_claimed`] workers and optionally exploring one
//!   representative per symmetry orbit via [`canon`](crate::canon). The
//!   calling thread merges the per-chunk successor buffers into one
//!   visited set in frontier order, so state counts, transition counts,
//!   and the reported counterexample are bit-identical at every thread
//!   count.
//!
//! Both cores expand a state the same way: through
//! [`Model::successors_each`], keying each successor inside the sink
//! (its line words as one `u128`, or keyed against its parent's
//! relabeled words), then deduplicating the state's keys in one pass, in the model's successor
//! order. Only the keys are stored; a counterexample's relabelings are
//! recovered by re-expanding the few states on its trace.
//!
//! **Level-barrier argument.** Workers expand one BFS level at a time
//! with two barriers: (1) every frontier state is invariant-checked and
//! expanded before any discovered successor is inserted, and (2) the
//! merge, on the calling thread alone, scans the per-chunk candidate
//! buffers in frontier order, so the discovery order of level *k+1* is
//! a pure function of level *k* regardless of how chunks were scheduled
//! onto threads. A violation at level *k* is reported from the lowest
//! frontier index (invariant breaches ranked before deadlocks at the same
//! index) — the same state the serial checker would have stopped at —
//! and BFS level order makes its trace shortest.
//!
//! Besides the safety invariants, both cores flag **deadlock**: a
//! reachable state with no enabled transitions. The protocol model offers
//! every core a read and a write to every invalid line, so a genuine
//! deadlock means the transition relation itself collapsed — a modelling
//! bug worth a counterexample trace, not a silent exploration end.

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use secdir_coherence::{check_line, AppendixA, DirParts, LineView, Moesi, Violation};
use secdir_mem::{par, LineAddr};

use crate::canon::{CanonTable, PermPair, IDENTITY};
use crate::model::{DirKind, Label, Model, ModelConfig, ModelState, MAX_CORES};
use crate::pack::{pack, unpack, PackedLabel};

/// Why exploration stopped at a state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The state breaks a protocol invariant (the runtime oracle's).
    Invariant(Violation),
    /// `(structure, index, count)`: the model overfilled the ED/TD of
    /// partition `index` or the VD bank of core `index` (a model bug).
    Capacity(&'static str, usize, usize),
    /// The state has no enabled transitions.
    Deadlock,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Failure::Invariant(v) => v.fmt(f),
            Failure::Capacity("VD", core, count) => {
                write!(f, "capacity: {count} VD entries in core{core}'s bank")
            }
            Failure::Capacity(what, part, count) => {
                write!(f, "capacity: {count} {what} entries in partition {part}")
            }
            Failure::Deadlock => {
                f.write_str("deadlock: no enabled transitions from this reachable state")
            }
        }
    }
}

/// A labeled counterexample: the access sequence from the empty machine to
/// a state violating `invariant`, in **original** (uncanonicalized)
/// coordinates.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// What failed, with the offending line/cores interpolated.
    pub failure: Failure,
    /// `failure`, rendered.
    pub invariant: String,
    /// Transition labels from the initial state to the violating state.
    pub labels: Vec<Label>,
    /// Human-readable rendering of `labels` (one line per step).
    pub trace: Vec<String>,
    /// The violating state itself, in original coordinates: its line
    /// words, read field by field through the [`ModelState`] accessors.
    pub state: ModelState,
}

/// The result of one exhaustive exploration.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Directory kind explored.
    pub kind: DirKind,
    /// Distinct states visited (orbit representatives when `canonical`).
    pub states: usize,
    /// Transitions generated (including duplicates into seen states).
    pub transitions: usize,
    /// Whether states were symmetry-canonicalized before hashing.
    pub canonical: bool,
    /// Worker threads used by the exploration.
    pub threads: usize,
    /// BFS levels completed (0 for the serial core, which does not track
    /// level boundaries).
    pub levels: usize,
    /// Estimated peak bytes held by the visited set + parent pointers
    /// (16-byte packed key, 8-byte parent record, ~16 bytes per hash-set
    /// entry).
    pub peak_bytes: usize,
    /// First violation found, if any; `None` means every reachable state
    /// satisfies every invariant.
    pub violation: Option<Counterexample>,
}

/// Options for [`check_opt`].
#[derive(Clone, Copy, Debug)]
pub struct CheckOptions {
    /// Canonicalize states over core/line permutations before hashing
    /// (explores one representative per symmetry orbit).
    pub canonicalize: bool,
    /// Worker threads for frontier expansion (min 1). Results are
    /// identical at every thread count.
    pub threads: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            canonicalize: true,
            threads: 1,
        }
    }
}

/// Parent pointer of a discovered state: the frontier state it was
/// expanded from and the transition label, in the parent's coordinate
/// frame. The relabeling from the raw successor to the stored canonical
/// form is not kept: [`rebuild`] recovers it for the few steps of a trace.
#[derive(Clone, Copy, Debug)]
struct ParentRec {
    parent: u32,
    label: PackedLabel,
}

/// Sentinel parent of the initial state.
const ROOT: u32 = u32::MAX;

impl ParentRec {
    fn root() -> Self {
        ParentRec {
            parent: ROOT,
            label: PackedLabel(0),
        }
    }
}

/// Explores the full reachable state space of `cfg` with the serial,
/// uncanonicalized BFS and checks every state. Exploration is
/// breadth-first, so a returned counterexample is a shortest trace to a
/// violation (invariant breach or deadlock).
///
/// # Panics
///
/// Panics if `cfg` is out of the model's bounds (see [`Model::new`]).
pub fn check(cfg: ModelConfig) -> CheckReport {
    let model = Model::new(cfg);
    check_with(cfg, |s, mut emit| model.successors_each(s, &mut emit))
}

/// The serial BFS core, parameterized over the successor relation (in
/// [`Model::successors_each`]'s form) so the deadlock path can be
/// exercised with a stubbed transition function (the real model never
/// produces an empty successor set — see the module docs).
fn check_with(
    cfg: ModelConfig,
    mut successors: impl FnMut(&ModelState, &mut dyn FnMut(Label, ModelState)),
) -> CheckReport {
    let init_key = pack(&ModelState::initial());
    let mut states: Vec<u128> = vec![init_key];
    let mut parents: Vec<ParentRec> = vec![ParentRec::root()];
    let mut seen = KeySet::default();
    seen.insert(init_key);

    let mut transitions = 0usize;
    // The current state's successors, each keyed as its line words.
    let mut keyed: Vec<(u128, Label)> = Vec::new();
    let mut frontier = 0usize;
    while frontier < states.len() {
        let id = frontier;
        frontier += 1;

        let current = unpack(states[id]);
        let failure = invariant_failure(&current, &cfg).or_else(|| {
            keyed.clear();
            successors(&current, &mut |label, next| {
                keyed.push((pack(&next), label))
            });
            keyed.is_empty().then_some(Failure::Deadlock)
        });
        if let Some(failure) = failure {
            let violation = Some((id, failure));
            return finish(cfg, None, &states, &parents, transitions, 1, 0, violation);
        }
        transitions += keyed.len();
        for &(key, label) in &keyed {
            if seen.insert(key) {
                states.push(key);
                parents.push(ParentRec {
                    parent: id as u32,
                    label: PackedLabel::encode(label),
                });
            }
        }
    }
    finish(cfg, None, &states, &parents, transitions, 1, 0, None)
}

/// Frontier states per expansion chunk. Chunks — not threads — are the
/// unit of scheduling: per-chunk buffers are merged in chunk order, which
/// makes discovery order independent of which worker ran which chunk.
const CHUNK: usize = 256;

/// A visited set of packed states, hashed by [`KeyHasher`].
type KeySet = HashSet<u128, BuildHasherDefault<KeyHasher>>;

/// The visited set's hasher: one fixed folded multiply of a packed
/// state's two halves. The keys are states the checker generates itself,
/// never outside input, so the keyed SipHash of `RandomState` buys no
/// protection here, only cost. The hash table takes its control tags
/// from the top seven bits of this hash and its bucket from the low
/// bits; folding the product's high half onto its low half lets every
/// bit of the key reach both.
#[derive(Clone, Copy, Debug, Default)]
struct KeyHasher(u64);

impl KeyHasher {
    /// The 128-bit product of `a` and `b`, its halves xored together.
    #[inline]
    fn fold_mul(a: u64, b: u64) -> u64 {
        let p = u128::from(a) * u128::from(b);
        (p as u64) ^ ((p >> 64) as u64)
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write_u128(&mut self, key: u128) {
        let (lo, hi) = (key as u64, (key >> 64) as u64);
        self.0 = Self::fold_mul(lo ^ 0x243f_6a88_85a3_08d3, hi ^ 0x1319_8a2e_0370_7344);
    }

    /// Any other key, folded in a byte at a time.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = Self::fold_mul(self.0 ^ u64::from(b), 0x1319_8a2e_0370_7344);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A successor candidate produced by an expansion chunk. The key is
/// held as two words, so a candidate takes 24 bytes, not the 32 that a
/// 16-byte-aligned `u128` field would round it up to.
#[derive(Clone, Copy)]
struct Cand {
    key: [u64; 2],
    parent: u32,
    label: PackedLabel,
}

impl Cand {
    fn new(key: u128, parent: usize, label: Label) -> Self {
        Cand {
            key: [(key >> 64) as u64, key as u64],
            parent: parent as u32,
            label: PackedLabel::encode(label),
        }
    }

    fn key(&self) -> u128 {
        u128::from(self.key[0]) << 64 | u128::from(self.key[1])
    }
}

/// Everything one expansion chunk produced.
#[derive(Default)]
struct ChunkOut {
    transitions: usize,
    cands: Vec<Cand>,
    /// `(frontier index, failure)`; a deadlock ranks after a breach at
    /// the same index.
    violations: Vec<(u32, Failure)>,
}

/// Explores `cfg` with the level-synchronized frontier BFS: symmetry
/// canonicalization per `opts.canonicalize`. Each level's expansion fans
/// out over `opts.threads` workers; the merge of its successors into the
/// one visited set runs on the calling thread. State counts, transition
/// counts, and any reported counterexample are bit-identical at every
/// thread count; the counterexample is a shortest trace, reported in
/// original coordinates.
///
/// On a violation at BFS level *k*, `states` counts every state
/// discovered through level *k* and `transitions` every successor
/// generated through level *k−1* (the violating level's expansion is
/// discarded) — a deterministic cut, unlike the serial core's
/// stop-mid-level counts.
///
/// # Panics
///
/// Panics if `cfg` is out of the model's bounds (see [`Model::new`]).
pub fn check_opt(cfg: ModelConfig, opts: &CheckOptions) -> CheckReport {
    check_opt_with_states(cfg, opts).0
}

/// [`check_opt`], additionally returning the packed visited states in
/// discovery order (canonical forms when `opts.canonicalize`). The bench
/// harness feeds these to [`CanonTable::orbit_size`] to reconstruct the
/// exact raw reachable count at geometries whose raw exploration is out
/// of budget.
///
/// # Panics
///
/// Panics if `cfg` is out of the model's bounds (see [`Model::new`]).
pub fn check_opt_with_states(cfg: ModelConfig, opts: &CheckOptions) -> (CheckReport, Vec<u128>) {
    let model = Model::new(cfg);
    let threads = opts.threads.max(1);
    let table = opts
        .canonicalize
        .then(|| CanonTable::new(cfg.cores, cfg.lines, cfg.kind == DirKind::WayPartitioned));

    let init_key = match &table {
        Some(t) => t.canonicalize(&ModelState::initial()).0,
        None => pack(&ModelState::initial()),
    };
    let mut states: Vec<u128> = vec![init_key];
    let mut parents: Vec<ParentRec> = vec![ParentRec::root()];
    let mut seen = KeySet::default();
    seen.insert(init_key);

    let mut transitions = 0usize;
    let mut levels = 0usize;
    let mut lo = 0usize;
    loop {
        let hi = states.len();
        if lo >= hi {
            break;
        }
        levels += 1;

        // --- Expand the level [lo, hi), chunked. ---
        let outs = expand_level(
            &model,
            &cfg,
            table.as_ref(),
            &states,
            &seen,
            lo,
            hi,
            threads,
        );

        // --- Violations? Lowest frontier index wins; a breach outranks a
        // deadlock at the same index. Deterministic at any thread count
        // because every chunk is fully checked before deciding. ---
        let best = outs
            .iter()
            .flat_map(|o| o.violations.iter())
            .min_by_key(|(idx, failure)| (*idx, *failure == Failure::Deadlock));
        if let Some(&(idx, failure)) = best {
            let report = finish(
                cfg,
                table.as_ref().map(|t| (&model, t)),
                &states,
                &parents,
                transitions,
                threads,
                levels,
                Some((idx as usize, failure)),
            );
            return (report, states);
        }
        transitions += outs.iter().map(|o| o.transitions).sum::<usize>();

        // --- Merge candidate buffers into the visited set, in frontier
        // order: the first occurrence of each key is the one kept. Each
        // chunk's buffer is freed once merged, so less is live when the
        // set grows. ---
        for c in outs.into_iter().flat_map(|o| o.cands) {
            let key = c.key();
            if seen.insert(key) {
                states.push(key);
                parents.push(ParentRec {
                    parent: c.parent,
                    label: c.label,
                });
            }
        }
        lo = hi;
    }
    let report = finish(
        cfg,
        table.as_ref().map(|t| (&model, t)),
        &states,
        &parents,
        transitions,
        threads,
        levels,
        None,
    );
    (report, states)
}

/// Expands frontier `[lo, hi)` of `states` into per-chunk buffers, in
/// chunk order, claiming chunks through [`par::for_each_claimed`]; the
/// visited set is only *read* here (membership pre-filter), never
/// written, so workers share it without locks.
///
/// Each successor is keyed inside the model's sink, straight from the
/// line words the model built it as, so no successor state is stored or
/// re-packed. The frontier state's own words are relabeled once
/// ([`CanonTable::lanes`]), and each successor's key relabels only the
/// words it changed ([`CanonTable::key`]); without canonicalization the
/// key is the words as one `u128`. No relabeling is recovered here. The keys of one frontier state
/// are then probed against the visited set in one tight loop: each probe
/// is a likely cache miss on a large set, and with no canonicalization
/// between them the host overlaps them instead of waiting out one at a
/// time. Candidates keep the model's successor order.
#[expect(clippy::too_many_arguments, reason = "one BFS level's inputs")]
fn expand_level(
    model: &Model,
    cfg: &ModelConfig,
    table: Option<&CanonTable>,
    states: &[u128],
    seen: &KeySet,
    lo: usize,
    hi: usize,
    threads: usize,
) -> Vec<ChunkOut> {
    let n_chunks = (hi - lo).div_ceil(CHUNK);
    let mut outs: Vec<ChunkOut> = (0..n_chunks).map(|_| ChunkOut::default()).collect();
    par::for_each_claimed(&mut outs, threads, |chunk, out| {
        let start = lo + chunk * CHUNK;
        let end = (start + CHUNK).min(hi);
        // The current state's successors, keyed, in the model's order.
        let mut keyed: Vec<Cand> = Vec::new();
        let mut known: Vec<bool> = Vec::new();
        for (id, &packed) in states.iter().enumerate().take(end).skip(start) {
            let current = unpack(packed);
            if let Some(failure) = invariant_failure(&current, cfg) {
                out.violations.push((id as u32, failure));
                continue;
            }
            keyed.clear();
            let parent = table.map(|t| (t, t.lanes(&current)));
            model.successors_each(&current, &mut |label, next| {
                let key = match &parent {
                    Some((t, lanes)) => t.key(lanes, next.words()),
                    None => pack(&next),
                };
                keyed.push(Cand::new(key, id, label));
            });
            out.transitions += keyed.len();
            if keyed.is_empty() {
                out.violations.push((id as u32, Failure::Deadlock));
                continue;
            }
            known.clear();
            known.extend(keyed.iter().map(|c| seen.contains(&c.key())));
            out.cands.extend(
                keyed
                    .iter()
                    .zip(&known)
                    .filter_map(|(c, &k)| (!k).then_some(*c)),
            );
        }
    });
    outs
}

fn estimate_bytes(n: usize) -> usize {
    n * (16 + std::mem::size_of::<ParentRec>() + 16)
}

/// Assembles the final report, rebuilding the counterexample trace in
/// original coordinates when a violation was found. `canon` is `None`
/// when `states` are packed as the model made them, or the model and the
/// table whose canonical forms they are.
#[expect(clippy::too_many_arguments, reason = "the BFS loop's end state")]
fn finish(
    cfg: ModelConfig,
    canon: Option<(&Model, &CanonTable)>,
    states: &[u128],
    parents: &[ParentRec],
    transitions: usize,
    threads: usize,
    levels: usize,
    violation: Option<(usize, Failure)>,
) -> CheckReport {
    let violation =
        violation.map(|(id, failure)| rebuild(&cfg, canon, states, parents, id, failure));
    CheckReport {
        kind: cfg.kind,
        states: states.len(),
        transitions,
        canonical: canon.is_some(),
        threads,
        levels,
        peak_bytes: estimate_bytes(states.len()),
        violation,
    }
}

/// Rebuilds the counterexample reaching `states[id]` in original
/// coordinates.
///
/// Canonical states are stored with the label `ℓ` used from the parent's
/// canonical frame; the relabeling `g` with `child = g(raw successor)` is
/// recovered here by [`step_relabeling`] (identity when `canon` is
/// `None`). Walking the chain root→violation while accumulating
/// `q ← g ∘ q` (starting from the identity — the initial state is its own
/// canonical form) yields the concrete run `s_i = q_i⁻¹(c_i)` whose labels
/// are `q_{i-1}⁻¹(ℓ_i)`: each step is a genuine model transition because
/// relabelings carry transitions of clean states to transitions (see
/// `canon` module docs).
fn rebuild(
    cfg: &ModelConfig,
    canon: Option<(&Model, &CanonTable)>,
    states: &[u128],
    parents: &[ParentRec],
    id: usize,
    failure: Failure,
) -> Counterexample {
    let mut chain: Vec<usize> = Vec::new();
    let mut cur = id;
    while parents[cur].parent != ROOT {
        chain.push(cur);
        cur = parents[cur].parent as usize;
    }
    debug_assert_eq!(states[cur], states[0], "trace must root at init");
    chain.reverse();

    let permute_parts = cfg.kind == DirKind::WayPartitioned;
    let mut q = IDENTITY;
    let mut labels = Vec::with_capacity(chain.len());
    for child in chain {
        let ParentRec { parent, label } = parents[child];
        let label = label.decode();
        labels.push(q.inverse().apply_label(label));
        if let Some((model, table)) = canon {
            let parent = states[parent as usize];
            q = step_relabeling(model, table, parent, label, states[child]).compose(&q);
        }
    }
    let state = q.inverse().apply_state(&unpack(states[id]), permute_parts);
    // Re-check on the original-coordinate state (the canonical-frame
    // failure names permuted cores/lines). Invariants are
    // permutation-invariant, so a violation is found either way; a
    // deadlock carries no coordinates and passes through.
    let failure = match failure {
        Failure::Deadlock => failure,
        _ => invariant_failure(&state, cfg).unwrap_or(failure),
    };
    let trace = labels.iter().map(Label::to_string).collect();
    Counterexample {
        failure,
        invariant: failure.to_string(),
        labels,
        trace,
        state,
    }
}

/// The relabeling that carried the raw successor of the stored canonical
/// state `parent` under `label` to the stored canonical state `child`:
/// that of the first successor of `parent` with that label whose
/// canonical form is `child`. The checker keeps the first occurrence of
/// each key in successor order, so this is the very successor whose key
/// was accepted, and [`CanonTable::canonicalize`] gives its relabeling.
fn step_relabeling(
    model: &Model,
    table: &CanonTable,
    parent: u128,
    label: Label,
    child: u128,
) -> PermPair {
    let mut found = None;
    model.successors_each(&unpack(parent), &mut |l, next| {
        if found.is_none() && l == label {
            let (key, g) = table.canonicalize(&next);
            found = (key == child).then_some(g);
        }
    });
    debug_assert!(
        found.is_some(),
        "no successor of a stored parent reproduces its child"
    );
    found.unwrap_or(IDENTITY)
}

/// Runs [`check`] over every directory kind at the quick configuration.
pub fn check_all_quick() -> Vec<CheckReport> {
    DirKind::ALL
        .iter()
        .map(|&kind| check(ModelConfig::quick(kind)))
        .collect()
}

/// The first failure of `s`: a protocol invariant, checked per line by
/// the same [`check_line`] the runtime oracle (`Machine::verify`) runs,
/// then the model's own capacity bounds. `None` if the state is clean.
pub fn invariant_failure(s: &ModelState, cfg: &ModelConfig) -> Option<Failure> {
    let partitioned = cfg.kind == DirKind::WayPartitioned;
    let (mut ed, mut td, mut vd) = ([0; MAX_CORES], [0; MAX_CORES], [0; MAX_CORES]);
    for line in 0..cfg.lines {
        let holders: [Moesi; MAX_CORES] = std::array::from_fn(|core| s.cache(core, line));
        let (e, t) = (s.ed(line), s.td(line));
        let partition = e.map(|(p, _)| p).or(t.map(|(p, _)| p));
        let view = LineView {
            line: LineAddr::new(line as u64),
            slice: 0,
            holders: &holders[..cfg.cores],
            dir: DirParts {
                ed: e.map(|(_, e)| e),
                td: t.map(|(_, t)| t),
                vd: s.vd(line),
                partition: partition.filter(|_| partitioned).map(usize::from),
            },
            quirk: cfg.kind == DirKind::Baseline(AppendixA::SkylakeQuirk),
        };
        if let Err(v) = check_line(&view) {
            return Some(Failure::Invariant(v));
        }
        e.into_iter().for_each(|(p, _)| ed[usize::from(p)] += 1);
        t.into_iter().for_each(|(p, _)| td[usize::from(p)] += 1);
        s.vd(line).iter().for_each(|c| vd[c.0] += 1);
    }
    // Capacity bounds: the model must respect its own geometry.
    let over = |what, counts: [usize; MAX_CORES], cap| {
        let i = (0..MAX_CORES).find(|&i| counts[i] > cap)?;
        Some(Failure::Capacity(what, i, counts[i]))
    };
    over("ED", ed, cfg.ed_capacity)
        .or_else(|| over("TD", td, cfg.td_capacity))
        .or_else(|| over("VD", vd, cfg.vd_capacity))
}

/// [`invariant_failure`], rendered.
pub fn violated_invariant(s: &ModelState, cfg: &ModelConfig) -> Option<String> {
    invariant_failure(s, cfg).map(|f| f.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_at_the_initial_state_is_reported() {
        let cfg = ModelConfig::quick(DirKind::SecDir);
        let report = check_with(cfg, |_, _| {});
        let v = report.violation.expect("empty relation must deadlock");
        assert_eq!(v.failure, Failure::Deadlock);
        assert_eq!(
            v.invariant,
            "deadlock: no enabled transitions from this reachable state"
        );
        assert!(v.trace.is_empty(), "initial-state deadlock has no trace");
        assert_eq!(report.states, 1);
    }

    #[test]
    fn deadlock_one_step_in_carries_the_trace() {
        let cfg = ModelConfig::quick(DirKind::SecDir);
        let model = Model::new(cfg);
        let (label, next) = model
            .successors(&ModelState::initial())
            .into_iter()
            .next()
            .expect("the real model always has enabled transitions");
        let report = check_with(cfg, move |s, emit| {
            if *s == ModelState::initial() {
                emit(label, next);
            }
        });
        let v = report.violation.expect("stuck successor must deadlock");
        assert_eq!(v.failure, Failure::Deadlock);
        assert_eq!(v.trace, vec![label.to_string()]);
        assert_eq!(v.state, next);
    }

    #[test]
    fn visited_hash_spreads_the_full_geometry_keys() {
        // The hash table takes its control tags from the top seven bits
        // of the hash and the bucket from the low bits, masked to its
        // power-of-two bucket count. The visited set's hash must spread
        // the checker's own keys over both, at the capacity the set
        // actually grows to.
        let (report, keys) = check_opt_with_states(
            ModelConfig::full(DirKind::SecDir),
            &CheckOptions {
                canonicalize: true,
                threads: 2,
            },
        );
        assert_eq!(report.states, 34_332);
        // Grown by single inserts, as the checker grows it; the table
        // keeps 7/8 of its power-of-two bucket count usable.
        let mut set = KeySet::default();
        keys.iter().for_each(|&key| {
            set.insert(key);
        });
        let buckets = set.capacity().next_power_of_two() as u64;
        let hash = |key: u128| {
            let mut h = KeyHasher::default();
            h.write_u128(key);
            h.finish()
        };
        let hashes: Vec<u64> = keys.into_iter().map(hash).collect();
        let mut per_tag = [0usize; 128];
        hashes.iter().for_each(|h| per_tag[(h >> 57) as usize] += 1);
        let fewest = per_tag.iter().min().copied().unwrap_or(0);
        let most = per_tag.iter().max().copied().unwrap_or(0);
        assert!(most < 2 * fewest, "{per_tag:?} keys per tag");
        let used: HashSet<u64> = hashes.iter().map(|h| h & (buckets - 1)).collect();
        // Thrown at random, the keys would fill 1 − e^(−keys/buckets) of
        // the buckets.
        let load = hashes.len() as f64 / buckets as f64;
        let expected = buckets as f64 * (1.0 - (-load).exp());
        assert!(
            used.len() as f64 >= 0.95 * expected,
            "{} keys fill {} of {buckets} buckets, {expected:.0} expected",
            hashes.len(),
            used.len(),
        );
    }

    #[test]
    fn step_relabeling_recovers_the_first_successor_of_each_key() {
        // For every successor that is the first of its key in its
        // parent's successor order (the one the checker accepts), the
        // recovered relabeling is that successor's own, even where an
        // earlier successor shares its label.
        let mut shared_label = 0;
        for kind in DirKind::ALL {
            let cfg = ModelConfig::quick(kind);
            let model = Model::new(cfg);
            let table = CanonTable::new(cfg.cores, cfg.lines, kind == DirKind::WayPartitioned);
            let (_, states) = check_opt_with_states(cfg, &CheckOptions::default());
            for parent in states {
                let mut firsts: Vec<(u128, Label, PermPair)> = Vec::new();
                let mut seen_labels = HashSet::new();
                model.successors_each(&unpack(parent), &mut |label, next| {
                    let (key, g) = table.canonicalize(&next);
                    let label_seen = !seen_labels.insert(label);
                    if firsts.iter().all(|&(k, ..)| k != key) {
                        shared_label += usize::from(label_seen);
                        firsts.push((key, label, g));
                    }
                });
                for (key, label, g) in firsts {
                    assert_eq!(step_relabeling(&model, &table, parent, label, key), g);
                }
            }
        }
        assert!(shared_label > 0, "no accepted successor shares its label");
    }

    #[test]
    fn serial_and_level_bfs_agree_on_clean_models() {
        for kind in DirKind::ALL {
            let cfg = ModelConfig::quick(kind);
            let serial = check(cfg);
            let raw_level = check_opt(
                cfg,
                &CheckOptions {
                    canonicalize: false,
                    threads: 1,
                },
            );
            assert_eq!(serial.states, raw_level.states, "{}", kind.name());
            assert_eq!(serial.transitions, raw_level.transitions, "{}", kind.name());
            assert!(raw_level.violation.is_none());
        }
    }
}
