//! Property tests of the packed-state encoding and the symmetry
//! canonicalization, plus faulted-model tests proving the
//! symmetry-reduced checker still finds every PR 3 seeded violation with
//! a trace that replays in original coordinates.
//!
//! States are generated by *random walks* of the real model (a random
//! directory kind, a random successor at each step), so every property is
//! exercised on genuinely reachable states — the only ones the checker
//! ever canonicalizes.
#![allow(
    clippy::expect_used,
    clippy::iter_over_hash_type,
    reason = "helpers panic on failure; set order is never observed"
)]

use std::collections::HashSet;

use proptest::prelude::*;
use secdir_coherence::{AppendixA, Violation};
use secdir_verif::canon::{CanonTable, PermPair, IDENTITY};
use secdir_verif::checker::{
    check_opt, check_opt_with_states, invariant_failure, CheckOptions, Counterexample, Failure,
};
use secdir_verif::model::{DirKind, Fault, Label, Model, ModelConfig, ModelState};
use secdir_verif::pack::{line_words, pack, unpack, PackedLabel};

/// Walks `steps` random successors from the initial state and returns the
/// endpoint (always a reachable state of `cfg`).
fn random_walk(cfg: ModelConfig, choices: &[u8]) -> ModelState {
    let model = Model::new(cfg);
    let mut state = ModelState::initial();
    for &c in choices {
        let succ = model.successors(&state);
        if succ.is_empty() {
            break;
        }
        state = succ[c as usize % succ.len()].1.clone();
    }
    state
}

fn kind_of(idx: u8) -> DirKind {
    DirKind::ALL[idx as usize % DirKind::ALL.len()]
}

/// All permutations of `0..n`, padded with the identity on the tail — the
/// exact group the canonicalization table searches.
fn perms_of(n: usize) -> Vec<[u8; 4]> {
    fn rec(pool: &mut Vec<u8>, cur: &mut Vec<u8>, out: &mut Vec<[u8; 4]>) {
        if pool.is_empty() {
            let mut full = [0u8, 1, 2, 3];
            for (i, &v) in cur.iter().enumerate() {
                full[i] = v;
            }
            out.push(full);
            return;
        }
        for i in 0..pool.len() {
            let v = pool.remove(i);
            cur.push(v);
            rec(pool, cur, out);
            cur.pop();
            pool.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut (0..n as u8).collect(), &mut Vec::new(), &mut out);
    out
}

fn table_for(cfg: &ModelConfig) -> CanonTable {
    CanonTable::new(cfg.cores, cfg.lines, cfg.kind == DirKind::WayPartitioned)
}

/// The reference canonical form: the greatest `pack(g(s))` over every
/// joint relabeling `g` of the used cores and lines, computed on the
/// struct with [`PermPair::apply_state`].
fn brute_force_canonical(cfg: &ModelConfig, s: &ModelState) -> u128 {
    let permute_parts = cfg.kind == DirKind::WayPartitioned;
    let lines = perms_of(cfg.lines);
    perms_of(cfg.cores)
        .into_iter()
        .flat_map(|core| lines.iter().map(move |&line| PermPair { core, line }))
        .map(|g| pack(&g.apply_state(s, permute_parts)))
        .max()
        .expect("the group is never empty")
}

/// Asserts that `canonicalize(s)` is exact: its packed form is the
/// brute-force maximum, and its relabeling reproduces it.
fn assert_canonical_exact(cfg: &ModelConfig, table: &CanonTable, s: &ModelState) {
    let (packed, pair) = table.canonicalize(s);
    assert_eq!(
        packed,
        brute_force_canonical(cfg, s),
        "{}: not the greatest relabeling of {s:?}",
        cfg.kind.name()
    );
    assert_eq!(
        pack(&pair.apply_state(s, table.permute_parts())),
        packed,
        "{}: the returned relabeling does not reproduce the canonical form",
        cfg.kind.name()
    );
}

/// Every state reachable from the initial state, in breadth-first order,
/// uncanonicalized.
fn reachable(cfg: ModelConfig) -> Vec<ModelState> {
    let model = Model::new(cfg);
    let mut seen = HashSet::from([pack(&ModelState::initial())]);
    let mut order = vec![ModelState::initial()];
    let mut next = 0;
    while next < order.len() {
        for (_, t) in model.successors(&order[next]) {
            if seen.insert(pack(&t)) {
                order.push(t);
            }
        }
        next += 1;
    }
    order
}

/// The first `limit` canonical representatives of `cfg` in the
/// checker's discovery order: the states the checker expands.
fn canonical_prefix(cfg: ModelConfig, limit: usize) -> Vec<ModelState> {
    let model = Model::new(cfg);
    let table = table_for(&cfg);
    let mut seen = HashSet::from([table.canonicalize(&ModelState::initial()).0]);
    let mut order = vec![ModelState::initial()];
    let mut next = 0;
    while next < order.len() && order.len() < limit {
        for (_, t) in model.successors(&order[next]) {
            let key = table.canonicalize(&t).0;
            if order.len() < limit && seen.insert(key) {
                order.push(unpack(key));
            }
        }
        next += 1;
    }
    order
}

/// Keys every successor of `s` the checker's way, [`CanonTable::key`]
/// against the lanes of `s` itself, and asserts that each key is
/// `canonicalize(..).0`. `changed[n]` counts the successors that differ
/// from `s` in `n` line words. The model has no transition that changes
/// no word, so `s` itself is keyed too, as the input that changes none.
fn assert_key_path_agrees(
    cfg: &ModelConfig,
    table: &CanonTable,
    s: &ModelState,
    changed: &mut [usize; 5],
) {
    let lanes = table.lanes(pack(s));
    let before = line_words(s);
    assert_eq!(table.key(&lanes, before), table.canonicalize(s).0);
    changed[0] += 1;
    Model::new(*cfg).successors_each(s, &mut |label, t| {
        let words = line_words(&t);
        changed[(0..4).filter(|&l| words[l] != before[l]).count()] += 1;
        assert_eq!(
            table.key(&lanes, words),
            table.canonicalize(&t).0,
            "{}: {label} from {s:?}",
            cfg.kind.name()
        );
    });
}

/// Calls `f` on every successor of every state in `sources`, in order.
fn for_each_successor(cfg: ModelConfig, sources: &[ModelState], mut f: impl FnMut(&ModelState)) {
    let model = Model::new(cfg);
    for s in sources {
        for (_, t) in model.successors(s) {
            f(&t);
        }
    }
}

/// The FNV-1a offset basis: the digest of no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a digest `h`.
fn fnv(h: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a digest of `(packed, pair.index())`, little-endian, over the
/// canonicalization of every successor of every state in `sources`.
fn canon_digest(cfg: ModelConfig, sources: &[ModelState]) -> u64 {
    let table = table_for(&cfg);
    let mut h = FNV_BASIS;
    for_each_successor(cfg, sources, |t| {
        let (packed, pair) = table.canonicalize(t);
        fnv(&mut h, packed.to_le_bytes());
        fnv(&mut h, pair.index().to_le_bytes());
    });
    h
}

/// FNV-1a digest of the successor sequence itself: every `(label,
/// pack(successor))` pair, in the order the model yields them, of every
/// reachable state at the quick geometry (states in breadth-first order).
fn successor_digest(cfg: ModelConfig) -> u64 {
    let model = Model::new(cfg);
    let mut h = FNV_BASIS;
    for s in &reachable(cfg) {
        for (label, t) in model.successors(s) {
            fnv(&mut h, [PackedLabel::encode(label).0]);
            fnv(&mut h, pack(&t).to_le_bytes());
        }
    }
    h
}

/// [`canon_digest`] over every successor of every reachable state at the
/// quick geometry, per kind in `DirKind::ALL` order. The values pin the
/// canonical forms *and* the chosen relabelings, so visited order, counts
/// and rebuilt counterexample traces stay bit-identical.
const QUICK_DIGESTS: [u64; 5] = [
    0x025d_a8e6_c353_f775,
    0x9a50_7dc5_6dd1_627d,
    0xc8a9_ca91_e337_6fd9,
    0x8be1_fa75_346d_4f55,
    0x11b2_8ee0_9134_f53d,
];

/// [`canon_digest`] over every successor of every canonical
/// representative at the full geometry (in the checker's discovery
/// order), per kind in `DirKind::ALL` order.
const FULL_DIGESTS: [u64; 5] = [
    0xf821_93c3_c81f_1e08,
    0xeda9_d7a3_c500_44bf,
    0xb86a_2df1_ae71_31e1,
    0x6bfe_7d04_2b18_8928,
    0x44c9_4931_fd70_2677,
];

/// [`successor_digest`] per kind in `DirKind::ALL` order. The values pin
/// the branch order of the successor relation, not only its set, so the
/// checker's discovery order and parent pointers stay bit-identical.
const SUCCESSOR_DIGESTS: [u64; 5] = [
    0x1262_dc8f_3953_6704,
    0x1836_202b_4645_4e78,
    0xad34_da53_b15b_29e1,
    0x2ac1_88d7_5ecb_0956,
    0x7228_b5c2_2f56_cad0,
];

/// Canonical states and transitions per kind at the full geometry, in
/// `DirKind::ALL` order.
const FULL_COUNTS: [(usize, usize); 5] = [
    (259, 8_261),
    (417, 13_283),
    (407_323, 16_836_964),
    (34_332, 1_276_060),
    (110, 3_450),
];

/// FNV-1a digest of the checker's canonical representatives in discovery
/// order (each packed key little-endian) and the BFS level count, per
/// kind at the full geometry in `DirKind::ALL` order. The quick-geometry
/// counterpart lives in `tests/determinism.rs`.
const FULL_ORDER: [(u64, usize); 5] = [
    (0x89b3_1c4d_c139_d0d0, 11),
    (0x03f6_4ce9_237e_b15b, 11),
    (0xf5db_79ca_0941_6584, 17),
    (0x3ba6_332f_9aad_b6c5, 12),
    (0x5951_192d_eb01_d9d8, 8),
];

#[test]
fn canonicalize_is_exact_on_every_quick_successor() {
    for kind in DirKind::ALL {
        let cfg = ModelConfig::quick(kind);
        let table = table_for(&cfg);
        for_each_successor(cfg, &reachable(cfg), |t| {
            assert_canonical_exact(&cfg, &table, t)
        });
    }
}

/// The key path agrees with `canonicalize` on every successor of every
/// quick-reachable state of every kind, and on the successors of the
/// first 2k way-partitioned representatives at the full geometry, where
/// some successors change all four line words.
#[test]
fn key_path_equals_canonicalize_on_every_quick_successor() {
    let mut changed = [0; 5];
    for kind in DirKind::ALL {
        let cfg = ModelConfig::quick(kind);
        let table = table_for(&cfg);
        for s in reachable(cfg) {
            assert_key_path_agrees(&cfg, &table, &s, &mut changed);
        }
    }
    let full = ModelConfig::full(DirKind::WayPartitioned);
    let table = table_for(&full);
    for s in canonical_prefix(full, 2_000) {
        assert_key_path_agrees(&full, &table, &s, &mut changed);
    }
    assert!(
        changed.iter().all(|&n| n > 0),
        "successors changing 0..=4 words: {changed:?}"
    );
}

#[test]
fn canonical_digests_are_pinned_at_quick() {
    let got: Vec<u64> = DirKind::ALL
        .iter()
        .map(|&kind| {
            let cfg = ModelConfig::quick(kind);
            canon_digest(cfg, &reachable(cfg))
        })
        .collect();
    assert_eq!(got, QUICK_DIGESTS, "(packed, PermPair) drifted");
}

#[test]
fn successor_sequences_are_pinned_at_quick() {
    let got: Vec<u64> = DirKind::ALL
        .iter()
        .map(|&kind| successor_digest(ModelConfig::quick(kind)))
        .collect();
    assert_eq!(
        got, SUCCESSOR_DIGESTS,
        "(label, successor) sequence drifted"
    );
}

/// The full-geometry pins: exploration counts, discovery order and the
/// canonicalization digest of every kind. Run in release with
/// `cargo test --release -p secdir-verif -- --ignored`.
#[test]
#[ignore = "full geometry: run in release with --ignored"]
fn full_geometry_counts_and_digests_are_pinned() {
    let opts = CheckOptions {
        canonicalize: true,
        threads: 2,
    };
    for (i, kind) in DirKind::ALL.into_iter().enumerate() {
        let cfg = ModelConfig::full(kind);
        let (report, reps) = check_opt_with_states(cfg, &opts);
        assert!(report.violation.is_none(), "{}", kind.name());
        assert_eq!(
            (report.states, report.transitions),
            FULL_COUNTS[i],
            "{}: full-geometry counts drifted",
            kind.name()
        );
        let mut order = FNV_BASIS;
        reps.iter().for_each(|k| fnv(&mut order, k.to_le_bytes()));
        assert_eq!(
            (order, report.levels),
            FULL_ORDER[i],
            "{}: discovery order drifted",
            kind.name()
        );
        let reps: Vec<ModelState> = reps.iter().map(|&k| unpack(k)).collect();
        assert_eq!(
            canon_digest(cfg, &reps),
            FULL_DIGESTS[i],
            "{}: (packed, PermPair) drifted",
            kind.name()
        );
    }
}

proptest! {
    /// `unpack(pack(s)) == s` on reachable states of every kind.
    #[test]
    fn pack_roundtrips(kind_idx in 0u8..5, choices in prop::collection::vec(any::<u8>(), 0..40)) {
        let cfg = ModelConfig::quick(kind_of(kind_idx));
        let s = random_walk(cfg, &choices);
        prop_assert_eq!(unpack(pack(&s)), s);
    }

    /// Canonicalization is idempotent: the canonical form of a canonical
    /// representative is itself.
    #[test]
    fn canon_is_idempotent(kind_idx in 0u8..5, choices in prop::collection::vec(any::<u8>(), 0..40)) {
        let cfg = ModelConfig::quick(kind_of(kind_idx));
        let table = table_for(&cfg);
        let s = random_walk(cfg, &choices);
        let (canon, _) = table.canonicalize(&s);
        let (again, pair) = table.canonicalize(&unpack(canon));
        prop_assert_eq!(again, canon);
        prop_assert_eq!(pair, IDENTITY, "a canonical rep needs no relabeling");
    }

    /// The canonical form is constant on orbits: permuting a state by any
    /// group element before canonicalizing changes nothing.
    #[test]
    fn canon_is_permutation_invariant(
        kind_idx in 0u8..5,
        choices in prop::collection::vec(any::<u8>(), 0..40),
        perm_sel in any::<u16>(),
    ) {
        let cfg = ModelConfig::quick(kind_of(kind_idx));
        let permute_parts = cfg.kind == DirKind::WayPartitioned;
        let table = table_for(&cfg);
        let s = random_walk(cfg, &choices);
        let cores = perms_of(cfg.cores);
        let lines = perms_of(cfg.lines);
        let g = PermPair {
            core: cores[perm_sel as usize % cores.len()],
            line: lines[(perm_sel as usize / cores.len()) % lines.len()],
        };
        let permuted = g.apply_state(&s, permute_parts);
        prop_assert_eq!(table.canonicalize(&permuted).0, table.canonicalize(&s).0);
    }

    /// Every checked invariant agrees on a state and its canonical
    /// representative (the invariants are themselves symmetric, so
    /// checking only representatives loses nothing).
    #[test]
    fn canon_preserves_invariants(kind_idx in 0u8..5, choices in prop::collection::vec(any::<u8>(), 0..40)) {
        let cfg = ModelConfig::quick(kind_of(kind_idx));
        let table = table_for(&cfg);
        let s = random_walk(cfg, &choices);
        let rep = unpack(table.canonicalize(&s).0);
        prop_assert_eq!(
            invariant_failure(&s, &cfg).is_some(),
            invariant_failure(&rep, &cfg).is_some()
        );
    }

    /// The key path agrees with `canonicalize` at the full geometry, on
    /// every successor of the endpoints of random walks.
    #[test]
    fn key_path_equals_canonicalize_at_full(kind_idx in 0u8..5, choices in prop::collection::vec(any::<u8>(), 0..60)) {
        let cfg = ModelConfig::full(kind_of(kind_idx));
        let s = random_walk(cfg, &choices);
        assert_key_path_agrees(&cfg, &table_for(&cfg), &s, &mut [0; 5]);
    }

    /// Canonicalization is exact at the full geometry too, on the
    /// endpoints of random walks (576 relabelings per state).
    #[test]
    fn canonicalize_is_exact_at_full(kind_idx in 0u8..5, choices in prop::collection::vec(any::<u8>(), 0..60)) {
        let cfg = ModelConfig::full(kind_of(kind_idx));
        let table = table_for(&cfg);
        assert_canonical_exact(&cfg, &table, &random_walk(cfg, &choices));
    }

    /// Orbit sizes divide the group order (Lagrange), and the identity
    /// fixes every state.
    #[test]
    fn orbit_size_divides_group_order(kind_idx in 0u8..5, choices in prop::collection::vec(any::<u8>(), 0..40)) {
        let cfg = ModelConfig::quick(kind_of(kind_idx));
        let table = table_for(&cfg);
        let s = random_walk(cfg, &choices);
        let orbit = table.orbit_size(&s);
        prop_assert!(orbit >= 1);
        prop_assert_eq!(table.group_order() % orbit, 0, "orbit {} of group {}", orbit, table.group_order());
    }
}

/// Replays a counterexample's label sequence against the real model in
/// original coordinates. Labels alone do not pin successors (several
/// nondeterministic branches — e.g. eviction-victim choices — share one
/// label), so the replay tracks the full set of states consistent with
/// the sequence and requires the reported violating state among them.
fn assert_trace_replays(cfg: ModelConfig, labels: &[Label], violating: &ModelState) {
    let model = Model::new(cfg);
    let mut frontier: HashSet<ModelState> = HashSet::new();
    frontier.insert(ModelState::initial());
    for (i, label) in labels.iter().enumerate() {
        let mut next = HashSet::new();
        for s in &frontier {
            for (l, t) in model.successors(s) {
                if l == *label {
                    next.insert(t);
                }
            }
        }
        assert!(
            !next.is_empty(),
            "step {i} ({label:?}) is not enabled anywhere along the trace"
        );
        frontier = next;
    }
    assert!(
        frontier.contains(violating),
        "the reported violating state is not reachable via the reported labels"
    );
    assert!(
        invariant_failure(violating, &cfg).is_some(),
        "the reported state does not actually violate an invariant"
    );
}

/// What a seeded-fault case must break.
type Expected = fn(&Violation) -> bool;

/// The six seeded-fault cases: each kind under the fault that breaks it,
/// with the invariant the counterexample must name.
fn seeded_fault_cases() -> [(DirKind, Fault, Expected); 6] {
    let swmr: Expected = |v| matches!(v, Violation::Swmr(..));
    [
        (DirKind::SecDir, Fault::SkipWriteInvalidation, swmr),
        (DirKind::WayPartitioned, Fault::SkipWriteInvalidation, swmr),
        (
            DirKind::Baseline(AppendixA::Fixed),
            Fault::SkipWriteInvalidation,
            swmr,
        ),
        (DirKind::VdOnly, Fault::SkipWriteInvalidation, swmr),
        (DirKind::SecDir, Fault::LeakVdOnConsolidate, |v| {
            matches!(v, Violation::VdAliasing(..))
        }),
        (
            DirKind::Baseline(AppendixA::SkylakeQuirk),
            Fault::SkipQuirkInvalidation,
            |v| matches!(v, Violation::Inclusion(..)),
        ),
    ]
}

/// The canonical checker's counterexample for `cfg` at `threads` workers.
fn canonical_counterexample(cfg: ModelConfig, threads: usize) -> Counterexample {
    check_opt(
        cfg,
        &CheckOptions {
            canonicalize: true,
            threads,
        },
    )
    .violation
    .unwrap_or_else(|| panic!("{}/{:?}: fault not caught", cfg.kind.name(), cfg.fault))
}

/// The symmetry-reduced parallel checker finds each PR 3 seeded fault,
/// names the same invariant as the raw serial checker, and hands back a
/// trace that replays in original coordinates.
#[test]
fn canonical_checker_finds_seeded_faults_with_replayable_traces() {
    for (kind, fault, expected) in seeded_fault_cases() {
        let cfg = ModelConfig {
            fault,
            ..ModelConfig::quick(kind)
        };
        for threads in [1, 4] {
            let v = canonical_counterexample(cfg, threads);
            assert!(
                matches!(&v.failure, Failure::Invariant(x) if expected(x)),
                "{}/{fault:?}: wrong invariant: {}",
                kind.name(),
                v.invariant
            );
            assert_eq!(v.labels.len(), v.trace.len());
            assert_trace_replays(cfg, &v.labels, &v.state);
        }
    }
}

/// FNV-1a digest of each seeded-fault counterexample, in
/// [`seeded_fault_cases`] order: every label packed to one byte, then
/// the violating state packed little-endian. The labels and the state
/// are in original coordinates, so the digest pins the relabelings the
/// trace rebuild recovers, not only the canonical forms.
const COUNTEREXAMPLE_DIGESTS: [u64; 6] = [
    0x8f7d_374f_2c55_337a,
    0x8f76_6b4f_2c4f_6d28,
    0x8f7d_374f_2c55_337a,
    0xa4e6_5d4f_c986_1e93,
    0xcc81_ab7c_592e_8102,
    0x451a_a1b9_7886_0d65,
];

/// Replay and length leave the choice among equally short traces open;
/// the digest pins the exact labels and violating state, at every
/// thread count.
#[test]
fn canonical_counterexamples_are_pinned() {
    let got: Vec<Vec<u64>> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            seeded_fault_cases()
                .into_iter()
                .map(|(kind, fault, _)| {
                    let cfg = ModelConfig {
                        fault,
                        ..ModelConfig::quick(kind)
                    };
                    let v = canonical_counterexample(cfg, threads);
                    let mut h = FNV_BASIS;
                    fnv(&mut h, v.labels.iter().map(|&l| PackedLabel::encode(l).0));
                    fnv(&mut h, pack(&v.state).to_le_bytes());
                    h
                })
                .collect()
        })
        .collect();
    for (threads, digests) in [1, 2, 4].into_iter().zip(got) {
        assert_eq!(
            digests, COUNTEREXAMPLE_DIGESTS,
            "threads={threads}: a counterexample drifted"
        );
    }
}

/// Canonicalized faulted exploration reports a counterexample of the same
/// length as the raw serial checker — level-order BFS over orbits keeps
/// shortest-trace semantics.
#[test]
fn canonical_counterexamples_stay_shortest() {
    for kind in DirKind::ALL {
        let cfg = ModelConfig {
            fault: Fault::SkipWriteInvalidation,
            ..ModelConfig::quick(kind)
        };
        let serial = secdir_verif::check(cfg)
            .violation
            .unwrap_or_else(|| panic!("{}: serial misses the fault", kind.name()));
        let canon = check_opt(
            cfg,
            &CheckOptions {
                canonicalize: true,
                threads: 2,
            },
        )
        .violation
        .unwrap_or_else(|| panic!("{}: canonical misses the fault", kind.name()));
        assert_eq!(
            canon.trace.len(),
            serial.trace.len(),
            "{}: counterexample length diverged",
            kind.name()
        );
    }
}
