//! Bit-reproducibility of the parallel frontier BFS: the thread count is
//! a pure performance knob. Every report field that describes the
//! exploration — state count, transition count, level count, violation
//! and its trace — must be identical at 1, 2, 4, and 8 workers, on clean
//! and on faulted models, with and without canonicalization. The
//! discovery order itself is pinned by a digest of the visited states.

use secdir_verif::checker::{check, check_opt, check_opt_with_states, CheckOptions};
use secdir_verif::model::{DirKind, Fault, ModelConfig};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// FNV-1a digest of the packed states in discovery order, each
/// little-endian.
fn order_digest(states: &[u128]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in states.iter().flat_map(|s| s.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(order_digest, levels)` of every kind at the quick geometry, in
/// `DirKind::ALL` order: uncanonicalized, then canonicalized.
const QUICK_ORDER: [[(u64, usize); 5]; 2] = [
    [
        (0xcd8e_ec75_e4b9_d194, 7),
        (0x60dc_d90e_5ae6_8804, 7),
        (0xe7d2_9ac5_5742_8504, 9),
        (0x753f_4d96_ba2f_b67c, 9),
        (0xbfaa_db33_caaa_2cea, 4),
    ],
    [
        (0xc39f_da85_7d15_4b4d, 7),
        (0x42e0_904f_1086_91ac, 7),
        (0x5c11_a9c0_029a_46dc, 9),
        (0x0ff1_9ad0_290a_9c52, 9),
        (0xa58d_00e0_b4b4_11b8, 4),
    ],
];

/// Counts alone would not notice two successors trading places; the
/// digest of the state sequence does, and so would the parent records
/// and counterexample traces that follow from it.
#[test]
fn discovery_order_is_pinned_at_quick_at_every_thread_count() {
    for threads in THREAD_COUNTS {
        let got: Vec<[(u64, usize); 5]> = [false, true]
            .into_iter()
            .map(|canonicalize| {
                let opts = CheckOptions {
                    canonicalize,
                    threads,
                };
                DirKind::ALL.map(|kind| {
                    let (report, states) = check_opt_with_states(ModelConfig::quick(kind), &opts);
                    (order_digest(&states), report.levels)
                })
            })
            .collect();
        assert_eq!(
            got, QUICK_ORDER,
            "threads={threads}: discovery order drifted"
        );
    }
}

#[test]
fn clean_exploration_is_identical_at_every_thread_count() {
    for kind in DirKind::ALL {
        let cfg = ModelConfig::quick(kind);
        for canonicalize in [false, true] {
            let baseline = check_opt(
                cfg,
                &CheckOptions {
                    canonicalize,
                    threads: 1,
                },
            );
            assert!(baseline.violation.is_none(), "{}", kind.name());
            for threads in &THREAD_COUNTS[1..] {
                let report = check_opt(
                    cfg,
                    &CheckOptions {
                        canonicalize,
                        threads: *threads,
                    },
                );
                assert_eq!(
                    report.states,
                    baseline.states,
                    "{} canonicalize={canonicalize} threads={threads}: state count",
                    kind.name()
                );
                assert_eq!(
                    report.transitions,
                    baseline.transitions,
                    "{} canonicalize={canonicalize} threads={threads}: transition count",
                    kind.name()
                );
                assert_eq!(
                    report.levels,
                    baseline.levels,
                    "{} canonicalize={canonicalize} threads={threads}: level count",
                    kind.name()
                );
                assert!(report.violation.is_none());
            }
        }
    }
}

/// On a faulted model every thread count reports the *same* violation:
/// same invariant text, same trace rendering — and the trace is exactly
/// as short as the raw serial checker's (2 steps for the seeded SWMR
/// fault: a fill and the remote write whose invalidation was dropped).
#[test]
fn faulted_exploration_reports_one_violation_at_every_thread_count() {
    for kind in DirKind::ALL {
        let cfg = ModelConfig {
            fault: Fault::SkipWriteInvalidation,
            ..ModelConfig::quick(kind)
        };
        let serial = check(cfg)
            .violation
            .unwrap_or_else(|| panic!("{}: serial misses the fault", kind.name()));
        assert_eq!(serial.trace.len(), 2, "{}", kind.name());

        let baseline = check_opt(
            cfg,
            &CheckOptions {
                canonicalize: true,
                threads: 1,
            },
        );
        let base_v = baseline
            .violation
            .as_ref()
            .unwrap_or_else(|| panic!("{}: 1-thread misses the fault", kind.name()));
        assert_eq!(base_v.trace.len(), serial.trace.len(), "{}", kind.name());

        for threads in &THREAD_COUNTS[1..] {
            let report = check_opt(
                cfg,
                &CheckOptions {
                    canonicalize: true,
                    threads: *threads,
                },
            );
            assert_eq!(
                report.states,
                baseline.states,
                "{} threads={threads}: state count",
                kind.name()
            );
            assert_eq!(
                report.transitions,
                baseline.transitions,
                "{} threads={threads}: transition count",
                kind.name()
            );
            let v = report
                .violation
                .unwrap_or_else(|| panic!("{} threads={threads}: fault not caught", kind.name()));
            assert_eq!(v.invariant, base_v.invariant, "{}", kind.name());
            assert_eq!(v.trace, base_v.trace, "{}", kind.name());
            assert_eq!(v.state, base_v.state, "{}", kind.name());
        }
    }
}
