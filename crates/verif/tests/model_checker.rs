//! Smoke tests of the exhaustive model checker: the clean protocol passes
//! for every directory kind (with exact reachable-state counts pinned, so
//! an accidental change to the step relation or the model is loud), and
//! each seeded fault yields a counterexample trace. "No violation" also
//! certifies deadlock freedom: the checker reports any reachable state
//! with no enabled transitions as a violation in its own right.

use secdir_coherence::{AppendixA, DirWhere, EdEntry, Moesi, SharerSet, TdEntry, Violation};
use secdir_mem::CoreId;
use secdir_verif::canon::CanonTable;
use secdir_verif::checker::{
    check, check_opt_with_states, invariant_failure, CheckOptions, Failure,
};
use secdir_verif::model::{DirKind, Fault, ModelConfig, ModelState};
use secdir_verif::pack::unpack;

/// The quick configuration reaches exactly this many raw states per kind.
/// These counts are a fingerprint of the protocol: any behavioural change
/// to `secdir_coherence::step` (or the model's mirroring of the slices)
/// shifts them.
const EXPECTED_STATES: &[(DirKind, usize)] = &[
    (DirKind::Baseline(AppendixA::SkylakeQuirk), 562),
    (DirKind::Baseline(AppendixA::Fixed), 856),
    (DirKind::WayPartitioned, 8701),
    (DirKind::SecDir, 7564),
    (DirKind::VdOnly, 106),
];

/// Symmetry-orbit representatives the canonicalized exploration visits at
/// the quick configuration — pinned alongside the raw counts so a change
/// to the canonical form (packing layout, sort rule, partition action) is
/// as loud as a change to the protocol itself.
const EXPECTED_CANONICAL: &[(DirKind, usize)] = &[
    (DirKind::Baseline(AppendixA::SkylakeQuirk), 57),
    (DirKind::Baseline(AppendixA::Fixed), 82),
    (DirKind::WayPartitioned, 740),
    (DirKind::SecDir, 652),
    (DirKind::VdOnly, 14),
];

#[test]
fn clean_protocol_has_no_reachable_violations() {
    for &(kind, expected) in EXPECTED_STATES {
        let report = check(ModelConfig::quick(kind));
        if let Some(v) = &report.violation {
            panic!(
                "{}: unexpected violation `{}`\ntrace:\n  {}",
                kind.name(),
                v.invariant,
                v.trace.join("\n  ")
            );
        }
        assert_eq!(
            report.states,
            expected,
            "{}: reachable-state count drifted",
            kind.name()
        );
    }
}

/// The canonicalized exploration visits exactly the pinned number of
/// orbit representatives, and the raw count is *exactly* the sum of the
/// representatives' orbit sizes — the strongest consistency statement
/// between the two explorations: every raw state lies in exactly one
/// visited orbit, and every visited orbit lies inside the raw reachable
/// set. (The naive "canonical divides raw" only holds when every orbit is
/// full-size; states with nontrivial stabilizers make the ratio
/// fractional, e.g. 562/57 for the quick baseline.)
#[test]
fn canonical_exploration_matches_raw_by_orbit_sum() {
    for &(kind, expected_canon) in EXPECTED_CANONICAL {
        let cfg = ModelConfig::quick(kind);
        let opts = CheckOptions {
            canonicalize: true,
            threads: 2,
        };
        let (report, reps) = check_opt_with_states(cfg, &opts);
        assert!(report.violation.is_none(), "{}", kind.name());
        assert!(report.canonical);
        assert_eq!(
            report.states,
            expected_canon,
            "{}: canonical orbit count drifted",
            kind.name()
        );

        let raw = EXPECTED_STATES
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, n)| n)
            .expect("every kind has a pinned raw count");
        let table = CanonTable::new(cfg.cores, cfg.lines, kind == DirKind::WayPartitioned);
        assert!(
            expected_canon <= raw && raw <= expected_canon * table.group_order(),
            "{}: canonical count out of the possible range",
            kind.name()
        );
        let orbit_sum: usize = reps.iter().map(|&k| table.orbit_size(&unpack(k))).sum();
        assert_eq!(
            orbit_sum,
            raw,
            "{}: orbit sizes of the representatives must partition the raw set",
            kind.name()
        );
    }
}

#[test]
fn all_kinds_are_explored() {
    let reports = secdir_verif::check_all_quick();
    assert_eq!(reports.len(), DirKind::ALL.len());
    assert!(reports.iter().all(|r| r.violation.is_none()));
}

/// A lost write-invalidation breaks SWMR in every organization, and the
/// checker hands back a shortest labeled trace (two accesses suffice:
/// a fill followed by a remote write).
#[test]
fn skipped_write_invalidation_yields_swmr_counterexample() {
    for kind in DirKind::ALL {
        let cfg = ModelConfig {
            fault: Fault::SkipWriteInvalidation,
            ..ModelConfig::quick(kind)
        };
        let report = check(cfg);
        let v = report
            .violation
            .unwrap_or_else(|| panic!("{}: fault not caught", kind.name()));
        assert!(
            matches!(v.failure, Failure::Invariant(Violation::Swmr(..))),
            "{}: wrong invariant: {}",
            kind.name(),
            v.invariant
        );
        assert_eq!(
            v.trace.len(),
            2,
            "{}: BFS must find the 2-step trace",
            kind.name()
        );
        assert!(
            v.trace.iter().any(|step| step.contains("write")),
            "{}: trace must contain the offending write: {:?}",
            kind.name(),
            v.trace
        );
    }
}

/// Leaking VD entries on the ④ consolidation is a SecDir-only bug: the
/// other kinds never take that path, so only SecDir reports a violation —
/// and it is exactly the TD/VD aliasing invariant.
#[test]
fn leaked_vd_on_consolidation_yields_aliasing_counterexample() {
    for kind in DirKind::ALL {
        let cfg = ModelConfig {
            fault: Fault::LeakVdOnConsolidate,
            ..ModelConfig::quick(kind)
        };
        let report = check(cfg);
        if kind == DirKind::SecDir {
            let v = report.violation.expect("secdir must catch the VD leak");
            assert!(
                matches!(
                    v.failure,
                    Failure::Invariant(Violation::VdAliasing(_, _, DirWhere::Td { .. }, _))
                ),
                "wrong invariant: {}",
                v.invariant
            );
            assert!(!v.trace.is_empty());
        } else {
            assert!(
                report.violation.is_none(),
                "{}: fault path unreachable but violation reported",
                kind.name()
            );
        }
    }
}

/// Dropping the Appendix-A quirk invalidation orphans the single sharer's
/// copy — reachable only under the SkylakeQuirk baseline, and caught as a
/// directory-inclusion violation.
#[test]
fn skipped_quirk_invalidation_yields_inclusion_counterexample() {
    for kind in DirKind::ALL {
        let cfg = ModelConfig {
            fault: Fault::SkipQuirkInvalidation,
            ..ModelConfig::quick(kind)
        };
        let report = check(cfg);
        if kind == DirKind::Baseline(AppendixA::SkylakeQuirk) {
            let v = report
                .violation
                .expect("quirk baseline must catch the fault");
            assert!(
                matches!(v.failure, Failure::Invariant(Violation::Inclusion(..))),
                "wrong invariant: {}",
                v.invariant
            );
        } else {
            assert!(
                report.violation.is_none(),
                "{}: fault path unreachable but violation reported",
                kind.name()
            );
        }
    }
}

/// A slightly larger geometry still explores cleanly for every kind —
/// guards against invariants that only hold at the quick size.
#[test]
fn three_core_configuration_is_clean() {
    for kind in DirKind::ALL {
        let cfg = ModelConfig {
            cores: 3,
            lines: 3,
            l2_capacity: 2,
            ed_capacity: 2,
            td_capacity: 1,
            vd_capacity: 1,
            kind,
            fault: Fault::None,
        };
        let report = check(cfg);
        if let Some(v) = &report.violation {
            panic!(
                "{}: violation at 3 cores: {}\ntrace:\n  {}",
                kind.name(),
                v.invariant,
                v.trace.join("\n  ")
            );
        }
    }
}

/// Every rule of the shared invariant set, broken on a hand-built model
/// state (line 0: the two cores' states, then its ED, TD and VD), is named
/// by its own `Violation` variant — so a rule dropped from `check_line`
/// fails here.
#[test]
fn each_broken_rule_is_named() {
    use Moesi::{Invalid as I, Modified as M, Owned as O, Shared as S};
    let set = |cores: &[usize]| cores.iter().map(|&c| CoreId(c)).collect::<SharerSet>();
    let ed = |cores: &[usize]| {
        let sharers = set(cores);
        Some((0, EdEntry { sharers }))
    };
    let td = |cores: &[usize], has_data| {
        let (sharers, llc_dirty) = (set(cores), false);
        Some((
            0,
            TdEntry {
                sharers,
                has_data,
                llc_dirty,
            },
        ))
    };
    let (quirk, fixed) = (
        DirKind::Baseline(AppendixA::SkylakeQuirk),
        DirKind::Baseline(AppendixA::Fixed),
    );
    type Expected = fn(&Violation) -> bool;
    type Case = (
        DirKind,
        [Moesi; 2],
        Option<(u8, EdEntry)>,
        Option<(u8, TdEntry)>,
        &'static [usize],
        Expected,
    );
    let cases: [Case; 9] = [
        (quirk, [M, S], ed(&[0, 1]), None, &[], |v| {
            matches!(v, Violation::Swmr(..))
        }),
        (quirk, [O, O], ed(&[0, 1]), None, &[], |v| {
            matches!(v, Violation::OwnerCoexistence(..))
        }),
        (quirk, [S, S], ed(&[]), None, &[], |v| {
            matches!(v, Violation::EdNoSharers(..))
        }),
        (quirk, [S, S], ed(&[0, 1]), td(&[0, 1], true), &[], |v| {
            matches!(v, Violation::EdAndTd(..))
        }),
        (DirKind::SecDir, [S, S], None, td(&[0], true), &[1], |v| {
            matches!(v, Violation::VdAliasing(_, _, DirWhere::Td { .. }, _))
        }),
        (quirk, [S, S], None, td(&[0, 1], false), &[], |v| {
            matches!(v, Violation::DatalessTd(..))
        }),
        (fixed, [I, I], None, td(&[], false), &[], |v| {
            matches!(v, Violation::EmptyTd(..))
        }),
        (quirk, [S, S], ed(&[0]), None, &[], |v| {
            matches!(v, Violation::Inclusion(_, _, (CoreId(1), S), Some(_)))
        }),
        (quirk, [S, I], ed(&[0, 1]), None, &[], |v| {
            matches!(v, Violation::StaleSharer(_, _, CoreId(1)))
        }),
    ];
    for (kind, states, ed, td, vd, expected) in cases {
        let mut s = ModelState::initial();
        s.set_cache(0, 0, states[0]);
        s.set_cache(1, 0, states[1]);
        s.set_ed(0, ed);
        s.set_td(0, td);
        s.set_vd(0, set(vd));
        let got = invariant_failure(&s, &ModelConfig::quick(kind));
        assert!(
            matches!(&got, Some(Failure::Invariant(v)) if expected(v)),
            "{} {states:?}: {got:?}",
            kind.name()
        );
    }
}
