//! The runtime invariant oracle, [`Machine::verify`]: the storage checks
//! of every private cache and directory slice ([`SetAssoc::check_storage`]
//! and friends, through [`DirSlice::validate`]), then the protocol
//! invariants over every line a private L2 holds and every line a
//! directory entry names. The invariants are written once, in
//! [`check_line`], which the model checker (`secdir_verif`) runs too. The
//! first failure is a typed [`OracleError`]; its `Display` is the text
//! `serve` journals. A cold path, allocation-free on success, so the
//! `tests/alloc_free.rs` steady-state proof holds with the oracle armed.
//!
//! The `check` cargo feature arms a periodic sweep: every
//! [`ORACLE_INTERVAL`] accesses the whole walk runs and panics on the
//! first violation (`cargo test --features check` in CI).
//!
//! [`SetAssoc::check_storage`]: secdir_cache::SetAssoc::check_storage
//! [`DirSlice::validate`]: secdir_coherence::DirSlice::validate
//! [`check_line`]: secdir_coherence::check_line

use std::fmt;

use secdir_coherence::{check_line, LineView, Moesi, Violation};
use secdir_mem::{CoreId, LineAddr};

use crate::machine::Machine;
use crate::{DirectoryKind, MachineConfig};

/// Accesses between two periodic oracle sweeps under the `check` feature.
///
/// Small enough that a corrupted structure is caught within the test that
/// corrupted it — and in particular smaller than the 10k-access measured
/// window of `tests/alloc_free.rs`, so the steady-state sweep is itself
/// proven allocation-free — yet large enough that `--features check` test
/// runs stay affordable (the walk is O(total resident lines × cores)).
pub const ORACLE_INTERVAL: u64 = 8192;

/// Per-machine state of the periodic sweep (one counter; lives in
/// [`Machine`] only when the `check` feature is on).
#[cfg(feature = "check")]
#[derive(Clone, Debug, Default)]
pub(crate) struct OracleState {
    accesses: u64,
}

/// The first failure [`Machine::verify`] finds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleError {
    /// A private cache or directory slice failed its storage check.
    Storage(String),
    /// A line broke a protocol invariant.
    Invariant(Violation),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Storage(e) => f.write_str(e),
            OracleError::Invariant(v) => v.fmt(f),
        }
    }
}

impl std::error::Error for OracleError {}

impl Machine {
    /// Runs the full invariant oracle (see the module docs).
    /// Allocation-free when all invariants hold.
    ///
    /// # Errors
    ///
    /// Returns the first failure found.
    pub fn verify(&self) -> Result<(), OracleError> {
        for (i, caches) in self.cores.iter().enumerate() {
            caches
                .check_storage()
                .map_err(|e| OracleError::Storage(format!("core {i}: {e}")))?;
        }
        for (s, slice) in self.slices.iter().enumerate() {
            slice
                .validate()
                .map_err(|e| OracleError::Storage(format!("slice {s}: {e}")))?;
        }
        // Each line is checked once. A held line is checked from the
        // lowest core holding it. After that every held line is clean, so
        // its entries list exactly its holders: an entry none of whose
        // listed cores holds a copy names a line no core holds.
        let mut found = Ok(());
        let mut check = |line, holder| {
            if found.is_ok() {
                found = self.check_line(line, holder);
            }
        };
        for (i, caches) in self.cores.iter().enumerate() {
            caches.l2_iter().for_each(|(line, _)| check(line, Some(i)));
        }
        let held = |line, c: CoreId| self.cores.get(c.0).is_some_and(|k| k.l2_contains(line));
        for slice in &self.slices {
            slice.for_each_entry(&mut |line, sharers| {
                if !sharers.iter().any(|c| held(line, c)) {
                    check(line, None);
                }
            });
        }
        found.map_err(OracleError::Invariant)
    }

    /// Builds `line`'s [`LineView`] and checks it. `holder` is the core
    /// whose L2 walk found the line (a line a lower core holds too was
    /// checked from there), or `None` for a line no core holds.
    fn check_line(&self, line: LineAddr, holder: Option<usize>) -> Result<(), Violation> {
        let mut holders = [Moesi::Invalid; MachineConfig::MAX_CORES];
        if let Some(i) = holder {
            for (state, caches) in holders.iter_mut().zip(&self.cores) {
                *state = caches.state(line);
            }
            if holders[..i].iter().any(|s| s.is_valid()) {
                return Ok(());
            }
        }
        let slice = self.slice_of(line).0;
        check_line(&LineView {
            line,
            slice,
            holders: &holders[..self.cores.len()],
            dir: self.slices[slice].parts(line),
            quirk: self.config().directory == DirectoryKind::Baseline,
        })
    }

    /// One periodic-oracle step under the `check` feature: advances the
    /// access counter by `retired` — one access from [`Machine::access`],
    /// a whole epoch from the sliced engine's barrier, where the machine
    /// is whole and coherent — and sweeps when an [`ORACLE_INTERVAL`]
    /// boundary was crossed.
    ///
    /// # Panics
    ///
    /// Panics on the first invariant violation the sweep finds.
    #[cfg(feature = "check")]
    #[inline]
    pub(crate) fn oracle_step(&mut self, retired: u64) {
        let before = self.oracle.accesses;
        self.oracle.accesses += retired;
        if self.oracle.accesses / ORACLE_INTERVAL > before / ORACLE_INTERVAL {
            if let Err(e) = self.verify() {
                panic!(
                    "invariant oracle tripped after {} accesses: {e}",
                    self.oracle.accesses
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secdir_coherence::{
        AccessKind, DataSource, DirHitKind, DirParts, DirResponse, DirSlice, DirSliceStats,
        DirWhere, EdEntry, Invalidations, SharerSet, TdEntry,
    };
    use Moesi::{Invalid as I, Modified as M, Owned as O, Shared as S};

    /// A slice that reports one forged entry for `line` and nothing else.
    struct Forged {
        line: LineAddr,
        parts: DirParts,
        stats: DirSliceStats,
    }

    impl DirSlice for Forged {
        fn request(&mut self, _: LineAddr, _: CoreId, _: AccessKind) -> DirResponse {
            DirResponse::new(DataSource::Memory, DirHitKind::Miss)
        }
        fn l2_evict(&mut self, _: LineAddr, _: CoreId, _: bool) -> Invalidations {
            Invalidations::new()
        }
        fn parts(&self, line: LineAddr) -> DirParts {
            if line == self.line {
                self.parts
            } else {
                DirParts::default()
            }
        }
        fn stats(&self) -> &DirSliceStats {
            &self.stats
        }
        fn validate(&self) -> Result<(), String> {
            Ok(())
        }
        fn for_each_entry(&self, f: &mut dyn FnMut(LineAddr, SharerSet)) {
            if let Some(w) = self.parts.locate() {
                f(self.line, w.sharers());
            }
        }
    }

    fn set(cores: &[usize]) -> SharerSet {
        cores.iter().map(|&c| CoreId(c)).collect()
    }

    fn ed(cores: &[usize]) -> DirParts {
        let sharers = set(cores);
        DirParts {
            ed: Some(EdEntry { sharers }),
            ..DirParts::default()
        }
    }

    fn td(cores: &[usize], has_data: bool) -> DirParts {
        let (sharers, llc_dirty) = (set(cores), false);
        DirParts {
            td: Some(TdEntry {
                sharers,
                has_data,
                llc_dirty,
            }),
            ..DirParts::default()
        }
    }

    /// Every rule of the shared invariant set, broken on a live machine —
    /// caches set to `states`, the home slice forged to report `dir` — is
    /// named by its own variant through the machine's per-line view.
    #[test]
    fn each_broken_rule_is_named_through_the_machine_view() {
        let both = DirParts {
            td: td(&[0, 1], true).td,
            ..ed(&[0, 1])
        };
        let aliased = DirParts {
            vd: set(&[1]),
            ..ed(&[0, 1])
        };
        type Expected = fn(&Violation) -> bool;
        let cases: [(DirectoryKind, [Moesi; 2], DirParts, Expected); 9] = [
            (DirectoryKind::Baseline, [M, S], ed(&[0, 1]), |v| {
                matches!(v, Violation::Swmr(..))
            }),
            (DirectoryKind::Baseline, [O, O], ed(&[0, 1]), |v| {
                matches!(v, Violation::OwnerCoexistence(..))
            }),
            (DirectoryKind::Baseline, [S, S], ed(&[]), |v| {
                matches!(v, Violation::EdNoSharers(..))
            }),
            (DirectoryKind::Baseline, [S, S], both, |v| {
                matches!(v, Violation::EdAndTd(..))
            }),
            (DirectoryKind::SecDir, [S, S], aliased, |v| {
                matches!(v, Violation::VdAliasing(_, _, DirWhere::Ed(_), _))
            }),
            (DirectoryKind::Baseline, [S, S], td(&[0, 1], false), |v| {
                matches!(v, Violation::DatalessTd(..))
            }),
            (DirectoryKind::BaselineFixed, [S, S], td(&[], false), |v| {
                matches!(v, Violation::EmptyTd(..))
            }),
            (DirectoryKind::Baseline, [S, S], ed(&[0]), |v| {
                matches!(v, Violation::Inclusion(_, _, (CoreId(1), S), Some(_)))
            }),
            (DirectoryKind::Baseline, [S, I], ed(&[0, 1]), |v| {
                matches!(v, Violation::StaleSharer(_, _, CoreId(1)))
            }),
        ];
        let line = LineAddr::new(0x40);
        for (kind, states, dir, expected) in cases {
            let mut m = Machine::new(MachineConfig::small(2, kind));
            for (core, &state) in states.iter().enumerate() {
                if state != I {
                    m.access(CoreId(core), line, false);
                }
            }
            for (core, &state) in states.iter().enumerate() {
                m.cores[core].set_state(line, state);
            }
            let home = m.slice_of(line).0;
            m.slices[home] = Box::new(Forged {
                line,
                parts: dir,
                stats: DirSliceStats::default(),
            });
            let got = m.verify();
            assert!(
                matches!(&got, Err(OracleError::Invariant(v)) if expected(v)),
                "{kind:?} {states:?} {dir:?}: {got:?}"
            );
        }
    }
}
