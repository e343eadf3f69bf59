//! Deterministic runtime fault injection, proven against the oracle.
//!
//! The `secdir_verif` model checker proves the protocol invariants by
//! exhaustive search *and* re-proves its own teeth by checking seeded
//! protocol bugs ([`secdir_verif::Fault`]) are caught. This module closes
//! the same loop on the *production* machine: a [`FaultPlan`] arms one
//! deterministic hardware bug — from the same repertoire the model checker
//! uses — on a live [`Machine`], and [`run_injection`] proves the runtime
//! invariant oracle ([`Machine::verify`]) flags it within one
//! [`ORACLE_INTERVAL`].
//!
//! Faults come in two shapes:
//!
//! * **Behavioral** ([`FaultKind::DropInvalidation`],
//!   [`FaultKind::SkipQuirkInvalidation`]): the machine silently fails to
//!   deliver an invalidation batch, emulating a lost coherence message.
//!   They fire on the first matching batch at or after the trigger.
//! * **Corruption** ([`FaultKind::LeakVdOnConsolidate`],
//!   [`FaultKind::FlipSharerBit`]): directory state is mutated in place
//!   through the `DirSlice` `fault_*` hooks, emulating a bit flip or the
//!   model checker's VD-leak protocol bug. They apply on the first access
//!   at or after the trigger where a suitable target exists, and retry
//!   every access until they land.
//!
//! Everything is deterministic: same plan, same config, same workload →
//! same firing access and same detection access, which is what lets the
//! test suite pin the full detection table.
//!
//! [`ORACLE_INTERVAL`]: crate::ORACLE_INTERVAL
//! [`secdir_verif::Fault`]: ../secdir_verif/enum.Fault.html

use secdir_coherence::{InvalidationCause, Invalidations};
use secdir_mem::json::Writer;
use secdir_mem::{CoreId, LineAddr, SplitMix64};

use crate::config::{DirectoryKind, MachineConfig};
use crate::machine::Machine;
use crate::oracle::ORACLE_INTERVAL;
use crate::panics;

/// The injectable hardware-bug repertoire (mirrors [`secdir_verif::Fault`]
/// on the abstract model).
///
/// [`secdir_verif::Fault`]: ../secdir_verif/enum.Fault.html
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently drop one whole invalidation batch (a lost coherence
    /// message). The runtime analogue of the model's
    /// `SkipWriteInvalidation`.
    DropInvalidation,
    /// Drop the first batch carrying an Appendix-A quirk invalidation
    /// ([`InvalidationCause::EdToTdQuirk`]): the ED→TD migration happens
    /// but the private copy survives. Only the quirky baseline emits
    /// these.
    SkipQuirkInvalidation,
    /// Raw-insert a line into the target core's VD bank while its live
    /// ED/TD entry stays in place — the model's `LeakVdOnConsolidate`
    /// aliasing bug, replayed on the production cuckoo banks.
    LeakVdOnConsolidate,
    /// Flip the target core's presence bit on a directory entry: clearing
    /// a live bit loses track of a cached copy (inclusion violation);
    /// setting a dead one fabricates a stale sharer.
    FlipSharerBit,
}

impl FaultKind {
    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::DropInvalidation,
        FaultKind::SkipQuirkInvalidation,
        FaultKind::LeakVdOnConsolidate,
        FaultKind::FlipSharerBit,
    ];

    /// The stable CLI name of this fault.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DropInvalidation => "drop-invalidation",
            FaultKind::SkipQuirkInvalidation => "skip-quirk-invalidation",
            FaultKind::LeakVdOnConsolidate => "leak-vd-on-consolidate",
            FaultKind::FlipSharerBit => "flip-sharer-bit",
        }
    }

    /// Parses a [`FaultKind::name`] string.
    ///
    /// # Errors
    ///
    /// Returns a message listing the known names on an unknown input.
    pub fn parse(s: &str) -> Result<Self, String> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown fault kind `{s}` (known: {})",
                    FaultKind::ALL.map(|k| k.name()).join(", ")
                )
            })
    }

    /// Whether this fault has a target in the given directory
    /// organization. Dropped invalidations and sharer-bit flips apply
    /// everywhere; the quirk can only be skipped where it exists (the
    /// quirky baseline); a VD leak needs both a VD and an ED/TD to alias
    /// against.
    pub fn applicable_to(self, kind: DirectoryKind) -> bool {
        match self {
            FaultKind::DropInvalidation | FaultKind::FlipSharerBit => true,
            FaultKind::SkipQuirkInvalidation => kind == DirectoryKind::Baseline,
            FaultKind::LeakVdOnConsolidate => {
                matches!(kind, DirectoryKind::SecDir | DirectoryKind::SecDirPlainVd)
            }
        }
    }
}

/// One armed fault: what to inject, when, and against which core.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// The bug to inject.
    pub kind: FaultKind,
    /// Access count (machine-wide, counted from arming) at which the
    /// fault becomes eligible to fire.
    pub trigger: u64,
    /// The core whose directory state is targeted (corruption faults
    /// only; behavioral faults drop whole batches regardless of core).
    pub core: CoreId,
}

/// Live state of an armed [`FaultPlan`] inside a [`Machine`].
#[derive(Clone, Copy, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    accesses: u64,
    fired: Option<u64>,
}

impl FaultState {
    /// Whether an armed behavioral fault eats this invalidation batch.
    /// Called from the shared response-application path; marks the fault
    /// fired when it does.
    pub(crate) fn drops_batch(&mut self, invalidations: &Invalidations) -> bool {
        if self.fired.is_some() || self.accesses < self.plan.trigger {
            return false;
        }
        let eats = match self.plan.kind {
            FaultKind::DropInvalidation => !invalidations.is_empty(),
            FaultKind::SkipQuirkInvalidation => invalidations
                .iter()
                .any(|i| i.cause == InvalidationCause::EdToTdQuirk),
            FaultKind::LeakVdOnConsolidate | FaultKind::FlipSharerBit => false,
        };
        if eats {
            self.fired = Some(self.accesses);
        }
        eats
    }
}

impl Machine {
    /// Arms `plan` on this machine. The fault fires once, on the first
    /// eligible access at or after `plan.trigger`; re-arming replaces any
    /// previous plan.
    pub fn arm_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultState {
            plan,
            accesses: 0,
            fired: None,
        });
    }

    /// The access count at which the armed fault fired, if it has.
    pub fn fault_fired(&self) -> Option<u64> {
        self.fault.as_ref().and_then(|f| f.fired)
    }

    /// One injection step: advances the armed fault's access counter by
    /// `retired` and attempts a pending corruption fault. [`Machine::access`]
    /// calls it with one access; the sliced engine (`crate::sliced`) with a
    /// whole epoch, at its barrier, so there the trigger granularity is one
    /// epoch. Determinism across slice-thread counts is unaffected: the
    /// epoch schedule does not depend on the thread count. Behavioral
    /// faults fire from [`FaultState::drops_batch`] on the shared
    /// invalidation path instead.
    pub(crate) fn fault_step(&mut self, retired: u64) {
        let (kind, core, pending) = {
            let Some(f) = self.fault.as_mut() else { return };
            f.accesses += retired;
            let pending = f.fired.is_none() && f.accesses >= f.plan.trigger;
            (f.plan.kind, f.plan.core, pending)
        };
        if !pending {
            return;
        }
        let applied = match kind {
            FaultKind::DropInvalidation | FaultKind::SkipQuirkInvalidation => false,
            FaultKind::LeakVdOnConsolidate => self.fault_try_leak_vd(core),
            FaultKind::FlipSharerBit => self.fault_try_flip(core),
        };
        if applied {
            if let Some(f) = self.fault.as_mut() {
                f.fired = Some(f.accesses);
            }
        }
    }

    /// Replays the VD-leak bug: the first line the target core holds
    /// whose home slice still has a live ED/TD entry gets raw-inserted
    /// into that slice's VD bank (ED/VD aliasing).
    fn fault_try_leak_vd(&mut self, core: CoreId) -> bool {
        let held: Vec<LineAddr> = self.cores[core.0].l2_iter().map(|(l, _)| l).collect();
        for line in held {
            let slice = self.slice_of(line);
            if self.slices[slice.0].fault_leak_vd(line, core) {
                return true;
            }
        }
        false
    }

    /// Flips the target core's presence bit somewhere it hurts: first
    /// preference is clearing the bit on a line the core actually holds
    /// (the directory loses a live copy); failing that, setting the bit
    /// on an entry that does not list the core (a stale sharer).
    fn fault_try_flip(&mut self, core: CoreId) -> bool {
        let held: Vec<LineAddr> = self.cores[core.0].l2_iter().map(|(l, _)| l).collect();
        for line in held {
            let slice = self.slice_of(line);
            if self.slices[slice.0].fault_flip_sharer(line, core) {
                return true;
            }
        }
        let mut candidates: Vec<(usize, LineAddr)> = Vec::new();
        for (s, slice) in self.slices.iter().enumerate() {
            slice.for_each_entry(&mut |line, sharers| {
                if !sharers.contains(core) {
                    candidates.push((s, line));
                }
            });
        }
        for (s, line) in candidates {
            if self.slices[s].fault_flip_sharer(line, core) {
                return true;
            }
        }
        false
    }
}

/// The result of one [`run_injection`] experiment.
#[derive(Clone, Copy, Debug)]
pub struct InjectOutcome {
    /// Directory organization the fault ran against.
    pub kind: DirectoryKind,
    /// The injected fault.
    pub fault: FaultKind,
    /// Access at which the fault fired (`None`: never found a target).
    pub fired_at: Option<u64>,
    /// Access after which [`Machine::verify`] first failed (`None`: the
    /// corruption went undetected for the whole run).
    pub detected_at: Option<u64>,
    /// Total accesses driven.
    pub accesses: u64,
}

impl InjectOutcome {
    /// Whether the oracle caught the fault within one
    /// [`ORACLE_INTERVAL`] of it firing — the
    /// detection guarantee the `check` feature's periodic sweep provides.
    pub fn detected_in_time(&self) -> bool {
        match (self.fired_at, self.detected_at) {
            (Some(f), Some(d)) => d >= f && d - f <= ORACLE_INTERVAL,
            _ => false,
        }
    }

    /// One fixed-order JSON object describing this outcome (the
    /// `secdir-sim inject` report format).
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.obj();
        w.key("directory").str(self.kind.name());
        w.key("fault").str(self.fault.name());
        w.key("fired_at").opt_u64(self.fired_at);
        w.key("detected_at").opt_u64(self.detected_at);
        w.key("accesses").u64(self.accesses);
        w.key("detected_in_time").bool(self.detected_in_time());
        w.end_obj();
        out
    }
}

/// Default firing trigger for [`run_injection`]: late enough that the
/// small machine is warm (every corruption fault has a target on its
/// first eligible access), early enough that runs stay cheap.
pub const DEFAULT_TRIGGER: u64 = 3000;

/// Drives a deterministic random workload against a small `kind` machine
/// with `fault` armed at `trigger`, verifying after every post-trigger
/// access, and reports when the fault fired and when the oracle caught
/// it.
///
/// The run also works under `--features check`: the periodic oracle can
/// only trip at an [`ORACLE_INTERVAL`] boundary,
/// and the explicit per-access [`Machine::verify`] below detects the
/// violation strictly earlier, so the armed sweep never fires first. A
/// panic out of [`Machine::access`] is nonetheless treated as detection,
/// as a belt-and-braces fallback.
pub fn run_injection(kind: DirectoryKind, fault: FaultKind, trigger: u64) -> InjectOutcome {
    let cores = 4;
    let mut m = Machine::new(MachineConfig::small(cores, kind));
    m.arm_fault(FaultPlan {
        kind: fault,
        trigger,
        core: CoreId(1),
    });
    // Address space sized past the directory capacity of the small
    // config, so ED conflicts, TD migrations, and quirk invalidations
    // all occur naturally.
    let lines = 4096;
    let mut rng = SplitMix64::new(0xfa0175eed ^ trigger);
    let max_accesses = trigger + 2 * ORACLE_INTERVAL;
    let mut detected_at = None;
    let mut accesses = 0;
    while accesses < max_accesses {
        let core = CoreId(rng.next_below(cores as u64) as usize);
        let line = LineAddr::new(rng.next_below(lines));
        let write = rng.chance(0.3);
        let outcome = panics::contain(|| m.access(core, line, write));
        accesses += 1;
        if outcome.is_err() {
            detected_at = Some(accesses);
            break;
        }
        if m.fault_fired().is_some() && m.verify().is_err() {
            detected_at = Some(accesses);
            break;
        }
    }
    InjectOutcome {
        kind,
        fault,
        fired_at: m.fault_fired(),
        detected_at,
        accesses,
    }
}

/// Runs the full applicable fault × directory-kind matrix (the
/// `secdir-sim inject` workhorse).
pub fn run_inject_matrix(trigger: u64) -> Vec<InjectOutcome> {
    let mut out = Vec::new();
    for kind in DirectoryKind::ALL {
        for fault in FaultKind::ALL {
            if fault.applicable_to(kind) {
                out.push(run_injection(kind, fault, trigger));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for f in FaultKind::ALL {
            assert_eq!(FaultKind::parse(f.name()), Ok(f));
        }
        assert!(FaultKind::parse("nope").is_err());
    }

    #[test]
    fn applicability_matrix_is_pinned() {
        let applicable: Vec<(&str, &str)> = DirectoryKind::ALL
            .into_iter()
            .flat_map(|k| {
                FaultKind::ALL
                    .into_iter()
                    .filter(move |f| f.applicable_to(k))
                    .map(move |f| (k.name(), f.name()))
            })
            .collect();
        assert_eq!(applicable.len(), 17);
        // The quirk can only be skipped where it exists.
        assert!(applicable.contains(&("baseline", "skip-quirk-invalidation")));
        assert!(!applicable.contains(&("baseline-fixed", "skip-quirk-invalidation")));
        // A VD leak needs both a VD and an ED/TD to alias against.
        assert!(applicable.contains(&("secdir", "leak-vd-on-consolidate")));
        assert!(!applicable.contains(&("vd-only", "leak-vd-on-consolidate")));
    }

    #[test]
    fn unarmed_machine_runs_clean() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::SecDir));
        let mut rng = SplitMix64::new(7);
        for _ in 0..2000 {
            let core = CoreId(rng.next_below(2) as usize);
            m.access(core, LineAddr::new(rng.next_below(256)), rng.chance(0.3));
        }
        assert_eq!(m.fault_fired(), None);
        m.verify().unwrap();
    }
}
