//! Online anomaly detection for [`crate::serve`]: the per-tenant oracle
//! audit and its cadence.
//!
//! The batch `inject` harness (PR 4) detects an injected fault by
//! calling [`Machine::verify`] after every access once the fault has
//! fired. A service cannot afford a full invariant sweep per access, so
//! the audit here runs at two deterministic trigger points, both in
//! virtual time:
//!
//! * **armed cadence** — once a tenant's armed [`crate::FaultPlan`] has
//!   fired ([`Machine::fault_fired`]), the tenant is swept at the end of
//!   every tick until the violation is found. A fired fault corrupts
//!   directory state at once, so detection lags firing by at most one
//!   drain batch of accesses.
//! * **periodic cadence** — an unfired (or unarmed) tenant is swept
//!   whenever its retired count crosses a multiple of
//!   [`ORACLE_INTERVAL`], mirroring the `check`-feature oracle.
//!
//! A failed sweep records the rendered [`crate::OracleError`] on the
//! tenant; the parent module journals it in a `quarantined` record. The server
//! never crashes on a tenant's invariant violation — that is the whole
//! point.

use super::scheduler::Tenant;
use crate::ORACLE_INTERVAL;

/// End-of-tick audit for one tenant, run by its drain participant inside
/// the per-tenant `panics::contain`, right after the tenant's drain batch.
pub(crate) fn audit(rt: &mut Tenant) {
    if rt.quarantine_msg.is_some() {
        return;
    }
    let Some(m) = rt.machine.as_ref() else {
        return;
    };
    let fired = m.fault_fired().is_some();
    let crossed = rt.retired / ORACLE_INTERVAL != rt.last_verified / ORACLE_INTERVAL;
    if !(fired || crossed) {
        return;
    }
    rt.last_verified = rt.retired;
    if let Err(e) = m.verify() {
        rt.quarantine_msg = Some(e.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::scheduler::Phase;
    use crate::{DirectoryKind, FaultKind, FaultPlan, Machine, MachineConfig};
    use secdir_mem::{CoreId, LineAddr, SplitMix64};
    use std::collections::VecDeque;

    fn rt_with(machine: Machine) -> Tenant {
        Tenant {
            phase: Phase::Active,
            queues: vec![VecDeque::new()],
            machine: Some(machine),
            ..Tenant::default()
        }
    }

    #[test]
    fn clean_machine_is_never_quarantined() {
        let mut rt = rt_with(Machine::new(MachineConfig::small(2, DirectoryKind::SecDir)));
        for step in 0..4 {
            rt.retired = step * ORACLE_INTERVAL;
            audit(&mut rt);
            assert_eq!(rt.quarantine_msg, None);
        }
    }

    #[test]
    fn fired_fault_is_caught_at_the_next_audit() {
        let mut m = Machine::new(MachineConfig::small(4, DirectoryKind::Baseline));
        m.arm_fault(FaultPlan {
            kind: FaultKind::DropInvalidation,
            trigger: 64,
            core: CoreId(1),
        });
        let mut rng = SplitMix64::new(0xbeef);
        let mut rt = rt_with(m);
        for _ in 0..4096u64 {
            let core = CoreId(rng.next_below(4) as usize);
            let line = LineAddr::new(rng.next_below(512));
            let write = rng.chance(0.3);
            if let Some(m) = rt.machine.as_mut() {
                m.access(core, line, write);
            }
            rt.retired += 1;
            audit(&mut rt);
            if rt.quarantine_msg.is_some() {
                break;
            }
        }
        let fired = rt.machine.as_ref().and_then(Machine::fault_fired);
        assert!(fired.is_some(), "fault never fired");
        assert!(rt.quarantine_msg.is_some(), "fired fault never detected");
    }
}
