//! Deterministic virtual-time tick scheduling for [`crate::serve`].
//!
//! Every server tick has three phases (driven by `run_serve` in the
//! parent module): **ingest** (serial, tenant-index order) pulls a
//! bounded batch from each tenant's bursty source into bounded per-core
//! queues, **drain** (parallel over chunks of tenants) retires a
//! bounded batch from each queue onto the tenant's [`Machine`], and
//! **emit** (serial) writes journal records. The functions here
//! implement the first two phases and are the per-access hot path of the
//! service.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.** How many references a tenant ingests and retires
//!   each tick depends only on the configuration, the tenant's seed
//!   (through the burst RNG) and queue occupancy — never on machine
//!   latencies, worker count, or host time. The whole schedule is a
//!   pure function of [`super::ServeConfig`], which is what makes the
//!   journal byte-identical across worker counts and resumes.
//! * **Zero steady-state allocation.** Queues are preallocated to their
//!   bound at admission; ingest and drain only move fixed-size
//!   [`QueuedRef`]s through them. `tests/alloc_free.rs` pins this.
//!
//! A tenant whose terminal record has already been replayed from a
//! resume journal runs as a *ghost*: same queues, same burst RNG, same
//! caps — but dummy references and no machine, so the schedule (and
//! with it every other tenant's backpressure) is reproduced exactly
//! without re-simulating work whose outcome is already on disk.

use crate::engine::AccessStream;
use crate::machine::Machine;
use secdir_mem::{CoreId, LineAddr, SplitMix64};
use std::collections::VecDeque;

/// One buffered reference: the two fields of an access the drain phase
/// replays into [`Machine::access`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct QueuedRef {
    /// Line address to touch.
    pub line: LineAddr,
    /// Write (true) or read (false).
    pub write: bool,
}

/// One tenant's service state, owned by the parent module's driver. The
/// driver fills `queues` during ingest; during the drain phase one
/// participant pops them and drives the machine (a spawned participant
/// receives the tenant by move, inside its chunk); the driver reads the
/// counters back during emission.
#[derive(Default)]
pub(crate) struct Tenant {
    /// Admission lifecycle: the drain phase touches only active tenants.
    pub phase: Phase,
    /// Terminal record already replayed from the journal: no machine,
    /// dummy references, counters only.
    pub ghost: bool,
    /// Per-core bounded reference queues, preallocated to the queue cap.
    pub queues: Vec<VecDeque<QueuedRef>>,
    /// The tenant's simulated machine (`None` for ghosts and before
    /// admission).
    pub machine: Option<Machine>,
    /// References retired (popped and replayed) so far.
    pub retired: u64,
    /// References the source wanted to enqueue but could not because a
    /// queue bound or the global bound was hit (backpressure, not loss:
    /// the source retries next on-tick).
    pub stalled: u64,
    /// Sum of simulated access latencies, in cycles.
    pub cycles: u64,
    /// References retired during the current tick (idle detection).
    pub drained_this_tick: u64,
    /// `retired` value at the last oracle sweep (periodic audit cadence).
    pub last_verified: u64,
    /// Panic captured from the tenant's stream or machine, if any.
    pub panic_msg: Option<String>,
    /// Invariant violation reported by the online oracle, if any.
    pub quarantine_msg: Option<String>,
}

/// Admission lifecycle of one tenant.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Waiting for a pool slot.
    #[default]
    Waiting,
    /// Admitted and being served.
    Active,
    /// Finished (any terminal status).
    Terminal,
}

/// Main-thread-only tenant source state: the reference streams and the
/// bursty on/off gate that shapes their arrival.
pub(crate) struct SourceRt {
    /// Per-core reference streams (empty for ghosts).
    pub streams: Vec<Box<dyn AccessStream>>,
    /// Burst-shape RNG, seeded from the tenant seed — identical for a
    /// live tenant and its ghost replay.
    pub rng: SplitMix64,
    /// Remaining ticks in the current on-burst.
    pub on_left: u64,
    /// Remaining ticks in the current off-gap.
    pub off_left: u64,
    /// References emitted so far, per core (capped at the tenant's
    /// `refs`).
    pub emitted: Vec<u64>,
}

/// Advances the bursty on/off gate by one tick and reports whether the
/// source offers references this tick. Draws are consumed in a fixed
/// order (burst length, then gap length) so live and ghost replays see
/// the same RNG stream.
pub(crate) fn advance_burst(src: &mut SourceRt, on_max: u64, off_max: u64) -> bool {
    if src.on_left > 0 {
        src.on_left -= 1;
        return true;
    }
    if src.off_left > 0 {
        src.off_left -= 1;
        return false;
    }
    src.on_left = 1 + src.rng.next_below(on_max);
    src.off_left = src.rng.next_below(off_max + 1);
    src.on_left -= 1;
    true
}

/// Ingest phase for one tenant on one on-tick: pulls up to `ingest`
/// references per core from the source into the tenant's queues,
/// honoring the per-queue bound and the machine-wide `global_left`
/// budget. Shortfalls caused by either bound are counted as `stalled`;
/// a source that ends early just stops offering (its per-core emitted
/// counter is capped out, no stall is charged).
pub(crate) fn ingest_tick(
    src: &mut SourceRt,
    rt: &mut Tenant,
    ingest: u64,
    refs: u64,
    queue_cap: usize,
    global_left: &mut u64,
) {
    for c in 0..rt.queues.len() {
        let already = src.emitted.get(c).copied().unwrap_or(refs);
        let want = ingest.min(refs.saturating_sub(already));
        let mut pushed = 0u64;
        let mut denied = 0u64;
        while pushed < want {
            if *global_left == 0 || rt.queues[c].len() >= queue_cap {
                denied = want - pushed;
                break;
            }
            let item = if rt.ghost {
                QueuedRef {
                    line: LineAddr::new(0),
                    write: false,
                }
            } else {
                match src.streams[c].next_access() {
                    Some(a) => QueuedRef {
                        line: a.line,
                        write: a.write,
                    },
                    None => {
                        // Source ended early: mark the core complete so
                        // the tenant can drain to done.
                        src.emitted[c] = refs;
                        break;
                    }
                }
            };
            rt.queues[c].push_back(item);
            pushed += 1;
            *global_left -= 1;
            if src.emitted[c] < refs {
                src.emitted[c] += 1;
            }
        }
        rt.stalled += denied;
    }
}

/// Drain phase for one tenant: takes up to `drain` references per core
/// as one batch and replays them into the tenant's machine (ghosts skip
/// the machine and just advance the counters arithmetically). The batch
/// size is decided once per core from the queue length — not per item —
/// and the machine `Option` is resolved once per call, so the per-access
/// loop is just pop/access/accumulate. Runs on a drain participant inside
/// the per-tenant `panics::contain`, so a machine panic is contained.
pub(crate) fn drain_tenant(rt: &mut Tenant, drain: u64) {
    rt.drained_this_tick = 0;
    let Tenant {
        queues,
        machine,
        retired,
        cycles,
        drained_this_tick,
        ..
    } = rt;
    match machine.as_mut() {
        Some(m) => {
            for (c, q) in queues.iter_mut().enumerate() {
                let take = drain.min(q.len() as u64) as usize;
                // Counters advance per item, not per batch, so a panic
                // mid-batch (contained by the caller's `panics::contain`)
                // leaves them at exactly the accesses replayed.
                for item in q.drain(..take) {
                    let out = m.access(CoreId(c), item.line, item.write);
                    *cycles += out.latency;
                    *retired += 1;
                    *drained_this_tick += 1;
                }
            }
        }
        // Ghost (or machine-less) drain is pure queue arithmetic.
        None => {
            for q in queues.iter_mut() {
                let take = drain.min(q.len() as u64) as usize;
                q.drain(..take);
                *retired += take as u64;
                *drained_this_tick += take as u64;
            }
        }
    }
}

/// Total references currently buffered for one tenant (global-bound
/// accounting).
pub(crate) fn buffered(rt: &Tenant) -> u64 {
    let mut total = 0u64;
    for q in &rt.queues {
        total += q.len() as u64;
    }
    total
}

/// Whether the tenant's source has emitted its full quota on every core.
pub(crate) fn source_complete(src: &SourceRt, refs: u64) -> bool {
    src.emitted.iter().all(|&e| e >= refs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(seed: u64, cores: usize) -> SourceRt {
        SourceRt {
            streams: Vec::new(),
            rng: SplitMix64::new(seed),
            on_left: 0,
            off_left: 0,
            emitted: vec![0; cores],
        }
    }

    fn ghost_rt(cores: usize, cap: usize) -> Tenant {
        Tenant {
            phase: Phase::Active,
            ghost: true,
            queues: (0..cores).map(|_| VecDeque::with_capacity(cap)).collect(),
            ..Tenant::default()
        }
    }

    #[test]
    fn burst_gate_alternates_and_is_deterministic() {
        let mut a = source(7, 1);
        let mut b = source(7, 1);
        let pattern_a: Vec<bool> = (0..64).map(|_| advance_burst(&mut a, 4, 3)).collect();
        let pattern_b: Vec<bool> = (0..64).map(|_| advance_burst(&mut b, 4, 3)).collect();
        assert_eq!(pattern_a, pattern_b);
        assert!(pattern_a.iter().any(|&on| on));
        assert!(pattern_a.iter().any(|&on| !on));
        // Zero off bound means the gate is always on.
        let mut c = source(7, 1);
        assert!((0..64).all(|_| advance_burst(&mut c, 4, 0)));
    }

    #[test]
    fn ingest_honors_queue_and_global_bounds_and_counts_stalls() {
        let mut src = source(1, 2);
        let mut rt = ghost_rt(2, 4);
        let mut global = 5u64;
        ingest_tick(&mut src, &mut rt, 8, 100, 4, &mut global);
        // Core 0 filled its 4-slot queue (4 of 8 wanted), core 1 got the
        // last global credit (1 of 8 wanted).
        assert_eq!(rt.queues[0].len(), 4);
        assert_eq!(rt.queues[1].len(), 1);
        assert_eq!(global, 0);
        assert_eq!(rt.stalled, 4 + 7);
        assert_eq!(src.emitted, vec![4, 1]);
    }

    #[test]
    fn drain_retires_bounded_batches_per_core() {
        let mut src = source(1, 2);
        let mut rt = ghost_rt(2, 8);
        let mut global = u64::MAX;
        ingest_tick(&mut src, &mut rt, 8, 100, 8, &mut global);
        drain_tenant(&mut rt, 3);
        assert_eq!(rt.drained_this_tick, 6);
        assert_eq!(rt.retired, 6);
        assert_eq!(rt.queues[0].len(), 5);
        assert_eq!(buffered(&rt), 10);
    }

    #[test]
    fn refs_quota_caps_emission_and_completes_the_source() {
        let mut src = source(1, 1);
        let mut rt = ghost_rt(1, 64);
        let mut global = u64::MAX;
        for _ in 0..10 {
            ingest_tick(&mut src, &mut rt, 8, 20, 64, &mut global);
        }
        assert_eq!(src.emitted, vec![20]);
        assert!(source_complete(&src, 20));
        assert_eq!(rt.stalled, 0);
        drain_tenant(&mut rt, 64);
        assert_eq!(rt.retired, 20);
        assert_eq!(buffered(&rt), 0);
    }
}
