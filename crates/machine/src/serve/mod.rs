//! `serve`: a crash-safe multi-tenant streaming service over the
//! simulator.
//!
//! The server multiplexes many independent tenant reference streams
//! onto a pool of [`Machine`]s under deterministic virtual-time
//! scheduling. Each tick runs three phases:
//!
//! 1. **ingest** (serial, tenant-index order): every admitted tenant's
//!    bursty source offers up to `ingest` references per core, bounded
//!    by the per-core queue cap and a machine-wide buffer budget
//!    (`global_cap`). Full queues exert *backpressure* — shortfalls are
//!    counted as `stalled` and retried, never dropped.
//! 2. **drain** (parallel over contiguous chunks of tenants, one per
//!    drain participant): up to `drain` references per core are retired
//!    into the tenant's machine, followed by the online oracle audit
//!    (`quarantine`). Every per-tenant step runs
//!    under `panics::contain`: a panicking stream or machine becomes a
//!    structured `panicked` terminal record, not a server crash.
//! 3. **emit** (serial, tenant-index order): checkpoint and terminal
//!    records go to the journal — flushed per record (JSONL) or
//!    group-committed as one checksummed frame per tick (binary, see
//!    `codec`).
//!
//! How much work happens each tick depends only on the configuration,
//! tenant seeds, and queue occupancy — never on simulated latencies,
//! worker count, or host time — so the journal is byte-identical at any
//! `workers` setting, and restarting after SIGKILL with the surviving
//! journal replays to a byte-identical file (see `journal`).
//!
//! Admission is FIFO over a bounded pool with a bounded waiting room;
//! overflow tenants are shed at tick 0 (`admission`). Tenants that
//! stop making progress for `idle_timeout` ticks are evicted with an
//! `idle` record, which also guarantees the server itself terminates.

mod admission;
mod codec;
mod journal;
mod quarantine;
mod scheduler;

pub use codec::{decode_journal, DecodedJournal, JournalFormat};
pub use journal::ServeError;

use crate::engine::{Access, AccessStream};
use crate::inject::FaultPlan;
use crate::machine::Machine;
use crate::panics;
use crate::{DirectoryKind, MachineConfig};
use admission::Admission;
use codec::{Checkpoint, Record, TerminalInfo};
use journal::{GhostEnd, JournalSink};
use scheduler::{Phase, SourceRt, Tenant};
use secdir_mem::par::{self, Crew, Handoff};
use secdir_mem::{LineAddr, SplitMix64};
use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};
use std::io::Write;
use std::panic::resume_unwind;

/// Salt separating the burst-shape RNG from the tenant's workload RNG.
const BURST_SALT: u64 = 0x5e71_ce00_b127_57a1;

/// Line-address space of the built-in uniform workload — sized past the
/// small config's directory capacity so conflicts occur naturally (the
/// `inject` recipe's value).
const UNIFORM_LINES: u64 = 4096;

/// Why a tenant left the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantStatus {
    /// Drained its full reference quota cleanly.
    Done,
    /// The online oracle found an invariant violation; the tenant was
    /// isolated and its machine discarded.
    Quarantined,
    /// The tenant's stream or machine panicked; contained by
    /// `panics::contain`.
    Panicked,
    /// Made no progress for `idle_timeout` consecutive ticks.
    Idle,
    /// Refused at admission: pool and waiting room were full.
    Shed,
}

impl TenantStatus {
    /// All statuses, in severity-ish order.
    pub const ALL: [TenantStatus; 5] = [
        TenantStatus::Done,
        TenantStatus::Quarantined,
        TenantStatus::Panicked,
        TenantStatus::Idle,
        TenantStatus::Shed,
    ];

    /// The stable JSONL name of this status.
    pub fn name(self) -> &'static str {
        match self {
            TenantStatus::Done => "done",
            TenantStatus::Quarantined => "quarantined",
            TenantStatus::Panicked => "panicked",
            TenantStatus::Idle => "idle",
            TenantStatus::Shed => "shed",
        }
    }

    /// Parses a [`TenantStatus::name`] string.
    pub fn parse(s: &str) -> Option<TenantStatus> {
        TenantStatus::ALL.into_iter().find(|st| st.name() == s)
    }
}

/// One tenant: identity, workload, machine shape, and an optional armed
/// fault.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Unique tenant name (journal key).
    pub name: String,
    /// Workload name, resolved by the [`TenantStreams`] factory.
    pub workload: String,
    /// Directory organization of the tenant's machine.
    pub kind: DirectoryKind,
    /// Workload and burst-shape seed.
    pub seed: u64,
    /// Cores on the tenant's machine (scaled-down config).
    pub cores: usize,
    /// References to serve per core.
    pub refs: u64,
    /// Fault to arm on the tenant's machine, if any.
    pub fault: Option<FaultPlan>,
}

/// Field-by-field equality: a journal's spec records must equal the
/// configuration's.
impl PartialEq for TenantSpec {
    fn eq(&self, other: &TenantSpec) -> bool {
        let key = |t: &TenantSpec| {
            let fault = t.fault.map(|p| (p.kind, p.trigger, p.core));
            (t.kind, t.seed, t.cores, t.refs, fault)
        };
        self.name == other.name && self.workload == other.workload && key(self) == key(other)
    }
}

/// The full service configuration. Every scheduling decision is a pure
/// function of this struct plus the tenant seeds, which is what the
/// journal's byte-stability rests on.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The tenants, in arrival order.
    pub tenants: Vec<TenantSpec>,
    /// Maximum live machines.
    pub pool: usize,
    /// Per-core reference queue bound.
    pub queue_cap: usize,
    /// Machine-wide buffered-reference bound.
    pub global_cap: u64,
    /// Maximum references ingested per core per on-tick.
    pub ingest: u64,
    /// Maximum references retired per core per tick.
    pub drain: u64,
    /// Consecutive zero-progress ticks before an `idle` eviction.
    pub idle_timeout: u64,
    /// Retired references between checkpoint records.
    pub checkpoint_interval: u64,
    /// Tenants allowed to wait for a pool slot; the rest are shed.
    pub max_waiting: usize,
    /// Burst length bound of the on/off source gate (ticks).
    pub burst_on_max: u64,
    /// Gap length bound of the on/off source gate (ticks, 0 = always
    /// on). Keep below `idle_timeout` or healthy tenants get evicted.
    pub burst_off_max: u64,
    /// Drain threads, the calling thread included (1 = no thread
    /// spawned). Clamped to `pool` and to the tenant count, since no tick
    /// has more live machines than either.
    pub workers: usize,
    /// Run a final oracle sweep before a `done` record.
    pub final_audit: bool,
    /// Journal encoding. Not part of the journaled header: the record
    /// *content* is format-independent (a binary journal decodes to the
    /// byte-identical JSONL journal), and the file's own magic already
    /// identifies its encoding.
    pub format: JournalFormat,
}

impl ServeConfig {
    /// A configuration with conservative defaults over `tenants`.
    pub fn new(tenants: Vec<TenantSpec>) -> ServeConfig {
        ServeConfig {
            tenants,
            pool: 4,
            queue_cap: 64,
            global_cap: 4096,
            ingest: 8,
            drain: 4,
            idle_timeout: 64,
            checkpoint_interval: 1000,
            max_waiting: 16,
            burst_on_max: 8,
            burst_off_max: 3,
            workers: 1,
            final_audit: true,
            format: JournalFormat::Jsonl,
        }
    }

    /// Phase II participants, the calling thread included: `workers`,
    /// clamped to the pool and the tenant count, since no tick has more
    /// live machines than either. This is the thread count a run actually
    /// drains with, which `serve --bench` records as `"workers"`.
    pub fn drain_participants(&self) -> usize {
        self.workers.min(self.pool).min(self.tenants.len())
    }

    fn validate(&self) -> Result<(), ServeError> {
        let cfg_err = |m: String| Err(ServeError::Config(m));
        if self.tenants.is_empty() {
            return cfg_err("no tenants".to_string());
        }
        let mut seen = BTreeSet::new();
        for spec in &self.tenants {
            if spec.name.is_empty() {
                return cfg_err("tenant with an empty name".to_string());
            }
            // Journal records are matched back to tenants by comparing
            // the raw (escaped) field text against the spec name, so a
            // name that the journal writer would escape cannot round-trip
            // through `--resume`. Reject it up front.
            if spec
                .name
                .chars()
                .any(|c| c == '"' || c == '\\' || (c as u32) < 0x20)
            {
                return cfg_err(format!(
                    "tenant name {:?} contains `\"`, `\\`, or control characters, \
                     which do not round-trip through the journal",
                    spec.name
                ));
            }
            if !seen.insert(spec.name.as_str()) {
                return cfg_err(format!("duplicate tenant name `{}`", spec.name));
            }
            if spec.cores == 0 {
                return cfg_err(format!("tenant `{}`: zero cores", spec.name));
            }
            if spec.refs == 0 {
                return cfg_err(format!("tenant `{}`: zero refs", spec.name));
            }
            if let Some(plan) = spec.fault {
                if plan.core.0 >= spec.cores {
                    return cfg_err(format!(
                        "tenant `{}`: fault core {} out of range for {} cores",
                        spec.name, plan.core.0, spec.cores
                    ));
                }
            }
        }
        for (value, what) in [
            (self.pool as u64, "pool"),
            (self.queue_cap as u64, "queue-cap"),
            (self.global_cap, "global-cap"),
            (self.ingest, "ingest"),
            (self.drain, "drain"),
            (self.idle_timeout, "idle-timeout"),
            (self.checkpoint_interval, "checkpoint-interval"),
            (self.burst_on_max, "burst-on"),
            (self.workers as u64, "workers"),
        ] {
            if value == 0 {
                return cfg_err(format!("{what} must be at least 1"));
            }
        }
        Ok(())
    }
}

/// Produces the per-core reference streams for a tenant. Implemented by
/// any `Fn(&TenantSpec) -> Vec<Box<dyn AccessStream>>`; the CLI maps
/// workload names through the registry, tests pass custom (including
/// panicking) streams.
pub trait TenantStreams {
    /// Builds one stream per core for `spec`. Must return exactly
    /// `spec.cores` streams; each should deliver at least `spec.refs`
    /// accesses (a stream that ends early just completes the tenant at
    /// whatever it delivered).
    fn streams(&self, spec: &TenantSpec) -> Vec<Box<dyn AccessStream + 'static>>;
}

impl<F> TenantStreams for F
where
    F: Fn(&TenantSpec) -> Vec<Box<dyn AccessStream + 'static>>,
{
    fn streams(&self, spec: &TenantSpec) -> Vec<Box<dyn AccessStream + 'static>> {
        self(spec)
    }
}

/// The built-in seeded uniform workload (the `inject` recipe's traffic
/// shape): uniform lines over `UNIFORM_LINES` addresses, 30% writes.
pub fn uniform_streams(spec: &TenantSpec) -> Vec<Box<dyn AccessStream + 'static>> {
    let mut streams: Vec<Box<dyn AccessStream + 'static>> = Vec::with_capacity(spec.cores);
    for core in 0..spec.cores {
        let salt = (core as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = SplitMix64::new(spec.seed ^ salt);
        streams.push(Box::new(std::iter::from_fn(move || {
            let line = LineAddr::new(rng.next_below(UNIFORM_LINES));
            let write = rng.chance(0.3);
            Some(if write {
                Access::write(line)
            } else {
                Access::read(line)
            })
        })));
    }
    streams
}

/// How one tenant's service ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Terminal status.
    pub status: TenantStatus,
    /// Tick the tenant went terminal.
    pub tick: u64,
    /// References retired.
    pub retired: u64,
    /// References delayed by backpressure.
    pub stalled: u64,
    /// Simulated cycles accumulated.
    pub cycles: u64,
    /// Access count at which an armed fault fired, if it did.
    pub fired_at: Option<u64>,
    /// Machine-wide L2 misses at the terminal (0 for shed tenants).
    pub l2_misses: u64,
    /// Machine-wide VD-served directory hits at the terminal.
    pub vd_hits: u64,
    /// Panic message or invariant text (empty otherwise).
    pub detail: String,
    /// The tenant's terminal JSONL record, byte-identical to its
    /// journal line (the per-tenant output artifact).
    pub record: String,
}

/// Emits tenant `now.tenant`'s terminal record and returns its outcome.
/// A ghost (`ghost_batch` is its last drained batch) splices the kept
/// record, which supplies every field; a live tenant emits `now`.
fn finish(
    journal: &mut JournalSink<'_>,
    name: &str,
    now: TerminalInfo<'_>,
    ghost_batch: Option<u64>,
) -> Result<TenantOutcome, ServeError> {
    let (t, record) = match ghost_batch {
        Some(batch) => journal.splice_terminal(&now, batch)?,
        None => {
            let record = journal.emit_terminal(&now)?;
            (now, record)
        }
    };
    Ok(TenantOutcome {
        name: name.to_string(),
        status: t.status,
        tick: t.tick,
        retired: t.retired,
        stalled: t.stalled,
        cycles: t.cycles,
        fired_at: t.fired_at,
        l2_misses: t.l2_misses,
        vd_hits: t.vd_hits,
        detail: t.detail.into_owned(),
        record,
    })
}

/// Summary of a completed serve run.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-tenant outcomes, in tenant-index order.
    pub outcomes: Vec<TenantOutcome>,
    /// Virtual ticks the run took.
    pub ticks: u64,
    /// Journal lines replayed from a surviving prefix (0 on a fresh
    /// run).
    pub kept_records: usize,
    /// Whether a truncated final journal line / torn final frame was
    /// discarded on resume.
    pub recovered_truncation: bool,
    /// Total bytes delivered to the journal sink (magic and framing
    /// included for the binary format).
    pub journal_bytes: u64,
}

impl ServeReport {
    /// Whether every tenant drained cleanly.
    pub fn all_done(&self) -> bool {
        self.outcomes.iter().all(|o| o.status == TenantStatus::Done)
    }

    /// How many tenants ended with the given status.
    pub fn count(&self, status: TenantStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }
}

/// Phase II for one chunk of tenants: each active tenant's drain batch
/// plus oracle audit, with panics contained into the tenant's failure
/// slot. Touches only the tenants in `chunk`.
fn drain_and_audit(chunk: &mut [Tenant], drain: u64) {
    for rt in chunk {
        if rt.phase != Phase::Active || rt.panic_msg.is_some() {
            continue;
        }
        if let Err(msg) = panics::contain(|| {
            scheduler::drain_tenant(rt, drain);
            quarantine::audit(rt);
        }) {
            rt.panic_msg = Some(msg);
        }
    }
}

// lint: region(barrier-worker)
/// Spawned participant `w`'s share of a tick's phase II, after the
/// tick-start crossing: drains its chunk of tenants, then crosses the
/// tick-end barrier.
fn drain_share(crew: &Crew, w: usize, chunks: &Handoff<Tenant>, drain: u64) {
    if let Some(mut chunk) = chunks.chunk(w) {
        drain_and_audit(&mut chunk, drain);
    }
    crew.wait(w);
}

// lint: region(barrier-worker)
/// Phase II on the lead: hands out the spawned participants' chunks,
/// drains its own between the tick-start and tick-end crossings, and
/// takes the chunks back in tenant-index order.
fn drain_phase(tenants: &mut Vec<Tenant>, crew: &Crew, chunks: &Handoff<Tenant>, drain: u64) {
    chunks.hand_out(tenants);
    crew.wait(0); // tick start
    drain_and_audit(tenants, drain);
    crew.wait(0); // tick end
    chunks.take_back(tenants);
}

/// The main-thread driver: owns every tenant, and lends chunks of them
/// to the spawned drain participants during phase II only.
struct Driver<'a, 'j, 's> {
    cfg: &'a ServeConfig,
    factory: &'a dyn TenantStreams,
    /// Every tenant, in index order (home between drain phases).
    tenants: Vec<Tenant>,
    journal: &'a mut JournalSink<'j>,
    ghost: &'s [Option<GhostEnd>],
    sources: Vec<Option<SourceRt>>,
    idle: Vec<u64>,
    checkpoints: Vec<u64>,
    outcomes: Vec<Option<TenantOutcome>>,
    admission: Admission,
    tick: u64,
}

impl Driver<'_, '_, '_> {
    /// Emits the tick-0 `shed` records for tenants past the waiting
    /// room.
    fn shed_initial(&mut self) -> Result<(), ServeError> {
        let cfg = self.cfg;
        let n = cfg.tenants.len();
        for i in self.admission.shed(n) {
            let now = TerminalInfo {
                tenant: i,
                tick: 0,
                status: TenantStatus::Shed,
                retired: 0,
                stalled: 0,
                cycles: 0,
                fired_at: None,
                l2_misses: 0,
                vd_hits: 0,
                detail: Cow::Borrowed(""),
            };
            let ghost = self.ghost[i].map(|_| 0);
            let outcome = finish(self.journal, &cfg.tenants[i].name, now, ghost)?;
            self.outcomes[i] = Some(outcome);
            self.tenants[i].phase = Phase::Terminal;
        }
        Ok(())
    }

    /// Grants free pool slots to waiting tenants (FIFO), building their
    /// machines and sources.
    fn admit_pending(&mut self) -> Result<(), ServeError> {
        let cfg = self.cfg;
        while let Some(i) = self.admission.admit() {
            let spec = &cfg.tenants[i];
            let is_ghost = self.ghost[i].is_some();
            let streams = if is_ghost {
                Vec::new()
            } else {
                let streams = self.factory.streams(spec);
                if streams.len() != spec.cores {
                    return Err(ServeError::Config(format!(
                        "stream factory returned {} streams for tenant `{}` with {} cores",
                        streams.len(),
                        spec.name,
                        spec.cores
                    )));
                }
                streams
            };
            let rt = &mut self.tenants[i];
            rt.phase = Phase::Active;
            rt.ghost = is_ghost;
            rt.queues = (0..spec.cores)
                .map(|_| VecDeque::with_capacity(cfg.queue_cap))
                .collect();
            if !is_ghost {
                let mut machine = Machine::new(MachineConfig::small(spec.cores, spec.kind));
                if let Some(plan) = spec.fault {
                    machine.arm_fault(plan);
                }
                rt.machine = Some(machine);
            }
            self.sources[i] = Some(SourceRt {
                streams,
                rng: SplitMix64::new(spec.seed ^ BURST_SALT),
                on_left: 0,
                off_left: 0,
                emitted: vec![0; spec.cores],
            });
        }
        Ok(())
    }

    /// Phase I: serial bursty ingestion under the global buffer budget,
    /// in tenant-index order (index is ingest priority).
    fn ingest_phase(&mut self) {
        let cfg = self.cfg;
        // Waiting and terminal tenants hold no queues.
        let mut buffered = 0u64;
        for rt in &self.tenants {
            buffered += scheduler::buffered(rt);
        }
        let mut global_left = cfg.global_cap.saturating_sub(buffered);
        for i in 0..self.tenants.len() {
            if self.tenants[i].phase != Phase::Active {
                continue;
            }
            let Some(src) = self.sources[i].as_mut() else {
                continue;
            };
            let on = scheduler::advance_burst(src, cfg.burst_on_max, cfg.burst_off_max);
            if !on {
                continue;
            }
            let rt = &mut self.tenants[i];
            if rt.panic_msg.is_some() || rt.quarantine_msg.is_some() {
                continue;
            }
            let refs = cfg.tenants[i].refs;
            if let Err(msg) = panics::contain(|| {
                scheduler::ingest_tick(src, rt, cfg.ingest, refs, cfg.queue_cap, &mut global_left);
            }) {
                rt.panic_msg = Some(msg);
            }
        }
    }

    /// Phase III: terminal decisions, checkpoint/terminal emission, and
    /// slot release, in tenant-index order.
    fn emit_phase(&mut self) -> Result<(), ServeError> {
        let cfg = self.cfg;
        for i in 0..self.tenants.len() {
            let spec = &cfg.tenants[i];
            let rt = &mut self.tenants[i];
            if rt.phase != Phase::Active {
                continue;
            }
            let decided: Option<(TenantStatus, String)> = if let Some(msg) = rt.panic_msg.take() {
                // A panic out of a machine whose armed fault already fired
                // is the engine's own defensive layer detecting the
                // injected corruption mid-access (the same convention as
                // `inject::run_injection`): that is a detected fault, so
                // the tenant is quarantined, not crashed. A panic with no
                // fired fault is a genuine tenant failure.
                if rt
                    .machine
                    .as_ref()
                    .is_some_and(|m| m.fault_fired().is_some())
                {
                    Some((TenantStatus::Quarantined, msg))
                } else {
                    Some((TenantStatus::Panicked, msg))
                }
            } else if let Some(msg) = rt.quarantine_msg.take() {
                Some((TenantStatus::Quarantined, msg))
            } else if rt.ghost {
                match self.ghost[i] {
                    Some(g) if g.tick == self.tick => Some((g.status, String::new())),
                    _ => None,
                }
            } else if self.sources[i]
                .as_ref()
                .is_some_and(|s| scheduler::source_complete(s, spec.refs))
                && scheduler::buffered(rt) == 0
            {
                match rt.machine.as_ref().map(Machine::verify) {
                    Some(Err(e)) if cfg.final_audit => {
                        Some((TenantStatus::Quarantined, e.to_string()))
                    }
                    _ => Some((TenantStatus::Done, String::new())),
                }
            } else if rt.drained_this_tick == 0 {
                self.idle[i] += 1;
                if self.idle[i] >= cfg.idle_timeout {
                    Some((
                        TenantStatus::Idle,
                        format!("no progress for {} ticks", cfg.idle_timeout),
                    ))
                } else {
                    None
                }
            } else {
                self.idle[i] = 0;
                None
            };
            match decided {
                None => {
                    let due = rt.retired / cfg.checkpoint_interval;
                    if due > self.checkpoints[i] {
                        self.checkpoints[i] = due;
                        let at = Checkpoint {
                            tenant: i,
                            tick: self.tick,
                            retired: rt.retired,
                            stalled: rt.stalled,
                            cycles: rt.cycles,
                        };
                        if rt.ghost {
                            self.journal.splice_checkpoint(&at)?;
                        } else {
                            self.journal.emit(&Record::Checkpoint(at))?;
                        }
                    }
                }
                Some((status, detail)) => {
                    let (l2_misses, vd_hits) = rt
                        .machine
                        .as_ref()
                        .map(|m| {
                            let stats = m.stats();
                            let vd = stats.cores.iter().map(|c| c.vd_hits).sum();
                            (stats.total_l2_misses(), vd)
                        })
                        .unwrap_or((0, 0));
                    let now = TerminalInfo {
                        tenant: i,
                        tick: self.tick,
                        status,
                        retired: rt.retired,
                        stalled: rt.stalled,
                        cycles: rt.cycles,
                        fired_at: rt.machine.as_ref().and_then(Machine::fault_fired),
                        l2_misses,
                        vd_hits,
                        detail: Cow::Owned(detail),
                    };
                    let ghost = rt.ghost.then_some(rt.drained_this_tick);
                    self.outcomes[i] = Some(finish(self.journal, &spec.name, now, ghost)?);
                    rt.phase = Phase::Terminal;
                    rt.machine = None;
                    rt.queues = Vec::new();
                    self.sources[i] = None;
                    self.admission.release();
                }
            }
        }
        Ok(())
    }

    /// The tick loop, leading the drain crew: phase II of every tick is
    /// one crew round of two crossings, with this thread as participant 0.
    fn run(&mut self, crew: &Crew, chunks: &Handoff<Tenant>) -> Result<u64, ServeError> {
        self.shed_initial()?;
        // Tick-0 sheds are their own durability unit (group commit).
        self.journal.commit()?;
        let total_refs: u64 = self
            .cfg
            .tenants
            .iter()
            .map(|t| t.refs.saturating_mul(t.cores as u64))
            .sum();
        // Liveness backstop: every window of `idle_timeout` ticks either
        // retires a reference or evicts a tenant, so a correct scheduler
        // stays far under this.
        let watchdog = (total_refs + self.cfg.tenants.len() as u64 + 2)
            .saturating_mul(self.cfg.idle_timeout + self.cfg.burst_off_max + 2);
        while self.tenants.iter().any(|t| t.phase != Phase::Terminal) {
            self.admit_pending()?;
            self.ingest_phase();
            drain_phase(&mut self.tenants, crew, chunks, self.cfg.drain);
            self.emit_phase()?;
            // Group commit: everything this tick emitted leaves as one
            // frame with one write+flush (no-op for JSONL, which
            // flushed per record).
            self.journal.commit()?;
            self.tick += 1;
            if self.tick > watchdog {
                return Err(ServeError::Config(
                    "internal: virtual-time watchdog exceeded — scheduler stopped making progress"
                        .to_string(),
                ));
            }
        }
        Ok(self.tick)
    }
}

/// Runs the service to completion (graceful drain: every tenant reaches
/// a terminal record).
///
/// `checkpoint` is the surviving journal bytes for `--resume` (empty
/// for a fresh run), in `cfg.format`'s encoding; `sink` receives the
/// full journal, rewritten from tick 0 — kept records are verified
/// against the deterministic replay and spliced or re-emitted
/// byte-identically, so the output never depends on where a previous
/// run was killed, nor on `workers`.
///
/// # Errors
///
/// [`ServeError::Config`] for an invalid configuration,
/// [`ServeError::Corrupt`] when `checkpoint` fails validation (including
/// a journal in the other format) or the replay diverges from it,
/// [`ServeError::Io`] when the sink fails. Tenant failures are *not*
/// errors — they are quarantine/panic/idle outcomes in the report.
pub fn run_serve(
    cfg: &ServeConfig,
    factory: &dyn TenantStreams,
    checkpoint: &[u8],
    sink: &mut dyn Write,
) -> Result<ServeReport, ServeError> {
    cfg.validate()?;
    let plan = journal::plan(cfg, checkpoint)?;
    let recovered_truncation = plan.recovered_truncation;
    let kept_records = plan.kept;
    let mut journal_sink = JournalSink::new(sink, cfg, plan.replay, plan.kept);
    journal_sink.begin()?;

    let n = cfg.tenants.len();
    let mut driver = Driver {
        cfg,
        factory,
        tenants: (0..n).map(|_| Tenant::default()).collect(),
        journal: &mut journal_sink,
        ghost: &plan.ghost,
        sources: (0..n).map(|_| None).collect(),
        idle: vec![0; n],
        checkpoints: vec![0; n],
        outcomes: (0..n).map(|_| None).collect(),
        admission: Admission::new(n, cfg.pool, cfg.max_waiting),
        tick: 0,
    };

    let participants = cfg.drain_participants();
    let chunks = Handoff::new(n, participants);
    let ticks = match par::run_crew(
        participants,
        2,
        |crew, w| drain_share(crew, w, &chunks, cfg.drain),
        |crew| driver.run(crew, &chunks),
    ) {
        Ok(r) => r?,
        Err(payload) => resume_unwind(payload),
    };

    let mut outcomes = Vec::with_capacity(n);
    for slot in &mut driver.outcomes {
        match slot.take() {
            Some(outcome) => outcomes.push(outcome),
            None => {
                return Err(ServeError::Config(
                    "internal: tenant finished without an outcome".to_string(),
                ))
            }
        }
    }
    drop(driver);
    let leftover = journal_sink.leftover();
    if leftover > 0 {
        return Err(ServeError::Corrupt(format!(
            "journal contains {leftover} record(s) beyond the deterministic replay"
        )));
    }
    let journal_bytes = journal_sink.bytes_written();
    Ok(ServeReport {
        outcomes,
        ticks,
        kept_records,
        recovered_truncation,
        journal_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clamp is checked as a pure function: no case starts a thread.
    #[test]
    fn drain_participants_are_clamped_to_the_pool_and_the_tenants() {
        for (workers, pool, tenants, want) in [
            (1, 4, 7, 1),
            (2, 4, 7, 2),
            (8, 4, 7, 4),
            (100_000, 4, 7, 4),
            (100_000, 16, 7, 7),
            (3, 16, 2, 2),
        ] {
            let specs = (0..tenants)
                .map(|i| TenantSpec {
                    name: format!("t{i}"),
                    workload: "uniform".to_string(),
                    kind: DirectoryKind::SecDir,
                    seed: i,
                    cores: 1,
                    refs: 1,
                    fault: None,
                })
                .collect();
            let mut cfg = ServeConfig::new(specs);
            cfg.workers = workers;
            cfg.pool = pool;
            assert_eq!(
                cfg.drain_participants(),
                want,
                "workers {workers}, pool {pool}, {tenants} tenants"
            );
        }
    }
}
