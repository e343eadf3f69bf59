//! The two engine workloads and the traced serial driver.
//!
//! Both workloads run the four directory kinds under three engines each
//! (serial `run_workload`, sliced at one and at two threads): twelve
//! configurations, each with its own machine and streams, advanced one
//! window at a time, round-robin. A round is one window of every
//! configuration; its rate is all accesses over all window wall time.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use secdir_machine::{
    run_workload, run_workload_sliced_with, Access, AccessStream, CoreRun, DirectoryKind, Machine,
    MachineConfig, RunSummary, ServedBy, SlicedOptions,
};
use secdir_mem::{CoreId, LineAddr};
use secdir_workloads::registry::streams_by_name;

use crate::report::{Meter, Outcome, Sample, SETUP_REPS};

pub const CORES: usize = 8;

pub const KINDS: [DirectoryKind; 4] = [
    DirectoryKind::Baseline,
    DirectoryKind::SecDir,
    DirectoryKind::WayPartitioned,
    DirectoryKind::SecDirVdOnly,
];

/// One engine workload's input.
pub struct Mix {
    /// Short tag used in per-layer metric names.
    pub tag: &'static str,
    /// Registry name of the reference streams.
    pub workload: &'static str,
    /// References per core in one timed window.
    pub window: u64,
    /// Untimed references per core before the first window.
    pub warmup: u64,
    /// Warm-up of the traced run, long enough for the directories to fill
    /// so that conflict and VD counts are in steady state.
    pub trace_warmup: u64,
    /// FNV-1a of every configuration's stats and cycles after the first
    /// round, at the default seed.
    pub digest: u64,
}

/// SPEC `mix0`: gobmk + sjeng, both core-cache-fitting. About 96% of
/// accesses hit L1/L2, so the private probe path and the scheduler
/// dominate and the directory barely matters.
pub const CCF: Mix = Mix {
    tag: "ccf",
    workload: "mix0",
    window: 25_000,
    warmup: 50_000,
    trace_warmup: 50_000,
    digest: 0xc42e_f90d_57a2_7028,
};

/// PARSEC `canneal`: 45% of accesses go to a shared 60k-line region, a
/// third of them miss L2 and most misses are served by the directory, so
/// the directory step, the VD and the sliced merge dominate.
pub const SHARING: Mix = Mix {
    tag: "sharing",
    workload: "canneal",
    window: 10_000,
    warmup: 20_000,
    trace_warmup: 100_000,
    digest: 0x889c_703c_d992_0916,
};

/// Smoke runs shrink windows and warm-up by this factor.
const SMOKE_DIVISOR: u64 = 10;

/// Epoch batch of the sliced engines (the library default, which the
/// sliced golden snapshots pin).
pub const EPOCH_BATCH: usize = 64;

/// The engine a configuration runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    Serial,
    Sliced1,
    Sliced2,
}

pub const LANES: [Lane; 3] = [Lane::Serial, Lane::Sliced1, Lane::Sliced2];

impl Lane {
    pub fn name(self) -> &'static str {
        match self {
            Lane::Serial => "serial",
            Lane::Sliced1 => "sliced1",
            Lane::Sliced2 => "sliced2",
        }
    }

    pub fn run(self, machine: &mut Machine, streams: &mut Streams, refs: u64) -> RunSummary {
        let threads = match self {
            Lane::Serial => return run_workload(machine, streams, refs),
            Lane::Sliced1 => 1,
            Lane::Sliced2 => 2,
        };
        let options = SlicedOptions {
            epoch_batch: EPOCH_BATCH,
            pipeline: false,
        };
        run_workload_sliced_with(machine, streams, refs, threads, options)
    }
}

pub type Streams = Vec<Box<dyn AccessStream>>;

pub fn streams(mix: &Mix, seed: u64) -> Streams {
    streams_by_name(mix.workload, CORES, seed).expect("engine mixes are registry workloads")
}

/// A machine and its streams, warmed up by the engine that will time it.
pub struct Config {
    pub kind: DirectoryKind,
    pub lane: Lane,
    pub machine: Machine,
    pub streams: Streams,
}

impl Config {
    pub fn new(mix: &Mix, kind: DirectoryKind, lane: Lane, seed: u64, warmup: u64) -> Config {
        let mut machine = Machine::new(MachineConfig::skylake_x(CORES, kind));
        let mut streams = streams(mix, seed);
        lane.run(&mut machine, &mut streams, warmup);
        Config {
            kind,
            lane,
            machine,
            streams,
        }
    }

    /// Runs one window; returns its summary and host seconds.
    pub fn window(&mut self, refs: u64) -> (RunSummary, f64) {
        let start = Instant::now();
        let summary = self.lane.run(&mut self.machine, &mut self.streams, refs);
        (summary, start.elapsed().as_secs_f64())
    }
}

pub fn accesses(summary: &RunSummary) -> u64 {
    summary.cores.iter().map(|c| c.accesses).sum()
}

/// Every access is served by exactly one level, and the window issued
/// its full quota on every core.
pub fn window_is_consistent(machine: &Machine, summary: &RunSummary, refs: u64) -> bool {
    let served: u64 = machine
        .stats()
        .cores
        .iter()
        .map(|c| c.l1_hits + c.l2_hits + c.ed_td_hits + c.vd_hits + c.memory_accesses)
        .sum();
    served == machine.stats().total_accesses() && summary.cores.iter().all(|c| c.accesses == refs)
}

/// Whether two machines ended in the same simulated state, as far as the
/// golden-pinned statistics can tell.
pub fn same_results(a: &Machine, sa: &RunSummary, b: &Machine, sb: &RunSummary) -> bool {
    sa == sb && a.stats() == b.stats() && a.directory_stats() == b.directory_stats()
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds a machine's statistics and a window's timing into `h`. The
/// fields are listed, not formatted, so a counter added later does not
/// move the pinned digests.
pub fn fold_digest(h: &mut Fnv, machine: &Machine, summary: &RunSummary) {
    h.u64(summary.cycles);
    for c in &summary.cores {
        for v in [c.instructions, c.accesses, c.finish_time] {
            h.u64(v);
        }
    }
    let stats = machine.stats();
    for c in &stats.cores {
        for v in [
            c.accesses,
            c.reads,
            c.writes,
            c.l1_hits,
            c.l2_hits,
            c.l2_misses,
            c.ed_td_hits,
            c.vd_hits,
            c.memory_accesses,
            c.upgrades,
            c.inclusion_victims,
            c.invalidation_writebacks,
            c.l2_writebacks,
        ] {
            h.u64(v);
        }
    }
    for v in stats.invalidations_by_cause {
        h.u64(v);
    }
    h.u64(stats.memory_writebacks);
    let d = machine.directory_stats();
    for v in [
        d.requests,
        d.ed_hits,
        d.td_hits,
        d.vd_hits,
        d.misses,
        d.td_conflict_discards,
        d.td_to_vd_migrations,
        d.vd_to_td_migrations,
        d.vd_self_conflicts,
        d.vd_inserts,
        d.cuckoo_relocations,
        d.ed_to_td_migrations,
        d.td_to_ed_migrations,
        d.quirk_invalidations,
        d.vd_lookups,
        d.vd_bank_probes,
        d.vd_bank_probes_without_eb,
        d.llc_writebacks,
        d.llc_data_fills,
    ] {
        h.u64(v);
    }
}

/// A reference count as a run uses it: smoke runs shrink it.
pub fn scaled(refs: u64, smoke: bool) -> u64 {
    if smoke {
        refs / SMOKE_DIVISOR
    } else {
        refs
    }
}

/// The untraced workload: set up the twelve configurations, then time
/// rounds until `seconds` have passed.
pub fn run(
    mix: &Mix,
    seed: u64,
    seconds: f64,
    smoke: bool,
    pinned: bool,
    meter: &mut Meter,
) -> Outcome {
    let (window, warmup) = (scaled(mix.window, smoke), scaled(mix.warmup, smoke));
    let mut out = Outcome::new("accesses");
    let mut configs = Vec::new();
    meter.speed();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut configs));
        let start = Instant::now();
        for kind in KINDS {
            for lane in LANES {
                configs.push(Config::new(mix, kind, lane, seed, warmup));
            }
        }
        let value = start.elapsed().as_secs_f64();
        out.setups.push(Sample {
            value,
            speed: meter.speed(),
        });
    }

    let measure = Instant::now();
    let mut lanes: [Vec<f64>; 3] = Default::default();
    while out.rates.is_empty() || measure.elapsed().as_secs_f64() < seconds {
        let mut lane_work = [(0u64, 0f64); 3];
        let mut summaries = Vec::with_capacity(configs.len());
        for (i, cfg) in configs.iter_mut().enumerate() {
            let (summary, wall) = cfg.window(window);
            lane_work[i % LANES.len()].0 += accesses(&summary);
            lane_work[i % LANES.len()].1 += wall;
            summaries.push(summary);
        }
        let speed = meter.speed();
        let round = out.rates.len();
        let mut failures = Vec::new();
        for (cfg, summary) in configs.iter().zip(&summaries) {
            if !window_is_consistent(&cfg.machine, summary, window) {
                failures.push(format!(
                    "round {round}: {} {} window is inconsistent",
                    cfg.kind.name(),
                    cfg.lane.name()
                ));
            }
        }
        // Thread-count bit-identity: sliced@1 and sliced@2 of one kind.
        for (cfg, sum) in configs
            .chunks(LANES.len())
            .zip(summaries.chunks(LANES.len()))
        {
            if !same_results(&cfg[1].machine, &sum[1], &cfg[2].machine, &sum[2]) {
                failures.push(format!(
                    "round {round}: {} sliced@1 and sliced@2 differ",
                    cfg[1].kind.name()
                ));
            }
        }
        if round == 0 && pinned {
            let mut h = Fnv::new();
            for (cfg, summary) in configs.iter().zip(&summaries) {
                fold_digest(&mut h, &cfg.machine, summary);
            }
            if h.finish() != mix.digest {
                failures.push(format!(
                    "digest {:#018x} != pinned {:#018x}",
                    h.finish(),
                    mix.digest
                ));
            }
        }
        out.checks.record(failures);
        let total: (u64, f64) = lane_work
            .iter()
            .fold((0, 0.0), |acc, w| (acc.0 + w.0, acc.1 + w.1));
        out.rates.push(Sample {
            value: total.0 as f64 / total.1,
            speed,
        });
        for (samples, (acc, wall)) in lanes.iter_mut().zip(lane_work) {
            samples.push(acc as f64 / wall);
        }
    }
    for (lane, samples) in LANES.iter().zip(lanes) {
        out.parts.push((
            format!("{}_accesses_per_s", lane.name()),
            "accesses/s",
            samples,
        ));
    }
    out
}

/// Streams buffered per core, refilled in timed batches so the cost of
/// `next_access` is measured without a clock read per reference.
pub struct Buffered {
    streams: Streams,
    bufs: Vec<VecDeque<Option<Access>>>,
}

const PULL_BATCH: usize = 64;

impl Buffered {
    pub fn new(streams: Streams) -> Buffered {
        let bufs = streams.iter().map(|_| VecDeque::new()).collect();
        Buffered { streams, bufs }
    }

    fn next(&mut self, core: usize, t: &mut EngineTrace) -> Option<Access> {
        if self.bufs[core].is_empty() {
            let start = t.now();
            for _ in 0..PULL_BATCH {
                let next = self.streams[core].next_access();
                self.bufs[core].push_back(next);
                if next.is_none() {
                    break;
                }
            }
            t.next_ns += t.now() - start;
            t.next_batches += 1;
            t.next_refs += self.bufs[core].len() as u64;
        }
        self.bufs[core].pop_front().flatten()
    }
}

/// Slots of the timed machine calls: accesses by where they were served,
/// then prefetches.
pub const CLASSES: [&str; 5] = ["l1", "l2", "edtd", "vd", "memory"];
pub const PREFETCH: usize = CLASSES.len();

fn class(served: ServedBy) -> usize {
    match served {
        ServedBy::L1 => 0,
        ServedBy::L2 => 1,
        ServedBy::EdTd => 2,
        ServedBy::Vd => 3,
        ServedBy::Memory => 4,
    }
}

/// Host time of every call the traced driver makes into a layer.
pub struct EngineTrace {
    origin: Instant,
    pub next_ns: u64,
    pub next_batches: u64,
    pub next_refs: u64,
    /// Per slot: summed ns of the timed machine calls, and their number.
    pub call_ns: [u64; PREFETCH + 1],
    pub calls: [u64; PREFETCH + 1],
    /// The machine calls of the last window, in order.
    pub steps: Vec<Step>,
}

/// One call the serial engine makes into the machine.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    Access(CoreId, LineAddr, bool),
    Prefetch(CoreId, LineAddr),
}

impl EngineTrace {
    pub fn new() -> EngineTrace {
        EngineTrace {
            origin: Instant::now(),
            next_ns: 0,
            next_batches: 0,
            next_refs: 0,
            call_ns: [0; PREFETCH + 1],
            calls: [0; PREFETCH + 1],
            steps: Vec::new(),
        }
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Makes `steps` on `machine` with no clock and no scheduler: what the
/// machine calls of a window cost on their own.
pub fn replay(machine: &mut Machine, steps: &[Step]) {
    for &step in steps {
        match step {
            Step::Access(core, line, write) => {
                black_box(machine.access(core, line, write));
            }
            Step::Prefetch(core, line) => machine.prefetch(core, line),
        }
    }
}

/// `run_workload` re-driven from outside with every layer call timed and
/// recorded. The pick order is the engine's: earliest ready core first,
/// lowest core id on ties, each core's next reference pulled one ahead
/// and prefetched. The machine therefore sees the same accesses in the
/// same order, so its statistics equal an untraced serial run's.
pub fn traced_window(
    machine: &mut Machine,
    src: &mut Buffered,
    refs: u64,
    t: &mut EngineTrace,
) -> RunSummary {
    enum Pulled {
        Not,
        Ready(Access),
        Exhausted,
    }
    let n = machine.num_cores();
    let mut runs = vec![CoreRun::default(); n];
    let mut pulled: Vec<Pulled> = (0..n).map(|_| Pulled::Not).collect();
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> = (0..n).map(|i| Reverse((0, i))).collect();
    t.steps.clear();
    while let Some(mut top) = queue.peek_mut() {
        let Reverse((ready, core)) = *top;
        if runs[core].accesses >= refs {
            runs[core].finish_time = ready;
            PeekMut::pop(top);
            continue;
        }
        let acc = match std::mem::replace(&mut pulled[core], Pulled::Not) {
            Pulled::Ready(acc) => Some(acc),
            Pulled::Not => src.next(core, t),
            Pulled::Exhausted => None,
        };
        let Some(acc) = acc else {
            runs[core].finish_time = ready;
            PeekMut::pop(top);
            continue;
        };
        let start = t.now();
        let outcome = machine.access(CoreId(core), acc.line, acc.write);
        let slot = class(outcome.served);
        t.call_ns[slot] += t.now() - start;
        t.calls[slot] += 1;
        t.steps
            .push(Step::Access(CoreId(core), acc.line, acc.write));
        runs[core].instructions += u64::from(acc.gap) + 1;
        runs[core].accesses += 1;
        *top = Reverse((ready + u64::from(acc.gap) + outcome.latency, core));
        drop(top);
        if runs[core].accesses < refs {
            pulled[core] = match src.next(core, t) {
                Some(next) => {
                    let start = t.now();
                    machine.prefetch(CoreId(core), next.line);
                    t.call_ns[PREFETCH] += t.now() - start;
                    t.calls[PREFETCH] += 1;
                    t.steps.push(Step::Prefetch(CoreId(core), next.line));
                    Pulled::Ready(next)
                }
                None => Pulled::Exhausted,
            };
        }
    }
    let cycles = runs.iter().map(|r| r.finish_time).max().unwrap_or(0);
    RunSummary {
        cores: runs,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_driver_matches_run_workload() {
        for kind in KINDS {
            let cfg = MachineConfig::small(4, kind);
            let mut plain = Machine::new(cfg);
            let mut plain_streams = streams_by_name("canneal", 4, 7).unwrap();
            let mut traced = Machine::new(cfg);
            let mut src = Buffered::new(streams_by_name("canneal", 4, 7).unwrap());
            let mut t = EngineTrace::new();
            let mut replayed = Machine::new(cfg);
            for _ in 0..3 {
                let a = run_workload(&mut plain, &mut plain_streams, 700);
                let b = traced_window(&mut traced, &mut src, 700, &mut t);
                assert!(same_results(&plain, &a, &traced, &b), "{}", kind.name());
                replay(&mut replayed, &t.steps);
                assert_eq!(replayed.stats(), plain.stats(), "{}", kind.name());
                assert_eq!(replayed.directory_stats(), plain.directory_stats());
            }
            assert_eq!(t.calls[..PREFETCH].iter().sum::<u64>(), 3 * 4 * 700);
            assert!(t.next_refs >= 3 * 4 * 700);
        }
    }

    #[test]
    fn traced_driver_handles_finite_streams() {
        let cfg = MachineConfig::small(2, DirectoryKind::SecDir);
        let make = || -> Streams {
            (0..2u64)
                .map(|c| {
                    Box::new((0..50 + 30 * c).map(move |i| {
                        Access::read(LineAddr::new((c << 20) | (i % 17))).with_gap(2)
                    })) as Box<dyn AccessStream>
                })
                .collect()
        };
        let mut plain = Machine::new(cfg);
        let a = run_workload(&mut plain, &mut make(), 1000);
        let mut traced = Machine::new(cfg);
        let b = traced_window(
            &mut traced,
            &mut Buffered::new(make()),
            1000,
            &mut EngineTrace::new(),
        );
        assert!(same_results(&plain, &a, &traced, &b));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let cfg = MachineConfig::small(2, DirectoryKind::SecDir);
        let digest = |refs: u64| {
            let mut m = Machine::new(cfg);
            let s = run_workload(&mut m, &mut streams_by_name("mix0", 2, 3).unwrap(), refs);
            let mut h = Fnv::new();
            fold_digest(&mut h, &m, &s);
            h.finish()
        };
        assert_eq!(digest(500), digest(500));
        assert_ne!(digest(500), digest(501));
        // FNV-1a reference value.
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
