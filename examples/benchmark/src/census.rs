//! The traced run: every layer's costs and counts, measured from outside
//! around calls into its public API, on every workload's input.
//!
//! The per-layer catalogue covers all four workloads, so a traced run
//! measures all of them whichever workload it is started for; a layer's
//! numbers carry the input they were measured on in their name (`.ccf`,
//! `.sharing`), and directory-class numbers also carry the kind.

use std::collections::BTreeMap;
use std::time::Instant;

use secdir_coherence::DirSliceStats;
use secdir_machine::serve::{JournalFormat, ServeConfig};
use secdir_machine::{DirectoryKind, Machine, MachineStats};
use secdir_verif::{check_opt, CheckOptions, DirKind};

use crate::checker::{self, bfs, CANON, DEDUPE, INVARIANT, SUCCESSORS, UNPACK};
use crate::engine::{
    self, accesses, same_results, Buffered, Config, EngineTrace, Lane, Mix, CLASSES, KINDS, LANES,
    PREFETCH,
};
use crate::report::{Checks, Metrics};
use crate::serve::{self, Ev, Event, TimingSink, TimingStreams};
use crate::stats::{median_of, percentile, Better};
use crate::trace::{self, Off, Timed, TimerCal, Tracer};
use crate::{host, micro};

use Better::{Higher, Lower};

/// Every per-layer metric: name, unit, better. `BENCHMARK.json` lists the
/// same entries (checked by a unit test).
#[rustfmt::skip]
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("trace.timer_ns", "ns", Lower),
    ("host.speed", "x", Higher),
    ("trace.overhead_frac.engine-ccf", "fraction", Lower),
    ("trace.overhead_frac.engine-sharing", "fraction", Lower),
    ("trace.overhead_frac.serve-journal", "fraction", Lower),
    ("trace.overhead_frac.checker-full", "fraction", Lower),
    ("serial_accesses_per_s.ccf", "accesses/s", Higher),
    ("sliced1_accesses_per_s.ccf", "accesses/s", Higher),
    ("sliced2_accesses_per_s.ccf", "accesses/s", Higher),
    ("serial_accesses_per_s.sharing", "accesses/s", Higher),
    ("sliced1_accesses_per_s.sharing", "accesses/s", Higher),
    ("sliced2_accesses_per_s.sharing", "accesses/s", Higher),
    ("workloads.next_access_ns.ccf", "ns", Lower),
    ("workloads.next_access_ns.sharing", "ns", Lower),
    ("machine.access_ns.l1.ccf", "ns", Lower),
    ("machine.access_ns.l2.ccf", "ns", Lower),
    ("machine.access_ns.l1.sharing", "ns", Lower),
    ("machine.access_ns.l2.sharing", "ns", Lower),
    ("machine.prefetch_ns.ccf", "ns", Lower),
    ("machine.prefetch_ns.sharing", "ns", Lower),
    ("machine.access_ns.edtd.baseline.sharing", "ns", Lower),
    ("machine.access_ns.edtd.secdir.sharing", "ns", Lower),
    ("machine.access_ns.edtd.way-partitioned.sharing", "ns", Lower),
    ("machine.access_ns.vd.secdir.sharing", "ns", Lower),
    ("machine.access_ns.vd.vd-only.sharing", "ns", Lower),
    ("machine.access_ns.memory.baseline.sharing", "ns", Lower),
    ("machine.access_ns.memory.secdir.sharing", "ns", Lower),
    ("machine.access_ns.memory.way-partitioned.sharing", "ns", Lower),
    ("machine.access_ns.memory.vd-only.sharing", "ns", Lower),
    ("machine.dir_time_share.ccf", "fraction", Lower),
    ("machine.dir_time_share.sharing", "fraction", Lower),
    ("machine.share.l1.ccf", "fraction", Higher),
    ("machine.share.l2.ccf", "fraction", Higher),
    ("machine.share.edtd.ccf", "fraction", Lower),
    ("machine.share.memory.ccf", "fraction", Lower),
    ("machine.share.l1.sharing", "fraction", Higher),
    ("machine.share.l2.sharing", "fraction", Higher),
    ("machine.share.edtd.sharing", "fraction", Lower),
    ("machine.share.vd.sharing", "fraction", Lower),
    ("machine.share.memory.sharing", "fraction", Lower),
    ("machine.invalidations_pka.td_conflict.ccf", "1/kacc", Lower),
    ("machine.invalidations_pka.quirk.ccf", "1/kacc", Lower),
    ("machine.invalidations_pka.vd_conflict.ccf", "1/kacc", Lower),
    ("machine.invalidations_pka.coherence.sharing", "1/kacc", Lower),
    ("machine.invalidations_pka.td_conflict.sharing", "1/kacc", Lower),
    ("machine.invalidations_pka.quirk.sharing", "1/kacc", Lower),
    ("machine.invalidations_pka.vd_conflict.sharing", "1/kacc", Lower),
    ("machine.inclusion_victims_pka.ccf", "1/kacc", Lower),
    ("machine.inclusion_victims_pka.sharing", "1/kacc", Lower),
    ("coherence.td_conflict_discards_pka.baseline.sharing", "1/kacc", Lower),
    ("coherence.td_conflict_discards_pka.secdir.sharing", "1/kacc", Lower),
    ("coherence.td_conflict_discards_pka.way-partitioned.sharing", "1/kacc", Lower),
    ("coherence.vd_inserts_pka.secdir.sharing", "1/kacc", Lower),
    ("coherence.vd_inserts_pka.vd-only.sharing", "1/kacc", Lower),
    ("coherence.cuckoo_steps_per_insert.secdir.sharing", "steps", Lower),
    ("coherence.cuckoo_steps_per_insert.vd-only.sharing", "steps", Lower),
    ("coherence.eb_probe_ratio.secdir.sharing", "fraction", Lower),
    ("coherence.eb_probe_ratio.vd-only.sharing", "fraction", Lower),
    ("engine.serial_residual_ns.ccf", "ns", Lower),
    ("engine.serial_residual_ns.sharing", "ns", Lower),
    ("sliced.call_fixed_us.t1", "us", Lower),
    ("sliced.call_fixed_us.t2", "us", Lower),
    ("sliced.t2_speedup.ccf", "x", Higher),
    ("sliced.t2_speedup.sharing", "x", Higher),
    ("sliced.over_serial.ccf", "x", Higher),
    ("sliced.over_serial.sharing", "x", Higher),
    ("core.vd_insert_ns", "ns", Lower),
    ("core.vd_lookup_ns", "ns", Lower),
    ("coherence.request_ns.baseline", "ns", Lower),
    ("coherence.request_ns.secdir", "ns", Lower),
    ("serve_binary_retired_per_s", "refs/s", Higher),
    ("serve_jsonl_retired_per_s", "refs/s", Higher),
    ("resume_retired_per_s", "refs/s", Higher),
    ("decode_mb_per_s", "MB/s", Higher),
    ("journal_bytes_per_ref", "bytes", Lower),
    ("serve.source_ns_per_ref", "ns", Lower),
    ("serve.write_ns_per_ref.binary", "ns", Lower),
    ("serve.write_ns_per_ref.jsonl", "ns", Lower),
    ("serve.flush_ns_per_ref.binary", "ns", Lower),
    ("serve.flush_ns_per_ref.jsonl", "ns", Lower),
    ("serve.flushes_per_run.binary", "count", Lower),
    ("serve.flushes_per_run.jsonl", "count", Lower),
    ("serve.core_self_ns_per_ref.binary", "ns", Lower),
    ("serve.core_self_ns_per_ref.jsonl", "ns", Lower),
    ("serve.jsonl_encode_extra_ns_per_ref", "ns", Lower),
    ("serve.commit_gap_us.p50", "us", Lower),
    ("serve.commit_gap_us.p99", "us", Lower),
    ("serve.audit_verify_us", "us", Lower),
    ("serve.audits_per_run", "count", Lower),
    ("serve.resume_extra_ns_per_ref", "ns", Lower),
    ("serve.decode_ns_per_byte", "ns", Lower),
    ("verif.unpack_ns", "ns", Lower),
    ("verif.invariant_ns", "ns", Lower),
    ("verif.successors_ns", "ns", Lower),
    ("verif.canon_ns", "ns", Lower),
    ("verif.dedupe_ns", "ns", Lower),
    ("verif.new_state_frac", "fraction", Lower),
    ("verif.peak_bytes", "bytes", Lower),
    ("verif.t2_speedup", "x", Higher),
];

/// Timed windows per engine configuration.
const WINDOWS: usize = 3;

/// Traced serve operations.
const SERVE_OPS: usize = 3;

pub struct Census<'a> {
    pub seed: u64,
    pub smoke: bool,
    pub cal: TimerCal,
    pub tracer: &'a mut Tracer,
    pub metrics: Metrics,
    pub checks: Checks,
}

impl Census<'_> {
    pub fn run(&mut self) -> Result<(), String> {
        self.metrics.put("trace.timer_ns", "ns", self.cal.pair_ns);
        self.metrics
            .put("host.speed", "x", host::Reference::new().speed());
        let mut ccf = self.engine(&engine::CCF)?;
        if let Some(rig) = ccf.iter_mut().find(|r| r.kind == DirectoryKind::SecDir) {
            let t1 = micro::sliced_call_us(&mut rig.sliced1);
            let t2 = micro::sliced_call_us(&mut rig.sliced2);
            self.metrics.put("sliced.call_fixed_us.t1", "us", t1);
            self.metrics.put("sliced.call_fixed_us.t2", "us", t2);
        }
        drop(ccf);
        self.engine(&engine::SHARING)?;
        let seed = self.seed;
        self.metrics
            .put("core.vd_insert_ns", "ns", micro::vd_insert_ns(seed));
        self.metrics
            .put("core.vd_lookup_ns", "ns", micro::vd_lookup_ns(seed));
        for kind in [DirectoryKind::Baseline, DirectoryKind::SecDir] {
            let ns = micro::request_ns(kind, seed);
            self.metrics
                .put(format!("coherence.request_ns.{}", kind.name()), "ns", ns);
        }
        self.serve()?;
        self.checker();
        self.metrics.conform(PER_LAYER)
    }

    fn overhead(&mut self, workload: &str, traced_rate: f64, plain_rate: f64) {
        self.metrics.put(
            format!("trace.overhead_frac.{workload}"),
            "fraction",
            1.0 - traced_rate / plain_rate,
        );
    }
}

/// One directory kind's configurations on one engine input, and what its
/// serial windows took.
pub struct Rig {
    pub kind: DirectoryKind,
    plain: Config,
    traced: Machine,
    src: Buffered,
    trace: EngineTrace,
    replayed: Machine,
    pub sliced1: Config,
    pub sliced2: Config,
    before: (MachineStats, DirSliceStats),
    accesses: u64,
    plain_s: f64,
    traced_s: f64,
    replay_s: f64,
}

/// Counter deltas of one kind's traced machine over the timed windows.
struct Deltas {
    /// Accesses, then served by L1, L2, ED/TD, VD, memory.
    served: [u64; 6],
    inclusion_victims: u64,
    invalidations: [u64; 4],
    dir: DirSliceStats,
}

fn deltas(rig: &Rig) -> Deltas {
    let stats = rig.traced.stats();
    let sum = |s: &MachineStats, f: fn(&secdir_machine::CoreStats) -> u64| -> u64 {
        s.cores.iter().map(f).sum()
    };
    let fields: [fn(&secdir_machine::CoreStats) -> u64; 7] = [
        |c| c.accesses,
        |c| c.l1_hits,
        |c| c.l2_hits,
        |c| c.ed_td_hits,
        |c| c.vd_hits,
        |c| c.memory_accesses,
        |c| c.inclusion_victims,
    ];
    let d: Vec<u64> = fields
        .iter()
        .map(|&f| sum(stats, f) - sum(&rig.before.0, f))
        .collect();
    let mut invalidations = [0; 4];
    for (i, v) in invalidations.iter_mut().enumerate() {
        *v = stats.invalidations_by_cause[i] - rig.before.0.invalidations_by_cause[i];
    }
    Deltas {
        served: [d[0], d[1], d[2], d[3], d[4], d[5]],
        inclusion_victims: d[6],
        invalidations,
        dir: rig.traced.directory_stats().diff(&rig.before.1),
    }
}

fn per_k(count: u64, accesses: u64) -> f64 {
    count as f64 * 1e3 / accesses as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

impl Census<'_> {
    /// Engine layers on one input: per window and kind, an untraced serial
    /// window; the same window re-driven with every call timed and
    /// recorded, on a twin machine; the recorded machine calls replayed
    /// without clocks on a third twin; and the two sliced lanes. All three
    /// serial twins must end every window with equal statistics.
    ///
    /// Reading the clock around a call stalls the pipeline around it, so
    /// timed calls read slower than they run. The per-call times are
    /// therefore scaled, per kind, to add up to the replay's wall time,
    /// and the scheduler's residual is the untraced window less the replay
    /// and the stream pulls.
    fn engine(&mut self, mix: &Mix) -> Result<Vec<Rig>, String> {
        let window = engine::scaled(mix.window, self.smoke);
        let warmup = engine::scaled(mix.trace_warmup, self.smoke);
        let tag = mix.tag;
        let mut rigs: Vec<Rig> = KINDS
            .into_iter()
            .map(|kind| {
                let serial = || Config::new(mix, kind, Lane::Serial, self.seed, warmup);
                let (traced, replayed) = (serial(), serial());
                let before = (
                    traced.machine.stats().clone(),
                    traced.machine.directory_stats(),
                );
                Rig {
                    kind,
                    plain: serial(),
                    traced: traced.machine,
                    src: Buffered::new(traced.streams),
                    trace: EngineTrace::new(),
                    replayed: replayed.machine,
                    sliced1: Config::new(mix, kind, Lane::Sliced1, self.seed, warmup),
                    sliced2: Config::new(mix, kind, Lane::Sliced2, self.seed, warmup),
                    before,
                    accesses: 0,
                    plain_s: 0.0,
                    traced_s: 0.0,
                    replay_s: 0.0,
                }
            })
            .collect();

        let mut lanes: [Vec<f64>; 3] = Default::default();
        for _ in 0..WINDOWS {
            let trace_id = self.tracer.new_trace();
            let mut lane_work = [(0u64, 0f64); 3];
            let mut failures = Vec::new();
            for rig in &mut rigs {
                let kind = rig.kind.name();
                let span = self
                    .tracer
                    .open(trace_id, None, "engine.window.serial", kind);
                let (plain, wall) = rig.plain.window(window);
                self.tracer.close(span);
                let span = self
                    .tracer
                    .open(trace_id, None, "engine.window.traced", kind);
                let traced =
                    engine::traced_window(&mut rig.traced, &mut rig.src, window, &mut rig.trace);
                rig.traced_s += self.tracer.close(span) as f64 / 1e9;
                let span = self
                    .tracer
                    .open(trace_id, None, "engine.window.replay", kind);
                engine::replay(&mut rig.replayed, &rig.trace.steps);
                rig.replay_s += self.tracer.close(span) as f64 / 1e9;
                if !same_results(&rig.plain.machine, &plain, &rig.traced, &traced) {
                    failures.push(format!(
                        "{tag} {kind}: traced driver diverged from run_workload"
                    ));
                }
                if rig.replayed.stats() != rig.plain.machine.stats()
                    || rig.replayed.directory_stats() != rig.plain.machine.directory_stats()
                {
                    failures.push(format!(
                        "{tag} {kind}: replayed calls diverged from run_workload"
                    ));
                }
                rig.accesses += accesses(&plain);
                rig.plain_s += wall;
                let span = self
                    .tracer
                    .open(trace_id, None, "engine.window.sliced1", kind);
                let (s1, w1) = rig.sliced1.window(window);
                self.tracer.close(span);
                let span = self
                    .tracer
                    .open(trace_id, None, "engine.window.sliced2", kind);
                let (s2, w2) = rig.sliced2.window(window);
                self.tracer.close(span);
                if !same_results(&rig.sliced1.machine, &s1, &rig.sliced2.machine, &s2) {
                    failures.push(format!("{tag} {kind}: sliced@1 and sliced@2 differ"));
                }
                for (i, (s, w)) in [(&plain, wall), (&s1, w1), (&s2, w2)]
                    .into_iter()
                    .enumerate()
                {
                    lane_work[i].0 += accesses(s);
                    lane_work[i].1 += w;
                }
            }
            self.checks.record(failures);
            for (samples, (acc, wall)) in lanes.iter_mut().zip(lane_work) {
                samples.push(acc as f64 / wall);
            }
        }

        let rates: Vec<f64> = lanes.iter().map(|s| median_of(s)).collect();
        for (lane, rate) in LANES.iter().zip(&rates) {
            self.metrics.put(
                format!("{}_accesses_per_s.{tag}", lane.name()),
                "accesses/s",
                *rate,
            );
        }
        self.metrics
            .put(format!("sliced.t2_speedup.{tag}"), "x", rates[2] / rates[1]);
        self.metrics.put(
            format!("sliced.over_serial.{tag}"),
            "x",
            rates[1] / rates[0],
        );
        let sum = |f: &dyn Fn(&Rig) -> f64| -> f64 { rigs.iter().map(f).sum() };
        let (acc, plain_s) = (sum(&|r| r.accesses as f64), sum(&|r| r.plain_s));
        self.overhead(
            &format!("engine-{tag}"),
            acc / sum(&|r| r.traced_s),
            acc / plain_s,
        );

        let cal = self.cal;
        // Streams are pulled in batches, one clock pair per batch.
        let next_ns = sum(&|r| r.trace.next_ns as f64 - r.trace.next_batches as f64 * cal.bias_ns);
        let next_access_ns = next_ns.max(0.0) / sum(&|r| r.trace.next_refs as f64);
        self.metrics.put(
            format!("workloads.next_access_ns.{tag}"),
            "ns",
            next_access_ns,
        );
        // Host ns of each slot (access classes, then prefetch), scaled per
        // kind so that a kind's calls add up to its replay.
        let scaled: Vec<[f64; PREFETCH + 1]> = rigs
            .iter()
            .map(|r| {
                let t = &r.trace;
                let ns: [f64; PREFETCH + 1] = std::array::from_fn(|c| {
                    cal.per_call(t.call_ns[c], t.calls[c]) * t.calls[c] as f64
                });
                let scale = r.replay_s * 1e9 / ns.iter().sum::<f64>();
                ns.map(|v| v * scale)
            })
            .collect();
        let pooled = |c: usize| {
            scaled.iter().map(|ns| ns[c]).sum::<f64>()
                / rigs.iter().map(|r| r.trace.calls[c]).sum::<u64>() as f64
        };
        for (c, class) in CLASSES.iter().enumerate().take(2) {
            self.metrics
                .put(format!("machine.access_ns.{class}.{tag}"), "ns", pooled(c));
        }
        self.metrics
            .put(format!("machine.prefetch_ns.{tag}"), "ns", pooled(PREFETCH));
        let replay_ns = sum(&|r| r.replay_s) * 1e9;
        let dir_ns: f64 = scaled.iter().map(|ns| ns[2] + ns[3] + ns[4]).sum();
        self.metrics.put(
            format!("machine.dir_time_share.{tag}"),
            "fraction",
            dir_ns / replay_ns,
        );
        let residual = (plain_s * 1e9 - replay_ns) / acc - next_access_ns;
        self.metrics
            .put(format!("engine.serial_residual_ns.{tag}"), "ns", residual);

        // Directory-class costs per kind, where the class occurs on this
        // input at all.
        let kinds_with = |class: &str| -> &'static [DirectoryKind] {
            match (tag, class) {
                ("sharing", "edtd") => &KINDS[..3],
                ("sharing", "vd") => &[DirectoryKind::SecDir, DirectoryKind::SecDirVdOnly],
                ("sharing", "memory") => &KINDS,
                _ => &[],
            }
        };
        for (c, class) in CLASSES.iter().enumerate().skip(2) {
            for &kind in kinds_with(class) {
                let k = rigs
                    .iter()
                    .position(|r| r.kind == kind)
                    .expect("every kind has a rig");
                let ns = scaled[k][c] / rigs[k].trace.calls[c].max(1) as f64;
                self.metrics.put(
                    format!("machine.access_ns.{class}.{}.{tag}", kind.name()),
                    "ns",
                    ns,
                );
            }
        }

        // Exact counts over the traced windows.
        let all: Vec<Deltas> = rigs.iter().map(deltas).collect();
        let total = |f: &dyn Fn(&Deltas) -> u64| -> u64 { all.iter().map(f).sum() };
        let acc = total(&|d| d.served[0]);
        for (i, class) in CLASSES.iter().enumerate() {
            if tag == "ccf" && *class == "vd" {
                continue; // no VD hits on a core-cache-fitting mix
            }
            let share = ratio(total(&|d| d.served[i + 1]), acc);
            self.metrics
                .put(format!("machine.share.{class}.{tag}"), "fraction", share);
        }
        let causes = ["coherence", "td_conflict", "quirk", "vd_conflict"];
        for (i, cause) in causes.iter().enumerate() {
            if tag == "ccf" && *cause == "coherence" {
                continue; // no sharing, so no coherence invalidations
            }
            let v = per_k(total(&|d| d.invalidations[i]), acc);
            self.metrics.put(
                format!("machine.invalidations_pka.{cause}.{tag}"),
                "1/kacc",
                v,
            );
        }
        let victims = per_k(total(&|d| d.inclusion_victims), acc);
        self.metrics.put(
            format!("machine.inclusion_victims_pka.{tag}"),
            "1/kacc",
            victims,
        );
        if tag == "sharing" {
            for (rig, d) in rigs.iter().zip(&all) {
                let kind = rig.kind.name();
                let a = d.served[0];
                if rig.kind != DirectoryKind::SecDirVdOnly {
                    self.metrics.put(
                        format!("coherence.td_conflict_discards_pka.{kind}.sharing"),
                        "1/kacc",
                        per_k(d.dir.td_conflict_discards, a),
                    );
                }
                if rig.kind.has_vd() {
                    self.metrics.put(
                        format!("coherence.vd_inserts_pka.{kind}.sharing"),
                        "1/kacc",
                        per_k(d.dir.vd_inserts, a),
                    );
                    self.metrics.put(
                        format!("coherence.cuckoo_steps_per_insert.{kind}.sharing"),
                        "steps",
                        ratio(d.dir.cuckoo_relocations, d.dir.vd_inserts),
                    );
                    self.metrics.put(
                        format!("coherence.eb_probe_ratio.{kind}.sharing"),
                        "fraction",
                        ratio(d.dir.vd_bank_probes, d.dir.vd_bank_probes_without_eb),
                    );
                }
            }
        }
        Ok(rigs)
    }

    /// Serve layers: untraced operations for the per-path rates, then
    /// binary and JSONL runs through a timing sink and timing streams,
    /// whose journals must equal the untraced ones.
    fn serve(&mut self) -> Result<(), String> {
        let cal = self.cal;
        let cfg = serve::config(self.seed, self.smoke);
        let refs = (serve::TENANTS as u64) * cfg.tenants[0].refs;
        let mut per: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut push = |name: &str, v: f64| per.entry(name.to_string()).or_default().push(v);
        for op_index in 0..SERVE_OPS {
            let trace_id = self.tracer.new_trace();
            let root = self.tracer.open(trace_id, None, "serve.op", "");
            let plain = self
                .tracer
                .open(trace_id, Some(root), "serve.op.untraced", "");
            let (op, mut failures) = serve::op(&cfg)?;
            self.tracer.close(plain);
            for ((name, _), rate) in serve::PARTS.into_iter().zip(op.part_rates()) {
                push(name, rate);
            }
            push(
                "journal_bytes_per_ref",
                op.binary.len() as f64 / op.retired[0] as f64,
            );
            push(
                "serve.resume_extra_ns_per_ref",
                (op.walls[2] - op.walls[0]) * 1e9 / op.retired[2] as f64,
            );
            push(
                "serve.decode_ns_per_byte",
                op.walls[3] * 1e9 / op.binary.len() as f64,
            );

            let mut core_self = [0f64; 2];
            for (i, format) in [JournalFormat::Binary, JournalFormat::Jsonl]
                .into_iter()
                .enumerate()
            {
                let label = format.name();
                let origin = self.tracer.origin();
                let streams = TimingStreams::new(origin);
                let mut sink = TimingSink::new(Vec::new(), origin);
                let run_cfg = ServeConfig {
                    format,
                    ..cfg.clone()
                };
                let start = self.tracer.now_ns();
                let (report, wall) = serve::serve_to(&run_cfg, &streams, &[], &mut sink)?;
                let end = self.tracer.now_ns();
                let span =
                    self.tracer
                        .record(trace_id, Some(root), "serve.run.traced", label, start, end);
                let TimingSink { inner, events, .. } = sink;
                let reference = if i == 0 { &op.binary } else { &op.jsonl };
                if &inner != reference || !report.all_done() {
                    failures.push(format!("traced {label} run wrote a different journal"));
                }
                let mut all: Vec<Event> = events;
                all.extend(
                    streams
                        .events
                        .lock()
                        .map_err(|_| "source log poisoned")?
                        .iter(),
                );
                // Every call of the first operation is kept as a span; a
                // JSONL run alone makes a quarter of a million.
                if op_index == 0 {
                    for e in &all {
                        let name = match e.ev {
                            Ev::Source => "serve.source",
                            Ev::Write => "serve.write",
                            Ev::Flush => "serve.flush",
                        };
                        self.tracer
                            .record(trace_id, Some(span), name, label, e.start, e.end);
                    }
                }
                // Corrected ns, calls, and refs or bytes moved, per kind.
                let sum = |ev: Ev| -> (f64, u64, u64) {
                    let (ns, calls, n) =
                        all.iter().filter(|e| e.ev == ev).fold((0, 0, 0), |a, e| {
                            (a.0 + e.end - e.start, a.1 + 1, a.2 + e.n)
                        });
                    ((ns as f64 - calls as f64 * cal.bias_ns).max(0.0), calls, n)
                };
                let (write_ns, _, _) = sum(Ev::Write);
                let (flush_ns, flushes, _) = sum(Ev::Flush);
                push(
                    &format!("serve.write_ns_per_ref.{label}"),
                    write_ns / refs as f64,
                );
                push(
                    &format!("serve.flush_ns_per_ref.{label}"),
                    flush_ns / refs as f64,
                );
                push(&format!("serve.flushes_per_run.{label}"), flushes as f64);
                let self_ns = trace::self_ns(start, end, all.iter().map(|e| (e.start, e.end)));
                core_self[i] = cal.exclusive(self_ns, all.len() as u64) / refs as f64;
                push(&format!("serve.core_self_ns_per_ref.{label}"), core_self[i]);
                if format == JournalFormat::Binary {
                    let (source_ns, _, pulled) = sum(Ev::Source);
                    push("serve.source_ns_per_ref", source_ns / pulled as f64);
                    let mut ends: Vec<u64> = all
                        .iter()
                        .filter(|e| e.ev == Ev::Flush)
                        .map(|e| e.end)
                        .collect();
                    ends.sort_unstable();
                    let mut gaps: Vec<f64> = ends
                        .windows(2)
                        .map(|w| (w[1] - w[0]) as f64 / 1e3)
                        .collect();
                    gaps.sort_by(f64::total_cmp);
                    push("serve.commit_gap_us.p50", percentile(&gaps, 50.0));
                    push("serve.commit_gap_us.p99", percentile(&gaps, 99.0));
                    push("traced_binary_wall", wall);
                }
            }
            push(
                "serve.jsonl_encode_extra_ns_per_ref",
                core_self[1] - core_self[0],
            );
            push("binary_wall", op.walls[0]);
            self.tracer.close(root);
            self.checks.record(failures);
        }
        let plain = median_of(&per["binary_wall"]);
        let traced = median_of(&per["traced_binary_wall"]);
        for (name, unit, _) in PER_LAYER {
            if let Some(v) = per.get(*name) {
                self.metrics.put(*name, unit, median_of(v));
            }
        }
        self.overhead("serve-journal", refs as f64 / traced, refs as f64 / plain);
        self.metrics.put(
            "serve.audit_verify_us",
            "us",
            micro::audit_verify_us(self.seed, cfg.tenants[0].refs)?,
        );
        self.metrics.put(
            "serve.audits_per_run",
            "count",
            serve::audits_per_run(&cfg) as f64,
        );
        Ok(())
    }

    /// Checker layers: the external search over every kind, timed per
    /// call, which must reach the pinned counts.
    fn checker(&mut self) {
        let cal = self.cal;
        let pinned = checker::pinned(self.smoke);
        let mut probe = Timed::<5>::new();
        let (mut states, mut transitions) = (0usize, 0usize);
        let mut secdir_traced = 0.0;
        for (i, kind) in DirKind::ALL.into_iter().enumerate() {
            let trace_id = self.tracer.new_trace();
            let span = self.tracer.open(trace_id, None, "verif.bfs", kind.name());
            let b = bfs(checker::model_config(kind, self.smoke), &mut probe);
            let ns = self.tracer.close(span);
            if kind == DirKind::SecDir {
                secdir_traced = ns as f64;
            }
            self.checks.record(checker::check_counts(
                kind,
                (b.states, b.transitions),
                pinned[i],
                b.violation.as_deref(),
            ));
            states += b.states;
            transitions += b.transitions;
        }
        for (name, slot) in [
            ("verif.unpack_ns", UNPACK),
            ("verif.invariant_ns", INVARIANT),
            ("verif.successors_ns", SUCCESSORS),
            ("verif.canon_ns", CANON),
            ("verif.dedupe_ns", DEDUPE),
        ] {
            self.metrics.put(name, "ns", probe.per_call(&cal, slot));
        }
        self.metrics.put(
            "verif.new_state_frac",
            "fraction",
            (states - DirKind::ALL.len()) as f64 / transitions as f64,
        );

        let secdir = checker::model_config(DirKind::SecDir, self.smoke);
        let start = Instant::now();
        let plain = bfs(secdir, &mut Off);
        let plain_ns = start.elapsed().as_nanos() as f64;
        let n = plain.states as f64;
        self.overhead("checker-full", n / secdir_traced, n / plain_ns);
        let mut walls = [0.0; 2];
        let mut peak = 0;
        for (i, threads) in [1, 2].into_iter().enumerate() {
            let start = Instant::now();
            let r = check_opt(
                secdir,
                &CheckOptions {
                    canonicalize: true,
                    threads,
                },
            );
            walls[i] = start.elapsed().as_secs_f64();
            peak = r.peak_bytes;
        }
        self.metrics.put("verif.peak_bytes", "bytes", peak as f64);
        self.metrics
            .put("verif.t2_speedup", "x", walls[0] / walls[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::report::END_TO_END;

    fn catalogue(list: &Json) -> Vec<(String, String, String)> {
        list.as_arr()
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(list: &[(&str, &str, Better)]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|(n, u, b)| {
                let b = if *b == Higher { "higher" } else { "lower" };
                (n.to_string(), u.to_string(), b.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_measured_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = parse(&text).unwrap();
        let mut e2e = catalogue(spec.get("end_to_end").unwrap());
        let mut want = ours(&END_TO_END);
        e2e.sort();
        want.sort();
        assert_eq!(e2e, want);
        assert_eq!(catalogue(spec.get("per_layer").unwrap()), ours(PER_LAYER));
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert!(names.len() <= 128);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit, _) in PER_LAYER {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
