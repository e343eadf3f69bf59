//! Engine-throughput measurement (`secdir-sim perf`, `BENCH_throughput.json`).
//!
//! Every figure in this reproduction is statistics over `Machine::access`
//! calls, so simulator throughput — accesses per wall-clock second —
//! directly bounds how many sweep cells and attack trials a campaign can
//! afford. This module measures that number per directory kind, three
//! ways:
//!
//! * **serial** and **sliced**: one machine, one timed measured phase
//!   (the warm-up is excluded from the clock and the count), driven by
//!   the serial reference engine or by the slice-parallel epoch engine
//!   ([`Engine`]). One function times both: sliced rows come one per
//!   ([`PerfSpec::slice_threads`], [`PerfSpec::epoch_batches`])
//!   combination, each carrying its `epoch_batch`/`pipeline` tuning.
//! * **sweep**: a seed-replicated cell matrix fanned out through
//!   [`sweep`] — the harness-level speed, warm-up
//!   included in both the clock and the count, recorded as
//!   `warmup_timed:true` so the two modes are never mistaken for
//!   comparable rates.
//!
//! Results serialize to JSONL with a fixed field order (`schema`
//! `secdir-bench-throughput/4`, documented in EXPERIMENTS.md) so
//! `BENCH_throughput.json` diffs cleanly across PRs and the perf
//! trajectory of the engine is tracked in-repo. Every row records the
//! host's CPU count: the sliced engine's barrier spins only when its
//! threads fit the CPUs, so a threaded rate means little without it.

use std::time::Instant;

use secdir_mem::json::Writer;
use secdir_mem::par::available_cpus;
use serde::{Deserialize, Serialize};

use crate::sweep::{sweep, CellSpec, StreamFactory};
use crate::{DirectoryKind, Engine, Machine, MachineConfig, SlicedOptions};

/// Times `f` against the host's monotonic clock and returns its result
/// with the elapsed duration. The workspace lint (`secdir-sim lint`)
/// confines wall-clock reads to this module, so any caller that wants an
/// elapsed-time display routes through here instead of reading
/// [`Instant`] directly.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// What a throughput run measures: each listed directory kind, serial and
/// sweep-parallel, on one named workload.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfSpec {
    /// Directory organizations to measure.
    pub kinds: Vec<DirectoryKind>,
    /// Workload name, resolved by the [`StreamFactory`].
    pub workload: String,
    /// Core count of every machine.
    pub cores: usize,
    /// Warm-up references per core (untimed in serial mode).
    pub warmup: u64,
    /// Measured references per core.
    pub measure: u64,
    /// Cells in the sweep phase (seeds `seed..seed + sweep_cells`).
    pub sweep_cells: usize,
    /// Worker threads for the sweep phase.
    pub threads: usize,
    /// Base workload seed.
    pub seed: u64,
    /// Timed repetitions of the serial measured phase; the fastest is
    /// reported. Interference from the host (scheduler, other tenants)
    /// only ever adds time, so the minimum over a few windows estimates
    /// the engine's actual speed far better than any single window.
    pub serial_reps: usize,
    /// Slice-thread counts for the epoch-engine samples: one extra
    /// single-machine row per (thread count, epoch batch) pair, driven by
    /// [`Engine::Sliced`].
    /// Empty skips the sliced samples entirely.
    pub slice_threads: Vec<usize>,
    /// Epoch-batch values swept for the sliced samples (`--epoch-batch`).
    /// Each value produces one sliced row per `slice_threads` entry; empty
    /// skips the sliced samples, like an empty `slice_threads`.
    pub epoch_batches: Vec<usize>,
    /// Software pipelining for the sliced samples (`--pipeline`).
    pub pipeline: bool,
}

impl PerfSpec {
    /// The reference configuration tracked in `BENCH_throughput.json`:
    /// every directory kind on the 8-core Table-4 machine.
    pub fn full() -> Self {
        PerfSpec {
            kinds: DirectoryKind::ALL.to_vec(),
            workload: "mix0".to_string(),
            cores: 8,
            warmup: 20_000,
            measure: 200_000,
            sweep_cells: 8,
            threads: available_cpus(),
            seed: 0x5eed,
            serial_reps: 5,
            slice_threads: vec![1, 2, 4, 8],
            epoch_batches: vec![64],
            pipeline: false,
        }
    }

    /// A CI-sized smoke run: same shape, ~10× fewer references.
    pub fn quick() -> Self {
        PerfSpec {
            warmup: 2_000,
            measure: 20_000,
            sweep_cells: 4,
            serial_reps: 3,
            slice_threads: vec![4],
            ..PerfSpec::full()
        }
    }
}

/// One timed measurement.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfSample {
    /// Directory organization measured.
    pub directory: DirectoryKind,
    /// `"serial"`, `"sliced"`, or `"sweep"`.
    pub mode: &'static str,
    /// Epoch-engine tuning of a `"sliced"` row; `None` on the other
    /// modes (the fields are omitted from their JSON lines).
    pub tuning: Option<SlicedOptions>,
    /// Machines run (1 for serial, `sweep_cells` for sweep).
    pub cells: usize,
    /// Worker threads used (1 for the serial reference engine, the
    /// slice-thread count for epoch-engine rows).
    pub threads: usize,
    /// Whether the warm-up phase ran inside the timed window (and is
    /// therefore included in `accesses`). `false` for serial and sliced
    /// samples, `true` for sweep samples — without this flag the two
    /// modes' rates would read as comparable when they are not.
    pub warmup_timed: bool,
    /// CPUs available to the process when the sample was taken.
    pub host_cpus: usize,
    /// Memory accesses simulated inside the timed window.
    pub accesses: u64,
    /// Wall-clock duration of the timed window, in nanoseconds.
    pub nanos: u128,
}

impl PerfSample {
    /// Simulated accesses per wall-clock second (0 if nothing was timed).
    pub fn accesses_per_sec(&self) -> u64 {
        if self.nanos == 0 {
            return 0;
        }
        (self.accesses as u128 * 1_000_000_000 / self.nanos) as u64
    }

    /// One JSON object (one JSONL line, no trailing newline); fixed field
    /// order, schema `secdir-bench-throughput/4` (see EXPERIMENTS.md).
    /// Schema `/2` added `warmup_timed` after `serial_reps`; schema `/3`
    /// renamed the epoch-engine rows from `mode:"serial"` to
    /// `mode:"sliced"` and gave them `epoch_batch`/`pipeline` fields
    /// after `threads`; schema `/4` added `host_cpus` before `accesses`.
    pub fn to_json_line(&self, spec: &PerfSpec) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.obj();
        w.key("schema").str("secdir-bench-throughput/4");
        w.key("workload").str(&spec.workload);
        w.key("directory").str(self.directory.name());
        w.key("mode").str(self.mode);
        w.key("cores").u64(spec.cores as u64);
        w.key("warmup").u64(spec.warmup);
        w.key("measure").u64(spec.measure);
        w.key("serial_reps").u64(spec.serial_reps as u64);
        w.key("warmup_timed").bool(self.warmup_timed);
        w.key("cells").u64(self.cells as u64);
        w.key("threads").u64(self.threads as u64);
        if let Some(t) = self.tuning {
            w.key("epoch_batch").u64(t.epoch_batch as u64);
            w.key("pipeline").bool(t.pipeline);
        }
        w.key("host_cpus").u64(self.host_cpus as u64);
        w.key("accesses").u64(self.accesses);
        w.key("nanos").u128(self.nanos);
        w.key("accesses_per_sec").u64(self.accesses_per_sec());
        w.end_obj();
        out
    }
}

fn cell_for(spec: &PerfSpec, kind: DirectoryKind, seed: u64) -> CellSpec {
    CellSpec {
        workload: spec.workload.clone(),
        kind,
        seed,
        cores: spec.cores,
        warmup: spec.warmup,
        measure: spec.measure,
    }
}

/// Times the measured phase of one cell on `engine`: the warm-up runs
/// before the clock starts, and the measured phase repeats
/// `spec.serial_reps` times on the same warm machine (the streams keep
/// advancing, staying in steady state); the fastest window is reported, so
/// the sample reflects steady-state engine speed rather than host
/// scheduling noise. A serial window is a `mode:"serial"` row; a sliced
/// one is a `mode:"sliced"` row (one machine, one cell) recording its
/// worker count in `threads` and its tuning.
fn measure_window<F: StreamFactory + ?Sized>(
    spec: &PerfSpec,
    kind: DirectoryKind,
    factory: &F,
    engine: Engine,
) -> PerfSample {
    let cell = cell_for(spec, kind, spec.seed);
    let mut machine = Machine::new(MachineConfig::skylake_x(cell.cores, cell.kind));
    let mut streams = factory.streams(&cell);
    engine.run(&mut machine, &mut streams, cell.warmup);
    let mut best: (u64, u128) = (0, u128::MAX);
    for _ in 0..spec.serial_reps.max(1) {
        let start = Instant::now();
        let summary = engine.run(&mut machine, &mut streams, cell.measure);
        let nanos = start.elapsed().as_nanos();
        let accesses: u64 = summary.cores.iter().map(|c| c.accesses).sum();
        if nanos < best.1 {
            best = (accesses, nanos);
        }
    }
    // `serial_reps.max(1)` guarantees at least one timed window replaced
    // the `u128::MAX` sentinel.
    let (accesses, nanos) = best;
    let (mode, tuning, threads) = match engine {
        Engine::Serial => ("serial", None, 1),
        Engine::Sliced { threads, options } => ("sliced", Some(options), threads),
    };
    PerfSample {
        directory: kind,
        mode,
        tuning,
        cells: 1,
        threads,
        warmup_timed: false,
        host_cpus: available_cpus(),
        accesses,
        nanos,
    }
}

/// Times a whole seed-replicated sweep (warm-up inside the clock, so the
/// count includes it too — recorded as `warmup_timed:true`):
/// harness-level throughput at `spec.threads`.
fn measure_sweep<F: StreamFactory + ?Sized>(
    spec: &PerfSpec,
    kind: DirectoryKind,
    factory: &F,
) -> PerfSample {
    let cells: Vec<CellSpec> = (0..spec.sweep_cells as u64)
        .map(|i| cell_for(spec, kind, spec.seed + i))
        .collect();
    let start = Instant::now();
    let results = sweep(&cells, factory, spec.threads.max(1));
    let nanos = start.elapsed().as_nanos();
    PerfSample {
        directory: kind,
        mode: "sweep",
        tuning: None,
        cells: cells.len(),
        threads: spec.threads.max(1),
        warmup_timed: true,
        host_cpus: available_cpus(),
        accesses: results.iter().map(|r| r.stats.total_accesses()).sum(),
        nanos,
    }
}

/// Runs the full measurement: for each kind in `spec.kinds`, one serial
/// sample, one epoch-engine sample per ([`PerfSpec::slice_threads`],
/// [`PerfSpec::epoch_batches`]) pair, then one sweep sample, in spec
/// order.
pub fn measure<F: StreamFactory + ?Sized>(spec: &PerfSpec, factory: &F) -> Vec<PerfSample> {
    let per_kind = 2 + spec.slice_threads.len() * spec.epoch_batches.len();
    let mut out = Vec::with_capacity(spec.kinds.len() * per_kind);
    for &kind in &spec.kinds {
        out.push(measure_window(spec, kind, factory, Engine::Serial));
        for &threads in &spec.slice_threads {
            for &batch in &spec.epoch_batches {
                let options = SlicedOptions {
                    epoch_batch: batch,
                    pipeline: spec.pipeline,
                };
                out.push(measure_window(
                    spec,
                    kind,
                    factory,
                    Engine::Sliced { threads, options },
                ));
            }
        }
        out.push(measure_sweep(spec, kind, factory));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Access, AccessStream};
    use secdir_mem::LineAddr;

    fn factory(cell: &CellSpec) -> Vec<Box<dyn AccessStream + 'static>> {
        (0..cell.cores)
            .map(|c| {
                let base = (c as u64 + 1) << 20;
                let seed = cell.seed;
                Box::new((0..100_000u64).map(move |i| {
                    Access::read(LineAddr::new(base + (i.wrapping_mul(seed | 1) % 512)))
                })) as Box<dyn AccessStream>
            })
            .collect()
    }

    fn tiny_spec() -> PerfSpec {
        PerfSpec {
            kinds: vec![DirectoryKind::Baseline, DirectoryKind::SecDir],
            workload: "stride".to_string(),
            cores: 2,
            warmup: 200,
            measure: 1_000,
            sweep_cells: 2,
            threads: 2,
            seed: 7,
            serial_reps: 3,
            slice_threads: vec![2],
            epoch_batches: vec![64, 256],
            pipeline: false,
        }
    }

    #[test]
    fn accesses_per_sec_is_rate() {
        let s = PerfSample {
            directory: DirectoryKind::Baseline,
            mode: "serial",
            tuning: None,
            cells: 1,
            threads: 1,
            warmup_timed: false,
            host_cpus: 2,
            accesses: 500,
            nanos: 250_000_000, // 0.25 s
        };
        assert_eq!(s.accesses_per_sec(), 2_000);
        let zero = PerfSample { nanos: 0, ..s };
        assert_eq!(zero.accesses_per_sec(), 0);
    }

    #[test]
    fn measure_counts_the_right_windows() {
        let spec = tiny_spec();
        let samples = measure(&spec, &factory);
        let per_kind = 2 + spec.slice_threads.len() * spec.epoch_batches.len();
        assert_eq!(samples.len(), spec.kinds.len() * per_kind);
        for group in samples.chunks(per_kind) {
            let serial = &group[0];
            let swept = &group[per_kind - 1];
            assert_eq!(serial.mode, "serial");
            assert_eq!(serial.threads, 1);
            assert_eq!(serial.tuning, None);
            assert_eq!(swept.mode, "sweep");
            assert_eq!(swept.tuning, None);
            assert_eq!(serial.directory, swept.directory);
            // Serial counts only the measured phase, untimed warm-up …
            assert_eq!(serial.accesses, spec.measure * spec.cores as u64);
            assert!(!serial.warmup_timed);
            // … epoch-engine rows use the same window discipline, one per
            // (thread count, epoch batch) pair with the tuning recorded …
            let mut expected = Vec::new();
            for &st in &spec.slice_threads {
                for &batch in &spec.epoch_batches {
                    expected.push((st, batch));
                }
            }
            for (sliced, &(st, batch)) in group[1..per_kind - 1].iter().zip(&expected) {
                assert_eq!(sliced.mode, "sliced");
                assert_eq!(sliced.threads, st);
                assert_eq!(
                    sliced.tuning,
                    Some(SlicedOptions {
                        epoch_batch: batch,
                        pipeline: false,
                    })
                );
                assert_eq!(sliced.directory, serial.directory);
                assert_eq!(sliced.accesses, spec.measure * spec.cores as u64);
                assert!(!sliced.warmup_timed);
                assert!(sliced.accesses_per_sec() > 0);
            }
            // … the sweep counts warm-up + measure over every cell, and
            // says so.
            assert_eq!(
                swept.accesses,
                (spec.warmup + spec.measure) * (spec.cores * spec.sweep_cells) as u64
            );
            assert!(swept.warmup_timed);
            assert!(serial.accesses_per_sec() > 0);
            assert!(swept.accesses_per_sec() > 0);
        }
    }

    #[test]
    fn json_lines_have_the_documented_schema() {
        let spec = tiny_spec();
        let s = PerfSample {
            directory: DirectoryKind::SecDir,
            mode: "sweep",
            tuning: None,
            cells: 2,
            threads: 2,
            warmup_timed: true,
            host_cpus: 2,
            accesses: 4_800,
            nanos: 1_200_000,
        };
        let line = s.to_json_line(&spec);
        assert!(line.starts_with("{\"schema\":\"secdir-bench-throughput/4\""));
        assert!(line.contains("\"directory\":\"secdir\""));
        assert!(line.contains("\"mode\":\"sweep\""));
        assert!(line.contains("\"warmup_timed\":true,\"cells\":2"));
        assert!(line.contains("\"host_cpus\":2,\"accesses\":4800"));
        assert!(!line.contains("epoch_batch"), "tuning only on sliced rows");
        assert!(line.ends_with(&format!("\"accesses_per_sec\":{}}}", s.accesses_per_sec())));
    }

    #[test]
    fn sliced_json_lines_carry_their_tuning() {
        let spec = tiny_spec();
        let s = PerfSample {
            directory: DirectoryKind::SecDir,
            mode: "sliced",
            tuning: Some(SlicedOptions {
                epoch_batch: 256,
                pipeline: true,
            }),
            cells: 1,
            threads: 4,
            warmup_timed: false,
            host_cpus: 2,
            accesses: 4_800,
            nanos: 1_200_000,
        };
        let line = s.to_json_line(&spec);
        assert!(line.starts_with("{\"schema\":\"secdir-bench-throughput/4\""));
        assert!(line.contains("\"mode\":\"sliced\""));
        assert!(
            line.contains("\"threads\":4,\"epoch_batch\":256,\"pipeline\":true,\"host_cpus\":2,")
        );
    }
}
