//! Parallel experiment-sweep harness.
//!
//! Every paper figure (Fig 5–8, Tables 6–7) is regenerated by running the
//! same deterministic single-threaded simulator over a workload ×
//! directory-kind × seed matrix — an embarrassingly parallel shape. This
//! module makes that shape first-class:
//!
//! * [`SweepMatrix`] declares the matrix; [`SweepMatrix::cells`] expands it
//!   into [`CellSpec`]s (the cartesian product, in deterministic order).
//! * A [`StreamFactory`] maps a cell to its per-core reference streams.
//!   The factory lives outside this crate's vocabulary on purpose: workload
//!   generators (`secdir-workloads`) depend on `secdir-machine`, so the
//!   harness takes a closure instead of naming them.
//! * [`run_matrix`] fans the cells out over OS threads with
//!   [`par::for_each_claimed`] — std only, per DESIGN.md §5: each
//!   [`Machine`] is single-threaded and deterministic, cells share
//!   nothing, so scoped threads with an atomic work index are all the
//!   machinery needed.
//!   Results come back indexed by cell, so the output is **bit-identical
//!   for any worker-thread count**, including 1 (asserted by
//!   `tests/determinism.rs`).
//! * Workers are fault-isolated: each cell runs behind
//!   [`panics::contain`], so one panicking cell becomes a
//!   [`CellOutcome::Panicked`] record while the surviving workers keep
//!   draining the queue ([`SweepOptions::fail_fast`] restores
//!   stop-the-sweep behavior). [`sweep`] is the legacy all-or-nothing
//!   wrapper: it panics on the first failed cell.
//! * [`CellResult::to_json_line`] serializes a cell to one JSON object per
//!   line (JSONL); failed cells serialize as `{"status":...}` records
//!   ([`CellOutcome::to_json_line`]). [`CellOutcome::from_json_line`] is
//!   the strict inverse `--resume` reads checkpoints with. Both go through
//!   [`secdir_mem::json`], the workspace's one JSON writer and reader;
//!   the schema is documented in EXPERIMENTS.md.
//!
//! [`measure_phases`] is the one skip-then-measure window: it warms a
//! machine up, measures, and returns the measured-phase deltas
//! ([`ExperimentRun`], [`MissBreakdown`]) on either [`Engine`]. Sweep
//! cells, [`run_streams`], the `secdir-sim spec`/`parsec` reports and the
//! benches all call it.

use std::sync::atomic::{AtomicBool, Ordering};

use secdir_coherence::DirSliceStats;
use secdir_mem::json::{Reader, Writer};
use secdir_mem::par;
use serde::{Deserialize, Serialize};

use crate::{
    panics, AccessStream, CoreRun, CoreStats, DirectoryKind, Engine, Machine, MachineConfig,
    MachineStats, RunSummary,
};

/// The Figure 7(b)/8(b) L2-miss breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissBreakdown {
    /// Misses satisfied by ED/TD hits.
    pub ed_td: u64,
    /// Misses satisfied by VD hits.
    pub vd: u64,
    /// Misses that went to memory.
    pub memory: u64,
}

impl MissBreakdown {
    /// Total L2 misses.
    pub fn total(&self) -> u64 {
        self.ed_td + self.vd + self.memory
    }
}

/// The measured phase of one workload × directory-kind run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRun {
    /// Timing summary of the measured phase.
    pub summary: RunSummary,
    /// L2-miss breakdown over the measured phase.
    pub breakdown: MissBreakdown,
    /// Directory counter deltas over the measured phase.
    pub dir: DirSliceStats,
    /// Inclusion victims created during the measured phase.
    pub inclusion_victims: u64,
}

impl ExperimentRun {
    /// Mean per-core IPC.
    pub fn ipc(&self) -> f64 {
        self.summary.mean_ipc()
    }

    /// Execution time in cycles.
    pub fn cycles(&self) -> u64 {
        self.summary.cycles
    }
}

/// Warms `machine` up with `warmup` references per core, then measures
/// `measure` more, both on `engine`, returning the measured-phase deltas.
/// The measured phase asks for `measure` references, not `warmup +
/// measure`: each engine call caps its own references.
pub fn measure_phases(
    machine: &mut Machine,
    streams: &mut [Box<dyn AccessStream + '_>],
    engine: Engine,
    warmup: u64,
    measure: u64,
) -> ExperimentRun {
    engine.run(machine, streams, warmup);
    let (ed_td0, vd0, mem0) = machine.stats().miss_breakdown();
    let iv0 = machine.stats().total_inclusion_victims();
    let dir0 = machine.directory_stats();
    let summary = engine.run(machine, streams, measure);
    let (ed_td1, vd1, mem1) = machine.stats().miss_breakdown();
    ExperimentRun {
        summary,
        breakdown: MissBreakdown {
            ed_td: ed_td1 - ed_td0,
            vd: vd1 - vd0,
            memory: mem1 - mem0,
        },
        dir: machine.directory_stats().diff(&dir0),
        inclusion_victims: machine.stats().total_inclusion_victims() - iv0,
    }
}

/// Runs `streams` on a fresh Table-4 machine with one core per stream and
/// the given directory and engine, skipping `warmup` references per core
/// and measuring `measure` more.
pub fn run_streams(
    kind: DirectoryKind,
    mut streams: Vec<Box<dyn AccessStream + '_>>,
    engine: Engine,
    warmup: u64,
    measure: u64,
) -> ExperimentRun {
    let mut machine = Machine::new(MachineConfig::skylake_x(streams.len(), kind));
    measure_phases(&mut machine, &mut streams, engine, warmup, measure)
}

/// One cell of an experiment matrix.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Workload name, interpreted by the [`StreamFactory`] (e.g. "mix3").
    pub workload: String,
    /// Directory organization under test.
    pub kind: DirectoryKind,
    /// Workload-generator seed.
    pub seed: u64,
    /// Core count (= stream count the factory must produce).
    pub cores: usize,
    /// Warm-up references per core (skip phase).
    pub warmup: u64,
    /// Measured references per core.
    pub measure: u64,
}

/// A declarative experiment matrix: workload × directory kind × seed, at a
/// fixed core count and refs window.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepMatrix {
    /// Workload names (rows).
    pub workloads: Vec<String>,
    /// Directory organizations (columns).
    pub kinds: Vec<DirectoryKind>,
    /// Workload seeds (repetitions).
    pub seeds: Vec<u64>,
    /// Core count for every cell.
    pub cores: usize,
    /// Warm-up references per core for every cell.
    pub warmup: u64,
    /// Measured references per core for every cell.
    pub measure: u64,
}

impl SweepMatrix {
    /// Expands the matrix into cells, ordered workload-major, then kind,
    /// then seed. The order is part of the output contract: JSONL lines
    /// appear exactly in this order whatever the worker-thread count.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out =
            Vec::with_capacity(self.workloads.len() * self.kinds.len() * self.seeds.len());
        for w in &self.workloads {
            for &kind in &self.kinds {
                for &seed in &self.seeds {
                    out.push(CellSpec {
                        workload: w.clone(),
                        kind,
                        seed,
                        cores: self.cores,
                        warmup: self.warmup,
                        measure: self.measure,
                    });
                }
            }
        }
        out
    }
}

/// Maps a [`CellSpec`] to its per-core reference streams.
///
/// Implementations must be deterministic in `(workload, cores, seed)` —
/// the sweep harness's reproducibility guarantee is exactly as strong as
/// the factory's. Implemented for any matching `Fn` closure.
pub trait StreamFactory: Sync {
    /// Builds one stream per core for `cell`.
    fn streams(&self, cell: &CellSpec) -> Vec<Box<dyn AccessStream + 'static>>;
}

impl<F> StreamFactory for F
where
    F: Fn(&CellSpec) -> Vec<Box<dyn AccessStream + 'static>> + Sync,
{
    fn streams(&self, cell: &CellSpec) -> Vec<Box<dyn AccessStream + 'static>> {
        self(cell)
    }
}

/// The completed run of one cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell that produced this result.
    pub cell: CellSpec,
    /// Measured-phase summary and deltas.
    pub run: ExperimentRun,
    /// Full machine statistics at the end of the run (warm-up included),
    /// with the slices' merged counters in `directory`.
    pub stats: MachineStats,
}

/// Runs one cell serially on a fresh machine.
pub fn run_cell<F: StreamFactory + ?Sized>(cell: &CellSpec, factory: &F) -> CellResult {
    let mut machine = Machine::new(MachineConfig::skylake_x(cell.cores, cell.kind));
    let mut streams = factory.streams(cell);
    let run = measure_phases(
        &mut machine,
        &mut streams,
        Engine::Serial,
        cell.warmup,
        cell.measure,
    );
    let mut stats = machine.stats().clone();
    stats.directory = machine.directory_stats();
    CellResult {
        cell: cell.clone(),
        run,
        stats,
    }
}

/// How one cell of a [`run_matrix`] sweep ended.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome {
    /// The cell ran to completion. Boxed: a full [`CellResult`] is two
    /// orders of magnitude larger than the failure variants, and outcomes
    /// move through queue slots and merge maps by value.
    Done(Box<CellResult>),
    /// The cell (its factory or its run) panicked; the worker caught the
    /// unwind and kept draining the queue.
    Panicked {
        /// The failed cell.
        cell: CellSpec,
        /// The panic payload, if it was a string.
        msg: String,
    },
    /// The cell never ran because [`SweepOptions::fail_fast`] stopped the
    /// sweep after an earlier failure.
    Skipped {
        /// The unstarted cell.
        cell: CellSpec,
    },
}

impl CellOutcome {
    /// The cell this outcome belongs to.
    pub fn cell(&self) -> &CellSpec {
        match self {
            CellOutcome::Done(r) => &r.cell,
            CellOutcome::Panicked { cell, .. } | CellOutcome::Skipped { cell } => cell,
        }
    }

    /// The completed result, when the cell succeeded.
    pub fn as_done(&self) -> Option<&CellResult> {
        match self {
            CellOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the cell ran to completion.
    pub fn is_done(&self) -> bool {
        matches!(self, CellOutcome::Done(_))
    }
}

/// Knobs of a fault-tolerant [`run_matrix`] sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Worker-thread count (must be nonzero).
    pub threads: usize,
    /// Stop claiming new cells after the first failed one; unstarted cells
    /// come back as [`CellOutcome::Skipped`]. Off by default: the sweep
    /// records the failure and keeps going.
    pub fail_fast: bool,
}

impl SweepOptions {
    /// Default options at the given worker-thread count: run everything.
    pub fn new(threads: usize) -> Self {
        SweepOptions {
            threads,
            fail_fast: false,
        }
    }
}

/// Runs every cell, fanning out over [`SweepOptions::threads`] OS
/// threads (the calling thread included), and returns one
/// [`CellOutcome`] per cell, in cell order.
///
/// Each worker claims the next unstarted cell through an atomic index and
/// runs it to completion on its own freshly-built [`Machine`]; no state is
/// shared between cells, so the per-cell results are bit-identical to
/// serial [`run_cell`] runs regardless of the thread count (see
/// `tests/determinism.rs`).
///
/// # Failure semantics
///
/// This function never panics on a failing cell. Each cell (stream
/// factory included) runs behind [`panics::contain`]: a panic becomes
/// [`CellOutcome::Panicked`] carrying the panic's message, and
/// the worker moves on to the next cell. With
/// [`SweepOptions::fail_fast`], the first failure stops workers from
/// claiming *new* cells — in-flight cells still finish and are reported,
/// and every unstarted cell comes back [`CellOutcome::Skipped`]. The
/// caller decides what failure means (the CLI exits nonzero; [`sweep`]
/// panics).
///
/// # Panics
///
/// Panics if `opts.threads` is zero.
pub fn run_matrix<F: StreamFactory + ?Sized>(
    cells: &[CellSpec],
    factory: &F,
    opts: &SweepOptions,
) -> Vec<CellOutcome> {
    assert!(opts.threads > 0, "need at least one worker thread");
    let mut slots: Vec<Option<CellOutcome>> = cells.iter().map(|_| None).collect();
    let stop = AtomicBool::new(false);
    par::for_each_claimed(&mut slots, opts.threads, |i, slot| {
        let cell = &cells[i];
        // Relaxed: an advisory stop flag; a stale read runs one more cell,
        // whose outcome is kept like any other.
        if opts.fail_fast && stop.load(Ordering::Relaxed) {
            return;
        }
        let outcome = panics::contain(|| CellOutcome::Done(Box::new(run_cell(cell, factory))))
            .unwrap_or_else(|msg| CellOutcome::Panicked {
                cell: cell.clone(),
                msg,
            });
        if opts.fail_fast && !outcome.is_done() {
            // Relaxed: the flag publishes no data; outcomes travel through
            // the slots, which the scope's join orders.
            stop.store(true, Ordering::Relaxed);
        }
        *slot = Some(outcome);
    });
    slots
        .into_iter()
        .zip(cells)
        .map(|(slot, cell)| {
            // Panics are caught above, so an empty slot can only be a cell
            // nobody ran because fail-fast stopped the sweep first.
            slot.unwrap_or_else(|| CellOutcome::Skipped { cell: cell.clone() })
        })
        .collect()
}

/// Runs every cell, fanning out over `threads` OS threads, and returns the
/// results in cell order — the all-or-nothing wrapper around
/// [`run_matrix`] that the benches and `secdir-sim perf` use.
///
/// # Panics
///
/// Panics if `threads` is zero or if any cell fails, with the failing
/// cell's panic message.
pub fn sweep<F: StreamFactory + ?Sized>(
    cells: &[CellSpec],
    factory: &F,
    threads: usize,
) -> Vec<CellResult> {
    run_matrix(cells, factory, &SweepOptions::new(threads))
        .into_iter()
        .map(|outcome| match outcome {
            CellOutcome::Done(r) => *r,
            CellOutcome::Panicked { cell, msg } => {
                panic!(
                    "cell `{}` ({}) panicked: {msg}",
                    cell.workload,
                    cell.kind.name()
                )
            }
            CellOutcome::Skipped { cell } => panic!("cell `{}` was skipped", cell.workload),
        })
        .collect()
}

// --- JSONL -----------------------------------------------------------------
//
// Field order is fixed so the output is byte-stable, and every record
// decodes only from exactly the bytes its writer produces.

/// A flat stats object whose JSON keys are its field names, in the order
/// the [`flat!`] invocation lists them: the one key list the record
/// writer and reader share.
trait Flat: Sized {
    fn write(&self, w: &mut Writer<'_>);
    fn read(r: &mut Reader<'_>) -> Option<Self>;
}

macro_rules! flat {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl Flat for $ty {
            fn write(&self, w: &mut Writer<'_>) {
                w.obj();
                $(w.key(stringify!($field)).u64(self.$field);)*
                w.end_obj();
            }

            fn read(r: &mut Reader<'_>) -> Option<Self> {
                r.obj()?;
                let v = Self { $($field: r.key(stringify!($field))?.u64()?,)* };
                r.end_obj().map(|()| v)
            }
        }
    };
}

flat! { CoreRun { instructions, accesses, finish_time } }
flat! { MissBreakdown { ed_td, vd, memory } }
flat! { CoreStats {
    accesses, reads, writes, l1_hits, l2_hits, l2_misses, ed_td_hits, vd_hits, memory_accesses,
    upgrades, inclusion_victims, invalidation_writebacks, l2_writebacks,
} }
flat! { DirSliceStats {
    requests, ed_hits, td_hits, vd_hits, misses, td_conflict_discards, td_to_vd_migrations,
    vd_to_td_migrations, vd_self_conflicts, vd_inserts, cuckoo_relocations, ed_to_td_migrations,
    td_to_ed_migrations, quirk_invalidations, vd_lookups, vd_bank_probes,
    vd_bank_probes_without_eb, llc_writebacks, llc_data_fills,
} }

/// The cell-identity fields every record shape carries, in order.
fn write_cell(w: &mut Writer<'_>, c: &CellSpec) {
    w.key("workload").str(&c.workload);
    w.key("directory").str(c.kind.name());
    w.key("seed").u64(c.seed);
    w.key("cores").u64(c.cores as u64);
    w.key("warmup").u64(c.warmup);
    w.key("measure").u64(c.measure);
}

fn read_cell(r: &mut Reader<'_>) -> Option<CellSpec> {
    Some(CellSpec {
        workload: r.key("workload")?.str()?.into_owned(),
        kind: DirectoryKind::parse(r.key("directory")?.raw_str()?).ok()?,
        seed: r.key("seed")?.u64()?,
        cores: usize::try_from(r.key("cores")?.u64()?).ok()?,
        warmup: r.key("warmup")?.u64()?,
        measure: r.key("measure")?.u64()?,
    })
}

impl CellResult {
    /// One JSON object (one JSONL line, no trailing newline) holding the
    /// cell spec, the measured-phase [`RunSummary`] and deltas, and the
    /// full end-of-run [`MachineStats`]. Schema documented in
    /// EXPERIMENTS.md; field order is fixed.
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.obj();
        write_cell(&mut w, &self.cell);
        let summary = &self.run.summary;
        w.key("summary").obj();
        w.key("cycles").u64(summary.cycles);
        w.key("mean_ipc").f64(summary.mean_ipc());
        w.key("cores").arr();
        for c in &summary.cores {
            c.write(&mut w);
        }
        w.end_arr().end_obj();
        self.run.breakdown.write(w.key("breakdown"));
        self.run.dir.write(w.key("dir"));
        w.key("inclusion_victims").u64(self.run.inclusion_victims);
        w.key("stats").obj().key("cores").arr();
        for c in &self.stats.cores {
            c.write(&mut w);
        }
        w.end_arr();
        self.stats.directory.write(w.key("directory"));
        w.key("invalidations_by_cause").arr();
        for v in self.stats.invalidations_by_cause {
            w.u64(v);
        }
        w.end_arr();
        w.key("memory_writebacks").u64(self.stats.memory_writebacks);
        w.end_obj().end_obj();
        out
    }

    /// The fields after the cell identity, as [`CellResult::to_json_line`]
    /// writes them. `mean_ipc` is derived, so it must equal the value the
    /// decoded per-core runs give.
    fn read(cell: CellSpec, r: &mut Reader<'_>) -> Option<CellResult> {
        r.key("summary")?.obj()?;
        let cycles = r.key("cycles")?.u64()?;
        let mean_ipc = r.key("mean_ipc")?.f64()?;
        let cores = r.key("cores")?.items(CoreRun::read)?;
        r.end_obj()?;
        let summary = RunSummary { cores, cycles };
        if summary.mean_ipc() != mean_ipc {
            return None;
        }
        let run = ExperimentRun {
            summary,
            breakdown: MissBreakdown::read(r.key("breakdown")?)?,
            dir: DirSliceStats::read(r.key("dir")?)?,
            inclusion_victims: r.key("inclusion_victims")?.u64()?,
        };
        r.key("stats")?.obj()?;
        let stats = MachineStats {
            cores: r.key("cores")?.items(CoreStats::read)?,
            directory: DirSliceStats::read(r.key("directory")?)?,
            invalidations_by_cause: r
                .key("invalidations_by_cause")?
                .items(Reader::u64)?
                .try_into()
                .ok()?,
            memory_writebacks: r.key("memory_writebacks")?.u64()?,
        };
        r.end_obj()?;
        Some(CellResult { cell, run, stats })
    }
}

impl CellOutcome {
    /// One JSON object (one JSONL line, no trailing newline) for this
    /// outcome: completed cells use the full [`CellResult::to_json_line`]
    /// schema; failed cells use the compact failure schema whose first
    /// key is `"status"` (documented in EXPERIMENTS.md), so readers can
    /// dispatch on the line prefix.
    pub fn to_json_line(&self) -> String {
        let (status, cell) = match self {
            CellOutcome::Done(r) => return r.to_json_line(),
            CellOutcome::Panicked { cell, .. } => ("panicked", cell),
            CellOutcome::Skipped { cell } => ("skipped", cell),
        };
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.obj().key("status").str(status);
        write_cell(&mut w, cell);
        if let CellOutcome::Panicked { msg, .. } = self {
            w.key("msg").str(msg);
        }
        w.end_obj();
        out
    }

    /// Decodes one line [`CellOutcome::to_json_line`] wrote, or `None`
    /// when `line` is not exactly the writer's rendering of some outcome:
    /// every key in the writer's order, every value spelled as the writer
    /// spells it, nothing before or after.
    pub fn from_json_line(line: &str) -> Option<CellOutcome> {
        let mut r = Reader::new(line);
        r.obj()?;
        let outcome = if r.at_key("status") {
            let status = r.key("status")?.raw_str()?;
            let cell = read_cell(&mut r)?;
            match status {
                "panicked" => CellOutcome::Panicked {
                    cell,
                    msg: r.key("msg")?.str()?.into_owned(),
                },
                "skipped" => CellOutcome::Skipped { cell },
                _ => return None,
            }
        } else {
            let cell = read_cell(&mut r)?;
            CellOutcome::Done(Box::new(CellResult::read(cell, &mut r)?))
        };
        r.end_obj()?;
        r.finish()?;
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Access;
    use secdir_mem::json::write_lines;
    use secdir_mem::LineAddr;

    /// A tiny deterministic factory: each core strides over a private
    /// region derived from the seed.
    fn factory(cell: &CellSpec) -> Vec<Box<dyn AccessStream + 'static>> {
        (0..cell.cores)
            .map(|c| {
                let base = (c as u64 + 1) << 20;
                let seed = cell.seed;
                Box::new((0..10_000u64).map(move |i| {
                    Access::read(LineAddr::new(base + (i.wrapping_mul(seed | 1) % 512)))
                })) as Box<dyn AccessStream>
            })
            .collect()
    }

    fn small_matrix() -> SweepMatrix {
        SweepMatrix {
            workloads: vec!["a".into(), "b".into(), "c".into()],
            kinds: vec![DirectoryKind::Baseline, DirectoryKind::SecDir],
            seeds: vec![1, 2],
            cores: 2,
            warmup: 100,
            measure: 400,
        }
    }

    #[test]
    fn matrix_expands_in_deterministic_order() {
        let cells = small_matrix().cells();
        assert_eq!(cells.len(), 3 * 2 * 2);
        assert_eq!(cells[0].workload, "a");
        assert_eq!(cells[0].kind, DirectoryKind::Baseline);
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[1].seed, 2);
        assert_eq!(cells[2].kind, DirectoryKind::SecDir);
        assert_eq!(cells[11].workload, "c");
    }

    #[test]
    fn sweep_matches_serial_cells() {
        let cells = small_matrix().cells();
        let serial: Vec<CellResult> = cells.iter().map(|c| run_cell(c, &factory)).collect();
        for threads in [1, 3] {
            let parallel = sweep(&cells, &factory, threads);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn measured_window_counts_measure_refs() {
        let cell = &small_matrix().cells()[0];
        let r = run_cell(cell, &factory);
        let measured: u64 = r.run.summary.cores.iter().map(|c| c.accesses).sum();
        assert_eq!(measured, cell.measure * cell.cores as u64);
        // Warm-up + measured accesses both appear in the cumulative stats.
        assert_eq!(
            r.stats.total_accesses(),
            (cell.warmup + cell.measure) * cell.cores as u64
        );
    }

    #[test]
    fn cumulative_stats_carry_the_directory_counters() {
        let cell = &small_matrix().cells()[0];
        let r = run_cell(cell, &factory);
        // Cumulative means warm-up included: strictly more requests than
        // the measured window alone.
        assert!(r.run.dir.requests > 0);
        assert!(r.stats.directory.requests > r.run.dir.requests);
        assert!(r.stats.directory.misses >= r.run.dir.misses);
    }

    /// Like [`factory`], but panics on the workload named "boom" — the
    /// same shape as `registry::factory` on an unknown workload name.
    fn flaky_factory(cell: &CellSpec) -> Vec<Box<dyn AccessStream + 'static>> {
        assert!(cell.workload != "boom", "unknown workload `boom`");
        factory(cell)
    }

    #[test]
    fn panicking_cell_is_isolated() {
        let matrix = SweepMatrix {
            workloads: vec!["a".into(), "boom".into(), "c".into()],
            kinds: vec![DirectoryKind::Baseline],
            seeds: vec![1],
            cores: 2,
            warmup: 100,
            measure: 400,
        };
        let cells = matrix.cells();
        for threads in [1, 2] {
            let outcomes = run_matrix(&cells, &flaky_factory, &SweepOptions::new(threads));
            assert_eq!(outcomes.len(), 3);
            assert!(outcomes[0].is_done(), "threads={threads}");
            assert!(outcomes[2].is_done(), "threads={threads}");
            match &outcomes[1] {
                CellOutcome::Panicked { cell, msg } => {
                    assert_eq!(cell.workload, "boom");
                    assert!(msg.contains("unknown workload"), "msg={msg}");
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
            // Surviving cells are bit-identical to serial runs.
            assert_eq!(outcomes[0].as_done(), Some(&run_cell(&cells[0], &factory)));
        }
    }

    #[test]
    fn fail_fast_skips_unstarted_cells() {
        let matrix = SweepMatrix {
            workloads: vec!["boom".into(), "a".into(), "b".into()],
            kinds: vec![DirectoryKind::Baseline],
            seeds: vec![1],
            cores: 2,
            warmup: 100,
            measure: 400,
        };
        let cells = matrix.cells();
        let opts = SweepOptions {
            fail_fast: true,
            ..SweepOptions::new(1)
        };
        let outcomes = run_matrix(&cells, &flaky_factory, &opts);
        assert!(matches!(outcomes[0], CellOutcome::Panicked { .. }));
        assert!(matches!(outcomes[1], CellOutcome::Skipped { .. }));
        assert!(matches!(outcomes[2], CellOutcome::Skipped { .. }));
    }

    #[test]
    fn failure_records_are_wellformed_json() {
        let cell = small_matrix().cells()[0].clone();
        let panicked = CellOutcome::Panicked {
            cell: cell.clone(),
            msg: "bad \"quote\"\nnewline".into(),
        };
        let line = panicked.to_json_line();
        assert!(line.starts_with("{\"status\":\"panicked\",\"workload\":\"a\""));
        assert!(line.contains("\\\"quote\\\"\\n"));
        assert!(!line.contains('\n'));
        let skipped = CellOutcome::Skipped { cell };
        let line = skipped.to_json_line();
        assert!(line.starts_with("{\"status\":\"skipped\""));
        // The retired watchdog record is no status this reader knows.
        let exhausted = line
            .replacen("skipped", "exhausted", 1)
            .replace('}', ",\"budget\":9}");
        assert_eq!(CellOutcome::from_json_line(&exhausted), None, "{exhausted}");
        for outcome in [panicked, skipped] {
            let line = outcome.to_json_line();
            assert_eq!(CellOutcome::from_json_line(&line), Some(outcome), "{line}");
        }
    }

    #[test]
    fn jsonl_is_one_wellformed_object_per_line() {
        let cells = small_matrix().cells();
        let outcomes = run_matrix(&cells[..2], &factory, &SweepOptions::new(2));
        let mut buf = Vec::new();
        write_lines(&mut buf, outcomes.iter().map(CellOutcome::to_json_line)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for (line, outcome) in text.lines().zip(outcomes) {
            assert!(line.contains("\"workload\":\"a\""));
            assert!(line.contains("\"summary\""));
            assert!(line.contains("\"stats\""));
            assert_eq!(CellOutcome::from_json_line(line), Some(outcome));
        }
    }
}
