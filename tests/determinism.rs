//! Determinism suite: the simulator must be bit-identical for the same
//! config + seed across (a) repeated serial runs, (b) serial vs the
//! parallel sweep at any worker-thread count, and (c) the pinned serial
//! pick order. These guarantees are what make the parallel
//! sweep harness trustworthy: every cell runs on its own machine, so
//! fan-out must never change a single counter.
#![allow(clippy::disallowed_methods, reason = "timed speed-up tests")]

use secdir_machine::resume::plan_resume;
use secdir_machine::sweep::{run_cell, run_matrix, sweep, CellSpec, SweepMatrix, SweepOptions};
use secdir_machine::{
    run_workload, run_workload_sliced, run_workload_sliced_with, DirectoryKind, Machine,
    MachineConfig, MachineStats, RunSummary, SlicedOptions,
};
use secdir_workloads::registry;

fn small_matrix() -> SweepMatrix {
    SweepMatrix {
        workloads: vec!["mix0".into(), "mix4".into(), "canneal".into()],
        kinds: vec![DirectoryKind::Baseline, DirectoryKind::SecDir],
        seeds: vec![0x5eed, 7],
        cores: 4,
        warmup: 2_000,
        measure: 6_000,
    }
}

#[test]
fn serial_reruns_are_bit_identical() {
    for cell in &small_matrix().cells() {
        let a = run_cell(cell, &registry::factory);
        let b = run_cell(cell, &registry::factory);
        assert_eq!(a.run.summary, b.run.summary, "{cell:?}");
        assert_eq!(a.stats, b.stats, "{cell:?}");
        assert_eq!(a, b, "{cell:?}");
    }
}

#[test]
fn sweep_is_bit_identical_to_serial_at_any_thread_count() {
    let cells = small_matrix().cells();
    let serial: Vec<_> = cells
        .iter()
        .map(|c| run_cell(c, &registry::factory))
        .collect();
    for threads in [1, 4, 8] {
        let parallel = sweep(&cells, &registry::factory, threads);
        assert_eq!(serial, parallel, "threads={threads}");
    }
}

/// A sweep killed mid-run and resumed from its checkpoint must produce a
/// byte-identical JSONL report, regardless of how many worker threads the
/// resumed run uses. The checkpoint here simulates a kill after five
/// records: five intact lines plus a sixth cut mid-write.
#[test]
fn resumed_sweep_is_byte_identical_at_any_thread_count() {
    let cells = small_matrix().cells();
    let full = run_matrix(&cells, &registry::factory, &SweepOptions::new(1));
    let full_lines: Vec<String> = full.iter().map(|o| o.to_json_line()).collect();
    let full_text = full_lines.join("\n") + "\n";

    let mut checkpoint = full_lines[..5].join("\n") + "\n";
    checkpoint.push_str(&full_lines[5][..full_lines[5].len() / 2]);

    let plan = plan_resume(&cells, &checkpoint).expect("checkpoint must validate");
    assert!(plan.recovered_truncation, "the cut line must be recovered");
    assert_eq!(plan.rerun, (5..cells.len()).collect::<Vec<_>>());

    let to_run: Vec<CellSpec> = plan.rerun.iter().map(|&i| cells[i].clone()).collect();
    for threads in [1, 4, 8] {
        let fresh = run_matrix(&to_run, &registry::factory, &SweepOptions::new(threads));
        let merged = plan.merge(&fresh).join("\n") + "\n";
        assert_eq!(merged, full_text, "threads={threads}");
    }
}

/// Pins the serial engine's pick order: an FNV-1a digest of every
/// `run_workload` summary (warm-up and measured) and the final
/// `MachineStats` over the small matrix at every directory kind. The
/// golden snapshots drive `Machine::access` directly, so without this pin
/// a change to the scheduler's `(ready, core)` order would go unseen.
#[test]
fn serial_pick_order_is_pinned() {
    let matrix = SweepMatrix {
        kinds: DirectoryKind::ALL.to_vec(),
        ..small_matrix()
    };
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in &matrix.cells() {
        let mut machine = Machine::new(MachineConfig::skylake_x(cell.cores, cell.kind));
        let mut streams = registry::factory(cell);
        let warm = run_workload(&mut machine, &mut streams, cell.warmup);
        let measured = run_workload(&mut machine, &mut streams, cell.measure);
        let text = format!("{warm:?}{measured:?}{:?}", machine.stats());
        for byte in text.bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    assert_eq!(
        digest, 0xf391_44a2_8792_be41,
        "serial pick-order digest {digest:#018x}"
    );
}

/// Runs one cell warm-up + measure on the sliced engine and returns the
/// two summaries plus final stats — everything a thread count could skew.
fn run_cell_sliced(
    cell: &CellSpec,
    slice_threads: usize,
) -> (RunSummary, RunSummary, MachineStats) {
    let mut machine = Machine::new(MachineConfig::skylake_x(cell.cores, cell.kind));
    let mut streams = registry::factory(cell);
    let warm = run_workload_sliced(&mut machine, &mut streams, cell.warmup, slice_threads);
    let measured = run_workload_sliced(&mut machine, &mut streams, cell.measure, slice_threads);
    (warm, measured, machine.stats().clone())
}

/// The sliced engine's core guarantee: every slice-thread count produces
/// the same run, bit for bit — summaries, per-core counters, directory
/// stats, everything. Checked across every directory kind, since the
/// kinds differ in exactly the directory transactions the slice threads
/// execute concurrently.
#[test]
fn sliced_engine_is_bit_identical_at_any_thread_count() {
    for kind in DirectoryKind::ALL {
        let cell = CellSpec {
            workload: "mix4".into(),
            kind,
            seed: 0x5eed,
            cores: 4,
            warmup: 2_000,
            measure: 6_000,
        };
        let reference = run_cell_sliced(&cell, 1);
        for threads in [2, 4, 8] {
            let other = run_cell_sliced(&cell, threads);
            assert_eq!(reference, other, "{} at {threads} threads", kind.name());
        }
    }
}

/// With one core there is no cross-core interaction for the epoch barrier
/// to reorder, so the sliced engine must agree with the serial reference
/// engine *exactly* — same summaries, same stats — at every thread count.
#[test]
fn sliced_single_core_run_equals_the_serial_engine() {
    for kind in DirectoryKind::ALL {
        let cell = CellSpec {
            workload: "mix0".into(),
            kind,
            seed: 7,
            cores: 1,
            warmup: 1_000,
            measure: 4_000,
        };
        let mut machine = Machine::new(MachineConfig::skylake_x(cell.cores, cell.kind));
        let mut streams = registry::factory(&cell);
        let warm = run_workload(&mut machine, &mut streams, cell.warmup);
        let measured = run_workload(&mut machine, &mut streams, cell.measure);
        let serial = (warm, measured, machine.stats().clone());
        for threads in [1, 4] {
            let sliced = run_cell_sliced(&cell, threads);
            assert_eq!(serial, sliced, "{} at {threads} threads", kind.name());
        }
    }
}

/// Like [`run_cell_sliced`] but with explicit engine tuning options.
fn run_cell_sliced_with(
    cell: &CellSpec,
    slice_threads: usize,
    options: SlicedOptions,
) -> (RunSummary, RunSummary, MachineStats) {
    let mut machine = Machine::new(MachineConfig::skylake_x(cell.cores, cell.kind));
    let mut streams = registry::factory(cell);
    let warm = run_workload_sliced_with(
        &mut machine,
        &mut streams,
        cell.warmup,
        slice_threads,
        options,
    );
    let measured = run_workload_sliced_with(
        &mut machine,
        &mut streams,
        cell.measure,
        slice_threads,
        options,
    );
    (warm, measured, machine.stats().clone())
}

/// The tuning knobs are *pure throughput knobs*: every `--epoch-batch`
/// value in the perf sweep set and `--pipeline` on/off reproduce the
/// default configuration bit for bit at 1/2/4/8 threads. The full
/// batch × pipeline × threads matrix runs on one kind; every directory
/// kind is then checked on a reduced matrix (the kinds differ only in the
/// directory transactions, which the full matrix already stresses).
#[test]
fn sliced_options_are_bit_identical_to_the_default_configuration() {
    let cell = CellSpec {
        workload: "mix4".into(),
        kind: DirectoryKind::SecDir,
        seed: 0x5eed,
        cores: 4,
        warmup: 2_000,
        measure: 6_000,
    };
    let reference = run_cell_sliced(&cell, 1);
    for batch in [32, 64, 128, 256, 512] {
        for pipeline in [false, true] {
            for threads in [1, 2, 4, 8] {
                let options = SlicedOptions {
                    epoch_batch: batch,
                    pipeline,
                };
                let other = run_cell_sliced_with(&cell, threads, options);
                assert_eq!(
                    reference, other,
                    "batch {batch}, pipeline {pipeline}, {threads} threads"
                );
            }
        }
    }
    for kind in DirectoryKind::ALL {
        let cell = CellSpec {
            kind,
            ..cell.clone()
        };
        let reference = run_cell_sliced(&cell, 1);
        for (batch, pipeline, threads) in [(32, false, 2), (128, true, 4), (512, true, 8)] {
            let options = SlicedOptions {
                epoch_batch: batch,
                pipeline,
            };
            let other = run_cell_sliced_with(&cell, threads, options);
            assert_eq!(
                reference,
                other,
                "{}: batch {batch}, pipeline {pipeline}, {threads} threads",
                kind.name()
            );
        }
    }
}

/// The sliced engine's whole point: wall-clock speedup from running slices
/// on real parallel hardware. Skips (vacuously passes) below 8 CPUs —
/// with fewer, barrier overhead swamps the win and the bit-identity tests
/// above already cover correctness.
#[test]
fn sliced_engine_speeds_up_on_parallel_hardware() {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    if cpus < 8 {
        eprintln!("skipping sliced speedup check: only {cpus} CPU(s) available");
        return;
    }
    let cell = CellSpec {
        workload: "mix0".into(),
        kind: DirectoryKind::SecDir,
        seed: 0x5eed,
        cores: 8,
        warmup: 5_000,
        measure: 200_000,
    };
    let t1 = std::time::Instant::now();
    let one = run_cell_sliced(&cell, 1);
    let serial_time = t1.elapsed();
    let t4 = std::time::Instant::now();
    let four = run_cell_sliced(&cell, 4);
    let parallel_time = t4.elapsed();
    assert_eq!(one, four);
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    assert!(
        speedup >= 1.5,
        "expected >=1.5x speedup on 4 slice threads, got {speedup:.2}x \
         (1 thread {serial_time:?}, 4 threads {parallel_time:?})"
    );
}

/// The sweep's whole point: wall-clock speedup from fan-out. Requires real
/// parallel hardware, so it skips (vacuously passes) below 4 CPUs — CI
/// runners have them; the development container may not.
#[test]
fn sweep_speeds_up_on_parallel_hardware() {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    if cpus < 4 {
        eprintln!("skipping speedup check: only {cpus} CPU(s) available");
        return;
    }
    let matrix = SweepMatrix {
        workloads: registry::spec_mix_names(),
        kinds: vec![DirectoryKind::Baseline, DirectoryKind::SecDir],
        seeds: vec![0x5eed],
        cores: 8,
        warmup: 5_000,
        measure: 20_000,
    };
    let cells = matrix.cells();
    let t1 = std::time::Instant::now();
    let serial = sweep(&cells, &registry::factory, 1);
    let serial_time = t1.elapsed();
    let t4 = std::time::Instant::now();
    let parallel = sweep(&cells, &registry::factory, 4);
    let parallel_time = t4.elapsed();
    assert_eq!(serial, parallel);
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    assert!(
        speedup >= 2.0,
        "expected >=2x speedup on 4 threads, got {speedup:.2}x \
         (serial {serial_time:?}, parallel {parallel_time:?})"
    );
}
