//! Shared experiment-runner helpers for the table/figure benches.
//!
//! Every `cargo bench -p secdir-bench --bench <name>` target regenerates
//! one table or figure of the paper (see DESIGN.md §4 for the index). The
//! skip-then-measure runner and its result types live in
//! [`secdir_machine::sweep`] (re-exported here), so the benches, the
//! `secdir-sim sweep` subcommand, and the determinism tests all share one
//! implementation and one matrix vocabulary; this library keeps the
//! bench-facing conveniences (per-workload wrappers, figure matrices,
//! formatting).

pub use secdir_machine::sweep::{
    measure_phases, run_streams, CellResult, CellSpec, ExperimentRun, MissBreakdown, SweepMatrix,
};
use secdir_machine::{DirectoryKind, Engine};
use secdir_workloads::parsec::ParsecApp;
use secdir_workloads::registry;
use secdir_workloads::spec::SpecMix;

/// Default warm-up references per core (the paper skips 10 B instructions;
/// we skip proportionally on the scaled window).
pub const DEFAULT_WARMUP: u64 = 350_000;
/// Default measured references per core (the paper measures a 500 M-cycle
/// window).
pub const DEFAULT_MEASURE: u64 = 200_000;

/// The workload seed the SPEC benches (Fig 7, Tab 6) use.
pub const SPEC_SEED: u64 = 0x5eed;
/// The workload seed the PARSEC benches (Fig 8, Tab 6) use.
pub const PARSEC_SEED: u64 = 0x9a25ec;

/// Runs a Table-5 SPEC mix on 8 cores.
pub fn run_spec_mix(
    mix: &SpecMix,
    kind: DirectoryKind,
    warmup: u64,
    measure: u64,
) -> ExperimentRun {
    let streams = mix.streams(8, SPEC_SEED);
    run_streams(kind, streams, Engine::Serial, warmup, measure)
}

/// Runs a PARSEC app with 8 threads on 8 cores.
pub fn run_parsec(
    app: &ParsecApp,
    kind: DirectoryKind,
    warmup: u64,
    measure: u64,
) -> ExperimentRun {
    let streams = app.threads(8, PARSEC_SEED);
    run_streams(kind, streams, Engine::Serial, warmup, measure)
}

/// The Figure-7 matrix: all 12 SPEC mixes × the given directory kinds on
/// the 8-core Table-4 machine.
pub fn fig7_matrix(kinds: Vec<DirectoryKind>, warmup: u64, measure: u64) -> SweepMatrix {
    SweepMatrix {
        workloads: registry::spec_mix_names(),
        kinds,
        seeds: vec![SPEC_SEED],
        cores: 8,
        warmup,
        measure,
    }
}

/// The Figure-8 matrix: all PARSEC apps × the given directory kinds on the
/// 8-core Table-4 machine.
pub fn fig8_matrix(kinds: Vec<DirectoryKind>, warmup: u64, measure: u64) -> SweepMatrix {
    SweepMatrix {
        workloads: registry::parsec_names(),
        kinds,
        seeds: vec![PARSEC_SEED],
        cores: 8,
        warmup,
        measure,
    }
}

/// Formats a ratio as a fixed-width cell.
pub fn cell(x: f64) -> String {
    format!("{x:>7.3}")
}

/// Prints a bench section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;
    use secdir_machine::sweep::sweep;
    use secdir_workloads::spec::mixes;

    #[test]
    fn spec_run_produces_misses_and_timing() {
        let r = run_spec_mix(&mixes()[0], DirectoryKind::Baseline, 500, 2_000);
        assert!(r.ipc() > 0.0);
        assert!(r.cycles() > 0);
        assert_eq!(
            r.summary.cores.iter().map(|c| c.accesses).sum::<u64>(),
            8 * 2_000
        );
    }

    #[test]
    fn breakdown_total_matches_l2_misses() {
        let r = run_parsec(&ParsecApp::CANNEAL, DirectoryKind::SecDir, 500, 2_000);
        assert!(r.breakdown.total() > 0, "canneal must miss in L2");
    }

    #[test]
    fn secdir_and_baseline_runs_are_comparable() {
        let mix = &mixes()[2]; // LLCF + LLCF: real directory pressure
        let b = run_spec_mix(mix, DirectoryKind::Baseline, 1_000, 4_000);
        let s = run_spec_mix(mix, DirectoryKind::SecDir, 1_000, 4_000);
        let rel = s.ipc() / b.ipc();
        assert!((0.5..2.0).contains(&rel), "IPC ratio out of range: {rel}");
    }

    #[test]
    fn fig7_matrix_cells_reproduce_run_spec_mix() {
        // The matrix path and the legacy wrapper must agree bit-for-bit —
        // they are the same implementation rewired.
        let matrix = fig7_matrix(vec![DirectoryKind::Baseline], 500, 2_000);
        let cells = matrix.cells();
        assert_eq!(cells.len(), 12);
        let via_sweep = &sweep(&cells[..1], &registry::factory, 1)[0];
        let direct = run_spec_mix(&mixes()[0], DirectoryKind::Baseline, 500, 2_000);
        assert_eq!(via_sweep.run, direct);
    }
}
