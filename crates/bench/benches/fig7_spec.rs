//! Figure 7: SPEC mixes on Baseline vs SecDir — (a) normalized IPC,
//! (b) L2-miss breakdown (ED+TD hit / VD hit / memory), normalized to the
//! Baseline's miss count.
//!
//! Paper shape: normalized IPC ≈ 1 for every mix (SecDir costs nothing);
//! SecDir reduces L2 misses (avg ≈ −11.4% in the paper) by avoiding
//! inclusion victims; VD hits ≈ 0 for single-threaded mixes.

use secdir_bench::{fig7_matrix, header, DEFAULT_MEASURE, DEFAULT_WARMUP};
use secdir_machine::sweep::sweep;
use secdir_machine::DirectoryKind;
use secdir_mem::par::available_cpus;
use secdir_workloads::registry;

fn main() {
    // One 12-mix × {Baseline, SecDir} sweep, fanned out over the available
    // cores; per-cell results are bit-identical to the old serial loop.
    let matrix = fig7_matrix(
        vec![DirectoryKind::Baseline, DirectoryKind::SecDir],
        DEFAULT_WARMUP,
        DEFAULT_MEASURE,
    );
    let cells = matrix.cells();
    let results = sweep(&cells, &registry::factory, available_cpus());
    // Cells are workload-major: [mix_i × Baseline, mix_i × SecDir], …
    let rows: Vec<_> = results
        .chunks_exact(2)
        .map(|pair| {
            (
                pair[0].cell.workload.clone(),
                pair[0].run.clone(),
                pair[1].run.clone(),
            )
        })
        .collect();

    header("Figure 7(a): SPEC normalized IPC (SecDir / Baseline)");
    println!(
        "{:>7} {:>10} {:>10} {:>8}",
        "mix", "base_ipc", "sec_ipc", "norm"
    );
    let mut norm_sum = 0.0;
    for (name, b, s) in &rows {
        let norm = s.ipc() / b.ipc();
        norm_sum += norm;
        println!(
            "{:>7} {:>10.3} {:>10.3} {:>8.3}",
            name,
            b.ipc(),
            s.ipc(),
            norm
        );
    }
    println!(
        "{:>7} {:>10} {:>10} {:>8.3}   (paper: ~1.00)",
        "avg",
        "",
        "",
        norm_sum / rows.len() as f64
    );

    header("Figure 7(b): L2-miss breakdown, normalized to Baseline total");
    println!(
        "{:>7} | {:>8} {:>6} {:>8} | {:>8} {:>6} {:>8} | {:>9}",
        "mix", "B:ed_td", "B:vd", "B:mem", "S:ed_td", "S:vd", "S:mem", "S/B total"
    );
    let mut reduction_sum = 0.0;
    for (name, b, s) in &rows {
        let bt = b.breakdown.total() as f64;
        let f = |x: u64| x as f64 / bt;
        let ratio = s.breakdown.total() as f64 / bt;
        reduction_sum += 1.0 - ratio;
        println!(
            "{:>7} | {:>8.3} {:>6.3} {:>8.3} | {:>8.3} {:>6.3} {:>8.3} | {:>9.3}",
            name,
            f(b.breakdown.ed_td),
            f(b.breakdown.vd),
            f(b.breakdown.memory),
            f(s.breakdown.ed_td),
            f(s.breakdown.vd),
            f(s.breakdown.memory),
            ratio
        );
    }
    println!(
        "\naverage L2-miss reduction under SecDir: {:.1}%  (paper: 11.4%)",
        100.0 * reduction_sum / rows.len() as f64
    );
    println!(
        "VD hits in SPEC (paper: none): {}",
        if rows.iter().all(|(_, _, s)| s.breakdown.vd == 0) {
            "none — REPRODUCED"
        } else {
            "some present"
        }
    );
}
