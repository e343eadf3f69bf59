//! Figure 8: PARSEC applications on Baseline vs SecDir — (a) normalized
//! execution time, (b) L2-miss breakdown.
//!
//! Paper shape: execution time ≈ unchanged; L2 misses drop (avg ≈ −7%);
//! VD hits are small on average but visible for sharing-heavy apps
//! (freqmine ≈ 14% of misses).

use secdir_bench::{fig8_matrix, header, DEFAULT_MEASURE, DEFAULT_WARMUP};
use secdir_machine::sweep::sweep;
use secdir_machine::DirectoryKind;
use secdir_mem::par::available_cpus;
use secdir_workloads::registry;

fn main() {
    // One apps × {Baseline, SecDir} sweep, fanned out over the available
    // cores; per-cell results are bit-identical to the old serial loop.
    let matrix = fig8_matrix(
        vec![DirectoryKind::Baseline, DirectoryKind::SecDir],
        DEFAULT_WARMUP,
        DEFAULT_MEASURE,
    );
    let cells = matrix.cells();
    let results = sweep(&cells, &registry::factory, available_cpus());
    // Cells are workload-major: [app_i × Baseline, app_i × SecDir], …
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

    header("Figure 8(a): PARSEC normalized execution time (SecDir / Baseline)");
    println!(
        "{:>14} {:>12} {:>12} {:>8}",
        "app", "base_cycles", "sec_cycles", "norm"
    );
    let mut norm_sum = 0.0;
    for (name, b, s) in &rows {
        let norm = s.cycles() as f64 / b.cycles() as f64;
        norm_sum += norm;
        println!(
            "{:>14} {:>12} {:>12} {:>8.3}",
            name,
            b.cycles(),
            s.cycles(),
            norm
        );
    }
    println!(
        "{:>14} {:>12} {:>12} {:>8.3}   (paper: ~1.00)",
        "avg",
        "",
        "",
        norm_sum / rows.len() as f64
    );

    header("Figure 8(b): L2-miss breakdown, normalized to Baseline total");
    println!(
        "{:>14} | {:>8} {:>6} {:>8} | {:>8} {:>6} {:>8} | {:>9}",
        "app", "B:ed_td", "B:vd", "B:mem", "S:ed_td", "S:vd", "S:mem", "S/B total"
    );
    let mut reduction_sum = 0.0;
    let mut vd_share_max: (f64, &str) = (0.0, "-");
    for (name, b, s) in &rows {
        let bt = b.breakdown.total() as f64;
        let f = |x: u64| x as f64 / bt;
        let ratio = s.breakdown.total() as f64 / bt;
        reduction_sum += 1.0 - ratio;
        let vd_share = s.breakdown.vd as f64 / s.breakdown.total().max(1) as f64;
        if vd_share > vd_share_max.0 {
            vd_share_max = (vd_share, name.as_str());
        }
        println!(
            "{:>14} | {:>8.3} {:>6.3} {:>8.3} | {:>8.3} {:>6.3} {:>8.3} | {:>9.3}",
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
        "\naverage L2-miss reduction under SecDir: {:.1}%  (paper: 7%)",
        100.0 * reduction_sum / rows.len() as f64
    );
    println!(
        "largest VD-hit share: {:.1}% in {} (paper: ~14% in freqmine)",
        100.0 * vd_share_max.0,
        vd_share_max.1
    );
}
