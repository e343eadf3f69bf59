//! Figure 5: per-core machine-wide VD entries ÷ L2 lines, sweeping the
//! core count (4–128) and the retained ED ways (W_ED ∈ 6–10) under the
//! equal-total-storage constraint of §7.
//!
//! Paper shape: every curve grows with the core count (the reused ED
//! sharer bits pay for more VD entries); W_ED = 8 crosses 1.0 in the
//! tens of cores.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a failure panics")]

use secdir_area::design_space::{design_point, figure5_sweep};
use secdir_bench::header;

fn main() {
    header("Figure 5: #per-core VD entries / #L2 lines (same storage as Skylake-X)");
    print!("{:>7}", "cores");
    for w_ed in 6..=10 {
        print!("  W_ED={w_ed}");
    }
    println!();
    for cores in [4usize, 8, 16, 32, 64, 128] {
        print!("{cores:>7}");
        for w_ed in 6..=10 {
            let p = design_point(cores, w_ed).expect("design point fits");
            print!("  {:>6.3}", p.ratio_to_l2);
        }
        println!();
    }

    header("Chosen VD bank shapes (W_ED = 8 column)");
    println!(
        "{:>7} {:>8} {:>8} {:>14}",
        "cores", "S_VD", "W_VD", "entries/core"
    );
    for cores in [4usize, 8, 16, 32, 64, 128] {
        let p = design_point(cores, 8).expect("fits");
        println!(
            "{:>7} {:>8} {:>8} {:>14}",
            cores, p.s_vd, p.w_vd, p.per_core_vd_entries
        );
    }

    // Consistency check mirrored from the paper's text.
    let all = figure5_sweep();
    assert_eq!(all.len(), 30);
    println!(
        "\npaper check: W_ED=8 ratio >= 1 first at N = {}",
        [4usize, 8, 16, 32, 64, 128]
            .iter()
            .find(|&&n| design_point(n, 8).unwrap().ratio_to_l2 >= 1.0)
            .map(|n| n.to_string())
            .unwrap_or_else(|| "none".into())
    );
}
