//! Ablation: the cuckoo design space the paper defers to future work —
//! "we need to either increase the size or associativity of VD, or make
//! the cuckoo implementation more sophisticated … e.g. by increasing
//! NumRelocations" (§10.3).
//!
//! A single VD bank is driven at a fixed high occupancy (the worst-case
//! attack regime where Table 6's LLCT mixes stop benefiting), sweeping the
//! relocation budget and the bank associativity, reporting the
//! self-conflict (drop) rate per insertion.
#![allow(clippy::expect_used, reason = "a bench fails by panicking")]

use secdir::{VdBank, VdHashing};
use secdir_bench::header;
use secdir_cache::Geometry;
use secdir_mem::{LineAddr, SplitMix64};

/// Streams insertions against a bank held near `occupancy` (by removing a
/// random resident whenever the bank is past target), returning drops per
/// 1000 insertions.
fn drop_rate(hashing: VdHashing, ways: usize, occupancy: f64) -> f64 {
    let sets = 2048 / ways; // constant capacity across ways
    let geometry = Geometry::new(sets.next_power_of_two(), ways);
    let mut bank = VdBank::new(geometry, hashing, true, 7);
    let target = (geometry.lines() as f64 * occupancy) as usize;
    let mut rng = SplitMix64::new(99);
    let mut drops = 0u64;
    const INSERTS: u64 = 60_000;
    for _ in 0..INSERTS {
        while bank.len() > target {
            // Model an L2 eviction: a random resident leaves.
            let n = rng.next_below(bank.len() as u64) as usize;
            let line = bank.iter().nth(n).expect("resident");
            bank.remove(line);
        }
        if bank
            .insert(LineAddr::new(rng.next_below(1 << 34)))
            .displaced
            .is_some()
        {
            drops += 1;
        }
    }
    drops as f64 * 1000.0 / INSERTS as f64
}

fn main() {
    header("Cuckoo ablation: VD self-conflicts per 1000 inserts (95% occupancy)");
    print!("{:>14}", "relocations");
    for ways in [2usize, 4, 8] {
        print!("  {:>8}", format!("{ways}-way"));
    }
    println!("  {:>10}", "plain 4-way");
    for relocations in [1u32, 2, 4, 8, 16, 32] {
        print!("{relocations:>14}");
        for ways in [2usize, 4, 8] {
            print!(
                "  {:>8.1}",
                drop_rate(
                    VdHashing::Cuckoo {
                        num_relocations: relocations
                    },
                    ways,
                    0.95
                )
            );
        }
        if relocations == 8 {
            print!("  {:>10.1}", drop_rate(VdHashing::Plain, 4, 0.95));
        }
        println!();
    }

    header("Occupancy sweep at the paper's design point (4-way, 8 relocations)");
    println!("{:>11} {:>12} {:>12}", "occupancy", "cuckoo", "plain");
    for occ in [0.5f64, 0.7, 0.8, 0.9, 0.95, 1.0] {
        println!(
            "{:>10.0}% {:>12.1} {:>12.1}",
            occ * 100.0,
            drop_rate(VdHashing::Cuckoo { num_relocations: 8 }, 4, occ),
            drop_rate(VdHashing::Plain, 4, occ)
        );
    }
    println!("\n(The cuckoo advantage shrinks as the bank saturates — the paper's");
    println!(" observation that LLC-thrashing mixes see CKVD/NoCKVD ≈ 1.)");
}
