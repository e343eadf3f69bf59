//! Figure 6: trace of the victim's accesses to the AES T0 table, running
//! on SecDir with ED and TD disabled (the most powerful attacker fully
//! controls them, §9).
//!
//! Paper shape: the first access to each of T0's 16 lines is a main-memory
//! access; **every** subsequent access hits the private L1/L2 — the
//! attacker, unable to touch the victim's VD, observes nothing.
#![allow(clippy::expect_used, reason = "a bench fails by panicking")]

use secdir_bench::header;
use secdir_machine::{AccessStream, DirectoryKind, Machine, MachineConfig, ServedBy};
use secdir_mem::{CoreId, LineAddr};
use secdir_workloads::aes::AesVictim;

const ENCRYPTIONS: u64 = 200;

fn main() {
    let mut machine = Machine::new(MachineConfig::skylake_x(8, DirectoryKind::SecDirVdOnly));
    let base = LineAddr::new(0x3220 >> 6 << 6); // mirror the paper's 0x3220 region
    let key = *b"SecDir AES key!!";
    let mut victim = AesVictim::new(key, base, 0xfe11);

    let t0_lines: Vec<LineAddr> = victim.table_lines(0);
    let mut first_touch: Vec<Option<u64>> = vec![None; 16];
    let mut mem_accesses = [0u64; 16];
    let mut private_hits = [0u64; 16];
    let mut other_serves = 0u64;
    let mut time = 0u64;

    while victim.encryptions < ENCRYPTIONS {
        let acc = victim.next_access().expect("victim stream is infinite");
        let outcome = machine.access(CoreId(0), acc.line, acc.write);
        time += u64::from(acc.gap) + outcome.latency;
        if let Some(idx) = t0_lines.iter().position(|&l| l == acc.line) {
            match outcome.served {
                ServedBy::Memory => {
                    mem_accesses[idx] += 1;
                    first_touch[idx].get_or_insert(time);
                }
                s if s.is_private_hit() => private_hits[idx] += 1,
                _ => other_serves += 1,
            }
        }
    }

    header("Figure 6: AES T0 accesses on SecDir with VD only (no ED/TD)");
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "line", "first@cycle", "mem_accesses", "L1/L2 hits"
    );
    for (i, line) in t0_lines.iter().enumerate() {
        println!(
            "{:>6} {:>12} {:>14} {:>12}",
            format!("{line}"),
            first_touch[i].map_or("never".into(), |t| t.to_string()),
            mem_accesses[i],
            private_hits[i]
        );
    }
    let total_mem: u64 = mem_accesses.iter().sum();
    let total_hits: u64 = private_hits.iter().sum();
    println!(
        "\n{ENCRYPTIONS} encryptions: {total_mem} memory accesses, {total_hits} private hits, \
         {other_serves} other"
    );
    println!(
        "paper shape (16 first-touch misses, all re-accesses private): {}",
        if total_mem == 16 && other_serves == 0 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
