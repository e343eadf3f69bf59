//! Quickstart: build a SecDir machine, watch the directory work, and see
//! the security property in one minute.
//!
//! Run with `cargo run --release --example quickstart`.

use secdir_machine::{DirectoryKind, Machine, MachineConfig, ServedBy};
use secdir_mem::{CoreId, LineAddr};

fn main() {
    // The paper's Table-4 machine: 8 cores, 1 MB L2s, sliced non-inclusive
    // LLC, SecDir directory (ED 8-way + TD 11-way + 8 cuckoo VD banks per
    // slice).
    let mut machine = Machine::new(MachineConfig::skylake_x(8, DirectoryKind::SecDir));

    let line = LineAddr::new(0x4_2000);
    let core0 = CoreId(0);
    let core1 = CoreId(1);

    // A cold read goes to memory and allocates an Extended Directory entry.
    let miss = machine.access(core0, line, false);
    println!(
        "cold read : {:>3} cycles, served by {:?}",
        miss.latency, miss.served
    );
    assert_eq!(miss.served, ServedBy::Memory);

    // A re-read hits the L1.
    let hit = machine.access(core0, line, false);
    println!(
        "warm read : {:>3} cycles, served by {:?}",
        hit.latency, hit.served
    );
    assert_eq!(hit.served, ServedBy::L1);

    // Another core's read is a cache-to-cache transfer through the ED.
    let c2c = machine.access(core1, line, false);
    println!(
        "c2c read  : {:>3} cycles, served by {:?}",
        c2c.latency, c2c.served
    );
    assert_eq!(c2c.served, ServedBy::EdTd);

    // Where does the directory track the line?
    let slice = machine.slice_of(line);
    println!(
        "directory : {slice} tracks {line} as {:?}",
        machine.slice(slice).locate(line)
    );

    // The security property, in miniature: storm the directory from the
    // other 7 cores and check that core 0's lines were never invalidated.
    let hot: Vec<LineAddr> = (0..64u64).map(|i| LineAddr::new(0x4_2000 + i)).collect();
    for &l in &hot {
        machine.access(core0, l, false);
    }
    for burst in 0..20_000u64 {
        let attacker = CoreId(1 + (burst % 7) as usize);
        machine.access(attacker, LineAddr::new(0x900_0000 + burst), false);
    }
    let survivors = hot
        .iter()
        .filter(|&&l| machine.caches(core0).l2_contains(l))
        .count();
    println!("after a 20k-access storm from 7 cores: {survivors}/64 victim lines still in L2");
    println!(
        "inclusion victims suffered by core 0: {}",
        machine.stats().cores[0].inclusion_victims
    );
    assert_eq!(machine.stats().cores[0].inclusion_victims, 0);
    machine.verify().expect("directory invariants");
    println!("directory invariants hold — done.");
}
