//! End-to-end security: the paper's core claim, as an integration test.
//!
//! The full stack is exercised — eviction-set construction against the
//! machine's slice hash, the coherence protocol, directory conflict
//! resolution, and the timing model the attacker measures through.

use secdir_attack::{evict_reload_attack, prime_probe_attack, AttackConfig};
use secdir_machine::{DirectoryKind, Machine, MachineConfig};
use secdir_mem::{CoreId, LineAddr};

fn config(bits: usize) -> AttackConfig {
    AttackConfig {
        bits,
        ..AttackConfig::standard(8)
    }
}

#[test]
fn evict_reload_leaks_on_every_conventional_directory() {
    for kind in [DirectoryKind::Baseline, DirectoryKind::BaselineFixed] {
        let mut m = Machine::new(MachineConfig::skylake_x(8, kind));
        let o = evict_reload_attack(&mut m, &config(32), LineAddr::new(0xf00d));
        assert!(o.accuracy >= 0.9, "{kind:?} accuracy {}", o.accuracy);
        assert!(o.victim_inclusion_victims > 0, "{kind:?} created no IVs");
    }
}

#[test]
fn evict_reload_is_blind_on_secdir() {
    let mut m = Machine::new(MachineConfig::skylake_x(8, DirectoryKind::SecDir));
    let o = evict_reload_attack(&mut m, &config(32), LineAddr::new(0xf00d));
    assert!(o.accuracy <= 0.7, "SecDir leaked: {}", o.accuracy);
    assert_eq!(o.victim_inclusion_victims, 0);
    m.verify().expect("invariants after attack");
}

#[test]
fn prime_probe_leaks_on_baseline_and_not_on_secdir() {
    let mut m = Machine::new(MachineConfig::skylake_x(8, DirectoryKind::Baseline));
    let base = prime_probe_attack(&mut m, &config(32), LineAddr::new(0xcafe));
    assert!(base.accuracy >= 0.85, "baseline accuracy {}", base.accuracy);

    let mut m = Machine::new(MachineConfig::skylake_x(8, DirectoryKind::SecDir));
    let sec = prime_probe_attack(&mut m, &config(32), LineAddr::new(0xcafe));
    assert!(sec.accuracy <= 0.7, "SecDir leaked: {}", sec.accuracy);
    assert_eq!(sec.victim_inclusion_victims, 0);
}

#[test]
fn secdir_protects_regardless_of_attacker_core_count() {
    // More attacker cores make the conventional attack easier (§1); SecDir
    // must not care.
    for attackers in [1usize, 3, 7] {
        let mut m = Machine::new(MachineConfig::skylake_x(8, DirectoryKind::SecDir));
        let cfg = AttackConfig {
            attacker_cores: (1..=attackers).map(CoreId).collect(),
            bits: 16,
            ..AttackConfig::standard(8)
        };
        let o = evict_reload_attack(&mut m, &cfg, LineAddr::new(0xabc));
        assert_eq!(
            o.victim_inclusion_victims, 0,
            "{attackers} attackers created inclusion victims"
        );
    }
}

#[test]
fn more_attacker_cores_strengthen_the_baseline_attack() {
    // With a single attacker core (16 lines < 23 directory ways) the
    // eviction is unreliable; with 7 it is total. This is the paper's
    // "directory attacks become easier with higher core counts".
    let run = |attackers: usize| {
        let mut m = Machine::new(MachineConfig::skylake_x(8, DirectoryKind::Baseline));
        let cfg = AttackConfig {
            attacker_cores: (1..=attackers).map(CoreId).collect(),
            bits: 24,
            ..AttackConfig::standard(8)
        };
        evict_reload_attack(&mut m, &cfg, LineAddr::new(0x123)).accuracy
    };
    let weak = run(1);
    let strong = run(7);
    assert!(
        strong >= 0.9,
        "7-core attack should be near-perfect: {strong}"
    );
    assert!(strong >= weak, "more cores must not weaken the attack");
    assert!(
        weak <= 0.8,
        "a single core cannot out-associate the directory: {weak}"
    );
}
