//! Ablation: the §6 VD timing side channel and its mitigations.
//!
//! A multithreaded victim whose coherence transactions are satisfied from
//! the VD takes ~7 cycles longer per transaction than one satisfied from
//! the ED/TD. The paper proposes padding ED/TD responses and leaves the
//! design to future work; this bench measures (a) the raw differential,
//! (b) both mitigations closing it, and (c) what each mitigation costs on
//! ordinary multithreaded workloads.

use secdir_bench::{header, measure_phases, DEFAULT_MEASURE, DEFAULT_WARMUP};
use secdir_machine::{DirectoryKind, Engine, Machine, MachineConfig, TimingMitigation};
use secdir_mem::{CoreId, LineAddr};
use secdir_workloads::parsec::ParsecApp;

/// Latency of a cross-core read when the line's entry is in the ED.
fn ed_transaction(mitigation: TimingMitigation) -> u64 {
    let mut cfg = MachineConfig::skylake_x(8, DirectoryKind::SecDir);
    cfg.timing_mitigation = mitigation;
    let mut m = Machine::new(cfg);
    let line = LineAddr::new(0x40);
    m.access(CoreId(0), line, false);
    m.access(CoreId(1), line, false).latency
}

/// Latency of a cross-core read when the line's entry is in the victim's
/// VD (ED and TD controlled by the attacker: VD-only mode isolates the
/// path exactly).
fn vd_transaction(mitigation: TimingMitigation) -> u64 {
    let mut cfg = MachineConfig::skylake_x(8, DirectoryKind::SecDirVdOnly);
    cfg.timing_mitigation = mitigation;
    let mut m = Machine::new(cfg);
    let line = LineAddr::new(0x40);
    m.access(CoreId(0), line, false);
    m.access(CoreId(1), line, false).latency
}

fn main() {
    header("Section 6: the ED/TD-vs-VD transaction differential");
    println!(
        "{:>11} {:>8} {:>8} {:>14}",
        "mitigation", "ED/TD", "VD", "differential"
    );
    for (name, mit) in [
        ("off", TimingMitigation::Off),
        ("naive", TimingMitigation::Naive),
        ("selective", TimingMitigation::Selective),
    ] {
        let ed = ed_transaction(mit);
        let vd = vd_transaction(mit);
        println!(
            "{:>11} {:>8} {:>8} {:>14}",
            name,
            ed,
            vd,
            vd as i64 - ed as i64
        );
    }
    println!("(paper: \"accessing the VD extends by about 7 cycles a transaction\")");

    header("Cost of the mitigations on multithreaded workloads");
    println!(
        "{:>14} {:>10} {:>10} {:>10}",
        "app", "off", "naive", "selective"
    );
    for app in [
        &ParsecApp::FLUIDANIMATE,
        &ParsecApp::CANNEAL,
        &ParsecApp::FREQMINE,
    ] {
        let mut cycles = Vec::new();
        for mit in [
            TimingMitigation::Off,
            TimingMitigation::Naive,
            TimingMitigation::Selective,
        ] {
            let mut cfg = MachineConfig::skylake_x(8, DirectoryKind::SecDir);
            cfg.timing_mitigation = mit;
            let mut machine = Machine::new(cfg);
            let mut streams = app.threads(8, 0x9a25ec);
            let run = measure_phases(
                &mut machine,
                &mut streams,
                Engine::Serial,
                DEFAULT_WARMUP / 4,
                DEFAULT_MEASURE / 4,
            );
            cycles.push(run.cycles());
        }
        println!(
            "{:>14} {:>10.3} {:>10.3} {:>10.3}",
            app.name,
            1.0,
            cycles[1] as f64 / cycles[0] as f64,
            cycles[2] as f64 / cycles[0] as f64
        );
    }
    println!("\n(normalized execution time; the selective mitigation closes the channel");
    println!(" at a fraction of the naive slowdown, as §6 anticipates)");
}
