//! Engine-throughput bench: accesses/sec per directory kind, serial and
//! sweep-parallel, on the 8-core Table-4 machine — the same measurement as
//! `secdir-sim perf`, runnable as `cargo bench --bench throughput`.
//!
//! Writes `BENCH_throughput.json` (schema `secdir-bench-throughput/4`, see
//! EXPERIMENTS.md) so the engine's perf trajectory is tracked in-repo.
//! Timed with `std::time::Instant` (the offline environment has no
//! criterion).

use secdir_bench::header;
use secdir_machine::perf::{measure, write_report, PerfSpec};
use secdir_workloads::registry;

fn main() {
    header("engine_throughput");
    let spec = if std::env::args().any(|a| a == "--quick") {
        PerfSpec::quick()
    } else {
        PerfSpec::full()
    };
    let samples = measure(&spec, &registry::factory);
    for s in &samples {
        println!(
            "{:<16} {:<6} {:>12} accesses {:>9.3}s {:>12} accesses/sec",
            s.directory.name(),
            s.mode,
            s.accesses,
            s.nanos as f64 / 1e9,
            s.accesses_per_sec(),
        );
    }
    let file =
        std::fs::File::create("BENCH_throughput.json").expect("create BENCH_throughput.json");
    write_report(std::io::BufWriter::new(file), &spec, &samples).expect("write report");
    println!("wrote BENCH_throughput.json");
    assert!(
        samples.iter().all(|s| s.accesses_per_sec() > 0),
        "a throughput sample measured zero accesses/sec"
    );
}
