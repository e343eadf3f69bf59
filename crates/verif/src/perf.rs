//! Checker-throughput measurement (`secdir-sim verif --bench`,
//! `BENCH_checker.json`).
//!
//! The exhaustive checker's reach is bounded by states explored per
//! wall-clock second and bytes held per visited state. This module pits
//! the scalable core ([`check_opt`](crate::check_opt) — packed states,
//! symmetry canonicalization, parallel frontier BFS) against the
//! uncanonicalized serial baseline ([`check`]), per
//! directory kind, at two geometries:
//!
//! * **quick** (2 cores × 3 lines): both legs are explored and timed, so
//!   the states/sec comparison is a measurement on identical inputs.
//! * **full** (4 cores × 4 lines): only the canonical leg is explored —
//!   that is the point of the rework; the raw reachable count is
//!   reconstructed **exactly** by summing the orbit size of every
//!   canonical representative ([`CanonTable::orbit_size`]), so the
//!   reduction factor is exact even where the raw exploration would blow
//!   the CI budget (`raw_timed:false` marks these records, and their
//!   `raw_nanos`/`raw_transitions` are 0).
//!
//! A leg that takes less than 200 ms is run again, and its median run
//! is recorded, so host noise in one run does not decide a small kind's
//! rate.
//!
//! Results serialize to JSONL with a fixed field order (`schema`
//! `secdir-bench-checker/2`, documented in EXPERIMENTS.md) so
//! `BENCH_checker.json` diffs cleanly across PRs. The workspace's
//! `disallowed_methods` lint confines wall-clock reads to `perf.rs`
//! modules; this file is the verif crate's one timed site.

use std::time::{Duration, Instant};

use secdir_mem::json::Writer;
use secdir_mem::par::available_cpus;

use crate::canon::CanonTable;
use crate::checker::{check, check_opt_with_states, CheckOptions};
use crate::model::{DirKind, ModelConfig};
use crate::pack::unpack;

/// One benchmarked exploration: the canonical parallel run and its raw
/// serial baseline (timed or orbit-derived) on the same configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckerBenchRecord {
    /// Directory organization explored.
    pub kind: DirKind,
    /// Cores in the model configuration.
    pub cores: usize,
    /// Lines in the model configuration.
    pub lines: usize,
    /// Worker threads of the canonical run.
    pub threads: usize,
    /// CPUs the process could use: the canonical run's workers
    /// time-slice when `threads > host_cpus`.
    pub host_cpus: usize,
    /// Whether the raw leg was actually explored and timed (quick
    /// geometry) or its state count derived by orbit summation (full
    /// geometry).
    pub raw_timed: bool,
    /// Raw (uncanonicalized) reachable states: measured when
    /// `raw_timed`, otherwise the exact orbit-sum reconstruction.
    pub raw_states: usize,
    /// Raw transitions generated by the serial baseline (0 if untimed).
    pub raw_transitions: usize,
    /// Wall-clock nanoseconds of the serial baseline (0 if untimed).
    pub raw_nanos: u128,
    /// Symmetry-orbit representatives, from the canonical run.
    pub canon_states: usize,
    /// Transitions generated by the canonical run.
    pub canon_transitions: usize,
    /// Wall-clock nanoseconds of the canonical parallel run.
    pub canon_nanos: u128,
    /// Estimated peak visited-set bytes of the canonical run.
    pub canon_peak_bytes: usize,
    /// BFS levels of the canonical run.
    pub levels: usize,
}

impl CheckerBenchRecord {
    /// States explored per wall-clock second by the canonical run.
    pub fn canon_states_per_sec(&self) -> u64 {
        rate(self.canon_states, self.canon_nanos)
    }

    /// States explored per wall-clock second by the raw serial baseline
    /// (0 when the raw leg was orbit-derived rather than timed).
    pub fn raw_states_per_sec(&self) -> u64 {
        rate(self.raw_states, self.raw_nanos)
    }

    /// Reachable-set reduction factor: raw states per orbit
    /// representative (×1000, so 24.0× serializes as 24000).
    pub fn reduction_millis(&self) -> u64 {
        if self.canon_states == 0 {
            return 0;
        }
        (self.raw_states as u64 * 1000) / self.canon_states as u64
    }

    /// One JSON object (one JSONL line, no trailing newline); fixed field
    /// order, schema `secdir-bench-checker/2` (see EXPERIMENTS.md).
    /// Schema `/2` added `host_cpus` after `threads`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.obj();
        w.key("schema").str("secdir-bench-checker/2");
        w.key("directory").str(self.kind.name());
        w.key("cores").u64(self.cores as u64);
        w.key("lines").u64(self.lines as u64);
        w.key("threads").u64(self.threads as u64);
        w.key("host_cpus").u64(self.host_cpus as u64);
        w.key("raw_timed").bool(self.raw_timed);
        w.key("raw_states").u64(self.raw_states as u64);
        w.key("raw_transitions").u64(self.raw_transitions as u64);
        w.key("raw_nanos").u128(self.raw_nanos);
        w.key("raw_states_per_sec").u64(self.raw_states_per_sec());
        w.key("canon_states").u64(self.canon_states as u64);
        w.key("canon_transitions")
            .u64(self.canon_transitions as u64);
        w.key("canon_nanos").u128(self.canon_nanos);
        w.key("canon_states_per_sec")
            .u64(self.canon_states_per_sec());
        w.key("canon_peak_bytes").u64(self.canon_peak_bytes as u64);
        w.key("levels").u64(self.levels as u64);
        w.key("reduction_millis").u64(self.reduction_millis());
        w.end_obj();
        out
    }
}

fn rate(states: usize, nanos: u128) -> u64 {
    if nanos == 0 {
        return 0;
    }
    (states as u128 * 1_000_000_000 / nanos) as u64
}

/// Times `f` against the host's monotonic clock. The workspace's
/// `disallowed_methods` lint confines wall-clock reads to `perf.rs`;
/// verif callers that want an elapsed-time display route through here.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    #[expect(clippy::disallowed_methods, reason = "perf.rs times host runs")]
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// A timed leg shorter than this is run again, up to [`MAX_RUNS`] runs
/// in all, until its runs add up to it; one run of a few milliseconds
/// measures thread start-up and host load, not the checker.
const MIN_LEG: Duration = Duration::from_millis(200);

/// The most runs of one short leg.
const MAX_RUNS: usize = 25;

/// Runs `f`, again while the runs add up to less than [`MIN_LEG`] and
/// number fewer than [`MAX_RUNS`], and returns the first run's value
/// (every run explores the same states) with the median run's duration.
fn median_run<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let (value, first) = time(&mut f);
    let mut runs = vec![first];
    while runs.len() < MAX_RUNS && runs.iter().sum::<Duration>() < MIN_LEG {
        runs.push(time(&mut f).1);
    }
    runs.sort_unstable();
    (value, runs[runs.len() / 2])
}

/// Benchmarks one configuration: the canonical run at `threads` workers,
/// plus the raw serial baseline — explored and timed when `time_raw`,
/// reconstructed by orbit summation otherwise. A leg shorter than
/// 200 ms is repeated and timed by its median run. The benchmarked
/// configurations are violation-free, so the state counts are the full
/// reachable set and its orbit quotient.
pub fn bench_config(cfg: ModelConfig, threads: usize, time_raw: bool) -> CheckerBenchRecord {
    let opts = CheckOptions {
        canonicalize: true,
        threads,
    };
    let ((canon, reps), canon_elapsed) = median_run(|| check_opt_with_states(cfg, &opts));
    let (raw_states, raw_transitions, raw_nanos) = if time_raw {
        let (raw, raw_elapsed) = median_run(|| check(cfg));
        (raw.states, raw.transitions, raw_elapsed.as_nanos())
    } else {
        let table = CanonTable::new(cfg.cores, cfg.lines, cfg.kind == DirKind::WayPartitioned);
        let raw = reps
            .iter()
            .map(|&k| table.orbit_size(&unpack(k)))
            .sum::<usize>();
        (raw, 0, 0)
    };
    CheckerBenchRecord {
        kind: cfg.kind,
        cores: cfg.cores,
        lines: cfg.lines,
        threads,
        host_cpus: available_cpus(),
        raw_timed: time_raw,
        raw_states,
        raw_transitions,
        raw_nanos,
        canon_states: canon.states,
        canon_transitions: canon.transitions,
        canon_nanos: canon_elapsed.as_nanos(),
        canon_peak_bytes: canon.peak_bytes,
        levels: canon.levels,
    }
}

/// Runs the reference benchmark tracked in `BENCH_checker.json`: for
/// every directory kind, one quick-geometry record (both legs timed)
/// followed by one full-geometry record (raw leg orbit-derived).
pub fn run_checker_bench(threads: usize) -> Vec<CheckerBenchRecord> {
    let mut out = Vec::with_capacity(DirKind::ALL.len() * 2);
    for &kind in &DirKind::ALL {
        out.push(bench_config(ModelConfig::quick(kind), threads, true));
        out.push(bench_config(ModelConfig::full(kind), threads, false));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_quick_secdir_reduces_and_agrees() {
        let rec = bench_config(ModelConfig::quick(DirKind::SecDir), 2, true);
        assert_eq!(rec.raw_states, 7564);
        assert!(rec.raw_timed);
        assert!(rec.canon_states < rec.raw_states);
        assert!(rec.reduction_millis() > 1000, "must reduce the state space");
        assert!(rec.canon_peak_bytes > 0);
        assert!(rec.levels > 0);
    }

    #[test]
    fn orbit_derived_raw_leg_matches_the_timed_one() {
        // At the quick geometry both legs are affordable, so the
        // orbit-sum reconstruction can be validated against the real
        // exploration.
        let cfg = ModelConfig::quick(DirKind::VdOnly);
        let timed = bench_config(cfg, 1, true);
        let derived = bench_config(cfg, 1, false);
        assert_eq!(derived.raw_states, timed.raw_states);
        assert_eq!(derived.raw_nanos, 0);
        assert_eq!(derived.raw_states_per_sec(), 0);
    }

    #[test]
    fn short_legs_are_timed_by_their_median_run() {
        let mut runs = 0;
        let (first, _) = median_run(|| {
            runs += 1;
            runs
        });
        assert_eq!(
            (first, runs),
            (1, MAX_RUNS),
            "an instant leg runs MAX_RUNS times"
        );
        let mut runs = 0;
        median_run(|| {
            runs += 1;
            std::thread::sleep(MIN_LEG);
        });
        assert_eq!(runs, 1, "a leg of MIN_LEG runs once");
    }

    #[test]
    fn json_lines_have_the_documented_schema() {
        let rec = CheckerBenchRecord {
            kind: DirKind::SecDir,
            cores: 4,
            lines: 4,
            threads: 4,
            host_cpus: 2,
            raw_timed: false,
            raw_states: 24_000,
            raw_transitions: 0,
            raw_nanos: 0,
            canon_states: 1_000,
            canon_transitions: 4_000,
            canon_nanos: 100_000_000,
            canon_peak_bytes: 40_000,
            levels: 12,
        };
        let line = rec.to_json_line();
        assert!(line.starts_with("{\"schema\":\"secdir-bench-checker/2\""));
        assert!(line.contains("\"threads\":4,\"host_cpus\":2,"));
        assert!(line.contains("\"directory\":\"secdir\""));
        assert!(line.contains("\"raw_timed\":false"));
        assert!(line.contains("\"canon_states\":1000"));
        assert!(line.contains("\"canon_states_per_sec\":10000"));
        assert!(line.ends_with("\"reduction_millis\":24000}"));
    }
}
