//! The SecDir benchmark: end-to-end rates of the engines, `serve` and the
//! model checker, and a traced run that breaks them down by layer.
//!
//! ```text
//! secdir-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                  [--smoke] [--trace-out FILE]
//! secdir-benchmark run [--seed N] [--seconds S] [--smoke] [--trace]
//!                  [--trace-out FILE] [--out FILE]
//! secdir-benchmark compare BASE NEW [--bench BENCHMARK.json]
//! ```
//!
//! The first form measures one workload in this process and prints one
//! row per metric, then the result as a JSON object on the last line. `run`
//! measures every workload, each in a child process of its own, and
//! appends one JSON line per workload to `--out`. `compare` applies the
//! gain / no-regression rule to two such files. See README.md.

mod census;
mod checker;
mod compare;
mod engine;
mod host;
mod json;
mod micro;
mod report;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::process::{Command, ExitCode, Stdio};

use census::Census;
use report::{Checks, Meter, Metrics, Sample, END_TO_END};
use stats::{median_of, Better};
use trace::{TimerCal, Tracer};

/// The seed the pinned digests were taken at.
const DEFAULT_SEED: u64 = 24301;

pub const WORKLOADS: [&str; 4] = [
    "engine-ccf",
    "engine-sharing",
    "serve-journal",
    "checker-full",
];

const USAGE: &str = "usage:
  secdir-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
  secdir-benchmark run [--seed N] [--seconds S] [--smoke] [--trace] [--trace-out FILE] [--out FILE]
  secdir-benchmark compare BASE NEW [--bench BENCHMARK.json]
workloads: engine-ccf engine-sharing serve-journal checker-full";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => one_workload(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("secdir-benchmark: {e}");
        ExitCode::FAILURE
    })
}

/// `--flag value` pairs and bare switches.
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], with_value: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: BTreeMap::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if with_value.contains(&name) {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value\n{USAGE}"))?;
                    flags.values.insert(name.to_string(), v.clone());
                } else if switches.contains(&name) {
                    flags.switches.push(name.to_string());
                } else {
                    return Err(format!("unknown flag --{name}\n{USAGE}"));
                }
            } else {
                flags.positional.push(a.clone());
            }
        }
        Ok(flags)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.values.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
            None => default.ok_or_else(|| format!("--{name} is required\n{USAGE}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn one_workload(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["workload", "seed", "seconds", "trace", "trace-out"],
        &["smoke"],
    )?;
    if let Some(p) = flags.positional.first() {
        return Err(format!("unexpected argument `{p}`\n{USAGE}"));
    }
    let workload = flags
        .values
        .get("workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    let seed: u64 = flags.num("seed", Some(DEFAULT_SEED))?;
    let smoke = flags.has("smoke");
    let seconds: f64 = flags.num("seconds", smoke.then_some(2.0))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let traced = match flags.values.get("trace").map(String::as_str) {
        Some("1") => true,
        Some("0") | None => false,
        Some(v) => return Err(format!("--trace takes 0 or 1, not `{v}`")),
    };

    let (metrics, checks) = if traced {
        let mut tracer = Tracer::new();
        let mut census = Census {
            seed,
            smoke,
            cal: TimerCal::measure(),
            tracer: &mut tracer,
            metrics: Metrics::default(),
            checks: Checks::default(),
        };
        census.run()?;
        let (metrics, checks) = (census.metrics, census.checks);
        if let Some(path) = flags.values.get("trace-out") {
            let mut out =
                BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
            tracer
                .write_jsonl(&mut out)
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        (metrics, checks)
    } else {
        untraced(workload, seed, seconds, smoke)?
    };
    for row in metrics.rows(workload) {
        println!("{row}");
    }
    for note in &checks.notes {
        eprintln!("secdir-benchmark: check failed: {note}");
    }
    println!("{}", metrics.result_json(&checks));
    Ok(ExitCode::SUCCESS)
}

fn untraced(
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<(Metrics, Checks), String> {
    let pinned = seed == DEFAULT_SEED && !smoke;
    let reference = host::Reference::new();
    let meter = &mut Meter::new(&reference);
    let outcome = match workload {
        "engine-ccf" => engine::run(&engine::CCF, seed, seconds, smoke, pinned, meter),
        "engine-sharing" => engine::run(&engine::SHARING, seed, seconds, smoke, pinned, meter),
        "serve-journal" => serve::run(seed, seconds, smoke, pinned, meter)?,
        _ => checker::run(seconds, smoke, meter),
    };
    // The parts of an operation, printed for reading but not gated.
    let mut parts = Metrics::default();
    for (name, unit, samples) in &outcome.parts {
        parts.median(name.clone(), unit, Better::Higher, samples);
    }
    for row in parts.rows(workload) {
        println!("# {row}");
    }
    // Timed metrics are adjusted to the reference host's nominal speed:
    // a rate divided by, a time multiplied by, the host speed measured
    // around it.
    let rates: Vec<f64> = outcome.rates.iter().map(|r| r.value / r.speed).collect();
    let setups: Vec<f64> = outcome.setups.iter().map(|s| s.value * s.speed).collect();
    let mut metrics = Metrics::default();
    metrics.median("throughput_per_s", "1/s", Better::Higher, &rates);
    metrics.median("setup_s", "s", Better::Lower, &setups);
    metrics.put("peak_rss_mb", "MB", host::peak_rss_mb()?);
    metrics.conform(&END_TO_END)?;
    let raw = |v: &[Sample], f: fn(&Sample) -> f64| median_of(&v.iter().map(f).collect::<Vec<_>>());
    println!(
        "# {workload}: throughput counts {} per second over {} operations; unadjusted \
         medians throughput {} setup {}; host speed {}",
        outcome.item,
        outcome.rates.len(),
        report::fmt(raw(&outcome.rates, |t| t.value)),
        report::fmt(raw(&outcome.setups, |t| t.value)),
        report::fmt(raw(&outcome.rates, |t| t.speed)),
    );
    Ok((metrics, outcome.checks))
}

/// Runs every workload (or one traced census) in child processes and
/// appends their results to `--out`.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["seed", "seconds", "trace-out", "out"],
        &["smoke", "trace"],
    )?;
    if let Some(p) = flags.positional.first() {
        return Err(format!("unexpected argument `{p}`\n{USAGE}"));
    }
    let seed: u64 = flags.num("seed", Some(DEFAULT_SEED))?;
    let smoke = flags.has("smoke");
    // The default is `run_seconds` of BENCHMARK.json.
    let seconds: f64 = flags.num("seconds", Some(if smoke { 2.0 } else { 20.0 }))?;
    let traced = flags.has("trace");
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let cal = TimerCal::measure();
    let host = format!(
        "{{\"cpus\":{},\"cpu\":{},\"rustc\":{},\"timer_ns\":{}}}",
        host::cpus(),
        json::quote(&host::cpu_model()),
        json::quote(&rustc_version()),
        cal.pair_ns
    );
    // A traced run measures every workload's layers at once.
    let workloads: &[&str] = if traced { &WORKLOADS[..1] } else { &WORKLOADS };
    let mut lines = Vec::new();
    let mut all_ok = true;
    for &workload in workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if smoke {
            cmd.arg("--smoke");
        }
        if let Some(path) = flags.values.get("trace-out") {
            cmd.args(["--trace-out", path]);
        }
        let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut rows: Vec<&str> = stdout.lines().collect();
        let last = rows.pop().unwrap_or_default();
        for row in rows {
            println!("{row}");
        }
        let result = json::parse(last).ok().filter(|_| output.status.success());
        let Some(result) = result else {
            eprintln!("secdir-benchmark: {workload} failed ({})", output.status);
            all_ok = false;
            continue;
        };
        all_ok &= result.get("correct") == Some(&json::Json::Bool(true));
        lines.push(format!(
            "{{\"workload\":{},\"seed\":{seed},\"trace\":{traced},\"host\":{host},{}",
            json::quote(workload),
            &last[1..]
        ));
    }
    if let Some(path) = flags.values.get("out") {
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {path}: {e}"))?;
        for line in &lines {
            writeln!(f, "{line}").map_err(|e| format!("write {path}: {e}"))?;
        }
        f.flush().map_err(|e| format!("write {path}: {e}"))?;
        println!("appended {} run(s) to {path}", lines.len());
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["bench"], &[])?;
    let [base, new] = flags.positional.as_slice() else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let read = |p: &str| fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let bench_path = flags
        .values
        .get("bench")
        .map_or("BENCHMARK.json", String::as_str);
    let rules = compare::rules(&json::parse(&read(bench_path)?)?)?;
    let (rows, worse) = compare::compare(
        &rules,
        &compare::load(&read(base)?)?,
        &compare::load(&read(new)?)?,
    );
    for row in rows {
        println!("{row}");
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
