//! `secdir-sim` — command-line driver for the SecDir reproduction.
//!
//! ```text
//! secdir-sim attack  [--directory KIND] [--attack NAME] [--bits N] [--cores N]
//! secdir-sim spec    --mix NAME   [--directory KIND] [--refs N] [--slice-threads N]
//! secdir-sim parsec  --app NAME   [--directory KIND] [--refs N]
//! secdir-sim aes     [--directory KIND] [--encryptions N]
//! secdir-sim design  [--cores N]
//! secdir-sim trace   --mix NAME --out FILE [--refs N]   (capture)
//! secdir-sim trace   --replay FILE [--directory KIND]   (replay)
//! secdir-sim sweep   [--workloads LIST] [--directories LIST] [--seeds LIST]
//!                    [--threads N] [--out FILE] [--resume FILE]
//!                    [--fail-fast] [--budget N]
//! secdir-sim serve   [--tenants N] [--workloads LIST] [--directories LIST]
//!                    [--journal FILE] [--resume] [--workers N]
//!                    [--inject] [--out FILE] [--bench FILE] [...]
//! secdir-sim perf    [--quick] [--directories LIST] [--workload NAME]
//!                    [--threads N] [--slice-threads LIST]
//!                    [--epoch-batch LIST] [--pipeline] [--out FILE]
//! secdir-sim inject  [--directories LIST] [--faults LIST] [--trigger N]
//!                    [--out FILE]
//! secdir-sim verif   [--kinds LIST] [--cores N] [--lines N] [--l2 N]
//!                    [--ed N] [--td N] [--vd N]
//! secdir-sim lint    [--root PATH]
//! ```
//!
//! Directory kinds: `baseline`, `baseline-fixed`, `secdir` (default),
//! `secdir-plain-vd`, `way-partitioned`, `vd-only`, `vd-only-plain`.
//! Attacks: `evict-reload` (default), `prime-probe`, `evict-time`.
//! Every command accepts `--help`/`-h` for its flag list.

use std::collections::HashMap;
use std::process::ExitCode;

use secdir_attack::{evict_reload_attack, evict_time_attack, prime_probe_attack, AttackConfig};
use secdir_machine::inject::{self, FaultKind};
use secdir_machine::perf::{self, PerfSpec};
use secdir_machine::resume::plan_resume;
use secdir_machine::serve::{
    self, JournalFormat, ServeConfig, ServeError, TenantSpec, TenantStatus,
};
use secdir_machine::sweep::{run_matrix, CellOutcome, CellSpec, SweepMatrix, SweepOptions};
use secdir_machine::{
    run_workload, run_workload_sliced, AccessStream, DirectoryKind, Machine, MachineConfig,
    ServedBy,
};
use secdir_mem::{json, CoreId, LineAddr};
use secdir_workloads::aes::AesVictim;
use secdir_workloads::parsec::ParsecApp;
use secdir_workloads::registry;
use secdir_workloads::spec::mixes;

/// Ends the process after a failed write to stdout. A reader that went
/// away (`secdir-sim … | head`) is a quiet, successful exit; any other
/// error is reported and exits 1.
fn stdout_failed(e: &std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("secdir-sim: write to stdout: {e}");
    std::process::exit(1)
}

/// Backs the `print!`/`println!` overrides below: `std`'s versions panic
/// when stdout is a closed pipe.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        stdout_failed(&e);
    }
}

macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Minimal `--key value` parser; rejects unknown keys. On `--help`/`-h`
/// prints `usage` and returns `Ok(None)` so the command can exit cleanly.
fn parse_flags(
    args: &[String],
    allowed: &[&str],
    usage: &str,
) -> Result<Option<HashMap<String, String>>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        if key == "--help" || key == "-h" {
            println!("{usage}");
            return Ok(None);
        }
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, found `{key}`"));
        };
        if !allowed.contains(&name) {
            return Err(format!(
                "unknown flag `--{name}` (allowed: {})",
                allowed
                    .iter()
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} needs a value"));
        };
        out.insert(name.to_string(), value.clone());
    }
    Ok(Some(out))
}

fn get_parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{key}: `{v}`")),
    }
}

/// Like [`get_parsed`], but rejects an explicit `0` with a usage error.
///
/// Thread, repetition, and cell counts have no meaningful zero value;
/// silently clamping `--threads 0` to 1 would make the run claim a
/// configuration the user never asked for, so the flag is refused instead.
fn get_positive(
    flags: &HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, String> {
    let v: usize = get_parsed(flags, key, default)?;
    if v == 0 {
        return Err(format!("--{key} must be at least 1, got 0"));
    }
    Ok(v)
}

/// [`get_positive`] for `u64`-valued flags (reference and budget counts).
fn get_positive_u64(
    flags: &HashMap<String, String>,
    key: &str,
    default: u64,
) -> Result<u64, String> {
    let v: u64 = get_parsed(flags, key, default)?;
    if v == 0 {
        return Err(format!("--{key} must be at least 1, got 0"));
    }
    Ok(v)
}

const ATTACK_USAGE: &str = "\
usage: secdir-sim attack [--directory KIND] [--attack NAME] [--bits N]
                         [--cores N] [--seed N]
  --directory  baseline | baseline-fixed | secdir (default) | secdir-plain-vd
               | way-partitioned | vd-only | vd-only-plain
  --attack     evict-reload (default) | prime-probe | evict-time
  --bits       secret bits to transmit (default 64)
  --cores      core count (default 8)
  --seed       attack RNG seed";

fn cmd_attack(args: &[String]) -> Result<(), String> {
    let Some(flags) = parse_flags(
        args,
        &["directory", "attack", "bits", "cores", "seed"],
        ATTACK_USAGE,
    )?
    else {
        return Ok(());
    };
    let kind = DirectoryKind::parse(flags.get("directory").map_or("secdir", String::as_str))?;
    let bits: usize = get_parsed(&flags, "bits", 64)?;
    let cores: usize = get_parsed(&flags, "cores", 8)?;
    let seed: u64 = get_parsed(&flags, "seed", 0xa77acu64)?;
    let attack = flags.get("attack").map_or("evict-reload", String::as_str);

    let mut machine = Machine::new(MachineConfig::skylake_x(cores, kind));
    let cfg = AttackConfig {
        bits,
        seed,
        ..AttackConfig::standard(cores)
    };
    let target = LineAddr::new(0x5ec);
    let outcome = match attack {
        "evict-reload" => evict_reload_attack(&mut machine, &cfg, target),
        "prime-probe" => prime_probe_attack(&mut machine, &cfg, target),
        "evict-time" => evict_time_attack(&mut machine, &cfg, target),
        other => return Err(format!("unknown attack `{other}`")),
    };
    println!("directory        : {kind:?}");
    println!("attack           : {attack}");
    println!("bits transmitted : {bits}");
    println!("accuracy         : {:.3}  (0.5 = chance)", outcome.accuracy);
    println!(
        "victim inclusion victims: {}",
        outcome.victim_inclusion_victims
    );
    Ok(())
}

/// Warms up with the first `refs / 2` references per core, then measures
/// the remaining `refs - refs / 2`, reporting measured-phase deltas.
///
/// `run_workload`'s cap is per *call*, not cumulative: each call issues up
/// to that many references on top of whatever earlier calls consumed. The
/// measured phase must therefore ask for `refs - refs / 2`, not `refs` —
/// asking for `refs` again would measure a window as long as warm-up plus
/// measurement combined.
///
/// With `slice_threads: Some(n)` both phases run on the epoch-synchronized
/// sliced engine instead of the serial one (even for `n = 1`), so CI can
/// `cmp` the stdout of a 1-thread and a 4-thread run byte for byte; the
/// report deliberately never prints the thread count.
fn run_streams_report(
    kind: DirectoryKind,
    mut streams: Vec<Box<dyn AccessStream>>,
    refs: u64,
    slice_threads: Option<usize>,
) -> Result<(), String> {
    let mut machine = Machine::new(MachineConfig::skylake_x(streams.len(), kind));
    let run = |machine: &mut Machine, streams: &mut Vec<Box<dyn AccessStream>>, cap| {
        match slice_threads {
            Some(n) => run_workload_sliced(machine, streams, cap, n),
            None => run_workload(machine, streams, cap),
        }
    };
    run(&mut machine, &mut streams, refs / 2);
    let s0 = machine.stats().clone();
    let summary = run(&mut machine, &mut streams, refs - refs / 2);
    let stats = machine.stats();
    let (e0, v0, m0) = s0.miss_breakdown();
    let (e1, v1, m1) = stats.miss_breakdown();
    let misses = stats.total_l2_misses() - s0.total_l2_misses();
    println!("directory   : {kind:?}");
    if slice_threads.is_some() {
        // Thread-count-independent on purpose: 1-thread and 4-thread runs
        // must produce byte-identical stdout for the CI `cmp` smoke test.
        println!("engine      : sliced");
    }
    println!("mean IPC    : {:.3}", summary.mean_ipc());
    println!("exec cycles : {}", summary.cycles);
    println!("L2 misses   : {misses}");
    println!(
        "  breakdown : ED/TD {} | VD {} | memory {}",
        e1 - e0,
        v1 - v0,
        m1 - m0
    );
    println!(
        "inclusion victims: {}",
        stats.total_inclusion_victims() - s0.total_inclusion_victims()
    );
    Ok(())
}

const SPEC_USAGE: &str = "\
usage: secdir-sim spec --mix NAME [--directory KIND] [--refs N] [--seed N]
                       [--slice-threads N]
  --mix            mix0..mix11 (Table 5)
  --directory      directory kind (default secdir)
  --refs           references per core, half warm-up half measured
                   (default 200000)
  --seed           workload seed (default 24301)
  --slice-threads  run on the epoch-synchronized sliced engine with N
                   worker threads (N >= 1; even N=1 selects the sliced
                   engine). Output is bit-identical for every N; the
                   default is the serial reference engine.";

fn cmd_spec(args: &[String]) -> Result<(), String> {
    let Some(flags) = parse_flags(
        args,
        &["mix", "directory", "refs", "seed", "slice-threads"],
        SPEC_USAGE,
    )?
    else {
        return Ok(());
    };
    let name = flags.get("mix").ok_or("--mix is required (mix0..mix11)")?;
    let mix = mixes()
        .into_iter()
        .find(|m| m.name == name)
        .ok_or_else(|| format!("unknown mix `{name}`"))?;
    let kind = DirectoryKind::parse(flags.get("directory").map_or("secdir", String::as_str))?;
    let refs: u64 = get_parsed(&flags, "refs", 200_000)?;
    let seed: u64 = get_parsed(&flags, "seed", 0x5eedu64)?;
    let slice_threads = match flags.get("slice-threads") {
        None => None,
        Some(_) => Some(get_positive(&flags, "slice-threads", 1)?),
    };
    println!(
        "mix         : {} ({} + {})",
        mix.name, mix.a.name, mix.b.name
    );
    run_streams_report(kind, mix.streams(8, seed), refs, slice_threads)
}

const PARSEC_USAGE: &str = "\
usage: secdir-sim parsec --app NAME [--directory KIND] [--refs N] [--seed N]
  --app        PARSEC app name (e.g. canneal, freqmine)
  --directory  directory kind (default secdir)
  --refs       references per core, half warm-up half measured (default 200000)
  --seed       workload seed";

fn cmd_parsec(args: &[String]) -> Result<(), String> {
    let Some(flags) = parse_flags(args, &["app", "directory", "refs", "seed"], PARSEC_USAGE)?
    else {
        return Ok(());
    };
    let name = flags.get("app").ok_or("--app is required (e.g. canneal)")?;
    let app = ParsecApp::ALL
        .iter()
        .find(|a| a.name == name)
        .ok_or_else(|| format!("unknown PARSEC app `{name}`"))?;
    let kind = DirectoryKind::parse(flags.get("directory").map_or("secdir", String::as_str))?;
    let refs: u64 = get_parsed(&flags, "refs", 200_000)?;
    let seed: u64 = get_parsed(&flags, "seed", 0x9a25ecu64)?;
    println!("app         : {}", app.name);
    run_streams_report(kind, app.threads(8, seed), refs, None)
}

const AES_USAGE: &str = "\
usage: secdir-sim aes [--directory KIND] [--encryptions N] [--seed N]
  --directory    directory kind (default vd-only)
  --encryptions  AES-128 encryptions to trace (default 200)
  --seed         plaintext RNG seed";

fn cmd_aes(args: &[String]) -> Result<(), String> {
    let Some(flags) = parse_flags(args, &["directory", "encryptions", "seed"], AES_USAGE)? else {
        return Ok(());
    };
    let kind = DirectoryKind::parse(flags.get("directory").map_or("vd-only", String::as_str))?;
    let encryptions: u64 = get_parsed(&flags, "encryptions", 200)?;
    let seed: u64 = get_parsed(&flags, "seed", 0xfe11u64)?;
    let mut machine = Machine::new(MachineConfig::skylake_x(8, kind));
    let mut victim = AesVictim::new(*b"secdir-sim key!!", LineAddr::new(0xc8), seed);
    let (mut mem, mut private, mut dir) = (0u64, 0u64, 0u64);
    while victim.encryptions < encryptions {
        // The AES victim is an infinite stream; a `None` would mean the
        // generator broke, and stopping early is the graceful response.
        let Some(a) = victim.next_access() else { break };
        match machine.access(CoreId(0), a.line, a.write).served {
            ServedBy::Memory => mem += 1,
            s if s.is_private_hit() => private += 1,
            _ => dir += 1,
        }
    }
    println!("directory    : {kind:?}");
    println!("encryptions  : {encryptions}");
    println!("table lookups: {}", mem + private + dir);
    println!("  memory     : {mem}  (Figure 6: first-touches only on VD-only)");
    println!("  private    : {private}");
    println!("  directory  : {dir}");
    Ok(())
}

const TRACE_USAGE: &str = "\
usage: secdir-sim trace --mix NAME --out FILE [--refs N] [--seed N]   (capture)
       secdir-sim trace --replay FILE [--directory KIND]              (replay)
  --mix        mix0..mix11 to capture
  --out        output trace file
  --refs       references per core to capture (default 100000)
  --replay     trace file to replay
  --directory  directory kind for replay (default secdir)
  --seed       workload seed for capture";

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let Some(flags) = parse_flags(
        args,
        &["mix", "out", "refs", "replay", "directory", "seed"],
        TRACE_USAGE,
    )?
    else {
        return Ok(());
    };
    if let Some(path) = flags.get("replay") {
        let kind = DirectoryKind::parse(flags.get("directory").map_or("secdir", String::as_str))?;
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let trace = secdir_workloads::trace::Trace::load(file).map_err(|e| e.to_string())?;
        println!(
            "trace       : {path} ({} cores, {} refs)",
            trace.cores(),
            trace.len()
        );
        let mut machine = Machine::new(MachineConfig::skylake_x(trace.cores(), kind));
        let summary = run_workload(&mut machine, &mut trace.streams(), u64::MAX);
        println!("directory   : {kind:?}");
        println!("mean IPC    : {:.3}", summary.mean_ipc());
        println!("exec cycles : {}", summary.cycles);
        println!("L2 misses   : {}", machine.stats().total_l2_misses());
        println!(
            "inclusion victims: {}",
            machine.stats().total_inclusion_victims()
        );
        return Ok(());
    }
    let name = flags
        .get("mix")
        .ok_or("--mix (capture) or --replay FILE is required")?;
    let out = flags
        .get("out")
        .ok_or("--out FILE is required for capture")?;
    let refs: usize = get_parsed(&flags, "refs", 100_000)?;
    let seed: u64 = get_parsed(&flags, "seed", 0x5eedu64)?;
    let mix = mixes()
        .into_iter()
        .find(|m| m.name == name)
        .ok_or_else(|| format!("unknown mix `{name}`"))?;
    let trace = secdir_workloads::trace::Trace::capture(mix.streams(8, seed), refs);
    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    trace
        .save(std::io::BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    println!(
        "captured {} refs ({} per core) of {} into {out}",
        trace.len(),
        refs,
        mix.name
    );
    Ok(())
}

const DESIGN_USAGE: &str = "\
usage: secdir-sim design [--cores N]
  --cores  core count for the Table-7 storage/area comparison (default 8)";

fn cmd_design(args: &[String]) -> Result<(), String> {
    let Some(flags) = parse_flags(args, &["cores"], DESIGN_USAGE)? else {
        return Ok(());
    };
    let cores: usize = get_parsed(&flags, "cores", 8)?;
    let b = secdir_area::storage::baseline_slice(cores);
    let s = secdir_area::storage::secdir_slice(cores);
    let (ba, sa) = secdir_area::area::table7_area(cores);
    println!("cores                 : {cores}");
    println!("baseline storage (KB) : {:.2}", b.total_kb());
    println!("secdir storage (KB)   : {:.2}", s.total_kb());
    println!("baseline area (mm^2)  : {:.3}", ba.total_mm2());
    println!("secdir area (mm^2)    : {:.3}", sa.total_mm2());
    println!(
        "required conventional associativity: {}",
        secdir_area::associativity::required_associativity(cores)
    );
    if let Some(p) = secdir_area::design_space::design_point(cores, 8) {
        println!("figure-5 ratio (W_ED=8): {:.3}", p.ratio_to_l2);
    }
    Ok(())
}

const SWEEP_USAGE: &str = "\
usage: secdir-sim sweep [--workloads LIST] [--directories LIST] [--seeds LIST]
                        [--cores N] [--warmup N] [--measure N] [--threads N]
                        [--out FILE] [--resume FILE] [--fail-fast] [--budget N]
  --workloads    comma-separated workload names, or the groups
                 spec (default; the 12 Table-5 mixes), parsec, all
  --directories  comma-separated directory kinds (default baseline,secdir)
  --seeds        comma-separated workload seeds (default 24301)
  --cores        cores per cell (default 8, the Table-4 machine)
  --warmup       warm-up references per core (default 350000)
  --measure      measured references per core (default 200000)
  --threads      worker threads, must be >= 1 (default: available
                 parallelism)
  --out          JSONL output file (default: the --resume file, else
                 BENCH_sweep.json)
  --resume       validate FILE as a checkpoint of this same matrix, keep
                 its completed cells, and run only the missing/failed ones
  --fail-fast    stop claiming new cells after the first failure (legacy
                 all-or-nothing behaviour); unstarted cells are recorded
                 as skipped
  --budget       watchdog: max references per core per cell; over-budget
                 cells are recorded as exhausted instead of spinning
Runs the workload x directory x seed matrix in parallel and writes one
JSON object per cell, in matrix order, bit-identical for any --threads
(resumed runs included). A panicking cell becomes a {\"status\":
\"panicked\"} record, the other cells still complete, and the exit code
is nonzero.";

/// Splits a comma-separated flag value, dropping empty segments.
fn split_list(s: &str) -> Vec<String> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect()
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let fail_fast = args.iter().any(|a| a == "--fail-fast");
    let rest: Vec<String> = args
        .iter()
        .filter(|a| *a != "--fail-fast")
        .cloned()
        .collect();
    let Some(flags) = parse_flags(
        &rest,
        &[
            "workloads",
            "directories",
            "seeds",
            "cores",
            "warmup",
            "measure",
            "threads",
            "out",
            "resume",
            "budget",
        ],
        SWEEP_USAGE,
    )?
    else {
        return Ok(());
    };
    let workloads = match flags.get("workloads").map_or("spec", String::as_str) {
        "spec" => registry::spec_mix_names(),
        "parsec" => registry::parsec_names(),
        "all" => registry::all_names(),
        list => {
            let names = split_list(list);
            for n in &names {
                if registry::streams_by_name(n, 1, 0).is_none() {
                    return Err(format!(
                        "unknown workload `{n}` (see `secdir-sim sweep --help`)"
                    ));
                }
            }
            names
        }
    };
    let kinds = split_list(
        flags
            .get("directories")
            .map_or("baseline,secdir", String::as_str),
    )
    .iter()
    .map(|s| DirectoryKind::parse(s))
    .collect::<Result<Vec<_>, _>>()?;
    let seeds = match flags.get("seeds") {
        None => vec![0x5eed],
        Some(list) => split_list(list)
            .iter()
            .map(|s| s.parse().map_err(|_| format!("invalid seed `{s}`")))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let matrix = SweepMatrix {
        workloads,
        kinds,
        seeds,
        cores: get_parsed(&flags, "cores", 8)?,
        warmup: get_parsed(&flags, "warmup", 350_000u64)?,
        measure: get_parsed(&flags, "measure", 200_000u64)?,
    };
    let cells = matrix.cells();
    if cells.is_empty() {
        return Err("empty matrix: need at least one workload, directory, and seed".into());
    }
    let default_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = get_positive(&flags, "threads", default_threads)?.min(cells.len());
    let resume_path = flags.get("resume").map(String::as_str);
    let out_path = flags
        .get("out")
        .map(String::as_str)
        .or(resume_path)
        .unwrap_or("BENCH_sweep.json");
    let budget: Option<u64> = flags
        .get("budget")
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value for --budget: `{v}`"))
        })
        .transpose()?;

    // An absent checkpoint file is an empty checkpoint: everything runs.
    let checkpoint = match resume_path {
        None => String::new(),
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("read {path}: {e}")),
        },
    };
    let plan = plan_resume(&cells, &checkpoint)
        .map_err(|e| format!("--resume {}: {e}", resume_path.unwrap_or("<none>")))?;
    if plan.recovered_truncation {
        println!("recovered a truncated final line in the checkpoint; its cell will re-run");
    }
    let kept = cells.len() - plan.rerun.len();
    let to_run: Vec<CellSpec> = plan.rerun.iter().map(|&i| cells[i].clone()).collect();

    let opts = SweepOptions {
        threads: threads.clamp(1, to_run.len().max(1)),
        fail_fast,
        budget,
    };
    let (outcomes, elapsed) = perf::time(|| run_matrix(&to_run, &registry::factory, &opts));

    let lines = plan.merge(&outcomes);
    let file = std::fs::File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    for line in &lines {
        use std::io::Write as _;
        writeln!(w, "{line}").map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
    }

    let failed = outcomes.iter().filter(|o| !o.is_done()).count();
    println!(
        "{} cells ({} workloads x {} kinds x {} seeds): {kept} kept from checkpoint, \
         {} ran ({failed} failed) on {threads} threads in {:.2}s",
        cells.len(),
        matrix.workloads.len(),
        matrix.kinds.len(),
        matrix.seeds.len(),
        outcomes.len(),
        elapsed.as_secs_f64()
    );
    println!("wrote {out_path}");
    println!();
    println!(
        "{:>14} {:>16} {:>6} {:>10} {:>8} {:>10} {:>8}",
        "workload", "directory", "seed", "cycles", "ipc", "l2_misses", "vd_hits"
    );
    for o in &outcomes {
        let cell = o.cell();
        match o {
            CellOutcome::Done(r) => println!(
                "{:>14} {:>16} {:>6} {:>10} {:>8.3} {:>10} {:>8}",
                cell.workload,
                cell.kind.name(),
                cell.seed,
                r.run.cycles(),
                r.run.ipc(),
                r.run.breakdown.total(),
                r.run.breakdown.vd,
            ),
            CellOutcome::Panicked { msg, .. } => println!(
                "{:>14} {:>16} {:>6} panicked: {msg}",
                cell.workload,
                cell.kind.name(),
                cell.seed,
            ),
            CellOutcome::Exhausted { budget, .. } => println!(
                "{:>14} {:>16} {:>6} exhausted {budget}-access budget",
                cell.workload,
                cell.kind.name(),
                cell.seed,
            ),
            CellOutcome::Skipped { .. } => println!(
                "{:>14} {:>16} {:>6} skipped (fail-fast)",
                cell.workload,
                cell.kind.name(),
                cell.seed,
            ),
        }
    }
    if failed > 0 {
        return Err(format!(
            "{failed} cell(s) failed; re-run with `--resume {out_path}` to retry them"
        ));
    }
    Ok(())
}

const SERVE_USAGE: &str = "\
usage: secdir-sim serve [--tenants N] [--workloads LIST] [--directories LIST]
                        [--cores N] [--refs N] [--seed N]
                        [--pool N] [--queue-cap N] [--global-cap N]
                        [--ingest N] [--drain N] [--idle-timeout N]
                        [--checkpoint-interval N] [--max-waiting N]
                        [--burst-on N] [--burst-off N] [--workers N]
                        [--format jsonl|binary] [--journal FILE] [--resume]
                        [--out FILE] [--bench FILE] [--inject] [--trigger N]
  --tenants              tenant count (default 4); tenant i is named t<i>
  --workloads            comma list of workload names cycled across
                         tenants: uniform (default) or any sweep
                         workload name
  --directories          comma list of directory kinds cycled across
                         tenants, or `all` for the seven kinds (default)
  --cores                cores per tenant machine (default 2)
  --refs                 references per tenant core (default 20000)
  --seed                 base seed; tenant i streams from seed+i
                         (default 24301)
  --pool                 live machines served concurrently (default 4)
  --queue-cap            per-tenant per-core queue bound (default 64)
  --global-cap           total buffered references across all tenants
                         (default 4096)
  --ingest               max references pulled per core per tick
                         (default 8)
  --drain                max references retired per core per tick
                         (default 4)
  --idle-timeout         ticks without progress before a live tenant is
                         evicted as idle (default 64)
  --checkpoint-interval  retired references between journal checkpoints
                         (default 1000)
  --max-waiting          admission waiting room; arrivals past
                         pool+max-waiting are shed at tick 0 (default 16)
  --burst-on             max ticks a tenant's source streams per burst
                         (default 8)
  --burst-off            max idle-gap ticks between bursts; 0 disables
                         gaps (default 3)
  --workers              drain worker threads; the journal is
                         byte-identical for every value (default 1)
  --format               journal encoding: jsonl (one flushed JSON line
                         per record, the default) or binary
                         (secdir-journal/1 checksummed frames, one
                         write+flush per tick; `secdir-sim decode`
                         converts it back to the byte-identical JSONL)
  --journal              checkpoint journal file (default
                         serve_journal.jsonl, or serve_journal.sdj with
                         --format binary)
  --resume               validate the surviving journal and resume: the
                         rewritten journal is byte-identical to an
                         uninterrupted run
  --out                  also write one terminal JSONL record per tenant,
                         in tenant order
  --bench                write per-directory aggregates plus wall-clock
                         throughput (schema secdir-bench-serve/2) to FILE
  --inject               replace the tenant list with the 17 applicable
                         (directory, fault) pairs, one armed fault each;
                         success means every fault fired and was
                         quarantined
  --trigger              access count at which each --inject fault arms
                         (default 600)
Multiplexes many tenant reference streams onto a bounded pool of machines
under a deterministic virtual-time schedule: full queues exert
backpressure, overflow arrivals are shed, panicking tenants are contained,
and the online invariant audit quarantines a tenant whose machine state
goes bad. All progress is journaled with a flush per record, so a run
killed at any byte resumes to a byte-identical journal.
Exit codes: 0 clean drain (with --inject: all faults quarantined);
1 usage, configuration, or I/O error; 2 at least one tenant ended in an
incident — quarantined, panicked, idle, or shed (with --inject: at least
one fault was NOT contained); 3 the resume journal is corrupt.";

/// Builds the tenant list for `serve --inject`: every applicable
/// (directory kind, fault kind) pair, one armed tenant each.
fn inject_tenants(refs: u64, trigger: u64, seed: u64) -> Vec<TenantSpec> {
    let mut tenants = Vec::new();
    for kind in DirectoryKind::ALL {
        for fault in FaultKind::ALL {
            if fault.applicable_to(kind) {
                tenants.push(TenantSpec {
                    name: format!("{}+{}", kind.name(), fault.name()),
                    workload: "uniform".to_string(),
                    kind,
                    seed: seed ^ tenants.len() as u64,
                    cores: 4,
                    refs,
                    fault: Some(secdir_machine::FaultPlan {
                        kind: fault,
                        trigger,
                        core: CoreId(1),
                    }),
                });
            }
        }
    }
    tenants
}

/// The serve workload factory: `uniform` is the built-in synthetic
/// stream; anything else resolves through the sweep registry. Names are
/// validated before the run starts, so an unknown name here returns no
/// streams and surfaces as a configuration error from `run_serve`.
fn serve_factory(spec: &TenantSpec) -> Vec<Box<dyn AccessStream + 'static>> {
    if spec.workload == "uniform" {
        serve::uniform_streams(spec)
    } else {
        registry::streams_by_name(&spec.workload, spec.cores, spec.seed).unwrap_or_default()
    }
}

/// Everything `serve` does after flag parsing; the error string exits 1.
fn run_serve_cli(args: &[String]) -> Result<ExitCode, String> {
    let resume = args.iter().any(|a| a == "--resume");
    let inject = args.iter().any(|a| a == "--inject");
    let rest: Vec<String> = args
        .iter()
        .filter(|a| *a != "--resume" && *a != "--inject")
        .cloned()
        .collect();
    let Some(flags) = parse_flags(
        &rest,
        &[
            "tenants",
            "workloads",
            "directories",
            "cores",
            "refs",
            "seed",
            "pool",
            "queue-cap",
            "global-cap",
            "ingest",
            "drain",
            "idle-timeout",
            "checkpoint-interval",
            "max-waiting",
            "burst-on",
            "burst-off",
            "workers",
            "format",
            "journal",
            "out",
            "bench",
            "trigger",
        ],
        SERVE_USAGE,
    )?
    else {
        return Ok(ExitCode::SUCCESS);
    };
    let seed: u64 = get_parsed(&flags, "seed", 24301u64)?;
    let tenants = if inject {
        for key in ["tenants", "workloads", "directories", "cores"] {
            if flags.contains_key(key) {
                return Err(format!(
                    "--{key} conflicts with --inject (the fault matrix fixes the tenant set)"
                ));
            }
        }
        let refs = get_positive_u64(&flags, "refs", 6_000)?;
        let trigger = get_positive_u64(&flags, "trigger", 600)?;
        inject_tenants(refs, trigger, seed)
    } else {
        if flags.contains_key("trigger") {
            return Err("--trigger only applies with --inject".to_string());
        }
        let count = get_positive(&flags, "tenants", 4)?;
        let cores = get_positive(&flags, "cores", 2)?;
        let refs = get_positive_u64(&flags, "refs", 20_000)?;
        let workloads = split_list(flags.get("workloads").map_or("uniform", String::as_str));
        if workloads.is_empty() {
            return Err("--workloads needs at least one name".to_string());
        }
        for name in &workloads {
            if name != "uniform" && registry::streams_by_name(name, 1, 0).is_none() {
                return Err(format!(
                    "unknown workload `{name}` (uniform or any sweep workload)"
                ));
            }
        }
        let kinds = match flags.get("directories").map_or("all", String::as_str) {
            "all" => DirectoryKind::ALL.to_vec(),
            list => split_list(list)
                .iter()
                .map(|s| DirectoryKind::parse(s))
                .collect::<Result<Vec<_>, _>>()?,
        };
        if kinds.is_empty() {
            return Err("--directories needs at least one kind".to_string());
        }
        (0..count)
            .map(|i| TenantSpec {
                name: format!("t{i}"),
                workload: workloads[i % workloads.len()].clone(),
                kind: kinds[i % kinds.len()],
                seed: seed.wrapping_add(i as u64),
                cores,
                refs,
                fault: None,
            })
            .collect()
    };

    let mut cfg = ServeConfig::new(tenants);
    cfg.pool = get_positive(&flags, "pool", cfg.pool)?;
    cfg.queue_cap = get_positive(&flags, "queue-cap", cfg.queue_cap)?;
    cfg.global_cap = get_positive_u64(&flags, "global-cap", cfg.global_cap)?;
    cfg.ingest = get_positive_u64(&flags, "ingest", cfg.ingest)?;
    cfg.drain = get_positive_u64(&flags, "drain", cfg.drain)?;
    cfg.idle_timeout = get_positive_u64(&flags, "idle-timeout", cfg.idle_timeout)?;
    cfg.checkpoint_interval =
        get_positive_u64(&flags, "checkpoint-interval", cfg.checkpoint_interval)?;
    cfg.max_waiting = get_parsed(&flags, "max-waiting", cfg.max_waiting)?;
    cfg.burst_on_max = get_positive_u64(&flags, "burst-on", cfg.burst_on_max)?;
    cfg.burst_off_max = get_parsed(&flags, "burst-off", cfg.burst_off_max)?;
    cfg.workers = get_positive(&flags, "workers", cfg.workers)?;
    if let Some(name) = flags.get("format") {
        cfg.format = JournalFormat::parse(name)
            .ok_or_else(|| format!("unknown journal format `{name}` (jsonl or binary)"))?;
    }

    let default_journal = match cfg.format {
        JournalFormat::Jsonl => "serve_journal.jsonl",
        JournalFormat::Binary => "serve_journal.sdj",
    };
    let journal_path = flags.get("journal").map_or(default_journal, String::as_str);
    // With --resume the surviving journal is read before the same path is
    // reopened for the rewrite; a missing file is an empty journal. A kill
    // during the rewrite leaves a shorter valid prefix, so resume remains
    // safe to repeat.
    let checkpoint = if resume {
        match std::fs::read(journal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("read {journal_path}: {e}")),
        }
    } else {
        Vec::new()
    };
    let file =
        std::fs::File::create(journal_path).map_err(|e| format!("create {journal_path}: {e}"))?;
    let mut sink = std::io::BufWriter::new(file);
    let (outcome, elapsed) =
        perf::time(|| serve::run_serve(&cfg, &serve_factory, &checkpoint, &mut sink));
    let report = match outcome {
        Ok(report) => report,
        Err(ServeError::Corrupt(msg)) => {
            eprintln!("secdir-sim: corrupt journal {journal_path}: {msg}");
            eprintln!("secdir-sim: move the file aside (or delete it) to start fresh");
            return Ok(ExitCode::from(3));
        }
        Err(ServeError::Config(msg)) | Err(ServeError::Io(msg)) => return Err(msg),
    };
    drop(sink);

    if report.recovered_truncation {
        println!("recovered a truncated final journal line (interrupted write)");
    }
    if resume {
        println!(
            "resumed from {journal_path}: {} record(s) replayed from the journal",
            report.kept_records
        );
    }
    let fmt_opt = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
    println!(
        "{:>28} {:>12} {:>7} {:>9} {:>8} {:>11} {:>9}",
        "tenant", "status", "tick", "retired", "stalled", "cycles", "fired_at"
    );
    for o in &report.outcomes {
        println!(
            "{:>28} {:>12} {:>7} {:>9} {:>8} {:>11} {:>9}",
            o.name,
            o.status.name(),
            o.tick,
            o.retired,
            o.stalled,
            o.cycles,
            fmt_opt(o.fired_at),
        );
        if !o.detail.is_empty() {
            println!("{:>28}   {}", "", o.detail);
        }
    }
    println!(
        "{} tenants over {} virtual ticks; journal {journal_path}",
        report.outcomes.len(),
        report.ticks
    );

    if let Some(path) = flags.get("out") {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        for o in &report.outcomes {
            use std::io::Write as _;
            writeln!(w, "{}", o.record).map_err(|e| e.to_string())?;
            w.flush().map_err(|e| e.to_string())?;
        }
        println!("wrote {path}");
    }
    if let Some(path) = flags.get("bench") {
        write_serve_bench(path, &cfg, &report, elapsed.as_nanos())?;
        println!("wrote {path}");
    }

    if inject {
        let contained = report
            .outcomes
            .iter()
            .filter(|o| o.status == TenantStatus::Quarantined && o.fired_at.is_some())
            .count();
        if contained < report.outcomes.len() {
            eprintln!(
                "secdir-sim: {} of {} armed faults were not quarantined",
                report.outcomes.len() - contained,
                report.outcomes.len()
            );
            return Ok(ExitCode::from(2));
        }
        println!(
            "all {} armed faults fired and were quarantined",
            report.outcomes.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let incidents = report.outcomes.len() - report.count(TenantStatus::Done);
    if incidents > 0 {
        eprintln!("secdir-sim: {incidents} tenant(s) ended in an incident");
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes the `secdir-bench-serve/2` report: one JSONL record per
/// directory kind, aggregating that kind's tenants in virtual time. The
/// virtual-time counters stay reproducible byte-for-byte; schema `/2`
/// adds run-wide wall-clock fields (`format`, `nanos`,
/// `retired_per_sec`, `journal_bytes` — identical on every row of one
/// run) so the serve throughput trajectory is trackable across formats
/// and machines. Those four are the only non-deterministic fields.
fn write_serve_bench(
    path: &str,
    cfg: &ServeConfig,
    report: &serve::ServeReport,
    nanos: u128,
) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let total_retired: u64 = report.outcomes.iter().map(|o| o.retired).sum();
    let retired_per_sec = (total_retired as u128)
        .saturating_mul(1_000_000_000)
        .checked_div(nanos)
        .unwrap_or(0) as u64;
    let mut line = String::new();
    for kind in DirectoryKind::ALL {
        let picked: Vec<_> = cfg
            .tenants
            .iter()
            .zip(&report.outcomes)
            .filter(|(spec, _)| spec.kind == kind)
            .collect();
        if picked.is_empty() {
            continue;
        }
        let sum = |f: &dyn Fn(&serve::TenantOutcome) -> u64| {
            picked.iter().map(|(_, o)| f(o)).sum::<u64>()
        };
        let done = picked
            .iter()
            .filter(|(_, o)| o.status == TenantStatus::Done)
            .count();
        let mut jw = json::Writer::new(&mut line);
        jw.obj();
        jw.key("schema").str("secdir-bench-serve/2");
        jw.key("directory").str(kind.name());
        jw.key("tenants").u64(picked.len() as u64);
        jw.key("done").u64(done as u64);
        jw.key("retired").u64(sum(&|o| o.retired));
        jw.key("stalled").u64(sum(&|o| o.stalled));
        jw.key("cycles").u64(sum(&|o| o.cycles));
        jw.key("l2_misses").u64(sum(&|o| o.l2_misses));
        jw.key("vd_hits").u64(sum(&|o| o.vd_hits));
        jw.key("ticks").u64(report.ticks);
        jw.key("workers").u64(cfg.workers as u64);
        jw.key("format").str(cfg.format.name());
        jw.key("nanos").u128(nanos);
        jw.key("retired_per_sec").u64(retired_per_sec);
        jw.key("journal_bytes").u64(report.journal_bytes);
        jw.end_obj();
        use std::io::Write as _;
        writeln!(w, "{line}").map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `serve` owns its exit codes (see [`SERVE_USAGE`]); flag and
/// configuration errors land on the common code-1 path.
fn cmd_serve(args: &[String]) -> ExitCode {
    match run_serve_cli(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("secdir-sim: {e}");
            ExitCode::FAILURE
        }
    }
}

const DECODE_USAGE: &str = "\
usage: secdir-sim decode [--journal FILE] [--out FILE]
  --journal  binary (secdir-journal/1) serve journal to decode
             (default serve_journal.sdj)
  --out      JSONL output file (default: stdout)
Converts a binary serve journal to JSONL, byte-identical to the journal
a `serve --format jsonl` run over the same schedule writes. A torn final
frame (interrupted write) is discarded with a note on stderr, exactly as
`serve --resume` forgives it.
Exit codes: 0 decoded; 1 usage or I/O error; 3 the journal is corrupt.";

/// Everything `decode` does after flag parsing; the error string exits 1.
fn run_decode_cli(args: &[String]) -> Result<ExitCode, String> {
    let Some(flags) = parse_flags(args, &["journal", "out"], DECODE_USAGE)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let journal_path = flags
        .get("journal")
        .map_or("serve_journal.sdj", String::as_str);
    let bytes = std::fs::read(journal_path).map_err(|e| format!("read {journal_path}: {e}"))?;
    let decoded = match serve::decode_journal(&bytes) {
        Ok(d) => d,
        Err(ServeError::Corrupt(msg)) => {
            eprintln!("secdir-sim: corrupt journal {journal_path}: {msg}");
            return Ok(ExitCode::from(3));
        }
        Err(ServeError::Config(msg)) | Err(ServeError::Io(msg)) => return Err(msg),
    };
    if decoded.torn {
        eprintln!("secdir-sim: discarded a torn final frame (interrupted write)");
    }
    use std::io::Write as _;
    let to_stdout = !flags.contains_key("out");
    let mut out: Box<dyn std::io::Write> = match flags.get("out") {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?,
        )),
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };
    let failed = |e: std::io::Error| {
        if to_stdout {
            stdout_failed(&e);
        }
        e.to_string()
    };
    for line in &decoded.lines {
        writeln!(out, "{line}").map_err(failed)?;
    }
    out.flush().map_err(failed)?;
    Ok(ExitCode::SUCCESS)
}

/// `decode` shares `serve`'s corrupt-journal exit code (3).
fn cmd_decode(args: &[String]) -> ExitCode {
    match run_decode_cli(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("secdir-sim: {e}");
            ExitCode::FAILURE
        }
    }
}

const INJECT_USAGE: &str = "\
usage: secdir-sim inject [--directories LIST] [--faults LIST] [--trigger N]
                         [--out FILE]
  --directories  comma list of directory kinds (default: all seven)
  --faults       comma list of drop-invalidation | skip-quirk-invalidation
                 | leak-vd-on-consolidate | flip-sharer-bit (default: all)
  --trigger      access count at which each fault arms (default 3000)
  --out          JSONL report file (default: table on stdout only)
Arms one deterministic hardware bug per applicable (directory, fault)
pair on a small machine, drives a fixed random workload, and checks the
runtime invariant oracle flags the corruption within one oracle interval
(8192 accesses) of the fault firing; exits nonzero if any fault escapes.";

fn cmd_inject(args: &[String]) -> Result<(), String> {
    let Some(flags) = parse_flags(
        args,
        &["directories", "faults", "trigger", "out"],
        INJECT_USAGE,
    )?
    else {
        return Ok(());
    };
    let kinds: Vec<DirectoryKind> = match flags.get("directories") {
        None => DirectoryKind::ALL.to_vec(),
        Some(list) => split_list(list)
            .iter()
            .map(|s| DirectoryKind::parse(s))
            .collect::<Result<_, _>>()?,
    };
    let faults: Vec<FaultKind> = match flags.get("faults") {
        None => FaultKind::ALL.to_vec(),
        Some(list) => split_list(list)
            .iter()
            .map(|s| FaultKind::parse(s))
            .collect::<Result<_, _>>()?,
    };
    let trigger: u64 = get_parsed(&flags, "trigger", inject::DEFAULT_TRIGGER)?;

    let mut outcomes = Vec::new();
    for &kind in &kinds {
        for &fault in &faults {
            if fault.applicable_to(kind) {
                outcomes.push(inject::run_injection(kind, fault, trigger));
            }
        }
    }
    if outcomes.is_empty() {
        return Err("no applicable (directory, fault) pair selected".into());
    }

    let fmt_opt = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
    println!(
        "{:>16} {:>24} {:>9} {:>12} {:>8}",
        "directory", "fault", "fired_at", "detected_at", "in_time"
    );
    for o in &outcomes {
        println!(
            "{:>16} {:>24} {:>9} {:>12} {:>8}",
            o.kind.name(),
            o.fault.name(),
            fmt_opt(o.fired_at),
            fmt_opt(o.detected_at),
            o.detected_in_time(),
        );
    }
    if let Some(path) = flags.get("out") {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        for o in &outcomes {
            use std::io::Write as _;
            writeln!(w, "{}", o.to_json_line()).map_err(|e| e.to_string())?;
            w.flush().map_err(|e| e.to_string())?;
        }
        println!("wrote {path}");
    }
    let missed = outcomes.iter().filter(|o| !o.detected_in_time()).count();
    if missed > 0 {
        return Err(format!(
            "{missed} of {} injected fault(s) escaped the oracle",
            outcomes.len()
        ));
    }
    println!(
        "all {} injected faults detected within one oracle interval",
        outcomes.len()
    );
    Ok(())
}

const PERF_USAGE: &str = "\
usage: secdir-sim perf [--quick] [--directories LIST] [--workload NAME]
                       [--cores N] [--warmup N] [--measure N] [--reps N]
                       [--cells N] [--threads N] [--slice-threads LIST]
                       [--epoch-batch LIST] [--pipeline]
                       [--seed N] [--out FILE]
  --quick          CI-sized smoke run (~10x fewer references)
  --directories    comma list of kinds (default: all seven)
  --workload       workload name (default mix0)
  --cores          cores per machine (default 8)
  --warmup         warm-up refs/core, untimed in serial and sliced modes
                   (default 20000)
  --measure        measured refs/core (default 200000)
  --reps           timed serial/sliced windows; fastest reported; must be
                   >= 1 (default 5)
  --cells          sweep-phase cells, seeded seed..seed+N; must be >= 1
                   (default 8)
  --threads        sweep-phase worker threads, >= 1 (default: all CPUs)
  --slice-threads  comma list of sliced-engine worker-thread counts, each
                   >= 1 (default 1,2,4,8; quick: 4); one mode:\"sliced\"
                   sample per (thread count, epoch batch) pair
  --epoch-batch    comma list of sliced-engine epoch batch sizes, each
                   >= 1 (default 64); tuning only — results are
                   bit-identical for every value
  --pipeline       overlap the next epoch's top-up with the current
                   epoch's slice phase in the sliced samples (tuning
                   only, bit-identical either way)
  --seed           base workload seed (default 0x5eed as 24301)
  --out            JSONL output file (default BENCH_throughput.json)
Measures engine throughput (accesses/sec) per directory kind — serial,
slice-parallel, and sweep-parallel — and writes one JSON object per
sample (schema secdir-bench-throughput/4); errors if any sample measures
zero accesses/sec.";

fn cmd_perf(args: &[String]) -> Result<(), String> {
    let quick = args.iter().any(|a| a == "--quick");
    let pipeline = args.iter().any(|a| a == "--pipeline");
    let rest: Vec<String> = args
        .iter()
        .filter(|a| *a != "--quick" && *a != "--pipeline")
        .cloned()
        .collect();
    let Some(flags) = parse_flags(
        &rest,
        &[
            "directories",
            "workload",
            "cores",
            "warmup",
            "measure",
            "reps",
            "cells",
            "threads",
            "slice-threads",
            "epoch-batch",
            "seed",
            "out",
        ],
        PERF_USAGE,
    )?
    else {
        return Ok(());
    };
    let mut spec = if quick {
        PerfSpec::quick()
    } else {
        PerfSpec::full()
    };
    if let Some(list) = flags.get("directories") {
        spec.kinds = split_list(list)
            .iter()
            .map(|s| DirectoryKind::parse(s))
            .collect::<Result<Vec<_>, _>>()?;
    }
    if spec.kinds.is_empty() {
        return Err("need at least one directory kind".into());
    }
    if let Some(w) = flags.get("workload") {
        if registry::streams_by_name(w, 1, 0).is_none() {
            return Err(format!(
                "unknown workload `{w}` (see `secdir-sim perf --help`)"
            ));
        }
        spec.workload = w.clone();
    }
    spec.cores = get_parsed(&flags, "cores", spec.cores)?;
    spec.warmup = get_parsed(&flags, "warmup", spec.warmup)?;
    spec.measure = get_parsed(&flags, "measure", spec.measure)?;
    spec.serial_reps = get_positive(&flags, "reps", spec.serial_reps)?;
    spec.sweep_cells = get_positive(&flags, "cells", spec.sweep_cells)?;
    spec.threads = get_positive(&flags, "threads", spec.threads)?;
    if let Some(list) = flags.get("slice-threads") {
        let counts = split_list(list)
            .iter()
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("invalid value in --slice-threads: `{s}`"))
            })
            .collect::<Result<Vec<usize>, _>>()?;
        if counts.is_empty() {
            return Err("--slice-threads needs at least one thread count".into());
        }
        if counts.contains(&0) {
            return Err("--slice-threads entries must be at least 1, got 0".into());
        }
        spec.slice_threads = counts;
    }
    if let Some(list) = flags.get("epoch-batch") {
        let batches = split_list(list)
            .iter()
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("invalid value in --epoch-batch: `{s}`"))
            })
            .collect::<Result<Vec<usize>, _>>()?;
        if batches.is_empty() {
            return Err("--epoch-batch needs at least one batch size".into());
        }
        if batches.contains(&0) {
            return Err("--epoch-batch entries must be at least 1, got 0".into());
        }
        spec.epoch_batches = batches;
    }
    spec.pipeline = pipeline;
    spec.seed = get_parsed(&flags, "seed", spec.seed)?;
    let out_path = flags
        .get("out")
        .map_or("BENCH_throughput.json", String::as_str);

    let samples = perf::measure(&spec, &registry::factory);
    let file = std::fs::File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    perf::write_report(std::io::BufWriter::new(file), &spec, &samples)
        .map_err(|e| e.to_string())?;

    println!(
        "workload {} on {} cores, warmup {} + measure {} refs/core",
        spec.workload, spec.cores, spec.warmup, spec.measure
    );
    println!(
        "{:>16} {:>7} {:>6} {:>8} {:>12} {:>9} {:>14}",
        "directory", "mode", "cells", "threads", "accesses", "secs", "accesses/sec"
    );
    for s in &samples {
        println!(
            "{:>16} {:>7} {:>6} {:>8} {:>12} {:>9.3} {:>14}",
            s.directory.name(),
            s.mode,
            s.cells,
            s.threads,
            s.accesses,
            s.nanos as f64 / 1e9,
            s.accesses_per_sec(),
        );
    }
    println!("wrote {out_path}");
    if let Some(bad) = samples.iter().find(|s| s.accesses_per_sec() == 0) {
        return Err(format!(
            "{} {} sample measured zero accesses/sec",
            bad.directory.name(),
            bad.mode
        ));
    }
    Ok(())
}

const VERIF_USAGE: &str = "\
usage: secdir-sim verif [--full] [--raw] [--threads N] [--bench PATH]
                        [--kinds LIST] [--cores N] [--lines N] [--l2 N]
                        [--ed N] [--td N] [--vd N]
  --full    explore the 4-core x 4-line maximum geometry (default 2x3);
            explicit --cores/--lines still override
  --raw     disable symmetry canonicalization (explore every raw state
            with the serial checker instead of one orbit representative)
  --threads worker threads for the canonical frontier BFS, must be >= 1
            (default 1); results are bit-identical at every thread count
  --bench   also run the checker benchmark (both geometries, raw leg
            timed at quick / orbit-derived at full) and write JSONL
            records (schema secdir-bench-checker/2) to PATH
  --kinds   comma list of baseline | baseline-fixed | way-partitioned
            | secdir | vd-only (default: all five)
  --cores   model cores, 1..=4 (default 2)
  --lines   distinct lines, 1..=4 (default 3)
  --l2      per-core L2 capacity in lines (default 2)
  --ed      ED entry capacity (per partition if way-partitioned; default 1)
  --td      TD entry capacity (default 1)
  --vd      per-core VD bank capacity (default 1)
Exhaustively explores every reachable protocol state of the bounded model
(built on the production step relation) per directory kind, checking SWMR,
directory inclusion, sharer soundness, and ED/TD/VD exclusion; prints the
reachable-state count per kind and exits nonzero with a shortest
counterexample trace on the first violation.";

fn parse_model_kind(name: &str) -> Result<secdir_verif::DirKind, String> {
    use secdir_coherence::AppendixA;
    use secdir_verif::DirKind;
    match name {
        "baseline" => Ok(DirKind::Baseline(AppendixA::SkylakeQuirk)),
        "baseline-fixed" => Ok(DirKind::Baseline(AppendixA::Fixed)),
        "way-partitioned" => Ok(DirKind::WayPartitioned),
        "secdir" => Ok(DirKind::SecDir),
        "vd-only" => Ok(DirKind::VdOnly),
        other => Err(format!(
            "unknown model kind `{other}` (allowed: baseline, baseline-fixed, \
             way-partitioned, secdir, vd-only)"
        )),
    }
}

fn cmd_verif(args: &[String]) -> Result<(), String> {
    use secdir_verif::model::{DirKind, ModelConfig};
    let full = args.iter().any(|a| a == "--full");
    let raw = args.iter().any(|a| a == "--raw");
    let rest: Vec<String> = args
        .iter()
        .filter(|a| *a != "--full" && *a != "--raw")
        .cloned()
        .collect();
    let Some(flags) = parse_flags(
        &rest,
        &[
            "kinds", "threads", "bench", "cores", "lines", "l2", "ed", "td", "vd",
        ],
        VERIF_USAGE,
    )?
    else {
        return Ok(());
    };
    let kinds: Vec<secdir_verif::DirKind> = match flags.get("kinds") {
        None => DirKind::ALL.to_vec(),
        Some(list) => split_list(list)
            .iter()
            .map(|name| parse_model_kind(name))
            .collect::<Result<_, _>>()?,
    };
    let threads = get_positive(&flags, "threads", 1)?;
    let base = if full {
        ModelConfig::full(DirKind::SecDir)
    } else {
        ModelConfig::quick(DirKind::SecDir)
    };
    let mut violations = 0usize;
    for kind in kinds {
        let cfg = ModelConfig {
            kind,
            cores: get_parsed(&flags, "cores", base.cores)?,
            lines: get_parsed(&flags, "lines", base.lines)?,
            l2_capacity: get_parsed(&flags, "l2", base.l2_capacity)?,
            ed_capacity: get_parsed(&flags, "ed", base.ed_capacity)?,
            td_capacity: get_parsed(&flags, "td", base.td_capacity)?,
            vd_capacity: get_parsed(&flags, "vd", base.vd_capacity)?,
            ..base
        };
        let (report, elapsed) = secdir_verif::perf::time(|| {
            if raw {
                secdir_verif::check(cfg)
            } else {
                secdir_verif::check_opt(
                    cfg,
                    &secdir_verif::CheckOptions {
                        canonicalize: true,
                        threads,
                    },
                )
            }
        });
        let scope = if report.canonical {
            "orbit reps"
        } else {
            "states"
        };
        match &report.violation {
            None => println!(
                "{:>16}: {:>8} {scope}, {:>9} transitions, {:>2} threads, {:.3}s, \
                 all invariants hold",
                kind.name(),
                report.states,
                report.transitions,
                report.threads,
                elapsed.as_secs_f64(),
            ),
            Some(v) => {
                violations += 1;
                println!(
                    "{:>16}: VIOLATION after {} {scope}: {}",
                    kind.name(),
                    report.states,
                    v.invariant
                );
                println!("  counterexample ({} steps):", v.trace.len());
                for (i, step) in v.trace.iter().enumerate() {
                    println!("    {:>2}. {step}", i + 1);
                }
            }
        }
    }
    if let Some(path) = flags.get("bench") {
        let records = secdir_verif::run_checker_bench(threads);
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        secdir_verif::perf::write_report(std::io::BufWriter::new(file), &records)
            .map_err(|e| e.to_string())?;
        println!(
            "{:>16} {:>5}x{:<1} {:>10} {:>10} {:>10} {:>12} {:>10}",
            "directory", "geo", "", "raw", "canon", "reduction", "canon st/s", "peak KiB"
        );
        for r in &records {
            println!(
                "{:>16} {:>5}x{:<1} {:>10} {:>10} {:>9.1}x {:>12} {:>10}",
                r.kind.name(),
                r.cores,
                r.lines,
                r.raw_states,
                r.canon_states,
                r.reduction_millis() as f64 / 1000.0,
                r.canon_states_per_sec(),
                r.canon_peak_bytes / 1024,
            );
        }
        println!("wrote {path}");
    }
    if violations > 0 {
        return Err(format!(
            "{violations} directory kind(s) violate the protocol invariants"
        ));
    }
    Ok(())
}

const LINT_USAGE: &str = "\
usage: secdir-sim lint [--root PATH] [--format text|json]
  --root     workspace root to scan (default: current directory)
  --format   output format: `text` (default) prints file:line:col
             diagnostics, `json` emits the deterministic secdir-lint/1
             report (findings + scanned-file list) on stdout
Runs the token-level static-analysis engine (DESIGN.md §11) over every
production source file (crates/*/src, compat/*/src, src/): panicking
calls, hot-path allocation, wall-clock reads, JSONL flush discipline,
crate hygiene, hash-iteration determinism, barrier panic-safety, and
atomic-ordering audits. Exits nonzero on any finding. One-off waivers:
a `lint: allow(<rule>)` comment on (or just above) the offending line;
hash-iter / barrier-panic / atomic-ordering waivers must carry a
`: <justification>` clause. Unknown-rule and stale waivers are
themselves hard errors.";

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let Some(flags) = parse_flags(args, &["root", "format"], LINT_USAGE)? else {
        return Ok(());
    };
    let root = flags.get("root").map_or(".", String::as_str);
    let format = flags.get("format").map_or("text", String::as_str);
    if !matches!(format, "text" | "json") {
        return Err(format!(
            "unknown --format `{format}` (expected text or json)"
        ));
    }
    let report = secdir_verif::lint_workspace(std::path::Path::new(root))
        .map_err(|e| format!("lint scan of `{root}`: {e}"))?;
    if format == "json" {
        print!("{}", secdir_verif::render_json(&report));
    } else {
        for d in &report.findings {
            println!("{d}");
        }
        if report.findings.is_empty() {
            println!("lint: clean ({} files)", report.files.len());
        }
    }
    if report.findings.is_empty() {
        Ok(())
    } else {
        Err(format!("{} lint finding(s)", report.findings.len()))
    }
}

fn usage() -> &'static str {
    "usage: secdir-sim <attack|spec|parsec|aes|design|trace|sweep|serve|decode|perf|inject|verif|lint> [--flags...]\n\
     run `secdir-sim <command> --help` for that command's flags; see the\n\
     module docs (`cargo doc`) or README.md for the full index."
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // `serve` and `decode` return their own exit codes (0 clean / 1 usage
    // / 2 incident / 3 corrupt journal) rather than the shared Ok-or-1
    // mapping below.
    if cmd == "serve" {
        return cmd_serve(rest);
    }
    if cmd == "decode" {
        return cmd_decode(rest);
    }
    let result = match cmd.as_str() {
        "attack" => cmd_attack(rest),
        "spec" => cmd_spec(rest),
        "parsec" => cmd_parsec(rest),
        "aes" => cmd_aes(rest),
        "design" => cmd_design(rest),
        "trace" => cmd_trace(rest),
        "sweep" => cmd_sweep(rest),
        "perf" => cmd_perf(rest),
        "inject" => cmd_inject(rest),
        "verif" => cmd_verif(rest),
        "lint" => cmd_lint(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("secdir-sim: {e}");
            ExitCode::FAILURE
        }
    }
}
