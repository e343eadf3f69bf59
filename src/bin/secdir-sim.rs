//! `secdir-sim` — command-line driver for the SecDir reproduction.
//!
//! `secdir-sim --help` lists the commands and `secdir-sim <command> --help`
//! prints that command's flags. Both are rendered from [`COMMANDS`], the
//! one table that also drives flag parsing and value checks, so a
//! command's help cannot drift from what it accepts. A bad flag or value
//! exits 1 with a message naming the flag; it never panics.
//!
//! Directory kinds: `baseline`, `baseline-fixed`, `secdir` (default),
//! `secdir-plain-vd`, `way-partitioned`, `vd-only`, `vd-only-plain`.
//! Attacks: `evict-reload` (default), `prime-probe`, `evict-time`.

use std::process::ExitCode;

use secdir_attack::{evict_reload_attack, evict_time_attack, prime_probe_attack, AttackConfig};
use secdir_machine::inject::{self, FaultKind};
use secdir_machine::panics;
use secdir_machine::perf::{self, PerfSpec};
use secdir_machine::resume::plan_resume;
use secdir_machine::serve::{
    self, JournalFormat, ServeConfig, ServeError, TenantSpec, TenantStatus,
};
use secdir_machine::sweep::{
    run_matrix, run_streams, CellOutcome, CellSpec, SweepMatrix, SweepOptions,
};
use secdir_machine::{
    run_workload, AccessStream, DirectoryKind, Engine, Machine, MachineConfig, ServedBy,
    SlicedOptions,
};
use secdir_mem::{json, par, CoreId, LineAddr};
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

/// One subcommand: its flags, the prose closing its `--help`, and the
/// function that runs it on parsed flags. An `Err` exits 1.
struct Command {
    name: &'static str,
    flags: &'static [Flag],
    about: &'static str,
    run: fn(&Flags) -> Result<ExitCode, String>,
}

/// One `--flag` of a command.
struct Flag {
    name: &'static str,
    kind: Kind,
    help: &'static str,
}

/// What a flag takes, checked by [`parse`] before any command runs.
#[derive(Clone, Copy)]
enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// One value, interpreted by the command; the field names it in help.
    Value(&'static str),
    /// A decimal integer in `min..=max`.
    Int { min: u64, max: u64 },
    /// A comma-separated list with at least one item.
    List,
}

/// Upper bounds of integer flags with no limit of their own, by the type
/// the command reads them as.
const U64: u64 = u64::MAX;
const USIZE: u64 = usize::MAX as u64;

/// Core and line bounds of the simulated machine and of the verifier's
/// model, from the libraries that enforce them.
const MACHINE_CORES: u64 = MachineConfig::MAX_CORES as u64;
const MODEL_CORES: u64 = secdir_verif::model::MAX_CORES as u64;
const MODEL_LINES: u64 = secdir_verif::model::MAX_LINES as u64;

const fn switch(name: &'static str, help: &'static str) -> Flag {
    let kind = Kind::Switch;
    Flag { name, kind, help }
}

const fn value(name: &'static str, meta: &'static str, help: &'static str) -> Flag {
    let kind = Kind::Value(meta);
    Flag { name, kind, help }
}

const fn int(name: &'static str, min: u64, max: u64, help: &'static str) -> Flag {
    let kind = Kind::Int { min, max };
    Flag { name, kind, help }
}

const fn list(name: &'static str, help: &'static str) -> Flag {
    let kind = Kind::List;
    Flag { name, kind, help }
}

impl Flag {
    /// The flag as the usage line shows it, e.g. `--refs N`.
    fn synopsis(&self) -> String {
        match self.kind {
            Kind::Switch => format!("--{}", self.name),
            Kind::Value(meta) => format!("--{} {meta}", self.name),
            Kind::Int { .. } => format!("--{} N", self.name),
            Kind::List => format!("--{} LIST", self.name),
        }
    }

    /// Rejects a value this flag's kind does not admit.
    fn check(&self, value: &str) -> Result<(), String> {
        let name = self.name;
        match self.kind {
            Kind::Switch | Kind::Value(_) => Ok(()),
            Kind::List if split_list(value).next().is_none() => {
                Err(format!("--{name} needs at least one comma-separated item"))
            }
            Kind::List => Ok(()),
            Kind::Int { min, max } => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid value for --{name}: `{value}`"))?;
                if n < min {
                    Err(format!("--{name} must be at least {min}, got {n}"))
                } else if n > max {
                    Err(format!("--{name} must be at most {max}, got {n}"))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// One command's flags as given, in table order (`None` = absent).
struct Flags {
    table: &'static [Flag],
    values: Vec<Option<String>>,
}

impl Flags {
    /// The flag's value; `""` for a given switch.
    fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.table.iter().any(|f| f.name == name),
            "--{name} is not in the command's flag table"
        );
        self.table
            .iter()
            .zip(&self.values)
            .find(|(f, _)| f.name == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// An integer flag's value, or `default` when absent. [`parse`]
    /// already checked it against the flag's range, which fits `T`.
    fn int<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// A list flag's items, each converted by `item`; `None` when absent.
    fn list<T>(
        &self,
        name: &str,
        item: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<Vec<T>>, String> {
        self.get(name)
            .map(|v| split_list(v).map(&item).collect())
            .transpose()
    }

    /// `--directories`: a comma list of directory kinds, or `all` for the
    /// seven kinds, else `default`.
    fn directories(&self, default: &[DirectoryKind]) -> Result<Vec<DirectoryKind>, String> {
        if self.get("directories") == Some("all") {
            return Ok(DirectoryKind::ALL.to_vec());
        }
        Ok(self
            .list("directories", DirectoryKind::parse)?
            .unwrap_or_else(|| default.to_vec()))
    }

    /// A comma list of counts, each at least 1; `None` when absent.
    fn counts(&self, name: &str) -> Result<Option<Vec<usize>>, String> {
        self.list(name, |s| match s.parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("--{name} entries must be integers >= 1, got `{s}`")),
        })
    }
}

/// Parses `args` against `cmd`'s flag table. Returns `Ok(None)` when
/// `--help`/`-h` is asked for. Unknown and repeated flags, missing values
/// and values outside a flag's kind are errors naming the flag.
fn parse(cmd: &Command, args: &[String]) -> Result<Option<Flags>, String> {
    let mut values = vec![None; cmd.flags.len()];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, found `{arg}`"));
        };
        let Some((flag, slot)) = cmd
            .flags
            .iter()
            .zip(&mut values)
            .find(|(f, _)| f.name == name)
        else {
            let allowed: Vec<_> = cmd.flags.iter().map(|f| format!("--{}", f.name)).collect();
            return Err(format!(
                "unknown flag `--{name}` (allowed: {})",
                allowed.join(", ")
            ));
        };
        if slot.is_some() {
            return Err(format!("flag --{name} given more than once"));
        }
        let value = match flag.kind {
            Kind::Switch => String::new(),
            _ => it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?
                .clone(),
        };
        flag.check(&value)?;
        *slot = Some(value);
    }
    Ok(Some(Flags {
        table: cmd.flags,
        values,
    }))
}

/// Help text width that [`fill`] wraps to.
const WIDTH: usize = 78;

/// Appends `lead` and then `words` to `out`, one space apart, starting a
/// new line indented as deep as `lead` before any word that would pass
/// [`WIDTH`].
fn fill<S: AsRef<str>>(out: &mut String, lead: &str, words: impl Iterator<Item = S>) {
    out.push_str(lead);
    let indent = lead.chars().count();
    let mut col = indent;
    for (i, word) in words.enumerate() {
        let word = word.as_ref();
        let len = word.chars().count();
        if i > 0 && col + 1 + len > WIDTH {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            col = indent;
        } else if i > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += len;
    }
    out.push('\n');
}

/// A command's `--help`: the usage line, one entry per flag, then the
/// command's closing prose.
fn help(cmd: &Command) -> String {
    let mut out = String::new();
    let lead = format!("usage: secdir-sim {} ", cmd.name);
    let synopses = cmd.flags.iter().map(|f| format!("[{}]", f.synopsis()));
    fill(&mut out, &lead, synopses);
    let width = cmd.flags.iter().map(|f| f.name.len()).max().unwrap_or(0);
    for f in cmd.flags {
        let lead = format!("  --{:<width$}  ", f.name);
        fill(&mut out, &lead, f.help.split_whitespace());
    }
    out.push_str(cmd.about);
    out
}

/// The top-level usage line, listing every command in the table.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    format!(
        "usage: secdir-sim <{}> [--flags...]\n\
         run `secdir-sim <command> --help` for that command's flags.",
        names.join("|")
    )
}

/// Splits a comma-separated flag value, dropping empty segments.
fn split_list(s: &str) -> impl Iterator<Item = &str> {
    s.split(',').filter(|p| !p.is_empty())
}

/// Accepts a workload name the sweep registry knows.
fn known_workload(name: &str) -> Result<String, String> {
    match registry::streams_by_name(name, 1, 0) {
        Some(_) => Ok(name.to_string()),
        None => Err(format!(
            "unknown workload `{name}` (see `secdir-sim sweep --help`)"
        )),
    }
}

fn attack_cmd(flags: &Flags) -> Result<ExitCode, String> {
    let kind = DirectoryKind::parse(flags.get("directory").unwrap_or("secdir"))?;
    let bits: usize = flags.int("bits", 64);
    let cores: usize = flags.int("cores", 8);
    let seed: u64 = flags.int("seed", 0xa77ac);
    let attack = flags.get("attack").unwrap_or("evict-reload");

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
    Ok(ExitCode::SUCCESS)
}

/// Warms up with the first `refs / 2` references per core, then measures
/// the remaining `refs - refs / 2` through [`run_streams`], and prints the
/// measured-phase deltas.
///
/// `spec --slice-threads N` runs both phases on the epoch-synchronized
/// sliced engine instead of the serial one (even for `N = 1`). The report
/// deliberately never prints the thread count, so its text is the same at
/// every `N`; `tests/cli_reports.rs` pins it on both engines.
fn run_streams_report(
    kind: DirectoryKind,
    streams: Vec<Box<dyn AccessStream>>,
    refs: u64,
    engine: Engine,
) -> Result<ExitCode, String> {
    let run = run_streams(kind, streams, engine, refs / 2, refs - refs / 2);
    println!("directory   : {kind:?}");
    if engine != Engine::Serial {
        println!("engine      : sliced");
    }
    println!("mean IPC    : {:.3}", run.ipc());
    println!("exec cycles : {}", run.cycles());
    // Each L2 miss is served by exactly one of ED/TD, VD and memory.
    println!("L2 misses   : {}", run.breakdown.total());
    println!(
        "  breakdown : ED/TD {} | VD {} | memory {}",
        run.breakdown.ed_td, run.breakdown.vd, run.breakdown.memory
    );
    println!("inclusion victims: {}", run.inclusion_victims);
    Ok(ExitCode::SUCCESS)
}

fn spec_cmd(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.get("mix").ok_or("--mix is required (mix0..mix11)")?;
    let mix = mixes()
        .into_iter()
        .find(|m| m.name == name)
        .ok_or_else(|| format!("unknown mix `{name}`"))?;
    let kind = DirectoryKind::parse(flags.get("directory").unwrap_or("secdir"))?;
    let refs: u64 = flags.int("refs", 200_000);
    let seed: u64 = flags.int("seed", 0x5eed);
    let engine = if flags.has("slice-threads") {
        Engine::Sliced {
            threads: flags.int("slice-threads", 1),
            options: SlicedOptions::default(),
        }
    } else {
        Engine::Serial
    };
    println!(
        "mix         : {} ({} + {})",
        mix.name, mix.a.name, mix.b.name
    );
    run_streams_report(kind, mix.streams(8, seed), refs, engine)
}

fn parsec_cmd(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.get("app").ok_or("--app is required (e.g. canneal)")?;
    let app = ParsecApp::ALL
        .iter()
        .find(|a| a.name == name)
        .ok_or_else(|| format!("unknown PARSEC app `{name}`"))?;
    let kind = DirectoryKind::parse(flags.get("directory").unwrap_or("secdir"))?;
    let refs: u64 = flags.int("refs", 200_000);
    let seed: u64 = flags.int("seed", 0x9a25ec);
    println!("app         : {}", app.name);
    run_streams_report(kind, app.threads(8, seed), refs, Engine::Serial)
}

fn aes_cmd(flags: &Flags) -> Result<ExitCode, String> {
    let kind = DirectoryKind::parse(flags.get("directory").unwrap_or("vd-only"))?;
    let encryptions: u64 = flags.int("encryptions", 200);
    let seed: u64 = flags.int("seed", 0xfe11);
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
    Ok(ExitCode::SUCCESS)
}

fn trace_cmd(flags: &Flags) -> Result<ExitCode, String> {
    if let Some(path) = flags.get("replay") {
        let kind = DirectoryKind::parse(flags.get("directory").unwrap_or("secdir"))?;
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
        return Ok(ExitCode::SUCCESS);
    }
    let name = flags
        .get("mix")
        .ok_or("--mix (capture) or --replay FILE is required")?;
    let out = flags
        .get("out")
        .ok_or("--out FILE is required for capture")?;
    let refs: usize = flags.int("refs", 100_000);
    let seed: u64 = flags.int("seed", 0x5eed);
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
    Ok(ExitCode::SUCCESS)
}

fn design_cmd(flags: &Flags) -> Result<ExitCode, String> {
    let cores: usize = flags.int("cores", 8);
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
    Ok(ExitCode::SUCCESS)
}

fn sweep_cmd(flags: &Flags) -> Result<ExitCode, String> {
    let workloads = match flags.get("workloads") {
        None | Some("spec") => registry::spec_mix_names(),
        Some("parsec") => registry::parsec_names(),
        Some("all") => registry::all_names(),
        Some(_) => flags.list("workloads", known_workload)?.unwrap_or_default(),
    };
    let kinds = flags.directories(&[DirectoryKind::Baseline, DirectoryKind::SecDir])?;
    let seeds = flags
        .list("seeds", |s| {
            s.parse().map_err(|_| format!("invalid seed `{s}`"))
        })?
        .unwrap_or_else(|| vec![0x5eed]);
    let matrix = SweepMatrix {
        workloads,
        kinds,
        seeds,
        cores: flags.int("cores", 8),
        warmup: flags.int("warmup", 350_000),
        measure: flags.int("measure", 200_000),
    };
    let cells = matrix.cells();
    let threads = flags.int("threads", par::available_cpus()).min(cells.len());
    let resume_path = flags.get("resume");
    let out_path = flags
        .get("out")
        .or(resume_path)
        .unwrap_or("BENCH_sweep.json");

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
        fail_fast: flags.has("fail-fast"),
    };
    let (outcomes, elapsed) = perf::time(|| run_matrix(&to_run, &registry::factory, &opts));

    let lines = plan.merge(&outcomes);
    let file = std::fs::File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    json::write_lines(std::io::BufWriter::new(file), &lines).map_err(|e| e.to_string())?;

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
    Ok(ExitCode::SUCCESS)
}

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

/// `serve` owns its exit codes (see its `--help`): 2 for an incident and
/// 3 for a corrupt journal; flag and configuration errors exit 1.
fn serve_cmd(flags: &Flags) -> Result<ExitCode, String> {
    let inject = flags.has("inject");
    let seed: u64 = flags.int("seed", 24301);
    let tenants = if inject {
        for key in ["tenants", "workloads", "directories", "cores"] {
            if flags.has(key) {
                return Err(format!(
                    "--{key} conflicts with --inject (the fault matrix fixes the tenant set)"
                ));
            }
        }
        inject_tenants(flags.int("refs", 6_000), flags.int("trigger", 600), seed)
    } else {
        if flags.has("trigger") {
            return Err("--trigger only applies with --inject".to_string());
        }
        let count: usize = flags.int("tenants", 4);
        let cores: usize = flags.int("cores", 2);
        let refs: u64 = flags.int("refs", 20_000);
        let workloads = flags
            .list("workloads", |name| match name {
                "uniform" => Ok(name.to_string()),
                _ => known_workload(name),
            })?
            .unwrap_or_else(|| vec!["uniform".to_string()]);
        let kinds = flags.directories(&DirectoryKind::ALL)?;
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
    cfg.pool = flags.int("pool", cfg.pool);
    cfg.queue_cap = flags.int("queue-cap", cfg.queue_cap);
    cfg.global_cap = flags.int("global-cap", cfg.global_cap);
    cfg.ingest = flags.int("ingest", cfg.ingest);
    cfg.drain = flags.int("drain", cfg.drain);
    cfg.idle_timeout = flags.int("idle-timeout", cfg.idle_timeout);
    cfg.checkpoint_interval = flags.int("checkpoint-interval", cfg.checkpoint_interval);
    cfg.max_waiting = flags.int("max-waiting", cfg.max_waiting);
    cfg.burst_on_max = flags.int("burst-on", cfg.burst_on_max);
    cfg.burst_off_max = flags.int("burst-off", cfg.burst_off_max);
    cfg.workers = flags.int("workers", cfg.workers);
    if let Some(name) = flags.get("format") {
        cfg.format = JournalFormat::parse(name)
            .ok_or_else(|| format!("unknown journal format `{name}` (jsonl or binary)"))?;
    }

    let default_journal = match cfg.format {
        JournalFormat::Jsonl => "serve_journal.jsonl",
        JournalFormat::Binary => "serve_journal.sdj",
    };
    let journal_path = flags.get("journal").unwrap_or(default_journal);
    let resume = flags.has("resume");
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
        let records = report.outcomes.iter().map(|o| &o.record);
        json::write_lines(std::io::BufWriter::new(file), records).map_err(|e| e.to_string())?;
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
/// `workers` is the drain thread count the run used
/// ([`ServeConfig::drain_participants`]), not the requested `--workers`.
fn write_serve_bench(
    path: &str,
    cfg: &ServeConfig,
    report: &serve::ServeReport,
    nanos: u128,
) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let total_retired: u64 = report.outcomes.iter().map(|o| o.retired).sum();
    let retired_per_sec = (total_retired as u128)
        .saturating_mul(1_000_000_000)
        .checked_div(nanos)
        .unwrap_or(0) as u64;
    let mut lines = Vec::new();
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
        let mut line = String::new();
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
        jw.key("workers").u64(cfg.drain_participants() as u64);
        jw.key("format").str(cfg.format.name());
        jw.key("nanos").u128(nanos);
        jw.key("retired_per_sec").u64(retired_per_sec);
        jw.key("journal_bytes").u64(report.journal_bytes);
        jw.end_obj();
        lines.push(line);
    }
    json::write_lines(std::io::BufWriter::new(file), lines).map_err(|e| e.to_string())
}

/// `decode` shares `serve`'s corrupt-journal exit code (3).
fn decode_cmd(flags: &Flags) -> Result<ExitCode, String> {
    let journal_path = flags.get("journal").unwrap_or("serve_journal.sdj");
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
    let to_stdout = !flags.has("out");
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

fn inject_cmd(flags: &Flags) -> Result<ExitCode, String> {
    let kinds = flags.directories(&DirectoryKind::ALL)?;
    let faults = flags
        .list("faults", FaultKind::parse)?
        .unwrap_or_else(|| FaultKind::ALL.to_vec());
    let trigger: u64 = flags.int("trigger", inject::DEFAULT_TRIGGER);

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
        let lines = outcomes.iter().map(|o| o.to_json_line());
        json::write_lines(std::io::BufWriter::new(file), lines).map_err(|e| e.to_string())?;
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
    Ok(ExitCode::SUCCESS)
}

fn perf_cmd(flags: &Flags) -> Result<ExitCode, String> {
    let mut spec = if flags.has("quick") {
        PerfSpec::quick()
    } else {
        PerfSpec::full()
    };
    spec.kinds = flags.directories(&spec.kinds)?;
    if let Some(w) = flags.get("workload") {
        spec.workload = known_workload(w)?;
    }
    spec.cores = flags.int("cores", spec.cores);
    spec.warmup = flags.int("warmup", spec.warmup);
    spec.measure = flags.int("measure", spec.measure);
    spec.serial_reps = flags.int("reps", spec.serial_reps);
    spec.sweep_cells = flags.int("cells", spec.sweep_cells);
    spec.threads = flags.int("threads", spec.threads);
    if let Some(counts) = flags.counts("slice-threads")? {
        spec.slice_threads = counts;
    }
    if let Some(batches) = flags.counts("epoch-batch")? {
        spec.epoch_batches = batches;
    }
    spec.pipeline = flags.has("pipeline");
    spec.seed = flags.int("seed", spec.seed);
    let out_path = flags.get("out").unwrap_or("BENCH_throughput.json");

    let samples = perf::measure(&spec, &registry::factory);
    let file = std::fs::File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    let lines = samples.iter().map(|s| s.to_json_line(&spec));
    json::write_lines(std::io::BufWriter::new(file), lines).map_err(|e| e.to_string())?;

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
    Ok(ExitCode::SUCCESS)
}

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

fn verif_cmd(flags: &Flags) -> Result<ExitCode, String> {
    use secdir_verif::model::{DirKind, ModelConfig};
    let kinds = flags
        .list("kinds", parse_model_kind)?
        .unwrap_or_else(|| DirKind::ALL.to_vec());
    let threads: usize = flags.int("threads", 1);
    let raw = flags.has("raw");
    let base = if flags.has("full") {
        ModelConfig::full(DirKind::SecDir)
    } else {
        ModelConfig::quick(DirKind::SecDir)
    };
    let geometry = ModelConfig {
        cores: flags.int("cores", base.cores),
        lines: flags.int("lines", base.lines),
        l2_capacity: flags.int("l2", base.l2_capacity),
        ed_capacity: flags.int("ed", base.ed_capacity),
        td_capacity: flags.int("td", base.td_capacity),
        vd_capacity: flags.int("vd", base.vd_capacity),
        ..base
    };
    let mut violations = 0usize;
    for kind in kinds {
        let cfg = ModelConfig { kind, ..geometry };
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
        let lines = records.iter().map(|r| r.to_json_line());
        json::write_lines(std::io::BufWriter::new(file), lines).map_err(|e| e.to_string())?;
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
    Ok(ExitCode::SUCCESS)
}

/// Every command, its flags and their help, in `--help` order. Laid out
/// by hand, one flag per entry, so the table reads as the help it renders.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "attack", run: attack_cmd, about: "", flags: &[
        value("directory", "KIND", "baseline | baseline-fixed | secdir (default) \
            | secdir-plain-vd | way-partitioned | vd-only | vd-only-plain"),
        value("attack", "NAME", "evict-reload (default) | prime-probe | evict-time"),
        int("bits", 0, USIZE, "secret bits to transmit (default 64)"),
        int("cores", 2, MACHINE_CORES,
            "core count: one victim plus at least one attacker (default 8)"),
        int("seed", 0, U64, "attack RNG seed"),
    ] },
    Command { name: "spec", run: spec_cmd, about: "", flags: &[
        value("mix", "NAME", "mix0..mix11 (Table 5); required"),
        value("directory", "KIND", "directory kind (default secdir)"),
        int("refs", 0, U64, "references per core, half warm-up half measured (default 200000)"),
        int("seed", 0, U64, "workload seed (default 24301)"),
        int("slice-threads", 1, USIZE, "run on the epoch-synchronized sliced engine with N \
            worker threads (N >= 1; even N=1 selects the sliced engine). Output is \
            bit-identical for every N; the default is the serial reference engine."),
    ] },
    Command { name: "parsec", run: parsec_cmd, about: "", flags: &[
        value("app", "NAME", "PARSEC app name (e.g. canneal, freqmine); required"),
        value("directory", "KIND", "directory kind (default secdir)"),
        int("refs", 0, U64, "references per core, half warm-up half measured (default 200000)"),
        int("seed", 0, U64, "workload seed"),
    ] },
    Command { name: "aes", run: aes_cmd, about: "", flags: &[
        value("directory", "KIND", "directory kind (default vd-only)"),
        int("encryptions", 0, U64, "AES-128 encryptions to trace (default 200)"),
        int("seed", 0, U64, "plaintext RNG seed"),
    ] },
    Command { name: "trace", run: trace_cmd, flags: &[
        value("mix", "NAME", "mix0..mix11 to capture"),
        value("out", "FILE", "output trace file"),
        int("refs", 0, USIZE, "references per core to capture (default 100000)"),
        value("replay", "FILE", "trace file to replay"),
        value("directory", "KIND", "directory kind for replay (default secdir)"),
        int("seed", 0, U64, "workload seed for capture"),
    ], about: "\
Capture: --mix NAME --out FILE [--refs N] [--seed N].
Replay:  --replay FILE [--directory KIND].
" },
    Command { name: "design", run: design_cmd, about: "", flags: &[
        int("cores", 1, USIZE, "core count for the Table-7 storage/area comparison (default 8)"),
    ] },
    Command { name: "sweep", run: sweep_cmd, flags: &[
        list("workloads", "comma-separated workload names, or the groups spec (default; the \
            12 Table-5 mixes), parsec, all"),
        list("directories", "comma-separated directory kinds, or `all` for the seven kinds \
            (default baseline,secdir)"),
        list("seeds", "comma-separated workload seeds (default 24301)"),
        int("cores", 1, MACHINE_CORES, "cores per cell (default 8, the Table-4 machine)"),
        int("warmup", 0, U64, "warm-up references per core (default 350000)"),
        int("measure", 0, U64, "measured references per core (default 200000)"),
        int("threads", 1, USIZE, "worker threads, the calling thread included; must be >= 1 \
            (default: available CPUs, capped at the cell count)"),
        value("out", "FILE", "JSONL output file (default: the --resume file, else \
            BENCH_sweep.json)"),
        value("resume", "FILE", "validate FILE as a checkpoint of this same matrix, keep its \
            completed cells, and run only the missing/failed ones"),
        switch("fail-fast", "stop claiming new cells after the first failure (legacy \
            all-or-nothing behaviour); unstarted cells are recorded as skipped"),
    ], about: "\
Runs the workload x directory x seed matrix in parallel and writes one
JSON object per cell, in matrix order, bit-identical for any --threads
(resumed runs included). A panicking cell becomes a {\"status\":
\"panicked\"} record, the other cells still complete, and the exit code
is nonzero.
" },
    Command { name: "serve", run: serve_cmd, flags: &[
        int("tenants", 1, USIZE, "tenant count (default 4); tenant i is named t<i>"),
        list("workloads", "comma list of workload names cycled across tenants: uniform \
            (default) or any sweep workload name"),
        list("directories", "comma list of directory kinds cycled across tenants, or `all` \
            for the seven kinds (default)"),
        int("cores", 1, MACHINE_CORES, "cores per tenant machine (default 2)"),
        int("refs", 1, U64, "references per tenant core (default 20000)"),
        int("seed", 0, U64, "base seed; tenant i streams from seed+i (default 24301)"),
        int("pool", 1, USIZE, "live machines served concurrently (default 4)"),
        int("queue-cap", 1, USIZE, "per-tenant per-core queue bound (default 64)"),
        int("global-cap", 1, U64, "total buffered references across all tenants (default 4096)"),
        int("ingest", 1, U64, "max references pulled per core per tick (default 8)"),
        int("drain", 1, U64, "max references retired per core per tick (default 4)"),
        int("idle-timeout", 1, U64, "ticks without progress before a live tenant is evicted \
            as idle (default 64)"),
        int("checkpoint-interval", 1, U64, "retired references between journal checkpoints \
            (default 1000)"),
        int("max-waiting", 0, USIZE, "admission waiting room; arrivals past pool+max-waiting \
            are shed at tick 0 (default 16)"),
        int("burst-on", 1, U64, "max ticks a tenant's source streams per burst (default 8)"),
        int("burst-off", 0, U64, "max idle-gap ticks between bursts; 0 disables gaps \
            (default 3)"),
        int("workers", 1, USIZE, "drain threads, the calling thread included, capped at --pool \
            and the tenant count; the journal is byte-identical for every value (default 1)"),
        value("format", "jsonl|binary", "journal encoding: jsonl (one flushed JSON line per \
            record, the default) or binary (secdir-journal/1 checksummed frames, one \
            write+flush per tick; `secdir-sim decode` converts it back to the byte-identical \
            JSONL)"),
        value("journal", "FILE", "checkpoint journal file (default serve_journal.jsonl, or \
            serve_journal.sdj with --format binary)"),
        switch("resume", "validate the surviving journal and resume: the rewritten journal \
            is byte-identical to an uninterrupted run"),
        value("out", "FILE", "also write one terminal JSONL record per tenant, in tenant order"),
        value("bench", "FILE", "write per-directory aggregates plus wall-clock throughput \
            (schema secdir-bench-serve/2) to FILE"),
        switch("inject", "replace the tenant list with the 17 applicable (directory, fault) \
            pairs, one armed fault each; success means every fault fired and was quarantined"),
        int("trigger", 1, U64, "access count at which each --inject fault arms (default 600)"),
    ], about: "\
Multiplexes many tenant reference streams onto a bounded pool of machines
under a deterministic virtual-time schedule: full queues exert
backpressure, overflow arrivals are shed, panicking tenants are contained,
and the online invariant audit quarantines a tenant whose machine state
goes bad. All progress is journaled with a flush per record, so a run
killed at any byte resumes to a byte-identical journal.
Exit codes: 0 clean drain (with --inject: all faults quarantined);
1 usage, configuration, or I/O error; 2 at least one tenant ended in an
incident — quarantined, panicked, idle, or shed (with --inject: at least
one fault was NOT contained); 3 the resume journal is corrupt.
" },
    Command { name: "decode", run: decode_cmd, flags: &[
        value("journal", "FILE", "binary (secdir-journal/1) serve journal to decode (default \
            serve_journal.sdj)"),
        value("out", "FILE", "JSONL output file (default: stdout)"),
    ], about: "\
Converts a binary serve journal to JSONL, byte-identical to the journal
a `serve --format jsonl` run over the same schedule writes. A torn final
frame (interrupted write) is discarded with a note on stderr, exactly as
`serve --resume` forgives it.
Exit codes: 0 decoded; 1 usage or I/O error; 3 the journal is corrupt.
" },
    Command { name: "perf", run: perf_cmd, flags: &[
        switch("quick", "CI-sized smoke run (~10x fewer references)"),
        list("directories", "comma list of kinds, or `all` for the seven kinds (default: \
            all seven)"),
        value("workload", "NAME", "workload name (default mix0)"),
        int("cores", 1, MACHINE_CORES, "cores per machine (default 8)"),
        int("warmup", 0, U64, "warm-up refs/core, untimed in serial and sliced modes \
            (default 20000)"),
        int("measure", 0, U64, "measured refs/core (default 200000)"),
        int("reps", 1, USIZE, "timed serial/sliced windows; fastest reported; must be >= 1 \
            (default 5)"),
        int("cells", 1, USIZE, "sweep-phase cells, seeded seed..seed+N; must be >= 1 \
            (default 8)"),
        int("threads", 1, USIZE, "sweep-phase worker threads, >= 1 (default: all CPUs)"),
        list("slice-threads", "comma list of sliced-engine worker-thread counts, each >= 1 \
            (default 1,2,4,8; quick: 4); one mode:\"sliced\" sample per (thread count, epoch \
            batch) pair"),
        list("epoch-batch", "comma list of sliced-engine epoch batch sizes, each >= 1 \
            (default 64); tuning only — results are bit-identical for every value"),
        switch("pipeline", "overlap the next epoch's top-up with the current epoch's slice \
            phase in the sliced samples (tuning only, bit-identical either way)"),
        int("seed", 0, U64, "base workload seed (default 0x5eed as 24301)"),
        value("out", "FILE", "JSONL output file (default BENCH_throughput.json)"),
    ], about: "\
Measures engine throughput (accesses/sec) per directory kind — serial,
slice-parallel, and sweep-parallel — and writes one JSON object per
sample (schema secdir-bench-throughput/4); errors if any sample measures
zero accesses/sec.
" },
    Command { name: "inject", run: inject_cmd, flags: &[
        list("directories", "comma list of directory kinds, or `all` for the seven kinds \
            (default: all seven)"),
        list("faults", "comma list of drop-invalidation | skip-quirk-invalidation \
            | leak-vd-on-consolidate | flip-sharer-bit (default: all)"),
        int("trigger", 0, U64, "access count at which each fault arms (default 3000)"),
        value("out", "FILE", "JSONL report file (default: table on stdout only)"),
    ], about: "\
Arms one deterministic hardware bug per applicable (directory, fault)
pair on a small machine, drives a fixed random workload, and checks the
runtime invariant oracle flags the corruption within one oracle interval
(8192 accesses) of the fault firing; exits nonzero if any fault escapes.
" },
    Command { name: "verif", run: verif_cmd, flags: &[
        switch("full", "explore the 4-core x 4-line maximum geometry (default 2x3); explicit \
            --cores/--lines still override"),
        switch("raw", "disable symmetry canonicalization (explore every raw state with the \
            serial checker instead of one orbit representative)"),
        int("threads", 1, USIZE, "worker threads for the canonical frontier BFS, the calling \
            thread included; must be >= 1 (default 1); results are bit-identical at every \
            thread count"),
        value("bench", "PATH", "also run the checker benchmark (both geometries, raw leg timed \
            at quick / orbit-derived at full) and write JSONL records (schema \
            secdir-bench-checker/2) to PATH"),
        list("kinds", "comma list of baseline | baseline-fixed | way-partitioned | secdir \
            | vd-only (default: all five)"),
        int("cores", 1, MODEL_CORES, "model cores, 1..=4 (default 2)"),
        int("lines", 1, MODEL_LINES, "distinct lines, 1..=4 (default 3)"),
        int("l2", 1, USIZE, "per-core L2 capacity in lines (default 2)"),
        int("ed", 1, USIZE, "ED entry capacity (per partition if way-partitioned; default 1)"),
        int("td", 1, USIZE, "TD entry capacity (default 1)"),
        int("vd", 1, USIZE, "per-core VD bank capacity (default 1)"),
    ], about: "\
Exhaustively explores every reachable protocol state of the bounded model
(built on the production step relation) per directory kind, checking SWMR,
directory inclusion, sharer soundness, and ED/TD/VD exclusion; prints the
reachable-state count per kind and exits nonzero with a shortest
counterexample trace on the first violation.
" },
];

fn main() -> ExitCode {
    // A contained panic (a sweep cell, a serve tenant) becomes a record;
    // its message and backtrace on stderr would read like a crash.
    panics::quiet_contained_panics();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        None => Err(format!("unknown command `{name}`\n{}", usage())),
        Some(cmd) => parse(cmd, rest).and_then(|flags| match flags {
            Some(flags) => (cmd.run)(&flags),
            None => {
                print!("{}", help(cmd));
                Ok(ExitCode::SUCCESS)
            }
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("secdir-sim: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_command_and_flag_is_declared_once() {
        for (i, cmd) in COMMANDS.iter().enumerate() {
            assert!(
                COMMANDS[..i].iter().all(|c| c.name != cmd.name),
                "command {} declared twice",
                cmd.name
            );
            for (j, flag) in cmd.flags.iter().enumerate() {
                assert!(
                    cmd.flags[..j].iter().all(|f| f.name != flag.name),
                    "{} --{} declared twice",
                    cmd.name,
                    flag.name
                );
                assert!(!matches!(flag.name, "help" | "h"), "--help is reserved");
                if let Kind::Int { min, max } = flag.kind {
                    assert!(
                        min <= max,
                        "{} --{} has an empty range",
                        cmd.name,
                        flag.name
                    );
                }
            }
        }
    }

    #[test]
    fn help_lines_fit_the_width() {
        for cmd in COMMANDS {
            for line in help(cmd).lines() {
                assert!(
                    line.chars().count() <= WIDTH,
                    "{} --help line too long: {line:?}",
                    cmd.name
                );
            }
        }
    }
}
