//! The `serve-journal` workload: the journal-heavy `run_serve` recipe.
//!
//! One operation is a fresh binary run, a fresh JSONL run, a binary
//! resume from the binary journal cut at half its bytes, and
//! `decode_journal` of the full binary journal.
//!
//! Journals are written to memory. Every write and flush call is still
//! made, but the operating system's write path (about 700 MB per run
//! through the page cache) is left out of the measurement.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use secdir_machine::serve::{
    decode_journal, run_serve, uniform_streams, JournalFormat, ServeConfig, ServeReport,
    TenantSpec, TenantStreams,
};
use secdir_machine::{Access, AccessStream, DirectoryKind, ORACLE_INTERVAL};

use crate::engine::Fnv;
use crate::report::{Meter, Outcome, Sample, SETUP_REPS};

pub const TENANTS: usize = 16;
pub const REFS: u64 = 8_000;
const SMOKE_REFS: u64 = 800;

/// FNV-1a of the binary journal at the default seed.
pub const JOURNAL_DIGEST: u64 = 0x2f69_7ff2_1a9c_6458;

/// Sixteen single-core tenants cycling all seven directory kinds. Every
/// retired reference writes a checkpoint record and every tick drains one
/// reference per tenant, so per-record and per-tick costs dominate.
pub fn config(seed: u64, smoke: bool) -> ServeConfig {
    let refs = if smoke { SMOKE_REFS } else { REFS };
    let tenants = (0..TENANTS)
        .map(|i| TenantSpec {
            name: format!("t{i}"),
            workload: "uniform".to_string(),
            kind: DirectoryKind::ALL[i % DirectoryKind::ALL.len()],
            seed: seed.wrapping_add(i as u64),
            cores: 1,
            refs,
            fault: None,
        })
        .collect();
    let mut cfg = ServeConfig::new(tenants);
    cfg.pool = TENANTS;
    cfg.ingest = 1;
    cfg.drain = 1;
    cfg.burst_off_max = 0;
    cfg.checkpoint_interval = 1;
    cfg.workers = 1;
    cfg
}

/// Oracle audits one run performs: every crossing of `ORACLE_INTERVAL`
/// retired references plus the final audit before each `done`.
pub fn audits_per_run(cfg: &ServeConfig) -> u64 {
    cfg.tenants
        .iter()
        .map(|t| t.refs * t.cores as u64 / ORACLE_INTERVAL + u64::from(cfg.final_audit))
        .sum()
}

/// Runs `cfg` into `sink`; returns the report and the host seconds
/// `run_serve` took.
pub fn serve_to(
    cfg: &ServeConfig,
    factory: &dyn TenantStreams,
    checkpoint: &[u8],
    sink: &mut dyn Write,
) -> Result<(ServeReport, f64), String> {
    let start = Instant::now();
    let report = run_serve(cfg, factory, checkpoint, sink).map_err(|e| format!("{e:?}"))?;
    sink.flush().map_err(|e| e.to_string())?;
    Ok((report, start.elapsed().as_secs_f64()))
}

pub fn retired(report: &ServeReport) -> u64 {
    report.outcomes.iter().map(|o| o.retired).sum()
}

/// One timed operation and what it produced.
pub struct Op {
    /// Host seconds of the binary, JSONL and resume runs and the decode.
    pub walls: [f64; 4],
    pub retired: [u64; 3],
    pub binary: Vec<u8>,
    pub jsonl: Vec<u8>,
}

pub fn op(cfg: &ServeConfig) -> Result<(Op, Vec<String>), String> {
    let mut failures = Vec::new();
    let mut walls = [0.0; 4];
    let mut retired_refs = [0; 3];
    let mut journals: Vec<Vec<u8>> = Vec::new();
    for (i, (format, name)) in [
        (JournalFormat::Binary, "fresh binary"),
        (JournalFormat::Jsonl, "fresh JSONL"),
        (JournalFormat::Binary, "resumed binary"),
    ]
    .into_iter()
    .enumerate()
    {
        let cut = match journals.first() {
            Some(binary) if i == 2 => &binary[..binary.len() / 2],
            _ => &[][..],
        };
        let cfg = ServeConfig {
            format,
            ..cfg.clone()
        };
        let mut journal = Vec::new();
        let (report, wall) = serve_to(&cfg, &uniform_streams, cut, &mut journal)?;
        if !report.all_done() {
            failures.push(format!("{name} run: not every tenant ended done"));
        }
        if report.journal_bytes != journal.len() as u64 {
            failures.push(format!("{name} run: reported and written sizes differ"));
        }
        walls[i] = wall;
        retired_refs[i] = retired(&report);
        journals.push(journal);
    }
    let start = Instant::now();
    let decoded = decode_journal(&journals[0]).map_err(|e| format!("decode: {e:?}"))?;
    walls[3] = start.elapsed().as_secs_f64();
    failures.extend(check_journals(
        &journals[0],
        &journals[1],
        &journals[2],
        &decoded.lines,
    ));
    if decoded.torn {
        failures.push("decode: the fresh binary journal ends torn".to_string());
    }
    let jsonl = journals.swap_remove(1);
    let binary = journals.swap_remove(0);
    Ok((
        Op {
            walls,
            retired: retired_refs,
            binary,
            jsonl,
        },
        failures,
    ))
}

/// The decoded binary journal is the JSONL journal byte for byte, and
/// the resumed journal is the fresh one.
pub fn check_journals(
    binary: &[u8],
    jsonl: &[u8],
    resumed: &[u8],
    decoded: &[String],
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut text = Vec::with_capacity(jsonl.len());
    for line in decoded {
        text.extend_from_slice(line.as_bytes());
        text.push(b'\n');
    }
    if text != jsonl {
        failures.push("decoded binary journal differs from the JSONL journal".to_string());
    }
    if resumed != binary {
        failures.push("resumed journal differs from the fresh one".to_string());
    }
    failures
}

pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

pub fn run(
    seed: u64,
    seconds: f64,
    smoke: bool,
    pinned: bool,
    meter: &mut Meter,
) -> Result<Outcome, String> {
    let mut out = Outcome::new("refs");
    let mut cfg = None;
    meter.speed();
    // Set-up is the configuration plus one untimed operation, which pays
    // the first-touch costs of the machines and journal buffers.
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let c = config(seed, smoke);
        let (_, failures) = op(&c)?;
        let value = start.elapsed().as_secs_f64();
        out.setups.push(Sample {
            value,
            speed: meter.speed(),
        });
        out.checks.record(failures);
        cfg = Some(c);
    }
    let cfg = cfg.expect("at least one set-up");
    let mut parts: [Vec<f64>; 4] = Default::default();
    let measure = Instant::now();
    while out.rates.is_empty() || measure.elapsed().as_secs_f64() < seconds {
        let (op, mut failures) = op(&cfg)?;
        let speed = meter.speed();
        // The runs and the decode; not the benchmark's own checks.
        let wall: f64 = op.walls.iter().sum();
        if pinned && out.rates.is_empty() && digest(&op.binary) != JOURNAL_DIGEST {
            failures.push(format!(
                "journal digest {:#018x} != pinned {JOURNAL_DIGEST:#018x}",
                digest(&op.binary)
            ));
        }
        out.checks.record(failures);
        out.rates.push(Sample {
            value: op.retired.iter().sum::<u64>() as f64 / wall,
            speed,
        });
        for (samples, rate) in parts.iter_mut().zip(op.part_rates()) {
            samples.push(rate);
        }
    }
    for ((name, unit), samples) in PARTS.into_iter().zip(parts) {
        out.parts.push((name.to_string(), unit, samples));
    }
    Ok(out)
}

/// The parts of an operation: name and unit of each rate.
pub const PARTS: [(&str, &str); 4] = [
    ("serve_binary_retired_per_s", "refs/s"),
    ("serve_jsonl_retired_per_s", "refs/s"),
    ("resume_retired_per_s", "refs/s"),
    ("decode_mb_per_s", "MB/s"),
];

impl Op {
    /// The rates of [`PARTS`], in order.
    pub fn part_rates(&self) -> [f64; 4] {
        [
            self.retired[0] as f64 / self.walls[0],
            self.retired[1] as f64 / self.walls[1],
            self.retired[2] as f64 / self.walls[2],
            self.binary.len() as f64 / 1e6 / self.walls[3],
        ]
    }
}

/// Kinds of host event the traced serve run records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ev {
    Source,
    Write,
    Flush,
}

/// One timed call: what, when, and how many refs or bytes it moved.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub ev: Ev,
    pub start: u64,
    pub end: u64,
    pub n: u64,
}

/// A `Write` sink that times every call into the inner writer.
pub struct TimingSink<W> {
    pub inner: W,
    origin: Instant,
    pub events: Vec<Event>,
}

impl<W> TimingSink<W> {
    pub fn new(inner: W, origin: Instant) -> Self {
        TimingSink {
            inner,
            origin,
            events: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl<W: Write> Write for TimingSink<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = self.now();
        let n = self.inner.write(buf)?;
        let end = self.now();
        self.events.push(Event {
            ev: Ev::Write,
            start,
            end,
            n: n as u64,
        });
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        let start = self.now();
        self.inner.flush()?;
        let end = self.now();
        self.events.push(Event {
            ev: Ev::Flush,
            start,
            end,
            n: 0,
        });
        Ok(())
    }
}

/// The uniform tenant streams, each pulled in timed batches.
pub struct TimingStreams {
    origin: Instant,
    pub events: Arc<Mutex<Vec<Event>>>,
}

impl TimingStreams {
    pub fn new(origin: Instant) -> Self {
        TimingStreams {
            origin,
            events: Arc::default(),
        }
    }
}

impl TenantStreams for TimingStreams {
    fn streams(&self, spec: &TenantSpec) -> Vec<Box<dyn AccessStream + 'static>> {
        uniform_streams(spec)
            .into_iter()
            .map(|inner| {
                Box::new(TimedSource {
                    inner,
                    buf: Vec::with_capacity(SOURCE_BATCH),
                    origin: self.origin,
                    events: Arc::clone(&self.events),
                }) as Box<dyn AccessStream>
            })
            .collect()
    }
}

const SOURCE_BATCH: usize = 64;

struct TimedSource {
    inner: Box<dyn AccessStream>,
    /// Pulled references, next one last.
    buf: Vec<Access>,
    origin: Instant,
    events: Arc<Mutex<Vec<Event>>>,
}

impl AccessStream for TimedSource {
    fn next_access(&mut self) -> Option<Access> {
        if self.buf.is_empty() {
            let start = self.origin.elapsed().as_nanos() as u64;
            for _ in 0..SOURCE_BATCH {
                match self.inner.next_access() {
                    Some(a) => self.buf.push(a),
                    None => break,
                }
            }
            let end = self.origin.elapsed().as_nanos() as u64;
            self.buf.reverse();
            let event = Event {
                ev: Ev::Source,
                start,
                end,
                n: self.buf.len() as u64,
            };
            self.events
                .lock()
                .expect("source event log poisoned")
                .push(event);
        }
        self.buf.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_streams_deliver_the_uniform_sequence() {
        let spec = &config(5, true).tenants[3];
        let mut plain = uniform_streams(spec).remove(0);
        let timing = TimingStreams::new(Instant::now());
        let mut timed = timing.streams(spec).remove(0);
        for _ in 0..200 {
            assert_eq!(plain.next_access(), timed.next_access());
        }
        let events = timing.events.lock().unwrap();
        assert_eq!(
            events.iter().map(|e| e.n).sum::<u64>(),
            4 * SOURCE_BATCH as u64
        );
    }

    #[test]
    fn timed_run_writes_the_same_journal() {
        let cfg = ServeConfig {
            format: JournalFormat::Binary,
            ..config(11, true)
        };
        let mut plain = Vec::new();
        serve_to(&cfg, &uniform_streams, &[], &mut plain).unwrap();
        let origin = Instant::now();
        let mut sink = TimingSink::new(Vec::new(), origin);
        let (report, _) = serve_to(&cfg, &TimingStreams::new(origin), &[], &mut sink).unwrap();
        assert!(report.all_done());
        assert_eq!(sink.inner, plain);
        assert!(sink.events.iter().any(|e| e.ev == Ev::Flush));
    }

    #[test]
    fn journal_checks_catch_divergence() {
        let cfg = ServeConfig {
            format: JournalFormat::Binary,
            ..config(2, true)
        };
        let mut binary = Vec::new();
        serve_to(&cfg, &uniform_streams, &[], &mut binary).unwrap();
        let mut jsonl = Vec::new();
        let jcfg = ServeConfig {
            format: JournalFormat::Jsonl,
            ..cfg.clone()
        };
        serve_to(&jcfg, &uniform_streams, &[], &mut jsonl).unwrap();
        let mut resumed = Vec::new();
        serve_to(
            &cfg,
            &uniform_streams,
            &binary[..binary.len() / 2],
            &mut resumed,
        )
        .unwrap();
        let lines = decode_journal(&binary).unwrap().lines;
        assert!(check_journals(&binary, &jsonl, &resumed, &lines).is_empty());
        assert_eq!(
            check_journals(&binary, &jsonl[1..], &resumed[1..], &lines).len(),
            2
        );
    }

    #[test]
    fn audits_count_final_sweeps_and_interval_crossings() {
        let mut cfg = config(1, false);
        assert_eq!(audits_per_run(&cfg), TENANTS as u64);
        cfg.tenants[0].refs = 2 * ORACLE_INTERVAL;
        assert_eq!(audits_per_run(&cfg), TENANTS as u64 + 2);
    }
}
