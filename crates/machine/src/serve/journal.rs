//! The serve journal: the resume planner and the replaying emission
//! sink.
//!
//! The journal is the server's only durable state: one header record
//! pinning the scheduling configuration, one spec record per tenant,
//! then checkpoint and terminal records in `(tick, tenant-index)` order
//! — the typed [`Record`] model of [`super::codec`], written in one of
//! two encodings ([`JournalFormat`]):
//!
//! * **JSONL** — one JSON object per line, flushed before the next
//!   record starts, so a SIGKILL at any byte leaves a well-formed prefix
//!   plus at most one truncated final line.
//! * **binary** (`secdir-journal/1`) — records varint-packed into
//!   CRC-checksummed frames, one frame per scheduler tick, flushed per
//!   frame (group commit), so a SIGKILL at any byte leaves a run of
//!   complete frames plus at most one torn tail.
//!
//! Resume is replay. [`plan`] pulls the surviving records through a
//! [`Reader`] and validates them without storing any: the header and
//! specs must equal the configuration's, every stream record must name
//! a known tenant, ticks must not go backwards, and no record may follow
//! a tenant's terminal. The server then re-runs the whole schedule from
//! tick 0 while [`JournalSink`] re-reads the same prefix in step with
//! it: every regenerated record must equal the kept one as a typed
//! value. Tenants whose terminal record survived become *ghosts* —
//! their machines are never rebuilt, and their kept records are spliced
//! (checked against the fields the schedule recomputes, re-encoded from
//! the rest). Any mismatch is a hard [`ServeError::Corrupt`] — never a
//! panic, never silent divergence. Only an interrupted final write
//! (incomplete line, torn frame) is forgiven.
//!
//! Worker count appears nowhere in the journal: a journal produced at
//! `--workers 4` resumes byte-identically at `--workers 1` and vice
//! versa. Record content is also format-independent — decoding a binary
//! journal reproduces the JSONL journal byte-for-byte, which is what
//! `secdir-sim decode` exposes.

use super::codec::{self, Checkpoint, HeaderRec, JournalFormat, Reader, Record, TerminalInfo};
use super::{ServeConfig, TenantStatus};
use std::borrow::Cow;
use std::fmt;
use std::io::Write;

/// Why a serve run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The [`ServeConfig`] itself is invalid (empty tenant list,
    /// duplicate names, zero bounds).
    Config(String),
    /// The resume journal failed validation, or the replay diverged
    /// from it. The journal cannot be trusted; exit code 3.
    Corrupt(String),
    /// Writing the journal or telemetry sink failed.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "invalid serve configuration: {m}"),
            ServeError::Corrupt(m) => write!(f, "corrupt journal: {m}"),
            ServeError::Io(m) => write!(f, "journal write failed: {m}"),
        }
    }
}

// --- resume planning ------------------------------------------------

/// A tenant whose terminal record survived in the journal prefix: its
/// replay is spliced, not re-simulated.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GhostEnd {
    /// Tick of the recorded terminal.
    pub tick: u64,
    /// Recorded terminal status.
    pub status: TenantStatus,
}

/// Validated resume state: how much of the surviving journal is kept,
/// and which tenants it already finished.
pub(crate) struct ServePlan<'a> {
    /// A reader at the start of the surviving journal, for the replay.
    pub replay: Reader<'a>,
    /// Records in the kept prefix (header and specs included).
    pub kept: usize,
    /// Per tenant index: the recorded terminal, if one survived.
    pub ghost: Vec<Option<GhostEnd>>,
    /// Whether a truncated final line / torn final frame was discarded.
    pub recovered_truncation: bool,
}

fn corrupt(record_no: usize, msg: &str) -> ServeError {
    ServeError::Corrupt(format!("journal line {record_no}: {msg}"))
}

const MISMATCH: &str = "header/spec record does not match the current configuration";
const SPLICE_DIVERGED: &str = "kept record diverges from the replayed schedule";

/// Validates a surviving journal against `cfg` and plans the replay.
///
/// `checkpoint` is the raw surviving file content, in `cfg.format` (the
/// format the interrupted run was started with). Records are decoded
/// one at a time and checked, never stored: the kept prefix is re-read
/// by the replay.
///
/// # Errors
///
/// [`ServeError::Corrupt`] on any complete record that is malformed,
/// mismatched against the configuration, out of order, after a
/// terminal, or otherwise untrustworthy — including a journal in the
/// *other* format (a binary journal is never valid UTF-8 JSONL, and a
/// JSONL journal never starts with the binary magic). An interrupted
/// final write (incomplete line, torn frame) is discarded and reported
/// via `recovered_truncation` instead.
pub(crate) fn plan<'a>(
    cfg: &ServeConfig,
    checkpoint: &'a [u8],
) -> Result<ServePlan<'a>, ServeError> {
    let n = cfg.tenants.len();
    let replay = Reader::new(checkpoint, cfg.format)?;
    let mut reader = replay.clone();
    let mut ghost = vec![None; n];
    let mut kept = 0;
    let mut last_tick = 0;
    let recovered_truncation = loop {
        let checked = reader.next().and_then(|rec| match rec {
            None => Ok(false),
            Some(rec) => admit(cfg, kept, &rec, &mut last_tick, &mut ghost).map(|()| true),
        });
        match checked {
            Ok(true) => kept += 1,
            Ok(false) => break reader.torn,
            // An interrupted final line is forgiven, unless it cannot
            // even be the start of the prologue record the configuration
            // expects there.
            Err(_) if reader.at_open_tail() && kept > n => break true,
            Err(_) if reader.at_open_tail() => {
                let want = match kept {
                    0 => Record::Header(HeaderRec::of(cfg)),
                    i => Record::Spec(Cow::Borrowed(&cfg.tenants[i - 1])),
                };
                let mut text = String::new();
                codec::render(&mut text, &want, &[]);
                if text.starts_with(reader.line) {
                    break true;
                }
                return Err(corrupt(kept + 1, MISMATCH));
            }
            Err(e) => return Err(e),
        }
    };
    Ok(ServePlan {
        replay,
        kept,
        ghost,
        recovered_truncation,
    })
}

/// Checks kept record number `idx` (0-based) against the configuration
/// and the record stream so far.
fn admit(
    cfg: &ServeConfig,
    idx: usize,
    rec: &Record<'_>,
    last_tick: &mut u64,
    ghost: &mut [Option<GhostEnd>],
) -> Result<(), ServeError> {
    let n = cfg.tenants.len();
    let fail = |msg: &str| Err(corrupt(idx + 1, msg));
    let (tenant, tick, status) = match rec {
        Record::Header(h) if idx == 0 && *h == HeaderRec::of(cfg) => return Ok(()),
        Record::Spec(s) if idx > 0 && cfg.tenants.get(idx - 1) == Some(&**s) => return Ok(()),
        Record::Checkpoint(c) if idx > n => (c.tenant, c.tick, None),
        Record::Terminal(t) if idx > n => (t.tenant, t.tick, Some(t.status)),
        _ => return fail(MISMATCH),
    };
    // The reader only yields tenant indices below the header's tenant
    // count, which is `n` once the header matched.
    if ghost[tenant].is_some() {
        let name = &cfg.tenants[tenant].name;
        return fail(&format!("record after terminal record for tenant `{name}`"));
    }
    if tick < *last_tick {
        return fail("out-of-order record");
    }
    *last_tick = tick;
    ghost[tenant] = status.map(|status| GhostEnd { tick, status });
    Ok(())
}

// --- emission sink --------------------------------------------------

/// Where journal records go during a run.
///
/// JSONL renders each record into a reusable buffer and writes it with
/// a flush per record; binary appends the varint-packed record to the
/// current frame, and [`JournalSink::commit`] (called once per
/// scheduler tick) writes the frame with one write+flush. While a kept
/// prefix remains, the sink reads it in step with the replay and checks
/// every regenerated record against the kept one as a typed value —
/// equality for re-simulated records, the recomputed fields for ghost
/// records, which are spliced from the kept record itself.
pub(crate) struct JournalSink<'a> {
    sink: &'a mut dyn Write,
    cfg: &'a ServeConfig,
    /// Tenant names by index, for JSONL rendering.
    names: Vec<&'a str>,
    /// The surviving journal, re-read in step with the replay.
    kept: Reader<'a>,
    /// Records in the kept prefix.
    kept_len: usize,
    /// Records emitted so far.
    cursor: usize,
    /// Reusable JSONL render buffer; after a terminal record is emitted
    /// (in either format) it holds that record's line.
    buf: String,
    /// Binary frame under construction (records since the last commit).
    frame: Vec<u8>,
    /// Bytes delivered to the sink so far (including framing).
    bytes: u64,
    /// Whether the binary magic has been written.
    started: bool,
}

fn io_err(e: std::io::Error) -> ServeError {
    ServeError::Io(e.to_string())
}

impl<'a> JournalSink<'a> {
    /// Wraps `sink` for a run over `cfg`, replaying against the first
    /// `kept` records of `replay` (from [`plan`]).
    pub(crate) fn new(
        sink: &'a mut dyn Write,
        cfg: &'a ServeConfig,
        replay: Reader<'a>,
        kept: usize,
    ) -> JournalSink<'a> {
        JournalSink {
            sink,
            cfg,
            names: cfg.tenants.iter().map(|t| t.name.as_str()).collect(),
            kept: replay,
            kept_len: kept,
            cursor: 0,
            buf: String::new(),
            frame: Vec::new(),
            bytes: 0,
            started: false,
        }
    }

    /// The next kept record, while the kept prefix lasts.
    fn next_kept(&mut self) -> Result<Option<Record<'a>>, ServeError> {
        if self.cursor >= self.kept_len {
            return Ok(None);
        }
        self.kept.next()
    }

    /// Delivers one record. JSONL renders it and writes the line plus
    /// its newline in one write, then flushes — the per-record
    /// durability contract. Binary appends it to the pending frame,
    /// which leaves with [`JournalSink::commit`]; a terminal is rendered
    /// too, since its line is the tenant's `record` artifact.
    fn put(&mut self, rec: &Record<'_>) -> Result<(), ServeError> {
        self.cursor += 1;
        let text = self.cfg.format == JournalFormat::Jsonl;
        if text || matches!(rec, Record::Terminal(_)) {
            codec::render(&mut self.buf, rec, &self.names);
        }
        if !text {
            codec::encode(&mut self.frame, rec);
            return Ok(());
        }
        self.buf.push('\n');
        self.sink.write_all(self.buf.as_bytes()).map_err(io_err)?;
        self.sink.flush().map_err(io_err)?;
        self.bytes += self.buf.len() as u64;
        self.buf.pop();
        Ok(())
    }

    /// Emits one regenerated record.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] when it differs from the kept record at
    /// this position.
    pub(crate) fn emit(&mut self, rec: &Record<'_>) -> Result<(), ServeError> {
        if let Some(kept) = self.next_kept()? {
            if kept != *rec {
                return Err(corrupt(
                    self.cursor + 1,
                    "kept record diverges from the deterministic replay",
                ));
            }
        }
        self.put(rec)
    }

    /// Emits the journal prologue — header and spec records — and
    /// commits it as the first frame.
    pub(crate) fn begin(&mut self) -> Result<(), ServeError> {
        let cfg = self.cfg;
        self.emit(&Record::Header(HeaderRec::of(cfg)))?;
        for spec in &cfg.tenants {
            self.emit(&Record::Spec(Cow::Borrowed(spec)))?;
        }
        self.commit()
    }

    /// Emits a regenerated terminal record and returns its JSONL line.
    pub(crate) fn emit_terminal(&mut self, info: &TerminalInfo<'_>) -> Result<String, ServeError> {
        self.emit(&Record::Terminal(info.clone()))?;
        Ok(self.buf.clone())
    }

    /// Splices the next kept record as ghost tenant `now.tenant`'s
    /// checkpoint. Its tenant, tick, `retired` and `stalled` must be the
    /// recomputed ones in `now`; `cycles` comes from the kept record.
    pub(crate) fn splice_checkpoint(&mut self, now: &Checkpoint) -> Result<(), ServeError> {
        match self.next_kept()? {
            Some(Record::Checkpoint(c))
                if (c.tenant, c.tick, c.retired, c.stalled)
                    == (now.tenant, now.tick, now.retired, now.stalled) =>
            {
                self.put(&Record::Checkpoint(c))
            }
            _ => Err(corrupt(self.cursor + 1, SPLICE_DIVERGED)),
        }
    }

    /// Splices the next kept record as ghost tenant `now.tenant`'s
    /// terminal and returns it with its JSONL line. Tenant, tick, status
    /// and `stalled` must be the recomputed ones in `now`, and so must
    /// `retired` — except after a `panicked` or `quarantined` end, where
    /// the kept value need only lie inside this tick's drained `batch`:
    /// a live tenant counts references per access and may stop
    /// mid-batch, its ghost counts whole batches. Everything the
    /// schedule does not recompute (`cycles`, machine stats, `detail`)
    /// comes from the kept record.
    pub(crate) fn splice_terminal(
        &mut self,
        now: &TerminalInfo<'_>,
        batch: u64,
    ) -> Result<(TerminalInfo<'a>, String), ServeError> {
        let Some(Record::Terminal(t)) = self.next_kept()? else {
            return Err(corrupt(self.cursor + 1, SPLICE_DIVERGED));
        };
        let retired_ok = match now.status {
            TenantStatus::Panicked | TenantStatus::Quarantined => {
                (now.retired.saturating_sub(batch)..=now.retired).contains(&t.retired)
            }
            _ => t.retired == now.retired,
        };
        if !retired_ok
            || (t.tenant, t.tick, t.status, t.stalled)
                != (now.tenant, now.tick, now.status, now.stalled)
        {
            return Err(corrupt(self.cursor + 1, SPLICE_DIVERGED));
        }
        self.put(&Record::Terminal(t.clone()))?;
        Ok((t, self.buf.clone()))
    }

    /// Delivers the pending frame (binary group commit): one write plus
    /// one flush for everything emitted since the last commit. The
    /// driver calls this once per scheduler tick; a no-op when nothing
    /// is pending, and always a no-op for JSONL (which flushed per
    /// record already).
    pub(crate) fn commit(&mut self) -> Result<(), ServeError> {
        if self.cfg.format != JournalFormat::Binary {
            return Ok(());
        }
        if !self.started {
            self.sink.write_all(&codec::MAGIC).map_err(io_err)?;
            self.bytes += codec::MAGIC.len() as u64;
            self.started = true;
        }
        if self.frame.is_empty() {
            return Ok(());
        }
        let n = codec::write_frame(self.sink, &self.frame).map_err(io_err)?;
        self.bytes += n;
        self.frame.clear();
        Ok(())
    }

    /// Kept records not yet consumed by the replay (must be zero at the
    /// end of a clean run).
    pub(crate) fn leftover(&self) -> usize {
        self.kept_len.saturating_sub(self.cursor)
    }

    /// Bytes delivered to the sink so far.
    pub(crate) fn bytes_written(&self) -> u64 {
        self.bytes
    }
}
