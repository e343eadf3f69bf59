//! The journal's typed record model and its two codecs.
//!
//! Every journal record is a [`Record`]: one header pinning the
//! scheduling configuration, one spec per tenant, then checkpoint and
//! terminal records in `(tick, tenant-index)` order. A record has two
//! encodings ([`JournalFormat`]):
//!
//! * **JSONL** — [`render`] writes one JSON object per line, fields in
//!   a fixed order, through the workspace's one JSON writer
//!   ([`secdir_mem::json`]). Decoding walks the same keys with that
//!   module's strict reader: a line decodes to a `Record` only if it is
//!   byte-identical to that record's rendering (keys in order, minimal
//!   decimal numbers, exactly the writer's escapes), so every accepted
//!   line has one meaning and one spelling.
//! * **binary** (`secdir-journal/1`) — an 8-byte magic followed by a
//!   sequence of **frames**:
//!
//!   ```text
//!   [payload_len: varint] [payload: payload_len bytes] [crc32(payload): 4 bytes LE]
//!   ```
//!
//!   The payload is a back-to-back run of records, each a one-byte type
//!   tag followed by varint-packed fields (strings are a varint length
//!   plus UTF-8 bytes; tenants and table values are indices).
//!
//! [`Reader`] pulls records out of either encoding one at a time: resume
//! validates them and the replay compares them as typed values, without
//! ever holding more than one. [`decode_journal`] renders each decoded
//! binary record through [`render`], so a decoded binary journal is the
//! JSONL journal of the same run byte for byte.
//!
//! Framing is the durability and crash-recovery unit: the writer
//! buffers all records emitted in one scheduler tick into one frame and
//! writes it with a single `write + flush` (group commit — see
//! `DESIGN.md` §13 for the bounded-loss argument). A file that ends
//! mid-varint, mid-payload, or mid-checksum is a *torn tail* — the
//! complete frames before it are kept and the tail is discarded,
//! exactly like the JSONL planner forgives one incomplete final line.
//! Anything else — a checksum mismatch over a fully present frame, a
//! non-minimal varint, an unknown record type, an out-of-range index, a
//! record that does not tile the payload exactly, records out of header
//! → specs → stream order — is a hard [`ServeError::Corrupt`]:
//! truncation is the only corruption a crash can produce, so everything
//! else means the bytes cannot be trusted.
//!
//! Varints are LEB128, and the decoder enforces the *minimal* encoding
//! (a multi-byte varint must not end in a zero group): every value has
//! exactly one valid byte representation, which is what lets a resumed
//! run re-encode replayed records and produce a byte-identical file.

use super::journal::ServeError;
use super::{ServeConfig, TenantSpec, TenantStatus};
use crate::inject::{FaultKind, FaultPlan};
use crate::DirectoryKind;
use secdir_mem::json::{self, Writer};
use secdir_mem::CoreId;
use std::borrow::Cow;
use std::io::{self, Write};

/// On-disk journal encoding, selected by `serve --format`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalFormat {
    /// One JSON object per line, flushed per record (the PR 9 format).
    Jsonl,
    /// `secdir-journal/1` checksummed binary frames, flushed per tick.
    Binary,
}

impl JournalFormat {
    /// Every format, in declaration order.
    pub const ALL: [JournalFormat; 2] = [JournalFormat::Jsonl, JournalFormat::Binary];

    /// The stable CLI name of this format.
    pub fn name(self) -> &'static str {
        match self {
            JournalFormat::Jsonl => "jsonl",
            JournalFormat::Binary => "binary",
        }
    }

    /// Parses a [`JournalFormat::name`] string.
    pub fn parse(s: &str) -> Option<JournalFormat> {
        JournalFormat::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// File magic: non-ASCII first byte (so a binary journal can never be
/// mistaken for JSONL), format name and version, and CR/LF + ^Z bytes
/// that catch newline-translating or text-mode transfers (the PNG
/// trick).
pub(crate) const MAGIC: [u8; 8] = [0x89, b'S', b'D', b'J', b'1', b'\r', b'\n', 0x1a];

/// Sanity bound on one frame's payload. The writer emits one frame per
/// tick, far below this; a larger claimed length can only come from
/// corruption, so the decoder fails hard instead of treating the rest
/// of the file as one torn frame.
const MAX_FRAME: u64 = 1 << 24;

/// Record type tags.
const REC_HEADER: u8 = 1;
const REC_SPEC: u8 = 2;
const REC_CHECKPOINT: u8 = 3;
const REC_TERMINAL: u8 = 4;

/// The `schema` value of a JSONL header record.
const SCHEMA: &str = "secdir-serve/1";

/// JSONL keys of [`HeaderRec::scalars`], in order.
const HEADER_KEYS: [&str; 11] = [
    "tenants",
    "pool",
    "queue_cap",
    "global_cap",
    "ingest",
    "drain",
    "idle_timeout",
    "checkpoint_interval",
    "max_waiting",
    "burst_on",
    "burst_off",
];

/// One journal record, as both encodings carry it. Strings borrow from
/// the decoded bytes where they can, so reading a journal allocates
/// only for spec records and for JSONL text that holds escapes.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Record<'a> {
    /// The scheduling configuration (the first record).
    Header(HeaderRec),
    /// One tenant's identity (the next `tenants` records, in index
    /// order).
    Spec(Cow<'a, TenantSpec>),
    /// Periodic progress of one tenant.
    Checkpoint(Checkpoint),
    /// How one tenant ended (its last record).
    Terminal(TerminalInfo<'a>),
}

/// The scheduling configuration a journal header pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HeaderRec {
    /// The values [`HEADER_KEYS`] names, in its order: the tenant count
    /// (the number of spec records that follow), then the
    /// [`ServeConfig`] bounds.
    pub scalars: [u64; 11],
    /// See [`ServeConfig::final_audit`].
    pub audit: bool,
}

impl HeaderRec {
    /// The header record a run over `cfg` writes.
    pub(crate) fn of(cfg: &ServeConfig) -> HeaderRec {
        HeaderRec {
            scalars: [
                cfg.tenants.len() as u64,
                cfg.pool as u64,
                cfg.queue_cap as u64,
                cfg.global_cap,
                cfg.ingest,
                cfg.drain,
                cfg.idle_timeout,
                cfg.checkpoint_interval,
                cfg.max_waiting as u64,
                cfg.burst_on_max,
                cfg.burst_off_max,
            ],
            audit: cfg.final_audit,
        }
    }
}

/// A progress checkpoint record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Checkpoint {
    /// Tenant (spec) index.
    pub tenant: usize,
    /// Tick the checkpoint was taken.
    pub tick: u64,
    /// References retired so far.
    pub retired: u64,
    /// References delayed by backpressure so far.
    pub stalled: u64,
    /// Simulated cycles so far.
    pub cycles: u64,
}

/// A terminal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TerminalInfo<'a> {
    /// Tenant (spec) index.
    pub tenant: usize,
    /// Tick the tenant went terminal.
    pub tick: u64,
    /// Why it went terminal.
    pub status: TenantStatus,
    /// Final retired / stalled / cycle counters.
    pub retired: u64,
    /// See `retired`.
    pub stalled: u64,
    /// See `retired`.
    pub cycles: u64,
    /// Access count at which an armed fault fired, if it did.
    pub fired_at: Option<u64>,
    /// Final machine stats (zero for sheds and for machines a panic
    /// destroyed).
    pub l2_misses: u64,
    /// See `l2_misses`.
    pub vd_hits: u64,
    /// Panic message or invariant text (empty otherwise).
    pub detail: Cow<'a, str>,
}

// --- varints and checksums ------------------------------------------

/// Appends `v` as a minimal LEB128 varint.
pub(crate) fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let group = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(group);
            return;
        }
        out.push(group | 0x80);
    }
}

/// Encodes `v` into a stack buffer (for the frame length prefix, which
/// goes straight to the sink without touching the frame buffer).
fn put_uv_arr(out: &mut [u8; 10], mut v: u64) -> usize {
    let mut n = 0;
    loop {
        let group = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out[n] = group;
            return n + 1;
        }
        out[n] = group | 0x80;
        n += 1;
    }
}

/// One varint read: a value, a clean end-of-input (file ends before the
/// encoding completes — only ever forgivable at the top level of the
/// file), or bytes no minimal encoder produces.
enum Uv {
    Val(u64),
    Eof,
    Malformed,
}

/// Reads one minimal varint at `*off`, advancing it on success.
fn get_uv(bytes: &[u8], off: &mut usize) -> Uv {
    let start = *off;
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(*off) else {
            *off = start;
            return Uv::Eof;
        };
        *off += 1;
        let group = (b & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && group > 1) {
            return Uv::Malformed;
        }
        v |= group << shift;
        if b & 0x80 == 0 {
            // Minimal-form check: a trailing zero group is redundant.
            if b == 0 && shift != 0 {
                return Uv::Malformed;
            }
            return Uv::Val(v);
        }
        shift += 7;
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) slice-by-8 tables, built
/// at compile time. `tables[0]` is the classic bytewise table; entry `n`
/// of `tables[k]` is the CRC of byte `n` followed by `k` zero bytes, so
/// eight lookups fold eight input bytes into the running CRC at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xedb8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            n += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 of `data` (the standard IEEE checksum): slice-by-8 over whole
/// 8-byte words, one bytewise table lookup per byte of the tail.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// --- binary encoding ------------------------------------------------

fn put_str(frame: &mut Vec<u8>, s: &str) {
    put_uv(frame, s.len() as u64);
    frame.extend_from_slice(s.as_bytes());
}

/// Index of `k` in [`DirectoryKind::ALL`] (total: every kind is in the
/// array, so the fallback is unreachable).
fn kind_index(k: DirectoryKind) -> u64 {
    DirectoryKind::ALL.iter().position(|&x| x == k).unwrap_or(0) as u64
}

/// Index of `k` in [`FaultKind::ALL`] (total, as above).
fn fault_index(k: FaultKind) -> u64 {
    FaultKind::ALL.iter().position(|&x| x == k).unwrap_or(0) as u64
}

/// Index of `s` in [`TenantStatus::ALL`] (total, as above).
fn status_index(s: TenantStatus) -> u64 {
    TenantStatus::ALL.iter().position(|&x| x == s).unwrap_or(0) as u64
}

/// Appends `rec` to a frame under construction. A spec's fault is a tag
/// varint — 0 for none, `1 + FaultKind index` followed by trigger and
/// core otherwise — and a terminal's `fired_at` is a presence tag (0/1)
/// followed by the value when present, mirroring the JSONL `null`.
pub(crate) fn encode(frame: &mut Vec<u8>, rec: &Record<'_>) {
    match rec {
        Record::Header(h) => {
            frame.push(REC_HEADER);
            for v in h.scalars {
                put_uv(frame, v);
            }
            frame.push(u8::from(h.audit));
        }
        Record::Spec(spec) => {
            frame.push(REC_SPEC);
            put_str(frame, &spec.name);
            put_str(frame, &spec.workload);
            for v in [
                kind_index(spec.kind),
                spec.seed,
                spec.cores as u64,
                spec.refs,
            ] {
                put_uv(frame, v);
            }
            match spec.fault {
                None => put_uv(frame, 0),
                Some(p) => {
                    for v in [1 + fault_index(p.kind), p.trigger, p.core.0 as u64] {
                        put_uv(frame, v);
                    }
                }
            }
        }
        Record::Checkpoint(c) => {
            frame.push(REC_CHECKPOINT);
            for v in [c.tenant as u64, c.tick, c.retired, c.stalled, c.cycles] {
                put_uv(frame, v);
            }
        }
        Record::Terminal(t) => {
            frame.push(REC_TERMINAL);
            let status = status_index(t.status);
            for v in [
                t.tenant as u64,
                t.tick,
                status,
                t.retired,
                t.stalled,
                t.cycles,
            ] {
                put_uv(frame, v);
            }
            match t.fired_at {
                None => put_uv(frame, 0),
                Some(v) => {
                    put_uv(frame, 1);
                    put_uv(frame, v);
                }
            }
            put_uv(frame, t.l2_misses);
            put_uv(frame, t.vd_hits);
            put_str(frame, &t.detail);
        }
    }
}

/// Writes one complete frame — length prefix, payload, checksum — and
/// flushes, so a kill between frames always leaves a clean frame
/// boundary. Returns the bytes written.
pub(crate) fn write_frame(sink: &mut dyn Write, frame: &[u8]) -> io::Result<u64> {
    let mut head = [0u8; 10];
    let hn = put_uv_arr(&mut head, frame.len() as u64);
    sink.write_all(&head[..hn])?;
    sink.write_all(frame)?;
    sink.write_all(&crc32(frame).to_le_bytes())?;
    sink.flush()?;
    Ok((hn + frame.len() + 4) as u64)
}

// --- JSONL ----------------------------------------------------------

/// Renders `rec` as its JSONL line into `out` (cleared first). `names`
/// maps tenant indices to the names stream records carry.
pub(crate) fn render(out: &mut String, rec: &Record<'_>, names: &[&str]) {
    let name = |t: usize| names.get(t).copied().unwrap_or("");
    let mut w = Writer::new(out);
    w.obj();
    match rec {
        Record::Header(h) => {
            w.key("schema").str(SCHEMA);
            for (k, v) in HEADER_KEYS.into_iter().zip(h.scalars) {
                w.key(k).u64(v);
            }
            w.key("audit").bool(h.audit);
        }
        Record::Spec(spec) => {
            w.key("tenant").str(&spec.name);
            w.key("workload").str(&spec.workload);
            w.key("directory").str(spec.kind.name());
            w.key("seed").u64(spec.seed);
            w.key("cores").u64(spec.cores as u64);
            w.key("refs").u64(spec.refs);
            let (fault, trigger, core) = spec
                .fault
                .map_or(("none", 0, 0), |p| (p.kind.name(), p.trigger, p.core.0));
            w.key("fault").str(fault);
            w.key("trigger").u64(trigger);
            w.key("fault_core").u64(core as u64);
        }
        Record::Checkpoint(c) => {
            w.key("tick").u64(c.tick);
            w.key("tenant").str(name(c.tenant));
            w.key("retired").u64(c.retired);
            w.key("stalled").u64(c.stalled);
            w.key("cycles").u64(c.cycles);
        }
        Record::Terminal(t) => {
            w.key("tick").u64(t.tick);
            w.key("tenant").str(name(t.tenant));
            w.key("status").str(t.status.name());
            w.key("retired").u64(t.retired);
            w.key("stalled").u64(t.stalled);
            w.key("cycles").u64(t.cycles);
            w.key("fired_at").opt_u64(t.fired_at);
            w.key("l2_misses").u64(t.l2_misses);
            w.key("vd_hits").u64(t.vd_hits);
            w.key("detail").str(&t.detail);
        }
    }
    w.end_obj();
}

/// Decodes one JSONL line, the strict inverse of [`render`]. Returns the
/// record and, for a spec, its raw tenant name; stream records resolve
/// their tenant against `names` (the spec records' raw names), and one
/// naming no spec stores that name in `unknown`.
fn decode_line<'a>(
    line: &'a str,
    names: &[&'a str],
    unknown: &mut Option<&'a str>,
) -> Option<(Record<'a>, &'a str)> {
    let mut r = json::Reader::new(line);
    r.obj()?;
    let mut spec_name = "";
    let rec = if r.at_key("schema") {
        if r.key("schema")?.raw_str()? != SCHEMA {
            return None;
        }
        let mut scalars = [0u64; 11];
        for (slot, k) in scalars.iter_mut().zip(HEADER_KEYS) {
            *slot = r.key(k)?.u64()?;
        }
        let audit = r.key("audit")?.bool()?;
        Record::Header(HeaderRec { scalars, audit })
    } else if r.at_key("tenant") {
        spec_name = r.key("tenant")?.raw_str()?;
        let workload = r.key("workload")?.str()?.into_owned();
        let kind = DirectoryKind::parse(r.key("directory")?.raw_str()?).ok()?;
        let seed = r.key("seed")?.u64()?;
        let cores = usize::try_from(r.key("cores")?.u64()?).ok()?;
        let refs = r.key("refs")?.u64()?;
        let fault = r.key("fault")?.raw_str()?;
        let trigger = r.key("trigger")?.u64()?;
        let core = CoreId(usize::try_from(r.key("fault_core")?.u64()?).ok()?);
        let fault = match fault {
            "none" if trigger == 0 && core.0 == 0 => None,
            "none" => return None,
            f => Some(FaultPlan {
                kind: FaultKind::parse(f).ok()?,
                trigger,
                core,
            }),
        };
        Record::Spec(Cow::Owned(TenantSpec {
            name: json::unescape(spec_name).into_owned(),
            workload,
            kind,
            seed,
            cores,
            refs,
            fault,
        }))
    } else {
        let tick = r.key("tick")?.u64()?;
        let name = r.key("tenant")?.raw_str()?;
        let Some(tenant) = names.iter().position(|&n| n == name) else {
            *unknown = Some(name);
            return None;
        };
        if r.at_key("status") {
            Record::Terminal(TerminalInfo {
                tenant,
                tick,
                status: TenantStatus::parse(r.key("status")?.raw_str()?)?,
                retired: r.key("retired")?.u64()?,
                stalled: r.key("stalled")?.u64()?,
                cycles: r.key("cycles")?.u64()?,
                fired_at: r.key("fired_at")?.opt_u64()?,
                l2_misses: r.key("l2_misses")?.u64()?,
                vd_hits: r.key("vd_hits")?.u64()?,
                detail: r.key("detail")?.str()?,
            })
        } else {
            Record::Checkpoint(Checkpoint {
                tenant,
                tick,
                retired: r.key("retired")?.u64()?,
                stalled: r.key("stalled")?.u64()?,
                cycles: r.key("cycles")?.u64()?,
            })
        }
    };
    r.end_obj()?;
    r.finish()?;
    Some((rec, spec_name))
}

// --- the pull reader ------------------------------------------------

/// A pull decoder over a surviving journal: yields one [`Record`] at a
/// time — binary journals frame by frame, each frame's checksum checked
/// as it is reached; JSONL journals line by line — and checks record
/// order (one header, then the specs it promises, then stream records
/// naming known tenants).
#[derive(Clone)]
pub(crate) struct Reader<'a> {
    format: JournalFormat,
    /// Binary: the journal bytes.
    bytes: &'a [u8],
    /// JSONL: the longest valid UTF-8 prefix of the journal.
    text: &'a str,
    /// Start of the next unread frame or line.
    off: usize,
    /// Binary: the current frame's payload, the read offset in it, and
    /// the frame's file offset (for messages).
    payload: &'a [u8],
    pos: usize,
    frame_at: usize,
    /// JSONL: the final line is an interrupted write (it lacks a
    /// newline, or the file ends mid-character after it).
    open_tail: bool,
    /// JSONL: the line last read, and its 1-based number.
    pub line: &'a str,
    line_no: usize,
    /// Spec-record tenant names, in index order (raw text for JSONL).
    pub names: Vec<&'a str>,
    /// Tenant count the header promised.
    tenants: u64,
    saw_header: bool,
    records_started: bool,
    /// Reading stopped at a torn (incomplete) final frame, or the file
    /// is a torn magic.
    pub torn: bool,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes` in `format`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] on a binary journal with a bad magic, or
    /// a JSONL journal that is not UTF-8 text.
    pub(crate) fn new(bytes: &'a [u8], format: JournalFormat) -> Result<Reader<'a>, ServeError> {
        let mut r = Reader {
            format,
            bytes,
            text: "",
            off: 0,
            payload: &[],
            pos: 0,
            frame_at: 0,
            open_tail: false,
            line: "",
            line_no: 0,
            names: Vec::new(),
            tenants: 0,
            saw_header: false,
            records_started: false,
            torn: false,
        };
        match format {
            JournalFormat::Jsonl => {
                let (text, cut_mid_char) = match std::str::from_utf8(bytes) {
                    Ok(t) => (t, false),
                    // A file that is valid UTF-8 up to a trailing
                    // incomplete character is an interrupted write, not
                    // corruption.
                    Err(e) if e.error_len().is_none() => (
                        std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap_or(""),
                        true,
                    ),
                    Err(_) => {
                        return Err(ServeError::Corrupt(
                            "journal is not UTF-8 text — is it a binary journal? \
                             (resume with --format binary)"
                                .to_string(),
                        ))
                    }
                };
                r.text = text;
                r.open_tail = cut_mid_char || !text.ends_with('\n');
            }
            JournalFormat::Binary if bytes.is_empty() => {}
            JournalFormat::Binary => {
                let head = &bytes[..bytes.len().min(MAGIC.len())];
                if head != &MAGIC[..head.len()] {
                    let msg = "not a secdir binary journal (bad magic)";
                    return Err(ServeError::Corrupt(msg.to_string()));
                }
                r.torn = head.len() < MAGIC.len();
                r.off = head.len();
            }
        }
        Ok(r)
    }

    /// The next record, or `None` at the end of the journal (or at a
    /// torn final frame).
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] on a frame or line that does not decode,
    /// or a record out of header → specs → stream order.
    pub(crate) fn next(&mut self) -> Result<Option<Record<'a>>, ServeError> {
        let decoded = match self.format {
            JournalFormat::Jsonl => self.next_line(),
            JournalFormat::Binary => self.next_frame_record(),
        };
        let Some((rec, name)) = decoded? else {
            return Ok(None);
        };
        let order = match &rec {
            Record::Header(_) if self.saw_header => Err("duplicate header record"),
            Record::Header(h) => {
                self.saw_header = true;
                self.tenants = h.scalars[0];
                Ok(())
            }
            Record::Spec(_) if !self.saw_header => Err("spec record before the header"),
            Record::Spec(_) if self.records_started => Err("spec record after stream records"),
            Record::Spec(_) if self.names.len() as u64 >= self.tenants => {
                Err("more spec records than the header promised")
            }
            Record::Spec(_) => {
                self.names.push(name);
                Ok(())
            }
            _ if (self.names.len() as u64) < self.tenants => {
                Err("stream record before all tenant specs")
            }
            _ => {
                self.records_started = true;
                Ok(())
            }
        };
        order.map(|()| Some(rec)).map_err(|msg| self.bad(msg))
    }

    /// Whether the line just read is the journal's interrupted final
    /// write (always false for binary journals, whose torn tail never
    /// reaches a decoder).
    pub(crate) fn at_open_tail(&self) -> bool {
        self.open_tail && self.off >= self.text.len()
    }

    fn bad(&self, msg: &str) -> ServeError {
        ServeError::Corrupt(match self.format {
            JournalFormat::Jsonl => format!("journal line {}: {msg}", self.line_no),
            JournalFormat::Binary => format!("journal byte {}: {msg}", self.frame_at),
        })
    }

    fn next_line(&mut self) -> Result<Option<(Record<'a>, &'a str)>, ServeError> {
        let rest = self.text.get(self.off..).unwrap_or("");
        if rest.is_empty() {
            return Ok(None);
        }
        // `str::lines` semantics: a newline ends a line, and a `\r`
        // right before it is not part of the line.
        let (line, used) = match rest.find('\n') {
            Some(i) => {
                let line = &rest[..i];
                (line.strip_suffix('\r').unwrap_or(line), i + 1)
            }
            None => (rest, rest.len()),
        };
        self.off += used;
        self.line = line;
        self.line_no += 1;
        let mut unknown = None;
        match (decode_line(line, &self.names, &mut unknown), unknown) {
            (Some(decoded), _) => Ok(Some(decoded)),
            (None, Some(name)) => Err(self.bad(&format!("record for unknown tenant `{name}`"))),
            (None, None) => Err(self.bad("malformed record before end of file")),
        }
    }

    /// Marks a torn final frame: reading stops, the tail is discarded.
    fn tear(&mut self) -> Result<bool, ServeError> {
        self.torn = true;
        self.off = self.bytes.len();
        Ok(false)
    }

    /// Loads the next complete, checksum-valid frame; false at the end
    /// of the journal or at a torn tail.
    fn next_frame(&mut self) -> Result<bool, ServeError> {
        let at = self.off;
        if at >= self.bytes.len() {
            return Ok(false);
        }
        self.frame_at = at;
        let mut off = at;
        let len = match get_uv(self.bytes, &mut off) {
            Uv::Val(v) => v,
            Uv::Eof => return self.tear(),
            Uv::Malformed => return Err(self.bad("malformed frame length")),
        };
        if len == 0 || len > MAX_FRAME {
            return Err(self.bad("implausible frame length"));
        }
        let len = len as usize;
        // The frame body or its checksum is cut off: an interrupted
        // write, not corruption.
        let Some(frame) = self.bytes.get(off..off + len + 4) else {
            return self.tear();
        };
        let (payload, crc) = frame.split_at(len);
        if crc != crc32(payload).to_le_bytes() {
            return Err(self.bad("frame checksum mismatch"));
        }
        self.payload = payload;
        self.pos = 0;
        self.off = off + len + 4;
        Ok(true)
    }

    /// Reads one varint inside a checksum-valid payload, where running
    /// off the end is corruption, never truncation.
    fn uv(&mut self) -> Result<u64, ServeError> {
        match get_uv(self.payload, &mut self.pos) {
            Uv::Val(v) => Ok(v),
            Uv::Eof | Uv::Malformed => Err(self.bad("malformed varint inside frame")),
        }
    }

    /// Reads one varint naming an entry of `table` (`what` names the
    /// table in the message).
    fn pick<T: Copy>(&mut self, table: &[T], what: &str) -> Result<T, ServeError> {
        let v = self.uv()?;
        usize::try_from(v)
            .ok()
            .and_then(|i| table.get(i).copied())
            .ok_or_else(|| self.bad(&format!("{what} index out of range")))
    }

    fn size(&mut self) -> Result<usize, ServeError> {
        let v = self.uv()?;
        usize::try_from(v).map_err(|_| self.bad("implausible count"))
    }

    /// Reads one length-prefixed UTF-8 string, borrowed from the frame.
    fn str(&mut self) -> Result<&'a str, ServeError> {
        let len = self.size()?;
        let bytes = self
            .pos
            .checked_add(len)
            .and_then(|end| self.payload.get(self.pos..end))
            .ok_or_else(|| self.bad("string overruns its frame"))?;
        let s = std::str::from_utf8(bytes).map_err(|_| self.bad("string field is not UTF-8"))?;
        self.pos += len;
        Ok(s)
    }

    /// Reads a stream record's tenant index, which must name a spec
    /// record already read.
    fn tenant(&mut self) -> Result<usize, ServeError> {
        let v = self.uv()?;
        usize::try_from(v)
            .ok()
            .filter(|&i| i < self.names.len())
            .ok_or_else(|| self.bad("record references an unknown tenant index"))
    }

    fn next_frame_record(&mut self) -> Result<Option<(Record<'a>, &'a str)>, ServeError> {
        while self.pos >= self.payload.len() {
            if !self.next_frame()? {
                return Ok(None);
            }
        }
        let tag = self.payload[self.pos];
        self.pos += 1;
        let mut name = "";
        let rec = match tag {
            REC_HEADER => {
                let mut scalars = [0u64; 11];
                for slot in &mut scalars {
                    *slot = self.uv()?;
                }
                let audit = match self.payload.get(self.pos) {
                    Some(0) => false,
                    Some(1) => true,
                    _ => return Err(self.bad("malformed header audit flag")),
                };
                self.pos += 1;
                Record::Header(HeaderRec { scalars, audit })
            }
            REC_SPEC => {
                name = self.str()?;
                let workload = self.str()?.to_string();
                let kind = self.pick(&DirectoryKind::ALL, "spec record directory")?;
                let seed = self.uv()?;
                let cores = self.size()?;
                let refs = self.uv()?;
                let fault = match self.uv()? {
                    0 => None,
                    tag => Some(FaultPlan {
                        kind: usize::try_from(tag - 1)
                            .ok()
                            .and_then(|i| FaultKind::ALL.get(i).copied())
                            .ok_or_else(|| self.bad("spec record fault index out of range"))?,
                        trigger: self.uv()?,
                        core: CoreId(self.size()?),
                    }),
                };
                Record::Spec(Cow::Owned(TenantSpec {
                    name: name.to_string(),
                    workload,
                    kind,
                    seed,
                    cores,
                    refs,
                    fault,
                }))
            }
            REC_CHECKPOINT => Record::Checkpoint(Checkpoint {
                tenant: self.tenant()?,
                tick: self.uv()?,
                retired: self.uv()?,
                stalled: self.uv()?,
                cycles: self.uv()?,
            }),
            REC_TERMINAL => Record::Terminal(TerminalInfo {
                tenant: self.tenant()?,
                tick: self.uv()?,
                status: self.pick(&TenantStatus::ALL, "terminal record status")?,
                retired: self.uv()?,
                stalled: self.uv()?,
                cycles: self.uv()?,
                fired_at: match self.uv()? {
                    0 => None,
                    1 => Some(self.uv()?),
                    _ => return Err(self.bad("malformed fired_at presence tag")),
                },
                l2_misses: self.uv()?,
                vd_hits: self.uv()?,
                detail: Cow::Borrowed(self.str()?),
            }),
            _ => return Err(self.bad("unknown record type inside frame")),
        };
        Ok(Some((rec, name)))
    }
}

// --- decode ---------------------------------------------------------

/// A binary journal decoded back to JSONL.
pub struct DecodedJournal {
    /// The journal's records as JSONL lines, byte-identical to what a
    /// `--format jsonl` run over the same schedule writes.
    pub lines: Vec<String>,
    /// Whether the file ended in a torn (incomplete) frame, whose bytes
    /// were discarded — the binary analogue of a truncated final line.
    pub torn: bool,
}

/// Decodes a complete `secdir-journal/1` byte stream to JSONL lines.
///
/// Complete, checksum-valid frames are decoded in order; a tail that
/// ends mid-frame (an interrupted write) is discarded and reported via
/// [`DecodedJournal::torn`]. An empty input decodes to an empty
/// journal.
///
/// # Errors
///
/// [`ServeError::Corrupt`] on a bad magic, a checksum mismatch over a
/// fully present frame, or structurally invalid records inside a valid
/// frame (unknown type, non-minimal varint, out-of-range index, text
/// that is not UTF-8, records that do not tile the payload exactly, or
/// records out of header → specs → stream order).
pub fn decode_journal(bytes: &[u8]) -> Result<DecodedJournal, ServeError> {
    let mut reader = Reader::new(bytes, JournalFormat::Binary)?;
    let mut lines = Vec::new();
    let mut buf = String::new();
    while let Some(rec) = reader.next()? {
        render(&mut buf, &rec, &reader.names);
        lines.push(buf.as_str().to_owned());
    }
    Ok(DecodedJournal {
        lines,
        torn: reader.torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use secdir_mem::SplitMix64;

    #[test]
    fn varint_round_trips_minimal_encodings() {
        let mut rng = SplitMix64::new(0x5eed);
        let mut cases: Vec<u64> = vec![0, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX];
        for shift in 0..64 {
            cases.push(1u64 << shift);
            cases.push((1u64 << shift) - 1);
            cases.push(rng.next_u64());
        }
        for v in cases {
            let mut buf = Vec::new();
            put_uv(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut off = 0;
            match get_uv(&buf, &mut off) {
                Uv::Val(got) => {
                    assert_eq!(got, v);
                    assert_eq!(off, buf.len(), "decode must consume the whole encoding");
                }
                _ => panic!("round-trip failed for {v}"),
            }
            // A stack-array encoding must agree byte-for-byte.
            let mut arr = [0u8; 10];
            let n = put_uv_arr(&mut arr, v);
            assert_eq!(&arr[..n], &buf[..]);
        }
    }

    #[test]
    fn varint_rejects_non_minimal_and_overflowing_encodings() {
        for bad in [
            &[0x80, 0x00][..],                                                 // 0 in 2 bytes
            &[0x81, 0x00][..],                                                 // 1 in 2 bytes
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f][..], // > u64
            &[
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
            ][..], // 11 bytes
        ] {
            let mut off = 0;
            assert!(
                matches!(get_uv(bad, &mut off), Uv::Malformed),
                "{bad:?} must be rejected"
            );
        }
        // A truncated varint is EOF (torn tail), not malformed.
        let mut off = 0;
        assert!(matches!(get_uv(&[0x80], &mut off), Uv::Eof));
        assert_eq!(off, 0, "EOF must rewind for retry after more bytes");
    }

    /// The bytewise CRC-32 loop: the reference the slice-by-8 path must
    /// match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    /// Every record `text` (a JSONL journal) holds, or the first error.
    fn read_jsonl(text: &str) -> Result<Vec<Record<'_>>, ServeError> {
        let mut reader = Reader::new(text.as_bytes(), JournalFormat::Jsonl)?;
        let mut out = Vec::new();
        while let Some(rec) = reader.next()? {
            out.push(rec);
        }
        Ok(out)
    }

    use proptest::prelude::*;

    /// Characters the generated strings draw from: JSON-hostile (quotes,
    /// backslashes, braces), control bytes the escaper must `\u00xx`,
    /// and multi-byte UTF-8.
    const ALPHABET: [char; 16] = [
        'a', 'z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', '{', '}',
        'é', '⊕',
    ];

    fn hostile(picks: &[usize]) -> String {
        picks
            .iter()
            .map(|&i| ALPHABET[i % ALPHABET.len()])
            .collect()
    }

    /// One fully populated journal — header, one hostile-named spec, a
    /// checkpoint, a terminal — encoded into frames, plus its records
    /// and the JSONL lines they render to.
    fn encode_case(
        name: &str,
        workload: &str,
        detail: &str,
        kind_i: usize,
        status_i: usize,
        fault_i: usize,
        nums: &[u64; 12],
    ) -> (Vec<u8>, Vec<String>, Vec<Record<'static>>) {
        let spec = TenantSpec {
            name: name.to_string(),
            workload: workload.to_string(),
            kind: DirectoryKind::ALL[kind_i],
            seed: nums[0],
            cores: (nums[1] % 64) as usize,
            refs: nums[2],
            fault: (fault_i > 0).then(|| FaultPlan {
                kind: FaultKind::ALL[fault_i - 1],
                trigger: nums[3],
                core: CoreId((nums[4] % 64) as usize),
            }),
        };
        let header = HeaderRec {
            scalars: [
                1,
                nums[5],
                nums[6],
                nums[7],
                nums[8],
                nums[9],
                nums[10],
                nums[11],
                nums[0].rotate_left(17),
                nums[1].rotate_left(31),
                nums[2].rotate_left(7),
            ],
            audit: nums[3] & 1 == 1,
        };
        let records = vec![
            Record::Header(header),
            Record::Spec(Cow::Owned(spec)),
            Record::Checkpoint(Checkpoint {
                tenant: 0,
                tick: nums[0],
                retired: nums[1],
                stalled: nums[2],
                cycles: nums[3],
            }),
            Record::Terminal(TerminalInfo {
                tenant: 0,
                tick: nums[4],
                status: TenantStatus::ALL[status_i],
                retired: nums[5].wrapping_mul(3),
                stalled: nums[6].wrapping_mul(5),
                cycles: nums[7].wrapping_mul(7),
                fired_at: (nums[8] & 1 == 1).then_some(nums[9]),
                l2_misses: nums[10].wrapping_add(1),
                vd_hits: nums[11].wrapping_add(2),
                detail: Cow::Owned(detail.to_string()),
            }),
        ];
        let mut bytes = MAGIC.to_vec();
        for pair in records.chunks(2) {
            let mut frame = Vec::new();
            for rec in pair {
                encode(&mut frame, rec);
            }
            write_frame(&mut bytes, &frame).expect("vec write");
        }
        let mut line = String::new();
        let lines = records
            .iter()
            .map(|rec| {
                render(&mut line, rec, &[name]);
                line.clone()
            })
            .collect();
        (bytes, lines, records)
    }

    proptest! {
        /// Slice-by-8 agrees with the bytewise loop on every length from
        /// 0 to 300 at every start offset, so each word/tail split and
        /// every alignment of the 8-byte steps is covered.
        #[test]
        fn crc32_slice_by_8_matches_bytewise(
            data in prop::collection::vec(any::<u8>(), 0..301),
        ) {
            for start in 0..=data.len() {
                prop_assert_eq!(crc32(&data[start..]), crc32_bytewise(&data[start..]));
            }
        }

        /// Arbitrary counters and hostile strings survive the full
        /// encode → frame → checksum → decode round trip, reproducing
        /// exactly the JSONL lines the text writer renders — and those
        /// lines decode back to the same typed records.
        #[test]
        fn frames_round_trip_hostile_records(
            name in prop::collection::vec(0usize..ALPHABET.len(), 0..12),
            workload in prop::collection::vec(0usize..ALPHABET.len(), 0..12),
            detail in prop::collection::vec(0usize..ALPHABET.len(), 0..24),
            kind_i in 0usize..DirectoryKind::ALL.len(),
            status_i in 0usize..TenantStatus::ALL.len(),
            fault_i in 0usize..(FaultKind::ALL.len() + 1),
            nums in prop::collection::vec(any::<u64>(), 12..13),
        ) {
            let mut fixed = [0u64; 12];
            fixed.copy_from_slice(&nums);
            let (bytes, want, records) = encode_case(
                &hostile(&name), &hostile(&workload), &hostile(&detail),
                kind_i, status_i, fault_i, &fixed,
            );
            let decoded = decode_journal(&bytes).expect("valid journal decodes");
            prop_assert!(!decoded.torn);
            prop_assert_eq!(&decoded.lines, &want);
            let text: String = want.iter().map(|l| format!("{l}\n")).collect();
            prop_assert_eq!(read_jsonl(&text).expect("rendered lines decode"), records);
        }

        /// Truncation is the only corruption a kill can produce: every
        /// byte-prefix of a valid journal decodes cleanly to a prefix of
        /// its records (possibly torn), never to a hard error.
        #[test]
        fn every_prefix_decodes_to_a_record_prefix(
            name in prop::collection::vec(0usize..ALPHABET.len(), 0..12),
            cut_pick in any::<u64>(),
            nums in prop::collection::vec(any::<u64>(), 12..13),
        ) {
            let mut fixed = [0u64; 12];
            fixed.copy_from_slice(&nums);
            let (bytes, want, _) = encode_case(&hostile(&name), "w", "d", 0, 0, 0, &fixed);
            let cut = (cut_pick % (bytes.len() as u64 + 1)) as usize;
            let decoded = decode_journal(&bytes[..cut])
                .unwrap_or_else(|e| panic!("prefix of {cut} bytes errored: {e}"));
            prop_assert!(decoded.lines.len() <= want.len());
            prop_assert_eq!(&decoded.lines[..], &want[..decoded.lines.len()]);
            // Only the untruncated journal yields every record untorn:
            // the fixture is exactly two frames, so a full decode means
            // the cut kept both.
            if decoded.lines.len() == want.len() && !decoded.torn {
                prop_assert_eq!(cut, bytes.len());
            }
        }
    }
}
