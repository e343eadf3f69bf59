//! The one JSON writer and the one strict JSON reader behind every record
//! the workspace writes: sweep cells, serve journal lines, BENCH rows and
//! inject outcomes.
//!
//! [`Writer`] appends compact JSON to a caller-owned `String`: keys in the
//! order the caller writes them, no whitespace, `u64`s in minimal
//! decimal, `f64`s in Rust's shortest round-trip form, and strings
//! escaped by [`push_escaped`]. Keys are static identifiers and are
//! written as given. Writing allocates nothing once the buffer has
//! reached its high-water capacity.
//!
//! [`Reader`] is the strict inverse: a value reads only if it is spelled
//! exactly as the writer spells it — keys in the expected order, no
//! whitespace, no leading zeros, only the writer's escapes — so every
//! accepted line has one meaning and one spelling, and a reader that
//! walks a record's keys in its writer's order accepts exactly the bytes
//! that writer produces.
//!
//! [`write_lines`] puts finished lines on a file or stream, one JSONL
//! record per line, each flushed as it is written.

use std::borrow::Cow;
use std::fmt::{Display, Write as _};
use std::io::{self, Write};

/// Appends one JSON value to a `String`; see the [module docs](self).
pub struct Writer<'a> {
    out: &'a mut String,
    /// The next key or value follows a sibling, so a comma goes first.
    comma: bool,
}

impl<'a> Writer<'a> {
    /// A writer into `out`, cleared first.
    pub fn new(out: &'a mut String) -> Writer<'a> {
        out.clear();
        Writer { out, comma: false }
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn raw(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.out.push_str(s);
        self
    }

    fn display(&mut self, v: impl Display) -> &mut Self {
        self.sep();
        // Formatting into a `String` cannot fail.
        write!(self.out, "{v}").ok();
        self
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        self.out.push_str(k);
        self.out.push_str("\":");
        self.comma = false;
        self
    }

    /// A string value.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        push_escaped(self.out, v);
        self.out.push('"');
        self
    }

    /// An unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        push_u64(self.out, v);
        self
    }

    /// A wide unsigned integer value (nanosecond counts).
    pub fn u128(&mut self, v: u128) -> &mut Self {
        self.display(v)
    }

    /// A float value, in the shortest decimal that parses back to `v`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.display(v)
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(if v { "true" } else { "false" })
    }

    /// An unsigned integer, or `null` for `None`.
    pub fn opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.u64(v),
            None => self.raw("null"),
        }
    }

    /// Opens an object.
    pub fn obj(&mut self) -> &mut Self {
        self.raw("{");
        self.comma = false;
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array.
    pub fn arr(&mut self) -> &mut Self {
        self.raw("[");
        self.comma = false;
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }
}

/// Appends `v` in decimal without allocating: the digits are built
/// right to left in a stack buffer and appended in one `push_str`.
fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut x = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    // ASCII digits are always valid UTF-8.
    out.push_str(std::str::from_utf8(&buf[i..]).unwrap_or_default());
}

/// Appends `s` JSON-escaped, without the surrounding quotes: a short
/// form for `"`, `\`, newline, CR and tab, `\u00xx` in lowercase hex for
/// every other control character, everything else verbatim. Every byte
/// that needs escaping is ASCII, so the scan runs over bytes and each
/// run between escapes (the whole string, when none is needed) is
/// appended with one `push_str`.
pub fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Reads JSON that [`Writer`] wrote, accepting only its spelling; see
/// the [module docs](self). Every read returns `None` on any other
/// bytes, leaving the reader unusable for that line.
#[derive(Clone, Copy)]
pub struct Reader<'a> {
    s: &'a str,
    pos: usize,
    /// The next key or value follows a sibling, so a comma comes first.
    comma: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `s`.
    pub fn new(s: &'a str) -> Reader<'a> {
        Reader {
            s,
            pos: 0,
            comma: false,
        }
    }

    fn lit(&mut self, lit: &str) -> Option<()> {
        let hit = self.s.get(self.pos..)?.starts_with(lit);
        hit.then(|| self.pos += lit.len())
    }

    fn sep(&mut self) -> Option<()> {
        if self.comma {
            self.lit(",")?;
        }
        self.comma = true;
        Some(())
    }

    /// The object key `k`; the next call reads its value.
    pub fn key(&mut self, k: &str) -> Option<&mut Self> {
        self.sep()?;
        self.lit("\"")?;
        self.lit(k)?;
        self.lit("\":")?;
        self.comma = false;
        Some(self)
    }

    /// Whether the next key is `k` (reads nothing).
    pub fn at_key(&self, k: &str) -> bool {
        let mut probe = *self;
        probe.key(k).is_some()
    }

    /// A minimal decimal `u64` (no sign, no leading zero), without the
    /// separator.
    fn num(&mut self) -> Option<u64> {
        let rest = self.s.get(self.pos..)?;
        let n = rest.bytes().take_while(u8::is_ascii_digit).count();
        let digits = rest.get(..n)?;
        if n == 0 || (n > 1 && digits.starts_with('0')) {
            return None;
        }
        self.pos += n;
        digits.parse().ok()
    }

    /// An unsigned integer value.
    pub fn u64(&mut self) -> Option<u64> {
        self.sep()?;
        self.num()
    }

    /// A float value, spelled as [`Writer::f64`] spells it.
    pub fn f64(&mut self) -> Option<f64> {
        self.sep()?;
        let rest = self.s.get(self.pos..)?;
        let n = rest
            .bytes()
            .take_while(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-'))
            .count();
        let text = rest.get(..n)?;
        let v: f64 = text.parse().ok()?;
        // Canonical spelling: the text is exactly the writer's rendering.
        if v.to_string() != text {
            return None;
        }
        self.pos += n;
        Some(v)
    }

    /// `true` or `false`.
    pub fn bool(&mut self) -> Option<bool> {
        self.sep()?;
        match self.lit("true") {
            Some(()) => Some(true),
            None => self.lit("false").map(|()| false),
        }
    }

    /// An unsigned integer, or `null` as `Some(None)`.
    pub fn opt_u64(&mut self) -> Option<Option<u64>> {
        self.sep()?;
        match self.lit("null") {
            Some(()) => Some(None),
            None => self.num().map(Some),
        }
    }

    /// A string value's raw text, still escaped: the bytes between the
    /// quotes, provided every escape is one [`push_escaped`] writes.
    pub fn raw_str(&mut self) -> Option<&'a str> {
        self.sep()?;
        self.lit("\"")?;
        let start = self.pos;
        let b = self.s.as_bytes();
        loop {
            match *b.get(self.pos)? {
                b'"' => break,
                b'\\' => self.pos += 1 + escape_len(b.get(self.pos + 1..)?)?,
                c if c < 0x20 => return None,
                _ => self.pos += 1,
            }
        }
        let raw = self.s.get(start..self.pos)?;
        self.pos += 1;
        Some(raw)
    }

    /// A string value, unescaped (borrowed when it holds no escape).
    pub fn str(&mut self) -> Option<Cow<'a, str>> {
        self.raw_str().map(unescape)
    }

    /// Opens an object.
    pub fn obj(&mut self) -> Option<()> {
        self.sep()?;
        self.lit("{")?;
        self.comma = false;
        Some(())
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> Option<()> {
        self.lit("}")?;
        self.comma = true;
        Some(())
    }

    /// An array whose elements `item` reads, one per call.
    pub fn items<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.sep()?;
        self.lit("[")?;
        self.comma = false;
        let mut out = Vec::new();
        while self.lit("]").is_none() {
            out.push(item(self)?);
        }
        self.comma = true;
        Some(out)
    }

    /// Succeeds only when the whole input has been read.
    pub fn finish(&self) -> Option<()> {
        (self.pos == self.s.len()).then_some(())
    }
}

/// Length of the escape sequence `esc` starts (the bytes after its
/// backslash), if it is one [`push_escaped`] writes.
fn escape_len(esc: &[u8]) -> Option<usize> {
    match esc {
        [b'"' | b'\\' | b'n' | b'r' | b't', ..] => Some(1),
        [b'u', b'0', b'0', hi @ (b'0' | b'1'), lo @ (b'0'..=b'9' | b'a'..=b'f'), ..] => {
            let code = (hi - b'0') * 16 + char::from(*lo).to_digit(16)? as u8;
            (!matches!(code, b'\t' | b'\n' | b'\r')).then_some(5)
        }
        _ => None,
    }
}

/// Decodes a string [`Reader::raw_str`] accepted, borrowing it when it
/// holds no escape.
pub fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next() {
            Some('n') => '\n',
            Some('r') => '\r',
            Some('t') => '\t',
            // `\u00xx`: the four hex digits are the code point.
            Some('u') => chars
                .by_ref()
                .take(4)
                .filter_map(|d| d.to_digit(16))
                .fold(0, |v, d| v * 16 + d)
                .try_into()
                .unwrap_or('\0'),
            Some(escaped) => escaped,
            None => '\\',
        });
    }
    Cow::Owned(out)
}

/// Writes each of `lines` followed by `\n`, flushing after every line, so
/// an interrupted run leaves at most one truncated line behind: the
/// recovery contract `--resume` relies on.
///
/// # Errors
///
/// Propagates the first I/O error from `out`.
pub fn write_lines<W: Write, S: AsRef<str>>(
    mut out: W,
    lines: impl IntoIterator<Item = S>,
) -> io::Result<()> {
    for line in lines {
        out.write_all(line.as_ref().as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_lines_flushes_every_line() {
        /// Records the bytes present at each flush.
        #[derive(Default)]
        struct Flushes {
            buf: Vec<u8>,
            seen: Vec<String>,
        }
        impl Write for Flushes {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.buf.extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.seen
                    .push(String::from_utf8_lossy(&self.buf).into_owned());
                Ok(())
            }
        }
        let mut out = Flushes::default();
        write_lines(&mut out, ["{\"a\":1}", "{}"]).expect("in-memory write");
        assert_eq!(out.seen, ["{\"a\":1}\n", "{\"a\":1}\n{}\n"]);
    }

    #[test]
    fn push_u64_matches_display() {
        let mut values = vec![0u64, 12345, u64::MAX];
        // Every power-of-ten boundary: each digit-count change.
        for p in 0..=19 {
            let ten = 10u64.pow(p);
            values.extend([ten - 1, ten, ten + 1]);
        }
        for v in values {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    const HOSTILE: &str = "quote \" slash \\ newline \n ctl \u{1f} \u{7f} brace } é";

    /// The char-by-char escaper: the reference the run-based
    /// [`push_escaped`] must match.
    fn push_escaped_reference(out: &mut String, s: &str) {
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str("\\u00");
                    let n = c as u32;
                    for shift in [4u32, 0] {
                        let d = (n >> shift) & 0xf;
                        out.push(char::from_digit(d, 16).unwrap_or('0'));
                    }
                }
                c => out.push(c),
            }
        }
    }

    use proptest::prelude::*;

    /// Every escape class, a multi-byte character and plain ASCII.
    const ALPHABET: &[char] = &[
        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'a', '}', 'é', '☃', '𝄞',
    ];

    proptest! {
        #[test]
        fn push_escaped_matches_the_char_by_char_reference(
            picks in prop::collection::vec(0usize..ALPHABET.len(), 0..40),
        ) {
            let s: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            let (mut fast, mut slow) = (String::from("x"), String::from("x"));
            push_escaped(&mut fast, &s);
            push_escaped_reference(&mut slow, &s);
            prop_assert_eq!(fast, slow);
        }
    }

    /// One line exercising every value kind, nested.
    fn render(out: &mut String, ipc: f64, fired: Option<u64>) {
        let mut w = Writer::new(out);
        w.obj().key("tick").u64(5).key("detail").str(HOSTILE);
        w.key("summary").obj().key("ipc").f64(ipc).end_obj();
        w.key("fired_at").opt_u64(fired).key("audit").bool(true);
        w.key("cores").arr();
        for v in [0, 12] {
            w.obj().key("n").u64(v).end_obj();
        }
        w.end_arr().key("causes").arr().u64(1).u64(2);
        w.end_arr().end_obj();
    }

    /// Reads a line [`render`] wrote and writes back what it read.
    fn reread(line: &str) -> Option<String> {
        let (mut r, mut out) = (Reader::new(line), String::new());
        let mut w = Writer::new(&mut out);
        r.obj()?;
        w.obj().key("tick").u64(r.key("tick")?.u64()?);
        w.key("detail").str(&r.key("detail")?.str()?);
        r.key("summary")?.obj()?;
        w.key("summary").obj().key("ipc").f64(r.key("ipc")?.f64()?);
        r.end_obj()?;
        let fired = r.key("fired_at")?.opt_u64()?;
        w.end_obj().key("fired_at").opt_u64(fired);
        w.key("audit").bool(r.key("audit")?.bool()?);
        let cores = r.key("cores")?.items(|r| {
            r.obj()?;
            let n = r.key("n")?.u64()?;
            r.end_obj().map(|()| n)
        })?;
        w.key("cores").arr();
        for n in cores {
            w.obj().key("n").u64(n).end_obj();
        }
        w.end_arr().key("causes").arr();
        for v in r.key("causes")?.items(Reader::u64)? {
            w.u64(v);
        }
        w.end_arr().end_obj();
        r.end_obj()?;
        r.finish().map(|()| out)
    }

    #[test]
    fn reader_decodes_exactly_the_written_bytes() {
        let mut line = String::new();
        render(&mut line, 0.1 + 0.2, None);
        assert_eq!(
            line,
            "{\"tick\":5,\"detail\":\"quote \\\" slash \\\\ newline \\n ctl \\u001f \u{7f} \
             brace } é\",\"summary\":{\"ipc\":0.30000000000000004},\"fired_at\":null,\
             \"audit\":true,\"cores\":[{\"n\":0},{\"n\":12}],\"causes\":[1,2]}"
        );
        assert_eq!(reread(&line).as_ref(), Some(&line));
        let mut other = String::new();
        render(&mut other, 1.0, Some(7));
        assert!(other.contains("{\"ipc\":1},\"fired_at\":7,"), "{other}");
        assert_eq!(reread(&other).as_ref(), Some(&other));
        let mut wide = String::new();
        Writer::new(&mut wide).u128(u128::from(u64::MAX) + 1);
        assert_eq!(wide, "18446744073709551616");

        // The same content spelled any other way is not the record.
        for bad in [
            line.replace("\"tick\":", "\"tick\": "),
            line.replace("\"tick\":5,\"detail\"", "\"detail\""),
            line.replace(":5,", ":05,"),
            line.replace(":5,", ":18446744073709551616,"),
            line.replace("2]}", "2]} "),
            line.replace("\\u001f", "\\u001F"),
            line.replace("\\n", "\\u000a"),
            line.replace("slash \\\\", "slash \\/"),
            line.replace("quote", "\\u0071uote"),
            line.replace("\\n", "\n"),
            line.replace("null", "nul"),
            line.replace("true", "True"),
            line.replace("0.30000000000000004", "0.300000000000000040"),
            line.replace("0.30000000000000004", "3.0000000000000004e-1"),
            line.replace("0.30000000000000004", "00.30000000000000004"),
            line.replace("[1,2]", "[1,2,]"),
            line.replace("[1,2]", "[1, 2]"),
            line.replace("{\"n\":0}", "{\"n\":0 }"),
            line.replace("{\"n\":12}]", "{\"n\":12}}"),
        ] {
            assert_eq!(reread(&bad), None, "{bad:?} decoded");
        }
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            assert_eq!(reread(&line[..cut]), None, "prefix {cut} decoded");
        }
    }
}
