//! The five core rules: `no-unwrap`, `hot-alloc`, `wall-clock`,
//! `journal-flush` and `crate-hygiene`.
//!
//! Each matches token sequences and reports at line granularity, so
//! tokens inside strings, comments, and doc examples can never match.
//! The findings on `tests/corpus/` are pinned line by line in
//! `tests/lint_workspace.rs`.

use super::super::Severity;
use super::{Ctx, Emitter};
use std::collections::BTreeMap;

/// Allocating token sequences forbidden on the hot path, as
/// `(display name, token texts)`; the first match at a token wins.
const ALLOC_PATTERNS: &[(&str, &[&str])] = &[
    ("Box::new", &["Box", ":", ":", "new", "("]),
    ("Rc::new", &["Rc", ":", ":", "new", "("]),
    ("Arc::new", &["Arc", ":", ":", "new", "("]),
    ("format!", &["format", "!", "("]),
    ("vec![", &["vec", "!", "["]),
    ("Vec::new", &["Vec", ":", ":", "new", "("]),
    (
        "Vec::with_capacity",
        &["Vec", ":", ":", "with_capacity", "("],
    ),
    ("Vec::push", &["Vec", ":", ":", "push", "("]),
    ("VecDeque::new", &["VecDeque", ":", ":", "new", "("]),
    ("String::new", &["String", ":", ":", "new", "("]),
    ("String::from", &["String", ":", ":", "from", "("]),
    (".to_string", &[".", "to_string", "("]),
    (".to_owned", &[".", "to_owned", "("]),
    (".to_vec", &[".", "to_vec", "("]),
    (
        ".into_iter().collect",
        &[".", "into_iter", "(", ")", ".", "collect", "("],
    ),
];

/// Wall-clock token sequences forbidden outside `perf.rs`.
const CLOCK_PATTERNS: &[(&str, &[&str])] = &[
    ("Instant::now", &["Instant", ":", ":", "now", "("]),
    ("SystemTime::now", &["SystemTime", ":", ":", "now", "("]),
];

/// `no-unwrap`: no `.unwrap()` / `.expect(` outside test scope.
pub fn no_unwrap(ctx: &Ctx<'_>, em: &mut Emitter) {
    for i in 0..ctx.code.len() {
        let t = ctx.code[i];
        if ctx.in_test(t.line) {
            continue;
        }
        let token = if ctx.match_seq(i, &[".", "unwrap", "(", ")"]) {
            ".unwrap()"
        } else if ctx.match_seq(i, &[".", "expect", "("]) {
            ".expect("
        } else {
            continue;
        };
        em.emit(
            "no-unwrap",
            Severity::Error,
            t,
            format!(
                "`{token}` in production code; handle the error or use a named invariant \
                 (debug_assert!)"
            ),
        );
    }
}

/// `hot-alloc`: no allocating tokens in hot-path files, outside test
/// scope and exempt (constructor/validator) functions.
pub fn hot_alloc(ctx: &Ctx<'_>, em: &mut Emitter) {
    if !ctx.class.hot {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.code[i];
        let scope = ctx.scopes.line(t.line);
        if scope.test || scope.exempt_fn {
            continue;
        }
        for (name, pat) in ALLOC_PATTERNS {
            if ctx.match_seq(i, pat) {
                em.emit(
                    "hot-alloc",
                    Severity::Error,
                    t,
                    format!("allocating token `{name}` on the simulation hot path"),
                );
                break;
            }
        }
    }
}

/// `wall-clock`: no host-time reads outside `perf.rs`. Deliberately NOT
/// test-exempt: even tests must not leak wall time into simulated
/// results.
pub fn wall_clock(ctx: &Ctx<'_>, em: &mut Emitter) {
    if ctx.class.perf {
        return;
    }
    for i in 0..ctx.code.len() {
        for (name, pat) in CLOCK_PATTERNS {
            if ctx.match_seq(i, pat) {
                em.emit(
                    "wall-clock",
                    Severity::Error,
                    ctx.code[i],
                    format!("`{name}` outside perf.rs; simulated time must not read host time"),
                );
                break;
            }
        }
    }
}

/// `journal-flush`: a line that writes a journal record must be
/// followed by a `.flush(` within three lines (the write line and the
/// two after it). Two record-write shapes are recognized:
///
/// * **JSONL** — a `to_json_line()` call sharing a line with a
///   `write!`/`writeln!` macro;
/// * **binary frames** — a `.write_all(` call whose line names a
///   frame-ish buffer (any identifier containing `frame`), the shape
///   the `secdir-journal/1` group-commit writer uses. An unflushed
///   frame write would leave a whole tick's records in userspace
///   buffers, exactly the loss the JSONL arm of this rule prevents.
pub fn journal_flush(ctx: &Ctx<'_>, em: &mut Emitter) {
    let mut by_line: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, t) in ctx.code.iter().enumerate() {
        by_line.entry(t.line).or_default().push(i);
    }
    let has_flush = |line: u32| {
        by_line
            .get(&line)
            .is_some_and(|v| v.iter().any(|&i| ctx.match_seq(i, &[".", "flush", "("])))
    };
    for (&line, idxs) in &by_line {
        if ctx.in_test(line) {
            continue;
        }
        let json = idxs.iter().any(|&i| ctx.text(i) == "to_json_line");
        let write = idxs
            .iter()
            .any(|&i| matches!(ctx.text(i), "write" | "writeln") && ctx.text(i + 1) == "!");
        let frame_write = idxs
            .iter()
            .any(|&i| ctx.match_seq(i, &[".", "write_all", "("]))
            && idxs
                .iter()
                .any(|&i| ctx.text(i).to_ascii_lowercase().contains("frame"));
        if !((json && write) || frame_write) {
            continue;
        }
        if (line..=line + 2).any(has_flush) {
            continue;
        }
        let at = ctx.code[idxs[0]];
        let what = if json && write {
            "JSONL record"
        } else {
            "binary journal frame"
        };
        em.emit(
            "journal-flush",
            Severity::Error,
            at,
            format!(
                "{what} written without a `.flush()` within three lines; an interrupted \
                 run could lose buffered records and break `--resume` recovery"
            ),
        );
    }
}

/// `crate-hygiene`: every crate root carries `#![forbid(unsafe_code)]`
/// (or `deny`) and `#![warn(missing_docs)]` (or `deny`). Token-based, so
/// a mention in a doc comment no longer satisfies the check (the old
/// scanner's substring match could be fooled; real roots all use the
/// actual attributes).
pub fn crate_hygiene(ctx: &Ctx<'_>, em: &mut Emitter) {
    if !ctx.class.crate_root {
        return;
    }
    let mut unsafe_gate = false;
    let mut docs_gate = false;
    for i in 0..ctx.code.len() {
        if !ctx.match_seq(i, &["#", "!", "["]) {
            continue;
        }
        let level = ctx.text(i + 3);
        let what = ctx.text(i + 5);
        if ctx.text(i + 4) == "(" && ctx.text(i + 6) == ")" && ctx.text(i + 7) == "]" {
            if matches!(level, "forbid" | "deny") && what == "unsafe_code" {
                unsafe_gate = true;
            }
            if matches!(level, "warn" | "deny") && what == "missing_docs" {
                docs_gate = true;
            }
        }
    }
    let mut missing = Vec::new();
    if !unsafe_gate {
        missing.push("`#![forbid(unsafe_code)]` (or `deny`)");
    }
    if !docs_gate {
        missing.push("`#![warn(missing_docs)]`");
    }
    let (Some(&first), false) = (ctx.code.first(), missing.is_empty()) else {
        return;
    };
    let mut at = first;
    at.line = 1;
    at.col = 1;
    em.emit(
        "crate-hygiene",
        Severity::Error,
        at,
        format!("crate root lacks {}", missing.join(" and ")),
    );
}

#[cfg(test)]
mod tests {
    use super::super::{test_findings, FileClass};

    const PROD: FileClass = FileClass {
        hot: false,
        perf: false,
        crate_root: false,
    };
    const HOT: FileClass = FileClass {
        hot: true,
        perf: false,
        crate_root: false,
    };

    #[test]
    fn unwrap_fires_in_production_not_in_tests_or_strings() {
        let f = test_findings("fn f() { x.unwrap(); }\n", PROD);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("no-unwrap", 1));

        let clean = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\nfn g() { let s = \".unwrap()\"; }\n";
        assert!(test_findings(clean, PROD).is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.expect_err(\"e\"); }\n";
        assert!(test_findings(src, PROD).is_empty());
    }

    #[test]
    fn hot_alloc_fires_only_on_hot_files_outside_exempt_fns() {
        let src =
            "fn step() { let v = Vec::new(); }\nfn new() -> S {\n    Vec::with_capacity(4)\n}\n";
        let f = test_findings(src, HOT);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("hot-alloc", 1));
        assert!(test_findings(src, PROD).is_empty());
    }

    #[test]
    fn wall_clock_fires_even_in_tests_but_not_in_perf() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n";
        let f = test_findings(src, PROD);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
        let perf = FileClass { perf: true, ..PROD };
        assert!(test_findings(src, perf).is_empty());
    }

    #[test]
    fn journal_flush_window_matches_old_scanner() {
        let bad = "fn save() {\n    writeln!(out, \"{}\", r.to_json_line())?;\n    a();\n    b();\n    out.flush()?;\n}\n";
        let f = test_findings(bad, PROD);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("journal-flush", 2));

        let good = "fn save() {\n    writeln!(out, \"{}\", r.to_json_line())?;\n    a();\n    out.flush()?;\n}\n";
        assert!(test_findings(good, PROD).is_empty());
    }

    #[test]
    fn journal_flush_catches_unflushed_binary_frame_writes() {
        let bad = "fn commit() {\n    sink.write_all(&frame)?;\n    a();\n    b();\n    sink.flush()?;\n}\n";
        let f = test_findings(bad, PROD);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("journal-flush", 2));
        assert!(f[0].message.contains("binary journal frame"));

        // The canonical frame writer: head, payload, checksum, flush —
        // every frame-naming write has the flush inside its window.
        let good = "fn write_frame(sink: &mut dyn Write, frame: &[u8]) -> io::Result<()> {\n    sink.write_all(&head[..hn])?;\n    sink.write_all(frame)?;\n    sink.write_all(&crc32(frame).to_le_bytes())?;\n    sink.flush()?;\n    Ok(())\n}\n";
        assert!(test_findings(good, PROD).is_empty());

        // `.write_all(` with no frame-ish identifier on the line is not
        // a journal frame write (ordinary buffered I/O stays legal).
        let plain = "fn save() {\n    sink.write_all(&bytes)?;\n}\n";
        assert!(test_findings(plain, PROD).is_empty());
    }

    #[test]
    fn crate_hygiene_requires_real_attributes() {
        let root = FileClass {
            crate_root: true,
            ..PROD
        };
        let good = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\nfn a() {}\n";
        assert!(test_findings(good, root).is_empty());
        // A doc-comment mention fooled the old substring scanner; the
        // token engine demands the actual attribute.
        let fake = "//! Uses `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.\nfn a() {}\n";
        let f = test_findings(fake, root);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("crate-hygiene", 1));
        assert!(f[0].message.contains("unsafe_code") && f[0].message.contains("missing_docs"));
    }
}
