//! Token-level static analysis for the workspace lint gate.
//!
//! The pipeline (DESIGN.md §11): [`lexer`] turns each source file into a
//! lossless token stream; [`scope`] builds per-line scope snapshots
//! (test scope, exempt functions, lint regions) plus region-marker
//! diagnostics; [`waiver`] extracts `lint: allow(...)` comments; and
//! [`rules`] runs the pluggable rule registry over the token stream.
//! This driver then resolves waivers against findings — unknown rules,
//! missing justifications, and stale waivers are themselves hard errors
//! — and renders the result as text or JSON.
//!
//! Output is deterministic by construction: files are scanned in sorted
//! path order, findings are sorted by `(file, line, col, rule)`, and no
//! hash-ordered container is iterated anywhere in the engine (it passes
//! its own `hash-iter` rule). Two runs over the same tree produce
//! byte-identical output, which CI relies on when diffing the uploaded
//! diagnostics artifact.

pub mod lexer;
pub mod rules;
pub mod scope;
pub mod waiver;

pub use rules::FileClass;

use rules::Finding;
use secdir_mem::json::push_escaped;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How bad a finding is. All findings gate CI regardless of severity —
/// the distinction communicates urgency, not enforcement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious; panics only in debug builds or needs review.
    Warning,
    /// Violates a hard invariant of this codebase.
    Error,
}

impl Severity {
    /// The lowercase name used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding, after waiver resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// File the finding is in, relative to the linted root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
    /// Stable rule identifier (see DESIGN.md §11 for the catalog).
    pub rule: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}] {}",
            self.file.display(),
            self.line,
            self.col,
            self.severity,
            self.rule,
            self.message
        )
    }
}

/// The result of linting a workspace: which files were scanned and what
/// was found. `files` lets CI assert coverage (e.g. that the analysis
/// engine's own sources were linted) without re-walking the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintReport {
    /// Scanned files, relative to the root, sorted.
    pub files: Vec<String>,
    /// All findings, sorted by `(file, line, col, rule)`.
    pub findings: Vec<Diagnostic>,
}

/// Files on the per-access simulation hot path, relative to the
/// workspace root. The hot-alloc rule applies only to these.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/cache/src/set_assoc.rs",
    "crates/cache/src/replacement.rs",
    "crates/coherence/src/step.rs",
    "crates/coherence/src/sharers.rs",
    "crates/coherence/src/baseline.rs",
    "crates/coherence/src/ed_td.rs",
    "crates/coherence/src/way_partitioned.rs",
    "crates/core/src/slice.rs",
    "crates/core/src/vd.rs",
    "crates/core/src/vd_banks.rs",
    "crates/core/src/vd_only.rs",
    "crates/machine/src/machine.rs",
    "crates/machine/src/caches.rs",
    "crates/machine/src/sliced.rs",
    "crates/machine/src/serve/scheduler.rs",
    "crates/mem/src/inline_vec.rs",
];

/// Analyzes one source file: lex, scope, rules, then waiver resolution.
/// `file` is used only to label diagnostics.
pub fn analyze_source(file: &Path, src: &str, class: FileClass) -> Vec<Diagnostic> {
    let tokens = lexer::lex(src);
    let (scopes, marker_issues) = scope::build(src, &tokens);
    let ctx = rules::Ctx::new(src, &tokens, &scopes, class);
    let mut findings = rules::run_all(&ctx);
    for issue in marker_issues {
        findings.push(Finding {
            rule: "region-marker",
            severity: Severity::Error,
            line: issue.line,
            col: 1,
            message: issue.message,
        });
    }

    let mut meta: Vec<Finding> = Vec::new();
    for w in waiver::parse_waivers(src, &tokens) {
        let Some(m) = rules::rule_meta(&w.rule) else {
            let known: Vec<&str> = rules::registry().iter().map(|r| r.meta.id).collect();
            meta.push(Finding {
                rule: "unknown-waiver",
                severity: Severity::Error,
                line: w.comment_line,
                col: w.col,
                message: format!(
                    "waiver names unknown rule `{}`; known rules: {}",
                    w.rule,
                    known.join(", ")
                ),
            });
            continue;
        };
        if m.needs_justification && w.justification.is_none() {
            // An unjustified waiver is rejected AND does not suppress:
            // the underlying finding stays, forcing a written argument.
            meta.push(Finding {
                rule: "waiver-justification",
                severity: Severity::Error,
                line: w.comment_line,
                col: w.col,
                message: format!(
                    "waiver for `{}` requires a justification: `lint: allow({}): <why>`",
                    w.rule, w.rule
                ),
            });
            continue;
        }
        let before = findings.len();
        findings.retain(|f| !(f.rule == w.rule && f.line == w.covered_line));
        if findings.len() == before {
            meta.push(Finding {
                rule: "stale-waiver",
                severity: Severity::Error,
                line: w.comment_line,
                col: w.col,
                message: format!(
                    "waiver for `{}` has no matching finding on line {}; remove the stale \
                     waiver",
                    w.rule, w.covered_line
                ),
            });
        }
    }
    findings.extend(meta);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
        .into_iter()
        .map(|f| Diagnostic {
            file: file.to_path_buf(),
            line: f.line,
            col: f.col,
            rule: f.rule,
            severity: f.severity,
            message: f.message,
        })
        .collect()
}

/// Classifies a workspace-relative path (forward-slash form) for rule
/// applicability.
pub fn classify(rel: &str) -> FileClass {
    FileClass {
        hot: HOT_PATH_FILES.contains(&rel),
        perf: rel.ends_with("/perf.rs"),
        crate_root: rel.ends_with("/lib.rs") && rel.matches("/src/").count() == 1
            || rel == "src/lib.rs",
    }
}

/// Lints the whole workspace rooted at `root`: every `.rs` file under
/// `crates/*/src`, `compat/*/src`, and `src/`. Test and bench trees are
/// exempt by construction (panicking and allocating there is fine).
///
/// A root with none of those source directories is an error, not a clean
/// scan of zero files: a mistyped `--root` must not pass the gate.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut src_dirs: Vec<PathBuf> = Vec::new();
    for tree in ["crates", "compat"] {
        let entries = match fs::read_dir(root.join(tree)) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        for entry in entries {
            let dir = entry?.path().join("src");
            if dir.is_dir() {
                src_dirs.push(dir);
            }
        }
    }
    if root.join("src").is_dir() {
        src_dirs.push(root.join("src"));
    }
    if src_dirs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no crates/*/src, compat/*/src or src directory under {}",
                root.display()
            ),
        ));
    }
    src_dirs.sort();

    let mut report = LintReport {
        files: Vec::new(),
        findings: Vec::new(),
    };
    for dir in src_dirs {
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            let src = fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            report
                .findings
                .extend(analyze_source(&rel, &src, classify(&rel_str)));
            report.files.push(rel_str);
        }
    }
    report.files.sort();
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders a report as deterministic pretty-printed JSON
/// (schema `secdir-lint/1`). Byte-identical across runs on the same
/// tree: all arrays are sorted and no hash iteration is involved.
pub fn render_json(report: &LintReport) -> String {
    let esc = |s: &str| {
        let mut out = String::with_capacity(s.len());
        push_escaped(&mut out, s);
        out
    };
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"secdir-lint/1\",\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files.len()));
    out.push_str("  \"findings\": [");
    for (i, d) in report.findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \
             \"severity\": \"{}\", \"message\": \"{}\"}}",
            esc(&d.file.to_string_lossy().replace('\\', "/")),
            d.line,
            d.col,
            esc(d.rule),
            d.severity,
            esc(&d.message)
        ));
    }
    if report.findings.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"files\": [");
    for (i, f) in report.files.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!("    \"{}\"", esc(f)));
    }
    if report.files.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        analyze_source(Path::new("t.rs"), src, FileClass::default())
    }

    #[test]
    fn unknown_rule_waiver_is_a_hard_error() {
        let d = diags("// lint: allow(bogus-rule)\nfn f() {}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unknown-waiver");
        assert_eq!(d[0].severity, Severity::Error);
        assert!(d[0].message.contains("bogus-rule"));
    }

    #[test]
    fn stale_waiver_is_a_hard_error() {
        let d = diags("fn f() { ok(); } // lint: allow(no-unwrap)\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "stale-waiver");
        let live = diags("fn f() { x.unwrap(); } // lint: allow(no-unwrap)\n");
        assert!(live.is_empty(), "{live:?}");
    }

    #[test]
    fn diagnostics_are_sorted_and_rendered_with_severity() {
        let d = diags("fn f() {\n    b.unwrap();\n    let t = Instant::now();\n}\n");
        assert_eq!(d.len(), 2);
        assert!(d[0].line < d[1].line);
        let shown = d[0].to_string();
        assert!(shown.starts_with("t.rs:2:"), "{shown}");
        assert!(shown.contains("error[no-unwrap]"), "{shown}");
    }

    #[test]
    fn json_rendering_is_stable_and_escaped() {
        let report = LintReport {
            files: vec!["a.rs".to_string()],
            findings: diags("fn f() { x.unwrap(); }\n"),
        };
        let one = render_json(&report);
        let two = render_json(&report);
        assert_eq!(one, two);
        assert!(one.contains("\"schema\": \"secdir-lint/1\""));
        assert!(one.contains("\"files_scanned\": 1"));
        assert!(one.contains("\\\"t.rs\\\"") || one.contains("\"file\": \"t.rs\""));
        // Empty report renders empty arrays, not nulls.
        let empty = render_json(&LintReport {
            files: vec![],
            findings: vec![],
        });
        assert!(empty.contains("\"findings\": []"));
        assert!(empty.contains("\"files\": []"));
    }

    #[test]
    fn region_marker_issues_become_findings() {
        let d = diags("// lint: region(nonexistent)\nfn f() {}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "region-marker");
        assert!(d[0].message.contains("unknown region"));
    }
}
