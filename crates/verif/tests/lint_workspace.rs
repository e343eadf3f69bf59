//! The lint gate, end to end: the workspace itself must scan clean under
//! the token-level analysis engine, an introduced violation must surface
//! as a `file:line:col` diagnostic, the engine must lint its own sources,
//! the JSON report must be byte-deterministic, the checked-in corpus must
//! produce exactly its pinned findings, and a root with no sources must
//! be an error rather than a clean scan.

use std::fs;
use std::path::{Path, PathBuf};

use secdir_verif::analysis::{analyze_source, FileClass, HOT_PATH_FILES};
use secdir_verif::{lint_workspace, render_json};

fn workspace_root() -> PathBuf {
    // crates/verif -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

#[test]
fn the_workspace_lints_clean() {
    let report = lint_workspace(&workspace_root()).expect("scan succeeds");
    assert!(
        report.findings.is_empty(),
        "lint findings on the tree:\n{}",
        report
            .findings
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_engine_lints_its_own_sources() {
    // Self-lint: the analysis engine's modules are ordinary workspace
    // files and must appear in the scanned-file list (the CI artifact
    // asserts the same from the JSON `files` array).
    let report = lint_workspace(&workspace_root()).expect("scan succeeds");
    for module in [
        "crates/verif/src/analysis/mod.rs",
        "crates/verif/src/analysis/lexer.rs",
        "crates/verif/src/analysis/scope.rs",
        "crates/verif/src/analysis/waiver.rs",
        "crates/verif/src/analysis/rules/mod.rs",
        "crates/verif/src/analysis/rules/ported.rs",
        "crates/verif/src/analysis/rules/determinism.rs",
        "crates/verif/src/analysis/rules/panic_safety.rs",
        "crates/verif/src/analysis/rules/atomics.rs",
    ] {
        assert!(
            report.files.iter().any(|f| f == module),
            "engine source {module} missing from the scan: {:?}",
            report.files
        );
    }
    assert!(
        report
            .findings
            .iter()
            .all(|d| !d.file.starts_with("crates/verif/src/analysis")),
        "the engine must pass its own rules"
    );
}

#[test]
fn json_report_is_byte_deterministic() {
    let root = workspace_root();
    let one = render_json(&lint_workspace(&root).expect("first scan"));
    let two = render_json(&lint_workspace(&root).expect("second scan"));
    assert_eq!(one, two, "two scans must render byte-identical JSON");
    assert!(one.contains("\"schema\": \"secdir-lint/1\""));
}

#[test]
fn an_introduced_violation_fails_with_file_and_line() {
    // Build a miniature workspace in a scratch directory: one crate whose
    // lib.rs has the hygiene attributes but calls `.unwrap()` in
    // production code on a known line.
    let scratch = workspace_root()
        .join("target")
        .join("lint-scratch")
        .join(format!("pid-{}", std::process::id()));
    let src = scratch.join("crates").join("demo").join("src");
    fs::create_dir_all(&src).expect("create scratch crate");
    let bad = "#![forbid(unsafe_code)]\n\
               #![warn(missing_docs)]\n\
               //! Demo crate.\n\
               /// Doc.\n\
               pub fn f(x: Option<u32>) -> u32 {\n\
                   x.unwrap()\n\
               }\n";
    fs::write(src.join("lib.rs"), bad).expect("write bad source");

    let report = lint_workspace(&scratch).expect("scan succeeds");
    assert_eq!(
        report.findings.len(),
        1,
        "exactly the seeded violation: {:?}",
        report.findings
    );
    let d = &report.findings[0];
    assert_eq!(d.rule, "no-unwrap");
    assert_eq!(d.line, 6, "diagnostic must carry the offending line");
    assert!(
        d.file.ends_with("crates/demo/src/lib.rs"),
        "diagnostic must carry the file: {}",
        d.file.display()
    );
    // The rendered form is the `file:line:col: severity[rule] message`
    // CI contract.
    let rendered = d.to_string();
    assert!(rendered.contains("lib.rs:6:"), "{rendered}");
    assert!(rendered.contains("error[no-unwrap]"), "{rendered}");

    fs::remove_dir_all(&scratch).ok();
}

/// Every `(line, rule)` pair the engine reports on a `tests/corpus/`
/// file, sorted and deduplicated, with no rule filtered out.
fn corpus_findings(name: &str, class: FileClass) -> Vec<(u32, &'static str)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join(name);
    let src = fs::read_to_string(&path).expect("read corpus file");
    let mut found: Vec<_> = analyze_source(Path::new(name), &src, class)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect();
    found.sort();
    found.dedup();
    found
}

/// The complete findings on each corpus file: a change to any rule's
/// reach on these fixtures shows up here as a diff.
#[test]
fn corpus_findings_are_pinned() {
    let hot = FileClass {
        hot: true,
        perf: false,
        crate_root: false,
    };
    assert_eq!(
        corpus_findings("hot_path.rs", hot),
        [
            (20, "no-unwrap"),
            (21, "hot-alloc"),
            (22, "hot-alloc"),
            (23, "wall-clock"),
            (24, "hot-alloc"),
            (49, "journal-flush"),
        ]
    );
    assert_eq!(
        corpus_findings("production.rs", FileClass::default()),
        [
            (15, "no-unwrap"),
            (19, "no-unwrap"),
            (40, "wall-clock"),
            (41, "wall-clock"),
            (48, "wall-clock"),
        ]
    );
    let crate_root = FileClass {
        hot: false,
        perf: false,
        crate_root: true,
    };
    assert_eq!(
        corpus_findings("crate_root.rs", crate_root),
        [(1, "crate-hygiene")]
    );
}

#[test]
fn every_hot_path_entry_is_a_scanned_file() {
    let root = workspace_root();
    let report = lint_workspace(&root).expect("scan succeeds");
    for entry in HOT_PATH_FILES {
        assert!(
            root.join(entry).is_file(),
            "HOT_PATH_FILES names {entry}, which is not a file"
        );
        assert!(
            report.files.iter().any(|f| f == entry),
            "HOT_PATH_FILES entry {entry} is not in the scan"
        );
    }
}

#[test]
fn a_root_without_sources_is_an_error() {
    let scratch = workspace_root()
        .join("target")
        .join("lint-scratch")
        .join(format!("empty-{}", std::process::id()));
    fs::create_dir_all(&scratch).expect("create scratch root");
    let err = lint_workspace(&scratch).expect_err("an empty root must not scan clean");
    assert!(
        err.to_string().contains(&scratch.display().to_string()),
        "the error names the root: {err}"
    );
    fs::remove_dir_all(&scratch).ok();
}
