//! `secdir-sim` at its own edges: every bad flag or value exits 1 with a
//! message naming the flag, before any work starts and without a panic,
//! and every command's `--help` exits 0 with nothing on stderr.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_secdir-sim");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("run secdir-sim")
}

#[test]
fn bad_flags_and_values_exit_1_naming_the_flag() {
    // Each rejected command runs in an empty directory, which must stay
    // empty: the default sweep, perf and serve outputs land there.
    let dir = std::env::temp_dir().join(format!("secdir-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    // (invocation, text its stderr must contain)
    let cases = [
        ("spec --mix mix0 --refs 10 --refs 0", "--refs"),
        ("attack --cores 0", "--cores"),
        ("attack --cores 1", "--cores"),
        ("design --cores 0", "--cores"),
        ("perf --quick --cores 0", "--cores"),
        ("serve --cores 65", "--cores"),
        ("serve --refs 0", "--refs"),
        (
            "sweep --cores 0 --workloads mix0 --warmup 10 --measure 10",
            "--cores",
        ),
        ("sweep --threads 0", "--threads"),
        ("verif --cores 0", "--cores"),
        ("verif --cores 5", "--cores"),
        ("verif --lines 9", "--lines"),
        ("verif --l2 0", "--l2"),
        ("verif --ed 0", "--ed"),
        ("verif --td 0", "--td"),
        ("verif --vd 0", "--vd"),
        ("verif --kinds ,", "--kinds"),
        ("perf --slice-threads 1,0", "--slice-threads"),
        ("perf --epoch-batch x", "--epoch-batch"),
        ("aes --encryptions -1", "--encryptions"),
        ("spec --mix mix0 --bogus 1", "--bogus"),
        ("spec --mix", "--mix"),
        ("spec mix0", "mix0"),
        ("sweep --fail-fast --fail-fast", "--fail-fast"),
        ("serve --inject --tenants 3", "--tenants"),
        ("serve --trigger 5", "--trigger"),
    ];
    let mut failures = Vec::new();
    for (args, named) in cases {
        let out = Command::new(BIN)
            .args(args.split_whitespace())
            .current_dir(&dir)
            .output()
            .expect("run secdir-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        if out.status.code() != Some(1) || !stderr.contains(named) || stderr.contains("panicked") {
            failures.push(format!("{args}: {} stderr {stderr:?}", out.status));
        }
    }
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("list scratch dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(written.is_empty(), "rejected commands wrote {written:?}");
}

#[test]
fn range_bounds_are_accepted() {
    for args in [
        &["attack", "--cores", "2", "--bits", "2"][..],
        &["design", "--cores", "128"],
        &["verif", "--kinds", "secdir", "--cores", "4", "--lines", "1"],
    ] {
        let out = run(args);
        assert!(
            out.status.success(),
            "{args:?}: {} stderr {:?}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn every_command_prints_its_help() {
    let top = run(&["--help"]);
    assert!(top.status.success() && top.stderr.is_empty());
    let usage = String::from_utf8_lossy(&top.stdout);
    let list = usage
        .strip_prefix("usage: secdir-sim <")
        .and_then(|rest| rest.split('>').next())
        .expect("top-level usage lists the commands");
    let commands: Vec<&str> = list.split('|').collect();
    assert_eq!(commands.len(), 13, "{commands:?}");
    for cmd in commands {
        for flag in ["--help", "-h"] {
            let out = run(&[cmd, flag]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && out.stderr.is_empty(),
                "{cmd} {flag}: {} stderr {:?}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                stdout.starts_with(&format!("usage: secdir-sim {cmd} ")),
                "{cmd} {flag}: {stdout}"
            );
        }
    }
}

/// `--directories all` selects the seven kinds on every command that
/// takes the flag: one record per kind (per mode, for perf).
#[test]
fn directories_all_selects_the_seven_kinds() {
    let dir = std::env::temp_dir().join(format!("secdir-cli-all-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = dir.join("out.jsonl");
    let out_arg = out.to_str().expect("utf-8 temp path");
    // (invocation before --out, records expected in the output file)
    let cases = [
        (
            "sweep --directories all --workloads mix0 --cores 1 --warmup 10 --measure 10 \
             --threads 1",
            7,
        ),
        (
            "inject --directories all --faults drop-invalidation --trigger 10",
            7,
        ),
        (
            "perf --quick --directories all --cores 1 --warmup 10 --measure 100 --reps 1 \
             --cells 1 --threads 1 --slice-threads 1",
            21,
        ),
    ];
    let mut failures = Vec::new();
    for (args, records) in cases {
        let _ = std::fs::remove_file(&out);
        let result = Command::new(BIN)
            .args(args.split_whitespace())
            .args(["--out", out_arg])
            .output()
            .expect("run secdir-sim");
        let written = std::fs::read_to_string(&out).unwrap_or_default();
        if !result.status.success() || written.lines().count() != records {
            failures.push(format!(
                "{args}: {} wrote {} records, stderr {:?}",
                result.status,
                written.lines().count(),
                String::from_utf8_lossy(&result.stderr)
            ));
        }
    }
    let journal = dir.join("serve.jsonl");
    let serve = run(&[
        "serve",
        "--tenants",
        "7",
        "--refs",
        "10",
        "--directories",
        "all",
        "--journal",
        journal.to_str().expect("utf-8 temp path"),
    ]);
    if !serve.status.success() {
        failures.push(format!(
            "serve --directories all: {} stderr {:?}",
            serve.status,
            String::from_utf8_lossy(&serve.stderr)
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A `serve --bench` row records the drain threads the run used: the
/// requested `--workers` clamped to the pool and the tenant count, so
/// 50 requested workers over three tenants start (and record) three.
#[test]
fn serve_bench_records_the_drain_threads_used() {
    let dir = std::env::temp_dir().join(format!("secdir-cli-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let bench = dir.join("bench.jsonl");
    let journal = dir.join("serve.jsonl");
    let out = run(&[
        "serve",
        "--tenants",
        "3",
        "--refs",
        "50",
        "--workers",
        "50",
        "--journal",
        journal.to_str().expect("utf-8 temp path"),
        "--bench",
        bench.to_str().expect("utf-8 temp path"),
    ]);
    let rows = std::fs::read_to_string(&bench).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{} stderr {:?}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(rows.lines().count() > 0, "no bench rows");
    for row in rows.lines() {
        assert!(row.contains("\"workers\":3,"), "{row}");
    }
}

/// `serve --inject` ends every armed tenant quarantined, one of them
/// through a panic in its machine that the server contains. A contained
/// panic is a journal record, not a crash, so nothing on stderr reports
/// it.
#[test]
fn serve_inject_keeps_contained_panics_off_stderr() {
    let dir = std::env::temp_dir().join(format!("secdir-cli-inject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let journal = dir.join("inject.jsonl");
    let out = run(&[
        "serve",
        "--inject",
        "--journal",
        journal.to_str().expect("utf-8 temp path"),
    ]);
    let records = std::fs::read_to_string(&journal).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{} stderr {stderr:?}", out.status);
    assert!(
        records.contains("protocol invariant violated"),
        "no tenant's machine panicked"
    );
    assert!(!stderr.contains("panicked at"), "{stderr}");
}
