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
