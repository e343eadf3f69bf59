//! `secdir-sim … | head`: a reader that stops early must end the CLI
//! quietly — exit 0, nothing on stderr — rather than with a broken-pipe
//! panic after the useful output.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_secdir-sim");

/// Runs the binary with its stdout read end closed before it writes
/// anything, and returns (exit success, stderr text).
fn run_with_closed_stdout(args: &[&str]) -> (bool, String) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn secdir-sim");
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for secdir-sim");
    (status.success(), stderr)
}

#[test]
fn printing_commands_exit_quietly_when_stdout_closes() {
    for args in [
        &["--help"][..],
        &["design"],
        &["spec", "--mix", "mix0", "--refs", "2000"],
    ] {
        let (ok, stderr) = run_with_closed_stdout(args);
        assert!(
            !stderr.contains("panicked"),
            "{args:?} panicked on a closed stdout:\n{stderr}"
        );
        assert!(ok && stderr.is_empty(), "{args:?}: stderr {stderr:?}");
    }
}

#[test]
fn decode_to_a_closed_stdout_exits_quietly() {
    let journal: PathBuf =
        std::env::temp_dir().join(format!("secdir-pipe-{}.sdj", std::process::id()));
    let journal_arg = journal.to_str().expect("utf-8 temp path");
    let status = Command::new(BIN)
        .args([
            "serve",
            "--tenants",
            "2",
            "--refs",
            "2000",
            "--format",
            "binary",
        ])
        .args(["--journal", journal_arg])
        .stdout(Stdio::null())
        .status()
        .expect("run serve");
    assert!(status.success(), "serve failed: {status}");
    let (ok, stderr) = run_with_closed_stdout(&["decode", "--journal", journal_arg]);
    let _ = std::fs::remove_file(&journal);
    assert!(
        !stderr.contains("panicked"),
        "decode panicked on a closed stdout:\n{stderr}"
    );
    assert!(ok && stderr.is_empty(), "decode: stderr {stderr:?}");
}
