//! The skip-then-measure reports of `secdir-sim spec` and `secdir-sim
//! parsec`, pinned as text. CI compares the sliced engine at 1 and at 4
//! threads with `cmp`; these pins also tie both engines' reports to fixed
//! bytes, so a change to the measured window (its split, its deltas or
//! its L2-miss total) shows up here.
#![allow(clippy::expect_used, reason = "a test fails by panicking")]

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_secdir-sim");

fn stdout(args: &str) -> String {
    let out = Command::new(BIN)
        .args(args.split_whitespace())
        .output()
        .expect("run secdir-sim");
    assert!(out.status.success(), "`{args}` failed: {out:?}");
    String::from_utf8(out.stdout).expect("stdout is utf-8")
}

const SPEC_MIX2_SERIAL: &str = "\
mix         : mix2 (bzip2 + omnetpp)
directory   : SecDir
mean IPC    : 0.104
exec cycles : 898132
L2 misses   : 32781
  breakdown : ED/TD 0 | VD 0 | memory 32781
inclusion victims: 0
";

const SPEC_MIX2_SLICED: &str = "\
mix         : mix2 (bzip2 + omnetpp)
directory   : SecDir
engine      : sliced
mean IPC    : 0.104
exec cycles : 898132
L2 misses   : 32781
  breakdown : ED/TD 0 | VD 0 | memory 32781
inclusion victims: 0
";

const PARSEC_CANNEAL: &str = "\
app         : canneal
directory   : SecDir
mean IPC    : 0.085
exec cycles : 1122730
L2 misses   : 62321
  breakdown : ED/TD 31384 | VD 0 | memory 30937
inclusion victims: 0
";

#[test]
fn spec_report_is_pinned_on_both_engines() {
    let spec = "spec --mix mix2 --refs 40000";
    assert_eq!(stdout(spec), SPEC_MIX2_SERIAL);
    for threads in [1, 4] {
        assert_eq!(
            stdout(&format!("{spec} --slice-threads {threads}")),
            SPEC_MIX2_SLICED,
            "--slice-threads {threads}"
        );
    }
}

#[test]
fn parsec_report_is_pinned() {
    assert_eq!(stdout("parsec --app canneal --refs 40000"), PARSEC_CANNEAL);
}
