//! Adversarial checkpoint-resume tests: hostile panic messages.
//!
//! A panicking sweep cell records its panic payload verbatim (JSON-escaped)
//! in the `msg` field of its `{"status":"panicked"}` checkpoint line. Panic
//! messages routinely quote the very syntax the checkpoint is written in —
//! assertion messages embed JSON snippets, file paths embed braces, debug
//! output embeds `"seed":999`. The resume planner reads such lines with the
//! writer's strict inverse, never by substring search: a checkpoint written
//! by [`CellOutcome::to_json_line`] must always round-trip through
//! [`plan_resume`] back to the cell that actually failed.
//!
//! These tests drive that contract end to end through the public API, both
//! with hand-picked worst cases and with a property sweep over generated
//! hostile payloads.
#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a failure panics")]

use proptest::prelude::*;
use secdir_machine::resume::plan_resume;
use secdir_machine::sweep::{run_matrix, CellOutcome, CellSpec, SweepMatrix, SweepOptions};
use secdir_machine::{Access, AccessStream, DirectoryKind};
use secdir_mem::json::write_lines;
use secdir_mem::LineAddr;

fn factory(cell: &CellSpec) -> Vec<Box<dyn AccessStream + 'static>> {
    (0..cell.cores)
        .map(|c| {
            let base = (c as u64 + 1) << 20;
            let seed = cell.seed;
            Box::new(
                (0..10_000u64).map(move |i| {
                    Access::read(LineAddr::new(base + (i.wrapping_mul(seed | 1) % 512)))
                }),
            ) as Box<dyn AccessStream>
        })
        .collect()
}

fn matrix() -> SweepMatrix {
    SweepMatrix {
        workloads: vec!["a".into(), "b".into()],
        kinds: vec![DirectoryKind::Baseline, DirectoryKind::SecDir],
        seeds: vec![1, 2],
        cores: 2,
        warmup: 50,
        measure: 200,
    }
}

/// A `panicked` record for `cell` whose message is `msg`, produced by the
/// same writer the sweep harness uses.
fn panicked_line(cell: &CellSpec, msg: &str) -> String {
    CellOutcome::Panicked {
        cell: cell.clone(),
        msg: msg.to_string(),
    }
    .to_json_line()
}

/// Runs the whole matrix and returns its checkpoint text.
fn full_checkpoint(cells: &[CellSpec]) -> String {
    let outcomes = run_matrix(cells, &factory, &SweepOptions::new(2));
    let mut buf = Vec::new();
    write_lines(&mut buf, outcomes.iter().map(CellOutcome::to_json_line)).unwrap();
    String::from_utf8(buf).unwrap()
}

/// Hand-picked hostile payloads: every one quotes checkpoint syntax.
const HOSTILE_MSGS: &[&str] = &[
    // A complete fake identity, exactly the shape a substring parser grabs.
    "oracle tripped: {\"workload\":\"zzz\",\"directory\":\"vd-only\",\"seed\":999,\
     \"cores\":8,\"warmup\":1,\"measure\":1}",
    // Closes the record early, then opens a fresh fake one.
    "\"},{\"workload\":\"b\",\"seed\":2",
    // Field-injection without braces.
    "\",\"workload\":\"x\",\"seed\":999,\"measure\":7",
    // Unbalanced braces in both directions.
    "}}}}",
    "{{{{",
    // Backslash pile-up: every escape the writer emits, doubled.
    "path \\\\server\\share\\ and a quote \" and a tab \t and newline \n",
    // A seed lure with nothing else.
    "\"seed\":999",
];

#[test]
fn hostile_panic_messages_round_trip_to_the_failed_cell() {
    let cells = matrix().cells();
    for msg in HOSTILE_MSGS {
        // Cell 0 panicked with a hostile message; every other cell is clean.
        let mut lines: Vec<String> = full_checkpoint(&cells)
            .lines()
            .map(str::to_string)
            .collect();
        lines[0] = panicked_line(&cells[0], msg);
        let text = lines.join("\n");
        let plan = plan_resume(&cells, &text)
            .unwrap_or_else(|e| panic!("hostile msg {msg:?} broke the planner: {e}"));
        assert_eq!(plan.rerun, vec![0], "msg {msg:?} must re-run only cell 0");
        assert!(
            !plan.recovered_truncation,
            "msg {msg:?} misread as truncation"
        );
        for (i, kept) in plan.kept.iter().enumerate() {
            assert_eq!(kept.is_some(), i != 0, "wrong keep decision for cell {i}");
        }
    }
}

#[test]
fn hostile_panic_record_in_the_middle_is_not_interleaved_garbage() {
    // A hostile panicked line sitting *between* clean records must parse as
    // a record (and re-run), not trip the interleaved-garbage hard error.
    let cells = matrix().cells();
    let mut lines: Vec<String> = full_checkpoint(&cells)
        .lines()
        .map(str::to_string)
        .collect();
    let mid = lines.len() / 2;
    lines[mid] = panicked_line(&cells[mid], HOSTILE_MSGS[0]);
    let plan = plan_resume(&cells, &lines.join("\n")).unwrap();
    assert_eq!(plan.rerun, vec![mid]);
}

#[test]
fn every_truncation_of_a_hostile_record_is_recovered() {
    // Kill -9 mid-write: the final line is an arbitrary byte prefix of a
    // hostile record. No prefix may parse as a (wrong) complete record —
    // each must be recovered as a truncated tail and the cell re-run.
    let cells = matrix().cells();
    let clean: Vec<String> = full_checkpoint(&cells)
        .lines()
        .map(str::to_string)
        .collect();
    let hostile = panicked_line(&cells[1], HOSTILE_MSGS[0]);
    for cut in 1..hostile.len() {
        if !hostile.is_char_boundary(cut) {
            continue;
        }
        let text = format!("{}\n{}", clean[0], &hostile[..cut]);
        let plan = plan_resume(&cells, &text)
            .unwrap_or_else(|e| panic!("prefix of {cut} bytes became a hard error: {e}"));
        assert!(
            plan.recovered_truncation,
            "prefix of {cut} bytes parsed as a complete record"
        );
        assert_eq!(plan.rerun, (1..cells.len()).collect::<Vec<_>>());
    }
}

#[test]
fn identity_shaped_text_only_inside_strings_is_malformed() {
    // A line whose identity fields all live inside one string value has no
    // top-level identity at all; before the end of the file that is the
    // interleaved-garbage hard error, not a silent mis-keep.
    let cells = matrix().cells();
    let clean = full_checkpoint(&cells);
    let decoy = "{\"note\":\"\\\"workload\\\":\\\"a\\\",\\\"directory\\\":\\\"baseline\\\",\
                 \\\"seed\\\":1,\\\"cores\\\":2,\\\"warmup\\\":50,\\\"measure\\\":200\"}";
    let text = format!("{decoy}\n{clean}");
    let err = plan_resume(&cells, &text).unwrap_err();
    assert!(err.contains("line 1"), "err={err}");
    assert!(err.contains("malformed"), "err={err}");
}

#[test]
fn merged_checkpoint_with_hostile_records_is_byte_identical() {
    // Resume round-trip at the byte level: plan over a checkpoint whose
    // failures carry hostile messages, re-run the planned cells, merge, and
    // the kept lines must be byte-for-byte the originals.
    let cells = matrix().cells();
    let mut lines: Vec<String> = full_checkpoint(&cells)
        .lines()
        .map(str::to_string)
        .collect();
    lines[2] = panicked_line(&cells[2], HOSTILE_MSGS[1]);
    lines[5] = panicked_line(&cells[5], HOSTILE_MSGS[2]);
    let text = lines.join("\n");

    let plan = plan_resume(&cells, &text).unwrap();
    assert_eq!(plan.rerun, vec![2, 5]);
    let to_run: Vec<CellSpec> = plan.rerun.iter().map(|&i| cells[i].clone()).collect();
    let fresh = run_matrix(&to_run, &factory, &SweepOptions::new(1));
    let merged = plan.merge(&fresh);

    assert_eq!(merged.len(), cells.len());
    for (i, line) in merged.iter().enumerate() {
        if plan.rerun.contains(&i) {
            assert!(line.starts_with('{') && line.ends_with('}'));
        } else {
            assert_eq!(line, &lines[i], "kept line {i} not byte-identical");
        }
    }

    // And the merged file is itself a complete, resumable checkpoint.
    let replan = plan_resume(&cells, &merged.join("\n")).unwrap();
    assert!(replan.is_complete());
}

/// Fragments the property sweep assembles hostile payloads from. Each is a
/// piece of checkpoint syntax; concatenations produce field injections,
/// brace bombs, escape pile-ups, and fake records in every order.
const FRAGMENTS: &[&str] = &[
    "\"",
    "\\",
    "{",
    "}",
    ",",
    ":",
    "\n",
    "\t",
    "\"seed\":999",
    "\"workload\":\"evil\"",
    "\"directory\":\"secdir\"",
    "\"status\":\"panicked\"",
    "\"cores\":2,\"warmup\":50,\"measure\":200",
    "},{",
    "plain text",
];

// --- serve journal ---------------------------------------------------
//
// The `serve` subsystem has its own checkpoint journal with a stricter
// contract than the sweep checkpoint: a resumed run replays the whole
// schedule deterministically and must reproduce the surviving journal
// byte-for-byte. Any complete-but-untrustworthy line is a hard
// `ServeError::Corrupt`; only a newline-less final line (an interrupted
// write) is recoverable. None of the hostile inputs below may panic.

mod serve_journal {
    use secdir_machine::serve::{run_serve, uniform_streams, ServeConfig, ServeError, TenantSpec};
    use secdir_machine::DirectoryKind;

    fn small_config() -> ServeConfig {
        let tenants = (0..2)
            .map(|i| TenantSpec {
                name: format!("t{i}"),
                workload: "uniform".to_string(),
                kind: if i == 0 {
                    DirectoryKind::Baseline
                } else {
                    DirectoryKind::SecDir
                },
                seed: 0xadd + i as u64,
                cores: 1,
                refs: 120,
                fault: None,
            })
            .collect();
        let mut cfg = ServeConfig::new(tenants);
        cfg.checkpoint_interval = 40;
        cfg
    }

    fn run(checkpoint: &str) -> Result<String, ServeError> {
        let mut sink = Vec::new();
        run_serve(
            &small_config(),
            &uniform_streams,
            checkpoint.as_bytes(),
            &mut sink,
        )?;
        Ok(String::from_utf8(sink).expect("journal is utf-8"))
    }

    fn full_journal() -> String {
        run("").expect("clean run")
    }

    #[test]
    fn every_byte_cut_of_the_journal_resumes_byte_identically() {
        let full = full_journal();
        assert!(full.len() > 300, "journal too small to be a real test");
        for cut in 0..=full.len() {
            let resumed = run(&full[..cut])
                .unwrap_or_else(|e| panic!("cut at byte {cut} became an error: {e}"));
            assert_eq!(resumed, full, "divergence after cut at byte {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_a_hard_error_not_a_panic() {
        let full = full_journal();
        for garbage in [
            "not json at all\n",
            "{\"tick\":0,\"tenant\":\"t0\",\"retired\":0,\"stalled\":0,\"cycles\":0}\n",
            "{}\n",
            "{\"schema\":\"secdir-serve/1\"}\n",
        ] {
            let text = format!("{full}{garbage}");
            match run(&text) {
                Err(ServeError::Corrupt(msg)) => {
                    assert!(msg.contains("journal"), "unhelpful message: {msg}")
                }
                other => panic!("garbage {garbage:?} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_without_final_newline_is_truncation_recovery() {
        // The same garbage minus its newline is an interrupted write: the
        // line is discarded and the run resumes from the prefix.
        let full = full_journal();
        let text = format!("{full}not json at all");
        let resumed = run(&text).expect("newline-less garbage must recover");
        assert_eq!(resumed, full);
    }

    #[test]
    fn duplicate_terminal_record_is_rejected() {
        let full = full_journal();
        let terminal = full
            .lines()
            .find(|l| l.contains("\"status\":"))
            .expect("run produced a terminal record");
        let text = format!("{full}{terminal}\n");
        match run(&text) {
            Err(ServeError::Corrupt(msg)) => {
                assert!(
                    msg.contains("after terminal") || msg.contains("out-of-order"),
                    "unhelpful message: {msg}"
                );
            }
            other => panic!("duplicate terminal accepted: {other:?}"),
        }
    }

    #[test]
    fn journal_from_a_different_configuration_is_rejected() {
        let full = full_journal();
        // Resume with one more tenant: the header line no longer matches.
        let mut cfg = small_config();
        cfg.tenants.push(TenantSpec {
            name: "t2".to_string(),
            workload: "uniform".to_string(),
            kind: DirectoryKind::SecDirVdOnly,
            seed: 9,
            cores: 1,
            refs: 120,
            fault: None,
        });
        let mut sink = Vec::new();
        match run_serve(&cfg, &uniform_streams, full.as_bytes(), &mut sink) {
            Err(ServeError::Corrupt(msg)) => {
                assert!(msg.contains("configuration"), "unhelpful message: {msg}")
            }
            other => panic!("mismatched config accepted: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn tampered_counter_in_a_kept_record_is_caught_by_the_replay() {
        let full = full_journal();
        // Bump a digit inside the first checkpoint's `retired` field. The
        // record still parses; the deterministic replay must notice the
        // value is not what the schedule produces.
        let tampered = full.replacen("\"retired\":4", "\"retired\":5", 1);
        assert_ne!(tampered, full, "fixture needs a `\"retired\":4` field");
        match run(&tampered) {
            Err(ServeError::Corrupt(msg)) => {
                assert!(msg.contains("diverges"), "unhelpful message: {msg}")
            }
            other => panic!("tampered counter accepted: {other:?}"),
        }
    }

    #[test]
    fn non_canonical_kept_checkpoint_is_corrupt() {
        // Cut right after the first checkpoint, so its tenant is still
        // live and the replay regenerates that record. The same content
        // spelled any other way than the writer spells it is not a
        // record of this run.
        let full = full_journal();
        let start = full.find("{\"tick\"").expect("a stream record");
        let end = start + full[start..].find('\n').expect("a complete line");
        let line = &full[start..end];
        assert!(
            !line.contains("\"status\""),
            "fixture needs a checkpoint first"
        );
        let (r, s, c) = (
            line.find(",\"retired\"").expect("retired"),
            line.find(",\"stalled\"").expect("stalled"),
            line.find(",\"cycles\"").expect("cycles"),
        );
        let swapped = format!("{}{}{}{}", &line[..r], &line[s..c], &line[r..s], &line[c..]);
        let spaced = line.replacen("\"retired\":", "\"retired\": ", 1);
        assert!(run(&format!("{}\n", &full[..end])).is_ok());
        for bad in [spaced, swapped] {
            match run(&format!("{}{bad}\n", &full[..start])) {
                Err(ServeError::Corrupt(msg)) => assert!(msg.contains("journal"), "{msg}"),
                other => panic!("non-canonical {bad:?} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_order_records_are_rejected() {
        let full = full_journal();
        let mut lines: Vec<&str> = full.lines().collect();
        // Swap the last two records (both past the header+spec prefix).
        let n = lines.len();
        lines.swap(n - 2, n - 1);
        let text = format!("{}\n", lines.join("\n"));
        match run(&text) {
            Err(ServeError::Corrupt(_)) => {}
            other => panic!("out-of-order journal accepted: {other:?}"),
        }
    }

    #[test]
    fn hostile_tenant_names_are_rejected_at_validation() {
        for name in ["evil\"quote", "back\\slash", "new\nline", "\u{1}ctl"] {
            let mut cfg = small_config();
            cfg.tenants[0].name = name.to_string();
            let mut sink = Vec::new();
            match run_serve(&cfg, &uniform_streams, b"", &mut sink) {
                Err(ServeError::Config(msg)) => {
                    assert!(msg.contains("round-trip"), "unhelpful message: {msg}")
                }
                other => panic!("hostile name {name:?} accepted: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn unknown_tenant_record_is_rejected() {
        let full = full_journal();
        let text = format!(
            "{full}{}\n",
            "{\"tick\":9,\"tenant\":\"intruder\",\"retired\":1,\"stalled\":0,\"cycles\":1}"
        );
        match run(&text) {
            Err(ServeError::Corrupt(msg)) => {
                assert!(msg.contains("unknown tenant"), "unhelpful message: {msg}")
            }
            other => panic!("unknown-tenant record accepted: {other:?}"),
        }
    }

    // --- binary (`secdir-journal/1`) checkpoints ---------------------
    //
    // Same contract, framed encoding: a kill can only truncate, so only
    // a torn final frame is forgivable. A checksum mismatch over a
    // fully present frame, a bad magic, or a journal in the wrong
    // format must all be hard `Corrupt` errors, never panics.

    use secdir_machine::serve::JournalFormat;

    fn binary_config() -> ServeConfig {
        let mut cfg = small_config();
        cfg.format = JournalFormat::Binary;
        cfg
    }

    fn run_binary(checkpoint: &[u8]) -> Result<Vec<u8>, ServeError> {
        let mut sink = Vec::new();
        run_serve(&binary_config(), &uniform_streams, checkpoint, &mut sink)?;
        Ok(sink)
    }

    fn full_binary_journal() -> Vec<u8> {
        run_binary(b"").expect("clean binary run")
    }

    #[test]
    fn every_byte_cut_of_a_binary_journal_resumes_byte_identically() {
        let full = full_binary_journal();
        // Varint packing makes this far smaller than its jsonl twin;
        // ~100 bytes still spans several multi-record frames.
        assert!(full.len() > 100, "journal too small to be a real test");
        for cut in 0..=full.len() {
            let resumed = run_binary(&full[..cut])
                .unwrap_or_else(|e| panic!("binary cut at byte {cut} became an error: {e}"));
            assert_eq!(resumed, full, "divergence after binary cut at byte {cut}");
        }
    }

    #[test]
    fn flipped_bit_in_a_complete_frame_is_a_hard_error() {
        let full = full_binary_journal();
        // The first frame's length fits one varint byte (assert, so the
        // offsets below stay honest), putting its first payload byte at
        // offset 9. Flipping it — or the file's very last byte, the
        // final frame's checksum — leaves a fully present frame whose
        // CRC no longer matches: corruption, not truncation.
        assert!(full[8] < 0x80, "first frame length grew past one byte");
        for idx in [9, full.len() - 1] {
            let mut tampered = full.clone();
            tampered[idx] ^= 0x40;
            match run_binary(&tampered) {
                Err(ServeError::Corrupt(msg)) => {
                    assert!(msg.contains("checksum"), "unhelpful message: {msg}")
                }
                other => panic!("bit flip at byte {idx} accepted: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn flipped_magic_byte_is_a_hard_error() {
        let mut full = full_binary_journal();
        full[0] ^= 0x01;
        match run_binary(&full) {
            Err(ServeError::Corrupt(msg)) => {
                assert!(msg.contains("magic"), "unhelpful message: {msg}")
            }
            other => panic!("bad magic accepted: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn trailing_garbage_bytes_recover_as_a_torn_tail() {
        // ASCII garbage after the last frame parses as a frame length
        // with too few bytes behind it — indistinguishable from an
        // interrupted frame write, so it is discarded and the run
        // resumes from the intact prefix.
        let full = full_binary_journal();
        let mut cut = full.clone();
        cut.extend_from_slice(b"not a frame");
        let resumed = run_binary(&cut).expect("torn tail must recover");
        assert_eq!(resumed, full);
    }

    #[test]
    fn jsonl_resume_of_a_binary_journal_names_the_format_mismatch() {
        let bin = full_binary_journal();
        let mut sink = Vec::new();
        match run_serve(&small_config(), &uniform_streams, &bin, &mut sink) {
            Err(ServeError::Corrupt(msg)) => assert!(
                msg.contains("--format binary"),
                "mismatch hint missing: {msg}"
            ),
            other => panic!(
                "binary journal fed to jsonl accepted: {:?}",
                other.map(|_| ())
            ),
        }
    }

    #[test]
    fn binary_resume_of_a_jsonl_journal_is_a_hard_error() {
        let text = full_journal();
        match run_binary(text.as_bytes()) {
            Err(ServeError::Corrupt(msg)) => {
                assert!(msg.contains("magic"), "unhelpful message: {msg}")
            }
            other => panic!(
                "jsonl journal fed to binary accepted: {:?}",
                other.map(|_| ())
            ),
        }
    }

    #[test]
    fn binary_journal_from_a_different_configuration_is_rejected() {
        let full = full_binary_journal();
        let mut cfg = binary_config();
        cfg.checkpoint_interval = 41;
        let mut sink = Vec::new();
        match run_serve(&cfg, &uniform_streams, &full, &mut sink) {
            Err(ServeError::Corrupt(msg)) => {
                assert!(msg.contains("configuration"), "unhelpful message: {msg}")
            }
            other => panic!("mismatched config accepted: {:?}", other.map(|_| ())),
        }
    }
}

proptest! {
    /// Any panic payload assembled from checkpoint syntax fragments must
    /// round-trip: the writer's line parses back to exactly the failed
    /// cell, and a full merge reproduces every kept line byte-identically.
    #[test]
    fn generated_hostile_payloads_round_trip(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..12),
        victim in 0usize..8,
    ) {
        let cells = matrix().cells();
        let msg: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let mut lines: Vec<String> =
            full_checkpoint(&cells).lines().map(str::to_string).collect();
        lines[victim] = panicked_line(&cells[victim], &msg);
        let plan = plan_resume(&cells, &lines.join("\n"))
            .unwrap_or_else(|e| panic!("payload {msg:?} broke the planner: {e}"));
        prop_assert_eq!(&plan.rerun, &vec![victim]);
        prop_assert!(!plan.recovered_truncation);
        for (i, kept) in plan.kept.iter().enumerate() {
            match kept {
                Some(line) => prop_assert_eq!(line, &lines[i]),
                None => prop_assert_eq!(i, victim),
            }
        }
    }
}
