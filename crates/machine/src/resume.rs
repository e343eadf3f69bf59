//! Checkpoint/resume for interrupted sweeps (`secdir-sim sweep --resume`).
//!
//! A sweep's JSONL output doubles as its checkpoint. This module
//! validates such a file against the sweep matrix and plans the minimal
//! continuation:
//!
//! * complete success records are **kept verbatim** (the simulator is
//!   deterministic, so re-running them would reproduce the same bytes);
//! * failure records (`{"status":...}`) and cells with no record are
//!   **re-run**;
//! * a malformed *final* line is recovered as a truncated tail (dropped
//!   and re-run); a malformed line anywhere else is corruption and a hard
//!   error, as are records for unknown cells, duplicate records, and
//!   records whose cell parameters disagree with the matrix.
//!
//! Every line is read with [`CellOutcome::from_json_line`], the strict
//! inverse of the record writer: a line is a record only if it is exactly
//! the writer's rendering of one outcome — every key in order, every
//! value spelled as the writer spells it. So free text inside a failure
//! record's `msg` can never supply or shadow an identity field, and no
//! cut-off prefix of a record is itself a record, which is what tells a
//! truncated tail from a complete line.
//!
//! Merging the kept lines with the fresh results ([`ResumePlan::merge`])
//! yields output byte-identical to an uninterrupted run (asserted by
//! `tests/determinism.rs`).

use std::collections::HashMap;

use crate::sweep::{CellOutcome, CellSpec};

/// The validated continuation plan for a sweep checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumePlan {
    /// Per cell (matrix order): the verbatim kept line, or `None` when
    /// the cell must be re-run.
    pub kept: Vec<Option<String>>,
    /// Indices (matrix order) of the cells to re-run: failed, missing,
    /// or truncated records.
    pub rerun: Vec<usize>,
    /// Whether a truncated final line was dropped during validation.
    pub recovered_truncation: bool,
}

impl ResumePlan {
    /// Whether the checkpoint already covers the whole matrix.
    pub fn is_complete(&self) -> bool {
        self.rerun.is_empty()
    }

    /// Merges the kept lines with `fresh` outcomes (one per [`rerun`]
    /// index, in order) into the full JSONL line sequence, matrix order.
    ///
    /// [`rerun`]: ResumePlan::rerun
    ///
    /// # Panics
    ///
    /// Panics if `fresh.len() != self.rerun.len()`.
    pub fn merge(&self, fresh: &[CellOutcome]) -> Vec<String> {
        assert_eq!(
            fresh.len(),
            self.rerun.len(),
            "one fresh outcome per re-run cell"
        );
        let by_index: HashMap<usize, &CellOutcome> =
            self.rerun.iter().copied().zip(fresh.iter()).collect();
        self.kept
            .iter()
            .enumerate()
            .map(|(i, kept)| match kept {
                Some(line) => line.clone(),
                None => by_index[&i].to_json_line(),
            })
            .collect()
    }
}

/// Validates checkpoint `text` against the matrix `cells` and plans the
/// continuation.
///
/// # Errors
///
/// Returns a message naming the first offending line for: a malformed
/// non-final line (interleaved garbage), a record whose cell is not in
/// the matrix, a second record for an already-seen cell, or a record
/// whose `cores`/`warmup`/`measure` disagree with the matrix.
pub fn plan_resume(cells: &[CellSpec], text: &str) -> Result<ResumePlan, String> {
    let index: HashMap<(&str, &str, u64), usize> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| ((c.workload.as_str(), c.kind.name(), c.seed), i))
        .collect();
    let mut kept: Vec<Option<String>> = vec![None; cells.len()];
    let mut seen = vec![false; cells.len()];
    let mut recovered_truncation = false;
    let lines: Vec<&str> = text.lines().collect();
    for (n, line) in lines.iter().enumerate() {
        let lineno = n + 1;
        let Some(outcome) = CellOutcome::from_json_line(line) else {
            if n + 1 == lines.len() {
                // A cut-off tail is the expected shape of a killed run:
                // drop it, its cell simply re-runs.
                recovered_truncation = true;
                break;
            }
            return Err(format!(
                "line {lineno}: malformed record before end of file (interleaved garbage?)"
            ));
        };
        let rec = outcome.cell();
        let (workload, directory) = (&rec.workload, rec.kind.name());
        let Some(&i) = index.get(&(workload.as_str(), directory, rec.seed)) else {
            return Err(format!(
                "line {lineno}: cell `{workload}` × `{directory}` × seed {} is not in the sweep matrix",
                rec.seed
            ));
        };
        if seen[i] {
            return Err(format!(
                "line {lineno}: duplicate record for cell `{workload}` × `{directory}` × seed {}",
                rec.seed
            ));
        }
        seen[i] = true;
        let c = &cells[i];
        if (rec.cores, rec.warmup, rec.measure) != (c.cores, c.warmup, c.measure) {
            return Err(format!(
                "line {lineno}: cell `{workload}` parameter mismatch: file has \
                 cores={} warmup={} measure={}, matrix has cores={} warmup={} measure={}",
                rec.cores, rec.warmup, rec.measure, c.cores, c.warmup, c.measure
            ));
        }
        // Success records are kept verbatim; failure records re-run.
        if outcome.is_done() {
            kept[i] = Some((*line).to_string());
        }
    }
    let rerun = (0..cells.len()).filter(|&i| kept[i].is_none()).collect();
    Ok(ResumePlan {
        kept,
        rerun,
        recovered_truncation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_matrix, SweepMatrix, SweepOptions};
    use crate::{Access, AccessStream, DirectoryKind};
    use secdir_mem::json::write_lines;
    use secdir_mem::LineAddr;

    fn factory(cell: &CellSpec) -> Vec<Box<dyn AccessStream + 'static>> {
        (0..cell.cores)
            .map(|c| {
                let base = (c as u64 + 1) << 20;
                let seed = cell.seed;
                Box::new((0..10_000u64).map(move |i| {
                    Access::read(LineAddr::new(base + (i.wrapping_mul(seed | 1) % 512)))
                })) as Box<dyn AccessStream>
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

    fn full_output(cells: &[CellSpec]) -> String {
        let outcomes = run_matrix(cells, &factory, &SweepOptions::new(2));
        let mut buf = Vec::new();
        write_lines(&mut buf, outcomes.iter().map(CellOutcome::to_json_line)).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn complete_checkpoint_keeps_everything() {
        let cells = matrix().cells();
        let text = full_output(&cells);
        let plan = plan_resume(&cells, &text).unwrap();
        assert!(plan.is_complete());
        assert!(!plan.recovered_truncation);
        assert!(plan.kept.iter().all(Option::is_some));
    }

    #[test]
    fn truncated_tail_is_recovered() {
        let cells = matrix().cells();
        let text = full_output(&cells);
        // Keep three complete lines and half of the fourth.
        let lines: Vec<&str> = text.lines().collect();
        let half = &lines[3][..lines[3].len() / 2];
        let cut = format!("{}\n{}\n{}\n{half}", lines[0], lines[1], lines[2]);
        let plan = plan_resume(&cells, &cut).unwrap();
        assert!(plan.recovered_truncation);
        assert_eq!(plan.rerun, (3..cells.len()).collect::<Vec<_>>());
        assert!(plan.kept[..3].iter().all(Option::is_some));
    }

    #[test]
    fn interleaved_garbage_is_a_hard_error() {
        let cells = matrix().cells();
        let text = full_output(&cells);
        let lines: Vec<&str> = text.lines().collect();
        let garbled = format!("{}\nnot json at all\n{}\n", lines[0], lines[1]);
        let err = plan_resume(&cells, &garbled).unwrap_err();
        assert!(err.contains("line 2"), "err={err}");
        assert!(err.contains("malformed"), "err={err}");
    }

    #[test]
    fn duplicate_cell_is_a_hard_error() {
        let cells = matrix().cells();
        let text = full_output(&cells);
        let first = text.lines().next().unwrap();
        let doubled = format!("{first}\n{first}\n");
        let err = plan_resume(&cells, &doubled).unwrap_err();
        assert!(err.contains("line 2"), "err={err}");
        assert!(err.contains("duplicate"), "err={err}");
    }

    /// The first record of a full run, with `from` replaced by `to` once.
    fn edited_first_line(cells: &[CellSpec], from: &str, to: &str) -> String {
        let text = full_output(cells);
        let first = text.lines().next().unwrap();
        assert!(first.contains(from), "fixture needs {from:?}");
        format!("{}\n", first.replacen(from, to, 1))
    }

    #[test]
    fn unknown_cell_is_a_hard_error() {
        let cells = matrix().cells();
        let stray = edited_first_line(&cells, "\"workload\":\"a\"", "\"workload\":\"zzz\"");
        let err = plan_resume(&cells, &stray).unwrap_err();
        assert!(err.contains("not in the sweep matrix"), "err={err}");
    }

    #[test]
    fn parameter_mismatch_is_a_hard_error() {
        let cells = matrix().cells();
        let wrong = edited_first_line(&cells, "\"measure\":200", "\"measure\":999");
        let err = plan_resume(&cells, &wrong).unwrap_err();
        assert!(err.contains("parameter mismatch"), "err={err}");
    }

    #[test]
    fn quoted_workload_name_round_trips() {
        let cells = SweepMatrix {
            workloads: vec!["a\"b".into()],
            ..matrix()
        }
        .cells();
        let plan = plan_resume(&cells, &full_output(&cells)).unwrap();
        assert!(plan.is_complete());
        assert!(!plan.recovered_truncation);
    }

    #[test]
    fn failure_records_are_rerun() {
        let cells = matrix().cells();
        let failed = "{\"status\":\"panicked\",\"workload\":\"a\",\
                      \"directory\":\"baseline\",\"seed\":1,\"cores\":2,\
                      \"warmup\":50,\"measure\":200,\"msg\":\"boom\"}\n";
        let plan = plan_resume(&cells, failed).unwrap();
        assert_eq!(plan.rerun, (0..cells.len()).collect::<Vec<_>>());
        assert!(plan.kept.iter().all(Option::is_none));
    }

    #[test]
    fn msg_embedding_json_shaped_text_parses_to_the_real_cell() {
        let cells = matrix().cells();
        // The panic message embeds a full fake identity — quotes, braces,
        // a different workload, and `"seed":999`. The raw-substring parser
        // this replaced would have matched the fake fields; the top-level
        // scanner must see only the real ones.
        let msg = "boom: {\\\"workload\\\":\\\"zzz\\\",\\\"seed\\\":999} \
                   \\\"measure\\\":7 unbalanced {{{ [";
        let failed = format!(
            "{{\"status\":\"panicked\",\"workload\":\"a\",\
             \"directory\":\"baseline\",\"seed\":1,\"cores\":2,\
             \"warmup\":50,\"measure\":200,\"msg\":\"{msg}\"}}\n"
        );
        let plan = plan_resume(&cells, &failed).unwrap();
        assert!(!plan.recovered_truncation, "record is complete, not a tail");
        assert_eq!(plan.rerun, (0..cells.len()).collect::<Vec<_>>());
    }

    #[test]
    fn braces_inside_strings_do_not_break_completeness() {
        // Legit record whose msg holds unbalanced brackets: the old
        // char-count balance check would have called this truncated.
        let line = "{\"status\":\"panicked\",\"workload\":\"a\",\
                    \"directory\":\"baseline\",\"seed\":1,\"cores\":2,\
                    \"warmup\":50,\"measure\":200,\"msg\":\"} ] } {\"}";
        let cells = matrix().cells();
        let doubled = format!("{line}\n{line}\n");
        // Both lines parse (to the same cell) — proven by the *duplicate*
        // error, which only fires for two successfully parsed records.
        let err = plan_resume(&cells, &doubled).unwrap_err();
        assert!(err.contains("duplicate"), "err={err}");
    }

    #[test]
    fn identity_fields_inside_nested_objects_do_not_count() {
        // All identity fields hidden one level down: not a valid record.
        let nested = "{\"wrap\":{\"workload\":\"a\",\"directory\":\"baseline\",\
                      \"seed\":1,\"cores\":2,\"warmup\":50,\"measure\":200}}";
        let cells = matrix().cells();
        let text = format!("{nested}\nx\n");
        // Line 1 must be rejected as malformed (it is complete JSON but
        // lacks top-level identity), not matched to a cell.
        let err = plan_resume(&cells, &text).unwrap_err();
        assert!(err.contains("line 1"), "err={err}");
    }

    #[test]
    fn truncations_and_trailing_garbage_are_not_records() {
        let cells = matrix().cells();
        let text = full_output(&cells);
        let whole = text.lines().next().unwrap();
        assert!(CellOutcome::from_json_line(whole).is_some());
        for cut in 1..whole.len() {
            assert!(
                CellOutcome::from_json_line(&whole[..cut]).is_none(),
                "prefix of length {cut} must not parse"
            );
        }
        assert!(CellOutcome::from_json_line(&format!("{whole}junk")).is_none());
        assert!(CellOutcome::from_json_line(&format!("{whole}{{}}")).is_none());
    }

    #[test]
    fn non_canonical_kept_record_is_malformed() {
        // The same content spelled any other way than the writer spells
        // it is not a record: corruption mid-file, a torn tail at the end.
        let cells = matrix().cells();
        let text = full_output(&cells);
        let lines: Vec<&str> = text.lines().collect();
        let line = lines[0];
        let swapped = line.replacen(
            "\"workload\":\"a\",\"directory\":\"baseline\"",
            "\"directory\":\"baseline\",\"workload\":\"a\"",
            1,
        );
        let spaced = line.replacen("\"seed\":", "\"seed\": ", 1);
        for bad in [spaced, swapped] {
            assert_ne!(bad, line);
            let mid = format!("{bad}\n{}\n", lines[1]);
            let err = plan_resume(&cells, &mid).unwrap_err();
            assert!(
                err.contains("line 1") && err.contains("malformed"),
                "err={err}"
            );
            let tail = format!("{}\n{bad}\n", lines[1]);
            let plan = plan_resume(&cells, &tail).unwrap();
            assert!(plan.recovered_truncation, "{bad:?}");
            assert!(plan.kept[0].is_none() && plan.kept[1].is_some());
        }
    }

    #[test]
    fn merge_reconstructs_the_full_output() {
        let cells = matrix().cells();
        let text = full_output(&cells);
        let lines: Vec<&str> = text.lines().collect();
        // Simulate a run killed after two cells.
        let partial = format!("{}\n{}\n", lines[0], lines[1]);
        let plan = plan_resume(&cells, &partial).unwrap();
        assert_eq!(plan.rerun, (2..cells.len()).collect::<Vec<_>>());
        let fresh: Vec<CellOutcome> = plan
            .rerun
            .iter()
            .map(|&i| run_matrix(&cells[i..=i], &factory, &SweepOptions::new(1)).remove(0))
            .collect();
        let merged = plan.merge(&fresh).join("\n") + "\n";
        assert_eq!(merged, text, "resumed output must be byte-identical");
    }
}
