//! End-to-end properties of `secdir_machine::serve`: journal
//! byte-stability across worker counts, SIGKILL-at-any-point resume,
//! tenant isolation (panics and quarantines contained), and the fault
//! injection matrix run through the server path.
#![allow(clippy::expect_used, reason = "a test fails by panicking")]

use secdir_machine::serve::{
    decode_journal, run_serve, uniform_streams, JournalFormat, ServeConfig, ServeReport,
    TenantSpec, TenantStatus,
};
use secdir_machine::{Access, AccessStream, DirectoryKind, FaultKind, FaultPlan};
use secdir_mem::{CoreId, LineAddr};

fn tenant(name: &str, kind: DirectoryKind, seed: u64, cores: usize, refs: u64) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        workload: "uniform".to_string(),
        kind,
        seed,
        cores,
        refs,
        fault: None,
    }
}

fn run_raw(cfg: &ServeConfig, checkpoint: &[u8]) -> (Vec<u8>, ServeReport) {
    let mut sink = Vec::new();
    let report =
        run_serve(cfg, &uniform_streams, checkpoint, &mut sink).expect("serve run should succeed");
    (sink, report)
}

fn run(cfg: &ServeConfig, checkpoint: &str) -> (String, ServeReport) {
    assert_eq!(cfg.format, JournalFormat::Jsonl);
    let (sink, report) = run_raw(cfg, checkpoint.as_bytes());
    (String::from_utf8(sink).expect("journal is utf-8"), report)
}

/// One tenant per directory kind, pool smaller than the tenant count so
/// the waiting room is exercised.
fn seven_kind_config(workers: usize) -> ServeConfig {
    let tenants = DirectoryKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| tenant(&format!("t{i}"), kind, 0x5eed + i as u64, 2, 1500))
        .collect();
    let mut cfg = ServeConfig::new(tenants);
    cfg.pool = 4;
    cfg.queue_cap = 16;
    cfg.global_cap = 96;
    cfg.checkpoint_interval = 500;
    cfg.workers = workers;
    cfg
}

/// The seven-kind config with a pool as large as the tenant count: every
/// tenant is live from tick 0, so every drain participant's chunk holds
/// live machines at once.
fn seven_kind_full_pool_config(workers: usize) -> ServeConfig {
    let mut cfg = seven_kind_config(workers);
    cfg.pool = cfg.tenants.len();
    // Room for every live queue, so no tenant starves into an idle
    // eviction behind the lower indices' ingest priority.
    cfg.global_cap = (cfg.pool * 2 * cfg.queue_cap) as u64;
    cfg
}

/// Worker counts 1, 2, 3, 4 and 8 — three splits the tenants unevenly,
/// and eight is more than the seven tenants and the pool of four, so the
/// participant clamp runs too. The full-pool config keeps every chunk
/// live at once.
#[test]
fn journal_is_byte_identical_across_worker_counts() {
    for config in [seven_kind_config, seven_kind_full_pool_config] {
        let (j1, r1) = run(&config(1), "");
        assert!(r1.all_done(), "quick matrix should drain cleanly");
        for workers in [2, 3, 4, 8] {
            let (jn, rn) = run(&config(workers), "");
            assert_eq!(j1, jn, "worker count {workers} leaked into the journal");
            for (a, b) in r1.outcomes.iter().zip(&rn.outcomes) {
                assert_eq!(a.record, b.record);
                assert_eq!(a.cycles, b.cycles);
            }
        }
    }
}

#[test]
fn resume_replays_byte_identically_from_scattered_cuts() {
    let (full, _) = run(&seven_kind_config(1), "");
    assert!(full.len() > 500);
    // Cut every 97 bytes (char-boundary-safe: the journal is ASCII) and
    // at every line boundary; resume at the other worker count.
    let mut cuts: Vec<usize> = (0..full.len()).step_by(97).collect();
    cuts.extend(
        full.bytes()
            .enumerate()
            .filter(|&(_, b)| b == b'\n')
            .map(|(i, _)| i + 1),
    );
    for cut in cuts {
        let (resumed, report) = run(&seven_kind_config(4), &full[..cut]);
        assert_eq!(resumed, full, "divergence after cut at byte {cut}");
        assert!(report.all_done());
    }
}

#[test]
fn faulty_tenant_is_quarantined_without_touching_neighbours() {
    let mk = |faulty: bool| {
        let mut tenants = vec![
            tenant("alice", DirectoryKind::SecDir, 11, 2, 1200),
            tenant("mallory", DirectoryKind::Baseline, 22, 4, 4000),
            tenant("carol", DirectoryKind::SecDir, 33, 2, 1200),
        ];
        if faulty {
            tenants[1].fault = Some(FaultPlan {
                kind: FaultKind::DropInvalidation,
                trigger: 600,
                core: CoreId(1),
            });
        }
        let mut cfg = ServeConfig::new(tenants);
        cfg.pool = 3;
        // Generous shared budget: neighbours' schedules must not depend
        // on mallory's fate.
        cfg.global_cap = 1 << 20;
        cfg.workers = 2;
        cfg
    };
    let (_, clean) = run(&mk(false), "");
    let (_, faulty) = run(&mk(true), "");
    assert_eq!(faulty.outcomes[1].status, TenantStatus::Quarantined);
    assert!(faulty.outcomes[1].fired_at.is_some());
    assert!(!faulty.outcomes[1].detail.is_empty());
    for i in [0usize, 2] {
        assert_eq!(clean.outcomes[i].status, TenantStatus::Done);
        assert_eq!(
            clean.outcomes[i].record, faulty.outcomes[i].record,
            "neighbour {i} affected by mallory's quarantine"
        );
    }
}

#[test]
fn inject_matrix_through_the_server_quarantines_all_pairs() {
    let mut tenants = Vec::new();
    for kind in DirectoryKind::ALL {
        for fault in FaultKind::ALL {
            if fault.applicable_to(kind) {
                tenants.push(TenantSpec {
                    name: format!("{}+{}", kind.name(), fault.name()),
                    workload: "uniform".to_string(),
                    kind,
                    seed: 0xfa17 ^ tenants.len() as u64,
                    cores: 4,
                    refs: 6000,
                    fault: Some(FaultPlan {
                        kind: fault,
                        trigger: 600,
                        core: CoreId(1),
                    }),
                });
            }
        }
    }
    assert_eq!(tenants.len(), 17, "applicability matrix changed");
    let mut cfg = ServeConfig::new(tenants);
    cfg.pool = 17;
    cfg.global_cap = 1 << 20;
    cfg.queue_cap = 32;
    cfg.ingest = 16;
    cfg.drain = 8;
    cfg.workers = 4;
    let (journal, report) = run(&cfg, "");
    // The oracle's texts, journaled as each quarantine's detail; the same
    // in the debug and release profiles. Way-partitioned × flip-sharer-bit
    // at this seed is caught by the audit, not the engine's panic.
    let expected = [
        (
            "baseline+drop-invalidation",
            "SWMR violation: core 1 holds 0x131 in E while core 3 holds it in M",
        ),
        (
            "baseline+skip-quirk-invalidation",
            "core2 holds 0x2a6 (M) but directory entry Td { sharers: SharerSet{}, has_data: true } \
             does not list it",
        ),
        (
            "baseline+flip-sharer-bit",
            "slice 3: ED entry 0x1c0 tracks no sharers",
        ),
        (
            "baseline-fixed+drop-invalidation",
            "SWMR violation: core 0 holds 0xdf8 in E while core 2 holds it in M",
        ),
        (
            "baseline-fixed+flip-sharer-bit",
            "slice 2: ED entry 0x800 tracks no sharers",
        ),
        (
            "secdir+drop-invalidation",
            "SWMR violation: core 0 holds 0xde3 in E while core 3 holds it in M",
        ),
        (
            "secdir+leak-vd-on-consolidate",
            "slice 2: line 0xc00 has a live ED entry but also VD entries (cores SharerSet{1})",
        ),
        (
            "secdir+flip-sharer-bit",
            "slice 3: ED entry 0x700 tracks no sharers",
        ),
        (
            "secdir-plain-vd+drop-invalidation",
            "SWMR violation: core 1 holds 0x8be in M while core 3 holds it in M",
        ),
        (
            "secdir-plain-vd+leak-vd-on-consolidate",
            "slice 2: line 0xc00 has a live ED entry but also VD entries (cores SharerSet{1})",
        ),
        (
            "secdir-plain-vd+flip-sharer-bit",
            "slice 2: ED entry 0xd40 tracks no sharers",
        ),
        (
            "way-partitioned+drop-invalidation",
            "SWMR violation: core 0 holds 0x43c in M while core 2 holds it in E",
        ),
        (
            "way-partitioned+flip-sharer-bit",
            "slice 3: partition 1: ED entry 0x840 tracks no sharers",
        ),
        (
            "vd-only+drop-invalidation",
            "SWMR violation: core 1 holds 0xfb3 in E while core 2 holds it in M",
        ),
        (
            "vd-only+flip-sharer-bit",
            "core1 holds 0x580 (E) but slice2 has no directory entry",
        ),
        (
            "vd-only-plain+drop-invalidation",
            "SWMR violation: core 0 holds 0x5e0 in M while core 2 holds it in E",
        ),
        (
            "vd-only-plain+flip-sharer-bit",
            "core1 holds 0x700 (E) but slice3 has no directory entry",
        ),
    ];
    let got: Vec<(&str, &str)> = report
        .outcomes
        .iter()
        .map(|o| (o.name.as_str(), o.detail.as_str()))
        .collect();
    assert_eq!(got, expected);
    for outcome in &report.outcomes {
        // Detection must be attributed to the armed tenant itself — as a
        // quarantine, never a crash. That holds whichever layer trips
        // first: the online audit, the engine's defensive panics, or (under
        // the `check` feature) the in-access oracle; panics out of a
        // fired-fault machine are reclassified as detections.
        assert_eq!(
            outcome.status,
            TenantStatus::Quarantined,
            "tenant `{}` ended {:?}, not quarantined: {}",
            outcome.name,
            outcome.status,
            outcome.detail
        );
        assert!(outcome.fired_at.is_some(), "`{}` never fired", outcome.name);
        assert!(journal.contains(&outcome.record));
    }
}

/// A stream that delivers a few accesses, then panics — a hostile
/// tenant workload.
struct Bomb {
    left: u32,
}

impl Iterator for Bomb {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        assert!(self.left > 0, "bomb stream detonated");
        self.left -= 1;
        Some(Access::read(LineAddr::new(u64::from(self.left))))
    }
}

#[test]
fn panicking_tenant_is_contained_and_neighbours_drain() {
    let factory = |spec: &TenantSpec| -> Vec<Box<dyn AccessStream + 'static>> {
        if spec.workload == "bomb" {
            (0..spec.cores)
                .map(|_| Box::new(Bomb { left: 40 }) as Box<dyn AccessStream>)
                .collect()
        } else {
            uniform_streams(spec)
        }
    };
    let mut bomb = tenant("bomb", DirectoryKind::SecDir, 7, 2, 5000);
    bomb.workload = "bomb".to_string();
    let tenants = vec![
        tenant("left", DirectoryKind::Baseline, 1, 2, 800),
        bomb,
        tenant("right", DirectoryKind::SecDir, 2, 2, 800),
    ];
    let mut cfg = ServeConfig::new(tenants);
    cfg.pool = 3;
    cfg.global_cap = 1 << 20;
    cfg.workers = 2;
    let mut sink = Vec::new();
    let report =
        run_serve(&cfg, &factory, b"", &mut sink).expect("serve run should survive the bomb");
    let journal = String::from_utf8(sink).expect("journal is utf-8");
    assert_eq!(report.outcomes[1].status, TenantStatus::Panicked);
    assert!(
        report.outcomes[1].detail.contains("bomb stream detonated"),
        "panic message lost: {:?}",
        report.outcomes[1].detail
    );
    assert!(journal.contains("\"status\":\"panicked\""));
    assert_eq!(report.outcomes[0].status, TenantStatus::Done);
    assert_eq!(report.outcomes[2].status, TenantStatus::Done);
}

#[test]
fn overflow_tenants_are_shed_and_waiters_eventually_served() {
    let tenants = (0..6)
        .map(|i| tenant(&format!("t{i}"), DirectoryKind::SecDir, i as u64, 1, 300))
        .collect();
    let mut cfg = ServeConfig::new(tenants);
    cfg.pool = 2;
    cfg.max_waiting = 1;
    let (journal, report) = run(&cfg, "");
    for i in 0..3 {
        assert_eq!(report.outcomes[i].status, TenantStatus::Done, "tenant {i}");
    }
    for i in 3..6 {
        assert_eq!(report.outcomes[i].status, TenantStatus::Shed, "tenant {i}");
        assert_eq!(report.outcomes[i].tick, 0);
    }
    assert_eq!(journal.matches("\"status\":\"shed\"").count(), 3);
}

fn seven_kind_binary_config(workers: usize) -> ServeConfig {
    let mut cfg = seven_kind_config(workers);
    cfg.format = JournalFormat::Binary;
    cfg
}

#[test]
fn binary_journal_is_byte_identical_across_worker_counts() {
    let (b1, r1) = run_raw(&seven_kind_binary_config(1), b"");
    assert!(r1.all_done());
    assert_eq!(r1.journal_bytes, b1.len() as u64);
    for workers in [2, 3, 4, 8] {
        let (bn, rn) = run_raw(&seven_kind_binary_config(workers), b"");
        assert_eq!(
            b1, bn,
            "worker count {workers} leaked into the binary journal"
        );
        for (a, b) in r1.outcomes.iter().zip(&rn.outcomes) {
            assert_eq!(a.record, b.record);
            assert_eq!(a.cycles, b.cycles);
        }
    }
}

/// `decode` must reproduce the text journal byte for byte: the matrix
/// covers all seven directory kinds (via `seven_kind_config`) at both
/// worker counts, which is exactly the CLI `decode | cmp` contract.
#[test]
fn decode_matches_jsonl_run_for_every_kind_and_worker_count() {
    for workers in [1usize, 4] {
        let (text, _) = run(&seven_kind_config(workers), "");
        let (bin, _) = run_raw(&seven_kind_binary_config(workers), b"");
        let decoded = decode_journal(&bin).expect("clean binary journal decodes");
        assert!(!decoded.torn, "clean journal reported a torn tail");
        let mut rendered = String::new();
        for line in &decoded.lines {
            rendered.push_str(line);
            rendered.push('\n');
        }
        assert_eq!(
            rendered, text,
            "decode diverged from the jsonl run at {workers} workers"
        );
    }
}

/// SIGKILL-at-any-frame-boundary-or-mid-frame resume for the binary
/// format: a cut mid-frame is forgiven as a torn tail, a cut at a frame
/// boundary resumes exactly, and the re-encoded journal is always
/// byte-identical to the uninterrupted run — at the other worker count.
#[test]
fn binary_resume_replays_byte_identically_from_scattered_cuts() {
    let (full, _) = run_raw(&seven_kind_binary_config(1), b"");
    assert!(full.len() > 500);
    for cut in (0..full.len()).step_by(97).chain([full.len()]) {
        let (resumed, report) = run_raw(&seven_kind_binary_config(4), &full[..cut]);
        assert_eq!(resumed, full, "divergence after binary cut at byte {cut}");
        assert!(report.all_done());
    }
}

#[test]
fn idle_eviction_fires_deterministically() {
    let tenants = (0..3)
        .map(|i| {
            tenant(
                &format!("t{i}"),
                DirectoryKind::Baseline,
                100 + i as u64,
                1,
                50_000,
            )
        })
        .collect();
    let mut cfg = ServeConfig::new(tenants);
    cfg.pool = 3;
    // Gaps (up to 9 ticks) regularly exceed the timeout.
    cfg.idle_timeout = 3;
    cfg.burst_off_max = 9;
    let (j1, r1) = run(&cfg, "");
    let (j2, _) = run(&cfg, "");
    assert_eq!(j1, j2);
    assert!(
        r1.count(TenantStatus::Idle) >= 1,
        "expected at least one idle eviction, got {:?}",
        r1.outcomes.iter().map(|o| o.status).collect::<Vec<_>>()
    );
}

/// The shortest prefix of `journal` whose complete records include
/// `line` (a record's JSONL rendering).
fn cut_after(journal: &[u8], format: JournalFormat, line: &str) -> usize {
    let want = format!("{line}\n");
    (0..=journal.len())
        .find(|&cut| match format {
            JournalFormat::Jsonl => journal[..cut].ends_with(want.as_bytes()),
            JournalFormat::Binary => decode_journal(&journal[..cut])
                .is_ok_and(|d| d.lines.last().is_some_and(|l| l == line)),
        })
        .expect("the journal holds the record")
}

/// A resumed run reports exactly what the uninterrupted one did, also
/// for a tenant whose fault ended it early and whose terminal survived
/// the cut: its splice must carry the kept `detail`, counters and
/// `fired_at` into the report, in both formats.
#[test]
fn resumed_outcomes_equal_fresh_ones_when_a_fault_terminal_survives() {
    for format in JournalFormat::ALL {
        let mut mallory = tenant("mallory", DirectoryKind::Baseline, 22, 4, 4000);
        mallory.fault = Some(FaultPlan {
            kind: FaultKind::DropInvalidation,
            trigger: 600,
            core: CoreId(1),
        });
        let tenants = vec![
            tenant("alice", DirectoryKind::SecDir, 11, 2, 1200),
            mallory,
            tenant("carol", DirectoryKind::SecDir, 33, 2, 1200),
        ];
        let mut cfg = ServeConfig::new(tenants);
        cfg.pool = 3;
        cfg.format = format;
        let (full, fresh) = run_raw(&cfg, b"");
        let early = &fresh.outcomes[1];
        assert_eq!(early.status, TenantStatus::Quarantined);
        assert!(!early.detail.is_empty() && early.fired_at.is_some());
        let cut = cut_after(&full, format, &early.record);
        assert!(cut < full.len(), "the cut must leave the neighbours live");
        let (resumed, report) = run_raw(&cfg, &full[..cut]);
        assert_eq!(resumed, full, "{} journal diverged", format.name());
        assert_eq!(report.outcomes, fresh.outcomes, "{} report", format.name());
    }
}

/// A tenant whose machine panics in the middle of a drain batch records
/// the exact count it retired; its ghost replays whole batches. Resuming
/// the complete journal must accept that record and reproduce the run.
#[test]
fn complete_journal_with_a_mid_drain_panic_resumes_byte_identically() {
    for format in JournalFormat::ALL {
        let mut victim = tenant("victim", DirectoryKind::WayPartitioned, 24301 ^ 12, 4, 6000);
        victim.fault = Some(FaultPlan {
            kind: FaultKind::FlipSharerBit,
            trigger: 600,
            core: CoreId(1),
        });
        let mut cfg = ServeConfig::new(vec![victim]);
        cfg.format = format;
        let (full, fresh) = run_raw(&cfg, b"");
        let outcome = &fresh.outcomes[0];
        assert!(
            outcome.detail.contains("protocol invariant violated"),
            "expected a mid-drain engine panic, got {:?}: {}",
            outcome.status,
            outcome.detail
        );
        let (resumed, report) = run_raw(&cfg, &full);
        assert_eq!(resumed, full, "{} journal diverged", format.name());
        assert_eq!(report.outcomes, fresh.outcomes, "{} report", format.name());
    }
}
