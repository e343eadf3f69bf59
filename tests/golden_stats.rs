//! Golden-stats regression suite: two fixed SplitMix64-seeded workloads
//! run on every [`DirectoryKind`], serially and on the sliced engine, and
//! the **full** serialized [`MachineStats`] (per-core counters, merged
//! [`DirSliceStats`], invalidation causes, memory write-backs) must match
//! the committed snapshots under `tests/golden/` byte for byte.
//!
//! The two workloads cover different paths:
//!
//! * **fits** (`<kind>.json`, `sliced-<kind>.json`): 1,024 shared lines.
//!   They fit every L2 and every directory array, so this workload pins
//!   the hit paths (ED/TD/VD hits, upgrades, coherence invalidations,
//!   write-backs of dirty copies) but never a directory conflict. Its
//!   serial snapshots leave the `directory` block zeroed.
//! * **conflict** (`conflict-<kind>.json`, `sliced-conflict-<kind>.json`):
//!   half the accesses go to 2,048 shared lines, half to a 16,384-line
//!   private region per core. This overflows the L2s and both directory
//!   arrays, so it pins the conflict paths: TD discards (Figure 3 ②), the
//!   Appendix-A quirk, TD→VD and VD→TD migrations (③, ④) and VD
//!   self-conflicts (⑤). Both of its snapshots fold in the merged
//!   directory counters, and [`conflict_snapshots_tell_the_kinds_apart`]
//!   checks that they differ where the designs differ.
//!
//! This is the safety net for storage-layout and probe-path refactors: any
//! change that alters a single counter — an extra replacement touch, a
//! reordered RNG draw, a dropped invalidation — shows up as a snapshot
//! diff. Regenerate deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_stats
//! ```
//!
//! and review the diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use secdir_machine::{
    run_workload_sliced_with, Access, AccessStream, DirectoryKind, Machine, MachineConfig,
    MachineStats, SlicedOptions,
};
use secdir_mem::{CoreId, LineAddr, SplitMix64};

/// Fixed workload parameters — changing any of these invalidates every
/// snapshot, so they are named constants rather than inline literals.
const SEED: u64 = 0x601d_57a7;
const ACCESSES: usize = 12_000;
const CORES: usize = 4;
const LINES: u64 = 1024;
const WRITE_FRACTION: f64 = 0.3;
/// The conflict workload's shared set and per-core private region.
const SHARED_LINES: u64 = 2048;
const PRIVATE_LINES: u64 = 16_384;

/// Which fixed workload a snapshot records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// Uniform over [`LINES`] shared lines: no directory conflicts.
    Fits,
    /// Half shared, half private per core: overflows L2s, ED and TD.
    Conflict,
}

impl Workload {
    /// The line `core`'s next access touches.
    fn line(self, rng: &mut SplitMix64, core: usize) -> LineAddr {
        match self {
            Workload::Fits => LineAddr::new(rng.next_below(LINES)),
            Workload::Conflict => {
                if rng.chance(0.5) {
                    LineAddr::new(rng.next_below(SHARED_LINES))
                } else {
                    LineAddr::new(1 << 20 | (core as u64) << 16 | rng.next_below(PRIVATE_LINES))
                }
            }
        }
    }

    /// The snapshot file name prefix.
    fn prefix(self) -> &'static str {
        match self {
            Workload::Fits => "",
            Workload::Conflict => "conflict-",
        }
    }
}

/// Drives `workload` on a fresh small machine of the given kind.
fn run(kind: DirectoryKind, workload: Workload) -> MachineStats {
    let mut machine = Machine::new(MachineConfig::small(CORES, kind));
    let mut rng = SplitMix64::new(SEED);
    for _ in 0..ACCESSES {
        let core = rng.next_below(CORES as u64) as usize;
        let line = workload.line(&mut rng, core);
        let write = rng.chance(WRITE_FRACTION);
        machine.access(CoreId(core), line, write);
    }
    machine.verify().unwrap();
    let mut stats = machine.stats().clone();
    // The fits snapshots were recorded with the directory block zeroed and
    // keep it so; the conflict snapshots pin the merged counters.
    if workload == Workload::Conflict {
        stats.directory = machine.directory_stats();
    }
    stats
}

/// Serializes the full stats with a fixed field order (the `compat/serde`
/// shim has no real serializer, so snapshots are hand-rolled like every
/// other JSON artifact in this repo).
fn to_json(stats: &MachineStats) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"cores\": [\n");
    for (i, c) in stats.cores.iter().enumerate() {
        let fields: [(&str, u64); 13] = [
            ("accesses", c.accesses),
            ("reads", c.reads),
            ("writes", c.writes),
            ("l1_hits", c.l1_hits),
            ("l2_hits", c.l2_hits),
            ("l2_misses", c.l2_misses),
            ("ed_td_hits", c.ed_td_hits),
            ("vd_hits", c.vd_hits),
            ("memory_accesses", c.memory_accesses),
            ("upgrades", c.upgrades),
            ("inclusion_victims", c.inclusion_victims),
            ("invalidation_writebacks", c.invalidation_writebacks),
            ("l2_writebacks", c.l2_writebacks),
        ];
        out.push_str("    {");
        for (j, (name, value)) in fields.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {value}").unwrap();
        }
        out.push_str(if i + 1 < stats.cores.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ],\n  \"directory\": {\n");
    let d = &stats.directory;
    let dir_fields: [(&str, u64); 19] = [
        ("requests", d.requests),
        ("ed_hits", d.ed_hits),
        ("td_hits", d.td_hits),
        ("vd_hits", d.vd_hits),
        ("misses", d.misses),
        ("td_conflict_discards", d.td_conflict_discards),
        ("td_to_vd_migrations", d.td_to_vd_migrations),
        ("vd_to_td_migrations", d.vd_to_td_migrations),
        ("vd_self_conflicts", d.vd_self_conflicts),
        ("vd_inserts", d.vd_inserts),
        ("cuckoo_relocations", d.cuckoo_relocations),
        ("ed_to_td_migrations", d.ed_to_td_migrations),
        ("td_to_ed_migrations", d.td_to_ed_migrations),
        ("quirk_invalidations", d.quirk_invalidations),
        ("vd_lookups", d.vd_lookups),
        ("vd_bank_probes", d.vd_bank_probes),
        ("vd_bank_probes_without_eb", d.vd_bank_probes_without_eb),
        ("llc_writebacks", d.llc_writebacks),
        ("llc_data_fills", d.llc_data_fills),
    ];
    for (j, (name, value)) in dir_fields.iter().enumerate() {
        let sep = if j + 1 < dir_fields.len() { "," } else { "" };
        writeln!(out, "    \"{name}\": {value}{sep}").unwrap();
    }
    out.push_str("  },\n");
    let [coh, td, quirk, vd] = stats.invalidations_by_cause;
    writeln!(
        out,
        "  \"invalidations_by_cause\": [{coh}, {td}, {quirk}, {vd}],"
    )
    .unwrap();
    writeln!(out, "  \"memory_writebacks\": {}", stats.memory_writebacks).unwrap();
    out.push_str("}\n");
    out
}

/// Drives `workload` as fixed per-core streams on the epoch-synchronized
/// sliced engine and returns the full stats, with the merged directory
/// counters folded in, so a slice-thread refactor that perturbs any
/// directory counter shows up as a snapshot diff.
fn run_sliced(
    kind: DirectoryKind,
    workload: Workload,
    slice_threads: usize,
    options: SlicedOptions,
) -> MachineStats {
    let mut machine = Machine::new(MachineConfig::small(CORES, kind));
    let mut streams: Vec<Box<dyn AccessStream>> = (0..CORES)
        .map(|core| {
            let mut rng = SplitMix64::new(SEED ^ ((core as u64) << 32));
            let accesses: Vec<Access> = (0..ACCESSES / CORES)
                .map(|_| {
                    let line = workload.line(&mut rng, core);
                    if rng.chance(WRITE_FRACTION) {
                        Access::write(line)
                    } else {
                        Access::read(line)
                    }
                })
                .collect();
            Box::new(accesses.into_iter()) as Box<dyn AccessStream>
        })
        .collect();
    run_workload_sliced_with(
        &mut machine,
        &mut streams,
        (ACCESSES / CORES) as u64,
        slice_threads,
        options,
    );
    machine.verify().unwrap();
    let mut stats = machine.stats().clone();
    stats.directory = machine.directory_stats();
    stats
}

fn snapshot_path(name: String) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Compares `actual` with the committed snapshot `name`, or rewrites it
/// under `UPDATE_GOLDEN`. Returns a failure report on a mismatch.
fn check_snapshot(name: String, actual: &str) -> Option<String> {
    let path = snapshot_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return None;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    (actual != expected).then(|| {
        format!(
            "stats diverged from {}\n--- expected\n{expected}\n--- actual\n{actual}",
            path.display()
        )
    })
}

#[test]
fn every_directory_kind_matches_its_snapshot() {
    let mut failures = Vec::new();
    for workload in [Workload::Fits, Workload::Conflict] {
        for &kind in &DirectoryKind::ALL {
            let actual = to_json(&run(kind, workload));
            let name = format!("{}{}", workload.prefix(), kind.name());
            failures.extend(check_snapshot(name, &actual));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The sliced engine pinned by snapshot: each fixed streamed workload runs
/// at 1 and 4 slice threads, both must serialize to the committed
/// `sliced-<workload><kind>.json` byte for byte, and a tuned run
/// (non-default epoch batch, pipelining on) must reproduce the *same*
/// snapshot — the tuning knobs are throughput-only. One test covers the
/// engine's counter stability, its cross-thread-count bit-identity, and
/// its options-invariance.
#[test]
fn every_directory_kind_matches_its_sliced_snapshot() {
    let mut failures = Vec::new();
    for workload in [Workload::Fits, Workload::Conflict] {
        for &kind in &DirectoryKind::ALL {
            let actual = to_json(&run_sliced(kind, workload, 1, SlicedOptions::default()));
            let at4 = to_json(&run_sliced(kind, workload, 4, SlicedOptions::default()));
            assert_eq!(
                actual,
                at4,
                "{} {workload:?}: sliced stats differ between 1 and 4 threads",
                kind.name()
            );
            let tuned = SlicedOptions {
                epoch_batch: 256,
                pipeline: true,
            };
            let tuned_run = to_json(&run_sliced(kind, workload, 2, tuned));
            assert_eq!(
                actual,
                tuned_run,
                "{} {workload:?}: sliced stats differ under epoch_batch=256 + pipelining",
                kind.name()
            );
            let name = format!("sliced-{}{}", workload.prefix(), kind.name());
            failures.extend(check_snapshot(name, &actual));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The conflict workload reaches the transitions that tell the designs
/// apart (paper Figure 3), so its snapshots must differ between any two
/// designs. `secdir` and `secdir-plain-vd` may agree: the VD hashing only
/// matters once a bank self-conflicts.
#[test]
fn conflict_snapshots_tell_the_kinds_apart() {
    let stats = |kind| run(kind, Workload::Conflict);
    let baseline = stats(DirectoryKind::Baseline);
    let fixed = stats(DirectoryKind::BaselineFixed);
    let secdir = stats(DirectoryKind::SecDir);
    let partitioned = stats(DirectoryKind::WayPartitioned);
    let vd_only = stats(DirectoryKind::SecDirVdOnly);

    assert!(baseline.directory.td_conflict_discards > 0);
    assert!(baseline.directory.quirk_invalidations > 0);
    assert_eq!(fixed.directory.quirk_invalidations, 0);
    assert!(secdir.directory.td_to_vd_migrations > 0);
    assert!(secdir.directory.vd_to_td_migrations > 0);
    assert!(secdir.directory.llc_writebacks > 0);
    assert!(partitioned.directory.td_conflict_discards > 0);
    assert!(vd_only.directory.vd_self_conflicts > 0);

    let all = [
        ("baseline", &baseline),
        ("baseline-fixed", &fixed),
        ("secdir", &secdir),
        ("way-partitioned", &partitioned),
        ("vd-only", &vd_only),
    ];
    for (i, (a, sa)) in all.iter().enumerate() {
        for (b, sb) in &all[i + 1..] {
            assert_ne!(to_json(sa), to_json(sb), "{a} and {b} snapshots agree");
        }
    }
}

/// The snapshot workloads themselves must be deterministic, or the golden
/// files would be regeneration-order dependent.
#[test]
fn snapshot_workload_is_deterministic() {
    for workload in [Workload::Fits, Workload::Conflict] {
        for &kind in &[DirectoryKind::Baseline, DirectoryKind::SecDir] {
            assert_eq!(run(kind, workload), run(kind, workload), "{}", kind.name());
        }
    }
}
