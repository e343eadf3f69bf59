//! Proves the steady-state access path performs no heap allocation.
//!
//! The hot path — L1/L2 probe, directory request, invalidation delivery,
//! L2-victim handling — works entirely in preallocated flat arrays and
//! `InlineVec`-backed invalidation lists. This test wraps the global
//! allocator in a counter and drives a warmed-up machine, asserting that
//! the allocation count does not move.
//!
//! `InlineVec` spills to the heap only when a single directory response
//! carries more than 4 invalidations, which none of the kinds hits on
//! this workload (and the assertion would catch it if one did).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use secdir_machine::serve::{
    decode_journal, run_serve, uniform_streams, JournalFormat, ServeConfig, TenantSpec,
};
use secdir_machine::{
    run_workload_sliced_with, Access, AccessStream, DirectoryKind, Machine, MachineConfig,
    SlicedOptions,
};
use secdir_mem::{CoreId, LineAddr, SplitMix64};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One deterministic access; same recipe as the golden-stats workload.
fn step(machine: &mut Machine, rng: &mut SplitMix64) {
    let core = CoreId(rng.next_below(4) as usize);
    let line = LineAddr::new(rng.next_below(1024));
    let write = rng.chance(0.3);
    machine.access(core, line, write);
}

/// Pre-generated per-core streams (4 cores, `len` references each), built
/// entirely *outside* the measured window so stream pulls cannot allocate.
fn sliced_streams(len: usize) -> Vec<Box<dyn AccessStream>> {
    (0..4usize)
        .map(|i| {
            let mut rng = SplitMix64::new(0xa110_c8ed ^ ((i as u64) << 16));
            let accs: Vec<Access> = (0..len)
                .map(|_| Access {
                    line: LineAddr::new(rng.next_below(1024)),
                    write: rng.chance(0.3),
                    gap: rng.next_below(8) as u32,
                })
                .collect();
            Box::new(accs.into_iter()) as Box<dyn AccessStream>
        })
        .collect()
}

/// Total allocations for one whole sliced run of `cap` accesses per core.
fn sliced_run_allocations(
    kind: DirectoryKind,
    cap: u64,
    threads: usize,
    options: SlicedOptions,
) -> u64 {
    let mut machine = Machine::new(MachineConfig::small(4, kind));
    let mut streams = sliced_streams(20_000);
    let before = allocations();
    run_workload_sliced_with(&mut machine, &mut streams, cap, threads, options);
    allocations() - before
}

#[test]
fn steady_state_accesses_do_not_allocate() {
    // One test function (not one per kind): the counter is process-global
    // and concurrent test threads would see each other's allocations.
    for kind in DirectoryKind::ALL {
        let mut machine = Machine::new(MachineConfig::small(4, kind));
        let mut rng = SplitMix64::new(0xa110_c8ed);
        for _ in 0..20_000 {
            step(&mut machine, &mut rng);
        }
        let before = allocations();
        for _ in 0..10_000 {
            step(&mut machine, &mut rng);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta,
            0,
            "{}: {delta} heap allocations in 10k steady-state accesses",
            kind.name()
        );
    }

    // The sliced engine: a run allocates once at start (run state, worker
    // slots, threads) and once at end (the summary) — never per epoch. A
    // 2k-cap run and a 6k-cap run on identical fresh machines differ by
    // hundreds of epochs, so equal allocation totals prove the
    // steady-state epoch loop is allocation-free. Skipped under the
    // `check` feature, where every epoch deliberately reassembles the
    // machine around the invariant oracle.
    if cfg!(feature = "check") {
        eprintln!("skipping sliced alloc check: oracle hook epochs are not alloc-free");
        return;
    }
    for kind in DirectoryKind::ALL {
        let short = sliced_run_allocations(kind, 2_000, 1, SlicedOptions::default());
        let long = sliced_run_allocations(kind, 6_000, 1, SlicedOptions::default());
        assert_eq!(
            short,
            long,
            "{}: one-thread sliced epochs allocate ({short} vs {long} for 3x the epochs)",
            kind.name()
        );
    }
    // Pipelined and multi-thread variants: worker spawns and hand-off
    // slots are per-run setup; the barrier and the slot shuttling must
    // stay alloc-free per epoch.
    for threads in [1, 2] {
        for pipeline in [false, true] {
            let options = SlicedOptions {
                pipeline,
                ..SlicedOptions::default()
            };
            let short = sliced_run_allocations(DirectoryKind::SecDir, 2_000, threads, options);
            let long = sliced_run_allocations(DirectoryKind::SecDir, 6_000, threads, options);
            assert_eq!(
                short, long,
                "sliced epochs allocate ({threads} threads, pipeline {pipeline}: \
                 {short} vs {long})"
            );
        }
    }

    // The serve loop: memory is O(tenants + journal records), never
    // O(accesses). With checkpointing effectively off and a preallocated
    // sink, a run that retires 7/3 times the references must allocate
    // exactly as much as the short one — per-run setup (machines, queues,
    // streams) plus one String per journal record, with the tick loop
    // itself allocation-free. The proof covers both journal encodings:
    // the binary sink reuses one frame buffer across ticks, so the
    // group-commit path must be as refs-independent as the text one. At
    // two workers the drain hands a chunk of tenants to the spawned
    // participant and back every tick, which must not allocate either.
    let serve_allocations = |refs: u64, format: JournalFormat, workers: usize| {
        let tenants = (0..3)
            .map(|i| TenantSpec {
                name: format!("t{i}"),
                workload: "uniform".to_string(),
                kind: DirectoryKind::ALL[i],
                seed: 0xa110 + i as u64,
                cores: 2,
                refs,
                fault: None,
            })
            .collect();
        let mut cfg = ServeConfig::new(tenants);
        // No periodic checkpoints: the record count must not scale with
        // `refs`, and 2 * 3500 accesses per machine stays below the
        // oracle interval so no audit sweep runs either.
        cfg.checkpoint_interval = u64::MAX;
        cfg.final_audit = false;
        cfg.format = format;
        cfg.workers = workers;
        let mut sink = Vec::with_capacity(64 * 1024);
        let before = allocations();
        run_serve(&cfg, &uniform_streams, b"", &mut sink).expect("serve run");
        allocations() - before
    };
    for format in JournalFormat::ALL {
        for workers in [1, 2] {
            let short = serve_allocations(1_500, format, workers);
            let long = serve_allocations(3_500, format, workers);
            assert_eq!(
                short,
                long,
                "serve ({}, {workers} workers) allocates per access, not per tenant \
                 ({short} vs {long} for 7/3 the refs)",
                format.name()
            );
        }
    }

    // Resume: the surviving journal is decoded one record at a time and
    // compared as typed values, never stored or rendered, so a binary
    // resume that keeps twice the checkpoint records allocates the same.
    // Both cuts fall before the first terminal record: every tenant
    // re-simulates in both runs and only the kept share differs.
    let tenants = (0..2)
        .map(|i| TenantSpec {
            name: format!("t{i}"),
            workload: "uniform".to_string(),
            kind: DirectoryKind::ALL[i],
            seed: 0x5e5 + i as u64,
            cores: 1,
            refs: 3_000,
            fault: None,
        })
        .collect();
    let mut cfg = ServeConfig::new(tenants);
    cfg.checkpoint_interval = 4;
    cfg.final_audit = false;
    cfg.format = JournalFormat::Binary;
    let mut full = Vec::new();
    run_serve(&cfg, &uniform_streams, b"", &mut full).expect("fresh serve run");
    let records = |cut: usize| decode_journal(&full[..cut]).expect("prefix decodes").lines;
    // The shortest cut keeping `n` records (decoded record counts only
    // grow with the cut).
    let cut_keeping = |n: usize| {
        let (mut lo, mut hi) = (0, full.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if records(mid).len() < n {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        assert!(!records(lo).iter().any(|l| l.contains("\"status\"")));
        lo
    };
    let resume_allocations = |cut: usize| {
        let mut sink = Vec::with_capacity(2 * full.len());
        let before = allocations();
        run_serve(&cfg, &uniform_streams, &full[..cut], &mut sink).expect("resumed run");
        let delta = allocations() - before;
        assert_eq!(sink, full, "resume diverged");
        delta
    };
    let short = resume_allocations(cut_keeping(300));
    let long = resume_allocations(cut_keeping(600));
    assert!(
        long.abs_diff(short) <= 2,
        "binary resume allocates per kept record ({short} vs {long} for 300 more)"
    );
}
