//! Proves the model checker's inner loop performs no heap allocation.
//!
//! The checker expands every frontier state with
//! `Model::successors_each`, which threads each nondeterministic branch
//! through continuation sinks into one caller-supplied sink. Before the
//! expansion it relabels the frontier state's words once
//! (`CanonTable::lanes`); inside the sink it keys each successor's line
//! words with `CanonTable::key` against those lanes, which works on
//! fixed-size lane arrays, and pushes the key into a reused scratch vector. This test
//! wraps the global allocator in a counter and asserts that, once a
//! warm-up pass has grown the reused vectors to the largest successor
//! set, that expansion allocates nothing. It asserts the same of the
//! public one-state path, `canonicalize` called in the sink, and of the
//! buffered form that the benchmark's traced search calls:
//! `Model::successors_into`, then `canonicalize` on every buffered
//! successor.
#![allow(unsafe_code, reason = "a counting GlobalAlloc")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use secdir_verif::canon::CanonTable;
use secdir_verif::model::{DirKind, Model, ModelConfig, ModelState};
use secdir_verif::pack::pack;

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

/// The first `limit` raw states of `cfg` in breadth-first order, or all
/// of them when there are fewer.
fn bfs_prefix(cfg: ModelConfig, limit: usize) -> Vec<ModelState> {
    let model = Model::new(cfg);
    let mut seen = HashSet::from([pack(&ModelState::initial())]);
    let mut order = vec![ModelState::initial()];
    let mut next = 0;
    while next < order.len() && order.len() < limit {
        for (_, t) in model.successors(&order[next]) {
            if order.len() < limit && seen.insert(pack(&t)) {
                order.push(t);
            }
        }
        next += 1;
    }
    order
}

/// Allocations over one pass that expands every state in `states` and
/// keys every successor, after a warm-up pass over the same states:
/// `[successors_each with the checker's key path in the sink,
/// successors_each with canonicalize in the sink, successors_into,
/// canonicalize of the buffered successors]`.
fn expansion_allocations(cfg: ModelConfig, states: &[ModelState]) -> [u64; 4] {
    let model = Model::new(cfg);
    let table = CanonTable::new(cfg.cores, cfg.lines, cfg.kind == DirKind::WayPartitioned);
    let mut keys = Vec::new();
    let mut canon = Vec::new();
    let mut buf = Vec::new();
    let mut counts = [0; 4];
    // The first pass warms up: it grows `keys`, `canon` and `buf` to the
    // largest successor set.
    for _ in 0..2 {
        counts = [0; 4];
        for s in states {
            let mut marks = [allocations(); 5];
            keys.clear();
            let lanes = table.lanes(s);
            model.successors_each(s, &mut |label, t| {
                keys.push((table.key(&lanes, t.words()), label))
            });
            black_box(&keys);
            marks[1] = allocations();
            canon.clear();
            model.successors_each(s, &mut |label, t| {
                canon.push((table.canonicalize(&t), label))
            });
            black_box(&canon);
            marks[2] = allocations();
            model.successors_into(s, &mut buf);
            marks[3] = allocations();
            for (_, t) in &buf {
                black_box(table.canonicalize(t));
            }
            marks[4] = allocations();
            for (i, count) in counts.iter_mut().enumerate() {
                *count += marks[i + 1] - marks[i];
            }
        }
    }
    counts
}

#[test]
fn expansion_and_canonicalization_do_not_allocate() {
    // One test function (not one per kind): the counter is process-global
    // and concurrent test threads would see each other's allocations.
    let mut cases: Vec<(ModelConfig, Vec<ModelState>)> = DirKind::ALL
        .into_iter()
        .map(|kind| {
            let cfg = ModelConfig::quick(kind);
            (cfg, bfs_prefix(cfg, usize::MAX))
        })
        .collect();
    // Way-partitioned at the full geometry: the kind and geometry that
    // dominate a full pass, sampled by its first 2k states.
    let full = ModelConfig::full(DirKind::WayPartitioned);
    let sample = bfs_prefix(full, 2_000);
    assert_eq!(sample.len(), 2_000);
    cases.push((full, sample));

    for (cfg, states) in &cases {
        let [keyed, canonicalized, successors, canon] = expansion_allocations(*cfg, states);
        assert_eq!(
            [keyed, canonicalized, successors, canon],
            [0; 4],
            "{} at {}x{}: {keyed} allocations in successors_each with the key path in its \
             sink, {canonicalized} with canonicalize in its sink, {successors} in \
             successors_into and {canon} in canonicalize over {} warmed-up states",
            cfg.kind.name(),
            cfg.cores,
            cfg.lines,
            states.len()
        );
    }
}
