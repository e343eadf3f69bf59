//! The deterministic slice-parallel epoch engine.
//!
//! [`run_workload_sliced`] runs the same per-core [`AccessStream`]s as
//! [`run_workload`](crate::run_workload), but partitions the machine the
//! way the hardware is partitioned: each directory slice (with its LLC
//! bank) and each core's private caches can be driven by a separate worker
//! thread, synchronized only at **epoch barriers**. With `slice_threads =
//! N` the calling thread is worker 0 and `N − 1` threads are spawned, so
//! N threads share N CPUs without oversubscription. `slice_threads = 1`
//! runs the same epoch loop with one participant and spawns nothing.
//!
//! # The epoch protocol
//!
//! Time advances in epochs. Every epoch has two parallel phases and two
//! serial steps, which run on the calling thread (the "main" thread
//! below):
//!
//! 1. **Top-up** (main): each core's stream is pulled into a private
//!    buffer, capped so total pulls never exceed the access cap — stream
//!    consumption is exactly what the serial engine would consume, so
//!    warm-up/measure phases can share streams across engines.
//! 2. **Phase A — core phase** (parallel over cores): each core retires
//!    private-cache hits from its buffer by calling the machine's own
//!    L1/L2 probe (the one [`Machine::access`] calls), until it needs the
//!    directory. The first access that does (an L2 miss, or a non-silent
//!    write hit needing an upgrade) is parked, with the probe's outcome,
//!    as the core's single *pending transaction* for this epoch. The
//!    L2 rows of the buffered references `PREFETCH_AHEAD` ahead are
//!    hinted to the host cache as the sweep goes.
//! 3. **Routing** (main): pending transactions are routed by the
//!    machine's `SliceHash` into per-slice inboxes.
//! 4. **Phase B — slice phase** (parallel over slices): each participant
//!    first hints the directory rows of every request in its slices'
//!    inboxes ([`DirSlice::prefetch`]), then each slice drains its inbox
//!    in the canonical `(ready-time, core-id)` order — the same key the
//!    serial engine's `BinaryHeap` scheduler uses — performing the
//!    directory transaction and recording the response.
//! 5. **Merge** (main): responses are applied in the same global canonical
//!    order through the machine's own response path (the one
//!    [`Machine::access`] calls), so invalidation fan-out, owner
//!    downgrades, fills and victim evictions are processed by exactly one
//!    thread against a coherent whole.
//!
//! # Chunk hand-off
//!
//! The machine's per-core caches, per-core stats and directory slices
//! live in the [`Machine`]'s own vectors for the whole run. Only for a
//! parallel phase does each spawned worker's chunk of those vectors move
//! to it, through a [`Handoff`] split exactly like the engine's own
//! per-core and per-slice bookkeeping vectors (`CoreCell`, `SliceCell`):
//! phase A zips a participant's cells with the same cores' caches and
//! stats, phase B its inboxes with the same slices. The chunks move as
//! header-sized `Vec` moves before the phase's start crossing and come
//! back after its end crossing — a handful of uncontended mutex
//! operations per *epoch*, not per transaction. The main thread's own
//! chunk never leaves the machine. Every part is home again before
//! routing and before the merge, so the merge, the fault-injection step
//! and the `check`-feature oracle all run against the whole machine
//! through plain method calls.
//!
//! # The epoch barrier
//!
//! The workers are a [`par::run_crew`] crew: one participant per worker,
//! the main thread included, synchronized by the crew's sense-reversing
//! epoch barrier — one atomic add per arrival, a bounded spin on the
//! generation word, then a `thread::yield_now` tier, then `thread::park`.
//! When the host has at least as many CPUs as participants an epoch
//! crossing stays in user space entirely; oversubscribed hosts skip the
//! spin and yield straight away. This replaces the four kernel-mediated
//! standard-library `Barrier` waits per epoch that dominated the first
//! version's per-epoch cost.
//!
//! # Determinism
//!
//! Phase A is pure per-core work; phase B drains each inbox in a
//! canonical sorted order; the merge applies responses in the same order
//! globally. No step depends on how cores or slices are partitioned over
//! workers, so stats, latencies and final cache/directory state are
//! **bit-identical for every `slice_threads` value** — 1, 2, 4 and 8
//! produce the same run (`tests/determinism.rs`, `tests/golden_stats.rs`).
//!
//! [`SlicedOptions::pipeline`] overlaps the *next* epoch's top-up (main
//! thread, after its own phase-B share: streams and core buffers) with
//! the other workers' share of the *current* epoch's slice phase
//! (directory slices) — two disjoint sets of state, so the overlap
//! cannot reorder anything. The only observable coupling is the
//! access cap: top-up normally runs after the merge has retired the
//! epoch's pending transactions, so the pipelined cap check counts each
//! in-flight pending explicitly (`accesses + pending + buffered < cap`),
//! which is exactly the post-merge arithmetic. Pipelined runs are
//! therefore bit-identical to unpipelined runs (tested). The more
//! aggressive overlap of phase A with the merge was rejected: the merge's
//! write set (invalidation fan-out and eviction side effects into
//! arbitrary cores' caches) is not computable before the merge runs, so
//! phase A of the next epoch could race it — see DESIGN.md §10.
//!
//! # Relation to the serial engine
//!
//! The epoch model is a slightly *relaxed* timing model: a cross-core
//! effect (an invalidation, a downgrade) computed during an epoch lands at
//! the epoch barrier, not between two individual accesses. The serial
//! engine remains the reference implementation; a **single-core** run has
//! no cross-core effects at all, and the sliced engine is bit-identical to
//! the serial engine there (tested). Multi-core sliced runs are compared
//! against their own committed golden snapshots instead.
//!
//! While a sliced run is in flight the machine is in *lenient* mode
//! (`Machine::lenient`): a barrier-delayed invalidation may name a line
//! the holder already evicted (skipped silently), and an upgrade may be
//! *overtaken* by a concurrent remote write, in which case the directory
//! answers with a data source and the line is refilled instead.
//!
//! # Failure handling
//!
//! Spawned-worker panics (e.g. a stream or a directory slice panicking
//! under fault injection) are caught by the crew **once per worker**, not
//! per phase: a panicking worker records the failure and drains — it
//! keeps honoring every barrier, so no thread deadlocks. Each of the main
//! thread's steps — top-up, its phase-A and phase-B shares, the merge —
//! runs under its own `catch_unwind` ([`Crew::guarded`]), records the
//! failure the same way and still reaches every crossing, so every
//! hand-out is followed by its take-back on every path: the machine holds
//! all its parts when the run ends. The first panic is re-raised on the
//! calling thread once all workers have joined.

use std::collections::VecDeque;
use std::panic::resume_unwind;

use secdir_coherence::{AccessKind, DirResponse, DirSlice};
use secdir_mem::par::{self, Crew, Handoff, Panic};
use secdir_mem::{CoreId, LineAddr, SliceId};

use crate::caches::PrivateCaches;
use crate::config::Latencies;
use crate::engine::{Access, AccessStream, CoreRun, RunSummary};
use crate::machine::{probe, Machine, Probe};
use crate::stats::CoreStats;

/// Default for [`SlicedOptions::epoch_batch`]. Large enough to amortize
/// the four barrier crossings over many locally-retired hits, small
/// enough that cross-core effects stay within a few hundred cycles of
/// their serial delivery point.
const EPOCH_BATCH: usize = 64;

/// How many buffered references ahead phase A hints a core's L2 rows
/// ([`PrivateCaches::prefetch`]), so the host cache misses of the next
/// probes overlap the current one.
const PREFETCH_AHEAD: usize = 2;

/// Tuning knobs for the slice-parallel engine
/// ([`run_workload_sliced_with`]). Every setting is a pure throughput
/// knob: for a fixed `epoch_batch`, results are bit-identical across
/// every `slice_threads` value and both `pipeline` settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlicedOptions {
    /// References buffered per core per epoch. Affects the epoch schedule
    /// (and can therefore affect when cross-core effects land) but never
    /// determinism; the default is `EPOCH_BATCH` = 64, the value the
    /// sliced golden snapshots pin.
    pub epoch_batch: usize,
    /// Software pipelining: overlap the next epoch's stream top-up with
    /// the current epoch's slice phase. Bit-identical to the unpipelined
    /// schedule (see the module docs for the argument).
    pub pipeline: bool,
}

impl Default for SlicedOptions {
    fn default() -> Self {
        SlicedOptions {
            epoch_batch: EPOCH_BATCH,
            pipeline: false,
        }
    }
}

/// A core's directory transaction parked at the epoch barrier.
struct PendingTxn {
    /// The access that needs the directory.
    access: Access,
    /// What the probe found: [`Probe::Upgrade`] or [`Probe::Miss`].
    probe: Probe,
    /// Home slice, filled in by the routing step.
    slice: SliceId,
}

/// Per-core engine bookkeeping. The core's caches and stats stay in the
/// machine, at the same index.
struct CoreCell {
    /// References pulled from the stream but not yet issued.
    buffer: VecDeque<Access>,
    /// The stream returned `None`; once `buffer` drains, the core is done.
    exhausted: bool,
    /// The core's current cycle (the scheduler key of the serial engine).
    ready: u64,
    instructions: u64,
    accesses: u64,
    /// Cycle at which the core finished, once it has.
    finished: Option<u64>,
    /// At most one directory transaction per core per epoch.
    pending: Option<PendingTxn>,
}

/// One routed request, drained by the slice in `(ready, core)` order.
struct InboxEntry {
    ready: u64,
    core: usize,
    line: LineAddr,
    kind: AccessKind,
}

/// Per-slice epoch mailboxes. The slice itself stays in the machine, at
/// the same index.
struct SliceCell {
    inbox: Vec<InboxEntry>,
    outbox: Vec<(usize, DirResponse)>,
}

/// All run-local state: the cells plus every buffer the epoch loop
/// reuses. Allocated once at run start; the steady-state epoch loop
/// performs no heap allocation (`tests/alloc_free.rs`).
struct RunState {
    cells: Vec<CoreCell>,
    scells: Vec<SliceCell>,
    responses: Vec<Option<DirResponse>>,
    /// Merge-order scratch, reused every epoch.
    order: Vec<(u64, usize)>,
}

/// Fresh run-local state for `n` cores and slices; the single allocation
/// site of the engine.
fn new_run_state(n: usize, epoch_batch: usize) -> RunState {
    RunState {
        cells: (0..n)
            .map(|_| CoreCell {
                buffer: VecDeque::with_capacity(epoch_batch),
                exhausted: false,
                ready: 0,
                instructions: 0,
                accesses: 0,
                finished: None,
                pending: None,
            })
            .collect(),
        scells: (0..n)
            .map(|_| SliceCell {
                inbox: Vec::with_capacity(n),
                outbox: Vec::with_capacity(n),
            })
            .collect(),
        responses: (0..n).map(|_| None).collect(),
        order: Vec::with_capacity(n),
    }
}

/// Pulls each unfinished core's stream into its buffer, never exceeding
/// the per-core access cap in total pulls — exactly the serial engine's
/// consumption, so streams can be shared warm-up → measure across
/// engines. An unmerged pending transaction counts toward the cap (the
/// merge will retire it), which makes the check correct both after the
/// merge (pending is `None`) and, under pipelining, before it.
fn top_up(
    cells: &mut [CoreCell],
    streams: &mut [Box<dyn AccessStream + '_>],
    cap: u64,
    batch: usize,
) {
    for (i, cell) in cells.iter_mut().enumerate() {
        if cell.finished.is_some() || cell.exhausted {
            continue;
        }
        let in_flight = u64::from(cell.pending.is_some());
        while cell.buffer.len() < batch
            && cell.accesses + in_flight + (cell.buffer.len() as u64) < cap
        {
            match streams[i].next_access() {
                Some(acc) => cell.buffer.push_back(acc),
                None => {
                    cell.exhausted = true;
                    break;
                }
            }
        }
    }
}

/// Phase A: retires private-cache hits for one core until its buffer runs
/// dry, the access cap is reached, or an access needs the directory. Each
/// access runs the machine's own probe (`crate::machine::probe`, the one
/// [`Machine::access`] calls) against the core's caches and stats.
fn run_core_epoch(
    cell: &mut CoreCell,
    caches: &mut PrivateCaches,
    stats: &mut CoreStats,
    lat: Latencies,
    cap: u64,
) {
    if cell.finished.is_some() {
        return;
    }
    debug_assert!(
        cell.pending.is_none(),
        "unmerged transaction at epoch start"
    );
    for ahead in cell.buffer.iter().take(PREFETCH_AHEAD) {
        caches.prefetch(ahead.line);
    }
    loop {
        if cell.accesses >= cap {
            cell.finished = Some(cell.ready);
            return;
        }
        let Some(acc) = cell.buffer.pop_front() else {
            if cell.exhausted {
                cell.finished = Some(cell.ready);
            }
            return;
        };
        if let Some(ahead) = cell.buffer.get(PREFETCH_AHEAD - 1) {
            caches.prefetch(ahead.line);
        }
        match probe(caches, stats, lat, acc.line, acc.write) {
            Probe::Hit(_, latency) => {
                cell.instructions += u64::from(acc.gap) + 1;
                cell.accesses += 1;
                cell.ready += u64::from(acc.gap) + latency;
            }
            probe => {
                cell.pending = Some(PendingTxn {
                    access: acc,
                    probe,
                    slice: SliceId(0),
                });
                return;
            }
        }
    }
}

// lint: region(barrier-worker)
/// Routes every pending transaction to its home slice's inbox. Runs on
/// the main thread while every cell is home.
fn route(machine: &Machine, cells: &mut [CoreCell], scells: &mut [SliceCell]) {
    for (i, cell) in cells.iter_mut().enumerate() {
        let ready = cell.ready;
        if let Some(txn) = cell.pending.as_mut() {
            let slice = machine.slice_of(txn.access.line);
            txn.slice = slice;
            // lint: allow(barrier-panic): Machine::slice_of maps every line to a SliceId below the slice count, and scells holds one cell per slice by construction
            scells[slice.0].inbox.push(InboxEntry {
                ready,
                core: i,
                line: txn.access.line,
                kind: txn.probe.request_kind(),
            });
        }
    }
}

/// Phase A over one participant's chunk: its cells, zipped with the same
/// cores' caches and stats.
fn core_phase(
    cells: &mut [CoreCell],
    caches: &mut [PrivateCaches],
    stats: &mut [CoreStats],
    lat: Latencies,
    cap: u64,
) {
    for ((cell, caches), stats) in cells.iter_mut().zip(caches).zip(stats) {
        run_core_epoch(cell, caches, stats, lat, cap);
    }
}

/// Phase B over one participant's chunk: its inboxes, zipped with the
/// same slices. A first pass hints the host to pull the directory rows of
/// every request ([`DirSlice::prefetch`]), so their host cache misses
/// overlap instead of stalling one request at a time. Then each slice
/// drains its inbox in the canonical `(ready, core)` order — the serial
/// scheduler's key, and unique because each core parks at most one
/// transaction — performing the directory requests.
fn slice_phase(scells: &mut [SliceCell], slices: &mut [Box<dyn DirSlice + Send>]) {
    for (scell, slice) in scells.iter().zip(slices.iter()) {
        for e in &scell.inbox {
            slice.prefetch(e.line);
        }
    }
    for (scell, slice) in scells.iter_mut().zip(slices) {
        scell.inbox.sort_unstable_by_key(|e| (e.ready, e.core));
        for e in scell.inbox.drain(..) {
            let resp = slice.request(e.line, CoreId(e.core), e.kind);
            scell.outbox.push((e.core, resp));
        }
    }
}

// lint: region(barrier-worker)
/// Gathers phase B's responses into a per-core table (each core parked at
/// most one transaction, so slots never collide).
fn collect_responses(scells: &mut [SliceCell], responses: &mut [Option<DirResponse>]) {
    for scell in scells.iter_mut() {
        for (core, resp) in scell.outbox.drain(..) {
            // lint: allow(barrier-panic): debug-only guard for a structural invariant — each core parks at most one transaction per epoch, so the slot is always empty; kept deliberately because a violation means the response table is already corrupt and a loud debug failure beats silent corruption
            debug_assert!(
                responses[core].is_none(),
                "two responses for one core in an epoch"
            );
            // lint: allow(barrier-panic): `core` is an enumerate() index from route(), always < the core count that sized `responses`
            responses[core] = Some(resp);
        }
    }
}

/// The merge step: applies every parked transaction's response in global
/// `(ready, core)` order — the same order each slice used in phase B, so
/// the directory's assumptions (who holds what) hold again when the
/// response lands. Every part is home, so the responses go through the
/// machine's own response path, after the fault-injection step and before
/// the `check`-feature oracle: no part moves, no locks, no allocation.
fn merge(machine: &mut Machine, state: &mut RunState, total_retired: &mut u64) {
    let RunState {
        cells,
        responses,
        order,
        ..
    } = state;
    order.clear();
    let mut retired_now = 0u64;
    for (i, cell) in cells.iter().enumerate() {
        retired_now += cell.accesses;
        if cell.pending.is_some() {
            retired_now += 1;
            order.push((cell.ready, i));
        }
    }
    order.sort_unstable();
    let epoch_retired = retired_now - *total_retired;
    *total_retired = retired_now;
    machine.fault_step(epoch_retired);
    for &(_, i) in order.iter() {
        let cell = &mut cells[i];
        let txn = match cell.pending.take() {
            Some(t) => t,
            None => unreachable!("merge order lists a core without a transaction"),
        };
        let resp = match responses[i].take() {
            Some(r) => r,
            None => unreachable!("pending transaction without a directory response"),
        };
        let latency = machine
            .apply_response(CoreId(i), txn.access.line, txn.slice, txn.probe, &resp)
            .latency;
        cell.instructions += u64::from(txn.access.gap) + 1;
        cell.accesses += 1;
        cell.ready += u64::from(txn.access.gap) + latency;
    }
    #[cfg(feature = "check")]
    machine.oracle_step(epoch_retired);
}

// lint: region(barrier-worker)
fn all_finished(cells: &[CoreCell]) -> bool {
    cells.iter().all(|cell| cell.finished.is_some())
}

fn summary(cells: &[CoreCell]) -> RunSummary {
    let cores: Vec<CoreRun> = cells
        .iter()
        .map(|cell| CoreRun {
            instructions: cell.instructions,
            accesses: cell.accesses,
            finish_time: cell.finished.unwrap_or(cell.ready),
        })
        .collect();
    let cycles = cores.iter().map(|c| c.finish_time).max().unwrap_or(0);
    RunSummary { cores, cycles }
}

/// The epoch loop on a [`par::run_crew`] crew of `workers` threads: the
/// calling thread leads as worker 0 and `workers - 1` persistent scoped
/// threads are spawned, four barrier crossings per epoch. Each worker
/// owns a contiguous chunk of cores and slices; spawned workers get
/// theirs through one [`Handoff`] per vector, all split alike, while the
/// calling thread's chunk stays in the home vectors. Besides its phase-A
/// and phase-B shares, the calling thread runs top-up, routing and the
/// merge between barrier crossings.
///
/// A panic anywhere is caught once and recorded. A panicking spawned
/// worker drains (the crew keeps it crossing every barrier until the
/// calling thread ends the run); each calling-thread step that may panic
/// (top-up, its phase shares, the merge) runs under [`Crew::guarded`] and
/// still reaches every crossing and every take-back — so the protocol
/// drains instead of deadlocking, and the parts come home. Everything
/// else between barrier crossings must be panic-free, which the region
/// annotation makes the lint gate enforce.
// lint: region(barrier-worker)
fn run_threaded(
    machine: &mut Machine,
    streams: &mut [Box<dyn AccessStream + '_>],
    cap: u64,
    workers: usize,
    state: &mut RunState,
    opts: SlicedOptions,
) -> Option<Panic> {
    let lat = machine.config().latencies;
    let n = machine.num_cores();
    let (cells, caches, stats) = (
        Handoff::new(n, workers),
        Handoff::new(n, workers),
        Handoff::new(n, workers),
    );
    let (scells, slices) = (Handoff::new(n, workers), Handoff::new(n, workers));
    let mut total_retired = 0u64;
    // A spawned worker's epoch after crossing (1): phase A over its core
    // chunk, phase B over its slice chunk.
    let epoch = |crew: &Crew, w: usize| {
        if let (Some(mut cells), Some(mut caches), Some(mut stats)) =
            (cells.chunk(w), caches.chunk(w), stats.chunk(w))
        {
            core_phase(&mut cells, &mut caches, &mut stats, lat, cap);
        }
        crew.wait(w); // (2) phase A done
        crew.wait(w); // (3) routing done
        if let (Some(mut scells), Some(mut slices)) = (scells.chunk(w), slices.chunk(w)) {
            slice_phase(&mut scells, &mut slices);
        }
        crew.wait(w); // (4) phase B done
    };
    par::run_crew(workers, 4, epoch, |crew| {
        // Under pipelining the next epoch's top-up already ran during this
        // epoch's phase B; `topped_up` skips the loop-top one.
        let mut topped_up = false;
        loop {
            if crew.failed() {
                return;
            }
            if !topped_up
                && !crew.guarded(|| {
                    top_up(&mut state.cells, streams, cap, opts.epoch_batch);
                })
            {
                continue; // exits through the failure check above
            }
            topped_up = false;
            if all_finished(&state.cells) {
                return;
            }
            cells.hand_out(&mut state.cells);
            caches.hand_out(&mut machine.cores);
            stats.hand_out(&mut machine.stats.cores);
            crew.wait(0); // (1)
            crew.guarded(|| {
                // The calling thread's own chunk: the only one home now.
                core_phase(
                    &mut state.cells,
                    &mut machine.cores,
                    &mut machine.stats.cores,
                    lat,
                    cap,
                );
            });
            crew.wait(0); // (2) phase A done
            cells.take_back(&mut state.cells);
            caches.take_back(&mut machine.cores);
            stats.take_back(&mut machine.stats.cores);
            route(machine, &mut state.cells, &mut state.scells);
            scells.hand_out(&mut state.scells);
            slices.hand_out(&mut machine.slices);
            crew.wait(0); // (3)
            crew.guarded(|| slice_phase(&mut state.scells, &mut machine.slices));
            if opts.pipeline {
                // Overlap the next epoch's top-up with the workers' phase
                // B: they only touch slices and their mailboxes between
                // (3) and (4), while top-up touches streams and core
                // cells — disjoint state, so this is pure overlap (see
                // the module docs).
                topped_up = crew.guarded(|| {
                    top_up(&mut state.cells, streams, cap, opts.epoch_batch);
                });
            }
            crew.wait(0); // (4) phase B done
            scells.take_back(&mut state.scells);
            slices.take_back(&mut machine.slices);
            if crew.failed() {
                continue; // skip merging half-built state; exit at loop top
            }
            collect_responses(&mut state.scells, &mut state.responses);
            crew.guarded(|| merge(machine, state, &mut total_retired));
        }
    })
    .err()
}

/// Runs one stream per core under the slice-parallel epoch engine with
/// `slice_threads` workers and default [`SlicedOptions`], until every
/// stream is exhausted or a core has issued `max_accesses_per_core`
/// references during this call.
///
/// Results are **bit-identical for every `slice_threads` value** — see
/// the module docs for why — so the thread count is purely a throughput
/// knob. The calling thread is one of the workers: `slice_threads = k`
/// spawns `k − 1` threads, so `slice_threads = 1` spawns none. Thread
/// counts above the core count are clamped (extra workers would own empty
/// partitions).
///
/// Stream consumption matches [`run_workload`](crate::run_workload)
/// exactly, so the warm-up-then-measure pattern works unchanged. The
/// timing model is the epoch-relaxed one described in the module docs;
/// single-core runs are bit-identical to the serial engine.
///
/// # Panics
///
/// Panics if `slice_threads` is zero or `streams.len()` differs from the
/// machine's core count, and re-raises panics from streams, from the
/// directory or from the `check`-feature oracle. The machine then holds
/// all its parts, but the interrupted epoch may have left them
/// incoherent.
pub fn run_workload_sliced(
    machine: &mut Machine,
    streams: &mut [Box<dyn AccessStream + '_>],
    max_accesses_per_core: u64,
    slice_threads: usize,
) -> RunSummary {
    run_workload_sliced_with(
        machine,
        streams,
        max_accesses_per_core,
        slice_threads,
        SlicedOptions::default(),
    )
}

/// [`run_workload_sliced`] with explicit tuning [`SlicedOptions`].
///
/// # Panics
///
/// Additionally panics if `options.epoch_batch` is zero.
pub fn run_workload_sliced_with(
    machine: &mut Machine,
    streams: &mut [Box<dyn AccessStream + '_>],
    max_accesses_per_core: u64,
    slice_threads: usize,
    options: SlicedOptions,
) -> RunSummary {
    assert!(slice_threads >= 1, "slice_threads must be at least 1");
    assert!(options.epoch_batch >= 1, "epoch_batch must be at least 1");
    assert_eq!(
        streams.len(),
        machine.num_cores(),
        "one stream per core required"
    );
    let workers = slice_threads.min(machine.num_cores()).max(1);
    let mut state = new_run_state(machine.num_cores(), options.epoch_batch);

    machine.lenient = true;
    let failure = run_threaded(
        machine,
        streams,
        max_accesses_per_core,
        workers,
        &mut state,
        options,
    );
    machine.lenient = false;
    if let Some(p) = failure {
        resume_unwind(p);
    }
    summary(&state.cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DirectoryKind, MachineConfig};
    use crate::engine::run_workload;
    use crate::panics;
    use secdir_mem::SplitMix64;

    fn stream(seed: u64, len: usize, lines: u64) -> Box<dyn AccessStream> {
        let mut rng = SplitMix64::new(seed);
        let accs: Vec<Access> = (0..len)
            .map(|_| Access {
                line: LineAddr::new(rng.next_below(lines)),
                write: rng.chance(0.3),
                gap: rng.next_below(8) as u32,
            })
            .collect();
        Box::new(accs.into_iter())
    }

    fn streams(cores: usize, len: usize) -> Vec<Box<dyn AccessStream>> {
        (0..cores)
            .map(|i| stream(0x51ed ^ ((i as u64) << 16), len, 700))
            .collect()
    }

    #[test]
    fn single_core_run_is_bit_identical_to_the_serial_engine() {
        for threads in [1, 2] {
            let mut serial = Machine::new(MachineConfig::small(1, DirectoryKind::SecDir));
            let s_sum = run_workload(&mut serial, &mut streams(1, 3000), u64::MAX);
            let mut sliced = Machine::new(MachineConfig::small(1, DirectoryKind::SecDir));
            let p_sum = run_workload_sliced(&mut sliced, &mut streams(1, 3000), u64::MAX, threads);
            assert_eq!(s_sum, p_sum, "{threads} threads");
            assert_eq!(serial.stats(), sliced.stats(), "{threads} threads");
        }
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let run = |threads: usize| {
            let mut m = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
            let sum = run_workload_sliced(&mut m, &mut streams(4, 2500), u64::MAX, threads);
            (sum, m.stats().clone())
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), reference, "{threads} threads");
        }
    }

    /// The tuning knobs must not change a single counter: every
    /// `epoch_batch` in the perf sweep set and both `pipeline` settings
    /// reproduce the default run bit for bit, at 1 and 4 threads.
    #[test]
    fn options_are_bit_identical_to_the_default_run() {
        let run = |threads: usize, options: SlicedOptions| {
            let mut m = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
            let sum =
                run_workload_sliced_with(&mut m, &mut streams(4, 2500), u64::MAX, threads, options);
            (sum, m.stats().clone())
        };
        let reference = run(1, SlicedOptions::default());
        for batch in [32, 64, 128, 256, 512] {
            for pipeline in [false, true] {
                for threads in [1, 4] {
                    let options = SlicedOptions {
                        epoch_batch: batch,
                        pipeline,
                    };
                    assert_eq!(
                        run(threads, options),
                        reference,
                        "batch {batch}, pipeline {pipeline}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn machine_is_coherent_after_a_sliced_run() {
        for kind in [
            DirectoryKind::Baseline,
            DirectoryKind::SecDir,
            DirectoryKind::SecDirVdOnly,
        ] {
            let mut m = Machine::new(MachineConfig::small(4, kind));
            run_workload_sliced(&mut m, &mut streams(4, 2000), u64::MAX, 2);
            m.verify().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn access_cap_limits_the_run_exactly() {
        let mut m = Machine::new(MachineConfig::small(4, DirectoryKind::Baseline));
        let sum = run_workload_sliced(&mut m, &mut streams(4, 2000), 150, 2);
        for core in &sum.cores {
            assert_eq!(core.accesses, 150);
        }
    }

    #[test]
    fn warmup_then_measure_consumes_streams_like_the_serial_engine() {
        // The same streams driven warm-up-then-measure must retire the
        // same access counts under both engines (stream-consumption
        // parity), even though multi-core latencies may differ.
        let mut serial = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
        let mut s = streams(4, 5000);
        run_workload(&mut serial, &mut s, 1000);
        let s_measure = run_workload(&mut serial, &mut s, 2000);
        let mut sliced = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
        let mut p = streams(4, 5000);
        run_workload_sliced(&mut sliced, &mut p, 1000, 2);
        let p_measure = run_workload_sliced(&mut sliced, &mut p, 2000, 2);
        for (a, b) in s_measure.cores.iter().zip(&p_measure.cores) {
            assert_eq!(a.accesses, b.accesses);
        }
        assert_eq!(
            serial.stats().total_accesses(),
            sliced.stats().total_accesses()
        );
    }

    /// Pipelined top-up consumes streams exactly like the unpipelined
    /// schedule across a warm-up/measure split — the cap check with an
    /// in-flight pending is the subtle part of the overlap.
    #[test]
    fn pipelined_warmup_then_measure_consumes_streams_identically() {
        let options = SlicedOptions {
            pipeline: true,
            ..SlicedOptions::default()
        };
        let mut plain = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
        let mut s = streams(4, 5000);
        let w0 = run_workload_sliced(&mut plain, &mut s, 1000, 2);
        let m0 = run_workload_sliced(&mut plain, &mut s, 2000, 2);
        let mut piped = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
        let mut p = streams(4, 5000);
        let w1 = run_workload_sliced_with(&mut piped, &mut p, 1000, 2, options);
        let m1 = run_workload_sliced_with(&mut piped, &mut p, 2000, 2, options);
        assert_eq!((w0, m0), (w1, m1));
        assert_eq!(plain.stats(), piped.stats());
    }

    #[test]
    fn zero_cap_finishes_immediately() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        let sum = run_workload_sliced(&mut m, &mut streams(2, 100), 0, 2);
        assert_eq!(sum.cycles, 0);
        assert!(sum.cores.iter().all(|c| c.accesses == 0));
    }

    #[test]
    fn empty_streams_finish_at_zero() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        let mut empty: Vec<Box<dyn AccessStream>> = (0..2).map(|_| stream(0, 0, 1)).collect();
        let sum = run_workload_sliced(&mut m, &mut empty, u64::MAX, 2);
        assert_eq!(sum.cycles, 0);
    }

    #[test]
    #[should_panic(expected = "one stream per core")]
    fn stream_count_must_match() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        run_workload_sliced(&mut m, &mut streams(1, 10), 10, 2);
    }

    #[test]
    #[should_panic(expected = "slice_threads must be at least 1")]
    fn zero_threads_is_rejected() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        run_workload_sliced(&mut m, &mut streams(2, 10), 10, 0);
    }

    #[test]
    #[should_panic(expected = "epoch_batch must be at least 1")]
    fn zero_epoch_batch_is_rejected() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        let options = SlicedOptions {
            epoch_batch: 0,
            pipeline: false,
        };
        run_workload_sliced_with(&mut m, &mut streams(2, 10), 10, 2, options);
    }

    /// Every core's caches and stats and every slice of a four-core
    /// machine are back in place after a sliced run, however it ended.
    fn assert_whole(m: &Machine, context: &str) {
        let parts = (m.cores.len(), m.stats().cores.len(), m.slices.len());
        assert_eq!(parts, (4, 4, 4), "{context}");
        assert!(m.caches(CoreId(3)).check_storage().is_ok(), "{context}");
        assert!(m.slice(SliceId(3)).validate().is_ok(), "{context}");
    }

    /// An armed fault behaves the same at every thread count: it fires at
    /// the same access count, the run leaves the same per-core stats, and
    /// it either completes with the same summary and oracle verdict or
    /// panics with the same message. The fault step and the dropped
    /// batches both run in the merge, so this pins them for every kind of
    /// fault. Per-core stats match after a panic too, because a panic in
    /// phase B leaves phase A complete and the merge unrun at any thread
    /// count, so the stats also show that every part came home in order.
    #[test]
    fn armed_faults_are_bit_identical_at_any_thread_count() {
        use crate::inject::{FaultKind, FaultPlan};
        // Each fault on one kind it applies to, with the access count the
        // fault fires at: the epoch's retired total at its first eligible
        // barrier (2004), or the merge that drops the first quirk batch.
        for (fault, kind, fires_at) in [
            (FaultKind::DropInvalidation, DirectoryKind::SecDir, 2004),
            (
                FaultKind::SkipQuirkInvalidation,
                DirectoryKind::Baseline,
                3840,
            ),
            (FaultKind::LeakVdOnConsolidate, DirectoryKind::SecDir, 2004),
            (FaultKind::FlipSharerBit, DirectoryKind::Baseline, 2004),
        ] {
            assert!(fault.applicable_to(kind), "{fault:?} on {kind:?}");
            let run = |threads: usize| {
                let mut m = Machine::new(MachineConfig::small(4, kind));
                m.arm_fault(FaultPlan {
                    kind: fault,
                    trigger: 2000,
                    core: CoreId(1),
                });
                let mut s: Vec<Box<dyn AccessStream>> = (0..4)
                    .map(|i| stream(0xfa17 ^ ((i as u64) << 16), 5000, 8192))
                    .collect();
                let ended =
                    panics::contain(|| run_workload_sliced(&mut m, &mut s, u64::MAX, threads));
                assert_whole(&m, &format!("{fault:?} on {kind:?}, {threads} threads"));
                let ended = ended.map(|sum| (sum, m.verify()));
                (m.fault_fired(), m.stats().clone(), ended)
            };
            let reference = run(1);
            assert_eq!(reference.0, Some(fires_at), "{fault:?} on {kind:?}");
            for threads in [2, 4] {
                assert_eq!(
                    run(threads),
                    reference,
                    "{fault:?} on {kind:?}, {threads} threads"
                );
            }
        }
    }

    /// A panicking stream must unwind cleanly out of the threaded engine —
    /// no deadlocked barrier, no stranded worker left behind. (The test
    /// completing at all is the deadlock check.) Runs with and without
    /// pipelining — the pipelined top-up panics between barrier crossings
    /// (3) and (4), the unpipelined one outside the epoch — at 1, 2 and 4
    /// slice threads, with the bomb in the calling thread's own partition
    /// (core 0) and in the last worker's (core 3; the calling thread's own
    /// at 1 thread). Every part is back in the machine afterwards.
    #[test]
    fn stream_panic_unwinds_without_deadlock() {
        struct Bomb(u32);
        impl AccessStream for Bomb {
            fn next_access(&mut self) -> Option<Access> {
                self.0 += 1;
                assert!(self.0 < 100, "bomb went off");
                Some(Access::read(LineAddr::new(u64::from(self.0))))
            }
        }
        for threads in [1, 2, 4] {
            for bomb in [0, 3] {
                for pipeline in [false, true] {
                    let options = SlicedOptions {
                        pipeline,
                        ..SlicedOptions::default()
                    };
                    let mut m = Machine::new(MachineConfig::small(4, DirectoryKind::SecDir));
                    let mut s = streams(4, 500);
                    s[bomb] = Box::new(Bomb(0));
                    let result = panics::contain(|| {
                        run_workload_sliced_with(&mut m, &mut s, u64::MAX, threads, options)
                    });
                    let context = format!("{threads} threads, bomb on core {bomb}, {options:?}");
                    assert_eq!(result.err().as_deref(), Some("bomb went off"), "{context}");
                    assert_whole(&m, &context);
                }
            }
        }
    }
}
