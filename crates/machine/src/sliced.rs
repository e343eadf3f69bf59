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
//!    as the core's single *pending transaction* for this epoch.
//! 3. **Routing** (main): pending transactions are routed by the
//!    machine's `SliceHash` into per-slice inboxes.
//! 4. **Phase B — slice phase** (parallel over slices): each slice drains
//!    its inbox in the canonical `(ready-time, core-id)` order — the same
//!    key the serial engine's `BinaryHeap` scheduler uses — performing the
//!    directory transaction and recording the response.
//! 5. **Merge** (main): responses are applied in the same global canonical
//!    order through the machine's own response path (`apply_response_in`,
//!    the one [`Machine::access`] calls), so invalidation fan-out, owner
//!    downgrades, fills and victim evictions are processed by exactly one
//!    thread against a coherent whole.
//!
//! # Ownership transfer
//!
//! The machine's per-core caches, per-core stats and directory slices are
//! checked out of the [`Machine`] **once per run**
//! ([`Machine::take_parts`]) into run-local cells. Between barriers the
//! cells shuttle between the main thread and the spawned workers' hand-off
//! slots as header-sized `Vec` moves — a handful of uncontended mutex
//! operations per *epoch*, not per transaction, and no per-epoch machine
//! surgery. The main thread's own partition (the first chunk of cores and
//! slices) never leaves its home vectors.
//! The merge runs against the cells directly through the
//! `CoherentParts` view. Parts return to the machine only around the hook
//! calls — the fault-injection step when a fault is armed and the
//! `check`-feature oracle, which need to walk a whole coherent machine —
//! and at run end.
//!
//! # The epoch barrier
//!
//! Synchronization uses a sense-reversing barrier (`EpochBarrier`) with
//! one participant per worker, the main thread included: one atomic add
//! per arrival, a bounded spin on the generation word, then a
//! `thread::yield_now` tier, then `thread::park`. When the host has at
//! least as many CPUs as participants an epoch crossing stays in user
//! space entirely; oversubscribed hosts skip the spin and yield straight
//! away. This replaces the four kernel-mediated `std::sync::Barrier` waits
//! per epoch that dominated the first version's per-epoch cost.
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
//! Spawned-worker panics (e.g. the `check`-feature oracle firing under
//! fault injection) are caught **once per worker loop**, not per phase: a
//! panicking worker records the failure and falls into a drain loop that
//! keeps honoring every barrier, so no thread deadlocks. Each of the main
//! thread's steps — top-up, its phase-A and phase-B shares, the merge —
//! runs under its own `catch_unwind`, records the failure the same way and
//! still reaches every crossing. The machine gets its parts back, and the
//! first panic is re-raised on the calling thread once all workers have
//! parked.

use std::any::Any;
use std::collections::VecDeque;
use std::hint;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

use secdir_coherence::{AccessKind, DirResponse, DirSlice};
use secdir_mem::{CoreId, LineAddr, SliceId};

use crate::caches::PrivateCaches;
use crate::config::Latencies;
use crate::engine::{Access, AccessStream, CoreRun, RunSummary};
use crate::machine::{apply_response_in, probe, CoherentParts, Machine, Probe};
use crate::stats::CoreStats;

/// Default for [`SlicedOptions::epoch_batch`]. Large enough to amortize
/// the four barrier crossings over many locally-retired hits, small
/// enough that cross-core effects stay within a few hundred cycles of
/// their serial delivery point.
const EPOCH_BATCH: usize = 64;

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

// The code between these region markers runs either on the main thread
// between barrier crossings or inside the barrier itself — outside every
// catch_unwind net. A panic here strands the other side of the barrier
// (see the `barrier-panic` lint rule in secdir-verif).
// lint: begin-region(barrier-worker)

/// Locks a mutex, shrugging off poisoning: a worker that panicked has
/// already recorded its failure, and the epoch loop unwinds through the
/// same data to reassemble the machine before re-raising it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sense-reversing epoch barrier: `fetch_add` on arrival, release by
/// bumping the generation word, bounded spin → yield → park while
/// waiting. All of `std`, no per-crossing kernel round-trip on the happy
/// path, and safe against lost wake-ups: a parked waiter always rechecks
/// the generation, and a stale park token at most costs one extra loop.
struct EpochBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    participants: usize,
    /// Spin iterations before yielding; zero on oversubscribed hosts
    /// (fewer CPUs than participants), where spinning would steal the
    /// timeslice the other side needs.
    spin_limit: u32,
    /// Participant thread handles for `unpark`, registered once before a
    /// thread's first wait.
    threads: Vec<OnceLock<Thread>>,
}

/// Yield-tier length between spinning and parking.
const YIELD_LIMIT: u32 = 16;

impl EpochBarrier {
    fn new(participants: usize) -> Self {
        // A lone participant never waits, so it skips the CPU-count query.
        let spin = participants == 1
            || std::thread::available_parallelism().map_or(1, usize::from) >= participants;
        let spin_limit = if spin { 4096 } else { 0 };
        EpochBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            participants,
            spin_limit,
            threads: (0..participants).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Registers the calling thread as participant `id`. Must run on that
    /// thread before its first [`EpochBarrier::wait`]; the release path
    /// only unparks registered threads, and a thread that has arrived has
    /// necessarily registered.
    fn register(&self, id: usize) {
        // Ids are 0 for the main thread and 1.. for the spawned workers,
        // always < participants; `.get` keeps this total all the same — a
        // panic during registration would strand the already-spinning side.
        if let Some(slot) = self.threads.get(id) {
            let _ = slot.set(std::thread::current());
        }
    }

    fn wait(&self, id: usize) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.participants {
            // Last arriver: reset the count *before* publishing the new
            // generation, so next-epoch arrivals (which happen-after the
            // generation load below) see a clean counter.
            // lint: allow(atomic-ordering): the Release store of `generation` below publishes this reset; every waiter Acquire-loads `generation` before its next-epoch `fetch_add`, so the reset happens-before all later arrivals
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            for (i, slot) in self.threads.iter().enumerate() {
                if i != id {
                    if let Some(t) = slot.get() {
                        t.unpark();
                    }
                }
            }
        } else {
            let mut tries = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if tries < self.spin_limit {
                    hint::spin_loop();
                } else if tries < self.spin_limit + YIELD_LIMIT {
                    std::thread::yield_now();
                } else {
                    // A wake-up between the generation check and this
                    // park leaves a token that makes park return
                    // immediately; the loop then rechecks the generation,
                    // so a stale token cannot strand us.
                    std::thread::park();
                }
                tries = tries.saturating_add(1);
            }
        }
    }
}

// lint: end-region(barrier-worker)

/// A core's directory transaction parked at the epoch barrier.
struct PendingTxn {
    /// The access that needs the directory.
    access: Access,
    /// What the probe found: [`Probe::Upgrade`] or [`Probe::Miss`].
    probe: Probe,
    /// Home slice, filled in by the routing step.
    slice: SliceId,
}

/// Per-core cell: the core's checked-out shard of the machine plus its
/// engine bookkeeping. The `Option`s are `Some` for the whole run except
/// while a fault/oracle hook call has the parts back in the machine.
struct CoreCell {
    caches: Option<PrivateCaches>,
    stats: Option<CoreStats>,
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

/// Per-slice cell: the checked-out directory slice plus its epoch
/// mailboxes.
struct SliceCell {
    slice: Option<Box<dyn DirSlice + Send>>,
    inbox: Vec<InboxEntry>,
    outbox: Vec<(usize, DirResponse)>,
}

/// Scratch vectors that carry parts between the cells and the machine
/// around the fault/oracle hook calls. Capacity is allocated once; the vectors
/// round-trip through [`Machine::restore_parts`]/[`Machine::take_parts`]
/// without reallocating.
struct Shuttle {
    caches: Vec<PrivateCaches>,
    stats: Vec<CoreStats>,
    slices: Vec<Box<dyn DirSlice + Send>>,
}

/// All run-local state: the checked-out cells plus every buffer the epoch
/// loop reuses. Allocated once at run start; the steady-state epoch loop
/// performs no heap allocation (`tests/alloc_free.rs`).
struct RunState {
    cells: Vec<CoreCell>,
    scells: Vec<SliceCell>,
    responses: Vec<Option<DirResponse>>,
    /// Merge-order scratch, reused every epoch.
    order: Vec<(u64, usize)>,
    shuttle: Shuttle,
}

/// Checks the machine's parts out into a fresh [`RunState`]; the single
/// allocation site of the engine.
fn new_run_state(machine: &mut Machine, epoch_batch: usize) -> RunState {
    let n = machine.num_cores();
    let (caches, stats, slices) = machine.take_parts();
    let cells: Vec<CoreCell> = caches
        .into_iter()
        .zip(stats)
        .map(|(caches, stats)| CoreCell {
            caches: Some(caches),
            stats: Some(stats),
            buffer: VecDeque::with_capacity(epoch_batch),
            exhausted: false,
            ready: 0,
            instructions: 0,
            accesses: 0,
            finished: None,
            pending: None,
        })
        .collect();
    let scells: Vec<SliceCell> = slices
        .into_iter()
        .map(|slice| SliceCell {
            slice: Some(slice),
            inbox: Vec::with_capacity(n),
            outbox: Vec::with_capacity(n),
        })
        .collect();
    RunState {
        cells,
        scells,
        responses: (0..n).map(|_| None).collect(),
        order: Vec::with_capacity(n),
        shuttle: Shuttle {
            caches: Vec::with_capacity(n),
            stats: Vec::with_capacity(n),
            slices: Vec::with_capacity(n),
        },
    }
}

/// A spawned worker's hand-off slot. Cells move in and out as whole
/// `Vec`s (header-sized moves); a worker holds the lock for its entire
/// phase, so the mutexes see a handful of uncontended operations per
/// epoch.
struct Slot {
    /// Cores (and slices) in the worker's chunk.
    len: usize,
    cores: Mutex<Vec<CoreCell>>,
    slices: Mutex<Vec<SliceCell>>,
}

/// Splits `n` cores and slices into `workers` contiguous chunks: the
/// main thread owns the first (its size is returned) and each spawned
/// worker gets a slot for one of the rest, in order. Results do not
/// depend on the partition, so any balanced split works; the remainder
/// goes to the last chunks, since the main thread also runs the serial
/// steps.
fn new_slots(n: usize, workers: usize) -> (usize, Vec<Slot>) {
    let base = n / workers;
    let extra = n % workers;
    let slots: Vec<Slot> = (1..workers)
        .map(|w| {
            let len = base + usize::from(w >= workers - extra);
            Slot {
                len,
                cores: Mutex::new(Vec::with_capacity(len)),
                slices: Mutex::new(Vec::with_capacity(len)),
            }
        })
        .collect();
    (base, slots)
}

// lint: region(barrier-worker)
/// Moves the home cells after the main thread's own first `own` into
/// the spawned workers' slots, chunk by chunk.
fn hand_out<T>(
    home: &mut Vec<T>,
    own: usize,
    slots: &[Slot],
    get: impl Fn(&Slot) -> &Mutex<Vec<T>>,
) {
    let mut rest = home.drain(own.min(home.len())..);
    for slot in slots {
        lock(get(slot)).extend(rest.by_ref().take(slot.len));
    }
}

// lint: region(barrier-worker)
/// Moves every worker's cells back behind the main thread's own chunk,
/// in worker (= core/slice) order.
fn take_back<T>(home: &mut Vec<T>, slots: &[Slot], get: impl Fn(&Slot) -> &Mutex<Vec<T>>) {
    for slot in slots {
        home.append(&mut lock(get(slot)));
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
/// [`Machine::access`] calls) against the core's own shard.
fn run_core_epoch(cell: &mut CoreCell, lat: Latencies, cap: u64) {
    if cell.finished.is_some() {
        return;
    }
    debug_assert!(
        cell.pending.is_none(),
        "unmerged transaction at epoch start"
    );
    let caches = match cell.caches.as_mut() {
        Some(c) => c,
        None => unreachable!("core part checked out"),
    };
    let stats = match cell.stats.as_mut() {
        Some(s) => s,
        None => unreachable!("core part checked out"),
    };
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
/// the main thread while both cell kinds are home; only `slice_of` (the
/// hash, never the checked-out parts) is consulted on the machine.
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

/// Phase B: drains one slice's inbox in the canonical `(ready, core)`
/// order — the serial scheduler's key, and unique because each core parks
/// at most one transaction — performing the directory requests.
fn drain_slice(scell: &mut SliceCell) {
    scell.inbox.sort_unstable_by_key(|e| (e.ready, e.core));
    let slice = match scell.slice.as_mut() {
        Some(s) => s,
        None => unreachable!("slice part checked out"),
    };
    for e in scell.inbox.drain(..) {
        let resp = slice.request(e.line, CoreId(e.core), e.kind);
        scell.outbox.push((e.core, resp));
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

/// The run-local cells viewed as `CoherentParts`, so the merge can run
/// the same generic response-application code as the serial engine
/// without reassembling the machine.
struct PartView<'a> {
    cells: &'a mut [CoreCell],
    scells: &'a mut [SliceCell],
}

impl CoherentParts for PartView<'_> {
    fn caches(&mut self, core: usize) -> &mut PrivateCaches {
        match self.cells[core].caches.as_mut() {
            Some(c) => c,
            None => unreachable!("core part checked out"),
        }
    }

    fn core_stats(&mut self, core: usize) -> &mut CoreStats {
        match self.cells[core].stats.as_mut() {
            Some(s) => s,
            None => unreachable!("core part checked out"),
        }
    }

    fn slice(&mut self, slice: usize) -> &mut dyn DirSlice {
        match self.scells[slice].slice.as_mut() {
            Some(s) => s.as_mut(),
            None => unreachable!("slice part checked out"),
        }
    }
}

/// Moves every checked-out part back into the machine (hook calls and run
/// end). The shuttle vectors are handed to the machine whole and come back
/// through [`with_whole_machine`] with their capacity intact.
fn give_parts_to_machine(
    machine: &mut Machine,
    cells: &mut [CoreCell],
    scells: &mut [SliceCell],
    shuttle: &mut Shuttle,
) {
    for cell in cells.iter_mut() {
        shuttle.caches.push(match cell.caches.take() {
            Some(c) => c,
            None => unreachable!("core part drained twice"),
        });
        shuttle.stats.push(match cell.stats.take() {
            Some(s) => s,
            None => unreachable!("core part drained twice"),
        });
    }
    for scell in scells.iter_mut() {
        shuttle.slices.push(match scell.slice.take() {
            Some(s) => s,
            None => unreachable!("slice part drained twice"),
        });
    }
    machine.restore_parts(
        std::mem::take(&mut shuttle.caches),
        std::mem::take(&mut shuttle.stats),
        std::mem::take(&mut shuttle.slices),
    );
}

/// Runs `hook` against the whole machine: moves every part back in, then
/// checks them out again. The fault-injection and `check`-feature oracle
/// hooks need to walk one coherent machine.
fn with_whole_machine(
    machine: &mut Machine,
    cells: &mut [CoreCell],
    scells: &mut [SliceCell],
    shuttle: &mut Shuttle,
    hook: impl FnOnce(&mut Machine),
) {
    give_parts_to_machine(machine, cells, scells, shuttle);
    hook(machine);
    let (caches, stats, slices) = machine.take_parts();
    shuttle.caches = caches;
    shuttle.stats = stats;
    shuttle.slices = slices;
    for (cell, caches) in cells.iter_mut().zip(shuttle.caches.drain(..)) {
        cell.caches = Some(caches);
    }
    for (cell, stats) in cells.iter_mut().zip(shuttle.stats.drain(..)) {
        cell.stats = Some(stats);
    }
    for (scell, slice) in scells.iter_mut().zip(shuttle.slices.drain(..)) {
        scell.slice = Some(slice);
    }
}

/// The merge step: applies every parked transaction's response in global
/// `(ready, core)` order — the same order each slice used in phase B, so
/// the directory's assumptions (who holds what) hold again when the
/// response lands. The responses go through the machine's own response
/// path (`apply_response_in`) against the cells, viewed as
/// [`PartView`]: no part moves, no locks, no allocation. Parts return to
/// the machine only around the hooks — the fault-injection step before
/// the responses when a fault is armed, the `check`-feature oracle after
/// them.
fn merge(machine: &mut Machine, state: &mut RunState, total_retired: &mut u64) {
    let RunState {
        cells,
        scells,
        responses,
        order,
        shuttle,
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
    if machine.fault.is_some() {
        with_whole_machine(machine, cells, scells, shuttle, |m| {
            m.fault_epoch(epoch_retired);
        });
    }
    let (mut ctx, _) = machine.split_apply();
    for &(_, i) in order.iter() {
        let txn = match cells[i].pending.take() {
            Some(t) => t,
            None => unreachable!("merge order lists a core without a transaction"),
        };
        let resp = match responses[i].take() {
            Some(r) => r,
            None => unreachable!("pending transaction without a directory response"),
        };
        let mut view = PartView {
            cells: &mut *cells,
            scells: &mut *scells,
        };
        let latency = apply_response_in(
            &mut ctx,
            &mut view,
            CoreId(i),
            txn.access.line,
            txn.slice,
            txn.probe,
            &resp,
        )
        .latency;
        let cell = &mut cells[i];
        cell.instructions += u64::from(txn.access.gap) + 1;
        cell.accesses += 1;
        cell.ready += u64::from(txn.access.gap) + latency;
    }
    #[cfg(feature = "check")]
    with_whole_machine(machine, cells, scells, shuttle, |m| {
        m.oracle_epoch(epoch_retired);
    });
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

// lint: region(barrier-worker)
/// Records the first failure; later ones (usually cascades of the first)
/// are dropped.
fn record_failure(failure: &Mutex<Option<Box<dyn Any + Send>>>, p: Box<dyn Any + Send>) {
    let mut slot = lock(failure);
    if slot.is_none() {
        *slot = Some(p);
    }
}

// lint: region(barrier-worker)
/// Runs one of the main thread's steps under its own `catch_unwind`: a
/// panic is recorded instead of unwinding past the next barrier crossing.
/// Returns whether the step completed.
fn guarded(failure: &Mutex<Option<Box<dyn Any + Send>>>, step: impl FnOnce()) -> bool {
    match catch_unwind(AssertUnwindSafe(step)) {
        Ok(()) => true,
        Err(p) => {
            record_failure(failure, p);
            false
        }
    }
}

// lint: region(barrier-worker)
/// A spawned worker's epoch loop: phase A over its core chunk, phase B
/// over its slice chunk, four barrier crossings per epoch. Returns when
/// the main thread raises `done` at an epoch-start crossing. Panics
/// inside the loop are caught by the spawning closure's `catch_unwind`,
/// but keeping the loop itself panic-free (the region rule) means the
/// drain protocol is a second line of defense, not the first.
fn worker_loop(
    slot: &Slot,
    barrier: &EpochBarrier,
    w: usize,
    done: &AtomicBool,
    lat: Latencies,
    cap: u64,
) {
    loop {
        barrier.wait(w); // (1) epoch start
        if done.load(Ordering::Acquire) {
            return;
        }
        {
            let mut cells = lock(&slot.cores);
            for cell in cells.iter_mut() {
                run_core_epoch(cell, lat, cap);
            }
        }
        barrier.wait(w); // (2) phase A done
        barrier.wait(w); // (3) routing done
        {
            let mut scells = lock(&slot.slices);
            for scell in scells.iter_mut() {
                drain_slice(scell);
            }
        }
        barrier.wait(w); // (4) phase B done
    }
}

/// The epoch loop on `workers` threads: the calling thread is worker 0
/// and `workers - 1` persistent scoped threads are spawned, so the
/// barrier has exactly `workers` participants. Each worker owns a
/// contiguous chunk of cores and slices; spawned workers get theirs
/// through their slot, while the calling thread's chunk stays in the
/// home vectors. Besides its phase-A and phase-B shares, the calling
/// thread runs top-up, routing and the merge between barrier crossings.
///
/// A panic anywhere is caught once and recorded. A panicking spawned
/// worker falls into a drain loop that keeps every barrier honored until
/// the calling thread announces shutdown; each calling-thread step that
/// may panic (top-up, its phase shares, the merge) runs under its own
/// `catch_unwind` ([`guarded`]) and still reaches every crossing — so the
/// protocol drains instead of deadlocking. Everything else between
/// barrier crossings must be panic-free, which the region annotation
/// makes the lint gate enforce.
// lint: region(barrier-worker)
#[allow(clippy::too_many_arguments)]
fn run_threaded(
    machine: &mut Machine,
    streams: &mut [Box<dyn AccessStream + '_>],
    cap: u64,
    workers: usize,
    state: &mut RunState,
    opts: SlicedOptions,
    lat: Latencies,
) -> Option<Box<dyn Any + Send>> {
    let (own, slots) = new_slots(state.cells.len(), workers);
    let barrier = EpochBarrier::new(workers);
    let done = AtomicBool::new(false);
    let failure: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let mut total_retired = 0u64;
    std::thread::scope(|scope| {
        for (w, slot) in (1..).zip(&slots) {
            let barrier = &barrier;
            let done = &done;
            let failure = &failure;
            scope.spawn(move || {
                barrier.register(w);
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                    worker_loop(slot, barrier, w, done, lat, cap);
                })) {
                    record_failure(failure, p);
                    loop {
                        barrier.wait(w);
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                    }
                }
            });
        }
        barrier.register(0);
        // Under pipelining the next epoch's top-up already ran during this
        // epoch's phase B; `topped_up` skips the loop-top one.
        let mut topped_up = false;
        loop {
            if lock(&failure).is_some() {
                done.store(true, Ordering::Release);
                barrier.wait(0); // release workers at (1); they see `done`
                break;
            }
            if !topped_up
                && !guarded(&failure, || {
                    top_up(&mut state.cells, streams, cap, opts.epoch_batch);
                })
            {
                continue; // exits through the failure branch above
            }
            topped_up = false;
            if all_finished(&state.cells) {
                done.store(true, Ordering::Release);
                barrier.wait(0);
                break;
            }
            hand_out(&mut state.cells, own, &slots, |s| &s.cores);
            barrier.wait(0); // (1)
            guarded(&failure, || {
                // The calling thread's own cores: the only cells home now.
                for cell in state.cells.iter_mut() {
                    run_core_epoch(cell, lat, cap);
                }
            });
            barrier.wait(0); // (2) phase A done
            take_back(&mut state.cells, &slots, |s| &s.cores);
            route(machine, &mut state.cells, &mut state.scells);
            hand_out(&mut state.scells, own, &slots, |s| &s.slices);
            barrier.wait(0); // (3)
            guarded(&failure, || {
                for scell in state.scells.iter_mut() {
                    drain_slice(scell);
                }
            });
            if opts.pipeline {
                // Overlap the next epoch's top-up with the workers' phase
                // B: they only touch slice cells between (3) and (4),
                // while top-up touches streams and core cells — disjoint
                // state, so this is pure overlap (see the module docs).
                topped_up = guarded(&failure, || {
                    top_up(&mut state.cells, streams, cap, opts.epoch_batch);
                });
            }
            barrier.wait(0); // (4) phase B done
            take_back(&mut state.scells, &slots, |s| &s.slices);
            if lock(&failure).is_some() {
                continue; // skip merging half-built state; exit at loop top
            }
            collect_responses(&mut state.scells, &mut state.responses);
            guarded(&failure, || merge(machine, state, &mut total_retired));
        }
    });
    let first = lock(&failure).take();
    first
}

/// Returns the machine's parts at run end. If a panicking hook call left
/// them already restored (the hooks run with a reassembled machine), the
/// machine is whole and there is nothing to do.
fn restore_at_end(machine: &mut Machine, state: &mut RunState) {
    if !machine.cores.is_empty() {
        return;
    }
    give_parts_to_machine(
        machine,
        &mut state.cells,
        &mut state.scells,
        &mut state.shuttle,
    );
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
/// machine's core count, and re-raises panics from streams or from the
/// `check`-feature oracle (the machine is left unusable in that case).
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
    let lat = machine.config().latencies;
    let mut state = new_run_state(machine, options.epoch_batch);

    machine.lenient = true;
    let failure = run_threaded(
        machine,
        streams,
        max_accesses_per_core,
        workers,
        &mut state,
        options,
        lat,
    );
    machine.lenient = false;
    restore_at_end(machine, &mut state);
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

    /// A panicking stream must unwind cleanly out of the threaded engine —
    /// no deadlocked barrier, no poisoned worker left behind. (The test
    /// completing at all is the deadlock check.) Runs with and without
    /// pipelining — the pipelined top-up panics between barrier crossings
    /// (3) and (4), the unpipelined one outside the epoch — at 1, 2 and 4
    /// slice threads, with the bomb in the calling thread's own partition
    /// (core 0) and in the last worker's (core 3; the calling thread's own
    /// at 1 thread).
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
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        run_workload_sliced_with(&mut m, &mut s, u64::MAX, threads, options)
                    }));
                    let payload = result.err().unwrap_or_else(|| {
                        panic!(
                            "no panic: {threads} threads, bomb on core {bomb}, pipeline {pipeline}"
                        )
                    });
                    let message = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied());
                    assert_eq!(message, Some("bomb went off"));
                }
            }
        }
    }

    /// Hammers the barrier with 100k crossings at 2, 3 and 8
    /// participants. On hosts with fewer than 8 CPUs the last case is
    /// oversubscribed, so between them the spin, yield and park tiers
    /// all run. After every crossing each participant must see exactly
    /// the next generation (in order, none skipped) and every arrival of
    /// that round (no early release); the test finishing at all rules out
    /// a lost wake-up.
    #[test]
    fn epoch_barrier_releases_every_generation_in_order() {
        const CROSSINGS: usize = 100_000;
        for participants in [2, 3, 8] {
            let barrier = EpochBarrier::new(participants);
            let arrivals = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for id in 0..participants {
                    let (barrier, arrivals) = (&barrier, &arrivals);
                    scope.spawn(move || {
                        barrier.register(id);
                        for round in 0..CROSSINGS {
                            arrivals.fetch_add(1, Ordering::SeqCst);
                            barrier.wait(id);
                            assert_eq!(
                                barrier.generation.load(Ordering::SeqCst),
                                round + 1,
                                "{participants} participants: generation out of order"
                            );
                            // Everyone arrived for this round; only the
                            // others can have arrived for the next one.
                            let seen = arrivals.load(Ordering::SeqCst);
                            assert!(
                                seen >= (round + 1) * participants
                                    && seen < (round + 2) * participants,
                                "{participants} participants: {seen} arrivals after round {round}"
                            );
                        }
                    });
                }
            });
        }
    }
}
