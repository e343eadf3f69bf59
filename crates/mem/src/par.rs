//! Thread fan-out: the one place in the workspace that starts worker
//! threads.
//!
//! Two shapes cover every parallel loop:
//!
//! * [`for_each_claimed`] — independent items (sweep cells, checker
//!   expansion chunks). Participants claim item indices from one atomic
//!   counter; the calling thread is participant 0, so `threads = 1` runs
//!   inline and spawns nothing.
//! * [`run_crew`] — a persistent crew that works in lock-step *rounds*
//!   separated by a sense-reversing epoch barrier (the sliced engine's
//!   epochs, serve's ticks). The calling thread leads as participant 0
//!   beside `participants − 1` spawned workers, and the crew owns the
//!   drain-on-panic protocol: a panicking worker records its payload and
//!   keeps honouring every barrier crossing, so nothing deadlocks and the
//!   first panic comes back to the caller.
//!
//! A crew's per-participant state moves through a [`Handoff`] (the
//! sliced engine's cores and slices, serve's tenants).
//!
//! Results never depend on the participant count: each item or share of
//! a round is a pure function of its index, and callers merge in index
//! order.

use std::any::Any;
use std::hint;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// A panic payload, as [`catch_unwind`] returns it.
pub type Panic = Box<dyn Any + Send>;

/// CPUs available to this process (1 when the host will not say).
pub fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Calls `f(i, &mut items[i])` exactly once for every index, on up to
/// `threads` participants. The calling thread is participant 0 and
/// `threads.min(items.len()) − 1` scoped threads are spawned; every
/// participant claims the next unvisited index from one atomic counter
/// until none is left. With one participant the loop runs inline, in
/// index order, and spawns nothing.
///
/// A panic in `f` propagates to the caller once every participant has
/// stopped; callers that must survive a failing item catch it inside
/// `f`.
pub fn for_each_claimed<S, F>(items: &mut [S], threads: usize, f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let participants = threads.min(items.len());
    if participants <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    // Each item sits behind its own uncontended mutex: the claim counter
    // hands every index to exactly one participant.
    let slots: Vec<Mutex<&mut S>> = items.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let claim = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        f(i, &mut lock(slot));
    };
    std::thread::scope(|scope| {
        for _ in 1..participants {
            scope.spawn(claim);
        }
        claim();
    });
}

// The items marked as `barrier-worker` regions below run inside the
// barrier itself or between crossings outside every catch_unwind net. A
// panic there strands the other side of the barrier (see the
// `barrier-panic` lint rule in secdir-verif).

/// Locks a mutex, shrugging off poisoning: a participant that panicked
/// has already recorded its failure, and the survivors still need the
/// data to wind down or to reassemble what the panic interrupted.
// lint: region(barrier-worker)
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Contiguous chunks of a crew's items, moved as whole `Vec`s. The lead
/// (participant 0) keeps chunk 0 in its home vector; spawned participant
/// `id` gets chunk `id` through a slot. [`Handoff::hand_out`] before the
/// round-start crossing and [`Handoff::take_back`] after the round's last
/// one take one uncontended lock per spawned participant each, none at
/// one participant, and never allocate: each slot keeps its chunk's
/// capacity.
pub struct Handoff<T> {
    /// Length of the lead's chunk.
    own: usize,
    /// `(chunk length, chunk)` per spawned participant, ids `1..`.
    slots: Vec<(usize, Mutex<Vec<T>>)>,
}

// lint: region(barrier-worker)
impl<T> Handoff<T> {
    /// Splits `n` items over `participants` contiguous chunks, the
    /// remainder on the last ones: the lead also runs the serial steps.
    pub fn new(n: usize, participants: usize) -> Self {
        let participants = participants.max(1);
        let (base, extra) = (n / participants, n % participants);
        let slots = (1..participants)
            .map(|id| {
                let len = base + usize::from(id >= participants - extra);
                (len, Mutex::new(Vec::with_capacity(len)))
            })
            .collect();
        Handoff { own: base, slots }
    }

    /// Moves every item of `home` (the `n` items of [`Handoff::new`])
    /// past the lead's chunk into the spawned participants' slots.
    pub fn hand_out(&self, home: &mut Vec<T>) {
        let mut rest = home.drain(self.own.min(home.len())..);
        for (len, slot) in &self.slots {
            lock(slot).extend(rest.by_ref().take(*len));
        }
    }

    /// Appends every slot's chunk back to `home`, in participant (= item)
    /// order.
    pub fn take_back(&self, home: &mut Vec<T>) {
        for (_, slot) in &self.slots {
            home.append(&mut lock(slot));
        }
    }

    /// Spawned participant `id`'s chunk, locked for the round; `None` for
    /// the lead, whose chunk stays home. Drop the guard before the next
    /// crossing.
    pub fn chunk(&self, id: usize) -> Option<MutexGuard<'_, Vec<T>>> {
        let (_, slot) = self.slots.get(id.checked_sub(1)?)?;
        Some(lock(slot))
    }
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

// lint: region(barrier-worker)
impl EpochBarrier {
    fn new(participants: usize) -> Self {
        // A lone participant never waits, so it skips the CPU-count query.
        let spin = participants == 1 || available_cpus() >= participants;
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
        // Ids are 0 for the lead and 1.. for the spawned workers, always
        // < participants; `.get` keeps this total all the same — a panic
        // during registration would strand the already-spinning side.
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

/// What the participants of [`run_crew`] share: the barrier, the
/// shutdown flag and the first recorded panic.
pub struct Crew {
    barrier: EpochBarrier,
    /// Barrier crossings per round, the round-start crossing included.
    crossings: usize,
    /// Raised once `lead` has returned, just before the final round-start
    /// crossing.
    done: AtomicBool,
    failure: Mutex<Option<Panic>>,
}

// lint: region(barrier-worker)
impl Crew {
    /// Crosses the barrier as participant `id`: 0 for the lead, the
    /// worker's own id for a spawned worker.
    pub fn wait(&self, id: usize) {
        self.barrier.wait(id);
    }

    /// Whether any participant has recorded a panic.
    pub fn failed(&self) -> bool {
        lock(&self.failure).is_some()
    }

    /// Runs one of the lead's steps under its own `catch_unwind`: a panic
    /// is recorded instead of unwinding past the next barrier crossing.
    /// Returns whether the step completed.
    pub fn guarded(&self, step: impl FnOnce()) -> bool {
        match catch_unwind(AssertUnwindSafe(step)) {
            Ok(()) => true,
            Err(p) => {
                self.record(p);
                false
            }
        }
    }

    /// Records the first failure; later ones (usually cascades of the
    /// first) are dropped.
    fn record(&self, p: Panic) {
        let mut slot = lock(&self.failure);
        if slot.is_none() {
            *slot = Some(p);
        }
    }

    /// A spawned worker: one `round` per round-start crossing until the
    /// lead raises `done`. A panicking round is recorded, and the worker
    /// then drains — it keeps crossing the barrier, so the others never
    /// wait for it, and stops only at the round start that carries
    /// `done`. The generation word counts crossings, so a drainer knows
    /// which crossings start rounds even when it panicked mid-round.
    fn work(&self, w: usize, round: &(impl Fn(&Crew, usize) + Sync)) {
        self.barrier.register(w);
        let ran = catch_unwind(AssertUnwindSafe(|| loop {
            self.barrier.wait(w);
            if self.done.load(Ordering::Acquire) {
                return;
            }
            round(self, w);
        }));
        if let Err(p) = ran {
            self.record(p);
            loop {
                let round_start = self
                    .barrier
                    .generation
                    .load(Ordering::Acquire)
                    .is_multiple_of(self.crossings);
                self.barrier.wait(w);
                if round_start && self.done.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

/// Runs a crew of `participants` threads in lock-step rounds of
/// `crossings` barrier crossings each, the round-start crossing included.
///
/// The calling thread runs `lead` as participant 0 and spawns
/// `participants − 1` workers, ids `1..participants`. After every
/// round-start crossing each worker calls `round(crew, id)`, which must
/// cross the barrier `crossings − 1` more times. `lead` drives the rounds:
/// per round it crosses `crossings` times (`crew.wait(0)`), doing its own
/// share and any serial steps in between, and it returns between rounds
/// when the work is done. Steps of the lead that may panic between
/// crossings go through [`Crew::guarded`]; a panic that escapes `lead`
/// itself must happen between rounds. The crew then raises `done`,
/// crosses once more to release the workers and joins them.
///
/// Returns `lead`'s result, or the first recorded panic.
///
/// # Panics
///
/// Panics if `participants` or `crossings` is zero.
pub fn run_crew<R>(
    participants: usize,
    crossings: usize,
    round: impl Fn(&Crew, usize) + Sync,
    lead: impl FnOnce(&Crew) -> R,
) -> Result<R, Panic> {
    assert!(participants >= 1, "a crew needs at least one participant");
    assert!(crossings >= 1, "a round needs at least one crossing");
    let crew = Crew {
        barrier: EpochBarrier::new(participants),
        crossings,
        done: AtomicBool::new(false),
        failure: Mutex::new(None),
    };
    let led = std::thread::scope(|scope| {
        for w in 1..participants {
            let (crew, round) = (&crew, &round);
            scope.spawn(move || crew.work(w, round));
        }
        crew.barrier.register(0);
        let led = catch_unwind(AssertUnwindSafe(|| lead(&crew)));
        crew.done.store(true, Ordering::Release);
        crew.barrier.wait(0);
        led
    });
    match crew
        .failure
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        Some(p) => Err(p),
        None => led,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_is_visited_exactly_once() {
        for threads in [1, 2, 8] {
            for n in [0, 1, 3, 1000] {
                let mut items: Vec<(usize, u32)> = vec![(usize::MAX, 0); n];
                for_each_claimed(&mut items, threads, |i, item| {
                    item.0 = i;
                    item.1 += 1;
                });
                for (i, &(seen, visits)) in items.iter().enumerate() {
                    assert_eq!((seen, visits), (i, 1), "{threads} threads, {n} items");
                }
            }
        }
    }

    #[test]
    fn one_participant_runs_inline_in_index_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let mut items = [(); 5];
        for_each_claimed(&mut items, 1, |i, _| {
            assert_eq!(std::thread::current().id(), caller);
            lock(&order).push(i);
        });
        assert_eq!(*lock(&order), [0, 1, 2, 3, 4]);
    }

    /// Each item reaches exactly one participant, chunks are contiguous,
    /// the lead's chunk never leaves home, and `take_back` restores the
    /// order — under even and uneven splits, more participants than
    /// items included.
    #[test]
    fn a_handoff_gives_every_item_to_one_participant_and_restores_order() {
        for participants in 1..=5 {
            for n in [0, 1, 2, 7, 10] {
                let handoff = Handoff::new(n, participants);
                let mut home: Vec<usize> = (0..n).collect();
                for _round in 0..2 {
                    handoff.hand_out(&mut home);
                    assert!(handoff.chunk(0).is_none());
                    assert!(handoff.chunk(participants).is_none());
                    let (mut seen, mut sizes) = (home.clone(), vec![home.len()]);
                    for id in 1..participants {
                        let chunk = handoff.chunk(id).unwrap_or_else(|| panic!("chunk {id}"));
                        seen.extend(chunk.iter());
                        sizes.push(chunk.len());
                    }
                    assert_eq!(seen, (0..n).collect::<Vec<_>>(), "{participants} over {n}");
                    let balanced = sizes.iter().all(|&s| s.abs_diff(n / participants) <= 1);
                    assert!(balanced, "unbalanced split {sizes:?}");
                    handoff.take_back(&mut home);
                    assert_eq!(home, (0..n).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn a_crew_runs_every_round_on_every_worker() {
        for participants in [1, 2, 3] {
            let rounds = AtomicUsize::new(0);
            let led = run_crew(
                participants,
                2,
                |crew, w| {
                    rounds.fetch_add(1, Ordering::SeqCst);
                    crew.wait(w);
                },
                |crew| {
                    for _ in 0..10 {
                        crew.wait(0);
                        crew.wait(0);
                    }
                    7
                },
            );
            assert_eq!(led.ok(), Some(7));
            assert_eq!(rounds.load(Ordering::SeqCst), 10 * (participants - 1));
        }
    }

    /// A worker that panics at any crossing of any round hands its payload
    /// back and the crew still winds down: the drainer keeps crossing, and
    /// leaves only at the round start that carries `done`, even when it
    /// panicked mid-round. (The test finishing at all is the deadlock
    /// check.)
    #[test]
    fn a_panicking_worker_hands_back_its_payload_without_deadlock() {
        const CROSSINGS: usize = 3;
        const ROUNDS: usize = 4;
        for participants in [2, 3] {
            for k in 1..=ROUNDS * CROSSINGS {
                let round_no = AtomicUsize::new(0);
                let led = run_crew(
                    participants,
                    CROSSINGS,
                    |crew, w| {
                        let r = round_no.load(Ordering::SeqCst);
                        for c in 1..CROSSINGS {
                            assert!(w != 1 || r * CROSSINGS + c != k, "boom at {k}");
                            crew.wait(w);
                        }
                        assert!(w != 1 || (r + 1) * CROSSINGS != k, "boom at {k}");
                    },
                    |crew| {
                        for r in 0..ROUNDS {
                            round_no.store(r, Ordering::SeqCst);
                            for _ in 0..CROSSINGS {
                                crew.wait(0);
                            }
                        }
                    },
                );
                let payload = led.err().unwrap_or_else(|| panic!("no panic at {k}"));
                let message = payload.downcast_ref::<String>().map(String::as_str);
                assert_eq!(message, Some(format!("boom at {k}").as_str()));
            }
        }
    }

    #[test]
    fn a_failed_lead_step_is_handed_back() {
        let led = run_crew(
            2,
            1,
            |_, _| {},
            |crew| {
                crew.wait(0);
                assert!(!crew.guarded(|| panic!("lead step")));
                assert!(crew.failed());
            },
        );
        let payload = led.err().unwrap_or_else(|| panic!("no panic"));
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"lead step"));
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
