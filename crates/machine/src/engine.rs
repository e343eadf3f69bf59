//! The multi-stream timing engine.
//!
//! Each core executes an [`AccessStream`]; between memory accesses it
//! retires `gap` non-memory instructions at one per cycle (the paper's
//! simple in-order timing; both configurations are measured identically, so
//! the normalized metrics of Figures 7 and 8 are preserved). Cores advance
//! in global-time order, so cross-core interleavings — the substance of
//! directory conflicts — are modeled faithfully at transaction granularity.
//!
//! This serial engine is the *reference semantics*. The slice-parallel
//! engine ([`crate::run_workload_sliced`], module `sliced`) runs the same
//! workloads with directory slices on worker threads under an
//! epoch-barrier timing model; its canonical drain order reuses this
//! engine's scheduler key (`(ready, core)`), and a single-core sliced run
//! is bit-identical to this engine.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use secdir_mem::{CoreId, LineAddr};
use serde::{Deserialize, Serialize};

use crate::machine::Machine;
use crate::{run_workload_sliced_with, SlicedOptions};

/// One memory reference of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// The line touched.
    pub line: LineAddr,
    /// Whether the access is a store.
    pub write: bool,
    /// Non-memory instructions retired before this access (1 cycle each).
    pub gap: u32,
}

impl Access {
    /// A read with no leading gap.
    pub fn read(line: LineAddr) -> Self {
        Access {
            line,
            write: false,
            gap: 0,
        }
    }

    /// A write with no leading gap.
    pub fn write(line: LineAddr) -> Self {
        Access {
            line,
            write: true,
            gap: 0,
        }
    }

    /// The same access with `gap` leading non-memory instructions.
    pub fn with_gap(mut self, gap: u32) -> Self {
        self.gap = gap;
        self
    }
}

/// A per-core reference stream. Implemented by every workload generator and
/// by any `Iterator<Item = Access>`.
pub trait AccessStream {
    /// The next reference, or `None` when the stream is exhausted.
    fn next_access(&mut self) -> Option<Access>;
}

impl<I: Iterator<Item = Access>> AccessStream for I {
    fn next_access(&mut self) -> Option<Access> {
        self.next()
    }
}

/// Per-core results of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreRun {
    /// Instructions retired (memory accesses + gap instructions).
    pub instructions: u64,
    /// Memory accesses issued.
    pub accesses: u64,
    /// Cycle at which this core finished its stream (or the run cap).
    pub finish_time: u64,
}

impl CoreRun {
    /// Instructions per cycle for this core.
    pub fn ipc(&self) -> f64 {
        if self.finish_time == 0 {
            0.0
        } else {
            self.instructions as f64 / self.finish_time as f64
        }
    }
}

/// Results of [`run_workload`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Per-core results.
    pub cores: Vec<CoreRun>,
    /// Completion time of the whole run (max over cores) — the paper's
    /// "execution time" for multithreaded workloads.
    pub cycles: u64,
}

impl RunSummary {
    /// Mean of the per-core IPCs — the paper's Figure 7(a) metric.
    pub fn mean_ipc(&self) -> f64 {
        let active: Vec<_> = self.cores.iter().filter(|c| c.accesses > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().map(|c| c.ipc()).sum::<f64>() / active.len() as f64
    }

    /// Total instructions over all cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }
}

/// Runs one stream per core until every stream is exhausted or a core has
/// issued `max_accesses_per_core` references, advancing cores in global
/// time order (earliest-ready first, lowest core id on ties).
///
/// `max_accesses_per_core` caps the references issued **during this call
/// only** — the count restarts from zero on every call, it is not
/// cumulative across calls. The streams are borrowed mutably so a caller
/// can run a warm-up phase and then continue the *same* streams for the
/// measured phase (the paper's skip-then-measure methodology): warm up
/// with `run_workload(m, s, warmup)` and then measure with
/// `run_workload(m, s, measure)`, where `measure` is the size of the
/// measured phase itself, *not* `warmup + measure`.
///
/// # Panics
///
/// Panics if `streams.len()` differs from the machine's core count.
pub fn run_workload(
    machine: &mut Machine,
    streams: &mut [Box<dyn AccessStream + '_>],
    max_accesses_per_core: u64,
) -> RunSummary {
    assert_eq!(
        streams.len(),
        machine.num_cores(),
        "one stream per core required"
    );
    let n = streams.len();
    let mut runs = vec![CoreRun::default(); n];

    // A `BinaryHeap` keyed on `(ready, core)` holds one entry per active
    // core; a core re-enqueues itself with its new ready time, so the
    // queue never holds stale entries.
    //
    // Each core's next reference is pulled one ahead of its simulation so
    // the machine can prefetch the metadata rows it will probe while the
    // other cores run (≈ n accesses of host memory latency hidden).
    // Exactness is preserved: streams are per-core independent and still
    // consumed in the same per-core order and count — a reference is only
    // pulled once its predecessor has been counted below the access cap,
    // matching a lazy pull-at-pop discipline.
    enum Pulled {
        /// No reference buffered; ask the stream at the next pop.
        Not,
        /// The core's next reference, already prefetched.
        Ready(Access),
        /// The stream returned `None`; the core finishes at its next
        /// pop, at the same cycle a lazy pull would have discovered the
        /// exhaustion.
        Exhausted,
    }
    let mut pulled: Vec<Pulled> = (0..n).map(|_| Pulled::Not).collect();
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> = (0..n).map(|i| Reverse((0, i))).collect();
    // An advancing core rewrites the top entry in place (one sift-down via
    // `PeekMut`) rather than pop + push (two sifts); the heap holds the
    // same (time, core) keys either way, and keys are unique per core, so
    // the pick order is unchanged.
    while let Some(mut top) = queue.peek_mut() {
        let Reverse((ready, core)) = *top;
        if runs[core].accesses >= max_accesses_per_core {
            runs[core].finish_time = ready;
            PeekMut::pop(top);
            continue;
        }
        let acc = match std::mem::replace(&mut pulled[core], Pulled::Not) {
            Pulled::Ready(acc) => acc,
            Pulled::Not => match streams[core].next_access() {
                Some(acc) => acc,
                None => {
                    runs[core].finish_time = ready;
                    PeekMut::pop(top);
                    continue;
                }
            },
            Pulled::Exhausted => {
                runs[core].finish_time = ready;
                PeekMut::pop(top);
                continue;
            }
        };
        let outcome = machine.access(CoreId(core), acc.line, acc.write);
        runs[core].instructions += u64::from(acc.gap) + 1;
        runs[core].accesses += 1;
        *top = Reverse((ready + u64::from(acc.gap) + outcome.latency, core));
        drop(top);
        if runs[core].accesses < max_accesses_per_core {
            pulled[core] = match streams[core].next_access() {
                Some(next) => {
                    machine.prefetch(CoreId(core), next.line);
                    Pulled::Ready(next)
                }
                None => Pulled::Exhausted,
            };
        }
    }

    let cycles = runs.iter().map(|r| r.finish_time).max().unwrap_or(0);
    RunSummary {
        cores: runs,
        cycles,
    }
}

/// The engine that drives a run: the serial reference engine, or the
/// slice-parallel epoch engine at a thread count with its tuning. The
/// measured-window code ([`crate::sweep::measure_phases`] and `perf`'s
/// timed windows) takes one of these, so each window is written once for
/// both engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// [`run_workload`].
    Serial,
    /// [`run_workload_sliced_with`](crate::run_workload_sliced_with).
    Sliced {
        /// Slice worker threads, the calling thread included.
        threads: usize,
        /// Epoch-engine tuning.
        options: SlicedOptions,
    },
}

impl Engine {
    /// Runs `streams` on `machine` with this engine, issuing at most
    /// `max_accesses_per_core` references per core during this call.
    pub fn run(
        self,
        machine: &mut Machine,
        streams: &mut [Box<dyn AccessStream + '_>],
        max_accesses_per_core: u64,
    ) -> RunSummary {
        match self {
            Engine::Serial => run_workload(machine, streams, max_accesses_per_core),
            Engine::Sliced { threads, options } => {
                run_workload_sliced_with(machine, streams, max_accesses_per_core, threads, options)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectoryKind, MachineConfig};

    fn stream_of(lines: Vec<u64>, gap: u32) -> Box<dyn AccessStream> {
        Box::new(
            lines
                .into_iter()
                .map(move |l| Access::read(LineAddr::new(l)).with_gap(gap)),
        )
    }

    #[test]
    fn single_core_run_counts_instructions() {
        let mut m = Machine::new(MachineConfig::small(1, DirectoryKind::Baseline));
        let s = run_workload(&mut m, &mut [stream_of(vec![1, 2, 3], 4)], u64::MAX);
        assert_eq!(s.cores[0].accesses, 3);
        assert_eq!(s.cores[0].instructions, 15); // 3 × (4 gap + 1)
        assert!(s.cycles > 0);
    }

    #[test]
    fn access_cap_limits_the_run() {
        let mut m = Machine::new(MachineConfig::small(1, DirectoryKind::Baseline));
        let s = run_workload(&mut m, &mut [stream_of((0..100).collect(), 0)], 10);
        assert_eq!(s.cores[0].accesses, 10);
    }

    #[test]
    fn cycles_is_max_over_cores() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        let s = run_workload(
            &mut m,
            &mut [stream_of(vec![1], 0), stream_of((10..60).collect(), 10)],
            u64::MAX,
        );
        assert_eq!(s.cycles, s.cores[1].finish_time);
        assert!(s.cores[1].finish_time > s.cores[0].finish_time);
    }

    #[test]
    fn repeated_lines_get_cache_hit_timing() {
        let mut m = Machine::new(MachineConfig::small(1, DirectoryKind::Baseline));
        let cold = run_workload(&mut m, &mut [stream_of(vec![7], 0)], u64::MAX);
        let mut m2 = Machine::new(MachineConfig::small(1, DirectoryKind::Baseline));
        let warm = run_workload(&mut m2, &mut [stream_of(vec![7, 7, 7], 0)], u64::MAX);
        // Two extra L1 hits cost 8 cycles total.
        assert_eq!(warm.cycles, cold.cycles + 8);
    }

    #[test]
    fn ipc_is_instructions_over_time() {
        let r = CoreRun {
            instructions: 50,
            accesses: 10,
            finish_time: 100,
        };
        assert!((r.ipc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_ipc_ignores_idle_cores() {
        let s = RunSummary {
            cores: vec![
                CoreRun {
                    instructions: 100,
                    accesses: 10,
                    finish_time: 100,
                },
                CoreRun::default(),
            ],
            cycles: 100,
        };
        assert!((s.mean_ipc() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one stream per core")]
    fn stream_count_must_match() {
        let mut m = Machine::new(MachineConfig::small(2, DirectoryKind::Baseline));
        run_workload(&mut m, &mut [stream_of(vec![1], 0)], 10);
    }
}
