//! Host timing for the traced run: timer calibration, call probes and the
//! span recorder.
//!
//! Every layer is timed from outside, around calls into its public API.
//! A timed call reads the clock twice; the calibration measures what
//! those reads cost so it can be taken back out of per-call averages.

use std::io::{self, Write};
use std::time::Instant;

use crate::json::quote;

/// The cost of reading the clock, measured on this host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimerCal {
    /// Host time one timed span adds to the run: two clock reads.
    pub pair_ns: f64,
    /// What an empty span reads as; subtracted from every timed call.
    pub bias_ns: f64,
}

impl TimerCal {
    /// Median over rounds of back-to-back clock-read pairs.
    pub fn measure() -> TimerCal {
        const ROUNDS: usize = 21;
        const PAIRS: u32 = 20_000;
        let mut pair = Vec::with_capacity(ROUNDS);
        let mut bias = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let mut inside = 0u128;
            let round = Instant::now();
            for _ in 0..PAIRS {
                let a = Instant::now();
                let b = Instant::now();
                inside += (b - a).as_nanos();
            }
            pair.push(round.elapsed().as_nanos() as f64 / f64::from(PAIRS));
            bias.push(inside as f64 / f64::from(PAIRS));
        }
        pair.sort_by(f64::total_cmp);
        bias.sort_by(f64::total_cmp);
        TimerCal {
            pair_ns: pair[ROUNDS / 2],
            bias_ns: bias[ROUNDS / 2],
        }
    }

    /// Mean cost of one call, from `total_ns` measured over `calls`
    /// individually timed calls, with the clock's own reading removed.
    pub fn per_call(&self, total_ns: u64, calls: u64) -> f64 {
        if calls == 0 {
            return 0.0;
        }
        (total_ns as f64 / calls as f64 - self.bias_ns).max(0.0)
    }

    /// A parent's self time less the clock reads of its `spans` children
    /// that fall outside the children's own intervals.
    pub fn exclusive(&self, self_ns: u64, spans: u64) -> f64 {
        (self_ns as f64 - spans as f64 * (self.pair_ns - self.bias_ns)).max(0.0)
    }
}

/// Accumulates timed calls into numbered slots. `Off` compiles to nothing,
/// so one generic driver serves the traced and untraced runs.
pub trait Probe {
    fn now(&self) -> u64;
    fn add(&mut self, slot: usize, start: u64);
}

pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }

    #[inline(always)]
    fn add(&mut self, _slot: usize, _start: u64) {}
}

pub struct Timed<const N: usize> {
    origin: Instant,
    pub ns: [u64; N],
    pub calls: [u64; N],
}

impl<const N: usize> Timed<N> {
    pub fn new() -> Self {
        Timed {
            origin: Instant::now(),
            ns: [0; N],
            calls: [0; N],
        }
    }

    /// Mean corrected ns per call of `slot`.
    pub fn per_call(&self, cal: &TimerCal, slot: usize) -> f64 {
        cal.per_call(self.ns[slot], self.calls[slot])
    }
}

impl<const N: usize> Probe for Timed<N> {
    #[inline(always)]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline(always)]
    fn add(&mut self, slot: usize, start: u64) {
        self.ns[slot] += self.now() - start;
        self.calls[slot] += 1;
    }
}

/// One timed interval. Spans of one window, op or pass share a
/// `trace_id`; `parent` is the span that caused this one.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Directory kind or journal format the span ran with, if any.
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory for the whole run and written out at exit.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    traces: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            traces: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The instant span times count from, for probes that record their
    /// own events.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn new_trace(&mut self) -> u64 {
        self.traces += 1;
        self.traces
    }

    /// Opens a span ending at `u64::MAX` until [`Tracer::close`].
    pub fn open(
        &mut self,
        trace_id: u64,
        parent: Option<u64>,
        name: &'static str,
        label: &'static str,
    ) -> u64 {
        let start = self.now_ns();
        self.record(trace_id, parent, name, label, start, u64::MAX)
    }

    pub fn close(&mut self, span_id: u64) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[span_id as usize - 1];
        span.end_ns = end;
        end - span.start_ns
    }

    pub fn record(
        &mut self,
        trace_id: u64,
        parent: Option<u64>,
        name: &'static str,
        label: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let span_id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            trace_id,
            span_id,
            parent,
            name,
            label,
            start_ns,
            end_ns,
        });
        span_id
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let name = if s.label.is_empty() {
                s.name.to_string()
            } else {
                format!("{}.{}", s.name, s.label)
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace_id\":{},\"span_id\":{},\"parent\":{parent},\"name\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.trace_id,
                s.span_id,
                quote(&name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of a span from `start` to `end`: its duration less the union
/// of its children's intervals, clipped to its own.
pub fn self_ns(start: u64, end: u64, children: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut kids: Vec<(u64, u64)> = children
        .map(|(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let kids = [
            (10, 30),
            (20, 40),   // overlaps the first: counted once
            (90, 120),  // clipped at the parent's end
            (150, 160), // outside the parent
        ];
        assert_eq!(self_ns(0, 100, kids.into_iter()), 100 - 30 - 10);
        assert_eq!(self_ns(0, 100, std::iter::empty()), 100);
    }

    #[test]
    fn calibration_is_subtracted_per_call_and_per_span() {
        let cal = TimerCal {
            pair_ns: 80.0,
            bias_ns: 40.0,
        };
        // 10 calls read as 1000 ns: 100 ns each, of which 40 is the clock.
        assert_eq!(cal.per_call(1000, 10), 60.0);
        assert_eq!(cal.per_call(100, 10), 0.0, "never negative");
        assert_eq!(cal.per_call(0, 0), 0.0);
        // Half of each pair lands inside the child spans, half outside.
        assert_eq!(cal.exclusive(5_000, 50), 3_000.0);
        assert_eq!(cal.exclusive(1_000, 50), 0.0);
    }

    #[test]
    fn measured_calibration_is_plausible() {
        let cal = TimerCal::measure();
        assert!(cal.bias_ns > 0.0 && cal.bias_ns < 10_000.0, "{cal:?}");
        assert!(cal.pair_ns >= cal.bias_ns, "{cal:?}");
    }

    #[test]
    fn tracer_records_a_tree_and_writes_jsonl() {
        let mut t = Tracer::new();
        let trace = t.new_trace();
        let root = t.open(trace, None, "op", "");
        let child = t.open(trace, Some(root), "run", "binary");
        let inner = t.close(child);
        let total = t.close(root);
        assert!(inner <= total);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"run.binary\""));
        assert!(text.contains(&format!("\"parent\":{root}")));
    }
}
