//! The `checker-full` workload and the external breadth-first search the
//! traced run times layer by layer.

use std::collections::HashSet;
use std::time::Instant;

use secdir_verif::checker::violated_invariant;
use secdir_verif::pack::unpack;
use secdir_verif::{
    check_opt, CanonTable, CheckOptions, CheckReport, DirKind, Model, ModelConfig, ModelState,
};

use crate::report::{Meter, Outcome, Sample, SETUP_REPS};
use crate::trace::Probe;

/// Worker threads of the timed passes (the host's two CPUs).
pub const THREADS: usize = 2;

/// Canonical states and transitions per kind, in `DirKind::ALL` order, at
/// the full 4-core × 4-line configuration.
pub const FULL_COUNTS: [(usize, usize); 5] = [
    (259, 8_261),
    (417, 13_283),
    (407_323, 16_836_964),
    (34_332, 1_276_060),
    (110, 3_450),
];

/// The same at the quick 2-core × 3-line configuration (smoke runs).
pub const QUICK_COUNTS: [(usize, usize); 5] =
    [(57, 671), (82, 957), (740, 9_893), (652, 8_684), (14, 162)];

pub fn model_config(kind: DirKind, smoke: bool) -> ModelConfig {
    if smoke {
        ModelConfig::quick(kind)
    } else {
        ModelConfig::full(kind)
    }
}

pub fn pinned(smoke: bool) -> &'static [(usize, usize); 5] {
    if smoke {
        &QUICK_COUNTS
    } else {
        &FULL_COUNTS
    }
}

/// Failures of one kind's exploration against its pinned counts.
pub fn check_counts(
    kind: DirKind,
    got: (usize, usize),
    want: (usize, usize),
    violation: Option<&str>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if got != want {
        failures.push(format!(
            "{}: {} states / {} transitions, pinned {} / {}",
            kind.name(),
            got.0,
            got.1,
            want.0,
            want.1
        ));
    }
    if let Some(v) = violation {
        failures.push(format!("{}: violation: {v}", kind.name()));
    }
    failures
}

fn check_report(r: &CheckReport, want: (usize, usize)) -> Vec<String> {
    let violation = r.violation.as_ref().map(|c| c.invariant.as_str());
    check_counts(r.kind, (r.states, r.transitions), want, violation)
}

pub fn run(seconds: f64, smoke: bool, meter: &mut Meter) -> Outcome {
    let mut out = Outcome::new("states");
    let opts = CheckOptions {
        canonicalize: true,
        threads: THREADS,
    };
    meter.speed();
    // Set-up checks every kind at the quick configuration, untimed: the
    // first touch of the checker's code and allocator.
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        for (i, kind) in DirKind::ALL.into_iter().enumerate() {
            let r = check_opt(ModelConfig::quick(kind), &opts);
            out.checks.record(check_report(&r, QUICK_COUNTS[i]));
        }
        let value = start.elapsed().as_secs_f64();
        out.setups.push(Sample {
            value,
            speed: meter.speed(),
        });
    }
    let measure = Instant::now();
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); DirKind::ALL.len()];
    while out.rates.is_empty() || measure.elapsed().as_secs_f64() < seconds {
        let mut failures = Vec::new();
        // A pass takes seconds, so the host speed is sampled around
        // every kind and weighted by its time.
        let (mut states, mut wall, mut speed_wall) = (0usize, 0.0, 0.0);
        for (i, kind) in DirKind::ALL.into_iter().enumerate() {
            let start = Instant::now();
            let r = check_opt(model_config(kind, smoke), &opts);
            let w = start.elapsed().as_secs_f64();
            speed_wall += meter.speed() * w;
            failures.extend(check_report(&r, pinned(smoke)[i]));
            states += r.states;
            wall += w;
            per_kind[i].push(r.states as f64 / w);
        }
        out.checks.record(failures);
        out.rates.push(Sample {
            value: states as f64 / wall,
            speed: speed_wall / wall,
        });
    }
    for (kind, samples) in DirKind::ALL.iter().zip(per_kind) {
        out.parts
            .push((format!("states_per_s.{}", kind.name()), "states/s", samples));
    }
    out
}

/// Probe slots of the external search.
pub const UNPACK: usize = 0;
pub const INVARIANT: usize = 1;
pub const SUCCESSORS: usize = 2;
pub const CANON: usize = 3;
pub const DEDUPE: usize = 4;

/// One transition in this many has its canonicalization and dedupe
/// timed; per-state calls are all timed.
pub const TRANSITION_SAMPLE: usize = 8;

pub struct Bfs {
    pub states: usize,
    pub transitions: usize,
    pub violation: Option<String>,
}

/// Serial canonical breadth-first search over the checker's public API:
/// unpack a frontier state, check the invariants, generate successors,
/// canonicalize each, and keep the new ones.
pub fn bfs<P: Probe>(cfg: ModelConfig, probe: &mut P) -> Bfs {
    let model = Model::new(cfg);
    let table = CanonTable::new(cfg.cores, cfg.lines, cfg.kind == DirKind::WayPartitioned);
    let init = table.canonicalize(&ModelState::initial()).0;
    let mut queue = vec![init];
    let mut seen = HashSet::from([init]);
    let mut buf = Vec::new();
    let mut transitions = 0usize;
    let mut next = 0;
    while next < queue.len() {
        let t = probe.now();
        let state = unpack(queue[next]);
        probe.add(UNPACK, t);
        next += 1;
        let t = probe.now();
        let violation = violated_invariant(&state, &cfg);
        probe.add(INVARIANT, t);
        if violation.is_some() {
            return Bfs {
                states: queue.len(),
                transitions,
                violation,
            };
        }
        let t = probe.now();
        model.successors_into(&state, &mut buf);
        probe.add(SUCCESSORS, t);
        if buf.is_empty() {
            return Bfs {
                states: queue.len(),
                transitions,
                violation: Some("deadlock".to_string()),
            };
        }
        for (_, succ) in &buf {
            transitions += 1;
            let fresh = if transitions.is_multiple_of(TRANSITION_SAMPLE) {
                let t = probe.now();
                let key = table.canonicalize(succ).0;
                probe.add(CANON, t);
                let t = probe.now();
                let fresh = seen.insert(key);
                probe.add(DEDUPE, t);
                fresh.then_some(key)
            } else {
                let key = table.canonicalize(succ).0;
                seen.insert(key).then_some(key)
            };
            if let Some(key) = fresh {
                queue.push(key);
            }
        }
    }
    Bfs {
        states: queue.len(),
        transitions,
        violation: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Off, Timed};

    #[test]
    fn external_search_reaches_the_checker_counts() {
        for (i, kind) in DirKind::ALL.into_iter().enumerate() {
            let cfg = ModelConfig::quick(kind);
            let r = check_opt(cfg, &CheckOptions::default());
            let b = bfs(cfg, &mut Off);
            assert_eq!(
                (b.states, b.transitions),
                (r.states, r.transitions),
                "{}",
                kind.name()
            );
            assert_eq!(
                (b.states, b.transitions),
                QUICK_COUNTS[i],
                "{}",
                kind.name()
            );
            assert!(b.violation.is_none());
        }
    }

    #[test]
    fn timed_search_counts_its_calls() {
        let mut t = Timed::<5>::new();
        let b = bfs(ModelConfig::quick(DirKind::SecDir), &mut t);
        assert_eq!(t.calls[UNPACK] as usize, b.states);
        assert_eq!(t.calls[SUCCESSORS] as usize, b.states);
        assert_eq!(t.calls[CANON] as usize, b.transitions / TRANSITION_SAMPLE);
    }

    #[test]
    fn count_checks_name_the_kind() {
        let f = check_counts(DirKind::SecDir, (1, 2), (1, 3), None);
        assert_eq!(f.len(), 1);
        assert!(f[0].starts_with("secdir:"));
        assert!(check_counts(DirKind::SecDir, (1, 2), (1, 2), None).is_empty());
    }
}
