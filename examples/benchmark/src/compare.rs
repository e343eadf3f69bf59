//! `compare BASE NEW`: the decision rule for a change that claims a gain
//! or must show no regression, applied to two result files.
//!
//! A result file holds one JSON object per line, one line per workload
//! run, as `run --out` appends them. Runs pair up by their order within
//! a workload, so alternate the parent and the change run by run.

use std::collections::BTreeMap;

use crate::json::{parse, Json};
use crate::stats::{Better, Summary};

/// Pairs a gain needs, and the share of them the change must win.
const MIN_PAIRS: usize = 10;
const WIN_SHARE: f64 = 0.9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Enough pairs, the change won at least nine in ten of them, and
    /// the medians differ by more than the parent's interquartile range.
    Gain,
    /// The change's median is within the metric's bound of the parent's.
    NoWorse,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The parent's own spread is wider than the bound.
    Unresolved,
    /// A per-layer metric: no bound, so only a gain is decided.
    Info,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NoWorse => "no-worse",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let sb = Summary::of(base, better);
    let sn = Summary::of(new, better);
    let pairs = base.len().min(new.len());
    let wins = (0..pairs)
        .filter(|&i| better.beats(new[i], base[i]))
        .count();
    let gain = match better {
        Better::Higher => sn.median - sb.median,
        Better::Lower => sb.median - sn.median,
    };
    if pairs >= MIN_PAIRS && wins as f64 >= WIN_SHARE * pairs as f64 && gain > sb.q3 - sb.q1 {
        return Verdict::Gain;
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    if sb.spread() > bound {
        let all_better = new
            .iter()
            .all(|&n| base.iter().all(|&b| better.beats(n, b)));
        return if all_better {
            Verdict::NoWorse
        } else {
            Verdict::Unresolved
        };
    }
    if -gain <= bound * sb.median.abs() {
        Verdict::NoWorse
    } else {
        Verdict::Worse
    }
}

/// A metric's direction and bound, as `BENCHMARK.json` fixes them.
pub struct Rule {
    pub better: Better,
    pub bound: Option<f64>,
}

pub fn rules(benchmark: &Json) -> Result<BTreeMap<String, Rule>, String> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in benchmark.get(key).map(Json::as_arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}: bad `better`"))?;
            let bound = m.get("bound").and_then(Json::as_f64);
            out.insert(name.to_string(), Rule { better, bound });
        }
    }
    Ok(out)
}

/// One workload's runs in a result file: metric values in run order,
/// and failed and attempted operations summed.
#[derive(Default)]
pub struct Runs {
    pub values: BTreeMap<String, Vec<f64>>,
    pub failed: u64,
    pub attempted: u64,
}

pub fn load(text: &str) -> Result<BTreeMap<String, Runs>, String> {
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        // Traced runs measure every workload's layers; keep them apart.
        let key = if run.get("trace") == Some(&Json::Bool(true)) {
            "traced".to_string()
        } else {
            workload.to_string()
        };
        let entry = out.entry(key).or_default();
        let count = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        entry.failed += count("failed");
        entry.attempted += count("attempted");
        for (name, m) in run
            .get("metrics")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                entry.values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// The comparison table, and whether anything got worse.
pub fn compare(
    rules: &BTreeMap<String, Rule>,
    base: &BTreeMap<String, Runs>,
    new: &BTreeMap<String, Runs>,
) -> (Vec<String>, bool) {
    let mut rows = Vec::new();
    let mut worse = false;
    for (workload, b) in base {
        let Some(n) = new.get(workload) else {
            rows.push(format!("{workload}: no runs of the change"));
            continue;
        };
        let more_failures = n.failed > b.failed;
        if more_failures {
            worse = true;
            rows.push(format!(
                "{workload} failed_ops base={}/{} new={}/{} WORSE",
                b.failed, b.attempted, n.failed, n.attempted
            ));
        }
        for (metric, bv) in &b.values {
            let (Some(nv), Some(rule)) = (n.values.get(metric), rules.get(metric)) else {
                continue;
            };
            let mut v = verdict(bv, nv, rule.better, rule.bound);
            if v == Verdict::Gain && more_failures {
                v = Verdict::Unresolved;
            }
            worse |= v == Verdict::Worse;
            let sb = Summary::of(bv, rule.better);
            let sn = Summary::of(nv, rule.better);
            let pairs = bv.len().min(nv.len());
            let wins = (0..pairs)
                .filter(|&i| rule.better.beats(nv[i], bv[i]))
                .count();
            let change = if sb.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.2}%", (sn.median / sb.median - 1.0) * 100.0)
            };
            rows.push(format!(
                "{workload} {metric} base={} [{}, {}] new={} [{}, {}] change={change} wins={wins}/{pairs} {}",
                fmt(sb.median),
                fmt(sb.q1),
                fmt(sb.q3),
                fmt(sn.median),
                fmt(sn.q1),
                fmt(sn.q3),
                v.name()
            ));
        }
    }
    (rows, worse)
}

fn fmt(v: f64) -> String {
    crate::report::fmt(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize, jitter: f64) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + jitter * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn a_clear_win_on_ten_pairs_is_a_gain() {
        let base = around(100.0, 10, 0.01);
        let new = around(110.0, 10, 0.01);
        assert_eq!(
            verdict(&base, &new, Better::Higher, Some(0.05)),
            Verdict::Gain
        );
        // The same numbers for a lower-is-better metric are a regression.
        assert_eq!(
            verdict(&base, &new, Better::Lower, Some(0.05)),
            Verdict::Worse
        );
    }

    #[test]
    fn nine_pairs_are_not_enough_for_a_gain() {
        let base = around(100.0, 9, 0.01);
        let new = around(110.0, 9, 0.01);
        assert_eq!(
            verdict(&base, &new, Better::Higher, Some(0.05)),
            Verdict::NoWorse
        );
        assert_eq!(verdict(&base, &new, Better::Higher, None), Verdict::Info);
    }

    #[test]
    fn a_gain_must_exceed_the_parents_spread() {
        // The change wins every pair by 1%, but the parent's runs spread 4%.
        let base = around(100.0, 10, 0.02);
        let new: Vec<f64> = base.iter().map(|b| b * 1.01).collect();
        assert_eq!(
            verdict(&base, &new, Better::Higher, Some(0.05)),
            Verdict::NoWorse
        );
    }

    #[test]
    fn small_losses_are_within_the_bound() {
        let base = around(100.0, 10, 0.01);
        let new = around(97.0, 10, 0.01);
        assert_eq!(
            verdict(&base, &new, Better::Higher, Some(0.05)),
            Verdict::NoWorse
        );
        assert_eq!(
            verdict(&base, &new, Better::Higher, Some(0.02)),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base = around(100.0, 10, 0.2);
        let new = around(99.0, 10, 0.2);
        assert_eq!(
            verdict(&base, &new, Better::Higher, Some(0.05)),
            Verdict::Unresolved
        );
        // Unless every run of the change beats every run of the parent.
        let new = around(200.0, 10, 0.01);
        assert_eq!(
            verdict(&base, &new[..9], Better::Higher, Some(0.05)),
            Verdict::NoWorse
        );
    }

    #[test]
    fn result_files_pair_runs_per_workload() {
        let line = |w: &str, v: f64, failed: u64| {
            format!(
                "{{\"workload\":\"{w}\",\"attempted\":5,\"failed\":{failed},\
                 \"metrics\":{{\"throughput_per_s\":{{\"value\":{v},\"unit\":\"1/s\"}}}}}}"
            )
        };
        let base: String = (0..10)
            .map(|i| line("a", 100.0 + i as f64 * 0.1, 0) + "\n")
            .collect();
        let new: String = (0..10)
            .map(|i| line("a", 120.0 + i as f64 * 0.1, 0) + "\n")
            .collect();
        let spec = parse(
            r#"{"end_to_end":[{"name":"throughput_per_s","unit":"1/s","better":"higher","bound":0.05}],
                "per_layer":[]}"#,
        )
        .unwrap();
        let rules = rules(&spec).unwrap();
        let (rows, worse) = compare(&rules, &load(&base).unwrap(), &load(&new).unwrap());
        assert!(!worse);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].ends_with("wins=10/10 gain"), "{}", rows[0]);
        // More failed operations than the parent: flagged, and no gain.
        let failing: String = (0..10)
            .map(|i| line("a", 120.0 + i as f64 * 0.1, 1) + "\n")
            .collect();
        let (rows, worse) = compare(&rules, &load(&base).unwrap(), &load(&failing).unwrap());
        assert!(worse);
        assert!(rows[0].contains("failed_ops") && rows[1].ends_with("unresolved"));
    }
}
