//! What a run measured, how it is printed, and the metric catalogue that
//! `BENCHMARK.json` mirrors.

use crate::host::Reference;
use crate::json::quote;
use crate::stats::{Better, Summary};

/// Complete set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The end-to-end metrics every untraced run reports: name, unit, better.
pub const END_TO_END: [(&str, &str, Better); 3] = [
    ("throughput_per_s", "1/s", Better::Higher),
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
];

/// Operations attempted and the failures among them.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation; it failed if any check left a note.
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.notes.extend(failures);
        }
    }
}

/// An untraced workload run: set-up times, one rate per timed operation,
/// and the rates of an operation's parts, printed but not gated. Every
/// set-up and operation also records the host speed around it.
pub struct Outcome {
    /// What the rates count per second.
    pub item: &'static str,
    pub setups: Vec<Sample>,
    pub rates: Vec<Sample>,
    pub parts: Vec<(String, &'static str, Vec<f64>)>,
    pub checks: Checks,
}

/// A measured value and the host speed while it was measured.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub value: f64,
    pub speed: f64,
}

impl Outcome {
    pub fn new(item: &'static str) -> Outcome {
        Outcome {
            item,
            setups: Vec::new(),
            rates: Vec::new(),
            parts: Vec::new(),
            checks: Checks::default(),
        }
    }
}

/// Brackets set-ups and operations with host-speed samples; each gets the
/// geometric mean of the samples just before and just after it.
pub struct Meter<'a> {
    reference: &'a Reference,
    last: f64,
}

impl<'a> Meter<'a> {
    pub fn new(reference: &'a Reference) -> Meter<'a> {
        Meter {
            reference,
            last: reference.speed(),
        }
    }

    /// Host speed over the span since the previous call (or `new`).
    pub fn speed(&mut self) -> f64 {
        let now = self.reference.speed();
        let speed = (self.last * now).sqrt();
        self.last = now;
        speed
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The samples behind `value`, when it is a median of several.
    pub summary: Option<Summary>,
}

/// Collects metrics in the order they are printed.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
            summary: None,
        });
    }

    /// The median of `samples`, with its spread kept for printing.
    pub fn median(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        better: Better,
        samples: &[f64],
    ) {
        let summary = Summary::of(samples, better);
        self.0.push(Metric {
            name: name.into(),
            unit,
            value: summary.median,
            summary: Some(summary),
        });
    }

    /// Checks that exactly the catalogued names were produced, with their
    /// units, and that every value is a finite number.
    pub fn conform(&self, catalogue: &[(&str, &str, Better)]) -> Result<(), String> {
        for m in &self.0 {
            match catalogue.iter().find(|(n, _, _)| *n == m.name) {
                None => return Err(format!("metric {} is not catalogued", m.name)),
                Some((_, unit, _)) if *unit != m.unit => {
                    return Err(format!("metric {} has unit {}, not {unit}", m.name, m.unit))
                }
                Some(_) if !m.value.is_finite() => {
                    return Err(format!("metric {} is not finite: {}", m.name, m.value))
                }
                Some(_) => {}
            }
        }
        for (name, _, _) in catalogue {
            if !self.0.iter().any(|m| m.name == *name) {
                return Err(format!("metric {name} was not measured"));
            }
        }
        Ok(())
    }

    /// One line per metric: `workload metric value unit n q1 q3 tail`.
    pub fn rows(&self, workload: &str) -> Vec<String> {
        self.0
            .iter()
            .map(|m| {
                let (n, q1, q3, tail) = match &m.summary {
                    Some(s) => (
                        s.n.to_string(),
                        fmt(s.q1),
                        fmt(s.q3),
                        s.tail
                            .map_or("-".to_string(), |(p, v)| format!("p{p}={}", fmt(v))),
                    ),
                    None => (
                        "1".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                    ),
                };
                format!(
                    "{workload} {} {} {} n={n} q1={q1} q3={q3} tail={tail}",
                    m.name,
                    fmt(m.value),
                    m.unit
                )
            })
            .collect()
    }

    /// The result object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_json(&self, checks: &Checks) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    m.value,
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            checks.failed == 0 && checks.attempted > 0,
            checks.attempted,
            checks.failed,
            metrics.join(",")
        )
    }
}

/// A value with six significant digits for the human-readable rows.
pub fn fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.5e}")
    } else {
        format!("{}", (v * 1e6).round() / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", "s", 0.8127);
        m.median("throughput_per_s", "1/s", Better::Higher, &[1.0, 3.0, 2.0]);
        let mut checks = Checks::default();
        checks.record(Vec::new());
        let v = parse(&m.result_json(&checks)).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let tp = v
            .get("metrics")
            .and_then(|m| m.get("throughput_per_s"))
            .unwrap();
        assert_eq!(tp.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(tp.get("unit").and_then(Json::as_str), Some("1/s"));
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut checks = Checks::default();
        checks.record(Vec::new());
        checks.record(vec!["mismatch".to_string()]);
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        let v = parse(&Metrics::default().result_json(&checks)).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn conform_rejects_missing_extra_and_non_finite_metrics() {
        let cat = [("a", "s", Better::Lower), ("b", "1/s", Better::Higher)];
        let mut m = Metrics::default();
        m.put("a", "s", 1.0);
        assert!(m.conform(&cat).unwrap_err().contains("b was not measured"));
        m.put("b", "1/s", f64::NAN);
        assert!(m.conform(&cat).unwrap_err().contains("not finite"));
        m.0.pop();
        m.put("b", "1/s", 2.0);
        assert!(m.conform(&cat).is_ok());
        m.put("c", "s", 1.0);
        assert!(m.conform(&cat).unwrap_err().contains("not catalogued"));
    }
}
