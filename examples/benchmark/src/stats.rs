//! Sample summaries: median, quartiles and the slow-side tail.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads printed here match the
//! ones recomputed from the raw values with Python.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }
}

/// Percentiles tried for the tail, in tenths of a percent, most extreme
/// last (integers, so the count beyond each is exact).
const TAIL_LADDER: [usize; 5] = [750, 900, 950, 990, 999];

/// Samples a tail percentile must have beyond it.
const TAIL_MIN_BEYOND: usize = 10;

#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest ladder percentile, counted from the slow side, with at
    /// least ten samples beyond it, and its value; `None` below 40 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values`; `better` decides which side is slow.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(values: &[f64], better: Better) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        let n = sorted.len();
        let tail = TAIL_LADDER
            .iter()
            .rev()
            .find(|&&p| n * (1000 - p) >= TAIL_MIN_BEYOND * 1000)
            .map(|&p| {
                let p = p as f64 / 10.0;
                let slow_side = match better {
                    Better::Higher => 100.0 - p,
                    Better::Lower => p,
                };
                (p, percentile(&sorted, slow_side))
            });
        Summary {
            n,
            median: median(&sorted),
            q1,
            q3,
            tail,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a non-empty slice in any order.
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median(&sorted)
}

/// Median of a sorted, non-empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile of a sorted, non-empty slice, as Python's
/// `statistics.quantiles(data, n=4, method="exclusive")` computes them.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Linear-interpolation percentile `p` (0–100) of a sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 9.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(Summary::of(&v, Better::Lower).tail, None);
        // 40 samples: p75 leaves exactly 10 beyond it.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&v, Better::Lower);
        assert_eq!(s.tail.map(|t| t.0), Some(75.0));
        // 100 samples: p90 leaves 10, p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let lower = Summary::of(&v, Better::Lower).tail.unwrap();
        let higher = Summary::of(&v, Better::Higher).tail.unwrap();
        assert_eq!(lower.0, 90.0);
        assert!((lower.1 - 90.1).abs() < 1e-9, "slow side of a time is high");
        assert!((higher.1 - 10.9).abs() < 1e-9, "slow side of a rate is low");
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0], Better::Higher);
        assert!((s.spread() - 2.5 / 2.5).abs() < 1e-12);
    }
}
