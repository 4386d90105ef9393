//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the acceptance driver computes
//! from the same numbers; a different interpolation would make `ledger
//! compare` and the driver disagree about a spread near its bound.

use crate::json::Json;

/// Five-number summary of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values` (at least one).
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one value");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
        let (q1, q3) = quartiles(&v);
        Summary {
            n: v.len(),
            min: v[0],
            q1,
            median: median_sorted(&v),
            q3,
            max: v[v.len() - 1],
        }
    }

    /// Interquartile distance as a share of the median — the noise band.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Vec<(&'static str, Json)> {
        vec![
            ("n", Json::Num(self.n as f64)),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
        ]
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        let f = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Summary {
            n: f("n")? as usize,
            min: f("min")?,
            q1: f("q1")?,
            median: f("median")?,
            q3: f("q3")?,
            max: f("max")?,
        })
    }
}

/// Median of an ascending slice.
pub fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// First and third quartile of an ascending slice, exclusive method.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let ld = v.len();
    if ld < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that still has at least
/// ten samples beyond it among `n` — a tail percentile with fewer is one
/// outlier's value, not a percentile.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // (percentile, one sample in how many lies beyond it)
    const LADDER: [(f64, usize); 4] = [(0.9999, 10_000), (0.999, 1_000), (0.99, 100), (0.9, 10)];
    for (p, one_in) in LADDER {
        if n / one_in >= 10 {
            return p;
        }
    }
    0.5
}

/// The `p`-quantile (nearest rank) of an ascending slice.
pub fn percentile_sorted(v: &[u64], p: f64) -> u64 {
    assert!(!v.is_empty());
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]:
        // the exclusive method extrapolates past two samples.
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn single_value_has_no_spread() {
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), 0.5);
        assert_eq!(highest_supported_percentile(20), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        assert_eq!(highest_supported_percentile(5_000_000), 0.9999);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[4.61, 4.63, 4.5, 4.8, 4.7]);
        let j = Json::obj(s.to_json());
        assert_eq!(Summary::from_json(&j), Some(s));
    }
}
