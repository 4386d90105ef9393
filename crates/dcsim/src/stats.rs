//! Flow-completion-time statistics — the Figure 19 panels.
//!
//! The paper reports FCT normalized to "the FCT a flow would achieve at
//! access line rate with no contention", split by flow size: average for
//! (0, 100 kB], 99th percentile for (0, 100 kB], and average for
//! (10 MB, ∞).

use eiffel_sim::Nanos;

/// One completed flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FctRecord {
    /// Flow size in bytes.
    pub size_bytes: u64,
    /// Measured flow completion time.
    pub fct: Nanos,
    /// Ideal (uncontended line-rate) completion time.
    pub ideal: Nanos,
}

impl FctRecord {
    /// FCT divided by ideal FCT (≥ 1 up to clock granularity).
    pub fn normalized(&self) -> f64 {
        self.fct as f64 / self.ideal.max(1) as f64
    }
}

/// Small-flow boundary (0, 100 kB].
const SMALL_BYTES: u64 = 100 * 1_024;
/// Large-flow boundary (10 MB, ∞).
const LARGE_BYTES: u64 = 10 * 1_024 * 1_024;

/// Aggregated normalized-FCT statistics.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Average normalized FCT, flows ≤ 100 kB.
    pub avg_small: Option<f64>,
    /// 99th-percentile normalized FCT, flows ≤ 100 kB.
    pub p99_small: Option<f64>,
    /// Average normalized FCT, flows > 10 MB.
    pub avg_large: Option<f64>,
    /// Average normalized FCT, all flows.
    pub avg_all: Option<f64>,
    /// Count of small flows.
    pub n_small: usize,
    /// Count of large flows.
    pub n_large: usize,
    /// Count of all flows.
    pub n_all: usize,
}

fn avg(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    Some(sorted[idx])
}

impl Summary {
    /// Builds the Figure 19 panels from per-flow records.
    pub fn from_records(records: &[FctRecord]) -> Self {
        let mut small: Vec<f64> = Vec::new();
        let mut large: Vec<f64> = Vec::new();
        let mut all: Vec<f64> = Vec::new();
        for r in records {
            let n = r.normalized();
            all.push(n);
            if r.size_bytes <= SMALL_BYTES {
                small.push(n);
            } else if r.size_bytes > LARGE_BYTES {
                large.push(n);
            }
        }
        small.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Summary {
            avg_small: avg(&small),
            p99_small: percentile(&small, 0.99),
            avg_large: avg(&large),
            avg_all: avg(&all),
            n_small: small.len(),
            n_large: large.len(),
            n_all: all.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(size_bytes: u64, norm: u64) -> FctRecord {
        FctRecord {
            size_bytes,
            fct: norm * 1_000,
            ideal: 1_000,
        }
    }

    #[test]
    fn buckets_split_by_size() {
        let records = vec![
            rec(10_000, 2),
            rec(50_000, 4),
            rec(200_000, 8),            // mid: neither small nor large
            rec(20 * 1_024 * 1_024, 6), // large
        ];
        let s = Summary::from_records(&records);
        assert_eq!(s.n_small, 2);
        assert_eq!(s.n_large, 1);
        assert_eq!(s.n_all, 4);
        assert_eq!(s.avg_small, Some(3.0));
        assert_eq!(s.avg_large, Some(6.0));
        assert_eq!(s.avg_all, Some(5.0));
    }

    #[test]
    fn p99_picks_the_tail() {
        let mut records: Vec<FctRecord> = (1..=100).map(|i| rec(1_000, i)).collect();
        records.reverse(); // order must not matter
        let s = Summary::from_records(&records);
        assert_eq!(s.p99_small, Some(99.0));
    }

    #[test]
    fn empty_is_all_none() {
        let s = Summary::from_records(&[]);
        assert!(s.avg_small.is_none());
        assert!(s.p99_small.is_none());
        assert!(s.avg_large.is_none());
        assert_eq!(s.n_all, 0);
    }

    #[test]
    fn normalized_is_fct_over_ideal() {
        let r = FctRecord {
            size_bytes: 1,
            fct: 3_000,
            ideal: 1_500,
        };
        assert!((r.normalized() - 2.0).abs() < 1e-12);
    }
}
