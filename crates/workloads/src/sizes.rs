//! Empirical flow-size distributions.
//!
//! Figure 19 reproduces the pFabric ns-2 study, which draws flow sizes from
//! the DCTCP paper's measured *web search* workload ("based on clusters in
//! Microsoft datacenters", §5.2). The standard CDF tables from the pFabric
//! simulation release are reproduced here, expressed in MTU packets, with
//! the same piecewise-linear inverse-CDF sampling ns-2's
//! `EmpiricalRandomVariable` performs.

use eiffel_sim::SplitMix64;

/// Payload bytes carried per full-sized packet in the DC simulations.
pub const PACKET_PAYLOAD_BYTES: u64 = 1_460;

/// A piecewise-linear empirical CDF over flow sizes in packets.
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    /// `(size_in_packets, cumulative_probability)`, strictly increasing in
    /// both coordinates, last probability = 1.0.
    points: Vec<(f64, f64)>,
}

impl EmpiricalCdf {
    /// Builds a CDF from `(size_packets, cum_prob)` points.
    ///
    /// # Panics
    /// Panics if the points are not monotone or do not end at probability 1.
    pub fn new(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two CDF points");
        for w in points.windows(2) {
            assert!(w[0].0 <= w[1].0, "sizes must be non-decreasing");
            assert!(w[0].1 < w[1].1, "probabilities must be strictly increasing");
        }
        let last = points.last().expect("non-empty");
        assert!((last.1 - 1.0).abs() < 1e-9, "CDF must end at 1.0");
        EmpiricalCdf {
            points: points.to_vec(),
        }
    }

    /// Samples a flow size in whole packets (≥ 1).
    pub fn sample_packets(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        self.quantile(u).round().max(1.0) as u64
    }

    /// Inverse CDF with linear interpolation between points.
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        if u <= self.points[0].1 {
            return self.points[0].0;
        }
        for w in self.points.windows(2) {
            let ((s0, p0), (s1, p1)) = (w[0], w[1]);
            if u <= p1 {
                let t = (u - p0) / (p1 - p0);
                return s0 + t * (s1 - s0);
            }
        }
        self.points.last().expect("non-empty").0
    }

    /// Analytic mean of the piecewise-linear distribution, in packets.
    fn mean_packets(&self) -> f64 {
        let mut mean = self.points[0].0 * self.points[0].1;
        for w in self.points.windows(2) {
            let ((s0, p0), (s1, p1)) = (w[0], w[1]);
            mean += (p1 - p0) * (s0 + s1) / 2.0;
        }
        mean
    }
}

/// The two canonical datacenter workloads of the pFabric study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowSizeDist {
    /// DCTCP-paper web-search workload (the one Figure 19 reports).
    WebSearch,
    /// VL2/data-mining workload (heavier tail; used for extension runs).
    DataMining,
}

impl FlowSizeDist {
    /// The CDF table, sizes in MTU packets.
    pub fn cdf(self) -> EmpiricalCdf {
        match self {
            // pFabric simulation release, `websearch.cdf` (sizes in packets).
            FlowSizeDist::WebSearch => EmpiricalCdf::new(&[
                (1.0, 0.0),
                (6.0, 0.15),
                (13.0, 0.2),
                (19.0, 0.3),
                (33.0, 0.4),
                (53.0, 0.53),
                (133.0, 0.6),
                (667.0, 0.7),
                (1_333.0, 0.8),
                (3_333.0, 0.9),
                (6_667.0, 0.97),
                (20_000.0, 1.0),
            ]),
            // pFabric simulation release, `datamining.cdf`.
            FlowSizeDist::DataMining => EmpiricalCdf::new(&[
                (1.0, 0.0),
                (2.0, 0.6),
                (3.0, 0.7),
                (7.0, 0.8),
                (267.0, 0.9),
                (2_107.0, 0.95),
                (66_667.0, 0.99),
                (666_667.0, 1.0),
            ]),
        }
    }

    /// Mean flow size in bytes (payload bytes × mean packets).
    pub fn mean_bytes(self) -> f64 {
        self.cdf().mean_packets() * PACKET_PAYLOAD_BYTES as f64
    }

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FlowSizeDist::WebSearch => "web-search",
            FlowSizeDist::DataMining => "data-mining",
        }
    }
}

/// Per-flow packet counts drawn from a trace CDF, clamped to `[1, cap]`
/// — the "trace-shaped" mixes the overload sweep drives millions of
/// flows with. The clamp keeps elephants from dominating a timed cell
/// while preserving the trace's many-mice shape; it is the same
/// capped-tail treatment `heavy_tailed_pkts` applies to its Pareto.
pub fn trace_shaped_pkts(flows: usize, dist: FlowSizeDist, cap: u64, seed: u64) -> Vec<u64> {
    assert!(cap >= 1);
    let cdf = dist.cdf();
    let mut rng = SplitMix64::new(seed ^ 0x7ace_5a17);
    (0..flows)
        .map(|_| cdf.sample_packets(&mut rng).clamp(1, cap))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_monotonically() {
        let cdf = FlowSizeDist::WebSearch.cdf();
        let mut prev = 0.0;
        for i in 0..=100 {
            let q = cdf.quantile(i as f64 / 100.0);
            assert!(q >= prev, "quantile must be monotone");
            prev = q;
        }
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 20_000.0);
        // Between the 0.53 point (53 pkts) and the 0.6 point (133 pkts).
        let mid = cdf.quantile(0.565);
        assert!(mid > 53.0 && mid < 133.0);
    }

    #[test]
    fn sample_mean_matches_analytic_mean() {
        let cdf = FlowSizeDist::WebSearch.cdf();
        let mut rng = SplitMix64::new(2024);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| cdf.sample_packets(&mut rng) as f64).sum();
        let sample_mean = sum / n as f64;
        let analytic = cdf.mean_packets();
        let rel = (sample_mean - analytic).abs() / analytic;
        assert!(
            rel < 0.03,
            "sample mean {sample_mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn websearch_is_mostly_small_flows_with_heavy_bytes() {
        // The motivation for pFabric: most flows are small, most *bytes*
        // come from large flows.
        let cdf = FlowSizeDist::WebSearch.cdf();
        let mut rng = SplitMix64::new(7);
        let mut small = 0u64;
        let mut bytes_small = 0u64;
        let mut bytes_total = 0u64;
        for _ in 0..100_000 {
            let pkts = cdf.sample_packets(&mut rng);
            let bytes = pkts * PACKET_PAYLOAD_BYTES;
            bytes_total += bytes;
            if bytes <= 100 * 1024 {
                small += 1;
                bytes_small += bytes;
            }
        }
        assert!(small > 50_000, "majority of flows ≤ 100kB, got {small}");
        assert!(
            (bytes_small as f64) < 0.35 * bytes_total as f64,
            "small flows carry a minority of bytes"
        );
    }

    #[test]
    fn datamining_tail_is_heavier() {
        assert!(FlowSizeDist::DataMining.mean_bytes() > FlowSizeDist::WebSearch.mean_bytes());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_monotone_probability() {
        EmpiricalCdf::new(&[(1.0, 0.5), (2.0, 0.5), (3.0, 1.0)]);
    }

    #[test]
    fn trace_shaped_counts_are_capped_and_deterministic() {
        let pkts = trace_shaped_pkts(50_000, FlowSizeDist::WebSearch, 128, 9);
        assert_eq!(pkts.len(), 50_000);
        assert!(pkts.iter().all(|&p| (1..=128).contains(&p)));
        assert!(pkts.contains(&128), "elephants hit the cap");
        let mean = pkts.iter().sum::<u64>() as f64 / pkts.len() as f64;
        let median = {
            let mut s = pkts.clone();
            s.sort_unstable();
            s[s.len() / 2]
        };
        assert!(
            (median as f64) < mean,
            "shape survives the cap: median {median} < mean {mean}"
        );
        assert_eq!(
            pkts,
            trace_shaped_pkts(50_000, FlowSizeDist::WebSearch, 128, 9)
        );
    }
}
