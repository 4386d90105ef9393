//! Flow arrival processes.
//!
//! The Figure 19 study offers load between 10% and 80% of fabric capacity:
//! flows arrive as a Poisson process with rate
//! `λ = load × capacity / mean_flow_size`, the standard open-loop model of
//! the pFabric/DCTCP simulation setups.

use eiffel_sim::{Nanos, Rate, SplitMix64};

/// Poisson arrival-time generator.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    mean_interarrival_ns: f64,
    next_at: f64,
}

impl PoissonArrivals {
    /// Creates a process with the given mean inter-arrival time.
    fn with_mean_gap(mean_interarrival_ns: f64) -> Self {
        assert!(mean_interarrival_ns > 0.0);
        PoissonArrivals {
            mean_interarrival_ns,
            next_at: 0.0,
        }
    }

    /// Creates the process that offers `load` (0–1] of `capacity` given an
    /// average flow size of `mean_flow_bytes`.
    pub fn for_load(load: f64, capacity: Rate, mean_flow_bytes: f64) -> Self {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
        assert!(mean_flow_bytes > 0.0);
        // flows/sec = load × (capacity bits/s) / (8 × mean bytes)
        let flows_per_sec = load * capacity.as_bps() as f64 / (8.0 * mean_flow_bytes);
        PoissonArrivals::with_mean_gap(1e9 / flows_per_sec)
    }

    /// Draws the next arrival's absolute virtual time.
    pub fn next_arrival(&mut self, rng: &mut SplitMix64) -> Nanos {
        self.next_at += rng.next_exp(self.mean_interarrival_ns);
        self.next_at as Nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eiffel_sim::SECOND;

    #[test]
    fn arrival_rate_matches_load() {
        // 40% load on 10 Gbps with 1 MB mean flows → 500 flows/s.
        let mut p = PoissonArrivals::for_load(0.4, Rate::gbps(10), 1_000_000.0);
        let mut rng = SplitMix64::new(3);
        let mut count = 0u64;
        loop {
            let at = p.next_arrival(&mut rng);
            if at > 20 * SECOND {
                break;
            }
            count += 1;
        }
        let per_sec = count as f64 / 20.0;
        assert!(
            (per_sec - 500.0).abs() < 25.0,
            "expected ≈500 flows/s, got {per_sec}"
        );
    }

    #[test]
    fn arrivals_are_strictly_ordered() {
        let mut p = PoissonArrivals::with_mean_gap(100.0);
        let mut rng = SplitMix64::new(5);
        let mut prev = 0;
        for _ in 0..10_000 {
            let at = p.next_arrival(&mut rng);
            assert!(at >= prev);
            prev = at;
        }
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn rejects_zero_load() {
        PoissonArrivals::for_load(0.0, Rate::gbps(10), 1e6);
    }
}
