//! The §5.2 microbenchmarks: Figures 16, 17 and 18.
//!
//! Methodology per the paper: "the queue is initially filled with elements
//! according to queue occupancy rate or average number of packets per
//! bucket parameters. Then, packets are dequeued from the queue. Reported
//! results are in million packets per second." We measure the drain phase
//! (the min-find cost under study) and repeat fill+drain rounds until a
//! time budget elapses.
//!
//! Units: the drain-rate functions return a [`DrainResult`] whose `mpps`
//! is **Mpps** (million packets per second, drain phase only) and whose
//! `hit_rate` is the fraction of min-lookups the approximate queue's
//! curvature estimate answered without a fallback search (1.0-trivially
//! for the exact queues); [`approx_error_at_occupancy`] returns an
//! **average bucket-index error** (dimensionless bucket distance). The
//! figure binaries record these through [`crate::report::BenchReport`]
//! with the same unit strings.
//!
//! Allocation discipline: every per-cell scratch buffer (the shuffled fill
//! order, the batch output vector) lives in a caller-owned [`FillOrder`] /
//! local that is reused across cells and deterministically reseeded, so
//! back-to-back cells measure the queue, not the allocator.

use std::time::{Duration, Instant};

use eiffel_core::{
    ApproxGradientQueue, ApproxParams, OracleAudit, OracleReport, QueueConfig, QueueKind,
    RankedQueue,
};
use eiffel_sim::SplitMix64;

/// SP-PIFO's queue count in the bake-off: 32 strict-priority FIFOs, the
/// mid-size configuration of the SP-PIFO paper's evaluation (8–64).
const SP_PIFO_QUEUES: u32 = 32;

/// The bake-off contenders: the three §5.2 incumbents plus the two
/// integer-only related-work backends (SP-PIFO, RIFO) added in PR 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueUnderTest {
    /// Bucketed queue + binary heap of bucket indices (baseline).
    BucketHeap,
    /// Circular hierarchical FFS queue.
    Cffs,
    /// Approximate gradient queue.
    Approx,
    /// SP-PIFO adaptive strict-priority mapping (32 queues).
    SpPifo,
    /// RIFO adaptive rank-range bucket mapping over `nb` buckets.
    Rifo,
}

impl QueueUnderTest {
    /// The contender as a [`QueueKind`] over `nb` buckets: the approximate
    /// queue takes the α its constructor would pick for `nb`.
    pub fn kind(self, nb: usize) -> QueueKind {
        match self {
            QueueUnderTest::BucketHeap => QueueKind::BucketHeap,
            QueueUnderTest::Cffs => QueueKind::Cffs,
            QueueUnderTest::Approx => QueueKind::ApproxGradient {
                alpha: ApproxParams::alpha_for_buckets(nb),
            },
            QueueUnderTest::SpPifo => QueueKind::SpPifo {
                queues: SP_PIFO_QUEUES,
            },
            QueueUnderTest::Rifo => QueueKind::Rifo,
        }
    }

    /// Display name matching the paper's legends ([`QueueKind::label`]).
    pub fn name(self) -> &'static str {
        self.kind(0).label()
    }
}

/// Which buckets a partial fill occupies — the shape Figure 17 sweeps.
///
/// The paper fills "according to queue occupancy rate"; a random subset
/// ([`FillPattern::Sparse`]) matches that and is the paper-comparable
/// setting. The two extra shapes bound the approximate queue's behaviour:
/// a dense prefix is its best case (the estimator is exact there, §3.1.2)
/// and evenly spread clusters are a structured middle ground resembling
/// per-port backlogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPattern {
    /// The first `fill` buckets, a dense prefix of the rank space.
    Dense,
    /// A uniform random `fill`-subset of all buckets (the paper's fill).
    Sparse,
    /// Runs of up to 64 consecutive buckets, spread evenly over the range.
    Clustered,
}

impl FillPattern {
    /// Display name used in report panel titles.
    pub fn name(self) -> &'static str {
        match self {
            FillPattern::Dense => "dense",
            FillPattern::Sparse => "sparse",
            FillPattern::Clustered => "clustered",
        }
    }
}

/// Reusable fill-order scratch: one allocation for a whole figure sweep.
///
/// `prepare` writes the bucket visit order for a `(nb, pattern, fill)`
/// cell into the same buffer, reseeding the shuffle deterministically, so
/// consecutive cells differ only in the queue under test.
#[derive(Debug, Default)]
pub struct FillOrder {
    order: Vec<u64>,
}

impl FillOrder {
    /// An empty scratch; the first `prepare` sizes it.
    pub fn new() -> Self {
        FillOrder::default()
    }

    /// Fills the buffer with `fill` distinct bucket indices out of
    /// `[0, nb)` following `pattern`, reseeded from `seed`, and returns
    /// the slice.
    fn prepare(&mut self, nb: usize, pattern: FillPattern, fill: usize, seed: u64) -> &[u64] {
        let fill = fill.clamp(1, nb);
        self.order.clear();
        match pattern {
            FillPattern::Dense => self.order.extend(0..fill as u64),
            FillPattern::Sparse => {
                // Partial Fisher-Yates over the full universe: the first
                // `fill` entries are a uniform random subset in random
                // order.
                let mut rng = SplitMix64::new(seed);
                self.order.extend(0..nb as u64);
                for i in 0..fill.min(nb - 1) {
                    let j = i as u64 + rng.next_below((nb - i) as u64);
                    self.order.swap(i, j as usize);
                }
                self.order.truncate(fill);
            }
            FillPattern::Clustered => {
                // ceil(fill/64) clusters of ≤64 adjacent buckets, cluster
                // starts spread evenly across the range.
                let clusters = fill.div_ceil(64);
                let stride = (nb / clusters).max(64);
                for c in 0..clusters {
                    let start = c * stride;
                    let run = 64.min(fill - c * 64).min(nb - start);
                    self.order.extend((start..start + run).map(|b| b as u64));
                }
                self.order.truncate(fill);
            }
        }
        &self.order
    }
}

/// One drain-rate measurement cell.
#[derive(Debug, Clone, Copy)]
pub struct DrainResult {
    /// Drain throughput, million packets per second.
    pub mpps: f64,
    /// Fraction of min-lookups answered by the curvature estimate's O(1)
    /// hit path (approximate queue only; 1.0 for the exact queues, whose
    /// min-find never searches).
    pub hit_rate: f64,
    /// Min-lookups the queue answered during the timed drains.
    pub lookups: u64,
}

fn build(kind: QueueUnderTest, nb: usize) -> Box<dyn RankedQueue<u64>> {
    kind.kind(nb).build(QueueConfig::new(nb, 1, 0))
}

fn finish(q: &dyn RankedQueue<u64>, drained: u64, drain_time: Duration) -> DrainResult {
    let s = q.stats();
    DrainResult {
        mpps: drained as f64 / drain_time.as_secs_f64() / 1e6,
        hit_rate: if s.lookups == 0 { 1.0 } else { s.hit_rate() },
        lookups: s.lookups,
    }
}

/// Figure 16 point: `ppb` packets in each of `nb` buckets (the paper's
/// "average number of packets per bucket" fill — *uniform*, every bucket
/// occupied, which is why the approximate queue "has zero error in such
/// cases"). Fills, drains, repeats; returns drain-phase throughput.
///
/// `batch = 1` drains with `dequeue_min` per packet (the paper's loop);
/// larger values drain through [`RankedQueue::dequeue_batch`], amortizing
/// the min-find across each batch.
pub fn drain_rate_packets_per_bucket(
    kind: QueueUnderTest,
    nb: usize,
    ppb: usize,
    batch: usize,
    budget: Duration,
) -> DrainResult {
    assert!(batch >= 1);
    let mut q = build(kind, nb);
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(batch);
    let mut drained = 0u64;
    let mut drain_time = Duration::ZERO;
    let start = Instant::now();
    while start.elapsed() < budget {
        for pass in 0..ppb {
            for b in 0..nb as u64 {
                q.enqueue(b, pass as u64).expect("in range");
            }
        }
        let t = Instant::now();
        if batch == 1 {
            while q.dequeue_min().is_some() {
                drained += 1;
            }
        } else {
            loop {
                out.clear();
                let got = q.dequeue_batch(batch, &mut out);
                if got == 0 {
                    break;
                }
                drained += got as u64;
            }
        }
        drain_time += t.elapsed();
    }
    finish(q.as_ref(), drained, drain_time)
}

/// Figure 17 point: `occupancy` fraction of `nb` buckets hold one packet,
/// placed per `pattern`. Returns drain-phase throughput.
pub fn drain_rate_occupancy(
    kind: QueueUnderTest,
    nb: usize,
    occupancy: f64,
    pattern: FillPattern,
    fill_order: &mut FillOrder,
    budget: Duration,
) -> DrainResult {
    assert!((0.0..=1.0).contains(&occupancy));
    let mut q = build(kind, nb);
    let fill = ((nb as f64 * occupancy) as usize).max(1);
    let mut drained = 0u64;
    let mut drain_time = Duration::ZERO;
    let start = Instant::now();
    let mut round = 0u64;
    // Time only the first 30% of each drain: the figure reports performance
    // *at* occupancy ρ, so the measured window must hold occupancy near ρ
    // rather than sweep it down to empty (the remainder drains untimed).
    // Hit/miss accounting follows the same window — the untimed tail sweeps
    // through every occupancy below ρ and would dilute the statistic.
    let probe = (fill * 3 / 10).max(1);
    let (mut hits, mut lookups) = (0u64, 0u64);
    while start.elapsed() < budget {
        // A fresh deterministic subset per round (reusing the hoisted
        // buffer): the per-subset spread of the drain statistics is large,
        // so a cell averages over many subset draws, not one.
        let order = fill_order.prepare(
            nb,
            pattern,
            fill,
            0x17_17 ^ nb as u64 ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        for &b in order {
            q.enqueue(b, 0).expect("in range");
        }
        let before = q.stats();
        let t = Instant::now();
        for _ in 0..probe {
            q.dequeue_min().expect("filled above probe count");
        }
        drain_time += t.elapsed();
        drained += probe as u64;
        let after = q.stats();
        hits += after.est_hits - before.est_hits;
        lookups += after.lookups - before.lookups;
        while q.dequeue_min().is_some() {}
        round += 1;
    }
    DrainResult {
        mpps: drained as f64 / drain_time.as_secs_f64() / 1e6,
        hit_rate: if lookups == 0 {
            1.0
        } else {
            hits as f64 / lookups as f64
        },
        lookups,
    }
}

/// Figure 18 point: average bucket error of the approximate queue *at* the
/// given occupancy (error tracking on, measured against the exact shadow).
///
/// Methodology: fill a fresh queue to occupancy ρ with a random bucket
/// subset, then record the error of the first ~2% of dequeues — enough
/// lookups to sample the estimator without letting the drain collapse the
/// occupancy away from ρ. The paper-literal alternative (drain to empty,
/// average over everything) is dominated by the miss-heavy near-empty
/// tail common to every starting ρ — it measures the tail, not the
/// occupancy on the x-axis; see EXPERIMENTS.md for both numbers. The
/// per-subset spread of this statistic is large (which random holes sit
/// near the head matters), so each round draws a fresh subset and the
/// average over `rounds` is the figure point.
pub fn approx_error_at_occupancy(nb: usize, occupancy: f64, rounds: usize, seed: u64) -> f64 {
    let fill = ((nb as f64 * occupancy) as usize).max(1).min(nb);
    let probe = (fill / 50).max(16).min(fill);
    let mut fill_order = FillOrder::new();
    let mut err_sum = 0u64;
    let mut lookups = 0u64;
    for round in 0..rounds {
        // Fresh deterministic reseed → fresh random occupied subset.
        let round_seed = seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let order = fill_order.prepare(nb, FillPattern::Sparse, fill, round_seed);
        let mut q: ApproxGradientQueue<u64> = ApproxGradientQueue::new(nb, 1).track_error();
        for &b in order {
            q.enqueue(b, 0).expect("in range");
        }
        for _ in 0..probe {
            q.dequeue_min().expect("filled above probe count");
        }
        let s = q.stats();
        err_sum += s.error_sum;
        lookups += s.lookups;
    }
    err_sum as f64 / lookups.max(1) as f64
}

/// Scheduling-quality cell: fills a fresh queue (`ppb` packets in each of
/// `fill` buckets placed per `pattern`), drains it to empty under the
/// PIFO-oracle audit, and returns the inversion / rank-error report —
/// **untimed**, so the oracle's `BTreeMap` bookkeeping never pollutes the
/// throughput cells measured by the functions above. Averaged over
/// `rounds` fresh deterministic subsets for the same reason the
/// throughput cells re-draw theirs: which holes land near the head
/// dominates a single draw.
pub fn drain_quality(
    kind: QueueUnderTest,
    nb: usize,
    pattern: FillPattern,
    fill: usize,
    ppb: usize,
    rounds: usize,
    seed: u64,
) -> OracleReport {
    let mut fill_order = FillOrder::new();
    // A fresh audit per round: the inversion counter is a suffix-min pass
    // over one drain sequence, and stitching rounds together would count
    // every round boundary (high tail → next round's low head) as a pile
    // of fake inversions.
    let mut total = OracleReport {
        pops: 0,
        inversions: 0,
        max_inversion: 0,
        rank_error_sum: 0,
        max_rank_error: 0,
    };
    for round in 0..rounds {
        let round_seed = seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let order = fill_order.prepare(nb, pattern, fill, round_seed);
        let mut q = build(kind, nb);
        let mut audit = OracleAudit::new();
        for pass in 0..ppb.max(1) {
            for &b in order {
                q.enqueue(b, pass as u64).expect("in range");
                audit.on_enqueue(b);
            }
        }
        while let Some((r, _)) = q.dequeue_min() {
            audit.on_dequeue(r);
        }
        assert!(audit.is_empty(), "{kind:?} lost elements");
        let rep = audit.finish();
        total.pops += rep.pops;
        total.inversions += rep.inversions;
        total.max_inversion = total.max_inversion.max(rep.max_inversion);
        total.rank_error_sum += rep.rank_error_sum;
        total.max_rank_error = total.max_rank_error.max(rep.max_rank_error);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queues_report_positive_rates() {
        let mut fo = FillOrder::new();
        for kind in [
            QueueUnderTest::BucketHeap,
            QueueUnderTest::Cffs,
            QueueUnderTest::Approx,
            QueueUnderTest::SpPifo,
            QueueUnderTest::Rifo,
        ] {
            let r = drain_rate_packets_per_bucket(kind, 512, 2, 1, Duration::from_millis(30));
            assert!(r.mpps > 0.1, "{kind:?} rate {} Mpps", r.mpps);
            if kind == QueueUnderTest::Approx {
                assert!(r.lookups > 0, "approx must record its lookups");
            }
            for pattern in [
                FillPattern::Dense,
                FillPattern::Sparse,
                FillPattern::Clustered,
            ] {
                let r = drain_rate_occupancy(
                    kind,
                    512,
                    0.9,
                    pattern,
                    &mut fo,
                    Duration::from_millis(20),
                );
                assert!(r.mpps > 0.1, "{kind:?}/{pattern:?} rate {} Mpps", r.mpps);
            }
        }
    }

    #[test]
    fn batched_drain_reports_positive_rates() {
        for kind in [
            QueueUnderTest::Cffs,
            QueueUnderTest::Approx,
            QueueUnderTest::SpPifo,
            QueueUnderTest::Rifo,
        ] {
            let r = drain_rate_packets_per_bucket(kind, 512, 4, 16, Duration::from_millis(30));
            assert!(r.mpps > 0.1, "{kind:?} batched rate {} Mpps", r.mpps);
        }
    }

    /// The quality pass separates the tiers: exact backends score zero on
    /// both metrics, the integer-only adaptive backends show bounded but
    /// non-zero inversions on a sparse fill.
    #[test]
    fn drain_quality_separates_exact_from_adaptive() {
        let nb = 512;
        for kind in [QueueUnderTest::BucketHeap, QueueUnderTest::Cffs] {
            let rep = drain_quality(kind, nb, FillPattern::Sparse, 256, 2, 4, 7);
            assert_eq!(rep.inversions, 0, "{kind:?} must be exact");
            assert_eq!(rep.rank_error_sum, 0, "{kind:?} must be exact");
            assert_eq!(rep.pops, 4 * 2 * 256);
        }
        for kind in [QueueUnderTest::SpPifo, QueueUnderTest::Rifo] {
            let rep = drain_quality(kind, nb, FillPattern::Sparse, 256, 2, 4, 7);
            assert_eq!(rep.pops, 4 * 2 * 256, "{kind:?} conserves");
            assert!(
                rep.inversions > 0,
                "{kind:?} on a one-shot random fill must show inversions \
                 (that is the trade these mappers make)"
            );
            // One-shot random fills are these mappers' worst case (SP-PIFO
            // adapts to *continuous* arrivals; RIFO's `lo` pins at the
            // first random rank, clamping everything below). Sanity band
            // only: the mean error stays under half the rank span.
            assert!(
                rep.avg_rank_error() < nb as f64 / 2.0,
                "{kind:?} avg rank error {} out of band",
                rep.avg_rank_error()
            );
        }
    }

    #[test]
    fn fill_patterns_have_requested_size_and_shape() {
        let mut fo = FillOrder::new();
        let dense = fo.prepare(1_000, FillPattern::Dense, 300, 1).to_vec();
        assert_eq!(dense, (0..300).collect::<Vec<u64>>());
        let sparse = fo.prepare(1_000, FillPattern::Sparse, 300, 1).to_vec();
        assert_eq!(sparse.len(), 300);
        let mut uniq = sparse.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 300, "sparse fill must be distinct buckets");
        assert!(uniq.iter().all(|&b| b < 1_000));
        assert_ne!(sparse, dense, "sparse fill should not be a prefix");
        let clustered = fo.prepare(1_000, FillPattern::Clustered, 300, 1).to_vec();
        assert_eq!(clustered.len(), 300);
        let mut uniq = clustered.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 300, "clusters must not overlap");
        // 300 buckets in ≥5 runs of ≤64: gaps exist between clusters.
        let gaps = clustered.windows(2).filter(|w| w[1] != w[0] + 1).count();
        assert!(gaps >= 4, "expected ≥4 cluster boundaries, got {gaps}");
        // Same seed → identical order (deterministic reseed).
        let again = fo.prepare(1_000, FillPattern::Sparse, 300, 1).to_vec();
        assert_eq!(again, sparse);
    }

    /// The hit-rate column orders the patterns as the theory says it must:
    /// dense prefix ⇒ estimator exact (hits ≈ 1); sparse ⇒ misses.
    #[test]
    fn hit_rate_tracks_pattern_difficulty() {
        let mut fo = FillOrder::new();
        let budget = Duration::from_millis(40);
        let dense = drain_rate_occupancy(
            QueueUnderTest::Approx,
            2_048,
            0.5,
            FillPattern::Dense,
            &mut fo,
            budget,
        );
        let sparse = drain_rate_occupancy(
            QueueUnderTest::Approx,
            2_048,
            0.5,
            FillPattern::Sparse,
            &mut fo,
            budget,
        );
        assert!(
            dense.hit_rate > sparse.hit_rate,
            "dense {p:.3} must out-hit sparse {q:.3}",
            p = dense.hit_rate,
            q = sparse.hit_rate
        );
        assert!(dense.hit_rate > 0.95, "dense prefix ⇒ estimator ≈ exact");
    }

    /// Figure 18's trend: error grows as occupancy falls.
    #[test]
    fn approx_error_grows_with_emptiness() {
        let hi = approx_error_at_occupancy(1_024, 0.99, 24, 42);
        let lo = approx_error_at_occupancy(1_024, 0.5, 24, 42);
        assert!(
            lo > hi,
            "error at 50% occupancy ({lo:.2}) must exceed error at 99% ({hi:.2})"
        );
    }
}
