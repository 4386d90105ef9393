//! SP-PIFO: an adaptive strict-priority approximation of a PIFO.
//!
//! From *SP-PIFO: Approximating Push-In First-Out Behaviors using
//! Strict-Priority Queues* (see PAPERS.md; the "Everything Matters in
//! Programmable Packet Scheduling" line of work). The structure is `n`
//! strict-priority FIFO queues plus one **queue bound** per queue, adapted
//! online:
//!
//! - **Mapping**: an arriving rank scans queues from lowest priority to
//!   highest and joins the first queue whose bound does not exceed the
//!   rank; the bound is then raised to the rank (**push-up**).
//! - **Push-down**: if even the highest-priority queue's bound exceeds the
//!   rank, every bound is decreased by the overshoot (`bound[0] − rank`)
//!   and the packet joins the highest-priority queue — the paper's
//!   reaction to an inversion it just caused.
//!
//! Everything is integer compare/subtract — no division, no floats — which
//! is exactly why it competes in the Figure 16/17 bake-off against the
//! divide-carrying approximate gradient queue. The price is *bounded
//! unordering*: dequeues within one queue are FIFO regardless of rank, so
//! the PIFO-oracle metrics ([`crate::oracle`]) are nonzero by design.
//!
//! The bounds stay sorted (nondecreasing from the highest-priority queue
//! down): push-up raises `bound[i]` to a rank that was already below
//! `bound[i+1]`, and push-down subtracts the same amount from every bound
//! (saturating at zero, which preserves order). The conformance suite
//! asserts this invariant after every operation.
//!
//! Like RIFO, SP-PIFO is a rank *mapping* over the one bucket store: queue
//! `i` is bucket `i` of an [`FfsQueue`], so serving the highest-priority
//! non-empty queue is one `trailing_zeros`.

use crate::bucketed::FfsQueue;
use crate::traits::{EnqueueError, QueueStats, RankedQueue};

/// Maximum number of strict-priority queues (one occupancy word).
const MAX_QUEUES: usize = 64;

/// Adaptive strict-priority PIFO approximation over `n ≤ 64` FIFO queues.
#[derive(Debug, Clone)]
pub struct SpPifoQueue<T> {
    /// Bucket `i` is queue `i`; bucket 0 is the highest priority (served
    /// first).
    store: FfsQueue<T>,
    /// Per-queue admission bound, sorted nondecreasing.
    bounds: Vec<u64>,
    stats: QueueStats,
}

impl<T> SpPifoQueue<T> {
    /// Creates an SP-PIFO over `n` strict-priority queues (the papers
    /// evaluate 8–32; hardware offers ≤ 64). Bounds start at zero.
    pub fn new(n: usize) -> Self {
        assert!((1..=MAX_QUEUES).contains(&n), "need 1..=64 queues");
        SpPifoQueue {
            store: FfsQueue::with_buckets(n, 1, 0),
            bounds: vec![0; n],
            stats: QueueStats::default(),
        }
    }

    /// The current per-queue admission bounds (highest priority first).
    /// Diagnostics: the conformance suite checks they stay sorted.
    pub fn queue_bounds(&self) -> &[u64] {
        &self.bounds
    }
}

impl<T> RankedQueue<T> for SpPifoQueue<T> {
    /// Never refuses: ranks are unbounded (the adaptation absorbs any
    /// range). `est_hits` counts clean mappings, `est_misses` push-downs,
    /// and `error_sum` accumulates the push-down overshoot — the
    /// structure's own estimate of the inversions it admits.
    fn enqueue(&mut self, rank: u64, item: T) -> Result<(), EnqueueError<T>> {
        self.stats.lookups += 1;
        let q = match self.bounds.iter().rposition(|&b| b <= rank) {
            Some(i) => {
                self.bounds[i] = rank; // push-up
                self.stats.est_hits += 1;
                i
            }
            None => {
                // Push-down: even the top queue's bound exceeds the rank.
                let cost = self.bounds[0] - rank;
                for b in &mut self.bounds {
                    *b = b.saturating_sub(cost);
                }
                self.stats.est_misses += 1;
                self.stats.error_sum += cost;
                0
            }
        };
        self.store.push_bucket(q, rank, item);
        Ok(())
    }

    fn dequeue_min(&mut self) -> Option<(u64, T)> {
        self.store.dequeue_min()
    }

    fn dequeue_batch(&mut self, max: usize, out: &mut Vec<(u64, T)>) -> usize {
        self.store.dequeue_batch(max, out)
    }

    /// The rank the next dequeue will return (front of the serving queue).
    /// Like a bucket-granular peek this can exceed ranks queued behind it —
    /// that is the approximation.
    fn peek_min_rank(&self) -> Option<u64> {
        self.store.front_rank()
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds_sorted<T>(q: &SpPifoQueue<T>) -> bool {
        q.queue_bounds().windows(2).all(|w| w[0] <= w[1])
    }

    #[test]
    fn maps_and_serves_strict_priority() {
        let mut q: SpPifoQueue<u32> = SpPifoQueue::new(4);
        // First arrivals land in the lowest-priority queue (all bounds 0)
        // and push its bound up.
        q.enqueue(40, 1).unwrap();
        q.enqueue(620, 2).unwrap();
        // 40 no longer fits queue 3 (bound 620): maps one queue up.
        q.enqueue(40, 3).unwrap();
        assert_eq!(q.len(), 3);
        assert!(bounds_sorted(&q));
        // Queue 2 (holding the later 40) serves before queue 3's FIFO —
        // the SP-PIFO approximation reorders equal ranks across queues.
        assert_eq!(q.dequeue_min(), Some((40, 3)));
        assert_eq!(q.dequeue_min(), Some((40, 1)));
        assert_eq!(q.dequeue_min(), Some((620, 2)));
        assert_eq!(q.dequeue_min(), None);
    }

    #[test]
    fn push_down_reacts_to_low_ranks() {
        let mut q: SpPifoQueue<&str> = SpPifoQueue::new(2);
        q.enqueue(100, "a").unwrap(); // queue 1, bound 100
        q.enqueue(200, "b").unwrap(); // queue 1, bound 200
        q.enqueue(150, "c").unwrap(); // queue 0, bound 150
                                      // 120 < bound[0]=150: push-down by 30, lands in queue 0.
        q.enqueue(120, "d").unwrap();
        assert!(bounds_sorted(&q));
        let s = q.stats();
        assert_eq!(s.lookups, 4);
        assert_eq!(s.est_misses, 1);
        assert_eq!(s.error_sum, 30);
        assert_eq!(q.queue_bounds(), &[120, 170]);
        // Queue 0 FIFO: c then d, then queue 1: a, b.
        let order: Vec<&str> = std::iter::from_fn(|| q.dequeue_min().map(|(_, v)| v)).collect();
        assert_eq!(order, ["c", "d", "a", "b"]);
    }

    #[test]
    fn batch_matches_repeated_single() {
        let ranks = [
            9u64, 3, 7, 3, 100, 42, 5, 0, 77, 6, 6, 6, 1, 88, 41, 2, 95, 13,
        ];
        let mut single: SpPifoQueue<usize> = SpPifoQueue::new(8);
        let mut batched: SpPifoQueue<usize> = SpPifoQueue::new(8);
        for (i, &r) in ranks.iter().enumerate() {
            single.enqueue(r, i).unwrap();
            batched.enqueue(r, i).unwrap();
        }
        let mut a = Vec::new();
        while let Some(p) = single.dequeue_min() {
            a.push(p);
        }
        let mut b = Vec::new();
        while batched.dequeue_batch(5, &mut b) > 0 {}
        assert_eq!(a, b);
    }

    #[test]
    fn conserves_elements_under_churn() {
        let mut q: SpPifoQueue<u64> = SpPifoQueue::new(8);
        let mut seed = 0x5eed_1234_u64;
        let mut put = 0u64;
        let mut got = 0u64;
        for _ in 0..10_000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (seed >> 33) % 1_000;
            q.enqueue(r, r).unwrap();
            put += 1;
            assert!(bounds_sorted(&q));
            if seed & 1 == 0 {
                let (rank, item) = q.dequeue_min().unwrap();
                assert_eq!(rank, item);
                got += 1;
            }
        }
        while q.dequeue_min().is_some() {
            got += 1;
        }
        assert_eq!(put, got);
        assert!(q.is_empty());
        assert_eq!(q.stats().lookups, put);
    }

    #[test]
    fn peek_matches_next_dequeue() {
        let mut q: SpPifoQueue<u8> = SpPifoQueue::new(4);
        assert_eq!(q.peek_min_rank(), None);
        for r in [50u64, 10, 90, 30] {
            q.enqueue(r, r as u8).unwrap();
        }
        while let Some(peek) = q.peek_min_rank() {
            let (r, _) = q.dequeue_min().unwrap();
            assert_eq!(peek, r);
        }
    }
}
