//! RIFO: rank-range bucket mapping over the FFS substrate.
//!
//! From *RIFO: Pushing the Efficiency of Programmable Packet Schedulers*
//! (see PAPERS.md). Where cFFS fixes granularity and moves its window, and
//! the gradient queue estimates curvature, RIFO keeps a fixed array of `N`
//! buckets and **adapts the rank range** it spreads over them: the live
//! range `[lo, hi]` is tracked online and an arriving rank maps to bucket
//! `(rank − lo) / g` with `g = (hi − lo)/N + 1`. Ranks below the range
//! join bucket 0 (they are "due"); ranks above extend `hi`, which only
//! ever widens `g` while the queue is non-empty. When the queue drains
//! empty, the next enqueue re-bases the range — the moving-range behaviour
//! packet ranks exhibit in practice (paper §2's "limited moving range").
//!
//! The mapping divisor changes rarely (only when `hi − lo` crosses a
//! multiple of `N`), so the division is served by a cached
//! [`Reciprocal`] — the hot path is subtract + multiply-shift, integer
//! only. Storage and min-find are the one bucket store over a
//! [`crate::HierFfsQueue`], addressed by bucket index; elements within a
//! bucket are FIFO, so rank error is bounded by the bucket width `g − 1`
//! for any fixed range (the conformance suite pins exactly that
//! invariant).

use crate::bucketed::HierFfsQueue;
use crate::recip::Reciprocal;
use crate::traits::{EnqueueError, QueueStats, RankedQueue};

/// Adaptive rank-range bucket queue (integer-only mapping, FFS min-find).
#[derive(Debug, Clone)]
pub struct RifoQueue<T> {
    store: HierFfsQueue<T>,
    /// Live rank range covered by the bucket array.
    lo: u64,
    hi: u64,
    /// Cached divider for the current bucket width `g`.
    recip: Reciprocal,
    stats: QueueStats,
}

impl<T> RifoQueue<T> {
    /// Creates a RIFO queue over `n` buckets. The rank range is adopted
    /// from the first enqueue.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one bucket");
        RifoQueue {
            store: HierFfsQueue::new(n, 1),
            lo: 0,
            hi: 0,
            recip: Reciprocal::new(1),
            stats: QueueStats::default(),
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.store.num_buckets()
    }

    /// The live rank range `(lo, hi)` and bucket width `g` — diagnostics
    /// for the conformance suite's range invariant.
    pub fn range(&self) -> (u64, u64, u64) {
        (self.lo, self.hi, self.recip.divisor())
    }

    /// Bucket for `rank`, adapting the range. Only valid to call on the
    /// enqueue path (it may rebase or widen).
    fn map(&mut self, rank: u64) -> usize {
        if self.store.is_empty() {
            // Fresh range: the whole array ahead of this rank.
            self.lo = rank;
            self.hi = rank;
            if self.recip.divisor() != 1 {
                self.recip = Reciprocal::new(1);
            }
            return 0;
        }
        if rank < self.lo {
            // Below the live range: due now, shares the minimum bucket.
            self.stats.clamped_low += 1;
            return 0;
        }
        if rank > self.hi {
            self.hi = rank;
            // g = (hi−lo)/N + 1 keeps every mapped index < N and never
            // overflows (no +1 inside the dividend).
            let g = (self.hi - self.lo) / self.num_buckets() as u64 + 1;
            if g != self.recip.divisor() {
                self.recip = Reciprocal::new(g);
            }
        }
        self.recip.div(rank - self.lo) as usize
    }
}

impl<T> RankedQueue<T> for RifoQueue<T> {
    /// Never refuses: the range adapts to any rank. Out-of-range-low ranks
    /// are clamped into bucket 0 and counted in `clamped_low`.
    fn enqueue(&mut self, rank: u64, item: T) -> Result<(), EnqueueError<T>> {
        let b = self.map(rank);
        self.store.push_bucket(b, rank, item);
        Ok(())
    }

    fn dequeue_min(&mut self) -> Option<(u64, T)> {
        self.store.dequeue_min()
    }

    fn dequeue_batch(&mut self, max: usize, out: &mut Vec<(u64, T)>) -> usize {
        self.store.dequeue_batch(max, out)
    }

    /// The rank the next dequeue will return (FIFO front of the minimum
    /// occupied bucket).
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

    #[test]
    fn adopts_and_widens_range() {
        let mut q: RifoQueue<u32> = RifoQueue::new(128);
        q.enqueue(40, 1).unwrap();
        assert_eq!(q.range(), (40, 40, 1));
        q.enqueue(620, 2).unwrap();
        // g = (620−40)/128 + 1 = 5.
        assert_eq!(q.range(), (40, 620, 5));
        q.enqueue(40, 3).unwrap();
        assert_eq!(q.dequeue_min(), Some((40, 1)));
        assert_eq!(q.dequeue_min(), Some((40, 3)), "FIFO within bucket");
        assert_eq!(q.dequeue_min(), Some((620, 2)));
        assert_eq!(q.dequeue_min(), None);
    }

    #[test]
    fn rebases_after_draining_empty() {
        let mut q: RifoQueue<()> = RifoQueue::new(16);
        q.enqueue(1_000_000, ()).unwrap();
        q.enqueue(2_000_000, ()).unwrap();
        while q.dequeue_min().is_some() {}
        // A fresh, far-away range is adopted, not clamped.
        q.enqueue(5, ()).unwrap();
        assert_eq!(q.range(), (5, 5, 1));
        assert_eq!(q.stats().clamped_low, 0);
        assert_eq!(q.peek_min_rank(), Some(5));
    }

    #[test]
    fn below_range_ranks_clamp_to_minimum_bucket() {
        let mut q: RifoQueue<u8> = RifoQueue::new(8);
        q.enqueue(100, 0).unwrap();
        q.enqueue(900, 1).unwrap(); // g = 101
        q.enqueue(7, 2).unwrap(); // below lo=100: bucket 0
        assert_eq!(q.stats().clamped_low, 1);
        // Bucket 0 FIFO: the 100 entered first.
        assert_eq!(q.dequeue_min(), Some((100, 0)));
        assert_eq!(q.dequeue_min(), Some((7, 2)));
        assert_eq!(q.dequeue_min(), Some((900, 1)));
    }

    #[test]
    fn rank_error_bounded_by_bucket_width_for_pinned_range() {
        // Pin the range up front, then check dequeue order never inverts
        // by more than g − 1.
        let nb = 64;
        let mut q: RifoQueue<u64> = RifoQueue::new(nb);
        q.enqueue(0, 0).unwrap();
        q.enqueue(6_400, 6_400).unwrap();
        let (_, _, g) = q.range();
        assert_eq!(g, 101);
        let mut seedv = 0x1234_5678_9abc_def0u64;
        for _ in 0..500 {
            seedv = seedv.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (seedv >> 33) % 6_401;
            q.enqueue(r, r).unwrap();
        }
        let mut popped = Vec::new();
        while let Some((r, _)) = q.dequeue_min() {
            popped.push(r);
        }
        let (_, max_gap) = crate::oracle::count_inversions(&popped);
        assert!(max_gap < g, "max inversion {max_gap} must stay below g={g}");
    }

    #[test]
    fn batch_matches_repeated_single() {
        let ranks = [
            12u64, 900, 3, 3, 77, 500_000, 41, 0, 13, 13, 260, 99, 1_000_000,
        ];
        let mut single: RifoQueue<usize> = RifoQueue::new(32);
        let mut batched: RifoQueue<usize> = RifoQueue::new(32);
        for (i, &r) in ranks.iter().enumerate() {
            single.enqueue(r, i).unwrap();
            batched.enqueue(r, i).unwrap();
        }
        let mut a = Vec::new();
        while let Some(p) = single.dequeue_min() {
            a.push(p);
        }
        let mut b = Vec::new();
        while batched.dequeue_batch(4, &mut b) > 0 {}
        assert_eq!(a, b);
    }
}
