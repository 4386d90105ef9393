//! Circular Hierarchical FFS-based queue (**cFFS**) — Figure 4, the paper's
//! flagship structure.
//!
//! Fixed-range FFS queues break under the moving rank ranges of real
//! policies (transmission timestamps only grow), and naive mod-indexing
//! corrupts the bitmap (§3.1.1's slot-zero example). Eiffel's fix: keep
//! **two** fixed-range queues, a *primary* covering `[h, h + span)` and a
//! *secondary* covering `[h + span, h + 2·span)`. Elements beyond even the
//! secondary's range are "enqueued at the last bucket in the secondary queue,
//! and thus losing their proper ordering" — an explicit, bounded inaccuracy
//! the operator avoids by sizing the horizon for the policy. When the primary
//! drains, the queue "circulates by switching the pointers of the two queues"
//! and advancing `h` by one span; no bitmap is ever reset and no element is
//! ever re-scanned.
//!
//! The window is a rank mapping over two halves of the one bucket store,
//! generic over the store's [`Occupancy`] index, so the same logic also
//! yields the circular approximate gradient queue
//! ([`crate::CircularApproxQueue`]; §3.1.2: "for cases of a moving range, a
//! circular approximate queue can be implemented as with cFFS").

use crate::bucketed::{Bucketed, HierFfsQueue, Occupancy};
use crate::hierbitmap::HierBitmap;
use crate::recip::Reciprocal;
use crate::traits::{EnqueueError, QueueStats, RankedQueue};

/// Moving-window queue built from two fixed-range halves (Figure 4), each
/// a [`Bucketed`] store with index `I`.
#[derive(Debug, Clone)]
pub struct Circular<I, T> {
    halves: [Bucketed<I, T>; 2],
    /// Which half is currently the primary (0 or 1).
    primary: usize,
    /// Lowest rank covered by the primary window, aligned to the granularity
    /// grid ("h_index" in the paper).
    h_index: u64,
    /// The bucket granularity, stored once as its precomputed reciprocal:
    /// `recip.divisor()` reads it back, `recip.div`/`recip.rem` perform the
    /// enqueue-path rank→bucket division as a multiply-shift.
    recip: Reciprocal,
    num_buckets: usize,
    stats: QueueStats,
}

impl<I: Occupancy, T> Circular<I, T> {
    /// Builds a circular queue from two identical fixed-range halves.
    ///
    /// The window starts at `start_rank` (rounded down to the granularity
    /// grid).
    pub fn from_halves(
        a: Bucketed<I, T>,
        b: Bucketed<I, T>,
        granularity: u64,
        start_rank: u64,
    ) -> Self {
        assert!(granularity > 0, "granularity must be positive");
        assert_eq!(
            a.num_buckets(),
            b.num_buckets(),
            "halves must have identical geometry"
        );
        let num_buckets = a.num_buckets();
        let recip = Reciprocal::new(granularity);
        Circular {
            halves: [a, b],
            primary: 0,
            h_index: start_rank - recip.rem(start_rank),
            recip,
            num_buckets,
            stats: QueueStats::default(),
        }
    }

    /// Rank units covered by one window half.
    pub fn span(&self) -> u64 {
        self.num_buckets as u64 * self.recip.divisor()
    }

    /// Lowest rank covered by the primary window.
    pub fn h_index(&self) -> u64 {
        self.h_index
    }

    /// Number of buckets per half.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// Rank units per bucket.
    pub fn granularity(&self) -> u64 {
        self.recip.divisor()
    }

    fn primary_ref(&self) -> &Bucketed<I, T> {
        &self.halves[self.primary]
    }

    fn secondary_ref(&self) -> &Bucketed<I, T> {
        &self.halves[1 - self.primary]
    }

    /// Swaps the primary and secondary pointers and advances the window —
    /// the paper's "circulation". Only legal when the primary is drained.
    fn rotate(&mut self) {
        debug_assert_eq!(self.primary_ref().len(), 0);
        self.primary = 1 - self.primary;
        self.h_index += self.span();
    }
}

impl<I: Occupancy, T> RankedQueue<T> for Circular<I, T> {
    fn enqueue(&mut self, rank: u64, item: T) -> Result<(), EnqueueError<T>> {
        let span = self.span();
        // Re-base an empty queue whose window lags so far behind that the
        // rank would land in the overflow bucket: with nothing enqueued there
        // is no ordering to preserve, and jumping the window forward keeps
        // the rank exact. The window never moves backwards, and a non-empty
        // queue never re-bases (rotation is the only other advance).
        if rank >= self.h_index + 2 * span && self.is_empty() {
            self.h_index = rank - self.recip.rem(rank);
        }
        let (half, bucket) = if rank < self.h_index {
            // Overdue rank: due immediately (Carousel clamps identically).
            self.stats.clamped_low += 1;
            (self.primary, 0)
        } else {
            let off = self.recip.div(rank - self.h_index);
            if off < self.num_buckets as u64 {
                (self.primary, off as usize)
            } else if off < 2 * self.num_buckets as u64 {
                (1 - self.primary, off as usize - self.num_buckets)
            } else {
                // Beyond the secondary window: last bucket, order not kept.
                debug_assert!(rank >= self.h_index + 2 * span);
                self.stats.clamped_high += 1;
                (1 - self.primary, self.num_buckets - 1)
            }
        };
        self.halves[half].push_bucket(bucket, rank, item);
        Ok(())
    }

    fn dequeue_min(&mut self) -> Option<(u64, T)> {
        if self.primary_ref().is_empty() {
            if self.secondary_ref().is_empty() {
                return None;
            }
            self.rotate();
        }
        let pair = self.halves[self.primary].dequeue_min();
        Some(pair.expect("primary non-empty after rotation"))
    }

    /// Batched fast path: drains the primary half through its own
    /// [`RankedQueue::dequeue_batch`], rotating into the secondary exactly
    /// when repeated [`RankedQueue::dequeue_min`] would.
    fn dequeue_batch(&mut self, max: usize, out: &mut Vec<(u64, T)>) -> usize {
        let mut n = 0;
        while n < max {
            if self.primary_ref().is_empty() {
                if self.secondary_ref().is_empty() {
                    break;
                }
                self.rotate();
            }
            let got = self.halves[self.primary].dequeue_batch(max - n, out);
            // Fail as loudly as dequeue_min would: a half that claims
            // elements but pops none must not spin this loop forever.
            assert!(got > 0, "primary non-empty after rotation");
            n += got;
        }
        n
    }

    /// Exact max extraction: the secondary half's window covers strictly
    /// larger ranks than the primary's (and holds the clamped-high
    /// overflow), so the maximum lives wherever the secondary is non-empty.
    /// No rotation — that stays the exclusive business of the min path.
    fn dequeue_max(&mut self) -> Option<(u64, T)> {
        let half = if self.secondary_ref().is_empty() {
            self.primary
        } else {
            1 - self.primary
        };
        self.halves[half].dequeue_max()
    }

    fn peek_min_rank(&self) -> Option<u64> {
        if let Some(b) = self.primary_ref().min_bucket() {
            return Some(self.h_index + b as u64 * self.recip.divisor());
        }
        self.secondary_ref()
            .min_bucket()
            .map(|b| self.h_index + self.span() + b as u64 * self.recip.divisor())
    }

    fn len(&self) -> usize {
        self.halves[0].len() + self.halves[1].len()
    }

    fn stats(&self) -> QueueStats {
        let mut s = self.stats;
        for h in &self.halves {
            let cs = h.stats();
            s.lookups += cs.lookups;
            s.error_sum += cs.error_sum;
            s.est_hits += cs.est_hits;
            s.est_misses += cs.est_misses;
        }
        s
    }
}

/// The paper's cFFS: a [`Circular`] queue over two hierarchical FFS halves.
pub type CffsQueue<T> = Circular<HierBitmap, T>;

impl<T> CffsQueue<T> {
    /// Creates a cFFS with `num_buckets` buckets of `granularity` rank units
    /// per window half, starting at `start_rank`.
    ///
    /// Total coverage at any instant is `2 × num_buckets × granularity` rank
    /// units ahead of `h_index` — e.g. the paper's kernel shaper uses 20k
    /// buckets with a 2-second horizon (§5.1.1).
    pub fn new(num_buckets: usize, granularity: u64, start_rank: u64) -> Self {
        Circular::from_halves(
            HierFfsQueue::new(num_buckets, granularity),
            HierFfsQueue::new(num_buckets, granularity),
            granularity,
            start_rank,
        )
    }

    /// Pops the minimum element only if its bucket-edge rank is ≤ `bound`;
    /// otherwise leaves the queue untouched and returns `None`.
    ///
    /// Equivalent to `peek_min_rank()` + compare + `dequeue_min()`, but with
    /// a single bitmap word-descent instead of two — the peek already found
    /// the minimum bucket, so the pop reuses it. Like `dequeue_min`, the
    /// window rotates only when an element actually leaves; a rejected probe
    /// must not advance `h_index`, or ranks that were still inside the old
    /// primary window would arrive clamped and be released a span late.
    /// Time-indexed consumers (shapers, the hClock reservation/limit clocks)
    /// call this once per service with `bound = now`, which halves the
    /// descent cost of their hot loop; see
    /// `BENCH_fig12_hclock_scaling.json`.
    pub fn dequeue_min_le(&mut self, bound: u64) -> Option<(u64, T)> {
        let b = self.due_bucket(bound)?;
        let pair = self.halves[self.primary].pop_bucket(b);
        Some(pair.expect("min_bucket said non-empty"))
    }

    /// The minimum bucket if its edge is ≤ `bound`, rotating first when it
    /// lies in the secondary half; `None` (window untouched) otherwise.
    fn due_bucket(&mut self, bound: u64) -> Option<usize> {
        let (half, base) = if !self.primary_ref().is_empty() {
            (self.primary, self.h_index)
        } else if !self.secondary_ref().is_empty() {
            (1 - self.primary, self.h_index + self.span())
        } else {
            return None;
        };
        let b = self.halves[half].min_bucket().expect("half is non-empty");
        if base + b as u64 * self.recip.divisor() > bound {
            return None;
        }
        if half != self.primary {
            self.rotate();
        }
        Some(b)
    }

    /// Pops up to `max` elements whose bucket-edge rank is ≤ `bound`, in
    /// exactly the order repeated [`CffsQueue::dequeue_min_le`] calls would
    /// produce, appending them to `out` and returning the count.
    ///
    /// This is the shaper-side analogue of [`RankedQueue::dequeue_batch`]:
    /// one bitmap descent locates the minimum due bucket, whose FIFO is then
    /// popped directly ([`crate::Bucketed::pop_bucket`], O(1) per element)
    /// until it empties, the batch fills, or the next bucket's edge passes
    /// `bound`. Timer-driven hosts drain everything due at a softirq through
    /// this path, paying the descent once per occupied bucket instead of
    /// once per packet.
    pub fn dequeue_le_batch(&mut self, bound: u64, max: usize, out: &mut Vec<(u64, T)>) -> usize {
        let mut n = 0;
        while n < max {
            let Some(b) = self.due_bucket(bound) else {
                break; // empty, or the earliest pending bucket is not yet due
            };
            // Drain the due bucket's FIFO without further descents.
            while n < max {
                match self.halves[self.primary].pop_bucket(b) {
                    Some(pair) => {
                        out.push(pair);
                        n += 1;
                    }
                    None => break, // bucket emptied: re-probe the bitmap
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut impl RankedQueue<T>) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some((r, _)) = q.dequeue_min() {
            out.push(r);
        }
        out
    }

    #[test]
    fn orders_across_both_windows() {
        let mut q: CffsQueue<u32> = CffsQueue::new(10, 10, 0);
        // primary covers [0,100), secondary [100,200)
        q.enqueue(150, 1).unwrap();
        q.enqueue(20, 2).unwrap();
        q.enqueue(99, 3).unwrap();
        q.enqueue(100, 4).unwrap();
        assert_eq!(drain(&mut q), vec![20, 99, 100, 150]);
    }

    #[test]
    fn rotation_advances_window_without_losing_elements() {
        let mut q: CffsQueue<u32> = CffsQueue::new(4, 1, 0);
        // span = 4. Fill primary [0,4) and secondary [4,8).
        for r in 0..8u64 {
            q.enqueue(r, r as u32).unwrap();
        }
        assert_eq!(q.h_index(), 0);
        // Drain the primary; the 5th dequeue forces a rotation.
        for want in 0..8u64 {
            assert_eq!(q.dequeue_min().unwrap().0, want);
        }
        assert_eq!(q.h_index(), 4);
        assert!(q.is_empty());
    }

    #[test]
    fn beyond_horizon_lands_in_overflow_bucket_fifo() {
        let mut q: CffsQueue<&str> = CffsQueue::new(4, 1, 0);
        // Window covers [0,8). With the queue non-empty (no re-base), 100 and
        // 50 are both beyond → overflow bucket, FIFO order (not rank order):
        // the paper's documented inaccuracy.
        q.enqueue(3, "due").unwrap();
        q.enqueue(100, "first-in").unwrap();
        q.enqueue(50, "second-in").unwrap();
        assert_eq!(q.stats().clamped_high, 2);
        assert_eq!(q.dequeue_min().unwrap().1, "due");
        assert_eq!(q.dequeue_min().unwrap().1, "first-in"); // FIFO, not 50 first
        assert_eq!(q.dequeue_min().unwrap().1, "second-in");
    }

    #[test]
    fn below_window_clamps_to_due_now() {
        let mut q: CffsQueue<&str> = CffsQueue::new(4, 100, 1_000);
        q.enqueue(400, "overdue").unwrap(); // below h_index = 1000
        q.enqueue(1_050, "soon").unwrap();
        assert_eq!(q.stats().clamped_low, 1);
        // Overdue element comes out first (bucket 0 of primary).
        assert_eq!(q.dequeue_min().unwrap().1, "overdue");
        assert_eq!(q.dequeue_min().unwrap().1, "soon");
    }

    #[test]
    fn empty_queue_rebases_forward_only() {
        let mut q: CffsQueue<u32> = CffsQueue::new(4, 10, 0);
        q.enqueue(1_000_000, 1).unwrap();
        // Window jumped to the new rank instead of clamping it.
        assert_eq!(q.stats().clamped_high, 0);
        assert_eq!(q.h_index(), 1_000_000);
        assert_eq!(q.peek_min_rank(), Some(1_000_000));
        q.dequeue_min().unwrap();
        // Now empty again: an older rank must NOT move the window back…
        q.enqueue(500, 2).unwrap();
        assert_eq!(q.h_index(), 1_000_000, "window never re-bases backwards");
        assert_eq!(q.stats().clamped_low, 1);
        assert_eq!(q.dequeue_min().unwrap().0, 500);
        // …and a rank within the current coverage does not re-base either.
        q.enqueue(1_000_050, 3).unwrap();
        assert_eq!(q.h_index(), 1_000_000);
        assert_eq!(q.dequeue_min().unwrap().0, 1_000_050);
    }

    #[test]
    fn dequeue_min_le_matches_peek_then_pop() {
        // Reference semantics: pop iff peek_min_rank() ≤ bound.
        let mut fused: CffsQueue<u64> = CffsQueue::new(16, 10, 0);
        let mut split: CffsQueue<u64> = CffsQueue::new(16, 10, 0);
        let ranks = [5u64, 5, 42, 160, 170, 170, 319, 500];
        for &r in &ranks {
            fused.enqueue(r, r).unwrap();
            split.enqueue(r, r).unwrap();
        }
        for bound in [0u64, 4, 5, 50, 100, 165, 200, 320, 1_000, 5_000] {
            loop {
                let expect = match split.peek_min_rank() {
                    Some(edge) if edge <= bound => split.dequeue_min(),
                    _ => None,
                };
                let got = fused.dequeue_min_le(bound);
                assert_eq!(got, expect, "bound {bound}");
                if got.is_none() {
                    break;
                }
            }
        }
        assert!(fused.is_empty() && split.is_empty());
    }

    #[test]
    fn dequeue_le_batch_matches_repeated_dequeue_min_le() {
        // Reference semantics: the batch is exactly what a loop of
        // dequeue_min_le(bound) yields, across rotations and partial
        // buckets, with enqueues interleaved between batches.
        let mut batched: CffsQueue<u64> = CffsQueue::new(8, 10, 0);
        let mut single: CffsQueue<u64> = CffsQueue::new(8, 10, 0);
        let ranks = [5u64, 5, 12, 12, 12, 79, 80, 95, 141, 200, 200, 310];
        for &r in &ranks {
            batched.enqueue(r, r).unwrap();
            single.enqueue(r, r).unwrap();
        }
        let mut out = Vec::new();
        for (i, bound) in [0u64, 4, 5, 13, 70, 90, 150, 199, 1_000]
            .into_iter()
            .enumerate()
        {
            for max in [1usize, 2, 3, 64] {
                out.clear();
                let got = batched.dequeue_le_batch(bound, max, &mut out);
                assert_eq!(got, out.len());
                assert!(got <= max);
                for pair in &out {
                    assert_eq!(Some(*pair), single.dequeue_min_le(bound));
                }
                if got < max {
                    assert_eq!(single.dequeue_min_le(bound), None, "bound {bound}");
                }
            }
            // Interleave an enqueue so batches also cross window rotations.
            let r = 90 + 37 * i as u64;
            batched.enqueue(r, r).unwrap();
            single.enqueue(r, r).unwrap();
        }
        assert_eq!(batched.len(), single.len());
    }

    #[test]
    fn dequeue_le_batch_rejected_probe_does_not_rotate() {
        // Same invariant dequeue_min_le holds: probing an ineligible
        // secondary-only queue must not advance the window.
        let mut q: CffsQueue<u32> = CffsQueue::new(4, 1, 0);
        q.enqueue(6, 6).unwrap(); // secondary window [4, 8)
        let mut out = Vec::new();
        assert_eq!(q.dequeue_le_batch(0, 16, &mut out), 0);
        assert_eq!(q.h_index(), 0, "rejected probe left the window alone");
        q.enqueue(2, 2).unwrap();
        assert_eq!(q.stats().clamped_low, 0);
        assert_eq!(q.dequeue_le_batch(6, 16, &mut out), 2);
        assert_eq!(out, vec![(2, 2), (6, 6)]);
    }

    #[test]
    fn dequeue_min_le_rotates_into_secondary() {
        let mut q: CffsQueue<u32> = CffsQueue::new(4, 1, 0);
        // Only the secondary window [4, 8) is occupied.
        q.enqueue(6, 1).unwrap();
        assert_eq!(q.dequeue_min_le(5), None, "6 is not yet due at bound 5");
        assert_eq!(q.dequeue_min_le(6), Some((6, 1)));
        assert_eq!(q.dequeue_min_le(u64::MAX), None, "drained");
    }

    #[test]
    fn rejected_probe_does_not_rotate_the_window() {
        // Regression: an ineligible dequeue_min_le on a secondary-only
        // queue must NOT advance the window. If it did, a later enqueue of
        // a rank still inside the old primary window would clamp into
        // bucket 0 (edge = new h_index) and be held a full span past due.
        let mut q: CffsQueue<u32> = CffsQueue::new(4, 1, 0);
        q.enqueue(6, 6).unwrap(); // secondary window [4, 8)
        assert_eq!(q.dequeue_min_le(0), None);
        assert_eq!(q.h_index(), 0, "rejected probe left the window alone");
        q.enqueue(2, 2).unwrap(); // still representable in the primary
        assert_eq!(q.stats().clamped_low, 0);
        assert_eq!(q.dequeue_min_le(2), Some((2, 2)), "due at its true rank");
        assert_eq!(q.dequeue_min_le(5), None);
        assert_eq!(q.dequeue_min_le(6), Some((6, 6)));
        assert!(q.is_empty());
    }

    #[test]
    fn dequeue_min_le_uses_bucket_edge_like_peek() {
        // 523 lives in bucket [500, 600): eligible from bound 500 onwards,
        // exactly when peek_min_rank() (the timer deadline) says so.
        let mut q: CffsQueue<u32> = CffsQueue::new(10, 100, 0);
        q.enqueue(523, 1).unwrap();
        assert_eq!(q.dequeue_min_le(499), None);
        assert_eq!(q.dequeue_min_le(500), Some((523, 1)));
    }

    #[test]
    fn peek_reports_bucket_edge() {
        let mut q: CffsQueue<u32> = CffsQueue::new(10, 100, 0);
        q.enqueue(523, 1).unwrap();
        // 523 falls in bucket [500,600): the timer deadline is 500.
        assert_eq!(q.peek_min_rank(), Some(500));
        // Secondary-only occupancy peeks into the secondary window.
        let mut q: CffsQueue<u32> = CffsQueue::new(10, 100, 0);
        q.enqueue(0, 0).unwrap();
        q.enqueue(1_500, 1).unwrap();
        q.dequeue_min().unwrap();
        assert_eq!(q.peek_min_rank(), Some(1_500));
    }

    #[test]
    fn interleaved_enqueue_dequeue_is_monotone_per_window() {
        // A shaper-like workload: ranks trail slightly ahead of dequeues.
        // Window sized so the backlog always fits (2×2048 ranks of coverage
        // vs ≤3000 rank spread) — the operator's job per §3.1.1.
        let mut q: CffsQueue<u64> = CffsQueue::new(2_048, 1, 0);
        let mut next_rank = 0u64;
        let mut last_out = 0u64;
        for round in 0..1_000u64 {
            next_rank += 1 + round % 3;
            q.enqueue(next_rank, round).unwrap();
            if round % 2 == 1 {
                let (r, _) = q.dequeue_min().unwrap();
                assert!(r >= last_out, "monotone dequeue within moving window");
                last_out = r;
            }
        }
        while q.dequeue_min().is_some() {}
        assert!(q.is_empty());
        assert_eq!(q.stats().clamped_high, 0);
        assert_eq!(q.stats().clamped_low, 0);
    }
}
