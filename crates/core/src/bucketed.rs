//! The bucket store every fixed-range integer queue is made of (§3.1).
//!
//! The paper's thesis is that a packet scheduler's priority queue is FIFO
//! buckets plus an *index* that finds the lowest non-empty one; the
//! structures it compares differ only in that index (the table in the
//! crate docs names which paper structure is which [`Occupancy`] index).
//! [`Bucketed`] is the one copy of the bucket half: rank→bucket mapping,
//! the pre-allocated FIFOs, and the min / batch / max dequeue paths.
//! Bucket `b` covers ranks `[base + b·g, base + (b+1)·g)`; other ranks are
//! refused. Elements inside a bucket are FIFO — "packets within a single
//! bucket effectively have equivalent rank" (§2).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::buckets::Buckets;
use crate::hierbitmap::HierBitmap;
use crate::recip::Reciprocal;
use crate::traits::{EnqueueError, EnqueueErrorKind, QueueStats, RankedQueue};
use crate::word;

/// An index over bucket occupancy: which buckets are non-empty, and which
/// is the lowest.
///
/// The store calls [`Occupancy::set`] and [`Occupancy::clear`] only on a
/// bucket's empty↔non-empty transitions, so an index never sees a
/// duplicate set or a clear of an empty bucket. Every index here is exact
/// except [`crate::ApproxIndex`], whose minimum is an estimate: any
/// non-empty bucket, usually the lowest.
pub trait Occupancy {
    /// Bucket `b` became non-empty.
    fn set(&mut self, b: usize);

    /// Bucket `b` became empty.
    fn clear(&mut self, b: usize);

    /// The lowest non-empty bucket — for peeks, which must not change the
    /// index.
    fn first_set(&self) -> Option<usize>;

    /// [`Occupancy::first_set`] for a dequeue that pops the answer. The
    /// default is `first_set`; an index that counts its lookups or repairs
    /// itself on the dequeue path overrides it.
    // `#[inline(always)]` on a pure forwarder: exact indexes compile to the
    // direct `first_set` call of their min path. Left to the inliner, it
    // stayed out of line under `Bucketed::dequeue_min` in the ledger and
    // criterion binaries — one more call per dequeue.
    #[inline(always)]
    fn min_for_pop(&mut self) -> Option<usize> {
        self.first_set()
    }

    /// The lowest non-empty bucket for a dequeue, asked right after the
    /// minimum bucket `b` emptied; the default is a fresh
    /// [`Occupancy::min_for_pop`]. Only for an exact index does the answer
    /// lie above `b`, which lets [`HierBitmap`] scan forward from `b + 1`
    /// instead; an approximate index keeps the default.
    fn next_after(&mut self, b: usize) -> Option<usize> {
        let _ = b;
        self.min_for_pop()
    }

    /// The highest non-empty bucket, or `None` when the index has no exact
    /// max path (the default) — [`RankedQueue::dequeue_max`] then reports
    /// `None` and callers fall back to tail drop.
    fn last_set(&self) -> Option<usize> {
        None
    }

    /// Counters the index keeps about its own lookups (zeros by default).
    fn stats(&self) -> QueueStats {
        QueueStats::default()
    }
}

/// One machine word over at most 64 buckets (Fig 2).
impl Occupancy for u64 {
    #[inline]
    fn set(&mut self, b: usize) {
        word::set_bit(self, b as u32);
    }

    #[inline]
    fn clear(&mut self, b: usize) {
        word::clear_bit(self, b as u32);
    }

    #[inline]
    fn first_set(&self) -> Option<usize> {
        word::lowest_set(*self).map(|b| b as usize)
    }

    #[inline]
    fn last_set(&self) -> Option<usize> {
        word::highest_set(*self).map(|b| b as usize)
    }
}

/// The hierarchical bitmap (Fig 3). After the minimum empties, the next one
/// is found with `first_set_from` — usually one leaf word — instead of a
/// fresh root descent.
impl Occupancy for HierBitmap {
    #[inline]
    fn set(&mut self, b: usize) {
        HierBitmap::set(self, b);
    }

    #[inline]
    fn clear(&mut self, b: usize) {
        HierBitmap::clear(self, b);
    }

    #[inline]
    fn first_set(&self) -> Option<usize> {
        HierBitmap::first_set(self)
    }

    #[inline]
    fn next_after(&mut self, b: usize) -> Option<usize> {
        self.first_set_from(b + 1)
    }

    #[inline]
    fn last_set(&self) -> Option<usize> {
        HierBitmap::last_set(self)
    }
}

/// The §5.2 "BH" index: "keeping track of non-empty buckets in a binary
/// heap". A bucket index is pushed when the bucket fills and popped when
/// it empties. Only the min path empties buckets (the index has no max
/// path), so the emptied bucket is always the top and the heap holds
/// exactly the non-empty buckets — no stale entries to skip.
#[derive(Debug, Clone, Default)]
pub struct HeapIndex {
    heap: BinaryHeap<Reverse<usize>>,
}

impl Occupancy for HeapIndex {
    #[inline]
    fn set(&mut self, b: usize) {
        self.heap.push(Reverse(b));
    }

    #[inline]
    fn clear(&mut self, b: usize) {
        let top = self.heap.pop();
        debug_assert_eq!(top, Some(Reverse(b)), "BH empties only its minimum bucket");
    }

    #[inline]
    fn first_set(&self) -> Option<usize> {
        self.heap.peek().map(|&Reverse(b)| b)
    }
}

/// A fixed-range bucketed queue over `n` FIFO buckets of `granularity` rank
/// units each, starting at `base`, with occupancy index `I`.
#[derive(Debug, Clone)]
pub struct Bucketed<I, T> {
    pub(crate) index: I,
    buckets: Buckets<T>,
    granularity: Reciprocal,
    base: u64,
}

/// Single-word FFS queue (Fig 2): at most 64 buckets.
pub type FfsQueue<T> = Bucketed<u64, T>;

/// Fixed-range hierarchical FFS queue (Fig 3) over any number of buckets —
/// the right choice when priorities do not move, e.g. pFabric's
/// remaining-flow-size ranks (Fig 20).
pub type HierFfsQueue<T> = Bucketed<HierBitmap, T>;

/// Bucketed queue indexed by a binary heap of bucket indices (the §5.2
/// "BH" baseline).
pub type BucketHeapQueue<T> = Bucketed<HeapIndex, T>;

impl<I, T> Bucketed<I, T> {
    /// Wraps an empty `index` over `n` buckets covering
    /// `[base, base + n × granularity)`.
    pub(crate) fn with_index(index: I, n: usize, granularity: u64, base: u64) -> Self {
        assert!(granularity > 0, "granularity must be positive");
        Bucketed {
            index,
            buckets: Buckets::new(n),
            granularity: Reciprocal::new(granularity),
            base,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.num_buckets()
    }

    /// Lowest representable rank.
    pub fn base(&self) -> u64 {
        self.base
    }

    fn bucket_of(&self, rank: u64) -> Option<usize> {
        let off = self.granularity.div(rank.checked_sub(self.base)?);
        (off < self.num_buckets() as u64).then_some(off as usize)
    }

    fn edge(&self, b: usize) -> u64 {
        self.base + b as u64 * self.granularity.divisor()
    }
}

impl<I: Occupancy, T> Bucketed<I, T> {
    /// Appends to bucket `b`'s FIFO, marking the bucket in the index when
    /// it fills — the entry point of the rank mappings over the store
    /// ([`crate::Circular`], RIFO, SP-PIFO).
    pub(crate) fn push_bucket(&mut self, b: usize, rank: u64, item: T) {
        if self.buckets.bucket_is_empty(b) {
            self.index.set(b);
        }
        self.buckets.push(b, rank, item);
    }

    /// The minimum non-empty bucket as the index names it for a peek,
    /// checked against the store in debug builds.
    pub(crate) fn min_bucket(&self) -> Option<usize> {
        let b = self.index.first_set()?;
        debug_assert!(
            !self.buckets.bucket_is_empty(b),
            "index names empty bucket {b}"
        );
        Some(b)
    }

    /// The rank the next dequeue returns over an exact index: the FIFO
    /// front of the minimum bucket.
    pub(crate) fn front_rank(&self) -> Option<u64> {
        self.buckets.front_rank(self.min_bucket()?)
    }

    /// Pops the oldest element of bucket `b` directly, maintaining the
    /// index; `None` if the bucket is empty. The fast half of a fused
    /// find-then-pop: callers that already located the minimum bucket (and
    /// perhaps rejected it against an eligibility bound) pop it without a
    /// second descent — see [`crate::CffsQueue::dequeue_min_le`]. With a
    /// [`HeapIndex`], `b` must be the minimum bucket.
    pub fn pop_bucket(&mut self, b: usize) -> Option<(u64, T)> {
        let out = self.buckets.pop(b);
        if out.is_some() && self.buckets.bucket_is_empty(b) {
            self.index.clear(b);
        }
        out
    }

    /// Rank lower edge of the maximum non-empty bucket (`None` also when
    /// the index has no max path).
    pub fn peek_max_rank(&self) -> Option<u64> {
        self.index.last_set().map(|b| self.edge(b))
    }

    /// `ExtractMax` (Timing Wheels cannot do this, §2): an element of the
    /// maximum bucket, found exactly; `None` when the index has no max path.
    pub fn dequeue_max(&mut self) -> Option<(u64, T)> {
        let b = self.index.last_set()?;
        self.pop_bucket(b)
    }
}

impl<T> Bucketed<HierBitmap, T> {
    /// Creates a queue covering ranks `[0, n × granularity)`.
    pub fn new(n: usize, granularity: u64) -> Self {
        Self::with_base(n, granularity, 0)
    }

    /// Creates a queue covering ranks `[base, base + n × granularity)`.
    pub fn with_base(n: usize, granularity: u64, base: u64) -> Self {
        Self::with_index(HierBitmap::new(n), n, granularity, base)
    }
}

impl<T> Bucketed<u64, T> {
    /// Creates a 64-bucket queue covering ranks `[0, 64 × granularity)`.
    pub fn new(granularity: u64) -> Self {
        Self::with_base(granularity, 0)
    }

    /// Creates a 64-bucket queue covering ranks
    /// `[base, base + 64 × granularity)`.
    pub fn with_base(granularity: u64, base: u64) -> Self {
        Self::with_buckets(64, granularity, base)
    }

    /// Creates an `n`-bucket queue, `n ≤ 64` ([`crate::QueueKind::Ffs`]).
    ///
    /// # Panics
    /// Panics if `n` exceeds one word.
    pub(crate) fn with_buckets(n: usize, granularity: u64, base: u64) -> Self {
        assert!(
            n <= word::WORD_BITS,
            "an FFS queue covers at most {} buckets (one word), not {n}",
            word::WORD_BITS
        );
        Self::with_index(0, n, granularity, base)
    }
}

impl<T> Bucketed<HeapIndex, T> {
    /// Creates a queue covering ranks `[0, n × granularity)`.
    pub fn new(n: usize, granularity: u64) -> Self {
        Self::with_base(n, granularity, 0)
    }

    /// Creates a queue covering ranks `[base, base + n × granularity)`.
    pub fn with_base(n: usize, granularity: u64, base: u64) -> Self {
        Self::with_index(HeapIndex::default(), n, granularity, base)
    }
}

impl<I: Occupancy, T> RankedQueue<T> for Bucketed<I, T> {
    fn enqueue(&mut self, rank: u64, item: T) -> Result<(), EnqueueError<T>> {
        match self.bucket_of(rank) {
            Some(b) => {
                self.push_bucket(b, rank, item);
                Ok(())
            }
            None => Err(EnqueueError {
                kind: EnqueueErrorKind::OutOfRange,
                rank,
                item,
            }),
        }
    }

    // `#[inline]` measured: without it the cFFS min path keeps the bucket
    // pop out of line (criterion `moving_window_shaper` +22 %, boxed
    // `churn_enq_deq/cffs` +8 %).
    #[inline]
    fn dequeue_min(&mut self) -> Option<(u64, T)> {
        let b = self.index.min_for_pop()?;
        let out = self.buckets.pop(b);
        if self.buckets.bucket_is_empty(b) {
            self.index.clear(b);
        }
        out
    }

    /// Batched fast path: one index lookup locates the minimum bucket, its
    /// FIFO is drained directly, and the next bucket comes from
    /// [`Occupancy::next_after`] instead of a fresh lookup per element.
    fn dequeue_batch(&mut self, max: usize, out: &mut Vec<(u64, T)>) -> usize {
        let mut n = 0;
        let Some(mut b) = self.index.min_for_pop() else {
            return 0;
        };
        while n < max {
            out.push(self.buckets.pop(b).expect("index said non-empty"));
            n += 1;
            if self.buckets.bucket_is_empty(b) {
                self.index.clear(b);
                if n == max {
                    break;
                }
                match self.index.next_after(b) {
                    Some(next) => b = next,
                    None => break,
                }
            }
        }
        n
    }

    fn dequeue_max(&mut self) -> Option<(u64, T)> {
        Bucketed::dequeue_max(self)
    }

    fn peek_min_rank(&self) -> Option<u64> {
        self.min_bucket().map(|b| self.edge(b))
    }

    fn len(&self) -> usize {
        self.buckets.len()
    }

    fn stats(&self) -> QueueStats {
        self.index.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Single-word FFS queue.

    #[test]
    fn min_order_with_fifo_ties() {
        let mut q = FfsQueue::new(1);
        q.enqueue(5, "a").unwrap();
        q.enqueue(3, "b").unwrap();
        q.enqueue(5, "c").unwrap();
        q.enqueue(0, "d").unwrap();
        assert_eq!(q.peek_min_rank(), Some(0));
        assert_eq!(q.dequeue_min(), Some((0, "d")));
        assert_eq!(q.dequeue_min(), Some((3, "b")));
        assert_eq!(q.dequeue_min(), Some((5, "a")));
        assert_eq!(q.dequeue_min(), Some((5, "c")));
        assert_eq!(q.dequeue_min(), None);
    }

    #[test]
    fn max_extraction() {
        let mut q = FfsQueue::new(1);
        for r in [7u64, 2, 63, 9] {
            q.enqueue(r, r).unwrap();
        }
        assert_eq!(q.peek_max_rank(), Some(63));
        assert_eq!(q.dequeue_max(), Some((63, 63)));
        assert_eq!(q.dequeue_max(), Some((9, 9)));
        assert_eq!(q.peek_min_rank(), Some(2));
    }

    #[test]
    fn granularity_groups_ranks() {
        // 100 µs granularity: "a queue with a granularity of 100 microseconds
        // cannot insert gaps between packets that are smaller" (§5.2).
        let mut q = FfsQueue::new(100);
        q.enqueue(10, "first").unwrap();
        q.enqueue(99, "second").unwrap(); // same bucket, FIFO
        q.enqueue(100, "third").unwrap(); // next bucket
        assert_eq!(q.dequeue_min(), Some((10, "first")));
        assert_eq!(q.dequeue_min(), Some((99, "second")));
        assert_eq!(q.dequeue_min(), Some((100, "third")));
    }

    #[test]
    fn out_of_range_is_refused_with_item_back() {
        let mut q = FfsQueue::with_base(1, 100);
        let err = q.enqueue(64 + 100, "late").unwrap_err();
        assert_eq!(err.kind, EnqueueErrorKind::OutOfRange);
        assert_eq!(err.item, "late");
        let err = q.enqueue(99, "early").unwrap_err();
        assert_eq!(err.kind, EnqueueErrorKind::OutOfRange);
        assert!(q.is_empty());
        q.enqueue(100, "ok").unwrap();
        q.enqueue(163, "ok2").unwrap();
        assert_eq!(q.len(), 2);
    }

    // Hierarchical FFS queue.

    #[test]
    fn large_range_min_and_max() {
        // 20k buckets as in the paper's kernel shaper configuration (§5.1.1).
        let mut q = HierFfsQueue::new(20_000, 100_000); // 100 µs granularity, 2 s horizon
        q.enqueue(1_999_999_999, "last").unwrap();
        q.enqueue(0, "first").unwrap();
        q.enqueue(1_000_000_000, "mid").unwrap();
        assert_eq!(q.peek_min_rank(), Some(0));
        assert_eq!(q.peek_max_rank(), Some(1_999_900_000));
        assert_eq!(q.dequeue_min().unwrap().1, "first");
        assert_eq!(q.dequeue_max().unwrap().1, "last");
        assert_eq!(q.dequeue_min().unwrap().1, "mid");
        assert!(q.is_empty());
    }

    #[test]
    fn rejects_out_of_range() {
        let mut q: HierFfsQueue<()> = HierFfsQueue::new(100, 10);
        assert!(q.enqueue(999, ()).is_ok());
        let err = q.enqueue(1_000, ()).unwrap_err();
        assert_eq!(err.kind, EnqueueErrorKind::OutOfRange);
    }

    impl<T> HierFfsQueue<T> {
        /// Rank lower edge of the first non-empty bucket whose rank is
        /// ≥ `rank`.
        fn peek_min_rank_from(&self, rank: u64) -> Option<u64> {
            let from = rank
                .checked_sub(self.base)
                .map_or(0, |off| self.granularity.div(off) as usize);
            self.index.first_set_from(from).map(|b| self.edge(b))
        }
    }

    #[test]
    fn peek_min_from_skips_earlier_buckets() {
        let mut q = HierFfsQueue::new(1_000, 10);
        q.enqueue(50, ()).unwrap();
        q.enqueue(777, ()).unwrap();
        assert_eq!(q.peek_min_rank_from(0), Some(50));
        // 51 falls inside bucket [50,60): that bucket may still hold ranks
        // ≥ 51, so the bucket-granular answer is its lower edge.
        assert_eq!(q.peek_min_rank_from(51), Some(50));
        assert_eq!(q.peek_min_rank_from(60), Some(770));
        assert_eq!(q.peek_min_rank_from(780), None);
    }

    #[test]
    fn drains_in_nondecreasing_bucket_order() {
        let mut q = HierFfsQueue::new(512, 1);
        let ranks = [400u64, 3, 3, 511, 0, 128, 64, 65, 127];
        for &r in &ranks {
            q.enqueue(r, r).unwrap();
        }
        let mut prev = 0;
        let mut n = 0;
        while let Some((r, _)) = q.dequeue_min() {
            assert!(r >= prev);
            prev = r;
            n += 1;
        }
        assert_eq!(n, ranks.len());
    }

    // The "BH" baseline.

    #[test]
    fn sorted_dequeue_with_fifo_ties() {
        let mut q = BucketHeapQueue::new(100, 1);
        for (r, v) in [(30u64, 'a'), (10, 'b'), (30, 'c'), (5, 'd')] {
            q.enqueue(r, v).unwrap();
        }
        assert_eq!(q.peek_min_rank(), Some(5));
        assert_eq!(q.dequeue_min(), Some((5, 'd')));
        assert_eq!(q.dequeue_min(), Some((10, 'b')));
        assert_eq!(q.dequeue_min(), Some((30, 'a')));
        assert_eq!(q.dequeue_min(), Some((30, 'c')));
        assert_eq!(q.dequeue_min(), None);
    }

    #[test]
    fn stale_heap_entries_are_skipped() {
        // Bucket 2 becomes non-empty, empty, then non-empty again: the heap
        // drops its entry on the way down, so the refill pushes the only
        // live one and nothing stale is ever peeked.
        let mut q = BucketHeapQueue::new(10, 1);
        q.enqueue(2, 1).unwrap();
        q.dequeue_min().unwrap();
        q.enqueue(2, 2).unwrap();
        q.enqueue(7, 3).unwrap();
        assert_eq!(q.peek_min_rank(), Some(2));
        assert_eq!(q.dequeue_min(), Some((2, 2)));
        assert_eq!(q.dequeue_min(), Some((7, 3)));
        assert!(q.dequeue_min().is_none());
        assert!(q.is_empty());
        assert!(q.dequeue_max().is_none(), "BH has no max path");
    }

    #[test]
    fn interleaved_churn_matches_reference() {
        use std::collections::BTreeMap;
        use std::collections::VecDeque;
        let mut q = BucketHeapQueue::new(1_000, 1);
        let mut model: BTreeMap<u64, VecDeque<u64>> = BTreeMap::new();
        let mut x: u64 = 0x2545f4914f6cdd1d;
        for step in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 3 != 0 {
                let r = x % 1_000;
                q.enqueue(r, step).unwrap();
                model.entry(r).or_default().push_back(step);
            } else {
                assert_eq!(q.peek_min_rank(), model.keys().next().copied());
                let got = q.dequeue_min();
                let want = match model.iter_mut().next() {
                    Some((&r, fifo)) => {
                        let v = fifo.pop_front().unwrap();
                        if fifo.is_empty() {
                            model.remove(&r);
                        }
                        Some((r, v))
                    }
                    None => None,
                };
                assert_eq!(got, want);
            }
        }
    }
}
