//! Exact Gradient Queue — §3.1.2 and Appendix A of the paper.
//!
//! The Gradient Queue computes Find-First-Set *algebraically*: each
//! non-empty bucket `i` contributes a weight function `2^i·(x−i)²` to the
//! queue's "curvature" `a·x² − b·x + c` with `a = Σ 2^i` and `b = Σ i·2^i`
//! (factor 2 absorbed). The critical point `b/a` is dominated by the largest
//! occupied index, and **Theorem 1** states the maximum non-empty bucket is
//! exactly `ceil(b/a)`. Maintenance is two add/subs per bucket transition;
//! lookup is one division.
//!
//! Exact gradient arithmetic needs `i·2^i` to be representable, capping a
//! single [`GradientWord`] at 64 buckets (mirroring FFS word width, well
//! within `u128`). [`HierGradientQueue`] stacks words into a fanout-64 tree —
//! "an equivalent of FFS-based queue with more expensive operations (division
//! vs bit ops)" — whose real payoff is that the algebra admits the
//! *approximation* in [`crate::approx`].
//!
//! Both are [`Occupancy`] indexes of the one bucket store
//! ([`crate::bucketed`]): bucket `b` is stored at internal index `(n−1)−b`,
//! so Theorem 1's max-index lookup names the minimum-rank bucket — packet
//! schedulers dequeue smallest-rank-first.

use crate::bucketed::{Bucketed, Occupancy};

/// Curvature accumulator over up to 64 bucket indices: the exact Gradient
/// Queue meta-data (replaces one FFS bitmap word).
#[derive(Debug, Clone, Copy, Default)]
pub struct GradientWord {
    /// `a = Σ_{i occupied} 2^i`.
    a: u128,
    /// `b = Σ_{i occupied} i·2^i`.
    b: u128,
    /// Shadow occupancy used for transition detection (not for lookups).
    occupied: u64,
}

impl GradientWord {
    /// An all-empty word.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no index is occupied.
    pub fn is_empty(&self) -> bool {
        self.a == 0
    }

    /// Marks index `i` occupied. Returns `true` if the word was empty before
    /// (transition to propagate in a hierarchy).
    pub fn set(&mut self, i: u32) -> bool {
        assert!(i < 64, "gradient word covers 64 indices");
        let was_empty = self.a == 0;
        if self.occupied & (1 << i) == 0 {
            self.occupied |= 1 << i;
            self.a += 1u128 << i;
            self.b += (i as u128) << i;
        }
        was_empty
    }

    /// Marks index `i` empty. Returns `true` if the word is now empty.
    pub fn clear(&mut self, i: u32) -> bool {
        assert!(i < 64, "gradient word covers 64 indices");
        if self.occupied & (1 << i) != 0 {
            self.occupied &= !(1 << i);
            self.a -= 1u128 << i;
            self.b -= (i as u128) << i;
        }
        self.a == 0
    }

    /// Whether index `i` is occupied.
    pub fn test(&self, i: u32) -> bool {
        self.occupied & (1 << i) != 0
    }

    /// Maximum occupied index via **Theorem 1**: `ceil(b/a)`.
    ///
    /// The division need not be executed: with weights `2^i`, the
    /// accumulator `a = Σ_{i occupied} 2^i` *is* the occupancy polynomial
    /// evaluated at 2, so its most significant bit is the maximum occupied
    /// index — and Theorem 1 proves `ceil(b/a)` equals exactly that. The
    /// 128-bit hardware division this used to run (~40 cycles, once per
    /// hierarchy level per lookup) is replaced by one `leading_zeros` on
    /// the same curvature accumulator; `theorem1_division_agrees` keeps the
    /// two forms provably interchangeable.
    pub fn max_index(&self) -> Option<u32> {
        if self.a == 0 {
            None
        } else {
            let top = 127 - self.a.leading_zeros();
            debug_assert_eq!(top as u128, self.b.div_ceil(self.a), "Theorem 1");
            Some(top)
        }
    }

    /// `ceil(b/a)` with the division actually performed — the literal
    /// Theorem 1 expression, kept for tests that pin [`Self::max_index`]
    /// to it.
    pub fn max_index_by_division(&self) -> Option<u32> {
        if self.a == 0 {
            None
        } else {
            Some(self.b.div_ceil(self.a) as u32)
        }
    }
}

/// Hierarchical curvature meta-data: a fanout-64 tree of [`GradientWord`]s.
#[derive(Debug, Clone)]
pub struct HierGradient {
    /// `levels[0]` is the leaf level (one index per bucket).
    levels: Vec<Vec<GradientWord>>,
    len: usize,
}

impl HierGradient {
    /// An all-empty tree over `len` buckets.
    pub fn new(len: usize) -> Self {
        assert!(len > 0);
        let mut levels = Vec::new();
        let mut n = len;
        loop {
            let words = n.div_ceil(64);
            levels.push(vec![GradientWord::new(); words]);
            if words == 1 {
                break;
            }
            n = words;
        }
        HierGradient { levels, len }
    }

    fn max_index(&self) -> Option<usize> {
        let root = &self.levels.last().expect("at least one level")[0];
        root.max_index()?;
        let mut idx = 0usize;
        for level in self.levels.iter().rev() {
            let j = level[idx]
                .max_index()
                .expect("parent weight guaranteed a child");
            idx = idx * 64 + j as usize;
        }
        Some(idx)
    }
}

/// The single word as a bucket index over at most 64 buckets, bucket `b`
/// at internal index `63 − b` (the reversal is monotone, so any fixed
/// `n − 1 − b` names the same minimum). No max path: that stays the FFS
/// queues' business, as it always was for the gradient queue.
impl Occupancy for GradientWord {
    #[inline]
    fn set(&mut self, b: usize) {
        GradientWord::set(self, 63 - b as u32);
    }

    #[inline]
    fn clear(&mut self, b: usize) {
        GradientWord::clear(self, 63 - b as u32);
    }

    #[inline]
    fn first_set(&self) -> Option<usize> {
        self.max_index().map(|j| 63 - j as usize)
    }
}

/// The tree as a bucket index over any number of buckets, bucket `b` at
/// internal index `len − 1 − b`. A word's empty↔non-empty transition
/// propagates to its parent.
impl Occupancy for HierGradient {
    fn set(&mut self, b: usize) {
        let mut idx = self.len - 1 - b;
        for level in &mut self.levels {
            if !level[idx / 64].set((idx % 64) as u32) {
                break;
            }
            idx /= 64;
        }
    }

    fn clear(&mut self, b: usize) {
        let mut idx = self.len - 1 - b;
        for level in &mut self.levels {
            if !level[idx / 64].clear((idx % 64) as u32) {
                break;
            }
            idx /= 64;
        }
    }

    fn first_set(&self) -> Option<usize> {
        self.max_index().map(|j| self.len - 1 - j)
    }
}

/// Exact gradient min-queue over at most 64 buckets.
pub type GradientQueue<T> = Bucketed<GradientWord, T>;

/// Exact gradient min-queue over any number of buckets (fanout-64 hierarchy).
pub type HierGradientQueue<T> = Bucketed<HierGradient, T>;

impl<T> Bucketed<GradientWord, T> {
    /// Creates a queue covering ranks `[0, n × granularity)`, `n ≤ 64`.
    pub fn new(n: usize, granularity: u64) -> Self {
        Self::with_base(n, granularity, 0)
    }

    /// Creates a queue covering ranks `[base, base + n × granularity)`.
    pub fn with_base(n: usize, granularity: u64, base: u64) -> Self {
        assert!(
            n > 0 && n <= 64,
            "single gradient word covers at most 64 buckets"
        );
        Self::with_index(GradientWord::new(), n, granularity, base)
    }
}

impl<T> Bucketed<HierGradient, T> {
    /// Creates a queue covering ranks `[0, n × granularity)`.
    pub fn new(n: usize, granularity: u64) -> Self {
        Self::with_base(n, granularity, 0)
    }

    /// Creates a queue covering ranks `[base, base + n × granularity)`.
    pub fn with_base(n: usize, granularity: u64, base: u64) -> Self {
        Self::with_index(HierGradient::new(n), n, granularity, base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{EnqueueErrorKind, RankedQueue};

    /// Theorem 1, exhaustively for every occupancy pattern of 16 indices and
    /// pseudo-randomly for 64-bit patterns: `ceil(b/a)` equals the highest
    /// set index.
    #[test]
    fn theorem1_exhaustive_small_random_large() {
        for mask in 1u64..(1 << 16) {
            let mut w = GradientWord::new();
            for i in 0..16 {
                if mask & (1 << i) != 0 {
                    w.set(i);
                }
            }
            let expect = 63 - mask.leading_zeros();
            assert_eq!(w.max_index(), Some(expect), "mask {mask:#x}");
        }
        let mut x: u64 = 0x243f6a8885a308d3;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x == 0 {
                continue;
            }
            let mut w = GradientWord::new();
            for i in 0..64 {
                if x & (1 << i) != 0 {
                    w.set(i);
                }
            }
            assert_eq!(w.max_index(), Some(63 - x.leading_zeros()), "mask {x:#x}");
        }
    }

    /// Pins the FFS-form `max_index` to the literal `ceil(b/a)` division —
    /// the Theorem 1 identity the release-mode shortcut relies on.
    #[test]
    fn theorem1_division_agrees() {
        let mut w = GradientWord::new();
        assert_eq!(w.max_index(), w.max_index_by_division());
        let mut x: u64 = 0xa076_1d64_78bd_642f;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % 64) as u32;
            if x & (1 << 40) != 0 {
                w.set(i);
            } else {
                w.clear(i);
            }
            assert_eq!(w.max_index(), w.max_index_by_division());
        }
    }

    #[test]
    fn word_transitions_match_emptiness() {
        let mut w = GradientWord::new();
        assert!(w.set(10));
        assert!(!w.set(10)); // duplicate set: no transition, no double-count
        assert!(!w.set(63));
        assert_eq!(w.max_index(), Some(63));
        assert!(!w.clear(63));
        assert_eq!(w.max_index(), Some(10));
        assert!(w.clear(10));
        assert!(w.is_empty());
        // `clear` reports "is the word empty now": a no-op clear on an empty
        // word answers true (idempotent for hierarchy propagation).
        assert!(w.clear(10));
        assert!(w.max_index().is_none());
    }

    #[test]
    fn min_queue_dequeues_smallest_rank() {
        let mut q = GradientQueue::new(64, 1);
        for r in [40u64, 7, 63, 7, 0] {
            q.enqueue(r, r).unwrap();
        }
        assert_eq!(q.peek_min_rank(), Some(0));
        let order: Vec<u64> = std::iter::from_fn(|| q.dequeue_min().map(|(r, _)| r)).collect();
        assert_eq!(order, vec![0, 7, 7, 40, 63]);
    }

    #[test]
    fn hierarchical_gradient_matches_flat_behaviour() {
        let mut q = HierGradientQueue::new(5_000, 1);
        let ranks = [4_999u64, 0, 64, 63, 65, 4_095, 4_096, 2_500, 2_500];
        for &r in &ranks {
            q.enqueue(r, r).unwrap();
        }
        let mut order: Vec<u64> = std::iter::from_fn(|| q.dequeue_min().map(|(r, _)| r)).collect();
        let mut expect = ranks.to_vec();
        expect.sort_unstable();
        assert_eq!(order.len(), expect.len());
        order.sort_unstable(); // FIFO ties make the full orders equal anyway
        assert_eq!(order, expect);
    }

    #[test]
    fn hierarchical_dequeue_is_sorted() {
        let mut q = HierGradientQueue::new(70 * 64 + 3, 1);
        let mut x: u64 = 0xdeadbeefcafef00d;
        let mut inserted = 0u32;
        for _ in 0..3_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let r = x % (70 * 64 + 3);
            q.enqueue(r, ()).unwrap();
            inserted += 1;
        }
        let mut prev = 0u64;
        let mut n = 0u32;
        while let Some((r, _)) = q.dequeue_min() {
            assert!(r >= prev, "sorted dequeue");
            prev = r;
            n += 1;
        }
        assert_eq!(n, inserted);
    }

    #[test]
    fn out_of_range_refused() {
        let mut q: GradientQueue<()> = GradientQueue::new(32, 10);
        assert!(q.enqueue(319, ()).is_ok());
        assert_eq!(
            q.enqueue(320, ()).unwrap_err().kind,
            EnqueueErrorKind::OutOfRange
        );
        let mut q: HierGradientQueue<()> = HierGradientQueue::new(100, 10);
        assert_eq!(
            q.enqueue(1_000, ()).unwrap_err().kind,
            EnqueueErrorKind::OutOfRange
        );
    }
}
