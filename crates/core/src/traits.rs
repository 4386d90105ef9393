//! The common ranked-queue interface, runtime queue selection, and errors.
//!
//! Every queue in this crate implements [`RankedQueue`], which is
//! deliberately minimal and object-safe so schedulers (`eiffel-pifo`) can be
//! programmed against `Box<dyn RankedQueue<T>>` and the queue implementation
//! chosen at configuration time — the paper's "choose a data structure per
//! policy" guidance (Figure 20, exposed here via [`crate::guide`]).

use std::fmt;

/// Why an enqueue was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueErrorKind {
    /// The rank is outside a fixed-range queue's `[base, base + span)` range.
    ///
    /// Only fixed-range queues ([`crate::FfsQueue`], [`crate::HierFfsQueue`],
    /// [`crate::ApproxGradientQueue`], …) refuse ranks; moving-window queues clamp
    /// instead (and count the clamp in [`QueueStats`]).
    OutOfRange,
}

/// An enqueue refusal carrying the item back to the caller, so drop policies
/// can be applied without cloning.
pub struct EnqueueError<T> {
    /// Why the enqueue was refused.
    pub kind: EnqueueErrorKind,
    /// The rank that was refused.
    pub rank: u64,
    /// The item, returned un-consumed.
    pub item: T,
}

impl<T> fmt::Debug for EnqueueError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnqueueError")
            .field("kind", &self.kind)
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

impl<T> fmt::Display for EnqueueError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EnqueueErrorKind::OutOfRange => {
                write!(f, "rank {} outside the queue's fixed range", self.rank)
            }
        }
    }
}

impl<T> std::error::Error for EnqueueError<T> {}

/// Counters describing clamping and approximation behaviour.
///
/// These are *observability*, not control flow: moving-window queues accept
/// every rank but record when one was coerced into the representable window,
/// and the approximate gradient queue records its estimation error
/// (regenerating the paper's Figure 18).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Elements whose rank was below the window and were treated as due now.
    pub clamped_low: u64,
    /// Elements whose rank was beyond the window and landed in the overflow
    /// bucket ("enqueued at the last bucket in the secondary queue", §3.1.1).
    pub clamped_high: u64,
    /// Min-find operations answered (denominator for `error_sum`).
    pub lookups: u64,
    /// Sum over lookups of |estimated bucket − actual bucket| (approximate
    /// queues only; exact queues keep this at zero).
    pub error_sum: u64,
    /// Lookups whose curvature estimate landed on an occupied bucket — the
    /// approximate queue's O(1) fast path (`est_hits + est_misses =
    /// lookups` for approximate queues; exact queues keep both at zero).
    pub est_hits: u64,
    /// Lookups that fell back to the alternating search because the
    /// estimated bucket was empty.
    pub est_misses: u64,
}

impl QueueStats {
    /// Average bucket-index error per lookup (Figure 18's y-axis).
    pub fn avg_error(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.error_sum as f64 / self.lookups as f64
        }
    }

    /// Fraction of lookups answered by the estimator's O(1) hit path
    /// (approximate queues; 0 when no lookups were recorded).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.est_hits as f64 / self.lookups as f64
        }
    }
}

/// A priority queue keyed by integer rank, minimum first.
///
/// `dequeue_min` returns the element's *original* rank. For bucketed queues
/// the dequeue order is only bucket-granular: elements in one bucket come out
/// FIFO regardless of their sub-granularity rank (paper §2 — that is the
/// point of bucketing).
pub trait RankedQueue<T> {
    /// Inserts `item` with `rank`.
    fn enqueue(&mut self, rank: u64, item: T) -> Result<(), EnqueueError<T>>;

    /// Removes and returns the minimum-bucket element (FIFO within bucket).
    fn dequeue_min(&mut self) -> Option<(u64, T)>;

    /// Removes up to `max` elements in exactly the order repeated
    /// [`RankedQueue::dequeue_min`] calls would produce, appending them to
    /// `out`. Returns how many elements were moved.
    ///
    /// The default implementation is that loop verbatim. Bucketed queues
    /// override it to amortize the min-find across the batch: one bitmap
    /// descent (or curvature estimate) locates the minimum bucket, whose
    /// FIFO is then popped repeatedly until the bucket empties or the batch
    /// fills — the per-packet cost the paper attributes to batching in §5.1
    /// (Figure 13) applied to the queue itself.
    fn dequeue_batch(&mut self, max: usize, out: &mut Vec<(u64, T)>) -> usize {
        let mut n = 0;
        while n < max {
            match self.dequeue_min() {
                Some(pair) => {
                    out.push(pair);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Removes and returns a maximum-bucket element (`ExtractMax`), for
    /// rank-aware priority-drop eviction: overload sheds the worst-ranked
    /// resident element first (pFabric's drop policy, reused by the chaos
    /// harness's admission layer).
    ///
    /// Returns `None` when the queue is empty **or** when the
    /// implementation has no exact max path (the default). Callers that
    /// need to distinguish the two check `len() > 0` first and fall back
    /// to tail drop on unsupported backends — an honest fallback beats a
    /// silent O(n) scan on a hot path.
    fn dequeue_max(&mut self) -> Option<(u64, T)> {
        None
    }

    /// Rank lower edge of the minimum non-empty bucket.
    ///
    /// This is the queue's `SoonestDeadline()` (paper §4): a timer armed for
    /// this value never fires after the true minimum element is due.
    fn peek_min_rank(&self) -> Option<u64>;

    /// Number of stored elements.
    fn len(&self) -> usize;

    /// Whether the queue holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clamping/approximation counters. Exact queues return zeros.
    fn stats(&self) -> QueueStats {
        QueueStats::default()
    }
}

/// Boxed queues forward every method (including the overridden batch and
/// max paths) to the inner implementation, so generic code can be written
/// over `Q: RankedQueue<T>` and instantiated with a boxed
/// `dyn RankedQueue<T> + Send` — the shape the threaded chaos harness
/// moves across threads.
impl<T, Q: RankedQueue<T> + ?Sized> RankedQueue<T> for Box<Q> {
    fn enqueue(&mut self, rank: u64, item: T) -> Result<(), EnqueueError<T>> {
        (**self).enqueue(rank, item)
    }

    fn dequeue_min(&mut self) -> Option<(u64, T)> {
        (**self).dequeue_min()
    }

    fn dequeue_batch(&mut self, max: usize, out: &mut Vec<(u64, T)>) -> usize {
        (**self).dequeue_batch(max, out)
    }

    fn dequeue_max(&mut self) -> Option<(u64, T)> {
        (**self).dequeue_max()
    }

    fn peek_min_rank(&self) -> Option<u64> {
        (**self).peek_min_rank()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn stats(&self) -> QueueStats {
        (**self).stats()
    }
}

/// Geometry shared by bucketed queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Number of pre-allocated buckets per window.
    pub num_buckets: usize,
    /// Rank units covered by one bucket (the paper's `C/N` interval).
    pub granularity: u64,
    /// Lowest rank initially representable (moving-window queues advance it).
    pub start_rank: u64,
}

impl QueueConfig {
    /// Convenience constructor.
    pub fn new(num_buckets: usize, granularity: u64, start_rank: u64) -> Self {
        QueueConfig {
            num_buckets,
            granularity,
            start_rank,
        }
    }

    /// Rank units covered by one window (`num_buckets × granularity`).
    pub fn span(&self) -> u64 {
        self.num_buckets as u64 * self.granularity
    }
}

/// Runtime-selectable queue implementation, for policy compilers and
/// benchmarks that sweep over data structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Single-word FFS queue (≤ 64 buckets).
    Ffs,
    /// Fixed-range hierarchical FFS queue.
    HierFfs,
    /// Circular hierarchical FFS queue (the paper's cFFS).
    Cffs,
    /// Approximate gradient queue with curvature parameter α.
    ApproxGradient {
        /// The paper's α: weights grow as `2^(i/α)`.
        alpha: u32,
    },
    /// Circular approximate gradient queue (moving window).
    CircularApprox {
        /// The paper's α: weights grow as `2^(i/α)`.
        alpha: u32,
    },
    /// Bucketed queue indexed by a binary heap of bucket indices (the
    /// paper's "BH" baseline).
    BucketHeap,
    /// SP-PIFO adaptive strict-priority mapping (integer-only, unbounded
    /// range; ignores the bucket geometry).
    SpPifo {
        /// Number of strict-priority queues (1..=64).
        queues: u32,
    },
    /// RIFO adaptive rank-range bucket mapping (integer-only, unbounded
    /// range; uses `num_buckets`, adapts its own granularity).
    Rifo,
    /// Comparison-based binary heap over elements (C++ `std::priority_queue`
    /// stand-in).
    BinaryHeap,
    /// Comparison-based balanced tree over ranks (kernel RB-tree stand-in).
    BTree,
}

impl QueueKind {
    /// Instantiates the selected queue with the given geometry.
    ///
    /// Comparison-based kinds ignore the geometry (they are unbounded);
    /// fixed-range kinds cover `[start_rank, start_rank + span)`; circular
    /// kinds start their window at `start_rank`.
    ///
    /// # Panics
    /// [`QueueKind::Ffs`] panics above 64 buckets (one word).
    pub fn build<T: Send + 'static>(self, cfg: QueueConfig) -> Box<dyn RankedQueue<T>> {
        self.build_send(cfg)
    }

    /// [`QueueKind::build`] with the `Send` bound kept on the trait object,
    /// for harnesses that move the queue onto another thread (the chaos
    /// runtime's per-shard ranked qdiscs).
    pub fn build_send<T: Send + 'static>(self, cfg: QueueConfig) -> Box<dyn RankedQueue<T> + Send> {
        let QueueConfig {
            num_buckets: n,
            granularity: g,
            start_rank: base,
        } = cfg;
        match self {
            QueueKind::Ffs => Box::new(crate::FfsQueue::with_buckets(n, g, base)),
            QueueKind::HierFfs => Box::new(crate::HierFfsQueue::with_base(n, g, base)),
            QueueKind::Cffs => Box::new(crate::CffsQueue::new(n, g, base)),
            QueueKind::ApproxGradient { alpha } => {
                Box::new(crate::ApproxGradientQueue::with_base(n, g, base, alpha))
            }
            QueueKind::CircularApprox { alpha } => {
                Box::new(crate::CircularApproxQueue::new(n, g, base, alpha))
            }
            QueueKind::BucketHeap => Box::new(crate::BucketHeapQueue::with_base(n, g, base)),
            QueueKind::SpPifo { queues } => Box::new(crate::SpPifoQueue::new(queues as usize)),
            QueueKind::Rifo => Box::new(crate::RifoQueue::new(n)),
            QueueKind::BinaryHeap => Box::new(crate::HeapPq::new()),
            QueueKind::BTree => Box::new(crate::TreePq::new()),
        }
    }

    /// The name reports and figure legends use (the paper's where it has
    /// one: "cFFS", "BH", "Approx").
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::Ffs => "FFS",
            QueueKind::HierFfs => "hFFS",
            QueueKind::Cffs => "cFFS",
            QueueKind::ApproxGradient { .. } => "Approx",
            QueueKind::CircularApprox { .. } => "cApprox",
            QueueKind::BucketHeap => "BH",
            QueueKind::SpPifo { .. } => "SP-PIFO",
            QueueKind::Rifo => "RIFO",
            QueueKind::BinaryHeap => "BinaryHeap",
            QueueKind::BTree => "BTree",
        }
    }

    /// Whether the kind places every rank in its true bucket and answers
    /// min-queries exactly. Circular windows clamp overdue ranks into the
    /// current minimum bucket, approximate queues may answer from a
    /// neighbouring bucket, and the adaptive mappers reorder by design.
    pub fn places_exactly(self) -> bool {
        matches!(
            self,
            QueueKind::Ffs
                | QueueKind::HierFfs
                | QueueKind::BucketHeap
                | QueueKind::BinaryHeap
                | QueueKind::BTree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_span() {
        let cfg = QueueConfig::new(2_000, 1_000, 0);
        assert_eq!(cfg.span(), 2_000_000);
    }

    #[test]
    fn stats_avg_error_handles_zero_lookups() {
        assert_eq!(QueueStats::default().avg_error(), 0.0);
        let s = QueueStats {
            lookups: 4,
            error_sum: 6,
            ..Default::default()
        };
        assert!((s.avg_error() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn every_kind_builds_and_round_trips() {
        let cfg = QueueConfig::new(128, 10, 0);
        let kinds = [
            QueueKind::Ffs,
            QueueKind::HierFfs,
            QueueKind::Cffs,
            QueueKind::ApproxGradient { alpha: 16 },
            QueueKind::CircularApprox { alpha: 16 },
            QueueKind::BucketHeap,
            QueueKind::Rifo,
            QueueKind::BinaryHeap,
            QueueKind::BTree,
        ];
        for kind in kinds {
            // One word: the FFS kind covers at most 64 buckets.
            let cfg = if kind == QueueKind::Ffs {
                QueueConfig::new(64, 10, 0)
            } else {
                cfg
            };
            let mut q: Box<dyn RankedQueue<u32>> = kind.build(cfg);
            assert!(q.is_empty(), "{kind:?}");
            q.enqueue(40, 1).unwrap();
            q.enqueue(620, 2).unwrap();
            q.enqueue(40, 3).unwrap();
            assert_eq!(q.len(), 3, "{kind:?}");
            let (r1, v1) = q.dequeue_min().unwrap();
            assert_eq!((r1, v1), (40, 1), "{kind:?}");
            let (_, v2) = q.dequeue_min().unwrap();
            assert_eq!(v2, 3, "{kind:?} FIFO within rank");
            assert_eq!(q.dequeue_min().unwrap().1, 2, "{kind:?}");
            assert!(q.dequeue_min().is_none(), "{kind:?}");
        }
    }

    /// SP-PIFO is excluded from the strict round-trip above by design: its
    /// per-queue FIFOs reorder equal ranks across queues. It still builds
    /// through [`QueueKind`] and conserves every element.
    #[test]
    fn sp_pifo_builds_and_conserves() {
        let cfg = QueueConfig::new(128, 10, 0);
        let mut q: Box<dyn RankedQueue<u32>> = QueueKind::SpPifo { queues: 8 }.build(cfg);
        let ranks = [40u64, 620, 40, 7, 999, 40];
        for (i, &r) in ranks.iter().enumerate() {
            q.enqueue(r, i as u32).unwrap();
        }
        assert_eq!(q.len(), ranks.len());
        let mut got: Vec<u64> = Vec::new();
        while let Some((r, _)) = q.dequeue_min() {
            got.push(r);
        }
        let mut want = ranks.to_vec();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "every enqueued rank comes back out");
    }

    /// `QueueKind::Ffs` honours `num_buckets` up to one word.
    #[test]
    fn ffs_kind_honours_bucket_count() {
        let mut q: Box<dyn RankedQueue<u32>> = QueueKind::Ffs.build(QueueConfig::new(8, 10, 100));
        q.enqueue(179, 1).unwrap();
        let err = q.enqueue(180, 2).unwrap_err();
        assert_eq!(err.kind, EnqueueErrorKind::OutOfRange, "bucket 8 of 8");
        assert_eq!(q.dequeue_min(), Some((179, 1)));
    }

    #[test]
    #[should_panic(expected = "an FFS queue covers at most 64 buckets (one word), not 65")]
    fn ffs_kind_refuses_more_than_a_word() {
        let _: Box<dyn RankedQueue<u32>> = QueueKind::Ffs.build(QueueConfig::new(65, 1, 0));
    }
}
