//! Property-based tests: every exact queue must agree with a reference
//! model (`BTreeMap<rank, FIFO>`) over arbitrary operation sequences, and
//! the structural invariants of the bitmaps and windows must hold for
//! arbitrary inputs.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;

use eiffel_core::{
    ApproxGradientQueue, BucketHeapQueue, CffsQueue, FfsQueue, HeapPq, HierBitmap, HierFfsQueue,
    QueueConfig, QueueKind, RankedQueue, TreePq,
};

/// Reference model with the same FIFO-within-rank tie policy.
#[derive(Default)]
struct Model {
    map: BTreeMap<u64, VecDeque<u64>>,
    len: usize,
}

impl Model {
    fn enqueue(&mut self, rank: u64, v: u64) {
        self.map.entry(rank).or_default().push_back(v);
        self.len += 1;
    }

    fn dequeue_min(&mut self) -> Option<(u64, u64)> {
        let (&r, fifo) = self.map.iter_mut().next()?;
        let v = fifo.pop_front().unwrap();
        if fifo.is_empty() {
            self.map.remove(&r);
        }
        self.len -= 1;
        Some((r, v))
    }

    fn peek_min(&self) -> Option<u64> {
        self.map.keys().next().copied()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Enqueue(u64),
    Dequeue,
    Peek,
}

fn ops(max_rank: u64, n: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..max_rank).prop_map(Op::Enqueue),
            2 => Just(Op::Dequeue),
            1 => Just(Op::Peek),
        ],
        1..n,
    )
}

/// Exact bucketed queues at granularity 1 must behave identically to the
/// reference model (rank order + FIFO ties), including peeks.
fn check_exact_against_model<Q: RankedQueue<u64>>(mut q: Q, script: &[Op], max_rank: u64) {
    let _ = max_rank;
    let mut model = Model::default();
    let mut seq = 0u64;
    for op in script {
        match op {
            Op::Enqueue(r) => {
                q.enqueue(*r, seq).unwrap();
                model.enqueue(*r, seq);
                seq += 1;
            }
            Op::Dequeue => {
                assert_eq!(q.dequeue_min(), model.dequeue_min());
            }
            Op::Peek => {
                assert_eq!(q.peek_min_rank(), model.peek_min());
                assert_eq!(q.len(), model.len);
            }
        }
    }
    // Drain both to the end.
    loop {
        let (a, b) = (q.dequeue_min(), model.dequeue_min());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ffs_matches_model(script in ops(64, 400)) {
        check_exact_against_model(FfsQueue::new(1), &script, 64);
    }

    #[test]
    fn hffs_matches_model(script in ops(700, 600)) {
        check_exact_against_model(HierFfsQueue::new(700, 1), &script, 700);
    }

    #[test]
    fn bucket_heap_matches_model(script in ops(700, 600)) {
        check_exact_against_model(BucketHeapQueue::new(700, 1), &script, 700);
    }

    #[test]
    fn heap_pq_matches_model(script in ops(u64::MAX, 400)) {
        check_exact_against_model(HeapPq::new(), &script, u64::MAX);
    }

    #[test]
    fn tree_pq_matches_model(script in ops(u64::MAX, 400)) {
        check_exact_against_model(TreePq::new(), &script, u64::MAX);
    }

    /// cFFS with monotonically constrained ranks (each enqueue at or after
    /// the current window start — the shaper contract) behaves exactly like
    /// the model.
    #[test]
    fn cffs_matches_model_within_window(deltas in prop::collection::vec((0u64..500, any::<bool>()), 1..500)) {
        let mut q: CffsQueue<u64> = CffsQueue::new(256, 1, 0);
        let mut model = Model::default();
        for (seq, (delta, deq)) in deltas.into_iter().enumerate() {
            let seq = seq as u64;
            // Rank relative to the moving window start: always in coverage.
            let rank = q.h_index() + delta;
            q.enqueue(rank, seq).unwrap();
            model.enqueue(rank, seq);
            if deq {
                assert_eq!(q.dequeue_min(), model.dequeue_min());
            }
        }
        loop {
            let (a, b) = (q.dequeue_min(), model.dequeue_min());
            assert_eq!(a, b);
            if a.is_none() { break; }
        }
        assert_eq!(q.stats().clamped_high, 0);
        assert_eq!(q.stats().clamped_low, 0);
    }

    /// cFFS under *arbitrary* u64 ranks never loses or duplicates elements,
    /// whatever clamping occurred.
    #[test]
    fn cffs_conserves_arbitrary_ranks(ranks in prop::collection::vec(any::<u64>(), 1..300)) {
        let mut q: CffsQueue<usize> = CffsQueue::new(64, 1 << 20, 0);
        for (i, r) in ranks.iter().enumerate() {
            q.enqueue(*r, i).unwrap();
        }
        let mut seen = vec![false; ranks.len()];
        while let Some((r, i)) = q.dequeue_min() {
            assert_eq!(ranks[i], r, "rank must come back unchanged");
            assert!(!seen[i], "duplicate element {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|s| *s), "lost elements");
    }

    /// The approximate queue never loses elements and reports every stored
    /// rank exactly once, for arbitrary rank patterns.
    #[test]
    fn approx_conserves_arbitrary_patterns(ranks in prop::collection::vec(0u64..523, 1..400)) {
        let mut q: ApproxGradientQueue<usize> = ApproxGradientQueue::with_base(523, 1, 0, 16);
        for (i, r) in ranks.iter().enumerate() {
            q.enqueue(*r, i).unwrap();
        }
        let mut seen = vec![false; ranks.len()];
        while let Some((r, i)) = q.dequeue_min() {
            assert_eq!(ranks[i], r);
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|s| *s));
        assert!(q.is_empty());
    }

    /// Batched dequeue must produce exactly the sequence repeated
    /// `dequeue_min` calls would — for all three §5.2 contenders (BH on the
    /// default trait impl, cFFS and Approx on their specialized fast
    /// paths), arbitrary fills, arbitrary batch sizes, and enqueues
    /// interleaved between batches.
    #[test]
    fn dequeue_batch_matches_repeated_dequeue_min(
        ranks in prop::collection::vec(0u64..700, 1..300),
        late in prop::collection::vec(0u64..700, 0..60),
        batches in prop::collection::vec(1usize..17, 1..80),
    ) {
        let cfg = QueueConfig::new(700, 1, 0);
        for kind in [
            QueueKind::BucketHeap,
            QueueKind::Cffs,
            QueueKind::ApproxGradient { alpha: 16 },
        ] {
            let mut batched: Box<dyn RankedQueue<usize>> = kind.build(cfg);
            let mut single: Box<dyn RankedQueue<usize>> = kind.build(cfg);
            for (i, r) in ranks.iter().enumerate() {
                batched.enqueue(*r, i).unwrap();
                single.enqueue(*r, i).unwrap();
            }
            let mut out = Vec::new();
            let mut round = 0usize;
            loop {
                let max = batches[round % batches.len()];
                out.clear();
                let got = batched.dequeue_batch(max, &mut out);
                prop_assert!(got <= max, "{kind:?} overfilled the batch");
                prop_assert_eq!(got, out.len());
                for pair in &out {
                    prop_assert_eq!(Some(*pair), single.dequeue_min(), "{:?}", kind);
                }
                if got == 0 {
                    prop_assert!(single.dequeue_min().is_none());
                    break;
                }
                // Interleave enqueues so batches also cross window
                // rotations and estimator-cache invalidations.
                if let Some(r) = late.get(round) {
                    batched.enqueue(*r, 100_000 + round).unwrap();
                    single.enqueue(*r, 100_000 + round).unwrap();
                }
                round += 1;
            }
            prop_assert!(batched.is_empty() && single.is_empty());
        }
    }

    /// Hierarchical bitmap first/last queries agree with a naive scan for
    /// arbitrary set/clear sequences.
    #[test]
    fn hierbitmap_matches_naive(ops in prop::collection::vec((0usize..1000, any::<bool>()), 1..600),
                                probe in 0usize..1000) {
        let mut bm = HierBitmap::new(1000);
        let mut naive = vec![false; 1000];
        for (i, set) in ops {
            if set { bm.set(i); naive[i] = true; } else { bm.clear(i); naive[i] = false; }
        }
        let first = naive.iter().position(|&b| b);
        let last = naive.iter().rposition(|&b| b);
        prop_assert_eq!(bm.first_set(), first);
        prop_assert_eq!(bm.last_set(), last);
        let first_from = naive[probe..].iter().position(|&b| b).map(|p| p + probe);
        prop_assert_eq!(bm.first_set_from(probe), first_from);
        let last_to = naive[..=probe].iter().rposition(|&b| b);
        prop_assert_eq!(bm.last_set_to(probe), last_to);
        prop_assert_eq!(bm.count_ones(), naive.iter().filter(|&&b| b).count());
    }
}
