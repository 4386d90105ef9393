//! PIFO-oracle conformance: every backend behind [`QueueKind`] is audited
//! against the ideal-PIFO reference ([`OracleAudit`]) over arbitrary
//! operation scripts.
//!
//! Three tiers of guarantee are pinned here:
//!
//! - **Exact backends** (FFS family, bucketed heap, comparison
//!   baselines) must score *zero* inversions and zero rank error at
//!   granularity 1 — they are PIFOs.
//! - **Approximate backends** (approx gradient, SP-PIFO, RIFO) must
//!   conserve every element (the audit panics on fabrication) and keep
//!   their advertised invariants: SP-PIFO's queue bounds stay sorted and
//!   its inversions bounded; RIFO's live range always fits its bucket
//!   geometry and its inversions stay below the bucket width for a pinned
//!   range.
//! - The approx gradient's **integer fixed-point estimator** must select
//!   the same bucket as the f64 reference estimator it replaced — or one
//!   strictly closer to the true minimum.

use std::collections::{BTreeSet, VecDeque};

use proptest::prelude::*;

use eiffel_core::buckets::Buckets;
use eiffel_core::{
    count_inversions, ApproxGradientQueue, HierBitmap, OracleAudit, QueueConfig, QueueKind,
    RankedQueue, RifoQueue, SpPifoQueue,
};

#[derive(Debug, Clone)]
enum Op {
    Enqueue(u64),
    Dequeue,
}

fn ops(max_rank: u64, n: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..max_rank).prop_map(Op::Enqueue),
            2 => Just(Op::Dequeue),
        ],
        1..n,
    )
}

/// Drives `kind` through `script` in lockstep with the oracle, then drains
/// it to empty. Panics inside the audit if the backend fabricates or
/// loses an element; returns the quality report of the full run.
fn audit_kind(kind: QueueKind, cfg: QueueConfig, script: &[Op]) -> eiffel_core::OracleReport {
    let mut q: Box<dyn RankedQueue<u64>> = kind.build(cfg);
    let mut audit = OracleAudit::new();
    for op in script {
        match op {
            Op::Enqueue(r) => {
                if q.enqueue(*r, *r).is_ok() {
                    audit.on_enqueue(*r);
                }
            }
            Op::Dequeue => {
                if let Some((r, _)) = q.dequeue_min() {
                    audit.on_dequeue(r);
                }
            }
        }
    }
    while let Some((r, _)) = q.dequeue_min() {
        audit.on_dequeue(r);
    }
    assert!(
        audit.is_empty(),
        "{kind:?} lost {} elements the oracle still holds",
        audit.len()
    );
    audit.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact backends are PIFOs: every pop returns the true minimum at
    /// that instant — zero rank error, for arbitrary interleaved scripts
    /// (ranks 0..64 so the 64-bucket FFS is in range alongside everything
    /// else). Note the *global-sequence* inversion count is not pinned
    /// here: even an ideal PIFO pops 5 before a later-arriving 3, so that
    /// metric only separates backends on drain-only phases (below).
    #[test]
    fn exact_backends_match_the_oracle(script in ops(64, 400)) {
        let cfg = QueueConfig::new(700, 1, 0);
        for kind in [
            QueueKind::Ffs,
            QueueKind::HierFfs,
            QueueKind::Cffs,
            QueueKind::BucketHeap,
            QueueKind::BinaryHeap,
            QueueKind::BTree,
        ] {
            // The FFS kind is one word: 64 buckets.
            let cfg = if kind == QueueKind::Ffs {
                QueueConfig::new(64, 1, 0)
            } else {
                cfg
            };
            let rep = audit_kind(kind, cfg, &script);
            prop_assert_eq!(rep.rank_error_sum, 0, "{:?} rank error", kind);
            prop_assert_eq!(rep.max_rank_error, 0, "{:?} max rank error", kind);
        }
    }

    /// Approximate and adaptive backends conserve every element under
    /// arbitrary interleaved scripts: the oracle panics on any fabricated
    /// or duplicated rank, and must be drained empty in lockstep. (Their
    /// quality bands are pinned on drain-only phases below, where the
    /// papers' bounds actually apply.)
    #[test]
    fn approximate_backends_conserve_under_arbitrary_scripts(script in ops(523, 500)) {
        let cfg = QueueConfig::new(523, 1, 0);
        let enqueued = script.iter().filter(|op| matches!(op, Op::Enqueue(_))).count() as u64;
        for kind in [
            QueueKind::ApproxGradient { alpha: 16 },
            QueueKind::CircularApprox { alpha: 16 },
            QueueKind::SpPifo { queues: 8 },
            QueueKind::Rifo,
        ] {
            let rep = audit_kind(kind, cfg, &script);
            prop_assert_eq!(rep.pops, enqueued, "{:?} lost or duplicated", kind);
        }
    }

    /// SP-PIFO's structural invariant: the queue bounds stay sorted
    /// (non-decreasing toward lower priority) after every operation —
    /// push-up and push-down both preserve it — and on a drain-only phase
    /// the adaptive 16-queue mapping must beat the degenerate 1-queue
    /// mapper (a plain FIFO, which is what SP-PIFO collapses to with no
    /// queues to separate ranks into) on mean rank error.
    #[test]
    fn sp_pifo_bounds_stay_sorted_and_mapping_beats_fifo(script in ops(10_000, 500)) {
        let mut q: SpPifoQueue<u64> = SpPifoQueue::new(16);
        let mut fifo: SpPifoQueue<u64> = SpPifoQueue::new(1);
        let mut audit = OracleAudit::new();
        let mut fifo_audit = OracleAudit::new();
        for op in &script {
            match op {
                Op::Enqueue(r) => {
                    q.enqueue(*r, *r).unwrap();
                    audit.on_enqueue(*r);
                    fifo.enqueue(*r, *r).unwrap();
                    fifo_audit.on_enqueue(*r);
                }
                Op::Dequeue => {
                    if let Some((r, _)) = q.dequeue_min() {
                        audit.on_dequeue(r);
                    }
                    if let Some((r, _)) = fifo.dequeue_min() {
                        fifo_audit.on_dequeue(r);
                    }
                }
            }
            let b = q.queue_bounds();
            prop_assert!(
                b.windows(2).all(|w| w[0] <= w[1]),
                "queue bounds must stay sorted, got {:?}",
                b
            );
        }
        while let Some((r, _)) = q.dequeue_min() {
            audit.on_dequeue(r);
        }
        while let Some((r, _)) = fifo.dequeue_min() {
            fifo_audit.on_dequeue(r);
        }
        let (rep, fifo_rep) = (audit.finish(), fifo_audit.finish());
        prop_assert_eq!(rep.pops, fifo_rep.pops);
        // 16 strict-priority queues must not serve worse than no mapping
        // at all (ties allowed: short scripts can be error-free in both).
        prop_assert!(
            rep.avg_rank_error() <= fifo_rep.avg_rank_error(),
            "16-queue SP-PIFO (avg err {}) lost to a FIFO (avg err {})",
            rep.avg_rank_error(),
            fifo_rep.avg_rank_error()
        );
    }

    /// RIFO's geometry invariant: whenever the queue is non-empty the live
    /// range fits the bucket array (`hi − lo < g·N`, so every mapped index
    /// is in bounds — checked after every enqueue, including ones that
    /// widen the range), and on a fill-then-drain with the range pinned up
    /// front (no clamping, no rebase) both the per-pop rank error and the
    /// max inversion stay below the bucket width `g`.
    #[test]
    fn rifo_range_fits_and_inversions_stay_below_bucket_width(
        ranks in prop::collection::vec(0u64..32_000, 1..400),
    ) {
        let nb = 64usize;
        let mut q: RifoQueue<u64> = RifoQueue::new(nb);
        // Pin the range: lo = 0, hi = 32_000 → g fixed for the whole run.
        q.enqueue(0, 0).unwrap();
        q.enqueue(32_000, 32_000).unwrap();
        let (_, _, g) = q.range();
        let mut audit = OracleAudit::new();
        audit.on_enqueue(0);
        audit.on_enqueue(32_000);
        for r in &ranks {
            q.enqueue(*r, *r).unwrap();
            audit.on_enqueue(*r);
            let (lo, hi, g_now) = q.range();
            prop_assert!(
                hi - lo < g_now * nb as u64,
                "live range [{lo}, {hi}] overflows {nb} buckets of width {g_now}"
            );
        }
        prop_assert_eq!(q.stats().clamped_low, 0, "pinned range must not clamp");
        while let Some((r, _)) = q.dequeue_min() {
            audit.on_dequeue(r);
        }
        let rep = audit.finish();
        prop_assert!(
            rep.max_rank_error < g,
            "per-pop rank error {} must stay below bucket width {g}",
            rep.max_rank_error
        );
        let (_, max_gap) = count_inversions(audit.popped());
        prop_assert!(
            max_gap < g,
            "max inversion {max_gap} must stay below bucket width {g}"
        );
    }

    /// `dequeue_batch` must produce exactly the sequence repeated
    /// `dequeue_min` calls would, for both new backends, arbitrary fills,
    /// arbitrary batch sizes, and enqueues interleaved between batches
    /// (mirrors `properties.rs`'s three-incumbent version).
    #[test]
    fn new_backend_batches_match_repeated_single(
        ranks in prop::collection::vec(0u64..100_000, 1..300),
        late in prop::collection::vec(0u64..100_000, 0..60),
        batches in prop::collection::vec(1usize..17, 1..80),
    ) {
        let cfg = QueueConfig::new(700, 1, 0);
        for kind in [QueueKind::SpPifo { queues: 16 }, QueueKind::Rifo] {
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
                if let Some(r) = late.get(round) {
                    batched.enqueue(*r, 100_000 + round).unwrap();
                    single.enqueue(*r, 100_000 + round).unwrap();
                }
                round += 1;
            }
            prop_assert!(batched.is_empty() && single.is_empty());
        }
    }

    /// Flow-churn through the shared node slab: arbitrary interleaved
    /// push/pop scripts across buckets, audited against a per-bucket FIFO
    /// oracle, with the storage invariants checked after *every* op —
    /// `free_list_len() = slab_len() − len()` (no leaked or double-freed
    /// nodes; the walk itself panics on a free-list cycle) and
    /// `slab_len() ≤ peak occupancy` (churn recycles, never grows).
    #[test]
    fn slab_churn_recycles_nodes_and_keeps_fifo(
        script in prop::collection::vec(
            (0usize..24, 0u64..1_000, any::<bool>()),
            1..600,
        ),
    ) {
        let mut b: Buckets<u64> = Buckets::new(24);
        let mut oracle: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); 24];
        let mut peak = 0usize;
        let mut serial = 0u64;
        for &(bucket, rank, is_push) in &script {
            if is_push {
                b.push(bucket, rank, serial);
                oracle[bucket].push_back((rank, serial));
                serial += 1;
            } else {
                prop_assert_eq!(b.pop(bucket), oracle[bucket].pop_front(), "bucket {}", bucket);
            }
            peak = peak.max(b.len());
            prop_assert_eq!(b.len(), oracle.iter().map(|q| q.len()).sum::<usize>());
            prop_assert_eq!(
                b.free_list_len(),
                b.slab_len() - b.len(),
                "every slab node must be live or free-listed, never both/neither"
            );
            prop_assert!(
                b.slab_len() <= peak.max(1),
                "slab grew to {} nodes for peak occupancy {}",
                b.slab_len(),
                peak
            );
        }
        // Drain everything: the oracle must agree to the end, and the full
        // slab must land on the free list.
        for (bucket, expect) in oracle.iter_mut().enumerate() {
            while let Some(got) = b.pop(bucket) {
                prop_assert_eq!(Some(got), expect.pop_front());
            }
            prop_assert!(expect.is_empty(), "bucket {} lost elements", bucket);
        }
        prop_assert_eq!(b.free_list_len(), b.slab_len());
    }

    /// Occupancy-bitmap churn against a set oracle: arbitrary set/clear
    /// scripts (heavy on 0↔1 edges — the transitions the hierarchy's
    /// summary words must track exactly), with `first_set`/`last_set` and
    /// the directional scans checked after every operation.
    #[test]
    fn hierbitmap_churn_matches_set_oracle(
        len in 1usize..700,
        script in prop::collection::vec((0usize..700, any::<bool>()), 1..400),
        probe in 0usize..700,
    ) {
        let mut bm = HierBitmap::new(len);
        let mut oracle: BTreeSet<usize> = BTreeSet::new();
        for &(i, set) in &script {
            let i = i % len;
            if set {
                bm.set(i);
                oracle.insert(i);
            } else {
                bm.clear(i);
                oracle.remove(&i);
            }
            prop_assert_eq!(bm.count_ones(), oracle.len());
            prop_assert_eq!(bm.first_set(), oracle.iter().next().copied());
            prop_assert_eq!(bm.last_set(), oracle.iter().next_back().copied());
            let p = probe % len;
            prop_assert_eq!(bm.first_set_from(p), oracle.range(p..).next().copied());
            prop_assert_eq!(bm.last_set_to(p), oracle.range(..=p).next_back().copied());
        }
    }

    /// Flow churn at the queue level: repeated fill/drain cycles (each
    /// cycle emptying the queue — many 0↔1 occupancy edges over recycled
    /// slab nodes), audited by the PIFO oracle. Exact backends must stay
    /// exact in *every* cycle: a stale summary bit or recycled-node bug
    /// from cycle k would surface as rank error in cycle k+1.
    #[test]
    fn queue_churn_stays_exact_across_empty_cycles(
        cycles in prop::collection::vec(
            prop::collection::vec(0u64..64, 1..40),
            2..8,
        ),
    ) {
        let cfg = QueueConfig::new(700, 1, 0);
        for kind in [
            QueueKind::Ffs,
            QueueKind::HierFfs,
            QueueKind::Cffs,
            QueueKind::BucketHeap,
        ] {
            // The FFS kind is one word: 64 buckets.
            let cfg = if kind == QueueKind::Ffs {
                QueueConfig::new(64, 1, 0)
            } else {
                cfg
            };
            let mut q: Box<dyn RankedQueue<u64>> = kind.build(cfg);
            for ranks in &cycles {
                let mut audit = OracleAudit::new();
                for r in ranks {
                    q.enqueue(*r, *r).unwrap();
                    audit.on_enqueue(*r);
                }
                while let Some((r, _)) = q.dequeue_min() {
                    audit.on_dequeue(r);
                }
                prop_assert!(q.is_empty(), "{:?} must drain to empty", kind);
                let rep = audit.finish();
                prop_assert_eq!(rep.pops, ranks.len() as u64, "{:?} conservation", kind);
                prop_assert_eq!(rep.rank_error_sum, 0, "{:?} exactness after churn", kind);
            }
        }
    }

    /// The integer fixed-point estimator against the f64 reference it
    /// replaced: at every step of an arbitrary script, the bucket the
    /// integer path selects is the same one the float path would pick —
    /// or strictly closer to the true minimum (never worse).
    #[test]
    fn int_estimator_matches_float_reference(script in ops(523, 400)) {
        let nb = 523usize;
        let mut q: ApproxGradientQueue<u64> = ApproxGradientQueue::with_base(nb, 1, 0, 16);
        let mut audit = OracleAudit::new();
        let check = |q: &ApproxGradientQueue<u64>, audit: &OracleAudit| {
            let Some(truth_rank) = audit.true_min() else {
                prop_assert!(q.peek_min_rank().is_none());
                prop_assert!(q.float_reference_selection().is_none());
                return;
            };
            // Internal offset of a rank at granularity 1, base 0: nb−1−r.
            let truth_k = nb as u64 - 1 - truth_rank;
            let int_k = nb as u64 - 1 - q.peek_min_rank().expect("oracle says non-empty");
            let (float_k, _) = q.float_reference_selection().expect("oracle says non-empty");
            prop_assert!(
                int_k == float_k as u64
                    || int_k.abs_diff(truth_k) <= (float_k as u64).abs_diff(truth_k),
                "integer pick {int_k} is farther from truth {truth_k} than float pick {float_k}"
            );
        };
        for op in &script {
            match op {
                Op::Enqueue(r) => {
                    q.enqueue(*r, *r).unwrap();
                    audit.on_enqueue(*r);
                }
                Op::Dequeue => {
                    if let Some((r, _)) = q.dequeue_min() {
                        audit.on_dequeue(r);
                    }
                }
            }
            check(&q, &audit);
        }
        while let Some((r, _)) = q.dequeue_min() {
            audit.on_dequeue(r);
            check(&q, &audit);
        }
    }
}
