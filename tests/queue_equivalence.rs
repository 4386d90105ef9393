//! Integration: every *exact* queue implementation is interchangeable —
//! swapping the data structure must never change the schedule, only its
//! cost (the premise of the whole paper: the queue is a pluggable
//! building block).

use eiffel_repro::core::{QueueConfig, QueueKind, RankedQueue};
use eiffel_repro::sim::SplitMix64;

const EXACT_KINDS: &[QueueKind] = &[
    QueueKind::HierFfs,
    QueueKind::Cffs,
    QueueKind::BucketHeap,
    QueueKind::BinaryHeap,
    QueueKind::BTree,
];

/// Identical operation sequences produce identical `(rank, payload)`
/// streams across every exact kind.
#[test]
fn exact_kinds_produce_identical_schedules() {
    let cfg = QueueConfig::new(4_096, 1, 0);
    let mut queues: Vec<(QueueKind, Box<dyn RankedQueue<u64>>)> =
        EXACT_KINDS.iter().map(|&k| (k, k.build(cfg))).collect();
    let mut rng = SplitMix64::new(0xE0E0);
    let mut reference: Vec<Option<(u64, u64)>> = Vec::new();
    for step in 0..30_000u64 {
        let dequeue = rng.next_below(3) == 0;
        if dequeue {
            let expect = queues[0].1.dequeue_min();
            for (kind, q) in queues.iter_mut().skip(1) {
                assert_eq!(q.dequeue_min(), expect, "step {step} kind {kind:?}");
            }
            reference.push(expect);
        } else {
            let rank = rng.next_below(4_096);
            for (_, q) in queues.iter_mut() {
                q.enqueue(rank, step).unwrap();
            }
        }
    }
    // Drain everything and keep comparing.
    loop {
        let expect = queues[0].1.dequeue_min();
        for (kind, q) in queues.iter_mut().skip(1) {
            assert_eq!(q.dequeue_min(), expect, "drain, kind {kind:?}");
        }
        if expect.is_none() {
            break;
        }
    }
}

/// The approximate queue over the same script: never loses elements, and
/// its dequeue stream is a permutation of the exact stream.
#[test]
fn approx_kind_is_a_lossless_permutation() {
    let cfg = QueueConfig::new(2_048, 1, 0);
    let mut exact = QueueKind::HierFfs.build::<u64>(cfg);
    let mut approx = QueueKind::ApproxGradient { alpha: 64 }.build::<u64>(cfg);
    let mut rng = SplitMix64::new(0xA0A0);
    let mut exact_out = Vec::new();
    let mut approx_out = Vec::new();
    for step in 0..20_000u64 {
        if rng.next_below(3) == 0 {
            if let Some((r, v)) = exact.dequeue_min() {
                exact_out.push((r, v));
            }
            if let Some((r, v)) = approx.dequeue_min() {
                approx_out.push((r, v));
            }
        } else {
            let rank = rng.next_below(2_048);
            exact.enqueue(rank, step).unwrap();
            approx.enqueue(rank, step).unwrap();
        }
    }
    while let Some(x) = exact.dequeue_min() {
        exact_out.push(x);
    }
    while let Some(x) = approx.dequeue_min() {
        approx_out.push(x);
    }
    assert_eq!(exact_out.len(), approx_out.len(), "no element lost");
    let mut a = exact_out.clone();
    let mut b = approx_out.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "same multiset of (rank, payload)");
}

/// Moving-window kinds under a shaping workload (monotone deadline-ish
/// ranks): cFFS matches the comparison-based queues exactly.
#[test]
fn moving_window_kinds_agree_on_shaping_workload() {
    let cfg = QueueConfig::new(8_192, 1, 0);
    let mut cffs = QueueKind::Cffs.build::<u64>(cfg);
    let mut btree = QueueKind::BTree.build::<u64>(cfg);
    let mut rng = SplitMix64::new(0x5AFE);
    let mut ts = 0u64;
    for step in 0..50_000u64 {
        ts += rng.next_below(20);
        cffs.enqueue(ts, step).unwrap();
        btree.enqueue(ts, step).unwrap();
        if step % 2 == 0 {
            assert_eq!(cffs.dequeue_min(), btree.dequeue_min());
        }
    }
    loop {
        let (a, b) = (cffs.dequeue_min(), btree.dequeue_min());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}
