//! Switch output-port queues: DCTCP drop-tail+ECN and pFabric priority
//! queues (exact and approximate).
//!
//! The Figure 19 experiment "changes only the priority queuing
//! implementation from a linear search-based priority queue to our
//! Approximate priority queue": the pFabric port is generic over its
//! min-finder. Priority-*drop* eviction (overflow removes the
//! lowest-priority packet) uses an exact max lookup in both variants so
//! the approximation under study stays isolated to min-extraction.

use std::collections::VecDeque;

use eiffel_core::{ApproxGradientQueue, HierFfsQueue, RankedQueue};

use crate::frame::Frame;

/// Rank ceiling for pFabric ports: remaining sizes are clamped here (all
/// "very large" remainders are equally last — the web-search tail spans to
/// 20k packets but contention is decided among the small ranks).
const RANK_CAP: u32 = 4_095;

/// What happened on enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Packet admitted.
    Queued,
    /// A packet was dropped: the arriving one or an evicted lower-priority
    /// one (pFabric's priority drop).
    Dropped(Frame),
}

/// Exactness of the pFabric port's min-extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfabricVariant {
    /// Exact FFS-based priority queue.
    Exact,
    /// Approximate gradient queue (the Fig 19 "pFabric-Approx").
    Approx,
}

/// The ranked queue behind a pFabric port.
pub enum PfabricPq {
    /// Exact hierarchical FFS queue.
    Exact(HierFfsQueue<Frame>),
    /// Approximate gradient queue.
    Approx(ApproxGradientQueue<Frame>),
}

impl PfabricPq {
    fn new(variant: PfabricVariant) -> Self {
        match variant {
            PfabricVariant::Exact => PfabricPq::Exact(HierFfsQueue::new(RANK_CAP as usize + 1, 1)),
            PfabricVariant::Approx => PfabricPq::Approx(ApproxGradientQueue::with_base(
                RANK_CAP as usize + 1,
                1,
                0,
                // α sized for the bucket count (48·α ≥ 4096).
                128,
            )),
        }
    }

    fn enqueue(&mut self, rank: u64, f: Frame) {
        match self {
            PfabricPq::Exact(q) => q
                .enqueue(rank, f)
                .unwrap_or_else(|_| unreachable!("clamped")),
            PfabricPq::Approx(q) => q
                .enqueue(rank, f)
                .unwrap_or_else(|_| unreachable!("clamped")),
        }
    }

    fn dequeue_min(&mut self) -> Option<(u64, Frame)> {
        match self {
            PfabricPq::Exact(q) => q.dequeue_min(),
            PfabricPq::Approx(q) => q.dequeue_min(),
        }
    }

    fn dequeue_max(&mut self) -> Option<(u64, Frame)> {
        match self {
            PfabricPq::Exact(q) => q.dequeue_max(),
            PfabricPq::Approx(q) => q.dequeue_max(),
        }
    }

    fn peek_max_rank(&self) -> Option<u64> {
        match self {
            PfabricPq::Exact(q) => q.peek_max_rank(),
            // Exact max-peek via the cached-bound scan: the admission test
            // no longer pays a full counter scan (plus an eviction and
            // re-enqueue round trip) on every arrival at a full port.
            PfabricPq::Approx(q) => q.peek_max_rank(),
        }
    }

    fn len(&self) -> usize {
        match self {
            PfabricPq::Exact(q) => q.len(),
            PfabricPq::Approx(q) => q.len(),
        }
    }
}

/// An output-port queue.
pub enum PortQueue {
    /// FIFO with tail drop and ECN marking above `ecn_k` (DCTCP).
    DropTailEcn {
        /// The FIFO.
        fifo: VecDeque<Frame>,
        /// Capacity in packets.
        cap: usize,
        /// Marking threshold in packets (DCTCP's K).
        ecn_k: usize,
    },
    /// pFabric: priority scheduling + priority dropping.
    Pfabric {
        /// The ranked queue, boxed so the per-port array stride stays one
        /// cache line for every variant.
        pq: Box<PfabricPq>,
        /// Capacity in packets.
        cap: usize,
    },
}

impl PortQueue {
    /// DCTCP port with standard thresholds (cap ≈ 4×K).
    pub fn dctcp(ecn_k: usize) -> Self {
        PortQueue::DropTailEcn {
            fifo: VecDeque::new(),
            cap: ecn_k * 4,
            ecn_k,
        }
    }

    /// pFabric port with `cap` packets of buffer.
    pub fn pfabric(variant: PfabricVariant, cap: usize) -> Self {
        PortQueue::Pfabric {
            pq: Box::new(PfabricPq::new(variant)),
            cap,
        }
    }

    /// Queued packets.
    pub fn len(&self) -> usize {
        match self {
            PortQueue::DropTailEcn { fifo, .. } => fifo.len(),
            PortQueue::Pfabric { pq, .. } => pq.len(),
        }
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `frame`, applying the port's drop/mark policy.
    pub fn enqueue(&mut self, mut frame: Frame) -> Verdict {
        match self {
            PortQueue::DropTailEcn { fifo, cap, ecn_k } => {
                if fifo.len() >= *cap {
                    return Verdict::Dropped(frame);
                }
                if fifo.len() >= *ecn_k {
                    frame.ce = true; // DCTCP marking at enqueue
                }
                fifo.push_back(frame);
                Verdict::Queued
            }
            PortQueue::Pfabric { pq, cap } => {
                let rank = frame.rank.min(RANK_CAP) as u64;
                if pq.len() >= *cap {
                    // Priority drop: evict the worst, unless the arrival is
                    // at least as bad as the current worst. Both variants
                    // answer the admission test exactly (FFS bitmap /
                    // occupancy bitmap), so past this guard the arrival
                    // strictly beats the evictee (granularity 1: the max
                    // bucket's stored ranks all equal `max`).
                    let max = pq.peek_max_rank().expect("full queue has a max");
                    if rank >= max {
                        return Verdict::Dropped(frame);
                    }
                    let evicted = pq.dequeue_max().expect("full queue has a max");
                    debug_assert!(evicted.0 > rank, "admission test said strictly better");
                    pq.enqueue(rank, frame);
                    return Verdict::Dropped(evicted.1);
                }
                pq.enqueue(rank, frame);
                Verdict::Queued
            }
        }
    }

    /// Removes the next packet to transmit (FIFO or highest priority).
    pub fn dequeue(&mut self) -> Option<Frame> {
        match self {
            PortQueue::DropTailEcn { fifo, .. } => fifo.pop_front(),
            PortQueue::Pfabric { pq, .. } => pq.dequeue_min().map(|(_, f)| f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dctcp_marks_above_k_and_drops_at_cap() {
        let mut q = PortQueue::dctcp(2); // K=2, cap=8
        for seq in 0..8 {
            assert_eq!(q.enqueue(Frame::data(0, seq, 10)), Verdict::Queued);
        }
        match q.enqueue(Frame::data(0, 8, 10)) {
            Verdict::Dropped(f) => assert_eq!(f.seq, 8),
            v => panic!("expected tail drop, got {v:?}"),
        }
        // First two unmarked, the rest CE-marked.
        let marks: Vec<bool> = std::iter::from_fn(|| q.dequeue()).map(|f| f.ce).collect();
        assert_eq!(
            marks,
            vec![false, false, true, true, true, true, true, true]
        );
    }

    #[test]
    fn pfabric_serves_smallest_remaining_first() {
        for variant in [PfabricVariant::Exact, PfabricVariant::Approx] {
            let mut q = PortQueue::pfabric(variant, 16);
            q.enqueue(Frame::data(0, 0, 1_000));
            q.enqueue(Frame::data(1, 0, 3));
            q.enqueue(Frame::data(2, 0, 50));
            let order: Vec<u32> = std::iter::from_fn(|| q.dequeue()).map(|f| f.flow).collect();
            assert_eq!(order, vec![1, 2, 0], "{variant:?}");
        }
    }

    #[test]
    fn pfabric_priority_drop_evicts_worst() {
        for variant in [PfabricVariant::Exact, PfabricVariant::Approx] {
            let mut q = PortQueue::pfabric(variant, 3);
            q.enqueue(Frame::data(0, 0, 100));
            q.enqueue(Frame::data(1, 0, 200));
            q.enqueue(Frame::data(2, 0, 300));
            // Arrival with rank 10: the rank-300 packet must give way.
            match q.enqueue(Frame::data(3, 0, 10)) {
                Verdict::Dropped(f) => assert_eq!(f.flow, 2, "{variant:?}"),
                v => panic!("expected eviction, got {v:?}"),
            }
            // Arrival worse than everything: dropped itself.
            match q.enqueue(Frame::data(4, 0, 4_000)) {
                Verdict::Dropped(f) => assert_eq!(f.flow, 4, "{variant:?}"),
                v => panic!("expected arrival drop, got {v:?}"),
            }
            assert_eq!(q.len(), 3);
        }
    }

    #[test]
    fn rank_cap_clamps_giant_remainders() {
        let mut q = PortQueue::pfabric(PfabricVariant::Exact, 4);
        q.enqueue(Frame::data(0, 0, 1_000_000)); // → RANK_CAP bucket
        q.enqueue(Frame::data(1, 0, 5));
        assert_eq!(q.dequeue().unwrap().flow, 1);
        assert_eq!(q.dequeue().unwrap().flow, 0);
    }
}
