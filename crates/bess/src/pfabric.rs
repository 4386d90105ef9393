//! pFabric scheduling — the §5.1.3 "Least/Largest X First" use case.
//!
//! Flows are ranked by *remaining size in packets*; "every incoming and
//! outgoing packet changes the rank of all other packets belonging to the
//! same flow, requiring on-dequeue ranking" (Figure 14). Two
//! implementations:
//!
//! * [`PfabricEiffel`] — the paper's: Eiffel per-flow ranking over a
//!   fixed-range hierarchical FFS queue (remaining size is a fixed-range
//!   integer; moving flows between buckets is O(1));
//! * [`PfabricHeap`] — the baseline "using O(log n) priority queue based on
//!   a Binary Heap": a flow's rank change re-heapifies, which "has an
//!   overhead of O(n) as it requires re-heapifying the heap every time".

use std::collections::VecDeque;

use eiffel_core::{QueueConfig, QueueKind};
use eiffel_pifo::policies::Pfabric;
use eiffel_pifo::FlowScheduler;
use eiffel_sim::{Nanos, Packet};

/// Maximum remaining size (in packets) the rank space must represent.
const MAX_REMAINING: u64 = 1 << 20;

/// Eiffel's pFabric: per-flow transaction + on-dequeue ranking over HFFS.
pub struct PfabricEiffel {
    inner: FlowScheduler,
}

impl PfabricEiffel {
    /// Creates the scheduler.
    pub fn new() -> Self {
        PfabricEiffel {
            // `with_kind` (not `new`) so the scheduler knows the HFFS
            // backing is exact and keeps the batched-dequeue shortcut.
            inner: FlowScheduler::with_kind(
                Box::new(Pfabric),
                QueueKind::HierFfs,
                QueueConfig::new(MAX_REMAINING as usize, 1, 0),
            ),
        }
    }

    /// Enqueues a packet whose `rank` field carries the flow's remaining
    /// size at emission.
    pub fn enqueue(&mut self, now: Nanos, pkt: Packet) {
        self.inner.enqueue(now, pkt);
    }

    /// Dequeues the packet of the flow with the least remaining size.
    pub fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.inner.dequeue(now)
    }

    /// Dequeues up to `max` packets in repeated-[`PfabricEiffel::dequeue`]
    /// order — the per-flow transaction's batched fast path: while the
    /// served flow's recomputed remaining size stays the strict minimum
    /// (the common case mid-flow, since serving only shrinks it), its next
    /// packet is handed out without the HFFS round trip.
    pub fn dequeue_batch(&mut self, now: Nanos, max: usize, out: &mut Vec<Packet>) -> usize {
        self.inner.dequeue_batch(now, max, out)
    }

    /// Queued packets.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl Default for PfabricEiffel {
    fn default() -> Self {
        Self::new()
    }
}

/// Baseline: flows in one binary heap keyed by flow rank, re-heapified on
/// every rank change (the comparison-based cost the paper measures).
pub struct PfabricHeap {
    /// `(rank, flow)` heap array; re-built on rank changes.
    heap: Vec<(u64, u32)>,
    flows: Vec<FlowSlot>,
    len: usize,
}

#[derive(Debug, Default)]
struct FlowSlot {
    fifo: VecDeque<Packet>,
    rank: u64,
}

impl PfabricHeap {
    /// Creates the baseline scheduler.
    pub fn new() -> Self {
        PfabricHeap {
            heap: Vec::new(),
            flows: Vec::new(),
            len: 0,
        }
    }

    fn flow_mut(&mut self, id: u32) -> &mut FlowSlot {
        let idx = id as usize;
        if self.flows.len() <= idx {
            self.flows.resize_with(idx + 1, FlowSlot::default);
        }
        &mut self.flows[idx]
    }

    /// Restores the min-heap property over the whole array — the O(n)
    /// rebuild the paper attributes to this baseline.
    fn reheapify(&mut self) {
        let n = self.heap.len();
        for i in (0..n / 2).rev() {
            self.sift_down(i);
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < n && self.heap[l] < self.heap[m] {
                m = l;
            }
            if r < n && self.heap[r] < self.heap[m] {
                m = r;
            }
            if m == i {
                return;
            }
            self.heap.swap(i, m);
            i = m;
        }
    }

    /// Enqueues a packet (`rank` = remaining size at emission).
    pub fn enqueue(&mut self, _now: Nanos, pkt: Packet) {
        let id = pkt.flow;
        let rank = pkt.rank;
        self.len += 1;
        let f = self.flow_mut(id);
        f.fifo.push_back(pkt);
        if f.fifo.len() == 1 {
            f.rank = rank;
            self.heap.push((rank, id));
            // Insertion at the tail: restore heap order.
            self.reheapify();
        } else if rank < f.rank {
            // Figure 14: f.rank = min(p.rank, f.rank) — rank changed, and
            // the heap must be fixed around the moved flow.
            f.rank = rank;
            if let Some(slot) = self.heap.iter_mut().find(|(_, fid)| *fid == id) {
                slot.0 = rank;
            }
            self.reheapify();
        }
    }

    /// Dequeues from the least-remaining flow, re-ranking it (on-dequeue).
    pub fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        if self.heap.is_empty() {
            return None;
        }
        let (_, id) = self.heap[0];
        let f = &mut self.flows[id as usize];
        let pkt = f.fifo.pop_front().expect("heap tracks backlogged flows");
        self.len -= 1;
        if let Some(head) = f.fifo.front() {
            // On-dequeue re-rank: min remaining is now the head's.
            f.rank = head.rank;
            self.heap[0].0 = head.rank;
            self.sift_down(0);
        } else {
            let last = self.heap.len() - 1;
            self.heap.swap(0, last);
            self.heap.pop();
            self.sift_down(0);
        }
        Some(pkt)
    }

    /// Queued packets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for PfabricHeap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, flow: u32, remaining: u64) -> Packet {
        let mut p = Packet::mtu(id, flow, 0);
        p.rank = remaining;
        p
    }

    /// Feed both implementations the same workload; dequeue order must
    /// agree on *flow remaining sizes* (SRPT behaviour).
    ///
    /// A pre-buffered burst is stamped with the flow's remaining size at
    /// emission time — constant (= total size) until transmissions start,
    /// exactly as a transport stamps packets in flight.
    #[test]
    fn heap_and_eiffel_agree_on_srpt_order() {
        let mut e = PfabricEiffel::new();
        let mut h = PfabricHeap::new();
        // Three flows with remaining sizes 3, 1, 2 packets.
        for (flow, size) in [(0u32, 3u64), (1, 1), (2, 2)] {
            for k in 0..size {
                e.enqueue(0, pkt(flow as u64 * 100 + k, flow, size));
                h.enqueue(0, pkt(flow as u64 * 100 + k, flow, size));
            }
        }
        let eo: Vec<u32> = std::iter::from_fn(|| e.dequeue(0))
            .map(|p| p.flow)
            .collect();
        let ho: Vec<u32> = std::iter::from_fn(|| h.dequeue(0))
            .map(|p| p.flow)
            .collect();
        // Shortest-remaining flow 1 first, then 2, then 0 — entirely.
        assert_eq!(eo, vec![1, 2, 2, 0, 0, 0]);
        assert_eq!(ho, eo);
    }

    /// Preemption: a new short flow must jump ahead of a long one mid-drain.
    #[test]
    fn short_flow_preempts_long_one_eiffel() {
        let mut e = PfabricEiffel::new();
        for k in 0..5u64 {
            e.enqueue(0, pkt(k, 0, 5));
        }
        assert_eq!(e.dequeue(0).unwrap().flow, 0);
        e.enqueue(0, pkt(100, 1, 1)); // short flow: 1 packet remaining
        assert_eq!(e.dequeue(0).unwrap().flow, 1, "short flow preempts");
        assert_eq!(e.dequeue(0).unwrap().flow, 0);
    }

    /// Same preemption behaviour from the heap baseline.
    #[test]
    fn short_flow_preempts_long_one_heap() {
        let mut h = PfabricHeap::new();
        for k in 0..5u64 {
            h.enqueue(0, pkt(k, 0, 5));
        }
        assert_eq!(h.dequeue(0).unwrap().flow, 0);
        h.enqueue(0, pkt(100, 1, 1));
        assert_eq!(h.dequeue(0).unwrap().flow, 1, "short flow preempts");
        assert_eq!(h.dequeue(0).unwrap().flow, 0);
    }

    #[test]
    fn conservation_under_churn() {
        let mut e = PfabricEiffel::new();
        let mut h = PfabricHeap::new();
        let mut x: u64 = 0xabcdef12345;
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 3 != 0 {
                let flow = (x % 64) as u32;
                let rem = 1 + (x >> 8) % 1_000;
                e.enqueue(0, pkt(step, flow, rem));
                h.enqueue(0, pkt(step, flow, rem));
                pushed += 1;
            } else {
                let a = e.dequeue(0);
                let b = h.dequeue(0);
                assert_eq!(a.is_some(), b.is_some());
                if a.is_some() {
                    popped += 1;
                }
            }
        }
        assert_eq!(e.len() as u64, pushed - popped);
        assert_eq!(h.len() as u64, pushed - popped);
    }
}
