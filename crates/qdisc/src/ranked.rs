//! A work-conserving *ranked* qdisc over any [`RankedQueue`] backend.
//!
//! The shaping qdiscs rank packets by release time; the chaos bake-off
//! needs the five integer backends (BH, cFFS, Approx, SP-PIFO, RIFO)
//! behind the same [`ShaperQdisc`] contract so one threaded runtime can
//! drive them through identical fault plans. This adapter assigns each
//! packet a rank from a deterministic [`RankPattern`] over `(flow,
//! per-flow sequence)` — both runtimes produce identical ranks for
//! identical workloads — and serves strictly rank-order, work-conserving
//! (every resident packet is due now; the softirq drains the backlog).
//!
//! It is deliberately *not* a shaper: throughput differences between
//! backends under faults come from the queue structure, not pacing.

use eiffel_core::{QueueConfig, QueueKind, RankedQueue};
use eiffel_sim::{Nanos, Packet};
use eiffel_workloads::RankPattern;

use crate::qdisc::{ShaperQdisc, TimerStyle};
use crate::sock::row;

/// Ranked work-conserving qdisc: any [`QueueKind`] behind [`ShaperQdisc`].
///
/// Flow ids must be dense (`0..flows`): they index the per-flow sequence
/// column, which grows to the largest id seen.
pub struct RankedShaperQdisc {
    queue: Box<dyn RankedQueue<Packet> + Send>,
    pattern: RankPattern,
    /// Highest rank the queue can represent (patterns are clamped here so
    /// fixed-range backends never refuse an enqueue).
    max_rank: u64,
    /// Per-flow arrival count: the pattern's sequence argument.
    seq: Vec<u64>,
    name: &'static str,
    scratch: Vec<(u64, Packet)>,
}

impl RankedShaperQdisc {
    /// Builds the adapter. `cfg` sizes bucketed backends; rank assignment
    /// clamps to `cfg.span() - 1` so fixed-range kinds always admit.
    pub fn new(kind: QueueKind, cfg: QueueConfig, pattern: RankPattern) -> Self {
        RankedShaperQdisc {
            queue: kind.build_send(cfg),
            pattern,
            max_rank: cfg.start_rank + cfg.span() - 1,
            seq: Vec::new(),
            name: kind.label(),
            scratch: Vec::new(),
        }
    }
}

impl ShaperQdisc for RankedShaperQdisc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn enqueue(&mut self, _now: Nanos, mut pkt: Packet, _pacing_rate_bps: u64) {
        let seq = row(&mut self.seq, pkt.flow);
        let rank = self.pattern.rank(pkt.flow, *seq).min(self.max_rank);
        *seq += 1;
        pkt.rank = rank;
        self.queue
            .enqueue(rank, pkt)
            .unwrap_or_else(|_| unreachable!("ranks are clamped to the queue range"));
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        self.queue.dequeue_min().map(|(_, p)| p)
    }

    fn dequeue_batch(&mut self, _now: Nanos, max: usize, out: &mut Vec<Packet>) -> usize {
        self.scratch.clear();
        let n = self.queue.dequeue_batch(max, &mut self.scratch);
        out.extend(self.scratch.drain(..).map(|(_, p)| p));
        n
    }

    fn evict_worst(&mut self) -> Option<Packet> {
        // Exact on cFFS/HierFFS/Approx/BTree backends; `None` on the rest
        // (SP-PIFO's per-queue FIFOs and the binary heap have no max
        // path), where admission falls back to tail drop.
        self.queue.dequeue_max().map(|(_, p)| p)
    }

    fn next_deadline(&self, _now: Nanos) -> Option<Nanos> {
        // Work-conserving: anything resident is due immediately. The host
        // clamps to `now` (tighten) or `now + 1` (rearm).
        if self.queue.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    fn timer_style(&self) -> TimerStyle {
        TimerStyle::Exact
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eiffel_sim::FlowId;

    fn mtu(id: u64, flow: FlowId) -> Packet {
        Packet::mtu(id, flow, 0)
    }

    #[test]
    fn serves_in_rank_order_and_conserves() {
        let pattern = RankPattern::Uniform {
            max: 1_000,
            seed: 3,
        };
        let cfg = QueueConfig::new(2_048, 1, 0);
        for kind in [
            QueueKind::Cffs,
            QueueKind::BucketHeap,
            QueueKind::ApproxGradient { alpha: 64 },
            QueueKind::SpPifo { queues: 32 },
            QueueKind::Rifo,
        ] {
            let mut q = RankedShaperQdisc::new(kind, cfg, pattern);
            for i in 0..100 {
                q.enqueue(0, mtu(i, (i % 7) as FlowId), 0);
            }
            assert_eq!(q.len(), 100, "{kind:?}");
            assert!(q.next_deadline(5).is_some());
            let mut out = Vec::new();
            q.dequeue_batch(0, 1_000, &mut out);
            assert_eq!(out.len(), 100, "{kind:?} conserves");
            assert!(q.is_empty());
            assert_eq!(q.next_deadline(0), None);
        }
    }

    #[test]
    fn exact_backends_release_sorted_ranks() {
        let pattern = RankPattern::Uniform { max: 500, seed: 9 };
        let mut q = RankedShaperQdisc::new(QueueKind::Cffs, QueueConfig::new(512, 1, 0), pattern);
        for i in 0..200 {
            q.enqueue(0, mtu(i, (i % 5) as FlowId), 0);
        }
        let mut ranks = Vec::new();
        while let Some(p) = q.dequeue(0) {
            ranks.push(p.rank);
        }
        assert_eq!(ranks.len(), 200);
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "sorted release");
    }

    #[test]
    fn evict_worst_takes_the_max_rank() {
        let pattern = RankPattern::Uniform { max: 400, seed: 1 };
        let mut q = RankedShaperQdisc::new(QueueKind::Cffs, QueueConfig::new(512, 1, 0), pattern);
        for i in 0..50 {
            q.enqueue(0, mtu(i, 1), 0);
        }
        let max_resident = {
            let mut c =
                RankedShaperQdisc::new(QueueKind::Cffs, QueueConfig::new(512, 1, 0), pattern);
            for i in 0..50 {
                c.enqueue(0, mtu(i, 1), 0);
            }
            let mut m = 0;
            while let Some(p) = c.dequeue(0) {
                m = m.max(p.rank);
            }
            m
        };
        let evicted = q.evict_worst().expect("cFFS has an exact max path");
        assert_eq!(evicted.rank, max_resident);
        assert_eq!(q.len(), 49);
    }

    #[test]
    fn sp_pifo_has_no_max_path_and_reports_none() {
        let pattern = RankPattern::Uniform { max: 100, seed: 1 };
        let mut q = RankedShaperQdisc::new(
            QueueKind::SpPifo { queues: 8 },
            QueueConfig::new(128, 1, 0),
            pattern,
        );
        q.enqueue(0, mtu(0, 1), 0);
        assert_eq!(q.len(), 1);
        assert!(q.evict_worst().is_none(), "falls back to tail drop");
        assert_eq!(q.len(), 1, "no element silently lost");
    }
}
