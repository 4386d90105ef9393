//! The Eiffel shaping qdisc — §5.1.1's system under test.
//!
//! "We implemented Eiffel as a qdisc. The queue is configured with 20k
//! buckets with a maximum horizon of 2 seconds and only the shaper is used.
//! We modified only sock.h to keep the state of each socket allowing us to
//! avoid having to keep track of each flow in the qdisc."
//!
//! Per-socket timestamping (the `sock.h` modification) lives in a dense
//! per-flow clock column standing in for socket state; the queue is one
//! cFFS. Unlike the timing wheel, the cFFS answers `SoonestDeadline()` in
//! O(1) word ops, so the host timer is armed *exactly* — the source of the
//! Figure 10 softirq gap.

use eiffel_core::{CffsQueue, RankedQueue};
use eiffel_sim::{Nanos, Packet};

use crate::qdisc::{ShaperQdisc, TimerStyle};
use crate::sock::SocketClocks;

/// Eiffel's shaping qdisc: per-socket stamps + a cFFS.
///
/// Flow ids must be dense (`0..flows`): they index the per-socket clock
/// column, which grows to the largest id seen.
pub struct EiffelQdisc {
    queue: CffsQueue<Packet>,
    /// Per-socket shaper clocks ("sock.h" state).
    clocks: SocketClocks,
    /// Scratch for the batched dequeue path (ranks are discarded; the
    /// buffer is reused so batching never allocates per call).
    batch_scratch: Vec<(Nanos, Packet)>,
}

impl EiffelQdisc {
    /// The paper's configuration: 20k buckets, 2-second horizon
    /// (100 µs granularity per bucket, 20k buckets per window half).
    pub fn paper_config() -> Self {
        Self::new(20_000, 100_000)
    }

    /// Custom geometry: `buckets` buckets of `granularity` ns per half.
    pub fn new(buckets: usize, granularity: Nanos) -> Self {
        EiffelQdisc {
            queue: CffsQueue::new(buckets, granularity, 0),
            clocks: SocketClocks::default(),
            batch_scratch: Vec::new(),
        }
    }
}

impl ShaperQdisc for EiffelQdisc {
    fn name(&self) -> &'static str {
        "eiffel"
    }

    fn enqueue(&mut self, now: Nanos, pkt: Packet, pacing_rate_bps: u64) {
        let ts = self
            .clocks
            .stamp(now, pkt.flow, pkt.bytes as u64, pacing_rate_bps);
        self.queue
            .enqueue(ts, pkt)
            .unwrap_or_else(|_| unreachable!("cFFS clamps instead of refusing"));
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        // Fused peek+pop: one bitmap descent per released packet.
        self.queue.dequeue_min_le(now).map(|(_, p)| p)
    }

    fn dequeue_batch(&mut self, now: Nanos, max: usize, out: &mut Vec<Packet>) -> usize {
        // The cFFS due-drain fast path: one bitmap descent per due bucket,
        // O(1) FIFO pops within it — same release order as repeated
        // `dequeue`, proven by property test.
        self.batch_scratch.clear();
        let n = self
            .queue
            .dequeue_le_batch(now, max, &mut self.batch_scratch);
        out.extend(self.batch_scratch.drain(..).map(|(_, p)| p));
        n
    }

    fn evict_worst(&mut self) -> Option<Packet> {
        // Latest-deadline packet, exactly (cFFS `ExtractMax`). The evicted
        // flow's socket clock is *not* refunded: the wire time was already
        // reserved at stamp time, matching a kernel drop after stamping.
        self.queue.dequeue_max().map(|(_, p)| p)
    }

    fn next_deadline(&self, _now: Nanos) -> Option<Nanos> {
        // SoonestDeadline(): O(1) on the cFFS bitmap hierarchy (§4).
        self.queue.peek_min_rank()
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

    #[test]
    fn paces_at_socket_rate_with_bucket_granularity() {
        let mut q = EiffelQdisc::new(20_000, 100_000);
        // 12 Mbps → 1 ms per MTU; bucket = 100 µs.
        for i in 0..3 {
            q.enqueue(0, Packet::mtu(i, 1, 0), 12_000_000);
        }
        assert_eq!(q.dequeue(0).unwrap().id, 0);
        assert!(q.dequeue(899_999).is_none());
        // Bucket edge of the 1 ms deadline is exactly 1 ms here.
        assert_eq!(q.next_deadline(0), Some(1_000_000));
        assert_eq!(q.dequeue(1_000_000).unwrap().id, 1);
        assert_eq!(q.dequeue(2_000_000).unwrap().id, 2);
        assert!(q.is_empty());
        assert_eq!(q.next_deadline(0), None);
    }

    #[test]
    fn exact_timer_style() {
        assert_eq!(EiffelQdisc::paper_config().timer_style(), TimerStyle::Exact);
    }

    #[test]
    fn agrees_with_carousel_on_release_times() {
        // Same stamping logic, different structure: over a smooth workload
        // both shapers must release the same packets at (bucket/slot
        // granularity of) the same times.
        use crate::carousel::CarouselQdisc;
        use eiffel_sim::FlowId;
        let gran = 1_000;
        let mut e = EiffelQdisc::new(1 << 16, gran);
        let mut c = CarouselQdisc::new(1 << 16, gran);
        for i in 0..200u64 {
            let flow = (i % 10) as FlowId;
            e.enqueue(0, Packet::mtu(i, flow, 0), 120_000_000);
            c.enqueue(0, Packet::mtu(i, flow, 0), 120_000_000);
        }
        let mut now = 0;
        let mut es: Vec<u64> = Vec::new();
        let mut cs: Vec<u64> = Vec::new();
        while es.len() < 200 || cs.len() < 200 {
            while let Some(p) = e.dequeue(now) {
                es.push(p.id);
            }
            while let Some(p) = c.dequeue(now) {
                cs.push(p.id);
            }
            now += gran;
            assert!(now < 1_000_000_000, "drain must finish");
        }
        assert_eq!(es, cs, "identical shaping behaviour (the paper's premise)");
    }
}
