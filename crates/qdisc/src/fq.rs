//! The FQ/pacing qdisc baseline — a structural reimplementation of the
//! kernel's `fq` (Dumazet's "TSO sizing and the fq scheduler", §5.1.1's
//! baseline).
//!
//! The cost profile the paper attributes to FQ is kept intact:
//! * a balanced-tree **flow table** looked up on every enqueue (the kernel
//!   keeps RB-trees of flows per hash bucket; here one `BTreeMap`, the Rust
//!   balanced ordered tree);
//! * a balanced-tree **delayed set** ordered by each flow's next
//!   transmission time, with an insert + remove around every paced packet
//!   ("it relies on RB-trees which increases the overhead of reordering
//!   flows on every enqueue and dequeue");
//! * **garbage collection** of idle flow state amortized over enqueues
//!   ("keeps track internally of active and inactive flows and requires
//!   continuous garbage collection").

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use eiffel_sim::{FlowId, Nanos, Packet};

use crate::qdisc::{ShaperQdisc, TimerStyle};

struct FqFlow {
    fifo: VecDeque<Packet>,
    /// Earliest time the flow's next packet may leave (pacing).
    time_next_packet: Nanos,
    /// Pacing rate cached from the socket.
    rate_bps: u64,
    /// Last activity, for garbage collection.
    last_seen: Nanos,
    /// Whether the flow sits in `active` (credit to send) — guards against
    /// double-queueing.
    in_active: bool,
    /// Whether the flow sits in `delayed`.
    in_delayed: bool,
}

/// The FQ/pacing qdisc.
pub struct FqQdisc {
    /// RB-tree stand-in: ordered flow table.
    flows: BTreeMap<FlowId, FqFlow>,
    /// Flows eligible to transmit now, round-robin.
    active: VecDeque<FlowId>,
    /// Flows waiting for their pacing timestamp, ordered by it.
    delayed: BTreeSet<(Nanos, FlowId)>,
    /// Amortized GC cursor and cadence.
    gc_cursor: FlowId,
    enqueues_since_gc: u32,
    len: usize,
    /// Flows reclaimed by GC (observability).
    pub gc_reclaimed: u64,
}

/// Run a GC scan every this many enqueues…
const GC_PERIOD: u32 = 64;
/// …visiting this many flows per scan.
const GC_SCAN: usize = 8;
/// Idle time after which an empty flow's state is reclaimed.
const GC_IDLE_NS: Nanos = 3_000_000_000;

impl FqQdisc {
    /// An empty FQ qdisc.
    pub fn new() -> Self {
        FqQdisc {
            flows: BTreeMap::new(),
            active: VecDeque::new(),
            delayed: BTreeSet::new(),
            gc_cursor: 0,
            enqueues_since_gc: 0,
            len: 0,
            gc_reclaimed: 0,
        }
    }

    /// Number of flows currently tracked (including idle, not yet GC'd).
    #[cfg(test)]
    fn tracked_flows(&self) -> usize {
        self.flows.len()
    }

    fn gc(&mut self, now: Nanos) {
        // Scan a few flows past the cursor, reclaiming long-idle empty ones.
        let mut doomed: Vec<FlowId> = Vec::new();
        let mut seen = 0;
        for (&id, f) in self.flows.range(self.gc_cursor..) {
            if seen >= GC_SCAN {
                break;
            }
            seen += 1;
            self.gc_cursor = id.wrapping_add(1);
            if f.fifo.is_empty()
                && !f.in_active
                && !f.in_delayed
                && now.saturating_sub(f.last_seen) > GC_IDLE_NS
            {
                doomed.push(id);
            }
        }
        if seen < GC_SCAN {
            self.gc_cursor = 0; // wrapped
        }
        for id in doomed {
            self.flows.remove(&id);
            self.gc_reclaimed += 1;
        }
    }

    /// Promote delayed flows whose pacing time has arrived.
    fn refill_active(&mut self, now: Nanos) {
        while let Some(&(ts, id)) = self.delayed.iter().next() {
            if ts > now {
                break;
            }
            self.delayed.remove(&(ts, id));
            let f = self.flows.get_mut(&id).expect("delayed flows are tracked");
            f.in_delayed = false;
            f.in_active = true;
            self.active.push_back(id);
        }
    }
}

impl Default for FqQdisc {
    fn default() -> Self {
        Self::new()
    }
}

impl ShaperQdisc for FqQdisc {
    fn name(&self) -> &'static str {
        "fq"
    }

    fn enqueue(&mut self, now: Nanos, pkt: Packet, pacing_rate_bps: u64) {
        self.enqueues_since_gc += 1;
        if self.enqueues_since_gc >= GC_PERIOD {
            self.enqueues_since_gc = 0;
            self.gc(now);
        }
        let id = pkt.flow;
        let f = self.flows.entry(id).or_insert_with(|| FqFlow {
            fifo: VecDeque::new(),
            time_next_packet: 0,
            rate_bps: pacing_rate_bps,
            last_seen: now,
            in_active: false,
            in_delayed: false,
        });
        f.rate_bps = pacing_rate_bps;
        f.last_seen = now;
        f.fifo.push_back(pkt);
        self.len += 1;
        if !f.in_active && !f.in_delayed {
            if f.time_next_packet <= now {
                f.in_active = true;
                self.active.push_back(id);
            } else {
                f.in_delayed = true;
                self.delayed.insert((f.time_next_packet, id));
            }
        }
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.refill_active(now);
        let id = self.active.pop_front()?;
        let f = self.flows.get_mut(&id).expect("active flows are tracked");
        f.in_active = false;
        let pkt = f.fifo.pop_front().expect("active flows hold packets");
        self.len -= 1;
        // Advance the flow's pacing clock.
        let wire_ns = (pkt.bytes as u64 * 8)
            .saturating_mul(1_000_000_000)
            .checked_div(f.rate_bps)
            .unwrap_or(0);
        f.time_next_packet = now.max(f.time_next_packet) + wire_ns;
        f.last_seen = now;
        if !f.fifo.is_empty() {
            if f.time_next_packet <= now {
                f.in_active = true;
                self.active.push_back(id);
            } else {
                f.in_delayed = true;
                self.delayed.insert((f.time_next_packet, id));
            }
        }
        Some(pkt)
    }

    fn next_deadline(&self, now: Nanos) -> Option<Nanos> {
        if !self.active.is_empty() {
            return Some(now);
        }
        self.delayed.iter().next().map(|&(ts, _)| ts)
    }

    fn timer_style(&self) -> TimerStyle {
        TimerStyle::Exact
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, flow: FlowId) -> Packet {
        Packet::mtu(id, flow, 0)
    }

    #[test]
    fn paces_a_flow_at_its_socket_rate() {
        let mut q = FqQdisc::new();
        // 12 Mbps → 1 ms per MTU.
        for i in 0..3 {
            q.enqueue(0, pkt(i, 1), 12_000_000);
        }
        assert_eq!(q.dequeue(0).unwrap().id, 0);
        assert!(q.dequeue(0).is_none(), "second packet paced");
        assert_eq!(q.next_deadline(0), Some(1_000_000));
        assert!(q.dequeue(999_999).is_none());
        assert_eq!(q.dequeue(1_000_000).unwrap().id, 1);
        assert_eq!(q.dequeue(2_000_000).unwrap().id, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn fair_round_robin_between_unpaced_flows() {
        let mut q = FqQdisc::new();
        for i in 0..3 {
            q.enqueue(0, pkt(i, 1), 0); // rate 0 = unpaced
            q.enqueue(0, pkt(10 + i, 2), 0);
        }
        let flows: Vec<FlowId> = std::iter::from_fn(|| q.dequeue(0).map(|p| p.flow)).collect();
        assert_eq!(flows, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn gc_reclaims_idle_flows() {
        let mut q = FqQdisc::new();
        // 1000 one-packet flows, drained immediately.
        for f in 0..1_000u32 {
            q.enqueue(0, pkt(f as u64, f), 0);
        }
        while q.dequeue(0).is_some() {}
        assert_eq!(q.tracked_flows(), 1_000);
        // Much later, fresh traffic triggers periodic GC sweeps.
        let much_later = 10_000_000_000;
        for i in 0..20_000u64 {
            q.enqueue(much_later + i, pkt(i, 2_000), 0);
            q.dequeue(much_later + i);
        }
        assert!(
            q.gc_reclaimed > 900,
            "idle flows reclaimed, got {}",
            q.gc_reclaimed
        );
        assert!(q.tracked_flows() < 100);
    }

    #[test]
    fn delayed_flows_wake_in_deadline_order() {
        let mut q = FqQdisc::new();
        // Flow 1 at 12 Mbps, flow 2 at 24 Mbps; both send 2 packets at t=0.
        for f in [1u32, 2] {
            let rate = if f == 1 { 12_000_000 } else { 24_000_000 };
            q.enqueue(0, pkt(f as u64 * 10, f), rate);
            q.enqueue(0, pkt(f as u64 * 10 + 1, f), rate);
        }
        // First packets of both flows go now.
        assert!(q.dequeue(0).is_some());
        assert!(q.dequeue(0).is_some());
        // Flow 2's second packet (0.5 ms) precedes flow 1's (1 ms).
        assert_eq!(q.next_deadline(0), Some(500_000));
        assert_eq!(q.dequeue(500_000).unwrap().flow, 2);
        assert_eq!(q.dequeue(1_000_000).unwrap().flow, 1);
    }
}
