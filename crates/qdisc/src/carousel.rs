//! The Carousel qdisc baseline — Timing Wheel shaping (§5.1.1).
//!
//! "We implement a qdisc where all packets are queued in a timing wheel. A
//! timer fires every time instant (according to the granularity of the
//! timing wheel) and checks whether it has packets that should be sent."
//!
//! Timestamps are computed per socket exactly as in Eiffel's qdisc (both
//! follow Carousel's timestamp-per-packet insight); the *difference under
//! measurement* is the data structure and the timer discipline: a wheel has
//! no `ExtractMin`, so the softirq must poll every slot whether or not
//! anything is due — the cost Figure 10 (right) attributes to Carousel.

use eiffel_core::TimingWheel;
use eiffel_sim::{Nanos, Packet};

use crate::qdisc::{ShaperQdisc, TimerStyle};
use crate::sock::SocketClocks;

/// Carousel: per-socket timestamping + a timing wheel.
///
/// Flow ids must be dense (`0..flows`): they index the per-socket clock
/// column, which grows to the largest id seen.
pub struct CarouselQdisc {
    wheel: TimingWheel<Packet>,
    /// Per-socket shaper clocks (the paper keeps these in `sock.h`).
    clocks: SocketClocks,
    /// Release staging: `advance` drains whole slots; dequeue hands packets
    /// out one at a time.
    staged: Vec<(u64, Packet)>,
    staged_next: usize,
    slot_ns: Nanos,
}

impl CarouselQdisc {
    /// A wheel of `slots` slots × `slot_ns` per slot (the horizon is their
    /// product; Carousel's evaluation used single-digit-µs slots over a
    /// couple of seconds).
    pub fn new(slots: usize, slot_ns: Nanos) -> Self {
        CarouselQdisc {
            wheel: TimingWheel::new(slots, slot_ns, 0),
            clocks: SocketClocks::default(),
            staged: Vec::new(),
            staged_next: 0,
            slot_ns,
        }
    }
}

impl ShaperQdisc for CarouselQdisc {
    fn name(&self) -> &'static str {
        "carousel"
    }

    fn enqueue(&mut self, now: Nanos, pkt: Packet, pacing_rate_bps: u64) {
        let ts = self
            .clocks
            .stamp(now, pkt.flow, pkt.bytes as u64, pacing_rate_bps);
        self.wheel.schedule(ts, pkt);
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        if self.staged_next >= self.staged.len() {
            self.staged.clear();
            self.staged_next = 0;
            self.wheel.advance(now, &mut self.staged);
        }
        let i = self.staged_next;
        if i < self.staged.len() {
            self.staged_next += 1;
            // Move out without shifting the vector (drained on next refill).
            let (_, pkt) = std::mem::replace(&mut self.staged[i], (0, Packet::new(0, 0, 0, 0)));
            Some(pkt)
        } else {
            None
        }
    }

    fn dequeue_batch(&mut self, now: Nanos, max: usize, out: &mut Vec<Packet>) -> usize {
        // The wheel's `advance` already drains whole slots into the staging
        // buffer; the batch path hands out runs of staged packets without
        // re-probing the wheel between them.
        let mut n = 0;
        while n < max {
            if self.staged_next >= self.staged.len() {
                self.staged.clear();
                self.staged_next = 0;
                self.wheel.advance(now, &mut self.staged);
                if self.staged.is_empty() {
                    break;
                }
            }
            while n < max && self.staged_next < self.staged.len() {
                let i = self.staged_next;
                self.staged_next += 1;
                let (_, pkt) = std::mem::replace(&mut self.staged[i], (0, Packet::new(0, 0, 0, 0)));
                out.push(pkt);
                n += 1;
            }
        }
        n
    }

    fn next_deadline(&self, now: Nanos) -> Option<Nanos> {
        if self.staged_next < self.staged.len() || !self.wheel.is_empty() {
            // A wheel cannot report its earliest element: the timer simply
            // fires at the next slot boundary.
            Some(now + self.slot_ns)
        } else {
            None
        }
    }

    fn timer_style(&self) -> TimerStyle {
        TimerStyle::Periodic {
            period: self.slot_ns,
        }
    }

    fn len(&self) -> usize {
        self.wheel.len() + (self.staged.len() - self.staged_next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paces_like_a_shaper_with_slot_granularity() {
        let mut q = CarouselQdisc::new(1 << 20, 2_000); // 2 µs slots
                                                        // 12 Mbps → 1 ms per MTU.
        for i in 0..3 {
            q.enqueue(0, Packet::mtu(i, 1, 0), 12_000_000);
        }
        assert_eq!(q.dequeue(0).unwrap().id, 0);
        assert!(q.dequeue(0).is_none());
        assert!(
            q.dequeue(999_000).is_none(),
            "not yet: slot for t=1ms not reached"
        );
        assert_eq!(q.dequeue(1_000_000).unwrap().id, 1);
        assert_eq!(q.dequeue(2_000_001).unwrap().id, 2);
        assert!(q.is_empty());
        assert_eq!(q.dequeue(5_000_000), None);
    }

    #[test]
    fn periodic_timer_style_with_slot_period() {
        let q = CarouselQdisc::new(1024, 2_000);
        assert_eq!(q.timer_style(), TimerStyle::Periodic { period: 2_000 });
    }

    #[test]
    fn idle_wheel_reports_no_deadline() {
        let mut q = CarouselQdisc::new(1024, 1_000);
        assert_eq!(q.next_deadline(0), None);
        q.enqueue(0, Packet::mtu(0, 1, 0), 0);
        assert_eq!(q.next_deadline(0), Some(1_000), "next slot boundary");
        q.dequeue(0).unwrap();
        assert_eq!(q.next_deadline(10_000), None);
    }

    #[test]
    fn per_flow_clocks_are_independent() {
        let mut q = CarouselQdisc::new(1 << 16, 1_000);
        // Flow 1 at 12 Mbps, flow 2 at 120 Mbps.
        q.enqueue(0, Packet::mtu(0, 1, 0), 12_000_000);
        q.enqueue(0, Packet::mtu(1, 1, 0), 12_000_000);
        q.enqueue(0, Packet::mtu(2, 2, 0), 120_000_000);
        q.enqueue(0, Packet::mtu(3, 2, 0), 120_000_000);
        // Both first packets at t=0; flow 2's second at 0.1 ms, flow 1's at 1 ms.
        let mut order = Vec::new();
        let mut now = 0;
        while !q.is_empty() {
            while let Some(p) = q.dequeue(now) {
                order.push(p.id);
            }
            now += 1_000;
        }
        assert_eq!(order, vec![0, 2, 3, 1]);
    }
}
