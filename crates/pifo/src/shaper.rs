//! The unified shaper — Eiffel extension #3 (§3.2.2, Figures 7–8).
//!
//! Earlier programmable schedulers either had no shaping (OpenQueue) or
//! coupled one shaping transaction to each scheduling transaction (PIFO).
//! Eiffel decouples them: "any rate limit can be translated to a timestamp
//! per packet, which yields even better adherence to the set rate than token
//! buckets. Hence, we use only one shaper for the whole hierarchy which is
//! implemented using a single priority queue."
//!
//! Two pieces live here:
//! * [`TokenStamper`] — per-rate-limit state converting (packet size, rate)
//!   into a release timestamp;
//! * [`Shaper`] — the single time-indexed priority queue (a cFFS) holding
//!   every pending release in the hierarchy, whatever rate limit produced it.

use eiffel_core::{CffsQueue, RankedQueue};
use eiffel_sim::{Nanos, Rate};

/// Converts a rate limit into per-packet release timestamps.
///
/// The classic "timestamp, not token bucket" shaper: each packet's release
/// time is the previous release plus the serialization time of the
/// *previous* packet at the configured rate; an idle period resets to `now`.
#[derive(Debug, Clone)]
pub struct TokenStamper {
    rate: Rate,
    /// Earliest instant the next packet may be released.
    next_eligible: Nanos,
}

impl TokenStamper {
    /// A stamper for `rate`.
    pub fn new(rate: Rate) -> Self {
        TokenStamper {
            rate,
            next_eligible: 0,
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// When the next packet may be released (for inspection).
    pub fn next_eligible(&self) -> Nanos {
        self.next_eligible
    }

    /// Stamps a packet of `bytes` presented at `now`: returns its release
    /// time and advances the stamper.
    ///
    /// Returns `None` for a zero rate — nothing may ever be released, and
    /// the caller decides whether that means "drop" or "hold forever".
    pub fn stamp(&mut self, now: Nanos, bytes: u64) -> Option<Nanos> {
        let tx = self.rate.tx_time(bytes)?;
        let release = self.next_eligible.max(now);
        self.next_eligible = release + tx;
        Some(release)
    }
}

/// The single hierarchy-wide shaper: a time-indexed queue of pending
/// releases.
///
/// `T` is whatever the host needs back at release time — `eiffel-pifo`'s
/// tree stores `(node, packet)` journeys, the kernel qdisc stores packets.
#[derive(Debug)]
pub struct Shaper<T> {
    queue: CffsQueue<T>,
}

impl<T> Shaper<T> {
    /// Creates a shaper with `num_buckets` time buckets of `granularity`
    /// nanoseconds per window half (the paper's kernel configuration is
    /// 20k buckets over a 2-second horizon).
    pub fn new(num_buckets: usize, granularity: Nanos, start: Nanos) -> Self {
        Shaper {
            queue: CffsQueue::new(num_buckets, granularity, start),
        }
    }

    /// Schedules `item` for release at `ts`.
    pub fn schedule(&mut self, ts: Nanos, item: T) {
        self.queue
            .enqueue(ts, item)
            .unwrap_or_else(|_| unreachable!("cFFS clamps instead of refusing"));
    }

    /// Releases every item due at or before `now`, in release-time order.
    pub fn release_due(&mut self, now: Nanos, out: &mut Vec<(Nanos, T)>) {
        // Fused peek+pop: one bitmap descent per released item.
        while let Some((ts, item)) = self.queue.dequeue_min_le(now) {
            out.push((ts, item));
        }
    }

    /// The earliest pending release — `SoonestDeadline()` for timer hosts.
    ///
    /// Bucket-granular: never *later* than the true earliest release, so a
    /// timer armed here never oversleeps a deadline.
    pub fn soonest_deadline(&self) -> Option<Nanos> {
        self.queue.peek_min_rank()
    }

    /// Pending release count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Clamp statistics from the underlying circular queue.
    pub fn stats(&self) -> eiffel_core::QueueStats {
        self.queue.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamper_produces_rate_spaced_timestamps() {
        // 12 Mbps, 1500B → 1 ms per packet.
        let mut st = TokenStamper::new(Rate::mbps(12));
        assert_eq!(st.stamp(0, 1_500), Some(0));
        assert_eq!(st.stamp(0, 1_500), Some(1_000_000));
        assert_eq!(st.stamp(0, 1_500), Some(2_000_000));
        // Idle gap: the stamper resets to `now` rather than bursting.
        assert_eq!(st.stamp(10_000_000, 1_500), Some(10_000_000));
        assert_eq!(st.stamp(10_000_000, 1_500), Some(11_000_000));
    }

    #[test]
    fn zero_rate_stamps_nothing() {
        let mut st = TokenStamper::new(Rate::bps(0));
        assert_eq!(st.stamp(5, 1_500), None);
    }

    #[test]
    fn shaper_releases_in_time_order_across_rates() {
        // Two rate limits share the one shaper — the point of §3.2.2.
        let mut slow = TokenStamper::new(Rate::mbps(6)); // 2 ms/pkt
        let mut fast = TokenStamper::new(Rate::mbps(24)); // 0.5 ms/pkt
        let mut sh: Shaper<&str> = Shaper::new(4_096, 100_000, 0);
        for i in 0..3 {
            let ts = slow.stamp(0, 1_500).unwrap();
            sh.schedule(
                ts,
                if i == 0 {
                    "s0"
                } else if i == 1 {
                    "s1"
                } else {
                    "s2"
                },
            );
        }
        for i in 0..3 {
            let ts = fast.stamp(0, 1_500).unwrap();
            sh.schedule(
                ts,
                if i == 0 {
                    "f0"
                } else if i == 1 {
                    "f1"
                } else {
                    "f2"
                },
            );
        }
        let mut out = Vec::new();
        sh.release_due(1_000_000, &mut out); // everything due ≤ 1 ms
        let names: Vec<&str> = out.iter().map(|(_, n)| *n).collect();
        // Due: s0@0, f0@0, f1@0.5ms, f2@1ms — FIFO between s0/f0 (same bucket
        // edge 0), then the fast flow's later stamps.
        assert_eq!(names, vec!["s0", "f0", "f1", "f2"]);
        assert_eq!(sh.len(), 2);
        assert_eq!(sh.soonest_deadline(), Some(2_000_000));
        out.clear();
        sh.release_due(4_000_000, &mut out);
        assert_eq!(out.len(), 2);
        assert!(sh.is_empty());
    }

    #[test]
    fn soonest_deadline_never_oversleeps() {
        let mut sh: Shaper<u32> = Shaper::new(100, 1_000, 0);
        sh.schedule(12_345, 1);
        let d = sh.soonest_deadline().unwrap();
        assert!(d <= 12_345, "timer must not fire after the deadline");
        let mut out = Vec::new();
        sh.release_due(d, &mut out);
        // At the bucket edge the packet may be up to one granule early —
        // bucketed-shaper semantics (paper §2: equivalent rank in a bucket).
        assert_eq!(out.len(), 1);
    }
}
