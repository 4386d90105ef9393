//! End-host transports: DCTCP and pFabric's minimal transport.
//!
//! These are the sender-side state machines of the Figure 19 comparison.
//! DCTCP (Alizadeh et al., SIGCOMM'10) is the baseline: ECN-fraction-scaled
//! congestion windows over go-back-N recovery. pFabric's transport
//! (SIGCOMM'13) is deliberately minimal: a fixed BDP window at line rate,
//! selective retransmission on timeout — the fabric's priority scheduling
//! and priority dropping do the scheduling work.

use std::collections::BTreeSet;

use crate::bits::SeqBits;

/// DCTCP's EWMA gain for the marked fraction (the paper's g = 1/16).
const DCTCP_G: f64 = 1.0 / 16.0;

/// DCTCP sender state (go-back-N, per-packet cumulative ACKs).
#[derive(Debug, Clone)]
pub struct Dctcp {
    /// Congestion window in packets (fractional growth in CA).
    pub cwnd: f64,
    /// Slow-start threshold.
    pub ssthresh: f64,
    /// Next new sequence to send.
    pub snd_nxt: u32,
    /// Highest cumulative ACK received.
    pub snd_una: u32,
    /// EWMA of the marked fraction.
    pub alpha: f64,
    /// Window-accounting boundary: when `snd_una` passes it, apply α.
    win_end: u32,
    acks_in_win: u32,
    marks_in_win: u32,
    /// Exponential RTO backoff (power of two multiplier).
    pub backoff: u32,
}

impl Dctcp {
    /// A fresh sender with initial window `iw`.
    pub fn new(iw: f64) -> Self {
        Dctcp {
            cwnd: iw,
            ssthresh: f64::MAX,
            snd_nxt: 0,
            snd_una: 0,
            alpha: 0.0,
            win_end: 0,
            acks_in_win: 0,
            marks_in_win: 0,
            backoff: 1,
        }
    }

    /// Whether another packet may enter the network.
    pub fn can_send(&self, size: u32) -> bool {
        self.snd_nxt < size && (self.snd_nxt - self.snd_una) < self.cwnd as u32
    }

    /// Takes the next sequence to transmit.
    pub fn take_next(&mut self) -> u32 {
        let s = self.snd_nxt;
        self.snd_nxt += 1;
        s
    }

    /// Processes a cumulative ACK; `ce` is the echoed congestion signal.
    /// Returns `true` if the ACK advanced the window (progress made).
    pub fn on_ack(&mut self, cum: u32, ce: bool) -> bool {
        if cum <= self.snd_una {
            return false; // duplicate (GBN ignores them)
        }
        let advanced = cum - self.snd_una;
        self.snd_una = cum;
        self.backoff = 1;
        self.acks_in_win += advanced;
        if ce {
            self.marks_in_win += advanced;
        } else {
            // Window growth on unmarked ACKs only.
            for _ in 0..advanced {
                if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0; // slow start
                } else {
                    self.cwnd += 1.0 / self.cwnd; // congestion avoidance
                }
            }
        }
        // Once per RTT (window of data acked): fold in the mark fraction.
        if self.snd_una >= self.win_end {
            let f = if self.acks_in_win == 0 {
                0.0
            } else {
                self.marks_in_win as f64 / self.acks_in_win as f64
            };
            self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
            if self.marks_in_win > 0 {
                self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(1.0);
                self.ssthresh = self.cwnd;
            }
            self.acks_in_win = 0;
            self.marks_in_win = 0;
            self.win_end = self.snd_una + self.cwnd as u32;
        }
        true
    }

    /// Retransmission timeout: go-back-N from `snd_una` at window 1.
    pub fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.snd_nxt = self.snd_una;
        self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G; // full mark
        self.backoff = (self.backoff * 2).min(16);
    }

    /// Whether every byte is cumulatively acknowledged.
    pub fn done(&self, size: u32) -> bool {
        self.snd_una >= size
    }
}

/// pFabric's minimal sender: fixed window, selective repeat on timeout.
#[derive(Debug, Clone)]
pub struct PfabricTx {
    /// Fixed window (BDP packets).
    pub window: u32,
    /// Next never-transmitted sequence.
    pub next_new: u32,
    /// Sequences sent and unacknowledged.
    pub outstanding: BTreeSet<u32>,
    /// Sequences marked lost, awaiting retransmission (lowest first).
    pub retx: BTreeSet<u32>,
    /// Per-sequence delivered flags (SACK state), grown lazily so the
    /// pre-created flow table stays allocation-free until traffic flows.
    acked: SeqBits,
    /// Exponential RTO backoff.
    pub backoff: u32,
}

impl PfabricTx {
    /// A fresh sender for a flow; `size` is carried per call, so the state
    /// here allocates nothing until packets move.
    pub fn new(_size: u32, window: u32) -> Self {
        PfabricTx {
            window: window.max(1),
            next_new: 0,
            outstanding: BTreeSet::new(),
            retx: BTreeSet::new(),
            acked: SeqBits::new(),
            backoff: 1,
        }
    }

    /// Next sequence to transmit, if the window allows: lost packets first
    /// (they carry the smallest remaining and the receiver needs them),
    /// then new data.
    pub fn take_next(&mut self, size: u32) -> Option<u32> {
        if self.outstanding.len() >= self.window as usize {
            return None;
        }
        let seq = if let Some(&s) = self.retx.iter().next() {
            self.retx.remove(&s);
            s
        } else if self.next_new < size {
            let s = self.next_new;
            self.next_new += 1;
            s
        } else {
            return None;
        };
        self.outstanding.insert(seq);
        Some(seq)
    }

    /// Processes a selective ACK. Returns `true` on new progress.
    pub fn on_ack(&mut self, seq: u32) -> bool {
        self.outstanding.remove(&seq);
        self.retx.remove(&seq);
        if !self.acked.set(seq) {
            return false;
        }
        self.backoff = 1;
        true
    }

    /// Timeout: every in-flight packet is presumed lost. Allocation-free:
    /// the outstanding set's nodes move wholesale into the retransmit set.
    pub fn on_timeout(&mut self) {
        self.retx.append(&mut self.outstanding);
        self.backoff = (self.backoff * 2).min(16);
    }

    /// Remaining size in packets (the pFabric rank source).
    pub fn remaining(&self, size: u32) -> u32 {
        size - self.acked.count()
    }

    /// Whether every packet is acknowledged.
    pub fn done(&self, size: u32) -> bool {
        self.acked.count() >= size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dctcp_slow_start_then_marks_shrink_window() {
        let mut t = Dctcp::new(2.0);
        let size = 1_000;
        // Unmarked ACKs: exponential growth.
        let mut sent = 0;
        while sent < 64 {
            while t.can_send(size) {
                t.take_next();
                sent += 1;
            }
            let target = t.snd_nxt;
            t.on_ack(target, false);
        }
        assert!(t.cwnd > 32.0, "slow start grew cwnd to {}", t.cwnd);
        let before = t.cwnd;
        // A fully marked window shrinks multiplicatively by α/2.
        for _ in 0..3 {
            let target = (t.snd_una + t.cwnd as u32).min(size);
            t.on_ack(target, true);
        }
        assert!(
            t.cwnd < before,
            "marks must shrink cwnd ({} → {})",
            before,
            t.cwnd
        );
        assert!(t.alpha > 0.0);
    }

    #[test]
    fn dctcp_timeout_goes_back_n() {
        let mut t = Dctcp::new(10.0);
        for _ in 0..5 {
            t.take_next();
        }
        assert_eq!(t.snd_nxt, 5);
        t.on_timeout();
        assert_eq!(t.snd_nxt, 0, "GBN rewinds to snd_una");
        assert_eq!(t.cwnd as u32, 1);
        assert_eq!(t.backoff, 2);
        // Progress resets backoff.
        t.take_next();
        t.on_ack(1, false);
        assert_eq!(t.backoff, 1);
    }

    #[test]
    fn dctcp_dup_acks_are_ignored() {
        let mut t = Dctcp::new(4.0);
        t.take_next();
        t.take_next();
        assert!(t.on_ack(1, false));
        assert!(!t.on_ack(1, false));
        assert!(!t.on_ack(0, false));
        assert_eq!(t.snd_una, 1);
    }

    #[test]
    fn pfabric_window_limits_outstanding() {
        let mut t = PfabricTx::new(100, 4);
        let mut got = Vec::new();
        while let Some(s) = t.take_next(100) {
            got.push(s);
        }
        assert_eq!(got, vec![0, 1, 2, 3], "window of 4");
        assert!(t.on_ack(2));
        assert_eq!(t.take_next(100), Some(4));
        assert_eq!(t.take_next(100), None);
    }

    #[test]
    fn pfabric_timeout_retransmits_lowest_first() {
        let mut t = PfabricTx::new(10, 3);
        t.take_next(10);
        t.take_next(10);
        t.take_next(10); // 0,1,2 outstanding
        t.on_ack(1);
        t.on_timeout(); // 0 and 2 presumed lost
        assert_eq!(t.take_next(10), Some(0), "lowest lost seq first");
        assert_eq!(t.take_next(10), Some(2));
        assert_eq!(t.take_next(10), Some(3), "then new data");
        assert_eq!(t.remaining(10), 9);
    }

    #[test]
    fn pfabric_completion_by_distinct_acks() {
        let mut t = PfabricTx::new(3, 8);
        for _ in 0..3 {
            t.take_next(3);
        }
        t.on_ack(2);
        t.on_ack(0);
        assert!(!t.done(3));
        t.on_ack(1);
        assert!(t.done(3));
        assert!(!t.on_ack(1), "duplicate SACK is no progress");
    }
}
