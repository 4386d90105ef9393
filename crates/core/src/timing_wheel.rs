//! Timing Wheel — the data structure behind Carousel (§2 of the paper).
//!
//! "Carousel relies on Timing Wheel, a data structure that can support
//! time-based operations in O(1) … However, Timing Wheel supports only
//! non-work conserving time-based schedules … it does not support operations
//! needed by work-conserving schedules (i.e., ExtractMin or ExtractMax)."
//!
//! This is the baseline Eiffel is compared against in the kernel shaping use
//! case (Figure 9/10). Deliberately, **no** `RankedQueue` implementation is
//! provided: a timing wheel is advanced by the clock, not by min-extraction.
//! A busy-polling or timer-driven host calls [`TimingWheel::advance`] every
//! slot granularity and transmits whatever spills out — which is exactly why
//! the Carousel qdisc must fire its timer every slot, while an Eiffel qdisc
//! can ask its queue for `SoonestDeadline()` and sleep until then.

use std::collections::VecDeque;

/// A circular calendar of time slots holding `(timestamp, item)` pairs.
#[derive(Debug, Clone)]
pub struct TimingWheel<T> {
    slots: Vec<VecDeque<(u64, T)>>,
    /// Nanoseconds (rank units) per slot.
    granularity: u64,
    /// The wheel covers `[cursor_slot × granularity, horizon)` absolute time.
    cursor_slot: u64,
    len: usize,
    /// Timestamps in the past are clamped to the cursor (sent immediately).
    clamped_low: u64,
    /// Timestamps beyond the horizon are clamped to the last slot.
    clamped_high: u64,
}

impl<T> TimingWheel<T> {
    /// Creates a wheel of `num_slots` slots of `granularity` time units,
    /// with the cursor at `start_time`.
    pub fn new(num_slots: usize, granularity: u64, start_time: u64) -> Self {
        assert!(num_slots > 1, "a wheel needs at least two slots");
        assert!(granularity > 0);
        let mut slots = Vec::with_capacity(num_slots);
        slots.resize_with(num_slots, VecDeque::new);
        TimingWheel {
            slots,
            granularity,
            cursor_slot: start_time / granularity,
            len: 0,
            clamped_low: 0,
            clamped_high: 0,
        }
    }

    /// Time units per slot.
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// Stored element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absolute time at which the wheel's coverage currently starts.
    pub fn now(&self) -> u64 {
        self.cursor_slot * self.granularity
    }

    /// Inserts `item` to be released at absolute time `timestamp`.
    ///
    /// Timestamps before the cursor are due now; timestamps at or beyond the
    /// horizon land in the furthest slot (Carousel's documented behaviour).
    pub fn schedule(&mut self, timestamp: u64, item: T) {
        let slot_abs = timestamp / self.granularity;
        let max_abs = self.cursor_slot + self.slots.len() as u64 - 1;
        let slot_abs = if slot_abs < self.cursor_slot {
            self.clamped_low += 1;
            self.cursor_slot
        } else if slot_abs > max_abs {
            self.clamped_high += 1;
            max_abs
        } else {
            slot_abs
        };
        let idx = (slot_abs % self.slots.len() as u64) as usize;
        self.slots[idx].push_back((timestamp, item));
        self.len += 1;
    }

    /// Advances the cursor to absolute time `now`, draining every element in
    /// slots that have passed into `out` (FIFO per slot, slot order).
    ///
    /// This is the operation Carousel's timer performs "every time instant
    /// (according to the granularity of the timing wheel)". The number of
    /// slots stepped — and hence the work — depends on the clock, not on
    /// element count.
    pub fn advance(&mut self, now: u64, out: &mut Vec<(u64, T)>) {
        let target_slot = now / self.granularity;
        while self.cursor_slot <= target_slot {
            let idx = (self.cursor_slot % self.slots.len() as u64) as usize;
            while let Some(e) = self.slots[idx].pop_front() {
                self.len -= 1;
                out.push(e);
            }
            self.cursor_slot += 1;
            if self.len == 0 && self.cursor_slot < target_slot {
                // Nothing left anywhere: jump, preserving slot alignment.
                self.cursor_slot = target_slot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_in_slot_order_at_the_right_times() {
        let mut w = TimingWheel::new(8, 10, 0);
        w.schedule(35, "d");
        w.schedule(5, "a");
        w.schedule(12, "b");
        w.schedule(19, "c"); // same slot as "b": FIFO
        let mut out = Vec::new();
        w.advance(9, &mut out);
        assert_eq!(out, vec![(5, "a")]);
        out.clear();
        w.advance(29, &mut out);
        assert_eq!(out, vec![(12, "b"), (19, "c")]);
        out.clear();
        // Slot [30,40) is drained as soon as the clock reaches its start:
        // timing-wheel releases are early by up to one granule.
        w.advance(30, &mut out);
        assert_eq!(out, vec![(35, "d")]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_timestamps_release_immediately() {
        let mut w = TimingWheel::new(8, 10, 100);
        w.schedule(3, "late");
        assert_eq!(w.clamped_low, 1);
        let mut out = Vec::new();
        w.advance(100, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn beyond_horizon_clamps_to_last_slot() {
        let mut w = TimingWheel::new(4, 10, 0);
        // horizon = slots 0..=3 → max time ~39
        w.schedule(1_000, "far");
        assert_eq!(w.clamped_high, 1);
        let mut out = Vec::new();
        w.advance(29, &mut out);
        assert!(out.is_empty(), "not yet: clamped to slot 3");
        w.advance(30, &mut out);
        assert_eq!(out.len(), 1, "released at the clamped slot, early");
    }

    #[test]
    fn wraps_around_many_revolutions() {
        let mut w = TimingWheel::new(4, 1, 0);
        let mut out = Vec::new();
        for round in 0..100u64 {
            w.schedule(round, round);
            w.advance(round, &mut out);
        }
        assert_eq!(out.len(), 100);
        assert!(
            out.windows(2).all(|p| p[0].0 <= p[1].0),
            "time-ordered release"
        );
        assert!(w.is_empty());
    }

    #[test]
    fn empty_wheel_jump_does_not_scan_every_slot() {
        // Behavioural check of the fast-forward: advancing an empty wheel by
        // a huge time distance must still terminate promptly and keep
        // scheduling correct afterwards.
        let mut w: TimingWheel<u32> = TimingWheel::new(1_000, 1, 0);
        let mut out = Vec::new();
        w.advance(10_000_000_000, &mut out);
        assert!(out.is_empty());
        w.schedule(10_000_000_005, 7);
        w.advance(10_000_000_005, &mut out);
        assert_eq!(out, vec![(10_000_000_005, 7)]);
    }
}
