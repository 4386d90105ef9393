//! FFS-bucketed event calendar — Eiffel's own machinery driving the
//! simulators' event loops.
//!
//! [`EventQueue`](crate::EventQueue) is the comparison-based priority queue
//! the paper's bucketed-FFS design (§3.1) exists to beat: every event pays
//! `O(log n)` sift costs twice, and at 100 000 pending events most of them
//! are cache misses. [`BucketedEventQueue`] replaces it with the paper's own
//! structure, one type for every event loop in the workspace (`dcsim`'s
//! fabric and `eiffel_qdisc`'s virtual-clock driver):
//!
//! * a rotating wheel of **slots** `2^k` ns wide, each an unsorted bag
//!   (an intrusive singly-linked list over one shared node slab), whose
//!   occupancy is an [`eiffel_core::HierBitmap`] — one FFS word-descent
//!   finds the next non-empty slot;
//! * a small sorted **front** holding only the current slot's events — so
//!   the comparison work is over the handful of events that share a slot,
//!   not over everything pending;
//! * an **overflow** level — a min-heap on the full key — for events beyond
//!   the wheel's horizon (`slots × 2^k` ns), which migrate into the wheel
//!   as the horizon reaches them.
//!
//! # Order contract
//!
//! Events pop in exactly `(time, class, insertion seq)` order. The class is
//! a small integer the caller picks per event
//! ([`schedule_class`](BucketedEventQueue::schedule_class)); through the
//! [`EventScheduler`] trait every event is class 0, so the order is
//! `(time, insertion order)` — the same as the binary heap's. It holds
//! structurally:
//!
//! * Every pending event whose slot lies in `[cursor, cursor + slots)` is
//!   in the wheel, and every other one is in the overflow heap. The
//!   overflow is migrated on every advance of the cursor (the slot of the
//!   last popped event), so the invariant survives pops; schedules route by
//!   it directly.
//! * **A bag is in insertion order.** Events reach a slot's bag either by
//!   migration, in key order, at the one cursor advance that brings the
//!   slot inside the horizon, or by direct scheduling after that advance —
//!   later, with larger sequence numbers. So among bag events with equal
//!   `(time, class)`, bag order is sequence order, and a bag node stores
//!   only the slab link, a 32-bit key (its offset inside the slot and its
//!   class) and the payload — for an 8-byte-aligned payload, no more than
//!   a bare link and payload.
//! * The cursor slot's events sit in the front, sorted *stably* by
//!   `(offset, class)` — which, by the previous point, is
//!   `(time, class, seq)`. Every bag holds a strictly later slot, and the
//!   overflow a later one still, so the front's head is the global minimum.
//!   When the front empties, the next occupied slot is loaded into it.
//! * At 1 ns a slot is a single instant, so its order is `(class, seq)`
//!   alone. Bags are then kept in that order on insertion — an append,
//!   except for an event of a lower class than the bag's tail, which walks
//!   the (short) list — and popped straight from their heads; the front is
//!   never used. That keeps `dcsim`'s 1 ns, single-class loop free of any
//!   sorting.
//!
//! The property suites (`crates/sim/tests/scheduler_equivalence.rs` against
//! the binary heap, `crates/sim/tests/calendar_equivalence.rs` against a
//! `(time, class, seq)` reference heap at several slot widths) drive both
//! sides with identical random schedules — same-instant and cross-class
//! ties, far-future overflow, jumps over an empty wheel, interleaved pops —
//! and assert identical pop sequences.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use eiffel_core::HierBitmap;

use crate::time::Nanos;

/// A deterministic discrete-event scheduler: events fire in
/// `(time, insertion order)` order.
///
/// Implemented by the [`EventQueue`](crate::EventQueue) binary heap (the
/// baseline) and by [`BucketedEventQueue`] (the FFS-bucketed calendar), so
/// harnesses can run on either backend and be compared.
pub trait EventScheduler<E> {
    /// Current virtual time: the timestamp of the last popped event.
    fn now(&self) -> Nanos;

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current virtual time.
    fn schedule(&mut self, at: Nanos, event: E);

    /// Pops the next event, advancing virtual time to its timestamp.
    fn pop(&mut self) -> Option<(Nanos, E)>;

    /// Timestamp of the next event without popping it.
    fn peek_time(&self) -> Option<Nanos>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Low bits of an overflow entry's tie word that hold its insertion
/// sequence; the class sits above them, so `(time, tie)` compares as
/// `(time, class, seq)`.
const SEQ_BITS: u32 = 56;

/// Low bits of a bag node's key that hold its class; the event's offset
/// inside its slot sits above them.
const CLASS_BITS: u32 = 8;

/// Widest slot whose offsets fit a node key beside the class: 2²⁴ ns
/// (≈ 16.8 ms per slot, a 1 100 s horizon at the default slot count).
pub const MAX_SLOT_SHIFT: u32 = u32::BITS - CLASS_BITS;

/// An overflow entry: explicit `(time, class << 56 | seq)` key. Ordered
/// *reversed*, so the `BinaryHeap` of them is a min-heap.
struct Far<E> {
    at: Nanos,
    tie: u64,
    event: E,
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.tie) == (other.at, other.tie)
    }
}

impl<E> Eq for Far<E> {}

impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.tie).cmp(&(self.at, self.tie))
    }
}

/// Default wheel span: 2¹⁶ slots. At 1 ns that is ≈ 65.5 µs of horizon —
/// serialization times, propagation delays, fabric RTTs and pFabric RTOs;
/// millisecond-scale timers (DCTCP RTOs, pre-generated arrival processes)
/// take the overflow level.
pub const DEFAULT_WHEEL_SLOTS: usize = 1 << 16;

// The slot storage mirrors `eiffel_core::buckets::Buckets`' slab-FIFO
// layout. Kept separate rather than generalized so each stays exactly as
// wide as its payload; change them in tandem.

/// Sentinel index terminating slot lists and the free list.
const NIL: u32 = u32::MAX;

/// Head and tail of one slot's bag, packed so both land on one line.
#[derive(Debug, Clone, Copy)]
struct SlotList {
    head: u32,
    tail: u32,
}

struct WheelNode<E> {
    next: u32,
    /// `offset << CLASS_BITS | class`; the sequence is the bag position.
    key: u32,
    /// `None` only while the node sits on the free list.
    event: Option<E>,
}

/// FFS-bucketed discrete-event calendar: a rotating wheel of `2^k`-ns slots
/// over a hierarchical-FFS occupancy bitmap, a sorted front for the current
/// slot, and a min-heap overflow level for events beyond the horizon.
///
/// Slot bags are intrusive singly-linked lists over one shared node slab
/// (8 bytes per slot, nodes recycled through a free list), so the wheel's
/// footprint is slots × 8 B plus memory proportional to the number of
/// *pending* events — not per-slot buffers.
///
/// Pop order is exactly `(time, class, insertion seq)` — see the
/// [module docs](self) for the contract and why it holds.
pub struct BucketedEventQueue<E> {
    /// One bag per slot.
    slots: Vec<SlotList>,
    /// Shared node slab behind the bags.
    nodes: Vec<WheelNode<E>>,
    /// Free-list head into `nodes`.
    free: u32,
    /// Occupancy of `slots`, searched by FFS word-descent.
    occupied: HierBitmap,
    /// Slot width is `2^shift` ns.
    shift: u32,
    /// `slots.len() - 1`; slot count is a power of two.
    mask: u64,
    /// The current slot's events (those of `now >> shift`) as
    /// `(node key, event)`, in *reverse* pop order: the next event is the
    /// last. Unused with 1 ns slots, whose bags are kept in pop order.
    front: Vec<(u32, E)>,
    /// Events in bags.
    bagged: usize,
    /// Events whose slot is at least `slots.len()` past the current one.
    overflow: BinaryHeap<Far<E>>,
    /// Cached `overflow.peek().at` (`u64::MAX` when empty), so the per-pop
    /// migration check is a register compare, not a heap access.
    overflow_min: Nanos,
    /// Global insertion sequence.
    seq: u64,
    now: Nanos,
    /// Pending events, counted apart from the three levels that hold them.
    #[cfg(debug_assertions)]
    pending: usize,
    /// The lowest `(time, class)` the next pop may return: the last popped
    /// one, lowered by any event scheduled since.
    #[cfg(debug_assertions)]
    floor: (Nanos, u8),
}

impl<E> Default for BucketedEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

// The schedule path and the 1 ns pop path are `#[inline(always)]`: left to
// the inliner, `dcsim`'s Fig 19 loop ran ~4 % slower on this calendar than
// on the plain 1 ns wheel it generalises; inlined, ~15 % faster. `pop`
// itself stays a hint — forcing it into the caller slowed a hold-model
// loop (the criterion `event_scheduler_hold` workload) by a quarter.
impl<E> BucketedEventQueue<E> {
    /// An empty calendar at time zero with the default span of 1 ns slots.
    pub fn new() -> Self {
        Self::with_slots(DEFAULT_WHEEL_SLOTS)
    }

    /// An empty calendar whose wheel has `slots` slots of 1 ns (rounded up
    /// to a power of two, minimum 64).
    pub fn with_slots(slots: usize) -> Self {
        Self::with_slot_shift(0, slots)
    }

    /// An empty calendar whose wheel has `slots` slots (rounded up to a
    /// power of two, minimum 64) of `2^slot_shift` ns each: a horizon of
    /// `slots << slot_shift` ns.
    ///
    /// # Panics
    /// Panics if `slot_shift` exceeds [`MAX_SLOT_SHIFT`].
    pub fn with_slot_shift(slot_shift: u32, slots: usize) -> Self {
        assert!(
            slot_shift <= MAX_SLOT_SHIFT,
            "slot width 2^{slot_shift} ns is wider than 2^{MAX_SLOT_SHIFT}"
        );
        let n = slots.next_power_of_two().max(64);
        BucketedEventQueue {
            slots: vec![
                SlotList {
                    head: NIL,
                    tail: NIL
                };
                n
            ],
            nodes: Vec::new(),
            free: NIL,
            occupied: HierBitmap::new(n),
            shift: slot_shift,
            mask: n as u64 - 1,
            front: Vec::new(),
            bagged: 0,
            overflow: BinaryHeap::new(),
            overflow_min: u64::MAX,
            seq: 0,
            now: 0,
            #[cfg(debug_assertions)]
            pending: 0,
            #[cfg(debug_assertions)]
            floor: (0, 0),
        }
    }

    /// Width of one slot in nanoseconds.
    fn slot_width(&self) -> Nanos {
        1 << self.shift
    }

    /// Wheel span in nanoseconds: slot count × slot width.
    pub fn horizon(&self) -> Nanos {
        (self.slots.len() as Nanos) << self.shift
    }

    /// Events currently parked at the overflow level (diagnostics).
    #[cfg(test)]
    fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Schedules `event` at absolute time `at` in tie class `class`: among
    /// events at one instant, lower classes pop first, and within a class
    /// insertion order decides.
    ///
    /// # Panics
    /// Panics if `at` is before the current virtual time.
    #[inline(always)]
    pub fn schedule_class(&mut self, at: Nanos, class: u8, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past ({at} < {})",
            self.now
        );
        debug_assert!(self.seq < 1 << SEQ_BITS, "insertion sequence overflow");
        let tie = u64::from(class) << SEQ_BITS | self.seq;
        self.seq += 1;
        #[cfg(debug_assertions)]
        {
            self.pending += 1;
            self.floor = self.floor.min((at, class));
        }
        self.place(at, tie, event);
    }

    /// Files an event at its level: front (current slot), bag (inside the
    /// horizon) or overflow. `tie` is the overflow's `class << 56 | seq`.
    #[inline(always)]
    fn place(&mut self, at: Nanos, tie: u64, event: E) {
        let ahead = (at >> self.shift) - (self.now >> self.shift);
        if ahead > self.mask {
            return self.push_far(Far { at, tie, event });
        }
        let offset = (at & (self.slot_width() - 1)) as u32;
        let key = offset << CLASS_BITS | (tie >> SEQ_BITS) as u32;
        if ahead == 0 && self.shift > 0 {
            self.front_insert(key, event);
        } else {
            self.bag_push(((at >> self.shift) & self.mask) as usize, key, event);
        }
    }

    /// Parks an event beyond the horizon at the overflow level.
    fn push_far(&mut self, far: Far<E>) {
        self.overflow_min = self.overflow_min.min(far.at);
        self.overflow.push(far);
    }

    /// Adds an event to the current slot's sorted front, to pop after
    /// every equal key: those were all scheduled earlier.
    fn front_insert(&mut self, key: u32, event: E) {
        let i = self.front.partition_point(|&(k, _)| k > key);
        self.front.insert(i, (key, event));
    }

    /// Absolute time at which wheel slot `idx` starts, given that every bag
    /// holds a slot in `[cursor, cursor + slots)`.
    #[inline(always)]
    fn slot_start(&self, idx: usize) -> Nanos {
        let cursor = self.now >> self.shift;
        let mut slot = (cursor & !self.mask) + idx as u64;
        if slot < cursor {
            slot += self.mask + 1;
        }
        slot << self.shift
    }

    /// Absolute time of an event in the cursor slot with node key `key`.
    #[inline(always)]
    fn front_time(&self, key: u32) -> Nanos {
        (self.now >> self.shift << self.shift) + Nanos::from(key >> CLASS_BITS)
    }

    /// First occupied bag in wheel order (from the cursor, wrapping).
    #[inline(always)]
    fn first_bag(&self) -> Option<usize> {
        if self.bagged == 0 {
            return None;
        }
        let start = ((self.now >> self.shift) & self.mask) as usize;
        self.occupied
            .first_set_from(start)
            .or_else(|| self.occupied.first_set())
    }

    /// Adds an event to slot `idx`'s bag through the shared slab: appended,
    /// or — at 1 ns, below the tail's class — inserted in key order.
    #[inline(always)]
    fn bag_push(&mut self, idx: usize, key: u32, event: E) {
        let node = if self.free != NIL {
            let node = self.free;
            let n = &mut self.nodes[node as usize];
            self.free = n.next;
            n.next = NIL;
            n.key = key;
            n.event = Some(event);
            node
        } else {
            let node = self.nodes.len() as u32;
            assert!(node < NIL, "slab index space is u32 with a sentinel");
            self.nodes.push(WheelNode {
                next: NIL,
                key,
                event: Some(event),
            });
            node
        };
        self.bagged += 1;
        let list = self.slots[idx];
        if list.tail == NIL {
            self.slots[idx] = SlotList {
                head: node,
                tail: node,
            };
            self.occupied.set(idx);
            return;
        }
        let tail = &mut self.nodes[list.tail as usize];
        if self.shift > 0 || tail.key <= key {
            tail.next = node;
            self.slots[idx].tail = node;
        } else {
            self.bag_insert_in_order(idx, node, key);
        }
    }

    /// Links `node` into 1 ns bag `idx` behind every node of its class or
    /// below: a bag at one instant stays in `(class, seq)` order. The bag's
    /// tail outranks it, so the walk stops before the end.
    #[cold]
    fn bag_insert_in_order(&mut self, idx: usize, node: u32, key: u32) {
        let mut prev = NIL;
        let mut cur = self.slots[idx].head;
        while self.nodes[cur as usize].key <= key {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        self.nodes[node as usize].next = cur;
        if prev == NIL {
            self.slots[idx].head = node;
        } else {
            self.nodes[prev as usize].next = node;
        }
    }

    /// Pops the head of slot `idx`'s bag, maintaining the bitmap.
    #[inline(always)]
    fn bag_pop_head(&mut self, idx: usize) -> (u32, E) {
        let list = &mut self.slots[idx];
        let node = list.head;
        debug_assert_ne!(node, NIL, "bitmap said occupied");
        let n = &mut self.nodes[node as usize];
        let event = n.event.take().expect("listed node holds an event");
        list.head = n.next;
        if list.head == NIL {
            list.tail = NIL;
            self.occupied.clear(idx);
        }
        n.next = self.free;
        self.free = node;
        self.bagged -= 1;
        (n.key, event)
    }

    /// Moves every overflow event the horizon now covers into the wheel.
    /// Called after every advance of the cursor, so the overflow only ever
    /// holds events at least a whole horizon ahead (see the module docs).
    fn migrate_overflow(&mut self) {
        let end = (self.now >> self.shift)
            .saturating_add(self.mask + 1)
            .saturating_mul(self.slot_width());
        while self.overflow_min < end {
            let far = self.overflow.pop().expect("cached min says non-empty");
            self.overflow_min = self.overflow.peek().map_or(u64::MAX, |f| f.at);
            self.place(far.at, far.tie, far.event);
        }
    }

    /// Moves the cursor to the earliest overflow event when the wheel is
    /// empty, and pulls everything the new horizon covers in. `None` when
    /// nothing is pending at all.
    fn jump(&mut self) -> Option<()> {
        if self.overflow.is_empty() {
            return None;
        }
        self.now = self.overflow_min;
        self.migrate_overflow();
        Some(())
    }

    /// Next event with 1 ns slots: the head of the first occupied bag.
    #[inline(always)]
    fn pop_exact(&mut self) -> Option<(Nanos, u32, E)> {
        let idx = match self.first_bag() {
            Some(idx) => idx,
            None => {
                self.jump()?;
                self.first_bag().expect("migration filled the wheel")
            }
        };
        let at = self.slot_start(idx);
        let (key, event) = self.bag_pop_head(idx);
        if at > self.now {
            self.now = at;
            if self.overflow_min < at.saturating_add(self.horizon()) {
                self.migrate_overflow();
            }
        }
        Some((at, key, event))
    }

    /// Next event with coarse slots: the front's head, after loading the
    /// next occupied slot into the front if it ran dry.
    fn pop_coarse(&mut self) -> Option<(Nanos, u32, E)> {
        if self.front.is_empty() {
            match self.first_bag() {
                Some(idx) => {
                    self.now = self.slot_start(idx);
                    while self.slots[idx].head != NIL {
                        let e = self.bag_pop_head(idx);
                        self.front.push(e);
                    }
                    // Stable, so equal keys keep bag (= insertion) order;
                    // then reversed, so the next event is the last.
                    self.front.sort_by_key(|&(k, _)| k);
                    self.front.reverse();
                    self.migrate_overflow();
                }
                None => self.jump()?,
            }
        }
        let (key, event) = self.front.pop()?;
        Some((self.front_time(key), key, event))
    }

    /// Debug-build checks after every pop: the three levels account for
    /// every pending event, and the popped `(time, class)` respects the
    /// floor.
    #[cfg(debug_assertions)]
    fn check_pop(&mut self, at: Nanos, key: u32) {
        self.pending -= 1;
        debug_assert_eq!(
            self.pending,
            self.front.len() + self.bagged + self.overflow.len(),
            "pending events must equal front + bags + overflow"
        );
        debug_assert_eq!(self.bagged == 0, self.occupied.count_ones() == 0);
        let popped = (at, key as u8);
        debug_assert!(
            popped >= self.floor,
            "popped {popped:?} below the floor {:?}",
            self.floor
        );
        self.floor = popped;
    }
}

impl<E> EventScheduler<E> for BucketedEventQueue<E> {
    fn now(&self) -> Nanos {
        self.now
    }

    #[inline(always)]
    fn schedule(&mut self, at: Nanos, event: E) {
        self.schedule_class(at, 0, event);
    }

    #[inline]
    fn pop(&mut self) -> Option<(Nanos, E)> {
        let (at, _key, event) = if self.shift == 0 {
            self.pop_exact()?
        } else {
            self.pop_coarse()?
        };
        self.now = at;
        #[cfg(debug_assertions)]
        self.check_pop(at, _key);
        Some((at, event))
    }

    fn peek_time(&self) -> Option<Nanos> {
        if let Some(&(key, _)) = self.front.last() {
            return Some(self.front_time(key));
        }
        match self.first_bag() {
            Some(idx) => {
                let mut offset = u32::MAX;
                let mut node = self.slots[idx].head;
                while node != NIL {
                    let n = &self.nodes[node as usize];
                    offset = offset.min(n.key >> CLASS_BITS);
                    node = n.next;
                }
                Some(self.slot_start(idx) + Nanos::from(offset))
            }
            None if self.overflow.is_empty() => None,
            None => Some(self.overflow_min),
        }
    }

    fn len(&self) -> usize {
        self.front.len() + self.bagged + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_then_fifo_order() {
        let mut q: BucketedEventQueue<&str> = BucketedEventQueue::with_slots(64);
        q.schedule(10, "b");
        q.schedule(5, "a");
        q.schedule(10, "c");
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.now(), 5);
        assert_eq!(q.pop(), Some((10, "b")));
        assert_eq!(q.pop(), Some((10, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = BucketedEventQueue::with_slots(64);
        q.schedule(7, 1);
        q.pop();
        q.schedule(7, 2); // same instant as `now`: fine (fires next)
        assert_eq!(q.pop(), Some((7, 2)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = BucketedEventQueue::with_slots(64);
        q.schedule(10, ());
        q.pop();
        q.schedule(9, ());
    }

    #[test]
    fn far_future_events_take_the_overflow_level() {
        let mut q = BucketedEventQueue::with_slots(64);
        q.schedule(1_000_000, "rto"); // far beyond the 64 ns horizon
        q.schedule(3, "soon");
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop(), Some((3, "soon")));
        assert_eq!(q.peek_time(), Some(1_000_000));
        assert_eq!(q.pop(), Some((1_000_000, "rto")));
        assert_eq!(q.now(), 1_000_000);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_ties_keep_insertion_order_through_migration() {
        let mut q = BucketedEventQueue::with_slots(64);
        // Both far future, same instant: must pop in insertion order.
        q.schedule(500, 1);
        q.schedule(500, 2);
        // This one is near and fires first, advancing the horizon past 500.
        q.schedule(1, 0);
        assert_eq!(q.pop(), Some((1, 0)));
        // After the horizon advance, a direct insertion at 500 must still
        // land *behind* the migrated pair.
        q.schedule(500, 3);
        assert_eq!(q.pop(), Some((500, 1)));
        assert_eq!(q.pop(), Some((500, 2)));
        assert_eq!(q.pop(), Some((500, 3)));
    }

    #[test]
    fn wheel_wraps_many_revolutions() {
        let mut q = BucketedEventQueue::with_slots(64);
        let mut expect = Vec::new();
        for i in 0..1_000u64 {
            q.schedule(i * 7, i);
            expect.push((i * 7, i));
            if i % 3 == 0 {
                let got = q.pop().unwrap();
                assert_eq!(got, expect.remove(0));
            }
        }
        while let Some(got) = q.pop() {
            assert_eq!(got, expect.remove(0));
        }
        assert!(expect.is_empty());
    }

    #[test]
    fn len_counts_both_levels() {
        let mut q = BucketedEventQueue::with_slots(64);
        q.schedule(1, ());
        q.schedule(2, ());
        q.schedule(1_000_000, ());
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn lower_classes_pop_first_at_one_instant() {
        for shift in [0, 10] {
            let mut q = BucketedEventQueue::with_slot_shift(shift, 64);
            q.schedule_class(40, 2, "source");
            q.schedule_class(40, 1, "timer");
            q.schedule_class(40, 0, "resume");
            q.schedule_class(40, 1, "timer 2");
            q.schedule_class(41, 0, "later");
            assert_eq!(q.pop(), Some((40, "resume")), "shift {shift}");
            // Scheduled at `now`, below the class still pending there.
            q.schedule_class(40, 0, "resume 2");
            let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(
                rest,
                [
                    (40, "resume 2"),
                    (40, "timer"),
                    (40, "timer 2"),
                    (40, "source"),
                    (41, "later")
                ],
                "shift {shift}"
            );
        }
    }

    #[test]
    fn coarse_slots_sort_within_a_slot() {
        // 1 µs slots: events in one slot pop by time, not by arrival.
        let mut q = BucketedEventQueue::with_slot_shift(10, 64);
        assert_eq!(q.horizon(), 65_536);
        for (at, id) in [(2_000, 0), (1_500, 1), (1_800, 2), (1_500, 3), (900, 4)] {
            q.schedule(at, id);
        }
        assert_eq!(q.peek_time(), Some(900));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [(900, 4), (1_500, 1), (1_500, 3), (1_800, 2), (2_000, 0)]
        );
    }
}
