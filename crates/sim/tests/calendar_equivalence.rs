//! Property suite: the FFS event calendar pops in exactly
//! `(time, class, insertion seq)` order at every slot width.
//!
//! The reference is the obvious structure — a `BinaryHeap` of
//! `Reverse((time, class, seq))` — and the calendar is driven through
//! `schedule_class` at slot widths of 1 ns, 2¹⁰ ns and 2¹⁴ ns. Scripts mix
//! bursts of cross-class ties at one instant (scheduled at `now` too, below
//! classes still pending there), deltas inside a slot, across the wheel and
//! far past its horizon (the overflow level), and runs of pops long enough
//! to empty the wheel so the cursor must jump to the overflow. Every pop,
//! peek and length must agree. Debug builds also run the calendar's own
//! invariant checks on every pop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use eiffel_sim::{BucketedEventQueue, EventScheduler, Nanos};

#[derive(Debug, Clone)]
enum Op {
    /// `count` events `delta` ns after now, classes drawn from `classes`
    /// (one class per event, cycling).
    Burst {
        delta: Nanos,
        count: usize,
        classes: (u8, u8, u8),
    },
    /// Pop `n` events (or until empty).
    Pop(usize),
    /// Compare `peek_time` and `len`.
    Peek,
}

/// Deltas across every regime of the widths under test: ties at now,
/// sub-slot, in-wheel, horizon-straddling and far future (the 64-slot
/// wheels below span 64 ns, 65 µs and 1 ms).
fn delta() -> impl Strategy<Value = Nanos> {
    prop_oneof![
        3 => Just(0u64),
        3 => 1u64..64,
        3 => 64u64..20_000,
        2 => 20_000u64..2_000_000,
        1 => 2_000_000u64..50_000_000,
    ]
}

fn ops(n: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            6 => (delta(), 1usize..6, (0u8..3, 0u8..3, 0u8..3)).prop_map(
                |(delta, count, classes)| Op::Burst { delta, count, classes }
            ),
            4 => (1usize..4).prop_map(Op::Pop),
            1 => (20usize..200).prop_map(Op::Pop),
            1 => Just(Op::Peek),
        ],
        1..n,
    )
}

/// The reference: `(time, class, seq)` order, payload carried along.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(Nanos, u8, u64, u64)>>,
    seq: u64,
    now: Nanos,
}

impl Reference {
    fn schedule(&mut self, at: Nanos, class: u8, id: u64) {
        self.heap.push(Reverse((at, class, self.seq, id)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Nanos, u64)> {
        let Reverse((at, _, _, id)) = self.heap.pop()?;
        self.now = at;
        Some((at, id))
    }
}

fn check(script: &[Op], slot_shift: u32, slots: usize) {
    let mut cal: BucketedEventQueue<u64> = BucketedEventQueue::with_slot_shift(slot_shift, slots);
    let mut reference = Reference::default();
    let mut id = 0u64;
    for op in script {
        match *op {
            Op::Burst {
                delta,
                count,
                classes,
            } => {
                let at = reference.now + delta;
                for i in 0..count {
                    let class = [classes.0, classes.1, classes.2][i % 3];
                    reference.schedule(at, class, id);
                    cal.schedule_class(at, class, id);
                    id += 1;
                }
            }
            Op::Pop(n) => {
                for _ in 0..n {
                    let want = reference.pop();
                    assert_eq!(cal.pop(), want, "pop diverged (shift {slot_shift})");
                    assert_eq!(cal.now(), reference.now, "clocks diverged");
                    if want.is_none() {
                        break;
                    }
                }
            }
            Op::Peek => {
                let want = reference.heap.peek().map(|Reverse(k)| k.0);
                assert_eq!(cal.peek_time(), want, "peek diverged (shift {slot_shift})");
                assert_eq!(cal.len(), reference.heap.len());
            }
        }
    }
    loop {
        let want = reference.pop();
        assert_eq!(cal.pop(), want, "drain diverged (shift {slot_shift})");
        if want.is_none() {
            break;
        }
    }
    assert!(cal.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 1 ns slots: bags kept in key order, no front heap.
    #[test]
    fn one_ns_slots_match_the_reference(script in ops(300)) {
        check(&script, 0, 64);
    }

    /// 1 µs slots: the front heap sorts each slot; the far deltas overflow.
    #[test]
    fn microsecond_slots_match_the_reference(script in ops(300)) {
        check(&script, 10, 64);
    }

    /// The virtual-clock driver's width on overload runs (16 µs slots).
    #[test]
    fn driver_width_slots_match_the_reference(script in ops(300)) {
        check(&script, 14, 64);
    }

    /// A wheel wide enough that the far deltas mostly stay in it.
    #[test]
    fn wide_wheel_matches_the_reference(script in ops(300)) {
        check(&script, 10, 4_096);
    }
}
