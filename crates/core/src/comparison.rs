//! Comparison-based baselines — the O(log n) queues the paper displaces.
//!
//! §2: "inefficiencies remain because of the typical reliance on generic
//! default priority queues in modern libraries (e.g., RB-trees in kernel and
//! Binary Heaps in C++)". These two types stand in for exactly those:
//! [`HeapPq`] for C++'s `std::priority_queue` (the hClock and pFabric
//! baselines of §5.1.2/§5.1.3) and [`TreePq`] for the kernel RB-tree (the
//! FQ/pacing qdisc of §5.1.1 — Rust's `BTreeMap` is the idiomatic balanced
//! ordered tree, with identical O(log n) asymptotics).
//!
//! Both preserve FIFO order among equal ranks, matching the bucketed queues'
//! tie behaviour so dequeue orders are comparable in tests.

use std::cmp::Ordering;
use std::collections::btree_map::{Entry, OccupiedEntry};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use crate::traits::{EnqueueError, RankedQueue};

/// Heap entry ordered by `(rank, seq)` ascending — the payload does not
/// participate in comparisons. `BinaryHeap` is a max-heap, so `Ord` is
/// reversed to pop the minimum first.
#[derive(Debug, Clone)]
struct HeapEntry<T> {
    rank: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.seq == other.seq
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.rank, other.seq).cmp(&(self.rank, self.seq)) // reversed: min-heap
    }
}

/// Binary-heap priority queue storing payloads inline — the C++
/// `std::priority_queue` stand-in.
#[derive(Debug, Clone)]
pub struct HeapPq<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    seq: u64,
}

impl<T> HeapPq<T> {
    /// Creates an empty heap queue.
    pub fn new() -> Self {
        HeapPq {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> Default for HeapPq<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RankedQueue<T> for HeapPq<T> {
    fn enqueue(&mut self, rank: u64, item: T) -> Result<(), EnqueueError<T>> {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { rank, seq, item });
        Ok(())
    }

    fn dequeue_min(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.rank, e.item))
    }

    fn peek_min_rank(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.rank)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The elements of one rank, oldest first. A rank held by one element —
/// the common case once ranks are deadlines or finish tags — lives inline
/// in the tree; only a rank that is actually shared pays for a FIFO.
#[derive(Debug, Clone)]
enum RankSlot<T> {
    One(T),
    Many(VecDeque<T>),
}

impl<T> RankSlot<T> {
    fn push(&mut self, item: T) {
        // The placeholder is never observed and does not allocate.
        *self = match std::mem::replace(self, RankSlot::Many(VecDeque::new())) {
            RankSlot::One(first) => {
                let mut fifo = VecDeque::with_capacity(4);
                fifo.extend([first, item]);
                RankSlot::Many(fifo)
            }
            RankSlot::Many(mut fifo) => {
                fifo.push_back(item);
                RankSlot::Many(fifo)
            }
        };
    }
}

/// Balanced-tree priority queue: `BTreeMap` from rank to the rank's
/// elements in arrival order (the kernel-RB-tree stand-in).
#[derive(Debug, Clone)]
pub struct TreePq<T> {
    tree: BTreeMap<u64, RankSlot<T>>,
    len: usize,
}

impl<T> TreePq<T> {
    /// Creates an empty tree queue.
    pub fn new() -> Self {
        TreePq {
            tree: BTreeMap::new(),
            len: 0,
        }
    }

    /// Takes one element of the rank at `slot`, the oldest or (`!oldest`)
    /// the youngest; the entry goes with the rank's last element.
    fn take(mut slot: OccupiedEntry<'_, u64, RankSlot<T>>, oldest: bool) -> (u64, T) {
        let rank = *slot.key();
        let item = match slot.get_mut() {
            RankSlot::Many(fifo) if fifo.len() > 1 => {
                if oldest {
                    fifo.pop_front()
                } else {
                    fifo.pop_back()
                }
            }
            _ => match slot.remove() {
                RankSlot::One(item) => Some(item),
                RankSlot::Many(mut fifo) => fifo.pop_front(),
            },
        };
        (
            rank,
            item.expect("a rank's entry is removed with its last element"),
        )
    }
}

impl<T> Default for TreePq<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RankedQueue<T> for TreePq<T> {
    fn enqueue(&mut self, rank: u64, item: T) -> Result<(), EnqueueError<T>> {
        match self.tree.entry(rank) {
            Entry::Vacant(slot) => {
                slot.insert(RankSlot::One(item));
            }
            Entry::Occupied(mut slot) => slot.get_mut().push(item),
        }
        self.len += 1;
        Ok(())
    }

    fn dequeue_min(&mut self) -> Option<(u64, T)> {
        let slot = self.tree.first_entry()?;
        self.len -= 1;
        Some(Self::take(slot, true))
    }

    fn dequeue_max(&mut self) -> Option<(u64, T)> {
        // Youngest within the max rank: the worst-ranked element that has
        // waited least is the one overload sheds first.
        let slot = self.tree.last_entry()?;
        self.len -= 1;
        Some(Self::take(slot, false))
    }

    fn peek_min_rank(&self) -> Option<u64> {
        self.tree.keys().next().copied()
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(q: &mut impl RankedQueue<u32>) {
        q.enqueue(9, 1).unwrap();
        q.enqueue(1, 2).unwrap();
        q.enqueue(9, 3).unwrap();
        q.enqueue(u64::MAX, 4).unwrap();
        q.enqueue(0, 5).unwrap();
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_min_rank(), Some(0));
        assert_eq!(q.dequeue_min(), Some((0, 5)));
        assert_eq!(q.dequeue_min(), Some((1, 2)));
        assert_eq!(q.dequeue_min(), Some((9, 1)), "FIFO within equal rank");
        assert_eq!(q.dequeue_min(), Some((9, 3)));
        assert_eq!(q.dequeue_min(), Some((u64::MAX, 4)));
        assert_eq!(q.dequeue_min(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn heap_pq_basic() {
        exercise(&mut HeapPq::new());
    }

    #[test]
    fn tree_pq_basic() {
        exercise(&mut TreePq::new());
    }

    /// Tie order across the inline-one / FIFO-of-many slot transitions:
    /// oldest first from the min end, youngest first from the max end,
    /// also when a rank drains to one element, empties, and refills.
    #[test]
    fn tree_pq_ties_are_fifo_at_min_and_youngest_first_at_max() {
        let mut q = TreePq::new();
        for (rank, item) in [(5, 'a'), (9, 'b'), (5, 'c'), (9, 'd'), (5, 'e'), (9, 'f')] {
            q.enqueue(rank, item).unwrap();
        }
        assert_eq!(q.dequeue_max(), Some((9, 'f')));
        assert_eq!(q.dequeue_min(), Some((5, 'a')));
        q.enqueue(5, 'g').unwrap();
        q.enqueue(9, 'h').unwrap();
        assert_eq!(q.peek_min_rank(), Some(5));
        assert_eq!(q.dequeue_max(), Some((9, 'h')));
        assert_eq!(q.dequeue_max(), Some((9, 'd')));
        assert_eq!(q.dequeue_min(), Some((5, 'c')));
        assert_eq!(q.dequeue_min(), Some((5, 'e')));
        assert_eq!(q.dequeue_min(), Some((5, 'g')));
        assert_eq!(q.dequeue_min(), Some((9, 'b')));
        assert_eq!(q.len(), 0);
        assert_eq!(q.dequeue_max(), None);
        // A rank that drained and came back still queues behind nothing.
        q.enqueue(5, 'i').unwrap();
        assert_eq!(q.dequeue_min(), Some((5, 'i')));
    }

    #[test]
    fn heap_and_tree_agree_on_random_workload() {
        let mut h = HeapPq::new();
        let mut t = TreePq::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 4 != 0 {
                h.enqueue(x % 256, step).unwrap();
                t.enqueue(x % 256, step).unwrap();
            } else {
                assert_eq!(h.dequeue_min(), t.dequeue_min());
            }
        }
        while !h.is_empty() {
            assert_eq!(h.dequeue_min(), t.dequeue_min());
        }
        assert!(t.is_empty());
    }
}
