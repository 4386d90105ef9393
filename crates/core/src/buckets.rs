//! Pre-allocated FIFO bucket storage shared by all bucketed queues.
//!
//! Paper §2: "bucketed integer priority queues achieve CPU efficiency at the
//! expense of maintaining elements unsorted within a single bucket and
//! pre-allocation of memory for all buckets". Each bucket is a FIFO;
//! elements keep their exact rank alongside the payload so a dequeue can
//! report it, but ordering *within* a bucket is insertion order — "packets
//! within a single bucket effectively have equivalent rank".
//!
//! # Layout
//!
//! Buckets are intrusive singly-linked FIFOs over one shared node slab,
//! not per-bucket `VecDeque`s. The distinction matters at scale: a packet
//! scheduler configures many buckets (pFabric ports here use 4 096) but
//! holds few packets per queue, so per-bucket headers must be tiny and
//! element storage must be proportional to *occupancy*, not bucket count.
//! One bucket costs 8 bytes (head+tail indices in one array entry); nodes
//! live in a slab recycled through a free list, so steady-state churn
//! allocates nothing and keeps touching the same hot lines. The previous
//! `Vec<VecDeque>` layout cost 32 bytes per empty bucket plus one buffer
//! allocation per touched bucket — 128 KB per pFabric port before a single
//! packet arrived, and two cold cache lines per enqueue.

/// Sentinel index terminating bucket lists and the free list.
const NIL: u32 = u32::MAX;

/// Head and tail of one bucket's FIFO, packed so both land on one line.
#[derive(Debug, Clone, Copy)]
struct BucketList {
    head: u32,
    tail: u32,
}

#[derive(Debug, Clone)]
struct Node<T> {
    rank: u64,
    next: u32,
    /// `None` only while the node sits on the free list.
    item: Option<T>,
}

/// A fixed array of FIFO buckets holding `(rank, item)` pairs.
#[derive(Debug, Clone)]
pub struct Buckets<T> {
    lists: Vec<BucketList>,
    nodes: Vec<Node<T>>,
    free: u32,
    len: usize,
}

impl<T> Buckets<T> {
    /// Allocates `n` empty buckets.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one bucket");
        assert!(
            n < NIL as usize,
            "bucket index space is u32 with a sentinel"
        );
        Buckets {
            lists: vec![
                BucketList {
                    head: NIL,
                    tail: NIL
                };
                n
            ],
            nodes: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.lists.len()
    }

    /// Total number of stored elements across all buckets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an element to bucket `i`'s FIFO.
    pub fn push(&mut self, i: usize, rank: u64, item: T) {
        let idx = if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.rank = rank;
            node.next = NIL;
            node.item = Some(item);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx < NIL, "slab index space is u32 with a sentinel");
            self.nodes.push(Node {
                rank,
                next: NIL,
                item: Some(item),
            });
            idx
        };
        let list = &mut self.lists[i];
        if list.tail == NIL {
            list.head = idx;
        } else {
            self.nodes[list.tail as usize].next = idx;
        }
        list.tail = idx;
        self.len += 1;
    }

    /// Pops the oldest element of bucket `i`, if any.
    pub fn pop(&mut self, i: usize) -> Option<(u64, T)> {
        let list = &mut self.lists[i];
        let idx = list.head;
        if idx == NIL {
            return None;
        }
        let node = &mut self.nodes[idx as usize];
        let rank = node.rank;
        let item = node.item.take().expect("listed node holds an item");
        list.head = node.next;
        if list.head == NIL {
            list.tail = NIL;
        }
        node.next = self.free;
        self.free = idx;
        self.len -= 1;
        Some((rank, item))
    }

    /// Rank of the oldest element of bucket `i`, if any.
    pub fn front_rank(&self, i: usize) -> Option<u64> {
        let idx = self.lists[i].head;
        if idx == NIL {
            None
        } else {
            Some(self.nodes[idx as usize].rank)
        }
    }

    /// Whether bucket `i` holds no elements.
    pub fn bucket_is_empty(&self, i: usize) -> bool {
        self.lists[i].head == NIL
    }

    /// Nodes ever allocated in the slab (live + free-listed). Bounded by
    /// *peak* occupancy — steady-state churn recycles instead of growing —
    /// which the churn property tests pin. Diagnostics only.
    pub fn slab_len(&self) -> usize {
        self.nodes.len()
    }

    /// Length of the free list (walks it; diagnostics only). Every slab
    /// node is either live in some bucket or on the free list, so this
    /// must always equal `slab_len() − len()` — the churn property tests
    /// assert that identity to catch leaked or double-freed nodes.
    pub fn free_list_len(&self) -> usize {
        let mut n = 0;
        let mut idx = self.free;
        while idx != NIL {
            n += 1;
            assert!(
                n <= self.nodes.len(),
                "free list longer than the slab: a node was freed twice"
            );
            idx = self.nodes[idx as usize].next;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_bucket() {
        let mut b: Buckets<char> = Buckets::new(4);
        b.push(2, 20, 'a');
        b.push(2, 21, 'b');
        b.push(2, 20, 'c');
        assert_eq!(b.len(), 3);
        assert_eq!(b.front_rank(2), Some(20));
        assert_eq!(b.pop(2), Some((20, 'a')));
        assert_eq!(b.pop(2), Some((21, 'b')));
        assert_eq!(b.pop(2), Some((20, 'c')));
        assert_eq!(b.pop(2), None);
        assert!(b.is_empty());
    }

    /// The slab recycles freed nodes: heavy churn must not grow storage
    /// beyond peak occupancy.
    #[test]
    fn free_list_bounds_slab_growth() {
        let mut b: Buckets<u64> = Buckets::new(64);
        for round in 0..1_000u64 {
            for k in 0..8 {
                b.push((round as usize + k) % 64, round, round);
            }
            for k in 0..8 {
                b.pop((round as usize + k) % 64).unwrap();
            }
        }
        assert!(b.is_empty());
        assert!(
            b.nodes.len() <= 8,
            "slab grew to {} nodes for peak occupancy 8",
            b.nodes.len()
        );
    }

    /// Interleaved pushes across buckets through the shared slab keep
    /// per-bucket FIFO order.
    #[test]
    fn interleaving_across_buckets_keeps_order() {
        let mut b: Buckets<u32> = Buckets::new(3);
        for v in 0..30u32 {
            b.push((v % 3) as usize, v as u64, v);
        }
        for bucket in 0..3usize {
            let mut expect = bucket as u32;
            while let Some((r, v)) = b.pop(bucket) {
                assert_eq!(v, expect);
                assert_eq!(r, expect as u64);
                expect += 3;
            }
        }
        assert!(b.is_empty());
    }
}
