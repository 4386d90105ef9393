//! Per-core statistics counters aggregated without locks.
//!
//! The threaded host runtime keeps its live statistics the way scalable
//! data planes do (the "counter flavors" pattern): each shard thread owns a
//! block of plain `u64` counters that only it ever writes, stored as
//! cache-line-padded atomics so a reader thread can aggregate a consistent
//! *per-counter* view at any time with plain `Relaxed` loads — no locks, no
//! read-modify-write traffic on the writer's fast path, no false sharing
//! between shards. The aggregate is not a snapshot across counters (reads
//! of different counters may interleave with writes), which is exactly the
//! usual contract of networking stats; exact totals come from joining the
//! shard at shutdown.

use std::sync::atomic::{AtomicU64, Ordering};

/// Pads (and aligns) a value to 128 bytes so adjacent values never share a
/// cache line — 128 rather than 64 to also defeat adjacent-line prefetcher
/// pairing on x86.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// The padded value.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// Mutable access (single-owner contexts).
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.value
    }

    /// Unwraps the value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

/// A block of `N` single-writer counters, readable by any thread.
///
/// The owning (writer) thread uses [`CounterBlock::add`] / [`set`]
/// (plain load + store — it is the only writer, so no `fetch_add` is
/// needed); reader threads use [`read`].
///
/// [`set`]: CounterBlock::set
/// [`read`]: CounterBlock::read
#[derive(Debug)]
pub struct CounterBlock<const N: usize> {
    slots: [CachePadded<AtomicU64>; N],
}

impl<const N: usize> CounterBlock<N> {
    /// A block of `N` zeroed counters.
    pub fn new() -> Self {
        CounterBlock {
            slots: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
        }
    }

    /// Writer-only: adds `delta` to counter `i`. Implemented as load+store,
    /// which is correct only because a counter has exactly one writer.
    pub fn add(&self, i: usize, delta: u64) {
        let slot = self.slots[i].get();
        let v = slot.load(Ordering::Relaxed);
        slot.store(v.wrapping_add(delta), Ordering::Relaxed);
    }

    /// Writer-only: sets counter `i` to `v`.
    pub fn set(&self, i: usize, v: u64) {
        self.slots[i].get().store(v, Ordering::Relaxed);
    }

    /// Reads counter `i` (any thread; monotone w.r.t. the writer's updates).
    pub fn read(&self, i: usize) -> u64 {
        self.slots[i].get().load(Ordering::Relaxed)
    }
}

impl<const N: usize> Default for CounterBlock<N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_set_read_snapshot() {
        let c: CounterBlock<3> = CounterBlock::new();
        c.add(0, 5);
        c.add(0, 7);
        c.set(1, 100);
        assert_eq!(c.read(0), 12);
        assert_eq!(c.read(1), 100);
        assert_eq!(c.read(2), 0);
        let all: [u64; 3] = std::array::from_fn(|i| c.read(i));
        assert_eq!(all, [12, 100, 0]);
    }

    #[test]
    fn cache_padding_separates_slots() {
        assert!(std::mem::align_of::<CachePadded<AtomicU64>>() >= 128);
        let c: CounterBlock<2> = CounterBlock::new();
        let a = c.slots[0].get() as *const _ as usize;
        let b = c.slots[1].get() as *const _ as usize;
        assert!(b.abs_diff(a) >= 128, "slots share a cache line pair");
    }

    #[test]
    fn readable_while_another_thread_writes() {
        let c: CounterBlock<1> = CounterBlock::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..10_000 {
                    c.add(0, 1);
                }
            });
            let mut last = 0;
            for _ in 0..100 {
                let now = c.read(0);
                assert!(now >= last, "single-writer counters are monotone");
                last = now;
            }
        });
        assert_eq!(c.read(0), 10_000);
    }
}
