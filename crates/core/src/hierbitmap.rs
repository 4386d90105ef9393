//! Hierarchical occupancy bitmap — the meta-data of Figure 3.
//!
//! The leaves carry one bit per bucket. The first summary level is
//! **multi-word**: each level-1 bit covers a *group* of four
//! leaf words (256 buckets), and levels above summarize 64 child words per
//! bit as before. The wider leaf fanout cuts a level off every mid-sized
//! hierarchy — 10k buckets descend in 2 levels instead of 3, 512k in 3
//! instead of 4 — trading the saved data-dependent load for a short
//! *independent* scan of up to four adjacent leaf words, which the CPU
//! overlaps (they sit in two cache lines and have no chain between them).
//! Deep hierarchies keep the paper's `O(log_w N)` shape (a billion buckets:
//! 5 levels).
//!
//! The structure also supports `first_set_from`, the "first non-empty
//! bucket at or after X" query used by shapers and by the circular queue's
//! window logic; it costs at most two traversals.
//!
//! # Layout
//!
//! All levels live in **one** contiguous word array, leaves first, with the
//! start of each level in a small fixed table. The descent loop therefore
//! costs one data-dependent load per level — the previous `Vec<Vec<u64>>`
//! layout paid two (the level's buffer pointer, then the word), doubling
//! the load chain of the hottest loop in the repo (`CffsQueue::dequeue_min`
//! is a descent, and every queue's enqueue/dequeue maintains one of these).
//! The descent itself uses raw `trailing_zeros`/`leading_zeros` on words an
//! ancestor bit already proved non-zero, so the per-level body is
//! branch-free until the final group scan.

use crate::word;

/// Deepest supported hierarchy: 6 levels cover `4 × 64^6 ≈ 2.7×10^11`
/// buckets.
const MAX_DEPTH: usize = 6;

/// Leaf words summarized by one level-1 bit (256 buckets per bit).
const GROUP_WORDS: usize = 4;

/// Hierarchical bitmap over `len` buckets.
///
/// Words are stored leaves-first in one slab; `offs[l]` is the start of
/// level `l`. For `len <= 64` there is exactly one level (the root is the
/// leaf word). Level 1 (when present) holds one bit per group of four
/// leaf words; higher levels hold one bit per child word.
#[derive(Debug, Clone)]
pub struct HierBitmap {
    words: Vec<u64>,
    /// Start of each level inside `words`; only `..depth` are meaningful.
    offs: [u32; MAX_DEPTH],
    /// Index of the root word (`offs[depth-1]`).
    root: u32,
    depth: u32,
    len: usize,
    ones: usize,
}

impl HierBitmap {
    /// Creates an all-empty hierarchical bitmap covering `len` buckets.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "bitmap must cover at least one bucket");
        let words0 = len.div_ceil(word::WORD_BITS);
        let mut offs = [0u32; MAX_DEPTH];
        let mut total = words0;
        let mut depth = 1usize;
        if words0 > 1 {
            // Level 1 summarizes GROUP_WORDS leaf words per bit; levels
            // above summarize one child word per bit.
            let mut bits = words0.div_ceil(GROUP_WORDS);
            loop {
                let words = bits.div_ceil(word::WORD_BITS);
                assert!(depth < MAX_DEPTH, "bitmap deeper than {MAX_DEPTH} levels");
                offs[depth] = total as u32;
                total += words;
                depth += 1;
                if words == 1 {
                    break;
                }
                bits = words;
            }
        }
        HierBitmap {
            words: vec![0u64; total],
            offs,
            root: offs[depth - 1],
            depth: depth as u32,
            len,
            ones: 0,
        }
    }

    /// Number of buckets covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bucket is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words[self.root as usize] == 0
    }

    /// Number of occupied buckets (maintained incrementally).
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Number of levels in the hierarchy (1 for `len ≤ 64`; the wide leaf
    /// fanout makes this `1 + ceil(log64(ceil(len/256)))` above that).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Whether bucket `i` is occupied.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        assert!(i < self.len, "bucket {i} out of range {}", self.len);
        word::test_bit(self.words[i / 64], (i % 64) as u32)
    }

    /// Marks bucket `i` occupied, propagating empty→non-empty transitions up.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bucket {i} out of range {}", self.len);
        'update: {
            if self.test(i) {
                break 'update;
            }
            self.ones += 1;
            let wi = i / 64;
            let transition = word::set_bit(&mut self.words[wi], (i % 64) as u32);
            if !transition {
                break 'update; // leaf word already non-empty: ancestors knew
            }
            // The level-1 bit may already be set by a sibling group word.
            let mut idx = wi / GROUP_WORDS;
            for l in 1..self.depth as usize {
                let w = self.offs[l] as usize + idx / 64;
                let transition = word::set_bit(&mut self.words[w], (idx % 64) as u32);
                if !transition {
                    break; // parent already knew this subtree was non-empty
                }
                idx /= 64;
            }
        }
        debug_assert!(self.path_agrees(i), "summary bits on {i}'s path disagree");
    }

    /// Marks bucket `i` empty, propagating non-empty→empty transitions up.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bucket {i} out of range {}", self.len);
        'update: {
            if !self.test(i) {
                break 'update;
            }
            self.ones -= 1;
            let wi = i / 64;
            let now_empty = word::clear_bit(&mut self.words[wi], (i % 64) as u32);
            if !now_empty || self.depth == 1 {
                break 'update;
            }
            // The level-1 bit clears only when the whole group is empty.
            let g = wi / GROUP_WORDS;
            let start = g * GROUP_WORDS;
            let end = (start + GROUP_WORDS).min(self.level_words(0));
            if self.words[start..end].iter().any(|&w| w != 0) {
                break 'update;
            }
            let mut idx = g;
            for l in 1..self.depth as usize {
                let w = self.offs[l] as usize + idx / 64;
                let now_empty = word::clear_bit(&mut self.words[w], (idx % 64) as u32);
                if !now_empty {
                    break; // subtree still non-empty; parent bit stays set
                }
                idx /= 64;
            }
        }
        debug_assert!(self.path_agrees(i), "summary bits on {i}'s path disagree");
    }

    /// Whether every summary bit on bucket `i`'s path says exactly whether
    /// the words it summarises are non-zero — the invariant every descent
    /// relies on, checked after each `set`/`clear` in debug builds.
    fn path_agrees(&self, i: usize) -> bool {
        let mut child = i / 64; // word index at the level below
        for l in 1..self.depth as usize {
            // Level 1 summarises a group of leaf words per bit, the levels
            // above one child word per bit.
            let (bit, lo, hi) = if l == 1 {
                let g = child / GROUP_WORDS;
                let lo = g * GROUP_WORDS;
                (g, lo, (lo + GROUP_WORDS).min(self.level_words(0)))
            } else {
                (child, child, child + 1)
            };
            let below = self.offs[l - 1] as usize;
            let nonzero = self.words[below + lo..below + hi].iter().any(|&w| w != 0);
            let w = self.words[self.offs[l] as usize + bit / 64];
            if word::test_bit(w, (bit % 64) as u32) != nonzero {
                return false;
            }
            child = bit / 64;
        }
        true
    }

    /// Scans leaf group `g` left-to-right for its lowest set bit. Only
    /// called under a set level-1 bit, so some word is non-zero.
    #[inline]
    fn first_in_group(&self, g: usize) -> usize {
        let start = g * GROUP_WORDS;
        let end = (start + GROUP_WORDS).min(self.level_words(0));
        for wi in start..end {
            let w = self.words[wi];
            if w != 0 {
                return wi * 64 + w.trailing_zeros() as usize;
            }
        }
        unreachable!("level-1 bit set over an empty leaf group")
    }

    /// Scans leaf group `g` right-to-left for its highest set bit.
    #[inline]
    fn last_in_group(&self, g: usize) -> usize {
        let start = g * GROUP_WORDS;
        let end = (start + GROUP_WORDS).min(self.level_words(0));
        for wi in (start..end).rev() {
            let w = self.words[wi];
            if w != 0 {
                return wi * 64 + (63 - w.leading_zeros() as usize);
            }
        }
        unreachable!("level-1 bit set over an empty leaf group")
    }

    /// Lowest occupied bucket: one FFS per level, descending from the root,
    /// then a ≤ 4-word scan of the minimum leaf group.
    #[inline]
    pub fn first_set(&self) -> Option<usize> {
        let root = self.words[self.root as usize];
        if root == 0 {
            return None;
        }
        if self.depth == 1 {
            return Some(root.trailing_zeros() as usize);
        }
        // The root bit proves every word on the descent path is non-zero,
        // so each level is a plain load + trailing_zeros — no branches.
        let mut idx = root.trailing_zeros() as usize;
        for l in (1..self.depth as usize - 1).rev() {
            let w = self.words[self.offs[l] as usize + idx];
            idx = idx * 64 + w.trailing_zeros() as usize;
        }
        Some(self.first_in_group(idx))
    }

    /// Highest occupied bucket.
    #[inline]
    pub fn last_set(&self) -> Option<usize> {
        let root = self.words[self.root as usize];
        if root == 0 {
            return None;
        }
        if self.depth == 1 {
            return Some(63 - root.leading_zeros() as usize);
        }
        let mut idx = 63 - root.leading_zeros() as usize;
        for l in (1..self.depth as usize - 1).rev() {
            let w = self.words[self.offs[l] as usize + idx];
            idx = idx * 64 + (63 - w.leading_zeros() as usize);
        }
        Some(self.last_in_group(idx))
    }

    /// Lowest occupied bucket at or after `from`.
    ///
    /// Three stages: the rest of `from`'s own leaf word, the rest of its
    /// leaf group, then the classic ascend-and-descend over the summary
    /// levels — at most `2·depth` word operations plus one group scan.
    pub fn first_set_from(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let wi = from / 64;
        if let Some(b) = word::lowest_set_from(self.words[wi], (from % 64) as u32) {
            return Some(wi * 64 + b as usize);
        }
        if self.depth == 1 {
            return None;
        }
        let g = wi / GROUP_WORDS;
        let end = ((g + 1) * GROUP_WORDS).min(self.level_words(0));
        for w2 in wi + 1..end {
            let w = self.words[w2];
            if w != 0 {
                return Some(w2 * 64 + w.trailing_zeros() as usize);
            }
        }
        // Ascend: find the lowest summary level with a set bit after our
        // group, then descend back with plain FFS.
        let mut idx = g + 1;
        for (li, &off) in self.offs[1..self.depth as usize].iter().enumerate() {
            let li = li + 1;
            let lw = idx / 64;
            if lw < self.level_words(li) {
                if let Some(b) =
                    word::lowest_set_from(self.words[off as usize + lw], (idx % 64) as u32)
                {
                    let mut node = lw * 64 + b as usize;
                    for l in (1..li).rev() {
                        let child = self.words[self.offs[l] as usize + node];
                        node = node * 64 + child.trailing_zeros() as usize;
                    }
                    return Some(self.first_in_group(node));
                }
            }
            idx = lw + 1;
        }
        None
    }

    /// Highest occupied bucket at or before `to`.
    pub fn last_set_to(&self, to: usize) -> Option<usize> {
        let to = to.min(self.len - 1);
        let wi = to / 64;
        if let Some(b) = word::highest_set_to(self.words[wi], (to % 64) as u32) {
            return Some(wi * 64 + b as usize);
        }
        if self.depth == 1 {
            return None;
        }
        let g = wi / GROUP_WORDS;
        for w2 in (g * GROUP_WORDS..wi).rev() {
            let w = self.words[w2];
            if w != 0 {
                return Some(w2 * 64 + (63 - w.leading_zeros() as usize));
            }
        }
        if g == 0 {
            return None; // leftmost group: nothing before it anywhere
        }
        let mut idx = g - 1;
        for (li, &off) in self.offs[1..self.depth as usize].iter().enumerate() {
            let li = li + 1;
            let lw = idx / 64; // in bounds: idx only decreases level to level
            if let Some(b) = word::highest_set_to(self.words[off as usize + lw], (idx % 64) as u32)
            {
                let mut node = lw * 64 + b as usize;
                for l in (1..li).rev() {
                    let child = self.words[self.offs[l] as usize + node];
                    node = node * 64 + (63 - child.leading_zeros() as usize);
                }
                return Some(self.last_in_group(node));
            }
            if lw == 0 {
                break; // no word to the left at this level either
            }
            idx = lw - 1;
        }
        None
    }

    /// Calls `f` for every occupied bucket, in ascending order.
    ///
    /// Cost is `O(leaf words + set bits)` — one pass over the leaf level
    /// with a destructive bit loop per non-zero word. Used by consumers
    /// that rebuild summaries from the exact occupancy (e.g. the
    /// approximate queue's accumulator renormalization).
    pub fn for_each_set<F: FnMut(usize)>(&self, mut f: F) {
        let leaf_words = self.level_words(0);
        for (wi, &word) in self.words[..leaf_words].iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                f(wi * 64 + b);
                w &= w - 1;
            }
        }
    }

    /// Number of words in level `l`.
    #[inline]
    fn level_words(&self, l: usize) -> usize {
        let end = if l + 1 < self.depth as usize {
            self.offs[l + 1] as usize
        } else {
            self.words.len()
        };
        end - self.offs[l] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_reflects_wide_leaf_fanout() {
        assert_eq!(HierBitmap::new(64).depth(), 1);
        // 65..=16384 buckets: ≤ 256 leaf-word groups fit one level-1 word.
        assert_eq!(HierBitmap::new(65).depth(), 2);
        assert_eq!(HierBitmap::new(64 * 64).depth(), 2);
        assert_eq!(HierBitmap::new(64 * 64 + 1).depth(), 2);
        assert_eq!(HierBitmap::new(10_000).depth(), 2);
        assert_eq!(HierBitmap::new(64 * 64 * 4).depth(), 2);
        assert_eq!(HierBitmap::new(64 * 64 * 4 + 1).depth(), 3);
        // 512k buckets: 8192 leaf words, 2048 group bits, 32 level-1 words.
        assert_eq!(HierBitmap::new(512 * 1024).depth(), 3);
        // A billion buckets descend in five levels (the paper's §5.2 quotes
        // "six bit operations" for its 64-ary tree; the wide leaf saves one).
        assert_eq!(HierBitmap::new(1_000_000_000).depth(), 5);
    }

    #[test]
    fn set_clear_first_last() {
        let mut bm = HierBitmap::new(10_000);
        assert_eq!(bm.first_set(), None);
        bm.set(9_999);
        bm.set(5_000);
        bm.set(77);
        assert_eq!(bm.first_set(), Some(77));
        assert_eq!(bm.last_set(), Some(9_999));
        bm.clear(77);
        assert_eq!(bm.first_set(), Some(5_000));
        bm.clear(5_000);
        bm.clear(9_999);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn first_set_from_all_positions() {
        let mut bm = HierBitmap::new(500);
        for &i in &[3usize, 64, 65, 200, 499] {
            bm.set(i);
        }
        assert_eq!(bm.first_set_from(0), Some(3));
        assert_eq!(bm.first_set_from(3), Some(3));
        assert_eq!(bm.first_set_from(4), Some(64));
        assert_eq!(bm.first_set_from(65), Some(65));
        assert_eq!(bm.first_set_from(66), Some(200));
        assert_eq!(bm.first_set_from(201), Some(499));
        assert_eq!(bm.first_set_from(499), Some(499));
        assert_eq!(bm.first_set_from(500), None);
    }

    #[test]
    fn last_set_to_all_positions() {
        let mut bm = HierBitmap::new(500);
        for &i in &[3usize, 64, 65, 200, 499] {
            bm.set(i);
        }
        assert_eq!(bm.last_set_to(499), Some(499));
        assert_eq!(bm.last_set_to(498), Some(200));
        assert_eq!(bm.last_set_to(200), Some(200));
        assert_eq!(bm.last_set_to(199), Some(65));
        assert_eq!(bm.last_set_to(64), Some(64));
        assert_eq!(bm.last_set_to(63), Some(3));
        assert_eq!(bm.last_set_to(2), None);
    }

    /// Range scans that cross group boundaries (each level-1 bit covers
    /// 256 buckets) on a map deep enough to exercise the summary ascent.
    #[test]
    fn range_scans_cross_group_boundaries() {
        let n = 64 * 64 * 4 * 3; // depth 3
        let mut bm = HierBitmap::new(n);
        assert_eq!(bm.depth(), 3);
        for &i in &[255usize, 256, 1_024, 40_000, n - 1] {
            bm.set(i);
        }
        assert_eq!(bm.first_set_from(0), Some(255));
        assert_eq!(bm.first_set_from(256), Some(256)); // next group
        assert_eq!(bm.first_set_from(257), Some(1_024));
        assert_eq!(bm.first_set_from(1_025), Some(40_000));
        assert_eq!(bm.first_set_from(40_001), Some(n - 1));
        assert_eq!(bm.last_set_to(n - 2), Some(40_000));
        assert_eq!(bm.last_set_to(39_999), Some(1_024));
        assert_eq!(bm.last_set_to(1_023), Some(256));
        assert_eq!(bm.last_set_to(255), Some(255));
        assert_eq!(bm.last_set_to(254), None);
        bm.clear(256);
        assert_eq!(bm.first_set_from(256), Some(1_024));
        assert_eq!(bm.last_set_to(1_023), Some(255));
    }

    #[test]
    fn for_each_set_visits_ascending() {
        let mut bm = HierBitmap::new(300);
        for &i in &[0usize, 63, 64, 65, 190, 299] {
            bm.set(i);
        }
        let mut seen = Vec::new();
        bm.for_each_set(|i| seen.push(i));
        assert_eq!(seen, vec![0, 63, 64, 65, 190, 299]);
    }

    #[test]
    fn idempotent_transitions_keep_count() {
        let mut bm = HierBitmap::new(128);
        bm.set(100);
        bm.set(100);
        assert_eq!(bm.count_ones(), 1);
        bm.clear(100);
        bm.clear(100);
        assert_eq!(bm.count_ones(), 0);
        assert!(bm.is_empty());
    }

    /// Cross-check the hierarchical bitmap against a `BTreeSet` over a
    /// deterministic pseudo-random workload.
    fn check_against_set(n: usize, steps: u32) {
        use std::collections::BTreeSet;
        let mut hier = HierBitmap::new(n);
        let mut set = BTreeSet::new();
        let mut x: u64 = 0x9e3779b97f4a7c15 ^ n as u64;
        for step in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % n as u64) as usize;
            if step % 3 == 0 {
                hier.clear(i);
                set.remove(&i);
            } else {
                hier.set(i);
                set.insert(i);
            }
            if step % 97 == 0 {
                assert_eq!(hier.first_set(), set.first().copied());
                assert_eq!(hier.last_set(), set.last().copied());
                let probe = (x >> 32) as usize % (n + 10);
                assert_eq!(
                    hier.first_set_from(probe),
                    set.range(probe..).next().copied(),
                    "n {n} from {probe}"
                );
                let to = probe.min(n - 1);
                assert_eq!(
                    hier.last_set_to(to),
                    set.range(..=to).next_back().copied(),
                    "n {n} to {probe}"
                );
            }
        }
        assert_eq!(hier.count_ones(), set.len());
    }

    /// The name predates the set oracle: the reference used to be a flat
    /// word-array bitmap.
    #[test]
    fn agrees_with_flat_bitmap() {
        check_against_set(70 * 64 + 13, 20_000); // 2 levels, ragged edge
        check_against_set(5 * 64 + 1, 6_000); // partial final group
        check_against_set(64 * 64 * 4 * 70 + 13, 20_000); // 3 levels, deep
    }

    /// A summary word that disagrees with its children trips the debug
    /// invariant on the next update of a bucket under it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "path disagree")]
    fn corrupt_summary_trips_debug_invariant() {
        let mut bm = HierBitmap::new(10_000);
        bm.set(5_000);
        let root = bm.root as usize;
        bm.words[root] = 0; // the summary now claims an empty map
        bm.set(5_001); // same leaf word: no transition to repair it
    }
}
