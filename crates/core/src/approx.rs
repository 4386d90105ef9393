//! Approximate Gradient Queue — §3.1.2 and Appendix B of the paper.
//!
//! The exact gradient queue's weights `2^i` double per index, so one word of
//! curvature covers only 64 buckets. The approximation flattens growth to
//! `2^(i/α)` (`f(i) = i/α`, α a positive integer): the accumulators `a`, `b`
//! now span hundreds of buckets, "which eliminates the need for hierarchical
//! Gradient Queue and allows for finding the minimum element with one step".
//!
//! The price is an *improper* weight function: `ceil(b/a)` no longer names
//! the maximum occupied index exactly. Solving the geometric and
//! arithmetico-geometric sums (paper, §3.1.2):
//!
//! ```text
//! b/a = M / (1 − g(α,M)) + u(α),   g(α,M) = (2^(1/α))^(−M−1),
//! u(α) = 1 / (1 − 2^(1/α))   (a constant shift; |u(16)| ≈ 22.6)
//! ```
//!
//! so the queue operates on indices `[I0, Imax]` where `g` has decayed to
//! ≈ 0 and the correction is the constant `|u(α)|`. With α = 16 and the
//! paper's decay threshold the window is I0 = 124, Imax = 647 — 523 usable
//! buckets with shift 22 (reproduced in `paper_alpha16_parameters`). The
//! estimate is exact when the occupied indices form a dense prefix
//! ("uniformly distributed over priority levels"); sparse occupancy causes
//! bounded error which triggers the paper's linear search and is recorded
//! for Figure 18.
//!
//! The paper offers this as another way to *find* the minimum bucket, not
//! another container: [`ApproxIndex`] is an [`Occupancy`] index of the one
//! bucket store, and [`ApproxGradientQueue`] is that store over it.
//!
//! # Hot-path layout
//!
//! The estimator's per-packet cost is what Figures 16/17 measure, so the
//! state it touches is arranged for that path (measured against the
//! `queue_hot_paths` criterion bench; see DESIGN.md):
//!
//! * **The store keeps the per-element state.** The index sees only a
//!   bucket's 0↔1 edges; the hit check is one bit test in the index's
//!   exact occupancy bitmap, and the `f64` weight array (8 bytes per
//!   bucket) is read only on an edge.
//! * **A cached estimate** invalidated only when the accumulators change (a
//!   0↔1 occupancy edge or a rebuild). Consecutive lookups between edges —
//!   every pop after the first from a multi-packet bucket, or a `peek`
//!   followed by its `dequeue` — reuse the cached selection and perform no
//!   arithmetic at all.
//! * **The estimator is integer fixed-point end to end.** Weights are
//!   stored as `u64` fixed-point values scaled relative to an *anchor*
//!   offset (re-chosen at each rebuild), and the curvature ratio `b/a` is
//!   carried incrementally as a quotient/remainder pair `(q, rem)` with the
//!   invariant `b = q·a + rem, 0 ≤ rem < a`. A 0↔1 edge updates the pair
//!   with one multiply and a couple of compare/subtract steps; a lookup is
//!   `q + ci + (rem ≥ thresh)` with `thresh` one 64×32-bit multiply —
//!   **no division and no floating point on either hot path**. This kills
//!   the loop-carried `divsd` chain PR 4 measured against cFFS's `tzcnt`
//!   (EXPERIMENTS.md, Fig 16): the only divisions left are the rare
//!   renormalization fallbacks. Floats survive only at the edges of the
//!   structure: deriving per-bucket weights at construction and converting
//!   a weight to fixed-point once per rebuild anchor.
//!
//! The exact occupancy bitmap serves the hit check, the miss search
//! (`O(log₆₄ nb)`, selection identical to the paper's alternating linear
//! search), the exact max path and the Figure 18 error measurement.

use std::cell::Cell;

use crate::bucketed::{Bucketed, Occupancy};
use crate::cffs::Circular;
use crate::hierbitmap::HierBitmap;
use crate::traits::QueueStats;

/// Derived constants of an approximate gradient queue for a given α.
#[derive(Debug, Clone, Copy)]
pub struct ApproxParams {
    /// Curvature flattening parameter: weights grow as `2^(i/α)`.
    pub alpha: u32,
    /// First usable absolute index (`I0`): where `g(α, M) ≤ eps`.
    pub i0: u32,
    /// Calibrated constant shift (`≈ |u(α)| = 1/(2^(1/α) − 1)`).
    pub shift: f64,
    /// Per-index weight ratio `r = 2^(1/α)`.
    pub r: f64,
    /// Decay threshold used to place `I0`.
    pub eps: f64,
}

impl ApproxParams {
    /// Derives parameters for `alpha` with decay threshold `eps`.
    pub fn derive(alpha: u32, eps: f64) -> Self {
        assert!(alpha >= 2, "alpha must be at least 2");
        assert!(eps > 0.0 && eps < 0.5);
        let r = 2f64.powf(1.0 / alpha as f64);
        // Smallest M with r^(−M−1) ≤ eps  ⇔  M ≥ α·log2(1/eps) − 1.
        let i0 = (alpha as f64 * (1.0 / eps).log2() - 1.0).ceil() as u32;
        // |u(α)| = 1/(r − 1); refined by calibration in `ApproxIndex::new`.
        let shift = 1.0 / (r - 1.0);
        ApproxParams {
            alpha,
            i0,
            shift,
            r,
            eps,
        }
    }

    /// Maximum bucket count for which the weights stay inside the f64
    /// *exponent* range (`(I0 + nb)/α ≲ 1000`).
    ///
    /// Note the two regimes: up to `48·α` buckets the f64 *mantissa* also
    /// resolves every weight, so a dense queue is exact end to end (the
    /// paper's 523-bucket example at α = 16). Beyond that, weights deep in
    /// the queue round out of the curvature sums — irrelevant for finding
    /// the *maximum*, and the accumulators are rebuilt whenever drain
    /// cancellation corrupts them (see `rebuild`).
    pub fn max_buckets(alpha: u32) -> usize {
        900 * alpha as usize
    }

    /// The α used when none is given: the paper's 16, raised only when the
    /// bucket count would overflow the f64 exponent budget.
    pub fn alpha_for_buckets(nb: usize) -> u32 {
        (nb.div_ceil(900)).max(16) as u32
    }
}

/// Sentinel `found` value in the lookup cache meaning "recompute".
const EST_STALE: (i32, i32) = (-1, -1);

/// The approximate gradient curvature as a bucket index.
///
/// Bucket `b` (0 = smallest rank) sits at offset `k = nb−1−b`, absolute
/// index `I0 + k`, so the curvature's max-index estimate finds the
/// minimum-rank bucket. [`Occupancy::first_set`] is that estimate (plus the
/// miss search), [`Occupancy::min_for_pop`] adds the rebuild triggers and
/// records the lookup, and [`Occupancy::last_set`] is exact.
#[derive(Debug, Clone)]
pub struct ApproxIndex {
    params: ApproxParams,
    /// Precomputed weight `r^(i0+k)` of each offset.
    weights: Vec<f64>,
    /// Fixed-point fraction bits `F` of the weight scale: the anchor offset's
    /// weight is stored as `2^F`. Sized in `new` so the implied numerator
    /// `b = Σ (i0+k)·w_fix(k)` provably fits 61 bits.
    frac_bits: u32,
    /// `Σ w_fix(k)` over occupied offsets — the fixed-point `a` accumulator.
    a_fix: u64,
    /// Quotient/remainder representation of `b/a`: the invariant is
    /// `Σ (i0+k)·w_fix(k) = q·a_fix + rem` with `0 ≤ rem < a_fix`, so the
    /// lookup needs no division — `b/a = q + rem/a_fix` and only the
    /// comparison `rem ≥ thresh` of the fractional part matters.
    q: i64,
    rem: u64,
    /// Offset whose weight defines the fixed-point scale (`w_fix = 2^F`).
    /// Re-chosen at every rebuild (the occupied maximum, so no live weight
    /// exceeds `2^F` until the top rises — bounded by the rebuild-on-raise
    /// trigger in `occupy`).
    anchor: u32,
    /// `2^F · r^−(i0+anchor)` — the one float that survives: converts a
    /// bucket's f64 weight to fixed point in a single multiply per 0↔1 edge.
    anchor_inv: f64,
    /// Integer/fractional split of `shift − i0 + 0.5`: `ci = ⌊s⌋` and
    /// `theta1_fp = ⌈(1 − (s − ci))·2^32⌉`, so the rounded estimate is
    /// `q + ci + (rem ≥ (a_fix·theta1_fp) >> 32)` — the float rounding
    /// `trunc(b/a + shift − i0 + 0.5)` done entirely in integers.
    ci: i64,
    theta1_fp: u64,
    /// Cached `(found, estimate)` lookup result, valid until the next
    /// `a`/`b` change ([`EST_STALE`] when stale). The accumulators move
    /// exactly when the occupancy bitmap does, so between 0↔1 edges both
    /// the estimate *and* the miss search would reproduce themselves —
    /// repeat lookups (every pop after the first from a multi-packet
    /// bucket, or a `peek` before its `dequeue`) skip all float work and
    /// all searching. Interior-mutable so peeks (`&self`) warm it.
    est_cache: Cell<(i32, i32)>,
    stats: QueueStats,
    /// Exact occupancy bitmap by offset, maintained on 0↔1 edges: the hit
    /// check, the fallback search when the estimate lands on an empty
    /// bucket (same selection as the paper's alternating linear search, in
    /// `O(log₆₄ nb)` word ops instead of a per-bucket walk — fig19's sparse
    /// ports averaged 175 scanned buckets per miss before), the exact max
    /// path, the rebuild sweep and the Figure 18 error measurement.
    occ: HierBitmap,
    /// Whether lookups record the Figure 18 error statistic.
    track: bool,
    /// Accumulator updates since the last rebuild (only 0↔1 edges touch
    /// the accumulators, so only edges count). Integer arithmetic cancels
    /// exactly, so this no longer bounds *drift* — it throttles the
    /// proactive re-anchor trigger and backstops the unforeseen.
    edges_since_rebuild: u64,
    /// Highest occupied offset when the accumulators were last rebuilt
    /// (or raised above it since). Weights shrink as `r^−Δ` below the
    /// anchor, so once the live top drops `Δ` offsets the fixed-point
    /// weights have only `F − Δ/α` significant bits left — quantization
    /// error approaches bucket resolution. [`Self::locate_for_dequeue`]
    /// re-anchors at [`TOP_DROP_ALPHAS`]`·α` of drop, long before that.
    top_at_rebuild: u32,
}

/// Rebuild the accumulators after this many incremental updates. The
/// integer accumulators cancel exactly (the same `w_fix` is added and
/// subtracted), so unlike the f64 predecessor this is not a correctness
/// bound — it is a cheap backstop.
const REBUILD_PERIOD: u64 = 1 << 22;

/// Proactive re-anchor window, in units of `α` offsets of top-drop.
///
/// A weight `Δ` offsets below the anchor is stored with `F − Δ/α`
/// significant bits (`w_fix = 2^(F − Δ/α)`), so as the live maximum drops
/// away from the anchor the whole estimate is computed from ever-coarser
/// weights; at `Δ = F·α` they truncate to zero outright. Re-anchoring at
/// `Δ = 20α` keeps ≥ `F − 20` bits in the dominant terms — 8+ bits at the
/// common `F = 28..32` (≈0.4% relative error — a log-domain estimate
/// shift well under a tenth of a bucket; the `F = 16` floor needs > 32k
/// buckets and re-anchors from the starvation/reactive triggers before
/// precision decays). The window is deliberately wide: each rebuild sweeps all
/// occupied buckets, so on a monotone drain (every pop lowers the top)
/// the trigger interval *is* the amortized per-pop rebuild cost — at
/// `4α` the dense-drain Figure 16 cell spent ~80% of its time
/// re-anchoring for precision it never needed.
const TOP_DROP_ALPHAS: u32 = 20;

/// Minimum 0↔1 edges between proactive re-anchors, in α units: workloads
/// that keep spiking the top would otherwise degenerate into a rebuild per
/// spike, which costs more than the misses it prevents.
const TOP_DROP_MIN_EDGES_ALPHAS: u32 = 12;

impl ApproxIndex {
    /// An empty index over `nb` buckets with weights `2^(i/alpha)`.
    ///
    /// # Panics
    /// Panics if `nb` exceeds [`ApproxParams::max_buckets`] for `alpha`.
    pub fn new(nb: usize, alpha: u32) -> Self {
        assert!(nb > 0);
        assert!(nb <= i32::MAX as usize, "lookup cache packs offsets in i32");
        assert!(
            nb <= ApproxParams::max_buckets(alpha),
            "{nb} buckets exceed the f64 mantissa window for alpha {alpha} \
             (max {}); raise alpha",
            ApproxParams::max_buckets(alpha)
        );
        let mut params = ApproxParams::derive(alpha, 1e-4);
        let weights: Vec<f64> = (0..nb)
            .map(|k| params.r.powi((params.i0 + k as u32) as i32))
            .collect();
        // Calibrate the shift at full occupancy so a dense queue is exact:
        // shift = Imax − b/a when every bucket is occupied.
        let (mut a, mut bsum) = (0.0f64, 0.0f64);
        for (k, &w) in weights.iter().enumerate() {
            a += w;
            bsum += (params.i0 + k as u32) as f64 * w;
        }
        params.shift = (params.i0 + nb as u32 - 1) as f64 - bsum / a;
        // Fixed-point budget: the implied numerator is bounded by
        // `b ≤ (i0+nb) · Σ w_fix` and the weight sum by the geometric tail
        // `2^(F+8) · (2α+2)` (the `+8` headroom covers tops up to 8α above
        // the anchor before the rebuild trigger fires). Keep b under 2^61.
        let imax_bits = 64 - u64::from(params.i0 + nb as u32).leading_zeros();
        let asum_bits = 64 - u64::from(2 * alpha + 2).leading_zeros();
        let frac_bits = (61i32 - imax_bits as i32 - asum_bits as i32 - 8).clamp(16, 32) as u32;
        // Integer/fractional split of `s = shift − i0 + 0.5` for the
        // division-free rounding (see the `ci` field docs). `ceil` on the
        // fractional complement biases exact boundary cases (`rem/a` equal
        // to `1−θ` to the last bit) toward rounding down — a half-ULP
        // boundary the f64 path could land on either side of anyway.
        let s = params.shift - params.i0 as f64 + 0.5;
        let ci = s.floor() as i64;
        let theta = s - s.floor();
        let theta1_fp = (((1.0 - theta) * (1u64 << 32) as f64).ceil() as u64).min(1 << 32);
        ApproxIndex {
            params,
            weights,
            frac_bits,
            a_fix: 0,
            q: 0,
            rem: 0,
            anchor: 0,
            anchor_inv: 0.0,
            ci,
            theta1_fp,
            est_cache: Cell::new(EST_STALE),
            stats: QueueStats::default(),
            occ: HierBitmap::new(nb),
            track: false,
            edges_since_rebuild: 0,
            top_at_rebuild: 0,
        }
    }

    /// Offset of bucket `b`, and bucket of offset `b`: the reversal that
    /// makes the max-index estimate name the minimum-rank bucket.
    fn flip(&self, b: usize) -> usize {
        self.occ.len() - 1 - b
    }

    /// Re-points the fixed-point scale at offset `k`: `w_fix(k) = 2^F`.
    #[inline]
    fn set_anchor(&mut self, k: u32) {
        self.anchor = k;
        self.anchor_inv = (1u64 << self.frac_bits) as f64 / self.weights[k as usize];
    }

    /// Fixed-point weight of offset `k` under the current anchor. Weights
    /// more than `F·α` below the anchor truncate to zero — they could not
    /// move the estimate anyway, and `add_term`/`sub_term` skip them
    /// symmetrically (the conversion is deterministic per anchor, so an
    /// add and its matching sub always agree).
    #[inline]
    fn wf(&self, k: usize) -> u64 {
        (self.weights[k] * self.anchor_inv) as u64
    }

    /// Adds `w` at absolute index `idx` to the accumulators, restoring the
    /// `b = q·a + rem` invariant. The quotient shifts by at most
    /// `(idx − q)·w / a'`, ≈ 1 for the common enqueue-near-the-mean case;
    /// a bounded compare/subtract loop absorbs that, and the rare large
    /// jump falls back to one exact 128-bit division.
    fn add_term(&mut self, idx: i64, w: u64) {
        if w == 0 {
            return;
        }
        let a_new = self.a_fix + w;
        let a = a_new as i128;
        let mut rc = self.rem as i128 + (idx - self.q) as i128 * w as i128;
        let mut iters = 0u32;
        while rc < 0 || rc >= a {
            if rc < 0 {
                self.q -= 1;
                rc += a;
            } else {
                self.q += 1;
                rc -= a;
            }
            iters += 1;
            if iters >= 64 {
                let b_total = self.q as i128 * a + rc;
                self.q = b_total.div_euclid(a) as i64;
                rc = b_total.rem_euclid(a);
                break;
            }
        }
        self.a_fix = a_new;
        self.rem = rc as u64;
    }

    /// Removes `w` at absolute index `idx` — `add_term`'s exact inverse
    /// (same normalization, derived for `a' = a − w`).
    fn sub_term(&mut self, idx: i64, w: u64) {
        if w == 0 {
            return;
        }
        let a_new = self.a_fix - w;
        if a_new == 0 {
            // Every tracked weight removed (all remaining occupied offsets
            // truncate to zero, or the queue is empty): the lookup's
            // `a_fix == 0` path takes over until the next rebuild.
            self.a_fix = 0;
            self.q = 0;
            self.rem = 0;
            return;
        }
        let a = a_new as i128;
        let mut rc = self.rem as i128 + (self.q - idx) as i128 * w as i128;
        let mut iters = 0u32;
        while rc < 0 || rc >= a {
            if rc < 0 {
                self.q -= 1;
                rc += a;
            } else {
                self.q += 1;
                rc -= a;
            }
            iters += 1;
            if iters >= 64 {
                let b_total = self.q as i128 * a + rc;
                self.q = b_total.div_euclid(a) as i64;
                rc = b_total.rem_euclid(a);
                break;
            }
        }
        self.a_fix = a_new;
        self.rem = rc as u64;
    }

    /// Offset `k` became occupied.
    #[inline]
    fn occupy(&mut self, k: usize) {
        self.occ.set(k);
        self.est_cache.set(EST_STALE);
        if self.occ.count_ones() == 1 {
            // First element: re-anchor directly, O(1) — the single-term
            // accumulators are exact by construction.
            self.set_anchor(k as u32);
            self.a_fix = self.wf(k);
            self.q = (self.params.i0 + k as u32) as i64;
            self.rem = 0;
            self.edges_since_rebuild = 0;
            self.top_at_rebuild = k as u32;
        } else if (k as u32) > self.anchor + 8 * self.params.alpha {
            // A weight this far above the anchor would overflow the
            // fixed-point headroom (`wf` saturates past `2^(F+8)`):
            // re-anchor first. The bit for `k` is already set, so the
            // rebuild's sweep includes it.
            self.rebuild();
        } else {
            self.add_term((self.params.i0 + k as u32) as i64, self.wf(k));
            // Raising the top re-anchors the drop window.
            self.top_at_rebuild = self.top_at_rebuild.max(k as u32);
            self.bump_edges();
        }
    }

    /// Offset `k` became empty.
    #[inline]
    fn vacate(&mut self, k: usize) {
        self.occ.clear(k);
        self.est_cache.set(EST_STALE);
        if self.occ.is_empty() {
            // Hard reset, exact and O(1).
            self.a_fix = 0;
            self.q = 0;
            self.rem = 0;
        } else {
            self.sub_term((self.params.i0 + k as u32) as i64, self.wf(k));
        }
        self.bump_edges();
    }

    #[inline]
    fn bump_edges(&mut self) {
        self.edges_since_rebuild += 1;
        if self.edges_since_rebuild >= REBUILD_PERIOD {
            self.rebuild();
        }
    }

    /// Re-anchors the fixed-point scale at the occupied maximum and
    /// recomputes the accumulators from the occupancy bitmap (triggered by
    /// the top rising past the anchor's headroom, the top dropping far
    /// enough to starve the weights of bits, all live weights truncating
    /// to zero, or a lookup's search distance revealing a stale estimate).
    fn rebuild(&mut self) {
        self.edges_since_rebuild = 0;
        self.est_cache.set(EST_STALE);
        let Some(top) = self.occ.last_set() else {
            self.a_fix = 0;
            self.q = 0;
            self.rem = 0;
            self.top_at_rebuild = 0;
            return;
        };
        self.set_anchor(top as u32);
        let (weights, inv, i0) = (&self.weights, self.anchor_inv, self.params.i0);
        let mut a = 0u64;
        let mut b = 0u128;
        // Occupied buckets only: O(occupied + leaf words), not O(nb).
        self.occ.for_each_set(|k| {
            let w = (weights[k] * inv) as u64;
            a += w;
            b += (i0 + k as u32) as u128 * w as u128;
        });
        self.a_fix = a;
        if a == 0 {
            self.q = 0;
            self.rem = 0;
        } else {
            self.q = (b / a as u128) as i64;
            self.rem = (b % a as u128) as u64;
        }
        self.top_at_rebuild = top as u32;
    }

    /// The occupied offset the paper's alternating linear search selects
    /// from an empty estimate `est_k`: upward first (the estimate usually
    /// undershoots when mass sits below the maximum, Appendix B), then
    /// downward, one step per direction per round, up winning distance
    /// ties. Computed in O(log₆₄ nb) from the occupancy bitmap — the
    /// nearest occupied offset above and below, merged under the same tie
    /// rule — without walking empty buckets one by one.
    fn search(&self, est_k: usize) -> usize {
        let up = self.occ.first_set_from(est_k + 1);
        let down = self.occ.last_set_to(est_k);
        match (up, down) {
            (Some(u), Some(d)) if u - est_k <= est_k - d => u,
            (_, Some(d)) => d,
            (Some(u), None) => u,
            (None, None) => unreachable!("search over an empty bitmap"),
        }
    }

    /// One-step estimate of the maximum occupied internal offset, then the
    /// paper's linear search if the estimated bucket is empty.
    ///
    /// Returns `(offset, estimate_offset)`; the difference is the Figure 18
    /// search distance. Approximation means the returned offset may not be
    /// the true maximum — the exact bitmap (when tracking) measures that.
    fn locate_max_offset(&self) -> Option<(usize, usize)> {
        // Cache first: a valid entry proves the accumulators (and hence the
        // occupancy, which moves in lockstep) have not changed since it was
        // computed, so every check below would reproduce itself.
        let (cached_k, cached_est) = self.est_cache.get();
        if cached_k >= 0 {
            return Some((cached_k as usize, cached_est as usize));
        }
        if self.occ.is_empty() {
            return None;
        }
        if self.a_fix == 0 {
            // Every live weight truncated to zero under the current anchor
            // (the top dropped `F·α` offsets without a rebuild): the caller
            // re-anchors; meanwhile fall back to the exact maximum.
            let k = self.occ.last_set()?;
            return Some((k, 0));
        }
        // Division-free rounding of `b/a + shift − i0`: with `b = q·a + rem`
        // and `s = shift − i0 + 0.5 = ci + θ`,
        // `trunc(b/a + s) = q + ci + (rem/a ≥ 1−θ)` — the fractional
        // comparison is `rem ≥ (a·⌈(1−θ)·2^32⌉) >> 32`, one widening
        // multiply. Negative values clamp to 0, exactly where the old
        // float path's truncate/saturate put them.
        let thresh = ((self.a_fix as u128 * self.theta1_fp as u128) >> 32) as u64;
        let est_i = self.q + self.ci + i64::from(self.rem >= thresh);
        let est_k = est_i.clamp(0, self.occ.len() as i64 - 1) as usize;
        let k = if self.occ.test(est_k) {
            est_k
        } else {
            self.search(est_k)
        };
        self.est_cache.set((k as i32, est_k as i32));
        Some((k, est_k))
    }

    /// [`Self::locate_max_offset`] plus the rebuild triggers: the
    /// starvation one (`a_fix == 0` with elements live — every weight
    /// truncated under a long-stale anchor), the reactive one (a search
    /// distance beyond `8α` means the accumulators no longer reflect the
    /// occupancy at all) and the proactive top-drop one (the live top has
    /// fallen [`TOP_DROP_ALPHAS`]`·α` below the anchor, so the dominant
    /// fixed-point weights are losing significant bits — re-anchor
    /// *before* quantization reaches bucket resolution). Shared by every
    /// dequeue path so single-step and batched dequeues make identical
    /// selections.
    #[inline]
    fn locate_for_dequeue(&mut self) -> Option<(usize, usize)> {
        if self.a_fix == 0 && !self.occ.is_empty() {
            self.rebuild();
        }
        let pair = self.locate_max_offset()?;
        let alpha = self.params.alpha as usize;
        // The proactive trigger is rate-limited by edges since the last
        // rebuild: in workloads that keep spiking the top (transient
        // highest-priority elements re-anchor the window on every spike) an
        // un-throttled trigger degenerates into a rebuild per spike, which
        // costs more than the misses it prevents. The reactive `8α` trigger
        // stays un-throttled — there the accumulators are outright stale.
        if pair.0.abs_diff(pair.1) > 8 * alpha
            || (self.top_at_rebuild as usize > pair.0 + TOP_DROP_ALPHAS as usize * alpha
                && self.edges_since_rebuild as usize >= TOP_DROP_MIN_EDGES_ALPHAS as usize * alpha)
        {
            self.rebuild();
            return self.locate_max_offset();
        }
        Some(pair)
    }

    /// The pre-integer f64 estimator, recomputed from scratch over the
    /// exact occupancy: accumulate `a = Σ w`, `b = Σ (i0+k)·w` in floating
    /// point, estimate `b/a + shift − i0`, round, and run the same miss
    /// search. Returns `(selected offset, estimated offset)`.
    fn float_reference_selection(&self) -> Option<(usize, usize)> {
        if self.occ.is_empty() {
            return None;
        }
        let (weights, i0) = (&self.weights, self.params.i0);
        let (mut a, mut b) = (0.0f64, 0.0f64);
        self.occ.for_each_set(|k| {
            let w = weights[k];
            a += w;
            b += (i0 + k as u32) as f64 * w;
        });
        if a.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            let k = self.occ.last_set()?;
            return Some((k, 0));
        }
        let est = b / a + (self.params.shift - i0 as f64);
        let est_k = ((est + 0.5) as usize).min(self.occ.len() - 1);
        if self.occ.test(est_k) {
            return Some((est_k, est_k));
        }
        Some((self.search(est_k), est_k))
    }

    #[inline]
    fn record_lookup(&mut self, found_k: usize, est_k: usize) {
        self.stats.lookups += 1;
        if found_k == est_k {
            self.stats.est_hits += 1;
        } else {
            self.stats.est_misses += 1;
        }
        if self.track {
            // Figure 18 error: distance between the *selected* bucket and
            // the true best (max offset = min rank).
            let truth = self.occ.last_set().expect("bitmap tracks occupancy");
            self.stats.error_sum += truth.abs_diff(found_k) as u64;
        } else {
            // Untracked queues record search distance (a lower bound).
            self.stats.error_sum += found_k.abs_diff(est_k) as u64;
        }
    }
}

impl Occupancy for ApproxIndex {
    fn set(&mut self, b: usize) {
        self.occupy(self.flip(b));
    }

    fn clear(&mut self, b: usize) {
        self.vacate(self.flip(b));
    }

    /// The estimated minimum, without rebuilding or recording a lookup.
    fn first_set(&self) -> Option<usize> {
        self.locate_max_offset().map(|(k, _)| self.flip(k))
    }

    /// The estimated minimum after the rebuild triggers, recorded as one
    /// lookup. Between 1→0 edges the accumulators do not move, so a batch
    /// that drains a bucket directly selects exactly what repeated single
    /// dequeues would.
    fn min_for_pop(&mut self) -> Option<usize> {
        let (k, est_k) = self.locate_for_dequeue()?;
        self.record_lookup(k, est_k);
        Some(self.flip(k))
    }

    /// Exact: the maximum-rank bucket is the lowest occupied offset, one
    /// FFS descent. pFabric's priority-drop admission test and eviction
    /// use it, which keeps that experiment focused on the approximation
    /// under study — min-extraction (DESIGN.md).
    fn last_set(&self) -> Option<usize> {
        self.occ.first_set().map(|k| self.flip(k))
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// Fixed-range approximate gradient **min**-queue: the one bucket store
/// over an [`ApproxIndex`].
pub type ApproxGradientQueue<T> = Bucketed<ApproxIndex, T>;

impl<T> Bucketed<ApproxIndex, T> {
    /// Creates a queue over ranks `[0, nb × granularity)` with an α chosen
    /// automatically for `nb`.
    pub fn new(nb: usize, granularity: u64) -> Self {
        let alpha = ApproxParams::alpha_for_buckets(nb);
        Self::with_base(nb, granularity, 0, alpha)
    }

    /// Creates a queue over ranks `[base, base + nb × granularity)` with an
    /// explicit α.
    ///
    /// # Panics
    /// Panics if `nb` exceeds [`ApproxParams::max_buckets`] for `alpha`.
    pub fn with_base(nb: usize, granularity: u64, base: u64, alpha: u32) -> Self {
        Self::with_index(ApproxIndex::new(nb, alpha), nb, granularity, base)
    }

    /// Enables Figure 18 instrumentation: every lookup records
    /// `|selected bucket − true best bucket|` against the exact occupancy.
    pub fn track_error(mut self) -> Self {
        self.index.track = true;
        self
    }

    /// The pre-integer f64 estimator's `(selected offset, estimated
    /// offset)` over the current occupancy, offset `k` being bucket
    /// `nb−1−k`.
    ///
    /// This is the *reference* the conformance suite holds the fixed-point
    /// path against (`int_estimator_matches_float_reference`): for any
    /// occupancy the integer selection must match the freshly-computed
    /// float selection or sit strictly closer to the true maximum. Not a
    /// hot path — O(occupied) per call.
    pub fn float_reference_selection(&self) -> Option<(usize, usize)> {
        self.index.float_reference_selection()
    }
}

/// Moving-window approximate gradient queue — "for cases of a moving range,
/// a circular approximate queue can be implemented as with cFFS" (§3.1.2).
pub type CircularApproxQueue<T> = Circular<ApproxIndex, T>;

impl<T> CircularApproxQueue<T> {
    /// Creates a circular approximate queue: two fixed-range halves of
    /// `num_buckets` buckets each, window starting at `start_rank`.
    pub fn new(num_buckets: usize, granularity: u64, start_rank: u64, alpha: u32) -> Self {
        Circular::from_halves(
            ApproxGradientQueue::with_base(num_buckets, granularity, 0, alpha),
            ApproxGradientQueue::with_base(num_buckets, granularity, 0, alpha),
            granularity,
            start_rank,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{EnqueueErrorKind, RankedQueue};

    /// Reproduces the paper's α = 16 worked example: I0 = 124 and
    /// ⌊|u(α)|⌋ = 22 under the paper's decay threshold, 0.0045.
    #[test]
    fn paper_alpha16_parameters() {
        let p = ApproxParams::derive(16, 0.0045);
        assert_eq!(p.i0, 124);
        assert_eq!(p.shift.floor() as u32, 22);
        // 523 buckets fit comfortably: Imax = 124 + 523 = 647 as in the paper.
        assert!(523 <= ApproxParams::max_buckets(16));
    }

    /// "This configuration results in an exact queue … when all buckets are
    /// nonempty": with a dense prefix of occupied buckets, every lookup must
    /// name the true minimum bucket.
    #[test]
    fn dense_prefix_is_exact() {
        for nb in [64usize, 523, 700] {
            let mut q: ApproxGradientQueue<u64> =
                ApproxGradientQueue::with_base(nb, 1, 0, 16).track_error();
            for r in 0..nb as u64 {
                q.enqueue(r, r).unwrap();
            }
            for want in 0..nb as u64 {
                let (r, _) = q.dequeue_min().unwrap();
                assert_eq!(r, want, "nb={nb}");
            }
            assert_eq!(
                q.stats().error_sum,
                0,
                "dense queue must be exact (nb={nb})"
            );
        }
    }

    /// Appendix B's adversarial pattern: heavy concentration at low internal
    /// indices plus one far element — the estimate is pulled away from the
    /// true extreme, error is non-zero but bounded, and nothing is lost.
    #[test]
    fn sparse_concentration_has_bounded_error_but_loses_nothing() {
        let nb = 512;
        // Min-queue: internal index N−1−b, so "concentration at the start of
        // the internal queue" = concentration at *large* ranks.
        let mut q: ApproxGradientQueue<u64> =
            ApproxGradientQueue::with_base(nb, 1, 0, 16).track_error();
        let mut inserted = 0u64;
        for r in 256..512u64 {
            q.enqueue(r, r).unwrap();
            inserted += 1;
        }
        q.enqueue(128, 128).unwrap(); // the lone high-priority element
        inserted += 1;
        let mut drained = 0u64;
        while q.dequeue_min().is_some() {
            drained += 1;
        }
        assert_eq!(drained, inserted, "approximation must not lose elements");
        assert!(q.stats().lookups >= inserted);
        // Error exists (the approximation is approximate)…
        let avg = q.stats().avg_error();
        // …but is far from the queue width.
        assert!(avg < 64.0, "avg error {avg} out of expected band");
    }

    /// "Typical scheduling policies … will generate priority values that are
    /// uniformly distributed over priority levels. For such scenarios, the
    /// approximate gradient queue will have zero error" (§3.1.2): a uniform
    /// fill keeps occupancy a dense prefix throughout the drain, so every
    /// lookup is exact.
    #[test]
    fn uniform_fill_drains_with_zero_error() {
        let nb = 523;
        let mut q: ApproxGradientQueue<u64> =
            ApproxGradientQueue::with_base(nb, 1, 0, 16).track_error();
        for pass in 0..8u64 {
            for b in 0..nb as u64 {
                q.enqueue(b, pass).unwrap();
            }
        }
        let mut prev = 0u64;
        while let Some((r, _)) = q.dequeue_min() {
            assert!(r >= prev, "uniform occupancy must also dequeue in order");
            prev = r;
        }
        assert_eq!(q.stats().error_sum, 0, "uniform occupancy ⇒ zero error");
        // While many buckets remain occupied the estimator hits; only the
        // near-empty tail of the drain (occupancy below the α·log2(1/eps)
        // decay window, where the calibrated shift overshoots) falls back
        // to the search — which still lands on the right bucket, hence the
        // zero error above.
        let s = q.stats();
        assert_eq!(s.est_hits + s.est_misses, s.lookups);
        assert!(
            s.hit_rate() > 0.7,
            "dense drain should mostly hit, got {:.2}",
            s.hit_rate()
        );
    }

    /// Steady-state churn (dequeue-min + uniform refill) carves a sparse
    /// "reaping front" near the extreme — the Appendix B concentration
    /// pattern. Error is expected (Figure 18 measures it) but must stay
    /// bounded, and no element may be lost.
    #[test]
    fn churn_error_is_bounded_and_conserves_elements() {
        let nb = 523;
        let mut q: ApproxGradientQueue<u64> =
            ApproxGradientQueue::with_base(nb, 1, 0, 16).track_error();
        let mut x: u64 = 0x853c49e6748fea9b;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..4_000 {
            let r = rnd();
            q.enqueue(r % nb as u64, r).unwrap();
        }
        for _ in 0..10_000 {
            q.dequeue_min().unwrap();
            let r = rnd();
            q.enqueue(r % nb as u64, r).unwrap();
        }
        assert_eq!(q.len(), 4_000, "churn conserves elements");
        let avg = q.stats().avg_error();
        assert!(
            avg > 0.0,
            "this adversarial pattern should show *some* error"
        );
        assert!(avg < 64.0, "error must stay bounded, got {avg}");
        // The hit/miss counters partition the lookups.
        let s = q.stats();
        assert_eq!(s.est_hits + s.est_misses, s.lookups);
        assert!(s.est_misses > 0, "sparse churn must record misses");
    }

    #[test]
    fn out_of_range_refused() {
        let mut q: ApproxGradientQueue<()> = ApproxGradientQueue::with_base(100, 10, 50, 16);
        assert!(q.enqueue(50, ()).is_ok());
        assert!(q.enqueue(1_049, ()).is_ok());
        assert_eq!(
            q.enqueue(1_050, ()).unwrap_err().kind,
            EnqueueErrorKind::OutOfRange
        );
        assert_eq!(
            q.enqueue(49, ()).unwrap_err().kind,
            EnqueueErrorKind::OutOfRange
        );
    }

    #[test]
    fn circular_approx_rotates_like_cffs() {
        let mut q: CircularApproxQueue<u64> = CircularApproxQueue::new(64, 10, 0, 16);
        for i in 0..256u64 {
            q.enqueue(i * 10, i).unwrap();
        }
        // 256 ranks of spread at granularity 10 = 2560 rank units vs window
        // 2×640: ranks ≥ 1280 clamp into the overflow bucket.
        assert!(q.stats().clamped_high > 0);
        let mut got = 0;
        while q.dequeue_min().is_some() {
            got += 1;
        }
        assert_eq!(got, 256, "rotation + overflow must conserve elements");
    }

    #[test]
    fn accumulator_rebuild_keeps_exactness_under_churn() {
        let nb = 128;
        let mut q: ApproxGradientQueue<u64> =
            ApproxGradientQueue::with_base(nb, 1, 0, 16).track_error();
        // Heavy enqueue/dequeue churn on a dense prefix; drift would show up
        // as error on a dense queue, which must stay exact.
        for round in 0..2_000u64 {
            for r in 0..nb as u64 {
                q.enqueue(r, round).unwrap();
            }
            for _ in 0..nb {
                q.dequeue_min().unwrap();
            }
        }
        assert_eq!(
            q.stats().error_sum,
            0,
            "dense queue stayed exact under churn"
        );
    }

    /// The estimate cache must never survive an accumulator change: peek
    /// then mutate then peek again across edges.
    #[test]
    fn est_cache_invalidated_on_edges() {
        let mut q: ApproxGradientQueue<u64> = ApproxGradientQueue::with_base(523, 1, 0, 16);
        for r in 0..523u64 {
            q.enqueue(r, r).unwrap();
        }
        assert_eq!(q.peek_min_rank(), Some(0)); // fills the cache
        let (r, _) = q.dequeue_min().unwrap(); // 1→0 edge: invalidates
        assert_eq!(r, 0);
        assert_eq!(q.peek_min_rank(), Some(1), "stale estimate would say 0");
        // Non-edge mutation (second element in an occupied bucket) keeps the
        // cache valid and the answer unchanged.
        q.enqueue(1, 99).unwrap();
        assert_eq!(q.peek_min_rank(), Some(1));
        assert_eq!(q.dequeue_min().unwrap().0, 1);
        assert_eq!(q.dequeue_min().unwrap().0, 1);
        assert_eq!(q.peek_min_rank(), Some(2));
    }
}
