//! DCTCP-style closed-loop sources: the transport that reacts to the
//! ECN marks the admission layer records.
//!
//! Eiffel's deployment story (§5.1.1) pairs the scheduler with
//! first-party transports — DCTCP-like senders that treat ECN marks as
//! a congestion *gradient* rather than a binary loss signal. Our rig's
//! `AdmitPolicy::EcnMark` has tallied marks since the chaos harness
//! landed, but sources were open-loop: they paced at their configured
//! rate no matter what came back. This module closes the loop.
//!
//! Per flow, [`ClosedLoopSource`] keeps the DCTCP estimator in exact
//! integer fixed-point so both host runtimes stay deterministic and
//! bit-identical:
//!
//! * an EWMA of the mark fraction, `α ← (1−g)·α + g·F`, with gain
//!   `g = 1/2^gain_shift` (DCTCP's `g = 1/16` by default), updated once
//!   per control window of `window` completions where `F` is that
//!   window's observed mark fraction (Q16);
//! * multiplicative decrease on a marked window: the pacing-rate scale
//!   drops by `α/2`, `scale ← scale·(1 − α/2)`, floored at `min_scale`;
//! * slow-start for new flows: they enter at `initial_scale` and double
//!   each clean window until the first mark (or full rate); a run can
//!   disable it (`slow_start: false`) to enter pure AIMD when
//!   `initial_scale` is already placed at the sustainable rate;
//! * additive recovery: after slow-start, each clean window adds
//!   `additive` to the scale until it saturates at [`SCALE_ONE`];
//! * loss signals (admission drops, shed/evicted packets) are the
//!   classic halving: `scale ← scale/2`, immediately, and slow-start
//!   ends.
//!
//! The scale is a Q10 fraction of the flow's configured rate:
//! `SCALE_ONE = 1024` means "pace at the full configured rate", and the
//! inter-packet gap stretches inversely ([`ClosedLoopSource::gap`]).
//! Everything is a pure function of the signals fed in, so replaying
//! the same completion sequence reproduces the same rate trajectory on
//! any runtime.

use eiffel_sim::Nanos;

/// Full-rate scale denominator (Q10): `scale == SCALE_ONE` paces at the
/// flow's configured rate.
pub const SCALE_ONE: u32 = 1024;

/// Mark-fraction fixed point (Q16): `alpha == ALPHA_ONE` means every
/// completion in the window came back marked.
pub const ALPHA_ONE: u32 = 1 << 16;

/// Tuning for the closed-loop estimator. One instance is shared by all
/// flows of a run; per-flow state lives in [`ClosedLoopSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedLoopParams {
    /// EWMA gain exponent: `g = 1/2^gain_shift`. DCTCP's default
    /// `g = 1/16` is `gain_shift = 4`.
    pub gain_shift: u32,
    /// Completions per control window (DCTCP updates per RTT; we use a
    /// completion count since the rig has no RTT).
    pub window: u32,
    /// Rate-scale floor — keeps refused flows probing instead of
    /// stalling forever (min 1).
    pub min_scale: u32,
    /// Additive increase per clean window after slow-start.
    pub additive: u32,
    /// Scale new flows enter slow-start at.
    pub initial_scale: u32,
    /// Whether new flows begin in slow-start (doubling per clean
    /// window). `false` enters pure AIMD at `initial_scale` — for
    /// operating points where `initial_scale` is already placed at the
    /// known sustainable rate and a doubling would overshoot it.
    pub slow_start: bool,
}

impl Default for ClosedLoopParams {
    fn default() -> Self {
        ClosedLoopParams {
            gain_shift: 4,
            window: 8,
            min_scale: 16,
            additive: 64,
            initial_scale: 128,
            slow_start: true,
        }
    }
}

/// Per-flow DCTCP-style congestion state in integer fixed-point.
#[derive(Debug, Clone)]
pub struct ClosedLoopSource {
    /// EWMA mark fraction, Q16 in `[0, ALPHA_ONE]`.
    alpha_fx: u32,
    /// Current pacing-rate scale, Q10 in `[min_scale, SCALE_ONE]`.
    scale: u32,
    window_marks: u32,
    window_acks: u32,
    slow_start: bool,
    windows: u64,
    marked_total: u64,
    losses: u64,
}

impl ClosedLoopSource {
    /// A fresh flow at the top of its slow-start ramp (or already in
    /// AIMD when `p.slow_start` is off).
    pub fn new(p: &ClosedLoopParams) -> ClosedLoopSource {
        ClosedLoopSource {
            alpha_fx: 0,
            scale: p.initial_scale.clamp(p.min_scale.max(1), SCALE_ONE),
            window_marks: 0,
            window_acks: 0,
            slow_start: p.slow_start,
            windows: 0,
            marked_total: 0,
            losses: 0,
        }
    }

    /// Feed one completion (the flow's packet was transmitted) and its
    /// ECN echo. Rolls the control window every `p.window` completions;
    /// returns `true` when this call rolled it.
    pub fn on_completion(&mut self, p: &ClosedLoopParams, marked: bool) -> bool {
        self.window_acks += 1;
        if marked {
            self.window_marks += 1;
            self.marked_total += 1;
        }
        if self.window_acks >= p.window.max(1) {
            self.roll(p);
            true
        } else {
            false
        }
    }

    /// Feed one loss signal (admission drop or shed/evicted packet):
    /// halve the rate immediately, leave slow-start, and count the mark
    /// into the current window so α sees the congestion too.
    pub fn on_loss(&mut self, p: &ClosedLoopParams) {
        self.losses += 1;
        self.slow_start = false;
        self.window_marks = self.window_marks.saturating_add(1);
        self.window_acks = self.window_acks.saturating_add(1);
        self.scale = (self.scale / 2).max(p.min_scale.max(1));
        if self.window_acks >= p.window.max(1) {
            self.roll(p);
        }
    }

    fn roll(&mut self, p: &ClosedLoopParams) {
        let g = p.gain_shift.min(16);
        // F: this window's mark fraction in Q16, then α ← α − α·g + F·g.
        let f_fx =
            ((u64::from(self.window_marks) << 16) / u64::from(self.window_acks.max(1))) as u32;
        self.alpha_fx = self.alpha_fx - (self.alpha_fx >> g) + (f_fx >> g);
        let floor = p.min_scale.max(1);
        if self.window_marks > 0 {
            self.slow_start = false;
            // scale ← scale·(1 − α/2); α is Q16 so the halved product
            // shifts down by 17.
            let dec = ((u64::from(self.scale) * u64::from(self.alpha_fx)) >> 17) as u32;
            self.scale = self.scale.saturating_sub(dec).max(floor);
        } else if self.slow_start {
            self.scale = (self.scale * 2).min(SCALE_ONE);
            if self.scale == SCALE_ONE {
                self.slow_start = false;
            }
        } else {
            self.scale = (self.scale + p.additive).min(SCALE_ONE);
        }
        self.windows += 1;
        self.window_marks = 0;
        self.window_acks = 0;
    }

    /// Current pacing-rate scale (Q10 of the configured rate).
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// Current mark-fraction estimate as a float (diagnostics only).
    pub fn alpha(&self) -> f64 {
        f64::from(self.alpha_fx) / f64::from(ALPHA_ONE)
    }

    /// Control windows rolled so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Stretch a base inter-packet gap by the inverse of the current
    /// scale: full rate leaves it unchanged, scale `SCALE_ONE/k`
    /// multiplies it by `k`. Never returns less than `base`.
    pub fn gap(&self, base: Nanos) -> Nanos {
        // scale ≥ 1 by construction.
        base.saturating_mul(u64::from(SCALE_ONE)) / u64::from(self.scale)
    }
}

/// Aggregate view over all flows' final closed-loop state, for reports
/// and convergence assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopSummary {
    /// Number of flows summarized.
    pub flows: usize,
    /// Mean final rate scale as a fraction of full rate.
    pub mean_scale: f64,
    /// Minimum final rate scale as a fraction of full rate.
    pub min_scale: f64,
    /// Total control windows rolled across all flows.
    pub windows: u64,
    /// Total marked completions observed.
    pub marked: u64,
    /// Total loss signals applied.
    pub losses: u64,
}

/// Summarize a run's final per-flow closed-loop state.
pub fn summarize(sources: &[ClosedLoopSource]) -> ClosedLoopSummary {
    let flows = sources.len();
    let mut sum = 0.0f64;
    let mut min = f64::INFINITY;
    let (mut windows, mut marked, mut losses) = (0u64, 0u64, 0u64);
    for s in sources {
        let frac = f64::from(s.scale) / f64::from(SCALE_ONE);
        sum += frac;
        min = min.min(frac);
        windows += s.windows;
        marked += s.marked_total;
        losses += s.losses;
    }
    ClosedLoopSummary {
        flows,
        mean_scale: if flows == 0 { 0.0 } else { sum / flows as f64 },
        min_scale: if flows == 0 { 0.0 } else { min },
        windows,
        marked,
        losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ClosedLoopParams {
        ClosedLoopParams::default()
    }

    fn run_windows(s: &mut ClosedLoopSource, p: &ClosedLoopParams, windows: u32, marked: bool) {
        for _ in 0..windows * p.window {
            s.on_completion(p, marked);
        }
    }

    #[test]
    fn slow_start_doubles_to_full_rate() {
        let p = p();
        let mut s = ClosedLoopSource::new(&p);
        assert!(s.slow_start);
        assert_eq!(s.scale(), 128);
        run_windows(&mut s, &p, 1, false);
        assert_eq!(s.scale(), 256);
        run_windows(&mut s, &p, 2, false);
        assert_eq!(s.scale(), SCALE_ONE);
        assert!(!s.slow_start, "ramp ends at full rate");
        run_windows(&mut s, &p, 4, false);
        assert_eq!(s.scale(), SCALE_ONE, "saturates, no overshoot");
    }

    #[test]
    fn marks_cut_rate_multiplicatively_and_alpha_tracks() {
        let p = p();
        let mut s = ClosedLoopSource::new(&p);
        run_windows(&mut s, &p, 3, false); // reach full rate
        let before = s.scale();
        run_windows(&mut s, &p, 20, true); // saturated marking
        assert!(s.alpha() > 0.7, "α converges toward 1, got {}", s.alpha());
        assert!(
            s.scale() < before / 4,
            "sustained marks collapse the rate: {} -> {}",
            before,
            s.scale()
        );
        assert!(s.scale() >= p.min_scale, "floored, never zero");
    }

    #[test]
    fn clean_windows_recover_additively_after_marks() {
        let p = p();
        let mut s = ClosedLoopSource::new(&p);
        run_windows(&mut s, &p, 3, false);
        run_windows(&mut s, &p, 10, true);
        let low = s.scale();
        assert!(low < SCALE_ONE / 2);
        // Enough clean windows to climb all the way back.
        let needed = (SCALE_ONE - low).div_ceil(p.additive);
        run_windows(&mut s, &p, needed, false);
        assert_eq!(s.scale(), SCALE_ONE, "additive recovery converges");
        assert!(!s.slow_start, "no slow-start re-entry after marks");
    }

    #[test]
    fn recovery_is_monotone_without_marks() {
        let p = p();
        let mut s = ClosedLoopSource::new(&p);
        run_windows(&mut s, &p, 3, false);
        run_windows(&mut s, &p, 6, true);
        let mut last = s.scale();
        for _ in 0..40 {
            run_windows(&mut s, &p, 1, false);
            assert!(s.scale() >= last, "no oscillation on a quiet channel");
            last = s.scale();
        }
        assert_eq!(last, SCALE_ONE);
    }

    #[test]
    fn loss_halves_immediately() {
        let p = p();
        let mut s = ClosedLoopSource::new(&p);
        run_windows(&mut s, &p, 3, false);
        assert_eq!(s.scale(), SCALE_ONE);
        s.on_loss(&p);
        assert_eq!(s.scale(), SCALE_ONE / 2);
        s.on_loss(&p);
        s.on_loss(&p);
        s.on_loss(&p);
        s.on_loss(&p);
        s.on_loss(&p);
        assert_eq!(s.scale(), p.min_scale, "loss halving floors at min");
        assert!(!s.slow_start);
    }

    #[test]
    fn gap_scales_inversely_with_rate() {
        let p = p();
        let mut s = ClosedLoopSource::new(&p);
        run_windows(&mut s, &p, 3, false);
        assert_eq!(s.gap(1_000), 1_000, "full rate leaves the gap alone");
        run_windows(&mut s, &p, 30, true);
        let slow = s.gap(1_000);
        assert_eq!(slow, 1_000 * u64::from(SCALE_ONE) / u64::from(s.scale()));
        assert!(slow >= 2_000, "backed-off flows stretch their gap");
    }

    #[test]
    fn deterministic_across_replays() {
        let p = p();
        let mut a = ClosedLoopSource::new(&p);
        let mut b = ClosedLoopSource::new(&p);
        for i in 0..1_000u32 {
            let marked = i % 7 == 0 || (300..400).contains(&i);
            a.on_completion(&p, marked);
            b.on_completion(&p, marked);
            if i % 97 == 0 {
                a.on_loss(&p);
                b.on_loss(&p);
            }
        }
        assert_eq!(a.scale(), b.scale());
        assert_eq!(a.alpha(), b.alpha());
        assert_eq!(a.windows(), b.windows());
    }

    #[test]
    fn summary_aggregates_flows() {
        let p = p();
        let mut flows = vec![ClosedLoopSource::new(&p); 4];
        for s in flows.iter_mut().take(2) {
            run_windows(s, &p, 3, false); // full rate
        }
        run_windows(&mut flows[3], &p, 10, true); // beaten down
        let sum = summarize(&flows);
        assert_eq!(sum.flows, 4);
        assert!(sum.min_scale < 0.2, "min sees the marked flow");
        assert!(sum.mean_scale > 0.5, "mean sees the clean flows");
        assert!(sum.windows >= 16);
        assert!(sum.marked >= 80);
        let empty = summarize(&[]);
        assert_eq!(empty.flows, 0);
        assert_eq!(empty.mean_scale, 0.0);
    }
}
