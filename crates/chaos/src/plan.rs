//! Seeded fault plans and their compiled per-shard views.
//!
//! A [`FaultPlan`] is a flat list of [`FaultWindow`]s — "shard 2 is
//! stalled from t=3ms to t=7ms", "shard 0's timers fire up to 200µs late
//! between t=1ms and t=4ms". Plans are built either explicitly through
//! the builder methods (tests pin exact scenarios) or by [`FaultPlan::storm`],
//! which derives a whole storm of windows from `(seed, intensity)` so a
//! sweep can turn one scalar knob and stay reproducible.
//!
//! Runtimes never scan the flat list on the hot path: they call
//! [`FaultPlan::compile`] once per shard and query the resulting
//! [`ShardFaults`], which holds only that shard's windows sorted by start
//! time (typically zero to a handful — a linear scan is cheaper than any
//! index).

use eiffel_sim::{Nanos, SplitMix64};

/// What a fault window does to its shard while active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The shard makes no progress at all: no ingress, no softirq, no
    /// timer fires. Models a descheduled/paused core. In the threaded
    /// runtime the shard thread parks; its rings fill and the producer
    /// sees backpressure, and (if configured) the watchdog redistributes
    /// new work to live shards.
    Stall,
    /// Softirq timers fire late by a deterministic per-fire jitter in
    /// `[0, max_delay]`. Models timer coalescing / late hrtimer callbacks.
    TimerJitter {
        /// Upper bound on the added delay per fire.
        max_delay: Nanos,
    },
    /// Each packet released by softirq costs an extra `per_packet_ns` of
    /// consumer time. Models a slow downstream (NIC descriptor pressure,
    /// cache-cold peer) without stopping progress entirely.
    SlowConsumer {
        /// Added cost per released packet.
        per_packet_ns: Nanos,
    },
    /// The shard's ingress ring behaves as if its capacity were
    /// `min(real, capacity)`. Models memory pressure / shrunken descriptor
    /// rings; the producer sees early backpressure.
    RingSqueeze {
        /// Effective ring capacity during the window (≥ 1 enforced at
        /// query time).
        capacity: usize,
    },
    /// One in `drop_1_in` completion messages from this shard is lost
    /// (deterministically, by completion sequence number). Models a lossy
    /// completion path; without reconciliation the producer's TSQ budget
    /// leaks and flows wedge. Threaded runtime only — the virtual-clock
    /// runtime has no completion ring to lose messages on.
    CompletionLoss {
        /// Drop every `drop_1_in`-th completion (≥ 2 enforced at query
        /// time).
        drop_1_in: u32,
    },
}

/// A fault applied to one shard over a half-open time window `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// Target shard index.
    pub shard: usize,
    /// Window start (inclusive), in the runtime's clock domain — virtual
    /// nanoseconds for `sharded::drive`, wall nanoseconds since run start
    /// for the threaded runtime. Plans are clock-agnostic; the same plan
    /// replays on both.
    pub from: Nanos,
    /// Window end (exclusive). Windows always end: an injected stall is a
    /// pause, never a permanent kill, so every plan terminates.
    pub until: Nanos,
    /// What the window does.
    pub kind: FaultKind,
}

impl FaultWindow {
    fn active(&self, now: Nanos) -> bool {
        self.from <= now && now < self.until
    }
}

/// The five fault families, for storm generation and sweep axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFamily {
    /// Shard pause windows.
    Stall,
    /// Late timer fires.
    TimerJitter,
    /// Per-packet consumer slowdown.
    SlowConsumer,
    /// Ring capacity squeezes.
    RingSqueeze,
    /// Lost completion messages.
    CompletionLoss,
}

impl FaultFamily {
    /// All five families, in a stable order.
    pub const ALL: [FaultFamily; 5] = [
        FaultFamily::Stall,
        FaultFamily::TimerJitter,
        FaultFamily::SlowConsumer,
        FaultFamily::RingSqueeze,
        FaultFamily::CompletionLoss,
    ];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultFamily::Stall => "stall",
            FaultFamily::TimerJitter => "timer-jitter",
            FaultFamily::SlowConsumer => "slow-consumer",
            FaultFamily::RingSqueeze => "ring-squeeze",
            FaultFamily::CompletionLoss => "completion-loss",
        }
    }
}

/// A seeded list of fault windows.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the deterministic per-fire draws (timer jitter) — kept
    /// even for hand-built plans so replays are pinned by the plan alone.
    pub seed: u64,
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// Empty plan with a seed for per-fire draws.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            windows: Vec::new(),
        }
    }

    /// True when no windows are present (fast-path guard for runtimes).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// All windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    fn push(mut self, shard: usize, from: Nanos, until: Nanos, kind: FaultKind) -> Self {
        assert!(
            from < until,
            "fault window must be non-empty: {from}..{until}"
        );
        self.windows.push(FaultWindow {
            shard,
            from,
            until,
            kind,
        });
        self
    }

    /// Adds a stall window.
    pub fn stall(self, shard: usize, from: Nanos, until: Nanos) -> Self {
        self.push(shard, from, until, FaultKind::Stall)
    }

    /// Adds a timer-jitter window.
    pub fn timer_jitter(self, shard: usize, from: Nanos, until: Nanos, max_delay: Nanos) -> Self {
        self.push(shard, from, until, FaultKind::TimerJitter { max_delay })
    }

    /// Adds a consumer-slowdown window.
    pub fn slow_consumer(
        self,
        shard: usize,
        from: Nanos,
        until: Nanos,
        per_packet_ns: Nanos,
    ) -> Self {
        self.push(
            shard,
            from,
            until,
            FaultKind::SlowConsumer { per_packet_ns },
        )
    }

    /// Adds a ring-squeeze window.
    pub fn ring_squeeze(self, shard: usize, from: Nanos, until: Nanos, capacity: usize) -> Self {
        self.push(shard, from, until, FaultKind::RingSqueeze { capacity })
    }

    /// Adds a completion-loss window.
    pub fn completion_loss(self, shard: usize, from: Nanos, until: Nanos, drop_1_in: u32) -> Self {
        self.push(shard, from, until, FaultKind::CompletionLoss { drop_1_in })
    }

    /// Generates a storm of fault windows over `[0, horizon)` across
    /// `shards` shards, scaled by `intensity` in `[0, 1]`, drawing only
    /// from the given `families`. Zero intensity yields an empty plan; at
    /// intensity 1 roughly a third of each shard's timeline is under some
    /// fault. Fully deterministic in `(seed, shards, horizon, intensity,
    /// families)`.
    pub fn storm(
        seed: u64,
        shards: usize,
        horizon: Nanos,
        intensity: f64,
        families: &[FaultFamily],
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "intensity must be in [0,1]"
        );
        let mut plan = FaultPlan::new(seed);
        if intensity == 0.0 || horizon == 0 || families.is_empty() {
            return plan;
        }
        let mut rng = SplitMix64::new(seed ^ 0xc4a0_5eed);
        for shard in 0..shards {
            for &family in families {
                // 1–3 windows per (shard, family), more at higher intensity.
                let count = 1 + rng.next_below(1 + (intensity * 2.0) as u64) as usize;
                for _ in 0..count {
                    // Window length: up to intensity/3 of the horizon so even
                    // a full-intensity storm leaves every shard live most of
                    // the time (stalls must be recoverable, not kills).
                    let max_len = ((horizon as f64) * intensity / 3.0) as u64;
                    let len = 1 + rng.next_below(max_len.max(1));
                    let from = rng.next_below(horizon.saturating_sub(len).max(1));
                    let until = (from + len).min(horizon);
                    if from >= until {
                        continue;
                    }
                    let kind = match family {
                        FaultFamily::Stall => FaultKind::Stall,
                        FaultFamily::TimerJitter => FaultKind::TimerJitter {
                            max_delay: 1 + (intensity * 200_000.0) as u64, // ≤ 200µs
                        },
                        FaultFamily::SlowConsumer => FaultKind::SlowConsumer {
                            per_packet_ns: 1 + (intensity * 2_000.0) as u64, // ≤ 2µs/pkt
                        },
                        FaultFamily::RingSqueeze => FaultKind::RingSqueeze {
                            capacity: 2 + rng.next_below(14) as usize, // 2..16 slots
                        },
                        FaultFamily::CompletionLoss => FaultKind::CompletionLoss {
                            // Higher intensity → more frequent loss (1-in-16
                            // down to 1-in-2).
                            drop_1_in: (16.0 - intensity * 14.0) as u32,
                        },
                    };
                    plan.windows.push(FaultWindow {
                        shard,
                        from,
                        until,
                        kind,
                    });
                }
            }
        }
        plan
    }

    /// Compiles the per-shard view used on the hot path.
    pub fn compile(&self, shard: usize) -> ShardFaults {
        let mut windows: Vec<FaultWindow> = self
            .windows
            .iter()
            .filter(|w| w.shard == shard)
            .copied()
            .collect();
        windows.sort_by_key(|w| (w.from, w.until));
        ShardFaults {
            shard,
            seed: self.seed,
            windows,
        }
    }

    /// Every window edge (start or end), sorted and deduplicated — the
    /// "fault boundaries" at which conservation audits run.
    pub fn boundaries(&self) -> Vec<Nanos> {
        let mut edges: Vec<Nanos> = self
            .windows
            .iter()
            .flat_map(|w| [w.from, w.until])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

/// One shard's compiled fault view. All queries are pure functions of
/// `(plan seed, shard, now, sequence numbers)`, so both runtimes replay
/// identical fault behavior for identical plans.
#[derive(Debug, Clone)]
pub struct ShardFaults {
    shard: usize,
    seed: u64,
    windows: Vec<FaultWindow>,
}

impl ShardFaults {
    /// True when this shard has no windows at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Is the shard inside a stall window at `now`?
    pub fn stalled(&self, now: Nanos) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::Stall) && w.active(now))
    }

    /// End of the stall window covering `now`, if any. When nested or
    /// overlapping stalls cover `now`, the latest end wins.
    pub fn stall_until(&self, now: Nanos) -> Option<Nanos> {
        self.windows
            .iter()
            .filter(|w| matches!(w.kind, FaultKind::Stall) && w.active(now))
            .map(|w| w.until)
            .max()
    }

    /// Extra delay for the `fire_seq`-th timer fire at `now`: zero outside
    /// jitter windows, otherwise a deterministic draw in `[0, max_delay]`
    /// keyed by `(seed, shard, fire_seq)`.
    pub fn timer_extra_delay(&self, now: Nanos, fire_seq: u64) -> Nanos {
        let max_delay = self
            .windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::TimerJitter { max_delay } if w.active(now) => Some(max_delay),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        if max_delay == 0 {
            return 0;
        }
        let mut rng =
            SplitMix64::new(self.seed ^ (self.shard as u64).wrapping_mul(0x9e37_79b9) ^ fire_seq);
        rng.next_below(max_delay + 1)
    }

    /// Extra consumer cost per released packet at `now` (sum of active
    /// slowdown windows — overlapping slowdowns compound).
    pub fn consumer_penalty_ns(&self, now: Nanos) -> Nanos {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::SlowConsumer { per_packet_ns } if w.active(now) => Some(per_packet_ns),
                _ => None,
            })
            .sum()
    }

    /// Effective ingress-ring capacity at `now` given the real capacity
    /// `base` (tightest active squeeze wins; never below 1).
    pub fn ring_capacity(&self, now: Nanos, base: usize) -> usize {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::RingSqueeze { capacity } if w.active(now) => Some(capacity.max(1)),
                _ => None,
            })
            .min()
            .unwrap_or(base)
            .min(base)
    }

    /// Should the `seq`-th completion message sent at `now` be lost?
    pub fn lose_completion(&self, now: Nanos, seq: u64) -> bool {
        self.windows.iter().any(|w| match w.kind {
            FaultKind::CompletionLoss { drop_1_in } if w.active(now) => {
                seq % u64::from(drop_1_in.max(2)) == 0
            }
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let f = FaultPlan::new(1).stall(0, 10, 20).compile(0);
        assert!(!f.stalled(9));
        assert!(f.stalled(10));
        assert!(f.stalled(19));
        assert!(!f.stalled(20));
        assert_eq!(f.stall_until(15), Some(20));
        assert_eq!(f.stall_until(20), None);
    }

    #[test]
    fn compile_filters_by_shard() {
        let plan = FaultPlan::new(1).stall(0, 0, 10).stall(2, 5, 15);
        assert!(plan.compile(0).stalled(5));
        assert!(!plan.compile(1).stalled(5));
        assert!(plan.compile(2).stalled(5));
        assert!(plan.compile(7).is_empty());
    }

    #[test]
    fn overlapping_stalls_take_latest_end() {
        let f = FaultPlan::new(1).stall(0, 0, 10).stall(0, 5, 30).compile(0);
        assert_eq!(f.stall_until(6), Some(30));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let f = FaultPlan::new(42).timer_jitter(1, 100, 200, 50).compile(1);
        for fire in 0..100 {
            let d = f.timer_extra_delay(150, fire);
            assert!(d <= 50, "delay {d} over bound");
            assert_eq!(d, f.timer_extra_delay(150, fire), "same fire, same delay");
        }
        assert_eq!(f.timer_extra_delay(99, 0), 0, "outside window");
        assert_eq!(f.timer_extra_delay(200, 0), 0, "window end is exclusive");
        // Not all fires get the same delay (the draw is per-fire).
        let distinct: std::collections::HashSet<_> =
            (0..100).map(|k| f.timer_extra_delay(150, k)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn slowdowns_compound_and_squeezes_tighten() {
        let f = FaultPlan::new(1)
            .slow_consumer(0, 0, 100, 10)
            .slow_consumer(0, 50, 100, 5)
            .ring_squeeze(0, 0, 100, 8)
            .ring_squeeze(0, 50, 100, 4)
            .compile(0);
        assert_eq!(f.consumer_penalty_ns(10), 10);
        assert_eq!(f.consumer_penalty_ns(60), 15);
        assert_eq!(f.ring_capacity(10, 1024), 8);
        assert_eq!(f.ring_capacity(60, 1024), 4);
        assert_eq!(f.ring_capacity(10, 4), 4, "squeeze never grows the ring");
        assert_eq!(
            f.ring_capacity(200, 1024),
            1024,
            "no squeeze outside windows"
        );
    }

    #[test]
    fn completion_loss_is_periodic_in_seq() {
        let f = FaultPlan::new(1).completion_loss(0, 0, 100, 4).compile(0);
        let lost: Vec<u64> = (0..16).filter(|&s| f.lose_completion(50, s)).collect();
        assert_eq!(lost, vec![0, 4, 8, 12]);
        assert!(!f.lose_completion(100, 0), "outside window nothing is lost");
    }

    #[test]
    fn storm_is_deterministic_and_scales_with_intensity() {
        let a = FaultPlan::storm(9, 4, 1_000_000, 0.5, &FaultFamily::ALL);
        let b = FaultPlan::storm(9, 4, 1_000_000, 0.5, &FaultFamily::ALL);
        assert_eq!(a.windows(), b.windows());
        assert!(!a.is_empty());
        assert!(FaultPlan::storm(9, 4, 1_000_000, 0.0, &FaultFamily::ALL).is_empty());
        // Every window is inside the horizon and targets a valid shard.
        for w in a.windows() {
            assert!(w.shard < 4);
            assert!(w.from < w.until && w.until <= 1_000_000);
        }
        // Single-family storms only contain that family.
        let s = FaultPlan::storm(9, 2, 1_000_000, 1.0, &[FaultFamily::RingSqueeze]);
        assert!(s
            .windows()
            .iter()
            .all(|w| matches!(w.kind, FaultKind::RingSqueeze { .. })));
    }

    #[test]
    fn boundaries_are_sorted_dedup_edges() {
        let plan = FaultPlan::new(1).stall(0, 10, 20).stall(1, 10, 30);
        assert_eq!(plan.boundaries(), vec![10, 20, 30]);
    }

    impl ShardFaults {
        /// The next window edge strictly after `after`, if any.
        fn next_change(&self, after: Nanos) -> Option<Nanos> {
            self.windows
                .iter()
                .flat_map(|w| [w.from, w.until])
                .filter(|&t| t > after)
                .min()
        }
    }

    #[test]
    fn next_change_walks_edges() {
        let f = FaultPlan::new(1).stall(0, 10, 20).compile(0);
        assert_eq!(f.next_change(0), Some(10));
        assert_eq!(f.next_change(10), Some(20));
        assert_eq!(f.next_change(20), None);
    }
}
