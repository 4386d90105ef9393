//! Bounded-memory accounting with graceful degradation tiers.
//!
//! Eiffel's deployment target is a first-party server carrying hundreds
//! of thousands to millions of flows per machine (paper §1, §5.1.1);
//! at that scale the scheduler's failure mode of interest is not a bad
//! sort — it is the kernel OOM-killing the host because flow and packet
//! state grew without bound. This module is the workspace-wide memory
//! accountant the host runtimes charge for everything whose size scales
//! with load: flow setup state, in-flight packet (skb-like) slabs,
//! bucket arrays, and SPSC ring capacity.
//!
//! [`MemBudget`] never allocates anything itself; it is a ledger. The
//! rule that makes the bound *hard* is structural: only the producer
//! side mints flows and packets, and it must [`MemBudget::try_charge`]
//! **before** creating the object — a refused charge means the object is
//! simply not created (the emission is deferred, or the flow setup is
//! refused). Consumers release on disposal. Since nothing is ever built
//! without a successful charge, `in_use ≤ budget` holds at every
//! instant, and `peak()` is an exact high-water mark rather than a
//! sampled approximation.
//!
//! Degradation is tiered by utilization rather than cliff-edged
//! ([`DegradeTier`]): under pressure the admission layer ECN-marks
//! harder (sources back off sooner), past that it sheds the
//! lowest-priority backlog via the bucketed queues' `dequeue_max` path,
//! and as a last resort the host refuses new flow setup. The process
//! degrades; it never OOMs.

use core::sync::atomic::{AtomicU64, Ordering};

/// Modeled resident cost of one in-flight packet: a 2 KiB skb-like slab
/// object (header + payload room), the granularity Linux itself charges
/// socket buffers at.
pub const PKT_SLAB_BYTES: u64 = 2048;

/// Modeled resident cost of one established flow: socket + flow-table
/// entry + scheduler per-flow state.
pub const FLOW_SETUP_BYTES: u64 = 512;

/// Degradation tier derived from budget utilization, ordered by
/// severity. Each tier subsumes the measures of the ones before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum DegradeTier {
    /// Utilization below the pressure threshold: no intervention.
    Normal = 0,
    /// First tier: ECN-mark harder (lower mark threshold) so closed-loop
    /// sources back off before memory becomes critical.
    Pressure = 1,
    /// Second tier: shed lowest-priority backlog (`dequeue_max` /
    /// `evict_worst`) to convert memory pressure into targeted loss.
    Shed = 2,
    /// Last tier: refuse new flow setup; existing flows keep draining.
    Refuse = 3,
}

impl DegradeTier {
    /// Number of tiers (for per-tier counter arrays).
    pub const COUNT: usize = 4;

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DegradeTier::Normal => "normal",
            DegradeTier::Pressure => "pressure",
            DegradeTier::Shed => "shed",
            DegradeTier::Refuse => "refuse",
        }
    }

    /// Tier from a counter-array index (inverse of `as usize`).
    pub fn from_index(i: usize) -> DegradeTier {
        match i {
            0 => DegradeTier::Normal,
            1 => DegradeTier::Pressure,
            2 => DegradeTier::Shed,
            _ => DegradeTier::Refuse,
        }
    }
}

/// Shared memory ledger: a fixed byte budget, an atomic in-use count,
/// and an exact high-water mark. Thread-safe; the host runtimes share
/// one instance across the producer and every shard via `Arc`.
#[derive(Debug)]
pub struct MemBudget {
    budget: u64,
    pressure_at: u64,
    shed_at: u64,
    refuse_at: u64,
    in_use: AtomicU64,
    peak: AtomicU64,
}

impl MemBudget {
    /// Default tier thresholds as percent of budget: pressure at 60%,
    /// shed at 80%, refuse at 95%.
    const DEFAULT_THRESHOLDS: (u64, u64, u64) = (60, 80, 95);

    /// A budget of `bytes` with the default tier thresholds.
    pub fn new(bytes: u64) -> MemBudget {
        let (p, s, r) = Self::DEFAULT_THRESHOLDS;
        MemBudget::with_thresholds(bytes, p, s, r)
    }

    /// A budget with explicit tier thresholds in percent of `bytes`
    /// (must be ordered `pressure ≤ shed ≤ refuse ≤ 100`).
    pub fn with_thresholds(bytes: u64, pressure: u64, shed: u64, refuse: u64) -> MemBudget {
        assert!(
            pressure <= shed && shed <= refuse && refuse <= 100,
            "tier thresholds must be ordered percentages"
        );
        MemBudget {
            budget: bytes,
            pressure_at: bytes / 100 * pressure + bytes % 100 * pressure / 100,
            shed_at: bytes / 100 * shed + bytes % 100 * shed / 100,
            refuse_at: bytes / 100 * refuse + bytes % 100 * refuse / 100,
            in_use: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently charged.
    pub fn in_use(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Exact high-water mark of `in_use` over the ledger's lifetime.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Try to charge `bytes`; returns `false` (charging nothing) if the
    /// charge would push `in_use` past the budget. The caller must not
    /// create the object on `false`.
    pub fn try_charge(&self, bytes: u64) -> bool {
        let mut cur = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = match cur.checked_add(bytes) {
                Some(n) if n <= self.budget => n,
                _ => return false,
            };
            match self
                .in_use
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Release `bytes` previously charged. Releasing more than is in
    /// use indicates an accounting bug and panics in debug builds.
    pub fn release(&self, bytes: u64) {
        let prev = self.in_use.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(
            prev >= bytes,
            "MemBudget::release of {bytes} > in_use {prev}"
        );
    }

    /// Current degradation tier from utilization. Pure read; the tier
    /// can differ between two calls if other threads charge/release in
    /// between, which is fine — admission treats it as a hint per
    /// decision, and the hard bound is enforced by `try_charge` alone.
    pub fn tier(&self) -> DegradeTier {
        let used = self.in_use.load(Ordering::Relaxed);
        if used >= self.refuse_at {
            DegradeTier::Refuse
        } else if used >= self.shed_at {
            DegradeTier::Shed
        } else if used >= self.pressure_at {
            DegradeTier::Pressure
        } else {
            DegradeTier::Normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_and_peak_are_exact() {
        let m = MemBudget::new(1_000);
        assert!(m.try_charge(400));
        assert!(m.try_charge(600));
        assert!(!m.try_charge(1), "budget is a hard ceiling");
        assert_eq!(m.in_use(), 1_000);
        m.release(600);
        assert_eq!(m.in_use(), 400);
        assert!(m.try_charge(100));
        assert_eq!(m.peak(), 1_000, "peak is the high-water mark");
    }

    #[test]
    fn tiers_follow_utilization() {
        let m = MemBudget::new(100);
        assert_eq!(m.tier(), DegradeTier::Normal);
        assert!(m.try_charge(60));
        assert_eq!(m.tier(), DegradeTier::Pressure);
        assert!(m.try_charge(20));
        assert_eq!(m.tier(), DegradeTier::Shed);
        assert!(m.try_charge(15));
        assert_eq!(m.tier(), DegradeTier::Refuse);
        m.release(95);
        assert_eq!(m.tier(), DegradeTier::Normal);
    }

    #[test]
    fn thresholds_avoid_overflow_on_large_budgets() {
        // 100 GiB budget: naive bytes*pct would overflow u64 at ~184 EB,
        // but the split-form multiply must stay exact well below that.
        let m = MemBudget::with_thresholds(100 << 30, 60, 80, 95);
        assert_eq!(m.pressure_at, (100u64 << 30) / 100 * 60);
        assert!(m.try_charge(m.budget()));
        assert_eq!(m.tier(), DegradeTier::Refuse);
    }

    #[test]
    fn tier_labels_and_indices_round_trip() {
        for i in 0..DegradeTier::COUNT {
            let t = DegradeTier::from_index(i);
            assert_eq!(t as usize, i);
            assert!(!t.label().is_empty());
        }
        assert!(DegradeTier::Normal < DegradeTier::Refuse);
    }

    #[test]
    fn concurrent_charges_never_exceed_budget() {
        use std::sync::Arc;
        let m = Arc::new(MemBudget::new(10_000));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut held = 0u64;
                    for _ in 0..10_000 {
                        if m.try_charge(7) {
                            held += 7;
                            if held > 70 {
                                m.release(70);
                                held -= 70;
                            }
                        }
                        assert!(m.in_use() <= m.budget());
                    }
                    m.release(held);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(m.in_use(), 0);
        assert!(m.peak() <= m.budget());
    }
}
