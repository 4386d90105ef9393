//! # eiffel-chaos — deterministic fault injection and overload control
//!
//! The figure harnesses assume a well-behaved world: shards never stall,
//! rings never stay full, timers never slip. This crate is the seeded
//! counterfactual. A [`FaultPlan`] is a list of per-shard fault windows
//! (stalls, timer jitter, consumer slowdown, ring squeezes, completion
//! loss) generated from a seed so the virtual-clock and OS-thread
//! runtimes in `eiffel-qdisc` can replay the *same* plan; an
//! [`AdmitPolicy`] decides what happens when a qdisc backlog exceeds its
//! budget (tail drop, rank-aware priority drop, ECN-style marking); a
//! [`WatchdogConfig`] sizes the heartbeat-based stall detector that
//! drives drain-and-redistribute recovery in the threaded runtime.
//!
//! Everything here is plain data plus cheap pure queries — the injection
//! itself happens at the `Shard::{ingress,softirq,rearm}` seams in
//! `eiffel-qdisc`, which asks a compiled per-shard [`ShardFaults`] view
//! "am I stalled now?", "how late does this timer fire?", and so on.
//! Determinism is load-bearing: every query is a pure function of
//! (seed, shard, time, sequence number), so a failing chaos run can be
//! replayed bit-for-bit from its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod plan;
pub mod watchdog;

pub use admission::{Admission, AdmitPolicy};
pub use plan::{FaultFamily, FaultKind, FaultPlan, FaultWindow, ShardFaults};
pub use watchdog::WatchdogConfig;

/// Everything the runtimes need to run one chaos experiment: the fault
/// plan to replay, the admission policy guarding every qdisc enqueue, and
/// (for the threaded runtime) the watchdog that detects stalled shards.
///
/// The `Default` value is the well-behaved world: no faults, unlimited
/// admission, no watchdog — configs that embed a `ChaosConfig` behave
/// exactly as before when left at default.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Fault windows to replay (empty = no faults).
    pub plan: FaultPlan,
    /// Admission policy applied on every qdisc enqueue.
    pub admit: AdmitPolicy,
    /// Heartbeat watchdog for the threaded runtime; `None` disables
    /// detection and redistribution (faulted shards are simply waited on).
    pub watchdog: Option<WatchdogConfig>,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ChaosConfig {
        /// True when this config changes nothing about a run: no fault
        /// windows, unlimited admission, and no watchdog.
        fn is_noop(&self) -> bool {
            self.plan.is_empty()
                && matches!(self.admit, AdmitPolicy::Unlimited)
                && self.watchdog.is_none()
        }
    }

    #[test]
    fn default_config_is_noop() {
        assert!(ChaosConfig::default().is_noop());
        let c = ChaosConfig {
            plan: FaultPlan::new(7).stall(0, 10, 20),
            ..Default::default()
        };
        assert!(!c.is_noop());
        let c = ChaosConfig {
            admit: AdmitPolicy::TailDrop { cap: 4 },
            ..Default::default()
        };
        assert!(!c.is_noop());
    }
}
