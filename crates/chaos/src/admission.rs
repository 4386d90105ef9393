//! Overload admission policies for qdisc enqueue.
//!
//! The shaping qdiscs historically grew without bound under overload —
//! every emitted packet was admitted and backlog was only limited by the
//! producer's TSQ budget. Under fault injection that assumption breaks
//! (a stalled shard's qdisc keeps receiving redirected or pre-rung
//! packets), so admission becomes an explicit, counted decision:
//!
//! * **tail drop** — classic `pfifo`-style: arriving packet is dropped
//!   once the backlog hits the cap;
//! * **priority drop** — pFabric-style: the *worst-ranked* resident
//!   packet is evicted (via the backend's `dequeue_max` path) to make
//!   room for the arrival, so overload sheds low-value traffic first;
//! * **ECN marking** — RED-lite: arrivals above `mark_at` are admitted
//!   but counted as marked, and dropped only at the hard cap. The mark
//!   rides the packet ([`Packet::ecn`](eiffel_sim::Packet)) back to the
//!   source on the completion path, where closed-loop transports
//!   (`eiffel_workloads::ClosedLoopSource`) react to it.
//!
//! The decision is a pure function of the backlog length so both
//! runtimes apply identical policy, and the caller does the actual
//! dropping/evicting/marking plus counter accounting.
//!
//! ## Memory-pressure tiers
//!
//! When the host runs under a [`MemBudget`](eiffel_core::MemBudget),
//! admission additionally consults the budget's
//! [`DegradeTier`] and tightens itself ([`AdmitPolicy::decide_tiered`]):
//!
//! * **pressure** — mark harder: the ECN threshold drops to a quarter of
//!   its configured value, so closed-loop sources back off while memory
//!   is still available;
//! * **shed** — the effective cap halves and over-cap arrivals evict
//!   the *worst-ranked* resident packet (the bucketed queues'
//!   `dequeue_max` path) instead of tail-dropping, converting memory
//!   pressure into targeted lowest-priority loss;
//! * **refuse** — admission stays in shed mode; refusing *new flow
//!   setup* is the producer's job (it consults the same tier before
//!   establishing a flow), because admission only ever sees packets of
//!   flows that already exist.
//!
//! `Unlimited` ignores the tiers: it exists to model the historical
//! unbounded rig and stays unbounded. Tiering it would silently turn
//! baseline runs into capped ones.

use eiffel_core::DegradeTier;

/// Admission policy applied on every qdisc enqueue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmitPolicy {
    /// Admit everything (the historical behavior).
    #[default]
    Unlimited,
    /// Drop the arriving packet once `cap` packets are resident.
    TailDrop {
        /// Maximum resident packets.
        cap: usize,
    },
    /// At `cap`, evict the worst-ranked resident packet to admit the
    /// arrival; callers fall back to tail drop when the backend has no
    /// max-eviction path.
    PriorityDrop {
        /// Maximum resident packets.
        cap: usize,
    },
    /// Admit-and-mark above `mark_at`, drop at `cap`.
    EcnMark {
        /// Hard cap: arrivals are dropped at this backlog.
        cap: usize,
        /// Marking threshold: arrivals at or above this backlog are
        /// admitted but ECN-marked.
        mark_at: usize,
    },
}

/// What to do with one arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Enqueue normally.
    Enqueue,
    /// Enqueue, counting an ECN mark.
    EnqueueMarked,
    /// Drop the arriving packet.
    DropArriving,
    /// Evict the worst-ranked resident packet, then enqueue the arrival.
    EvictWorst,
}

impl AdmitPolicy {
    /// Decides admission for one arrival given the current backlog (in
    /// packets) of the target qdisc.
    fn decide(&self, backlog: usize) -> Admission {
        match *self {
            AdmitPolicy::Unlimited => Admission::Enqueue,
            AdmitPolicy::TailDrop { cap } => {
                if backlog >= cap.max(1) {
                    Admission::DropArriving
                } else {
                    Admission::Enqueue
                }
            }
            AdmitPolicy::PriorityDrop { cap } => {
                if backlog >= cap.max(1) {
                    Admission::EvictWorst
                } else {
                    Admission::Enqueue
                }
            }
            AdmitPolicy::EcnMark { cap, mark_at } => {
                if backlog >= cap.max(1) {
                    Admission::DropArriving
                } else if backlog >= mark_at {
                    Admission::EnqueueMarked
                } else {
                    Admission::Enqueue
                }
            }
        }
    }

    /// Decides admission for one arrival under a memory-pressure tier.
    /// Under `DegradeTier::Normal` the policy applies as configured; higher
    /// tiers tighten it as described in the module docs.
    pub fn decide_tiered(&self, backlog: usize, tier: DegradeTier) -> Admission {
        match (*self, tier) {
            (_, DegradeTier::Normal) | (AdmitPolicy::Unlimited, _) => self.decide(backlog),
            (AdmitPolicy::EcnMark { cap, mark_at }, DegradeTier::Pressure) => {
                AdmitPolicy::EcnMark {
                    cap,
                    mark_at: (mark_at / 4).max(1),
                }
                .decide(backlog)
            }
            (p, DegradeTier::Pressure) => p.decide(backlog),
            // Shed and Refuse: halve the cap, evict-worst past it, and
            // (for ECN) mark from an eighth of the tightened cap.
            (p, DegradeTier::Shed | DegradeTier::Refuse) => {
                let cap = p.cap().expect("non-Unlimited has a cap").div_ceil(2);
                if backlog >= cap {
                    Admission::EvictWorst
                } else if matches!(p, AdmitPolicy::EcnMark { .. }) && backlog >= (cap / 8).max(1) {
                    Admission::EnqueueMarked
                } else {
                    Admission::Enqueue
                }
            }
        }
    }

    /// The hard backlog cap, if the policy has one.
    pub fn cap(&self) -> Option<usize> {
        match *self {
            AdmitPolicy::Unlimited => None,
            AdmitPolicy::TailDrop { cap }
            | AdmitPolicy::PriorityDrop { cap }
            | AdmitPolicy::EcnMark { cap, .. } => Some(cap.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_admits() {
        assert_eq!(
            AdmitPolicy::Unlimited.decide(usize::MAX),
            Admission::Enqueue
        );
        assert_eq!(AdmitPolicy::Unlimited.cap(), None);
    }

    #[test]
    fn tail_drop_at_cap() {
        let p = AdmitPolicy::TailDrop { cap: 4 };
        assert_eq!(p.decide(3), Admission::Enqueue);
        assert_eq!(p.decide(4), Admission::DropArriving);
        assert_eq!(p.decide(400), Admission::DropArriving);
        assert_eq!(p.cap(), Some(4));
    }

    #[test]
    fn priority_drop_evicts_at_cap() {
        let p = AdmitPolicy::PriorityDrop { cap: 4 };
        assert_eq!(p.decide(3), Admission::Enqueue);
        assert_eq!(p.decide(4), Admission::EvictWorst);
    }

    #[test]
    fn ecn_marks_then_drops() {
        let p = AdmitPolicy::EcnMark { cap: 8, mark_at: 4 };
        assert_eq!(p.decide(3), Admission::Enqueue);
        assert_eq!(p.decide(4), Admission::EnqueueMarked);
        assert_eq!(p.decide(7), Admission::EnqueueMarked);
        assert_eq!(p.decide(8), Admission::DropArriving);
    }

    #[test]
    fn normal_tier_is_identical_to_untiered() {
        let policies = [
            AdmitPolicy::Unlimited,
            AdmitPolicy::TailDrop { cap: 16 },
            AdmitPolicy::PriorityDrop { cap: 16 },
            AdmitPolicy::EcnMark {
                cap: 16,
                mark_at: 8,
            },
        ];
        for p in policies {
            for backlog in 0..40 {
                assert_eq!(
                    p.decide_tiered(backlog, DegradeTier::Normal),
                    p.decide(backlog)
                );
            }
        }
    }

    #[test]
    fn pressure_tier_marks_harder() {
        let p = AdmitPolicy::EcnMark {
            cap: 64,
            mark_at: 32,
        };
        assert_eq!(
            p.decide_tiered(7, DegradeTier::Pressure),
            Admission::Enqueue
        );
        assert_eq!(
            p.decide_tiered(8, DegradeTier::Pressure),
            Admission::EnqueueMarked,
            "mark threshold drops to mark_at/4"
        );
        assert_eq!(
            p.decide_tiered(63, DegradeTier::Pressure),
            Admission::EnqueueMarked,
            "hard cap unchanged under pressure"
        );
        assert_eq!(
            p.decide_tiered(64, DegradeTier::Pressure),
            Admission::DropArriving
        );
        // Non-ECN policies are untouched by the pressure tier.
        let t = AdmitPolicy::TailDrop { cap: 16 };
        assert_eq!(t.decide_tiered(15, DegradeTier::Pressure), t.decide(15));
    }

    #[test]
    fn shed_tier_halves_cap_and_evicts_worst() {
        let p = AdmitPolicy::EcnMark {
            cap: 64,
            mark_at: 32,
        };
        for tier in [DegradeTier::Shed, DegradeTier::Refuse] {
            assert_eq!(p.decide_tiered(3, tier), Admission::Enqueue);
            assert_eq!(
                p.decide_tiered(4, tier),
                Admission::EnqueueMarked,
                "marks from an eighth of the tightened cap"
            );
            assert_eq!(
                p.decide_tiered(32, tier),
                Admission::EvictWorst,
                "over the halved cap, shed lowest priority"
            );
        }
        let t = AdmitPolicy::TailDrop { cap: 16 };
        assert_eq!(t.decide_tiered(8, DegradeTier::Shed), Admission::EvictWorst);
        assert_eq!(t.decide_tiered(7, DegradeTier::Shed), Admission::Enqueue);
    }

    #[test]
    fn unlimited_ignores_tiers() {
        for tier in [
            DegradeTier::Pressure,
            DegradeTier::Shed,
            DegradeTier::Refuse,
        ] {
            assert_eq!(
                AdmitPolicy::Unlimited.decide_tiered(1 << 20, tier),
                Admission::Enqueue
            );
        }
    }

    #[test]
    fn zero_caps_are_clamped_to_one() {
        // A zero cap would otherwise admit nothing and wedge finite
        // workloads silently; clamp to "at least one resident packet".
        assert_eq!(
            AdmitPolicy::TailDrop { cap: 0 }.decide(0),
            Admission::Enqueue
        );
        assert_eq!(AdmitPolicy::TailDrop { cap: 0 }.cap(), Some(1));
    }
}
