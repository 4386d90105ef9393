//! The kernel host model: drives a qdisc with the §5.1.1 workload and
//! meters its CPU into virtual-second bins.
//!
//! Workload: `n` *bulk* flows (neper keeps them continuously backlogged),
//! each with `SO_MAX_PACING_RATE = aggregate/n`; the **qdisc** does the
//! pacing. TCP Small Queues is modelled as a cap on per-flow packets inside
//! the qdisc: a flow emits back-to-back until its budget is exhausted and
//! resumes when a dequeue completion hands budget back (the TSQ callback).
//! This keeps ~`tsq_budget × n` packets inside the shaper at all times —
//! "the maximum amount of calculations", as the paper puts it.
//!
//! CPU accounting (see `eiffel_sim::cpu` for the constants):
//! * enqueue path (syscall context → `System`): modelled lock + stack cost,
//!   plus the *measured* real nanoseconds of the qdisc's enqueue code;
//! * timer path (softirq → `SoftIrq`): modelled IRQ entry per timer fire,
//!   plus the measured real nanoseconds of the dequeue loop;
//! * timers: `Exact` qdiscs arm at `next_deadline()`; `Periodic` qdiscs
//!   (Carousel) fire every wheel slot while packets are pending.

use std::sync::Arc;

use eiffel_chaos::ChaosConfig;
use eiffel_core::MemBudget;
use eiffel_sim::{Nanos, Rate, WallNanos, SECOND};
use eiffel_workloads::ClosedLoopParams;

use crate::qdisc::{ShaperQdisc, TimerStyle};

/// Experiment parameters (defaults = the paper's §5.1.1 setup, scaled in
/// duration).
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Number of paced flows (paper: 20 000).
    pub flows: usize,
    /// Aggregate `SO_MAX_PACING_RATE` across flows (paper: 24 Gbps).
    pub aggregate: Rate,
    /// Virtual duration of the run (paper: 100 s; default 2 s keeps the
    /// harness fast — CPU shares are per-bin, so duration only adds
    /// samples).
    pub duration: Nanos,
    /// CPU accounting bin (paper sampled 1 s with dstat; default 100 ms for
    /// more CDF points per virtual second).
    pub bin: Nanos,
    /// TSQ: max packets a flow may have inside the qdisc.
    pub tsq_budget: u32,
    /// Softirq drain batch: packets released per
    /// [`ShaperQdisc::dequeue_batch`] call (1 = the classic
    /// packet-at-a-time softirq; larger values amortize the qdisc's
    /// min-find across the batch, Figure 13's mechanism on the host side).
    pub batch: usize,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            flows: 20_000,
            aggregate: Rate::gbps(24),
            duration: 2 * SECOND,
            bin: SECOND / 10,
            tsq_budget: 2,
            batch: 1,
        }
    }
}

impl HostConfig {
    /// Each flow's `SO_MAX_PACING_RATE`: the aggregate split evenly, at
    /// least 1 bit/s.
    pub fn per_flow_bps(&self) -> u64 {
        (self.aggregate.as_bps() / self.flows.max(1) as u64).max(1)
    }

    /// Nanoseconds between two MTU (1500 B) packets at `bps` (at least 1).
    pub fn mtu_gap(bps: u64) -> Nanos {
        1_500 * 8 * SECOND / bps.max(1)
    }

    /// The gap the qdisc shapes each flow to: [`mtu_gap`](Self::mtu_gap)
    /// at [`per_flow_bps`](Self::per_flow_bps).
    pub fn pacing_gap(&self) -> Nanos {
        Self::mtu_gap(self.per_flow_bps())
    }
}

/// Parameters of a run on either clock: [`crate::sharded`] executes it
/// under one virtual clock, [`crate::threaded`] on OS threads under the
/// wall clock. `host.flows` and `host.aggregate` are totals across all
/// shards; flows are split by [`eiffel_sim::shard_of`].
///
/// Three fields are read by one clock only, because they *are* that
/// clock: `host.duration` bounds a virtual run, [`wall_limit`](Self::wall_limit)
/// a wall-clock run, and [`ring_capacity`](Self::ring_capacity) sizes the
/// real SPSC rings (the virtual pending ring is bounded only by a
/// `RingSqueeze` fault). The default [`ChaosConfig`] is a no-op — no fault
/// windows, unlimited admission, no watchdog (which only the wall clock
/// needs: the virtual clock *knows* when a stall ends).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Cores: simulated ones, or OS threads. One qdisc instance each.
    pub shards: usize,
    /// The per-host workload (flows, aggregate rate, TSQ budget, softirq
    /// drain batch, meter bin; `duration` on the virtual clock only).
    pub host: HostConfig,
    /// Per-flow in-qdisc packet cap (≥ 1): an arrival finding the flow at
    /// its cap is dropped and the source retries one offered gap later —
    /// qdisc-full backpressure. `None` = never drop. Per-flow (not
    /// per-shard), so drop decisions are shard-count-invariant. On real
    /// threads the drop *count* is scheduling-dependent (a completion may
    /// or may not beat the retry).
    pub flow_cap: Option<u32>,
    /// Finite workload: each flow emits exactly this many packets (cap
    /// drops are retried, not counted) and the run ends when the qdiscs
    /// drain. `None` = flows stay backlogged for the whole run (the
    /// paper's neper workload). A finite workload makes per-flow
    /// packet/byte totals *time-free* invariants — what the
    /// threaded-vs-simulated equivalence suite compares across clocks.
    pub pkts_per_flow: Option<u64>,
    /// Wall-clock bound. For timed runs this *is* the duration; for finite
    /// workloads it is a safety net
    /// ([`ThreadedReport::timed_out`](crate::ThreadedReport::timed_out)
    /// flags it firing).
    pub wall_limit: WallNanos,
    /// Capacity of each data ring (completion rings match).
    pub ring_capacity: usize,
    /// Per-flow packet counts (heavy-tailed workloads): flow `i` emits
    /// `pkts_override[i]`. Takes precedence over `pkts_per_flow`; any
    /// override makes the run finite. Must have `host.flows` entries.
    pub pkts_override: Option<Vec<u64>>,
    /// Per-flow first-emission times (incast waves), nondecreasing in flow
    /// id, `host.flows` entries. `None` = a smooth stagger over one gap.
    pub starts: Option<Vec<Nanos>>,
    /// Fault plan, admission policy and watchdog.
    pub chaos: ChaosConfig,
    /// Closed-loop (DCTCP-style) sources: each flow paces its emissions at
    /// a rate scale driven by the ECN marks and drops echoed on its
    /// completions. `None` = open loop (bulk senders gated only by TSQ).
    pub closed_loop: Option<ClosedLoopParams>,
    /// Memory budget the run charges flow set-up and packet slabs against;
    /// its [`DegradeTier`](eiffel_core::DegradeTier) tightens admission
    /// and, at the refuse tier, blocks new flow set-up. `None` = unbounded.
    pub mem: Option<Arc<MemBudget>>,
    /// Base gap between a source's emissions, decoupled from the shaped
    /// per-flow rate (the qdisc still ranks at `aggregate/flows`). Smaller
    /// than the pacing gap means sustained overload. Governs closed-loop
    /// pacing and the cap-drop and slab-deferral retries; open-loop
    /// senders are TSQ-gated bulk emitters either way. `None` = the pacing
    /// gap (offered equals shaped).
    pub offered_gap: Option<Nanos>,
}

impl RunConfig {
    /// A timed run: flows stay backlogged, no drops, no faults; the run
    /// stops at `host.duration` on the virtual clock and at `wall_limit`
    /// on the wall clock.
    pub fn timed(shards: usize, host: HostConfig, wall_limit: WallNanos) -> Self {
        RunConfig {
            shards,
            host,
            flow_cap: None,
            pkts_per_flow: None,
            wall_limit,
            ring_capacity: 4_096,
            pkts_override: None,
            starts: None,
            chaos: ChaosConfig::default(),
            closed_loop: None,
            mem: None,
            offered_gap: None,
        }
    }

    /// [`timed`](Self::timed) with both clocks bounded by `host.duration`.
    pub fn new(shards: usize, host: HostConfig) -> Self {
        let wall_limit = WallNanos(host.duration);
        Self::timed(shards, host, wall_limit)
    }

    /// A finite run: every flow emits exactly `pkts_per_flow` packets, the
    /// run ends by draining. The wall limit is a generous multiple of the
    /// ideal pacing schedule so a healthy run never hits it.
    pub fn finite(shards: usize, host: HostConfig, pkts_per_flow: u64) -> Self {
        let ideal = host.pacing_gap() * (pkts_per_flow + host.tsq_budget as u64 + 2);
        let wall_limit = WallNanos(ideal.saturating_mul(4) + 2 * SECOND);
        RunConfig {
            pkts_per_flow: Some(pkts_per_flow),
            ..Self::timed(shards, host, wall_limit)
        }
    }

    /// The base gap sources offer at (≥ 1): `offered_gap`, or the pacing
    /// gap.
    pub(crate) fn emit_gap(&self) -> Nanos {
        self.offered_gap.unwrap_or(self.host.pacing_gap()).max(1)
    }

    /// Whether flows have a packet limit (the run ends by draining).
    pub(crate) fn is_finite(&self) -> bool {
        self.pkts_per_flow.is_some() || self.pkts_override.is_some()
    }

    /// Rejects a config no run can execute. Both entry points call it
    /// before building anything.
    ///
    /// # Panics
    /// With a message naming the rule: no flows, a `pkts_override` or
    /// `starts` whose length is not `host.flows`, or `starts` that decrease.
    pub fn validate(&self) {
        let flows = self.host.flows;
        assert!(flows > 0, "run config: host.flows must be at least 1");
        if let Some(v) = &self.pkts_override {
            assert_eq!(v.len(), flows, "run config: pkts_override length");
        }
        if let Some(st) = &self.starts {
            assert_eq!(st.len(), flows, "run config: starts length");
            assert!(
                st.windows(2).all(|w| w[0] <= w[1]),
                "run config: starts must be nondecreasing in flow id"
            );
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Qdisc name.
    pub name: &'static str,
    /// Sorted per-bin total cores (CDF samples, Figure 9).
    pub cores_sorted: Vec<f64>,
    /// Median cores.
    pub median_cores: f64,
    /// Per-bin `(system, softirq)` cores (Figure 10 panels).
    pub breakdown: Vec<(f64, f64)>,
    /// Packets transmitted.
    pub transmitted: u64,
    /// Achieved aggregate rate in bits/s.
    pub achieved_bps: f64,
    /// Timer fires observed.
    pub timer_fires: u64,
    /// Metered calls on the host's core.
    pub meter_calls: u64,
    /// Of those, the calls its sampled meter timed (about one in 16).
    pub meter_timed_calls: u64,
}

impl HostReport {
    /// Share of metered calls the meter timed.
    pub fn meter_timed_share(&self) -> f64 {
        self.meter_timed_calls as f64 / self.meter_calls.max(1) as f64
    }
}

/// When the qdisc wants its timer next, given the current instant.
///
/// `Exact` qdiscs report their own deadline. `Periodic` qdiscs fire at the
/// next *absolute* slot boundary (`period`-aligned), matching a timing
/// wheel's fixed slot clock — phase does not depend on when the first
/// packet arrived, so N sharded wheels tick in lockstep with one big wheel
/// (the shard-equivalence property relies on this).
pub(crate) fn wanted_deadline(qdisc: &impl ShaperQdisc, now: Nanos) -> Option<Nanos> {
    match qdisc.timer_style() {
        TimerStyle::Exact => qdisc.next_deadline(now),
        TimerStyle::Periodic { period } => qdisc
            .next_deadline(now)
            .map(|_| now - now % period + period),
    }
}

/// Runs the workload against `qdisc` and reports metered CPU.
///
/// This is the single-core case of the one shared event loop behind
/// [`crate::sharded`]: one simulated core, one qdisc, one softirq
/// timer, one meter — so the plain and sharded host models can never
/// drift apart. Event rules (documented in [`crate::sharded`]): timers
/// sort before sources at equal virtual time; periodic timers fire on
/// absolute slot boundaries.
pub fn run(qdisc: impl ShaperQdisc, cfg: &HostConfig) -> HostReport {
    let sharded_cfg = RunConfig::new(1, cfg.clone());
    let mut qdisc = Some(qdisc);
    let (report, shards) = crate::sharded::drive(
        |_| qdisc.take().expect("exactly one shard"),
        &sharded_cfg,
        None,
    );
    let meter = &shards[0].meter;
    HostReport {
        name: report.name,
        cores_sorted: meter.total_cores_sorted(),
        median_cores: report.total_median_cores,
        breakdown: meter.cores_per_bin(),
        transmitted: report.transmitted,
        achieved_bps: report.achieved_bps,
        timer_fires: report.timer_fires,
        meter_calls: meter.calls(),
        meter_timed_calls: meter.timed_calls(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carousel::CarouselQdisc;
    use crate::eiffel::EiffelQdisc;
    use crate::fq::FqQdisc;

    fn small_cfg() -> HostConfig {
        HostConfig {
            flows: 200,
            aggregate: Rate::mbps(240), // 1.2 Mbps per flow, as in the paper
            duration: SECOND / 2,
            bin: SECOND / 10,
            tsq_budget: 2,
            batch: 1,
        }
    }

    /// All three qdiscs must deliver the configured aggregate rate — the
    /// paper compares CPU at *equal shaping behaviour*.
    #[test]
    fn all_qdiscs_achieve_the_aggregate_rate() {
        let cfg = small_cfg();
        let want = cfg.aggregate.as_bps() as f64;
        for report in [
            run(EiffelQdisc::new(20_000, 100_000), &cfg),
            run(CarouselQdisc::new(1 << 20, 2_000), &cfg),
            run(FqQdisc::new(), &cfg),
        ] {
            let rel = (report.achieved_bps - want).abs() / want;
            assert!(
                rel < 0.05,
                "{}: achieved {:.1} Mbps vs {} Mbps configured",
                report.name,
                report.achieved_bps / 1e6,
                want / 1e6
            );
        }
    }

    /// Carousel must fire its timer far more often than Eiffel (periodic
    /// slots vs exact deadlines) — the mechanism behind Figure 10 (right).
    #[test]
    fn carousel_fires_many_more_timers_than_eiffel() {
        let cfg = small_cfg();
        let e = run(EiffelQdisc::new(20_000, 100_000), &cfg);
        let c = run(CarouselQdisc::new(1 << 20, 2_000), &cfg);
        assert!(
            c.timer_fires > 5 * e.timer_fires,
            "carousel {} vs eiffel {} timer fires",
            c.timer_fires,
            e.timer_fires
        );
    }

    #[test]
    fn pacing_gap_is_one_mtu_at_the_per_flow_rate() {
        let cfg = small_cfg(); // 240 Mbps over 200 flows
        assert_eq!(cfg.per_flow_bps(), 1_200_000);
        assert_eq!(cfg.pacing_gap(), 10_000_000, "1500 B at 1.2 Mbps = 10 ms");
        assert_eq!(HostConfig::mtu_gap(0), HostConfig::mtu_gap(1), "rate ≥ 1");
        // A constructor must not divide by zero before `validate` can name
        // the problem.
        let empty = HostConfig { flows: 0, ..cfg };
        assert_eq!(empty.per_flow_bps(), 240_000_000);
    }

    #[test]
    #[should_panic(expected = "host.flows must be at least 1")]
    fn validate_rejects_a_host_without_flows() {
        let host = HostConfig {
            flows: 0,
            ..small_cfg()
        };
        // Either clock: `run` is the virtual entry point's 1-shard case.
        run(EiffelQdisc::new(20_000, 100_000), &host);
    }

    #[test]
    #[should_panic(expected = "pkts_override length")]
    fn validate_rejects_a_short_pkts_override() {
        let mut cfg = RunConfig::new(2, small_cfg());
        cfg.pkts_override = Some(vec![3; 199]);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "starts length")]
    fn validate_rejects_a_long_starts_table() {
        let mut cfg = RunConfig::new(2, small_cfg());
        cfg.starts = Some(vec![0; 201]);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "starts must be nondecreasing")]
    fn validate_rejects_decreasing_starts() {
        let mut cfg = RunConfig::new(2, small_cfg());
        let mut starts = vec![5; 200];
        starts[100] = 4;
        cfg.starts = Some(starts);
        cfg.validate();
    }

    #[test]
    fn validate_accepts_full_tables_on_both_entry_points() {
        let mut cfg = RunConfig::finite(2, small_cfg(), 1);
        cfg.pkts_override = Some(vec![1; 200]);
        cfg.starts = Some((0..200).map(|i| i / 50 * 1_000).collect());
        cfg.validate();
        let sim = crate::run_sharded(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
        let thr = crate::run_threaded(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
        assert_eq!((sim.transmitted, thr.transmitted), (200, 200));
    }

    /// The TSQ mechanism must keep the shaper loaded (the worst-case
    /// backlog the paper wants) yet never deadlock the sources.
    #[test]
    fn tsq_does_not_deadlock_sources() {
        let mut cfg = small_cfg();
        cfg.tsq_budget = 1;
        let r = run(EiffelQdisc::new(20_000, 100_000), &cfg);
        let want = cfg.aggregate.as_bps() as f64;
        assert!(
            (r.achieved_bps - want).abs() / want < 0.1,
            "budget-1 still paces"
        );
    }
}
