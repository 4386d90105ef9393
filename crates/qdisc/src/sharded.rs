//! The sharded multi-core host model: N simulated cores, one shaping qdisc
//! each, under one virtual clock.
//!
//! Modern hosts do not funnel every socket through one qdisc instance: the
//! stack hashes flows to per-core queues (RSS/XPS style) and each core runs
//! its own scheduler — Carousel's deployment model ("a single queue per
//! core") and the scale-out shape Eiffel's §5 end-host numbers assume.
//!
//! This module is the **virtual-clock driver** of the one pipeline
//! (DESIGN.md, "One source model + one stage body, two drivers"): sources
//! are the `FlowSource` model (`source.rs`), each core is a `Shard` stage body,
//! and what lives here is only what the virtual clock needs — the event
//! calendar ([`eiffel_sim::BucketedEventQueue`], the same FFS-indexed
//! structure `dcsim` runs on), the pending rings stalled cores park
//! arrivals in, and the conservation audits at fault boundaries.
//! [`crate::host::run`] is its 1-shard case.
//!
//! * **Stable flow→shard hashing** ([`eiffel_sim::shard_of`]): a flow's
//!   packets always meet the same qdisc instance, so an N-shard host is
//!   *per-flow identical* (release times, byte counts, drop decisions) to
//!   the single-shard host — pinned by the shard-equivalence property test.
//! * **Per-shard timers and CPU meters**: each simulated core arms its own
//!   softirq timer from its own qdisc's `next_deadline` and meters its own
//!   enqueue/dequeue nanoseconds. The meters are
//!   [sampled](eiffel_sim::CpuMeter::sampled): they time about one call in
//!   16 per category, in short bursts, and charge each burst for the calls
//!   it stands for, because two clock reads per call cost more than the
//!   qdisc work they bracket.
//!   No virtual-time decision reads a meter, so every count, release and
//!   drop is the same as under a census meter; only the cores' sampling
//!   noise grows ([`ShardStats::meter_timed_share`] reports the sample).
//! * **Batched dequeue**: the softirq drain goes through
//!   [`ShaperQdisc::dequeue_batch`] with [`HostConfig::batch`](crate::HostConfig).
//!
//! Event ordering: at equal virtual time, timer (softirq) events run before
//! source (syscall) events — softirq context preempts the sender path on a
//! real core. Unlike the plain arrival-order tie-break of
//! [`eiffel_sim::EventQueue`], this rule is shard-count-invariant, which is
//! what makes the N-vs-1 equivalence exact rather than statistical.

use std::collections::VecDeque;

use eiffel_chaos::{Admission, AdmitPolicy, ShardFaults};
use eiffel_core::DegradeTier;
use eiffel_sim::cpu::{IRQ_ENTRY_NS, LOCK_NS, PER_PACKET_STACK_NS};
use eiffel_sim::sched::MAX_SLOT_SHIFT;
use eiffel_sim::{
    shard_of, BucketedEventQueue, CpuCategory, CpuMeter, EventScheduler, FlowId, Nanos, Packet,
    WallNanos,
};
use eiffel_workloads::ClosedLoopSummary;

use crate::host::{wanted_deadline, RunConfig};
use crate::qdisc::ShaperQdisc;
use crate::source::{release_slabs, tier_of, Credit, FlowSource, Offer};
use crate::threaded::CompletionKind;

/// Parameters of a sharded run: the one [`RunConfig`], read on the virtual
/// clock (`host.duration` bounds the run; `wall_limit`, `ring_capacity`
/// and the watchdog are the wall clock's).
pub type ShardedConfig = RunConfig;

/// Admission outcomes split by the [`DegradeTier`] they were decided
/// under — the per-tier marks/drops/shed view the overload reports
/// surface. Indexed by `tier as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Arrivals admitted unmarked at each tier.
    pub admitted: [u64; DegradeTier::COUNT],
    /// Arrivals admitted with an ECN mark at each tier.
    pub marked: [u64; DegradeTier::COUNT],
    /// Arrivals dropped at each tier.
    pub dropped: [u64; DegradeTier::COUNT],
    /// Worst-ranked residents shed (evicted) at each tier.
    pub shed: [u64; DegradeTier::COUNT],
}

impl TierCounters {
    /// Element-wise accumulate.
    pub fn merge(&mut self, o: &TierCounters) {
        for t in 0..DegradeTier::COUNT {
            self.admitted[t] += o.admitted[t];
            self.marked[t] += o.marked[t];
            self.dropped[t] += o.dropped[t];
            self.shed[t] += o.shed[t];
        }
    }

    /// Number of distinct tiers that saw any admission decision.
    pub fn tiers_exercised(&self) -> usize {
        (0..DegradeTier::COUNT)
            .filter(|&t| self.admitted[t] + self.marked[t] + self.dropped[t] + self.shed[t] > 0)
            .count()
    }

    /// Total decisions recorded at one tier.
    #[cfg(test)]
    fn total_at(&self, tier: DegradeTier) -> u64 {
        let t = tier as usize;
        self.admitted[t] + self.marked[t] + self.dropped[t] + self.shed[t]
    }
}

/// Power-of-two-bucketed sojourn histogram: bucket `b` holds released
/// packets whose in-qdisc sojourn fell in `[2^b, 2^{b+1})` ns. 64
/// buckets cover the whole `u64` range in 512 bytes per shard, enough
/// resolution for the p99-style tail the overload figures report.
#[derive(Debug, Clone)]
pub struct SojournHist {
    counts: [u64; 64],
    total: u64,
}

impl Default for SojournHist {
    fn default() -> Self {
        SojournHist {
            counts: [0; 64],
            total: 0,
        }
    }
}

impl SojournHist {
    fn bucket(ns: u64) -> usize {
        63 - (ns | 1).leading_zeros() as usize
    }

    /// Record one released packet's sojourn.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Element-wise accumulate.
    pub fn merge(&mut self, o: &SojournHist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.total += o.total;
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Upper edge of the bucket holding the `q`-quantile sample (e.g.
    /// `quantile(0.99)` bounds the p99 sojourn from above within a
    /// factor of 2). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return if b >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (b + 1)) - 1
                };
            }
        }
        u64::MAX
    }

    /// Fraction of samples at or below `ns`, with linear interpolation
    /// inside the straddling bucket — the SLO-goodput numerator.
    pub fn frac_le(&self, ns: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut covered = 0.0f64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = if b == 0 { 0u64 } else { 1u64 << b };
            let hi = if b >= 63 { u64::MAX } else { 1u64 << (b + 1) };
            if hi <= ns {
                covered += c as f64;
            } else if lo < ns {
                let span = (hi - lo) as f64;
                covered += c as f64 * (ns - lo) as f64 / span;
            }
        }
        covered / self.total as f64
    }
}

/// One simulated core's slice of the run.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Flows hashed to this shard.
    pub flows: usize,
    /// Packets this shard's qdisc released.
    pub transmitted: u64,
    /// This shard's achieved rate in bits/s.
    pub achieved_bps: f64,
    /// Arrivals dropped at this shard's cap.
    pub dropped: u64,
    /// Timer fires on this core.
    pub timer_fires: u64,
    /// Median cores of this core's meter (system + softirq).
    pub median_cores: f64,
    /// Metered calls (enqueues, evictions, drains) on this core.
    pub meter_calls: u64,
    /// Of those, the calls the meter timed: all of them on the wall
    /// clock, about one in 16 on the virtual clock.
    pub meter_timed_calls: u64,
    /// Peak packets inside this shard's qdisc.
    pub peak_backlog: usize,
    /// Arrivals dropped by the admission policy at this shard's qdisc
    /// (tail drops, plus priority-drop fallbacks on maxless backends).
    pub admission_dropped: u64,
    /// Arrivals admitted but ECN-marked.
    pub ecn_marked: u64,
    /// Resident packets evicted by priority-drop admission.
    pub evicted: u64,
    /// Mean in-qdisc sojourn of released packets, ns (0 when none).
    pub mean_latency_ns: f64,
    /// Worst in-qdisc sojourn of a released packet, ns.
    pub max_latency_ns: u64,
    /// Admission decisions split by the memory-pressure tier they were
    /// made under (all in the `Normal` column without a [`MemBudget`](eiffel_core::MemBudget)).
    pub tiers: TierCounters,
    /// Sojourn histogram of this shard's released packets.
    pub sojourn: SojournHist,
}

impl ShardStats {
    /// Share of metered calls the meter timed (1 for a census meter; 0
    /// before any call).
    pub fn meter_timed_share(&self) -> f64 {
        self.meter_timed_calls as f64 / self.meter_calls.max(1) as f64
    }
}

/// The merged result: per-shard slices plus host-level aggregates.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Qdisc name (all shards run the same discipline).
    pub name: &'static str,
    /// Per-core slices, indexed by shard.
    pub per_shard: Vec<ShardStats>,
    /// Total packets released.
    pub transmitted: u64,
    /// Aggregate achieved rate in bits/s.
    pub achieved_bps: f64,
    /// Total arrivals dropped.
    pub dropped: u64,
    /// Total timer fires across cores.
    pub timer_fires: u64,
    /// Sum of per-shard median cores — the host's CPU bill.
    pub total_median_cores: f64,
    /// Peak packets inside all qdiscs combined.
    pub peak_backlog: usize,
    /// Total arrivals dropped by admission policy.
    pub admission_dropped: u64,
    /// Total arrivals ECN-marked.
    pub ecn_marked: u64,
    /// Total priority-drop evictions.
    pub evicted: u64,
    /// Emissions deferred because a stalled/squeezed shard's pending ring
    /// was full (the virtual-clock analogue of producer ring-full retries).
    pub ring_full_retries: u64,
    /// Conservation audits performed (one per fault boundary crossed, plus
    /// one at end of run). Every audit asserted
    /// `emitted = delivered + dropped + in-flight` exactly.
    pub audits: u64,
    /// Packets minted over the whole run. Conservation over report
    /// totals: `emitted = transmitted + admission_dropped + evicted +
    /// residue` exactly.
    pub emitted: u64,
    /// Packets still inside qdiscs or pending rings when the duration
    /// ended (a drained finite run reports 0).
    pub residue: u64,
    /// New-flow setups refused at the memory budget's refuse tier (the
    /// flow retries with jittered backoff).
    pub setup_refused: u64,
    /// Emissions deferred because the packet-slab charge would exceed
    /// the memory budget (retried like a full ring).
    pub mem_deferrals: u64,
    /// High-water mark of the memory ledger, bytes (0 without a budget).
    pub mem_peak: u64,
    /// Final closed-loop source state, when closed-loop sources ran.
    pub cl: Option<ClosedLoopSummary>,
}

/// Packet-level record of a run, for equivalence testing.
#[derive(Debug, Clone, Default)]
pub struct ShardTrace {
    /// `(release time, flow, bytes)` per transmitted packet, in release
    /// order (cross-flow order at equal times is shard-dependent; per-flow
    /// projections are not).
    pub releases: Vec<(Nanos, FlowId, u32)>,
    /// `(drop time, flow, per-flow arrival index)` per dropped arrival.
    pub drops: Vec<(Nanos, FlowId, u64)>,
}

impl ShardTrace {
    /// Release sequence of one flow: `(time, bytes)` in release order.
    pub fn flow_releases(&self, flow: FlowId) -> Vec<(Nanos, u32)> {
        self.releases
            .iter()
            .filter(|(_, f, _)| *f == flow)
            .map(|&(t, _, b)| (t, b))
            .collect()
    }

    /// Drop sequence of one flow: `(time, arrival index)` in drop order.
    pub fn flow_drops(&self, flow: FlowId) -> Vec<(Nanos, u64)> {
        self.drops
            .iter()
            .filter(|(_, f, _)| *f == flow)
            .map(|&(t, _, seq)| (t, seq))
            .collect()
    }
}

/// Event kinds; [`Ev::kind`] is the calendar's tie class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Shard `shard`'s stall window ended: drain its pending ingress ring.
    Resume { shard: u32 },
    /// Shard `shard`'s softirq timer (epoch guards stale timers).
    Timer { shard: u32, epoch: u64 },
    /// A flow has (possibly) TSQ budget: emit its next bulk packet.
    Source(FlowId),
}

impl Ev {
    /// Which kind runs first at one instant: events fire in `(time, kind,
    /// seq)` order — deterministic and shard-count-invariant (see the
    /// module docs).
    fn kind(&self) -> u8 {
        match self {
            // A resuming core first drains the ring its producers filled
            // while it was paused, then its pended timer interrupt fires.
            Ev::Resume { .. } => 0,
            Ev::Timer { .. } => 1, // softirq preempts the syscall path
            Ev::Source(_) => 2,
        }
    }
}

/// Wheel slots of the driver's event calendar: 512 KiB of slot heads.
const CALENDAR_SLOTS: usize = 1 << 16;

/// Emit gaps the calendar's horizon must span. A source re-asks within a
/// few gaps: one (`Emit.again`, cap drops, slab deferrals), up to 1.5
/// (ring-full backoff), up to 12 (a refused set-up: 8 gaps plus up to 4 of
/// jitter), and under closed-loop pacing the gap stretched by
/// `SCALE_ONE / scale` — 5.3 gaps at `overload_100k`'s entry scale. Events
/// past the horizon still fire exactly, from the overflow heap, but that
/// heap is what the calendar is here to avoid: a 67 ms horizon on
/// `overload_100k` (40 ms gaps) sent most re-asks there and gained nothing.
const HORIZON_GAPS: u64 = 16;

/// The calendar for `cfg`: the narrowest power-of-two slot that lets
/// [`CALENDAR_SLOTS`] slots span [`HORIZON_GAPS`] emit gaps (16 µs slots, a
/// 1.07 s horizon, at `overload_100k`'s 40 ms). Wider slots only grow the
/// front each slot is sorted in.
fn calendar(cfg: &RunConfig) -> BucketedEventQueue<Ev> {
    let span = cfg.emit_gap().saturating_mul(HORIZON_GAPS);
    let width = span.div_ceil(CALENDAR_SLOTS as u64).next_power_of_two();
    let shift = width.trailing_zeros().min(MAX_SLOT_SHIFT);
    BucketedEventQueue::with_slot_shift(shift, CALENDAR_SLOTS)
}

/// One core's live state and its pipeline stages — crate-visible so
/// [`crate::host::run`] can assemble a `HostReport` from the 1-shard case
/// and [`crate::threaded`] can run the *same stage code* on a real OS
/// thread. [`drive`] sequences the stages under the virtual event
/// calendar; the threaded shard loop sequences them under the wall clock.
/// Neither has a private copy of the enqueue/softirq logic, so the models
/// cannot drift.
pub(crate) struct Shard<Q> {
    pub(crate) qdisc: Q,
    pub(crate) meter: CpuMeter,
    timer_epoch: u64,
    timer_armed_at: Option<Nanos>,
    pub(crate) timer_fires: u64,
    pub(crate) transmitted: u64,
    pub(crate) tx_bytes: u64,
    pub(crate) dropped: u64,
    pub(crate) peak_backlog: usize,
    pub(crate) flows: usize,
    pub(crate) admission_dropped: u64,
    pub(crate) ecn_marked: u64,
    pub(crate) evicted: u64,
    pub(crate) lat_sum_ns: u128,
    pub(crate) lat_max_ns: u64,
    pub(crate) tiers: TierCounters,
    pub(crate) sojourn: SojournHist,
}

/// Outcome of admitting one arrival at a shard's qdisc — what the caller
/// needs for TSQ/backlog bookkeeping. The shard's own admission counters
/// are updated inside [`Shard::ingress`].
pub(crate) enum IngressVerdict {
    /// Admitted.
    Queued,
    /// Admitted and ECN-marked (counter-only: the model carries the
    /// congestion *signal*, not a sender response loop).
    Marked,
    /// Refused at the door — tail drop, or priority-drop falling back on a
    /// backend without a max path. The packet was freed; the caller must
    /// refund its flow's TSQ budget (a kernel drop frees the skb).
    DroppedArrival,
    /// Admitted by evicting the worst-ranked resident; the caller must
    /// refund the *victim's* flow.
    Evicted(Packet),
}

impl<Q: ShaperQdisc> Shard<Q> {
    /// A fresh core around one qdisc instance and its CPU meter.
    pub(crate) fn new(qdisc: Q, meter: CpuMeter) -> Self {
        Shard {
            qdisc,
            meter,
            timer_epoch: 0,
            timer_armed_at: None,
            timer_fires: 0,
            transmitted: 0,
            tx_bytes: 0,
            dropped: 0,
            peak_backlog: 0,
            flows: 0,
            admission_dropped: 0,
            ecn_marked: 0,
            evicted: 0,
            lat_sum_ns: 0,
            lat_max_ns: 0,
            tiers: TierCounters::default(),
            sojourn: SojournHist::default(),
        }
    }

    /// Syscall-path stage: modelled lock + stack constants, admission
    /// decision (tightened by the memory-pressure `tier`), measured
    /// enqueue (and eviction), backlog peak bookkeeping. With
    /// [`AdmitPolicy::Unlimited`] this is exactly the pre-chaos
    /// unconditional-enqueue path; a marked admission sets the packet's
    /// ECN bit so the completion path can echo it to the source.
    pub(crate) fn ingress(
        &mut self,
        now: Nanos,
        mut pkt: Packet,
        pacing_bps: u64,
        admit: &AdmitPolicy,
        tier: DegradeTier,
    ) -> IngressVerdict {
        self.meter
            .charge(now, CpuCategory::System, LOCK_NS + PER_PACKET_STACK_NS);
        let t = tier as usize;
        let verdict = match admit.decide_tiered(self.qdisc.len(), tier) {
            Admission::Enqueue => {
                self.tiers.admitted[t] += 1;
                IngressVerdict::Queued
            }
            Admission::EnqueueMarked => {
                self.ecn_marked += 1;
                self.tiers.marked[t] += 1;
                pkt.ecn = true;
                IngressVerdict::Marked
            }
            Admission::DropArriving => {
                self.admission_dropped += 1;
                self.tiers.dropped[t] += 1;
                return IngressVerdict::DroppedArrival;
            }
            Admission::EvictWorst => {
                let Shard { meter, qdisc, .. } = self;
                let victim = meter.measure(now, CpuCategory::System, || qdisc.evict_worst());
                match victim {
                    Some(v) => {
                        self.evicted += 1;
                        self.tiers.shed[t] += 1;
                        self.tiers.admitted[t] += 1; // the arrival goes in
                        IngressVerdict::Evicted(v)
                    }
                    None => {
                        // Backend without a max path (`evict_worst`'s
                        // default): degrade to tail-dropping the arrival.
                        self.admission_dropped += 1;
                        self.tiers.dropped[t] += 1;
                        return IngressVerdict::DroppedArrival;
                    }
                }
            }
        };
        let Shard { meter, qdisc, .. } = self;
        meter.measure(now, CpuCategory::System, || {
            qdisc.enqueue(now, pkt, pacing_bps);
        });
        self.peak_backlog = self.peak_backlog.max(self.qdisc.len());
        verdict
    }

    /// Arms — or tightens, if the new deadline is earlier — the softirq
    /// timer after an arrival. Returns the deadline when (re)armed; the
    /// epoch bump invalidates any timer already in flight for this shard.
    pub(crate) fn tighten_timer(&mut self, now: Nanos) -> Option<Nanos> {
        let want = wanted_deadline(&self.qdisc, now)?.max(now);
        if self.timer_armed_at.map_or(true, |at| want < at) {
            self.timer_epoch += 1;
            self.timer_armed_at = Some(want);
            return Some(want);
        }
        None
    }

    /// Whether the armed timer's deadline has arrived — the threaded
    /// runtime's poll-side equivalent of the calendar delivering a timer
    /// event.
    pub(crate) fn timer_due(&self, now: Nanos) -> bool {
        self.timer_armed_at.is_some_and(|at| now >= at)
    }

    /// Whether this event's epoch matches the live timer (stale timers
    /// never fired in hardware).
    pub(crate) fn timer_epoch_is(&self, epoch: u64) -> bool {
        self.timer_epoch == epoch
    }

    /// The live timer epoch — the jitter fault keys its per-fire seeded
    /// draw on it so both runtimes delay the same fire by the same amount.
    pub(crate) fn timer_epoch(&self) -> u64 {
        self.timer_epoch
    }

    /// Softirq stage: modelled IRQ entry, measured batched drain of
    /// everything due, transmit accounting. Clears `released` and leaves
    /// the drained packets in it for the caller's flow bookkeeping.
    pub(crate) fn softirq(&mut self, now: Nanos, batch: usize, released: &mut Vec<Packet>) {
        self.timer_armed_at = None;
        self.timer_fires += 1;
        self.meter.charge(now, CpuCategory::SoftIrq, IRQ_ENTRY_NS);
        released.clear();
        let Shard { meter, qdisc, .. } = self;
        meter.measure(now, CpuCategory::SoftIrq, || loop {
            if qdisc.dequeue_batch(now, batch, released) == 0 {
                break;
            }
        });
        for p in released.iter() {
            self.transmitted += 1;
            self.tx_bytes += p.bytes as u64;
            let sojourn = now.saturating_sub(p.created_at);
            self.lat_sum_ns += sojourn as u128;
            self.lat_max_ns = self.lat_max_ns.max(sojourn);
            self.sojourn.record(sojourn);
        }
    }

    /// Re-arms after a softirq at a strictly future deadline. Returns the
    /// deadline when armed (i.e. when the qdisc still holds packets).
    pub(crate) fn rearm(&mut self, now: Nanos) -> Option<Nanos> {
        let want = wanted_deadline(&self.qdisc, now)?.max(now + 1);
        self.timer_epoch += 1;
        self.timer_armed_at = Some(want);
        Some(want)
    }

    /// This core's slice of the report, its rate taken over `secs`.
    pub(crate) fn stats(&self, secs: f64) -> ShardStats {
        ShardStats {
            flows: self.flows,
            transmitted: self.transmitted,
            achieved_bps: self.tx_bytes as f64 * 8.0 / secs,
            dropped: self.dropped,
            timer_fires: self.timer_fires,
            median_cores: self.meter.median_cores(),
            meter_calls: self.meter.calls(),
            meter_timed_calls: self.meter.timed_calls(),
            peak_backlog: self.peak_backlog,
            admission_dropped: self.admission_dropped,
            ecn_marked: self.ecn_marked,
            evicted: self.evicted,
            mean_latency_ns: if self.transmitted > 0 {
                self.lat_sum_ns as f64 / self.transmitted as f64
            } else {
                0.0
            },
            max_latency_ns: self.lat_max_ns,
            tiers: self.tiers,
            sojourn: self.sojourn.clone(),
        }
    }
}

/// Runs the sharded host, returning the merged report.
///
/// `mk` builds shard `i`'s qdisc instance — every shard must get the same
/// discipline and geometry (per-flow behaviour depends on it).
pub fn run_sharded<Q: ShaperQdisc>(
    mk: impl FnMut(usize) -> Q,
    cfg: &ShardedConfig,
) -> ShardedReport {
    drive(mk, cfg, None).0
}

/// [`run_sharded`] plus the packet-level [`ShardTrace`] — the equivalence
/// tests' entry point.
pub fn run_sharded_traced<Q: ShaperQdisc>(
    mk: impl FnMut(usize) -> Q,
    cfg: &ShardedConfig,
) -> (ShardedReport, ShardTrace) {
    let mut trace = ShardTrace::default();
    let (report, _) = drive(mk, cfg, Some(&mut trace));
    (report, trace)
}

/// The virtual-clock driver's live state: what the three event handlers
/// share.
struct Virtual<'a, Q> {
    cfg: &'a RunConfig,
    per_flow_bps: u64,
    batch: usize,
    shards: Vec<Shard<Q>>,
    /// Stable flow→shard map, fixed before any packet moves.
    home: Vec<u32>,
    faults: Vec<ShardFaults>,
    /// The ingress rings stalled cores park arrivals in (empty without a
    /// stall fault).
    pending: Vec<VecDeque<Packet>>,
    events: BucketedEventQueue<Ev>,
    src: FlowSource<'a>,
    trace: Option<&'a mut ShardTrace>,
    released: Vec<Packet>,
    total_backlog: usize,
    peak_total_backlog: usize,
    ring_full_retries: u64,
}

impl<Q: ShaperQdisc> Virtual<'_, Q> {
    /// Schedules `ev` at `at`, tie-broken by its kind.
    #[inline]
    fn schedule(&mut self, at: Nanos, ev: Ev) {
        self.events.schedule_class(at, ev.kind(), ev);
    }

    /// Conservation audit: every minted packet is transmitted, dropped by
    /// admission, evicted, in a qdisc, or parked in a pending ring.
    fn audit(&self, now: Nanos) {
        let disposed: u64 = self
            .shards
            .iter()
            .map(|sh| sh.transmitted + sh.admission_dropped + sh.evicted)
            .sum();
        assert_eq!(
            self.src.emitted(),
            disposed + self.residue(),
            "packet conservation violated at t={now}"
        );
    }

    /// Packets inside qdiscs and pending rings.
    fn residue(&self) -> u64 {
        (self.total_backlog + self.pending.iter().map(|p| p.len()).sum::<usize>()) as u64
    }

    /// A packet of `flow` left the system: on this clock disposal and
    /// completion coincide, so the slab frees, the source gets its budget
    /// and signal back, and a throttled flow's TSQ callback is a source
    /// event at the same instant.
    fn dispose(&mut self, now: Nanos, flow: FlowId, kind: CompletionKind) {
        release_slabs(self.cfg.mem.as_deref(), 1);
        if self.src.complete(flow, kind) == Credit::Wake {
            self.schedule(now, Ev::Source(flow));
        }
    }

    /// Admission + enqueue of one minted packet at shard `s` — the direct
    /// ingress path and the post-stall ring drain.
    fn admit(&mut self, now: Nanos, s: usize, pkt: Packet) {
        let flow = pkt.flow;
        let (admit, tier) = (&self.cfg.chaos.admit, tier_of(self.cfg.mem.as_deref()));
        match self.shards[s].ingress(now, pkt, self.per_flow_bps, admit, tier) {
            IngressVerdict::Queued | IngressVerdict::Marked => {
                self.total_backlog += 1;
                self.peak_total_backlog = self.peak_total_backlog.max(self.total_backlog);
            }
            IngressVerdict::DroppedArrival => self.dispose(now, flow, CompletionKind::Dropped),
            // The arrival went in and the worst resident came out: the
            // backlog is net unchanged; only the victim's flow hears of it.
            IngressVerdict::Evicted(victim) => {
                self.dispose(now, victim.flow, CompletionKind::Dropped)
            }
        }
    }

    /// Schedules shard `s`'s (re)armed timer, plus any injected jitter.
    fn arm(&mut self, s: usize, want: Nanos) {
        let epoch = self.shards[s].timer_epoch();
        let at = want + self.faults[s].timer_extra_delay(want, epoch);
        let shard = s as u32;
        self.schedule(at, Ev::Timer { shard, epoch });
    }

    /// Flow `id` has (possibly) something to send: ask the source model and
    /// turn its verdict into events.
    fn source(&mut self, now: Nanos, id: FlowId) {
        let s = self.home[id as usize] as usize;
        let stall_end = self.faults[s].stall_until(now);
        // Only a stalled core's ring can fill: outside a stall the virtual
        // consumer is infinitely fast.
        let room = || {
            stall_end.is_none()
                || self.pending[s].len() < self.faults[s].ring_capacity(now, usize::MAX)
        };
        let retry_at = match self.src.offer(id, now, room) {
            Offer::Idle => return,
            Offer::Paced(at) | Offer::MemDeferred(at) => at,
            // Wake-up policy of this clock: a refused set-up retries much
            // later, jittered, so a recovering budget is not stampeded.
            Offer::SetupRefused => {
                now + self.src.retry_in(id, self.src.emit_gap().saturating_mul(8))
            }
            // The stalled shard's ring is full: back off around one gap,
            // jittered so synchronized retries do not return in lockstep.
            Offer::RingFull => {
                self.ring_full_retries += 1;
                now + self.src.retry_in(id, self.src.emit_gap())
            }
            Offer::CapDrop { seq, retry_at } => {
                self.shards[s].dropped += 1;
                if let Some(t) = self.trace.as_deref_mut() {
                    t.drops.push((now, id, seq));
                }
                retry_at
            }
            Offer::Emit { pkt, again } => {
                if let Some(until) = stall_end {
                    // Core paused: park in the ingress ring; the first
                    // parked packet schedules the resume drain.
                    self.pending[s].push_back(pkt);
                    if self.pending[s].len() == 1 {
                        self.schedule(until, Ev::Resume { shard: s as u32 });
                    }
                } else {
                    self.admit(now, s, pkt);
                    if let Some(want) = self.shards[s].tighten_timer(now) {
                        self.arm(s, want);
                    }
                }
                match again {
                    Some(at) => at,
                    None => return,
                }
            }
        };
        self.schedule(retry_at, Ev::Source(id));
    }

    /// Shard `s`'s stall window ended: drain its ingress ring in arrival
    /// order through admission.
    fn resume(&mut self, now: Nanos, s: usize) {
        if let Some(until) = self.faults[s].stall_until(now) {
            // An overlapping window extended the stall: stay parked.
            self.schedule(until, Ev::Resume { shard: s as u32 });
            return;
        }
        while let Some(pkt) = self.pending[s].pop_front() {
            self.admit(now, s, pkt);
        }
        if let Some(want) = self.shards[s].tighten_timer(now) {
            self.arm(s, want);
        }
    }

    /// Shard `s`'s softirq timer fired.
    fn timer(&mut self, now: Nanos, s: usize, epoch: u64) {
        if !self.shards[s].timer_epoch_is(epoch) {
            return; // superseded timer, never fired in hardware
        }
        if let Some(until) = self.faults[s].stall_until(now) {
            // The core is paused: the hrtimer interrupt pends in hardware
            // and delivers when the core resumes.
            let shard = s as u32;
            self.schedule(until, Ev::Timer { shard, epoch });
            return;
        }
        let mut released = std::mem::take(&mut self.released);
        self.shards[s].softirq(now, self.batch, &mut released);
        // Slow consumer: extra per-packet CPU in softirq context.
        let penalty = self.faults[s]
            .consumer_penalty_ns(now)
            .saturating_mul(released.len() as u64);
        if penalty > 0 {
            let extra = WallNanos::from_nanos(penalty);
            self.shards[s]
                .meter
                .charge(now, CpuCategory::SoftIrq, extra);
        }
        for p in released.drain(..) {
            self.total_backlog -= 1;
            if let Some(t) = self.trace.as_deref_mut() {
                t.releases.push((now, p.flow, p.bytes));
            }
            self.dispose(now, p.flow, CompletionKind::delivered(p.ecn));
        }
        self.released = released;
        // Re-arm; a slow consumer cannot fire again before its delayed
        // drain would have finished.
        if let Some(want) = self.shards[s].rearm(now) {
            self.arm(s, want.max(now + penalty));
        }
    }
}

/// The one event loop behind both host models: N simulated cores under one
/// virtual clock ([`crate::host::run`] is the 1-shard case).
///
/// Fault semantics on the virtual clock (all from `cfg.chaos.plan`,
/// compiled to per-shard [`ShardFaults`]):
///
/// * **Stall**: the core is paused — arrivals park in a per-shard pending
///   ring (bounded by the squeezed ring capacity; emissions that find it
///   full back off an offered gap without consuming budget, counted in
///   [`ShardedReport::ring_full_retries`]) and pended timer interrupts
///   deliver at stall end. An `Ev::Resume` drains the ring in arrival
///   order through admission when the stall lifts.
/// * **RingSqueeze**: bounds the pending ring. Outside a stall the virtual
///   consumer is infinitely fast, so a squeeze alone cannot fill the ring —
///   its bite shows when combined with stalls (and on the threaded runtime,
///   where the ring is a real SPSC queue).
/// * **TimerJitter**: a seeded extra delay added when a timer is armed —
///   same draw for the same (seed, shard, epoch) in both runtimes.
/// * **SlowConsumer**: per-released-packet CPU penalty charged to the
///   softirq meter; the next re-arm is pushed past the time the slow drain
///   would have finished.
/// * **CompletionLoss** is a threaded-runtime fault (it corrupts the real
///   completion rings); the virtual clock has no completion transport to
///   corrupt, so it is a no-op here.
///
/// Packet conservation — `minted = transmitted + admission_dropped +
/// evicted + in-qdisc + in-ring` — is asserted every time virtual time
/// crosses a fault-window boundary, and once at end of run.
pub(crate) fn drive<'a, Q: ShaperQdisc>(
    mut mk: impl FnMut(usize) -> Q,
    cfg: &'a RunConfig,
    trace: Option<&'a mut ShardTrace>,
) -> (ShardedReport, Vec<Shard<Q>>) {
    cfg.validate();
    let host = &cfg.host;
    let n_shards = cfg.shards.max(1);
    let mut shards: Vec<Shard<Q>> = (0..n_shards)
        .map(|i| Shard::new(mk(i), CpuMeter::sampled(host.bin, host.duration)))
        .collect();
    let home: Vec<u32> = (0..host.flows as u32)
        .map(|f| shard_of(f, n_shards) as u32)
        .collect();
    for &h in &home {
        shards[h as usize].flows += 1;
    }
    let mut v = Virtual {
        cfg,
        per_flow_bps: host.per_flow_bps(),
        batch: host.batch.max(1),
        shards,
        home,
        faults: (0..n_shards).map(|s| cfg.chaos.plan.compile(s)).collect(),
        pending: (0..n_shards).map(|_| VecDeque::new()).collect(),
        events: calendar(cfg),
        // This clock staggers first emissions over one *pacing* gap.
        src: FlowSource::new(cfg, host.pacing_gap()),
        trace,
        released: Vec::new(),
        total_backlog: 0,
        peak_total_backlog: 0,
        ring_full_retries: 0,
    };
    for id in 0..host.flows as u32 {
        v.schedule(v.src.start_at(id), Ev::Source(id));
    }

    // The books must balance exactly whenever a fault engages or clears,
    // and after the calendar drains too.
    let boundaries = cfg.chaos.plan.boundaries();
    let mut audits = 0;
    while let Some((now, ev)) = v.events.pop() {
        if now >= host.duration {
            break;
        }
        while boundaries.get(audits).is_some_and(|&b| b <= now) {
            v.audit(now);
            audits += 1;
        }
        match ev {
            Ev::Source(id) => v.source(now, id),
            Ev::Resume { shard } => v.resume(now, shard as usize),
            Ev::Timer { shard, epoch } => v.timer(now, shard as usize, epoch),
        }
    }
    v.audit(host.duration);

    let residue = v.residue();
    v.src.close_books(residue);
    let secs = host.duration as f64 / 1e9;
    let per_shard: Vec<ShardStats> = v.shards.iter().map(|sh| sh.stats(secs)).collect();
    let report = ShardedReport {
        name: v.shards[0].qdisc.name(),
        transmitted: per_shard.iter().map(|s| s.transmitted).sum(),
        achieved_bps: per_shard.iter().map(|s| s.achieved_bps).sum(),
        dropped: per_shard.iter().map(|s| s.dropped).sum(),
        timer_fires: per_shard.iter().map(|s| s.timer_fires).sum(),
        total_median_cores: per_shard.iter().map(|s| s.median_cores).sum(),
        peak_backlog: v.peak_total_backlog,
        admission_dropped: per_shard.iter().map(|s| s.admission_dropped).sum(),
        ecn_marked: per_shard.iter().map(|s| s.ecn_marked).sum(),
        evicted: per_shard.iter().map(|s| s.evicted).sum(),
        ring_full_retries: v.ring_full_retries,
        audits: audits as u64 + 1,
        emitted: v.src.emitted(),
        residue,
        setup_refused: v.src.setup_refused,
        mem_deferrals: v.src.mem_deferrals,
        mem_peak: cfg.mem.as_ref().map_or(0, |m| m.peak()),
        cl: v.src.summary(),
        per_shard,
    };
    (report, v.shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eiffel::EiffelQdisc;
    use crate::host::HostConfig;
    use eiffel_core::MemBudget;
    use eiffel_sim::{Rate, SECOND};
    use eiffel_workloads::ClosedLoopParams;
    use std::sync::Arc;

    fn small_host(batch: usize) -> HostConfig {
        HostConfig {
            flows: 200,
            aggregate: Rate::mbps(240),
            duration: SECOND / 2,
            bin: SECOND / 10,
            tsq_budget: 2,
            batch,
        }
    }

    #[test]
    fn sharded_host_achieves_the_aggregate_rate() {
        for shards in [1usize, 2, 4] {
            let cfg = ShardedConfig::new(shards, small_host(1));
            let r = run_sharded(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
            let want = cfg.host.aggregate.as_bps() as f64;
            let rel = (r.achieved_bps - want).abs() / want;
            assert!(
                rel < 0.05,
                "{shards} shards: {:.1} vs {:.1} Mbps",
                r.achieved_bps / 1e6,
                want / 1e6
            );
            assert_eq!(r.dropped, 0);
            assert_eq!(r.per_shard.len(), shards);
            let flows: usize = r.per_shard.iter().map(|s| s.flows).sum();
            assert_eq!(flows, cfg.host.flows, "every flow has a home shard");
        }
    }

    #[test]
    fn single_shard_matches_the_plain_host_model() {
        // `host::run` IS the 1-shard case of `drive` — the counters must
        // agree exactly (only real-time CPU metering may differ).
        let host = small_host(1);
        let plain = crate::host::run(EiffelQdisc::new(20_000, 100_000), &host);
        let sharded = run_sharded(
            |_| EiffelQdisc::new(20_000, 100_000),
            &ShardedConfig::new(1, host),
        );
        assert_eq!(plain.transmitted, sharded.transmitted);
        assert_eq!(plain.timer_fires, sharded.timer_fires);
        assert_eq!(plain.achieved_bps, sharded.achieved_bps);
    }

    #[test]
    fn flow_cap_produces_drops_and_backpressure_recovers() {
        let mut cfg = ShardedConfig::new(2, small_host(1));
        cfg.host.tsq_budget = 4; // budget above the cap ⇒ cap binds
        cfg.flow_cap = Some(1);
        let (r, trace) = run_sharded_traced(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
        assert!(r.dropped > 0, "cap 1 under budget 4 must drop");
        assert_eq!(r.dropped as usize, trace.drops.len());
        // Dropped flows keep making progress (backpressure retries).
        let want = cfg.host.aggregate.as_bps() as f64;
        assert!(
            r.achieved_bps > 0.5 * want,
            "throughput collapsed: {:.1} Mbps",
            r.achieved_bps / 1e6
        );
    }

    #[test]
    fn finite_workload_sends_exactly_pkts_per_flow_and_drains() {
        let mut cfg = ShardedConfig::new(3, small_host(1));
        cfg.pkts_per_flow = Some(7);
        let (r, trace) = run_sharded_traced(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
        assert_eq!(r.transmitted, 7 * cfg.host.flows as u64, "all drained");
        assert_eq!(r.dropped, 0);
        for flow in 0..cfg.host.flows as u32 {
            let rel = trace.flow_releases(flow);
            assert_eq!(rel.len(), 7, "flow {flow}");
            assert!(rel.windows(2).all(|w| w[0].0 <= w[1].0), "monotone");
        }
    }

    #[test]
    fn batched_drain_changes_no_aggregate_counters() {
        let base = run_sharded(
            |_| EiffelQdisc::new(20_000, 100_000),
            &ShardedConfig::new(2, small_host(1)),
        );
        let batched = run_sharded(
            |_| EiffelQdisc::new(20_000, 100_000),
            &ShardedConfig::new(2, small_host(16)),
        );
        assert_eq!(base.transmitted, batched.transmitted);
        assert_eq!(base.timer_fires, batched.timer_fires);
        assert_eq!(base.dropped, batched.dropped);
    }

    /// Overloaded host (aggregate far above what per-flow pacing drains):
    /// closed-loop sources must see ECN marks and back off, and the books
    /// must balance with the new emitted/residue fields.
    #[test]
    fn closed_loop_sources_back_off_under_ecn() {
        use eiffel_workloads::SCALE_ONE;
        let mut host = small_host(4);
        host.tsq_budget = 8;
        let mut cfg = ShardedConfig::new(2, host);
        cfg.chaos.admit = AdmitPolicy::EcnMark {
            cap: 64,
            mark_at: 8,
        };
        cfg.closed_loop = Some(ClosedLoopParams {
            initial_scale: SCALE_ONE,
            ..ClosedLoopParams::default()
        });
        // 8× overload: sources at full scale offer one packet per 1/8 of
        // the shaped pacing gap.
        cfg.offered_gap = Some(cfg.host.pacing_gap() / 8);
        let r = run_sharded(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
        let cl = r.cl.expect("closed loop configured");
        assert!(r.ecn_marked > 0, "overload must mark");
        assert!(
            cl.mean_scale < 1.0,
            "marked sources must back off: mean_scale {}",
            cl.mean_scale
        );
        assert!(cl.marked > 0);
        assert_eq!(
            r.emitted,
            r.transmitted + r.admission_dropped + r.evicted + r.residue,
            "closed-loop conservation"
        );
        // The sojourn histogram saw every transmitted packet.
        let recorded: u64 = r.per_shard.iter().map(|s| s.sojourn.total()).sum();
        assert_eq!(recorded, r.transmitted);
    }

    /// A tiny memory budget must walk the degradation tiers — harder
    /// marking, worst-first shedding, setup refusal — and the peak charge
    /// can never exceed the budget (`try_charge` refuses first).
    #[test]
    fn mem_budget_degrades_gracefully_and_never_overruns() {
        let mut host = small_host(4);
        host.tsq_budget = 8;
        let mut cfg = ShardedConfig::new(2, host);
        cfg.pkts_per_flow = Some(12);
        cfg.chaos.admit = AdmitPolicy::EcnMark {
            cap: 256,
            mark_at: 64,
        };
        cfg.closed_loop = Some(ClosedLoopParams::default());
        // ~200 flows × 512B setup ≈ 100 KiB alone; a 96 KiB budget forces
        // refusals and keeps the packet slabs under pressure.
        let budget = Arc::new(MemBudget::new(96 * 1024));
        cfg.mem = Some(Arc::clone(&budget));
        let r = run_sharded(|_| EiffelQdisc::new(20_000, 100_000), &cfg);
        assert!(r.mem_peak <= budget.budget(), "hard ceiling");
        assert!(r.mem_peak > 0, "charges were taken");
        assert!(
            r.setup_refused > 0,
            "a 96 KiB budget cannot establish 200 flows at once"
        );
        assert_eq!(
            r.emitted,
            r.transmitted + r.admission_dropped + r.evicted + r.residue,
            "conservation under memory pressure"
        );
        // Higher tiers were actually consulted at admission time.
        let mut tiers = TierCounters::default();
        for s in &r.per_shard {
            tiers.merge(&s.tiers);
        }
        assert!(
            tiers.total_at(DegradeTier::Pressure)
                + tiers.total_at(DegradeTier::Shed)
                + tiers.total_at(DegradeTier::Refuse)
                > 0,
            "admission never saw a degraded tier: {tiers:?}"
        );
        assert_eq!(budget.in_use(), 0, "the ledger's books close at zero");
    }
}
