//! The threaded multi-core host: one real OS thread per shard, lock-free
//! rings between them, wall-clock time.
//!
//! [`crate::sharded`] proved the N-shard host *semantically* equal to the
//! single-shard host — but under one virtual clock on one OS thread, which
//! cannot measure the paper's headline systems claim (§5.1, Fig 9: Eiffel
//! shapes 20k flows with ~1/20 the cores FQ needs). This module is the
//! **wall-clock driver** of the same pipeline (DESIGN.md, "One source
//! model + one stage body, two drivers"):
//!
//! ```text
//!             data ring (SPSC, Packet)          ┌───────────────┐
//!        ┌──────────────────────────────────▶   │ shard thread 0 │──┐
//!        │    ctrl ring (SPSC, CtrlMsg)         │  qdisc + timer │  │
//! ┌──────┴─┐ ─────────────────────────────▶     │  + CpuMeter    │  │
//! │producer│                                    └───────────────┘  │
//! │ /demux │   ◀─────────────────────────────────────────────────  │
//! └──────┬─┘    completion ring (SPSC, Completion)                 ▼
//!        │                                       CounterBlock (stats,
//!        └──▶ … shard thread N-1                 read without locks)
//! ```
//!
//! * The **producer/demux thread** asks the source model
//!   (`FlowSource`, `source.rs`) which flows may emit, hashes each
//!   packet to its home shard with [`eiffel_sim::shard_of`], and pushes it
//!   into that shard's data ring ([`eiffel_core::ring::SpscRing`]). What it
//!   owns itself is the wall clock's wake-up machinery: a ready queue, a
//!   timed-retry heap, a parked list for refused set-ups, the watchdog and
//!   its failover.
//! * Each **shard thread** owns one qdisc instance and one softirq timer,
//!   and runs the `Shard` stage body the virtual clock runs too; its event
//!   axis is the wall clock (nanoseconds since run start), polled instead
//!   of popped from a heap.
//! * **Completions** flow back over a second SPSC ring: one [`Completion`]
//!   per disposed packet, carrying its fate ([`CompletionKind`]) — the TSQ
//!   callback and the ACK's ECE bit, as a message.
//! * The **control plane** is a third, cold ring: the producer sends
//!   [`CtrlMsg::Shutdown`] (drain for finite workloads, immediate for timed
//!   runs); config travels by value at spawn time.
//! * **Per-shard statistics** are single-writer counter blocks
//!   ([`eiffel_core::CounterBlock`]) the producer reads without locks while
//!   the run is live; exact totals come from joining the shard.
//!
//! There are **no locks anywhere on the per-packet path** — rings and
//! single-writer atomics only. Blocking is by spin-then-yield, and the
//! producer always drains completion rings while waiting on a full data
//! ring (and vice versa the shards only ever block pushing completions,
//! which the producer drains), so the pair cannot deadlock.
//!
//! Determinism: wall-clock runs cannot reproduce release *times*, so the
//! equivalence suite uses **finite workloads** ([`ThreadedConfig::finite`]):
//! the per-flow packet/byte/drop totals are then time-free invariants,
//! identical to a [`crate::sharded`] run of the same workload — so the
//! virtual-clock proptests keep guarding the threaded path.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{fence, Ordering};
use std::time::{Duration, Instant};

use eiffel_chaos::{AdmitPolicy, ShardFaults};
use eiffel_core::ring::{SpscConsumer, SpscProducer, SpscRing};
use eiffel_core::{CounterBlock, DegradeTier, MemBudget};
use eiffel_sim::{shard_of, CpuCategory, CpuMeter, FlowId, Nanos, Packet, WallNanos};
use eiffel_workloads::ClosedLoopSummary;

use crate::host::RunConfig;
use crate::qdisc::ShaperQdisc;
use crate::sharded::{IngressVerdict, Shard, ShardStats};
use crate::source::{release_slabs, tier_of, Credit, FlowSource, Offer};

/// Counter slots published by each shard thread (single writer each).
const C_TRANSMITTED: usize = 0;
const C_TX_BYTES: usize = 1;
const C_TIMER_FIRES: usize = 2;
const C_ENQUEUED: usize = 3;
/// Wall nanoseconds (since run start) of the shard's last live loop
/// iteration — frozen while the shard is stalled; the watchdog reads it.
const C_HEARTBEAT: usize = 4;
/// Packets this shard has disposed of (transmitted + admission-dropped +
/// evicted) — each one owes the producer exactly one completion. Written
/// *after* the completion push (release-fenced) so the producer's
/// reconciliation can only under-estimate losses, never over-estimate.
const C_DISPOSED: usize = 5;
/// One shard's live statistics block.
type ShardCounters = CounterBlock<6>;

/// What happened to one disposed packet — the one disposal vocabulary of
/// both clocks. On the wall clock it is echoed to the producer on the
/// completion ring, the only feedback channel a source has (on real
/// hardware: the ACK, with its ECE bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// Transmitted, no congestion signal.
    Delivered,
    /// Transmitted with the ECN congestion-experienced mark set by
    /// admission — the signal closed-loop transports react to.
    DeliveredMarked,
    /// Refused by admission or evicted to make room: the skb is freed (so
    /// the TSQ budget returns) and the transport sees a loss.
    Dropped,
}

impl CompletionKind {
    /// The fate of a transmitted packet, given its ECN bit.
    pub(crate) fn delivered(marked: bool) -> Self {
        if marked {
            CompletionKind::DeliveredMarked
        } else {
            CompletionKind::Delivered
        }
    }
}

/// One completion-ring message: which flow, and what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The flow whose packet was disposed.
    pub flow: FlowId,
    /// Its fate.
    pub kind: CompletionKind,
}

/// Control-plane messages (cold path; one per run today).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Stop the shard. With `drain`, finish everything already queued
    /// (ring + qdisc) first; without, stop at the next loop iteration
    /// (timed runs, where lingering packets are expected).
    Shutdown {
        /// Whether to empty the data ring and qdisc before exiting.
        drain: bool,
    },
}

/// Parameters of a threaded run: the one [`RunConfig`], read on the wall
/// clock — **`host.duration` is ignored**; the run is bounded by
/// [`wall_limit`](RunConfig::wall_limit) real nanoseconds (and, for finite
/// workloads, usually ends earlier by draining).
pub type ThreadedConfig = RunConfig;

/// Fault-handling outcome of a threaded run — all zeros for a no-op
/// [`ChaosConfig`](eiffel_chaos::ChaosConfig).
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Arrivals refused by the admission policy at the qdiscs.
    pub admission_dropped: u64,
    /// Arrivals admitted but ECN-marked.
    pub ecn_marked: u64,
    /// Resident packets evicted by priority-drop admission.
    pub evicted: u64,
    /// Completions the fault plan dropped on the completion rings.
    pub completions_lost: u64,
    /// Leaked TSQ budgets the watchdog's reconciliation refunded. Catches
    /// up to `completions_lost` one watchdog tick later (losses in the
    /// final tick of a run can stay unrecovered — honestly reported here).
    pub completions_recovered: u64,
    /// Packets steered away from a watchdog-suspect shard to a live one.
    /// Failover trades per-flow ordering for liveness while it lasts.
    pub redirected: u64,
    /// Shard-stall detections (heartbeat older than `stall_after`).
    pub stalls_detected: u64,
    /// Suspect shards whose heartbeat came back.
    pub recoveries: u64,
    /// Packets left in data rings at shutdown (timed runs end mid-flight;
    /// a drained finite run reports 0).
    pub ring_residue: u64,
    /// Conservation check: `emitted − (transmitted + admission_dropped +
    /// evicted + qdisc residue + ring residue)` at join. **Always 0** —
    /// every emitted packet is accounted for at every fault intensity;
    /// debug builds assert it.
    pub final_unaccounted: i64,
}

/// The merged result of a threaded run. Mirrors
/// [`crate::sharded::ShardedReport`], except every rate and duration here
/// is **wall-clock** ([`WallNanos`]), not virtual.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Qdisc name (all shards run the same discipline).
    pub name: &'static str,
    /// Per-thread slices (the `achieved_bps` inside is over wall time).
    pub per_shard: Vec<ShardStats>,
    /// Total packets released.
    pub transmitted: u64,
    /// Total packets pushed into shard rings by the producer.
    pub emitted: u64,
    /// Aggregate achieved rate in bits per **wall** second.
    pub achieved_bps: f64,
    /// Arrivals dropped at the flow cap (producer-side decision).
    pub dropped: u64,
    /// Timer fires across all shard threads.
    pub timer_fires: u64,
    /// Sum of per-shard median busy cores: wall nanoseconds of executed
    /// scheduler code (plus the same modelled IRQ/lock constants as the
    /// simulated host) per wall-time bin. On a machine with fewer physical
    /// cores than shards the *threads* time-slice, but this metric counts
    /// busy time, so it still measures the CPU a real multi-core host
    /// would spend.
    pub total_median_cores: f64,
    /// Whole-machine per-bin `(system, softirq)` cores: the per-shard
    /// [`CpuMeter`] bins summed element-wise (shards share the bin width
    /// and the wall-time axis), trimmed to the bins the run actually
    /// reached. The wall-clock counterpart of
    /// [`HostReport::breakdown`](crate::HostReport) (Figure 10 panels).
    pub breakdown: Vec<(f64, f64)>,
    /// Sum of per-shard peak backlogs (an upper bound on the true
    /// simultaneous peak — shards peak at different instants).
    pub peak_backlog: usize,
    /// Wall time from spawn to the last shard joining.
    pub wall_elapsed: WallNanos,
    /// Times the producer found a data ring full (or squeezed below its
    /// occupancy by a fault) and deferred the emission with bounded
    /// backoff — a backpressure signal, not an error.
    pub ring_full_retries: u64,
    /// A finite workload hit [`ThreadedConfig::wall_limit`] before
    /// draining — the counters below are then truncated, not complete.
    pub timed_out: bool,
    /// Flow setups refused by the memory budget (refuse tier, or the
    /// setup charge itself failing) — refused flows park until the tier
    /// clears, then re-attempt (and are counted again if re-refused).
    pub setup_refused: u64,
    /// Emissions deferred because the per-packet slab charge found the
    /// budget exhausted (the bounded-memory guarantee biting).
    pub mem_deferrals: u64,
    /// Peak bytes ever charged against the memory budget (0 without one).
    /// Never exceeds the budget — `try_charge` refuses, by construction.
    pub mem_peak_bytes: u64,
    /// Closed-loop transport summary (`None` for open-loop runs).
    pub cl: Option<ClosedLoopSummary>,
    /// Fault-handling outcome (all zeros without a chaos plan).
    pub chaos: ChaosReport,
}

/// Packet-level record of a threaded run.
///
/// `releases` concatenates the per-shard release logs; a flow lives on
/// exactly one shard, so **per-flow projections are in true release
/// order** even though cross-shard interleaving is lost. Times are wall
/// nanoseconds since run start.
#[derive(Debug, Clone, Default)]
pub struct ThreadedTrace {
    /// `(wall release time, flow, packet id, bytes)` per released packet.
    pub releases: Vec<(WallNanos, FlowId, u64, u32)>,
    /// `(wall drop time, flow, per-flow arrival index)` per cap drop.
    pub drops: Vec<(WallNanos, FlowId, u64)>,
}

impl ThreadedTrace {
    /// One flow's released packet ids, in release order.
    pub fn flow_release_ids(&self, flow: FlowId) -> Vec<u64> {
        self.releases
            .iter()
            .filter(|(_, f, _, _)| *f == flow)
            .map(|&(_, _, id, _)| id)
            .collect()
    }

    /// One flow's released `(wall time, bytes)`, in release order.
    pub fn flow_releases(&self, flow: FlowId) -> Vec<(WallNanos, u32)> {
        self.releases
            .iter()
            .filter(|(_, f, _, _)| *f == flow)
            .map(|&(t, _, _, b)| (t, b))
            .collect()
    }

    /// One flow's released byte total.
    pub fn flow_bytes(&self, flow: FlowId) -> u64 {
        self.releases
            .iter()
            .filter(|(_, f, _, _)| *f == flow)
            .map(|&(_, _, _, b)| b as u64)
            .sum()
    }

    /// One flow's drop count.
    pub fn flow_drop_count(&self, flow: FlowId) -> u64 {
        self.drops.iter().filter(|(_, f, _)| *f == flow).count() as u64
    }
}

/// Runs the threaded host, returning the merged report.
///
/// `mk` builds shard `i`'s qdisc on the *calling* thread; the instance is
/// then moved to its shard thread (hence `Q: Send` — no sharing, just a
/// move).
pub fn run_threaded<Q: ShaperQdisc + Send>(
    mk: impl FnMut(usize) -> Q,
    cfg: &ThreadedConfig,
) -> ThreadedReport {
    run_inner(mk, cfg, false).0
}

/// [`run_threaded`] plus the packet-level [`ThreadedTrace`] — the ordering
/// and equivalence suites' entry point.
pub fn run_threaded_traced<Q: ShaperQdisc + Send>(
    mk: impl FnMut(usize) -> Q,
    cfg: &ThreadedConfig,
) -> (ThreadedReport, ThreadedTrace) {
    run_inner(mk, cfg, true)
}

/// What one shard thread hands back at join.
struct ShardOutcome<Q> {
    shard: Shard<Q>,
    releases: Vec<(WallNanos, FlowId, u64, u32)>,
    /// Wall time at this shard's exit (its rate denominator).
    final_now: Nanos,
    /// Packets still in the data ring at exit (timed runs only).
    ring_residue: u64,
    /// Completions the fault plan dropped at this shard.
    completions_lost: u64,
}

fn run_inner<Q: ShaperQdisc + Send>(
    mut mk: impl FnMut(usize) -> Q,
    cfg: &ThreadedConfig,
    want_trace: bool,
) -> (ThreadedReport, ThreadedTrace) {
    cfg.validate();
    let n = cfg.shards.max(1);
    let host = &cfg.host;
    let per_flow_bps = host.per_flow_bps();
    let batch = host.batch.max(1);
    let ring_cap = cfg.ring_capacity.max(1);

    // Plumbing: three SPSC rings per shard.
    let mut data_tx = Vec::with_capacity(n);
    let mut data_rx = Vec::with_capacity(n);
    let mut ctrl_tx = Vec::with_capacity(n);
    let mut ctrl_rx = Vec::with_capacity(n);
    let mut comp_tx = Vec::with_capacity(n);
    let mut comp_rx = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = SpscRing::<Packet>::new(ring_cap);
        data_tx.push(tx);
        data_rx.push(rx);
        let (tx, rx) = SpscRing::<CtrlMsg>::new(4);
        ctrl_tx.push(tx);
        ctrl_rx.push(rx);
        let (tx, rx) = SpscRing::<Completion>::new(ring_cap);
        comp_tx.push(tx);
        comp_rx.push(rx);
    }
    let counters: Vec<ShardCounters> = (0..n).map(|_| ShardCounters::new()).collect();

    // Qdiscs are built on this thread (mk may capture state), then moved.
    let mut shards_init: Vec<Shard<Q>> = (0..n)
        .map(|i| {
            Shard::new(
                mk(i),
                CpuMeter::new(host.bin, cfg.wall_limit.as_nanos().max(host.bin)),
            )
        })
        .collect();
    let home: Vec<u32> = (0..host.flows as u32)
        .map(|f| shard_of(f, n) as u32)
        .collect();
    for &h in &home {
        shards_init[h as usize].flows += 1;
    }

    // Per-shard fault schedules, compiled once and shared: each worker
    // reads its own, the producer all of them (ring squeezes).
    let faults: Vec<ShardFaults> = (0..n).map(|i| cfg.chaos.plan.compile(i)).collect();
    let admit = cfg.chaos.admit;
    let mem = cfg.mem.as_deref();

    // The per-flow source tables come before the clock starts: at 10 M
    // flows they are on the order of a gigabyte of first-touch memory,
    // which must not be billed against the wall the shards and sources
    // share. This clock staggers first emissions over one *offered* gap.
    let mut src = FlowSource::new(cfg, cfg.emit_gap());

    let start = Instant::now();
    let mut outcomes: Vec<ShardOutcome<Q>> = Vec::with_capacity(n);
    let mut producer_out = ProducerOutcome::default();

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(n);
        // `.rev()` + pop keeps ring endpoints aligned with shard ids.
        for (i, shard) in shards_init.into_iter().enumerate().rev() {
            let data = data_rx.pop().expect("one data ring per shard");
            let ctrl = ctrl_rx.pop().expect("one ctrl ring per shard");
            let comp = CompletionTx {
                ring: comp_tx.pop().expect("one completion ring per shard"),
                faults: &faults[i],
                mem,
                seq: 0,
                lost: 0,
            };
            let stats = &counters[i];
            handles.push(s.spawn(move || {
                shard_worker(
                    shard,
                    data,
                    ctrl,
                    comp,
                    stats,
                    start,
                    per_flow_bps,
                    batch,
                    admit,
                    want_trace,
                )
            }));
        }
        handles.reverse(); // spawned in reverse; report in shard order

        producer_out = producer_loop(
            cfg,
            &mut src,
            &home,
            start,
            &mut data_tx,
            &mut ctrl_tx,
            &mut comp_rx,
            &counters,
            &faults,
            want_trace,
        );

        // Shards may still be draining (or blocked pushing completions):
        // keep the completion rings moving until every thread exits.
        while handles.iter().any(|h| !h.is_finished()) {
            for rx in comp_rx.iter_mut() {
                while rx.pop().is_some() {}
            }
            std::thread::yield_now();
        }
        for h in handles {
            outcomes.push(h.join().expect("shard thread panicked"));
        }
    });
    let wall_elapsed = WallNanos::from_duration(start.elapsed());

    // Exact conservation at join: the producer stopped before the shards
    // exited (the control push synchronizes the rings), so every emitted
    // packet is in exactly one bucket below. Timed runs end mid-flight by
    // design: what is still in rings and qdiscs, and every flow still
    // established, hands its memory charge back here.
    let disposed: u64 = outcomes
        .iter()
        .map(|o| o.shard.transmitted + o.shard.admission_dropped + o.shard.evicted)
        .sum();
    let qdisc_residue: u64 = outcomes.iter().map(|o| o.shard.qdisc.len() as u64).sum();
    let ring_residue: u64 = outcomes.iter().map(|o| o.ring_residue).sum();
    src.close_books(qdisc_residue + ring_residue);

    // Exact totals from the joined shards; the counter blocks only served
    // live readers during the run.
    let per_shard: Vec<ShardStats> = outcomes
        .iter_mut()
        .zip(&producer_out.dropped_per_shard)
        .map(|(o, &cap_drops)| {
            o.shard.dropped = cap_drops;
            o.shard
                .stats(WallNanos(o.final_now).as_secs_f64().max(1e-9))
        })
        .collect();
    // Whole-machine breakdown: shard meters share the bin geometry, so
    // summing bin `i` across shards gives total cores busy in wall
    // window `i`. Trim to the windows the run reached — the meters are
    // sized for `wall_limit`, and a run that drained early would
    // otherwise pad the CDF with empty bins.
    let used_bins = (wall_elapsed.as_nanos().div_ceil(host.bin) as usize).max(1);
    let mut breakdown: Vec<(f64, f64)> = Vec::new();
    for o in &outcomes {
        let bins = o.shard.meter.cores_per_bin();
        breakdown.resize(bins.len().min(used_bins).max(breakdown.len()), (0.0, 0.0));
        for (acc, (s, irq)) in breakdown.iter_mut().zip(bins) {
            acc.0 += s;
            acc.1 += irq;
        }
    }
    let chaos = ChaosReport {
        admission_dropped: per_shard.iter().map(|s| s.admission_dropped).sum(),
        ecn_marked: per_shard.iter().map(|s| s.ecn_marked).sum(),
        evicted: per_shard.iter().map(|s| s.evicted).sum(),
        completions_lost: outcomes.iter().map(|o| o.completions_lost).sum(),
        completions_recovered: producer_out.completions_recovered,
        redirected: producer_out.redirected,
        stalls_detected: producer_out.stalls_detected,
        recoveries: producer_out.recoveries,
        ring_residue,
        final_unaccounted: src.emitted() as i64 - (disposed + qdisc_residue + ring_residue) as i64,
    };
    debug_assert_eq!(
        chaos.final_unaccounted, 0,
        "threaded packet conservation violated"
    );
    let report = ThreadedReport {
        name: outcomes[0].shard.qdisc.name(),
        transmitted: per_shard.iter().map(|s| s.transmitted).sum(),
        emitted: src.emitted(),
        achieved_bps: {
            let bytes: u64 = outcomes.iter().map(|o| o.shard.tx_bytes).sum();
            bytes as f64 * 8.0 / wall_elapsed.as_secs_f64().max(1e-9)
        },
        dropped: per_shard.iter().map(|s| s.dropped).sum(),
        timer_fires: per_shard.iter().map(|s| s.timer_fires).sum(),
        total_median_cores: per_shard.iter().map(|s| s.median_cores).sum(),
        breakdown,
        peak_backlog: per_shard.iter().map(|s| s.peak_backlog).sum(),
        wall_elapsed,
        ring_full_retries: producer_out.ring_full_retries,
        timed_out: producer_out.timed_out,
        setup_refused: src.setup_refused,
        mem_deferrals: src.mem_deferrals,
        mem_peak_bytes: cfg.mem.as_ref().map_or(0, |m| m.peak()),
        cl: src.summary(),
        chaos,
        per_shard,
    };
    let trace = ThreadedTrace {
        releases: outcomes.into_iter().flat_map(|o| o.releases).collect(),
        drops: producer_out.drops,
    };
    (report, trace)
}

/// A shard's end of its completion ring.
struct CompletionTx<'a> {
    ring: SpscProducer<Completion>,
    faults: &'a ShardFaults,
    mem: Option<&'a MemBudget>,
    seq: u64,
    /// Completions the fault plan dropped.
    lost: u64,
}

impl CompletionTx<'_> {
    /// A packet of `flow` left this shard (transmitted, refused, or
    /// evicted). Its slab frees here — memory returns when the packet
    /// leaves, whatever happens to the message — and the source is owed
    /// one completion, unless the fault plan loses it on the wire. The
    /// push blocks spin-then-yield; the producer always drains the ring.
    fn dispose(&mut self, now: Nanos, flow: FlowId, kind: CompletionKind) {
        release_slabs(self.mem, 1);
        let seq = self.seq;
        self.seq += 1;
        if self.faults.lose_completion(now, seq) {
            self.lost += 1;
            return;
        }
        let mut c = Completion { flow, kind };
        while let Err(back) = self.ring.push(c) {
            c = back;
            std::thread::yield_now();
        }
    }
}

/// One shard thread: poll the rings and the wall clock, run the shared
/// pipeline stages. No locks; the only blocking is pushing completions
/// into a full ring.
#[allow(clippy::too_many_arguments)]
fn shard_worker<Q: ShaperQdisc>(
    mut shard: Shard<Q>,
    mut data: SpscConsumer<Packet>,
    mut ctrl: SpscConsumer<CtrlMsg>,
    mut comp: CompletionTx<'_>,
    stats: &ShardCounters,
    start: Instant,
    per_flow_bps: u64,
    batch: usize,
    admit: AdmitPolicy,
    want_trace: bool,
) -> ShardOutcome<Q> {
    const INGRESS_BURST: usize = 64;
    let faults = comp.faults;
    let mut releases = Vec::new();
    let mut drained: Vec<Packet> = Vec::with_capacity(batch);
    let mut enqueued = 0u64;
    let mut draining = false;
    let mut idle = 0u32;
    // Jitter of the currently armed timer fire (keyed on the epoch so the
    // virtual-clock runtime draws the identical delay).
    let mut jitter: Nanos = 0;
    let final_now;
    loop {
        let now = start.elapsed().as_nanos() as Nanos;
        match ctrl.pop() {
            Some(CtrlMsg::Shutdown { drain: false }) => {
                final_now = now;
                break;
            }
            Some(CtrlMsg::Shutdown { drain: true }) => draining = true,
            None => {}
        }
        if let Some(until) = faults.stall_until(now) {
            // Paused core: no heartbeat, no ingress, no softirq — the
            // watchdog sees the heartbeat freeze while producers fill this
            // shard's ring. Sleep in short slices so the control plane
            // stays responsive.
            let remaining = until.saturating_sub(now);
            std::thread::sleep(Duration::from_nanos(remaining.min(100_000)));
            continue;
        }
        stats.set(C_HEARTBEAT, now);
        let mut worked = false;

        // Ingress: a burst of arrivals from the data ring, each through
        // admission (tightened by the memory budget's current degradation
        // tier). Refused arrivals and evicted victims owe the producer a
        // completion too — the kernel frees the skb either way.
        for _ in 0..INGRESS_BURST {
            let Some(pkt) = data.pop() else { break };
            let flow = pkt.flow;
            match shard.ingress(now, pkt, per_flow_bps, &admit, tier_of(comp.mem)) {
                IngressVerdict::Queued | IngressVerdict::Marked => {}
                IngressVerdict::DroppedArrival => comp.dispose(now, flow, CompletionKind::Dropped),
                IngressVerdict::Evicted(victim) => {
                    comp.dispose(now, victim.flow, CompletionKind::Dropped)
                }
            }
            if let Some(want) = shard.tighten_timer(now) {
                jitter = faults.timer_extra_delay(want, shard.timer_epoch());
            }
            enqueued += 1;
            worked = true;
        }
        if worked {
            stats.set(C_ENQUEUED, enqueued);
            publish_disposed(stats, &shard);
        }

        // Softirq: fire when the armed deadline (plus any injected timer
        // jitter) has passed on the wall clock — the poll-side version of
        // the event calendar delivering it.
        if shard.timer_due(now.saturating_sub(jitter)) {
            shard.softirq(now, batch, &mut drained);
            let penalty = faults.consumer_penalty_ns(now);
            if penalty > 0 && !drained.is_empty() {
                // Slow consumer: burn the extra per-packet wall time in
                // softirq context (metered like any real drain work).
                let extra = penalty.saturating_mul(drained.len() as u64);
                let t0 = Instant::now();
                shard.meter.measure(now, CpuCategory::SoftIrq, || {
                    while (t0.elapsed().as_nanos() as u64) < extra {
                        std::hint::spin_loop();
                    }
                });
            }
            for p in drained.drain(..) {
                if want_trace {
                    releases.push((WallNanos(now), p.flow, p.id, p.bytes));
                }
                comp.dispose(now, p.flow, CompletionKind::delivered(p.ecn));
            }
            if let Some(want) = shard.rearm(now) {
                jitter = faults.timer_extra_delay(want, shard.timer_epoch());
            }
            publish_disposed(stats, &shard);
            stats.set(C_TRANSMITTED, shard.transmitted);
            stats.set(C_TX_BYTES, shard.tx_bytes);
            stats.set(C_TIMER_FIRES, shard.timer_fires);
            worked = true;
        }

        if draining && data.is_empty() && shard.qdisc.is_empty() {
            final_now = now;
            break;
        }
        if worked {
            idle = 0;
        } else {
            idle += 1;
            if idle % 64 == 0 {
                // Busy-poll, but share the core: on machines with fewer
                // cores than shards the other threads need the timeslice.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
    // Timed runs exit with packets still in flight: count the ring residue
    // so the join-time conservation check balances exactly. (The producer
    // exited before sending Shutdown, and its control push synchronizes
    // the data ring, so everything it emitted is visible here.)
    let mut ring_residue = 0u64;
    while data.pop().is_some() {
        ring_residue += 1;
    }
    stats.set(C_TRANSMITTED, shard.transmitted);
    stats.set(C_TX_BYTES, shard.tx_bytes);
    stats.set(C_TIMER_FIRES, shard.timer_fires);
    stats.set(C_ENQUEUED, enqueued);
    ShardOutcome {
        shard,
        releases,
        final_now,
        ring_residue,
        completions_lost: comp.lost,
    }
}

/// Publishes the disposed-packet counter *after* the completion pushes it
/// covers. The release fence (paired with the producer's acquire fence)
/// guarantees a reader that observes the new count can also pop every
/// completion it counts — so reconciliation under-estimates losses rather
/// than inventing them.
fn publish_disposed<Q: ShaperQdisc>(stats: &ShardCounters, shard: &Shard<Q>) {
    fence(Ordering::Release);
    stats.set(
        C_DISPOSED,
        shard.transmitted + shard.admission_dropped + shard.evicted,
    );
}

/// What the producer loop hands back (the source model keeps its own
/// counts).
#[derive(Debug, Default)]
struct ProducerOutcome {
    ring_full_retries: u64,
    timed_out: bool,
    dropped_per_shard: Vec<u64>,
    drops: Vec<(WallNanos, FlowId, u64)>,
    redirected: u64,
    stalls_detected: u64,
    recoveries: u64,
    completions_recovered: u64,
}

/// Runnable flows, each queued at most once (so the deque stays bounded by
/// the flow count).
struct Ready {
    queue: VecDeque<FlowId>,
    queued: Vec<bool>,
}

impl Ready {
    fn push(&mut self, flow: FlowId) {
        if !std::mem::replace(&mut self.queued[flow as usize], true) {
            self.queue.push_back(flow);
        }
    }

    fn pop(&mut self) -> Option<FlowId> {
        let flow = self.queue.pop_front()?;
        self.queued[flow as usize] = false;
        Some(flow)
    }

    /// Applies a credit outcome — a woken flow becomes runnable — and says
    /// whether the credit was accepted.
    fn credited(&mut self, flow: FlowId, credit: Credit) -> bool {
        if credit == Credit::Wake {
            self.push(flow);
        }
        credit != Credit::Rejected
    }
}

/// Pops every completion waiting on `rx` into the source model, counting
/// the accepted ones into `credited`. A rejected credit is the real
/// completion of a disposal the watchdog's reconciliation already
/// pre-refunded — that disposal was counted then, so counting the pop too
/// would double-credit it and hide a genuinely lost completion forever.
fn drain_completions(
    rx: &mut SpscConsumer<Completion>,
    src: &mut FlowSource<'_>,
    ready: &mut Ready,
    credited: &mut u64,
) -> bool {
    let mut any = false;
    while let Some(c) = rx.pop() {
        if ready.credited(c.flow, src.complete(c.flow, c.kind)) {
            *credited += 1;
        }
        any = true;
    }
    any
}

/// The producer/demux thread body (runs on the caller's thread while the
/// shard threads live in the scope): the wall clock's wake-up machinery
/// around the source model.
#[allow(clippy::too_many_arguments)]
fn producer_loop(
    cfg: &ThreadedConfig,
    src: &mut FlowSource<'_>,
    home: &[u32],
    start: Instant,
    data_tx: &mut [SpscProducer<Packet>],
    ctrl_tx: &mut [SpscProducer<CtrlMsg>],
    comp_rx: &mut [SpscConsumer<Completion>],
    counters: &[ShardCounters],
    faults: &[ShardFaults],
    want_trace: bool,
) -> ProducerOutcome {
    const EMIT_BURST: usize = 256;
    /// Base ring-full backoff; doubles per consecutive deferral, capped at
    /// `BACKOFF_BASE_NS << BACKOFF_MAX_EXP` (≈ 640 µs).
    const BACKOFF_BASE_NS: Nanos = 10_000;
    const BACKOFF_MAX_EXP: u8 = 6;
    const UNPARK_BURST: usize = 256;
    let flows = cfg.host.flows;
    let n = data_tx.len();
    let ring_cap = cfg.ring_capacity.max(1);
    let wall_limit = cfg.wall_limit.as_nanos();
    let watchdog = cfg.chaos.watchdog;

    let mut out = ProducerOutcome {
        dropped_per_shard: vec![0; n],
        ..ProducerOutcome::default()
    };
    let mut ready = Ready {
        queue: VecDeque::with_capacity(flows),
        queued: vec![false; flows],
    };
    // Consecutive ring-full deferrals per flow (the exponential-backoff
    // exponent; reset by a successful emission).
    let mut backoff = vec![0u8; flows];
    // Paced, cap-dropped and deferred flows come back at a set time.
    let mut retries: BinaryHeap<Reverse<(Nanos, FlowId)>> = BinaryHeap::new();
    // Wake-up policy of this clock: flows turned away at set-up park here,
    // off the hot path entirely. A timed retry at millions of refused
    // flows would have the producer re-refusing the same set-ups all run —
    // a livelock, not admission control. A bounded probe re-admits them
    // once the refuse tier clears; established-flow churn (a drained
    // finite flow releases its set-up charge) is what makes the room.
    let mut parked: VecDeque<FlowId> = VecDeque::new();
    let mut started = 0usize; // flows whose first emission has come due

    // Watchdog state: which shards are currently believed alive, the
    // live-set failover list, and per-shard credited completions (popped +
    // reconciled) for completion-loss recovery.
    let mut live = vec![true; n];
    let mut alive: Vec<usize> = (0..n).collect();
    let mut credited = vec![0u64; n];
    let mut next_check = watchdog.map_or(u64::MAX, |w| w.check_every.as_nanos());

    loop {
        let now = start.elapsed().as_nanos() as Nanos;
        let mut worked = false;

        // TSQ completions: return budget, wake throttled flows, and feed
        // the transport its congestion signal — the closed loop closing.
        for (rx, credited) in comp_rx.iter_mut().zip(&mut credited) {
            worked |= drain_completions(rx, src, &mut ready, credited);
        }

        // Watchdog tick: stall detection via heartbeats, failover of the
        // live set, and completion-loss reconciliation.
        if now >= next_check {
            let w = watchdog.expect("next_check is finite only with a watchdog");
            for s in 0..n {
                let hb = counters[s].read(C_HEARTBEAT);
                let stalled = now.saturating_sub(hb) > w.stall_after.as_nanos();
                if stalled && live[s] {
                    live[s] = false;
                    out.stalls_detected += 1;
                } else if !stalled && !live[s] {
                    live[s] = true;
                    out.recoveries += 1;
                }
                // Reconciliation order matters: snapshot the disposed
                // counter *first* (acquire-fenced against the shard's
                // release), then drain the ring — so `disposed − credited`
                // can only under-count losses, never invent them.
                let disposed = counters[s].read(C_DISPOSED);
                fence(Ordering::Acquire);
                drain_completions(&mut comp_rx[s], src, &mut ready, &mut credited[s]);
                let lost = disposed.saturating_sub(credited[s]);
                if lost > 0 {
                    // Leaked TSQ budgets: completions vanished on the wire.
                    // Refund flows still holding inflight — starved flows
                    // (budget 0) first, socket-scan style. Per-flow
                    // attribution is best-effort; the aggregate is exact
                    // and the source's guard keeps refunds ≤ inflight.
                    let mut recovered = 0u64;
                    for pass in 0..2 {
                        for f in 0..flows as FlowId {
                            if recovered == lost {
                                break;
                            }
                            if (pass == 0 && !src.throttled(f)) || src.inflight(f) == 0 {
                                continue;
                            }
                            if ready.credited(f, src.credit(f)) {
                                recovered += 1;
                            }
                        }
                    }
                    credited[s] += recovered;
                    out.completions_recovered += recovered;
                }
            }
            alive = (0..n).filter(|&s| live[s]).collect();
            next_check = now + w.check_every.as_nanos();
            worked = true;
        }

        // Start flows whose first emission has come due.
        while started < flows && now >= src.start_at(started as FlowId) {
            ready.push(started as FlowId);
            started += 1;
            worked = true;
        }

        // Due timed retries.
        while let Some(&Reverse((at, flow))) = retries.peek() {
            if at > now {
                break;
            }
            retries.pop();
            ready.push(flow);
            worked = true;
        }

        // Re-admit parked flows once the refuse tier clears — a bounded
        // burst per pass, so a tier flickering at the threshold costs
        // O(UNPARK_BURST), never a stampede of the whole parked set.
        if !parked.is_empty() && tier_of(cfg.mem.as_deref()) != DegradeTier::Refuse {
            for flow in parked.drain(..UNPARK_BURST.min(parked.len())) {
                ready.push(flow);
                worked = true;
            }
        }

        // Ask the source model about a burst of runnable flows.
        for _ in 0..EMIT_BURST {
            let Some(flow) = ready.pop() else { break };
            let i = flow as usize;
            let s_home = home[i] as usize;
            // Failover: a watchdog-suspect shard stops receiving new work;
            // its flows rehash over the live set (stable `shard_of` on the
            // live list, so a flow keeps one failover home while the set
            // is unchanged). Trades per-flow ordering for liveness.
            let s = if live[s_home] || alive.is_empty() {
                s_home
            } else {
                alive[shard_of(flow, alive.len())]
            };
            // A full — or fault-squeezed — ring. The producer-view `len()`
            // can only over-count occupancy, so `len < cap` guarantees the
            // push lands; no spin, no blocking.
            let room = || data_tx[s].len() < faults[s].ring_capacity(now, ring_cap);
            let retry_at = match src.offer(flow, now, room) {
                Offer::Idle => continue,
                Offer::Paced(at) | Offer::MemDeferred(at) => at,
                Offer::SetupRefused => {
                    parked.push_back(flow);
                    continue;
                }
                // Bounded exponential backoff, jittered per (flow, attempt):
                // producers that found the ring full at the same instant
                // would otherwise all return `BACKOFF_BASE_NS << exp` later
                // — in lockstep, to the same full ring.
                Offer::RingFull => {
                    out.ring_full_retries += 1;
                    let base = BACKOFF_BASE_NS << backoff[i].min(BACKOFF_MAX_EXP);
                    backoff[i] = backoff[i].saturating_add(1);
                    now + src.retry_in(flow, base)
                }
                Offer::CapDrop { seq, retry_at } => {
                    out.dropped_per_shard[s_home] += 1;
                    if want_trace {
                        out.drops.push((WallNanos(now), flow, seq));
                    }
                    retry_at
                }
                Offer::Emit { pkt, again } => {
                    backoff[i] = 0;
                    data_tx[s]
                        .push(pkt)
                        .unwrap_or_else(|_| unreachable!("len() < capacity guarantees SPSC space"));
                    if s != s_home {
                        out.redirected += 1;
                    }
                    worked = true;
                    match again {
                        // Bulk sender: back-to-back until TSQ throttles.
                        Some(at) if at <= now => {
                            ready.push(flow);
                            continue;
                        }
                        Some(at) => at,
                        None => continue,
                    }
                }
            };
            retries.push(Reverse((retry_at, flow)));
        }

        // Termination.
        if src.all_sent() {
            for tx in ctrl_tx.iter_mut() {
                let _ = tx.push(CtrlMsg::Shutdown { drain: true });
            }
            break;
        }
        if now >= wall_limit {
            out.timed_out = cfg.is_finite(); // normal end for timed runs
            for tx in ctrl_tx.iter_mut() {
                let _ = tx.push(CtrlMsg::Shutdown { drain: false });
            }
            break;
        }
        if !worked {
            std::thread::yield_now();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eiffel::EiffelQdisc;
    use crate::host::HostConfig;
    use eiffel_sim::{Rate, SECOND};
    use eiffel_workloads::ClosedLoopParams;
    use std::sync::Arc;

    fn tiny_host(flows: usize) -> HostConfig {
        HostConfig {
            flows,
            aggregate: Rate::mbps(60 * flows as u64), // 60 Mbps per flow
            duration: SECOND,                         // ignored by threaded runs
            bin: SECOND / 20,
            tsq_budget: 2,
            batch: 4,
        }
    }

    #[test]
    fn finite_run_delivers_every_packet_and_drains() {
        let cfg = ThreadedConfig::finite(2, tiny_host(8), 5);
        let (r, tr) = run_threaded_traced(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out, "drain run hit the wall limit");
        assert_eq!(r.emitted, 8 * 5);
        assert_eq!(r.transmitted, 8 * 5, "everything emitted must release");
        assert_eq!(r.dropped, 0);
        assert_eq!(r.per_shard.len(), 2);
        let homed: usize = r.per_shard.iter().map(|s| s.flows).sum();
        assert_eq!(homed, 8);
        for flow in 0..8u32 {
            assert_eq!(tr.flow_release_ids(flow).len(), 5, "flow {flow}");
        }
    }

    #[test]
    fn timed_run_reports_wall_rate_and_live_counters_converge() {
        let mut cfg = ThreadedConfig::timed(2, tiny_host(16), WallNanos::from_millis(40));
        cfg.host.batch = 8;
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(r.transmitted > 0, "a 40ms run must release packets");
        assert!(r.wall_elapsed >= WallNanos::from_millis(40));
        assert!(r.achieved_bps > 0.0);
        assert!(r.timer_fires > 0);
        assert!(!r.timed_out, "timed runs end at the limit by design");
    }

    #[test]
    fn flow_cap_drops_and_recovers_on_threads() {
        let mut cfg = ThreadedConfig::finite(3, tiny_host(6), 12);
        cfg.host.tsq_budget = 4;
        cfg.flow_cap = Some(1); // cap below budget ⇒ must bind sometimes
        let (r, tr) = run_threaded_traced(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out);
        // Every flow still completes its finite workload despite drops.
        assert_eq!(r.transmitted, 6 * 12);
        assert_eq!(r.dropped as usize, tr.drops.len());
    }

    use eiffel_chaos::{FaultPlan, WatchdogConfig};

    /// Every packet minted must end the run accounted for: released,
    /// refused by admission, or evicted — nothing lost, nothing invented.
    fn assert_conserving(r: &ThreadedReport) {
        assert_eq!(r.chaos.final_unaccounted, 0, "conservation: {:?}", r.chaos);
        assert_eq!(
            r.emitted,
            r.transmitted + r.chaos.admission_dropped + r.chaos.evicted + r.chaos.ring_residue,
            "emitted must split exactly into released + refused + evicted"
        );
    }

    #[test]
    fn watchdog_detects_stall_redirects_and_recovers() {
        // Shard 0 freezes 1ms..4ms; the watchdog (0.5ms sampling, 1ms
        // threshold) must notice by ~2.5ms, fail its flows over to shard 1,
        // and restore it when the heartbeat returns. Every flow starts at
        // 3ms — inside the stall, after detection — so the shard-0 flows'
        // opening bursts *must* take the failover path (flows already
        // throttled on a dead shard hold no budget and cannot be steered;
        // they drain in place when it thaws).
        let mut cfg = ThreadedConfig::finite(2, tiny_host(8), 40);
        cfg.starts = Some(vec![3_000_000; 8]);
        cfg.chaos.plan = FaultPlan::new(11).stall(0, 1_000_000, 4_000_000);
        cfg.chaos.watchdog = Some(WatchdogConfig {
            check_every: WallNanos::from_nanos(500_000),
            stall_after: WallNanos::from_nanos(1_000_000),
        });
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out, "stalled run must not wedge");
        assert_eq!(r.transmitted, 8 * 40, "every packet still delivered");
        assert!(r.chaos.stalls_detected >= 1, "{:?}", r.chaos);
        assert!(r.chaos.recoveries >= 1, "shard 0 resumes at 4ms");
        assert!(
            r.chaos.redirected > 0,
            "shard-0 flows emitted during the stall"
        );
        assert_conserving(&r);
    }

    #[test]
    fn stall_without_watchdog_still_drains_and_conserves() {
        // No watchdog: the producer backs off against the frozen shards'
        // rings and simply waits the stall out. Slower, never wedged.
        // Both shards freeze from t=0 with 2-slot rings, so the flows'
        // opening TSQ burst (budget 4 each, back-to-back) must overrun
        // the squeezed capacity and defer — TSQ alone cannot gate it.
        let mut cfg = ThreadedConfig::finite(2, tiny_host(8), 20);
        cfg.host.tsq_budget = 4;
        cfg.chaos.plan = FaultPlan::new(12)
            .stall(0, 0, 2_000_000)
            .ring_squeeze(0, 0, 2_000_000, 2)
            .stall(1, 0, 2_000_000)
            .ring_squeeze(1, 0, 2_000_000, 2);
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out);
        assert_eq!(r.transmitted, 8 * 20);
        assert!(
            r.ring_full_retries > 0,
            "an opening burst into frozen 2-slot rings must defer"
        );
        assert_eq!(r.chaos.stalls_detected, 0, "no watchdog, no detections");
        assert_conserving(&r);
    }

    #[test]
    fn completion_loss_is_reconciled_not_wedged() {
        // Half of shard 0's completions vanish for the whole run. Without
        // reconciliation every flow homed there wedges once its TSQ budget
        // leaks away; the watchdog's credit audit must refund them.
        let mut cfg = ThreadedConfig::finite(2, tiny_host(6), 25);
        cfg.chaos.plan = FaultPlan::new(13).completion_loss(0, 0, 40_000_000, 2);
        cfg.chaos.watchdog = Some(WatchdogConfig {
            check_every: WallNanos::from_nanos(300_000),
            stall_after: WallNanos::from_nanos(30_000_000),
        });
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(
            !r.timed_out,
            "leaked budgets must be refunded, not waited on"
        );
        assert_eq!(r.transmitted, 6 * 25);
        assert!(r.chaos.completions_lost > 0, "{:?}", r.chaos);
        assert!(
            r.chaos.completions_recovered > 0,
            "reconciliation must refund leaked budgets: {:?}",
            r.chaos
        );
        assert_conserving(&r);
    }

    #[test]
    fn jitter_squeeze_and_slow_consumer_conserve() {
        // The "everything at once" run: timers slip, rings shrink, the
        // consumer crawls. Throughput may degrade; accounting may not.
        let mut cfg = ThreadedConfig::finite(3, tiny_host(9), 15);
        cfg.chaos.plan = FaultPlan::new(14)
            .timer_jitter(0, 0, 20_000_000, 150_000)
            .ring_squeeze(1, 1_000_000, 6_000_000, 4)
            .slow_consumer(2, 0, 20_000_000, 20_000)
            .stall(1, 2_000_000, 3_000_000);
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out);
        assert_eq!(r.transmitted, 9 * 15, "degraded, never lossy");
        assert_conserving(&r);
    }

    #[test]
    fn closed_loop_with_mem_budget_drains_and_frees_everything() {
        // ECN-reactive sources under a budget small enough that packet
        // slabs contend: the run must still drain its finite workload,
        // never charge past the budget, and return every byte by the end
        // (slabs on disposal, flow setups on teardown).
        let mut cfg = ThreadedConfig::finite(2, tiny_host(8), 30);
        cfg.host.tsq_budget = 4;
        cfg.chaos.admit = AdmitPolicy::EcnMark {
            cap: 16,
            mark_at: 2,
        };
        cfg.closed_loop = Some(ClosedLoopParams::default());
        let budget = Arc::new(MemBudget::new(8 * 1024));
        cfg.mem = Some(Arc::clone(&budget));
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out, "budget contention must not wedge the run");
        assert_eq!(r.transmitted, 8 * 30);
        assert!(r.cl.is_some(), "closed-loop summary present");
        assert!(r.mem_peak_bytes > 0, "charges were taken");
        assert!(r.mem_peak_bytes <= budget.budget(), "hard ceiling");
        assert_eq!(
            budget.in_use(),
            0,
            "every slab and setup charge returned by the end"
        );
        assert_conserving(&r);
    }

    #[test]
    fn tail_drop_admission_sheds_load_and_refunds_budget() {
        // A 1-packet qdisc budget under a 4-packet TSQ window: admission
        // must shed arrivals, and every refusal must hand its TSQ budget
        // back so the flow keeps emitting to its finite limit.
        let mut cfg = ThreadedConfig::finite(2, tiny_host(6), 20);
        cfg.host.tsq_budget = 4;
        cfg.chaos.admit = AdmitPolicy::TailDrop { cap: 1 };
        let r = run_threaded(|_| EiffelQdisc::new(1 << 14, 100_000), &cfg);
        assert!(!r.timed_out);
        assert_eq!(
            r.emitted,
            6 * 20,
            "refusals refund budget; emission completes"
        );
        assert!(r.chaos.admission_dropped > 0, "{:?}", r.chaos);
        assert_eq!(r.transmitted + r.chaos.admission_dropped, r.emitted);
        assert_conserving(&r);
    }
}
