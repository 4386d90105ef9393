//! The four workloads: their sizes, their seeded inputs, one untraced timed
//! repetition of each, and the output checks every repetition and every
//! pass must meet.
//!
//! Every size lives in [`Workload::sizes`]; nothing here is a flag. The
//! library only ever sees inputs generated from `--seed`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eiffel_chaos::AdmitPolicy;
use eiffel_core::{
    count_inversions, MemBudget, QueueConfig, QueueKind, RankedQueue, FLOW_SETUP_BYTES,
};
use eiffel_pifo::{lang, NodeId, PifoTree};
use eiffel_qdisc::{
    run_sharded, run_threaded, EiffelQdisc, HostConfig, RankedShaperQdisc, ShardedConfig,
    ShardedReport, ThreadedConfig, ThreadedReport,
};
use eiffel_sim::{FlowId, Nanos, Packet, Rate, SplitMix64, WallNanos, SECOND};
use eiffel_workloads::{trace_shaped_pkts, ClosedLoopParams, FlowSizeDist, RankPattern};

use crate::env;
use crate::spans::{SpanId, Tracer, CHUNK};

/// Bits on the wire per packet: every packet is a 1500-byte `Packet::mtu`
/// descriptor, so cost is per packet and rates are in Mpps.
const MTU_BITS: u64 = 1_500 * 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Shape20k,
    Saturate2k,
    TreeBusypoll,
    Overload100k,
}

/// Run sizes of one workload. `flows × window` packets are outstanding in
/// the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub flows: usize,
    /// Packets each flow keeps outstanding (the TSQ budget on the hosts).
    pub window: u32,
    /// Dequeue batch.
    pub batch: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Shape20k,
        Workload::Saturate2k,
        Workload::TreeBusypoll,
        Workload::Overload100k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Shape20k => "shape_20k",
            Workload::Saturate2k => "saturate_2k",
            Workload::TreeBusypoll => "tree_busypoll",
            Workload::Overload100k => "overload_100k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Producer thread + one shard thread; refused on a single CPU.
    pub fn threaded(self) -> bool {
        matches!(self, Workload::Shape20k | Workload::Saturate2k)
    }

    /// The one table of run sizes (`quick` is the smoke-test column).
    pub fn sizes(self, quick: bool) -> Sizes {
        let (flows, window, batch) = match self {
            Workload::Shape20k => (20_000, 2, 1),
            Workload::Saturate2k => (2_000, 4, 16),
            Workload::TreeBusypoll => (10_000, 4, 16),
            Workload::Overload100k => (100_000, 4, 16),
        };
        Sizes {
            flows: if quick { flows / 10 } else { flows },
            window,
            batch,
        }
    }
}

/// How one invocation spends its `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub quick: bool,
    /// Measuring time of the whole pass.
    pub seconds: f64,
    /// Timed repetitions, each after a fresh set-up: at least this many,
    /// and as many more as it takes to measure for `seconds` in all
    /// (`overload_100k` simulates a fixed virtual time per repetition,
    /// which takes less wall time than `rep`).
    pub reps: usize,
    /// Wall length of one timed repetition: `seconds / reps`.
    pub rep: Duration,
    /// Discarded warm-up before each timed repetition; not part of
    /// `setup_s`, which would otherwise be a constant.
    pub warm: Duration,
}

/// `run_seconds` of BENCHMARK.json: the measuring time of one pass.
pub const RUN_SECONDS: f64 = 20.0;
/// Measuring time of a `--quick` pass.
pub const QUICK_SECONDS: f64 = 0.4;
/// Repetitions of a full pass. Every repetition builds its queues, maps and
/// flow tables afresh, and a fresh build lands differently in memory (the
/// library's `HashMap`s are randomly keyed): many short repetitions put
/// that variation inside the median instead of between runs.
const REPS: usize = 15;

impl Plan {
    /// `seconds` is the driver's `--seconds`; without it a pass measures
    /// for [`RUN_SECONDS`] ([`QUICK_SECONDS`] under `--quick`).
    pub fn new(quick: bool, seconds: Option<f64>) -> Plan {
        let seconds = seconds.unwrap_or(if quick { QUICK_SECONDS } else { RUN_SECONDS });
        let reps = if quick { 2 } else { REPS };
        let rep = Duration::from_secs_f64(seconds / reps as f64);
        Plan {
            quick,
            seconds,
            reps,
            rep,
            warm: rep / 8,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// One timed repetition, reduced to what every workload reports.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    /// Wall seconds of the timed region.
    pub timed_s: f64,
    pub mpps: f64,
    pub busy_cores: f64,
    pub goodput_frac: f64,
    /// Packets delivered to the sink in the timed region.
    pub delivered: u64,
    /// Packets emitted into the system.
    pub attempted: u64,
    /// Packets lost: producer drops, admission drops, evictions, and any
    /// the books cannot account for.
    pub failed: u64,
    /// Counts that must repeat exactly for a given seed.
    pub counts: Vec<(&'static str, u64)>,
    pub checks: Vec<Check>,
    /// Wall (or, for `shape_20k`, busy) nanoseconds per delivered packet:
    /// the whole the per-layer budget is reconciled against.
    pub ns_per_pkt: f64,
    pub timer_fires_per_pkt: f64,
    /// Peak packets resident in the scheduler (sizes the layer replays).
    pub peak_backlog: u64,
}

// ---------------------------------------------------------------------------
// Threaded workloads
// ---------------------------------------------------------------------------

/// Per-flow pacing gap of a host config, as both runtimes compute it.
pub fn pacing_gap(host: &HostConfig) -> Nanos {
    MTU_BITS * SECOND / (host.aggregate.as_bps() / host.flows as u64).max(1)
}

/// `shape_20k` host: the paper's §5.1.1 point — 1.2 Mb/s per flow,
/// 24 Gb/s = 2.0 Mpps at 20 000 flows (scaled with the flow count).
pub fn shape_host(sz: Sizes) -> HostConfig {
    HostConfig {
        flows: sz.flows,
        aggregate: Rate::bps(1_200_000 * sz.flows as u64),
        duration: SECOND, // ignored by threaded runs
        bin: SECOND / 20,
        tsq_budget: sz.window,
        batch: sz.batch,
    }
}

/// Seeded first-emission times: sorted uniform draws over one pacing gap
/// (the default stagger is the same spread, evenly spaced).
pub fn shape_starts(seed: u64, host: &HostConfig) -> Vec<Nanos> {
    let gap = pacing_gap(host);
    let mut rng = SplitMix64::new(seed ^ 0x5a4e_57a7);
    let mut starts: Vec<Nanos> = (0..host.flows).map(|_| rng.next_below(gap)).collect();
    starts.sort_unstable();
    starts
}

/// Buckets and bucket width of the `shape_20k` shaper — the geometry of
/// `EiffelQdisc::paper_config()` (20 000 buckets of 100 µs, a 2 s horizon)
/// spelled out, so that the bare queue the traced pass probes is built from
/// the same two numbers as the qdisc.
pub const SHAPE_BUCKETS: usize = 20_000;
pub const SHAPE_GRANULARITY: Nanos = 100_000;

pub fn shape_qdisc() -> EiffelQdisc {
    EiffelQdisc::new(SHAPE_BUCKETS, SHAPE_GRANULARITY)
}

pub fn shape_config(seed: u64, sz: Sizes, wall: Duration) -> ThreadedConfig {
    let host = shape_host(sz);
    let mut cfg = ThreadedConfig::timed(1, host, WallNanos::from_duration(wall));
    cfg.starts = Some(shape_starts(seed, &cfg.host));
    cfg
}

/// `saturate_2k` host: the aggregate is set far above what the pipeline can
/// move, so nothing but the pipeline limits the rate.
pub fn saturate_host(sz: Sizes) -> HostConfig {
    HostConfig {
        flows: sz.flows,
        aggregate: Rate::gbps(4_000),
        duration: SECOND,
        bin: SECOND / 20,
        tsq_budget: sz.window,
        batch: sz.batch,
    }
}

pub const SATURATE_BUCKETS: usize = 4_096;

pub fn saturate_pattern(seed: u64) -> RankPattern {
    RankPattern::Uniform {
        max: SATURATE_BUCKETS as u64 - 1,
        seed,
    }
}

pub fn saturate_qdisc(seed: u64) -> RankedShaperQdisc {
    RankedShaperQdisc::new(
        QueueKind::Cffs,
        QueueConfig::new(SATURATE_BUCKETS, 1, 0),
        saturate_pattern(seed),
    )
}

pub fn saturate_config(sz: Sizes, wall: Duration) -> ThreadedConfig {
    ThreadedConfig::timed(1, saturate_host(sz), WallNanos::from_duration(wall))
}

/// One threaded run of `w` for `wall`.
fn run_threaded_once(w: Workload, seed: u64, sz: Sizes, wall: Duration) -> ThreadedReport {
    match w {
        Workload::Shape20k => run_threaded(|_| shape_qdisc(), &shape_config(seed, sz, wall)),
        Workload::Saturate2k => run_threaded(|_| saturate_qdisc(seed), &saturate_config(sz, wall)),
        _ => unreachable!("{} is not a threaded workload", w.name()),
    }
}

fn threaded_rep(w: Workload, seed: u64, plan: &Plan) -> Rep {
    let sz = w.sizes(plan.quick);
    std::hint::black_box(run_threaded_once(w, seed, sz, plan.warm).transmitted);

    // `run_threaded` generates nothing but builds everything: rings, the
    // qdisc, the CPU meter and per-flow producer state, before its own
    // clock starts, and joins its thread and folds the report after it
    // stops. Set-up is the call minus the region it timed itself (the
    // seeded start times of `shape_20k` are generated inside the call's
    // argument, so they count too).
    let t0 = Instant::now();
    let r = run_threaded_once(w, seed, sz, plan.rep);
    let call_s = t0.elapsed().as_secs_f64();
    let secs = r.wall_elapsed.as_secs_f64();
    let mpps = r.transmitted as f64 / secs / 1e6;
    let shed = r.chaos.admission_dropped + r.chaos.evicted;
    let residue = r.emitted as i64 - (r.transmitted + shed) as i64;
    let window = (sz.flows as u64 * u64::from(sz.window)) as i64;
    let checks = vec![
        check(
            "conservation",
            r.chaos.final_unaccounted == 0,
            format!("final_unaccounted = {}", r.chaos.final_unaccounted),
        ),
        check(
            "residue_within_window",
            (0..=window).contains(&residue),
            format!(
                "emitted {} = delivered {} + shed {shed} + residue {residue}; window {window}",
                r.emitted, r.transmitted
            ),
        ),
    ];
    let (goodput_frac, ns_per_pkt) = match w {
        // Below capacity the wall clock prices nothing; the whole is the
        // busy time the meters charged, per packet.
        Workload::Shape20k => (
            r.transmitted as f64 / (shape_target_pps(sz) * secs),
            r.total_median_cores * 1e3 / mpps,
        ),
        _ => {
            let owed = (r.emitted as i64 - residue).max(1) as f64;
            (r.transmitted as f64 / owed, 1e3 / mpps)
        }
    };
    Rep {
        setup_s: call_s - secs,
        timed_s: secs,
        mpps,
        busy_cores: r.total_median_cores,
        goodput_frac,
        delivered: r.transmitted,
        attempted: r.emitted,
        failed: r.dropped + shed + r.chaos.final_unaccounted.unsigned_abs(),
        counts: Vec::new(),
        checks,
        ns_per_pkt,
        timer_fires_per_pkt: r.timer_fires as f64 / r.transmitted.max(1) as f64,
        peak_backlog: r.peak_backlog as u64,
    }
}

/// Packets per second `shape_20k` is shaped to.
fn shape_target_pps(sz: Sizes) -> f64 {
    shape_host(sz).aggregate.as_bps() as f64 / MTU_BITS as f64
}

/// `shape_20k` over the whole pass: delivered ÷ (target rate × timed
/// seconds) ≥ 0.99. Pooled over the repetitions, not per repetition: the
/// shaper never catches up after a stall (socket clocks only move forward),
/// so one 15 ms hypervisor pause costs 1 % of a repetition and says nothing
/// about the shaper.
fn rate_held(sz: Sizes, reps: &[Rep]) -> Check {
    let delivered: u64 = reps.iter().map(|r| r.delivered).sum();
    let secs: f64 = reps.iter().map(|r| r.timed_s).sum();
    let frac = delivered as f64 / (shape_target_pps(sz) * secs);
    check(
        "rate_held",
        frac >= 0.99,
        format!(
            "achieved / target = {frac:.5} over {} repetitions (floor 0.99)",
            reps.len()
        ),
    )
}

/// Replays the workload's rank stream through the exact backend and drains
/// it: the release order must have no inversion at bucket granularity.
fn verify_rank_order(seed: u64, sz: Sizes) -> Check {
    let pattern = saturate_pattern(seed);
    let mut q: Box<dyn RankedQueue<u32>> =
        QueueKind::Cffs.build(QueueConfig::new(SATURATE_BUCKETS, 1, 0));
    let per_flow = 50;
    for seq in 0..per_flow {
        for flow in 0..sz.flows as FlowId {
            q.enqueue(pattern.rank(flow, seq), flow)
                .expect("ranks fit the queue range");
        }
    }
    let mut out = Vec::new();
    while q.dequeue_batch(sz.batch, &mut out) > 0 {}
    let ranks: Vec<u64> = out.iter().map(|&(r, _)| r).collect();
    let (inverted, gap) = count_inversions(&ranks);
    check(
        "rank_order",
        inverted == 0 && ranks.len() as u64 == per_flow * sz.flows as u64,
        format!(
            "{} ranks drained, {inverted} inverted (max gap {gap})",
            ranks.len()
        ),
    )
}

// ---------------------------------------------------------------------------
// tree_busypoll
// ---------------------------------------------------------------------------

/// The two-level policy: WFQ at the root over an SRTF class, an LQF class,
/// a rate-limited round-robin class and a deadline class — per-flow
/// ranking, on-dequeue re-ranking, shaping and per-packet ranking all in
/// one tree, through the one policy engine.
pub const TREE_POLICY: &str = "\
node root     kind=wfq
node short    parent=root kind=flow:pfabric weight=4
node bulk     parent=root kind=flow:lqf     weight=2
node capped   parent=root kind=flow:fifo    weight=1 limit=2gbps
node deadline parent=root kind=lstf         weight=1
";
const TREE_LEAVES: [&str; 4] = ["short", "bulk", "capped", "deadline"];

/// Virtual wire time of one packet: the busy-polling port drains at
/// 40 Gb/s, so the `capped` class (2 Gb/s) gets 1/20 of the slots.
const WIRE_NS: Nanos = MTU_BITS * SECOND / 40_000_000_000;

/// Largest pFabric flow, in packets (ranks stay inside the leaf's 2^20
/// buckets), and largest LSTF slack.
const MAX_FLOW_PKTS: u64 = 1 << 16;
const MAX_SLACK_NS: u64 = 1_000_000;

/// The busy-poll rig: a compiled tree kept busy by a per-flow closed loop
/// on a virtual wire clock. Each flow sends a burst (1 to `2·window − 1`
/// packets, mean `window`) and sends its next burst when the last packet
/// of the previous one has been served.
///
/// Bursts, not one-for-one replacement, because of what the first runs
/// showed: `flow:lqf` invalidates a flow's queue entry lazily on every
/// re-rank, and under one-for-one replacement no flow ever gets shorter
/// than `window − 1`, so the stale entries behind that rank are never
/// reached and memory grows ~40 B per packet served, without bound. With
/// bursts every queue length down to zero recurs and stale entries are
/// swept as they are reached. (README, "Findings", has the recipe.)
pub struct TreeRig {
    tree: PifoTree,
    leaves: [NodeId; 4],
    rng: SplitMix64,
    /// pFabric remaining size per flow, counted down to a fresh draw.
    remaining: Vec<u64>,
    /// Packets of each flow's current burst not yet served.
    outstanding: Vec<u32>,
    window: u64,
    batch: usize,
    next_id: u64,
    vt: Nanos,
    out: Vec<Packet>,
    /// Minted packets waiting for their enqueue.
    burst: Vec<(NodeId, Packet)>,
    pub enqueued: u64,
    pub served: u64,
    pub idle_polls: u64,
}

impl TreeRig {
    /// Compiles the policy and mints every flow's first burst into
    /// `self.burst`; nothing is in the tree yet.
    fn minted(seed: u64, sz: Sizes) -> TreeRig {
        let tree = lang::compile(TREE_POLICY).expect("the benchmark's policy compiles");
        let leaves = TREE_LEAVES.map(|n| tree.node_by_name(n).expect("declared above"));
        let mut rig = TreeRig {
            tree,
            leaves,
            rng: SplitMix64::new(seed ^ 0x7ee_b057),
            remaining: vec![0; sz.flows],
            outstanding: vec![0; sz.flows],
            window: u64::from(sz.window),
            batch: sz.batch,
            next_id: 0,
            vt: 0,
            out: Vec::with_capacity(sz.batch),
            burst: Vec::new(),
            enqueued: 0,
            served: 0,
            idle_polls: 0,
        };
        for flow in 0..sz.flows as FlowId {
            rig.next_burst(flow);
        }
        rig
    }

    /// A rig with every flow's first burst in the tree.
    pub fn new(seed: u64, sz: Sizes) -> TreeRig {
        let mut rig = TreeRig::minted(seed, sz);
        rig.enqueue_burst();
        rig
    }

    /// The next packet of `flow`, annotated for its class.
    fn mint(&mut self, flow: FlowId) -> (NodeId, Packet) {
        let class = flow as usize % 4;
        let mut pkt = Packet::mtu(self.next_id, flow, self.vt);
        self.next_id += 1;
        pkt.rank = match class {
            0 => {
                let left = &mut self.remaining[flow as usize];
                if *left == 0 {
                    *left = 1 + self.rng.next_below(MAX_FLOW_PKTS);
                }
                *left -= 1;
                *left + 1
            }
            3 => self.rng.next_below(MAX_SLACK_NS),
            _ => 0,
        };
        (self.leaves[class], pkt)
    }

    /// Mints the next burst of a flow whose previous burst is fully served
    /// into `self.burst`.
    fn next_burst(&mut self, flow: FlowId) {
        let n = 1 + self.rng.next_below(2 * self.window - 1);
        self.outstanding[flow as usize] = n as u32;
        for _ in 0..n {
            let minted = self.mint(flow);
            self.burst.push(minted);
        }
    }

    /// Books one served packet; if it was its flow's last one outstanding,
    /// the flow's next burst is minted into `self.burst`.
    fn departed(&mut self, flow: FlowId) {
        let left = &mut self.outstanding[flow as usize];
        *left -= 1;
        if *left == 0 {
            self.next_burst(flow);
        }
    }

    /// Enqueues everything minted into `self.burst`; returns how many.
    fn enqueue_burst(&mut self) -> u64 {
        let n = self.burst.len() as u64;
        for (leaf, pkt) in self.burst.drain(..) {
            self.tree
                .enqueue(self.vt, leaf, pkt)
                .expect("every class is a leaf");
        }
        self.enqueued += n;
        n
    }

    /// One batched dequeue into `self.out`. When nothing is eligible the
    /// clock hops to the next shaper release and 0 is returned.
    #[inline]
    fn dequeue(&mut self) -> usize {
        self.out.clear();
        let got = self.tree.dequeue_batch(self.vt, self.batch, &mut self.out);
        if got == 0 {
            self.idle_polls += 1;
            self.vt = match self.tree.soonest_deadline(self.vt) {
                Some(d) if d > self.vt => d,
                _ => self.vt + WIRE_NS,
            };
        }
        self.vt += got as u64 * WIRE_NS;
        got
    }

    /// Busy-polls for `dur`, untraced. Returns wall seconds spent.
    pub fn run(&mut self, dur: Duration) -> f64 {
        let start = Instant::now();
        loop {
            for _ in 0..64 {
                let got = self.dequeue();
                self.served += got as u64;
                for i in 0..got {
                    self.departed(self.out[i].flow);
                }
                self.enqueue_burst();
            }
            if start.elapsed() >= dur {
                return start.elapsed().as_secs_f64();
            }
        }
    }

    /// The same loop with a span around each chunk of `pifo.tree` calls:
    /// dequeue polls until a chunk of packets is out, then the bursts they
    /// trigger. Moving refills behind a chunk of dequeues changes no
    /// per-call work and lets one clock pair price ~1 000 calls.
    pub fn run_traced(&mut self, dur: Duration, t: &mut Tracer, parent: SpanId) -> f64 {
        let start = Instant::now();
        let mut flows: Vec<FlowId> = Vec::with_capacity(CHUNK + self.batch);
        while start.elapsed() < dur {
            flows.clear();
            let s0 = t.now_ns();
            while flows.len() < CHUNK {
                self.dequeue();
                flows.extend(self.out.iter().map(|p| p.flow));
            }
            let s1 = t.now_ns();
            t.push("pifo.tree.deq", Some(parent), s0, s1, flows.len() as u64);
            self.served += flows.len() as u64;
            // Minting is the generator's cost, not the tree's.
            for &flow in &flows {
                self.departed(flow);
            }
            let s2 = t.now_ns();
            t.push(
                "workloads.gen",
                Some(parent),
                s1,
                s2,
                self.burst.len() as u64,
            );
            let n = self.enqueue_burst();
            let s3 = t.now_ns();
            t.push("pifo.tree.enq", Some(parent), s2, s3, n);
        }
        start.elapsed().as_secs_f64()
    }

    pub fn resident(&self) -> usize {
        self.tree.len()
    }

    /// Packets the flows' books say are still inside the tree.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.iter().map(|&n| u64::from(n)).sum()
    }
}

/// Replays the run's own first bursts — what [`TreeRig::new`] enqueues for
/// this seed — through single-leaf trees of the SRTF and deadline kinds and
/// drains them: each class, alone, must come out in rank order. Of an SRTF
/// flow only the first packet is replayed, so that flow rank = packet rank.
fn verify_tree_order(seed: u64, sz: Sizes) -> Check {
    let rig = TreeRig::minted(seed, sz);
    let mut bad = 0u64;
    let (mut fed, mut drained) = (0usize, 0usize);
    for (policy, class) in [
        ("node root kind=flow:pfabric", 0),
        ("node root kind=lstf", 3),
    ] {
        let mut tree = lang::compile(policy).expect("single-leaf policy compiles");
        let root = tree.node_by_name("root").expect("declared");
        let mut last_flow = None;
        for (leaf, pkt) in &rig.burst {
            if *leaf != rig.leaves[class] || (class == 0 && last_flow == Some(pkt.flow)) {
                continue;
            }
            last_flow = Some(pkt.flow);
            tree.enqueue(0, root, pkt.clone())
                .expect("root is the leaf");
            fed += 1;
        }
        let mut out = Vec::new();
        while tree.dequeue_batch(0, sz.batch, &mut out) > 0 {}
        let ranks: Vec<u64> = out.iter().map(|p| p.rank).collect();
        bad += count_inversions(&ranks).0;
        drained += ranks.len();
    }
    check(
        "rank_order",
        bad == 0 && drained == fed && fed > 0,
        format!(
            "{drained} of {fed} first-burst packets drained from the SRTF and deadline classes, \
             {bad} inverted"
        ),
    )
}

fn tree_rep(seed: u64, plan: &Plan) -> Rep {
    let sz = Workload::TreeBusypoll.sizes(plan.quick);
    let t0 = Instant::now();
    let mut rig = TreeRig::new(seed, sz);
    let setup_s = t0.elapsed().as_secs_f64();
    rig.run(plan.warm);

    let cpu_ns = || env::thread_cpu_ns().expect("schedstat was readable when the pass started");
    let (served0, enq0, cpu0) = (rig.served, rig.enqueued, cpu_ns());
    let secs = rig.run(plan.rep);
    let cpu_s = (cpu_ns() - cpu0) as f64 / 1e9;
    let served = rig.served - served0;
    let mpps = served as f64 / secs / 1e6;
    let lost = rig.enqueued as i64 - rig.served as i64 - rig.resident() as i64;
    let checks = vec![check(
        "conservation",
        lost == 0 && rig.resident() as u64 == rig.outstanding(),
        format!(
            "enqueued {} = served {} + resident {} (flows expect {})",
            rig.enqueued,
            rig.served,
            rig.resident(),
            rig.outstanding()
        ),
    )];
    Rep {
        setup_s,
        timed_s: secs,
        mpps,
        busy_cores: cpu_s / secs,
        goodput_frac: served as f64 / (served as i64 + lost).max(1) as f64,
        delivered: served,
        attempted: rig.enqueued - enq0,
        failed: lost.unsigned_abs(),
        counts: Vec::new(),
        checks,
        ns_per_pkt: 1e3 / mpps,
        timer_fires_per_pkt: 0.0,
        peak_backlog: rig.resident() as u64,
    }
}

// ---------------------------------------------------------------------------
// overload_100k
// ---------------------------------------------------------------------------

/// Shaped drain capacity (0.5 Mpps) and what each flow offers into it.
const OVERLOAD_CAPACITY: Rate = Rate::mbps(6_000);
const OVERLOAD_PER_FLOW_BPS: u64 = 300_000;
const OVERLOAD_BUDGET: u64 = 64 * 1024 * 1024;
const OVERLOAD_TIERS: (u64, u64, u64) = (40, 55, 70);
pub const OVERLOAD_ADMIT: AdmitPolicy = AdmitPolicy::EcnMark {
    cap: 2_048,
    mark_at: 256,
};
/// Virtual seconds simulated per repetition. Fixed, so counts compare
/// across machines and across `--seconds`.
pub const OVERLOAD_VIRTUAL: Nanos = 4 * SECOND;

pub fn overload_qdisc() -> EiffelQdisc {
    EiffelQdisc::new(1 << 15, 100_000)
}

/// The overload cell of `fig_overload`, on the virtual clock: finite
/// trace-shaped flows offering 5× the shaped capacity, ECN marking, a hard
/// memory budget with the 40/55/70 tier ladder. Flows, capacity and budget
/// shrink together in `quick`, so the offered/capacity ratio stays 5.
pub fn overload_config(seed: u64, sz: Sizes) -> (ShardedConfig, Arc<MemBudget>) {
    let scale = 100_000 / sz.flows as u64;
    let budget_bytes = OVERLOAD_BUDGET / scale;
    // The shaper provisions the capacity over the flows admission can
    // establish (the set-up budget up to the refuse tier), not over the
    // offered population.
    let admittable = (budget_bytes * OVERLOAD_TIERS.2 / 100 / FLOW_SETUP_BYTES).max(1);
    let capacity = OVERLOAD_CAPACITY.as_bps() / scale;
    let aggregate = capacity.saturating_mul(sz.flows as u64) / admittable.min(sz.flows as u64);
    let host = HostConfig {
        flows: sz.flows,
        aggregate: Rate::bps(aggregate),
        duration: OVERLOAD_VIRTUAL,
        bin: SECOND / 20,
        tsq_budget: sz.window,
        batch: sz.batch,
    };
    let mut cfg = ShardedConfig::new(1, host);
    cfg.pkts_override = Some(trace_shaped_pkts(
        sz.flows,
        FlowSizeDist::WebSearch,
        512,
        seed,
    ));
    cfg.offered_gap = Some(MTU_BITS * SECOND / OVERLOAD_PER_FLOW_BPS);
    cfg.chaos.admit = OVERLOAD_ADMIT;
    cfg.closed_loop = Some(ClosedLoopParams {
        initial_scale: 192,
        additive: 16,
        slow_start: false,
        ..ClosedLoopParams::default()
    });
    let budget = Arc::new(MemBudget::with_thresholds(
        budget_bytes,
        OVERLOAD_TIERS.0,
        OVERLOAD_TIERS.1,
        OVERLOAD_TIERS.2,
    ));
    cfg.mem = Some(Arc::clone(&budget));
    (cfg, budget)
}

/// Packets the shaped drain can deliver over the run.
fn overload_capacity_pkts(sz: Sizes, cfg: &ShardedConfig) -> f64 {
    let scale = 100_000 / sz.flows as u64;
    (OVERLOAD_CAPACITY.as_bps() / scale) as f64 / MTU_BITS as f64 * cfg.host.duration as f64 / 1e9
}

fn overload_counts(r: &ShardedReport) -> Vec<(&'static str, u64)> {
    vec![
        ("emitted", r.emitted),
        ("delivered", r.transmitted),
        ("marked", r.ecn_marked),
        ("dropped", r.admission_dropped + r.evicted + r.dropped),
        ("setup_refused", r.setup_refused),
        ("timer_fires", r.timer_fires),
        ("peak_backlog", r.peak_backlog as u64),
    ]
}

fn overload_rep(seed: u64, plan: &Plan) -> Rep {
    let sz = Workload::Overload100k.sizes(plan.quick);
    // Set-up: flow sizes, host and budget. `run_sharded` builds its flow
    // table inside the call, which is the timed region.
    let t0 = Instant::now();
    let (cfg, budget) = overload_config(seed, sz);
    let setup_s = t0.elapsed().as_secs_f64();
    // Warm-up: a quarter of the virtual duration, discarded.
    let (mut warm_cfg, _) = overload_config(seed, sz);
    warm_cfg.host.duration /= 4;
    std::hint::black_box(run_sharded(|_| overload_qdisc(), &warm_cfg).transmitted);

    let start = Instant::now();
    let r = run_sharded(|_| overload_qdisc(), &cfg);
    let secs = start.elapsed().as_secs_f64();
    let mpps = r.transmitted as f64 / secs / 1e6;
    let shed = r.admission_dropped + r.evicted;
    let checks = vec![
        check(
            "conservation",
            r.emitted == r.transmitted + shed + r.residue,
            format!(
                "emitted {} = delivered {} + shed {shed} + residue {}",
                r.emitted, r.transmitted, r.residue
            ),
        ),
        check(
            "memory_ledger",
            budget.in_use() == 0 && r.mem_peak <= budget.budget() && r.mem_peak > 0,
            format!(
                "in_use {} at exit, peak {} of {}",
                budget.in_use(),
                r.mem_peak,
                budget.budget()
            ),
        ),
    ];
    Rep {
        setup_s,
        timed_s: secs,
        mpps,
        busy_cores: r.total_median_cores,
        goodput_frac: r.transmitted as f64 / overload_capacity_pkts(sz, &cfg),
        delivered: r.transmitted,
        attempted: r.emitted,
        failed: shed + r.dropped,
        counts: overload_counts(&r),
        checks,
        ns_per_pkt: 1e3 / mpps,
        timer_fires_per_pkt: r.timer_fires as f64 / r.transmitted.max(1) as f64,
        peak_backlog: r.peak_backlog as u64,
    }
}

/// The untraced pass: repetitions until the plan's measuring time is spent.
pub fn run_reps(w: Workload, seed: u64, plan: &Plan) -> Vec<Rep> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut timed = 0.0;
    // A wall-clock repetition lasts at least `rep`, so those workloads stop
    // at exactly `plan.reps`.
    while reps.len() < plan.reps || timed < plan.seconds {
        let rep = run_rep(w, seed, plan);
        timed += rep.timed_s;
        reps.push(rep);
    }
    reps
}

/// Every check of a pass: each repetition's own, then the ones that look at
/// the pass as a whole or that depend on the seed alone and so run once.
pub fn pass_checks(w: Workload, seed: u64, plan: &Plan, reps: &[Rep]) -> Vec<Check> {
    let sz = w.sizes(plan.quick);
    let mut all: Vec<Check> = reps.iter().flat_map(|r| r.checks.clone()).collect();
    all.push(match w {
        Workload::Shape20k => rate_held(sz, reps),
        Workload::Saturate2k => verify_rank_order(seed, sz),
        Workload::TreeBusypoll => verify_tree_order(seed, sz),
        Workload::Overload100k => {
            let same = reps.iter().all(|r| r.counts == reps[0].counts);
            check(
                "counts_repeat",
                same,
                format!(
                    "{} repetitions, counts {}",
                    reps.len(),
                    if same { "identical" } else { "differ" }
                ),
            )
        }
    });
    all
}

/// One set-up plus one timed, untraced repetition of `w`.
pub fn run_rep(w: Workload, seed: u64, plan: &Plan) -> Rep {
    match w {
        Workload::Shape20k | Workload::Saturate2k => threaded_rep(w, seed, plan),
        Workload::TreeBusypoll => tree_rep(seed, plan),
        Workload::Overload100k => overload_rep(seed, plan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_spends_its_seconds_whatever_else_is_set() {
        // Repetition lengths are whole nanoseconds.
        let timed = |p: &Plan| p.rep.as_secs_f64() * p.reps as f64;
        let full = Plan::new(false, None);
        assert_eq!(full.seconds, RUN_SECONDS);
        assert!((timed(&full) - RUN_SECONDS).abs() < 1e-6);
        // `--quick` changes sizes and the default, not what `--seconds` means.
        assert_eq!(Plan::new(true, None).seconds, QUICK_SECONDS);
        assert!((timed(&Plan::new(true, Some(3.0))) - 3.0).abs() < 1e-6);
        assert_eq!(Plan::new(false, Some(3.0)).seconds, 3.0);
    }

    #[test]
    fn the_tree_order_check_replays_the_bursts_the_run_enqueues() {
        let sz = Workload::TreeBusypoll.sizes(true);
        let (minted, rig) = (TreeRig::minted(9, sz), TreeRig::new(9, sz));
        assert_eq!(minted.burst.len() as u64, rig.enqueued);
        assert_eq!(rig.resident() as u64, rig.enqueued);
        assert!(verify_tree_order(9, sz).ok);
    }
}
