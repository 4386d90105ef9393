//! The traced pass: what each layer costs on a workload's inputs, and how
//! the parts add up against the whole.
//!
//! The stage bodies of the two runtimes are `pub(crate)`, so nothing here
//! reaches inside a run. Instead each layer is driven on its own, single
//! threaded, through its public API, with the same closed loop the workload
//! runs (same flow table, window, batch, rank or time stream), and spans are
//! recorded around chunks of calls. A layer's cost is expressed per packet
//! of the workload; its self time is that cost minus its children's; the
//! root's self time is the residual — everything no layer below accounts
//! for (and, on the threaded workloads, the overlap of two threads).

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use eiffel_chaos::AdmitPolicy;
use eiffel_core::{DegradeTier, HierBitmap, QueueConfig, QueueKind, RankedQueue, SpscRing};
use eiffel_qdisc::{
    run_sharded, run_sharded_traced, run_threaded_traced, ShaperQdisc, ShardedConfig,
};
use eiffel_sim::cpu::{IRQ_ENTRY_NS, LOCK_NS, PER_PACKET_STACK_NS};
use eiffel_sim::{CpuCategory, CpuMeter, FlowId, Nanos, Packet, SECOND};
use eiffel_workloads::{trace_shaped_pkts, FlowSizeDist, RankPattern};

use crate::metrics::PER_LAYER;
use crate::pacing::pace_errors;
use crate::spans::{SpanId, Tracer, CHUNK};
use crate::stats::{highest_supported_percentile, percentile_sorted};
use crate::workloads::{
    overload_config, overload_qdisc, pacing_gap, pass_checks, run_rep, saturate_config,
    saturate_host, saturate_pattern, saturate_qdisc, shape_config, shape_host, shape_qdisc,
    shape_starts, Check, Plan, Rep, Sizes, TreeRig, Workload, OVERLOAD_ADMIT, SATURATE_BUCKETS,
    SHAPE_BUCKETS, SHAPE_GRANULARITY,
};

/// One line of the ledger: a layer's cost per packet of the workload.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    /// Calls into the layer per packet.
    pub ops_per_pkt: f64,
    /// Inclusive cost: the layer and everything below it.
    pub ns_per_pkt: f64,
    /// Cost minus the children's inclusive cost (filled by `reconcile`).
    pub self_ns: f64,
    /// Self time as a share of the end-to-end cost.
    pub share: f64,
}

/// A line beside the path: not summed, so its self time is given.
fn beside_row(name: &'static str, ops_per_pkt: f64, ns_per_pkt: f64, self_ns: f64) -> LayerRow {
    LayerRow {
        self_ns,
        ..row(name, None, ops_per_pkt, ns_per_pkt)
    }
}

fn row(
    name: &'static str,
    parent: Option<&'static str>,
    ops_per_pkt: f64,
    ns_per_pkt: f64,
) -> LayerRow {
    LayerRow {
        name,
        parent,
        ops_per_pkt,
        ns_per_pkt,
        self_ns: 0.0,
        share: 0.0,
    }
}

/// Fills self time and share; returns the root's self time (the residual).
pub fn reconcile(rows: &mut [LayerRow]) -> f64 {
    let whole = rows[0].ns_per_pkt;
    for i in 0..rows.len() {
        let children: f64 = rows
            .iter()
            .filter(|r| r.parent == Some(rows[i].name))
            .map(|r| r.ns_per_pkt)
            .sum();
        rows[i].self_ns = rows[i].ns_per_pkt - children;
        rows[i].share = if whole > 0.0 {
            rows[i].self_ns / whole
        } else {
            0.0
        };
    }
    rows[0].self_ns
}

/// Result of the traced pass on one workload.
pub struct Traced {
    /// Every [`PER_LAYER`] metric, in registry order.
    pub metrics: Vec<(&'static str, f64)>,
    pub budget: Budget,
    /// The untraced repetition the pass is reconciled against: the median
    /// of three.
    pub rep: Rep,
    /// [`pass_checks`] of the three, and their packets emitted and lost.
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
}

/// The reconciled table of one workload.
pub struct Budget {
    /// Root first; rows whose layer is on the workload's path.
    pub rows: Vec<LayerRow>,
    /// Layers measured beside the path (not part of the sum).
    pub beside: Vec<LayerRow>,
    /// "wall" or "busy": what the whole is measured in.
    pub basis: &'static str,
    /// Samples behind the pacing-error percentile, and which percentile.
    pub pace_samples: usize,
    pub pace_percentile: f64,
}

#[derive(Default)]
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        self.0.push((name, v));
    }

    /// Registry order, zero for anything a workload did not set.
    fn finish(self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, _, _)| {
                let v = self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |m| m.1);
                (name, v)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Rank streams: what a workload feeds the queue layer
// ---------------------------------------------------------------------------

/// The ranks a workload's closed loop presents to its queue: a start set,
/// then one new rank per packet served. Only the two workloads whose ranks
/// follow from the benchmark's own inputs have one: `shape_20k` (seeded
/// start times + the pacing gap it configures) and `saturate_2k` (the
/// `RankPattern` it hands the qdisc). `tree_busypoll` and `overload_100k`
/// rank inside the library, where nothing public reports the stream, so
/// their queue and bitmap lines are not printed rather than guessed.
#[derive(Clone)]
enum RankStream {
    /// Per-flow pacing: a flow's next stamp is one window of gaps after
    /// the stamp just served (`shape_20k`: a moving time window).
    Paced {
        starts: Vec<Nanos>,
        gap: Nanos,
        window: u64,
    },
    /// Independent ranks in a fixed range (`saturate_2k`).
    Uniform {
        pattern: RankPattern,
        flows: u32,
        cursor: u64,
    },
}

impl RankStream {
    fn initial(&mut self, resident: usize) -> Vec<u64> {
        match self {
            RankStream::Paced {
                starts,
                gap,
                window,
            } => {
                let (gap, window) = (*gap, *window);
                starts
                    .iter()
                    .flat_map(|&s| (0..window).map(move |j| s + j * gap))
                    .take(resident)
                    .collect()
            }
            _ => (0..resident).map(|_| self.next(0)).collect(),
        }
    }

    #[inline]
    fn next(&mut self, served: u64) -> u64 {
        match self {
            RankStream::Paced { gap, window, .. } => served + *window * *gap,
            RankStream::Uniform {
                pattern,
                flows,
                cursor,
            } => {
                let r = pattern.rank(
                    (*cursor % u64::from(*flows)) as FlowId,
                    *cursor / u64::from(*flows),
                );
                *cursor += 1;
                r
            }
        }
    }
}

/// How a workload uses its queue layer.
struct QueueUse {
    cfg: QueueConfig,
    stream: RankStream,
    resident: usize,
    batch: usize,
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// One `HierBitmap` call of the op log.
#[derive(Clone, Copy)]
enum BitOp {
    First,
    Set(u32),
    Clear(u32),
}

/// `core.bitmap`: the set / first_set / clear traffic of the queue's one
/// round trip per packet, on the workload's bucket-index stream. A bucket's bit is
/// set when it becomes non-empty and cleared when it empties, as the queue
/// does. The bookkeeping that decides this (occupancy counts, the rank
/// stream) runs untimed on a model bitmap and logs the calls; the timed
/// loop applies the log to a twin bitmap and does nothing else.
fn probe_bitmap(t: &mut Tracer, parent: SpanId, u: &QueueUse, dur: Duration) -> (f64, f64) {
    let len = u.cfg.num_buckets;
    let bucket_of = |rank: u64| (rank / u.cfg.granularity) as usize % len;
    let mut stream = u.stream.clone();
    let mut model = HierBitmap::new(len);
    let mut count = vec![0u32; len];
    let mut last_rank = vec![0u64; len];
    for r in stream.initial(u.resident) {
        let b = bucket_of(r);
        count[b] += 1;
        last_rank[b] = r;
        model.set(b);
    }
    let mut twin = model.clone();
    let layer = t.open("core.bitmap", Some(parent));
    let start = Instant::now();
    let mut log: Vec<BitOp> = Vec::with_capacity(3 * CHUNK);
    let (mut ops, mut pkts) = (0u64, 0u64);
    while start.elapsed() < dur {
        log.clear();
        for _ in 0..CHUNK {
            let Some(b) = model.first_set() else { break };
            log.push(BitOp::First);
            count[b] -= 1;
            if count[b] == 0 {
                model.clear(b);
                log.push(BitOp::Clear(b as u32));
            }
            let r = stream.next(last_rank[b]);
            let nb = bucket_of(r);
            last_rank[nb] = r;
            count[nb] += 1;
            if count[nb] == 1 {
                model.set(nb);
                log.push(BitOp::Set(nb as u32));
            }
        }
        t.time("core.bitmap.ops", Some(layer), log.len() as u64, || {
            for &op in &log {
                match op {
                    BitOp::First => {
                        black_box(twin.first_set());
                    }
                    BitOp::Set(i) => twin.set(i as usize),
                    BitOp::Clear(i) => twin.clear(i as usize),
                }
            }
        });
        ops += log.len() as u64;
        pkts += CHUNK as u64;
    }
    assert_eq!(
        twin.count_ones(),
        model.count_ones(),
        "twin bitmap diverged"
    );
    t.close(layer, pkts);
    (
        t.ns_per_op("core.bitmap.ops"),
        ops as f64 / pkts.max(1) as f64,
    )
}

struct QueueCost {
    enq_ns: f64,
    deq_ns: f64,
    depth_mean: f64,
    clamped_frac: f64,
}

/// `core.queue`: the exact backend on the workload's rank stream, held at
/// the workload's depth: dequeue a chunk, enqueue its replacements.
fn probe_queue(t: &mut Tracer, parent: SpanId, u: &QueueUse, dur: Duration) -> QueueCost {
    let mut stream = u.stream.clone();
    let mut q: Box<dyn RankedQueue<Packet>> = QueueKind::Cffs.build(u.cfg);
    let mut enqueued = 0u64;
    for (i, r) in stream.initial(u.resident).into_iter().enumerate() {
        q.enqueue(r, Packet::mtu(i as u64, 0, 0))
            .unwrap_or_else(|_| unreachable!("cFFS clamps instead of refusing"));
        enqueued += 1;
    }
    let layer = t.open("core.queue", Some(parent));
    let start = Instant::now();
    let mut out: Vec<(u64, Packet)> = Vec::with_capacity(CHUNK + u.batch);
    let (mut depth_sum, mut samples, mut pkts) = (0u64, 0u64, 0u64);
    while start.elapsed() < dur {
        depth_sum += q.len() as u64;
        samples += 1;
        out.clear();
        let s0 = t.now_ns();
        while out.len() < CHUNK {
            if u.batch == 1 {
                match q.dequeue_min() {
                    Some(x) => out.push(x),
                    None => break,
                }
            } else if q.dequeue_batch(u.batch, &mut out) == 0 {
                break;
            }
        }
        let s1 = t.now_ns();
        let n = out.len() as u64;
        t.push("core.queue.deq", Some(layer), s0, s1, n);
        // The stream's own cost (a hash per uniform rank) is the
        // generator's, not the queue's: draw the ranks before the span.
        for (r, _) in out.iter_mut() {
            *r = stream.next(*r);
        }
        t.time("core.queue.enq", Some(layer), n, || {
            for (r, p) in out.drain(..) {
                q.enqueue(r, p)
                    .unwrap_or_else(|_| unreachable!("cFFS clamps instead of refusing"));
            }
        });
        enqueued += n;
        pkts += n;
    }
    t.close(layer, pkts);
    let st = q.stats();
    QueueCost {
        enq_ns: t.ns_per_op("core.queue.enq"),
        deq_ns: t.ns_per_op("core.queue.deq"),
        depth_mean: depth_sum as f64 / samples.max(1) as f64,
        clamped_frac: (st.clamped_low + st.clamped_high) as f64 / enqueued.max(1) as f64,
    }
}

struct RingCost {
    hop_ns: f64,
    push_full_frac: f64,
    pop_empty_frac: f64,
}

/// `core.ring`: packets across one SPSC ring between two threads, the
/// consumer popping in the shard's batch size. A hop is wall time per
/// packet with both ends running.
fn probe_ring(t: &mut Tracer, parent: SpanId, batch: usize, dur: Duration) -> RingCost {
    // About `dur` long at ~30 ns a hop.
    let n = ((dur.as_nanos() as u64 / 30).max(10_000)) as usize;
    let (mut tx, mut rx) = SpscRing::<Packet>::new(4_096);
    let (mut pushes, mut full) = (0u64, 0u64);
    let s0 = t.now_ns();
    let (pops, empty) = std::thread::scope(|s| {
        let consumer = s.spawn(move || {
            let mut got = 0usize;
            let (mut pops, mut empty) = (0u64, 0u64);
            let mut out = Vec::with_capacity(batch);
            while got < n {
                out.clear();
                let k = rx.pop_batch(batch, &mut out);
                pops += 1;
                if k == 0 {
                    empty += 1;
                    std::hint::spin_loop();
                }
                got += k;
                black_box(&out);
            }
            (pops, empty)
        });
        for i in 0..n {
            let mut pkt = Packet::mtu(i as u64, i as FlowId, 0);
            loop {
                pushes += 1;
                match tx.push(pkt) {
                    Ok(()) => break,
                    Err(back) => {
                        full += 1;
                        pkt = back;
                        std::hint::spin_loop();
                    }
                }
            }
        }
        consumer.join().expect("ring consumer panicked")
    });
    let s1 = t.now_ns();
    t.push("core.ring", Some(parent), s0, s1, n as u64);
    RingCost {
        hop_ns: (s1 - s0) as f64 / n as f64,
        push_full_frac: full as f64 / pushes.max(1) as f64,
        pop_empty_frac: empty as f64 / pops.max(1) as f64,
    }
}

/// `sim.cpu`: what one `CpuMeter::measure` of an empty body costs — the
/// stage bodies pay it once per ingress and once per timer fire.
fn probe_cpu(t: &mut Tracer, parent: SpanId) -> f64 {
    let mut meter = CpuMeter::new(SECOND / 20, SECOND);
    black_box(meter.probe_overhead());
    for _ in 0..64 {
        t.time("sim.cpu", Some(parent), CHUNK as u64, || {
            for i in 0..CHUNK as u64 {
                meter.measure(i, CpuCategory::System, || black_box(()));
            }
        });
    }
    black_box(meter.median_cores());
    t.ns_per_op("sim.cpu")
}

/// `chaos.admit`: one admission decision per arrival, over backlogs that
/// sweep the policy's thresholds.
fn probe_admit(t: &mut Tracer, parent: SpanId, policy: AdmitPolicy) -> f64 {
    let span = policy.cap().unwrap_or(4_096) as u64 + 64;
    let mut acc = 0usize;
    for c in 0..64u64 {
        t.time("chaos.admit", Some(parent), CHUNK as u64, || {
            for i in 0..CHUNK as u64 {
                let backlog = ((c * CHUNK as u64 + i) * 7 % span) as usize;
                let tier = DegradeTier::from_index((i & 1) as usize);
                acc += black_box(policy).decide_tiered(black_box(backlog), tier) as usize;
            }
        });
    }
    black_box(acc);
    t.ns_per_op("chaos.admit")
}

/// The closed loop a workload puts around its `ShaperQdisc`.
struct LoopSpec {
    window: u32,
    rate_bps: u64,
    batch: usize,
    /// Delay between a packet's release and its flow's next arrival (0 =
    /// bulk flows gated by the TSQ window; the pacing gap = paced sources).
    think: Nanos,
    /// Most packets the stage ever lets into the qdisc at once.
    max_resident: usize,
    /// How far past the first waiting arrival an empty qdisc's round may
    /// reach (one bucket of the shaper; 0 = only what is due).
    slack: Nanos,
    /// First arrival of each flow, nondecreasing.
    starts: Vec<Nanos>,
}

struct ShaperCost {
    enq_ns: f64,
    deq_ns: f64,
    deadline_ns: f64,
}

/// `qdisc.eiffel` / `qdisc.ranked`: drives the qdisc through `enqueue`,
/// `dequeue_batch` and `next_deadline` exactly as a stage body would, on a
/// virtual clock that hops to the next deadline or the next arrival,
/// whichever is first. Arrivals that are due are enqueued in one span, then
/// releases are drained in one span, a chunk at a time.
fn probe_shaper<Q: ShaperQdisc>(
    t: &mut Tracer,
    parent: SpanId,
    names: [&'static str; 4],
    q: &mut Q,
    spec: &LoopSpec,
    dur: Duration,
) -> ShaperCost {
    let [layer_name, enq_name, deq_name, deadline_name] = names;
    let mut arrivals: VecDeque<(Nanos, FlowId)> = spec
        .starts
        .iter()
        .enumerate()
        .flat_map(|(f, &s)| (0..spec.window).map(move |_| (s, f as FlowId)))
        .collect();
    let layer = t.open(layer_name, Some(parent));
    let start = Instant::now();
    let mut now: Nanos = 0;
    let mut next_id = 0u64;
    let mut out: Vec<Packet> = Vec::with_capacity(CHUNK + spec.batch);
    let mut incoming: Vec<(Nanos, Packet)> = Vec::with_capacity(CHUNK);
    let mut released = 0u64;
    let mut wait_for_arrival = true;
    let mut rounds = 0u64;
    while start.elapsed() < dur {
        // Arrivals to let in this round: everything already due, and — when
        // the qdisc has nothing to release before then — everything up to
        // its next deadline (or, if it is empty, within `slack` of the
        // first), each enqueued at its own arrival time. On `overload_100k`
        // this batches what the real stage does one timer fire per packet;
        // see README, "What the replays cannot see".
        let mut horizon = now;
        if wait_for_arrival {
            if let Some(&(at, _)) = arrivals.front() {
                horizon = q
                    .next_deadline(now)
                    .map_or(at + spec.slack, |d| d.max(at))
                    .max(now);
            }
        }
        let room = spec.max_resident.saturating_sub(q.len()).min(CHUNK);
        incoming.clear();
        while incoming.len() < room {
            match arrivals.front() {
                Some(&(at, flow)) if at <= horizon => {
                    arrivals.pop_front();
                    let at = at.max(now);
                    incoming.push((at, Packet::mtu(next_id, flow, at)));
                    next_id += 1;
                }
                _ => break,
            }
        }
        if let Some(&(at, _)) = incoming.last() {
            let n = incoming.len() as u64;
            t.time(enq_name, Some(layer), n, || {
                for (at, pkt) in incoming.drain(..) {
                    q.enqueue(at, pkt, spec.rate_bps);
                }
            });
            now = at;
        }
        rounds += 1;
        if rounds % 32 == 0 {
            t.time(deadline_name, Some(layer), 256, || {
                for _ in 0..256 {
                    black_box(q.next_deadline(black_box(now)));
                }
            });
        }
        out.clear();
        wait_for_arrival = false;
        let s2 = t.now_ns();
        while out.len() < CHUNK {
            if q.dequeue_batch(now, spec.batch, &mut out) > 0 {
                continue;
            }
            let next_arrival = arrivals.front().map(|a| a.0);
            match q.next_deadline(now) {
                Some(d) if next_arrival.map_or(true, |a| d.max(now + 1) < a) => {
                    now = d.max(now + 1);
                }
                _ => {
                    wait_for_arrival = true;
                    break;
                }
            }
        }
        let s3 = t.now_ns();
        if !out.is_empty() {
            t.push(deq_name, Some(layer), s2, s3, out.len() as u64);
        }
        released += out.len() as u64;
        for p in &out {
            arrivals.push_back((now + spec.think, p.flow));
        }
        assert!(
            !(arrivals.is_empty() && q.is_empty()),
            "the closed loop lost its packets"
        );
    }
    t.close(layer, released);
    ShaperCost {
        enq_ns: t.ns_per_op(enq_name),
        deq_ns: t.ns_per_op(deq_name),
        deadline_ns: t.ns_per_op(deadline_name),
    }
}

const EIFFEL_SPANS: [&str; 4] = [
    "qdisc.eiffel",
    "qdisc.eiffel.enq",
    "qdisc.eiffel.deq",
    "qdisc.eiffel.deadline",
];
const RANKED_SPANS: [&str; 4] = [
    "qdisc.ranked",
    "qdisc.ranked.enq",
    "qdisc.ranked.deq",
    "qdisc.ranked.deadline",
];

/// Median of one column of a per-bin breakdown.
fn median_col(bins: &[(f64, f64)], col: impl Fn(&(f64, f64)) -> f64) -> f64 {
    if bins.is_empty() {
        return 0.0;
    }
    crate::stats::median(&bins.iter().map(col).collect::<Vec<_>>())
}

/// p50 and the tail percentile (p99 when the sample supports it) of a set
/// of errors, in µs, with the percentile actually used.
fn tail_us(mut errs: Vec<u64>) -> (f64, f64, f64) {
    if errs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    errs.sort_unstable();
    let p = highest_supported_percentile(errs.len()).min(0.99);
    (
        percentile_sorted(&errs, 0.5) as f64 / 1e3,
        percentile_sorted(&errs, p) as f64 / 1e3,
        p,
    )
}

// ---------------------------------------------------------------------------
// The pass, per workload
// ---------------------------------------------------------------------------

/// Shares of the pass's `--seconds` spent on the traced root run and on
/// each layer probe (the pass as a whole takes about half of `--seconds`).
fn traced_dur(plan: &Plan) -> Duration {
    Duration::from_secs_f64(plan.seconds / 10.0)
}
fn probe_dur(plan: &Plan) -> Duration {
    Duration::from_secs_f64(plan.seconds / 40.0)
}

pub fn run_traced(w: Workload, seed: u64, plan: &Plan) -> Traced {
    // The whole, untraced: the median of three ordinary repetitions.
    let mut reps: Vec<Rep> = (0..3).map(|_| run_rep(w, seed, plan)).collect();
    reps.sort_by(|a, b| a.ns_per_pkt.total_cmp(&b.ns_per_pkt));
    let checks = pass_checks(w, seed, plan, &reps);
    let attempted = reps.iter().map(|r| r.attempted).sum();
    let failed = reps.iter().map(|r| r.failed).sum();
    let rep = reps.swap_remove(1);
    let mut t = Tracer::default();
    let mut m = Metrics::default();
    let sz = w.sizes(plan.quick);
    let mut out = match w {
        Workload::Shape20k | Workload::Saturate2k => {
            threaded_pass(w, seed, sz, plan, &rep, &mut t, &mut m)
        }
        Workload::TreeBusypoll => tree_pass(seed, sz, plan, &rep, &mut t, &mut m),
        Workload::Overload100k => overload_pass(seed, sz, plan, &rep, &mut t, &mut m),
    };
    let residual = reconcile(&mut out.rows);
    let whole = out.rows[0].ns_per_pkt;
    for r in &mut out.beside {
        r.share = r.self_ns / whole;
    }
    m.set("ledger.e2e_ns_per_pkt", rep.ns_per_pkt);
    m.set("ledger.residual_ns", residual);
    m.set("ledger.residual_frac", out.rows[0].share);
    for r in out.rows.iter().chain(&out.beside) {
        match r.name {
            "pifo.tree" => m.set("pifo.tree.self_ns", r.self_ns),
            "qdisc.eiffel" => m.set("qdisc.eiffel.self_ns", r.self_ns),
            "qdisc.sharded" => m.set("qdisc.sharded.self_ns", r.self_ns),
            _ => {}
        }
    }
    Traced {
        metrics: m.finish(),
        budget: out,
        checks,
        attempted,
        failed,
        rep,
        tracer: t,
    }
}

/// The queue and bitmap lines under a qdisc line: one enqueue and one
/// dequeue per packet.
fn queue_lines(
    t: &mut Tracer,
    root: SpanId,
    parent: &'static str,
    u: &QueueUse,
    plan: &Plan,
    m: &mut Metrics,
    rows: &mut Vec<LayerRow>,
) {
    let qc = probe_queue(t, root, u, probe_dur(plan));
    let (bit_ns, bit_ops) = probe_bitmap(t, root, u, probe_dur(plan));
    m.set("core.queue.enq_ns", qc.enq_ns);
    m.set("core.queue.deq_ns", qc.deq_ns);
    m.set("core.queue.ops", 2.0);
    m.set("core.queue.depth_mean", qc.depth_mean);
    m.set("core.queue.clamped_frac", qc.clamped_frac);
    m.set("core.bitmap.ns_per_op", bit_ns);
    m.set("core.bitmap.ops", bit_ops);
    rows.push(row("core.queue", Some(parent), 2.0, qc.enq_ns + qc.deq_ns));
    rows.push(row(
        "core.bitmap",
        Some("core.queue"),
        bit_ops,
        bit_ns * bit_ops,
    ));
}

fn threaded_pass(
    w: Workload,
    seed: u64,
    sz: Sizes,
    plan: &Plan,
    rep: &Rep,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Budget {
    let shape = w == Workload::Shape20k;
    // The root, traced: the library records every release.
    let s0 = t.now_ns();
    let (r, trace) = if shape {
        run_threaded_traced(|_| shape_qdisc(), &shape_config(seed, sz, traced_dur(plan)))
    } else {
        run_threaded_traced(
            |_| saturate_qdisc(seed),
            &saturate_config(sz, traced_dur(plan)),
        )
    };
    let s1 = t.now_ns();
    let root = t.push("qdisc.threaded", None, s0, s1, r.transmitted);
    let kpkt = r.transmitted.max(1) as f64 / 1e3;
    let traced_mpps = r.transmitted as f64 / r.wall_elapsed.as_secs_f64() / 1e6;
    m.set("qdisc.threaded.ns_per_pkt", 1e3 / traced_mpps);
    m.set(
        "qdisc.threaded.ring_full_per_kpkt",
        r.ring_full_retries as f64 / kpkt,
    );
    m.set(
        "qdisc.threaded.timer_fires_per_kpkt",
        r.timer_fires as f64 / kpkt,
    );
    m.set(
        "qdisc.threaded.system_cores",
        median_col(&r.breakdown, |b| b.0),
    );
    m.set(
        "qdisc.threaded.softirq_cores",
        median_col(&r.breakdown, |b| b.1),
    );
    m.set("qdisc.threaded.peak_backlog", r.peak_backlog as f64);
    m.set("ledger.trace_overhead_frac", 1.0 - traced_mpps / rep.mpps);
    let host = if shape {
        shape_host(sz)
    } else {
        saturate_host(sz)
    };
    let gap = pacing_gap(&host);
    if shape {
        // Lateness against each flow's own best-fit schedule, wall clock.
        let rel: Vec<(u64, u32)> = trace
            .releases
            .iter()
            .map(|r| (r.0.as_nanos(), r.1))
            .collect();
        let (p50, p99, _) = tail_us(pace_errors(&rel, sz.flows, gap));
        m.set("qdisc.threaded.late_p50_us", p50);
        m.set("qdisc.threaded.late_p99_us", p99);
    } else {
        // Nothing is paced: lateness is the in-qdisc sojourn.
        let h = &r.per_shard[0].sojourn;
        m.set("qdisc.threaded.late_p50_us", h.quantile(0.5) as f64 / 1e3);
        m.set("qdisc.threaded.late_p99_us", h.quantile(0.99) as f64 / 1e3);
    }
    drop(trace);

    let mut rows = vec![row("qdisc.threaded", None, 1.0, rep.ns_per_pkt)];

    // The qdisc in the workload's closed loop, and the queue below it.
    let resident = sz.flows * sz.window as usize;
    let (qname, cost, queue_use) = if shape {
        let starts = shape_starts(seed, &host);
        let spec = LoopSpec {
            window: sz.window,
            rate_bps: host.aggregate.as_bps() / sz.flows as u64,
            batch: sz.batch,
            think: 0,
            max_resident: usize::MAX,
            slack: 0,
            starts: starts.clone(),
        };
        let cost = probe_shaper(
            t,
            root,
            EIFFEL_SPANS,
            &mut shape_qdisc(),
            &spec,
            probe_dur(plan) * 2,
        );
        m.set("qdisc.eiffel.enq_ns", cost.enq_ns);
        m.set("qdisc.eiffel.deq_ns", cost.deq_ns);
        m.set("qdisc.eiffel.deadline_ns", cost.deadline_ns);
        let u = QueueUse {
            cfg: QueueConfig::new(SHAPE_BUCKETS, SHAPE_GRANULARITY, 0),
            stream: RankStream::Paced {
                starts,
                gap,
                window: u64::from(sz.window),
            },
            resident,
            batch: sz.batch,
        };
        ("qdisc.eiffel", cost, u)
    } else {
        // The stage lets in what the ring delivers and drains it at once:
        // the qdisc never holds more than the run's peak backlog.
        let depth = (rep.peak_backlog as usize).clamp(1, resident);
        let spec = LoopSpec {
            window: sz.window,
            rate_bps: host.aggregate.as_bps() / sz.flows as u64,
            batch: sz.batch,
            think: 0,
            max_resident: depth,
            slack: 0,
            starts: vec![0; sz.flows],
        };
        let cost = probe_shaper(
            t,
            root,
            RANKED_SPANS,
            &mut saturate_qdisc(seed),
            &spec,
            probe_dur(plan) * 2,
        );
        m.set("qdisc.ranked.enq_ns", cost.enq_ns);
        m.set("qdisc.ranked.deq_ns", cost.deq_ns);
        let u = QueueUse {
            cfg: QueueConfig::new(SATURATE_BUCKETS, 1, 0),
            stream: RankStream::Uniform {
                pattern: saturate_pattern(seed),
                flows: sz.flows as u32,
                cursor: 0,
            },
            resident: depth,
            batch: sz.batch,
        };
        ("qdisc.ranked", cost, u)
    };
    rows.push(row(
        qname,
        Some("qdisc.threaded"),
        2.0,
        cost.enq_ns + cost.deq_ns,
    ));
    queue_lines(t, root, qname, &queue_use, plan, m, &mut rows);

    let ring = probe_ring(t, root, sz.batch, probe_dur(plan));
    m.set("core.ring.hop_ns", ring.hop_ns);
    m.set("core.ring.push_full_frac", ring.push_full_frac);
    m.set("core.ring.pop_empty_frac", ring.pop_empty_frac);
    // Two hops per packet: the data ring out, the completion ring back.
    let ring_ns = 2.0 * ring.hop_ns;
    let decide_ns = probe_admit(t, root, AdmitPolicy::Unlimited);
    m.set("chaos.admit.decide_ns", decide_ns);
    let probe_ns = probe_cpu(t, root);
    m.set("sim.cpu.probe_ns", probe_ns);
    let probes = 1.0 + rep.timer_fires_per_pkt;

    let mut beside = Vec::new();
    let (mut pace_samples, mut pace_percentile) = (0, 0.0);
    if shape {
        // Below capacity the whole is the busy time the meters charged: the
        // qdisc calls they wrapped plus the modelled lock, stack and IRQ
        // constants. Ring hops, admission and the meter's own clock reads
        // happen, but outside what `busy_cores` counts.
        let modelled = (LOCK_NS.as_nanos() + PER_PACKET_STACK_NS.as_nanos()) as f64
            + IRQ_ENTRY_NS.as_nanos() as f64 * rep.timer_fires_per_pkt;
        rows.push(row("sim.cpu", Some("qdisc.threaded"), probes, modelled));
        beside.push(beside_row("core.ring", 2.0, ring_ns, ring_ns));
        beside.push(beside_row("chaos.admit", 1.0, decide_ns, decide_ns));

        // The same host on the virtual clock, one thread.
        let mut cfg = ShardedConfig::new(1, host.clone());
        cfg.host.duration = if plan.quick { SECOND / 20 } else { SECOND / 2 };
        cfg.starts = Some(shape_starts(seed, &host));
        let s0 = t.now_ns();
        let sr = run_sharded(|_| shape_qdisc(), &cfg);
        let s1 = t.now_ns();
        t.push("qdisc.sharded", Some(root), s0, s1, sr.transmitted);
        let sharded_ns = (s1 - s0) as f64 / sr.transmitted.max(1) as f64;
        let fires_per_pkt = sr.timer_fires as f64 / sr.transmitted.max(1) as f64;
        m.set("qdisc.sharded.ns_per_pkt", sharded_ns);
        m.set("qdisc.sharded.timer_fires_per_kpkt", fires_per_pkt * 1e3);
        m.set("qdisc.sharded.peak_backlog", sr.peak_backlog as f64);
        // Its own share: wall time minus the qdisc calls, the admission
        // decision and the meter's clock reads it makes along the way.
        let below = cost.enq_ns + cost.deq_ns + decide_ns + probe_ns * (1.0 + fires_per_pkt);
        beside.push(beside_row(
            "qdisc.sharded",
            1.0,
            sharded_ns,
            sharded_ns - below,
        ));
        // Pacing error needs the release trace: a separate, shorter run, so
        // the trace's memory traffic is not in the timing above.
        cfg.host.duration /= 2;
        let (_, trace) = run_sharded_traced(|_| shape_qdisc(), &cfg);
        let rel: Vec<(u64, u32)> = trace.releases.iter().map(|r| (r.0, r.1)).collect();
        let errs = pace_errors(&rel, sz.flows, gap);
        pace_samples = errs.len();
        let (_, p99, p) = tail_us(errs);
        pace_percentile = p;
        m.set("qdisc.eiffel.pace_err_p99_us", p99);
    } else {
        rows.push(row("core.ring", Some("qdisc.threaded"), 2.0, ring_ns));
        rows.push(row("chaos.admit", Some("qdisc.threaded"), 1.0, decide_ns));
        rows.push(row(
            "sim.cpu",
            Some("qdisc.threaded"),
            probes,
            probe_ns * probes,
        ));
    }

    // Input generation, per generated item (it is set-up, not path).
    let gen_ns = if shape {
        let s = t.now_ns();
        black_box(shape_starts(seed, &host));
        let e = t.now_ns();
        t.push("workloads.gen", Some(root), s, e, sz.flows as u64);
        (e - s) as f64 / sz.flows as f64
    } else {
        let pattern = saturate_pattern(seed);
        for c in 0..64u64 {
            t.time("workloads.gen", Some(root), CHUNK as u64, || {
                for i in 0..CHUNK as u64 {
                    black_box(pattern.rank(black_box(i as FlowId), c));
                }
            });
        }
        t.ns_per_op("workloads.gen")
    };
    m.set("workloads.gen.ns_per_pkt", gen_ns);
    beside.push(beside_row("workloads.gen", 1.0, gen_ns, gen_ns));

    Budget {
        rows,
        beside,
        basis: if shape { "busy" } else { "wall" },
        pace_samples,
        pace_percentile,
    }
}

fn tree_pass(
    seed: u64,
    sz: Sizes,
    plan: &Plan,
    rep: &Rep,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Budget {
    // The root, traced: the same poll loop with spans around its calls.
    let mut rig = TreeRig::new(seed, sz);
    rig.run(plan.warm);
    let (served0, idle0) = (rig.served, rig.idle_polls);
    let root = t.open("ledger.poll", None);
    let secs = rig.run_traced(traced_dur(plan), t, root);
    let served = rig.served - served0;
    t.close(root, served);
    let traced_mpps = served as f64 / secs / 1e6;
    m.set("ledger.trace_overhead_frac", 1.0 - traced_mpps / rep.mpps);
    m.set(
        "pifo.tree.idle_polls_per_kpkt",
        (rig.idle_polls - idle0) as f64 * 1e3 / served.max(1) as f64,
    );
    let enq_ns = t.ns_per_op("pifo.tree.enq");
    let deq_ns = t.ns_per_op("pifo.tree.deq");
    let gen_ns = t.ns_per_op("workloads.gen");
    m.set("pifo.tree.enq_ns", enq_ns);
    m.set("pifo.tree.deq_ns", deq_ns);
    m.set("workloads.gen.ns_per_pkt", gen_ns);
    // Every packet is enqueued once and dequeued once. The spans were
    // recorded inside the traced loop, so they are reconciled against that
    // loop's own time per packet, not against the untraced repetition's: the
    // residual is then the loop's bookkeeping plus the clock reads, and what
    // tracing costs is `ledger.trace_overhead_frac`.
    let rows = vec![
        row("ledger.poll", None, 1.0, 1e3 / traced_mpps),
        row("pifo.tree", Some("ledger.poll"), 2.0, enq_ns + deq_ns),
        row("workloads.gen", Some("ledger.poll"), 1.0, gen_ns),
    ];
    // `pifo.tree` is a leaf of this table: the queues inside the tree rank
    // by rules of their own and nothing public reports their traffic, so
    // their cost stays in the tree's self time.
    Budget {
        rows,
        beside: Vec::new(),
        basis: "wall",
        pace_samples: 0,
        pace_percentile: 0.0,
    }
}

fn overload_pass(
    seed: u64,
    sz: Sizes,
    plan: &Plan,
    rep: &Rep,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Budget {
    // The root, traced: the library records every release and drop.
    let (cfg, _budget) = overload_config(seed, sz);
    let s0 = t.now_ns();
    let (r, trace) = run_sharded_traced(|_| overload_qdisc(), &cfg);
    let s1 = t.now_ns();
    let root = t.push("qdisc.sharded", None, s0, s1, r.transmitted);
    black_box(trace.releases.len());
    drop(trace);
    let traced_ns = (s1 - s0) as f64 / r.transmitted.max(1) as f64;
    m.set(
        "ledger.trace_overhead_frac",
        1.0 - rep.ns_per_pkt / traced_ns,
    );
    m.set("qdisc.sharded.ns_per_pkt", rep.ns_per_pkt);
    m.set(
        "qdisc.sharded.timer_fires_per_kpkt",
        rep.timer_fires_per_pkt * 1e3,
    );
    m.set("qdisc.sharded.peak_backlog", r.peak_backlog as f64);
    m.set(
        "chaos.admit.marked_frac",
        r.ecn_marked as f64 / r.emitted.max(1) as f64,
    );
    m.set(
        "chaos.admit.dropped_frac",
        (r.admission_dropped + r.evicted) as f64 / r.emitted.max(1) as f64,
    );
    m.set("chaos.admit.setup_refused", r.setup_refused as f64);

    let mut rows = vec![row("qdisc.sharded", None, 1.0, rep.ns_per_pkt)];

    // Paced sources: a flow's next packet arrives one shaped gap after its
    // last release, so stamps sit near now and the qdisc stays shallow.
    let per_flow_bps = (cfg.host.aggregate.as_bps() / sz.flows as u64).max(1);
    let gap = pacing_gap(&cfg.host);
    let spec = LoopSpec {
        window: 1,
        rate_bps: per_flow_bps,
        batch: sz.batch,
        think: gap,
        max_resident: usize::MAX,
        slack: 100_000,
        starts: (0..sz.flows as u64)
            .map(|f| gap * f / sz.flows as u64)
            .collect(),
    };
    let cost = probe_shaper(
        t,
        root,
        EIFFEL_SPANS,
        &mut overload_qdisc(),
        &spec,
        probe_dur(plan) * 2,
    );
    m.set("qdisc.eiffel.enq_ns", cost.enq_ns);
    m.set("qdisc.eiffel.deq_ns", cost.deq_ns);
    m.set("qdisc.eiffel.deadline_ns", cost.deadline_ns);
    rows.push(row(
        "qdisc.eiffel",
        Some("qdisc.sharded"),
        2.0,
        cost.enq_ns + cost.deq_ns,
    ));
    // `qdisc.eiffel` is a leaf here: its stamps come from per-socket clocks
    // inside the qdisc, so the queue's rank stream cannot be had from
    // outside and its cost stays in the qdisc's self time.

    let decide_ns = probe_admit(t, root, OVERLOAD_ADMIT);
    m.set("chaos.admit.decide_ns", decide_ns);
    rows.push(row("chaos.admit", Some("qdisc.sharded"), 1.0, decide_ns));

    let probe_ns = probe_cpu(t, root);
    m.set("sim.cpu.probe_ns", probe_ns);
    let probes = 1.0 + rep.timer_fires_per_pkt;
    rows.push(row(
        "sim.cpu",
        Some("qdisc.sharded"),
        probes,
        probe_ns * probes,
    ));

    let s = t.now_ns();
    black_box(trace_shaped_pkts(
        sz.flows,
        FlowSizeDist::WebSearch,
        512,
        seed,
    ));
    let e = t.now_ns();
    t.push("workloads.gen", Some(root), s, e, sz.flows as u64);
    let gen_ns = (e - s) as f64 / sz.flows as f64;
    m.set("workloads.gen.ns_per_pkt", gen_ns);

    Budget {
        rows,
        beside: vec![beside_row("workloads.gen", 1.0, gen_ns, gen_ns)],
        basis: "wall",
        pace_samples: 0,
        pace_percentile: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_subtracts_children_and_leaves_the_residual_at_the_root() {
        let mut rows = vec![
            row("root", None, 1.0, 200.0),
            row("ring", Some("root"), 2.0, 50.0),
            row("qdisc", Some("root"), 2.0, 60.0),
            row("queue", Some("qdisc"), 2.0, 40.0),
            row("bitmap", Some("queue"), 1.5, 10.0),
        ];
        let residual = reconcile(&mut rows);
        assert_eq!(residual, 200.0 - 50.0 - 60.0);
        let self_of = |n: &str| rows.iter().find(|r| r.name == n).unwrap().self_ns;
        assert_eq!(self_of("qdisc"), 20.0);
        assert_eq!(self_of("queue"), 30.0);
        assert_eq!(self_of("bitmap"), 10.0);
        // Self times sum back to the whole; shares to one.
        let total: f64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, 200.0);
        let shares: f64 = rows.iter().map(|r| r.share).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_negative_residual_is_reported_not_clamped() {
        let mut rows = vec![
            row("root", None, 1.0, 100.0),
            row("a", Some("root"), 1.0, 130.0),
        ];
        assert_eq!(reconcile(&mut rows), -30.0);
    }

    #[test]
    fn paced_stream_advances_one_window_of_gaps() {
        let mut s = RankStream::Paced {
            starts: vec![5, 9],
            gap: 100,
            window: 2,
        };
        assert_eq!(s.initial(4), vec![5, 105, 9, 109]);
        assert_eq!(s.next(5), 205);
    }

    #[test]
    fn tail_uses_the_percentile_the_sample_supports() {
        let errs: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        let (p50, tail, p) = tail_us(errs);
        assert_eq!((p50, tail, p), (50.0, 90.0, 0.9));
        assert_eq!(tail_us(Vec::new()), (0.0, 0.0, 0.0));
    }
}
