//! Scaled experiment runners behind the figure binaries.
//!
//! Every measurement function takes explicit scale parameters so the
//! integration tests run miniature versions of the exact code path the
//! binaries use. For the figures whose runs are recorded as committed
//! baselines, the *entire* report construction lives here too
//! ([`fig12_report`], [`table1_report`]): the binary is a thin
//! parse-args-and-finish wrapper, and tests/CI validate the same
//! [`BenchReport`] the operator records with `--json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eiffel_bess::{
    measure_rate, measure_rate_sharded, BessScheduler, BessTc, FlowSpec, HClockEiffel, HClockHeap,
    PfabricEiffel, PfabricHeap, RoundRobinGen, WARMUP_FRACTION,
};
use eiffel_dcsim::{run_with, SchedulerBackend, SimConfig, System, Topology};
use eiffel_qdisc::{
    run_threaded, CarouselQdisc, EiffelQdisc, FqQdisc, HostConfig, HostReport, RankedShaperQdisc,
    SojournHist, ThreadedConfig, ThreadedReport, TierCounters,
};
use eiffel_sim::{Nanos, Packet, Rate, WallNanos, SECOND};

use eiffel_chaos::{AdmitPolicy, FaultFamily, FaultPlan, WatchdogConfig};
use eiffel_core::{
    DegradeTier, MemBudget, OracleAudit, OracleReport, QueueConfig, QueueKind, RankedQueue,
    FLOW_SETUP_BYTES,
};
use eiffel_pifo::compile;
use eiffel_workloads::{
    heavy_tailed_pkts, incast_starts, trace_shaped_pkts, ClosedLoopParams, FlowSizeDist,
    RankPattern, SCALE_ONE,
};

use crate::microbench::{
    approx_error_at_occupancy, drain_quality, drain_rate_occupancy, drain_rate_packets_per_bucket,
    FillOrder, FillPattern, QueueUnderTest,
};
use crate::report::{BenchArgs, BenchReport, Sweep, TextTable};

/// Figure 9/10 configuration.
#[derive(Debug, Clone)]
pub struct KernelShapingScale {
    /// Paced flows (paper: 20 000).
    pub flows: usize,
    /// Aggregate rate (paper: 24 Gbps).
    pub aggregate: Rate,
    /// Virtual duration.
    pub duration: Nanos,
    /// Accounting bin.
    pub bin: Nanos,
}

impl KernelShapingScale {
    /// The paper's workload at a shortened duration.
    fn default_scale() -> Self {
        KernelShapingScale {
            flows: 20_000,
            aggregate: Rate::gbps(24),
            duration: 2 * SECOND,
            bin: SECOND / 10,
        }
    }

    /// Miniature for tests / `--quick`.
    pub fn quick() -> Self {
        KernelShapingScale {
            flows: 2_000,
            aggregate: Rate::mbps(2_400),
            duration: SECOND / 2,
            bin: SECOND / 20,
        }
    }
}

/// Runs the three qdiscs of Figure 9 and returns their host reports
/// (order: FQ, Carousel, Eiffel).
pub fn kernel_shaping(scale: &KernelShapingScale) -> Vec<HostReport> {
    let cfg = HostConfig {
        flows: scale.flows,
        aggregate: scale.aggregate,
        duration: scale.duration,
        bin: scale.bin,
        tsq_budget: 2,
        batch: 1,
    };
    vec![
        eiffel_qdisc::run(FqQdisc::new(), &cfg),
        // Carousel: 2 µs wheel slots over a 2 s horizon (1M slots), the
        // granularity pacing at tens of Gbps needs.
        eiffel_qdisc::run(CarouselQdisc::new(1 << 20, 2_000), &cfg),
        // Eiffel: the paper's 20k buckets / 2 s horizon.
        eiffel_qdisc::run(EiffelQdisc::paper_config(), &cfg),
    ]
}

/// The Figure 9 claim quoted by the binary banner and EXPERIMENTS.md.
const FIG9_PAPER_CLAIM: &str =
    "Eiffel outperforms FQ by a median 14x and Carousel by 3x (§5.1.1, Figure 9).";

/// Per-flow pacing rate of the Figure 9 workload (paper: 24 Gbps over
/// 20k flows = 1.2 Mbps per flow), held constant across the flow sweep so
/// every threaded cell paces at the paper's per-flow granularity.
const FIG9_PER_FLOW_KBPS: u64 = 1_200;

/// A threaded cell "holds" its target rate when it achieves at least this
/// fraction of it; below, cores-to-shape extrapolates linearly.
const FIG9_HELD_FRACTION: f64 = 0.97;

/// The three Figure 9 qdiscs in the figure's legend order.
const FIG9_QDISCS: [&str; 3] = ["FQ/pacing", "Carousel", "Eiffel"];

/// Scale knobs of the Figure 9 harness: the virtual-clock CDF panel (the
/// original figure axis) plus the threaded wall-clock cores-to-shape
/// sweep over real OS threads.
#[derive(Debug, Clone)]
pub struct Fig9Scale {
    /// Flow counts of the threaded sweep; the last entry is the headline
    /// point the cores-to-shape table is built from (paper: 20 000).
    pub flows: Vec<usize>,
    /// Shard (OS thread) counts swept at every flow count.
    pub shards: Vec<usize>,
    /// Aggregate-rate ladder (Gbps) run at the headline flow count on one
    /// shard; empty skips the panel.
    pub rates_gbps: Vec<u64>,
    /// Wall-clock measurement per threaded cell.
    pub wall: WallNanos,
    /// Scale of the virtual-clock CDF panel.
    pub cdf: KernelShapingScale,
}

impl Fig9Scale {
    /// Scale chosen from the shared `--quick` flag.
    pub fn from_args(args: &BenchArgs) -> Self {
        if args.quick {
            Fig9Scale {
                flows: vec![500, 2_000],
                shards: vec![1, 2],
                rates_gbps: Vec::new(),
                wall: WallNanos::from_millis(250),
                cdf: KernelShapingScale::quick(),
            }
        } else {
            Fig9Scale {
                flows: vec![2_000, 20_000],
                shards: vec![1, 2],
                rates_gbps: vec![6, 12, 24],
                wall: WallNanos::from_millis(1_200),
                cdf: KernelShapingScale::default_scale(),
            }
        }
    }

    /// Miniature for integration tests.
    pub fn tiny() -> Self {
        Fig9Scale {
            flows: vec![12, 24],
            shards: vec![1, 2],
            rates_gbps: Vec::new(),
            wall: WallNanos::from_millis(25),
            cdf: KernelShapingScale {
                flows: 200,
                aggregate: Rate::mbps(240),
                duration: SECOND / 10,
                bin: SECOND / 50,
            },
        }
    }
}

/// One threaded Figure 9 cell: `(achieved Gbps, median busy cores)` for
/// qdisc `which` (index into [`FIG9_QDISCS`]) shaping `flows` flows to
/// `aggregate` across `shards` real OS threads for `wall` wall-clock time.
fn fig9_cell(
    which: usize,
    flows: usize,
    shards: usize,
    aggregate: Rate,
    wall: WallNanos,
) -> (f64, f64) {
    let host = HostConfig {
        flows,
        aggregate,
        duration: 2 * SECOND, // ignored by the threaded runtime
        bin: (wall.as_nanos() / 10).max(1),
        tsq_budget: 2,
        batch: 1,
    };
    let cfg = ThreadedConfig::timed(shards, host, wall);
    let rep = match which {
        0 => run_threaded(|_| FqQdisc::new(), &cfg),
        // Same qdisc constructions as the virtual-clock panel
        // ([`kernel_shaping`]), so the two clocks compare like for like.
        1 => run_threaded(|_| CarouselQdisc::new(1 << 20, 2_000), &cfg),
        _ => run_threaded(|_| EiffelQdisc::paper_config(), &cfg),
    };
    (rep.achieved_bps / 1e9, rep.total_median_cores)
}

/// Builds the complete Figure 9 report: the virtual-clock CPU CDF (the
/// original figure), then threaded wall-clock panels — achieved rate and
/// busy cores per shard count at each flow count, an optional rate ladder
/// at the headline flow count — and the cores-needed-to-shape table the
/// committed `BENCH_fig9_cores_to_shape.json` is named for.
pub fn fig9_report(args: &BenchArgs, scale: &Fig9Scale) -> BenchReport {
    let mut r = BenchReport::new(
        "fig09_kernel_shaping",
        "Figure 9",
        "CPU cores for kernel shaping: virtual-clock CDF + threaded wall-clock cores-to-shape",
        args,
    );
    r.paper_claim(FIG9_PAPER_CLAIM);
    r.config_num("cdf_flows", scale.cdf.flows as f64);
    r.config_num(
        "cdf_aggregate_gbps",
        scale.cdf.aggregate.as_bps() as f64 / 1e9,
    );
    r.config_num("cdf_virtual_seconds", scale.cdf.duration as f64 / 1e9);
    r.config_num(
        "threaded_wall_ms_per_cell",
        scale.wall.as_nanos() as f64 / 1e6,
    );
    r.config_num("per_flow_kbps", FIG9_PER_FLOW_KBPS as f64);
    r.config_num("held_fraction", FIG9_HELD_FRACTION);
    r.config_str("flows_sweep", format!("{:?}", scale.flows));
    r.config_str("shards_sweep", format!("{:?}", scale.shards));
    r.config_str("rate_ladder_gbps", format!("{:?}", scale.rates_gbps));
    r.config_str(
        "method",
        "CDF panel: real data-structure CPU metered into virtual-time bins. Threaded panels: \
         one OS thread per shard fed over lock-free SPSC rings, wall-clock time, busy cores = \
         median executed-nanoseconds per wall bin (see eiffel-qdisc::threaded)",
    );

    // Panel 1: the original virtual-clock CDF.
    let reports = kernel_shaping(&scale.cdf);
    let mut sw = Sweep::new("CPU cores used for networking (virtual-clock CDF)", "CDF");
    for sys in &reports {
        sw.add_series(sys.name, "cores", 4);
    }
    let cdfs: Vec<Vec<(f64, f64)>> = reports
        .iter()
        .map(|sys| crate::report::cdf(&sys.cores_sorted, 10))
        .collect();
    for i in 0..10 {
        let frac = cdfs[0][i].1;
        let row: Vec<f64> = cdfs.iter().map(|c| c[i].0).collect();
        sw.push_row(frac, &row);
    }
    r.push_sweep(sw);
    for sys in &reports {
        r.note(format!(
            "[virtual {}] median = {:.3} cores, transmitted = {} pkts, timer fires = {}",
            sys.name, sys.median_cores, sys.transmitted, sys.timer_fires
        ));
    }
    let (fq, carousel, eiffel) = (&reports[0], &reports[1], &reports[2]);
    r.note(format!(
        "Virtual-clock medians: FQ/Eiffel = {:.1}x, Carousel/Eiffel = {:.1}x",
        fq.median_cores / eiffel.median_cores.max(1e-9),
        carousel.median_cores / eiffel.median_cores.max(1e-9)
    ));

    // Panels 2..: threaded wall-clock, shards × flows. The headline flow
    // count's cells also feed the cores-to-shape table below.
    let headline_flows = *scale.flows.last().expect("at least one flow count");
    let mut headline: Vec<(usize, Vec<(f64, f64)>)> = Vec::new();
    for &flows in &scale.flows {
        let target = Rate::kbps(FIG9_PER_FLOW_KBPS * flows as u64);
        let target_gbps = target.as_bps() as f64 / 1e9;
        let mut sw = Sweep::new(
            format!("threaded wall clock: {flows} flows @ {target_gbps:.2} Gbps target"),
            "shards",
        );
        for name in FIG9_QDISCS {
            sw.add_series(format!("{name} achieved"), "Gbps", 3);
            sw.add_series(format!("{name} busy cores"), "cores", 3);
        }
        for &shards in &scale.shards {
            let cells: Vec<(f64, f64)> = (0..FIG9_QDISCS.len())
                .map(|q| fig9_cell(q, flows, shards, target, scale.wall))
                .collect();
            let row: Vec<f64> = cells.iter().flat_map(|&(g, c)| [g, c]).collect();
            sw.push_row(shards, &row);
            if flows == headline_flows {
                headline.push((shards, cells));
            }
        }
        r.push_sweep(sw);
    }

    // Optional rate ladder: how busy cores scale with the shaping target
    // at the headline flow count, one shard.
    if !scale.rates_gbps.is_empty() {
        let mut sw = Sweep::new(
            format!("threaded rate ladder: {headline_flows} flows, 1 shard"),
            "target Gbps",
        );
        for name in FIG9_QDISCS {
            sw.add_series(format!("{name} achieved"), "Gbps", 3);
            sw.add_series(format!("{name} busy cores"), "cores", 3);
        }
        for &g in &scale.rates_gbps {
            let cells: Vec<(f64, f64)> = (0..FIG9_QDISCS.len())
                .map(|q| fig9_cell(q, headline_flows, 1, Rate::gbps(g), scale.wall))
                .collect();
            let row: Vec<f64> = cells.iter().flat_map(|&(g, c)| [g, c]).collect();
            sw.push_row(g, &row);
        }
        r.push_sweep(sw);
    }

    // The headline table: cores needed to hold the paper's shaping rate.
    let headline_gbps = (FIG9_PER_FLOW_KBPS * headline_flows as u64) as f64 * 1e3 / 1e9;
    let mut t = TextTable::new(
        format!(
            "cores needed to shape {headline_flows} flows @ {headline_gbps:.2} Gbps \
             (held = achieved >= {:.0}% of target)",
            FIG9_HELD_FRACTION * 100.0
        ),
        &[
            "Qdisc",
            "Shards",
            "Achieved Gbps",
            "Busy cores",
            "Held",
            "Cores to shape",
        ],
    );
    let mut best = [f64::INFINITY; 3];
    for &(shards, ref cells) in &headline {
        for (q, &(gbps, cores)) in cells.iter().enumerate() {
            let held = gbps >= FIG9_HELD_FRACTION * headline_gbps;
            let need = if held {
                cores
            } else {
                cores * headline_gbps / gbps.max(1e-9)
            };
            best[q] = best[q].min(need);
            t.rows.push(vec![
                FIG9_QDISCS[q].to_string(),
                shards.to_string(),
                format!("{gbps:.3}"),
                format!("{cores:.3}"),
                if held { "yes" } else { "no" }.to_string(),
                format!("{need:.3}"),
            ]);
        }
    }
    r.push_table(t);
    r.note(format!(
        "Cores-to-shape ratios (best over shard counts): FQ/Eiffel = {:.1}x, \
         Carousel/Eiffel = {:.1}x (paper medians: 14x and 3x).",
        best[0] / best[2].max(1e-9),
        best[1] / best[2].max(1e-9)
    ));
    r.note(
        "Threaded cells run real OS threads on the wall clock. On a host with fewer physical \
         cores than shards the threads time-slice, but 'busy cores' counts executed scheduler \
         nanoseconds (plus the same modelled IRQ/lock constants as the virtual-clock host) per \
         wall bin, so it measures the CPU a multi-core host would spend and can exceed the \
         machine's core count. Cells that cannot hold their target extrapolate cores-to-shape \
         linearly (busy x target/achieved).",
    );
    r
}

/// Equal per-flow hClock specs splitting `agg_mbps` (tiny reservations,
/// equal shares). Per-flow limits are computed in kbps so they still sum
/// to the aggregate when `flows` exceeds `agg_mbps`.
pub fn flat_specs(flows: usize, agg_mbps: u64) -> Vec<FlowSpec> {
    let per_kbps = (agg_mbps * 1_000 / flows as u64).max(1);
    (0..flows)
        .map(|_| FlowSpec {
            reservation: Rate::kbps(10.min(per_kbps / 2).max(1)),
            limit: Rate::kbps(per_kbps),
            share: 1,
        })
        .collect()
}

/// One Figure 12 cell: max aggregate rate (Mbps) of an hClock variant.
pub fn hclock_max_rate(
    which: &str,
    flows: usize,
    agg_limit_mbps: u64,
    pkt_bytes: u32,
    batch: u32,
    dur: Duration,
) -> f64 {
    let mut gen = RoundRobinGen::with_batch(flows, pkt_bytes, batch);
    let occupancy = (flows * 4).clamp(64, 120_000);
    let specs = flat_specs(flows, agg_limit_mbps);
    let report = match which {
        "eiffel" => {
            let mut s = HClockEiffel::new(&specs);
            measure_rate(&mut s, &mut gen, &mut |_| {}, occupancy, dur)
        }
        "hclock" => {
            let mut s = HClockHeap::new(&specs);
            measure_rate(&mut s, &mut gen, &mut |_| {}, occupancy, dur)
        }
        "tc" => {
            let per = Rate::kbps((agg_limit_mbps * 1_000 / flows as u64).max(1));
            let mut s = BessTc::new(flows, per);
            measure_rate(&mut s, &mut gen, &mut |_| {}, occupancy, dur)
        }
        other => panic!("unknown scheduler '{other}'"),
    };
    report.mbps
}

/// The paper's Figure 12 claim, §5.1.2 ("hClock in BESS"): the single
/// sentence both the binary banner and EXPERIMENTS.md quote, kept in one
/// place so they cannot drift apart again.
const FIG12_PAPER_CLAIM: &str = "Eiffel's hClock sustains the maximum configured rate at up \
     to 10x the number of flows compared to the priority-queue hClock, with a larger advantage \
     over BESS tc (§5.1.2, Figure 12).";

/// Builds the complete Figure 12 report: the paper's two panels (10 Gbps
/// line rate, 5 Gbps aggregate limit) over the full flow sweep, plus a
/// CPU-bound capacity panel (limits set far above what one core can
/// schedule) that exposes raw per-packet cost — the series the perf
/// trajectory tracks across PRs.
pub fn fig12_report(args: &BenchArgs) -> BenchReport {
    let flows: &[usize] = if args.quick {
        &[10, 100, 1_000]
    } else {
        &[10, 100, 1_000, 10_000, 50_000, 100_000]
    };
    let dur = Duration::from_millis(if args.quick { 100 } else { 1_000 });
    let mut r = BenchReport::new(
        "fig12_hclock_scaling",
        "Figure 12",
        "max aggregate rate vs #flows (hClock on one core, 1500B, no batching)",
        args,
    );
    r.paper_claim(FIG12_PAPER_CLAIM);
    r.config_num("duration_ms_per_cell", dur.as_millis() as f64);
    r.config_num("warmup_fraction", WARMUP_FRACTION);
    r.config_num("pkt_bytes", 1_500.0);
    r.config_num("batch", 1.0);
    r.config_str("flows_sweep", format!("{flows:?}"));
    for (panel, agg_mbps) in [
        ("10 Gbps line rate", 10_000u64),
        ("5 Gbps aggregate rate limit", 5_000),
    ] {
        let mut sw = Sweep::new(panel, "flows");
        sw.add_series("Eiffel-hClock", "Mbps", 0);
        sw.add_series("hClock (min-heap)", "Mbps", 0);
        sw.add_series("BESS tc", "Mbps", 0);
        for &n in flows {
            let e = hclock_max_rate("eiffel", n, agg_mbps, 1_500, 1, dur);
            let h = hclock_max_rate("hclock", n, agg_mbps, 1_500, 1, dur);
            let t = hclock_max_rate("tc", n, agg_mbps, 1_500, 1, dur);
            sw.push_row(n, &[e, h, t]);
        }
        r.push_sweep(sw);
    }
    // CPU-bound panel: a 2 Tbps aggregate "limit" no single core can
    // reach, so the measured rate is the scheduler's own capacity.
    let mut sw = Sweep::new("scheduler capacity (limits never bind, 2 Tbps)", "flows");
    sw.add_series("Eiffel-hClock", "Mpps", 2);
    sw.add_series("hClock (min-heap)", "Mpps", 2);
    sw.add_series("BESS tc", "Mpps", 2);
    let to_mpps = |mbps: f64| mbps / (1_500.0 * 8.0);
    for &n in flows {
        let e = hclock_max_rate("eiffel", n, 2_000_000, 1_500, 1, dur);
        let h = hclock_max_rate("hclock", n, 2_000_000, 1_500, 1, dur);
        let t = hclock_max_rate("tc", n, 2_000_000, 1_500, 1, dur);
        sw.push_row(n, &[to_mpps(e), to_mpps(h), to_mpps(t)]);
    }
    r.push_sweep(sw);
    r.note(
        "Capacity panel caveat: with limits never binding, the heap baseline never pays its \
         pop-and-defer scan (the cost the paper attributes to hClock's priority queue), so raw \
         capacity favors simpler structures. The paper's separation appears where limits bind \
         at scale (the two rate-limited panels).",
    );
    r
}

/// Builds the Table 1 report (qualitative capability matrix).
pub fn table1_report(args: &BenchArgs) -> BenchReport {
    let mut r = BenchReport::new(
        "table1_landscape",
        "Table 1",
        "scheduler landscape: proposed work in the context of the state of the art",
        args,
    );
    let mut t = TextTable::new(
        "capability matrix",
        &[
            "System",
            "Efficiency",
            "HW/SW",
            "Unit",
            "WorkCons",
            "Shaping",
            "Prog",
            "Notes",
        ],
    );
    t.rows = table1_rows();
    r.push_table(t);
    r.note("Flexibility columns: unit of scheduling, work conserving, shaping, programmable.");
    r
}

/// The shared Figure 15 workload shape: working occupancy plus the
/// remaining-size stamper (each flow cycles through a synthetic flow of 64
/// packets — remaining 64, 63, … 1). One definition so the classic and
/// sharded cells can never drift onto different workloads.
fn pfabric_workload(flows: usize) -> (usize, impl FnMut(&mut Packet)) {
    let occupancy = (2 * flows).clamp(64, 100_000);
    let mut remaining = vec![0u32; flows];
    let stamp = move |p: &mut Packet| {
        let r = &mut remaining[p.flow as usize];
        if *r == 0 {
            *r = 64;
        }
        p.rank = *r as u64;
        *r -= 1;
    };
    (occupancy, stamp)
}

/// One Figure 15 cell: pFabric throughput (Mbps at 1500B) for a flow count.
pub fn pfabric_max_rate(eiffel: bool, flows: usize, dur: Duration) -> f64 {
    let mut gen = RoundRobinGen::new(flows, 1_500);
    let (occupancy, mut stamp) = pfabric_workload(flows);
    let report = if eiffel {
        let mut s = PfabricEiffel::new();
        measure_rate(&mut s, &mut gen, &mut stamp, occupancy, dur)
    } else {
        let mut s = PfabricHeap::new();
        measure_rate(&mut s, &mut gen, &mut stamp, occupancy, dur)
    };
    report.mbps
}

/// One Figure 15 cell: aggregate pFabric throughput (Mbps at 1500B) with
/// the flow set hashed over `shards` scheduler instances, each drained
/// through the batched trait path with `batch` packets per call.
/// `(shards, batch) = (1, 1)` is the classic single-instance
/// packet-at-a-time cell of [`pfabric_max_rate`].
fn pfabric_max_rate_sharded(
    eiffel: bool,
    flows: usize,
    shards: usize,
    batch: usize,
    dur: Duration,
) -> f64 {
    let mut gen = RoundRobinGen::new(flows, 1_500);
    let (occupancy, mut stamp) = pfabric_workload(flows);
    fn run<S: BessScheduler>(
        mut shards: Vec<S>,
        gen: &mut RoundRobinGen,
        stamp: &mut impl FnMut(&mut Packet),
        occupancy: usize,
        dur: Duration,
        batch: usize,
    ) -> f64 {
        measure_rate_sharded(&mut shards, gen, stamp, occupancy, dur, batch)
            .total
            .mbps
    }
    if eiffel {
        let insts = (0..shards).map(|_| PfabricEiffel::new()).collect();
        run(insts, &mut gen, &mut stamp, occupancy, dur, batch)
    } else {
        let insts = (0..shards).map(|_| PfabricHeap::new()).collect();
        run(insts, &mut gen, &mut stamp, occupancy, dur, batch)
    }
}

/// The Figure 15 claim quoted by the binary banner and EXPERIMENTS.md.
const FIG15_PAPER_CLAIM: &str = "Eiffel's pFabric sustains line rate at 5x the number of \
     flows the binary-heap implementation can handle, whose rate collapses as re-heapification \
     costs grow with the flow count (§5.1.3, Figure 15).";

/// Scale knobs of the Figure 15 harness (pFabric rate vs flow count,
/// across host-pipeline shapes).
#[derive(Debug, Clone)]
pub struct Fig15Scale {
    /// Flow-count sweep points.
    pub flows: Vec<usize>,
    /// `(shards, batch)` panels: scheduler instances the flow set is
    /// hashed over × packets per batched dequeue call.
    pub shard_batch: Vec<(usize, usize)>,
    /// Measurement duration per cell.
    pub dur: Duration,
}

impl Fig15Scale {
    /// Scale chosen from the shared `--quick` flag: the full cross of
    /// shard {1, 2, 4} × batch {1, 16}, on a shortened flow sweep when
    /// quick.
    pub fn from_args(args: &BenchArgs) -> Self {
        Fig15Scale {
            flows: if args.quick {
                vec![100, 1_000, 10_000]
            } else {
                vec![100, 1_000, 10_000, 100_000, 1_000_000]
            },
            shard_batch: vec![(1, 1), (2, 1), (4, 1), (1, 16), (2, 16), (4, 16)],
            dur: Duration::from_millis(if args.quick { 40 } else { 600 }),
        }
    }

    /// Miniature for integration tests.
    pub fn tiny() -> Self {
        Fig15Scale {
            flows: vec![50, 200],
            shard_batch: vec![(1, 1), (2, 8)],
            dur: Duration::from_millis(8),
        }
    }
}

/// Builds the complete Figure 15 report: one panel per `(shards, batch)`
/// pipeline shape, each sweeping flow count for the Eiffel and binary-heap
/// pFabric implementations.
pub fn fig15_report(args: &BenchArgs, scale: &Fig15Scale) -> BenchReport {
    let mut r = BenchReport::new(
        "fig15_pfabric_scaling",
        "Figure 15",
        "pFabric max rate vs #flows (cFFS-family vs binary heap; sharded + batched pipelines)",
        args,
    );
    r.paper_claim(FIG15_PAPER_CLAIM);
    r.config_num("duration_ms_per_cell", scale.dur.as_millis() as f64);
    r.config_num("warmup_fraction", WARMUP_FRACTION);
    r.config_num("pkt_bytes", 1_500.0);
    r.config_str("flows_sweep", format!("{:?}", scale.flows));
    r.config_str("shard_batch_panels", format!("{:?}", scale.shard_batch));
    r.config_str(
        "method",
        "per-flow ranking + on-dequeue ranking; heap baseline re-heapifies on rank change; \
         flows hashed to shards by eiffel_sim::shard_of; batched dequeue via the trait fast path",
    );
    for &(shards, batch) in &scale.shard_batch {
        let mut sw = Sweep::new(format!("{shards} shard(s), dequeue batch {batch}"), "flows");
        sw.add_series("pFabric-Eiffel", "Mbps", 0);
        sw.add_series("pFabric-BinaryHeap", "Mbps", 0);
        for &n in &scale.flows {
            let e = pfabric_max_rate_sharded(true, n, shards, batch, scale.dur);
            let h = pfabric_max_rate_sharded(false, n, shards, batch, scale.dur);
            sw.push_row(n, &[e, h]);
        }
        r.push_sweep(sw);
    }
    r.note(
        "Shards time-slice one physical core (this is a 1-vCPU measurement): the aggregate is \
         the core's total scheduling capacity, not an N-core extrapolation. Sharding shrinks \
         each instance's flow set — a binary heap gets shallower and its re-heapify cheaper, \
         while Eiffel's FFS walk never depended on the flow count to begin with; the batched \
         panels amortize the min-find through the dequeue_batch trait fast path (order proven \
         identical to repeated dequeue by property test).",
    );
    r
}

/// One Figure 19 measurement point: FCT panels plus the event-loop
/// throughput counter (the runner-level before/after metric for the
/// scheduler work — see [`fig19_report`]).
#[derive(Debug, Clone)]
pub struct FctPoint {
    /// Offered load fraction.
    pub load: f64,
    /// Average normalized FCT, (0, 100 kB] flows.
    pub avg_small: f64,
    /// 99th-percentile normalized FCT, (0, 100 kB] flows.
    pub p99_small: f64,
    /// Average normalized FCT, (10 MB, ∞) flows.
    pub avg_large: f64,
    /// Simulation events processed.
    pub events: u64,
    /// Wall-clock seconds of the run.
    pub wall_secs: f64,
}

impl FctPoint {
    /// Event-loop throughput in million events per second.
    fn mev_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs / 1e6
    }
}

/// One Figure 19 sweep: runs a system over the given loads on an explicit
/// scheduler backend, timing each point.
pub fn pfabric_fct_sweep(
    system: System,
    topo: Topology,
    loads: &[f64],
    flows: usize,
    seed: u64,
    backend: SchedulerBackend,
) -> Vec<FctPoint> {
    loads
        .iter()
        .map(|&load| {
            let t = Instant::now();
            let r = run_with(SimConfig::new(topo, system, load, flows, seed), backend);
            FctPoint {
                load,
                avg_small: r.summary.avg_small.unwrap_or(f64::NAN),
                p99_small: r.summary.p99_small.unwrap_or(f64::NAN),
                avg_large: r.summary.avg_large.unwrap_or(f64::NAN),
                events: r.counters.events,
                wall_secs: t.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// The Figure 19 claim quoted by the binary banner and EXPERIMENTS.md.
const FIG19_PAPER_CLAIM: &str = "\"approximation has minimal effect on overall network \
     behavior\" — the two pFabric series should track each other and beat DCTCP on small-flow \
     FCT (§5.2, Figure 19).";

/// Scale knobs of the Figure 19 harness, so tests drive miniatures of the
/// exact code path the binary records.
#[derive(Debug, Clone)]
pub struct Fig19Scale {
    /// Load sweep points.
    pub loads: Vec<f64>,
    /// Flow arrivals per point.
    pub flows: usize,
    /// Use the paper's 144-host fabric instead of the scaled 32-host one.
    pub paper_topo: bool,
}

impl Fig19Scale {
    /// Scale chosen from the shared `--quick` flag and a `--paper` request.
    pub fn from_args(args: &BenchArgs, paper_topo: bool) -> Self {
        Fig19Scale {
            loads: if args.quick {
                vec![0.2, 0.4, 0.6]
            } else {
                vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
            },
            flows: if args.quick { 200 } else { 1_000 },
            paper_topo,
        }
    }

    /// Miniature for integration tests.
    pub fn tiny() -> Self {
        Fig19Scale {
            loads: vec![0.3, 0.6],
            flows: 30,
            paper_topo: false,
        }
    }
}

/// Builds the complete Figure 19 report: the paper's three normalized-FCT
/// panels (DCTCP vs pFabric vs pFabric-Approx across load), plus two
/// event-loop panels — per-system events-per-second on the FFS-wheel
/// scheduler, and a heap-vs-wheel backend comparison at the highest load
/// (the runner-level counter pairing the `event_scheduler` criterion
/// microbench).
pub fn fig19_report(args: &BenchArgs, scale: &Fig19Scale) -> BenchReport {
    let topo = if scale.paper_topo {
        Topology::paper()
    } else {
        Topology::small()
    };
    let mut r = BenchReport::new(
        "fig19_pfabric_fct",
        "Figure 19",
        "normalized FCT vs load (web-search workload)",
        args,
    );
    r.paper_claim(FIG19_PAPER_CLAIM);
    r.config_num("hosts", topo.hosts() as f64);
    r.config_num("flows_per_point", scale.flows as f64);
    r.config_str(
        "topology",
        if scale.paper_topo {
            "paper (144-host)"
        } else {
            "small (32-host)"
        },
    );
    r.config_str("scheduler", "eiffel_sim::BucketedEventQueue (FFS wheel)");

    let systems = [
        ("DCTCP", System::Dctcp),
        ("pFabric", System::PfabricExact),
        ("pFabric-Approx", System::PfabricApprox),
    ];
    let mut sweeps = Vec::new();
    for (name, sys) in systems {
        let rows = pfabric_fct_sweep(
            sys,
            topo,
            &scale.loads,
            scale.flows,
            0xF19,
            SchedulerBackend::FfsWheel,
        );
        sweeps.push((name, rows));
    }
    type Panel = (&'static str, fn(&FctPoint) -> f64);
    let panels: [Panel; 3] = [
        ("Average NFCT, flows (0, 100kB]", |p| p.avg_small),
        ("99th percentile NFCT, flows (0, 100kB]", |p| p.p99_small),
        ("Average NFCT, flows (10MB, inf)", |p| p.avg_large),
    ];
    for (panel, pick) in panels {
        let mut sw = Sweep::new(panel, "load");
        for (name, _) in &sweeps {
            sw.add_series(*name, "normalized FCT", 2);
        }
        for (li, &load) in scale.loads.iter().enumerate() {
            let row: Vec<f64> = sweeps.iter().map(|(_, sweep)| pick(&sweep[li])).collect();
            sw.push_row(load, &row);
        }
        r.push_sweep(sw);
    }
    // Event-loop throughput: the runner-level counter for the scheduler
    // and frame-path optimization work.
    let mut sw = Sweep::new("dcsim event-loop throughput (FFS-wheel scheduler)", "load");
    for (name, _) in &sweeps {
        sw.add_series(*name, "Mev/s", 2);
    }
    for (li, &load) in scale.loads.iter().enumerate() {
        let row: Vec<f64> = sweeps
            .iter()
            .map(|(_, sweep)| sweep[li].mev_per_sec())
            .collect();
        sw.push_row(load, &row);
    }
    r.push_sweep(sw);
    // Backend comparison at the highest load: same simulation, binary-heap
    // event queue vs the FFS-bucketed wheel. Event sequences are
    // deterministic and identical across backends (asserted here).
    let &cmp_load = scale.loads.last().expect("at least one load");
    let mut sw = Sweep::new(
        format!("event scheduler backend comparison (pFabric, load {cmp_load})"),
        "backend",
    );
    sw.add_series("wall time", "s", 3);
    sw.add_series("event rate", "Mev/s", 2);
    let mut event_counts = Vec::new();
    for (label, backend) in [
        ("BinaryHeap baseline", SchedulerBackend::BinaryHeap),
        ("FFS wheel", SchedulerBackend::FfsWheel),
    ] {
        let p = pfabric_fct_sweep(
            System::PfabricExact,
            topo,
            &[cmp_load],
            scale.flows,
            0xF19,
            backend,
        );
        event_counts.push(p[0].events);
        sw.push_row(label, &[p[0].wall_secs, p[0].mev_per_sec()]);
    }
    assert_eq!(
        event_counts[0], event_counts[1],
        "backends must run bit-identical simulations"
    );
    r.push_sweep(sw);
    r.note(format!(
        "Backend comparison processed identical event sequences ({} events) — the wheel \
         changes wall time only, never results.",
        event_counts[0]
    ));
    r
}

/// Scale knobs of the Figure 10 harness (CPU breakdown CDFs).
#[derive(Debug, Clone)]
pub struct Fig10Scale {
    /// Scale of the virtual-clock panels (same workload as Figure 9).
    pub cdf: KernelShapingScale,
    /// Shard (OS thread) count of the threaded panels.
    pub shards: usize,
    /// Wall-clock measurement of the threaded panels.
    pub wall: WallNanos,
}

impl Fig10Scale {
    /// Scale chosen from the shared `--quick` flag.
    pub fn from_args(args: &BenchArgs) -> Self {
        Fig10Scale {
            cdf: if args.quick {
                KernelShapingScale::quick()
            } else {
                KernelShapingScale::default_scale()
            },
            shards: 2,
            wall: WallNanos::from_millis(if args.quick { 250 } else { 1_200 }),
        }
    }

    /// Miniature for integration tests.
    pub fn tiny() -> Self {
        Fig10Scale {
            cdf: KernelShapingScale {
                flows: 200,
                aggregate: Rate::mbps(240),
                duration: SECOND / 10,
                bin: SECOND / 50,
            },
            shards: 2,
            wall: WallNanos::from_millis(25),
        }
    }
}

/// The Figure 10 claim quoted by the binary banner and EXPERIMENTS.md.
const FIG10_PAPER_CLAIM: &str = "\"the main difference is in the overhead introduced by \
     Carousel in firing timers at constant intervals while Eiffel can trigger timers exactly \
     when needed\" — the softirq share should dominate Carousel's total (§5.1.1, Figure 10).";

/// One Figure 10 panel: the system/softirq CDFs of a per-bin breakdown.
fn fig10_panel(name: String, breakdown: &[(f64, f64)]) -> Sweep {
    let mut syscores: Vec<f64> = breakdown.iter().map(|&(s, _)| s).collect();
    let mut irq: Vec<f64> = breakdown.iter().map(|&(_, i)| i).collect();
    syscores.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    irq.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mut sw = Sweep::new(name, "CDF");
    sw.add_series("system", "cores", 4);
    sw.add_series("softirq", "cores", 4);
    for ((s, frac), (i, _)) in crate::report::cdf(&syscores, 10)
        .into_iter()
        .zip(crate::report::cdf(&irq, 10))
    {
        sw.push_row(frac, &[s, i]);
    }
    sw
}

/// Builds the complete Figure 10 report: per-system system-vs-softIRQ
/// CPU CDFs for Carousel and Eiffel, first on the virtual-clock host
/// (same workload as Figure 9), then on the threaded runtime where the
/// per-shard [`eiffel_sim::CpuMeter`]s bin real executed nanoseconds
/// along the wall clock.
pub fn fig10_report(args: &BenchArgs, scale: &Fig10Scale) -> BenchReport {
    let mut r = BenchReport::new(
        "fig10_cpu_breakdown",
        "Figure 10",
        "CPU breakdown: system vs softIRQ (CDF), Carousel vs Eiffel, virtual + threaded",
        args,
    );
    r.paper_claim(FIG10_PAPER_CLAIM);
    r.config_num("flows", scale.cdf.flows as f64);
    r.config_num("aggregate_gbps", scale.cdf.aggregate.as_bps() as f64 / 1e9);
    r.config_num("threaded_shards", scale.shards as f64);
    r.config_num("threaded_wall_ms", scale.wall.as_nanos() as f64 / 1e6);
    r.config_str(
        "method",
        "same workload as Figure 9; enqueue path = system, timer/dequeue path = softIRQ; \
         threaded panels bin real executed nanoseconds by wall time across shard threads",
    );
    let reports = kernel_shaping(&scale.cdf);
    let virtual_panels: Vec<&HostReport> = reports.iter().filter(|sys| sys.name != "fq").collect();
    for sys in &virtual_panels {
        r.push_sweep(fig10_panel(
            format!("virtual {} (timer fires = {})", sys.name, sys.timer_fires),
            &sys.breakdown,
        ));
    }
    let host = HostConfig {
        flows: scale.cdf.flows,
        aggregate: scale.cdf.aggregate,
        duration: 2 * SECOND, // ignored by the threaded runtime
        bin: (scale.wall.as_nanos() / 20).max(1),
        tsq_budget: 2,
        batch: 1,
    };
    let cfg = ThreadedConfig::timed(scale.shards, host, scale.wall);
    let threaded = [
        run_threaded(|_| CarouselQdisc::new(1 << 20, 2_000), &cfg),
        run_threaded(|_| EiffelQdisc::paper_config(), &cfg),
    ];
    for rep in &threaded {
        r.push_sweep(fig10_panel(
            format!(
                "threaded wall clock {} ({} shards, timer fires = {})",
                rep.name, scale.shards, rep.timer_fires
            ),
            &rep.breakdown,
        ));
    }
    r.note(
        "Virtual panels meter data-structure work into virtual-time bins on the simulated \
         host; threaded panels sum the per-shard wall-clock meters of the real OS-thread \
         runtime. Both attribute the enqueue path to \"system\" and the timer/dequeue path \
         to \"softirq\", with the same modelled IRQ/lock constants, so the Carousel-vs-Eiffel \
         softirq gap is comparable across clocks.",
    );
    r.note(meter_note(
        "virtual-clock",
        virtual_panels.iter().map(|s| s.meter_timed_calls).sum(),
        virtual_panels.iter().map(|s| s.meter_calls).sum(),
    ));
    r
}

/// The report note that puts a CPU meter's sample in scale: how many of
/// its metered calls it timed.
fn meter_note(clock: &str, timed: u64, calls: u64) -> String {
    format!(
        "{clock} meter timed {timed} of {calls} calls (share {:.4}); the virtual-clock meter \
         samples about one call in {} per category, in bursts, and charges each burst for the \
         calls it stands for; the wall-clock meter times every call.",
        timed as f64 / calls.max(1) as f64,
        eiffel_sim::cpu::SAMPLE_GAP,
    )
}

/// Scale knobs of the Figure 16 harness (drain Mpps vs packets/bucket).
#[derive(Debug, Clone)]
pub struct Fig16Scale {
    /// Bucket counts, one sweep panel each (paper: 5k and 10k).
    pub nbs: Vec<usize>,
    /// Packets-per-bucket sweep points.
    pub ppbs: Vec<usize>,
    /// Measurement budget per cell.
    pub budget: Duration,
    /// Additional per-`nb` panel draining through `dequeue_batch(n)`
    /// (`None` disables it).
    pub batch_panel: Option<usize>,
    /// Oracle-audited drain rounds behind the quality panels.
    pub quality_rounds: usize,
}

impl Fig16Scale {
    /// Scale chosen from the shared `--quick` flag.
    pub fn from_args(args: &BenchArgs) -> Self {
        Fig16Scale {
            nbs: vec![5_000, 10_000],
            ppbs: vec![1, 2, 4, 6, 8],
            budget: Duration::from_millis(if args.quick { 50 } else { 400 }),
            batch_panel: Some(16),
            quality_rounds: if args.quick { 2 } else { 6 },
        }
    }

    /// Miniature for integration tests.
    pub fn tiny() -> Self {
        Fig16Scale {
            nbs: vec![512],
            ppbs: vec![1, 2],
            budget: Duration::from_millis(8),
            batch_panel: Some(8),
            quality_rounds: 2,
        }
    }
}

/// The Figure 16 claim quoted by the binary banner and EXPERIMENTS.md.
const FIG16_PAPER_CLAIM: &str = "at few packets per bucket the approximate queue leads (up \
     to 9% over cFFS at 10k buckets); more packets per bucket amortize the min-find and the \
     queues converge; BH trails throughout (§5.2, Figure 16).";

/// The bake-off field the §5.2 figures sweep: the paper's three contenders
/// in figure-legend order, then the SP-PIFO and RIFO related-work backends
/// (integer-only adaptive mappings; see PAPERS.md).
const BAKEOFF_CONTENDERS: [QueueUnderTest; 5] = [
    QueueUnderTest::Approx,
    QueueUnderTest::Cffs,
    QueueUnderTest::BucketHeap,
    QueueUnderTest::SpPifo,
    QueueUnderTest::Rifo,
];

/// A drain-quality sweep skeleton: per contender, average rank error in
/// buckets, then inverted-pop fraction, in [`BAKEOFF_CONTENDERS`] order.
fn quality_sweep(name: String, param: &str) -> Sweep {
    let mut sw = Sweep::new(name, param);
    for kind in BAKEOFF_CONTENDERS {
        sw.add_series(format!("{} rank err", kind.name()), "buckets", 2);
    }
    for kind in BAKEOFF_CONTENDERS {
        sw.add_series(format!("{} inv/pop", kind.name()), "fraction", 3);
    }
    sw
}

/// One row of a [`quality_sweep`]: oracle-audited drain of the given fill
/// for every contender, error columns first, inversion columns after.
fn quality_row(
    nb: usize,
    pattern: FillPattern,
    fill: usize,
    ppb: usize,
    rounds: usize,
    seed: u64,
) -> Vec<f64> {
    let reps: Vec<OracleReport> = BAKEOFF_CONTENDERS
        .into_iter()
        .map(|kind| drain_quality(kind, nb, pattern, fill, ppb, rounds, seed))
        .collect();
    reps.iter()
        .map(OracleReport::avg_rank_error)
        .chain(reps.iter().map(OracleReport::inversion_frac))
        .collect()
}

/// The note every quality panel travels with.
const QUALITY_NOTE: &str = "Quality panels are untimed: each cell refills the queue and drains \
     it fully under an ideal-PIFO oracle audit. \"rank err\" is the mean gap between the \
     dequeued rank and the true minimum at that pop; \"inv/pop\" is the fraction of pops that \
     jumped ahead of a smaller rank dequeued later. Exact backends score zero on both; SP-PIFO \
     and RIFO trade these bounded errors for integer-only adaptive mappings.";

/// Builds the complete Figure 16 report: per bucket count, drain Mpps vs
/// packets/bucket for the five bake-off contenders plus the approximate
/// queue's estimator hit rate, (optionally) a batched-dequeue panel
/// showing what `dequeue_batch` amortization is worth on the same fill,
/// and an oracle-audited drain-quality panel scoring each backend's rank
/// errors and inversions on that fill.
pub fn fig16_report(args: &BenchArgs, scale: &Fig16Scale) -> BenchReport {
    let mut r = BenchReport::new(
        "fig16_packets_per_bucket",
        "Figure 16",
        "drain Mpps vs packets/bucket (pre-filled queue fully drained; drain phase timed)",
        args,
    );
    r.paper_claim(FIG16_PAPER_CLAIM);
    r.config_num("budget_ms_per_cell", scale.budget.as_millis() as f64);
    r.config_num("quality_rounds", scale.quality_rounds as f64);
    r.config_str("ppb_sweep", format!("{:?}", scale.ppbs));
    for &nb in &scale.nbs {
        let mut sw = Sweep::new(format!("{nb} buckets"), "pkts/bucket");
        for kind in BAKEOFF_CONTENDERS {
            sw.add_series(kind.name(), "Mpps", 2);
        }
        sw.add_series("Approx est. hit rate", "fraction", 3);
        for &ppb in &scale.ppbs {
            let mut row = Vec::new();
            let mut hit_rate = 0.0;
            for kind in BAKEOFF_CONTENDERS {
                let res = drain_rate_packets_per_bucket(kind, nb, ppb, 1, scale.budget);
                if kind == QueueUnderTest::Approx {
                    hit_rate = res.hit_rate;
                }
                row.push(res.mpps);
            }
            row.push(hit_rate);
            sw.push_row(ppb, &row);
        }
        r.push_sweep(sw);
    }
    if let Some(batch) = scale.batch_panel {
        for &nb in &scale.nbs {
            let mut sw = Sweep::new(
                format!("{nb} buckets, dequeue_batch({batch})"),
                "pkts/bucket",
            );
            for kind in BAKEOFF_CONTENDERS {
                sw.add_series(kind.name(), "Mpps", 2);
            }
            for &ppb in &scale.ppbs {
                let row: Vec<f64> = BAKEOFF_CONTENDERS
                    .into_iter()
                    .map(|kind| {
                        drain_rate_packets_per_bucket(kind, nb, ppb, batch, scale.budget).mpps
                    })
                    .collect();
                sw.push_row(ppb, &row);
            }
            r.push_sweep(sw);
        }
        r.note(format!(
            "The dequeue_batch({batch}) panels drain the identical fill through the batched \
             trait path (order proven identical to repeated dequeue_min by property test); \
             SP-PIFO and RIFO bring their own bucket-local batch loops, BH falls back to \
             repeated dequeue_min."
        ));
    }
    for &nb in &scale.nbs {
        let mut sw = quality_sweep(format!("{nb} buckets, drain quality"), "pkts/bucket");
        for &ppb in &scale.ppbs {
            let row = quality_row(nb, FillPattern::Dense, nb, ppb, scale.quality_rounds, 0xF16);
            sw.push_row(ppb, &row);
        }
        r.push_sweep(sw);
    }
    r.note(QUALITY_NOTE);
    r
}

/// Scale knobs of the Figure 17 harness (drain Mpps vs occupancy).
#[derive(Debug, Clone)]
pub struct Fig17Scale {
    /// Bucket counts, one group of panels each (paper: 5k and 10k).
    pub nbs: Vec<usize>,
    /// Occupancy sweep points (fraction of non-empty buckets).
    pub occupancies: Vec<f64>,
    /// Fill shapes; `Sparse` is the paper-comparable one.
    pub patterns: Vec<FillPattern>,
    /// Measurement budget per cell.
    pub budget: Duration,
}

impl Fig17Scale {
    /// Scale chosen from the shared `--quick` flag.
    pub fn from_args(args: &BenchArgs) -> Self {
        Fig17Scale {
            nbs: vec![5_000, 10_000],
            occupancies: vec![0.5, 0.7, 0.8, 0.9, 0.99],
            patterns: vec![
                FillPattern::Sparse,
                FillPattern::Dense,
                FillPattern::Clustered,
            ],
            budget: Duration::from_millis(if args.quick { 50 } else { 400 }),
        }
    }

    /// Miniature for integration tests.
    pub fn tiny() -> Self {
        Fig17Scale {
            nbs: vec![512],
            occupancies: vec![0.7, 0.99],
            patterns: vec![FillPattern::Sparse, FillPattern::Dense],
            budget: Duration::from_millis(8),
        }
    }
}

/// The Figure 17 claim quoted by the binary banner and EXPERIMENTS.md.
const FIG17_PAPER_CLAIM: &str = "empty buckets trigger the approximate queue's linear \
     search, so its throughput climbs with occupancy; cFFS is insensitive (§5.2, Figure 17).";

/// Builds the complete Figure 17 report: one panel per `(bucket count,
/// fill pattern)` sweeping occupancy for the five bake-off contenders
/// plus the approximate queue's estimator hit rate.
pub fn fig17_report(args: &BenchArgs, scale: &Fig17Scale) -> BenchReport {
    let contenders = BAKEOFF_CONTENDERS;
    let mut r = BenchReport::new(
        "fig17_occupancy",
        "Figure 17",
        "drain Mpps vs occupancy (each occupied bucket holds one packet; drain phase timed)",
        args,
    );
    r.paper_claim(FIG17_PAPER_CLAIM);
    r.config_num("budget_ms_per_cell", scale.budget.as_millis() as f64);
    r.config_str(
        "patterns",
        scale
            .patterns
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", "),
    );
    let mut fill_order = FillOrder::new();
    for &nb in &scale.nbs {
        for &pattern in &scale.patterns {
            let mut sw = Sweep::new(
                format!("{nb} buckets, {} fill", pattern.name()),
                "occupancy",
            );
            for kind in contenders {
                sw.add_series(kind.name(), "Mpps", 2);
            }
            sw.add_series("Approx est. hit rate", "fraction", 3);
            for &occ in &scale.occupancies {
                let mut row = Vec::new();
                let mut hit_rate = 0.0;
                for kind in contenders {
                    let res =
                        drain_rate_occupancy(kind, nb, occ, pattern, &mut fill_order, scale.budget);
                    if kind == QueueUnderTest::Approx {
                        hit_rate = res.hit_rate;
                    }
                    row.push(res.mpps);
                }
                row.push(hit_rate);
                sw.push_row(occ, &row);
            }
            r.push_sweep(sw);
        }
    }
    r.note(
        "The sparse panels are the paper-comparable fill (random occupied subset); dense and \
         clustered bound the approximate queue's best and structured cases. The hit-rate series \
         is the fraction of min-lookups answered without the fallback search. SP-PIFO and RIFO \
         are approximate too — their ordering error is scored in the Figure 16/18 quality \
         panels, not here.",
    );
    r
}

/// Scale knobs of the Figure 18 harness (estimator error and drain
/// quality vs occupancy).
#[derive(Debug, Clone)]
pub struct Fig18Scale {
    /// Bucket counts (paper: 5k and 10k).
    pub nbs: Vec<usize>,
    /// Occupancy sweep points.
    pub occupancies: Vec<f64>,
    /// Estimator-error probe rounds per cell.
    pub rounds: usize,
    /// Oracle-audited drain rounds behind the quality panels.
    pub quality_rounds: usize,
}

impl Fig18Scale {
    /// Scale chosen from the shared `--quick` flag.
    pub fn from_args(args: &BenchArgs) -> Self {
        Fig18Scale {
            nbs: vec![5_000, 10_000],
            occupancies: vec![0.7, 0.8, 0.9, 0.99],
            rounds: if args.quick { 8 } else { 48 },
            quality_rounds: if args.quick { 2 } else { 6 },
        }
    }

    /// Miniature for integration tests.
    pub fn tiny() -> Self {
        Fig18Scale {
            nbs: vec![512],
            occupancies: vec![0.7, 0.99],
            rounds: 2,
            quality_rounds: 2,
        }
    }
}

/// The Figure 18 claim quoted by the binary banner and EXPERIMENTS.md.
const FIG18_PAPER_CLAIM: &str = "error grows as buckets empty (≈12 at 0.7 occupancy down \
     to ≈2 near full for 10k buckets); \"cases where the queue is more than 30% empty should \
     trigger changes in the queue's granularity\" (§5.2, Figure 18).";

/// Human-friendly bucket-count label: `5000` → "5k buckets".
fn nb_label(nb: usize) -> String {
    if nb >= 1_000 && nb % 1_000 == 0 {
        format!("{}k buckets", nb / 1_000)
    } else {
        format!("{nb} buckets")
    }
}

/// Builds the complete Figure 18 report: the paper's estimator-error
/// panel (average bucket-index error of the approximate queue's min
/// lookup vs occupancy) plus per-bucket-count oracle-audited quality
/// panels scoring all five bake-off backends on the same sparse fill.
pub fn fig18_report(args: &BenchArgs, scale: &Fig18Scale) -> BenchReport {
    let mut r = BenchReport::new(
        "fig18_approx_error",
        "Figure 18",
        "approximate-queue estimator error and five-way drain quality vs occupancy",
        args,
    );
    r.paper_claim(FIG18_PAPER_CLAIM);
    r.config_num("rounds", scale.rounds as f64);
    r.config_num("quality_rounds", scale.quality_rounds as f64);
    r.config_str(
        "method",
        "error = |selected bucket − true best bucket| per lookup, exact shadow tracked",
    );
    let mut sw = Sweep::new("estimator bucket-index error", "occupancy");
    for &nb in &scale.nbs {
        sw.add_series(nb_label(nb), "avg bucket-index error", 2);
    }
    for &occ in &scale.occupancies {
        let row: Vec<f64> = scale
            .nbs
            .iter()
            .map(|&nb| approx_error_at_occupancy(nb, occ, scale.rounds, 0xF18))
            .collect();
        sw.push_row(occ, &row);
    }
    r.push_sweep(sw);
    for &nb in &scale.nbs {
        let mut sw = quality_sweep(
            format!("{}, sparse drain quality", nb_label(nb)),
            "occupancy",
        );
        for &occ in &scale.occupancies {
            let fill = ((nb as f64 * occ) as usize).clamp(1, nb);
            let row = quality_row(
                nb,
                FillPattern::Sparse,
                fill,
                1,
                scale.quality_rounds,
                0xF18,
            );
            sw.push_row(occ, &row);
        }
        r.push_sweep(sw);
    }
    r.note(QUALITY_NOTE);
    r
}

/// Table 1 rows, tied to the implementations in this workspace.
pub fn table1_rows() -> Vec<Vec<String>> {
    let row = |sys: &str,
               eff: &str,
               hw: &str,
               unit: &str,
               wc: &str,
               shaping: &str,
               prog: &str,
               notes: &str| {
        vec![sys, eff, hw, unit, wc, shaping, prog, notes]
            .into_iter()
            .map(String::from)
            .collect()
    };
    vec![
        row(
            "FQ/pacing qdisc",
            "O(log n)",
            "SW",
            "Flows",
            "No",
            "Yes",
            "No",
            "only non-work-conserving FQ (crate eiffel-qdisc::fq)",
        ),
        row(
            "hClock",
            "O(log n)",
            "SW",
            "Flows",
            "Yes",
            "Yes",
            "No",
            "heap-based QoS (crate eiffel-bess::hclock::HClockHeap)",
        ),
        row(
            "Carousel",
            "O(1)",
            "SW",
            "Packets",
            "No",
            "Yes",
            "No",
            "timing wheel (crate eiffel-qdisc::carousel)",
        ),
        row(
            "OpenQueue",
            "O(log n)",
            "SW",
            "Pkts+Flows",
            "Yes",
            "No",
            "enq/deq",
            "not rebuilt: no artifact; characteristics from the paper",
        ),
        row(
            "PIFO",
            "O(1)",
            "HW",
            "Packets",
            "Yes",
            "Yes",
            "enq",
            "model reimplemented in SW (crate eiffel-pifo::tree)",
        ),
        row(
            "Eiffel",
            "O(1)",
            "SW",
            "Pkts+Flows",
            "Yes",
            "Yes",
            "enq/deq",
            "this repository (eiffel-core + eiffel-pifo)",
        ),
    ]
}

// ---------------------------------------------------------------------------
// Chaos degradation (fig_chaos): fault-injected threaded runs, five ranked
// backends, graceful-degradation curves vs fault intensity.
// ---------------------------------------------------------------------------

/// The five integer backends of the chaos bake-off, labelled
/// ([`QueueKind::label`]) as in the Figure 16/17/18 quality panels.
const CHAOS_BACKENDS: [QueueKind; 5] = [
    QueueKind::ApproxGradient { alpha: 64 },
    QueueKind::Cffs,
    QueueKind::BucketHeap,
    QueueKind::SpPifo { queues: 32 },
    QueueKind::Rifo,
];

/// One fault family per degradation panel, every family the plan DSL has.
const CHAOS_FAMILIES: [FaultFamily; 5] = [
    FaultFamily::Stall,
    FaultFamily::TimerJitter,
    FaultFamily::SlowConsumer,
    FaultFamily::RingSqueeze,
    FaultFamily::CompletionLoss,
];

/// Scale of the chaos degradation experiment.
#[derive(Debug, Clone)]
pub struct ChaosScale {
    /// Flows in each cell's workload.
    pub flows: usize,
    /// Heavy-tailed per-flow packet counts: mean (Pareto, α = 1.3).
    pub mean_pkts: f64,
    /// Heavy-tail cap on one flow's packet count.
    pub cap_pkts: u64,
    /// Shard threads per run.
    pub shards: usize,
    /// Fault-storm intensities swept (0 = the fault-free baseline column).
    pub intensities: Vec<f64>,
    /// Horizon the storm scatters windows over, wall ns from run start.
    pub horizon: Nanos,
}

impl ChaosScale {
    /// Full-scale (the recorded `BENCH_chaos_degradation.json`) or
    /// `--quick` (CI / tests), same shape either way.
    pub fn from_args(args: &BenchArgs) -> Self {
        if args.quick {
            ChaosScale {
                flows: 96,
                mean_pkts: 25.0,
                cap_pkts: 100,
                shards: 2,
                intensities: vec![0.0, 0.5, 1.0],
                horizon: 20_000_000,
            }
        } else {
            ChaosScale {
                flows: 512,
                mean_pkts: 100.0,
                cap_pkts: 400,
                shards: 4,
                intensities: vec![0.0, 0.25, 0.5, 0.75, 1.0],
                horizon: 40_000_000,
            }
        }
    }

    /// Miniature for tests: the full report path in a couple of seconds.
    pub fn tiny() -> Self {
        ChaosScale {
            flows: 12,
            mean_pkts: 5.0,
            cap_pkts: 20,
            shards: 2,
            intensities: vec![0.0, 1.0],
            horizon: 4_000_000,
        }
    }
}

/// Aggregate outcome of one chaos cell.
#[derive(Debug, Clone)]
struct ChaosCell {
    /// Packets released per wall second, millions.
    pub mpps: f64,
    /// Transmit-weighted mean in-qdisc sojourn, µs.
    pub mean_sojourn_us: f64,
    /// Admission drops + evictions per 1 000 emitted packets.
    pub shed_per_k: f64,
    /// The full report, for totals and notes.
    pub report: ThreadedReport,
}

/// Runs one (backend × family × intensity) cell: heavy-tailed incast
/// workload, seeded single-family storm, ECN-marking admission, watchdog
/// on — then asserts packet conservation on the result (in release builds
/// too; the runtime's own `debug_assert` only guards dev runs).
fn chaos_cell(
    kind: QueueKind,
    scale: &ChaosScale,
    family: FaultFamily,
    intensity: f64,
) -> ChaosCell {
    let flows = scale.flows;
    let host = HostConfig {
        flows,
        // Sizes the producer's pacing gap (60 µs/flow); the ranked qdiscs
        // are work-conserving, so this sets the *offered* load — high
        // enough that a slowed or resuming shard falls behind its arrivals,
        // backlog piles toward the TSQ bound, and the admission cap binds.
        aggregate: Rate::mbps(200 * flows as u64),
        duration: SECOND, // ignored by threaded runs
        bin: SECOND / 20,
        tsq_budget: 4,
        batch: 16,
    };
    let mut cfg = ThreadedConfig::finite(scale.shards, host, 1);
    let seed = 0x00c4_a05e ^ ((family as u64) << 8) ^ (intensity * 100.0) as u64;
    cfg.pkts_override = Some(heavy_tailed_pkts(
        flows,
        scale.mean_pkts,
        1.3,
        scale.cap_pkts,
        seed,
    ));
    // Incast: flows arrive in 8 synchronized waves across the horizon.
    cfg.starts = Some(incast_starts(flows, flows.div_ceil(8), scale.horizon / 8));
    cfg.chaos.plan = FaultPlan::storm(seed, scale.shards, scale.horizon, intensity, &[family]);
    // Cap at an eighth of a shard's worst-case TSQ-bounded backlog: when
    // the consumer keeps up, flows self-clock near one packet in flight
    // and incast waves fit under it, but the backlog piling up behind a
    // stalled or slowed shard does not — shedding grows with intensity.
    let cap = (flows * cfg.host.tsq_budget as usize / scale.shards / 8).max(8);
    cfg.chaos.admit = AdmitPolicy::EcnMark {
        cap,
        mark_at: cap / 4,
    };
    cfg.chaos.watchdog = Some(WatchdogConfig::default());

    let pattern = RankPattern::Uniform { max: 4_095, seed };
    let qcfg = QueueConfig::new(4_096, 1, 0);
    let r = run_threaded(|_| RankedShaperQdisc::new(kind, qcfg, pattern), &cfg);

    // Conservation is the headline robustness claim: every cell is
    // audited, not just the debug test runs.
    assert_eq!(r.chaos.final_unaccounted, 0, "conservation: {:?}", r.chaos);
    assert_eq!(
        r.emitted,
        r.transmitted + r.chaos.admission_dropped + r.chaos.evicted + r.chaos.ring_residue,
        "emitted packets must split exactly into released + shed"
    );
    assert!(!r.timed_out, "no fault plan may wedge the runtime");

    let tx: u64 = r.transmitted.max(1);
    let sojourn_ns = r
        .per_shard
        .iter()
        .map(|s| s.mean_latency_ns * s.transmitted as f64)
        .sum::<f64>()
        / tx as f64;
    ChaosCell {
        mpps: r.transmitted as f64 / r.wall_elapsed.as_secs_f64().max(1e-9) / 1e6,
        mean_sojourn_us: sojourn_ns / 1e3,
        shed_per_k: (r.chaos.admission_dropped + r.chaos.evicted) as f64 * 1e3
            / r.emitted.max(1) as f64,
        report: r,
    }
}

/// Rank-adversarial drain quality at the queue level: `rounds` rounds of
/// fill-`n`-then-drain with ranks from `pattern`, audited by the PIFO
/// oracle. Flows fill in *blocks* (flow 0's packets, then flow 1's, …) so
/// a per-flow ramp pattern arrives as a sawtooth: each flow boundary is a
/// large rank drop into queues whose SP-PIFO bounds the previous ramp
/// just pushed up — the classic adversarial arrival order. Exact backends
/// drain a fill-then-drain script perfectly whatever the arrival order.
fn adversarial_quality(
    kind: QueueKind,
    pattern: RankPattern,
    flows: usize,
    n: usize,
    rounds: usize,
) -> OracleReport {
    let qcfg = QueueConfig::new(4_096, 1, 0);
    let mut total = OracleReport {
        pops: 0,
        inversions: 0,
        max_inversion: 0,
        rank_error_sum: 0,
        max_rank_error: 0,
    };
    let mut seq = vec![0u64; flows];
    for _ in 0..rounds {
        let mut q = kind.build_send(qcfg);
        let mut audit = OracleAudit::new();
        for i in 0..n {
            let flow = (i * flows / n).min(flows - 1);
            let rank = pattern.rank(flow as u32, seq[flow]).min(4_095);
            seq[flow] += 1;
            q.enqueue(rank, Packet::mtu(i as u64, flow as u32, 0))
                .unwrap_or_else(|_| unreachable!("ranks are clamped to the queue range"));
            audit.on_enqueue(rank);
        }
        while let Some((r, _)) = q.dequeue_min() {
            audit.on_dequeue(r);
        }
        assert!(audit.is_empty(), "{kind:?} lost elements");
        let rep = audit.finish();
        total.pops += rep.pops;
        total.inversions += rep.inversions;
        total.max_inversion = total.max_inversion.max(rep.max_inversion);
        total.rank_error_sum += rep.rank_error_sum;
        total.max_rank_error = total.max_rank_error.max(rep.max_rank_error);
    }
    total
}

/// The full `fig_chaos` report: one degradation sweep per fault family
/// (throughput / sojourn / shed-rate vs storm intensity, five backends)
/// plus the rank-adversarial quality table.
pub fn fig_chaos_report(args: &BenchArgs, scale: &ChaosScale) -> BenchReport {
    let mut r = BenchReport::new(
        "fig_chaos_degradation",
        "Chaos degradation",
        "Fault-injected threaded runtime: graceful degradation and recovery across five ranked \
         backends under seeded fault storms",
        args,
    );
    r.paper_claim(
        "Robustness counterpart to the paper's efficiency claims: the sharded end-host runtime \
         (§5.1 deployment shape) must degrade gracefully — shed load by policy, detect and fail \
         over stalled shards, reconcile lost completions — while conserving every packet.",
    );
    r.config_num("flows", scale.flows as f64);
    r.config_num("mean_pkts", scale.mean_pkts);
    r.config_num("shards", scale.shards as f64);
    r.config_num("storm_horizon_ms", scale.horizon as f64 / 1e6);
    r.config_str("intensities", format!("{:?}", scale.intensities));
    r.config_str(
        "method",
        "Per cell: heavy-tailed (Pareto α=1.3) incast workload through the threaded runtime with \
         a seeded single-family fault storm, ECN-marking admission (cap = flows·tsq/shards/8, \
         mark at cap/4), watchdog failover + completion reconciliation on. Every cell asserts \
         emitted = released + shed (admission drops + evictions) with zero unaccounted packets.",
    );

    let mut totals = ChaosReportTotals::default();
    let mut showcase: Option<ThreadedReport> = None;
    for family in CHAOS_FAMILIES {
        let mut sw = Sweep::new(
            format!(
                "{} degradation (storm intensity 0 = fault-free)",
                family.label()
            ),
            "intensity",
        );
        for kind in CHAOS_BACKENDS {
            let name = kind.label();
            sw.add_series(format!("{name} Mpps"), "Mpps", 3);
            sw.add_series(format!("{name} sojourn"), "us", 1);
            sw.add_series(format!("{name} shed"), "per-1k", 2);
        }
        for &intensity in &scale.intensities {
            let mut row = Vec::with_capacity(CHAOS_BACKENDS.len() * 3);
            for kind in CHAOS_BACKENDS {
                let cell = chaos_cell(kind, scale, family, intensity);
                row.extend([cell.mpps, cell.mean_sojourn_us, cell.shed_per_k]);
                totals.absorb(&cell.report);
                // The per-shard observability slice: one representative
                // cell (cFFS under the hardest stall storm) recorded in
                // full per-core detail.
                if matches!(family, FaultFamily::Stall)
                    && kind == QueueKind::Cffs
                    && Some(&intensity) == scale.intensities.last()
                {
                    showcase = Some(cell.report.clone());
                }
            }
            sw.push_row(intensity, &row);
        }
        r.push_sweep(sw);
    }
    if let Some(rep) = &showcase {
        r.push_table(per_shard_counters_table(
            "per-shard counters (cFFS, stall storm, max intensity)",
            rep,
        ));
    }

    // Quality under the rank adversary: exact backends stay exact; the
    // approximate mappers' error envelopes are recorded (and pinned by
    // the regression test at this exact call shape).
    let adv = RankPattern::SpPifoAdversarial {
        max: 4_000,
        period: 64,
    };
    let mut t = TextTable::new(
        "rank-adversarial drain quality (SP-PIFO ramp attack)",
        &["backend", "pops", "inv/pop", "avg rank err", "max inv"],
    );
    for kind in CHAOS_BACKENDS {
        let rep = adversarial_quality(kind, adv, 32, 2_048, 4);
        t.rows.push(vec![
            kind.label().to_string(),
            rep.pops.to_string(),
            format!("{:.4}", rep.inversions as f64 / rep.pops.max(1) as f64),
            format!("{:.3}", rep.rank_error_sum as f64 / rep.pops.max(1) as f64),
            rep.max_inversion.to_string(),
        ]);
    }
    r.push_table(t);

    r.note(format!(
        "Conservation audited on every cell: {} packets emitted across {} runs, all accounted \
         (released {}, admission-dropped {}, evicted {}, {} ECN-marked on admission); zero \
         unaccounted.",
        totals.emitted,
        totals.cells,
        totals.transmitted,
        totals.admission_dropped,
        totals.evicted,
        totals.ecn_marked
    ));
    r.note(format!(
        "Fault handling totals: {} stalls detected, {} recoveries, {} packets redirected, {} \
         completions lost on the wire and {} reconciled, {} ring-full producer backoffs.",
        totals.stalls_detected,
        totals.recoveries,
        totals.redirected,
        totals.completions_lost,
        totals.completions_recovered,
        totals.ring_full_retries
    ));
    r.note(
        "Caveats: ECN marks are recorded as a signal only (no TCP feedback loop closes on them); \
         the virtual-clock runtime treats CompletionLoss as a no-op (no wire) and RingSqueeze \
         only binds there when combined with stalls; failover trades per-flow ordering for \
         liveness while a shard is suspect (see DESIGN.md).",
    );
    r
}

/// Sums the fault-handling counters across every cell of the report.
#[derive(Debug, Clone, Copy, Default)]
struct ChaosReportTotals {
    cells: u64,
    emitted: u64,
    transmitted: u64,
    admission_dropped: u64,
    ecn_marked: u64,
    evicted: u64,
    stalls_detected: u64,
    recoveries: u64,
    redirected: u64,
    completions_lost: u64,
    completions_recovered: u64,
    ring_full_retries: u64,
}

impl ChaosReportTotals {
    fn absorb(&mut self, r: &ThreadedReport) {
        self.cells += 1;
        self.emitted += r.emitted;
        self.transmitted += r.transmitted;
        self.admission_dropped += r.chaos.admission_dropped;
        self.ecn_marked += r.chaos.ecn_marked;
        self.evicted += r.chaos.evicted;
        self.stalls_detected += r.chaos.stalls_detected;
        self.recoveries += r.chaos.recoveries;
        self.redirected += r.chaos.redirected;
        self.completions_lost += r.chaos.completions_lost;
        self.completions_recovered += r.chaos.completions_recovered;
        self.ring_full_retries += r.ring_full_retries;
    }
}

// ---------------------------------------------------------------------------
// Overload control (fig_overload): ECN-reactive closed-loop sources vs
// open-loop sources at up to millions of flows through the threaded
// runtime, under a hard memory budget with tiered graceful degradation.
// ---------------------------------------------------------------------------

/// Scale of the overload-control experiment.
#[derive(Debug, Clone)]
pub struct OverloadScale {
    /// Flow counts swept (the overload axis).
    pub flow_grid: Vec<usize>,
    /// Flows in the uncongested baseline cell that defines the SLO and
    /// the reference goodput.
    pub baseline_flows: usize,
    /// Shard threads per run.
    pub shards: usize,
    /// Trace-shaped per-flow packet cap.
    pub cap_pkts: u64,
    /// Offered per-flow source rate, kbit/s. Multiplied by the flow
    /// count this is the offered load — past `capacity` the overload is
    /// real, not simulated.
    pub per_flow_kbps: u64,
    /// Fixed shaped drain capacity of the host — the bottleneck every
    /// cell shares, independent of how many flows offer load into it.
    pub capacity: Rate,
    /// Wall-clock budget per cell; overload cells end mid-stream by
    /// design (`timed_out` is expected there).
    pub wall: WallNanos,
    /// Hard memory budget every cell charges flow setups and packet
    /// slabs against.
    pub budget_bytes: u64,
    /// ECN admission hard cap (per shard, packets).
    pub admit_cap: usize,
    /// ECN admission mark threshold (per shard, packets).
    pub mark_at: usize,
}

impl OverloadScale {
    /// Full-scale (the recorded `BENCH_overload_closed_loop.json`) or
    /// `--quick` (CI / tests), same shape either way.
    pub fn from_args(args: &BenchArgs) -> Self {
        if args.quick {
            OverloadScale {
                flow_grid: vec![256, 1_024],
                baseline_flows: 128,
                shards: 2,
                cap_pkts: 32,
                per_flow_kbps: 100_000,
                capacity: Rate::gbps(19),
                wall: WallNanos::from_millis(150),
                budget_bytes: 256 * 1024,
                admit_cap: 4_096,
                mark_at: 64,
            }
        } else {
            // Sized so the contrast is structural, not incidental: the
            // shaped drain capacity (6 Gb/s = 0.5 Mpps) sits *below*
            // what one host CPU pushes through this stack, so the
            // shaper — not scheduler contention — is the bottleneck,
            // and offered load overtakes it as the flow grid grows
            // (100 k × 300 kb/s = 30 Gb/s is already 5x). The baseline
            // (12 288 × 300 kb/s ≈ 3.7 Gb/s) offers ~60 % of capacity.
            // The budget is the concurrency limiter by design: setups
            // stop at the cell's 70 % refuse threshold, so 64 MiB
            // admits ~92 k established flows and the per-flow shaped
            // rate stays ~5 pkt/s — enough completions per flow for
            // the control loop to converge within the wall — at
            // *every* grid point, and the flow axis stresses admission
            // churn and the refuse tier instead of starving per-flow
            // feedback. The ~30 % above the refuse threshold is a
            // structural slab reserve (~10 k packets), the bufferbloat
            // bound: closed sources pace near the granted rate, so
            // stamps sit near `now` and slabs recycle in milliseconds;
            // open sources burst their TSQ window, so slabs park
            // behind hundreds-of-ms future stamps and goodput starves.
            // The admission cap binds open-loop backlog inside the
            // reserve so cap drops (the loss signal) keep firing.
            OverloadScale {
                flow_grid: vec![100_000, 1_000_000, 10_000_000],
                baseline_flows: 12_288,
                shards: 2,
                cap_pkts: 512,
                per_flow_kbps: 300,
                capacity: Rate::mbps(6_000),
                wall: WallNanos::from_secs(6),
                budget_bytes: 64 * 1024 * 1024,
                admit_cap: 2_048,
                mark_at: 256,
            }
        }
    }

    /// Miniature for tests: the full report path in about a second.
    pub fn tiny() -> Self {
        OverloadScale {
            flow_grid: vec![128, 384],
            baseline_flows: 64,
            shards: 2,
            cap_pkts: 16,
            per_flow_kbps: 100_000,
            capacity: Rate::gbps(10),
            wall: WallNanos::from_millis(80),
            budget_bytes: 128 * 1024,
            admit_cap: 2_048,
            mark_at: 48,
        }
    }
}

/// Aggregate outcome of one overload cell.
#[derive(Debug, Clone)]
struct OverloadCell {
    /// Packets released per wall second, millions.
    pub goodput_mpps: f64,
    /// p99 in-qdisc sojourn, ms (merged across shards).
    pub p99_ms: f64,
    /// Merged sojourn histogram (for SLO-goodput at any threshold).
    pub sojourn: SojournHist,
    /// Admission decisions split by memory-pressure tier, merged.
    pub tiers: TierCounters,
    /// ECN marks per 1 000 emitted packets.
    pub marked_per_k: f64,
    /// Admission drops + evictions per 1 000 emitted packets.
    pub shed_per_k: f64,
    /// Memory ledger high-water mark, MB.
    pub mem_peak_mb: f64,
    /// The full report, for totals and notes.
    pub report: ThreadedReport,
}

impl OverloadCell {
    /// Goodput counting only packets that met the latency SLO: releases
    /// whose in-qdisc sojourn was at most `slo_ns`. The overload
    /// literature's collapse metric — late deliveries are useless work.
    fn slo_goodput_mpps(&self, slo_ns: u64) -> f64 {
        self.goodput_mpps * self.sojourn.frac_le(slo_ns)
    }
}

/// Runs one (size mix × flow count × source mode) cell: trace-shaped
/// finite flows through the threaded runtime with ECN-marking admission
/// and a hard [`MemBudget`], then asserts conservation and the memory
/// ceiling on the result (in release builds too).
///
/// A `baseline` cell is the uncongested reference instead: paced
/// (closed-loop) sources already at full scale, with uniform per-flow
/// packet counts sized to span the wall — a *sustained* offered load
/// well under capacity, so its goodput and p99 sojourn define what the
/// host delivers when not overloaded. (Open-loop sources cannot serve
/// here: they are deliberately unpaced bulk senders, so an "uncongested"
/// open-loop cell would just measure burst drain rate.)
fn overload_cell(
    scale: &OverloadScale,
    dist: FlowSizeDist,
    flows: usize,
    closed: bool,
    baseline: bool,
) -> OverloadCell {
    // Overload cells run the tier ladder at 40/55/70 % instead of the
    // default 60/80/95: flow setups stop charging at the refuse
    // threshold, so whatever sits above it is a structural *slab
    // reserve*. At the defaults, establishment greed fills the ledger
    // to 95 % with setups and the drain starves on the 5 % of packet
    // slabs left over; a 30 % reserve keeps the pool deep enough that
    // slab turnover — not slab count — bounds goodput.
    const TIER_PCTS: (u64, u64, u64) = (40, 55, 70);
    // The drain is the bottleneck: the shard-side shaper splits a fixed
    // capacity per flow while sources offer `per_flow_kbps` each, so the
    // offered/shaped ratio — the overload — grows with the flow grid.
    // One wrinkle: the shaper provisions that capacity over the
    // population admission can actually *establish* (the setup budget up
    // to the refuse threshold), not the offered population — past the
    // refuse point, per-flow rate would otherwise shrink with flows the
    // budget already turned away, strangling the drain exactly when
    // admission did its job.
    let admittable = (scale.budget_bytes * TIER_PCTS.2 / 100 / FLOW_SETUP_BYTES).max(1);
    let aggregate = if flows as u64 > admittable {
        Rate::bps(scale.capacity.as_bps().saturating_mul(flows as u64) / admittable)
    } else {
        scale.capacity
    };
    let host = HostConfig {
        flows,
        aggregate,
        duration: SECOND, // ignored by threaded runs
        bin: SECOND / 20,
        tsq_budget: 4,
        batch: 16,
    };
    let dtag = match dist {
        FlowSizeDist::WebSearch => 1u64,
        FlowSizeDist::DataMining => 2u64,
    };
    let seed = 0x0d05_ed50 ^ (flows as u64) ^ (u64::from(closed) << 40) ^ (dtag << 44);
    let mut cfg = ThreadedConfig::finite(scale.shards, host, 1);
    cfg.wall_limit = scale.wall;
    // Sources offer `per_flow_kbps` each regardless of what the shaper
    // grants them — the decoupling that makes the overload real.
    let offered_gap = HostConfig::mtu_gap(scale.per_flow_kbps * 1_000);
    cfg.offered_gap = Some(offered_gap);
    cfg.chaos.admit = AdmitPolicy::EcnMark {
        cap: scale.admit_cap,
        mark_at: scale.mark_at,
    };
    if baseline {
        // Enough uniform packets per flow to pace through the whole wall.
        cfg.pkts_per_flow = Some(scale.wall.as_nanos() / offered_gap + 2);
        cfg.closed_loop = Some(ClosedLoopParams {
            initial_scale: SCALE_ONE,
            ..ClosedLoopParams::default()
        });
    } else {
        cfg.pkts_override = Some(trace_shaped_pkts(flows, dist, scale.cap_pkts, seed));
        if closed {
            // Per-socket shaping has no work conservation across flows:
            // a source pacing *above* its granted rate accumulates
            // clock debt the shaper never forgives (stamps ride the
            // per-socket clock, which only moves forward), so the
            // stable operating point is hovering just *under* the
            // granted wire rate. Overload cells therefore enter a notch
            // below the flow-count-invariant granted share
            // (capacity / admittable, by the provisioning rule above)
            // and climb in small additive steps, with the tight mark
            // band correcting each small overshoot before debt builds:
            // entering above the granted rate puts every long-lived
            // flow permanently in debt within the first window, and
            // large additive steps re-create that debt each cycle.
            cfg.closed_loop = Some(ClosedLoopParams {
                initial_scale: 192,
                additive: 16,
                slow_start: false,
                ..ClosedLoopParams::default()
            });
        }
    }
    let budget = Arc::new(MemBudget::with_thresholds(
        scale.budget_bytes,
        TIER_PCTS.0,
        TIER_PCTS.1,
        TIER_PCTS.2,
    ));
    cfg.mem = Some(Arc::clone(&budget));

    // The paper's shaping qdisc, not the work-conserving ranked adapter:
    // overload needs release times to honor the per-flow shaped rate so
    // the fixed drain capacity is real. 2^15 buckets of 100 µs give a
    // ~3.3 s horizon per half — past the deepest honest stamp the TSQ
    // window can reach at the thinnest per-flow rate in the sweep.
    let r = run_threaded(|_| EiffelQdisc::new(1 << 15, 100_000), &cfg);

    // The two headline robustness claims, audited on every cell: exact
    // conservation, and a memory ceiling the run can never pierce.
    assert_eq!(r.chaos.final_unaccounted, 0, "conservation: {:?}", r.chaos);
    assert!(
        r.mem_peak_bytes <= budget.budget(),
        "memory peak {} pierced the {} budget",
        r.mem_peak_bytes,
        budget.budget()
    );
    assert_eq!(budget.in_use(), 0, "the ledger's books close at zero");

    let mut sojourn = SojournHist::default();
    let mut tiers = TierCounters::default();
    for s in &r.per_shard {
        sojourn.merge(&s.sojourn);
        tiers.merge(&s.tiers);
    }
    OverloadCell {
        goodput_mpps: r.transmitted as f64 / r.wall_elapsed.as_secs_f64().max(1e-9) / 1e6,
        p99_ms: sojourn.quantile(0.99) as f64 / 1e6,
        sojourn,
        tiers,
        marked_per_k: r.chaos.ecn_marked as f64 * 1e3 / r.emitted.max(1) as f64,
        shed_per_k: (r.chaos.admission_dropped + r.chaos.evicted) as f64 * 1e3
            / r.emitted.max(1) as f64,
        mem_peak_mb: r.mem_peak_bytes as f64 / 1e6,
        report: r,
    }
}

/// Per-shard ECN/drop/shed counter table — the per-core observability
/// slice of one threaded run, as recorded in the report JSON.
fn per_shard_counters_table(name: &str, rep: &ThreadedReport) -> TextTable {
    let mut t = TextTable::new(
        name,
        &[
            "shard",
            "flows",
            "transmitted",
            "ecn-marked",
            "adm-dropped",
            "evicted",
            "p99 us",
            "tiers seen",
        ],
    );
    for (i, s) in rep.per_shard.iter().enumerate() {
        t.rows.push(vec![
            i.to_string(),
            s.flows.to_string(),
            s.transmitted.to_string(),
            s.ecn_marked.to_string(),
            s.admission_dropped.to_string(),
            s.evicted.to_string(),
            format!("{:.1}", s.sojourn.quantile(0.99) as f64 / 1e3),
            s.tiers.tiers_exercised().to_string(),
        ]);
    }
    t
}

/// Admission decisions split by the memory-pressure tier they were made
/// under, merged across every cell of a report.
fn tier_counters_table(merged: &TierCounters) -> TextTable {
    let mut t = TextTable::new(
        "admission decisions by memory-pressure tier (all cells)",
        &["tier", "admitted", "marked", "dropped", "shed"],
    );
    for (i, label) in ["normal", "pressure", "shed", "refuse"]
        .iter()
        .enumerate()
        .take(DegradeTier::COUNT)
    {
        t.rows.push(vec![
            (*label).to_string(),
            merged.admitted[i].to_string(),
            merged.marked[i].to_string(),
            merged.dropped[i].to_string(),
            merged.shed[i].to_string(),
        ]);
    }
    t
}

/// The full `fig_overload` report: per size mix, an uncongested baseline
/// cell fixes the latency SLO and the reference goodput, then open-loop
/// and closed-loop sweeps over the flow grid show the collapse and the
/// control loop preventing it.
pub fn fig_overload_report(args: &BenchArgs, scale: &OverloadScale) -> BenchReport {
    let mut r = BenchReport::new(
        "fig_overload_closed_loop",
        "Overload control",
        "Closed-loop (DCTCP-style) vs open-loop sources at up to millions of flows under a hard \
         memory budget: SLO-goodput, tail sojourn, marks/sheds, and tiered degradation",
        args,
    );
    r.paper_claim(
        "Scale counterpart to the paper's millions-of-flows claim (§5.1): bucketed queues make \
         per-packet work cheap at huge flow counts, but only a closed control loop keeps that \
         capacity *useful* under overload — ECN marks echoed on the completion path let sources \
         back off, so queues (and tail sojourn) stay bounded while open-loop sources bufferbloat \
         the same qdiscs into SLO-goodput collapse. Memory stays under a hard budget via tiered \
         degradation: mark harder, shed worst-first, refuse new-flow setup — never OOM.",
    );
    r.config_num("shards", scale.shards as f64);
    r.config_num("per_flow_kbps", scale.per_flow_kbps as f64);
    r.config_num("capacity_gbps", scale.capacity.as_bps() as f64 / 1e9);
    r.config_num("cap_pkts", scale.cap_pkts as f64);
    r.config_num("wall_ms", scale.wall.as_nanos() as f64 / 1e6);
    r.config_num("budget_mb", scale.budget_bytes as f64 / 1e6);
    r.config_num("admit_cap", scale.admit_cap as f64);
    r.config_num("mark_at", scale.mark_at as f64);
    r.config_str("flow_grid", format!("{:?}", scale.flow_grid));
    r.config_str(
        "method",
        "Per cell: trace-shaped finite flows (empirical web-search / data-mining size CDFs) \
         through the threaded runtime over the Eiffel shaping qdisc (per-socket clocks + one \
         cFFS; the paper's 5.1.1 configuration at a 3.3 s horizon), ECN-marking admission, \
         hard MemBudget. The shard-side shaper splits a fixed drain capacity per admittable \
         flow while every source offers per_flow_kbps (offered_gap decouples the two), so \
         offered/capacity — the overload — grows with the flow grid. The setup budget caps the \
         established population, so the per-flow granted rate stays feedback-viable at every \
         grid point and the flow axis stresses admission churn, not per-flow starvation. The \
         baseline cell offers a sustained paced load at ~2/3 of capacity (uniform packets \
         spanning the wall) and fixes SLO = max(20 ms, 5x its p99 sojourn); SLO-goodput counts \
         only releases within the SLO. Every cell asserts exact conservation and peak memory \
         <= budget.",
    );

    let mut all_tiers = TierCounters::default();
    let mut totals = OverloadReportTotals::default();
    let mut showcase: Option<ThreadedReport> = None;
    for (di, dist) in [FlowSizeDist::WebSearch, FlowSizeDist::DataMining]
        .into_iter()
        .enumerate()
    {
        let base = overload_cell(scale, dist, scale.baseline_flows, true, true);
        // The SLO floor is an RPC-deadline-scale 20 ms: on a small host
        // the baseline's p99 is scheduler-noise-bound and swings by an
        // order of magnitude between runs, and a floor well above that
        // noise keeps the open/closed contrast about queueing, not about
        // which baseline got lucky. Open-loop bufferbloat at these
        // scales is hundreds of ms to seconds — far past any floor.
        let slo_ns = (5 * base.sojourn.quantile(0.99)).max(20_000_000);
        let base_slo = base.slo_goodput_mpps(slo_ns).max(1e-9);
        r.config_num(
            format!("{}_baseline_goodput_mpps", dist.label()),
            base.goodput_mpps,
        );
        r.config_num(format!("{}_slo_ms", dist.label()), slo_ns as f64 / 1e6);
        all_tiers.merge(&base.tiers);
        totals.absorb(&base.report);

        let mut open_slo: Vec<f64> = Vec::with_capacity(scale.flow_grid.len());
        let mut ratio_lines: Vec<String> = Vec::with_capacity(scale.flow_grid.len());
        for closed in [false, true] {
            let mut sw = Sweep::new(
                format!(
                    "{} mix, {} sources",
                    dist.label(),
                    if closed { "closed-loop" } else { "open-loop" }
                ),
                "flows",
            );
            sw.add_series("goodput", "Mpps", 3);
            sw.add_series("SLO-goodput", "Mpps", 3);
            sw.add_series("p99 sojourn", "ms", 2);
            sw.add_series("ECN-marked", "per-1k", 1);
            sw.add_series("shed", "per-1k", 1);
            sw.add_series("mem peak", "MB", 1);
            for (gi, &flows) in scale.flow_grid.iter().enumerate() {
                let cell = overload_cell(scale, dist, flows, closed, false);
                let slo_goodput = cell.slo_goodput_mpps(slo_ns);
                sw.push_row(
                    flows as f64,
                    &[
                        cell.goodput_mpps,
                        slo_goodput,
                        cell.p99_ms,
                        cell.marked_per_k,
                        cell.shed_per_k,
                        cell.mem_peak_mb,
                    ],
                );
                all_tiers.merge(&cell.tiers);
                totals.absorb(&cell.report);
                if closed {
                    ratio_lines.push(format!(
                        "{} flows: closed {:.2}x, open {:.2}x",
                        flows,
                        slo_goodput / base_slo,
                        open_slo[gi] / base_slo,
                    ));
                } else {
                    open_slo.push(slo_goodput);
                }
                if di == 0 && closed && gi + 1 == scale.flow_grid.len() {
                    showcase = Some(cell.report.clone());
                }
            }
            r.push_sweep(sw);
        }
        r.note(format!(
            "{} mix: SLO {:.2} ms, uncongested baseline ({} flows) SLO-goodput {:.3} Mpps; \
             SLO-goodput relative to that baseline: {}.",
            dist.label(),
            slo_ns as f64 / 1e6,
            scale.baseline_flows,
            base_slo,
            ratio_lines.join("; "),
        ));
    }

    if let Some(rep) = &showcase {
        r.push_table(per_shard_counters_table(
            "per-shard counters (web-search mix, closed loop, largest flow count)",
            rep,
        ));
    }
    r.push_table(tier_counters_table(&all_tiers));
    r.note(format!(
        "Conservation audited on every cell: {} packets emitted across {} runs, all accounted \
         (released {}, admission-dropped {}, evicted {}); zero unaccounted. Memory: peak {} MB \
         against a {} MB budget, {} new-flow setups refused at the refuse tier, {} emissions \
         deferred on slab exhaustion; every ledger closed at zero bytes in use.",
        totals.emitted,
        totals.cells,
        totals.transmitted,
        totals.admission_dropped,
        totals.evicted,
        format_args!("{:.1}", totals.mem_peak_bytes as f64 / 1e6),
        format_args!("{:.1}", scale.budget_bytes as f64 / 1e6),
        totals.setup_refused,
        totals.mem_deferrals,
    ));
    r.note(format!(
        "Degradation tiers exercised across the report: {} of {} (see the tier table).",
        all_tiers.tiers_exercised(),
        DegradeTier::COUNT,
    ));
    // Every overload cell runs on the threaded runtime.
    r.note(meter_note(
        "wall-clock",
        totals.meter_timed_calls,
        totals.meter_calls,
    ));
    r.note(
        "Caveats: overload cells end at the wall limit mid-stream by design (finite flows \
         cannot drain at these flow counts), so absolute Mpps depends on host CPU; the \
         closed-vs-open contrast and the memory ceiling are the claims. Single-machine runs: \
         shard threads time-slice on small hosts, inflating sojourn for both modes equally.",
    );
    r
}

/// Scale knobs of the tree-policy cost harness (`fig_tree_policy`).
#[derive(Debug, Clone)]
pub struct TreePolicyScale {
    /// Steady occupancy held by the refill loop (packets in the tree).
    pub occupancy: usize,
    /// Consumer batch sizes (`dequeue_batch` budget per poll).
    pub batches: Vec<usize>,
    /// Measurement budget per `(policy, batch)` cell.
    pub budget: Duration,
}

impl TreePolicyScale {
    /// Scale chosen from the shared `--quick` flag.
    pub fn from_args(args: &BenchArgs) -> Self {
        TreePolicyScale {
            occupancy: if args.quick { 4_000 } else { 20_000 },
            batches: vec![1, 8, 64],
            budget: Duration::from_millis(if args.quick { 40 } else { 300 }),
        }
    }

    /// Miniature for integration tests.
    pub fn tiny() -> Self {
        TreePolicyScale {
            occupancy: 600,
            batches: vec![1, 16],
            budget: Duration::from_millis(5),
        }
    }
}

/// The node programs under test: every scheduling discipline of §3.2 as a
/// policy-text program on the one `RankedQueue` substrate, plus the FIFO
/// floor that prices the tree machinery itself.
const TREE_POLICIES: &[(&str, &str, &[&str])] = &[
    ("fifo", "node root kind=fifo\n", &["root"]),
    (
        "wfq",
        "node root kind=wfq\n\
         node a parent=root kind=fifo weight=1\n\
         node b parent=root kind=fifo weight=2\n\
         node c parent=root kind=fifo weight=4\n\
         node d parent=root kind=fifo weight=8\n",
        &["a", "b", "c", "d"],
    ),
    ("lstf", "node root kind=lstf\n", &["root"]),
    (
        "hclock",
        "node root kind=flow:hclock res=2mbps lim=100mbps share=1\n",
        &["root"],
    ),
    (
        "hfsc",
        "node root kind=flow:hfsc m1=40mbps m2=10mbps burst=4500 share=2\n",
        &["root"],
    ),
];

/// Flows cycled through by the tree-policy harness.
const TREE_POLICY_FLOWS: u32 = 64;

/// One `(policy, batch)` cell: hold `occupancy` packets in the tree and
/// time a dequeue-batch + refill loop under a virtual clock driven by
/// `soonest_deadline` (shaper gates cost wakeups, never wall waiting).
/// Returns wall nanoseconds per served packet.
fn tree_policy_cell(policy: usize, batch: usize, scale: &TreePolicyScale) -> f64 {
    let (name, text, leaf_names) = TREE_POLICIES[policy];
    let mut tree = compile(text).unwrap_or_else(|e| panic!("{name}: {e}"));
    let leaves: Vec<_> = leaf_names
        .iter()
        .map(|n| tree.node_by_name(n).unwrap())
        .collect();
    let mut next_id = 0u64;
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut fill = |tree: &mut eiffel_pifo::PifoTree, n: usize, at: Nanos| {
        for _ in 0..n {
            // xorshift slack keeps LSTF/pFabric ranks inside 2^20.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let flow = (next_id % TREE_POLICY_FLOWS as u64) as u32;
            let leaf = leaves[(next_id as usize) % leaves.len()];
            let mut pkt = Packet::mtu(next_id, flow, at);
            pkt.rank = 1 + seed % ((1 << 20) - 1);
            pkt.class = flow % 4;
            next_id += 1;
            tree.enqueue(at, leaf, pkt).unwrap();
        }
    };
    fill(&mut tree, scale.occupancy, 0);

    let mut vt: Nanos = 0;
    let mut out: Vec<Packet> = Vec::with_capacity(batch);
    let mut served = 0u64;
    // Untimed warmup: fault in allocations and reach steady virtual times.
    let mut warm = scale.occupancy / 2;
    let start = Instant::now();
    let mut timed_from = Duration::ZERO;
    let mut timed_served = 0u64;
    loop {
        out.clear();
        let got = tree.dequeue_batch(vt, batch, &mut out);
        if got == 0 {
            // Nothing transmittable: hop the virtual clock to the next
            // shaper release instead of spinning.
            vt = match tree.soonest_deadline(vt) {
                Some(d) if d > vt => d,
                _ => vt + 1_000,
            };
            continue;
        }
        served += got as u64;
        fill(&mut tree, got, vt);
        if warm > 0 {
            warm = warm.saturating_sub(got);
            if warm == 0 {
                timed_from = start.elapsed();
                timed_served = served;
            }
            continue;
        }
        if start.elapsed() >= scale.budget {
            break;
        }
    }
    let secs = (start.elapsed() - timed_from).as_secs_f64();
    let pkts = served - timed_served;
    if pkts == 0 {
        return f64::NAN;
    }
    secs * 1e9 / pkts as f64
}

/// The tree-policy claim quoted by the binary banner and EXPERIMENTS.md.
const TREE_POLICY_PAPER_CLAIM: &str = "policies are \"programmed\" as per-node ranking \
     transactions over one priority-queue substrate (§3.2), so a new discipline costs a \
     ~100-line program, not a new data structure; per-packet cost stays flat across them.";

/// Builds the tree-policy cost report: one sweep of wall ns/packet over
/// consumer batch size, one series per node program.
pub fn fig_tree_policy_report(args: &BenchArgs, scale: &TreePolicyScale) -> BenchReport {
    let mut r = BenchReport::new(
        "fig_tree_policy",
        "Tree policy cost",
        "per-packet dequeue+refill cost of node programs on the programmable PIFO tree",
        args,
    );
    r.paper_claim(TREE_POLICY_PAPER_CLAIM);
    r.config_num("occupancy_pkts", scale.occupancy as f64);
    r.config_num("budget_ms_per_cell", scale.budget.as_millis() as f64);
    r.config_num("flows", TREE_POLICY_FLOWS as f64);
    let mut sw = Sweep::new(
        format!(
            "{} packets held, {} flows",
            scale.occupancy, TREE_POLICY_FLOWS
        ),
        "batch",
    );
    for (name, _, _) in TREE_POLICIES {
        sw.add_series(*name, "ns/pkt", 1);
    }
    for &batch in &scale.batches {
        let row: Vec<f64> = (0..TREE_POLICIES.len())
            .map(|p| tree_policy_cell(p, batch, scale))
            .collect();
        sw.push_row(batch, &row);
    }
    r.push_sweep(sw);
    r.note(
        "Virtual-clock drive: when every backlog sits behind a shaper gate the clock hops \
         straight to `soonest_deadline`, so rate parameters shape the service pattern without \
         adding wall idle time — the numbers price CPU work only. The fifo series is the floor \
         (tree descent + bucketed FIFO); the gap to each policy series is what that policy's \
         ranking transaction costs per packet.",
    );
    r
}

/// Sums the overload counters across every cell of the report.
#[derive(Debug, Clone, Copy, Default)]
struct OverloadReportTotals {
    cells: u64,
    emitted: u64,
    transmitted: u64,
    admission_dropped: u64,
    evicted: u64,
    setup_refused: u64,
    mem_deferrals: u64,
    mem_peak_bytes: u64,
    meter_calls: u64,
    meter_timed_calls: u64,
}

impl OverloadReportTotals {
    fn absorb(&mut self, r: &ThreadedReport) {
        self.cells += 1;
        self.emitted += r.emitted;
        self.transmitted += r.transmitted;
        self.admission_dropped += r.chaos.admission_dropped;
        self.evicted += r.chaos.evicted;
        self.setup_refused += r.setup_refused;
        self.mem_deferrals += r.mem_deferrals;
        self.mem_peak_bytes = self.mem_peak_bytes.max(r.mem_peak_bytes);
        for s in &r.per_shard {
            self.meter_calls += s.meter_calls;
            self.meter_timed_calls += s.meter_timed_calls;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_shaping_quick_orders_fq_worst() {
        let reports = kernel_shaping(&KernelShapingScale::quick());
        assert_eq!(reports.len(), 3);
        let (fq, carousel, eiffel) = (&reports[0], &reports[1], &reports[2]);
        assert_eq!(fq.name, "fq");
        assert_eq!(carousel.name, "carousel");
        assert_eq!(eiffel.name, "eiffel");
        // The headline ordering of Figure 9.
        assert!(
            eiffel.median_cores < carousel.median_cores,
            "eiffel {:.4} !< carousel {:.4}",
            eiffel.median_cores,
            carousel.median_cores
        );
        assert!(
            eiffel.median_cores < fq.median_cores,
            "eiffel {:.4} !< fq {:.4}",
            eiffel.median_cores,
            fq.median_cores
        );
    }

    #[test]
    fn hclock_cells_produce_rates() {
        for which in ["eiffel", "hclock", "tc"] {
            let mbps = hclock_max_rate(which, 64, 10_000, 1_500, 1, Duration::from_millis(60));
            assert!(mbps > 1.0, "{which}: {mbps} Mbps");
        }
    }

    #[test]
    fn pfabric_eiffel_beats_heap_at_scale() {
        let e = pfabric_max_rate(true, 3_000, Duration::from_millis(120));
        let h = pfabric_max_rate(false, 3_000, Duration::from_millis(120));
        assert!(
            e > h,
            "eiffel pfabric {e:.0} Mbps must beat heap {h:.0} Mbps at 3k flows"
        );
    }

    #[test]
    fn table1_has_six_systems() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r[0] == "Eiffel"));
    }

    /// The exact Figure 9 report path at miniature scale: the CDF panel,
    /// the threaded wall-clock panels (real OS threads), the
    /// cores-to-shape table, and a JSON round trip.
    #[test]
    fn fig9_tiny_report_shape() {
        let args = BenchArgs::from_iter(["--quick".to_string()], None);
        let r = fig9_report(&args, &Fig9Scale::tiny());
        // One CDF panel + one threaded panel per flow count (tiny skips
        // the rate ladder).
        assert_eq!(r.sweeps.len(), 3);
        assert!(r.sweeps[0].name.contains("virtual-clock CDF"));
        for sw in &r.sweeps[1..] {
            assert!(sw.name.contains("threaded wall clock"), "{}", sw.name);
            assert_eq!(sw.series.len(), 6, "achieved + cores per qdisc");
            assert_eq!(sw.param_values.len(), 2, "tiny shard sweep");
            for pair in sw.series.chunks(2) {
                assert_eq!(pair[0].unit, "Gbps");
                assert_eq!(pair[1].unit, "cores");
                assert!(
                    pair[0].values.iter().all(|&v| v > 0.0),
                    "{}: achieved rates positive",
                    pair[0].name
                );
                assert!(
                    pair[1].values.iter().all(|&v| v >= 0.0 && v.is_finite()),
                    "{}: busy cores sane",
                    pair[1].name
                );
            }
        }
        assert_eq!(r.tables.len(), 1);
        assert!(r.tables[0].name.contains("cores needed to shape"));
        assert_eq!(r.tables[0].rows.len(), 6, "3 qdiscs x 2 shard counts");
        assert!(
            r.notes.iter().any(|n| n.contains("Cores-to-shape ratios")),
            "headline ratio note present"
        );
        let text = r.to_json().to_pretty_string();
        let doc = crate::json::JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(
            doc.get("figure").unwrap().as_str(),
            Some("fig09_kernel_shaping")
        );
    }

    /// The exact Figure 10 report path at miniature scale: a virtual and
    /// a threaded system/softirq CDF panel per system, and a JSON round
    /// trip.
    #[test]
    fn fig10_tiny_report_shape() {
        let args = BenchArgs::from_iter(["--quick".to_string()], None);
        let r = fig10_report(&args, &Fig10Scale::tiny());
        assert_eq!(r.sweeps.len(), 4, "2 systems x {{virtual, threaded}}");
        for sw in &r.sweeps[..2] {
            assert!(sw.name.starts_with("virtual"), "{}", sw.name);
        }
        for sw in &r.sweeps[2..] {
            assert!(sw.name.starts_with("threaded wall clock"), "{}", sw.name);
        }
        for sw in &r.sweeps {
            let names: Vec<&str> = sw.series.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, ["system", "softirq"]);
            for s in &sw.series {
                assert_eq!(s.unit, "cores");
                assert!(
                    s.values.iter().all(|&v| v >= 0.0 && v.is_finite()),
                    "{}: cores sane",
                    s.name
                );
                // A CDF is non-decreasing.
                assert!(s.values.windows(2).all(|w| w[0] <= w[1]), "{}", sw.name);
            }
        }
        // Both systems execute real scheduler code on both harnesses:
        // some bin in every panel must have measured busy time.
        for sw in &r.sweeps {
            let total: f64 = sw.series.iter().flat_map(|s| &s.values).sum();
            assert!(total > 0.0, "{}: all-zero breakdown", sw.name);
        }
        let text = r.to_json().to_pretty_string();
        let doc = crate::json::JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(
            doc.get("figure").unwrap().as_str(),
            Some("fig10_cpu_breakdown")
        );
    }

    /// The exact Figure 16 report path at miniature scale: panel/series
    /// shape, positive rates, hit-rate bounds, and a JSON round trip.
    #[test]
    fn fig16_tiny_report_shape() {
        let args = BenchArgs::from_iter(["--quick".to_string()], None);
        let r = fig16_report(&args, &Fig16Scale::tiny());
        assert_eq!(r.sweeps.len(), 3, "plain + batched + quality panels");
        let plain = &r.sweeps[0];
        assert_eq!(plain.param_values.len(), 2, "tiny ppb sweep");
        let names: Vec<&str> = plain.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "Approx",
                "cFFS",
                "BH",
                "SP-PIFO",
                "RIFO",
                "Approx est. hit rate"
            ]
        );
        for s in &plain.series[..5] {
            assert!(s.values.iter().all(|&v| v > 0.0), "positive Mpps");
        }
        let hits = &plain.series[5];
        assert!(hits.values.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let batched = &r.sweeps[1];
        assert!(batched.name.contains("dequeue_batch"));
        assert_eq!(batched.series.len(), 5);
        // The quality panel: exact backends score zero on both metrics,
        // the adaptive ones pay a real, finite error.
        let quality = &r.sweeps[2];
        assert!(quality.name.contains("drain quality"), "{}", quality.name);
        assert_eq!(quality.series.len(), 10, "5 rank-err + 5 inv/pop");
        for s in &quality.series {
            let exact = s.name.starts_with("cFFS") || s.name.starts_with("BH");
            for &v in &s.values {
                assert!(v.is_finite() && v >= 0.0, "{}: {v}", s.name);
                if exact {
                    assert_eq!(v, 0.0, "exact backend {} must score zero", s.name);
                }
                if s.name.ends_with("inv/pop") {
                    assert!(v <= 1.0, "{}: {v} is a fraction", s.name);
                }
            }
        }
        let text = r.to_json().to_pretty_string();
        let doc = crate::json::JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(
            doc.get("figure").unwrap().as_str(),
            Some("fig16_packets_per_bucket")
        );
    }

    /// The exact Figure 17 report path at miniature scale.
    #[test]
    fn fig17_tiny_report_shape() {
        let args = BenchArgs::from_iter(["--quick".to_string()], None);
        let r = fig17_report(&args, &Fig17Scale::tiny());
        assert_eq!(r.sweeps.len(), 2, "1 nb × 2 patterns");
        assert!(r.sweeps[0].name.contains("sparse"));
        assert!(r.sweeps[1].name.contains("dense"));
        for sw in &r.sweeps {
            let names: Vec<&str> = sw.series.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "Approx",
                    "cFFS",
                    "BH",
                    "SP-PIFO",
                    "RIFO",
                    "Approx est. hit rate"
                ]
            );
            assert_eq!(sw.param_values.len(), 2, "tiny occupancy sweep");
            for s in &sw.series[..5] {
                assert!(s.values.iter().all(|&v| v > 0.0), "positive Mpps");
            }
        }
        // Dense prefix occupancy is the estimator's exact case: its hit
        // rate must dominate the sparse fill's at every occupancy.
        let sparse_hits = &r.sweeps[0].series[5].values;
        let dense_hits = &r.sweeps[1].series[5].values;
        for (d, s) in dense_hits.iter().zip(sparse_hits) {
            assert!(d >= s, "dense hit rate {d} < sparse {s}");
        }
        let text = r.to_json().to_pretty_string();
        let doc = crate::json::JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(doc.get("figure").unwrap().as_str(), Some("fig17_occupancy"));
    }

    /// The exact Figure 18 report path at miniature scale: the estimator
    /// error panel plus one five-way quality panel per bucket count.
    #[test]
    fn fig18_tiny_report_shape() {
        let args = BenchArgs::from_iter(["--quick".to_string()], None);
        let r = fig18_report(&args, &Fig18Scale::tiny());
        assert_eq!(r.sweeps.len(), 2, "estimator panel + one quality panel");
        let est = &r.sweeps[0];
        assert_eq!(est.series.len(), 1, "one bucket count in tiny");
        assert_eq!(est.series[0].name, "512 buckets");
        assert_eq!(est.param_values.len(), 2, "tiny occupancy sweep");
        for &v in &est.series[0].values {
            assert!(v.is_finite() && v >= 0.0, "estimator error {v}");
        }
        let quality = &r.sweeps[1];
        assert!(quality.name.contains("sparse drain quality"));
        assert_eq!(quality.series.len(), 10, "5 rank-err + 5 inv/pop");
        for s in &quality.series {
            if s.name.starts_with("cFFS") || s.name.starts_with("BH") {
                assert!(s.values.iter().all(|&v| v == 0.0), "{} exact", s.name);
            }
        }
        // SP-PIFO with a handful of queues must err on a sparse 512-bucket
        // fill — if this reads 0.0 the audit is not hooked up.
        let sp_err = quality
            .series
            .iter()
            .find(|s| s.name == "SP-PIFO rank err")
            .unwrap();
        assert!(
            sp_err.values.iter().any(|&v| v > 0.0),
            "{:?}",
            sp_err.values
        );
        let text = r.to_json().to_pretty_string();
        let doc = crate::json::JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(
            doc.get("figure").unwrap().as_str(),
            Some("fig18_approx_error")
        );
    }

    /// The exact tree-policy report path at miniature scale: every node
    /// program prices out as a finite positive per-packet cost.
    #[test]
    fn fig_tree_policy_tiny_report_shape() {
        let args = BenchArgs::from_iter(["--quick".to_string()], None);
        let r = fig_tree_policy_report(&args, &TreePolicyScale::tiny());
        assert_eq!(r.sweeps.len(), 1, "one batch sweep");
        let sw = &r.sweeps[0];
        let names: Vec<&str> = sw.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["fifo", "wfq", "lstf", "hclock", "hfsc"]);
        assert_eq!(sw.param_values.len(), 2, "tiny batch sweep");
        for s in &sw.series {
            assert!(
                s.values.iter().all(|&v| v.is_finite() && v > 0.0),
                "{}: {:?}",
                s.name,
                s.values
            );
        }
        let text = r.to_json().to_pretty_string();
        let doc = crate::json::JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(doc.get("figure").unwrap().as_str(), Some("fig_tree_policy"));
    }

    /// The exact Figure 15 report path at miniature scale: panel/series
    /// shape, positive rates, and a JSON round trip.
    #[test]
    fn fig15_tiny_report_shape() {
        let args = BenchArgs::from_iter(["--quick".to_string()], None);
        let r = fig15_report(&args, &Fig15Scale::tiny());
        assert_eq!(r.sweeps.len(), 2, "one panel per (shards, batch) shape");
        assert!(r.sweeps[0].name.contains("1 shard(s), dequeue batch 1"));
        assert!(r.sweeps[1].name.contains("2 shard(s), dequeue batch 8"));
        for sw in &r.sweeps {
            let names: Vec<&str> = sw.series.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, ["pFabric-Eiffel", "pFabric-BinaryHeap"]);
            assert_eq!(sw.param_values.len(), 2, "tiny flow sweep");
            for s in &sw.series {
                assert!(s.values.iter().all(|&v| v > 0.0), "positive Mbps");
            }
        }
        let text = r.to_json().to_pretty_string();
        let doc = crate::json::JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(
            doc.get("figure").unwrap().as_str(),
            Some("fig15_pfabric_scaling")
        );
    }

    /// The sharded cell helper at `(1, 1)` runs the same workload the
    /// classic single-instance cell does (the shared `pfabric_workload`
    /// helper guarantees identical stamper and occupancy) and produces a
    /// usable reading. No wall-clock ratio is asserted: `cargo test` runs
    /// suites concurrently and rate cells wobble far too much under load
    /// for that to be meaningful (see EXPERIMENTS.md).
    #[test]
    fn fig15_sharded_cell_matches_classic_cell_shape() {
        let dur = Duration::from_millis(40);
        let classic = pfabric_max_rate(true, 500, dur);
        let sharded = pfabric_max_rate_sharded(true, 500, 1, 1, dur);
        assert!(classic > 0.0 && classic.is_finite());
        assert!(sharded > 0.0 && sharded.is_finite());
    }

    /// The exact Figure 19 report path at miniature scale: panel/series
    /// shape, the event-loop counters, the backend-comparison assertion,
    /// and a JSON round trip.
    #[test]
    fn fig19_tiny_report_shape() {
        let args = BenchArgs::from_iter(["--quick".to_string()], None);
        let r = fig19_report(&args, &Fig19Scale::tiny());
        assert_eq!(r.sweeps.len(), 5, "3 NFCT panels + throughput + backends");
        for sweep in &r.sweeps[..3] {
            assert_eq!(sweep.series.len(), 3, "DCTCP, pFabric, pFabric-Approx");
            assert_eq!(sweep.param_values.len(), 2, "tiny load sweep");
        }
        let throughput = &r.sweeps[3];
        for s in &throughput.series {
            assert_eq!(s.unit, "Mev/s");
            assert!(s.values.iter().all(|&v| v > 0.0), "positive event rates");
        }
        let backends = &r.sweeps[4];
        assert_eq!(backends.param_values.len(), 2, "heap and wheel rows");
        let text = r.to_json().to_pretty_string();
        let doc = crate::json::JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(
            doc.get("figure").unwrap().as_str(),
            Some("fig19_pfabric_fct")
        );
        assert_eq!(doc.get("sweeps").unwrap().as_array().unwrap().len(), 5);
    }

    /// The exact `fig_chaos` report path at miniature scale: one panel per
    /// fault family, three series per backend, conservation asserted inside
    /// every cell (the cell panics otherwise), and a JSON round trip.
    #[test]
    fn fig_chaos_tiny_report_shape() {
        let args = BenchArgs::from_iter(["--quick".to_string()], None);
        let r = fig_chaos_report(&args, &ChaosScale::tiny());
        assert_eq!(
            r.sweeps.len(),
            CHAOS_FAMILIES.len(),
            "one panel per fault family"
        );
        for (sw, family) in r.sweeps.iter().zip(CHAOS_FAMILIES) {
            assert!(sw.name.contains(family.label()));
            assert_eq!(
                sw.series.len(),
                CHAOS_BACKENDS.len() * 3,
                "Mpps/sojourn/shed per backend"
            );
            assert_eq!(sw.param_values.len(), 2, "tiny intensity grid");
            for chunk in sw.series.chunks(3) {
                assert!(
                    chunk[0].values.iter().all(|&v| v > 0.0),
                    "positive throughput"
                );
                assert!(chunk[1].values.iter().all(|&v| v >= 0.0), "sane sojourn");
            }
        }
        assert_eq!(
            r.tables.len(),
            2,
            "per-shard counters + adversarial quality"
        );
        assert!(r.tables[0].name.contains("per-shard counters"));
        assert_eq!(r.tables[0].rows.len(), 2, "one row per shard thread");
        assert_eq!(r.tables[1].rows.len(), CHAOS_BACKENDS.len());
        let text = r.to_json().to_pretty_string();
        let doc = crate::json::JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(
            doc.get("figure").unwrap().as_str(),
            Some("fig_chaos_degradation")
        );
    }

    /// The exact `fig_overload` report path at miniature scale: one sweep
    /// per (size mix × source mode), six series each, conservation and the
    /// memory ceiling asserted inside every cell (the cell panics
    /// otherwise), per-shard and tier tables, and a JSON round trip.
    #[test]
    fn fig_overload_tiny_report_shape() {
        let args = BenchArgs::from_iter(["--quick".to_string()], None);
        let scale = OverloadScale::tiny();
        let r = fig_overload_report(&args, &scale);
        assert_eq!(r.sweeps.len(), 4, "2 mixes x {{open, closed}}");
        for sw in &r.sweeps {
            assert_eq!(sw.series.len(), 6, "goodput/SLO/p99/marks/shed/mem");
            assert_eq!(sw.param_values.len(), scale.flow_grid.len());
            assert!(
                sw.series[0].values.iter().all(|&v| v > 0.0),
                "{}: positive goodput",
                sw.name
            );
            assert!(
                sw.series[5].values.iter().all(|&v| v > 0.0),
                "{}: memory was charged",
                sw.name
            );
        }
        assert_eq!(r.tables.len(), 2, "per-shard counters + tier table");
        assert!(r.tables[0].name.contains("per-shard counters"));
        assert_eq!(r.tables[0].rows.len(), scale.shards);
        assert!(r.tables[1].name.contains("memory-pressure tier"));
        assert_eq!(r.tables[1].rows.len(), DegradeTier::COUNT);
        // The tiny budget (384 flows x 512 B of setups alone crosses 95%
        // of 128 KiB) must walk the loop through real degradation.
        assert!(
            r.notes.iter().any(|n| n.contains("zero unaccounted")),
            "conservation note present"
        );
        let text = r.to_json().to_pretty_string();
        let doc = crate::json::JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(
            doc.get("figure").unwrap().as_str(),
            Some("fig_overload_closed_loop")
        );
        assert_eq!(doc.get("sweeps").unwrap().as_array().unwrap().len(), 4);
    }

    /// Regression pin (robustness PR satellite): under the SP-PIFO ramp
    /// attack — exactly the shape the `fig_chaos` quality table records —
    /// the exact backends stay exact while SP-PIFO's unavoidable
    /// inversions stay inside an empirically measured envelope (~2×
    /// margin over the deterministic measurement).
    #[test]
    fn adversarial_rank_quality_envelope() {
        let adv = RankPattern::SpPifoAdversarial {
            max: 4_000,
            period: 64,
        };
        for kind in [QueueKind::Cffs, QueueKind::BucketHeap] {
            let rep = adversarial_quality(kind, adv, 32, 2_048, 4);
            assert_eq!(rep.pops, 4 * 2_048);
            assert_eq!(rep.inversions, 0, "{kind:?} must drain in exact rank order");
            assert_eq!(
                rep.rank_error_sum, 0,
                "{kind:?} must drain at the true minimum"
            );
        }
        let sp = adversarial_quality(QueueKind::SpPifo { queues: 32 }, adv, 32, 2_048, 4);
        assert_eq!(sp.pops, 4 * 2_048);
        assert!(sp.inversions > 0, "the ramp attack must land on SP-PIFO");
        // The script is fully deterministic; today it measures 0.9385
        // inversions per pop and 1876 mean rank error. Pinned just above
        // so a mapping regression (worse adaptation) fails loudly while
        // an improvement sails through.
        let inv_per_pop = sp.inversions as f64 / sp.pops as f64;
        assert!(
            inv_per_pop < 0.95,
            "SP-PIFO inversion rate {inv_per_pop:.4} escaped its pinned envelope"
        );
        assert!(
            sp.rank_error_sum / sp.pops < 2_000,
            "SP-PIFO mean rank error escaped its pinned envelope"
        );
        assert!(
            sp.max_inversion <= 4_000,
            "no inversion can exceed the rank range"
        );
    }
}
