//! Pin of the virtual-clock driver's event order.
//!
//! `sharded::drive` fires events in `(time, class, insertion seq)` order —
//! resumes, then timers, then sources at one instant — and every exact
//! count the overload figures report depends on that order. This test runs
//! a small `overload_100k`-shaped configuration (finite trace-shaped flows,
//! ECN-marking admission, a memory budget with its tier ladder, closed-loop
//! sources, batch 16) and compares the seven overload counts plus an FNV-1a
//! digest of the release and drop sequences against constants recorded
//! before the driver's event queue was replaced. A scheduler that reorders
//! a single tie moves the digest.
//!
//! It runs three times: on a clean plan; under stalls (which exercise
//! `Resume` events and pended timers at the same instant as sources) plus
//! timer jitter and a squeezed ingress ring; and under the same faults with
//! open-loop sources. Closed-loop sources are paced, so a completion's
//! wake-up rarely emits at the instant it fires; open-loop ones emit right
//! there and arm their shard's timer at that same instant, so the
//! timers-before-sources tie-break decides which softirq drains which
//! packet on almost every release. (Bulk senders against the 40-packet
//! admission cap also turn most arrivals into drops re-offered at the same
//! instant — more ties.)

use std::sync::Arc;

use eiffel_chaos::{AdmitPolicy, FaultPlan};
use eiffel_core::{MemBudget, FLOW_SETUP_BYTES};
use eiffel_qdisc::{run_sharded_traced, EiffelQdisc, HostConfig, ShardTrace, ShardedConfig};
use eiffel_sim::{Nanos, Rate, MILLISECOND, SECOND};
use eiffel_workloads::{trace_shaped_pkts, ClosedLoopParams, FlowSizeDist};

const FLOWS: usize = 2_000;
const SEED: u64 = 25;
const DURATION: Nanos = 4 * SECOND;

/// `overload_100k` at 1/50 scale: 300 kb/s offered per flow, a 120 Mb/s
/// shaped drain provisioned over the flows the budget can establish, the
/// admission thresholds scaled alike, two shards. Open loop, the flows are
/// bulk senders and each is shaped at 1 Gb/s, so a packet's wire time
/// (12 µs) falls inside the qdisc's 100 µs bucket: a flow woken by a
/// completion emits a packet that is due at once.
fn config(plan: FaultPlan, closed_loop: bool) -> ShardedConfig {
    let budget_bytes = 64 * 1024 * 1024 / 50;
    let admittable = budget_bytes * 70 / 100 / FLOW_SETUP_BYTES;
    let capacity = 6_000_000_000 / 50;
    let aggregate = if closed_loop {
        capacity * FLOWS as u64 / admittable.min(FLOWS as u64)
    } else {
        1_000_000_000 * FLOWS as u64
    };
    let host = HostConfig {
        flows: FLOWS,
        aggregate: Rate::bps(aggregate),
        duration: DURATION,
        bin: SECOND / 20,
        tsq_budget: 4,
        batch: 16,
    };
    let mut cfg = ShardedConfig::new(2, host);
    cfg.pkts_override = Some(trace_shaped_pkts(FLOWS, FlowSizeDist::WebSearch, 512, SEED));
    cfg.offered_gap = Some(1_500 * 8 * SECOND / 300_000);
    cfg.chaos.admit = AdmitPolicy::EcnMark {
        cap: 40,
        mark_at: 5,
    };
    cfg.chaos.plan = plan;
    cfg.closed_loop = closed_loop.then_some(ClosedLoopParams {
        initial_scale: 192,
        additive: 16,
        slow_start: false,
        ..ClosedLoopParams::default()
    });
    cfg.mem = Some(Arc::new(MemBudget::with_thresholds(
        budget_bytes,
        40,
        55,
        70,
    )));
    cfg
}

/// Stalls on both shards (one long enough to fill a squeezed ring), timer
/// jitter on shard 1.
fn faulty_plan() -> FaultPlan {
    FaultPlan::new(SEED)
        .stall(0, 300 * MILLISECOND, 450 * MILLISECOND)
        .ring_squeeze(0, 250 * MILLISECOND, 500 * MILLISECOND, 64)
        .stall(1, 600 * MILLISECOND, 620 * MILLISECOND)
        .timer_jitter(1, 200 * MILLISECOND, 900 * MILLISECOND, 50_000)
}

/// FNV-1a, 64-bit, over little-endian words.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(trace: &ShardTrace) -> u64 {
    let releases = trace
        .releases
        .iter()
        .flat_map(|&(t, f, b)| [t, u64::from(f), u64::from(b)]);
    let drops = trace
        .drops
        .iter()
        .flat_map(|&(t, f, s)| [t, u64::from(f), s]);
    fnv1a(releases.chain([u64::MAX]).chain(drops))
}

/// The seven overload counts, the digest, and the release/drop lengths.
fn observe(plan: FaultPlan, closed_loop: bool) -> ([u64; 7], u64, usize, usize) {
    let cfg = config(plan, closed_loop);
    let (r, trace) = run_sharded_traced(|_| EiffelQdisc::new(1 << 15, 100_000), &cfg);
    assert_eq!(
        r.emitted,
        r.transmitted + r.admission_dropped + r.evicted + r.residue,
        "conservation"
    );
    let counts = [
        r.emitted,
        r.transmitted,
        r.ecn_marked,
        r.admission_dropped + r.evicted + r.dropped,
        r.setup_refused,
        r.timer_fires,
        r.peak_backlog as u64,
    ];
    (
        counts,
        digest(&trace),
        trace.releases.len(),
        trace.drops.len(),
    )
}

#[test]
fn clean_run_keeps_its_event_order() {
    let got = observe(FaultPlan::new(SEED), true);
    println!("clean: {got:?}");
    assert_eq!(got, CLEAN);
}

#[test]
fn faulty_run_keeps_its_event_order() {
    let got = observe(faulty_plan(), true);
    println!("faulty: {got:?}");
    assert_eq!(got, FAULTY);
}

#[test]
fn open_loop_faulty_run_keeps_its_event_order() {
    let got = observe(faulty_plan(), false);
    println!("open loop: {got:?}");
    assert_eq!(got, OPEN_LOOP);
}

/// `(emitted, delivered, marked, dropped, setup_refused, timer_fires,
/// peak_backlog)`, digest, releases, drops — recorded on the binary-heap
/// driver.
const CLEAN: ([u64; 7], u64, usize, usize) = (
    [33_375, 33_358, 3_883, 0, 144, 33_228, 20],
    5_703_657_917_987_116_063,
    33_358,
    0,
);
const FAULTY: ([u64; 7], u64, usize, usize) = (
    [32_440, 32_292, 3_854, 141, 223, 31_699, 31],
    16_447_566_335_887_961_625,
    32_292,
    0,
);
const OPEN_LOOP: ([u64; 7], u64, usize, usize) = (
    [426_280, 6_412, 2_558, 419_868, 0, 3_525, 80],
    12_999_171_038_235_928_643,
    6_412,
    0,
);
