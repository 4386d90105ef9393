//! Compile-time pins of the public items the ledger (`benchmark/`) uses.
//!
//! The ledger is a package of its own, outside this workspace, so
//! `cargo test` never builds it: a refactor that renamed or re-typed an item
//! it calls would pass every tier-1 test and break only the benchmark run.
//! This file names each item listed under "Public items the benchmark pins"
//! in `benchmark/README.md` with its full signature — functions and methods
//! by coercion to a function pointer, types by use — so such a change fails
//! to compile here first. The one runtime test only keeps the pins from
//! being dead code.

use std::time::Duration;

use eiffel_chaos::{Admission, AdmitPolicy};
use eiffel_core::{
    count_inversions, DegradeTier, EnqueueError, HierBitmap, MemBudget, QueueConfig, QueueKind,
    QueueStats, RankedQueue, SpscConsumer, SpscProducer, SpscRing, FLOW_SETUP_BYTES,
};
use eiffel_pifo::{lang, NodeId, ParseError, PifoTree, TreeError};
use eiffel_qdisc::{
    run_sharded, run_sharded_traced, run_threaded, run_threaded_traced, EiffelQdisc, HostConfig,
    RankedShaperQdisc, ShaperQdisc, ShardTrace, ShardedConfig, ShardedReport, SojournHist,
    ThreadedConfig, ThreadedReport, ThreadedTrace,
};
use eiffel_sim::cpu::{IRQ_ENTRY_NS, LOCK_NS, PER_PACKET_STACK_NS};
use eiffel_sim::{CpuCategory, CpuMeter, FlowId, Nanos, Packet, Rate, SplitMix64, WallNanos};
use eiffel_workloads::{trace_shaped_pkts, ClosedLoopParams, FlowSizeDist, RankPattern};

type Mk<Q> = fn(usize) -> Q;
type Probe = fn() -> u64;

fn core_pins() {
    let _: fn(QueueKind, QueueConfig) -> Box<dyn RankedQueue<Packet>> = QueueKind::build;
    let _: fn(usize, u64, u64) -> QueueConfig = QueueConfig::new;
    type Dq = dyn RankedQueue<Packet>;
    let _: fn(&mut Dq, u64, Packet) -> Result<(), EnqueueError<Packet>> = Dq::enqueue;
    let _: fn(&mut Dq) -> Option<(u64, Packet)> = Dq::dequeue_min;
    let _: fn(&mut Dq, usize, &mut Vec<(u64, Packet)>) -> usize = Dq::dequeue_batch;
    let _: fn(&Dq) -> usize = Dq::len;
    let _: fn(&Dq) -> QueueStats = Dq::stats;
    let _: fn(usize) -> HierBitmap = HierBitmap::new;
    let _: fn(&mut HierBitmap, usize) = HierBitmap::set;
    let _: fn(&mut HierBitmap, usize) = HierBitmap::clear;
    let _: fn(&HierBitmap) -> Option<usize> = HierBitmap::first_set;
    let _: fn(&HierBitmap) -> usize = HierBitmap::count_ones;
    let _: fn(usize) -> (SpscProducer<Packet>, SpscConsumer<Packet>) = SpscRing::new;
    let _: fn(&mut SpscProducer<Packet>, Packet) -> Result<(), Packet> = SpscProducer::push;
    let _: fn(&mut SpscConsumer<Packet>, usize, &mut Vec<Packet>) -> usize =
        SpscConsumer::pop_batch;
    let _: fn(u64, u64, u64, u64) -> MemBudget = MemBudget::with_thresholds;
    let _: fn(&MemBudget) -> u64 = MemBudget::in_use;
    let _: fn(&MemBudget) -> u64 = MemBudget::budget;
    let _: fn(usize) -> DegradeTier = DegradeTier::from_index;
    let _: u64 = FLOW_SETUP_BYTES;
    let _: fn(&[u64]) -> (u64, u64) = count_inversions;
}

fn qdisc_pins() {
    let _: fn(usize, Nanos) -> EiffelQdisc = EiffelQdisc::new;
    let _: fn(QueueKind, QueueConfig, RankPattern) -> RankedShaperQdisc = RankedShaperQdisc::new;
    let _: fn(&mut EiffelQdisc, Nanos, Packet, u64) = <EiffelQdisc as ShaperQdisc>::enqueue;
    let _: fn(&mut EiffelQdisc, Nanos, usize, &mut Vec<Packet>) -> usize =
        <EiffelQdisc as ShaperQdisc>::dequeue_batch;
    let _: fn(&EiffelQdisc, Nanos) -> Option<Nanos> = <EiffelQdisc as ShaperQdisc>::next_deadline;
    let _: fn(&EiffelQdisc) -> usize = <EiffelQdisc as ShaperQdisc>::len;
    let _: fn(&mut RankedShaperQdisc, Nanos, Packet, u64) =
        <RankedShaperQdisc as ShaperQdisc>::enqueue;
    let _: fn(Mk<EiffelQdisc>, &ThreadedConfig) -> ThreadedReport = run_threaded;
    let _: fn(Mk<EiffelQdisc>, &ThreadedConfig) -> (ThreadedReport, ThreadedTrace) =
        run_threaded_traced;
    let _: fn(Mk<RankedShaperQdisc>, &ThreadedConfig) -> ThreadedReport = run_threaded;
    let _: fn(usize, HostConfig, WallNanos) -> ThreadedConfig = ThreadedConfig::timed;
    let _: fn(Mk<EiffelQdisc>, &ShardedConfig) -> ShardedReport = run_sharded;
    let _: fn(Mk<EiffelQdisc>, &ShardedConfig) -> (ShardedReport, ShardTrace) = run_sharded_traced;
    let _: fn(usize, HostConfig) -> ShardedConfig = ShardedConfig::new;
    let _: fn(&SojournHist, f64) -> u64 = SojournHist::quantile;
}

/// The host is built field by field, so every field is named here.
fn host_config() -> HostConfig {
    HostConfig {
        flows: 1,
        aggregate: Rate::mbps(1),
        duration: 1,
        bin: 1,
        tsq_budget: 1,
        batch: 1,
    }
}

/// The report fields the ledger reads, with their types.
fn report_fields(s: &ShardedReport, t: &ThreadedReport) {
    let _: [u64; 10] = [
        s.emitted,
        s.transmitted,
        s.ecn_marked,
        s.admission_dropped,
        s.evicted,
        s.dropped,
        s.setup_refused,
        s.timer_fires,
        s.residue,
        s.mem_peak,
    ];
    let _: (usize, f64) = (s.peak_backlog, s.total_median_cores);
    let _: (u64, u64, u64, WallNanos) = (
        t.transmitted,
        t.dropped,
        t.ring_full_retries,
        t.wall_elapsed,
    );
    let _: &SojournHist = &t.per_shard[0].sojourn;
}

fn pifo_pins() {
    let _: fn(&str) -> Result<PifoTree, ParseError> = lang::compile;
    let _: fn(&PifoTree, &str) -> Result<NodeId, TreeError> = PifoTree::node_by_name;
    let _: fn(&mut PifoTree, Nanos, NodeId, Packet) -> Result<(), TreeError> = PifoTree::enqueue;
    let _: fn(&mut PifoTree, Nanos, usize, &mut Vec<Packet>) -> usize = PifoTree::dequeue_batch;
    let _: fn(&PifoTree, Nanos) -> Option<Nanos> = PifoTree::soonest_deadline;
    let _: fn(&PifoTree) -> usize = PifoTree::len;
}

fn chaos_workloads_sim_pins() {
    let _: fn(&AdmitPolicy, usize, DegradeTier) -> Admission = AdmitPolicy::decide_tiered;
    let _: fn(&AdmitPolicy) -> Option<usize> = AdmitPolicy::cap;
    let _: ClosedLoopParams = ClosedLoopParams::default();
    let _: fn(usize, FlowSizeDist, u64, u64) -> Vec<u64> = trace_shaped_pkts;
    let _: FlowSizeDist = FlowSizeDist::WebSearch;
    let _: fn(u64, FlowId, Nanos) -> Packet = Packet::mtu;
    let _: fn(u64) -> Rate = Rate::bps;
    let _: fn(u64) -> SplitMix64 = SplitMix64::new;
    let _: fn(Duration) -> WallNanos = WallNanos::from_duration;
    let _: fn(Nanos, Nanos) -> CpuMeter = CpuMeter::new;
    let _: fn(&mut CpuMeter, Nanos, CpuCategory, Probe) -> u64 = CpuMeter::measure;
    let _: fn(&CpuMeter) -> WallNanos = CpuMeter::probe_overhead;
    let _: fn(&CpuMeter) -> f64 = CpuMeter::median_cores;
    let _: [WallNanos; 3] = [IRQ_ENTRY_NS, LOCK_NS, PER_PACKET_STACK_NS];
    let _: [CpuCategory; 2] = [CpuCategory::System, CpuCategory::SoftIrq];
}

#[test]
fn ledger_pins_compile() {
    core_pins();
    qdisc_pins();
    pifo_pins();
    chaos_workloads_sim_pins();
    assert_eq!(host_config().flows, 1);
    let _: fn(&ShardedReport, &ThreadedReport) = report_fields;
}
