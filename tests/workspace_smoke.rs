//! Workspace smoke test: every member crate's public entry points must be
//! reachable through the `eiffel-repro` facade re-exports. The `use`
//! statements are the test — if a crate drops or renames a public item,
//! or the facade loses a re-export, this file stops compiling.

#[allow(unused_imports)]
mod facade_reachability {
    pub use eiffel_repro::bess::{
        measure_rate, BessScheduler, BessTc, FlowSpec, HClockEiffel, HClockHeap, PfabricEiffel,
        PfabricHeap, RateReport, RoundRobinGen, BATCH,
    };
    pub use eiffel_repro::core::{
        recommend, ApproxGradientQueue, ApproxParams, BucketHeapQueue, CffsQueue, Circular,
        CircularApproxQueue, EnqueueError, EnqueueErrorKind, FfsQueue, HeapPq, HierBitmap,
        HierFfsQueue, QueueConfig, QueueKind, QueueStats, RankedQueue, Recommendation, TimingWheel,
        TreePq, UseCase,
    };
    pub use eiffel_repro::dcsim::{
        run as dcsim_run, FctRecord, Frame, PfabricVariant, PortQueue, SimConfig, SimCounters,
        SimResult, Summary, System, Topology, Verdict,
    };
    pub use eiffel_repro::pifo::{
        compile, Annotator, EiffelScheduler, FlowPolicy, FlowScheduler, FlowState, NodeId,
        ParseError, PifoTree, RankCtx, Shaper, TokenStamper, Transaction, TreeBuilder, TreeError,
    };
    pub use eiffel_repro::qdisc::{
        run as qdisc_run, CarouselQdisc, EiffelQdisc, FqQdisc, HostConfig, HostReport, ShaperQdisc,
        TimerStyle,
    };
    pub use eiffel_repro::sim::{
        CpuCategory, CpuMeter, EventQueue, FlowId, Nanos, Packet, Rate, SplitMix64, MICROSECOND,
        MILLISECOND, SECOND,
    };
    pub use eiffel_repro::workloads::{
        EmpiricalCdf, FlowSizeDist, PoissonArrivals, PACKET_PAYLOAD_BYTES,
    };
}

// The experiment harness crate is not a facade re-export (it is a
// dev-dependency of the facade), but its entry points are part of the
// workspace surface the docs advertise.
#[allow(unused_imports)]
mod bench_reachability {
    pub use eiffel_bench::microbench::{drain_rate_packets_per_bucket, QueueUnderTest};
    pub use eiffel_bench::report::{banner, cdf, table};
    pub use eiffel_bench::{quick_mode, runners};
}

/// One end-to-end touch through the facade paths: a cFFS queue built and
/// drained via `eiffel_repro::core`, ranks stamped via `eiffel_repro::sim`.
#[test]
fn facade_paths_are_usable() {
    use eiffel_repro::core::{CffsQueue, RankedQueue};
    use eiffel_repro::sim::MICROSECOND;

    let mut q: CffsQueue<u32> = CffsQueue::new(64, MICROSECOND, 0);
    q.enqueue(3 * MICROSECOND, 30).unwrap();
    q.enqueue(MICROSECOND, 10).unwrap();
    assert_eq!(q.len(), 2);
    assert_eq!(q.dequeue_min(), Some((MICROSECOND, 10)));
    assert_eq!(q.dequeue_min(), Some((3 * MICROSECOND, 30)));
    assert!(q.is_empty());
}
