//! # eiffel-bess — the busy-polling software-switch use cases
//!
//! The paper's userspace evaluation (§5.1.2, §5.1.3) runs inside BESS: a
//! single core busy-polls scheduler modules and the metric is the maximum
//! sustainable rate. This crate rebuilds those experiments:
//!
//! * [`hclock`] — hierarchical QoS (reservations/limits/shares): the
//!   min-heap baseline and the paper's Figure 11 Eiffel implementation;
//! * [`pfabric`] — least-remaining-first flow scheduling: the binary-heap
//!   baseline (O(n) re-heapify per rank change) and Eiffel's per-flow
//!   transaction over a hierarchical FFS queue;
//! * [`tc`] — BESS's module-per-flow traffic control, the second baseline
//!   of Figure 12;
//! * [`pktgen`] — the round-robin generator/annotator, with per-flow
//!   batching for Figure 13;
//! * [`harness`] — the one-core busy-poll rate measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod hclock;
pub mod pfabric;
pub mod pktgen;
pub mod tc;

pub use harness::{
    measure_rate, measure_rate_batched, measure_rate_sharded, BessScheduler, RateReport,
    ShardedRateReport, BATCH, WARMUP_FRACTION,
};
pub use hclock::{FlowSpec, HClockEiffel, HClockHeap};
pub use pfabric::{PfabricEiffel, PfabricHeap};
pub use pktgen::RoundRobinGen;
pub use tc::BessTc;
