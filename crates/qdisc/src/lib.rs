//! # eiffel-qdisc — the kernel shaping use case (paper §5.1.1)
//!
//! Three shaping queuing disciplines under one host model:
//!
//! * [`FqQdisc`] — the FQ/pacing baseline (balanced-tree flow table,
//!   balanced-tree delayed set, flow garbage collection);
//! * [`CarouselQdisc`] — the Carousel baseline (per-socket timestamps into
//!   a Timing Wheel, timer fires every slot);
//! * [`EiffelQdisc`] — per-socket timestamps into a cFFS, timer armed
//!   exactly at `SoonestDeadline()` (20k buckets / 2 s horizon in the
//!   paper's configuration).
//!
//! [`host::run`] drives any of them with the 20k-flow neper-like workload
//! and meters real data-structure CPU into virtual-time bins — the
//! regeneration path for Figures 9 and 10.
//!
//! Behind it is one pipeline under two clocks: a shared flow-source model
//! (`source.rs`: TSQ budgets, memory charges, closed-loop pacing), one
//! per-core stage body, one [`RunConfig`], and a driver per clock.
//! [`sharded::run_sharded`] runs N simulated cores under one virtual clock
//! (stable flow→shard hashing, batched softirq drains, merged
//! [`sharded::ShardedReport`]); [`threaded::run_threaded`] runs the same
//! shards as real OS threads fed over lock-free SPSC rings on the wall
//! clock — the measurement path for Figure 9's cores-to-shape comparison.
//! DESIGN.md §4 has the table of what each driver owns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod carousel;
pub mod eiffel;
pub mod fq;
pub mod host;
pub mod qdisc;
pub mod ranked;
pub mod sharded;
mod sock;
mod source;
pub mod threaded;

pub use carousel::CarouselQdisc;
pub use eiffel::EiffelQdisc;
pub use fq::FqQdisc;
pub use host::{run, HostConfig, HostReport, RunConfig};
pub use qdisc::{ShaperQdisc, TimerStyle};
pub use ranked::RankedShaperQdisc;
pub use sharded::{
    run_sharded, run_sharded_traced, ShardStats, ShardTrace, ShardedConfig, ShardedReport,
    SojournHist, TierCounters,
};
pub use threaded::{
    run_threaded, run_threaded_traced, ChaosReport, Completion, CompletionKind, CtrlMsg,
    ThreadedConfig, ThreadedReport, ThreadedTrace,
};
