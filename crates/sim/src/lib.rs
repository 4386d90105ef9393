//! # eiffel-sim — discrete-event simulation substrate
//!
//! The paper evaluates Eiffel inside a Linux kernel (qdisc), a busy-polling
//! userspace switch (BESS), and ns-2. None of those environments are part of
//! this reproduction's target platform, so the experiment harnesses run on
//! this substrate instead: a virtual-time clock, a deterministic event loop,
//! a CPU meter that attributes *real, measured* nanoseconds of executed
//! data-structure code to virtual-time bins (plus documented modelled
//! constants for hardware effects like interrupt entry), and a deterministic
//! RNG.
//!
//! Design follows the smoltcp school: explicit `poll`-style control flow, no
//! hidden threads, no async — packet scheduling is CPU-bound work and the
//! simulations must be reproducible given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod events;
pub mod packet;
pub mod rng;
pub mod sched;
pub mod time;

pub use cpu::{CpuCategory, CpuMeter};
pub use events::EventQueue;
pub use packet::{shard_of, FlowId, Packet};
pub use rng::SplitMix64;
pub use sched::{BucketedEventQueue, EventScheduler, DEFAULT_WHEEL_SLOTS};
pub use time::{Nanos, Rate, WallNanos, MICROSECOND, MILLISECOND, SECOND};
