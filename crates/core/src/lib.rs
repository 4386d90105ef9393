//! # eiffel-core — integer bucketed priority queues
//!
//! This crate implements the data-structure contribution of *Eiffel:
//! Efficient and Flexible Software Packet Scheduling* (NSDI 2019, §3.1):
//! priority queues for packet scheduling that exploit three properties of
//! packet ranks — they are **integers**, they fall in a **limited moving
//! range**, and **many packets share a rank** — to replace the O(log n)
//! comparison-based queues (RB-trees, binary heaps) used by software
//! schedulers with O(1)-per-packet bucketed integer queues.
//!
//! ## Queue families
//!
//! Every bucketed integer queue is one bucket store, [`Bucketed`], over an
//! [`Occupancy`] index — the paper's thesis that the structures differ
//! only in how they find the lowest non-empty bucket:
//!
//! | Type | Paper | Index | Range | Min-find cost |
//! |---|---|---|---|---|
//! | [`FfsQueue`] | Fig 2 | `u64` word | fixed, ≤ 64 buckets | one `trailing_zeros` |
//! | [`HierFfsQueue`] | Fig 3 (PIQ-style) | [`HierBitmap`] | fixed, any N | `log₆₄ N` word ops |
//! | [`ApproxGradientQueue`] | §3.1.2 approximate | [`ApproxIndex`] (the curvature estimator) | fixed, ≤ 900·α buckets ([`ApproxParams::max_buckets`]); a dense queue is exact up to 48·α | integer add/compare, no division (+ search on miss) |
//! | [`BucketHeapQueue`] | §5.2 baseline "BH" | [`HeapIndex`] | fixed | O(log N) heap op per transition |
//!
//! Over that store sit the rank mappings; the comparison baselines and
//! Carousel's timing wheel stand apart:
//!
//! | Type | Paper | Range | Min-find cost |
//! |---|---|---|---|
//! | [`CffsQueue`] | Fig 4, the flagship **cFFS**: two [`HierFfsQueue`]s behind [`Circular`] | moving window | `log₆₄ N` word ops |
//! | [`CircularApproxQueue`] | §3.1.2 "as with cFFS": two [`ApproxGradientQueue`]s behind [`Circular`] | moving window | integer add/compare, no division |
//! | [`RifoQueue`] | RIFO (related work, PAPERS.md): one [`HierFfsQueue`], adaptive rank→bucket map | unbounded, adaptive | `log₆₄ N` word ops |
//! | [`SpPifoQueue`] | SP-PIFO (related work, PAPERS.md): one [`FfsQueue`], adaptive queue bounds | unbounded, adaptive | one `trailing_zeros` |
//! | [`HeapPq`], [`TreePq`] | §2 baselines | unbounded | O(log n) comparisons |
//! | [`TimingWheel`] | Carousel's structure | moving window | none (time-driven only) |
//!
//! All bucketed queues share the same bucket semantics (paper §2): the rank
//! space is divided into `N` buckets of `granularity` rank units each;
//! elements inside one bucket are FIFO because "packets within a single
//! bucket effectively have equivalent rank".
//!
//! ## Quick example
//!
//! ```
//! use eiffel_core::{CffsQueue, RankedQueue};
//!
//! // A shaper horizon: 2_000 buckets of 1_000 ns each (2 ms per window half).
//! let mut q: CffsQueue<&'static str> = CffsQueue::new(2_000, 1_000, 0);
//! q.enqueue(5_000, "pkt-a").unwrap();
//! q.enqueue(1_200, "pkt-b").unwrap();
//! q.enqueue(5_100, "pkt-c").unwrap();
//! assert_eq!(q.dequeue_min().unwrap().1, "pkt-b");
//! assert_eq!(q.dequeue_min().unwrap().1, "pkt-a"); // same bucket as pkt-c: FIFO
//! assert_eq!(q.dequeue_min().unwrap().1, "pkt-c");
//! ```

// `deny` rather than `forbid`: the lock-free SPSC ring ([`ring`]) is the
// one audited module allowed to use `unsafe` (uninitialized slot storage +
// a `Sync` impl); it opts in locally with documented invariants. Everything
// else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod bucketed;
pub mod buckets;
pub mod cffs;
pub mod comparison;
pub mod counters;
pub mod guide;
pub mod hierbitmap;
pub mod membudget;
pub mod oracle;
pub mod recip;
pub mod rifo;
pub mod ring;
pub mod sp_pifo;
pub mod timing_wheel;
pub mod traits;
pub mod word;

pub use approx::{ApproxGradientQueue, ApproxIndex, ApproxParams, CircularApproxQueue};
pub use bucketed::{BucketHeapQueue, Bucketed, FfsQueue, HeapIndex, HierFfsQueue, Occupancy};
pub use cffs::{CffsQueue, Circular};
pub use comparison::{HeapPq, TreePq};
pub use counters::{CachePadded, CounterBlock};
pub use guide::{recommend, Recommendation, UseCase};
pub use hierbitmap::HierBitmap;
pub use membudget::{DegradeTier, MemBudget, FLOW_SETUP_BYTES, PKT_SLAB_BYTES};
pub use oracle::{count_inversions, OracleAudit, OracleReport};
pub use recip::Reciprocal;
pub use rifo::RifoQueue;
pub use ring::{SpscConsumer, SpscProducer, SpscRing};
pub use sp_pifo::SpPifoQueue;
pub use timing_wheel::TimingWheel;
pub use traits::{EnqueueError, EnqueueErrorKind, QueueConfig, QueueKind, QueueStats, RankedQueue};
