//! # eiffel-pifo — Eiffel's programmable scheduler model
//!
//! This crate implements §3.2 of *Eiffel: Efficient and Flexible Software
//! Packet Scheduling* (NSDI 2019): the PIFO scheduler programming model
//! (scheduling transactions arranged in a tree, shaping transactions)
//! **plus** Eiffel's three extensions:
//!
//! 1. **Per-flow ranking** ([`flow::FlowScheduler`]) — a PIFO block that
//!    orders *flows* (each an internal FIFO) by a flow rank the policy
//!    maintains;
//! 2. **On-dequeue ranking** ([`flow::FlowPolicy::rank_on_dequeue`]) —
//!    policies like pFabric and LQF re-rank a flow when a packet *leaves*;
//! 3. **Arbitrary shaping** ([`shaper::Shaper`]) — one hierarchy-wide
//!    time-indexed priority queue carries every rate limit as per-packet
//!    timestamps, decoupled from the work-conserving tree.
//!
//! Policies are described in a small textual language ([`lang::compile`])
//! standing in for the PIFO DOT compiler the paper extends, and assembled
//! behind the Figure 1 facade ([`scheduler::EiffelScheduler`]).
//!
//! ```
//! use eiffel_pifo::lang::compile;
//! use eiffel_sim::Packet;
//!
//! // Longest-Queue-First over flows — Figure 6 of the paper, which plain
//! // PIFO cannot express.
//! let mut tree = compile("node root kind=flow:lqf").unwrap();
//! let root = tree.node_by_name("root").unwrap();
//! tree.enqueue(0, root, Packet::mtu(0, /*flow=*/7, 0)).unwrap();
//! tree.enqueue(0, root, Packet::mtu(1, 7, 0)).unwrap();
//! tree.enqueue(0, root, Packet::mtu(2, /*flow=*/9, 0)).unwrap();
//! // Flow 7 is the longest queue: served first.
//! assert_eq!(tree.dequeue(0).unwrap().flow, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod lang;
pub mod policies;
pub mod scheduler;
pub mod shaper;
pub mod tree;

pub use flow::{FlowPolicy, FlowScheduler, FlowState, PARK};
pub use lang::{compile, ParseError};
pub use policies::{
    CurveSpec, HClockFlow, HfscCurves, Lstf, NodeProgram, QosSpec, RankCtx, Transaction, Wfq,
};
pub use scheduler::{Annotator, EiffelScheduler};
pub use shaper::{Shaper, TokenStamper};
pub use tree::{NodeId, PifoTree, TreeBuilder, TreeError};
