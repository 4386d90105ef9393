//! # eiffel-workloads — traffic generators for the Eiffel reproduction
//!
//! The paper's evaluation drives its schedulers with: a neper-generated set
//! of 20k rate-limited TCP flows (§5.1.1), synthetic packet generators with
//! configurable flow counts and packet sizes (§5.1.2–§5.1.3), and the
//! DCTCP-paper *web search* flow-size distribution under Poisson arrivals
//! for the ns-2 study (§5.2, Figure 19). This crate provides the flow-size,
//! arrival and rank generators as deterministic, seedable functions; the
//! paced flows of §5.1.1 are the qdisc crate's source model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod arrivals;
pub mod closed_loop;
pub mod sizes;

pub use adversarial::{heavy_tailed_pkts, incast_starts, RankPattern};
pub use arrivals::PoissonArrivals;
pub use closed_loop::{
    summarize as summarize_closed_loop, ClosedLoopParams, ClosedLoopSource, ClosedLoopSummary,
    ALPHA_ONE, SCALE_ONE,
};
pub use sizes::{trace_shaped_pkts, EmpiricalCdf, FlowSizeDist, PACKET_PAYLOAD_BYTES};
