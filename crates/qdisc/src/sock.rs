//! Per-socket state as dense `FlowId`-indexed columns — what Eiffel keeps
//! in `sock.h` (§5.1.1: "allowing us to avoid having to keep track of each
//! flow in the qdisc").
//!
//! A flow id indexes its row directly, so a packet pays an array access,
//! not a hash-table probe. The price is the precondition the qdiscs that
//! use it state: ids are dense, `0..flows` — a column grows to the largest
//! id it has seen, so a sparse `u32` id would allocate up to it.

use eiffel_sim::{FlowId, Nanos};

/// Flow `flow`'s row of `column`, growing the column (zero-filled) to
/// reach it.
#[inline]
pub(crate) fn row<T: Default + Clone>(column: &mut Vec<T>, flow: FlowId) -> &mut T {
    let i = flow as usize;
    if i >= column.len() {
        column.resize(i + 1, T::default());
    }
    &mut column[i]
}

/// Per-socket shaper clocks: each flow's next eligible release time.
#[derive(Debug, Default)]
pub(crate) struct SocketClocks {
    next_eligible: Vec<Nanos>,
}

impl SocketClocks {
    /// Carousel's timestamp-per-packet: the packet is released at the
    /// later of `now` and the socket's clock, and the clock advances by the
    /// packet's wire time at `rate_bps` (not at all at rate 0).
    #[inline]
    pub(crate) fn stamp(&mut self, now: Nanos, flow: FlowId, bytes: u64, rate_bps: u64) -> Nanos {
        let clock = row(&mut self.next_eligible, flow);
        let release = (*clock).max(now);
        let wire_ns = (bytes * 8)
            .saturating_mul(1_000_000_000)
            .checked_div(rate_bps)
            .unwrap_or(0);
        *clock = release + wire_ns;
        release
    }
}
