//! The flow-source model: the application + TCP stack in front of the
//! shards, shared by both clocks.
//!
//! One state machine owns everything a sender knows — per-flow TSQ budget,
//! in-flight count, packets sent and their limit, arrival counter; the
//! flow-set-up and packet-slab charges against a [`MemBudget`]; the flow
//! cap; closed-loop pacing and its congestion signals — and answers two
//! questions:
//!
//! * [`FlowSource::offer`]: may flow *f* emit at *t*, and if not, why
//!   ([`Offer`]);
//! * [`FlowSource::complete`]: flow *f*'s packet was delivered / marked /
//!   dropped ([`CompletionKind`]) — return its budget, feed the transport
//!   its signal, say whether the flow needs waking ([`Credit`]).
//!
//! It has no clock and no queue of its own. The drivers
//! ([`crate::sharded`]: event calendar; [`crate::threaded`]: rings and a
//! ready queue) ask at the instants their clock produces and map each
//! verdict to their own wake-up mechanism, exactly as they do for the
//! `Shard` stage verdicts.

use eiffel_core::{DegradeTier, MemBudget, FLOW_SETUP_BYTES, PKT_SLAB_BYTES};
use eiffel_sim::{FlowId, Nanos, Packet, SplitMix64};
use eiffel_workloads::{summarize_closed_loop, ClosedLoopSource, ClosedLoopSummary};

use crate::host::RunConfig;
use crate::threaded::CompletionKind;

/// Deterministic seeded jitter for retry backoff: a pure function of
/// `(flow, attempt)`, so synchronized sources that were refused at the same
/// instant spread their retries out instead of returning in lockstep —
/// and, being keyed on the flow rather than the shard, the draw is
/// identical at every shard count (the N-vs-1 equivalence property
/// survives).
fn backoff_jitter(flow: FlowId, attempt: u32, span: Nanos) -> Nanos {
    if span == 0 {
        return 0;
    }
    SplitMix64::new(0xbac0_0ff5_eed0_0000 ^ (u64::from(flow) << 20) ^ u64::from(attempt)).next_u64()
        % span
}

// The per-packet functions of this module carry `#[inline]`: their callers
// are the generic drivers, instantiated in the downstream crate, and a call
// across the crate boundary cannot be inlined without it (5 % of the
// ledger's `overload_100k`).

/// The memory-pressure tier admission decides under (`Normal` without a
/// budget).
#[inline]
pub(crate) fn tier_of(mem: Option<&MemBudget>) -> DegradeTier {
    mem.map_or(DegradeTier::Normal, |m| m.tier())
}

/// Returns `n` packet slabs to the budget. Called where a packet leaves
/// the system (transmitted, refused, evicted) — the stage side, which on
/// the wall clock is a different thread from the source's.
#[inline]
pub(crate) fn release_slabs(mem: Option<&MemBudget>, n: u64) {
    if let Some(m) = mem {
        m.release(PKT_SLAB_BYTES.saturating_mul(n));
    }
}

/// The answer to "may this flow emit now?".
#[derive(Debug)]
pub(crate) enum Offer {
    /// Yes: the packet is minted, with budget, slab and (first time) flow
    /// set-up charged. `again` is when the flow may be asked next; `None`
    /// means it is now throttled or finished and only a completion
    /// ([`Credit::Wake`]) makes asking worthwhile.
    Emit { pkt: Packet, again: Option<Nanos> },
    /// TSQ-throttled, or its finite workload is sent: nothing to do until
    /// a completion.
    Idle,
    /// The closed-loop transport paces itself: not before this instant.
    Paced(Nanos),
    /// The memory budget (refuse tier, or the charge itself) turned the
    /// new flow away before any packet memory was committed. *How* to wait
    /// is the driver's policy.
    SetupRefused,
    /// The driver's transport had no room (its `room` probe said so). No
    /// budget consumed, no packet minted; the driver picks the backoff
    /// ([`FlowSource::retry_in`] supplies the jitter).
    RingFull,
    /// The flow is at its in-qdisc cap: arrival number `seq` of this flow
    /// is dropped; re-offer at `retry_at` (one offered gap later).
    CapDrop { seq: u64, retry_at: Nanos },
    /// The slab charge would overrun the budget: the emission is deferred
    /// instead of allocated — backlog memory cannot exceed the budget,
    /// whatever ring and qdisc capacities would admit. Re-offer then.
    MemDeferred(Nanos),
}

/// The outcome of returning one packet's budget to its flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Credit {
    /// The flow had nothing in flight: this disposal was already credited
    /// (the watchdog's reconciliation guessed it, and this is the real
    /// completion arriving late). Nothing changed, so a flow never gets
    /// more refunds than it had packets in flight.
    Rejected,
    /// Budget returned; the flow is already runnable or has finished.
    Credited,
    /// Budget returned to a flow that was throttled with packets left to
    /// send: the TSQ callback — wake it.
    Wake,
}

/// See the module docs.
///
/// Per-flow state is kept in columns, and every column that starts at zero
/// is allocated zeroed: a flow that never gets to start (refused at set-up
/// for the whole run) then never touches its rows, so it costs no resident
/// memory. Under overload that is a large part of the table — a table of
/// eagerly written per-flow structs read 8 % more peak RSS on the ledger's
/// `overload_100k`.
pub(crate) struct FlowSource<'a> {
    /// TSQ budget left.
    budget: Vec<u32>,
    /// Packets emitted and not yet credited back.
    inflight: Vec<u32>,
    sent: Vec<u64>,
    /// Packets each flow emits in total (`u64::MAX` = backlogged forever).
    limit: Vec<u64>,
    arrivals: Vec<u64>,
    /// Retry attempts so far — the jitter key.
    retry_seq: Vec<u32>,
    /// Holds a flow-set-up charge. Only read under a budget: without one
    /// nothing is charged.
    established: Vec<bool>,
    /// Earliest next emission, and the transports that set it (both empty
    /// in open loop).
    next_allowed: Vec<Nanos>,
    cl: Vec<ClosedLoopSource>,
    cfg: &'a RunConfig,
    mem: Option<&'a MemBudget>,
    flow_cap: Option<u32>,
    emit_gap: Nanos,
    stagger: Nanos,
    next_pkt_id: u64,
    /// Flows that still have packets to emit.
    unsent: usize,
    /// New-flow set-ups the memory budget refused (a re-refusal counts
    /// again).
    pub(crate) setup_refused: u64,
    /// Emissions deferred because the slab charge found the budget
    /// exhausted.
    pub(crate) mem_deferrals: u64,
}

impl<'a> FlowSource<'a> {
    /// Builds the per-flow tables for a validated `cfg`. Without explicit
    /// `cfg.starts`, first emissions are staggered smoothly across one
    /// `stagger` gap — the one value the drivers choose differently (see
    /// DESIGN.md, "Drift rulings").
    pub(crate) fn new(cfg: &'a RunConfig, stagger: Nanos) -> Self {
        let n = cfg.host.flows;
        let limit = match &cfg.pkts_override {
            Some(v) => v.clone(),
            None => vec![cfg.pkts_per_flow.unwrap_or(u64::MAX); n],
        };
        let (paced, cl) = match &cfg.closed_loop {
            Some(p) => (n, vec![ClosedLoopSource::new(p); n]),
            None => (0, Vec::new()),
        };
        FlowSource {
            budget: vec![cfg.host.tsq_budget.max(1); n],
            inflight: vec![0; n],
            sent: vec![0; n],
            unsent: limit.iter().filter(|&&l| l > 0).count(),
            limit,
            arrivals: vec![0; n],
            retry_seq: vec![0; n],
            established: vec![false; n],
            next_allowed: vec![0; paced],
            cl,
            cfg,
            mem: cfg.mem.as_deref(),
            flow_cap: cfg.flow_cap.map(|c| c.max(1)),
            emit_gap: cfg.emit_gap(),
            stagger,
            next_pkt_id: 0,
            setup_refused: 0,
            mem_deferrals: 0,
        }
    }

    /// When `flow` first emits: its explicit start, or its slot in the
    /// smooth stagger — a function of the flow id and the *total* flow
    /// count only, so identical at every shard count.
    pub(crate) fn start_at(&self, flow: FlowId) -> Nanos {
        match &self.cfg.starts {
            Some(st) => st[flow as usize],
            None => self.stagger * u64::from(flow) / self.limit.len() as u64,
        }
    }

    /// The base gap sources offer at (≥ 1): `offered_gap`, or the pacing
    /// gap.
    pub(crate) fn emit_gap(&self) -> Nanos {
        self.emit_gap
    }

    /// Packets minted so far.
    pub(crate) fn emitted(&self) -> u64 {
        self.next_pkt_id
    }

    /// Whether every flow has emitted its whole finite workload (never,
    /// for backlogged flows).
    pub(crate) fn all_sent(&self) -> bool {
        self.unsent == 0
    }

    /// Packets of `flow` emitted and not yet credited back.
    pub(crate) fn inflight(&self, flow: FlowId) -> u32 {
        self.inflight[flow as usize]
    }

    /// Whether `flow` has no TSQ budget left.
    pub(crate) fn throttled(&self, flow: FlowId) -> bool {
        self.budget[flow as usize] == 0
    }

    /// Next jittered retry delay for `flow` around `base`: `base` plus a
    /// seeded draw below `base / 2`, a fresh draw per attempt.
    pub(crate) fn retry_in(&mut self, flow: FlowId, base: Nanos) -> Nanos {
        let seq = &mut self.retry_seq[flow as usize];
        *seq = seq.wrapping_add(1);
        let base = base.max(1);
        base + backoff_jitter(flow, *seq, base / 2)
    }

    /// May `flow` emit at `now`? `room` probes the driver's transport
    /// (ingress ring) and is consulted only once the flow itself is
    /// willing and established — so a refusal there is counted as
    /// backpressure, not as a stray wake-up.
    pub(crate) fn offer(&mut self, flow: FlowId, now: Nanos, room: impl FnOnce() -> bool) -> Offer {
        let i = flow as usize;
        if self.budget[i] == 0 || self.sent[i] >= self.limit[i] {
            return Offer::Idle;
        }
        let closed = self.cfg.closed_loop.is_some();
        if closed && now < self.next_allowed[i] {
            // Stray wake-ups from completions land here and defer to the
            // paced slot.
            return Offer::Paced(self.next_allowed[i]);
        }
        if let Some(m) = self.mem.filter(|_| !self.established[i]) {
            // The strongest degradation, taken before any packet memory is
            // committed.
            if m.tier() == DegradeTier::Refuse || !m.try_charge(FLOW_SETUP_BYTES) {
                self.setup_refused += 1;
                return Offer::SetupRefused;
            }
            self.established[i] = true;
        }
        if !room() {
            return Offer::RingFull;
        }
        self.arrivals[i] += 1;
        if self.flow_cap.is_some_and(|cap| self.inflight[i] >= cap) {
            return Offer::CapDrop {
                seq: self.arrivals[i] - 1,
                retry_at: now + self.emit_gap,
            };
        }
        if self.mem.is_some_and(|m| !m.try_charge(PKT_SLAB_BYTES)) {
            self.mem_deferrals += 1;
            return Offer::MemDeferred(now + self.retry_in(flow, self.emit_gap));
        }
        self.budget[i] -= 1;
        self.inflight[i] += 1;
        self.sent[i] += 1;
        let more = self.sent[i] < self.limit[i];
        if !more {
            self.unsent -= 1;
        }
        let pkt = Packet::mtu(self.next_pkt_id, flow, now);
        self.next_pkt_id += 1;
        // Open loop: a bulk sender, the next packet goes straight away (the
        // qdisc paces). Closed loop: the transport paces itself, stretching
        // the base gap by the inverse of its congestion scale.
        let next = if closed {
            self.next_allowed[i] = now + self.cl[i].gap(self.emit_gap).max(1);
            self.next_allowed[i]
        } else {
            now
        };
        let again = (more && self.budget[i] > 0).then_some(next);
        Offer::Emit { pkt, again }
    }

    /// Flow `flow`'s packet met its fate: feed the transport the echoed
    /// signal (ECN mark or loss — genuine even when the credit below is
    /// rejected, so always delivered) and return the budget.
    #[inline]
    pub(crate) fn complete(&mut self, flow: FlowId, kind: CompletionKind) -> Credit {
        if let Some(p) = &self.cfg.closed_loop {
            let cl = &mut self.cl[flow as usize];
            match kind {
                CompletionKind::Dropped => cl.on_loss(p),
                sent => {
                    cl.on_completion(p, sent == CompletionKind::DeliveredMarked);
                }
            }
        }
        self.credit(flow)
    }

    /// Returns one TSQ budget to `flow` without a transport signal — the
    /// watchdog's loss reconciliation. The last credit of a fully drained
    /// finite flow also tears the flow down, releasing its set-up charge:
    /// the churn that keeps the established set bounded.
    #[inline]
    pub(crate) fn credit(&mut self, flow: FlowId) -> Credit {
        let i = flow as usize;
        if self.inflight[i] == 0 {
            return Credit::Rejected;
        }
        self.inflight[i] -= 1;
        self.budget[i] += 1;
        if self.sent[i] < self.limit[i] {
            return if self.budget[i] == 1 {
                Credit::Wake
            } else {
                Credit::Credited
            };
        }
        if let Some(m) = self
            .mem
            .filter(|_| self.inflight[i] == 0 && self.established[i])
        {
            self.established[i] = false;
            m.release(FLOW_SETUP_BYTES);
        }
        Credit::Credited
    }

    /// Run over: the sources close. `residue` packets (in qdiscs and
    /// rings) and still-established flows hold charges no completion will
    /// return — release them so the ledger ends at zero.
    pub(crate) fn close_books(&mut self, residue: u64) {
        let Some(m) = self.mem else { return };
        release_slabs(Some(m), residue);
        for e in self.established.iter_mut().filter(|e| **e) {
            *e = false;
            m.release(FLOW_SETUP_BYTES);
        }
    }

    /// Final closed-loop transport state (`None` in open loop).
    pub(crate) fn summary(&self) -> Option<ClosedLoopSummary> {
        self.cfg
            .closed_loop
            .map(|_| summarize_closed_loop(&self.cl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostConfig;
    use eiffel_sim::{Rate, SECOND};
    use eiffel_workloads::ClosedLoopParams;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// 60 Mbps per flow: a 200 µs pacing gap.
    fn cfg(flows: usize, tsq_budget: u32, pkts: Option<u64>) -> RunConfig {
        let host = HostConfig {
            flows,
            aggregate: Rate::mbps(60 * flows as u64),
            duration: SECOND,
            bin: SECOND / 10,
            tsq_budget,
            batch: 1,
        };
        RunConfig {
            pkts_per_flow: pkts,
            ..RunConfig::new(1, host)
        }
    }

    fn with_budget(mut c: RunConfig, bytes: u64) -> (RunConfig, Arc<MemBudget>) {
        let m = Arc::new(MemBudget::new(bytes));
        c.mem = Some(Arc::clone(&m));
        (c, m)
    }

    /// Offers with a transport that always has room; the packet, if any.
    fn emit(src: &mut FlowSource<'_>, flow: FlowId, now: Nanos) -> Option<Packet> {
        match src.offer(flow, now, || true) {
            Offer::Emit { pkt, .. } => Some(pkt),
            _ => None,
        }
    }

    /// The stage side of a disposal plus the source side, as the drivers
    /// pair them.
    fn dispose(src: &mut FlowSource<'_>, flow: FlowId, kind: CompletionKind) -> Credit {
        release_slabs(src.mem, 1);
        src.complete(flow, kind)
    }

    /// The backoff jitter is a pure function of `(flow, attempt)` — the
    /// property that keeps the virtual runtime deterministic and shard-
    /// count-invariant — and spreads synchronized retries apart.
    #[test]
    fn backoff_jitter_is_deterministic_and_spreads() {
        let span = 10_000;
        for flow in 0..32u32 {
            for attempt in 0..8u32 {
                let a = backoff_jitter(flow, attempt, span);
                assert_eq!(a, backoff_jitter(flow, attempt, span));
                assert!(a < span);
            }
        }
        assert_eq!(backoff_jitter(7, 1, 0), 0, "zero span is a no-op");
        // Synchronized producers draw distinct delays: over 64 flows at
        // the same attempt, the draws must not collapse to a few values.
        let distinct: std::collections::BTreeSet<u64> =
            (0..64u32).map(|f| backoff_jitter(f, 1, span)).collect();
        assert!(
            distinct.len() > 48,
            "only {} distinct draws",
            distinct.len()
        );
    }

    #[test]
    fn inflight_never_exceeds_the_tsq_budget() {
        let c = cfg(3, 2, None);
        let mut src = FlowSource::new(&c, c.host.pacing_gap());
        for tick in 0..200u64 {
            for f in 0..3 {
                let before = src.inflight(f);
                let sent = emit(&mut src, f, tick * 1_000).is_some();
                assert_eq!(sent, before < 2, "flow {f} at tick {tick}");
                assert!(src.inflight(f) <= 2);
                assert_eq!(src.throttled(f), src.inflight(f) == 2);
            }
            // One completion every other tick: the flows stay throttled
            // most of the time, and a throttled flow is woken by it.
            if tick % 2 == 0 {
                let f = (tick / 2 % 3) as FlowId;
                let want = if src.throttled(f) {
                    Credit::Wake
                } else {
                    Credit::Credited
                };
                assert_eq!(dispose(&mut src, f, CompletionKind::Delivered), want);
            }
        }
    }

    /// Ruling: a TSQ budget of 0 means 1 on both clocks (it used to wedge
    /// the virtual one).
    #[test]
    fn zero_tsq_budget_is_clamped_to_one() {
        let c = cfg(1, 0, Some(2));
        let mut src = FlowSource::new(&c, 0);
        assert!(emit(&mut src, 0, 0).is_some());
        assert!(emit(&mut src, 0, 1).is_none(), "window of one");
        assert_eq!(
            dispose(&mut src, 0, CompletionKind::Delivered),
            Credit::Wake
        );
        assert!(emit(&mut src, 0, 2).is_some());
        assert!(src.all_sent());
    }

    /// The watchdog double-credit guard: a completion (or reconciliation
    /// credit) for a flow with nothing in flight changes nothing.
    #[test]
    fn completion_with_nothing_in_flight_is_rejected() {
        let c = cfg(2, 2, None);
        let mut src = FlowSource::new(&c, 0);
        assert_eq!(src.complete(0, CompletionKind::Delivered), Credit::Rejected);
        assert_eq!(src.credit(1), Credit::Rejected);
        // No budget was invented: each flow still gets exactly its window.
        for f in 0..2 {
            assert!(emit(&mut src, f, 0).is_some());
            assert!(emit(&mut src, f, 0).is_some());
            assert!(emit(&mut src, f, 0).is_none());
        }
        // The reconciliation guessed flow 0; the real completions arrive
        // late: two credits for two packets, the third is refused.
        assert_eq!(src.credit(0), Credit::Wake);
        assert_eq!(src.complete(0, CompletionKind::Delivered), Credit::Credited);
        assert_eq!(src.complete(0, CompletionKind::Delivered), Credit::Rejected);
        assert_eq!(src.inflight(0), 0);
    }

    /// A set-up charge comes back exactly once: when the finite flow
    /// drains, or at close-of-books — never both. A sentinel charge makes a
    /// double release visible as a wrong balance (and `MemBudget::release`
    /// asserts against underflow in debug builds).
    #[test]
    fn setup_charge_is_released_exactly_once() {
        const SENTINEL: u64 = 1_000;
        let (c, m) = with_budget(cfg(2, 4, Some(2)), 1 << 20);
        assert!(m.try_charge(SENTINEL));
        let mut src = FlowSource::new(&c, 0);
        // Flow 0 sends its two packets and drains; flow 1 sends one and is
        // still mid-stream when the run ends.
        assert!(emit(&mut src, 0, 0).is_some());
        assert!(emit(&mut src, 0, 0).is_some());
        assert!(emit(&mut src, 1, 0).is_some());
        assert_eq!(
            m.in_use(),
            SENTINEL + 2 * FLOW_SETUP_BYTES + 3 * PKT_SLAB_BYTES
        );
        dispose(&mut src, 0, CompletionKind::Delivered);
        assert_eq!(
            m.in_use(),
            SENTINEL + 2 * FLOW_SETUP_BYTES + 2 * PKT_SLAB_BYTES,
            "one packet still out: flow 0 is not torn down yet"
        );
        dispose(&mut src, 0, CompletionKind::DeliveredMarked);
        assert_eq!(
            m.in_use(),
            SENTINEL + FLOW_SETUP_BYTES + PKT_SLAB_BYTES,
            "drained: flow 0's set-up charge is back"
        );
        src.close_books(1);
        assert_eq!(m.in_use(), SENTINEL, "flow 1's charge, flow 0's not again");
        src.close_books(0);
        assert_eq!(m.in_use(), SENTINEL, "closing twice releases nothing");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever was emitted, refused, deferred and disposed of, the
        /// ledger closes at zero once the books are closed over the
        /// residue.
        #[test]
        fn books_close_at_zero_with_arbitrary_residue(
            flows in 1usize..12,
            tsq in 1u32..5,
            pkts in prop_oneof![Just(None), (1u64..6).prop_map(Some)],
            slabs in 1u64..24,
            steps in 1usize..200,
            seed in 0u64..1_000,
        ) {
            // Room for about half the set-ups: refusals, deferrals and
            // drained-flow churn all occur.
            let budget = flows as u64 / 2 * FLOW_SETUP_BYTES + slabs * PKT_SLAB_BYTES;
            let (c, m) = with_budget(cfg(flows, tsq, pkts), budget);
            let mut src = FlowSource::new(&c, c.host.pacing_gap());
            let mut rng = SplitMix64::new(seed);
            let mut out: VecDeque<FlowId> = VecDeque::new();
            for step in 0..steps as u64 {
                let f = rng.next_below(flows as u64) as FlowId;
                if rng.next_below(3) > 0 {
                    if emit(&mut src, f, step * 100).is_some() {
                        out.push_back(f);
                    }
                } else if let Some(f) = out.pop_front() {
                    let kind = if rng.next_below(4) == 0 {
                        CompletionKind::Dropped
                    } else {
                        CompletionKind::delivered(rng.next_below(2) == 0)
                    };
                    prop_assert!(dispose(&mut src, f, kind) != Credit::Rejected);
                }
                prop_assert!(m.in_use() <= m.budget());
            }
            let inflight: u64 = (0..flows as FlowId).map(|f| u64::from(src.inflight(f))).sum();
            prop_assert_eq!(inflight, out.len() as u64);
            src.close_books(out.len() as u64);
            prop_assert_eq!(m.in_use(), 0);
        }

        /// A finite fault-free workload yields the same per-flow verdict
        /// sequence whichever driver asks. Two asking disciplines over the
        /// same model — an event heap that asks a flow exactly when the
        /// model said to and completes each packet a fixed service time
        /// later, and a polling loop that asks queued flows in bursts at
        /// coarse ticks and returns completions late and in batches —
        /// agree on everything but the "not now" verdicts (`Idle`,
        /// `Paced`), which are the only ones timing can touch.
        #[test]
        fn verdict_sequence_is_the_same_whichever_driver_asks(
            flows in 1usize..10,
            tsq in 1u32..5,
            pkts in 1u64..9,
            closed in prop_oneof![Just(false), Just(true)],
            tick in 1u64..400_000,
            lag in 0u64..5,
        ) {
            let mut c = cfg(flows, tsq, Some(pkts));
            if closed {
                c.closed_loop = Some(ClosedLoopParams::default());
            }
            let by_heap = ask_like_an_event_heap(&c);
            let by_poll = ask_like_a_polling_loop(&c, tick, lag);
            prop_assert_eq!(&by_heap, &by_poll);
            for (f, verdicts) in by_heap.iter().enumerate() {
                prop_assert_eq!(verdicts.len() as u64, pkts, "flow {}", f);
            }
        }
    }

    /// What a driver saw, per flow: every verdict but the "not now" ones,
    /// in order. An `Emit` is recorded with whether it exhausted the
    /// flow's workload (packet ids depend on cross-flow interleaving,
    /// which is the driver's, but must still be increasing per flow).
    type Seen = Vec<Vec<(&'static str, bool)>>;

    fn record(src: &FlowSource<'_>, seen: &mut Seen, last_id: &mut [Option<u64>], verdict: &Offer) {
        let (flow, entry) = match verdict {
            Offer::Idle | Offer::Paced(_) => return,
            Offer::Emit { pkt, .. } => {
                let last = last_id[pkt.flow as usize].replace(pkt.id);
                assert!(
                    last < Some(pkt.id),
                    "per-flow FIFO: {last:?} then {}",
                    pkt.id
                );
                let f = pkt.flow as usize;
                (pkt.flow, ("emit", src.sent[f] == src.limit[f]))
            }
            other => panic!("fault-free run got {other:?}"),
        };
        seen[flow as usize].push(entry);
    }

    fn ask_like_an_event_heap(c: &RunConfig) -> Seen {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        const SERVICE: Nanos = 150_000;
        let mut src = FlowSource::new(c, c.host.pacing_gap());
        let mut seen = vec![Vec::new(); c.host.flows];
        let mut last_id = vec![None; c.host.flows];
        // (time, is_ask, flow): completions sort before asks at equal time.
        let mut heap: BinaryHeap<Reverse<(Nanos, bool, FlowId)>> = (0..c.host.flows as FlowId)
            .map(|f| Reverse((src.start_at(f), true, f)))
            .collect();
        while let Some(Reverse((now, is_ask, f))) = heap.pop() {
            if !is_ask {
                if src.complete(f, CompletionKind::Delivered) == Credit::Wake {
                    heap.push(Reverse((now, true, f)));
                }
                continue;
            }
            let verdict = src.offer(f, now, || true);
            record(&src, &mut seen, &mut last_id, &verdict);
            match verdict {
                Offer::Emit { again, .. } => {
                    heap.push(Reverse((now + SERVICE, false, f)));
                    if let Some(at) = again {
                        heap.push(Reverse((at, true, f)));
                    }
                }
                Offer::Paced(at) => heap.push(Reverse((at, true, f))),
                _ => {}
            }
        }
        assert!(src.all_sent());
        seen
    }

    fn ask_like_a_polling_loop(c: &RunConfig, tick: Nanos, lag: u64) -> Seen {
        let mut src = FlowSource::new(c, c.emit_gap());
        let mut seen = vec![Vec::new(); c.host.flows];
        let mut last_id = vec![None; c.host.flows];
        let mut ready: VecDeque<FlowId> = VecDeque::new();
        let mut timed: Vec<(Nanos, FlowId)> = Vec::new();
        // Completions come back `lag` ticks after the emission, in a batch.
        let mut returning: VecDeque<(u64, FlowId)> = VecDeque::new();
        let mut started = 0;
        let mut round = 0u64;
        while !(src.all_sent() && returning.is_empty()) {
            let now = round * tick;
            while returning.front().is_some_and(|&(due, _)| due <= round) {
                let (_, f) = returning.pop_front().expect("checked");
                if src.complete(f, CompletionKind::Delivered) == Credit::Wake {
                    ready.push_back(f);
                }
            }
            while started < c.host.flows && src.start_at(started as FlowId) <= now {
                ready.push_back(started as FlowId);
                started += 1;
            }
            let (due, later): (Vec<_>, Vec<_>) = timed.iter().partition(|&&(at, _)| at <= now);
            timed = later;
            ready.extend(due.into_iter().map(|(_, f)| f));
            for _ in 0..4 {
                let Some(f) = ready.pop_front() else { break };
                let verdict = src.offer(f, now, || true);
                record(&src, &mut seen, &mut last_id, &verdict);
                match verdict {
                    Offer::Emit { again, .. } => {
                        returning.push_back((round + lag, f));
                        match again {
                            Some(at) if at <= now => ready.push_back(f),
                            Some(at) => timed.push((at, f)),
                            None => {}
                        }
                    }
                    Offer::Paced(at) => timed.push((at, f)),
                    _ => {}
                }
            }
            round += 1;
            assert!(round < 10_000_000, "polling driver wedged");
        }
        seen
    }
}
