//! Per-flow ranking and on-dequeue ranking — Eiffel extensions #1 and #2
//! (§3.2.1).
//!
//! PIFO ranks each packet individually on enqueue; it "doesn't support
//! reordering packets already enqueued based on changes in their flow
//! ranking" nor "ranking of elements on packet dequeue". Eiffel adds both:
//! a per-flow transaction keeps one FIFO per flow and lets the policy
//! recompute the *flow's* rank on every enqueue **and** dequeue; "a single
//! PIFO block orders flows, rather than packets, based on their rank".
//!
//! Re-ranking an enqueued flow uses the bucketed queues' O(1) (re)move:
//! entries are epoch-stamped and stale ones are skipped lazily at dequeue,
//! so a rank change costs one enqueue, never a scan. Stale entries behind a
//! rank the service never reaches would pile up for ever, so they are
//! counted, and the queue is rebuilt without them once they outnumber the
//! live entries by a constant factor — amortized O(1) per re-rank.

use std::collections::VecDeque;

use eiffel_core::{QueueConfig, QueueKind, RankedQueue};
use eiffel_sim::{FlowId, Nanos, Packet};

/// Sentinel rank meaning "park this flow": it stays backlogged but takes no
/// entry in the flow queue until the policy surfaces it again through
/// [`FlowPolicy::advance`]. Non-work-conserving policies (hClock's limit
/// gate) return it from their rank hooks.
///
/// Contract: a policy parking a flow at time `now` must report a wakeup
/// strictly after `now` (bucket-granular early wakeups are fine) — a parked
/// flow that is already serviceable would stall until the next poll.
pub const PARK: u64 = u64::MAX;

/// Per-flow state visible to policies.
#[derive(Debug)]
pub struct FlowState {
    /// Flow identity.
    pub id: FlowId,
    /// Packets of this flow, in arrival order (never reordered within a
    /// flow — §3.2.1's assumption).
    fifo: VecDeque<Packet>,
    /// Current flow rank (`f.rank` in the paper's Figures 6/11/14).
    pub rank: u64,
    /// Bytes currently queued.
    pub bytes: u64,
    /// Stamp matching the flow's one valid entry in the flow queue.
    epoch: u64,
    /// Whether a valid entry for this flow is present in the flow queue.
    active: bool,
}

impl FlowState {
    /// Number of queued packets (`f.len` in the paper's LQF example).
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the flow has no queued packets.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// The head packet (`f.front()` in the paper's pFabric example).
    pub fn front(&self) -> Option<&Packet> {
        self.fifo.front()
    }

    /// The most recently enqueued packet.
    pub fn back(&self) -> Option<&Packet> {
        self.fifo.back()
    }
}

/// A scheduling policy over flows.
///
/// Both hooks may read the whole flow state (length, head packet) — this
/// is exactly the expressiveness PIFO lacks. Per-flow bookkeeping lives
/// inside the policy (keyed by [`FlowState::id`]), so the trait is object
/// safe: schedulers and tree leaves hold a `Box<dyn FlowPolicy>`.
pub trait FlowPolicy {
    /// New rank for flow `f` after packet `p` was appended to it.
    fn rank_on_enqueue(&mut self, now: Nanos, f: &FlowState, p: &Packet) -> u64;

    /// New rank for flow `f` after its head packet was removed (`f` is
    /// non-empty). Returning `None` keeps the current rank — policies that
    /// only rank on enqueue (plain PIFO behaviour) use the default.
    fn rank_on_dequeue(&mut self, now: Nanos, f: &FlowState) -> Option<u64> {
        let _ = (now, f);
        None
    }

    /// Observes every served packet, *including* the one that empties its
    /// flow ([`FlowPolicy::rank_on_dequeue`] only fires while the flow
    /// stays backlogged). Virtual-time policies charge their clocks here.
    fn on_serve(&mut self, now: Nanos, f: &FlowState, p: &Packet) {
        let _ = (now, f, p);
    }

    /// Whether this policy may return [`PARK`] ranks. Parking leaves are
    /// only sound at the tree root (see [`crate::tree::TreeBuilder`]).
    fn may_park(&self) -> bool {
        false
    }

    /// Poll hook: appends the ids of flows whose rank must be recomputed at
    /// `now` (limit gates opening, reservations coming due…). The scheduler
    /// then asks [`FlowPolicy::rank_now`] for each and re-ranks it.
    fn advance(&mut self, now: Nanos, rerank: &mut Vec<FlowId>) {
        let _ = (now, rerank);
    }

    /// Current rank of backlogged flow `f` at `now`, for flows surfaced by
    /// [`FlowPolicy::advance`]. Defaults to keeping the stored rank.
    fn rank_now(&mut self, now: Nanos, f: &FlowState) -> u64 {
        let _ = now;
        f.rank
    }

    /// Earliest future instant at which [`FlowPolicy::advance`] could
    /// change anything (bucket-granular: may be early, never late).
    fn soonest_wakeup(&self) -> Option<Nanos> {
        None
    }
}

/// Queue entry: flow id + epoch stamp for lazy invalidation.
type FlowEntry = (FlowId, u64);

/// The flow queue is compacted when its stale entries exceed this multiple
/// of its live ones (one live entry per flow that is backlogged and not
/// parked), so it never holds more than `1 + STALE_PER_LIVE` entries per
/// such flow, plus the floor.
const STALE_PER_LIVE: usize = 2;
/// Stale entries always tolerated, so a near-empty queue is not rebuilt on
/// every re-rank.
const STALE_FLOOR: usize = 64;

/// The per-flow transaction: one ranked queue ordering flows, one FIFO per
/// flow.
pub struct FlowScheduler {
    policy: Box<dyn FlowPolicy>,
    queue: Box<dyn RankedQueue<FlowEntry>>,
    flows: Vec<FlowState>,
    packets: usize,
    /// Stale entries skipped so far (observability for tests/benches).
    stale_skipped: u64,
    /// Stale entries in `queue` right now: invalidated, not yet skipped.
    stale: usize,
    /// Reusable id buffer for [`FlowScheduler::advance`].
    rerank_scratch: Vec<FlowId>,
    /// Whether [`FlowScheduler::dequeue_batch`] may use the strict-minimum
    /// shortcut. Sound only for queues that place and find ranks *exactly*
    /// (no low-clamping moving window, no approximate min-find) — see
    /// [`FlowScheduler::with_kind`], which derives it from the kind.
    /// [`FlowScheduler::new`] cannot inspect a boxed queue and stays
    /// conservative (`false`: the batch path degenerates to the exact
    /// dequeue loop).
    batch_shortcut: bool,
}

impl FlowScheduler {
    /// Creates a scheduler with the given flow-ordering queue.
    pub fn new(policy: Box<dyn FlowPolicy>, queue: Box<dyn RankedQueue<FlowEntry>>) -> Self {
        FlowScheduler {
            policy,
            queue,
            flows: Vec::new(),
            packets: 0,
            stale_skipped: 0,
            stale: 0,
            rerank_scratch: Vec::new(),
            batch_shortcut: false,
        }
    }

    /// Creates a scheduler with a queue chosen via [`QueueKind`], enabling
    /// the batched-dequeue shortcut exactly when the kind is safe for it
    /// ([`QueueKind::places_exactly`]: a clamping window would violate FIFO
    /// order against the minimum bucket's occupants, an approximate
    /// min-find could answer from a neighbouring bucket).
    pub fn with_kind(policy: Box<dyn FlowPolicy>, kind: QueueKind, cfg: QueueConfig) -> Self {
        let mut s = Self::new(policy, kind.build(cfg));
        s.batch_shortcut = kind.places_exactly();
        s
    }

    fn flow_mut(&mut self, id: FlowId) -> &mut FlowState {
        let idx = id as usize;
        while self.flows.len() <= idx {
            let new_id = self.flows.len() as FlowId;
            self.flows.push(FlowState {
                id: new_id,
                fifo: VecDeque::new(),
                rank: 0,
                bytes: 0,
                epoch: 0,
                active: false,
            });
        }
        &mut self.flows[idx]
    }

    /// Read access to a flow's state (allocating it if never seen).
    pub fn flow(&mut self, id: FlowId) -> &FlowState {
        self.flow_mut(id)
    }

    /// Total queued packets.
    pub fn len(&self) -> usize {
        self.packets
    }

    /// Whether no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.packets == 0
    }

    /// Entries the flow queue holds right now, live and stale.
    pub fn queue_entries(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues `p` into its flow, re-ranking the flow per the policy.
    pub fn enqueue(&mut self, now: Nanos, p: Packet) {
        let id = p.flow;
        // Compute the new rank against the state *including* the new packet
        // (the paper's `f.rank = f.len` reads the updated length).
        let f = self.flow_mut(id);
        f.bytes += p.bytes as u64;
        f.fifo.push_back(p);
        let f = &self.flows[id as usize];
        let new_rank = self
            .policy
            .rank_on_enqueue(now, f, f.back().expect("just pushed"));
        self.apply_rank(id, new_rank);
        self.packets += 1;
    }

    /// Installs `new_rank` for flow `id`: parks on [`PARK`], otherwise
    /// (re-)inserts the flow's epoch-stamped entry when the rank changed.
    fn apply_rank(&mut self, id: FlowId, new_rank: u64) {
        let f = &mut self.flows[id as usize];
        let was_active = f.active;
        if new_rank == PARK {
            // Parked: no queue entry until the policy's advance surfaces
            // the flow again; any live entry goes stale.
            f.rank = PARK;
            f.active = false;
        } else if was_active && new_rank == f.rank {
            return; // the live entry already sits at this rank
        } else {
            // Invalidate any previous entry and insert the fresh one: the
            // O(1) re-rank.
            f.rank = new_rank;
            f.epoch += 1;
            f.active = true;
            let entry = (id, f.epoch);
            self.queue
                .enqueue(new_rank, entry)
                .unwrap_or_else(|e| panic!("flow rank {} outside queue range", e.rank));
        }
        if was_active {
            self.stale += 1;
            let live = self.queue.len() - self.stale;
            if self.stale > STALE_PER_LIVE * live.max(STALE_FLOOR) {
                self.compact();
            }
        }
    }

    /// Rebuilds the flow queue from its live entries, in the order it would
    /// have served them (rank, then FIFO), so service order is unchanged. A
    /// moving-window queue may rotate while it drains; entries then behind
    /// its window re-enter as "due now" — one FIFO bucket, which the
    /// re-entry order keeps sorted.
    fn compact(&mut self) {
        let mut entries = Vec::with_capacity(self.queue.len());
        self.queue.dequeue_batch(usize::MAX, &mut entries);
        for (rank, (id, epoch)) in entries {
            let f = &self.flows[id as usize];
            if f.active && f.epoch == epoch {
                self.queue
                    .enqueue(rank, (id, epoch))
                    .unwrap_or_else(|e| panic!("flow rank {} outside queue range", e.rank));
            }
        }
        self.stale = 0;
    }

    /// Fires the policy's poll hook: flows whose eligibility changed at
    /// `now` (limit gates opening, reservations coming due) are re-ranked —
    /// or unparked — through [`FlowPolicy::rank_now`].
    pub fn advance(&mut self, now: Nanos) {
        let mut ids = std::mem::take(&mut self.rerank_scratch);
        ids.clear();
        self.policy.advance(now, &mut ids);
        for &id in &ids {
            let idx = id as usize;
            if idx >= self.flows.len() || self.flows[idx].is_empty() {
                continue; // idle flows have nothing to re-rank
            }
            let new_rank = self.policy.rank_now(now, &self.flows[idx]);
            self.apply_rank(id, new_rank);
        }
        self.rerank_scratch = ids;
    }

    /// Earliest future instant the policy could surface parked or
    /// promotable work (`None` for enqueue-only policies).
    pub fn soonest_wakeup(&self) -> Option<Nanos> {
        self.policy.soonest_wakeup()
    }

    /// Whether the flow queue holds any entry at all. Entries may be stale
    /// (lazily invalidated re-ranks), so `true` can be a false positive —
    /// one dequeue pass cleans it up — but `false` is authoritative: with
    /// no entry, nothing is serviceable until a wakeup.
    pub fn has_queued_flows(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Dequeues the head packet of the minimum-rank flow, re-ranking the
    /// flow per the policy's on-dequeue hook. Fires the policy's
    /// [`FlowScheduler::advance`] first, so time-driven promotions and
    /// unparks are visible to this very selection.
    pub fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.advance(now);
        loop {
            let (_, (id, epoch)) = self.queue.dequeue_min()?;
            let f = &mut self.flows[id as usize];
            if !f.active || f.epoch != epoch {
                self.stale_skipped += 1;
                self.stale -= 1;
                continue; // lazily dropped re-rank leftover
            }
            // Valid entry: this flow is the scheduler's choice.
            f.active = false;
            let pkt = f.fifo.pop_front().expect("active flows hold packets");
            f.bytes -= pkt.bytes as u64;
            self.packets -= 1;
            let fr = &self.flows[id as usize];
            self.policy.on_serve(now, fr, &pkt);
            if !self.flows[id as usize].fifo.is_empty() {
                let fr = &self.flows[id as usize];
                let new_rank = self.policy.rank_on_dequeue(now, fr).unwrap_or(fr.rank);
                self.apply_rank(id, new_rank);
            }
            return Some(pkt);
        }
    }

    /// Rank of the best flow, skipping stale entries (read-only best effort:
    /// may report a stale bucket edge until the next dequeue cleans it).
    pub fn peek_min_rank(&self) -> Option<u64> {
        self.queue.peek_min_rank()
    }

    /// Dequeues up to `max` packets in exactly the order repeated
    /// [`FlowScheduler::dequeue`] calls would produce, appending them to
    /// `out`. Returns how many packets were moved.
    ///
    /// The amortization is the per-flow transaction itself: when the chosen
    /// flow's recomputed rank stays *strictly below* every queued bucket
    /// edge, the next single dequeue would pop this same flow again — its
    /// fresh entry would sit alone in a new minimum bucket — so the batch
    /// path keeps serving it without the enqueue/dequeue round trip. The
    /// moment the recomputed rank reaches another bucket (where FIFO order
    /// against already-queued entries matters) or the batch fills, the flow
    /// re-enters the queue exactly as the single-dequeue path would have
    /// left it. Stale entries make `peek_min_rank` read low, which only
    /// falls back to the exact path — never past it.
    ///
    /// The shortcut assumes the backing queue places and finds ranks
    /// exactly; [`FlowScheduler::with_kind`] enables it only for such
    /// kinds, and schedulers built over clamping/approximate queues (or
    /// via [`FlowScheduler::new`], which cannot tell) run this method as
    /// the plain dequeue loop — batched in call shape, identical in order
    /// by construction.
    pub fn dequeue_batch(&mut self, now: Nanos, max: usize, out: &mut Vec<Packet>) -> usize {
        let mut n = 0;
        'select: while n < max {
            self.advance(now);
            let Some((_, (id, epoch))) = self.queue.dequeue_min() else {
                break;
            };
            let f = &mut self.flows[id as usize];
            if !f.active || f.epoch != epoch {
                self.stale_skipped += 1;
                self.stale -= 1;
                continue; // lazily dropped re-rank leftover
            }
            f.active = false;
            loop {
                let f = &mut self.flows[id as usize];
                let pkt = f.fifo.pop_front().expect("chosen flows hold packets");
                f.bytes -= pkt.bytes as u64;
                self.packets -= 1;
                let fr = &self.flows[id as usize];
                self.policy.on_serve(now, fr, &pkt);
                out.push(pkt);
                n += 1;
                if self.flows[id as usize].fifo.is_empty() {
                    continue 'select; // flow drained: pick the next minimum
                }
                let fr = &self.flows[id as usize];
                let new_rank = self.policy.rank_on_dequeue(now, fr).unwrap_or(fr.rank);
                // PARK must never take the strict-minimum shortcut: an
                // empty queue reads as "still minimal" there, which would
                // keep serving a flow the policy just gated off.
                let parked = new_rank == PARK;
                // A wakeup due at `now` means the single-dequeue path's
                // per-pop advance could surface a better-ranked flow —
                // fall back to a fresh selection rather than keep serving.
                let still_strict_min = !parked
                    && self.batch_shortcut
                    && n < max
                    && self
                        .queue
                        .peek_min_rank()
                        .map_or(true, |edge| new_rank < edge)
                    && self.policy.soonest_wakeup().map_or(true, |w| w > now);
                if !still_strict_min {
                    // Re-enter (or park) the flow exactly as `dequeue` would.
                    self.apply_rank(id, new_rank);
                    continue 'select;
                }
                let f = &mut self.flows[id as usize];
                f.rank = new_rank;
                // Strictly minimal: serving again now is what the next
                // dequeue_min would do anyway.
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shortest-queue-first (inverse LQF) for testing: rank = queue length.
    struct SqfPolicy;

    impl FlowPolicy for SqfPolicy {
        fn rank_on_enqueue(&mut self, _now: Nanos, f: &FlowState, _p: &Packet) -> u64 {
            f.len() as u64
        }
        fn rank_on_dequeue(&mut self, _now: Nanos, f: &FlowState) -> Option<u64> {
            Some(f.len() as u64)
        }
    }

    fn pkt(id: u64, flow: FlowId) -> Packet {
        Packet::mtu(id, flow, 0)
    }

    fn sched() -> FlowScheduler {
        let cfg = QueueConfig::new(1_024, 1, 0);
        FlowScheduler::with_kind(Box::new(SqfPolicy), QueueKind::Cffs, cfg)
    }

    #[test]
    fn per_flow_fifo_is_preserved() {
        let mut s = sched();
        for i in 0..5 {
            s.enqueue(0, pkt(i, 0));
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(0).map(|p| p.id)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4], "no intra-flow reordering");
    }

    #[test]
    fn enqueue_rerank_moves_flow() {
        let mut s = sched();
        // Flow 0 gets 3 packets (rank 3), flow 1 gets 1 packet (rank 1):
        // shortest-queue-first must pick flow 1.
        s.enqueue(0, pkt(0, 0));
        s.enqueue(0, pkt(1, 0));
        s.enqueue(0, pkt(2, 0));
        s.enqueue(0, pkt(3, 1));
        assert_eq!(s.dequeue(0).unwrap().flow, 1);
        assert!(s.stale_skipped >= 1, "flow 0's re-ranks left stale entries");
    }

    #[test]
    fn dequeue_rerank_keeps_policy_consistent() {
        let mut s = sched();
        for i in 0..4 {
            s.enqueue(0, pkt(i, 0)); // flow 0: 4 pkts → rank 4
        }
        s.enqueue(0, pkt(10, 1));
        s.enqueue(0, pkt(11, 1)); // flow 1: 2 pkts → rank 2
                                  // SQF drains: f1 (2) → f1 becomes 1 → still min → f1 (1) → f1 empty
                                  // → f0 (rank recomputed downward as it drains).
        let flows: Vec<FlowId> = std::iter::from_fn(|| s.dequeue(0).map(|p| p.flow)).collect();
        assert_eq!(flows, vec![1, 1, 0, 0, 0, 0]);
        assert!(s.is_empty());
    }

    #[test]
    fn interleaves_flows_with_equal_ranks_fairly() {
        let mut s = sched();
        // Two flows with one packet each: both rank 1, FIFO between them.
        s.enqueue(0, pkt(0, 0));
        s.enqueue(0, pkt(1, 1));
        assert_eq!(s.dequeue(0).unwrap().flow, 0);
        assert_eq!(s.dequeue(0).unwrap().flow, 1);
    }

    /// A scheduler whose backing enables the strict-minimum batch
    /// shortcut (fixed-range exact queue), unlike `sched()`'s moving
    /// window.
    fn sched_exact() -> FlowScheduler {
        let cfg = QueueConfig::new(1_024, 1, 0);
        FlowScheduler::with_kind(Box::new(SqfPolicy), QueueKind::HierFfs, cfg)
    }

    #[test]
    fn dequeue_batch_matches_repeated_dequeue() {
        // Both backings: HierFfs exercises the strict-minimum shortcut,
        // Cffs (clamping window, shortcut disabled) the exact loop.
        dequeue_batch_matches_repeated_dequeue_on(sched_exact(), sched_exact());
        dequeue_batch_matches_repeated_dequeue_on(sched(), sched());
    }

    fn dequeue_batch_matches_repeated_dequeue_on(
        mut batched: FlowScheduler,
        mut single: FlowScheduler,
    ) {
        // Mirror two schedulers through an interleaved workload; the
        // batched one must emit the exact same packet sequence.
        let mut x: u64 = 0x5eed;
        let mut feed = |b: &mut FlowScheduler, s: &mut FlowScheduler, k| {
            for _ in 0..k {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let p = pkt(x, (x % 7) as FlowId);
                b.enqueue(0, p.clone());
                s.enqueue(0, p);
            }
        };
        feed(&mut batched, &mut single, 40);
        let mut out = Vec::new();
        for round in 0..50usize {
            let max = 1 + round % 9;
            out.clear();
            let got = batched.dequeue_batch(0, max, &mut out);
            assert_eq!(got, out.len());
            for p in &out {
                assert_eq!(Some(p.clone()), single.dequeue(0));
            }
            if got < max {
                assert!(single.dequeue(0).is_none());
            }
            feed(&mut batched, &mut single, round % 4);
        }
        while !batched.is_empty() {
            out.clear();
            batched.dequeue_batch(0, 5, &mut out);
            for p in &out {
                assert_eq!(Some(p.clone()), single.dequeue(0));
            }
        }
        assert!(single.dequeue(0).is_none());
    }

    #[test]
    fn compaction_drops_stale_entries_and_keeps_rank_then_fifo_order() {
        let mut s = sched();
        // Flows 1 and 2 tie at rank 3, flow 1 first; then flow 0 re-ranks
        // 300 times, each leaving a stale entry behind ranks 1..=299 that
        // shortest-queue-first would only reach after serving 1 and 2.
        for i in 0..3 {
            s.enqueue(0, pkt(i, 1));
        }
        for i in 0..3 {
            s.enqueue(0, pkt(10 + i, 2));
        }
        for i in 0..300 {
            s.enqueue(0, pkt(100 + i, 0));
        }
        let live = 3;
        assert!(
            s.queue_entries() <= live + STALE_PER_LIVE * STALE_FLOOR + 1,
            "stale entries were compacted away, {} left",
            s.queue_entries()
        );
        assert!(s.queue_entries() < 300, "at least one compaction ran");
        let flows: Vec<FlowId> = std::iter::from_fn(|| s.dequeue(0).map(|p| p.flow)).collect();
        let mut want = vec![1, 1, 1, 2, 2, 2];
        want.resize(306, 0);
        assert_eq!(flows, want, "rank order, FIFO between the tied flows");
        assert_eq!(s.queue_entries(), 0);
    }

    #[test]
    fn flow_count_grows_on_demand() {
        let mut s = sched();
        s.enqueue(0, pkt(0, 500));
        assert_eq!(s.len(), 1);
        assert_eq!(s.flow(500).len(), 1);
        assert_eq!(s.flow(499).len(), 0);
        assert_eq!(s.dequeue(0).unwrap().flow, 500);
    }
}
