//! The scheduling tree: PIFO's hierarchy plus Eiffel's extensions.
//!
//! A tree of nodes, each carrying a scheduling transaction
//! ([`crate::policies::Transaction`]) and a ranked queue of entries:
//!
//! * **inner nodes** order references to children — PIFO semantics: every
//!   packet arrival pushes one child reference per un-shaped ancestor, so
//!   dequeue is a rank-guided descent from the root;
//! * **packet leaves** order packets directly (per-packet transactions);
//! * **flow leaves** embed a [`FlowScheduler`] — Eiffel's per-flow ranking
//!   and on-dequeue ranking (§3.2.1);
//! * any node may carry a **rate limit**: its sub-tree's traffic is then
//!   gated by the hierarchy-wide [`Shaper`] (§3.2.2). A packet below shaped
//!   nodes clears one shaper stage per limit on its path — the Figure 8
//!   journey — and each stage re-enters the work-conserving hierarchy one
//!   level up, at a rank computed by that level's transaction.
//!
//! An inner node whose program issues non-decreasing ranks per child
//! ([`NodeProgram::per_key_monotone`]) does not sort its entries at all: it
//! is laid out as the PIFO block of *Programmable Packet Scheduling* §5.2 —
//! a **rank store** (one FIFO per child, in order by construction) under a
//! **flow scheduler** that compares only the ≤ fan-out heads. Same order as
//! the program's hinted queue, FIFO among equals included; a child
//! reference costs a `push_back`, not a comparison-tree insert. Other
//! programs, and per-packet leaves (whose keys are flow ids), keep the
//! hinted [`RankedQueue`]. [`TreeBuilder::build`] picks, from the
//! program's declaration and the tree's shape.
//!
//! The tree is driven in poll style: `advance(now)` fires due shaper
//! releases, `dequeue(now)` pops the best transmittable packet,
//! `soonest_deadline()` tells a timer-driven host when to wake up.

use std::collections::VecDeque;

use eiffel_core::{RankedQueue, Reciprocal};
use eiffel_sim::{Nanos, Packet, Rate};

use crate::flow::{FlowPolicy, FlowScheduler};
use crate::policies::{NodeProgram, RankCtx};
use crate::shaper::{Shaper, TokenStamper};

/// Node handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// What a node's queue orders.
enum Entry {
    /// A packet promoted (or directly enqueued) into this node.
    Packet(Packet),
    /// A reference to the child subtree holding the next element.
    Child(usize),
}

/// One element of a [`RankStore`] FIFO.
struct Ranked {
    rank: u64,
    /// Arrival number at the node: FIFO among equal ranks across children.
    seq: u64,
    entry: Entry,
}

/// Head key of an empty [`RankStore`] FIFO: after every real `(bucket, seq)`.
const NO_HEAD: (u64, u64) = (u64::MAX, u64::MAX);

/// Buckets of the shared shaper: with [`SHAPER_GRANULARITY`] a 65 ms
/// half-window, the longest rate-limit horizon multi-Mbps limits need.
const SHAPER_BUCKETS: usize = 65_536;

/// Release-time granularity of the shared shaper: 1 µs.
const SHAPER_GRANULARITY: Nanos = 1_000;

/// The body of an inner node whose program is per-key monotone: one FIFO
/// per child (the rank store) and the cached `(bucket, seq)` key of each
/// FIFO's front (the flow scheduler). The minimum head is the node's
/// minimum element, because no FIFO holds a smaller rank behind its front.
///
/// Heads compare at the granularity of the program's queue hint, so the
/// order is the one that bucketed queue would give (elements of one bucket
/// FIFO by arrival), without its window: no rank is ever clamped.
struct RankStore {
    /// Indexed by the child's [`Node::slot`].
    fifos: Vec<VecDeque<Ranked>>,
    heads: Vec<(u64, u64)>,
    bucket: Reciprocal,
    seq: u64,
    len: usize,
}

impl RankStore {
    fn new(fanout: usize, granularity: u64) -> Self {
        RankStore {
            fifos: (0..fanout).map(|_| VecDeque::new()).collect(),
            heads: vec![NO_HEAD; fanout],
            bucket: Reciprocal::new(granularity),
            seq: 0,
            len: 0,
        }
    }

    fn push(&mut self, slot: usize, rank: u64, entry: Entry) {
        let fifo = &mut self.fifos[slot];
        debug_assert!(
            fifo.back().map_or(true, |last| last.rank <= rank),
            "program declared per_key_monotone but ranked child slot {slot} at {rank} \
             behind a queued larger rank"
        );
        if fifo.is_empty() {
            self.heads[slot] = (self.bucket.div(rank), self.seq);
        }
        fifo.push_back(Ranked {
            rank,
            seq: self.seq,
            entry,
        });
        self.seq += 1;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(u64, Entry)> {
        let mut best = 0;
        for slot in 1..self.heads.len() {
            if self.heads[slot] < self.heads[best] {
                best = slot;
            }
        }
        let fifo = &mut self.fifos[best];
        let min = fifo.pop_front()?;
        self.heads[best] = fifo
            .front()
            .map_or(NO_HEAD, |next| (self.bucket.div(next.rank), next.seq));
        self.len -= 1;
        Some((min.rank, min.entry))
    }
}

/// What a node holds besides its program.
enum Body {
    /// Per-packet leaf, or inner node of a program that may rank a child
    /// below its own queued entries: the hinted ranked queue of [`Entry`].
    Queue(Box<dyn RankedQueue<Entry>>),
    /// Inner node of a per-key-monotone program.
    Heads(RankStore),
    /// Per-flow leaf (Eiffel extension #1/#2).
    Flows(FlowScheduler),
}

struct Node {
    name: String,
    parent: Option<usize>,
    /// Position among the parent's children (0 for the root).
    slot: usize,
    /// Number of children; 0 for leaves.
    fanout: usize,
    tx: Box<dyn NodeProgram>,
    body: Body,
    /// Rate limit: if present, elements below this node are invisible to
    /// the parent until the shaper releases them.
    limit: Option<TokenStamper>,
    /// Whether a shaper credit for this node is already pending.
    credit_pending: bool,
}

impl Node {
    /// Elements visible inside this node (packets for leaves, entries for
    /// inner nodes — one per packet below, by construction).
    fn backlog(&self) -> usize {
        match &self.body {
            Body::Queue(q) => q.len(),
            Body::Heads(rs) => rs.len,
            Body::Flows(f) => f.len(),
        }
    }

    /// Inserts an element that surfaced from child `slot` at `rank`.
    fn insert(&mut self, slot: usize, rank: u64, entry: Entry) {
        match &mut self.body {
            Body::Queue(q) => q
                .enqueue(rank, entry)
                .unwrap_or_else(|e| panic!("rank {} outside node queue range", e.rank)),
            Body::Heads(rs) => rs.push(slot, rank, entry),
            Body::Flows(_) => unreachable!("flow leaves have no children"),
        }
    }
}

/// Error raised when a policy tree is assembled inconsistently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Enqueue targeted a node that is not a leaf.
    NotALeaf(String),
    /// A node name was not found.
    UnknownNode(String),
    /// The tree has no nodes.
    Empty,
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::NotALeaf(n) => write!(f, "node '{n}' is not a leaf"),
            TreeError::UnknownNode(n) => write!(f, "unknown node '{n}'"),
            TreeError::Empty => write!(f, "tree has no nodes"),
        }
    }
}

impl std::error::Error for TreeError {}

/// The assembled scheduler.
pub struct PifoTree {
    nodes: Vec<Node>,
    shaper: Shaper<usize>,
    /// Packets that cleared the root's own rate limit (if any) and are
    /// ready for the wire.
    ready: VecDeque<Packet>,
    packets: usize,
    /// Reusable buffer for due shaper releases (hoisted off the hot
    /// `advance` path).
    due_scratch: Vec<(Nanos, usize)>,
    /// Pool of entry buffers for the batched descent (one per recursion
    /// depth in flight).
    entry_scratch: Vec<Vec<(u64, Entry)>>,
    /// Indices of flow leaves (their policies get `advance` on each poll).
    flow_leaves: Vec<usize>,
    /// Indices of nodes whose program asked for wall-time advances.
    advancing: Vec<usize>,
}

impl std::fmt::Debug for PifoTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PifoTree")
            .field("nodes", &self.nodes.len())
            .field("packets", &self.packets)
            .field("shaper_pending", &self.shaper.len())
            .field("ready", &self.ready.len())
            .finish()
    }
}

/// A node as declared to the builder; [`TreeBuilder::build`] gives it a body.
struct Draft {
    name: String,
    parent: Option<usize>,
    tx: Box<dyn NodeProgram>,
    /// The flow scheduler of a per-flow leaf.
    flows: Option<FlowScheduler>,
    limit: Option<Rate>,
}

/// Builder for [`PifoTree`].
pub struct TreeBuilder {
    nodes: Vec<Draft>,
}

impl TreeBuilder {
    /// Starts a builder. Every tree shares one shaper of 65 536 buckets of
    /// 1 µs: a 65 ms half-window, fine for multi-Mbps limits.
    pub fn new() -> Self {
        TreeBuilder { nodes: Vec::new() }
    }

    fn push(&mut self, parent: Option<NodeId>, draft: Draft) -> NodeId {
        let id = self.nodes.len();
        if let Some(p) = parent {
            assert!(p.0 < id, "parent must be created before child");
            assert!(
                self.nodes[p.0].flows.is_none(),
                "flow leaves cannot have children"
            );
        }
        self.nodes.push(draft);
        NodeId(id)
    }

    /// Adds an inner or per-packet-leaf node; it is an inner node if later
    /// nodes name it as their parent (and then takes no direct enqueues).
    pub fn node(
        &mut self,
        name: &str,
        parent: Option<NodeId>,
        tx: Box<dyn NodeProgram>,
        limit: Option<Rate>,
    ) -> NodeId {
        self.push(
            parent,
            Draft {
                name: name.to_string(),
                parent: parent.map(|p| p.0),
                tx,
                flows: None,
                limit,
            },
        )
    }

    /// Adds a per-flow leaf (Eiffel extension): `policy` ranks flows, and
    /// the flows are ordered by a queue built from `policy_queue`.
    pub fn flow_leaf(
        &mut self,
        name: &str,
        parent: Option<NodeId>,
        policy: Box<dyn FlowPolicy>,
        flow_queue: Box<dyn RankedQueue<(u32, u64)>>,
        limit: Option<Rate>,
    ) -> NodeId {
        // A parking policy keeps backlogged flows with *no* queue entry,
        // which would break the one-entry-per-packet invariant ancestors
        // rely on for their descent: only an unshaped root may park.
        assert!(
            !policy.may_park() || (parent.is_none() && limit.is_none()),
            "parking flow policies are only sound at an unshaped root"
        );
        self.push(
            parent,
            Draft {
                name: name.to_string(),
                parent: parent.map(|p| p.0),
                // Flow leaves rank flows internally; the node-level program
                // is unused, a FIFO placeholder keeps the type uniform.
                tx: Box::new(crate::policies::Fifo::new()),
                flows: Some(FlowScheduler::new(policy, flow_queue)),
                limit,
            },
        )
    }

    /// Finalizes the tree. Node 0 must be the root.
    ///
    /// The shape is now known, so each node gets its body here: a flow
    /// leaf its scheduler, an inner node of a per-key-monotone program the
    /// rank store, every other node the queue its program hints.
    pub fn build(self) -> Result<PifoTree, TreeError> {
        if self.nodes.is_empty() {
            return Err(TreeError::Empty);
        }
        assert!(self.nodes[0].parent.is_none(), "node 0 must be the root");
        let mut fanout = vec![0usize; self.nodes.len()];
        let mut slots = vec![0usize; self.nodes.len()];
        for (i, d) in self.nodes.iter().enumerate() {
            if let Some(p) = d.parent {
                slots[i] = fanout[p];
                fanout[p] += 1;
            }
        }
        let nodes: Vec<Node> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let (kind, cfg) = d.tx.queue_hint();
                let body = match d.flows {
                    Some(fs) => Body::Flows(fs),
                    None if fanout[i] > 0 && d.tx.per_key_monotone() => {
                        Body::Heads(RankStore::new(fanout[i], cfg.granularity))
                    }
                    None => Body::Queue(kind.build(cfg)),
                };
                Node {
                    name: d.name,
                    parent: d.parent,
                    slot: slots[i],
                    fanout: fanout[i],
                    tx: d.tx,
                    body,
                    limit: d.limit.map(TokenStamper::new),
                    credit_pending: false,
                }
            })
            .collect();
        let flow_leaves = (0..nodes.len())
            .filter(|&i| matches!(nodes[i].body, Body::Flows(_)))
            .collect();
        let advancing = (0..nodes.len())
            .filter(|&i| nodes[i].tx.needs_advance())
            .collect();
        Ok(PifoTree {
            flow_leaves,
            advancing,
            nodes,
            shaper: Shaper::new(SHAPER_BUCKETS, SHAPER_GRANULARITY, 0),
            ready: VecDeque::new(),
            packets: 0,
            due_scratch: Vec::new(),
            entry_scratch: Vec::new(),
        })
    }
}

impl Default for TreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PifoTree {
    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Result<NodeId, TreeError> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(NodeId)
            .ok_or_else(|| TreeError::UnknownNode(name.to_string()))
    }

    /// Total packets held anywhere in the tree (including shaper stages and
    /// the ready line).
    pub fn len(&self) -> usize {
        self.packets
    }

    /// Whether the tree holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets == 0
    }

    /// Enqueues `pkt` at leaf `leaf` (chosen by the packet annotator).
    /// A node that has children takes none directly: [`TreeError::NotALeaf`].
    pub fn enqueue(&mut self, now: Nanos, leaf: NodeId, pkt: Packet) -> Result<(), TreeError> {
        let idx = leaf.0;
        if self.nodes[idx].fanout > 0 {
            return Err(TreeError::NotALeaf(self.nodes[idx].name.clone()));
        }
        // Ancestors first: they only read the packet, which can then move
        // into the leaf un-cloned. Nothing pops in between, and programs
        // share no state across nodes, so the order is unobservable.
        self.propagate_up(now, idx, &pkt);
        let node = &mut self.nodes[idx];
        match &mut node.body {
            Body::Flows(fs) => fs.enqueue(now, pkt),
            Body::Queue(q) => {
                let rank = node.tx.rank(&RankCtx {
                    now,
                    pkt: &pkt,
                    key: pkt.flow as u64,
                });
                q.enqueue(rank, Entry::Packet(pkt))
                    .unwrap_or_else(|e| panic!("rank {} outside node queue range", e.rank));
            }
            Body::Heads(_) => unreachable!("only inner nodes get a rank store"),
        }
        self.packets += 1;
        Ok(())
    }

    /// An element (described by `meta`) is landing in `idx`: make it
    /// visible upward — push child references at each un-shaped ancestor;
    /// stop at a shaped node and arm its shaper credit instead (§3.2.2
    /// decoupling).
    fn propagate_up(&mut self, now: Nanos, mut idx: usize, meta: &Packet) {
        loop {
            if self.nodes[idx].limit.is_some() {
                self.ensure_credit(now, idx);
                return;
            }
            let Some(parent) = self.nodes[idx].parent else {
                return;
            };
            let slot = self.nodes[idx].slot;
            let up = &mut self.nodes[parent];
            let rank = up.tx.rank(&RankCtx {
                now,
                pkt: meta,
                key: idx as u64,
            });
            up.insert(slot, rank, Entry::Child(idx));
            idx = parent;
        }
    }

    /// Arms a shaper credit for node `idx` if none is pending.
    fn ensure_credit(&mut self, now: Nanos, idx: usize) {
        if self.nodes[idx].credit_pending {
            return;
        }
        let st = self.nodes[idx]
            .limit
            .as_ref()
            .expect("only shaped nodes get credits");
        let release = st.next_eligible().max(now);
        self.nodes[idx].credit_pending = true;
        self.shaper.schedule(release, idx);
    }

    /// Pops the best packet *within* node `idx`'s subtree (rank-guided
    /// descent; never crosses a shaped descendant — its elements are not
    /// visible here until released).
    fn pop_local(&mut self, now: Nanos, idx: usize) -> Packet {
        let (rank, entry) = match &mut self.nodes[idx].body {
            Body::Flows(fs) => return fs.dequeue(now).expect("descent reached an empty flow leaf"),
            Body::Queue(q) => q.dequeue_min().expect("descent reached an empty node"),
            Body::Heads(rs) => rs.pop().expect("descent reached an empty node"),
        };
        self.nodes[idx].tx.on_dequeue(rank);
        match entry {
            Entry::Packet(p) => p,
            Entry::Child(c) => self.pop_local(now, c),
        }
    }

    /// Applies every time-driven state change due at or before `now`:
    /// node-program and flow-policy advances (virtual-time promotions,
    /// limit gates opening), then every due shaper release — each release
    /// pops the best packet of the shaped node's subtree and re-inserts it
    /// one level up (or into the ready line if the node is the root).
    ///
    /// Idempotent at a fixed `now` once the shaper has no more due work
    /// (releases processed at `ts` can schedule follow-up credits still
    /// due at `now`; callers polling transmittability should loop on
    /// [`PifoTree::dequeue`], which re-advances).
    pub fn advance(&mut self, now: Nanos) {
        for i in 0..self.advancing.len() {
            let idx = self.advancing[i];
            self.nodes[idx].tx.advance(now);
        }
        for i in 0..self.flow_leaves.len() {
            let idx = self.flow_leaves[i];
            let Body::Flows(fs) = &mut self.nodes[idx].body else {
                unreachable!("flow_leaves indexes flow leaves")
            };
            fs.advance(now);
        }
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        self.shaper.release_due(now, &mut due);
        for (ts, idx) in due.drain(..) {
            self.nodes[idx].credit_pending = false;
            debug_assert!(self.nodes[idx].backlog() > 0, "credit without backlog");
            // The release happened at `ts`: pop, stamp and re-rank in that
            // instant's context, not the (possibly later) poll time — a
            // later-released packet must not rank ahead of one released
            // earlier just because both were observed in the same poll.
            let pkt = self.pop_local(ts, idx);
            // Advance the node's rate-limit clock by this packet's cost.
            let st = self.nodes[idx]
                .limit
                .as_mut()
                .expect("credit on unshaped node");
            let _ = st.stamp(ts, pkt.bytes as u64);
            // More backlog ⇒ next credit at the limit's new eligibility.
            if self.nodes[idx].backlog() > 0 {
                self.ensure_credit(ts, idx);
            }
            match self.nodes[idx].parent {
                None => self.ready.push_back(pkt),
                Some(parent) => {
                    // As in `enqueue`: the ancestors read the packet before
                    // it moves into the parent.
                    self.propagate_up(ts, parent, &pkt);
                    let slot = self.nodes[idx].slot;
                    let up = &mut self.nodes[parent];
                    let rank = up.tx.rank(&RankCtx {
                        now: ts,
                        pkt: &pkt,
                        key: idx as u64,
                    });
                    up.insert(slot, rank, Entry::Packet(pkt));
                }
            }
        }
        self.due_scratch = due;
    }

    /// Removes the next transmittable packet: the ready line first (root
    /// shaping), then the root's work-conserving order.
    pub fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        loop {
            self.advance(now);
            if let Some(p) = self.ready.pop_front() {
                self.packets -= 1;
                return Some(p);
            }
            if self.nodes[0].limit.is_some() {
                // Root is paced: everything must flow through the shaper.
                // A release at `ts` can schedule a follow-up credit still
                // due at `now` (nested limits chain one hop per advance
                // pass), so quiesce before declaring nothing transmittable.
                if self.shaper_due(now) {
                    continue;
                }
                return None;
            }
            if let Body::Flows(fs) = &mut self.nodes[0].body {
                // Root flow leaf: the policy may hold everything parked.
                let p = fs.dequeue(now)?;
                self.packets -= 1;
                return Some(p);
            }
            if self.nodes[0].backlog() == 0 {
                if self.shaper_due(now) {
                    continue;
                }
                return None;
            }
            let p = self.pop_local(now, 0);
            self.packets -= 1;
            return Some(p);
        }
    }

    /// Whether the shaper holds a release due at or before `now`.
    fn shaper_due(&self, now: Nanos) -> bool {
        self.shaper.soonest_deadline().is_some_and(|d| d <= now)
    }

    /// Dequeues up to `max` packets in exactly the order repeated
    /// [`PifoTree::dequeue`] calls at `now` would produce, appending them
    /// to `out`. Returns how many packets were moved.
    ///
    /// The amortization is the batched descent (`pop_local_batch`):
    /// one bucketed-queue `dequeue_batch` per visited node per batch
    /// instead of one full root-to-leaf descent per packet. Whenever
    /// shaper work is due at `now` — where repeated single dequeues would
    /// interleave releases with pops — the loop falls back to single
    /// steps, so the emitted order stays identical (proptest-pinned in
    /// `tests/tree_batch_equivalence.rs`).
    pub fn dequeue_batch(&mut self, now: Nanos, max: usize, out: &mut Vec<Packet>) -> usize {
        let mut n = 0;
        while n < max {
            self.advance(now);
            while n < max {
                let Some(p) = self.ready.pop_front() else {
                    break;
                };
                self.packets -= 1;
                out.push(p);
                n += 1;
            }
            if n >= max {
                break;
            }
            if self.nodes[0].limit.is_some() {
                // Paced root: only the shaper feeds `ready`; more due work
                // means another advance pass, else nothing transmits now.
                if self.shaper_due(now) {
                    continue;
                }
                break;
            }
            if let Body::Flows(fs) = &mut self.nodes[0].body {
                // Childless root: the shaper is necessarily empty, and the
                // flow scheduler's own batch path is proven equivalent.
                let got = fs.dequeue_batch(now, max - n, out);
                self.packets -= got;
                n += got;
                break;
            }
            if self.nodes[0].backlog() == 0 {
                if self.shaper_due(now) {
                    continue;
                }
                break;
            }
            if self.shaper_due(now) {
                // Releases due at `now` interleave with root pops under
                // repeated dequeue: single-step to keep the order identical.
                let p = self.pop_local(now, 0);
                self.packets -= 1;
                out.push(p);
                n += 1;
                continue;
            }
            let got = self.pop_local_batch(now, 0, max - n, out);
            self.packets -= got;
            n += got;
            if got == 0 {
                break;
            }
        }
        n
    }

    /// Batched descent: pops up to `max` packets from node `idx`'s subtree
    /// in exactly repeated-[`PifoTree::pop_local`] order, with one queue
    /// `dequeue_batch` per visited node. Runs of consecutive entries
    /// pointing at the same child become one recursive call — by the
    /// one-entry-per-packet invariant, a run of `k` child references is
    /// exactly `k` packets below.
    fn pop_local_batch(
        &mut self,
        now: Nanos,
        idx: usize,
        max: usize,
        out: &mut Vec<Packet>,
    ) -> usize {
        if let Body::Flows(fs) = &mut self.nodes[idx].body {
            return fs.dequeue_batch(now, max, out);
        }
        let mut entries = self.entry_scratch.pop().unwrap_or_default();
        entries.clear();
        let got = match &mut self.nodes[idx].body {
            Body::Queue(q) => q.dequeue_batch(max, &mut entries),
            Body::Heads(rs) => {
                entries.extend(std::iter::from_fn(|| rs.pop()).take(max));
                entries.len()
            }
            Body::Flows(_) => unreachable!("returned above"),
        };
        let mut it = entries.drain(..).peekable();
        while let Some((rank, entry)) = it.next() {
            self.nodes[idx].tx.on_dequeue(rank);
            match entry {
                Entry::Packet(p) => out.push(p),
                Entry::Child(c) => {
                    let mut run = 1;
                    while let Some((r2, Entry::Child(c2))) = it.peek() {
                        if *c2 != c {
                            break;
                        }
                        self.nodes[idx].tx.on_dequeue(*r2);
                        it.next();
                        run += 1;
                    }
                    let sub = self.pop_local_batch(now, c, run, out);
                    debug_assert_eq!(sub, run, "child entries must match backlog");
                }
            }
        }
        drop(it);
        self.entry_scratch.push(entries);
        got
    }

    /// When a timer-driven host should wake next: immediately if something
    /// is transmittable, else the earliest of the shaper's releases and
    /// the flow policies' wakeups (parked flows, pending promotions).
    pub fn soonest_deadline(&self, now: Nanos) -> Option<Nanos> {
        if !self.ready.is_empty() {
            return Some(now);
        }
        if self.nodes[0].limit.is_none() {
            match &self.nodes[0].body {
                // Entries exist only for packets visible at the root —
                // backlog parked behind shaped descendants (or a parking
                // policy) does not count, so no busy-wake here.
                Body::Queue(q) if !q.is_empty() => return Some(now),
                Body::Heads(rs) if rs.len > 0 => return Some(now),
                Body::Flows(fs) if fs.has_queued_flows() => return Some(now),
                _ => {}
            }
        }
        let mut best = self.shaper.soonest_deadline();
        for &i in &self.flow_leaves {
            let Body::Flows(fs) = &self.nodes[i].body else {
                unreachable!("flow_leaves indexes flow leaves")
            };
            if let Some(w) = fs.soonest_wakeup() {
                best = Some(best.map_or(w, |b| b.min(w)));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{ChildPriority, Edf, Fifo, Lqf, Lstf, Stfq, StrictPriority, Wfq};
    use eiffel_core::{QueueConfig, QueueKind};

    fn pkt(id: u64, flow: u32, class: u32, at: Nanos) -> Packet {
        let mut p = Packet::mtu(id, flow, at);
        p.class = class;
        p
    }

    #[test]
    fn single_fifo_leaf_acts_as_fifo() {
        let mut b = TreeBuilder::new();
        let root = b.node("root", None, Box::new(Fifo::new()), None);
        let mut t = b.build().unwrap();
        for i in 0..5 {
            t.enqueue(0, root, pkt(i, 0, 0, 0)).unwrap();
        }
        let ids: Vec<u64> = std::iter::from_fn(|| t.dequeue(0).map(|p| p.id)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(t.is_empty());
    }

    #[test]
    fn strict_priority_between_leaves() {
        // root(ChildPriority) ── hi(Fifo), lo(Fifo)
        let mut b = TreeBuilder::new();
        let root = b.node(
            "root",
            None,
            Box::new(ChildPriority::new(&[(1, 0), (2, 1)])),
            None,
        );
        let hi = b.node("hi", Some(root), Box::new(Fifo::new()), None);
        let lo = b.node("lo", Some(root), Box::new(Fifo::new()), None);
        let mut t = b.build().unwrap();
        t.enqueue(0, lo, pkt(0, 0, 0, 0)).unwrap();
        t.enqueue(0, lo, pkt(1, 0, 0, 0)).unwrap();
        t.enqueue(0, hi, pkt(2, 1, 0, 0)).unwrap();
        // High-priority child drains first even though it arrived last.
        assert_eq!(t.dequeue(0).unwrap().id, 2);
        assert_eq!(t.dequeue(0).unwrap().id, 0);
        assert_eq!(t.dequeue(0).unwrap().id, 1);
    }

    #[test]
    fn leaf_rate_limit_gates_release() {
        // One leaf limited to 12 Mbps (1 ms per MTU), unshaped root.
        let mut b = TreeBuilder::new();
        let root = b.node("root", None, Box::new(Fifo::new()), None);
        let leaf = b.node(
            "leaf",
            Some(root),
            Box::new(Fifo::new()),
            Some(Rate::mbps(12)),
        );
        let mut t = b.build().unwrap();
        for i in 0..3 {
            t.enqueue(0, leaf, pkt(i, 0, 0, 0)).unwrap();
        }
        // t=0: first packet released immediately (idle limiter).
        assert_eq!(t.dequeue(0).map(|p| p.id), Some(0));
        assert_eq!(t.dequeue(0), None, "second packet still shaped");
        // Soonest deadline points at the next release (bucket-granular ≤ 1ms).
        let d = t.soonest_deadline(0).unwrap();
        assert!(d <= 1_000_000);
        assert_eq!(t.dequeue(1_000_000).map(|p| p.id), Some(1));
        assert_eq!(t.dequeue(1_999_999), None);
        assert_eq!(t.dequeue(2_000_000).map(|p| p.id), Some(2));
    }

    #[test]
    fn figure7_two_nested_limits_and_paced_root() {
        // The paper's Figure 7/8 example: leaf at 7 Mbps under an inner node
        // at 10 Mbps under a paced root. A packet must clear three shaper
        // stages; the total rate is min(7, 10, pace).
        let mut b = TreeBuilder::new();
        let root = b.node("root", None, Box::new(Fifo::new()), Some(Rate::mbps(20)));
        let inner = b.node(
            "pq2",
            Some(root),
            Box::new(Fifo::new()),
            Some(Rate::mbps(10)),
        );
        let leaf = b.node(
            "pq3",
            Some(inner),
            Box::new(Fifo::new()),
            Some(Rate::mbps(7)),
        );
        let mut t = b.build().unwrap();
        let n = 20u64;
        for i in 0..n {
            t.enqueue(0, leaf, pkt(i, 0, 0, 0)).unwrap();
        }
        // Drain with a 1 µs-stepped clock for 3 simulated seconds.
        let mut got = Vec::new();
        let mut now = 0;
        while got.len() < n as usize && now < 3_000_000_000 {
            now += 100_000;
            while let Some(p) = t.dequeue(now) {
                got.push((now, p.id));
            }
        }
        assert_eq!(got.len(), n as usize, "all packets eventually released");
        // In order (single flow through FIFOs).
        assert!(got.windows(2).all(|w| w[0].1 < w[1].1));
        // Effective rate ≈ 7 Mbps: 20 MTU = 240 kbit / 7 Mbps ≈ 34.3 ms.
        let last = got.last().unwrap().0;
        let expect = 8 * 1_500 * (n - 1) * 1_000 / 7; // ns
        let rel = (last as f64 - expect as f64).abs() / expect as f64;
        assert!(rel < 0.05, "drain took {last} ns, expected ≈{expect} ns");
    }

    #[test]
    fn flow_leaf_inside_tree() {
        let mut b = TreeBuilder::new();
        let root = b.node("root", None, Box::new(StrictPriority), None);
        let lqf = b.flow_leaf(
            "lqf",
            Some(root),
            Box::new(Lqf),
            QueueKind::Cffs.build(QueueConfig::new(4_096, 1, crate::policies::LQF_CAP - 4_096)),
            None,
        );
        let mut t = b.build().unwrap();
        t.enqueue(0, lqf, pkt(0, 0, 0, 0)).unwrap();
        t.enqueue(0, lqf, pkt(1, 0, 0, 0)).unwrap();
        t.enqueue(0, lqf, pkt(2, 1, 0, 0)).unwrap();
        // Flow 0 is longer: LQF serves it first.
        assert_eq!(t.dequeue(0).unwrap().flow, 0);
        let mut rest = Vec::new();
        while let Some(p) = t.dequeue(0) {
            rest.push(p.flow);
        }
        assert_eq!(rest.len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn enqueue_at_an_inner_node_is_refused() {
        let mut b = TreeBuilder::new();
        let root = b.node("root", None, Box::new(Wfq::new()), None);
        let mid = b.node("mid", Some(root), Box::new(Lstf), None);
        let leaf = b.node("leaf", Some(mid), Box::new(Fifo::new()), None);
        let mut t = b.build().unwrap();
        for inner in [root, mid] {
            let name = t.nodes[inner.0].name.clone();
            assert_eq!(
                t.enqueue(0, inner, pkt(0, 0, 0, 0)),
                Err(TreeError::NotALeaf(name))
            );
        }
        assert!(t.is_empty(), "a refused packet is not counted");
        assert_eq!(t.dequeue(0), None);
        t.enqueue(0, leaf, pkt(1, 0, 0, 0)).unwrap();
        assert_eq!(t.dequeue(0).map(|p| p.id), Some(1));
    }

    #[test]
    fn build_picks_the_body_from_the_program_and_the_shape() {
        let mut b = TreeBuilder::new();
        let root = b.node("root", None, Box::new(Wfq::new()), None);
        // Per-key monotone and inner: rank store.
        let stfq = b.node("stfq", Some(root), Box::new(Stfq::new()), None);
        let prio = b.node("prio", Some(root), Box::new(ChildPriority::new(&[])), None);
        let fifo = b.node("fifo", Some(root), Box::new(Fifo::new()), None);
        // Inner, but deadlines and slacks may rank a child below its own
        // queued entries: the hinted queue.
        let edf = b.node("edf", Some(root), Box::new(Edf::new(vec![1_000])), None);
        let lstf = b.node("lstf", Some(root), Box::new(Lstf), None);
        let inner = [stfq, prio, fifo, edf, lstf];
        // One per-packet leaf under each, all of monotone programs: leaves
        // key by flow id and keep the hinted queue.
        for (i, parent) in inner.iter().enumerate() {
            b.node(
                &format!("leaf{i}"),
                Some(*parent),
                Box::new(Fifo::new()),
                None,
            );
        }
        let t = b.build().unwrap();
        let is_store = |id: NodeId| matches!(t.nodes[id.0].body, Body::Heads(_));
        let is_queue = |id: NodeId| matches!(t.nodes[id.0].body, Body::Queue(_));
        assert!([root, stfq, prio, fifo].into_iter().all(is_store));
        assert!([edf, lstf].into_iter().all(is_queue));
        assert!((6..11).all(|i| is_queue(NodeId(i))));
        assert_eq!(t.nodes[root.0].fanout, 5);
        assert_eq!(t.nodes[lstf.0].slot, 4);
    }

    /// Claims per-key monotone ranks, issues decreasing ones.
    struct Liar(u64);

    impl NodeProgram for Liar {
        fn rank(&mut self, _ctx: &RankCtx<'_>) -> u64 {
            self.0 -= 1;
            self.0
        }

        fn per_key_monotone(&self) -> bool {
            true
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "declared per_key_monotone")]
    fn a_program_lying_about_monotonicity_trips_the_debug_assertion() {
        let mut b = TreeBuilder::new();
        let root = b.node("root", None, Box::new(Liar(100)), None);
        let leaf = b.node("leaf", Some(root), Box::new(Fifo::new()), None);
        let mut t = b.build().unwrap();
        t.enqueue(0, leaf, pkt(0, 0, 0, 0)).unwrap();
        t.enqueue(0, leaf, pkt(1, 0, 0, 0)).unwrap();
    }

    /// Ledger finding 2: under one-for-one replacement no LQF flow gets
    /// shorter than 3, so the entries invalidated behind that rank are
    /// never reached by the service; the flow queue used to grow by one
    /// entry per packet (7 MB → 409 MB over 10 M packets).
    #[test]
    fn lqf_flow_queue_stays_proportional_to_the_flows() {
        const FLOWS: u32 = 2_500;
        let mut t = crate::lang::compile(
            "node root kind=wfq\n\
             node bulk parent=root kind=flow:lqf\n",
        )
        .unwrap();
        let bulk = t.node_by_name("bulk").unwrap();
        let mut id = 0;
        for _ in 0..4 {
            for flow in 0..FLOWS {
                t.enqueue(0, bulk, pkt(id, flow, 0, 0)).unwrap();
                id += 1;
            }
        }
        for _ in 0..1_000_000 {
            let served = t.dequeue(0).expect("steady occupancy");
            t.enqueue(0, bulk, pkt(id, served.flow, 0, 0)).unwrap();
            id += 1;
        }
        let Body::Flows(fs) = &t.nodes[bulk.0].body else {
            panic!("flow:lqf compiles to a flow leaf");
        };
        assert_eq!(t.len(), 4 * FLOWS as usize);
        assert!(
            fs.queue_entries() <= 4 * FLOWS as usize,
            "{} flow-queue entries for {FLOWS} flows",
            fs.queue_entries()
        );
    }

    #[test]
    fn unknown_node_lookup_fails() {
        let mut b = TreeBuilder::new();
        b.node("root", None, Box::new(Fifo::new()), None);
        let t = b.build().unwrap();
        assert!(matches!(
            t.node_by_name("nope"),
            Err(TreeError::UnknownNode(_))
        ));
        assert!(t.node_by_name("root").is_ok());
    }

    #[test]
    fn empty_build_fails() {
        assert!(matches!(TreeBuilder::new().build(), Err(TreeError::Empty)));
    }
}
