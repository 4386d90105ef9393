//! Property: an inner node laid out as a rank store (one FIFO per child,
//! minimum over the heads) serves in exactly the order of the ranked queue
//! its program hints — FIFO among equal ranks and among the ranks of one
//! bucket included.
//!
//! Two trees of the same shape run the same script. In one the root
//! program declares per-key monotone ranks, so `TreeBuilder::build` gives
//! the root a rank store; in the other the same program sits behind a
//! wrapper that withholds the declaration, so the root keeps the hinted
//! queue (a comparison tree for WFQ, cFFS for STFQ and FIFO, an FFS word
//! for child priorities). Every `dequeue` / `dequeue_batch` result, the
//! backlog and the next wakeup must agree.

use eiffel_pifo::policies::{ChildPriority, Fifo, Lqf, Stfq, LQF_CAP};
use eiffel_pifo::{Lstf, NodeId, NodeProgram, PifoTree, RankCtx, TreeBuilder, Wfq};

use eiffel_core::{QueueConfig, QueueKind};
use eiffel_sim::{Nanos, Packet, Rate};
use proptest::prelude::*;

/// Forwards everything except the monotonicity declaration.
struct Undeclared(Box<dyn NodeProgram>);

impl NodeProgram for Undeclared {
    fn rank(&mut self, ctx: &RankCtx<'_>) -> u64 {
        self.0.rank(ctx)
    }

    fn on_dequeue(&mut self, rank: u64) {
        self.0.on_dequeue(rank)
    }

    fn queue_hint(&self) -> (QueueKind, QueueConfig) {
        self.0.queue_hint()
    }
}

const ROOTS: usize = 4;

/// The root program under test; child keys are node ids 1, 2, 3.
fn root_program(kind: usize) -> Box<dyn NodeProgram> {
    match kind {
        0 => {
            let mut wfq = Wfq::new();
            wfq.set_weight(1, 3);
            wfq.set_weight(2, 1);
            wfq.set_weight(3, 2);
            Box::new(wfq)
        }
        1 => {
            // Weights 3/1/2 over 60..1500-byte packets: many start tags
            // share one 1500-unit bucket of STFQ's cFFS hint.
            let mut stfq = Stfq::new();
            stfq.set_weight(1, 3);
            stfq.set_weight(2, 1);
            stfq.set_weight(3, 2);
            Box::new(stfq)
        }
        2 => Box::new(Fifo::new()),
        3 => Box::new(ChildPriority::new(&[(1, 1), (2, 0), (3, 1)])),
        _ => unreachable!("ROOTS kinds"),
    }
}

/// Which nodes carry a rate limit: bit 0 the root (pacing), bit 1 leaf
/// `a`, bit 2 the inner node `mid`, bit 3 its leaf `m1`.
type Limits = u8;

fn limit(limits: Limits, bit: u8, mbps: u64) -> Option<Rate> {
    (limits & (1 << bit) != 0).then(|| Rate::mbps(mbps))
}

/// ```text
/// root ── a    (FIFO leaf)
///      ── mid  (STFQ, a rank store in both trees) ── m1 (FIFO leaf)
///      │                                          ── m2 (LSTF leaf)
///      ── c    (flow:lqf leaf; `wide` shapes only)
/// ```
fn build(root_kind: usize, wide: bool, limits: Limits, declared: bool) -> (PifoTree, Vec<NodeId>) {
    let program = root_program(root_kind);
    let program = if declared {
        program
    } else {
        Box::new(Undeclared(program))
    };
    let mut b = TreeBuilder::new();
    let root = b.node("root", None, program, limit(limits, 0, 80));
    let a = b.node("a", Some(root), Box::new(Fifo::new()), limit(limits, 1, 30));
    let mid = b.node(
        "mid",
        Some(root),
        Box::new(Stfq::new()),
        limit(limits, 2, 60),
    );
    let mut leaves = vec![a];
    if wide {
        leaves.push(b.flow_leaf(
            "c",
            Some(root),
            Box::new(Lqf),
            QueueKind::Cffs.build(QueueConfig::new(4_096, 1, LQF_CAP - 4_096)),
            None,
        ));
    }
    leaves.push(b.node("m1", Some(mid), Box::new(Fifo::new()), limit(limits, 3, 20)));
    leaves.push(b.node("m2", Some(mid), Box::new(Lstf), None));
    (b.build().expect("non-empty tree"), leaves)
}

/// One arrival: `(time, leaf selector, flow, LSTF slack, bytes)`.
type Arrival = (Nanos, usize, u32, u64, u32);

/// Runs `arrivals` through both trees, pulling `pulls[i]` packets at probe
/// `i` (so backlog builds up at the root), through `dequeue_batch` when
/// `batched`, else through repeated `dequeue`; then drains.
fn assert_same_service(
    root_kind: usize,
    wide: bool,
    limits: Limits,
    arrivals: &[Arrival],
    pulls: &[usize],
    step: Nanos,
    batched: bool,
) {
    let (mut store, leaves) = build(root_kind, wide, limits, true);
    let (mut queue, _) = build(root_kind, wide, limits, false);
    let what = format!("root {root_kind} wide {wide} limits {limits:#06b} batched {batched}");
    let pull = |store: &mut PifoTree, queue: &mut PifoTree, now: Nanos, max: usize| {
        if batched {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            store.dequeue_batch(now, max, &mut got);
            queue.dequeue_batch(now, max, &mut want);
            assert_eq!(got, want, "{what}: batch of {max} at t={now}");
        } else {
            for _ in 0..max {
                let got = store.dequeue(now);
                assert_eq!(got, queue.dequeue(now), "{what}: dequeue at t={now}");
                if got.is_none() {
                    break;
                }
            }
        }
        assert_eq!(store.len(), queue.len(), "{what}: backlog at t={now}");
        assert_eq!(
            store.soonest_deadline(now),
            queue.soonest_deadline(now),
            "{what}: wakeup at t={now}"
        );
    };
    let mut now: Nanos = 0;
    let mut ai = 0;
    let mut probe = 0;
    while ai < arrivals.len() || !store.is_empty() {
        while ai < arrivals.len() && arrivals[ai].0 <= now {
            let (at, leaf, flow, slack, bytes) = arrivals[ai];
            let mut pkt = Packet::new(ai as u64, flow, bytes, at);
            pkt.rank = slack;
            let leaf = leaves[leaf % leaves.len()];
            store.enqueue(at, leaf, pkt.clone()).unwrap();
            queue.enqueue(at, leaf, pkt).unwrap();
            ai += 1;
        }
        // Once the arrivals are in, pull without a cap so the run ends.
        let max = if ai < arrivals.len() {
            pulls[probe % pulls.len()]
        } else {
            16
        };
        probe += 1;
        pull(&mut store, &mut queue, now, max);
        now += step;
        assert!(now < 60_000_000_000, "{what}: drain must converge");
    }
    assert!(queue.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random root program × shape × shaper geometry × script, once per
    /// dequeue flavour.
    #[test]
    fn rank_store_root_serves_like_the_hinted_queue(
        root_kind in 0usize..ROOTS,
        wide in any::<bool>(),
        limits in 0u8..16,
        arrivals in prop::collection::vec(
            (0u64..3_000_000, 0usize..4, 0u32..5, (1u64..1_000_000, 60u32..1_501)), 1..120),
        pulls in prop::collection::vec(0usize..6, 1..10),
        step in prop_oneof![Just(90_000u64), Just(400_000), Just(1_300_000)],
    ) {
        let mut arrivals: Vec<Arrival> = arrivals
            .into_iter()
            .map(|(at, leaf, flow, (slack, bytes))| (at, leaf, flow, slack, bytes))
            .collect();
        arrivals.sort();
        for batched in [false, true] {
            assert_same_service(root_kind, wide, limits, &arrivals, &pulls, step, batched);
        }
    }
}

/// Every root program meets every shaper geometry at least once, whatever
/// the generator draws.
#[test]
fn every_root_and_geometry_serves_identically() {
    let arrivals: Vec<Arrival> = (0..60u64)
        .map(|i| {
            (
                i * 53_000,
                (i * 7 % 4) as usize,
                (i % 5) as u32,
                1 + i * 97 % 900_000,
                60 + (i * 331 % 1_441) as u32,
            )
        })
        .collect();
    for root_kind in 0..ROOTS {
        for limits in 0..16 {
            for batched in [false, true] {
                assert_same_service(
                    root_kind,
                    limits % 2 == 0,
                    limits,
                    &arrivals,
                    &[0, 3, 1, 5],
                    250_000,
                    batched,
                );
            }
        }
    }
}
