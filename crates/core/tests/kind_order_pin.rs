//! Pin of every `QueueKind`'s observable behaviour.
//!
//! A seeded, tie-heavy script of enqueues (in range, below the base, past
//! the span, and drifting with a moving "now"), single and batched
//! min-dequeues, max-dequeues and peeks runs through `QueueKind::build` for
//! every kind at two geometries: granularity 1, and granularity 10 with a
//! non-zero base (so ranks tie inside a bucket and fall below the range).
//! An FNV-1a digest of every result — popped `(rank, item)` pairs, refused
//! `(rank, item)` pairs, peeks, lengths, and the final `stats()` — is
//! compared against constants recorded before the bucketed queues were
//! folded into one store. A queue that reorders a single tie, refuses or
//! clamps a rank differently, or moves a counter changes its digest.
//!
//! A second case drives `CffsQueue::dequeue_min_le` / `dequeue_le_batch`
//! with a moving bound across many window rotations.
//!
//! On mismatch the panic prints the full table of new constants, so a
//! change that moves an order on purpose pastes them in and says why.

use eiffel_core::{CffsQueue, QueueConfig, QueueKind, RankedQueue};

/// FNV-1a, 64-bit, over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.word(1);
                self.word(x);
            }
            None => self.word(0),
        }
    }

    fn pair(&mut self, p: Option<(u64, u64)>) {
        match p {
            Some((r, v)) => {
                self.word(1);
                self.word(r);
                self.word(v);
            }
            None => self.word(0),
        }
    }
}

/// xorshift64: the script's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const KINDS: [QueueKind; 10] = [
    QueueKind::Ffs,
    QueueKind::HierFfs,
    QueueKind::Cffs,
    QueueKind::ApproxGradient { alpha: 16 },
    QueueKind::CircularApprox { alpha: 16 },
    QueueKind::BucketHeap,
    QueueKind::SpPifo { queues: 8 },
    QueueKind::Rifo,
    QueueKind::BinaryHeap,
    QueueKind::BTree,
];

/// `(granularity, start_rank)` of the two geometries.
const GEOMETRIES: [(u64, u64); 2] = [(1, 0), (10, 500)];

const OPS: usize = 6_000;

fn config(kind: QueueKind, (granularity, start): (u64, u64)) -> QueueConfig {
    let n = if kind == QueueKind::Ffs { 64 } else { 700 };
    QueueConfig::new(n, granularity, start)
}

/// A rank for the script: mostly a handful of tied values, then uniform
/// in range, past the span (refused or clamped high), below the base
/// (refused or clamped low), and a drifting "now" that moves circular
/// windows through rotations.
fn rank(rng: &mut Rng, cfg: QueueConfig, now: u64) -> u64 {
    let (start, span, g) = (cfg.start_rank, cfg.span(), cfg.granularity);
    match rng.below(20) {
        0..=7 => start + rng.below(6) * (span / 6) + rng.below(g),
        8..=12 => start + rng.below(span),
        13..=14 => start + span + rng.below(2 * span),
        15 => start.saturating_sub(1 + rng.below(g * 3)),
        _ => start + now + rng.below(span / 4),
    }
}

fn digest_kind(kind: QueueKind, geometry: (u64, u64), seed: u64) -> u64 {
    let cfg = config(kind, geometry);
    let mut q: Box<dyn RankedQueue<u64>> = kind.build(cfg);
    let mut rng = Rng(seed);
    let mut h = Fnv::new();
    let mut out = Vec::new();
    let mut now = 0u64;
    for item in 0..OPS as u64 {
        match rng.below(100) {
            0..=54 => {
                let r = rank(&mut rng, cfg, now);
                match q.enqueue(r, item) {
                    Ok(()) => h.word(10),
                    Err(e) => {
                        h.word(11);
                        h.word(e.rank);
                        h.word(e.item);
                    }
                }
            }
            55..=69 => {
                h.word(20);
                h.pair(q.dequeue_min());
                now = (now + cfg.granularity) % (4 * cfg.span());
            }
            70..=79 => {
                let k = 1 + rng.below(8) as usize;
                out.clear();
                let got = q.dequeue_batch(k, &mut out);
                h.word(30);
                h.word(got as u64);
                for &(r, v) in &out {
                    h.word(r);
                    h.word(v);
                }
            }
            80..=87 => {
                h.word(40);
                h.pair(q.dequeue_max());
            }
            _ => {
                h.word(50);
                h.opt(q.peek_min_rank());
            }
        }
        h.word(q.len() as u64);
    }
    h.word(60);
    while let Some(p) = q.dequeue_min() {
        h.pair(Some(p));
    }
    let s = q.stats();
    for w in [
        s.clamped_low,
        s.clamped_high,
        s.lookups,
        s.error_sum,
        s.est_hits,
        s.est_misses,
    ] {
        h.word(w);
    }
    h.0
}

/// `CffsQueue`'s bounded dequeues: a bound that advances in steps, with
/// enqueues around it, so probes are rejected, accepted, and cross
/// rotations into the secondary half.
fn digest_cffs_bounded(seed: u64) -> u64 {
    let mut q: CffsQueue<u64> = CffsQueue::new(64, 10, 0);
    let mut rng = Rng(seed);
    let mut h = Fnv::new();
    let mut out = Vec::new();
    let mut bound = 0u64;
    for item in 0..OPS as u64 {
        match rng.below(10) {
            0..=4 => {
                let r = bound.saturating_sub(20) + rng.below(1_500);
                q.enqueue(r, item).expect("circular queues never refuse");
                h.word(10);
            }
            5..=6 => {
                h.word(20);
                h.pair(q.dequeue_min_le(bound));
            }
            7..=8 => {
                let k = 1 + rng.below(6) as usize;
                out.clear();
                let got = q.dequeue_le_batch(bound, k, &mut out);
                h.word(30);
                h.word(got as u64);
                for &(r, v) in &out {
                    h.word(r);
                    h.word(v);
                }
            }
            _ => {
                bound += rng.below(40);
                h.word(40);
                h.word(q.h_index());
            }
        }
        h.word(q.len() as u64);
    }
    let s = q.stats();
    h.word(s.clamped_low);
    h.word(s.clamped_high);
    h.0
}

const SEED: u64 = 0x26_0e1f_fe1a_5eed;

/// Recorded digests, one per `(kind, geometry)` in `KINDS × GEOMETRIES`
/// order.
const KIND_DIGESTS: [[u64; 2]; 10] = [
    [0x316ea96ae768981c, 0x44186668f4612de1], // Ffs
    [0xea0d831c6c612337, 0xd18238f0255bb04d], // HierFfs
    [0x9707728b848dc967, 0x212f555ef35356a1], // Cffs
    [0x11745aa189b21797, 0xb3c4d02b68a8bd46], // ApproxGradient { alpha: 16 }
    [0x3ec37c383829080e, 0x6538131d6ecb854a], // CircularApprox { alpha: 16 }
    [0x4c4f4d455e2532d2, 0x5ad9c54c8d4341e4], // BucketHeap
    [0x634ac524d120f7ea, 0xf8c667b8b6fe16ab], // SpPifo { queues: 8 }
    [0xfbc9af9e1fd4229d, 0x32df0edd9fd3e5e4], // Rifo
    [0x481749737e39f52c, 0x54a15bbdcd59fc86], // BinaryHeap
    [0xbc46a6c1e691dfc0, 0xd2af7d4631c5ffa1], // BTree
];

/// Recorded digest of the bounded-dequeue case.
const CFFS_BOUNDED_DIGEST: u64 = 0x85081379e6edffb7;

#[test]
fn every_kind_keeps_its_order() {
    let got: Vec<[u64; 2]> = KINDS
        .iter()
        .map(|&k| GEOMETRIES.map(|g| digest_kind(k, g, SEED)))
        .collect();
    let bounded = digest_cffs_bounded(SEED);
    if got != KIND_DIGESTS || bounded != CFFS_BOUNDED_DIGEST {
        let rows: Vec<String> = KINDS
            .iter()
            .zip(&got)
            .map(|(k, [a, b])| format!("    [{a:#018x}, {b:#018x}], // {k:?}"))
            .collect();
        panic!(
            "queue order moved; new constants:\n\
             const KIND_DIGESTS: [[u64; 2]; 10] = [\n{}\n];\n\
             const CFFS_BOUNDED_DIGEST: u64 = {bounded:#018x};",
            rows.join("\n")
        );
    }
}

/// The script reaches every path it pins: refusals on fixed-range kinds,
/// both clamps on circular ones, and at least one rotation of the bounded
/// case's window.
#[test]
fn script_exercises_refusals_clamps_and_rotations() {
    let g = GEOMETRIES[1];
    let cfg = config(QueueKind::HierFfs, g);
    let mut q: Box<dyn RankedQueue<u64>> = QueueKind::HierFfs.build(cfg);
    let mut rng = Rng(SEED);
    let mut refused = (0, 0);
    for i in 0..1_000 {
        let r = rank(&mut rng, cfg, 0);
        if q.enqueue(r, i).is_err() {
            if r < cfg.start_rank {
                refused.0 += 1;
            } else {
                refused.1 += 1;
            }
        }
    }
    assert!(refused.0 > 0 && refused.1 > 0, "{refused:?}");

    let mut c: Box<dyn RankedQueue<u64>> = QueueKind::Cffs.build(config(QueueKind::Cffs, g));
    let mut rng = Rng(SEED);
    for i in 0..1_000 {
        let r = rank(&mut rng, cfg, 0);
        c.enqueue(r, i).unwrap();
    }
    let s = c.stats();
    assert!(s.clamped_low > 0 && s.clamped_high > 0, "{s:?}");

    // Primary window [0, 640), secondary [640, 1280).
    let mut b: CffsQueue<u64> = CffsQueue::new(64, 10, 0);
    b.enqueue(0, 1).unwrap();
    b.enqueue(700, 0).unwrap();
    assert_eq!(b.dequeue_min_le(0), Some((0, 1)));
    assert_eq!(b.dequeue_min_le(699), None);
    assert_eq!(b.dequeue_min_le(700), Some((700, 0)));
    assert_eq!(b.h_index(), 640, "the bounded case rotates");
}
