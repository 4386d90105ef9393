//! Pin of the Fig 19 fabric's per-flow completion times.
//!
//! dcsim is the approximate gradient queue's one production user: every
//! pFabric-Approx port holds a 4 096-bucket `ApproxGradientQueue`, peeks
//! its maximum on every arrival at a full port and evicts through
//! `dequeue_max`. This test runs DCTCP, pFabric and pFabric-Approx on the
//! small leaf-spine at one fixed seed, with a buffer small enough that
//! pFabric ports overflow, and digests every `FctRecord.fct` (FNV-1a) plus
//! the drop, timeout and event counts. The constants were recorded before
//! the estimator became an index of the one bucket store; a change to any
//! queue's order moves them. On mismatch the panic prints the new table.

use eiffel_dcsim::{run, SimConfig, System, Topology};

/// FNV-1a, 64-bit, over little-endian words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const SYSTEMS: [System; 3] = [System::Dctcp, System::PfabricExact, System::PfabricApprox];

/// `(fct digest, drops, timeouts, events)` per system.
fn observe(system: System) -> (u64, u64, u64, u64) {
    let mut cfg = SimConfig::new(Topology::small(), system, 0.7, 150, 0x27);
    cfg.pfabric_buf = 12;
    let r = run(cfg);
    assert_eq!(r.counters.completed, 150, "{system:?}: {:?}", r.counters);
    let c = &r.counters;
    (
        fnv(r.records.iter().map(|rec| rec.fct)),
        c.drops,
        c.timeouts,
        c.events,
    )
}

/// Recorded `(fct digest, drops, timeouts, events)`, in `SYSTEMS` order.
const RECORDED: [(u64, u64, u64, u64); 3] = [
    (0x25fccdef1359389d, 0, 0, 1513088),      // Dctcp
    (0xe85cf1d52e685ca6, 1520, 495, 1533330), // PfabricExact
    (0xe85cf1d52e685ca6, 1520, 495, 1533330), // PfabricApprox
];

#[test]
fn flow_completion_times_are_pinned() {
    let got = SYSTEMS.map(observe);
    assert!(
        got[1].1 > 0 && got[2].1 > 0,
        "pFabric ports must overflow so eviction runs: {got:?}"
    );
    if got != RECORDED {
        let rows: Vec<String> = SYSTEMS
            .iter()
            .zip(&got)
            .map(|(s, (d, drops, timeouts, events))| {
                format!("    ({d:#018x}, {drops}, {timeouts}, {events}), // {s:?}")
            })
            .collect();
        panic!(
            "flow completion times moved; new constants:\n\
             const RECORDED: [(u64, u64, u64, u64); 3] = [\n{}\n];",
            rows.join("\n")
        );
    }
}
