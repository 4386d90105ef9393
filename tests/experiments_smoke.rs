//! Integration smoke of every experiment harness at miniature scale: the
//! exact code paths behind the figure binaries must run end to end and
//! produce correctly-ordered results.

use std::time::Duration;

use eiffel_bench::microbench::{
    approx_error_at_occupancy, drain_rate_occupancy, drain_rate_packets_per_bucket, FillOrder,
    FillPattern, QueueUnderTest,
};
use eiffel_bench::runners;
use eiffel_repro::dcsim::{SchedulerBackend, System, Topology};

/// Fig 9/10's exact virtual counts at quick scale, per qdisc in legend
/// order: `(name, transmitted, timer_fires, meter_calls)`. The virtual
/// clock makes them repeat exactly; the sampled meter never moves them.
const FIG9_QUICK_COUNTS: [(&str, u64, u64, u64); 3] = [
    ("fq", 100_000, 100_000, 204_000),
    ("carousel", 100_000, 249_999, 353_999),
    ("eiffel", 100_000, 6_900, 110_900),
];

/// Figure 9/10 path: quick kernel-shaping run with the headline ordering
/// and the exact counts.
#[test]
fn fig09_fig10_quick() {
    let reports = runners::kernel_shaping(&runners::KernelShapingScale::quick());
    let got: Vec<(&str, u64, u64, u64)> = reports
        .iter()
        .map(|r| (r.name, r.transmitted, r.timer_fires, r.meter_calls))
        .collect();
    if got != FIG9_QUICK_COUNTS {
        let rows: Vec<String> = got
            .iter()
            .map(|(n, t, f, m)| format!("    ({n:?}, {t}, {f}, {m}),"))
            .collect();
        panic!(
            "Fig 9/10 virtual counts moved; new constants:\n\
             const FIG9_QUICK_COUNTS: [(&str, u64, u64, u64); 3] = [\n{}\n];",
            rows.join("\n")
        );
    }
    let (fq, carousel, eiffel) = (&reports[0], &reports[1], &reports[2]);
    assert!(eiffel.median_cores < fq.median_cores, "Eiffel must beat FQ");
    assert!(
        eiffel.median_cores < carousel.median_cores,
        "Eiffel must beat Carousel"
    );
    // Fig 10 mechanism: Carousel's softirq share dominates Eiffel's.
    let softirq = |r: &eiffel_repro::qdisc::HostReport| {
        r.breakdown.iter().map(|&(_, i)| i).sum::<f64>() / r.breakdown.len() as f64
    };
    assert!(
        softirq(carousel) > softirq(eiffel),
        "Carousel pays more softirq"
    );
}

/// Figure 12 path: every scheduler produces a rate; Eiffel ≥ heap at the
/// largest quick flow count.
#[test]
fn fig12_quick() {
    let dur = Duration::from_millis(80);
    for flows in [16usize, 512] {
        let e = runners::hclock_max_rate("eiffel", flows, 10_000, 1_500, 1, dur);
        let h = runners::hclock_max_rate("hclock", flows, 10_000, 1_500, 1, dur);
        let t = runners::hclock_max_rate("tc", flows, 10_000, 1_500, 1, dur);
        for (name, v) in [("eiffel", e), ("hclock", h), ("tc", t)] {
            assert!(v > 1.0, "{name}@{flows}: {v} Mbps");
        }
    }
}

/// Figure 15 path: Eiffel's pFabric beats the heap baseline at scale.
#[test]
fn fig15_quick() {
    let e = runners::pfabric_max_rate(true, 2_000, Duration::from_millis(100));
    let h = runners::pfabric_max_rate(false, 2_000, Duration::from_millis(100));
    assert!(e > h, "eiffel {e:.0} Mbps vs heap {h:.0} Mbps");
}

/// Figure 16/17 paths: positive rates; BH never the fastest at 1 pkt/bucket.
#[test]
fn fig16_fig17_quick() {
    let budget = Duration::from_millis(40);
    let bh = drain_rate_packets_per_bucket(QueueUnderTest::BucketHeap, 2_000, 1, 1, budget).mpps;
    let cf = drain_rate_packets_per_bucket(QueueUnderTest::Cffs, 2_000, 1, 1, budget).mpps;
    assert!(bh > 0.0 && cf > 0.0);
    assert!(cf > bh, "cFFS ({cf:.1} Mpps) must beat BH ({bh:.1} Mpps)");
    let mut fill_order = FillOrder::new();
    let occ = drain_rate_occupancy(
        QueueUnderTest::Approx,
        2_000,
        0.9,
        FillPattern::Sparse,
        &mut fill_order,
        budget,
    );
    assert!(occ.mpps > 0.0);
    assert!((0.0..=1.0).contains(&occ.hit_rate));
}

/// Tree-policy cost path: every node program (fifo floor, WFQ, LSTF,
/// hClock, HFSC) runs end to end and prices out as a finite cost.
#[test]
fn fig_tree_policy_quick() {
    let args = eiffel_bench::BenchArgs::from_iter(["--quick".to_string()], None);
    let r = runners::fig_tree_policy_report(&args, &runners::TreePolicyScale::tiny());
    let sw = &r.sweeps[0];
    assert_eq!(sw.series.len(), 5, "five node programs");
    for s in &sw.series {
        for &v in &s.values {
            assert!(v.is_finite() && v > 0.0, "{}: {v} ns/pkt", s.name);
        }
    }
}

/// Figure 18 path: error rises as occupancy falls.
#[test]
fn fig18_quick() {
    let lo = approx_error_at_occupancy(2_000, 0.7, 24, 1);
    let hi = approx_error_at_occupancy(2_000, 0.99, 24, 1);
    assert!(
        lo > hi,
        "error at 0.7 occupancy ({lo:.2}) must exceed error at 0.99 ({hi:.2})"
    );
}

/// Figure 19 path: one load point, all three systems, orderings hold.
#[test]
fn fig19_quick() {
    let loads = [0.5];
    let flows = 150;
    let wheel = SchedulerBackend::FfsWheel;
    let d = runners::pfabric_fct_sweep(System::Dctcp, Topology::small(), &loads, flows, 9, wheel);
    let p = runners::pfabric_fct_sweep(
        System::PfabricExact,
        Topology::small(),
        &loads,
        flows,
        9,
        wheel,
    );
    let a = runners::pfabric_fct_sweep(
        System::PfabricApprox,
        Topology::small(),
        &loads,
        flows,
        9,
        wheel,
    );
    let (ds, ps, as_) = (d[0].avg_small, p[0].avg_small, a[0].avg_small);
    assert!(
        ps < ds,
        "pFabric small-flow NFCT {ps:.2} must beat DCTCP {ds:.2}"
    );
    assert!(
        (as_ - ps).abs() / ps < 0.5,
        "approx ({as_:.2}) tracks exact ({ps:.2})"
    );
    assert!(
        d[0].events > 0 && d[0].wall_secs > 0.0,
        "event-loop counters populated"
    );
}

/// Table 1 rows exist and include every compared system.
#[test]
fn table1_contents() {
    let rows = runners::table1_rows();
    for sys in [
        "FQ/pacing qdisc",
        "hClock",
        "Carousel",
        "OpenQueue",
        "PIFO",
        "Eiffel",
    ] {
        assert!(rows.iter().any(|r| r[0] == sys), "missing {sys}");
    }
}
