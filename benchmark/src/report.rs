//! Result documents and the tables printed from them.

use crate::env;
use crate::json::Json;
use crate::layers::{LayerRow, Traced};
use crate::metrics::{per_layer_unit, END_TO_END};
use crate::stats::Summary;
use crate::workloads::{Check, Plan, Rep, Workload};

pub const SCHEMA: &str = "ledger/1";

/// All untraced repetitions of one workload in one process.
pub struct Untraced {
    pub reps: Vec<Rep>,
    /// [`crate::workloads::pass_checks`] of `reps`.
    pub checks: Vec<Check>,
    pub rss_peak_mb: f64,
}

impl Untraced {
    fn values(&self, metric: &str) -> Vec<f64> {
        match metric {
            "rss_peak_mb" => vec![self.rss_peak_mb],
            _ => self
                .reps
                .iter()
                .map(|r| match metric {
                    "mpps" => r.mpps,
                    "busy_cores" => r.busy_cores,
                    "goodput_frac" => r.goodput_frac,
                    "setup_s" => r.setup_s,
                    other => unreachable!("unknown end-to-end metric {other}"),
                })
                .collect(),
        }
    }

    pub fn summary(&self, metric: &str) -> Summary {
        Summary::of(&self.values(metric))
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    /// Lost packets; every attempted packet when a check failed.
    pub fn failed(&self) -> u64 {
        if self.correct() {
            self.reps.iter().map(|r| r.failed).sum()
        } else {
            self.attempted()
        }
    }
}

/// Whether a metric repeats exactly for a given seed on this workload.
pub fn is_exact(w: Workload, metric: &str) -> bool {
    w == Workload::Overload100k && metric == "goodput_frac"
}

fn checks_json(checks: &[Check]) -> Json {
    Json::Arr(
        checks
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("name", Json::str(c.name)),
                    ("ok", Json::Bool(c.ok)),
                    ("detail", Json::str(c.detail.clone())),
                ])
            })
            .collect(),
    )
}

fn header(kind: &str, w: Workload, seed: u64, plan: &Plan) -> Vec<(&'static str, Json)> {
    vec![
        ("schema", Json::str(SCHEMA)),
        ("kind", Json::str(kind)),
        ("workload", Json::str(w.name())),
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(plan.quick)),
        ("seconds", Json::Num(plan.seconds)),
        ("reps", Json::Num(plan.reps as f64)),
        ("rep_seconds", Json::Num(plan.rep.as_secs_f64())),
        ("warm_seconds", Json::Num(plan.warm.as_secs_f64())),
        ("env", env::stamp(&crate::repo_root())),
    ]
}

pub fn untraced_json(w: Workload, seed: u64, plan: &Plan, u: &Untraced) -> Json {
    let (attempted, failed) = (u.attempted(), u.failed());
    let mut doc = header("untraced", w, seed, plan);
    doc.extend([
        ("correct", Json::Bool(u.correct())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "fail_frac",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        ("checks", checks_json(&u.checks)),
        (
            "counts",
            Json::Obj(
                u.reps[0]
                    .counts
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Obj(
                END_TO_END
                    .iter()
                    .filter(|m| m.reported_on(w.name()))
                    .map(|m| {
                        let mut e = vec![
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                            ("exact", Json::Bool(is_exact(w, m.name))),
                        ];
                        e.extend(u.summary(m.name).to_json());
                        // Every repetition, in the order run.
                        let values = u.values(m.name).into_iter().map(Json::Num).collect();
                        e.push(("values", Json::Arr(values)));
                        (m.name.to_string(), Json::obj(e))
                    })
                    .collect(),
            ),
        ),
    ]);
    Json::obj(doc)
}

fn rows_json(rows: &[LayerRow], on_path: bool) -> impl Iterator<Item = Json> + '_ {
    rows.iter().map(move |r| {
        Json::obj(vec![
            ("layer", Json::str(r.name)),
            ("parent", r.parent.map_or(Json::Null, Json::str)),
            ("on_path", Json::Bool(on_path)),
            ("ops_per_pkt", Json::Num(r.ops_per_pkt)),
            ("ns_per_pkt", Json::Num(r.ns_per_pkt)),
            ("self_ns", Json::Num(r.self_ns)),
            ("share", Json::Num(r.share)),
        ])
    })
}

pub fn traced_json(w: Workload, seed: u64, plan: &Plan, tr: &Traced, span_file: &str) -> Json {
    let ok = tr.checks.iter().all(|c| c.ok);
    let mut doc = header("traced", w, seed, plan);
    doc.extend([
        ("correct", Json::Bool(ok)),
        ("attempted", Json::Num(tr.attempted as f64)),
        (
            "failed",
            Json::Num(if ok { tr.failed } else { tr.attempted } as f64),
        ),
        ("checks", checks_json(&tr.checks)),
        ("basis", Json::str(tr.budget.basis)),
        (
            "layers",
            Json::Arr(
                rows_json(&tr.budget.rows, true)
                    .chain(rows_json(&tr.budget.beside, false))
                    .collect(),
            ),
        ),
        (
            "pace",
            Json::obj(vec![
                ("samples", Json::Num(tr.budget.pace_samples as f64)),
                ("percentile", Json::Num(tr.budget.pace_percentile)),
            ]),
        ),
        (
            "per_layer",
            Json::Obj(
                tr.metrics
                    .iter()
                    .map(|&(name, v)| {
                        (
                            name.to_string(),
                            Json::obj(vec![
                                ("value", Json::Num(v)),
                                ("unit", Json::str(per_layer_unit(name))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("span_file", Json::str(span_file)),
        ("spans", Json::Num(tr.tracer.spans().len() as f64)),
    ]);
    Json::obj(doc)
}

/// The one line the acceptance driver reads.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&str, f64, &str)>,
) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, v, unit)| {
                        (
                            name.to_string(),
                            Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_line()
}

pub fn print_checks(checks: &[Check]) {
    // One line per distinct check: repetitions repeat the same names.
    let mut seen: Vec<&str> = Vec::new();
    for c in checks {
        if c.ok && seen.contains(&c.name) {
            continue;
        }
        seen.push(c.name);
        println!(
            "  check {:<22} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
}

pub fn print_untraced(w: Workload, u: &Untraced) {
    println!(
        "== {} — end to end, untraced: {} repetitions, {:.2} s timed",
        w.name(),
        u.reps.len(),
        u.reps.iter().map(|r| r.timed_s).sum::<f64>()
    );
    println!(
        "  {:<14} {:>12} {:<7} {:>12} {:>12} {:>12} {:>12}  n  better  bound",
        "metric", "median", "unit", "q1", "q3", "min", "max"
    );
    for m in END_TO_END.iter().filter(|m| m.reported_on(w.name())) {
        let s = u.summary(m.name);
        println!(
            "  {:<14} {:>12.5} {:<7} {:>12.5} {:>12.5} {:>12.5} {:>12.5}  {}  {:<6}  {}",
            m.name,
            s.median,
            m.unit,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.n,
            m.better.as_str(),
            if is_exact(w, m.name) {
                "exact".to_string()
            } else {
                format!("{:.0} %", m.bound * 100.0)
            },
        );
    }
    let (attempted, failed) = (u.attempted(), u.failed());
    println!(
        "  {:<14} {:>12.5} ratio   ({failed} of {attempted} packets; must be 0)",
        "fail_frac",
        failed as f64 / attempted.max(1) as f64
    );
    for (k, v) in &u.reps[0].counts {
        println!("  count {k:<16} {v}");
    }
    print_checks(&u.checks);
}

pub fn print_traced(w: Workload, tr: &Traced, span_file: &str) {
    println!(
        "== {} — per-layer budget, traced pass ({} basis: {})",
        w.name(),
        tr.budget.basis,
        if tr.budget.basis == "busy" {
            "metered busy ns per packet, modelled constants included"
        } else {
            "wall ns per packet"
        }
    );
    println!(
        "  {:<16} {:<16} {:>9} {:>10} {:>10} {:>8}",
        "layer", "under", "ops/pkt", "ns/pkt", "self ns", "share"
    );
    for (rows, tag) in [
        (&tr.budget.rows, ""),
        (&tr.budget.beside, "  (beside the path)"),
    ] {
        for r in rows.iter() {
            println!(
                "  {:<16} {:<16} {:>9.3} {:>10.2} {:>10.2} {:>7.1}%{tag}",
                r.name,
                r.parent.unwrap_or("-"),
                r.ops_per_pkt,
                r.ns_per_pkt,
                r.self_ns,
                r.share * 100.0
            );
        }
    }
    println!(
        "  residual = self time of {}: what no line below it explains",
        tr.budget.rows[0].name
    );
    if tr.budget.pace_samples > 0 {
        println!(
            "  pacing error percentile p{} over {} releases",
            tr.budget.pace_percentile * 100.0,
            tr.budget.pace_samples
        );
    }
    for &(name, v) in &tr.metrics {
        println!("  {name:<38} {v:>14.4} {}", per_layer_unit(name));
    }
    println!("  {} spans -> {span_file}", tr.tracer.spans().len());
}
