//! `ledger compare <a.json> <b.json>`: is result B worse than result A?
//!
//! Per workload and end-to-end metric: both medians, the ratio B/A with A as
//! its base, the bound, and a verdict. `worse` means B's median is worse
//! than A's by more than the bound and by more than the run-to-run spread;
//! `unresolved` means the spread is wider than the bound, so the runs cannot
//! tell (unless every B run beats every A run). Metrics and counts that are
//! deterministic for a seed must match exactly. The seed of `bench-diff`.

use crate::json::Json;
use crate::metrics::Better;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B is worse (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// Verdict for a measured (noisy) metric.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let worse_by = worsening(a.median, b.median, better);
    let spread = a.spread().max(b.spread());
    if worse_by > bound {
        return if worse_by > spread {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let b_always_better = match better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Verdict for a value that must repeat exactly.
pub fn judge_exact(a: f64, b: f64) -> Verdict {
    if a == b {
        Verdict::Ok
    } else {
        Verdict::Worse
    }
}

fn workloads(doc: &Json) -> Result<&[(String, Json)], String> {
    if doc.get("kind").and_then(Json::as_str) != Some("ledger") {
        return Err(
            "not a ledger result (run `ledger` without --workload to make one)".to_string(),
        );
    }
    doc.get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| "result has no workloads".to_string())
}

fn num(j: Option<&Json>, path: &str) -> Result<f64, String> {
    j.and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number {path}"))
}

/// How a comparison came out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Verdicts that were `worse`, of either kind.
    pub worse: usize,
    /// Those of them where a value that must repeat exactly did not (or is
    /// missing): no amount of noise explains these.
    pub exact_mismatches: usize,
}

impl Outcome {
    fn tally(&mut self, v: Verdict, exact: bool) -> &'static str {
        if v == Verdict::Worse {
            self.worse += 1;
            self.exact_mismatches += usize::from(exact);
        }
        v.as_str()
    }
}

/// The run settings two results must share to be comparable at all.
fn settings(doc: &Json) -> (Option<bool>, Option<f64>) {
    (
        doc.get("quick").and_then(Json::as_bool),
        doc.get("seconds").and_then(Json::as_f64),
    )
}

/// Prints the comparison and counts the `worse` verdicts.
pub fn compare(a: &Json, b: &Json) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    if settings(a) != settings(b) {
        return Err(format!(
            "results are not comparable: A ran with (quick, seconds) = {:?}, B with {:?}",
            settings(a),
            settings(b)
        ));
    }
    let b_workloads = workloads(b)?;
    for (name, wa) in workloads(a)? {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| n == name) else {
            println!("== {name}: missing from B — worse");
            outcome.tally(Verdict::Worse, false);
            continue;
        };
        let (ua, ub) = (wa.get("untraced"), wb.get("untraced"));
        println!("== {name}");
        println!(
            "  {:<16} {:>13} {:>13} {:>10} {:>8} {:>8}  verdict",
            "metric", "A median", "B median", "B/A", "bound", "spread"
        );
        let ea = ua
            .and_then(|u| u.get("end_to_end"))
            .and_then(Json::as_obj)
            .unwrap_or(&[]);
        for (metric, ma) in ea {
            let mb = ub
                .and_then(|u| u.get("end_to_end"))
                .and_then(|e| e.get(metric));
            let (Some(sa), Some(sb)) = (Summary::from_json(ma), mb.and_then(Summary::from_json))
            else {
                println!("  {metric:<16} missing from B — worse");
                outcome.tally(Verdict::Worse, false);
                continue;
            };
            let better = ma
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}.{metric}: no direction"))?;
            let bound = num(ma.get("bound"), "bound")?;
            let exact = ma.get("exact").and_then(Json::as_bool).unwrap_or(false);
            let v = if exact {
                judge_exact(sa.median, sb.median)
            } else {
                judge(&sa, &sb, better, bound)
            };
            println!(
                "  {:<16} {:>13.5} {:>13.5} {:>10.4} {:>8} {:>7.1}%  {}",
                metric,
                sa.median,
                sb.median,
                sb.median / sa.median,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", bound * 100.0)
                },
                sa.spread().max(sb.spread()) * 100.0,
                outcome.tally(v, exact)
            );
        }
        // Deterministic for a seed: loss, the overload counts, pacing error.
        let mut exacts: Vec<(String, Option<f64>, Option<f64>)> = Vec::new();
        let pick = |u: Option<&Json>, k: &str| u.and_then(|u| u.get(k)).and_then(Json::as_f64);
        exacts.push((
            "fail_frac".to_string(),
            pick(ua, "fail_frac"),
            pick(ub, "fail_frac"),
        ));
        let counts = |u: Option<&Json>, k: &str| {
            u.and_then(|u| u.get("counts"))
                .and_then(|c| c.get(k))
                .and_then(Json::as_f64)
        };
        for (k, _) in ua
            .and_then(|u| u.get("counts"))
            .and_then(Json::as_obj)
            .unwrap_or(&[])
        {
            exacts.push((format!("count.{k}"), counts(ua, k), counts(ub, k)));
        }
        let layer = |w: &Json, k: &str| {
            w.get("traced")
                .and_then(|t| t.get("per_layer"))
                .and_then(|p| p.get(k))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        // Pacing precision is a property of `shape_20k` alone. Compared by
        // workload name, not by value: a baseline that paces perfectly
        // reports 0, and a coarser B must not pass for that.
        const PACE: &str = "qdisc.eiffel.pace_err_p99_us";
        if name == "shape_20k" {
            exacts.push((PACE.to_string(), layer(wa, PACE), layer(wb, PACE)));
        }
        for (k, va, vb) in exacts {
            match (va, vb) {
                (Some(va), Some(vb)) => println!(
                    "  {:<30} {:>14} {:>14}  exact  {}",
                    k,
                    va,
                    vb,
                    outcome.tally(judge_exact(va, vb), true)
                ),
                _ => println!(
                    "  {k:<30} missing — {}",
                    outcome.tally(Verdict::Worse, true)
                ),
            }
        }
        // Per-layer numbers carry no bound: both values and the ratio.
        let la = wa
            .get("traced")
            .and_then(|t| t.get("per_layer"))
            .and_then(Json::as_obj)
            .unwrap_or(&[]);
        for (k, ma) in la {
            let (Some(va), Some(vb)) = (ma.get("value").and_then(Json::as_f64), layer(wb, k))
            else {
                continue;
            };
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            println!("  {:<38} {:>13.4} {:>13.4} {:>10.4}", k, va, vb, vb / va);
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(center: f64) -> Summary {
        Summary::of(&[
            center * 0.99,
            center * 0.995,
            center,
            center * 1.005,
            center * 1.01,
        ])
    }

    fn wide(center: f64) -> Summary {
        Summary::of(&[
            center * 0.7,
            center * 0.85,
            center,
            center * 1.15,
            center * 1.3,
        ])
    }

    #[test]
    fn same_numbers_are_ok() {
        let a = tight(4.6);
        assert_eq!(judge(&a, &a, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &a, Better::Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_drop_past_the_bound_is_worse_in_the_metrics_direction() {
        let (a, b) = (tight(4.6), tight(4.0)); // −13 %
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Worse);
        // The same move is an improvement for a lower-is-better metric.
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Ok);
        // And within the bound it is noise.
        assert_eq!(judge(&a, &tight(4.3), Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let (a, b) = (wide(4.6), wide(4.5));
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Unresolved);
        // A 13 % drop inside a 30 % spread cannot be told from noise either.
        assert_eq!(
            judge(&wide(4.6), &wide(4.0), Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // But a drop larger than the spread is still worse.
        assert_eq!(
            judge(&wide(4.6), &wide(2.0), Better::Higher, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn every_run_better_resolves_a_wide_spread() {
        let a = wide(1.0);
        let b = Summary::of(&[2.0, 2.5, 3.0, 3.5, 4.0]);
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_must_match_to_the_digit() {
        assert_eq!(judge_exact(0.8203625, 0.8203625), Verdict::Ok);
        assert_eq!(judge_exact(0.8203625, 0.8203626), Verdict::Worse);
        assert_eq!(judge_exact(0.0, 0.0), Verdict::Ok);
    }

    fn ledger(mpps: f64, delivered: f64) -> Json {
        let mut e = vec![
            ("unit", Json::str("Mpkt/s")),
            ("better", Json::str("higher")),
            ("bound", Json::Num(0.10)),
            ("exact", Json::Bool(false)),
        ];
        e.extend(tight(mpps).to_json());
        Json::obj(vec![
            ("kind", Json::str("ledger")),
            (
                "workloads",
                Json::obj(vec![(
                    "overload_100k",
                    Json::obj(vec![(
                        "untraced",
                        Json::obj(vec![
                            ("fail_frac", Json::Num(0.0)),
                            (
                                "counts",
                                Json::obj(vec![("delivered", Json::Num(delivered))]),
                            ),
                            ("end_to_end", Json::obj(vec![("mpps", Json::obj(e))])),
                        ]),
                    )]),
                )]),
            ),
        ])
    }

    fn worse(a: &Json, b: &Json) -> (usize, usize) {
        let o = compare(a, b).expect("comparable");
        (o.worse, o.exact_mismatches)
    }

    #[test]
    fn compare_counts_worse_verdicts_over_whole_documents() {
        let a = ledger(1.65, 1_640_725.0);
        assert_eq!(worse(&a, &a), (0, 0));
        assert_eq!(worse(&a, &ledger(1.60, 1_640_725.0)), (0, 0));
        // Slower past the bound: worse, but not an exact-value mismatch.
        assert_eq!(worse(&a, &ledger(1.20, 1_640_725.0)), (1, 0));
        // A changed count is a changed behaviour, however fast.
        assert_eq!(worse(&a, &ledger(1.90, 1_640_000.0)), (1, 1));
        assert!(compare(&Json::obj(vec![]), &a).is_err());
    }

    fn shape(pace_us: Option<f64>) -> Json {
        let traced = pace_us.map_or(Json::obj(vec![]), |v| {
            Json::obj(vec![(
                "per_layer",
                Json::obj(vec![(
                    "qdisc.eiffel.pace_err_p99_us",
                    Json::obj(vec![("value", Json::Num(v))]),
                )]),
            )])
        });
        Json::obj(vec![
            ("kind", Json::str("ledger")),
            (
                "workloads",
                Json::obj(vec![(
                    "shape_20k",
                    Json::obj(vec![
                        ("untraced", Json::obj(vec![("fail_frac", Json::Num(0.0))])),
                        ("traced", traced),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn pacing_error_is_compared_even_against_a_perfect_baseline() {
        assert_eq!(worse(&shape(Some(0.0)), &shape(Some(0.0))), (0, 0));
        // "Faster but coarser" against a baseline that paced perfectly.
        assert_eq!(worse(&shape(Some(0.0)), &shape(Some(75.8))), (1, 1));
        assert_eq!(worse(&shape(Some(75.8)), &shape(None)), (1, 1));
    }

    #[test]
    fn results_with_different_run_settings_are_refused() {
        let with = |seconds: f64| {
            let Json::Obj(mut pairs) = ledger(1.65, 1.0) else {
                unreachable!()
            };
            pairs.push(("seconds".to_string(), Json::Num(seconds)));
            Json::Obj(pairs)
        };
        assert!(compare(&with(15.0), &with(15.0)).is_ok());
        assert!(compare(&with(15.0), &with(5.0)).is_err());
    }
}
