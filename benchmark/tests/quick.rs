//! Smoke test of the command line: `--quick` runs all four workloads, both
//! passes, in well under ten seconds; the result document, the span files
//! and the driver's result line must have the promised shape.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use ledger::json::Json;
use ledger::metrics::{END_TO_END, PER_LAYER};
use ledger::workloads::Workload;

const LEDGER: &str = env!("CARGO_BIN_EXE_ledger");

fn two_cpus() -> bool {
    ledger::env::nproc() >= 2
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("number '{key}' missing"))
}

#[test]
fn quick_run_writes_a_complete_ledger_and_compares_clean_against_itself() {
    if !two_cpus() {
        eprintln!("skipped: the threaded workloads need 2 CPUs");
        return;
    }
    let result = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-ledger.json");
    let started = Instant::now();
    let run = Command::new(LEDGER)
        .args(["--quick", "--seed", "7", "--json"])
        .arg(&result)
        .output()
        .expect("ledger starts");
    assert!(
        run.status.success(),
        "quick run failed: {}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stdout)
    );
    assert!(
        started.elapsed().as_secs_f64() < 10.0,
        "quick run took {:.1} s",
        started.elapsed().as_secs_f64()
    );

    let doc = Json::parse(&std::fs::read_to_string(&result).unwrap()).unwrap();
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("ledger"));
    assert_eq!(num(&doc, "seed"), 7.0);
    let env = doc.get("env").expect("environment stamp");
    for key in ["cpu_model", "rustc", "git_commit"] {
        assert!(env.get(key).and_then(Json::as_str).is_some(), "env.{key}");
    }
    assert!(num(env, "nproc") >= 2.0);

    let workloads = doc.get("workloads").and_then(Json::as_obj).unwrap();
    let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for (name, w) in workloads {
        let u = w.get("untraced").expect("untraced pass");
        assert_eq!(
            u.get("correct").and_then(Json::as_bool),
            Some(true),
            "{name}"
        );
        assert!(num(u, "attempted") >= 1.0);
        assert_eq!(num(u, "failed"), 0.0, "{name}");
        assert_eq!(num(u, "fail_frac"), 0.0, "{name}");
        let checks = u.get("checks").and_then(Json::as_arr).unwrap();
        assert!(!checks.is_empty());
        assert!(checks
            .iter()
            .all(|c| c.get("ok").and_then(Json::as_bool) == Some(true)));
        let e2e = u.get("end_to_end").unwrap();
        for m in END_TO_END {
            if !m.reported_on(name) {
                assert!(e2e.get(m.name).is_none(), "{name}.{} is filler", m.name);
                continue;
            }
            let s = e2e
                .get(m.name)
                .unwrap_or_else(|| panic!("{name}.{}", m.name));
            assert!(num(s, "median") > 0.0, "{name}.{} must never be 0", m.name);
            assert!(num(s, "q1") <= num(s, "median") && num(s, "median") <= num(s, "q3"));
            assert!(num(s, "min") <= num(s, "max") && num(s, "n") >= 1.0);
            let values = s.get("values").and_then(Json::as_arr).unwrap();
            assert_eq!(values.len() as f64, num(s, "n"));
            assert_eq!(s.get("unit").and_then(Json::as_str), Some(m.unit));
        }

        let t = w.get("traced").expect("traced pass");
        let per_layer = t.get("per_layer").and_then(Json::as_obj).unwrap();
        let listed: Vec<&str> = per_layer.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(listed, PER_LAYER.map(|(n, _, _)| n), "{name}");
        assert!(
            num(
                t.get("per_layer")
                    .unwrap()
                    .get("ledger.e2e_ns_per_pkt")
                    .unwrap(),
                "value"
            ) > 0.0
        );
        // The budget reconciles: self times of the path sum to the whole.
        let layers = t.get("layers").and_then(Json::as_arr).unwrap();
        let on_path: Vec<&Json> = layers
            .iter()
            .filter(|l| l.get("on_path").and_then(Json::as_bool) == Some(true))
            .collect();
        let whole = num(on_path[0], "ns_per_pkt");
        let parts: f64 = on_path.iter().map(|l| num(l, "self_ns")).sum();
        assert!(
            (parts - whole).abs() < 1e-6 * whole,
            "{name}: {parts} vs {whole}"
        );

        // The span file: names, columns, and rows that nest inside parents.
        let span_file = t.get("span_file").and_then(Json::as_str).unwrap();
        let spans = Json::parse(&std::fs::read_to_string(span_file).unwrap()).unwrap();
        let n_names = spans.get("names").and_then(Json::as_arr).unwrap().len();
        let rows = spans.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len() as f64, num(t, "spans"));
        assert!(rows.len() > 10, "{name}: {} spans", rows.len());
        for (i, r) in rows.iter().enumerate() {
            let r: Vec<f64> = r
                .as_arr()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
            let [id, name_idx, parent, start, end, _ops] = r[..] else {
                panic!("span row has {} columns", r.len())
            };
            assert_eq!(id as usize, i);
            assert!((name_idx as usize) < n_names && parent < id && start <= end);
        }
    }
    // Only the overload workload has admission counts and exact counts.
    let traced = |w: &str, m: &str| {
        let layer = doc
            .get("workloads")
            .unwrap()
            .get(w)
            .unwrap()
            .get("traced")
            .unwrap();
        num(layer.get("per_layer").unwrap().get(m).unwrap(), "value")
    };
    assert!(traced("overload_100k", "chaos.admit.marked_frac") > 0.0);
    assert!(traced("shape_20k", "qdisc.eiffel.pace_err_p99_us") > 0.0);
    for w in ["shape_20k", "saturate_2k", "tree_busypoll"] {
        assert_eq!(traced(w, "chaos.admit.marked_frac"), 0.0);
        assert_eq!(traced(w, "chaos.admit.setup_refused"), 0.0);
    }
    // Queue and bitmap lines only where the rank stream is the benchmark's.
    for (w, printed) in [
        ("shape_20k", true),
        ("saturate_2k", true),
        ("tree_busypoll", false),
        ("overload_100k", false),
    ] {
        assert_eq!(traced(w, "core.queue.ops") > 0.0, printed, "{w}");
        assert_eq!(traced(w, "core.bitmap.ops") > 0.0, printed, "{w}");
    }

    let same = Command::new(LEDGER)
        .arg("compare")
        .args([&result, &result])
        .output()
        .expect("compare starts");
    assert!(
        same.status.success(),
        "a result must compare clean against itself"
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("compare: 0 worse"));

    // Same test, so the timed runs above never share the two CPUs with it.
    driver_result_line_has_exactly_the_contract_keys();
}

/// The line the acceptance driver parses: last on stdout, exactly the four
/// keys, every metric of the pass with value and unit.
fn driver_result_line_has_exactly_the_contract_keys() {
    for (trace, names) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        ("1", PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()),
    ] {
        let out = Command::new(LEDGER)
            .args([
                "--workload",
                "tree_busypoll",
                "--seed",
                "3",
                "--quick",
                "--trace",
                trace,
            ])
            .output()
            .expect("ledger starts");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert!(num(&line, "attempted") >= 1.0 && num(&line, "failed") == 0.0);
        // Every metric on every workload, and (end to end) never 0.
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        if trace == "0" {
            assert!(metrics.iter().all(|(_, m)| num(m, "value") > 0.0));
        }
        let got: Vec<(&str, &str)> = metrics
            .iter()
            .map(|(n, m)| (n.as_str(), m.get("unit").and_then(Json::as_str).unwrap()))
            .collect();
        assert_eq!(got, names);
        assert!(metrics
            .iter()
            .all(|(_, m)| m.get("value").and_then(Json::as_f64).is_some()));
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &["--bogus"],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["compare", "only-one"],
    ] {
        let out = Command::new(LEDGER)
            .args(args)
            .output()
            .expect("ledger starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
