//! `ledger` — the repo's one benchmark. See README.md beside Cargo.toml.
//!
//! ```text
//! ledger [--seed N] [--quick] [--json PATH]      every workload, untraced then traced
//! ledger --workload W [--trace 0|1] [--seed N] [--seconds S] [--quick] [--json PATH]
//! ledger compare A.json B.json
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ledger::json::Json;
use ledger::metrics::{per_layer_unit, END_TO_END};
use ledger::report::{self, Untraced};
use ledger::workloads::{self, Plan, Workload};
use ledger::{compare, env, layers, out_dir, repo_root, spans};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    json: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::from_name(v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{v}' (one of: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            // The acceptance driver appends `--seconds <run_seconds>` to the
            // command of BENCHMARK.json on every run, and a pass measures
            // for that long — under `--quick` too. Results are comparable
            // only at equal `--seconds`; `compare` refuses a mixed pair.
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--quick" => a.quick = true,
            "--json" => a.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_spans(path: &Path, tracer: &spans::Tracer) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(out_dir()).map_err(err)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    tracer.write_json(&mut out).map_err(err)?;
    out.flush().map_err(err)
}

/// One workload in this process; prints the driver's result line last.
fn run_one(w: Workload, a: &Args) -> Result<bool, String> {
    if w.threaded() && env::nproc() < 2 {
        return Err(format!(
            "{} needs 2 CPUs (producer + shard thread) and this machine offers {}: \
             on one CPU the threads time-slice and the numbers mean nothing",
            w.name(),
            env::nproc()
        ));
    }
    if w == Workload::TreeBusypoll {
        env::thread_cpu_ns()?; // its `busy_cores` is read from there
    }
    let plan = Plan::new(a.quick, a.seconds);
    if a.trace {
        let tr = layers::run_traced(w, a.seed, &plan);
        let span_file = out_dir().join(format!("trace-{}.json", w.name()));
        write_spans(&span_file, &tr.tracer)?;
        let span_file = span_file.display().to_string();
        report::print_traced(w, &tr, &span_file);
        report::print_checks(&tr.checks);
        if let Some(path) = &a.json {
            write_file(
                path,
                &report::traced_json(w, a.seed, &plan, &tr, &span_file).to_pretty(),
            )?;
        }
        let ok = tr.checks.iter().all(|c| c.ok);
        let failed = if ok { tr.failed } else { tr.attempted };
        let metrics = tr
            .metrics
            .iter()
            .map(|&(n, v)| (n, v, per_layer_unit(n)))
            .collect();
        println!(
            "{}",
            report::contract_line(ok, tr.attempted, failed, metrics)
        );
        Ok(ok && failed == 0)
    } else {
        let reps = workloads::run_reps(w, a.seed, &plan);
        // Read before the order checks replay anything: the gauge is the
        // workload's memory, not the verifier's.
        let rss_peak_mb = env::rss_peak_mb()?;
        let u = Untraced {
            checks: workloads::pass_checks(w, a.seed, &plan, &reps),
            reps,
            rss_peak_mb,
        };
        report::print_untraced(w, &u);
        if let Some(path) = &a.json {
            write_file(
                path,
                &report::untraced_json(w, a.seed, &plan, &u).to_pretty(),
            )?;
        }
        let ok = u.correct();
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name, u.summary(m.name).median, m.unit))
            .collect();
        println!(
            "{}",
            report::contract_line(ok, u.attempted(), u.failed(), metrics)
        );
        Ok(ok && u.failed() == 0)
    }
}

/// Every workload, each pass in a child process of its own (so `VmHWM`,
/// allocator state and thread placement start clean), then one document.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = out_dir();
    let mut all_ok = true;
    let mut docs = Vec::new();
    for w in Workload::ALL {
        let mut passes = Vec::new();
        for (pass, trace) in [("untraced", "0"), ("traced", "1")] {
            let path = out.join(format!("run-{}-{pass}.json", w.name()));
            let _ = std::fs::remove_file(&path);
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                w.name(),
                "--trace",
                trace,
                "--seed",
                &a.seed.to_string(),
            ]);
            cmd.arg("--json").arg(&path);
            if a.quick {
                cmd.arg("--quick");
            }
            if let Some(s) = a.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start child: {e}"))?;
            all_ok &= status.success();
            let text = std::fs::read_to_string(&path)
                .map_err(|_| format!("{} ({pass}) left no result (exit {status})", w.name()))?;
            let _ = std::fs::remove_file(&path);
            passes.push((pass, Json::parse(&text)?));
        }
        docs.push((w.name(), Json::obj(passes)));
    }
    let plan = Plan::new(a.quick, a.seconds);
    let doc = Json::obj(vec![
        ("schema", Json::str(report::SCHEMA)),
        ("kind", Json::str("ledger")),
        ("seed", Json::Num(a.seed as f64)),
        ("quick", Json::Bool(a.quick)),
        ("seconds", Json::Num(plan.seconds)),
        ("reps", Json::Num(plan.reps as f64)),
        ("rep_seconds", Json::Num(plan.rep.as_secs_f64())),
        ("env", env::stamp(&repo_root())),
        ("workloads", Json::obj(docs)),
    ]);
    let path = a.json.clone().unwrap_or_else(|| out.join("ledger.json"));
    write_file(&path, &doc.to_pretty())?;
    println!("ledger: result -> {}", path.display());
    Ok(all_ok)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: ledger compare <a.json> <b.json>".to_string());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let o = compare::compare(&load(a)?, &load(b)?)?;
    println!(
        "compare: {} worse, {} of them exact-value mismatches",
        o.worse, o.exact_mismatches
    );
    Ok(o.worse == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        run_compare(&argv[1..])
    } else {
        parse_args(&argv).and_then(|a| match a.workload {
            Some(w) => run_one(w, &a),
            None => run_all(&a),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ledger: {msg}");
            ExitCode::from(2)
        }
    }
}
