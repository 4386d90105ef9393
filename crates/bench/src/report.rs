//! Structured bench reports: one schema for every figure binary.
//!
//! Every `fig*`/`table1` binary builds a [`BenchReport`] — the machine-
//! readable record of one experiment run — then calls
//! [`BenchReport::finish`], which renders the familiar stdout tables *and*
//! writes the report as JSON when `--json <path>` (or the
//! `EIFFEL_BENCH_JSON` environment variable) is set. Committed
//! `BENCH_*.json` files at the repo root are exactly these reports.
//!
//! # Report schema (`eiffel-bench-report/v1`)
//!
//! The JSON document is one object with the following keys, serialized in
//! this order by [`BenchReport::to_json`]:
//!
//! | Key | Type | Meaning |
//! |---|---|---|
//! | `schema` | string | Always [`SCHEMA`] (`"eiffel-bench-report/v1"`) |
//! | `figure` | string | Binary/figure id, e.g. `"fig12_hclock_scaling"` |
//! | `artifact` | string | Paper artifact, e.g. `"Figure 12"` |
//! | `title` | string | Human title of the experiment |
//! | `paper_claim` | string | The claim being reproduced, with citation |
//! | `quick` | bool | Whether this was a scaled-down `--quick` run |
//! | `config` | object | Operating-point knobs (durations, flow counts…) |
//! | `environment` | object | Host, CPU count, rustc, profile, UTC date, command line |
//! | `sweeps` | array | Numeric results — see [`Sweep`] |
//! | `tables` | array | Qualitative results — see [`TextTable`] |
//! | `notes` | array of string | Free-form observations |
//! | `wall_secs` | number | Wall-clock seconds from report creation to `finish` |
//!
//! Each sweep object holds `name`, `param` (the sweep parameter's name,
//! e.g. `"flows"`), `param_values` (numbers or labels, one per row) and
//! `series`: an array of `{name, unit, values}` where `values[i]` is the
//! measurement at `param_values[i]`. Missing samples are `null` (NaN has
//! no JSON representation). Units are spelled out per series (`"Mbps"`,
//! `"Mpps"`, `"cores"`, `"buckets"`, `"normalized FCT"`), so a report is
//! self-describing without the binary that wrote it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::JsonValue;

/// Schema identifier stamped into every report.
pub const SCHEMA: &str = "eiffel-bench-report/v1";

/// Prints a header banner for a figure.
pub fn banner(title: &str, note: &str) {
    println!("==================================================================");
    println!("{title}");
    if !note.is_empty() {
        println!("{note}");
    }
    println!("==================================================================");
}

/// Prints an aligned table: header row then data rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&hdr));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Reduces sorted samples to a compact CDF of `points` levels
/// (`(value, cumulative fraction)` pairs).
pub fn cdf(sorted: &[f64], points: usize) -> Vec<(f64, f64)> {
    if sorted.is_empty() {
        return Vec::new();
    }
    let n = sorted.len();
    (1..=points)
        .map(|i| {
            let frac = i as f64 / points as f64;
            let idx = ((n as f64 * frac).ceil() as usize).clamp(1, n) - 1;
            (sorted[idx], frac)
        })
        .collect()
}

/// Shared command line of every figure binary: `--quick` plus the JSON
/// output destination (`--json <path>`, `--json=<path>`, or the
/// `EIFFEL_BENCH_JSON` environment variable; the flag wins).
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Scaled-down run requested.
    pub quick: bool,
    /// Where to write the JSON report, if anywhere.
    pub json: Option<PathBuf>,
}

impl BenchArgs {
    /// Parses the process arguments and environment.
    pub fn parse() -> Self {
        Self::from_iter(
            std::env::args().skip(1),
            std::env::var("EIFFEL_BENCH_JSON").ok(),
        )
    }

    /// Parses from explicit values (testable form of [`BenchArgs::parse`]).
    pub fn from_iter(args: impl IntoIterator<Item = String>, env_json: Option<String>) -> Self {
        let mut out = BenchArgs {
            quick: false,
            json: env_json.filter(|s| !s.is_empty()).map(PathBuf::from),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if a == "--quick" {
                out.quick = true;
            } else if a == "--json" {
                if let Some(p) = args.next() {
                    out.json = Some(PathBuf::from(p));
                }
            } else if let Some(p) = a.strip_prefix("--json=") {
                out.json = Some(PathBuf::from(p));
            }
        }
        out
    }
}

/// Environment metadata recorded in every report.
#[derive(Debug, Clone)]
struct Environment {
    /// CPU model (from `/proc/cpuinfo`) or OS name as a fallback.
    pub host: String,
    /// Available hardware parallelism.
    pub cpus: usize,
    /// `rustc --version` of the compiler that built the binary.
    pub rustc: String,
    /// Build profile (`release` or `debug`).
    pub profile: String,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date_utc: String,
    /// The command line that produced the report.
    pub cmdline: String,
}

impl Environment {
    /// Captures the current process environment.
    fn capture() -> Self {
        Environment {
            host: cpu_model(),
            cpus: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            rustc: env!("EIFFEL_BENCH_RUSTC_VERSION").to_string(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            date_utc: utc_date_today(),
            cmdline: std::env::args().collect::<Vec<_>>().join(" "),
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("host", JsonValue::string(&self.host)),
            ("cpus", JsonValue::Number(self.cpus as f64)),
            ("rustc", JsonValue::string(&self.rustc)),
            ("profile", JsonValue::string(&self.profile)),
            ("date_utc", JsonValue::string(&self.date_utc)),
            ("cmdline", JsonValue::string(&self.cmdline)),
        ])
    }
}

fn cpu_model() -> String {
    if let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in info.lines() {
            if let Some(rest) = line.strip_prefix("model name") {
                if let Some((_, name)) = rest.split_once(':') {
                    return name.trim().to_string();
                }
            }
        }
    }
    std::env::consts::OS.to_string()
}

/// Days-to-civil-date conversion (Howard Hinnant's algorithm), so reports
/// carry a date without a clock crate.
fn utc_date_today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// A sweep-parameter value: numeric (`flows = 10000`) or categorical
/// (`case = "no batching 60B"`).
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Numeric parameter; serialized as a JSON number.
    Num(f64),
    /// Categorical parameter; serialized as a JSON string.
    Label(String),
}

impl ParamValue {
    fn to_json(&self) -> JsonValue {
        match self {
            ParamValue::Num(n) => JsonValue::Number(*n),
            ParamValue::Label(s) => JsonValue::string(s),
        }
    }

    fn display(&self) -> String {
        match self {
            ParamValue::Num(n) => {
                if *n == n.trunc() && n.abs() < 9e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            ParamValue::Label(s) => s.clone(),
        }
    }
}

impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::Num(v as f64)
    }
}

impl From<u64> for ParamValue {
    fn from(v: u64) -> Self {
        ParamValue::Num(v as f64)
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Num(v)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Label(v.to_string())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Label(v)
    }
}

/// One measured series of a sweep: `values[i]` is this series' sample at
/// the sweep's `param_values[i]`. `NaN` means "no sample" and serializes
/// as `null`.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend name, e.g. `"Eiffel-hClock"`.
    pub name: String,
    /// Unit of every value, e.g. `"Mbps"`.
    pub unit: String,
    /// Decimal places used when rendering to stdout (JSON keeps full
    /// precision).
    pub decimals: usize,
    /// One sample per sweep row.
    pub values: Vec<f64>,
}

/// One numeric result block: a parameter axis and the series measured
/// along it. A figure with several panels (e.g. Figure 12's line-rate and
/// rate-limit experiments) holds one sweep per panel.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Panel name, e.g. `"10 Gbps line rate"`.
    pub name: String,
    /// Sweep parameter's name, e.g. `"flows"`.
    pub param: String,
    /// Parameter value of each row.
    pub param_values: Vec<ParamValue>,
    /// Measured series, each aligned with `param_values`.
    pub series: Vec<Series>,
}

impl Sweep {
    /// Creates an empty sweep over the named parameter.
    pub fn new(name: impl Into<String>, param: impl Into<String>) -> Self {
        Sweep {
            name: name.into(),
            param: param.into(),
            param_values: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Declares a series (order matters: it must match the value order
    /// later given to [`Sweep::push_row`]).
    pub fn add_series(
        &mut self,
        name: impl Into<String>,
        unit: impl Into<String>,
        decimals: usize,
    ) -> &mut Self {
        self.series.push(Series {
            name: name.into(),
            unit: unit.into(),
            decimals,
            values: Vec::new(),
        });
        self
    }

    /// Appends one row: the parameter value plus one sample per declared
    /// series, in declaration order.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the number of series.
    pub fn push_row(&mut self, param: impl Into<ParamValue>, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.series.len(),
            "one value per declared series"
        );
        self.param_values.push(param.into());
        for (s, &v) in self.series.iter_mut().zip(values) {
            s.values.push(v);
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("name", JsonValue::string(&self.name)),
            ("param", JsonValue::string(&self.param)),
            (
                "param_values",
                JsonValue::Array(self.param_values.iter().map(ParamValue::to_json).collect()),
            ),
            (
                "series",
                JsonValue::Array(
                    self.series
                        .iter()
                        .map(|s| {
                            JsonValue::object(vec![
                                ("name", JsonValue::string(&s.name)),
                                ("unit", JsonValue::string(&s.unit)),
                                (
                                    "values",
                                    JsonValue::Array(
                                        s.values.iter().map(|&v| JsonValue::Number(v)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn render(&self) {
        let mut headers: Vec<String> = vec![self.param.clone()];
        for s in &self.series {
            headers.push(if s.unit.is_empty() {
                s.name.clone()
            } else {
                format!("{} ({})", s.name, s.unit)
            });
        }
        let rows: Vec<Vec<String>> = self
            .param_values
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut row = vec![p.display()];
                for s in &self.series {
                    let v = s.values[i];
                    row.push(if v.is_nan() {
                        "-".to_string()
                    } else {
                        format!("{v:.prec$}", prec = s.decimals)
                    });
                }
                row
            })
            .collect();
        if !self.name.is_empty() {
            println!("--- {} ---", self.name);
        }
        let hdr: Vec<&str> = headers.iter().map(String::as_str).collect();
        table(&hdr, &rows);
        println!();
    }
}

/// One qualitative result block: a plain string matrix (Table 1, the
/// Figure 20 decision-tree output).
#[derive(Debug, Clone)]
pub struct TextTable {
    /// Block name.
    pub name: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a text table from headers; rows are pushed by the caller.
    pub fn new(name: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            name: name.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("name", JsonValue::string(&self.name)),
            (
                "headers",
                JsonValue::Array(self.headers.iter().map(JsonValue::string).collect()),
            ),
            (
                "rows",
                JsonValue::Array(
                    self.rows
                        .iter()
                        .map(|r| JsonValue::Array(r.iter().map(JsonValue::string).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    fn render(&self) {
        if !self.name.is_empty() {
            println!("--- {} ---", self.name);
        }
        let hdr: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        table(&hdr, &self.rows);
        println!();
    }
}

/// The machine-readable record of one figure-binary run.
///
/// Build it as the experiment progresses (sweeps, tables, notes), then
/// call [`BenchReport::finish`] once: it renders the human tables to
/// stdout and writes the JSON document if the run asked for one. See the
/// [module docs](crate::report) for the JSON schema.
#[derive(Debug)]
pub struct BenchReport {
    /// Figure id — the binary name, e.g. `"fig12_hclock_scaling"`.
    pub figure: String,
    /// Paper artifact, e.g. `"Figure 12"`.
    pub artifact: String,
    /// Human title.
    pub title: String,
    /// The paper claim under reproduction, with a section citation.
    pub paper_claim: String,
    /// Whether this run used `--quick` scaling.
    pub quick: bool,
    /// Operating-point configuration recorded for reproducibility.
    pub config: Vec<(String, JsonValue)>,
    /// Captured environment metadata.
    env: Environment,
    /// Numeric result blocks.
    pub sweeps: Vec<Sweep>,
    /// Qualitative result blocks.
    pub tables: Vec<TextTable>,
    /// Free-form observations, printed after the tables.
    pub notes: Vec<String>,
    started: Instant,
}

impl BenchReport {
    /// Starts a report; the wall clock runs from here to
    /// [`BenchReport::finish`].
    pub fn new(
        figure: impl Into<String>,
        artifact: impl Into<String>,
        title: impl Into<String>,
        args: &BenchArgs,
    ) -> Self {
        BenchReport {
            figure: figure.into(),
            artifact: artifact.into(),
            title: title.into(),
            paper_claim: String::new(),
            quick: args.quick,
            config: Vec::new(),
            env: Environment::capture(),
            sweeps: Vec::new(),
            tables: Vec::new(),
            notes: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Sets the paper claim line.
    pub fn paper_claim(&mut self, claim: impl Into<String>) -> &mut Self {
        self.paper_claim = claim.into();
        self
    }

    /// Records a numeric operating-point knob.
    pub fn config_num(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.config.push((key.into(), JsonValue::Number(value)));
        self
    }

    /// Records a textual operating-point knob.
    pub fn config_str(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.config
            .push((key.into(), JsonValue::String(value.into())));
        self
    }

    /// Appends a completed sweep.
    pub fn push_sweep(&mut self, sweep: Sweep) -> &mut Self {
        self.sweeps.push(sweep);
        self
    }

    /// Appends a completed text table.
    pub fn push_table(&mut self, table: TextTable) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Appends an observation line.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Serializes the report (schema `eiffel-bench-report/v1`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("schema", JsonValue::string(SCHEMA)),
            ("figure", JsonValue::string(&self.figure)),
            ("artifact", JsonValue::string(&self.artifact)),
            ("title", JsonValue::string(&self.title)),
            ("paper_claim", JsonValue::string(&self.paper_claim)),
            ("quick", JsonValue::Bool(self.quick)),
            ("config", JsonValue::Object(self.config.clone())),
            ("environment", self.env.to_json()),
            (
                "sweeps",
                JsonValue::Array(self.sweeps.iter().map(Sweep::to_json).collect()),
            ),
            (
                "tables",
                JsonValue::Array(self.tables.iter().map(TextTable::to_json).collect()),
            ),
            (
                "notes",
                JsonValue::Array(self.notes.iter().map(JsonValue::string).collect()),
            ),
            (
                "wall_secs",
                JsonValue::Number((self.started.elapsed().as_secs_f64() * 1e3).round() / 1e3),
            ),
        ])
    }

    /// Renders the report to stdout in the figure binaries' table style.
    fn render(&self) {
        banner(
            &format!("{} — {}", self.artifact.to_uppercase(), self.title),
            &if self.quick {
                "(--quick run: scaled-down sweep; not for the record)".to_string()
            } else {
                String::new()
            },
        );
        for sweep in &self.sweeps {
            sweep.render();
        }
        for t in &self.tables {
            t.render();
        }
        for n in &self.notes {
            println!("{n}");
        }
        if !self.paper_claim.is_empty() {
            println!("Paper: {}", self.paper_claim);
        }
    }

    /// Writes the JSON document to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty_string())
    }

    /// Renders to stdout, then writes JSON if the run asked for it. Every
    /// figure binary's last call.
    pub fn finish(&self, args: &BenchArgs) {
        self.render();
        if let Some(path) = &args.json {
            match self.write_json(path) {
                Ok(()) => println!("\n[report] wrote {}", path.display()),
                Err(e) => {
                    eprintln!("[report] FAILED to write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_reduces_monotonically() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let c = cdf(&samples, 10);
        assert_eq!(c.len(), 10);
        assert!((c[0].0 - 10.0).abs() < 1e-9);
        assert!((c[9].0 - 100.0).abs() < 1e-9);
        assert!(c.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
    }

    #[test]
    fn cdf_of_empty_is_empty() {
        assert!(cdf(&[], 5).is_empty());
    }

    #[test]
    fn args_parse_quick_and_json_forms() {
        let a = BenchArgs::from_iter(
            [
                "--quick".to_string(),
                "--json".to_string(),
                "out.json".to_string(),
            ],
            None,
        );
        assert!(a.quick);
        assert_eq!(a.json.as_deref(), Some(Path::new("out.json")));

        let a = BenchArgs::from_iter(["--json=x.json".to_string()], None);
        assert!(!a.quick);
        assert_eq!(a.json.as_deref(), Some(Path::new("x.json")));

        // Env var supplies a default; the flag overrides it.
        let a = BenchArgs::from_iter([], Some("env.json".to_string()));
        assert_eq!(a.json.as_deref(), Some(Path::new("env.json")));
        let a = BenchArgs::from_iter(
            ["--json".to_string(), "flag.json".to_string()],
            Some("env.json".to_string()),
        );
        assert_eq!(a.json.as_deref(), Some(Path::new("flag.json")));
    }

    #[test]
    fn report_round_trips_through_json() {
        let args = BenchArgs::from_iter(["--quick".to_string()], None);
        let mut r = BenchReport::new("fig00_test", "Figure 0", "unit-test report", &args);
        r.paper_claim("claims are cited (§0)");
        r.config_num("duration_ms", 100.0);
        r.config_str("workload", "uniform");
        let mut sw = Sweep::new("panel A", "flows");
        sw.add_series("Eiffel", "Mbps", 0);
        sw.add_series("heap", "Mbps", 0);
        sw.push_row(10usize, &[9_900.0, 9_700.0]);
        sw.push_row(100usize, &[9_950.0, f64::NAN]);
        r.push_sweep(sw);
        let mut t = TextTable::new("matrix", &["System", "Verdict"]);
        t.rows.push(vec!["Eiffel".into(), "O(1)".into()]);
        r.push_table(t);
        r.note("an observation with \"quotes\"");

        let text = r.to_json().to_pretty_string();
        let doc = JsonValue::parse(&text).expect("report JSON must parse");
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), SCHEMA);
        assert_eq!(doc.get("figure").unwrap().as_str().unwrap(), "fig00_test");
        assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
        let sweeps = doc.get("sweeps").unwrap().as_array().unwrap();
        assert_eq!(sweeps.len(), 1);
        let series = sweeps[0].get("series").unwrap().as_array().unwrap();
        assert_eq!(series[0].get("name").unwrap().as_str(), Some("Eiffel"));
        assert_eq!(series[0].get("unit").unwrap().as_str(), Some("Mbps"));
        // NaN became null.
        assert_eq!(
            series[1].get("values").unwrap().as_array().unwrap()[1],
            JsonValue::Null
        );
        // Environment is present and self-describing.
        let env = doc.get("environment").unwrap();
        assert!(env
            .get("rustc")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("rustc"));
        assert!(env.get("cpus").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(env.get("date_utc").unwrap().as_str().unwrap().len(), 10);
        assert!(doc.get("wall_secs").unwrap().as_f64().is_some());
    }

    #[test]
    #[should_panic(expected = "one value per declared series")]
    fn sweep_rejects_ragged_rows() {
        let mut sw = Sweep::new("p", "x");
        sw.add_series("a", "u", 0);
        sw.push_row(1usize, &[1.0, 2.0]);
    }

    #[test]
    fn utc_date_is_sane() {
        let d = utc_date_today();
        // YYYY-MM-DD with a plausible year.
        assert_eq!(d.len(), 10);
        let year: i32 = d[..4].parse().unwrap();
        assert!((2024..2100).contains(&year), "{d}");
        assert_eq!(&d[4..5], "-");
        assert_eq!(&d[7..8], "-");
    }
}
