//! In-memory spans recorded by the traced pass.
//!
//! The library has no tracing of its own yet, so spans are taken from the
//! benchmark's side of each layer's public API. A span covers a *chunk* of
//! calls (1 024 by default) rather than one call: two clock reads cost
//! about as much as the ~30 ns operations being priced, and per-chunk they
//! stay under 1 % of the chunk. Spans live in a `Vec` until the run ends
//! and are then written out as one JSON file.

use std::io::Write;
use std::time::Instant;

use crate::json::Json;

/// Calls covered by one chunk span.
pub const CHUNK: usize = 1_024;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls (or packets) the span covers.
    pub ops: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.push(name, parent, now, now, 0)
    }

    pub fn close(&mut self, id: SpanId, ops: u64) {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ops = ops;
    }

    /// Records a finished span from explicit clock readings.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        ops: u64,
    ) -> SpanId {
        debug_assert!(end_ns >= start_ns);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
            ops,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span of `ops` calls and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        ops: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.push(name, parent, start, end, ops);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and ops of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, o), s| (d + s.dur_ns(), o + s.ops))
    }

    /// Mean nanoseconds per op over every span called `name` (0 if none).
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let (dur, ops) = self.total(name);
        if ops == 0 {
            0.0
        } else {
            dur as f64 / ops as f64
        }
    }

    /// Writes the span file: a table of names, then one row per span
    /// (`[id, name, parent, start_ns, end_ns, ops]`, parent −1 for none).
    /// Rows rather than objects, and streamed, because a pass records
    /// hundreds of thousands of spans.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let index: Vec<usize> = self
            .spans
            .iter()
            .map(|s| {
                names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                })
            })
            .collect();
        let names = Json::Arr(names.into_iter().map(Json::str).collect());
        writeln!(out, "{{\"names\": {},", names.to_line())?;
        writeln!(
            out,
            "\"columns\": [\"id\", \"name\", \"parent\", \"start_ns\", \"end_ns\", \"ops\"],"
        )?;
        writeln!(out, "\"spans\": [")?;
        for (id, (s, name)) in self.spans.iter().zip(index).enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{id}, {name}, {parent}, {}, {}, {}]{sep}",
                s.start_ns, s.end_ns, s.ops
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_group_spans_by_name() {
        let mut t = Tracer::default();
        let root = t.push("root", None, 0, 1_000, 10);
        t.push("child", Some(root), 100, 400, 5);
        t.push("child", Some(root), 500, 700, 5);
        assert_eq!(t.total("child"), (500, 10));
        assert_eq!(t.ns_per_op("child"), 50.0);
        assert_eq!(t.ns_per_op("absent"), 0.0);
    }

    #[test]
    fn open_close_and_time_record_monotone_spans() {
        let mut t = Tracer::default();
        let root = t.open("root", None);
        let got = t.time("work", Some(root), 3, || 41 + 1);
        t.close(root, 7);
        assert_eq!(got, 42);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].ops, s[1].parent), ("root", 7, Some(root)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn span_file_shape() {
        let mut t = Tracer::default();
        let root = t.push("a.b", None, 1, 9, 2);
        t.push("c", Some(root), 2, 3, 1);
        t.push("c", Some(root), 4, 5, 1);
        let mut buf = Vec::new();
        t.write_json(&mut buf).unwrap();
        let j = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let names: Vec<_> = j
            .get("names")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|n| n.as_str().unwrap())
            .collect();
        assert_eq!(names, ["a.b", "c"]);
        assert_eq!(j.get("columns").and_then(Json::as_arr).unwrap().len(), 6);
        let rows = j.get("spans").and_then(Json::as_arr).unwrap();
        let row = |i: usize| -> Vec<f64> {
            rows[i]
                .as_arr()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect()
        };
        assert_eq!(row(0), [0.0, 0.0, -1.0, 1.0, 9.0, 2.0]);
        assert_eq!(row(2), [2.0, 1.0, 0.0, 4.0, 5.0, 1.0]);
    }

    #[test]
    fn empty_span_file_is_valid_json() {
        let mut buf = Vec::new();
        Tracer::default().write_json(&mut buf).unwrap();
        let j = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(
            j.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
    }
}
