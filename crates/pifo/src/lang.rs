//! A textual policy language compiled into a scheduling tree.
//!
//! The paper configures Eiffel by compiling PIFO-model policy descriptions
//! (DOT graphs) into scheduler code (§4, "Policy Creation"). This module is
//! that compiler for the Rust implementation: a line-based description of
//! the scheduling tree, its transactions, per-flow leaves and rate limits,
//! compiled into a ready [`PifoTree`].
//!
//! ```text
//! # A hierarchy: weighted sharing at the root, a rate-limited video class,
//! # an LQF-scheduled interactive class (Eiffel per-flow extension).
//! node root  kind=stfq
//! node video parent=root kind=fifo     weight=4 limit=10mbps
//! node web   parent=root kind=flow:lqf weight=1
//! ```
//!
//! Grammar per line: `node <name> [parent=<name>] kind=<kind> [attr=value]…`
//! (blank lines and `#` comments ignored). Kinds:
//!
//! | kind | transaction | notes |
//! |---|---|---|
//! | `fifo` | [`Fifo`] | |
//! | `strict` | [`StrictPriority`] | ranks by the packet's class |
//! | `childprio` | [`ChildPriority`] | children declare `prio=N` |
//! | `stfq` | [`Stfq`] | children declare `weight=N` |
//! | `wfq` | [`Wfq`] | finish-tag WFQ; children declare `weight=N` |
//! | `edf` | [`Edf`] | `deadlines=1ms,10ms,…` per class |
//! | `slack` | [`SlackRank`] | annotator-provided ranks |
//! | `lstf` | [`Lstf`] | deadline = `created_at` + annotated slack |
//! | `flow:fifo` | per-flow round robin | Eiffel flow leaf |
//! | `flow:lqf` | Figure 6 LQF | Eiffel flow leaf |
//! | `flow:pfabric` | Figure 14 pFabric | Eiffel flow leaf |
//! | `flow:hclock` | [`HClockFlow`] | `res=`, `lim=` rates, `share=N` |
//! | `flow:hfsc` | [`HfscCurves`] | `m1=`, `m2=` rates, `burst=BYTES`, `share=N` |
//!
//! `limit=<rate>` (e.g. `500kbps`, `10mbps`, `2gbps`) attaches the node to
//! the hierarchy-wide shaper; on the root it means pacing. The QoS flow
//! leaves (`flow:hclock`, `flow:hfsc`) apply one spec uniformly to every
//! flow — per-flow spec tables are built through the library API.

use std::collections::HashMap;

use eiffel_core::{QueueConfig, QueueKind};
use eiffel_sim::Rate;

use crate::flow::FlowPolicy;
use crate::policies::{
    ChildPriority, CurveSpec, Edf, Fifo, FlowFifo, HClockFlow, HfscCurves, Lqf, Lstf, Pfabric,
    QosSpec, SlackRank, Stfq, StrictPriority, Wfq, LQF_CAP,
};
use crate::tree::{NodeId, PifoTree, TreeBuilder};

/// A compile error with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line in the policy text.
    pub line: usize,
    /// Human-readable reason.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone)]
struct NodeSpec {
    line: usize,
    name: String,
    parent: Option<String>,
    kind: String,
    weight: Option<u64>,
    prio: Option<u64>,
    limit: Option<Rate>,
    deadlines: Option<Vec<u64>>,
    /// `flow:hclock` reservation rate.
    res: Option<Rate>,
    /// `flow:hclock` limit rate (per flow, unlike the node-level `limit=`).
    lim: Option<Rate>,
    /// `flow:hclock` / `flow:hfsc` proportional share.
    share: Option<u64>,
    /// `flow:hfsc` burst-phase rate.
    m1: Option<Rate>,
    /// `flow:hfsc` steady-state rate.
    m2: Option<Rate>,
    /// `flow:hfsc` burst bytes at `m1` per backlog period.
    burst: Option<u64>,
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a rate like `750kbps`, `10mbps`, `2gbps`, `1000bps`.
fn parse_rate(s: &str, line: usize) -> Result<Rate, ParseError> {
    let lower = s.to_ascii_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix("gbps") {
        (n, 1_000_000_000u64)
    } else if let Some(n) = lower.strip_suffix("mbps") {
        (n, 1_000_000)
    } else if let Some(n) = lower.strip_suffix("kbps") {
        (n, 1_000)
    } else if let Some(n) = lower.strip_suffix("bps") {
        (n, 1)
    } else {
        return Err(err(
            line,
            format!("rate '{s}' needs a bps/kbps/mbps/gbps suffix"),
        ));
    };
    let v: f64 = num
        .parse()
        .map_err(|_| err(line, format!("bad rate number '{num}'")))?;
    if v <= 0.0 {
        return Err(err(line, format!("rate '{s}' must be positive")));
    }
    Ok(Rate::bps((v * mult as f64) as u64))
}

/// Parses a duration like `500ns`, `10us`, `3ms`, `2s` into nanoseconds.
fn parse_duration(s: &str, line: usize) -> Result<u64, ParseError> {
    let lower = s.to_ascii_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix("ns") {
        (n, 1u64)
    } else if let Some(n) = lower.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = lower.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = lower.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        return Err(err(
            line,
            format!("duration '{s}' needs an ns/us/ms/s suffix"),
        ));
    };
    let v: f64 = num
        .parse()
        .map_err(|_| err(line, format!("bad duration number '{num}'")))?;
    if v < 0.0 {
        return Err(err(line, format!("duration '{s}' must be non-negative")));
    }
    Ok((v * mult as f64) as u64)
}

fn parse_spec(line_no: usize, line: &str) -> Result<NodeSpec, ParseError> {
    let mut toks = line.split_whitespace();
    let head = toks.next().expect("caller skips blank lines");
    if head != "node" {
        return Err(err(line_no, format!("expected 'node', found '{head}'")));
    }
    let name = toks
        .next()
        .ok_or_else(|| err(line_no, "missing node name"))?
        .to_string();
    let mut spec = NodeSpec {
        line: line_no,
        name,
        parent: None,
        kind: String::new(),
        weight: None,
        prio: None,
        limit: None,
        deadlines: None,
        res: None,
        lim: None,
        share: None,
        m1: None,
        m2: None,
        burst: None,
    };
    for tok in toks {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| err(line_no, format!("expected attr=value, found '{tok}'")))?;
        match k {
            "parent" => spec.parent = Some(v.to_string()),
            "kind" => spec.kind = v.to_string(),
            "weight" => {
                spec.weight = Some(
                    v.parse()
                        .map_err(|_| err(line_no, format!("bad weight '{v}'")))?,
                )
            }
            "prio" => {
                spec.prio = Some(
                    v.parse()
                        .map_err(|_| err(line_no, format!("bad prio '{v}'")))?,
                )
            }
            "limit" => spec.limit = Some(parse_rate(v, line_no)?),
            "res" => spec.res = Some(parse_rate(v, line_no)?),
            "lim" => spec.lim = Some(parse_rate(v, line_no)?),
            "m1" => spec.m1 = Some(parse_rate(v, line_no)?),
            "m2" => spec.m2 = Some(parse_rate(v, line_no)?),
            "share" => {
                spec.share = Some(
                    v.parse()
                        .map_err(|_| err(line_no, format!("bad share '{v}'")))?,
                )
            }
            "burst" => {
                spec.burst = Some(
                    v.parse()
                        .map_err(|_| err(line_no, format!("bad burst '{v}'")))?,
                )
            }
            "deadlines" => {
                let mut ds = Vec::new();
                for part in v.split(',') {
                    ds.push(parse_duration(part, line_no)?);
                }
                spec.deadlines = Some(ds);
            }
            other => return Err(err(line_no, format!("unknown attribute '{other}'"))),
        }
    }
    if spec.kind.is_empty() {
        return Err(err(line_no, "missing kind="));
    }
    Ok(spec)
}

/// Compiles a policy description into a scheduling tree.
///
/// The first node must be the (parentless) root; parents must be declared
/// before their children.
pub fn compile(policy: &str) -> Result<PifoTree, ParseError> {
    let mut specs: Vec<NodeSpec> = Vec::new();
    let mut by_name: HashMap<String, usize> = HashMap::new();
    for (i, raw) in policy.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let spec = parse_spec(line_no, line)?;
        if by_name.contains_key(&spec.name) {
            return Err(err(line_no, format!("duplicate node '{}'", spec.name)));
        }
        by_name.insert(spec.name.clone(), specs.len());
        specs.push(spec);
    }
    if specs.is_empty() {
        return Err(err(0, "empty policy"));
    }
    if specs[0].parent.is_some() {
        return Err(err(specs[0].line, "first node must be the parentless root"));
    }

    // Resolve parents and collect children per node (ids = spec order).
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); specs.len()];
    let mut parent_idx: Vec<Option<usize>> = vec![None; specs.len()];
    for (i, spec) in specs.iter().enumerate() {
        if let Some(pname) = &spec.parent {
            let p = *by_name
                .get(pname)
                .ok_or_else(|| err(spec.line, format!("unknown parent '{pname}'")))?;
            if p >= i {
                return Err(err(
                    spec.line,
                    format!("parent '{pname}' must be declared first"),
                ));
            }
            if specs[p].kind.starts_with("flow:") {
                return Err(err(
                    spec.line,
                    format!("flow leaf '{pname}' cannot have children"),
                ));
            }
            parent_idx[i] = Some(p);
            children[p].push(i);
        } else if i != 0 {
            return Err(err(spec.line, "only the first node may omit parent="));
        }
    }

    let mut b = TreeBuilder::new();
    for (i, spec) in specs.iter().enumerate() {
        let parent = parent_idx[i].map(NodeId);
        let id = match spec.kind.as_str() {
            "fifo" => b.node(&spec.name, parent, Box::new(Fifo::new()), spec.limit),
            "strict" => b.node(&spec.name, parent, Box::new(StrictPriority), spec.limit),
            "slack" => b.node(&spec.name, parent, Box::new(SlackRank), spec.limit),
            "lstf" => b.node(&spec.name, parent, Box::new(Lstf), spec.limit),
            "edf" => {
                let ds = spec
                    .deadlines
                    .clone()
                    .ok_or_else(|| err(spec.line, "edf needs deadlines=..."))?;
                b.node(&spec.name, parent, Box::new(Edf::new(ds)), spec.limit)
            }
            "childprio" => {
                let pairs: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| (c as u64, specs[c].prio.unwrap_or(63)))
                    .collect();
                b.node(
                    &spec.name,
                    parent,
                    Box::new(ChildPriority::new(&pairs)),
                    spec.limit,
                )
            }
            "stfq" => {
                let mut tx = Stfq::new();
                for &c in &children[i] {
                    if let Some(w) = specs[c].weight {
                        tx.set_weight(c as u64, w);
                    }
                }
                b.node(&spec.name, parent, Box::new(tx), spec.limit)
            }
            "wfq" => {
                let mut tx = Wfq::new();
                for &c in &children[i] {
                    if let Some(w) = specs[c].weight {
                        tx.set_weight(c as u64, w);
                    }
                }
                b.node(&spec.name, parent, Box::new(tx), spec.limit)
            }
            "flow:hclock" => {
                if parent.is_some() || spec.limit.is_some() {
                    // hClock parks limit-gated flows, which is only sound
                    // at an unshaped root (see TreeBuilder::flow_leaf).
                    return Err(err(
                        spec.line,
                        "flow:hclock must be the unshaped root (its lim= gates per flow)",
                    ));
                }
                let res = spec
                    .res
                    .ok_or_else(|| err(spec.line, "flow:hclock needs res=<rate>"))?;
                let lim = spec
                    .lim
                    .ok_or_else(|| err(spec.line, "flow:hclock needs lim=<rate>"))?;
                let qos = QosSpec {
                    reservation: res,
                    limit: lim,
                    share: spec.share.unwrap_or(1),
                };
                b.flow_leaf(
                    &spec.name,
                    parent,
                    Box::new(HClockFlow::new(vec![qos])),
                    // Two-band ranks (quantized deadlines ⊕ virtual times)
                    // span the whole u64: keep ordering exact.
                    QueueKind::BTree.build(QueueConfig::new(1, 1, 0)),
                    spec.limit,
                )
            }
            "flow:hfsc" => {
                let m1 = spec
                    .m1
                    .ok_or_else(|| err(spec.line, "flow:hfsc needs m1=<rate>"))?;
                let m2 = spec
                    .m2
                    .ok_or_else(|| err(spec.line, "flow:hfsc needs m2=<rate>"))?;
                let curve = CurveSpec {
                    m1,
                    m2,
                    burst: spec.burst.unwrap_or(15_000),
                    share: spec.share.unwrap_or(1),
                };
                b.flow_leaf(
                    &spec.name,
                    parent,
                    Box::new(HfscCurves::new(vec![curve])),
                    QueueKind::BTree.build(QueueConfig::new(1, 1, 0)),
                    spec.limit,
                )
            }
            "flow:fifo" | "flow:lqf" | "flow:pfabric" => {
                let (policy, queue): (Box<dyn FlowPolicy>, _) = match spec.kind.as_str() {
                    "flow:fifo" => (
                        Box::new(FlowFifo::default()),
                        QueueKind::Cffs.build(QueueConfig::new(4_096, 1, 0)),
                    ),
                    "flow:lqf" => (
                        Box::new(Lqf),
                        QueueKind::Cffs.build(QueueConfig::new(4_096, 1, LQF_CAP - 4_096)),
                    ),
                    _ => (
                        Box::new(Pfabric),
                        // Remaining flow size in packets: fixed range.
                        QueueKind::HierFfs.build(QueueConfig::new(1 << 20, 1, 0)),
                    ),
                };
                b.flow_leaf(&spec.name, parent, policy, queue, spec.limit)
            }
            other => return Err(err(spec.line, format!("unknown kind '{other}'"))),
        };
        debug_assert_eq!(id.0, i, "spec order must equal node id order");
    }
    b.build().map_err(|e| err(0, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eiffel_sim::Packet;

    #[test]
    fn rate_and_duration_parsing() {
        assert_eq!(parse_rate("10mbps", 1).unwrap(), Rate::mbps(10));
        assert_eq!(parse_rate("2gbps", 1).unwrap(), Rate::gbps(2));
        assert_eq!(parse_rate("750kbps", 1).unwrap(), Rate::kbps(750));
        assert_eq!(parse_rate("1.5mbps", 1).unwrap(), Rate::bps(1_500_000));
        assert!(parse_rate("10", 1).is_err());
        assert!(parse_rate("-1mbps", 1).is_err());
        assert_eq!(parse_duration("10us", 1).unwrap(), 10_000);
        assert_eq!(parse_duration("2ms", 1).unwrap(), 2_000_000);
        assert_eq!(parse_duration("1s", 1).unwrap(), 1_000_000_000);
        assert_eq!(parse_duration("1.5us", 1).unwrap(), 1_500);
        assert!(parse_duration("5", 1).is_err());
    }

    #[test]
    fn compiles_the_doc_example() {
        let t = compile(
            "# weighted share with a limited class\n\
             node root  kind=stfq\n\
             node video parent=root kind=fifo     weight=4 limit=10mbps\n\
             node web   parent=root kind=flow:lqf weight=1\n",
        )
        .unwrap();
        assert!(t.node_by_name("video").is_ok());
        assert!(t.node_by_name("web").is_ok());
    }

    #[test]
    fn compiled_strict_priority_schedules_correctly() {
        let mut t = compile(
            "node root kind=childprio\n\
             node hi   parent=root kind=fifo prio=0\n\
             node lo   parent=root kind=fifo prio=1\n",
        )
        .unwrap();
        let hi = t.node_by_name("hi").unwrap();
        let lo = t.node_by_name("lo").unwrap();
        t.enqueue(0, lo, Packet::mtu(0, 0, 0)).unwrap();
        t.enqueue(0, hi, Packet::mtu(1, 1, 0)).unwrap();
        assert_eq!(t.dequeue(0).unwrap().id, 1, "prio=0 child first");
        assert_eq!(t.dequeue(0).unwrap().id, 0);
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let e = compile("node root kind=stfq\nnode bad parent=root kind=wat\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown kind"));

        let e = compile("node root kind=stfq\nnode a parent=ghost kind=fifo\n").unwrap_err();
        assert!(e.message.contains("unknown parent"));

        let e = compile("node root kind=stfq\nnode root parent=root kind=fifo\n").unwrap_err();
        assert!(e.message.contains("duplicate"));

        let e = compile("node root parent=x kind=fifo\n").unwrap_err();
        assert!(e.message.contains("root"));

        let e = compile("").unwrap_err();
        assert!(e.message.contains("empty"));

        let e = compile("node root kind=edf\n").unwrap_err();
        assert!(e.message.contains("deadlines"));

        let e = compile(
            "node root kind=stfq\nnode f parent=root kind=flow:lqf\nnode c parent=f kind=fifo\n",
        )
        .unwrap_err();
        assert!(e.message.contains("cannot have children"));
    }

    #[test]
    fn edf_policy_compiles_and_orders_by_deadline() {
        let mut t = compile("node root kind=edf deadlines=1ms,10ms\n").unwrap();
        let root = t.node_by_name("root").unwrap();
        let mut urgent = Packet::mtu(0, 0, 0);
        urgent.class = 0;
        let mut lax = Packet::mtu(1, 1, 0);
        lax.class = 1;
        t.enqueue(0, root, lax).unwrap();
        t.enqueue(0, root, urgent).unwrap();
        assert_eq!(t.dequeue(0).unwrap().id, 0, "1 ms deadline first");
    }
}
