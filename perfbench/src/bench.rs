//! The round loop's bookkeeping: per-phase meters for the end-to-end
//! metrics, and — in the traced run only — spans around every call the
//! benchmark makes into a layer.
//!
//! A span is `(name, start, end, parent)`; every layer call is a child of
//! the round that made it. Spans stay in memory and are written out once,
//! when the run ends.

use crate::measure::Meter;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Which end-to-end figure a call's cost is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before the first `step` of a world: input generation, graph build
    /// and partition, `Experiment::try_start` (`setup_s`).
    Setup,
    /// Driving the simulator (`sim.*`; also part of `wall_s`/`cpu_s`).
    Step,
    /// Everything else the program does after set-up (`wall_s`/`cpu_s`).
    Run,
    /// The benchmark's own work — correctness checks, freeing its inputs:
    /// traced, never timed into an end-to-end metric.
    Check,
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Meters of one timed entry of a round: a world, a search, or a batch
/// of `serve` tenants.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpMeters {
    pub setup: Meter,
    /// Post-set-up program work, steps included.
    pub run: Meter,
    pub step: Meter,
}

pub struct Bench {
    tracing: bool,
    t0: Instant,
    spans: Vec<Span>,
    round_span: Option<usize>,
    /// The current round's operations; calls charge the last one.
    ops: Vec<OpMeters>,
}

/// Name of the span that encloses one round.
pub const ROUND: &str = "bench.round";

impl Bench {
    pub fn new(tracing: bool) -> Self {
        Self {
            tracing,
            t0: Instant::now(),
            spans: Vec::new(),
            round_span: None,
            ops: Vec::new(),
        }
    }

    /// Nanoseconds since the run began.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Make one call into a layer: charge it to `phase` and, when
    /// tracing, record it as span `name`.
    pub fn call<R>(&mut self, phase: Phase, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = if self.tracing { self.now_ns() } else { 0 };
        let op = self.ops.last_mut().expect("calls are made inside a round");
        let r = match phase {
            Phase::Setup => op.setup.time(f),
            Phase::Step => {
                let mut m = Meter::default();
                let r = m.time(f);
                op.step.add(&m);
                op.run.add(&m);
                r
            }
            Phase::Run => op.run.time(f),
            Phase::Check => f(),
        };
        if self.tracing {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.round_span,
            });
        }
        r
    }

    /// Start a round; its first timed entry starts with it.
    pub fn begin_round(&mut self) {
        self.ops = vec![OpMeters::default()];
        if self.tracing {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name: ROUND,
                start_ns,
                end_ns: start_ns,
                parent: None,
            });
            self.round_span = Some(self.spans.len() - 1);
        }
    }

    /// Start the round's next timed entry. Every round of a workload
    /// makes the same entries in the same order.
    pub fn next_op(&mut self) {
        self.ops.push(OpMeters::default());
    }

    /// End the round; returns the meters of each of its operations.
    pub fn end_round(&mut self) -> Vec<OpMeters> {
        if let Some(i) = self.round_span.take() {
            self.spans[i].end_ns = self.now_ns();
        }
        std::mem::take(&mut self.ops)
    }

    /// Median duration (ns) of the spans called `name`; 0 if none.
    pub fn median_ns(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            crate::measure::median(&d)
        }
    }

    /// The layer table of the traced run: per span name the call count,
    /// total and self time, and the share of the traced wall time the
    /// layer spans cover. Returns the rendered table and the coverage.
    pub fn layer_table(&self) -> (String, f64) {
        let wall_ns = self
            .spans
            .iter()
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(0)
            .max(1);
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += dur;
            row.2 += dur.saturating_sub(child_ns[i]);
        }
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.name != ROUND)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let coverage = covered as f64 / wall_ns as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:>7} {:>12} {:>12} {:>7}",
            "span", "calls", "total_ms", "self_ms", "self%"
        );
        for (name, (calls, total, own)) in &rows {
            let _ = writeln!(
                out,
                "{:<20} {:>7} {:>12.3} {:>12.3} {:>6.2}%",
                name,
                calls,
                *total as f64 / 1e6,
                *own as f64 / 1e6,
                100.0 * *own as f64 / wall_ns as f64
            );
        }
        let _ = writeln!(
            out,
            "traced wall {:.3} s, layer spans cover {:.2}%",
            wall_ns as f64 / 1e9,
            100.0 * coverage
        );
        (out, coverage)
    }

    /// The spans as JSON lines: `{"name","start_ns","end_ns","parent"}`.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.start_ns, s.end_ns, parent
            );
        }
        out
    }
}
