//! `perfbench` — the end-to-end benchmark of the mtmpi workspace.
//!
//! ```text
//! perfbench --workload <pt2pt|rma_profile|serve|bfs> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole rounds of one workload until `--seconds` of rounds have
//! passed, checks every round's outputs, and prints one JSON object as
//! the last line of standard output: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the traced run with `--trace 1`. Any failed operation makes
//! the exit code non-zero. See README.md for the metric definitions.

mod bench;
mod measure;
mod workloads;

use bench::{Bench, OpMeters};
use measure::quantile;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics: `(name, unit)`; printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("tenants_per_s", "1/s"),
    ("virt_rate", "1/sim_s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`; printed by every traced run. A
/// layer the workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph500.generate_s", "s"),
    ("graph500.partition_s", "s"),
    ("graph500.edges_per_search", "count"),
    ("core.start_ms", "ms"),
    ("core.finish_ms", "ms"),
    ("sim.step_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.cpu_ns_per_event", "ns"),
    ("sim.ctx_switches_per_event", "count"),
    ("runtime.cs_per_op", "count"),
    ("runtime.events_per_op", "count"),
    ("runtime.cs_wait_p50_ns", "ns"),
    ("runtime.cs_wait_p99_ns", "ns"),
    ("runtime.dangling_avg", "count"),
    ("runtime.max_unexpected", "count"),
    ("runtime.waitspin_cs", "count"),
    ("obs.timeline_events", "count"),
    ("obs.dropped", "count"),
    ("obs.export_ms", "ms"),
    ("obs.export_bytes", "bytes"),
    ("prof.analyze_ms", "ms"),
    ("prof.ns_per_event", "ns"),
    ("serve.hold_ms_p50", "ms"),
    ("serve.hold_ms_p99", "ms"),
    ("serve.busy_frac", "ratio"),
    ("serve.grants", "count"),
    ("serve.hold_gini", "ratio"),
    ("trace.coverage", "ratio"),
];

/// What one round of a workload did, besides the time it took.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundOut {
    /// Operations attempted (worlds, searches or tenants).
    pub attempted: u64,
    /// Operations that failed: a typed `SimError`, a panic or a check.
    pub failed: u64,
    /// Simulated worlds completed (`TenantRun`s; tenants for `serve`).
    pub worlds: u64,
    /// Scheduler events executed.
    pub events: u64,
    /// Useful work: messages, RMA ops, traversed edges, tenant payload.
    pub work: u64,
    /// Simulated time the useful work took, ns (summed over worlds).
    pub sim_ns: u64,
}

/// Per-layer values a workload fills in, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One benchmark workload: repeatable rounds of identical operations.
pub trait Workload {
    /// Run one round, charging every layer call through `b`.
    fn round(&mut self, b: &mut Bench) -> RoundOut;
    /// Fill the per-layer metrics only this workload can supply.
    fn layers(&self, b: &Bench, layers: &mut Layers);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pt2pt|rma_profile|serve|bfs> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let Some(mut workload) = workloads::by_name(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };

    let mut bench = Bench::new(args.trace);
    let budget = Duration::from_secs(args.seconds);
    let mut rounds: Vec<(Vec<OpMeters>, RoundOut)> = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let round_start = Duration::from_nanos(bench.now_ns());
        bench.begin_round();
        let out = workload.round(&mut bench);
        let ops = bench.end_round();
        let secs = |f: fn(&OpMeters) -> u64| ops.iter().map(f).sum::<u64>() as f64 / 1e9;
        eprintln!(
            "[perfbench] round {}: setup {:.6} s, wall {:.6} s, cpu {:.6} s, {} events",
            rounds.len() + 1,
            secs(|m| m.setup.wall_ns),
            secs(|m| m.run.wall_ns),
            secs(|m| m.run.cpu_ns),
            out.events
        );
        rounds.push((ops, out));
        // Start another round only if it can end within the budget,
        // judged by the longest round so far.
        let now = Duration::from_nanos(bench.now_ns());
        longest = longest.max(now - round_start);
        if now + longest > budget {
            break;
        }
    }

    let attempted: u64 = rounds.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = rounds.iter().map(|(_, o)| o.failed).sum();
    let last = rounds.last().expect("at least one round").1;
    let t = typical(&rounds);
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let (table, coverage) = bench.layer_table();
        eprintln!(
            "[perfbench] {} traced run, {} rounds:\n{table}",
            args.workload,
            rounds.len()
        );
        write_spans(&args, &bench);
        let mut layers: Layers = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        let events = last.events.max(1) as f64;
        layers.insert("core.start_ms", bench.median_ns("core.start") / 1e6);
        layers.insert("core.finish_ms", bench.median_ns("core.finish") / 1e6);
        layers.insert("sim.step_s", t.step_s);
        layers.insert("sim.events", last.events as f64);
        layers.insert("sim.ns_per_event", t.step_s * 1e9 / events);
        layers.insert("sim.cpu_ns_per_event", t.step_cpu_s * 1e9 / events);
        layers.insert("sim.ctx_switches_per_event", t.step_ctx / events);
        workload.layers(&bench, &mut layers);
        layers.insert("trace.coverage", coverage);
        for &(name, unit) in PER_LAYER {
            metrics.push((name, unit, layers[name]));
        }
        if coverage < 0.95 {
            eprintln!(
                "[perfbench] layer spans cover only {:.1}% of the traced run",
                coverage * 100.0
            );
            print_result(false, attempted, failed, &metrics);
            std::process::exit(1);
        }
    } else {
        let values = [
            t.setup_s,
            t.wall_s,
            t.cpu_s,
            last.events as f64 / t.step_s,
            last.worlds as f64 / t.wall_s,
            last.work as f64 / (last.sim_ns.max(1) as f64 / 1e9),
            measure::peak_rss_mb(),
        ];
        for (&(name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, v));
        }
    }
    eprintln!(
        "[perfbench] {} seed {}: {} rounds, {attempted} operations, {failed} failed",
        args.workload,
        args.seed,
        rounds.len()
    );
    print_result(failed == 0, attempted, failed, &metrics);
    if failed > 0 {
        std::process::exit(1);
    }
}

/// The host-time figures of a typical round, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Typical {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    step_s: f64,
    step_cpu_s: f64,
    step_ctx: f64,
}

/// The share of rounds a host-time figure is read at: the lowest decile.
/// Every round makes the same operations on the same inputs, so the
/// program's own cost is the same in each, and rounds differ by what the
/// host adds: wakeups across CPUs and time the hypervisor gives to other
/// machines. That only ever adds time, so the low decile is the steady
/// reading of the program's cost, and it still moves with any change that
/// makes every round slower or faster.
const HOST_QUANTILE: f64 = 0.1;

/// A typical round: for each timed entry of the round, the
/// `HOST_QUANTILE` over rounds of each of its meters, summed over the
/// entries. Per entry rather than per round: every entry then contributes
/// as many samples as there were rounds, and a short entry is more often
/// timed in a quiet stretch of the host than a whole round is.
fn typical(rounds: &[(Vec<OpMeters>, RoundOut)]) -> Typical {
    let nops = rounds.iter().map(|(ops, _)| ops.len()).min().unwrap_or(0);
    let mut t = Typical::default();
    for i in 0..nops {
        let q = |f: fn(&OpMeters) -> u64| {
            let v: Vec<f64> = rounds.iter().map(|(ops, _)| f(&ops[i]) as f64).collect();
            quantile(&v, HOST_QUANTILE)
        };
        t.setup_s += q(|m| m.setup.wall_ns) / 1e9;
        t.wall_s += q(|m| m.run.wall_ns) / 1e9;
        t.cpu_s += q(|m| m.run.cpu_ns) / 1e9;
        t.step_s += q(|m| m.step.wall_ns) / 1e9;
        t.step_cpu_s += q(|m| m.step.cpu_ns) / 1e9;
        t.step_ctx += q(|m| m.step.ctx_switches);
    }
    t
}

fn write_spans(args: &Args, b: &Bench) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, b.spans_jsonl()));
    match written {
        Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
        Err(e) => eprintln!("[perfbench] could not write {}: {e}", path.display()),
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
}
