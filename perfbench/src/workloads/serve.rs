//! `serve`: closed batches of mixed pt2pt / RMA / BFS tenants (the
//! fig_serve templates) through `mtmpi_serve::serve` — quantum 256,
//! admission window 64, one worker per available CPU.
//!
//! One operation is one tenant. `ServeConfig` has no arrival schedule,
//! so this reports throughput at a stated size, not sojourn latency. The
//! check: no tenant failed, every tenant's payload equals what its
//! template must produce (BFS tenants against the benchmark's own BFS of
//! the tenant's graph), and every tenant took `ceil(events / quantum)`
//! grants.
//!
//! A round serves its tenants as `BATCHES` separate `serve()` calls,
//! each timed as its own entry of the round. The host-time figures are
//! read per entry at the low decile over rounds (see `typical` in
//! main.rs), and a ~0.1 s call finds a quiet stretch of a shared host far
//! more often than one ~1 s call does: over ten alternating runs the
//! spread of `tenants_per_s` fell from 0.11 to 0.04.

use super::guarded;
use crate::bench::{Bench, Phase};
use crate::measure::{mix, quantile};
use crate::{Layers, RoundOut, Workload};
use mtmpi_graph500::generate_kronecker;
use mtmpi_serve::{serve, JobSpec, JobTemplate, ServeConfig, ServeReport};
use std::collections::VecDeque;

/// Tenants per round: more than 1000, so at least ten lie beyond p99.
const TENANTS: u32 = 1500;
/// `serve()` calls per round. Each batch of `TENANTS / BATCHES` = 150
/// tenants still overfills the admission window.
const BATCHES: u32 = 10;
const QUANTUM: u64 = 256;
const MAX_LIVE: u32 = 64;

fn templates() -> Vec<JobTemplate> {
    vec![
        JobTemplate::Pt2pt { msgs: 4, bytes: 64 },
        JobTemplate::Rma { ops: 3, bytes: 64 },
        JobTemplate::Bfs {
            scale: 4,
            threads: 2,
        },
    ]
}

/// The payload a tenant must report, computed apart from the service:
/// messages for pt2pt, puts for RMA, and for BFS the edges a BFS of the
/// tenant's graph scans from its root.
fn expected_payload(spec: &JobSpec) -> u64 {
    match spec.template {
        JobTemplate::Pt2pt { msgs, .. } => 2 * u64::from(msgs),
        JobTemplate::Rma { ops, .. } => u64::from(ops),
        JobTemplate::Bfs { scale, .. } => {
            // The service builds the graph with edge factor 8 and roots
            // the search at the first edge's source.
            let el = generate_kronecker(scale, 8, spec.seed);
            let n = el.nvertices() as usize;
            let mut adj = vec![Vec::new(); n];
            for &(u, v) in el.edges.iter().filter(|(u, v)| u != v) {
                adj[u as usize].push(v as usize);
                adj[v as usize].push(u as usize);
            }
            let root = el.edges[0].0 as usize;
            let mut seen = vec![false; n];
            seen[root] = true;
            let mut queue = VecDeque::from([root]);
            let mut scanned = 0u64;
            while let Some(u) = queue.pop_front() {
                scanned += adj[u].len() as u64;
                for &v in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        queue.push_back(v);
                    }
                }
            }
            scanned
        }
    }
}

pub struct Serve {
    seed: u64,
    workers: u32,
    report: Option<ServeReport>,
}

impl Serve {
    pub fn new(seed: u64) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
        Self {
            seed,
            workers,
            report: None,
        }
    }

    /// The per-tenant checks; returns how many tenants failed one.
    fn check(cfg: &ServeConfig, specs: &[JobSpec], report: &ServeReport) -> u64 {
        let mut failed = specs.len().abs_diff(report.tenants.len()) as u64;
        for (spec, t) in specs.iter().zip(&report.tenants) {
            let problem = if t.id != spec.id {
                Some(format!("report out of order: {} at {}", t.id, spec.id))
            } else if let Some(e) = &t.error {
                Some(format!("error: {e}"))
            } else if t.payload != expected_payload(spec) {
                Some(format!(
                    "payload {} != expected {}",
                    t.payload,
                    expected_payload(spec)
                ))
            } else if t.grants != t.events.div_ceil(cfg.quantum) {
                Some(format!(
                    "{} grants for {} events at quantum {}",
                    t.grants, t.events, cfg.quantum
                ))
            } else {
                None
            };
            if let Some(p) = problem {
                eprintln!(
                    "[serve] tenant {} ({}): {p}",
                    spec.id,
                    spec.template.label()
                );
                failed += 1;
            }
        }
        failed
    }
}

impl Workload for Serve {
    fn round(&mut self, b: &mut Bench) -> RoundOut {
        let mut out = RoundOut {
            attempted: u64::from(TENANTS),
            ..RoundOut::default()
        };
        let per_batch = TENANTS / BATCHES;
        let workers = self.workers;
        let mut round: Option<ServeReport> = None;
        for k in 0..BATCHES {
            if k > 0 {
                b.next_op();
            }
            let seed = mix(self.seed.wrapping_add(u64::from(k)));
            let (cfg, specs) = b.call(Phase::Setup, "bench.inputs", || {
                let cfg = ServeConfig::new(workers, per_batch)
                    .quantum(QUANTUM)
                    .max_live(MAX_LIVE)
                    .seed(seed)
                    .templates(templates());
                let specs: Vec<JobSpec> = (0..per_batch).map(|id| cfg.tenant_spec(id)).collect();
                (cfg, specs)
            });
            let report = match guarded(|| Ok(b.call(Phase::Step, "serve.serve", || serve(&cfg)))) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("[serve] service panicked: {e}");
                    out.failed += u64::from(per_batch);
                    continue;
                }
            };
            out.failed += b.call(Phase::Check, "bench.check", || {
                Self::check(&cfg, &specs, &report)
            });
            out.worlds += report.tenants.len() as u64;
            out.events += report.total_events();
            out.work += report.tenants.iter().map(|t| t.payload).sum::<u64>();
            out.sim_ns += report.tenants.iter().map(|t| t.end_ns).sum::<u64>();
            // The round's tenants as one report, for the serve layer's
            // percentiles and shares.
            match &mut round {
                None => round = Some(report),
                Some(r) => {
                    r.wall_ns += report.wall_ns;
                    r.tenants.extend(report.tenants);
                }
            }
        }
        self.report = round;
        out
    }

    fn layers(&self, _b: &Bench, layers: &mut Layers) {
        let Some(r) = &self.report else { return };
        let holds: Vec<f64> = r.tenants.iter().map(|t| t.hold_ns as f64).collect();
        let busy: f64 = holds.iter().sum();
        layers.insert("serve.hold_ms_p50", quantile(&holds, 0.50) / 1e6);
        layers.insert("serve.hold_ms_p99", quantile(&holds, 0.99) / 1e6);
        layers.insert(
            "serve.busy_frac",
            busy / (r.wall_ns.max(1) as f64 * f64::from(r.workers)),
        );
        layers.insert(
            "serve.grants",
            r.tenants.iter().map(|t| t.grants).sum::<u64>() as f64,
        );
        layers.insert("serve.hold_gini", r.hold_gini());
    }
}
