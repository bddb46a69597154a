//! The four workloads and the calls they share.

mod bfs;
mod pt2pt;
mod rma_profile;
mod serve;

use crate::bench::{Bench, Phase};
use crate::Workload;
use mtmpi::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The workload called `name`, with its inputs generated from `seed`.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "pt2pt" => Box::new(pt2pt::Pt2pt::new(seed)),
        "rma_profile" => Box::new(rma_profile::RmaProfile::new(seed)),
        "serve" => Box::new(serve::Serve::new(seed)),
        "bfs" => Box::new(bfs::Bfs::new(seed)),
        _ => return None,
    })
}

/// Run one operation, turning a panic into a failure message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".to_string())),
    }
}

/// Launch a world (`core.start`, set-up), drive it to the end in one
/// unbounded step (`sim.step`) and collect it (`core.finish`). Returns
/// the outcome and the scheduler events it took.
pub fn run_world<F>(
    b: &mut Bench,
    exp: &Experiment,
    cfg: RunConfig,
    body: F,
) -> Result<(RunOutcome, u64), String>
where
    F: Fn(ThreadCtx) + Send + Sync + 'static,
{
    let mut run = b.call(Phase::Setup, "core.start", || exp.try_start(cfg, body));
    match b.call(Phase::Step, "sim.step", || run.step(u64::MAX)) {
        Ok(StepOutcome::Done) => {}
        Ok(StepOutcome::Pending) => return Err("unbounded step returned Pending".into()),
        Err(e) => return Err(format!("SimError: {e}")),
    }
    let events = run.events();
    let out = b.call(Phase::Run, "core.finish", || run.finish());
    Ok((out, events))
}

/// Tear a finished world down (`core.teardown`); returns its simulated
/// end time.
pub fn teardown(b: &mut Bench, out: RunOutcome) -> u64 {
    let end_ns = out.end_ns;
    b.call(Phase::Run, "core.teardown", || drop(out));
    end_ns
}

/// Merged runtime statistics of a set of ranks (`runtime.stats`).
#[derive(Debug, Clone, Default)]
pub struct RuntimeTotals {
    pub cs_acquisitions: u64,
    pub cs_wait: Histogram,
    pub dangling_sum: f64,
    pub dangling_samples: u64,
    pub max_unexpected: usize,
}

impl RuntimeTotals {
    pub fn add(&mut self, st: &RankStats) {
        self.cs_acquisitions += st.cs_acquisitions;
        self.cs_wait.merge(&st.cs_wait_ns);
        self.dangling_sum += st.dangling.average() * st.dangling.samples() as f64;
        self.dangling_samples += st.dangling.samples();
        self.max_unexpected = self.max_unexpected.max(st.max_unexpected);
    }

    pub fn dangling_avg(&self) -> f64 {
        if self.dangling_samples == 0 {
            0.0
        } else {
            self.dangling_sum / self.dangling_samples as f64
        }
    }

    /// Fill the `runtime.*` layers for `ops` useful operations that took
    /// `events` scheduler events.
    pub fn fill(&self, ops: u64, events: u64, layers: &mut crate::Layers) {
        let ops = ops.max(1) as f64;
        layers.insert("runtime.cs_per_op", self.cs_acquisitions as f64 / ops);
        layers.insert("runtime.events_per_op", events as f64 / ops);
        layers.insert("runtime.cs_wait_p50_ns", self.cs_wait.p50() as f64);
        layers.insert("runtime.cs_wait_p99_ns", self.cs_wait.p99() as f64);
        layers.insert("runtime.dangling_avg", self.dangling_avg());
        layers.insert("runtime.max_unexpected", self.max_unexpected as f64);
    }
}

/// Snapshot every rank of a finished world (`runtime.stats`), checking
/// that each rank's request ledger is quiescent.
pub fn rank_stats(b: &mut Bench, out: &RunOutcome) -> Result<Vec<RankStats>, String> {
    let stats: Vec<RankStats> = b.call(Phase::Run, "runtime.stats", || {
        (0..out.nranks).map(|r| out.stats(r)).collect()
    });
    for (r, st) in stats.iter().enumerate() {
        st.ledger
            .check_quiescent()
            .map_err(|e| format!("rank {r} request ledger not quiescent: {e}"))?;
    }
    Ok(stats)
}
