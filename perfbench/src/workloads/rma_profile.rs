//! `rma_profile`: the ARMCI-style put/get/accumulate run of §6 (fig9) —
//! one origin and three passive targets over 2 nodes × 2 ranks, every
//! rank with an asynchronous progress thread — traced by the program's
//! own recorder, then profiled (`ProfReport::analyze`) and exported
//! (Perfetto trace document and Prometheus exposition).
//!
//! One operation is one world. Puts write distinct values, accumulates
//! add integer-valued `f64` lanes (exact in floating point), gets read
//! back a slot whose value the benchmark knows. The check replays the
//! op list on a model window per target and compares it with each
//! target's `RankStats::window`, checks every get, and checks blame
//! conservation of the profile.

use super::{guarded, rank_stats, run_world, teardown, RuntimeTotals};
use crate::bench::{Bench, Phase};
use crate::measure::mix;
use crate::{Layers, RoundOut, Workload};
use mtmpi::prelude::*;
use mtmpi_obs::Path;
use mtmpi_prof::ProfReport;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Operations the origin issues per world.
const OPS: u32 = 150;
const TARGETS: u32 = 3;
/// Put slots (8 bytes each) at the start of every window.
const PUT_SLOTS: u64 = 32;
/// Accumulate lanes (one `f64` each) after the put slots.
const ACC_LANES: u64 = 16;
/// Lanes one accumulate adds to.
const ACC_WIDTH: u64 = 4;
const WINDOW_BYTES: usize = ((PUT_SLOTS + ACC_LANES) * 8) as usize;
/// Tag of the end-of-epoch message that releases the targets.
const DONE_TAG: i32 = 900;

#[derive(Debug, Clone)]
enum Op {
    Put {
        target: u32,
        offset: u64,
        value: u64,
    },
    Get {
        target: u32,
        offset: u64,
        expect: u64,
    },
    Acc {
        target: u32,
        offset: u64,
        lanes: Vec<f64>,
    },
}

/// The op list of one world, and each target's window after it. Puts,
/// gets and accumulates come in equal numbers, in a seed-shuffled order.
fn generate(seed: u64) -> (Vec<Op>, Vec<Vec<u8>>) {
    let mut kinds: Vec<u32> = (0..OPS).map(|i| i % 3).collect();
    for i in (1..kinds.len()).rev() {
        let j = (mix(seed ^ 0x5EED_0000 ^ i as u64) % (i as u64 + 1)) as usize;
        kinds.swap(i, j);
    }
    let mut model = vec![vec![0u8; WINDOW_BYTES]; TARGETS as usize + 1];
    let mut ops = Vec::with_capacity(OPS as usize);
    for (i, kind) in (0..OPS).zip(kinds) {
        let r = mix(seed ^ u64::from(i).wrapping_mul(0xA24B_AED4_963E_E407));
        let target = 1 + i % TARGETS;
        let win = &mut model[target as usize];
        let op = match kind {
            0 => {
                let offset = 8 * ((r >> 8) % PUT_SLOTS);
                // Distinct across the run: the op index sits in the high bits.
                let value = (u64::from(i) << 32) | (r >> 32);
                win[offset as usize..offset as usize + 8].copy_from_slice(&value.to_le_bytes());
                Op::Put {
                    target,
                    offset,
                    value,
                }
            }
            1 => {
                let offset = 8 * ((r >> 8) % PUT_SLOTS);
                let expect = u64::from_le_bytes(
                    win[offset as usize..offset as usize + 8]
                        .try_into()
                        .expect("8 bytes"),
                );
                Op::Get {
                    target,
                    offset,
                    expect,
                }
            }
            _ => {
                let lane = (r >> 8) % (ACC_LANES - ACC_WIDTH + 1);
                let offset = 8 * (PUT_SLOTS + lane);
                let lanes: Vec<f64> = (0..ACC_WIDTH)
                    .map(|k| (mix(r.wrapping_add(k)) % 2001) as f64 - 1000.0)
                    .collect();
                for (k, v) in lanes.iter().enumerate() {
                    let at = offset as usize + 8 * k;
                    let cur = f64::from_le_bytes(win[at..at + 8].try_into().expect("8 bytes"));
                    win[at..at + 8].copy_from_slice(&(cur + v).to_le_bytes());
                }
                Op::Acc {
                    target,
                    offset,
                    lanes,
                }
            }
        };
        ops.push(op);
    }
    (ops, model)
}

pub struct RmaProfile {
    seed: u64,
    runtime: RuntimeTotals,
    events: u64,
    waitspin_cs: u64,
    timeline_events: u64,
    dropped: u64,
    export_bytes: u64,
}

impl RmaProfile {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            runtime: RuntimeTotals::default(),
            events: 0,
            waitspin_cs: 0,
            timeline_events: 0,
            dropped: 0,
            export_bytes: 0,
        }
    }

    fn world(&mut self, b: &mut Bench) -> Result<(u64, u64), String> {
        let seed = self.seed;
        let (ops, model) = b.call(Phase::Setup, "bench.inputs", || generate(seed));
        let ops = Arc::new(ops);
        let bad_gets = Arc::new(AtomicU64::new(0));
        let exp = Experiment::with_seed(2, seed).trace(true);
        let cfg = RunConfig::new(Method::Mutex)
            .nodes(2)
            .ranks_per_node(2)
            .threads_per_rank(1)
            .window_bytes(WINDOW_BYTES)
            .progress_thread(true);
        let bad = bad_gets.clone();
        let body = move |ctx: ThreadCtx| {
            let h = &ctx.rank;
            if h.rank() != 0 {
                // Passive target: the blocking receive keeps this rank's
                // progress engine turning until the origin's epoch ends.
                let _ = h.world_comm().recv(Some(0), Some(DONE_TAG));
                return;
            }
            for op in ops.iter() {
                match op {
                    Op::Put {
                        target,
                        offset,
                        value,
                    } => {
                        h.put(*target, *offset, value.to_le_bytes().to_vec().into());
                    }
                    Op::Get {
                        target,
                        offset,
                        expect,
                    } => {
                        if h.get(*target, *offset, 8) != expect.to_le_bytes() {
                            bad.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Op::Acc {
                        target,
                        offset,
                        lanes,
                    } => {
                        let bytes: Vec<u8> = lanes.iter().flat_map(|v| v.to_le_bytes()).collect();
                        h.accumulate(*target, *offset, bytes.into());
                    }
                }
            }
            for r in 1..h.nranks() {
                h.world_comm().send(r, DONE_TAG, MsgData::Synthetic(0));
            }
        };
        let (mut out, events) = run_world(b, &exp, cfg, body)?;
        let stats = rank_stats(b, &out)?;
        let timeline = out
            .timeline
            .take()
            .ok_or("traced run returned no timeline")?;
        let end_ns = teardown(b, out);
        let prof = b.call(Phase::Run, "prof.analyze", || {
            let mut latency = Histogram::new();
            for st in &stats {
                latency.merge(&st.msg_latency_ns);
            }
            ProfReport::analyze(&timeline, &latency)
        });
        let export_bytes = b.call(Phase::Run, "obs.export", || {
            let mut events = mtmpi_obs::chrome_trace_events(&timeline, 1);
            events.extend(prof.counter_events(1));
            let doc = mtmpi_obs::chrome_trace_doc(&events, timeline.dropped);
            let prom = prof.prom("workload=\"rma_profile\"");
            std::hint::black_box(doc.len() + prom.len()) as u64
        });
        b.call(Phase::Check, "bench.check", || {
            let bad = bad_gets.load(Ordering::Relaxed);
            if bad > 0 {
                return Err(format!(
                    "{bad} gets read a value other than the last one put"
                ));
            }
            for t in 1..=TARGETS {
                if stats[t as usize].window != model[t as usize] {
                    return Err(format!("target {t} window differs from the replayed model"));
                }
            }
            let (row_err, total_err) = prof.blame.check_conservation();
            if (row_err, total_err) != (0, 0) {
                return Err(format!(
                    "blame not conserved: row {row_err} ns, total {total_err} ns"
                ));
            }
            Ok(())
        })?;
        self.runtime = RuntimeTotals::default();
        for st in &stats {
            self.runtime.add(st);
        }
        self.events = events;
        self.waitspin_cs = timeline
            .cs_spans()
            .filter(|s| s.path == Path::WaitSpin)
            .count() as u64;
        self.timeline_events = timeline.len() as u64;
        self.dropped = timeline.dropped;
        self.export_bytes = export_bytes;
        Ok((events, end_ns))
    }
}

impl Workload for RmaProfile {
    fn round(&mut self, b: &mut Bench) -> RoundOut {
        let mut out = RoundOut {
            attempted: 1,
            ..RoundOut::default()
        };
        match guarded(|| self.world(b)) {
            Ok((events, end_ns)) => {
                out.worlds = 1;
                out.events = events;
                out.work = u64::from(OPS);
                out.sim_ns = end_ns;
            }
            Err(e) => {
                eprintln!("[rma_profile] {e}");
                out.failed = 1;
            }
        }
        out
    }

    fn layers(&self, b: &Bench, layers: &mut Layers) {
        self.runtime.fill(u64::from(OPS), self.events, layers);
        layers.insert("runtime.waitspin_cs", self.waitspin_cs as f64);
        layers.insert("obs.timeline_events", self.timeline_events as f64);
        layers.insert("obs.dropped", self.dropped as f64);
        layers.insert("obs.export_ms", b.median_ns("obs.export") / 1e6);
        layers.insert("obs.export_bytes", self.export_bytes as f64);
        let analyze = b.median_ns("prof.analyze");
        layers.insert("prof.analyze_ms", analyze / 1e6);
        layers.insert(
            "prof.ns_per_event",
            analyze / self.timeline_events.max(1) as f64,
        );
    }
}
