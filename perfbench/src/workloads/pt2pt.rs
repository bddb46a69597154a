//! `pt2pt`: the paper's §4 multithreaded osu_bw streaming — 2 nodes × 1
//! rank × 8 threads, 64 B messages in windows of 64 isend/irecv, then
//! waitall and an ack — under five runtime configurations run one after
//! another: mutex, ticket and priority on the global critical section,
//! mutex over 8 VCIs, and 8 streams. Timeline off.
//!
//! One operation is one world. Every payload is real and encodes
//! `(thread, window, index)` plus seed-derived filler; the check is that
//! the multiset received equals the multiset sent and that every rank's
//! request ledger is quiescent.

use super::{guarded, rank_stats, run_world, teardown, RuntimeTotals};
use crate::bench::{Bench, Phase};
use crate::measure::mix;
use crate::{Layers, RoundOut, Workload};
use mtmpi::prelude::*;
use std::sync::{Arc, Mutex};

const THREADS: u32 = 8;
const WINDOW: u32 = 64;
/// Windows per thread per world.
const WINDOWS: u32 = 2;
const MSG_BYTES: usize = 64;
/// Ack tag base on the global critical section (data on tag 0).
const ACK: i32 = 100;
/// Ack tag base with per-thread data tags: divisible by the VCI count,
/// so thread `j`'s ack routes to the same shard as its data.
const VCI_ACK: i32 = 800;
const VCIS: u32 = 8;

#[derive(Debug, Clone, Copy)]
enum Mode {
    /// One global critical section arbitrated by the method's lock; all
    /// data on one shared tag, so any receiver thread matches any send.
    Global(Method),
    /// Mutex over `VCIS` shards routed by tag; thread `j` uses tag `j`.
    Vci,
    /// One single-owner stream per thread.
    Streams,
}

const CONFIGS: [Mode; 5] = [
    Mode::Global(Method::Mutex),
    Mode::Global(Method::Ticket),
    Mode::Global(Method::Priority),
    Mode::Vci,
    Mode::Streams,
];

/// The one message thread `thread` sends as `index` of window `window`.
fn payload(salt: u64, thread: u32, window: u32, index: u32) -> Vec<u8> {
    let mut b = Vec::with_capacity(MSG_BYTES);
    b.extend_from_slice(&thread.to_le_bytes());
    b.extend_from_slice(&window.to_le_bytes());
    b.extend_from_slice(&index.to_le_bytes());
    b.extend_from_slice(&0u32.to_le_bytes());
    let key = salt ^ (u64::from(thread) << 48 | u64::from(window) << 24 | u64::from(index));
    for k in 0..6u64 {
        b.extend_from_slice(&mix(key.wrapping_add(k)).to_le_bytes());
    }
    b
}

/// The calls one window/ack exchange needs, on a communicator or a
/// stream.
trait Endpoint {
    fn rank(&self) -> u32;
    fn isend(&self, dst: u32, tag: Tag, data: MsgData) -> Request;
    fn irecv(&self, src: Option<u32>, tag: Option<Tag>) -> Request;
    fn waitall(&self, reqs: Vec<Request>) -> Vec<Msg>;
    fn send(&self, dst: u32, tag: Tag, data: MsgData);
    fn recv(&self, src: Option<u32>, tag: Option<Tag>) -> Msg;
}

macro_rules! endpoint {
    ($t:ty) => {
        impl Endpoint for $t {
            fn rank(&self) -> u32 {
                <$t>::rank(self)
            }
            fn isend(&self, dst: u32, tag: Tag, data: MsgData) -> Request {
                <$t>::isend(self, dst, tag, data)
            }
            fn irecv(&self, src: Option<u32>, tag: Option<Tag>) -> Request {
                <$t>::irecv(self, src, tag)
            }
            fn waitall(&self, reqs: Vec<Request>) -> Vec<Msg> {
                <$t>::waitall(self, reqs)
            }
            fn send(&self, dst: u32, tag: Tag, data: MsgData) {
                <$t>::send(self, dst, tag, data)
            }
            fn recv(&self, src: Option<u32>, tag: Option<Tag>) -> Msg {
                <$t>::recv(self, src, tag)
            }
        }
    };
}
endpoint!(Comm);
endpoint!(Stream);

/// One thread's share of the streaming exchange: rank 0 sends windows
/// and waits for acks, rank 1 receives windows and acks them.
fn stream(e: &impl Endpoint, salt: u64, thread: u32, data_tag: Tag, ack_tag: Tag) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    for w in 0..WINDOWS {
        if e.rank() == 0 {
            let reqs = (0..WINDOW)
                .map(|i| e.isend(1, data_tag, payload(salt, thread, w, i).into()))
                .collect();
            e.waitall(reqs);
            let _ = e.recv(Some(1), Some(ack_tag));
        } else {
            let reqs = (0..WINDOW)
                .map(|_| e.irecv(Some(0), Some(data_tag)))
                .collect();
            got.extend(e.waitall(reqs).into_iter().map(|m| m.data.into_bytes()));
            e.send(0, ack_tag, MsgData::Synthetic(1));
        }
    }
    got
}

pub struct Pt2pt {
    seed: u64,
    /// Every payload sent in one world, sorted.
    expected: Vec<Vec<u8>>,
    runtime: RuntimeTotals,
    events: u64,
}

impl Pt2pt {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            expected: Vec::new(),
            runtime: RuntimeTotals::default(),
            events: 0,
        }
    }

    fn messages_per_world() -> u64 {
        u64::from(THREADS * WINDOWS * WINDOW)
    }

    fn world(&mut self, b: &mut Bench, mode: Mode, salt: u64) -> Result<(u64, u64), String> {
        let exp = Experiment::with_seed(2, self.seed);
        let mut cfg = RunConfig::new(Method::Mutex)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(THREADS);
        match mode {
            Mode::Global(m) => cfg.method = m,
            Mode::Vci => cfg = cfg.vci_map(VciMap::by_tag(VCIS)),
            Mode::Streams => cfg = cfg.streams(THREADS),
        }
        let received: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
        let sink = received.clone();
        let body = move |ctx: ThreadCtx| {
            let j = ctx.thread;
            let (data_tag, ack_tag) = match mode {
                Mode::Global(_) => (0, ACK + j as i32),
                Mode::Vci | Mode::Streams => (j as i32, VCI_ACK + j as i32),
            };
            let got = if let Mode::Streams = mode {
                stream(&ctx.rank.stream_at(j), salt, j, data_tag, ack_tag)
            } else {
                stream(&ctx.rank.world_comm(), salt, j, data_tag, ack_tag)
            };
            sink.lock().expect("no receiver panicked").extend(got);
        };
        let (out, events) = run_world(b, &exp, cfg, body)?;
        let stats = rank_stats(b, &out)?;
        let end_ns = teardown(b, out);
        b.call(Phase::Check, "bench.check", || {
            let mut got = std::mem::take(&mut *received.lock().expect("world finished"));
            got.sort_unstable();
            if got != self.expected {
                return Err(format!(
                    "received multiset differs from sent ({} received, {} sent)",
                    got.len(),
                    self.expected.len()
                ));
            }
            Ok(())
        })?;
        for st in &stats {
            self.runtime.add(st);
        }
        Ok((events, end_ns))
    }
}

impl Workload for Pt2pt {
    fn round(&mut self, b: &mut Bench) -> RoundOut {
        let salt = mix(self.seed);
        if self.expected.is_empty() {
            self.expected = b.call(Phase::Check, "bench.check", || {
                let mut v: Vec<Vec<u8>> = (0..THREADS)
                    .flat_map(|t| {
                        (0..WINDOWS).flat_map(move |w| (0..WINDOW).map(move |i| (t, w, i)))
                    })
                    .map(|(t, w, i)| payload(salt, t, w, i))
                    .collect();
                v.sort_unstable();
                v
            });
        }
        self.runtime = RuntimeTotals::default();
        let mut out = RoundOut::default();
        for (i, mode) in CONFIGS.into_iter().enumerate() {
            if i > 0 {
                b.next_op();
            }
            out.attempted += 1;
            match guarded(|| self.world(b, mode, salt)) {
                Ok((events, end_ns)) => {
                    out.worlds += 1;
                    out.events += events;
                    out.work += Self::messages_per_world();
                    out.sim_ns += end_ns;
                }
                Err(e) => {
                    eprintln!("[pt2pt] {mode:?}: {e}");
                    out.failed += 1;
                }
            }
        }
        self.events = out.events;
        out
    }

    fn layers(&self, _b: &Bench, layers: &mut Layers) {
        let msgs = Self::messages_per_world() * CONFIGS.len() as u64;
        self.runtime.fill(msgs, self.events, layers);
    }
}
