//! `bfs`: Graph500 hybrid BFS on one Kronecker graph (scale 17, edge
//! factor 16) — 2 nodes × 1 rank × 4 threads, several roots, one world
//! per search.
//!
//! One operation is one search. The check runs the benchmark's own BFS
//! over the generated edge list and compares reached count, traversed
//! edges and depth with the program's statistics, and every parent edge
//! and level with the program's parent tree.

use super::{guarded, rank_stats, run_world, teardown, RuntimeTotals};
use crate::bench::{Bench, Phase};
use crate::measure::mix;
use crate::{Layers, RoundOut, Workload};
use mtmpi::prelude::*;
use mtmpi_graph500::{generate_kronecker, hybrid_bfs_thread, EdgeList, HybridBfs, HybridStats};
use std::sync::{Arc, Mutex};

const SCALE: u32 = 17;
const EDGE_FACTOR: u64 = 16;
const RANKS: u32 = 2;
const THREADS: u32 = 4;
/// Searches per round, each from its own root.
const ROOTS: usize = 2;
/// Modelled cost of scanning one edge, ns (fig10's near-socket figure).
const EDGE_NS: u64 = 4;

/// The benchmark's own BFS of one root: levels (-1 unreached), reached
/// count and the edges a level-synchronous BFS scans.
struct Reference {
    level: Vec<i64>,
    reached: u64,
    traversed: u64,
    depth: u32,
}

/// Symmetric adjacency with sorted rows, self-loops dropped and
/// duplicates kept (what a BFS scanning the edge list would visit).
struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Adjacency {
    fn new(el: &EdgeList) -> Self {
        let n = el.nvertices() as usize;
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in el.edges.iter().filter(|(u, v)| u != v) {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; offsets[n]];
        for &(u, v) in el.edges.iter().filter(|(u, v)| u != v) {
            targets[cursor[u as usize]] = v as u32;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u as u32;
            cursor[v as usize] += 1;
        }
        for i in 0..n {
            targets[offsets[i]..offsets[i + 1]].sort_unstable();
        }
        Self { offsets, targets }
    }

    fn row(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    fn bfs(&self, root: u64) -> Reference {
        let mut level = vec![-1i64; self.offsets.len() - 1];
        level[root as usize] = 0;
        let (mut frontier, mut depth, mut traversed, mut reached) = (vec![root as u32], 0, 0, 1);
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                let row = self.row(u as usize);
                traversed += row.len() as u64;
                for &v in row {
                    if level[v as usize] < 0 {
                        level[v as usize] = i64::from(depth) + 1;
                        reached += 1;
                        next.push(v);
                    }
                }
            }
            frontier = next;
            depth += 1;
        }
        Reference {
            level,
            reached,
            traversed,
            depth,
        }
    }

    /// Compare one search's statistics and parent tree with `r`.
    fn check(
        &self,
        root: u64,
        r: &Reference,
        stats: &HybridStats,
        parent: &[i64],
    ) -> Result<(), String> {
        if (stats.reached, stats.traversed_edges, stats.levels) != (r.reached, r.traversed, r.depth)
        {
            return Err(format!(
                "root {root}: (reached, traversed, levels) = ({}, {}, {}), reference ({}, {}, {})",
                stats.reached, stats.traversed_edges, stats.levels, r.reached, r.traversed, r.depth
            ));
        }
        if parent[root as usize] != root as i64 {
            return Err(format!("root {root} is not its own parent"));
        }
        for (v, &p) in parent.iter().enumerate() {
            if (p >= 0) != (r.level[v] >= 0) {
                return Err(format!(
                    "root {root}: vertex {v} reached {} vs reference",
                    p >= 0
                ));
            }
            if p < 0 || v as u64 == root {
                continue;
            }
            if self.row(p as usize).binary_search(&(v as u32)).is_err() {
                return Err(format!(
                    "root {root}: parent edge {p} -> {v} not in the graph"
                ));
            }
            if r.level[v] != r.level[p as usize] + 1 {
                return Err(format!(
                    "root {root}: vertex {v} is not one level below its parent {p}"
                ));
            }
        }
        Ok(())
    }
}

pub struct Bfs {
    seed: u64,
    /// The benchmark's adjacency and reference BFS per root, built once.
    reference: Option<(Adjacency, Vec<Reference>)>,
    runtime: RuntimeTotals,
    events: u64,
    traversed: u64,
}

impl Bfs {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            reference: None,
            runtime: RuntimeTotals::default(),
            events: 0,
            traversed: 0,
        }
    }

    /// `ROOTS` distinct roots with at least one neighbour, from the seed.
    fn roots(&self, el: &EdgeList) -> Vec<u64> {
        let n = el.nvertices();
        let mut has_edge = vec![false; n as usize];
        for &(u, v) in el.edges.iter().filter(|(u, v)| u != v) {
            has_edge[u as usize] = true;
            has_edge[v as usize] = true;
        }
        let mut roots = Vec::with_capacity(ROOTS);
        let mut k = 0u64;
        while roots.len() < ROOTS {
            let v = mix(self.seed ^ 0xB5F0_0000 ^ k) % n;
            k += 1;
            if has_edge[v as usize] && !roots.contains(&v) {
                roots.push(v);
            }
        }
        roots
    }

    fn search(
        &mut self,
        b: &mut Bench,
        el: &EdgeList,
        idx: usize,
        root: u64,
    ) -> Result<(u64, u64, u64), String> {
        let per_rank: Arc<Vec<HybridBfs>> =
            Arc::new(b.call(Phase::Setup, "graph500.partition", || {
                (0..RANKS)
                    .map(|r| HybridBfs::new(el, root, r, RANKS, THREADS))
                    .collect()
            }));
        let result: Arc<Mutex<Option<HybridStats>>> = Arc::default();
        let (pr, res) = (per_rank.clone(), result.clone());
        let body = move |ctx: ThreadCtx| {
            let rank = ctx.rank.rank();
            if let Some(s) = hybrid_bfs_thread(&pr[rank as usize], &ctx.rank, ctx.thread, EDGE_NS) {
                if rank == 0 {
                    *res.lock().expect("no BFS thread panicked") = Some(s);
                }
            }
        };
        let exp = Experiment::with_seed(RANKS, self.seed);
        let cfg = RunConfig::new(Method::Ticket)
            .nodes(RANKS)
            .ranks_per_node(1)
            .threads_per_rank(THREADS);
        let (out, events) = run_world(b, &exp, cfg, body)?;
        let stats = rank_stats(b, &out)?;
        let hs = result
            .lock()
            .expect("world finished")
            .ok_or("rank 0 thread 0 reported no statistics")?;
        let (adj, refs) = self
            .reference
            .as_ref()
            .expect("reference built before the searches");
        b.call(Phase::Check, "bench.check", || {
            let mut parent = vec![-1i64; el.nvertices() as usize];
            for (r, bfs) in per_rank.iter().enumerate() {
                for (i, p) in bfs.parents_local().into_iter().enumerate() {
                    parent[i * RANKS as usize + r] = p;
                }
            }
            adj.check(root, &refs[idx], &hs, &parent)
        })?;
        for st in &stats {
            self.runtime.add(st);
        }
        let end_ns = teardown(b, out);
        b.call(Phase::Check, "bench.drop", || drop(per_rank));
        Ok((events, end_ns, hs.traversed_edges))
    }
}

impl Workload for Bfs {
    fn round(&mut self, b: &mut Bench) -> RoundOut {
        let seed = self.seed;
        let el = b.call(Phase::Setup, "graph500.generate", || {
            generate_kronecker(SCALE, EDGE_FACTOR, seed)
        });
        let roots = b.call(Phase::Setup, "bench.inputs", || self.roots(&el));
        if self.reference.is_none() {
            self.reference = Some(b.call(Phase::Check, "bench.check", || {
                let adj = Adjacency::new(&el);
                let refs = roots.iter().map(|&r| adj.bfs(r)).collect();
                (adj, refs)
            }));
        }
        self.runtime = RuntimeTotals::default();
        let mut out = RoundOut::default();
        for (idx, &root) in roots.iter().enumerate() {
            if idx > 0 {
                b.next_op();
            }
            out.attempted += 1;
            match guarded(|| self.search(b, &el, idx, root)) {
                Ok((events, end_ns, traversed)) => {
                    out.worlds += 1;
                    out.events += events;
                    out.work += traversed;
                    out.sim_ns += end_ns;
                }
                Err(e) => {
                    eprintln!("[bfs] root {root}: {e}");
                    out.failed += 1;
                }
            }
        }
        self.events = out.events;
        self.traversed = out.work;
        b.call(Phase::Check, "bench.drop", || drop(el));
        out
    }

    fn layers(&self, b: &Bench, layers: &mut Layers) {
        layers.insert(
            "graph500.generate_s",
            b.median_ns("graph500.generate") / 1e9,
        );
        layers.insert(
            "graph500.partition_s",
            b.median_ns("graph500.partition") / 1e9,
        );
        layers.insert(
            "graph500.edges_per_search",
            self.traversed as f64 / ROOTS as f64,
        );
        self.runtime.fill(self.traversed, self.events, layers);
    }
}
