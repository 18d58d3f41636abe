//! Out-of-core truss decomposition native to the GR2 section format.
//!
//! The paper's external algorithms (TD-bottomup/topdown) stream scratch
//! *copies* of the graph through fixed-width record files. This engine
//! decomposes directly over the `TRUSSGR2` snapshot instead: no
//! per-record parsing, no duplicated edge list. Every pass moves the rows
//! and edges it needs into its budget by explicit positioned copies
//! ([`CsrGraph::copy_rows`], range-checked by `Rows`), never through
//! the mapping, so `memory_budget` is a real bound even when the
//! snapshot is many times larger. Only the offsets section (pinned) and
//! the edges section (planning, the filter scan) are read through the
//! mapping, under the [`Window`] advice layer.
//!
//! The decomposition is sharded by vertex range ([`ShardPlan`]): shard
//! boundaries are chosen on the edge section (edge ids are lexicographic
//! in `(u, v)`, so a vertex range owns a contiguous edge-id range), the
//! support phase builds the oriented adjacency one shard at a time
//! ([`support`]), and the peel runs two-phase epochs with spilled
//! cross-shard traffic, walking triangles only for edges that still have
//! unretired ones ([`peel`]). Per-edge state lives in a disk
//! [`state::StateFile`]; cross-shard records flow through the bucketed
//! [`spill::SpillBuckets`].
//!
//! Heap during the run is `O(n + m/4 + budget)`: the degree-rank array
//! (support phase only), the peel's two per-edge bitsets, and
//! budget-bounded chunks, buffers and copied rows. The final `4m`-byte
//! trussness vector is materialized only after the pinned offsets are
//! released.
//!
//! The engine is shard-parallel ([`OutOfCoreConfig::threads`]): support
//! passes schedule shards over a worker pool, the peel runs its epochs
//! on the same pool ([`peel::external_peel`]; width 1 is a one-worker
//! pool, not a separate code path), spill appends go through a
//! background [`spill::SpillDrain`], and shard sizing (`auto_shards`)
//! keeps the workers' concurrent shard builds within half the budget.
//! Workers here block on `pread`, so the pool is built *unclamped*
//! ([`crate::pool::ThreadPool::unclamped`]): widths beyond the core
//! count still overlap I/O stalls — unlike the compute-bound in-memory
//! engine, where the clamp is pure win — and determinism tests get real
//! multi-worker interleavings on small machines.

pub mod filter;
pub mod peel;
pub mod spill;
pub mod state;
pub mod support;

use crate::decompose::TrussDecomposition;
use crate::pool::ThreadPool;
use peel::PeelStats;
use spill::SpillDrain;
use state::StateFile;
use std::time::{Duration, Instant};
use support::SupportStats;
use truss_graph::{CsrGraph, Edge, EdgeId, VertexId};
use truss_storage::window::{Window, PAGE_BYTES};
use truss_storage::{IoConfig, IoStats, IoTracker, Result, ScratchDir, StorageError};

/// Hard cap on shard count — beyond this the per-shard bookkeeping
/// dominates and the spill buckets fragment.
const MAX_SHARDS: usize = 1024;

/// Configuration for a run.
#[derive(Debug, Clone)]
pub struct OutOfCoreConfig {
    /// Memory budget `M` and block size `B`. The budget is clamped up to
    /// [`outofcore_minimum_budget`]; callers wanting to observe the
    /// clamp compare against [`OutOfCoreReport::effective_budget`].
    pub io: IoConfig,
    /// Forced shard count (tests, proptests); `None` sizes shards so one
    /// shard's working set fits a quarter of the budget.
    pub shards: Option<usize>,
    /// Worker threads for the shard passes and the epoch peel; `1` runs
    /// them inline, `0` means machine width. Spawned unclamped —
    /// these workers overlap I/O stalls, not CPU (see module docs).
    pub threads: usize,
}

impl OutOfCoreConfig {
    /// Configuration with the given I/O model, automatic sharding, and a
    /// single worker.
    pub fn new(io: IoConfig) -> Self {
        OutOfCoreConfig {
            io,
            shards: None,
            threads: 1,
        }
    }

    /// Configuration with a forced shard count.
    pub fn with_shards(io: IoConfig, shards: usize) -> Self {
        OutOfCoreConfig {
            io,
            shards: Some(shards.max(1)),
            threads: 1,
        }
    }

    /// Sets the worker thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The smallest budget the sharded engine can honor for `g`: the rank
/// array and offsets section (resident through support init), the alive
/// bitset, one maximum-degree row pair, the materialized result array
/// (`TrussEngine` hands back an in-memory decomposition — 4 bytes per
/// edge is the floor *any* engine pays for its output), and a fixed
/// floor for chunks and spill buffers.
pub fn outofcore_minimum_budget(g: &CsrGraph) -> usize {
    let n = g.num_vertices();
    let m = g.num_edges();
    let d = g.max_degree();
    (4 * m + 4 * n + 8 * (n + 1) + 12 * d + m / 8 + (1 << 16)).next_power_of_two()
}

/// How many shards an automatic run uses: enough that a shard's forward
/// list (~12 bytes per edge, so `48m` pessimistic bytes per shard pass)
/// fits in a quarter of the budget, grown by `⌈workers/2⌉` when several
/// build concurrently. The aggregate bound: each shard's working set is
/// `≤ (budget/4)/⌈w/2⌉`, so `w` concurrent builds together hold
/// `≤ budget·w/(4⌈w/2⌉) ≤ budget/2` — half the budget for shard
/// builds, the other half for the result array, state chunks and spill
/// buffers, matching the working-minimum floor. The copied shard rows
/// (8 bytes per half-edge) are part of that pessimistic `48m`.
/// Scaling shards *linearly* with width would shrink working sets to
/// the single-worker headroom, but every extra shard costs a full
/// `ShardFwd` rebuild per pass — measured on the bench graph, the
/// linear count erases the parallel win outright.
fn auto_shards(m: usize, budget: usize, workers: usize) -> usize {
    (48 * m * workers.max(1).div_ceil(2))
        .div_ceil((budget / 4).max(1))
        .clamp(1, MAX_SHARDS)
}

/// Vertex-range sharding with derived contiguous edge-id ranges.
///
/// Boundaries are picked by equal *edge* targets (vertex counts can be
/// wildly skewed on power-law graphs); a heavy vertex makes neighboring
/// shards empty rather than splitting its edge range, so `edge_shard(e)`
/// is always `vertex_shard(edge(e).u)` and a shard's peel never mutates
/// a foreign chunk.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// `vertex_starts[s] .. vertex_starts[s + 1]` is shard `s`'s vertex
    /// range; length `S + 1`, first 0, last `n`.
    vertex_starts: Vec<VertexId>,
    /// Matching edge-id ranges (first edge whose `u` is in the shard).
    edge_starts: Vec<u32>,
}

impl ShardPlan {
    /// Plans `shards` vertex ranges over `g` with roughly equal edge
    /// counts. Duplicate boundaries (empty shards) are legal — forced
    /// shard counts larger than the graph degenerate gracefully.
    pub fn new(g: &CsrGraph, shards: usize) -> ShardPlan {
        let n = g.num_vertices();
        let m = g.num_edges();
        let s = shards.max(1);
        let edges = g.edges();
        let mut vertex_starts = Vec::with_capacity(s + 1);
        vertex_starts.push(0u32);
        for i in 1..s {
            let b = if m == 0 {
                (i * n / s) as u32
            } else {
                edges[(i * m / s).min(m - 1)].u
            };
            let prev = *vertex_starts.last().expect("non-empty");
            vertex_starts.push(b.max(prev));
        }
        vertex_starts.push(n as u32);
        let edge_starts = vertex_starts
            .iter()
            .map(|&b| edges.partition_point(|e| e.u < b) as u32)
            .collect();
        ShardPlan {
            vertex_starts,
            edge_starts,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.vertex_starts.len() - 1
    }

    /// Shard `s`'s vertex range `[lo, hi)`.
    pub fn vertex_range(&self, s: usize) -> (VertexId, VertexId) {
        (self.vertex_starts[s], self.vertex_starts[s + 1])
    }

    /// Shard `s`'s edge-id range `[lo, hi)`.
    pub fn edge_range(&self, s: usize) -> (usize, usize) {
        (
            self.edge_starts[s] as usize,
            self.edge_starts[s + 1] as usize,
        )
    }

    /// The shard owning vertex `v` (the last shard whose start is
    /// `≤ v` — duplicates denote empty shards, which own nothing).
    pub fn vertex_shard(&self, v: VertexId) -> usize {
        self.vertex_starts.partition_point(|&b| b <= v) - 1
    }

    /// The shard owning edge `e` (consistent with
    /// [`ShardPlan::vertex_shard`] of the edge's lower endpoint).
    pub fn edge_shard(&self, e: EdgeId) -> usize {
        self.edge_starts.partition_point(|&b| b <= e) - 1
    }
}

/// Counters and timings out of a run.
#[derive(Debug, Clone, Default)]
pub struct OutOfCoreReport {
    /// Disk traffic (state chunks, spill buckets, copied rows and
    /// edges, section scans).
    pub io: IoStats,
    /// The clamped budget the run actually honored.
    pub effective_budget: usize,
    /// Shards planned.
    pub shards: usize,
    /// Support-phase wall time.
    pub triangle_time: Duration,
    /// Peel-phase wall time.
    pub peel_time: Duration,
    /// Support-phase counters.
    pub support: SupportStats,
    /// Peel-phase counters.
    pub peel: PeelStats,
    /// Worker threads the run scheduled shards over.
    pub threads: usize,
    /// Bytes of spill runs handed to disk (support + peel).
    pub spill_bytes_written: u64,
    /// Bytes of spill runs read back during drains.
    pub spill_bytes_read: u64,
    /// Spill write time hidden behind computation by the background
    /// drain (busy minus foreground backpressure).
    pub spill_drain_overlap: Duration,
}

/// Decomposes `g` under `cfg`, spilling into `scratch`.
///
/// Works on any `CsrGraph`: a graph served from a mapped GR2 snapshot
/// has its rows copied with positioned reads and its pinned offsets and
/// edge scans advised with `madvise`; a heap-resident graph runs the
/// same code with slice copies and no advice.
pub fn outofcore_decompose_in(
    g: &CsrGraph,
    cfg: &OutOfCoreConfig,
    scratch: &ScratchDir,
) -> Result<(TrussDecomposition, OutOfCoreReport)> {
    let m = g.num_edges();
    let budget = cfg.io.memory_budget.max(outofcore_minimum_budget(g));
    let io = IoConfig {
        memory_budget: budget,
        block_size: cfg.io.block_size.clamp(1, (budget / 2).max(1)),
    };
    let tracker = IoTracker::new();

    // Half the budget belongs to what is read through the mapping (the
    // pinned offsets, scan chunks), the rest to the engine's own heap
    // (chunks, buffers, rank array, copied rows).
    let mut window = Window::new((budget / 2).max(PAGE_BYTES), g.is_mapped());
    // Rows, edge-id rows and walked edges are copied out with positioned
    // reads; only the offsets and edges sections are read through the
    // mapping. Kill kernel readahead there first, so the plan's binary
    // searches do not fault ~128 KiB clusters per touch.
    let offsets = g.offsets_section().as_slice();
    let all_edges = g.edges();
    window.mark_random(offsets);
    window.mark_random(all_edges);
    // Clean slate: an earlier full scan (checksum verification, another
    // engine) may have left the entire snapshot resident. Drop it all.
    window.release_section(offsets);
    window.release_section(g.neighbors_section().as_slice());
    window.release_section(g.edge_ids_section().as_slice());
    window.release_section(all_edges);

    // Unclamped on purpose: these workers spend their time blocked on
    // `pread` and page faults, so widths beyond the core count still
    // overlap stalls (the compute-bound in-memory engine clamps instead).
    let width = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    } else {
        cfg.threads
    };
    let pool = ThreadPool::unclamped(width);
    let workers = pool.workers();

    let plan = ShardPlan::new(
        g,
        cfg.shards
            .unwrap_or_else(|| auto_shards(m, budget, workers)),
    );
    let s_count = plan.num_shards();
    // Planning binary-searched the edges section; drop whatever it
    // faulted before the governed phases begin.
    window.release_section(all_edges);

    // The offsets section is consulted on every row copy: pin it for the
    // whole run (it is part of the minimum budget).
    window.pin(offsets);
    tracker.record_read(std::mem::size_of_val(offsets) as u64);

    // Spill buffers split the same heap share across every worker's
    // bucket set, so total buffered spill memory is worker-independent.
    let buf_cap = ((budget / 8) / (s_count * 16 * workers).max(1)).max(64);
    let sup = StateFile::create(scratch, "sup", m, tracker.clone())?;
    let mut min_sup = vec![u32::MAX; s_count];
    let drain = SpillDrain::spawn(tracker.clone());
    // The edge filter takes its share of the heap half, like the spill
    // buffers: at most an eighth of the budget.
    let filter_bytes = filter::EdgeFilter::bytes_for(m, budget);

    let t0 = Instant::now();
    let ranks = truss_triangle::list::ranks(g);
    let support = support::sharded_supports(
        g,
        &plan,
        &ranks,
        &mut window,
        scratch,
        &tracker,
        buf_cap,
        filter_bytes,
        &sup,
        &mut min_sup,
        &pool,
        &drain,
    )?;
    drop(ranks);
    let triangle_time = t0.elapsed();

    let t1 = Instant::now();
    let (trussness, peel) = peel::external_peel(
        g,
        &plan,
        &mut window,
        scratch,
        &tracker,
        buf_cap,
        &sup,
        &mut min_sup,
        &pool,
        &drain,
    )?;
    let peel_time = t1.elapsed();
    sup.delete()?;
    drain.quiesce();

    let report = OutOfCoreReport {
        io: tracker.stats(&io),
        effective_budget: budget,
        shards: s_count,
        triangle_time,
        peel_time,
        support,
        peel,
        threads: workers,
        spill_bytes_written: support.spill_bytes_written + peel.spill_bytes_written,
        spill_bytes_read: support.spill_bytes_read + peel.spill_bytes_read,
        spill_drain_overlap: drain.overlap(),
    };
    Ok((TrussDecomposition::from_trussness(trussness), report))
}

/// Convenience entry point with a fresh scratch dir.
pub fn outofcore_decompose(
    g: &CsrGraph,
    cfg: &OutOfCoreConfig,
) -> Result<(TrussDecomposition, OutOfCoreReport)> {
    let scratch = ScratchDir::new()?;
    outofcore_decompose_in(g, cfg, &scratch)
}

/// The CSR rows of one vertex range, copied out of the graph
/// ([`CsrGraph::copy_rows`]: positioned reads on a mapped snapshot, so
/// no pass reads rows through the mapping) and checked on the way in. A
/// neighbor id not below `n`, an edge id not below `m` or offsets out of
/// order mean a corrupt snapshot, reported as [`StorageError::Corrupt`]
/// instead of a panic inside a pass.
pub(crate) struct Rows<'g> {
    g: &'g CsrGraph,
    offsets: &'g [u64],
    base: usize,
    nbrs: Vec<VertexId>,
    eids: Vec<EdgeId>,
}

impl<'g> Rows<'g> {
    /// An empty row buffer over `g`.
    pub(crate) fn new(g: &'g CsrGraph) -> Rows<'g> {
        Rows {
            g,
            offsets: g.offsets_section().as_slice(),
            base: 0,
            nbrs: Vec::new(),
            eids: Vec::new(),
        }
    }

    /// Replaces the buffer's contents with the rows of vertices
    /// `lo..hi`, recorded on `tracker` as one read.
    pub(crate) fn load(&mut self, lo: VertexId, hi: VertexId, tracker: &IoTracker) -> Result<()> {
        let offs = &self.offsets[lo as usize..=hi as usize];
        if let Some(v) = offs.windows(2).position(|p| p[0] > p[1]) {
            return Err(StorageError::Corrupt(format!(
                "offsets decrease at vertex {}",
                lo as usize + v
            )));
        }
        self.g.copy_rows(lo, hi, &mut self.nbrs, &mut self.eids)?;
        tracker.record_read((std::mem::size_of_val(&self.nbrs[..]) * 2) as u64);
        let (n, m) = (self.g.num_vertices(), self.g.num_edges());
        if let Some(w) = self.nbrs.iter().find(|&&w| w as usize >= n) {
            return Err(StorageError::Corrupt(format!(
                "neighbor id {w} in the rows of vertices {lo}..{hi} is not below n = {n}"
            )));
        }
        if let Some(e) = self.eids.iter().find(|&&e| e as usize >= m) {
            return Err(StorageError::Corrupt(format!(
                "edge id {e} in the rows of vertices {lo}..{hi} is not below m = {m}"
            )));
        }
        self.base = offs[0] as usize;
        Ok(())
    }

    /// The neighbors and edge ids of `v`, which must lie in the loaded
    /// range.
    pub(crate) fn row(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        let a = self.offsets[v as usize] as usize - self.base;
        let b = self.offsets[v as usize + 1] as usize - self.base;
        (&self.nbrs[a..b], &self.eids[a..b])
    }
}

/// Copies edge `e` out of the graph (a positioned read on a mapped
/// snapshot), recorded on `tracker` as one read, and checks that its
/// endpoints are canonical vertex ids.
pub(crate) fn read_edge(g: &CsrGraph, e: EdgeId, tracker: &IoTracker) -> Result<Edge> {
    let mut edge = Edge { u: 0, v: 0 };
    g.edges_section()
        .read_at(e as usize, std::slice::from_mut(&mut edge))?;
    tracker.record_read(std::mem::size_of::<Edge>() as u64);
    if edge.u >= edge.v || edge.v as usize >= g.num_vertices() {
        return Err(StorageError::Corrupt(format!(
            "edge {e} = ({}, {}) is not a canonical pair below n = {}",
            edge.u,
            edge.v,
            g.num_vertices()
        )));
    }
    Ok(edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::truss_decompose_naive;
    use truss_graph::generators::{
        complete, complete_bipartite, figure2_graph, gnm, grid, path, planted_clique, rmat, star,
        RmatConfig,
    };
    use truss_graph::Edge;

    fn assert_matches_naive(g: &CsrGraph, cfg: &OutOfCoreConfig) {
        let expect = truss_decompose_naive(g);
        let (got, report) = outofcore_decompose(g, cfg).unwrap();
        assert_eq!(got.trussness(), expect.trussness());
        assert_eq!(got.k_max(), expect.k_max());
        assert!(report.io.bytes_written > 0, "state file traffic expected");
    }

    /// Runs `g` at widths 1, 2 and 4 over forced shard counts 1, 3 and 7,
    /// checks every run against the naive peel, and returns the largest
    /// `walks` count seen.
    fn max_walks_over_grid(name: &str, g: &CsrGraph) -> u64 {
        let expect = truss_decompose_naive(g);
        let mut walks = 0;
        for threads in [1usize, 2, 4] {
            for shards in [1usize, 3, 7] {
                let cfg = OutOfCoreConfig::with_shards(IoConfig::with_budget(1 << 20), shards)
                    .with_threads(threads);
                let (got, report) = outofcore_decompose(g, &cfg).unwrap();
                assert_eq!(
                    got.trussness(),
                    expect.trussness(),
                    "{name}: threads={threads} shards={shards}"
                );
                assert!(report.peel.epochs > 0 || g.num_edges() == 0, "{name}");
                walks = walks.max(report.peel.walks);
            }
        }
        walks
    }

    /// Edges that close at least one triangle.
    fn supported_edges(g: &CsrGraph) -> u64 {
        truss_triangle::edge_supports(g)
            .iter()
            .filter(|&&s| s > 0)
            .count() as u64
    }

    fn graph(edges: impl IntoIterator<Item = (u32, u32)>) -> CsrGraph {
        CsrGraph::from_edges(edges.into_iter().map(|(u, v)| Edge::new(u, v)))
    }

    /// `g`'s edges plus `extra`, as one graph.
    fn with_edges(g: &CsrGraph, extra: impl IntoIterator<Item = (u32, u32)>) -> CsrGraph {
        graph(g.edges().iter().map(|e| (e.u, e.v)).chain(extra))
    }

    /// Cliques of the given sizes on consecutive vertex ranges; with
    /// `share`, each clique's first two vertices are the previous
    /// clique's last two, so neighbors share one edge.
    fn clique_chain(sizes: &[u32], share: bool) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        let mut base = 0u32;
        for &k in sizes {
            for u in base..base + k {
                for v in u + 1..base + k {
                    edges.push((u, v));
                }
            }
            base += if share { k - 2 } else { k };
        }
        edges
    }

    #[test]
    fn plan_partitions_vertices_and_edges_consistently() {
        let g = gnm(200, 1500, 0x91a7);
        for s in [1usize, 2, 4, 7, 100] {
            let plan = ShardPlan::new(&g, s);
            assert_eq!(plan.num_shards(), s);
            let (v0, _) = plan.vertex_range(0);
            assert_eq!(v0, 0);
            let (_, vl) = plan.vertex_range(s - 1);
            assert_eq!(vl as usize, g.num_vertices());
            let mut edge_total = 0usize;
            for sh in 0..s {
                let (e_lo, e_hi) = plan.edge_range(sh);
                edge_total += e_hi - e_lo;
                for e in e_lo..e_hi {
                    assert_eq!(plan.edge_shard(e as u32), sh);
                    assert_eq!(plan.vertex_shard(g.edge(e as u32).u), sh);
                }
            }
            assert_eq!(edge_total, g.num_edges());
        }
    }

    #[test]
    fn figure2_across_shard_counts() {
        let g = figure2_graph();
        for s in [1usize, 2, 4, 7] {
            let cfg = OutOfCoreConfig::with_shards(IoConfig::with_budget(1 << 20), s);
            assert_matches_naive(&g, &cfg);
        }
    }

    #[test]
    fn parallel_workers_match_inmem_across_shard_counts() {
        let g = gnm(400, 3000, 0x7a11);
        let expect = truss_decompose_naive(&g);
        for (threads, shards) in [(1usize, 4usize), (2, 5), (4, 3), (4, 11), (8, 7)] {
            let cfg = OutOfCoreConfig::with_shards(IoConfig::with_budget(1 << 19), shards)
                .with_threads(threads);
            let (got, report) = outofcore_decompose(&g, &cfg).unwrap();
            assert_eq!(
                got.trussness(),
                expect.trussness(),
                "threads={threads} shards={shards}"
            );
            assert_eq!(report.threads, threads);
            assert!(report.peel.epochs > 0, "every width runs the epoch peel");
        }
    }

    #[test]
    fn support_zero_edges_never_walk() {
        // Triangle-free graphs: every edge has support 0 and dies at
        // k = 2 without a walk. Alone, that first epoch is also the final
        // one; beside a K_5
        // (support 3, walk-free in its own final epoch) it is not, so the
        // support-0 rule alone must keep it from walking.
        let k5 = clique_chain(&[5], false)
            .into_iter()
            .map(|(u, v)| (u + 500, v + 500));
        let graphs = [
            ("path", path(60)),
            ("star", star(300)),
            ("K_5,7", complete_bipartite(5, 7)),
            ("grid", grid(8, 9)),
            ("star beside K_5", with_edges(&star(300), k5.clone())),
            ("grid beside K_5", with_edges(&grid(8, 9), k5)),
        ];
        for (name, g) in &graphs {
            assert_eq!(max_walks_over_grid(name, g), 0, "{name}");
        }
    }

    #[test]
    fn support_zero_kills_beside_same_epoch_deaths() {
        // A K_3, K_4 and K_6 joined by bridging edges, stars and pendant
        // paths on clique vertices (support 0 from the start), and a fan
        // whose inner spokes reach support 0 only after the rim edges
        // die — so support-0 kills share epochs with edges that walk.
        let mut extra = clique_chain(&[3, 4, 6], false);
        extra.extend([(2, 3), (2, 4), (6, 7), (6, 8)]);
        for (i, hub) in [0u32, 3, 7].into_iter().enumerate() {
            let first = 100 * (i as u32 + 1);
            extra.extend((first..first + 20 + 30 * i as u32).map(|leaf| (hub, leaf)));
        }
        for (i, anchor) in [1u32, 5, 9].into_iter().enumerate() {
            let start = 500 + 10 * i as u32;
            extra.push((anchor, start));
            extra.extend((start..start + 6).map(|v| (v, v + 1)));
        }
        // The fan: hub 600 over the rim path 601..=620, tied to vertex 0.
        extra.extend((601..=620).map(|v| (600, v)));
        extra.extend((601..620).map(|v| (v, v + 1)));
        extra.extend([(0, 600), (0, 601)]);
        let g = with_edges(&gnm(640, 350, 0x51a5), extra);
        let walks = max_walks_over_grid("glued", &g);
        assert!(walks > 0);
        assert!(walks <= supported_edges(&g), "{walks} walks");
    }

    #[test]
    fn walks_stop_after_unretired_triangles() {
        // Consecutive cliques share an edge, so a shared edge's support
        // counts both cliques' triangles; when the smaller clique dies
        // first, the shared edge later walks with `c < sup(e)` and stops
        // partway through its rows. The K_9 keeps K_7's level from being
        // the final (walk-free) epoch.
        let g = graph(clique_chain(&[4, 7, 5, 9, 6, 3], true));
        let walks = max_walks_over_grid("clique chain", &g);
        assert!(walks > 0 && walks <= supported_edges(&g));
        let noisy = with_edges(&gnm(60, 150, 0xc4a1), clique_chain(&[5, 8, 4, 7], true));
        max_walks_over_grid("clique chain over G(n,m)", &noisy);

        // An exact stop: (0, 1) closes triangles with 2 and 3. The first
        // retires at k = 3 before (0, 1) dies, so (0, 1) walks with c = 1
        // past the retired apex 2 and must still reach apex 3 — its
        // decrement is what lets (0, 3) die at k = 4 rather than 5.
        let mut edges = vec![(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 15), (1, 16)];
        for clique in [[0u32, 10, 11, 12, 13, 14], [3, 10, 11, 15, 16, 17]] {
            for (i, &u) in clique.iter().enumerate() {
                edges.extend(clique[i + 1..].iter().map(|&v| (u, v)));
            }
        }
        let g = graph(edges);
        let f = g.edge_id(0, 3).expect("edge (0, 3)");
        assert_eq!(truss_decompose_naive(&g).edge_trussness(f), 4);
        max_walks_over_grid("stop past a retired apex", &g);
    }

    #[test]
    fn final_epoch_does_not_walk() {
        // The planted K_30 is the last class: it dies in one epoch that
        // kills every live edge, so none of its 435 edges walks.
        let g = planted_clique(&gnm(400, 900, 5), 30, 2);
        let walks = max_walks_over_grid("planted K_30", &g);
        assert!(walks + 435 <= supported_edges(&g), "{walks} walks");
        assert_eq!(max_walks_over_grid("K_12", &complete(12)), 0);
    }

    #[test]
    fn parallel_report_carries_spill_and_overlap_metrics() {
        // Small budget + forced shards => real spill traffic.
        let g = gnm(500, 5000, 0xfeed);
        let cfg = OutOfCoreConfig::with_shards(IoConfig::with_budget(1), 9).with_threads(4);
        let (_, report) = outofcore_decompose(&g, &cfg).unwrap();
        assert!(report.spill_bytes_written > 0, "expected spilled runs");
        assert!(report.spill_bytes_read >= report.spill_bytes_written);
        assert!(report.spill_drain_overlap <= Duration::from_secs(3600));
    }

    #[test]
    fn adversarially_tiny_budget_still_exact() {
        // The clamp raises this to the real minimum; correctness must not
        // depend on the configured number.
        let g = gnm(300, 2500, 0xbadb);
        let cfg = OutOfCoreConfig::with_shards(IoConfig::with_budget(1), 7);
        assert_matches_naive(&g, &cfg);
    }

    #[test]
    fn rmat_skew_exercises_empty_shards() {
        let g = rmat(RmatConfig::skewed(8, 3000), 0x5eed);
        let cfg = OutOfCoreConfig::with_shards(IoConfig::with_budget(1 << 18), 7);
        assert_matches_naive(&g, &cfg);
    }

    #[test]
    fn empty_and_triangle_free_graphs() {
        let empty = CsrGraph::from_edges(Vec::<truss_graph::Edge>::new());
        let cfg = OutOfCoreConfig::new(IoConfig::with_budget(1 << 16));
        let (d, _) = outofcore_decompose(&empty, &cfg).unwrap();
        assert_eq!(d.k_max(), 2);

        // A path graph: every edge has support 0, truss 2.
        let path = CsrGraph::from_edges(
            [(0u32, 1u32), (1, 2), (2, 3), (3, 4)]
                .into_iter()
                .map(|(u, v)| truss_graph::Edge::new(u, v)),
        );
        let (d, _) = outofcore_decompose(&path, &cfg).unwrap();
        assert!(d.trussness().iter().all(|&t| t == 2));
    }

    #[test]
    fn minimum_budget_is_monotone_in_graph_size() {
        let small = gnm(50, 200, 1);
        let large = gnm(20_000, 200_000, 1);
        assert!(outofcore_minimum_budget(&large) > outofcore_minimum_budget(&small));
    }
}
