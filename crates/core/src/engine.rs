//! The unified `TrussEngine` layer: one entry point over every
//! decomposition algorithm in the workspace.
//!
//! Consumers (the `truss` CLI, the benchmark tables, the consistency test
//! suite) do not hand-wire algorithm entry points any more — they look an
//! engine up in an [`EngineRegistry`] by [`AlgorithmKind`] or name and call
//! [`TrussEngine::run`], getting back the decomposition plus a uniform
//! [`EngineReport`] (wall time, peak-memory estimate, [`IoStats`] from the
//! storage layer's `IoTracker`, triangle/support counters).
//!
//! This crate registers the five algorithms it owns (TD-inmem, TD-inmem+,
//! TD-bottomup, TD-topdown, and the PKT-style parallel engine from
//! [`crate::parallel`]) via [`EngineRegistry::core`]. The TD-MR baseline
//! lives in `truss-mapreduce`, which *depends on* this crate, so its
//! engine cannot be constructed here; the `truss-decomposition` facade
//! crate assembles the full six-engine registry
//! (`truss_decomposition::engine::registry()`). Later engines (e.g.
//! streaming or distributed decompositions) slot in the same way:
//! implement [`TrussEngine`], register, and every consumer picks the new
//! algorithm up without code changes.

use crate::bottom_up::{bottom_up_decompose_in, minimum_budget, BottomUpConfig};
use crate::decompose::naive::truss_decompose_naive_with_memory;
use crate::decompose::{truss_decompose_with, ImprovedConfig, TrussDecomposition};
use crate::index::TrussIndex;
use crate::top_down::{top_down_decompose_in, TopDownConfig};
use std::borrow::Cow;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use truss_graph::{CsrGraph, GraphError};
use truss_storage::{IoConfig, IoStats, ScratchDir, StorageError};

/// Every decomposition algorithm the workspace knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Algorithm 1 — Cohen's in-memory algorithm (*TD-inmem*).
    Inmem,
    /// Algorithm 2 — the improved in-memory algorithm (*TD-inmem+*).
    InmemPlus,
    /// Algorithm 4 — I/O-efficient bottom-up decomposition (*TD-bottomup*).
    BottomUp,
    /// Algorithm 7 — top-down decomposition (*TD-topdown*).
    TopDown,
    /// Cohen's graph-twiddling MapReduce baseline (*TD-MR*).
    MapReduce,
    /// PKT-style shared-memory parallel peeling (Kabir & Madduri) — not in
    /// the paper; see [`crate::parallel`].
    Parallel,
    /// Out-of-core decomposition over a GR2 snapshot with vertex-range
    /// sharding; see [`crate::outofcore`].
    OutOfCore,
}

impl AlgorithmKind {
    /// Every kind: the paper's five in presentation order, then the
    /// parallel and out-of-core engines.
    pub fn all() -> [AlgorithmKind; 7] {
        [
            AlgorithmKind::Inmem,
            AlgorithmKind::InmemPlus,
            AlgorithmKind::BottomUp,
            AlgorithmKind::TopDown,
            AlgorithmKind::MapReduce,
            AlgorithmKind::Parallel,
            AlgorithmKind::OutOfCore,
        ]
    }

    /// Canonical CLI name.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Inmem => "inmem",
            AlgorithmKind::InmemPlus => "inmem+",
            AlgorithmKind::BottomUp => "bottomup",
            AlgorithmKind::TopDown => "topdown",
            AlgorithmKind::MapReduce => "mr",
            AlgorithmKind::Parallel => "parallel",
            AlgorithmKind::OutOfCore => "outofcore",
        }
    }

    /// The literature's name for the algorithm (the paper's *TD-\** names;
    /// *PKT* for the parallel engine, after Kabir & Madduri).
    pub fn paper_name(self) -> &'static str {
        match self {
            AlgorithmKind::Inmem => "TD-inmem",
            AlgorithmKind::InmemPlus => "TD-inmem+",
            AlgorithmKind::BottomUp => "TD-bottomup",
            AlgorithmKind::TopDown => "TD-topdown",
            AlgorithmKind::MapReduce => "TD-MR",
            AlgorithmKind::Parallel => "PKT",
            AlgorithmKind::OutOfCore => "TD-ooc",
        }
    }

    /// Parses a CLI name (canonical names plus a few aliases).
    pub fn parse(s: &str) -> Option<AlgorithmKind> {
        match s {
            "inmem" | "naive" => Some(AlgorithmKind::Inmem),
            "inmem+" | "improved" => Some(AlgorithmKind::InmemPlus),
            "bottomup" | "bottom-up" => Some(AlgorithmKind::BottomUp),
            "topdown" | "top-down" => Some(AlgorithmKind::TopDown),
            "mr" | "mapreduce" => Some(AlgorithmKind::MapReduce),
            "parallel" | "pkt" => Some(AlgorithmKind::Parallel),
            "outofcore" | "out-of-core" | "ooc" => Some(AlgorithmKind::OutOfCore),
            _ => None,
        }
    }

    /// True for the external-memory algorithms (they spill to scratch disk
    /// and report nonzero [`IoStats`]).
    pub fn is_external(self) -> bool {
        matches!(
            self,
            AlgorithmKind::BottomUp
                | AlgorithmKind::TopDown
                | AlgorithmKind::MapReduce
                | AlgorithmKind::OutOfCore
        )
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Uniform engine configuration.
///
/// The external engines obey `io.memory_budget` (clamped up to the
/// smallest budget the algorithm can run under, see
/// [`minimum_budget`]) and spill into `scratch_dir`. `threads` drives the
/// parallel engine's worker count ([`crate::pool::ThreadPool`]); the
/// paper's five algorithms are sequential and ignore it, reporting
/// [`EngineReport::threads_used`] `= 1`.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Memory budget `M` and block size `B` for the external algorithms.
    pub io: IoConfig,
    /// Scratch-space root; `None` uses the system temp dir.
    pub scratch_dir: Option<PathBuf>,
    /// Worker threads for the parallel engine (`0` = machine width;
    /// serial engines ignore this).
    pub threads: usize,
    /// Report the triangle/support counters. Every engine counts them
    /// during its own support initialization, so this only decides
    /// whether [`EngineReport::triangles`] / `support_sum` are filled.
    pub collect_support_stats: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            io: IoConfig::default(),
            scratch_dir: None,
            threads: 1,
            collect_support_stats: true,
        }
    }
}

impl EngineConfig {
    /// Default configuration with an explicit I/O model.
    pub fn with_io(io: IoConfig) -> Self {
        EngineConfig {
            io,
            ..EngineConfig::default()
        }
    }

    /// Default configuration with an explicit memory budget and the
    /// standard block-size heuristic (`budget/64`, floored at 4 KiB) —
    /// the single source of truth for callers overriding only `M`.
    pub fn with_budget(budget: usize) -> Self {
        EngineConfig::with_io(IoConfig {
            memory_budget: budget,
            block_size: (budget / 64).max(4096),
        })
    }

    /// A budget sized for `g` the way the CLI defaults are: a quarter of
    /// the graph's 20-byte-per-edge on-disk footprint, floored at the
    /// algorithmic minimum and 64 KiB.
    pub fn sized_for(g: &CsrGraph) -> Self {
        let budget = (g.num_edges() * 20 / 4)
            .max(minimum_budget(g, 64))
            .max(1 << 16);
        EngineConfig::with_budget(budget)
    }

    /// The I/O model actually used for `g`: the configured budget clamped
    /// up to [`minimum_budget`] so the external engines can always run.
    pub fn effective_io(&self, g: &CsrGraph) -> IoConfig {
        self.effective_io_floored(g, 0).0
    }

    /// As [`EngineConfig::effective_io`], with an additional
    /// engine-specific floor (the out-of-core engine needs more than the
    /// generic minimum), returning whether the configured budget had to
    /// be raised. External engines surface the effective value in
    /// [`EngineReport::effective_memory_budget`] and call
    /// [`warn_budget_clamped`] when the flag is set.
    pub fn effective_io_floored(&self, g: &CsrGraph, floor: usize) -> (IoConfig, bool) {
        let budget = self.io.memory_budget.max(minimum_budget(g, 64)).max(floor);
        let clamped = budget > self.io.memory_budget;
        (
            IoConfig {
                memory_budget: budget,
                block_size: self.io.block_size.clamp(1, (budget / 2).max(1)),
            },
            clamped,
        )
    }

    /// Opens the scratch directory this configuration asks for.
    pub fn open_scratch(&self) -> Result<ScratchDir, StorageError> {
        match &self.scratch_dir {
            Some(base) => ScratchDir::under(base),
            None => ScratchDir::new(),
        }
    }
}

/// What an engine run produced, uniformly across algorithms.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Canonical name of the algorithm that ran.
    pub algorithm: String,
    /// End-to-end wall time of the algorithm proper (excludes input
    /// loading).
    pub wall_time: Duration,
    /// Wall time of the support-initialization (triangle counting) phase,
    /// for the engines that split their run into phases (the in-memory
    /// and parallel peeling engines); `None` for the external algorithms,
    /// whose rounds interleave counting and peeling.
    pub triangle_time: Option<Duration>,
    /// Wall time of the peel phase (see [`EngineReport::triangle_time`]).
    pub peel_time: Option<Duration>,
    /// Peak memory estimate in bytes: tracked heap for the in-memory
    /// algorithms, the effective memory budget `M` for the external ones.
    /// Counts *heap* only — a graph served from a mapped snapshot
    /// contributes its pages to [`EngineReport::mapped_bytes`] instead.
    pub peak_memory_estimate: usize,
    /// *Measured* peak-RSS growth over the run (`VmHWM` delta from
    /// `/proc/self/status`), next to the estimate above. `None` off
    /// Linux — the JSON emits `null` there.
    pub peak_rss_bytes: Option<u64>,
    /// The memory budget the run actually honored: the configured
    /// [`EngineConfig::io`] budget clamped up to the algorithm's minimum.
    /// `None` for the in-memory engines, which have no budget to honor.
    /// When this exceeds the configured value the engine also warns on
    /// stderr ([`warn_budget_clamped`]).
    pub effective_memory_budget: Option<u64>,
    /// Bytes of the input served out of a memory-mapped snapshot (zero
    /// for heap-resident inputs): page-cache-backed, shared read-only
    /// across threads, not part of the heap estimate above.
    pub mapped_bytes: usize,
    /// Effective worker threads the run actually used: 1 for the serial
    /// engines regardless of [`EngineConfig::threads`], the pool width for
    /// the parallel and out-of-core engines — so `--report json` output
    /// distinguishes the runs of a scaling sweep.
    pub threads_used: usize,
    /// Bytes of spill runs handed to scratch disk (outofcore only; `None`
    /// elsewhere).
    pub spill_bytes_written: Option<u64>,
    /// Bytes of spill runs read back during drains (outofcore only).
    pub spill_bytes_read: Option<u64>,
    /// Spill write time the background drain hid behind computation
    /// (outofcore only).
    pub spill_drain_overlap: Option<Duration>,
    /// Disk traffic recorded by the storage layer's `IoTracker` (zero for
    /// the in-memory algorithms — they never touch disk).
    pub io: IoStats,
    /// Largest `k` with a non-empty class.
    pub k_max: u32,
    /// Triangle count of the input, from the engine's own support count
    /// (when [`EngineConfig::collect_support_stats`] is set).
    pub triangles: Option<u64>,
    /// Σ sup(e) over all edges = 3 × triangles (when collected).
    pub support_sum: Option<u64>,
    /// Algorithm rounds: k-rounds for the external algorithms, peeling
    /// iterations for TD-MR.
    pub rounds: Option<u64>,
    /// Non-empty peel levels (parallel engine only; equals
    /// [`EngineReport::rounds`] there).
    pub peel_levels: Option<u64>,
    /// Bulk-synchronous sub-iterations across all levels (parallel engine
    /// only).
    pub peel_sub_iterations: Option<u64>,
    /// Live-adjacency compaction passes during the peel (parallel engine
    /// only).
    pub peel_compactions: Option<u64>,
    /// LowerBounding iterations (TD-bottomup only).
    pub lower_bound_iterations: Option<u64>,
    /// Initial upper bound `k_1st` (TD-topdown only).
    pub k_first: Option<u32>,
    /// MapReduce jobs executed (TD-MR only).
    pub mr_jobs: Option<u64>,
    /// Records through the MapReduce shuffle (TD-MR only).
    pub mr_shuffled_records: Option<u64>,
}

impl EngineReport {
    /// A report skeleton for `kind` — engine implementations (including
    /// out-of-crate ones) start from this and fill in their specifics.
    /// `threads_used` starts at 1 (correct for every serial engine); the
    /// parallel engine overwrites it with its pool width.
    pub fn base_for(kind: AlgorithmKind, wall_time: Duration) -> Self {
        EngineReport {
            algorithm: kind.name().to_string(),
            wall_time,
            threads_used: 1,
            ..EngineReport::default()
        }
    }

    /// Serializes the report as a single JSON object (hand-rolled — the
    /// workspace carries no serde dependency).
    pub fn to_json(&self) -> String {
        fn opt(v: Option<u64>) -> String {
            v.map_or_else(|| "null".to_string(), |x| x.to_string())
        }
        fn opt_ms(v: Option<Duration>) -> String {
            v.map_or_else(
                || "null".to_string(),
                |d| format!("{:.3}", d.as_secs_f64() * 1e3),
            )
        }
        format!(
            concat!(
                "{{\"algorithm\":\"{}\",\"wall_time_secs\":{:.6},",
                "\"triangle_ms\":{},\"peel_ms\":{},",
                "\"peak_memory_estimate\":{},\"peak_rss_bytes\":{},",
                "\"effective_memory_budget\":{},\"mapped_bytes\":{},",
                "\"threads_used\":{},",
                "\"spill_bytes_written\":{},\"spill_bytes_read\":{},",
                "\"spill_drain_overlap_ms\":{},",
                "\"k_max\":{},",
                "\"io\":{{\"bytes_read\":{},\"bytes_written\":{},",
                "\"blocks_read\":{},\"blocks_written\":{},",
                "\"read_ops\":{},\"write_ops\":{},\"scans\":{},",
                "\"total_blocks\":{}}},",
                "\"triangles\":{},\"support_sum\":{},\"rounds\":{},",
                "\"peel_levels\":{},\"peel_sub_iterations\":{},",
                "\"peel_compactions\":{},",
                "\"lower_bound_iterations\":{},\"k_first\":{},",
                "\"mr_jobs\":{},\"mr_shuffled_records\":{}}}"
            ),
            self.algorithm,
            self.wall_time.as_secs_f64(),
            opt_ms(self.triangle_time),
            opt_ms(self.peel_time),
            self.peak_memory_estimate,
            opt(self.peak_rss_bytes),
            opt(self.effective_memory_budget),
            self.mapped_bytes,
            self.threads_used,
            opt(self.spill_bytes_written),
            opt(self.spill_bytes_read),
            opt_ms(self.spill_drain_overlap),
            self.k_max,
            self.io.bytes_read,
            self.io.bytes_written,
            self.io.blocks_read,
            self.io.blocks_written,
            self.io.read_ops,
            self.io.write_ops,
            self.io.scans,
            self.io.total_blocks(),
            opt(self.triangles),
            opt(self.support_sum),
            opt(self.rounds),
            opt(self.peel_levels),
            opt(self.peel_sub_iterations),
            opt(self.peel_compactions),
            opt(self.lower_bound_iterations),
            opt(self.k_first.map(u64::from)),
            opt(self.mr_jobs),
            opt(self.mr_shuffled_records),
        )
    }
}

/// Errors from the engine layer.
#[derive(Debug)]
pub enum EngineError {
    /// The storage substrate failed (external algorithms).
    Storage(StorageError),
    /// Loading the input graph failed.
    Load(GraphError),
    /// Opening the input path failed.
    Input(PathBuf, std::io::Error),
    /// The engine ran but produced no usable decomposition.
    Incomplete(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "{e}"),
            EngineError::Load(e) => write!(f, "{e}"),
            EngineError::Input(p, e) => write!(f, "{}: {e}", p.display()),
            EngineError::Incomplete(m) => write!(f, "incomplete run: {m}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            EngineError::Load(e) => Some(e),
            EngineError::Input(_, e) => Some(e),
            EngineError::Incomplete(_) => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Load(e)
    }
}

/// Convenience alias.
pub type EngineResult<T> = std::result::Result<T, EngineError>;

/// Input to an engine run: an in-memory graph or a path to load.
///
/// Paths are dispatched on their magic bytes — `TRUSSGR1` binary,
/// `TRUSSGR2` zero-copy snapshot (memory-mapped where possible), anything
/// else as a SNAP text edge list — the same convention the CLI uses
/// ([`truss_storage::load_graph_auto`]).
pub enum EngineInput<'a> {
    /// An already-loaded graph.
    Graph(&'a CsrGraph),
    /// A path to a graph in any supported format.
    Path(&'a Path),
}

impl<'a> EngineInput<'a> {
    /// Materializes the graph (borrowing when already in memory; a v2
    /// snapshot path materializes as O(1) mapped views, not a parse).
    pub fn load(&self) -> EngineResult<Cow<'a, CsrGraph>> {
        match self {
            EngineInput::Graph(g) => Ok(Cow::Borrowed(g)),
            EngineInput::Path(p) => {
                let g = truss_storage::load_graph_auto(p, truss_storage::LoadMode::Auto).map_err(
                    |e| match e {
                        StorageError::Io(io) => EngineError::Input(p.to_path_buf(), io),
                        other => EngineError::Storage(other),
                    },
                )?;
                Ok(Cow::Owned(g))
            }
        }
    }
}

impl<'a> From<&'a CsrGraph> for EngineInput<'a> {
    fn from(g: &'a CsrGraph) -> Self {
        EngineInput::Graph(g)
    }
}

impl<'a> From<&'a Path> for EngineInput<'a> {
    fn from(p: &'a Path) -> Self {
        EngineInput::Path(p)
    }
}

/// A truss-decomposition algorithm behind the uniform interface.
pub trait TrussEngine {
    /// Which algorithm this engine runs.
    fn kind(&self) -> AlgorithmKind;

    /// Canonical CLI name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Runs the algorithm on `input` under `config`.
    fn run(
        &self,
        input: EngineInput<'_>,
        config: &EngineConfig,
    ) -> EngineResult<(TrussDecomposition, EngineReport)>;

    /// Runs the algorithm and promotes the result into a persistent,
    /// queryable [`TrussIndex`] — the graph and its decomposition bundled
    /// behind the query/update API. Every engine gets this for free, so
    /// any registered algorithm can serve as the build step of
    /// `truss index build`.
    fn build_index(
        &self,
        input: EngineInput<'_>,
        config: &EngineConfig,
    ) -> EngineResult<(TrussIndex, EngineReport)> {
        let g = input.load()?.into_owned();
        let (d, report) = self.run(EngineInput::Graph(&g), config)?;
        Ok((TrussIndex::from_parts(g, d), report))
    }
}

/// Warns on stderr that an external engine raised the configured budget
/// to its working minimum. One line, engine-tagged, so sweep scripts
/// driving `--memory` ladders can see which rungs were fictional.
pub fn warn_budget_clamped(kind: AlgorithmKind, configured: usize, effective: usize) {
    eprintln!(
        "warning: {}: memory budget {configured} B below the working minimum, using {effective} B",
        kind.name()
    );
}

/// Fills the counters shared by every engine: `k_max`, the mapped input
/// bytes, and — when [`EngineConfig::collect_support_stats`] is set — the
/// triangle and support counters from `support_sum`, the Σ sup(e) the
/// engine's own support initialization counted.
///
/// Engine implementations (including out-of-crate ones like TD-MR) call
/// this once after the timed section.
pub fn finish_report(
    report: &mut EngineReport,
    g: &CsrGraph,
    d: &TrussDecomposition,
    config: &EngineConfig,
    support_sum: u64,
) {
    report.k_max = d.k_max();
    report.mapped_bytes = g.mapped_bytes();
    if config.collect_support_stats {
        report.support_sum = Some(support_sum);
        report.triangles = Some(support_sum / 3);
    }
}

/// TD-inmem (Algorithm 1).
pub struct InmemEngine;

impl TrussEngine for InmemEngine {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Inmem
    }

    fn run(
        &self,
        input: EngineInput<'_>,
        config: &EngineConfig,
    ) -> EngineResult<(TrussDecomposition, EngineReport)> {
        let g = input.load()?;
        let probe = crate::rss::RssProbe::start();
        let start = Instant::now();
        let (d, stats) = truss_decompose_naive_with_memory(&g);
        let mut report = EngineReport::base_for(self.kind(), start.elapsed());
        report.peak_rss_bytes = probe.delta_bytes();
        report.peak_memory_estimate = stats.peak_bytes;
        report.triangle_time = Some(stats.triangle_time);
        report.peel_time = Some(stats.peel_time);
        finish_report(&mut report, &g, &d, config, stats.support_sum);
        Ok((d, report))
    }
}

/// TD-inmem+ (Algorithm 2).
pub struct InmemPlusEngine;

impl TrussEngine for InmemPlusEngine {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::InmemPlus
    }

    fn run(
        &self,
        input: EngineInput<'_>,
        config: &EngineConfig,
    ) -> EngineResult<(TrussDecomposition, EngineReport)> {
        let g = input.load()?;
        let probe = crate::rss::RssProbe::start();
        let start = Instant::now();
        let (d, stats) = truss_decompose_with(&g, ImprovedConfig::default());
        let mut report = EngineReport::base_for(self.kind(), start.elapsed());
        report.peak_rss_bytes = probe.delta_bytes();
        report.peak_memory_estimate = stats.peak_bytes;
        report.triangle_time = Some(stats.triangle_time);
        report.peel_time = Some(stats.peel_time);
        finish_report(&mut report, &g, &d, config, stats.support_sum);
        Ok((d, report))
    }
}

/// TD-bottomup (Algorithm 4).
pub struct BottomUpEngine;

impl TrussEngine for BottomUpEngine {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::BottomUp
    }

    fn run(
        &self,
        input: EngineInput<'_>,
        config: &EngineConfig,
    ) -> EngineResult<(TrussDecomposition, EngineReport)> {
        let g = input.load()?;
        let (io, clamped) = config.effective_io_floored(&g, 0);
        if clamped {
            warn_budget_clamped(self.kind(), config.io.memory_budget, io.memory_budget);
        }
        let scratch = config.open_scratch()?;
        let cfg = BottomUpConfig::new(io);
        let probe = crate::rss::RssProbe::start();
        let start = Instant::now();
        let (d, algo_report) = bottom_up_decompose_in(&g, &cfg, &scratch)?;
        let mut report = EngineReport::base_for(self.kind(), start.elapsed());
        report.peak_rss_bytes = probe.delta_bytes();
        report.peak_memory_estimate = io.memory_budget;
        report.effective_memory_budget = Some(io.memory_budget as u64);
        report.io = algo_report.io;
        report.rounds = Some(algo_report.rounds as u64);
        report.lower_bound_iterations = Some(algo_report.lower_bound_iterations as u64);
        finish_report(&mut report, &g, &d, config, algo_report.support_sum);
        Ok((d, report))
    }
}

/// TD-topdown (Algorithm 7), run to completion so it yields a full
/// decomposition. (Top-t runs stay on [`crate::top_down::top_down_decompose`]
/// directly — a truncated run has no `TrussDecomposition` to return.)
pub struct TopDownEngine;

impl TrussEngine for TopDownEngine {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::TopDown
    }

    fn run(
        &self,
        input: EngineInput<'_>,
        config: &EngineConfig,
    ) -> EngineResult<(TrussDecomposition, EngineReport)> {
        let g = input.load()?;
        let (io, clamped) = config.effective_io_floored(&g, 0);
        if clamped {
            warn_budget_clamped(self.kind(), config.io.memory_budget, io.memory_budget);
        }
        let scratch = config.open_scratch()?;
        let cfg = TopDownConfig::new(io);
        let probe = crate::rss::RssProbe::start();
        let start = Instant::now();
        let (res, algo_report) = top_down_decompose_in(&g, &cfg, &scratch)?;
        let wall = start.elapsed();
        let d = res.to_decomposition(&g).ok_or_else(|| {
            EngineError::Incomplete("top-down did not classify every edge".into())
        })?;
        let mut report = EngineReport::base_for(self.kind(), wall);
        report.peak_rss_bytes = probe.delta_bytes();
        report.peak_memory_estimate = io.memory_budget;
        report.effective_memory_budget = Some(io.memory_budget as u64);
        report.io = algo_report.io;
        report.rounds = Some(algo_report.rounds as u64);
        report.k_first = Some(algo_report.k_first);
        finish_report(&mut report, &g, &d, config, algo_report.support_sum);
        Ok((d, report))
    }
}

/// TD-ooc: out-of-core decomposition over a GR2 snapshot
/// ([`crate::outofcore`]). Unlike TD-bottomup/topdown it never copies
/// the graph into scratch records — each pass copies the rows it needs
/// out of the snapshot with positioned reads, within the budget.
pub struct OutOfCoreEngine;

impl TrussEngine for OutOfCoreEngine {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::OutOfCore
    }

    fn run(
        &self,
        input: EngineInput<'_>,
        config: &EngineConfig,
    ) -> EngineResult<(TrussDecomposition, EngineReport)> {
        let g = input.load()?;
        let (io, clamped) =
            config.effective_io_floored(&g, crate::outofcore::outofcore_minimum_budget(&g));
        if clamped {
            warn_budget_clamped(self.kind(), config.io.memory_budget, io.memory_budget);
        }
        let scratch = config.open_scratch()?;
        let cfg = crate::outofcore::OutOfCoreConfig::new(io).with_threads(config.threads.max(1));
        let probe = crate::rss::RssProbe::start();
        let start = Instant::now();
        let (d, algo_report) = crate::outofcore::outofcore_decompose_in(&g, &cfg, &scratch)?;
        let mut report = EngineReport::base_for(self.kind(), start.elapsed());
        report.peak_rss_bytes = probe.delta_bytes();
        report.peak_memory_estimate = io.memory_budget;
        report.effective_memory_budget = Some(algo_report.effective_budget as u64);
        report.io = algo_report.io;
        report.triangle_time = Some(algo_report.triangle_time);
        report.peel_time = Some(algo_report.peel_time);
        report.rounds = Some(algo_report.peel.levels);
        report.threads_used = algo_report.threads;
        report.spill_bytes_written = Some(algo_report.spill_bytes_written);
        report.spill_bytes_read = Some(algo_report.spill_bytes_read);
        report.spill_drain_overlap = Some(algo_report.spill_drain_overlap);
        // The budgeted support pass counts each triangle once.
        let support_sum = 3 * algo_report.support.triangles;
        finish_report(&mut report, &g, &d, config, support_sum);
        Ok((d, report))
    }
}

/// Ordered collection of engines, looked up by kind or name.
///
/// Consumers never hand-wire algorithm entry points: look an engine up,
/// run it, and read the uniform report.
///
/// ```
/// use truss_core::engine::{EngineConfig, EngineInput, EngineRegistry};
///
/// let g = truss_graph::generators::figure2_graph();
/// let engines = EngineRegistry::core();
/// let engine = engines.by_name("inmem+").expect("registered");
/// let (decomposition, report) = engine
///     .run(EngineInput::Graph(&g), &EngineConfig::sized_for(&g))
///     .unwrap();
/// assert_eq!(decomposition.k_max(), 5);
/// assert_eq!(report.k_max, 5);
/// assert_eq!(report.threads_used, 1); // TD-inmem+ is serial
/// ```
pub struct EngineRegistry {
    engines: Vec<Box<dyn TrussEngine>>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        EngineRegistry {
            engines: Vec::new(),
        }
    }

    /// The six engines implemented in this crate (the four serial
    /// algorithms, the parallel engine, and the out-of-core engine), in
    /// [`AlgorithmKind::all`] order. The facade crate extends this with
    /// TD-MR; see the module docs.
    pub fn core() -> Self {
        let mut r = EngineRegistry::new();
        r.register(Box::new(InmemEngine));
        r.register(Box::new(InmemPlusEngine));
        r.register(Box::new(BottomUpEngine));
        r.register(Box::new(TopDownEngine));
        r.register(Box::new(crate::parallel::ParallelEngine));
        r.register(Box::new(OutOfCoreEngine));
        r
    }

    /// Adds an engine (replacing any existing engine of the same kind).
    pub fn register(&mut self, engine: Box<dyn TrussEngine>) {
        self.engines.retain(|e| e.kind() != engine.kind());
        self.engines.push(engine);
    }

    /// Looks an engine up by kind.
    pub fn get(&self, kind: AlgorithmKind) -> Option<&dyn TrussEngine> {
        self.engines
            .iter()
            .find(|e| e.kind() == kind)
            .map(|e| e.as_ref())
    }

    /// Looks an engine up by CLI name or alias. Falls back to matching the
    /// engines' own [`TrussEngine::name`], so an engine registered under a
    /// name [`AlgorithmKind::parse`] does not know is still reachable.
    pub fn by_name(&self, name: &str) -> Option<&dyn TrussEngine> {
        match AlgorithmKind::parse(name) {
            Some(kind) => self.get(kind),
            None => self
                .engines
                .iter()
                .find(|e| e.name() == name)
                .map(|e| e.as_ref()),
        }
    }

    /// Iterates registered engines in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn TrussEngine> {
        self.engines.iter().map(|e| e.as_ref())
    }

    /// Kinds registered, in registration order.
    pub fn kinds(&self) -> Vec<AlgorithmKind> {
        self.engines.iter().map(|e| e.kind()).collect()
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True when no engine is registered.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        EngineRegistry::core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use truss_graph::generators::figure2_graph;

    #[test]
    fn kinds_round_trip_names() {
        assert_eq!(AlgorithmKind::all().len(), 7);
        for kind in AlgorithmKind::all() {
            assert_eq!(AlgorithmKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            AlgorithmKind::parse("improved"),
            Some(AlgorithmKind::InmemPlus)
        );
        assert_eq!(AlgorithmKind::parse("pkt"), Some(AlgorithmKind::Parallel));
        assert_eq!(AlgorithmKind::parse("ooc"), Some(AlgorithmKind::OutOfCore));
        assert_eq!(AlgorithmKind::parse("nope"), None);
    }

    #[test]
    fn core_registry_runs_all_six_identically() {
        let g = figure2_graph();
        let registry = EngineRegistry::core();
        assert_eq!(registry.len(), 6);
        let config = EngineConfig::sized_for(&g);
        for engine in registry.iter() {
            let (d, report) = engine.run(EngineInput::Graph(&g), &config).unwrap();
            assert_eq!(d.k_max(), 5, "{}", engine.name());
            assert_eq!(report.k_max, 5);
            assert_eq!(report.triangles, Some(19));
            assert_eq!(report.support_sum, Some(57));
            if engine.kind().is_external() {
                assert!(report.io.total_blocks() > 0, "{}", engine.name());
                assert!(
                    report.effective_memory_budget.is_some(),
                    "{}",
                    engine.name()
                );
            } else {
                assert_eq!(report.io.total_blocks(), 0, "{}", engine.name());
                assert_eq!(report.effective_memory_budget, None, "{}", engine.name());
            }
        }
    }

    #[test]
    fn tiny_budget_is_clamped_and_surfaced() {
        let g = figure2_graph();
        let config = EngineConfig::with_budget(1); // absurd on purpose
        let (io, clamped) = config.effective_io_floored(&g, 0);
        assert!(clamped);
        assert_eq!(io.memory_budget, minimum_budget(&g, 64));
        // A big enough budget is not clamped and passes through intact.
        let roomy = EngineConfig::with_budget(1 << 30);
        let (io, clamped) = roomy.effective_io_floored(&g, 0);
        assert!(!clamped);
        assert_eq!(io.memory_budget, 1 << 30);
        // An engine-specific floor raises further.
        let (io, clamped) = roomy.effective_io_floored(&g, 1 << 31);
        assert!(clamped);
        assert_eq!(io.memory_budget, 1 << 31);
        // The surfaced effective budget in a real external run equals the
        // clamp target, never the configured fiction.
        let (_, report) = BottomUpEngine
            .run(EngineInput::Graph(&g), &EngineConfig::with_budget(1))
            .unwrap();
        assert_eq!(
            report.effective_memory_budget,
            Some(minimum_budget(&g, 64) as u64)
        );
    }

    #[test]
    fn measured_rss_reported_where_supported() {
        let g = figure2_graph();
        let config = EngineConfig::sized_for(&g);
        let supported = crate::rss::vm_hwm_bytes().is_some();
        for engine in EngineRegistry::core().iter() {
            let (_, report) = engine.run(EngineInput::Graph(&g), &config).unwrap();
            assert_eq!(
                report.peak_rss_bytes.is_some(),
                supported,
                "{}",
                engine.name()
            );
            let json = report.to_json();
            assert!(json.contains("\"peak_rss_bytes\":"), "{json}");
        }
    }

    #[test]
    fn scratch_dir_is_honored_and_cleaned() {
        let g = figure2_graph();
        let base = std::env::temp_dir().join(format!("truss-engine-test-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let mut config = EngineConfig::sized_for(&g);
        config.scratch_dir = Some(base.clone());
        let engine = BottomUpEngine;
        let (d, _) = engine.run(EngineInput::Graph(&g), &config).unwrap();
        assert_eq!(d.k_max(), 5);
        // The scratch subdirectory is removed after the run.
        assert_eq!(std::fs::read_dir(&base).unwrap().count(), 0);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn report_json_shape() {
        let g = figure2_graph();
        let engine = TopDownEngine;
        let (_, report) = engine
            .run(EngineInput::Graph(&g), &EngineConfig::sized_for(&g))
            .unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"algorithm\":\"topdown\""));
        assert!(json.contains("\"k_max\":5"));
        assert!(json.contains("\"mr_jobs\":null"));
        // External engines interleave counting and peeling: no phase split.
        assert!(json.contains("\"triangle_ms\":null"));
        assert!(json.contains("\"peel_ms\":null"));
        assert!(!json.contains("\"total_blocks\":0"));
        // Spill metrics belong to the outofcore engine only.
        assert!(json.contains("\"spill_bytes_written\":null"));
        assert!(json.contains("\"spill_bytes_read\":null"));
        assert!(json.contains("\"spill_drain_overlap_ms\":null"));
    }

    #[test]
    fn outofcore_report_carries_spill_and_thread_metrics() {
        let g = figure2_graph();
        let mut config = EngineConfig::sized_for(&g);
        config.threads = 3;
        let (_, report) = OutOfCoreEngine
            .run(EngineInput::Graph(&g), &config)
            .unwrap();
        assert_eq!(report.threads_used, 3);
        assert!(report.spill_bytes_written.is_some());
        assert!(report.spill_bytes_read.is_some());
        assert!(report.spill_drain_overlap.is_some());
        let json = report.to_json();
        assert!(json.contains("\"spill_bytes_written\":"), "{json}");
        assert!(!json.contains("\"spill_bytes_written\":null"), "{json}");
        assert!(!json.contains("\"spill_drain_overlap_ms\":null"), "{json}");
    }

    #[test]
    fn in_memory_engines_report_phase_split() {
        let g = figure2_graph();
        let config = EngineConfig::sized_for(&g);
        for name in ["inmem", "inmem+"] {
            let registry = EngineRegistry::core();
            let engine = registry.by_name(name).unwrap();
            let (_, report) = engine.run(EngineInput::Graph(&g), &config).unwrap();
            let (t, p) = (report.triangle_time.unwrap(), report.peel_time.unwrap());
            // The phases partition the timed section, so their sum cannot
            // exceed the recorded wall time (allow for timer granularity).
            assert!(
                t + p <= report.wall_time + Duration::from_millis(1),
                "{name}"
            );
            let json = report.to_json();
            assert!(json.contains("\"triangle_ms\":"), "{name}: {json}");
            assert!(!json.contains("\"triangle_ms\":null"), "{name}: {json}");
            assert!(!json.contains("\"peel_ms\":null"), "{name}: {json}");
        }
    }

    #[test]
    fn every_engine_builds_an_index() {
        let g = figure2_graph();
        let config = EngineConfig::sized_for(&g);
        for engine in EngineRegistry::core().iter() {
            let (index, report) = engine.build_index(EngineInput::Graph(&g), &config).unwrap();
            assert_eq!(index.max_k(), 5, "{}", engine.name());
            assert_eq!(report.k_max, 5);
            assert_eq!(index.num_edges(), g.num_edges());
            assert_eq!(index.truss_of(0, 1), Some(5));
        }
    }

    #[test]
    fn input_from_path() {
        let g = figure2_graph();
        let path =
            std::env::temp_dir().join(format!("truss-engine-in-{}.snap", std::process::id()));
        truss_graph::io::write_snap(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let engine = InmemPlusEngine;
        let (d, _) = engine
            .run(EngineInput::Path(&path), &EngineConfig::default())
            .unwrap();
        assert_eq!(d.k_max(), 5);
        std::fs::remove_file(&path).unwrap();
        let err = engine
            .run(EngineInput::Path(&path), &EngineConfig::default())
            .unwrap_err();
        assert!(matches!(err, EngineError::Input(..)));
    }
}
