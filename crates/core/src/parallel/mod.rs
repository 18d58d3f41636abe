//! Shared-memory parallel truss decomposition (PKT-style).
//!
//! The paper's algorithms are single-core; this module adds the sixth
//! registered engine, [`AlgorithmKind::Parallel`], following Kabir &
//! Madduri's PKT (*Shared-memory Graph Truss Decomposition*): support
//! initialization by parallel triangle counting
//! ([`truss_triangle::par::edge_supports_par`]), then bulk-synchronous
//! level peeling where every edge whose support sits at or below `k − 2`
//! is peeled concurrently — see [`peel`] for the frontier,
//! epoch-array and once-per-triangle decrement machinery.
//!
//! Work runs on the std-only fork-join pool in [`crate::pool`], honoring
//! [`EngineConfig::threads`] (`0` = machine width), and the engine is the
//! one place [`crate::engine::EngineReport::threads_used`] reports a value
//! other than 1. The decomposition is bit-identical to every serial
//! engine — the consistency suite cross-checks it pairwise against all
//! five.
//!
//! ```
//! use truss_core::engine::{EngineConfig, EngineInput, EngineRegistry};
//!
//! let g = truss_graph::generators::figure2_graph();
//! let engines = EngineRegistry::core();
//! let engine = engines.by_name("parallel").unwrap();
//! let mut config = EngineConfig::default();
//! config.threads = 4;
//! let (d, report) = engine.run(EngineInput::Graph(&g), &config).unwrap();
//! assert_eq!(d.k_max(), 5);
//! assert_eq!(report.threads_used, 4);
//! ```

pub mod live;
pub mod peel;

use crate::decompose::{DecomposeStats, TrussDecomposition};
use crate::engine::{
    finish_report, AlgorithmKind, EngineConfig, EngineInput, EngineReport, EngineResult,
    TrussEngine,
};
use crate::pool::ThreadPool;
use peel::PeelStats;
use std::time::Instant;
use truss_graph::CsrGraph;
use truss_triangle::{par::edge_supports_fwd_par, ForwardAdjacency};

/// Decomposes `g` with `threads` workers (`0` = machine width).
///
/// Convenience wrapper over [`parallel_truss_decompose_with`]; the result
/// is identical to [`crate::decompose::truss_decompose`].
pub fn parallel_truss_decompose(g: &CsrGraph, threads: usize) -> TrussDecomposition {
    parallel_truss_decompose_with(g, &ThreadPool::new(threads)).0
}

/// Decomposes `g` on an existing pool, also returning the run's
/// [`DecomposeStats`] (peak memory, support-init vs peel wall-time split,
/// support sum) and the peeling phase counters. At width 1 this is the
/// default TD-inmem+ arm ([`crate::decompose::truss_decompose`]).
///
/// Support initialization runs over the shared flat
/// [`ForwardAdjacency`] — all workers enumerate one read-only
/// struct-of-arrays instead of rebuilding per-vertex forward vectors —
/// and the same structure is *retained* through the peel, which probes it
/// for triangle closure while walking a periodically compacted live
/// adjacency ([`live::FrontierAdjacency`]).
pub fn parallel_truss_decompose_with(
    g: &CsrGraph,
    pool: &ThreadPool,
) -> (TrussDecomposition, DecomposeStats, PeelStats) {
    let m = g.num_edges();
    let triangle_start = Instant::now();
    let fwd = ForwardAdjacency::build_par(g, pool.workers());
    let fwd_bytes = fwd.heap_bytes();
    let sup = edge_supports_fwd_par(&fwd, pool.workers());
    let support_sum = sup.iter().map(|&s| u64::from(s)).sum();
    let triangle_time = triangle_start.elapsed();
    let peel_start = Instant::now();
    let (trussness, stats) = peel::peel(g, &fwd, sup, pool);
    // The oriented adjacency now lives through *both* phases (the peel
    // probes it for triangle closure), so it is a baseline cost, not part
    // of a max over phases. On top of it the support-init phase holds one
    // private support array per worker plus the reduced output
    // (4·m·(threads+1) bytes; 4·m serially) while the peel holds its live
    // columns, the three m-sized u32 arrays and the bucket/frontier peaks
    // — whichever transient is larger sets the high-water mark.
    let sup_init_bytes = if pool.workers() > 1 {
        4 * m * (pool.workers() + 1)
    } else {
        4 * m
    };
    let peak = g.heap_bytes() + fwd_bytes + sup_init_bytes.max(stats.heap_bytes);
    (
        TrussDecomposition::from_trussness(trussness),
        DecomposeStats {
            peak_bytes: peak,
            triangle_time,
            peel_time: peel_start.elapsed(),
            support_sum,
        },
        stats,
    )
}

/// PKT-style shared-memory parallel decomposition behind the uniform
/// [`TrussEngine`] interface.
pub struct ParallelEngine;

impl TrussEngine for ParallelEngine {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Parallel
    }

    fn run(
        &self,
        input: EngineInput<'_>,
        config: &EngineConfig,
    ) -> EngineResult<(TrussDecomposition, EngineReport)> {
        let g = input.load()?;
        let pool = ThreadPool::new(config.threads);
        let probe = crate::rss::RssProbe::start();
        let start = Instant::now();
        let (d, run, stats) = parallel_truss_decompose_with(&g, &pool);
        let mut report = EngineReport::base_for(self.kind(), start.elapsed());
        report.peak_rss_bytes = probe.delta_bytes();
        report.threads_used = pool.threads();
        report.peak_memory_estimate = run.peak_bytes;
        report.triangle_time = Some(run.triangle_time);
        report.peel_time = Some(run.peel_time);
        report.rounds = Some(stats.levels as u64);
        report.peel_levels = Some(stats.levels as u64);
        report.peel_sub_iterations = Some(stats.sub_iterations);
        report.peel_compactions = Some(stats.compactions as u64);
        finish_report(&mut report, &g, &d, config, run.support_sum);
        Ok((d, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use truss_graph::generators::figure2_graph;

    #[test]
    fn engine_reports_effective_threads_and_no_io() {
        let g = figure2_graph();
        let engine = ParallelEngine;
        for threads in [1usize, 2, 4] {
            let config = EngineConfig {
                threads,
                ..EngineConfig::default()
            };
            let (d, report) = engine.run(EngineInput::Graph(&g), &config).unwrap();
            assert_eq!(d.k_max(), 5);
            assert_eq!(report.algorithm, "parallel");
            assert_eq!(report.threads_used, threads);
            assert_eq!(report.io.total_blocks(), 0);
            assert_eq!(report.rounds, Some(4));
            assert_eq!(report.peel_levels, Some(4));
            assert!(report.peel_sub_iterations.unwrap() >= 4);
            assert!(report.peel_compactions.is_some());
            assert!(report.peak_memory_estimate > 0);
        }
    }

    #[test]
    fn zero_threads_means_machine_width() {
        let g = figure2_graph();
        let config = EngineConfig {
            threads: 0,
            ..EngineConfig::default()
        };
        let (_, report) = ParallelEngine.run(EngineInput::Graph(&g), &config).unwrap();
        assert!(report.threads_used >= 1);
    }

    #[test]
    fn matches_serial_on_dataset_analogue() {
        let d = truss_graph::generators::datasets::Dataset::P2p;
        let g = d.build_scaled(d.spec().default_scale * 0.02, 42);
        let (serial, _) = crate::decompose::truss_decompose_with(
            &g,
            crate::decompose::ImprovedConfig {
                edge_index: crate::decompose::EdgeIndexKind::Hash,
            },
        );
        for threads in [2, 8] {
            // Unclamped so the multi-worker paths run even on a small box.
            let pool = ThreadPool::unclamped(threads);
            let (par, _, _) = parallel_truss_decompose_with(&g, &pool);
            assert_eq!(par.trussness(), serial.trussness(), "{threads} threads");
        }
    }
}
