//! The TD-MR baseline behind the workspace's uniform [`TrussEngine`]
//! interface.
//!
//! Lives here rather than in `truss-core` because this crate depends on
//! `truss-core` (the dependency cannot point the other way). The
//! `truss-decomposition` facade registers [`MrEngine`] into the core
//! registry to form the full five-engine set.

use crate::twiddling::mr_truss_decompose_in;
use std::time::Instant;
use truss_core::decompose::TrussDecomposition;
use truss_core::engine::{
    finish_report, AlgorithmKind, EngineConfig, EngineInput, EngineReport, EngineResult,
    TrussEngine,
};

/// TD-MR: Cohen's graph-twiddling algorithm on the single-machine
/// MapReduce engine.
pub struct MrEngine;

impl TrussEngine for MrEngine {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::MapReduce
    }

    fn run(
        &self,
        input: EngineInput<'_>,
        config: &EngineConfig,
    ) -> EngineResult<(TrussDecomposition, EngineReport)> {
        let g = input.load()?;
        let (io, clamped) = config.effective_io_floored(&g, 0);
        if clamped {
            truss_core::engine::warn_budget_clamped(
                self.kind(),
                config.io.memory_budget,
                io.memory_budget,
            );
        }
        let scratch = config.open_scratch()?;
        let probe = truss_core::rss::RssProbe::start();
        let start = Instant::now();
        let (d, algo_report) = mr_truss_decompose_in(&g, io, scratch)?;
        let mut report = EngineReport::base_for(self.kind(), start.elapsed());
        report.peak_rss_bytes = probe.delta_bytes();
        report.peak_memory_estimate = io.memory_budget;
        report.effective_memory_budget = Some(io.memory_budget as u64);
        report.io = algo_report.io;
        report.rounds = Some(algo_report.peel_iterations);
        report.mr_jobs = Some(algo_report.stats.jobs);
        report.mr_shuffled_records = Some(algo_report.stats.shuffled_records);
        finish_report(&mut report, &g, &d, config, algo_report.support_sum);
        Ok((d, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use truss_graph::generators::figure2_graph;

    #[test]
    fn mr_engine_matches_exact_and_reports_io() {
        let g = figure2_graph();
        let engine = MrEngine;
        let (d, report) = engine
            .run(EngineInput::Graph(&g), &EngineConfig::sized_for(&g))
            .unwrap();
        assert_eq!(d.k_max(), 5);
        assert_eq!(report.algorithm, "mr");
        assert!(report.io.total_blocks() > 0);
        assert!(report.mr_jobs.unwrap() >= 6 * 4);
        assert!(report.mr_shuffled_records.unwrap() > 0);
    }
}
