//! Algorithm 4 + Procedures 5 & 9 — *TD-bottomup*, the I/O-efficient
//! bottom-up truss decomposition.
//!
//! After [`crate::lower_bound`] produces `G_new` (exact supports + lower
//! bounds `φ(e)`) and splits off `Φ_2`, the k-classes are computed
//! bottom-up: for each `k`, the candidate subgraph `H = NS(U_k)` with
//! `U_k = {v : ∃ e = (u, v), φ(e) ≤ k}` provably contains all of `Φ_k` as
//! internal edges (Theorem 2), so `Φ_k` is obtained by peeling internal
//! edges of `H` with support ≤ `k − 2`. Removing each computed class from
//! `G_new` keeps later candidates small — the pruning that makes the
//! bottom-up approach win (§5).
//!
//! When `H` fits in the memory budget, Procedure 5 runs in memory. When it
//! does not, Procedure 9 is realized as a *pair-sweep*: the vertex set of
//! `H` is partitioned at half budget and every **pair** of parts is
//! materialized in turn, so each edge becomes internal in exactly one pair
//! per sweep and is peeled against supports that are exact with respect to
//! the current `H`. Sweeps repeat until none peels an edge — the same
//! fixpoint Procedure 9 reaches, without the soundness hazard of computing
//! supports in a partially-dismantled graph.
//!
//! Both are the peel TD-topdown's Procedures 8 and 10 use too (`sweep`),
//! with two parameters: every triangle of `H` counts, and the bar is
//! `k − 1` (an internal edge is peeled at `sup ≤ k − 2`).

use crate::decompose::TrussDecomposition;
use crate::lower_bound::{lower_bounding, LowerBoundOutput};
use crate::sweep;
use truss_graph::hash::FxHashSet;
use truss_graph::{CsrGraph, Edge};
use truss_storage::partition::PartitionStrategy;
use truss_storage::record::EdgeRec;
use truss_storage::{EdgeListFile, IoConfig, IoStats, IoTracker, Result, ScratchDir, StorageError};
use truss_triangle::external::{edge_list_from_graph_windowed, PassConfig};

/// Configuration of TD-bottomup.
#[derive(Debug, Clone, Copy)]
pub struct BottomUpConfig {
    /// Memory budget and block size (`M`, `B`).
    pub io: IoConfig,
    /// Partitioner used by LowerBounding and the pair-sweep.
    pub strategy: PartitionStrategy,
    /// Bytes charged per candidate edge held in memory (records + local CSR
    /// + peeling arrays).
    pub bytes_per_edge: usize,
    /// Cap on pair-sweep fixpoint rounds per k (safety net).
    pub max_sweeps: usize,
}

impl BottomUpConfig {
    /// Defaults: random partitioning, 64 bytes/edge in-memory charge.
    pub fn new(io: IoConfig) -> Self {
        BottomUpConfig {
            io,
            strategy: PartitionStrategy::Random { seed: 0xb0_77 },
            bytes_per_edge: 64,
            max_sweeps: 10_000,
        }
    }
}

/// The smallest memory budget under which the external algorithms can run
/// on `g`: the pair-sweep partitions at half budget and a single vertex's
/// neighborhood must fit in a part — the same constraint the paper's
/// partitioners impose ("each NS(P_i) fits in memory" requires every
/// NS({v}) to fit). `bytes_per_edge` is the in-memory charge (64 by
/// default).
pub fn minimum_budget(g: &CsrGraph, bytes_per_edge: usize) -> usize {
    (g.max_degree() * bytes_per_edge * 2 + 4096).next_power_of_two()
}

/// What TD-bottomup did, for the experiment reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct BottomUpReport {
    /// All disk traffic (blocks per the I/O model).
    pub io: IoStats,
    /// Iterations of the LowerBounding stage.
    pub lower_bound_iterations: usize,
    /// Σ sup(e) over the input (= 3 × triangles), from LowerBounding's
    /// exact supports.
    pub support_sum: u64,
    /// Number of k-rounds executed.
    pub rounds: usize,
    /// Rounds whose candidate subgraph did not fit in memory (Procedure 9).
    pub oversized_rounds: usize,
    /// Σ candidate edges across rounds (the pruning effectiveness measure).
    pub candidate_edges_total: u64,
    /// Largest k with a non-empty class.
    pub k_max: u32,
}

/// Runs TD-bottomup on a graph, spilling it to scratch disk first (the
/// algorithm never touches the in-memory `g` afterwards except to translate
/// the result back to edge ids).
pub fn bottom_up_decompose(
    g: &CsrGraph,
    cfg: &BottomUpConfig,
) -> Result<(TrussDecomposition, BottomUpReport)> {
    let scratch = ScratchDir::new()?;
    bottom_up_decompose_in(g, cfg, &scratch)
}

/// [`bottom_up_decompose`] with caller-provided scratch space (the engine
/// layer routes its configured scratch directory here).
pub fn bottom_up_decompose_in(
    g: &CsrGraph,
    cfg: &BottomUpConfig,
    scratch: &ScratchDir,
) -> Result<(TrussDecomposition, BottomUpReport)> {
    let tracker = IoTracker::new();
    let input = edge_list_from_graph_windowed(
        g,
        scratch.file("input"),
        tracker.clone(),
        (cfg.io.memory_budget / 4).max(1 << 16),
    )?;

    let mut pass_cfg = PassConfig::new(cfg.io);
    pass_cfg.strategy = cfg.strategy;
    let lb = lower_bounding(&input, g.num_vertices(), scratch, &tracker, &pass_cfg, true)?;

    let mut report = BottomUpReport {
        lower_bound_iterations: lb.iterations,
        support_sum: lb.support_sum,
        ..Default::default()
    };

    let mut trussness = vec![0u32; g.num_edges()];
    let record = |edge: Edge, k: u32, trussness: &mut Vec<u32>| -> Result<()> {
        let id = g
            .edge_id(edge.u, edge.v)
            .ok_or_else(|| StorageError::Corrupt(format!("unknown edge {edge:?}")))?;
        trussness[id as usize] = k;
        Ok(())
    };

    let LowerBoundOutput {
        phi2, mut g_new, ..
    } = lb;
    let mut err: Option<StorageError> = None;
    phi2.scan(|rec| {
        if err.is_none() {
            if let Err(e) = record(rec.edge, 2, &mut trussness) {
                err = Some(e);
            }
        }
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    phi2.delete()?;

    let edge_budget = (cfg.io.memory_budget / cfg.bytes_per_edge).max(4) as u64;
    // Half budget so a pair of parts fits in memory.
    let part_edges = (cfg.io.memory_budget / cfg.bytes_per_edge).max(8) / 2;
    let n = g.num_vertices();
    let mut k = 3u32;

    while !g_new.is_empty() {
        report.rounds += 1;

        // Skip straight to the smallest bound still present (empty classes
        // below it are provably empty since φ(e) ≤ ϕ(e)).
        let mut min_bound = u32::MAX;
        g_new.scan(|rec| min_bound = min_bound.min(rec.bound))?;
        k = k.max(min_bound);

        // Step 3: U_k = endpoints of edges with φ(e) ≤ k.
        let mut in_uk = vec![false; n];
        g_new.scan(|rec| {
            if rec.bound <= k {
                in_uk[rec.edge.u as usize] = true;
                in_uk[rec.edge.v as usize] = true;
            }
        })?;

        // Steps 4–5: size the candidate H = NS(U_k).
        let mut candidate_edges = 0u64;
        g_new.scan(|rec| {
            if in_uk[rec.edge.u as usize] || in_uk[rec.edge.v as usize] {
                candidate_edges += 1;
            }
        })?;
        report.candidate_edges_total += candidate_edges;

        // Procedures 5 and 9: peel internal edges with sup ≤ k − 2 (every
        // triangle of H counts); the peeled edges are Φ_k.
        let peel_low =
            |recs: &[EdgeRec], internal: &[bool]| sweep::peel(recs, |_| true, internal, k - 1);
        let phi_k: Vec<Edge> = if candidate_edges <= edge_budget {
            // Procedure 5 (H fits in memory).
            let mut cands: Vec<EdgeRec> = Vec::with_capacity(candidate_edges as usize);
            g_new.scan(|rec| {
                if in_uk[rec.edge.u as usize] || in_uk[rec.edge.v as usize] {
                    cands.push(rec);
                }
            })?;
            let internal: Vec<bool> = cands
                .iter()
                .map(|r| in_uk[r.edge.u as usize] && in_uk[r.edge.v as usize])
                .collect();
            let alive = peel_low(&cands, &internal);
            cands
                .iter()
                .zip(alive)
                .filter(|(_, a)| !a)
                .map(|(r, _)| r.edge)
                .collect()
        } else {
            // Procedure 9 (H exceeds memory): pair-sweep, a new random
            // partition per sweep.
            report.oversized_rounds += 1;
            let strategy = |sweep: usize| match cfg.strategy {
                PartitionStrategy::Sequential => PartitionStrategy::Sequential,
                PartitionStrategy::Random { seed } | PartitionStrategy::Seeded { seed } => {
                    PartitionStrategy::Random {
                        seed: seed.wrapping_add(sweep as u64),
                    }
                }
            };
            let peeled = sweep::pair_sweep(
                &g_new,
                &in_uk,
                part_edges,
                cfg.max_sweeps,
                strategy,
                peel_low,
                scratch,
                &tracker,
            )?;
            peeled.into_iter().map(Edge::from_key).collect()
        };

        if !phi_k.is_empty() {
            report.k_max = k;
            let mut keys: FxHashSet<u64> = FxHashSet::default();
            for e in &phi_k {
                record(*e, k, &mut trussness)?;
                keys.insert(e.key());
            }
            // Step 6 (end): remove Φ_k from G_new.
            let mut next = EdgeListFile::create(scratch.file("gnew"), tracker.clone())?;
            let mut err: Option<StorageError> = None;
            g_new.scan(|rec| {
                if err.is_none() && !keys.contains(&rec.edge.key()) {
                    if let Err(e) = next.push(rec) {
                        err = Some(e);
                    }
                }
            })?;
            if let Some(e) = err {
                return Err(e);
            }
            g_new.delete()?;
            g_new = next.finish()?;
        }
        k += 1;
    }

    debug_assert!(trussness.iter().all(|&t| t >= 2));
    report.io = tracker.stats(&cfg.io);
    Ok((TrussDecomposition::from_trussness(trussness), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::truss_decompose_naive;
    use truss_graph::generators::classic::complete;
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_graph::generators::figures::{figure2_classes, figure2_graph};
    use truss_graph::generators::planted::planted_clique;

    fn run(g: &CsrGraph, budget: usize) -> (TrussDecomposition, BottomUpReport) {
        let cfg = BottomUpConfig::new(IoConfig {
            memory_budget: budget,
            block_size: (budget / 4).max(64),
        });
        bottom_up_decompose(g, &cfg).unwrap()
    }

    #[test]
    fn figure2_golden() {
        let g = figure2_graph();
        let (d, report) = run(&g, 1 << 20);
        assert_eq!(d.classes_as_edges(&g), figure2_classes());
        assert_eq!(report.k_max, 5);
        assert!(report.rounds >= 3);
        assert_eq!(report.support_sum, 57); // 19 triangles
    }

    #[test]
    fn matches_in_memory_on_random_graphs() {
        for seed in 0..4 {
            let g = gnm(60, 420, seed);
            let exact = truss_decompose_naive(&g);
            let (d, _) = run(&g, 1 << 20);
            assert_eq!(d.trussness(), exact.trussness(), "seed {seed}");
        }
    }

    #[test]
    fn matches_with_tiny_budget() {
        let mut graphs: Vec<(String, CsrGraph)> = [1u64, 9, 17, 23, 42]
            .into_iter()
            .map(|seed| (format!("gnm seed {seed}"), gnm(50, 320, seed)))
            .collect();
        graphs.push((
            "planted K_12".into(),
            planted_clique(&gnm(150, 220, 3), 12, 7),
        ));
        for (name, g) in &graphs {
            let exact = truss_decompose_naive(g);
            // ~64 edges of in-memory candidate budget → Procedure 9 rounds.
            let (d, report) = run(g, 64 * 64);
            assert_eq!(d.trussness(), exact.trussness(), "{name}");
            assert!(
                report.oversized_rounds > 0,
                "{name}: expected Procedure 9 rounds"
            );
        }
    }

    #[test]
    fn clique_bottom_up() {
        let g = complete(12);
        let (d, report) = run(&g, 1 << 20);
        assert_eq!(d.k_max(), 12);
        assert_eq!(report.k_max, 12);
        assert_eq!(d.class(12).len(), 66);
    }

    #[test]
    fn reports_io() {
        let g = gnm(40, 200, 3);
        let (_, report) = run(&g, 1 << 16);
        assert!(report.io.bytes_read > 0);
        assert!(report.io.scans > 3);
    }
}
