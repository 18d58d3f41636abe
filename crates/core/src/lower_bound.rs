//! Algorithm 3 — *LowerBounding*: stage 1 of the bottom-up approach.
//!
//! Iteratively partitions the (shrinking) disk graph into neighborhood
//! subgraphs that fit in memory. In each materialized part `H = NS(P_i)`
//! the local truss number `ϕ(e, H)` is computed with Algorithm 2 and raises
//! the global lower bound `φ(e) = max(φ(e), ϕ(e, H))` (valid by Lemma 1:
//! `H ⊆ G`). The 2-class `Φ_2 = {e : sup(e, G) = 0}` is split off, and the
//! remaining edges are written to `G_new` with their bounds and **exact**
//! supports.
//!
//! Exact supports come from the accumulating triangle count of the
//! partitioned pass (`truss_triangle::external`), not from re-counting in
//! the shrunk graph — the literal Step 8 of the paper's Algorithm 3 would
//! misclassify edges whose triangles were dismantled in earlier iterations
//! (see `DESIGN.md` §5.1).

use truss_graph::subgraph::NeighborhoodSubgraph;
use truss_storage::record::EdgeRec;
use truss_storage::{EdgeListFile, IoTracker, Result, ScratchDir};
use truss_triangle::external::{partitioned_support_pass, PartVisitor, PassConfig};

use crate::decompose::truss_decompose;

/// Output of LowerBounding.
pub struct LowerBoundOutput {
    /// The 2-class (edges in no triangle), sorted by edge key.
    pub phi2: EdgeListFile,
    /// All remaining edges, sorted by edge key; `sup` is the exact global
    /// support, `bound` the lower bound `φ(e) ≥ 3`.
    pub g_new: EdgeListFile,
    /// Σ sup(e) over every input edge (= 3 × triangles), summed from
    /// the exact supports.
    pub support_sum: u64,
    /// Partition iterations used.
    pub iterations: usize,
    /// Parts materialized across all iterations.
    pub parts: usize,
}

/// Visitor computing local truss numbers per part (Steps 6–7).
struct LocalTrussVisitor;

impl PartVisitor for LocalTrussVisitor {
    fn visit(&mut self, ns: &NeighborhoodSubgraph, recs: &mut [EdgeRec]) {
        let local = truss_decompose(&ns.sub.graph);
        for (i, rec) in recs.iter_mut().enumerate() {
            rec.bound = rec.bound.max(local.edge_trussness(i as u32));
        }
    }
}

/// Runs LowerBounding over a disk-resident graph (sorted edge file).
///
/// When `compute_phi` is false, the local decomposition is skipped and only
/// exact supports are produced — the variant Step 1 of Algorithm 7
/// (top-down) calls for.
pub fn lower_bounding(
    input: &EdgeListFile,
    num_vertices: usize,
    scratch: &ScratchDir,
    tracker: &IoTracker,
    cfg: &PassConfig,
    compute_phi: bool,
) -> Result<LowerBoundOutput> {
    let pass = if compute_phi {
        partitioned_support_pass(
            input,
            num_vertices,
            scratch,
            tracker,
            cfg,
            &mut LocalTrussVisitor,
        )?
    } else {
        truss_triangle::external::external_edge_supports(
            input,
            num_vertices,
            scratch,
            tracker,
            cfg,
        )?
    };

    // Split Φ2 from G_new in one scan (Steps 8–10).
    let mut phi2 = EdgeListFile::create(scratch.file("phi2"), tracker.clone())?;
    let mut g_new = EdgeListFile::create(scratch.file("gnew"), tracker.clone())?;
    let mut err: Option<truss_storage::StorageError> = None;
    let mut support_sum = 0u64;
    pass.finalized.scan(|mut rec| {
        if err.is_some() {
            return;
        }
        support_sum += u64::from(rec.sup);
        let res = if rec.sup == 0 {
            rec.bound = 2;
            phi2.push(rec)
        } else {
            // Every surviving edge lies in a triangle, so φ(e) ≥ 3 even when
            // the local decomposition never saw the triangle.
            rec.bound = rec.bound.max(3);
            g_new.push(rec)
        };
        if let Err(e) = res {
            err = Some(e);
        }
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    pass.finalized.delete()?;

    Ok(LowerBoundOutput {
        phi2: phi2.finish()?,
        g_new: g_new.finish()?,
        support_sum,
        iterations: pass.iterations,
        parts: pass.parts_processed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_graph::generators::figures::figure2_graph;
    use truss_graph::{CsrGraph, Edge};
    use truss_storage::IoConfig;
    use truss_triangle::external::edge_list_from_graph;

    fn run(g: &CsrGraph, budget: usize, compute_phi: bool) -> (Vec<EdgeRec>, Vec<EdgeRec>) {
        let scratch = ScratchDir::new().unwrap();
        let tracker = IoTracker::new();
        let input = edge_list_from_graph(g, scratch.file("g"), tracker.clone()).unwrap();
        let cfg = PassConfig::new(IoConfig {
            memory_budget: budget,
            block_size: (budget / 4).max(64),
        });
        let out = lower_bounding(
            &input,
            g.num_vertices(),
            &scratch,
            &tracker,
            &cfg,
            compute_phi,
        )
        .unwrap();
        (out.phi2.read_all().unwrap(), out.g_new.read_all().unwrap())
    }

    #[test]
    fn figure2_phi2_is_ik() {
        let g = figure2_graph();
        let (phi2, g_new) = run(&g, 1 << 20, true);
        assert_eq!(phi2.len(), 1);
        assert_eq!(phi2[0].edge, Edge::new(8, 10)); // (i, k)
        assert_eq!(g_new.len(), 25);
    }

    #[test]
    fn bounds_are_valid_lower_bounds() {
        for budget in [1usize << 20, 220 * 32] {
            let g = gnm(50, 350, 3);
            let exact = crate::decompose::truss_decompose_naive(&g);
            let (phi2, g_new) = run(&g, budget, true);
            for rec in &phi2 {
                let id = g.edge_id(rec.edge.u, rec.edge.v).unwrap();
                assert_eq!(exact.edge_trussness(id), 2);
            }
            for rec in &g_new {
                let id = g.edge_id(rec.edge.u, rec.edge.v).unwrap();
                let t = exact.edge_trussness(id);
                assert!(
                    rec.bound >= 3 && rec.bound <= t,
                    "edge {:?}: bound {} vs trussness {t}",
                    rec.edge,
                    rec.bound
                );
            }
        }
    }

    #[test]
    fn phi2_exact_even_with_tiny_budget() {
        // The regression the paper's literal Step 8 would hit: with many
        // iterations, supports must still be counted against the original
        // graph.
        let g = gnm(80, 600, 7);
        let exact = crate::decompose::truss_decompose_naive(&g);
        let (phi2, g_new) = run(&g, 150 * 32, true);
        let expected_phi2: usize = exact.trussness().iter().filter(|&&t| t == 2).count();
        assert_eq!(phi2.len(), expected_phi2);
        assert_eq!(phi2.len() + g_new.len(), g.num_edges());
    }

    #[test]
    fn support_only_variant() {
        let g = figure2_graph();
        let (phi2, g_new) = run(&g, 1 << 20, false);
        assert_eq!(phi2.len(), 1);
        // Supports exact, bounds defaulted to 3.
        let sup = truss_triangle::count::edge_supports(&g);
        for rec in &g_new {
            let id = g.edge_id(rec.edge.u, rec.edge.v).unwrap();
            assert_eq!(rec.sup, sup[id as usize]);
            assert_eq!(rec.bound, 3);
        }
    }
}
