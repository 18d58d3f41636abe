//! k-truss extraction and definition-level verification.
//!
//! These utilities are deliberately *independent* of the decomposition
//! algorithms: [`peel_to_k_truss`] recomputes a k-truss from scratch by its
//! definition, so the test suite can check every algorithm against the
//! definition rather than against a sibling implementation.

use crate::decompose::TrussDecomposition;
use truss_graph::subgraph::from_parent_edges;
use truss_graph::{CsrGraph, Edge, EdgeId};
use truss_triangle::count::edge_supports;

/// Edges of the `k`-truss according to a decomposition.
pub fn truss_subgraph_edges(g: &CsrGraph, d: &TrussDecomposition, k: u32) -> Vec<Edge> {
    let mut edges: Vec<Edge> = d
        .truss_edge_ids(k)
        .into_iter()
        .map(|id| g.edge(id))
        .collect();
    edges.sort_unstable();
    edges
}

/// The `k`-truss as its own compact graph (for metrics like Table 6's
/// clustering coefficients).
pub fn truss_subgraph(g: &CsrGraph, d: &TrussDecomposition, k: u32) -> CsrGraph {
    from_parent_edges(truss_subgraph_edges(g, d, k)).graph
}

/// Checks Definition 2 directly: every edge of `edges` lies in at least
/// `k − 2` triangles *within* the subgraph they form.
pub fn is_k_truss(edges: &[Edge], k: u32) -> bool {
    if edges.is_empty() {
        return true;
    }
    let sub = from_parent_edges(edges.iter().copied());
    let sup = edge_supports(&sub.graph);
    sup.iter().all(|&s| s + 2 >= k)
}

/// Peeling state over `g`: which edges survive, and each survivor's
/// support within the survivors.
struct Peel<'g> {
    g: &'g CsrGraph,
    sup: Vec<u32>,
    alive: Vec<bool>,
}

impl<'g> Peel<'g> {
    fn new(g: &'g CsrGraph) -> Self {
        Peel {
            g,
            sup: edge_supports(g),
            alive: vec![true; g.num_edges()],
        }
    }

    /// Peels the survivors down to their `k`-truss: repeatedly deletes
    /// any survivor with fewer than `k − 2` surviving triangles. Starting
    /// from any superset of the `k`-truss (the whole graph, or the
    /// `(k−1)`-truss) the fixpoint is the `k`-truss itself.
    fn peel_to(&mut self, k: u32) {
        let need = k.saturating_sub(2);
        let (g, sup, alive) = (self.g, &mut self.sup, &mut self.alive);
        let mut stack: Vec<EdgeId> = (0..g.num_edges() as EdgeId)
            .filter(|&e| alive[e as usize] && sup[e as usize] < need)
            .collect();
        // An edge is pushed once: up front, or when its support first
        // drops below `need` (dead edges are never decremented).
        while let Some(e) = stack.pop() {
            alive[e as usize] = false;
            let edge = g.edge(e);
            crate::decompose::improved::merge_common_neighbors(g, edge.u, edge.v, |_, a, b| {
                if alive[a as usize] && alive[b as usize] {
                    for other in [a, b] {
                        sup[other as usize] -= 1;
                        if sup[other as usize] + 1 == need {
                            stack.push(other);
                        }
                    }
                }
            });
        }
    }
}

/// Computes the (maximal) `k`-truss of `g` by direct peeling: repeatedly
/// delete any edge with fewer than `k − 2` surviving triangles. Returns the
/// surviving edge ids. The fixpoint of this deletion is the unique largest
/// subgraph satisfying the definition.
pub fn peel_to_k_truss(g: &CsrGraph, k: u32) -> Vec<EdgeId> {
    let mut peel = Peel::new(g);
    peel.peel_to(k);
    (0..g.num_edges() as EdgeId)
        .filter(|&e| peel.alive[e as usize])
        .collect()
}

/// Verifies a decomposition against the definition for every `k` from 2
/// to `k_max + 1`: `{e : ϕ(e) ≥ k}` must equal the `k`-truss found by
/// peeling, and the `(k_max + 1)`-truss must be empty. The peel is done
/// once, level by level — `T_{k+1}` is the peel of `T_k` at `k + 1` — so
/// the check costs one peel, not one per level. Returns a description of
/// the first violation.
pub fn verify_decomposition(g: &CsrGraph, d: &TrussDecomposition) -> Result<(), String> {
    if d.num_edges() != g.num_edges() {
        return Err(format!(
            "decomposition covers {} edges, graph has {}",
            d.num_edges(),
            g.num_edges()
        ));
    }
    let t = d.trussness();
    let mut peel = Peel::new(g);
    for k in 2..=d.k_max() + 1 {
        peel.peel_to(k);
        if t.iter()
            .zip(&peel.alive)
            .any(|(&t, &alive)| alive != (t >= k))
        {
            return Err(format!(
                "{k}-truss mismatch: decomposition claims {} edges, peeling gives {}",
                t.iter().filter(|&&t| t >= k).count(),
                peel.alive.iter().filter(|&&alive| alive).count()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::truss_decompose;
    use truss_graph::generators::classic::complete;
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_graph::generators::figures::figure2_graph;

    #[test]
    fn peeling_matches_decomposition_on_figure2() {
        let g = figure2_graph();
        let d = truss_decompose(&g);
        verify_decomposition(&g, &d).unwrap();
    }

    #[test]
    fn peeling_matches_on_random() {
        for seed in 0..6 {
            let g = gnm(60, 450, seed);
            let d = truss_decompose(&g);
            verify_decomposition(&g, &d).expect("random graph");
        }
    }

    #[test]
    fn one_edge_off_by_one_is_a_truss_mismatch() {
        // ±1 on one edge at the lowest and at the highest level: every
        // one must be caught, whether it moves the edge into a level,
        // out of it, or past k_max.
        for g in [figure2_graph(), gnm(60, 450, 2)] {
            let t = truss_decompose(&g).trussness().to_vec();
            let lowest_above_2 = t.iter().copied().filter(|&x| x > 2).min().unwrap();
            let k_max = *t.iter().max().unwrap();
            for (level, step) in [(2, 1), (lowest_above_2, -1), (k_max, 1), (k_max, -1)] {
                let id = t.iter().position(|&x| x == level).unwrap();
                let mut bad = t.clone();
                bad[id] = (level as i64 + step) as u32;
                let err = verify_decomposition(&g, &TrussDecomposition::from_trussness(bad))
                    .expect_err("a mutated decomposition must fail");
                assert!(err.contains("-truss mismatch"), "{level}{step:+}: {err}");
            }
        }
    }

    #[test]
    fn is_k_truss_definition() {
        let g = complete(5);
        let edges: Vec<Edge> = g.iter_edges().map(|(_, e)| e).collect();
        assert!(is_k_truss(&edges, 5));
        assert!(!is_k_truss(&edges, 6));
        assert!(is_k_truss(&[], 100));
    }

    #[test]
    fn truss_subgraph_extraction() {
        let g = figure2_graph();
        let d = truss_decompose(&g);
        let t5 = truss_subgraph(&g, &d, 5);
        assert_eq!(t5.num_edges(), 10);
        assert_eq!(t5.num_vertices(), 5); // the K5 on {a..e}
        let t4 = truss_subgraph(&g, &d, 4);
        assert_eq!(t4.num_edges(), 16);
    }

    #[test]
    fn peel_empty_for_large_k() {
        let g = figure2_graph();
        assert!(peel_to_k_truss(&g, 6).is_empty());
        assert_eq!(peel_to_k_truss(&g, 2).len(), 26);
    }
}
