//! Algorithm 1 — Cohen's original in-memory truss decomposition
//! (*TD-inmem*).
//!
//! For each `k` starting from 3, repeatedly remove an edge `(u, v)` with
//! `sup(e) < k − 2`, recomputing the affected triangle set by intersecting
//! `nb(u) ∩ nb(v)` at removal time (Steps 5–7). The intersection costs
//! `O(deg(u) + deg(v))` per removal — `O(Σ_v deg(v)²)` total — which is the
//! bottleneck Algorithm 2 eliminates. Kept as the Table 3 baseline.

use super::{DecomposeStats, TrussDecomposition};
use crate::decompose::improved::merge_common_neighbors;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;
use truss_graph::CsrGraph;
use truss_triangle::count::edge_supports_by_intersection;

/// Runs Algorithm 1 and reports the run's [`DecomposeStats`] (peak tracked
/// heap, support-init vs peel phase split) alongside the decomposition.
pub fn truss_decompose_naive_with_memory(g: &CsrGraph) -> (TrussDecomposition, DecomposeStats) {
    let m = g.num_edges();
    // Steps 2–3: initialize supports by neighborhood intersection.
    let triangle_start = Instant::now();
    let mut sup = edge_supports_by_intersection(g);
    let support_sum = sup.iter().map(|&s| u64::from(s)).sum();
    let triangle_time = triangle_start.elapsed();
    let peel_start = Instant::now();
    let mut alive = vec![true; m];
    let mut trussness = vec![2u32; m];

    // The paper's "queue" of candidate edges (§3.1): a priority queue keyed
    // by support, with lazy revalidation of stale entries.
    let mut queue: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::with_capacity(m);
    for (e, &s) in sup.iter().enumerate() {
        queue.push(Reverse((s, e as u32)));
    }

    let peak = g.heap_bytes() + m * (4 + 1 + 4) + queue.len() * 8;

    let mut removed = 0usize;
    let mut k = 3u32;
    while removed < m {
        // Step 4: next edge with minimal support (skip stale entries).
        let (s, e) = loop {
            let Reverse((s, e)) = *queue.peek().expect("edges remain");
            if !alive[e as usize] || sup[e as usize] != s {
                queue.pop();
                continue;
            }
            break (s, e);
        };
        if s >= k - 2 {
            // No edge has support < k − 2 left: G is now the k-truss; move
            // on to the next k (Steps 9–12).
            k += 1;
            continue;
        }
        queue.pop();
        alive[e as usize] = false;
        removed += 1;
        // Edge removed while peeling toward the k-truss: it was in the
        // (k−1)-truss but not the k-truss.
        trussness[e as usize] = k - 1;

        // Steps 5–7: W ← nb(u) ∩ nb(v); decrement the two partner edges of
        // every still-valid triangle.
        let edge = g.edge(e);
        merge_common_neighbors(g, edge.u, edge.v, |_, e_uw, e_vw| {
            if alive[e_uw as usize] && alive[e_vw as usize] {
                for other in [e_uw, e_vw] {
                    sup[other as usize] -= 1;
                    queue.push(Reverse((sup[other as usize], other)));
                }
            }
        });
    }

    (
        TrussDecomposition::from_trussness(trussness),
        DecomposeStats {
            peak_bytes: peak,
            triangle_time,
            peel_time: peel_start.elapsed(),
            support_sum,
        },
    )
}

/// Algorithm 1 (*TD-inmem*): Cohen's original in-memory truss decomposition.
pub fn truss_decompose_naive(g: &CsrGraph) -> TrussDecomposition {
    truss_decompose_naive_with_memory(g).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use truss_graph::generators::classic::{complete, cycle, star};
    use truss_graph::generators::figures::{figure2_classes, figure2_graph};

    #[test]
    fn clique_is_single_class() {
        for n in [3usize, 5, 8] {
            let g = complete(n);
            let d = truss_decompose_naive(&g);
            assert_eq!(d.k_max(), n as u32);
            assert_eq!(d.class(n as u32).len(), g.num_edges());
        }
    }

    #[test]
    fn triangle_free_is_all_two() {
        for g in [cycle(8), star(6)] {
            let d = truss_decompose_naive(&g);
            assert_eq!(d.k_max(), 2);
            assert!(d.trussness().iter().all(|&t| t == 2));
        }
    }

    #[test]
    fn figure2_golden() {
        let g = figure2_graph();
        let d = truss_decompose_naive(&g);
        assert_eq!(d.classes_as_edges(&g), figure2_classes());
    }

    #[test]
    fn two_cliques_sharing_an_edge() {
        // K4 {0,1,2,3} and K5 {3,4,5,6,7} sharing vertex 3 only.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push(truss_graph::Edge::new(u, v));
            }
        }
        for u in 3..8u32 {
            for v in (u + 1)..8 {
                edges.push(truss_graph::Edge::new(u, v));
            }
        }
        let g = CsrGraph::from_edges(edges);
        let d = truss_decompose_naive(&g);
        assert_eq!(d.k_max(), 5);
        assert_eq!(d.class(5).len(), 10);
        assert_eq!(d.class(4).len(), 6);
    }
}
