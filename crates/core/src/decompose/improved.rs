//! Algorithm 2 — the paper's improved in-memory truss decomposition
//! (*TD-inmem+*).
//!
//! Two changes over Algorithm 1 give the `O(m^1.5)` bound (Theorem 1):
//!
//! 1. edges live in a bin-sorted array ([`super::bucket::SupportBuckets`])
//!    so the minimum-support edge and every support decrement are O(1);
//! 2. when edge `(u, v)` is removed, triangles are found by walking the
//!    neighbor list of the **lower-degree** endpoint and testing `(v, w) ∈ E`
//!    (Steps 6–8) — `O(min(deg u, deg v))` per removal instead of
//!    `O(deg u + deg v)`.
//!
//! Two arms implement it ([`EdgeIndexKind`]). The default `Oriented` arm
//! is the frontier kernel of [`crate::parallel::peel`] on a width-1 pool:
//! it peels all edges at or below the current level in frontier order
//! (the PKT schedule, which Kabir & Madduri show is work-efficient at one
//! thread), walks a live adjacency that drops dead entries as it meets
//! them, tests membership with a binary probe of the flat oriented
//! [`truss_triangle::ForwardAdjacency`] that support init already built,
//! and skips the walk of the final frontier, whose decrements no
//! surviving edge could read. The `Hash` arm is Algorithm 2 as written —
//! one edge popped at a time, the static neighbor list walked with
//! `alive[]` skips, membership in a global hash table — and is the
//! independent reference the kernel is tested against. See
//! `docs/ALGORITHMS.md` ("hot-path engineering") for the cost model.

use super::bucket::SupportBuckets;
use super::{DecomposeStats, TrussDecomposition};
use crate::parallel::parallel_truss_decompose_with;
use crate::pool::ThreadPool;
use std::time::Instant;
use truss_graph::hash::FxHashMap;
use truss_graph::{CsrGraph, EdgeId, VertexId};
use truss_triangle::count::edge_supports;

/// How the peel finds the triangles a removed edge closes (Steps 6–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeIndexKind {
    /// The frontier kernel at width 1: live-adjacency walk, binary probe
    /// of the flat oriented adjacency — the default hot path (no hash
    /// map, no dead-edge rescans).
    #[default]
    Oriented,
    /// Hash table keyed by the packed edge pair — the paper's choice
    /// (expected O(1) per probe), walking the static adjacency with
    /// `alive[]` skips.
    Hash,
}

/// Tuning knobs for [`truss_decompose_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ImprovedConfig {
    /// Which arm runs (default oriented).
    pub edge_index: EdgeIndexKind,
}

/// Algorithm 2 (*TD-inmem+*) with default configuration.
pub fn truss_decompose(g: &CsrGraph) -> TrussDecomposition {
    truss_decompose_with(g, ImprovedConfig::default()).0
}

/// Algorithm 2 with explicit configuration. Returns the decomposition and
/// the run's [`DecomposeStats`] (peak tracked heap — Table 3's memory
/// column — the support-init vs peel phase split, and the support sum).
pub fn truss_decompose_with(
    g: &CsrGraph,
    config: ImprovedConfig,
) -> (TrussDecomposition, DecomposeStats) {
    match config.edge_index {
        EdgeIndexKind::Oriented => {
            let (d, stats, _) = parallel_truss_decompose_with(g, &ThreadPool::new(1));
            (d, stats)
        }
        EdgeIndexKind::Hash => decompose_hash(g),
    }
}

/// The `Hash` arm: the paper's Step 6–8 structure — walk the
/// lower-static-degree endpoint's full CSR neighbor list with `alive[]`
/// skips, membership via the global edge hash table.
fn decompose_hash(g: &CsrGraph) -> (TrussDecomposition, DecomposeStats) {
    let m = g.num_edges();
    // Step 2: supports via O(m^1.5) triangle counting [27, 20].
    let triangle_start = Instant::now();
    let sup = edge_supports(g);
    let support_sum = sup.iter().map(|&s| u64::from(s)).sum();
    let triangle_time = triangle_start.elapsed();

    let peel_start = Instant::now();
    // Step 3: bin sort.
    let mut buckets = SupportBuckets::new(sup);
    let mut alive = vec![true; m];
    let mut trussness = vec![2u32; m];

    // Step 8's hash table over E_G (packed key -> edge id).
    let index: FxHashMap<u64, EdgeId> = g.iter_edges().map(|(id, e)| (e.key(), id)).collect();

    let peak_bytes = g.heap_bytes()
        + buckets.heap_bytes()
        + m // alive
        + m * 4 // trussness
        + index.capacity() * 16;

    let mut k = 2u32;
    // Steps 4–12: repeatedly remove the lowest-support edge. Tracking
    // `k = max(k, sup + 2)` assigns each removed edge its class directly:
    // while sup(e) ≤ k − 2 the edge belongs to Φ_k.
    while let Some((e, s)) = buckets.pop_min() {
        k = k.max(s + 2);
        alive[e as usize] = false;
        trussness[e as usize] = k;

        let edge = g.edge(e);
        // Step 6: walk the lower-degree endpoint.
        let (a, b) = if g.degree(edge.u) <= g.degree(edge.v) {
            (edge.u, edge.v)
        } else {
            (edge.v, edge.u)
        };
        let nbrs = g.neighbors(a);
        let eids = g.neighbor_edge_ids(a);
        for (&w, &e_aw) in nbrs.iter().zip(eids) {
            if !alive[e_aw as usize] || w == b {
                continue;
            }
            // Step 8: (b, w) ∈ E_G?
            let Some(&e_bw) = index.get(&truss_graph::Edge::new(b, w).key()) else {
                continue;
            };
            if !alive[e_bw as usize] {
                continue;
            }
            // Steps 9–10: the triangle {e, e_aw, e_bw} dies with e.
            buckets.decrement(e_aw);
            buckets.decrement(e_bw);
        }
    }

    (
        TrussDecomposition::from_trussness(trussness),
        DecomposeStats {
            peak_bytes,
            triangle_time,
            peel_time: peel_start.elapsed(),
            support_sum,
        },
    )
}

/// Iterates the common neighbors `w` of `u` and `v`, yielding
/// `(w, edge id (u,w), edge id (v,w))` by merging the two sorted neighbor
/// lists. Shared by Algorithm 1 and the verification utilities.
pub fn merge_common_neighbors<F>(g: &CsrGraph, u: VertexId, v: VertexId, mut f: F)
where
    F: FnMut(VertexId, EdgeId, EdgeId),
{
    let (an, ae) = (g.neighbors(u), g.neighbor_edge_ids(u));
    let (bn, be) = (g.neighbors(v), g.neighbor_edge_ids(v));
    let (mut i, mut j) = (0usize, 0usize);
    while i < an.len() && j < bn.len() {
        match an[i].cmp(&bn[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(an[i], ae[i], be[j]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::naive::truss_decompose_naive;
    use truss_graph::generators::classic::{complete, complete_bipartite, cycle, grid};
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_graph::generators::figures::{figure2_classes, figure2_graph};

    #[test]
    fn figure2_golden() {
        let g = figure2_graph();
        let d = truss_decompose(&g);
        assert_eq!(d.k_max(), 5);
        assert_eq!(d.classes_as_edges(&g), figure2_classes());
    }

    #[test]
    fn clique_single_class() {
        for n in [3usize, 6, 10] {
            let g = complete(n);
            let d = truss_decompose(&g);
            assert_eq!(d.k_max(), n as u32);
            assert_eq!(d.class(n as u32).len(), g.num_edges());
        }
    }

    #[test]
    fn triangle_free_all_two() {
        for g in [cycle(10), complete_bipartite(5, 5), grid(4, 5)] {
            let d = truss_decompose(&g);
            assert_eq!(d.k_max(), 2, "{g:?}");
        }
    }

    #[test]
    fn both_arms_match_naive_on_random_graphs() {
        let graphs = (0..8).map(|seed| (seed, gnm(70, 500, seed)));
        for (seed, g) in graphs.chain([3u64, 17].map(|seed| (seed, gnm(90, 900, seed)))) {
            let reference = truss_decompose_naive(&g);
            for kind in [EdgeIndexKind::Oriented, EdgeIndexKind::Hash] {
                let (d, _) = truss_decompose_with(&g, ImprovedConfig { edge_index: kind });
                assert_eq!(
                    reference.trussness(),
                    d.trussness(),
                    "{kind:?} diverges, m = {}, seed {seed}",
                    g.num_edges()
                );
            }
        }
    }

    #[test]
    fn phase_stats_are_populated() {
        let g = gnm(80, 700, 5);
        let support_sum: u64 = edge_supports(&g).iter().map(|&s| u64::from(s)).sum();
        for kind in [EdgeIndexKind::Oriented, EdgeIndexKind::Hash] {
            let (_, stats) = truss_decompose_with(&g, ImprovedConfig { edge_index: kind });
            assert!(stats.peak_bytes > 0, "{kind:?}");
            // Phase timers are disjoint measured sections; both ran.
            assert!(stats.triangle_time.as_nanos() > 0, "{kind:?}");
            assert!(stats.peel_time.as_nanos() > 0, "{kind:?}");
            assert_eq!(stats.support_sum, support_sum, "{kind:?}");
        }
    }

    #[test]
    fn planted_clique_detected() {
        let base = gnm(300, 900, 2);
        let g = truss_graph::generators::planted::planted_clique(&base, 15, 4);
        let d = truss_decompose(&g);
        assert!(d.k_max() >= 15, "k_max = {}", d.k_max());
        // The 15-truss must contain at least the clique's edges.
        assert!(d.truss_edge_ids(15).len() >= 15 * 14 / 2);
    }

    #[test]
    fn empty_and_single_edge() {
        let d = truss_decompose(&CsrGraph::from_edges(vec![]));
        assert_eq!(d.k_max(), 2);
        let g = CsrGraph::from_edges(vec![truss_graph::Edge::new(0, 1)]);
        let d = truss_decompose(&g);
        assert_eq!(d.trussness(), &[2]);
    }
}
