//! In-memory truss decomposition and the shared result type.

pub mod bucket;
pub mod improved;
pub mod naive;

pub use improved::{truss_decompose, truss_decompose_with, EdgeIndexKind, ImprovedConfig};
pub use naive::truss_decompose_naive;

use std::time::Duration;
use truss_graph::section::SectionBuf;
use truss_graph::{CsrGraph, Edge, EdgeId};

/// Phase accounting of an in-memory decomposition run: the peak tracked
/// heap, the wall time split between the two hot phases — support
/// initialization (triangle counting) and the peel proper — and the
/// support sum that initialization counted. Surfaced as
/// [`crate::engine::EngineReport::triangle_time`] / `peel_time` /
/// `support_sum` so perf work can attribute wins to the right phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecomposeStats {
    /// Peak tracked heap usage in bytes (Table 3's memory column).
    pub peak_bytes: usize,
    /// Time spent computing initial supports (triangle enumeration).
    pub triangle_time: Duration,
    /// Time spent peeling (bucket pops, walks, decrements).
    pub peel_time: Duration,
    /// Σ sup(e) over the input's edges = 3 × its triangle count.
    pub support_sum: u64,
}

/// The result of a truss decomposition: the truss number `ϕ(e)` of every
/// edge (Definition 2/3).
///
/// Indexed by the [`EdgeId`]s of the graph the decomposition was computed
/// from. `ϕ(e) ≥ 2` always (the 2-truss is the graph itself); the `k`-class
/// `Φ_k` is the set of edges with `ϕ(e) = k`, and the `k`-truss edge set is
/// `∪_{j ≥ k} Φ_j`.
///
/// The trussness array is a [`SectionBuf`]: heap-owned when computed by
/// an engine, or a zero-copy view into a mapped `TRUSSIDX` v2 snapshot
/// when loaded from disk.
#[derive(Debug, Clone)]
pub struct TrussDecomposition {
    trussness: SectionBuf<u32>,
    k_max: u32,
}

impl PartialEq for TrussDecomposition {
    fn eq(&self, other: &Self) -> bool {
        self.k_max == other.k_max && self.trussness() == other.trussness()
    }
}

impl Eq for TrussDecomposition {}

impl TrussDecomposition {
    /// Wraps a per-edge trussness vector.
    ///
    /// # Panics
    ///
    /// Panics if any trussness is below 2 (every edge is in the 2-truss).
    pub fn from_trussness(trussness: Vec<u32>) -> Self {
        assert!(
            trussness.iter().all(|&t| t >= 2),
            "trussness below 2 is impossible"
        );
        let k_max = trussness.iter().copied().max().unwrap_or(2);
        TrussDecomposition {
            trussness: trussness.into(),
            k_max,
        }
    }

    /// Wraps an already-validated trussness section with a known `k_max`
    /// — the O(1) path for checksum-verified snapshot loads, which must
    /// not pay an O(m) validation scan. Callers guarantee every entry is
    /// ≥ 2 and `k_max` is the true maximum (the snapshot layer's
    /// checksum plus the writer's invariants do).
    pub(crate) fn from_section_trusted(trussness: SectionBuf<u32>, k_max: u32) -> Self {
        debug_assert!(trussness.iter().all(|&t| t >= 2 && t <= k_max));
        TrussDecomposition { trussness, k_max }
    }

    /// The trussness section.
    pub(crate) fn into_section(self) -> SectionBuf<u32> {
        self.trussness
    }

    /// Truss number of edge `e`.
    #[inline]
    pub fn edge_trussness(&self, e: EdgeId) -> u32 {
        self.trussness[e as usize]
    }

    /// The full trussness array (indexed by edge id).
    pub fn trussness(&self) -> &[u32] {
        &self.trussness
    }

    /// The largest `k` with a non-empty `k`-truss (`2` for an empty or
    /// triangle-free graph).
    pub fn k_max(&self) -> u32 {
        self.k_max
    }

    /// Edge ids of the `k`-class `Φ_k = {e : ϕ(e) = k}`.
    pub fn class(&self, k: u32) -> Vec<EdgeId> {
        self.trussness
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t == k)
            .map(|(i, _)| i as EdgeId)
            .collect()
    }

    /// Edge ids of the `k`-truss `E_{T_k} = {e : ϕ(e) ≥ k}`.
    pub fn truss_edge_ids(&self, k: u32) -> Vec<EdgeId> {
        self.trussness
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t >= k)
            .map(|(i, _)| i as EdgeId)
            .collect()
    }

    /// `(k, |Φ_k|)` for every non-empty class, ascending in `k`.
    pub fn class_sizes(&self) -> Vec<(u32, usize)> {
        let mut sizes = std::collections::BTreeMap::new();
        for &t in self.trussness.as_slice() {
            *sizes.entry(t).or_insert(0usize) += 1;
        }
        sizes.into_iter().collect()
    }

    /// The classes as canonical edge lists of a graph, for golden-test
    /// comparison: `(k, sorted edges of Φ_k)`.
    pub fn classes_as_edges(&self, g: &CsrGraph) -> Vec<(u32, Vec<Edge>)> {
        let mut map: std::collections::BTreeMap<u32, Vec<Edge>> = Default::default();
        for (i, &t) in self.trussness.iter().enumerate() {
            map.entry(t).or_default().push(g.edge(i as EdgeId));
        }
        map.into_iter()
            .map(|(k, mut es)| {
                es.sort_unstable();
                (k, es)
            })
            .collect()
    }

    /// Number of edges decomposed.
    pub fn num_edges(&self) -> usize {
        self.trussness.len()
    }

    /// Approximate heap footprint (for memory-usage reporting); zero for
    /// decompositions served out of a mapped snapshot.
    pub fn heap_bytes(&self) -> usize {
        self.trussness.heap_bytes() + self.trussness.backing_heap_bytes()
    }

    /// Bytes served out of a memory-mapped snapshot (zero for computed
    /// decompositions).
    pub fn mapped_bytes(&self) -> usize {
        self.trussness.mapped_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_and_kmax() {
        let d = TrussDecomposition::from_trussness(vec![2, 3, 3, 5]);
        assert_eq!(d.k_max(), 5);
        assert_eq!(d.class(3), vec![1, 2]);
        assert_eq!(d.class(4), Vec::<EdgeId>::new());
        assert_eq!(d.truss_edge_ids(3), vec![1, 2, 3]);
        assert_eq!(d.class_sizes(), vec![(2, 1), (3, 2), (5, 1)]);
    }

    #[test]
    fn empty() {
        let d = TrussDecomposition::from_trussness(vec![]);
        assert_eq!(d.k_max(), 2);
        assert_eq!(d.num_edges(), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_sub_two() {
        let _ = TrussDecomposition::from_trussness(vec![1]);
    }
}
