//! Compressed sparse row (CSR) representation of an undirected simple graph.

use crate::edge::Edge;
use crate::section::SectionBuf;
use crate::types::{EdgeId, VertexId};

/// An immutable undirected simple graph in CSR form.
///
/// This is the adjacency-list representation the paper assumes (§2): vertices
/// are dense ids `0..n`, each vertex's neighbor list is sorted ascending, and
/// every *undirected* edge has a dense id `0..m` assigned in lexicographic
/// order of its canonical `(min, max)` pair. Each half-edge stores the id of
/// its undirected edge so per-edge state (support, truss number, …) can be
/// reached from either direction in O(1).
///
/// Construction normalizes input through [`crate::GraphBuilder`] or
/// [`CsrGraph::from_edges`]; the structure itself is immutable — the peeling
/// algorithms mark logical deletions in their own side arrays, which the
/// paper notes is cheaper than physically updating adjacency lists (§3.1).
///
/// Each of the four arrays is a [`SectionBuf`]: heap-owned when the graph
/// was built in memory, or a zero-copy view into a mapped snapshot file
/// (`TRUSSGR2`, see the storage crate) when it was opened from disk —
/// [`CsrGraph::from_sections`] assembles a graph over such views in O(1).
/// All accessors return plain slices either way.
#[derive(Clone)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors`/`edge_ids` for `v`
    /// (`u64` so the on-disk layout is the in-memory layout).
    offsets: SectionBuf<u64>,
    /// Concatenated sorted neighbor lists (length `2m`).
    neighbors: SectionBuf<VertexId>,
    /// Undirected edge id of each half-edge (parallel to `neighbors`).
    edge_ids: SectionBuf<EdgeId>,
    /// Canonical edges in lexicographic order (length `m`); index = `EdgeId`.
    edges: SectionBuf<Edge>,
}

impl CsrGraph {
    /// Builds a graph from a list of edges.
    ///
    /// The input may be in any order and contain duplicates (in either
    /// orientation) and self-loops; they are removed. The vertex set is
    /// `0..=max_id` — ids are **not** compacted (use
    /// [`crate::GraphBuilder::build_compact`] for that).
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = Edge>,
    {
        let mut es: Vec<Edge> = edges.into_iter().collect();
        es.sort_unstable();
        es.dedup();
        Self::from_sorted_dedup_edges(es)
    }

    /// Builds a graph from edges that are already canonical, lexicographically
    /// sorted and duplicate-free. This is the cheap path used by the builder
    /// and the disk loaders.
    pub fn from_sorted_dedup_edges(edges: Vec<Edge>) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be sorted+deduped"
        );
        let n = edges.iter().map(|e| e.v as usize + 1).max().unwrap_or(0);

        let mut degree = vec![0usize; n];
        for e in &edges {
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }

        let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc as u64);
        }

        let mut neighbors = vec![0 as VertexId; acc];
        let mut edge_ids = vec![0 as EdgeId; acc];
        let mut cursor: Vec<usize> = offsets[..n].iter().map(|&x| x as usize).collect();
        // Edges are sorted by (u, v); inserting u-side then v-side in a single
        // pass yields sorted neighbor lists for the u side. The v side needs
        // the second pass below? No: for a fixed vertex w, its neighbors
        // smaller than w are inserted by the v-side of edges (x, w) which
        // arrive in increasing x, and its neighbors larger than w by the
        // u-side of (w, y) in increasing y. Interleaving the two kinds keeps
        // each list sorted only if all v-side insertions for w happen before
        // the u-side ones, which lexicographic edge order does NOT guarantee.
        // So: insert u-sides in edge order (sorted), then v-sides in edge
        // order into the remaining slots, then merge. Simpler and still
        // linear: collect per-vertex then sort small slices — but that costs
        // O(m log d). Instead do the classic two-pass counting fill which is
        // stable per side, then an in-place merge per vertex.
        //
        // In practice the simplest linear scheme is: first pass inserts the
        // *smaller*-endpoint side for all edges (covering neighbors > w in
        // increasing order), second pass inserts the larger-endpoint side
        // (covering neighbors < w in increasing order) — but both sides
        // interleave in one list. We therefore fill v-sides first (neighbors
        // < w arrive in increasing order since edges sorted by u then v),
        // then u-sides (neighbors > w in increasing order), giving a fully
        // sorted list because every v-side neighbor of w is < w < every
        // u-side neighbor.
        for (id, e) in edges.iter().enumerate() {
            // v-side: neighbor is e.u, and e.u < e.v = w. Edges sorted by
            // (u, v) deliver, for fixed w, increasing u. ✓
            let w = e.v as usize;
            neighbors[cursor[w]] = e.u;
            edge_ids[cursor[w]] = id as EdgeId;
            cursor[w] += 1;
        }
        for (id, e) in edges.iter().enumerate() {
            // u-side: neighbor is e.v > u; for fixed u, increasing v. ✓
            let w = e.u as usize;
            neighbors[cursor[w]] = e.v;
            edge_ids[cursor[w]] = id as EdgeId;
            cursor[w] += 1;
        }
        debug_assert!((0..n).all(|v| cursor[v] == offsets[v + 1] as usize));

        CsrGraph {
            offsets: offsets.into(),
            neighbors: neighbors.into(),
            edge_ids: edge_ids.into(),
            edges: edges.into(),
        }
    }

    /// Assembles a graph directly over pre-built sections — the zero-copy
    /// open path for mapped snapshots. Only section-level invariants are
    /// checked (O(1)); the caller is responsible for content integrity
    /// (the snapshot layer verifies a checksum before calling this).
    ///
    /// Requirements: `offsets` is non-empty, starts at 0, ends at
    /// `neighbors.len() == edge_ids.len() == 2 × edges.len()`.
    pub fn from_sections(
        offsets: SectionBuf<u64>,
        neighbors: SectionBuf<VertexId>,
        edge_ids: SectionBuf<EdgeId>,
        edges: SectionBuf<Edge>,
    ) -> Result<Self, String> {
        let Some((&first, &last)) = offsets.first().zip(offsets.last()) else {
            return Err("offsets section is empty".into());
        };
        if first != 0 {
            return Err(format!("offsets must start at 0, got {first}"));
        }
        if last as usize != neighbors.len() || neighbors.len() != edge_ids.len() {
            return Err(format!(
                "half-edge sections disagree: offsets end at {last}, \
                 {} neighbors, {} edge ids",
                neighbors.len(),
                edge_ids.len()
            ));
        }
        if neighbors.len() != 2 * edges.len() {
            return Err(format!(
                "{} half-edges but {} edges (expected 2m)",
                neighbors.len(),
                edges.len()
            ));
        }
        Ok(CsrGraph {
            offsets,
            neighbors,
            edge_ids,
            edges,
        })
    }

    /// The four sections, in [`CsrGraph::from_sections`] order.
    pub fn into_sections(
        self,
    ) -> (
        SectionBuf<u64>,
        SectionBuf<VertexId>,
        SectionBuf<EdgeId>,
        SectionBuf<Edge>,
    ) {
        (self.offsets, self.neighbors, self.edge_ids, self.edges)
    }

    /// Returns `g` extended to at least `n` vertices (the extra ids are
    /// isolated). Formats that declare an explicit vertex count (METIS) use
    /// this to preserve trailing isolated vertices.
    pub fn with_min_vertices(g: CsrGraph, n: usize) -> CsrGraph {
        let mut g = g;
        let last = *g.offsets.last().expect("offsets never empty");
        if g.offsets.len() <= n {
            let offsets = g.offsets.to_mut();
            while offsets.len() <= n {
                offsets.push(last);
            }
        }
        g
    }

    /// `offsets[i]` as a slice index into the half-edge sections.
    #[inline]
    fn off(&self, i: usize) -> usize {
        self.offsets.as_slice()[i] as usize
    }

    /// Number of vertices `n` (including isolated ids below the max id).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The paper's `|G| = m + n`.
    #[inline]
    pub fn size(&self) -> usize {
        self.num_vertices() + self.num_edges()
    }

    /// True if the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.off(v as usize + 1) - self.off(v as usize)
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors.as_slice()[self.off(v as usize)..self.off(v as usize + 1)]
    }

    /// Undirected edge ids parallel to [`CsrGraph::neighbors`].
    #[inline]
    pub fn neighbor_edge_ids(&self, v: VertexId) -> &[EdgeId] {
        &self.edge_ids.as_slice()[self.off(v as usize)..self.off(v as usize + 1)]
    }

    /// Copies the neighbor rows and edge-id rows of vertices `lo..hi`
    /// (concatenated, in [`CsrGraph::neighbors`] order) into the two
    /// buffers. A mapped graph serves this with positioned reads on the
    /// snapshot file, so the copy faults no mapped page in; a heap graph
    /// copies slices. Fails when a read fails (a snapshot truncated after
    /// it was mapped) or the offsets of `lo` and `hi` do not bound a
    /// range of the half-edge sections; the range is checked before the
    /// buffers grow.
    pub fn copy_rows(
        &self,
        lo: VertexId,
        hi: VertexId,
        nbrs: &mut Vec<VertexId>,
        eids: &mut Vec<EdgeId>,
    ) -> std::io::Result<()> {
        let (a, b) = (self.off(lo as usize), self.off(hi as usize));
        let len = b
            .checked_sub(a)
            .filter(|_| b <= self.neighbors.len())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "offsets {a}..{b} of vertices {lo}..{hi} are not a range of {} half-edges",
                        self.neighbors.len()
                    ),
                )
            })?;
        nbrs.resize(len, 0);
        eids.resize(len, 0);
        self.neighbors.read_at(a, nbrs)?;
        self.edge_ids.read_at(a, eids)
    }

    /// The canonical edge with id `id`.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id as usize]
    }

    /// All canonical edges in lexicographic order (index = edge id).
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterates over `(EdgeId, Edge)` pairs.
    pub fn iter_edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (i as EdgeId, e))
    }

    /// Iterates over all vertex ids `0..n`.
    pub fn iter_vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Looks up the id of edge `(a, b)` by binary search in the smaller
    /// endpoint's neighbor list: O(log min(deg a, deg b)).
    pub fn edge_id(&self, a: VertexId, b: VertexId) -> Option<EdgeId> {
        if a == b {
            return None;
        }
        let (s, t) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        let nbrs = self.neighbors(s);
        let pos = nbrs.binary_search(&t).ok()?;
        Some(self.neighbor_edge_ids(s)[pos])
    }

    /// True if `(a, b)` is an edge.
    #[inline]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.edge_id(a, b).is_some()
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Approximate heap footprint in bytes (used for the Table 3 memory
    /// columns): owned sections plus any heap-resident (non-mapped) view
    /// backing. Mapped sections cost no heap — see
    /// [`CsrGraph::mapped_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes()
            + self.neighbors.heap_bytes()
            + self.edge_ids.heap_bytes()
            + self.edges.heap_bytes()
            + self.offsets.backing_heap_bytes()
            + self.neighbors.backing_heap_bytes()
            + self.edge_ids.backing_heap_bytes()
            + self.edges.backing_heap_bytes()
    }

    /// Bytes served out of a memory-mapped backing (zero for graphs built
    /// in memory): page-cache-resident, shared read-only across threads,
    /// and not part of [`CsrGraph::heap_bytes`].
    pub fn mapped_bytes(&self) -> usize {
        self.offsets.mapped_bytes()
            + self.neighbors.mapped_bytes()
            + self.edge_ids.mapped_bytes()
            + self.edges.mapped_bytes()
    }

    /// True when any section is served from a mapped file.
    pub fn is_mapped(&self) -> bool {
        self.offsets.is_mapped()
            || self.neighbors.is_mapped()
            || self.edge_ids.is_mapped()
            || self.edges.is_mapped()
    }

    /// The vertex-offsets section (`n + 1` entries; `offsets[v]..
    /// offsets[v+1]` spans `v`'s half-edges). For the snapshot writer.
    pub fn offsets_section(&self) -> &SectionBuf<u64> {
        &self.offsets
    }

    /// The concatenated-neighbors section (length `2m`).
    pub fn neighbors_section(&self) -> &SectionBuf<VertexId> {
        &self.neighbors
    }

    /// The half-edge → undirected-edge-id section (length `2m`).
    pub fn edge_ids_section(&self) -> &SectionBuf<EdgeId> {
        &self.edge_ids
    }

    /// The canonical-edge section (length `m`, index = edge id).
    pub fn edges_section(&self) -> &SectionBuf<Edge> {
        &self.edges
    }
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CsrGraph {{ n: {}, m: {} }}",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> CsrGraph {
        // 0-1, 0-2, 1-2 (triangle), 2-3 (pendant)
        CsrGraph::from_edges(vec![
            Edge::new(1, 0),
            Edge::new(0, 2),
            Edge::new(2, 1),
            Edge::new(3, 2),
            Edge::new(2, 0), // duplicate
        ])
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.size(), 8);
        assert!(!g.is_empty());
    }

    #[test]
    fn neighbors_sorted() {
        let g = triangle_plus_pendant();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.degree(2), 3);
    }

    #[test]
    fn edge_ids_lexicographic() {
        let g = triangle_plus_pendant();
        // sorted edges: (0,1)=0, (0,2)=1, (1,2)=2, (2,3)=3
        assert_eq!(g.edge(0), Edge::new(0, 1));
        assert_eq!(g.edge(3), Edge::new(2, 3));
        assert_eq!(g.edge_id(2, 0), Some(1));
        assert_eq!(g.edge_id(3, 2), Some(3));
        assert_eq!(g.edge_id(0, 3), None);
        assert_eq!(g.edge_id(1, 1), None);
    }

    #[test]
    fn half_edge_ids_consistent() {
        let g = triangle_plus_pendant();
        for v in g.iter_vertices() {
            for (&w, &id) in g.neighbors(v).iter().zip(g.neighbor_edge_ids(v)) {
                assert_eq!(g.edge(id), Edge::new(v, w));
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(Vec::new());
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_low_ids_preserved() {
        // Only edge (5, 7): vertices 0..=7 exist, 0..5 and 6 isolated.
        let g = CsrGraph::from_edges(vec![Edge::new(5, 7)]);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(5), 1);
    }

    #[test]
    fn larger_sorted_invariant() {
        // A denser case to exercise the two-pass fill.
        let mut edges = Vec::new();
        for u in 0..20u32 {
            for v in (u + 1)..20 {
                if (u + v) % 3 != 0 {
                    edges.push(Edge::new(v, u));
                }
            }
        }
        let g = CsrGraph::from_edges(edges.clone());
        for v in g.iter_vertices() {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted at {v}");
        }
        assert_eq!(g.num_edges(), edges.len());
    }
}
