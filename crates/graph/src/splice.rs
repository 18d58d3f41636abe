//! Splicing an edge delta into a [`CsrGraph`] without rebuilding it.
//!
//! [`CsrGraph::from_sorted_dedup_edges`] pays a degree pass, two scatter
//! passes over every edge and a fresh allocation per section. A small
//! delta changes little of that: the kept edges keep their relative
//! order, so their ids shift by a piecewise-constant amount, and only
//! the endpoints of changed edges get different neighbor rows.
//! [`CsrGraph::splice`] therefore copies the unchanged sections in runs
//! (the edge list between change points, the half-edge rows between
//! touched vertices), edits only the touched rows, and patches the
//! offsets with a running shift. The result is the same graph, section
//! for section, that a rebuild from the updated edge list gives.
//!
//! A splice writes into the allocations of a graph that is no longer
//! needed ([`CsrBuffers`]) when the caller has one: a writer that hands
//! each retired generation back allocates nothing once warm.

use crate::csr::CsrGraph;
use crate::edge::Edge;
use crate::types::{EdgeId, VertexId};
use std::ops::Range;

/// The emptied section vectors of a graph that is no longer needed, for
/// a splice to write into. The default holds no allocation.
#[derive(Debug, Default)]
pub struct CsrBuffers {
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
    edge_ids: Vec<EdgeId>,
    edges: Vec<Edge>,
}

impl From<CsrGraph> for CsrBuffers {
    fn from(g: CsrGraph) -> Self {
        let (offsets, neighbors, edge_ids, edges) = g.into_sections();
        CsrBuffers {
            offsets: offsets.into_emptied(),
            neighbors: neighbors.into_emptied(),
            edge_ids: edge_ids.into_emptied(),
            edges: edges.into_emptied(),
        }
    }
}

/// How the edge ids of a spliced graph relate to those of its source:
/// the kept edges as runs of consecutive ids, and the new ids of the
/// inserted edges.
#[derive(Debug, Clone)]
pub struct EdgeIdMap {
    /// Kept old ids in runs: `(old id range, first new id)`, ascending.
    runs: Vec<(Range<usize>, usize)>,
    /// New ids of the inserted edges, ascending (parallel to the
    /// `insert` slice given to [`CsrGraph::splice`]).
    inserted: Vec<EdgeId>,
    /// `old id → new id` (`EdgeId::MAX` for removed ids), built only when
    /// some kept id moved.
    table: Option<Vec<EdgeId>>,
    /// Edge count of the spliced graph.
    len: usize,
}

impl EdgeIdMap {
    /// New ids of the inserted edges, ascending.
    pub fn inserted(&self) -> &[EdgeId] {
        &self.inserted
    }

    /// The new id of kept edge `old` (unspecified for removed edges).
    #[inline]
    pub fn map(&self, old: EdgeId) -> EdgeId {
        match &self.table {
            None => old,
            Some(t) => t[old as usize],
        }
    }

    /// Appends the new ids of the kept edges `old` to `out` — a plain
    /// copy when the map is the identity.
    pub fn extend_mapped(&self, old: &[EdgeId], out: &mut Vec<EdgeId>) {
        match &self.table {
            None => out.extend_from_slice(old),
            Some(t) => out.extend(old.iter().map(|&id| t[id as usize])),
        }
    }

    /// Builds a per-edge array of the spliced graph in `out`'s
    /// allocation: the kept entries of `old` (indexed by old id) copied
    /// in runs, with `new[i]` placed at the id of the `i`-th inserted
    /// edge.
    pub fn splice<T: Copy>(&self, old: &[T], new: &[T], mut out: Vec<T>) -> Vec<T> {
        debug_assert_eq!(new.len(), self.inserted.len());
        out.clear();
        out.reserve(self.len);
        let mut runs = self.runs.iter().peekable();
        for (&id, &x) in self.inserted.iter().zip(new) {
            while let Some((r, _)) = runs.next_if(|(_, start)| *start < id as usize) {
                out.extend_from_slice(&old[r.clone()]);
            }
            debug_assert_eq!(out.len(), id as usize);
            out.push(x);
        }
        for (r, _) in runs {
            out.extend_from_slice(&old[r.clone()]);
        }
        debug_assert_eq!(out.len(), self.len);
        out
    }
}

impl CsrGraph {
    /// The graph with the edges `remove` taken out and `insert` added,
    /// built by copying the unchanged parts of `self` (see the module
    /// docs) into the allocations of `spare`, plus the map from `self`'s
    /// edge ids to the result's.
    ///
    /// Both slices must be canonical, sorted and duplicate-free; every
    /// `remove` edge must be present and no `insert` edge may be present
    /// once `remove` is applied (an edge in both is re-inserted). The
    /// vertex range grows to cover the inserted endpoints and never
    /// shrinks. The result equals
    /// `CsrGraph::with_min_vertices(CsrGraph::from_edges(updated), n)`
    /// section for section.
    pub fn splice(
        &self,
        remove: &[Edge],
        insert: &[Edge],
        spare: CsrBuffers,
    ) -> (CsrGraph, EdgeIdMap) {
        debug_assert!(remove.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(insert.windows(2).all(|w| w[0] < w[1]));
        let old = self.edges();
        let m = old.len();
        let m2 = m - remove.len() + insert.len();

        // Edge ids: kept runs between the change points of the old order.
        let removed: Vec<usize> = remove
            .iter()
            .map(|e| old.binary_search(e).expect("removed edge is present"))
            .collect();
        let at: Vec<usize> = insert
            .iter()
            .map(|e| old.partition_point(|x| x < e))
            .collect();
        let mut runs = Vec::with_capacity(removed.len() + insert.len() + 1);
        let mut inserted = Vec::with_capacity(insert.len());
        let (mut cursor, mut next) = (0usize, 0usize);
        let mut run_to = |end: usize, cursor: &mut usize, next: &mut usize| {
            if *cursor < end {
                runs.push((*cursor..end, *next));
                *next += end - *cursor;
            }
        };
        let (mut i, mut r) = (0, 0);
        loop {
            let take_insert = match (at.get(i), removed.get(r)) {
                (Some(q), Some(d)) => q <= d,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_insert {
                run_to(at[i], &mut cursor, &mut next);
                cursor = at[i];
                inserted.push(next as EdgeId);
                next += 1;
                i += 1;
            } else {
                run_to(removed[r], &mut cursor, &mut next);
                cursor = removed[r] + 1;
                r += 1;
            }
        }
        run_to(m, &mut cursor, &mut next);
        debug_assert_eq!(next, m2);
        let table = runs.iter().any(|(r, s)| r.start != *s).then(|| {
            let mut t = vec![EdgeId::MAX; m];
            for (r, s) in &runs {
                for (k, old_id) in r.clone().enumerate() {
                    t[old_id] = (s + k) as EdgeId;
                }
            }
            t
        });
        let map = EdgeIdMap {
            runs,
            inserted,
            table,
            len: m2,
        };
        let CsrBuffers {
            mut offsets,
            mut neighbors,
            mut edge_ids,
            edges,
        } = spare;
        let edges = map.splice(old, insert, edges);

        // Half-edges: per-vertex edits, sorted by (vertex, neighbor) with
        // a removal before a re-insertion of the same neighbor.
        let mut edits: Vec<(VertexId, VertexId, Option<EdgeId>)> =
            Vec::with_capacity(2 * (remove.len() + insert.len()));
        for e in remove {
            edits.push((e.u, e.v, None));
            edits.push((e.v, e.u, None));
        }
        for (e, &id) in insert.iter().zip(map.inserted()) {
            edits.push((e.u, e.v, Some(id)));
            edits.push((e.v, e.u, Some(id)));
        }
        edits.sort_unstable();

        let n = self.num_vertices();
        let n2 = insert.iter().map(|e| e.v as usize + 1).fold(n, usize::max);
        let old_off = self.offsets_section().as_slice();
        let (old_nbrs, old_ids) = (
            self.neighbors_section().as_slice(),
            self.edge_ids_section().as_slice(),
        );
        offsets.reserve(n2 + 1);
        neighbors.reserve(2 * m2);
        edge_ids.reserve(2 * m2);
        // Untouched vertices `vs` keep their rows: one block copy, and
        // offsets shifted by where the block lands.
        let copy_rows = |vs: Range<usize>,
                         offsets: &mut Vec<u64>,
                         neighbors: &mut Vec<VertexId>,
                         edge_ids: &mut Vec<EdgeId>| {
            let kept = vs.start.min(n)..vs.end.min(n);
            if !kept.is_empty() {
                let (a, b) = (old_off[kept.start] as usize, old_off[kept.end] as usize);
                let base = neighbors.len() as u64;
                offsets.extend(old_off[kept.clone()].iter().map(|&o| o - a as u64 + base));
                neighbors.extend_from_slice(&old_nbrs[a..b]);
                map.extend_mapped(&old_ids[a..b], edge_ids);
            }
            let empty = vs.start.max(n)..vs.end.max(n);
            offsets.extend(empty.map(|_| neighbors.len() as u64));
        };
        let mut v = 0usize;
        for group in edits.chunk_by(|a, b| a.0 == b.0) {
            let t = group[0].0 as usize;
            copy_rows(v..t, &mut offsets, &mut neighbors, &mut edge_ids);
            offsets.push(neighbors.len() as u64);
            let (row, ids) = if t < n {
                let (a, b) = (old_off[t] as usize, old_off[t + 1] as usize);
                (&old_nbrs[a..b], &old_ids[a..b])
            } else {
                (&[][..], &[][..])
            };
            let mut ed = group.iter().peekable();
            for (&w, &id) in row.iter().zip(ids) {
                while let Some(&&(_, x, Some(new))) = ed.peek() {
                    if x >= w {
                        break;
                    }
                    neighbors.push(x);
                    edge_ids.push(new);
                    ed.next();
                }
                if ed.next_if(|&&(_, x, op)| x == w && op.is_none()).is_none() {
                    neighbors.push(w);
                    edge_ids.push(map.map(id));
                }
            }
            for &(_, x, op) in ed {
                neighbors.push(x);
                edge_ids.push(op.expect("every removed neighbor is in the old row"));
            }
            v = t + 1;
        }
        copy_rows(v..n2, &mut offsets, &mut neighbors, &mut edge_ids);
        offsets.push(neighbors.len() as u64);
        debug_assert_eq!(neighbors.len(), 2 * m2);

        let graph = CsrGraph::from_sections(
            offsets.into(),
            neighbors.into(),
            edge_ids.into(),
            edges.into(),
        )
        .expect("a splice keeps the CSR invariants");
        (graph, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnm;

    fn assert_same(a: &CsrGraph, b: &CsrGraph, label: &str) {
        assert_eq!(
            a.offsets_section().as_slice(),
            b.offsets_section().as_slice(),
            "{label}"
        );
        assert_eq!(
            a.neighbors_section().as_slice(),
            b.neighbors_section().as_slice(),
            "{label}"
        );
        assert_eq!(
            a.edge_ids_section().as_slice(),
            b.edge_ids_section().as_slice(),
            "{label}"
        );
        assert_eq!(a.edges(), b.edges(), "{label}");
    }

    /// Splices `remove`/`insert` into `g` and checks the result against
    /// a rebuild, and the id map against the edges themselves — once into
    /// fresh allocations and once into those of a retired graph.
    fn check(g: &CsrGraph, remove: &[Edge], insert: &[Edge], label: &str) {
        let (s, map) = g.splice(remove, insert, CsrBuffers::default());
        let retired = CsrBuffers::from(gnm(12, 30, 9));
        assert_same(&g.splice(remove, insert, retired).0, &s, label);
        let mut updated: Vec<Edge> = g
            .edges()
            .iter()
            .copied()
            .filter(|e| remove.binary_search(e).is_err())
            .collect();
        updated.extend_from_slice(insert);
        let n = insert
            .iter()
            .map(|e| e.v as usize + 1)
            .fold(g.num_vertices(), usize::max);
        let rebuilt = CsrGraph::with_min_vertices(CsrGraph::from_edges(updated), n);
        assert_same(&s, &rebuilt, label);
        for (id, e) in g.iter_edges() {
            if remove.binary_search(&e).is_err() {
                assert_eq!(s.edge(map.map(id)), e, "{label}: kept edge {id}");
            }
        }
        for (&id, &e) in map.inserted().iter().zip(insert) {
            assert_eq!(s.edge(id), e, "{label}: inserted edge");
        }
    }

    #[test]
    fn splice_matches_rebuild() {
        for seed in 0..6u64 {
            let g = gnm(30, 120, seed);
            let edges = g.edges().to_vec();
            let absent: Vec<Edge> = (0..34u32)
                .flat_map(|u| (u + 1..34).map(move |v| Edge::new(u, v)))
                .filter(|e| edges.binary_search(e).is_err())
                .collect();
            let remove: Vec<Edge> = edges.iter().copied().step_by(7 + seed as usize).collect();
            let insert: Vec<Edge> = absent.iter().copied().step_by(11 + seed as usize).collect();
            check(&g, &remove, &[], &format!("seed {seed} remove"));
            check(&g, &[], &insert, &format!("seed {seed} insert"));
            check(&g, &remove, &insert, &format!("seed {seed} mixed"));
            // Re-inserting removed edges, the first and the last edge.
            let ends = [edges[0], *edges.last().unwrap()];
            check(&g, &ends, &ends, &format!("seed {seed} ends"));
            check(&g, &edges, &[], &format!("seed {seed} drain"));
        }
    }

    #[test]
    fn tail_inserts_keep_ids() {
        let g = gnm(20, 60, 1);
        let insert = [Edge::new(20, 21), Edge::new(20, 22), Edge::new(21, 22)];
        let (s, map) = g.splice(&[], &insert, CsrBuffers::default());
        assert!(map.table.is_none());
        assert_eq!(s.num_vertices(), 23);
        check(&g, &[], &insert, "tail");
        // Removing them again keeps every id too.
        let (back, map) = s.splice(&insert, &[], CsrBuffers::from(g));
        assert!(map.table.is_none());
        assert_eq!(back.num_vertices(), 23, "vertex ids never shrink");
    }

    #[test]
    fn splice_into_and_out_of_empty() {
        let empty = CsrGraph::from_edges(Vec::new());
        let tri = [Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2)];
        check(&empty, &[], &tri, "from empty");
        let (g, _) = empty.splice(&[], &tri, CsrBuffers::default());
        check(&g, &tri, &[], "to empty");
    }
}
