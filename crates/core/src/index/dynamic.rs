//! Incremental maintenance of a [`TrussIndex`] under batched edge
//! insertions and deletions.
//!
//! Instead of recomputing the decomposition from scratch (O(m^1.5)), a
//! batch is absorbed by re-peeling only the *affected region* — the set of
//! edges whose truss number can change — seeded from the batch's
//! triangle neighborhood. The correctness backbone is the local
//! *ts-operator* (the truss analogue of the k-core h-index operator, cf.
//! Sariyüce, Seshadhri & Pinar, VLDB 2018):
//!
//! ```text
//! ts(ρ)(e) = 2 + H{ min(ρ(f), ρ(g)) − 2 : (e, f, g) a triangle }
//! ```
//!
//! where `H` is the h-index of the multiset. The truss numbers `ϕ` are the
//! **greatest fixpoint** of `ts`: (1) `ts(ϕ) = ϕ` by the maximality of
//! k-trusses, and (2) any assignment `ρ` with `ts(ρ) ≥ ρ` certifies that
//! `{e : ρ(e) ≥ k}` satisfies the k-truss property, hence `ρ ≤ ϕ`.
//! Therefore the chaotic iteration `ρ ← min(ρ, ts(ρ))`, started from any
//! pointwise **upper bound** of the new truss numbers and run to
//! exhaustion over a worklist, terminates at exactly `ϕ` of the updated
//! graph — in whatever order edges are relaxed.
//!
//! What makes the maintenance *incremental* is that valid upper bounds are
//! local knowledge:
//!
//! * **Deletion.** Truss numbers only decrease, so the old `ϕ` is already
//!   an upper bound everywhere. Only edges that lost a triangle (the
//!   triangle neighborhood of the deleted batch) can violate the fixpoint
//!   initially; they seed the worklist and decreases cascade exactly as
//!   far as they must.
//! * **Insertion.** Truss numbers only increase, and a batch of `b`
//!   insertions raises any truss number by at most `b` (by induction from
//!   the classic single-insertion +1 bound, Huang et al., SIGMOD 2014).
//!   Moreover a changed edge must be reachable from an inserted edge
//!   through a chain of triangles whose stepping edges also changed at the
//!   same level `k` — if some changed set had no such chain, the old
//!   k-truss plus that set would certify the old graph already contained
//!   it. The region BFS below over-approximates those chains with
//!   per-edge level windows (`[ϕ(f)+1, ϕ(f)+b]` for old edges,
//!   `[2, sup(e)+2]` for inserted ones, third edge capped by its own upper
//!   bound), bumps `ρ` to the window top inside the region only, and
//!   settles. Everything outside the region provably keeps its old value.
//!
//! Mixed batches are applied as removals first, then insertions — each
//! phase is exact, so the composition is exact. Both phases run on one
//! spliced graph ([`CsrGraph::splice`]); the removal phase masks the
//! inserted edges out of every triangle, so it sees exactly the
//! post-removal graph.
//!
//! The settle's work is proportional to the damage. Around it, a batch
//! pays one streaming copy of the unchanged sections: the successor is
//! spliced from the source index, never rebuilt — the graph by runs and
//! touched rows, the truss numbers by runs, the level order by one
//! merge, the level counts per level, and vertex trussness only at the
//! touched endpoints. The result is byte-for-byte the index a
//! from-scratch build gives; `tests/index.rs` checks that image, and the
//! proptest suite and `tests/consistency.rs` cross-check the truss
//! numbers against every registered engine.

use super::TrussIndex;
use crate::decompose::improved::merge_common_neighbors;
use crate::decompose::TrussDecomposition;
use std::cmp::Reverse;
use std::collections::VecDeque;
use truss_graph::hash::FxHashSet;
use truss_graph::{CsrBuffers, CsrGraph, Edge, EdgeDelta, EdgeId, EdgeIdMap};

/// What a batch update did, for reporting and benchmarking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Edges actually inserted (not counting already-present duplicates).
    pub inserted: usize,
    /// Edges actually removed (not counting absent ones).
    pub removed: usize,
    /// Requested operations that were no-ops (inserting a present edge,
    /// removing an absent one).
    pub skipped: usize,
    /// Edges seeded into the re-peel worklist (the affected-region size —
    /// the work bound of the incremental algorithm).
    pub seeded: usize,
    /// Worklist relaxations performed (each enumerates one edge's
    /// triangles).
    pub settled: usize,
    /// Relaxations that lowered a truss bound.
    pub lowered: usize,
}

impl UpdateStats {
    /// Total structural operations applied.
    pub fn applied(&self) -> usize {
        self.inserted + self.removed
    }
}

/// True if `e` is an edge of `g` (tolerating endpoints beyond the current
/// vertex range, which [`CsrGraph::edge_id`] does not).
fn edge_present(g: &CsrGraph, e: Edge) -> bool {
    (e.v as usize) < g.num_vertices() && g.has_edge(e.u, e.v)
}

/// The h-index step of the ts-operator: the largest `h` such that at
/// least `h` of the triangle contributions `v` satisfy `v − 2 ≥ h`.
fn h_index(vals: &[u32], counts: &mut Vec<u32>) -> u32 {
    let cap = vals.len() as u32;
    counts.clear();
    counts.resize(cap as usize + 1, 0);
    for &v in vals {
        let c = v.saturating_sub(2).min(cap);
        counts[c as usize] += 1;
    }
    let mut seen = 0u32;
    for h in (1..=cap).rev() {
        seen += counts[h as usize];
        if seen >= h {
            return h;
        }
    }
    0
}

/// Runs the worklist iteration `ρ ← min(ρ, ts(ρ))` to exhaustion over
/// the triangles of `g` that avoid every edge `absent` names, logging
/// each lowered edge into `lowered`.
///
/// Requires: `rho` is a pointwise upper bound of the true truss numbers of
/// that graph, and `seeds` contains every edge whose `ts` value may lie
/// below its `rho` (the invariant is then maintained by the push rule:
/// when `ρ(e)` drops, only triangle neighbors `f` with `ρ(f) > ρ(e)` can
/// newly violate the fixpoint). Side state is sized by the worklist, not
/// by the graph.
fn settle(
    g: &CsrGraph,
    rho: &mut [u32],
    seeds: Vec<EdgeId>,
    absent: impl Fn(EdgeId) -> bool,
    stats: &mut UpdateStats,
    lowered: &mut Vec<EdgeId>,
) {
    let mut in_queue: FxHashSet<EdgeId> = FxHashSet::default();
    let mut queue: VecDeque<EdgeId> = VecDeque::with_capacity(seeds.len());
    for id in seeds {
        if in_queue.insert(id) {
            queue.push_back(id);
        }
    }
    let mut vals: Vec<u32> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    while let Some(eid) = queue.pop_front() {
        in_queue.remove(&eid);
        stats.settled += 1;
        let cur = rho[eid as usize];
        if cur == 2 {
            continue; // ϕ ≥ 2 always; nothing below to settle to.
        }
        let e = g.edge(eid);
        vals.clear();
        merge_common_neighbors(g, e.u, e.v, |_, a, c| {
            if !absent(a) && !absent(c) {
                vals.push(rho[a as usize].min(rho[c as usize]));
            }
        });
        let new = 2 + h_index(&vals, &mut counts);
        if new < cur {
            rho[eid as usize] = new;
            stats.lowered += 1;
            lowered.push(eid);
            merge_common_neighbors(g, e.u, e.v, |_, a, c| {
                if absent(a) || absent(c) {
                    return;
                }
                for f in [a, c] {
                    if rho[f as usize] > new && in_queue.insert(f) {
                        queue.push_back(f);
                    }
                }
            });
        }
    }
}

/// The emptied allocations of an index that is no longer needed, for a
/// successor to be written into. The default holds no allocation.
#[derive(Default)]
struct Spare {
    graph: CsrBuffers,
    trussness: Vec<u32>,
    order: Vec<EdgeId>,
    count_ge: Vec<u64>,
    vertex_truss: Vec<u32>,
}

impl From<TrussIndex> for Spare {
    fn from(index: TrussIndex) -> Self {
        Spare {
            graph: index.graph.into(),
            trussness: index.decomp.into_section().into_emptied(),
            order: index.order.into_emptied(),
            count_ge: index.count_ge.into_emptied(),
            vertex_truss: index.vertex_truss.into_emptied(),
        }
    }
}

impl TrussIndex {
    /// Applies a batch of edge updates, maintaining truss numbers
    /// incrementally. Removals are applied first, then insertions; the
    /// result is byte-for-byte the index a from-scratch build of the
    /// updated graph gives. See [`TrussIndex::applied`].
    pub fn apply(&mut self, delta: &EdgeDelta) -> UpdateStats {
        let (next, stats) = self.successor(delta, Spare::default());
        if let Some(next) = next {
            *self = next;
        }
        stats
    }

    /// The index after `delta`, written straight from `self`, which is
    /// left untouched: the graph is spliced ([`CsrGraph::splice`]), the
    /// truss numbers are copied and settled over the affected region
    /// only, and the derived sections are patched where the truss numbers
    /// changed. The cost is the region's triangle work plus one streaming
    /// copy of the unchanged sections — no rebuild, and no copy of
    /// `self` beforehand. `self` may be a mapped v2 generation.
    pub fn applied(&self, delta: &EdgeDelta) -> (TrussIndex, UpdateStats) {
        self.applied_recycling(delta, None)
    }

    /// [`TrussIndex::applied`], writing the successor into the
    /// allocations of `retired`, an index the caller no longer needs
    /// (the result is the same either way). A writer that hands each
    /// retired generation back here allocates nothing once warm, so an
    /// update costs the streaming copy alone: no page faults on fresh
    /// memory, and no freed generation handed back to the OS.
    pub fn applied_recycling(
        &self,
        delta: &EdgeDelta,
        retired: Option<TrussIndex>,
    ) -> (TrussIndex, UpdateStats) {
        let spare = retired.map(Spare::from).unwrap_or_default();
        let (next, stats) = self.successor(delta, spare);
        (next.unwrap_or_else(|| self.clone()), stats)
    }

    /// Inserts a batch of edges (already-present edges are skipped).
    pub fn insert_edges(&mut self, edges: &[Edge]) -> UpdateStats {
        self.apply(&EdgeDelta::inserting(edges.iter().copied()))
    }

    /// Removes a batch of edges (absent edges are skipped).
    pub fn remove_edges(&mut self, edges: &[Edge]) -> UpdateStats {
        self.apply(&EdgeDelta::removing(edges.iter().copied()))
    }

    /// The successor index, written into `spare`, or `None` when every
    /// operation is a no-op.
    fn successor(&self, delta: &EdgeDelta, spare: Spare) -> (Option<TrussIndex>, UpdateStats) {
        let mut delta = delta.clone();
        delta.normalize();
        let mut stats = UpdateStats::default();
        let old = &self.graph;
        let remove: Vec<Edge> = delta
            .remove
            .iter()
            .copied()
            .filter(|&e| edge_present(old, e))
            .collect();
        // An edge removed and inserted by the same batch is re-inserted.
        let insert: Vec<Edge> = delta
            .insert
            .iter()
            .copied()
            .filter(|&e| !edge_present(old, e) || remove.binary_search(&e).is_ok())
            .collect();
        stats.removed = remove.len();
        stats.inserted = insert.len();
        stats.skipped = delta.len() - remove.len() - insert.len();
        if remove.is_empty() && insert.is_empty() {
            return (None, stats);
        }

        // Removal seeds come from the old graph: the surviving sides of
        // every triangle through a removed edge.
        let mut lost: FxHashSet<Edge> = FxHashSet::default();
        for e in &remove {
            merge_common_neighbors(old, e.u, e.v, |_, a, c| {
                for id in [a, c] {
                    let f = old.edge(id);
                    if remove.binary_search(&f).is_err() {
                        lost.insert(f);
                    }
                }
            });
        }

        // One splice carries both phases: the removal phase settles on
        // it with the inserted edges masked out, which is exactly the
        // post-removal graph.
        let (graph, map) = old.splice(&remove, &insert, spare.graph);
        let mut rho = map.splice(
            self.decomp.trussness(),
            &vec![2; insert.len()],
            spare.trussness,
        );
        let is_new = |id: EdgeId| map.inserted().binary_search(&id).is_ok();
        let mut touched: Vec<EdgeId> = Vec::new();
        if !remove.is_empty() {
            // Old truss numbers are upper bounds under removal.
            let queue: Vec<EdgeId> = lost
                .iter()
                .filter_map(|e| graph.edge_id(e.u, e.v))
                .collect();
            stats.seeded += queue.len();
            settle(&graph, &mut rho, queue, is_new, &mut stats, &mut touched);
        }
        if !insert.is_empty() {
            let region = insertion_region(&graph, &map, &mut rho);
            stats.seeded += region.len();
            touched.extend_from_slice(&region);
            settle(
                &graph,
                &mut rho,
                region,
                |_| false,
                &mut stats,
                &mut touched,
            );
        }

        // What changed level: removed and re-leveled old edges leave the
        // order, re-leveled and inserted edges enter it.
        touched.sort_unstable();
        touched.dedup();
        let old_t = self.decomp.trussness();
        let mut leave: Vec<(u32, EdgeId)> = remove
            .iter()
            .map(|e| {
                let id = old.edge_id(e.u, e.v).expect("removed edge is present");
                (old_t[id as usize], id)
            })
            .collect();
        let mut enter: Vec<(u32, EdgeId)> = Vec::new();
        for id in touched {
            if is_new(id) {
                continue;
            }
            let e = graph.edge(id);
            let was = old
                .edge_id(e.u, e.v)
                .expect("kept edge is in the old graph");
            if old_t[was as usize] != rho[id as usize] {
                leave.push((old_t[was as usize], was));
                enter.push((rho[id as usize], id));
            }
        }
        enter.extend(map.inserted().iter().map(|&id| (rho[id as usize], id)));
        let derived = (spare.order, spare.count_ge, spare.vertex_truss);
        let next = self.spliced_derived(graph, &map, rho, &leave, enter, derived);
        (Some(next), stats)
    }

    /// Assembles the successor over the spliced `graph` and settled
    /// `rho`: the level order is one merge of `self`'s (ids remapped,
    /// `leave` dropped) with `enter`, the level counts are patched per
    /// level, and vertex trussness is recomputed for the endpoints of
    /// changed edges only. `leave` holds `(old ϕ, old id)`, `enter`
    /// `(new ϕ, new id)`; the three sections are written into the
    /// allocations of `spare`.
    fn spliced_derived(
        &self,
        graph: CsrGraph,
        map: &EdgeIdMap,
        rho: Vec<u32>,
        leave: &[(u32, EdgeId)],
        mut enter: Vec<(u32, EdgeId)>,
        spare: (Vec<EdgeId>, Vec<u64>, Vec<u32>),
    ) -> TrussIndex {
        let (mut order, mut count_ge, mut vertex_truss) = spare;
        let old_order = self.order.as_slice();
        let old_ge = self.count_ge.as_slice();
        let old_edges = self.graph.edges();
        // The old order's slice of level k: ascending old ids.
        let level = |k: u32| {
            let at = |k: usize| old_ge.get(k).map_or(0, |&c| c as usize);
            at(k as usize + 1)..at(k as usize)
        };

        let mut gaps: Vec<usize> = leave
            .iter()
            .map(|&(t, id)| {
                let r = level(t);
                r.start + old_order[r].partition_point(|&x| x < id)
            })
            .collect();
        gaps.sort_unstable();
        // Each entering edge lands before the first old entry that sorts
        // after it in (descending ϕ, ascending id) order; the map is
        // monotone, so "after" compares old ids against the entering
        // edge's rank among the old edges.
        enter.sort_unstable_by_key(|&(t, id)| (Reverse(t), id));
        order.reserve(rho.len());
        let mut gaps = gaps.into_iter().peekable();
        let mut cur = 0usize;
        // Copies the old order up to position `end`, skipping the gaps.
        let mut copy_to = |end: usize, order: &mut Vec<EdgeId>| {
            while let Some(g) = gaps.next_if(|&g| g < end) {
                map.extend_mapped(&old_order[cur..g], order);
                cur = g + 1;
            }
            map.extend_mapped(&old_order[cur..end], order);
            cur = end;
        };
        for &(t, id) in &enter {
            let e = graph.edge(id);
            let rank = old_edges.partition_point(|x| *x < e) as EdgeId;
            let r = level(t);
            let at = r.start + old_order[r].partition_point(|&x| x < rank);
            copy_to(at, &mut order);
            order.push(id);
        }
        copy_to(old_order.len(), &mut order);
        debug_assert_eq!(order.len(), rho.len());

        // count_ge[k] moves by the edges entering minus leaving at ≥ k.
        let top = enter
            .iter()
            .map(|&(t, _)| t)
            .fold(self.decomp.k_max(), u32::max) as usize
            + 2;
        let mut diff = vec![0i64; top];
        for &(t, _) in leave {
            diff[t as usize] -= 1;
        }
        for &(t, _) in &enter {
            diff[t as usize] += 1;
        }
        count_ge.extend_from_slice(old_ge);
        count_ge.resize(top, 0);
        let mut acc = 0i64;
        for k in (0..top).rev() {
            acc += diff[k];
            count_ge[k] = (count_ge[k] as i64 + acc) as u64;
        }
        let k_max = (3..top).rev().find(|&k| count_ge[k] > 0).unwrap_or(2);
        count_ge.truncate(k_max + 2);

        vertex_truss.reserve(graph.num_vertices());
        vertex_truss.extend_from_slice(&self.vertex_truss);
        vertex_truss.resize(graph.num_vertices(), 0);
        let mut ends: Vec<u32> = leave
            .iter()
            .map(|&(_, id)| self.graph.edge(id))
            .chain(enter.iter().map(|&(_, id)| graph.edge(id)))
            .flat_map(|e| [e.u, e.v])
            .collect();
        ends.sort_unstable();
        ends.dedup();
        for v in ends {
            vertex_truss[v as usize] = graph
                .neighbor_edge_ids(v)
                .iter()
                .map(|&id| rho[id as usize])
                .max()
                .unwrap_or(0);
        }

        TrussIndex {
            graph,
            decomp: TrussDecomposition::from_section_trusted(rho.into(), k_max as u32),
            order: order.into(),
            count_ge: count_ge.into(),
            vertex_truss: vertex_truss.into(),
        }
    }
}

/// Insertion phase: grows the affected region from the inserted edges,
/// bumps it to its level-window upper bounds, and returns it in ascending
/// id order — the worklist that settles it back down to the exact new
/// truss numbers. `rho` holds the post-removal truss numbers of old
/// edges on entry.
fn insertion_region(graph: &CsrGraph, map: &EdgeIdMap, rho: &mut [u32]) -> Vec<EdgeId> {
    let inserted = map.inserted();
    let b = inserted.len() as u32;
    // Per-edge upper bound on the post-insertion trussness: support+2
    // for inserted edges, ϕ+b for old ones (+1 per inserted edge).
    let sup_bound: Vec<u32> = inserted
        .iter()
        .map(|&id| {
            let e = graph.edge(id);
            let mut sup = 0u32;
            merge_common_neighbors(graph, e.u, e.v, |_, _, _| sup += 1);
            sup + 2
        })
        .collect();
    let window = |rho: &[u32], id: EdgeId| match inserted.binary_search(&id) {
        Ok(i) => (2, sup_bound[i]),
        Err(_) => (rho[id as usize] + 1, rho[id as usize].saturating_add(b)),
    };

    // Region BFS over triangle adjacency. An old edge f can change only
    // at a level k in [ϕ(f)+1, ϕ(f)+b]; an inserted edge at any k up to
    // its bound. Propagation across a triangle (r, f, g) requires a
    // common level k in both windows that the third edge can also reach
    // (k ≤ hi(g)). Windows are fixed per edge, so one visit each
    // suffices.
    let mut region: FxHashSet<EdgeId> = inserted.iter().copied().collect();
    let mut frontier: VecDeque<EdgeId> = inserted.iter().copied().collect();
    while let Some(r) = frontier.pop_front() {
        let er = graph.edge(r);
        let (lo_r, hi_r) = window(rho, r);
        merge_common_neighbors(graph, er.u, er.v, |_, a, c| {
            for (f, third) in [(a, c), (c, a)] {
                if region.contains(&f) {
                    continue;
                }
                let (lo_f, hi_f) = window(rho, f);
                if lo_f.max(lo_r) <= hi_f.min(hi_r).min(window(rho, third).1) {
                    region.insert(f);
                    frontier.push_back(f);
                }
            }
        });
    }

    let mut region: Vec<EdgeId> = region.into_iter().collect();
    region.sort_unstable();
    let bumped: Vec<u32> = region.iter().map(|&id| window(rho, id).1).collect();
    for (&id, hi) in region.iter().zip(bumped) {
        rho[id as usize] = hi;
    }
    region
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::truss_decompose;
    use truss_graph::generators::{complete, figure2_graph, gnm};

    fn assert_matches_scratch(index: &TrussIndex, label: &str) {
        let scratch = truss_decompose(index.graph());
        assert_eq!(index.trussness(), scratch.trussness(), "{label}");
        assert_eq!(index.max_k(), scratch.k_max(), "{label}: k_max");
    }

    #[test]
    fn insert_into_figure2() {
        // Inserting (e, h) = (4, 7) closes new triangles around the wing.
        let mut index = TrussIndex::from_decompose(figure2_graph());
        let stats = index.insert_edges(&[Edge::new(4, 7)]);
        assert_eq!(stats.inserted, 1);
        assert_eq!(index.num_edges(), 27);
        assert_matches_scratch(&index, "insert (4,7)");
    }

    #[test]
    fn remove_from_figure2() {
        // Removing a K5 edge breaks the 5-truss.
        let mut index = TrussIndex::from_decompose(figure2_graph());
        let stats = index.remove_edges(&[Edge::new(0, 1)]);
        assert_eq!(stats.removed, 1);
        assert_eq!(index.num_edges(), 25);
        assert_matches_scratch(&index, "remove (0,1)");
        assert_eq!(index.max_k(), 4);
    }

    #[test]
    fn noop_operations_are_skipped() {
        let mut index = TrussIndex::from_decompose(figure2_graph());
        let before = index.trussness().to_vec();
        let stats = index.apply(&EdgeDelta {
            insert: vec![Edge::new(0, 1)],   // already present
            remove: vec![Edge::new(90, 95)], // never existed
        });
        assert_eq!(stats.applied(), 0);
        assert_eq!(stats.skipped, 2);
        assert_eq!(index.trussness(), before.as_slice());
    }

    #[test]
    fn grow_clique_edge_by_edge() {
        // Start from a K4 and grow it to a K7 one edge at a time; every
        // intermediate state must match from-scratch recomputation.
        let mut index = TrussIndex::from_decompose(complete(4));
        for v in 4..7u32 {
            for u in 0..v {
                index.insert_edges(&[Edge::new(u, v)]);
                assert_matches_scratch(&index, &format!("grow ({u},{v})"));
            }
        }
        assert_eq!(index.max_k(), 7);
        // And tear it back down.
        for v in (5..7u32).rev() {
            for u in 0..v {
                index.remove_edges(&[Edge::new(u, v)]);
                assert_matches_scratch(&index, &format!("shrink ({u},{v})"));
            }
        }
        assert_eq!(index.max_k(), 5);
    }

    #[test]
    fn batched_updates_on_random_graphs() {
        for seed in 0..5u64 {
            let g = gnm(40, 260, seed);
            let all: Vec<Edge> = g.edges().to_vec();
            // Hold out every 5th edge, index the rest, insert them back as
            // one batch.
            let held: Vec<Edge> = all.iter().copied().step_by(5).collect();
            let base: Vec<Edge> = all.iter().copied().filter(|e| !held.contains(e)).collect();
            let mut index = TrussIndex::from_decompose(CsrGraph::from_edges(base));
            let stats = index.insert_edges(&held);
            assert_eq!(stats.inserted, held.len());
            assert_matches_scratch(&index, &format!("seed {seed} insert batch"));

            // Now remove a different batch.
            let victims: Vec<Edge> = all.iter().copied().skip(2).step_by(7).collect();
            index.remove_edges(&victims);
            assert_matches_scratch(&index, &format!("seed {seed} remove batch"));
        }
    }

    #[test]
    fn mixed_delta_is_remove_then_insert() {
        let mut index = TrussIndex::from_decompose(figure2_graph());
        let delta = EdgeDelta {
            insert: vec![Edge::new(4, 7), Edge::new(6, 9)],
            remove: vec![Edge::new(0, 1), Edge::new(2, 3)],
        };
        let stats = index.apply(&delta);
        assert_eq!(stats.inserted, 2);
        assert_eq!(stats.removed, 2);
        assert_matches_scratch(&index, "mixed delta");
    }

    #[test]
    fn update_stats_are_pinned() {
        // The ack reply carries these numbers; a faster update must not
        // change what it reports.
        // (seeded, settled, lowered) per delta.
        let cases = [
            (EdgeDelta::inserting([Edge::new(4, 7)]), (1, 0), (10, 13, 5)),
            (EdgeDelta::removing([Edge::new(0, 1)]), (0, 1), (6, 9, 9)),
            (
                EdgeDelta {
                    insert: vec![Edge::new(4, 7), Edge::new(6, 9)],
                    remove: vec![Edge::new(0, 1), Edge::new(2, 3)],
                },
                (2, 2),
                (33, 39, 36),
            ),
        ];
        for (delta, (inserted, removed), work) in cases {
            let mut index = TrussIndex::from_decompose(figure2_graph());
            let s = index.apply(&delta);
            assert_eq!((s.inserted, s.removed, s.skipped), (inserted, removed, 0));
            assert_eq!((s.seeded, s.settled, s.lowered), work, "{delta:?}");
        }
    }

    #[test]
    fn insert_extends_vertex_range() {
        let mut index = TrussIndex::from_decompose(complete(3));
        index.insert_edges(&[Edge::new(0, 9), Edge::new(1, 9), Edge::new(2, 9)]);
        assert_eq!(index.num_vertices(), 10);
        assert_matches_scratch(&index, "new vertex");
        assert_eq!(index.max_k(), 4); // K4 on {0, 1, 2, 9}
    }

    #[test]
    fn update_into_and_out_of_empty() {
        let mut index = TrussIndex::from_decompose(CsrGraph::from_edges(Vec::new()));
        index.insert_edges(&[Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2)]);
        assert_eq!(index.max_k(), 3);
        assert_matches_scratch(&index, "from empty");
        index.remove_edges(&[Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2)]);
        assert_eq!(index.num_edges(), 0);
        assert_eq!(index.max_k(), 2);
    }
}
