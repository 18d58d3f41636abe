//! The periodically *compacted* live adjacency of the frontier peel.
//!
//! An exact live adjacency — an O(1) swap-remove from both endpoints'
//! lists on every edge death, through a per-edge position table — is
//! inherently sequential: that table is mutated from both endpoints of
//! every dying edge, so concurrent frontier processing would race on it.
//! Fan-out sub-iterations therefore *never remove*. Dead entries linger
//! in the columns (the epoch/state array already filters them during the
//! walk, exactly as it filtered the full static CSR before) and a
//! bulk-synchronous **compaction** pass — trivially parallel because every
//! vertex segment is independent — filters them out once enough garbage
//! accumulates. Single-worker sub-iterations (every sub-iteration of
//! TD-inmem+) swap-remove the dead entries their own walk meets instead
//! ([`FrontierAdjacency::swap_remove_entry`]), which needs no position
//! table.
//!
//! Layout: the static CSR shape (`offsets`) with mutable
//! `verts`/`eids`/`nbr_ranks` columns and a per-vertex live count. Vertex `v`'s surviving entries occupy
//! `offsets[v] .. offsets[v] + live_deg[v]`; compaction preserves their
//! relative order but the walk never relies on it (membership tests go
//! through [`ForwardAdjacency::edge_between_ranked`] probes, not merges,
//! so the lists need not stay sorted). The rank column caches each
//! neighbor's orientation rank so a walk feeds the probe without a
//! random `vertex_rank` read per step.
//!
//! Amortization: the caller compacts when the dead entries since the
//! last pass exceed a constant fraction of the entries still stored
//! (see `peel`'s cadence). Each pass is a single streaming scan of the
//! stored prefix, so total compaction work over a whole peel is O(m)
//! amortized — while every frontier walk between passes stays within a
//! constant factor of the exact live degree.
//!
//! [`ForwardAdjacency::edge_between_ranked`]:
//! truss_triangle::ForwardAdjacency::edge_between_ranked

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use truss_graph::{CsrGraph, EdgeId, VertexId};

/// Per-vertex live-neighbor columns with bulk-synchronous compaction.
pub struct FrontierAdjacency {
    /// Static CSR shape: vertex `v`'s segment is `offsets[v]..offsets[v+1]`.
    offsets: Vec<u64>,
    /// Neighbor column; the stored prefix of each segment is authoritative.
    verts: Vec<VertexId>,
    /// Undirected edge id column, parallel to `verts`.
    eids: Vec<EdgeId>,
    /// Orientation rank of each neighbor, parallel to `verts`.
    nbr_ranks: Vec<u32>,
    /// Stored (not-yet-compacted) entries of each vertex. An upper bound
    /// on the live degree between compactions, exact right after one.
    live_deg: Vec<u32>,
}

impl FrontierAdjacency {
    /// Copies `g`'s adjacency into compactable form, caching each
    /// neighbor's `vertex_rank` alongside. O(m).
    pub fn new(g: &CsrGraph, vertex_rank: &[u32]) -> FrontierAdjacency {
        let n = g.num_vertices();
        let m = g.num_edges();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut verts = Vec::with_capacity(2 * m);
        let mut eids = Vec::with_capacity(2 * m);
        let mut nbr_ranks = Vec::with_capacity(2 * m);
        let mut live_deg = Vec::with_capacity(n);
        for v in 0..n as VertexId {
            let (ns, es) = (g.neighbors(v), g.neighbor_edge_ids(v));
            for (&w, &e) in ns.iter().zip(es) {
                verts.push(w);
                eids.push(e);
                nbr_ranks.push(vertex_rank[w as usize]);
            }
            live_deg.push(ns.len() as u32);
            offsets.push(verts.len() as u64);
        }
        FrontierAdjacency {
            offsets,
            verts,
            eids,
            nbr_ranks,
            live_deg,
        }
    }

    /// Stored entries of `v` — live degree plus dead entries not yet
    /// compacted away.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.live_deg[v as usize] as usize
    }

    /// The stored neighbor, edge-id and neighbor-rank columns of `v`.
    /// Entries whose edge has already peeled may still appear until the
    /// next compaction; callers must filter by the epoch/state array.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> (&[VertexId], &[EdgeId], &[u32]) {
        let start = self.offsets[v as usize] as usize;
        let end = start + self.live_deg[v as usize] as usize;
        (
            &self.verts[start..end],
            &self.eids[start..end],
            &self.nbr_ranks[start..end],
        )
    }

    /// The `i`-th stored entry of `v`'s column:
    /// `(neighbor, edge id, neighbor rank)`.
    #[inline]
    pub fn entry(&self, v: VertexId, i: usize) -> (VertexId, EdgeId, u32) {
        let p = self.offsets[v as usize] as usize + i;
        (self.verts[p], self.eids[p], self.nbr_ranks[p])
    }

    /// Swap-removes stored entry `i` of `v`'s column — O(1),
    /// order-perturbing (no walk relies on column order). Single-worker
    /// sub-iterations use this to retire a dead entry the moment a walk
    /// encounters it — the lazy twin of the serial pos-table removal, so
    /// hot columns never re-skip the same garbage. Fan-out sub-iterations
    /// never mutate columns and rely on [`Self::compact`] instead.
    #[inline]
    pub fn swap_remove_entry(&mut self, v: VertexId, i: usize) {
        let seg = self.offsets[v as usize] as usize;
        let last = self.live_deg[v as usize] as usize - 1;
        self.verts.swap(seg + i, seg + last);
        self.eids.swap(seg + i, seg + last);
        self.nbr_ranks.swap(seg + i, seg + last);
        self.live_deg[v as usize] = last as u32;
    }

    /// Drops every stored entry whose edge peeled before `epoch`
    /// (`state[e] < epoch`), in parallel over contiguous vertex chunks
    /// balanced by stored-entry count. Returns the number of entries
    /// removed. Must run at a bulk-synchronous barrier: no concurrent
    /// walks or state stores.
    pub fn compact(&mut self, state: &[AtomicU32], epoch: u32, threads: usize) -> u64 {
        let n = self.live_deg.len();
        if n == 0 {
            return 0;
        }
        let FrontierAdjacency {
            offsets,
            verts,
            eids,
            nbr_ranks,
            live_deg,
        } = self;
        let offsets: &[u64] = offsets;
        if threads <= 1 {
            return compact_chunk(
                offsets, 0, verts, eids, nbr_ranks, live_deg, 0, state, epoch,
            );
        }
        // Contiguous vertex chunks with near-equal stored-entry counts;
        // each worker owns disjoint column and live_deg slices, so the
        // pass is safe-Rust parallel via split_at_mut.
        let total: u64 = live_deg.iter().map(|&d| d as u64).sum();
        let target = total / threads as u64 + 1;
        let mut dropped = 0u64;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            let (mut verts_rest, mut eids_rest, mut ranks_rest) =
                (&mut verts[..], &mut eids[..], &mut nbr_ranks[..]);
            let mut deg_rest = &mut live_deg[..];
            let mut v_base = 0usize;
            let mut col_base = offsets[0];
            while v_base < n {
                // Grow the chunk until it carries ~`target` stored entries.
                let mut acc = 0u64;
                let mut v_end = v_base;
                while v_end < n && acc < target {
                    acc += deg_rest[v_end - v_base] as u64;
                    v_end += 1;
                }
                let cols = (offsets[v_end] - col_base) as usize;
                let (vc, vr) = verts_rest.split_at_mut(cols);
                let (ec, er) = eids_rest.split_at_mut(cols);
                let (rc, rr) = ranks_rest.split_at_mut(cols);
                let (dc, dr) = deg_rest.split_at_mut(v_end - v_base);
                (verts_rest, eids_rest, ranks_rest, deg_rest) = (vr, er, rr, dr);
                let (base_v, base_col) = (v_base, col_base);
                handles.push(scope.spawn(move || {
                    compact_chunk(offsets, base_v, vc, ec, rc, dc, base_col, state, epoch)
                }));
                v_base = v_end;
                col_base = offsets[v_end];
            }
            dropped = handles.into_iter().map(|h| h.join().unwrap()).sum();
        });
        dropped
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * 8
            + self.verts.len() * 4
            + self.eids.len() * 4
            + self.nbr_ranks.len() * 4
            + self.live_deg.len() * 4
    }

    /// Checks that every vertex's stored prefix is exactly its
    /// `alive`-filtered static neighbor list, order-insensitively.
    /// O(m log m); test/debug only.
    #[cfg(test)]
    pub fn assert_matches(&self, g: &CsrGraph, alive: &[bool]) {
        for v in 0..g.num_vertices() as VertexId {
            let (lv, le, lr) = self.neighbors(v);
            let mut live: Vec<(VertexId, EdgeId)> =
                lv.iter().copied().zip(le.iter().copied()).collect();
            live.sort_unstable();
            let mut expect: Vec<(VertexId, EdgeId)> = g
                .neighbors(v)
                .iter()
                .copied()
                .zip(g.neighbor_edge_ids(v).iter().copied())
                .filter(|&(_, e)| alive[e as usize])
                .collect();
            expect.sort_unstable();
            assert_eq!(live, expect, "stored segment of vertex {v} diverged");
            assert_eq!(lr.len(), lv.len(), "rank column of vertex {v} diverged");
        }
    }
}

/// Filters the stored prefix of every vertex in one chunk, keeping entries
/// whose edge has `state ≥ epoch`. `verts`/`eids`/`nbr_ranks` are the
/// chunk's column slices (global offset `col_base`), `live_deg` its
/// per-vertex counts (first vertex `v_base`). Returns entries dropped.
#[allow(clippy::too_many_arguments)]
fn compact_chunk(
    offsets: &[u64],
    v_base: usize,
    verts: &mut [VertexId],
    eids: &mut [EdgeId],
    nbr_ranks: &mut [u32],
    live_deg: &mut [u32],
    col_base: u64,
    state: &[AtomicU32],
    epoch: u32,
) -> u64 {
    let mut dropped = 0u64;
    for (i, deg) in live_deg.iter_mut().enumerate() {
        let seg = (offsets[v_base + i] - col_base) as usize;
        let stored = *deg as usize;
        let mut keep = 0usize;
        for j in 0..stored {
            let e = eids[seg + j];
            if state[e as usize].load(Relaxed) >= epoch {
                if keep != j {
                    verts[seg + keep] = verts[seg + j];
                    eids[seg + keep] = e;
                    nbr_ranks[seg + keep] = nbr_ranks[seg + j];
                }
                keep += 1;
            }
        }
        dropped += (stored - keep) as u64;
        *deg = keep as u32;
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use truss_graph::generators::classic::{complete, star};
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_triangle::list::ranks;

    /// Marks `dead` edges as peeled (state 0) with everything else
    /// unscheduled, so `compact(state, 1, ..)` drops exactly `dead`.
    fn state_killing(m: usize, dead: &[EdgeId]) -> Vec<AtomicU32> {
        let state: Vec<AtomicU32> = (0..m).map(|_| AtomicU32::new(u32::MAX)).collect();
        for &e in dead {
            state[e as usize].store(0, Relaxed);
        }
        state
    }

    #[test]
    fn fresh_adjacency_matches_graph() {
        let g = gnm(40, 200, 1);
        let live = FrontierAdjacency::new(&g, &ranks(&g));
        live.assert_matches(&g, &vec![true; g.num_edges()]);
        for v in 0..40 {
            assert_eq!(live.degree(v), g.degree(v));
        }
    }

    #[test]
    fn compaction_removes_exactly_the_dead() {
        for threads in [1, 2, 4] {
            for seed in 0..3u64 {
                let g = gnm(30, 180, seed);
                let m = g.num_edges();
                let mut live = FrontierAdjacency::new(&g, &ranks(&g));
                // Kill every third edge, then compact.
                let dead: Vec<EdgeId> = (0..m as EdgeId).filter(|e| e % 3 == 0).collect();
                let state = state_killing(m, &dead);
                let dropped = live.compact(&state, 1, threads);
                assert_eq!(dropped, 2 * dead.len() as u64, "{threads} threads");
                let mut alive = vec![true; m];
                for &e in &dead {
                    alive[e as usize] = false;
                }
                live.assert_matches(&g, &alive);
                // Idempotent: nothing left to drop at the same epoch.
                assert_eq!(live.compact(&state, 1, threads), 0);
            }
        }
    }

    #[test]
    fn repeated_compaction_reaches_empty() {
        let g = complete(9);
        let m = g.num_edges();
        let mut live = FrontierAdjacency::new(&g, &ranks(&g));
        let state = state_killing(m, &[]);
        // Peel edges in waves of increasing epoch; compact after each.
        let mut killed = 0usize;
        let mut epoch = 0u32;
        while killed < m {
            let wave: Vec<EdgeId> = (killed..(killed + 7).min(m)).map(|e| e as EdgeId).collect();
            for &e in &wave {
                state[e as usize].store(epoch, Relaxed);
            }
            killed += wave.len();
            epoch += 1;
            live.compact(&state, epoch, 3);
        }
        assert!((0..9).all(|v| live.degree(v) == 0));
    }

    #[test]
    fn star_hub_compacts_in_one_pass() {
        let g = star(500);
        let m = g.num_edges();
        let mut live = FrontierAdjacency::new(&g, &ranks(&g));
        let dead: Vec<EdgeId> = (0..(m / 2) as EdgeId).collect();
        let state = state_killing(m, &dead);
        assert_eq!(live.compact(&state, 1, 4), 2 * (m as u64 / 2));
        assert_eq!(live.degree(0), m - m / 2);
    }

    #[test]
    fn ranks_stay_paired_after_compaction() {
        let g = gnm(25, 140, 9);
        let m = g.num_edges();
        let rank = ranks(&g);
        let mut live = FrontierAdjacency::new(&g, &rank);
        let dead: Vec<EdgeId> = (0..m as EdgeId).filter(|e| e % 2 == 0).collect();
        let state = state_killing(m, &dead);
        live.compact(&state, 1, 2);
        for v in 0..25 {
            let (lv, _, lr) = live.neighbors(v);
            for (&w, &rw) in lv.iter().zip(lr) {
                assert_eq!(rw, rank[w as usize]);
            }
        }
    }
}
