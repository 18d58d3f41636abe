//! Procedure 6 — *UpperBounding*: `ψ(e)` for the top-down approach.
//!
//! For an edge `e = (u, v)` with exact support `sup(e)`, let `x_u` be the
//! largest `x` such that at least `x` edges incident to `u` **excluding `e`**
//! have support ≥ `x` (an h-index over the incident support multiset). Then
//! `ψ(e) = min(sup(e), x_u, x_v) + 2 ≥ ϕ(e)` (Lemma 2).
//!
//! I/O-efficient realization: instead of one neighborhood subgraph per
//! partition (whose later iterations would see a mutilated graph — the same
//! soundness trap as `DESIGN.md` §5.1), every edge is emitted once per
//! endpoint, the copies are grouped per vertex by an external sort, each
//! vertex group (≤ max degree ≤ budget) is h-indexed in memory, and the
//! per-endpoint `x` values are merged back per edge with a min-combiner.
//! Cost: two external sorts of `2m` records — `O((m/M)·scan(m))`.

use truss_storage::ext_sort::external_sort;
use truss_storage::record::{EdgeRec, FixedRecord, RecordFile};
use truss_storage::{EdgeListFile, IoConfig, IoTracker, Result, ScratchDir};

/// An edge copy keyed by one endpoint (`owner`), used to group incident
/// edges per vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VertexSideRec {
    owner: u32,
    rec: EdgeRec,
}

impl FixedRecord for VertexSideRec {
    const SIZE: usize = 4 + EdgeRec::SIZE;

    fn encode(&self, buf: &mut [u8]) {
        buf[0..4].copy_from_slice(&self.owner.to_le_bytes());
        self.rec.encode(&mut buf[4..]);
    }

    fn decode(buf: &[u8]) -> Self {
        VertexSideRec {
            owner: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            rec: EdgeRec::decode(&buf[4..]),
        }
    }

    fn sort_key(&self) -> u128 {
        ((self.owner as u128) << 64) | self.rec.edge.key() as u128
    }
}

/// The h-index of a support multiset: the largest `x` with at least `x`
/// values ≥ `x`. O(len) using a clipped counting array.
pub fn h_index(sups: &[u32]) -> u32 {
    let n = sups.len() as u32;
    let mut counts = vec![0u32; n as usize + 1];
    for &s in sups {
        counts[s.min(n) as usize] += 1;
    }
    let mut at_least = 0u32;
    for x in (0..=n).rev() {
        at_least += counts[x as usize];
        if at_least >= x {
            return x;
        }
    }
    0
}

/// `x_u(e)` for every incident edge of one vertex: the h-index of the
/// incident supports excluding each edge in turn. Excluding one element
/// changes the h-index by at most 1: it drops to `h − 1` exactly when the
/// excluded support is ≥ `h` and only `h` elements reach `h`.
fn per_edge_h_excluding(sups: &[u32]) -> Vec<u32> {
    let h = h_index(sups);
    let reaching = sups.iter().filter(|&&s| s >= h).count() as u32;
    sups.iter()
        .map(|&s| {
            if s >= h && reaching == h && h > 0 {
                h - 1
            } else {
                h
            }
        })
        .collect()
}

/// Computes `ψ(e)` for every edge of `g_new` (which must carry exact
/// supports from LowerBounding). Returns a new sorted edge file whose
/// `bound` field holds `ψ(e)`; `sup` and `class` are preserved.
pub fn upper_bounding(
    g_new: &EdgeListFile,
    scratch: &ScratchDir,
    tracker: &IoTracker,
    io: &IoConfig,
) -> Result<EdgeListFile> {
    // Emit one copy per endpoint.
    let mut sides = RecordFile::<VertexSideRec>::create(scratch.file("ub-sides"), tracker.clone())?;
    let mut err: Option<truss_storage::StorageError> = None;
    g_new.scan(|rec| {
        if err.is_some() {
            return;
        }
        for owner in [rec.edge.u, rec.edge.v] {
            if let Err(e) = sides.push(VertexSideRec { owner, rec }) {
                err = Some(e);
                return;
            }
        }
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    let sides = sides.finish()?;
    let grouped = external_sort(&sides, scratch, tracker, io, None)?;
    sides.delete()?;

    // Stream vertex groups; per edge, emit a record whose `bound` is the
    // endpoint's x value. The min-combiner of the final sort folds the two
    // endpoint values together.
    let mut xrecs = EdgeListFile::create(scratch.file("ub-x"), tracker.clone())?;
    let mut group: Vec<EdgeRec> = Vec::new();
    let mut group_owner: Option<u32> = None;
    let mut err: Option<truss_storage::StorageError> = None;
    let flush = |owner: Option<u32>,
                 group: &mut Vec<EdgeRec>,
                 out: &mut truss_storage::record::RecordWriter<EdgeRec>|
     -> Result<()> {
        let _ = owner;
        if group.is_empty() {
            return Ok(());
        }
        let sups: Vec<u32> = group.iter().map(|r| r.sup).collect();
        let xs = per_edge_h_excluding(&sups);
        for (rec, x) in group.iter().zip(xs) {
            out.push(EdgeRec { bound: x, ..*rec })?;
        }
        group.clear();
        Ok(())
    };
    grouped.scan(|side| {
        if err.is_some() {
            return;
        }
        if group_owner != Some(side.owner) {
            if let Err(e) = flush(group_owner, &mut group, &mut xrecs) {
                err = Some(e);
                return;
            }
            group_owner = Some(side.owner);
        }
        group.push(side.rec);
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    flush(group_owner, &mut group, &mut xrecs)?;
    grouped.delete()?;
    let xrecs = xrecs.finish()?;

    // Merge the two per-endpoint x values (min) and finish ψ = min(sup, x)+2.
    let merged = external_sort(&xrecs, scratch, tracker, io, Some(min_bound))?;
    xrecs.delete()?;
    let mut out = EdgeListFile::create(scratch.file("ub-psi"), tracker.clone())?;
    let mut err: Option<truss_storage::StorageError> = None;
    merged.scan(|rec| {
        if err.is_some() {
            return;
        }
        let psi = rec.sup.min(rec.bound) + 2;
        if let Err(e) = out.push(EdgeRec { bound: psi, ..rec }) {
            err = Some(e);
        }
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    merged.delete()?;
    out.finish()
}

/// Combiner keeping the smaller endpoint bound.
fn min_bound(a: EdgeRec, b: EdgeRec) -> EdgeRec {
    debug_assert_eq!(a.edge, b.edge);
    EdgeRec {
        bound: a.bound.min(b.bound),
        ..a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::lower_bounding;
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_graph::generators::figures::figure2_graph;
    use truss_graph::{CsrGraph, Edge};
    use truss_triangle::external::{edge_list_from_graph, PassConfig};

    #[test]
    fn h_index_basics() {
        assert_eq!(h_index(&[]), 0);
        assert_eq!(h_index(&[0, 0, 0]), 0);
        assert_eq!(h_index(&[5]), 1);
        assert_eq!(h_index(&[3, 3, 3]), 3);
        assert_eq!(h_index(&[1, 2, 3, 4, 5]), 3);
        assert_eq!(h_index(&[3, 3, 3, 4, 1, 1]), 3);
        assert_eq!(h_index(&[2, 2, 1, 1, 1]), 2);
    }

    #[test]
    fn per_edge_exclusion() {
        // {3,3,3}: h=3, reaching=3 → excluding any drops to 2.
        assert_eq!(per_edge_h_excluding(&[3, 3, 3]), vec![2, 2, 2]);
        // {3,3,3,4,1,1}: h=3, reaching=4 → stays 3 everywhere.
        assert_eq!(per_edge_h_excluding(&[3, 3, 3, 4, 1, 1]), vec![3; 6]);
        // {2,2,1}: h=2, reaching=2 → excluding a 2 gives 1; excluding the 1
        // keeps 2.
        assert_eq!(per_edge_h_excluding(&[2, 2, 1]), vec![1, 1, 2]);
    }

    fn psi_for(g: &CsrGraph) -> Vec<EdgeRec> {
        let scratch = ScratchDir::new().unwrap();
        let tracker = IoTracker::new();
        let input = edge_list_from_graph(g, scratch.file("g"), tracker.clone()).unwrap();
        let io = IoConfig::with_budget(1 << 20);
        let cfg = PassConfig::new(io);
        let lb = lower_bounding(&input, g.num_vertices(), &scratch, &tracker, &cfg, false).unwrap();
        let psi = upper_bounding(&lb.g_new, &scratch, &tracker, &io).unwrap();
        psi.read_all().unwrap()
    }

    #[test]
    fn figure2_example4_bounds() {
        // Example 4: ψ((d,g)) = 4 and ψ(e) = 5 on the whole 5-class.
        let g = figure2_graph();
        let psi = psi_for(&g);
        let lookup = |a: u32, b: u32| {
            psi.iter()
                .find(|r| r.edge == Edge::new(a, b))
                .unwrap()
                .bound
        };
        assert_eq!(lookup(3, 6), 4); // (d, g)
        for (a, b) in [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)] {
            assert_eq!(lookup(a, b), 5, "K5 edge ({a},{b})");
        }
        // Example 5 walkthrough values used by the top-down rounds:
        assert_eq!(lookup(4, 6), 4); // (e, g)
        assert_eq!(lookup(5, 7), 4); // (f, h)
    }

    #[test]
    fn psi_upper_bounds_trussness() {
        for seed in 0..4 {
            let g = gnm(60, 420, seed);
            let exact = crate::decompose::truss_decompose_naive(&g);
            for rec in psi_for(&g) {
                let id = g.edge_id(rec.edge.u, rec.edge.v).unwrap();
                let t = exact.edge_trussness(id);
                assert!(
                    rec.bound >= t,
                    "edge {:?}: ψ={} < ϕ={t}",
                    rec.edge,
                    rec.bound
                );
            }
        }
    }

    #[test]
    fn psi_works_under_tiny_budget() {
        let g = gnm(50, 300, 2);
        let scratch = ScratchDir::new().unwrap();
        let tracker = IoTracker::new();
        let input = edge_list_from_graph(&g, scratch.file("g"), tracker.clone()).unwrap();
        let io = IoConfig {
            memory_budget: 64 * 48,
            block_size: 256,
        };
        let cfg = PassConfig::new(io);
        let lb = lower_bounding(&input, g.num_vertices(), &scratch, &tracker, &cfg, false).unwrap();
        let psi_small = upper_bounding(&lb.g_new, &scratch, &tracker, &io).unwrap();
        let small = psi_small.read_all().unwrap();
        let big = psi_for(&g);
        assert_eq!(small, big);
    }
}
