//! The peel shared by TD-bottomup and TD-topdown: Procedures 5, 8, 9 and
//! 10 are one cascade peel of a candidate `H = NS(U_k)` with two
//! parameters.
//!
//! - **Which triangles count.** Bottom-up (Procedures 5 & 9) counts every
//!   triangle of `H`; top-down (Procedures 8 & 10) counts a triangle only
//!   when all three of its edges are *k-viable* (`class > 0 || ψ ≥ k`).
//! - **The bar.** An edge is peeled once its support drops below the bar:
//!   `k − 1` for bottom-up (peel `sup ≤ k − 2`), `k − 2` for top-down
//!   (peel `sup < k − 2`).
//!
//! Each engine also says which edges may be peeled (bottom-up: internal
//! edges; top-down: internal, unclassified edges with `ψ ≥ k`) and reads
//! its class off the result: the peeled edges are bottom-up's `Φ_k`, the
//! peelable survivors top-down's. Only internal edges are ever peeled:
//! `NS(U_k)` holds every edge incident to them, so their supports within
//! `H` are exact.
//!
//! [`peel`] runs the cascade on an edge set held in memory — all of `H`
//! when it fits the budget (Procedures 5 & 8), one pair bucket otherwise.
//! [`pair_sweep`] is the out-of-memory driver (Procedures 9 & 10): the
//! vertex set of `H` is partitioned at half budget and every *pair* of
//! parts is materialized in turn. The pair bucket `NS(P_i ∪ P_j)` contains
//! every edge incident to either part, so an edge whose endpoints lie in
//! parts `i` and `j` sees its complete neighborhood there — supports are
//! exact — and is examined in exactly one pair per sweep. Sweeps repeat
//! until one peels nothing: the fixpoint Procedures 9 & 10 reach, without
//! computing supports in a partially-dismantled graph.
//!
//! To avoid re-scanning `H` per pair (`O(p²)` scans), each sweep distributes
//! `H` once into `p` part files (`part file x` = edges incident to part `x`,
//! i.e. the edge set of `NS(P_x)`; every edge lands in at most two files).
//! A pair bucket is then the key-merged union of two part files.

use crate::decompose::improved::merge_common_neighbors;
use truss_graph::hash::FxHashSet;
use truss_graph::subgraph::from_parent_edges;
use truss_graph::Edge;
use truss_storage::partition::{plan_partition, PartitionStrategy};
use truss_storage::record::EdgeRec;
use truss_storage::{EdgeListFile, IoTracker, Partition, Result, ScratchDir, StorageError};
use truss_triangle::list::for_each_triangle;

/// The cascade peel of Procedures 5, 8, 9 and 10 on an edge set held in
/// memory.
///
/// `recs` must be sorted by edge and duplicate-free (the scan order of
/// `G_new` and of a pair bucket), so record `i` is local edge `i`. A
/// triangle counts toward the supports of its edges when `counts` accepts
/// all three; every peelable edge must itself count. An edge marked in
/// `peelable` is peeled once its support drops below `bar`, which removes
/// its counted triangles from the supports of its partners. Returns, per
/// record, whether the edge survived (edges that are not peelable always
/// do).
pub(crate) fn peel(
    recs: &[EdgeRec],
    counts: impl Fn(usize) -> bool,
    peelable: &[bool],
    bar: u32,
) -> Vec<bool> {
    let sub = from_parent_edges(recs.iter().map(|r| r.edge));
    let g = &sub.graph;
    let m = g.num_edges();
    debug_assert_eq!(m, recs.len());
    debug_assert!((0..m).all(|e| !peelable[e] || counts(e)));

    let mut sup = vec![0u32; m];
    for_each_triangle(g, |_, _, _, a, b, c| {
        let (a, b, c) = (a as usize, b as usize, c as usize);
        if counts(a) && counts(b) && counts(c) {
            sup[a] += 1;
            sup[b] += 1;
            sup[c] += 1;
        }
    });

    let mut alive = vec![true; m];
    let mut queued = vec![false; m];
    let mut stack: Vec<u32> = (0..m as u32)
        .filter(|&e| peelable[e as usize] && sup[e as usize] < bar)
        .collect();
    for &e in &stack {
        queued[e as usize] = true;
    }
    while let Some(e) = stack.pop() {
        alive[e as usize] = false;
        let edge = g.edge(e);
        merge_common_neighbors(g, edge.u, edge.v, |_, a, b| {
            let (a, b) = (a as usize, b as usize);
            // A counted triangle leaves the supports with its first
            // peeled edge, so no support is decremented twice for it.
            if alive[a] && alive[b] && counts(a) && counts(b) {
                for x in [a, b] {
                    sup[x] -= 1;
                    if peelable[x] && !queued[x] && sup[x] < bar {
                        queued[x] = true;
                        stack.push(x as u32);
                    }
                }
            }
        });
    }
    alive
}

/// The pair-sweep of Procedures 9 and 10, for a candidate `H = NS(U_k)`
/// that exceeds the memory budget.
///
/// `H` — the records of `g_new` with an endpoint in `U_k` (`in_uk`) — is
/// extracted to its own file once. Each sweep partitions the surviving `H`
/// into parts of at most `part_edges` edges with `strategy(sweep)`,
/// distributes it into part files, and hands every pair bucket to
/// `peel_bucket` with the mask of the edges the bucket owns: internal to
/// `U_k` and examined in this pair only (the pair of its endpoints' own
/// parts). `peel_bucket` returns, like [`peel`], which bucket edges
/// survived; the others join the peeled set, which every later load
/// filters out. Returns the peeled edge keys once a sweep peels nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pair_sweep(
    g_new: &EdgeListFile,
    in_uk: &[bool],
    part_edges: usize,
    max_sweeps: usize,
    strategy: impl Fn(usize) -> PartitionStrategy,
    mut peel_bucket: impl FnMut(&[EdgeRec], &[bool]) -> Vec<bool>,
    scratch: &ScratchDir,
    tracker: &IoTracker,
) -> Result<FxHashSet<u64>> {
    // Extract H once; all sweeps scan this smaller file.
    let mut h_writer = EdgeListFile::create(scratch.file("sweep-h"), tracker.clone())?;
    let mut err: Option<StorageError> = None;
    g_new.scan(|rec| {
        if err.is_none() && (in_uk[rec.edge.u as usize] || in_uk[rec.edge.v as usize]) {
            if let Err(e) = h_writer.push(rec) {
                err = Some(e);
            }
        }
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    let h = h_writer.finish()?;

    let mut peeled: FxHashSet<u64> = FxHashSet::default();
    for sweep in 0..max_sweeps {
        // Degrees within the surviving H.
        let mut degrees = vec![0u32; in_uk.len()];
        h.scan(|rec| {
            if !peeled.contains(&rec.edge.key()) {
                degrees[rec.edge.u as usize] += 1;
                degrees[rec.edge.v as usize] += 1;
            }
        })?;
        let partition = plan_partition(strategy(sweep), &degrees, part_edges, |f| {
            h.scan(|rec| {
                if !peeled.contains(&rec.edge.key()) {
                    f(rec.edge)
                }
            })
        })?;
        drop(degrees);
        let files = distribute_parts(&h, &peeled, &partition, scratch, tracker)?;
        let p = partition.num_parts() as u32;

        let mut sweep_peels = 0usize;
        for i in 0..p {
            for j in i..p {
                let bucket = load_pair(&files, i, j, &peeled)?;
                if bucket.is_empty() {
                    continue;
                }
                let owned: Vec<bool> = bucket
                    .iter()
                    .map(|r| {
                        let Edge { u, v } = r.edge;
                        let (cu, cv) = (partition.part_of(u), partition.part_of(v));
                        (cu.min(cv), cu.max(cv)) == (i, j) && in_uk[u as usize] && in_uk[v as usize]
                    })
                    .collect();
                let alive = peel_bucket(&bucket, &owned);
                for (r, _) in bucket.iter().zip(alive).filter(|(_, a)| !a) {
                    peeled.insert(r.edge.key());
                    sweep_peels += 1;
                }
            }
        }
        delete_parts(files);
        if sweep_peels == 0 {
            h.delete()?;
            return Ok(peeled);
        }
    }
    Err(StorageError::BudgetTooSmall(format!(
        "pair-sweep did not reach a fixpoint within {max_sweeps} sweeps"
    )))
}

/// Distributes the surviving edges of `h` (those not in `peeled`) into one
/// file per part: file `x` holds the edges with at least one endpoint in
/// part `x`, preserving `h`'s (sorted) order.
fn distribute_parts(
    h: &EdgeListFile,
    peeled: &FxHashSet<u64>,
    partition: &Partition,
    scratch: &ScratchDir,
    tracker: &IoTracker,
) -> Result<Vec<EdgeListFile>> {
    let p = partition.num_parts();
    let mut writers = Vec::with_capacity(p);
    for _ in 0..p {
        writers.push(EdgeListFile::create(
            scratch.file("sweep-part"),
            tracker.clone(),
        )?);
    }
    let mut err: Option<StorageError> = None;
    h.scan(|rec| {
        if err.is_some() || peeled.contains(&rec.edge.key()) {
            return;
        }
        let pu = partition.part_of(rec.edge.u) as usize;
        let pv = partition.part_of(rec.edge.v) as usize;
        if let Err(e) = writers[pu].push(rec) {
            err = Some(e);
            return;
        }
        if pv != pu {
            if let Err(e) = writers[pv].push(rec) {
                err = Some(e);
            }
        }
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    writers.into_iter().map(|w| w.finish()).collect()
}

/// Loads the pair bucket `NS(P_i ∪ P_j)`: the union of part files `i` and
/// `j`, merged by edge key (both are sorted), filtered by the *current*
/// peeled set (which may have grown since distribution).
fn load_pair(
    files: &[EdgeListFile],
    i: u32,
    j: u32,
    peeled: &FxHashSet<u64>,
) -> Result<Vec<EdgeRec>> {
    let mut a = Vec::with_capacity(files[i as usize].len() as usize);
    files[i as usize].scan(|rec| {
        if !peeled.contains(&rec.edge.key()) {
            a.push(rec);
        }
    })?;
    if i == j {
        return Ok(a);
    }
    let mut b = Vec::with_capacity(files[j as usize].len() as usize);
    files[j as usize].scan(|rec| {
        if !peeled.contains(&rec.edge.key()) {
            b.push(rec);
        }
    })?;
    // Merge two sorted runs, dropping the duplicate copies of edges that
    // live in both parts.
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut x, mut y) = (0usize, 0usize);
    while x < a.len() && y < b.len() {
        match a[x].edge.cmp(&b[y].edge) {
            std::cmp::Ordering::Less => {
                out.push(a[x]);
                x += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[y]);
                y += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[x]);
                x += 1;
                y += 1;
            }
        }
    }
    out.extend_from_slice(&a[x..]);
    out.extend_from_slice(&b[y..]);
    Ok(out)
}

/// Deletes sweep part files, ignoring already-missing ones.
fn delete_parts(files: Vec<EdgeListFile>) {
    for f in files {
        let _ = f.delete();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use truss_storage::partition::{plan_partition, PartitionStrategy};
    use truss_storage::record::RecordFile;

    fn rec(u: u32, v: u32) -> EdgeRec {
        EdgeRec::bare(Edge::new(u, v))
    }

    #[test]
    fn distribute_and_reload_covers_everything() {
        let scratch = ScratchDir::new().unwrap();
        let tracker = IoTracker::new();
        // Edges over 8 vertices, sorted.
        let recs: Vec<EdgeRec> = vec![
            rec(0, 1),
            rec(0, 5),
            rec(1, 2),
            rec(2, 6),
            rec(3, 7),
            rec(4, 5),
            rec(6, 7),
        ];
        let h = RecordFile::from_iter(scratch.file("h"), tracker.clone(), recs.clone()).unwrap();
        let degrees = {
            let mut d = vec![0u32; 8];
            for r in &recs {
                d[r.edge.u as usize] += 1;
                d[r.edge.v as usize] += 1;
            }
            d
        };
        let partition =
            plan_partition(PartitionStrategy::Sequential, &degrees, 6, |_| Ok(())).unwrap();
        let p = partition.num_parts() as u32;
        assert!(p >= 2);

        let peeled = FxHashSet::default();
        let files = distribute_parts(&h, &peeled, &partition, &scratch, &tracker).unwrap();

        // Every edge must be loadable from exactly its canonical pair and
        // the union over all pairs must cover all edges at least once.
        let mut seen: Vec<Edge> = Vec::new();
        for i in 0..p {
            for j in i..p {
                let bucket = load_pair(&files, i, j, &peeled).unwrap();
                assert!(
                    bucket.windows(2).all(|w| w[0].edge < w[1].edge),
                    "sorted+dedup"
                );
                for r in bucket {
                    let (cu, cv) = (partition.part_of(r.edge.u), partition.part_of(r.edge.v));
                    let canonical = (cu.min(cv), cu.max(cv)) == (i, j);
                    if canonical {
                        seen.push(r.edge);
                    }
                }
            }
        }
        seen.sort_unstable();
        let expect: Vec<Edge> = recs.iter().map(|r| r.edge).collect();
        assert_eq!(seen, expect);
        delete_parts(files);
    }

    #[test]
    fn peeled_filter_applies_at_load() {
        let scratch = ScratchDir::new().unwrap();
        let tracker = IoTracker::new();
        let recs = vec![rec(0, 1), rec(0, 2), rec(1, 2)];
        let h = RecordFile::from_iter(scratch.file("h"), tracker.clone(), recs).unwrap();
        let degrees = vec![2u32, 2, 2];
        let partition =
            plan_partition(PartitionStrategy::Sequential, &degrees, 100, |_| Ok(())).unwrap();
        let files =
            distribute_parts(&h, &FxHashSet::default(), &partition, &scratch, &tracker).unwrap();
        let mut peeled = FxHashSet::default();
        peeled.insert(Edge::new(0, 1).key());
        let bucket = load_pair(&files, 0, 0, &peeled).unwrap();
        assert_eq!(bucket.len(), 2);
        delete_parts(files);
    }
}
