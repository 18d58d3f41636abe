//! Cohen's graph-twiddling truss algorithm on MapReduce (*TD-MR*) \[16\].
//!
//! For a threshold `k`, one *peeling iteration* is a six-job pipeline:
//!
//! | job | purpose |
//! |-----|---------|
//! | J1  | per-vertex degrees |
//! | J2  | join `deg(u)` onto each edge (keyed by `u`) |
//! | J3  | join `deg(v)` onto each edge (keyed by `v`) |
//! | J4  | emit open wedges from each edge's *pivot* endpoint (the `(degree, id)`-smaller one) plus edge-existence markers |
//! | J5  | close wedges into triangles, emit per-edge count contributions |
//! | J6  | sum counts per edge, keep edges with `sup ≥ k − 2`, drop the rest |
//!
//! The iteration repeats until no edge is dropped (the surviving edges are
//! the `k`-truss), and the decomposition repeats that for every `k` — the
//! iterative full-data rounds that make the MapReduce approach lose by
//! orders of magnitude (Table 4). Each triangle is detected exactly once:
//! at the unique vertex that is the pivot of two of its edges (a cyclic
//! pivot pattern is impossible under a total order on vertices).

use crate::engine::{Emit, Job, KvRec, MapReduce, MrStats};
use truss_core::decompose::TrussDecomposition;
use truss_graph::{CsrGraph, Edge};
use truss_storage::record::RecordFile;
use truss_storage::{IoConfig, IoStats, Result, StorageError};

const TAG_DEG: u32 = 0;
const TAG_EDGE: u32 = 1;
const TAG_WEDGE: u32 = 2;
const TAG_COUNT: u32 = 2;
const TAG_DROPPED: u32 = 3;

/// Vertex keys live in the top half of the key space so they can never
/// collide with packed edge keys (which need vertex ids < 2³¹).
fn vkey(v: u32) -> u64 {
    (1u64 << 63) | v as u64
}

/// Execution report of a TD-MR run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MrTrussReport {
    /// Engine counters (jobs, shuffle volume, groups).
    pub stats: MrStats,
    /// Disk traffic.
    pub io: IoStats,
    /// Total peeling iterations (each is a 6-job pipeline).
    pub peel_iterations: u64,
    /// Σ sup(e) over the input (= 3 × triangles): the first iteration's
    /// J6 counts, taken while every edge is still present.
    pub support_sum: u64,
}

/// One peeling iteration at threshold `need = k − 2`. Returns the surviving
/// edge file, the dropped edges, and the Σ of the supports J6 counted.
fn peel_iteration(
    mr: &mut MapReduce,
    edges: &RecordFile<KvRec>,
    need: u32,
) -> Result<(RecordFile<KvRec>, Vec<Edge>, u64)> {
    // J1: degrees.
    let degrees = mr.run(
        &[edges],
        Job {
            map: |rec: &KvRec, emit: &mut Emit| {
                emit.emit(KvRec::new(vkey(rec.vals[0]), TAG_DEG, [1, 0, 0, 0]));
                emit.emit(KvRec::new(vkey(rec.vals[1]), TAG_DEG, [1, 0, 0, 0]));
            },
            reduce: |key, group: &[KvRec], emit: &mut Emit| {
                let deg: u32 = group.iter().map(|r| r.vals[0]).sum();
                emit.emit(KvRec::new(key, TAG_DEG, [deg, 0, 0, 0]));
            },
        },
    )?;

    // J2: attach deg(u), re-key by v.
    let with_du = mr.run(
        &[&degrees, edges],
        Job {
            map: |rec: &KvRec, emit: &mut Emit| {
                if rec.tag == TAG_DEG {
                    emit.emit(*rec);
                } else {
                    emit.emit(KvRec::new(
                        vkey(rec.vals[0]),
                        TAG_EDGE,
                        [rec.vals[0], rec.vals[1], 0, 0],
                    ));
                }
            },
            reduce: |_, group: &[KvRec], emit: &mut Emit| {
                // TAG_DEG sorts before TAG_EDGE.
                let deg = group[0].vals[0];
                debug_assert_eq!(group[0].tag, TAG_DEG);
                for rec in &group[1..] {
                    emit.emit(KvRec::new(
                        vkey(rec.vals[1]),
                        TAG_EDGE,
                        [rec.vals[0], rec.vals[1], deg, 0],
                    ));
                }
            },
        },
    )?;
    // J3: attach deg(v), re-key by the edge. Degree records are joined in
    // again (J2's reducer consumed them without re-emitting).
    let with_degs = mr.run(
        &[&degrees, &with_du],
        Job {
            map: |rec: &KvRec, emit: &mut Emit| emit.emit(*rec),
            reduce: |_, group: &[KvRec], emit: &mut Emit| {
                let deg = group[0].vals[0];
                debug_assert_eq!(group[0].tag, TAG_DEG);
                for rec in &group[1..] {
                    let e = Edge::new(rec.vals[0], rec.vals[1]);
                    emit.emit(KvRec::new(
                        e.key(),
                        TAG_EDGE,
                        [rec.vals[0], rec.vals[1], rec.vals[2], deg],
                    ));
                }
            },
        },
    )?;
    degrees.delete()?;
    with_du.delete()?;

    // J4: wedges from pivots + edge markers.
    let wedges = mr.run(
        &[&with_degs],
        Job {
            map: |rec: &KvRec, emit: &mut Emit| {
                let (u, v, du, dv) = (rec.vals[0], rec.vals[1], rec.vals[2], rec.vals[3]);
                let pivot = if (du, u) <= (dv, v) { u } else { v };
                let other = if pivot == u { v } else { u };
                emit.emit(KvRec::new(vkey(pivot), TAG_WEDGE, [other, 0, 0, 0]));
                emit.emit(KvRec::new(Edge::new(u, v).key(), TAG_EDGE, [u, v, 0, 0]));
            },
            reduce: |key, group: &[KvRec], emit: &mut Emit| {
                if key & (1 << 63) != 0 {
                    // Pivot group: all pairs of pivot-owned neighbors.
                    let pivot = (key & !(1u64 << 63)) as u32;
                    for (i, a) in group.iter().enumerate() {
                        for b in &group[i + 1..] {
                            let (x, y) = (a.vals[0], b.vals[0]);
                            if x != y {
                                emit.emit(KvRec::new(
                                    Edge::new(x, y).key(),
                                    TAG_WEDGE,
                                    [pivot, 0, 0, 0],
                                ));
                            }
                        }
                    }
                } else {
                    // Edge marker: pass through.
                    for rec in group {
                        emit.emit(*rec);
                    }
                }
            },
        },
    )?;
    with_degs.delete()?;

    // J5: close wedges → per-edge triangle count contributions (and keep
    // edge markers flowing for the final join).
    let counts = mr.run(
        &[&wedges],
        Job {
            map: |rec: &KvRec, emit: &mut Emit| emit.emit(*rec),
            reduce: |_, group: &[KvRec], emit: &mut Emit| {
                // TAG_EDGE (1) sorts before TAG_WEDGE (2).
                let edge_rec = group.iter().find(|r| r.tag == TAG_EDGE);
                if let Some(edge_rec) = edge_rec {
                    let (u, v) = (edge_rec.vals[0], edge_rec.vals[1]);
                    emit.emit(*edge_rec);
                    for rec in group.iter().filter(|r| r.tag == TAG_WEDGE) {
                        let w = rec.vals[0];
                        // Triangle {u, v, w}.
                        for e in [Edge::new(u, v), Edge::new(u, w), Edge::new(v, w)] {
                            emit.emit(KvRec::new(e.key(), TAG_COUNT, [1, 0, 0, 0]));
                        }
                    }
                }
            },
        },
    )?;
    wedges.delete()?;

    // J6: sum per-edge counts, keep or drop.
    let need_local = need;
    let joined = mr.run(
        &[&counts],
        Job {
            map: |rec: &KvRec, emit: &mut Emit| emit.emit(*rec),
            reduce: move |key, group: &[KvRec], emit: &mut Emit| {
                let edge_rec = group.iter().find(|r| r.tag == TAG_EDGE);
                let sup: u32 = group
                    .iter()
                    .filter(|r| r.tag == TAG_COUNT)
                    .map(|r| r.vals[0])
                    .sum();
                if let Some(edge_rec) = edge_rec {
                    let tag = if sup >= need_local {
                        TAG_EDGE
                    } else {
                        TAG_DROPPED
                    };
                    emit.emit(KvRec::new(
                        key,
                        tag,
                        [edge_rec.vals[0], edge_rec.vals[1], sup, 0],
                    ));
                }
            },
        },
    )?;
    counts.delete()?;

    // Split survivors from dropped (a local filter pass, not an MR job).
    let mut survivors = RecordFile::<KvRec>::create(mr.scratch().file("mr-edges"), mr.tracker())?;
    let mut dropped = Vec::new();
    let mut support_sum = 0u64;
    let mut err: Option<StorageError> = None;
    joined.scan(|rec| {
        if err.is_some() {
            return;
        }
        support_sum += u64::from(rec.vals[2]);
        if rec.tag == TAG_EDGE {
            if let Err(e) = survivors.push(KvRec::new(
                rec.key,
                TAG_EDGE,
                [rec.vals[0], rec.vals[1], 0, 0],
            )) {
                err = Some(e);
            }
        } else {
            dropped.push(Edge::new(rec.vals[0], rec.vals[1]));
        }
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    joined.delete()?;
    Ok((survivors.finish()?, dropped, support_sum))
}

/// Computes the `k`-truss edge set with the MR pipeline (iterate until no
/// edge is dropped).
pub fn mr_ktruss(g: &CsrGraph, k: u32, io: IoConfig) -> Result<(Vec<Edge>, MrTrussReport)> {
    assert!(
        g.num_vertices() < (1 << 31),
        "vertex ids must fit in 31 bits"
    );
    let mut mr = MapReduce::new(io)?;
    let mut edges = mr.input_file(
        g.iter_edges()
            .map(|(_, e)| KvRec::new(e.key(), TAG_EDGE, [e.u, e.v, 0, 0])),
    )?;
    let mut report = MrTrussReport::default();
    loop {
        report.peel_iterations += 1;
        let (survivors, dropped, support_sum) =
            peel_iteration(&mut mr, &edges, k.saturating_sub(2))?;
        if report.peel_iterations == 1 {
            report.support_sum = support_sum;
        }
        edges.delete()?;
        edges = survivors;
        if dropped.is_empty() || edges.is_empty() {
            break;
        }
    }
    let mut out = Vec::new();
    edges.scan(|rec| out.push(Edge::new(rec.vals[0], rec.vals[1])))?;
    out.sort_unstable();
    report.stats = mr.stats();
    report.io = mr.io_stats();
    Ok((out, report))
}

/// Full truss decomposition with the MR pipeline (*TD-MR*): for each `k`
/// from 3 upward, peel to the `k`-truss; edges dropped while peeling toward
/// the `k`-truss have truss number `k − 1`.
pub fn mr_truss_decompose(
    g: &CsrGraph,
    io: IoConfig,
) -> Result<(TrussDecomposition, MrTrussReport)> {
    mr_truss_decompose_in(g, io, truss_storage::ScratchDir::new()?)
}

/// [`mr_truss_decompose`] with caller-provided scratch space (the engine
/// layer routes its configured scratch directory here).
pub fn mr_truss_decompose_in(
    g: &CsrGraph,
    io: IoConfig,
    scratch: truss_storage::ScratchDir,
) -> Result<(TrussDecomposition, MrTrussReport)> {
    assert!(
        g.num_vertices() < (1 << 31),
        "vertex ids must fit in 31 bits"
    );
    let mut mr = MapReduce::new_in(io, scratch);
    let mut edges = mr.input_file(
        g.iter_edges()
            .map(|(_, e)| KvRec::new(e.key(), TAG_EDGE, [e.u, e.v, 0, 0])),
    )?;
    let mut trussness = vec![0u32; g.num_edges()];
    let mut report = MrTrussReport::default();
    let mut k = 3u32;
    while !edges.is_empty() {
        loop {
            report.peel_iterations += 1;
            let (survivors, dropped, support_sum) = peel_iteration(&mut mr, &edges, k - 2)?;
            if report.peel_iterations == 1 {
                report.support_sum = support_sum;
            }
            edges.delete()?;
            edges = survivors;
            let progressed = !dropped.is_empty();
            for e in dropped {
                let id = g
                    .edge_id(e.u, e.v)
                    .ok_or_else(|| StorageError::Corrupt(format!("unknown edge {e:?}")))?;
                trussness[id as usize] = k - 1;
            }
            if !progressed || edges.is_empty() {
                break;
            }
        }
        k += 1;
    }
    report.stats = mr.stats();
    report.io = mr.io_stats();
    Ok((TrussDecomposition::from_trussness(trussness), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use truss_core::decompose::truss_decompose;
    use truss_graph::generators::classic::complete;
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_graph::generators::figures::{figure2_classes, figure2_graph};

    fn io() -> IoConfig {
        IoConfig::with_budget(1 << 16)
    }

    #[test]
    fn figure2_golden() {
        let g = figure2_graph();
        let (d, report) = mr_truss_decompose(&g, io()).unwrap();
        assert_eq!(d.classes_as_edges(&g), figure2_classes());
        // The MR pipeline is round-hungry: at least kmax rounds of 6 jobs.
        assert!(report.stats.jobs >= 6 * 4);
        assert!(report.stats.shuffled_records > 0);
    }

    #[test]
    fn ktruss_of_clique() {
        let g = complete(6);
        let (t6, _) = mr_ktruss(&g, 6, io()).unwrap();
        assert_eq!(t6.len(), 15);
        let (t7, _) = mr_ktruss(&g, 7, io()).unwrap();
        assert!(t7.is_empty());
    }

    #[test]
    fn matches_in_memory_on_random_graphs() {
        for seed in 0..3 {
            let g = gnm(40, 220, seed);
            let exact = truss_decompose(&g);
            let (d, _) = mr_truss_decompose(&g, io()).unwrap();
            assert_eq!(d.trussness(), exact.trussness(), "seed {seed}");
        }
    }

    #[test]
    fn ktruss_matches_peeling() {
        let g = gnm(40, 260, 9);
        let exact = truss_decompose(&g);
        for k in 3..=exact.k_max() {
            let (mr_edges, _) = mr_ktruss(&g, k, io()).unwrap();
            let mut expect: Vec<Edge> = exact
                .truss_edge_ids(k)
                .into_iter()
                .map(|id| g.edge(id))
                .collect();
            expect.sort_unstable();
            assert_eq!(mr_edges, expect, "k = {k}");
        }
    }
}
