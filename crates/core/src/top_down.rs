//! Algorithm 7 + Procedures 8 & 10 — *TD-topdown*, the top-t truss
//! decomposition.
//!
//! After stage 1 (exact supports, `Φ_2` removed) and UpperBounding
//! (`ψ(e) ≥ ϕ(e)`), classes are computed from the largest `k` downward. Per
//! round, the candidate `H = NS(U_k)` with
//! `U_k = {v : ∃ unclassified e = (u, v), ψ(e) ≥ k}` is peeled and the
//! *surviving* internal edges are `Φ_k` (Procedure 8); classified edges
//! that no longer support any unclassified triangle are dropped from
//! `G_new` (Steps 7–9).
//!
//! Procedure 8 peels `H` in memory; Procedure 10 is the pair-sweep for an
//! `H` that exceeds the budget. Both are the peel TD-bottomup's Procedures
//! 5 and 9 use too (`sweep`), with two parameters: a triangle counts only
//! when its three edges are k-viable (below), and the bar is `k − 2` (an
//! internal, unclassified edge with `ψ ≥ k` is peeled at `sup < k − 2`).
//!
//! ## Viable supports (`DESIGN.md` §5.2)
//!
//! A triangle counts toward a support at level `k` only if **both partner
//! edges are k-viable**: already classified (their truss number is > k by
//! the top-down order), or unclassified with `ψ ≥ k`. An unclassified edge
//! with `ψ < k` is provably outside `T_k`, so its triangles must not keep
//! an internal edge alive — on the paper's own Example 5 a raw count would
//! wrongly put `(d, g)` into `Φ_4` via its triangles with `(d, k)`/`(d, l)`.
//!
//! *Soundness*: every edge of `T_k` is viable (classified edges of `T_k`
//! have truss > k; unclassified ones have `ψ ≥ ϕ = k`), so a viable count
//! is ≥ the support within `T_k` and no `T_k` edge is ever peeled.
//! *Completeness*: survivors plus classified edges form a subgraph where
//! every edge has ≥ `k − 2` triangles, hence survivors ⊆ `T_k`; having been
//! unclassified at round `k`, their truss number is exactly `k`.
//!
//! ## `k_init` batching (§6.3, `DESIGN.md` §5.3)
//!
//! When the first upper bound `k_1st` far exceeds the true `k_max`, the
//! algorithm finds the smallest `k_init` whose candidate fits in memory and
//! solves the whole band `k ≥ k_init` with one in-memory decomposition of
//! `H(k_init)` — valid because `T_k(G_new) ⊆ H` for all `k ≥ k_init`
//! implies `T_k(H) = T_k(G_new)`.

use crate::decompose::improved::merge_common_neighbors;
use crate::decompose::{truss_decompose, TrussDecomposition};
use crate::lower_bound::lower_bounding;
use crate::sweep;
use crate::upper_bound::upper_bounding;
use std::collections::BTreeMap;
use truss_graph::subgraph::from_parent_edges;
use truss_graph::{CsrGraph, Edge};
use truss_storage::partition::PartitionStrategy;
use truss_storage::record::EdgeRec;
use truss_storage::{EdgeListFile, IoConfig, IoStats, IoTracker, Result, ScratchDir, StorageError};
use truss_triangle::external::{edge_list_from_graph_windowed, PassConfig};

/// Configuration of TD-topdown.
#[derive(Debug, Clone, Copy)]
pub struct TopDownConfig {
    /// Memory budget and block size.
    pub io: IoConfig,
    /// Partitioner for stage 1 and the pair-sweep.
    pub strategy: PartitionStrategy,
    /// Bytes charged per candidate edge held in memory.
    pub bytes_per_edge: usize,
    /// Compute only the top `t` classes (`None` = all, down to `Φ_2`).
    pub top_t: Option<u32>,
    /// Enable the `k_init` batching optimization.
    pub use_kinit: bool,
    /// Enable the Steps 7–9 cleanup of classified edges (pruning only;
    /// correctness never depends on it — an ablation axis).
    pub use_cleanup: bool,
    /// Cap on pair-sweep fixpoint rounds per k.
    pub max_sweeps: usize,
}

impl TopDownConfig {
    /// Defaults: all classes, `k_init` on, random partitioning.
    pub fn new(io: IoConfig) -> Self {
        TopDownConfig {
            io,
            strategy: PartitionStrategy::Random { seed: 0x70_d0 },
            bytes_per_edge: 64,
            top_t: None,
            use_kinit: true,
            use_cleanup: true,
            max_sweeps: 10_000,
        }
    }

    /// Same configuration restricted to the top `t` classes.
    pub fn top_t(mut self, t: u32) -> Self {
        self.top_t = Some(t);
        self
    }
}

/// Execution report for the experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopDownReport {
    /// Disk traffic.
    pub io: IoStats,
    /// k-rounds executed (excluding the `k_init` batch).
    pub rounds: usize,
    /// Rounds where `H` exceeded memory (Procedure 10).
    pub oversized_rounds: usize,
    /// Largest `k` with a non-empty class (0 if none found).
    pub k_max: u32,
    /// The initial upper bound `k_1st = max ψ`.
    pub k_first: u32,
    /// The `k_init` used, if batching kicked in.
    pub k_init: Option<u32>,
    /// Σ sup(e) over the input (= 3 × triangles), from stage 1's exact
    /// supports.
    pub support_sum: u64,
    /// Σ candidate edges across rounds.
    pub candidate_edges_total: u64,
}

/// Classes computed by TD-topdown.
#[derive(Debug, Clone)]
pub struct TopDownResult {
    /// `k → Φ_k` (sorted edges) for every computed class; includes `Φ_2`
    /// only when the run is complete.
    pub classes: BTreeMap<u32, Vec<Edge>>,
    /// Largest `k` with a non-empty class.
    pub k_max: u32,
    /// True when every edge was classified (t was large enough).
    pub complete: bool,
}

impl TopDownResult {
    /// Converts a **complete** result into a [`TrussDecomposition`] over
    /// `g`'s edge ids. Returns `None` when incomplete.
    pub fn to_decomposition(&self, g: &CsrGraph) -> Option<TrussDecomposition> {
        if !self.complete {
            return None;
        }
        let mut trussness = vec![0u32; g.num_edges()];
        for (&k, edges) in &self.classes {
            for e in edges {
                let id = g.edge_id(e.u, e.v)?;
                trussness[id as usize] = k;
            }
        }
        if trussness.iter().any(|&t| t < 2) {
            return None;
        }
        Some(TrussDecomposition::from_trussness(trussness))
    }
}

/// Runs TD-topdown on a graph (spilled to scratch disk first).
pub fn top_down_decompose(
    g: &CsrGraph,
    cfg: &TopDownConfig,
) -> Result<(TopDownResult, TopDownReport)> {
    let scratch = ScratchDir::new()?;
    top_down_decompose_in(g, cfg, &scratch)
}

/// [`top_down_decompose`] with caller-provided scratch space (the engine
/// layer routes its configured scratch directory here).
pub fn top_down_decompose_in(
    g: &CsrGraph,
    cfg: &TopDownConfig,
    scratch: &ScratchDir,
) -> Result<(TopDownResult, TopDownReport)> {
    let tracker = IoTracker::new();
    let input = edge_list_from_graph_windowed(
        g,
        scratch.file("input"),
        tracker.clone(),
        (cfg.io.memory_budget / 4).max(1 << 16),
    )?;
    let n = g.num_vertices();

    // Step 1: supports + Φ2 (Algorithm 3 without φ), then Step 2: ψ.
    let mut pass_cfg = PassConfig::new(cfg.io);
    pass_cfg.strategy = cfg.strategy;
    let lb = lower_bounding(&input, n, scratch, &tracker, &pass_cfg, false)?;
    let phi2: Vec<Edge> = {
        let mut v = Vec::new();
        lb.phi2.scan(|r| v.push(r.edge))?;
        lb.phi2.delete()?;
        v
    };
    let mut g_new = upper_bounding(&lb.g_new, scratch, &tracker, &cfg.io)?;
    lb.g_new.delete()?;

    let mut report = TopDownReport {
        support_sum: lb.support_sum,
        ..TopDownReport::default()
    };
    let mut classes: BTreeMap<u32, Vec<Edge>> = BTreeMap::new();
    let mut unclassified = g_new.len();
    let edge_budget = (cfg.io.memory_budget / cfg.bytes_per_edge).max(4) as u64;
    // Half budget so a pair of parts fits in memory.
    let part_edges = (cfg.io.memory_budget / cfg.bytes_per_edge).max(8) / 2;

    // Step 3: k ← max ψ.
    let mut k_first = 0u32;
    g_new.scan(|rec| k_first = k_first.max(rec.bound))?;
    report.k_first = k_first;
    let mut k = k_first;
    let mut k_max = 0u32;

    // k_init batching: find the smallest k whose candidate fits in memory
    // and solve the whole top band at once.
    if cfg.use_kinit && unclassified > 0 {
        let fits = |k: u32| -> Result<bool> {
            let in_uk = mark_uk(&g_new, n, k)?;
            let mut count = 0u64;
            g_new.scan(|rec| {
                if in_uk[rec.edge.u as usize] || in_uk[rec.edge.v as usize] {
                    count += 1;
                }
            })?;
            Ok(count <= edge_budget)
        };
        {
            // Binary search the smallest fitting k in [3, k_first]
            // (candidate size is monotone decreasing in k).
            let (mut lo, mut hi) = (3u32, k_first.max(3));
            let mut k_init = None;
            while lo <= hi {
                let mid = lo + (hi - lo) / 2;
                if fits(mid)? {
                    k_init = Some(mid);
                    if mid == lo {
                        break;
                    }
                    hi = mid - 1;
                } else {
                    lo = mid + 1;
                }
            }
            if let Some(ki) = k_init {
                report.k_init = Some(ki);
                let in_uk = mark_uk(&g_new, n, ki)?;
                let mut cands: Vec<EdgeRec> = Vec::new();
                g_new.scan(|rec| {
                    if in_uk[rec.edge.u as usize] || in_uk[rec.edge.v as usize] {
                        cands.push(rec);
                    }
                })?;
                let sub = from_parent_edges(cands.iter().map(|r| r.edge));
                let local = truss_decompose(&sub.graph);
                let mut newly: Vec<(Edge, u32)> = Vec::new();
                for (i, &t) in local.trussness().iter().enumerate() {
                    if t >= ki {
                        newly.push((sub.parent_edge(sub.graph.edge(i as u32)), t));
                    }
                }
                for &(e, t) in &newly {
                    classes.entry(t).or_default().push(e);
                    k_max = k_max.max(t);
                }
                unclassified -= newly.len() as u64;
                g_new = apply_classes(&g_new, &newly, scratch, &tracker)?;
                if cfg.use_cleanup {
                    g_new = cleanup_classified(&g_new, edge_budget, scratch, &tracker)?;
                }
                k = ki.saturating_sub(1);
            }
        }
    }

    // Steps 4–9: per-k rounds.
    while k >= 3 && unclassified > 0 {
        if let Some(t) = cfg.top_t {
            if k_max > 0 && k + t <= k_max {
                break; // top-t classes (k_max ≥ k > k_max − t) are done
            }
        }
        report.rounds += 1;

        let in_uk = mark_uk(&g_new, n, k)?;
        let mut candidate_edges = 0u64;
        g_new.scan(|rec| {
            if in_uk[rec.edge.u as usize] || in_uk[rec.edge.v as usize] {
                candidate_edges += 1;
            }
        })?;
        report.candidate_edges_total += candidate_edges;
        if candidate_edges == 0 {
            k -= 1;
            continue;
        }

        // Procedures 8 and 10 may peel internal, unclassified edges with
        // ψ ≥ k; the survivors among them are Φ_k.
        let candidate = |r: &EdgeRec| {
            r.class == 0 && r.bound >= k && in_uk[r.edge.u as usize] && in_uk[r.edge.v as usize]
        };
        let phi_k: Vec<Edge> = if candidate_edges <= edge_budget {
            // Procedure 8.
            let mut cands: Vec<EdgeRec> = Vec::with_capacity(candidate_edges as usize);
            g_new.scan(|rec| {
                if in_uk[rec.edge.u as usize] || in_uk[rec.edge.v as usize] {
                    cands.push(rec);
                }
            })?;
            let peelable: Vec<bool> = cands.iter().map(candidate).collect();
            let alive = peel_viable(&cands, &peelable, k);
            cands
                .iter()
                .zip(peelable.iter().zip(alive))
                .filter(|(_, (&p, a))| p && *a)
                .map(|(r, _)| r.edge)
                .collect()
        } else {
            // Procedure 10 (pair-sweep). "Peeled" edges are suspended for
            // this round only — they stay unclassified in G_new.
            report.oversized_rounds += 1;
            let strategy = |sweep: usize| PartitionStrategy::Random {
                seed: 0x10dd ^ ((sweep as u64) << 8) ^ k as u64,
            };
            let peel_bucket = |bucket: &[EdgeRec], owned: &[bool]| {
                let peelable: Vec<bool> = bucket
                    .iter()
                    .zip(owned)
                    .map(|(r, &o)| o && candidate(r))
                    .collect();
                peel_viable(bucket, &peelable, k)
            };
            let peeled = sweep::pair_sweep(
                &g_new,
                &in_uk,
                part_edges,
                cfg.max_sweeps,
                strategy,
                peel_bucket,
                scratch,
                &tracker,
            )?;
            // Fixpoint: the candidates that were never peeled are Φ_k.
            let mut phi_k = Vec::new();
            g_new.scan(|rec| {
                if candidate(&rec) && !peeled.contains(&rec.edge.key()) {
                    phi_k.push(rec.edge);
                }
            })?;
            phi_k
        };

        if !phi_k.is_empty() {
            k_max = k_max.max(k);
            let newly: Vec<(Edge, u32)> = phi_k.iter().map(|&e| (e, k)).collect();
            unclassified -= newly.len() as u64;
            classes.insert(k, phi_k);
            g_new = apply_classes(&g_new, &newly, scratch, &tracker)?;
            if cfg.use_cleanup {
                g_new = cleanup_classified(&g_new, edge_budget, scratch, &tracker)?;
            }
        }
        k -= 1;
    }

    let complete = unclassified == 0;
    if complete {
        let mut phi2 = phi2;
        phi2.sort_unstable();
        if !phi2.is_empty() {
            classes.insert(2, phi2);
        }
    }
    for edges in classes.values_mut() {
        edges.sort_unstable();
    }
    report.k_max = k_max;
    report.io = tracker.stats(&cfg.io);
    Ok((
        TopDownResult {
            classes,
            k_max,
            complete,
        },
        report,
    ))
}

/// Marks `U_k` = endpoints of unclassified edges with `ψ(e) ≥ k`.
fn mark_uk(g_new: &EdgeListFile, n: usize, k: u32) -> Result<Vec<bool>> {
    let mut in_uk = vec![false; n];
    g_new.scan(|rec| {
        if rec.class == 0 && rec.bound >= k {
            in_uk[rec.edge.u as usize] = true;
            in_uk[rec.edge.v as usize] = true;
        }
    })?;
    Ok(in_uk)
}

/// Rewrites `G_new` setting the class field of newly classified edges.
fn apply_classes(
    g_new: &EdgeListFile,
    newly: &[(Edge, u32)],
    scratch: &ScratchDir,
    tracker: &IoTracker,
) -> Result<EdgeListFile> {
    let map: truss_graph::hash::FxHashMap<u64, u32> =
        newly.iter().map(|&(e, t)| (e.key(), t)).collect();
    let mut out = EdgeListFile::create(scratch.file("gnew"), tracker.clone())?;
    let mut err: Option<StorageError> = None;
    g_new.scan(|mut rec| {
        if err.is_some() {
            return;
        }
        if let Some(&t) = map.get(&rec.edge.key()) {
            rec.class = t;
        }
        if let Err(e) = out.push(rec) {
            err = Some(e);
        }
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    // Best effort: the old file is superseded.
    let _ = std::fs::remove_file(g_new.path());
    out.finish()
}

/// Steps 7–9: drops classified edges from `G_new` once every triangle they
/// participate in consists of classified edges. Runs exactly (in memory)
/// when `G_new` fits the budget; otherwise skipped — removal is purely an
/// optimization, correctness never depends on it.
fn cleanup_classified(
    g_new: &EdgeListFile,
    edge_budget: u64,
    scratch: &ScratchDir,
    tracker: &IoTracker,
) -> Result<EdgeListFile> {
    if g_new.len() > edge_budget {
        return EdgeListFile::open(g_new.path().to_path_buf(), tracker.clone());
    }
    let recs = g_new.read_all()?;
    let sub = from_parent_edges(recs.iter().map(|r| r.edge));
    debug_assert_eq!(sub.graph.num_edges(), recs.len());
    let mut keep = vec![true; recs.len()];
    for (i, rec) in recs.iter().enumerate() {
        if rec.class == 0 {
            continue;
        }
        let local = sub.graph.edge(i as u32);
        let mut needed = false;
        merge_common_neighbors(&sub.graph, local.u, local.v, |_, a, b| {
            if recs[a as usize].class == 0 || recs[b as usize].class == 0 {
                needed = true;
            }
        });
        if !needed {
            keep[i] = false;
        }
    }
    let mut out = EdgeListFile::create(scratch.file("gnew"), tracker.clone())?;
    for (i, rec) in recs.iter().enumerate() {
        if keep[i] {
            out.push(*rec)?;
        }
    }
    let _ = std::fs::remove_file(g_new.path());
    out.finish()
}

/// Procedures 8 and 10 on one edge set held in memory: peels the
/// `peelable` edges at a viable support below `k − 2`. A triangle counts
/// only when all three edges are k-viable — already classified (at a
/// round > k) or unclassified with `ψ ≥ k`. Returns which edges survived.
fn peel_viable(recs: &[EdgeRec], peelable: &[bool], k: u32) -> Vec<bool> {
    let viable: Vec<bool> = recs.iter().map(|r| r.class > 0 || r.bound >= k).collect();
    sweep::peel(recs, |e| viable[e], peelable, k - 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::truss_decompose_naive;
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_graph::generators::figures::{figure2_classes, figure2_graph};
    use truss_graph::generators::planted::planted_clique;

    fn big_io() -> IoConfig {
        IoConfig::with_budget(1 << 22)
    }

    #[test]
    fn figure2_complete_decomposition() {
        let g = figure2_graph();
        let (res, report) = top_down_decompose(&g, &TopDownConfig::new(big_io())).unwrap();
        assert!(res.complete);
        assert_eq!(res.k_max, 5);
        let expected: BTreeMap<u32, Vec<Edge>> = figure2_classes().into_iter().collect();
        assert_eq!(res.classes, expected);
        assert!(report.k_first >= 5);
        assert_eq!(report.support_sum, 57); // 19 triangles
    }

    #[test]
    fn figure2_top_2_classes() {
        let g = figure2_graph();
        let cfg = TopDownConfig::new(big_io()).top_t(2);
        let mut cfg = cfg;
        cfg.use_kinit = false;
        let (res, _) = top_down_decompose(&g, &cfg).unwrap();
        assert!(!res.complete);
        assert_eq!(res.k_max, 5);
        // Classes 5 and 4 computed; 3 and 2 not.
        assert!(res.classes.contains_key(&5));
        assert!(res.classes.contains_key(&4));
        assert!(!res.classes.contains_key(&3));
        let expected: BTreeMap<u32, Vec<Edge>> = figure2_classes()
            .into_iter()
            .filter(|&(k, _)| k >= 4)
            .collect();
        assert_eq!(res.classes, expected);
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..4 {
            let g = gnm(55, 380, seed);
            let exact = truss_decompose_naive(&g);
            for use_kinit in [false, true] {
                let mut cfg = TopDownConfig::new(big_io());
                cfg.use_kinit = use_kinit;
                let (res, _) = top_down_decompose(&g, &cfg).unwrap();
                assert!(res.complete, "seed {seed} kinit {use_kinit}");
                let d = res.to_decomposition(&g).unwrap();
                assert_eq!(
                    d.trussness(),
                    exact.trussness(),
                    "seed {seed} kinit {use_kinit}"
                );
            }
        }
    }

    #[test]
    fn matches_with_tiny_budget() {
        let mut graphs: Vec<(String, CsrGraph)> = [6u64, 11, 19, 31]
            .into_iter()
            .map(|seed| (format!("gnm seed {seed}"), gnm(45, 280, seed)))
            .collect();
        graphs.push((
            "planted K_12".into(),
            planted_clique(&gnm(150, 220, 3), 12, 7),
        ));
        for (name, g) in &graphs {
            let exact = truss_decompose_naive(g);
            for use_kinit in [false, true] {
                let mut cfg = TopDownConfig::new(IoConfig {
                    memory_budget: 64 * 64,
                    block_size: 256,
                });
                cfg.use_kinit = use_kinit;
                let (res, report) = top_down_decompose(g, &cfg).unwrap();
                assert!(res.complete, "{name} kinit {use_kinit}");
                let d = res.to_decomposition(g).unwrap();
                assert_eq!(d.trussness(), exact.trussness(), "{name} kinit {use_kinit}");
                assert!(
                    report.oversized_rounds > 0,
                    "{name} kinit {use_kinit}: expected Procedure 10 rounds"
                );
            }
        }
    }

    #[test]
    fn top_t_matches_top_band_of_full_run() {
        let g = gnm(60, 450, 12);
        let exact = truss_decompose_naive(&g);
        let t = 2u32;
        let (res, _) = top_down_decompose(&g, &TopDownConfig::new(big_io()).top_t(t)).unwrap();
        assert_eq!(res.k_max, exact.k_max());
        for k in (exact.k_max() - t + 1)..=exact.k_max() {
            let expected: Vec<Edge> = {
                let mut v: Vec<Edge> = exact.class(k).into_iter().map(|id| g.edge(id)).collect();
                v.sort_unstable();
                v
            };
            let got = res.classes.get(&k).cloned().unwrap_or_default();
            assert_eq!(got, expected, "class {k}");
        }
    }
}
