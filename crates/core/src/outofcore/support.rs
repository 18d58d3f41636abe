//! Shard-at-a-time support initialization over a GR2 graph.
//!
//! In-memory engines count support with one global
//! `ForwardAdjacency` (`truss_triangle::list`)
//! (`12m` bytes + ranks). Out of core, the oriented adjacency is built
//! *one vertex-range shard at a time* ([`ShardFwd`]): a shard's forward
//! lists fit the budget, and triangles whose first two vertices share a
//! shard are counted in place. A wedge `(u; v, w)` whose middle vertex
//! `v` lives elsewhere can only be closed by `v`'s shard, and almost
//! every wedge is such a wedge (on a G(n,m)-like graph `v` shares `u`'s
//! shard with probability ≈ 1/S), while almost none of them closes. So
//! an [`EdgeFilter`] over every edge screens each one first: only a
//! wedge whose closing edge `(v, w)` may exist becomes a [`ProbeRec`]
//! spilled to `v`'s shard. The filter has no false negatives, so
//! supports stay exact at any filter size.
//!
//! Pass structure (S shards):
//!   0. one sequential scan of the edges section builds the filter
//!      (about 10 bits per edge, at most an eighth of the budget);
//!   1. per *source* shard: copy its rows, build `ShardFwd` from them,
//!      intersect in-shard pairs, spill the screened boundary probes —
//!      `O(m^{1.5})` work, `O(scan(P))` I/O for
//!      `P ≈ 3·triangles + FPR·wedges` probes;
//!   2. per *target* shard: resolve each probe with one binary search in
//!      `v`'s sorted CSR row (no second `ShardFwd` build: `w` ranks after
//!      `v` by construction, so `w ∈ N(v)` is the whole test);
//!   3. per *edge* shard: fold increment buckets into the support chunk.
//!
//! Pass 0 streams the edges section through the [`Window`] layer a
//! chunk at a time. Passes 1 and 2 copy each shard's rows out with
//! positioned reads (`Rows`) and read nothing through the mapping, so
//! resident bytes stay within the engine budget even though the whole
//! snapshot is mapped.
//!
//! Passes 1–3 are shard-parallel: shards are independent units of
//! work (a shard's forward lists, probes and support chunk touch no
//! other shard's state), so workers pull shard indices from a shared
//! cursor. Each worker gets its own bucket set (`probe-w<t>` /
//! `inc-w<t>`) so pushes are contention-free; the consuming pass drains
//! shard `s` from every worker's set. Bucket appends go through the
//! shared background [`SpillDrain`], overlapping spill writes with
//! triangle counting.

use super::filter::EdgeFilter;
use super::spill::{IncRec, ProbeRec, SpillBuckets, SpillDrain};
use super::state::StateFile;
use super::{Rows, ShardPlan};
use crate::pool::ThreadPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use truss_graph::{CsrGraph, EdgeId, VertexId};
use truss_storage::window::Window;
use truss_storage::{IoTracker, Result, ScratchDir};
use truss_triangle::list::{intersect_hybrid, FwdList};

/// The forward (oriented) adjacency restricted to source vertices in
/// `[base, base + local_n)`, referencing *global* ranks and edge ids.
/// Same columns as `ForwardAdjacency`, a shard's worth at a time.
pub struct ShardFwd {
    base: VertexId,
    /// `offsets[v - base] .. offsets[v - base + 1]`, local to the shard.
    offsets: Vec<u64>,
    ranks: Vec<u32>,
    verts: Vec<VertexId>,
    edge_ids: Vec<EdgeId>,
}

impl ShardFwd {
    /// Builds the forward lists of vertices `lo..hi` from their copied
    /// `rows`. One counting pass plus a per-vertex fill (each list
    /// sorted by rank in a reused scratch buffer — lists are short, the
    /// sort is the same trick `ForwardAdjacency::build_par` uses per
    /// chunk).
    pub(crate) fn build(rows: &Rows, vertex_ranks: &[u32], lo: VertexId, hi: VertexId) -> ShardFwd {
        let local_n = (hi - lo) as usize;
        let mut offsets = vec![0u64; local_n + 1];
        for v in lo..hi {
            let rv = vertex_ranks[v as usize];
            let fwd = rows
                .row(v)
                .0
                .iter()
                .filter(|&&w| vertex_ranks[w as usize] > rv)
                .count();
            offsets[(v - lo) as usize + 1] = fwd as u64;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let total = offsets[local_n] as usize;
        let mut ranks = vec![0u32; total];
        let mut verts = vec![0 as VertexId; total];
        let mut edge_ids = vec![0 as EdgeId; total];
        let mut scratch: Vec<(u32, VertexId, EdgeId)> = Vec::new();
        for v in lo..hi {
            let rv = vertex_ranks[v as usize];
            scratch.clear();
            let (nbrs, eids) = rows.row(v);
            for (&w, &e) in nbrs.iter().zip(eids) {
                let rw = vertex_ranks[w as usize];
                if rw > rv {
                    scratch.push((rw, w, e));
                }
            }
            scratch.sort_unstable_by_key(|&(r, _, _)| r);
            let at = offsets[(v - lo) as usize] as usize;
            for (i, &(r, w, e)) in scratch.iter().enumerate() {
                ranks[at + i] = r;
                verts[at + i] = w;
                edge_ids[at + i] = e;
            }
        }
        ShardFwd {
            base: lo,
            offsets,
            ranks,
            verts,
            edge_ids,
        }
    }

    /// The forward list of `v` (must be inside the shard).
    pub fn list(&self, v: VertexId) -> FwdList<'_> {
        let i = (v - self.base) as usize;
        let range = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        FwdList {
            ranks: &self.ranks[range.clone()],
            verts: &self.verts[range.clone()],
            edge_ids: &self.edge_ids[range],
        }
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.ranks.len() * 12
    }
}

/// Counters out of the support phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SupportStats {
    /// Triangles counted (in-shard + probe-resolved).
    pub triangles: u64,
    /// Boundary probes emitted in pass 1.
    pub probes: u64,
    /// Probe records that went through disk (vs staying buffered).
    pub probes_spilled: u64,
    /// Support increments that went through disk.
    pub incs_spilled: u64,
    /// Bytes of spill runs the support passes handed to disk.
    pub spill_bytes_written: u64,
    /// Bytes of spill runs the support passes read back.
    pub spill_bytes_read: u64,
}

/// Builds a `filter_bytes` edge filter, then runs the three sharded
/// passes, leaving exact supports in `sup` (one `u32` per edge id) and
/// each shard's minimum live support in `min_sup`. `buf_cap` bounds
/// every spill bucket's in-memory buffer (in records). Shards are
/// scheduled over `pool`'s workers; spill appends overlap computation
/// via `drain`.
#[allow(clippy::too_many_arguments)]
pub fn sharded_supports(
    g: &CsrGraph,
    plan: &ShardPlan,
    vertex_ranks: &[u32],
    window: &mut Window,
    scratch: &ScratchDir,
    tracker: &IoTracker,
    buf_cap: usize,
    filter_bytes: usize,
    sup: &StateFile,
    min_sup: &mut [u32],
    pool: &ThreadPool,
    drain: &Arc<SpillDrain>,
) -> Result<SupportStats> {
    let s_count = plan.num_shards();
    let workers = pool.workers();
    let mut stats = SupportStats::default();
    // One bucket set per worker: pushes never contend, and the consuming
    // pass drains shard `s` from every set (replay order across sets is
    // irrelevant — probes are independent, increments commute).
    let probe_sets: Vec<Mutex<SpillBuckets<ProbeRec>>> = (0..workers)
        .map(|w| {
            Mutex::new(SpillBuckets::with_drain(
                scratch,
                &format!("probe-w{w}"),
                s_count,
                buf_cap,
                tracker.clone(),
                Arc::clone(drain),
            ))
        })
        .collect();
    let inc_sets: Vec<Mutex<SpillBuckets<IncRec>>> = (0..workers)
        .map(|w| {
            Mutex::new(SpillBuckets::with_drain(
                scratch,
                &format!("inc-w{w}"),
                s_count,
                buf_cap,
                tracker.clone(),
                Arc::clone(drain),
            ))
        })
        .collect();
    // Pass 0: the edge filter.
    let filter = EdgeFilter::build(g.edges(), filter_bytes, window, tracker);

    // Pass 1: in-shard triangles + screened boundary probes, workers
    // pulling source shards from a shared cursor.
    tracker.record_scan();
    let cursor = AtomicUsize::new(0);
    let pass1 = pool.run(|w| -> Result<(u64, u64)> {
        let mut probes = probe_sets[w].lock().expect("probe set");
        let mut incs = inc_sets[w].lock().expect("inc set");
        let (mut triangles, mut probe_count) = (0u64, 0u64);
        let mut closed: Vec<(EdgeId, EdgeId)> = Vec::new();
        let mut rows = Rows::new(g);
        loop {
            let s = cursor.fetch_add(1, Ordering::Relaxed);
            if s >= s_count {
                break;
            }
            let (lo, hi) = plan.vertex_range(s);
            if lo == hi {
                continue;
            }
            rows.load(lo, hi, tracker)?;
            let fwd = ShardFwd::build(&rows, vertex_ranks, lo, hi);
            for u in lo..hi {
                let lu = fwd.list(u);
                for i in 0..lu.len() {
                    let v = lu.verts[i];
                    let e_uv = lu.edge_ids[i];
                    if v >= lo && v < hi {
                        // Both endpoints resident: close the wedge in place.
                        let lv = fwd.list(v);
                        closed.clear();
                        intersect_hybrid(lu, lv, |_w, e_uw, e_vw| {
                            closed.push((e_uw, e_vw));
                        });
                        triangles += closed.len() as u64;
                        for &(e_uw, e_vw) in &closed {
                            push_inc(&mut incs, plan, e_uv)?;
                            push_inc(&mut incs, plan, e_uw)?;
                            push_inc(&mut incs, plan, e_vw)?;
                        }
                    } else {
                        // Foreign middle vertex: ship to v's shard the
                        // candidate apexes (everything after v in u's
                        // rank-sorted list) whose edge to v may exist.
                        let target = plan.vertex_shard(v);
                        for j in i + 1..lu.len() {
                            let w = lu.verts[j];
                            if !filter.may_contain(v, w) {
                                continue;
                            }
                            probe_count += 1;
                            probes.push(
                                target,
                                ProbeRec {
                                    v,
                                    w,
                                    e_uv,
                                    e_uw: lu.edge_ids[j],
                                },
                            )?;
                        }
                    }
                }
            }
        }
        Ok((triangles, probe_count))
    });
    for r in pass1 {
        let (t, p) = r?;
        stats.triangles += t;
        stats.probes += p;
    }
    stats.probes_spilled = probe_sets
        .iter()
        .map(|p| p.lock().expect("probe set").spilled_records())
        .sum();

    drop(filter);

    // Pass 2: resolve each shard's probes against its CSR rows. A probe
    // is a triangle iff w appears in v's sorted neighbor row.
    tracker.record_scan();
    let cursor = AtomicUsize::new(0);
    let pass2 = pool.run(|w| -> Result<u64> {
        let mut incs = inc_sets[w].lock().expect("inc set");
        let mut triangles = 0u64;
        let mut resolved: Vec<(u32, u32, u32)> = Vec::new();
        let mut rows = Rows::new(g);
        loop {
            let s = cursor.fetch_add(1, Ordering::Relaxed);
            if s >= s_count {
                break;
            }
            if !probe_sets
                .iter()
                .any(|p| p.lock().expect("probe set").pending(s))
            {
                continue;
            }
            let (lo, hi) = plan.vertex_range(s);
            rows.load(lo, hi, tracker)?;
            resolved.clear();
            for set in &probe_sets {
                set.lock().expect("probe set").drain(s, |p| {
                    let (nbrs, eids) = rows.row(p.v);
                    if let Ok(j) = nbrs.binary_search(&p.w) {
                        resolved.push((p.e_uv, p.e_uw, eids[j]));
                    }
                })?;
            }
            triangles += resolved.len() as u64;
            for (e_uv, e_uw, e_vw) in resolved.drain(..) {
                push_inc(&mut incs, plan, e_uv)?;
                push_inc(&mut incs, plan, e_uw)?;
                push_inc(&mut incs, plan, e_vw)?;
            }
        }
        Ok(triangles)
    });
    for r in pass2 {
        stats.triangles += r?;
    }
    stats.incs_spilled = inc_sets
        .iter()
        .map(|i| i.lock().expect("inc set").spilled_records())
        .sum();

    // Pass 3: fold increments into the disk-resident support array.
    // Chunks are disjoint per shard, so concurrent positioned writes to
    // the state file are safe; no graph sections are touched.
    tracker.record_scan();
    let cursor = AtomicUsize::new(0);
    let pass3 = pool.run(|_w| -> Result<Vec<(usize, u32)>> {
        let mut out = Vec::new();
        let mut chunk: Vec<u32> = Vec::new();
        loop {
            let s = cursor.fetch_add(1, Ordering::Relaxed);
            if s >= s_count {
                break;
            }
            let (e_lo, e_hi) = plan.edge_range(s);
            chunk.clear();
            chunk.resize(e_hi - e_lo, 0);
            for set in &inc_sets {
                set.lock().expect("inc set").drain(s, |r| {
                    chunk[r.e as usize - e_lo] += r.c;
                })?;
            }
            sup.write_chunk(e_lo, &chunk)?;
            out.push((s, chunk.iter().copied().min().unwrap_or(u32::MAX)));
        }
        Ok(out)
    });
    for r in pass3 {
        for (s, mn) in r? {
            min_sup[s] = mn;
        }
    }

    for set in &probe_sets {
        let set = set.lock().expect("probe set");
        stats.spill_bytes_written += set.spilled_bytes_written();
        stats.spill_bytes_read += set.spilled_bytes_read();
    }
    for set in &inc_sets {
        let set = set.lock().expect("inc set");
        stats.spill_bytes_written += set.spilled_bytes_written();
        stats.spill_bytes_read += set.spilled_bytes_read();
    }
    Ok(stats)
}

/// Routes one support increment to its edge shard. In-buffer merging in
/// the bucket keeps hot edges cheap.
fn push_inc(incs: &mut SpillBuckets<IncRec>, plan: &ShardPlan, e: EdgeId) -> Result<()> {
    incs.push(plan.edge_shard(e), IncRec { e, c: 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outofcore::{outofcore_decompose, OutOfCoreConfig};
    use truss_graph::generators::{figure2_graph, gnm, planted_clique, rmat, RmatConfig};
    use truss_storage::IoConfig;

    /// Runs the support passes over `shards` forced shards on `threads`
    /// workers with a `filter_bytes` edge filter and returns the supports
    /// left in the state file.
    fn supports(
        g: &CsrGraph,
        shards: usize,
        threads: usize,
        filter_bytes: usize,
    ) -> (Vec<u32>, SupportStats) {
        let scratch = ScratchDir::new().unwrap();
        let tracker = IoTracker::new();
        let plan = ShardPlan::new(g, shards);
        let mut window = Window::new(1 << 20, g.is_mapped());
        let ranks = truss_triangle::list::ranks(g);
        let sup = StateFile::create(&scratch, "sup", g.num_edges(), tracker.clone()).unwrap();
        let mut min_sup = vec![u32::MAX; plan.num_shards()];
        let pool = ThreadPool::unclamped(threads);
        let drain = SpillDrain::spawn(tracker.clone());
        let stats = sharded_supports(
            g,
            &plan,
            &ranks,
            &mut window,
            &scratch,
            &tracker,
            64,
            filter_bytes,
            &sup,
            &mut min_sup,
            &pool,
            &drain,
        )
        .unwrap();
        (sup.read_all().unwrap(), stats)
    }

    /// Wedges `(u; v, w)` of the oriented adjacency whose middle vertex
    /// `v` lies outside `u`'s shard — what pass 1 probed per wedge before
    /// the filter screened them.
    fn foreign_middle_wedges(g: &CsrGraph, plan: &ShardPlan) -> u64 {
        let ranks = truss_triangle::list::ranks(g);
        let mut rows = Rows::new(g);
        let mut wedges = 0u64;
        for s in 0..plan.num_shards() {
            let (lo, hi) = plan.vertex_range(s);
            rows.load(lo, hi, &IoTracker::new()).unwrap();
            let fwd = ShardFwd::build(&rows, &ranks, lo, hi);
            for u in lo..hi {
                let lu = fwd.list(u);
                for (i, &v) in lu.verts.iter().enumerate() {
                    if plan.vertex_shard(v) != s {
                        wedges += (lu.len() - i - 1) as u64;
                    }
                }
            }
        }
        wedges
    }

    #[test]
    fn sharded_supports_match_edge_supports() {
        let graphs = [
            ("figure 2", figure2_graph()),
            ("gnm + K_12", planted_clique(&gnm(600, 4000, 0x5a9d), 12, 3)),
            ("rmat", rmat(RmatConfig::skewed(9, 4000), 0x0c0c)),
        ];
        for (name, g) in &graphs {
            let expect = truss_triangle::edge_supports(g);
            let triangles = expect.iter().map(|&s| s as u64).sum::<u64>() / 3;
            // The engine's size for a 1 MiB budget, and the one-block
            // minimum, which saturates and passes nearly every candidate.
            let sized = EdgeFilter::bytes_for(g.num_edges(), 1 << 20);
            for filter_bytes in [sized, EdgeFilter::BLOCK_BYTES] {
                for threads in [1usize, 2, 4] {
                    for shards in [1usize, 3, 7] {
                        let (got, stats) = supports(g, shards, threads, filter_bytes);
                        let at = format!(
                            "{name}: filter={filter_bytes} threads={threads} shards={shards}"
                        );
                        assert_eq!(got, expect, "{at}");
                        assert_eq!(stats.triangles, triangles, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn mapped_snapshot_resolves_probes_from_copied_rows() {
        // Passes 1 and 2 copy a mapped graph's rows with positioned
        // reads; the heap graphs above take the slice-copy path, so check
        // the positioned reads on a real GR2 snapshot.
        let g = planted_clique(&gnm(600, 4000, 0x5a9d), 12, 3);
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().join("g.gr2");
        truss_storage::write_graph_snapshot(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let mapped =
            truss_storage::open_graph_snapshot(&path, truss_storage::LoadMode::Auto).unwrap();
        let expect = truss_triangle::edge_supports(&g);
        for threads in [1usize, 2] {
            for filter_bytes in [EdgeFilter::bytes_for(g.num_edges(), 1 << 20), 64] {
                let (got, _) = supports(&mapped, 7, threads, filter_bytes);
                assert_eq!(got, expect, "threads={threads} filter={filter_bytes}");
            }
        }
    }

    #[test]
    fn saturated_filter_probes_every_foreign_wedge() {
        let g = planted_clique(&gnm(600, 4000, 0x5a9d), 12, 3);
        let wedges = foreign_middle_wedges(&g, &ShardPlan::new(&g, 7));
        let (_, stats) = supports(&g, 7, 1, EdgeFilter::BLOCK_BYTES);
        assert!(
            stats.probes * 10 >= wedges * 9,
            "{} of {wedges}",
            stats.probes
        );
    }

    #[test]
    fn filter_screens_out_almost_every_foreign_wedge() {
        // A sparse G(n,m) background with planted cliques: most wedges
        // cross shards and almost none of them closes.
        let mut g = gnm(6000, 48_000, 0x5c2e);
        for (size, seed) in [(14, 1), (10, 2), (8, 3)] {
            g = planted_clique(&g, size, seed);
        }
        let expect = truss_triangle::edge_supports(&g);
        for shards in [3usize, 7, 20] {
            let wedges = foreign_middle_wedges(&g, &ShardPlan::new(&g, shards));
            let cfg = OutOfCoreConfig::with_shards(IoConfig::with_budget(1 << 20), shards);
            let (_, report) = outofcore_decompose(&g, &cfg).unwrap();
            assert!(wedges > 50_000, "shards={shards}: {wedges} wedges");
            assert!(
                report.support.probes * 20 <= wedges,
                "shards={shards}: {} probes for {wedges} foreign-middle wedges",
                report.support.probes
            );
            assert_eq!(
                report.support.triangles,
                expect.iter().map(|&s| s as u64).sum::<u64>() / 3
            );
        }
    }
}
