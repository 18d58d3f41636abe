//! The level-synchronous peeling core of the parallel engine.
//!
//! Supports arrive precomputed (the engine counts them over the shared
//! flat `ForwardAdjacency` — see [`crate::parallel`]); this module owns
//! everything after that.
//!
//! One *level* per trussness value `k`: every alive edge with
//! `sup(e) ≤ k − 2` belongs to the `k`-class, and peeling it can drop other
//! edges' supports to the threshold, so a level runs as a sequence of
//! bulk-synchronous *sub-iterations* — process the whole frontier in
//! parallel, collect the edges that crossed the threshold, repeat until the
//! level drains. This is the PKT schedule (Kabir & Madduri): the serial
//! algorithm's total order over edge removals is relaxed to a partial order
//! that only keeps what trussness actually depends on, which is why the
//! result is identical to the sequential peel.
//!
//! Shared state is two atomic arrays:
//!
//! * `sup` — current support, decremented with `fetch_sub`. The batch
//!   whose decrement interval spans the `k − 1 → k − 2` crossing (there is
//!   exactly one: RMW operations on one location are totally ordered, so
//!   the observed pre-values strictly decrease and a unique batch sees
//!   `old ≥ k − 1` with `old − c ≤ k − 2`) schedules the edge for the next
//!   sub-iteration, so no edge enters a frontier twice.
//! * `state` — the *epoch* (global sub-iteration counter) at which an edge
//!   was scheduled, or `UNSCHEDULED`. Epochs only grow, so during epoch
//!   `t` an edge is peeled iff `state < t`, frontier iff `state == t`, and
//!   alive otherwise. This is the scheduled/processed array that prevents
//!   double-peeling without any locking.
//!
//! When a triangle's last three edges die together, supports must still
//! drop exactly once per dying triangle. For a triangle `{e, f, x}` seen
//! while processing frontier edge `e`:
//!
//! * `f` or `x` already peeled → the triangle died earlier, skip;
//! * `f` and `x` both in the frontier → all three edges peel now, nothing
//!   to decrement;
//! * only `f` in the frontier → `x` survives and must lose the triangle
//!   once, although both `e` and `f` observe it: the smaller edge id does
//!   the decrement;
//! * neither in the frontier → `e` alone observes the death, decrement
//!   both.
//!
//! `Relaxed` ordering suffices throughout: scheduling decisions hinge on
//! the total modification order of each `sup[x]`, and every phase ends in a
//! fork-join barrier ([`ThreadPool::run`]) that publishes all writes before
//! the next phase reads them.
//!
//! # Cost model
//!
//! Three structures keep every phase proportional to *surviving* work
//! instead of static size:
//!
//! * **Triangle walks** go through a periodically compacted
//!   [`FrontierAdjacency`] plus `edge_between_ranked` probes on the
//!   retained oriented adjacency, never a merge over the full static CSR.
//!   A frontier edge walks its smaller live endpoint and stops after
//!   `sup(e)` surviving triangles — `sup(e)` is stable during the phase
//!   because the decrement rules never target frontier edges, and it
//!   equals the number of triangles whose other two edges have
//!   `state ≥ epoch` (each dead triangle decremented it exactly once).
//! * **Support buckets** replace the per-level O(m) state rescan. The
//!   invariant: every unscheduled edge with support `s` has an entry in
//!   `bucket[s]` — the initial fill provides it, and every batched
//!   decrement that lands on a new value `s ≥ k − 1` pushes one (the
//!   crossing batch schedules directly instead). Values per edge strictly
//!   decrease, so each bucket holds an edge at most once (claims need no
//!   CAS) and the *lowest* pending entry — the current support — is always
//!   scanned first; later, higher-valued entries find the edge claimed and
//!   skip. Level `k` therefore seeds from `bucket[k − 2]` alone, and empty
//!   levels cost one vector take.
//! * **Compaction** drops long-dead entries from the live columns when
//!   they exceed a quarter of what is stored, so total compaction work is
//!   O(m) amortized. Removing them is safe: the epoch test would skip
//!   them anyway, and every edge with `state ≥ epoch` — everything the
//!   decrement rules can still observe — stays.
//!
//! Scheduling is contention- and skew-aware: workers pull *cost-balanced*
//! blocks (Σ min live degree, not a fixed edge count) off a shared cursor
//! so one hub edge cannot serialize a sub-iteration; repeated decrements
//! to the same hot edge coalesce in a per-worker combining buffer before
//! touching the shared atomic (one `fetch_sub(c)` replaces `c` RMWs, and
//! the interval-crossing test above keeps the scheduling proof intact);
//! and phases whose estimated work is below
//! [`crate::pool::SPAWN_WORK_FLOOR`] run inline on the calling thread, so
//! the thousands of small sub-iterations a deep peel produces never pay a
//! fork-join round trip.
//!
//! A sub-iteration that lands on a single worker — a width-1 pool, a
//! small frontier, or a work estimate under the spawn floor — runs in
//! *direct* mode instead of the fan-out rules above: edges are walked in
//! frontier order, each finished edge's state drops to `PROCESSED` so
//! later walks read it as dead, and every surviving triangle is retired
//! by its first observer, which decrements both other edges
//! unconditionally — the serial peel's rule. That walks each dying
//! triangle once instead of up to three times (a dense frontier observes
//! most of its triangles from every side), replaces the locked RMW
//! support updates with plain load/store, and lets the walk swap-remove
//! dead entries from the live columns in place, so a hot column never
//! re-skips the same corpse twice and most compaction passes disappear.
//! The frontier sequence is unchanged: decrements only ever target edges
//! with `state ≥ epoch`, per sub-iteration each alive edge loses exactly
//! its dying triangles under either rule set, and an unwalked frontier
//! edge's support stays equal to its count of still-unwalked surviving
//! triangles (both drop by one when a shared triangle retires), so the
//! `found == sup(e)` early exit and the crossing logic behave
//! identically.
//!
//! The last sub-iteration of every peel holds every edge still alive
//! (`processed + |frontier| = m`), so no edge survives it and none of the
//! decrements its walk would apply is ever read: it is assigned `k`
//! without a walk, at any width. When the top class is a dense core —
//! lj's planted 362-clique holds about half of that graph's triangles —
//! this skips about half the peel.

use crate::parallel::live::FrontierAdjacency;
use crate::pool::{ThreadPool, SPAWN_WORK_FLOOR};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::Relaxed};
use truss_graph::{CsrGraph, EdgeId};
use truss_triangle::ForwardAdjacency;

/// `state` value of an edge no frontier has claimed yet.
const UNSCHEDULED: u32 = u32::MAX;

/// `state` value of a frontier edge a *direct* (single-worker)
/// sub-iteration has already walked. Epochs start at 1, so the mark reads
/// as dead (`state < epoch`) everywhere — which is what lets the
/// sequential walk order retire each triangle at its first observer
/// instead of re-walking it from every frontier edge it touches.
const PROCESSED: u32 = 0;

/// Slots in the per-worker decrement-combining buffer (direct-mapped,
/// power of two). Collisions just flush the displaced entry, so the size
/// only trades aggregation quality against L1 footprint.
const DEC_SLOTS: usize = 256;

/// Frontiers below this many edges skip the cost pass and run inline —
/// the per-edge walk bound alone cannot justify a fan-out.
const SMALL_FRONTIER: usize = 256;

/// Minimum Σ-cost of a scheduled block: small enough to balance skew,
/// large enough that the shared cursor is never contended.
const MIN_BLOCK_COST: u64 = 4096;

/// Counters the engine surfaces in its report.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeelStats {
    /// Levels that peeled at least one edge (= non-empty k-classes).
    pub levels: u32,
    /// Total bulk-synchronous sub-iterations across all levels.
    pub sub_iterations: u64,
    /// Compaction passes over the live adjacency.
    pub compactions: u32,
    /// Dead half-entries those passes removed (≤ 2m over a full peel).
    pub compacted_entries: u64,
    /// Peel-phase heap high-water estimate: live columns, the three
    /// m-sized u32 arrays (support, state, trussness) and the bucket /
    /// frontier peaks.
    pub heap_bytes: usize,
}

/// Read-only phase context shared by every worker of one sub-iteration.
/// The live adjacency travels separately: the direct path mutates it
/// (inline swap-removal of dead entries), the fan-out path shares it
/// read-only.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    g: &'a CsrGraph,
    fwd: &'a ForwardAdjacency,
    sup: &'a [AtomicU32],
    state: &'a [AtomicU32],
    k: u32,
    epoch: u32,
}

/// Per-worker mutable state: the next-frontier collector, the deferred
/// bucket pushes, and the decrement-combining buffer.
struct Local {
    next: Vec<EdgeId>,
    pushes: Vec<(u32, EdgeId)>,
    buf_edge: [EdgeId; DEC_SLOTS],
    buf_count: [u32; DEC_SLOTS],
}

impl Local {
    fn new(next_capacity: usize) -> Local {
        Local {
            next: Vec::with_capacity(next_capacity),
            pushes: Vec::new(),
            buf_edge: [EdgeId::MAX; DEC_SLOTS],
            buf_count: [0; DEC_SLOTS],
        }
    }
}

#[inline]
fn dec_slot(x: EdgeId) -> usize {
    ((x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize & (DEC_SLOTS - 1)
}

/// Peels every edge level-synchronously given initial supports; returns the
/// per-edge trussness and the phase counters. `fwd` must be the oriented
/// adjacency of `g` (the one support initialization used): the walk probes
/// it for triangle closure, so retaining it across the phases is what lets
/// the peel drop `merge_common_neighbors` over the static CSR.
pub fn peel(
    g: &CsrGraph,
    fwd: &ForwardAdjacency,
    sup: Vec<u32>,
    pool: &ThreadPool,
) -> (Vec<u32>, PeelStats) {
    let m = g.num_edges();
    let mut trussness = vec![2u32; m];
    let mut stats = PeelStats::default();
    if m == 0 {
        return (trussness, stats);
    }
    let max_sup = sup.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<EdgeId>> = vec![Vec::new(); max_sup + 1];
    for (e, &s) in sup.iter().enumerate() {
        buckets[s as usize].push(e as EdgeId);
    }
    let sup: Vec<AtomicU32> = sup.into_iter().map(AtomicU32::new).collect();
    let state: Vec<AtomicU32> = (0..m).map(|_| AtomicU32::new(UNSCHEDULED)).collect();
    let mut live = FrontierAdjacency::new(g, fwd.vertex_ranks());

    // Compaction cadence and heap high-water tracking.
    let mut stored_entries = 2 * m as u64;
    let mut dead_stored = 0u64;
    let mut bucket_entries = m as u64;
    let mut max_bucket_entries = bucket_entries;
    let mut max_frontier = 0usize;

    let mut processed = 0usize;
    // Epochs start at 1 so the `PROCESSED` mark (0) is below every live
    // epoch.
    let mut epoch = 1u32;
    let mut next_hint = 0usize;
    let mut k = 2u32;
    while processed < m {
        let idx = (k - 2) as usize;
        assert!(
            idx < buckets.len(),
            "peel ran past max support with edges left"
        );
        let seeds = std::mem::take(&mut buckets[idx]);
        bucket_entries -= seeds.len() as u64;
        let mut curr = seed_frontier(seeds, &sup, &state, k, epoch, pool);
        if curr.is_empty() {
            k += 1;
            continue;
        }
        stats.levels += 1;
        while !curr.is_empty() {
            stats.sub_iterations += 1;
            max_frontier = max_frontier.max(curr.len());
            if processed + curr.len() == m {
                // The final frontier: no edge survives this sub-iteration,
                // so no decrement its walk could apply is ever read.
                for &e in &curr {
                    trussness[e as usize] = k;
                }
                processed = m;
                break;
            }
            if dead_stored > 0 && dead_stored * 4 >= stored_entries {
                let threads = if stored_entries <= SPAWN_WORK_FLOOR as u64 {
                    1
                } else {
                    pool.workers()
                };
                let dropped = live.compact(&state, epoch, threads);
                debug_assert_eq!(dropped, dead_stored);
                stats.compactions += 1;
                stats.compacted_entries += dropped;
                stored_entries -= dropped;
                dead_stored = 0;
            }
            let ctx = Ctx {
                g,
                fwd,
                sup: &sup,
                state: &state,
                k,
                epoch,
            };
            let (next, pushes, removed) = process_frontier(&ctx, &mut live, &curr, next_hint, pool);
            for &e in &curr {
                trussness[e as usize] = k;
            }
            processed += curr.len();
            // Each peeled edge leaves two stored half-entries behind, but
            // entries the direct walk already swap-removed — this
            // frontier's or earlier sub-iterations' garbage alike — are
            // neither stored nor dead any more. (Add before subtracting:
            // one walk can clear more old corpses than it creates.)
            dead_stored += 2 * curr.len() as u64;
            dead_stored -= removed;
            stored_entries -= removed;
            bucket_entries += pushes.len() as u64;
            max_bucket_entries = max_bucket_entries.max(bucket_entries);
            for &(v, x) in &pushes {
                buckets[v as usize].push(x);
            }
            epoch += 1;
            next_hint = next.len();
            curr = next;
        }
        k += 1;
    }
    stats.heap_bytes = live.heap_bytes()
        + 12 * m
        + 4 * max_bucket_entries as usize
        + 4 * max_frontier
        + 8 * buckets.len();
    (trussness, stats)
}

/// Claims the still-unscheduled entries of level `k`'s seed bucket into a
/// frontier marked with the current epoch. Bucket entries are unique, so
/// disjoint ranges claim disjoint edges and a plain store suffices; stale
/// entries (edges that peeled at a lower level, or that crossed mid-level
/// and were scheduled directly) are skipped by the state test.
fn seed_frontier(
    seeds: Vec<EdgeId>,
    sup: &[AtomicU32],
    state: &[AtomicU32],
    k: u32,
    epoch: u32,
    pool: &ThreadPool,
) -> Vec<EdgeId> {
    let claim = |range: std::ops::Range<usize>| {
        let mut frontier = Vec::with_capacity(range.len());
        for &e in &seeds[range] {
            if state[e as usize].load(Relaxed) != UNSCHEDULED {
                continue;
            }
            // The lowest pending bucket entry is the current support.
            debug_assert_eq!(sup[e as usize].load(Relaxed), k - 2, "stale claim of {e}");
            state[e as usize].store(epoch, Relaxed);
            frontier.push(e);
        }
        frontier
    };
    if pool.workers() == 1 || seeds.len() <= SPAWN_WORK_FLOOR {
        return claim(0..seeds.len());
    }
    let claimed = pool.run_ranges(seeds.len(), |_, range| claim(range));
    claimed.concat()
}

/// Processes one frontier, picking the mode by available width and work:
/// a single worker (or a frontier under the spawn floor) runs the
/// *direct* path — sequential walk order, serial decrement rule, inline
/// swap-removal of dead entries; anything larger fans out over
/// cost-balanced blocks with the once-per-triangle BSP rules and the
/// combining buffer. Returns the merged next frontier (already marked
/// with `epoch + 1`), the `(support, edge)` bucket pushes for the caller
/// to apply at the barrier, and the count of dead half-entries the direct
/// walk swap-removed from the live columns (0 in fan-out mode).
fn process_frontier(
    ctx: &Ctx<'_>,
    live: &mut FrontierAdjacency,
    curr: &[EdgeId],
    next_hint: usize,
    pool: &ThreadPool,
) -> (Vec<EdgeId>, Vec<(u32, EdgeId)>, u64) {
    let threads = pool.workers();
    if threads == 1 || curr.len() < SMALL_FRONTIER {
        return process_frontier_direct(ctx, live, curr, next_hint);
    }
    // Cost-balanced blocks: one pass over the frontier for per-edge walk
    // bounds (min stored endpoint degree), then block boundaries at
    // ~total/(threads·4) cost so the fastest worker never idles long.
    let mut total: u64 = 0;
    let costs: Vec<u32> = curr
        .iter()
        .map(|&e| {
            let edge = ctx.g.edge(e);
            let c = 1 + live.degree(edge.u).min(live.degree(edge.v)) as u32;
            total += c as u64;
            c
        })
        .collect();
    if total <= SPAWN_WORK_FLOOR as u64 {
        return process_frontier_direct(ctx, live, curr, next_hint);
    }
    let target = (total / (threads as u64 * 4)).max(MIN_BLOCK_COST);
    let mut bounds = Vec::with_capacity((total / target) as usize + 2);
    bounds.push(0usize);
    let mut acc = 0u64;
    for (i, &c) in costs.iter().enumerate() {
        acc += c as u64;
        if acc >= target {
            bounds.push(i + 1);
            acc = 0;
        }
    }
    if *bounds.last().unwrap() != curr.len() {
        bounds.push(curr.len());
    }
    let cursor = AtomicUsize::new(0);
    let live = &*live;
    let per_worker = pool.run(|_| {
        let mut loc = Local::new(next_hint / threads + 8);
        loop {
            let b = cursor.fetch_add(1, Relaxed);
            if b + 1 >= bounds.len() {
                break;
            }
            for &e in &curr[bounds[b]..bounds[b + 1]] {
                process_edge(ctx, live, e, &mut loc);
            }
        }
        flush(ctx, &mut loc);
        (loc.next, loc.pushes)
    });
    let mut next = Vec::new();
    let mut pushes = Vec::new();
    for (n, p) in per_worker {
        next.extend_from_slice(&n);
        pushes.extend_from_slice(&p);
    }
    (next, pushes, 0)
}

/// The single-worker frontier path. Edges are walked in frontier order
/// and marked [`PROCESSED`] as they finish, so each shared triangle is
/// retired exactly once by its first observer (the module docs' direct
/// mode); dead column entries are swap-removed the moment a walk skips
/// them, matching the serial peel's eager removal lazily. Returns the
/// next frontier, the bucket pushes, and the removed half-entry count.
fn process_frontier_direct(
    ctx: &Ctx<'_>,
    live: &mut FrontierAdjacency,
    curr: &[EdgeId],
    next_hint: usize,
) -> (Vec<EdgeId>, Vec<(u32, EdgeId)>, u64) {
    let mut next = Vec::with_capacity(next_hint);
    let mut pushes = Vec::new();
    let mut removed = 0u64;
    for &e in curr {
        walk_edge_direct(ctx, live, e, &mut next, &mut pushes, &mut removed);
        ctx.state[e as usize].store(PROCESSED, Relaxed);
    }
    (next, pushes, removed)
}

/// Walks frontier edge `e`'s surviving triangles under the serial rule:
/// `e` reads as this triangle's first observer (everything processed
/// before it is dead), so it decrements *both* other edges. Entries whose
/// edge died earlier are swap-removed in place — order inside a column
/// is free, and the O(1) removal keeps the early exit intact (a
/// two-pointer compaction would not survive the `break`).
fn walk_edge_direct(
    ctx: &Ctx<'_>,
    live: &mut FrontierAdjacency,
    e: EdgeId,
    next: &mut Vec<EdgeId>,
    pushes: &mut Vec<(u32, EdgeId)>,
    removed: &mut u64,
) {
    let s_e = ctx.sup[e as usize].load(Relaxed);
    if s_e == 0 {
        return;
    }
    let edge = ctx.g.edge(e);
    let (a, b) = if live.degree(edge.u) <= live.degree(edge.v) {
        (edge.u, edge.v)
    } else {
        (edge.v, edge.u)
    };
    let rb = ctx.fwd.rank(b);
    let mut found = 0u32;
    let mut i = 0usize;
    while i < live.degree(a) {
        let (w, e_aw, rw) = live.entry(a, i);
        if ctx.state[e_aw as usize].load(Relaxed) < ctx.epoch {
            live.swap_remove_entry(a, i);
            *removed += 1;
            continue; // the swapped-in entry now sits at `i`
        }
        i += 1;
        if w == b {
            continue;
        }
        let Some(e_bw) = ctx.fwd.edge_between_ranked(b, rb, w, rw) else {
            continue;
        };
        if ctx.state[e_bw as usize].load(Relaxed) < ctx.epoch {
            continue;
        }
        found += 1;
        // Frontier members sit below the `k − 1` threshold already, so
        // decrementing them never re-schedules or re-buckets; it just
        // keeps their support equal to their still-unwalked triangles.
        direct_apply(ctx, e_aw, next, pushes);
        direct_apply(ctx, e_bw, next, pushes);
        if found == s_e {
            break;
        }
    }
    debug_assert_eq!(
        found, s_e,
        "support of {e} diverged from surviving triangles"
    );
}

/// [`apply`] without the RMW: a single worker owns the whole
/// sub-iteration, so the support update is a plain load + store and a
/// batch is always one decrement.
#[inline]
fn direct_apply(ctx: &Ctx<'_>, x: EdgeId, next: &mut Vec<EdgeId>, pushes: &mut Vec<(u32, EdgeId)>) {
    let old = ctx.sup[x as usize].load(Relaxed);
    debug_assert!(old >= 1, "support underflow on edge {x}");
    ctx.sup[x as usize].store(old.wrapping_sub(1), Relaxed);
    if old >= ctx.k - 1 {
        let new = old - 1;
        if new <= ctx.k - 2 {
            debug_assert_eq!(ctx.state[x as usize].load(Relaxed), UNSCHEDULED);
            ctx.state[x as usize].store(ctx.epoch + 1, Relaxed);
            next.push(x);
        } else {
            pushes.push((new, x));
        }
    }
}

/// Walks the surviving triangles of frontier edge `e` from its smaller
/// live endpoint, stopping after `sup(e)` of them (everything later in
/// the list is dead), and applies the once-per-triangle decrement rules
/// from the module docs. Fan-out mode only — the live columns are shared
/// read-only across workers here, so dead entries are skipped, not
/// removed (the barrier compaction reclaims them).
fn process_edge(ctx: &Ctx<'_>, live: &FrontierAdjacency, e: EdgeId, loc: &mut Local) {
    let s_e = ctx.sup[e as usize].load(Relaxed);
    if s_e == 0 {
        return;
    }
    let edge = ctx.g.edge(e);
    let (a, b) = if live.degree(edge.u) <= live.degree(edge.v) {
        (edge.u, edge.v)
    } else {
        (edge.v, edge.u)
    };
    let rb = ctx.fwd.rank(b);
    let (ws, es, rs) = live.neighbors(a);
    let mut found = 0u32;
    for i in 0..ws.len() {
        // Dead-entry test first: entries peeled since the last compaction
        // cost one state load here, never the (pricier) closure probe.
        let e_aw = es[i];
        let s1 = ctx.state[e_aw as usize].load(Relaxed);
        if s1 < ctx.epoch {
            continue; // stale entry: e_aw died with an earlier peel
        }
        let w = ws[i];
        if w == b {
            continue;
        }
        let Some(e_bw) = ctx.fwd.edge_between_ranked(b, rb, w, rs[i]) else {
            continue;
        };
        let s2 = ctx.state[e_bw as usize].load(Relaxed);
        if s2 < ctx.epoch {
            continue;
        }
        found += 1;
        let f1 = s1 == ctx.epoch;
        let f2 = s2 == ctx.epoch;
        if f1 && f2 {
            // Whole triangle peels this sub-iteration.
        } else if f1 {
            if e < e_aw {
                decrement(ctx, e_bw, loc);
            }
        } else if f2 {
            if e < e_bw {
                decrement(ctx, e_aw, loc);
            }
        } else {
            decrement(ctx, e_aw, loc);
            decrement(ctx, e_bw, loc);
        }
        if found == s_e {
            break;
        }
    }
    debug_assert_eq!(
        found, s_e,
        "support of {e} diverged from surviving triangles"
    );
}

/// Records one support decrement of `x` in the combining buffer, flushing
/// a displaced entry on slot collision.
#[inline]
fn decrement(ctx: &Ctx<'_>, x: EdgeId, loc: &mut Local) {
    let s = dec_slot(x);
    if loc.buf_edge[s] == x {
        loc.buf_count[s] += 1;
        return;
    }
    let prev = loc.buf_edge[s];
    if prev != EdgeId::MAX {
        apply(ctx, prev, loc.buf_count[s], loc);
    }
    loc.buf_edge[s] = x;
    loc.buf_count[s] = 1;
}

/// Applies a coalesced decrement batch. Observed pre-values of `sup[x]`
/// strictly decrease across batches (RMW total order), so exactly one
/// batch spans the `k − 1 → k − 2` crossing and schedules `x`; a batch
/// landing on a new value still above the threshold records it in the
/// bucket structure instead (the push invariant of the module docs).
#[inline]
fn apply(ctx: &Ctx<'_>, x: EdgeId, c: u32, loc: &mut Local) {
    let old = ctx.sup[x as usize].fetch_sub(c, Relaxed);
    debug_assert!(old >= c, "support underflow on edge {x}");
    if old >= ctx.k - 1 {
        let new = old - c;
        if new <= ctx.k - 2 {
            debug_assert_eq!(ctx.state[x as usize].load(Relaxed), UNSCHEDULED);
            ctx.state[x as usize].store(ctx.epoch + 1, Relaxed);
            loc.next.push(x);
        } else {
            loc.pushes.push((new, x));
        }
    }
}

/// Flushes every pending combining-buffer entry.
fn flush(ctx: &Ctx<'_>, loc: &mut Local) {
    for s in 0..DEC_SLOTS {
        let x = loc.buf_edge[s];
        if x != EdgeId::MAX {
            let c = loc.buf_count[s];
            loc.buf_edge[s] = EdgeId::MAX;
            apply(ctx, x, c, loc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::naive::truss_decompose_naive;
    use crate::decompose::{truss_decompose_with, EdgeIndexKind, ImprovedConfig};
    use truss_graph::generators::classic::{complete, star};
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_graph::generators::planted::planted_clique;
    use truss_graph::Edge;

    // Unclamped pools: these tests exist to exercise the fan-out paths
    // (block scheduler, BSP decrement rules, barrier compaction), which a
    // machine-width clamp would silently reduce to the direct path on a
    // small CI box.
    fn peel_with(g: &CsrGraph, threads: usize) -> (Vec<u32>, PeelStats) {
        let fwd = ForwardAdjacency::build(g);
        let sup = fwd.edge_supports();
        peel(g, &fwd, sup, &ThreadPool::unclamped(threads))
    }

    #[test]
    fn figure2_matches_golden() {
        let g = truss_graph::generators::figure2_graph();
        for threads in [1, 2, 4] {
            let (t, stats) = peel_with(&g, threads);
            let d = crate::decompose::TrussDecomposition::from_trussness(t);
            assert_eq!(d.k_max(), 5);
            assert_eq!(
                d.classes_as_edges(&g),
                truss_graph::generators::figures::figure2_classes()
            );
            // Φ2 (the isolated (i,k) edge), Φ3, Φ4, Φ5 all non-empty.
            assert_eq!(stats.levels, 4);
            assert!(stats.sub_iterations >= stats.levels as u64);
            assert!(stats.heap_bytes > 0);
        }
    }

    #[test]
    fn empty_levels_are_skipped_not_iterated() {
        // K_12: every edge has support 10, one class at k = 12. The level
        // loop must skip the empty buckets for k = 3..11 without work, and
        // the one frontier is the final one: assigned without a walk, so
        // nothing is ever compacted.
        let g = complete(12);
        let (t, stats) = peel_with(&g, 2);
        assert!(t.iter().all(|&x| x == 12));
        assert_eq!(stats.levels, 1);
        assert_eq!(stats.sub_iterations, 1);
        assert_eq!(stats.compactions, 0);
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..6 {
            let g = gnm(70, 520, seed);
            let naive = truss_decompose_naive(&g);
            for threads in [1, 2, 4, 8] {
                let (t, _) = peel_with(&g, threads);
                assert_eq!(t, naive.trussness(), "seed {seed}, {threads} threads");
            }
        }
    }

    /// Disjoint cliques on consecutive vertex ranges.
    fn disjoint_cliques(sizes: &[usize]) -> CsrGraph {
        let mut edges = Vec::new();
        let mut base = 0u32;
        for &n in sizes {
            let n = n as u32;
            for u in base..base + n {
                edges.extend((u + 1..base + n).map(|v| Edge::new(u, v)));
            }
            base += n;
        }
        CsrGraph::from_edges(edges)
    }

    #[test]
    fn large_final_frontiers_match_naive() {
        // Graphs whose last sub-iteration peels a dense class at once —
        // the frontier the walk-free rule assigns without walking — after
        // lower levels that still walk and decrement into it.
        let graphs = [
            ("K_40", complete(40)),
            ("cliques 7/13/26", disjoint_cliques(&[13, 7, 26])),
            ("planted K_30", planted_clique(&gnm(400, 900, 5), 30, 2)),
        ];
        for (name, g) in &graphs {
            let naive = truss_decompose_naive(g);
            for threads in [1, 2, 4] {
                let (t, stats) = peel_with(g, threads);
                assert_eq!(t, naive.trussness(), "{name}, {threads} threads");
                assert_eq!(stats.levels as usize, naive.class_sizes().len(), "{name}");
            }
        }
    }

    #[test]
    fn fanout_path_matches_hash_arm_on_denser_graph() {
        // Big enough that the first levels exceed SPAWN_WORK_FLOOR and the
        // cost-balanced block scheduler, parallel seeding and parallel
        // compaction all actually run multi-threaded.
        let g = gnm(1500, 30_000, 3);
        let (reference, _) = truss_decompose_with(
            &g,
            ImprovedConfig {
                edge_index: EdgeIndexKind::Hash,
            },
        );
        let (t, stats) = peel_with(&g, 4);
        assert_eq!(t, reference.trussness());
        assert!(stats.compactions > 0, "dense peel never compacted");
        assert!(stats.compacted_entries <= 2 * g.num_edges() as u64);
    }

    #[test]
    fn star_peels_in_one_level_without_hub_rescans() {
        // Every edge of a star has support 0: one level, one sub-iteration,
        // and the hub's huge list is never walked (sup == 0 short-circuits).
        let g = star(5000);
        let (t, stats) = peel_with(&g, 4);
        assert!(t.iter().all(|&x| x == 2));
        assert_eq!(stats.levels, 1);
        assert_eq!(stats.sub_iterations, 1);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(vec![]);
        let (t, stats) = peel_with(&g, 4);
        assert!(t.is_empty());
        assert_eq!(stats.levels, 0);
    }
}
