//! The epoch peel over the disk support array.
//!
//! The peel keeps only `O(m/4 + chunk + buffers)` bytes in heap: two
//! per-edge bitsets (`alive`, `died_epoch`), one shard's support chunk
//! per worker, and bounded decrement buckets. Dead edges' chunk slots are
//! overwritten with their truss number `k`, so when the last edge dies
//! the state file *is* the decomposition.
//!
//! At each level `k` the peel runs *epochs*, each a two-phase fork-join
//! over disjoint shards on the worker pool (width 1 is a one-worker
//! pool), until no shard qualifies; then `k` jumps to `min(min_sup) + 2`
//! — the same level-skipping the in-memory peel does.
//!
//! * **Phase A** (state only, no graph access): every qualifying shard —
//!   pending decrements or peelable minimum — loads its support chunk,
//!   applies all workers' buffered decrements (alive-guarded), kills its
//!   frontier `{alive, sup ≤ k − 2}` (clearing `alive`, stamping the slot
//!   with `k`), writes the chunk back and recomputes its live minimum.
//! * **Phase B** (graph only, state read-only): the killed edges that
//!   walk are marked in `died_epoch` at the barrier, then enumerate
//!   their triangles by merge-intersecting their endpoints' rows. The
//!   walked edge and both rows are copied out with positioned reads
//!   (`Rows`), so the phase faults no mapped page in. The bitsets are
//!   frozen during the phase, so every worker classifies a triangle
//!   identically: a partner dead before this epoch means the triangle
//!   was already *retired* (skip); otherwise the dying edges of the
//!   triangle are `D = {e} ∪ {partners with died_epoch}`, and only
//!   `min(D)` emits decrements for the still-alive partners —
//!   exactly-once retirement without any within-epoch ordering.
//!   Decrements buffer in per-worker buckets and apply at the next
//!   epoch's phase A.
//!
//! # Cost rules
//!
//! Phase A applies every pending decrement before it kills, so a killed
//! edge's chunk value `c` is exactly its number of unretired triangles.
//! Three rules make phase B pay per triangle, not per edge:
//!
//! * **Support-0 kills do not walk.** An edge with `c = 0` dies and is
//!   stamped `k`, but neither sets `died_epoch` nor enters phase B. Safe:
//!   each of its triangles has a partner dead in an earlier epoch, which
//!   makes every other walker skip that triangle whatever this edge's
//!   bits say.
//! * **Walks stop after `c`.** A walk ends once it has seen `c`
//!   unretired triangles, whichever dying edge owns them. Safe: there are
//!   exactly `c`, so nothing past the stop can be unretired.
//! * **The final epoch does not walk.** An epoch that kills every live
//!   edge skips phase B. Safe: its decrements could only reach live
//!   edges, and none is left to read them.
//!
//! Trussness is a unique function of the graph, so any exact peel order
//! gives byte-identical output — the epoch schedule changes wall-clock
//! behavior, never results, regardless of worker count.

use super::spill::{IncRec, SpillBuckets, SpillDrain};
use super::state::StateFile;
use super::{read_edge, Rows, ShardPlan};
use crate::pool::ThreadPool;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use truss_graph::CsrGraph;
use truss_storage::window::Window;
use truss_storage::{IoTracker, Result, ScratchDir};

/// Counters out of the peel phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeelStats {
    /// Distinct peel levels visited (k-rounds).
    pub levels: u64,
    /// Shard visits across all sweeps.
    pub shard_visits: u64,
    /// Cross-shard decrements that went through disk.
    pub decs_spilled: u64,
    /// Epoch barriers crossed.
    pub epochs: u64,
    /// Killed edges whose triangles phase B enumerated.
    pub walks: u64,
    /// Bytes of spill runs the peel handed to disk.
    pub spill_bytes_written: u64,
    /// Bytes of spill runs the peel read back.
    pub spill_bytes_read: u64,
}

/// Packed per-edge bits shared across workers. Shard-boundary edges can
/// share a word with a neighboring shard, so mutation is atomic; relaxed
/// ordering suffices because every cross-worker read happens after a
/// fork-join barrier.
struct AtomicBitset {
    words: Vec<AtomicU64>,
}

impl AtomicBitset {
    fn all_set(len: usize) -> AtomicBitset {
        let mut words: Vec<u64> = vec![!0u64; len.div_ceil(64)];
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        AtomicBitset {
            words: words.into_iter().map(AtomicU64::new).collect(),
        }
    }

    fn all_clear(len: usize) -> AtomicBitset {
        AtomicBitset {
            words: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn get(&self, i: u32) -> bool {
        self.words[(i / 64) as usize].load(Ordering::Relaxed) >> (i % 64) & 1 == 1
    }

    #[inline]
    fn set(&self, i: u32) {
        self.words[(i / 64) as usize].fetch_or(1u64 << (i % 64), Ordering::Relaxed);
    }

    #[inline]
    fn clear(&self, i: u32) {
        self.words[(i / 64) as usize].fetch_and(!(1u64 << (i % 64)), Ordering::Relaxed);
    }
}

/// One shard's phase-A outcome.
struct Frontier {
    shard: usize,
    /// Killed edges with unretired triangles, each with the count `c`
    /// its walk stops after.
    walks: Vec<(u32, u32)>,
    /// Edges killed, walking or not.
    killed: u64,
    /// Minimum support over the shard's survivors.
    min_sup: u32,
}

/// Peels every edge, returning the trussness array (edge id → truss
/// number, every entry ≥ 2). `sup` must hold exact supports on entry;
/// on exit it holds the same values this function returns. Shard visits
/// within an epoch run on `pool`'s workers (see the module docs for the
/// two-phase dataflow, the exactly-once argument and the cost rules);
/// spill appends overlap the peel via `drain`.
#[allow(clippy::too_many_arguments)]
pub fn external_peel(
    g: &CsrGraph,
    plan: &ShardPlan,
    window: &mut Window,
    scratch: &ScratchDir,
    tracker: &IoTracker,
    buf_cap: usize,
    sup: &StateFile,
    min_sup: &mut [u32],
    pool: &ThreadPool,
    drain: &Arc<SpillDrain>,
) -> Result<(Vec<u32>, PeelStats)> {
    let m = g.num_edges();
    let s_count = plan.num_shards();
    let workers = pool.workers();
    let mut stats = PeelStats::default();
    let alive = AtomicBitset::all_set(m);
    let died_epoch = AtomicBitset::all_clear(m);
    let mut alive_left = m as u64;
    let dec_sets: Vec<Mutex<SpillBuckets<IncRec>>> = (0..workers)
        .map(|w| {
            Mutex::new(SpillBuckets::with_drain(
                scratch,
                &format!("dec-w{w}"),
                s_count,
                buf_cap,
                tracker.clone(),
                Arc::clone(drain),
            ))
        })
        .collect();

    let mut k = 2u32;
    while alive_left > 0 {
        let floor = min_sup.iter().copied().min().unwrap_or(u32::MAX);
        debug_assert_ne!(floor, u32::MAX, "live edges but every shard empty");
        k = k.max(floor.saturating_add(2));
        stats.levels += 1;

        // Epochs at this level until no shard qualifies.
        loop {
            let mut pending = vec![false; s_count];
            for set in &dec_sets {
                let set = set.lock().expect("dec set");
                for (s, p) in pending.iter_mut().enumerate() {
                    *p = *p || set.pending(s);
                }
            }
            let q: Vec<usize> = (0..s_count)
                .filter(|&s| {
                    let (e_lo, e_hi) = plan.edge_range(s);
                    e_lo < e_hi && (pending[s] || min_sup[s] <= k - 2)
                })
                .collect();
            if q.is_empty() {
                break;
            }
            stats.epochs += 1;
            stats.shard_visits += q.len() as u64;

            // Phase A: apply buffered decrements and kill the frontier.
            // Pure state-file work — no graph sections are touched, so
            // no windows are needed. Each qualifying shard is visited by
            // exactly one worker; chunks are disjoint.
            let cursor = AtomicUsize::new(0);
            let phase_a = pool.run(|_w| -> Result<Vec<Frontier>> {
                let mut out = Vec::new();
                let mut chunk: Vec<u32> = Vec::new();
                loop {
                    let qi = cursor.fetch_add(1, Ordering::Relaxed);
                    if qi >= q.len() {
                        break;
                    }
                    let s = q[qi];
                    let (e_lo, e_hi) = plan.edge_range(s);
                    chunk.clear();
                    chunk.resize(e_hi - e_lo, 0);
                    sup.read_chunk(e_lo, &mut chunk)?;
                    for set in &dec_sets {
                        set.lock().expect("dec set").drain(s, |r| {
                            if alive.get(r.e) {
                                let slot = &mut chunk[r.e as usize - e_lo];
                                // The walk-stop rule trusts exact counts.
                                debug_assert!(*slot >= r.c, "decrement drift on edge {}", r.e);
                                *slot = slot.saturating_sub(r.c);
                            }
                        })?;
                    }
                    let mut f = Frontier {
                        shard: s,
                        walks: Vec::new(),
                        killed: 0,
                        min_sup: u32::MAX,
                    };
                    for e in e_lo..e_hi {
                        let ei = e as u32;
                        if !alive.get(ei) {
                            continue;
                        }
                        let c = chunk[e - e_lo];
                        if c <= k - 2 {
                            // Slot reuse: the dead edge's support becomes
                            // its truss number.
                            alive.clear(ei);
                            chunk[e - e_lo] = k;
                            f.killed += 1;
                            if c > 0 {
                                f.walks.push((ei, c));
                            }
                        } else {
                            f.min_sup = f.min_sup.min(c);
                        }
                    }
                    sup.write_chunk(e_lo, &chunk)?;
                    out.push(f);
                }
                Ok(out)
            });
            let mut walks_by_shard: Vec<Vec<(u32, u32)>> = vec![Vec::new(); s_count];
            for r in phase_a {
                for f in r? {
                    alive_left -= f.killed;
                    min_sup[f.shard] = f.min_sup;
                    walks_by_shard[f.shard] = f.walks;
                }
            }
            let bshards: Vec<usize> = (0..s_count)
                .filter(|&s| !walks_by_shard[s].is_empty())
                .collect();
            if alive_left == 0 || bshards.is_empty() {
                // Nothing to walk — or the final epoch, which killed every
                // live edge, so no decrement could reach a reader.
                continue;
            }
            for &s in &bshards {
                stats.walks += walks_by_shard[s].len() as u64;
                for &(e, _) in &walks_by_shard[s] {
                    died_epoch.set(e);
                }
            }

            // Phase B: every listed edge enumerates its triangles against
            // the *frozen* bitsets and the minimum dying edge of each
            // triangle emits decrements for the still-alive partners (see
            // module docs).
            let cursor = AtomicUsize::new(0);
            let phase_b = pool.run(|w| -> Result<()> {
                let mut decs = dec_sets[w].lock().expect("dec set");
                let (mut ra, mut rb) = (Rows::new(g), Rows::new(g));
                loop {
                    let bi = cursor.fetch_add(1, Ordering::Relaxed);
                    if bi >= bshards.len() {
                        break;
                    }
                    for &(e, c) in &walks_by_shard[bshards[bi]] {
                        let edge = read_edge(g, e, tracker)?;
                        ra.load(edge.u, edge.u + 1, tracker)?;
                        rb.load(edge.v, edge.v + 1, tracker)?;
                        retire_triangles(
                            e,
                            c,
                            ra.row(edge.u),
                            rb.row(edge.v),
                            &alive,
                            &died_epoch,
                            |f| decs.push(plan.edge_shard(f), IncRec { e: f, c: 1 }),
                        )?;
                    }
                }
                Ok(())
            });
            for r in phase_b {
                r?;
            }

            // Reset the epoch markers (O(walks), not O(m)).
            for &s in &bshards {
                for &(e, _) in &walks_by_shard[s] {
                    died_epoch.clear(e);
                }
            }
        }
    }
    for set in &dec_sets {
        let set = set.lock().expect("dec set");
        stats.decs_spilled += set.spilled_records();
        stats.spill_bytes_written += set.spilled_bytes_written();
        stats.spill_bytes_read += set.spilled_bytes_read();
    }

    // Everything is dead; every chunk slot now holds a truss number.
    // Release the pinned offsets before materializing the 4m-byte result.
    window.release_all();
    let trussness = sup.read_all()?;
    Ok((trussness, stats))
}

/// Walks the triangles of `e`, a phase-B edge with `c` unretired
/// triangles, by merge-intersecting its endpoints' rows `a` and `b`
/// (neighbors, edge ids), and calls `dec` once for every live partner of
/// each unretired triangle `e` owns. Stops after the `c`-th unretired
/// triangle, whichever dying edge owns it.
fn retire_triangles(
    e: u32,
    c: u32,
    (na, ia): (&[u32], &[u32]),
    (nb, ib): (&[u32], &[u32]),
    alive: &AtomicBitset,
    died_epoch: &AtomicBitset,
    mut dec: impl FnMut(u32) -> Result<()>,
) -> Result<()> {
    let mut left = c;
    let (mut i, mut j) = (0usize, 0usize);
    while left > 0 && i < na.len() && j < nb.len() {
        match na[i].cmp(&nb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let (e_aw, e_bw) = (ia[i], ib[j]);
                i += 1;
                j += 1;
                let aw_alive = alive.get(e_aw);
                let aw_dying = died_epoch.get(e_aw);
                let bw_alive = alive.get(e_bw);
                let bw_dying = died_epoch.get(e_bw);
                // A partner dead before this epoch already retired the
                // triangle.
                if (!aw_alive && !aw_dying) || (!bw_alive && !bw_dying) {
                    continue;
                }
                left -= 1;
                // The least dying edge of the triangle owns its
                // retirement: every dying edge sees the same frozen D, so
                // the decrements are emitted exactly once.
                let mut owner = e;
                if aw_dying {
                    owner = owner.min(e_aw);
                }
                if bw_dying {
                    owner = owner.min(e_bw);
                }
                if owner != e {
                    continue;
                }
                for (f, f_alive) in [(e_aw, aw_alive), (e_bw, bw_alive)] {
                    if f_alive {
                        dec(f)?;
                    }
                }
            }
        }
    }
    debug_assert_eq!(
        left, 0,
        "edge {e}: fewer unretired triangles than its support"
    );
    Ok(())
}
