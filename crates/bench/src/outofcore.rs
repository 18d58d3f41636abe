//! The out-of-core acceptance bench: decompose a generated graph whose
//! GR2 snapshot is several times every configured memory budget, running
//! the `outofcore` engine over the *mapped* snapshot and measuring true
//! peak RSS (`VmHWM` delta) per budget rung.
//!
//! Each budget rung runs a 2x2 grid of arms: {width 1, width 4} x
//! {warm page cache, cold page cache}. Both widths run the same engine
//! (width 1 is a one-worker pool). The cold arm evicts the snapshot from
//! the page cache (`posix_fadvise(DONTNEED)`) before opening it, so every
//! mapped access major-faults against the disk — the regime the
//! shard-parallel passes exist for, since concurrent workers overlap
//! their fault stalls where a single worker serializes them.
//!
//! Two gates, both correctness properties with no `TRUSS_GATE=warn`
//! escape:
//!   1. every arm's trussness must match the in-memory decomposition
//!      edge for edge;
//!   2. every arm's measured peak RSS must stay within `1.5x` the
//!      *effective* (clamp-adjusted) budget — the engine may clamp a
//!      too-small configured budget up to its documented minimum, and
//!      the gate honors the clamp the same way the CLI report does.
//!
//! The snapshot size is also checked against each configured budget so
//! the bench cannot silently degenerate into an in-memory run, and a
//! rung whose effective budget collapses into an earlier rung's (both
//! clamped to the same minimum) is warned about: such a rung measures
//! nothing new.

use crate::datasets::{scale_factor, BenchScale};
use crate::table::TableWriter;
use crate::{bytes_h, time};
use std::fs::File;
use std::io::BufWriter;
use truss_core::outofcore::{outofcore_decompose, outofcore_minimum_budget, OutOfCoreConfig};
use truss_core::rss::{reset_peak_rss, RssProbe};
use truss_core::truss_decompose;
use truss_graph::generators::datasets::Dataset;
use truss_graph::CsrGraph;
use truss_storage::{
    evict_page_cache, open_graph_snapshot, write_graph_snapshot, IoConfig, LoadMode, ScratchDir,
};

/// Peak-RSS slack over the effective budget: `3/2 = 1.5x`, expressed as
/// a ratio so the limit stays in exact integer arithmetic.
pub const RSS_SLACK_NUM: u64 = 3;
/// Denominator of the slack ratio.
pub const RSS_SLACK_DEN: u64 = 2;

/// The worker widths each rung is measured at: width 1 (the baseline)
/// and width 4. Widths are handed to the engine verbatim (its
/// pool is unclamped), so the parallel arm is genuinely 4 workers even
/// on a 1-core machine — there the win comes from overlapping fault and
/// spill stalls, not from extra cores.
pub const THREAD_ARMS: [usize; 2] = [1, 4];

/// One (budget rung, thread arm) measurement: warm and cold cache walls
/// side by side.
pub struct OutOfCoreRow {
    /// The budget handed to the engine, bytes.
    pub configured_budget: u64,
    /// The clamped budget the run actually honored, bytes.
    pub effective_budget: u64,
    /// Worker threads this arm ran with.
    pub threads: usize,
    /// Shards the engine planned at this budget and width.
    pub shards: usize,
    /// Wall-clock seconds with whatever the page cache held (the warm
    /// arm runs first, against a cache primed by writing the snapshot).
    pub wall_warm_s: f64,
    /// Wall-clock seconds after evicting the snapshot from the page
    /// cache, so mapped reads major-fault against the disk.
    pub wall_cold_s: f64,
    /// Spill-run bytes the background drain wrote (warm arm's report).
    pub spill_bytes_written: u64,
    /// Spill-run bytes read back while draining buckets (warm arm).
    pub spill_bytes_read: u64,
    /// Drain-thread busy time not hidden behind foreground waits, ms
    /// (warm arm).
    pub spill_drain_overlap_ms: f64,
    /// Measured peak RSS growth (`VmHWM` delta), the max over the warm
    /// and cold arms; `None` off-Linux, where the gate passes vacuously.
    pub peak_rss_bytes: Option<u64>,
    /// The gate line: `effective_budget * 3 / 2`.
    pub rss_limit_bytes: u64,
    /// Edges whose trussness disagrees with the in-memory engine,
    /// summed over both arms.
    pub mismatches: u64,
    /// `peak_rss_bytes <= rss_limit_bytes` (vacuously true off-Linux).
    pub rss_ok: bool,
    /// This rung's effective budget equals an earlier rung's: the clamp
    /// collapsed the ladder and this rung re-measures a previous one.
    pub clamped_into_previous: bool,
}

/// The whole bench run: the shared snapshot, the in-memory baseline's
/// peak RSS for the headline comparison, and the ladder rows (one per
/// rung x thread arm).
pub struct OutOfCoreBench {
    /// Bytes of the GR2 snapshot every rung decomposes.
    pub snapshot_bytes: u64,
    /// The engine's working-minimum budget for this graph — the floor
    /// the ladder is built on.
    pub min_budget: u64,
    /// Peak RSS growth of the plain in-memory decomposition of the same
    /// graph (`None` off-Linux).
    pub inmem_peak_rss_bytes: Option<u64>,
    /// One row per (budget rung, thread arm).
    pub rows: Vec<OutOfCoreRow>,
}

/// The width-4-vs-width-1 headline for one budget rung.
pub struct Speedup {
    /// The rung's configured budget, bytes.
    pub configured_budget: u64,
    /// Width-1 warm wall / width-4 warm wall.
    pub warm: f64,
    /// Width-1 cold wall / width-4 cold wall.
    pub cold: f64,
}

/// The bench graph: the p2p analogue scaled up so its snapshot dwarfs
/// the budget ladder (~1.7M edges, ~40 MiB of GR2, at
/// `BenchScale::Default`). The scale also keeps the engine's clamped
/// minimum budget comfortably above its irreducible heap floor (the
/// `4m`-byte result array dominates), so the `1.5x` RSS gate measures
/// the engine's residency discipline rather than allocator rounding.
fn ooc_graph(scale: BenchScale) -> CsrGraph {
    let spec = Dataset::P2p.spec();
    Dataset::P2p.build_scaled(spec.default_scale * 40.0 * scale_factor(scale), 0x5eed)
}

/// The configured-budget ladder: distinct rungs at and above the
/// engine's working minimum (`1x`, `1.5x`, `2x`), each strictly below
/// the snapshot so every rung stays out-of-core. Building on the
/// minimum rather than on snapshot fractions keeps the rungs *distinct
/// after clamping* — fractions below the minimum all clamp to the same
/// effective budget and measure one rung three times.
///
/// When the snapshot is smaller than the minimum itself (tiny scales),
/// no minimum-based rung can stay below the snapshot; the ladder falls
/// back to snapshot fractions, which the engine clamps up — the
/// structural property (configured < snapshot) still holds, and the
/// collapse is reported per-row via `clamped_into_previous`.
fn budget_ladder(snapshot_bytes: u64, min_budget: u64) -> Vec<u64> {
    let rungs: Vec<u64> = [min_budget, min_budget * 3 / 2, min_budget * 2]
        .into_iter()
        .filter(|&b| b < snapshot_bytes)
        .collect();
    if !rungs.is_empty() {
        return rungs;
    }
    let mut rungs: Vec<u64> = [16u64, 8, 4]
        .iter()
        .map(|d| (snapshot_bytes / d).max(4096))
        .collect();
    rungs.dedup();
    rungs
}

/// Runs the bench: writes the snapshot, measures the in-memory
/// baseline, then per budget rung and thread arm decomposes the mapped
/// snapshot twice — warm, then again after evicting the page cache.
pub fn outofcore_bench(scale: BenchScale) -> OutOfCoreBench {
    let g = ooc_graph(scale);
    let min_budget = outofcore_minimum_budget(&g) as u64;

    // In-memory baseline first: its trussness is the ground truth for
    // every rung, and its peak RSS is the headline denominator.
    reset_peak_rss();
    let probe = RssProbe::start();
    let expected = truss_decompose(&g).trussness().to_vec();
    let inmem_peak_rss_bytes = probe.delta_bytes();

    let scratch = ScratchDir::new().expect("scratch dir");
    let path = scratch.file("bench.gr2");
    let file = BufWriter::new(File::create(&path).expect("create snapshot"));
    write_graph_snapshot(&g, file).expect("write snapshot");
    drop(g); // only the expected trussness stays resident across rungs
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot metadata").len();

    // The open-time checksum scan would fault the whole file resident
    // before the engine's clean-slate release, spiking the monotone
    // VmHWM above anything the run itself does. Skip it; integrity here
    // is covered by the edge-for-edge cross-check.
    std::env::set_var("TRUSS_SKIP_CHECKSUM", "1");

    // One arm: decompose the mapped snapshot, returning (mismatches,
    // wall seconds, peak RSS, engine report).
    let run_arm = |configured: u64, threads: usize, cold: bool| {
        if cold {
            evict_page_cache(&path).expect("evict snapshot");
        }
        let mg = open_graph_snapshot(&path, LoadMode::Auto).expect("open snapshot");
        reset_peak_rss();
        let probe = RssProbe::start();
        let cfg =
            OutOfCoreConfig::new(IoConfig::with_budget(configured as usize)).with_threads(threads);
        let ((dec, report), wall) = time(|| outofcore_decompose(&mg, &cfg).expect("decompose"));
        // Sample before the cross-check below allocates anything.
        let peak_rss_bytes = probe.delta_bytes();
        drop(mg);
        let got = dec.trussness();
        let mismatches = if got.len() != expected.len() {
            expected.len().max(got.len()) as u64
        } else {
            got.iter().zip(&expected).filter(|(a, b)| a != b).count() as u64
        };
        (mismatches, wall.as_secs_f64(), peak_rss_bytes, report)
    };

    let mut rows = Vec::new();
    let mut seen_effective: Vec<u64> = Vec::new();
    for configured in budget_ladder(snapshot_bytes, min_budget) {
        let mut rung_effective = None;
        for threads in THREAD_ARMS {
            let (warm_mis, wall_warm_s, warm_rss, warm_report) =
                run_arm(configured, threads, false);
            let (cold_mis, wall_cold_s, cold_rss, _) = run_arm(configured, threads, true);
            let effective_budget = warm_report.effective_budget as u64;
            let rss_limit_bytes = effective_budget * RSS_SLACK_NUM / RSS_SLACK_DEN;
            let peak_rss_bytes = match (warm_rss, cold_rss) {
                (Some(w), Some(c)) => Some(w.max(c)),
                (w, c) => w.or(c),
            };
            let rss_ok = peak_rss_bytes.is_none_or(|p| p <= rss_limit_bytes);
            let clamped_into_previous = seen_effective.contains(&effective_budget);
            if clamped_into_previous {
                eprintln!(
                    "warning: rung {} clamps to effective budget {} already measured by an \
                     earlier rung — it re-measures that rung",
                    bytes_h(configured),
                    bytes_h(effective_budget),
                );
            }
            rung_effective = Some(effective_budget);
            rows.push(OutOfCoreRow {
                configured_budget: configured,
                effective_budget,
                threads,
                shards: warm_report.shards,
                wall_warm_s,
                wall_cold_s,
                spill_bytes_written: warm_report.spill_bytes_written,
                spill_bytes_read: warm_report.spill_bytes_read,
                spill_drain_overlap_ms: warm_report.spill_drain_overlap.as_secs_f64() * 1e3,
                peak_rss_bytes,
                rss_limit_bytes,
                mismatches: warm_mis + cold_mis,
                rss_ok,
                clamped_into_previous,
            });
        }
        if let Some(e) = rung_effective {
            seen_effective.push(e);
        }
    }
    OutOfCoreBench {
        snapshot_bytes,
        min_budget,
        inmem_peak_rss_bytes,
        rows,
    }
}

/// Pairs each rung's width-1 and width-4 rows into warm/cold speedups
/// (width-1 wall over width-4 wall; > 1 means the wider arm won).
pub fn speedups(bench: &OutOfCoreBench) -> Vec<Speedup> {
    let mut out = Vec::new();
    for w1 in bench.rows.iter().filter(|r| r.threads == 1) {
        let Some(par) = bench
            .rows
            .iter()
            .find(|r| r.threads > 1 && r.configured_budget == w1.configured_budget)
        else {
            continue;
        };
        out.push(Speedup {
            configured_budget: w1.configured_budget,
            warm: w1.wall_warm_s / par.wall_warm_s.max(1e-9),
            cold: w1.wall_cold_s / par.wall_cold_s.max(1e-9),
        });
    }
    out
}

/// True iff every hard gate holds: zero mismatches, RSS under the
/// limit, and the snapshot strictly larger than every configured
/// budget. (The width-4-vs-width-1 timing comparison is reported, not
/// gated here: on a 1-core machine the warm arms share one CPU and the
/// comparison is only meaningful for the fault-bound cold arms.)
pub fn gates_clean(bench: &OutOfCoreBench) -> bool {
    !bench.rows.is_empty()
        && bench
            .rows
            .iter()
            .all(|r| r.mismatches == 0 && r.rss_ok && bench.snapshot_bytes > r.configured_budget)
}

/// Renders the ladder as a table.
pub fn table_outofcore(bench: &OutOfCoreBench) -> TableWriter {
    let mut t = TableWriter::new(vec![
        "budget",
        "effective",
        "width",
        "shards",
        "warm (s)",
        "cold (s)",
        "peak RSS",
        "limit (1.5x)",
        "mismatches",
        "rss ok",
    ]);
    for r in &bench.rows {
        t.row(vec![
            bytes_h(r.configured_budget),
            bytes_h(r.effective_budget),
            r.threads.to_string(),
            r.shards.to_string(),
            format!("{:.3}", r.wall_warm_s),
            format!("{:.3}", r.wall_cold_s),
            r.peak_rss_bytes.map_or_else(|| "n/a".into(), bytes_h),
            bytes_h(r.rss_limit_bytes),
            r.mismatches.to_string(),
            if r.rss_ok {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    t
}

/// The machine-readable snapshot (`BENCH_9.json`).
pub fn outofcore_json(bench: &OutOfCoreBench, scale: BenchScale) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"repro_outofcore\",\n  \"scale_factor\": {},\n  \"dataset\": \"p2p\",\n  \
         \"snapshot_bytes\": {},\n  \"min_budget_bytes\": {},\n  \"inmem_peak_rss_bytes\": {},\n  \
         \"rss_slack\": 1.5,\n  \"thread_arms\": [1, 4],\n  \"rungs\": [\n",
        scale_factor(scale),
        bench.snapshot_bytes,
        bench.min_budget,
        bench
            .inmem_peak_rss_bytes
            .map_or_else(|| "null".to_string(), |p| p.to_string()),
    ));
    for (i, r) in bench.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"configured_budget\": {}, \"effective_budget\": {}, \"threads\": {}, \
             \"shards\": {}, \"wall_warm_s\": {:.6}, \"wall_cold_s\": {:.6}, \
             \"spill_bytes_written\": {}, \"spill_bytes_read\": {}, \
             \"spill_drain_overlap_ms\": {:.3}, \"peak_rss_bytes\": {}, \
             \"rss_limit_bytes\": {}, \"mismatches\": {}, \
             \"rss_ok\": {}, \"clamped_into_previous\": {}}}{}\n",
            r.configured_budget,
            r.effective_budget,
            r.threads,
            r.shards,
            r.wall_warm_s,
            r.wall_cold_s,
            r.spill_bytes_written,
            r.spill_bytes_read,
            r.spill_drain_overlap_ms,
            r.peak_rss_bytes
                .map_or_else(|| "null".to_string(), |p| p.to_string()),
            r.rss_limit_bytes,
            r.mismatches,
            r.rss_ok,
            r.clamped_into_previous,
            if i + 1 == bench.rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"speedups\": [\n");
    let sp = speedups(bench);
    for (i, s) in sp.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"configured_budget\": {}, \"warm\": {:.4}, \"cold\": {:.4}}}{}\n",
            s.configured_budget,
            s.warm,
            s.cold,
            if i + 1 == sp.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bench_is_exact_and_out_of_core() {
        let bench = outofcore_bench(BenchScale::Tiny);
        assert!(!bench.rows.is_empty());
        for r in &bench.rows {
            // Correctness and the out-of-core structural property hold at
            // every scale and width, warm or cold. The RSS gate is only
            // meaningful in a dedicated process (`repro_outofcore`): under
            // `cargo test` concurrent tests inflate the shared VmHWM
            // arbitrarily.
            assert_eq!(r.mismatches, 0, "threads = {}", r.threads);
            assert!(bench.snapshot_bytes > r.configured_budget);
            assert!(r.effective_budget >= r.configured_budget);
        }
        // Both thread arms ran for every rung, and the pairing yields one
        // speedup per rung.
        let rungs = bench.rows.len() / THREAD_ARMS.len();
        assert_eq!(bench.rows.len(), rungs * THREAD_ARMS.len());
        assert_eq!(speedups(&bench).len(), rungs);
    }

    #[test]
    fn default_scale_ladder_is_distinct_above_minimum() {
        // At default scale the snapshot (~40 MiB) dwarfs the minimum
        // (~16 MiB), so the ladder must be minimum-based and strictly
        // increasing — the regression this bench previously had was all
        // three fraction-rungs clamping to one effective budget.
        let rungs = budget_ladder(40 << 20, 16 << 20);
        assert_eq!(rungs, vec![16 << 20, 24 << 20, 32 << 20]);
        // Tiny snapshots fall back to fractions but stay out-of-core.
        let tiny = budget_ladder(100 << 10, 256 << 10);
        assert!(!tiny.is_empty());
        for b in tiny {
            assert!(b < 100 << 10);
        }
    }
}
