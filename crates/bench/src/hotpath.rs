//! The hot-path perf-trajectory bench: support-init and full
//! decomposition times for the two TD-inmem+ arms (the paper's hash
//! table vs the default width-1 frontier kernel) and a parallel-engine
//! thread ladder, over the whole generator suite.
//!
//! `repro_hotpath` prints the table and writes the machine-readable
//! `BENCH_6.json` snapshot at the repo root, so future perf PRs can
//! attribute wins to the right phase and diff against the recorded
//! trajectory. Cross-checks every arm's decomposition edge-for-edge and
//! enforces two exit gates: the default `inmem+` arm beats hash and the
//! parallel engine at ≥ 4 threads beats serial `inmem+` end-to-end on
//! every suite graph.

use crate::datasets::{bench_graph, scale_factor, BenchScale};
use crate::table::TableWriter;
use crate::{secs, time};
use truss_core::decompose::{truss_decompose_with, DecomposeStats, EdgeIndexKind, ImprovedConfig};
use truss_core::parallel::parallel_truss_decompose_with;
use truss_core::pool::ThreadPool;
use truss_graph::generators::datasets::{all_datasets, Dataset};

/// One timed arm on one graph.
pub struct HotpathArm {
    /// Arm label (`inmem+/hash`, `inmem+`, `parallel@N`).
    pub arm: String,
    /// Worker threads the arm ran with (1 for the serial arms).
    pub threads: usize,
    /// Support-initialization (triangle counting) seconds.
    pub triangle_s: f64,
    /// Peel seconds.
    pub peel_s: f64,
    /// End-to-end seconds (as measured around the whole call).
    pub total_s: f64,
}

/// All arms on one suite graph.
pub struct HotpathRow {
    /// Dataset short name.
    pub dataset: &'static str,
    /// Vertices of the built analogue.
    pub n: usize,
    /// Edges of the built analogue.
    pub m: usize,
    /// The timed arms: hash, the default `inmem+`, then the parallel
    /// ladder.
    pub arms: Vec<HotpathArm>,
}

/// Repetitions per timed arm (`TRUSS_REPS`, default 3); the fastest run
/// is kept, so a one-off scheduling or frequency blip cannot flip the
/// comparisons the exit gates enforce. Raise it on noisy shared machines
/// — min-of-N converges on the true cost for every arm alike, so more
/// repetitions sharpen the comparison rather than biasing it.
fn reps() -> usize {
    std::env::var("TRUSS_REPS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(3)
}

/// The parallel thread ladder: `TRUSS_THREADS` (comma-separated counts,
/// e.g. `1,2` for the CI smoke) or the default 1/2/4/8 sweep.
pub fn thread_ladder() -> Vec<usize> {
    let parsed: Vec<usize> = std::env::var("TRUSS_THREADS")
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t >= 1)
                .collect()
        })
        .unwrap_or_default();
    if parsed.is_empty() {
        vec![1, 2, 4, 8]
    } else {
        parsed
    }
}

fn improved_arm(
    g: &truss_graph::CsrGraph,
    kind: EdgeIndexKind,
    label: &'static str,
) -> (Vec<u32>, HotpathArm) {
    let mut best: Option<(Vec<u32>, HotpathArm)> = None;
    for _ in 0..reps() {
        let ((d, stats), total) =
            time(|| truss_decompose_with(g, ImprovedConfig { edge_index: kind }));
        let arm = arm_from(label.to_string(), 1, stats, total);
        if best.as_ref().is_none_or(|(_, b)| arm.total_s < b.total_s) {
            best = Some((d.trussness().to_vec(), arm));
        }
    }
    best.expect("reps >= 1")
}

fn parallel_arm(
    g: &truss_graph::CsrGraph,
    reference: &[u32],
    threads: usize,
    dataset: &'static str,
) -> HotpathArm {
    let pool = ThreadPool::new(threads);
    let mut best: Option<HotpathArm> = None;
    for _ in 0..reps() {
        let ((par, stats, _), total) = time(|| parallel_truss_decompose_with(g, &pool));
        assert_eq!(
            reference,
            par.trussness(),
            "{dataset}: parallel@{threads} diverged"
        );
        let arm = arm_from(format!("parallel@{threads}"), threads, stats, total);
        if best.as_ref().is_none_or(|b| arm.total_s < b.total_s) {
            best = Some(arm);
        }
    }
    best.expect("reps >= 1")
}

fn arm_from(
    label: String,
    threads: usize,
    stats: DecomposeStats,
    total: std::time::Duration,
) -> HotpathArm {
    HotpathArm {
        arm: label,
        threads,
        triangle_s: stats.triangle_time.as_secs_f64(),
        peel_s: stats.peel_time.as_secs_f64(),
        total_s: total.as_secs_f64(),
    }
}

/// Times every arm on every generator-suite graph at `scale`.
pub fn hotpath_rows(scale: BenchScale) -> Vec<HotpathRow> {
    let ladder = thread_ladder();
    all_datasets()
        .into_iter()
        .map(|d| hotpath_row(d, scale, &ladder))
        .collect()
}

fn hotpath_row(d: Dataset, scale: BenchScale, ladder: &[usize]) -> HotpathRow {
    let g = bench_graph(d, scale);
    let (reference, hash) = improved_arm(&g, EdgeIndexKind::Hash, "inmem+/hash");
    let (oriented_t, oriented) = improved_arm(&g, EdgeIndexKind::Oriented, "inmem+");
    assert_eq!(reference, oriented_t, "{d:?}: inmem+ arm diverged");
    let name = d.spec().name;
    let mut arms = vec![hash, oriented];
    for &threads in ladder {
        arms.push(parallel_arm(&g, &reference, threads, name));
    }
    HotpathRow {
        dataset: name,
        n: g.num_vertices(),
        m: g.num_edges(),
        arms,
    }
}

/// Renders the rows as a [`TableWriter`] table.
pub fn table_hotpath_rows(rows: &[HotpathRow]) -> TableWriter {
    let mut t = TableWriter::new(vec![
        "dataset",
        "arm",
        "triangle (s)",
        "peel (s)",
        "total (s)",
        "vs serial",
    ]);
    for row in rows {
        let serial_total = row.arms[1].total_s;
        for arm in &row.arms {
            t.row(vec![
                row.dataset.to_string(),
                arm.arm.clone(),
                format!("{:.3}", arm.triangle_s),
                format!("{:.3}", arm.peel_s),
                format!("{:.3}", arm.total_s),
                format!("{:.2}x", serial_total / arm.total_s.max(1e-9)),
            ]);
        }
    }
    t
}

/// Runs the whole sweep and renders the table (the `repro_all` entry).
pub fn table_hotpath(scale: BenchScale) -> TableWriter {
    table_hotpath_rows(&hotpath_rows(scale))
}

/// Serializes rows as the `BENCH_6.json` snapshot: one flat, stable JSON
/// document (hand-rolled — the workspace carries no serde), same schema
/// family as `BENCH_5.json` plus per-arm thread counts.
pub fn hotpath_json(rows: &[HotpathRow], scale: BenchScale) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"repro_hotpath\",\n  \"scale_factor\": {},\n  \"graphs\": [\n",
        scale_factor(scale)
    ));
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"n\": {}, \"m\": {}, \"arms\": [",
            row.dataset, row.n, row.m
        ));
        for (j, arm) in row.arms.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"arm\": \"{}\", \"threads\": {}, \"triangle_s\": {:.6}, \"peel_s\": {:.6}, \"total_s\": {:.6}}}",
                if j == 0 { "" } else { ", " },
                arm.arm,
                arm.threads,
                arm.triangle_s,
                arm.peel_s,
                arm.total_s
            ));
        }
        out.push_str(if i + 1 == rows.len() { "]}\n" } else { "]},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Returns whether the default `inmem+` arm beat the hash arm on every
/// graph (the gate `BENCH_5.json` recorded), printing any violation.
pub fn oriented_wins_everywhere(rows: &[HotpathRow]) -> bool {
    let mut all = true;
    for row in rows {
        let hash = &row.arms[0];
        let oriented = &row.arms[1];
        if oriented.total_s >= hash.total_s {
            eprintln!(
                "hotpath: inmem+ NOT faster than inmem+/hash on {} ({} vs {})",
                row.dataset,
                secs(std::time::Duration::from_secs_f64(oriented.total_s)),
                secs(std::time::Duration::from_secs_f64(hash.total_s)),
            );
            all = false;
        }
    }
    all
}

/// Returns whether the parallel engine beat serial `inmem+` end-to-end on
/// every graph, printing any violation. The candidate is the fastest
/// ladder rung at ≥ 4 threads (the acceptance bar); if the ladder was
/// overridden below that — the CI smoke runs 1,2 — the highest rung
/// stands in so the gate still executes.
pub fn parallel_wins_everywhere(rows: &[HotpathRow]) -> bool {
    let mut all = true;
    for row in rows {
        let oriented = &row.arms[1];
        let rungs: Vec<&HotpathArm> = row
            .arms
            .iter()
            .filter(|a| a.arm.starts_with("parallel@"))
            .collect();
        let Some(max_t) = rungs.iter().map(|a| a.threads).max() else {
            eprintln!("hotpath: no parallel arm on {}", row.dataset);
            all = false;
            continue;
        };
        let bar = max_t.min(4);
        let best = rungs
            .iter()
            .filter(|a| a.threads >= bar)
            .min_by(|x, y| x.total_s.total_cmp(&y.total_s))
            .expect("max_t came from a non-empty rung set");
        if best.total_s >= oriented.total_s {
            eprintln!(
                "hotpath: {} NOT faster than serial inmem+ on {} ({} vs {})",
                best.arm,
                row.dataset,
                secs(std::time::Duration::from_secs_f64(best.total_s)),
                secs(std::time::Duration::from_secs_f64(oriented.total_s)),
            );
            all = false;
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpath_rows_cover_suite_and_serialize() {
        let rows = hotpath_rows(BenchScale::Tiny);
        let ladder = thread_ladder();
        assert_eq!(rows.len(), all_datasets().len());
        for row in &rows {
            assert_eq!(row.arms.len(), 2 + ladder.len());
            assert_eq!(row.arms[0].arm, "inmem+/hash");
            assert_eq!(row.arms[1].arm, "inmem+");
            for (i, &t) in ladder.iter().enumerate() {
                assert_eq!(row.arms[2 + i].arm, format!("parallel@{t}"));
                assert_eq!(row.arms[2 + i].threads, t);
            }
            assert!(row.arms.iter().all(|a| a.total_s >= 0.0));
        }
        let json = hotpath_json(&rows, BenchScale::Tiny);
        assert!(json.contains("\"bench\": \"repro_hotpath\""));
        assert!(json.contains("\"inmem+\""));
        assert!(json.contains("\"parallel@"));
        assert!(json.contains("\"threads\": "));
        assert_eq!(json.matches("\"dataset\"").count(), rows.len());
        let table = table_hotpath_rows(&rows).render("hotpath");
        assert!(table.contains("inmem+ "), "{table}");
        // The gates must *run* on tiny rows (their verdict is timing-
        // dependent, so only the shape is asserted here).
        let _ = oriented_wins_everywhere(&rows);
        let _ = parallel_wins_everywhere(&rows);
    }
}
