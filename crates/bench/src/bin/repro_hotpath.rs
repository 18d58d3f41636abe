//! Hot-path perf trajectory: times support-init and full decomposition
//! for the two TD-inmem+ arms (the paper's hash table vs the default
//! width-1 frontier kernel) and the parallel-engine thread ladder over the
//! generator suite, prints the table, and writes the machine-readable
//! `BENCH_6.json` snapshot (to `TRUSS_BENCH_OUT`, default `BENCH_6.json`
//! in the current directory). Scale with `TRUSS_SCALE=`, override the
//! ladder with `TRUSS_THREADS=` (e.g. `1,2`) and the min-of-N
//! repetition count with `TRUSS_REPS=` (default 3).
//!
//! Exits non-zero unless (a) the default `inmem+` arm is strictly faster
//! than the hash arm and (b) the parallel engine at ≥ 4 threads is
//! strictly faster than serial `inmem+` end-to-end, on every graph.
//! `TRUSS_GATE=warn` still evaluates and prints both gates but exits 0 —
//! for smoke runs at scales where microsecond timing noise would decide
//! the verdict.

use truss_bench::datasets::BenchScale;
use truss_bench::hotpath;

fn main() {
    let scale = BenchScale::Default;
    let rows = hotpath::hotpath_rows(scale);
    hotpath::table_hotpath_rows(&rows)
        .print("Hot paths: TD-inmem+ hash vs the frontier kernel, and the parallel ladder");
    let out = std::env::var("TRUSS_BENCH_OUT").unwrap_or_else(|_| "BENCH_6.json".to_string());
    std::fs::write(&out, hotpath::hotpath_json(&rows, scale)).expect("write snapshot");
    eprintln!("wrote {out}");
    let oriented_ok = hotpath::oriented_wins_everywhere(&rows);
    let parallel_ok = hotpath::parallel_wins_everywhere(&rows);
    if !(oriented_ok && parallel_ok) {
        if std::env::var("TRUSS_GATE").as_deref() == Ok("warn") {
            eprintln!("hotpath: gate violations above (TRUSS_GATE=warn, not failing)");
        } else {
            std::process::exit(1);
        }
    }
}
