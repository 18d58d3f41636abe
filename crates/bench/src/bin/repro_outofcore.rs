//! Out-of-core acceptance bench: decompose a graph whose GR2 snapshot
//! exceeds every configured memory budget, with the `outofcore` engine
//! running over the mapped snapshot — width-1 and width-4 arms, each
//! warm and with the page cache evicted — and write the
//! machine-readable `BENCH_9.json` snapshot (to `TRUSS_BENCH_OUT`,
//! default `BENCH_9.json` in the current directory). Scale with
//! `TRUSS_SCALE=`.
//!
//! Exits non-zero if any arm's trussness disagrees with the in-memory
//! engine, any measured peak RSS exceeds `1.5x` the effective budget,
//! or the snapshot fails to exceed a configured budget. There is no
//! `TRUSS_GATE=warn` escape for these gates: they are the acceptance
//! criteria of the out-of-core engine, not timing comparisons. The
//! width-4-vs-width-1 speedups are reported (warm and cold separately)
//! but not gated — on a 1-core machine only the fault-bound cold arm
//! can meaningfully benefit from extra workers.

use truss_bench::datasets::BenchScale;
use truss_bench::outofcore;

fn main() {
    let scale = BenchScale::Default;
    let bench = outofcore::outofcore_bench(scale);
    outofcore::table_outofcore(&bench)
        .print("Out-of-core decomposition: budget ladder x width {1, 4} x {warm, cold} cache");
    println!(
        "snapshot: {} bytes; minimum budget: {} bytes; in-memory baseline peak RSS: {}",
        bench.snapshot_bytes,
        bench.min_budget,
        bench
            .inmem_peak_rss_bytes
            .map_or_else(|| "n/a".to_string(), |p| format!("{p} bytes")),
    );
    for s in outofcore::speedups(&bench) {
        println!(
            "width-4 speedup over width 1 @ budget {}: warm {:.2}x, cold {:.2}x",
            s.configured_budget, s.warm, s.cold
        );
    }
    let out = std::env::var("TRUSS_BENCH_OUT").unwrap_or_else(|_| "BENCH_9.json".to_string());
    std::fs::write(&out, outofcore::outofcore_json(&bench, scale)).expect("write snapshot");
    eprintln!("wrote {out}");
    if !outofcore::gates_clean(&bench) {
        eprintln!("outofcore: gate violations above — failing");
        std::process::exit(1);
    }
}
