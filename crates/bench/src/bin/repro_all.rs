//! Runs the entire reproduction: every table and the figure walkthroughs.
//! This is the generator for `EXPERIMENTS.md`. Scale with `TRUSS_SCALE=`.

use truss_bench::datasets::BenchScale;
use truss_bench::{hotpath, outofcore, tables};

fn main() {
    let scale = BenchScale::Default;
    print!("{}", tables::figures_report());
    tables::table2(scale).print("Table 2: dataset statistics (paper vs synthetic analogue)");
    tables::table3(scale).print("Table 3: TD-inmem vs TD-inmem+");
    tables::table4(scale).print("Table 4: TD-bottomup vs TD-MR");
    tables::table5(scale).print("Table 5: TD-topdown vs TD-bottomup");
    tables::table6(scale).print("Table 6: k_max-truss vs c_max-core");
    tables::table_engines(scale)
        .print("Engine registry: all six algorithms through TrussEngine::run");
    tables::table_scaling(scale)
        .print("Thread scaling: parallel (PKT) at 1/2/4/8 threads vs serial inmem+");
    tables::table_updates(scale)
        .print("Update throughput: incremental TrussIndex maintenance vs full recompute");
    tables::table_load(scale)
        .print("Snapshot load: TRUSSGR1 parse-load vs TRUSSGR2 mmap/buffered open");
    hotpath::table_hotpath(scale)
        .print("Hot paths: TD-inmem+ hash vs the frontier kernel, and parallel");
    let ooc = outofcore::outofcore_bench(scale);
    outofcore::table_outofcore(&ooc)
        .print("Out-of-core decomposition: budget ladder over a mapped GR2 snapshot");
    if !outofcore::gates_clean(&ooc) {
        eprintln!("outofcore: gate violations above — failing");
        std::process::exit(1);
    }
}
