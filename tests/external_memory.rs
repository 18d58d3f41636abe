//! External-memory behaviour: budget sweeps, I/O accounting sanity and
//! failure injection.

use truss_decomposition::core::bottom_up::{bottom_up_decompose, BottomUpConfig};
use truss_decomposition::core::decompose::truss_decompose;
use truss_decomposition::core::top_down::{top_down_decompose, TopDownConfig};
use truss_decomposition::engine::{BottomUpEngine, EngineConfig, EngineInput, TrussEngine};
use truss_decomposition::graph::generators as gen;
use truss_decomposition::storage::{IoConfig, IoTracker, ScratchDir, StorageError};
use truss_decomposition::triangle::external::{
    edge_list_from_graph, external_edge_supports, PassConfig,
};

#[test]
fn budget_sweep_preserves_results() {
    let g = gen::gnm(70, 500, 21);
    let exact = truss_decompose(&g);
    let floor = truss_decomposition::core::minimum_budget(&g, 64);
    for budget in [1usize << 20, 1 << 14, 1 << 13] {
        let budget = budget.max(floor);
        let io = IoConfig {
            memory_budget: budget,
            block_size: (budget / 8).max(64),
        };
        let (bu, bu_report) = bottom_up_decompose(&g, &BottomUpConfig::new(io)).unwrap();
        assert_eq!(bu.trussness(), exact.trussness(), "bottom-up at {budget}");
        let (td, _) = top_down_decompose(&g, &TopDownConfig::new(io)).unwrap();
        assert_eq!(
            td.to_decomposition(&g).unwrap().trussness(),
            exact.trussness(),
            "top-down at {budget}"
        );
        assert!(bu_report.io.bytes_read > 0);
    }
}

#[test]
fn smaller_budget_means_more_io() {
    let g = gen::gnm(80, 600, 3);
    let floor = truss_decomposition::core::minimum_budget(&g, 64);
    let run = |budget: usize| {
        let io = IoConfig {
            memory_budget: budget.max(floor),
            block_size: 512,
        };
        let (_, report) = bottom_up_decompose(&g, &BottomUpConfig::new(io)).unwrap();
        report.io.bytes_read
    };
    let big = run(1 << 22);
    let small = run(1 << 13);
    assert!(
        small > big,
        "tiny budget should cost more I/O: {small} vs {big}"
    );
}

#[test]
fn hub_larger_than_budget_is_reported() {
    let g = gen::star(2000);
    let io = IoConfig {
        memory_budget: 1 << 12, // 4 KiB cannot hold a 2000-degree hub
        block_size: 256,
    };
    let err = bottom_up_decompose(&g, &BottomUpConfig::new(io)).unwrap_err();
    assert!(matches!(err, StorageError::BudgetTooSmall(_)), "{err}");
}

#[test]
fn corrupt_file_is_reported_not_panicking() {
    let scratch = ScratchDir::new().unwrap();
    let path = scratch.file("bad");
    std::fs::write(&path, [1u8; 37]).unwrap(); // not a record multiple
    let r = truss_decomposition::storage::EdgeListFile::open(path, IoTracker::new());
    assert!(matches!(r, Err(StorageError::Corrupt(_))));
}

#[test]
fn external_supports_io_scales_with_iterations() {
    let g = gen::gnm(90, 700, 8);
    let floor = g.max_degree() * 40; // support pass charges 32 B/half-edge
    let mut reads = Vec::new();
    for budget in [1usize << 20, (1 << 14).max(floor)] {
        let scratch = ScratchDir::new().unwrap();
        let tracker = IoTracker::new();
        let input = edge_list_from_graph(&g, scratch.file("g"), tracker.clone()).unwrap();
        let cfg = PassConfig::new(IoConfig {
            memory_budget: budget,
            block_size: 512,
        });
        let out =
            external_edge_supports(&input, g.num_vertices(), &scratch, &tracker, &cfg).unwrap();
        assert_eq!(out.finalized.len() as usize, g.num_edges());
        reads.push(tracker.stats(&cfg.io).bytes_read);
    }
    assert!(reads[1] > reads[0]);
}

#[test]
fn scratch_space_is_reclaimed() {
    // Point the engine at a scratch root of its own: sibling tests create
    // and remove their own scratch dirs in the shared temp dir meanwhile.
    let base = std::env::temp_dir().join(format!("truss-reclaim-test-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let g = gen::gnm(40, 200, 1);
    let mut config = EngineConfig::with_budget(1 << 14);
    config.scratch_dir = Some(base.clone());
    let (_, report) = BottomUpEngine.run(EngineInput::Graph(&g), &config).unwrap();
    assert!(report.io.bytes_written > 0, "the run never spilled");
    let left = std::fs::read_dir(&base).unwrap().count();
    std::fs::remove_dir_all(&base).unwrap();
    assert_eq!(left, 0, "scratch dirs leaked");
}
