//! Cross-format round trips and the decomposition's invariance under
//! relabeling and serialization.

use truss_decomposition::core::decompose::truss_decompose;
use truss_decomposition::graph::generators as gen;
use truss_decomposition::graph::{io as gio, permute};

#[test]
fn snap_binary_metis_round_trips_agree() {
    let g = gen::overlapping_communities(
        gen::CommunityConfig {
            n: 90,
            communities: 9,
            min_size: 3,
            max_size: 10,
            size_exponent: 2.0,
            density: 1.0,
            background_edges: 80,
        },
        5,
    );
    let mut snap = Vec::new();
    gio::write_snap(&g, &mut snap).unwrap();
    let mut binary = Vec::new();
    gio::write_binary(&g, &mut binary).unwrap();
    let mut metis = Vec::new();
    gio::write_metis(&g, &mut metis).unwrap();

    let g_binary = gio::read_binary(&binary[..]).unwrap();
    let g_metis = gio::read_metis(&metis[..]).unwrap();
    assert_eq!(g.edges(), g_binary.edges());
    assert_eq!(g.edges(), g_metis.edges());
    // SNAP compacts ids, so compare via decomposition class sizes.
    let g_snap = gio::read_snap(&snap[..]).unwrap();
    assert_eq!(
        truss_decompose(&g).class_sizes(),
        truss_decompose(&g_snap).class_sizes()
    );
}

/// SNAP → binary → SNAP chained round trip: vertex/edge counts and the
/// full trussness vector survive every hop.
#[test]
fn snap_binary_snap_chain_preserves_counts_and_trussness() {
    let g = gen::erdos_renyi::gnm(80, 520, 21);

    let mut snap1 = Vec::new();
    gio::write_snap(&g, &mut snap1).unwrap();
    // First hop may compact ids (SNAP cannot represent isolated vertices);
    // every later hop must be exactly stable.
    let g1 = gio::read_snap(&snap1[..]).unwrap();

    let mut bin = Vec::new();
    gio::write_binary(&g1, &mut bin).unwrap();
    let g2 = gio::read_binary(&bin[..]).unwrap();
    assert_eq!(g1.num_vertices(), g2.num_vertices());
    assert_eq!(g1.num_edges(), g2.num_edges());
    assert_eq!(g1.edges(), g2.edges());

    let mut snap2 = Vec::new();
    gio::write_snap(&g2, &mut snap2).unwrap();
    let g3 = gio::read_snap(&snap2[..]).unwrap();
    assert_eq!(g1.num_vertices(), g3.num_vertices());
    assert_eq!(g1.num_edges(), g3.num_edges());
    assert_eq!(g1.edges(), g3.edges());

    let base = truss_decompose(&g1);
    assert_eq!(base.trussness(), truss_decompose(&g2).trussness());
    assert_eq!(base.trussness(), truss_decompose(&g3).trussness());
    // And against the original graph, counts survive modulo compaction.
    assert_eq!(g.num_edges(), g1.num_edges());
    assert_eq!(base.class_sizes(), truss_decompose(&g).class_sizes());
}

/// METIS import preserves counts (including isolated vertices — the format
/// carries an explicit vertex count) and the per-edge trussness.
#[test]
fn metis_import_preserves_counts_and_trussness() {
    let g = gen::watts_strogatz(70, 6, 0.3, 8);
    let mut metis = Vec::new();
    gio::write_metis(&g, &mut metis).unwrap();
    let g2 = gio::read_metis(&metis[..]).unwrap();
    assert_eq!(g.num_vertices(), g2.num_vertices());
    assert_eq!(g.num_edges(), g2.num_edges());
    assert_eq!(g.edges(), g2.edges());
    assert_eq!(
        truss_decompose(&g).trussness(),
        truss_decompose(&g2).trussness()
    );
}

#[test]
fn decomposition_invariant_under_relabeling() {
    let g = gen::erdos_renyi::gnm(70, 450, 13);
    let base = truss_decompose(&g);
    for perm in [permute::degree_order(&g), permute::bfs_order(&g)] {
        let g2 = perm.relabel(&g);
        let d2 = truss_decompose(&g2);
        assert_eq!(base.class_sizes(), d2.class_sizes());
        assert_eq!(base.k_max(), d2.k_max());
        // Per-edge: trussness of (u,v) equals trussness of (perm u, perm v).
        for (id, e) in g.iter_edges() {
            let id2 = g2.edge_id(perm.apply(e.u), perm.apply(e.v)).unwrap();
            assert_eq!(base.edge_trussness(id), d2.edge_trussness(id2));
        }
    }
}

#[test]
fn external_core_matches_in_memory_on_datasets() {
    use truss_decomposition::core::core_decomposition::core_decompose;
    use truss_decomposition::core::core_external::external_core_decompose;
    use truss_decomposition::storage::{IoConfig, IoTracker, ScratchDir};
    use truss_decomposition::triangle::external::edge_list_from_graph;

    for dataset in [
        truss_decomposition::graph::generators::datasets::Dataset::Hep,
        truss_decomposition::graph::generators::datasets::Dataset::Btc,
    ] {
        let scale = (6_000.0 / dataset.spec().paper.edges as f64).min(0.05);
        let g = dataset.build_scaled(scale, 5);
        let exact = core_decompose(&g);
        let scratch = ScratchDir::new().unwrap();
        let tracker = IoTracker::new();
        let edges = edge_list_from_graph(&g, scratch.file("g"), tracker.clone()).unwrap();
        let io = IoConfig::with_budget(1 << 14);
        let (ext, _) =
            external_core_decompose(&edges, g.num_vertices(), &scratch, &tracker, &io).unwrap();
        assert_eq!(ext.core_numbers(), exact.core_numbers());
    }
}

#[test]
fn topdown_without_cleanup_still_correct() {
    use truss_decomposition::core::top_down::{top_down_decompose, TopDownConfig};
    use truss_decomposition::storage::IoConfig;

    let g = gen::erdos_renyi::gnm(50, 340, 4);
    let exact = truss_decompose(&g);
    for (kinit, cleanup) in [(false, false), (true, false), (false, true)] {
        let mut cfg = TopDownConfig::new(IoConfig::with_budget(1 << 20));
        cfg.use_kinit = kinit;
        cfg.use_cleanup = cleanup;
        let (res, _) = top_down_decompose(&g, &cfg).unwrap();
        assert!(res.complete);
        assert_eq!(
            res.to_decomposition(&g).unwrap().trussness(),
            exact.trussness(),
            "kinit={kinit} cleanup={cleanup}"
        );
    }
}

/// A graph whose highest-id vertices are isolated survives a binary
/// round trip: the v1 reader must honor the stored vertex count instead
/// of inferring `n` from the max edge endpoint (regression — the header
/// count used to be read and discarded).
#[test]
fn binary_round_trip_preserves_trailing_isolated_vertices() {
    use truss_decomposition::graph::CsrGraph;
    let g = truss_decomposition::graph::CsrGraph::with_min_vertices(
        CsrGraph::from_edges(vec![
            truss_decomposition::graph::Edge::new(0, 1),
            truss_decomposition::graph::Edge::new(1, 2),
        ]),
        7,
    );
    let mut bin = Vec::new();
    gio::write_binary(&g, &mut bin).unwrap();
    let g2 = gio::read_binary(&bin[..]).unwrap();
    assert_eq!(g2.num_vertices(), 7);
    assert_eq!(g2.degree(6), 0);
    assert_eq!(g.edges(), g2.edges());

    // And through the v2 snapshot, which carries `n` explicitly.
    let mut snap = Vec::new();
    truss_decomposition::storage::write_graph_snapshot(&g, &mut snap).unwrap();
    let dir = std::env::temp_dir().join(format!("truss-fmt-iso-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("iso.gr2");
    std::fs::write(&p, &snap).unwrap();
    let g3 = truss_decomposition::storage::open_graph_snapshot(
        &p,
        truss_decomposition::storage::LoadMode::Auto,
    )
    .unwrap();
    assert_eq!(g3.num_vertices(), 7);
    assert_eq!(g.edges(), g3.edges());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// v1 → v2 → v1 must round-trip bit-identically for graphs, and the
/// v2 → v1 → v2 direction for snapshots (both formats are canonical
/// serializations of the same structure).
#[test]
fn graph_v1_v2_migration_is_bit_identical() {
    use truss_decomposition::storage::{self, LoadMode};
    let g = gen::erdos_renyi::gnm(70, 400, 33);
    let dir = std::env::temp_dir().join(format!("truss-fmt-migrate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // v1 bytes → load → write v2 → open → write v1 again.
    let mut v1 = Vec::new();
    gio::write_binary(&g, &mut v1).unwrap();
    let p1 = dir.join("g.bin");
    std::fs::write(&p1, &v1).unwrap();
    let loaded = storage::load_graph_auto(&p1, LoadMode::Auto).unwrap();
    let p2 = dir.join("g.gr2");
    storage::write_graph_snapshot(&loaded, std::fs::File::create(&p2).unwrap()).unwrap();
    let reopened = storage::open_graph_snapshot(&p2, LoadMode::Auto).unwrap();
    let mut v1_again = Vec::new();
    gio::write_binary(&reopened, &mut v1_again).unwrap();
    assert_eq!(v1, v1_again, "v1 -> v2 -> v1 must be bit-identical");

    // And v2 -> v1 -> v2.
    let mut v2_again = Vec::new();
    storage::write_graph_snapshot(
        &storage::load_graph_auto(&p1, LoadMode::Auto).unwrap(),
        &mut v2_again,
    )
    .unwrap();
    assert_eq!(std::fs::read(&p2).unwrap(), v2_again);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rows are copied out of a mapped snapshot with positioned reads, so a
/// file truncated after it was mapped fails the copy with an error
/// instead of raising SIGBUS on a mapped page past the new end.
#[test]
fn copy_rows_on_a_truncated_snapshot_is_an_error() {
    use truss_decomposition::storage::{self, LoadMode};
    let g = gen::erdos_renyi::gnm(70, 400, 35);
    let dir = std::env::temp_dir().join(format!("truss-fmt-truncate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.gr2");
    storage::write_graph_snapshot(&g, std::fs::File::create(&path).unwrap()).unwrap();
    let mapped = storage::open_graph_snapshot(&path, LoadMode::Auto).unwrap();
    let n = mapped.num_vertices() as u32;
    let (mut nbrs, mut eids) = (Vec::new(), Vec::new());
    mapped.copy_rows(0, n, &mut nbrs, &mut eids).unwrap();
    assert_eq!(nbrs, g.neighbors_section().as_slice());
    assert_eq!(eids, g.edge_ids_section().as_slice());

    let len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(len / 2)
        .unwrap();
    if mapped.is_mapped() {
        assert!(mapped.copy_rows(0, n, &mut nbrs, &mut eids).is_err());
    }
    drop(mapped);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same bit-identical migration for index files, through the typed
/// TrussIndex save/load API the CLI `truss convert` uses.
#[test]
fn index_v1_v2_migration_is_bit_identical() {
    use truss_decomposition::core::index::IndexFormat;
    use truss_decomposition::prelude::TrussIndex;
    let g = gen::watts_strogatz(50, 6, 0.2, 19);
    let dir = std::env::temp_dir().join(format!("truss-fmt-imigrate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let index = TrussIndex::from_decompose(g);

    let p1 = dir.join("i.v1.tix");
    let p2 = dir.join("i.v2.tix");
    index.save_as(&p1, IndexFormat::V1).unwrap();
    index.save_as(&p2, IndexFormat::V2).unwrap();

    // v1 -> v2 -> v1.
    let (from_v1, f1) =
        TrussIndex::load_with(&p1, truss_decomposition::storage::LoadMode::Auto).unwrap();
    assert_eq!(f1, IndexFormat::V1);
    let p2b = dir.join("i.v2b.tix");
    from_v1.save_as(&p2b, IndexFormat::V2).unwrap();
    assert_eq!(std::fs::read(&p2).unwrap(), std::fs::read(&p2b).unwrap());

    let (from_v2, f2) =
        TrussIndex::load_with(&p2b, truss_decomposition::storage::LoadMode::Auto).unwrap();
    assert_eq!(f2, IndexFormat::V2);
    let p1b = dir.join("i.v1b.tix");
    from_v2.save_as(&p1b, IndexFormat::V1).unwrap();
    assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p1b).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}
