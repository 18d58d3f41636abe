//! Cross-algorithm consistency: every engine in the registry (TD-inmem,
//! TD-inmem+, TD-bottomup, TD-topdown, TD-MR, and the PKT-style parallel
//! engine) must produce identical decompositions on a suite of generators,
//! seeds and memory budgets.
//!
//! All dispatch goes through `truss_decomposition::engine::registry()` —
//! a newly registered engine is automatically pulled into every check. The
//! parallel engine additionally gets a dedicated thread-ladder sweep, since
//! the pairwise pass runs every engine under one shared config.

use truss_decomposition::core::decompose::TrussDecomposition;
use truss_decomposition::core::index::TrussIndex;
use truss_decomposition::core::truss::verify_decomposition;
use truss_decomposition::engine::{
    registry, AlgorithmKind, EngineConfig, EngineInput, EngineRegistry,
};
use truss_decomposition::graph::generators as gen;
use truss_decomposition::graph::{CsrGraph, Edge};
use truss_decomposition::storage::IoConfig;
use truss_decomposition::triangle::count::edge_supports;

/// The generator suite: name + graph.
fn suite() -> Vec<(String, CsrGraph)> {
    let mut graphs: Vec<(String, CsrGraph)> = vec![
        ("figure2".into(), gen::figure2_graph()),
        ("manager".into(), gen::manager_graph()),
        ("k8".into(), gen::complete(8)),
        ("cycle12".into(), gen::cycle(12)),
        ("bipartite".into(), gen::complete_bipartite(4, 6)),
        ("grid".into(), gen::grid(5, 6)),
        ("ws".into(), gen::watts_strogatz(60, 6, 0.2, 5)),
        ("ba".into(), gen::barabasi_albert(80, 3, 9)),
        ("rmat".into(), gen::rmat(gen::RmatConfig::skewed(7, 600), 4)),
        // Degenerate degree distributions: a pure star (every edge support
        // 0, one giant hub column) and a hub with a planted near-clique
        // (the hub edge sits in many triangles while the leaves sit in
        // none — the skew the degree-aware block sizing exists for).
        ("star".into(), gen::star(300)),
        (
            "hub-clique".into(),
            gen::planted_clique(&gen::star(200), 24, 7),
        ),
        // A heavier power-law than "rmat": twice the scale and samples,
        // so deep k-classes coexist with long support-0 tails.
        (
            "rmat-heavy".into(),
            gen::rmat(gen::RmatConfig::skewed(8, 1500), 8),
        ),
        (
            "communities".into(),
            gen::overlapping_communities(
                gen::CommunityConfig {
                    n: 120,
                    communities: 12,
                    min_size: 3,
                    max_size: 12,
                    size_exponent: 2.0,
                    density: 0.9,
                    background_edges: 120,
                },
                11,
            ),
        ),
    ];
    for seed in 0..3 {
        graphs.push((format!("gnm-{seed}"), gen::gnm(50, 320, seed)));
    }
    graphs
}

/// Engine configuration with the given memory budget. Support stats stay
/// on, so every [`run`] also checks the engine's own triangle count. The
/// engines themselves clamp the budget up to the algorithmic minimum via
/// `effective_io`.
fn config_with_budget(budget: usize) -> EngineConfig {
    EngineConfig::with_io(IoConfig {
        memory_budget: budget,
        block_size: (budget / 8).max(64),
    })
}

/// The TD-MR baseline is slow by design; skip it on larger suite graphs.
fn runs_on(kind: AlgorithmKind, g: &CsrGraph) -> bool {
    kind != AlgorithmKind::MapReduce || g.num_edges() <= 400
}

fn run(
    engines: &EngineRegistry,
    kind: AlgorithmKind,
    g: &CsrGraph,
    config: &EngineConfig,
    label: &str,
) -> TrussDecomposition {
    let engine = engines
        .get(kind)
        .unwrap_or_else(|| panic!("{kind} missing"));
    let (d, report) = engine
        .run(EngineInput::Graph(g), config)
        .unwrap_or_else(|e| panic!("{label}: {kind}: {e}"));
    assert_eq!(report.k_max, d.k_max(), "{label}: {kind} report k_max");
    if let Some(support_sum) = report.support_sum {
        let expect: u64 = edge_supports(g).iter().map(|&s| u64::from(s)).sum();
        assert_eq!(support_sum, expect, "{label}: {kind} report support_sum");
        assert_eq!(
            report.triangles,
            Some(expect / 3),
            "{label}: {kind} report triangles"
        );
    }
    d
}

/// Every pair of registered engines agrees edge-for-edge, and the common
/// result satisfies the k-truss definition.
#[test]
fn all_engines_agree_pairwise() {
    let engines = registry();
    assert!(
        engines.len() >= 6,
        "expected the five paper algorithms plus the parallel engine"
    );
    for (name, g) in suite() {
        // Two worker threads so the parallel engine's concurrent peel (not
        // just its serial fallback) is what gets cross-checked.
        let mut config = config_with_budget(1 << 20);
        config.threads = 2;
        let results: Vec<(AlgorithmKind, TrussDecomposition)> = engines
            .kinds()
            .into_iter()
            .filter(|&kind| runs_on(kind, &g))
            .map(|kind| (kind, run(&engines, kind, &g, &config, &name)))
            .collect();
        assert!(results.len() >= 5, "{name}: too few engines ran");
        verify_decomposition(&g, &results[0].1).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (i, (kind_a, a)) in results.iter().enumerate() {
            for (kind_b, b) in &results[i + 1..] {
                assert_eq!(a.trussness(), b.trussness(), "{name}: {kind_a} vs {kind_b}");
            }
        }
    }
}

/// The parallel engine matches the serial reference on every suite graph
/// at every thread count — the acceptance bar for `--algo parallel
/// --threads N`. Thread counts beyond the frontier size and beyond the
/// machine width are included deliberately. The reference is TD-inmem:
/// TD-inmem+ runs the parallel engine's own kernel at width 1.
#[test]
fn parallel_engine_matches_serial_across_thread_counts() {
    let engines = registry();
    for (name, g) in suite() {
        let exact = run(
            &engines,
            AlgorithmKind::Inmem,
            &g,
            &config_with_budget(1 << 20),
            &name,
        );
        for threads in [1usize, 2, 4, 8] {
            let mut config = config_with_budget(1 << 20);
            config.threads = threads;
            let engine = engines.get(AlgorithmKind::Parallel).expect("registered");
            let (d, report) = engine
                .run(EngineInput::Graph(&g), &config)
                .unwrap_or_else(|e| panic!("{name}@{threads}: {e}"));
            assert_eq!(report.threads_used, threads, "{name}@{threads}");
            assert_eq!(
                d.trussness(),
                exact.trussness(),
                "{name}: parallel@{threads} vs inmem"
            );
        }
    }
}

/// The out-of-core engine's shard-parallel passes are exact and
/// deterministic at every worker width: `--algo outofcore --threads N`
/// produces byte-identical trussness for N in {1, 2, 4, 8} and matches
/// the in-memory reference. Trussness is a unique function of the graph,
/// so determinism here is a corollary of correctness — but the ladder
/// still catches lost or double-applied cross-shard decrements, which
/// manifest as thread-count-dependent output. Widths beyond the machine
/// (the pool is unclamped inside the engine) are included deliberately.
/// Each graph runs from the heap (rows copied as slices) and as a mapped
/// GR2 snapshot (rows copied with positioned reads on the file).
#[test]
fn outofcore_engine_matches_serial_across_thread_counts() {
    use truss_decomposition::storage::{
        open_graph_snapshot, write_graph_snapshot, LoadMode, ScratchDir,
    };
    let engines = registry();
    let scratch = ScratchDir::new().unwrap();
    for (name, g) in suite() {
        let exact = run(
            &engines,
            AlgorithmKind::InmemPlus,
            &g,
            &config_with_budget(1 << 20),
            &name,
        );
        let path = scratch.file(&format!("{name}.gr2"));
        write_graph_snapshot(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let mapped = open_graph_snapshot(&path, LoadMode::Auto).unwrap();
        let mut previous: Option<Vec<u32>> = None;
        for (input, graph) in [("heap", &g), ("gr2", &mapped)] {
            for threads in [1usize, 2, 4, 8] {
                let at = format!("{name}/{input}@{threads}");
                let mut config = config_with_budget(1 << 20);
                config.threads = threads;
                let engine = engines.get(AlgorithmKind::OutOfCore).expect("registered");
                let (d, report) = engine
                    .run(EngineInput::Graph(graph), &config)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(report.threads_used, threads, "{at}");
                assert_eq!(d.trussness(), exact.trussness(), "{at}: vs inmem+");
                if let Some(prev) = &previous {
                    assert_eq!(
                        d.trussness(),
                        prev.as_slice(),
                        "{at}: not byte-identical to the previous run"
                    );
                }
                previous = Some(d.trussness().to_vec());
            }
        }
    }
}

/// The parallel peel is *deterministic*: bit-identical trussness across
/// repeated runs and across thread counts far beyond the machine width.
/// Unclamped pools force genuinely concurrent workers — a regular pool on
/// a small CI machine would silently collapse every rung to one worker —
/// and the dense G(n,m) graph pushes the per-sub-iteration work estimate
/// past the spawn floor, so the cost-balanced fan-out path (not just the
/// direct path) is what must prove stable here.
#[test]
fn parallel_peel_is_deterministic_across_wide_ladders() {
    use truss_decomposition::core::decompose::{
        truss_decompose_with, EdgeIndexKind, ImprovedConfig,
    };
    use truss_decomposition::core::parallel::parallel_truss_decompose_with;
    use truss_decomposition::core::pool::ThreadPool;
    let graphs = [
        ("hub-clique", gen::planted_clique(&gen::star(150), 20, 3)),
        ("rmat-heavy", gen::rmat(gen::RmatConfig::skewed(8, 1600), 8)),
        ("gnm-dense", gen::gnm(1200, 24_000, 9)),
    ];
    for (name, g) in graphs {
        // The paper's hash-table arm: independent of the frontier kernel.
        let hash = ImprovedConfig {
            edge_index: EdgeIndexKind::Hash,
        };
        let (reference, _) = truss_decompose_with(&g, hash);
        for threads in [16usize, 32] {
            let pool = ThreadPool::unclamped(threads);
            for rep in 0..2 {
                let (d, _, _) = parallel_truss_decompose_with(&g, &pool);
                assert_eq!(
                    d.trussness(),
                    reference.trussness(),
                    "{name}@{threads} rep {rep}"
                );
            }
        }
    }
}

/// The external engines stay correct when the budget is squeezed far below
/// the graph size (exercising partitioned pair-sweep paths and spilled
/// out-of-core shards), and their reported triangle counts — taken from
/// their own budgeted support passes — still match the in-memory count.
#[test]
fn external_engines_survive_tiny_budgets() {
    let engines = registry();
    for (name, g) in suite() {
        let exact = run(
            &engines,
            AlgorithmKind::InmemPlus,
            &g,
            &config_with_budget(1 << 20),
            &name,
        );
        let tiny = config_with_budget(6 * 1024);
        for kind in [
            AlgorithmKind::BottomUp,
            AlgorithmKind::TopDown,
            AlgorithmKind::OutOfCore,
        ] {
            let d = run(&engines, kind, &g, &tiny, &name);
            assert_eq!(
                d.trussness(),
                exact.trussness(),
                "{name}: {kind} tiny budget"
            );
        }
    }
}

/// Incremental `TrussIndex` maintenance agrees with every registered
/// engine: build an index on a reduced graph, insert the held-out edges
/// back, and the maintained truss numbers must match each engine's
/// from-scratch run on the full graph; then delete a batch and match each
/// engine on the correspondingly reduced graph. Like the pairwise check,
/// this pulls in newly registered engines automatically.
#[test]
fn dynamic_index_maintenance_matches_all_engines() {
    let engines = registry();
    let mut config = config_with_budget(1 << 20);
    config.threads = 2;
    for (name, g) in suite() {
        let all: Vec<Edge> = g.edges().to_vec();
        let held: Vec<Edge> = all.iter().copied().step_by(6).collect();
        let base: Vec<Edge> = all.iter().copied().filter(|e| !held.contains(e)).collect();
        let mut index = TrussIndex::from_decompose(CsrGraph::from_edges(base));
        let stats = index.insert_edges(&held);
        assert_eq!(stats.inserted, held.len(), "{name}");
        for kind in engines.kinds() {
            if !runs_on(kind, &g) {
                continue;
            }
            let d = run(&engines, kind, &g, &config, &name);
            assert_eq!(
                index.trussness(),
                d.trussness(),
                "{name}: incremental insert vs {kind}"
            );
        }

        let victims: Vec<Edge> = all.iter().copied().skip(1).step_by(5).collect();
        index.remove_edges(&victims);
        let reduced = CsrGraph::from_edges(
            all.iter()
                .copied()
                .filter(|e| !victims.contains(e))
                .collect::<Vec<_>>(),
        );
        for kind in engines.kinds() {
            if !runs_on(kind, &reduced) {
                continue;
            }
            let d = run(&engines, kind, &reduced, &config, &name);
            assert_eq!(
                index.trussness(),
                d.trussness(),
                "{name}: incremental delete vs {kind}"
            );
        }
    }
}

#[test]
fn dataset_analogues_consistent() {
    use truss_decomposition::graph::generators::datasets::all_datasets;
    let engines = registry();
    for dataset in all_datasets() {
        // Cap the test size: the paper-scale edge counts differ by 4 orders
        // of magnitude, so choose the scale per dataset for ~8K edges.
        let scale = (8_000.0 / dataset.spec().paper.edges as f64).min(0.05);
        let g = dataset.build_scaled(scale, 77);
        let name = dataset.spec().name;
        let exact = run(
            &engines,
            AlgorithmKind::InmemPlus,
            &g,
            &config_with_budget(1 << 24),
            name,
        );
        verify_decomposition(&g, &exact).unwrap_or_else(|e| panic!("{name}: {e}"));
        // A budget that keeps candidate subgraphs in memory (the planted
        // near-cliques of the lj/web analogues dominate at tiny scales and
        // debug-mode pair-sweeps over them are prohibitively slow); stage 1
        // still partitions since its parts charge ~64 B per edge.
        let budget = (g.num_edges() * 80).max(1 << 14);
        let mut config = config_with_budget(budget);
        config.io.block_size = (budget / 16).max(512);
        let d = run(&engines, AlgorithmKind::BottomUp, &g, &config, name);
        assert_eq!(d.trussness(), exact.trussness(), "{name}");
    }
}

/// Every query API of the index answers identically on the owned
/// (in-memory) view and the mapped/buffered v2 snapshot views, across
/// the whole generator suite — and on the v1 file for good measure.
/// This is the acceptance gate for the zero-copy storage path: a graph
/// or index served straight from disk must be indistinguishable from
/// one built on the heap.
#[test]
fn snapshot_views_answer_queries_identically_across_suite() {
    use truss_decomposition::storage::LoadMode;
    let dir = std::env::temp_dir().join(format!("truss-consistency-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, g) in suite() {
        let owned = TrussIndex::from_decompose(g.clone());
        let v2 = dir.join(format!("{name}.tix"));
        let v1 = dir.join(format!("{name}.v1.tix"));
        owned
            .save(&v2)
            .unwrap_or_else(|e| panic!("{name}: save v2: {e}"));
        owned
            .save_as(&v1, truss_decomposition::core::index::IndexFormat::V1)
            .unwrap_or_else(|e| panic!("{name}: save v1: {e}"));

        let mapped = TrussIndex::load(&v2).unwrap_or_else(|e| panic!("{name}: load v2: {e}"));
        let (buffered, _) = TrussIndex::load_with(&v2, LoadMode::Buffered)
            .unwrap_or_else(|e| panic!("{name}: buffered v2: {e}"));
        let legacy = TrussIndex::load(&v1).unwrap_or_else(|e| panic!("{name}: load v1: {e}"));

        for (flavor, view) in [
            ("mapped", &mapped),
            ("buffered", &buffered),
            ("v1", &legacy),
        ] {
            let label = format!("{name}/{flavor}");
            assert_eq!(view.trussness(), owned.trussness(), "{label}");
            assert_eq!(view.max_k(), owned.max_k(), "{label}");
            assert_eq!(view.num_edges(), owned.num_edges(), "{label}");
            assert_eq!(view.num_vertices(), owned.num_vertices(), "{label}");
            assert_eq!(view.vertex_trussness(), owned.vertex_trussness(), "{label}");
            for k in 0..=owned.max_k() + 2 {
                assert_eq!(view.k_truss_size(k), owned.k_truss_size(k), "{label} k={k}");
                assert_eq!(
                    view.k_truss_edge_ids(k),
                    owned.k_truss_edge_ids(k),
                    "{label} k={k}"
                );
                assert_eq!(
                    view.k_truss_edges(k),
                    owned.k_truss_edges(k),
                    "{label} k={k}"
                );
                let (vc, oc) = (view.k_truss_communities(k), owned.k_truss_communities(k));
                assert_eq!(vc.len(), oc.len(), "{label} k={k} communities");
                for (a, b) in vc.iter().zip(&oc) {
                    assert_eq!(a.vertices, b.vertices, "{label} k={k}");
                }
            }
            let (vs, os) = (view.spectrum(), owned.spectrum());
            assert_eq!(vs.k_max, os.k_max, "{label}");
            assert_eq!(vs.class_sizes, os.class_sizes, "{label}");
            for (id, e) in g.iter_edges() {
                assert_eq!(view.truss_of(e.u, e.v), owned.truss_of(e.u, e.v), "{label}");
                assert_eq!(view.truss_of_edge(id), owned.truss_of_edge(id), "{label}");
            }
        }

        // The mapped view keeps no per-section heap; its pages are
        // accounted as mapped bytes instead.
        if mapped.mapped_bytes() > 0 {
            assert_eq!(mapped.heap_bytes(), 0, "{name}: mapped index costs no heap");
        }
        assert!(
            buffered.mapped_bytes() == 0 && buffered.heap_bytes() > 0,
            "{name}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A mapped index stays fully functional under mutation: `apply`
/// writes an owned successor from the views, and the updated index
/// matches a from-scratch decomposition (and can be re-saved in either
/// format).
#[test]
fn mapped_index_survives_updates_via_copy_on_write() {
    use truss_decomposition::prelude::EdgeDelta;
    let g = gen::figure2_graph();
    let path = std::env::temp_dir().join(format!("truss-cow-{}.tix", std::process::id()));
    TrussIndex::from_decompose(g).save(&path).unwrap();
    let mut index = TrussIndex::load(&path).unwrap();

    let mut delta = EdgeDelta::new();
    delta.remove.push(Edge::new(0, 1));
    delta.insert.push(Edge::new(4, 7));
    index.apply(&delta);

    let scratch = truss_decomposition::prelude::truss_decompose(index.graph());
    assert_eq!(index.trussness(), scratch.trussness());
    index.save(&path).unwrap();
    let back = TrussIndex::load(&path).unwrap();
    assert_eq!(back.trussness(), index.trussness());
    std::fs::remove_file(&path).unwrap();
}
