//! Integration tests of the persistent `TrussIndex`: disk round-trips and
//! property-based cross-checks that incremental insert/delete maintenance
//! produces edge-for-edge identical truss numbers to from-scratch
//! recomputation, on Erdős–Rényi and R-MAT graphs.

use proptest::prelude::*;
use truss_decomposition::graph::generators as gen;
use truss_decomposition::prelude::*;

/// The incremental result must equal a from-scratch decomposition of the
/// index's current graph.
fn assert_matches_scratch(index: &TrussIndex, label: &str) {
    let scratch = truss_decompose(index.graph());
    assert_eq!(index.trussness(), scratch.trussness(), "{label}");
    assert_eq!(index.max_k(), scratch.k_max(), "{label}: k_max");
}

/// Strategy: a random simple graph with up to `n` vertices and `m` raw
/// edges (same shape as tests/properties.rs).
fn arb_graph(n: u32, m: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..n, 0..n), 1..m).prop_map(|pairs| {
        let edges: Vec<Edge> = pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Edge::new(a, b))
            .collect();
        CsrGraph::from_edges(edges)
    })
}

/// Strategy: a batch of operations `(a, b, op)` over vertex ids `0..n`;
/// `op == 0` inserts the edge, anything else removes it.
fn arb_ops(n: u32, len: usize) -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    prop::collection::vec((0..n, 0..n, 0..2u32), 1..len)
}

fn delta_from_ops(ops: &[(u32, u32, u32)]) -> EdgeDelta {
    let mut delta = EdgeDelta::new();
    for &(a, b, op) in ops {
        if a == b {
            continue;
        }
        if op == 0 {
            delta.insert.push(Edge::new(a, b));
        } else {
            delta.remove.push(Edge::new(a, b));
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Erdős–Rényi-style random graphs under random mixed batches.
    #[test]
    fn er_random_batches_match_scratch(
        g in arb_graph(36, 260),
        ops in arb_ops(40, 40),
    ) {
        let mut index = TrussIndex::from_decompose(g);
        let delta = delta_from_ops(&ops);
        let stats = index.apply(&delta);
        prop_assert_eq!(stats.applied() + stats.skipped, {
            let mut d = delta.clone();
            d.normalize();
            d.len()
        });
        assert_matches_scratch(&index, "ER mixed batch");
    }

    /// Repeated batches drift the graph far from the indexed original;
    /// every intermediate state must stay exact.
    #[test]
    fn er_repeated_batches_match_scratch(
        g in arb_graph(28, 160),
        rounds in prop::collection::vec(arb_ops(32, 16), 1..4),
    ) {
        let mut index = TrussIndex::from_decompose(g);
        for (i, ops) in rounds.iter().enumerate() {
            index.apply(&delta_from_ops(ops));
            assert_matches_scratch(&index, &format!("round {i}"));
        }
    }

    /// R-MAT graphs: hold out a slice of edges, index the rest, insert the
    /// holdout back as one batch, then delete a spaced batch — both steps
    /// must match from-scratch recomputation.
    #[test]
    fn rmat_insert_and_delete_batches_match_scratch(
        seed in 0u64..512,
        holdout in 2usize..7,
    ) {
        let g = gen::rmat(gen::RmatConfig::skewed(6, 420), seed);
        let all: Vec<Edge> = g.edges().to_vec();
        let held: Vec<Edge> = all.iter().copied().step_by(holdout).collect();
        let base: Vec<Edge> = all
            .iter()
            .copied()
            .filter(|e| !held.contains(e))
            .collect();
        let mut index = TrussIndex::from_decompose(CsrGraph::from_edges(base));
        let stats = index.insert_edges(&held);
        prop_assert_eq!(stats.inserted, held.len());
        assert_matches_scratch(&index, "R-MAT insert holdout");
        // The restored graph must decompose identically to the original.
        let full = truss_decompose(&g);
        prop_assert_eq!(index.trussness(), full.trussness());

        let victims: Vec<Edge> = all.iter().copied().skip(1).step_by(holdout + 1).collect();
        index.remove_edges(&victims);
        assert_matches_scratch(&index, "R-MAT delete batch");
    }
}

/// The index's full v2 byte image (graph sections, trussness and every
/// derived section), plus the container checksum it carries.
fn image(index: &TrussIndex) -> (Vec<u8>, u64) {
    let mut bytes = Vec::new();
    let checksum = index.write_snapshot(&mut bytes).unwrap();
    (bytes, checksum)
}

/// What a from-scratch build of the same edge set over `n` vertices
/// writes.
fn rebuilt_image(edges: &[Edge], n: usize) -> (Vec<u8>, u64) {
    let g = CsrGraph::with_min_vertices(CsrGraph::from_edges(edges.to_vec()), n);
    let d = truss_decompose(&g);
    image(&TrussIndex::from_parts(g, d))
}

/// Strategy: one round of a multi-round update — random operations over
/// `0..n` (ids past the indexed range included) plus a selector for the
/// edge-order extremes: bit 0 also removes the current first edge, bit 1
/// the current last one, bit 2 repeats the first operation (a duplicate),
/// and 15 drains the graph to empty.
fn arb_round(n: u32) -> impl Strategy<Value = (Vec<(u32, u32, u32)>, u32)> {
    (arb_ops(n, 24), 0..16u32)
}

fn round_delta(index: &TrussIndex, ops: &[(u32, u32, u32)], extremes: u32) -> EdgeDelta {
    let mut delta = delta_from_ops(ops);
    let edges = index.graph().edges();
    if extremes == 15 {
        delta.remove.extend_from_slice(edges);
        return delta;
    }
    if extremes & 1 != 0 {
        delta.remove.extend(edges.first().copied());
    }
    if extremes & 2 != 0 {
        delta.remove.extend(edges.last().copied());
    }
    if extremes & 4 != 0 {
        if let Some(&e) = delta.insert.first() {
            delta.insert.push(e);
        }
        if let Some(&e) = delta.remove.first() {
            delta.remove.push(e);
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round after round of mixed deltas, the maintained index writes the
    /// byte image a from-scratch build of its edge set writes — graph
    /// sections, trussness, level order, level counts, vertex trussness
    /// and the container checksum — and the source index is left as it
    /// was. Writing into a retired index's allocations changes nothing.
    #[test]
    fn applied_deltas_match_rebuild_byte_for_byte(
        g in arb_graph(30, 200),
        rounds in prop::collection::vec(arb_round(40), 1..7),
    ) {
        let mut index = TrussIndex::from_decompose(g);
        let mut retired: Option<TrussIndex> = None;
        let mut n = index.num_vertices();
        for (i, (ops, extremes)) in rounds.iter().enumerate() {
            let delta = round_delta(&index, ops, *extremes);
            let before = image(&index);
            let (next, stats) = index.applied(&delta);
            prop_assert_eq!(image(&index), before.clone(), "round {}: source changed", i);
            let (recycled, again) = index.applied_recycling(&delta, retired.take());
            prop_assert_eq!(again, stats);
            prop_assert!(image(&recycled) == image(&next), "round {}: recycled", i);
            n = delta.insert.iter().map(|e| e.v as usize + 1).fold(n, usize::max);
            prop_assert_eq!(next.num_vertices(), n, "round {}: vertex ids never shrink", i);
            let expected = rebuilt_image(next.graph().edges(), n);
            prop_assert!(image(&next) == expected, "round {}: image differs from a rebuild", i);
            if stats.applied() == 0 {
                prop_assert!(image(&next) == before, "round {}: a no-op changed the image", i);
            }
            // A mixed batch is its removals, then its insertions.
            let (removed, r) = index.applied(&EdgeDelta::removing(delta.remove.iter().copied()));
            let (inserted, a) = removed.applied(&EdgeDelta::inserting(delta.insert.iter().copied()));
            prop_assert!(image(&inserted) == image(&next), "round {}: two phases differ", i);
            let (seeded, settled, lowered) =
                (r.seeded + a.seeded, r.settled + a.settled, r.lowered + a.lowered);
            prop_assert_eq!((stats.seeded, stats.settled, stats.lowered), (seeded, settled, lowered));
            retired = Some(std::mem::replace(&mut index, next));
        }
    }
}

#[test]
fn save_load_round_trip_preserves_queries_and_updates() {
    let g = gen::figure2_graph();
    let index = TrussIndex::from_decompose(g);
    let path = std::env::temp_dir().join(format!("truss-it-index-{}.tix", std::process::id()));
    index.save(&path).unwrap();
    let mut back = TrussIndex::load(&path).unwrap();
    assert_eq!(back.trussness(), index.trussness());
    assert_eq!(back.spectrum().class_sizes, index.spectrum().class_sizes);
    assert_eq!(back.k_truss_communities(4).len(), 2);

    // A loaded index accepts updates like a freshly built one.
    back.apply(&EdgeDelta {
        insert: vec![Edge::new(4, 7)],
        remove: vec![Edge::new(0, 1)],
    });
    assert_matches_scratch(&back, "updates after load");
    back.save(&path).unwrap();
    let again = TrussIndex::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(again.trussness(), back.trussness());
}

/// A memory-mapped v2 generation is as good a source as a heap-built
/// one: the same delta gives the same stats and the same byte image.
#[test]
fn mapped_generation_updates_like_a_heap_index() {
    let heap = TrussIndex::from_decompose(gen::gnm(50, 300, 3));
    let path = std::env::temp_dir().join(format!("truss-it-mapped-{}.tix", std::process::id()));
    heap.save(&path).unwrap();
    let mut mapped = TrussIndex::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let edges = heap.graph().edges();
    let delta = EdgeDelta {
        insert: vec![Edge::new(0, 1), Edge::new(2, 55), Edge::new(7, 9)],
        remove: vec![edges[0], edges[edges.len() / 2], *edges.last().unwrap()],
    };
    let mut expected = heap.clone();
    let expected_stats = expected.apply(&delta);
    assert_eq!(mapped.apply(&delta), expected_stats);
    assert!(image(&mapped) == image(&expected));
}

#[test]
fn engine_build_index_serves_queries() {
    // `TrussEngine::build_index` promotes any engine's run into the
    // servable artifact.
    let g = gen::figure2_graph();
    let engines = registry();
    let engine = engines.by_name("topdown").expect("registered");
    let (index, report) = engine
        .build_index(EngineInput::Graph(&g), &EngineConfig::sized_for(&g))
        .unwrap();
    assert_eq!(report.k_max, 5);
    assert_eq!(index.truss_of(0, 1), Some(5));
    assert_eq!(index.k_truss_edge_ids(5).len(), 10);
}
