//! Property-based tests (proptest) of the decomposition invariants on
//! random graphs.

use proptest::prelude::*;
use truss_decomposition::core::core_decomposition::core_decompose;
use truss_decomposition::core::decompose::{truss_decompose, truss_decompose_naive};
use truss_decomposition::core::outofcore::filter::EdgeFilter;
use truss_decomposition::core::outofcore::spill::SpillDrain;
use truss_decomposition::core::outofcore::state::StateFile;
use truss_decomposition::core::outofcore::support::sharded_supports;
use truss_decomposition::core::outofcore::{
    outofcore_decompose_in, outofcore_minimum_budget, OutOfCoreConfig, ShardPlan,
};
use truss_decomposition::core::pool::ThreadPool;
use truss_decomposition::core::truss::{is_k_truss, peel_to_k_truss, truss_subgraph_edges};
use truss_decomposition::graph::generators::{rmat, RmatConfig};
use truss_decomposition::graph::{CsrGraph, Edge};
use truss_decomposition::storage::{IoConfig, IoTracker, ScratchDir, Window};
use truss_decomposition::triangle::count::{edge_supports, triangle_count};
use truss_decomposition::triangle::{intersect_hybrid, intersect_merge, FwdList};

/// Shard counts every out-of-core property is checked against: serial,
/// even splits, an odd count that never divides the vertex range evenly.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Strategy: a random simple graph with up to `n` vertices and `m` raw edges.
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

/// Owned columns backing a [`FwdList`]: strictly-ascending unique ranks
/// with deterministic vertex/edge-id payloads, so every emitted triple can
/// be traced back to the generating rank.
#[derive(Debug, Clone)]
struct Cols {
    ranks: Vec<u32>,
    verts: Vec<u32>,
    edge_ids: Vec<u32>,
}

impl Cols {
    fn from_ranks(mut ranks: Vec<u32>, salt: u32) -> Cols {
        ranks.sort_unstable();
        ranks.dedup();
        let verts = ranks.clone();
        let edge_ids = ranks
            .iter()
            .map(|r| r.wrapping_mul(31).wrapping_add(salt))
            .collect();
        Cols {
            ranks,
            verts,
            edge_ids,
        }
    }

    fn list(&self) -> FwdList<'_> {
        FwdList {
            ranks: &self.ranks,
            verts: &self.verts,
            edge_ids: &self.edge_ids,
        }
    }
}

/// Collects an intersection kernel's output.
fn run_kernel(
    f: impl FnOnce(FwdList<'_>, FwdList<'_>, &mut dyn FnMut(u32, u32, u32)),
    a: &Cols,
    b: &Cols,
) -> Vec<(u32, u32, u32)> {
    let mut out = Vec::new();
    f(a.list(), b.list(), &mut |w, e1, e2| out.push((w, e1, e2)));
    out
}

/// Both kernels, both argument orders, on one pair of lists.
fn assert_kernels_agree(a: &Cols, b: &Cols) {
    let merge = run_kernel(|x, y, f| intersect_merge(x, y, f), a, b);
    let hybrid = run_kernel(|x, y, f| intersect_hybrid(x, y, f), a, b);
    assert_eq!(merge, hybrid, "a={a:?} b={b:?}");
    let merge_r = run_kernel(|x, y, f| intersect_merge(x, y, f), b, a);
    let hybrid_r = run_kernel(|x, y, f| intersect_hybrid(x, y, f), b, a);
    assert_eq!(merge_r, hybrid_r, "reversed, a={a:?} b={b:?}");
}

/// Deterministic adversarial pairs for the hybrid intersection kernel:
/// empty, singleton, disjoint, nested, and power-law-skewed lengths — the
/// shapes that exercise the gallop/merge cutoff and the gallop cursor.
#[test]
fn intersection_kernels_agree_on_adversarial_shapes() {
    let long: Vec<u32> = (0..1000).collect();
    let sparse: Vec<u32> = (0..1000).step_by(97).collect();
    let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
        (vec![], vec![]),
        (vec![], long.clone()),
        (vec![7], long.clone()),    // singleton hit
        (vec![1001], long.clone()), // singleton miss past the end
        (vec![0], long.clone()),    // singleton hit at the front
        (
            (0..40).map(|x| 2 * x).collect(),
            (0..40).map(|x| 2 * x + 1).collect(),
        ), // interleaved, disjoint
        ((0..500).collect(), (2000..2100).collect()), // disjoint ranges
        ((100..200).collect(), long.clone()), // nested run
        (sparse.clone(), long.clone()), // power-law-ish skew, all hits
        (vec![3, 500, 999], long.clone()), // far-apart gallop jumps
        (long.clone(), long.clone()), // identical
    ];
    for (a, b) in cases {
        assert_kernels_agree(&Cols::from_ranks(a, 1), &Cols::from_ranks(b, 1_000_000));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hybrid merge/galloping intersection emits exactly what the
    /// plain merge emits, on randomly skewed list pairs (the short side
    /// stays under the gallop cutoff often enough to exercise both
    /// kernels).
    #[test]
    fn hybrid_intersection_matches_merge(
        short in prop::collection::vec(0u32..600, 0..12),
        long in prop::collection::vec(0u32..600, 0..400),
    ) {
        let a = Cols::from_ranks(short, 7);
        let b = Cols::from_ranks(long, 9_999_999);
        assert_kernels_agree(&a, &b);
    }

    /// Same, on similar-length pairs (the merge side of the cutoff).
    #[test]
    fn hybrid_intersection_matches_merge_balanced(
        xs in prop::collection::vec(0u32..300, 0..120),
        ys in prop::collection::vec(0u32..300, 0..120),
    ) {
        assert_kernels_agree(&Cols::from_ranks(xs, 3), &Cols::from_ranks(ys, 5_000_000));
    }

    /// Definition: every edge of the k-truss has ≥ k−2 triangles inside it.
    #[test]
    fn truss_satisfies_definition(g in arb_graph(40, 300)) {
        let d = truss_decompose(&g);
        for k in 2..=d.k_max() {
            let edges = truss_subgraph_edges(&g, &d, k);
            prop_assert!(is_k_truss(&edges, k), "k = {k}");
        }
    }

    /// Maximality: the claimed k-truss equals the peeling fixpoint.
    #[test]
    fn truss_is_maximal(g in arb_graph(32, 200)) {
        let d = truss_decompose(&g);
        for k in 2..=d.k_max() + 1 {
            let mut claimed = d.truss_edge_ids(k);
            claimed.sort_unstable();
            let mut actual = peel_to_k_truss(&g, k);
            actual.sort_unstable();
            prop_assert_eq!(&claimed, &actual, "k = {}", k);
        }
    }

    /// Hierarchy: T_{k+1} ⊆ T_k.
    #[test]
    fn trusses_are_nested(g in arb_graph(40, 300)) {
        let d = truss_decompose(&g);
        for k in 2..=d.k_max() {
            let upper = d.truss_edge_ids(k + 1);
            let lower: std::collections::HashSet<u32> =
                d.truss_edge_ids(k).into_iter().collect();
            prop_assert!(upper.iter().all(|e| lower.contains(e)));
        }
    }

    /// Algorithm 1 and Algorithm 2 agree.
    #[test]
    fn naive_equals_improved(g in arb_graph(36, 260)) {
        let a = truss_decompose(&g);
        let b = truss_decompose_naive(&g);
        prop_assert_eq!(a.trussness(), b.trussness());
    }

    /// A k-truss is a (k−1)-core (§1): every vertex of T_k has core number
    /// ≥ k−1.
    #[test]
    fn truss_inside_core(g in arb_graph(40, 300)) {
        let d = truss_decompose(&g);
        let cores = core_decompose(&g);
        for id in d.truss_edge_ids(d.k_max()) {
            let e = g.edge(id);
            prop_assert!(cores.core_of(e.u) >= d.k_max() - 1);
            prop_assert!(cores.core_of(e.v) >= d.k_max() - 1);
        }
    }

    /// Support bookkeeping: Σ sup(e) = 3 · #triangles, and trussness of an
    /// edge never exceeds sup(e) + 2.
    #[test]
    fn supports_consistent(g in arb_graph(40, 300)) {
        let sup = edge_supports(&g);
        let total: u64 = sup.iter().map(|&s| s as u64).sum();
        prop_assert_eq!(total, 3 * triangle_count(&g));
        let d = truss_decompose(&g);
        for (i, &s) in sup.iter().enumerate() {
            prop_assert!(d.edge_trussness(i as u32) <= s + 2);
        }
    }

    /// k_max lower-bounds the largest clique: an n-clique forces k_max ≥ n.
    #[test]
    fn planted_clique_bounds_kmax(g in arb_graph(36, 150), size in 4u32..9) {
        let planted = truss_decomposition::graph::generators::planted::planted_clique(
            &g, size as usize, 99,
        );
        let d = truss_decompose(&planted);
        prop_assert!(d.k_max() >= size);
    }
}

/// Runs the sharded support-init pass on `threads` workers with a
/// `filter_bytes` edge filter and returns the per-edge supports it left
/// in the spilled state file. A deliberately tiny scan window and
/// spill-buffer cap force many filter-scan chunks and disk traffic even
/// on proptest-sized graphs.
fn outofcore_supports(
    g: &CsrGraph,
    shards: usize,
    window_budget: usize,
    threads: usize,
    filter_bytes: usize,
) -> Vec<u32> {
    let scratch = ScratchDir::new().unwrap();
    let tracker = IoTracker::new();
    let plan = ShardPlan::new(g, shards);
    let mut window = Window::new(window_budget, g.is_mapped());
    let ranks = truss_decomposition::triangle::list::ranks(g);
    let sup = StateFile::create(&scratch, "sup", g.num_edges(), tracker.clone()).unwrap();
    let mut min_sup = vec![u32::MAX; plan.num_shards()];
    let pool = ThreadPool::unclamped(threads);
    let drain = SpillDrain::spawn(tracker.clone());
    sharded_supports(
        g,
        &plan,
        &ranks,
        &mut window,
        &scratch,
        &tracker,
        16,
        filter_bytes,
        &sup,
        &mut min_sup,
        &pool,
        &drain,
    )
    .unwrap();
    sup.read_all().unwrap()
}

/// The edge-filter size the engine picks for `g` at its smallest budget.
fn smallest_filter(g: &CsrGraph) -> usize {
    EdgeFilter::bytes_for(g.num_edges(), outofcore_minimum_budget(g))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharded support init computes exactly the in-memory
    /// triangle counts on random ER graphs, for every shard count —
    /// in-shard closures, cross-shard probes and spilled increments
    /// included.
    #[test]
    fn outofcore_supports_match_inmemory(g in arb_graph(48, 400)) {
        let expected = edge_supports(&g);
        for shards in SHARD_COUNTS {
            for filter_bytes in [smallest_filter(&g), EdgeFilter::BLOCK_BYTES] {
                let got = outofcore_supports(&g, shards, 4096, 1, filter_bytes);
                prop_assert_eq!(&got, &expected, "shards = {}, filter = {}", shards, filter_bytes);
            }
        }
    }

    /// The edge filter has no false negatives: after every edge of a
    /// random graph is inserted, every edge queries true — at the size the
    /// engine picks for its smallest budget and in one saturated block.
    #[test]
    fn edge_filter_has_no_false_negatives(g in arb_graph(200, 3000)) {
        for bytes in [smallest_filter(&g), EdgeFilter::BLOCK_BYTES] {
            let mut window = Window::new(4096, g.is_mapped());
            let f = EdgeFilter::build(g.edges(), bytes, &mut window, &IoTracker::new());
            for e in g.edges() {
                prop_assert!(f.may_contain(e.u, e.v), "{:?}, filter = {}", e, bytes);
                prop_assert!(f.may_contain(e.v, e.u), "{:?}, filter = {}", e, bytes);
            }
        }
    }

    /// The shard-parallel support pass is exact at every worker width:
    /// per-worker spill-bucket sets commute with the serial result
    /// regardless of which worker claims which shard from the cursor.
    #[test]
    fn parallel_supports_match_serial(g in arb_graph(48, 400)) {
        let expected = edge_supports(&g);
        for threads in [2usize, 4] {
            let got = outofcore_supports(&g, 5, 4096, threads, smallest_filter(&g));
            prop_assert_eq!(&got, &expected, "threads = {}", threads);
        }
    }

    /// Full out-of-core decomposition equals the in-memory reference on
    /// random ER graphs, for every shard count under an adversarially tiny
    /// budget (clamped up to the engine's minimum internally).
    #[test]
    fn outofcore_decomposition_matches_inmemory(g in arb_graph(40, 300)) {
        let expected = truss_decompose(&g);
        let scratch = ScratchDir::new().unwrap();
        for shards in SHARD_COUNTS {
            let cfg = OutOfCoreConfig::with_shards(IoConfig::with_budget(1), shards);
            let (d, _) = outofcore_decompose_in(&g, &cfg, &scratch).unwrap();
            prop_assert_eq!(d.trussness(), expected.trussness(), "shards = {}", shards);
        }
    }

    /// Same on R-MAT graphs: the skewed degree distribution concentrates
    /// edges into few shards (some end up empty) and gives hub rows far
    /// longer than the average.
    #[test]
    fn outofcore_matches_inmemory_on_rmat(seed in 0u64..1u64 << 32) {
        let g = rmat(RmatConfig::skewed(7, 900), seed);
        let expected = truss_decompose(&g);
        let expected_sup = edge_supports(&g);
        let scratch = ScratchDir::new().unwrap();
        for shards in SHARD_COUNTS {
            let got = outofcore_supports(&g, shards, 4096, 1, smallest_filter(&g));
            prop_assert_eq!(&got, &expected_sup, "supports, shards = {}", shards);
            let cfg = OutOfCoreConfig::with_shards(IoConfig::with_budget(1), shards);
            let (d, _) = outofcore_decompose_in(&g, &cfg, &scratch).unwrap();
            prop_assert_eq!(d.trussness(), expected.trussness(), "shards = {}", shards);
        }
    }
}
