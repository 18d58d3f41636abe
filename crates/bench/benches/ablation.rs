//! Ablations over the design choices `DESIGN.md` calls out:
//!
//! 1. Algorithm 2's triangle walk: the width-1 frontier kernel (live
//!    walk + flat oriented probes, the default) vs the paper's hash table,
//! 2. the partitioner of the external pass (sequential / random / seeded),
//! 3. the memory budget (M = |G|/4, /8, /16) for TD-bottomup — the knob the
//!    I/O model trades scans against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use truss_bench::datasets::{bench_graph, BenchScale};
use truss_core::bottom_up::{bottom_up_decompose, BottomUpConfig};
use truss_core::decompose::{truss_decompose_with, EdgeIndexKind, ImprovedConfig};
use truss_core::top_down::{top_down_decompose, TopDownConfig};
use truss_graph::generators::datasets::Dataset;
use truss_storage::partition::PartitionStrategy;
use truss_storage::record::{EdgeRec, FixedRecord};
use truss_storage::{IoConfig, IoTracker, ScratchDir};
use truss_triangle::external::{edge_list_from_graph, external_edge_supports, PassConfig};

fn bench_edge_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_edge_index");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let g = bench_graph(Dataset::Skitter, BenchScale::Tiny);
    for (label, kind) in [
        ("oriented", EdgeIndexKind::Oriented),
        ("hash", EdgeIndexKind::Hash),
    ] {
        group.bench_with_input(BenchmarkId::new("improved", label), &g, |b, g| {
            let cfg = ImprovedConfig { edge_index: kind };
            b.iter(|| black_box(truss_decompose_with(g, cfg)));
        });
    }
    group.finish();
}

fn bench_partitioner(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_partitioner");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let g = bench_graph(Dataset::Hep, BenchScale::Tiny);
    let budget = (g.num_edges() * EdgeRec::SIZE / 4)
        .max(truss_core::minimum_budget(&g, 64))
        .max(1 << 14);
    for (label, strategy) in [
        ("sequential", PartitionStrategy::Sequential),
        ("random", PartitionStrategy::Random { seed: 7 }),
        ("seeded", PartitionStrategy::Seeded { seed: 7 }),
    ] {
        group.bench_with_input(BenchmarkId::new("support-pass", label), &g, |b, g| {
            b.iter(|| {
                let scratch = ScratchDir::new().unwrap();
                let tracker = IoTracker::new();
                let input = edge_list_from_graph(g, scratch.file("g"), tracker.clone()).unwrap();
                let mut cfg = PassConfig::new(IoConfig {
                    memory_budget: budget,
                    block_size: (budget / 16).max(1024),
                });
                cfg.strategy = strategy;
                black_box(
                    external_edge_supports(&input, g.num_vertices(), &scratch, &tracker, &cfg)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_memory_budget(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_memory_budget");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let g = bench_graph(Dataset::Hep, BenchScale::Tiny);
    let graph_bytes = g.num_edges() * EdgeRec::SIZE;
    let dmax_floor = truss_core::minimum_budget(&g, 64);
    for divisor in [4usize, 8, 16] {
        let budget = (graph_bytes / divisor).max(dmax_floor).max(1 << 14);
        group.bench_with_input(
            BenchmarkId::new("bottomup", format!("G/{divisor}")),
            &g,
            |b, g| {
                let cfg = BottomUpConfig::new(IoConfig {
                    memory_budget: budget,
                    block_size: (budget / 16).max(1024),
                });
                b.iter(|| black_box(bottom_up_decompose(g, &cfg).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_topdown_flags(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_topdown_flags");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let g = bench_graph(Dataset::Lj, BenchScale::Tiny);
    let budget = (g.num_edges() * EdgeRec::SIZE / 4)
        .max(truss_core::minimum_budget(&g, 64))
        .max(1 << 14);
    let io = IoConfig {
        memory_budget: budget,
        block_size: (budget / 16).max(1024),
    };
    for (label, kinit, cleanup) in [
        ("kinit+cleanup", true, true),
        ("no-kinit", false, true),
        ("no-cleanup", true, false),
        ("neither", false, false),
    ] {
        group.bench_with_input(BenchmarkId::new("topdown-all", label), &g, |b, g| {
            let mut cfg = TopDownConfig::new(io);
            cfg.use_kinit = kinit;
            cfg.use_cleanup = cleanup;
            b.iter(|| black_box(top_down_decompose(g, &cfg).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_edge_index,
    bench_partitioner,
    bench_memory_budget,
    bench_topdown_flags
);
criterion_main!(benches);
