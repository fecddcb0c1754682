//! Design-choice ablations (beyond the paper's figures; DESIGN.md §4):
//!
//! * set-intersection kernels (merge / gallop / blocked / auto);
//! * recursive vs stack enumerator;
//! * merged-binomial vs naive independent random walks (Sec. IV-B);
//! * estimator walk budget `M` (Eq. (5) trade-off);
//! * graph reorganisation (Table III's wall-clock counterpart).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcsm_bench::{RunConfig, Workload};
use gcsm_datagen::Preset;
use gcsm_freq::{estimate_merged, estimate_naive, WalkParams};
use gcsm_graph::DynamicGraph;
use gcsm_matcher::{match_incremental, DriverOptions, DynSource, EnumeratorKind, IntersectAlgo};
use gcsm_pattern::{compile_incremental, queries, PlanOptions};

fn setup() -> (DynamicGraph, Vec<gcsm_graph::EdgeUpdate>) {
    let rc = RunConfig { scale: 0.0625, max_batches: 1, ..Default::default() };
    let w = Workload::build(Preset::Friendster, rc.scale, 512, 1);
    let mut g = DynamicGraph::from_csr(&w.initial);
    let summary = g.apply_batch(&w.batches[0]);
    (g, summary.applied)
}

fn bench_intersect_kernels(c: &mut Criterion) {
    let (g, batch) = setup();
    let q = queries::q2();
    let mut group = c.benchmark_group("ablation_intersect_kernel");
    group.sample_size(10);
    for (name, algo) in [
        ("merge", IntersectAlgo::Merge),
        ("gallop", IntersectAlgo::Gallop),
        ("blocked", IntersectAlgo::Blocked),
        ("auto", IntersectAlgo::Auto),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &algo, |b, &algo| {
            let src = DynSource::new(&g);
            let opts = DriverOptions { algo, parallel: true, ..Default::default() };
            b.iter(|| match_incremental(&src, &q, &batch, &opts).matches);
        });
    }
    group.finish();
}

fn bench_enumerators(c: &mut Criterion) {
    let (g, batch) = setup();
    let q = queries::q1();
    let mut group = c.benchmark_group("ablation_enumerator");
    group.sample_size(10);
    for (name, e) in [("recursive", EnumeratorKind::Recursive), ("stack", EnumeratorKind::Stack)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &e, |b, &e| {
            let src = DynSource::new(&g);
            let opts = DriverOptions { enumerator: e, parallel: true, ..Default::default() };
            b.iter(|| match_incremental(&src, &q, &batch, &opts).matches);
        });
    }
    group.finish();
}

fn bench_walk_strategies(c: &mut Criterion) {
    let (g, batch) = setup();
    let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
    let d = g.max_degree_bound();
    let mut group = c.benchmark_group("ablation_walks");
    group.sample_size(10);
    let params = WalkParams { walks: 8192, seed: 3 };
    group.bench_function("merged_8k", |b| {
        let src = DynSource::new(&g);
        b.iter(|| estimate_merged(&src, &plans, &batch, d, &params).walk_ops);
    });
    group.bench_function("naive_8k", |b| {
        let src = DynSource::new(&g);
        b.iter(|| estimate_naive(&src, &plans, &batch, d, &params).walk_ops);
    });
    for m in [1024u64, 65_536] {
        group.bench_with_input(BenchmarkId::new("merged_sweep", m), &m, |b, &m| {
            let src = DynSource::new(&g);
            let p = WalkParams { walks: m, seed: 3 };
            b.iter(|| estimate_merged(&src, &plans, &batch, d, &p).walk_ops);
        });
    }
    group.finish();
}

fn bench_reorganize(c: &mut Criterion) {
    let rc = RunConfig { scale: 0.25, max_batches: 1, ..Default::default() };
    let mut group = c.benchmark_group("table3_reorganize_wall");
    group.sample_size(10);
    for (preset, batch_size) in [(Preset::Friendster, 4096usize), (Preset::Sf10k, 8192)] {
        let w = Workload::build(preset, rc.scale, batch_size, 1);
        group.bench_with_input(BenchmarkId::new(preset.name(), batch_size), &w, |b, w| {
            b.iter_batched(
                || {
                    let mut g = DynamicGraph::from_csr(&w.initial);
                    g.apply_batch(&w.batches[0]);
                    g
                },
                |mut g| g.reorganize(),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_intersect_kernels,
    bench_enumerators,
    bench_walk_strategies,
    bench_reorganize
);
criterion_main!(benches);
