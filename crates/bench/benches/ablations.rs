//! Design-choice ablations (beyond the paper's figures; DESIGN.md §4):
//!
//! * set-intersection kernels (merge / gallop / blocked) swept over the
//!   list-to-candidate size ratio, for one-run and prefix+tail views;
//! * recursive vs stack enumerator;
//! * merged-binomial vs naive independent random walks (Sec. IV-B);
//! * estimator walk budget `M` (Eq. (5) trade-off);
//! * graph reorganisation (Table III's wall-clock counterpart).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcsm_bench::{RunConfig, Workload};
use gcsm_datagen::Preset;
use gcsm_freq::{estimate_merged, estimate_naive, WalkParams};
use gcsm_graph::{encode_tombstone, DynamicGraph, NeighborView};
use gcsm_matcher::intersect::filter_in_place;
use gcsm_matcher::{
    match_incremental, CostCounter, DriverOptions, DynSource, EnumeratorKind, IntersectAlgo,
};
use gcsm_pattern::{compile_incremental, queries, PlanOptions};
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn setup() -> (DynamicGraph, Vec<gcsm_graph::EdgeUpdate>) {
    let rc = RunConfig { scale: 0.0625, max_batches: 1, ..Default::default() };
    let w = Workload::build(Preset::Friendster, rc.scale, 512, 1);
    let mut g = DynamicGraph::from_csr(&w.initial);
    let summary = g.apply_batch(&w.batches[0]);
    (g, summary.applied)
}

/// Candidate-buffer length of the kernel sweep; the list is `ratio` times
/// longer. Matcher candidate buffers are short (the smallest constraint
/// list of a tree node: counted on the perfbench workloads, `|a| + |b|`
/// averages 30–160 entries at `|b| < 4·|a|`), so the sweep holds `|a|`
/// fixed and grows `|b|`.
const SWEEP_CANDS: usize = 64;
/// Distinct candidate buffers filtered per timed iteration, so the branch
/// predictor cannot learn one buffer's hit pattern.
const SWEEP_SETS: usize = 256;

/// One sweep cell: a sorted list of `ratio · SWEEP_CANDS` ids and
/// `SWEEP_SETS` sorted candidate buffers, half of whose entries are drawn
/// from the list. With `split`, the list becomes a mid-batch new view: a
/// prefix holding 3/4 of the ids (1 in 8 tombstoned) plus a sorted tail.
fn sweep_cell(ratio: usize, split: bool) -> (Vec<u32>, Vec<u32>, Vec<Vec<u32>>) {
    let mut rng = SmallRng::seed_from_u64(ratio as u64 * 2 + u64::from(split));
    let b_len = ratio * SWEEP_CANDS;
    let universe = 4 * b_len as u32;
    let mut list: Vec<u32> = (0..b_len).map(|_| rng.gen_range(0..universe)).collect();
    list.sort_unstable();
    list.dedup();
    let sets = (0..SWEEP_SETS)
        .map(|_| {
            let mut a: Vec<u32> = (0..SWEEP_CANDS)
                .map(|i| {
                    if i % 2 == 0 {
                        list[rng.gen_range(0..list.len())]
                    } else {
                        rng.gen_range(0..universe)
                    }
                })
                .collect();
            a.sort_unstable();
            a.dedup();
            a
        })
        .collect();
    if !split {
        return (list, Vec::new(), sets);
    }
    let (mut prefix, mut tail) = (Vec::new(), Vec::new());
    for &v in &list {
        match rng.gen_range(0..32) {
            0..=7 => tail.push(v),
            8..=10 => prefix.push(encode_tombstone(v)),
            _ => prefix.push(v),
        }
    }
    (prefix, tail, sets)
}

/// Kernel sweep over the list-to-candidate size ratio `|b|/|a|`, for a
/// single-run list and a prefix+tail view. `IntersectAlgo::Auto`'s rule is
/// read off this table (EXPERIMENTS.md).
fn bench_intersect_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_intersect_kernel");
    group.sample_size(20);
    for split in [false, true] {
        for ratio in [1usize, 4, 16, 64, 256, 1024] {
            let (prefix, tail, sets) = sweep_cell(ratio, split);
            let view = if split {
                NeighborView::new_view(&prefix, &tail)
            } else {
                NeighborView::plain(&prefix)
            };
            let shape = if split { "prefix+tail" } else { "one-run" };
            for (name, algo) in [
                ("merge", IntersectAlgo::Merge),
                ("gallop", IntersectAlgo::Gallop),
                ("blocked", IntersectAlgo::Blocked),
            ] {
                let id = BenchmarkId::new(format!("{shape}/{name}"), format!("1:{ratio}"));
                group.bench_with_input(id, &algo, |b, &algo| {
                    let mut buf = Vec::with_capacity(SWEEP_CANDS);
                    let mut cost = CostCounter::default();
                    b.iter(|| {
                        let mut kept = 0;
                        for set in &sets {
                            buf.clear();
                            buf.extend_from_slice(set);
                            filter_in_place(&mut buf, &view, algo, &mut cost);
                            kept += buf.len();
                        }
                        kept
                    });
                });
            }
        }
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
