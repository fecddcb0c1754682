//! Correctness gate and determinism self-check. Everything here runs
//! outside the timed region.

use crate::replica::Fingerprint;
use crate::report::{check_anchors, mean, Outcome};
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
use gcsm_matcher::{match_incremental, match_static, CsrSource, DriverOptions, DynSource};
use gcsm_pattern::{PlanOptions, QueryGraph};

/// Reference ΔM of every batch, per query.
pub struct Reference {
    /// `delta[b][q]`.
    pub delta: Vec<Vec<i64>>,
    /// Batches on which the sampled recompute disagreed with the
    /// incremental reference (the reference itself is then suspect).
    pub recompute_disagrees: Vec<usize>,
    /// Updates that changed the graph, summed over batches.
    pub applied: usize,
    /// The graph after every batch, as the reference built it.
    pub final_graph: DynamicGraph,
}

fn opts(plan: PlanOptions) -> DriverOptions {
    DriverOptions { plan, parallel: true, ..Default::default() }
}

/// Replay `batches` on a private copy of `G_0`: `match_incremental` over the
/// uncached `DynSource` on every batch, and `recompute_delta` (match both
/// snapshots from scratch) on one seed-chosen batch per run.
pub fn reference(
    g0: &CsrGraph,
    queries: &[QueryGraph],
    batches: &[Vec<EdgeUpdate>],
    plan: PlanOptions,
    seed: u64,
) -> Reference {
    let opts = opts(plan);
    let sampled = (seed as usize).wrapping_mul(7919) % batches.len().max(1);
    let mut graph = DynamicGraph::from_csr(g0);
    let mut delta = Vec::with_capacity(batches.len());
    let (mut recompute_disagrees, mut applied) = (Vec::new(), 0);
    for (i, batch) in batches.iter().enumerate() {
        let summary = graph.apply_batch(batch);
        applied += summary.applied.len();
        let src = DynSource::new(&graph);
        let d: Vec<i64> = queries
            .iter()
            .map(|q| match_incremental(&src, q, &summary.applied, &opts).matches)
            .collect();
        if i == sampled
            && !queries
                .iter()
                .zip(&d)
                .all(|(q, &d)| gcsm_baselines::recompute_delta(&graph, q, &opts) == d)
        {
            recompute_disagrees.push(i);
        }
        delta.push(d);
        graph.reorganize();
    }
    Reference { delta, recompute_disagrees, applied, final_graph: graph }
}

/// `Pipeline::static_count` for a graph the benchmark holds itself.
pub fn static_count(graph: &DynamicGraph, q: &QueryGraph, plan: PlanOptions) -> i64 {
    let snapshot = graph.to_csr();
    let src = CsrSource::new(&snapshot);
    match_static(&src, q, &snapshot.edges().collect::<Vec<_>>(), &opts(plan)).matches
}

/// Count attempted and failed batches. `prints` is batch-major with `nq`
/// entries per batch; `None` marks an invocation that panicked.
pub fn judge(out: &mut Outcome, reference: &Reference, prints: &[Option<Fingerprint>], nq: usize) {
    for (b, want) in reference.delta.iter().enumerate() {
        out.attempted += 1;
        let got = prints.get(b * nq..(b + 1) * nq).unwrap_or(&[]);
        let ok = got.len() == nq
            && got.iter().zip(want).all(|(p, &w)| p.as_ref().is_some_and(|p| p.matches == w))
            && !reference.recompute_disagrees.contains(&b);
        if !ok {
            out.failed += 1;
        }
    }
    // Invocations the reference never saw (more batches than it replayed).
    if prints.len() > reference.delta.len() * nq {
        out.attempted += 1;
        out.failed += 1;
    }
}

/// Determinism self-check: the run's exact values (counts and the bit
/// patterns of its sim figures) must equal what an earlier run of this
/// binary recorded for the same workload, seed and work.
pub fn anchors(
    out: &mut Outcome,
    workload: &str,
    seed: u64,
    seconds: u64,
    prints: &[Option<Fingerprint>],
    sim_ms: &[f64],
) {
    let all: Vec<&Fingerprint> = prints.iter().flatten().collect();
    let mut named: Vec<(String, u64)> = vec![
        ("sim_ms_per_batch".into(), mean(sim_ms).to_bits()),
        ("delta_m".into(), all.iter().map(|p| p.matches).sum::<i64>() as u64),
        ("matcher.intersect_ops".into(), all.iter().map(|p| p.intersect_ops).sum()),
        ("matcher.list_accesses".into(), all.iter().map(|p| p.list_accesses).sum()),
        ("freq.walk_ops".into(), all.iter().map(|p| p.walk_ops).sum()),
    ];
    let traffic = all.iter().fold(gcsm_gpusim::TrafficSnapshot::default(), |a, p| a + p.traffic);
    for (field, v) in traffic.named_fields() {
        named.push((format!("gpusim.{field}"), v));
    }
    for (i, phase) in
        ["update", "freq_est", "data_copy", "matching", "reorganize"].iter().enumerate()
    {
        let s: f64 = all.iter().map(|p| f64::from_bits(p.phases[i])).sum();
        named.push((format!("sim.{phase}"), s.to_bits()));
    }
    let key = format!("{workload}-seed{seed}-s{seconds}");
    for name in check_anchors(&key, &named) {
        out.violate(format!("determinism: {name} differs from an earlier run on the same seed"));
    }
}
