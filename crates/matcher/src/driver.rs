//! Whole-task matching drivers.
//!
//! * [`match_static`] — match a pattern on a full graph by seeding the
//!   static plan on every (directed) graph edge (Fig. 2a).
//! * [`match_incremental`] — compute the signed incremental result `ΔM`
//!   for a batch `ΔE`: run all `m` delta plans, seeding each on every batch
//!   edge in both orientations, summing `op.sign()` per found match
//!   (Eq. (1); Fig. 2b–f).
//! * [`match_delta_plans`] — the seed runner behind `match_incremental`:
//!   caller-supplied delta plans, one stats entry per seed. The `gcsm`
//!   core crate's simulated GPU kernel runs on it.
//!
//! All drivers run serially or data-parallel over seeds (rayon).

use crate::enumerate::{match_from_seed, Scratch};
use crate::intersect::IntersectAlgo;
use crate::source::NeighborSource;
use crate::stack::{match_from_seed_stack, StackScratch};
use crate::stats::MatchStats;
use gcsm_graph::{EdgeUpdate, VertexId};
use gcsm_pattern::{compile_incremental, compile_static, MatchPlan, PlanOptions, QueryGraph};
use rayon::prelude::*;

/// Which enumerator implementation to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EnumeratorKind {
    /// Recursive DFS (reference implementation).
    Recursive,
    /// STMatch-style explicit stack (the GPU kernel's control structure).
    #[default]
    Stack,
}

/// Driver configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverOptions {
    pub algo: IntersectAlgo,
    pub enumerator: EnumeratorKind,
    pub plan: PlanOptions,
    /// Parallelize over seeds with rayon (the paper's CPU baseline runs the
    /// outermost loop on 32 threads).
    pub parallel: bool,
}

/// Run one seed with the configured enumerator.
#[allow(clippy::too_many_arguments)]
fn run_seed<S: NeighborSource>(
    src: &S,
    plan: &MatchPlan,
    x0: VertexId,
    x1: VertexId,
    sign: i64,
    opts: &DriverOptions,
    scratch: &mut (Scratch, StackScratch),
) -> MatchStats {
    match opts.enumerator {
        EnumeratorKind::Recursive => {
            match_from_seed(src, plan, x0, x1, sign, opts.algo, &mut scratch.0, &mut |_, _| {})
        }
        EnumeratorKind::Stack => match_from_seed_stack(
            src,
            plan,
            x0,
            x1,
            sign,
            opts.algo,
            &mut scratch.1,
            &mut |_, _| {},
        ),
    }
}

/// Static matching: seed the static plan on every undirected edge in both
/// orientations. `edges` is the graph's undirected edge list.
pub fn match_static<S: NeighborSource>(
    src: &S,
    q: &QueryGraph,
    edges: &[(VertexId, VertexId)],
    opts: &DriverOptions,
) -> MatchStats {
    let plan = compile_static(q, opts.plan);
    if opts.parallel {
        edges
            .par_iter()
            .fold(
                || (MatchStats::default(), (Scratch::default(), StackScratch::default())),
                |(mut acc, mut scratch), &(u, v)| {
                    acc.merge(run_seed(src, &plan, u, v, 1, opts, &mut scratch));
                    acc.merge(run_seed(src, &plan, v, u, 1, opts, &mut scratch));
                    (acc, scratch)
                },
            )
            .map(|(acc, _)| acc)
            .reduce(MatchStats::default, |a, b| a + b)
    } else {
        let mut scratch = (Scratch::default(), StackScratch::default());
        let mut acc = MatchStats::default();
        for &(u, v) in edges {
            acc.merge(run_seed(src, &plan, u, v, 1, opts, &mut scratch));
            acc.merge(run_seed(src, &plan, v, u, 1, opts, &mut scratch));
        }
        acc
    }
}

/// The (plan × batch-edge × orientation) seed tasks of one incremental
/// matching run, plan-major.
fn delta_seeds(plans: &[MatchPlan], batch: &[EdgeUpdate]) -> Vec<(usize, VertexId, VertexId, i64)> {
    let mut tasks = Vec::with_capacity(plans.len() * batch.len() * 2);
    for (pi, _) in plans.iter().enumerate() {
        for u in batch {
            let sign = u.op.sign();
            tasks.push((pi, u.src, u.dst, sign));
            tasks.push((pi, u.dst, u.src, sign));
        }
    }
    tasks
}

/// Incremental matching per Eq. (1): `ΔM = Σ_i ΔM_i`, each `ΔM_i` seeded on
/// the batch edges, insertions counting `+1`, deletions `−1`. The source
/// must expose the sealed batch's old/new views.
pub fn match_incremental<S: NeighborSource>(
    src: &S,
    q: &QueryGraph,
    batch: &[EdgeUpdate],
    opts: &DriverOptions,
) -> MatchStats {
    let plans = compile_incremental(q, opts.plan);
    match_delta_plans(src, &plans, batch, opts).into_iter().sum()
}

/// Run the delta `plans` on every batch edge in both orientations and
/// return one [`MatchStats`] per seed, plan-major: plan `i`'s seeds are
/// entries `i·2|ΔE| .. (i+1)·2|ΔE|`, each batch edge as `(src, dst)` then
/// `(dst, src)`. The simulated GPU kernel uses the per-seed entries as its
/// task cost vector; [`match_incremental`] sums them.
pub fn match_delta_plans<S: NeighborSource>(
    src: &S,
    plans: &[MatchPlan],
    batch: &[EdgeUpdate],
    opts: &DriverOptions,
) -> Vec<MatchStats> {
    let tasks = delta_seeds(plans, batch);
    // The tasks of plan `i` form one contiguous chunk of `batch.len() * 2`
    // seeds, so with tracing on each ΔM_i level runs under its own `dm_i`
    // span. The chunks partition the same task list in the same order, so
    // the result is identical either way.
    let stride = batch.len() * 2;
    if gcsm_obs::enabled() && stride > 0 {
        let mut out = Vec::with_capacity(tasks.len());
        for (level, chunk) in tasks.chunks(stride).enumerate() {
            let mut span = gcsm_obs::span("dm_i", gcsm_obs::cat::MATCHER);
            span.set_level(level as u32);
            span.set_count(chunk.len() as u64);
            out.extend(run_tasks(src, plans, chunk, opts));
        }
        out
    } else {
        run_tasks(src, plans, &tasks, opts)
    }
}

/// Run a slice of `(plan, seed, seed, sign)` tasks, serially or in
/// parallel, and return each task's stats in task order.
fn run_tasks<S: NeighborSource>(
    src: &S,
    plans: &[MatchPlan],
    tasks: &[(usize, VertexId, VertexId, i64)],
    opts: &DriverOptions,
) -> Vec<MatchStats> {
    if opts.parallel {
        tasks
            .par_iter()
            .map_init(
                || (Scratch::default(), StackScratch::default()),
                |scratch, &(pi, a, b, sign)| run_seed(src, &plans[pi], a, b, sign, opts, scratch),
            )
            .collect()
    } else {
        let mut scratch = (Scratch::default(), StackScratch::default());
        tasks
            .iter()
            .map(|&(pi, a, b, sign)| run_seed(src, &plans[pi], a, b, sign, opts, &mut scratch))
            .collect()
    }
}

/// Collect the individual signed incremental matches (serial; for tests and
/// examples that need the embeddings, not just counts).
pub fn collect_incremental<S: NeighborSource>(
    src: &S,
    q: &QueryGraph,
    batch: &[EdgeUpdate],
    opts: &DriverOptions,
) -> Vec<(Vec<VertexId>, i64)> {
    let plans = compile_incremental(q, opts.plan);
    let mut out = Vec::new();
    let mut scratch = Scratch::default();
    for plan in &plans {
        for u in batch {
            let sign = u.op.sign();
            for (a, b) in [(u.src, u.dst), (u.dst, u.src)] {
                match_from_seed(src, plan, a, b, sign, opts.algo, &mut scratch, &mut |m, s| {
                    out.push((m.to_vec(), s));
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CsrSource, DynSource};
    use gcsm_graph::{CsrGraph, DynamicGraph};
    use gcsm_pattern::queries;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn random_graph(n: usize, p: f64, seed: u64) -> CsrGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in a + 1..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((a, b));
                }
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// Build a random batch against `g`: deletions of existing edges and
    /// insertions of non-edges.
    fn random_batch(g: &CsrGraph, k: usize, seed: u64) -> Vec<EdgeUpdate> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let existing: Vec<_> = g.edges().collect();
        let mut batch = Vec::new();
        let mut used = std::collections::HashSet::new();
        while batch.len() < k {
            if rng.gen_bool(0.5) && !existing.is_empty() {
                let &(a, b) = &existing[rng.gen_range(0..existing.len())];
                if used.insert((a, b)) {
                    batch.push(EdgeUpdate::delete(a, b));
                }
            } else {
                let a = rng.gen_range(0..g.num_vertices() as u32);
                let b = rng.gen_range(0..g.num_vertices() as u32);
                let (a, b) = (a.min(b), a.max(b));
                if a != b && !g.has_edge(a, b) && used.insert((a, b)) {
                    batch.push(EdgeUpdate::insert(a, b));
                }
            }
        }
        batch
    }

    /// The central invariant: ΔM == match(G_{k+1}) − match(G_k).
    fn check_delta_invariant(q: &gcsm_pattern::QueryGraph, seed: u64, sb: bool) {
        let g0 = random_graph(16, 0.35, seed);
        let mut dg = DynamicGraph::from_csr(&g0);
        let batch = random_batch(&g0, 6, seed ^ 0xdead);
        let summary = dg.apply_batch(&batch);

        let opts = DriverOptions { plan: PlanOptions { symmetry_break: sb }, ..Default::default() };
        let before = {
            let src = CsrSource::new(&g0);
            match_static(&src, q, &g0.edges().collect::<Vec<_>>(), &opts).matches
        };
        let g1 = dg.to_csr();
        let after = {
            let src = CsrSource::new(&g1);
            match_static(&src, q, &g1.edges().collect::<Vec<_>>(), &opts).matches
        };
        let delta = {
            let src = DynSource::new(&dg);
            match_incremental(&src, q, &summary.applied, &opts).matches
        };
        assert_eq!(
            delta,
            after - before,
            "{} sb={} seed={}: Δ={} but after-before={}",
            q.name(),
            sb,
            seed,
            delta,
            after - before
        );
    }

    #[test]
    fn incremental_equals_recompute_triangle() {
        for seed in 0..8 {
            check_delta_invariant(&queries::triangle(), seed, false);
            check_delta_invariant(&queries::triangle(), seed, true);
        }
    }

    #[test]
    fn incremental_equals_recompute_kite() {
        for seed in 0..6 {
            check_delta_invariant(&queries::fig1_kite(), seed, false);
            check_delta_invariant(&queries::fig1_kite(), seed, true);
        }
    }

    #[test]
    fn incremental_equals_recompute_q1_q2() {
        for seed in 0..3 {
            check_delta_invariant(&queries::q1(), seed, false);
            check_delta_invariant(&queries::q2(), seed, true);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let g0 = random_graph(20, 0.3, 99);
        let mut dg = DynamicGraph::from_csr(&g0);
        let batch = random_batch(&g0, 8, 123);
        let summary = dg.apply_batch(&batch);
        let src = DynSource::new(&dg);
        let q = queries::q1();
        let serial = match_incremental(&src, &q, &summary.applied, &DriverOptions::default());
        let parallel = match_incremental(
            &src,
            &q,
            &summary.applied,
            &DriverOptions { parallel: true, ..Default::default() },
        );
        assert_eq!(serial.matches, parallel.matches);
        assert_eq!(serial.intersect_ops, parallel.intersect_ops);
        assert_eq!(serial.list_accesses, parallel.list_accesses);
    }

    #[test]
    fn recursive_and_stack_drivers_agree() {
        let g0 = random_graph(16, 0.35, 5);
        let mut dg = DynamicGraph::from_csr(&g0);
        let batch = random_batch(&g0, 6, 55);
        let summary = dg.apply_batch(&batch);
        let src = DynSource::new(&dg);
        for q in [queries::triangle(), queries::q2()] {
            let rec = match_incremental(
                &src,
                &q,
                &summary.applied,
                &DriverOptions { enumerator: EnumeratorKind::Recursive, ..Default::default() },
            );
            let stk = match_incremental(
                &src,
                &q,
                &summary.applied,
                &DriverOptions { enumerator: EnumeratorKind::Stack, ..Default::default() },
            );
            assert_eq!(rec.matches, stk.matches);
            assert_eq!(rec.intersect_ops, stk.intersect_ops);
        }
    }

    #[test]
    fn collected_matches_sum_to_count() {
        let g0 = random_graph(14, 0.4, 3);
        let mut dg = DynamicGraph::from_csr(&g0);
        let batch = random_batch(&g0, 5, 33);
        let summary = dg.apply_batch(&batch);
        let src = DynSource::new(&dg);
        let q = queries::triangle();
        let opts = DriverOptions::default();
        let matches = collect_incremental(&src, &q, &summary.applied, &opts);
        let count = match_incremental(&src, &q, &summary.applied, &opts).matches;
        let sum: i64 = matches.iter().map(|(_, s)| s).sum();
        assert_eq!(sum, count);
    }

    #[test]
    fn empty_batch_yields_zero_delta() {
        let g0 = random_graph(10, 0.3, 1);
        let mut dg = DynamicGraph::from_csr(&g0);
        dg.begin_batch();
        dg.seal_batch();
        let src = DynSource::new(&dg);
        let s = match_incremental(&src, &queries::triangle(), &[], &DriverOptions::default());
        assert_eq!(s.matches, 0);
        assert_eq!(s.intersect_ops, 0);
    }

    #[test]
    fn delta_seed_task_count() {
        let q = queries::triangle();
        let plans = compile_incremental(&q, PlanOptions::default());
        let batch = vec![EdgeUpdate::insert(0, 1), EdgeUpdate::delete(2, 3)];
        let tasks = delta_seeds(&plans, &batch);
        assert_eq!(tasks.len(), 3 * 2 * 2); // m plans × edges × orientations
    }

    #[test]
    fn delta_plans_yield_one_entry_per_seed() {
        let g0 = random_graph(18, 0.3, 7);
        let mut dg = DynamicGraph::from_csr(&g0);
        let batch = random_batch(&g0, 7, 77);
        let summary = dg.apply_batch(&batch);
        let src = DynSource::new(&dg);
        for q in [queries::triangle(), queries::q1(), queries::q2()] {
            let plans = compile_incremental(&q, PlanOptions::default());
            let run = |enumerator, parallel| {
                let opts = DriverOptions { enumerator, parallel, ..Default::default() };
                match_delta_plans(&src, &plans, &summary.applied, &opts)
            };
            let reference = run(EnumeratorKind::Stack, false);
            assert_eq!(reference.len(), plans.len() * summary.applied.len() * 2);
            assert_eq!(run(EnumeratorKind::Stack, true), reference, "{}", q.name());
            assert_eq!(run(EnumeratorKind::Recursive, false), reference, "{}", q.name());
            assert_eq!(run(EnumeratorKind::Recursive, true), reference, "{}", q.name());
            let total: MatchStats = reference.into_iter().sum();
            let whole = match_incremental(&src, &q, &summary.applied, &DriverOptions::default());
            assert_eq!(total, whole, "{}", q.name());
        }
    }
}
