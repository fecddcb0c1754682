//! Merged estimator: `M` random walks in one traversal (paper Sec. IV-B).
//!
//! Instead of running each walk separately (redundant intersections, poor
//! locality), a single instrumented traversal carries a *visit count* `B`
//! per execution-tree node: `B_1 ~ Binomial(M, 1/S)` at each seed, and for
//! every candidate of a visited node an independent
//! `B_child ~ Binomial(B, 1/D)` (the per-iteration binomial of the paper).
//! Nodes with `B = 0` are pruned, so the traversal only performs the set
//! operations the `M` walks would actually have needed — once each.

use crate::estimate::{FreqEstimate, WalkParams};
use crate::naive::plan_seeds;
use gcsm_graph::{EdgeUpdate, VertexId};
use gcsm_matcher::{
    gen_candidates, seed_admissible, CostCounter, IntersectAlgo, MatchStats, NeighborSource,
};
use gcsm_pattern::MatchPlan;
use rand::{rngs::SmallRng, SeedableRng};
use rand_distr::{Binomial, Distribution};

/// Draw `Binomial(n, p)` (delegates to `rand_distr`; exact sampling).
#[inline]
fn binomial(rng: &mut SmallRng, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    Binomial::new(n, p).expect("valid binomial").sample(rng)
}

/// Estimate access frequencies with the merged single-execution scheme.
/// Distribution-equivalent to [`crate::estimate_naive`] (same per-node
/// visit probabilities), with far fewer set operations.
pub fn estimate_merged<S: NeighborSource>(
    src: &S,
    plans: &[MatchPlan],
    batch: &[EdgeUpdate],
    max_degree: usize,
    params: &WalkParams,
) -> FreqEstimate {
    let n = src.num_vertices();
    let mut est = FreqEstimate::new(n);
    if batch.is_empty() || max_degree == 0 || params.walks == 0 {
        return est;
    }
    let seeds = plan_seeds(batch);
    let s_count = seeds.len() as f64;
    let d = max_degree as f64;
    let m = params.walks;
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut cost = CostCounter::default();
    let mut stats = MatchStats::default();
    let mut bound: Vec<VertexId> = Vec::new();
    let mut bufs: Vec<Vec<VertexId>> = Vec::new();

    for plan in plans {
        if bufs.len() < plan.levels.len() {
            bufs.resize_with(plan.levels.len(), Vec::new);
        }
        for &(x0, x1) in &seeds {
            // How many of the M walks start at this seed.
            let b1 = binomial(&mut rng, m, 1.0 / s_count);
            if b1 == 0 || !seed_admissible(src, plan, x0, x1) {
                continue;
            }
            bound.clear();
            bound.push(x0);
            bound.push(x1);
            expand(
                src, plan, 0, b1, s_count, d, m, &mut rng, &mut bound, &mut bufs, &mut est,
                &mut cost, &mut stats,
            );
        }
    }
    est.walk_ops = cost.ops;
    est
}

/// Expand one execution-tree node visited by `b` of the `M` walks.
/// `weight` is the node's inverse sampling probability (S·D^level).
#[allow(clippy::too_many_arguments)]
fn expand<S: NeighborSource>(
    src: &S,
    plan: &MatchPlan,
    level: usize,
    b: u64,
    weight: f64,
    d: f64,
    m: u64,
    rng: &mut SmallRng,
    bound: &mut Vec<VertexId>,
    bufs: &mut [Vec<VertexId>],
    est: &mut FreqEstimate,
    cost: &mut CostCounter,
    stats: &mut MatchStats,
) {
    // Record the node's accesses, weighted by how many walks visit it.
    for c in &plan.levels[level].constraints {
        est.freq[bound[c.pos] as usize] += b as f64 * weight / m as f64;
    }
    let (buf, rest) = bufs.split_first_mut().expect("scratch too shallow");
    gen_candidates(src, plan, level, bound, IntersectAlgo::Auto, buf, cost, stats);
    if buf.is_empty() || level + 1 == plan.levels.len() {
        return;
    }
    let cands = std::mem::take(buf);
    for &cand in &cands {
        // Each walk at this node reaches each child with probability 1/D
        // (select 1/|V|, continue |V|/D) — the merged per-candidate
        // binomial of Sec. IV-B.
        let bc = binomial(rng, b, 1.0 / d);
        if bc > 0 {
            bound.push(cand);
            expand(src, plan, level + 1, bc, weight * d, d, m, rng, bound, rest, est, cost, stats);
            bound.pop();
        }
    }
    *buf = cands;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate_naive;
    use gcsm_graph::{CsrGraph, DynamicGraph};
    use gcsm_matcher::{
        match_incremental, AccessCounter, DriverOptions, DynSource, RecordingSource,
    };
    use gcsm_pattern::{compile_incremental, queries, PlanOptions};

    /// Shared fixture: a small skewed graph plus a mixed batch.
    fn fixture() -> (DynamicGraph, Vec<EdgeUpdate>) {
        // Hub-and-spoke plus triangles: vertex 0 is hot.
        let mut edges = vec![(0u32, 1u32), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (2, 3)];
        for i in 5..14u32 {
            edges.push((0, i));
        }
        edges.push((5, 6));
        let g0 = CsrGraph::from_edges(14, &edges);
        let mut g = DynamicGraph::from_csr(&g0);
        let batch = vec![
            EdgeUpdate::insert(1, 3),
            EdgeUpdate::insert(2, 4),
            EdgeUpdate::delete(0, 2),
            EdgeUpdate::insert(5, 7),
        ];
        let summary = g.apply_batch(&batch);
        (g, summary.applied)
    }

    /// Exact access counts (the oracle `C_v`) for the fixture.
    fn oracle(g: &DynamicGraph, batch: &[EdgeUpdate]) -> Vec<u64> {
        let src = DynSource::new(g);
        let counter = AccessCounter::new(g.num_vertices());
        let rec = RecordingSource::new(&src, &counter);
        let q = queries::triangle();
        match_incremental(&rec, &q, batch, &DriverOptions::default());
        counter.to_vec()
    }

    /// Both estimators must be (empirically) unbiased: averaging many runs
    /// approaches the oracle counts.
    #[test]
    fn merged_and_naive_are_unbiased() {
        let (g, batch) = fixture();
        let truth = oracle(&g, &batch);
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
        let d = g.max_degree_bound();
        let runs = 60;
        let mut mean_naive = vec![0.0; g.num_vertices()];
        let mut mean_merged = vec![0.0; g.num_vertices()];
        for r in 0..runs {
            let p = WalkParams { walks: 400, seed: 1000 + r };
            let en = estimate_naive(&src, &plans, &batch, d, &p);
            let em = estimate_merged(&src, &plans, &batch, d, &p);
            for v in 0..g.num_vertices() {
                mean_naive[v] += en.freq[v] / runs as f64;
                mean_merged[v] += em.freq[v] / runs as f64;
            }
        }
        // Check relative error on the hottest vertices (where the law of
        // large numbers has kicked in).
        let total_truth: u64 = truth.iter().sum();
        assert!(total_truth > 0);
        for v in 0..g.num_vertices() {
            if truth[v] >= 5 {
                let t = truth[v] as f64;
                let rel_n = (mean_naive[v] - t).abs() / t;
                let rel_m = (mean_merged[v] - t).abs() / t;
                assert!(rel_n < 0.35, "naive biased at v{v}: {} vs {}", mean_naive[v], t);
                assert!(rel_m < 0.35, "merged biased at v{v}: {} vs {}", mean_merged[v], t);
            }
        }
    }

    /// The merged scheme must rank the genuinely hot vertices on top.
    #[test]
    fn merged_ranks_hot_vertices_first() {
        let (g, batch) = fixture();
        let truth = oracle(&g, &batch);
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
        let est = estimate_merged(
            &src,
            &plans,
            &batch,
            g.max_degree_bound(),
            &WalkParams { walks: 20_000, seed: 3 },
        );
        let mut truth_ranked: Vec<(u32, u64)> =
            truth.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i as u32, c)).collect();
        truth_ranked.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let est_top: Vec<u32> = est.ranked().iter().take(3).map(|r| r.0).collect();
        // The single hottest oracle vertex must be within the estimator's
        // top three.
        assert!(
            est_top.contains(&truth_ranked[0].0),
            "hottest {:?} not in estimated top3 {:?}",
            truth_ranked[0],
            est_top
        );
    }

    /// Merged does far fewer set operations than naive at equal M.
    #[test]
    fn merged_is_cheaper_than_naive() {
        let (g, batch) = fixture();
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
        let p = WalkParams { walks: 20_000, seed: 9 };
        let en = estimate_naive(&src, &plans, &batch, g.max_degree_bound(), &p);
        let em = estimate_merged(&src, &plans, &batch, g.max_degree_bound(), &p);
        assert!(em.walk_ops * 4 < en.walk_ops, "merged {} vs naive {}", em.walk_ops, en.walk_ops);
    }

    #[test]
    fn zero_walks_estimate_is_empty() {
        let (g, batch) = fixture();
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
        let est = estimate_merged(
            &src,
            &plans,
            &batch,
            g.max_degree_bound(),
            &WalkParams { walks: 0, seed: 1 },
        );
        assert!(est.ranked().is_empty());
    }

    #[test]
    fn estimates_are_deterministic_given_seed() {
        let (g, batch) = fixture();
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
        let p = WalkParams { walks: 1000, seed: 42 };
        let a = estimate_merged(&src, &plans, &batch, g.max_degree_bound(), &p);
        let b = estimate_merged(&src, &plans, &batch, g.max_degree_bound(), &p);
        assert_eq!(a.freq, b.freq);
    }
}
