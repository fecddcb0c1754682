//! Cross-crate correctness invariants.
//!
//! The load-bearing property of the whole system (Eq. (1) of the paper):
//! the incremental result of any engine equals the from-scratch difference
//! `match(G_{k+1}) − match(G_k)`, for any graph, batch, and pattern.

use gcsm::prelude::*;
use gcsm_baselines::recompute_delta;
use gcsm_datagen::er::gnm;
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
use gcsm_matcher::DriverOptions;
use gcsm_pattern::{queries, QueryGraph};
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn random_batch(g: &CsrGraph, k: usize, seed: u64) -> Vec<EdgeUpdate> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let existing: Vec<_> = g.edges().collect();
    let mut batch = Vec::new();
    let mut used = std::collections::HashSet::new();
    let mut guard = 0;
    while batch.len() < k && guard < 100 * k {
        guard += 1;
        if rng.gen_bool(0.4) && !existing.is_empty() {
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

fn all_engines(cfg: &EngineConfig) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(GcsmEngine::new(cfg.clone())),
        Box::new(ZeroCopyEngine::new(cfg.clone())),
        Box::new(UnifiedMemEngine::new(cfg.clone())),
        Box::new(VsgmEngine::new(cfg.clone())),
        Box::new(NaiveDegreeEngine::new(cfg.clone())),
        Box::new(CpuWcojEngine::new(cfg.clone())),
        Box::new(RapidFlowEngine::new(cfg.clone())),
    ]
}

/// Every engine must produce the recompute-from-scratch delta.
fn check_engines_against_recompute(q: &QueryGraph, n: usize, m: usize, seed: u64) {
    let g0 = gnm(n, m, seed);
    let batch = random_batch(&g0, 12, seed ^ 0xfeed);
    let cfg = EngineConfig::with_cache_budget(4 << 10); // small budget: force misses
    for mut engine in all_engines(&cfg) {
        let mut g = DynamicGraph::from_csr(&g0);
        let summary = g.apply_batch(&batch);
        let r = engine.match_sealed(&g, &summary.applied, q);
        let reference = recompute_delta(&g, q, &DriverOptions::default());
        assert_eq!(
            r.matches,
            reference,
            "{} wrong on {} (n={n}, m={m}, seed={seed})",
            engine.name(),
            q.name()
        );
    }
}

#[test]
fn engines_match_recompute_triangle() {
    for seed in 0..4 {
        check_engines_against_recompute(&queries::triangle(), 30, 120, seed);
    }
}

#[test]
fn engines_match_recompute_kite() {
    for seed in 0..3 {
        check_engines_against_recompute(&queries::fig1_kite(), 25, 90, seed);
    }
}

#[test]
fn engines_match_recompute_q1() {
    check_engines_against_recompute(&queries::q1(), 25, 110, 7);
}

#[test]
fn engines_match_recompute_q3_prism() {
    check_engines_against_recompute(&queries::q3(), 22, 100, 11);
}

/// Multi-batch streams: cumulative deltas must track the from-scratch
/// counts at every step, for every engine, through reorganisations.
#[test]
fn streamed_deltas_track_ground_truth() {
    let g0 = gnm(35, 150, 99);
    let q = queries::triangle();
    let cfg = EngineConfig::default();
    let n_batches = 5;

    // Precompute batches against the evolving graph.
    for mut engine in all_engines(&cfg) {
        let mut pipeline = Pipeline::new(g0.clone(), q.clone());
        let mut cumulative = 0i64;
        for rng_seed in 1000u64..1000 + n_batches {
            let snapshot = pipeline.graph().to_csr();
            let batch = random_batch(&snapshot, 8, rng_seed);
            let r = pipeline.process_batch(engine.as_mut(), &batch);
            cumulative += r.matches;
        }
        // Ground truth: static counts on first and final snapshots.
        let final_graph = pipeline.graph().to_csr();
        let opts = DriverOptions::default();
        let before = {
            let src = gcsm_matcher::CsrSource::new(&g0);
            gcsm_matcher::match_static(&src, &q, &g0.edges().collect::<Vec<_>>(), &opts).matches
        };
        let after = {
            let src = gcsm_matcher::CsrSource::new(&final_graph);
            gcsm_matcher::match_static(&src, &q, &final_graph.edges().collect::<Vec<_>>(), &opts)
                .matches
        };
        assert_eq!(cumulative, after - before, "{} drifts over stream", engine.name());
    }
}

/// Symmetry-broken (unique subgraph) counting keeps the invariant too, and
/// equals embeddings / |Aut|.
#[test]
fn symmetry_breaking_preserves_invariant() {
    let g0 = gnm(28, 140, 5);
    let batch = random_batch(&g0, 10, 55);
    let q = queries::triangle();
    let mut cfg = EngineConfig::default();
    cfg.plan.symmetry_break = true;
    let opts_sb = DriverOptions { plan: cfg.plan, ..Default::default() };

    let mut g = DynamicGraph::from_csr(&g0);
    let summary = g.apply_batch(&batch);
    let mut engine = GcsmEngine::new(cfg);
    let r = engine.match_sealed(&g, &summary.applied, &q);
    let reference_sb = recompute_delta(&g, &q, &opts_sb);
    assert_eq!(r.matches, reference_sb);

    // Embedding count = 6 × subgraph count for triangles.
    let reference_emb = recompute_delta(&g, &q, &DriverOptions::default());
    assert_eq!(reference_emb, 6 * reference_sb);
}

/// Labeled matching end to end.
#[test]
fn labeled_patterns_respected_by_engines() {
    let mut b = gcsm_graph::CsrBuilder::new(40);
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..200 {
        let x = rng.gen_range(0..40u32);
        let y = rng.gen_range(0..40u32);
        b.add_edge(x, y);
    }
    let labels: Vec<u16> = (0..40).map(|i| (i % 3) as u16).collect();
    b.set_labels(labels);
    let g0 = b.build();
    let q = QueryGraph::with_labels("lt", 3, &[(0, 1), (0, 2), (1, 2)], vec![0, 1, 2]);
    let batch = random_batch(&g0, 10, 77);

    let cfg = EngineConfig::default();
    let mut expected = None;
    for mut engine in all_engines(&cfg) {
        let mut g = DynamicGraph::from_csr(&g0);
        let summary = g.apply_batch(&batch);
        let r = engine.match_sealed(&g, &summary.applied, &q);
        match expected {
            None => {
                let reference = recompute_delta(&g, &q, &DriverOptions::default());
                assert_eq!(r.matches, reference, "{}", engine.name());
                expected = Some(r.matches);
            }
            Some(e) => assert_eq!(r.matches, e, "{}", engine.name()),
        }
    }
}
