//! Small API-surface checks that don't fit the larger suites: display
//! impls, lookup misses, workload-cache determinism, config invariants.

use gcsm::prelude::*;
use gcsm_graph::{CsrGraph, EdgeUpdate};
use gcsm_pattern::{compile_static, explain_plan, queries, PlanOptions};

#[test]
fn plan_display_matches_explain() {
    let q = queries::triangle();
    let p = compile_static(&q, PlanOptions::default());
    assert_eq!(format!("{p}"), explain_plan(&p));
    assert!(format!("{q}").contains("triangle"));
}

#[test]
fn multi_result_lookup_miss_is_none() {
    let g0 = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
    let mut multi = MultiPipeline::new(g0)
        .register(queries::triangle(), Box::new(CpuWcojEngine::new(EngineConfig::default())));
    let r = multi.process_batch(&[EdgeUpdate::insert(0, 2)]);
    assert!(r.get("triangle").is_some());
    assert!(r.get("nonexistent").is_none());
}

#[test]
fn engine_names_are_distinct() {
    let cfg = EngineConfig::default();
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(GcsmEngine::new(cfg.clone())),
        Box::new(ZeroCopyEngine::new(cfg.clone())),
        Box::new(UnifiedMemEngine::new(cfg.clone())),
        Box::new(VsgmEngine::new(cfg.clone())),
        Box::new(NaiveDegreeEngine::new(cfg.clone())),
        Box::new(CpuWcojEngine::new(cfg.clone())),
        Box::new(RapidFlowEngine::new(cfg.clone())),
        Box::new(RecomputeEngine::new(cfg.clone())),
    ];
    let mut names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 8, "engine names must be unique: {names:?}");
}

#[test]
fn workload_cache_is_deterministic() {
    use gcsm_bench::Workload;
    use gcsm_datagen::Preset;
    let a = Workload::build(Preset::Amazon, 0.0625, 32, 2);
    let b = Workload::build(Preset::Amazon, 0.0625, 64, 1);
    // Same cached stream, different batching.
    assert_eq!(a.initial.num_edges(), b.initial.num_edges());
    let flat_a: Vec<_> = a.batches.iter().flatten().copied().take(64).collect();
    let flat_b: Vec<_> = b.batches.iter().flatten().copied().take(64).collect();
    assert_eq!(flat_a, flat_b, "batching must not change the stream");
}

#[test]
fn adaptive_constants_are_sane() {
    const { assert!(EngineConfig::ADAPTIVE_ALPHA > 0.0) };
    assert!((0.0..1.0).contains(&EngineConfig::ADAPTIVE_CONFIDENCE));
    const { assert!(EngineConfig::ADAPTIVE_MAX_ROUNDS >= 1) };
}

#[test]
fn batch_result_defaults_are_neutral() {
    let r = BatchResult::default();
    assert_eq!(r.matches, 0);
    assert_eq!(r.total_ms(), 0.0);
    assert_eq!(r.cache_hit_rate, 0.0);
}

#[test]
fn agm_bound_consistency_with_plan_depth() {
    // The AGM bound for a batch-restricted relation never exceeds the
    // full-relation bound — the inequality Eq. (2) encodes.
    use gcsm_pattern::{agm_bound, delta_bound};
    for q in queries::all() {
        let full = agm_bound(&q, &vec![1e5; q.num_edges()]);
        for i in 0..q.num_edges() {
            let d = delta_bound(&q, i, 1e2, 1e5);
            assert!(
                d <= full * 1.0001,
                "{} ΔM_{}: delta bound {d:.3e} exceeds full {full:.3e}",
                q.name(),
                i + 1
            );
        }
    }
}
