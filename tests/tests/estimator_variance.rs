//! Empirical validation of the Theorem-1 variance bound (Eq. (7)):
//!
//! `Var[C̃_v] ≤ (n−1)·|ΔE|·D^{n−2}·C_v`   (single walk; /M for M walks).
//!
//! We measure the empirical variance of the single-walk estimator over many
//! independent runs and check it against the analytic bound for every
//! vertex with a meaningful access count.

use gcsm_datagen::er::gnm;
use gcsm_freq::{estimate_naive, WalkParams};
use gcsm_graph::{DynamicGraph, EdgeUpdate};
use gcsm_matcher::{match_incremental, AccessCounter, DriverOptions, DynSource, RecordingSource};
use gcsm_pattern::{compile_incremental, queries, PlanOptions};

#[test]
fn empirical_variance_within_theorem1_bound() {
    // Fixture: small dense-ish graph + insert-only batch.
    let g0 = gnm(40, 160, 9);
    let mut g = DynamicGraph::from_csr(&g0);
    let batch: Vec<EdgeUpdate> = vec![
        EdgeUpdate::insert(0, 5),
        EdgeUpdate::insert(1, 7),
        EdgeUpdate::insert(2, 9),
        EdgeUpdate::insert(3, 11),
    ];
    let summary = g.apply_batch(&batch);
    let q = queries::triangle();
    let n = q.num_vertices();
    let d = g.max_degree_bound();

    // Oracle counts C_v.
    let src = DynSource::new(&g);
    let counter = AccessCounter::new(g.num_vertices());
    {
        let rec = RecordingSource::new(&src, &counter);
        match_incremental(&rec, &q, &summary.applied, &DriverOptions::default());
    }
    let truth = counter.to_vec();

    // Estimator samples. The estimator draws M walks per *plan*; with
    // walks = 1 each run is one walk per plan, and the per-plan estimates
    // sum — so the bound applies per plan; summing m plans multiplies the
    // bound by ≤ m (walks are independent). Use the conservative m× bound.
    let plans = compile_incremental(&q, PlanOptions::default());
    let m_plans = plans.len() as f64;
    let runs = 3000;
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); g.num_vertices()];
    for r in 0..runs {
        let est = estimate_naive(
            &src,
            &plans,
            &summary.applied,
            d,
            &WalkParams { walks: 1, seed: 5000 + r as u64 },
        );
        for (sample, &f) in samples.iter_mut().zip(&est.freq) {
            sample.push(f);
        }
    }

    // The seed set S has both orientations: |seeds| = 2|ΔE|.
    let delta_e = 2.0 * summary.applied.len() as f64;
    let mut checked = 0;
    for v in 0..g.num_vertices() {
        let c_v = truth[v] as f64;
        if c_v < 3.0 {
            continue;
        }
        let mean: f64 = samples[v].iter().sum::<f64>() / runs as f64;
        let var: f64 =
            samples[v].iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / runs as f64;
        let bound = m_plans * (n as f64 - 1.0) * delta_e * (d as f64).powi(n as i32 - 2) * c_v;
        // Allow 30% statistical slack on the empirical variance.
        assert!(
            var <= bound * 1.3,
            "v{v}: empirical var {var:.1} exceeds Theorem-1 bound {bound:.1} (C_v = {c_v})"
        );
        checked += 1;
    }
    assert!(checked >= 3, "fixture must exercise several hot vertices ({checked})");
}

#[test]
fn estimator_mean_tracks_oracle_at_scale_of_walks() {
    // Complements the unit test in gcsm-freq: with a healthy M the mean of
    // a single run is already close for the hottest vertex.
    let g0 = gnm(60, 240, 4);
    let mut g = DynamicGraph::from_csr(&g0);
    let batch = vec![EdgeUpdate::insert(0, 30), EdgeUpdate::insert(1, 31)];
    let summary = g.apply_batch(&batch);
    let q = queries::triangle();
    let src = DynSource::new(&g);
    let counter = AccessCounter::new(g.num_vertices());
    {
        let rec = RecordingSource::new(&src, &counter);
        match_incremental(&rec, &q, &summary.applied, &DriverOptions::default());
    }
    let ranked = counter.ranked();
    if ranked.is_empty() {
        return;
    }
    let (hot, c_hot) = ranked[0];
    let plans = compile_incremental(&q, PlanOptions::default());
    let est = gcsm_freq::estimate_merged(
        &src,
        &plans,
        &summary.applied,
        g.max_degree_bound(),
        &WalkParams { walks: 400_000, seed: 2 },
    );
    let rel = (est.freq[hot as usize] - c_hot as f64).abs() / c_hot as f64;
    assert!(rel < 0.4, "hottest vertex estimate off by {:.0}%", rel * 100.0);
}
