//! Closed-loop workloads (`social-q1`, `rmat-tri-bulk`): one client hands
//! `Pipeline::process_batch` its next batch when the previous one returns.

use crate::checks;
use crate::inputs::{self, ClosedSpec, ROUNDS};
use crate::replica::{traced_batch, Fingerprint, TracedGcsm};
use crate::report::{best_of, mean, median, peak_rss_mib, percentile, Clock, Outcome};
use crate::{layers, trace, SETUP_REPS};
use gcsm::{GcsmEngine, Pipeline};
use gcsm_graph::DynamicGraph;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub fn run(spec: &ClosedSpec, name: &str, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let input = inputs::closed(spec, seed, seconds);
    let cfg = inputs::engine_config(&input.g0);
    let sym = cfg.plan.symmetry_break;
    let mut out = Outcome::default();

    // ---- set-up: G_0 handed over until the first batch can be taken ----
    let mut setup_s = Vec::new();
    let mut system = None;
    for _ in 0..SETUP_REPS {
        let (g0, query) = (input.g0.clone(), input.query.clone());
        drop(system.take());
        let t = Instant::now();
        let pipeline = Pipeline::new(g0, query);
        let engine = GcsmEngine::new(cfg.clone());
        let base = pipeline.static_count(sym);
        setup_s.push(t.elapsed().as_secs_f64());
        system = Some((pipeline, engine, base));
    }
    let (mut pipeline, mut engine, base) = system.expect("SETUP_REPS >= 1");

    // ---- untraced, timed run ----
    let n = input.batches.len();
    let mut walls = Vec::with_capacity(n);
    let mut prints: Vec<Option<Fingerprint>> = Vec::with_capacity(n);
    let mut sim_ms = Vec::with_capacity(n);
    for (i, batch) in input.batches.iter().enumerate() {
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| pipeline.process_batch(&mut engine, batch)));
        let wall = t.elapsed().as_secs_f64();
        match r {
            Ok(r) => {
                walls.push((i % input.len, wall * 1e3));
                sim_ms.push(r.total_ms());
                let walk_ops = engine.last_estimate().map_or(0, |e| e.walk_ops);
                prints.push(Some(Fingerprint::of(&r, walk_ops)));
            }
            Err(_) => prints.push(None),
        }
    }
    let peak_rss = peak_rss_mib();
    let final_count = catch_unwind(AssertUnwindSafe(|| pipeline.static_count(sym))).ok();
    drop((pipeline, engine));

    // ---- correctness: reference ΔM per batch, sampled recompute, ledger ----
    let query = std::slice::from_ref(&input.query);
    // One round of the reference serves every round: a round ends on G_0.
    let mut reference =
        checks::reference(&input.g0, query, &input.batches[..input.len], cfg.plan, seed);
    if !reference.final_graph.to_csr().edges().eq(input.g0.edges()) {
        out.violate("workload: a round does not return the graph to G_0");
    }
    reference.delta = reference.delta.iter().cycle().take(n).cloned().collect();
    reference.applied *= ROUNDS;
    checks::judge(&mut out, &reference, &prints, 1);
    let sum: i64 = prints.iter().flatten().map(|p| p.matches).sum();
    match final_count {
        Some(c) if c == base + sum => {}
        Some(c) => out
            .violate(format!("ledger: count(G_0) {base} + ΣΔM {sum} != static_count(G_final) {c}")),
        None => out.violate("ledger: static_count(G_final) panicked"),
    }
    checks::anchors(&mut out, name, seed, seconds, &prints, &sim_ms);
    let batch = spec.batch;
    let offered = input.batches.len() * batch;
    if reference.applied != offered {
        out.violate(format!(
            "workload: {} of {offered} updates did not apply",
            offered - reference.applied
        ));
    }

    if traced {
        traced_run(&mut out, &input, cfg, &prints, walls.iter().map(|(_, ms)| ms / 1e3).sum());
        return out;
    }

    // Every wall figure is over the batches of one round, each at its best
    // wall over the rounds (a batch that panicked in every round has none
    // and is already counted as failed).
    let ms = best_of(walls.iter().copied(), input.len);
    let rate = (ms.len() * batch) as f64 / (ms.iter().sum::<f64>() / 1e3);
    out.push("updates_per_s", rate, "updates/s", Clock::Wall);
    out.push("batch_wall_ms.p50", median(&ms), "ms", Clock::Wall);
    out.push("batch_wall_ms.p90", percentile(&ms, 0.9), "ms", Clock::Wall);
    out.push("sim_ms_per_batch", mean(&sim_ms), "ms", Clock::Sim);
    // Closed loop: a batch's updates are due when it is submitted, so the
    // end-to-end latency is the batch wall, and the system is never offered
    // more than it takes, so its sustained rate is its throughput.
    out.push("e2e_latency_ms.p50", median(&ms), "ms", Clock::Wall);
    out.push("e2e_latency_ms.p95", percentile(&ms, 0.95), "ms", Clock::Wall);
    out.push("sustained_updates_per_s", rate, "updates/s", Clock::Wall);
    out.push("setup_s", median(&setup_s), "s", Clock::Wall);
    out.push("peak_rss_mb", peak_rss, "MiB", Clock::None);
    out.note("batches", format!("{} ({} rounds of {})", walls.len(), ROUNDS, input.len));
    out.note("setup_s.runs", format!("{setup_s:?}"));
    out
}

/// The same batches again, through [`traced_batch`], with spans.
fn traced_run(
    out: &mut Outcome,
    input: &inputs::Closed,
    cfg: gcsm::EngineConfig,
    untraced: &[Option<Fingerprint>],
    untraced_wall_s: f64,
) {
    let mut graph = DynamicGraph::from_csr(&input.g0);
    let mut engines = vec![(input.query.clone(), TracedGcsm::new(cfg))];
    let mut acc = layers::Acc::default();
    let run = catch_unwind(AssertUnwindSafe(|| {
        for (i, batch) in input.batches.iter().enumerate() {
            trace::set_batch(i as u64);
            let (results, graph_extras) = traced_batch(&mut graph, &mut engines, batch);
            acc.batch(&trace::take(), &results, &[engines[0].1.last.clone()], graph_extras);
            let print = Fingerprint::of(&results[0], engines[0].1.last.walk_ops);
            if let Some(field) =
                untraced[i].as_ref().map_or(Some("batch"), |u| print.first_difference(u))
            {
                return Err(format!("traced run differs from untraced on batch {i}: {field}"));
            }
        }
        Ok(())
    }));
    match run {
        Ok(Ok(())) => acc.report(out, untraced_wall_s, &layers::StreamLayer::default()),
        Ok(Err(e)) => out.violate(e),
        Err(_) => out.violate("traced run panicked"),
    }
}
