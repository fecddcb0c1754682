//! GCSM — the paper's system.
//!
//! Per sealed batch (steps 2–4 of Fig. 3):
//!
//! 1. **FE** — merged random walks estimate per-vertex access frequency
//!    (`M = |ΔE|·D^{n−2}/32^n` walks per delta plan by default);
//! 2. **DC** — the top-frequency vertices that fit the GPU buffer are
//!    packed into DCSR and shipped with a single DMA;
//! 3. **Match** — the incremental kernel runs with cache-hit reads from
//!    device memory and zero-copy fallback for misses.
//!
//! FE and host-side packing are CPU work, charged at CPU compute/bandwidth
//! cost; everything else comes out of the recorded traffic.

use super::{ship_cache, Engine, Measurer};
use crate::config::EngineConfig;
use crate::kernel::run_gpu_kernel_with_plans;
use crate::result::{BatchResult, PhaseBreakdown};
use crate::sources::CachedSource;
use gcsm_cache::{DeltaPlan, DeltaPlanner};
use gcsm_freq::{
    estimate_merged, recommended_walks, select_top_frequency, FreqEstimate, WalkParams,
};
use gcsm_gpusim::Device;
use gcsm_graph::{DynamicGraph, EdgeUpdate};
use gcsm_matcher::DynSource;
use gcsm_pattern::{compile_incremental, compile_incremental_scored, QueryGraph};

/// The GCSM engine.
pub struct GcsmEngine {
    cfg: EngineConfig,
    device: Device,
    /// Last batch's estimate (inspection/Fig. 15b coverage eval).
    last_estimate: Option<FreqEstimate>,
    /// Last batch's cached vertex set.
    last_selection: Vec<gcsm_graph::VertexId>,
    /// Walks used by the most recent estimation (after adaptation).
    last_walks: u64,
    /// Incremental-cache state (used when `cfg.delta_cache` is on).
    planner: DeltaPlanner,
    /// Transfer plan of the most recent delta-cached batch.
    last_plan: Option<DeltaPlan>,
}

impl GcsmEngine {
    pub fn new(cfg: EngineConfig) -> Self {
        let device = Device::new(cfg.gpu);
        Self {
            cfg,
            device,
            last_estimate: None,
            last_selection: Vec::new(),
            last_walks: 0,
            planner: DeltaPlanner::new(),
            last_plan: None,
        }
    }

    /// The delta transfer plan of the most recent batch (None until a
    /// batch runs with `delta_cache` enabled).
    pub fn last_plan(&self) -> Option<&DeltaPlan> {
        self.last_plan.as_ref()
    }

    /// Rows currently resident on the device under delta caching.
    pub fn resident(&self) -> &[gcsm_graph::VertexId] {
        self.planner.resident()
    }

    /// Number of walks the last estimation actually used (post-adaptation).
    pub fn last_walks(&self) -> u64 {
        self.last_walks
    }

    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The frequency estimate of the most recent batch.
    pub fn last_estimate(&self) -> Option<&FreqEstimate> {
        self.last_estimate.as_ref()
    }

    /// The cached vertex set of the most recent batch (`T` in the coverage
    /// metric of Sec. VI-D).
    pub fn last_selection(&self) -> &[gcsm_graph::VertexId] {
        &self.last_selection
    }

    fn walks(&self, query: &QueryGraph, batch_len: usize, max_degree: usize) -> u64 {
        self.cfg
            .walks_override
            .unwrap_or_else(|| recommended_walks(query.num_vertices(), batch_len, max_degree))
    }
}

impl Engine for GcsmEngine {
    fn name(&self) -> &'static str {
        "GCSM"
    }

    fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    fn match_sealed(
        &mut self,
        graph: &DynamicGraph,
        batch: &[EdgeUpdate],
        query: &QueryGraph,
    ) -> BatchResult {
        let overall = self.device.snapshot();
        let mut m = Measurer::begin(&self.device, &self.cfg);
        let mut phases = PhaseBreakdown::default();
        let mut delta_span = gcsm_obs::span("delta_build", gcsm_obs::cat::ENGINE);
        delta_span.set_count(batch.len() as u64);
        let fe_span = gcsm_obs::span("freq_est", gcsm_obs::cat::ENGINE);

        // ---- Step 2: frequency estimation (host) ----
        let plans = if self.cfg.optimized_order {
            // The paper's future-work integration: order pattern vertices
            // by ascending global candidate count (label + degree filter),
            // the cheap proxy for RapidFlow's index cardinalities.
            let scores: Vec<f64> = (0..query.num_vertices())
                .map(|u| {
                    let (lu, du) = (query.label(u), query.degree(u));
                    (0..graph.num_vertices() as gcsm_graph::VertexId)
                        .filter(|&v| graph.label(v) == lu && graph.new_degree(v) >= du)
                        .count() as f64
                })
                .collect();
            (0..query.num_edges())
                .map(|i| compile_incremental_scored(query, i, self.cfg.plan, &scores))
                .collect()
        } else {
            compile_incremental(query, self.cfg.plan)
        };
        let d = graph.max_degree_bound();
        let recommended = self.walks(query, batch.len(), d);
        let host_src = DynSource::new(graph);
        let est = if self.cfg.adaptive_walks {
            // Sec. IV-A's adaptive loop: start small, check Eq. (5)
            // against the smallest estimated frequency, resample if the
            // confidence target is unmet.
            let mut walks = (recommended / 4).max(64);
            let mut round = 0;
            loop {
                let est = estimate_merged(
                    &host_src,
                    &plans,
                    batch,
                    d,
                    &WalkParams { walks, seed: self.cfg.walk_seed + round as u64 },
                );
                self.last_walks = walks;
                round += 1;
                if round >= EngineConfig::ADAPTIVE_MAX_ROUNDS {
                    break est;
                }
                let Some(min_freq) = est.min_nonzero() else { break est };
                match gcsm_freq::adaptive_walk_target(
                    query.num_vertices(),
                    EngineConfig::ADAPTIVE_ALPHA,
                    batch.len().max(1),
                    d,
                    EngineConfig::ADAPTIVE_CONFIDENCE,
                    min_freq,
                    walks,
                ) {
                    Ok(()) => break est,
                    Err(need) => {
                        let capped = need.min(recommended * 4);
                        if capped <= walks {
                            break est;
                        }
                        phases.freq_est += est.walk_ops as f64 * self.cfg.gpu.walk_op_cost;
                        walks = capped;
                    }
                }
            }
        } else {
            self.last_walks = recommended;
            estimate_merged(
                &host_src,
                &plans,
                batch,
                d,
                &WalkParams { walks: recommended, seed: self.cfg.walk_seed },
            )
        };
        phases.freq_est += est.walk_ops as f64 * self.cfg.gpu.walk_op_cost;
        drop(fe_span);
        let dc_span = gcsm_obs::span("data_copy", gcsm_obs::cat::ENGINE);

        // ---- Step 3: select, pack, DMA (host + link) ----
        let budget = self.cfg.gpu.cache_budget();
        let selection = select_top_frequency(&est, budget, |v| graph.list_bytes(v));
        let (dcsr, shipped_bytes, plan) = ship_cache(
            &self.device,
            &mut self.planner,
            &self.cfg,
            graph,
            batch,
            &selection.vertices,
        );
        if plan.is_some() {
            self.last_plan = plan;
        }
        let cached_bytes = dcsr.bytes();
        // Host-side packing streams the shipped lists once.
        phases.data_copy = m.lap() + shipped_bytes as f64 / self.cfg.gpu.cpu_mem_bandwidth;
        drop(dc_span);
        drop(delta_span);

        // ---- Step 4: the matching kernel (same plans the walks sampled) ----
        let src = CachedSource { graph, device: &self.device, dcsr: &dcsr };
        let run = {
            let _span = gcsm_obs::span("matching", gcsm_obs::cat::ENGINE);
            run_gpu_kernel_with_plans(&self.device, &src, &plans, batch, &self.cfg)
        };
        // Stretch the kernel's time by the grid load-imbalance factor of
        // the configured scheduling policy (1.0 under perfect balance).
        phases.matching = m.lap() * run.imbalance;
        let stats = run.stats;

        self.last_estimate = Some(est);
        // The rows actually cached (post-eviction under delta mode).
        self.last_selection = dcsr.rowidx.clone();
        m.finish(self.name(), stats, phases, cached_bytes, 0, overall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::ZeroCopyEngine;
    use gcsm_graph::CsrGraph;
    use gcsm_pattern::queries;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn skewed_graph(n: usize, seed: u64) -> CsrGraph {
        // Preferential-attachment-ish: early vertices become hubs.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = gcsm_graph::CsrBuilder::new(n);
        for v in 1..n as u32 {
            for _ in 0..3 {
                let target = rng.gen_range(0..v.max(1));
                b.add_edge(v, target);
            }
        }
        b.build()
    }

    fn batch_for(g: &CsrGraph, k: usize, seed: u64) -> Vec<EdgeUpdate> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut batch = Vec::new();
        let mut used = std::collections::HashSet::new();
        while batch.len() < k {
            let a = rng.gen_range(0..g.num_vertices() as u32);
            let b2 = rng.gen_range(0..g.num_vertices() as u32);
            let (a, b2) = (a.min(b2), a.max(b2));
            if a != b2 && !g.has_edge(a, b2) && used.insert((a, b2)) {
                batch.push(EdgeUpdate::insert(a, b2));
            }
        }
        batch
    }

    #[test]
    fn gcsm_matches_zero_copy_count_with_less_cpu_traffic() {
        let g0 = skewed_graph(400, 3);
        let batch = batch_for(&g0, 40, 17);

        let mut g1 = DynamicGraph::from_csr(&g0);
        let s1 = g1.apply_batch(&batch);
        let mut zp = ZeroCopyEngine::new(EngineConfig::default());
        let rz = zp.match_sealed(&g1, &s1.applied, &queries::triangle());

        let mut g2 = DynamicGraph::from_csr(&g0);
        let s2 = g2.apply_batch(&batch);
        let mut gcsm = GcsmEngine::new(EngineConfig::default());
        let rg = gcsm.match_sealed(&g2, &s2.applied, &queries::triangle());

        assert_eq!(rz.matches, rg.matches, "engines must agree on ΔM");
        assert!(
            rg.cpu_access_bytes < rz.cpu_access_bytes,
            "cache must cut CPU traffic: {} vs {}",
            rg.cpu_access_bytes,
            rz.cpu_access_bytes
        );
        assert!(rg.cache_hit_rate > 0.5, "hit rate {}", rg.cache_hit_rate);
        assert!(rg.cached_bytes > 0);
        assert!(rg.phases.freq_est > 0.0);
        assert!(rg.phases.data_copy > 0.0);
    }

    #[test]
    fn walks_override_is_honored() {
        let g0 = skewed_graph(100, 5);
        let batch = batch_for(&g0, 8, 2);
        let mut g = DynamicGraph::from_csr(&g0);
        let s = g.apply_batch(&batch);
        let cfg = EngineConfig { walks_override: Some(16), ..Default::default() };
        let mut e = GcsmEngine::new(cfg);
        let r = e.match_sealed(&g, &s.applied, &queries::triangle());
        let _ = r.matches; // any count is fine — the point is it ran without panic
        assert!(e.last_estimate().is_some());
    }

    #[test]
    fn adaptive_walks_run_and_agree_on_counts() {
        let g0 = skewed_graph(300, 11);
        let batch = batch_for(&g0, 24, 8);

        let mut g1 = DynamicGraph::from_csr(&g0);
        let s1 = g1.apply_batch(&batch);
        let mut fixed = GcsmEngine::new(EngineConfig::default());
        let rf = fixed.match_sealed(&g1, &s1.applied, &queries::triangle());

        let mut g2 = DynamicGraph::from_csr(&g0);
        let s2 = g2.apply_batch(&batch);
        let cfg = EngineConfig { adaptive_walks: true, ..Default::default() };
        let mut adaptive = GcsmEngine::new(cfg);
        let ra = adaptive.match_sealed(&g2, &s2.applied, &queries::triangle());

        assert_eq!(rf.matches, ra.matches, "adaptation must not change counts");
        assert!(adaptive.last_walks() > 0);
        assert!(ra.phases.freq_est > 0.0);
    }

    #[test]
    fn optimized_order_preserves_counts() {
        let g0 = skewed_graph(300, 17);
        let batch = batch_for(&g0, 24, 9);
        let mut counts = Vec::new();
        for opt in [false, true] {
            let mut g = DynamicGraph::from_csr(&g0);
            let s = g.apply_batch(&batch);
            let cfg = EngineConfig { optimized_order: opt, ..Default::default() };
            let mut e = GcsmEngine::new(cfg);
            counts.push(e.match_sealed(&g, &s.applied, &queries::q1()).matches);
        }
        assert_eq!(counts[0], counts[1], "ordering must not change ΔM");
    }

    #[test]
    fn delta_cache_cuts_dma_on_stable_selection() {
        // Batches oscillate over the same edge set, so consecutive
        // selections overlap heavily — the case delta shipping targets.
        let g0 = skewed_graph(300, 21);
        let edges = batch_for(&g0, 12, 55);
        let deletes: Vec<EdgeUpdate> =
            edges.iter().map(|u| EdgeUpdate::delete(u.src, u.dst)).collect();
        let rounds: Vec<&[EdgeUpdate]> = vec![&edges, &deletes, &edges, &deletes];

        let mut dma = [0u64; 2];
        let mut counts = [0i64; 2];
        for (i, delta) in [false, true].into_iter().enumerate() {
            let cfg = EngineConfig { delta_cache: delta, ..Default::default() };
            let mut engine = GcsmEngine::new(cfg);
            // A deeper pattern (the kite) accesses neighbors beyond the
            // batch endpoints; those rows are the keepable ones.
            let mut pipeline = crate::Pipeline::new(g0.clone(), queries::fig1_kite());
            for batch in &rounds {
                let r = pipeline.process_batch(&mut engine, batch);
                dma[i] += r.traffic.dma_bytes;
                counts[i] += r.matches;
            }
        }
        assert_eq!(counts[0], counts[1], "delta cache must not change counts");
        assert!(dma[1] < dma[0], "delta cache must reduce DMA: {} vs {}", dma[1], dma[0]);
    }

    #[test]
    fn zero_budget_degrades_to_zero_copy_behavior() {
        let g0 = skewed_graph(150, 9);
        let batch = batch_for(&g0, 10, 4);
        let mut g = DynamicGraph::from_csr(&g0);
        let s = g.apply_batch(&batch);
        let mut e = GcsmEngine::new(EngineConfig::with_cache_budget(0));
        let r = e.match_sealed(&g, &s.applied, &queries::triangle());
        assert_eq!(r.cache_hit_rate, 0.0);
        assert!(e.last_selection().is_empty());
    }
}
