//! Naive — GCSM's cache architecture with degree-based selection.
//!
//! "The fourth GPU baseline (Naive) adopts a similar configuration to our
//! system … However, it uses node degree as an estimate of access
//! frequency." The paper finds it performs like plain zero-copy: high
//! degree does not mean the batch will touch the vertex, and hub lists are
//! huge, so a byte budget buys very few of them.

use super::{ship_cache, Engine, Measurer};
use crate::config::EngineConfig;
use crate::kernel::run_gpu_kernel;
use crate::result::{BatchResult, PhaseBreakdown};
use crate::sources::CachedSource;
use gcsm_cache::DeltaPlanner;
use gcsm_freq::select_by_degree;
use gcsm_gpusim::Device;
use gcsm_graph::{DynamicGraph, EdgeUpdate, VertexId};
use gcsm_pattern::QueryGraph;

/// The degree-ranked-cache engine.
pub struct NaiveDegreeEngine {
    cfg: EngineConfig,
    device: Device,
    last_selection: Vec<VertexId>,
    /// Incremental-cache state (used when `cfg.delta_cache` is on).
    planner: DeltaPlanner,
}

impl NaiveDegreeEngine {
    pub fn new(cfg: EngineConfig) -> Self {
        let device = Device::new(cfg.gpu);
        Self { cfg, device, last_selection: Vec::new(), planner: DeltaPlanner::new() }
    }

    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The cached vertex set of the most recent batch.
    pub fn last_selection(&self) -> &[VertexId] {
        &self.last_selection
    }
}

impl Engine for NaiveDegreeEngine {
    fn name(&self) -> &'static str {
        "Naive"
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

        // ---- DC: rank every vertex by degree, pack under the budget ----
        let mut delta_span = gcsm_obs::span("delta_build", gcsm_obs::cat::ENGINE);
        let dc_span = gcsm_obs::span("data_copy", gcsm_obs::cat::ENGINE);
        let candidates: Vec<(VertexId, usize)> = (0..graph.num_vertices() as VertexId)
            .map(|v| (v, graph.new_degree(v)))
            .filter(|&(_, d)| d > 0)
            .collect();
        let budget = self.cfg.gpu.cache_budget();
        let selection = select_by_degree(candidates, budget, |v| graph.list_bytes(v));
        let (dcsr, shipped_bytes, _) = ship_cache(
            &self.device,
            &mut self.planner,
            &self.cfg,
            graph,
            batch,
            &selection.vertices,
        );
        let cached_bytes = dcsr.bytes();
        phases.data_copy = m.lap() + shipped_bytes as f64 / self.cfg.gpu.cpu_mem_bandwidth;
        drop(dc_span);
        delta_span.set_count(dcsr.len() as u64);
        drop(delta_span);

        // ---- Match ----
        let src = CachedSource { graph, device: &self.device, dcsr: &dcsr };
        let run = {
            let _span = gcsm_obs::span("matching", gcsm_obs::cat::ENGINE);
            run_gpu_kernel(&self.device, &src, query, batch, &self.cfg)
        };
        // Stretch the kernel's time by the grid load-imbalance factor of
        // the configured scheduling policy (1.0 under perfect balance).
        phases.matching = m.lap() * run.imbalance;
        let stats = run.stats;

        // The rows actually cached (post-eviction under delta mode).
        self.last_selection = dcsr.rowidx.clone();
        m.finish(self.name(), stats, phases, cached_bytes, 0, overall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcsm_graph::CsrGraph;
    use gcsm_pattern::queries;

    #[test]
    fn naive_selects_hubs_and_counts_correctly() {
        // Star + triangle far from the hub: degree ranking caches the hub,
        // which the triangle batch never touches.
        let mut edges = vec![(10u32, 11u32), (11, 12), (10, 12)];
        for leaf in 1..10u32 {
            edges.push((0, leaf));
        }
        let g0 = CsrGraph::from_edges(13, &edges);
        let mut g = DynamicGraph::from_csr(&g0);
        // Insert an edge touching the triangle component (away from the hub).
        let s = g.apply_batch(&[EdgeUpdate::insert(9, 10)]);
        // budget for exactly the hub's list
        let budget = g.list_bytes(0);
        let mut e = NaiveDegreeEngine::new(EngineConfig::with_cache_budget(budget));
        let r = e.match_sealed(&g, &s.applied, &queries::triangle());
        assert!(e.last_selection().contains(&0), "hub cached");
        // The batch is in the triangle component: cache useless.
        assert_eq!(r.traffic.cache_hits, 0);
        assert!(r.cpu_access_bytes > 0);
    }
}
