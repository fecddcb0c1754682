//! Recompute — the IncIsoMatch-style baseline \[12\].
//!
//! The earliest CSM approach: re-run static matching after every batch and
//! diff against the previous count. We run both snapshots from scratch on
//! the CPU (32 threads), which is the honest cost of the strategy without
//! IncIsoMatch's affected-region narrowing. Exists to complete the paper's
//! related-work lineage and as a live, painfully-slow contrast for the
//! incremental engines — only the small-scale ablation uses it.

use super::{Engine, Measurer};
use crate::config::EngineConfig;
use crate::result::{BatchResult, PhaseBreakdown};
use gcsm_gpusim::Device;
use gcsm_graph::{DynamicGraph, EdgeUpdate};
use gcsm_matcher::{match_static, CsrSource};
use gcsm_pattern::QueryGraph;

/// The recompute-from-scratch engine.
pub struct RecomputeEngine {
    cfg: EngineConfig,
    device: Device,
}

impl RecomputeEngine {
    pub fn new(cfg: EngineConfig) -> Self {
        let device = Device::new(cfg.gpu);
        Self { cfg, device }
    }

    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl Engine for RecomputeEngine {
    fn name(&self) -> &'static str {
        "Recompute"
    }

    fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    fn match_sealed(
        &mut self,
        graph: &DynamicGraph,
        _batch: &[EdgeUpdate],
        query: &QueryGraph,
    ) -> BatchResult {
        let overall = self.device.snapshot();
        let mut m = Measurer::begin(&self.device, &self.cfg);
        let opts = self.cfg.driver_options();
        let _span = gcsm_obs::span("matching", gcsm_obs::cat::ENGINE);
        // Snapshot materialization is CPU streaming work over the graph.
        let before = graph.old_to_csr();
        let after = graph.to_csr();
        let snapshot_bytes = before.adjacency_bytes() + after.adjacency_bytes();

        let b = {
            let src = CsrSource::new(&before);
            match_static(&src, query, &before.edges().collect::<Vec<_>>(), &opts)
        };
        let a = {
            let src = CsrSource::new(&after);
            match_static(&src, query, &after.edges().collect::<Vec<_>>(), &opts)
        };
        let mut stats = a;
        let b_matches = b.matches;
        stats.intersect_ops += b.intersect_ops;
        stats.list_accesses += b.list_accesses;
        stats.matches -= b_matches;
        self.device.cpu_ops(stats.intersect_ops);

        let mut phases = PhaseBreakdown { matching: m.lap(), ..Default::default() };
        phases.update += snapshot_bytes as f64 / self.cfg.gpu.cpu_mem_bandwidth;
        m.finish(self.name(), stats, phases, 0, 0, overall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::CpuWcojEngine;
    use gcsm_graph::CsrGraph;
    use gcsm_pattern::queries;

    #[test]
    fn recompute_agrees_with_incremental_and_costs_more() {
        let g0 = CsrGraph::from_edges(
            12,
            &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)],
        );
        let batch = vec![EdgeUpdate::insert(3, 5), EdgeUpdate::delete(0, 1)];

        let mut g1 = DynamicGraph::from_csr(&g0);
        let s1 = g1.apply_batch(&batch);
        let mut rec = RecomputeEngine::new(EngineConfig::default());
        let rr = rec.match_sealed(&g1, &s1.applied, &queries::triangle());

        let mut g2 = DynamicGraph::from_csr(&g0);
        let s2 = g2.apply_batch(&batch);
        let mut inc = CpuWcojEngine::new(EngineConfig::default());
        let ri = inc.match_sealed(&g2, &s2.applied, &queries::triangle());

        assert_eq!(rr.matches, ri.matches);
        // Recompute scans both full snapshots; the incremental engine only
        // the batch neighborhoods.
        assert!(
            rr.stats.intersect_ops > ri.stats.intersect_ops,
            "recompute {} ops vs incremental {}",
            rr.stats.intersect_ops,
            ri.stats.intersect_ops
        );
    }
}
