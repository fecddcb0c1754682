//! CPU — the paper's own CPU baseline.
//!
//! "We implement a CPU system based on the nested loops in Fig. 2, which
//! always starts the matching process from the updated edges. … our CPU
//! code uses the same stack-based implementation and the same matching
//! order as our GPU code", parallelized over the updated edges (32
//! threads). No PCIe traffic; everything is CPU compute, charged at the
//! CPU element-op cost.

use super::{Engine, Measurer};
use crate::config::EngineConfig;
use crate::result::{BatchResult, PhaseBreakdown};
use gcsm_gpusim::Device;
use gcsm_graph::{DynamicGraph, EdgeUpdate};
use gcsm_matcher::{match_incremental, DynSource};
use gcsm_pattern::QueryGraph;

/// The CPU WCOJ engine.
pub struct CpuWcojEngine {
    cfg: EngineConfig,
    device: Device,
}

impl CpuWcojEngine {
    pub fn new(cfg: EngineConfig) -> Self {
        let device = Device::new(cfg.gpu);
        Self { cfg, device }
    }

    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl Engine for CpuWcojEngine {
    fn name(&self) -> &'static str {
        "CPU"
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
        let src = DynSource::new(graph);
        let opts = self.cfg.driver_options();
        let stats = {
            let _span = gcsm_obs::span("matching", gcsm_obs::cat::ENGINE);
            match_incremental(&src, query, batch, &opts)
        };
        self.device.cpu_ops(stats.intersect_ops);
        let phases = PhaseBreakdown { matching: m.lap(), ..Default::default() };
        m.finish(self.name(), stats, phases, 0, 0, overall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::ZeroCopyEngine;
    use gcsm_graph::CsrGraph;
    use gcsm_pattern::queries;

    #[test]
    fn cpu_agrees_with_gpu_and_is_slower_per_op() {
        let g0 = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]);
        let batch = vec![EdgeUpdate::insert(2, 4), EdgeUpdate::insert(3, 5)];

        let mut g1 = DynamicGraph::from_csr(&g0);
        let s1 = g1.apply_batch(&batch);
        let mut cpu = CpuWcojEngine::new(EngineConfig::default());
        let rc = cpu.match_sealed(&g1, &s1.applied, &queries::triangle());

        let mut g2 = DynamicGraph::from_csr(&g0);
        let s2 = g2.apply_batch(&batch);
        let mut zp = ZeroCopyEngine::new(EngineConfig::default());
        let rz = zp.match_sealed(&g2, &s2.applied, &queries::triangle());

        assert_eq!(rc.matches, rz.matches);
        assert_eq!(rc.traffic.zerocopy_bytes, 0, "CPU engine never touches PCIe");
        assert_eq!(rc.traffic.cpu_ops, rc.stats.intersect_ops);
        assert!(rc.sim.cpu_compute > 0.0);
    }
}
