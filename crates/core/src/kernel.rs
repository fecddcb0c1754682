//! The shared "GPU kernel": incremental matching over a batch, executed on
//! the simulated grid.
//!
//! Every GPU engine (GCSM, ZP, UM, VSGM, Naive) runs this exact function —
//! the STMatch-adapted kernel of Sec. V-C — against a different
//! [`gcsm_matcher::NeighborSource`]. The seeds run on the matcher driver
//! ([`match_delta_plans`]), the same enumerator and loop as the CPU
//! baseline; each seed task (plan × batch edge × orientation) stands for a
//! thread block, and rayon's work stealing stands in for STMatch's
//! inter-block stealing. Compute is charged to the device as `gpu_ops`.

use crate::config::EngineConfig;
use gcsm_gpusim::Device;
use gcsm_graph::EdgeUpdate;
use gcsm_matcher::{match_delta_plans, MatchStats, NeighborSource};
use gcsm_pattern::{compile_incremental, MatchPlan, QueryGraph};

/// Outcome of one kernel launch: aggregate stats plus the grid's
/// load-imbalance factor (`makespan / ideal` over the configured blocks and
/// scheduling policy — see [`gcsm_gpusim::schedule`]).
pub struct KernelRun {
    pub stats: MatchStats,
    pub imbalance: f64,
}

/// Run the incremental matching kernel. The intersect work is charged to
/// `device` as GPU compute and one kernel launch is recorded; the returned
/// imbalance factor tells the engine how much to stretch the kernel's time
/// for the scheduling policy in effect.
pub fn run_gpu_kernel<S: NeighborSource>(
    device: &Device,
    src: &S,
    q: &QueryGraph,
    batch: &[EdgeUpdate],
    cfg: &EngineConfig,
) -> KernelRun {
    let plans = compile_incremental(q, cfg.plan);
    run_gpu_kernel_with_plans(device, src, &plans, batch, cfg)
}

/// Like [`run_gpu_kernel`], but with caller-supplied delta plans (used by
/// the optimized-ordering mode, which compiles cardinality-scored plans).
pub fn run_gpu_kernel_with_plans<S: NeighborSource>(
    device: &Device,
    src: &S,
    plans: &[MatchPlan],
    batch: &[EdgeUpdate],
    cfg: &EngineConfig,
) -> KernelRun {
    device.traffic().add_kernel_launches(1);
    let per_seed = match_delta_plans(src, plans, batch, &cfg.driver_options());
    let mut merge_span = gcsm_obs::span("merge", gcsm_obs::cat::MATCHER);
    merge_span.set_count(per_seed.len() as u64);
    // Per-task cost (intersect ops + list accesses as a proxy for the
    // task's memory time) for the load-balance model.
    let costs: Vec<u64> = per_seed.iter().map(|s| s.intersect_ops + s.list_accesses).collect();
    let imbalance = gcsm_gpusim::imbalance_factor(&costs, cfg.gpu.num_blocks, cfg.scheduling);
    let stats: MatchStats = per_seed.into_iter().sum();
    drop(merge_span);
    device.gpu_ops(stats.intersect_ops);
    KernelRun { stats, imbalance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::ZeroCopySource;
    use gcsm_gpusim::GpuConfig;
    use gcsm_graph::{CsrGraph, DynamicGraph};
    use gcsm_pattern::queries;

    #[test]
    fn kernel_counts_and_charges() {
        let g0 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut g = DynamicGraph::from_csr(&g0);
        let batch = vec![EdgeUpdate::insert(1, 3)];
        let summary = g.apply_batch(&batch);
        let device = Device::new(GpuConfig::default());
        let src = ZeroCopySource { graph: &g, device: &device };
        let cfg = EngineConfig::default();
        let run = run_gpu_kernel(&device, &src, &queries::triangle(), &summary.applied, &cfg);
        assert_eq!(run.stats.matches, 6); // one new triangle (1,2,3) × |Aut|=6
        assert!(run.imbalance >= 1.0);
        let t = device.snapshot();
        assert_eq!(t.gpu_ops, run.stats.intersect_ops);
        assert_eq!(t.kernel_launches, 1);
        assert!(t.zerocopy_bytes > 0);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let g0 = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let mut g = DynamicGraph::from_csr(&g0);
        let batch = vec![EdgeUpdate::insert(2, 4), EdgeUpdate::delete(0, 1)];
        let summary = g.apply_batch(&batch);
        let dev_a = Device::new(GpuConfig::default());
        let dev_b = Device::new(GpuConfig::default());
        let q = queries::triangle();
        let sa = {
            let src = ZeroCopySource { graph: &g, device: &dev_a };
            run_gpu_kernel(&dev_a, &src, &q, &summary.applied, &EngineConfig::default())
        };
        let sb = {
            let src = ZeroCopySource { graph: &g, device: &dev_b };
            let cfg = EngineConfig { parallel_kernel: false, ..EngineConfig::default() };
            run_gpu_kernel(&dev_b, &src, &q, &summary.applied, &cfg)
        };
        assert_eq!(sa.stats.matches, sb.stats.matches);
        assert_eq!(sa.stats.intersect_ops, sb.stats.intersect_ops);
        assert!((sa.imbalance - sb.imbalance).abs() < 1e-9);
        assert_eq!(dev_a.snapshot().zerocopy_bytes, dev_b.snapshot().zerocopy_bytes);
    }
}
