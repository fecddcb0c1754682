//! The evaluated systems.
//!
//! | Engine | Paper role | Data policy |
//! |---|---|---|
//! | [`GcsmEngine`] | the contribution | random-walk-selected DCSR cache, zero-copy fallback |
//! | [`ZeroCopyEngine`] | naive GPU (ZP) | everything zero-copy from CPU |
//! | [`UnifiedMemEngine`] | naive GPU (UM) | everything through unified memory |
//! | [`VsgmEngine`] | prior work \[20\] | copy all k-hop lists, then device-only |
//! | [`NaiveDegreeEngine`] | naive cache | GCSM's cache with degree ranking |
//! | [`CpuWcojEngine`] | CPU baseline | host memory, 32-thread WCOJ |
//! | [`RapidFlowEngine`] | prior work \[15\] | host memory + candidate index |
//!
//! All engines produce identical `ΔM` on identical sealed batches (enforced
//! by the integration suite); they differ only in traffic and therefore in
//! simulated time.

mod cpu;
mod gcsm_engine;
mod naive;
mod rapidflow;
mod recompute;
mod unified;
mod vsgm;
mod zerocopy;

pub use cpu::CpuWcojEngine;
pub use gcsm_engine::GcsmEngine;
pub use naive::NaiveDegreeEngine;
pub use rapidflow::RapidFlowEngine;
pub use recompute::RecomputeEngine;
pub use unified::UnifiedMemEngine;
pub use vsgm::VsgmEngine;
pub use zerocopy::ZeroCopyEngine;

use crate::config::EngineConfig;
use crate::result::BatchResult;
use gcsm_cache::{Dcsr, DeltaPlan, DeltaPlanner};
use gcsm_gpusim::Device;
use gcsm_graph::{DynamicGraph, EdgeUpdate, VertexId};
use gcsm_pattern::QueryGraph;

/// A continuous-subgraph-matching system under evaluation.
///
/// The pipeline owns the dynamic graph and the batch lifecycle; engines see
/// the *sealed* graph (old and new views live) plus the applied updates and
/// return the measured [`BatchResult`]. Reorganisation happens after the
/// engine returns, matching the paper's ordering ("the graph reorganization
/// on CPU is conducted after the matching is completed on the GPU").
///
/// `Send` so sessions (`crate::stream`) can move engines onto the worker
/// thread; engines hold only plain data and seeded RNG state.
pub trait Engine: Send {
    /// Display name used in figures ("GCSM", "ZP", ...).
    fn name(&self) -> &'static str;

    /// The engine's configuration (the pipeline uses its cost constants).
    fn config(&self) -> &EngineConfig;

    /// Match one sealed batch.
    fn match_sealed(
        &mut self,
        graph: &DynamicGraph,
        batch: &[EdgeUpdate],
        query: &QueryGraph,
    ) -> BatchResult;
}

/// Shared scaffolding: snapshot bracketing and result assembly.
pub(crate) struct Measurer<'a> {
    device: &'a Device,
    cfg: &'a EngineConfig,
    start: gcsm_gpusim::TrafficSnapshot,
    wall_start: gcsm_obs::Stopwatch,
}

impl<'a> Measurer<'a> {
    pub(crate) fn begin(device: &'a Device, cfg: &'a EngineConfig) -> Self {
        Self { device, cfg, start: device.snapshot(), wall_start: gcsm_obs::Stopwatch::start() }
    }

    /// Simulated seconds of the traffic accumulated since the last call
    /// (also re-arms the snapshot).
    pub(crate) fn lap(&mut self) -> f64 {
        let now = self.device.snapshot();
        let interval = now - self.start;
        self.start = now;
        gcsm_gpusim::SimBreakdown::from_traffic(&interval, &self.cfg.gpu).total()
    }

    /// Assemble the result from the overall interval.
    pub(crate) fn finish(
        self,
        name: &str,
        stats: gcsm_matcher::MatchStats,
        phases: crate::result::PhaseBreakdown,
        cached_bytes: usize,
        aux_bytes: usize,
        overall_start: gcsm_gpusim::TrafficSnapshot,
    ) -> BatchResult {
        let traffic = self.device.snapshot() - overall_start;
        let sim = gcsm_gpusim::SimBreakdown::from_traffic(&traffic, &self.cfg.gpu);
        BatchResult {
            engine: name.to_string(),
            matches: stats.matches,
            phases,
            cpu_access_bytes: traffic.cpu_access_bytes(self.cfg.gpu.um_page),
            cache_hit_rate: traffic.cache_hit_rate(),
            traffic,
            sim,
            wall_seconds: self.wall_start.elapsed_seconds(),
            cached_bytes,
            stats,
            aux_bytes,
            stream: None,
        }
    }
}

/// Step 3's transfer for the cached engines: ship `selection`'s lists to
/// the device cache and return it with the bytes shipped.
///
/// With `cfg.delta_cache` the cache is a persistent device resident — diff
/// against it and ship only new or changed rows (plus the always-refreshed
/// index arrays), evicting under the device budget; the transfer plan is
/// returned too. The updated set is the seal-time snapshot derived from the
/// batch itself, never the live graph (which an overlapped reorganize may
/// already have cleaned). Otherwise the whole selection is packed and sent
/// in one DMA.
pub(crate) fn ship_cache(
    device: &Device,
    planner: &mut DeltaPlanner,
    cfg: &EngineConfig,
    graph: &DynamicGraph,
    batch: &[EdgeUpdate],
    selection: &[VertexId],
) -> (Dcsr, usize, Option<DeltaPlan>) {
    if !cfg.delta_cache {
        let dcsr = Dcsr::pack(graph, selection);
        let bytes = dcsr.bytes();
        device.dma(bytes);
        return (dcsr, bytes, None);
    }
    let mut span = gcsm_obs::span("cache_delta", gcsm_obs::cat::ENGINE);
    let updated = gcsm_cache::updated_set(batch);
    let (dcsr, plan) = planner.update_bounded(graph, selection, &updated, cfg.gpu.cache_budget());
    let meta = dcsr.bytes() - dcsr.colidx.len() * std::mem::size_of::<u32>();
    let shipped = plan.transfer_bytes(graph) + meta;
    // What a full repack of the (pre-eviction) selection would ship.
    let full = selection.iter().map(|&v| graph.list_bytes(v)).sum::<usize>()
        + selection.len() * Dcsr::ROW_META_BYTES
        + std::mem::size_of::<(i64, i64)>();
    span.set_count(plan.keep.len() as u64);
    device.dma_delta(shipped, full.saturating_sub(shipped));
    (dcsr, shipped, Some(plan))
}
