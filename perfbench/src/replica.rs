//! The traced run's view of the program: the GCSM engine and the batch
//! lifecycle, driven through the same public functions the program uses,
//! in the engine's default order, with a span around each call.
//!
//! [`TracedGcsm`] implements the public `Engine` trait, so the lifecycle
//! calls it exactly as `Pipeline`/`MultiPipeline` call `GcsmEngine`. The
//! traced run is only accepted when every batch's [`Fingerprint`] equals
//! the untraced run's, so a drift between this file and the program (or a
//! removed function, which stops this file compiling) fails loudly.

use crate::trace::{span, timed};
use gcsm::kernel::run_gpu_kernel_with_plans;
use gcsm::sources::CachedSource;
use gcsm::{BatchResult, Engine, EngineConfig, PhaseBreakdown};
use gcsm_cache::Dcsr;
use gcsm_freq::{estimate_merged, recommended_walks, select_top_frequency, WalkParams};
use gcsm_gpusim::{Device, SimBreakdown, TrafficSnapshot};
use gcsm_graph::{DynamicGraph, EdgeUpdate, VertexId};
use gcsm_matcher::DynSource;
use gcsm_pattern::{compile_incremental, QueryGraph};

/// Everything about one engine invocation that must repeat exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub matches: i64,
    pub walk_ops: u64,
    pub intersect_ops: u64,
    pub list_accesses: u64,
    pub traffic: TrafficSnapshot,
    /// Bit patterns of the five simulated phases.
    pub phases: [u64; 5],
}

impl Fingerprint {
    pub fn of(r: &BatchResult, walk_ops: u64) -> Self {
        let p = &r.phases;
        Self {
            matches: r.matches,
            walk_ops,
            intersect_ops: r.stats.intersect_ops,
            list_accesses: r.stats.list_accesses,
            traffic: r.traffic,
            phases: [p.update, p.freq_est, p.data_copy, p.matching, p.reorganize].map(f64::to_bits),
        }
    }

    /// The first field that differs from `other`, by name.
    pub fn first_difference(&self, other: &Self) -> Option<&'static str> {
        let pairs: [(&str, bool); 6] = [
            ("matches", self.matches == other.matches),
            ("walk_ops", self.walk_ops == other.walk_ops),
            ("intersect_ops", self.intersect_ops == other.intersect_ops),
            ("list_accesses", self.list_accesses == other.list_accesses),
            ("traffic", self.traffic == other.traffic),
            ("sim_phases", self.phases == other.phases),
        ];
        pairs.into_iter().find(|(_, same)| !same).map(|(name, _)| name)
    }
}

/// Per-invocation counts the traced engine keeps beyond `BatchResult`.
#[derive(Clone, Debug, Default)]
pub struct EngineExtras {
    pub walks: u64,
    pub walk_ops: u64,
    pub rows: usize,
    pub dma_bytes: usize,
    pub imbalance: f64,
    /// DMA bytes of rows that were also cached by the previous batch and
    /// whose lists this batch did not touch: what cross-batch residency
    /// could have skipped.
    pub reusable_bytes: usize,
}

/// GCSM's default per-batch path (frequency estimate, DCSR pack + DMA,
/// cached kernel), one span per public call.
pub struct TracedGcsm {
    cfg: EngineConfig,
    device: Device,
    prev_rows: Vec<VertexId>,
    pub last: EngineExtras,
}

impl TracedGcsm {
    pub fn new(cfg: EngineConfig) -> Self {
        let d = EngineConfig::default();
        assert!(
            cfg.walks_override.is_none()
                && !cfg.adaptive_walks
                && !cfg.delta_cache
                && !cfg.optimized_order
                && cfg.parallel_kernel == d.parallel_kernel,
            "the traced engine replicates only the default GcsmEngine path"
        );
        let device = Device::new(cfg.gpu);
        Self { cfg, device, prev_rows: Vec::new(), last: EngineExtras::default() }
    }

    fn lap(&self, start: &mut TrafficSnapshot) -> f64 {
        let _g = span("gpusim.model");
        let now = self.device.snapshot();
        let interval = now - *start;
        *start = now;
        SimBreakdown::from_traffic(&interval, &self.cfg.gpu).total()
    }
}

impl Engine for TracedGcsm {
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
        let wall = std::time::Instant::now();
        let overall = self.device.snapshot();
        let mut lap_start = overall;
        let mut phases = PhaseBreakdown::default();

        let plans = timed("pattern.compile", || compile_incremental(query, self.cfg.plan));
        let d = graph.max_degree_bound();
        let (walks, est) = timed("freq.estimate", || {
            let walks = recommended_walks(query.num_vertices(), batch.len(), d);
            let src = DynSource::new(graph);
            let params = WalkParams { walks, seed: self.cfg.walk_seed };
            (walks, estimate_merged(&src, &plans, batch, d, &params))
        });
        phases.freq_est += est.walk_ops as f64 * self.cfg.gpu.walk_op_cost;

        let budget = self.cfg.gpu.cache_budget();
        let selection =
            timed("freq.select", || select_top_frequency(&est, budget, |v| graph.list_bytes(v)));
        let dcsr = timed("cache.pack", || Dcsr::pack(graph, &selection.vertices));
        let shipped = dcsr.bytes();
        timed("cache.dma", || self.device.dma(shipped));
        phases.data_copy =
            self.lap(&mut lap_start) + shipped as f64 / self.cfg.gpu.cpu_mem_bandwidth;

        let run = {
            let src = CachedSource { graph, device: &self.device, dcsr: &dcsr };
            timed("matcher.kernel", || {
                run_gpu_kernel_with_plans(&self.device, &src, &plans, batch, &self.cfg)
            })
        };
        phases.matching = self.lap(&mut lap_start) * run.imbalance;

        let (traffic, sim) = timed("gpusim.model", || {
            let traffic = self.device.snapshot() - overall;
            (traffic, SimBreakdown::from_traffic(&traffic, &self.cfg.gpu))
        });
        let reusable_bytes = timed("trace.reuse", || {
            let updated = gcsm_cache::updated_set(batch);
            dcsr.rowidx
                .iter()
                .filter(|v| {
                    self.prev_rows.binary_search(v).is_ok() && updated.binary_search(v).is_err()
                })
                .map(|&v| graph.list_bytes(v))
                .sum()
        });
        self.last = EngineExtras {
            walks,
            walk_ops: est.walk_ops,
            rows: dcsr.len(),
            dma_bytes: shipped,
            imbalance: run.imbalance,
            reusable_bytes,
        };
        self.prev_rows = dcsr.rowidx.clone();
        let stats = run.stats;
        BatchResult {
            engine: self.name().to_string(),
            matches: stats.matches,
            phases,
            cpu_access_bytes: traffic.cpu_access_bytes(self.cfg.gpu.um_page),
            cache_hit_rate: traffic.cache_hit_rate(),
            traffic,
            sim,
            wall_seconds: wall.elapsed().as_secs_f64(),
            cached_bytes: dcsr.bytes(),
            stats,
            aux_bytes: 0,
            stream: None,
        }
    }
}

/// Graph-side counts of one traced batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphExtras {
    pub updated_vertices: usize,
    pub reorg_bytes: usize,
}

/// One batch of the lifecycle `Pipeline` (one query) and `MultiPipeline`
/// (several queries) run without overlap: ingest, seal, every engine on the
/// sealed graph, reorganize. The shared update and reorganize phases are
/// charged to the first query, as `Pipeline` and `MultiPipeline` do.
pub fn traced_batch(
    graph: &mut DynamicGraph,
    engines: &mut [(QueryGraph, TracedGcsm)],
    updates: &[EdgeUpdate],
) -> (Vec<BatchResult>, GraphExtras) {
    let _batch = span("pipeline.batch");
    let cpu_bw = engines.first().map_or(25.0e9, |(_, e)| e.config().gpu.cpu_mem_bandwidth);
    timed("graph.ingest", || {
        graph.begin_batch();
        for &u in updates {
            graph.apply(u);
        }
    });
    let summary = timed("graph.seal", || graph.seal_batch());
    let touched_bytes: usize = graph.updated_vertices().iter().map(|&v| graph.list_bytes(v)).sum();
    let update_sim = touched_bytes as f64 / cpu_bw;
    // No reorganization is ever carried over (overlap is off), so the
    // exposed remainder both pipelines charge is this expression's 0.0.
    let exposed_sim = (0.0 - update_sim).max(0.0);

    let mut results = Vec::with_capacity(engines.len());
    for (query, engine) in engines.iter_mut() {
        let engine: &mut dyn Engine = engine;
        let mut r = timed("engine.match", || engine.match_sealed(graph, &summary.applied, query));
        if results.is_empty() {
            r.phases.update += update_sim;
        }
        results.push(r);
    }

    let updated_vertices = graph.updated_vertices().len();
    let reorg_bytes: usize = graph.updated_vertices().iter().map(|&v| graph.list_bytes(v)).sum();
    let reorg_sim = 2.0 * reorg_bytes as f64 / cpu_bw;
    timed("graph.reorganize", || graph.reorganize());
    if let Some(first) = results.first_mut() {
        first.phases.reorganize += exposed_sim + reorg_sim;
    }
    for r in &results {
        gcsm::record_batch_metrics(r);
    }
    (results, GraphExtras { updated_vertices, reorg_bytes })
}
