//! Multi-query processing: register several patterns over one stream.
//!
//! Production CSM deployments monitor many patterns at once (the paper's
//! motivating scenarios — rumor shapes, laundering patterns — are query
//! *sets*). Re-running the whole pipeline per query would repeat the graph
//! update and reorganisation work; [`MultiPipeline`] shares steps 1 and 5
//! of Fig. 3 across all registered queries and invokes each query's engine
//! on the same sealed batch.
//!
//! The shared steps run in the same batch core as [`crate::Pipeline`], so
//! [`MultiPipeline::set_overlap`] detaches the shared Step-5 reorganisation
//! onto a worker thread while the next batch is ingested (charging only the
//! exposed remainder), and each engine's own `EngineConfig` — including
//! `delta_cache` — governs its matching invocation unchanged. Each query's
//! invocation is traced as a `query` span (`level` = registration index).

use crate::engines::Engine;
use crate::lifecycle::BatchCore;
use crate::result::BatchResult;
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
use gcsm_pattern::QueryGraph;

/// A registered query with its engine.
struct Registered {
    query: QueryGraph,
    engine: Box<dyn Engine>,
}

/// Pipeline over one dynamic graph and many (query, engine) pairs.
pub struct MultiPipeline {
    core: BatchCore,
    queries: Vec<Registered>,
}

/// Per-query outcome of one batch.
pub struct MultiBatchResult {
    /// Query name → result, in registration order.
    pub per_query: Vec<(String, BatchResult)>,
}

impl MultiBatchResult {
    /// Net `ΔM` summed over all queries (rarely meaningful; per-query
    /// results are the point).
    pub fn total_matches(&self) -> i64 {
        self.per_query.iter().map(|(_, r)| r.matches).sum()
    }

    /// Result for a named query.
    pub fn get(&self, name: &str) -> Option<&BatchResult> {
        self.per_query.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }
}

impl MultiPipeline {
    /// Pipeline over an initial snapshot.
    pub fn new(initial: CsrGraph) -> Self {
        Self { core: BatchCore::new(&initial), queries: Vec::new() }
    }

    /// Enable/disable overlapped reorganization for subsequent batches. An
    /// already in-flight reorganization (if any) still joins normally on
    /// the next batch or [`Self::flush`].
    pub fn set_overlap(&mut self, on: bool) {
        self.core.set_overlap(on);
    }

    /// Whether overlapped reorganization is enabled.
    pub fn overlap(&self) -> bool {
        self.core.overlap()
    }

    /// Join and install an in-flight overlapped reorganization, if any.
    /// Returns the modeled CPU seconds of the joined work that no later
    /// batch will hide (0.0 when nothing was pending).
    pub fn flush(&mut self) -> f64 {
        self.core.flush()
    }

    /// Register a query with its own engine. Returns `self` for chaining.
    pub fn register(mut self, query: QueryGraph, engine: Box<dyn Engine>) -> Self {
        self.queries.push(Registered { query, engine });
        self
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// The current graph.
    pub fn graph(&self) -> &DynamicGraph {
        self.core.graph()
    }

    /// Process one batch for every registered query: one update, one
    /// reorganisation, `k` matching invocations. The shared host phases
    /// and host wall are charged to the first query's result.
    pub fn process_batch(&mut self, updates: &[EdgeUpdate]) -> MultiBatchResult {
        let cpu_bw =
            self.queries.first().map(|r| r.engine.config().gpu.cpu_mem_bandwidth).unwrap_or(25.0e9);
        let queries = &mut self.queries;
        let (mut per_query, host) =
            self.core.run_batch(updates, cpu_bw, |graph, applied, batch| {
                let mut per_query = Vec::with_capacity(queries.len());
                for (idx, reg) in queries.iter_mut().enumerate() {
                    let mut q_span = gcsm_obs::span("query", gcsm_obs::cat::ENGINE);
                    q_span.set_batch(batch);
                    q_span.set_level(idx as u32);
                    let r = reg.engine.match_sealed(graph, applied, &reg.query);
                    per_query.push((reg.query.name().to_string(), r));
                }
                per_query
            });
        if let Some((_, first)) = per_query.first_mut() {
            host.charge(first);
        }
        for (_, r) in &per_query {
            crate::result::record_batch_metrics(r);
        }
        MultiBatchResult { per_query }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engines::{CpuWcojEngine, GcsmEngine, ZeroCopyEngine};
    use crate::pipeline::Pipeline;
    use gcsm_pattern::queries;

    fn setup() -> (CsrGraph, Vec<EdgeUpdate>) {
        let g0 = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]);
        let batch =
            vec![EdgeUpdate::insert(2, 4), EdgeUpdate::insert(3, 5), EdgeUpdate::delete(0, 1)];
        (g0, batch)
    }

    #[test]
    fn multi_matches_individual_pipelines() {
        let (g0, batch) = setup();
        let cfg = EngineConfig::default();
        let mut multi = MultiPipeline::new(g0.clone())
            .register(queries::triangle(), Box::new(GcsmEngine::new(cfg.clone())))
            .register(queries::fig1_kite(), Box::new(ZeroCopyEngine::new(cfg.clone())))
            .register(queries::q1(), Box::new(CpuWcojEngine::new(cfg.clone())));
        assert_eq!(multi.num_queries(), 3);
        let res = multi.process_batch(&batch);

        for q in [queries::triangle(), queries::fig1_kite(), queries::q1()] {
            let mut single = Pipeline::new(g0.clone(), q.clone());
            let mut e = ZeroCopyEngine::new(cfg.clone());
            let expect = single.process_batch(&mut e, &batch).matches;
            assert_eq!(
                res.get(q.name()).expect("registered").matches,
                expect,
                "{} diverges",
                q.name()
            );
        }
        assert!(multi.graph().updated_vertices().is_empty(), "reorganized once");
    }

    #[test]
    fn streaming_multiple_batches() {
        let (g0, batch) = setup();
        let cfg = EngineConfig::default();
        let mut multi = MultiPipeline::new(g0)
            .register(queries::triangle(), Box::new(GcsmEngine::new(cfg.clone())));
        let r1 = multi.process_batch(&batch);
        let r2 = multi.process_batch(&[EdgeUpdate::insert(0, 1)]);
        // Batch 2 restores triangle {0,1,2}.
        assert_eq!(r2.per_query[0].1.matches, 6);
        assert!(r1.total_matches() != 0 || r2.total_matches() != 0);
    }

    #[test]
    fn overlapped_multi_matches_serial() {
        let (g0, batch) = setup();
        let cfg = EngineConfig::default();
        let batches: Vec<Vec<EdgeUpdate>> = vec![
            batch,
            vec![EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 5)],
            vec![EdgeUpdate::delete(2, 4), EdgeUpdate::insert(0, 6)],
        ];
        let build = |overlap: bool| {
            let mut m = MultiPipeline::new(g0.clone())
                .register(queries::triangle(), Box::new(GcsmEngine::new(cfg.clone())))
                .register(queries::q1(), Box::new(ZeroCopyEngine::new(cfg.clone())));
            m.set_overlap(overlap);
            m
        };
        let mut serial = build(false);
        let mut overlapped = build(true);
        for b in &batches {
            let rs = serial.process_batch(b);
            let ro = overlapped.process_batch(b);
            for ((n1, r1), (n2, r2)) in rs.per_query.iter().zip(ro.per_query.iter()) {
                assert_eq!(n1, n2);
                assert_eq!(r1.matches, r2.matches, "{n1} diverged under overlap");
            }
        }
        overlapped.flush();
        assert!(overlapped.graph().updated_vertices().is_empty());
        let a = serial.graph().to_csr().edges().collect::<Vec<_>>();
        let b = overlapped.graph().to_csr().edges().collect::<Vec<_>>();
        assert_eq!(a, b, "final graphs must agree");
    }

    #[test]
    fn delta_cache_config_flows_through_registered_engines() {
        let (g0, batch) = setup();
        let cached = EngineConfig { delta_cache: true, ..Default::default() };
        let plain = EngineConfig::default();
        let mut with_cache = MultiPipeline::new(g0.clone())
            .register(queries::triangle(), Box::new(GcsmEngine::new(cached)));
        let mut without =
            MultiPipeline::new(g0).register(queries::triangle(), Box::new(GcsmEngine::new(plain)));
        let batches = [batch, vec![EdgeUpdate::insert(0, 4), EdgeUpdate::insert(1, 6)]];
        let mut dma_cached = 0u64;
        let mut dma_plain = 0u64;
        for b in &batches {
            let rc = with_cache.process_batch(b);
            let rp = without.process_batch(b);
            assert_eq!(
                rc.per_query[0].1.matches, rp.per_query[0].1.matches,
                "delta shipping must not change counts"
            );
            dma_cached += rc.per_query[0].1.traffic.dma_bytes;
            dma_plain += rp.per_query[0].1.traffic.dma_bytes;
        }
        // After warm-up, delta shipping can only reduce DMA volume.
        assert!(dma_cached <= dma_plain, "delta {dma_cached} vs full {dma_plain}");
    }

    /// An engine that matches nothing and spends no wall time of its own.
    struct Idle(EngineConfig);

    impl Engine for Idle {
        fn name(&self) -> &'static str {
            "idle"
        }

        fn config(&self) -> &EngineConfig {
            &self.0
        }

        fn match_sealed(
            &mut self,
            _: &DynamicGraph,
            _: &[EdgeUpdate],
            _: &QueryGraph,
        ) -> BatchResult {
            BatchResult::default()
        }
    }

    #[test]
    fn host_phases_and_wall_go_to_the_first_query_only() {
        let (g0, batch) = setup();
        let mut multi = MultiPipeline::new(g0)
            .register(queries::triangle(), Box::new(Idle(EngineConfig::default())))
            .register(queries::q1(), Box::new(Idle(EngineConfig::default())));
        let r = multi.process_batch(&batch);
        let (first, second) = (&r.per_query[0].1, &r.per_query[1].1);
        assert!(first.phases.update > 0.0);
        assert!(first.phases.reorganize > 0.0);
        assert!(first.wall_seconds > 0.0, "the host wall rides with the host phases");
        assert_eq!(second.phases.total(), 0.0);
        assert_eq!(second.wall_seconds, 0.0);
    }

    #[test]
    fn empty_registration_is_fine() {
        let (g0, batch) = setup();
        let mut multi = MultiPipeline::new(g0);
        let r = multi.process_batch(&batch);
        assert!(r.per_query.is_empty());
        assert_eq!(r.total_matches(), 0);
    }
}
