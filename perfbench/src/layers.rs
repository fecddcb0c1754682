//! Per-layer metrics folded from the traced run.

use crate::replica::{EngineExtras, GraphExtras};
use crate::report::{Clock, Outcome};
use crate::trace::{Profile, Span};
use gcsm::BatchResult;

/// The program's layers, as span-name prefixes. `engine.match` (the body
/// of `Engine::match_sealed` outside its calls) and `trace.*` (the
/// benchmark's own bookkeeping) belong to none and form the unexplained
/// remainder.
pub const LAYERS: [&str; 8] =
    ["graph", "pattern", "freq", "cache", "matcher", "gpusim", "stream", "pipeline"];

/// Stream-layer figures observed from outside the session.
#[derive(Clone, Debug, Default)]
pub struct StreamLayer {
    pub queue_depth_max: f64,
    pub window_open_ms: f64,
    pub worker_busy_ratio: f64,
    pub generator_late_ms_max: f64,
    pub queue_wait_ms: f64,
}

#[derive(Default)]
pub struct Acc {
    pub profile: Profile,
    batches: u64,
    intersect_ops: u64,
    list_accesses: u64,
    imbalance: Vec<f64>,
    walks: u64,
    walk_ops: u64,
    rows: u64,
    dma_bytes: u64,
    reusable_bytes: u64,
    hits: u64,
    lookups: u64,
    updated_vertices: u64,
    reorg_bytes: u64,
    zerocopy_bytes: u64,
    zerocopy_transactions: u64,
    device_bytes: u64,
    sim_s: [f64; 5],
}

impl Acc {
    /// Fold one traced batch: its spans, its per-query results and counts.
    pub fn batch(
        &mut self,
        spans: &[Span],
        results: &[BatchResult],
        extras: &[EngineExtras],
        graph: GraphExtras,
    ) {
        let batch = spans.first().map(|s| s.batch);
        assert!(spans.iter().all(|s| Some(s.batch) == batch), "spans of one batch carry its id");
        self.profile.fold(spans);
        self.batches += 1;
        for r in results {
            self.intersect_ops += r.stats.intersect_ops;
            self.list_accesses += r.stats.list_accesses;
            self.hits += r.traffic.cache_hits;
            self.lookups += r.traffic.cache_hits + r.traffic.cache_misses;
            self.zerocopy_bytes += r.traffic.zerocopy_bytes;
            self.zerocopy_transactions += r.traffic.zerocopy_transactions;
            self.device_bytes += r.traffic.device_bytes;
            let p = &r.phases;
            for (acc, v) in self.sim_s.iter_mut().zip([
                p.update,
                p.freq_est,
                p.data_copy,
                p.matching,
                p.reorganize,
            ]) {
                *acc += v;
            }
        }
        for e in extras {
            self.imbalance.push(e.imbalance);
            self.walks += e.walks;
            self.walk_ops += e.walk_ops;
            self.rows += e.rows as u64;
            self.dma_bytes += e.dma_bytes as u64;
            self.reusable_bytes += e.reusable_bytes as u64;
        }
        self.updated_vertices += graph.updated_vertices as u64;
        self.reorg_bytes += graph.reorg_bytes as u64;
    }

    /// Emit every per-layer metric. `untraced_batch_s` is the untraced
    /// run's summed batch wall over the same batches.
    pub fn report(&self, out: &mut Outcome, untraced_batch_s: f64, stream: &StreamLayer) {
        let p = &self.profile;
        let n = self.batches.max(1) as f64;
        let per_batch = |name: &str| p.self_ms(name) / n;
        let count = |v: u64| v as f64;
        let batch_ms = p.total_ms("pipeline.batch");
        let engine_ms = p.total_ms("engine.match");

        out.push("matcher.kernel_ms", per_batch("matcher.kernel"), "ms", Clock::Wall);
        out.push("matcher.intersect_ops", count(self.intersect_ops), "count", Clock::None);
        out.push("matcher.list_accesses", count(self.list_accesses), "count", Clock::None);
        out.push("matcher.imbalance", crate::report::mean(&self.imbalance), "ratio", Clock::None);
        out.push("freq.estimate_ms", per_batch("freq.estimate"), "ms", Clock::Wall);
        out.push("freq.select_ms", per_batch("freq.select"), "ms", Clock::Wall);
        out.push("freq.walks", count(self.walks), "count", Clock::None);
        out.push("freq.walk_ops", count(self.walk_ops), "count", Clock::None);
        out.push("cache.pack_ms", per_batch("cache.pack"), "ms", Clock::Wall);
        out.push("cache.rows", count(self.rows), "count", Clock::None);
        out.push("cache.dma_bytes", count(self.dma_bytes), "B", Clock::None);
        out.push("cache.hit_rate", ratio(self.hits, self.lookups), "ratio", Clock::None);
        out.push(
            "cache.reusable_dma_ratio",
            ratio(self.reusable_bytes, self.dma_bytes),
            "ratio",
            Clock::None,
        );
        out.push("graph.ingest_ms", per_batch("graph.ingest"), "ms", Clock::Wall);
        out.push("graph.seal_ms", per_batch("graph.seal"), "ms", Clock::Wall);
        out.push("graph.reorganize_ms", per_batch("graph.reorganize"), "ms", Clock::Wall);
        out.push("graph.updated_vertices", count(self.updated_vertices), "count", Clock::None);
        out.push("graph.reorg_bytes", count(self.reorg_bytes), "B", Clock::None);
        out.push("pattern.compile_ms", per_batch("pattern.compile"), "ms", Clock::Wall);
        for (name, s) in
            ["update", "freq_est", "data_copy", "matching", "reorganize"].iter().zip(self.sim_s)
        {
            out.push(&format!("sim.{name}_ms"), s * 1e3 / n, "ms", Clock::Sim);
        }
        out.push("gpusim.zerocopy_bytes", count(self.zerocopy_bytes), "B", Clock::None);
        out.push(
            "gpusim.zerocopy_transactions",
            count(self.zerocopy_transactions),
            "count",
            Clock::None,
        );
        out.push("gpusim.device_bytes", count(self.device_bytes), "B", Clock::None);
        out.push("stream.queue_depth.max", stream.queue_depth_max, "count", Clock::None);
        out.push("stream.window_open_ms", stream.window_open_ms, "ms", Clock::Wall);
        out.push("stream.worker_busy_ratio", stream.worker_busy_ratio, "ratio", Clock::Wall);
        out.push("stream.generator_late_ms.max", stream.generator_late_ms_max, "ms", Clock::Wall);
        out.push("stream.queue_wait_ms", stream.queue_wait_ms, "ms", Clock::Wall);
        out.push("pipeline.host_ms", (batch_ms - engine_ms) / n, "ms", Clock::Wall);
        out.push("engine.match_ms", engine_ms / n, "ms", Clock::Wall);
        out.push("trace.overhead_ratio", batch_ms / (untraced_batch_s * 1e3), "ratio", Clock::Wall);

        // Shares of the traced self time. Σ layer self + unexplained covers
        // every traced span, so the shares and the remainder add up to 1.
        let total = p.all_self_ms();
        let layer_ms: Vec<f64> = LAYERS.iter().map(|l| p.layer_self_ms(l)).collect();
        let unexplained = total - layer_ms.iter().sum::<f64>();
        for (layer, ms) in LAYERS.iter().zip(&layer_ms) {
            out.note(
                &format!("share.{layer}"),
                format!("{:.4}", ms / total.max(f64::MIN_POSITIVE)),
            );
        }
        out.push("trace.unexplained_ms", unexplained / n, "ms", Clock::Wall);
        let largest = LAYERS.iter().zip(&layer_ms).max_by(|a, b| a.1.total_cmp(b.1));
        if let Some((layer, _)) = largest {
            out.note("largest_self_time", layer);
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
