//! Multi-device sharded execution.
//!
//! [`ShardedPipeline`] generalizes [`crate::Pipeline`] to `N` simulated
//! devices. The host still owns the single ground-truth [`DynamicGraph`]
//! (steps 1 and 5 of Fig. 3 are CPU work and happen once — the paper's
//! zero-copy story puts the sealed lists in pinned host memory, which every
//! device can read). What is sharded is the *matching work*: the batch's
//! `ΔE` is routed by `gcsm-shard` so each update's delta seeds are
//! enumerated by exactly one shard — the owner of the update's canonical
//! lower endpoint — making the summed per-shard `ΔM` bit-identical to the
//! single-device pipeline (DESIGN.md §12).
//!
//! Cut updates (endpoint owners differ) are additionally mirrored to the
//! non-counting owner so its replicated boundary lists stay current; each
//! mirrored update is charged to that shard's peer link
//! ([`gcsm_shard::PEER_UPDATE_BYTES`] per update via
//! [`gcsm_gpusim::Device::peer_copy`]) and lands in the shard's `data_copy`
//! phase, so partition quality is visible in simulated time, not just in
//! counters.
//!
//! ## Merge semantics
//!
//! Counts (`ΔM`, matcher stats, traffic, bytes) are **sums** — the shards
//! partition the work. Engine phases (`freq_est`, `data_copy`, `matching`)
//! are **maxima** — the devices run concurrently, so the batch finishes
//! when the slowest shard does. Host phases (`update`, `reorganize`) are
//! charged once, exactly as in the single-device pipeline, by the same
//! batch core (`crate::lifecycle`) — so [`ShardedPipeline::set_overlap`]
//! overlaps the shared reorganize with the next batch's ingest here too.

use crate::config::EngineConfig;
use crate::engines::Engine;
use crate::lifecycle::BatchCore;
use crate::result::BatchResult;
use gcsm_gpusim::{Device, SimBreakdown};
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
use gcsm_pattern::QueryGraph;
use gcsm_shard::{route, PartitionPolicy, Partitioning};
use rayon::prelude::*;

/// One shard: an engine bound to its device's peer link.
struct Shard {
    engine: Box<dyn Engine>,
    /// Models the inter-device link; replica mirrors are charged here.
    link: Device,
}

/// Outcome of one batch across all shards.
#[derive(Clone, Debug)]
pub struct ShardedBatchResult {
    /// The merged, single-device-equivalent record (see module docs for
    /// sum-vs-max semantics). `merged.matches` is the exact `ΔM`.
    pub merged: BatchResult,
    /// Each shard's own measurement, in shard order.
    pub per_shard: Vec<BatchResult>,
    /// Bytes mirrored over peer links for cut updates this batch.
    pub peer_bytes: u64,
    /// Updates whose endpoints live on different shards.
    pub cut_updates: usize,
    /// Achieved parallel engine time: the slowest shard's engine phases.
    pub makespan_seconds: f64,
    /// Achieved imbalance, `makespan / mean` of the shards' engine seconds
    /// (≥ 1; exactly 1 for one shard, a perfectly balanced batch, or a
    /// batch with no engine work).
    pub imbalance: f64,
}

/// Derive a per-shard engine config from a total budget: each device gets
/// `1/N` of the cache budget (and proportionally scaled capacity), keeping
/// every link/compute constant of the base config.
pub fn shard_config(base: &EngineConfig, num_shards: usize) -> EngineConfig {
    let n = num_shards.max(1);
    let mut gpu = base.gpu;
    gpu.um_cache_bytes /= n;
    gpu.device_capacity /= n;
    gpu.kernel_reserved /= n;
    EngineConfig { gpu, ..base.clone() }
}

/// Drives `N` engines, one per shard, over a stream of batches.
pub struct ShardedPipeline {
    core: BatchCore,
    query: QueryGraph,
    part: Partitioning,
    shards: Vec<Shard>,
}

impl ShardedPipeline {
    /// Pipeline over an initial snapshot, partitioned under `policy` into
    /// one shard per engine. Panics if `engines` is empty.
    pub fn new(
        initial: CsrGraph,
        query: QueryGraph,
        policy: PartitionPolicy,
        engines: Vec<Box<dyn Engine>>,
    ) -> Self {
        assert!(!engines.is_empty(), "sharded pipeline needs at least one engine");
        let part = Partitioning::compute(&initial, policy, engines.len());
        let shards = engines
            .into_iter()
            .map(|engine| {
                let link = Device::new(engine.config().gpu);
                Shard { engine, link }
            })
            .collect();
        Self { core: BatchCore::new(&initial), query, part, shards }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The vertex partitioning in effect.
    pub fn partitioning(&self) -> &Partitioning {
        &self.part
    }

    /// Enable/disable overlapped reorganization for subsequent batches. An
    /// already in-flight reorganization (if any) still joins normally on
    /// the next batch or [`Self::flush`].
    pub fn set_overlap(&mut self, on: bool) {
        self.core.set_overlap(on);
    }

    /// Join and install an in-flight overlapped reorganization, if any.
    /// Returns the modeled CPU seconds of the joined work that no later
    /// batch will hide (0.0 when nothing was pending).
    pub fn flush(&mut self) -> f64 {
        self.core.flush()
    }

    /// The current graph state.
    pub fn graph(&self) -> &DynamicGraph {
        self.core.graph()
    }

    /// The query.
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// Count the query's matches on the *current* graph from scratch (same
    /// ground truth as [`crate::Pipeline::static_count`]).
    pub fn static_count(&self, symmetry_break: bool) -> i64 {
        self.core.static_count(&self.query, symmetry_break)
    }

    /// Process one batch end to end across all shards. The merged result
    /// carries the host phases; its wall is the host wall plus the wall of
    /// the routed, parallel match step.
    pub fn process_batch(&mut self, updates: &[EdgeUpdate]) -> ShardedBatchResult {
        let cpu_bw = self.shards[0].engine.config().gpu.cpu_mem_bandwidth;
        let (part, query, shards) = (&self.part, &self.query, &mut self.shards);
        let (mut out, host) = self.core.run_batch(updates, cpu_bw, |graph, applied, batch| {
            let wall = gcsm_obs::Stopwatch::start();
            // ---- Route ΔE to its counting shards ----
            let routed = {
                let _span = gcsm_obs::span("route", gcsm_obs::cat::PIPELINE);
                route(applied, part)
            };

            // ---- Steps 2–4: every shard matches its subset, in parallel ----
            let jobs: Vec<(usize, &[EdgeUpdate], u64)> = routed
                .per_shard_match
                .iter()
                .enumerate()
                .map(|(i, a)| (i, a.as_slice(), routed.peer_bytes_to[i]))
                .collect();
            let per_shard: Vec<BatchResult> = shards
                .par_iter_mut()
                .zip(jobs.into_par_iter())
                .map(|(shard, (idx, assigned, peer_in))| {
                    let mut span = gcsm_obs::span("shard_match", gcsm_obs::cat::ENGINE);
                    span.set_batch(batch);
                    span.set_shard(idx as u32);
                    span.set_count(assigned.len() as u64);
                    let mut r = shard.engine.match_sealed(graph, assigned, query);
                    // Mirror the cut updates this shard replicates but does
                    // not count: one batched peer transfer over its link,
                    // charged to the shard's data-copy phase like any other
                    // inbound bytes.
                    if peer_in > 0 {
                        let before = shard.link.snapshot();
                        shard.link.peer_copy(peer_in as usize);
                        let interval = shard.link.snapshot() - before;
                        let peer =
                            SimBreakdown::from_traffic(&interval, &shard.engine.config().gpu);
                        r.phases.data_copy += peer.peer;
                        r.sim = r.sim + peer;
                        r.traffic = r.traffic + interval;
                    }
                    r
                })
                .collect();

            // ---- Merge ----
            let makespan_seconds = per_shard.iter().map(engine_seconds).fold(0.0, f64::max);
            let mut merged = BatchResult {
                engine: format!("{}x{}", per_shard.len(), per_shard[0].engine),
                ..Default::default()
            };
            for r in &per_shard {
                merged.matches += r.matches;
                merged.stats.merge(r.stats);
                merged.traffic = merged.traffic + r.traffic;
                merged.sim = merged.sim + r.sim;
                merged.cpu_access_bytes += r.cpu_access_bytes;
                merged.cached_bytes += r.cached_bytes;
                merged.aux_bytes += r.aux_bytes;
                merged.phases.freq_est = merged.phases.freq_est.max(r.phases.freq_est);
                merged.phases.data_copy = merged.phases.data_copy.max(r.phases.data_copy);
                merged.phases.matching = merged.phases.matching.max(r.phases.matching);
            }
            merged.cache_hit_rate = merged.traffic.cache_hit_rate();

            let imbalance = achieved_imbalance(&per_shard, makespan_seconds);
            merged.wall_seconds = wall.elapsed_seconds();

            ShardedBatchResult {
                merged,
                per_shard,
                peer_bytes: routed.peer_bytes(),
                cut_updates: routed.cut_updates,
                makespan_seconds,
                imbalance,
            }
        });
        host.charge(&mut out.merged);
        crate::result::record_batch_metrics(&out.merged);
        out
    }
}

/// A shard's engine phases: what the devices run concurrently.
fn engine_seconds(r: &BatchResult) -> f64 {
    r.phases.freq_est + r.phases.data_copy + r.phases.matching
}

/// The slowest shard's engine seconds over the shards' mean; 1.0 when no
/// shard did any engine work.
fn achieved_imbalance(per_shard: &[BatchResult], makespan_seconds: f64) -> f64 {
    let mean = per_shard.iter().map(engine_seconds).sum::<f64>() / per_shard.len() as f64;
    if mean > 0.0 {
        makespan_seconds / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{GcsmEngine, ZeroCopyEngine};
    use crate::multi::MultiPipeline;
    use crate::pipeline::Pipeline;
    use gcsm_pattern::queries;

    fn setup() -> (CsrGraph, Vec<Vec<EdgeUpdate>>) {
        let g0 = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (5, 6)]);
        let batches = vec![
            vec![EdgeUpdate::insert(2, 4), EdgeUpdate::delete(0, 1)],
            vec![EdgeUpdate::insert(4, 6), EdgeUpdate::insert(5, 7)],
            vec![EdgeUpdate::insert(0, 1), EdgeUpdate::delete(2, 4), EdgeUpdate::insert(6, 7)],
        ];
        (g0, batches)
    }

    fn engines(n: usize) -> Vec<Box<dyn Engine>> {
        let base = EngineConfig::default();
        (0..n)
            .map(|_| Box::new(GcsmEngine::new(shard_config(&base, n))) as Box<dyn Engine>)
            .collect()
    }

    #[test]
    fn one_shard_reproduces_the_single_device_pipeline() {
        // Pipeline, MultiPipeline with one query and ShardedPipeline with
        // one shard run the same batch core: ΔM and the host phases agree
        // bit for bit, serial and overlapped.
        let (g0, batches) = setup();
        let bits =
            |r: &BatchResult| (r.matches, r.phases.update.to_bits(), r.phases.reorganize.to_bits());
        for overlap in [false, true] {
            let mut single = Pipeline::new(g0.clone(), queries::triangle());
            single.set_overlap(overlap);
            let mut e = GcsmEngine::new(EngineConfig::default());
            let mut multi = MultiPipeline::new(g0.clone())
                .register(queries::triangle(), Box::new(GcsmEngine::new(EngineConfig::default())));
            multi.set_overlap(overlap);
            let mut sharded = ShardedPipeline::new(
                g0.clone(),
                queries::triangle(),
                PartitionPolicy::Range,
                engines(1),
            );
            sharded.set_overlap(overlap);
            for b in &batches {
                let r1 = single.process_batch(&mut e, b);
                let rm = multi.process_batch(b);
                let rn = sharded.process_batch(b);
                assert_eq!(rn.peer_bytes, 0, "one shard has no peer traffic");
                assert_eq!(rn.cut_updates, 0);
                assert_eq!(bits(&rm.per_query[0].1), bits(&r1), "multi, overlap {overlap}");
                assert_eq!(bits(&rn.merged), bits(&r1), "sharded, overlap {overlap}");
            }
            let tail = single.flush().to_bits();
            assert_eq!(multi.flush().to_bits(), tail);
            assert_eq!(sharded.flush().to_bits(), tail);
            assert_eq!(sharded.static_count(false), single.static_count(false));
        }
    }

    #[test]
    fn sharded_delta_counts_match_single_device() {
        let (g0, batches) = setup();
        for policy in
            [PartitionPolicy::HashSrc, PartitionPolicy::Range, PartitionPolicy::DegreeBalanced]
        {
            for n in [2usize, 3, 4] {
                let mut single = Pipeline::new(g0.clone(), queries::triangle());
                let mut e = ZeroCopyEngine::new(EngineConfig::default());
                let mut sharded =
                    ShardedPipeline::new(g0.clone(), queries::triangle(), policy, engines(n));
                for b in &batches {
                    let expect = single.process_batch(&mut e, b).matches;
                    let got = sharded.process_batch(b);
                    assert_eq!(got.merged.matches, expect, "{policy:?}/{n} shards diverged");
                    assert_eq!(
                        got.per_shard.iter().map(|r| r.matches).sum::<i64>(),
                        got.merged.matches
                    );
                }
                assert_eq!(sharded.static_count(false), single.static_count(false));
            }
        }
    }

    #[test]
    fn cut_updates_generate_peer_traffic() {
        let (g0, _) = setup();
        // Range over 8 vertices / 2 shards: {0..4} vs {4..8}; (3,4) and
        // (2,5) are cut, (0,1) is local.
        let mut sharded =
            ShardedPipeline::new(g0, queries::triangle(), PartitionPolicy::Range, engines(2));
        let r = sharded.process_batch(&[
            EdgeUpdate::insert(3, 5),
            EdgeUpdate::insert(1, 3),
            EdgeUpdate::delete(0, 1),
        ]);
        assert_eq!(r.cut_updates, 1);
        assert_eq!(r.peer_bytes, gcsm_shard::PEER_UPDATE_BYTES);
        assert_eq!(r.merged.traffic.peer_bytes, gcsm_shard::PEER_UPDATE_BYTES);
        assert!(r.merged.traffic.peer_copies >= 1);
        // The mirrored bytes cost simulated data-copy time on the replica.
        assert!(r.merged.sim.peer > 0.0);
    }

    #[test]
    fn makespan_and_imbalance_are_reported() {
        let (g0, batches) = setup();
        for n in [1usize, 2, 4] {
            let mut sharded = ShardedPipeline::new(
                g0.clone(),
                queries::triangle(),
                PartitionPolicy::HashSrc,
                engines(n),
            );
            for b in &batches {
                let r = sharded.process_batch(b);
                assert!(r.makespan_seconds >= 0.0);
                assert!(r.imbalance >= 1.0);
                // The merged engine phases are maxima over shards, so the
                // achieved makespan is exactly their sum.
                let merged_engine =
                    r.merged.phases.freq_est + r.merged.phases.data_copy + r.merged.phases.matching;
                assert!(r.makespan_seconds <= merged_engine + 1e-12);
                // The imbalance is the achieved makespan over the mean.
                let mean = r.per_shard.iter().map(engine_seconds).sum::<f64>() / n as f64;
                if n == 1 {
                    assert_eq!(r.imbalance, 1.0);
                }
                if mean > 0.0 {
                    let rel = (r.imbalance * mean - r.makespan_seconds).abs() / r.makespan_seconds;
                    assert!(rel < 1e-12, "{n} shards: imbalance × mean != makespan ({rel})");
                }
            }
        }
    }

    #[test]
    fn shard_config_splits_the_budget() {
        let base = EngineConfig::with_cache_budget(1 << 20);
        let per = shard_config(&base, 4);
        assert_eq!(per.gpu.cache_budget(), (1 << 20) / 4);
        assert_eq!(per.gpu.dma_bandwidth, base.gpu.dma_bandwidth);
        let degenerate = shard_config(&base, 0);
        assert_eq!(degenerate.gpu.cache_budget(), 1 << 20);
    }
}
