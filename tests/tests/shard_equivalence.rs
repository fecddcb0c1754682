//! Sharded-execution equivalence: the acceptance anchor for the
//! multi-device subsystem. Splitting a stream across N shards changes
//! *where* each update's matching runs and *what* crosses the simulated
//! peer links — it must not change a single count. Every test here pits
//! `ShardedPipeline` against the single-device `Pipeline` on the same
//! stream and demands batch-for-batch ΔM equality plus final-graph
//! agreement, across shard counts, partition policies, and workloads.

use gcsm::{shard_config, EngineConfig, Pipeline, ShardedPipeline};
use gcsm_bench::{make_engine, EngineKind};
use gcsm_datagen::{er::gnm, rmat, StreamConfig, UpdateStream};
use gcsm_graph::{CsrGraph, EdgeUpdate, UpdateOp};
use gcsm_pattern::{queries, QueryGraph};
use gcsm_shard::PartitionPolicy;
use proptest::prelude::*;

const POLICIES: [PartitionPolicy; 3] =
    [PartitionPolicy::HashSrc, PartitionPolicy::Range, PartitionPolicy::DegreeBalanced];

/// Per-batch ΔM from the single-device pipeline.
fn baseline(
    kind: EngineKind,
    initial: &CsrGraph,
    q: &QueryGraph,
    batches: &[&[EdgeUpdate]],
) -> Vec<i64> {
    let budget = initial.adjacency_bytes().max(1 << 16);
    let mut engine = make_engine(kind, EngineConfig::with_cache_budget(budget));
    let mut p = Pipeline::new(initial.clone(), q.clone());
    batches.iter().map(|b| p.process_batch(engine.as_mut(), b).matches).collect()
}

/// Per-batch ΔM from the sharded pipeline, plus its final static recount.
fn sharded(
    kind: EngineKind,
    initial: &CsrGraph,
    q: &QueryGraph,
    batches: &[&[EdgeUpdate]],
    policy: PartitionPolicy,
    shards: usize,
) -> (Vec<i64>, i64) {
    let budget = initial.adjacency_bytes().max(1 << 16);
    let cfg = shard_config(&EngineConfig::with_cache_budget(budget), shards);
    let engines = (0..shards).map(|_| make_engine(kind, cfg.clone())).collect();
    let mut p = ShardedPipeline::new(initial.clone(), q.clone(), policy, engines);
    let deltas = batches.iter().map(|b| p.process_batch(b).merged.matches).collect();
    (deltas, p.static_count(false))
}

/// Fixed-seed acceptance over the paper's update-stream recipe: ER and
/// skewed RMAT, shards ∈ {1, 2, 4}, all three partition policies.
#[test]
fn sharded_matches_single_device_on_er_and_rmat() {
    let workloads: [(&str, CsrGraph); 2] =
        [("er", gnm(512, 4096, 11)), ("rmat", rmat::generate(&rmat::RmatConfig::new(9, 12, 5)))];
    for (name, base) in workloads {
        let stream = UpdateStream::generate(&base, StreamConfig::Fraction(0.3), 23);
        let batches: Vec<&[EdgeUpdate]> = stream.updates.chunks(160).collect();
        let q = queries::triangle();
        let reference = baseline(EngineKind::Gcsm, &stream.initial, &q, &batches);
        let total: i64 = reference.iter().sum();
        let initial_static = Pipeline::new(stream.initial.clone(), q.clone()).static_count(false);
        for shards in [1usize, 2, 4] {
            for policy in POLICIES {
                let (deltas, recount) =
                    sharded(EngineKind::Gcsm, &stream.initial, &q, &batches, policy, shards);
                assert_eq!(
                    deltas,
                    reference,
                    "{name}: ΔM sequence diverges at {shards} shards / {}",
                    policy.name()
                );
                // The running ledger must agree with a from-scratch recount
                // of the final sealed graph.
                assert_eq!(
                    initial_static + total,
                    recount,
                    "{name}: ledger drifted from recount at {shards} shards / {}",
                    policy.name()
                );
            }
        }
    }
}

/// Deeper query + a second engine family: the routing layer sits above
/// the engines, so equivalence must hold regardless of how a shard reads
/// the graph.
#[test]
fn sharded_matches_single_device_zerocopy_kite() {
    let base = rmat::generate(&rmat::RmatConfig::new(8, 10, 3));
    let stream = UpdateStream::generate(&base, StreamConfig::Count(600), 17);
    let batches: Vec<&[EdgeUpdate]> = stream.updates.chunks(120).collect();
    let q = queries::fig1_kite();
    let reference = baseline(EngineKind::ZeroCopy, &stream.initial, &q, &batches);
    for shards in [2usize, 4] {
        let (deltas, _) = sharded(
            EngineKind::ZeroCopy,
            &stream.initial,
            &q,
            &batches,
            PartitionPolicy::HashSrc,
            shards,
        );
        assert_eq!(deltas, reference, "kite ΔM diverges at {shards} shards");
    }
}

/// Overlapped reorganize through the sharded front end: over a stream
/// with deletes and re-inserts of deleted edges, every batch's ΔM equals
/// the serial single-device pipeline's, the final graphs agree, and the
/// modeled reorganize total (in-flight tail included) never exceeds the
/// serial total.
#[test]
fn overlapped_sharded_matches_serial_single_device() {
    let base = gnm(256, 2048, 7);
    let stream = UpdateStream::generate(&base, StreamConfig::Fraction(0.3), 29);
    let mut updates = stream.updates.clone();
    // Resurrect the first deleted edges after everything else has run.
    updates.extend(
        stream
            .updates
            .iter()
            .filter(|u| u.op == UpdateOp::Delete)
            .take(40)
            .map(|u| EdgeUpdate { op: UpdateOp::Insert, ..*u }),
    );
    let batches: Vec<&[EdgeUpdate]> = updates.chunks(96).collect();
    let q = queries::triangle();
    let budget = stream.initial.adjacency_bytes().max(1 << 16);

    let mut serial = Pipeline::new(stream.initial.clone(), q.clone());
    let mut engine = make_engine(EngineKind::Gcsm, EngineConfig::with_cache_budget(budget));
    let reference: Vec<(i64, f64)> = batches
        .iter()
        .map(|b| {
            let r = serial.process_batch(engine.as_mut(), b);
            (r.matches, r.phases.reorganize)
        })
        .collect();
    let serial_reorg: f64 = reference.iter().map(|&(_, t)| t).sum();
    assert!(serial_reorg > 0.0);
    let serial_edges = serial.graph().to_csr().edges().collect::<Vec<_>>();

    for shards in [2usize, 4] {
        let cfg = shard_config(&EngineConfig::with_cache_budget(budget), shards);
        let engines = (0..shards).map(|_| make_engine(EngineKind::Gcsm, cfg.clone())).collect();
        let mut p = ShardedPipeline::new(
            stream.initial.clone(),
            q.clone(),
            PartitionPolicy::HashSrc,
            engines,
        );
        p.set_overlap(true);
        let mut overlap_reorg = 0.0;
        for (i, b) in batches.iter().enumerate() {
            let r = p.process_batch(b);
            assert_eq!(r.merged.matches, reference[i].0, "batch {i} diverges at {shards} shards");
            overlap_reorg += r.merged.phases.reorganize;
        }
        overlap_reorg += p.flush();
        assert!(p.graph().updated_vertices().is_empty());
        assert_eq!(p.graph().to_csr().edges().collect::<Vec<_>>(), serial_edges);
        assert!(
            overlap_reorg <= serial_reorg,
            "{shards} shards: overlap {overlap_reorg} exceeds serial {serial_reorg}"
        );
    }
}

/// One generated case: initial-graph seed, raw update requests (endpoint
/// pair + insert flag), batch size, shard count, policy selector.
type Case = (u64, Vec<(u8, u8, bool)>, usize, usize, u8);

fn case() -> impl Strategy<Value = Case> {
    (
        0u64..500,
        proptest::collection::vec((0u8..48, 0u8..48, any::<bool>()), 10..120),
        4usize..33,
        2usize..6,
        0u8..3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary streams (duplicates, no-op deletes, self-loop-free),
    /// arbitrary shard counts and policies: per-batch ΔM is always the
    /// single-device sequence, and peer traffic is exactly the routed
    /// cut-update bill.
    #[test]
    fn sharded_delta_m_equals_single_device((seed, reqs, batch, shards, psel) in case()) {
        let initial = gnm(48, 160, seed);
        let updates: Vec<EdgeUpdate> = reqs
            .iter()
            .filter(|&&(a, b, _)| a != b)
            .map(|&(a, b, ins)| EdgeUpdate {
                src: a as u32,
                dst: b as u32,
                op: if ins { UpdateOp::Insert } else { UpdateOp::Delete },
            })
            .collect();
        prop_assume!(!updates.is_empty());
        let batches: Vec<&[EdgeUpdate]> = updates.chunks(batch).collect();
        let q = queries::triangle();
        let policy = POLICIES[psel as usize];
        let reference = baseline(EngineKind::Gcsm, &initial, &q, &batches);

        let cfg = shard_config(&EngineConfig::with_cache_budget(1 << 20), shards);
        let engines = (0..shards).map(|_| make_engine(EngineKind::Gcsm, cfg.clone())).collect();
        let mut p = ShardedPipeline::new(initial.clone(), q.clone(), policy, engines);
        // A mirror graph replays the same ingest so the test can see the
        // coalesced `applied` set the router actually consumed.
        let mut mirror = gcsm_graph::DynamicGraph::from_csr(&initial);
        for (i, b) in batches.iter().enumerate() {
            let r = p.process_batch(b);
            prop_assert_eq!(r.merged.matches, reference[i]);
            mirror.begin_batch();
            for &u in *b {
                mirror.apply(u);
            }
            let routed = gcsm_shard::route(&mirror.seal_batch().applied, p.partitioning());
            mirror.reorganize();
            // Peer bytes follow the router's cut accounting exactly.
            prop_assert_eq!(r.peer_bytes, routed.peer_bytes());
            prop_assert_eq!(r.cut_updates, routed.cut_updates);
        }
    }
}
