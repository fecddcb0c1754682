//! Cross-shard delta router.
//!
//! A sealed batch's `ΔE` is split for **matching**: exactly **one** shard
//! (the counting shard: owner of the canonical lower endpoint) enumerates
//! each update's delta seeds, so the per-shard `ΔM` sum counts each seed
//! exactly once. A cut update is also mirrored to its other endpoint's
//! owner, and that copy is charged as peer traffic ([`PEER_UPDATE_BYTES`]
//! per update).
//!
//! Batch order is preserved within every subset: each shard sees its
//! updates in the same relative order the single-device pipeline would,
//! which keeps deletion/insertion interleavings semantically identical.

use crate::partition::Partitioning;
use gcsm_graph::EdgeUpdate;

/// Simulated wire size of one replicated update: `src: u32 + dst: u32 +
/// op: u32` — the packed record the owning device DMAs to each replica.
pub const PEER_UPDATE_BYTES: u64 = 12;

/// A batch split across shards. Produced by [`route`].
#[derive(Clone, Debug)]
pub struct RoutedBatch {
    /// Per-shard *matching* subsets: each update appears in exactly one
    /// shard's list (the counting shard), in batch order.
    pub per_shard_match: Vec<Vec<EdgeUpdate>>,
    /// Updates whose endpoints live on different shards.
    pub cut_updates: usize,
    /// Peer-link bytes charged to each shard for the replica copies it
    /// *receives* (cut updates where it is not the counting shard).
    pub peer_bytes_to: Vec<u64>,
}

impl RoutedBatch {
    /// Number of shards this batch was routed across.
    pub fn num_shards(&self) -> usize {
        self.per_shard_match.len()
    }

    /// Total peer-link bytes for the batch.
    pub fn peer_bytes(&self) -> u64 {
        self.peer_bytes_to.iter().sum()
    }
}

/// Route `batch` across the shards of `part`.
pub fn route(batch: &[EdgeUpdate], part: &Partitioning) -> RoutedBatch {
    let n = part.num_shards();
    let mut per_shard_match: Vec<Vec<EdgeUpdate>> = vec![Vec::new(); n];
    let mut peer_bytes_to = vec![0u64; n];
    let mut cut_updates = 0usize;
    for u in batch {
        let counting = part.counting_shard(u);
        per_shard_match[counting].push(*u);
        let other = part.owner(u.canonical().1);
        if other != counting {
            cut_updates += 1;
            peer_bytes_to[other] += PEER_UPDATE_BYTES;
        }
    }
    RoutedBatch { per_shard_match, cut_updates, peer_bytes_to }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionPolicy, Partitioning};
    use gcsm_graph::{CsrGraph, VertexId};
    use proptest::prelude::*;

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<(VertexId, VertexId)> =
            (0..n as VertexId).map(|v| (v, (v + 1) % n as VertexId)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn single_shard_routes_everything_locally() {
        let g = ring(8);
        let p = Partitioning::compute(&g, PartitionPolicy::Range, 1);
        let batch =
            vec![EdgeUpdate::insert(0, 4), EdgeUpdate::delete(2, 3), EdgeUpdate::insert(6, 1)];
        let r = route(&batch, &p);
        assert_eq!(r.num_shards(), 1);
        assert_eq!(r.per_shard_match[0], batch);
        assert_eq!(r.cut_updates, 0);
        assert_eq!(r.peer_bytes(), 0);
    }

    #[test]
    fn cut_update_replicates_and_charges_the_replica() {
        // Range over 8 vertices / 2 shards: 0..4 on shard 0, 4..8 on shard 1.
        let g = ring(8);
        let p = Partitioning::compute(&g, PartitionPolicy::Range, 2);
        let cut = EdgeUpdate::insert(2, 6); // canonical (2,6): counts on shard 0
        let local = EdgeUpdate::insert(5, 7); // both on shard 1
        let r = route(&[cut, local], &p);
        assert_eq!(r.per_shard_match[0], vec![cut]);
        assert_eq!(r.per_shard_match[1], vec![local]);
        assert_eq!(r.cut_updates, 1);
        assert_eq!(r.peer_bytes_to, vec![0, PEER_UPDATE_BYTES]);
    }

    #[test]
    fn batch_order_is_preserved_within_each_shard() {
        let g = ring(16);
        let p = Partitioning::compute(&g, PartitionPolicy::HashSrc, 4);
        let batch: Vec<EdgeUpdate> =
            (0..16u32).map(|i| EdgeUpdate::insert(i, (i * 7 + 1) % 16)).collect();
        let r = route(&batch, &p);
        let pos = |u: &EdgeUpdate| batch.iter().position(|b| b == u).unwrap_or(usize::MAX);
        for subset in &r.per_shard_match {
            let order: Vec<usize> = subset.iter().map(pos).collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "order broken: {order:?}");
        }
    }

    proptest! {
        /// Exactly-once matching invariant: the per-shard match subsets form
        /// a partition of the batch — concatenating them in any order yields
        /// the same multiset, and each update lands on its counting shard.
        #[test]
        fn match_routing_partitions_the_batch(
            n in 4usize..64,
            shards in 1usize..6,
            policy_idx in 0usize..3,
            raw in proptest::collection::vec((0u32..64, 0u32..64, any::<bool>()), 0..80),
        ) {
            let policy = [
                PartitionPolicy::HashSrc,
                PartitionPolicy::Range,
                PartitionPolicy::DegreeBalanced,
            ][policy_idx];
            let g = ring(n);
            let p = Partitioning::compute(&g, policy, shards);
            let batch: Vec<EdgeUpdate> = raw
                .into_iter()
                .filter(|&(a, b, _)| a != b)
                .map(|(a, b, ins)| {
                    if ins { EdgeUpdate::insert(a, b) } else { EdgeUpdate::delete(a, b) }
                })
                .collect();
            let r = route(&batch, &p);

            // Partition: sizes sum to the batch, every update on its
            // counting shard and nowhere else.
            let total: usize = r.per_shard_match.iter().map(Vec::len).sum();
            prop_assert_eq!(total, batch.len());
            for (s, subset) in r.per_shard_match.iter().enumerate() {
                for u in subset {
                    prop_assert_eq!(p.counting_shard(u), s);
                }
            }

            // Each cut update is billed PEER_UPDATE_BYTES to its replica.
            prop_assert_eq!(r.peer_bytes(), r.cut_updates as u64 * PEER_UPDATE_BYTES);
        }
    }
}
