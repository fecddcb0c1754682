//! # gcsm-shard — multi-device partitioning and cross-shard delta routing
//!
//! The paper evaluates GCSM on one RTX3090 and leaves scale-out open. This
//! crate supplies the graph-side half of the sharding layer:
//!
//! * [`partition`] — assign every vertex an owning shard (hash, range, or
//!   degree-balanced policy);
//! * [`router`] — split a sealed batch's `ΔE` across shards: exactly
//!   **one** shard (the owner of the canonical lower endpoint) receives each
//!   update for *matching*, so the summed per-shard `ΔM` counts every delta
//!   seed exactly once, and a cut update's mirror to the other endpoint's
//!   owner is billed as peer traffic.
//!
//! The exactly-once invariant is what makes sharded `ΔM` bit-identical to
//! the single-device pipeline: incremental matching decomposes into
//! independent seed tasks (delta plan × batch edge × orientation) whose
//! statistics are pure sums, so partitioning the batch partitions the seed
//! set and nothing else (see DESIGN.md §12).

pub mod partition;
pub mod router;

pub use partition::{PartitionPolicy, Partitioning};
pub use router::{route, RoutedBatch, PEER_UPDATE_BYTES};

/// Shard index, dense in `0..num_shards`.
pub type ShardId = usize;
