//! The batch lifecycle shared by every front end (Fig. 3, steps 1 and 5).
//!
//! [`BatchCore`] owns the dynamic graph and runs the host-side steps once
//! for [`crate::Pipeline`], [`crate::MultiPipeline`] and
//! [`crate::ShardedPipeline`]: ingest, seal, the update cost model, and
//! serial or overlapped reorganize. The match step (2–4) is a closure the
//! front end supplies — one engine, every registered query, or every shard
//! — so the core never branches on which front end called it. The host
//! charges come back as a [`HostCharges`] for the front end to apply to
//! the result that carries them.
//!
//! ## Overlap mode
//!
//! With [`BatchCore::set_overlap`] the Step-5 reorganization of batch *k*
//! is detached ([`DynamicGraph::take_reorg_task`]) and computed on a worker
//! thread while batch *k+1* is ingested (its updates journaled via the
//! graph's staged-batch mode). The result is joined and installed just
//! before batch *k+1* seals, so matching always sees fully merged lists.
//! The simulated cost model charges only the *exposed remainder* of the
//! overlapped work — `max(0, reorg_sim_k − update_sim_{k+1})` — at batch
//! *k+1*; the rest hides behind the ingest window, which is the latency win
//! the `cache_delta` bench measures.

use crate::result::BatchResult;
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate, ReorgResult};
use gcsm_pattern::QueryGraph;

/// An in-flight overlapped reorganization of the previous batch.
struct PendingReorg {
    handle: std::thread::JoinHandle<ReorgResult>,
    /// Modeled CPU seconds of the detached merge work; charged as the
    /// exposed remainder once the next batch's ingest window is known.
    sim_seconds: f64,
}

/// Host-side cost of one batch: simulated `update` and `reorganize`
/// seconds plus the wall time of the host steps.
#[derive(Debug)]
pub(crate) struct HostCharges {
    update: f64,
    reorganize: f64,
    wall: f64,
}

impl HostCharges {
    /// Add the host phases and host wall to the result that carries them.
    pub(crate) fn charge(&self, r: &mut BatchResult) {
        r.phases.update += self.update;
        r.phases.reorganize += self.reorganize;
        r.wall_seconds += self.wall;
    }
}

/// The graph plus the state of its batch lifecycle.
pub(crate) struct BatchCore {
    graph: DynamicGraph,
    /// Batches processed so far; labels the `batch` spans in traces.
    batches: u64,
    /// Double-buffered mode: reorganize batch *k* while ingesting *k+1*.
    overlap: bool,
    pending: Option<PendingReorg>,
}

impl BatchCore {
    pub(crate) fn new(initial: &CsrGraph) -> Self {
        Self { graph: DynamicGraph::from_csr(initial), batches: 0, overlap: false, pending: None }
    }

    pub(crate) fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    pub(crate) fn set_overlap(&mut self, on: bool) {
        self.overlap = on;
    }

    pub(crate) fn overlap(&self) -> bool {
        self.overlap
    }

    /// Join and install an in-flight overlapped reorganization, if any.
    /// Returns the modeled CPU seconds of the joined work (0.0 when nothing
    /// was pending).
    pub(crate) fn flush(&mut self) -> f64 {
        match self.pending.take() {
            Some(p) => {
                let res = p.handle.join().expect("reorganize worker panicked");
                self.graph.install_reorg(res);
                p.sim_seconds
            }
            None => 0.0,
        }
    }

    /// Count `query`'s matches on the current graph from scratch (parallel
    /// CPU WCOJ): `count(G_k) = count(G_0) + Σ ΔM`.
    pub(crate) fn static_count(&self, query: &QueryGraph, symmetry_break: bool) -> i64 {
        let snapshot = self.graph.to_csr();
        let src = gcsm_matcher::CsrSource::new(&snapshot);
        let opts = gcsm_matcher::DriverOptions {
            plan: gcsm_pattern::PlanOptions { symmetry_break },
            parallel: true,
            ..Default::default()
        };
        gcsm_matcher::match_static(&src, query, &snapshot.edges().collect::<Vec<_>>(), &opts)
            .matches
    }

    /// Bytes of every list the sealed batch touched.
    fn updated_list_bytes(&self) -> usize {
        self.graph.updated_vertices().iter().map(|&v| self.graph.list_bytes(v)).sum()
    }

    /// Run one batch: ingest `updates`, seal, hand the sealed graph, the
    /// applied updates and the batch index to `match_step`, then
    /// reorganize. `cpu_bw` prices the host steps. Returns the match
    /// step's output and the batch's host charges.
    pub(crate) fn run_batch<T>(
        &mut self,
        updates: &[EdgeUpdate],
        cpu_bw: f64,
        match_step: impl FnOnce(&DynamicGraph, &[EdgeUpdate], u64) -> T,
    ) -> (T, HostCharges) {
        let mut batch_span = gcsm_obs::span("batch", gcsm_obs::cat::PIPELINE);
        batch_span.set_batch(self.batches);
        batch_span.set_count(updates.len() as u64);
        let batch_idx = self.batches;
        self.batches += 1;

        // ---- Step 1: append ΔE to the CPU lists ----
        // With an overlapped reorganization in flight the updates are
        // journaled (staged batch); they replay inside `seal_batch` after
        // the merge result lands.
        let wall0 = gcsm_obs::Stopwatch::start();
        {
            let _span = gcsm_obs::span("ingest", gcsm_obs::cat::PIPELINE);
            if self.pending.is_some() {
                self.graph.begin_staged_batch();
            } else {
                self.graph.begin_batch();
            }
            for &u in updates {
                self.graph.apply(u);
            }
        }
        // Join the previous batch's overlapped reorganize before sealing so
        // the journal replays against fully merged lists.
        let carried_sim = self.flush();
        let summary = {
            let _span = gcsm_obs::span("seal", gcsm_obs::cat::PIPELINE);
            self.graph.seal_batch()
        };
        // Model: one binary search + append per update endpoint; dominated
        // by touching each updated list once.
        let update_sim = self.updated_list_bytes() as f64 / cpu_bw;
        // Exposed remainder of the joined overlapped work: only what its
        // modeled cost exceeds the ingest window it hid behind.
        let exposed_sim = (carried_sim - update_sim).max(0.0);
        let update_wall = wall0.elapsed_seconds();

        // ---- Steps 2–4: the front end's match step ----
        let out = match_step(&self.graph, &summary.applied, batch_idx);

        // ---- Step 5: reorganize (after matching, per the paper) ----
        let wall1 = gcsm_obs::Stopwatch::start();
        let reorg_bytes = self.updated_list_bytes();
        // Merge-sort + tombstone removal streams each updated list ~twice.
        let reorg_sim = 2.0 * reorg_bytes as f64 / cpu_bw;
        let deferred = if self.overlap {
            let task = self.graph.take_reorg_task();
            if task.is_trivial() {
                // Nothing to merge (resurrection-only batch): settle inline.
                self.graph.install_reorg(task.compute());
                false
            } else {
                let handle = std::thread::spawn(move || {
                    let mut span = gcsm_obs::span("reorg_overlap", gcsm_obs::cat::GRAPH);
                    let res = task.compute();
                    span.set_count(res.len() as u64);
                    res
                });
                self.pending = Some(PendingReorg { handle, sim_seconds: reorg_sim });
                true
            }
        } else {
            self.graph.reorganize();
            false
        };
        let reorg_wall = wall1.elapsed_seconds();

        let host = HostCharges {
            update: update_sim,
            reorganize: exposed_sim + if deferred { 0.0 } else { reorg_sim },
            wall: update_wall + reorg_wall,
        };
        (out, host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_step_sees_the_sealed_batch_before_reorganize() {
        let g0 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let mut core = BatchCore::new(&g0);
        // The second insert of (0, 2) coalesces away; (0, 1) is deleted.
        let updates =
            [EdgeUpdate::insert(0, 2), EdgeUpdate::insert(0, 2), EdgeUpdate::delete(0, 1)];
        for expect_idx in 0..2u64 {
            let ((idx, applied, touched), host) =
                core.run_batch(&updates, 1e9, |g, applied, idx| {
                    (idx, applied.len(), g.updated_vertices().to_vec())
                });
            assert_eq!(idx, expect_idx);
            // Batch 1 re-inserts an existing edge and deletes a missing one.
            let (want_applied, want_touched) =
                if expect_idx == 0 { (2, vec![0, 1, 2]) } else { (0, vec![]) };
            assert_eq!((applied, touched), (want_applied, want_touched));
            assert!(core.graph().updated_vertices().is_empty(), "reorganized after matching");
            assert_eq!(host.update > 0.0, want_applied > 0);
        }
    }
}
