//! Sorted-set intersection kernels.
//!
//! The inner loop of WCOJ matching intersects a sorted candidate buffer
//! against a neighbor view (one or two sorted runs — see
//! [`gcsm_graph::NeighborView`]). Three kernels are provided:
//!
//! * **merge** — classic two-finger merge, `O(|a| + |b|)`;
//! * **gallop** — per-candidate binary search over the list suffix not yet
//!   passed, `O(|a| log |b|)`, the right choice when the candidate buffer
//!   is much smaller than the list;
//! * **blocked** — merge with a 4-way unrolled comparison block, mirroring
//!   STMatch's "unrolled set intersection with SIMD parallelism" (Sec. V-C).
//!
//! Every kernel filters the candidate buffer in place and allocates
//! nothing. [`IntersectAlgo::Auto`] picks merge when `|b| < 32·|a|` and
//! gallop otherwise: the crossover measured by the size-ratio sweep in
//! `crates/bench/benches/ablations.rs` (table in EXPERIMENTS.md), where
//! blocked is never more than ~9 % ahead of the better of the other two.
//! Both sides are exercised: on the perfbench workloads 91–99 % of filter
//! calls fall below the threshold, and an `Auto` that always gallops ran
//! 6–34 % slower end to end on `social-q1` and `rmat-tri-bulk`.
//! All kernels return the same result and charge the same *model* cost
//! metric through [`CostCounter`], so engine comparisons never depend on
//! kernel choice — the choice only moves wall time.

use gcsm_graph::{decode_neighbor, is_tombstone, NeighborView, VertexId};

/// Intersection kernel selector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IntersectAlgo {
    Merge,
    Gallop,
    Blocked,
    /// Size-ratio dispatch between `Merge` and `Gallop`.
    #[default]
    Auto,
}

/// Accumulates the model cost (element operations) of intersections.
#[derive(Debug, Default)]
pub struct CostCounter {
    pub ops: u64,
}

impl CostCounter {
    #[inline]
    fn charge(&mut self, n: u64) {
        self.ops += n;
    }
}

#[inline]
fn log2_ceil(n: usize) -> u64 {
    (usize::BITS - n.max(1).leading_zeros()) as u64
}

/// Materialize a view into `out` as decoded, sorted vertex ids.
/// Model cost: every raw entry is read once.
pub fn materialize(view: &NeighborView<'_>, out: &mut Vec<VertexId>, cost: &mut CostCounter) {
    out.clear();
    cost.charge(view.raw_len() as u64);
    match view.tail {
        None => out.extend(view.prefix.iter()),
        Some(_) => out.extend(view.iter_sorted()),
    }
}

/// Filter the sorted candidate buffer `cands` in place, keeping the
/// elements present in `view`. The model cost is the cheaper of the merge
/// and gallop costs (deterministic: depends only on sizes), regardless of
/// the kernel actually run.
///
/// Every kernel compacts `cands` in place (`Vec::retain`: read cursor `i`,
/// write cursor `w`, then `truncate(w)`), so the buffer keeps its
/// allocation and never grows. The view's prefix and tail runs hold
/// disjoint ids and are walked by separate forward-only cursors, so no
/// union of per-run hits is ever built.
pub fn filter_in_place(
    cands: &mut Vec<VertexId>,
    view: &NeighborView<'_>,
    algo: IntersectAlgo,
    cost: &mut CostCounter,
) {
    let merge_cost = cands.len() as u64 + view.raw_len() as u64;
    let gallop_cost = cands.len() as u64 * (log2_ceil(view.raw_len()) + 1);
    cost.charge(merge_cost.min(gallop_cost));

    let algo = match algo {
        IntersectAlgo::Auto => auto_kernel(cands.len(), view.raw_len()),
        a => a,
    };
    match algo {
        IntersectAlgo::Merge => retain_members(cands, view, RunCursor::seek_linear),
        IntersectAlgo::Blocked => retain_members(cands, view, RunCursor::seek_blocked),
        IntersectAlgo::Gallop | IntersectAlgo::Auto => {
            retain_members(cands, view, RunCursor::seek_binary)
        }
    }
}

/// `IntersectAlgo::Auto`'s rule, read off the size-ratio sweep in
/// EXPERIMENTS.md: the merge beats binary search up to `|b| ≈ 16·|a|` and
/// loses from `|b| ≈ 64·|a|`, so the crossover sits at `32·|a|`.
#[inline]
fn auto_kernel(cands: usize, list: usize) -> IntersectAlgo {
    if list < 32 * cands {
        IntersectAlgo::Merge
    } else {
        IntersectAlgo::Gallop
    }
}

/// Keep the candidates that `seek` finds live in either run of `view`.
/// `seek` advances a run cursor to the first entry `>= c` and reports a
/// live hit; because `cands` is sorted, both cursors only move forward.
#[inline(always)]
fn retain_members<'a>(
    cands: &mut Vec<VertexId>,
    view: &NeighborView<'a>,
    seek: impl Fn(&mut RunCursor<'a>, VertexId) -> bool,
) {
    let mut prefix = RunCursor::new(view.prefix.data, view.prefix.skip_tombstones);
    let mut tail = RunCursor::new(view.tail.unwrap_or_default(), false);
    cands.retain(|&c| seek(&mut prefix, c) || seek(&mut tail, c));
}

/// A forward-only position in one sorted run.
struct RunCursor<'a> {
    data: &'a [u32],
    skip_tombstones: bool,
    pos: usize,
}

impl<'a> RunCursor<'a> {
    fn new(data: &'a [u32], skip_tombstones: bool) -> Self {
        Self { data, skip_tombstones, pos: 0 }
    }

    /// Whether the entry under the cursor is `c` and live in this run.
    #[inline(always)]
    fn hit(&self, c: VertexId) -> bool {
        self.data.get(self.pos).is_some_and(|&raw| {
            decode_neighbor(raw) == c && !(self.skip_tombstones && is_tombstone(raw))
        })
    }

    /// Two-finger merge step: advance one entry at a time.
    #[inline(always)]
    fn seek_linear(&mut self, c: VertexId) -> bool {
        while self.data.get(self.pos).is_some_and(|&raw| decode_neighbor(raw) < c) {
            self.pos += 1;
        }
        self.hit(c)
    }

    /// Merge with a 4-wide unrolled skip block: while the last entry of the
    /// next 4-entry block is still below `c`, skip the whole block — the
    /// scalar analog of STMatch's warp-parallel unrolled intersection.
    #[inline(always)]
    fn seek_blocked(&mut self, c: VertexId) -> bool {
        while self.data.get(self.pos + 3).is_some_and(|&raw| decode_neighbor(raw) < c) {
            self.pos += 4;
        }
        self.seek_linear(c)
    }

    /// Binary search over the not-yet-passed suffix of the run.
    #[inline(always)]
    fn seek_binary(&mut self, c: VertexId) -> bool {
        let rest = self.data.get(self.pos..).unwrap_or_default();
        self.pos += rest.partition_point(|&raw| decode_neighbor(raw) < c);
        self.hit(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcsm_graph::encode_tombstone;

    fn view_plain(data: &[u32]) -> NeighborView<'_> {
        NeighborView::plain(data)
    }

    fn run_all_algos(cands: &[u32], view: &NeighborView<'_>) -> Vec<Vec<u32>> {
        [IntersectAlgo::Merge, IntersectAlgo::Gallop, IntersectAlgo::Blocked, IntersectAlgo::Auto]
            .iter()
            .map(|&a| {
                let mut c = cands.to_vec();
                let mut cost = CostCounter::default();
                filter_in_place(&mut c, view, a, &mut cost);
                c
            })
            .collect()
    }

    #[test]
    fn all_kernels_agree_on_plain_lists() {
        let data = vec![1u32, 3, 5, 7, 9, 11, 13];
        let cands = vec![0u32, 3, 4, 7, 13, 20];
        let results = run_all_algos(&cands, &view_plain(&data));
        for r in &results {
            assert_eq!(r, &vec![3, 7, 13]);
        }
    }

    #[test]
    fn kernels_respect_tombstones_and_tails() {
        let prefix = vec![1u32, encode_tombstone(3), 5];
        let tail = vec![2u32, 8];
        let view = NeighborView::new_view(&prefix, &tail);
        let cands = vec![1u32, 2, 3, 5, 8];
        for r in run_all_algos(&cands, &view) {
            assert_eq!(r, vec![1, 2, 5, 8]); // 3 is deleted
        }
    }

    #[test]
    fn old_view_keeps_tombstoned_entries() {
        let prefix = vec![1u32, encode_tombstone(3), 5];
        let view = NeighborView::old(&prefix);
        let cands = vec![3u32];
        for r in run_all_algos(&cands, &view) {
            assert_eq!(r, vec![3]);
        }
    }

    #[test]
    fn empty_operands() {
        let view = view_plain(&[]);
        let mut cands = vec![1u32, 2];
        let mut cost = CostCounter::default();
        filter_in_place(&mut cands, &view, IntersectAlgo::Auto, &mut cost);
        assert!(cands.is_empty());

        let data = vec![1u32, 2];
        let view = view_plain(&data);
        let mut cands: Vec<u32> = vec![];
        filter_in_place(&mut cands, &view, IntersectAlgo::Auto, &mut cost);
        assert!(cands.is_empty());
    }

    #[test]
    fn materialize_decodes_and_merges() {
        let prefix = vec![2u32, encode_tombstone(4), 9];
        let tail = vec![3u32, 10];
        let view = NeighborView::new_view(&prefix, &tail);
        let mut out = Vec::new();
        let mut cost = CostCounter::default();
        materialize(&view, &mut out, &mut cost);
        assert_eq!(out, vec![2, 3, 9, 10]);
        assert_eq!(cost.ops, 5); // 3 prefix + 2 tail raw entries
    }

    #[test]
    fn cost_is_min_of_merge_and_gallop() {
        let data: Vec<u32> = (0..1024).collect();
        let view = view_plain(&data);
        let mut cands = vec![512u32];
        let mut cost = CostCounter::default();
        filter_in_place(&mut cands, &view, IntersectAlgo::Auto, &mut cost);
        // gallop cost = 1 * (log2_ceil(1024)+1) = 12; merge cost = 1025.
        assert_eq!(cost.ops, 12);
    }

    /// Sorted distinct ids drawn from `0..universe`.
    fn sorted_ids(rng: &mut impl rand::Rng, len: usize, universe: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn randomized_kernel_agreement() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        // |b|/|a| from 1:1 to 1:1000 with lists of up to 2000 entries, so the
        // 4-entry block skip, both run cursors and binary search over the
        // unread suffix all see long runs.
        for ratio in [1usize, 3, 10, 30, 100, 300, 1000] {
            for _ in 0..60 {
                let a_len = rng.gen_range(0..=(2000 / ratio).clamp(1, 64));
                let b_len = if rng.gen_bool(0.05) { 0 } else { (a_len * ratio).min(2000) };
                let universe = 2 * (a_len + b_len) as u32 + 1;
                let data = sorted_ids(&mut rng, b_len, universe);
                // Half the candidates come from the list so hits are common.
                let mut cands = sorted_ids(&mut rng, a_len, universe);
                if !data.is_empty() {
                    for c in cands.iter_mut().step_by(2) {
                        *c = data[rng.gen_range(0..data.len())];
                    }
                    cands.sort_unstable();
                    cands.dedup();
                }
                // Split the list into a prefix (some entries tombstoned) and
                // an appended tail; the tail may be empty.
                let tail_share = [0.0, 0.1, 0.5, 1.0][rng.gen_range(0..4usize)];
                let (mut prefix, mut tail) = (Vec::new(), Vec::new());
                for &v in &data {
                    if rng.gen_bool(tail_share) {
                        tail.push(v);
                    } else if rng.gen_bool(0.3) {
                        prefix.push(encode_tombstone(v));
                    } else {
                        prefix.push(v);
                    }
                }
                for view in [NeighborView::new_view(&prefix, &tail), NeighborView::old(&prefix)] {
                    let expect: Vec<u32> =
                        cands.iter().copied().filter(|&c| view.contains(c)).collect();
                    for r in run_all_algos(&cands, &view) {
                        assert_eq!(r, expect, "ratio 1:{ratio}");
                    }
                    // Candidates longer than the list, the reverse regime.
                    let expect: Vec<u32> =
                        data.iter().copied().filter(|&c| view.contains(c)).collect();
                    for r in run_all_algos(&data, &view) {
                        assert_eq!(r, expect, "ratio 1:{ratio}, list as candidates");
                    }
                }
            }
        }
    }

    #[test]
    fn filtering_keeps_the_buffer_allocation() {
        let prefix: Vec<u32> =
            (0..3000).map(|v| if v % 7 == 0 { encode_tombstone(v) } else { v }).collect();
        let tail: Vec<u32> = (3000..3100).step_by(3).collect();
        let views = [
            NeighborView::new_view(&prefix, &tail),
            NeighborView::old(&prefix),
            NeighborView::plain(&tail),
        ];
        for algo in [
            IntersectAlgo::Merge,
            IntersectAlgo::Gallop,
            IntersectAlgo::Blocked,
            IntersectAlgo::Auto,
        ] {
            for view in &views {
                for cands_len in [1usize, 16, 200, 3200] {
                    let mut cands = Vec::with_capacity(cands_len);
                    cands.extend((0..cands_len as u32).map(|i| i * 3100 / cands_len as u32));
                    let (ptr, cap) = (cands.as_ptr(), cands.capacity());
                    filter_in_place(&mut cands, view, algo, &mut CostCounter::default());
                    assert_eq!(cands.as_ptr(), ptr, "{algo:?} moved the buffer");
                    assert_eq!(cands.capacity(), cap, "{algo:?} resized the buffer");
                }
            }
        }
    }
}
