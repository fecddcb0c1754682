//! Cross-engine differential suite: stream the same randomized batch
//! sequence through every engine and assert the per-batch ΔM sequences
//! are identical. The engines differ wildly in *how* they read the graph
//! (cached DCSR, zero-copy, unified memory, k-hop copies, CPU WCOJ,
//! candidate indexes, full recomputation) — the counts they produce must
//! not. The engines that run the matcher driver's seeds (every GPU engine
//! and the CPU baseline) must also do the same matching work: equal
//! per-batch intersect ops and list accesses.

use gcsm::stream::SealPolicy;
use gcsm_bench::{run_stream_cell, EngineKind, RunConfig, Workload};
use gcsm_datagen::Preset;
use gcsm_pattern::{queries, QueryGraph};

const ENGINES: [EngineKind; 8] = [
    EngineKind::Gcsm,
    EngineKind::ZeroCopy,
    EngineKind::UnifiedMem,
    EngineKind::Vsgm,
    EngineKind::NaiveDegree,
    EngineKind::Cpu,
    EngineKind::RapidFlow,
    EngineKind::Recompute,
];

/// How many leading [`ENGINES`] run the delta plans on the matcher driver;
/// RapidFlow and Recompute run other algorithms.
const DRIVER_ENGINES: usize = 6;

fn differential(q: &QueryGraph, symmetry_break: bool) {
    let rc = RunConfig { scale: 0.0625, symmetry_break, ..Default::default() };
    let w = Workload::build(Preset::Amazon, rc.scale, 96, 3);
    let mut reference: Option<(String, Vec<i64>, Vec<i64>)> = None;
    let mut work_reference: Option<Vec<(u64, u64)>> = None;
    for (i, kind) in ENGINES.into_iter().enumerate() {
        let c = run_stream_cell(kind, &w, q, &rc, 3, SealPolicy::Size(64));
        assert!(
            c.matches_serial,
            "{} diverged from its serial replay on {}",
            kind.name(),
            q.name()
        );
        assert_eq!(
            c.final_total,
            c.static_total,
            "{} ledger drifted from recount on {}",
            kind.name(),
            q.name()
        );
        let deltas: Vec<i64> = c.batches.iter().map(|b| b.result.matches).collect();
        let totals: Vec<i64> = c.batches.iter().map(|b| b.running_total).collect();
        if i < DRIVER_ENGINES {
            let work: Vec<(u64, u64)> = c
                .batches
                .iter()
                .map(|b| (b.result.stats.intersect_ops, b.result.stats.list_accesses))
                .collect();
            match &work_reference {
                None => work_reference = Some(work),
                Some(expect) => assert_eq!(
                    &work,
                    expect,
                    "per-batch (intersect ops, list accesses): {} vs {} on {}",
                    kind.name(),
                    ENGINES[0].name(),
                    q.name()
                ),
            }
        }
        match &reference {
            None => reference = Some((kind.name().to_string(), deltas, totals)),
            Some((ref_name, ref_deltas, ref_totals)) => {
                assert_eq!(
                    &deltas,
                    ref_deltas,
                    "per-batch ΔM: {} vs {} on {}",
                    kind.name(),
                    ref_name,
                    q.name()
                );
                assert_eq!(&totals, ref_totals, "running totals diverged on {}", q.name());
            }
        }
    }
    let (_, deltas, _) = reference.unwrap();
    assert!(deltas.len() > 1, "need multiple batches to be a differential test");
    assert!(deltas.iter().any(|&d| d != 0), "stream never changed the count for {}", q.name());
}

#[test]
fn all_engines_agree_on_triangle() {
    differential(&queries::triangle(), false);
}

#[test]
fn all_engines_agree_on_q1() {
    differential(&queries::q1(), false);
}

#[test]
fn all_engines_agree_on_q2() {
    differential(&queries::q2(), false);
}

/// Same grid under symmetry breaking (unique-subgraph counting), the mode
/// motif counts use.
#[test]
fn all_engines_agree_on_unique_triangles() {
    differential(&queries::triangle(), true);
}
