//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p gcsm-bench --release --bin repro -- all
//! cargo run -p gcsm-bench --release --bin repro -- fig8 fig12 --scale 0.5
//! ```
//!
//! Experiments: table1 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15a
//! fig15b table2 table3 um labeled stream ablations cache_delta shard all.
//! Options: `--scale S` (dataset scale, default 0.25), `--batches N`
//! (measured batches per cell, default 2).

use gcsm::prelude::*;
use gcsm_bench::{
    fmt_bytes, run_cell, run_stream_cell, CellResult, EngineKind, RunConfig, Table, Workload,
};
use gcsm_datagen::{all_presets, Preset};
use gcsm_graph::DynamicGraph;
use gcsm_matcher::{match_incremental, AccessCounter, DriverOptions, DynSource, RecordingSource};
use gcsm_pattern::{connected_motifs, queries, QueryGraph};

/// The value following flag `args[i]`, or exit 2 naming the flag.
fn flag_value(args: &[String], i: usize) -> &str {
    args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
        eprintln!("repro: {} needs a value", args[i]);
        std::process::exit(2);
    })
}

/// Parse the value following flag `args[i]`, or exit 2 naming flag + value.
fn flag_parse<T: std::str::FromStr>(args: &[String], i: usize) -> T
where
    T::Err: std::fmt::Display,
{
    let v = flag_value(args, i);
    v.parse().unwrap_or_else(|e| {
        eprintln!("repro: {} {v}: {e}", args[i]);
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments: Vec<String> = Vec::new();
    let mut rc = RunConfig { scale: 0.25, max_batches: 2, ..Default::default() };
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                rc.scale = flag_parse(&args, i);
                i += 1;
            }
            "--batches" => {
                rc.max_batches = flag_parse(&args, i);
                i += 1;
            }
            "--json" => {
                json_path = Some(flag_value(&args, i).to_string());
                i += 1;
            }
            e => experiments.push(e.to_string()),
        }
        i += 1;
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    // Collect metrics for the whole run; `--json` embeds the snapshot.
    gcsm_obs::global().enable();
    let all = experiments.iter().any(|e| e == "all");
    let want = |name: &str| all || experiments.iter().any(|e| e == name);

    println!("# GCSM reproduction harness (scale={}, batches/cell={})", rc.scale, rc.max_batches);
    println!("# times are simulated ms from the gpusim cost model; see DESIGN.md");

    let mut tables: Vec<Table> = Vec::new();
    if want("table1") {
        tables.push(table1(&rc));
    }
    if want("fig8") {
        tables.push(per_query_figure("Fig. 8: FR, batch 4096", Preset::Friendster, 4096, &rc));
    }
    if want("fig9") {
        tables.push(per_query_figure("Fig. 9: SF3K, batch 4096", Preset::Sf3k, 4096, &rc));
    }
    if want("fig10") {
        tables.push(per_query_figure("Fig. 10: SF10K, batch 8192", Preset::Sf10k, 8192, &rc));
    }
    if want("fig11") {
        tables.push(fig11(&rc));
    }
    if want("fig12") {
        tables.push(fig12(&rc));
    }
    if want("fig13") {
        tables.push(fig13(&rc));
    }
    if want("fig14") {
        tables.push(fig14(&rc));
    }
    if want("fig15a") {
        tables.push(fig15a(&rc));
    }
    if want("fig15b") {
        tables.push(fig15b(&rc));
    }
    if want("table2") {
        tables.push(table2(&rc));
    }
    if want("table3") {
        tables.push(table3(&rc));
    }
    if want("um") {
        tables.push(um_slowdown(&rc));
    }
    if want("labeled") {
        tables.push(labeled_experiment(&rc));
    }
    if want("stream") {
        tables.push(stream_demo(&rc));
    }
    if want("ablations") {
        tables.push(ablation_budget(&rc));
        tables.push(ablation_extensions(&rc));
        tables.push(ablation_scheduling(&rc));
        tables.push(ablation_incremental(&rc));
    }
    if want("cache_delta") {
        tables.push(cache_delta(&rc));
    }
    if want("shard") {
        tables.push(shard_experiment(&rc));
    }
    for t in &tables {
        t.print();
    }
    if let Some(path) = json_path {
        gcsm_bench::report::write_json_with_obs(&tables, &path).unwrap_or_else(|e| {
            eprintln!("repro: --json {path}: {e}");
            std::process::exit(2);
        });
        println!("\n# wrote JSON report to {path}");
    }
}

/// Extra: labeled matching at scale. The paper's evaluation graphs are
/// unlabeled; the problem definition (Sec. II-A) includes labels, so this
/// exercises the label filters end-to-end: a labeled kite on a labeled FR
/// stand-in, GCSM vs ZP.
fn labeled_experiment(rc: &RunConfig) -> Table {
    use gcsm_graph::CsrBuilder;
    let mut t = Table::new(
        "Extra: labeled matching (FR with 4 labels, labeled kite, batch 2048)",
        &["Engine", "ms/batch", "cpu-read", "hit%", "ΔM"],
    );
    let w = Workload::build(Preset::Friendster, rc.scale, 2048, rc.max_batches);
    // Relabel deterministically with 4 labels.
    let mut b = CsrBuilder::new(w.initial.num_vertices());
    for (x, y) in w.initial.edges() {
        b.add_edge(x, y);
    }
    b.set_labels((0..w.initial.num_vertices()).map(|v| (v % 4) as u16).collect());
    let labeled = Workload {
        preset: w.preset,
        initial: b.build(),
        batches: w.batches.clone(),
        batch_size: w.batch_size,
    };
    let q = QueryGraph::with_labels(
        "kiteL",
        4,
        &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
        vec![0, 1, 2, 3],
    );
    let mut expect = None;
    for kind in [EngineKind::ZeroCopy, EngineKind::Gcsm, EngineKind::Cpu] {
        let c = run_cell(kind, &labeled, &q, rc);
        if let Some(e) = expect {
            assert_eq!(c.matches, e, "labeled count diverges for {}", c.engine);
        } else {
            expect = Some(c.matches);
        }
        t.row(vec![
            c.engine.clone(),
            format!("{:.3}", c.ms),
            fmt_bytes(c.cpu_bytes),
            format!("{:.0}", c.hit_rate * 100.0),
            format!("{}", c.matches),
        ]);
    }
    t
}

/// Extra: the concurrent streaming-ingestion subsystem (`gcsm::stream`).
/// Four producer threads stripe the update stream into a session per
/// engine × seal policy; every cell asserts batch-by-batch equality with
/// the serial reference and checks the running ledger against a
/// from-scratch recount of the final graph.
fn stream_demo(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "Extra: streaming ingestion (AZ, triangle, 4 producers)",
        &["Engine", "seal policy", "batches", "coalesced", "ΔM total", "ledger", "vs serial"],
    );
    let w = Workload::build(Preset::Amazon, rc.scale, 512, rc.max_batches.max(2));
    let q = queries::triangle();
    let policies =
        [("size 256", gcsm::SealPolicy::Size(256)), ("size 64", gcsm::SealPolicy::Size(64))];
    for kind in [EngineKind::ZeroCopy, EngineKind::Gcsm, EngineKind::Cpu] {
        for (pname, policy) in policies {
            let c = run_stream_cell(kind, &w, &q, rc, 4, policy);
            let coalesced: usize = c
                .batches
                .iter()
                .filter_map(|b| b.result.stream)
                .map(|m| m.duplicates_dropped + 2 * m.cancelled_pairs + m.self_loops_dropped)
                .sum();
            assert!(c.matches_serial, "{} diverged from serial reference", kind.name());
            assert_eq!(c.final_total, c.static_total, "{} ledger drifted", kind.name());
            t.row(vec![
                kind.name().into(),
                pname.into(),
                format!("{}", c.batches.len()),
                format!("{coalesced}"),
                format!("{:+}", c.final_total - c.base),
                format!("{} = recount", c.final_total),
                "identical".into(),
            ]);
        }
    }
    t
}

/// Ablation: cache-budget sweep — how GCSM's advantage depends on the
/// fraction of the graph the device buffer can hold (the paper fixes
/// 14 GB; this sweeps the knob).
fn ablation_budget(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "Ablation: cache budget sweep (FR, Q2, batch 4096)",
        &["budget (frac of graph)", "GCSM ms", "hit%", "cpu-read", "speedup vs ZP"],
    );
    let w = Workload::build(Preset::Friendster, rc.scale, 4096, rc.max_batches);
    let zp = run_cell(EngineKind::ZeroCopy, &w, &queries::q2(), rc);
    for denom in [64usize, 32, 16, 8, 4, 2] {
        let mut rc2 = rc.clone();
        rc2.budget_fraction = 1.0 / denom as f64;
        let gc = run_cell(EngineKind::Gcsm, &w, &queries::q2(), &rc2);
        assert_eq!(gc.matches, zp.matches);
        t.row(vec![
            format!("1/{denom}"),
            format!("{:.3}", gc.ms),
            format!("{:.0}", gc.hit_rate * 100.0),
            fmt_bytes(gc.cpu_bytes),
            format!("{:.2}x", zp.ms / gc.ms),
        ]);
    }
    t
}

/// Ablation: the engine extensions beyond the paper — adaptive walk
/// budgeting (Sec. IV-A's loop) and delta cache shipping (run on both the
/// paper's uniform stream and a temporally-correlated stream, where
/// consecutive working sets overlap and incremental shipping pays off).
fn ablation_extensions(rc: &RunConfig) -> Table {
    use gcsm_datagen::temporal::{temporal_stream, TemporalConfig};
    let mut t = Table::new(
        "Ablation: GCSM extensions (FR, Q2, batch 1024, 4 batches)",
        &["stream", "variant", "ms/batch", "FE ms", "DC ms", "DMA bytes/batch", "ΔM"],
    );
    let w = Workload::build(Preset::Friendster, rc.scale, 1024, 4);
    // A temporal variant of the same workload: 4 batches biased into a
    // drifting focus region.
    let tstream = temporal_stream(
        &w.initial,
        &TemporalConfig { updates: 4096, locality: 0.85, region: 512, drift_every: 2048, seed: 5 },
    );
    let tbatches: Vec<Vec<gcsm_graph::EdgeUpdate>> =
        tstream.chunks(1024).map(<[gcsm_graph::EdgeUpdate]>::to_vec).collect();

    let base_cfg = rc.engine_config(&w);
    let variants: Vec<(&str, gcsm::EngineConfig)> = vec![
        ("baseline", base_cfg.clone()),
        ("adaptive-walks", gcsm::EngineConfig { adaptive_walks: true, ..base_cfg.clone() }),
        ("delta-cache", gcsm::EngineConfig { delta_cache: true, ..base_cfg.clone() }),
    ];
    for (stream_name, batches) in [("uniform", &w.batches), ("temporal", &tbatches)] {
        for (name, cfg) in &variants {
            let mut engine = gcsm::GcsmEngine::new(cfg.clone());
            let mut pipeline = gcsm::Pipeline::new(w.initial.clone(), queries::q2());
            let n = batches.len() as f64;
            let (mut ms, mut fe, mut dc, mut dma, mut dm) = (0.0, 0.0, 0.0, 0u64, 0i64);
            for b in batches.iter() {
                let r = pipeline.process_batch(&mut engine, b);
                ms += r.total_ms() / n;
                fe += r.phases.freq_est * 1e3 / n;
                dc += r.phases.data_copy * 1e3 / n;
                dma += r.traffic.dma_bytes / batches.len() as u64;
                dm += r.matches;
            }
            t.row(vec![
                stream_name.into(),
                (*name).into(),
                format!("{ms:.3}"),
                format!("{fe:.3}"),
                format!("{dc:.3}"),
                format!("{dma}"),
                format!("{dm}"),
            ]);
        }
    }
    t
}

/// Tentpole: cross-batch cache residency + overlapped reorganize, the
/// {full,delta} × {serial,overlap} grid on an ER graph with a *stable*
/// hot set (the focus region never drifts, so after batch 0 warms the
/// resident cache the delta planner ships only add+refresh rows). Reports
/// warm PCIe traffic (batch 0 excluded), the bytes the resident cache
/// kept off the bus, and per-batch simulated latency; every cell must
/// produce identical match deltas.
fn cache_delta(rc: &RunConfig) -> Table {
    use gcsm_datagen::temporal::{temporal_stream, TemporalConfig};
    let mut t = Table::new(
        "Cache residency: {full,delta} x {serial,overlap} (dense ER, kite, batch 256)",
        &[
            "variant",
            "DMA/batch (warm)",
            "saved/batch",
            "DMA vs full-serial",
            "ms/batch",
            "reorg ms/batch",
            "ΔM",
        ],
    );
    // A dense-enough ER graph that the kite's walks extend past the batch
    // endpoints: the common-neighbor rows they read are the keepable ones.
    let n = ((4096.0 * rc.scale.max(0.05)) as usize).max(512);
    let initial = gcsm_datagen::er::gnm(n, 32 * n, 42);
    let batch = 256usize;
    let n_batches = 8usize;
    // `drift_every: usize::MAX` pins the focus region for the whole
    // stream: the stable-hot-set regime the resident cache is built for.
    let stream = temporal_stream(
        &initial,
        &TemporalConfig {
            updates: batch * n_batches,
            locality: 1.0,
            region: (n / 16).max(32),
            drift_every: usize::MAX,
            seed: 9,
        },
    );
    let batches: Vec<Vec<gcsm_graph::EdgeUpdate>> =
        stream.chunks(batch).map(<[gcsm_graph::EdgeUpdate]>::to_vec).collect();

    // Generous budget: the headline compares shipping policy, not
    // eviction (tests cover that), so the whole selection fits.
    let budget = initial.adjacency_bytes() * 2;
    let base_cfg = gcsm::EngineConfig {
        // Enough walks that the frequency estimate covers the hot
        // region's neighborhood every batch; selection churn from walk
        // sampling noise would otherwise masquerade as `add` traffic.
        walks_override: Some(40_000),
        ..gcsm::EngineConfig::with_cache_budget(budget)
    };
    let delta_cfg = gcsm::EngineConfig { delta_cache: true, ..base_cfg.clone() };
    let variants: Vec<(&str, gcsm::EngineConfig, bool)> = vec![
        ("full / serial", base_cfg.clone(), false),
        ("full / overlap", base_cfg, true),
        ("delta / serial", delta_cfg.clone(), false),
        ("delta / overlap", delta_cfg, true),
    ];

    let mut full_serial_dma: Option<f64> = None;
    let mut expect: Option<i64> = None;
    for (name, cfg, overlap) in variants {
        let mut engine = GcsmEngine::new(cfg);
        let mut pipeline = Pipeline::new(initial.clone(), queries::fig1_kite());
        pipeline.set_overlap(overlap);
        let (mut ms, mut reorg, mut dm) = (0.0f64, 0.0f64, 0i64);
        let (mut warm_dma, mut warm_saved) = (0u64, 0u64);
        for (bi, b) in batches.iter().enumerate() {
            let r = pipeline.process_batch(&mut engine, b);
            ms += r.total_ms();
            reorg += r.phases.reorganize * 1e3;
            dm += r.matches;
            if bi > 0 {
                warm_dma += r.traffic.dma_bytes;
                warm_saved += r.traffic.dma_saved_bytes;
            }
        }
        // Drain the deferred reorganize so overlap pays its full bill.
        let trailing = pipeline.flush() * 1e3;
        ms += trailing;
        reorg += trailing;
        let warm_n = (batches.len() - 1).max(1) as f64;
        let dma_per = warm_dma as f64 / warm_n;
        let cut = match full_serial_dma {
            None => {
                full_serial_dma = Some(dma_per);
                "1.00x (ref)".to_string()
            }
            Some(reference) => format!("{:.2}x ({:+.0}%)", dma_per / reference, {
                100.0 * (dma_per - reference) / reference
            }),
        };
        match expect {
            None => expect = Some(dm),
            Some(e) => assert_eq!(dm, e, "match counts diverge for {name}"),
        }
        t.row(vec![
            name.into(),
            fmt_bytes(dma_per),
            fmt_bytes(warm_saved as f64 / warm_n),
            cut,
            format!("{:.3}", ms / batches.len() as f64),
            format!("{:.3}", reorg / batches.len() as f64),
            format!("{dm}"),
        ]);
    }
    t
}

/// Tentpole (PR 5): multi-device sharded execution on a skewed RMAT
/// stream — shards {1,2,4} × partition policies, every update routed to
/// the owner of its canonical min endpoint, cut updates replicated to the
/// other endpoint's shard over the peer link. Every cell must report the
/// same ΔM as the single-device baseline (exactly-once routing), the
/// best 4-shard cell must cut the achieved makespan by ≥ 2×, and 4-shard
/// range must report a larger achieved imbalance than 4-shard hash.
fn shard_experiment(rc: &RunConfig) -> Table {
    use gcsm_datagen::{rmat, StreamConfig, UpdateStream};
    use gcsm_shard::PartitionPolicy;

    let mut t = Table::new(
        "Sharding: multi-device scaling on skewed RMAT (triangle, batch 1024)",
        &[
            "shards",
            "partition",
            "ΔM",
            "engine ms/b",
            "makespan ms/b",
            "speedup",
            "imb",
            "cut/b",
            "peer/b",
        ],
    );
    // RMAT's preferential attachment piles degree mass onto low vertex
    // ids — exactly the skew a contiguous range partition mishandles and
    // the degree-aware sweep is built for.
    let scale_log = if rc.scale >= 0.9 { 12 } else { 11 };
    let base = rmat::generate(&rmat::RmatConfig::new(scale_log, 16, 7));
    let stream = UpdateStream::generate(&base, StreamConfig::Fraction(0.25), 9);
    let batch = 1024usize;
    let batches: Vec<&[gcsm_graph::EdgeUpdate]> = stream.updates.chunks(batch).collect();
    // Full budget: this experiment measures work partitioning, not
    // eviction (the cache sweeps cover that).
    let cfg = gcsm::EngineConfig::with_cache_budget(stream.initial.adjacency_bytes());

    let cells: [(usize, PartitionPolicy); 5] = [
        (1, PartitionPolicy::HashSrc),
        (2, PartitionPolicy::HashSrc),
        (4, PartitionPolicy::HashSrc),
        (4, PartitionPolicy::Range),
        (4, PartitionPolicy::DegreeBalanced),
    ];
    let mut expect: Option<i64> = None;
    let mut base_makespan: Option<f64> = None;
    let mut best4 = f64::INFINITY;
    let (mut hash4_imb, mut range4_imb) = (f64::NAN, f64::NAN);
    for (n, policy) in cells {
        let per_cfg = gcsm::shard_config(&cfg, n);
        let engines: Vec<Box<dyn gcsm::Engine>> = (0..n)
            .map(|_| Box::new(GcsmEngine::new(per_cfg.clone())) as Box<dyn gcsm::Engine>)
            .collect();
        let mut p =
            ShardedPipeline::new(stream.initial.clone(), queries::triangle(), policy, engines);
        let (mut dm, mut ms, mut mk, mut imb) = (0i64, 0.0f64, 0.0f64, 0.0f64);
        let (mut cut, mut peer) = (0usize, 0u64);
        for b in &batches {
            let r = p.process_batch(b);
            dm += r.merged.matches;
            ms += r.merged.total_ms();
            mk += r.makespan_seconds * 1e3;
            imb += r.imbalance;
            cut += r.cut_updates;
            peer += r.peer_bytes;
        }
        let nb = batches.len() as f64;
        match expect {
            None => expect = Some(dm),
            Some(e) => assert_eq!(dm, e, "ΔM diverges at {n} shards ({})", policy.name()),
        }
        let speedup = match base_makespan {
            None => {
                base_makespan = Some(mk);
                "1.00x (ref)".to_string()
            }
            Some(reference) => {
                if n == 4 {
                    best4 = best4.min(mk);
                    match policy {
                        PartitionPolicy::HashSrc => hash4_imb = imb / nb,
                        PartitionPolicy::Range => range4_imb = imb / nb,
                        PartitionPolicy::DegreeBalanced => {}
                    }
                }
                format!("{:.2}x", reference / mk)
            }
        };
        t.row(vec![
            format!("{n}"),
            policy.name().into(),
            format!("{dm:+}"),
            format!("{:.3}", ms / nb),
            format!("{:.3}", mk / nb),
            speedup,
            format!("{:.2}", imb / nb),
            format!("{:.0}", cut as f64 / nb),
            fmt_bytes(peer as f64 / nb),
        ]);
    }
    let reference = base_makespan.expect("baseline row ran");
    assert!(
        best4 * 2.0 <= reference,
        "4-shard makespan {best4:.3} ms not >= 2x below 1-shard {reference:.3} ms"
    );
    // Range piles R-MAT's low-id hubs onto one shard; the achieved
    // imbalance must show that against hash.
    assert!(
        range4_imb > hash4_imb,
        "4-shard range imbalance {range4_imb:.2} not above hash {hash4_imb:.2}"
    );
    t
}

/// Ablation: STMatch-style work stealing vs static block assignment — the
/// load-balance mechanism the paper's kernel inherits from STMatch \[9\].
fn ablation_scheduling(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "Ablation: grid scheduling (ZP kernel, batch 4096)",
        &["Graph", "Query", "work-stealing ms", "static ms", "stealing speedup"],
    );
    for (preset, q) in [(Preset::Friendster, queries::q1()), (Preset::Sf3k, queries::q4())] {
        let w = Workload::build(preset, rc.scale, 4096, rc.max_batches);
        let mut times = Vec::new();
        for policy in [gcsm_gpusim::Scheduling::WorkStealing, gcsm_gpusim::Scheduling::Static] {
            let mut cfg = rc.engine_config(&w);
            cfg.scheduling = policy;
            let mut engine = gcsm::ZeroCopyEngine::new(cfg);
            let mut pipeline = gcsm::Pipeline::new(w.initial.clone(), q.clone());
            let ms: f64 = w
                .batches
                .iter()
                .map(|b| pipeline.process_batch(&mut engine, b).total_ms())
                .sum::<f64>()
                / w.batches.len() as f64;
            times.push(ms);
        }
        t.row(vec![
            preset.name().into(),
            q.name().into(),
            format!("{:.3}", times[0]),
            format!("{:.3}", times[1]),
            format!("{:.2}x", times[1] / times[0]),
        ]);
    }
    t
}

/// Ablation: why incremental at all — the IncIsoMatch-style
/// recompute-from-scratch strategy \[12\] vs the incremental engines, on a
/// deliberately small instance (recompute does not survive larger ones).
fn ablation_incremental(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "Ablation: incremental vs recompute-from-scratch (AZ at 1/4 scale, batch 256)",
        &["Engine", "ms/batch", "intersect ops", "ΔM"],
    );
    let mut rc2 = rc.clone();
    rc2.scale = (rc.scale * 0.25).max(0.01);
    let w = Workload::build(Preset::Amazon, rc2.scale, 256, rc2.max_batches);
    for kind in [EngineKind::Recompute, EngineKind::Cpu, EngineKind::Gcsm] {
        let c = run_cell(kind, &w, &queries::triangle(), &rc2);
        t.row(vec![
            c.engine.clone(),
            format!("{:.3}", c.ms),
            format!("{:.2e}", c.ops as f64),
            format!("{}", c.matches),
        ]);
    }
    t
}

/// Table I: dataset statistics (synthetic stand-ins vs the paper's).
fn table1(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "Table I: data graphs (ours vs paper)",
        &["Graph", "|V|", "|E|", "MaxDeg", "Size", "paper |V|", "paper |E|", "paper MaxDeg"],
    );
    for p in all_presets() {
        let ds = p.build_scaled(rc.scale);
        let row = p.paper_row();
        t.row(vec![
            p.name().into(),
            format!("{}", ds.graph.num_vertices()),
            format!("{}", ds.graph.num_edges()),
            format!("{}", ds.graph.max_degree()),
            fmt_bytes(ds.graph.adjacency_bytes() as f64),
            format!("{:.1}M", row.vertices / 1e6),
            format!("{:.0}M", row.edges / 1e6),
            format!("{}", row.max_degree),
        ]);
    }
    t
}

/// Fig. 8/9/10 shape: per-query execution time for GCSM vs naive GPU and
/// CPU baselines, with CPU-access byte labels.
fn per_query_figure(title: &str, preset: Preset, batch_size: usize, rc: &RunConfig) -> Table {
    let w = Workload::build(preset, rc.scale, batch_size, rc.max_batches);
    let engines =
        [EngineKind::ZeroCopy, EngineKind::NaiveDegree, EngineKind::Cpu, EngineKind::Gcsm];
    let mut t = Table::new(
        title,
        &["Query", "Engine", "ms/batch", "match ms", "cpu-read", "hit%", "ΔM", "speedup vs ZP"],
    );
    for q in queries::all() {
        let cells: Vec<CellResult> = engines.iter().map(|&k| run_cell(k, &w, &q, rc)).collect();
        let zp_ms = cells[0].ms;
        let expect = cells[0].matches;
        for c in &cells {
            assert_eq!(c.matches, expect, "engine disagreement on {}", q.name());
            t.row(vec![
                q.name().into(),
                c.engine.clone(),
                format!("{:.3}", c.ms),
                format!("{:.3}", c.match_ms),
                fmt_bytes(c.cpu_bytes),
                format!("{:.0}", c.hit_rate * 100.0),
                format!("{}", c.matches),
                format!("{:.2}x", zp_ms / c.ms),
            ]);
        }
    }
    t
}

/// Fig. 11: all size-3/4/5 motifs on the road networks.
fn fig11(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "Fig. 11: motif counting on road networks (batch 4096)",
        &["Graph", "Motifs", "Engine", "ms/batch", "cpu-read", "speedup vs ZP"],
    );
    let mut rc = rc.clone();
    rc.symmetry_break = true; // motif counting = unique subgraphs
    for preset in [Preset::RoadNetPA, Preset::RoadNetCA] {
        let w = Workload::build(preset, rc.scale, 4096, rc.max_batches);
        for size in [3usize, 4, 5] {
            let motifs = connected_motifs(size);
            // Sum times across the whole motif set per engine.
            let engines = [EngineKind::ZeroCopy, EngineKind::NaiveDegree, EngineKind::Gcsm];
            let mut sums = vec![CellResult::default(); engines.len()];
            for m in &motifs {
                for (si, &k) in engines.iter().enumerate() {
                    let c = run_cell(k, &w, m, &rc);
                    sums[si].ms += c.ms;
                    sums[si].cpu_bytes += c.cpu_bytes;
                    sums[si].matches += c.matches;
                }
            }
            let zp_ms = sums[0].ms;
            for (si, &k) in engines.iter().enumerate() {
                t.row(vec![
                    preset.name().into(),
                    format!("size-{size} (all {})", motifs.len()),
                    k.name().into(),
                    format!("{:.3}", sums[si].ms),
                    fmt_bytes(sums[si].cpu_bytes),
                    format!("{:.2}x", zp_ms / sums[si].ms),
                ]);
            }
        }
    }
    t
}

/// Fig. 12: batch-size sweep (Q6 on SF3K, Q5 on SF10K).
fn fig12(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "Fig. 12: batch-size sweep",
        &["Graph", "Query", "|ΔE|", "ZP ms", "Naive ms", "GCSM ms", "speedup vs ZP", "vs Naive"],
    );
    for (preset, q) in [(Preset::Sf3k, queries::q6()), (Preset::Sf10k, queries::q5())] {
        for shift in 0..8 {
            let batch = 64usize << shift; // 64 .. 8192
            let w = Workload::build(preset, rc.scale, batch, rc.max_batches);
            let zp = run_cell(EngineKind::ZeroCopy, &w, &q, rc);
            let nv = run_cell(EngineKind::NaiveDegree, &w, &q, rc);
            let gc = run_cell(EngineKind::Gcsm, &w, &q, rc);
            assert_eq!(zp.matches, gc.matches);
            t.row(vec![
                preset.name().into(),
                q.name().into(),
                format!("{batch}"),
                format!("{:.3}", zp.ms),
                format!("{:.3}", nv.ms),
                format!("{:.3}", gc.ms),
                format!("{:.2}x", zp.ms / gc.ms),
                format!("{:.2}x", nv.ms / gc.ms),
            ]);
        }
    }
    t
}

/// Fig. 13: VSGM vs GCSM execution-time breakdown at small batch sizes.
fn fig13(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "Fig. 13: VSGM vs GCSM breakdown (DC = identify+copy, Match = kernel)",
        &["Graph", "|ΔE|", "Query", "Engine", "DC ms", "Match ms", "total ms", "copied"],
    );
    for (preset, batch) in [(Preset::Sf3k, 128usize), (Preset::Sf10k, 64)] {
        let w = Workload::build(preset, rc.scale, batch, rc.max_batches);
        for q in queries::all() {
            for kind in [EngineKind::Vsgm, EngineKind::Gcsm] {
                let c = run_cell(kind, &w, &q, rc);
                t.row(vec![
                    preset.name().into(),
                    format!("{batch}"),
                    q.name().into(),
                    kind.name().into(),
                    format!("{:.3}", c.dc_ms + c.fe_ms),
                    format!("{:.3}", c.match_ms),
                    format!("{:.3}", c.ms),
                    fmt_bytes(c.cached_bytes),
                ]);
            }
        }
    }
    t
}

/// Fig. 14: RapidFlow vs our CPU baseline vs GCSM on the small graphs.
fn fig14(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "Fig. 14: comparison with RapidFlow (AZ, LJ)",
        &["Graph", "Query", "RF ms", "CPU ms", "GCSM ms", "GCSM vs RF", "RF index"],
    );
    for preset in [Preset::Amazon, Preset::LiveJournal] {
        let w = Workload::build(preset, rc.scale, 4096, rc.max_batches);
        for q in queries::all() {
            let rf = run_cell(EngineKind::RapidFlow, &w, &q, rc);
            let cpu = run_cell(EngineKind::Cpu, &w, &q, rc);
            let gc = run_cell(EngineKind::Gcsm, &w, &q, rc);
            assert_eq!(rf.matches, gc.matches);
            t.row(vec![
                preset.name().into(),
                q.name().into(),
                format!("{:.3}", rf.ms),
                format!("{:.3}", cpu.ms),
                format!("{:.3}", gc.ms),
                format!("{:.2}x", rf.ms / gc.ms),
                fmt_bytes(rf.aux_bytes as f64),
            ]);
        }
    }
    t
}

/// Fig. 15a: memory-access distribution — share of accesses covered by the
/// top-x% most-accessed vertices.
fn fig15a(rc: &RunConfig) -> Table {
    let fracs = [0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.00];
    let mut header: Vec<String> = vec!["Graph".into(), "Query".into()];
    header.extend(fracs.iter().map(|f| format!("top {:.0}%", f * 100.0)));
    let mut t = Table::new(
        "Fig. 15a: % of memory accesses to top-x% most accessed vertices",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for preset in [Preset::Friendster, Preset::Sf3k, Preset::Sf10k] {
        let w = Workload::build(preset, rc.scale, 4096, 1);
        let q = queries::q2();
        let (counter, g) = oracle_counts(&w, &q);
        // "% of the memory access": traffic volume, so each access is
        // weighted by the list bytes it reads.
        let curve = counter.coverage_curve_weighted(&fracs, |v| g.list_bytes(v) as u64);
        let mut row = vec![preset.name().to_string(), q.name().to_string()];
        row.extend(curve.iter().map(|(_, c)| format!("{:.1}%", c * 100.0)));
        t.row(row);
    }
    t
}

/// Exact access counts over the first batch of a workload, plus the sealed
/// graph they were measured on.
fn oracle_counts(w: &Workload, q: &QueryGraph) -> (AccessCounter, DynamicGraph) {
    let mut g = DynamicGraph::from_csr(&w.initial);
    let summary = g.apply_batch(&w.batches[0]);
    let counter = AccessCounter::new(g.num_vertices());
    {
        let src = DynSource::new(&g);
        let rec = RecordingSource::new(&src, &counter);
        match_incremental(
            &rec,
            q,
            &summary.applied,
            &DriverOptions { parallel: true, ..Default::default() },
        );
    }
    (counter, g)
}

/// Fig. 15b: cache coverage |S ∩ T| / |S| for the top 1–5% hottest
/// vertices, GCSM's estimate vs the oracle.
fn fig15b(rc: &RunConfig) -> Table {
    let fracs = [0.01, 0.02, 0.03, 0.04, 0.05];
    let mut header: Vec<String> = vec!["Graph".into(), "Query".into()];
    header.extend(fracs.iter().map(|f| format!("top {:.0}%", f * 100.0)));
    let mut t = Table::new(
        "Fig. 15b: cache coverage of top-x% most accessed vertices",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for preset in [Preset::Friendster, Preset::Sf3k, Preset::Sf10k] {
        let w = Workload::build(preset, rc.scale, 4096, 1);
        let q = queries::q2();
        let (counter, _) = oracle_counts(&w, &q);

        // Run GCSM on the same batch and grab its cached set T.
        let cfg = rc.engine_config(&w);
        let mut engine = GcsmEngine::new(cfg);
        let mut g = DynamicGraph::from_csr(&w.initial);
        let summary = g.apply_batch(&w.batches[0]);
        engine.match_sealed(&g, &summary.applied, &q);
        let cached: std::collections::HashSet<u32> =
            engine.last_selection().iter().copied().collect();

        let mut row = vec![preset.name().to_string(), q.name().to_string()];
        for &f in &fracs {
            let s = counter.top_fraction(f);
            let hit = s.iter().filter(|v| cached.contains(v)).count();
            let cov = if s.is_empty() { 1.0 } else { hit as f64 / s.len() as f64 };
            row.push(format!("{:.1}%", cov * 100.0));
        }
        t.row(row);
    }
    t
}

/// Table II: FE and DC overhead as a percentage of GCSM's total time.
fn table2(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "Table II: overhead of frequency estimation (FE) and data copying (DC), % of total",
        &["Query", "FR FE", "FR DC", "SF3K FE", "SF3K DC", "SF10K FE", "SF10K DC"],
    );
    let presets = [(Preset::Friendster, 4096), (Preset::Sf3k, 4096), (Preset::Sf10k, 8192)];
    let cells: Vec<Vec<CellResult>> = presets
        .iter()
        .map(|&(p, b)| {
            let w = Workload::build(p, rc.scale, b, rc.max_batches);
            queries::all().iter().map(|q| run_cell(EngineKind::Gcsm, &w, q, rc)).collect()
        })
        .collect();
    for (qi, q) in queries::all().iter().enumerate() {
        let mut row = vec![q.name().to_string()];
        for c in &cells {
            let cell = &c[qi];
            row.push(format!("{:.1}%", 100.0 * cell.fe_ms / cell.ms));
            row.push(format!("{:.1}%", 100.0 * cell.dc_ms / cell.ms));
        }
        t.row(row);
    }
    t
}

/// Table III: graph reorganization time per batch.
fn table3(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "Table III: graph reorganization time (simulated ms per batch)",
        &["Graph", "|ΔE|=4096", "|ΔE|=8192"],
    );
    for p in all_presets() {
        let mut cells = Vec::new();
        for batch in [4096usize, 8192] {
            let w = Workload::build(p, rc.scale, batch, rc.max_batches);
            // Reorg cost is engine independent; ZP is the cheapest to run.
            let c = run_cell(EngineKind::ZeroCopy, &w, &queries::q1(), rc);
            cells.push(format!("{:.3}", c.reorg_ms));
        }
        t.row(vec![p.name().into(), cells[0].clone(), cells[1].clone()]);
    }
    t
}

/// Sec. VI-B text: UM is 69–210× slower than ZP.
fn um_slowdown(rc: &RunConfig) -> Table {
    let mut t = Table::new(
        "UM vs ZP (Sec. VI-B: paper reports 69-210x)",
        &["Graph", "Query", "ZP ms", "UM ms", "UM/ZP"],
    );
    let w = Workload::build(Preset::Friendster, rc.scale, 512, 1);
    for q in [queries::q1(), queries::q2()] {
        let zp = run_cell(EngineKind::ZeroCopy, &w, &q, rc);
        let um = run_cell(EngineKind::UnifiedMem, &w, &q, rc);
        assert_eq!(zp.matches, um.matches);
        t.row(vec![
            "FR".into(),
            q.name().into(),
            format!("{:.3}", zp.ms),
            format!("{:.3}", um.ms),
            format!("{:.1}x", um.ms / zp.ms),
        ]);
    }
    t
}
