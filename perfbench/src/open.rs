//! `stream-open`: one generator thread offers updates to a `gcsm::stream`
//! session at fixed absolute rates, on a schedule that does not slow when
//! the system does, and polls the results itself.

use crate::checks::{self, static_count};
use crate::inputs::{self, Open, NOMINAL_STEP, PERIOD_WINDOWS, SEAL_SIZE, STREAM_RATES};
use crate::layers::{self, StreamLayer};
use crate::replica::{traced_batch, Fingerprint, TracedGcsm};
use crate::report::{best_of, mean, median, peak_rss_mib, percentile, Clock, Outcome};
use crate::trace::{self, now_ns, span};
use crate::SETUP_REPS;
use gcsm::stream::{BatchProcessor, MultiProcessor, MultiStreamBatch, SealedBatch, StreamSession};
use gcsm::{
    Backpressure, BatchResult, Engine, EngineConfig, GcsmEngine, MultiPipeline, SealPolicy,
    SealReason, SequenceMode, StreamConfig, StreamMeta,
};
use gcsm_graph::{DynamicGraph, EdgeUpdate};
use gcsm_pattern::QueryGraph;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// p95 end-to-end latency a rate step must stay under.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// A step is invalid when more than 1 % of its updates were offered later
/// than this: the generator itself fell behind and the load was not the
/// one scheduled.
pub const GENERATOR_LATE_LIMIT_MS: f64 = 10.0;
/// Per-batch work in the last quarter of the stream may differ from the
/// first quarter by at most this factor.
const STATIONARY_FACTOR: f64 = 2.0;
/// Ingest queue capacity: large enough that the generator never blocks at
/// the offered rates, so a backlog shows as queue depth.
const QUEUE_CAPACITY: usize = 1 << 19;
/// Shortest wait between bursts of the generator.
const GENERATOR_QUANTUM: Duration = Duration::from_micros(200);

/// A processed batch as the session delivers it.
#[derive(Clone)]
pub struct Done<T> {
    /// `None` when the processor panicked on this batch.
    pub out: Option<T>,
    pub meta: StreamMeta,
    pub start_ns: u64,
    pub wall_ns: u64,
}

/// Times each `process` call from outside and keeps a panic from taking
/// the session down.
struct Timed<P>(P);

impl<P: BatchProcessor> BatchProcessor for Timed<P> {
    type Out = Done<P::Out>;

    fn process(&mut self, sealed: &SealedBatch) -> Done<P::Out> {
        let start_ns = now_ns();
        let out = catch_unwind(AssertUnwindSafe(|| self.0.process(sealed))).ok();
        Done { out, meta: sealed.meta, start_ns, wall_ns: now_ns() - start_ns }
    }
}

/// `GcsmEngine` behind the public `Engine` trait, logging each batch's
/// walk operations (which `BatchResult` does not carry).
struct WalkLogged {
    inner: GcsmEngine,
    log: Arc<Mutex<Vec<u64>>>,
}

impl Engine for WalkLogged {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config(&self) -> &EngineConfig {
        self.inner.config()
    }

    fn match_sealed(
        &mut self,
        graph: &DynamicGraph,
        batch: &[EdgeUpdate],
        query: &QueryGraph,
    ) -> BatchResult {
        let r = self.inner.match_sealed(graph, batch, query);
        let ops = self.inner.last_estimate().map_or(0, |e| e.walk_ops);
        self.log.lock().expect("walk log poisoned").push(ops);
        r
    }
}

/// The traced run's processor: `MultiProcessor` + `MultiPipeline` rebuilt
/// from [`traced_batch`], folding its spans as it goes.
struct TracedMulti {
    graph: DynamicGraph,
    engines: Vec<(QueryGraph, TracedGcsm)>,
    acc: layers::Acc,
}

#[derive(Clone)]
struct TracedOut {
    prints: Vec<Fingerprint>,
    updates_digest: u64,
}

impl BatchProcessor for TracedMulti {
    type Out = TracedOut;

    fn process(&mut self, sealed: &SealedBatch) -> TracedOut {
        trace::set_batch(sealed.meta.batch_index);
        let (results, graph_extras) =
            traced_batch(&mut self.graph, &mut self.engines, &sealed.updates);
        let extras: Vec<_> = self.engines.iter().map(|(_, e)| e.last.clone()).collect();
        self.acc.batch(&trace::take(), &results, &extras, graph_extras);
        let prints =
            results.iter().zip(&extras).map(|(r, e)| Fingerprint::of(r, e.walk_ops)).collect();
        TracedOut { prints, updates_digest: digest(&sealed.updates) }
    }
}

fn digest(updates: &[EdgeUpdate]) -> u64 {
    updates.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, u| {
        let word = (u64::from(u.src) << 32 | u64::from(u.dst)) ^ (u.op.sign() as u64);
        (h ^ word).wrapping_mul(0x100_0000_01b3)
    })
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        seal_policy: SealPolicy::Size(SEAL_SIZE),
        capacity: QUEUE_CAPACITY,
        backpressure: Backpressure::Block,
        mode: SequenceMode::Arrival,
    }
}

/// One rate step as the generator ran it.
struct StepRun {
    /// Updates `first..end` of the stream.
    first: usize,
    end: usize,
    start_ns: u64,
    late_max_ms: f64,
    /// Updates offered later than [`GENERATOR_LATE_LIMIT_MS`].
    late_count: usize,
}

/// What the generator saw of one session.
struct Drive<T, P> {
    /// Delivered batches with their receipt times, in batch order.
    receipts: Vec<(Done<T>, u64)>,
    /// Batches the session sealed (`None` if its worker died).
    sealed: Option<usize>,
    processor: Option<P>,
    /// Due time of every offered update.
    due_ns: Vec<u64>,
    steps: Vec<StepRun>,
    /// (queue depth, step) sampled after each burst, in time order.
    depth: Vec<(usize, usize)>,
    start_ns: u64,
    end_ns: u64,
    /// The generator's own spans (traced run only).
    spans: Vec<trace::Span>,
}

/// Offer `input`'s schedule to `session`: each step at its fixed rate from
/// its start, then wait for the queue to drain before the next step.
fn drive<T, P>(session: StreamSession<P>, input: &Open, traced: bool) -> Drive<T, P>
where
    T: Clone + Send + 'static,
    P: BatchProcessor<Out = Done<T>> + 'static,
{
    let rx = session.subscribe();
    let producer = session.producer();
    let mut receipts = Vec::new();
    let mut due_ns = Vec::with_capacity(input.updates.len());
    let mut steps = Vec::new();
    let mut depth = Vec::new();
    let mut alive = true;
    let mut idx = 0usize;
    let start_ns = now_ns();
    for (k, step) in input.steps.iter().enumerate() {
        let step_start = now_ns();
        let first = idx;
        let interval_ns = 1e9 / step.rate;
        let due = |j: usize| step_start + (j as f64 * interval_ns) as u64;
        let mut late_max_ms = 0.0f64;
        let mut late_count = 0;
        let mut j = 0;
        while j < step.updates && alive {
            let now = now_ns();
            if now < due(j) {
                let wait = Duration::from_nanos(due(j) - now).max(GENERATOR_QUANTUM);
                match rx.recv_timeout(wait) {
                    Ok(x) => receipts.push((x, now_ns())),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => alive = false,
                }
                continue;
            }
            {
                let _g = traced.then(|| span("stream.ingest"));
                while j < step.updates {
                    let t = now_ns();
                    if due(j) > t {
                        break;
                    }
                    let late_ms = (t - due(j)) as f64 * 1e-6;
                    late_max_ms = late_max_ms.max(late_ms);
                    late_count += usize::from(late_ms > GENERATOR_LATE_LIMIT_MS);
                    due_ns.push(due(j));
                    if !producer.ingest(input.updates[idx]) {
                        alive = false;
                        break;
                    }
                    idx += 1;
                    j += 1;
                }
            }
            depth.push((session.queue_depth(), k));
            while let Ok(x) = rx.try_recv() {
                receipts.push((x, now_ns()));
            }
        }
        steps.push(StepRun { first, end: idx, start_ns: step_start, late_max_ms, late_count });
        // Drain: the queue is empty and results have stopped arriving.
        let deadline = now_ns() + 10_000_000_000;
        while alive && now_ns() < deadline {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(x) => receipts.push((x, now_ns())),
                Err(RecvTimeoutError::Timeout) if session.queue_depth() == 0 => break,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => alive = false,
            }
        }
    }
    drop(producer);
    let (sealed, processor) = match catch_unwind(AssertUnwindSafe(|| session.finish())) {
        Ok((report, p)) => (Some(report.batches.len()), Some(p)),
        Err(_) => (None, None),
    };
    receipts.extend(rx.try_iter().map(|x| (x, now_ns())));
    receipts.sort_by_key(|(d, _)| d.meta.batch_index);
    let end_ns = now_ns();
    let spans = if traced { trace::take() } else { Vec::new() };
    Drive { receipts, sealed, processor, due_ns, steps, depth, start_ns, end_ns, spans }
}

/// One step's verdict.
struct StepEval {
    rate: f64,
    latencies_ms: Vec<f64>,
    /// Position in the stream's period of each latency's window.
    positions: Vec<usize>,
    growing: bool,
    pass: bool,
    achieved: f64,
    late_max_ms: f64,
}

/// Where a window falls in the stream's period. Windows at the same
/// position hold the same updates and meet the same graph.
fn position(meta: &StreamMeta) -> usize {
    meta.first_seq as usize / SEAL_SIZE % PERIOD_WINDOWS
}

/// Judge each step: p95 latency under the limit, generator on schedule,
/// and no growing backlog (last quarter vs first quarter of the step, by
/// latency and by queue depth).
fn evaluate<T, P>(d: &Drive<T, P>) -> Vec<StepEval> {
    d.steps
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let (mut lat, mut positions) = (Vec::new(), Vec::new());
            let mut last_recv = s.start_ns;
            for (done, recv) in &d.receipts {
                let seq = done.meta.last_seq as usize;
                if done.meta.seal_reason == SealReason::Size && (s.first..s.end).contains(&seq) {
                    lat.push(recv.saturating_sub(d.due_ns[seq]) as f64 * 1e-6);
                    positions.push(position(&done.meta));
                    last_recv = last_recv.max(*recv);
                }
            }
            let q = lat.len() / 4;
            let grows_lat = q > 0 && median(&lat[lat.len() - q..]) > 2.0 * median(&lat[..q]) + 5.0;
            let depths: Vec<f64> =
                d.depth.iter().filter(|(_, step)| *step == k).map(|(x, _)| *x as f64).collect();
            let qd = depths.len() / 4;
            let grows_depth = qd > 0
                && median(&depths[depths.len() - qd..])
                    > median(&depths[..qd]) + 4.0 * SEAL_SIZE as f64;
            let growing = grows_lat || grows_depth;
            let pass = lat.len() >= 8
                && percentile(&lat, 0.95) <= LATENCY_LIMIT_MS
                && s.late_count * 100 <= s.end - s.first
                && !growing;
            let span_s = last_recv.saturating_sub(s.start_ns) as f64 * 1e-9;
            let achieved = if span_s > 0.0 { (s.end - s.first) as f64 / span_s } else { 0.0 };
            StepEval {
                rate: STREAM_RATES[k],
                latencies_ms: lat,
                positions,
                growing,
                pass,
                achieved,
                late_max_ms: s.late_max_ms,
            }
        })
        .collect()
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let input = inputs::open(seed, seconds);
    let cfg = inputs::engine_config(&input.g0);
    let plan = cfg.plan;
    let nq = input.queries.len();
    let mut out = Outcome::default();

    // ---- set-up: MultiPipeline, one engine per query, ledger bases ----
    let walk_log = Arc::new(Mutex::new(Vec::new()));
    let mut setup_s = Vec::new();
    let mut system = None;
    for _ in 0..SETUP_REPS {
        let (g0, queries) = (input.g0.clone(), input.queries.clone());
        drop(system.take());
        let t = Instant::now();
        let mut multi = MultiPipeline::new(g0);
        for q in queries {
            let engine =
                WalkLogged { inner: GcsmEngine::new(cfg.clone()), log: Arc::clone(&walk_log) };
            multi = multi.register(q, Box::new(engine));
        }
        let bases: Vec<i64> =
            input.queries.iter().map(|q| static_count(multi.graph(), q, plan)).collect();
        setup_s.push(t.elapsed().as_secs_f64());
        system = Some((multi, bases));
    }
    let (multi, bases) = system.expect("SETUP_REPS >= 1");

    // ---- untraced open-loop run ----
    let session =
        StreamSession::spawn(Timed(MultiProcessor::new(multi, bases.clone())), stream_config());
    let mut d: Drive<MultiStreamBatch, _> = drive(session, &input, false);
    let peak_rss = peak_rss_mib();
    drop(d.processor.take());
    let walk_ops = std::mem::take(&mut *walk_log.lock().expect("walk log poisoned"));

    // ---- correctness ----
    let mut prints = Vec::new();
    let mut batches: Vec<Vec<EdgeUpdate>> = Vec::new();
    let mut digests = Vec::new();
    let mut sim_ms = Vec::new();
    for (b, (done, _)) in d.receipts.iter().enumerate() {
        let Some(msb) = done.out.as_ref() else {
            prints.extend((0..nq).map(|_| None));
            continue;
        };
        for (q, (_, r)) in msb.per_query.iter().enumerate() {
            let ops = walk_ops.get(b * nq + q).copied().unwrap_or(u64::MAX);
            prints.push(Some(Fingerprint::of(r, ops)));
        }
        if batches.len() == b {
            batches.push(msb.updates.clone());
        }
        digests.push(digest(&msb.updates));
        sim_ms.push(msb.per_query.iter().map(|(_, r)| r.total_ms()).sum::<f64>());
    }
    let reference = checks::reference(&input.g0, &input.queries, &batches, plan, seed);
    checks::judge(&mut out, &reference, &prints, nq);
    match d.sealed {
        Some(n) if n > d.receipts.len() => {
            out.attempted += (n - d.receipts.len()) as u64;
            out.failed += (n - d.receipts.len()) as u64;
        }
        Some(_) => {}
        None => {
            out.attempted += 1;
            out.failed += 1;
            out.violate("stream worker panicked");
        }
    }
    let last_totals =
        d.receipts.last().and_then(|(done, _)| done.out.as_ref()).map(|m| m.running_totals.clone());
    for (q, query) in input.queries.iter().enumerate() {
        let want = static_count(&reference.final_graph, query, plan);
        let got = last_totals.as_ref().and_then(|t| t.get(q)).map(|(_, v)| *v);
        if got != Some(want) {
            out.violate(format!(
                "ledger {}: running total {got:?} != static_count(G_final) {want}",
                query.name()
            ));
        }
    }
    drop(reference);
    checks::anchors(&mut out, "stream-open", seed, seconds, &prints, &sim_ms);
    // Stationarity: per-batch work at the end of the stream vs the start.
    let work: Vec<f64> = prints
        .chunks(nq)
        .map(|c| c.iter().flatten().map(|p| p.intersect_ops as f64).sum())
        .collect();
    let q = work.len() / 4;
    let drift = if q > 0 { mean(&work[work.len() - q..]) / mean(&work[..q]).max(1.0) } else { 1.0 };
    out.note(
        "stream.work_drift_ratio",
        format!("{drift:.3} (last/first quarter intersect ops per batch)"),
    );
    if !(1.0 / STATIONARY_FACTOR..=STATIONARY_FACTOR).contains(&drift) {
        out.violate(format!("stream not stationary: per-batch work drifted {drift:.2}x"));
    }

    let steps = evaluate(&d);
    for s in &steps {
        out.note(
            &format!("step {:>6} updates/s", s.rate),
            format!(
                "{} batches, p50 {:.2} ms, p95 {:.2} ms, generator late max {:.2} ms, backlog {}, achieved {:.0}/s, {}",
                s.latencies_ms.len(),
                median(&s.latencies_ms),
                percentile(&s.latencies_ms, 0.95),
                s.late_max_ms,
                if s.growing { "grows" } else { "steady" },
                s.achieved,
                if s.pass { "PASS" } else { "fail" }
            ),
        );
    }
    let sustained = steps.iter().take_while(|s| s.pass).last().map_or(0.0, |s| s.achieved);
    if sustained == 0.0 {
        out.violate("no offered rate was sustained");
    }

    if traced {
        let untraced_wall_s: f64 = d.receipts.iter().map(|(x, _)| x.wall_ns as f64 * 1e-9).sum();
        traced_run(&mut out, &input, cfg, &prints, &digests, untraced_wall_s);
        return out;
    }

    // Wall figures are over the positions of the stream's period, each
    // window at its best over the periods the run replays (every step for
    // batch wall, the nominal step for latency).
    let sized: Vec<&Done<MultiStreamBatch>> = d
        .receipts
        .iter()
        .map(|(x, _)| x)
        .filter(|x| x.meta.seal_reason == SealReason::Size)
        .collect();
    let misaligned = sized
        .iter()
        .filter(|x| {
            !(x.meta.first_seq as usize).is_multiple_of(SEAL_SIZE) || x.meta.admitted != SEAL_SIZE
        })
        .count();
    out.note("stream.misaligned_windows", format!("{misaligned} of {}", sized.len()));
    let walls_ms =
        best_of(sized.iter().map(|x| (position(&x.meta), x.wall_ns as f64 * 1e-6)), PERIOD_WINDOWS);
    let nominal = &steps[NOMINAL_STEP];
    let latency_ms = best_of(
        nominal.positions.iter().copied().zip(nominal.latencies_ms.iter().copied()),
        PERIOD_WINDOWS,
    );
    // Admitted updates per second of worker processing time.
    let rate = (walls_ms.len() * SEAL_SIZE) as f64 / (walls_ms.iter().sum::<f64>() * 1e-3);
    out.push("updates_per_s", rate, "updates/s", Clock::Wall);
    out.push("batch_wall_ms.p50", median(&walls_ms), "ms", Clock::Wall);
    out.push("batch_wall_ms.p90", percentile(&walls_ms, 0.9), "ms", Clock::Wall);
    out.push("sim_ms_per_batch", mean(&sim_ms), "ms", Clock::Sim);
    out.push("e2e_latency_ms.p50", median(&latency_ms), "ms", Clock::Wall);
    out.push("e2e_latency_ms.p95", percentile(&latency_ms, 0.95), "ms", Clock::Wall);
    out.push("sustained_updates_per_s", sustained, "updates/s", Clock::Wall);
    out.push("setup_s", median(&setup_s), "s", Clock::Wall);
    out.push("peak_rss_mb", peak_rss, "MiB", Clock::None);
    out.note(
        "batches",
        format!(
            "{} ({} at the nominal rate; {} positions a period)",
            d.receipts.len(),
            nominal.latencies_ms.len(),
            PERIOD_WINDOWS
        ),
    );
    out.note("setup_s.runs", format!("{setup_s:?}"));
    out
}

/// The same schedule again through [`TracedMulti`], with spans.
fn traced_run(
    out: &mut Outcome,
    input: &Open,
    cfg: EngineConfig,
    untraced: &[Option<Fingerprint>],
    digests: &[u64],
    untraced_wall_s: f64,
) {
    let engines = input.queries.iter().map(|q| (q.clone(), TracedGcsm::new(cfg.clone()))).collect();
    let processor = TracedMulti {
        graph: DynamicGraph::from_csr(&input.g0),
        engines,
        acc: layers::Acc::default(),
    };
    let session = StreamSession::spawn(Timed(processor), stream_config());
    let d: Drive<TracedOut, _> = drive(session, input, true);
    let nq = input.queries.len();
    if d.receipts.len() != digests.len() {
        out.violate(format!(
            "traced run sealed {} batches, untraced {}",
            d.receipts.len(),
            digests.len()
        ));
        return;
    }
    for (b, (done, _)) in d.receipts.iter().enumerate() {
        let Some(t) = done.out.as_ref() else {
            out.violate(format!("traced run panicked on batch {b}"));
            return;
        };
        if t.updates_digest != digests[b] {
            out.violate(format!("traced run differs from untraced on batch {b}: updates"));
            return;
        }
        for (q, print) in t.prints.iter().enumerate() {
            let field = untraced
                .get(b * nq + q)
                .and_then(|u| u.as_ref())
                .map_or(Some("batch"), |u| print.first_difference(u));
            if let Some(field) = field {
                out.violate(format!("traced run differs from untraced on batch {b}: {field}"));
                return;
            }
        }
    }
    let Some(Timed(mut processor)) = d.processor else {
        out.violate("traced stream worker panicked");
        return;
    };
    processor.acc.profile.fold(&d.spans);
    // Queue figures at the nominal rate; the overload step's backlog shows
    // in its own verdict, not here.
    let busy_ns: u64 = d.receipts.iter().map(|(x, _)| x.wall_ns).sum();
    let nominal = &d.steps[NOMINAL_STEP];
    let at_nominal: Vec<&Done<TracedOut>> = d
        .receipts
        .iter()
        .map(|(x, _)| x)
        .filter(|x| x.meta.seal_reason == SealReason::Size)
        .filter(|x| (nominal.first..nominal.end).contains(&(x.meta.last_seq as usize)))
        .collect();
    let waits: Vec<f64> = at_nominal
        .iter()
        .map(|x| x.start_ns.saturating_sub(d.due_ns[x.meta.last_seq as usize]) as f64 * 1e-6)
        .collect();
    let windows: Vec<f64> = at_nominal.iter().map(|x| x.meta.window_open_seconds * 1e3).collect();
    let stream = StreamLayer {
        queue_depth_max: at_nominal
            .iter()
            .map(|x| x.meta.queue_depth)
            .chain(d.depth.iter().filter(|(_, k)| *k == NOMINAL_STEP).map(|(x, _)| *x))
            .max()
            .unwrap_or(0) as f64,
        window_open_ms: median(&windows),
        worker_busy_ratio: busy_ns as f64 / d.end_ns.saturating_sub(d.start_ns).max(1) as f64,
        generator_late_ms_max: d.steps.iter().map(|s| s.late_max_ms).fold(0.0, f64::max),
        queue_wait_ms: median(&waits),
    };
    processor.acc.report(out, untraced_wall_s, &stream);
}
