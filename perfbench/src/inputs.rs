//! Workload inputs, generated from the seed alone.
//!
//! The program under test receives only what is built here: `G_0`, the
//! queries and the update batches. As in the paper's protocol, each
//! workload's graph is a fixed dataset (generated from [`DATASET_SEED`]).
//! On the closed loops its update sample is fixed too and `--seed` draws
//! the order in which the updates are batched; on `stream-open` `--seed`
//! draws the temporal segment. `--seconds` sets how much
//! work a run does through fixed per-workload rates, never through a
//! measurement of the machine, so the same (seed, seconds) gives the same
//! batches.

use gcsm::EngineConfig;
use gcsm_graph::{CoalesceWindow, CsrGraph, EdgeUpdate, UpdateOp};
use gcsm_pattern::QueryGraph;

/// The cache budget every workload uses: 1/8 of `G_0`'s adjacency bytes,
/// with the same 64 KiB floor as the `csm` binary.
pub fn engine_config(g0: &CsrGraph) -> EngineConfig {
    let budget = ((g0.adjacency_bytes() as f64 * 0.125) as usize).max(64 << 10);
    EngineConfig::with_cache_budget(budget)
}

/// Seed of the generated graphs: the `csm --demo` dataset seed.
pub const DATASET_SEED: u64 = 42;

/// Inputs of a closed-loop workload.
pub struct Closed {
    pub g0: CsrGraph,
    pub query: QueryGraph,
    /// [`ROUNDS`] copies of one sequence of `len` batches, back to back.
    pub batches: Vec<Vec<EdgeUpdate>>,
    /// Batches in one round.
    pub len: usize,
}

/// Times a closed-loop run replays its batch sequence. The sequence ends
/// on `G_0`, so batch `i` meets the same graph in every round, and the
/// batch wall percentiles take each batch's best of its rounds: host load
/// from outside the process has to hit a batch in every round to move them.
pub const ROUNDS: usize = 3;

/// Closed-loop shape: graph family, query, stream fraction, batch size, and
/// the batch rate that sets the work per `--seconds`.
pub struct ClosedSpec {
    pub graph: fn() -> CsrGraph,
    pub query: fn() -> QueryGraph,
    pub fraction: f64,
    pub batch: usize,
    pub batches_per_second: usize,
}

pub const SOCIAL_Q1: ClosedSpec = ClosedSpec {
    graph: || {
        let config = gcsm_datagen::social::SocialConfig::new(15, 6, DATASET_SEED);
        gcsm_datagen::social::generate_social(&config)
    },
    query: gcsm_pattern::queries::q1,
    fraction: 0.1,
    batch: 256,
    batches_per_second: 70,
};

pub const RMAT_TRI_BULK: ClosedSpec = ClosedSpec {
    graph: || {
        gcsm_datagen::rmat::generate(&gcsm_datagen::rmat::RmatConfig::new(18, 16, DATASET_SEED))
    },
    query: gcsm_pattern::queries::triangle,
    fraction: 0.15,
    batch: 4096,
    batches_per_second: 40,
};

/// Build a closed-loop workload. The paper-protocol stream (`UpdateStream`:
/// a half-insert, half-delete sample of the edges, drawn once from
/// [`DATASET_SEED`]) is cut to whole batches. One round is a whole number
/// of pass pairs: a pass of the stream then a pass of its inverse (every
/// insert a delete and vice versa), each pass in a fresh order drawn from
/// `seed`. Every pass is therefore applicable in any order and the graph
/// returns to `G_0` after each pair, so the round can be replayed
/// [`ROUNDS`] times. Which edges the sample holds moved social-q1's
/// `sim_ms_per_batch` by about 10% from one sample to the next; the order
/// moves it by about 1%.
pub fn closed(spec: &ClosedSpec, seed: u64, seconds: u64) -> Closed {
    let graph = (spec.graph)();
    let stream = gcsm_datagen::UpdateStream::generate(
        &graph,
        gcsm_datagen::StreamConfig::Fraction(spec.fraction),
        DATASET_SEED ^ 0x5157_7EA4,
    );
    let whole = stream.updates.len() / spec.batch * spec.batch;
    let mut forward = stream.updates;
    forward.truncate(whole);
    let pair = 2 * (whole / spec.batch);
    let wanted = seconds as usize * spec.batches_per_second;
    // At least 100 batches a round, so p90 has ten batches beyond it.
    let pairs = ((wanted as f64 / (ROUNDS * pair) as f64).round() as usize)
        .max(100usize.div_ceil(pair))
        .max(1);
    let mut rng = SplitMix(seed ^ 0x0BA7_C4E5);
    let mut round = Vec::with_capacity(pairs * pair);
    for pass in 0..2 * pairs {
        let mut updates: Vec<EdgeUpdate> = if pass % 2 == 1 {
            forward.iter().map(|u| invert(*u)).collect()
        } else {
            forward.clone()
        };
        rng.shuffle(&mut updates);
        round.extend(updates.chunks(spec.batch).map(<[EdgeUpdate]>::to_vec));
    }
    let len = round.len();
    let batches = round.iter().cycle().take(ROUNDS * len).cloned().collect();
    Closed { g0: stream.initial, query: (spec.query)(), batches, len }
}

fn invert(u: EdgeUpdate) -> EdgeUpdate {
    match u.op {
        UpdateOp::Insert => EdgeUpdate::delete(u.src, u.dst),
        UpdateOp::Delete => EdgeUpdate::insert(u.src, u.dst),
    }
}

/// One step of the open-loop schedule: a fixed absolute rate.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub rate: f64,
    pub updates: usize,
}

/// Offered rates of `stream-open`, in updates per second. Fixed numbers:
/// never derived from the machine. The second is the nominal rate at which
/// latency is reported; the last is meant to overload the session.
pub const STREAM_RATES: [f64; 3] = [20_000.0, 40_000.0, 400_000.0];
pub const NOMINAL_STEP: usize = 1;
/// Share of `--seconds` each step lasts.
const STEP_SHARE: [f64; 3] = [0.15, 0.75, 0.05];
/// Window size of the stream session.
pub const SEAL_SIZE: usize = 512;
/// Length of the temporal segment the stream cycles through.
const SEGMENT: usize = 32_768;
/// Windows in one period of the stream: the segment, then its undo.
pub const PERIOD_WINDOWS: usize = 2 * SEGMENT / SEAL_SIZE;

/// Inputs of the open-loop workload.
pub struct Open {
    pub g0: CsrGraph,
    pub queries: Vec<QueryGraph>,
    pub updates: Vec<EdgeUpdate>,
    pub steps: Vec<Step>,
}

/// The temporal generator only emits updates that apply, and a delete
/// applies only where the focus region is already dense, so its streams are
/// mostly inserts and the graph keeps growing. To stay stationary the
/// stream cycles: a temporal segment `S`, then `S` undone (reversed, every
/// update inverted), then `S` again. Locality is kept in both directions.
/// `S` is made of whole windows that coalesce nothing, so the session's
/// windows fall on multiples of [`SEAL_SIZE`] and every period of
/// [`PERIOD_WINDOWS`] windows replays the same windows on the same graph.
pub fn open(seed: u64, seconds: u64) -> Open {
    let config = gcsm_datagen::social::SocialConfig::new(15, 6, DATASET_SEED);
    let graph = gcsm_datagen::social::generate_social(&config);
    let steps: Vec<Step> = STREAM_RATES
        .iter()
        .zip(STEP_SHARE)
        .enumerate()
        .map(|(i, (&rate, share))| {
            let mut n = (rate * share * seconds as f64) as usize;
            if i == NOMINAL_STEP {
                // At least 212 sealed windows at the nominal rate: every
                // position of a period is met at least once.
                n = n.max(SEAL_SIZE * 212);
            }
            Step { rate, updates: n.max(SEAL_SIZE * 8) }
        })
        .collect();
    let raw = gcsm_datagen::temporal::temporal_stream(
        &graph,
        &gcsm_datagen::temporal::TemporalConfig {
            updates: SEGMENT + SEGMENT / 2,
            locality: 0.8,
            region: 4096,
            drift_every: 2048,
            seed: seed ^ 0x000D_E71A,
        },
    );
    let segment = coalesced_windows(&raw, SEGMENT);
    assert_eq!(segment.len(), SEGMENT, "temporal generator fell short");
    let total: usize = steps.iter().map(|s| s.updates).sum();
    let updates = (0..total)
        .map(|i| {
            let (k, r) = (i / SEGMENT, i % SEGMENT);
            if k % 2 == 1 {
                invert(segment[SEGMENT - 1 - r])
            } else {
                segment[r]
            }
        })
        .collect();
    Open {
        g0: graph,
        queries: vec![gcsm_pattern::queries::triangle(), gcsm_pattern::queries::q2()],
        updates,
        steps,
    }
}

/// The windows a `SealPolicy::Size(SEAL_SIZE)` session would seal from
/// `raw`, back to back, up to `len` updates: each window's survivors of
/// `CoalesceWindow`, whose sequence-ordered application is the session's own
/// semantics. Each window holds [`SEAL_SIZE`] distinct edges.
fn coalesced_windows(raw: &[EdgeUpdate], len: usize) -> Vec<EdgeUpdate> {
    let mut out = Vec::with_capacity(len);
    let mut window = CoalesceWindow::new();
    for (seq, &u) in raw.iter().enumerate() {
        if out.len() == len {
            break;
        }
        window.admit(seq as u64, u);
        if window.len() == SEAL_SIZE {
            out.extend(window.drain().0);
        }
    }
    out
}

/// splitmix64: a tiny seeded generator for the pass shuffles.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}
