//! Two-clock benchmark of the GCSM workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload social-q1|rmat-tri-bulk|stream-open|all \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Every metric is printed by name with its unit and clock (`sim`: gpusim's
//! deterministic model; `wall`: host time). The last line of standard output
//! is one JSON object: `--trace 0` carries the end-to-end metrics of an
//! untraced run, `--trace 1` the per-layer metrics of a separate traced run
//! of the same batches. The process exits 1 when a correctness check fails
//! and 2 on bad arguments. See `perfbench/design.json` for the workloads'
//! reasons, the metric predictions and the recorded baseline.

mod checks;
mod closed;
mod inputs;
mod layers;
mod open;
mod replica;
mod report;
mod trace;

use report::{result_json, Outcome};

/// Seed used when `--seed` is absent. `design.json` also names a held-out
/// seed for confirming claims.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
const WORKLOADS: [&str; 3] = ["social-q1", "rmat-tri-bulk", "stream-open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 12, trace: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&args.seconds) {
                    return Err("--seconds: must be 1..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload: expected one of {WORKLOADS:?} or all, got '{}'",
            args.workload
        ));
    }
    Ok(args)
}

fn run_one(workload: &str, args: &Args) -> Outcome {
    match workload {
        "social-q1" => {
            closed::run(&inputs::SOCIAL_Q1, workload, args.seed, args.seconds, args.trace)
        }
        "rmat-tri-bulk" => {
            closed::run(&inputs::RMAT_TRI_BULK, workload, args.seed, args.seconds, args.trace)
        }
        "stream-open" => open::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("validated in parse_args"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let list: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0, 0, Vec::new());
    for w in &list {
        let outcome = run_one(w, &args);
        outcome.print(w);
        correct &= outcome.correct();
        attempted += outcome.attempted;
        failed += outcome.failed;
        let prefix = if list.len() > 1 { format!("{w}/") } else { String::new() };
        for mut m in outcome.metrics {
            if !m.value.is_finite() {
                println!("{w:<14} VIOLATION metric {} is not finite", m.name);
                correct = false;
                m.value = 0.0;
            }
            m.name = format!("{prefix}{}", m.name);
            metrics.push(m);
        }
    }
    println!("{}", result_json(correct, attempted.max(1), failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
