//! `perfbench`: the repository benchmark.
//!
//! One command runs one workload with one seed:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload map-suite --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root. Workloads (see `README.md` in this
//! directory for what each one measures and why):
//!
//! * `map-suite`   — batch: map the eight Table 2 apps at paper scale;
//! * `sim-sweep`   — batch: simulate mapped programs under five policies;
//! * `serve-churn` — open loop: L1 / L2 / compute mix with L2 on.
//!
//! With `--trace 0` the last stdout line carries every end-to-end metric
//! named in `BENCHMARK.json`; with `--trace 1` it carries every per-layer
//! metric, measured from spans the benchmark opens around the public
//! calls it makes. Any failed correctness check makes the exit code 1.

mod clock;
mod map_suite;
mod record;
mod serve;
mod sim_sweep;
mod stats;
mod trace;
mod variant;

use record::Run;

/// Every workload the benchmark runs, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["map-suite", "sim-sweep", "serve-churn"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Input seed; `0` runs the unmodified inputs.
    pub seed: u64,
    /// How long the timed part measures, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // The metric list comes from BENCHMARK.json; without it (or outside
    // the repository root) there is nothing to report against.
    let mut run = match Run::new(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run.args.workload.as_str() {
        "map-suite" => map_suite::run(&mut run),
        "sim-sweep" => sim_sweep::run(&mut run),
        _ => serve::run_churn(&mut run),
    };
    if let Err(e) = outcome {
        run.fail(e);
    }
    std::process::exit(run.finish());
}
