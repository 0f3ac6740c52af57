//! Verdict-time benchmark for the Compass reproduction.
//!
//! `run.sh` builds this crate and hands it its arguments. With
//! `--workload` it performs one run — one workload, one seed, one fresh
//! process — and prints the result object on its last line; without, it
//! runs the whole suite, every workload untraced then traced, each in a
//! process of its own, and writes `benchmark/out/results.json`.
//!
//! See `README.md` for why each workload and subject was chosen.

mod affinity;
mod answers;
mod conform;
mod gen;
mod guard;
mod metrics;
mod model;
mod params;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;
mod workload;

use std::process::ExitCode;

/// Command-line options of both modes.
pub struct Args {
    /// One of `params::WORKLOADS`; `None` runs the suite.
    pub workload: Option<String>,
    pub seed: u64,
    /// How long one run measures (timed passes), in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Short variant for CI: one set-up, two passes, brief probes.
    pub smoke: bool,
    /// Suite only: how many sets of runs.
    pub repeat: usize,
    /// Seconds `run.sh` spent in `cargo build`, reported as `build_s`.
    pub build_s: Option<f64>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload <{}>] [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--repeat N]",
        params::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Option<Args> {
    let mut a = Args {
        workload: None,
        seed: params::DEFAULT_SEED,
        seconds: params::DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        build_s: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => a.smoke = true,
            "--workload" => a.workload = Some(it.next()?),
            "--seed" => a.seed = it.next()?.parse().ok()?,
            "--seconds" => a.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => a.trace = it.next()?.parse::<u8>().ok().filter(|t| *t <= 1)? == 1,
            "--repeat" => a.repeat = it.next()?.parse().ok().filter(|n| *n >= 1)?,
            "--build-s" => a.build_s = it.next()?.parse().ok(),
            _ => return None,
        }
    }
    if let Some(w) = &a.workload {
        if !params::WORKLOADS.contains(&w.as_str()) {
            return None;
        }
    }
    Some(a)
}

fn main() -> ExitCode {
    let Some(args) = parse() else {
        return usage();
    };
    if args.workload.is_some() {
        run::single(&args)
    } else {
        suite::run(&args)
    }
}
