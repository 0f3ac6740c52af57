//! Every fixed parameter of the four workloads, in one place.
//!
//! `BENCHMARK.json` may only carry the keys its contract names, so the
//! generator parameters the guard rails depend on (threads, think
//! ratio, events per epoch, depth bound, dup position) are fixed here
//! instead. Changing any of them changes the inputs and therefore needs
//! a new baseline: it is a benchmark change, never part of a change that
//! claims a gain.

use crate::gen::GenParams;

/// The four workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = [
    "dfs-serial",
    "dpor-parallel",
    "conform-dense",
    "conform-sparse",
];

/// Seed `run.sh` uses when none is given. The guard rails are verified
/// on it and on the held-out seed 2.
pub const DEFAULT_SEED: u64 = 1;

/// How long a run times passes for when `--seconds` is not given; the
/// same figure as `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// How many times a run sets up (input generation + warm-up pass);
/// `setup_s` is the median. Repeats stop early once `SETUP_BUDGET_S` is
/// spent, so a slow box pays for one set-up, not three.
pub const SETUP_REPS: usize = 3;
pub const SETUP_BUDGET_S: f64 = 6.0;

/// Fewest timed passes a run reports from, whatever `--seconds` says.
pub const MIN_PASSES: usize = 5;

/// Workers of the `dpor-parallel` explorer: `min(nproc, 4)`.
pub const MAX_DPOR_THREADS: usize = 4;

/// Shortest measurement of one orc11 micro-probe / one native probe.
pub const ORC11_PROBE_S: f64 = 1.0;
pub const NATIVE_PROBE_S: f64 = 2.0;
/// Window the native probes take their median over.
pub const NATIVE_WINDOW_S: f64 = 0.2;

/// A pass may not spend more than this share in a single epoch check,
/// and the process may not peak above this resident set (verified on the
/// default and the held-out seed; the hard limits are in `guard.rs`).
pub const MAX_EPOCH_SHARE: f64 = 0.25;
pub const MAX_PEAK_RSS_MB: f64 = 1024.0;

/// One conform regime: how the clean streams and the control are made.
pub struct Regime {
    pub gen: GenParams,
    /// Shape seed of the regime's streams (see `gen.rs`); each stream
    /// xors its own constant in.
    pub shape_seed: u64,
    /// Epochs of the control stream (sized so its conviction takes at
    /// least a quarter second).
    pub control_epochs: usize,
}

/// `conform-dense`: the full-recording regime of `e11_conform`. Four
/// virtual threads thinking about as long as they operate keep ~2
/// operations in flight, so every epoch has real overlap for
/// `history::find_linearization` to search through.
pub const DENSE: Regime = Regime {
    gen: GenParams {
        threads: 4,
        op_ns: (80, 120),
        think_eighths: 8,
        epoch_events: (96, 128),
        epochs: 60,
        max_depth: 12,
        dup_per_mille: 750,
    },
    shape_seed: 1,
    control_epochs: 50,
};

/// `conform-sparse`: the sampled-soak regime of `e13_soak`. Think time
/// is 256 operations' worth, so histories are near-sequential and the
/// search is a straight walk; the cost is the polynomial part of the
/// check (graph build, `check_takes`, predecessor scans), cubic in the
/// 384-512-event epochs.
pub const SPARSE: Regime = Regime {
    gen: GenParams {
        threads: 4,
        op_ns: (80, 120),
        think_eighths: 2048,
        epoch_events: (384, 512),
        epochs: 6,
        max_depth: 12,
        dup_per_mille: 750,
    },
    shape_seed: 1,
    control_epochs: 4,
};
