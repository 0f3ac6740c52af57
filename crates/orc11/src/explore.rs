//! Drivers for exploring a program's executions.
//!
//! Stateless model checking: a [`Model`] is re-run many times, each time
//! with a different [`crate::Strategy`]. [`Explorer::random`] samples
//! interleavings with seeded random strategies, [`Explorer::pct`] uses
//! PCT priority scheduling, and [`Explorer::dfs`] enumerates the
//! decision tree exhaustively (bounded by an execution budget). All
//! three are thin wrappers over one engine ([`Explorer::explore`]) that
//! pulls [`StrategyDesc`]s from a shared [`crate::WorkSource`] — with
//! [`Explorer::threads`] workers in parallel when asked (or by default,
//! via `COMPASS_THREADS`), with a deterministic merged report.

use std::fmt;

use crate::error::ModelError;
use crate::exec::RunOutcome;
use crate::model::Model;
use crate::parallel::{self, Sink};
use crate::work::{StrategyDesc, WorkSpec};

/// Default cap on the number of [`ModelError`]s kept verbatim in an
/// [`ExploreReport`] (the *count* is always exact).
pub const DEFAULT_MAX_ERRORS: usize = 16;

/// The PCT scheduling-decision horizon used by [`Explorer::pct`].
pub const DEFAULT_PCT_HORIZON: u64 = 64;

/// Aggregated result of an exploration.
///
/// Reports merge ([`ExploreReport::merge`]): every field is either a
/// commutative accumulation (counters, histograms, coverage) or kept in
/// descriptor order (errors), so a parallel exploration's merged report
/// equals the serial one.
#[derive(Debug)]
pub struct ExploreReport {
    /// Executions performed.
    pub execs: u64,
    /// Executions that completed without a model error.
    pub ok: u64,
    /// Model errors encountered, with the descriptor of the execution
    /// that produced each, sorted by descriptor (= serial visit order).
    /// At most [`ExploreReport::max_errors`] are kept.
    pub errors: Vec<(StrategyDesc, ModelError)>,
    /// Total number of errors (may exceed `errors.len()`).
    pub error_count: u64,
    /// Cap on `errors` (default [`DEFAULT_MAX_ERRORS`]); the smallest
    /// descriptors win, which is what a serial run's "first N" is.
    pub max_errors: usize,
    /// For DFS: whether the decision tree was fully explored within the
    /// execution budget.
    pub exhausted: bool,
    /// For DFS: whether the execution budget cut the enumeration short.
    /// A truncated run visits a worker-schedule-dependent subset of the
    /// tree, so its counts are not comparable across thread counts.
    pub truncated: bool,
    /// DPOR pruning counters ([`crate::WorkSpec::DfsDpor`] runs only).
    pub dpor: Option<crate::stats::DporStats>,
    /// Online state-space size estimate (DFS/DPOR runs only; see
    /// [`crate::stats::Estimate`]). Emitted by [`ExploreReport::to_json`]
    /// only when `exhausted` — a truncated parallel run's estimate
    /// reflects a thread-count-dependent subset of the tree.
    pub estimate: Option<crate::stats::Estimate>,
    /// Total model steps across all executions.
    pub total_steps: u64,
    /// Instruction counters summed over all executions.
    pub stats: crate::stats::ExecStats,
    /// Steps-per-execution distribution (log2 buckets).
    pub steps_hist: crate::stats::StepHistogram,
    /// Schedule coverage: distinct choice traces and (for DFS) decision
    /// tree nodes visited.
    pub coverage: crate::stats::Coverage,
    /// Per-phase busy-time breakdown, averaged per worker so the entries
    /// sum to at most the exploration's wall time (see [`crate::trace`]).
    /// Wall-clock measurements: like `check_ns` in the checker, this
    /// field is excluded from the byte-identical determinism guarantee
    /// and normalized by determinism tests.
    pub phase_ns: crate::trace::PhaseNs,
    /// Per-worker load-balance counters, indexed by worker. Scheduling-
    /// dependent, so *not* part of [`ExploreReport::to_json`] — use
    /// [`ExploreReport::workers_json`] for metrics.
    pub workers: Vec<crate::stats::WorkerStats>,
    /// Arena reuse counters (see [`crate::stats::ReuseStats`]).
    /// Scheduling- and warm-state-dependent (a worker's arena persists
    /// across explorations on the same OS thread), so — like `workers` —
    /// excluded from [`ExploreReport::to_json`]; use
    /// [`ExploreReport::reuse_json`] for metrics.
    pub reuse: crate::stats::ReuseStats,
}

impl Default for ExploreReport {
    fn default() -> Self {
        ExploreReport::with_max_errors(DEFAULT_MAX_ERRORS)
    }
}

impl ExploreReport {
    /// An empty report keeping at most `max_errors` errors verbatim.
    pub fn with_max_errors(max_errors: usize) -> Self {
        ExploreReport {
            execs: 0,
            ok: 0,
            errors: Vec::new(),
            error_count: 0,
            max_errors,
            exhausted: false,
            truncated: false,
            dpor: None,
            estimate: None,
            total_steps: 0,
            stats: Default::default(),
            steps_hist: Default::default(),
            coverage: Default::default(),
            phase_ns: Default::default(),
            workers: Vec::new(),
            reuse: Default::default(),
        }
    }

    pub(crate) fn record<R>(&mut self, desc: &StrategyDesc, out: &RunOutcome<R>) {
        self.execs += 1;
        self.total_steps += out.steps;
        self.stats.merge(&out.stats);
        self.steps_hist.record(out.steps);
        self.coverage.record_trace(&out.trace);
        match &out.result {
            Ok(_) => self.ok += 1,
            Err(e) => {
                self.error_count += 1;
                self.keep_error(desc.clone(), e.clone());
            }
        }
    }

    /// Inserts in descriptor order, keeping the `max_errors` smallest.
    fn keep_error(&mut self, desc: StrategyDesc, err: ModelError) {
        let pos = self.errors.partition_point(|(d, _)| *d < desc);
        if pos < self.max_errors {
            self.errors.insert(pos, (desc, err));
            self.errors.truncate(self.max_errors);
        }
    }

    /// Folds another worker's report into this one. Order-insensitive:
    /// merging per-worker reports in any order yields the same totals,
    /// and the same `errors` list, as one serial report.
    pub fn merge(&mut self, other: ExploreReport) {
        self.execs += other.execs;
        self.ok += other.ok;
        self.error_count += other.error_count;
        self.exhausted |= other.exhausted;
        self.truncated |= other.truncated;
        match (&mut self.dpor, other.dpor) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
        match (&mut self.estimate, other.estimate) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
        self.total_steps += other.total_steps;
        self.stats.merge(&other.stats);
        self.steps_hist.merge(&other.steps_hist);
        self.coverage.merge(&other.coverage);
        self.phase_ns.merge(&other.phase_ns);
        if self.workers.len() < other.workers.len() {
            self.workers.resize(other.workers.len(), Default::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(other.workers.iter()) {
            mine.merge(theirs);
        }
        self.reuse.merge(&other.reuse);
        for (desc, err) in other.errors {
            self.keep_error(desc, err);
        }
    }

    /// Machine-readable form (see `EXPERIMENTS.md`, "Observability &
    /// replay", for the schema).
    pub fn to_json(&self) -> crate::Json {
        crate::Json::obj()
            .set("execs", self.execs)
            .set("ok", self.ok)
            .set("error_count", self.error_count)
            .set("exhausted", self.exhausted)
            .set("truncated", self.truncated)
            .set(
                "dpor",
                match &self.dpor {
                    Some(d) => d.to_json(),
                    None => crate::Json::Null,
                },
            )
            .set(
                "estimate",
                match &self.estimate {
                    // Only an exhausted run's estimate is a deterministic
                    // function of the work spec; a truncated run visits a
                    // thread-count-dependent subset of the tree.
                    Some(e) if self.exhausted => e.to_json(),
                    _ => crate::Json::Null,
                },
            )
            .set("total_steps", self.total_steps)
            .set("stats", self.stats.to_json())
            .set("steps_hist", self.steps_hist.to_json())
            .set(
                "coverage",
                crate::Json::obj()
                    .set("distinct_traces", self.coverage.distinct_traces())
                    .set("dfs_nodes", self.coverage.dfs_nodes),
            )
            .set("phase_ns", self.phase_ns.to_json())
    }

    /// The per-worker load-balance counters as JSON (worker-index
    /// sorted). Kept separate from [`ExploreReport::to_json`] because
    /// worker stats depend on the run's scheduling, which would break
    /// the byte-identical guarantee that function carries.
    pub fn workers_json(&self) -> crate::Json {
        crate::stats::workers_to_json(&self.workers)
    }

    /// The arena reuse counters as JSON. Kept separate from
    /// [`ExploreReport::to_json`] because arena warmth persists across
    /// explorations on the same OS thread, which would break the
    /// byte-identical guarantee that function carries.
    pub fn reuse_json(&self) -> crate::Json {
        self.reuse.to_json()
    }

    /// Panics with a readable message if any execution errored.
    ///
    /// # Panics
    ///
    /// Panics when `error_count > 0`.
    pub fn assert_all_ok(&self) {
        assert!(
            self.error_count == 0,
            "{} of {} executions failed; first errors: {:#?}",
            self.error_count,
            self.execs,
            self.errors
        );
    }
}

impl fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} executions ({} distinct traces), {} ok, {} errors{}, {} total steps",
            self.execs,
            self.coverage.distinct_traces(),
            self.ok,
            self.error_count,
            if self.exhausted { " (exhaustive)" } else { "" },
            self.total_steps
        )?;
        if self.workers.len() > 1 {
            write!(f, "; workers (executed/stolen/idle)")?;
            for (i, w) in self.workers.iter().enumerate() {
                write!(
                    f,
                    "{} {}:{}/{}/{}",
                    if i == 0 { "" } else { "," },
                    i,
                    w.executed,
                    w.stolen,
                    w.idle_waits
                )?;
            }
        }
        Ok(())
    }
}

/// Exploration driver.
///
/// The program is supplied as a [`Model`] — typically a closure from a
/// strategy to a [`RunOutcome`] wrapping [`crate::run_model`]:
///
/// ```
/// use orc11::{Config, Explorer, Mode, ThreadCtx, Val};
///
/// let explorer = Explorer::default();
/// let report = explorer.random(200, 0, |strategy| {
///     orc11::run_model(
///         &Config::default(),
///         strategy,
///         |ctx| ctx.alloc("x", Val::Int(0)),
///         vec![Box::new(|ctx: &mut ThreadCtx, &x: &orc11::Loc| {
///             ctx.fetch_add(x, 1, Mode::Relaxed);
///         })],
///         |ctx, &x, _| assert_eq!(ctx.peek(x), Val::Int(1)),
///     )
/// }, |_, _| {});
/// report.assert_all_ok();
/// ```
///
/// `threads == 0` (the default) means *auto*: `COMPASS_THREADS` if set,
/// else the host's available parallelism (capped; see
/// [`crate::default_threads`]). The merged report is byte-identical for
/// every thread count — see the `parallel` module for the guarantee's
/// exact scope.
#[derive(Clone, Copy, Debug)]
pub struct Explorer {
    /// Worker thread count; `0` = auto ([`crate::default_threads`]).
    pub threads: usize,
    /// Cap on verbatim errors kept per report
    /// ([`ExploreReport::max_errors`]).
    pub max_errors: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            threads: 0,
            max_errors: DEFAULT_MAX_ERRORS,
        }
    }
}

impl Explorer {
    /// An explorer with auto thread count and default error cap.
    pub fn new() -> Self {
        Explorer::default()
    }

    /// A single-threaded explorer (what `COMPASS_THREADS=1` forces).
    pub fn serial() -> Self {
        Explorer {
            threads: 1,
            ..Explorer::default()
        }
    }

    /// An explorer with an explicit worker count (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        Explorer {
            threads,
            ..Explorer::default()
        }
    }

    /// Runs `iters` executions with random strategies seeded
    /// `seed0..seed0+iters`, feeding every outcome to `on`.
    pub fn random<M: Model>(
        &self,
        iters: u64,
        seed0: u64,
        model: M,
        on: impl Fn(&StrategyDesc, &RunOutcome<M::Out>) + Sync,
    ) -> ExploreReport {
        self.explore(&WorkSpec::Random { iters, seed0 }, &model, on)
    }

    /// Runs `iters` PCT executions (priority scheduling with `depth`
    /// change points, seeds `seed0..seed0+iters`) — typically an order of
    /// magnitude better than [`Explorer::random`] at exposing small-depth
    /// ordering bugs.
    pub fn pct<M: Model>(
        &self,
        iters: u64,
        seed0: u64,
        depth: usize,
        model: M,
        on: impl Fn(&StrategyDesc, &RunOutcome<M::Out>) + Sync,
    ) -> ExploreReport {
        self.explore(
            &WorkSpec::Pct {
                iters,
                seed0,
                depth,
                horizon: DEFAULT_PCT_HORIZON,
            },
            &model,
            on,
        )
    }

    /// Exhaustively enumerates the program's decision tree, up to
    /// `max_execs` executions.
    ///
    /// If the budget suffices, `exhausted` is set in the report and every
    /// execution (under the model's scheduler granularity) has been
    /// visited. Programs must be deterministic apart from the strategy's
    /// decisions.
    ///
    /// The `COMPASS_DPOR` environment variable switches DPOR pruning on
    /// for this entry point (see [`WorkSpec::dfs`]); use
    /// [`Explorer::dfs_dpor`] or [`Explorer::explore`] with an explicit
    /// [`WorkSpec`] to force one behaviour.
    pub fn dfs<M: Model>(
        &self,
        max_execs: u64,
        model: M,
        on: impl Fn(&StrategyDesc, &RunOutcome<M::Out>) + Sync,
    ) -> ExploreReport {
        self.explore(&WorkSpec::dfs(max_execs), &model, on)
    }

    /// [`Explorer::dfs`] with dynamic partial-order reduction: visits a
    /// conflict-complete subset of the decision tree covering the same
    /// distinct behaviours in (often far) fewer executions — see
    /// [`crate::dpor`].
    pub fn dfs_dpor<M: Model>(
        &self,
        max_execs: u64,
        model: M,
        on: impl Fn(&StrategyDesc, &RunOutcome<M::Out>) + Sync,
    ) -> ExploreReport {
        self.explore(&WorkSpec::DfsDpor { budget: max_execs }, &model, on)
    }

    /// The unified driver all modes reduce to: runs `spec` over `model`,
    /// invoking `on` for every outcome (concurrently, from worker
    /// threads — accumulate through a lock or atomics).
    pub fn explore<M: Model + ?Sized>(
        &self,
        spec: &WorkSpec,
        model: &M,
        on: impl Fn(&StrategyDesc, &RunOutcome<M::Out>) + Sync,
    ) -> ExploreReport {
        self.explore_with(spec, model, |_| &on).0
    }

    /// [`Explorer::explore`] with one caller-built [`Sink`] per worker
    /// instead of a shared callback: `make_sink(i)` is called once per
    /// worker, each sink sees only its own worker's outcomes without
    /// locking, and all sinks are returned (in worker-index order) for
    /// the caller to merge. This is what `compass`' checker builds on.
    pub fn explore_with<M, S, F>(
        &self,
        spec: &WorkSpec,
        model: &M,
        make_sink: F,
    ) -> (ExploreReport, Vec<S>)
    where
        M: Model + ?Sized,
        S: Sink<M::Out> + Send,
        F: Fn(usize) -> S + Sync,
    {
        let threads = parallel::resolve_threads(self.threads);
        parallel::explore_with(threads, self.max_errors, spec, model, make_sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_model, BodyFn, Config, ThreadCtx};
    use crate::mode::Mode;
    use crate::sync::Mutex;
    use crate::val::{Loc, Val};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Store buffering: both threads can read 0 — and DFS must find all
    /// four outcomes.
    fn sb(strategy: Box<dyn crate::Strategy>) -> RunOutcome<(i64, i64)> {
        run_model(
            &Config::default(),
            strategy,
            |ctx| (ctx.alloc("x", Val::Int(0)), ctx.alloc("y", Val::Int(0))),
            vec![
                Box::new(|ctx: &mut ThreadCtx, &(x, y): &(Loc, Loc)| {
                    ctx.write(x, Val::Int(1), Mode::Relaxed);
                    ctx.read(y, Mode::Relaxed).expect_int()
                }) as BodyFn<'_, _, _>,
                Box::new(|ctx: &mut ThreadCtx, &(x, y): &(Loc, Loc)| {
                    ctx.write(y, Val::Int(1), Mode::Relaxed);
                    ctx.read(x, Mode::Relaxed).expect_int()
                }),
            ],
            |_, _, outs| (outs[0], outs[1]),
        )
    }

    #[test]
    fn dfs_finds_all_sb_outcomes() {
        let outcomes = Mutex::new(BTreeSet::new());
        let report = Explorer::default().dfs(10_000, sb, |_, out| {
            outcomes.lock().insert(*out.result.as_ref().unwrap());
        });
        assert!(report.exhausted, "SB should be fully explorable");
        report.assert_all_ok();
        // The path estimator is exact once a plain DFS exhausts: every
        // leaf contributed its importance weight and the mass summed to 1
        // (up to per-leaf fixed-point rounding, absorbed by the division).
        let est = report.estimate.expect("DFS reports carry an estimate");
        if report.dpor.is_none() {
            assert_eq!(est.est_total_execs(), report.execs);
        }
        // All four combinations, including the weak (0,0).
        assert_eq!(
            outcomes.into_inner(),
            BTreeSet::from([(0, 0), (0, 1), (1, 0), (1, 1)])
        );
    }

    #[test]
    fn pct_finds_weak_sb_outcome() {
        let weak = AtomicU64::new(0);
        let report = Explorer::default().pct(300, 0, 2, sb, |_, out| {
            if *out.result.as_ref().unwrap() == (0, 0) {
                weak.fetch_add(1, Ordering::Relaxed);
            }
        });
        report.assert_all_ok();
        assert_eq!(report.execs, 300);
        assert!(
            weak.load(Ordering::Relaxed) > 0,
            "weak SB outcome should appear under PCT too"
        );
    }

    #[test]
    fn random_finds_weak_sb_outcome() {
        let weak = AtomicU64::new(0);
        let report = Explorer::default().random(300, 0, sb, |_, out| {
            if *out.result.as_ref().unwrap() == (0, 0) {
                weak.fetch_add(1, Ordering::Relaxed);
            }
        });
        report.assert_all_ok();
        assert!(
            weak.load(Ordering::Relaxed) > 0,
            "weak SB outcome should appear under random search"
        );
    }

    fn racy(strategy: Box<dyn crate::Strategy>) -> RunOutcome<()> {
        // Races in SOME interleavings: the non-atomic read of x is safe
        // only when the acquire read observed the release of the gate.
        run_model(
            &Config::default(),
            strategy,
            |ctx| (ctx.alloc("x", Val::Int(0)), ctx.alloc("gate", Val::Int(0))),
            vec![
                Box::new(|ctx: &mut ThreadCtx, &(x, gate): &(Loc, Loc)| {
                    ctx.write(x, Val::Int(1), Mode::NonAtomic);
                    ctx.write(gate, Val::Int(1), Mode::Release);
                }) as BodyFn<'_, _, ()>,
                Box::new(|ctx: &mut ThreadCtx, &(x, gate): &(Loc, Loc)| {
                    ctx.read(gate, Mode::Acquire);
                    // Unconditional non-atomic read: a race exactly in
                    // the interleavings where the gate read saw 0 (or
                    // the writer has not finished).
                    ctx.read(x, Mode::NonAtomic);
                }),
            ],
            |_, _, _| (),
        )
    }

    #[test]
    fn dfs_reports_errors_without_stopping() {
        let report = Explorer::default().dfs(10_000, racy, |_, _| {});
        assert!(report.exhausted, "exploration keeps going past errors");
        assert!(report.error_count > 0, "some interleavings race");
        assert!(report.ok > 0, "some interleavings are race-free");
        assert!(report
            .errors
            .iter()
            .all(|(_, e)| matches!(e, crate::ModelError::Race(_))));
    }

    #[test]
    fn max_errors_caps_the_list_but_not_the_count() {
        let capped = Explorer {
            threads: 1,
            max_errors: 2,
        }
        .dfs(10_000, racy, |_, _| {});
        assert_eq!(capped.errors.len(), 2);
        assert!(capped.error_count > 2);
        // The kept errors are the smallest descriptors (= the first a
        // serial run encounters).
        let full = Explorer {
            threads: 1,
            max_errors: usize::MAX,
        }
        .dfs(10_000, racy, |_, _| {});
        assert_eq!(capped.errors[0].0, full.errors[0].0);
        assert_eq!(capped.errors[1].0, full.errors[1].0);
    }

    #[test]
    fn parallel_reports_are_byte_identical_to_serial() {
        for spec in [
            WorkSpec::Random {
                iters: 64,
                seed0: 3,
            },
            WorkSpec::Pct {
                iters: 64,
                seed0: 3,
                depth: 2,
                horizon: DEFAULT_PCT_HORIZON,
            },
            WorkSpec::Dfs { budget: 10_000 },
            WorkSpec::DfsDpor { budget: 10_000 },
        ] {
            // phase_ns is wall-clock (like check_ns) and so exempt from
            // the byte-identical guarantee — normalize it.
            let norm = |r: &ExploreReport| {
                r.to_json()
                    .set("phase_ns", crate::trace::PhaseNs::ZERO.to_json())
                    .render()
            };
            let serial = Explorer::serial().explore(&spec, &sb, |_, _| {});
            let parallel = Explorer::with_threads(4).explore(&spec, &sb, |_, _| {});
            assert_eq!(norm(&serial), norm(&parallel), "spec {spec:?}");
            // The racy program exercises the error path too.
            let serial = Explorer::serial().explore(&spec, &racy, |_, _| {});
            let parallel = Explorer::with_threads(4).explore(&spec, &racy, |_, _| {});
            assert_eq!(norm(&serial), norm(&parallel));
            assert_eq!(serial.errors, parallel.errors, "spec {spec:?}");
        }
    }
}
