//! A small harness for checking a graph-producing model program against a
//! consistency predicate over many explored executions.
//!
//! Wraps [`orc11`]'s exploration engine with per-clause violation
//! accounting and run telemetry, so tests and experiments can say "run
//! this workload under these strategies and tell me which clauses ever
//! failed — and where the time and the schedule coverage went". The
//! engine is the same parallel one behind [`orc11::Explorer`]: the
//! program and predicate run on [`CheckOptions::threads`] workers, and
//! the merged report is byte-identical to a single-threaded run (see
//! `EXPERIMENTS.md`, "Parallel exploration", for the guarantee's scope —
//! wall-clock fields like [`CheckReport::check_ns`] excepted).

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::time::Instant;

use orc11::{
    dfs_strategy, pct_strategy, random_strategy, trace, Coverage, DporStats, ExecStats, Explorer,
    Json, OpRecord, PhaseNs, RunOutcome, Sink, StepHistogram, Strategy, StrategyDesc, WorkSpec,
    WorkerStats,
};

use crate::bundle;
use crate::graph::Graph;
use crate::history::{self, SearchStats};
use crate::spec::Violation;

/// The PCT scheduling-decision horizon used by [`Exploration::Pct`] (and
/// by [`ExecOrigin::strategy`] when reproducing a PCT execution).
pub const PCT_HORIZON: u64 = 64;

/// The pseudo-rule under which [`CheckReport::check_ns_by_rule`] files
/// time spent on checks that passed.
pub const PASS_RULE: &str = "(consistent)";

/// Cap on [`CheckReport::samples`]: the first few violations (in serial
/// exploration order) are kept verbatim.
const SAMPLE_CAP: usize = 8;

/// How to explore the schedule space.
#[derive(Clone, Debug)]
pub enum Exploration {
    /// `iters` seeded uniform-random executions starting at `seed0`.
    Random {
        /// Number of executions.
        iters: u64,
        /// First seed.
        seed0: u64,
    },
    /// `iters` PCT executions with `depth` priority-change points.
    Pct {
        /// Number of executions.
        iters: u64,
        /// First seed.
        seed0: u64,
        /// Number of priority-change points.
        depth: usize,
    },
    /// Bounded-exhaustive DFS with an execution budget. Whether the
    /// enumeration is DPOR-pruned follows the `COMPASS_DPOR` environment
    /// variable (see [`WorkSpec::dfs`]); use [`Exploration::DfsDpor`] or
    /// [`CheckOptions::dpor`] to force it in code.
    Dfs {
        /// Maximum executions before giving up on exhausting the tree.
        budget: u64,
    },
    /// Bounded-exhaustive DFS with DPOR pruning (see `orc11::dpor`):
    /// explores a sound subset of [`Exploration::Dfs`]'s executions
    /// covering the same distinct behaviours and violations.
    DfsDpor {
        /// Maximum executions before giving up on exhausting the tree.
        budget: u64,
    },
}

impl Exploration {
    /// The engine-level work description this exploration denotes.
    pub fn work_spec(&self) -> WorkSpec {
        match *self {
            Exploration::Random { iters, seed0 } => WorkSpec::Random { iters, seed0 },
            Exploration::Pct {
                iters,
                seed0,
                depth,
            } => WorkSpec::Pct {
                iters,
                seed0,
                depth,
                horizon: PCT_HORIZON,
            },
            Exploration::Dfs { budget } => WorkSpec::dfs(budget),
            Exploration::DfsDpor { budget } => WorkSpec::DfsDpor { budget },
        }
    }
}

/// Which strategy instance produced one particular execution — enough to
/// re-create that execution's strategy exactly, whatever the exploration
/// mode ([`ExecOrigin::strategy`]).
///
/// Origins order by their serial exploration order (seed order for
/// random/PCT, lexicographic prefix order for DFS), which is how
/// "first failure" stays well defined — and thread-count independent —
/// under parallel exploration.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExecOrigin {
    /// Seeded uniform-random execution.
    Random {
        /// The seed.
        seed: u64,
    },
    /// PCT execution (horizon [`PCT_HORIZON`]).
    Pct {
        /// The seed.
        seed: u64,
        /// Priority-change points.
        depth: usize,
    },
    /// DFS execution: the forced prefix identifies the path (beyond it
    /// the DFS strategy always picks alternative 0).
    Dfs {
        /// The forced choice prefix.
        prefix: Vec<u32>,
    },
}

impl ExecOrigin {
    /// The origin denoted by an engine strategy descriptor.
    pub fn from_desc(desc: &StrategyDesc) -> Self {
        match desc {
            StrategyDesc::Random { seed } => ExecOrigin::Random { seed: *seed },
            StrategyDesc::Pct { seed, depth, .. } => ExecOrigin::Pct {
                seed: *seed,
                depth: *depth,
            },
            StrategyDesc::Dfs { prefix } => ExecOrigin::Dfs {
                prefix: prefix.clone(),
            },
        }
    }

    /// Re-creates the strategy that produced this execution; running the
    /// same program under it reproduces the execution exactly.
    pub fn strategy(&self) -> Box<dyn Strategy> {
        match self {
            ExecOrigin::Random { seed } => random_strategy(*seed),
            ExecOrigin::Pct { seed, depth } => pct_strategy(*seed, *depth, PCT_HORIZON),
            ExecOrigin::Dfs { prefix } => dfs_strategy(prefix.clone()),
        }
    }

    /// Machine-readable form (for `bundle.json` and experiment metrics).
    pub fn to_json(&self) -> Json {
        match self {
            ExecOrigin::Random { seed } => Json::obj().set("mode", "random").set("seed", *seed),
            ExecOrigin::Pct { seed, depth } => Json::obj()
                .set("mode", "pct")
                .set("seed", *seed)
                .set("depth", *depth),
            ExecOrigin::Dfs { prefix } => {
                Json::obj().set("mode", "dfs").set("prefix", prefix.clone())
            }
        }
    }
}

impl fmt::Display for ExecOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecOrigin::Random { seed } => write!(f, "random seed {seed}"),
            ExecOrigin::Pct { seed, depth } => write!(f, "pct seed {seed} depth {depth}"),
            ExecOrigin::Dfs { prefix } => write!(f, "dfs prefix {prefix:?}"),
        }
    }
}

/// What [`check_executions`] needs from the checked value: a size for the
/// graph-size distribution and renderings for replay bundles.
///
/// Implemented for every [`Graph`]; implement it for composite results
/// (e.g. a pair of graphs) if a program checks several objects at once.
pub trait CheckTarget {
    /// Number of events (drives [`CheckReport::graph_sizes`]).
    fn event_count(&self) -> usize;
    /// Self-contained textual failure report.
    fn failure_report(&self, violation: &Violation, ops: &[OpRecord]) -> String;
    /// Graphviz rendering.
    fn dot(&self) -> String;
    /// Graphviz rendering with the violation's offending events
    /// highlighted (for a bundle's `graph.dot`); defaults to the plain
    /// rendering for targets without per-event forensics.
    fn dot_flagged(&self, violation: &Violation) -> String {
        let _ = violation;
        self.dot()
    }
    /// Plain-prose forensic narrative of the violation (for a bundle's
    /// `narrative.txt`); the default restates the clause and message.
    fn narrative(&self, violation: &Violation) -> String {
        format!(
            "════ VIOLATION NARRATIVE ════\nClause {} rejected this execution:\n  {}\n",
            violation.rule, violation.message
        )
    }
}

impl<T: fmt::Debug> CheckTarget for Graph<T> {
    fn event_count(&self) -> usize {
        self.len()
    }
    fn failure_report(&self, violation: &Violation, ops: &[OpRecord]) -> String {
        crate::report::render_failure(self, violation, ops)
    }
    fn dot(&self) -> String {
        crate::dot::to_dot(self, "violation")
    }
    fn dot_flagged(&self, violation: &Violation) -> String {
        crate::dot::to_dot_flagged(self, "violation", &violation.events)
    }
    fn narrative(&self, violation: &Violation) -> String {
        crate::report::render_narrative(self, violation)
    }
}

/// Knobs of [`check_executions_with`] that are orthogonal to the
/// exploration itself.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Write a replay bundle ([`crate::bundle`]) for the run's first
    /// failure (violation or model error, in serial exploration order)
    /// into a fresh subdirectory of this directory.
    pub bundle_dir: Option<PathBuf>,
    /// Worker threads; `0` (the default) means auto: `COMPASS_THREADS`
    /// if set, else the host's available parallelism (capped — see
    /// [`orc11::default_threads`]).
    pub threads: usize,
    /// Cap on the model errors the underlying exploration keeps verbatim
    /// (the counts stay exact); default [`orc11::DEFAULT_MAX_ERRORS`].
    pub max_errors: usize,
    /// Forces DPOR pruning on (`Some(true)`) or off (`Some(false)`) for
    /// DFS explorations, overriding both the [`Exploration`] variant and
    /// the `COMPASS_DPOR` environment variable; `None` (the default)
    /// keeps whatever the exploration says. No effect on random/PCT.
    pub dpor: Option<bool>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            bundle_dir: None,
            threads: 0,
            max_errors: orc11::DEFAULT_MAX_ERRORS,
            dpor: None,
        }
    }
}

impl CheckOptions {
    /// Reads the options from the environment: `COMPASS_BUNDLE_DIR` (a
    /// directory path) and `COMPASS_THREADS` (worker count; resolved by
    /// the engine, since `threads == 0` means exactly "consult the
    /// environment"). [`check_executions`] uses this, so both toggles
    /// work on every existing test and experiment binary without code
    /// changes.
    pub fn from_env() -> Self {
        CheckOptions {
            bundle_dir: std::env::var_os("COMPASS_BUNDLE_DIR").map(PathBuf::from),
            ..CheckOptions::default()
        }
    }
}

/// Aggregated checking results.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Executions performed.
    pub execs: u64,
    /// Executions whose graph satisfied the predicate.
    pub consistent: u64,
    /// Violation counts per clause (`Violation::rule`).
    pub violations: BTreeMap<&'static str, u64>,
    /// First few concrete violations (in serial exploration order) with
    /// the strategy that found each, for diagnostics and replay.
    pub samples: Vec<(ExecOrigin, Violation)>,
    /// Executions that aborted in the model (races, panics, ...).
    pub model_errors: u64,
    /// For DFS: whether the schedule tree was exhausted.
    pub exhausted: bool,
    /// For DFS: whether the execution budget cut the enumeration short.
    /// A truncated parallel run explores a thread-count-dependent subset
    /// of the tree, so its counts are not comparable across thread
    /// counts (see `orc11::ExploreReport::truncated`).
    pub truncated: bool,
    /// DPOR pruning counters, when the exploration used DPOR.
    pub dpor: Option<DporStats>,
    /// Online state-space estimate for DFS explorations (see
    /// `orc11::Estimate`). Emitted in [`CheckReport::to_json`] only when
    /// the tree was exhausted (a truncated run's partial mass depends on
    /// which subset of the tree the budget cut, which is thread-count
    /// dependent); at exhaustion the estimate is a pure function of the
    /// tree, so the byte-identical guarantee holds.
    pub estimate: Option<orc11::Estimate>,
    /// Model-instruction counters summed over all executions.
    pub stats: ExecStats,
    /// Distribution of model instructions per execution.
    pub steps_hist: StepHistogram,
    /// Distribution of event-graph sizes over completed executions.
    pub graph_sizes: StepHistogram,
    /// Schedule coverage (distinct choice traces; DFS nodes visited).
    pub coverage: Coverage,
    /// Linearization-search counters accumulated inside the checks.
    pub search: SearchStats,
    /// Wall-clock nanoseconds spent inside the check predicate (summed
    /// across workers, so not comparable across thread counts).
    pub check_ns: u64,
    /// [`CheckReport::check_ns`] split by outcome: the violated clause,
    /// or [`PASS_RULE`] for checks that passed.
    pub check_ns_by_rule: BTreeMap<&'static str, u64>,
    /// Per-phase busy-time breakdown (explore/dpor/check/linearize/
    /// conform/io), averaged per worker so it sums to at most the run's
    /// wall time — see `orc11::trace`. Wall-clock, like
    /// [`CheckReport::check_ns`]: excluded from the byte-identical
    /// guarantee and normalized by determinism tests.
    pub phase_ns: PhaseNs,
    /// Per-worker load-balance counters, indexed by worker. Scheduling-
    /// dependent, so *not* part of [`CheckReport::to_json`]; metrics use
    /// [`CheckReport::workers_json`].
    pub workers: Vec<WorkerStats>,
    /// Execution-arena reuse counters (see `orc11::ReuseStats`).
    /// Warm-state-dependent — a worker's arena persists across runs on
    /// the same OS thread — so, like `workers`, *not* part of
    /// [`CheckReport::to_json`]; metrics use [`CheckReport::reuse_json`].
    pub reuse: orc11::ReuseStats,
    /// Where the first failure's replay bundle was written, if
    /// [`CheckOptions::bundle_dir`] was set and a failure occurred.
    pub bundle: Option<PathBuf>,
}

impl CheckReport {
    /// Panics unless every execution completed and satisfied the
    /// predicate.
    ///
    /// # Panics
    ///
    /// On any model error or violation.
    pub fn assert_clean(&self) {
        assert_eq!(self.model_errors, 0, "model errors: {self}");
        assert_eq!(self.consistent, self.execs, "violations: {self}");
    }

    /// Whether the clause ever fired.
    pub fn violated(&self, rule: &str) -> bool {
        self.violations.keys().any(|&r| r == rule)
    }

    /// Machine-readable form of the report (see `EXPERIMENTS.md`,
    /// "Observability & replay", for the schema).
    pub fn to_json(&self) -> Json {
        let mut violations = Json::obj();
        for (&rule, &n) in &self.violations {
            violations = violations.set(rule, n);
        }
        let mut check_ns_by_rule = Json::obj();
        for (&rule, &ns) in &self.check_ns_by_rule {
            check_ns_by_rule = check_ns_by_rule.set(rule, ns);
        }
        Json::obj()
            .set("execs", self.execs)
            .set("consistent", self.consistent)
            .set("model_errors", self.model_errors)
            .set("exhausted", self.exhausted)
            .set("truncated", self.truncated)
            .set(
                "dpor",
                match &self.dpor {
                    Some(d) => d.to_json(),
                    None => Json::Null,
                },
            )
            .set(
                "estimate",
                match &self.estimate {
                    Some(e) if self.exhausted => e.to_json(),
                    _ => Json::Null,
                },
            )
            .set("violations", violations)
            .set(
                "samples",
                Json::Arr(
                    self.samples
                        .iter()
                        .map(|(o, v)| {
                            Json::obj()
                                .set("origin", o.to_json())
                                .set("rule", v.rule)
                                .set("message", v.message.clone())
                        })
                        .collect(),
                ),
            )
            .set("stats", self.stats.to_json())
            .set("steps_hist", self.steps_hist.to_json())
            .set("graph_sizes", self.graph_sizes.to_json())
            .set(
                "coverage",
                Json::obj()
                    .set("distinct_traces", self.coverage.distinct_traces())
                    .set("dfs_nodes", self.coverage.dfs_nodes),
            )
            .set(
                "search",
                Json::obj()
                    .set("searches", self.search.searches)
                    .set("nodes", self.search.nodes)
                    .set("backtracks", self.search.backtracks)
                    .set("memo_prunes", self.search.memo_prunes),
            )
            .set("check_ns", self.check_ns)
            .set("check_ns_by_rule", check_ns_by_rule)
            .set("phase_ns", self.phase_ns.to_json())
    }

    /// Machine-readable per-worker load-balance stats (for experiment
    /// metrics). Kept out of [`CheckReport::to_json`] because the values
    /// depend on scheduling, not just on the explored executions.
    pub fn workers_json(&self) -> Json {
        orc11::workers_to_json(&self.workers)
    }

    /// Machine-readable arena reuse counters (for experiment
    /// metrics). Kept out of [`CheckReport::to_json`] because arena
    /// warmth persists across runs on the same OS thread, which would
    /// break the byte-identical guarantee that function carries.
    pub fn reuse_json(&self) -> Json {
        self.reuse.to_json()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} consistent, {} model errors, {} distinct traces{}",
            self.consistent,
            self.execs,
            self.model_errors,
            self.coverage.distinct_traces(),
            if self.exhausted { " (exhaustive)" } else { "" }
        )?;
        if !self.violations.is_empty() {
            write!(f, "; violations: {:?}", self.violations)?;
        }
        if let Some((origin, v)) = self.samples.first() {
            write!(f, "; first ({origin}): {v}")?;
        }
        if self.workers.len() > 1 {
            write!(f, "; workers (executed/stolen/idle)")?;
            for (i, w) in self.workers.iter().enumerate() {
                let sep = if i == 0 { ' ' } else { ',' };
                write!(f, "{sep} {i}:{}/{}/{}", w.executed, w.stolen, w.idle_waits)?;
            }
        }
        Ok(())
    }
}

/// One worker's share of a [`CheckReport`]: everything the base
/// [`orc11::ExploreReport`] does not already account. Each worker gets
/// its own (no locking in the hot path); [`CheckerSink::merge_into`]
/// folds them — every piece commutatively, so the merged report is
/// thread-count independent.
struct CheckerSink<'a, G, C> {
    check: &'a C,
    consistent: u64,
    violations: BTreeMap<&'static str, u64>,
    /// The `SAMPLE_CAP` smallest-origin violations this worker saw.
    samples: Vec<(ExecOrigin, Violation)>,
    graph_sizes: StepHistogram,
    search: SearchStats,
    check_ns: u64,
    check_ns_by_rule: BTreeMap<&'static str, u64>,
    /// Smallest-origin failure (violation *or* model error) this worker
    /// saw; the global minimum is what a serial run fails on first.
    first_failure: Option<ExecOrigin>,
    _target: PhantomData<fn(&G)>,
}

impl<'a, G, C> CheckerSink<'a, G, C> {
    fn new(check: &'a C) -> Self {
        CheckerSink {
            check,
            consistent: 0,
            violations: BTreeMap::new(),
            samples: Vec::new(),
            graph_sizes: StepHistogram::default(),
            search: SearchStats::default(),
            check_ns: 0,
            check_ns_by_rule: BTreeMap::new(),
            first_failure: None,
            _target: PhantomData,
        }
    }

    fn note_failure(&mut self, origin: ExecOrigin) {
        match &self.first_failure {
            Some(f) if *f <= origin => {}
            _ => self.first_failure = Some(origin),
        }
    }

    fn keep_sample(&mut self, origin: ExecOrigin, v: Violation) {
        let pos = self.samples.partition_point(|(o, _)| *o < origin);
        if pos < SAMPLE_CAP {
            self.samples.insert(pos, (origin, v));
            self.samples.truncate(SAMPLE_CAP);
        }
    }

    fn merge_into(self, report: &mut CheckReport) {
        report.consistent += self.consistent;
        for (rule, n) in self.violations {
            *report.violations.entry(rule).or_insert(0) += n;
        }
        for (origin, v) in self.samples {
            let pos = report.samples.partition_point(|(o, _)| *o < origin);
            if pos < SAMPLE_CAP {
                report.samples.insert(pos, (origin, v));
                report.samples.truncate(SAMPLE_CAP);
            }
        }
        report.graph_sizes.merge(&self.graph_sizes);
        report.search.merge(&self.search);
        report.check_ns += self.check_ns;
        for (rule, ns) in self.check_ns_by_rule {
            *report.check_ns_by_rule.entry(rule).or_insert(0) += ns;
        }
    }
}

impl<G, C> Sink<G> for CheckerSink<'_, G, C>
where
    G: CheckTarget,
    C: Fn(&G) -> Result<(), Violation>,
{
    fn on_outcome(&mut self, desc: &StrategyDesc, out: &RunOutcome<G>) {
        match &out.result {
            Err(_) => {
                // The base ExploreReport counts and keeps the error; here
                // it only competes for "first failure" (bundle capture).
                self.note_failure(ExecOrigin::from_desc(desc));
            }
            Ok(g) => {
                self.graph_sizes.record(g.event_count() as u64);
                let t0 = Instant::now();
                let result = {
                    let _span = trace::span(trace::Phase::Check, "check");
                    (self.check)(g)
                };
                let dt = t0.elapsed().as_nanos() as u64;
                self.check_ns += dt;
                self.search.merge(&history::take_search_stats());
                match result {
                    Ok(()) => {
                        *self.check_ns_by_rule.entry(PASS_RULE).or_insert(0) += dt;
                        self.consistent += 1;
                    }
                    Err(v) => {
                        *self.check_ns_by_rule.entry(v.rule).or_insert(0) += dt;
                        *self.violations.entry(v.rule).or_insert(0) += 1;
                        let origin = ExecOrigin::from_desc(desc);
                        self.note_failure(origin.clone());
                        self.keep_sample(origin, v);
                    }
                }
            }
        }
    }
}

/// Runs `program` (a closure from a strategy to a run outcome whose value
/// is a graph or similar) under `exploration`, checking each completed
/// execution with `check`. Options come from the environment
/// ([`CheckOptions::from_env`]); use [`check_executions_with`] to set
/// them in code.
pub fn check_executions<G: CheckTarget>(
    exploration: &Exploration,
    program: impl Fn(Box<dyn Strategy>) -> RunOutcome<G> + Send + Sync,
    check: impl Fn(&G) -> Result<(), Violation> + Sync,
) -> CheckReport {
    check_executions_with(exploration, &CheckOptions::from_env(), program, check)
}

/// [`check_executions`] with explicit [`CheckOptions`].
pub fn check_executions_with<G: CheckTarget>(
    exploration: &Exploration,
    opts: &CheckOptions,
    program: impl Fn(Box<dyn Strategy>) -> RunOutcome<G> + Send + Sync,
    check: impl Fn(&G) -> Result<(), Violation> + Sync,
) -> CheckReport {
    let spec = match opts.dpor {
        Some(on) => exploration.work_spec().with_dpor(on),
        None => exploration.work_spec(),
    };
    // Discard search counters a previous caller on this thread left
    // behind, so a serial (inline) run only sees its own checks.
    let _ = history::take_search_stats();
    let explorer = Explorer {
        threads: opts.threads,
        max_errors: opts.max_errors,
    };
    let (base, sinks) = explorer.explore_with(&spec, &program, |_| CheckerSink::new(&check));

    let mut report = CheckReport {
        execs: base.execs,
        model_errors: base.error_count,
        exhausted: base.exhausted,
        truncated: base.truncated,
        dpor: base.dpor,
        estimate: base.estimate,
        stats: base.stats,
        steps_hist: base.steps_hist,
        coverage: base.coverage,
        phase_ns: base.phase_ns,
        workers: base.workers,
        reuse: base.reuse,
        ..CheckReport::default()
    };
    let mut first_failure: Option<ExecOrigin> = None;
    for sink in sinks {
        match (&first_failure, &sink.first_failure) {
            (Some(a), Some(b)) if a <= b => {}
            (_, Some(b)) => first_failure = Some(b.clone()),
            _ => {}
        }
        sink.merge_into(&mut report);
    }

    // Capture the replay bundle at the end, by re-running the earliest
    // failure: origins are replayable by construction, this keeps the
    // hot loop free of I/O, and "earliest" is well defined whatever the
    // thread count.
    if let (Some(dir), Some(origin)) = (&opts.bundle_dir, &first_failure) {
        let mark = trace::thread_phases();
        let out = program(origin.strategy());
        let written = match &out.result {
            Err(e) => bundle::write_error_bundle(dir, e, &out, origin).map(Some),
            Ok(g) => match check(g) {
                Err(v) => bundle::write_bundle(dir, g, &v, &out, origin).map(Some),
                Ok(()) => {
                    eprintln!(
                        "compass: replay of first failure ({origin}) did not fail; \
                         is the program or predicate nondeterministic?"
                    );
                    Ok(None)
                }
            },
        };
        match written {
            Ok(path) => report.bundle = path,
            Err(err) => eprintln!("compass: cannot write replay bundle: {err}"),
        }
        // The replay's search counters are a duplicate of already-merged
        // work; keep them out of this thread's next report.
        let _ = history::take_search_stats();
        // The replay and bundle write happen after the per-worker phase
        // deltas were merged, so account them separately.
        report
            .phase_ns
            .merge(&trace::thread_phases().delta_since(&mark));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue_spec::{check_queue_consistent, QueueEvent};
    use crate::Graph;
    use orc11::{run_model, BodyFn, Config, Mode, Val};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn trivial_program(strategy: Box<dyn Strategy>) -> RunOutcome<Graph<QueueEvent>> {
        run_model(
            &Config::default(),
            strategy,
            |ctx| ctx.alloc("x", Val::Int(0)),
            vec![Box::new(|ctx: &mut orc11::ThreadCtx, &l: &orc11::Loc| {
                ctx.write(l, Val::Int(1), Mode::Release);
            }) as BodyFn<'_, _, ()>],
            |_, _, _| Graph::new(),
        )
    }

    #[test]
    fn random_exploration_counts() {
        let report = check_executions(
            &Exploration::Random {
                iters: 10,
                seed0: 0,
            },
            trivial_program,
            check_queue_consistent,
        );
        assert_eq!(report.execs, 10);
        report.assert_clean();
        // Telemetry: every execution wrote once and allocated once.
        assert_eq!(report.stats.writes.total(), 10);
        assert_eq!(report.stats.allocs, 10);
        assert_eq!(report.steps_hist.count(), 10);
        assert_eq!(report.graph_sizes.count(), 10);
        assert!(report.coverage.distinct_traces() >= 1);
        assert_eq!(report.check_ns_by_rule.len(), 1);
        assert!(report.check_ns_by_rule.contains_key(PASS_RULE));
    }

    #[test]
    fn dfs_exhausts_trivial_program() {
        let report = check_executions(&Exploration::Dfs { budget: 100 }, trivial_program, |g| {
            check_queue_consistent(g)
        });
        assert!(report.exhausted);
        report.assert_clean();
        // An exhausted DFS run carries the state-space estimate; the
        // estimator folded exactly one path per execution, and the total
        // is at least the executions actually run (exact without DPOR,
        // an unpruned-tree upper bound with it).
        let est = report.estimate.expect("exhausted DFS reports an estimate");
        assert_eq!(est.paths, report.execs);
        assert!(est.est_total_execs() >= report.execs);
        if report.dpor.is_none() {
            assert_eq!(est.est_total_execs(), report.execs);
        }
        assert!(report
            .to_json()
            .get("estimate")
            .unwrap()
            .get("paths")
            .is_some());
    }

    #[test]
    fn violations_are_tallied_per_rule() {
        let flip = AtomicBool::new(false);
        let report = check_executions(
            &Exploration::Pct {
                iters: 6,
                seed0: 0,
                depth: 2,
            },
            trivial_program,
            |_| {
                if !flip.fetch_xor(true, Ordering::Relaxed) {
                    Err(Violation::new("TEST-RULE", "synthetic", vec![]))
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(report.execs, 6);
        assert_eq!(report.consistent, 3);
        assert_eq!(report.violations["TEST-RULE"], 3);
        assert!(report.violated("TEST-RULE"));
        assert!(!report.violated("OTHER"));
        assert!(report.to_string().contains("TEST-RULE"));
        // Per-clause timing covers both outcomes.
        assert!(report.check_ns_by_rule.contains_key("TEST-RULE"));
        assert!(report.check_ns_by_rule.contains_key(PASS_RULE));
        assert!(report.check_ns >= report.check_ns_by_rule["TEST-RULE"]);
    }

    #[test]
    fn samples_carry_their_origin_per_mode() {
        let explorations = [
            Exploration::Random {
                iters: 3,
                seed0: 40,
            },
            Exploration::Pct {
                iters: 3,
                seed0: 40,
                depth: 2,
            },
            Exploration::Dfs { budget: 3 },
        ];
        for e in &explorations {
            let report =
                check_executions_with(e, &CheckOptions::default(), trivial_program, |_| {
                    Err(Violation::new("TEST-RULE", "always", vec![]))
                });
            // DFS may exhaust its (tiny) tree before the budget.
            assert_eq!(report.samples.len() as u64, report.execs.min(8));
            assert!(!report.samples.is_empty());
            let (first, _) = &report.samples[0];
            match (e, first) {
                (Exploration::Random { .. }, ExecOrigin::Random { seed }) => {
                    assert_eq!(*seed, 40);
                }
                (Exploration::Pct { .. }, ExecOrigin::Pct { seed, depth }) => {
                    assert_eq!((*seed, *depth), (40, 2));
                }
                (Exploration::Dfs { .. }, ExecOrigin::Dfs { prefix }) => {
                    // The first sample in serial order is the DFS root.
                    assert!(prefix.is_empty());
                }
                (e, o) => panic!("origin {o:?} does not match exploration {e:?}"),
            }
        }
    }

    #[test]
    fn origin_strategy_reproduces_the_execution() {
        let report = check_executions_with(
            &Exploration::Pct {
                iters: 4,
                seed0: 9,
                depth: 2,
            },
            &CheckOptions::default(),
            trivial_program,
            |_| Err(Violation::new("TEST-RULE", "always", vec![])),
        );
        let (origin, _) = &report.samples[1];
        let a = trivial_program(origin.strategy());
        let b = trivial_program(origin.strategy());
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn parallel_report_json_matches_serial() {
        // Wall-clock fields aside, thread count must not show in the
        // report. The predicate violates on a deterministic function of
        // the graph-free flip above, so use a per-execution-stable one.
        for exploration in [
            Exploration::Random {
                iters: 40,
                seed0: 0,
            },
            Exploration::Dfs { budget: 100 },
        ] {
            let run = |threads: usize| {
                let opts = CheckOptions {
                    threads,
                    ..CheckOptions::default()
                };
                check_executions_with(&exploration, &opts, trivial_program, |g| {
                    check_queue_consistent(g)
                })
                .to_json()
                .set("check_ns", 0u64)
                .set("check_ns_by_rule", Json::obj())
                .set("phase_ns", PhaseNs::ZERO.to_json())
                .render()
            };
            assert_eq!(run(1), run(4), "{exploration:?}");
        }
    }

    #[test]
    fn report_json_has_the_documented_keys() {
        let report = check_executions(
            &Exploration::Random { iters: 4, seed0: 0 },
            trivial_program,
            check_queue_consistent,
        );
        let j = report.to_json();
        for key in [
            "execs",
            "consistent",
            "model_errors",
            "exhausted",
            "truncated",
            "dpor",
            "estimate",
            "violations",
            "samples",
            "stats",
            "steps_hist",
            "graph_sizes",
            "coverage",
            "search",
            "check_ns",
            "check_ns_by_rule",
            "phase_ns",
        ] {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(j.get("execs"), Some(&Json::Int(4)));
    }
}
