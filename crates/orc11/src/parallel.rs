//! The parallel exploration engine: N workers over one [`WorkSource`].
//!
//! Stateless model checking is embarrassingly parallel at the execution
//! level — every sampled interleaving is independent — so the engine is
//! deliberately simple: `threads` OS workers each loop *claim → run →
//! complete → record*, accumulating into a thread-local
//! [`ExploreReport`] and a thread-local [`Sink`]. When the source
//! drains, per-worker reports are merged; every merge (counters,
//! histograms, coverage sets, sorted error lists) is commutative, so the
//! merged report does not depend on how work interleaved across
//! workers. The public entry points are [`crate::Explorer`]'s methods.
//!
//! ## Determinism guarantee
//!
//! For random/PCT (fixed seed set) and for DFS runs — plain or
//! DPOR-pruned — that exhaust their tree within budget,
//! [`ExploreReport::to_json`] is byte-identical for every thread count,
//! including 1. A DFS run that hits its budget explores a
//! thread-count-dependent *subset* of the tree; counts may then differ
//! (exactly as two different serial budgets would), and the report says
//! so via [`ExploreReport::truncated`] so consumers never mistake a cut
//! tree for a comparable one.

use crate::exec::RunOutcome;
use crate::explore::ExploreReport;
use crate::model::Model;
use crate::trace;
use crate::work::{StrategyDesc, WorkSource, WorkSpec};

/// Cap on auto-detected parallelism: exploration workers each spawn the
/// model's own (gated) thread group, so running dozens of workers per
/// exploration on a many-core host mostly burns memory on idle stacks.
const AUTO_THREAD_CAP: usize = 8;

/// Per-worker consumer of execution outcomes, driven alongside the
/// [`ExploreReport`] accounting.
///
/// The engine creates one sink per worker (so `on_outcome` needs no
/// internal locking) and hands all sinks back for the caller to merge.
/// Any `FnMut(&StrategyDesc, &RunOutcome<R>)` closure is a sink.
pub trait Sink<R> {
    /// Called once per execution, on the worker thread that ran it.
    fn on_outcome(&mut self, desc: &StrategyDesc, out: &RunOutcome<R>);
}

impl<R, F: FnMut(&StrategyDesc, &RunOutcome<R>)> Sink<R> for F {
    fn on_outcome(&mut self, desc: &StrategyDesc, out: &RunOutcome<R>) {
        self(desc, out)
    }
}

/// The worker thread count used when a driver is configured with
/// `threads == 0` ("auto"): `COMPASS_THREADS` if set and positive, else
/// the host's available parallelism capped at 8.
pub fn default_threads() -> usize {
    if let Some(v) = std::env::var_os("COMPASS_THREADS") {
        if let Some(n) = v.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("orc11: ignoring unparsable COMPASS_THREADS={v:?}");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(AUTO_THREAD_CAP)
}

pub(crate) fn resolve_threads(explicit: usize) -> usize {
    if explicit == 0 {
        default_threads()
    } else {
        explicit
    }
}

/// One worker's loop: claim batches until the source drains, recording
/// every outcome into `report` and `sink`. This is the *only* place in
/// the workspace that runs a model under an exploration strategy — the
/// serial drivers are this function called once on the current thread.
///
/// The worker's per-phase time delta (see [`crate::trace`]) is
/// accumulated into `report.phase_ns` so the merged report carries the
/// exploration's total busy time per phase.
fn drive<M, S>(
    source: &WorkSource,
    model: &M,
    report: &mut ExploreReport,
    sink: &mut S,
    worker: usize,
) where
    M: Model + ?Sized,
    S: Sink<M::Out>,
{
    let phase_mark = trace::thread_phases();
    let reuse_mark = crate::exec::local_reuse();
    while let Some(batch) = source.claim(worker) {
        let _batch_span = trace::span(trace::Phase::Explore, "batch");
        for desc in batch {
            let mut guard = source.guard();
            let out = model.run_desc(&desc);
            // Feed the frontier before the (possibly slow) sink runs, so
            // sibling workers are never starved by a long check.
            source.complete(worker, &desc, &out.trace, &out.accesses);
            guard.disarm();
            if let StrategyDesc::Dfs { prefix } = &desc {
                report
                    .coverage
                    .record_dfs_execution(prefix.len(), out.trace.len());
            }
            report.record(&desc, &out);
            sink.on_outcome(&desc, &out);
            crate::exec::recycle(out);
            // Live telemetry: a relaxed counter bump per execution, read
            // by the sampler thread. Stores only — never an exploration
            // decision (see crate::telemetry).
            crate::telemetry::count_exec();
        }
    }
    report
        .phase_ns
        .merge(&trace::thread_phases().delta_since(&phase_mark));
    report
        .reuse
        .merge(&crate::exec::local_reuse().delta_since(&reuse_mark));
}

/// Runs `spec` over `model` with `threads` workers (callers resolve
/// `0 = auto` first via [`resolve_threads`]), returning the merged
/// report and the per-worker sinks in worker-index order.
pub(crate) fn explore_with<M, S, F>(
    threads: usize,
    max_errors: usize,
    spec: &WorkSpec,
    model: &M,
    make_sink: F,
) -> (ExploreReport, Vec<S>)
where
    M: Model + ?Sized,
    S: Sink<M::Out> + Send,
    F: Fn(usize) -> S + Sync,
{
    let source = WorkSource::new(spec);
    let results: Vec<(ExploreReport, S)> = if threads <= 1 {
        let mut report = ExploreReport::with_max_errors(max_errors);
        let mut sink = make_sink(0);
        drive(&source, model, &mut report, &mut sink, 0);
        vec![(report, sink)]
    } else {
        std::thread::scope(|scope| {
            let source = &source;
            let make_sink = &make_sink;
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    scope.spawn(move || {
                        trace::register_worker(i);
                        let mut report = ExploreReport::with_max_errors(max_errors);
                        let mut sink = make_sink(i);
                        drive(source, model, &mut report, &mut sink, i);
                        (report, sink)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    };
    let mut merged = ExploreReport::with_max_errors(max_errors);
    let mut sinks = Vec::with_capacity(results.len());
    for (report, sink) in results {
        merged.merge(report);
        sinks.push(sink);
    }
    merged.exhausted = source.exhausted();
    merged.truncated = source.truncated();
    merged.dpor = source.dpor_stats();
    merged.estimate = source.estimate();
    // Per-worker busy time was summed by the merge; report the mean per
    // worker instead, so the six phases remain a wall-clock-bounded
    // attribution regardless of thread count.
    merged.phase_ns = merged.phase_ns.div_by(threads.max(1) as u64);
    let mut workers = source.worker_stats();
    if workers.len() < threads {
        workers.resize(threads, Default::default());
    }
    merged.workers = workers;
    (merged, sinks)
}
