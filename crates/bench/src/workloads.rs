//! Shared model workloads and spec-satisfaction statistics.
//!
//! These drive the E2/E4/E5 experiment binaries and the integration
//! tests: each runs a fixed concurrent workload over many seeds and
//! counts, per execution, which Compass spec styles the resulting graph
//! satisfies.

use compass::abs::commit_order_is_linearization;
use compass::exchanger_spec::check_exchanger_consistent;
use compass::history::{find_linearization, QueueInterp, StackInterp};
use compass::queue_spec::{check_queue_consistent, check_so_lhb as queue_so_lhb};
use compass::stack_spec::check_stack_consistent;
use compass_structures::deque::ChaseLevDeque;
use compass_structures::queue::ModelQueue;
use compass_structures::stack::{ElimStack, ModelStack, TreiberStack};
use orc11::{
    run_model, sync::Mutex, BodyFn, Config, Explorer, PhaseNs, ThreadCtx, Val, WorkSpec,
    WorkerStats,
};

/// The engine work description for a `seeds` range: one random-strategy
/// execution per seed, on however many workers the environment asks for
/// (`COMPASS_THREADS`; the per-spec tallies below are merge-order
/// independent, so the counts match a serial run exactly).
fn random_over(seeds: std::ops::Range<u64>) -> WorkSpec {
    WorkSpec::Random {
        iters: seeds.end.saturating_sub(seeds.start),
        seed0: seeds.start,
    }
}

/// Per-spec-style satisfaction counts for a queue implementation.
#[derive(Clone, Debug, Default)]
pub struct QueueSpecStats {
    /// Executions performed.
    pub runs: u64,
    /// Executions that aborted (races, panics) — zero for correct
    /// implementations.
    pub model_errors: u64,
    /// Graph satisfies `QueueConsistent` (the `LAT_hb` style).
    pub lat_hb: u64,
    /// so ⊆ lhb (the `LAT_so^abs`/Cosmo view-transfer guarantee).
    pub lat_so: u64,
    /// Commit order replays sequentially (the `LAT_hb^abs` style).
    pub lat_abs: u64,
    /// A linearization `to ⊇ lhb` exists (the `LAT_hb^hist` style).
    pub lat_hist: u64,
    /// Per-phase busy time from the exploration (see `orc11::trace`).
    pub phase_ns: PhaseNs,
    /// Per-worker load-balance counters from the exploration.
    pub workers: Vec<WorkerStats>,
}

impl QueueSpecStats {
    fn pct(n: u64, of: u64) -> String {
        if of == 0 {
            "-".into()
        } else {
            format!("{:.1}%", 100.0 * n as f64 / of as f64)
        }
    }

    /// `[hb, so, abs, hist]` satisfaction percentages as strings.
    pub fn percentages(&self) -> [String; 4] {
        [
            Self::pct(self.lat_hb, self.runs),
            Self::pct(self.lat_so, self.runs),
            Self::pct(self.lat_abs, self.runs),
            Self::pct(self.lat_hist, self.runs),
        ]
    }

    /// Machine-readable form (raw counts, not percentages).
    pub fn to_json(&self) -> orc11::Json {
        orc11::Json::obj()
            .set("runs", self.runs)
            .set("model_errors", self.model_errors)
            .set("lat_hb", self.lat_hb)
            .set("lat_so", self.lat_so)
            .set("lat_abs", self.lat_abs)
            .set("lat_hist", self.lat_hist)
    }
}

/// Runs the mixed MPMC workload (2 producers × 2 enqueues, 2 consumers ×
/// 2 dequeue attempts) over `seeds` executions of `make`'s queue and
/// tallies spec satisfaction.
pub fn queue_spec_stats<Q: ModelQueue>(
    make: impl Fn(&mut ThreadCtx) -> Q + Send + Sync,
    seeds: std::ops::Range<u64>,
) -> QueueSpecStats {
    let stats = Mutex::new(QueueSpecStats::default());
    let report = Explorer::default().explore(
        &random_over(seeds),
        &|strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| make(ctx),
                vec![
                    Box::new(|ctx: &mut ThreadCtx, q: &Q| {
                        q.enqueue(ctx, Val::Int(10));
                        q.enqueue(ctx, Val::Int(11));
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, q: &Q| {
                        q.enqueue(ctx, Val::Int(20));
                        q.enqueue(ctx, Val::Int(21));
                    }),
                    Box::new(|ctx: &mut ThreadCtx, q: &Q| {
                        q.try_dequeue(ctx);
                        q.try_dequeue(ctx);
                    }),
                    Box::new(|ctx: &mut ThreadCtx, q: &Q| {
                        q.try_dequeue(ctx);
                        q.try_dequeue(ctx);
                    }),
                ],
                |_, q, _| q.obj().snapshot(),
            )
        },
        |_, out| {
            let mut stats = stats.lock();
            stats.runs += 1;
            match &out.result {
                Err(_) => stats.model_errors += 1,
                Ok(g) => {
                    if check_queue_consistent(g).is_ok() {
                        stats.lat_hb += 1;
                    }
                    if queue_so_lhb(g).is_ok() {
                        stats.lat_so += 1;
                    }
                    if commit_order_is_linearization(g, &QueueInterp) {
                        stats.lat_abs += 1;
                    }
                    if find_linearization(g, &QueueInterp, &[]).is_some() {
                        stats.lat_hist += 1;
                    }
                }
            }
        },
    );
    let mut stats = stats.into_inner();
    stats.phase_ns = report.phase_ns;
    stats.workers = report.workers;
    stats
}

/// Per-run statistics for the Treiber `LAT_hb^hist` experiment (E4).
#[derive(Clone, Debug, Default)]
pub struct StackHistStats {
    /// Executions performed.
    pub runs: u64,
    /// Aborted executions.
    pub model_errors: u64,
    /// Graph satisfies `StackConsistent`.
    pub consistent: u64,
    /// A linearization `to ⊇ lhb` exists.
    pub hist_ok: u64,
    /// The commit (head-CAS modification) order itself is a full
    /// linearization witness, including empty pops.
    pub commit_order_witness: u64,
    /// Executions containing at least one empty pop.
    pub with_emp_pops: u64,
    /// Per-phase busy time from the exploration (see `orc11::trace`).
    pub phase_ns: PhaseNs,
    /// Per-worker load-balance counters from the exploration.
    pub workers: Vec<WorkerStats>,
}

impl StackHistStats {
    /// Machine-readable form.
    pub fn to_json(&self) -> orc11::Json {
        orc11::Json::obj()
            .set("runs", self.runs)
            .set("model_errors", self.model_errors)
            .set("consistent", self.consistent)
            .set("hist_ok", self.hist_ok)
            .set("commit_order_witness", self.commit_order_witness)
            .set("with_emp_pops", self.with_emp_pops)
    }
}

/// Runs the mixed stack workload over `seeds` executions of a
/// [`TreiberStack`] and tallies `LAT_hb^hist` satisfaction.
pub fn treiber_hist_stats(seeds: std::ops::Range<u64>) -> StackHistStats {
    stack_hist_stats(TreiberStack::new, seeds)
}

/// As [`treiber_hist_stats`] for any [`ModelStack`].
pub fn stack_hist_stats<S: ModelStack>(
    make: impl Fn(&mut ThreadCtx) -> S + Send + Sync,
    seeds: std::ops::Range<u64>,
) -> StackHistStats {
    let stats = Mutex::new(StackHistStats::default());
    let report = Explorer::default().explore(
        &random_over(seeds),
        &|strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| make(ctx),
                vec![
                    Box::new(|ctx: &mut ThreadCtx, s: &S| {
                        s.push(ctx, Val::Int(10));
                        s.push(ctx, Val::Int(11));
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, s: &S| {
                        s.push(ctx, Val::Int(20));
                        s.pop(ctx);
                    }),
                    Box::new(|ctx: &mut ThreadCtx, s: &S| {
                        s.pop(ctx);
                        s.pop(ctx);
                    }),
                ],
                |_, s, _| s.obj().snapshot(),
            )
        },
        |_, out| {
            let mut stats = stats.lock();
            stats.runs += 1;
            match &out.result {
                Err(_) => stats.model_errors += 1,
                Ok(g) => {
                    use compass::stack_spec::StackEvent;
                    if check_stack_consistent(g).is_ok() {
                        stats.consistent += 1;
                    }
                    let order = compass::abs::commit_order(g);
                    if compass::history::validate_linearization(g, &StackInterp, &order).is_ok() {
                        stats.commit_order_witness += 1;
                    }
                    if find_linearization(g, &StackInterp, &[]).is_some() {
                        stats.hist_ok += 1;
                    }
                    if g.iter().any(|(_, e)| e.ty == StackEvent::EmpPop) {
                        stats.with_emp_pops += 1;
                    }
                }
            }
        },
    );
    let mut stats = stats.into_inner();
    stats.phase_ns = report.phase_ns;
    stats.workers = report.workers;
    stats
}

/// Per-run statistics for the elimination-stack experiment (E5).
#[derive(Clone, Debug, Default)]
pub struct ElimStats {
    /// Executions performed.
    pub runs: u64,
    /// Aborted executions.
    pub model_errors: u64,
    /// ES graph satisfies `StackConsistent`.
    pub es_consistent: u64,
    /// ES graph admits a linearization.
    pub es_hist_ok: u64,
    /// Base stack graph satisfies `StackConsistent`.
    pub base_consistent: u64,
    /// Exchanger graph satisfies `ExchangerConsistent`.
    pub ex_consistent: u64,
    /// Total eliminated pairs across all runs.
    pub eliminations: u64,
    /// Total successful exchanges across all runs (= 2 × matched pairs).
    pub exchanges: u64,
    /// Per-phase busy time from the exploration (see `orc11::trace`).
    pub phase_ns: PhaseNs,
    /// Per-worker load-balance counters from the exploration.
    pub workers: Vec<WorkerStats>,
}

impl ElimStats {
    /// Machine-readable form.
    pub fn to_json(&self) -> orc11::Json {
        orc11::Json::obj()
            .set("runs", self.runs)
            .set("model_errors", self.model_errors)
            .set("es_consistent", self.es_consistent)
            .set("es_hist_ok", self.es_hist_ok)
            .set("base_consistent", self.base_consistent)
            .set("ex_consistent", self.ex_consistent)
            .set("eliminations", self.eliminations)
            .set("exchanges", self.exchanges)
    }
}

/// Runs the mixed push/pop workload over an [`ElimStack`] and tallies
/// compositional consistency.
pub fn elim_stats(seeds: std::ops::Range<u64>, patience: u32) -> ElimStats {
    let stats = Mutex::new(ElimStats::default());
    let report = Explorer::default().explore(
        &random_over(seeds),
        &|strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| ElimStack::new(ctx, patience),
                vec![
                    Box::new(|ctx: &mut ThreadCtx, s: &ElimStack| {
                        s.push(ctx, Val::Int(10));
                        s.push(ctx, Val::Int(11));
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, s: &ElimStack| {
                        s.pop(ctx);
                        s.pop(ctx);
                    }),
                    Box::new(|ctx: &mut ThreadCtx, s: &ElimStack| {
                        s.push(ctx, Val::Int(30));
                        s.pop(ctx);
                    }),
                ],
                |_, s, _| {
                    (
                        s.obj().snapshot(),
                        s.base_obj().snapshot(),
                        s.exchanger_obj().snapshot(),
                    )
                },
            )
        },
        |_, out| {
            let mut stats = stats.lock();
            stats.runs += 1;
            match &out.result {
                Err(_) => stats.model_errors += 1,
                Ok((es, base, ex)) => {
                    if check_stack_consistent(es).is_ok() {
                        stats.es_consistent += 1;
                    }
                    if find_linearization(es, &StackInterp, &[]).is_some() {
                        stats.es_hist_ok += 1;
                    }
                    if check_stack_consistent(base).is_ok() {
                        stats.base_consistent += 1;
                    }
                    if check_exchanger_consistent(ex).is_ok() {
                        stats.ex_consistent += 1;
                    }
                    stats.eliminations += (es.len() - base.len()) as u64 / 2;
                    stats.exchanges += ex.iter().filter(|(_, e)| e.ty.succeeded()).count() as u64;
                }
            }
        },
    );
    let mut stats = stats.into_inner();
    stats.phase_ns = report.phase_ns;
    stats.workers = report.workers;
    stats
}

/// Per-run statistics for the Chase-Lev deque (E9/P3).
#[derive(Clone, Debug, Default)]
pub struct DequeStats {
    /// Executions performed.
    pub runs: u64,
    /// Aborted executions.
    pub model_errors: u64,
    /// Graph satisfies `DequeConsistent`.
    pub consistent: u64,
    /// Mutator subgraph admits a linearization.
    pub hist_ok: u64,
    /// Per-phase busy time from the exploration (see `orc11::trace`).
    pub phase_ns: PhaseNs,
    /// Per-worker load-balance counters from the exploration.
    pub workers: Vec<WorkerStats>,
}

impl DequeStats {
    /// Machine-readable form.
    pub fn to_json(&self) -> orc11::Json {
        orc11::Json::obj()
            .set("runs", self.runs)
            .set("model_errors", self.model_errors)
            .set("consistent", self.consistent)
            .set("hist_ok", self.hist_ok)
    }
}

/// Runs the owner+2-thieves workload over `seeds` executions of a
/// [`ChaseLevDeque`] and tallies consistency.
pub fn deque_stats(seeds: std::ops::Range<u64>) -> DequeStats {
    use compass::deque_spec::{check_deque_consistent, mutator_subgraph, DequeInterp};
    let stats = Mutex::new(DequeStats::default());
    let report = Explorer::default().explore(
        &random_over(seeds),
        &|strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| ChaseLevDeque::new(ctx, 8),
                vec![
                    Box::new(|ctx: &mut ThreadCtx, d: &ChaseLevDeque| {
                        d.push(ctx, Val::Int(1));
                        d.push(ctx, Val::Int(2));
                        d.pop(ctx);
                        d.pop(ctx);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, d: &ChaseLevDeque| {
                        d.steal(ctx);
                    }),
                    Box::new(|ctx: &mut ThreadCtx, d: &ChaseLevDeque| {
                        d.steal(ctx);
                    }),
                ],
                |_, d, _| d.obj().snapshot(),
            )
        },
        |_, out| {
            let mut stats = stats.lock();
            stats.runs += 1;
            match &out.result {
                Err(_) => stats.model_errors += 1,
                Ok(g) => {
                    if check_deque_consistent(g).is_ok() {
                        stats.consistent += 1;
                    }
                    if find_linearization(&mutator_subgraph(g), &DequeInterp, &[]).is_some() {
                        stats.hist_ok += 1;
                    }
                }
            }
        },
    );
    let mut stats = stats.into_inner();
    stats.phase_ns = report.phase_ns;
    stats.workers = report.workers;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass_structures::buggy::relaxed_ms_queue;
    use compass_structures::queue::{HwQueue, MsQueue};

    #[test]
    fn ms_queue_satisfies_every_style() {
        let s = queue_spec_stats(MsQueue::new, 0..40);
        assert_eq!(s.model_errors, 0);
        assert_eq!(s.lat_hb, s.runs);
        assert_eq!(s.lat_so, s.runs);
        assert_eq!(s.lat_abs, s.runs, "MS commit order always replays");
        assert_eq!(s.lat_hist, s.runs);
    }

    #[test]
    fn hw_queue_satisfies_hb_but_not_always_abs() {
        let s = queue_spec_stats(|ctx| HwQueue::new(ctx, 8), 0..300);
        assert_eq!(s.model_errors, 0);
        assert_eq!(s.lat_hb, s.runs, "LAT_hb always holds");
        assert!(
            s.lat_abs < s.runs,
            "some HW executions must defeat commit-order abstract-state \
             construction (the §3.2 phenomenon); got {}/{}",
            s.lat_abs,
            s.runs
        );
    }

    #[test]
    fn relaxed_ms_queue_fails_hb() {
        let s = queue_spec_stats(relaxed_ms_queue, 0..200);
        assert!(s.lat_hb < s.runs, "buggy queue must fail LAT_hb sometimes");
    }

    #[test]
    fn treiber_always_linearizable() {
        let s = treiber_hist_stats(0..40);
        assert_eq!(s.model_errors, 0);
        assert_eq!(s.consistent, s.runs);
        assert_eq!(s.hist_ok, s.runs);
    }

    #[test]
    fn deque_workload_consistent() {
        let s = deque_stats(0..60);
        assert_eq!(s.model_errors, 0);
        assert_eq!(s.consistent, s.runs);
        assert_eq!(s.hist_ok, s.runs);
    }

    #[test]
    fn elimination_composition_consistent() {
        let s = elim_stats(0..60, 3);
        assert_eq!(s.model_errors, 0);
        assert_eq!(s.es_consistent, s.runs);
        assert_eq!(s.base_consistent, s.runs);
        assert_eq!(s.ex_consistent, s.runs);
    }
}
