//! Work enumeration shared by the serial and parallel exploration
//! drivers.
//!
//! A [`WorkSpec`] describes a whole exploration (a seed range, or a DFS
//! budget); a [`WorkSource`] turns it into a stream of
//! [`StrategyDesc`]s — self-contained strategy descriptors — that any
//! number of workers can claim concurrently. Serial exploration is just
//! the one-worker special case, so there is exactly one enumeration to
//! get right.
//!
//! For random/PCT the source hands out chunks of a seed range. For DFS
//! it maintains a shared LIFO *frontier* of forced choice prefixes:
//! completing an execution pushes the unexplored sibling prefixes of
//! every fresh node on its path (deepest on top), which is the standard
//! iterative formulation of depth-first search. Claimed single-threaded,
//! the frontier visits prefixes in exactly the order the recursive
//! backtracking driver ([`crate::next_dfs_prefix`]) does; claimed from
//! many threads it visits the same *set*, which is why exhaustive
//! parallel reports can be byte-identical to serial ones.

use crate::dpor::{analyze, dpor_from_env, DporState, StepAccess};
use crate::sched::{dfs_strategy, pct_strategy, random_strategy, Choice, Strategy};
use crate::stats::{DporStats, Estimate, WorkerStats};
use crate::sync::{Condvar, Mutex};
use crate::telemetry;
use crate::telemetry::{gauge_frontier_depth, gauge_sleep_hits};
use crate::trace::{span, Phase};
use std::fmt;
use std::time::Instant;

/// How many random/PCT seeds a worker claims per lock acquisition.
const SEED_CHUNK: u64 = 16;

/// A self-contained descriptor of one execution's strategy.
///
/// The descriptor doubles as the execution's *identity*: its derived
/// ordering (seed order for random/PCT, lexicographic prefix order for
/// DFS) is exactly the order a serial exploration visits executions in,
/// so sorting by descriptor reconstructs the serial order from any
/// concurrent interleaving.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StrategyDesc {
    /// Seeded uniform-random execution.
    Random {
        /// The seed.
        seed: u64,
    },
    /// PCT execution (priority scheduling with change points).
    Pct {
        /// The seed.
        seed: u64,
        /// Number of priority-change points.
        depth: usize,
        /// Scheduling-decision horizon the change points are drawn from.
        horizon: u64,
    },
    /// DFS execution: the forced choice prefix identifies the path
    /// (beyond it the strategy always picks alternative 0).
    Dfs {
        /// The forced choice prefix.
        prefix: Vec<u32>,
    },
}

impl StrategyDesc {
    /// Instantiates the strategy this descriptor describes; running the
    /// same [`crate::Model`] under it reproduces the execution exactly.
    pub fn strategy(&self) -> Box<dyn Strategy> {
        match self {
            StrategyDesc::Random { seed } => random_strategy(*seed),
            StrategyDesc::Pct {
                seed,
                depth,
                horizon,
            } => pct_strategy(*seed, *depth, *horizon),
            StrategyDesc::Dfs { prefix } => dfs_strategy(prefix.clone()),
        }
    }
}

impl fmt::Display for StrategyDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyDesc::Random { seed } => write!(f, "random seed {seed}"),
            StrategyDesc::Pct { seed, depth, .. } => write!(f, "pct seed {seed} depth {depth}"),
            StrategyDesc::Dfs { prefix } => write!(f, "dfs prefix {prefix:?}"),
        }
    }
}

/// A whole exploration, described declaratively.
#[derive(Clone, Debug)]
pub enum WorkSpec {
    /// `iters` seeded uniform-random executions starting at `seed0`.
    Random {
        /// Number of executions.
        iters: u64,
        /// First seed.
        seed0: u64,
    },
    /// `iters` PCT executions with `depth` change points over `horizon`
    /// scheduling decisions.
    Pct {
        /// Number of executions.
        iters: u64,
        /// First seed.
        seed0: u64,
        /// Number of priority-change points.
        depth: usize,
        /// Scheduling-decision horizon.
        horizon: u64,
    },
    /// Bounded-exhaustive DFS with an execution budget.
    Dfs {
        /// Maximum executions before giving up on exhausting the tree.
        budget: u64,
    },
    /// Bounded-exhaustive DFS pruned by dynamic partial-order reduction
    /// (see [`crate::dpor`]): visits a sound subset of [`WorkSpec::Dfs`]'s
    /// executions covering the same set of distinct behaviours.
    DfsDpor {
        /// Maximum executions before giving up on exhausting the tree.
        budget: u64,
    },
}

impl WorkSpec {
    /// Bounded-exhaustive DFS with an execution budget, with DPOR pruning
    /// switched by the `COMPASS_DPOR` environment variable (set and not
    /// `0` → [`WorkSpec::DfsDpor`]). This is the constructor the generic
    /// entry points ([`crate::Explorer::dfs`], `Litmus::dfs`, the
    /// checker's `Exploration::Dfs`) use, so one env var flips a whole
    /// test suite; build the variants directly to force one behaviour.
    pub fn dfs(budget: u64) -> Self {
        WorkSpec::Dfs { budget }.with_dpor(dpor_from_env())
    }

    /// Switches DPOR pruning on or off (no-op for seed-based specs).
    #[must_use]
    pub fn with_dpor(self, on: bool) -> Self {
        match (self, on) {
            (WorkSpec::Dfs { budget }, true) => WorkSpec::DfsDpor { budget },
            (WorkSpec::DfsDpor { budget }, false) => WorkSpec::Dfs { budget },
            (spec, _) => spec,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum SeedKind {
    Random,
    Pct { depth: usize, horizon: u64 },
}

impl SeedKind {
    fn desc(self, seed: u64) -> StrategyDesc {
        match self {
            SeedKind::Random => StrategyDesc::Random { seed },
            SeedKind::Pct { depth, horizon } => StrategyDesc::Pct {
                seed,
                depth,
                horizon,
            },
        }
    }
}

/// A claimed batch of work ([`WorkSource::claim`]): a run of seeds, or
/// one DFS prefix. It iterates its descriptors; claiming a DFS prefix
/// allocates nothing.
#[derive(Debug)]
pub struct Batch(Claimed);

#[derive(Debug)]
enum Claimed {
    Seeds {
        kind: SeedKind,
        seeds: std::ops::Range<u64>,
    },
    One(Option<StrategyDesc>),
}

impl Iterator for Batch {
    type Item = StrategyDesc;

    fn next(&mut self) -> Option<StrategyDesc> {
        match &mut self.0 {
            Claimed::Seeds { kind, seeds } => seeds.next().map(|seed| kind.desc(seed)),
            Claimed::One(desc) => desc.take(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            Claimed::Seeds { seeds, .. } => seeds.end.saturating_sub(seeds.start) as usize,
            Claimed::One(desc) => usize::from(desc.is_some()),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Batch {}

/// A frontier entry: the forced choice prefix plus which worker pushed
/// it, so a claim by a *different* worker counts as a steal in the
/// load-balance stats. The producer is bookkeeping only — it never
/// influences which prefixes are visited.
#[derive(Debug)]
struct Prefix {
    choices: Vec<u32>,
    producer: usize,
}

/// Producer tag of the root prefix (claimed by whoever gets there
/// first; not a steal).
const NO_PRODUCER: usize = usize::MAX;

#[derive(Debug)]
enum State {
    Seeds {
        kind: SeedKind,
        next: u64,
        end: u64,
    },
    Dfs {
        /// LIFO stack of unexplored forced prefixes (top = deepest).
        frontier: Vec<Prefix>,
        /// Executions issued so far (claims, not completions).
        issued: u64,
        budget: u64,
        /// Workers currently running a claimed DFS execution — they may
        /// still push new prefixes, so an empty frontier with `active >
        /// 0` means "wait", not "done".
        active: usize,
        /// `Some` when DPOR pruning is on: the shared sleep sets and
        /// pruning counters (see [`crate::dpor`]).
        dpor: Option<DporState>,
        /// Online state-space size estimate, fed one completed path at a
        /// time (see [`Estimate`]). Accumulated under the source's lock
        /// with commutative integer arithmetic, so it is deterministic
        /// at any worker count once the tree is exhausted.
        estimate: Estimate,
    },
}

/// Everything behind the source's one lock: the work enumeration plus
/// the per-worker load-balance counters (indexed by worker; grown
/// lazily on first claim).
#[derive(Debug)]
struct Shared {
    work: State,
    workers: Vec<WorkerStats>,
}

/// A concurrent source of [`StrategyDesc`]s for one exploration.
///
/// Workers repeatedly [`claim`](WorkSource::claim) a batch, run each
/// descriptor, and [`complete`](WorkSource::complete) it with the
/// recorded trace (which, for DFS, feeds the frontier). All coordination
/// is internal; the source is shared by reference between threads.
///
/// Both calls take the caller's worker index (serial exploration passes
/// 0) purely for the per-worker [`WorkerStats`]; the index never
/// influences what work is handed out.
#[derive(Debug)]
pub struct WorkSource {
    state: Mutex<Shared>,
    available: Condvar,
    /// Whether the spec uses DPOR — immutable, so workers can run the
    /// O(trace²) race analysis of [`WorkSource::complete`] outside the
    /// lock.
    dpor: bool,
}

impl WorkSource {
    /// Creates a source covering the whole of `spec`.
    pub fn new(spec: &WorkSpec) -> Self {
        let state = match *spec {
            WorkSpec::Random { iters, seed0 } => State::Seeds {
                kind: SeedKind::Random,
                next: seed0,
                end: seed0.saturating_add(iters),
            },
            WorkSpec::Pct {
                iters,
                seed0,
                depth,
                horizon,
            } => State::Seeds {
                kind: SeedKind::Pct { depth, horizon },
                next: seed0,
                end: seed0.saturating_add(iters),
            },
            WorkSpec::Dfs { budget } => State::Dfs {
                frontier: vec![Prefix {
                    choices: Vec::new(),
                    producer: NO_PRODUCER,
                }],
                issued: 0,
                budget,
                active: 0,
                dpor: None,
                estimate: Estimate::default(),
            },
            WorkSpec::DfsDpor { budget } => State::Dfs {
                frontier: vec![Prefix {
                    choices: Vec::new(),
                    producer: NO_PRODUCER,
                }],
                issued: 0,
                budget,
                active: 0,
                dpor: Some(DporState::default()),
                estimate: Estimate::default(),
            },
        };
        WorkSource {
            state: Mutex::new(Shared {
                work: state,
                workers: Vec::new(),
            }),
            available: Condvar::new(),
            dpor: matches!(spec, WorkSpec::DfsDpor { .. }),
        }
    }

    /// Claims the next batch of work, or `None` when the exploration is
    /// over (budget reached, or nothing left and no worker can produce
    /// more). Blocks when the DFS frontier is momentarily empty but
    /// other workers are still running.
    pub fn claim(&self, worker: usize) -> Option<Batch> {
        let mut st = self.state.lock();
        if st.workers.len() <= worker {
            st.workers.resize(worker + 1, WorkerStats::default());
        }
        loop {
            let Shared { work, workers } = &mut *st;
            match work {
                State::Seeds { kind, next, end } => {
                    if *next >= *end {
                        return None;
                    }
                    let n = SEED_CHUNK.min(*end - *next);
                    let seeds = *next..*next + n;
                    *next += n;
                    workers[worker].executed += n;
                    telemetry::gauge_worker(worker, &workers[worker]);
                    return Some(Batch(Claimed::Seeds { kind: *kind, seeds }));
                }
                State::Dfs {
                    frontier,
                    issued,
                    budget,
                    active,
                    ..
                } => {
                    if *issued >= *budget {
                        return None;
                    }
                    if let Some(prefix) = frontier.pop() {
                        *issued += 1;
                        *active += 1;
                        workers[worker].executed += 1;
                        if prefix.producer != NO_PRODUCER && prefix.producer != worker {
                            workers[worker].stolen += 1;
                        }
                        telemetry::gauge_worker(worker, &workers[worker]);
                        gauge_frontier_depth(frontier.len() as u64);
                        return Some(Batch(Claimed::One(Some(StrategyDesc::Dfs {
                            prefix: prefix.choices,
                        }))));
                    }
                    // An empty frontier is a sample too — and the one
                    // event that gives a worker which never got a prefix
                    // (a small tree drained by its siblings before this
                    // thread was scheduled) a row in the trace.
                    gauge_frontier_depth(0);
                    if *active == 0 {
                        return None;
                    }
                    workers[worker].idle_waits += 1;
                }
            }
            let t0 = Instant::now();
            self.available.wait(&mut st);
            st.workers[worker].idle_wait_ns += t0.elapsed().as_nanos() as u64;
            telemetry::gauge_worker(worker, &st.workers[worker]);
        }
    }

    /// Reports a claimed execution's recorded trace (and access
    /// summaries) back to the source.
    ///
    /// For plain DFS this performs the *sibling expansion*: for every
    /// decision on the path past the forced prefix (where the strategy
    /// defaulted to alternative 0), the unexplored alternatives are
    /// pushed as new forced prefixes — deepest decision on top, smallest
    /// alternative first, which is exactly recursive DFS order when there
    /// is a single worker. Every leaf's canonical prefix is pushed
    /// exactly once, so the visited set does not depend on worker count.
    ///
    /// Under DPOR ([`WorkSpec::DfsDpor`]) thread-choice siblings are
    /// instead pushed on demand, when a conflict between the execution's
    /// instructions requires the reversal (see
    /// [`crate::dpor`]); `accesses` must then be the execution's
    /// [`crate::RunOutcome::accesses`].
    pub fn complete(
        &self,
        worker: usize,
        desc: &StrategyDesc,
        trace: &[Choice],
        accesses: &[StepAccess],
    ) {
        let StrategyDesc::Dfs { prefix } = desc else {
            return;
        };
        // The race analysis is O(trace² · threads) and pure, so run it
        // before taking the lock: workers analyse their own executions
        // concurrently and only serialize to apply the demands.
        let analysis = self.dpor.then(|| {
            let _span = span(Phase::Dpor, "dpor-analyze");
            analyze(trace, accesses)
        });
        let mut st = self.state.lock();
        if let State::Dfs {
            frontier,
            active,
            dpor,
            estimate,
            ..
        } = &mut st.work
        {
            match (dpor, &analysis) {
                (Some(dpor), Some(analysis)) => {
                    // on_complete speaks plain prefixes; tag the fresh
                    // ones with this worker for steal accounting (push
                    // order is preserved, so visit order is unchanged).
                    let mut fresh: Vec<Vec<u32>> = Vec::new();
                    dpor.on_complete(prefix.len(), trace, analysis, &mut fresh);
                    frontier.extend(fresh.into_iter().map(|choices| Prefix {
                        choices,
                        producer: worker,
                    }));
                    gauge_sleep_hits(dpor.stats.sleep_hits);
                }
                _ => {
                    for d in prefix.len()..trace.len() {
                        let c = trace[d];
                        for a in (c.chosen + 1..c.arity).rev() {
                            let mut p = Vec::with_capacity(d + 1);
                            p.extend(trace[..d].iter().map(|c| c.chosen));
                            p.push(a);
                            frontier.push(Prefix {
                                choices: p,
                                producer: worker,
                            });
                        }
                    }
                }
            }
            // Fold this leaf into the size estimate. The arithmetic is
            // commutative integer accumulation, so completion order (and
            // therefore worker count) cannot change the exhausted total.
            estimate.record_path(trace.iter().map(|c| c.arity));
            telemetry::gauge_estimate(estimate);
            gauge_frontier_depth(frontier.len() as u64);
            *active -= 1;
            self.available.notify_all();
        }
    }

    /// Arms a panic-safety guard for the execution about to run: if the
    /// model or a sink panics before [`WorkSource::complete`] runs, the
    /// guard's drop releases the worker's `active` slot so sibling
    /// workers blocked in [`WorkSource::claim`] wake up and drain
    /// instead of deadlocking under the panic.
    pub fn guard(&self) -> ActiveGuard<'_> {
        ActiveGuard {
            source: self,
            armed: true,
        }
    }

    /// Whether the DFS tree was fully enumerated (always `false` for
    /// seed-based specs). Meaningful once all workers have returned.
    pub fn exhausted(&self) -> bool {
        match &self.state.lock().work {
            State::Seeds { .. } => false,
            State::Dfs {
                frontier, active, ..
            } => frontier.is_empty() && *active == 0,
        }
    }

    /// Whether the DFS execution budget cut the enumeration short —
    /// i.e. the budget was consumed while unexplored prefixes remained.
    /// Always `false` for seed-based specs (they enumerate a fixed seed
    /// range). Meaningful once all workers have returned.
    ///
    /// A truncated DFS visits a worker-schedule-dependent subset of the
    /// tree, so reports from truncated runs are *not* comparable across
    /// thread counts; consumers must check this flag (reported as
    /// `truncated` in [`crate::ExploreReport`]).
    pub fn truncated(&self) -> bool {
        match &self.state.lock().work {
            State::Seeds { .. } => false,
            State::Dfs {
                frontier,
                issued,
                budget,
                active,
                ..
            } => *issued >= *budget && !(frontier.is_empty() && *active == 0),
        }
    }

    /// The DPOR pruning counters, or `None` when the spec does not use
    /// DPOR. Deterministic across worker counts once all workers have
    /// returned (see [`crate::dpor`]).
    pub fn dpor_stats(&self) -> Option<DporStats> {
        match &self.state.lock().work {
            State::Seeds { .. } => None,
            State::Dfs { dpor, .. } => dpor.as_ref().map(|d| d.stats),
        }
    }

    /// The online state-space size estimate, or `None` for seed-based
    /// specs. Deterministic across worker counts once all workers have
    /// returned *and* the tree was exhausted; a truncated run's estimate
    /// reflects a thread-count-dependent visited subset (which is why
    /// reports gate its emission on `exhausted`).
    pub fn estimate(&self) -> Option<Estimate> {
        match &self.state.lock().work {
            State::Seeds { .. } => None,
            State::Dfs { estimate, .. } => Some(*estimate),
        }
    }

    /// The per-worker load-balance counters, indexed by worker (workers
    /// that never claimed are absent from the tail). Scheduling-
    /// dependent — see [`WorkerStats`].
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.state.lock().workers.clone()
    }

    fn release(&self) {
        let mut st = self.state.lock();
        if let State::Dfs { active, .. } = &mut st.work {
            *active -= 1;
            self.available.notify_all();
        }
    }
}

/// See [`WorkSource::guard`].
#[derive(Debug)]
pub struct ActiveGuard<'a> {
    source: &'a WorkSource,
    armed: bool,
}

impl ActiveGuard<'_> {
    /// Disarms the guard; call after [`WorkSource::complete`] has run.
    pub fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.source.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{next_dfs_prefix, ChoiceKind, DfsStrategy};

    /// A fixed 2×3 decision tree.
    fn run_tree(prefix: Vec<u32>) -> Vec<Choice> {
        let mut s = DfsStrategy::new(prefix);
        let a = s.choose(ChoiceKind::Thread, 2) as u32;
        let b = s.choose(ChoiceKind::Read, 3) as u32;
        vec![
            Choice {
                kind: ChoiceKind::Thread,
                chosen: a,
                arity: 2,
            },
            Choice {
                kind: ChoiceKind::Read,
                chosen: b,
                arity: 3,
            },
        ]
    }

    #[test]
    fn single_worker_frontier_matches_recursive_dfs_order() {
        // Enumerate the reference order with next_dfs_prefix.
        let mut reference = Vec::new();
        let mut prefix = Vec::new();
        loop {
            let trace = run_tree(prefix.clone());
            reference.push((trace[0].chosen, trace[1].chosen));
            match next_dfs_prefix(&trace) {
                Some(p) => prefix = p,
                None => break,
            }
        }
        assert_eq!(
            reference,
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        );

        // The frontier, drained by one worker, visits the same order.
        let source = WorkSource::new(&WorkSpec::Dfs { budget: 100 });
        let mut visited = Vec::new();
        while let Some(batch) = source.claim(0) {
            for desc in batch {
                let StrategyDesc::Dfs { prefix } = &desc else {
                    unreachable!()
                };
                let trace = run_tree(prefix.clone());
                visited.push((trace[0].chosen, trace[1].chosen));
                source.complete(0, &desc, &trace, &[]);
            }
        }
        assert_eq!(visited, reference);
        assert!(source.exhausted());
        // One worker claimed everything; nothing is a steal.
        let workers = source.worker_stats();
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].executed, reference.len() as u64);
        assert_eq!(workers[0].stolen, 0);
        assert_eq!(workers[0].idle_waits, 0);
    }

    #[test]
    fn dfs_budget_truncates_and_is_not_exhausted() {
        let source = WorkSource::new(&WorkSpec::Dfs { budget: 3 });
        let mut n = 0;
        while let Some(batch) = source.claim(0) {
            for desc in batch {
                let StrategyDesc::Dfs { prefix } = &desc else {
                    unreachable!()
                };
                let trace = run_tree(prefix.clone());
                n += 1;
                source.complete(0, &desc, &trace, &[]);
            }
        }
        assert_eq!(n, 3);
        assert!(!source.exhausted(), "budget cut the tree short");
    }

    #[test]
    fn exhausted_dfs_estimate_counts_the_whole_tree() {
        let source = WorkSource::new(&WorkSpec::Dfs { budget: 100 });
        while let Some(batch) = source.claim(0) {
            for desc in batch {
                let StrategyDesc::Dfs { prefix } = &desc else {
                    unreachable!()
                };
                let trace = run_tree(prefix.clone());
                source.complete(0, &desc, &trace, &[]);
            }
        }
        assert!(source.exhausted());
        let est = source.estimate().expect("DFS specs carry an estimate");
        assert_eq!(est.paths, 6);
        assert_eq!(est.est_total_execs(), 6, "exact at plain-DFS exhaustion");
        assert_eq!(est.percent_x1000(), 99_999, "mass within rounding of 1");
        // Seed-based sources have no choice tree to estimate.
        let seeds = WorkSource::new(&WorkSpec::Random { iters: 1, seed0: 0 });
        assert!(seeds.estimate().is_none());
    }

    #[test]
    fn seed_source_covers_the_range_in_chunks() {
        let source = WorkSource::new(&WorkSpec::Random {
            iters: 40,
            seed0: 5,
        });
        let mut seeds = Vec::new();
        while let Some(batch) = source.claim(0) {
            assert!(batch.len() as u64 <= SEED_CHUNK);
            for desc in batch {
                match desc {
                    StrategyDesc::Random { seed } => seeds.push(seed),
                    other => panic!("unexpected desc {other:?}"),
                }
            }
        }
        assert_eq!(seeds, (5..45).collect::<Vec<_>>());
        assert!(!source.exhausted());
    }

    #[test]
    fn descriptor_order_is_the_serial_visit_order() {
        // Seeds order by seed; DFS prefixes order lexicographically,
        // which is the order the frontier test above visits them in.
        assert!(StrategyDesc::Random { seed: 1 } < StrategyDesc::Random { seed: 2 });
        let d = |p: &[u32]| StrategyDesc::Dfs { prefix: p.to_vec() };
        assert!(d(&[]) < d(&[0, 1]));
        assert!(d(&[0, 1]) < d(&[0, 2]));
        assert!(d(&[0, 2]) < d(&[1]));
        assert!(d(&[1]) < d(&[1, 1]));
    }
}
