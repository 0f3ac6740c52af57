//! Execution telemetry: cheap per-execution counters and
//! exploration-level coverage tracking.
//!
//! Every model execution maintains an [`ExecStats`] — plain integer
//! counters bumped inside the instruction turnstile (no allocation, no
//! branching beyond the bump) — returned in
//! [`crate::RunOutcome::stats`]. Exploration drivers aggregate them,
//! bucket steps-per-execution into a [`StepHistogram`], and track
//! *schedule coverage* (distinct choice traces seen, DFS decision-tree
//! nodes visited) in a [`Coverage`]; all of it surfaces in
//! [`crate::ExploreReport`].
//!
//! The counters are always on: an execution costs thousands of mutex
//! round-trips per instruction, so a handful of integer increments is
//! far below measurement noise.

use std::collections::HashSet;
use std::fmt;

use crate::json::Json;
use crate::mode::{FenceMode, Mode};
use crate::sched::Choice;

/// Counters keyed by access [`Mode`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ModeCounter {
    /// Non-atomic accesses.
    pub na: u64,
    /// Relaxed accesses.
    pub rlx: u64,
    /// Release accesses.
    pub rel: u64,
    /// Acquire accesses.
    pub acq: u64,
    /// Acquire-release accesses (RMWs).
    pub acq_rel: u64,
}

impl ModeCounter {
    /// Increments the counter for `mode`.
    pub fn bump(&mut self, mode: Mode) {
        match mode {
            Mode::NonAtomic => self.na += 1,
            Mode::Relaxed => self.rlx += 1,
            Mode::Release => self.rel += 1,
            Mode::Acquire => self.acq += 1,
            Mode::AcqRel => self.acq_rel += 1,
        }
    }

    /// Sum over all modes.
    pub fn total(&self) -> u64 {
        self.na + self.rlx + self.rel + self.acq + self.acq_rel
    }

    /// `(mode-name, count)` pairs in a fixed order (for rendering and
    /// JSON emission).
    pub fn entries(&self) -> [(&'static str, u64); 5] {
        [
            ("na", self.na),
            ("rlx", self.rlx),
            ("rel", self.rel),
            ("acq", self.acq),
            ("acq_rel", self.acq_rel),
        ]
    }

    /// Machine-readable form: one key per mode.
    pub fn to_json(&self) -> Json {
        self.entries()
            .iter()
            .fold(Json::obj(), |j, &(k, v)| j.set(k, v))
    }

    fn merge(&mut self, other: &ModeCounter) {
        self.na += other.na;
        self.rlx += other.rlx;
        self.rel += other.rel;
        self.acq += other.acq;
        self.acq_rel += other.acq_rel;
    }
}

/// Counters keyed by [`FenceMode`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FenceCounter {
    /// Acquire fences.
    pub acq: u64,
    /// Release fences.
    pub rel: u64,
    /// Acquire-release fences.
    pub acq_rel: u64,
    /// Sequentially consistent fences.
    pub sc: u64,
}

impl FenceCounter {
    /// Increments the counter for `mode`.
    pub fn bump(&mut self, mode: FenceMode) {
        match mode {
            FenceMode::Acquire => self.acq += 1,
            FenceMode::Release => self.rel += 1,
            FenceMode::AcqRel => self.acq_rel += 1,
            FenceMode::SeqCst => self.sc += 1,
        }
    }

    /// Sum over all fence modes.
    pub fn total(&self) -> u64 {
        self.acq + self.rel + self.acq_rel + self.sc
    }

    /// `(mode-name, count)` pairs in a fixed order.
    pub fn entries(&self) -> [(&'static str, u64); 4] {
        [
            ("acq", self.acq),
            ("rel", self.rel),
            ("acq_rel", self.acq_rel),
            ("sc", self.sc),
        ]
    }

    /// Machine-readable form: one key per fence mode.
    pub fn to_json(&self) -> Json {
        self.entries()
            .iter()
            .fold(Json::obj(), |j, &(k, v)| j.set(k, v))
    }

    fn merge(&mut self, other: &FenceCounter) {
        self.acq += other.acq;
        self.rel += other.rel;
        self.acq_rel += other.acq_rel;
        self.sc += other.sc;
    }
}

/// Per-execution instruction counters.
///
/// In a single [`crate::RunOutcome`] this describes one execution; in an
/// [`crate::ExploreReport`] it is the sum over all executions.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Reads, by mode (awaited reads included).
    pub reads: ModeCounter,
    /// Writes, by mode.
    pub writes: ModeCounter,
    /// Read-modify-writes, by success mode (failed RMWs included).
    pub rmws: ModeCounter,
    /// RMWs whose compute declined to write (failed CAS).
    pub failed_cas: u64,
    /// Reads that went through a `read_await` block.
    pub awaited_reads: u64,
    /// Fences, by mode.
    pub fences: FenceCounter,
    /// Locations allocated.
    pub allocs: u64,
    /// Data races detected (0 or 1 per execution — a race aborts).
    pub races: u64,
    /// Model instructions executed.
    pub steps: u64,
}

impl ExecStats {
    /// Total memory accesses (reads + writes + RMWs, fences excluded).
    pub fn accesses(&self) -> u64 {
        self.reads.total() + self.writes.total() + self.rmws.total()
    }

    /// Machine-readable form (see `EXPERIMENTS.md`, "Observability &
    /// replay", for the schema).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("reads", self.reads.to_json())
            .set("writes", self.writes.to_json())
            .set("rmws", self.rmws.to_json())
            .set("failed_cas", self.failed_cas)
            .set("awaited_reads", self.awaited_reads)
            .set("fences", self.fences.to_json())
            .set("allocs", self.allocs)
            .set("races", self.races)
            .set("steps", self.steps)
    }

    /// Adds `other` into `self` (aggregation across executions).
    pub fn merge(&mut self, other: &ExecStats) {
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
        self.rmws.merge(&other.rmws);
        self.failed_cas += other.failed_cas;
        self.awaited_reads += other.awaited_reads;
        self.fences.merge(&other.fences);
        self.allocs += other.allocs;
        self.races += other.races;
        self.steps += other.steps;
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reads ({} awaited), {} writes, {} rmws ({} failed cas), {} fences, {} allocs, {} races, {} steps",
            self.reads.total(),
            self.awaited_reads,
            self.writes.total(),
            self.rmws.total(),
            self.failed_cas,
            self.fences.total(),
            self.allocs,
            self.races,
            self.steps,
        )
    }
}

/// A power-of-two-bucketed histogram of steps per execution.
///
/// Bucket `i` counts executions with `steps` in `[2^i, 2^(i+1))`
/// (bucket 0 additionally holds zero-step executions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepHistogram {
    buckets: [u64; 64],
    count: u64,
    total: u64,
    max: u64,
}

impl Default for StepHistogram {
    fn default() -> Self {
        StepHistogram {
            buckets: [0; 64],
            count: 0,
            total: 0,
            max: 0,
        }
    }
}

impl StepHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        StepHistogram::default()
    }

    /// Bucket index for a step count.
    fn index(steps: u64) -> usize {
        if steps <= 1 {
            0
        } else {
            63 - steps.leading_zeros() as usize
        }
    }

    /// Records one execution's step count.
    pub fn record(&mut self, steps: u64) {
        self.buckets[Self::index(steps)] += 1;
        self.count += 1;
        self.total += steps;
        self.max = self.max.max(steps);
    }

    /// Number of recorded executions.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean steps per execution (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Maximum recorded step count.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Non-empty buckets as `(lo, hi_inclusive, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lo = if i == 0 { 0 } else { 1u64 << i };
                let hi = if i == 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                (lo, hi, c)
            })
            .collect()
    }

    /// Machine-readable form: summary plus the non-empty buckets.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("count", self.count)
            .set("mean", self.mean())
            .set("max", self.max)
            .set(
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(lo, hi, c)| Json::obj().set("lo", lo).set("hi", hi).set("count", c))
                        .collect(),
                ),
            )
    }

    /// Adds `other`'s recordings into `self`.
    pub fn merge(&mut self, other: &StepHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for StepHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "steps/exec: (no executions)");
        }
        write!(f, "steps/exec: mean {:.1}, max {}:", self.mean(), self.max)?;
        for (lo, hi, c) in self.nonzero_buckets() {
            write!(f, " [{lo}-{hi}]:{c}")?;
        }
        Ok(())
    }
}

/// Pruning counters of a DPOR-enabled DFS exploration (see
/// [`crate::dpor`]).
///
/// Like the rest of an exploration report these are a deterministic
/// function of the work specification: the explored tree is the least
/// fixpoint of the backtrack demands, every execution's demands are a
/// pure function of that execution alone, and each counter below is a
/// function of the fixpoint — so the numbers are byte-identical at any
/// worker count.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DporStats {
    /// Backtrack points added: sibling prefixes pushed onto the DFS
    /// frontier because a conflict demanded the reversal.
    pub backtrack_points: u64,
    /// Sleep-set hits: demanded reversals that were already explored (or
    /// already scheduled), so no new work was pushed.
    pub sleep_hits: u64,
    /// Subtrees skipped: thread-choice siblings plain DFS would have
    /// enumerated that no conflict ever demanded.
    pub pruned_subtrees: u64,
}

impl DporStats {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &DporStats) {
        self.backtrack_points += other.backtrack_points;
        self.sleep_hits += other.sleep_hits;
        self.pruned_subtrees += other.pruned_subtrees;
    }

    /// Machine-readable form (see `EXPERIMENTS.md`, "Partial-order
    /// reduction", for the schema).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("backtrack_points", self.backtrack_points)
            .set("sleep_hits", self.sleep_hits)
            .set("pruned_subtrees", self.pruned_subtrees)
    }
}

impl fmt::Display for DporStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} backtrack points, {} sleep-set hits, {} subtrees pruned",
            self.backtrack_points, self.sleep_hits, self.pruned_subtrees
        )
    }
}

/// Per-worker load-balance counters collected by the work-stealing
/// [`crate::WorkSource`].
///
/// Worker stats are a property of one particular run's scheduling — how
/// the OS happened to interleave the workers — so unlike the rest of an
/// exploration report they are *not* deterministic across thread counts
/// and are kept out of `ExploreReport::to_json`; metrics emit them
/// through [`workers_to_json`] (sorted by worker index).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Executions this worker claimed and ran.
    pub executed: u64,
    /// Claimed DFS prefixes produced by a *different* worker (true
    /// steals; seed-chunk claims and own-produced prefixes don't count).
    pub stolen: u64,
    /// Times this worker blocked on an empty frontier while work was
    /// still in flight.
    pub idle_waits: u64,
    /// Total nanoseconds spent blocked in those waits.
    pub idle_wait_ns: u64,
}

impl WorkerStats {
    /// Adds `other` into `self` (aggregating the same worker index
    /// across explorations).
    pub fn merge(&mut self, other: &WorkerStats) {
        self.executed += other.executed;
        self.stolen += other.stolen;
        self.idle_waits += other.idle_waits;
        self.idle_wait_ns += other.idle_wait_ns;
    }
}

impl fmt::Display for WorkerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} executed, {} stolen, {} idle waits ({:.1}ms)",
            self.executed,
            self.stolen,
            self.idle_waits,
            self.idle_wait_ns as f64 / 1e6
        )
    }
}

/// Renders a worker-stats slice as a JSON array sorted by worker index
/// (the slice is already index-ordered — index `i` is worker `i`).
pub fn workers_to_json(workers: &[WorkerStats]) -> Json {
    Json::Arr(
        workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                Json::obj()
                    .set("worker", i)
                    .set("executed", w.executed)
                    .set("stolen", w.stolen)
                    .set("idle_waits", w.idle_waits)
                    .set("idle_wait_ns", w.idle_wait_ns)
            })
            .collect(),
    )
}

/// Arena reuse counters (see [`crate::global_reuse`]).
///
/// Like [`WorkerStats`], these describe *how* a particular run executed —
/// how many executions landed on a warm arena — not *what* it explored,
/// and they depend on thread count and work distribution. They are
/// therefore kept out of `ExploreReport::to_json` (which is pinned
/// byte-identical across thread counts) and surface through
/// [`ReuseStats::to_json`] in metrics and telemetry.
///
/// Only `arena_execs` is ever written. The other three counted
/// setup-prefix checkpointing, which was measured and removed
/// (DESIGN.md §10); they stay, always 0, until the benchmark rows and
/// metrics schema that read them are retired.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Executions that ran on an already-warm arena (no thread spawns, no
    /// state reallocation).
    pub arena_execs: u64,
    /// Retired: always 0, nothing writes it.
    pub checkpoints_taken: u64,
    /// Retired: always 0, nothing writes it.
    pub checkpoints_restored: u64,
    /// Retired: always 0, nothing writes it.
    pub prefix_steps_saved: u64,
}

impl ReuseStats {
    /// The all-zero counters (usable in `const` contexts).
    pub const ZERO: ReuseStats = ReuseStats {
        arena_execs: 0,
        checkpoints_taken: 0,
        checkpoints_restored: 0,
        prefix_steps_saved: 0,
    };

    /// Adds `other` into `self` (merging reports).
    pub fn merge(&mut self, other: &ReuseStats) {
        self.arena_execs += other.arena_execs;
        self.checkpoints_taken += other.checkpoints_taken;
        self.checkpoints_restored += other.checkpoints_restored;
        self.prefix_steps_saved += other.prefix_steps_saved;
    }

    /// Counter-wise `self - other` (attributing a delta to one
    /// exploration from cumulative per-thread counters).
    pub fn delta_since(&self, other: &ReuseStats) -> ReuseStats {
        ReuseStats {
            arena_execs: self.arena_execs - other.arena_execs,
            checkpoints_taken: self.checkpoints_taken - other.checkpoints_taken,
            checkpoints_restored: self.checkpoints_restored - other.checkpoints_restored,
            prefix_steps_saved: self.prefix_steps_saved - other.prefix_steps_saved,
        }
    }

    /// Machine-readable form (metrics schema v7's `reuse` object).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("arena_execs", self.arena_execs)
            .set("checkpoints_taken", self.checkpoints_taken)
            .set("checkpoints_restored", self.checkpoints_restored)
            .set("prefix_steps_saved", self.prefix_steps_saved)
    }
}

impl fmt::Display for ReuseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} warm-arena execs (retired, always 0: {} checkpoints taken, {} restored, {} setup steps saved)",
            self.arena_execs,
            self.checkpoints_taken,
            self.checkpoints_restored,
            self.prefix_steps_saved
        )
    }
}

/// Online Knuth-style estimate of a DFS/DPOR enumeration's size, built
/// from completed root-to-leaf paths of the choice tree.
///
/// Each completed execution's path visits a sequence of decisions with
/// known arities; a uniformly-random descent would reach that exact leaf
/// with probability `1 / ∏ arity`. Summing those probabilities over the
/// *visited* leaves gives the fraction of the tree's total probability
/// mass already enumerated — exactly 1 when a plain DFS exhausts the
/// tree — so `percent_complete` is the accumulated mass and
/// `est_total_execs` is `paths / mass` (Knuth 1975's importance-weighted
/// estimator, folded incrementally instead of sampled).
///
/// The mass is accumulated in **fixed point** (units of 2⁻⁶⁴, as a
/// `u128`) rather than floating point: integer saturating addition is
/// commutative and associative, so the total is independent of the order
/// workers complete executions in, and the estimate stays inside the
/// byte-identical determinism guarantee for exhausted runs. Under DPOR
/// the pruned sibling subtrees never contribute mass, so an exhausted
/// DPOR run ends below 1 and the estimate reads as the size of the
/// *unpruned* tree — an upper bound, documented in `DESIGN.md` §13
/// ("Telemetry bus").
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Estimate {
    /// Completed root-to-leaf paths folded into the estimate.
    pub paths: u64,
    /// Accumulated probability mass in units of 2⁻⁶⁴: each path adds
    /// `⌊2⁶⁴ / ∏ arity⌋` (its importance weight), saturating.
    pub mass: u128,
}

impl Estimate {
    /// One whole unit of probability mass (`2⁶⁴`).
    pub const UNIT: u128 = 1u128 << 64;

    /// Folds in one completed execution's decision arities.
    pub fn record_path(&mut self, arities: impl IntoIterator<Item = u32>) {
        let mut prod: u128 = 1;
        for a in arities {
            prod = prod.saturating_mul(u128::from(a.max(1)));
        }
        self.paths += 1;
        self.mass = self.mass.saturating_add(Self::UNIT / prod);
    }

    /// Adds `other` into `self` (order-insensitive, like every report
    /// merge).
    pub fn merge(&mut self, other: &Estimate) {
        self.paths += other.paths;
        self.mass = self.mass.saturating_add(other.mass);
    }

    /// Estimated total executions in the tree: `paths / mass`, rounded
    /// down (0 before the first path completes). Exact at plain-DFS
    /// exhaustion up to per-path floor rounding.
    pub fn est_total_execs(&self) -> u64 {
        if self.mass == 0 {
            return 0;
        }
        let est = (u128::from(self.paths) << 64) / self.mass;
        est.min(u128::from(u64::MAX)) as u64
    }

    /// Visited probability mass as thousandths of a percent (0..=100_000),
    /// the integer the float views below derive from.
    pub fn percent_x1000(&self) -> u64 {
        let p = self.mass.saturating_mul(100_000) >> 64;
        p.min(100_000) as u64
    }

    /// Visited probability mass as a percentage in [0, 100].
    pub fn percent_complete(&self) -> f64 {
        self.percent_x1000() as f64 / 1000.0
    }

    /// Machine-readable form (`estimate` in reports and metrics; gated on
    /// `exhausted` there, since a truncated parallel DFS visits a
    /// thread-count-dependent leaf set).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("paths", self.paths)
            .set("est_total_execs", self.est_total_execs())
            .set("percent_complete", self.percent_complete())
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} paths, ~{} total ({:.1}% visited)",
            self.paths,
            self.est_total_execs(),
            self.percent_complete()
        )
    }
}

/// Schedule-coverage tracking: how much of the interleaving space an
/// exploration actually visited.
#[derive(Clone, Debug, Default)]
pub struct Coverage {
    seen: HashSet<u64>,
    /// Decision-tree nodes visited (DFS exploration only; 0 otherwise).
    pub dfs_nodes: u64,
}

impl Coverage {
    /// Creates empty coverage.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Records an execution's choice trace; returns `true` if this exact
    /// trace had not been seen before.
    ///
    /// Traces are tracked as 64-bit FNV-1a hashes — a collision
    /// undercounts coverage by one but costs no memory per trace.
    pub fn record_trace(&mut self, trace: &[Choice]) -> bool {
        self.seen.insert(hash_trace(trace))
    }

    /// Number of distinct choice traces observed.
    pub fn distinct_traces(&self) -> u64 {
        self.seen.len() as u64
    }

    /// Accounts the decision-tree nodes newly visited by one DFS
    /// execution: an execution claimed at canonical prefix length
    /// `prefix_len` shares its first `prefix_len - 1` nodes with the
    /// execution that spawned the prefix, and visits the rest of its
    /// `trace_len` nodes for the first time.
    ///
    /// This is the single home of the accounting both `orc11`'s explorer
    /// and `compass`' checker report, so the two cannot drift.
    pub fn record_dfs_execution(&mut self, prefix_len: usize, trace_len: usize) {
        let shared = prefix_len.saturating_sub(1).min(trace_len);
        self.dfs_nodes += (trace_len - shared) as u64;
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &Coverage) {
        self.seen.extend(other.seen.iter().copied());
        self.dfs_nodes += other.dfs_nodes;
    }
}

/// FNV-1a over the (kind, chosen, arity) stream of a choice trace.
fn hash_trace(trace: &[Choice]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for c in trace {
        eat(match c.kind {
            crate::sched::ChoiceKind::Thread => 1,
            crate::sched::ChoiceKind::Read => 2,
        });
        eat(c.chosen as u64);
        eat(c.arity as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::ChoiceKind;

    fn choice(kind: ChoiceKind, chosen: u32, arity: u32) -> Choice {
        Choice {
            kind,
            chosen,
            arity,
        }
    }

    #[test]
    fn mode_counter_counts_each_mode() {
        let mut c = ModeCounter::default();
        for m in [
            Mode::NonAtomic,
            Mode::Relaxed,
            Mode::Relaxed,
            Mode::Release,
            Mode::Acquire,
            Mode::AcqRel,
        ] {
            c.bump(m);
        }
        assert_eq!(c.na, 1);
        assert_eq!(c.rlx, 2);
        assert_eq!(c.rel, 1);
        assert_eq!(c.acq, 1);
        assert_eq!(c.acq_rel, 1);
        assert_eq!(c.total(), 6);
        assert_eq!(c.entries()[1], ("rlx", 2));
    }

    #[test]
    fn fence_counter_counts_each_mode() {
        let mut c = FenceCounter::default();
        for m in [
            FenceMode::Acquire,
            FenceMode::Release,
            FenceMode::AcqRel,
            FenceMode::SeqCst,
            FenceMode::SeqCst,
        ] {
            c.bump(m);
        }
        assert_eq!((c.acq, c.rel, c.acq_rel, c.sc), (1, 1, 1, 2));
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn exec_stats_merge_adds_fields() {
        let mut a = ExecStats::default();
        a.reads.bump(Mode::Acquire);
        a.failed_cas = 2;
        a.steps = 10;
        let mut b = ExecStats::default();
        b.reads.bump(Mode::Acquire);
        b.writes.bump(Mode::Release);
        b.races = 1;
        b.steps = 5;
        a.merge(&b);
        assert_eq!(a.reads.acq, 2);
        assert_eq!(a.writes.rel, 1);
        assert_eq!(a.failed_cas, 2);
        assert_eq!(a.races, 1);
        assert_eq!(a.steps, 15);
        assert_eq!(a.accesses(), 3);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = StepHistogram::new();
        for s in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(s);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1000);
        let buckets = h.nonzero_buckets();
        // 0,1 -> [0,1]; 2,3 -> [2,3]; 4,7 -> [4,7]; 8 -> [8,15]; 1000 -> [512,1023]
        assert_eq!(
            buckets,
            vec![(0, 1, 2), (2, 3, 2), (4, 7, 2), (8, 15, 1), (512, 1023, 1)]
        );
        let mut h2 = StepHistogram::new();
        h2.record(2);
        h.merge(&h2);
        assert_eq!(h.count(), 9);
        assert_eq!(h.nonzero_buckets()[1], (2, 3, 3));
    }

    #[test]
    fn stats_json_has_the_documented_keys() {
        let mut s = ExecStats::default();
        s.reads.bump(Mode::Acquire);
        s.steps = 3;
        let j = s.to_json();
        for key in [
            "reads",
            "writes",
            "rmws",
            "failed_cas",
            "awaited_reads",
            "fences",
            "allocs",
            "races",
            "steps",
        ] {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(
            j.get("reads").and_then(|r| r.get("acq")),
            Some(&Json::Int(1))
        );
        assert_eq!(j.get("steps"), Some(&Json::Int(3)));

        let mut h = StepHistogram::new();
        h.record(5);
        let hj = h.to_json();
        assert_eq!(hj.get("count"), Some(&Json::Int(1)));
        assert_eq!(hj.get("max"), Some(&Json::Int(5)));
        assert_eq!(hj.get("mean"), Some(&Json::Float(5.0)));
        assert_eq!(
            hj.get("buckets").map(|b| b.render()),
            Some(r#"[{"lo":4,"hi":7,"count":1}]"#.to_string())
        );
    }

    #[test]
    fn worker_stats_merge_and_json() {
        let mut a = WorkerStats {
            executed: 3,
            stolen: 1,
            idle_waits: 2,
            idle_wait_ns: 500,
        };
        a.merge(&WorkerStats {
            executed: 1,
            stolen: 0,
            idle_waits: 1,
            idle_wait_ns: 100,
        });
        assert_eq!(
            (a.executed, a.stolen, a.idle_waits, a.idle_wait_ns),
            (4, 1, 3, 600)
        );
        let j = workers_to_json(&[a, WorkerStats::default()]);
        assert_eq!(
            j.render(),
            r#"[{"worker":0,"executed":4,"stolen":1,"idle_waits":3,"idle_wait_ns":600},{"worker":1,"executed":0,"stolen":0,"idle_waits":0,"idle_wait_ns":0}]"#
        );
        assert!(format!("{a}").contains("4 executed"));
    }

    #[test]
    fn reuse_stats_merge_delta_json() {
        let a = ReuseStats {
            arena_execs: 5,
            checkpoints_taken: 1,
            checkpoints_restored: 4,
            prefix_steps_saved: 40,
        };
        let b = ReuseStats {
            arena_execs: 2,
            checkpoints_taken: 1,
            checkpoints_restored: 1,
            prefix_steps_saved: 10,
        };
        let d = a.delta_since(&b);
        assert_eq!(d.arena_execs, 3);
        assert_eq!(d.checkpoints_taken, 0);
        let mut m = b;
        m.merge(&d);
        assert_eq!(m, a);
        assert_eq!(
            a.to_json().render(),
            r#"{"arena_execs":5,"checkpoints_taken":1,"checkpoints_restored":4,"prefix_steps_saved":40}"#
        );
        assert!(format!("{a}").contains("4 restored"));
    }

    #[test]
    fn estimate_is_exact_on_a_complete_uniform_tree() {
        // A full 2×3 tree has 6 leaves, each with mass 1/6.
        let mut e = Estimate::default();
        for _ in 0..6 {
            e.record_path([2u32, 3]);
        }
        assert_eq!(e.paths, 6);
        assert_eq!(e.est_total_execs(), 6);
        // 6 × ⌊2⁶⁴/6⌋ loses at most 6 fixed-point ulps of mass.
        assert!(Estimate::UNIT - e.mass < 8);
        assert_eq!(e.percent_x1000(), 99_999);
    }

    #[test]
    fn estimate_single_path_is_exact_immediately() {
        let mut e = Estimate::default();
        e.record_path(std::iter::empty());
        assert_eq!(e.paths, 1);
        assert_eq!(e.mass, Estimate::UNIT);
        assert_eq!(e.est_total_execs(), 1);
        assert_eq!(e.percent_complete(), 100.0);
    }

    #[test]
    fn estimate_merge_is_order_insensitive_and_partial_mass_projects() {
        // Half of a 2×2 tree (the two leaves under the first branch):
        // mass 1/4 each, so after 2 paths the estimate projects 4.
        let mut a = Estimate::default();
        a.record_path([2u32, 2]);
        let mut b = Estimate::default();
        b.record_path([2u32, 2]);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.est_total_execs(), 4);
        assert_eq!(ab.percent_x1000(), 50_000);
        let j = ab.to_json();
        assert_eq!(j.get("paths"), Some(&Json::Int(2)));
        assert_eq!(j.get("est_total_execs"), Some(&Json::Int(4)));
        assert_eq!(j.get("percent_complete"), Some(&Json::Float(50.0)));
        assert!(format!("{ab}").contains("50.0% visited"));
        // Zero-arity guard and empty estimate.
        assert_eq!(Estimate::default().est_total_execs(), 0);
        let mut z = Estimate::default();
        z.record_path([0u32]);
        assert_eq!(z.est_total_execs(), 1);
    }

    #[test]
    fn coverage_counts_distinct_traces() {
        let mut cov = Coverage::new();
        let t1 = [choice(ChoiceKind::Thread, 0, 2)];
        let t2 = [choice(ChoiceKind::Thread, 1, 2)];
        let t3 = [choice(ChoiceKind::Read, 0, 2)];
        assert!(cov.record_trace(&t1));
        assert!(!cov.record_trace(&t1));
        assert!(cov.record_trace(&t2));
        assert!(cov.record_trace(&t3));
        assert_eq!(cov.distinct_traces(), 3);
        // Arity participates in the hash.
        let t4 = [choice(ChoiceKind::Thread, 0, 3)];
        assert!(cov.record_trace(&t4));
        assert_eq!(cov.distinct_traces(), 4);
    }
}
