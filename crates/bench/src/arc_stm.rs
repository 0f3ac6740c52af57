//! The Arc and TML subjects on both rails (DESIGN.md §12).
//!
//! Model rail: the exhaustive explorations of the model Arc and TML and
//! their seeded controls, shared by `e14_arc_stm` and the soundness
//! tests.
//!
//! Native rail: [`ConformSubject`] drivers for the two native structures
//! whose vocabularies are *not* produce/take — the [`ArcCell`] refcount
//! and the [`Tml`] transactional store. Each stress-runs on real threads
//! via the `compass-native` recorder, translating results into the event
//! vocabularies the model checker already uses (`ArcEvent`, `StmEvent`).
//! The produce/take libraries are described once in [`crate::roles`]
//! instead.

use std::sync::atomic::{AtomicUsize, Ordering};

use compass::arc_spec::{check_arc_consistent, ArcEvent};
use compass::checker::{
    check_executions_with, CheckOptions, CheckReport, CheckTarget, Exploration,
};
use compass::conform::{ConformSubject, History, RoundSpec};
use compass::stm_spec::{check_stm_consistent, StmEvent};
use compass::SpecResult;
use compass_native::recorder::run_round;
use compass_native::{Aborted, ArcCell, StrongDrop, Tml, TmlTxn, WeakArcCell, WeakTml};
use compass_structures::arc::ModelArc;
use compass_structures::buggy::{relaxed_arc, UnvalidatedTml};
use compass_structures::clients::{
    run_client, Client, Object, ARC_CLONE_DROPS, ARC_TWO_DROPS, TML_WRITER_READER,
};
use compass_structures::stm::ModelTml;
use orc11::{Config, ThreadCtx, Val};

use crate::roles::{round_value, to_history};

// ---- the model-rail subjects ---------------------------------------------
//
// Small enough for exhaustive DFS, racy enough that the seeded bugs are
// reachable.

/// The DFS budget of the model-rail explorations (far above their trees).
pub const MODEL_BUDGET: u64 = 500_000;

/// Exhaustive DFS of `client` on `make`'s object, with or without DPOR,
/// at `threads` checker threads.
fn explore<O: Object>(
    make: impl Fn(&mut ThreadCtx) -> O + Send + Sync,
    client: &Client,
    check: impl Fn(&O::Graph) -> SpecResult + Sync,
    dpor: bool,
    threads: usize,
) -> CheckReport
where
    O::Graph: CheckTarget,
{
    let opts = CheckOptions {
        threads,
        dpor: Some(dpor),
        ..CheckOptions::default()
    };
    check_executions_with(
        &Exploration::Dfs {
            budget: MODEL_BUDGET,
        },
        &opts,
        |strategy| run_client(&Config::default(), &make, client, strategy),
        check,
    )
}

/// [`ModelArc`] under [`ARC_CLONE_DROPS`]: clean on every execution.
pub fn explore_model_arc(dpor: bool, threads: usize) -> CheckReport {
    let make = |ctx: &mut ThreadCtx| ModelArc::new(ctx, Val::Int(42));
    explore(make, &ARC_CLONE_DROPS, check_arc_consistent, dpor, threads)
}

/// The relaxed-drop control under [`ARC_TWO_DROPS`]: `ARC-UAF`.
pub fn explore_relaxed_arc(dpor: bool, threads: usize) -> CheckReport {
    let make = |ctx: &mut ThreadCtx| relaxed_arc(ctx, Val::Int(42));
    explore(make, &ARC_TWO_DROPS, check_arc_consistent, dpor, threads)
}

/// [`ModelTml`] under [`TML_WRITER_READER`]: clean on every execution.
pub fn explore_model_stm(dpor: bool, threads: usize) -> CheckReport {
    let make = |ctx: &mut ThreadCtx| ModelTml::new(ctx, 2);
    explore(
        make,
        &TML_WRITER_READER,
        check_stm_consistent,
        dpor,
        threads,
    )
}

/// [`UnvalidatedTml`] under [`TML_WRITER_READER`]: `STM-RO`.
pub fn explore_unvalidated_stm(dpor: bool, threads: usize) -> CheckReport {
    let make = |ctx: &mut ThreadCtx| UnvalidatedTml::new(ctx, 2);
    explore(
        make,
        &TML_WRITER_READER,
        check_stm_consistent,
        dpor,
        threads,
    )
}

// ---- the native subjects --------------------------------------------------

/// The shared surface of [`ArcCell`] and its weakened control — every
/// operation returns the observed old count(s) the refcount driver
/// turns into [`ArcEvent`]s.
pub trait ArcLike: Send + Sync {
    /// See [`ArcCell::clone_ref`].
    fn clone_ref(&self) -> i64;
    /// See [`ArcCell::drop_ref`].
    fn drop_ref(&self) -> StrongDrop;
    /// See [`ArcCell::downgrade`].
    fn downgrade(&self) -> i64;
    /// See [`ArcCell::drop_weak`].
    fn drop_weak(&self) -> i64;
    /// See [`ArcCell::try_upgrade`].
    fn try_upgrade(&self) -> Option<i64>;
    /// See [`ArcCell::load`].
    fn load(&self) -> i64;
}

impl ArcLike for ArcCell {
    fn clone_ref(&self) -> i64 {
        ArcCell::clone_ref(self)
    }
    fn drop_ref(&self) -> StrongDrop {
        ArcCell::drop_ref(self)
    }
    fn downgrade(&self) -> i64 {
        ArcCell::downgrade(self)
    }
    fn drop_weak(&self) -> i64 {
        ArcCell::drop_weak(self)
    }
    fn try_upgrade(&self) -> Option<i64> {
        ArcCell::try_upgrade(self)
    }
    fn load(&self) -> i64 {
        ArcCell::load(self)
    }
}

impl ArcLike for WeakArcCell {
    fn clone_ref(&self) -> i64 {
        WeakArcCell::clone_ref(self)
    }
    fn drop_ref(&self) -> StrongDrop {
        WeakArcCell::drop_ref(self)
    }
    fn downgrade(&self) -> i64 {
        WeakArcCell::downgrade(self)
    }
    fn drop_weak(&self) -> i64 {
        WeakArcCell::drop_weak(self)
    }
    fn try_upgrade(&self) -> Option<i64> {
        WeakArcCell::try_upgrade(self)
    }
    fn load(&self) -> i64 {
        WeakArcCell::load(self)
    }
}

/// Turns a native [`StrongDrop`] into its event(s). A deallocating drop
/// is one call but three spec events — drop-to-zero, reclamation, and
/// the implicit weak release — which share the call's invocation window
/// (identical intervals add no real-time edges, so the `ORDER` stage's
/// linearization search orders them itself).
fn strong_drop_events(d: &StrongDrop) -> Vec<ArcEvent> {
    match d.dealloc {
        // Both native cells reclaim exactly when the decrement observed
        // count 1, so a deallocating drop is always a `DropLast`.
        Some(weak_old) => vec![
            ArcEvent::DropLast,
            ArcEvent::Dealloc,
            ArcEvent::WeakDrop { old: weak_old },
        ],
        // A lost-update control may observe any stale count here (0,
        // negative, a duplicate) — faithfully recorded, so the range /
        // order stages can convict it.
        None => vec![ArcEvent::Drop { old: d.old }],
    }
}

/// An Arc-style refcount under conformance test. Each thread keeps a
/// local ledger of the strong and weak references *it* holds and only
/// ever drops those, so on a correct cell the global count cannot hit
/// zero before the recorded teardown; thread 0 additionally inherits
/// the creator's reference, so the round ends with a recorded
/// drop-to-zero, `Dealloc`, and (for late upgraders) `UpgradeFail`.
pub struct ArcSubject<C, F> {
    name: &'static str,
    make: F,
    _c: std::marker::PhantomData<fn() -> C>,
}

impl<C, F> ArcSubject<C, F>
where
    C: ArcLike,
    F: Fn() -> C + Sync,
{
    /// A named refcount subject built by `make()` each round.
    pub fn new(name: &'static str, make: F) -> Self {
        ArcSubject {
            name,
            make,
            _c: std::marker::PhantomData,
        }
    }
}

impl<C, F> ConformSubject for ArcSubject<C, F>
where
    C: ArcLike,
    F: Fn() -> C + Sync,
{
    type Ev = ArcEvent;

    fn name(&self) -> &str {
        self.name
    }

    fn round(&self, spec: &RoundSpec) -> History<ArcEvent> {
        let cell = (self.make)();
        // Threads past their entry clone. Until a thread holds its own
        // reference only the creator's keeps the cell alive, so thread 0
        // must not tear down before everyone is in: a thread descheduled
        // right after the barrier would otherwise clone a dead cell — a
        // use-after-free by this *driver*, reported as `CONFORM-ARC-RANGE`
        // on a correct cell.
        let entered = AtomicUsize::new(0);
        let logs = run_round(spec.threads, spec.seed, |ctx, log| {
            // References this thread holds. Thread 0 inherits the
            // creator's strong reference so every reference has an
            // owner and the round tears all of them down.
            let mut strong = usize::from(ctx.index == 0);
            let mut weak = 0usize;
            // Recorded entry clone: every recorded count movement
            // starts from the replayable initial state (strong = 1).
            log.record(
                ctx.clock,
                || cell.clone_ref(),
                |&old| Some(ArcEvent::Clone { old }),
            );
            strong += 1;
            entered.fetch_add(1, Ordering::Release);
            for _ in 0..spec.ops_per_thread {
                ctx.jitter.stagger();
                match ctx.jitter.below(6) {
                    0 => {
                        log.record(
                            ctx.clock,
                            || cell.clone_ref(),
                            |&old| Some(ArcEvent::Clone { old }),
                        );
                        strong += 1;
                    }
                    1 if strong >= 2 => {
                        log.record_split(ctx.clock, || cell.drop_ref(), strong_drop_events);
                        strong -= 1;
                    }
                    2 => {
                        log.record(
                            ctx.clock,
                            || cell.downgrade(),
                            |&old| Some(ArcEvent::WeakClone { old }),
                        );
                        weak += 1;
                    }
                    3 if weak >= 1 => {
                        let up = log.record(
                            ctx.clock,
                            || cell.try_upgrade(),
                            |r| {
                                Some(match r {
                                    Some(old) => ArcEvent::UpgradeOk { old: *old },
                                    None => ArcEvent::UpgradeFail,
                                })
                            },
                        );
                        if up.is_some() {
                            strong += 1;
                        }
                    }
                    4 if weak >= 1 => {
                        log.record(
                            ctx.clock,
                            || cell.drop_weak(),
                            |&old| Some(ArcEvent::WeakDrop { old }),
                        );
                        weak -= 1;
                    }
                    _ => {
                        // Payload access through a held reference; not
                        // an event (a use-after-free surfaces through
                        // the event history, not this value).
                        std::hint::black_box(cell.load());
                    }
                }
            }
            while ctx.index == 0 && entered.load(Ordering::Acquire) < spec.threads {
                std::thread::yield_now();
            }
            // Recorded teardown: release everything still held.
            // Exactly one of the round's final strong drops observes
            // count 1 and expands to DropLast + Dealloc + WeakDrop.
            while strong > 0 {
                ctx.jitter.stagger();
                log.record_split(ctx.clock, || cell.drop_ref(), strong_drop_events);
                strong -= 1;
            }
            if weak > 0 {
                // Probe the end-of-life upgrade path: against a dead
                // cell this records the UpgradeFail transition.
                let up = log.record(
                    ctx.clock,
                    || cell.try_upgrade(),
                    |r| {
                        Some(match r {
                            Some(old) => ArcEvent::UpgradeOk { old: *old },
                            None => ArcEvent::UpgradeFail,
                        })
                    },
                );
                if up.is_some() {
                    log.record_split(ctx.clock, || cell.drop_ref(), strong_drop_events);
                }
            }
            while weak > 0 {
                log.record(
                    ctx.clock,
                    || cell.drop_weak(),
                    |&old| Some(ArcEvent::WeakDrop { old }),
                );
                weak -= 1;
            }
        });
        to_history(logs)
    }
}

/// The shared surface of [`Tml`] and its weakened control. The weak
/// store's unvalidated read never aborts, so its adapter wraps the raw
/// value in `Ok` — the *histories* tell the two apart, not the types.
pub trait StmLike: Send + Sync {
    /// See [`Tml::begin`].
    fn begin(&self, tx: i64) -> TmlTxn;
    /// See [`Tml::read`].
    ///
    /// # Errors
    ///
    /// [`Aborted`] when read validation fails (never, on the weak
    /// control — that is its seeded bug).
    fn read(&self, txn: &TmlTxn, key: usize) -> Result<i64, Aborted>;
    /// See [`Tml::write`].
    ///
    /// # Errors
    ///
    /// [`Aborted`] when the lock CAS loses to a concurrent writer.
    fn write(&self, txn: &mut TmlTxn, key: usize, v: i64) -> Result<(), Aborted>;
    /// See [`Tml::commit`].
    fn commit(&self, txn: TmlTxn) -> i64;
    /// Number of keys.
    fn n_keys(&self) -> usize;
}

impl StmLike for Tml {
    fn begin(&self, tx: i64) -> TmlTxn {
        Tml::begin(self, tx)
    }
    fn read(&self, txn: &TmlTxn, key: usize) -> Result<i64, Aborted> {
        Tml::read(self, txn, key)
    }
    fn write(&self, txn: &mut TmlTxn, key: usize, v: i64) -> Result<(), Aborted> {
        Tml::write(self, txn, key, v)
    }
    fn commit(&self, txn: TmlTxn) -> i64 {
        Tml::commit(self, txn)
    }
    fn n_keys(&self) -> usize {
        Tml::n_keys(self)
    }
}

impl StmLike for WeakTml {
    fn begin(&self, tx: i64) -> TmlTxn {
        WeakTml::begin(self, tx)
    }
    fn read(&self, txn: &TmlTxn, key: usize) -> Result<i64, Aborted> {
        Ok(WeakTml::read(self, txn, key))
    }
    fn write(&self, txn: &mut TmlTxn, key: usize, v: i64) -> Result<(), Aborted> {
        WeakTml::write(self, txn, key, v)
    }
    fn commit(&self, txn: TmlTxn) -> i64 {
        WeakTml::commit(self, txn)
    }
    fn n_keys(&self) -> usize {
        4
    }
}

/// A TML software-transactional store under conformance test. Each
/// "op" is one whole transaction — begin, a few reads and/or writes,
/// then commit — every step its own timed event; an [`Aborted`] step
/// records `Abort` and ends the transaction (no retry: the abort *is*
/// the event). Transaction ids are globally distinct
/// (`(thread+1)*1_000_000 + k`), and writers write distinct values, so
/// the version-order checks are exact.
pub struct StmSubject<S, F> {
    name: &'static str,
    make: F,
    _s: std::marker::PhantomData<fn() -> S>,
}

impl<S, F> StmSubject<S, F>
where
    S: StmLike,
    F: Fn() -> S + Sync,
{
    /// A named STM subject built by `make()` each round.
    pub fn new(name: &'static str, make: F) -> Self {
        StmSubject {
            name,
            make,
            _s: std::marker::PhantomData,
        }
    }
}

impl<S, F> ConformSubject for StmSubject<S, F>
where
    S: StmLike,
    F: Fn() -> S + Sync,
{
    type Ev = StmEvent;

    fn name(&self) -> &str {
        self.name
    }

    fn round(&self, spec: &RoundSpec) -> History<StmEvent> {
        let store = (self.make)();
        let n_keys = store.n_keys().max(1);
        let logs = run_round(spec.threads, spec.seed, |ctx, log| {
            for k in 0..spec.ops_per_thread {
                ctx.jitter.stagger();
                let tx = round_value(ctx.index, k);
                let mut txn = log.record(
                    ctx.clock,
                    || store.begin(tx),
                    |t| Some(StmEvent::Begin { tx, ver: t.ver() }),
                );
                // 2-3 steps per transaction; about half the
                // transactions write, at a random step — a write first
                // exercises locked (validation-free) reads after it, a
                // write last exercises validated reads before it.
                let steps = 2 + ctx.jitter.below(2);
                let write_step = if ctx.jitter.chance(1, 2) {
                    ctx.jitter.below(steps)
                } else {
                    u64::MAX
                };
                let mut aborted = false;
                for s in 0..steps {
                    ctx.jitter.stagger();
                    let key = ctx.jitter.below(n_keys as u64) as usize;
                    let ok = if s == write_step {
                        let v = round_value(ctx.index, k);
                        log.record(
                            ctx.clock,
                            || store.write(&mut txn, key, v),
                            |r| {
                                Some(match r {
                                    Ok(()) => StmEvent::Write {
                                        tx,
                                        key: key as i64,
                                        v: Val::Int(v),
                                    },
                                    Err(Aborted) => StmEvent::Abort { tx },
                                })
                            },
                        )
                        .is_ok()
                    } else {
                        log.record(
                            ctx.clock,
                            || store.read(&txn, key),
                            |r| {
                                Some(match r {
                                    Ok(v) => StmEvent::Read {
                                        tx,
                                        key: key as i64,
                                        v: Val::Int(*v),
                                    },
                                    Err(Aborted) => StmEvent::Abort { tx },
                                })
                            },
                        )
                        .is_ok()
                    };
                    if !ok {
                        aborted = true;
                        break;
                    }
                }
                if !aborted {
                    log.record(
                        ctx.clock,
                        || store.commit(txn),
                        |&ver| Some(StmEvent::Commit { tx, ver }),
                    );
                }
            }
        });
        to_history(logs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::conform::{run_conformance, ConformOptions};

    fn quick() -> ConformOptions {
        ConformOptions {
            rounds: 3,
            threads: 4,
            ops_per_thread: 24,
            seed0: 1,
            ..ConformOptions::default()
        }
    }

    #[test]
    fn arc_rounds_conform() {
        let subject = ArcSubject::new("ArcCell", || ArcCell::new(1));
        run_conformance(&subject, &quick()).assert_clean();
    }

    #[test]
    fn stm_rounds_conform() {
        let subject = StmSubject::new("Tml", || Tml::new(4));
        run_conformance(&subject, &quick()).assert_clean();
    }

    /// The weakened controls must *eventually* be flagged under
    /// contention — the bounded-attempt regime the e14 experiment and
    /// the root soundness tests pin down precisely; here a cheap smoke
    /// that the drivers can convict at all.
    #[test]
    fn weak_arc_is_flagged_within_bounded_rounds() {
        let subject = ArcSubject::new("WeakArcCell", || WeakArcCell::new(1));
        let report = run_conformance(
            &subject,
            &ConformOptions {
                rounds: 64,
                threads: 4,
                ops_per_thread: 48,
                seed0: 7,
                stop_on_violation: true,
                ..ConformOptions::default()
            },
        );
        assert!(
            !report.violations.is_empty(),
            "lost-update Arc was never flagged in 64 rounds"
        );
        assert!(report
            .violations
            .keys()
            .all(|rule| rule.starts_with("CONFORM-ARC-")));
    }

    #[test]
    fn weak_stm_is_flagged_within_bounded_rounds() {
        let subject = StmSubject::new("WeakTml", || WeakTml::new(4));
        let report = run_conformance(
            &subject,
            &ConformOptions {
                rounds: 64,
                threads: 4,
                ops_per_thread: 48,
                seed0: 7,
                stop_on_violation: true,
                ..ConformOptions::default()
            },
        );
        assert!(
            !report.violations.is_empty(),
            "unvalidated-read TML was never flagged in 64 rounds"
        );
        assert!(report
            .violations
            .keys()
            .all(|rule| rule.starts_with("CONFORM-STM-")));
    }
}
