//! The execution harness: model threads as coroutines driven by a strategy.
//!
//! A model program has three phases:
//!
//! 1. **setup** — runs solo on the main context (thread id 0), typically
//!    allocating locations and building library objects;
//! 2. **parallel bodies** — each runs as a stackful coroutine (ids
//!    `1..=n`, see [`crate::coro`]) on the OS thread that called
//!    [`run_model`]; every model instruction passes through a turnstile
//!    so that exactly one instruction executes at a time and every
//!    interleaving decision is delegated to the [`Strategy`];
//! 3. **finish** — runs solo again with the join of all final thread views
//!    (like joining the threads), typically asserting postconditions and
//!    extracting results.
//!
//! The scheduler only makes a decision once *every* live thread has either
//! arrived at the turnstile or finished, which makes executions a
//! deterministic function of the strategy's choices — the basis for replay
//! and exhaustive exploration.
//!
//! # The turnstile
//!
//! A body that arrives at an instruction marks itself arrived and calls
//! `maybe_decide`; unless the decision scheduled that very body it
//! switches back to the driver (phase 2 of `run_in_arena`) and re-checks
//! `aborted`/`current` when resumed. The driver resumes bodies `1..=n`
//! once each in tid order — each runs to its first arrival or its end, so
//! the host code a body executes before its first instruction runs in tid
//! order too, where it used to race — then keeps resuming
//! `ExecState::current` until nothing is scheduled or the execution
//! aborted, and finally resumes every body still suspended once more: it
//! observes `aborted`, unwinds through its own `catch_unwind` and drops
//! its locals before `run_model` returns. No OS thread is created, parked
//! or woken anywhere on this path.
//!
//! # Execution arenas
//!
//! Executions are cheap to *reset* but expensive to *rebuild*, so the
//! harness keeps a thread-local [`ExecArena`] alive between [`run_model`]
//! calls: one pooled coroutine stack per body slot (allocated once,
//! reused by every later execution), the shared execution state (memory
//! location histories, thread views, trace and access buffers — cleared
//! with capacity retained) and a pooled strategy reset from its
//! descriptor. Every execution runs its setup, bodies and finish in full;
//! [`global_reuse`] counts the executions that landed on a warm arena.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::VecClock;
use crate::coro::{self, Coro};
use crate::dpor::{Access, AccessKind, StepAccess, CANDIDATES_UNKNOWN};
use crate::error::ModelError;
use crate::frontier::Frontier;
use crate::memory::Memory;
use crate::mode::{FenceMode, Mode};
use crate::oplog::{OpKindRecord, OpRecord};
use crate::sched::{dfs_strategy, Choice, ChoiceKind, Strategy};
use crate::stats::{ExecStats, ReuseStats};
use crate::tview::ThreadView;
use crate::val::{Loc, ThreadId, Val};
use crate::work::StrategyDesc;

/// Execution configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Abort the execution after this many model instructions (livelock
    /// guard). Default: 100 000.
    pub max_steps: u64,
    /// Record every model instruction into [`RunOutcome::ops`]
    /// (see [`crate::render_ops`]). Default: off.
    pub record_ops: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_steps: 100_000,
            record_ops: false,
        }
    }
}

/// Sentinel panic payload used to unwind simulated threads after the
/// execution has been aborted (race, step limit, deadlock, ...).
struct ModelAbort;

type Pred = Box<dyn Fn(Val) -> bool + Send>;

struct ThreadSlot {
    tv: ThreadView,
    arrived: bool,
    finished: bool,
    /// `Some` while the thread is blocked in `read_await`.
    waiting: Option<(Loc, Mode, Pred)>,
}

struct ExecState {
    memory: Memory,
    threads: Vec<ThreadSlot>,
    strategy: Box<dyn Strategy>,
    trace: Vec<Choice>,
    current: Option<ThreadId>,
    aborted: Option<ModelError>,
    steps: u64,
    max_steps: u64,
    /// True during setup/finish: instructions execute immediately.
    solo: bool,
    n_bodies: usize,
    /// The global SC frontier joined/published by SC fences.
    sc: Frontier,
    /// Recorded instructions (when `Config::record_ops`).
    ops: Option<Vec<OpRecord>>,
    /// Always-on instruction counters (see [`crate::stats`]).
    stats: ExecStats,
    /// Access summary of the instruction currently executing — written by
    /// the operation's closure, consumed by `with_step` (see
    /// [`crate::dpor`]).
    cur_kind: AccessKind,
    /// Whether the current instruction's commit continuation read the
    /// clock or the step index (it is a commit point).
    cur_ghost: bool,
    /// Trace index and selectable-thread bitmask of the [`ChoiceKind::Thread`]
    /// decision that scheduled the instruction about to execute; `None`
    /// when only one thread was selectable (no decision recorded).
    pending_decision: Option<(u32, u64)>,
    /// Per-body-instruction access summaries (see [`RunOutcome::accesses`]).
    accesses: Vec<StepAccess>,
    /// Scratch for `maybe_decide` (cleared per decision, capacity kept).
    selectable: Vec<ThreadId>,
}

impl ExecState {
    /// An empty state holding no execution; every field is overwritten by
    /// `reset_state` before an execution starts.
    fn empty() -> Self {
        ExecState {
            memory: Memory::new(),
            threads: Vec::new(),
            strategy: dfs_strategy(Vec::new()),
            trace: Vec::new(),
            current: None,
            aborted: None,
            steps: 0,
            max_steps: 0,
            solo: true,
            n_bodies: 0,
            sc: Frontier::new(),
            ops: None,
            stats: ExecStats::default(),
            cur_kind: AccessKind::Other,
            cur_ghost: false,
            pending_decision: None,
            accesses: Vec::new(),
            selectable: Vec::new(),
        }
    }

    fn record(&mut self, tid: ThreadId, loc: Option<Loc>, kind: OpKindRecord) {
        if let Some(ops) = &mut self.ops {
            let loc_name = loc
                .map(|l| self.memory.loc_name(l).to_string())
                .unwrap_or_default();
            ops.push(OpRecord {
                step: self.steps,
                tid,
                loc,
                loc_name,
                kind,
            });
        }
    }
}

impl fmt::Debug for ExecState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecState")
            .field("steps", &self.steps)
            .field("current", &self.current)
            .field("aborted", &self.aborted)
            .finish_non_exhaustive()
    }
}

/// The pooled [`ExecState`], shared by the driver and every [`ThreadCtx`].
/// All of them run on one OS thread, so a `RefCell` borrow is all the
/// exclusion needed; a borrow must never be held across a
/// [`coro::suspend`], or the next coroutine to borrow would panic.
struct ExecShared {
    state: RefCell<ExecState>,
}

impl ExecShared {
    fn new() -> Self {
        ExecShared {
            state: RefCell::new(ExecState::empty()),
        }
    }
}

/// Information handed to the commit continuation of an RMW
/// (see [`ThreadCtx::update_with`]).
#[derive(Clone, Debug)]
pub struct OpResult {
    /// The value the RMW read (always the latest write).
    pub old: Val,
    /// The value it is writing, or `None` if it failed (failed CAS).
    pub new: Option<Val>,
}

/// Handle given to commit continuations: runs *inside* the atomic step,
/// between the operation's view transfer and (for writes) the publication
/// of its message.
///
/// What commits here is identified by the instruction's *epoch*
/// ([`GhostHandle::clock`]), and the message being published carries the
/// clock that covers it — exactly how a committed library event enters the
/// logical views of later synchronized operations (§3.1 of the paper).
pub struct GhostHandle<'a> {
    tv: &'a ThreadView,
    step: u64,
    tid: ThreadId,
    /// Flips when the continuation reads the clock or the step index —
    /// the signal that this instruction is a commit point, which the DPOR
    /// conflict relation treats as conflicting with every other commit
    /// point (see [`crate::dpor`]).
    used: Cell<bool>,
}

impl fmt::Debug for GhostHandle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GhostHandle")
            .field("step", &self.step)
            .field("tid", &self.tid)
            .finish()
    }
}

impl GhostHandle<'_> {
    /// The executing thread's vector clock at this commit point. The
    /// instruction has already ticked it, so `clock().get(tid())` is this
    /// instruction's own clock: the pair is the *epoch* of anything
    /// committed here, and an epoch `(t, c)` happens before a later commit
    /// point iff that point's `clock().get(t) >= c`.
    pub fn clock(&self) -> &VecClock {
        self.used.set(true);
        &self.tv.cur.vc
    }

    /// The global step index of the instruction being executed. Strictly
    /// monotone across the execution; usable as a commit order.
    pub fn step_index(&self) -> u64 {
        self.used.set(true);
        self.step
    }

    /// The executing thread.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }
}

/// Per-thread handle to the execution: all simulated memory operations go
/// through it. Obtained inside [`run_model`] closures.
pub struct ThreadCtx {
    shared: Rc<ExecShared>,
    tid: ThreadId,
}

impl fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadCtx").field("tid", &self.tid).finish()
    }
}

/// The result of one model execution.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// `Ok` with the finish phase's result, or the reason the execution
    /// aborted.
    pub result: Result<R, ModelError>,
    /// Number of model instructions executed.
    pub steps: u64,
    /// The recorded decision trace (only decisions with arity >= 2).
    pub trace: Vec<Choice>,
    /// Instruction log (empty unless [`Config::record_ops`] is set).
    pub ops: Vec<OpRecord>,
    /// Instruction counters for this execution (always recorded).
    pub stats: ExecStats,
    /// Per-body-instruction access summaries (one entry per turnstile
    /// instruction, in execution order), linking each instruction to the
    /// scheduling decision that ran it. Consumed by the DPOR layer
    /// (see [`crate::dpor`]); setup/finish instructions are not recorded.
    pub accesses: Vec<StepAccess>,
}

fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Makes a decision if every live body thread has arrived or finished.
fn maybe_decide(st: &mut ExecState) {
    if st.solo || st.current.is_some() || st.aborted.is_some() {
        return;
    }
    let ExecState {
        threads,
        memory,
        selectable,
        ..
    } = st;
    let bodies = &threads[1..=st.n_bodies];
    let arrived = |t: &ThreadSlot| !t.finished && t.arrived;
    let n_finished = bodies.iter().filter(|t| t.finished).count();
    let n_arrived = bodies.iter().filter(|t| arrived(t)).count();
    if n_arrived == 0 || n_arrived + n_finished != bodies.len() {
        return;
    }
    // A thread blocked in read_await is only selectable if a satisfying
    // message is now readable.
    let ready = |t: &ThreadSlot| match &t.waiting {
        None => true,
        Some((loc, _, pred)) => {
            let p: &dyn Fn(Val) -> bool = &**pred;
            memory.candidates(&t.tv, *loc, Some(p)).next().is_some()
        }
    };
    selectable.clear();
    selectable.extend(
        (1..)
            .zip(bodies)
            .filter(|(_, t)| arrived(t) && ready(t))
            .map(|(tid, _)| tid),
    );
    if selectable.is_empty() {
        st.aborted = Some(ModelError::Deadlock);
        return;
    }
    let idx = if selectable.len() == 1 {
        0
    } else {
        let i = st.strategy.choose_thread(selectable);
        assert!(i < selectable.len(), "strategy returned out-of-range index");
        // Remember which trace entry scheduled the next instruction and
        // which threads were selectable, for the DPOR access summary.
        let mut mask: u64 = 0;
        let mut overflow = false;
        for &t in selectable.iter() {
            if t < 64 {
                mask |= 1 << t;
            } else {
                overflow = true;
            }
        }
        st.pending_decision = Some((
            st.trace.len() as u32,
            if overflow { CANDIDATES_UNKNOWN } else { mask },
        ));
        st.trace.push(Choice {
            kind: ChoiceKind::Thread,
            chosen: i as u32,
            arity: selectable.len() as u32,
        });
        i
    };
    st.current = Some(selectable[idx]);
}

impl ThreadCtx {
    /// The id of this simulated thread.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// Executes one model instruction `f`, respecting the turnstile.
    fn with_step<R>(
        &mut self,
        waiting: Option<(Loc, Mode, Pred)>,
        f: impl FnOnce(&mut ExecState, ThreadId) -> Result<R, ModelError>,
    ) -> R {
        let tid = self.tid;
        let mut st = self.shared.state.borrow_mut();
        if st.aborted.is_some() {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        if !st.solo {
            st.threads[tid].waiting = waiting;
            st.threads[tid].arrived = true;
            maybe_decide(&mut st);
            // Unless the decision scheduled this very thread, hand the
            // OS thread back to the driver, which resumes whoever is
            // `current`; it resumes this one either when its turn comes
            // or, after an abort, so that it unwinds.
            loop {
                if st.aborted.is_some() {
                    drop(st);
                    std::panic::panic_any(ModelAbort);
                }
                if st.current == Some(tid) {
                    break;
                }
                drop(st);
                coro::suspend();
                st = self.shared.state.borrow_mut();
            }
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            st.aborted = Some(ModelError::StepLimit(st.max_steps));
            st.current = None;
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        let decision = st.pending_decision.take();
        let trace_start = st.trace.len() as u32;
        st.cur_kind = AccessKind::Other;
        st.cur_ghost = false;
        let res = f(&mut st, tid);
        if !st.solo {
            // Record the access summary even when the instruction aborted
            // the execution: DPOR only ever uses summaries to *add*
            // backtrack points, so including an aborting access is the
            // conservative choice.
            let (d, candidates) = match decision {
                Some((d, m)) => (Some(d), m),
                None => (None, 0),
            };
            let access = Access {
                tid,
                kind: st.cur_kind,
                ghost: st.cur_ghost,
            };
            st.accesses.push(StepAccess {
                access,
                decision: d,
                candidates,
                trace_start,
            });
            st.current = None;
            st.threads[tid].arrived = false;
        }
        match res {
            // The thread keeps running: the next decision can only happen
            // at its next arrival (or finish), both of which call
            // `maybe_decide` themselves.
            Ok(r) => r,
            Err(e) => {
                st.aborted = Some(e);
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
        }
    }

    /// Allocates a fresh location named `name`, initialized to `init`.
    pub fn alloc(&mut self, name: &str, init: Val) -> Loc {
        self.with_step(None, |st, tid| {
            st.cur_kind = AccessKind::Alloc;
            let loc = {
                let ExecState {
                    memory, threads, ..
                } = st;
                memory.alloc(name, init, &mut threads[tid].tv, tid)
            };
            st.stats.allocs += 1;
            st.record(tid, Some(loc), OpKindRecord::Alloc { count: 1 });
            Ok(loc)
        })
    }

    /// Allocates a contiguous block of locations (a record); address the
    /// fields with [`Loc::field`].
    pub fn alloc_block(&mut self, name: &str, inits: &[Val]) -> Loc {
        let n = inits.len() as u32;
        self.with_step(None, |st, tid| {
            st.cur_kind = AccessKind::Alloc;
            let loc = {
                let ExecState {
                    memory, threads, ..
                } = st;
                memory.alloc_block(name, inits, &mut threads[tid].tv, tid)
            };
            st.stats.allocs += u64::from(n);
            st.record(tid, Some(loc), OpKindRecord::Alloc { count: n });
            Ok(loc)
        })
    }

    /// Allocates a location whose initializing write is atomic — use for
    /// locations only ever accessed atomically, so that unsynchronized
    /// atomic readers do not race with the initialization.
    pub fn alloc_atomic(&mut self, name: &str, init: Val) -> Loc {
        self.alloc_block_atomic(name, &[init])
    }

    /// Block version of [`ThreadCtx::alloc_atomic`].
    pub fn alloc_block_atomic(&mut self, name: &str, inits: &[Val]) -> Loc {
        let n = inits.len() as u32;
        self.with_step(None, |st, tid| {
            st.cur_kind = AccessKind::Alloc;
            let loc = {
                let ExecState {
                    memory, threads, ..
                } = st;
                memory.alloc_block_atomic(name, inits, &mut threads[tid].tv, tid)
            };
            st.stats.allocs += u64::from(n);
            st.record(tid, Some(loc), OpKindRecord::Alloc { count: n });
            Ok(loc)
        })
    }

    fn do_read<T>(
        &mut self,
        loc: Loc,
        mode: Mode,
        waiting: Option<(Loc, Mode, Pred)>,
        k: impl FnOnce(Val, &mut GhostHandle) -> T,
    ) -> (Val, T) {
        self.with_step(waiting, |st, tid| {
            st.cur_kind = AccessKind::Read {
                loc,
                atomic: mode.is_atomic(),
            };
            let step = st.steps;
            let ExecState {
                memory,
                threads,
                strategy,
                trace,
                ..
            } = st;
            let pred = threads[tid].waiting.take();
            let pred_ref: Option<&dyn Fn(Val) -> bool> =
                pred.as_ref().map(|(_, _, p)| &**p as &dyn Fn(Val) -> bool);
            let got = memory
                .read(tid, &mut threads[tid].tv, loc, mode, pred_ref, |n| {
                    if n <= 1 {
                        0
                    } else {
                        let c = strategy.choose(ChoiceKind::Read, n);
                        trace.push(Choice {
                            kind: ChoiceKind::Read,
                            chosen: c as u32,
                            arity: n as u32,
                        });
                        c
                    }
                })
                .map_err(ModelError::Race)?;
            let (val, ts) = got
                .expect("scheduled read_await must have a candidate; plain reads always have one");
            let (t, ghost_used) = {
                let mut gh = GhostHandle {
                    tv: &mut threads[tid].tv,
                    step,
                    tid,
                    used: Cell::new(false),
                };
                let t = k(val, &mut gh);
                (t, gh.used.get())
            };
            st.cur_ghost = ghost_used;
            let awaited = pred.is_some();
            st.stats.reads.bump(mode);
            st.stats.awaited_reads += u64::from(awaited);
            st.record(
                tid,
                Some(loc),
                OpKindRecord::Read {
                    mode,
                    val,
                    ts,
                    awaited,
                },
            );
            Ok((val, t))
        })
    }

    /// Reads `loc` at `mode`.
    ///
    /// Atomic reads may read any write not older than the thread's view;
    /// the scheduling strategy picks which. Non-atomic reads read the
    /// latest write (anything else is a race, which aborts the execution).
    ///
    /// ```
    /// use orc11::{random_strategy, run_model, BodyFn, Config, Mode, Val};
    /// let out = run_model(
    ///     &Config::default(),
    ///     random_strategy(0),
    ///     |ctx| ctx.alloc("x", Val::Int(5)),
    ///     Vec::<BodyFn<'_, _, ()>>::new(),
    ///     |ctx, &x, _| ctx.read(x, Mode::Relaxed),
    /// );
    /// assert_eq!(out.result.unwrap(), Val::Int(5));
    /// ```
    pub fn read(&mut self, loc: Loc, mode: Mode) -> Val {
        self.do_read(loc, mode, None, |_, _| ()).0
    }

    /// Like [`ThreadCtx::read`], running `k` atomically with the read
    /// (after its view transfer) — the read-commit window.
    pub fn read_with<T>(
        &mut self,
        loc: Loc,
        mode: Mode,
        k: impl FnOnce(Val, &mut GhostHandle) -> T,
    ) -> (Val, T) {
        self.do_read(loc, mode, None, k)
    }

    /// Blocks (in model terms: becomes unschedulable) until a message
    /// satisfying `pred` is readable at `loc`, then reads one such message
    /// at `mode`.
    ///
    /// This is the fair, finitely-explorable encoding of a spin loop like
    /// `while (*acq flag == 0) {}` — preferred over an actual loop because
    /// it keeps exhaustive exploration finite.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is non-atomic.
    pub fn read_await(
        &mut self,
        loc: Loc,
        mode: Mode,
        pred: impl Fn(Val) -> bool + Send + 'static,
    ) -> Val {
        self.read_await_with(loc, mode, pred, |_, _| ()).0
    }

    /// Like [`ThreadCtx::read_await`] with a commit continuation.
    pub fn read_await_with<T>(
        &mut self,
        loc: Loc,
        mode: Mode,
        pred: impl Fn(Val) -> bool + Send + 'static,
        k: impl FnOnce(Val, &mut GhostHandle) -> T,
    ) -> (Val, T) {
        assert!(mode.is_atomic(), "read_await requires an atomic mode");
        self.do_read(loc, mode, Some((loc, mode, Box::new(pred))), k)
    }

    /// Writes `val` to `loc` at `mode`.
    pub fn write(&mut self, loc: Loc, val: Val, mode: Mode) {
        self.write_with(loc, val, mode, |_| ());
    }

    /// Like [`ThreadCtx::write`], running `k` atomically with the write,
    /// *before* its message is published: what `k` commits happens before
    /// everything the message synchronizes with (the write-commit window).
    pub fn write_with<T>(
        &mut self,
        loc: Loc,
        val: Val,
        mode: Mode,
        k: impl FnOnce(&mut GhostHandle) -> T,
    ) -> T {
        self.with_step(None, |st, tid| {
            st.cur_kind = AccessKind::Write {
                loc,
                atomic: mode.is_atomic(),
            };
            let step = st.steps;
            let ExecState {
                memory, threads, ..
            } = st;
            let (ts, (t, ghost_used)) = memory
                .write(tid, &mut threads[tid].tv, loc, val, mode, |tv| {
                    let mut gh = GhostHandle {
                        tv,
                        step,
                        tid,
                        used: Cell::new(false),
                    };
                    let t = k(&mut gh);
                    let used = gh.used.get();
                    (t, used)
                })
                .map_err(ModelError::Race)?;
            st.cur_ghost = ghost_used;
            st.stats.writes.bump(mode);
            st.record(tid, Some(loc), OpKindRecord::Write { mode, val, ts });
            Ok(t)
        })
    }

    /// Issues a fence.
    pub fn fence(&mut self, mode: FenceMode) {
        self.with_step(None, |st, tid| {
            st.cur_kind = AccessKind::Fence {
                sc: mode == FenceMode::SeqCst,
            };
            if mode == FenceMode::SeqCst {
                let ExecState { threads, sc, .. } = st;
                threads[tid].tv.sc_fence(sc);
            } else {
                st.threads[tid].tv.fence(mode);
            }
            st.stats.fences.bump(mode);
            st.record(tid, None, OpKindRecord::Fence { mode });
            Ok(())
        });
    }

    /// General read-modify-write: atomically reads the latest value,
    /// applies `compute`, and — if it returns `Some(new)` — writes `new`.
    ///
    /// `ok_mode` governs the successful RMW (both halves), `fail_mode` the
    /// read when `compute` declines. The continuation `k` runs inside the
    /// atomic step between the view transfer and the publication of the
    /// written message — the commit-point window of the paper's logically
    /// atomic specs.
    ///
    /// Returns `(old_value, succeeded, k_result)`.
    ///
    /// ```
    /// use orc11::{random_strategy, run_model, BodyFn, Config, Mode, Val};
    /// // A saturating-at-3 increment as a custom RMW.
    /// let out = run_model(
    ///     &Config::default(),
    ///     random_strategy(0),
    ///     |ctx| ctx.alloc("x", Val::Int(3)),
    ///     Vec::<BodyFn<'_, _, ()>>::new(),
    ///     |ctx, &x, _| {
    ///         let (old, ok, step) = ctx.update_with(
    ///             x,
    ///             |v| (v.expect_int() < 3).then(|| Val::Int(v.expect_int() + 1)),
    ///             Mode::AcqRel,
    ///             Mode::Relaxed,
    ///             |_res, gh| gh.step_index(),
    ///         );
    ///         assert_eq!(old, Val::Int(3));
    ///         assert!(!ok, "already saturated");
    ///         assert!(step > 0);
    ///     },
    /// );
    /// out.result.unwrap();
    /// ```
    pub fn update_with<T>(
        &mut self,
        loc: Loc,
        compute: impl FnOnce(Val) -> Option<Val>,
        ok_mode: Mode,
        fail_mode: Mode,
        k: impl FnOnce(&OpResult, &mut GhostHandle) -> T,
    ) -> (Val, bool, T) {
        self.with_step(None, |st, tid| {
            st.cur_kind = AccessKind::Rmw { loc };
            let step = st.steps;
            let (old, ts, t, ghost_used, new) = {
                let ExecState {
                    memory, threads, ..
                } = st;
                let (old, ts, (t, ghost_used)) = memory
                    .rmw(
                        tid,
                        &mut threads[tid].tv,
                        loc,
                        compute,
                        ok_mode,
                        fail_mode,
                        |pre, tv| {
                            let mut gh = GhostHandle {
                                tv,
                                step,
                                tid,
                                used: Cell::new(false),
                            };
                            let t = k(
                                &OpResult {
                                    old: pre.old,
                                    new: pre.new,
                                },
                                &mut gh,
                            );
                            let used = gh.used.get();
                            (t, used)
                        },
                    )
                    .map_err(ModelError::Race)?;
                let new = ts.map(|_| memory.peek_latest(loc));
                (old, ts, t, ghost_used, new)
            };
            st.cur_ghost = ghost_used;
            st.stats.rmws.bump(ok_mode);
            st.stats.failed_cas += u64::from(new.is_none());
            st.record(
                tid,
                Some(loc),
                OpKindRecord::Rmw {
                    mode: ok_mode,
                    old,
                    new,
                },
            );
            Ok((old, ts.is_some(), t))
        })
    }

    /// Compare-and-swap: atomically replaces `expect` by `new`.
    ///
    /// Returns `Ok(old)` on success and `Err(observed)` on failure.
    ///
    /// ```
    /// use orc11::{random_strategy, run_model, BodyFn, Config, Mode, Val};
    /// let out = run_model(
    ///     &Config::default(),
    ///     random_strategy(0),
    ///     |ctx| ctx.alloc("x", Val::Int(0)),
    ///     Vec::<BodyFn<'_, _, ()>>::new(),
    ///     |ctx, &x, _| {
    ///         assert!(ctx.cas(x, Val::Int(0), Val::Int(1), Mode::AcqRel, Mode::Relaxed).is_ok());
    ///         // Second attempt observes 1 and fails.
    ///         ctx.cas(x, Val::Int(0), Val::Int(2), Mode::AcqRel, Mode::Relaxed)
    ///     },
    /// );
    /// assert_eq!(out.result.unwrap(), Err(Val::Int(1)));
    /// ```
    pub fn cas(
        &mut self,
        loc: Loc,
        expect: Val,
        new: Val,
        ok_mode: Mode,
        fail_mode: Mode,
    ) -> Result<Val, Val> {
        self.cas_with(loc, expect, new, ok_mode, fail_mode, |_, _| ())
            .0
    }

    /// [`ThreadCtx::cas`] with a commit continuation (see
    /// [`ThreadCtx::update_with`]).
    pub fn cas_with<T>(
        &mut self,
        loc: Loc,
        expect: Val,
        new: Val,
        ok_mode: Mode,
        fail_mode: Mode,
        k: impl FnOnce(&OpResult, &mut GhostHandle) -> T,
    ) -> (Result<Val, Val>, T) {
        let (old, ok, t) = self.update_with(
            loc,
            |v| if v == expect { Some(new) } else { None },
            ok_mode,
            fail_mode,
            k,
        );
        (if ok { Ok(old) } else { Err(old) }, t)
    }

    /// Atomically replaces the value at `loc`, returning the old value.
    pub fn exchange(&mut self, loc: Loc, val: Val, mode: Mode) -> Val {
        self.exchange_with(loc, val, mode, |_, _| ()).0
    }

    /// [`ThreadCtx::exchange`] with a commit continuation.
    pub fn exchange_with<T>(
        &mut self,
        loc: Loc,
        val: Val,
        mode: Mode,
        k: impl FnOnce(&OpResult, &mut GhostHandle) -> T,
    ) -> (Val, T) {
        // The update never fails, so its fail mode is never used.
        let (old, _ok, t) = self.update_with(loc, |_| Some(val), mode, Mode::Relaxed, k);
        (old, t)
    }

    /// Atomically adds `delta` to the integer at `loc`, returning the old
    /// value.
    ///
    /// # Panics
    ///
    /// Panics (aborting the execution) if the location does not hold an
    /// integer.
    pub fn fetch_add(&mut self, loc: Loc, delta: i64, mode: Mode) -> Val {
        self.fetch_add_with(loc, delta, mode, |_, _| ()).0
    }

    /// [`ThreadCtx::fetch_add`] with a commit continuation.
    pub fn fetch_add_with<T>(
        &mut self,
        loc: Loc,
        delta: i64,
        mode: Mode,
        k: impl FnOnce(&OpResult, &mut GhostHandle) -> T,
    ) -> (Val, T) {
        // The update never fails, so its fail mode is never used.
        let (old, _ok, t) = self.update_with(
            loc,
            |v| Some(Val::Int(v.expect_int() + delta)),
            mode,
            Mode::Relaxed,
            k,
        );
        (old, t)
    }

    /// The thread's current vector clock (see [`GhostHandle::clock`]):
    /// the epochs it covers are everything that happens before the
    /// thread's next instruction. Reading it is not a scheduling point.
    pub fn clock(&self) -> VecClock {
        self.shared.state.borrow().threads[self.tid]
            .tv
            .cur
            .vc
            .clone()
    }

    /// The latest value at `loc`, bypassing synchronization and race
    /// detection. Intended for the finish phase and debugging.
    pub fn peek(&self, loc: Loc) -> Val {
        self.shared.state.borrow().memory.peek_latest(loc)
    }

    /// Number of model instructions executed so far.
    pub fn step_count(&self) -> u64 {
        self.shared.state.borrow().steps
    }
}

/// A parallel body of a model program.
pub type BodyFn<'a, S, O> = Box<dyn FnOnce(&mut ThreadCtx, &S) -> O + Send + 'a>;

/// The reusable per-OS-thread execution arena: pooled coroutine stacks
/// and pooled simulator state. See the module docs.
struct ExecArena {
    shared: Rc<ExecShared>,
    /// The coroutine hosting body `i` (tid `i + 1`); grown on demand, so
    /// an execution allocates a stack only the first time the arena sees
    /// that many bodies.
    coros: Vec<Coro>,
}

impl ExecArena {
    fn new() -> Self {
        ExecArena {
            shared: Rc::new(ExecShared::new()),
            coros: Vec::new(),
        }
    }
}

thread_local! {
    /// The calling thread's arena, kept alive between `run_model` calls.
    /// Taken for the duration of an execution; a nested `run_model` (from
    /// inside a model closure) simply builds a fresh arena.
    static ARENA: RefCell<Option<ExecArena>> = const { RefCell::new(None) };
    /// Executions this thread has run on a warm arena, cumulatively.
    static WARM_EXECS: Cell<u64> = const { Cell::new(0) };
}

/// [`WARM_EXECS`] summed over every thread.
static G_WARM_EXECS: AtomicU64 = AtomicU64::new(0);

fn note_arena_reuse() {
    WARM_EXECS.set(WARM_EXECS.get() + 1);
    G_WARM_EXECS.fetch_add(1, Ordering::Relaxed);
}

/// This thread's cumulative reuse counters (drivers subtract snapshots to
/// attribute deltas to one exploration).
pub(crate) fn local_reuse() -> ReuseStats {
    ReuseStats {
        arena_execs: WARM_EXECS.get(),
        ..ReuseStats::ZERO
    }
}

/// Process-wide reuse totals, for telemetry and diagnostics.
pub fn global_reuse() -> ReuseStats {
    ReuseStats {
        arena_execs: G_WARM_EXECS.load(Ordering::Relaxed),
        ..ReuseStats::ZERO
    }
}

/// How `run_model_impl` obtains the execution's strategy: a caller-built
/// box, or a descriptor that an arena-pooled strategy can reset to
/// (avoiding the per-execution allocation).
pub(crate) enum StrategyInit<'d> {
    Boxed(Box<dyn Strategy>),
    Desc(&'d StrategyDesc),
}

impl fmt::Debug for StrategyInit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyInit::Boxed(_) => f.write_str("StrategyInit::Boxed"),
            StrategyInit::Desc(d) => write!(f, "StrategyInit::Desc({d})"),
        }
    }
}

/// Resets the pooled execution state for a new run, retaining every
/// allocation-heavy buffer. Debug builds assert nothing was rebuilt.
fn reset_state(st: &mut ExecState, cfg: &Config, n: usize, init: StrategyInit<'_>) {
    #[cfg(debug_assertions)]
    let fp = (
        st.trace.as_ptr(),
        st.accesses.as_ptr(),
        st.memory.locs_capacity(),
        st.threads.len(),
    );
    st.memory.reset();
    if st.threads.len() < n + 1 {
        st.threads.resize_with(n + 1, || ThreadSlot {
            tv: ThreadView::new(),
            arrived: false,
            finished: false,
            waiting: None,
        });
    }
    for t in st.threads.iter_mut() {
        t.tv.reset();
        t.arrived = false;
        t.finished = false;
        t.waiting = None;
    }
    match init {
        StrategyInit::Boxed(b) => st.strategy = b,
        StrategyInit::Desc(d) => {
            if !st.strategy.reset(d) {
                st.strategy = d.strategy();
            }
        }
    }
    st.trace.clear();
    st.current = None;
    st.aborted = None;
    st.steps = 0;
    st.max_steps = cfg.max_steps;
    st.solo = true;
    st.n_bodies = n;
    st.sc.clear();
    st.ops = cfg.record_ops.then(Vec::new);
    st.stats = ExecStats::default();
    st.cur_kind = AccessKind::Other;
    st.cur_ghost = false;
    st.pending_decision = None;
    st.accesses.clear();
    #[cfg(debug_assertions)]
    {
        debug_assert_eq!(st.trace.as_ptr(), fp.0, "trace buffer rebuilt on reset");
        debug_assert_eq!(
            st.accesses.as_ptr(),
            fp.1,
            "accesses buffer rebuilt on reset"
        );
        debug_assert_eq!(
            st.memory.locs_capacity(),
            fp.2,
            "memory slot pool rebuilt on reset"
        );
        debug_assert!(st.threads.len() >= fp.3, "thread slots shrank on reset");
    }
}

/// Runs one model execution.
///
/// See the [crate docs](crate) for an example. The `strategy` resolves all
/// nondeterminism; use [`crate::random_strategy`] for seeded random
/// exploration or [`crate::dfs_strategy`]/[`crate::Explorer`] for bounded
/// exhaustive exploration.
///
/// Panics from simulated threads (assertion failures) are captured and
/// reported as [`ModelError::ThreadPanic`] in the outcome rather than
/// propagated.
pub fn run_model<S, O, R>(
    cfg: &Config,
    strategy: Box<dyn Strategy>,
    setup: impl FnOnce(&mut ThreadCtx) -> S,
    bodies: Vec<BodyFn<'_, S, O>>,
    finish: impl FnOnce(&mut ThreadCtx, &S, Vec<O>) -> R,
) -> RunOutcome<R>
where
    S: Sync,
    O: Send,
{
    run_model_impl(cfg, StrategyInit::Boxed(strategy), setup, bodies, finish)
}

/// [`run_model`] with the strategy supplied either boxed or as a resettable
/// descriptor (the allocation-free path used by exploration drivers).
pub(crate) fn run_model_impl<S, O, R>(
    cfg: &Config,
    init: StrategyInit<'_>,
    setup: impl FnOnce(&mut ThreadCtx) -> S,
    bodies: Vec<BodyFn<'_, S, O>>,
    finish: impl FnOnce(&mut ThreadCtx, &S, Vec<O>) -> R,
) -> RunOutcome<R>
where
    S: Sync,
    O: Send,
{
    let _span = crate::trace::span(crate::trace::Phase::Explore, "exec");
    // Only an arena that has hosted an execution is ever pooled.
    let pooled = ARENA.with(|a| a.borrow_mut().take());
    if pooled.is_some() {
        note_arena_reuse();
    }
    let mut arena = pooled.unwrap_or_else(ExecArena::new);
    let out = run_in_arena(&mut arena, cfg, init, setup, bodies, finish);
    ARENA.with(|a| {
        let mut slot = a.borrow_mut();
        if slot.is_none() {
            *slot = Some(arena);
        }
    });
    out
}

fn run_in_arena<S, O, R>(
    arena: &mut ExecArena,
    cfg: &Config,
    init: StrategyInit<'_>,
    setup: impl FnOnce(&mut ThreadCtx) -> S,
    bodies: Vec<BodyFn<'_, S, O>>,
    finish: impl FnOnce(&mut ThreadCtx, &S, Vec<O>) -> R,
) -> RunOutcome<R>
where
    S: Sync,
    O: Send,
{
    let n = bodies.len();
    let shared = arena.shared.clone();

    reset_state(&mut shared.state.borrow_mut(), cfg, n, init);

    let outcome = |shared: &Rc<ExecShared>, result: Result<R, ModelError>| {
        let mut st = shared.state.borrow_mut();
        let ops = st.ops.take().unwrap_or_default();
        st.stats.steps = st.steps;
        st.stats.races = u64::from(matches!(&result, Err(ModelError::Race(_))));
        RunOutcome {
            result,
            steps: st.steps,
            trace: st.trace.clone(),
            ops,
            stats: st.stats,
            // Clone (not take): the buffer's capacity stays pooled.
            accesses: st.accesses.clone(),
        }
    };

    // Phase 1: setup, solo.
    let mut main_ctx = ThreadCtx {
        shared: shared.clone(),
        tid: 0,
    };
    let s = match catch_unwind(AssertUnwindSafe(|| setup(&mut main_ctx))) {
        Ok(s) => s,
        Err(p) => {
            let mut st = shared.state.borrow_mut();
            let err = st.aborted.clone().unwrap_or_else(|| {
                ModelError::ThreadPanic(if p.downcast_ref::<ModelAbort>().is_some() {
                    "aborted".into()
                } else {
                    panic_msg(p)
                })
            });
            st.aborted = Some(err.clone());
            drop(st);
            return outcome(&shared, Err(err));
        }
    };

    // Phase 2: parallel bodies, one pooled coroutine each, driven here.
    {
        let mut st = shared.state.borrow_mut();
        st.solo = n == 0;
        let (main, rest) = st.threads.split_at_mut(1);
        for t in rest[..n].iter_mut() {
            t.tv.inherit_from(&main[0].tv.cur);
        }
    }
    let outs: Vec<Cell<Option<O>>> = (0..n).map(|_| Cell::new(None)).collect();
    if n > 0 {
        if arena.coros.len() < n {
            arena.coros.resize_with(n, Coro::new);
        }
        let coros = &mut arena.coros[..n];
        for ((i, body), co) in bodies.into_iter().enumerate().zip(coros.iter_mut()) {
            let tid = i + 1;
            let task_shared = &shared;
            let s_ref: &S = &s;
            let out_slot = &outs[i];
            let task: Box<dyn FnOnce() + '_> = Box::new(move || {
                let mut ctx = ThreadCtx {
                    shared: task_shared.clone(),
                    tid,
                };
                let r = catch_unwind(AssertUnwindSafe(|| body(&mut ctx, s_ref)));
                let mut st = task_shared.state.borrow_mut();
                st.threads[tid].finished = true;
                st.threads[tid].arrived = false;
                if st.current == Some(tid) {
                    st.current = None;
                }
                match r {
                    Ok(o) => out_slot.set(Some(o)),
                    Err(p) => {
                        if p.downcast_ref::<ModelAbort>().is_none() && st.aborted.is_none() {
                            st.aborted = Some(ModelError::ThreadPanic(panic_msg(p)));
                        }
                    }
                }
                // The driver loop below picks up whatever this schedules.
                maybe_decide(&mut st);
            });
            // SAFETY: the task borrows `shared`, `s`, `outs` and the moved
            // `body`, none of which are `'static`. Erasing the lifetime is
            // sound because a task only ever runs inside a `Coro::resume`
            // call made by this block, and the block does not end before
            // every task closure has returned (dropping its borrows): the
            // last loop resumes each unfinished coroutine and asserts it
            // finished. If a `resume` here unwinds instead (a harness bug:
            // its own assertions), the caller drops the arena rather than
            // pooling it, so the suspended frames are leaked, never run
            // again. What would break this: resuming one of these
            // coroutines after this function has returned.
            let task: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(task) };
            co.start(task);
        }
        // Every body up to its first arrival (or its end), in tid order;
        // the last arrival makes the first decision.
        for co in coros.iter_mut() {
            co.resume();
        }
        loop {
            let next = {
                let st = shared.state.borrow_mut();
                if st.aborted.is_some() {
                    None
                } else {
                    st.current
                }
            };
            match next {
                Some(tid) => coros[tid - 1].resume(),
                None => break,
            }
        }
        // A panic in a task's own bookkeeping (body panics are caught
        // inside the task; this is e.g. a `Strategy` panicking in the
        // decision a finish triggers) scheduled nobody. It is a harness
        // failure, re-raised below; abort so that the other bodies unwind.
        let harness_panic = coros.iter_mut().find_map(Coro::take_panic);
        if harness_panic.is_some() {
            let mut st = shared.state.borrow_mut();
            st.aborted
                .get_or_insert(ModelError::ThreadPanic("harness panic".into()));
        }
        // Nothing is scheduled: either every body finished, or the
        // execution aborted and the bodies still suspended in `with_step`
        // must unwind (`ModelAbort`) before anything they borrow goes.
        for co in coros.iter_mut() {
            if !co.is_done() {
                co.resume();
            }
            assert!(co.is_done(), "a model thread outlived its execution");
            co.check_canary();
        }
        if let Some(p) = harness_panic {
            std::panic::resume_unwind(p);
        }
    }

    // Phase 3: finish, solo, with joined views.
    let aborted = {
        let mut st = shared.state.borrow_mut();
        st.solo = true;
        st.current = None;
        let (main, rest) = st.threads.split_at_mut(1);
        for t in rest[..n].iter() {
            main[0].tv.acquire(t.tv.cur.words());
        }
        st.aborted.clone()
    };
    if let Some(e) = aborted {
        return outcome(&shared, Err(e));
    }
    let collected: Vec<O> = outs
        .into_iter()
        .map(|c| c.into_inner().expect("unaborted body produced output"))
        .collect();
    match catch_unwind(AssertUnwindSafe(|| finish(&mut main_ctx, &s, collected))) {
        Ok(r) => outcome(&shared, Ok(r)),
        Err(p) => {
            let st = shared.state.borrow_mut();
            let err = st.aborted.clone().unwrap_or_else(|| {
                ModelError::ThreadPanic(if p.downcast_ref::<ModelAbort>().is_some() {
                    "aborted".into()
                } else {
                    panic_msg(p)
                })
            });
            drop(st);
            outcome(&shared, Err(err))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::random_strategy;
    use crate::sync::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn solo_program_runs() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| {
                let l = ctx.alloc("x", Val::Int(1));
                ctx.write(l, Val::Int(2), Mode::NonAtomic);
                l
            },
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, &l, _| ctx.read(l, Mode::NonAtomic),
        );
        assert_eq!(out.result.unwrap(), Val::Int(2));
        assert!(out.steps > 0);
    }

    #[test]
    fn two_thread_counter_with_cas() {
        // Two threads each CAS-increment a counter once; final value is 2.
        for seed in 0..20 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| ctx.alloc("ctr", Val::Int(0)),
                (0..2)
                    .map(|_| {
                        Box::new(|ctx: &mut ThreadCtx, &l: &Loc| loop {
                            let cur = ctx.read(l, Mode::Relaxed);
                            if ctx
                                .cas(
                                    l,
                                    cur,
                                    Val::Int(cur.expect_int() + 1),
                                    Mode::Relaxed,
                                    Mode::Relaxed,
                                )
                                .is_ok()
                            {
                                return;
                            }
                        }) as BodyFn<'_, _, _>
                    })
                    .collect(),
                |ctx, &l, _| ctx.peek(l),
            );
            assert_eq!(out.result.unwrap(), Val::Int(2), "seed {seed}");
        }
    }

    #[test]
    fn fetch_add_is_atomic() {
        for seed in 0..20 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| ctx.alloc("ctr", Val::Int(0)),
                (0..3)
                    .map(|_| {
                        Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                            ctx.fetch_add(l, 1, Mode::Relaxed);
                        }) as BodyFn<'_, _, _>
                    })
                    .collect(),
                |ctx, &l, _| ctx.peek(l),
            );
            assert_eq!(out.result.unwrap(), Val::Int(3), "seed {seed}");
        }
    }

    #[test]
    fn race_is_reported() {
        let out = run_model(
            &Config::default(),
            random_strategy(3),
            |ctx| ctx.alloc("x", Val::Int(0)),
            vec![
                Box::new(|ctx: &mut ThreadCtx, &l: &Loc| ctx.write(l, Val::Int(1), Mode::NonAtomic))
                    as BodyFn<'_, _, _>,
                Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                    ctx.write(l, Val::Int(2), Mode::NonAtomic)
                }),
            ],
            |_, _, _| (),
        );
        assert!(matches!(out.result, Err(ModelError::Race(_))));
    }

    #[test]
    fn thread_panic_is_captured() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| ctx.alloc("x", Val::Int(0)),
            vec![Box::new(|_: &mut ThreadCtx, _: &Loc| panic!("boom 42")) as BodyFn<'_, _, ()>],
            |_, _, _| (),
        );
        match out.result {
            Err(ModelError::ThreadPanic(m)) => assert!(m.contains("boom 42")),
            other => panic!("expected ThreadPanic, got {other:?}"),
        }
    }

    #[test]
    fn read_await_blocks_until_written() {
        let out = run_model(
            &Config::default(),
            random_strategy(11),
            |ctx| ctx.alloc("flag", Val::Int(0)),
            vec![
                Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                    ctx.write(l, Val::Int(1), Mode::Release);
                    Val::Null
                }) as BodyFn<'_, _, _>,
                Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                    ctx.read_await(l, Mode::Acquire, |v| v == Val::Int(1))
                }),
            ],
            |_, _, outs| outs[1],
        );
        assert_eq!(out.result.unwrap(), Val::Int(1));
    }

    #[test]
    fn deadlock_detected_when_no_writer() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| ctx.alloc("flag", Val::Int(0)),
            vec![Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                ctx.read_await(l, Mode::Acquire, |v| v == Val::Int(1))
            }) as BodyFn<'_, _, _>],
            |_, _, _| (),
        );
        assert!(matches!(out.result, Err(ModelError::Deadlock)));
    }

    #[test]
    fn step_limit_aborts_spinners() {
        let out = run_model(
            &Config {
                max_steps: 200,
                ..Config::default()
            },
            random_strategy(0),
            |ctx| ctx.alloc("flag", Val::Int(0)),
            vec![Box::new(|ctx: &mut ThreadCtx, &l: &Loc| loop {
                if ctx.read(l, Mode::Acquire) == Val::Int(1) {
                    return;
                }
            }) as BodyFn<'_, _, _>],
            |_, _, _| (),
        );
        assert!(matches!(out.result, Err(ModelError::StepLimit(_))));
    }

    #[test]
    fn replay_reproduces_execution() {
        use crate::sched::replay_strategy;
        // Find a seed where the relaxed read observes the stale value.
        let prog_result = |strategy: Box<dyn Strategy>| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| ctx.alloc("x", Val::Int(0)),
                vec![
                    Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                        ctx.write(l, Val::Int(1), Mode::Relaxed);
                        Val::Null
                    }) as BodyFn<'_, _, _>,
                    Box::new(|ctx: &mut ThreadCtx, &l: &Loc| ctx.read(l, Mode::Relaxed)),
                ],
                |_, _, outs| outs[1],
            )
        };
        let mut stale = None;
        for seed in 0..100 {
            let out = prog_result(random_strategy(seed));
            if out.result.as_ref().unwrap() == &Val::Int(0) {
                stale = Some(out);
                break;
            }
        }
        let stale = stale.expect("some interleaving reads the stale value");
        let replayed = prog_result(replay_strategy(&stale.trace));
        assert_eq!(replayed.result.unwrap(), Val::Int(0));
        assert_eq!(replayed.trace, stale.trace);
    }

    #[test]
    #[ignore = "manual timing probe: cargo test --release -p orc11 throughput_probe -- --ignored --nocapture"]
    fn throughput_probe() {
        for bodies in [0usize, 1, 2] {
            let t0 = std::time::Instant::now();
            let iters = 20_000;
            for seed in 0..iters {
                let out = run_model(
                    &Config::default(),
                    random_strategy(seed),
                    |ctx| ctx.alloc("x", Val::Int(0)),
                    (0..bodies)
                        .map(|_| {
                            Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                                for _ in 0..5 {
                                    ctx.fetch_add(l, 1, Mode::Relaxed);
                                }
                            }) as BodyFn<'_, _, _>
                        })
                        .collect(),
                    |ctx, &l, _| ctx.peek(l),
                );
                assert!(out.result.is_ok());
            }
            let dt = t0.elapsed();
            println!(
                "{bodies} bodies: {:.1}k execs/s ({:.2} us/exec)",
                iters as f64 / dt.as_secs_f64() / 1e3,
                dt.as_secs_f64() * 1e6 / iters as f64
            );
        }
    }

    /// Bumps a counter when dropped: a body local that must be dropped
    /// exactly once however its execution ends.
    struct Bump<'a>(&'a AtomicUsize);

    impl Drop for Bump<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Three bodies, each holding a [`Bump`] across its first instruction
    /// (so across at least one suspension) and then running `rest`.
    /// Returns the result and how many locals were dropped.
    fn run_holding_locals(
        max_steps: u64,
        rest: impl Fn(&mut ThreadCtx, Loc, usize) + Sync,
    ) -> (Result<(), ModelError>, usize) {
        let drops = AtomicUsize::new(0);
        let out = run_model(
            &Config {
                max_steps,
                ..Config::default()
            },
            random_strategy(7),
            |ctx| ctx.alloc("x", Val::Int(0)),
            (0..3)
                .map(|i| {
                    let (drops, rest) = (&drops, &rest);
                    Box::new(move |ctx: &mut ThreadCtx, &l: &Loc| {
                        let _local = Bump(drops);
                        ctx.read(l, Mode::Relaxed);
                        rest(ctx, l, i);
                    }) as BodyFn<'_, _, ()>
                })
                .collect(),
            |_, _, _| (),
        );
        (out.result, drops.load(Ordering::Relaxed))
    }

    #[test]
    fn every_abort_drops_suspended_locals_once_and_leaves_the_arena_clean() {
        std::thread::spawn(|| {
            type Rest = fn(&mut ThreadCtx, Loc, usize);
            type Expected = fn(&ModelError) -> bool;
            fn spin(ctx: &mut ThreadCtx, l: Loc, _: usize) {
                loop {
                    ctx.read(l, Mode::Relaxed);
                }
            }
            fn block(ctx: &mut ThreadCtx, l: Loc, _: usize) {
                ctx.read_await(l, Mode::Acquire, |v| v == Val::Int(99));
            }
            let cases: [(&str, Rest, Expected); 4] = [
                ("step limit", spin, |e| {
                    matches!(e, ModelError::StepLimit(40))
                }),
                (
                    "race",
                    |ctx, l, i| ctx.write(l, Val::Int(i as i64), Mode::NonAtomic),
                    |e| matches!(e, ModelError::Race(_)),
                ),
                ("deadlock", block, |e| matches!(e, ModelError::Deadlock)),
                (
                    // Body 1 panics in host code while the other two are
                    // suspended in `read_await`.
                    "panic",
                    |ctx, l, i| {
                        if i == 1 {
                            panic!("boom 7")
                        } else {
                            block(ctx, l, i)
                        }
                    },
                    |e| matches!(e, ModelError::ThreadPanic(m) if m.contains("boom 7")),
                ),
            ];
            let mark = local_reuse();
            for (name, rest, expected) in cases {
                let (result, drops) = run_holding_locals(40, rest);
                let err = result.expect_err(name);
                assert!(expected(&err), "{name}: got {err:?}");
                assert_eq!(drops, 3, "{name}: every local dropped exactly once");
                // The same arena (and the stacks just unwound) hosts a
                // clean execution next.
                let (result, drops) = run_holding_locals(1_000, |ctx, l, _| {
                    ctx.fetch_add(l, 1, Mode::Relaxed);
                });
                assert_eq!((result, drops), (Ok(()), 3), "clean run after {name}");
            }
            let delta = local_reuse().delta_since(&mark);
            assert_eq!(delta.arena_execs, 7, "one arena throughout: {delta:?}");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn strategy_panic_at_a_finish_unwinds_every_body_then_propagates() {
        // Decision 1 (three arrived bodies) picks tid 1, which runs its one
        // instruction and finishes; decision 2 is made by that finish, in
        // the task's bookkeeping rather than under the body's
        // `catch_unwind`, and panics.
        struct PanicsOnSecondDecision(u32);
        impl Strategy for PanicsOnSecondDecision {
            fn choose(&mut self, _: ChoiceKind, _: usize) -> usize {
                self.0 += 1;
                assert!(self.0 < 2, "strategy gave up");
                0
            }
        }
        std::thread::spawn(|| {
            let drops = AtomicUsize::new(0);
            let run = catch_unwind(AssertUnwindSafe(|| {
                run_model(
                    &Config::default(),
                    Box::new(PanicsOnSecondDecision(0)),
                    |ctx| ctx.alloc("x", Val::Int(0)),
                    (0..3)
                        .map(|i| {
                            let drops = &drops;
                            Box::new(move |ctx: &mut ThreadCtx, &l: &Loc| {
                                let _local = Bump(drops);
                                for _ in 0..=i {
                                    ctx.fetch_add(l, 1, Mode::Relaxed);
                                }
                            }) as BodyFn<'_, _, ()>
                        })
                        .collect(),
                    |_, _, _| (),
                )
            }));
            let msg = panic_msg(run.expect_err("the strategy's panic propagates"));
            assert!(msg.contains("strategy gave up"), "{msg}");
            assert_eq!(drops.load(Ordering::Relaxed), 3);
            let (result, drops) = run_holding_locals(1_000, |_, _, _| {});
            assert_eq!((result, drops), (Ok(()), 3), "next run builds a new arena");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nested_run_model_in_a_body_and_in_finish() {
        // Two bodies bump a counter; the sum comes back through `finish`.
        fn inner(seed: u64) -> i64 {
            run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| ctx.alloc("ctr", Val::Int(0)),
                (0..2)
                    .map(|_| {
                        Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                            ctx.fetch_add(l, 1, Mode::Relaxed);
                        }) as BodyFn<'_, _, _>
                    })
                    .collect(),
                |ctx, &l, _| ctx.peek(l).expect_int(),
            )
            .result
            .unwrap()
        }
        for seed in 0..10 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| ctx.alloc("x", Val::Int(0)),
                (0..2)
                    .map(|_| {
                        Box::new(move |ctx: &mut ThreadCtx, &l: &Loc| {
                            ctx.fetch_add(l, 1, Mode::Relaxed);
                            // Runs on this body's coroutine stack, with the
                            // other body suspended around it.
                            let n = inner(seed);
                            ctx.fetch_add(l, n, Mode::Relaxed);
                        }) as BodyFn<'_, _, _>
                    })
                    .collect(),
                |ctx, &l, _| (ctx.peek(l), inner(seed + 100)),
            );
            assert_eq!(out.result.unwrap(), (Val::Int(6), 2), "seed {seed}");
        }
    }

    #[test]
    fn sixty_five_bodies_grow_the_pool_and_overflow_the_candidate_mask() {
        let out = run_model(
            &Config::default(),
            random_strategy(5),
            |ctx| ctx.alloc("ctr", Val::Int(0)),
            (0..65)
                .map(|_| {
                    Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                        ctx.fetch_add(l, 1, Mode::Relaxed);
                    }) as BodyFn<'_, _, _>
                })
                .collect(),
            |ctx, &l, _| ctx.peek(l),
        );
        assert_eq!(out.result.unwrap(), Val::Int(65));
        // While tid 64 or 65 was selectable the mask cannot name it.
        let unknown = |a: &&StepAccess| a.candidates == CANDIDATES_UNKNOWN;
        assert!(out.accesses.iter().filter(unknown).count() >= 2);
        assert_eq!(out.accesses[0].decision, Some(0));
        assert_eq!(out.trace[0].arity, 65);
    }

    #[test]
    fn host_code_before_the_first_instruction_runs_in_tid_order() {
        for seed in 0..40 {
            let n = 1 + seed as usize % 5;
            let order = Mutex::new(Vec::new());
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| ctx.alloc("ctr", Val::Int(0)),
                (0..n)
                    .map(|_| {
                        Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                            order.lock().push(ctx.tid());
                            ctx.fetch_add(l, 1, Mode::Relaxed);
                        }) as BodyFn<'_, _, _>
                    })
                    .collect(),
                |_, _, _| (),
            );
            out.result.unwrap();
            assert_eq!(order.into_inner(), (1..=n).collect::<Vec<_>>());
        }
    }

    /// Runs the calling test again, alone, in a child process, where it may
    /// die or count the process's threads undisturbed by other tests.
    /// Returns `None` inside that child.
    fn rerun_in_child(test: &str) -> Option<std::process::ExitStatus> {
        const KEY: &str = "ORC11_TEST_CHILD";
        if std::env::var_os(KEY).is_some() {
            return None;
        }
        let name = format!("{}::{test}", module_path!().split_once("::").unwrap().1);
        let status = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", &name, "--test-threads=1"])
            .env(KEY, "1")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .unwrap();
        Some(status)
    }

    #[test]
    fn runaway_recursion_in_a_body_dies_on_the_guard_page() {
        #[inline(never)]
        fn recurse(ctx: &mut ThreadCtx, l: Loc, depth: u64) -> u64 {
            let mut pad = [depth; 32];
            std::hint::black_box(&mut pad);
            if depth.is_multiple_of(4096) {
                ctx.read(l, Mode::Relaxed);
            }
            if depth == u64::MAX {
                return 0;
            }
            recurse(ctx, l, depth + 1) + pad[7]
        }
        let Some(status) = rerun_in_child("runaway_recursion_in_a_body_dies_on_the_guard_page")
        else {
            run_model(
                &Config::default(),
                random_strategy(0),
                |ctx| ctx.alloc("x", Val::Int(0)),
                (0..2)
                    .map(|_| {
                        Box::new(|ctx: &mut ThreadCtx, &l: &Loc| recurse(ctx, l, 1))
                            as BodyFn<'_, _, _>
                    })
                    .collect(),
                |_, _, _| (),
            );
            unreachable!("unbounded recursion returned");
        };
        // SIGSEGV (or SIGBUS, as some kernels report a guard hit): not a
        // clean exit, not a failed test (101), not SIGABRT from an
        // allocator that found its heap overwritten.
        use std::os::unix::process::ExitStatusExt;
        assert!(
            matches!(status.signal(), Some(11 | 7 | 10)),
            "child should die on the stack guard, got {status:?}"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn exploring_eight_bodies_creates_no_os_thread() {
        fn os_threads() -> usize {
            let status = std::fs::read_to_string("/proc/self/status").unwrap();
            let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
            line["Threads:".len()..].trim().parse().unwrap()
        }
        const RAN: i32 = 17;
        let Some(status) = rerun_in_child("exploring_eight_bodies_creates_no_os_thread") else {
            let before = os_threads();
            let during = Mutex::new(Vec::new());
            for seed in 0..20 {
                let out = run_model(
                    &Config::default(),
                    random_strategy(seed),
                    |ctx| ctx.alloc("ctr", Val::Int(0)),
                    (0..8)
                        .map(|_| {
                            Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                                ctx.fetch_add(l, 1, Mode::Relaxed);
                                during.lock().push(os_threads());
                                ctx.fetch_add(l, 1, Mode::Relaxed);
                            }) as BodyFn<'_, _, _>
                        })
                        .collect(),
                    |ctx, &l, _| ctx.peek(l),
                );
                assert_eq!(out.result.unwrap(), Val::Int(16));
            }
            let during = during.into_inner();
            assert_eq!(during.len(), 160);
            assert!(during.iter().all(|&t| t == before), "{before} → {during:?}");
            assert_eq!(os_threads(), before);
            std::process::exit(RAN);
        };
        assert_eq!(status.code(), Some(RAN), "child: {status:?}");
    }

    #[test]
    fn worker_stacks_outlive_their_exploration() {
        const RAN: i32 = 17;
        let Some(status) = rerun_in_child("worker_stacks_outlive_their_exploration") else {
            let mut eight = crate::litmus::Litmus::new("eight", |ctx| ctx.alloc("c", Val::Int(0)));
            for _ in 0..8 {
                eight = eight.thread(|ctx, &l| ctx.fetch_add(l, 1, Mode::Relaxed).expect_int());
            }
            // Four chunks of 16 seeds, and no worker gets past its first
            // outcome before all four have one: every exploration has
            // exactly 4 × 8 coroutines live at once.
            let spec = crate::WorkSpec::Random {
                iters: 64,
                seed0: 0,
            };
            let allocated = || coro::ALLOCATED.load(Ordering::Relaxed);
            let mut after_first = 0;
            for round in 0..30 {
                let all_started = std::sync::Barrier::new(4);
                crate::Explorer::with_threads(4).explore_with(&spec, &eight, |_| {
                    let (mut first, all_started) = (true, &all_started);
                    move |_: &StrategyDesc, _: &RunOutcome<Vec<i64>>| {
                        if std::mem::take(&mut first) {
                            all_started.wait();
                        }
                    }
                });
                if round == 0 {
                    after_first = allocated();
                }
            }
            assert_eq!((after_first, allocated()), (32, 32));
            std::process::exit(RAN);
        };
        assert_eq!(status.code(), Some(RAN), "child: {status:?}");
    }

    #[test]
    fn arena_is_reused_across_runs() {
        // A dedicated OS thread so the thread-local arena starts cold
        // regardless of how the test harness pools threads.
        std::thread::spawn(|| {
            let run = || {
                run_model(
                    &Config::default(),
                    random_strategy(1),
                    |ctx| ctx.alloc("x", Val::Int(0)),
                    vec![Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                        ctx.write(l, Val::Int(1), Mode::Release);
                    }) as BodyFn<'_, _, _>],
                    |ctx, &l, _| ctx.peek(l),
                )
            };
            let mark = local_reuse();
            for _ in 0..3 {
                assert_eq!(run().result.unwrap(), Val::Int(1));
            }
            let delta = local_reuse().delta_since(&mark);
            // First run builds the arena; the remaining two reuse it.
            assert_eq!(delta.arena_execs, 2, "warm-arena executions: {delta:?}");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_second_exploration_on_the_same_thread_starts_warm() {
        std::thread::spawn(|| {
            let sb = crate::litmus::gallery::sb();
            let explore = || {
                let spec = crate::WorkSpec::Dfs { budget: 10_000 };
                crate::Explorer::serial().explore(&spec, &sb, |_, _| ())
            };
            let (first, second) = (explore(), explore());
            assert_eq!(first.reuse.arena_execs, first.execs - 1);
            assert_eq!(second.reuse.arena_execs, second.execs);
            assert!(second.reuse.arena_execs > 0);
            // The retired checkpoint counters are never written.
            for r in [first.reuse, second.reuse] {
                let retired = (
                    r.checkpoints_taken,
                    r.checkpoints_restored,
                    r.prefix_steps_saved,
                );
                assert_eq!(retired, (0, 0, 0));
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_commit_epoch_flows_to_the_acquirer_only() {
        // Body 1 commits at its release write; body 2 acquires it, body 3
        // reads it relaxed. The epoch is covered by exactly body 2's clock.
        let out = run_model(
            &Config::default(),
            random_strategy(5),
            |ctx| ctx.alloc("flag", Val::Int(0)),
            vec![
                Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                    ctx.write_with(l, Val::Int(1), Mode::Release, |gh| {
                        (gh.tid(), gh.clock().get(gh.tid()))
                    })
                }) as BodyFn<'_, _, _>,
                Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                    ctx.read_await(l, Mode::Acquire, |v| v == Val::Int(1));
                    (0usize, ctx.clock().get(1))
                }),
                Box::new(|ctx: &mut ThreadCtx, &l: &Loc| {
                    ctx.read_await(l, Mode::Relaxed, |v| v == Val::Int(1));
                    (0usize, ctx.clock().get(1))
                }),
            ],
            |_, _, outs| outs,
        );
        let outs = out.result.unwrap();
        let (tid, c) = outs[0];
        assert_eq!(tid, 1);
        assert!(outs[1].1 >= c, "acquirer covers the epoch: {outs:?}");
        assert!(outs[2].1 < c, "relaxed reader does not: {outs:?}");
    }
}
