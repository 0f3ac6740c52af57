//! One role-based description per native library.
//!
//! A [`Role`] is a thread-*owned* handle on a native structure: it says
//! which of {produce, consume} it supports and performs them, returning
//! the conformance event the operation amounts to (the event enums live
//! in `compass`, not here). A [`Library`] is a name plus a factory
//! handing out one role per thread — symmetric handles on a shared
//! queue or stack, producer/consumer for the SPSC ring, owner/thieves
//! for the Chase–Lev deque, offerers for the exchanger. [`registry`] is
//! the one table of them.
//!
//! Everything that is *not* library-specific lives in three generic
//! drivers, each deriving its traffic from the roles alone: the
//! recorded batch round behind `compass::conform::ConformSubject`
//! (`e11_conform`, below), the soak loop ([`crate::soak`],
//! `e13_soak`), and the closed-loop perf bodies
//! ([`Subject::perf_bodies`], `e12_perf`). Roles are *moved* into their
//! threads, so single-owner endpoints (`Worker`, `Producer`,
//! `Consumer`) need no wrapper; and a
//! library's roles are one concrete type (an enum where the ends
//! differ), so each driver loop is monomorphised per library and the
//! structure's operations inline into it — these loops run on
//! nanosecond-scale structures, where an operation stuck behind a call
//! shows up in the numbers (boxed `dyn` roles cost the SPSC ring two
//! thirds of its throughput in a two-thread closed loop).
//!
//! **Adding a native library** is one factory (a role type + a function
//! returning a [`Library`]; the generic queue handle is 30 lines, the
//! exchanger 37, doc comments included) and one [`registry`] row — no
//! driver code.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use compass::conform::{
    run_conformance, ConformEvent, ConformOptions, ConformSubject, History, RoundSpec,
};
use compass::deque_spec::DequeEvent;
use compass::exchanger_spec::ExchangeEvent;
use compass::queue_spec::QueueEvent;
use compass::soak::SoakEvent;
use compass::stack_spec::StackEvent;
use compass::CheckReport;
use compass_native::perf as nperf;
use compass_native::recorder::{Clock, Jitter, OpLog, TimedOp};
use compass_native::{
    ConcurrentQueue, ConcurrentStack, ElimStack, Exchanger, HwQueue, MsQueue, MutexQueue,
    MutexStack, Steal, TreiberStack,
};
use orc11::Val;

use crate::soak::{soak, SoakOutcome, SoakRunOptions};

/// Which operations a [`Role`] supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ops {
    /// Produces and consumes; drivers mix the two.
    Both,
    /// Only produces (SPSC producer, exchanger offerer).
    Produce,
    /// Only consumes (SPSC consumer, deque thief).
    Consume,
}

/// A thread-owned handle on a native structure. `None` from either
/// operation means "no event" — a lost `Steal::Retry` race, or a push
/// abandoned because the run is over. Drivers never ask a role for an
/// operation outside its [`Ops`]. The drivers' loops are monomorphised
/// per role type; a non-generic role marks its methods `#[inline]` so
/// they land inside those loops rather than behind a call.
pub trait Role: Send + 'static {
    /// The conformance vocabulary this library is checked against.
    type Ev: SoakEvent;

    /// The operations this role supports.
    fn ops(&self) -> Ops {
        Ops::Both
    }

    /// Inserts `v`.
    fn produce(&mut self, _v: i64) -> Option<Self::Ev> {
        None
    }

    /// Removes a value (or observes the structure empty).
    fn consume(&mut self) -> Option<Self::Ev> {
        None
    }
}

/// Whether the roles form a pipeline: nobody is two-sided, so every
/// produced value is awaited by a consume-only role and the two ends
/// never contend with each other (the SPSC ring).
pub(crate) fn is_pipeline<R: Role>(roles: &[R]) -> bool {
    roles.iter().all(|r| r.ops() != Ops::Both) && roles.iter().any(|r| r.ops() == Ops::Consume)
}

/// The one sizing argument each experiment hands a library's factory —
/// slot count, ring size, buffer size, or patience, as the library
/// reads it. These are the numbers `e11`/`e13`/`e12` have always used;
/// they differ per experiment because a batch round is bounded by its
/// op count, a soak is open-ended, and the perf rounds prefill.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Batch round of `threads × ops`.
    pub round: fn(usize, usize) -> usize,
    /// Soak at `threads` mutators.
    pub soak: fn(usize) -> usize,
    /// Per-role bound on produced values in a soak, for structures with
    /// a bounded *total* capacity (`u64::MAX` = unbounded). A producer
    /// at its cap consumes instead.
    pub soak_produce_cap: u64,
    /// Perf round of `threads × per_thread` ops after the prefill.
    pub perf: fn(usize, u64) -> usize,
}

impl Sizing {
    /// Unbounded structures: the argument is ignored.
    pub const FREE: Sizing = Sizing {
        round: |_, _| 0,
        soak: |_| 0,
        soak_produce_cap: u64::MAX,
        perf: |_, _| 0,
    };
}

/// A native library: display name, `e12` kind tag, and the factory
/// building one fresh instance and its per-thread roles (one per
/// thread, in thread-index order).
pub struct Library<R: Role> {
    pub(crate) name: &'static str,
    kind: &'static str,
    baseline: bool,
    threads: fn(usize) -> usize,
    pub(crate) sizing: Sizing,
    make: Box<dyn Fn(usize, usize) -> Vec<R> + Send + Sync>,
}

impl<R: Role> Library<R> {
    fn new(
        name: &'static str,
        kind: &'static str,
        sizing: Sizing,
        make: impl Fn(usize, usize) -> Vec<R> + Send + Sync + 'static,
    ) -> Self {
        Library {
            name,
            kind,
            baseline: false,
            threads: |requested| requested.max(1),
            sizing,
            make: Box::new(make),
        }
    }

    /// Marks a reference implementation (mutex-guarded and the like):
    /// run for comparison, kept out of the headline numbers.
    pub fn baseline(mut self) -> Self {
        self.baseline = true;
        self
    }

    /// A fresh instance and one role per thread; `capacity` as per
    /// [`Sizing`].
    pub fn roles(&self, threads: usize, capacity: usize) -> Vec<R> {
        (self.make)(self.threads(threads), capacity)
    }
}

/// A symmetric handle on a shared [`ConcurrentQueue`].
pub struct QueueRole<Q>(Arc<Q>);

impl<Q: ConcurrentQueue<i64> + 'static> Role for QueueRole<Q> {
    type Ev = QueueEvent;
    fn produce(&mut self, v: i64) -> Option<QueueEvent> {
        self.0.enqueue(v);
        Some(QueueEvent::Enq(Val::Int(v)))
    }
    fn consume(&mut self) -> Option<QueueEvent> {
        Some(match self.0.dequeue() {
            Some(w) => QueueEvent::Deq(Val::Int(w)),
            None => QueueEvent::EmpDeq,
        })
    }
}

/// Any [`ConcurrentQueue`]: symmetric handles on one shared
/// `make(capacity)`.
pub fn queue<Q: ConcurrentQueue<i64> + 'static>(
    name: &'static str,
    sizing: Sizing,
    make: impl Fn(usize) -> Q + Send + Sync + 'static,
) -> Library<QueueRole<Q>> {
    Library::new(name, "queue", sizing, move |threads, capacity| {
        let q = Arc::new(make(capacity));
        (0..threads).map(|_| QueueRole(q.clone())).collect()
    })
}

/// A symmetric handle on a shared [`ConcurrentStack`].
pub struct StackRole<S>(Arc<S>);

impl<S: ConcurrentStack<i64> + 'static> Role for StackRole<S> {
    type Ev = StackEvent;
    fn produce(&mut self, v: i64) -> Option<StackEvent> {
        self.0.push(v);
        Some(StackEvent::Push(Val::Int(v)))
    }
    fn consume(&mut self) -> Option<StackEvent> {
        Some(match self.0.pop() {
            Some(w) => StackEvent::Pop(Val::Int(w)),
            None => StackEvent::EmpPop,
        })
    }
}

/// Any [`ConcurrentStack`]: symmetric handles on one shared
/// `make(capacity)`.
pub fn stack<S: ConcurrentStack<i64> + 'static>(
    name: &'static str,
    sizing: Sizing,
    make: impl Fn(usize) -> S + Send + Sync + 'static,
) -> Library<StackRole<S>> {
    Library::new(name, "stack", sizing, move |threads, capacity| {
        let s = Arc::new(make(capacity));
        (0..threads).map(|_| StackRole(s.clone())).collect()
    })
}

/// One end of the SPSC ring; the flag says the consumer has left.
pub enum SpscEnd {
    /// Thread 0.
    Producer(compass_native::Producer<i64>, Arc<AtomicBool>),
    /// Thread 1.
    Consumer(compass_native::Consumer<i64>, Arc<AtomicBool>),
}

impl Role for SpscEnd {
    type Ev = QueueEvent;
    #[inline(always)]
    fn ops(&self) -> Ops {
        match self {
            SpscEnd::Producer(..) => Ops::Produce,
            SpscEnd::Consumer(..) => Ops::Consume,
        }
    }
    /// Retries on a full ring until the consumer has left: nobody will
    /// ever make room then, so the push is abandoned (no event). One
    /// perf sample per push, the wait included, like `Producer::push`.
    #[inline(always)]
    fn produce(&mut self, v: i64) -> Option<QueueEvent> {
        let SpscEnd::Producer(tx, consumer_gone) = self else {
            return None;
        };
        nperf::op(nperf::OpKind::SpscPush, || {
            let mut item = v;
            while let Err(back) = tx.try_push(item) {
                if consumer_gone.load(Ordering::Relaxed) {
                    return None;
                }
                item = back;
                std::hint::spin_loop();
            }
            Some(QueueEvent::Enq(Val::Int(v)))
        })
    }
    #[inline(always)]
    fn consume(&mut self) -> Option<QueueEvent> {
        let SpscEnd::Consumer(rx, _) = self else {
            return None;
        };
        Some(match rx.try_pop() {
            Some(w) => QueueEvent::Deq(Val::Int(w)),
            None => QueueEvent::EmpDeq,
        })
    }
}

impl Drop for SpscEnd {
    fn drop(&mut self) {
        if let SpscEnd::Consumer(_, gone) = self {
            gone.store(true, Ordering::Relaxed);
        }
    }
}

/// The SPSC ring, checked against the queue clauses. Always two
/// threads — the structure's contract — whatever the run asks for.
pub fn spsc() -> Library<SpscEnd> {
    let sizing = Sizing {
        round: |_, ops| ops.max(1),
        soak: |_| 1024,
        perf: |_, _| 4096,
        ..Sizing::FREE
    };
    let mut lib = Library::new("spsc_ring", "spsc", sizing, |_, capacity| {
        let (tx, rx) = compass_native::spsc_ring(capacity);
        let consumer_gone = Arc::new(AtomicBool::new(false));
        vec![
            SpscEnd::Producer(tx, consumer_gone.clone()),
            SpscEnd::Consumer(rx, consumer_gone),
        ]
    });
    lib.threads = |_| 2;
    lib
}

/// One end of the Chase–Lev deque.
pub enum DequeEnd {
    /// Thread 0: pushes and pops at the bottom.
    Owner(compass_native::Worker<i64>),
    /// Everyone else: steals from the top.
    Thief(compass_native::Stealer<i64>),
}

impl Role for DequeEnd {
    type Ev = DequeEvent;
    #[inline(always)]
    fn ops(&self) -> Ops {
        match self {
            DequeEnd::Owner(_) => Ops::Both,
            DequeEnd::Thief(_) => Ops::Consume,
        }
    }
    #[inline(always)]
    fn produce(&mut self, v: i64) -> Option<DequeEvent> {
        let DequeEnd::Owner(worker) = self else {
            return None;
        };
        worker.push(v);
        Some(DequeEvent::Push(Val::Int(v)))
    }
    /// A thief's lost race is not an event: nothing on `Retry`.
    #[inline(always)]
    fn consume(&mut self) -> Option<DequeEvent> {
        match self {
            DequeEnd::Owner(worker) => Some(match worker.pop() {
                Some(w) => DequeEvent::Pop(Val::Int(w)),
                None => DequeEvent::EmpPop,
            }),
            DequeEnd::Thief(stealer) => match stealer.steal() {
                Steal::Stolen(w) => Some(DequeEvent::Steal(Val::Int(w))),
                Steal::Empty => Some(DequeEvent::EmpSteal),
                Steal::Retry => None,
            },
        }
    }
}

/// The Chase–Lev work-stealing deque: thread 0 owns the worker end, the
/// rest steal (a one-thread run is the owner alone — `e12`'s
/// single-thread point). The buffer is not a ring (see
/// `compass_native::Worker::push`), so `capacity` bounds the owner's
/// *total* pushes.
pub fn chase_lev() -> Library<DequeEnd> {
    let sizing = Sizing {
        round: |_, ops| ops.max(1),
        soak: |_| 1 << 20,
        soak_produce_cap: 1 << 20,
        perf: |_, per_thread| (per_thread / 2 + PREFILL + 2) as usize,
    };
    Library::new("chase_lev", "deque", sizing, |threads, capacity| {
        let (worker, stealer) = compass_native::chase_lev(capacity);
        let thieves = (1..threads).map(|_| DequeEnd::Thief(stealer.clone()));
        std::iter::once(DequeEnd::Owner(worker))
            .chain(thieves)
            .collect()
    })
}

/// A handle on the shared exchanger, with its patience.
pub struct Offerer(Arc<Exchanger<i64>>, u32);

impl Role for Offerer {
    type Ev = ExchangeEvent;
    fn ops(&self) -> Ops {
        Ops::Produce
    }
    /// A timeout is an event too (`got = ⊥`) — the `CONFORM-XCHG`
    /// clauses only constrain successes.
    fn produce(&mut self, v: i64) -> Option<ExchangeEvent> {
        let got = self.0.exchange(v, self.1).ok().map(Val::Int);
        Some(ExchangeEvent {
            give: Val::Int(v),
            got,
        })
    }
}

/// The exchanger: every thread repeatedly offers a distinct value with
/// bounded patience (the sizing argument).
pub fn exchanger() -> Library<Offerer> {
    let sizing = Sizing {
        round: |_, _| 512,
        soak: |_| 64,
        perf: |_, _| 256,
        ..Sizing::FREE
    };
    let mut lib = Library::new("exchanger", "exchange", sizing, |threads, patience| {
        let ex = Arc::new(Exchanger::new());
        (0..threads)
            .map(|_| Offerer(ex.clone(), patience as u32))
            .collect()
    });
    lib.threads = |requested| requested.max(2);
    lib
}

/// Per-thread produce cap for the bounded-capacity HwQueue in a soak
/// (its slot array is sized `threads * cap`; producers at the cap
/// consume instead, which is the structure's designed end-of-life
/// regime).
const HW_SOAK_CAP_PER_THREAD: u64 = 250_000;

/// A registry row: one native library under all three experiments,
/// with its event type erased.
pub trait Subject: Send + Sync {
    /// Display name (reports, metrics keys, bundle directories).
    fn name(&self) -> &'static str;
    /// `e12` kind tag (`queue`, `stack`, `deque`, …).
    fn kind(&self) -> &'static str;
    /// Whether this is a reference baseline, not one of the paper's
    /// structures.
    fn is_baseline(&self) -> bool;
    /// The thread count a run asking for `requested` actually gets.
    fn threads(&self, requested: usize) -> usize;
    /// Whether a soak records every operation (pairwise vocabularies)
    /// rather than a value sample — such a run is bounded by pacing,
    /// not by the sampling governor.
    fn recorded_in_full(&self) -> bool;
    /// `e11`: recorded batch rounds through `run_conformance`.
    fn conform(&self, opts: &ConformOptions) -> CheckReport;
    /// `e13`: baseline + recorded soak.
    fn soak(&self, opts: &SoakRunOptions) -> SoakOutcome;
    /// `e12`: one prefilled instance's closed-loop bodies.
    fn perf_bodies(&self, threads: usize, per_thread: u64) -> Vec<Body>;
}

impl<R: Role> Subject for Library<R> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn kind(&self) -> &'static str {
        self.kind
    }
    fn is_baseline(&self) -> bool {
        self.baseline
    }
    fn threads(&self, requested: usize) -> usize {
        (self.threads)(requested)
    }
    fn recorded_in_full(&self) -> bool {
        R::Ev::PAIRWISE
    }
    fn conform(&self, opts: &ConformOptions) -> CheckReport {
        run_conformance(self, opts)
    }
    fn soak(&self, opts: &SoakRunOptions) -> SoakOutcome {
        soak(self, opts)
    }
    fn perf_bodies(&self, threads: usize, per_thread: u64) -> Vec<Body> {
        perf_bodies(self, threads, per_thread)
    }
}

/// The native libraries: the paper's seven structures, then the mutex
/// baselines.
pub fn registry() -> Vec<Box<dyn Subject>> {
    let hw = Sizing {
        round: |threads, ops| threads * ops,
        soak: |threads| threads * HW_SOAK_CAP_PER_THREAD as usize,
        soak_produce_cap: HW_SOAK_CAP_PER_THREAD,
        perf: |threads, per_thread| (PREFILL + threads as u64 * per_thread + 1) as usize,
    };
    // The elimination array's patience.
    let elim = Sizing {
        round: |_, _| 64,
        soak: |_| 64,
        perf: |_, _| 256,
        ..Sizing::FREE
    };
    vec![
        Box::new(queue("MsQueue", Sizing::FREE, |_| MsQueue::new())),
        Box::new(queue("HwQueue", hw, HwQueue::new)),
        Box::new(stack("TreiberStack", Sizing::FREE, |_| TreiberStack::new())),
        Box::new(stack("ElimStack", elim, |patience| {
            ElimStack::new(4, patience as u32)
        })),
        Box::new(spsc()),
        Box::new(chase_lev()),
        Box::new(exchanger()),
        Box::new(queue("MutexQueue", Sizing::FREE, |_| MutexQueue::new()).baseline()),
        Box::new(stack("MutexStack", Sizing::FREE, |_| MutexStack::new()).baseline()),
    ]
}

/// Moves each role into its own barrier-started thread running
/// `body(index, role)`, with `coordinate` on the calling thread once
/// all of them are past the barrier. Returns the per-thread results in
/// role order and the wall time from the barrier to the last join.
pub(crate) fn run_roles<R: Role, T: Send>(
    roles: Vec<R>,
    body: impl Fn(usize, R) -> T + Sync,
    coordinate: impl FnOnce(),
) -> (Vec<T>, Duration) {
    let barrier = Barrier::new(roles.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = roles
            .into_iter()
            .enumerate()
            .map(|(index, role)| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    barrier.wait();
                    body(index, role)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        coordinate();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("role thread panicked"))
            .collect();
        (results, start.elapsed())
    })
}

/// The distinct value produced by thread `index` for its `k`-th
/// produce (or its `k`-th transaction's id). Every produced value is
/// distinct, which is what makes the structural conformance checks
/// exact: each value has at most one producer and one taker.
pub(crate) fn round_value(index: usize, k: usize) -> i64 {
    (index as i64 + 1) * 1_000_000 + k as i64
}

/// The recorded batch round: every role performs `ops_per_thread`
/// jitter-staggered operations, all of them recorded.
impl<R: Role> ConformSubject for Library<R> {
    type Ev = R::Ev;

    fn name(&self) -> &str {
        self.name
    }

    fn round(&self, spec: &RoundSpec) -> History<R::Ev> {
        let threads = self.threads(spec.threads);
        let ops = spec.ops_per_thread;
        let roles = self.roles(threads, (self.sizing.round)(threads, ops));
        // A two-sided role feeding consume-only ones (the deque owner)
        // is push-biased so thieves have something to fight over.
        let (num, denom) = if roles.iter().any(|r| r.ops() == Ops::Consume) {
            (2, 3)
        } else {
            (1, 2)
        };
        let clock = Clock::new();
        let (logs, _) = run_roles(
            roles,
            |index, mut role| {
                let mut jitter = Jitter::for_thread(spec.seed, index);
                let mut log = OpLog::with_capacity(ops);
                let mut produced = 0;
                for _ in 0..ops {
                    jitter.stagger();
                    let produce = match role.ops() {
                        Ops::Produce => true,
                        Ops::Consume => false,
                        Ops::Both => jitter.chance(num, denom),
                    };
                    if produce {
                        let v = round_value(index, produced);
                        produced += 1;
                        log.record(&clock, || role.produce(v), |ev| *ev);
                    } else {
                        log.record(&clock, || role.consume(), |ev| *ev);
                    }
                }
                log.into_ops()
            },
            || {},
        );
        to_history(logs)
    }
}

/// Converts recorder logs (thread-indexed) into a conform [`History`].
pub(crate) fn to_history<E: ConformEvent>(logs: Vec<Vec<TimedOp<E>>>) -> History<E> {
    History::from_tuples(
        logs.into_iter()
            .map(|ops| ops.into_iter().map(|t| (t.op, t.inv, t.resp)).collect())
            .collect(),
    )
}

/// How many elements `e12` seeds a structure with before a round, so
/// consume-side ops don't start against an empty structure.
const PREFILL: u64 = 1024;

/// One thread's share of an `e12` round: called with consecutive
/// op-index ranges totalling `ops_per_thread`.
pub type Body = Box<dyn FnMut(Range<u64>) + Send>;

/// `e12`'s closed-loop bodies over a fresh, prefilled instance: a
/// two-sided role parity-mixes (even op indices, staggered by thread,
/// produce; odd consume), a one-sided role does its one operation.
/// When *no* role is two-sided the roles form a pipeline — every
/// produced value is awaited by a consumer — so a consume is "take the
/// next value" (spinning on the instrumented miss, so misses are
/// sampled too) and both ends finish with the same count.
fn perf_bodies<R: Role>(lib: &Library<R>, threads: usize, per_thread: u64) -> Vec<Body> {
    let threads = lib.threads(threads);
    let mut roles = lib.roles(threads, (lib.sizing.perf)(threads, per_thread));
    if roles[0].ops() == Ops::Both {
        for k in 0..PREFILL {
            roles[0].produce(k as i64);
        }
    }
    let pipeline = is_pipeline(&roles);
    roles
        .into_iter()
        .enumerate()
        .map(|(tid, mut role)| {
            let tid = tid as u64;
            Box::new(move |range: Range<u64>| {
                for i in range {
                    let produce = match role.ops() {
                        Ops::Both => (i + tid) & 1 == 0,
                        Ops::Produce => true,
                        Ops::Consume => false,
                    };
                    if produce {
                        std::hint::black_box(role.produce(round_value(tid as usize, i as usize)));
                    } else if pipeline {
                        while role.consume().and_then(|ev| ev.taken()).is_none() {
                            std::hint::spin_loop();
                        }
                    } else {
                        std::hint::black_box(role.consume());
                    }
                }
            }) as Body
        })
        .collect()
}
