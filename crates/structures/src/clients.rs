//! The client programs, as values, and the one driver that runs them.
//!
//! A [`Client`] states a client program once, as data: per thread, a
//! list of library [`Op`]s, plus optional setup ops and a flag for
//! Message-Passing-style synchronization. [`run_client`] runs it against
//! any [`Object`] — every model queue, stack, exchanger, deque, Arc and
//! TML — so one client checks every library that offers its ops, the way
//! the paper states a client once against a spec (§2).
//!
//! * [`MP`] — the Message-Passing client of Figure 1/3, with [`run_mp`]
//!   and [`check_mp`]: the flag-synchronized dequeuer can never observe
//!   the queue as empty.
//! * [`PUSH_POP_PUSH`], [`ARC_TWO_DROPS`] and [`TML_WRITER_READER`] — with
//!   [`MP`], the pin clients of the paper structures and their controls.
//! * [`run_spsc`] — the single-producer single-consumer client of §3.2
//!   (a closure: it copies arrays in and out): the consumer's array ends
//!   up equal to the producer's.

use compass::arc_spec::ArcEvent;
use compass::deque_spec::DequeEvent;
use compass::exchanger_spec::ExchangeEvent;
use compass::queue_spec::{check_queue_consistent, QueueEvent};
use compass::stack_spec::StackEvent;
use compass::stm_spec::StmEvent;
use compass::{EventId, Graph};
use orc11::{run_model, BodyFn, Config, Loc, Mode, RunOutcome, Strategy, ThreadCtx, Val};

use crate::arc::ModelArc;
use crate::buggy::{SplitExchanger, UnvalidatedTml};
use crate::deque::{ChaseLevDeque, Steal};
use crate::exchanger::{Exchanger, ExchangerArray};
use crate::queue::{ModelQueue, MsQueue};
use crate::stack::{ElimStack, ModelStack, TreiberStack};
use crate::stm::ModelTml;

use Op::*;
use TxnOp::*;

/// One library operation of a client thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Queue: enqueue `v`.
    Enq(i64),
    /// Queue: one dequeue attempt.
    Deq,
    /// Stack, or the deque's owner: push `v`.
    Push(i64),
    /// Stack, or the deque's owner: pop.
    Pop,
    /// Deque: one steal attempt.
    Steal,
    /// Exchanger: offer `v`, waiting up to `patience` rounds.
    Exchange(i64, u32),
    /// Arc: clone a strong reference.
    CloneRef,
    /// Arc: read the payload.
    Load,
    /// Arc: drop a strong reference.
    DropRef,
    /// TML: one transaction attempt — `begin(id)`, `ops` in order, then
    /// commit; an abort ends the attempt.
    Txn {
        /// The transaction's identifier.
        id: i64,
        /// Its reads and increments.
        ops: &'static [TxnOp],
    },
    /// Write `1` to the client's flag with this mode.
    SetFlag(Mode),
    /// Wait (acquire) until the client's flag reads `1`.
    AwaitFlag,
}

impl Op {
    /// Whether the op returns a value: what a dequeue, pop, steal or
    /// exchange got (`None` for empty or failed), or the Arc's payload.
    fn returns_value(self) -> bool {
        matches!(self, Deq | Pop | Steal | Exchange(..) | Load)
    }
}

/// One access of a TML transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnOp {
    /// Read key `k`.
    Read(usize),
    /// Read key `k` and write back its value plus one.
    Incr(usize),
}

/// A client program: per thread, the library ops it runs in order.
#[derive(Clone, Copy, Debug)]
pub struct Client {
    /// Ops the setup thread applies to the fresh object before any body
    /// runs (the Arc clients' second strong reference).
    pub setup: &'static [Op],
    /// The label of the client's flag location, allocated (as `0`) right
    /// after the object and its setup ops; `None` if no thread uses it.
    pub flag: Option<&'static str>,
    /// One op list per thread.
    pub threads: &'static [&'static [Op]],
}

impl Client {
    /// A client of `threads` alone: no setup ops, no flag.
    pub const fn new(threads: &'static [&'static [Op]]) -> Client {
        Client {
            setup: &[],
            flag: None,
            threads,
        }
    }
}

/// A library object that client ops run against.
pub trait Object: Sync {
    /// What a run returns: the object's event graph (or graphs).
    type Graph;

    /// Runs one library op; returns what a dequeue, pop, steal or
    /// exchange got, or the Arc's payload, and `None` for other ops.
    ///
    /// # Panics
    ///
    /// Panics if the object has no such op (flag ops are the driver's).
    fn apply(&self, ctx: &mut ThreadCtx, op: Op) -> Option<Val>;

    /// The object's event graph.
    fn graph(&self) -> Self::Graph;
}

fn unsupported(object: &str, op: Op) -> ! {
    panic!("{object} has no op {op:?}")
}

impl<Q: ModelQueue> Object for Q {
    type Graph = Graph<QueueEvent>;

    fn apply(&self, ctx: &mut ThreadCtx, op: Op) -> Option<Val> {
        match op {
            Enq(v) => {
                self.enqueue(ctx, Val::Int(v));
                None
            }
            Deq => self.try_dequeue(ctx).0,
            op => unsupported("a queue", op),
        }
    }

    fn graph(&self) -> Self::Graph {
        self.obj().snapshot()
    }
}

/// `Object` for library types with the same ops and graph: `$apply` maps
/// `(self, ctx, op)` to the op's value.
macro_rules! objects {
    ($graph:ty, |$s:ident, $ctx:ident, $op:ident| $apply:expr, $($ty:ty),+) => {$(
        impl Object for $ty {
            type Graph = $graph;

            fn apply(&self, $ctx: &mut ThreadCtx, $op: Op) -> Option<Val> {
                let $s = self;
                $apply
            }

            fn graph(&self) -> Self::Graph {
                self.obj().snapshot()
            }
        }
    )+};
}

objects!(
    Graph<StackEvent>,
    |s, ctx, op| stack_op(s, ctx, op),
    TreiberStack
);

objects!(
    Graph<ExchangeEvent>,
    |x, ctx, op| match op {
        Exchange(v, patience) => x.exchange(ctx, Val::Int(v), patience).0,
        op => unsupported("an exchanger", op),
    },
    Exchanger,
    ExchangerArray,
    SplitExchanger
);

objects!(
    Graph<DequeEvent>,
    |d, ctx, op| match op {
        Push(v) => {
            d.push(ctx, Val::Int(v));
            None
        }
        Pop => d.pop(ctx).0,
        Steal => match d.steal(ctx) {
            Steal::Stolen(v, _) => Some(v),
            Steal::Empty(_) | Steal::Raced => None,
        },
        op => unsupported("a deque", op),
    },
    ChaseLevDeque
);

objects!(
    Graph<ArcEvent>,
    |a, ctx, op| match op {
        CloneRef => {
            a.clone_ref(ctx);
            None
        }
        Load => Some(a.load(ctx)),
        DropRef => {
            a.drop_ref(ctx);
            None
        }
        op => unsupported("an Arc", op),
    },
    ModelArc
);

// The unvalidated TML runs the validated TML's transaction code, whose
// reads skip validation under its mode table.
objects!(
    Graph<StmEvent>,
    |tm, ctx, op| txn(tm, ctx, op),
    ModelTml,
    UnvalidatedTml
);

fn stack_op(s: &impl ModelStack, ctx: &mut ThreadCtx, op: Op) -> Option<Val> {
    match op {
        Push(v) => {
            s.push(ctx, Val::Int(v));
            None
        }
        Pop => s.pop(ctx).0,
        op => unsupported("a stack", op),
    }
}

fn txn(tm: &ModelTml, ctx: &mut ThreadCtx, op: Op) -> Option<Val> {
    let Txn { id, ops } = op else {
        unsupported("a TML", op)
    };
    let mut txn = tm.begin(ctx, id);
    for &op in ops {
        let (Read(k) | Incr(k)) = op;
        let Ok(v) = tm.read(ctx, &mut txn, k) else {
            return None;
        };
        if let Incr(_) = op {
            let next = Val::Int(v.expect_int() + 1);
            if tm.write(ctx, &mut txn, k, next).is_err() {
                return None;
            }
        }
    }
    tm.commit(ctx, txn);
    None
}

/// The elimination stack's run returns its own graph, its base stack's
/// and its exchanger's.
impl Object for ElimStack {
    type Graph = (Graph<StackEvent>, Graph<StackEvent>, Graph<ExchangeEvent>);

    fn apply(&self, ctx: &mut ThreadCtx, op: Op) -> Option<Val> {
        stack_op(self, ctx, op)
    }

    fn graph(&self) -> Self::Graph {
        (
            self.obj().snapshot(),
            self.base_obj().snapshot(),
            self.exchanger_obj().snapshot(),
        )
    }
}

/// What the bodies share: the object, the client's flag and threads.
struct Shared<'c, O> {
    obj: O,
    flag: Option<Loc>,
    threads: &'c [&'static [Op]],
}

impl<O: Object> Shared<'_, O> {
    /// Runs the calling body's ops and returns the last value-returning
    /// op's result. Body `i` runs as thread `i + 1` (the setup thread is
    /// thread 0), so every body is the same capture-free closure and
    /// boxing it allocates nothing.
    fn body(&self, ctx: &mut ThreadCtx) -> Option<Val> {
        let flag = || self.flag.expect("the client has a flag");
        let mut last = None;
        for &op in self.threads[ctx.tid() - 1] {
            let v = match op {
                SetFlag(mode) => {
                    ctx.write(flag(), Val::Int(1), mode);
                    None
                }
                AwaitFlag => {
                    ctx.read_await(flag(), Mode::Acquire, |v| v == Val::Int(1));
                    None
                }
                op => self.obj.apply(ctx, op),
            };
            if op.returns_value() {
                last = v;
            }
        }
        last
    }
}

/// Runs `client` once against the object `make` builds; returns the
/// object's graph.
pub fn run_client<O: Object>(
    cfg: &Config,
    make: impl FnOnce(&mut ThreadCtx) -> O,
    client: &Client,
    strategy: Box<dyn Strategy>,
) -> RunOutcome<O::Graph> {
    run_client_outs(cfg, make, client, strategy).map(|(graph, _)| graph)
}

/// As [`run_client`], also returning, per thread, what its last
/// value-returning op returned (`None` if it has none).
pub fn run_client_outs<O: Object>(
    cfg: &Config,
    make: impl FnOnce(&mut ThreadCtx) -> O,
    client: &Client,
    strategy: Box<dyn Strategy>,
) -> RunOutcome<(O::Graph, Vec<Option<Val>>)> {
    run_model(
        cfg,
        strategy,
        |ctx| {
            let obj = make(ctx);
            for &op in client.setup {
                obj.apply(ctx, op);
            }
            let flag = client.flag.map(|label| ctx.alloc(label, Val::Int(0)));
            Shared {
                obj,
                flag,
                threads: client.threads,
            }
        },
        client
            .threads
            .iter()
            .map(|_| {
                Box::new(|ctx: &mut ThreadCtx, sh: &Shared<'_, O>| sh.body(ctx))
                    as BodyFn<'_, _, Option<Val>>
            })
            .collect(),
        |_, sh, outs| (sh.obj.graph(), outs),
    )
}

// ---- the clients --------------------------------------------------------

/// The Message-Passing client of Figure 1/3, on a queue and a flag:
///
/// * thread 1: `enq(q, 41); enq(q, 42); flag :=ʳᵉˡ 1`,
/// * thread 2: `deq(q)` (may legitimately observe empty),
/// * thread 3: `while (*ᵃᶜ𝑞 flag == 0) {}; deq(q)`.
pub const MP: Client = Client {
    setup: &[],
    flag: Some("mp.flag"),
    threads: &[
        &[Enq(41), Enq(42), SetFlag(Mode::Release)],
        &[Deq],
        &[AwaitFlag, Deq],
    ],
};

/// [`MP`] with a relaxed flag write: the ablation.
pub const MP_RELAXED_FLAG: Client = Client {
    threads: &[
        &[Enq(41), Enq(42), SetFlag(Mode::Relaxed)],
        &[Deq],
        &[AwaitFlag, Deq],
    ],
    ..MP
};

/// `enq 1 ∥ deq`: the smallest racy queue client.
pub const ENQ_DEQ: Client = Client::new(&[&[Enq(1)], &[Deq]]);

/// `enq 1 ∥ deq ∥ deq`.
pub const ENQ_DEQ_DEQ: Client = Client::new(&[&[Enq(1)], &[Deq], &[Deq]]);

/// `(enq 10; enq 11) ∥ enq 20 ∥ (deq; deq)`.
pub const PRODUCERS_CONSUMER: Client = Client::new(&[&[Enq(10), Enq(11)], &[Enq(20)], &[Deq, Deq]]);

/// `(enq 1; enq 2) ∥ (enq 3; deq) ∥ (deq; deq)`: the Figure 2 hierarchy
/// client (E2).
pub const QUEUE_MIXED: Client = Client::new(&[&[Enq(1), Enq(2)], &[Enq(3), Deq], &[Deq, Deq]]);

/// `(enq 1; enq 2) ∥ (deq; deq) ∥ (enq 3; deq)`.
pub const LOCK_QUEUE_MIXED: Client = Client::new(&[&[Enq(1), Enq(2)], &[Deq, Deq], &[Enq(3), Deq]]);

/// Two producers × two enqueues, two consumers × two dequeue attempts.
pub const MPMC: Client = Client::new(&[
    &[Enq(10), Enq(11)],
    &[Enq(20), Enq(21)],
    &[Deq, Deq],
    &[Deq, Deq],
]);

/// `(enq 10; flag :=ʳᵉˡ 1) ∥ (await flag; enq 20) ∥ deq`: the second
/// enqueue happens-after the first, so a dequeue must not return 20
/// while 10 is still queued (the relaxed Herlihy-Wing queue's
/// `QUEUE-FIFO` witness).
pub const FLAG_ORDERED_ENQS: Client = Client {
    setup: &[],
    flag: Some("flag"),
    threads: &[
        &[Enq(10), SetFlag(Mode::Release)],
        &[AwaitFlag, Enq(20)],
        &[Deq],
    ],
};

/// `push 1 ∥ pop`.
pub const PUSH_POP: Client = Client::new(&[&[Push(1)], &[Pop]]);

/// `(push 1; pop) ∥ push 2`: the Treiber stack's pin client.
pub const PUSH_POP_PUSH: Client = Client::new(&[&[Push(1), Pop], &[Push(2)]]);

/// `(push 10; push 11) ∥ (push 20; pop) ∥ (pop; pop)` (E4).
pub const STACK_MIXED: Client =
    Client::new(&[&[Push(10), Push(11)], &[Push(20), Pop], &[Pop, Pop]]);

/// `(push 10; push 11) ∥ (pop; pop) ∥ (push 30; pop)` (E5).
pub const ELIM_MIXED: Client = Client::new(&[&[Push(10), Push(11)], &[Pop, Pop], &[Push(30), Pop]]);

/// `exchange 1 ∥ exchange 2`, patience 1.
pub const EXCHANGE_PAIR: Client = Client::new(&[&[Exchange(1, 1)], &[Exchange(2, 1)]]);

/// `exchange 1 ∥ exchange 2`, patience 3.
pub const PATIENT_PAIR: Client = Client::new(&[&[Exchange(1, 3)], &[Exchange(2, 3)]]);

/// Three exchanges of 10, 11, 12, patience 2.
pub const EXCHANGE_THREE: Client =
    Client::new(&[&[Exchange(10, 2)], &[Exchange(11, 2)], &[Exchange(12, 2)]]);

/// Four exchanges of 10–13, patience 3.
pub const EXCHANGE_FOUR: Client = Client::new(&[
    &[Exchange(10, 3)],
    &[Exchange(11, 3)],
    &[Exchange(12, 3)],
    &[Exchange(13, 3)],
]);

/// `exchange 1 ∥ (nothing) ∥ exchange 3`, patience 20: threads 1 and 3
/// share a slot of a two-slot exchanger array.
pub const SAME_SLOT_PAIR: Client = Client::new(&[&[Exchange(1, 20)], &[], &[Exchange(3, 20)]]);

/// `(push 1; pop) ∥ steal` on a deque.
pub const PUSH_POP_STEAL: Client = Client::new(&[&[Push(1), Pop], &[Steal]]);

/// The deque's owner pushes two and pops two; two thieves steal once
/// (E9).
pub const OWNER_THIEVES: Client = Client::new(&[&[Push(1), Push(2), Pop, Pop], &[Steal], &[Steal]]);

/// `clone; (load; drop) ∥ (load; drop)`: two holders race their drops
/// (the Arc's pin client).
pub const ARC_TWO_DROPS: Client = Client {
    setup: &[CloneRef],
    flag: None,
    threads: &[&[Load, DropRef], &[Load, DropRef]],
};

/// `clone; (load; drop) ∥ (clone; drop; drop)`.
pub const ARC_CLONE_DROPS: Client = Client {
    threads: &[&[Load, DropRef], &[CloneRef, DropRef, DropRef]],
    ..ARC_TWO_DROPS
};

/// One writer attempt incrementing keys 0 and 1 ∥ one read-only snapshot
/// of both (the TML's pin client).
pub const TML_WRITER_READER: Client = Client::new(&[
    &[Txn {
        id: 1,
        ops: &[Incr(0), Incr(1)],
    }],
    &[Txn {
        id: 10,
        ops: &[Read(0), Read(1)],
    }],
]);

// ---- the Message-Passing client ------------------------------------------

/// Result of one MP-client execution.
#[derive(Clone, Debug)]
pub struct MpResult {
    /// What the flag-synchronized (right-most) thread dequeued.
    pub right_value: Option<Val>,
    /// What the unsynchronized (middle) thread dequeued.
    pub middle_value: Option<Val>,
    /// The queue's final event graph.
    pub graph: Graph<QueueEvent>,
}

/// Runs [`MP`] once (or, without `release_flag`, [`MP_RELAXED_FLAG`]).
///
/// With the release flag (the paper's client), thread 3 has synchronized
/// with both enqueues, and by QUEUE-EMPDEQ its dequeue cannot return
/// empty — it returns 41 or 42. With a relaxed flag write (the ablation),
/// the external synchronization is gone and an empty dequeue becomes a
/// *consistent* outcome: the guarantee genuinely came from combining the
/// queue's spec with the client's release/acquire transfer.
pub fn run_mp<Q: ModelQueue>(
    make: impl FnOnce(&mut ThreadCtx) -> Q,
    release_flag: bool,
    strategy: Box<dyn Strategy>,
) -> RunOutcome<MpResult> {
    let client = if release_flag { &MP } else { &MP_RELAXED_FLAG };
    run_client_outs(&Config::default(), make, client, strategy).map(|(graph, outs)| MpResult {
        right_value: outs[2],
        middle_value: outs[1],
        graph,
    })
}

/// Checks the MP postcondition on one execution result: queue consistency
/// always, and — for the release-flag client — that the right thread got
/// 41 or 42.
///
/// Returns a description of the failure, if any.
pub fn check_mp(res: &MpResult, release_flag: bool) -> Result<(), String> {
    check_queue_consistent(&res.graph).map_err(|v| format!("queue inconsistent: {v}"))?;
    if release_flag {
        match res.right_value {
            Some(v) if v == Val::Int(41) || v == Val::Int(42) => Ok(()),
            Some(v) => Err(format!("right thread dequeued unexpected {v}")),
            None => Err("right thread observed an empty queue".to_string()),
        }
    } else {
        Ok(())
    }
}

// ---- the SPSC client -------------------------------------------------------

/// Result of one SPSC-client execution.
#[derive(Clone, Debug)]
pub struct SpscResult {
    /// The values the consumer wrote into its array, in order.
    pub consumed: Vec<Val>,
    /// The enqueue/dequeue event ids, for graph assertions.
    pub events: Vec<EventId>,
    /// The final graph.
    pub graph: Graph<QueueEvent>,
}

/// Runs the SPSC client of §3.2 once on a Michael-Scott queue: a producer
/// enqueues `a_p[0..n]` in order, a consumer dequeues `n` elements into
/// `a_c[0..n]` in order. FIFO end-to-end means `a_c == a_p`.
pub fn run_spsc(n: usize, strategy: Box<dyn Strategy>) -> RunOutcome<SpscResult> {
    run_model(
        &Config::default(),
        strategy,
        |ctx| {
            let q = MsQueue::new(ctx);
            // The producer's source array (non-atomic, thread-local use).
            let inits: Vec<Val> = (0..n as i64).map(|i| Val::Int(100 + i)).collect();
            let a_p = ctx.alloc_block("spsc.a_p", &inits);
            // The consumer's destination array.
            let zeros: Vec<Val> = vec![Val::Int(0); n];
            let a_c = ctx.alloc_block("spsc.a_c", &zeros);
            (q, a_p, a_c, n)
        },
        vec![
            Box::new(
                |ctx: &mut ThreadCtx, (q, a_p, _, n): &(MsQueue, Loc, Loc, usize)| {
                    let mut evs = Vec::new();
                    for i in 0..*n {
                        let v = ctx.read(a_p.field(i as u32), Mode::NonAtomic);
                        evs.push(q.enqueue(ctx, v));
                    }
                    evs
                },
            ) as BodyFn<'_, _, Vec<EventId>>,
            Box::new(
                |ctx: &mut ThreadCtx, (q, _, a_c, n): &(MsQueue, Loc, Loc, usize)| {
                    let mut evs = Vec::new();
                    for i in 0..*n {
                        let (v, ev) = q.dequeue_await(ctx);
                        ctx.write(a_c.field(i as u32), v, Mode::NonAtomic);
                        evs.push(ev);
                    }
                    evs
                },
            ),
        ],
        |ctx, (q, _, a_c, n), outs| {
            let consumed: Vec<Val> = (0..*n)
                .map(|i| ctx.read(a_c.field(i as u32), Mode::NonAtomic))
                .collect();
            let mut events = outs[0].clone();
            events.extend(outs[1].iter().copied());
            SpscResult {
                consumed,
                events,
                graph: q.obj().snapshot(),
            }
        },
    )
}

/// Checks the SPSC postcondition: the §3.2 *derived* SPSC spec (general
/// consistency + role discipline ⇒ total index-aligned FIFO), plus the
/// client-visible property that the consumer received exactly
/// `100..100+n` in order.
pub fn check_spsc(res: &SpscResult, n: usize) -> Result<(), String> {
    compass::spsc_spec::derive_spsc(&res.graph).map_err(|v| format!("queue inconsistent: {v}"))?;
    let expected: Vec<Val> = (0..n as i64).map(|i| Val::Int(100 + i)).collect();
    if res.consumed != expected {
        return Err(format!(
            "consumer array {:?} differs from producer array {:?}",
            res.consumed, expected
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buggy::relaxed_ms_queue;
    use crate::queue::HwQueue;
    use orc11::random_strategy;

    #[test]
    fn mp_holds_for_ms_queue() {
        for seed in 0..150 {
            let out = run_mp(MsQueue::new, true, random_strategy(seed));
            let res = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_mp(&res, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn mp_holds_for_hw_queue() {
        for seed in 0..150 {
            let out = run_mp(|ctx| HwQueue::new(ctx, 4), true, random_strategy(seed));
            let res = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_mp(&res, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn mp_ablation_relaxed_flag_allows_empty() {
        // With a relaxed flag write, the queue stays consistent but the
        // right thread can observe empty — the MP guarantee really came
        // from the client's release/acquire synchronization.
        let mut empties = 0;
        for seed in 0..300 {
            let out = run_mp(MsQueue::new, false, random_strategy(seed));
            let res = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_mp(&res, false).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            if res.right_value.is_none() {
                empties += 1;
            }
        }
        assert!(
            empties > 0,
            "relaxed-flag ablation should exhibit empty dequeues"
        );
    }

    #[test]
    fn mp_fails_for_relaxed_ms_queue() {
        // The buggy queue breaks the MP property (or consistency) in some
        // interleaving, even with the release flag.
        let mut failures = 0;
        for seed in 0..300 {
            let out = run_mp(relaxed_ms_queue, true, random_strategy(seed));
            let res = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            if check_mp(&res, true).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "relaxed queue should break the MP client");
    }

    #[test]
    fn spsc_transfers_array_in_order() {
        for seed in 0..100 {
            let out = run_spsc(4, random_strategy(seed));
            let res = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_spsc(&res, 4).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
