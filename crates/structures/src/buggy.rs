//! Deliberately weakened implementations — negative tests for the
//! checkers.
//!
//! Each control removes synchronization the paper's proofs rely on, or
//! breaks the algorithm, and a consistency clause catches it. The
//! memory-model controls are not separate structures: each is the paper's
//! structure built from a weaker mode table (a named constant here), so a
//! fix to a structure reaches its control. The counts are from the
//! exhaustive plain-DFS pins in `tests/control_pins.rs`; the two
//! algorithmic bugs are caught by the random-schedule tests below.
//!
//! | Control | Weakening | Caught by |
//! |---|---|---|
//! | [`relaxed_ms_queue`] | every access relaxed | `QUEUE-SO-LHB` on 4 796 of 5 769 MP executions (a dequeue no longer happens-after its enqueue) |
//! | [`relaxed_hw_queue`] | slot-reserving FAA and the dequeuer's tail read relaxed | `QUEUE-FIFO` on 120 of 745 MP executions (a dequeuer can miss an older, externally ordered enqueue) |
//! | [`relaxed_treiber`] | every access relaxed | `STACK-SO-LHB` on 5 493 of 8 046 `(push; pop) ∥ push` executions |
//! | [`relaxed_arc`] | relaxed strong decrement, no acquire fence before reclaiming | `ARC-UAF` on all 6 `clone; (load; drop) ∥ (load; drop)` executions (the deallocator does not happen-after the other holder's drop) |
//! | [`UnvalidatedTml`] | transactional reads skip the version validation | `STM-RO` on 437 of 1 203 writer ∥ reader executions (a doomed reader returns a torn snapshot) |
//! | [`SplitExchanger`] | helper commits the pair in two instructions | `EXCHANGER-ATOMIC-PAIRS` (observable intermediate state) |
//! | [`QueueAsStack`] | delivers in FIFO order (perfectly synchronized!) | `STACK-LIFO` — a pure ordering bug, no memory-model defect at all |

use orc11::sync::Mutex;
use std::collections::HashMap;
use std::ops::Deref;

use compass::exchanger_spec::ExchangeEvent;
use compass::stack_spec::StackEvent;
use compass::{EventId, LibObj};
use orc11::{Loc, Mode, ThreadCtx, Val};

use crate::arc::{self, ArcModes, ModelArc};
use crate::queue::hw::{self, HwModes};
use crate::queue::ms::MsModes;
use crate::queue::{HwQueue, MsQueue};
use crate::stack::treiber::TreiberModes;
use crate::stack::TreiberStack;
use crate::stm::{self, ModelTml, TmlModes, TmlTxn};
use crate::{check_element, Rmw};

const VAL: u32 = 0;
const NEXT: u32 = 1;
const RESP: u32 = 1;

const RLX: Rmw = Rmw::new(Mode::Relaxed, Mode::Relaxed);

const RELAXED_MS_QUEUE: MsModes = MsModes {
    obj: "relaxed-ms-queue",
    sentinel: "rms.sentinel",
    head: "rms.head",
    tail: "rms.tail",
    node: "rms.node",
    enq_tail: Mode::Relaxed,
    enq_next: Mode::Relaxed,
    help: RLX,
    link: RLX,
    swing: RLX,
    deq_head: Mode::Relaxed,
    deq_next: Mode::Relaxed,
    val: Mode::Relaxed,
    deq: RLX,
};

const RELAXED_HW_QUEUE: HwModes = HwModes {
    reserve: Mode::Relaxed,
    scan_tail: Mode::Relaxed,
    ..hw::PAPER
};

const RELAXED_TREIBER: TreiberModes = TreiberModes {
    obj: "relaxed-treiber",
    head: "rtreiber.head",
    node: "rtreiber.node",
    push_head: Mode::Relaxed,
    push: RLX,
    pop_head: Mode::Relaxed,
    pop: RLX,
    fields: Mode::Relaxed,
};

const RELAXED_ARC: ArcModes = ArcModes {
    obj: "relaxed-arc",
    strong: "rarc.strong",
    weak: "rarc.weak",
    payload: "rarc.payload",
    drop_ref: RLX,
    drop_fence: None,
    access: Mode::Relaxed,
    ..arc::PAPER
};

const UNVALIDATED_TML: TmlModes = TmlModes {
    obj: "unvalidated-tml",
    glb: "utml.glb",
    data: "utml.data",
    validate: false,
    ..stm::PAPER
};

/// A Michael-Scott queue with every access relaxed. Its nodes are atomic,
/// so the weakening shows up as spec violations, not data races.
pub fn relaxed_ms_queue(ctx: &mut ThreadCtx) -> MsQueue {
    MsQueue::with_modes(ctx, RELAXED_MS_QUEUE)
}

/// A Herlihy-Wing queue of the given capacity whose slot reservation and
/// tail read are relaxed: a dequeuer's scan range no longer synchronizes
/// with earlier enqueues, so it can skip an older (externally
/// hb-ordered) enqueue's slot.
pub fn relaxed_hw_queue(ctx: &mut ThreadCtx, capacity: u32) -> HwQueue {
    HwQueue::with_modes(ctx, capacity, RELAXED_HW_QUEUE)
}

/// A Treiber stack with every access relaxed (and atomic nodes).
pub fn relaxed_treiber(ctx: &mut ThreadCtx) -> TreiberStack {
    TreiberStack::with_modes(ctx, RELAXED_TREIBER)
}

/// An Arc guarding `payload` whose strong decrement is relaxed and that
/// reclaims without the acquire fence — the classic early-free bug that
/// Jacobs & Fasse's proof obligation on the drop path rules out. The
/// payload is atomic, so the defect surfaces as `ARC-UAF`, not a race.
pub fn relaxed_arc(ctx: &mut ThreadCtx, payload: Val) -> ModelArc {
    ModelArc::with_modes(ctx, payload, RELAXED_ARC)
}

/// A TML whose transactional reads **skip the version validation**: every
/// read takes the validated TML's locked-read path, one acquire read of
/// the key, with no re-read of the global version. A transaction
/// overlapping a writer then returns a torn snapshot. `begin`, `write`
/// and `commit` are the validated TML's (through `Deref`).
#[derive(Debug)]
pub struct UnvalidatedTml(ModelTml);

impl UnvalidatedTml {
    /// Allocates a TM with `n_keys` transactional locations, all `0`.
    pub fn new(ctx: &mut ThreadCtx, n_keys: usize) -> Self {
        UnvalidatedTml(ModelTml::with_modes(ctx, n_keys, UNVALIDATED_TML))
    }

    /// Transactional read. BUG: no validation — the read always
    /// "succeeds", even when a writer has since locked the store.
    pub fn read(&self, ctx: &mut ThreadCtx, txn: &mut TmlTxn, key: usize) -> Val {
        let v = self.0.read(ctx, txn, key);
        v.expect("unvalidated reads cannot abort")
    }
}

impl Deref for UnvalidatedTml {
    type Target = ModelTml;

    fn deref(&self) -> &ModelTml {
        &self.0
    }
}

/// An exchanger whose helper commits the two events of a matched pair in
/// **two separate instructions** — the intermediate state (helpee
/// committed, helper not) is observable, violating the atomic-helping
/// discipline of §4.2.
#[derive(Debug)]
pub struct SplitExchanger {
    slot: Loc,
    obj: LibObj<ExchangeEvent>,
    offer_tids: Mutex<HashMap<Loc, orc11::ThreadId>>,
    pair_events: Mutex<HashMap<Loc, (EventId, EventId)>>,
}

impl SplitExchanger {
    /// Allocates the exchanger.
    pub fn new(ctx: &mut ThreadCtx) -> Self {
        SplitExchanger {
            slot: ctx.alloc_atomic("sxchg.slot", Val::Null),
            obj: LibObj::new("split-exchanger"),
            offer_tids: Mutex::new(HashMap::new()),
            pair_events: Mutex::new(HashMap::new()),
        }
    }

    /// The exchanger's library object.
    pub fn obj(&self) -> &LibObj<ExchangeEvent> {
        &self.obj
    }

    /// Attempts one exchange (same protocol as the correct exchanger, but
    /// with the split commit).
    pub fn exchange(&self, ctx: &mut ThreadCtx, v: Val, patience: u32) -> (Option<Val>, EventId) {
        assert!(!v.is_null(), "cannot offer ⊥");
        let node = ctx.alloc_block_atomic("sxchg.offer", &[v, Val::Null]);
        self.offer_tids.lock().insert(node, ctx.tid());
        let install = ctx.cas(
            self.slot,
            Val::Null,
            Val::Loc(node),
            Mode::Release,
            Mode::Acquire,
        );
        match install {
            Ok(_) => {
                for _ in 0..patience {
                    let r = ctx.read(node.field(RESP), Mode::Acquire);
                    if !r.is_null() {
                        let (e1, _) = self.pair_events.lock()[&node];
                        return (Some(r), e1);
                    }
                }
                let (res, ev) = ctx.cas_with(
                    node.field(RESP),
                    Val::Null,
                    crate::exchanger::CANCELLED,
                    Mode::AcqRel,
                    Mode::Acquire,
                    |r, gh| {
                        r.new
                            .is_some()
                            .then(|| self.obj.commit(gh, ExchangeEvent { give: v, got: None }))
                    },
                );
                match res {
                    Ok(_) => (None, ev.expect("committed")),
                    Err(partner) => {
                        let (e1, _) = self.pair_events.lock()[&node];
                        (Some(partner), e1)
                    }
                }
            }
            Err(cur) => {
                if let Some(offer) = cur.as_loc() {
                    let their_v = ctx.read(offer.field(VAL), Mode::Relaxed);
                    let their_tid = *self.offer_tids.lock().get(&offer).expect("offer");
                    // BUG: first instruction commits only the helpee's
                    // event...
                    let (res, e1) = ctx.cas_with(
                        offer.field(RESP),
                        Val::Null,
                        v,
                        Mode::AcqRel,
                        Mode::Acquire,
                        |r, gh| {
                            r.new.is_some().then(|| {
                                let e1 = self.obj.commit_as(
                                    gh,
                                    their_tid,
                                    ExchangeEvent {
                                        give: their_v,
                                        got: Some(v),
                                    },
                                );
                                // Provisional entry so the helpee can find
                                // its event in the (observable!)
                                // intermediate state.
                                self.pair_events.lock().insert(offer, (e1, e1));
                                e1
                            })
                        },
                    );
                    if res.is_ok() {
                        let e1 = e1.expect("committed");
                        // ...and a second, separate instruction commits the
                        // helper's event and the so edges.
                        let (_, e2) = ctx.read_with(self.slot, Mode::Relaxed, |_, gh| {
                            let e2 = self.obj.commit(
                                gh,
                                ExchangeEvent {
                                    give: v,
                                    got: Some(their_v),
                                },
                            );
                            let mut g = self.obj.graph();
                            g.add_so(e1, e2);
                            g.add_so(e2, e1);
                            e2
                        });
                        self.pair_events.lock().insert(offer, (e1, e2));
                        let _ = ctx.cas(
                            self.slot,
                            Val::Loc(offer),
                            Val::Null,
                            Mode::Relaxed,
                            Mode::Relaxed,
                        );
                        return (Some(their_v), e2);
                    }
                }
                let (_, ev) = ctx.read_with(self.slot, Mode::Acquire, |_, gh| {
                    self.obj.commit(gh, ExchangeEvent { give: v, got: None })
                });
                (None, ev)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::exchanger_spec::check_exchanger_consistent;
    use compass::queue_spec::check_queue_consistent;
    use compass::stack_spec::check_stack_consistent;
    use orc11::{random_strategy, run_model, BodyFn, Config};

    use crate::queue::ModelQueue;
    use crate::stack::ModelStack;

    #[test]
    fn relaxed_ms_queue_violates_so_lhb() {
        let mut rules = std::collections::BTreeSet::new();
        for seed in 0..200 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                relaxed_ms_queue,
                vec![
                    Box::new(|ctx: &mut ThreadCtx, q: &MsQueue| {
                        q.enqueue(ctx, Val::Int(1));
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, q: &MsQueue| {
                        q.try_dequeue(ctx);
                    }),
                ],
                |_, q, _| check_queue_consistent(&q.obj().snapshot()).err(),
            );
            if let Some(v) = out.result.unwrap() {
                rules.insert(v.rule);
            }
        }
        assert!(
            rules.contains("QUEUE-SO-LHB"),
            "expected QUEUE-SO-LHB violations; got {rules:?}"
        );
    }

    #[test]
    fn relaxed_hw_queue_violates_fifo() {
        let mut rules = std::collections::BTreeSet::new();
        for seed in 0..5000 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| {
                    let q = relaxed_hw_queue(ctx, 4);
                    let flag = ctx.alloc("flag", Val::Int(0));
                    (q, flag)
                },
                vec![
                    Box::new(|ctx: &mut ThreadCtx, (q, flag): &(HwQueue, Loc)| {
                        q.enqueue(ctx, Val::Int(10));
                        ctx.write(*flag, Val::Int(1), Mode::Release);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, (q, flag): &(HwQueue, Loc)| {
                        ctx.read_await(*flag, Mode::Acquire, |v| v == Val::Int(1));
                        q.enqueue(ctx, Val::Int(20));
                    }),
                    Box::new(|ctx: &mut ThreadCtx, (q, _): &(HwQueue, Loc)| {
                        q.try_dequeue(ctx);
                    }),
                ],
                |_, (q, _), _| check_queue_consistent(&q.obj().snapshot()).err(),
            );
            if let Some(v) = out.result.unwrap() {
                rules.insert(v.rule);
            }
        }
        assert!(
            rules.contains("QUEUE-FIFO"),
            "expected QUEUE-FIFO violations; got {rules:?}"
        );
    }

    #[test]
    fn strong_hw_queue_passes_same_workload() {
        // Control: the properly synchronized HwQueue on the FIFO workload.
        for seed in 0..400 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| {
                    let q = HwQueue::new(ctx, 4);
                    let flag = ctx.alloc("flag", Val::Int(0));
                    (q, flag)
                },
                vec![
                    Box::new(|ctx: &mut ThreadCtx, (q, flag): &(HwQueue, Loc)| {
                        q.enqueue(ctx, Val::Int(10));
                        ctx.write(*flag, Val::Int(1), Mode::Release);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, (q, flag): &(HwQueue, Loc)| {
                        ctx.read_await(*flag, Mode::Acquire, |v| v == Val::Int(1));
                        q.enqueue(ctx, Val::Int(20));
                    }),
                    Box::new(|ctx: &mut ThreadCtx, (q, _): &(HwQueue, Loc)| {
                        q.try_dequeue(ctx);
                    }),
                ],
                |_, (q, _), _| {
                    check_queue_consistent(&q.obj().snapshot()).expect("QueueConsistent")
                },
            );
            out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn relaxed_treiber_violates_stack_consistency() {
        let mut violations = 0;
        for seed in 0..200 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                relaxed_treiber,
                vec![
                    Box::new(|ctx: &mut ThreadCtx, s: &TreiberStack| {
                        s.push(ctx, Val::Int(1));
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, s: &TreiberStack| {
                        s.pop(ctx);
                    }),
                ],
                |_, s, _| check_stack_consistent(&s.obj().snapshot()).err(),
            );
            if out.result.unwrap().is_some() {
                violations += 1;
            }
        }
        assert!(violations > 0, "expected stack consistency violations");
    }

    #[test]
    fn split_exchanger_violates_atomic_pairs() {
        let mut rules = std::collections::BTreeSet::new();
        for seed in 0..200 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                SplitExchanger::new,
                vec![
                    Box::new(|ctx: &mut ThreadCtx, x: &SplitExchanger| {
                        x.exchange(ctx, Val::Int(1), 3);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, x: &SplitExchanger| {
                        x.exchange(ctx, Val::Int(2), 3);
                    }),
                ],
                |_, x, _| check_exchanger_consistent(&x.obj().snapshot()).err(),
            );
            if let Some(v) = out.result.unwrap() {
                rules.insert(v.rule);
            }
        }
        assert!(
            rules.contains("EXCHANGER-ATOMIC-PAIRS"),
            "expected EXCHANGER-ATOMIC-PAIRS violations; got {rules:?}"
        );
    }
}

/// A "stack" that delivers elements in FIFO order (it is a queue wearing a
/// stack's event vocabulary) — the order bug `STACK-LIFO` exists to catch.
///
/// Internally a lock-protected linked queue; perfectly synchronized, so
/// the *only* defect is the ordering semantics.
#[derive(Debug)]
pub struct QueueAsStack {
    lock: crate::lock::SpinLock,
    head: Loc,
    tail: Loc,
    obj: LibObj<StackEvent>,
    push_events: Mutex<HashMap<Loc, EventId>>,
}

impl QueueAsStack {
    /// Allocates the impostor.
    pub fn new(ctx: &mut ThreadCtx) -> Self {
        let sentinel = ctx.alloc_block("qas.sentinel", &[Val::Null, Val::Null]);
        QueueAsStack {
            lock: crate::lock::SpinLock::new(ctx),
            head: ctx.alloc("qas.head", Val::Loc(sentinel)),
            tail: ctx.alloc("qas.tail", Val::Loc(sentinel)),
            obj: LibObj::new("queue-as-stack"),
            push_events: Mutex::new(HashMap::new()),
        }
    }

    /// The object's graph.
    pub fn obj(&self) -> &LibObj<StackEvent> {
        &self.obj
    }

    /// "Pushes" (enqueues) `v`, committing a `Push` event.
    pub fn push(&self, ctx: &mut ThreadCtx, v: Val) -> EventId {
        check_element(v);
        self.lock.with(ctx, |ctx| {
            let node = ctx.alloc_block("qas.node", &[v, Val::Null]);
            let tail = ctx.read(self.tail, Mode::NonAtomic).expect_loc();
            let ev = ctx.write_with(tail.field(NEXT), Val::Loc(node), Mode::NonAtomic, |gh| {
                let id = self.obj.commit(gh, StackEvent::Push(v));
                self.push_events.lock().insert(node, id);
                id
            });
            ctx.write(self.tail, Val::Loc(node), Mode::NonAtomic);
            ev
        })
    }

    /// "Pops" — but from the WRONG end (dequeues), committing a `Pop`.
    pub fn pop(&self, ctx: &mut ThreadCtx) -> (Option<Val>, EventId) {
        self.lock.with(ctx, |ctx| {
            let head = ctx.read(self.head, Mode::NonAtomic).expect_loc();
            let (next, emp) = ctx.read_with(head.field(NEXT), Mode::NonAtomic, |v, gh| {
                v.is_null().then(|| self.obj.commit(gh, StackEvent::EmpPop))
            });
            if let Some(ev) = emp {
                return (None, ev);
            }
            let node = next.expect_loc();
            let v = ctx.read(node.field(VAL), Mode::NonAtomic);
            let source = *self.push_events.lock().get(&node).expect("linked node");
            let ev = ctx.write_with(self.head, Val::Loc(node), Mode::NonAtomic, |gh| {
                self.obj.commit_matched(gh, StackEvent::Pop(v), source)
            });
            (Some(v), ev)
        })
    }
}

#[cfg(test)]
mod refcount_stm_tests {
    use super::*;
    use compass::arc_spec::check_arc_consistent;
    use compass::stm_spec::check_stm_consistent;
    use orc11::{random_strategy, run_model, BodyFn, Config};

    #[test]
    fn relaxed_arc_violates_uaf() {
        let mut rules = std::collections::BTreeSet::new();
        for seed in 0..60 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| {
                    let a = relaxed_arc(ctx, Val::Int(42));
                    a.clone_ref(ctx);
                    a
                },
                vec![
                    Box::new(|ctx: &mut ThreadCtx, a: &ModelArc| {
                        a.load(ctx);
                        a.drop_ref(ctx);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, a: &ModelArc| {
                        a.load(ctx);
                        a.drop_ref(ctx);
                    }),
                ],
                |_, a, _| check_arc_consistent(&a.obj().snapshot()).err(),
            );
            let v = out
                .result
                .unwrap()
                .expect("every two-thread drop race lacks the hb edge");
            rules.insert(v.rule);
        }
        assert_eq!(
            rules,
            std::collections::BTreeSet::from(["ARC-UAF"]),
            "expected only ARC-UAF"
        );
    }

    #[test]
    fn unvalidated_tml_violates_opacity() {
        let mut rules = std::collections::BTreeSet::new();
        for seed in 0..300 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| UnvalidatedTml::new(ctx, 2),
                vec![
                    Box::new(|ctx: &mut ThreadCtx, tm: &UnvalidatedTml| {
                        let mut txn = tm.begin(ctx, 1);
                        let a = tm.read(ctx, &mut txn, 0).expect_int();
                        if tm.write(ctx, &mut txn, 0, Val::Int(a + 1)).is_ok() {
                            let b = tm.read(ctx, &mut txn, 1).expect_int();
                            tm.write(ctx, &mut txn, 1, Val::Int(b + 1)).unwrap();
                            tm.commit(ctx, txn);
                        }
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, tm: &UnvalidatedTml| {
                        let mut txn = tm.begin(ctx, 10);
                        tm.read(ctx, &mut txn, 0);
                        tm.read(ctx, &mut txn, 1);
                        tm.commit(ctx, txn);
                    }),
                ],
                |_, tm, _| check_stm_consistent(&tm.obj().snapshot()).err(),
            );
            if let Some(v) = out.result.unwrap() {
                rules.insert(v.rule);
            }
        }
        assert!(
            rules.contains("STM-RO"),
            "expected torn read-only snapshots (STM-RO); got {rules:?}"
        );
    }
}

#[cfg(test)]
mod order_tests {
    use super::*;
    use compass::history::{check_linearizable, StackInterp};
    use compass::stack_spec::check_stack_consistent;
    use orc11::{random_strategy, run_model, BodyFn, Config};

    #[test]
    fn queue_as_stack_violates_lifo() {
        // One thread pushes 1, 2 and pops — a real stack returns 2; the
        // impostor returns 1 and STACK-LIFO fires on every execution of
        // this shape (the lock makes everything lhb-ordered, so the
        // violation is deterministic).
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            QueueAsStack::new,
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, s, _| {
                s.push(ctx, Val::Int(1));
                s.push(ctx, Val::Int(2));
                let (v, _) = s.pop(ctx);
                assert_eq!(v, Some(Val::Int(1)), "it really is a queue");
                s.obj().snapshot()
            },
        );
        let g = out.result.unwrap();
        assert_eq!(check_stack_consistent(&g).unwrap_err().rule, "STACK-LIFO");
        assert!(check_linearizable(&g, &StackInterp).is_err());
    }

    #[test]
    fn queue_as_stack_violates_lifo_concurrently() {
        let mut violations = 0;
        for seed in 0..60 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                QueueAsStack::new,
                vec![
                    Box::new(|ctx: &mut ThreadCtx, s: &QueueAsStack| {
                        s.push(ctx, Val::Int(1));
                        s.push(ctx, Val::Int(2));
                        s.pop(ctx);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, s: &QueueAsStack| {
                        s.pop(ctx);
                    }),
                ],
                |_, s, _| s.obj().snapshot(),
            );
            let g = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            if check_stack_consistent(&g).is_err() {
                violations += 1;
            }
        }
        assert!(violations > 0, "LIFO violations should appear");
    }
}
