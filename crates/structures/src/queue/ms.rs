//! The Michael-Scott queue, purely release/acquire.
//!
//! This is the implementation the paper verifies against the strong
//! `LAT_hb^abs` specs (§3.2): "a purely release-acquire implementation of
//! the Michael-Scott queue satisfies the `LAT_hb^abs` specs for queues".
//! All atomic reads are acquire, all atomic writes are release, and RMWs
//! are acquire-release, which is enough synchronization to construct the
//! abstract state at the commit points — checkable here as
//! [`compass::abs::replay_commit_order`] succeeding on every execution.
//!
//! Commit points:
//! * **enqueue** — the successful release CAS linking the new node into
//!   `tail.next`;
//! * **dequeue** — the successful acquire-release CAS swinging `head`;
//! * **empty dequeue** — the acquire read of `head.next` that returned
//!   null.

use orc11::sync::Mutex;
use std::collections::HashMap;

use compass::queue_spec::QueueEvent;
use compass::{EventId, LibObj};
use orc11::{Loc, Mode, ThreadCtx, Val};

use super::ModelQueue;
use crate::{alloc, check_element, Rmw};

const VAL: u32 = 0;
const NEXT: u32 = 1;

/// The queue's mode table: the mode of each access site, and the labels
/// of its library object and locations.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MsModes {
    pub(crate) obj: &'static str,
    pub(crate) sentinel: &'static str,
    pub(crate) head: &'static str,
    pub(crate) tail: &'static str,
    pub(crate) node: &'static str,
    pub(crate) enq_tail: Mode, // enqueue: read of `tail`
    pub(crate) enq_next: Mode, // enqueue: read of `tail.next`
    pub(crate) help: Rmw,      // enqueue: CAS helping a lagging `tail`
    pub(crate) link: Rmw,      // enqueue: CAS linking the node (commit)
    pub(crate) swing: Rmw,     // enqueue: CAS swinging `tail` to the node
    pub(crate) deq_head: Mode, // dequeue: read of `head`
    pub(crate) deq_next: Mode, // dequeue: read of `head.next`
    /// Dequeue: read of the node's value. Nodes, the sentinel, `head` and
    /// `tail` are allocated atomic exactly when this mode is atomic.
    pub(crate) val: Mode,
    pub(crate) deq: Rmw, // dequeue: CAS swinging `head` (commit)
}

/// The paper's modes (§3.2): acquire reads, release CASes on the enqueue
/// side, an acquire-release CAS on `head`.
pub(crate) const PAPER: MsModes = MsModes {
    obj: "ms-queue",
    sentinel: "ms.sentinel",
    head: "ms.head",
    tail: "ms.tail",
    node: "ms.node",
    enq_tail: Mode::Acquire,
    enq_next: Mode::Acquire,
    help: Rmw::new(Mode::Release, Mode::Relaxed),
    link: Rmw::new(Mode::Release, Mode::Relaxed),
    swing: Rmw::new(Mode::Release, Mode::Relaxed),
    deq_head: Mode::Acquire,
    deq_next: Mode::Acquire,
    val: Mode::NonAtomic,
    deq: Rmw::new(Mode::AcqRel, Mode::Acquire),
};

/// A Michael-Scott queue on the model (see module docs).
#[derive(Debug)]
pub struct MsQueue {
    head: Loc,
    tail: Loc,
    obj: LibObj<QueueEvent>,
    /// Ghost map: node → the enqueue event that published it.
    enq_events: Mutex<HashMap<Loc, EventId>>,
    m: MsModes,
}

impl MsQueue {
    /// Allocates an empty queue (one sentinel node).
    pub fn new(ctx: &mut ThreadCtx) -> Self {
        Self::with_modes(ctx, PAPER)
    }

    /// [`MsQueue::new`] with the access modes of `m`.
    pub(crate) fn with_modes(ctx: &mut ThreadCtx, m: MsModes) -> Self {
        let atomic = m.val.is_atomic();
        let sentinel = alloc(ctx, atomic, m.sentinel, &[Val::Null, Val::Null]);
        let head = alloc(ctx, atomic, m.head, &[Val::Loc(sentinel)]);
        let tail = alloc(ctx, atomic, m.tail, &[Val::Loc(sentinel)]);
        MsQueue {
            head,
            tail,
            obj: LibObj::new(m.obj),
            enq_events: Mutex::new(HashMap::new()),
            m,
        }
    }

    /// Dequeues, blocking (in model terms) until an element is available.
    ///
    /// Intended for low-contention consumers (e.g. the single consumer of
    /// the SPSC client, §3.2) — under multi-consumer contention prefer
    /// [`ModelQueue::try_dequeue`] in a retry loop.
    pub fn dequeue_await(&self, ctx: &mut ThreadCtx) -> (Val, EventId) {
        let (v, ev) = self.dequeue(ctx, true);
        (v.expect("a blocking dequeue returns an element"), ev)
    }

    /// One dequeue, retrying on contention. With `block` it waits for
    /// `head.next` instead of committing an empty dequeue.
    fn dequeue(&self, ctx: &mut ThreadCtx, block: bool) -> (Option<Val>, EventId) {
        let m = &self.m;
        loop {
            let head = ctx.read(self.head, m.deq_head).expect_loc();
            let next = if block {
                ctx.read_await(head.field(NEXT), m.deq_next, |v| !v.is_null())
            } else {
                // Commit point of the empty case: this read seeing null.
                let (next, emp) = ctx.read_with(head.field(NEXT), m.deq_next, |v, gh| {
                    v.is_null().then(|| self.obj.commit(gh, QueueEvent::EmpDeq))
                });
                if let Some(ev) = emp {
                    return (None, ev);
                }
                next
            };
            let node = next.expect_loc();
            let v = ctx.read(node.field(VAL), m.val);
            let source = self.enq_event_of(node);
            let (res, ev) = ctx.cas_with(
                self.head,
                Val::Loc(head),
                Val::Loc(node),
                m.deq.ok,
                m.deq.fail,
                |r, gh| {
                    r.new
                        .is_some()
                        .then(|| self.obj.commit_matched(gh, QueueEvent::Deq(v), source))
                },
            );
            if res.is_ok() {
                return (Some(v), ev.expect("successful dequeue committed"));
            }
        }
    }

    fn enq_event_of(&self, node: Loc) -> EventId {
        *self
            .enq_events
            .lock()
            .get(&node)
            .expect("published node has a recorded enqueue event")
    }
}

impl ModelQueue for MsQueue {
    fn enqueue(&self, ctx: &mut ThreadCtx, v: Val) -> EventId {
        check_element(v);
        let m = &self.m;
        let node = alloc(ctx, m.val.is_atomic(), m.node, &[v, Val::Null]);
        loop {
            let tail = ctx.read(self.tail, m.enq_tail).expect_loc();
            let next = ctx.read(tail.field(NEXT), m.enq_next);
            if let Some(succ) = next.as_loc() {
                // Tail is lagging: help swing it and retry.
                let _ = ctx.cas(
                    self.tail,
                    Val::Loc(tail),
                    Val::Loc(succ),
                    m.help.ok,
                    m.help.fail,
                );
                continue;
            }
            // Commit point: the CAS linking the node.
            let (res, ev) = ctx.cas_with(
                tail.field(NEXT),
                Val::Null,
                Val::Loc(node),
                m.link.ok,
                m.link.fail,
                |r, gh| {
                    r.new.is_some().then(|| {
                        let id = self.obj.commit(gh, QueueEvent::Enq(v));
                        self.enq_events.lock().insert(node, id);
                        id
                    })
                },
            );
            if res.is_ok() {
                // Swing tail (best effort).
                let _ = ctx.cas(
                    self.tail,
                    Val::Loc(tail),
                    Val::Loc(node),
                    m.swing.ok,
                    m.swing.fail,
                );
                return ev.expect("successful link committed");
            }
        }
    }

    fn try_dequeue(&self, ctx: &mut ThreadCtx) -> (Option<Val>, EventId) {
        self.dequeue(ctx, false)
    }

    fn obj(&self) -> &LibObj<QueueEvent> {
        &self.obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::abs::replay_commit_order;
    use compass::history::QueueInterp;
    use compass::queue_spec::check_queue_consistent;
    use orc11::{random_strategy, run_model, BodyFn, Config};

    use crate::clients::{run_client, PRODUCERS_CONSUMER};

    #[test]
    fn sequential_fifo() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            MsQueue::new,
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, q, _| {
                q.enqueue(ctx, Val::Int(1));
                q.enqueue(ctx, Val::Int(2));
                assert_eq!(q.try_dequeue(ctx).0, Some(Val::Int(1)));
                assert_eq!(q.try_dequeue(ctx).0, Some(Val::Int(2)));
                assert_eq!(q.try_dequeue(ctx).0, None);
                let g = q.obj().snapshot();
                check_queue_consistent(&g).unwrap();
                replay_commit_order(&g, &QueueInterp).unwrap();
                g.len()
            },
        );
        assert_eq!(out.result.unwrap(), 5);
    }

    #[test]
    fn concurrent_producers_consumers_are_consistent() {
        for seed in 0..60 {
            let strategy = random_strategy(seed);
            let out = run_client(
                &Config::default(),
                MsQueue::new,
                &PRODUCERS_CONSUMER,
                strategy,
            );
            let g = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_queue_consistent(&g).expect("QueueConsistent");
            // LAT_hb^abs: the commit order is a linearization.
            replay_commit_order(&g, &QueueInterp).expect("abs replay");
        }
    }

    #[test]
    fn dequeue_await_blocks_until_enqueue() {
        let out = run_model(
            &Config::default(),
            random_strategy(3),
            MsQueue::new,
            vec![
                Box::new(|ctx: &mut ThreadCtx, q: &MsQueue| {
                    q.enqueue(ctx, Val::Int(7));
                    Val::Null
                }) as BodyFn<'_, _, _>,
                Box::new(|ctx: &mut ThreadCtx, q: &MsQueue| q.dequeue_await(ctx).0),
            ],
            |_, q, outs| {
                check_queue_consistent(&q.obj().snapshot()).unwrap();
                outs[1]
            },
        );
        assert_eq!(out.result.unwrap(), Val::Int(7));
    }
}
