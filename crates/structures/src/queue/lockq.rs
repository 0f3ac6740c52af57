//! A coarse-grained, lock-based queue — the sequential-specs reference
//! point (§2.1) and the E2 control row.
//!
//! Everything inside the critical section is **non-atomic**: the
//! spinlock's release/acquire handoff transfers the views (and logical
//! views) between operations, which is exactly why the implementation is
//! race-free and trivially satisfies every spec style, including
//! `LAT_hb^abs` — at the cost of all concurrency.

use orc11::sync::Mutex;
use std::collections::HashMap;

use compass::queue_spec::QueueEvent;
use compass::{EventId, LibObj};
use orc11::{Loc, Mode, ThreadCtx, Val};

use super::ModelQueue;
use crate::check_element;
use crate::lock::SpinLock;

const VAL: u32 = 0;
const NEXT: u32 = 1;

/// The labels and events of a [`LockList`].
#[derive(Debug)]
pub(crate) struct ListKind<E> {
    pub(crate) obj: &'static str,
    pub(crate) sentinel: &'static str,
    pub(crate) head: &'static str,
    pub(crate) tail: &'static str,
    pub(crate) node: &'static str,
    /// The event of appending `v` at the tail.
    pub(crate) put: fn(Val) -> E,
    /// The event of taking `v` from the head.
    pub(crate) take: fn(Val) -> E,
    /// The event of finding the list empty.
    pub(crate) empty: E,
}

/// A lock-protected linked list, appended at the tail and taken from the
/// head: the lock queue, and (in [`crate::buggy`]) the same list under
/// stack event names.
#[derive(Debug)]
pub(crate) struct LockList<E: 'static> {
    lock: SpinLock,
    head: Loc,
    tail: Loc,
    obj: LibObj<E>,
    kind: &'static ListKind<E>,
    put_events: Mutex<HashMap<Loc, EventId>>,
}

impl<E: Copy> LockList<E> {
    /// Allocates an empty list.
    pub(crate) fn new(ctx: &mut ThreadCtx, kind: &'static ListKind<E>) -> Self {
        let sentinel = ctx.alloc_block(kind.sentinel, &[Val::Null, Val::Null]);
        LockList {
            lock: SpinLock::new(ctx),
            head: ctx.alloc(kind.head, Val::Loc(sentinel)),
            tail: ctx.alloc(kind.tail, Val::Loc(sentinel)),
            obj: LibObj::new(kind.obj),
            kind,
            put_events: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn obj(&self) -> &LibObj<E> {
        &self.obj
    }

    /// Appends `v`, committing a `put` event.
    pub(crate) fn put(&self, ctx: &mut ThreadCtx, v: Val) -> EventId {
        check_element(v);
        self.lock.with(ctx, |ctx| {
            let node = ctx.alloc_block(self.kind.node, &[v, Val::Null]);
            let tail = ctx.read(self.tail, Mode::NonAtomic).expect_loc();
            // Commit point: linking the node (non-atomic — we hold the
            // lock).
            let ev = ctx.write_with(tail.field(NEXT), Val::Loc(node), Mode::NonAtomic, |gh| {
                let id = self.obj.commit(gh, (self.kind.put)(v));
                self.put_events.lock().insert(node, id);
                id
            });
            ctx.write(self.tail, Val::Loc(node), Mode::NonAtomic);
            ev
        })
    }

    /// Takes the head element, committing a `take` event, or an `empty`
    /// one.
    pub(crate) fn take(&self, ctx: &mut ThreadCtx) -> (Option<Val>, EventId) {
        self.lock.with(ctx, |ctx| {
            let head = ctx.read(self.head, Mode::NonAtomic).expect_loc();
            let (next, emp) = ctx.read_with(head.field(NEXT), Mode::NonAtomic, |v, gh| {
                v.is_null().then(|| self.obj.commit(gh, self.kind.empty))
            });
            if let Some(ev) = emp {
                return (None, ev);
            }
            let node = next.expect_loc();
            let v = ctx.read(node.field(VAL), Mode::NonAtomic);
            let source = *self.put_events.lock().get(&node).expect("linked node");
            let ev = ctx.write_with(self.head, Val::Loc(node), Mode::NonAtomic, |gh| {
                self.obj.commit_matched(gh, (self.kind.take)(v), source)
            });
            (Some(v), ev)
        })
    }
}

const LOCK_QUEUE: ListKind<QueueEvent> = ListKind {
    obj: "lock-queue",
    sentinel: "lq.sentinel",
    head: "lq.head",
    tail: "lq.tail",
    node: "lq.node",
    put: QueueEvent::Enq,
    take: QueueEvent::Deq,
    empty: QueueEvent::EmpDeq,
};

/// A lock-protected linked queue on the model (see module docs).
#[derive(Debug)]
pub struct LockQueue(LockList<QueueEvent>);

impl LockQueue {
    /// Allocates an empty queue.
    pub fn new(ctx: &mut ThreadCtx) -> Self {
        LockQueue(LockList::new(ctx, &LOCK_QUEUE))
    }
}

impl ModelQueue for LockQueue {
    fn enqueue(&self, ctx: &mut ThreadCtx, v: Val) -> EventId {
        self.0.put(ctx, v)
    }

    fn try_dequeue(&self, ctx: &mut ThreadCtx) -> (Option<Val>, EventId) {
        self.0.take(ctx)
    }

    fn obj(&self) -> &LibObj<QueueEvent> {
        self.0.obj()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::abs::replay_commit_order;
    use compass::history::QueueInterp;
    use compass::queue_spec::{check_queue_consistent, check_queue_consistent_prefixes};
    use orc11::{random_strategy, run_model, BodyFn, Config};

    use crate::clients::{run_client, LOCK_QUEUE_MIXED};

    #[test]
    fn sequential_fifo() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            LockQueue::new,
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, q, _| {
                q.enqueue(ctx, Val::Int(1));
                q.enqueue(ctx, Val::Int(2));
                assert_eq!(q.try_dequeue(ctx).0, Some(Val::Int(1)));
                assert_eq!(q.try_dequeue(ctx).0, Some(Val::Int(2)));
                assert_eq!(q.try_dequeue(ctx).0, None);
                check_queue_consistent(&q.obj().snapshot()).unwrap();
            },
        );
        out.result.unwrap();
    }

    #[test]
    fn concurrent_use_is_race_free_and_strongly_consistent() {
        // Non-atomic internals, yet no data races: the lock transfers the
        // views. And the commit order is always a sequential history
        // (trivially: operations are mutually exclusive) — even the empty
        // dequeues are truly empty at their commit points.
        for seed in 0..80 {
            let strategy = random_strategy(seed);
            let out = run_client(
                &Config::default(),
                LockQueue::new,
                &LOCK_QUEUE_MIXED,
                strategy,
            );
            let g = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_queue_consistent_prefixes(&g).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            replay_commit_order(&g, &QueueInterp).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            // Under mutual exclusion, even the SC-strong empty condition
            // holds: replay WITH EmpDeq events enabled.
            let mut st = std::collections::VecDeque::new();
            for (_, ev) in g.iter() {
                match ev.ty {
                    QueueEvent::Enq(v) => st.push_back(v),
                    QueueEvent::Deq(v) => assert_eq!(st.pop_front(), Some(v)),
                    QueueEvent::EmpDeq => assert!(st.is_empty(), "seed {seed}"),
                }
            }
        }
    }
}
