//! A relaxed Treiber stack.
//!
//! Per §3.3: "push operations use release CASes and successful pop
//! operations use acquire CASes, and thus there are only lhb edges between
//! matching push-pop pairs". This implementation satisfies the
//! `LAT_hb^hist` specs: every execution's graph admits a linearization
//! `to ⊇ lhb`, derivable from the modification order of the CASes on the
//! stack's head — which in this framework *is* the commit order (each
//! commit happens at a head CAS), so the witness is directly checkable.
//!
//! Commit points:
//! * **push** — the successful release CAS installing the node as head;
//! * **pop** — the successful acquire CAS swinging head to the successor;
//! * **empty pop** — the (acquire) read of head that returned null.

use orc11::sync::Mutex;
use std::collections::HashMap;

use compass::stack_spec::StackEvent;
use compass::{EventId, LibObj};
use orc11::{Loc, Mode, ThreadCtx, Val};

use super::{ModelStack, NoStackHook, StackHook, TryPop};
use crate::{alloc, check_element, Rmw};

const VAL: u32 = 0;
const NEXT: u32 = 1;

/// The stack's mode table: the mode of each access site, and the labels
/// of its library object and locations.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TreiberModes {
    pub(crate) obj: &'static str,
    pub(crate) head: &'static str,
    pub(crate) node: &'static str,
    pub(crate) push_head: Mode, // push: read of `head`
    pub(crate) push: Rmw,       // push: CAS installing the node (commit)
    pub(crate) pop_head: Mode,  // pop: read of `head` (empty-pop commit)
    pub(crate) pop: Rmw,        // pop: CAS swinging `head` (commit)
    /// Every access to a node's fields: the push's write of `next`, the
    /// pop's reads of the value and `next`. Nodes and `head` are
    /// allocated atomic exactly when this mode is atomic.
    pub(crate) fields: Mode,
}

/// The paper's modes (§3.3): release push CASes, acquire pop CASes.
pub(crate) const PAPER: TreiberModes = TreiberModes {
    obj: "treiber-stack",
    head: "treiber.head",
    node: "treiber.node",
    push_head: Mode::Relaxed,
    push: Rmw::new(Mode::Release, Mode::Relaxed),
    pop_head: Mode::Acquire,
    pop: Rmw::new(Mode::Acquire, Mode::Relaxed),
    // The node is unpublished when pushed and published by the release
    // CAS when popped: non-atomic accesses are race-free.
    fields: Mode::NonAtomic,
};

/// A Treiber stack on the model (see module docs).
#[derive(Debug)]
pub struct TreiberStack {
    head: Loc,
    obj: LibObj<StackEvent>,
    /// Ghost map: node → the push event that published it.
    push_events: Mutex<HashMap<Loc, EventId>>,
    m: TreiberModes,
}

impl TreiberStack {
    /// Allocates an empty stack.
    pub fn new(ctx: &mut ThreadCtx) -> Self {
        Self::with_modes(ctx, PAPER)
    }

    /// [`TreiberStack::new`] with the access modes of `m`.
    pub(crate) fn with_modes(ctx: &mut ThreadCtx, m: TreiberModes) -> Self {
        let head = alloc(ctx, m.fields.is_atomic(), m.head, &[Val::Null]);
        TreiberStack {
            head,
            obj: LibObj::new(m.obj),
            push_events: Mutex::new(HashMap::new()),
            m,
        }
    }

    /// One push attempt with a client hook at the commit point.
    ///
    /// `node` is reused across retries by [`TreiberStack::push_hooked`];
    /// external callers pass `None` to allocate a fresh node.
    fn try_push_node(
        &self,
        ctx: &mut ThreadCtx,
        v: Val,
        node: Loc,
        hook: &dyn StackHook,
    ) -> Result<EventId, ()> {
        let h = ctx.read(self.head, self.m.push_head);
        ctx.write(node.field(NEXT), h, self.m.fields);
        let (res, ev) = ctx.cas_with(
            self.head,
            h,
            Val::Loc(node),
            self.m.push.ok,
            self.m.push.fail,
            |r, gh| {
                r.new.is_some().then(|| {
                    let id = self.obj.commit(gh, StackEvent::Push(v));
                    self.push_events.lock().insert(node, id);
                    hook.on_push(gh, id, v);
                    id
                })
            },
        );
        res.map(|_| ev.expect("committed")).map_err(|_| ())
    }

    /// Single-attempt push (`try_push'` of §4.1): `Err(())` is
    /// `FAIL_RACE` — no event committed.
    #[allow(clippy::result_unit_err)]
    pub fn try_push_hooked(
        &self,
        ctx: &mut ThreadCtx,
        v: Val,
        hook: &dyn StackHook,
    ) -> Result<EventId, ()> {
        check_element(v);
        let node = alloc(ctx, self.m.fields.is_atomic(), self.m.node, &[v, Val::Null]);
        self.try_push_node(ctx, v, node, hook)
    }

    /// Push, retrying on contention, with a client hook at the commit.
    pub fn push_hooked(&self, ctx: &mut ThreadCtx, v: Val, hook: &dyn StackHook) -> EventId {
        check_element(v);
        let node = alloc(ctx, self.m.fields.is_atomic(), self.m.node, &[v, Val::Null]);
        loop {
            if let Ok(ev) = self.try_push_node(ctx, v, node, hook) {
                return ev;
            }
        }
    }

    /// Single-attempt pop (`try_pop'` of §4.1) with a client hook.
    pub fn try_pop_hooked(&self, ctx: &mut ThreadCtx, hook: &dyn StackHook) -> TryPop {
        // Commit point of the empty case: this read seeing null.
        let (h, emp) = ctx.read_with(self.head, self.m.pop_head, |v, gh| {
            v.is_null().then(|| {
                let id = self.obj.commit(gh, StackEvent::EmpPop);
                hook.on_empty(gh, id);
                id
            })
        });
        if let Some(ev) = emp {
            return TryPop::Empty(ev);
        }
        let node = h.expect_loc();
        // Race-free in the paper's table: the acquire read of head
        // synchronized with the pusher's release CAS, which published the
        // node's fields.
        let v = ctx.read(node.field(VAL), self.m.fields);
        let next = ctx.read(node.field(NEXT), self.m.fields);
        let source = *self
            .push_events
            .lock()
            .get(&node)
            .expect("published node has a push event");
        let pop = self.m.pop;
        let (res, ev) = ctx.cas_with(self.head, h, next, pop.ok, pop.fail, |r, gh| {
            r.new.is_some().then(|| {
                let id = self.obj.commit_matched(gh, StackEvent::Pop(v), source);
                hook.on_pop(gh, id, source, v);
                id
            })
        });
        match res {
            Ok(_) => TryPop::Popped(v, ev.expect("committed")),
            Err(_) => TryPop::Raced,
        }
    }

    /// Pop, retrying on contention, with a client hook.
    pub fn pop_hooked(&self, ctx: &mut ThreadCtx, hook: &dyn StackHook) -> (Option<Val>, EventId) {
        loop {
            match self.try_pop_hooked(ctx, hook) {
                TryPop::Popped(v, ev) => return (Some(v), ev),
                TryPop::Empty(ev) => return (None, ev),
                TryPop::Raced => continue,
            }
        }
    }
}

impl ModelStack for TreiberStack {
    fn push(&self, ctx: &mut ThreadCtx, v: Val) -> EventId {
        self.push_hooked(ctx, v, &NoStackHook)
    }

    fn pop(&self, ctx: &mut ThreadCtx) -> (Option<Val>, EventId) {
        self.pop_hooked(ctx, &NoStackHook)
    }

    fn obj(&self) -> &LibObj<StackEvent> {
        &self.obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::history::{check_linearizable, StackInterp};
    use compass::stack_spec::check_stack_consistent;
    use orc11::{random_strategy, run_model, BodyFn, Config};

    #[test]
    fn sequential_lifo() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            TreiberStack::new,
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, s, _| {
                assert_eq!(s.pop(ctx).0, None);
                s.push(ctx, Val::Int(1));
                s.push(ctx, Val::Int(2));
                assert_eq!(s.pop(ctx).0, Some(Val::Int(2)));
                assert_eq!(s.pop(ctx).0, Some(Val::Int(1)));
                assert_eq!(s.pop(ctx).0, None);
                let g = s.obj().snapshot();
                check_stack_consistent(&g).unwrap();
                check_linearizable(&g, &StackInterp).unwrap();
                g.len()
            },
        );
        assert_eq!(out.result.unwrap(), 6);
    }

    #[test]
    fn concurrent_runs_satisfy_lat_hist() {
        for seed in 0..60 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                TreiberStack::new,
                vec![
                    Box::new(|ctx: &mut ThreadCtx, s: &TreiberStack| {
                        s.push(ctx, Val::Int(10));
                        s.push(ctx, Val::Int(11));
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, s: &TreiberStack| {
                        s.push(ctx, Val::Int(20));
                        s.pop(ctx);
                    }),
                    Box::new(|ctx: &mut ThreadCtx, s: &TreiberStack| {
                        s.pop(ctx);
                        s.pop(ctx);
                    }),
                ],
                |_, s, _| {
                    let g = s.obj().snapshot();
                    check_stack_consistent(&g).expect("StackConsistent");
                    // LAT_hb^hist: a linearization respecting lhb exists.
                    check_linearizable(&g, &StackInterp).expect("linearizable history");
                },
            );
            out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn try_push_fails_only_under_contention() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            TreiberStack::new,
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, s, _| {
                // No contention: single attempts always succeed.
                s.try_push_hooked(ctx, Val::Int(1), &NoStackHook).unwrap();
                match s.try_pop_hooked(ctx, &NoStackHook) {
                    TryPop::Popped(v, _) => assert_eq!(v, Val::Int(1)),
                    other => panic!("expected pop, got {other:?}"),
                }
            },
        );
        out.result.unwrap();
    }
}
