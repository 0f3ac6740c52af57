//! The elimination stack (§4.1): a base stack composed with an exchanger,
//! with **no new atomic instructions**.
//!
//! `try_push` first tries the base stack's single-attempt push; on
//! `FAIL_RACE` it offers its value on the exchanger and succeeds if
//! matched with a pop offer ([`SENTINEL`](crate::SENTINEL)). `try_pop` is
//! symmetric. The interesting part is compositional event construction:
//!
//! * a base-stack push/pop/empty-pop commit also commits the corresponding
//!   elimination-stack event *in the same instruction*, via the base
//!   stack's [`StackHook`];
//! * a successful elimination commits an ES `Push(v)` and ES `Pop(v)`
//!   *atomically together* at the exchanger helper's commit, via the
//!   exchanger's [`ExchangeHook`] — the atomicity the paper identifies as
//!   crucial for re-establishing LIFO (no concurrent operation can observe
//!   the pushed-but-not-yet-popped intermediate state).
//!
//! The implementation uses only the public hooked APIs of the two
//! sub-libraries — the composition is modular, mirroring the paper's proof
//! that relies solely on the sub-libraries' Compass specs.

use orc11::sync::Mutex;
use std::collections::HashMap;

use compass::stack_spec::StackEvent;
use compass::{EventId, LibObj};
use orc11::{GhostHandle, ThreadCtx, Val};

use super::{ModelStack, StackHook, TreiberStack, TryPop};
use crate::exchanger::{ExchangeHook, Exchanger, MatchSide};
use crate::{check_element, SENTINEL};

/// The elimination stack on the model (see module docs).
#[derive(Debug)]
pub struct ElimStack {
    base: TreiberStack,
    ex: Exchanger,
    obj: LibObj<StackEvent>,
    /// How long an elimination offer waits for a partner.
    patience: u32,
    /// Ghost map: base-stack event → elimination-stack event.
    from_base: Mutex<HashMap<EventId, EventId>>,
    /// Ghost map: exchange event → elimination-stack event (for
    /// eliminated pairs).
    from_exchange: Mutex<HashMap<EventId, EventId>>,
}

/// Hook translating base-stack commits into ES commits.
struct BaseHook<'a>(&'a ElimStack);

impl std::fmt::Debug for BaseHook<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BaseHook")
    }
}

impl StackHook for BaseHook<'_> {
    fn on_push(&self, gh: &mut GhostHandle<'_>, base: EventId, v: Val) {
        let es = self.0.obj.commit(gh, StackEvent::Push(v));
        self.0.from_base.lock().insert(base, es);
    }

    fn on_pop(&self, gh: &mut GhostHandle<'_>, base: EventId, base_push: EventId, v: Val) {
        let es_push = *self
            .0
            .from_base
            .lock()
            .get(&base_push)
            .expect("base push has an ES event");
        let es = self.0.obj.commit_matched(gh, StackEvent::Pop(v), es_push);
        self.0.from_base.lock().insert(base, es);
    }

    fn on_empty(&self, gh: &mut GhostHandle<'_>, base: EventId) {
        let es = self.0.obj.commit(gh, StackEvent::EmpPop);
        self.0.from_base.lock().insert(base, es);
    }
}

/// Hook translating a successful elimination into an atomic ES push/pop
/// pair.
struct ElimHook<'a>(&'a ElimStack);

impl ExchangeHook for ElimHook<'_> {
    fn on_match(
        &self,
        gh: &mut GhostHandle<'_>,
        helpee: MatchSide,
        helper: MatchSide,
        ids: (EventId, EventId),
    ) {
        // Exactly one side must be a pop offer (SENTINEL); a push/push or
        // pop/pop match is not an elimination and commits nothing.
        let (pusher, popper, push_xid, pop_xid) =
            match (helpee.give == SENTINEL, helper.give == SENTINEL) {
                (false, true) => (helpee, helper, ids.0, ids.1),
                (true, false) => (helper, helpee, ids.1, ids.0),
                _ => return,
            };
        let v = pusher.give;
        let (es_push, es_pop) = self.0.obj.commit_pair(
            gh,
            (pusher.tid, StackEvent::Push(v)),
            (popper.tid, StackEvent::Pop(v)),
            &[(0, 1)],
        );
        let mut m = self.0.from_exchange.lock();
        m.insert(push_xid, es_push);
        m.insert(pop_xid, es_pop);
    }
}

impl ElimStack {
    /// Allocates an elimination stack; `patience` bounds how long an
    /// elimination offer waits.
    pub fn new(ctx: &mut ThreadCtx, patience: u32) -> Self {
        ElimStack {
            base: TreiberStack::new(ctx),
            ex: Exchanger::new(ctx),
            obj: LibObj::new("elim-stack"),
            patience,
            from_base: Mutex::new(HashMap::new()),
            from_exchange: Mutex::new(HashMap::new()),
        }
    }

    /// The base stack's library object (for checking the sub-library's own
    /// consistency).
    pub fn base_obj(&self) -> &LibObj<StackEvent> {
        self.base.obj()
    }

    /// The exchanger's library object.
    pub fn exchanger_obj(&self) -> &LibObj<compass::exchanger_spec::ExchangeEvent> {
        self.ex.obj()
    }

    /// `try_push(s, v)` of §4.1: base push first, elimination on
    /// contention. `None` is `FAIL_RACE` (no event committed).
    pub fn try_push(&self, ctx: &mut ThreadCtx, v: Val) -> Option<EventId> {
        check_element(v);
        if let Ok(base_ev) = self.base.try_push_hooked(ctx, v, &BaseHook(self)) {
            return Some(self.es_event_of_base(base_ev));
        }
        let (got, xid) = self
            .ex
            .exchange_hooked(ctx, v, self.patience, &ElimHook(self));
        match got {
            Some(g) if g == SENTINEL => Some(
                *self
                    .from_exchange
                    .lock()
                    .get(&xid)
                    .expect("eliminated push has an ES event"),
            ),
            _ => None,
        }
    }

    /// `try_pop(s)` of §4.1: base pop first, elimination on contention.
    pub fn try_pop(&self, ctx: &mut ThreadCtx) -> TryPop {
        match self.base.try_pop_hooked(ctx, &BaseHook(self)) {
            TryPop::Popped(v, base_ev) => TryPop::Popped(v, self.es_event_of_base(base_ev)),
            TryPop::Empty(base_ev) => TryPop::Empty(self.es_event_of_base(base_ev)),
            TryPop::Raced => {
                let (got, xid) =
                    self.ex
                        .exchange_hooked(ctx, SENTINEL, self.patience, &ElimHook(self));
                match got {
                    Some(v) if v != SENTINEL => TryPop::Popped(
                        v,
                        *self
                            .from_exchange
                            .lock()
                            .get(&xid)
                            .expect("eliminated pop has an ES event"),
                    ),
                    _ => TryPop::Raced,
                }
            }
        }
    }

    fn es_event_of_base(&self, base: EventId) -> EventId {
        *self
            .from_base
            .lock()
            .get(&base)
            .expect("hooked base commit recorded an ES event")
    }
}

impl ModelStack for ElimStack {
    fn push(&self, ctx: &mut ThreadCtx, v: Val) -> EventId {
        loop {
            if let Some(ev) = self.try_push(ctx, v) {
                return ev;
            }
        }
    }

    fn pop(&self, ctx: &mut ThreadCtx) -> (Option<Val>, EventId) {
        loop {
            match self.try_pop(ctx) {
                TryPop::Popped(v, ev) => return (Some(v), ev),
                TryPop::Empty(ev) => return (None, ev),
                TryPop::Raced => continue,
            }
        }
    }

    fn obj(&self) -> &LibObj<StackEvent> {
        &self.obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::exchanger_spec::check_exchanger_consistent;
    use compass::exchanger_spec::ExchangeEvent;
    use compass::history::{check_linearizable, StackInterp};
    use compass::stack_spec::check_stack_consistent;
    use compass::Graph;
    use orc11::{random_strategy, run_model, BodyFn, Config};

    use crate::clients::{run_client, Object, ELIM_MIXED};

    fn check_all((es, base, ex): &(Graph<StackEvent>, Graph<StackEvent>, Graph<ExchangeEvent>)) {
        check_stack_consistent(es).expect("ES StackConsistent");
        check_linearizable(es, &StackInterp).expect("ES linearizable");
        check_stack_consistent(base).expect("base StackConsistent");
        check_exchanger_consistent(ex).expect("ExchangerConsistent");
    }

    #[test]
    fn sequential_lifo() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| ElimStack::new(ctx, 2),
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, s, _| {
                s.push(ctx, Val::Int(1));
                s.push(ctx, Val::Int(2));
                assert_eq!(s.pop(ctx).0, Some(Val::Int(2)));
                assert_eq!(s.pop(ctx).0, Some(Val::Int(1)));
                assert_eq!(s.pop(ctx).0, None);
                check_all(&s.graph());
            },
        );
        out.result.unwrap();
    }

    #[test]
    fn concurrent_push_pop_consistent() {
        let mut eliminations = 0u64;
        for seed in 0..120 {
            let make = |ctx: &mut ThreadCtx| ElimStack::new(ctx, 3);
            let out = run_client(&Config::default(), make, &ELIM_MIXED, random_strategy(seed));
            let graphs = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_all(&graphs);
            // Count eliminated pairs: ES events not born from base (every
            // base event is born with one ES event).
            let (es, base, _) = graphs;
            eliminations += (es.len() - base.len()) as u64;
        }
        assert!(
            eliminations > 0,
            "some seed should exercise the elimination path"
        );
    }
}
