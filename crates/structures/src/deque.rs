//! The Chase-Lev work-stealing deque on the model — the paper's §6
//! future work, built on the framework.
//!
//! Follows the C11 formulation of Lê, Pop, Cohen & Zappa Nardelli
//! (PPoPP 2013): the owner pushes and pops at the *bottom*, thieves steal
//! from the *top*; `top` only ever grows and is advanced by CAS; the
//! owner resolves the last-element race with thieves by competing on that
//! same CAS; and **SC fences** order the owner's bottom-decrement against
//! its top-read, and a thief's top-read against its bottom-read — the
//! store-load orderings release/acquire cannot provide.
//!
//! The buffer is bounded and not recycled (indices grow monotonically up
//! to the total number of pushes), which sidesteps resizing without
//! changing the synchronization structure.
//!
//! Commit points:
//! * **push** — the release store of `bottom` (publication);
//! * **pop (plenty)** — the owner's read of the buffer slot;
//! * **pop (last element)** — the owner's winning CAS on `top`
//!   (a losing CAS commits `EmpPop`);
//! * **pop (empty)** — the owner's read of `top`;
//! * **steal** — the thief's winning CAS on `top` (a losing CAS commits
//!   nothing: `FAIL_RACE`);
//! * **empty steal** — the thief's read of `bottom`.
//!
//! [`ChaseLevDeque::new_weak_fences`] replaces the SC fences with
//! acquire-release ones — the famous fence bug: a pop and a steal can
//! both take the same element, which the `DEQUE-INJ` condition catches
//! (see `crate::buggy` tests).

use orc11::sync::Mutex;
use std::collections::HashMap;

use compass::deque_spec::DequeEvent;
use compass::{EventId, LibObj};
use orc11::{FenceMode, Loc, Mode, ThreadCtx, Val};

use crate::check_element;

/// Outcome of a steal attempt.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Steal {
    /// Stole a value, committing the given `Steal` event.
    Stolen(Val, EventId),
    /// Observed the deque as empty, committing an `EmpSteal` event.
    Empty(EventId),
    /// Lost the race on `top`; no event committed.
    Raced,
}

/// A bounded Chase-Lev work-stealing deque on the model (see module
/// docs).
#[derive(Debug)]
pub struct ChaseLevDeque {
    top: Loc,
    bottom: Loc,
    buf: Loc,
    capacity: u32,
    fence: FenceMode,
    obj: LibObj<DequeEvent>,
    /// Ghost map: buffer index → the push event currently occupying it.
    push_events: Mutex<HashMap<i64, EventId>>,
}

impl ChaseLevDeque {
    /// Allocates a deque accepting up to `capacity` pushes in total.
    pub fn new(ctx: &mut ThreadCtx, capacity: u32) -> Self {
        Self::with_fence(ctx, capacity, FenceMode::SeqCst)
    }

    /// The fence-weakened variant (acquire-release instead of SC): unsound
    /// — exhibits the classic double-take bug. For negative testing.
    pub fn new_weak_fences(ctx: &mut ThreadCtx, capacity: u32) -> Self {
        Self::with_fence(ctx, capacity, FenceMode::AcqRel)
    }

    fn with_fence(ctx: &mut ThreadCtx, capacity: u32, fence: FenceMode) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let inits = vec![Val::Null; capacity as usize];
        ChaseLevDeque {
            top: ctx.alloc_atomic("cl.top", Val::Int(0)),
            bottom: ctx.alloc_atomic("cl.bottom", Val::Int(0)),
            buf: ctx.alloc_block_atomic("cl.buf", &inits),
            capacity,
            fence,
            obj: LibObj::new("chase-lev"),
            push_events: Mutex::new(HashMap::new()),
        }
    }

    /// The deque's library object.
    pub fn obj(&self) -> &LibObj<DequeEvent> {
        &self.obj
    }

    fn slot(&self, i: i64) -> Loc {
        assert!(
            (0..self.capacity as i64).contains(&i),
            "ChaseLevDeque capacity {} exceeded (index {i})",
            self.capacity
        );
        self.buf.field(i as u32)
    }

    /// Owner: pushes `v` at the bottom. Commit point: the release store of
    /// `bottom`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is invalid or capacity is exhausted.
    pub fn push(&self, ctx: &mut ThreadCtx, v: Val) -> EventId {
        check_element(v);
        let b = ctx.read(self.bottom, Mode::Relaxed).expect_int();
        ctx.write(self.slot(b), v, Mode::Relaxed);
        ctx.write_with(self.bottom, Val::Int(b + 1), Mode::Release, |gh| {
            let id = self.obj.commit(gh, DequeEvent::Push(v));
            self.push_events.lock().insert(b, id);
            id
        })
    }

    /// Owner: pops from the bottom. Returns the value and event, or the
    /// `EmpPop` event.
    pub fn pop(&self, ctx: &mut ThreadCtx) -> (Option<Val>, EventId) {
        let b = ctx.read(self.bottom, Mode::Relaxed).expect_int() - 1;
        // Release store: thieves that acquire-read any bottom value learn
        // of every push committed so far (Lê et al. get the same effect
        // from the persistent release fences in push; a release store is
        // the direct model-level equivalent). The Compass checker caught
        // DEQUE-SO-LHB violations when this was relaxed.
        ctx.write(self.bottom, Val::Int(b), Mode::Release);
        ctx.fence(self.fence);
        let (t_val, emp) = ctx.read_with(self.top, Mode::Relaxed, |t, gh| {
            (t.expect_int() > b).then(|| self.obj.commit(gh, DequeEvent::EmpPop))
        });
        let t = t_val.expect_int();
        if let Some(ev) = emp {
            // Empty: restore bottom.
            ctx.write(self.bottom, Val::Int(b + 1), Mode::Release);
            return (None, ev);
        }
        if t < b {
            // Plenty: the element is safely ours. Commit at the slot read.
            let source = *self.push_events.lock().get(&b).expect("occupied slot");
            let (v, ev) = ctx.read_with(self.slot(b), Mode::Relaxed, |v, gh| {
                self.obj.commit_matched(gh, DequeEvent::Pop(v), source)
            });
            return (Some(v), ev);
        }
        // t == b: the last element; race thieves on top.
        let v = ctx.read(self.slot(b), Mode::Relaxed);
        let source = *self.push_events.lock().get(&b).expect("occupied slot");
        let (res, ev) = ctx.cas_with(
            self.top,
            Val::Int(t),
            Val::Int(t + 1),
            Mode::AcqRel,
            Mode::Acquire,
            |r, gh| {
                if r.new.is_some() {
                    self.obj.commit_matched(gh, DequeEvent::Pop(v), source)
                } else {
                    self.obj.commit(gh, DequeEvent::EmpPop)
                }
            },
        );
        ctx.write(self.bottom, Val::Int(b + 1), Mode::Release);
        match res {
            Ok(_) => (Some(v), ev),
            Err(_) => (None, ev),
        }
    }

    /// Thief: attempts one steal from the top.
    pub fn steal(&self, ctx: &mut ThreadCtx) -> Steal {
        let t = ctx.read(self.top, Mode::Acquire).expect_int();
        ctx.fence(self.fence);
        let (b_val, emp) = ctx.read_with(self.bottom, Mode::Acquire, |b, gh| {
            (t >= b.expect_int()).then(|| self.obj.commit(gh, DequeEvent::EmpSteal))
        });
        if let Some(ev) = emp {
            return Steal::Empty(ev);
        }
        let _b = b_val.expect_int();
        let v = ctx.read(self.slot(t), Mode::Relaxed);
        let source = *self.push_events.lock().get(&t).expect("occupied slot");
        let (res, ev) = ctx.cas_with(
            self.top,
            Val::Int(t),
            Val::Int(t + 1),
            Mode::AcqRel,
            Mode::Acquire,
            |r, gh| {
                r.new
                    .is_some()
                    .then(|| self.obj.commit_matched(gh, DequeEvent::Steal(v), source))
            },
        );
        match res {
            Ok(_) => Steal::Stolen(v, ev.expect("committed")),
            Err(_) => Steal::Raced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::deque_spec::{check_deque_consistent, DequeInterp};
    use compass::history::{find_linearization, validate_linearization};
    use orc11::{random_strategy, run_model, BodyFn, Config};

    use crate::clients::{run_client, OWNER_THIEVES};

    #[test]
    fn owner_lifo_sequentially() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| ChaseLevDeque::new(ctx, 8),
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, d, _| {
                assert_eq!(d.pop(ctx).0, None);
                d.push(ctx, Val::Int(1));
                d.push(ctx, Val::Int(2));
                assert_eq!(d.pop(ctx).0, Some(Val::Int(2)));
                d.push(ctx, Val::Int(3));
                assert_eq!(d.pop(ctx).0, Some(Val::Int(3)));
                assert_eq!(d.pop(ctx).0, Some(Val::Int(1)));
                assert_eq!(d.pop(ctx).0, None);
                check_deque_consistent(&d.obj().snapshot()).unwrap();
            },
        );
        out.result.unwrap();
    }

    #[test]
    fn steal_takes_oldest() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| ChaseLevDeque::new(ctx, 8),
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, d, _| {
                d.push(ctx, Val::Int(1));
                d.push(ctx, Val::Int(2));
                match d.steal(ctx) {
                    Steal::Stolen(v, _) => assert_eq!(v, Val::Int(1)),
                    other => panic!("{other:?}"),
                }
                assert_eq!(d.pop(ctx).0, Some(Val::Int(2)));
                check_deque_consistent(&d.obj().snapshot()).unwrap();
            },
        );
        out.result.unwrap();
    }

    #[test]
    fn concurrent_owner_and_thieves_consistent() {
        for seed in 0..200 {
            let make = |ctx: &mut ThreadCtx| ChaseLevDeque::new(ctx, 8);
            let out = run_client(
                &Config::default(),
                make,
                &OWNER_THIEVES,
                random_strategy(seed),
            );
            let g = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_deque_consistent(&g).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            // LAT_hist on the mutator subgraph (EmpSteal is advisory and
            // not linearizable against the naive sequential deque).
            let m = compass::deque_spec::mutator_subgraph(&g);
            let to = find_linearization(&m, &DequeInterp, &[])
                .unwrap_or_else(|| panic!("seed {seed}: no linearization\n{m}"));
            validate_linearization(&m, &DequeInterp, &to).unwrap();
        }
    }

    #[test]
    fn weak_fences_produce_double_takes() {
        // The classic Chase-Lev fence bug: without SC fences, a pop and a
        // steal can take the same element. DEQUE-INJ (or MATCHES) catches
        // it in some interleaving.
        // PCT exploration: the double-take needs three ordering
        // constraints, which uniform random scheduling hits only ~0.1%
        // of the time; PCT with depth 3 finds it ~4% of the time.
        let mut violations = 0;
        for seed in 0..600 {
            let make = |ctx: &mut ThreadCtx| ChaseLevDeque::new_weak_fences(ctx, 8);
            let strategy = orc11::pct_strategy(seed, 3, 40);
            let out = run_client(&Config::default(), make, &OWNER_THIEVES, strategy);
            let g = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            if check_deque_consistent(&g).is_err() {
                violations += 1;
            }
        }
        assert!(
            violations > 0,
            "weak fences should exhibit the double-take bug under exploration \
             (it is rare: ~0.1% of random schedules)"
        );
    }
}
