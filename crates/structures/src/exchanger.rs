//! An offer/response exchanger with helping (§4.2).
//!
//! `exchange(x, v)` offers `v` and either returns a partner's value (both
//! threads succeed *together*) or fails (⊥, here `None`). Per the paper,
//! the two commits of a matched pair happen *atomically together* at the
//! **helper**'s commit instruction:
//!
//! * the offering thread (the eventual **helpee**) publishes an offer node
//!   with a release CAS on the slot — *no event yet*;
//! * a matching thread (the **helper**) CASes the offer's response cell;
//!   at that single instruction it commits the helpee's event and then its
//!   own ([`compass::LibObj::commit_pair`]), extending `so` with the
//!   symmetric pair — exactly HB-EXCHANGE's success case;
//! * the helpee later acquire-reads the response and only *learns about*
//!   the completed graph (its local postcondition), without committing
//!   anything.
//!
//! A thread that can neither install an offer nor match one commits a
//! failure event (`Exchange(v, ⊥)`) at a plain read.
//!
//! Synchronization: the offer is published by a release CAS and read by
//! the helper's acquire (failed-install or slot read); the response is
//! written by an acquire-release CAS and acquire-read by the helpee — so
//! the matched threads *synchronize with each other*, supporting resource
//! exchange.

use orc11::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use compass::exchanger_spec::ExchangeEvent;
use compass::{EventId, LibObj};
use orc11::{GhostHandle, Loc, Mode, ThreadCtx, ThreadId, Val};

const VAL: u32 = 0;
const RESP: u32 = 1;

/// Response-cell marker for a withdrawn offer. Offered values must differ
/// from it (and from null).
pub const CANCELLED: Val = Val::Int(i64::MIN + 2);

/// One side of a successful match, as seen by an [`ExchangeHook`].
#[derive(Copy, Clone, Debug)]
pub struct MatchSide {
    /// The thread that offered.
    pub tid: ThreadId,
    /// The value it offered.
    pub give: Val,
}

/// Client hook invoked *inside* the helper's commit instruction, right
/// after the pair of exchange events has been committed.
///
/// This is the executable form of the paper's logically atomic access for
/// clients: the elimination stack (§4.1) uses it to commit its own
/// push/pop pair in the same instruction, so the elimination is atomic.
pub trait ExchangeHook: Sync {
    /// Called once per successful match, by the helper thread.
    fn on_match(
        &self,
        gh: &mut GhostHandle<'_>,
        helpee: MatchSide,
        helper: MatchSide,
        ids: (EventId, EventId),
    ) {
        let _ = (gh, helpee, helper, ids);
    }
}

/// The trivial hook.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoExchangeHook;

impl ExchangeHook for NoExchangeHook {}

/// A single-slot exchanger on the model (see module docs).
#[derive(Debug)]
pub struct Exchanger {
    slot: Loc,
    obj: Arc<LibObj<ExchangeEvent>>,
    /// Ghost map: offer node → offering thread.
    offer_tids: Mutex<HashMap<Loc, ThreadId>>,
    /// Ghost map: offer node → the committed (helpee, helper) event pair,
    /// recorded by the helper for the helpee to retrieve.
    pair_events: Mutex<HashMap<Loc, (EventId, EventId)>>,
}

impl Exchanger {
    /// Allocates an exchanger with an empty slot.
    pub fn new(ctx: &mut ThreadCtx) -> Self {
        Self::with_obj(ctx, Arc::new(LibObj::new("exchanger")))
    }

    /// Allocates an exchanger slot committing into a shared library
    /// object — the building block of [`ExchangerArray`], where all slots
    /// form one logical exchanger with one event graph.
    pub fn with_obj(ctx: &mut ThreadCtx, obj: Arc<LibObj<ExchangeEvent>>) -> Self {
        let slot = ctx.alloc("xchg.slot", Val::Null);
        Exchanger {
            slot,
            obj,
            offer_tids: Mutex::new(HashMap::new()),
            pair_events: Mutex::new(HashMap::new()),
        }
    }

    /// The exchanger's library object.
    pub fn obj(&self) -> &LibObj<ExchangeEvent> {
        &self.obj
    }

    /// Attempts one exchange of `v`, spinning on an installed offer for up
    /// to `patience` reads before withdrawing.
    ///
    /// Returns `(Some(partner_value), event)` on success or
    /// `(None, event)` with a failure event.
    ///
    /// # Panics
    ///
    /// Panics if `v` is null or [`CANCELLED`].
    pub fn exchange(&self, ctx: &mut ThreadCtx, v: Val, patience: u32) -> (Option<Val>, EventId) {
        self.exchange_hooked(ctx, v, patience, &NoExchangeHook)
    }

    /// Like [`Exchanger::exchange`], invoking `hook` inside the helper's
    /// commit instruction of a successful match.
    pub fn exchange_hooked(
        &self,
        ctx: &mut ThreadCtx,
        v: Val,
        patience: u32,
        hook: &dyn ExchangeHook,
    ) -> (Option<Val>, EventId) {
        assert!(!v.is_null(), "cannot offer ⊥");
        assert_ne!(v, CANCELLED, "CANCELLED is reserved");
        let node = ctx.alloc_block("xchg.offer", &[v, Val::Null]);
        self.offer_tids.lock().insert(node, ctx.tid());

        // Try to install our offer.
        let install = ctx.cas(
            self.slot,
            Val::Null,
            Val::Loc(node),
            Mode::Release,
            Mode::Acquire,
        );
        match install {
            Ok(_) => self.await_partner(ctx, node, v, patience),
            Err(cur) => {
                if let Some(offer) = cur.as_loc() {
                    if let Some(result) = self.try_help(ctx, offer, v, hook) {
                        return result;
                    }
                }
                // Could neither install nor match: fail. The commit point
                // is this read of the slot.
                let (_, ev) = ctx.read_with(self.slot, Mode::Acquire, |_, gh| {
                    self.obj.commit(gh, ExchangeEvent { give: v, got: None })
                });
                (None, ev)
            }
        }
    }

    /// The derived *resource exchange* API (§4.2: "we have also used it to
    /// derive a spec that supports resource exchanges"): offers ownership
    /// of the memory at `buf`.
    ///
    /// On success the caller receives the partner's location — and,
    /// because matched exchanges synchronize with each other, the caller
    /// may immediately access the received location **non-atomically**,
    /// race-free (the partner's writes happen-before the exchange). See
    /// `tests/flexibility.rs` for the checked client.
    pub fn exchange_loc(
        &self,
        ctx: &mut ThreadCtx,
        buf: Loc,
        patience: u32,
    ) -> (Option<Loc>, EventId) {
        let (got, ev) = self.exchange(ctx, Val::Loc(buf), patience);
        (got.map(|v| v.expect_loc()), ev)
    }

    /// Offer installed: wait for a partner, withdrawing after `patience`
    /// unsuccessful reads.
    fn await_partner(
        &self,
        ctx: &mut ThreadCtx,
        node: Loc,
        v: Val,
        patience: u32,
    ) -> (Option<Val>, EventId) {
        for _ in 0..patience {
            let r = ctx.read(node.field(RESP), Mode::Acquire);
            if !r.is_null() {
                return self.complete_helpee(ctx, node, r);
            }
        }
        // Withdraw; the successful CAS is the failure commit point.
        let (res, ev) = ctx.cas_with(
            node.field(RESP),
            Val::Null,
            CANCELLED,
            Mode::AcqRel,
            Mode::Acquire,
            |r, gh| {
                r.new
                    .is_some()
                    .then(|| self.obj.commit(gh, ExchangeEvent { give: v, got: None }))
            },
        );
        match res {
            Ok(_) => {
                let _ = ctx.cas(
                    self.slot,
                    Val::Loc(node),
                    Val::Null,
                    Mode::Relaxed,
                    Mode::Relaxed,
                );
                (None, ev.expect("withdrawal committed"))
            }
            // A helper matched us at the last moment (the failed CAS's
            // acquire read synchronized with its commit).
            Err(partner_value) => self.complete_helpee(ctx, node, partner_value),
        }
    }

    /// Helpee completion: both commits were performed by the helper; we
    /// only collect the result and tidy the slot.
    fn complete_helpee(
        &self,
        ctx: &mut ThreadCtx,
        node: Loc,
        partner_value: Val,
    ) -> (Option<Val>, EventId) {
        let _ = ctx.cas(
            self.slot,
            Val::Loc(node),
            Val::Null,
            Mode::Relaxed,
            Mode::Relaxed,
        );
        let (helpee_ev, _helper_ev) = *self
            .pair_events
            .lock()
            .get(&node)
            .expect("matched offer has recorded pair events");
        (Some(partner_value), helpee_ev)
    }

    /// Helper path: try to match an installed offer. `None` means the
    /// offer was gone or already matched.
    fn try_help(
        &self,
        ctx: &mut ThreadCtx,
        offer: Loc,
        v: Val,
        hook: &dyn ExchangeHook,
    ) -> Option<(Option<Val>, EventId)> {
        // The failed install CAS acquire-read the offer's release, so this
        // non-atomic read is race-free.
        let their_v = ctx.read(offer.field(VAL), Mode::NonAtomic);
        let their_tid = *self.offer_tids.lock().get(&offer)?;
        let my_tid = ctx.tid();
        let (res, ev) = ctx.cas_with(
            offer.field(RESP),
            Val::Null,
            v,
            Mode::AcqRel,
            Mode::Acquire,
            |r, gh| {
                r.new.is_some().then(|| {
                    // The helper's commit: helpee's event first, then ours,
                    // with the symmetric so pair — atomically.
                    let (e1, e2) = self.obj.commit_pair(
                        gh,
                        (
                            their_tid,
                            ExchangeEvent {
                                give: their_v,
                                got: Some(v),
                            },
                        ),
                        (
                            my_tid,
                            ExchangeEvent {
                                give: v,
                                got: Some(their_v),
                            },
                        ),
                        &[(0, 1), (1, 0)],
                    );
                    self.pair_events.lock().insert(offer, (e1, e2));
                    hook.on_match(
                        gh,
                        MatchSide {
                            tid: their_tid,
                            give: their_v,
                        },
                        MatchSide {
                            tid: my_tid,
                            give: v,
                        },
                        (e1, e2),
                    );
                    e2
                })
            },
        );
        match res {
            Ok(_) => {
                let _ = ctx.cas(
                    self.slot,
                    Val::Loc(offer),
                    Val::Null,
                    Mode::Relaxed,
                    Mode::Relaxed,
                );
                Some((Some(their_v), ev.expect("helper committed")))
            }
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::exchanger_spec::check_exchanger_consistent;
    use orc11::{random_strategy, run_model, BodyFn, Config};

    use crate::clients::{
        run_client, run_client_outs, Client, Op::Exchange, EXCHANGE_THREE, PATIENT_PAIR,
    };

    #[test]
    fn two_threads_can_exchange() {
        let mut matched = 0u32;
        for seed in 0..80 {
            let strategy = random_strategy(seed);
            let out = run_client_outs(&Config::default(), Exchanger::new, &PATIENT_PAIR, strategy);
            let (g, outs) = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_exchanger_consistent(&g).expect("ExchangerConsistent");
            // Either both matched (crossing values) or both failed.
            if let (Some(a), Some(b)) = (outs[0], outs[1]) {
                assert_eq!(a, Val::Int(2));
                assert_eq!(b, Val::Int(1));
                matched += 1;
            }
        }
        assert!(matched > 0, "some seed should produce a match");
    }

    #[test]
    fn lone_exchanger_fails() {
        const LONE: Client = Client::new(&[&[Exchange(1, 2)]]);
        let out = run_client_outs(
            &Config::default(),
            Exchanger::new,
            &LONE,
            random_strategy(0),
        );
        let (g, outs) = out.result.unwrap();
        assert_eq!(outs[0], None);
        check_exchanger_consistent(&g).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn three_way_contention_stays_consistent() {
        for seed in 0..60 {
            let strategy = random_strategy(seed);
            let out = run_client(
                &Config::default(),
                Exchanger::new,
                &EXCHANGE_THREE,
                strategy,
            );
            let g = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_exchanger_consistent(&g).expect("ExchangerConsistent");
        }
    }

    #[test]
    #[should_panic(expected = "cannot offer")]
    fn null_offer_rejected() {
        let _ = run_model(
            &Config::default(),
            random_strategy(0),
            Exchanger::new,
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, x, _| {
                x.exchange(ctx, Val::Null, 1);
            },
        )
        .result
        .map_err(|e| panic!("{e}"));
    }
}

/// An *elimination array*: `k` exchanger slots forming one logical
/// exchanger with a single shared event graph (§4.1: "an exchanger
/// (which in turn can be implemented as an array of exchangers)").
///
/// Callers are spread across slots by thread id, which reduces contention
/// while preserving `ExchangerConsistent` of the union graph — matched
/// pairs always meet inside one slot, so the helping discipline is
/// unchanged.
#[derive(Debug)]
pub struct ExchangerArray {
    slots: Vec<Exchanger>,
    obj: Arc<LibObj<ExchangeEvent>>,
}

impl ExchangerArray {
    /// Allocates an array of `k` exchanger slots sharing one graph.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(ctx: &mut ThreadCtx, k: usize) -> Self {
        assert!(k > 0, "need at least one slot");
        let obj = Arc::new(LibObj::new("exchanger-array"));
        let slots = (0..k)
            .map(|_| Exchanger::with_obj(ctx, obj.clone()))
            .collect();
        ExchangerArray { slots, obj }
    }

    /// The shared library object (union graph of all slots).
    pub fn obj(&self) -> &LibObj<ExchangeEvent> {
        &self.obj
    }

    /// Attempts one exchange on the caller's slot.
    pub fn exchange(&self, ctx: &mut ThreadCtx, v: Val, patience: u32) -> (Option<Val>, EventId) {
        let slot = ctx.tid() % self.slots.len();
        self.slots[slot].exchange(ctx, v, patience)
    }
}

#[cfg(test)]
mod array_tests {
    use super::*;
    use compass::exchanger_spec::check_exchanger_consistent;
    use orc11::{random_strategy, Config};

    use crate::clients::{run_client_outs, EXCHANGE_FOUR, SAME_SLOT_PAIR};

    #[test]
    fn array_union_graph_is_consistent() {
        let mut matched = 0u64;
        for seed in 0..120 {
            let make = |ctx: &mut ThreadCtx| ExchangerArray::new(ctx, 2);
            let out = run_client_outs(
                &Config::default(),
                make,
                &EXCHANGE_FOUR,
                random_strategy(seed),
            );
            let (g, outs) = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_exchanger_consistent(&g).expect("union ExchangerConsistent");
            matched += outs.iter().filter(|o| o.is_some()).count() as u64;
        }
        assert!(matched > 0, "some seeds should match");
        assert_eq!(matched % 2, 0, "matches come in pairs");
    }

    #[test]
    fn same_slot_threads_can_match() {
        // Threads 1 and 3 hash to the same slot of a 2-slot array.
        let make = |ctx: &mut ThreadCtx| ExchangerArray::new(ctx, 2);
        let out = run_client_outs(
            &Config::default(),
            make,
            &SAME_SLOT_PAIR,
            random_strategy(1),
        );
        let (g, outs) = out.result.unwrap();
        check_exchanger_consistent(&g).unwrap();
        if let (Some(a), Some(b)) = (outs[0], outs[2]) {
            assert_eq!(a, Val::Int(3));
            assert_eq!(b, Val::Int(1));
        }
    }
}
