//! An Arc-style atomic reference counter on the model, with ghost
//! commit points (Jacobs & Fasse, arXiv:2505.00449).
//!
//! The implementation mirrors `std::sync::Arc`'s protocol with the same
//! access modes, stated once in the Arc's mode table:
//!
//! * `clone` — `fetch_add(strong, 1, Relaxed)`: holding a reference
//!   already keeps the payload alive, no ordering needed;
//! * `drop` — `fetch_sub(strong, 1, Release)`, and the thread that
//!   observes the count hit zero issues an **acquire fence** before
//!   reclaiming the payload. The release decrements form a release
//!   sequence on the counter, so the fence synchronizes the deallocating
//!   thread with *every* other holder's drop — this is precisely the
//!   handoff the [`compass::arc_spec`] clauses `ARC-DEALLOC-HB` and
//!   `ARC-UAF` check, and the handoff the deliberately weakened
//!   [`crate::buggy::relaxed_arc`] omits;
//! * `downgrade`/`drop_weak` — relaxed increment, release decrement on
//!   the weak count (the strong references collectively hold one
//!   implicit weak, released by the final strong drop after the payload
//!   is reclaimed);
//! * `try_upgrade` — a CAS loop on the strong count that fails
//!   permanently once it observes zero.
//!
//! Every counter RMW commits an [`ArcEvent`] carrying the observed old
//! value, so the spec can replay the commit order as a sequential
//! counter history (`ARC-COUNT`).
//!
//! The payload is a **non-atomic** location: reclamation writes it
//! without synchronization beyond the counter protocol, so the model's
//! data-race detector independently cross-checks the fence argument.

use compass::arc_spec::ArcEvent;
use compass::LibObj;
use orc11::{FenceMode, Loc, Mode, ThreadCtx, Val};

use crate::{alloc, Rmw};

/// The Arc's mode table: the mode (or fence) of each access site, and the
/// labels of its library object and locations.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArcModes {
    pub(crate) obj: &'static str,
    pub(crate) strong: &'static str,
    pub(crate) weak: &'static str,
    pub(crate) payload: &'static str,
    pub(crate) clone_ref: Mode, // strong increment (read and write)
    pub(crate) drop_ref: Rmw,
    pub(crate) drop_fence: Option<FenceMode>, // before reclaiming
    /// `load` and the reclaiming write. The payload is allocated atomic
    /// exactly when this mode is atomic.
    pub(crate) access: Mode,
    pub(crate) downgrade: Mode, // weak increment (read and write)
    pub(crate) drop_weak: Rmw,
    pub(crate) drop_weak_fence: Option<FenceMode>, // after the last one
    pub(crate) upgrade_read: Mode,                 // `try_upgrade`: read of the count
    pub(crate) upgrade: Rmw,                       // `try_upgrade`: CAS incrementing it
}

/// `std::sync::Arc`'s modes (see module docs).
pub(crate) const PAPER: ArcModes = ArcModes {
    obj: "arc",
    strong: "arc.strong",
    weak: "arc.weak",
    payload: "arc.payload",
    clone_ref: Mode::Relaxed,
    drop_ref: Rmw::new(Mode::Release, Mode::Relaxed),
    drop_fence: Some(FenceMode::Acquire),
    access: Mode::NonAtomic,
    downgrade: Mode::Relaxed,
    drop_weak: Rmw::new(Mode::Release, Mode::Relaxed),
    drop_weak_fence: Some(FenceMode::Acquire),
    upgrade_read: Mode::Relaxed,
    upgrade: Rmw::new(Mode::Acquire, Mode::Relaxed),
};

/// The model Arc (see module docs).
#[derive(Debug)]
pub struct ModelArc {
    strong: Loc,
    weak: Loc,
    payload: Loc,
    obj: LibObj<ArcEvent>,
    m: ArcModes,
}

impl ModelArc {
    /// Allocates a counter with one strong reference (and the implicit
    /// weak the strong references collectively hold) guarding `payload`.
    pub fn new(ctx: &mut ThreadCtx, payload: Val) -> Self {
        Self::with_modes(ctx, payload, PAPER)
    }

    /// [`ModelArc::new`] with the access modes of `m`.
    pub(crate) fn with_modes(ctx: &mut ThreadCtx, payload: Val, m: ArcModes) -> Self {
        ModelArc {
            strong: ctx.alloc_atomic(m.strong, Val::Int(1)),
            weak: ctx.alloc_atomic(m.weak, Val::Int(1)),
            payload: alloc(ctx, m.access.is_atomic(), m.payload, &[payload]),
            obj: LibObj::new(m.obj),
            m,
        }
    }

    /// The library object (for graph snapshots).
    pub fn obj(&self) -> &LibObj<ArcEvent> {
        &self.obj
    }

    /// Clones a strong reference the caller holds.
    pub fn clone_ref(&self, ctx: &mut ThreadCtx) {
        ctx.fetch_add_with(self.strong, 1, self.m.clone_ref, |r, gh| {
            self.obj.commit(
                gh,
                ArcEvent::Clone {
                    old: r.old.expect_int(),
                },
            )
        });
    }

    /// Reads the payload through a strong reference the caller holds.
    /// Non-atomic: legality is exactly what the counter protocol (and the
    /// race detector) must guarantee.
    pub fn load(&self, ctx: &mut ThreadCtx) -> Val {
        ctx.read(self.payload, self.m.access)
    }

    /// Drops a strong reference the caller holds. The thread whose
    /// decrement hits zero reclaims the payload (after an acquire fence)
    /// and releases the implicit weak. Returns `true` if this call
    /// deallocated the payload.
    pub fn drop_ref(&self, ctx: &mut ThreadCtx) -> bool {
        let (old, _, _) = ctx.update_with(
            self.strong,
            |v| Some(Val::Int(v.expect_int() - 1)),
            self.m.drop_ref.ok,
            self.m.drop_ref.fail,
            |r, gh| {
                let old = r.old.expect_int();
                if old == 1 {
                    self.obj.commit(gh, ArcEvent::DropLast)
                } else {
                    self.obj.commit(gh, ArcEvent::Drop { old })
                }
            },
        );
        if old != Val::Int(1) {
            return false;
        }
        if let Some(f) = self.m.drop_fence {
            ctx.fence(f);
        }
        ctx.write_with(self.payload, Val::Null, self.m.access, |gh| {
            self.obj.commit(gh, ArcEvent::Dealloc)
        });
        self.drop_weak(ctx);
        true
    }

    /// Creates a weak reference (the caller holds a strong or weak one).
    pub fn downgrade(&self, ctx: &mut ThreadCtx) {
        ctx.fetch_add_with(self.weak, 1, self.m.downgrade, |r, gh| {
            self.obj.commit(
                gh,
                ArcEvent::WeakClone {
                    old: r.old.expect_int(),
                },
            )
        });
    }

    /// Drops a weak reference the caller holds.
    pub fn drop_weak(&self, ctx: &mut ThreadCtx) {
        let (old, _, _) = ctx.update_with(
            self.weak,
            |v| Some(Val::Int(v.expect_int() - 1)),
            self.m.drop_weak.ok,
            self.m.drop_weak.fail,
            |r, gh| {
                self.obj.commit(
                    gh,
                    ArcEvent::WeakDrop {
                        old: r.old.expect_int(),
                    },
                )
            },
        );
        if old == Val::Int(1) {
            // Last weak: the control block would be reclaimed here.
            if let Some(f) = self.m.drop_weak_fence {
                ctx.fence(f);
            }
        }
    }

    /// Attempts to upgrade a weak reference the caller holds to a strong
    /// one. Returns `false` once the strong count has hit zero.
    pub fn try_upgrade(&self, ctx: &mut ThreadCtx) -> bool {
        loop {
            let (n, failed) = ctx.read_with(self.strong, self.m.upgrade_read, |v, gh| {
                (v == Val::Int(0)).then(|| self.obj.commit(gh, ArcEvent::UpgradeFail))
            });
            if failed.is_some() {
                return false;
            }
            let old = n.expect_int();
            let (res, _) = ctx.cas_with(
                self.strong,
                n,
                Val::Int(old + 1),
                self.m.upgrade.ok,
                self.m.upgrade.fail,
                |r, gh| {
                    r.new
                        .is_some()
                        .then(|| self.obj.commit(gh, ArcEvent::UpgradeOk { old }))
                },
            );
            if res.is_ok() {
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::arc_spec::{check_arc_consistent, check_arc_consistent_prefixes};
    use orc11::{random_strategy, run_model, BodyFn, Config};

    use crate::clients::{run_client_outs, ARC_CLONE_DROPS};

    #[test]
    fn concurrent_drops_are_consistent_and_race_free() {
        for seed in 0..60 {
            // The client's setup clones: strong = 2, one ref per thread.
            let make = |ctx: &mut ThreadCtx| ModelArc::new(ctx, Val::Int(42));
            let strategy = random_strategy(seed);
            let out = run_client_outs(&Config::default(), make, &ARC_CLONE_DROPS, strategy);
            let (g, outs) = out.result.unwrap();
            assert_eq!(outs[0], Some(Val::Int(42)));
            check_arc_consistent(&g).unwrap();
            check_arc_consistent_prefixes(&g).unwrap();
            // Both strong refs dropped: exactly one DropLast + Dealloc.
            assert_eq!(
                g.iter().filter(|(_, e)| e.ty == ArcEvent::Dealloc).count(),
                1
            );
        }
    }

    #[test]
    fn upgrade_races_final_drop() {
        for seed in 0..60 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| {
                    let a = ModelArc::new(ctx, Val::Int(7));
                    a.downgrade(ctx); // an explicit weak for the upgrader
                    a
                },
                vec![
                    Box::new(|ctx: &mut ThreadCtx, a: &ModelArc| {
                        a.drop_ref(ctx);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, a: &ModelArc| {
                        if a.try_upgrade(ctx) {
                            assert_eq!(a.load(ctx), Val::Int(7));
                            a.drop_ref(ctx);
                        }
                        a.drop_weak(ctx);
                    }),
                ],
                |_, a, _| a.obj().snapshot(),
            );
            let g = out.result.unwrap();
            check_arc_consistent(&g).unwrap();
            check_arc_consistent_prefixes(&g).unwrap();
        }
    }
}
