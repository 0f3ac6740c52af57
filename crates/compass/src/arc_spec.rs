//! Refcount consistency for an Arc-style atomic reference counter.
//!
//! The event vocabulary and clauses follow the modular-verification
//! treatment of Rust's `Arc` under a C20-style memory model (Jacobs &
//! Fasse, arXiv:2505.00449): the counter's RMWs are the observations, so
//! every event carries the count value its increment/decrement *observed*
//! (`fetch_add` returns the old value). Three clauses make up the spec:
//!
//! * `ARC-COUNT` — the commit order replays as a sequential counter
//!   history: each observed old value equals the running count, clones
//!   require a live count, the final drop observes exactly 1, upgrades
//!   linearize against the strong count (`UpgradeOk` observes a live
//!   count, `UpgradeFail` observes 0), and the payload is reclaimed at
//!   most once, only after the count hit zero. Sound on model graphs
//!   because the commit order is the executed interleaving, which is
//!   consistent with each counter's modification order.
//! * `ARC-DEALLOC-HB` — drop-to-zero happens-before dealloc: the
//!   [`ArcEvent::DropLast`] event is in the [`ArcEvent::Dealloc`] event's
//!   logical view.
//! * `ARC-UAF` — no use-after-free of the payload: every strong-reference
//!   event (`Clone`, `Drop`, `DropLast`, `UpgradeOk`) happens-before the
//!   `Dealloc`. A holder's payload accesses are bounded by its `Drop`
//!   (program order), so `Drop ∈ Dealloc.logview` certifies the holder's
//!   accesses happened-before the free. This is the clause the
//!   relaxed-decrement control violates: without the release decrement +
//!   acquire fence handoff, the deallocating thread's view misses the
//!   other holders' drops.

use std::fmt;

use crate::event::EventId;
use crate::graph::Graph;
use crate::history::SeqInterp;
use crate::spec::{SpecResult, Violation};

/// Arc events. `old` fields are the counter value the operation's RMW
/// observed (the `fetch_add`/`fetch_sub` return value).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ArcEvent {
    /// A strong reference was cloned (`strong: old → old + 1`).
    Clone {
        /// Observed strong count (must be ≥ 1).
        old: i64,
    },
    /// A strong reference was dropped, not the last (`old → old - 1`).
    Drop {
        /// Observed strong count (must be ≥ 2).
        old: i64,
    },
    /// The last strong reference was dropped (observed strong count 1).
    DropLast,
    /// A weak reference was upgraded to a strong one (`old → old + 1`).
    UpgradeOk {
        /// Observed strong count (must be ≥ 1).
        old: i64,
    },
    /// An upgrade attempt observed strong count 0 and failed.
    UpgradeFail,
    /// A weak reference was created (downgrade or weak clone;
    /// `weak: old → old + 1`).
    WeakClone {
        /// Observed weak count (must be ≥ 1).
        old: i64,
    },
    /// A weak reference was dropped (`weak: old → old - 1`).
    WeakDrop {
        /// Observed weak count (must be ≥ 1).
        old: i64,
    },
    /// The payload was reclaimed.
    Dealloc,
}

impl ArcEvent {
    /// Whether this event represents a strong-reference operation (one
    /// that may access the payload).
    pub fn is_strong(self) -> bool {
        matches!(
            self,
            ArcEvent::Clone { .. }
                | ArcEvent::Drop { .. }
                | ArcEvent::DropLast
                | ArcEvent::UpgradeOk { .. }
        )
    }
}

/// The sequential counter state: strong count, weak count (the strong
/// references collectively hold one implicit weak, std-style, so both
/// start at 1), and whether the payload has been reclaimed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ArcState {
    /// Strong reference count.
    pub strong: i64,
    /// Weak reference count (including the implicit weak).
    pub weak: i64,
    /// Whether [`ArcEvent::Dealloc`] has happened.
    pub dealloced: bool,
}

impl Default for ArcState {
    fn default() -> Self {
        ArcState {
            strong: 1,
            weak: 1,
            dealloced: false,
        }
    }
}

impl fmt::Display for ArcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "strong={} weak={}{}",
            self.strong,
            self.weak,
            if self.dealloced { " dealloced" } else { "" }
        )
    }
}

/// Applies `ev` to the counter state, or `None` if the observed value is
/// inconsistent with the state (the sequential counter semantics).
pub fn arc_apply(st: &ArcState, ev: &ArcEvent) -> Option<ArcState> {
    let mut st = *st;
    match *ev {
        ArcEvent::Clone { old } | ArcEvent::UpgradeOk { old } => (old >= 1 && st.strong == old)
            .then(|| {
                st.strong += 1;
                st
            }),
        ArcEvent::Drop { old } => (old >= 2 && st.strong == old).then(|| {
            st.strong -= 1;
            st
        }),
        ArcEvent::DropLast => (st.strong == 1).then(|| {
            st.strong = 0;
            st
        }),
        ArcEvent::UpgradeFail => (st.strong == 0).then_some(st),
        ArcEvent::WeakClone { old } => (old >= 1 && st.weak == old).then(|| {
            st.weak += 1;
            st
        }),
        ArcEvent::WeakDrop { old } => (old >= 1 && st.weak == old).then(|| {
            st.weak -= 1;
            st
        }),
        ArcEvent::Dealloc => (st.strong == 0 && !st.dealloced).then(|| {
            st.dealloced = true;
            st
        }),
    }
}

/// Sequential refcount semantics as a [`SeqInterp`] — used by the
/// conformance harness's linearization stage (`CONFORM-ARC-ORDER`), where
/// the real-time order is partial and a witness order must be searched
/// for.
#[derive(Copy, Clone, Debug, Default)]
pub struct ArcInterp;

impl SeqInterp for ArcInterp {
    type Ev = ArcEvent;
    type State = ArcState;

    fn apply(&self, st: &Self::State, ev: &Self::Ev) -> Option<Self::State> {
        arc_apply(st, ev)
    }

    fn read_only(&self, ev: &Self::Ev) -> bool {
        matches!(ev, ArcEvent::UpgradeFail)
    }
}

/// ARC-COUNT: the commit order replays as a sequential counter history
/// (see module docs). `rule` parametrizes the reported clause name so the
/// conformance harness can reuse the replay under its own vocabulary.
pub fn check_counts_as(g: &Graph<ArcEvent>, rule: &'static str) -> SpecResult {
    let mut st = ArcState::default();
    for (id, ev) in g.iter() {
        match arc_apply(&st, &ev.ty) {
            Some(next) => st = next,
            None => {
                return Err(Violation::new(
                    rule,
                    format!("{id} {:?} is inconsistent with counter state {st}", ev.ty),
                    vec![id],
                ))
            }
        }
    }
    Ok(())
}

/// ARC-COUNT with the model clause name.
pub fn check_counts(g: &Graph<ArcEvent>) -> SpecResult {
    check_counts_as(g, "ARC-COUNT")
}

/// The unique [`ArcEvent::Dealloc`] event, if any.
fn dealloc_of(g: &Graph<ArcEvent>) -> Option<EventId> {
    g.iter()
        .find(|(_, ev)| ev.ty == ArcEvent::Dealloc)
        .map(|(id, _)| id)
}

/// ARC-DEALLOC-HB: drop-to-zero happens-before dealloc — the `DropLast`
/// event is in the `Dealloc` event's logical view.
pub fn check_dealloc_hb(g: &Graph<ArcEvent>) -> SpecResult {
    let Some(d) = dealloc_of(g) else {
        return Ok(());
    };
    let Some((last, _)) = g.iter().find(|(_, ev)| ev.ty == ArcEvent::DropLast) else {
        return Err(Violation::new(
            "ARC-DEALLOC-HB",
            format!("dealloc {d} without a DropLast event"),
            vec![d],
        ));
    };
    if !g.in_logview(last, d) {
        return Err(Violation::new(
            "ARC-DEALLOC-HB",
            format!("dealloc {d} does not happen-after the final drop {last}"),
            vec![last, d],
        ));
    }
    Ok(())
}

/// ARC-UAF: no use-after-free — every strong-reference event
/// happens-before the `Dealloc` event.
pub fn check_uaf(g: &Graph<ArcEvent>) -> SpecResult {
    let Some(d) = dealloc_of(g) else {
        return Ok(());
    };
    for (id, ev) in g.iter() {
        if ev.ty.is_strong() && !g.in_logview(id, d) {
            return Err(Violation::new(
                "ARC-UAF",
                format!(
                    "strong event {id} {:?} does not happen-before the dealloc {d}",
                    ev.ty
                ),
                vec![id, d],
            ));
        }
    }
    Ok(())
}

/// The full `ArcConsistent` predicate: structural well-formedness plus
/// every clause above.
pub fn check_arc_consistent(g: &Graph<ArcEvent>) -> SpecResult {
    g.check_well_formed()?;
    check_counts(g)?;
    check_dealloc_hb(g)?;
    check_uaf(g)?;
    Ok(())
}

/// Checks `ArcConsistent` on every commit-step prefix of the graph —
/// consistency must hold invariantly, not just at the end.
pub fn check_arc_consistent_prefixes(g: &Graph<ArcEvent>) -> SpecResult {
    let mut steps: Vec<u64> = g.iter().map(|(_, e)| e.step).collect();
    steps.push(u64::MAX);
    steps.sort_unstable();
    steps.dedup();
    for &s in &steps {
        check_arc_consistent(&g.prefix_at(s))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn id(i: u64) -> EventId {
        EventId::from_raw(i)
    }

    /// Builds a graph from (type, step, lhb-predecessors).
    fn graph(events: &[(ArcEvent, u64, &[u64])]) -> Graph<ArcEvent> {
        let mut g = Graph::new();
        for (i, (ty, step, preds)) in events.iter().enumerate() {
            let mut lv: BTreeSet<EventId> = preds.iter().map(|&p| id(p)).collect();
            let mut closed = lv.clone();
            for &p in &lv {
                closed.extend(g.logview(p));
            }
            lv = closed;
            lv.insert(id(i as u64));
            g.add_event(*ty, 1, *step, lv);
        }
        g
    }

    use ArcEvent::*;

    #[test]
    fn sequential_lifecycle_is_consistent() {
        let g = graph(&[
            (Clone { old: 1 }, 1, &[]),
            (WeakClone { old: 1 }, 2, &[0]),
            (Drop { old: 2 }, 3, &[1]),
            (UpgradeOk { old: 1 }, 4, &[2]),
            (Drop { old: 2 }, 5, &[3]),
            (DropLast, 6, &[4]),
            (Dealloc, 7, &[5]),
            (WeakDrop { old: 2 }, 8, &[6]),
            (UpgradeFail, 9, &[7]),
            (WeakDrop { old: 1 }, 10, &[8]),
        ]);
        check_arc_consistent(&g).unwrap();
        check_arc_consistent_prefixes(&g).unwrap();
    }

    #[test]
    fn stale_observed_count_fails_count() {
        // Two clones both observing 1: the second increment lost the first.
        let g = graph(&[(Clone { old: 1 }, 1, &[]), (Clone { old: 1 }, 2, &[0])]);
        assert_eq!(check_counts(&g).unwrap_err().rule, "ARC-COUNT");
    }

    #[test]
    fn clone_from_zero_fails_count() {
        let g = graph(&[(DropLast, 1, &[]), (Clone { old: 0 }, 2, &[0])]);
        assert_eq!(check_counts(&g).unwrap_err().rule, "ARC-COUNT");
    }

    #[test]
    fn upgrade_fail_requires_zero_count() {
        // UpgradeFail while the strong count is still 1.
        let g = graph(&[(UpgradeFail, 1, &[])]);
        assert_eq!(check_counts(&g).unwrap_err().rule, "ARC-COUNT");
    }

    #[test]
    fn double_dealloc_fails_count() {
        let g = graph(&[
            (DropLast, 1, &[]),
            (Dealloc, 2, &[0]),
            (Dealloc, 3, &[0, 1]),
        ]);
        assert_eq!(check_counts(&g).unwrap_err().rule, "ARC-COUNT");
    }

    #[test]
    fn dealloc_without_hb_from_drop_last_fails() {
        // Counter history is fine, but the dealloc does not happen-after
        // the final drop (empty logview).
        let g = graph(&[(DropLast, 1, &[]), (Dealloc, 2, &[])]);
        assert_eq!(check_dealloc_hb(&g).unwrap_err().rule, "ARC-DEALLOC-HB");
    }

    #[test]
    fn unsynchronized_drop_fails_uaf() {
        // The concurrent Drop is not in the dealloc's view: the payload
        // was freed without happening-after that holder's drop.
        let g = graph(&[
            (Clone { old: 1 }, 1, &[]),
            (Drop { old: 2 }, 2, &[0]),
            (DropLast, 3, &[0]),
            (Dealloc, 4, &[2]),
        ]);
        assert_eq!(check_uaf(&g).unwrap_err().rule, "ARC-UAF");
    }

    #[test]
    fn linearization_search_explains_concurrent_observations() {
        use crate::history::find_linearization;
        // Commit order is NOT sequential (Drop{2} then Clone{1} replayed
        // in insertion order fails), but a reordering consistent with the
        // (empty) views exists — the conformance order stage accepts it.
        let mut g = Graph::new();
        g.add_event(Drop { old: 2 }, 1, 1, BTreeSet::from([id(0)]));
        g.add_event(Clone { old: 1 }, 2, 2, BTreeSet::from([id(1)]));
        assert_eq!(check_counts(&g).unwrap_err().rule, "ARC-COUNT");
        assert!(find_linearization(&g, &ArcInterp, &[]).is_some());
    }

    #[test]
    fn empty_graph_is_consistent() {
        check_arc_consistent(&Graph::new()).unwrap();
        check_arc_consistent_prefixes(&Graph::new()).unwrap();
    }
}
