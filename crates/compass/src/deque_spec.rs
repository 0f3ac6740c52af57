//! Work-stealing deque consistency conditions.
//!
//! The paper names work-stealing queues (Chase-Lev) as future work (§6);
//! this module extends the framework to them. A work-stealing deque has a
//! single *owner* (pushing and popping at the bottom) and any number of
//! *thieves* (stealing from the top). The conditions mirror the queue's:
//! `so` matches a push with the unique pop or steal that took it, takers
//! happen-after their push, and empty results cannot happen-after an
//! untaken, visible push. Order (owner-LIFO at the bottom, FIFO at the
//! top) is captured by the `LAT_hb^hist` linearization with
//! [`DequeInterp`].

use orc11::Val;

use crate::graph::Graph;
use crate::history::SeqInterp;
use crate::spec::{SpecResult, Violation};

/// Work-stealing deque events.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DequeEvent {
    /// Owner pushed `v` at the bottom.
    Push(Val),
    /// Owner popped `v` from the bottom.
    Pop(Val),
    /// Owner observed the deque as empty.
    EmpPop,
    /// A thief stole `v` from the top.
    Steal(Val),
    /// A thief observed the deque as empty.
    EmpSteal,
}

impl DequeEvent {
    /// The pushed value, if this is a push.
    pub fn push_value(self) -> Option<Val> {
        match self {
            DequeEvent::Push(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the event belongs to the owner.
    pub fn is_owner_op(self) -> bool {
        matches!(
            self,
            DequeEvent::Push(_) | DequeEvent::Pop(_) | DequeEvent::EmpPop
        )
    }
}

/// DEQUE-MATCHES: every `so` edge goes from a `Push(v)` to a `Pop(v)` or
/// `Steal(v)` of the same value, committed later.
pub fn check_matches(g: &Graph<DequeEvent>) -> SpecResult {
    for &(p, t) in g.so() {
        let (pe, te) = (g.event(p), g.event(t));
        let ok = match (&pe.ty, &te.ty) {
            (DequeEvent::Push(v), DequeEvent::Pop(w))
            | (DequeEvent::Push(v), DequeEvent::Steal(w)) => v == w,
            _ => false,
        };
        if !ok {
            return Err(Violation::new(
                "DEQUE-MATCHES",
                format!("bad so edge ({p}, {t}): {:?} → {:?}", pe.ty, te.ty),
                vec![p, t],
            ));
        }
        if pe.step >= te.step {
            return Err(Violation::new(
                "DEQUE-MATCHES",
                format!("taker {t} committed before its push {p}"),
                vec![p, t],
            ));
        }
    }
    Ok(())
}

/// DEQUE-INJ: each push is taken at most once; each taker has exactly one
/// source; empty results match nothing.
pub fn check_injective(g: &Graph<DequeEvent>) -> SpecResult {
    for (id, ev) in g.iter() {
        let outgoing = g.so().iter().filter(|&&(a, _)| a == id).count();
        let incoming = g.so().iter().filter(|&&(_, b)| b == id).count();
        let bad = match ev.ty {
            DequeEvent::Push(_) => outgoing > 1 || incoming > 0,
            DequeEvent::Pop(_) | DequeEvent::Steal(_) => incoming != 1 || outgoing > 0,
            DequeEvent::EmpPop | DequeEvent::EmpSteal => incoming + outgoing > 0,
        };
        if bad {
            return Err(Violation::new(
                "DEQUE-INJ",
                format!(
                    "event {id} ({:?}) has {incoming} sources and {outgoing} targets",
                    ev.ty
                ),
                vec![id],
            ));
        }
    }
    Ok(())
}

/// DEQUE-SO-LHB: a taker happens-after the push it took.
pub fn check_so_lhb(g: &Graph<DequeEvent>) -> SpecResult {
    for &(p, t) in g.so() {
        if !g.lhb(p, t) {
            return Err(Violation::new(
                "DEQUE-SO-LHB",
                format!("taker {t} does not happen-after its push {p}"),
                vec![p, t],
            ));
        }
    }
    Ok(())
}

/// DEQUE-OWNER: push/pop/empty-pop events all belong to one thread.
pub fn check_single_owner(g: &Graph<DequeEvent>) -> SpecResult {
    let mut owner = None;
    for (id, ev) in g.iter() {
        if ev.ty.is_owner_op() {
            match owner {
                None => owner = Some(ev.tid),
                Some(t) if t == ev.tid => {}
                Some(t) => {
                    return Err(Violation::new(
                        "DEQUE-OWNER",
                        format!(
                            "owner operation {id} by thread {} but owner is thread {t}",
                            ev.tid
                        ),
                        vec![id],
                    ))
                }
            }
        }
    }
    Ok(())
}

/// DEQUE-EMPTY: an empty pop/steal `d` cannot happen-after a push `p`
/// that is never taken, or that is taken only by a *steal* that
/// happens-after `d`.
///
/// This is deliberately weaker than the queue's step-ordered QUEUE-EMPDEQ,
/// in two stages the checker itself forced (the §3.2 methodology: weaken
/// the style until the implementation satisfies it, and document what was
/// given up):
///
/// 1. the taker may be lhb-*unordered* with `d` (not "committed before"):
///    a concurrent take justifies emptiness once the linearization
///    reorders it first;
/// 2. an **owner `Pop`** justifies emptiness even when it commits
///    lhb-*after* `d`: the Chase-Lev owner *reserves* the element by
///    decrementing `bottom` before its take commits, and a thief that
///    observes the (released) decrement legitimately reports empty while
///    the pop's commit — which would need future-dependent placement, the
///    same prophecy-shaped obstacle as §3.2's Herlihy-Wing discussion —
///    happens later. A *steal* performs no reservation, so a steal-taker
///    lhb-after `d` remains a violation.
pub fn check_empty(g: &Graph<DequeEvent>) -> SpecResult {
    for (d, ev) in g.iter() {
        if !matches!(ev.ty, DequeEvent::EmpPop | DequeEvent::EmpSteal) {
            continue;
        }
        for (p, pe) in g.iter() {
            if pe.ty.push_value().is_none() || !g.lhb(p, d) {
                continue;
            }
            let justified = g
                .so_target(p)
                .is_some_and(|t| !g.lhb(d, t) || matches!(g.event(t).ty, DequeEvent::Pop(_)));
            if !justified {
                return Err(Violation::new(
                    "DEQUE-EMPTY",
                    format!(
                        "{d} ({:?}) happens-after push {p}, which is not taken by \
                         any operation except a steal after {d}",
                        ev.ty
                    ),
                    vec![d, p],
                ));
            }
        }
    }
    Ok(())
}

/// The mutator subgraph: pushes, pops, and steals, without the empty
/// results.
///
/// Chase-Lev's `EmpSteal` is advisory (cf. crossbeam's `Steal::Empty`)
/// and **not** linearizable against the naive sequential deque — a thief
/// can report empty while the owner's reservation-then-pop of the last
/// element straddles it (see [`check_empty`]). The `LAT_hb^hist`-style
/// check for deques is therefore: the *mutator* subgraph linearizes, and
/// the empty results satisfy the graph-based [`check_empty`] clause.
pub fn mutator_subgraph(g: &Graph<DequeEvent>) -> Graph<DequeEvent> {
    g.retain(|_, ev| !matches!(ev.ty, DequeEvent::EmpSteal | DequeEvent::EmpPop))
}

/// The full `DequeConsistent` predicate.
pub fn check_deque_consistent(g: &Graph<DequeEvent>) -> SpecResult {
    g.check_well_formed()?;
    check_matches(g)?;
    check_injective(g)?;
    check_so_lhb(g)?;
    check_single_owner(g)?;
    check_empty(g)?;
    Ok(())
}

/// Sequential deque semantics: owner operates at the back, thieves at the
/// front.
#[derive(Copy, Clone, Debug, Default)]
pub struct DequeInterp;

impl SeqInterp for DequeInterp {
    type Ev = DequeEvent;
    type State = std::collections::VecDeque<Val>;

    fn apply(&self, st: &Self::State, ev: &Self::Ev) -> Option<Self::State> {
        let mut st = st.clone();
        match ev {
            DequeEvent::Push(v) => {
                st.push_back(*v);
                Some(st)
            }
            DequeEvent::Pop(v) => {
                if st.back() == Some(v) {
                    st.pop_back();
                    Some(st)
                } else {
                    None
                }
            }
            DequeEvent::Steal(v) => {
                if st.front() == Some(v) {
                    st.pop_front();
                    Some(st)
                } else {
                    None
                }
            }
            DequeEvent::EmpPop | DequeEvent::EmpSteal => st.is_empty().then_some(st),
        }
    }

    fn read_only(&self, ev: &Self::Ev) -> bool {
        matches!(ev, DequeEvent::EmpPop | DequeEvent::EmpSteal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use std::collections::BTreeSet;
    use DequeEvent::*;

    fn id(i: u64) -> EventId {
        EventId::from_raw(i)
    }

    fn graph(events: &[(DequeEvent, u64, u64, &[u64])], so: &[(u64, u64)]) -> Graph<DequeEvent> {
        // events: (type, tid, step, lhb-predecessors)
        let mut g = Graph::new();
        for (i, (ty, tid, step, preds)) in events.iter().enumerate() {
            let lv: BTreeSet<EventId> = preds.iter().map(|&p| id(p)).collect();
            let mut closed = lv.clone();
            for &p in &lv {
                closed.extend(g.logview(p));
            }
            let mut lv = closed;
            lv.insert(id(i as u64));
            g.add_event(*ty, *tid as usize, *step, lv);
        }
        for &(a, b) in so {
            g.add_so(id(a), id(b));
        }
        g
    }

    #[test]
    fn owner_lifo_thief_fifo_history_is_consistent() {
        let v = |i| Val::Int(i);
        // Owner (tid 1): push 1, push 2, pop 2. Thief (tid 2): steal 1.
        let g = graph(
            &[
                (Push(v(1)), 1, 1, &[]),
                (Push(v(2)), 1, 2, &[0]),
                (Pop(v(2)), 1, 3, &[0, 1]),
                (Steal(v(1)), 2, 4, &[0]),
            ],
            &[(1, 2), (0, 3)],
        );
        check_deque_consistent(&g).unwrap();
        let to = crate::history::find_linearization(&g, &DequeInterp, &[]).unwrap();
        crate::history::validate_linearization(&g, &DequeInterp, &to).unwrap();
    }

    #[test]
    fn double_take_is_caught() {
        let v = Val::Int(7);
        // The famous weak-fence Chase-Lev bug: pop and steal both take
        // the same push.
        let g = graph(
            &[
                (Push(v), 1, 1, &[]),
                (Pop(v), 1, 2, &[0]),
                (Steal(v), 2, 3, &[0]),
            ],
            &[(0, 1), (0, 2)],
        );
        assert_eq!(check_injective(&g).unwrap_err().rule, "DEQUE-INJ");
    }

    #[test]
    fn two_owners_are_caught() {
        let g = graph(
            &[
                (Push(Val::Int(1)), 1, 1, &[]),
                (Push(Val::Int(2)), 2, 2, &[]),
            ],
            &[],
        );
        assert_eq!(check_single_owner(&g).unwrap_err().rule, "DEQUE-OWNER");
    }

    #[test]
    fn empty_steal_after_visible_push_is_caught() {
        let g = graph(
            &[(Push(Val::Int(1)), 1, 1, &[]), (EmpSteal, 2, 2, &[0])],
            &[],
        );
        assert_eq!(check_empty(&g).unwrap_err().rule, "DEQUE-EMPTY");
    }

    #[test]
    fn steal_without_sync_is_caught() {
        let v = Val::Int(1);
        let g = graph(&[(Push(v), 1, 1, &[]), (Steal(v), 2, 2, &[])], &[(0, 1)]);
        assert_eq!(check_so_lhb(&g).unwrap_err().rule, "DEQUE-SO-LHB");
    }

    #[test]
    fn interp_semantics() {
        let i = DequeInterp;
        let st = i.apply(&Default::default(), &Push(Val::Int(1))).unwrap();
        let st = i.apply(&st, &Push(Val::Int(2))).unwrap();
        assert!(i.apply(&st, &Pop(Val::Int(1))).is_none(), "owner pops back");
        assert!(
            i.apply(&st, &Steal(Val::Int(2))).is_none(),
            "thief steals front"
        );
        let st = i.apply(&st, &Steal(Val::Int(1))).unwrap();
        let st = i.apply(&st, &Pop(Val::Int(2))).unwrap();
        i.apply(&st, &EmpPop).unwrap();
        i.apply(&st, &EmpSteal).unwrap();
        assert!(i.read_only(&EmpPop) && i.read_only(&EmpSteal));
        assert!(!i.read_only(&Push(Val::Int(0))));
    }
}

#[cfg(test)]
mod subgraph_tests {
    use super::*;
    use crate::event::EventId;
    use std::collections::BTreeSet;

    #[test]
    fn mutator_subgraph_drops_empties_and_remaps() {
        use DequeEvent::*;
        let mut g: Graph<DequeEvent> = Graph::new();
        let lv = |ids: &[u64]| -> BTreeSet<EventId> {
            ids.iter().map(|&i| EventId::from_raw(i)).collect()
        };
        g.add_event(EmpSteal, 2, 1, lv(&[0]));
        g.add_event(Push(orc11::Val::Int(1)), 1, 2, lv(&[1]));
        g.add_event(Pop(orc11::Val::Int(1)), 1, 3, lv(&[1, 2]));
        g.add_so(EventId::from_raw(1), EventId::from_raw(2));
        let m = mutator_subgraph(&g);
        assert_eq!(m.len(), 2);
        // Ids compacted: push is now e0, pop e1, so edge remapped.
        assert!(m
            .so()
            .contains(&(EventId::from_raw(0), EventId::from_raw(1))));
        assert!(m.lhb(EventId::from_raw(0), EventId::from_raw(1)));
        m.check_well_formed().unwrap();
    }

    #[test]
    fn owner_reservation_empty_steal_is_consistent() {
        use DequeEvent::*;
        // The forkjoin counterexample shape: EmpSteal happens-after a push
        // whose owner Pop commits lhb-after the EmpSteal. Justified by the
        // reservation rule.
        let mut g: Graph<DequeEvent> = Graph::new();
        let lv = |ids: &[u64]| -> BTreeSet<EventId> {
            ids.iter().map(|&i| EventId::from_raw(i)).collect()
        };
        g.add_event(Push(orc11::Val::Int(4)), 1, 1, lv(&[0]));
        g.add_event(EmpSteal, 2, 2, lv(&[0, 1]));
        g.add_event(Pop(orc11::Val::Int(4)), 1, 3, lv(&[0, 1, 2]));
        g.add_so(EventId::from_raw(0), EventId::from_raw(2));
        check_empty(&g).unwrap();
        // But the same shape with a STEAL taker stays a violation.
        let mut g2: Graph<DequeEvent> = Graph::new();
        g2.add_event(Push(orc11::Val::Int(4)), 1, 1, lv(&[0]));
        g2.add_event(EmpSteal, 2, 2, lv(&[0, 1]));
        g2.add_event(Steal(orc11::Val::Int(4)), 3, 3, lv(&[0, 1, 2]));
        g2.add_so(EventId::from_raw(0), EventId::from_raw(2));
        assert_eq!(check_empty(&g2).unwrap_err().rule, "DEQUE-EMPTY");
    }
}
