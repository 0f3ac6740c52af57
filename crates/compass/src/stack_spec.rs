//! Stack consistency conditions (`StackConsistent`; the LIFO mirror of
//! §3.1's queue conditions, as used for the elimination stack in §4).

use orc11::Val;

#[cfg(test)]
use crate::event::EventId;
use crate::graph::Graph;
use crate::spec::{SpecResult, Violation};

/// Stack events: pushes, successful pops, and failing (empty) pops.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum StackEvent {
    /// `Push(v)`: `v` was pushed.
    Push(Val),
    /// `Pop(v)`: `v` was popped.
    Pop(Val),
    /// `Pop(ε)`: a pop observed the stack as empty.
    EmpPop,
}

impl StackEvent {
    /// The pushed value, if this is a push.
    pub fn push_value(self) -> Option<Val> {
        match self {
            StackEvent::Push(v) => Some(v),
            _ => None,
        }
    }
}

/// STACK-MATCHES: every `so` edge goes from a `Push(v)` to a `Pop(v)` of
/// the same value; the push commits no later than the pop (equal steps are
/// allowed: an elimination pair commits push and pop atomically together).
pub fn check_matches(g: &Graph<StackEvent>) -> SpecResult {
    for &(p, o) in g.so() {
        let (pe, oe) = (g.event(p), g.event(o));
        match (&pe.ty, &oe.ty) {
            (StackEvent::Push(v), StackEvent::Pop(w)) => {
                if v != w {
                    return Err(Violation::new(
                        "STACK-MATCHES",
                        format!("pop {o} returned {w} but matches push {p} of {v}"),
                        vec![p, o],
                    ));
                }
                if pe.step > oe.step {
                    return Err(Violation::new(
                        "STACK-MATCHES",
                        format!("pop {o} committed before its push {p}"),
                        vec![p, o],
                    ));
                }
            }
            _ => {
                return Err(Violation::new(
                    "STACK-MATCHES",
                    format!("so edge ({p}, {o}) is not a Push→Pop pair"),
                    vec![p, o],
                ))
            }
        }
    }
    Ok(())
}

/// STACK-INJ: `so` is a partial bijection (see the queue analogue).
pub fn check_injective(g: &Graph<StackEvent>) -> SpecResult {
    for (id, ev) in g.iter() {
        let outgoing = g.so().iter().filter(|&&(a, _)| a == id).count();
        let incoming = g.so().iter().filter(|&&(_, b)| b == id).count();
        let bad = match ev.ty {
            StackEvent::Push(_) => outgoing > 1 || incoming > 0,
            StackEvent::Pop(_) => incoming != 1 || outgoing > 0,
            StackEvent::EmpPop => incoming + outgoing > 0,
        };
        if bad {
            return Err(Violation::new(
                "STACK-INJ",
                format!(
                    "event {id} ({:?}) has {incoming} so-sources and {outgoing} so-targets",
                    ev.ty
                ),
                vec![id],
            ));
        }
    }
    Ok(())
}

/// STACK-SO-LHB: a pop happens-after the push it matches.
pub fn check_so_lhb(g: &Graph<StackEvent>) -> SpecResult {
    for &(p, o) in g.so() {
        if !g.lhb(p, o) {
            return Err(Violation::new(
                "STACK-SO-LHB",
                format!("pop {o} does not happen-after its push {p}"),
                vec![p, o],
            ));
        }
    }
    Ok(())
}

/// STACK-LIFO: if `(p1, o1) ∈ so` and there is another push `p2` with
/// `p1 →lhb p2 →lhb o1` (an element pushed *on top of* `p1`, visible to the
/// pop), then `p2` must already have been popped by some `o2` at `o1`'s
/// commit, with `(o1, o2) ∉ lhb`.
pub fn check_lifo(g: &Graph<StackEvent>) -> SpecResult {
    for &(p1, o1) in g.so() {
        let o1_step = g.event(o1).step;
        for (p2, ev2) in g.iter() {
            if p2 == p1 || ev2.ty.push_value().is_none() || !g.lhb(p1, p2) || !g.lhb(p2, o1) {
                continue;
            }
            match g.so_target(p2) {
                None => {
                    return Err(Violation::new(
                        "STACK-LIFO",
                        format!(
                            "{o1} popped {p1} although {p2}, pushed on top and visible \
                             to {o1}, was never popped"
                        ),
                        vec![p1, o1, p2],
                    ))
                }
                Some(o2) => {
                    if o2 != o1 && g.event(o2).step > o1_step {
                        return Err(Violation::new(
                            "STACK-LIFO",
                            format!(
                                "{o1} popped {p1} before {p2} (pushed on top, visible to \
                                 {o1}) was popped by {o2}"
                            ),
                            vec![p1, o1, p2, o2],
                        ));
                    }
                    if g.lhb(o1, o2) {
                        return Err(Violation::new(
                            "STACK-LIFO",
                            format!("{o1} happens before {o2}, which popped the upper {p2}"),
                            vec![p1, o1, p2, o2],
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// STACK-EMPPOP: an empty pop cannot happen-after a push that had not been
/// popped by its commit.
pub fn check_emppop(g: &Graph<StackEvent>) -> SpecResult {
    for (o, ev) in g.iter() {
        if ev.ty != StackEvent::EmpPop {
            continue;
        }
        for (p, pe) in g.iter() {
            if pe.ty.push_value().is_none() || !g.lhb(p, o) {
                continue;
            }
            let popped_before = g.so_target(p).is_some_and(|o2| g.event(o2).step < ev.step);
            if !popped_before {
                return Err(Violation::new(
                    "STACK-EMPPOP",
                    format!(
                        "empty pop {o} happens-after push {p}, which was not popped \
                         before {o}'s commit"
                    ),
                    vec![o, p],
                ));
            }
        }
    }
    Ok(())
}

/// The full `StackConsistent` predicate.
pub fn check_stack_consistent(g: &Graph<StackEvent>) -> SpecResult {
    g.check_well_formed()?;
    check_matches(g)?;
    check_injective(g)?;
    check_so_lhb(g)?;
    check_lifo(g)?;
    check_emppop(g)?;
    Ok(())
}

/// Checks `StackConsistent` on every commit-step prefix.
pub fn check_stack_consistent_prefixes(g: &Graph<StackEvent>) -> SpecResult {
    let mut steps: Vec<u64> = g.iter().map(|(_, e)| e.step).collect();
    steps.push(u64::MAX);
    steps.sort_unstable();
    steps.dedup();
    for &s in &steps {
        check_stack_consistent(&g.prefix_at(s))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use StackEvent::*;

    fn id(i: u64) -> EventId {
        EventId::from_raw(i)
    }

    fn graph(events: &[(StackEvent, u64, &[u64])], so: &[(u64, u64)]) -> Graph<StackEvent> {
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
        for &(a, b) in so {
            g.add_so(id(a), id(b));
        }
        g
    }

    #[test]
    fn lifo_history_is_consistent() {
        let v = |i| Val::Int(i);
        // push 1, push 2, pop 2, pop 1 — classic LIFO.
        let g = graph(
            &[
                (Push(v(1)), 1, &[]),
                (Push(v(2)), 2, &[0]),
                (Pop(v(2)), 3, &[0, 1]),
                (Pop(v(1)), 4, &[0, 1, 2]),
            ],
            &[(1, 2), (0, 3)],
        );
        check_stack_consistent(&g).unwrap();
        check_stack_consistent_prefixes(&g).unwrap();
    }

    #[test]
    fn fifo_order_violates_lifo() {
        let v = |i| Val::Int(i);
        // push 1, push 2, then pop 1 first although 2 is on top & visible.
        let g = graph(
            &[
                (Push(v(1)), 1, &[]),
                (Push(v(2)), 2, &[0]),
                (Pop(v(1)), 3, &[0, 1]),
                (Pop(v(2)), 4, &[0, 1, 2]),
            ],
            &[(0, 2), (1, 3)],
        );
        assert_eq!(check_lifo(&g).unwrap_err().rule, "STACK-LIFO");
    }

    #[test]
    fn lifo_vacuous_without_lhb() {
        let v = |i| Val::Int(i);
        // Unordered pushes: either pop order is allowed.
        let g = graph(
            &[
                (Push(v(1)), 1, &[]),
                (Push(v(2)), 2, &[]),
                (Pop(v(1)), 3, &[0]),
                (Pop(v(2)), 4, &[1]),
            ],
            &[(0, 2), (1, 3)],
        );
        check_stack_consistent(&g).unwrap();
    }

    #[test]
    fn emppop_violation_detected() {
        let g = graph(&[(Push(Val::Int(1)), 1, &[]), (EmpPop, 2, &[0])], &[]);
        assert_eq!(check_emppop(&g).unwrap_err().rule, "STACK-EMPPOP");
    }

    #[test]
    fn emppop_ok_after_pop() {
        let v = Val::Int(1);
        let g = graph(
            &[(Push(v), 1, &[]), (Pop(v), 2, &[0]), (EmpPop, 3, &[0, 1])],
            &[(0, 1)],
        );
        check_stack_consistent(&g).unwrap();
    }

    #[test]
    fn elimination_pair_same_step_is_consistent() {
        let v = Val::Int(5);
        // A push/pop pair committed atomically together (same step), as an
        // elimination produces.
        let mut g = Graph::new();
        let lv: BTreeSet<EventId> = [id(0), id(1)].into_iter().collect();
        g.add_event(Push(v), 1, 7, lv.clone());
        g.add_event(Pop(v), 2, 7, lv);
        g.add_so(id(0), id(1));
        check_stack_consistent(&g).unwrap();
    }

    #[test]
    fn mismatched_pair_rejected() {
        let g = graph(
            &[(Push(Val::Int(1)), 1, &[]), (Pop(Val::Int(2)), 2, &[0])],
            &[(0, 1)],
        );
        assert_eq!(check_matches(&g).unwrap_err().rule, "STACK-MATCHES");
    }

    #[test]
    fn double_pop_rejected() {
        let v = Val::Int(1);
        let g = graph(
            &[(Push(v), 1, &[]), (Pop(v), 2, &[0]), (Pop(v), 3, &[0])],
            &[(0, 1), (0, 2)],
        );
        assert_eq!(check_injective(&g).unwrap_err().rule, "STACK-INJ");
    }
}
