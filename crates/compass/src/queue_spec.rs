//! Queue consistency conditions (the paper's `QueueConsistent`, §3.1).

use orc11::Val;

#[cfg(test)]
use crate::event::EventId;
use crate::graph::Graph;
use crate::spec::{SpecResult, Violation};

/// Queue events (Figure 2): enqueues, successful dequeues, and failing
/// (empty) dequeues.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum QueueEvent {
    /// `Enq(v)`: `v` was enqueued.
    Enq(Val),
    /// `Deq(v)`: `v` was dequeued.
    Deq(Val),
    /// `Deq(ε)`: a dequeue observed the queue as empty.
    EmpDeq,
}

impl QueueEvent {
    /// The enqueued value, if this is an enqueue.
    pub fn enq_value(self) -> Option<Val> {
        match self {
            QueueEvent::Enq(v) => Some(v),
            _ => None,
        }
    }
}

/// QUEUE-MATCHES: every `so` edge goes from an `Enq(v)` to a `Deq(v)` of
/// the same value, committed later.
pub fn check_matches(g: &Graph<QueueEvent>) -> SpecResult {
    for &(e, d) in g.so() {
        let (ee, de) = (g.event(e), g.event(d));
        match (&ee.ty, &de.ty) {
            (QueueEvent::Enq(v), QueueEvent::Deq(w)) => {
                if v != w {
                    return Err(Violation::new(
                        "QUEUE-MATCHES",
                        format!("dequeue {d} returned {w} but matches enqueue {e} of {v}"),
                        vec![e, d],
                    ));
                }
                if ee.step >= de.step {
                    return Err(Violation::new(
                        "QUEUE-MATCHES",
                        format!("dequeue {d} committed before its enqueue {e}"),
                        vec![e, d],
                    ));
                }
            }
            _ => {
                return Err(Violation::new(
                    "QUEUE-MATCHES",
                    format!("so edge ({e}, {d}) is not an Enq→Deq pair"),
                    vec![e, d],
                ))
            }
        }
    }
    Ok(())
}

/// QUEUE-INJ: `so` is a partial bijection — an element is dequeued at most
/// once, every successful dequeue takes its value from exactly one
/// enqueue, and empty dequeues match nothing.
pub fn check_injective(g: &Graph<QueueEvent>) -> SpecResult {
    for (id, ev) in g.iter() {
        let outgoing = g.so().iter().filter(|&&(a, _)| a == id).count();
        let incoming = g.so().iter().filter(|&&(_, b)| b == id).count();
        match ev.ty {
            QueueEvent::Enq(_) => {
                if outgoing > 1 {
                    return Err(Violation::new(
                        "QUEUE-INJ",
                        format!("enqueue {id} dequeued {outgoing} times"),
                        vec![id],
                    ));
                }
                if incoming > 0 {
                    return Err(Violation::new(
                        "QUEUE-INJ",
                        format!("enqueue {id} is an so-target"),
                        vec![id],
                    ));
                }
            }
            QueueEvent::Deq(_) => {
                if incoming != 1 {
                    return Err(Violation::new(
                        "QUEUE-INJ",
                        format!("dequeue {id} has {incoming} sources (wants exactly 1)"),
                        vec![id],
                    ));
                }
                if outgoing > 0 {
                    return Err(Violation::new(
                        "QUEUE-INJ",
                        format!("dequeue {id} is an so-source"),
                        vec![id],
                    ));
                }
            }
            QueueEvent::EmpDeq => {
                if incoming + outgoing > 0 {
                    return Err(Violation::new(
                        "QUEUE-INJ",
                        format!("empty dequeue {id} participates in so"),
                        vec![id],
                    ));
                }
            }
        }
    }
    Ok(())
}

/// QUEUE-SO-LHB: a dequeue synchronizes with the enqueue it matches
/// (`(e, d) ∈ so ⇒ (e, d) ∈ lhb`). This is the `LAT_so^abs` (Cosmo-style)
/// view-transfer guarantee of §2.3.
pub fn check_so_lhb(g: &Graph<QueueEvent>) -> SpecResult {
    for &(e, d) in g.so() {
        if !g.lhb(e, d) {
            return Err(Violation::new(
                "QUEUE-SO-LHB",
                format!("dequeue {d} does not happen-after its enqueue {e}"),
                vec![e, d],
            ));
        }
    }
    Ok(())
}

/// QUEUE-FIFO (§3.1): if `(e1, d1) ∈ so` and another enqueue `e2` happens
/// before `e1`, then `e2` must already have been dequeued by some `d2` at
/// `d1`'s commit, with `(d1, d2) ∉ lhb`.
pub fn check_fifo(g: &Graph<QueueEvent>) -> SpecResult {
    for &(e1, d1) in g.so() {
        let d1_step = g.event(d1).step;
        for (e2, ev2) in g.iter() {
            if e2 == e1 || ev2.ty.enq_value().is_none() || !g.lhb(e2, e1) {
                continue;
            }
            match g.so_target(e2) {
                None => {
                    return Err(Violation::new(
                        "QUEUE-FIFO",
                        format!(
                            "{d1} dequeued {e1}, but older enqueue {e2} (lhb-before {e1}) \
                             was never dequeued"
                        ),
                        vec![e1, d1, e2],
                    ))
                }
                Some(d2) => {
                    if g.event(d2).step >= d1_step {
                        return Err(Violation::new(
                            "QUEUE-FIFO",
                            format!(
                                "{d1} dequeued {e1} before the older enqueue {e2} \
                                 (lhb-before {e1}) was dequeued (by {d2})"
                            ),
                            vec![e1, d1, e2, d2],
                        ));
                    }
                    if g.lhb(d1, d2) {
                        return Err(Violation::new(
                            "QUEUE-FIFO",
                            format!("{d1} happens before {d2}, which dequeued the older {e2}"),
                            vec![e1, d1, e2, d2],
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// QUEUE-EMPDEQ (§3.1): an empty dequeue `d` cannot happen-after an
/// enqueue that had not been dequeued by `d`'s commit — otherwise `d`
/// would have found that element.
pub fn check_empdeq(g: &Graph<QueueEvent>) -> SpecResult {
    for (d, ev) in g.iter() {
        if ev.ty != QueueEvent::EmpDeq {
            continue;
        }
        for (e, ee) in g.iter() {
            if ee.ty.enq_value().is_none() || !g.lhb(e, d) {
                continue;
            }
            let dequeued_before = g.so_target(e).is_some_and(|d2| g.event(d2).step < ev.step);
            if !dequeued_before {
                return Err(Violation::new(
                    "QUEUE-EMPDEQ",
                    format!(
                        "empty dequeue {d} happens-after enqueue {e}, which was not \
                         dequeued before {d}'s commit"
                    ),
                    vec![d, e],
                ));
            }
        }
    }
    Ok(())
}

/// The full `QueueConsistent` predicate: structural well-formedness plus
/// every clause above.
pub fn check_queue_consistent(g: &Graph<QueueEvent>) -> SpecResult {
    g.check_well_formed()?;
    check_matches(g)?;
    check_injective(g)?;
    check_so_lhb(g)?;
    check_fifo(g)?;
    check_empdeq(g)?;
    Ok(())
}

/// Checks `QueueConsistent` on every commit-step prefix of the graph, not
/// just the final graph — consistency must hold *invariantly* (it is
/// carried by the `Queue(q, G)` ownership at every step).
pub fn check_queue_consistent_prefixes(g: &Graph<QueueEvent>) -> SpecResult {
    let mut steps: Vec<u64> = g.iter().map(|(_, e)| e.step).collect();
    steps.push(u64::MAX);
    steps.sort_unstable();
    steps.dedup();
    for &s in &steps {
        check_queue_consistent(&g.prefix_at(s))?;
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
    fn graph(events: &[(QueueEvent, u64, &[u64])], so: &[(u64, u64)]) -> Graph<QueueEvent> {
        let mut g = Graph::new();
        for (i, (ty, step, preds)) in events.iter().enumerate() {
            let mut lv: BTreeSet<EventId> = preds.iter().map(|&p| id(p)).collect();
            // Close under lhb.
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

    use QueueEvent::*;

    #[test]
    fn sequential_fifo_history_is_consistent() {
        let v = |i| Val::Int(i);
        let g = graph(
            &[
                (Enq(v(1)), 1, &[]),
                (Enq(v(2)), 2, &[0]),
                (Deq(v(1)), 3, &[0, 1]),
                (Deq(v(2)), 4, &[0, 1, 2]),
            ],
            &[(0, 2), (1, 3)],
        );
        check_queue_consistent(&g).unwrap();
        check_queue_consistent_prefixes(&g).unwrap();
    }

    #[test]
    fn value_mismatch_fails_matches() {
        let g = graph(
            &[(Enq(Val::Int(1)), 1, &[]), (Deq(Val::Int(9)), 2, &[0])],
            &[(0, 1)],
        );
        assert_eq!(check_matches(&g).unwrap_err().rule, "QUEUE-MATCHES");
    }

    #[test]
    fn dequeue_before_enqueue_fails_matches() {
        let g = graph(
            &[(Deq(Val::Int(1)), 1, &[]), (Enq(Val::Int(1)), 2, &[])],
            &[(1, 0)],
        );
        assert_eq!(check_matches(&g).unwrap_err().rule, "QUEUE-MATCHES");
    }

    #[test]
    fn double_dequeue_fails_injectivity() {
        let v = Val::Int(7);
        let g = graph(
            &[(Enq(v), 1, &[]), (Deq(v), 2, &[0]), (Deq(v), 3, &[0])],
            &[(0, 1), (0, 2)],
        );
        assert_eq!(check_injective(&g).unwrap_err().rule, "QUEUE-INJ");
    }

    #[test]
    fn sourceless_dequeue_fails_injectivity() {
        let g = graph(&[(Deq(Val::Int(1)), 1, &[])], &[]);
        assert_eq!(check_injective(&g).unwrap_err().rule, "QUEUE-INJ");
    }

    #[test]
    fn unsynchronized_match_fails_so_lhb() {
        let v = Val::Int(7);
        // so edge without lhb: the dequeue never acquired the enqueue.
        let g = graph(&[(Enq(v), 1, &[]), (Deq(v), 2, &[])], &[(0, 1)]);
        assert_eq!(check_so_lhb(&g).unwrap_err().rule, "QUEUE-SO-LHB");
    }

    #[test]
    fn fifo_violation_detected() {
        // e0 lhb e1 (same producer), but only e1 is dequeued.
        let g = graph(
            &[
                (Enq(Val::Int(1)), 1, &[]),
                (Enq(Val::Int(2)), 2, &[0]),
                (Deq(Val::Int(2)), 3, &[0, 1]),
            ],
            &[(1, 2)],
        );
        assert_eq!(check_fifo(&g).unwrap_err().rule, "QUEUE-FIFO");
    }

    #[test]
    fn fifo_requires_older_dequeue_to_commit_first() {
        // Both dequeued, but the newer enqueue's dequeue commits first.
        let g = graph(
            &[
                (Enq(Val::Int(1)), 1, &[]),
                (Enq(Val::Int(2)), 2, &[0]),
                (Deq(Val::Int(2)), 3, &[0, 1]),
                (Deq(Val::Int(1)), 4, &[0, 1]),
            ],
            &[(1, 2), (0, 3)],
        );
        assert_eq!(check_fifo(&g).unwrap_err().rule, "QUEUE-FIFO");
    }

    #[test]
    fn fifo_accepts_unordered_enqueues() {
        // Concurrent enqueues (no lhb between them): either dequeue order
        // is fine.
        let g = graph(
            &[
                (Enq(Val::Int(1)), 1, &[]),
                (Enq(Val::Int(2)), 2, &[]),
                (Deq(Val::Int(2)), 3, &[1]),
                (Deq(Val::Int(1)), 4, &[0]),
            ],
            &[(1, 2), (0, 3)],
        );
        check_fifo(&g).unwrap();
    }

    #[test]
    fn empdeq_violation_detected() {
        // The empty dequeue happens-after an un-dequeued enqueue.
        let g = graph(&[(Enq(Val::Int(1)), 1, &[]), (EmpDeq, 2, &[0])], &[]);
        assert_eq!(check_empdeq(&g).unwrap_err().rule, "QUEUE-EMPDEQ");
    }

    #[test]
    fn empdeq_ok_when_not_synchronized() {
        // The enqueue is concurrent (not in the empty dequeue's logview):
        // a weak dequeue may miss it.
        let g = graph(&[(Enq(Val::Int(1)), 1, &[]), (EmpDeq, 2, &[])], &[]);
        check_empdeq(&g).unwrap();
    }

    #[test]
    fn empdeq_ok_when_element_was_taken() {
        let v = Val::Int(1);
        let g = graph(
            &[(Enq(v), 1, &[]), (Deq(v), 2, &[0]), (EmpDeq, 3, &[0, 1])],
            &[(0, 1)],
        );
        check_queue_consistent(&g).unwrap();
    }

    #[test]
    fn prefix_check_catches_late_repair() {
        // Final graph is FIFO-consistent, but at d(2)'s commit the older
        // enqueue had not yet been dequeued: the prefix check catches it.
        let g = graph(
            &[
                (Enq(Val::Int(1)), 1, &[]),
                (Enq(Val::Int(2)), 2, &[0]),
                (Deq(Val::Int(2)), 3, &[0, 1]),
                (Deq(Val::Int(1)), 4, &[0, 1]),
            ],
            &[(1, 2), (0, 3)],
        );
        // Even the final check sees the step ordering here:
        assert_eq!(check_queue_consistent(&g).unwrap_err().rule, "QUEUE-FIFO");
        assert!(check_queue_consistent_prefixes(&g).is_err());
    }

    #[test]
    fn empty_graph_is_consistent() {
        check_queue_consistent(&Graph::new()).unwrap();
        check_queue_consistent_prefixes(&Graph::new()).unwrap();
    }
}
