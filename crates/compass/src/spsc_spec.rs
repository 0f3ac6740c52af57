//! Derived single-producer single-consumer queue specs (§3.2).
//!
//! "We use the `LAT_hb` specs for queues ... to derive the *stronger*
//! `LAT_hb`-style specs for SPSC queues, simply by building a concurrent
//! SPSC client protocol. In this derivation, thanks to logical atomicity,
//! at every commit point of a successful dequeue we can easily match it
//! up with the right enqueue and thus prove FIFO."
//!
//! Under the SPSC protocol (all enqueues by one thread, all dequeues by
//! another), the general graph conditions *imply* a much stronger shape,
//! checked here directly:
//!
//! * `SPSC-ROLES`: one enqueuer thread, one dequeuer thread;
//! * `SPSC-TOTAL-FIFO`: the i-th successful dequeue matches the i-th
//!   enqueue — the total, index-aligned FIFO of a sequential queue;
//! * `SPSC-PO`: per-thread events are lhb-ordered (program order is in
//!   the logical views).
//!
//! [`derive_spsc`] is the executable form of the paper's derivation: it
//! *proves* (checks, on the given graph) that general queue consistency
//! plus the SPSC role discipline yields the strong spec.

use crate::event::EventId;
use crate::graph::Graph;
use crate::queue_spec::{check_queue_consistent, QueueEvent};
use crate::spec::{SpecResult, Violation};

/// SPSC-ROLES: all enqueues from one thread, all (successful or empty)
/// dequeues from another.
pub fn check_roles(g: &Graph<QueueEvent>) -> SpecResult {
    let mut producer = None;
    let mut consumer = None;
    for (id, ev) in g.iter() {
        let slot = match ev.ty {
            QueueEvent::Enq(_) => &mut producer,
            QueueEvent::Deq(_) | QueueEvent::EmpDeq => &mut consumer,
        };
        match slot {
            None => *slot = Some(ev.tid),
            Some(t) if *t == ev.tid => {}
            Some(t) => {
                return Err(Violation::new(
                    "SPSC-ROLES",
                    format!(
                        "event {id} by thread {} but the role belongs to {t}",
                        ev.tid
                    ),
                    vec![id],
                ))
            }
        }
    }
    Ok(())
}

/// SPSC-TOTAL-FIFO: the k-th successful dequeue (in commit order — which
/// is the consumer's program order under SPSC) takes the k-th enqueue.
pub fn check_total_fifo(g: &Graph<QueueEvent>) -> SpecResult {
    let enqs: Vec<EventId> = g
        .iter()
        .filter(|(_, e)| matches!(e.ty, QueueEvent::Enq(_)))
        .map(|(id, _)| id)
        .collect();
    let deqs: Vec<EventId> = g
        .iter()
        .filter(|(_, e)| matches!(e.ty, QueueEvent::Deq(_)))
        .map(|(id, _)| id)
        .collect();
    for (k, &d) in deqs.iter().enumerate() {
        let Some(src) = g.so_source(d) else {
            return Err(Violation::new(
                "SPSC-TOTAL-FIFO",
                format!("dequeue {d} has no source"),
                vec![d],
            ));
        };
        if enqs.get(k) != Some(&src) {
            return Err(Violation::new(
                "SPSC-TOTAL-FIFO",
                format!(
                    "dequeue #{k} ({d}) took {src}, expected the #{k} enqueue {:?}",
                    enqs.get(k)
                ),
                vec![d, src],
            ));
        }
    }
    Ok(())
}

/// SPSC-PO: each thread's events appear in each other's logical views in
/// commit order (program order is part of lhb).
pub fn check_program_order(g: &Graph<QueueEvent>) -> SpecResult {
    let mut last_by_tid: std::collections::HashMap<usize, EventId> = Default::default();
    for (id, ev) in g.iter() {
        if let Some(&prev) = last_by_tid.get(&ev.tid) {
            if !g.lhb(prev, id) {
                return Err(Violation::new(
                    "SPSC-PO",
                    format!(
                        "{prev} and {id} by thread {} lack a program-order lhb edge",
                        ev.tid
                    ),
                    vec![prev, id],
                ));
            }
        }
        last_by_tid.insert(ev.tid, id);
    }
    Ok(())
}

/// The derived strong SPSC spec: general queue consistency plus the
/// SPSC-specific clauses. This is what the paper's §3.2 derivation
/// guarantees for any `LAT_hb`-satisfying queue used under the SPSC
/// protocol.
pub fn check_spsc_consistent(g: &Graph<QueueEvent>) -> SpecResult {
    check_queue_consistent(g)?;
    check_roles(g)?;
    check_program_order(g)?;
    check_total_fifo(g)?;
    Ok(())
}

/// The derivation itself, as an executable argument: *given* that the
/// graph satisfies the general conditions and the role discipline, the
/// strong total FIFO must follow. Returns `Err` with the offending
/// premise if the input does not satisfy the premises; panics (with a
/// counterexample) if the derivation's conclusion fails while the
/// premises hold — which, per the paper, cannot happen.
pub fn derive_spsc(g: &Graph<QueueEvent>) -> SpecResult {
    check_queue_consistent(g)?;
    check_roles(g)?;
    check_program_order(g)?;
    if let Err(v) = check_total_fifo(g) {
        unreachable!("§3.2 derivation failed: premises hold but total FIFO does not: {v}\n{g}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orc11::Val;
    use std::collections::BTreeSet;

    fn id(i: u64) -> EventId {
        EventId::from_raw(i)
    }

    /// SPSC history: producer tid 1 enqueues, consumer tid 2 dequeues.
    fn spsc_graph(pairs: usize) -> Graph<QueueEvent> {
        let mut g = Graph::new();
        let mut prod_view: BTreeSet<EventId> = BTreeSet::new();
        for i in 0..pairs {
            let e = g.next_id();
            prod_view.insert(e);
            g.add_event(
                QueueEvent::Enq(Val::Int(i as i64)),
                1,
                (i + 1) as u64,
                prod_view.clone(),
            );
        }
        let mut cons_view: BTreeSet<EventId> = BTreeSet::new();
        for i in 0..pairs {
            let d = g.next_id();
            let src = id(i as u64);
            cons_view.insert(d);
            cons_view.insert(src);
            cons_view.extend(g.logview(src));
            g.add_event(
                QueueEvent::Deq(Val::Int(i as i64)),
                2,
                (pairs + i + 1) as u64,
                cons_view.clone(),
            );
            g.add_so(src, d);
        }
        g
    }

    #[test]
    fn spsc_history_satisfies_derived_spec() {
        let g = spsc_graph(4);
        check_spsc_consistent(&g).unwrap();
        derive_spsc(&g).unwrap();
    }

    #[test]
    fn third_thread_breaks_roles() {
        let mut g = spsc_graph(2);
        g.add_event(QueueEvent::Enq(Val::Int(9)), 3, 99, [g.next_id()]);
        assert_eq!(check_roles(&g).unwrap_err().rule, "SPSC-ROLES");
    }

    #[test]
    fn out_of_order_match_breaks_total_fifo() {
        // Build an artificial graph where the consumer takes enqueue #1
        // before #0 (this also violates general FIFO — the point of the
        // test is the specific SPSC clause).
        let mut g = Graph::new();
        let lv = |ids: &[u64]| -> BTreeSet<EventId> { ids.iter().map(|&i| id(i)).collect() };
        g.add_event(QueueEvent::Enq(Val::Int(0)), 1, 1, lv(&[0]));
        g.add_event(QueueEvent::Enq(Val::Int(1)), 1, 2, lv(&[0, 1]));
        g.add_event(QueueEvent::Deq(Val::Int(1)), 2, 3, lv(&[0, 1, 2]));
        g.add_so(id(1), id(2));
        assert_eq!(check_total_fifo(&g).unwrap_err().rule, "SPSC-TOTAL-FIFO");
    }

    #[test]
    fn missing_po_edge_detected() {
        let mut g = Graph::new();
        let lv = |ids: &[u64]| -> BTreeSet<EventId> { ids.iter().map(|&i| id(i)).collect() };
        g.add_event(QueueEvent::Enq(Val::Int(0)), 1, 1, lv(&[0]));
        // Same thread, but the second event's logview omits the first.
        g.add_event(QueueEvent::Enq(Val::Int(1)), 1, 2, lv(&[1]));
        assert_eq!(check_program_order(&g).unwrap_err().rule, "SPSC-PO");
    }

    #[test]
    fn empty_graph_is_spsc_consistent() {
        check_spsc_consistent(&Graph::new()).unwrap();
    }
}
