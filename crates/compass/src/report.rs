//! Failure reports: everything needed to understand one violating
//! execution in a single artefact.

use std::fmt::Debug;

use orc11::{render_ops, OpRecord};

use crate::dot::to_dot;
use crate::graph::Graph;
use crate::spec::Violation;

/// Renders a self-contained failure report: the violated clause, the
/// involved events (flagged in the event listing), the full graph, the
/// instruction log (if recorded — see `orc11::Config::record_ops`), and a
/// Graphviz rendering for visual inspection.
///
/// ```
/// use compass::queue_spec::{check_queue_consistent, QueueEvent};
/// use compass::report::render_failure;
/// use compass::{EventId, Graph};
/// use orc11::Val;
///
/// let mut g = Graph::new();
/// g.add_event(QueueEvent::Enq(Val::Int(1)), 1, 1,
///             [EventId::from_raw(0)]);
/// g.add_event(QueueEvent::Deq(Val::Int(9)), 2, 2,
///             [EventId::from_raw(0), EventId::from_raw(1)]);
/// g.add_so(EventId::from_raw(0), EventId::from_raw(1));
/// let violation = check_queue_consistent(&g).unwrap_err();
/// let report = render_failure(&g, &violation, &[]);
/// assert!(report.contains("QUEUE-MATCHES"));
/// assert!(report.contains("⚠"));
/// assert!(report.contains("digraph"));
/// ```
pub fn render_failure<T: Debug>(g: &Graph<T>, violation: &Violation, ops: &[OpRecord]) -> String {
    let mut out = String::new();
    out.push_str("════ CONSISTENCY VIOLATION ════\n");
    out.push_str(&format!("{violation}\n\n"));
    out.push_str("── event graph ──\n");
    for (id, ev) in g.iter() {
        let marker = if violation.events.contains(&id) {
            "⚠ "
        } else {
            "  "
        };
        out.push_str(&format!(
            "{marker}{id}: {:?} by t{} @step {} lhb-preds {:?}\n",
            ev.ty,
            ev.tid,
            ev.step,
            g.logview_ids(id).filter(|&e| e != id).collect::<Vec<_>>()
        ));
    }
    out.push_str(&format!("  so: {:?}\n", g.so()));
    if !ops.is_empty() {
        out.push_str("\n── instruction log ──\n");
        out.push_str(&render_ops(ops));
    }
    out.push_str("\n── graphviz ──\n");
    out.push_str(&to_dot(g, "violation"));
    out
}

/// Renders a plain-prose forensic narrative of a violation: which
/// clause fired, which concrete events witness it, and how those events
/// relate in specification order (`so`) and logical happens-before
/// (`lhb`). Replay bundles write this as `narrative.txt` next to the
/// full `report.txt`, so the first thing a reader sees explains the
/// failure instead of dumping the whole execution. Deterministic: a
/// pure function of the graph and the violation.
pub fn render_narrative<T: Debug>(g: &Graph<T>, violation: &Violation) -> String {
    let mut out = String::new();
    out.push_str("════ VIOLATION NARRATIVE ════\n");
    out.push_str(&format!(
        "Clause {} rejected this execution:\n  {}\n",
        violation.rule, violation.message
    ));
    let known: Vec<_> = violation
        .events
        .iter()
        .copied()
        .filter(|id| id.index() < g.len())
        .collect();
    if known.is_empty() {
        out.push_str(
            "\nThe clause did not single out specific events; inspect the full\n\
             event listing in report.txt and the rendering in graph.dot.\n",
        );
        return out;
    }
    out.push_str(&format!("\nOffending events ({}):\n", known.len()));
    for &id in &known {
        let ev = g.event(id);
        out.push_str(&format!(
            "  ⚠ {id}: {:?} by thread {} (commit step {})\n",
            ev.ty, ev.tid, ev.step
        ));
        if let Some(s) = g.so_source(id) {
            out.push_str(&format!(
                "      so-predecessor: {s} ({:?})\n",
                g.event(s).ty
            ));
        }
        if let Some(t) = g.so_target(id) {
            out.push_str(&format!("      so-successor: {t} ({:?})\n", g.event(t).ty));
        }
    }
    out.push_str("\nHow they relate:\n");
    for (i, &a) in known.iter().enumerate() {
        for &b in &known[i + 1..] {
            if a == b {
                continue;
            }
            let line = if g.so().contains(&(a, b)) {
                format!("  {a} precedes {b} in specification order (so).\n")
            } else if g.so().contains(&(b, a)) {
                format!("  {b} precedes {a} in specification order (so).\n")
            } else if g.lhb(a, b) {
                format!("  {a} happens before {b} (lhb), yet the clause is violated.\n")
            } else if g.lhb(b, a) {
                format!("  {b} happens before {a} (lhb), yet the clause is violated.\n")
            } else {
                format!("  {a} and {b} are lhb-unordered (concurrent).\n")
            };
            out.push_str(&line);
        }
    }
    out.push_str(&format!(
        "\nNo ordering of these events admitted by the specification explains\n\
         the observed values, so {} fired. graph.dot draws the\n\
         execution with the offending events filled red.\n",
        violation.rule
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::queue_spec::{check_queue_consistent, QueueEvent};
    use orc11::Val;

    #[test]
    fn report_includes_ops_when_recorded() {
        use orc11::{random_strategy, run_model, BodyFn, Mode};
        // Produce a real execution with op recording and a (synthetic)
        // violation referencing its graph.
        let out = run_model(
            &orc11::Config {
                record_ops: true,
                ..orc11::Config::default()
            },
            random_strategy(0),
            |ctx| ctx.alloc("x", Val::Int(0)),
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, &x, _| {
                ctx.write(x, Val::Int(1), Mode::Release);
            },
        );
        let mut g: Graph<QueueEvent> = Graph::new();
        g.add_event(QueueEvent::Deq(Val::Int(1)), 1, 1, [EventId::from_raw(0)]);
        let v = check_queue_consistent(&g).unwrap_err();
        let report = render_failure(&g, &v, &out.ops);
        assert!(report.contains("instruction log"));
        assert!(report.contains("write^rel x"));
        assert!(report.contains(v.rule));
    }

    #[test]
    fn narrative_names_the_events_and_their_orderings() {
        use orc11::Val;
        let mut g: Graph<QueueEvent> = Graph::new();
        g.add_event(QueueEvent::Enq(Val::Int(1)), 1, 1, [EventId::from_raw(0)]);
        g.add_event(
            QueueEvent::Deq(Val::Int(9)),
            2,
            2,
            [EventId::from_raw(0), EventId::from_raw(1)],
        );
        g.add_so(EventId::from_raw(0), EventId::from_raw(1));
        let v = check_queue_consistent(&g).unwrap_err();
        let n = render_narrative(&g, &v);
        assert!(n.contains(v.rule), "{n}");
        assert!(n.contains("Offending events"), "{n}");
        assert!(n.contains("⚠ "), "{n}");
        // The events are so-related, and the narrative says so.
        assert!(
            n.contains("specification order (so)") || n.contains("happens before"),
            "{n}"
        );
        // Deterministic: same inputs, same text.
        assert_eq!(n, render_narrative(&g, &v));
    }

    #[test]
    fn narrative_without_flagged_events_points_at_the_report() {
        let g: Graph<QueueEvent> = Graph::new();
        let v = crate::spec::Violation::new("TEST-RULE", "synthetic", vec![]);
        let n = render_narrative(&g, &v);
        assert!(n.contains("TEST-RULE"));
        assert!(n.contains("report.txt"));
    }
}
