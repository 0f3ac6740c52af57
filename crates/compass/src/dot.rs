//! Graphviz DOT export for event graphs.
//!
//! Renders a graph the way the paper draws them: events as nodes
//! (labelled with their type, thread, and commit step), solid edges for
//! `so`, and dashed edges for the transitive reduction of `lhb` — handy
//! for inspecting a violating execution:
//!
//! ```text
//! cargo run --release -p compass-bench --bin e1_mp | ...
//! dot -Tpng graph.dot -o graph.png
//! ```

use std::fmt::Debug;
use std::fmt::Write as _;

use crate::bits;
use crate::event::EventId;
use crate::graph::Graph;

/// Renders `g` as a Graphviz digraph named `name`.
///
/// ```
/// use compass::dot::to_dot;
/// use compass::{EventId, Graph};
///
/// let mut g: Graph<&str> = Graph::new();
/// let a = g.add_event("Enq(1)", 1, 5, [EventId::from_raw(0)]);
/// let b = g.add_event("Deq(1)", 2, 9,
///                     [EventId::from_raw(0), EventId::from_raw(1)]);
/// g.add_so(a, b);
/// let dot = to_dot(&g, "mp");
/// assert!(dot.contains("digraph mp"));
/// assert!(dot.contains("e0 -> e1"));
/// ```
pub fn to_dot<T: Debug>(g: &Graph<T>, name: &str) -> String {
    to_dot_flagged(g, name, &[])
}

/// [`to_dot`] with the `flagged` events — a violation's offending
/// events — drawn filled red, so the forensic rendering in a replay
/// bundle points straight at the clause's witnesses. With `flagged`
/// empty the output is byte-identical to [`to_dot`].
pub fn to_dot_flagged<T: Debug>(g: &Graph<T>, name: &str, flagged: &[EventId]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    for (id, ev) in g.iter() {
        let mark = if flagged.contains(&id) {
            ", style=filled, fillcolor=\"#ffd3d3\", color=red"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {id} [label=\"{id}: {:?}\\nt{} @{}\"{mark}];",
            ev.ty, ev.tid, ev.step
        );
    }
    // so edges, solid.
    for &(a, b) in g.so() {
        let _ = writeln!(out, "  {a} -> {b} [color=blue, penwidth=2];");
    }
    // lhb, transitively reduced, dashed (skip edges implied by others and
    // mutual helping pairs' back-edges beyond id order). `e -> d` is
    // implied when `e` lies strictly below another predecessor `m` of
    // `d`: one union of the predecessors' rows per event answers that
    // for every `e` at once.
    let mut below = Vec::new();
    for (d, _) in g.iter() {
        let preds: Vec<EventId> = bits::ones(g.row(d))
            .map(|e| EventId::from_raw(e as u64))
            .filter(|&e| e != d && !(e > d && g.lhb(d, e)))
            .collect();
        below.clear();
        below.resize(g.row(d).len(), 0u64);
        for &m in &preds {
            let own = bits::test(&below, m.index());
            for (acc, &word) in below.iter_mut().zip(g.row(m)) {
                *acc |= word;
            }
            // `m` is in its own row but not strictly below itself.
            if !own {
                bits::clear(&mut below, m.index());
            }
        }
        for &e in &preds {
            if !bits::test(&below, e.index()) && !g.so().contains(&(e, d)) {
                let _ = writeln!(out, "  {e} -> {d} [style=dashed, color=gray40];");
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn lv(ids: &[u64]) -> BTreeSet<EventId> {
        ids.iter().map(|&i| EventId::from_raw(i)).collect()
    }

    #[test]
    fn renders_nodes_and_edges() {
        let mut g: Graph<&str> = Graph::new();
        g.add_event("a", 1, 1, lv(&[0]));
        g.add_event("b", 1, 2, lv(&[0, 1]));
        g.add_event("c", 2, 3, lv(&[0, 1, 2]));
        g.add_so(EventId::from_raw(0), EventId::from_raw(2));
        let dot = to_dot(&g, "t");
        assert!(dot.contains("e0 [label="));
        assert!(dot.contains("e0 -> e2 [color=blue"));
        // Transitive reduction: e0 -> e1 dashed, e1 -> e2 dashed, but NOT
        // e0 -> e2 dashed (implied via e1, and already an so edge).
        assert!(dot.contains("e0 -> e1 [style=dashed"));
        assert!(dot.contains("e1 -> e2 [style=dashed"));
        assert!(!dot.contains("e0 -> e2 [style=dashed"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn helping_pairs_render_without_cycles() {
        let mut g: Graph<&str> = Graph::new();
        g.add_event("x1", 1, 5, lv(&[0, 1]));
        g.add_event("x2", 2, 5, lv(&[0, 1]));
        g.add_so(EventId::from_raw(0), EventId::from_raw(1));
        g.add_so(EventId::from_raw(1), EventId::from_raw(0));
        let dot = to_dot(&g, "pair");
        // Both so edges drawn; no dashed self/back lhb edge for the pair.
        assert!(dot.contains("e0 -> e1 [color=blue"));
        assert!(dot.contains("e1 -> e0 [color=blue"));
        assert!(!dot.contains("e1 -> e0 [style=dashed"));
    }

    #[test]
    fn flagged_events_render_filled_and_empty_flags_change_nothing() {
        let mut g: Graph<&str> = Graph::new();
        g.add_event("a", 1, 1, lv(&[0]));
        g.add_event("b", 2, 2, lv(&[0, 1]));
        let flagged = to_dot_flagged(&g, "t", &[EventId::from_raw(1)]);
        assert!(
            flagged.contains(", style=filled, fillcolor=\"#ffd3d3\", color=red];"),
            "{flagged}"
        );
        // Only the flagged node is highlighted.
        assert_eq!(flagged.matches("style=filled").count(), 1, "{flagged}");
        assert!(flagged.contains("e1 [label=\"e1: "), "{flagged}");
        assert_eq!(to_dot_flagged(&g, "t", &[]), to_dot(&g, "t"));
    }

    #[test]
    fn empty_graph_renders() {
        let g: Graph<&str> = Graph::new();
        let dot = to_dot(&g, "empty");
        assert!(dot.starts_with("digraph empty {"));
    }
}
