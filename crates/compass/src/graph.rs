//! Event graphs: events plus the `so` matching relation.

use std::collections::BTreeSet;
use std::fmt;

use orc11::ThreadId;

use crate::bits;
use crate::event::{Event, EventId};
use crate::spec::{SpecResult, Violation};

/// A library object's event graph (the paper's `G ∈ Graph`, §3.1): the
/// events committed so far and the *synchronized-with* relation `so`
/// between matched operations (enqueue/dequeue, push/pop, or a pair of
/// successful exchanges).
///
/// Local happens-before (`lhb`) is not a relation of its own:
/// `(e, d) ∈ G.lhb` iff `e ∈ G(d).logview` (see [`Graph::lhb`]). The
/// graph stores each event's logview as one dense bit row (bit `e` of
/// row `d` ⇔ `e ∈ logview(d)`), so an `lhb` question is a bit test and a
/// closure or readiness question a few word operations per row. The set
/// form is derived for printing ([`Graph::logview`]); `==` and `{:?}`
/// compare and print the logviews as sets, as if they were stored.
///
/// ```
/// use compass::{EventId, Graph};
///
/// let mut g: Graph<&str> = Graph::new();
/// let e = g.add_event("enq", 1, 10, [EventId::from_raw(0)]);
/// let d = g.add_event("deq", 2, 20, [EventId::from_raw(0), EventId::from_raw(1)]);
/// g.add_so(e, d);
/// assert!(g.lhb(e, d));
/// assert_eq!(g.so_source(d), Some(e));
/// g.check_well_formed().unwrap();
/// ```
#[derive(Clone, Default)]
pub struct Graph<T> {
    events: Vec<Event<T>>,
    so: BTreeSet<(EventId, EventId)>,
    /// Row `d` is `rows[d * stride..][..stride]`. Flat, so a graph of up
    /// to 64 events holds one word per event in one allocation.
    rows: Vec<u64>,
    /// Words per row: `events.len().div_ceil(64)`.
    stride: usize,
    /// The logview entries `(d, e)` the rows cannot hold because `e` is
    /// not an event (yet), sorted by `(d, e)` without duplicates. A
    /// helping pair built by hand puts the second event's id in the first
    /// one's logview, and the entry moves into the rows when that event
    /// is added; an id that never becomes an event stays here, which is
    /// what `WF-LOGVIEW` reports.
    forward: Vec<(EventId, EventId)>,
}

impl<T: PartialEq> PartialEq for Graph<T> {
    fn eq(&self, other: &Self) -> bool {
        // Equal lengths give equal strides, and `forward` is canonical,
        // so equal rows and forward lists are equal logviews.
        self.events == other.events
            && self.so == other.so
            && self.rows == other.rows
            && self.forward == other.forward
    }
}

impl<T: Eq> Eq for Graph<T> {}

impl<T: fmt::Debug> fmt::Debug for Graph<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Printed as if each event stored its logview set.
        struct Logview<'g, T>(&'g Graph<T>, EventId);
        impl<T> fmt::Debug for Logview<'_, T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.logview_ids(self.1)).finish()
            }
        }
        struct Stored<'g, T>(&'g Graph<T>, EventId);
        impl<T: fmt::Debug> fmt::Debug for Stored<'_, T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let ev = self.0.event(self.1);
                f.debug_struct("Event")
                    .field("ty", &ev.ty)
                    .field("tid", &ev.tid)
                    .field("step", &ev.step)
                    .field("logview", &Logview(self.0, self.1))
                    .finish()
            }
        }
        struct Events<'g, T>(&'g Graph<T>);
        impl<T: fmt::Debug> fmt::Debug for Events<'_, T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list()
                    .entries(self.0.iter().map(|(id, _)| Stored(self.0, id)))
                    .finish()
            }
        }
        f.debug_struct("Graph")
            .field("events", &Events(self))
            .field("so", &self.so)
            .finish()
    }
}

impl<T> Graph<T> {
    /// An empty graph.
    pub fn new() -> Self {
        Graph {
            events: Vec::new(),
            so: BTreeSet::new(),
            rows: Vec::new(),
            stride: 0,
            forward: Vec::new(),
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the graph has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The id the next committed event will get.
    pub fn next_id(&self) -> EventId {
        EventId::from_raw(self.events.len() as u64)
    }

    /// The event with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the graph.
    pub fn event(&self, id: EventId) -> &Event<T> {
        &self.events[id.index()]
    }

    /// Iterates over `(id, event)` pairs in id (commit) order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &Event<T>)> {
        self.events
            .iter()
            .enumerate()
            .map(|(i, e)| (EventId::from_raw(i as u64), e))
    }

    /// The `so` relation.
    pub fn so(&self) -> &BTreeSet<(EventId, EventId)> {
        &self.so
    }

    /// Local happens-before: `e` happens before `d` (strictly).
    ///
    /// # Panics
    ///
    /// Panics if `d` is not in the graph.
    pub fn lhb(&self, e: EventId, d: EventId) -> bool {
        e != d && self.in_logview(e, d)
    }

    /// Whether `e ∈ logview(d)` (`d` itself included when the graph is
    /// well formed).
    ///
    /// # Panics
    ///
    /// Panics if `d` is not in the graph.
    pub fn in_logview(&self, e: EventId, d: EventId) -> bool {
        if e.index() < self.events.len() {
            bits::test(self.row(d), e.index())
        } else {
            self.forward.binary_search(&(d, e)).is_ok()
        }
    }

    /// Whether `a` and `b` have the same logview.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not in the graph.
    pub fn same_logview(&self, a: EventId, b: EventId) -> bool {
        self.row(a) == self.row(b) && self.forward_of(a).eq(self.forward_of(b))
    }

    /// `d`'s logview as a set — for printers and tests; checks ask
    /// [`Graph::lhb`] or [`Graph::in_logview`], which allocate nothing.
    /// The set is the row's bits plus the ids `d`'s logview names that
    /// are not events (yet).
    ///
    /// # Panics
    ///
    /// Panics if `d` is not in the graph.
    pub fn logview(&self, d: EventId) -> BTreeSet<EventId> {
        self.logview_ids(d).collect()
    }

    /// The ids of `d`'s logview, ascending, without allocating.
    pub(crate) fn logview_ids(&self, d: EventId) -> impl Iterator<Item = EventId> + '_ {
        bits::ones(self.row(d))
            .map(|e| EventId::from_raw(e as u64))
            .chain(self.forward_of(d))
    }

    /// The pending forward references of `d`'s logview, ascending.
    fn forward_of(&self, d: EventId) -> impl Iterator<Item = EventId> + '_ {
        let start = self.forward.partition_point(|&(x, _)| x < d);
        self.forward[start..]
            .iter()
            .take_while(move |&&(x, _)| x == d)
            .map(|&(_, e)| e)
    }

    /// The dense form of `d`'s logview: bit `e` is set iff
    /// `e ∈ logview(d)`, for every event `e` of the graph (`d` itself
    /// included). All rows have the same length.
    pub(crate) fn row(&self, d: EventId) -> &[u64] {
        &self.rows[d.index() * self.stride..][..self.stride]
    }

    /// Adds an event whose logview is `logview`; returns its id.
    ///
    /// The ids go into the event's bit row; an id that is not an event
    /// yet (the other half of a helping pair) is kept aside and moves
    /// into the row when that event is added.
    pub fn add_event(
        &mut self,
        ty: T,
        tid: ThreadId,
        step: u64,
        logview: impl IntoIterator<Item = EventId>,
    ) -> EventId {
        let id = self.push_row();
        let stride = self.stride;
        let row = &mut self.rows[id.index() * stride..];
        let pending = self.forward.len();
        for e in logview {
            if e <= id {
                bits::set(row, e.index());
            } else {
                self.forward.push((id, e));
            }
        }
        self.forward[pending..].sort_unstable();
        self.forward.dedup();
        self.resolve_forward(id);
        self.events.push(Event { ty, tid, step });
        id
    }

    /// Adds `events`, committed together at `step`, with one shared
    /// logview: the earlier events whose bits `fill` sets in a zeroed
    /// row (one word per 64 events), plus all of `events`. Returns
    /// their ids.
    pub(crate) fn add_group<const N: usize>(
        &mut self,
        step: u64,
        events: [(ThreadId, T); N],
        fill: impl FnOnce(&mut [u64]),
    ) -> [EventId; N] {
        let first = self.next_id();
        let ids: [EventId; N] = std::array::from_fn(|i| EventId::from_raw(first.raw() + i as u64));
        let Some(&last) = ids.last() else {
            return ids;
        };
        self.push_row();
        while last.index() >= self.stride * 64 {
            self.widen_rows();
        }
        let stride = self.stride;
        let row = first.index() * stride;
        fill(&mut self.rows[row..row + stride]);
        for id in ids {
            bits::set(&mut self.rows[row..], id.index());
        }
        for _ in 1..N {
            self.rows.extend_from_within(row..row + stride);
        }
        for (id, (tid, ty)) in ids.into_iter().zip(events) {
            self.resolve_forward(id);
            self.events.push(Event { ty, tid, step });
        }
        ids
    }

    /// Appends a zeroed row for the next event, widening every row
    /// first if it has no bit for it; returns the next event's id.
    fn push_row(&mut self) -> EventId {
        let id = self.next_id();
        if id.index() == self.stride * 64 {
            self.widen_rows();
        }
        self.rows.resize(self.rows.len() + self.stride, 0);
        id
    }

    /// Moves the forward references to the new event `id` into the rows.
    fn resolve_forward(&mut self, id: EventId) {
        let (rows, stride) = (&mut self.rows, self.stride);
        self.forward.retain(|&(d, e)| {
            if e == id {
                bits::set(&mut rows[d.index() * stride..], id.index());
            }
            e != id
        });
    }

    /// Gives every row one more word. Runs once per 64 events, so the
    /// copying stays a small fraction of filling the rows.
    fn widen_rows(&mut self) {
        let mut rows = Vec::with_capacity(self.rows.len() + self.events.len());
        for row in self.rows.chunks_exact(self.stride.max(1)) {
            rows.extend_from_slice(row);
            rows.push(0);
        }
        self.rows = rows;
        self.stride += 1;
    }

    /// Adds an `so` edge.
    pub fn add_so(&mut self, from: EventId, to: EventId) {
        self.so.insert((from, to));
    }

    /// The unique `so`-successor of `e`, if any (e.g. the dequeue matching
    /// an enqueue).
    pub fn so_target(&self, e: EventId) -> Option<EventId> {
        self.so.iter().find(|&&(a, _)| a == e).map(|&(_, b)| b)
    }

    /// The unique `so`-predecessor of `d`, if any (e.g. the enqueue a
    /// dequeue took its value from).
    pub fn so_source(&self, d: EventId) -> Option<EventId> {
        self.so.iter().find(|&&(_, b)| b == d).map(|&(a, _)| a)
    }

    /// Structural well-formedness of logical views:
    ///
    /// * every id in a logview is an event of the graph;
    /// * every event is in its own logview (the commit observes itself);
    /// * logviews are closed under `lhb` (if `e ∈ logview(d)` then
    ///   `logview(e) ⊆ logview(d)`) — logical views are *views*, i.e.
    ///   downward-closed sets of the lhb partial order.
    ///
    /// Reports the first violation in event order and, per event, in the
    /// order above. The closure test is one row-subset test per `lhb`
    /// pair: `|lhb| · ⌈n/64⌉` word operations.
    pub fn check_well_formed(&self) -> SpecResult {
        let n = self.events.len() as u64;
        for (id, _) in self.iter() {
            // Whatever is still in `forward` never became an event.
            if let Some(&(_, e)) = self.forward.iter().find(|&&(d, _)| d == id) {
                return Err(Violation::new(
                    "WF-LOGVIEW",
                    format!("logview of {id} contains unknown event {e}"),
                    vec![id, e],
                ));
            }
            let row = self.row(id);
            if !bits::test(row, id.index()) {
                return Err(Violation::new(
                    "WF-SELF",
                    format!("event {id} is not in its own logview"),
                    vec![id],
                ));
            }
            for e in bits::ones(row).map(|e| EventId::from_raw(e as u64)) {
                // `id` names no unknown event, so `e` may not either.
                let closed =
                    bits::subset(self.row(e), row) && self.forward.iter().all(|&(d, _)| d != e);
                if !closed {
                    return Err(Violation::new(
                        "WF-CLOSED",
                        format!("logview of {id} contains {e} but not all of {e}'s logview"),
                        vec![id, e],
                    ));
                }
            }
        }
        for &(a, b) in &self.so {
            if a.raw() >= n || b.raw() >= n {
                return Err(Violation::new(
                    "WF-SO",
                    format!("so edge ({a}, {b}) mentions unknown events"),
                    vec![a, b],
                ));
            }
        }
        Ok(())
    }

    /// The subgraph of events satisfying `keep`, with ids compacted (in
    /// id order), logviews and `so` restricted and remapped.
    ///
    /// Useful for checking a property on a projection of the history —
    /// e.g. linearizability of a work-stealing deque's *mutators* only.
    pub fn retain(&self, mut keep: impl FnMut(EventId, &Event<T>) -> bool) -> Graph<T>
    where
        T: Clone,
    {
        // Decide keeps and assign compacted ids first (logviews may refer
        // forward within helping pairs).
        let mut remap: Vec<Option<EventId>> = vec![None; self.events.len()];
        let mut next = 0u64;
        for (id, ev) in self.iter() {
            if keep(id, ev) {
                remap[id.index()] = Some(EventId::from_raw(next));
                next += 1;
            }
        }
        let mut g = Graph::new();
        for (id, ev) in self.iter() {
            if let Some(new_id) = remap[id.index()] {
                let logview = self
                    .logview_ids(id)
                    .filter_map(|e| remap.get(e.index()).copied().flatten())
                    .chain(std::iter::once(new_id));
                g.add_event(ev.ty.clone(), ev.tid, ev.step, logview);
            }
        }
        for &(a, b) in &self.so {
            if let (Some(na), Some(nb)) = (remap[a.index()], remap[b.index()]) {
                g.add_so(na, nb);
            }
        }
        g
    }

    /// The subgraph of events committed strictly before global step
    /// `step`, with `so` restricted accordingly.
    ///
    /// Because ids are assigned in commit order, the prefix keeps ids
    /// stable. Used to check that consistency held *invariantly*, not just
    /// in the final graph.
    pub fn prefix_at(&self, step: u64) -> Graph<T>
    where
        T: Clone,
    {
        let keep = |id: EventId| self.events[id.index()].step < step;
        let mut g = Graph::new();
        for (id, e) in self.iter().take_while(|(_, e)| e.step < step) {
            let logview = self.logview_ids(id).filter(|&x| keep(x));
            g.add_event(e.ty.clone(), e.tid, e.step, logview);
        }
        g.so = self
            .so
            .iter()
            .copied()
            .filter(|&(a, b)| keep(a) && keep(b))
            .collect();
        g
    }
}

impl<T: fmt::Debug> fmt::Display for Graph<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph with {} events:", self.len())?;
        for (id, ev) in self.iter() {
            writeln!(
                f,
                "  {id}: {:?} by t{} @step {} lhb-preds {:?}",
                ev.ty,
                ev.tid,
                ev.step,
                self.logview_ids(id)
                    .filter(|&e| e != id)
                    .collect::<Vec<_>>()
            )?;
        }
        writeln!(f, "  so: {:?}", self.so)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lv(ids: &[u64]) -> BTreeSet<EventId> {
        ids.iter().map(|&i| EventId::from_raw(i)).collect()
    }

    #[test]
    fn add_and_query() {
        let mut g: Graph<&str> = Graph::new();
        let a = g.add_event("enq", 1, 10, lv(&[0]));
        let b = g.add_event("deq", 2, 20, lv(&[0, 1]));
        assert_eq!(g.len(), 2);
        assert_eq!(g.event(a).ty, "enq");
        assert!(g.lhb(a, b));
        assert!(!g.lhb(b, a));
        assert!(!g.lhb(a, a), "lhb is strict");
        g.add_so(a, b);
        assert_eq!(g.so_target(a), Some(b));
        assert_eq!(g.so_source(b), Some(a));
        assert_eq!(g.so_source(a), None);
    }

    #[test]
    fn well_formed_accepts_good_graph() {
        let mut g: Graph<&str> = Graph::new();
        g.add_event("a", 1, 1, lv(&[0]));
        g.add_event("b", 1, 2, lv(&[0, 1]));
        g.check_well_formed().unwrap();
    }

    #[test]
    fn well_formed_rejects_missing_self() {
        let mut g: Graph<&str> = Graph::new();
        g.add_event("a", 1, 1, lv(&[]));
        let err = g.check_well_formed().unwrap_err();
        assert_eq!(err.rule, "WF-SELF");
    }

    #[test]
    fn well_formed_rejects_unknown_event() {
        let mut g: Graph<&str> = Graph::new();
        g.add_event("a", 1, 1, lv(&[0, 7]));
        assert_eq!(g.check_well_formed().unwrap_err().rule, "WF-LOGVIEW");
    }

    #[test]
    fn well_formed_rejects_unclosed_logview() {
        let mut g: Graph<&str> = Graph::new();
        g.add_event("a", 1, 1, lv(&[0]));
        g.add_event("b", 2, 2, lv(&[0, 1]));
        // c sees b but not a, although a ∈ logview(b): not a view.
        g.add_event("c", 3, 3, lv(&[1, 2]));
        assert_eq!(g.check_well_formed().unwrap_err().rule, "WF-CLOSED");
    }

    #[test]
    fn mutual_logviews_are_well_formed() {
        // A helping pair: both events share the same logview.
        let mut g: Graph<&str> = Graph::new();
        g.add_event("x1", 1, 5, lv(&[0, 1]));
        g.add_event("x2", 2, 5, lv(&[0, 1]));
        g.check_well_formed().unwrap();
    }

    #[test]
    fn prefix_filters_events_and_so() {
        let mut g: Graph<&str> = Graph::new();
        let a = g.add_event("a", 1, 1, lv(&[0]));
        let b = g.add_event("b", 2, 5, lv(&[0, 1]));
        g.add_so(a, b);
        let p = g.prefix_at(5);
        assert_eq!(p.len(), 1);
        assert!(p.so().is_empty());
        let full = g.prefix_at(6);
        assert_eq!(full.len(), 2);
        assert_eq!(full.so().len(), 1);
        full.check_well_formed().unwrap();
    }
}
