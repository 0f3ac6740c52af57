//! Linearizable histories (`LAT_hb^hist`, §3.3): searching for a total
//! order `to` that *respects* (but need not imply) local happens-before
//! and interprets to a sequential abstract state.

use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;

use orc11::Val;

use crate::bits;
use crate::event::EventId;
use crate::graph::Graph;
use crate::queue_spec::QueueEvent;
use crate::spec::{SpecResult, Violation};
use crate::stack_spec::StackEvent;

/// A sequential interpretation of events (the paper's `interp(to, vs)`):
/// applies one event to an abstract state, failing if the event is not
/// enabled.
pub trait SeqInterp {
    /// The event type.
    type Ev;
    /// The abstract state (`vs`).
    type State: Clone + Eq + Hash + Default + fmt::Debug;

    /// Applies `ev` to `st`, or `None` if the sequential semantics forbids
    /// it (e.g. `Pop(v)` when `v` is not on top).
    fn apply(&self, st: &Self::State, ev: &Self::Ev) -> Option<Self::State>;

    /// Whether `ev` is read-only (does not modify the abstract state) —
    /// e.g. an empty dequeue. The `LAT_hb^abs` commit-order replay skips
    /// read-only events, because the paper's abs-style specs give no facts
    /// about `vs` for them (§2.3); the `LAT_hb^hist` linearization search
    /// does *not* skip them (§3.3 demands a total order in which even an
    /// empty pop sees a truly empty state).
    fn read_only(&self, ev: &Self::Ev) -> bool {
        let _ = ev;
        false
    }
}

/// Sequential FIFO queue semantics.
#[derive(Copy, Clone, Debug, Default)]
pub struct QueueInterp;

impl SeqInterp for QueueInterp {
    type Ev = QueueEvent;
    type State = VecDeque<Val>;

    fn apply(&self, st: &Self::State, ev: &Self::Ev) -> Option<Self::State> {
        // The search offers every ready event at every node: clone the
        // state only for an event that is enabled.
        match ev {
            QueueEvent::Enq(v) => {
                let mut st = st.clone();
                st.push_back(*v);
                Some(st)
            }
            QueueEvent::Deq(v) => (st.front() == Some(v)).then(|| {
                let mut st = st.clone();
                st.pop_front();
                st
            }),
            QueueEvent::EmpDeq => st.is_empty().then(VecDeque::new),
        }
    }

    fn read_only(&self, ev: &Self::Ev) -> bool {
        matches!(ev, QueueEvent::EmpDeq)
    }
}

/// Sequential LIFO stack semantics (the paper's `interp` in Figure 4).
#[derive(Copy, Clone, Debug, Default)]
pub struct StackInterp;

impl SeqInterp for StackInterp {
    type Ev = StackEvent;
    type State = Vec<Val>;

    fn apply(&self, st: &Self::State, ev: &Self::Ev) -> Option<Self::State> {
        match ev {
            StackEvent::Push(v) => {
                let mut st = st.clone();
                st.push(*v);
                Some(st)
            }
            StackEvent::Pop(v) => (st.last() == Some(v)).then(|| {
                let mut st = st.clone();
                st.pop();
                st
            }),
            StackEvent::EmpPop => st.is_empty().then(Vec::new),
        }
    }

    fn read_only(&self, ev: &Self::Ev) -> bool {
        matches!(ev, StackEvent::EmpPop)
    }
}

/// Counters for the linearization search ([`find_linearization`]).
///
/// The search is the checker's only component that can go exponential
/// (well-formedness and the search's own per-node work are polynomial:
/// DESIGN.md §7 has the table), so these are the numbers to look at when
/// a spec check is slow: `nodes` is the size of the explored search
/// tree, `backtracks` how much of it was dead ends, and `memo_prunes` how
/// much the (done-set, abstract-state) memoization saved.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Completed calls to [`find_linearization`].
    pub searches: u64,
    /// Search-tree nodes expanded (events tentatively appended to `to`).
    pub nodes: u64,
    /// Nodes retracted after their subtree failed.
    pub backtracks: u64,
    /// Subtrees skipped because an equivalent (done-set, state) pair had
    /// already failed.
    pub memo_prunes: u64,
}

impl SearchStats {
    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &SearchStats) {
        self.searches += other.searches;
        self.nodes += other.nodes;
        self.backtracks += other.backtracks;
        self.memo_prunes += other.memo_prunes;
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} searches, {} nodes ({} backtracks, {} memo prunes)",
            self.searches, self.nodes, self.backtracks, self.memo_prunes
        )
    }
}

thread_local! {
    /// Per-thread accumulator filled by [`find_linearization`] and
    /// drained by [`take_search_stats`]. Thread-local (not a parameter)
    /// so the checker can observe searches that happen inside opaque
    /// user-supplied check closures.
    static SEARCH_STATS: RefCell<SearchStats> = const { RefCell::new(SearchStats {
        searches: 0,
        nodes: 0,
        backtracks: 0,
        memo_prunes: 0,
    }) };
}

/// Returns the search counters accumulated on this thread since the last
/// call, resetting them to zero.
///
/// `compass::checker::check_executions` drains this after every check to
/// attribute linearization-search work to its report.
pub fn take_search_stats() -> SearchStats {
    SEARCH_STATS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Searches for a linearization: a permutation `to` of the graph's events
/// such that
///
/// * `to` respects `lhb` (`H.lhb ⊆ to`) and every `extra` edge, and
/// * replaying `to` through `interp` from the default state succeeds
///   (`interp(to, vs)` for some `vs`).
///
/// Returns the first such order found, or `None` if none exists. The
/// search is exponential in the worst case but memoizes on
/// (done-set, abstract state), which keeps the histories produced by model
/// executions tractable. Candidates are offered in ascending id order,
/// and a candidate is ready when its predecessor row is covered by the
/// done-set (`⌈n/64⌉` word operations), so a node costs `n · ⌈n/64⌉`
/// word operations plus one state clone per enabled candidate. An id in
/// a logview that is no event of `g` constrains nothing here;
/// [`Graph::check_well_formed`] is what rejects it.
///
/// ```
/// use compass::history::{find_linearization, QueueInterp};
/// use compass::queue_spec::QueueEvent;
/// use compass::{EventId, Graph};
/// use orc11::Val;
///
/// // A dequeue committed before its (concurrent) enqueue: the commit
/// // order is not sequential, but a reordering exists.
/// let mut g = Graph::new();
/// g.add_event(QueueEvent::Deq(Val::Int(1)), 2, 10,
///             [EventId::from_raw(0)]);
/// g.add_event(QueueEvent::Enq(Val::Int(1)), 1, 20,
///             [EventId::from_raw(1)]);
/// let to = find_linearization(&g, &QueueInterp, &[]).expect("linearizable");
/// assert_eq!(to, vec![EventId::from_raw(1), EventId::from_raw(0)]);
/// ```
pub fn find_linearization<I: SeqInterp>(
    g: &Graph<I::Ev>,
    interp: &I,
    extra: &[(EventId, EventId)],
) -> Option<Vec<EventId>> {
    let _span = orc11::trace::span(orc11::trace::Phase::Linearize, "linearize");
    let n = g.len();
    if n == 0 {
        SEARCH_STATS.with(|s| s.borrow_mut().searches += 1);
        return Some(Vec::new());
    }
    // Row `i` of `preds`: the events that must precede `i`, as bits —
    // `i`'s logview row without `i` itself, plus the `extra` edges.
    let words = n.div_ceil(64);
    let mut preds: Vec<u64> = Vec::with_capacity(n * words);
    for (id, _) in g.iter() {
        preds.extend_from_slice(g.row(id));
        bits::clear(&mut preds[id.index() * words..], id.index());
    }
    for &(a, b) in extra {
        bits::set(&mut preds[b.index() * words..][..words], a.index());
    }
    // Mutual lhb (helping pairs have each other in their logviews) would
    // make the constraints unsatisfiable; keep only the id-ordered half
    // (helpee before helper).
    for i in 0..n {
        let row = &mut preds[i * words..][..words];
        let later: Vec<usize> = bits::ones(row).filter(|&p| p > i).collect();
        for p in later {
            if g.lhb(EventId::from_raw(i as u64), EventId::from_raw(p as u64)) {
                bits::clear(row, p);
            }
        }
    }

    /// What stays fixed during one search.
    struct Search<'a, I: SeqInterp> {
        g: &'a Graph<I::Ev>,
        interp: &'a I,
        preds: &'a [u64],
        words: usize,
    }

    /// `node` is the (done-set, abstract state) pair reached by `order`.
    /// It is recorded in `memo` once its subtree has failed: a pair cannot
    /// recur below itself (the done-set only grows), so looking it up on
    /// entry prunes exactly what recording it on entry would, and the
    /// path to a linearization records nothing.
    fn dfs<I: SeqInterp>(
        s: &Search<'_, I>,
        node: &mut (Vec<u64>, I::State),
        order: &mut Vec<EventId>,
        memo: &mut HashSet<(Vec<u64>, I::State)>,
        stats: &mut SearchStats,
    ) -> bool {
        let n = s.g.len();
        if order.len() == n {
            return true;
        }
        if memo.contains(node) {
            stats.memo_prunes += 1;
            return false;
        }
        // Candidates in ascending id order: the search tree (and with it
        // the returned order and the counters) depends on it.
        for i in 0..n {
            let ready = || {
                let row = &s.preds[i * s.words..][..s.words];
                row.iter().zip(&node.0).all(|(&p, &done)| p & !done == 0)
            };
            if bits::test(&node.0, i) || !ready() {
                continue;
            }
            let id = EventId::from_raw(i as u64);
            if let Some(next) = s.interp.apply(&node.1, &s.g.event(id).ty) {
                bits::set(&mut node.0, i);
                let state = std::mem::replace(&mut node.1, next);
                order.push(id);
                stats.nodes += 1;
                if dfs(s, node, order, memo, stats) {
                    return true;
                }
                order.pop();
                node.1 = state;
                bits::clear(&mut node.0, i);
                stats.backtracks += 1;
            }
        }
        memo.insert(node.clone());
        false
    }

    let search = Search {
        g,
        interp,
        preds: &preds,
        words,
    };
    let mut node = (vec![0u64; words], I::State::default());
    let mut order: Vec<EventId> = Vec::with_capacity(n);
    let mut stats = SearchStats {
        searches: 1,
        ..SearchStats::default()
    };
    let found = dfs(
        &search,
        &mut node,
        &mut order,
        &mut HashSet::new(),
        &mut stats,
    );
    SEARCH_STATS.with(|s| s.borrow_mut().merge(&stats));
    found.then_some(order)
}

/// Validates that `order` is a linearization of `g`: a permutation
/// respecting `lhb` whose replay through `interp` succeeds.
pub fn validate_linearization<I: SeqInterp>(
    g: &Graph<I::Ev>,
    interp: &I,
    order: &[EventId],
) -> SpecResult {
    if order.len() != g.len() {
        return Err(Violation::new(
            "HIST-PERMUTE",
            format!("order has {} events, graph has {}", order.len(), g.len()),
            order.to_vec(),
        ));
    }
    let mut pos = vec![usize::MAX; g.len()];
    for (k, &id) in order.iter().enumerate() {
        if id.index() >= g.len() || pos[id.index()] != usize::MAX {
            return Err(Violation::new(
                "HIST-PERMUTE",
                format!("{id} repeated or unknown"),
                vec![id],
            ));
        }
        pos[id.index()] = k;
    }
    for (d, _) in g.iter() {
        for e in g.logview_ids(d) {
            if e == d {
                continue;
            }
            // Helping pairs are mutually lhb-related; only the id order is
            // required of `to` for them.
            if g.lhb(d, e) {
                continue;
            }
            if pos[e.index()] > pos[d.index()] {
                return Err(Violation::new(
                    "HIST-RESPECTS-LHB",
                    format!("{e} lhb {d} but comes later in to"),
                    vec![e, d],
                ));
            }
        }
    }
    let mut st = I::State::default();
    for &id in order {
        match interp.apply(&st, &g.event(id).ty) {
            Some(next) => st = next,
            None => {
                return Err(Violation::new(
                    "HIST-INTERP",
                    format!(
                        "{id} ({:?}-th in to) is not sequentially enabled",
                        pos[id.index()]
                    ),
                    vec![id],
                ))
            }
        }
    }
    Ok(())
}

/// The `LAT_hb^hist` satisfaction check (HIST-HB-*-LINEARIZABLE): some
/// linearization exists.
pub fn check_linearizable<I: SeqInterp>(g: &Graph<I::Ev>, interp: &I) -> SpecResult {
    match find_linearization(g, interp, &[]) {
        Some(order) => validate_linearization(g, interp, &order),
        None => Err(Violation::new(
            "HIST-LINEARIZABLE",
            "no linearization respecting lhb exists".to_string(),
            Vec::new(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn id(i: u64) -> EventId {
        EventId::from_raw(i)
    }

    fn graph<T: Copy>(events: &[(T, u64, &[u64])]) -> Graph<T> {
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

    use QueueEvent::{Deq, EmpDeq, Enq};
    use StackEvent::{EmpPop, Pop, Push};

    #[test]
    fn queue_interp_semantics() {
        let i = QueueInterp;
        let st = i.apply(&Default::default(), &Enq(Val::Int(1))).unwrap();
        let st = i.apply(&st, &Enq(Val::Int(2))).unwrap();
        assert!(i.apply(&st, &Deq(Val::Int(2))).is_none(), "not FIFO head");
        let st = i.apply(&st, &Deq(Val::Int(1))).unwrap();
        assert!(i.apply(&st, &EmpDeq).is_none(), "not empty yet");
        let st = i.apply(&st, &Deq(Val::Int(2))).unwrap();
        i.apply(&st, &EmpDeq).unwrap();
    }

    #[test]
    fn stack_interp_semantics() {
        let i = StackInterp;
        let st = i.apply(&Default::default(), &Push(Val::Int(1))).unwrap();
        let st = i.apply(&st, &Push(Val::Int(2))).unwrap();
        assert!(i.apply(&st, &Pop(Val::Int(1))).is_none(), "not on top");
        let st = i.apply(&st, &Pop(Val::Int(2))).unwrap();
        let st = i.apply(&st, &Pop(Val::Int(1))).unwrap();
        i.apply(&st, &EmpPop).unwrap();
    }

    #[test]
    fn finds_reordering_against_commit_order() {
        // Commit order is Deq-before-Enq-completion impossible sequentially;
        // here: events with NO lhb edges, committed in a "wrong" order, and
        // the search must reorder them.
        let g = graph(&[(Deq(Val::Int(1)), 10, &[]), (Enq(Val::Int(1)), 20, &[])]);
        let to = find_linearization(&g, &QueueInterp, &[]).unwrap();
        assert_eq!(to, vec![id(1), id(0)]);
        validate_linearization(&g, &QueueInterp, &to).unwrap();
    }

    #[test]
    fn respects_lhb_constraints() {
        // EmpDeq happens-after the enqueue: no valid linearization (the
        // enqueue would have to come first but then the queue is nonempty).
        let g = graph(&[(Enq(Val::Int(1)), 1, &[]), (EmpDeq, 2, &[0])]);
        assert!(find_linearization(&g, &QueueInterp, &[]).is_none());
        assert!(check_linearizable(&g, &QueueInterp).is_err());
    }

    #[test]
    fn emppop_can_slide_before_concurrent_push() {
        // The empty pop is concurrent with the push: linearize it first.
        let g = graph(&[(Push(Val::Int(1)), 1, &[]), (EmpPop, 2, &[])]);
        let to = find_linearization(&g, &StackInterp, &[]).unwrap();
        assert_eq!(to, vec![id(1), id(0)]);
    }

    #[test]
    fn extra_edges_constrain_search() {
        let g = graph(&[(Push(Val::Int(1)), 1, &[]), (EmpPop, 2, &[])]);
        // Forcing push before emp-pop makes it unsatisfiable.
        assert!(find_linearization(&g, &StackInterp, &[(id(0), id(1))]).is_none());
    }

    #[test]
    fn lifo_reordering_found() {
        // push1 push2 pop2 pop1 committed as push1 push2 pop1 pop2 would be
        // invalid; with no lhb between the pops the search reorders.
        let g = graph(&[
            (Push(Val::Int(1)), 1, &[]),
            (Push(Val::Int(2)), 2, &[0]),
            (Pop(Val::Int(1)), 3, &[0]),
            (Pop(Val::Int(2)), 4, &[1]),
        ]);
        let to = find_linearization(&g, &StackInterp, &[]).unwrap();
        validate_linearization(&g, &StackInterp, &to).unwrap();
    }

    #[test]
    fn validate_rejects_bad_orders() {
        let g = graph(&[(Enq(Val::Int(1)), 1, &[]), (Deq(Val::Int(1)), 2, &[0])]);
        // Wrong length.
        assert!(validate_linearization(&g, &QueueInterp, &[id(0)]).is_err());
        // Duplicate.
        assert!(validate_linearization(&g, &QueueInterp, &[id(0), id(0)]).is_err());
        // lhb violated.
        assert_eq!(
            validate_linearization(&g, &QueueInterp, &[id(1), id(0)])
                .unwrap_err()
                .rule,
            "HIST-RESPECTS-LHB"
        );
        // Good order.
        validate_linearization(&g, &QueueInterp, &[id(0), id(1)]).unwrap();
    }

    #[test]
    fn helping_pair_mutual_lhb_is_searchable() {
        // Elimination pair: push and pop with each other in their logviews.
        let mut g: Graph<StackEvent> = Graph::new();
        let lv: BTreeSet<EventId> = [id(0), id(1)].into_iter().collect();
        g.add_event(Push(Val::Int(5)), 1, 7, lv.clone());
        g.add_event(Pop(Val::Int(5)), 2, 7, lv);
        let to = find_linearization(&g, &StackInterp, &[]).unwrap();
        assert_eq!(to, vec![id(0), id(1)]);
        validate_linearization(&g, &StackInterp, &to).unwrap();
    }

    #[test]
    fn empty_graph_linearizes() {
        let g: Graph<QueueEvent> = Graph::new();
        assert_eq!(find_linearization(&g, &QueueInterp, &[]), Some(vec![]));
        check_linearizable(&g, &QueueInterp).unwrap();
    }

    #[test]
    fn search_stats_accumulate_and_drain() {
        let _ = take_search_stats();
        let g = graph(&[(Enq(Val::Int(1)), 1, &[]), (Deq(Val::Int(1)), 2, &[0])]);
        find_linearization(&g, &QueueInterp, &[]).unwrap();
        let s = take_search_stats();
        assert_eq!(s.searches, 1);
        // The straight-line history linearizes without retraction.
        assert_eq!(s.nodes, 2);
        assert_eq!(s.backtracks, 0);
        // Drained: a second take sees zeros.
        assert_eq!(take_search_stats(), SearchStats::default());
    }

    #[test]
    fn failed_search_counts_backtracks() {
        let _ = take_search_stats();
        // EmpDeq after the enqueue: unsatisfiable, so every expansion is
        // eventually retracted.
        let g = graph(&[(Enq(Val::Int(1)), 1, &[]), (EmpDeq, 2, &[0])]);
        assert!(find_linearization(&g, &QueueInterp, &[]).is_none());
        let s = take_search_stats();
        assert_eq!(s.searches, 1);
        assert!(s.nodes > 0);
        assert_eq!(s.backtracks, s.nodes, "all expansions fail: {s}");
    }

    #[test]
    fn memo_prunes_are_counted() {
        let _ = take_search_stats();
        // Two independent enqueues followed by an impossible dequeue: both
        // enqueue interleavings reach the same {0,1}-done state, so the
        // second hits the memo.
        let g = graph(&[
            (Enq(Val::Int(1)), 1, &[]),
            (Enq(Val::Int(1)), 2, &[]),
            (Deq(Val::Int(9)), 3, &[0, 1]),
        ]);
        assert!(find_linearization(&g, &QueueInterp, &[]).is_none());
        let s = take_search_stats();
        assert!(s.memo_prunes > 0, "expected memo hits: {s}");
    }
}
