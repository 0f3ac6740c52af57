//! Property-based tests for the Compass checkers: graphs generated from
//! sequential oracle runs are always accepted; targeted mutations are
//! always rejected; the linearization search is sound and agrees with the
//! oracle; and everything `Graph` answers from its dense `lhb` rows agrees
//! with the plain `BTreeSet` logview walks kept here as references.
//!
//! Properties are exercised over deterministic seeded random operation
//! sequences (the repository builds offline with no property-testing
//! dependency); every failure message carries the seed, and the generator
//! is a pure function of it.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use compass::bundle::write_conform_bundle;
use compass::conform::{self, ConformEvent, History, RoundSpec};
use compass::dot::{to_dot, to_dot_flagged};
use compass::exchanger_spec::ExchangeEvent;
use compass::history::{
    find_linearization, validate_linearization, QueueInterp, SeqInterp, StackInterp,
};
use compass::queue_spec::{check_queue_consistent, QueueEvent};
use compass::stack_spec::{check_stack_consistent, StackEvent};
use compass::{EventId, Graph};
use orc11::rng::SmallRng;
use orc11::Val;

/// Seeds per property; generation is cheap and graphs are small.
const CASES: u64 = 300;

/// An abstract operation for the oracle generators.
#[derive(Copy, Clone, Debug)]
enum Op {
    Insert(i64),
    Remove,
}

/// Mirrors the original proptest strategy: up to 24 operations, inserts of
/// small values and removes equally likely.
fn gen_ops(seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6f70_735f_6765_6e21);
    let len = rng.gen_index(24);
    (0..len)
        .map(|_| {
            if rng.gen_bool() {
                Op::Insert(rng.gen_range(0, 50) as i64)
            } else {
                Op::Remove
            }
        })
        .collect()
}

/// Runs `ops` through a sequential queue, building a totally-ordered
/// graph (every event sees all predecessors) with `visibility(i)` events
/// in each logview (a prefix, so logviews stay hb-closed).
fn queue_graph(ops: &[Op], full_visibility: bool) -> Graph<QueueEvent> {
    let mut g: Graph<QueueEvent> = Graph::new();
    let mut state: VecDeque<(i64, EventId)> = VecDeque::new();
    let mut step = 0u64;
    for op in ops {
        let id = g.next_id();
        let logview: BTreeSet<EventId> = if full_visibility {
            (0..=id.raw()).map(EventId::from_raw).collect()
        } else {
            [id].into_iter().collect()
        };
        step += 1;
        match op {
            Op::Insert(v) => {
                g.add_event(QueueEvent::Enq(Val::Int(*v)), 1, step, logview);
                state.push_back((*v, id));
            }
            Op::Remove => match state.pop_front() {
                Some((v, src)) => {
                    // A dequeue must happen-after its enqueue (SO-LHB):
                    // even with thin visibility, include the source's
                    // logview.
                    let mut lv = logview;
                    lv.insert(src);
                    lv.extend(g.logview(src));
                    g.add_event(QueueEvent::Deq(Val::Int(v)), 1, step, lv);
                    g.add_so(src, id);
                }
                None => {
                    g.add_event(QueueEvent::EmpDeq, 1, step, logview);
                }
            },
        }
    }
    g
}

fn stack_graph(ops: &[Op], full_visibility: bool) -> Graph<StackEvent> {
    let mut g: Graph<StackEvent> = Graph::new();
    let mut state: Vec<(i64, EventId)> = Vec::new();
    let mut step = 0u64;
    for op in ops {
        let id = g.next_id();
        let logview: BTreeSet<EventId> = if full_visibility {
            (0..=id.raw()).map(EventId::from_raw).collect()
        } else {
            [id].into_iter().collect()
        };
        step += 1;
        match op {
            Op::Insert(v) => {
                g.add_event(StackEvent::Push(Val::Int(*v)), 1, step, logview);
                state.push((*v, id));
            }
            Op::Remove => match state.pop() {
                Some((v, src)) => {
                    let mut lv = logview;
                    lv.insert(src);
                    lv.extend(g.logview(src));
                    g.add_event(StackEvent::Pop(Val::Int(v)), 1, step, lv);
                    g.add_so(src, id);
                }
                None => {
                    g.add_event(StackEvent::EmpPop, 1, step, logview);
                }
            },
        }
    }
    g
}

#[test]
fn sequential_queue_histories_are_consistent() {
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = queue_graph(&ops, true);
        assert!(
            check_queue_consistent(&g).is_ok(),
            "seed {seed}: {:?}",
            check_queue_consistent(&g)
        );
        // The identity order is a linearization witness.
        let order = compass::abs::commit_order(&g);
        assert!(
            validate_linearization(&g, &QueueInterp, &order).is_ok(),
            "seed {seed}"
        );
    }
}

#[test]
fn thin_visibility_queue_histories_are_consistent() {
    // Minimal logviews (only so edges) are weaker premises: the
    // conditions must still hold.
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = queue_graph(&ops, false);
        assert!(check_queue_consistent(&g).is_ok(), "seed {seed}");
        assert!(
            find_linearization(&g, &QueueInterp, &[]).is_some(),
            "seed {seed}"
        );
    }
}

#[test]
fn sequential_stack_histories_are_consistent() {
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = stack_graph(&ops, true);
        assert!(
            check_stack_consistent(&g).is_ok(),
            "seed {seed}: {:?}",
            check_stack_consistent(&g)
        );
        let order = compass::abs::commit_order(&g);
        assert!(
            validate_linearization(&g, &StackInterp, &order).is_ok(),
            "seed {seed}"
        );
    }
}

#[test]
fn corrupting_a_dequeue_value_is_caught() {
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = queue_graph(&ops, true);
        // Find a successful dequeue and corrupt its value to a fresh one.
        let victim = g
            .iter()
            .find(|(_, e)| matches!(e.ty, QueueEvent::Deq(_)))
            .map(|(id, _)| id);
        let Some(victim) = victim else { continue };
        let mut events: Vec<_> = g.iter().map(|(id, e)| (e.clone(), g.logview(id))).collect();
        events[victim.index()].0.ty = QueueEvent::Deq(Val::Int(999));
        let mut g2: Graph<QueueEvent> = Graph::new();
        for (e, logview) in events {
            g2.add_event(e.ty, e.tid, e.step, logview);
        }
        for &(a, b) in g.so() {
            g2.add_so(a, b);
        }
        assert!(check_queue_consistent(&g2).is_err(), "seed {seed}");
    }
}

#[test]
fn dropping_an_so_edge_is_caught() {
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = queue_graph(&ops, true);
        if g.so().is_empty() {
            continue;
        }
        let drop_edge = *g.so().iter().next().unwrap();
        let mut g2: Graph<QueueEvent> = Graph::new();
        for (id, e) in g.iter() {
            g2.add_event(e.ty, e.tid, e.step, g.logview(id));
        }
        for &(a, b) in g.so() {
            if (a, b) != drop_edge {
                g2.add_so(a, b);
            }
        }
        // The orphaned dequeue violates injectivity (and usually FIFO).
        assert!(check_queue_consistent(&g2).is_err(), "seed {seed}");
    }
}

#[test]
fn linearization_search_is_sound() {
    // Whatever the search returns must validate.
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let g = queue_graph(&ops, false);
        if let Some(order) = find_linearization(&g, &QueueInterp, &[]) {
            assert!(
                validate_linearization(&g, &QueueInterp, &order).is_ok(),
                "seed {seed}"
            );
        }
        let s = stack_graph(&ops, false);
        if let Some(order) = find_linearization(&s, &StackInterp, &[]) {
            assert!(
                validate_linearization(&s, &StackInterp, &order).is_ok(),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn prefix_graphs_stay_well_formed() {
    for seed in 0..CASES {
        let ops = gen_ops(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6375_745f_7074);
        let cut = rng.gen_range(0, 30);
        let g = queue_graph(&ops, true);
        let p = g.prefix_at(cut);
        assert!(p.check_well_formed().is_ok(), "seed {seed} cut {cut}");
        assert!(check_queue_consistent(&p).is_ok(), "seed {seed} cut {cut}");
    }
}

// ---------------------------------------------------------------------
// Dense `lhb` rows against the `BTreeSet` reference implementations.
//
// `Graph` answers `lhb`, WF-CLOSED, search readiness and the DOT
// reduction from one bit row per event. The functions below are the
// set-walking bodies those replaced, written against the public logviews
// only; the tests demand identical answers — same first violation, same
// linearization, same bytes.
// ---------------------------------------------------------------------

fn ref_lhb<T>(g: &Graph<T>, e: EventId, d: EventId) -> bool {
    e != d && g.logview(d).contains(&e)
}

/// First well-formedness violation as `(rule, events)`.
fn ref_well_formed<T>(g: &Graph<T>) -> Result<(), (&'static str, Vec<EventId>)> {
    let n = g.len() as u64;
    for (id, _) in g.iter() {
        let logview = g.logview(id);
        if let Some(&e) = logview.iter().find(|e| e.raw() >= n) {
            return Err(("WF-LOGVIEW", vec![id, e]));
        }
        if !logview.contains(&id) {
            return Err(("WF-SELF", vec![id]));
        }
        for &e in &logview {
            if e != id && !g.logview(e).is_subset(&logview) {
                return Err(("WF-CLOSED", vec![id, e]));
            }
        }
    }
    match g.so().iter().find(|(a, b)| a.raw() >= n || b.raw() >= n) {
        Some(&(a, b)) => Err(("WF-SO", vec![a, b])),
        None => Ok(()),
    }
}

/// The search as it was before the rows: predecessor lists read off the
/// logviews, candidates in ascending id order, (done, state) memo.
fn ref_find_linearization<I: SeqInterp>(
    g: &Graph<I::Ev>,
    interp: &I,
    extra: &[(EventId, EventId)],
) -> Option<Vec<EventId>> {
    let n = g.len();
    let mut preds: Vec<Vec<usize>> = g
        .iter()
        .map(|(id, _)| {
            let others = g.logview(id).into_iter().filter(|&e| e != id);
            others.map(|e| e.index()).collect()
        })
        .collect();
    for &(a, b) in extra {
        preds[b.index()].push(a.index());
    }
    for (i, pred) in preds.iter_mut().enumerate() {
        let me = EventId::from_raw(i as u64);
        pred.retain(|&p| {
            let mutual = g.logview(EventId::from_raw(p as u64)).contains(&me);
            !(mutual && p > i)
        });
    }

    fn dfs<I: SeqInterp>(
        g: &Graph<I::Ev>,
        interp: &I,
        preds: &[Vec<usize>],
        done: &mut Vec<bool>,
        order: &mut Vec<EventId>,
        state: &I::State,
        memo: &mut HashSet<(Vec<bool>, I::State)>,
    ) -> bool {
        if order.len() == g.len() {
            return true;
        }
        if !memo.insert((done.clone(), state.clone())) {
            return false;
        }
        for i in 0..g.len() {
            if done[i] || !preds[i].iter().all(|&p| done[p]) {
                continue;
            }
            let id = EventId::from_raw(i as u64);
            if let Some(next) = interp.apply(state, &g.event(id).ty) {
                done[i] = true;
                order.push(id);
                if dfs(g, interp, preds, done, order, &next, memo) {
                    return true;
                }
                order.pop();
                done[i] = false;
            }
        }
        false
    }

    let mut order = Vec::with_capacity(n);
    let found = dfs(
        g,
        interp,
        &preds,
        &mut vec![false; n],
        &mut order,
        &I::State::default(),
        &mut HashSet::new(),
    );
    found.then_some(order)
}

fn ref_to_dot_flagged<T: std::fmt::Debug>(g: &Graph<T>, name: &str, flagged: &[EventId]) -> String {
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
    for &(a, b) in g.so() {
        let _ = writeln!(out, "  {a} -> {b} [color=blue, penwidth=2];");
    }
    for (d, _) in g.iter() {
        let preds: Vec<EventId> = g
            .logview(d)
            .into_iter()
            .filter(|&e| e != d && !(ref_lhb(g, d, e) && e > d))
            .collect();
        for &e in &preds {
            let implied = preds.iter().any(|&m| m != e && ref_lhb(g, e, m));
            if !implied && !g.so().contains(&(e, d)) {
                let _ = writeln!(out, "  {e} -> {d} [style=dashed, color=gray40];");
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Kahn's algorithm over the logviews, ties by id (the witness order of
/// the exchanger and STM vocabularies).
fn ref_topological_order<T>(g: &Graph<T>) -> Vec<EventId> {
    let before = |e: EventId, d: EventId| ref_lhb(g, e, d) && !ref_lhb(g, d, e);
    let mut indegree: Vec<usize> = g
        .iter()
        .map(|(d, _)| g.logview(d).into_iter().filter(|&e| before(e, d)).count())
        .collect();
    let mut placed = vec![false; g.len()];
    let mut order = Vec::new();
    while let Some(i) = (0..g.len()).find(|&i| !placed[i] && indegree[i] == 0) {
        let id = EventId::from_raw(i as u64);
        placed[i] = true;
        order.push(id);
        for (j, _) in g.iter() {
            if before(id, j) {
                indegree[j.index()] -= 1;
            }
        }
    }
    order
}

/// How a generated graph departs from a well-formed one.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Defect {
    None,
    /// Some logview lost an element (or its own event).
    NotAView,
    /// Some logview names an id that is no event.
    UnknownId,
}

/// A graph of up to 150 events (rows of one, two and three words; the
/// set-walking references are cubic, so most graphs are small):
/// every event sees a random, downward-closed set of earlier events;
/// about one event in eight is followed by a helping partner sharing its
/// logview (each in the other's — a forward id in the first); `defect`
/// then damages one logview.
fn gen_graph(seed: u64, defect: Defect) -> Graph<QueueEvent> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x726f_7773_5f67_656e);
    let n = match rng.gen_index(8) {
        0 => 125 + rng.gen_index(25),
        1 => 60 + rng.gen_index(10),
        _ => rng.gen_index(40),
    };
    let mut views: Vec<BTreeSet<EventId>> = Vec::new();
    while views.len() < n {
        let id = EventId::from_raw(views.len() as u64);
        let mut lv: BTreeSet<EventId> = [id].into_iter().collect();
        for _ in 0..rng.gen_index(4) {
            if !views.is_empty() {
                let p = rng.gen_index(views.len());
                lv.extend(views[p].iter().copied());
            }
        }
        if rng.gen_index(8) == 0 && views.len() + 1 < n {
            let partner = EventId::from_raw(id.raw() + 1);
            lv.insert(partner);
            views.push(lv.clone());
        }
        views.push(lv);
    }
    if !views.is_empty() {
        let victim = rng.gen_index(views.len());
        match defect {
            Defect::None => {}
            Defect::NotAView => {
                let drop = rng.gen_index(views[victim].len());
                let e = *views[victim].iter().nth(drop).unwrap();
                views[victim].remove(&e);
            }
            Defect::UnknownId => {
                let far = [0, 1, 70, 1 << 40][rng.gen_index(4)];
                views[victim].insert(EventId::from_raw(n as u64 + far));
            }
        }
    }
    // Types from a sequential queue run in id order, so a fair share of
    // the graphs linearize; the rest make the search backtrack.
    let mut g = Graph::new();
    let mut state: VecDeque<(i64, EventId)> = VecDeque::new();
    for (i, lv) in views.into_iter().enumerate() {
        let id = EventId::from_raw(i as u64);
        let ty = match (rng.gen_index(3), state.front().copied()) {
            (0, Some((v, src))) => {
                state.pop_front();
                if rng.gen_bool() {
                    g.add_so(src, id);
                }
                QueueEvent::Deq(Val::Int(v))
            }
            (0, None) => QueueEvent::EmpDeq,
            _ => {
                state.push_back((i as i64, id));
                QueueEvent::Enq(Val::Int(i as i64))
            }
        };
        g.add_event(ty, 1 + i % 3, i as u64, lv);
    }
    g
}

fn ids<T>(g: &Graph<T>) -> impl Iterator<Item = EventId> + '_ {
    g.iter().map(|(id, _)| id)
}

#[test]
fn bit_rows_agree_with_the_logview_reference() {
    for seed in 0..CASES {
        for defect in [Defect::None, Defect::NotAView, Defect::UnknownId] {
            let g = gen_graph(seed, defect);
            let tag = format!("seed {seed} {defect:?}");
            let n = g.len() as u64;

            // `lhb`, also for the ids just past the graph.
            for d in ids(&g) {
                for e in ids(&g).chain([n, n + 1, n + 70, n + (1 << 40)].map(EventId::from_raw)) {
                    assert_eq!(g.lhb(e, d), ref_lhb(&g, e, d), "{tag}: lhb({e}, {d})");
                }
            }

            let wf = g.check_well_formed().map_err(|v| (v.rule, v.events));
            assert_eq!(wf, ref_well_formed(&g), "{tag}");
            match defect {
                Defect::None => assert_eq!(wf, Ok(()), "{tag}"),
                Defect::NotAView => {}
                Defect::UnknownId => {
                    // The reference search and export index events by
                    // every id they meet; nothing to compare with.
                    assert!(wf.is_err() || g.is_empty(), "{tag}");
                    continue;
                }
            }

            let extra: Vec<(EventId, EventId)> = match g.len() {
                0 | 1 => Vec::new(),
                len => vec![(
                    EventId::from_raw((seed % len as u64).min(n - 2)),
                    EventId::from_raw(n - 1),
                )],
            };
            for extra in [&[][..], &extra[..]] {
                assert_eq!(
                    find_linearization(&g, &QueueInterp, extra),
                    ref_find_linearization(&g, &QueueInterp, extra),
                    "{tag} extra {extra:?}"
                );
            }

            let flagged: Vec<EventId> = ids(&g).filter(|e| e.raw() % 5 == seed % 5).collect();
            assert_eq!(to_dot(&g, "g"), ref_to_dot_flagged(&g, "g", &[]), "{tag}");
            assert_eq!(
                to_dot_flagged(&g, "g", &flagged),
                ref_to_dot_flagged(&g, "g", &flagged),
                "{tag}"
            );

            // Subgraphs and prefixes rebuild their rows.
            let kept = g.retain(|id, _| id.raw() % 3 != seed % 3);
            let prefix = g.prefix_at(n / 2);
            for sub in [&kept, &prefix] {
                for d in ids(sub) {
                    for e in ids(sub) {
                        assert_eq!(
                            sub.lhb(e, d),
                            ref_lhb(sub, e, d),
                            "{tag}: sub lhb({e}, {d})"
                        );
                    }
                }
                assert_eq!(
                    sub.check_well_formed().map_err(|v| (v.rule, v.events)),
                    ref_well_formed(sub),
                    "{tag}"
                );
            }
        }
    }
}

#[test]
fn rows_follow_a_graph_while_it_is_being_built() {
    // A helping pair mid-construction: the first event already names the
    // second, which is not committed yet.
    let pair: BTreeSet<EventId> = [0, 1].map(EventId::from_raw).into_iter().collect();
    let mut g: Graph<QueueEvent> = Graph::new();
    let a = g.add_event(QueueEvent::Enq(Val::Int(1)), 1, 5, pair.clone());
    let b = EventId::from_raw(1);
    assert!(g.lhb(b, a), "forward id is in the logview");
    assert_eq!(g.check_well_formed().unwrap_err().rule, "WF-LOGVIEW");
    let snapshot = g.clone();
    g.add_event(QueueEvent::Deq(Val::Int(1)), 2, 5, pair);
    assert!(g.lhb(b, a) && g.lhb(a, b));
    g.check_well_formed().unwrap();
    // The clone taken in between kept its own rows.
    assert_eq!(snapshot.len(), 1);
    assert_eq!(snapshot.check_well_formed().unwrap_err().rule, "WF-LOGVIEW");
    assert_ne!(snapshot, g);
    assert_eq!(g, g.clone());
}

/// A timed history of `ops` operations by two alternating threads over
/// one sequential object; one op in seven runs on into its successor, so
/// the interval order is almost, not quite, total. `dup` makes the last
/// take happen twice.
fn near_sequential<E: ConformEvent>(
    ops: usize,
    dup: bool,
    produce: fn(i64) -> E,
    take: fn(Option<i64>) -> E,
    lifo: bool,
) -> History<E> {
    let mut rows = vec![Vec::new(), Vec::new(), Vec::new()];
    let mut state: VecDeque<i64> = VecDeque::new();
    let mut last_take = None;
    for i in 0..ops {
        let ev = if i % 5 < 3 {
            state.push_back(i as i64);
            produce(i as i64)
        } else {
            let v = if lifo {
                state.pop_back()
            } else {
                state.pop_front()
            };
            let ev = take(v);
            if v.is_some() {
                last_take = Some(ev);
            }
            ev
        };
        let inv = 10 * i as u64;
        rows[i % 2].push((ev, inv, inv + if i % 7 == 0 { 13 } else { 5 }));
    }
    if dup {
        let at = 10 * ops as u64;
        rows[2].push((last_take.expect("the history takes something"), at, at + 5));
    }
    History::from_tuples(rows)
}

/// Convicts `hist` of `dup_rule`, writes the bundle, lets `inspect` look
/// at it next to the graph and the violation, and re-checks it offline
/// to the same clause.
fn bundle_round_trip<E: ConformEvent>(
    name: &str,
    hist: &History<E>,
    dup_rule: &str,
    inspect: impl FnOnce(&Graph<E>, &compass::Violation, &std::path::Path),
) {
    let g = hist.to_graph();
    let v = E::check(&g).expect_err("the duplicate take is convicted");
    assert_eq!(v.rule, dup_rule);
    let spec = RoundSpec {
        seed: 1,
        threads: hist.threads(),
        ops_per_thread: hist.ops(),
    };
    let root = std::env::temp_dir().join(format!("compass-rows-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = write_conform_bundle(&root, name, hist, &g, &v, &spec).unwrap();
    inspect(&g, &v, &dir);
    drop(g);
    let (_, again) = conform::recheck::<E>(&dir).unwrap();
    assert_eq!(again.unwrap_err().rule, dup_rule, "{name}");
    std::fs::remove_dir_all(&root).unwrap();
}

/// The bundle's two renderings of the graph are the reference's bytes.
fn renders_like_the_reference<E: ConformEvent>(
    g: &Graph<E>,
    v: &compass::Violation,
    dir: &std::path::Path,
) {
    let dot = std::fs::read_to_string(dir.join("graph.dot")).unwrap();
    assert!(
        dot == ref_to_dot_flagged(g, "violation", &v.events),
        "{dir:?}: graph.dot differs from the reference rendering"
    );
    let report = std::fs::read_to_string(dir.join("report.txt")).unwrap();
    assert!(
        report.ends_with(&ref_to_dot_flagged(g, "violation", &[])),
        "{dir:?}: report.txt's rendering differs from the reference"
    );
}

fn queue_history(ops: usize, dup: bool) -> History<QueueEvent> {
    near_sequential(
        ops,
        dup,
        |v| QueueEvent::Enq(Val::Int(v)),
        |v| v.map_or(QueueEvent::EmpDeq, |v| QueueEvent::Deq(Val::Int(v))),
        false,
    )
}

fn stack_history(ops: usize, dup: bool) -> History<StackEvent> {
    near_sequential(
        ops,
        dup,
        |v| StackEvent::Push(Val::Int(v)),
        |v| v.map_or(StackEvent::EmpPop, |v| StackEvent::Pop(Val::Int(v))),
        true,
    )
}

#[test]
fn conform_bundles_render_like_the_reference() {
    for ops in [0, 9, 63, 64, 65, 200] {
        let q = queue_history(ops + 4, true);
        bundle_round_trip(
            &format!("queue-{ops}"),
            &q,
            "CONFORM-QUEUE-DUP",
            renders_like_the_reference,
        );
        let s = stack_history(ops + 4, true);
        bundle_round_trip(
            &format!("stack-{ops}"),
            &s,
            "CONFORM-STACK-DUP",
            renders_like_the_reference,
        );
        // The clean twins conform, and their witness is the reference's.
        let g = queue_history(ops, false).to_graph();
        QueueEvent::check(&g).unwrap();
        assert_eq!(
            conform::linearize(&g),
            ref_find_linearization(&g, &QueueInterp, &[])
        );
        let g = stack_history(ops, false).to_graph();
        StackEvent::check(&g).unwrap();
        assert_eq!(
            conform::linearize(&g),
            ref_find_linearization(&g, &StackInterp, &[])
        );
    }
}

#[test]
fn topological_witness_order_is_unchanged() {
    // The exchanger's witness is a plain topological order of `lhb`.
    let xchg = |i: i64| ExchangeEvent {
        give: Val::Int(i),
        got: None,
    };
    for seed in 0..CASES {
        let g = gen_graph(seed, Defect::None);
        let mut x: Graph<ExchangeEvent> = Graph::new();
        for (id, ev) in g.iter() {
            x.add_event(xchg(id.raw() as i64), ev.tid, ev.step, g.logview(id));
        }
        assert_eq!(
            conform::linearize(&x),
            Some(ref_topological_order(&x)),
            "seed {seed}"
        );
    }
}

/// One epoch far beyond what the soak engine cuts (`max_epoch_events` is
/// 512): 4096 near-sequential events through the check, the bundle
/// writer and the offline re-check. With set-walking logviews the
/// well-formedness check alone is cubic here (minutes); on bit rows the
/// same terms are n³/64 word operations. The bound only has to tell
/// those apart.
#[test]
fn four_thousand_event_epochs_check_in_seconds() {
    const OPS: usize = 4096;
    const BOUND: Duration = Duration::from_secs(120);
    let t0 = Instant::now();
    QueueEvent::check(&queue_history(OPS, false).to_graph()).unwrap();
    StackEvent::check(&stack_history(OPS, false).to_graph()).unwrap();
    // No reference here: it is the cubic code this test is about.
    let queue = queue_history(OPS, true);
    bundle_round_trip("queue-4096", &queue, "CONFORM-QUEUE-DUP", |_, _, _| {});
    let stack = stack_history(OPS, true);
    bundle_round_trip("stack-4096", &stack, "CONFORM-STACK-DUP", |_, _, _| {});
    let took = t0.elapsed();
    assert!(took < BOUND, "took {took:?}, bound {BOUND:?}");
}
