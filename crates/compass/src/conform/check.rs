//! Conformance checks over runtime-reconstructed graphs.
//!
//! The model checker's clause checkers (`queue_spec::check_fifo` & co.)
//! compare commit `step`s, which are exact in the model but meaningless
//! for overlapping runtime operations — reusing them here would flag
//! legal concurrent histories. The conformance checks below use only
//! facts that are sound under the real-time interval order:
//!
//! 1. **Structural** (`*-MATCH`, `*-DUP`, `*-CAUSALITY`, `DEQUE-OWNER`):
//!    every taken value was produced, no value is taken more often than
//!    produced, no take responds before its unique producer is invoked.
//!    These need no search and catch the gross races (duplicated or
//!    invented elements) with an exact witness.
//! 2. **Interval-empty** (`*-EMPTY`): an operation reported "empty"
//!    although some element was provably inside the structure for the
//!    operation's whole interval (produced before it started, taken —
//!    if ever — only after it ended).
//! 3. **Order** (`*-ORDER`, via [`find_linearization`]): the mutators
//!    admit a total order that respects the interval order and replays
//!    through the library's sequential semantics (FIFO/LIFO/deque).
//! 4. **Placement of empties** (queue/stack only): the *full* graph,
//!    empty observations included, linearizes. Deques skip this stage:
//!    a correct work-stealing deque is not linearizable with thief
//!    empty-results included (see [`crate::deque_spec::check_empty`]),
//!    so stage 2 is their sound empty check.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;

use orc11::Val;

use crate::arc_spec::{ArcEvent, ArcInterp};
use crate::deque_spec::{mutator_subgraph, DequeEvent, DequeInterp};
use crate::event::EventId;
use crate::exchanger_spec::ExchangeEvent;
use crate::graph::Graph;
use crate::history::{find_linearization, QueueInterp, SeqInterp, StackInterp};
use crate::queue_spec::QueueEvent;
use crate::spec::{SpecResult, Violation};
use crate::stack_spec::StackEvent;
use crate::stm_spec::{check_stm_clauses, StmEvent, StmRules};

/// An event vocabulary the conformance harness can record, check, and
/// serialize. Implemented for the library event types the paper's specs
/// already define — the harness adds no op enums of its own.
pub trait ConformEvent: Copy + Eq + Hash + fmt::Debug + Send + Sync + 'static {
    /// Stable one-line encoding for `history.txt` ([`Self::decode`]
    /// inverts it).
    fn encode(&self) -> String;

    /// Parses [`Self::encode`]'s output.
    fn decode(s: &str) -> Option<Self>;

    /// The value this event inserts, if it is a produce. This and the
    /// two methods below are the one place a produce/take vocabulary's
    /// events are classified: the structural checks here, the soak
    /// assembler and the native drivers all read them.
    fn produced(&self) -> Option<Val> {
        None
    }

    /// The value this event removes, if it is a successful take.
    fn taken(&self) -> Option<Val> {
        None
    }

    /// Whether this event observed the structure as empty.
    fn is_empty_observation(&self) -> bool {
        false
    }

    /// The staged conformance check for this library (see module docs).
    fn check(g: &Graph<Self>) -> SpecResult;

    /// A witness order for the strongest ordering stage this library
    /// supports: a linearization of the full graph for queues/stacks, of
    /// the mutator subgraph (compacted ids!) for deques, and a
    /// topological order of `lhb` for exchangers (whose consistency is
    /// pairwise, not sequential).
    fn linearize(g: &Graph<Self>) -> Option<Vec<EventId>>;
}

fn encode_val(v: Val) -> String {
    match v {
        Val::Null => "null".to_string(),
        Val::Int(i) => i.to_string(),
        // Runtime histories never contain locations; encode loudly and
        // refuse to decode (the bundle stays human-readable regardless).
        Val::Loc(l) => format!("loc?{l:?}"),
    }
}

fn decode_val(s: &str) -> Option<Val> {
    if s == "null" {
        return Some(Val::Null);
    }
    s.parse::<i64>().ok().map(Val::Int)
}

/// Clause names of the generic produce/take checks, per library.
struct TakeRules {
    unmatched: &'static str,
    dup: &'static str,
    causality: &'static str,
    empty: &'static str,
}

/// Stages 1 and 2 of the module docs, generic over the event type's
/// produce / take / observed-empty classification.
fn check_takes<E: ConformEvent>(g: &Graph<E>, rules: &TakeRules) -> SpecResult {
    let mut producers: BTreeMap<Val, Vec<EventId>> = BTreeMap::new();
    let mut takers: BTreeMap<Val, Vec<EventId>> = BTreeMap::new();
    let mut empties: Vec<EventId> = Vec::new();
    for (id, ev) in g.iter() {
        if let Some(v) = ev.ty.produced() {
            producers.entry(v).or_default().push(id);
        }
        if let Some(v) = ev.ty.taken() {
            takers.entry(v).or_default().push(id);
        }
        if ev.ty.is_empty_observation() {
            empties.push(id);
        }
    }

    for (v, took) in &takers {
        let prod = producers.get(v).map_or(&[][..], Vec::as_slice);
        if prod.is_empty() {
            return Err(Violation::new(
                rules.unmatched,
                format!("value {v:?} was taken ({:?}) but never produced", took),
                took.clone(),
            ));
        }
        if took.len() > prod.len() {
            return Err(Violation::new(
                rules.dup,
                format!(
                    "value {v:?} was produced {} time(s) but taken {} times ({:?})",
                    prod.len(),
                    took.len(),
                    took
                ),
                took.clone(),
            ));
        }
    }

    // With the driver's distinct-values discipline every value has (at
    // most) one producer and one taker; only such unambiguous pairs feed
    // the causality and interval-empty reasoning (ambiguous values are
    // skipped — conservative, hence sound).
    for (v, prod) in &producers {
        let took = takers.get(v).map_or(&[][..], Vec::as_slice);
        if prod.len() != 1 || took.len() > 1 {
            continue;
        }
        let p = prod[0];
        let t = took.first().copied();
        if let Some(t) = t {
            if g.lhb(t, p) {
                return Err(Violation::new(
                    rules.causality,
                    format!("take {t} of {v:?} responded before its producer {p} was invoked"),
                    vec![p, t],
                ));
            }
        }
        for &e in &empties {
            // The element was in the structure for all of `e`'s interval:
            // produced before `e` started, taken (if ever) only after `e`
            // ended — yet `e` reported empty.
            if g.lhb(p, e) && t.is_none_or(|t| g.lhb(e, t)) {
                return Err(Violation::new(
                    rules.empty,
                    format!(
                        "{e} reported empty although {v:?} (produced by {p}, {}) \
                         was inside for its whole interval",
                        match t {
                            Some(t) => format!("taken by {t} only later"),
                            None => "never taken".to_string(),
                        }
                    ),
                    vec![p, e],
                ));
            }
        }
    }
    Ok(())
}

/// A topological order of `lhb` (Kahn's algorithm over the logview
/// rows; mutually related helping pairs constrain nothing). Always
/// exists: interval orders are acyclic. Ties break by id, so the output
/// is deterministic.
fn lhb_topological_order<E>(g: &Graph<E>) -> Vec<EventId> {
    let n = g.len();
    let before = |e: EventId, d: EventId| g.lhb(e, d) && !g.lhb(d, e);
    let mut indegree: Vec<usize> = g
        .iter()
        .map(|(d, _)| g.iter().filter(|&(e, _)| before(e, d)).count())
        .collect();
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(i)) = ready.pop() {
        let id = EventId::from_raw(i as u64);
        order.push(id);
        for (j, _) in g.iter() {
            if before(id, j) {
                indegree[j.index()] -= 1;
                if indegree[j.index()] == 0 {
                    ready.push(std::cmp::Reverse(j.index()));
                }
            }
        }
    }
    order
}

/// Stages 3 and 4 of the module docs for a library whose empty
/// observations are read-only events of its sequential semantics.
///
/// A linearization of the full graph, restricted to the mutators, is a
/// linearization of the mutator subgraph (read-only events leave the
/// abstract state alone), so a clean graph needs the one full search.
/// Only when that fails does the mutator subgraph decide which stage
/// failed — and without an empty observation it *is* the full graph.
///
/// `order` and `empties` are the `(clause, message)` of the two stages.
fn check_order_and_empties<E: ConformEvent, I: SeqInterp<Ev = E>>(
    g: &Graph<E>,
    interp: &I,
    order: (&'static str, &'static str),
    empties: (&'static str, &'static str),
) -> SpecResult {
    if find_linearization(g, interp, &[]).is_some() {
        return Ok(());
    }
    let has_empties = g.iter().any(|(_, ev)| ev.ty.is_empty_observation());
    let mutators_linearize = has_empties && {
        let mutators = g.retain(|_, ev| !ev.ty.is_empty_observation());
        find_linearization(&mutators, interp, &[]).is_some()
    };
    let (rule, message) = if mutators_linearize { empties } else { order };
    Err(Violation::new(rule, message, Vec::new()))
}

const QUEUE_RULES: TakeRules = TakeRules {
    unmatched: "CONFORM-QUEUE-MATCH",
    dup: "CONFORM-QUEUE-DUP",
    causality: "CONFORM-QUEUE-CAUSALITY",
    empty: "CONFORM-QUEUE-EMPTY",
};

/// The staged queue conformance check (see module docs).
pub fn check_conform_queue(g: &Graph<QueueEvent>) -> SpecResult {
    g.check_well_formed()?;
    check_takes(g, &QUEUE_RULES)?;
    check_order_and_empties(
        g,
        &QueueInterp,
        (
            "CONFORM-QUEUE-ORDER",
            "no FIFO order of the enqueues/dequeues respects the observed real-time order",
        ),
        (
            "CONFORM-QUEUE-EMPTY",
            "the empty dequeues cannot be placed: no FIFO linearization \
             including them respects the observed real-time order",
        ),
    )
}

const STACK_RULES: TakeRules = TakeRules {
    unmatched: "CONFORM-STACK-MATCH",
    dup: "CONFORM-STACK-DUP",
    causality: "CONFORM-STACK-CAUSALITY",
    empty: "CONFORM-STACK-EMPTY",
};

/// The staged stack conformance check (see module docs).
pub fn check_conform_stack(g: &Graph<StackEvent>) -> SpecResult {
    g.check_well_formed()?;
    check_takes(g, &STACK_RULES)?;
    check_order_and_empties(
        g,
        &StackInterp,
        (
            "CONFORM-STACK-ORDER",
            "no LIFO order of the pushes/pops respects the observed real-time order",
        ),
        (
            "CONFORM-STACK-EMPTY",
            "the empty pops cannot be placed: no LIFO linearization \
             including them respects the observed real-time order",
        ),
    )
}

const DEQUE_RULES: TakeRules = TakeRules {
    unmatched: "CONFORM-DEQUE-MATCH",
    dup: "CONFORM-DEQUE-DUP",
    causality: "CONFORM-DEQUE-CAUSALITY",
    empty: "CONFORM-DEQUE-EMPTY",
};

/// The staged work-stealing-deque conformance check.
///
/// No full-graph linearization stage: a *correct* deque is not
/// linearizable with thief empty-results included (a thief can report
/// empty while the owner's reservation-then-pop of the last element
/// straddles it — [`crate::deque_spec::check_empty`]), so the
/// interval-empty stage is the deque's sound empty check.
pub fn check_conform_deque(g: &Graph<DequeEvent>) -> SpecResult {
    g.check_well_formed()?;
    let mut owner = None;
    for (id, ev) in g.iter() {
        if ev.ty.is_owner_op() {
            match owner {
                None => owner = Some((id, ev.tid)),
                Some((first, tid)) if tid != ev.tid => {
                    return Err(Violation::new(
                        "CONFORM-DEQUE-OWNER",
                        format!(
                            "owner ops from two threads: {first} (t{tid}) and {id} (t{})",
                            ev.tid
                        ),
                        vec![first, id],
                    ));
                }
                Some(_) => {}
            }
        }
    }
    check_takes(g, &DEQUE_RULES)?;
    if find_linearization(&mutator_subgraph(g), &DequeInterp, &[]).is_none() {
        return Err(Violation::new(
            "CONFORM-DEQUE-ORDER",
            "no owner-LIFO/thief-FIFO order of the mutators respects the observed real-time order",
            Vec::new(),
        ));
    }
    Ok(())
}

/// The staged Arc conformance check:
///
/// 1. `CONFORM-ARC-RANGE` — every observed old count is in range for its
///    operation (a `Drop` can't have seen less than 2, etc.).
/// 2. `CONFORM-ARC-DEALLOC` — the payload is reclaimed at most once, and
///    only after a `DropLast` was observed.
/// 3. `CONFORM-ARC-UAF` — no strong-reference operation runs real-time
///    **after** the dealloc finished (the real-time under-approximation
///    of the model's `ARC-UAF`: an op invoked after the free responded is
///    certainly a use-after-free; overlapping ops are given the benefit
///    of the doubt and left to the order stage).
/// 4. `CONFORM-ARC-ORDER` — the observed old counts admit a total order
///    respecting real time that replays as a sequential counter history
///    ([`find_linearization`] with [`ArcInterp`]). A lost-update
///    decrement (two drops observing the same old value) has no such
///    order.
pub fn check_conform_arc(g: &Graph<ArcEvent>) -> SpecResult {
    g.check_well_formed()?;
    for (id, ev) in g.iter() {
        let bad = match ev.ty {
            ArcEvent::Clone { old } | ArcEvent::UpgradeOk { old } => old < 1,
            ArcEvent::Drop { old } => old < 2,
            ArcEvent::WeakClone { old } | ArcEvent::WeakDrop { old } => old < 1,
            _ => false,
        };
        if bad {
            return Err(Violation::new(
                "CONFORM-ARC-RANGE",
                format!("{id} {:?} observed an out-of-range count", ev.ty),
                vec![id],
            ));
        }
    }
    let deallocs: Vec<EventId> = g
        .iter()
        .filter(|(_, ev)| ev.ty == ArcEvent::Dealloc)
        .map(|(id, _)| id)
        .collect();
    if deallocs.len() > 1 {
        return Err(Violation::new(
            "CONFORM-ARC-DEALLOC",
            format!("payload reclaimed {} times: {deallocs:?}", deallocs.len()),
            deallocs,
        ));
    }
    if let [d] = deallocs[..] {
        if !g.iter().any(|(_, ev)| ev.ty == ArcEvent::DropLast) {
            return Err(Violation::new(
                "CONFORM-ARC-DEALLOC",
                format!("dealloc {d} although no drop observed count 1"),
                vec![d],
            ));
        }
        for (id, ev) in g.iter() {
            if ev.ty.is_strong() && g.lhb(d, id) {
                return Err(Violation::new(
                    "CONFORM-ARC-UAF",
                    format!(
                        "strong event {id} {:?} was invoked after the dealloc {d} responded",
                        ev.ty
                    ),
                    vec![d, id],
                ));
            }
        }
    }
    if find_linearization(g, &ArcInterp, &[]).is_none() {
        return Err(Violation::new(
            "CONFORM-ARC-ORDER",
            "no order of the observed counter operations respects both the \
             real-time order and the sequential counter semantics",
            Vec::new(),
        ));
    }
    Ok(())
}

/// The conformance harness's names for the value-level STM clauses.
const CONFORM_STM_RULES: StmRules = StmRules {
    txn: "CONFORM-STM-TXN",
    ver: "CONFORM-STM-VER",
    ser: "CONFORM-STM-SER",
    ro: "CONFORM-STM-RO",
    abort: "CONFORM-STM-ABORT",
};

/// The staged STM conformance check: the value-level opacity clauses
/// ([`check_stm_clauses`], deterministic thanks to the version
/// annotations) plus `CONFORM-STM-RT`, the real-time counterpart of the
/// model's `STM-HB-VER` — the global version is monotone, so a begin
/// that starts after a writer's commit responded must observe a version
/// at least that high, and a begin that responded before the commit was
/// invoked cannot have observed it yet.
pub fn check_conform_stm(g: &Graph<StmEvent>) -> SpecResult {
    g.check_well_formed()?;
    check_stm_clauses(g, &CONFORM_STM_RULES)?;
    let mut begins: Vec<(EventId, i64)> = Vec::new();
    let mut begin_ver: BTreeMap<i64, i64> = BTreeMap::new();
    for (id, ev) in g.iter() {
        if let StmEvent::Begin { tx, ver } = ev.ty {
            begins.push((id, ver));
            begin_ver.insert(tx, ver);
        }
    }
    for (cid, ev) in g.iter() {
        let StmEvent::Commit { tx, ver: fver } = ev.ty else {
            continue;
        };
        if begin_ver.get(&tx) == Some(&fver) {
            continue; // read-only commit: publishes nothing.
        }
        for &(bid, bver) in &begins {
            if g.lhb(cid, bid) && bver < fver {
                return Err(Violation::new(
                    "CONFORM-STM-RT",
                    format!(
                        "begin {bid} started after writer commit {cid} (version {fver}) \
                         responded, yet observed the older version {bver}"
                    ),
                    vec![cid, bid],
                ));
            }
            if g.lhb(bid, cid) && bver >= fver {
                return Err(Violation::new(
                    "CONFORM-STM-RT",
                    format!(
                        "begin {bid} observed version {bver} although the commit {cid} \
                         publishing version {fver} had not yet been invoked"
                    ),
                    vec![bid, cid],
                ));
            }
        }
    }
    Ok(())
}

/// The staged exchanger conformance check: every successful exchange has
/// a symmetric cross-over partner whose interval overlaps ours.
pub fn check_conform_exchanger(g: &Graph<ExchangeEvent>) -> SpecResult {
    g.check_well_formed()?;
    let mut partner: BTreeMap<EventId, EventId> = BTreeMap::new();
    for (id, ev) in g.iter() {
        let Some(got) = ev.ty.got else { continue };
        if got == ev.ty.give {
            return Err(Violation::new(
                "CONFORM-XCHG-MATCH",
                format!("{id} received its own offered value {got:?} back"),
                vec![id],
            ));
        }
        // Candidates: a *different* event that offered what we received.
        let offers: Vec<EventId> = g
            .iter()
            .filter(|&(p, pe)| p != id && pe.ty.give == got)
            .map(|(p, _)| p)
            .collect();
        if offers.is_empty() {
            return Err(Violation::new(
                "CONFORM-XCHG-MATCH",
                format!("{id} received {got:?}, which nobody offered"),
                vec![id],
            ));
        }
        let symmetric: Vec<EventId> = offers
            .iter()
            .copied()
            .filter(|&p| g.event(p).ty.got == Some(ev.ty.give))
            .collect();
        if symmetric.is_empty() {
            return Err(Violation::new(
                "CONFORM-XCHG-SYM",
                format!(
                    "{id} received {got:?} but no offerer of {got:?} received {:?} back",
                    ev.ty.give
                ),
                offers,
            ));
        }
        // A matched pair must have been in the exchanger at the same
        // time: real-time-disjoint intervals cannot have exchanged.
        let overlapping: Vec<EventId> = symmetric
            .iter()
            .copied()
            .filter(|&p| !g.lhb(id, p) && !g.lhb(p, id) && g.event(p).tid != g.event(id).tid)
            .collect();
        if overlapping.is_empty() {
            return Err(Violation::new(
                "CONFORM-XCHG-OVERLAP",
                format!(
                    "{id} and its only possible partner(s) {symmetric:?} \
                     did not overlap in real time"
                ),
                symmetric,
            ));
        }
        // With distinct offered values the partner is unique; record it
        // for the injectivity check below.
        if let [p] = overlapping[..] {
            if let Some(&prev) = partner.get(&p) {
                if prev != id {
                    return Err(Violation::new(
                        "CONFORM-XCHG-MATCH",
                        format!("{prev} and {id} both exchanged with {p}"),
                        vec![prev, id, p],
                    ));
                }
            }
            partner.insert(id, p);
            partner.insert(p, id);
        }
    }
    Ok(())
}

impl ConformEvent for QueueEvent {
    fn encode(&self) -> String {
        match self {
            QueueEvent::Enq(v) => format!("enq {}", encode_val(*v)),
            QueueEvent::Deq(v) => format!("deq {}", encode_val(*v)),
            QueueEvent::EmpDeq => "empdeq".to_string(),
        }
    }

    fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split_whitespace();
        let ev = match (parts.next()?, parts.next()) {
            ("enq", Some(v)) => QueueEvent::Enq(decode_val(v)?),
            ("deq", Some(v)) => QueueEvent::Deq(decode_val(v)?),
            ("empdeq", None) => QueueEvent::EmpDeq,
            _ => return None,
        };
        parts.next().is_none().then_some(ev)
    }

    fn produced(&self) -> Option<Val> {
        self.enq_value()
    }

    fn taken(&self) -> Option<Val> {
        match self {
            QueueEvent::Deq(v) => Some(*v),
            _ => None,
        }
    }

    fn is_empty_observation(&self) -> bool {
        matches!(self, QueueEvent::EmpDeq)
    }

    fn check(g: &Graph<Self>) -> SpecResult {
        check_conform_queue(g)
    }

    fn linearize(g: &Graph<Self>) -> Option<Vec<EventId>> {
        find_linearization(g, &QueueInterp, &[])
    }
}

impl ConformEvent for StackEvent {
    fn encode(&self) -> String {
        match self {
            StackEvent::Push(v) => format!("push {}", encode_val(*v)),
            StackEvent::Pop(v) => format!("pop {}", encode_val(*v)),
            StackEvent::EmpPop => "emppop".to_string(),
        }
    }

    fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split_whitespace();
        let ev = match (parts.next()?, parts.next()) {
            ("push", Some(v)) => StackEvent::Push(decode_val(v)?),
            ("pop", Some(v)) => StackEvent::Pop(decode_val(v)?),
            ("emppop", None) => StackEvent::EmpPop,
            _ => return None,
        };
        parts.next().is_none().then_some(ev)
    }

    fn produced(&self) -> Option<Val> {
        self.push_value()
    }

    fn taken(&self) -> Option<Val> {
        match self {
            StackEvent::Pop(v) => Some(*v),
            _ => None,
        }
    }

    fn is_empty_observation(&self) -> bool {
        matches!(self, StackEvent::EmpPop)
    }

    fn check(g: &Graph<Self>) -> SpecResult {
        check_conform_stack(g)
    }

    fn linearize(g: &Graph<Self>) -> Option<Vec<EventId>> {
        find_linearization(g, &StackInterp, &[])
    }
}

impl ConformEvent for DequeEvent {
    fn encode(&self) -> String {
        match self {
            DequeEvent::Push(v) => format!("push {}", encode_val(*v)),
            DequeEvent::Pop(v) => format!("pop {}", encode_val(*v)),
            DequeEvent::EmpPop => "emppop".to_string(),
            DequeEvent::Steal(v) => format!("steal {}", encode_val(*v)),
            DequeEvent::EmpSteal => "empsteal".to_string(),
        }
    }

    fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split_whitespace();
        let ev = match (parts.next()?, parts.next()) {
            ("push", Some(v)) => DequeEvent::Push(decode_val(v)?),
            ("pop", Some(v)) => DequeEvent::Pop(decode_val(v)?),
            ("steal", Some(v)) => DequeEvent::Steal(decode_val(v)?),
            ("emppop", None) => DequeEvent::EmpPop,
            ("empsteal", None) => DequeEvent::EmpSteal,
            _ => return None,
        };
        parts.next().is_none().then_some(ev)
    }

    fn produced(&self) -> Option<Val> {
        self.push_value()
    }

    fn taken(&self) -> Option<Val> {
        match self {
            DequeEvent::Pop(v) | DequeEvent::Steal(v) => Some(*v),
            _ => None,
        }
    }

    fn is_empty_observation(&self) -> bool {
        matches!(self, DequeEvent::EmpPop | DequeEvent::EmpSteal)
    }

    fn check(g: &Graph<Self>) -> SpecResult {
        check_conform_deque(g)
    }

    fn linearize(g: &Graph<Self>) -> Option<Vec<EventId>> {
        find_linearization(&mutator_subgraph(g), &DequeInterp, &[])
    }
}

impl ConformEvent for ExchangeEvent {
    fn encode(&self) -> String {
        match self.got {
            Some(w) => format!("xchg {} {}", encode_val(self.give), encode_val(w)),
            None => format!("xchg {} -", encode_val(self.give)),
        }
    }

    fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split_whitespace();
        let ev = match (parts.next()?, parts.next()?, parts.next()?) {
            ("xchg", give, "-") => ExchangeEvent {
                give: decode_val(give)?,
                got: None,
            },
            ("xchg", give, got) => ExchangeEvent {
                give: decode_val(give)?,
                got: Some(decode_val(got)?),
            },
            _ => return None,
        };
        parts.next().is_none().then_some(ev)
    }

    fn check(g: &Graph<Self>) -> SpecResult {
        check_conform_exchanger(g)
    }

    fn linearize(g: &Graph<Self>) -> Option<Vec<EventId>> {
        Some(lhb_topological_order(g))
    }
}

impl ConformEvent for ArcEvent {
    fn encode(&self) -> String {
        match self {
            ArcEvent::Clone { old } => format!("clone {old}"),
            ArcEvent::Drop { old } => format!("drop {old}"),
            ArcEvent::DropLast => "droplast".to_string(),
            ArcEvent::UpgradeOk { old } => format!("upok {old}"),
            ArcEvent::UpgradeFail => "upfail".to_string(),
            ArcEvent::WeakClone { old } => format!("wclone {old}"),
            ArcEvent::WeakDrop { old } => format!("wdrop {old}"),
            ArcEvent::Dealloc => "dealloc".to_string(),
        }
    }

    fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split_whitespace();
        let int = |s: Option<&str>| s.and_then(|s| s.parse::<i64>().ok());
        let ev = match parts.next()? {
            "clone" => ArcEvent::Clone {
                old: int(parts.next())?,
            },
            "drop" => ArcEvent::Drop {
                old: int(parts.next())?,
            },
            "droplast" => ArcEvent::DropLast,
            "upok" => ArcEvent::UpgradeOk {
                old: int(parts.next())?,
            },
            "upfail" => ArcEvent::UpgradeFail,
            "wclone" => ArcEvent::WeakClone {
                old: int(parts.next())?,
            },
            "wdrop" => ArcEvent::WeakDrop {
                old: int(parts.next())?,
            },
            "dealloc" => ArcEvent::Dealloc,
            _ => return None,
        };
        parts.next().is_none().then_some(ev)
    }

    fn check(g: &Graph<Self>) -> SpecResult {
        check_conform_arc(g)
    }

    fn linearize(g: &Graph<Self>) -> Option<Vec<EventId>> {
        find_linearization(g, &ArcInterp, &[])
    }
}

impl ConformEvent for StmEvent {
    fn encode(&self) -> String {
        match self {
            StmEvent::Begin { tx, ver } => format!("begin {tx} {ver}"),
            StmEvent::Read { tx, key, v } => format!("read {tx} {key} {}", encode_val(*v)),
            StmEvent::Write { tx, key, v } => format!("write {tx} {key} {}", encode_val(*v)),
            StmEvent::Commit { tx, ver } => format!("commit {tx} {ver}"),
            StmEvent::Abort { tx } => format!("abort {tx}"),
        }
    }

    fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split_whitespace();
        let kind = parts.next()?;
        let int = |s: Option<&str>| s.and_then(|s| s.parse::<i64>().ok());
        let ev = match kind {
            "begin" => StmEvent::Begin {
                tx: int(parts.next())?,
                ver: int(parts.next())?,
            },
            "read" | "write" => {
                let tx = int(parts.next())?;
                let key = int(parts.next())?;
                let v = decode_val(parts.next()?)?;
                if kind == "read" {
                    StmEvent::Read { tx, key, v }
                } else {
                    StmEvent::Write { tx, key, v }
                }
            }
            "commit" => StmEvent::Commit {
                tx: int(parts.next())?,
                ver: int(parts.next())?,
            },
            "abort" => StmEvent::Abort {
                tx: int(parts.next())?,
            },
            _ => return None,
        };
        parts.next().is_none().then_some(ev)
    }

    fn check(g: &Graph<Self>) -> SpecResult {
        check_conform_stm(g)
    }

    fn linearize(g: &Graph<Self>) -> Option<Vec<EventId>> {
        // The value-level check is deterministic (no search); the witness
        // is any total order extending real time.
        Some(lhb_topological_order(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conform::History;
    use DequeEvent as De;
    use QueueEvent::{Deq, EmpDeq, Enq};
    use StackEvent::{EmpPop, Pop, Push};

    fn int(i: i64) -> Val {
        Val::Int(i)
    }

    #[test]
    fn event_codecs_round_trip() {
        let queue = [Enq(int(5)), Deq(int(-3)), EmpDeq];
        for e in queue {
            assert_eq!(QueueEvent::decode(&e.encode()), Some(e));
        }
        let stack = [Push(int(1)), Pop(int(2)), EmpPop];
        for e in stack {
            assert_eq!(StackEvent::decode(&e.encode()), Some(e));
        }
        let deque = [
            De::Push(int(1)),
            De::Pop(int(2)),
            De::EmpPop,
            De::Steal(int(3)),
            De::EmpSteal,
        ];
        for e in deque {
            assert_eq!(DequeEvent::decode(&e.encode()), Some(e));
        }
        let xchg = [
            ExchangeEvent {
                give: int(1),
                got: Some(int(2)),
            },
            ExchangeEvent {
                give: int(1),
                got: None,
            },
            ExchangeEvent {
                give: Val::Null,
                got: Some(Val::Null),
            },
        ];
        for e in xchg {
            assert_eq!(ExchangeEvent::decode(&e.encode()), Some(e));
        }
        assert_eq!(QueueEvent::decode("enq"), None);
        assert_eq!(QueueEvent::decode("empdeq 3"), None);
        assert_eq!(StackEvent::decode("frob 1"), None);
        assert_eq!(ExchangeEvent::decode("xchg 1"), None);
    }

    #[test]
    fn sequential_queue_history_conforms() {
        let h = History::from_tuples(vec![
            vec![(Enq(int(1)), 0, 1), (Enq(int(2)), 2, 3)],
            vec![
                (Deq(int(1)), 10, 11),
                (Deq(int(2)), 12, 13),
                (EmpDeq, 14, 15),
            ],
        ]);
        check_conform_queue(&h.to_graph()).unwrap();
    }

    #[test]
    fn duplicated_take_is_flagged() {
        // Two dequeues of the same once-enqueued value: the weak-queue
        // signature.
        let h = History::from_tuples(vec![
            vec![(Enq(int(7)), 0, 1)],
            vec![(Deq(int(7)), 2, 3)],
            vec![(Deq(int(7)), 2, 3)],
        ]);
        let err = check_conform_queue(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-QUEUE-DUP");
    }

    #[test]
    fn invented_value_is_flagged() {
        let h = History::from_tuples(vec![vec![(Deq(int(9)), 0, 1)]]);
        let err = check_conform_queue(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-QUEUE-MATCH");
    }

    #[test]
    fn take_before_produce_is_flagged() {
        let h = History::from_tuples(vec![vec![(Enq(int(4)), 10, 11)], vec![(Deq(int(4)), 0, 1)]]);
        let err = check_conform_queue(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-QUEUE-CAUSALITY");
    }

    #[test]
    fn empty_despite_resident_element_is_flagged() {
        // Enq finished at 1; EmpDeq ran [5,6]; the only Deq started at 10.
        let h = History::from_tuples(vec![
            vec![(Enq(int(1)), 0, 1)],
            vec![(EmpDeq, 5, 6)],
            vec![(Deq(int(1)), 10, 11)],
        ]);
        let err = check_conform_queue(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-QUEUE-EMPTY");
    }

    #[test]
    fn concurrent_empty_observation_is_allowed() {
        // The taker overlaps the empty observation: the EmpDeq can
        // linearize after the Deq.
        let h = History::from_tuples(vec![
            vec![(Enq(int(1)), 0, 1)],
            vec![(EmpDeq, 5, 8)],
            vec![(Deq(int(1)), 4, 9)],
        ]);
        check_conform_queue(&h.to_graph()).unwrap();
    }

    #[test]
    fn fifo_inversion_is_flagged_as_order() {
        // enq1 before enq2 (real time), deq2 before deq1 (real time), no
        // structural anomaly — only the linearization search sees it.
        let h = History::from_tuples(vec![
            vec![(Enq(int(1)), 0, 1), (Enq(int(2)), 2, 3)],
            vec![(Deq(int(2)), 10, 11), (Deq(int(1)), 12, 13)],
        ]);
        let err = check_conform_queue(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-QUEUE-ORDER");
    }

    #[test]
    fn unplaceable_empty_is_flagged() {
        // t2 observes empty strictly between deq(1) and deq(2) — but in
        // any FIFO order value 2 is still inside at that point.
        let h = History::from_tuples(vec![
            vec![(Enq(int(1)), 0, 1), (Enq(int(2)), 2, 3)],
            vec![(Deq(int(1)), 10, 11), (Deq(int(2)), 20, 21)],
            vec![(EmpDeq, 14, 15)],
        ]);
        let err = check_conform_queue(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-QUEUE-EMPTY");
    }

    #[test]
    fn lifo_inversion_is_flagged() {
        // Stack: push1 push2 sequentially, then pop1 before pop2 with a
        // real-time edge between the pops — not LIFO.
        let h = History::from_tuples(vec![
            vec![(Push(int(1)), 0, 1), (Push(int(2)), 2, 3)],
            vec![(Pop(int(1)), 10, 11), (Pop(int(2)), 12, 13)],
        ]);
        let err = check_conform_stack(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-STACK-ORDER");
        // Concurrent pops are fine (either take order linearizes? No —
        // LIFO still forces pop2 first; but with overlap the search may
        // reorder them).
        let ok = History::from_tuples(vec![
            vec![(Push(int(1)), 0, 1), (Push(int(2)), 2, 3)],
            vec![(Pop(int(1)), 10, 20)],
            vec![(Pop(int(2)), 10, 20)],
        ]);
        check_conform_stack(&ok.to_graph()).unwrap();
    }

    #[test]
    fn deque_owner_and_order_checks() {
        // Two threads doing owner ops: flagged.
        let h = History::from_tuples(vec![
            vec![(De::Push(int(1)), 0, 1)],
            vec![(De::Pop(int(1)), 2, 3)],
        ]);
        let err = check_conform_deque(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-DEQUE-OWNER");
        // Owner pushes 1,2 and pops 2 (LIFO); thief steals 1 (FIFO): ok.
        let ok = History::from_tuples(vec![
            vec![
                (De::Push(int(1)), 0, 1),
                (De::Push(int(2)), 2, 3),
                (De::Pop(int(2)), 4, 5),
            ],
            vec![(De::Steal(int(1)), 10, 11), (De::EmpSteal, 12, 13)],
        ]);
        check_conform_deque(&ok.to_graph()).unwrap();
        // Thief steals the *bottom* element while the top one is still
        // there: order violation.
        let bad = History::from_tuples(vec![
            vec![(De::Push(int(1)), 0, 1), (De::Push(int(2)), 2, 3)],
            vec![(De::Steal(int(2)), 10, 11), (De::Steal(int(1)), 12, 13)],
        ]);
        let err = check_conform_deque(&bad.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-DEQUE-ORDER");
    }

    #[test]
    fn thief_empty_during_owner_pop_is_allowed() {
        // The deque-specific relaxation: EmpSteal while the owner's pop
        // of the last element is in flight. A full-graph linearization
        // would reject this; the staged check must not.
        let h = History::from_tuples(vec![
            vec![(De::Push(int(1)), 0, 1), (De::Pop(int(1)), 4, 9)],
            vec![(De::EmpSteal, 5, 6)],
        ]);
        check_conform_deque(&h.to_graph()).unwrap();
    }

    #[test]
    fn exchanger_checks() {
        let ok = History::from_tuples(vec![
            vec![(
                ExchangeEvent {
                    give: int(1),
                    got: Some(int(2)),
                },
                0,
                10,
            )],
            vec![(
                ExchangeEvent {
                    give: int(2),
                    got: Some(int(1)),
                },
                1,
                9,
            )],
            vec![(
                ExchangeEvent {
                    give: int(3),
                    got: None,
                },
                0,
                5,
            )],
        ]);
        check_conform_exchanger(&ok.to_graph()).unwrap();

        // Received a value nobody offered.
        let h = History::from_tuples(vec![vec![(
            ExchangeEvent {
                give: int(1),
                got: Some(int(9)),
            },
            0,
            1,
        )]]);
        assert_eq!(
            check_conform_exchanger(&h.to_graph()).unwrap_err().rule,
            "CONFORM-XCHG-MATCH"
        );

        // Partner did not get our value back.
        let h = History::from_tuples(vec![
            vec![(
                ExchangeEvent {
                    give: int(1),
                    got: Some(int(2)),
                },
                0,
                10,
            )],
            vec![(
                ExchangeEvent {
                    give: int(2),
                    got: None,
                },
                1,
                9,
            )],
        ]);
        assert_eq!(
            check_conform_exchanger(&h.to_graph()).unwrap_err().rule,
            "CONFORM-XCHG-SYM"
        );

        // Symmetric pair without real-time overlap.
        let h = History::from_tuples(vec![
            vec![(
                ExchangeEvent {
                    give: int(1),
                    got: Some(int(2)),
                },
                0,
                1,
            )],
            vec![(
                ExchangeEvent {
                    give: int(2),
                    got: Some(int(1)),
                },
                5,
                6,
            )],
        ]);
        assert_eq!(
            check_conform_exchanger(&h.to_graph()).unwrap_err().rule,
            "CONFORM-XCHG-OVERLAP"
        );
    }

    #[test]
    fn arc_stm_codecs_round_trip() {
        let arc = [
            ArcEvent::Clone { old: 3 },
            ArcEvent::Drop { old: 2 },
            ArcEvent::DropLast,
            ArcEvent::UpgradeOk { old: 1 },
            ArcEvent::UpgradeFail,
            ArcEvent::WeakClone { old: 1 },
            ArcEvent::WeakDrop { old: 2 },
            ArcEvent::Dealloc,
        ];
        for e in arc {
            assert_eq!(ArcEvent::decode(&e.encode()), Some(e));
        }
        let stm = [
            StmEvent::Begin { tx: 1, ver: 4 },
            StmEvent::Read {
                tx: 1,
                key: 0,
                v: int(-7),
            },
            StmEvent::Write {
                tx: 1,
                key: 3,
                v: int(9),
            },
            StmEvent::Commit { tx: 1, ver: 6 },
            StmEvent::Abort { tx: 2 },
        ];
        for e in stm {
            assert_eq!(StmEvent::decode(&e.encode()), Some(e));
        }
        assert_eq!(ArcEvent::decode("clone"), None);
        assert_eq!(ArcEvent::decode("droplast 2"), None);
        assert_eq!(StmEvent::decode("begin 1"), None);
        assert_eq!(StmEvent::decode("commit 1 2 3"), None);
    }

    #[test]
    fn sequential_arc_history_conforms() {
        let h = History::from_tuples(vec![
            vec![(ArcEvent::Clone { old: 1 }, 0, 1)],
            vec![
                (ArcEvent::Drop { old: 2 }, 10, 11),
                (ArcEvent::DropLast, 12, 13),
                (ArcEvent::Dealloc, 14, 15),
            ],
        ]);
        check_conform_arc(&h.to_graph()).unwrap();
    }

    #[test]
    fn lost_update_drop_is_flagged_as_order() {
        // Two drops both observing 2: the load+store decrement's lost
        // update. No counter history explains it.
        let h = History::from_tuples(vec![
            vec![
                (ArcEvent::Clone { old: 1 }, 0, 1),
                (ArcEvent::Clone { old: 2 }, 2, 3),
            ],
            vec![(ArcEvent::Drop { old: 2 }, 10, 11)],
            vec![(ArcEvent::Drop { old: 2 }, 10, 11)],
        ]);
        let err = check_conform_arc(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-ARC-ORDER");
    }

    #[test]
    fn use_after_free_real_time_is_flagged() {
        // The clone is invoked strictly after the dealloc responded.
        let h = History::from_tuples(vec![
            vec![(ArcEvent::DropLast, 0, 1), (ArcEvent::Dealloc, 2, 3)],
            vec![(ArcEvent::Clone { old: 1 }, 10, 11)],
        ]);
        let err = check_conform_arc(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-ARC-UAF");
    }

    #[test]
    fn double_dealloc_is_flagged() {
        let h = History::from_tuples(vec![
            vec![(ArcEvent::DropLast, 0, 1)],
            vec![(ArcEvent::Dealloc, 2, 3), (ArcEvent::Dealloc, 4, 5)],
        ]);
        let err = check_conform_arc(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-ARC-DEALLOC");
    }

    #[test]
    fn out_of_range_count_is_flagged() {
        let h = History::from_tuples(vec![vec![(ArcEvent::Drop { old: 1 }, 0, 1)]]);
        let err = check_conform_arc(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-ARC-RANGE");
    }

    #[test]
    fn committed_stm_history_conforms() {
        let h = History::from_tuples(vec![
            vec![
                (StmEvent::Begin { tx: 1, ver: 0 }, 0, 1),
                (
                    StmEvent::Write {
                        tx: 1,
                        key: 0,
                        v: int(7),
                    },
                    2,
                    3,
                ),
                (StmEvent::Commit { tx: 1, ver: 2 }, 4, 5),
            ],
            vec![
                (StmEvent::Begin { tx: 2, ver: 2 }, 10, 11),
                (
                    StmEvent::Read {
                        tx: 2,
                        key: 0,
                        v: int(7),
                    },
                    12,
                    13,
                ),
                (StmEvent::Commit { tx: 2, ver: 2 }, 14, 15),
            ],
        ]);
        check_conform_stm(&h.to_graph()).unwrap();
    }

    #[test]
    fn torn_stm_read_is_flagged_as_ro() {
        // tx 2 began at version 0 but read the writer's value: a torn
        // snapshot (the validation-skipping signature).
        let h = History::from_tuples(vec![
            vec![
                (StmEvent::Begin { tx: 1, ver: 0 }, 0, 1),
                (
                    StmEvent::Write {
                        tx: 1,
                        key: 0,
                        v: int(7),
                    },
                    2,
                    3,
                ),
                (StmEvent::Commit { tx: 1, ver: 2 }, 8, 9),
            ],
            vec![
                (StmEvent::Begin { tx: 2, ver: 0 }, 2, 3),
                (
                    StmEvent::Read {
                        tx: 2,
                        key: 0,
                        v: int(7),
                    },
                    4,
                    5,
                ),
                (StmEvent::Commit { tx: 2, ver: 0 }, 6, 7),
            ],
        ]);
        let err = check_conform_stm(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-STM-RO");
    }

    #[test]
    fn stale_begin_after_commit_is_flagged_rt() {
        // The begin starts after the writer's commit responded but claims
        // the old version.
        let h = History::from_tuples(vec![
            vec![
                (StmEvent::Begin { tx: 1, ver: 0 }, 0, 1),
                (
                    StmEvent::Write {
                        tx: 1,
                        key: 0,
                        v: int(7),
                    },
                    2,
                    3,
                ),
                (StmEvent::Commit { tx: 1, ver: 2 }, 4, 5),
            ],
            vec![
                (StmEvent::Begin { tx: 2, ver: 0 }, 10, 11),
                (StmEvent::Commit { tx: 2, ver: 0 }, 12, 13),
            ],
        ]);
        let err = check_conform_stm(&h.to_graph()).unwrap_err();
        assert_eq!(err.rule, "CONFORM-STM-RT");
    }

    #[test]
    fn topological_order_respects_lhb() {
        let h = History::from_tuples(vec![
            vec![(
                ExchangeEvent {
                    give: int(1),
                    got: None,
                },
                0,
                1,
            )],
            vec![(
                ExchangeEvent {
                    give: int(2),
                    got: None,
                },
                5,
                6,
            )],
        ]);
        let g = h.to_graph();
        let order = ExchangeEvent::linearize(&g).unwrap();
        assert_eq!(order.len(), 2);
        let pos = |id: EventId| order.iter().position(|&x| x == id).unwrap();
        for (d, _) in g.iter() {
            for (e, _) in g.iter() {
                if g.lhb(e, d) {
                    assert!(pos(e) < pos(d));
                }
            }
        }
    }
}
