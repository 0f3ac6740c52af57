//! TM consistency (opacity) for a release-acquire software transactional
//! memory.
//!
//! The vocabulary follows the operational treatment of release-acquire
//! transactional mutex locks (Dalvandi & Dongol, arXiv:2208.00315): a
//! *versioned* TM (TML/TL2 family) publishes a global version counter —
//! even when unlocked, odd while a writer holds the lock — and every
//! transaction's events carry the versions its instructions observed:
//! [`StmEvent::Begin`] the version read at start, [`StmEvent::Commit`]
//! the final version a writer published (begin + 2) or, for a read-only
//! transaction, its begin version. The version annotations make opacity
//! checkable deterministically, without a serialization search:
//!
//! * `STM-TXN` — transactions are well-shaped: one `Begin` first, events
//!   on one thread, at most one terminal (`Commit`/`Abort`) last, begin
//!   versions even.
//! * `STM-VER` — the versioned store evolves correctly: committed writers
//!   have pairwise-distinct final versions with `final = begin + 2` (so
//!   writer windows never overlap), read-only commits keep their begin
//!   version.
//! * `STM-SER` — serializability of committed writers: replayed in final-
//!   version order, every read sees the transaction's own earlier write
//!   or the store snapshot at its begin version.
//! * `STM-RO` — committed read-only transactions read a single consistent
//!   snapshot: the store at their begin version.
//! * `STM-ABORT` — aborted (and still-running) transactions read
//!   consistent snapshots too — the opacity requirement that even doomed
//!   transactions never observe torn state. This is the clause the
//!   validation-skipping control violates.
//! * `STM-HB-VER` — the relaxed-memory clause (model graphs only): a
//!   transaction beginning at version `V > 0` happens-after the writer
//!   commit that produced `V` (the begin's acquire read of the version
//!   counter synchronizes with the release unlock).
//!
//! Unwritten keys read as `Val::Int(0)` — the initial store.

use std::collections::BTreeMap;

use orc11::Val;

use crate::event::EventId;
use crate::graph::Graph;
use crate::spec::{SpecResult, Violation};

/// STM events. `tx` is a (globally unique) transaction id; `ver` fields
/// carry the observed global version.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum StmEvent {
    /// Transaction `tx` started, observing global version `ver` (even).
    Begin {
        /// Transaction id.
        tx: i64,
        /// Version read at start.
        ver: i64,
    },
    /// Transaction `tx` read `v` from `key` (validated read).
    Read {
        /// Transaction id.
        tx: i64,
        /// The transactional location.
        key: i64,
        /// The value read.
        v: Val,
    },
    /// Transaction `tx` wrote `v` to `key`.
    Write {
        /// Transaction id.
        tx: i64,
        /// The transactional location.
        key: i64,
        /// The value written.
        v: Val,
    },
    /// Transaction `tx` committed. Writers publish `ver = begin + 2`;
    /// read-only transactions report their begin version.
    Commit {
        /// Transaction id.
        tx: i64,
        /// Final version.
        ver: i64,
    },
    /// Transaction `tx` aborted (failed validation or lock acquisition).
    Abort {
        /// Transaction id.
        tx: i64,
    },
}

impl StmEvent {
    /// The transaction this event belongs to.
    pub fn tx(self) -> i64 {
        match self {
            StmEvent::Begin { tx, .. }
            | StmEvent::Read { tx, .. }
            | StmEvent::Write { tx, .. }
            | StmEvent::Commit { tx, .. }
            | StmEvent::Abort { tx } => tx,
        }
    }
}

/// Clause names for the value-level checks, so the conformance harness
/// can reuse them under its `CONFORM-STM-*` vocabulary.
#[derive(Copy, Clone, Debug)]
pub struct StmRules {
    /// Transaction shape violations.
    pub txn: &'static str,
    /// Version bookkeeping violations.
    pub ver: &'static str,
    /// Committed-writer serializability violations.
    pub ser: &'static str,
    /// Committed read-only snapshot violations.
    pub ro: &'static str,
    /// Aborted/running-transaction snapshot violations.
    pub abort: &'static str,
}

/// The model checker's clause names.
pub const STM_RULES: StmRules = StmRules {
    txn: "STM-TXN",
    ver: "STM-VER",
    ser: "STM-SER",
    ro: "STM-RO",
    abort: "STM-ABORT",
};

/// One transaction's events, in commit order.
struct TxView {
    begin: (EventId, i64),
    tid: orc11::ThreadId,
    /// Reads and writes, in commit order.
    ops: Vec<(EventId, StmEvent)>,
    commit: Option<(EventId, i64)>,
    aborted: bool,
    has_writes: bool,
}

/// Groups events by transaction, checking the shape clause along the way.
fn group_txns(g: &Graph<StmEvent>, rules: &StmRules) -> Result<Vec<TxView>, Violation> {
    let mut order: Vec<i64> = Vec::new();
    let mut txns: BTreeMap<i64, TxView> = BTreeMap::new();
    for (id, ev) in g.iter() {
        let tx = ev.ty.tx();
        if let StmEvent::Begin { ver, .. } = ev.ty {
            if txns.contains_key(&tx) {
                return Err(Violation::new(
                    rules.txn,
                    format!("transaction {tx} has a second Begin {id}"),
                    vec![id],
                ));
            }
            if ver < 0 || ver % 2 != 0 {
                return Err(Violation::new(
                    rules.txn,
                    format!("transaction {tx} began at invalid version {ver}"),
                    vec![id],
                ));
            }
            order.push(tx);
            txns.insert(
                tx,
                TxView {
                    begin: (id, ver),
                    tid: ev.tid,
                    ops: Vec::new(),
                    commit: None,
                    aborted: false,
                    has_writes: false,
                },
            );
            continue;
        }
        let Some(view) = txns.get_mut(&tx) else {
            return Err(Violation::new(
                rules.txn,
                format!("{id} {:?} precedes its transaction's Begin", ev.ty),
                vec![id],
            ));
        };
        if view.tid != ev.tid {
            return Err(Violation::new(
                rules.txn,
                format!("transaction {tx} spans threads {} and {}", view.tid, ev.tid),
                vec![view.begin.0, id],
            ));
        }
        if view.commit.is_some() || view.aborted {
            return Err(Violation::new(
                rules.txn,
                format!("{id} {:?} follows its transaction's terminal event", ev.ty),
                vec![id],
            ));
        }
        match ev.ty {
            StmEvent::Read { .. } => view.ops.push((id, ev.ty)),
            StmEvent::Write { .. } => {
                view.has_writes = true;
                view.ops.push((id, ev.ty));
            }
            StmEvent::Commit { ver, .. } => view.commit = Some((id, ver)),
            StmEvent::Abort { .. } => view.aborted = true,
            StmEvent::Begin { .. } => unreachable!("handled above"),
        }
    }
    Ok(order
        .into_iter()
        .map(|tx| txns.remove(&tx).unwrap())
        .collect())
}

/// STM-VER: committed writers publish `begin + 2` with pairwise-distinct
/// final versions; read-only commits keep their begin version.
fn check_versions(txns: &[TxView], rules: &StmRules) -> SpecResult {
    let mut finals: BTreeMap<i64, EventId> = BTreeMap::new();
    for t in txns {
        let Some((cid, cver)) = t.commit else {
            continue;
        };
        let (bid, bver) = t.begin;
        if t.has_writes {
            if cver != bver + 2 {
                return Err(Violation::new(
                    rules.ver,
                    format!("writer began at {bver} but committed version {cver} (want begin + 2)"),
                    vec![bid, cid],
                ));
            }
            if let Some(&other) = finals.get(&cver) {
                return Err(Violation::new(
                    rules.ver,
                    format!("two writer commits published version {cver}"),
                    vec![other, cid],
                ));
            }
            finals.insert(cver, cid);
        } else if cver != bver {
            return Err(Violation::new(
                rules.ver,
                format!("read-only transaction began at {bver} but committed at {cver}"),
                vec![bid, cid],
            ));
        }
    }
    Ok(())
}

/// The store after all committed writers with final version ≤ `ver`,
/// given writers sorted by final version. Unwritten keys are `Int(0)`.
fn snapshot(writers: &[(i64, &TxView)], ver: i64) -> BTreeMap<i64, Val> {
    let mut st = BTreeMap::new();
    for (fver, t) in writers {
        if *fver > ver {
            break;
        }
        for (_, op) in &t.ops {
            if let StmEvent::Write { key, v, .. } = op {
                st.insert(*key, *v);
            }
        }
    }
    st
}

/// STM-SER / STM-RO / STM-ABORT: every transaction's reads see its own
/// earlier writes overlaid on the store snapshot at its begin version.
fn check_reads(txns: &[TxView], rules: &StmRules) -> SpecResult {
    let mut writers: Vec<(i64, &TxView)> = txns
        .iter()
        .filter(|t| t.commit.is_some() && t.has_writes)
        .map(|t| (t.commit.unwrap().1, t))
        .collect();
    writers.sort_by_key(|(v, _)| *v);
    for t in txns {
        let rule = match (&t.commit, t.has_writes) {
            (Some(_), true) => rules.ser,
            (Some(_), false) => rules.ro,
            (None, _) => rules.abort,
        };
        let (bid, bver) = t.begin;
        let base = snapshot(&writers, bver);
        let mut own: BTreeMap<i64, Val> = BTreeMap::new();
        for (id, op) in &t.ops {
            match *op {
                StmEvent::Write { key, v, .. } => {
                    own.insert(key, v);
                }
                StmEvent::Read { key, v, .. } => {
                    let expected = own
                        .get(&key)
                        .or_else(|| base.get(&key))
                        .copied()
                        .unwrap_or(Val::Int(0));
                    if v != expected {
                        return Err(Violation::new(
                            rule,
                            format!(
                                "{id} read {v:?} from key {key}, but the snapshot at begin \
                                 version {bver} holds {expected:?}"
                            ),
                            vec![bid, *id],
                        ));
                    }
                }
                _ => unreachable!("ops holds only reads and writes"),
            }
        }
    }
    Ok(())
}

/// The value-level clauses (shape, versions, reads) under the given rule
/// names — shared between the model spec and the conformance harness.
pub fn check_stm_clauses(g: &Graph<StmEvent>, rules: &StmRules) -> SpecResult {
    let txns = group_txns(g, rules)?;
    check_versions(&txns, rules)?;
    check_reads(&txns, rules)?;
    Ok(())
}

/// STM-HB-VER: a transaction beginning at version `V > 0` happens-after
/// the writer commit that produced `V` (model graphs, where logical views
/// are the true happens-before).
pub fn check_hb_ver(g: &Graph<StmEvent>) -> SpecResult {
    let mut producers: BTreeMap<i64, EventId> = BTreeMap::new();
    for (id, ev) in g.iter() {
        if let StmEvent::Commit { ver, .. } = ev.ty {
            producers.entry(ver).or_insert(id);
        }
    }
    for (id, ev) in g.iter() {
        let StmEvent::Begin { ver, .. } = ev.ty else {
            continue;
        };
        if ver == 0 {
            continue;
        }
        let Some(&prod) = producers.get(&ver) else {
            return Err(Violation::new(
                "STM-HB-VER",
                format!("begin {id} observed version {ver}, which no commit produced"),
                vec![id],
            ));
        };
        if !g.in_logview(prod, id) {
            return Err(Violation::new(
                "STM-HB-VER",
                format!(
                    "begin {id} observed version {ver} without happening-after the \
                     commit {prod} that produced it"
                ),
                vec![prod, id],
            ));
        }
    }
    Ok(())
}

/// The full `StmConsistent` (opacity) predicate on model graphs:
/// structural well-formedness, the value-level clauses, and the
/// view-transfer clause.
pub fn check_stm_consistent(g: &Graph<StmEvent>) -> SpecResult {
    g.check_well_formed()?;
    check_stm_clauses(g, &STM_RULES)?;
    check_hb_ver(g)?;
    Ok(())
}

/// Checks `StmConsistent` on every commit-step prefix — a prefix cuts
/// transactions mid-flight, which the abort clause treats as
/// still-running (their validated reads must already be consistent).
pub fn check_stm_consistent_prefixes(g: &Graph<StmEvent>) -> SpecResult {
    let mut steps: Vec<u64> = g.iter().map(|(_, e)| e.step).collect();
    steps.push(u64::MAX);
    steps.sort_unstable();
    steps.dedup();
    for &s in &steps {
        check_stm_consistent(&g.prefix_at(s))?;
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

    /// Builds a graph from (type, tid, step, lhb-predecessors).
    fn graph(events: &[(StmEvent, u64, u64, &[u64])]) -> Graph<StmEvent> {
        let mut g = Graph::new();
        for (i, (ty, tid, step, preds)) in events.iter().enumerate() {
            let mut lv: BTreeSet<EventId> = preds.iter().map(|&p| id(p)).collect();
            let mut closed = lv.clone();
            for &p in &lv {
                closed.extend(g.logview(p));
            }
            lv = closed;
            lv.insert(id(i as u64));
            g.add_event(*ty, *tid as usize, *step, lv);
        }
        g
    }

    use StmEvent::*;

    fn v(i: i64) -> Val {
        Val::Int(i)
    }

    #[test]
    fn writer_then_reader_is_consistent() {
        let g = graph(&[
            (Begin { tx: 1, ver: 0 }, 1, 1, &[]),
            (
                Write {
                    tx: 1,
                    key: 0,
                    v: v(7),
                },
                1,
                2,
                &[0],
            ),
            (
                Read {
                    tx: 1,
                    key: 1,
                    v: v(0),
                },
                1,
                3,
                &[1],
            ),
            (Commit { tx: 1, ver: 2 }, 1, 4, &[2]),
            (Begin { tx: 2, ver: 2 }, 2, 5, &[3]),
            (
                Read {
                    tx: 2,
                    key: 0,
                    v: v(7),
                },
                2,
                6,
                &[4],
            ),
            (Commit { tx: 2, ver: 2 }, 2, 7, &[5]),
        ]);
        check_stm_consistent(&g).unwrap();
        check_stm_consistent_prefixes(&g).unwrap();
    }

    #[test]
    fn aborted_reader_must_see_its_begin_snapshot() {
        // Reader began at version 0 but read the writer's value: the
        // torn-snapshot read a validation-skipping TM lets through.
        let g = graph(&[
            (Begin { tx: 1, ver: 0 }, 1, 1, &[]),
            (
                Write {
                    tx: 1,
                    key: 0,
                    v: v(7),
                },
                1,
                2,
                &[0],
            ),
            (Commit { tx: 1, ver: 2 }, 1, 3, &[1]),
            (Begin { tx: 2, ver: 0 }, 2, 4, &[]),
            (
                Read {
                    tx: 2,
                    key: 0,
                    v: v(7),
                },
                2,
                5,
                &[3],
            ),
            (Abort { tx: 2 }, 2, 6, &[4]),
        ]);
        assert_eq!(check_stm_consistent(&g).unwrap_err().rule, "STM-ABORT");
    }

    #[test]
    fn committed_read_only_torn_snapshot_fails_ro() {
        let g = graph(&[
            (Begin { tx: 1, ver: 0 }, 1, 1, &[]),
            (
                Write {
                    tx: 1,
                    key: 0,
                    v: v(1),
                },
                1,
                2,
                &[0],
            ),
            (
                Write {
                    tx: 1,
                    key: 1,
                    v: v(1),
                },
                1,
                3,
                &[1],
            ),
            (Commit { tx: 1, ver: 2 }, 1, 4, &[2]),
            (Begin { tx: 2, ver: 0 }, 2, 5, &[]),
            (
                Read {
                    tx: 2,
                    key: 0,
                    v: v(1),
                },
                2,
                6,
                &[4],
            ),
            (
                Read {
                    tx: 2,
                    key: 1,
                    v: v(0),
                },
                2,
                7,
                &[5],
            ),
            (Commit { tx: 2, ver: 0 }, 2, 8, &[6]),
        ]);
        assert_eq!(check_stm_consistent(&g).unwrap_err().rule, "STM-RO");
    }

    #[test]
    fn writer_sees_own_writes() {
        let g = graph(&[
            (Begin { tx: 1, ver: 0 }, 1, 1, &[]),
            (
                Write {
                    tx: 1,
                    key: 0,
                    v: v(5),
                },
                1,
                2,
                &[0],
            ),
            (
                Read {
                    tx: 1,
                    key: 0,
                    v: v(5),
                },
                1,
                3,
                &[1],
            ),
            (Commit { tx: 1, ver: 2 }, 1, 4, &[2]),
        ]);
        check_stm_consistent(&g).unwrap();
    }

    #[test]
    fn duplicate_final_version_fails_ver() {
        let g = graph(&[
            (Begin { tx: 1, ver: 0 }, 1, 1, &[]),
            (
                Write {
                    tx: 1,
                    key: 0,
                    v: v(1),
                },
                1,
                2,
                &[0],
            ),
            (Commit { tx: 1, ver: 2 }, 1, 3, &[1]),
            (Begin { tx: 2, ver: 0 }, 2, 4, &[]),
            (
                Write {
                    tx: 2,
                    key: 1,
                    v: v(2),
                },
                2,
                5,
                &[3],
            ),
            (Commit { tx: 2, ver: 2 }, 2, 6, &[4]),
        ]);
        assert_eq!(check_stm_consistent(&g).unwrap_err().rule, "STM-VER");
    }

    #[test]
    fn stale_writer_read_fails_ser() {
        // Writer 2 begins at version 2 but reads key 0's initial value.
        let g = graph(&[
            (Begin { tx: 1, ver: 0 }, 1, 1, &[]),
            (
                Write {
                    tx: 1,
                    key: 0,
                    v: v(9),
                },
                1,
                2,
                &[0],
            ),
            (Commit { tx: 1, ver: 2 }, 1, 3, &[1]),
            (Begin { tx: 2, ver: 2 }, 2, 4, &[2]),
            (
                Read {
                    tx: 2,
                    key: 0,
                    v: v(0),
                },
                2,
                5,
                &[3],
            ),
            (
                Write {
                    tx: 2,
                    key: 1,
                    v: v(1),
                },
                2,
                6,
                &[4],
            ),
            (Commit { tx: 2, ver: 4 }, 2, 7, &[5]),
        ]);
        assert_eq!(check_stm_consistent(&g).unwrap_err().rule, "STM-SER");
    }

    #[test]
    fn orphan_event_fails_txn() {
        let g = graph(&[(
            Read {
                tx: 9,
                key: 0,
                v: v(0),
            },
            1,
            1,
            &[],
        )]);
        assert_eq!(check_stm_consistent(&g).unwrap_err().rule, "STM-TXN");
    }

    #[test]
    fn begin_without_producer_fails_hb_ver() {
        let g = graph(&[(Begin { tx: 1, ver: 2 }, 1, 1, &[])]);
        assert_eq!(check_stm_consistent(&g).unwrap_err().rule, "STM-HB-VER");
    }

    #[test]
    fn begin_without_view_of_producer_fails_hb_ver() {
        // The begin observed version 2 but the producing commit is not in
        // its logical view (no synchronization on the version counter).
        let g = graph(&[
            (Begin { tx: 1, ver: 0 }, 1, 1, &[]),
            (
                Write {
                    tx: 1,
                    key: 0,
                    v: v(1),
                },
                1,
                2,
                &[0],
            ),
            (Commit { tx: 1, ver: 2 }, 1, 3, &[1]),
            (Begin { tx: 2, ver: 2 }, 2, 4, &[]),
            (Commit { tx: 2, ver: 2 }, 2, 5, &[3]),
        ]);
        assert_eq!(check_stm_consistent(&g).unwrap_err().rule, "STM-HB-VER");
    }

    #[test]
    fn empty_graph_is_consistent() {
        check_stm_consistent(&Graph::new()).unwrap();
        check_stm_consistent_prefixes(&Graph::new()).unwrap();
    }
}
