//! Exchanger consistency conditions (`ExchangerConsistent`, §4.2) — per
//! the paper, the first CSL spec ever proposed for relaxed-memory
//! exchangers.

use orc11::Val;

use crate::event::EventId;
use crate::graph::Graph;
use crate::spec::{SpecResult, Violation};

/// An exchange event `Exchange(v₁, v₂)`: the caller offered `give` and
/// received `got` (`None` encodes the failure value ⊥).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ExchangeEvent {
    /// The value offered by the caller (never ⊥).
    pub give: Val,
    /// The value received, or `None` if the exchange failed.
    pub got: Option<Val>,
}

impl ExchangeEvent {
    /// Whether the exchange succeeded.
    pub fn succeeded(self) -> bool {
        self.got.is_some()
    }
}

/// EXCHANGER-OFFERS: offered values are never ⊥ (`v₁ ≠ ⊥` is a
/// precondition of `exchange`, enforced here as a graph invariant).
pub fn check_offers(g: &Graph<ExchangeEvent>) -> SpecResult {
    for (id, ev) in g.iter() {
        if ev.ty.give.is_null() {
            return Err(Violation::new(
                "EXCHANGER-OFFERS",
                format!("event {id} offered ⊥"),
                vec![id],
            ));
        }
    }
    Ok(())
}

/// EXCHANGER-SYM: `so` is symmetric and irreflexive — matched exchanges
/// synchronize *with each other* (`G'.so = {(e₁,e₂),(e₂,e₁)} ∪ G.so`).
pub fn check_symmetric(g: &Graph<ExchangeEvent>) -> SpecResult {
    for &(a, b) in g.so() {
        if a == b {
            return Err(Violation::new(
                "EXCHANGER-SYM",
                format!("reflexive so edge on {a}"),
                vec![a],
            ));
        }
        if !g.so().contains(&(b, a)) {
            return Err(Violation::new(
                "EXCHANGER-SYM",
                format!("so edge ({a}, {b}) lacks its mirror"),
                vec![a, b],
            ));
        }
    }
    Ok(())
}

/// EXCHANGER-MATCHES: every successful exchange has exactly one partner;
/// the values cross over (`e₁` got what `e₂` gave and vice versa); failed
/// exchanges have no partner.
pub fn check_matches(g: &Graph<ExchangeEvent>) -> SpecResult {
    for (id, ev) in g.iter() {
        let partners: Vec<EventId> = g
            .so()
            .iter()
            .filter(|&&(a, _)| a == id)
            .map(|&(_, b)| b)
            .collect();
        match ev.ty.got {
            None => {
                if !partners.is_empty() {
                    return Err(Violation::new(
                        "EXCHANGER-MATCHES",
                        format!("failed exchange {id} has partners {partners:?}"),
                        vec![id],
                    ));
                }
            }
            Some(v) => {
                if partners.len() != 1 {
                    return Err(Violation::new(
                        "EXCHANGER-MATCHES",
                        format!(
                            "successful exchange {id} has {} partners (wants exactly 1)",
                            partners.len()
                        ),
                        vec![id],
                    ));
                }
                let p = partners[0];
                let pe = &g.event(p).ty;
                if pe.give != v || pe.got != Some(ev.ty.give) {
                    return Err(Violation::new(
                        "EXCHANGER-MATCHES",
                        format!(
                            "pair ({id}, {p}) values do not cross over: \
                             {:?} vs {:?}",
                            ev.ty, pe
                        ),
                        vec![id, p],
                    ));
                }
            }
        }
    }
    Ok(())
}

/// EXCHANGER-ATOMIC-PAIRS: a matched pair is committed atomically together
/// (helping, §4.2): both events share the same commit instruction and the
/// same logical view `M' ∋ {e₁, e₂}`, so no operation can observe the
/// intermediate state between the two commits.
pub fn check_atomic_pairs(g: &Graph<ExchangeEvent>) -> SpecResult {
    for &(a, b) in g.so() {
        if a > b {
            continue; // each pair once
        }
        let (ea, eb) = (g.event(a), g.event(b));
        if ea.step != eb.step {
            return Err(Violation::new(
                "EXCHANGER-ATOMIC-PAIRS",
                format!(
                    "pair ({a}, {b}) committed at different steps {} and {}",
                    ea.step, eb.step
                ),
                vec![a, b],
            ));
        }
        if !g.in_logview(b, a) || !g.in_logview(a, b) || !g.same_logview(a, b) {
            return Err(Violation::new(
                "EXCHANGER-ATOMIC-PAIRS",
                format!("pair ({a}, {b}) does not share the completed logview M'"),
                vec![a, b],
            ));
        }
        if ea.tid == eb.tid {
            return Err(Violation::new(
                "EXCHANGER-ATOMIC-PAIRS",
                format!("pair ({a}, {b}) belongs to a single thread {}", ea.tid),
                vec![a, b],
            ));
        }
    }
    Ok(())
}

/// The full `ExchangerConsistent` predicate.
///
/// Note (§4.2): in the paper, consistency holds of *completed* graphs;
/// between a helpee's and a helper's commit the exchanger is in an
/// intermediate state. In this executable framework the two commits happen
/// in one instruction ([`crate::LibObj::commit_pair`]), so every observable
/// graph is completed and consistency is checkable unconditionally.
pub fn check_exchanger_consistent(g: &Graph<ExchangeEvent>) -> SpecResult {
    g.check_well_formed()?;
    check_offers(g)?;
    check_symmetric(g)?;
    check_matches(g)?;
    check_atomic_pairs(g)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn id(i: u64) -> EventId {
        EventId::from_raw(i)
    }

    fn pair_graph() -> Graph<ExchangeEvent> {
        let mut g = Graph::new();
        let lv: BTreeSet<EventId> = [id(0), id(1)].into_iter().collect();
        g.add_event(
            ExchangeEvent {
                give: Val::Int(1),
                got: Some(Val::Int(2)),
            },
            1,
            5,
            lv.clone(),
        );
        g.add_event(
            ExchangeEvent {
                give: Val::Int(2),
                got: Some(Val::Int(1)),
            },
            2,
            5,
            lv,
        );
        g.add_so(id(0), id(1));
        g.add_so(id(1), id(0));
        g
    }

    #[test]
    fn matched_pair_is_consistent() {
        check_exchanger_consistent(&pair_graph()).unwrap();
    }

    #[test]
    fn failure_event_is_consistent() {
        let mut g = Graph::new();
        g.add_event(
            ExchangeEvent {
                give: Val::Int(1),
                got: None,
            },
            1,
            1,
            [id(0)],
        );
        check_exchanger_consistent(&g).unwrap();
    }

    #[test]
    fn null_offer_rejected() {
        let mut g = Graph::new();
        g.add_event(
            ExchangeEvent {
                give: Val::Null,
                got: None,
            },
            1,
            1,
            [id(0)],
        );
        assert_eq!(
            check_exchanger_consistent(&g).unwrap_err().rule,
            "EXCHANGER-OFFERS"
        );
    }

    #[test]
    fn asymmetric_so_rejected() {
        let mut g = pair_graph();
        g.add_event(
            ExchangeEvent {
                give: Val::Int(3),
                got: None,
            },
            3,
            9,
            [id(2)],
        );
        g.add_so(id(0), id(2));
        assert_eq!(check_symmetric(&g).unwrap_err().rule, "EXCHANGER-SYM");
    }

    #[test]
    fn values_must_cross_over() {
        let mut g = Graph::new();
        let lv: BTreeSet<EventId> = [id(0), id(1)].into_iter().collect();
        g.add_event(
            ExchangeEvent {
                give: Val::Int(1),
                got: Some(Val::Int(9)), // lies about what it got
            },
            1,
            5,
            lv.clone(),
        );
        g.add_event(
            ExchangeEvent {
                give: Val::Int(2),
                got: Some(Val::Int(1)),
            },
            2,
            5,
            lv,
        );
        g.add_so(id(0), id(1));
        g.add_so(id(1), id(0));
        assert_eq!(check_matches(&g).unwrap_err().rule, "EXCHANGER-MATCHES");
    }

    #[test]
    fn split_commit_rejected() {
        // Same pair but committed at different steps: intermediate state
        // was observable.
        let mut g = Graph::new();
        let lv: BTreeSet<EventId> = [id(0), id(1)].into_iter().collect();
        g.add_event(
            ExchangeEvent {
                give: Val::Int(1),
                got: Some(Val::Int(2)),
            },
            1,
            5,
            lv.clone(),
        );
        g.add_event(
            ExchangeEvent {
                give: Val::Int(2),
                got: Some(Val::Int(1)),
            },
            2,
            6,
            lv,
        );
        g.add_so(id(0), id(1));
        g.add_so(id(1), id(0));
        assert_eq!(
            check_atomic_pairs(&g).unwrap_err().rule,
            "EXCHANGER-ATOMIC-PAIRS"
        );
    }

    #[test]
    fn self_exchange_rejected() {
        let mut g = Graph::new();
        let lv: BTreeSet<EventId> = [id(0), id(1)].into_iter().collect();
        for _ in 0..2 {
            g.add_event(
                ExchangeEvent {
                    give: Val::Int(1),
                    got: Some(Val::Int(1)),
                },
                1, // same thread!
                5,
                lv.clone(),
            );
        }
        g.add_so(id(0), id(1));
        g.add_so(id(1), id(0));
        assert_eq!(
            check_atomic_pairs(&g).unwrap_err().rule,
            "EXCHANGER-ATOMIC-PAIRS"
        );
    }
}
