//! Client-side `Seen` assertions — the executable `SeenQueue(q, G₀, M₀)`.
//!
//! In the paper (§3.1), a thread's persistent `SeenQueue(q, G₀, M₀)`
//! assertion records a snapshot `G₀` of the object's graph together with
//! the thread's local logical view `M₀` — a lower bound on the operations
//! the thread has synchronized with. The assertion is *monotone*: later
//! snapshots extend earlier ones, and operations only grow `M₀`.
//!
//! [`Seen`] captures the same data from a live execution; its methods are
//! the assertion's laws, checkable per execution:
//!
//! * [`Seen::still_valid`] — `G₀ ⊑ G` and `M₀` is inside the graph;
//! * [`Seen::le`] — `⊑` between snapshots taken along one thread's run;
//! * [`Seen::observed`] — membership in `M₀`, e.g. the MP client's
//!   "the right thread has seen both enqueues".

use std::collections::BTreeSet;
use std::fmt;

use orc11::ThreadCtx;

use crate::bits;
use crate::event::EventId;
use crate::graph::Graph;
use crate::object::LibObj;
use crate::spec::{SpecResult, Violation};

/// A snapshot of a thread's knowledge about one library object (see
/// module docs).
#[derive(Clone, PartialEq, Eq)]
pub struct Seen {
    /// Number of events in the snapshot `G₀` (ids are commit-ordered, so
    /// the prefix length determines the snapshot).
    pub graph_len: usize,
    /// The thread's local logical view `M₀` as a bit row over the first
    /// `graph_len` events.
    row: Vec<u64>,
}

impl Seen {
    /// Captures the calling thread's current `Seen` assertion for `obj`.
    pub fn capture<T>(obj: &LibObj<T>, ctx: &ThreadCtx) -> Self {
        let mut row = obj.seen_row(ctx);
        // Canonical rows (no trailing zero words) make `==` set equality.
        while row.last() == Some(&0) {
            row.pop();
        }
        Seen {
            graph_len: obj.graph().len(),
            row,
        }
    }

    /// Whether event `e` is in `M₀`.
    pub fn observed(&self, e: EventId) -> bool {
        e.index() < self.row.len() * 64 && bits::test(&self.row, e.index())
    }

    /// The ids of `M₀`, ascending.
    fn observed_ids(&self) -> impl Iterator<Item = EventId> + '_ {
        bits::ones(&self.row).map(|e| EventId::from_raw(e as u64))
    }

    /// `M₀` as a set (for printing).
    pub fn logview(&self) -> BTreeSet<EventId> {
        self.observed_ids().collect()
    }

    /// Monotonicity between two snapshots taken (in order) by one thread:
    /// `G₀ ⊑ G₁` and `M₀ ⊆ M₁`.
    pub fn le(&self, later: &Seen) -> bool {
        let (common, rest) = self.row.split_at(self.row.len().min(later.row.len()));
        self.graph_len <= later.graph_len
            && bits::subset(common, &later.row)
            && rest.iter().all(|&w| w == 0)
    }

    /// Validates the assertion against the (current or final) graph:
    /// the snapshot is a prefix, and every observed event exists and
    /// carries its own logview (i.e. `M₀` is made of committed events).
    pub fn still_valid<T>(&self, g: &Graph<T>) -> SpecResult {
        if self.graph_len > g.len() {
            return Err(Violation::new(
                "SEEN-SNAPSHOT",
                format!(
                    "snapshot claims {} events but the graph has {}",
                    self.graph_len,
                    g.len()
                ),
                vec![],
            ));
        }
        if let Some(e) = self.observed_ids().find(|e| e.index() >= g.len()) {
            return Err(Violation::new(
                "SEEN-LOGVIEW",
                format!("observed event {e} is not in the graph"),
                vec![e],
            ));
        }
        Ok(())
    }
}

impl fmt::Debug for Seen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Seen")
            .field("graph_len", &self.graph_len)
            .field("logview", &self.logview())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue_spec::QueueEvent;
    use orc11::{random_strategy, run_model, BodyFn, Config, Loc, Mode, Val};

    #[test]
    fn seen_is_monotone_along_a_thread() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| {
                let flag = ctx.alloc("flag", Val::Int(0));
                (flag, LibObj::<QueueEvent>::new("q"))
            },
            vec![Box::new(
                |ctx: &mut orc11::ThreadCtx, (flag, obj): &(Loc, LibObj<QueueEvent>)| {
                    let s0 = Seen::capture(obj, ctx);
                    ctx.write_with(*flag, Val::Int(1), Mode::Release, |gh| {
                        obj.commit(gh, QueueEvent::Enq(Val::Int(1)));
                    });
                    let s1 = Seen::capture(obj, ctx);
                    ctx.write_with(*flag, Val::Int(2), Mode::Release, |gh| {
                        obj.commit(gh, QueueEvent::Enq(Val::Int(2)));
                    });
                    let s2 = Seen::capture(obj, ctx);
                    assert!(s0.le(&s1) && s1.le(&s2) && s0.le(&s2));
                    assert!(!s2.le(&s0));
                    assert!(s2.observed(EventId::from_raw(0)));
                    assert!(s2.observed(EventId::from_raw(1)));
                    assert!(!s0.observed(EventId::from_raw(0)));
                    (s0, s2)
                },
            ) as BodyFn<'_, _, (Seen, Seen)>],
            |_, (_, obj), outs| {
                let g = obj.snapshot();
                let (s0, s2) = &outs[0];
                s0.still_valid(&g).unwrap();
                s2.still_valid(&g).unwrap();
            },
        );
        out.result.unwrap();
    }

    #[test]
    fn seen_transfers_through_synchronization() {
        // The MP pattern at the Seen level: the acquiring thread's capture
        // contains the releasing thread's events.
        let out = run_model(
            &Config::default(),
            random_strategy(3),
            |ctx| {
                let flag = ctx.alloc("flag", Val::Int(0));
                (flag, LibObj::<QueueEvent>::new("q"))
            },
            vec![
                Box::new(
                    |ctx: &mut orc11::ThreadCtx, (flag, obj): &(Loc, LibObj<QueueEvent>)| {
                        ctx.write_with(*flag, Val::Int(1), Mode::Release, |gh| {
                            obj.commit(gh, QueueEvent::Enq(Val::Int(41)));
                        });
                        Seen::capture(obj, ctx)
                    },
                ) as BodyFn<'_, _, Seen>,
                Box::new(
                    |ctx: &mut orc11::ThreadCtx, (flag, obj): &(Loc, LibObj<QueueEvent>)| {
                        ctx.read_await(*flag, Mode::Acquire, |v| v == Val::Int(1));
                        Seen::capture(obj, ctx)
                    },
                ),
            ],
            |_, (_, obj), outs| {
                let g = obj.snapshot();
                for s in &outs {
                    s.still_valid(&g).unwrap();
                }
                // The releasing thread's M₀ flowed to the acquirer.
                assert!(outs[0].logview().is_subset(&outs[1].logview()));
                assert!(outs[1].observed(EventId::from_raw(0)));
            },
        );
        out.result.unwrap();
    }

    #[test]
    fn invalid_snapshots_are_rejected() {
        let g: Graph<QueueEvent> = Graph::new();
        let s = Seen {
            graph_len: 3,
            row: Vec::new(),
        };
        assert_eq!(s.still_valid(&g).unwrap_err().rule, "SEEN-SNAPSHOT");
        let s = Seen {
            graph_len: 0,
            row: vec![1 << 5],
        };
        assert_eq!(s.still_valid(&g).unwrap_err().rule, "SEEN-LOGVIEW");
    }
}
