//! Timestamped histories and their reconstruction into event graphs.
//!
//! A [`History`] is what the native-side recorder hands back: per-thread
//! sequences of operations, each bracketed by invocation/response
//! timestamps from one shared monotonic clock. [`History::to_graph`]
//! turns it into a Compass [`Graph`] whose `lhb` is the **real-time
//! interval order**: `a` happens-before `b` iff `a` responded strictly
//! before `b` was invoked. See the module docs of [`crate::conform`] for
//! why that under-approximation is the sound direction.

use std::io;

use orc11::ThreadId;

use crate::event::EventId;
use crate::graph::Graph;

use super::check::ConformEvent;

/// One operation with its invocation/response interval (`inv <= resp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOp<E> {
    /// The operation (what was called and what it returned).
    pub op: E,
    /// Invocation timestamp (shared-clock nanoseconds).
    pub inv: u64,
    /// Response timestamp.
    pub resp: u64,
}

/// A complete per-thread invocation/response history of one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History<E> {
    /// `threads[i]` is thread `i+1`'s ops in program order (thread ids
    /// are 1-based, matching the model convention that thread 0 is the
    /// coordinating main thread).
    threads: Vec<Vec<TimedOp<E>>>,
}

impl<E: ConformEvent> History<E> {
    /// Wraps per-thread op logs into a history.
    ///
    /// # Panics
    ///
    /// Panics if any op has `resp < inv` — intervals must be intervals,
    /// or the reconstructed order would not be transitive.
    pub fn new(threads: Vec<Vec<TimedOp<E>>>) -> Self {
        for ops in &threads {
            for t in ops {
                assert!(t.inv <= t.resp, "op {:?} responds before invocation", t.op);
            }
        }
        History { threads }
    }

    /// Builds a history from `(op, inv, resp)` tuples, one `Vec` per
    /// thread.
    ///
    /// # Panics
    ///
    /// As [`History::new`].
    pub fn from_tuples(rows: Vec<Vec<(E, u64, u64)>>) -> Self {
        History::new(
            rows.into_iter()
                .map(|ops| {
                    ops.into_iter()
                        .map(|(op, inv, resp)| TimedOp { op, inv, resp })
                        .collect()
                })
                .collect(),
        )
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Total number of recorded operations.
    pub fn ops(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Iterates `(thread id, op)` pairs, thread by thread.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, &TimedOp<E>)> {
        self.threads
            .iter()
            .enumerate()
            .flat_map(|(i, ops)| ops.iter().map(move |t| (i + 1, t)))
    }

    /// Reconstructs the Compass event graph of this history.
    ///
    /// Events get ids (and `step`s) in invocation order; the logical view
    /// of an event is itself plus every operation that **responded
    /// strictly before it was invoked** — the real-time interval order.
    /// That order is transitive (`resp(a) < inv(b) <= resp(b) < inv(c)`
    /// implies `resp(a) < inv(c)` because `inv <= resp`), so the logviews
    /// are downward closed. Every `ConformEvent::check` still runs
    /// [`Graph::check_well_formed`] on the result — the checker does not
    /// take its own reconstruction on trust — which costs one row-subset
    /// test per ordered pair, `|lhb| · ⌈n/64⌉` word operations (about a
    /// millisecond at 512 near-sequential events). Building the graph is
    /// the `n²/2` timestamp comparisons below plus one row bit per
    /// ordered pair; no predecessor set is built.
    /// Same-thread operations are sequential, hence automatically ordered
    /// (program order is a sub-order of interval order).
    ///
    /// The `so` matching relation is left empty: the conformance checks
    /// recover matching structurally from the recorded values.
    pub fn to_graph(&self) -> Graph<E> {
        let mut flat: Vec<(ThreadId, TimedOp<E>)> = self.iter().map(|(tid, t)| (tid, *t)).collect();
        // Stable keys beyond `inv` make the reconstruction deterministic
        // even under timestamp ties.
        flat.sort_by_key(|&(tid, t)| (t.inv, t.resp, tid));
        let mut g = Graph::new();
        for (i, &(tid, t)) in flat.iter().enumerate() {
            let logview = flat[..i]
                .iter()
                .enumerate()
                .filter(|(_, &(_, p))| p.resp < t.inv)
                .map(|(j, _)| EventId::from_raw(j as u64))
                .chain([EventId::from_raw(i as u64)]);
            g.add_event(t.op, tid, i as u64, logview);
        }
        g
    }

    /// Serializes the history in the `history.txt` line format (see
    /// [`crate::conform`] module docs): `#` comment lines from `meta`,
    /// then one `<tid> <inv> <resp> <op>` line per operation.
    pub fn render(&self, meta: &[(&str, String)]) -> String {
        let mut s = String::from("# compass conform history v1\n");
        for (k, v) in meta {
            s.push_str(&format!("# {k}: {v}\n"));
        }
        s.push_str("# <tid> <inv> <resp> <op>\n");
        for (tid, t) in self.iter() {
            s.push_str(&format!("{tid} {} {} {}\n", t.inv, t.resp, t.op.encode()));
        }
        s
    }

    /// Parses the `history.txt` line format back into a history.
    ///
    /// # Errors
    ///
    /// `InvalidData` on malformed lines, undecodable ops, zero thread
    /// ids, or inverted intervals.
    pub fn parse(text: &str) -> io::Result<History<E>> {
        let bad = |line: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed history line: {line:?}"),
            )
        };
        let mut threads: Vec<Vec<TimedOp<E>>> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, char::is_whitespace);
            let tid: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(line))?;
            let inv: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(line))?;
            let resp: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(line))?;
            let op = parts
                .next()
                .and_then(|s| E::decode(s.trim()))
                .ok_or_else(|| bad(line))?;
            if tid == 0 || resp < inv {
                return Err(bad(line));
            }
            if threads.len() < tid {
                threads.resize_with(tid, Vec::new);
            }
            threads[tid - 1].push(TimedOp { op, inv, resp });
        }
        Ok(History { threads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue_spec::QueueEvent;
    use orc11::Val;
    use QueueEvent::{Deq, EmpDeq, Enq};

    fn id(i: u64) -> EventId {
        EventId::from_raw(i)
    }

    #[test]
    fn to_graph_orders_by_interval() {
        // t1: Enq(1) [0,10], Enq(2) [20,30]; t2: Deq(1) [5,25] overlaps
        // both enqueues' gap partially: ordered after nothing except what
        // responded before inv=5 (nothing), and before nothing.
        let h = History::from_tuples(vec![
            vec![(Enq(Val::Int(1)), 0, 10), (Enq(Val::Int(2)), 20, 30)],
            vec![(Deq(Val::Int(1)), 5, 25)],
        ]);
        let g = h.to_graph();
        g.check_well_formed().unwrap();
        assert_eq!(g.len(), 3);
        // Ids in invocation order: Enq(1)@0, Deq(1)@5, Enq(2)@20.
        assert_eq!(g.event(id(0)).ty, Enq(Val::Int(1)));
        assert_eq!(g.event(id(1)).ty, Deq(Val::Int(1)));
        assert_eq!(g.event(id(2)).ty, Enq(Val::Int(2)));
        // Program order within t1 is interval order.
        assert!(g.lhb(id(0), id(2)));
        // Enq(1) responded (10) after Deq(1) was invoked (5): unordered.
        assert!(!g.lhb(id(0), id(1)) && !g.lhb(id(1), id(0)));
        // Deq(1) responds at 25, Enq(2) invoked at 20: unordered too.
        assert!(!g.lhb(id(1), id(2)) && !g.lhb(id(2), id(1)));
    }

    #[test]
    fn equal_timestamps_leave_events_unordered() {
        // resp(a) == inv(b): NOT strictly before, so no edge — ties are
        // treated as concurrent (the sound direction).
        let h = History::from_tuples(vec![
            vec![(Enq(Val::Int(1)), 0, 10)],
            vec![(EmpDeq, 10, 20)],
        ]);
        let g = h.to_graph();
        assert!(!g.lhb(id(0), id(1)));
        g.check_well_formed().unwrap();
    }

    #[test]
    #[should_panic(expected = "responds before invocation")]
    fn inverted_interval_is_rejected() {
        let _ = History::from_tuples(vec![vec![(EmpDeq, 10, 5)]]);
    }

    #[test]
    fn render_parse_round_trip() {
        let h = History::from_tuples(vec![
            vec![(Enq(Val::Int(1)), 0, 10), (Deq(Val::Int(1)), 20, 30)],
            vec![(EmpDeq, 2, 4)],
        ]);
        let text = h.render(&[("subject", "MsQueue".into()), ("seed", "7".into())]);
        assert!(text.contains("# subject: MsQueue"));
        let back: History<QueueEvent> = History::parse(&text).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.to_graph(), h.to_graph());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(History::<QueueEvent>::parse("1 0 10 warble").is_err());
        assert!(
            History::<QueueEvent>::parse("0 0 10 empdeq").is_err(),
            "tid 0"
        );
        assert!(
            History::<QueueEvent>::parse("1 10 5 empdeq").is_err(),
            "inverted"
        );
        assert!(History::<QueueEvent>::parse("1 x 5 empdeq").is_err());
        assert!(
            History::<QueueEvent>::parse("# only comments\n")
                .unwrap()
                .ops()
                == 0
        );
    }
}
