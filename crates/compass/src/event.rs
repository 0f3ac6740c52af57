//! Events: the nodes of a library's event graph.

use std::fmt;

use orc11::ThreadId;

/// Identifier of an event within one library object's graph.
///
/// Ids are dense indices in commit order of the object's events (ties —
/// helping pairs committed in the same instruction — are broken by id).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Creates an id from its raw value.
    pub fn from_raw(raw: u64) -> Self {
        EventId(raw)
    }

    /// The raw value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An event of a library object (the paper's `Event` type, §3.1): an event
/// type plus the *logical view* recorded at the operation's commit point.
///
/// The logical view — all events of the object that happen before this
/// one, the event itself included — is stored by the graph, as the
/// event's bit row: `e ∈ G(d).logview` (the paper's `(e, d) ∈ G.lhb`) is
/// [`crate::Graph::in_logview`], and [`crate::Graph::logview`] derives
/// the set. The paper also records the commit point's physical view;
/// here the physical view lives in the model and the event instead
/// records the global `step` index of its commit instruction, which
/// serves as the commit order (the `<` of §4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event<T> {
    /// The event type (e.g. `Enq(v)`, `Deq(v)`, `EmpDeq`).
    pub ty: T,
    /// The thread whose operation this event represents.
    pub tid: ThreadId,
    /// Global step index of the commit instruction. Events committed by
    /// the same instruction (helping pairs) share a step.
    pub step: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let id = EventId::from_raw(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "e42");
    }

    #[test]
    fn ids_order_by_raw() {
        assert!(EventId::from_raw(1) < EventId::from_raw(2));
    }
}
