//! Model queues: Michael-Scott and Herlihy-Wing.

pub(crate) mod hw;
pub(crate) mod lockq;
pub(crate) mod ms;
mod spsc;

pub use hw::HwQueue;
pub use lockq::LockQueue;
pub use ms::MsQueue;
pub use spsc::SpscRing;

use compass::queue_spec::QueueEvent;
use compass::{EventId, LibObj};
use orc11::{ThreadCtx, Val};

/// A multi-producer multi-consumer model queue producing a Compass event
/// graph.
///
/// Every operation returns the [`EventId`] it committed, so clients can
/// reason about (and tests can assert on) the graph.
pub trait ModelQueue: Sync {
    /// Enqueues `v`, committing an `Enq(v)` event.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a valid element (see
    /// [`crate::check_element`]).
    fn enqueue(&self, ctx: &mut ThreadCtx, v: Val) -> EventId;

    /// Attempts one dequeue. Returns `(Some(v), d)` with a `Deq(v)` event,
    /// or `(None, d)` with an `EmpDeq` event if the caller observed the
    /// queue as empty (which, under relaxed memory, does not mean it *is*
    /// empty).
    fn try_dequeue(&self, ctx: &mut ThreadCtx) -> (Option<Val>, EventId);

    /// The queue's library object (graph + ghost key).
    fn obj(&self) -> &LibObj<QueueEvent>;
}
