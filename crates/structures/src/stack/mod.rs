//! Model stacks: Treiber and the compositional elimination stack.

mod elimination;
pub(crate) mod treiber;

pub use elimination::ElimStack;
pub use treiber::TreiberStack;

use compass::stack_spec::StackEvent;
use compass::{EventId, LibObj};
use orc11::{GhostHandle, ThreadCtx, Val};

/// Outcome of a single-attempt pop.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TryPop {
    /// Popped `v`, committing the given `Pop(v)` event.
    Popped(Val, EventId),
    /// Observed the stack as empty, committing the given `EmpPop` event.
    Empty(EventId),
    /// Lost a race (`FAIL_RACE`); no event was committed.
    Raced,
}

/// Client hook invoked *inside* a base stack operation's commit
/// instruction, right after the base event is committed.
///
/// This is how the elimination stack (§4.1) commits its own event in the
/// same instruction as the base stack's — the executable form of the
/// client getting logically atomic access at the commit point.
pub trait StackHook: Sync {
    /// A push of `v` committed as `base`.
    fn on_push(&self, gh: &mut GhostHandle<'_>, base: EventId, v: Val) {
        let _ = (gh, base, v);
    }
    /// A pop of `v` committed as `base`, matching the base push
    /// `base_push`.
    fn on_pop(&self, gh: &mut GhostHandle<'_>, base: EventId, base_push: EventId, v: Val) {
        let _ = (gh, base, base_push, v);
    }
    /// An empty pop committed as `base`.
    fn on_empty(&self, gh: &mut GhostHandle<'_>, base: EventId) {
        let _ = (gh, base);
    }
}

/// The trivial hook.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoStackHook;

impl StackHook for NoStackHook {}

/// A model stack producing a Compass event graph.
pub trait ModelStack: Sync {
    /// Pushes `v` (retrying on contention), committing a `Push(v)` event.
    fn push(&self, ctx: &mut ThreadCtx, v: Val) -> EventId;

    /// Attempts one pop (retrying on contention), committing a `Pop(v)`
    /// or `EmpPop` event.
    fn pop(&self, ctx: &mut ThreadCtx) -> (Option<Val>, EventId);

    /// The stack's library object.
    fn obj(&self) -> &LibObj<StackEvent>;
}
