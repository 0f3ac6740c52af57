//! The [`Model`] trait: a re-runnable program under test.
//!
//! Exploration drivers ([`crate::Explorer`], the `compass` checker) need
//! one thing from the checked program: *run it once under this strategy
//! and give me the outcome*. Historically every driver took its own
//! `FnMut` closure for this, which (a) duplicated the bound at every
//! call site and (b) blocked parallel exploration, because a `FnMut`
//! cannot be shared across worker threads.
//!
//! [`Model`] names the contract once. It is `Send + Sync` by
//! construction — a model is immutable between runs; all run-to-run
//! nondeterminism lives in the [`Strategy`] — so the same model value can
//! be driven from N worker threads at once. Plain closures still work
//! through the blanket impl: any
//! `Fn(Box<dyn Strategy>) -> RunOutcome<R> + Send + Sync` closure *is* a
//! model.

use crate::exec::RunOutcome;
use crate::sched::Strategy;
use crate::work::StrategyDesc;

/// A program checkable by exploration: a deterministic function from a
/// scheduling [`Strategy`] to a [`RunOutcome`].
///
/// Determinism is the load-bearing requirement: two runs under
/// strategies that answer identically must produce identical outcomes
/// (same trace, same steps, same result). That is what makes recorded
/// choice traces replayable and DFS enumeration meaningful.
pub trait Model: Send + Sync {
    /// The per-execution result value (a graph, an outcome tuple, ...).
    type Out;

    /// Runs the program once, delegating every nondeterministic decision
    /// to `strategy`.
    fn run(&self, strategy: Box<dyn Strategy>) -> RunOutcome<Self::Out>;

    /// Runs the program once under the strategy `desc` describes.
    ///
    /// The default boxes a fresh strategy per call. Models built on
    /// [`crate::run_model`] (e.g. [`crate::litmus::Litmus`]) override this
    /// to hand the descriptor to the execution arena, which *resets* the
    /// pooled strategy in place instead — the allocation-free hot path
    /// used by exploration drivers. Both paths must produce identical
    /// outcomes.
    fn run_desc(&self, desc: &StrategyDesc) -> RunOutcome<Self::Out> {
        self.run(desc.strategy())
    }
}

impl<R, F> Model for F
where
    F: Fn(Box<dyn Strategy>) -> RunOutcome<R> + Send + Sync,
{
    type Out = R;

    fn run(&self, strategy: Box<dyn Strategy>) -> RunOutcome<R> {
        self(strategy)
    }
}
