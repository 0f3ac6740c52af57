//! # compass-structures — the paper's libraries, on the model
//!
//! Model-level implementations of every data structure the Compass paper
//! verifies, written against the [`orc11`] memory-model simulator with the
//! same access modes as the paper's implementations, and instrumented with
//! ghost commit points so that every execution produces a [`compass`]
//! event graph:
//!
//! * [`queue::MsQueue`] — Michael-Scott queue, purely release/acquire
//!   (satisfies the `LAT_hb^abs` specs: its commit order is a
//!   linearization; §3.1–3.2),
//! * [`queue::HwQueue`] — a relaxed Herlihy-Wing queue (release enqueues,
//!   acquire dequeues; satisfies the graph-based `LAT_hb` specs but not, in
//!   general, abstract-state construction at commit points; §3.2),
//! * [`stack::TreiberStack`] — relaxed Treiber stack (release push CAS,
//!   acquire pop CAS; satisfies the `LAT_hb^hist` linearizable-history
//!   specs; §3.3),
//! * [`exchanger::Exchanger`] — an offer/response exchanger with *helping*:
//!   a matched pair of exchanges is committed atomically together by the
//!   helper (§4.2),
//! * [`stack::ElimStack`] — the elimination stack composing a base Treiber
//!   stack and an exchanger *without any new atomic instructions*, its
//!   events built compositionally from theirs (§4.1),
//! * [`arc::ModelArc`] — an Arc-style atomic reference counter
//!   (relaxed clones, release drops, an acquire fence before
//!   deallocation) checked against the refcount-consistency spec
//!   [`compass::arc_spec`] (Jacobs & Fasse, arXiv:2505.00449),
//! * [`stm::ModelTml`] — a release-acquire transactional mutex lock
//!   checked for opacity by [`compass::stm_spec`] (Dalvandi & Dongol,
//!   arXiv:2208.00315),
//! * [`buggy`] — deliberately weakened controls whose executions violate
//!   specific consistency clauses (negative tests for the checkers).
//!
//! The Michael-Scott and Herlihy-Wing queues, the Treiber stack, the Arc
//! and the TML each state their access modes once, in a crate-private
//! *mode table*: one mode (or fence) per atomic access site, counting an
//! RMW's success and failure modes separately, plus the labels the
//! structure allocates under. `new` uses the paper's table; the
//! memory-model controls in [`buggy`] are the same structures built from
//! weaker tables, and a test-only sweep weakens each site of each paper
//! table one step to see which ones the specs need (EXPERIMENTS.md).
//!
//! [`clients`] contains the paper's client programs (the Message-Passing
//! client of Figure 1/3 and the SPSC client of §3.2) as reusable model
//! programs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arc;
pub mod buggy;
pub mod clients;
pub mod deque;
pub mod exchanger;
pub mod lock;
pub mod queue;
pub mod stack;
pub mod stm;

#[cfg(test)]
mod sweep;

use orc11::{Loc, Mode, ThreadCtx, Val};

/// Sentinel marking a "pop" offer in the elimination machinery (§4.1).
/// Client values must differ from it.
pub const SENTINEL: Val = Val::Int(i64::MAX - 1);

/// Slot marker for "element taken" in the Herlihy-Wing queue. Client
/// values must differ from it.
pub const TAKEN: Val = Val::Int(i64::MIN + 1);

/// Validates that `v` is usable as a data-structure element.
///
/// # Panics
///
/// Panics if `v` is null or collides with a reserved marker.
pub fn check_element(v: Val) {
    assert!(!v.is_null(), "Null is not a valid element");
    assert_ne!(v, SENTINEL, "SENTINEL is reserved");
    assert_ne!(v, TAKEN, "TAKEN is reserved");
}

/// The two modes of one read-modify-write site in a mode table: `ok`
/// for a successful update, `fail` for the read of a failed one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rmw {
    pub(crate) ok: Mode,
    pub(crate) fail: Mode,
}

impl Rmw {
    // A constructor, not a struct literal: rustfmt spreads a nested
    // struct literal over four lines, and the tables have fifteen.
    pub(crate) const fn new(ok: Mode, fail: Mode) -> Self {
        Rmw { ok, fail }
    }
}

/// Allocates a record whose initializing writes are atomic iff `atomic`.
/// Mode tables derive `atomic` from their payload site, so that a
/// non-atomic payload stays under the race detector and an atomic one
/// cannot race with its initialization.
pub(crate) fn alloc(ctx: &mut ThreadCtx, atomic: bool, name: &str, inits: &[Val]) -> Loc {
    if atomic {
        ctx.alloc_block_atomic(name, inits)
    } else {
        ctx.alloc_block(name, inits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_values_distinct() {
        assert_ne!(SENTINEL, TAKEN);
        check_element(Val::Int(0));
        check_element(Val::Int(-5));
    }

    #[test]
    #[should_panic(expected = "Null")]
    fn null_element_rejected() {
        check_element(Val::Null);
    }

    #[test]
    #[should_panic(expected = "SENTINEL")]
    fn sentinel_element_rejected() {
        check_element(SENTINEL);
    }
}
