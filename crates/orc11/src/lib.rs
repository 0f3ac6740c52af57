//! # orc11 — an operational RC11-style relaxed memory model simulator
//!
//! This crate is the substrate of the Compass reproduction: a from-scratch,
//! view-based operational semantics in the style of ORC11 / RC11
//! (Lahav et al., PLDI 2017; Dang et al., POPL 2020), the memory model the
//! Compass paper's separation logic is sound for.
//!
//! The model provides:
//!
//! * **Per-location write histories**: every write appends a *message*
//!   `(value, frontier)` to the location's history; modification order is
//!   the append order (see `DESIGN.md` for the — documented — restriction
//!   this places on `mo`).
//! * **Per-thread views** (`cur`/`acq`/`rel` frontiers): release writes
//!   publish the writer's current frontier on the message, acquire reads
//!   join the message frontier, relaxed reads stash it in `acq` until an
//!   acquire fence, relaxed writes publish the `rel`-fence snapshot.
//!   Read-modify-writes join the read message's frontier into the written
//!   message, which implements RC11 *release sequences*.
//! * **Non-atomic accesses with data-race detection**: vector clocks ride
//!   along with views; a race aborts the execution (the operational stand-in
//!   for catch-fire semantics).
//! * **Logical views read off the vector clock**: a commit continuation
//!   runs inside its instruction, whose *epoch* (thread, clock) identifies
//!   what it commits; the events that happen before a point are those
//!   whose epochs that point's clock covers. The `compass` crate uses this
//!   to compute each library operation's *logical view* (`G(e).logview` in
//!   the paper) at its commit point.
//! * **A controllable scheduler**: every model instruction is a scheduling
//!   point; strategies include seeded random choice and bounded-exhaustive
//!   DFS over replayable choice traces (stateless model checking), so client
//!   programs (litmus tests, the paper's MP and SPSC clients) can be explored
//!   over many executions.
//!
//! `po ∪ rf` is acyclic by construction (the semantics is an interleaving
//! semantics over existing messages), matching ORC11's exclusion of
//! load-buffering behaviours.
//!
//! ## Quick example
//!
//! ```
//! use orc11::{Config, Mode, RunOutcome, Strategy, Val, run_model};
//!
//! // Message passing: with release/acquire, reading flag == 1 implies
//! // reading data == 42.
//! let out: RunOutcome<()> = run_model(
//!     &Config::default(),
//!     orc11::random_strategy(7),
//!     |ctx| {
//!         let data = ctx.alloc("data", Val::Int(0));
//!         let flag = ctx.alloc("flag", Val::Int(0));
//!         (data, flag)
//!     },
//!     vec![
//!         Box::new(|ctx, &(data, flag)| {
//!             ctx.write(data, Val::Int(42), Mode::NonAtomic);
//!             ctx.write(flag, Val::Int(1), Mode::Release);
//!             Val::Null
//!         }),
//!         Box::new(|ctx, &(data, flag)| {
//!             ctx.read_await(flag, Mode::Acquire, |v| v == Val::Int(1));
//!             ctx.read(data, Mode::NonAtomic)
//!         }),
//!     ],
//!     |_ctx, _shared, outs| assert_eq!(outs[1], Val::Int(42)),
//! );
//! assert!(out.result.is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod coro;
pub mod dpor;
mod error;
mod exec;
mod explore;
mod frontier;
pub mod json;
pub mod litmus;
mod memory;
mod mode;
mod model;
pub mod oplog;
mod parallel;
pub mod rng;
mod sched;
pub mod stats;
pub mod sync;
pub mod telemetry;
pub mod trace;
mod tview;
mod val;
mod view;
mod work;

pub use clock::VecClock;
pub use dpor::{conflicts, dpor_from_env, Access, AccessKind, StepAccess};
pub use error::{ModelError, RaceInfo};
pub use exec::{
    global_reuse, run_model, BodyFn, Config, GhostHandle, OpResult, RunOutcome, ThreadCtx,
};
pub use explore::{ExploreReport, Explorer, DEFAULT_MAX_ERRORS, DEFAULT_PCT_HORIZON};
pub use frontier::Frontier;
pub use json::Json;
pub use memory::Memory;
pub use mode::{FenceMode, Mode};
pub use model::Model;
pub use oplog::{render_ops, OpKindRecord, OpRecord};
pub use parallel::{default_threads, Sink};
pub use sched::{
    dfs_strategy, next_dfs_prefix, pct_strategy, random_strategy, replay_strategy, Choice,
    ChoiceKind, DfsStrategy, PctStrategy, RandomStrategy, Strategy,
};
pub use stats::{
    workers_to_json, Coverage, DporStats, Estimate, ExecStats, ReuseStats, StepHistogram,
    WorkerStats,
};
pub use trace::{Phase, PhaseNs};
pub use tview::ThreadView;
pub use val::{Loc, ThreadId, Val};
pub use view::{Timestamp, View};
pub use work::{Batch, StrategyDesc, WorkSource, WorkSpec};
