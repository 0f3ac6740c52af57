//! # compass — executable library specifications for relaxed memory
//!
//! This crate is the executable reproduction of the Compass specification
//! framework (Dang et al., *Compass: Strong and Compositional Library
//! Specifications in Relaxed Memory Separation Logic*, PLDI 2022).
//!
//! Compass specifies relaxed-memory libraries with **event graphs**: every
//! operation, at its *commit point*, atomically adds an event carrying a
//! *logical view* (the set of the library's events that happen-before it)
//! and extends the library's partial orders (`so`, the matching relation;
//! `lhb`, local happens-before). Library-specific **consistency
//! conditions** over these graphs — FIFO for queues, LIFO for stacks,
//! symmetric matching for exchangers — are the specification.
//!
//! Where the paper *proves* (in Iris/Coq) that implementations maintain
//! consistency, this crate *checks* it: implementations written against the
//! [`orc11`] memory-model simulator call [`LibObj::commit`] inside the
//! commit window of the memory instruction that commits the operation; the
//! ghost logical views ride along the model's view transfer; and the
//! resulting graphs are checked against the consistency conditions over
//! many explored executions.
//!
//! The paper's spec-style hierarchy maps to checkers as follows:
//!
//! | Paper style     | This crate |
//! |-----------------|------------|
//! | `LAT_hb` (graph-only, §3.2)         | [`queue_spec::check_queue_consistent`], [`stack_spec::check_stack_consistent`], [`exchanger_spec::check_exchanger_consistent`] |
//! | `LAT_hb^abs` (abstract state, §3.1) | [`abs::replay_commit_order`]: the commit order must interpret to a sequential abstract state |
//! | `LAT_hb^hist` (linearization, §3.3) | [`history::find_linearization`]: search for a total order `to ⊇ lhb` with a sequential interpretation |
//! | `LAT_so^abs` (Cosmo-style, §2.3)    | the `SO-LHB` clauses: so edges transfer views |
//!
//! The model checker explores the structures on the simulated memory
//! model; the [`conform`] module closes the loop on real hardware,
//! reconstructing event graphs from timestamped histories of the
//! *native* implementations (`compass-native`) and checking the same
//! consistency clauses (soundly: real-time order under-approximates
//! happens-before — see its module docs).
//!
//! ## Example: committing events at commit points and checking the graph
//!
//! ```
//! use compass::queue_spec::{check_queue_consistent, QueueEvent};
//! use compass::LibObj;
//! use orc11::{random_strategy, run_model, BodyFn, Config, Loc, Mode, Val};
//!
//! // A toy one-shot "queue" with a single slot: the release write is the
//! // enqueue's commit point; the acquire read that sees the value commits
//! // the dequeue.
//! let out = run_model(
//!     &Config::default(),
//!     random_strategy(1),
//!     |ctx| (ctx.alloc("slot", Val::Null), LibObj::<QueueEvent>::new("q")),
//!     vec![
//!         Box::new(|ctx: &mut orc11::ThreadCtx, (slot, q): &(Loc, LibObj<QueueEvent>)| {
//!             ctx.write_with(*slot, Val::Int(7), Mode::Release, |gh| {
//!                 q.commit(gh, QueueEvent::Enq(Val::Int(7)));
//!             });
//!         }) as BodyFn<'_, _, ()>,
//!         Box::new(|ctx: &mut orc11::ThreadCtx, (slot, q): &(Loc, LibObj<QueueEvent>)| {
//!             let enq = compass::EventId::from_raw(0);
//!             ctx.read_await_with(*slot, Mode::Acquire, |v| v == Val::Int(7), |v, gh| {
//!                 q.commit_matched(gh, QueueEvent::Deq(v), enq);
//!             });
//!         }),
//!     ],
//!     |_, (_, q), _| q.snapshot(),
//! );
//! let graph = out.result.unwrap();
//! check_queue_consistent(&graph).unwrap();
//! assert_eq!(graph.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod abs;
pub mod arc_spec;
mod bits;
pub mod bundle;
pub mod checker;
pub mod conform;
pub mod deque_spec;
pub mod dot;
pub mod event;
pub mod exchanger_spec;
pub mod graph;
pub mod history;
pub mod object;
pub mod queue_spec;
pub mod report;
pub mod seen;
pub mod soak;
pub mod spec;
pub mod spsc_spec;
pub mod stack_spec;
pub mod stm_spec;

pub use checker::{CheckOptions, CheckReport, CheckTarget, ExecOrigin, Exploration};
pub use event::{Event, EventId};
pub use graph::Graph;
pub use history::SearchStats;
pub use object::LibObj;
pub use seen::Seen;
pub use spec::{SpecResult, Violation};
