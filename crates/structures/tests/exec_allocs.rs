//! Allocations per model execution, pinned.
//!
//! The whole-execution twin of `orc11`'s `tests/alloc_free.rs`: a
//! counting global allocator (per OS thread, so other tests' threads do
//! not disturb the count) measures two checked clients as the
//! `benchmark/` crate runs them — the program closure boxes its bodies
//! and runs [`orc11::run_model`], the finish phase snapshots the
//! library's graph, and the clause check runs on the snapshot.
//!
//! Two figures per client, both exact:
//!
//! * **warm** — one execution along the DFS path every exploration
//!   starts with (every choice 0), run directly (`Model::run_desc`) and
//!   checked, on a warm arena;
//! * **per execution** — a whole serial plain-DFS exploration through
//!   `check_executions_with` (the driver: claims, sibling prefixes, the
//!   report, the outcome's buffers handed back to the arena), run a
//!   second time on the same thread so that one-time set-up is not
//!   counted, less what an exploration of no execution allocates,
//!   divided by its execution count.
//!
//! | client | warm before → after | per execution before → after |
//! |---|---|---|
//! | 3-key UnvalidatedTml writer ∥ reader (one re-read), 27 410 execs | 82 → 32 | 91.4 → 33.5 |
//! | MsQueue-MP, 4 949 execs | 27 → 17 | 32.0 → 17.0 |
//!
//! "Before" is the implementation in which every commit built a
//! `BTreeSet` logview and every snapshot cloned one per event, the
//! driver copied each outcome's trace and access summaries, claimed
//! each DFS prefix as a one-element `Vec` and built each sibling prefix
//! in two allocations, and the TML formatted a `String` per key name.
//! DESIGN.md §10 lists what the 32 are.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use compass::checker::{check_executions_with, CheckOptions, CheckTarget, Exploration};
use compass::spec::{SpecResult, Violation};
use compass::stm_spec::check_stm_consistent;
use compass_structures::buggy::UnvalidatedTml;
use compass_structures::clients::{check_mp, run_mp, MpResult};
use compass_structures::queue::MsQueue;
use orc11::{run_model, BodyFn, Config, Model, OpRecord, RunOutcome, Strategy, StrategyDesc};
use orc11::{ThreadCtx, Val};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to the system allocator; the counter is a
// const-initialized thread-local without a destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One writer attempt incrementing every key ∥ one read-only
/// transaction reading every key and then the first `rereads` again;
/// the bodies capture their sizes, as a parameterised client's do.
fn unvalidated_tml(
    keys: usize,
    rereads: usize,
) -> impl Fn(Box<dyn Strategy>) -> RunOutcome<compass::Graph<compass::stm_spec::StmEvent>> + Send + Sync
{
    move |strategy| {
        run_model(
            &Config::default(),
            strategy,
            |ctx| UnvalidatedTml::new(ctx, keys),
            vec![
                Box::new(move |ctx: &mut ThreadCtx, tm: &UnvalidatedTml| {
                    let mut txn = tm.begin(ctx, 1);
                    let a = tm.read(ctx, &mut txn, 0).expect_int();
                    if tm.write(ctx, &mut txn, 0, Val::Int(a + 1)).is_ok() {
                        for k in 1..keys {
                            let b = tm.read(ctx, &mut txn, k).expect_int();
                            tm.write(ctx, &mut txn, k, Val::Int(b + 1))
                                .expect("locked writes cannot abort");
                        }
                        tm.commit(ctx, txn);
                    }
                }) as BodyFn<'_, _, ()>,
                Box::new(move |ctx: &mut ThreadCtx, tm: &UnvalidatedTml| {
                    let mut txn = tm.begin(ctx, 10);
                    for k in (0..keys).chain(0..rereads) {
                        tm.read(ctx, &mut txn, k);
                    }
                    tm.commit(ctx, txn);
                }),
            ],
            |_, tm, _| tm.obj().snapshot(),
        )
    }
}

/// The MP client's result as a check target.
struct Mp(MpResult);

impl CheckTarget for Mp {
    fn event_count(&self) -> usize {
        self.0.graph.event_count()
    }
    fn failure_report(&self, violation: &Violation, ops: &[OpRecord]) -> String {
        self.0.graph.failure_report(violation, ops)
    }
    fn dot(&self) -> String {
        self.0.graph.dot()
    }
}

fn ms_mp(strategy: Box<dyn Strategy>) -> RunOutcome<Mp> {
    run_mp(MsQueue::new, true, strategy).map(Mp)
}

fn check_ms_mp(r: &Mp) -> SpecResult {
    check_mp(&r.0, true).map_err(|m| Violation::new("MP-CLIENT", m, Vec::new()))
}

/// Allocations of one warm execution along the all-zero DFS path,
/// checked, on the calling thread.
fn warm<G>(program: &impl Model<Out = G>, check: impl Fn(&G) -> SpecResult) -> u64 {
    let desc = StrategyDesc::Dfs { prefix: Vec::new() };
    let once = || {
        let before = allocs();
        let out = program.run_desc(&desc);
        let g = out.result.as_ref().expect("the execution completes");
        let _ = check(g);
        drop(out);
        allocs() - before
    };
    for _ in 0..3 {
        once();
    }
    let n = once();
    assert_eq!(once(), n, "a warm execution allocates the same every time");
    n
}

/// Allocations of a whole serial plain-DFS exploration on the calling
/// thread beyond those of an exploration that runs nothing (which
/// depend on the environment: reading a set `COMPASS_*` variable
/// allocates), and its execution count.
fn exhaustive<G: CheckTarget>(
    program: impl Fn(Box<dyn Strategy>) -> RunOutcome<G> + Send + Sync,
    check: impl Fn(&G) -> SpecResult + Sync,
) -> (u64, u64) {
    let opts = CheckOptions {
        threads: 1,
        dpor: Some(false),
        ..CheckOptions::default()
    };
    let explore = |budget| {
        let before = allocs();
        let r = check_executions_with(&Exploration::Dfs { budget }, &opts, &program, &check);
        (allocs() - before, r)
    };
    let (idle, _) = explore(0);
    let (n, r) = explore(1_000_000);
    assert!(r.exhausted);
    (n - idle, r.execs)
}

/// Runs `f` on a fresh thread, whose arena starts cold and whose count
/// is its own.
fn on_own_thread(f: impl FnOnce() + Send + 'static) {
    std::thread::spawn(f).join().unwrap();
}

#[test]
fn unvalidated_tml_allocations_per_execution() {
    on_own_thread(|| {
        assert_eq!(warm(&unvalidated_tml(3, 1), check_stm_consistent), 32);
        exhaustive(unvalidated_tml(3, 1), check_stm_consistent);
        let (n, execs) = exhaustive(unvalidated_tml(3, 1), check_stm_consistent);
        assert_eq!(
            (n, execs),
            (919_269, 27_410),
            "{:.1} per execution",
            n as f64 / execs as f64
        );
    });
}

#[test]
fn ms_queue_mp_allocations_per_execution() {
    on_own_thread(|| {
        assert_eq!(warm(&ms_mp, check_ms_mp), 17);
        exhaustive(ms_mp, check_ms_mp);
        let (n, execs) = exhaustive(ms_mp, check_ms_mp);
        assert_eq!(
            (n, execs),
            (84_149, 4_949),
            "{:.1} per execution",
            n as f64 / execs as f64
        );
    });
}
