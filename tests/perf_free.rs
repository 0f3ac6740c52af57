//! Proves the per-op perf instrumentation is free when not measuring.
//!
//! Two regimes to prove (acceptance criteria of DESIGN.md §9):
//!
//! 1. **Compiled out**: without `feature = "perf"`,
//!    `compass_native::perf::op` is an `#[inline(always)]` pass-through
//!    — there is no timing code in the binary. That leg is enforced by
//!    construction (the feature is off by default and `cargo build
//!    --release` never enables it); this test binary necessarily builds
//!    with the feature on (the `compass-bench` dev-dependency enables
//!    it for `e12_perf`, and cargo unifies features across the test
//!    build graph).
//! 2. **On but idle**: with the feature compiled in but no session
//!    active, a full checker run — reports and replay bundles — must be
//!    byte-identical to a run with a recording session active, at 1 and
//!    4 threads, mirroring `tests/parallel_determinism.rs`'s
//!    tracing-on/off check. Model-level exploration never touches the
//!    native hooks, so an active session records nothing from it; this
//!    pins that arming the hooks perturbs neither reports nor bundles.
//!
//! The session-semantics tests (exact counts, epoch hygiene) also live
//! here rather than in `compass-native`, because that crate's stress
//! tests hammer instrumented trait methods concurrently; in this binary
//! a static mutex serializes every session user.

mod common;

use std::sync::Mutex;

use common::{relaxed_queue_run, SEEDED};
use compass_native::perf::{self, LatencyHist, OpKind};

/// Serializes the perf session (a global) across this binary's tests.
static SESSION: Mutex<()> = Mutex::new(());

/// The acceptance-criteria check: a perf recording session left armed
/// during a checker run changes neither the (wall-clock-normalized)
/// report nor a single byte of the replay bundle, at 1 and 4 threads.
#[test]
fn perf_session_on_and_off_runs_are_byte_identical() {
    let _guard = SESSION.lock().unwrap();
    let tmp = std::env::temp_dir().join(format!("compass-perf-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    for threads in [1usize, 4] {
        assert!(!perf::active());
        let (off_report, off_bundle) =
            relaxed_queue_run(&SEEDED, threads, Some(&tmp.join(format!("off-{threads}"))));

        perf::start();
        let (on_report, on_bundle) =
            relaxed_queue_run(&SEEDED, threads, Some(&tmp.join(format!("on-{threads}"))));
        let recorded = perf::finish();
        assert!(
            recorded.is_empty(),
            "model exploration must not feed native perf hooks: {recorded:?}"
        );

        assert_eq!(
            off_report, on_report,
            "an armed perf session changed the report at {threads} threads"
        );
        assert_eq!(
            off_bundle, on_bundle,
            "an armed perf session changed the replay bundle at {threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn idle_hooks_pass_through_and_sessions_collect_exact_counts() {
    let _guard = SESSION.lock().unwrap();
    // Idle: plain pass-through.
    assert!(!perf::active());
    assert_eq!(perf::op(OpKind::QueueEnq, || 41 + 1), 42);

    perf::start();
    assert!(perf::active());
    for _ in 0..10 {
        perf::op(OpKind::QueueEnq, || std::hint::black_box(7u64));
    }
    perf::op(OpKind::StackPop, || ());
    let by_kind = perf::finish();
    assert!(!perf::active());
    let count = |kind: OpKind| {
        by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, h)| h.count())
            .unwrap_or(0)
    };
    assert_eq!(count(OpKind::QueueEnq), 10);
    assert_eq!(count(OpKind::StackPop), 1);
    assert_eq!(by_kind.len(), 2, "only recorded kinds are returned");

    // After finish(), hooks are pass-throughs again and a fresh session
    // starts empty.
    assert_eq!(perf::op(OpKind::QueueDeq, || 3), 3);
    perf::start();
    assert!(
        perf::finish().is_empty(),
        "stale data leaked across sessions"
    );
}

#[test]
fn worker_threads_merge_and_stale_epochs_are_discarded() {
    let _guard = SESSION.lock().unwrap();
    // Session 1: a worker records and flushes; another records but does
    // NOT flush before the session ends.
    perf::start();
    let (recorded_tx, recorded_rx) = std::sync::mpsc::channel();
    let unflushed = std::thread::spawn(move || {
        perf::op(OpKind::Exchange, || ());
        recorded_tx.send(()).unwrap();
        // No flush_thread(): this thread's data must not leak into a
        // later session.
        std::thread::park();
        perf::flush_thread();
    });
    // The unflushed thread has recorded under session 1's epoch.
    recorded_rx.recv().unwrap();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..100 {
                    perf::op(OpKind::StackPush, || std::hint::black_box(1u64));
                }
                perf::flush_thread();
            });
        }
    });
    let by_kind = perf::finish();
    let pushes = by_kind
        .iter()
        .find(|(k, _)| *k == OpKind::StackPush)
        .map(|(_, h)| h.count());
    assert_eq!(pushes, Some(400), "4 workers x 100 ops merge");

    // Session 2: the parked thread finally flushes its session-1 data —
    // the epoch check must discard it.
    perf::start();
    unflushed.thread().unpark();
    unflushed.join().unwrap();
    let by_kind = perf::finish();
    assert!(
        by_kind.iter().all(|(k, _)| *k != OpKind::Exchange),
        "stale-epoch flush leaked into a later session: {by_kind:?}"
    );
}

#[test]
fn recorded_histograms_hold_real_latencies() {
    let _guard = SESSION.lock().unwrap();
    perf::start();
    for _ in 0..50 {
        perf::op(OpKind::SpscPush, || {
            std::hint::black_box((0..100u64).sum::<u64>())
        });
    }
    let by_kind = perf::finish();
    let (_, h) = by_kind
        .iter()
        .find(|(k, _)| *k == OpKind::SpscPush)
        .expect("spsc_push recorded");
    assert_eq!(h.count(), 50);
    assert!(h.p50() <= h.p99() && h.p99() <= h.p999() && h.p999() <= h.max_ns());
    // Merge into an independent hist works across the API boundary.
    let mut total = LatencyHist::new();
    total.merge(h);
    assert_eq!(total.count(), 50);
}
