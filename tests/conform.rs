//! Integration tests for the runtime conformance harness: the full
//! record → reconstruct → check → bundle → recheck pipeline, on both
//! hand-built histories and real native executions (DESIGN.md §7).

use compass::conform::{linearize, recheck, ConformOptions, History};
use compass::queue_spec::QueueEvent::{self, Deq, EmpDeq, Enq};
use compass::stack_spec::StackEvent;
use compass::EventId;
use compass_bench::roles::{chase_lev, queue, registry, Sizing, Subject};
use compass_native::WeakMsQueue;
use orc11::Val;

fn int(i: i64) -> Val {
    Val::Int(i)
}

fn id(i: u64) -> EventId {
    EventId::from_raw(i)
}

/// A hand-built history whose intervals are pairwise disjoint has
/// exactly one linearization candidate — the real-time order — and the
/// conform checker must recover exactly that order.
#[test]
fn unique_linearization_round_trips_through_the_checker() {
    // t1 enqueues 1 then 2; t2 dequeues 1, dequeues 2, then sees empty.
    // Every interval is disjoint from every other, so the interval order
    // is total: the only permutation respecting it is ids 0..5 in order
    // (ids are assigned in invocation order), and FIFO accepts it.
    let h: History<QueueEvent> = History::from_tuples(vec![
        vec![(Enq(int(1)), 0, 9), (Enq(int(2)), 20, 29)],
        vec![
            (Deq(int(1)), 40, 49),
            (Deq(int(2)), 60, 69),
            (EmpDeq, 80, 89),
        ],
    ]);
    let g = h.to_graph();
    let order = linearize(&g).expect("sequential history must linearize");
    assert_eq!(order, (0..5).map(id).collect::<Vec<_>>());

    // Same discipline for a stack: push 1, push 2, pop 2, pop 1 is the
    // unique LIFO-respecting total order.
    let h: History<StackEvent> = History::from_tuples(vec![
        vec![
            (StackEvent::Push(int(1)), 0, 1),
            (StackEvent::Push(int(2)), 2, 3),
        ],
        vec![
            (StackEvent::Pop(int(2)), 10, 11),
            (StackEvent::Pop(int(1)), 12, 13),
        ],
    ]);
    let order = linearize(&h.to_graph()).expect("LIFO history must linearize");
    assert_eq!(order, (0..4).map(id).collect::<Vec<_>>());
}

fn quick(rounds: u64) -> ConformOptions {
    ConformOptions {
        rounds,
        threads: 4,
        ops_per_thread: 48,
        seed0: 7,
        ..ConformOptions::default()
    }
}

/// Every library in the registry passes runtime conformance (a failure
/// here would be a true violation on this host — see the soundness
/// notes in `compass::conform`).
#[test]
fn correct_native_structures_conform() {
    for subject in registry() {
        subject.conform(&quick(4)).assert_clean();
    }
}

/// Regression: timestamps alone do not make `resp(a) < inv(b)` a
/// happens-before edge. With both cores kept busy, a thief invoked a
/// few dozen nanoseconds after a push's recorded response would read
/// the old `bottom` out from under the push's still-buffered release
/// store, and an unfenced recorder flagged a correct deque with
/// `CONFORM-DEQUE-EMPTY` in roughly one round in ten. The `SeqCst`
/// fences bracketing the recorder's clock reads rule that out
/// (DESIGN.md §7).
#[test]
fn deque_conforms_with_spinning_neighbours() {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let report = chase_lev().conform(&quick(320));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        report.assert_clean();
    });
}

/// The positive control: the deliberately weakened queue is flagged
/// within a bounded number of seeded rounds, and its replay bundle
/// re-checks offline to the same violated clause.
#[test]
fn weak_queue_is_flagged_and_its_bundle_rechecks() {
    let root = std::env::temp_dir().join(format!("compass-conform-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let weak = queue("WeakMsQueue", Sizing::FREE, |_| WeakMsQueue::new());
    let mut flagged = None;
    for batch in 0..10u64 {
        let report = weak.conform(&ConformOptions {
            seed0: 1 + batch * 50,
            rounds: 50,
            stop_on_violation: true,
            bundle_dir: Some(root.clone()),
            ..quick(50)
        });
        if report.consistent < report.execs {
            flagged = Some(report);
            break;
        }
    }
    let report = flagged.expect("weakened queue never flagged");
    let (_, violation) = &report.samples[0];
    let dir = report.bundle.as_ref().expect("no bundle written");
    assert!(dir.join("history.txt").is_file());
    assert!(dir.join("report.txt").is_file());
    assert!(dir.join("graph.dot").is_file());
    assert!(dir.join("bundle.json").is_file());
    let (g, result) = recheck::<QueueEvent>(dir).expect("bundle must parse");
    assert!(!g.is_empty());
    assert_eq!(
        result.expect_err("bundle must still violate").rule,
        violation.rule,
        "offline recheck must reproduce the live clause"
    );
    std::fs::remove_dir_all(&root).unwrap();
}
