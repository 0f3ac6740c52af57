//! Integration: the `compass::checker` exploration driver across
//! strategies and structures — positive (clean) and negative (per-clause
//! accounting) paths.

use compass::checker::{check_executions, CheckReport, Exploration};
use compass::queue_spec::check_queue_consistent;
use compass_repro::structures::buggy::relaxed_ms_queue;
use compass_repro::structures::queue::{ModelQueue, MsQueue};
use orc11::{run_model, BodyFn, Config, Strategy, ThreadCtx, Val};

fn queue_program<Q: ModelQueue>(
    make: impl Fn(&mut ThreadCtx) -> Q + Send + Sync,
    strategy: Box<dyn Strategy>,
) -> orc11::RunOutcome<compass::Graph<compass::queue_spec::QueueEvent>> {
    run_model(
        &Config::default(),
        strategy,
        |ctx| make(ctx),
        vec![
            Box::new(|ctx: &mut ThreadCtx, q: &Q| {
                q.enqueue(ctx, Val::Int(1));
            }) as BodyFn<'_, _, ()>,
            Box::new(|ctx: &mut ThreadCtx, q: &Q| {
                q.try_dequeue(ctx);
            }),
        ],
        |_, q, _| q.obj().snapshot(),
    )
}

fn explore<Q: ModelQueue>(
    make: impl Fn(&mut ThreadCtx) -> Q + Copy + Send + Sync,
    e: &Exploration,
) -> CheckReport {
    check_executions(
        e,
        |strategy| queue_program(make, strategy),
        check_queue_consistent,
    )
}

#[test]
fn ms_queue_clean_under_every_strategy() {
    for e in [
        Exploration::Random {
            iters: 150,
            seed0: 0,
        },
        Exploration::Pct {
            iters: 150,
            seed0: 0,
            depth: 3,
        },
        Exploration::Dfs { budget: 300_000 },
    ] {
        let report = explore(MsQueue::new, &e);
        report.assert_clean();
        if let Exploration::Dfs { .. } = e {
            assert!(report.exhausted, "small instance exhausts: {report}");
        }
    }
}

#[test]
fn buggy_queue_clauses_are_accounted() {
    let report = explore(
        relaxed_ms_queue,
        &Exploration::Pct {
            iters: 400,
            seed0: 0,
            depth: 3,
        },
    );
    assert_eq!(report.model_errors, 0);
    assert!(
        report.violated("QUEUE-SO-LHB"),
        "the relaxed queue's defect is per-clause attributed: {report}"
    );
    assert!(!report.samples.is_empty());
    assert!(report.consistent < report.execs);
}

#[test]
fn dfs_exhausts_and_finds_every_buggy_schedule() {
    // Exhaustive exploration of the buggy queue: the violation count is a
    // *complete* census of this instance's schedule space, not a sample.
    let report = explore(relaxed_ms_queue, &Exploration::Dfs { budget: 400_000 });
    assert!(report.exhausted, "should exhaust: {report}");
    assert!(report.violated("QUEUE-SO-LHB"));
    // Deterministic: the exact counts are a property of the instance.
    let again = explore(relaxed_ms_queue, &Exploration::Dfs { budget: 400_000 });
    assert_eq!(report.execs, again.execs);
    assert_eq!(report.consistent, again.consistent);
    assert_eq!(report.violations, again.violations);
}
