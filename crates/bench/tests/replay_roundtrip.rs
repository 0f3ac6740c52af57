//! End-to-end test of the violation replay bundles: checking a buggy
//! structure with a bundle directory configured must write a bundle
//! whose saved choice trace replays to a byte-identical instruction log
//! and trips the same violation clause.

use std::fs;
use std::path::PathBuf;

use compass::bundle;
use compass::checker::{check_executions_with, CheckOptions, Exploration};
use compass::queue_spec::{check_queue_consistent, QueueEvent};
use compass::Graph;
use compass_structures::buggy::relaxed_hw_queue;
use compass_structures::queue::{HwQueue, ModelQueue};
use orc11::{
    render_ops, run_model, BodyFn, Config, Loc, Mode, RunOutcome, Strategy, ThreadCtx, Val,
};

/// The relaxed-tail Herlihy-Wing FIFO bug workload of E10, with the
/// instruction log recorded so bundles carry a full oplog.
fn program(strategy: Box<dyn Strategy>) -> RunOutcome<Graph<QueueEvent>> {
    run_model(
        &Config {
            record_ops: true,
            ..Config::default()
        },
        strategy,
        |ctx| {
            let q = relaxed_hw_queue(ctx, 4);
            let flag = ctx.alloc("flag", Val::Int(0));
            (q, flag)
        },
        vec![
            Box::new(|ctx: &mut ThreadCtx, (q, flag): &(HwQueue, Loc)| {
                q.enqueue(ctx, Val::Int(10));
                ctx.write(*flag, Val::Int(1), Mode::Release);
            }) as BodyFn<'_, _, ()>,
            Box::new(|ctx: &mut ThreadCtx, (q, flag): &(HwQueue, Loc)| {
                ctx.read_await(*flag, Mode::Acquire, |v| v == Val::Int(1));
                q.enqueue(ctx, Val::Int(20));
            }),
            Box::new(|ctx: &mut ThreadCtx, (q, _): &(HwQueue, Loc)| {
                q.try_dequeue(ctx);
            }),
        ],
        |_, (q, _), _| q.obj().snapshot(),
    )
}

fn temp_root() -> PathBuf {
    std::env::temp_dir().join(format!("compass-replay-roundtrip-{}", std::process::id()))
}

#[test]
fn saved_bundle_replays_deterministically() {
    // Own subdirectory: the tests run in parallel and each removes its root.
    let root = temp_root().join("saved");
    let _ = fs::remove_dir_all(&root);

    let opts = CheckOptions {
        bundle_dir: Some(root.clone()),
        ..CheckOptions::default()
    };
    let report = check_executions_with(
        &Exploration::Pct {
            iters: 600,
            seed0: 0,
            depth: 3,
        },
        &opts,
        program,
        check_queue_consistent,
    );
    assert!(
        !report.violations.is_empty(),
        "the relaxed-tail bug should surface within the seed budget: {report}"
    );
    let dir = report
        .bundle
        .clone()
        .expect("a bundle is written for the first violation");
    assert!(dir.starts_with(&root));

    // The bundle's first violation is also the first recorded sample.
    let (_, first_violation) = &report.samples[0];

    // Replay the saved trace: same instruction log, same clause.
    let trace = bundle::load_trace(&dir.join("trace.txt")).unwrap();
    let saved_oplog = fs::read_to_string(dir.join("oplog.txt")).unwrap();
    let replayed = bundle::replay(&trace, program);
    let g = replayed.result.as_ref().expect("replay must not abort");
    assert_eq!(
        render_ops(&replayed.ops),
        saved_oplog,
        "replaying the saved trace must reproduce the instruction log byte-for-byte"
    );
    let v = check_queue_consistent(g).expect_err("replay must trip the same check");
    assert_eq!(v.rule, first_violation.rule);
    assert_eq!(v.message, first_violation.message);

    // bundle.json agrees with the live violation.
    let summary = fs::read_to_string(dir.join("bundle.json")).unwrap();
    assert!(summary.contains(&format!("\"rule\": \"{}\"", v.rule)));
    assert!(summary.contains("\"ops_recorded\": true"));

    // A second replay of the same trace is identical to the first —
    // determinism is a property of the trace, not the run.
    let replayed2 = bundle::replay(&trace, program);
    assert_eq!(render_ops(&replayed2.ops), saved_oplog);

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn parallel_capture_matches_serial_and_replays() {
    // A violation found by a parallel worker must be captured as the
    // same bundle a serial run writes (the run's *first* failure in
    // serial exploration order), and must replay with the plain serial
    // replay machinery.
    let root = temp_root().join("parallel");
    let _ = fs::remove_dir_all(&root);
    let exploration = Exploration::Pct {
        iters: 600,
        seed0: 0,
        depth: 3,
    };
    let run = |threads: usize, sub: &str| {
        let opts = CheckOptions {
            bundle_dir: Some(root.join(sub)),
            threads,
            ..CheckOptions::default()
        };
        check_executions_with(&exploration, &opts, program, check_queue_consistent)
            .bundle
            .expect("a bundle is written for the first violation")
    };
    let serial_dir = run(1, "serial");
    let parallel_dir = run(4, "parallel");

    // Byte-identical capture, thread count notwithstanding.
    for file in ["bundle.json", "trace.txt", "report.txt", "oplog.txt"] {
        assert_eq!(
            fs::read_to_string(serial_dir.join(file)).unwrap(),
            fs::read_to_string(parallel_dir.join(file)).unwrap(),
            "{file} must not depend on the worker count"
        );
    }

    // And the parallel capture replays to the same violation.
    let trace = bundle::load_trace(&parallel_dir.join("trace.txt")).unwrap();
    let replayed = bundle::replay(&trace, program);
    let g = replayed.result.as_ref().expect("replay must not abort");
    let v = check_queue_consistent(g).expect_err("replay must trip the check");
    let summary = fs::read_to_string(parallel_dir.join("bundle.json")).unwrap();
    assert!(summary.contains(&format!("\"rule\": \"{}\"", v.rule)));

    fs::remove_dir_all(&root).unwrap();
}
