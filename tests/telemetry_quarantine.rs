//! Integration: the telemetry bus lives outside the determinism
//! envelope, and its estimator tells the truth at exhaustion.
//!
//! `orc11::telemetry` publishes counters and samples them to JSONL —
//! and none of that may perturb what the checker computes. These tests
//! pin the whole contract end to end: reports and replay bundles
//! byte-identical with a telemetry session on versus off at 1 and 4
//! threads; the sampler stream structurally valid with estimator
//! samples present; the gauges a live reader sees equal to the final
//! reports' counts; and the state-space estimate exact on exhausted
//! plain-DFS litmus explorations.
//!
//! The telemetry session and the gauges are process-wide, so every
//! test that uses them serializes on [`TELEMETRY_LOCK`].

mod common;

use std::sync::{Mutex, PoisonError};

use common::{relaxed_queue_run, SEEDED};
use compass::queue_spec::QueueEvent;
use compass::soak::{SoakEngine, SoakOp, SoakOptions};
use orc11::litmus::{gallery, Litmus};
use orc11::{run_model, telemetry, BodyFn, Config, Explorer, Json, Mode, ThreadCtx, Val, WorkSpec};

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Telemetry must not perturb determinism: with a sampler session
/// active, the (wall-clock-normalized) checker report and the replay
/// bundle — narrative.txt and flagged graph.dot included — are
/// byte-identical to a telemetry-off run, at 1 and 4 threads. An
/// exhausted-DFS exploration report (which embeds the estimate) is
/// compared the same way.
#[test]
fn telemetry_on_and_off_runs_are_byte_identical() {
    let _guard = serialize();
    let tmp = std::env::temp_dir().join(format!("compass-telemetry-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("temp root");

    let sb = |strategy: Box<dyn orc11::Strategy>| {
        run_model(
            &Config::default(),
            strategy,
            |ctx| (ctx.alloc("x", Val::Int(0)), ctx.alloc("y", Val::Int(0))),
            vec![
                Box::new(|ctx: &mut ThreadCtx, &(x, y): &(orc11::Loc, orc11::Loc)| {
                    ctx.write(x, Val::Int(1), Mode::Relaxed);
                    ctx.read(y, Mode::Relaxed).expect_int()
                }) as BodyFn<'_, _, i64>,
                Box::new(|ctx: &mut ThreadCtx, &(x, y): &(orc11::Loc, orc11::Loc)| {
                    ctx.write(y, Val::Int(1), Mode::Relaxed);
                    ctx.read(x, Mode::Relaxed).expect_int()
                }),
            ],
            |_, _, outs| (outs[0], outs[1]),
        )
    };
    let dfs_json = |threads: usize| {
        Explorer::with_threads(threads)
            .explore(&WorkSpec::DfsDpor { budget: 10_000 }, &sb, |_, _| {})
            .to_json()
            .set("phase_ns", orc11::PhaseNs::ZERO.to_json())
            .render()
    };

    for threads in [1usize, 4] {
        let off_root = tmp.join(format!("off-{threads}"));
        let (off_report, off_bundle) = relaxed_queue_run(&SEEDED, threads, Some(&off_root));
        let off_dfs = dfs_json(threads);

        let stream = tmp.join(format!("telemetry-{threads}.jsonl"));
        telemetry::start(&stream).expect("no other telemetry session active");
        let on_root = tmp.join(format!("on-{threads}"));
        let (on_report, on_bundle) = relaxed_queue_run(&SEEDED, threads, Some(&on_root));
        let on_dfs = dfs_json(threads);
        let summary = telemetry::finish()
            .expect("telemetry file writable")
            .expect("session was active");
        assert!(summary.lines >= 2, "meta + final at minimum");
        // The stream's final sample must carry the execution counter the
        // runs just bumped.
        let text = std::fs::read_to_string(&stream).expect("read telemetry stream");
        let last = Json::parse(text.lines().last().expect("final line")).expect("final is JSON");
        assert_eq!(last.get("kind"), Some(&Json::Str("final".to_string())));
        let execs = last.get("explore").and_then(|e| e.get("execs"));
        assert!(
            matches!(execs, Some(Json::Int(n)) if *n > 0),
            "final sample has explore.execs > 0: {execs:?}"
        );

        assert_eq!(
            off_report, on_report,
            "telemetry changed the report at {threads} threads"
        );
        assert_eq!(
            off_bundle, on_bundle,
            "telemetry changed the replay bundle at {threads} threads"
        );
        assert_eq!(
            off_dfs, on_dfs,
            "telemetry changed the exhausted-DFS report (estimate included) \
             at {threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// The sampler stream validates structurally and carries estimator
/// samples once a DFS phase has run.
#[test]
fn sampler_stream_validates_with_estimator_samples() {
    let _guard = serialize();
    let tmp = std::env::temp_dir().join(format!(
        "compass-telemetry-stream-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&tmp);
    telemetry::start(&tmp).expect("no other telemetry session active");
    // An exhausted DFS run feeds the estimate gauges; the final sample
    // written by finish() then carries paths > 0 whatever the sampling
    // interval was.
    let report = Explorer::serial().explore(
        &WorkSpec::Dfs { budget: 10_000 },
        &|strategy: Box<dyn orc11::Strategy>| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| ctx.alloc("x", Val::Int(0)),
                vec![
                    Box::new(|ctx: &mut ThreadCtx, &x: &orc11::Loc| {
                        ctx.write(x, Val::Int(1), Mode::Relaxed);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, &x: &orc11::Loc| {
                        ctx.write(x, Val::Int(2), Mode::Relaxed);
                    }),
                ],
                |_, _, _| (),
            )
        },
        |_, _| {},
    );
    assert!(report.exhausted);
    let summary = telemetry::finish()
        .expect("telemetry file writable")
        .expect("session was active");
    let check = telemetry::validate_telemetry_file(&tmp).expect("stream validates");
    assert_eq!(check.lines as u64, summary.lines);
    assert!(check.samples >= 1, "at least the final sample: {check:?}");
    assert!(
        check.est_samples >= 1,
        "the post-DFS sample must carry estimator paths: {check:?}"
    );
    // Double-start is refused while a session is active; after finish a
    // new session may start.
    telemetry::start(&tmp).expect("session finished, restart allowed");
    telemetry::start(&tmp).expect_err("second concurrent session refused");
    telemetry::finish()
        .expect("second session stops cleanly")
        .expect("was active");
    let _ = std::fs::remove_file(&tmp);
}

/// The stream's `final` sample reads the DPOR sleep-set hit total the
/// exploration report ends with: the work source publishes the running
/// total as each execution completes.
#[test]
fn final_sample_reads_the_reports_sleep_hits() {
    let _guard = serialize();
    let tmp = std::env::temp_dir().join(format!(
        "compass-telemetry-sleep-{}.jsonl",
        std::process::id()
    ));
    telemetry::start(&tmp).expect("no other telemetry session active");
    // Three relaxed writers to one location: every pair conflicts, so
    // DPOR revisits orders its sleep sets then cut short.
    let report = Explorer::serial().explore(
        &WorkSpec::DfsDpor { budget: 10_000 },
        &|strategy: Box<dyn orc11::Strategy>| {
            let writer = |v: i64| {
                Box::new(move |ctx: &mut ThreadCtx, &x: &orc11::Loc| {
                    ctx.write(x, Val::Int(v), Mode::Relaxed);
                }) as BodyFn<'_, _, ()>
            };
            run_model(
                &Config::default(),
                strategy,
                |ctx| ctx.alloc("x", Val::Int(0)),
                vec![writer(1), writer(2), writer(3)],
                |_, _, _| (),
            )
        },
        |_, _| {},
    );
    telemetry::finish()
        .expect("telemetry file writable")
        .expect("session was active");
    assert!(report.exhausted);
    let sleep_hits = report.dpor.expect("DPOR run has stats").sleep_hits;
    assert!(sleep_hits > 0, "the program must exercise sleep sets");
    let text = std::fs::read_to_string(&tmp).expect("read telemetry stream");
    let last = Json::parse(text.lines().last().expect("final line")).expect("final is JSON");
    assert_eq!(last.get("kind"), Some(&Json::Str("final".to_string())));
    assert_eq!(
        last.get("explore").and_then(|e| e.get("sleep_hits")),
        Some(&Json::Int(sleep_hits as i64)),
        "final sample's explore.sleep_hits"
    );
    let _ = std::fs::remove_file(&tmp);
}

/// After a soak run finishes, the registry's soak gauges equal the
/// report's epoch and operation accounting.
#[test]
fn soak_gauges_match_the_finished_report() {
    let _guard = serialize();
    let op = |thread: usize, op: QueueEvent, inv: u64| SoakOp {
        thread,
        op,
        inv,
        resp: inv + 1,
    };
    let mut engine = SoakEngine::<QueueEvent>::start(
        "telemetry-soak",
        SoakOptions {
            checkers: 1,
            max_epoch_events: 4,
            ..SoakOptions::default()
        },
    );
    // Epochs of one enqueue and its dequeue, plus one epoch over the
    // event budget that is shed unchecked.
    for e in 0..8u64 {
        let base = e * 100;
        let v = Val::Int(e as i64);
        let mut batch = vec![
            op(0, QueueEvent::Enq(v), base),
            op(1, QueueEvent::Deq(v), base + 10),
        ];
        if e == 5 {
            for i in 0..2u64 {
                let w = Val::Int(100 + i as i64);
                batch.push(op(0, QueueEvent::Enq(w), base + 20 + 20 * i));
                batch.push(op(1, QueueEvent::Deq(w), base + 30 + 20 * i));
            }
        }
        engine.submit(e, batch);
    }
    engine.mutators_done();
    let report = engine.finish();
    assert!(report.clean(), "violations: {:?}", report.violations);
    assert!(report.epochs_shed > 0, "{report:?}");
    let snap = telemetry::snapshot();
    assert_eq!(
        (
            snap.soak_sealed,
            snap.soak_checked,
            snap.soak_shed,
            snap.soak_ops
        ),
        (
            report.epochs_sealed,
            report.epochs_checked,
            report.epochs_shed,
            report.ops_recorded
        )
    );
}

/// At plain-DFS exhaustion the mass-based estimator is *exact*: every
/// leaf contributed its probability mass, so `est_total_execs` equals
/// the true execution count on every litmus shape — comfortably inside
/// the 2× accuracy budget the estimator promises mid-run. (DPOR runs
/// read as the unpruned tree size — an upper bound — which is why the
/// reports only embed the estimate alongside the `dpor` stats that
/// explain it.)
#[test]
fn estimator_is_exact_on_exhausted_plain_dfs_gallery() {
    let _guard = serialize();
    const BUDGET: u64 = 500_000;
    fn assert_exact<S: Sync + 'static>(t: &Litmus<S>) {
        let r = t.dfs_plain(BUDGET);
        assert!(r.report.exhausted, "{} must exhaust", t.name());
        let est = r
            .report
            .estimate
            .expect("exhausted DFS reports an estimate");
        assert_eq!(
            est.est_total_execs(),
            r.report.execs,
            "{}: estimate must be exact at exhaustion",
            t.name()
        );
        assert_eq!(est.paths, r.report.execs, "{}", t.name());
        assert!(
            est.percent_x1000() >= 99_000,
            "{}: visited mass must read ~100% ({})",
            t.name(),
            est.percent_x1000()
        );
    }
    assert_exact(&gallery::mp_rel_acq());
    assert_exact(&gallery::sb());
    assert_exact(&gallery::corr());
    assert_exact(&gallery::lb());

    // A single-threaded write-only program has exactly one path: the
    // estimate is exact (1) the moment that path completes, and the
    // visited mass is a full 100.0%.
    let single = Litmus::new("single-path", |ctx| ctx.alloc("x", Val::Int(0))).thread(|ctx, &x| {
        ctx.write(x, Val::Int(1), Mode::Relaxed);
        0
    });
    let r = single.dfs_plain(16);
    assert!(r.report.exhausted);
    let est = r.report.estimate.expect("estimate present");
    assert_eq!(r.report.execs, 1);
    assert_eq!(est.est_total_execs(), 1);
    assert_eq!(est.percent_x1000(), 100_000);
    assert_eq!(est.percent_complete(), 100.0);
}
