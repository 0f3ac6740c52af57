//! Integration: parallel exploration is observably identical to serial.
//!
//! The engine's contract (see `orc11::parallel`) is that a report is a
//! deterministic function of the work specification alone — never of the
//! worker count. These tests pin that end to end: the raw `orc11`
//! explorer on the whole litmus gallery, and the full `compass`
//! checker on a buggy structure, each rendered to JSON at `threads = 1`
//! and `threads = 4` and compared byte for byte.

mod common;

use std::collections::BTreeMap;
use std::sync::Mutex;

use common::{relaxed_queue_run, SEEDED};
use compass::checker::Exploration;
use orc11::litmus::{gallery, Litmus};
use orc11::{
    run_model, BodyFn, Config, Explorer, Json, Loc, Mode, RunOutcome, ThreadCtx, Val, WorkSpec,
};

/// The classic store-buffering litmus: both threads may read 0.
fn sb(strategy: Box<dyn orc11::Strategy>) -> RunOutcome<(i64, i64)> {
    run_model(
        &Config::default(),
        strategy,
        |ctx| (ctx.alloc("x", Val::Int(0)), ctx.alloc("y", Val::Int(0))),
        vec![
            Box::new(|ctx: &mut ThreadCtx, &(x, y): &(Loc, Loc)| {
                ctx.write(x, Val::Int(1), Mode::Relaxed);
                ctx.read(y, Mode::Relaxed).expect_int()
            }) as BodyFn<'_, _, _>,
            Box::new(|ctx: &mut ThreadCtx, &(x, y): &(Loc, Loc)| {
                ctx.write(y, Val::Int(1), Mode::Relaxed);
                ctx.read(x, Mode::Relaxed).expect_int()
            }),
        ],
        |_, _, outs| (outs[0], outs[1]),
    )
}

/// Explores `t` under `spec` at `threads` workers and renders everything
/// observable: the outcome histogram and the wall-clock-normalized
/// exploration report (which already excludes the scheduling-dependent
/// `reuse` counters from its JSON).
fn run_litmus<S: Sync + 'static>(t: &Litmus<S>, threads: usize, spec: &WorkSpec) -> String {
    let histogram: Mutex<BTreeMap<Vec<i64>, u64>> = Mutex::new(BTreeMap::new());
    let report = Explorer::with_threads(threads).explore(spec, t, |_, out| {
        if let Ok(o) = &out.result {
            *histogram.lock().unwrap().entry(o.clone()).or_insert(0) += 1;
        }
    });
    format!(
        "{:?}\n{}",
        histogram.lock().unwrap(),
        report
            .to_json()
            .set("phase_ns", orc11::PhaseNs::ZERO.to_json())
            .render()
    )
}

/// A type-erased gallery entry: explores one litmus shape and renders
/// its observable report.
type GalleryRunner = Box<dyn Fn(usize, &WorkSpec) -> String>;

/// The full litmus gallery as type-erased runners (the entries carry
/// different shared-state types).
fn full_gallery() -> Vec<(&'static str, GalleryRunner)> {
    macro_rules! entry {
        ($f:ident) => {
            (
                stringify!($f),
                Box::new(|threads: usize, spec: &WorkSpec| {
                    run_litmus(&gallery::$f(), threads, spec)
                }) as GalleryRunner,
            )
        };
    }
    vec![
        entry!(mp_rel_acq),
        entry!(mp_relaxed),
        entry!(mp_fences),
        entry!(sb),
        entry!(sb_sc_fences),
        entry!(corr),
        entry!(iriw_acq),
        entry!(lb),
        entry!(two_plus_two_w),
        entry!(cowr),
        entry!(release_sequence),
        entry!(rmw_atomicity),
    ]
}

#[test]
fn sb_litmus_reports_are_thread_count_independent() {
    for (name, run) in full_gallery() {
        for spec in [
            WorkSpec::Random {
                iters: 400,
                seed0: 7,
            },
            WorkSpec::Pct {
                iters: 400,
                seed0: 7,
                depth: 2,
                horizon: 16,
            },
            WorkSpec::Dfs { budget: 10_000 },
            WorkSpec::DfsDpor { budget: 10_000 },
        ] {
            assert_eq!(
                run(1, &spec),
                run(4, &spec),
                "threads=4 must match serial for {name} under {spec:?}"
            );
        }
    }
}

#[test]
fn buggy_structure_checker_reports_are_thread_count_independent() {
    for exploration in [
        Exploration::Random {
            iters: 200,
            seed0: 0,
        },
        Exploration::Pct {
            iters: 200,
            seed0: 0,
            depth: 3,
        },
        Exploration::Dfs { budget: 400_000 },
        Exploration::DfsDpor { budget: 400_000 },
    ] {
        let serial = relaxed_queue_run(&exploration, 1, None).0;
        let parallel = relaxed_queue_run(&exploration, 4, None).0;
        assert_eq!(
            serial, parallel,
            "threads=4 must match serial for {exploration:?}"
        );
        // The buggy queue actually fails, so the comparison covers
        // violation attribution and sample selection, not just zeros.
        if !matches!(exploration, Exploration::Random { .. }) {
            assert!(
                serial.contains("\"truncated\": false"),
                "an exhaustive DFS run must not be truncated:\n{serial}"
            );
            assert!(
                serial.contains("QUEUE-SO-LHB"),
                "expected a violation in the compared report:\n{serial}"
            );
        }
    }
}

/// A DFS budget too small for the tree: the run must say so. A truncated
/// parallel DFS legitimately visits a thread-count-dependent *subset* of
/// the tree (each worker races the budget), so the report's counts are
/// only comparable across thread counts when `truncated` is false — the
/// flag is what lets consumers tell the two regimes apart.
#[test]
fn budget_truncated_dfs_reports_say_truncated() {
    for spec in [WorkSpec::Dfs { budget: 5 }, WorkSpec::DfsDpor { budget: 5 }] {
        for threads in [1, 4] {
            let report = Explorer::with_threads(threads).explore(&spec, &sb, |_, _| {});
            assert!(
                report.truncated,
                "budget 5 cannot exhaust SB ({spec:?}, {threads} threads)"
            );
            assert!(!report.exhausted);
            assert_eq!(report.to_json().get("truncated"), Some(&Json::Bool(true)));
        }
        // A sufficient budget at any thread count: not truncated.
        let report_big = Explorer::with_threads(4).explore(
            &match spec {
                WorkSpec::Dfs { .. } => WorkSpec::Dfs { budget: 10_000 },
                _ => WorkSpec::DfsDpor { budget: 10_000 },
            },
            &sb,
            |_, _| {},
        );
        assert!(report_big.exhausted && !report_big.truncated);
    }
}

/// Tracing must not perturb determinism: with a trace session active,
/// the (wall-clock-normalized) checker report and the replay bundle are
/// byte-identical to a tracing-off run, at 1 and 4 threads — timestamps
/// exist only in the trace file. Uses the buggy queue so the comparison
/// covers violation attribution and bundle capture, not just zeros.
#[test]
fn tracing_on_and_off_runs_are_byte_identical() {
    let tmp = std::env::temp_dir().join(format!("compass-trace-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let run = |threads: usize, bundle_root: &std::path::Path| {
        relaxed_queue_run(&SEEDED, threads, Some(bundle_root))
    };
    for threads in [1usize, 4] {
        let off_root = tmp.join(format!("off-{threads}"));
        let (off_report, off_bundle) = run(threads, &off_root);

        let trace_path = tmp.join(format!("trace-{threads}.json"));
        orc11::trace::start(&trace_path).expect("no other trace session active");
        let on_root = tmp.join(format!("on-{threads}"));
        let (on_report, on_bundle) = run(threads, &on_root);
        let summary = orc11::trace::finish()
            .expect("trace file writable")
            .expect("session was active");
        assert!(summary.events > 0, "tracing-on run recorded no events");

        assert_eq!(
            off_report, on_report,
            "tracing changed the report at {threads} threads"
        );
        assert_eq!(
            off_bundle, on_bundle,
            "tracing changed the replay bundle at {threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Random/PCT runs always perform exactly the requested iterations —
/// `truncated` is a DFS-only concept and must stay false there.
#[test]
fn seed_based_reports_are_never_truncated() {
    let report = Explorer::with_threads(4).explore(
        &WorkSpec::Random {
            iters: 50,
            seed0: 3,
        },
        &sb,
        |_, _| {},
    );
    assert!(!report.truncated);
}
