//! E14 — refcounting & transactional memory: the Arc-style counter
//! checked against `compass::arc_spec` and the TML software
//! transactional memory against `compass::stm_spec`, on both rails
//! (DESIGN.md §12).
//!
//! Model side: exhaustive DFS over the ghost-instrumented clients, with
//! and without DPOR, at 1 and 4 checker threads. The correct libraries
//! (`ModelArc`, `ModelTml`) must be violation-free on **every**
//! execution; the seeded controls (`buggy::relaxed_arc` — relaxed decrement, no
//! acquire fence; `UnvalidatedTml` — reads skip version validation)
//! must be convicted of the expected clauses, with identical clause
//! sets under plain DFS and DPOR and byte-identical DPOR reports across
//! thread counts (the dpor_soundness contract, extended to the new
//! specs).
//!
//! Native side: the real-atomics twins (`ArcCell`, `Tml`) stress-run on
//! real threads through the runtime conformance harness; their weakened
//! twins (`WeakArcCell`, `WeakTml`) are positive controls that must be
//! flagged within a bounded number of seeded batches, write a replay
//! bundle, and re-check offline to the same violated clause.
//!
//! The binary panics if any side of either contract fails — CI runs it
//! as a smoke test.
//!
//! Usage: `e14_arc_stm [rounds] [ops_per_thread]` (defaults 24, 48).
//! Bundles go to `COMPASS_BUNDLE_DIR`, default
//! `<results_dir>/conform-bundles`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use compass::arc_spec::check_arc_consistent;
use compass::checker::{check_executions_with, CheckOptions, Exploration};
use compass::conform::{recheck, run_conformance, ConformOptions, ConformSubject};
use compass::stm_spec::check_stm_consistent;
use compass::CheckReport;
use compass_bench::arc_stm::{ArcSubject, StmSubject};
use compass_bench::metrics::Metrics;
use compass_bench::table::Table;
use compass_native::recorder::seed_from_env;
use compass_native::{ArcCell, Tml, WeakArcCell, WeakTml};
use compass_structures::arc::ModelArc;
use compass_structures::buggy::{relaxed_arc, UnvalidatedTml};
use compass_structures::stm::{Aborted, ModelTml};
use orc11::{run_model, BodyFn, Config, Json, ThreadCtx, Val};

const BUDGET: u64 = 500_000;

/// Retry batches for the positive controls (same regime as
/// `e11_conform`): each batch re-runs `rounds` rounds from a fresh seed
/// range, so the control is deterministic-by-retry rather than flaky.
const CONTROL_BATCHES: u64 = 10;

// ---------------------------------------------------------------------
// Model-side clients. Small enough for exhaustive DFS, racy enough that
// the seeded bugs are reachable (the same shapes that convict them in
// the `compass-structures` unit tests).

fn explore_model_arc(dpor: bool, threads: usize) -> CheckReport {
    check_executions_with(
        &Exploration::Dfs { budget: BUDGET },
        &CheckOptions {
            threads,
            dpor: Some(dpor),
            ..CheckOptions::default()
        },
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| {
                    let a = ModelArc::new(ctx, Val::Int(42));
                    a.clone_ref(ctx); // strong = 2: one ref per body thread.
                    a
                },
                vec![
                    Box::new(|ctx: &mut ThreadCtx, a: &ModelArc| {
                        a.load(ctx);
                        a.drop_ref(ctx);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, a: &ModelArc| {
                        a.clone_ref(ctx);
                        a.drop_ref(ctx);
                        a.drop_ref(ctx);
                    }),
                ],
                |_, a, _| a.obj().snapshot(),
            )
        },
        check_arc_consistent,
    )
}

fn explore_relaxed_arc(dpor: bool, threads: usize) -> CheckReport {
    check_executions_with(
        &Exploration::Dfs { budget: BUDGET },
        &CheckOptions {
            threads,
            dpor: Some(dpor),
            ..CheckOptions::default()
        },
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| {
                    let a = relaxed_arc(ctx, Val::Int(42));
                    a.clone_ref(ctx);
                    a
                },
                vec![
                    Box::new(|ctx: &mut ThreadCtx, a: &ModelArc| {
                        a.load(ctx);
                        a.drop_ref(ctx);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, a: &ModelArc| {
                        a.load(ctx);
                        a.drop_ref(ctx);
                    }),
                ],
                |_, a, _| a.obj().snapshot(),
            )
        },
        check_arc_consistent,
    )
}

fn explore_model_stm(dpor: bool, threads: usize) -> CheckReport {
    check_executions_with(
        &Exploration::Dfs { budget: BUDGET },
        &CheckOptions {
            threads,
            dpor: Some(dpor),
            ..CheckOptions::default()
        },
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| ModelTml::new(ctx, 2),
                vec![
                    Box::new(|ctx: &mut ThreadCtx, tm: &ModelTml| {
                        // One writer attempt: increment both keys or abort.
                        let mut txn = tm.begin(ctx, 1);
                        let a = match tm.read(ctx, &mut txn, 0) {
                            Ok(v) => v.expect_int(),
                            Err(Aborted) => return,
                        };
                        if tm.write(ctx, &mut txn, 0, Val::Int(a + 1)).is_err() {
                            return;
                        }
                        let b = tm
                            .read(ctx, &mut txn, 1)
                            .expect("locked reads cannot abort")
                            .expect_int();
                        tm.write(ctx, &mut txn, 1, Val::Int(b + 1))
                            .expect("locked writes cannot abort");
                        tm.commit(ctx, txn);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, tm: &ModelTml| {
                        // One read-only snapshot of both keys.
                        let mut txn = tm.begin(ctx, 10);
                        if tm.read(ctx, &mut txn, 0).is_err() {
                            return;
                        }
                        if tm.read(ctx, &mut txn, 1).is_err() {
                            return;
                        }
                        tm.commit(ctx, txn);
                    }),
                ],
                |_, tm, _| tm.obj().snapshot(),
            )
        },
        check_stm_consistent,
    )
}

fn explore_unvalidated_stm(dpor: bool, threads: usize) -> CheckReport {
    check_executions_with(
        &Exploration::Dfs { budget: BUDGET },
        &CheckOptions {
            threads,
            dpor: Some(dpor),
            ..CheckOptions::default()
        },
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| UnvalidatedTml::new(ctx, 2),
                vec![
                    Box::new(|ctx: &mut ThreadCtx, tm: &UnvalidatedTml| {
                        let mut txn = tm.begin(ctx, 1);
                        let a = tm.read(ctx, &mut txn, 0).expect_int();
                        if tm.write(ctx, &mut txn, 0, Val::Int(a + 1)).is_ok() {
                            let b = tm.read(ctx, &mut txn, 1).expect_int();
                            tm.write(ctx, &mut txn, 1, Val::Int(b + 1)).unwrap();
                            tm.commit(ctx, txn);
                        }
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, tm: &UnvalidatedTml| {
                        let mut txn = tm.begin(ctx, 10);
                        tm.read(ctx, &mut txn, 0);
                        tm.read(ctx, &mut txn, 1);
                        tm.commit(ctx, txn);
                    }),
                ],
                |_, tm, _| tm.obj().snapshot(),
            )
        },
        check_stm_consistent,
    )
}

/// Wall-clock-independent rendering of a report: byte-identical across
/// worker-thread counts when exploration and checking are deterministic.
fn normalize(r: &CheckReport) -> String {
    r.to_json()
        .set("check_ns", 0u64)
        .set("check_ns_by_rule", Json::obj())
        .set("phase_ns", orc11::PhaseNs::ZERO.to_json())
        .render_pretty()
}

fn clauses(r: &CheckReport) -> BTreeSet<&'static str> {
    r.violations.keys().copied().collect()
}

fn model_report_json(r: &CheckReport) -> Json {
    let mut violations = Json::obj();
    for (&rule, &n) in &r.violations {
        violations = violations.set(rule, n);
    }
    Json::obj()
        .set("execs", r.execs)
        .set("consistent", r.consistent)
        .set("violations", violations)
        .set("exhausted", r.exhausted)
        .set(
            "dpor_execs",
            r.dpor
                .as_ref()
                .map_or(Json::Null, |_| Json::Int(r.execs as i64)),
        )
}

/// Runs one model subject under {plain DFS, DPOR@1, DPOR@4}, pins the
/// soundness contract, prints the rows, and returns the JSON summary
/// plus the violated clause set.
fn model_subject(
    name: &str,
    expect: &[&str],
    t: &mut Table,
    m: &mut Metrics,
    run: impl Fn(bool, usize) -> CheckReport,
) -> Json {
    let plain = run(false, 1);
    assert!(plain.exhausted, "{name}: plain DFS must exhaust");
    let expected: BTreeSet<&str> = expect.iter().copied().collect();
    assert_eq!(
        clauses(&plain),
        expected,
        "{name}: plain DFS violated-clause set"
    );

    let serial = run(true, 1);
    let parallel = run(true, 4);
    for (label, r) in [("dpor@1", &serial), ("dpor@4", &parallel)] {
        assert!(r.exhausted, "{name}/{label}: DPOR run must exhaust");
        assert_eq!(
            clauses(r),
            expected,
            "{name}/{label}: DPOR changed the violated clauses"
        );
        assert!(r.dpor.is_some(), "{name}/{label}: missing pruning counters");
    }
    assert_eq!(
        normalize(&serial),
        normalize(&parallel),
        "{name}: DPOR report differs across checker-thread counts"
    );

    for (mode, r) in [("dfs", &plain), ("dpor@1", &serial), ("dpor@4", &parallel)] {
        let v: u64 = r.violations.values().sum();
        t.row(&[
            name.into(),
            mode.into(),
            r.execs.to_string(),
            r.consistent.to_string(),
            v.to_string(),
            if expect.is_empty() {
                "clean".into()
            } else {
                clauses(r).into_iter().collect::<Vec<_>>().join(",")
            },
        ]);
    }
    m.add_phases(&plain.phase_ns);
    m.add_phases(&serial.phase_ns);
    m.add_phases(&parallel.phase_ns);
    Json::obj()
        .set("dfs", model_report_json(&plain))
        .set("dpor", model_report_json(&serial))
        .set(
            "clauses",
            expected
                .iter()
                .fold(Json::arr(), |j, r| j.push(r.to_string())),
        )
}

// ---------------------------------------------------------------------
// Native side: conformance rounds on real threads.

fn conform_report_json(r: &CheckReport) -> Json {
    let mut violations = Json::obj();
    for (&rule, &n) in &r.violations {
        violations = violations.set(rule, n);
    }
    Json::obj()
        .set("execs", r.execs)
        .set("consistent", r.consistent)
        .set("violations", violations)
        .set("mean_graph_size", r.graph_sizes.mean())
        .set("searches", r.search.searches)
}

fn conform_clean<S: ConformSubject>(
    subject: &S,
    opts: &ConformOptions,
    t: &mut Table,
    m: &mut Metrics,
) -> Json {
    let report = run_conformance(subject, opts);
    t.row(&[
        subject.name().into(),
        "conform".into(),
        report.execs.to_string(),
        report.consistent.to_string(),
        report.violations.values().sum::<u64>().to_string(),
        "clean".into(),
    ]);
    m.add_phases(&report.phase_ns);
    assert!(
        report.consistent == report.execs,
        "{} failed runtime conformance — a TRUE violation on this host:\n{:?}",
        subject.name(),
        report.samples
    );
    conform_report_json(&report)
}

/// Runs the positive control until flagged (bounded batches), rechecks
/// its replay bundle offline, and asserts the clause family.
fn conform_control<S: ConformSubject>(
    subject: &S,
    opts: &ConformOptions,
    rule_prefix: &str,
    bundle_dir: &std::path::Path,
    t: &mut Table,
    m: &mut Metrics,
) -> Json
where
    S::Ev: std::fmt::Debug,
{
    let mut control = None;
    for batch in 0..CONTROL_BATCHES {
        let report = run_conformance(
            subject,
            &ConformOptions {
                seed0: opts.seed0 + batch * opts.rounds,
                stop_on_violation: true,
                bundle_dir: Some(bundle_dir.to_path_buf()),
                ..opts.clone()
            },
        );
        m.add_phases(&report.phase_ns);
        if report.consistent < report.execs {
            control = Some((batch, report));
            break;
        }
    }
    let (batches_needed, report) = control.unwrap_or_else(|| {
        panic!(
            "positive control FAILED: {} was never flagged — \
             the conformance harness has lost its teeth",
            subject.name()
        )
    });
    let (origin, violation) = &report.samples[0];
    assert!(
        violation.rule.starts_with(rule_prefix),
        "{}: flagged rule {} is outside the {rule_prefix}* family",
        subject.name(),
        violation.rule
    );

    // The bundle must re-check offline to the same clause.
    let dir = report.bundle.as_ref().expect("control wrote no bundle");
    let (g, result) = recheck::<S::Ev>(dir).expect("bundle recheck failed");
    let rechecked = result.expect_err("bundle re-checked consistent");
    assert_eq!(
        rechecked.rule, violation.rule,
        "offline recheck disagrees with the live check"
    );

    t.row(&[
        format!("{} (control)", subject.name()),
        "conform".into(),
        report.execs.to_string(),
        report.consistent.to_string(),
        report.violations.values().sum::<u64>().to_string(),
        violation.rule.into(),
    ]);
    println!(
        "positive control: {} flagged ({}; {origin}; batch {batches_needed}); \
         bundle {} ({} events) re-checks offline to {}",
        subject.name(),
        violation.rule,
        dir.display(),
        g.len(),
        rechecked.rule
    );
    conform_report_json(&report)
        .set("flagged_rule", rechecked.rule)
        .set("batches_needed", batches_needed + 1)
        .set("bundle", dir.display().to_string())
}

fn main() {
    orc11::trace::init_from_env();
    let mut m = Metrics::new("e14_arc_stm");
    m.mark_conform();
    let rounds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    let ops: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(48);
    let bundle_dir = std::env::var_os("COMPASS_BUNDLE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Metrics::results_dir().join("conform-bundles"));
    let seed = seed_from_env(1);
    m.param("budget", BUDGET);
    m.param("rounds", rounds);
    m.param("ops_per_thread", ops as u64);
    m.param("worker_threads", 4u64);
    m.param("seed", seed);

    println!(
        "E14 — refcount & TM specs on both rails (DESIGN.md §12):\n\
         model: exhaustive DFS +/- DPOR at 1 and 4 checker threads, clean libraries\n\
         and seeded controls; native: {rounds} conformance rounds x 4 threads x {ops} ops\n\
         (seed {seed}), weakened twins as offline-recheckable positive controls\n"
    );
    let mut t = Table::new(&[
        "subject",
        "mode",
        "execs/rounds",
        "consistent",
        "violations",
        "clauses",
    ]);

    // Model rail.
    let arc_model = model_subject("ModelArc", &[], &mut t, &mut m, explore_model_arc);
    let arc_buggy = model_subject(
        "RelaxedArc",
        &["ARC-UAF"],
        &mut t,
        &mut m,
        explore_relaxed_arc,
    );
    let stm_model = model_subject("ModelTml", &[], &mut t, &mut m, explore_model_stm);
    let stm_buggy = model_subject(
        "UnvalidatedTml",
        &["STM-RO"],
        &mut t,
        &mut m,
        explore_unvalidated_stm,
    );

    // Native rail.
    let opts = ConformOptions {
        rounds,
        threads: 4,
        ops_per_thread: ops,
        seed0: seed,
        stop_on_violation: false,
        bundle_dir: None,
    };
    let arc_conform = conform_clean(
        &ArcSubject::new("ArcCell", || ArcCell::new(1)),
        &opts,
        &mut t,
        &mut m,
    );
    let stm_conform = conform_clean(
        &StmSubject::new("Tml", || Tml::new(4)),
        &opts,
        &mut t,
        &mut m,
    );
    let arc_control = conform_control(
        &ArcSubject::new("WeakArcCell", || WeakArcCell::new(1)),
        &opts,
        "CONFORM-ARC-",
        &bundle_dir,
        &mut t,
        &mut m,
    );
    let stm_control = conform_control(
        &StmSubject::new("WeakTml", || WeakTml::new(4)),
        &opts,
        "CONFORM-STM-",
        &bundle_dir,
        &mut t,
        &mut m,
    );
    println!("{t}");

    println!(
        "\nExpected shape: the correct libraries are violation-free on every DFS\n\
         execution and every conformance round; DPOR preserves the clause sets with\n\
         byte-identical reports at 1 and 4 threads; RelaxedArc is convicted of ARC-UAF\n\
         and UnvalidatedTml of STM-RO on the model; the weakened native twins are\n\
         flagged by the CONFORM-ARC-*/CONFORM-STM-* stages with bundles that re-check\n\
         offline to the same clause."
    );

    m.set_arc(
        Json::obj()
            .set("model", arc_model)
            .set("model_control", arc_buggy)
            .set("conform", arc_conform)
            .set("conform_control", arc_control),
    );
    m.set_stm(
        Json::obj()
            .set("model", stm_model)
            .set("model_control", stm_buggy)
            .set("conform", stm_conform)
            .set("conform_control", stm_control),
    );
    m.write_or_warn();
    orc11::trace::finish_or_warn();
}
