//! Integration: the refcount (`compass::arc_spec`) and TM
//! (`compass::stm_spec`) specifications keep their teeth across every
//! checking regime (DESIGN.md §12):
//!
//! 1. the correct model libraries (`ModelArc`, `ModelTml`) are
//!    violation-free on every execution of an exhaustive DFS, with and
//!    without DPOR, and the DPOR reports are byte-identical at 1 and 4
//!    checker threads;
//! 2. the seeded controls (`RelaxedArc` — relaxed decrement without the
//!    acquire fence; `UnvalidatedTml` — reads skip version validation)
//!    are convicted of exactly the expected clauses, with identical
//!    clause sets under plain DFS and DPOR at both thread counts;
//! 3. the weakened native twins (`WeakArcCell`, `WeakTml`) are flagged
//!    by the runtime conformance harness within a bounded number of
//!    seeded batches, and the replay bundle re-checks offline to the
//!    same violated clause.

use std::collections::BTreeSet;

use compass::arc_spec::check_arc_consistent;
use compass::checker::{check_executions_with, CheckOptions, Exploration};
use compass::conform::{recheck, run_conformance, ConformOptions, ConformSubject};
use compass::stm_spec::check_stm_consistent;
use compass::CheckReport;
use compass_bench::arc_stm::{ArcSubject, StmSubject};
use compass_native::{WeakArcCell, WeakTml};
use compass_repro::structures::arc::ModelArc;
use compass_repro::structures::buggy::{RelaxedArc, UnvalidatedTml};
use compass_repro::structures::stm::{Aborted, ModelTml};
use orc11::{run_model, BodyFn, Config, Json, ThreadCtx, Val};

const BUDGET: u64 = 500_000;

fn opts(dpor: bool, threads: usize) -> CheckOptions {
    CheckOptions {
        threads,
        dpor: Some(dpor),
        ..CheckOptions::default()
    }
}

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

/// Pins the soundness contract for one model subject: plain DFS
/// exhausts with exactly `expect`; DPOR at 1 and 4 checker threads
/// keeps the clause set and renders byte-identical reports.
fn assert_model_contract(
    name: &str,
    expect: &[&str],
    run: impl Fn(bool, usize) -> CheckReport,
) -> CheckReport {
    let plain = run(false, 1);
    assert!(plain.exhausted, "{name}: plain DFS must exhaust");
    let expected: BTreeSet<&str> = expect.iter().copied().collect();
    assert_eq!(clauses(&plain), expected, "{name}: plain DFS clause set");

    let serial = run(true, 1);
    let parallel = run(true, 4);
    for (label, r) in [("dpor@1", &serial), ("dpor@4", &parallel)] {
        assert!(r.exhausted, "{name}/{label}: DPOR must exhaust");
        assert_eq!(
            clauses(r),
            expected,
            "{name}/{label}: DPOR changed the violated clauses"
        );
        assert!(
            r.dpor.is_some(),
            "{name}/{label}: DPOR runs must report pruning counters"
        );
        assert!(
            r.execs <= plain.execs,
            "{name}/{label}: DPOR explored more executions ({}) than plain DFS ({})",
            r.execs,
            plain.execs
        );
    }
    assert_eq!(
        normalize(&serial),
        normalize(&parallel),
        "{name}: DPOR report differs across checker-thread counts"
    );
    plain
}

fn explore_model_arc(dpor: bool, threads: usize) -> CheckReport {
    check_executions_with(
        &Exploration::Dfs { budget: BUDGET },
        &opts(dpor, threads),
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
        &opts(dpor, threads),
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| {
                    let a = RelaxedArc::new(ctx, Val::Int(42));
                    a.clone_ref(ctx);
                    a
                },
                vec![
                    Box::new(|ctx: &mut ThreadCtx, a: &RelaxedArc| {
                        a.load(ctx);
                        a.drop_ref(ctx);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, a: &RelaxedArc| {
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
        &opts(dpor, threads),
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
        &opts(dpor, threads),
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

#[test]
fn correct_arc_and_tml_are_clean_in_every_regime() {
    let arc = assert_model_contract("ModelArc", &[], explore_model_arc);
    assert_eq!(arc.consistent, arc.execs, "ModelArc: inconsistent execs");
    let stm = assert_model_contract("ModelTml", &[], explore_model_stm);
    assert_eq!(stm.consistent, stm.execs, "ModelTml: inconsistent execs");
}

#[test]
fn relaxed_arc_violations_survive_dpor() {
    let plain = assert_model_contract("RelaxedArc", &["ARC-UAF"], explore_relaxed_arc);
    // This client races two drops with no other synchronization: *every*
    // schedule lacks the hb edge into the deallocation.
    assert_eq!(
        plain.consistent, 0,
        "RelaxedArc: some execution escaped ARC-UAF"
    );
}

#[test]
fn unvalidated_tml_violations_survive_dpor() {
    let plain = assert_model_contract("UnvalidatedTml", &["STM-RO"], explore_unvalidated_stm);
    // Unlike the Arc race, only the overlapping schedules tear — but the
    // exhaustive DFS must find some of them.
    assert!(
        plain.consistent < plain.execs,
        "UnvalidatedTml: no execution was convicted"
    );
}

/// Bounded-retry positive control: runs conformance batches from
/// derived seeds until the subject is flagged, then round-trips the
/// replay bundle.
fn assert_conform_control<S: ConformSubject>(subject: &S, rule_prefix: &str) {
    let dir = std::env::temp_dir().join(format!(
        "arc-stm-it-{}-{}",
        subject.name(),
        std::process::id()
    ));
    let base = ConformOptions {
        rounds: 64,
        threads: 4,
        ops_per_thread: 48,
        seed0: 7,
        stop_on_violation: true,
        bundle_dir: Some(dir.clone()),
    };
    let mut flagged = None;
    for batch in 0..10 {
        let report = run_conformance(
            subject,
            &ConformOptions {
                seed0: base.seed0 + batch * base.rounds,
                ..base.clone()
            },
        );
        if report.consistent < report.execs {
            flagged = Some(report);
            break;
        }
    }
    let report =
        flagged.unwrap_or_else(|| panic!("{} was never flagged within 10 batches", subject.name()));
    let (_, violation) = &report.samples[0];
    assert!(
        violation.rule.starts_with(rule_prefix),
        "{}: rule {} outside the {rule_prefix}* family",
        subject.name(),
        violation.rule
    );
    let bundle = report.bundle.as_ref().expect("violation without a bundle");
    let (graph, res) = recheck::<S::Ev>(bundle).expect("bundle unreadable");
    assert!(graph.len() >= 2, "bundle too small to witness a violation");
    assert_eq!(
        res.expect_err("bundle re-checked clean").rule,
        violation.rule,
        "offline recheck disagrees with the live check"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn weak_arc_cell_is_flagged_and_bundle_rechecks_to_same_clause() {
    assert_conform_control(
        &ArcSubject::new("WeakArcCell", || WeakArcCell::new(1)),
        "CONFORM-ARC-",
    );
}

#[test]
fn weak_tml_is_flagged_and_bundle_rechecks_to_same_clause() {
    assert_conform_control(
        &StmSubject::new("WeakTml", || WeakTml::new(4)),
        "CONFORM-STM-",
    );
}
