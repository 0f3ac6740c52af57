//! Integration: DPOR-pruned DFS is *sound* — it reports exactly the
//! distinct behaviours plain DFS does, in (often far) fewer executions.
//!
//! The contract (see `orc11::dpor`) has three observable faces, each
//! pinned here:
//!
//! 1. on every litmus test in the gallery, the outcome set, error count,
//!    and exhaustion flag match plain DFS — only execution/node counts
//!    may differ;
//! 2. the reduction is real: on store buffering and on the MP client of
//!    Figure 1/3, DPOR explores at least 2× fewer executions;
//! 3. violations survive pruning: a buggy structure fails the same spec
//!    clauses under DPOR as under plain DFS, and the DPOR report is
//!    byte-identical at 1 and 4 worker threads.

use std::collections::BTreeSet;
use std::sync::Mutex;

use compass::checker::{check_executions_with, CheckOptions, Exploration};
use compass::queue_spec::check_queue_consistent;
use compass_repro::structures::buggy::relaxed_ms_queue;
use compass_repro::structures::clients::{check_mp, run_mp};
use compass_repro::structures::queue::{HwQueue, ModelQueue, MsQueue};
use orc11::litmus::{gallery, Litmus};
use orc11::{run_model, BodyFn, Config, Explorer, Json, Strategy, ThreadCtx, Val, WorkSpec};

const BUDGET: u64 = 500_000;

/// Distinct-outcome set, error count, and exhaustion of one litmus
/// exploration at an explicit thread count.
fn litmus_summary<S: Sync + 'static>(
    t: &Litmus<S>,
    spec: &WorkSpec,
    threads: usize,
) -> (BTreeSet<Vec<i64>>, u64, bool, u64) {
    let outcomes = Mutex::new(BTreeSet::new());
    let report = Explorer::with_threads(threads).explore(spec, t, |_, out| {
        if let Ok(o) = &out.result {
            outcomes.lock().unwrap().insert(o.clone());
        }
    });
    (
        outcomes.into_inner().unwrap(),
        report.error_count,
        report.exhausted,
        report.execs,
    )
}

fn assert_litmus_sound<S: Sync + 'static>(t: &Litmus<S>) {
    let name = t.name().to_string();
    let (plain_outcomes, plain_errs, plain_exh, plain_execs) =
        litmus_summary(t, &WorkSpec::Dfs { budget: BUDGET }, 1);
    assert!(plain_exh, "{name}: plain DFS must exhaust within budget");
    for threads in [1, 4] {
        let (outcomes, errs, exh, execs) =
            litmus_summary(t, &WorkSpec::DfsDpor { budget: BUDGET }, threads);
        assert_eq!(
            outcomes, plain_outcomes,
            "{name}: DPOR at {threads} threads changed the outcome set"
        );
        assert_eq!(errs, plain_errs, "{name}: DPOR changed the error count");
        assert!(exh, "{name}: DPOR must exhaust whenever plain DFS does");
        assert!(
            execs <= plain_execs,
            "{name}: DPOR explored more executions ({execs}) than plain DFS ({plain_execs})"
        );
    }
}

#[test]
fn litmus_gallery_outcomes_survive_dpor() {
    assert_litmus_sound(&gallery::mp_rel_acq());
    assert_litmus_sound(&gallery::mp_relaxed());
    assert_litmus_sound(&gallery::mp_fences());
    assert_litmus_sound(&gallery::sb());
    assert_litmus_sound(&gallery::sb_sc_fences());
    assert_litmus_sound(&gallery::corr());
    assert_litmus_sound(&gallery::iriw_acq());
    assert_litmus_sound(&gallery::lb());
    assert_litmus_sound(&gallery::two_plus_two_w());
    assert_litmus_sound(&gallery::cowr());
    assert_litmus_sound(&gallery::release_sequence());
    assert_litmus_sound(&gallery::rmw_atomicity());
}

#[test]
fn store_buffering_prunes_at_least_2x() {
    let t = gallery::sb();
    let plain = t.dfs_plain(BUDGET);
    let dpor = t.dfs_dpor(BUDGET);
    assert!(plain.report.exhausted && dpor.report.exhausted);
    assert!(
        dpor.report.execs * 2 <= plain.report.execs,
        "SB: expected >= 2x reduction, got {} vs {}",
        dpor.report.execs,
        plain.report.execs
    );
    let plain_keys: BTreeSet<_> = plain.histogram.keys().collect();
    let dpor_keys: BTreeSet<_> = dpor.histogram.keys().collect();
    assert_eq!(plain_keys, dpor_keys);
}

/// The MP client's observable behaviour: what the right thread dequeued,
/// and how many successful dequeues the graph ended with.
fn mp_summary<Q: ModelQueue>(
    make: impl Fn(&mut ThreadCtx) -> Q + Clone + Send + Sync,
    spec: &WorkSpec,
    threads: usize,
) -> (BTreeSet<(Option<Val>, usize)>, bool, u64) {
    let outcomes = Mutex::new(BTreeSet::new());
    let report = Explorer::with_threads(threads).explore(
        spec,
        &move |s: Box<dyn Strategy>| run_mp(make.clone(), true, s),
        |desc, out| {
            let res = out
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{desc}: {e}"));
            check_mp(res, true).unwrap_or_else(|e| panic!("{desc}: {e}"));
            outcomes
                .lock()
                .unwrap()
                .insert((res.right_value, res.graph.so().len()));
        },
    );
    (
        outcomes.into_inner().unwrap(),
        report.exhausted,
        report.execs,
    )
}

#[test]
fn mp_client_prunes_at_least_2x_with_identical_outcomes() {
    let hw = |ctx: &mut ThreadCtx| HwQueue::new(ctx, 4);
    let ms = MsQueue::new;
    // Two queue implementations under the same client: one array-based,
    // one ghost-commit-heavy linked list.
    let (hw_plain, hw_plain_exh, hw_plain_execs) =
        mp_summary(hw, &WorkSpec::Dfs { budget: BUDGET }, 1);
    let (ms_plain, ms_plain_exh, ms_plain_execs) =
        mp_summary(ms, &WorkSpec::Dfs { budget: BUDGET }, 1);
    assert!(hw_plain_exh && ms_plain_exh);
    for threads in [1, 4] {
        let (o, exh, execs) = mp_summary(hw, &WorkSpec::DfsDpor { budget: BUDGET }, threads);
        assert_eq!(o, hw_plain, "HwQueue MP outcomes changed under DPOR");
        assert!(exh);
        assert!(
            execs * 2 <= hw_plain_execs,
            "HwQueue MP: expected >= 2x reduction, got {execs} vs {hw_plain_execs}"
        );
        let (o, exh, execs) = mp_summary(ms, &WorkSpec::DfsDpor { budget: BUDGET }, threads);
        assert_eq!(o, ms_plain, "MsQueue MP outcomes changed under DPOR");
        assert!(exh);
        assert!(
            execs * 2 <= ms_plain_execs,
            "MsQueue MP: expected >= 2x reduction, got {execs} vs {ms_plain_execs}"
        );
    }
}

fn check_relaxed_queue(dpor: bool, threads: usize) -> compass::checker::CheckReport {
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
                relaxed_ms_queue,
                vec![
                    Box::new(|ctx: &mut ThreadCtx, q: &MsQueue| {
                        q.enqueue(ctx, Val::Int(1));
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, q: &MsQueue| {
                        q.try_dequeue(ctx);
                    }),
                ],
                |_, q, _| q.obj().snapshot(),
            )
        },
        check_queue_consistent,
    )
}

#[test]
fn buggy_structure_violations_survive_dpor() {
    let plain = check_relaxed_queue(false, 1);
    assert!(plain.exhausted);
    let plain_clauses: BTreeSet<_> = plain.violations.keys().copied().collect();
    assert!(
        plain_clauses.contains("QUEUE-SO-LHB"),
        "the buggy queue must actually fail: {plain_clauses:?}"
    );

    let serial = check_relaxed_queue(true, 1);
    let parallel = check_relaxed_queue(true, 4);
    for (label, report) in [("serial", &serial), ("threads=4", &parallel)] {
        assert!(report.exhausted, "{label}: DPOR run must exhaust");
        let clauses: BTreeSet<_> = report.violations.keys().copied().collect();
        assert_eq!(
            clauses, plain_clauses,
            "{label}: DPOR changed the set of violated clauses"
        );
        assert!(
            report.dpor.is_some(),
            "{label}: DPOR runs must report pruning counters"
        );
    }

    // Byte-identical reports across thread counts (wall-clock excepted),
    // sample origins and pruning counters included.
    let normalize = |r: &compass::checker::CheckReport| {
        r.to_json()
            .set("check_ns", 0u64)
            .set("check_ns_by_rule", Json::obj())
            .set("phase_ns", orc11::PhaseNs::ZERO.to_json())
            .render_pretty()
    };
    assert_eq!(normalize(&serial), normalize(&parallel));
}
