//! Integration tests for the soak engine driven end-to-end through the
//! bench driver (`compass_bench::soak`): real OS threads mutating real
//! native structures, sharded epoch recording, and the streaming
//! `CONFORM-*` checks running concurrently with the workload.
//!
//! These are the scaled-down cousins of `e13_soak`: small epoch counts
//! and short rotation intervals keep each test in the hundreds of
//! milliseconds, which is enough to exercise the full pipeline — the
//! unit tests in `compass::soak` cover the engine internals with
//! synthetic submissions instead.

use compass::conform;
use compass::queue_spec::QueueEvent;
use compass::soak::LoopMode;
use compass_bench::roles::{queue, registry, stack, Sizing};
use compass_bench::soak::{soak, SoakRunOptions};
use compass_native::{TreiberStack, WeakMsQueue};

/// A small preset that still seals enough epochs for the accounting
/// invariants to bite.
fn small() -> SoakRunOptions {
    SoakRunOptions {
        threads: 2,
        epochs: 12,
        rotate_ms: 10,
        baseline_ms: 40,
        checkers: 1,
        queue_cap: 4,
        target_events_per_epoch: 200,
        seed: 0xA5,
        ..SoakRunOptions::default()
    }
}

/// Every library in the registry soaks clean.
#[test]
fn clean_structures_soak_clean_and_balanced() {
    let opts = small();
    for subject in registry() {
        // A vocabulary recorded in full (the exchanger) is bounded by
        // pacing, not sampling: offer about one slice budget per epoch.
        let mode = if subject.recorded_in_full() {
            let per_worker = opts.target_events_per_epoch * 1_000 / (2 * opts.rotate_ms);
            LoopMode::Open {
                ops_per_sec: per_worker,
            }
        } else {
            opts.mode
        };
        let out = subject.soak(&SoakRunOptions {
            mode,
            ..opts.clone()
        });
        let r = &out.report;
        // Real-time order under-approximates happens-before, so any
        // violation on a correct structure would be a true violation.
        assert!(r.clean(), "{}: violations {:?}", r.subject, r.violations);
        assert!(r.balanced(), "{}: {r:?}", r.subject);
        assert!(r.epochs_sealed >= opts.epochs, "{}: {r:?}", r.subject);
        assert!(
            r.epochs_checked > 0,
            "{}: nothing checked: {r:?}",
            r.subject
        );
        assert!(r.ops_total > 0, "{}: no ops ran", r.subject);
    }
}

#[test]
fn weak_queue_is_flagged_online_and_bundle_rechecks_to_same_clause() {
    let dir = std::env::temp_dir().join(format!("soak-it-{}", std::process::id()));
    // The duplicated-dequeue window is wide under full recording, but
    // it is still a race — retry from derived seeds, bounded.
    let weak = queue("WeakMsQueue", Sizing::FREE, |_| WeakMsQueue::new());
    let mut flagged = None;
    for attempt in 0..4 {
        let out = soak(
            &weak,
            // The e13 positive-control regime, which flags on the
            // first attempt in practice: full recording paced so one
            // epoch holds about a slice budget of events, and enough
            // 20ms epochs for the dequeue race to land. A flagged run
            // stops at the violation, so the budget is the worst case.
            &SoakRunOptions {
                epochs: 40,
                rotate_ms: 20,
                sample_per_mille: 1000,
                target_events_per_epoch: 0,
                mode: LoopMode::Open { ops_per_sec: 7_500 },
                stop_on_violation: true,
                bundle_dir: Some(dir.clone()),
                seed: 0xBEEF + attempt,
                ..small()
            },
        );
        assert!(out.report.balanced(), "{:?}", out.report);
        if !out.report.clean() {
            flagged = Some(out);
            break;
        }
    }
    let out = flagged.expect("WeakMsQueue was never flagged online within 4 attempts");
    let r = &out.report;
    // Flagged within the bounded epoch budget, while the workload ran.
    assert!(r.epochs_sealed <= 41, "stop_on_violation ignored: {r:?}");
    let rule = *r
        .violations
        .keys()
        .next()
        .expect("violation without a clause");
    // The violation epoch's replay bundle re-checks offline to the
    // same clause — the bundle is the evidence, not the live run.
    let bundle = r.bundle.clone().expect("violation without a bundle");
    let (graph, res) = conform::recheck::<QueueEvent>(&bundle).expect("bundle unreadable");
    assert!(graph.len() >= 2, "bundle too small to witness a dup");
    assert_eq!(res.expect_err("bundle re-checked clean").rule, rule);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_and_degrades_sampling_without_blocking_mutators() {
    // Starve the checker (0.1% CPU duty) under a fast structure: the
    // sealed-epoch queue must fill, epochs must shed rather than block
    // the mutators, and the governor must degrade the sampling
    // fraction. The run still terminates promptly because shedding
    // never waits on the checker.
    let out = soak(
        &stack("TreiberStack", Sizing::FREE, |_| TreiberStack::new()),
        &SoakRunOptions {
            epochs: 16,
            queue_cap: 2,
            check_duty_per_mille: 1,
            // Start sampling at the cap (no baseline sizing) so the
            // governor has room to degrade — on a fast structure the
            // baseline would start it at the 1‰ floor already.
            sample_per_mille: 250,
            target_events_per_epoch: 0,
            ..small()
        },
    );
    let r = &out.report;
    assert!(r.clean(), "violations: {:?}", r.violations);
    assert!(r.balanced(), "{r:?}");
    assert!(r.epochs_shed > 0, "overload never shed: {r:?}");
    assert!(
        r.sample_per_mille_min < r.sample_per_mille_initial,
        "governor never degraded sampling: {r:?}"
    );
    assert!(r.ops_total > 0);
}
