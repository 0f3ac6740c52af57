//! Integration: the `compass::checker` exploration driver across
//! strategies and structures — positive (clean) and negative (per-clause
//! accounting) paths.

use compass::checker::{check_executions, CheckReport, Exploration};
use compass::queue_spec::check_queue_consistent;
use compass_repro::structures::buggy::relaxed_ms_queue;
use compass_repro::structures::clients::{run_client, ENQ_DEQ};
use compass_repro::structures::queue::{ModelQueue, MsQueue};
use orc11::{Config, ThreadCtx};

fn explore<Q: ModelQueue>(
    make: impl Fn(&mut ThreadCtx) -> Q + Copy + Send + Sync,
    e: &Exploration,
) -> CheckReport {
    check_executions(
        e,
        |strategy| run_client(&Config::default(), make, &ENQ_DEQ, strategy),
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
