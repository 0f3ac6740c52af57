//! E11 — runtime conformance: the native structures, stress-run on real
//! threads, checked against the Compass consistency specifications
//! (DESIGN.md §7).
//!
//! The full matrix of correct structures must pass every recorded round
//! (a reported violation would be a *true* violation — the interval
//! order soundly under-approximates happens-before). The deliberately
//! weakened `WeakMsQueue` (`compass-native`, `feature = "weak-variants"`)
//! is the positive control: the harness must flag it within a bounded
//! number of seeded retry rounds, write a replay bundle, and the bundle
//! must re-check offline to the same violated clause. The binary panics
//! if either side of that contract fails — CI runs it as a smoke test.
//!
//! Usage: `e11_conform [rounds] [ops_per_thread]` (defaults 24, 64).
//! Bundles go to `COMPASS_BUNDLE_DIR`, default
//! `<results_dir>/conform-bundles`.

use compass::conform::{recheck, ConformOptions};
use compass::queue_spec::QueueEvent;
use compass_bench::metrics::{Metrics, Sessions};
use compass_bench::roles::{queue, registry, Sizing, Subject};
use compass_bench::table::Table;
use compass_native::recorder::seed_from_env;
use compass_native::WeakMsQueue;
use orc11::Json;

/// Retry batches for the positive control: each batch re-runs `rounds`
/// rounds from a fresh seed range. The TOCTOU window is wide (an OS
/// yield), so in practice the first batch flags it; the bound keeps the
/// control deterministic-by-retry rather than flaky.
const CONTROL_BATCHES: u64 = 10;

fn report_row(t: &mut Table, name: &str, report: &compass::CheckReport) {
    let violations: u64 = report.violations.values().sum();
    t.row(&[
        name.into(),
        format!("{}/{}", report.consistent, report.execs),
        violations.to_string(),
        format!("{:.0}", report.graph_sizes.mean()),
        report.search.searches.to_string(),
    ]);
}

fn report_json(report: &compass::CheckReport) -> Json {
    let mut violations = Json::obj();
    for (&rule, &n) in &report.violations {
        violations = violations.set(rule, n);
    }
    Json::obj()
        .set("execs", report.execs)
        .set("consistent", report.consistent)
        .set("violations", violations)
        .set("mean_graph_size", report.graph_sizes.mean())
        .set("searches", report.search.searches)
        .set("check_ns", report.check_ns)
}

fn main() {
    let _sessions = Sessions::from_env();
    let mut m = Metrics::new("e11_conform");
    m.mark_conform();
    let rounds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    let ops: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let bundle_dir = Metrics::bundle_dir("conform-bundles");
    let seed = seed_from_env(1);
    let opts = ConformOptions {
        rounds,
        threads: 4,
        ops_per_thread: ops,
        seed0: seed,
        stop_on_violation: false,
        bundle_dir: None,
    };
    m.param("rounds", rounds);
    m.param("ops_per_thread", ops as u64);
    m.param("worker_threads", 4u64);
    m.param("seed", seed);

    println!(
        "E11 — runtime conformance: native structures on real threads vs. the specs\n\
         ({rounds} rounds x 4 threads x {ops} ops; seed {seed}; real-time order\n\
         under-approximates hb, so every violation is a true violation — DESIGN.md §7)\n"
    );
    let mut t = Table::new(&[
        "subject",
        "conforming rounds",
        "violations",
        "mean graph",
        "order searches",
    ]);

    for subject in registry().iter().filter(|s| !s.is_baseline()) {
        let report = subject.conform(&opts);
        report_row(&mut t, subject.name(), &report);
        m.add_phases(&report.phase_ns);
        m.set(subject.name(), report_json(&report));
        assert!(
            report.consistent == report.execs,
            "{} failed runtime conformance — a TRUE violation on this host:\n{:?}",
            subject.name(),
            report.samples
        );
    }

    // Positive control: the weakened queue must be flagged.
    let weak = queue("WeakMsQueue", Sizing::FREE, |_| WeakMsQueue::new());
    let mut control = None;
    for batch in 0..CONTROL_BATCHES {
        let report = weak.conform(&ConformOptions {
            seed0: seed + batch * rounds,
            stop_on_violation: true,
            bundle_dir: Some(bundle_dir.clone()),
            ..opts.clone()
        });
        if report.consistent < report.execs {
            control = Some((batch, report));
            break;
        }
    }
    for (_, r) in control.iter() {
        m.add_phases(&r.phase_ns);
    }
    let (batches_needed, report) = control.expect(
        "positive control FAILED: the weakened MsQueue was never flagged — \
         the conformance harness has lost its teeth",
    );
    report_row(&mut t, "WeakMsQueue (control)", &report);
    println!("{t}");

    let (origin, violation) = &report.samples[0];
    println!(
        "\npositive control: WeakMsQueue flagged ({}; {origin}; batch {batches_needed})",
        violation.rule
    );

    // The bundle must re-check offline to the same clause.
    let dir = report.bundle.as_ref().expect("control wrote no bundle");
    let (g, result) = recheck::<QueueEvent>(dir).expect("bundle recheck failed");
    let rechecked = result.expect_err("bundle re-checked consistent");
    assert_eq!(
        rechecked.rule, violation.rule,
        "offline recheck disagrees with the live check"
    );
    println!(
        "bundle: {} ({} events) re-checks offline to {}",
        dir.display(),
        g.len(),
        rechecked.rule
    );
    println!(
        "\nExpected shape: every correct structure conforms in every round (violations would\n\
         be true violations); the weakened queue is flagged (typically CONFORM-QUEUE-DUP —\n\
         the duplicated dequeue its broken head swing admits) with a deterministic offline-\n\
         recheckable bundle."
    );

    let mut ctl = report_json(&report);
    ctl = ctl
        .set("flagged_rule", rechecked.rule)
        .set("batches_needed", batches_needed + 1)
        .set("bundle", dir.display().to_string());
    m.set("WeakMsQueue_control", ctl);
    m.write_or_warn();
}
