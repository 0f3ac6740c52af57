//! E10 — scheduler-strategy comparison: how effectively do uniform
//! random and PCT exploration find known relaxed-memory bugs?
//!
//! Subjects: the acquire-release (weak-fence) Chase-Lev deque's
//! double-take bug, and the relaxed-tail Herlihy-Wing queue's FIFO bug.
//! PCT (priority-based with d change points) is expected to find
//! small-depth ordering bugs at a much higher rate than uniform random
//! scheduling — this experiment quantifies it on this framework.

use compass::deque_spec::check_deque_consistent;
use compass::queue_spec::check_queue_consistent;
use compass::Graph;
use compass_bench::metrics::{Metrics, Sessions};
use compass_bench::table::Table;
use compass_structures::buggy::relaxed_hw_queue;
use compass_structures::clients::{run_client, FLAG_ORDERED_ENQS, OWNER_THIEVES};
use compass_structures::deque::ChaseLevDeque;
use orc11::Json;
use orc11::{Config, Explorer, Model, RunOutcome, Strategy, ThreadCtx, WorkSpec};
use std::sync::atomic::{AtomicU64, Ordering};

/// PCT scheduling-decision horizon for these 3-thread subjects.
const HORIZON: u64 = 40;

fn weak_deque_program(
    strategy: Box<dyn Strategy>,
) -> RunOutcome<Graph<compass::deque_spec::DequeEvent>> {
    let make = |ctx: &mut ThreadCtx| ChaseLevDeque::new_weak_fences(ctx, 8);
    run_client(&Config::default(), make, &OWNER_THIEVES, strategy)
}

fn weak_hw_program(
    strategy: Box<dyn Strategy>,
) -> RunOutcome<Graph<compass::queue_spec::QueueEvent>> {
    let make = |ctx: &mut ThreadCtx| relaxed_hw_queue(ctx, 4);
    run_client(&Config::default(), make, &FLAG_ORDERED_ENQS, strategy)
}

/// Executions (out of `spec`) whose graph fails `buggy`'s check, plus
/// the exploration report (phase/worker telemetry for metrics).
fn count_bugs<M: Model>(
    model: &M,
    spec: &WorkSpec,
    buggy: impl Fn(&M::Out) -> bool + Sync,
) -> (u64, orc11::ExploreReport) {
    let hits = AtomicU64::new(0);
    let report = Explorer::default().explore(spec, model, |_, out| {
        if let Ok(g) = &out.result {
            if buggy(g) {
                hits.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    (hits.load(Ordering::Relaxed), report)
}

/// Bug hits under uniform random and PCT d ∈ {2, 3, 5}, `n` executions
/// each.
fn rates<M: Model>(
    model: &M,
    n: u64,
    buggy: impl Fn(&M::Out) -> bool + Sync,
    m: &mut Metrics,
) -> [u64; 4] {
    let pct = |depth| WorkSpec::Pct {
        iters: n,
        seed0: 0,
        depth,
        horizon: HORIZON,
    };
    let mut run = |spec: &WorkSpec| {
        let (hits, report) = count_bugs(model, spec, &buggy);
        m.add_phases(&report.phase_ns);
        m.add_workers(&report.workers);
        hits
    };
    [
        run(&WorkSpec::Random { iters: n, seed0: 0 }),
        run(&pct(2)),
        run(&pct(3)),
        run(&pct(5)),
    ]
}

fn main() {
    let _sessions = Sessions::from_env();
    let mut m = Metrics::new("e10_strategies");
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3000);
    println!("E10 — bug-finding rate by scheduling strategy, {n} executions each\n");
    let mut t = Table::new(&["bug", "uniform random", "PCT d=2", "PCT d=3", "PCT d=5"]);
    let mut bugs = Json::obj();
    for (name, [random, pct2, pct3, pct5]) in [
        (
            "Chase-Lev double-take (weak fences)",
            rates(
                &weak_deque_program,
                n,
                |g| check_deque_consistent(g).is_err(),
                &mut m,
            ),
        ),
        (
            "Herlihy-Wing FIFO (relaxed tail)",
            rates(
                &weak_hw_program,
                n,
                |g| check_queue_consistent(g).is_err(),
                &mut m,
            ),
        ),
    ] {
        t.row(&[
            name.to_string(),
            format!("{random}/{n}"),
            format!("{pct2}/{n}"),
            format!("{pct3}/{n}"),
            format!("{pct5}/{n}"),
        ]);
        let b = std::mem::replace(&mut bugs, Json::Null);
        bugs = b.set(
            name,
            Json::obj()
                .set("random", random)
                .set("pct_d2", pct2)
                .set("pct_d3", pct3)
                .set("pct_d5", pct5),
        );
    }
    println!("{t}");
    println!(
        "\nExpected shape: PCT finds these small-depth ordering bugs at a much higher \
         rate than\nuniform random scheduling (Burckhardt et al., ASPLOS 2010) — an \
         order of magnitude or more."
    );
    m.param("executions", n);
    m.set("bugs_found", bugs);
    m.write_or_warn();
}
