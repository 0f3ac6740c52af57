//! Integration: the Figure 2 spec hierarchy, measured (experiment E2).
//!
//! * The release/acquire Michael-Scott queue satisfies every style, up to
//!   and including abstract-state construction at commit points
//!   (`LAT_hb^abs`).
//! * The relaxed Herlihy-Wing queue satisfies the graph-based styles on
//!   every execution, but its commit order is *not* always a sequential
//!   history — the paper's motivation for `LAT_hb` (§3.2).
//! * The deliberately weakened variants fail the graph conditions, each
//!   on its specific clause.

use compass_repro::structures::buggy::{relaxed_hw_queue, relaxed_ms_queue};
use compass_repro::structures::queue::{HwQueue, MsQueue};

use compass::abs::replay_commit_order;
use compass::history::{find_linearization, QueueInterp};
use compass::queue_spec::{check_queue_consistent, check_queue_consistent_prefixes};
use orc11::{random_strategy, run_model, BodyFn, Config, ThreadCtx, Val};

fn run_workload<Q: compass_repro::structures::queue::ModelQueue>(
    make: impl Fn(&mut ThreadCtx) -> Q,
    seed: u64,
) -> compass::Graph<compass::queue_spec::QueueEvent> {
    run_model(
        &Config::default(),
        random_strategy(seed),
        |ctx| make(ctx),
        vec![
            Box::new(|ctx: &mut ThreadCtx, q: &Q| {
                q.enqueue(ctx, Val::Int(1));
                q.enqueue(ctx, Val::Int(2));
            }) as BodyFn<'_, _, ()>,
            Box::new(|ctx: &mut ThreadCtx, q: &Q| {
                q.enqueue(ctx, Val::Int(3));
                q.try_dequeue(ctx);
            }),
            Box::new(|ctx: &mut ThreadCtx, q: &Q| {
                q.try_dequeue(ctx);
                q.try_dequeue(ctx);
            }),
        ],
        |_, q, _| q.obj().snapshot(),
    )
    .result
    .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

#[test]
fn ms_satisfies_all_styles_including_prefixes() {
    for seed in 0..80 {
        let g = run_workload(MsQueue::new, seed);
        check_queue_consistent_prefixes(&g).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        replay_commit_order(&g, &QueueInterp).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        assert!(find_linearization(&g, &QueueInterp, &[]).is_some());
    }
}

#[test]
fn hw_satisfies_graph_styles_on_every_run() {
    for seed in 0..200 {
        let g = run_workload(|ctx| HwQueue::new(ctx, 8), seed);
        check_queue_consistent(&g).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn hw_commit_order_not_always_sequential() {
    let mut abs_failures = 0;
    for seed in 0..400 {
        let g = run_workload(|ctx| HwQueue::new(ctx, 8), seed);
        if replay_commit_order(&g, &QueueInterp).is_err() {
            abs_failures += 1;
            // But even those executions satisfy the graph conditions...
            check_queue_consistent(&g).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            // ...and usually still admit a reordered linearization.
            let _ = find_linearization(&g, &QueueInterp, &[]);
        }
    }
    assert!(
        abs_failures > 0,
        "HW queue commit order should fail sequential replay on some runs \
         (the §3.2 phenomenon)"
    );
}

#[test]
fn buggy_variants_fall_off_the_hierarchy() {
    let mut ms_bad = 0;
    let mut hw_bad = 0;
    for seed in 0..300 {
        if check_queue_consistent(&run_workload(relaxed_ms_queue, seed)).is_err() {
            ms_bad += 1;
        }
        if check_queue_consistent(&run_workload(|ctx| relaxed_hw_queue(ctx, 8), seed)).is_err() {
            hw_bad += 1;
        }
    }
    assert!(ms_bad > 0, "all-relaxed MS queue should violate LAT_hb");
    assert!(hw_bad > 0, "relaxed-tail HW queue should violate LAT_hb");
}
