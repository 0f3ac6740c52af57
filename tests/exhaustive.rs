//! Bounded-exhaustive verification: tiny instances of every structure,
//! explored over *every* schedule the model admits.
//!
//! These are the closest executable analogue to the paper's theorems: at
//! these sizes the claim "consistent on every execution" is not sampled
//! but total (within the model's scheduler granularity).

use compass::checker::{check_executions, Exploration};
use compass::deque_spec::{check_deque_consistent, mutator_subgraph, DequeInterp};
use compass::exchanger_spec::check_exchanger_consistent;
use compass::history::{find_linearization, QueueInterp, StackInterp};
use compass::queue_spec::check_queue_consistent_prefixes;
use compass::spec::Violation;
use compass::stack_spec::check_stack_consistent_prefixes;
use compass_repro::structures::clients::{
    run_client, ENQ_DEQ, ENQ_DEQ_DEQ, EXCHANGE_PAIR, PUSH_POP, PUSH_POP_STEAL,
};
use compass_repro::structures::deque::ChaseLevDeque;
use compass_repro::structures::exchanger::Exchanger;
use compass_repro::structures::queue::{HwQueue, MsQueue};
use compass_repro::structures::stack::TreiberStack;
use orc11::Config;

const DFS: Exploration = Exploration::Dfs { budget: 400_000 };

fn lin_violation() -> Violation {
    Violation::new("HIST-LINEARIZABLE", "no linearization", vec![])
}

#[test]
fn ms_queue_one_enq_one_deq_exhaustive() {
    let report = check_executions(
        &DFS,
        |strategy| run_client(&Config::default(), MsQueue::new, &ENQ_DEQ, strategy),
        |g| {
            check_queue_consistent_prefixes(g)?;
            compass::abs::replay_commit_order(g, &QueueInterp)?;
            Ok(())
        },
    );
    assert!(report.exhausted, "should exhaust: {report}");
    report.assert_clean();
    // Plain DFS sees a nontrivial tree here; under COMPASS_DPOR=1 the
    // same tree legitimately prunes to a handful of representatives.
    assert!(
        report.execs > if report.dpor.is_some() { 1 } else { 10 },
        "nontrivial tree: {report}"
    );
}

#[test]
fn hw_queue_one_enq_two_deq_exhaustive() {
    let report = check_executions(
        &DFS,
        |strategy| {
            run_client(
                &Config::default(),
                |ctx| HwQueue::new(ctx, 2),
                &ENQ_DEQ_DEQ,
                strategy,
            )
        },
        check_queue_consistent_prefixes,
    );
    assert!(report.exhausted, "should exhaust: {report}");
    report.assert_clean();
}

#[test]
fn treiber_one_push_one_pop_exhaustive() {
    let report = check_executions(
        &DFS,
        |strategy| run_client(&Config::default(), TreiberStack::new, &PUSH_POP, strategy),
        |g| {
            check_stack_consistent_prefixes(g)?;
            find_linearization(g, &StackInterp, &[])
                .map(|_| ())
                .ok_or_else(lin_violation)
        },
    );
    assert!(report.exhausted, "should exhaust: {report}");
    report.assert_clean();
}

#[test]
fn exchanger_pair_exhaustive() {
    let report = check_executions(
        &DFS,
        |strategy| run_client(&Config::default(), Exchanger::new, &EXCHANGE_PAIR, strategy),
        check_exchanger_consistent,
    );
    assert!(report.exhausted, "should exhaust: {report}");
    report.assert_clean();
}

#[test]
fn chase_lev_push_pop_steal_exhaustive() {
    let report = check_executions(
        &DFS,
        |strategy| {
            run_client(
                &Config::default(),
                |ctx| ChaseLevDeque::new(ctx, 2),
                &PUSH_POP_STEAL,
                strategy,
            )
        },
        |g| {
            check_deque_consistent(g)?;
            find_linearization(&mutator_subgraph(g), &DequeInterp, &[])
                .map(|_| ())
                .ok_or_else(lin_violation)
        },
    );
    assert!(report.exhausted, "should exhaust: {report}");
    report.assert_clean();
}
