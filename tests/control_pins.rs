//! Exhaustive pins for the paper's structures and their weakened
//! controls.
//!
//! Each structure runs one small client under exhaustive plain DFS on one
//! worker (`threads: 1, dpor: Some(false)`, so no `COMPASS_*` variable can
//! move the result), and the test asserts the exact execution count,
//! model-instruction count, per-mode instruction counters, consistent
//! count and per-clause violation counts. Each control is then explored
//! once more with the instruction log on and a bundle directory set, and
//! every file of its first-failure bundle must equal the checked-in copy
//! under `tests/golden/<control>/` byte for byte: `oplog.txt` shows every
//! access's label and mode, so a change to either is a test failure.
//!
//! On a bundle mismatch the actual bundle is left in a temporary
//! directory and the failure message prints the `diff -r` command.
//!
//! The clients are the values of `structures::clients`; the last two
//! tests pin every other client that runs in more than one place.

mod common;

use std::fs;
use std::path::Path;

use compass::arc_spec::check_arc_consistent;
use compass::checker::{check_executions_with, CheckOptions, CheckTarget, Exploration};
use compass::deque_spec::check_deque_consistent;
use compass::exchanger_spec::check_exchanger_consistent;
use compass::queue_spec::check_queue_consistent;
use compass::spec::SpecResult;
use compass::stack_spec::check_stack_consistent;
use compass::stm_spec::check_stm_consistent;
use compass::CheckReport;
use compass_repro::structures::arc::ModelArc;
use compass_repro::structures::buggy::{self, SplitExchanger, UnvalidatedTml};
use compass_repro::structures::clients::*;
use compass_repro::structures::deque::ChaseLevDeque;
use compass_repro::structures::exchanger::{Exchanger, ExchangerArray};
use compass_repro::structures::queue::{HwQueue, LockQueue, MsQueue};
use compass_repro::structures::stack::{ElimStack, TreiberStack};
use compass_repro::structures::stm::ModelTml;
use orc11::{Config, RunOutcome, Strategy, ThreadCtx, Val};

use common::dir_contents;

/// What one exhaustive exploration must report.
struct Pin {
    execs: u64,
    steps: u64,
    consistent: u64,
    /// `ExecStats` rendered as compact JSON: per-mode reads, writes and
    /// RMWs, fences and allocations summed over every execution.
    stats: &'static str,
    clauses: &'static [(&'static str, u64)],
}

/// Plain DFS on one worker, up to `budget` executions.
fn explore<G: CheckTarget>(
    budget: u64,
    bundle_dir: Option<&Path>,
    program: impl Fn(Box<dyn Strategy>) -> RunOutcome<G> + Send + Sync,
    check: impl Fn(&G) -> SpecResult + Sync,
) -> CheckReport {
    let opts = CheckOptions {
        threads: 1,
        dpor: Some(false),
        bundle_dir: bundle_dir.map(Path::to_path_buf),
        ..CheckOptions::default()
    };
    check_executions_with(&Exploration::Dfs { budget }, &opts, program, check)
}

/// `client` on `make`'s object, with the instruction log on iff `record`.
fn program<'a, O: Object>(
    record: bool,
    make: impl Fn(&mut ThreadCtx) -> O + Send + Sync + 'a,
    client: &'a Client,
) -> impl Fn(Box<dyn Strategy>) -> RunOutcome<O::Graph> + Send + Sync + 'a {
    let cfg = Config {
        record_ops: record,
        ..Config::default()
    };
    move |s| run_client(&cfg, &make, client, s)
}

/// Explores `client` on `make`'s object exhaustively.
fn exhaust<O: Object>(
    make: impl Fn(&mut ThreadCtx) -> O + Send + Sync,
    client: &Client,
    check: impl Fn(&O::Graph) -> SpecResult + Sync,
) -> CheckReport
where
    O::Graph: CheckTarget,
{
    explore(1_000_000, None, program(false, make, client), check)
}

fn assert_pin(name: &str, r: &CheckReport, pin: &Pin) {
    assert!(r.exhausted, "{name}: DFS must exhaust");
    let clauses: std::collections::BTreeMap<&str, u64> = pin.clauses.iter().copied().collect();
    let got = (
        r.execs,
        r.stats.steps,
        r.consistent,
        r.model_errors,
        &r.violations,
    );
    assert_eq!(
        got,
        (pin.execs, pin.steps, pin.consistent, 0, &clauses),
        "{name}: (execs, steps, consistent, model errors, clauses)"
    );
    assert_eq!(r.stats.to_json().render(), pin.stats, "{name}: stats");
}

/// Explores `client` with bundles on and compares the first failure's
/// bundle with `tests/golden/<control>/`.
fn assert_golden_bundle<O: Object>(
    control: &str,
    make: impl Fn(&mut ThreadCtx) -> O + Send + Sync,
    client: &Client,
    check: impl Fn(&O::Graph) -> SpecResult + Sync,
) where
    O::Graph: CheckTarget,
{
    let actual =
        std::env::temp_dir().join(format!("control-pins-{}-{control}", std::process::id()));
    let _ = fs::remove_dir_all(&actual);
    let r = explore(1_000_000, Some(&actual), program(true, make, client), check);
    assert!(r.bundle.is_some(), "{control}: no bundle written");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(control);
    if dir_contents(&golden) != dir_contents(&actual) {
        panic!(
            "{control}: bundle differs from the golden copy; inspect with\n  diff -r {} {}",
            golden.display(),
            actual.display()
        );
    }
    let _ = fs::remove_dir_all(&actual);
}

fn new_arc(ctx: &mut ThreadCtx) -> ModelArc {
    ModelArc::new(ctx, Val::Int(42))
}

fn new_relaxed_arc(ctx: &mut ThreadCtx) -> ModelArc {
    buggy::relaxed_arc(ctx, Val::Int(42))
}

// ---- pins -------------------------------------------------------------

#[test]
fn ms_queue() {
    let r = exhaust(MsQueue::new, &MP, check_queue_consistent);
    assert_pin(
        "MsQueue",
        &r,
        &Pin {
            execs: 4949,
            steps: 133030,
            consistent: 4949,
            stats: r#"{"reads":{"na":13385,"rlx":0,"rel":0,"acq":51821,"acq_rel":0},"writes":{"na":0,"rlx":0,"rel":4949,"acq":0,"acq_rel":0},"rmws":{"na":0,"rlx":0,"rel":19796,"acq":0,"acq_rel":13385},"failed_cas":3640,"awaited_reads":4949,"fences":{"acq":0,"rel":0,"acq_rel":0,"sc":0},"allocs":44541,"races":0,"steps":133030}"#,
            clauses: &[],
        },
    );
}

#[test]
fn relaxed_ms_queue() {
    let r = exhaust(buggy::relaxed_ms_queue, &MP, check_queue_consistent);
    assert_pin(
        "RelaxedMsQueue",
        &r,
        &Pin {
            execs: 5769,
            steps: 154346,
            consistent: 973,
            stats: r#"{"reads":{"na":0,"rlx":70094,"rel":0,"acq":5769,"acq_rel":0},"writes":{"na":0,"rlx":0,"rel":5769,"acq":0,"acq_rel":0},"rmws":{"na":0,"rlx":38100,"rel":0,"acq":0,"acq_rel":0},"failed_cas":4459,"awaited_reads":5769,"fences":{"acq":0,"rel":0,"acq_rel":0,"sc":0},"allocs":51921,"races":0,"steps":154346}"#,
            clauses: &[("QUEUE-SO-LHB", 4796)],
        },
    );
    assert_golden_bundle(
        "RelaxedMsQueue",
        buggy::relaxed_ms_queue,
        &MP,
        check_queue_consistent,
    );
}

#[test]
fn hw_queue() {
    let r = exhaust(|ctx| HwQueue::new(ctx, 4), &MP, check_queue_consistent);
    assert_pin(
        "HwQueue",
        &r,
        &Pin {
            execs: 458,
            steps: 7335,
            consistent: 458,
            stats: r#"{"reads":{"na":0,"rlx":0,"rel":0,"acq":2630,"acq_rel":0},"writes":{"na":0,"rlx":0,"rel":1374,"acq":0,"acq_rel":0},"rmws":{"na":0,"rlx":0,"rel":0,"acq":1041,"acq_rel":916},"failed_cas":268,"awaited_reads":458,"fences":{"acq":0,"rel":0,"acq_rel":0,"sc":0},"allocs":2748,"races":0,"steps":7335}"#,
            clauses: &[],
        },
    );
}

#[test]
fn relaxed_hw_queue() {
    let r = exhaust(
        |ctx| buggy::relaxed_hw_queue(ctx, 4),
        &MP,
        check_queue_consistent,
    );
    assert_pin(
        "RelaxedHwQueue",
        &r,
        &Pin {
            execs: 745,
            steps: 11843,
            consistent: 625,
            stats: r#"{"reads":{"na":0,"rlx":1490,"rel":0,"acq":2862,"acq_rel":0},"writes":{"na":0,"rlx":0,"rel":2235,"acq":0,"acq_rel":0},"rmws":{"na":0,"rlx":1490,"rel":0,"acq":1531,"acq_rel":0},"failed_cas":268,"awaited_reads":745,"fences":{"acq":0,"rel":0,"acq_rel":0,"sc":0},"allocs":4470,"races":0,"steps":11843}"#,
            clauses: &[("QUEUE-FIFO", 120)],
        },
    );
    assert_golden_bundle(
        "RelaxedHwQueue",
        |ctx| buggy::relaxed_hw_queue(ctx, 4),
        &MP,
        check_queue_consistent,
    );
}

#[test]
fn treiber_stack() {
    let r = exhaust(TreiberStack::new, &PUSH_POP_PUSH, check_stack_consistent);
    assert_pin(
        "TreiberStack",
        &r,
        &Pin {
            execs: 4424,
            steps: 83058,
            consistent: 4424,
            stats: r#"{"reads":{"na":12510,"rlx":14922,"rel":0,"acq":6255,"acq_rel":0},"writes":{"na":14922,"rlx":0,"rel":0,"acq":0,"acq_rel":0},"rmws":{"na":0,"rlx":0,"rel":14922,"acq":6255,"acq_rel":0},"failed_cas":7905,"awaited_reads":0,"fences":{"acq":0,"rel":0,"acq_rel":0,"sc":0},"allocs":22120,"races":0,"steps":83058}"#,
            clauses: &[],
        },
    );
}

#[test]
fn relaxed_treiber() {
    let r = exhaust(
        buggy::relaxed_treiber,
        &PUSH_POP_PUSH,
        check_stack_consistent,
    );
    assert_pin(
        "RelaxedTreiber",
        &r,
        &Pin {
            execs: 8046,
            steps: 154838,
            consistent: 2553,
            stats: r#"{"reads":{"na":0,"rlx":65940,"rel":0,"acq":0,"acq_rel":0},"writes":{"na":0,"rlx":25668,"rel":0,"acq":0,"acq_rel":0},"rmws":{"na":0,"rlx":39092,"rel":0,"acq":0,"acq_rel":0},"failed_cas":14954,"awaited_reads":0,"fences":{"acq":0,"rel":0,"acq_rel":0,"sc":0},"allocs":40230,"races":0,"steps":154838}"#,
            clauses: &[("STACK-SO-LHB", 5493)],
        },
    );
    assert_golden_bundle(
        "RelaxedTreiber",
        buggy::relaxed_treiber,
        &PUSH_POP_PUSH,
        check_stack_consistent,
    );
}

#[test]
fn model_arc() {
    let r = exhaust(new_arc, &ARC_TWO_DROPS, check_arc_consistent);
    assert_pin(
        "ModelArc",
        &r,
        &Pin {
            execs: 6,
            steps: 72,
            consistent: 6,
            stats: r#"{"reads":{"na":12,"rlx":0,"rel":0,"acq":0,"acq_rel":0},"writes":{"na":6,"rlx":0,"rel":0,"acq":0,"acq_rel":0},"rmws":{"na":0,"rlx":6,"rel":18,"acq":0,"acq_rel":0},"failed_cas":0,"awaited_reads":0,"fences":{"acq":12,"rel":0,"acq_rel":0,"sc":0},"allocs":18,"races":0,"steps":72}"#,
            clauses: &[],
        },
    );
}

#[test]
fn relaxed_arc() {
    let r = exhaust(new_relaxed_arc, &ARC_TWO_DROPS, check_arc_consistent);
    assert_pin(
        "RelaxedArc",
        &r,
        &Pin {
            execs: 6,
            steps: 66,
            consistent: 0,
            stats: r#"{"reads":{"na":0,"rlx":12,"rel":0,"acq":0,"acq_rel":0},"writes":{"na":0,"rlx":6,"rel":0,"acq":0,"acq_rel":0},"rmws":{"na":0,"rlx":18,"rel":6,"acq":0,"acq_rel":0},"failed_cas":0,"awaited_reads":0,"fences":{"acq":6,"rel":0,"acq_rel":0,"sc":0},"allocs":18,"races":0,"steps":66}"#,
            clauses: &[("ARC-UAF", 6)],
        },
    );
    assert_golden_bundle(
        "RelaxedArc",
        new_relaxed_arc,
        &ARC_TWO_DROPS,
        check_arc_consistent,
    );
}

#[test]
fn model_tml() {
    let r = exhaust(
        |ctx| ModelTml::new(ctx, 2),
        &TML_WRITER_READER,
        check_stm_consistent,
    );
    assert_pin(
        "ModelTml",
        &r,
        &Pin {
            execs: 9916,
            steps: 165286,
            consistent: 9916,
            stats: r#"{"reads":{"na":0,"rlx":0,"rel":0,"acq":95874,"acq_rel":0},"writes":{"na":0,"rlx":0,"rel":29748,"acq":0,"acq_rel":0},"rmws":{"na":0,"rlx":0,"rel":0,"acq":0,"acq_rel":9916},"failed_cas":0,"awaited_reads":19832,"fences":{"acq":0,"rel":0,"acq_rel":0,"sc":0},"allocs":29748,"races":0,"steps":165286}"#,
            clauses: &[],
        },
    );
}

#[test]
fn unvalidated_tml_control() {
    let r = exhaust(
        |ctx| UnvalidatedTml::new(ctx, 2),
        &TML_WRITER_READER,
        check_stm_consistent,
    );
    assert_pin(
        "UnvalidatedTml",
        &r,
        &Pin {
            execs: 1203,
            steps: 16842,
            consistent: 766,
            stats: r#"{"reads":{"na":0,"rlx":0,"rel":0,"acq":8421,"acq_rel":0},"writes":{"na":0,"rlx":0,"rel":3609,"acq":0,"acq_rel":0},"rmws":{"na":0,"rlx":0,"rel":0,"acq":0,"acq_rel":1203},"failed_cas":0,"awaited_reads":2406,"fences":{"acq":0,"rel":0,"acq_rel":0,"sc":0},"allocs":3609,"races":0,"steps":16842}"#,
            clauses: &[("STM-RO", 437)],
        },
    );
    assert_golden_bundle(
        "UnvalidatedTml",
        |ctx| UnvalidatedTml::new(ctx, 2),
        &TML_WRITER_READER,
        check_stm_consistent,
    );
}

// ---- the other shared clients -------------------------------------------
//
// Each client once, on one of its objects (the client's instruction
// stream does not depend on which), explored with plain DFS on one
// worker: exhaustively where the tree is small, else its first 2 000
// executions (a DFS prefix, which pins the instruction stream of those
// schedules just as exactly).

const PREFIX: u64 = 2_000;

/// `<execs> execs (exhausted|prefix), <steps> steps, <consistent>
/// consistent` and each violated clause with its count.
fn summary(r: &CheckReport) -> String {
    assert_eq!(r.model_errors, 0);
    let mut s = format!(
        "{} execs ({}), {} steps, {} consistent",
        r.execs,
        if r.exhausted { "exhausted" } else { "prefix" },
        r.stats.steps,
        r.consistent
    );
    for (rule, n) in &r.violations {
        s += &format!(", {rule} {n}");
    }
    s
}

fn prefix<O: Object>(
    make: impl Fn(&mut ThreadCtx) -> O + Send + Sync,
    client: &Client,
    check: impl Fn(&O::Graph) -> SpecResult + Sync,
) -> CheckReport
where
    O::Graph: CheckTarget,
{
    explore(PREFIX, None, program(false, make, client), check)
}

fn assert_lines(got: &[(&str, CheckReport)], want: &[&str]) {
    let got: Vec<String> = got
        .iter()
        .map(|(n, r)| format!("{n}: {}", summary(r)))
        .collect();
    assert!(
        got == want,
        "counts changed; they now read:\n{}",
        got.iter()
            .map(|l| format!("        \"{l}\",\n"))
            .collect::<String>()
    );
}

#[test]
fn small_shared_clients_exhaust() {
    let got = [
        (
            "enq ∥ deq on RelaxedMsQueue",
            exhaust(buggy::relaxed_ms_queue, &ENQ_DEQ, check_queue_consistent),
        ),
        (
            "enq ∥ deq ∥ deq on HwQueue(2)",
            exhaust(
                |ctx| HwQueue::new(ctx, 2),
                &ENQ_DEQ_DEQ,
                check_queue_consistent,
            ),
        ),
        (
            "push ∥ pop on RelaxedTreiber",
            exhaust(buggy::relaxed_treiber, &PUSH_POP, check_stack_consistent),
        ),
        (
            "exchange pair (patience 1)",
            exhaust(Exchanger::new, &EXCHANGE_PAIR, check_exchanger_consistent),
        ),
        (
            "exchange pair (patience 3) on SplitExchanger",
            exhaust(
                SplitExchanger::new,
                &PATIENT_PAIR,
                check_exchanger_consistent,
            ),
        ),
        (
            "(push; pop) ∥ steal on ChaseLevDeque(2)",
            exhaust(
                |ctx| ChaseLevDeque::new(ctx, 2),
                &PUSH_POP_STEAL,
                check_deque_consistent,
            ),
        ),
        (
            "producers ∥ consumer on HwQueue(8)",
            exhaust(
                |ctx| HwQueue::new(ctx, 8),
                &PRODUCERS_CONSUMER,
                check_queue_consistent,
            ),
        ),
        (
            "flag-ordered FIFO client on RelaxedHwQueue(4)",
            exhaust(
                |ctx| buggy::relaxed_hw_queue(ctx, 4),
                &FLAG_ORDERED_ENQS,
                check_queue_consistent,
            ),
        ),
        (
            "clone; (load; drop) ∥ (clone; drop; drop) on ModelArc",
            exhaust(new_arc, &ARC_CLONE_DROPS, check_arc_consistent),
        ),
    ];
    assert_lines(
        &got,
        &[
            "enq ∥ deq on RelaxedMsQueue: 42 execs (exhausted), 462 steps, 21 consistent, QUEUE-SO-LHB 21",
            "enq ∥ deq ∥ deq on HwQueue(2): 228 execs (exhausted), 1954 steps, 228 consistent",
            "push ∥ pop on RelaxedTreiber: 7 execs (exhausted), 48 steps, 5 consistent, STACK-SO-LHB 2",
            "exchange pair (patience 1): 382 execs (exhausted), 4184 steps, 382 consistent",
            "exchange pair (patience 3) on SplitExchanger: 1350 execs (exhausted), 16862 steps, 130 consistent, EXCHANGER-ATOMIC-PAIRS 1220",
            "(push; pop) ∥ steal on ChaseLevDeque(2): 2715 execs (exhausted), 47484 steps, 2715 consistent",
            "producers ∥ consumer on HwQueue(8): 61965 execs (exhausted), 865006 steps, 61965 consistent",
            "flag-ordered FIFO client on RelaxedHwQueue(4): 89 execs (exhausted), 1036 steps, 86 consistent, QUEUE-FIFO 3",
            "clone; (load; drop) ∥ (clone; drop; drop) on ModelArc: 10 execs (exhausted), 130 steps, 10 consistent",
        ],
    );
}

#[test]
fn large_shared_clients_dfs_prefix() {
    let got = [
        (
            "spec-hierarchy client on RelaxedHwQueue(8)",
            prefix(
                |ctx| buggy::relaxed_hw_queue(ctx, 8),
                &QUEUE_MIXED,
                check_queue_consistent,
            ),
        ),
        (
            "lock-queue client on LockQueue",
            prefix(LockQueue::new, &LOCK_QUEUE_MIXED, check_queue_consistent),
        ),
        (
            "MPMC workload on MsQueue",
            prefix(MsQueue::new, &MPMC, check_queue_consistent),
        ),
        (
            "mixed stack client on TreiberStack",
            prefix(TreiberStack::new, &STACK_MIXED, check_stack_consistent),
        ),
        (
            "elimination client on ElimStack(3)",
            explore(
                PREFIX,
                None,
                |s| {
                    run_client(
                        &Config::default(),
                        |ctx| ElimStack::new(ctx, 3),
                        &ELIM_MIXED,
                        s,
                    )
                    .map(|(es, _, _)| es)
                },
                check_stack_consistent,
            ),
        ),
        (
            "owner ∥ thieves on weak-fence ChaseLevDeque(8)",
            prefix(
                |ctx| ChaseLevDeque::new_weak_fences(ctx, 8),
                &OWNER_THIEVES,
                check_deque_consistent,
            ),
        ),
        (
            "three-way exchange (patience 2)",
            prefix(Exchanger::new, &EXCHANGE_THREE, check_exchanger_consistent),
        ),
        (
            "four-way exchange on ExchangerArray(2)",
            prefix(
                |ctx| ExchangerArray::new(ctx, 2),
                &EXCHANGE_FOUR,
                check_exchanger_consistent,
            ),
        ),
        (
            "same-slot exchange on ExchangerArray(2)",
            prefix(
                |ctx| ExchangerArray::new(ctx, 2),
                &SAME_SLOT_PAIR,
                check_exchanger_consistent,
            ),
        ),
    ];
    assert_lines(
        &got,
        &[
            "spec-hierarchy client on RelaxedHwQueue(8): 2000 execs (prefix), 39381 steps, 1414 consistent, QUEUE-FIFO 586",
            "lock-queue client on LockQueue: 2000 execs (prefix), 98368 steps, 2000 consistent",
            "MPMC workload on MsQueue: 2000 execs (prefix), 96730 steps, 2000 consistent",
            "mixed stack client on TreiberStack: 2000 execs (prefix), 77222 steps, 2000 consistent",
            "elimination client on ElimStack(3): 2000 execs (prefix), 129074 steps, 2000 consistent",
            "owner ∥ thieves on weak-fence ChaseLevDeque(8): 2000 execs (prefix), 60828 steps, 2000 consistent",
            "three-way exchange (patience 2): 2000 execs (prefix), 35578 steps, 2000 consistent",
            "four-way exchange on ExchangerArray(2): 2000 execs (prefix), 60000 steps, 2000 consistent",
            "same-slot exchange on ExchangerArray(2): 2000 execs (prefix), 61113 steps, 2000 consistent",
        ],
    );
}
