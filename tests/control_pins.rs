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

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use compass::arc_spec::check_arc_consistent;
use compass::checker::{check_executions_with, CheckOptions, CheckTarget, Exploration};
use compass::queue_spec::{check_queue_consistent, QueueEvent};
use compass::spec::SpecResult;
use compass::stack_spec::check_stack_consistent;
use compass::stm_spec::check_stm_consistent;
use compass::{CheckReport, Graph};
use compass_repro::structures::arc::ModelArc;
use compass_repro::structures::buggy::{self, UnvalidatedTml};
use compass_repro::structures::clients::run_mp;
use compass_repro::structures::queue::{HwQueue, ModelQueue, MsQueue};
use compass_repro::structures::stack::{ModelStack, TreiberStack};
use compass_repro::structures::stm::{Aborted, ModelTml};
use orc11::{run_model, BodyFn, Config, Loc, Mode, RunOutcome, Strategy, ThreadCtx, Val};

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

fn explore<G: CheckTarget>(
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
    check_executions_with(
        &Exploration::Dfs { budget: 1_000_000 },
        &opts,
        program,
        check,
    )
}

fn assert_pin(name: &str, r: &CheckReport, pin: &Pin) {
    assert!(r.exhausted, "{name}: DFS must exhaust");
    let clauses: BTreeMap<&str, u64> = pin.clauses.iter().copied().collect();
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

/// Explores `program` with bundles on and compares the first failure's
/// bundle with `tests/golden/<control>/`.
fn assert_golden_bundle<G: CheckTarget>(
    control: &str,
    program: impl Fn(Box<dyn Strategy>) -> RunOutcome<G> + Send + Sync,
    check: impl Fn(&G) -> SpecResult + Sync,
) {
    let actual =
        std::env::temp_dir().join(format!("control-pins-{}-{control}", std::process::id()));
    let _ = fs::remove_dir_all(&actual);
    let r = explore(Some(&actual), program, check);
    assert!(r.bundle.is_some(), "{control}: no bundle written");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(control);
    if tree(&golden) != tree(&actual) {
        panic!(
            "{control}: bundle differs from the golden copy; inspect with\n  diff -r {} {}",
            golden.display(),
            actual.display()
        );
    }
    let _ = fs::remove_dir_all(&actual);
}

/// Every file under `root`, by path relative to `root`.
fn tree(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for e in entries {
            let path = e.expect("directory entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root").to_path_buf();
                out.insert(rel, fs::read(&path).expect("readable file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

// ---- clients ----------------------------------------------------------

/// The MP client (release flag) with its queue's graph as the check
/// target; `run_mp`'s own shape, rebuilt here so that the bundle leg can
/// record the instruction log.
fn mp_recorded<Q: ModelQueue>(
    make: impl Fn(&mut ThreadCtx) -> Q,
    strategy: Box<dyn Strategy>,
) -> RunOutcome<Graph<QueueEvent>> {
    run_model(
        &Config {
            record_ops: true,
            ..Config::default()
        },
        strategy,
        |ctx| {
            let q = make(ctx);
            let flag = ctx.alloc("mp.flag", Val::Int(0));
            (q, flag)
        },
        vec![
            Box::new(|ctx: &mut ThreadCtx, (q, flag): &(Q, Loc)| {
                q.enqueue(ctx, Val::Int(41));
                q.enqueue(ctx, Val::Int(42));
                ctx.write(*flag, Val::Int(1), Mode::Release);
            }) as BodyFn<'_, _, ()>,
            Box::new(|ctx: &mut ThreadCtx, (q, _): &(Q, Loc)| {
                q.try_dequeue(ctx);
            }),
            Box::new(|ctx: &mut ThreadCtx, (q, flag): &(Q, Loc)| {
                ctx.read_await(*flag, Mode::Acquire, |v| v == Val::Int(1));
                q.try_dequeue(ctx);
            }),
        ],
        |_, (q, _), _| q.obj().snapshot(),
    )
}

/// `run_mp` with the release flag, its result reduced to the graph.
fn mp<Q: ModelQueue>(
    make: impl Fn(&mut ThreadCtx) -> Q,
    strategy: Box<dyn Strategy>,
) -> RunOutcome<Graph<QueueEvent>> {
    let out = run_mp(make, true, strategy);
    RunOutcome {
        result: out.result.map(|r| r.graph),
        steps: out.steps,
        trace: out.trace,
        ops: out.ops,
        stats: out.stats,
        accesses: out.accesses,
    }
}

/// `(push; pop) ∥ push`.
fn treiber(
    cfg: &Config,
    make: impl Fn(&mut ThreadCtx) -> TreiberStack,
    strategy: Box<dyn Strategy>,
) -> RunOutcome<Graph<compass::stack_spec::StackEvent>> {
    run_model(
        cfg,
        strategy,
        make,
        vec![
            Box::new(|ctx: &mut ThreadCtx, s: &TreiberStack| {
                s.push(ctx, Val::Int(1));
                s.pop(ctx);
            }) as BodyFn<'_, _, ()>,
            Box::new(|ctx: &mut ThreadCtx, s: &TreiberStack| {
                s.push(ctx, Val::Int(2));
            }),
        ],
        |_, s, _| s.obj().snapshot(),
    )
}

/// `clone; (load; drop) ∥ (load; drop)`.
fn arc(
    cfg: &Config,
    make: impl Fn(&mut ThreadCtx, Val) -> ModelArc,
    strategy: Box<dyn Strategy>,
) -> RunOutcome<Graph<compass::arc_spec::ArcEvent>> {
    let body = || {
        Box::new(|ctx: &mut ThreadCtx, a: &ModelArc| {
            a.load(ctx);
            a.drop_ref(ctx);
        }) as BodyFn<'_, _, ()>
    };
    run_model(
        cfg,
        strategy,
        |ctx| {
            let a = make(ctx, Val::Int(42));
            a.clone_ref(ctx);
            a
        },
        vec![body(), body()],
        |_, a, _| a.obj().snapshot(),
    )
}

/// Two-key writer ∥ read-only reader on the validated TML.
fn tml(strategy: Box<dyn Strategy>) -> RunOutcome<Graph<compass::stm_spec::StmEvent>> {
    run_model(
        &Config::default(),
        strategy,
        |ctx| ModelTml::new(ctx, 2),
        vec![
            Box::new(|ctx: &mut ThreadCtx, tm: &ModelTml| {
                let mut txn = tm.begin(ctx, 1);
                let a = match tm.read(ctx, &mut txn, 0) {
                    Ok(v) => v.expect_int(),
                    Err(Aborted) => return,
                };
                if tm.write(ctx, &mut txn, 0, Val::Int(a + 1)).is_err() {
                    return;
                }
                let b = tm.read(ctx, &mut txn, 1).expect("locked").expect_int();
                tm.write(ctx, &mut txn, 1, Val::Int(b + 1)).expect("locked");
                tm.commit(ctx, txn);
            }) as BodyFn<'_, _, ()>,
            Box::new(|ctx: &mut ThreadCtx, tm: &ModelTml| {
                let mut txn = tm.begin(ctx, 10);
                if tm.read(ctx, &mut txn, 0).is_err() || tm.read(ctx, &mut txn, 1).is_err() {
                    return;
                }
                tm.commit(ctx, txn);
            }),
        ],
        |_, tm, _| tm.obj().snapshot(),
    )
}

/// The same client on the TML whose reads skip validation.
fn unvalidated_tml(
    cfg: &Config,
    strategy: Box<dyn Strategy>,
) -> RunOutcome<Graph<compass::stm_spec::StmEvent>> {
    run_model(
        cfg,
        strategy,
        |ctx| UnvalidatedTml::new(ctx, 2),
        vec![
            Box::new(|ctx: &mut ThreadCtx, tm: &UnvalidatedTml| {
                let mut txn = tm.begin(ctx, 1);
                let a = tm.read(ctx, &mut txn, 0).expect_int();
                if tm.write(ctx, &mut txn, 0, Val::Int(a + 1)).is_ok() {
                    let b = tm.read(ctx, &mut txn, 1).expect_int();
                    tm.write(ctx, &mut txn, 1, Val::Int(b + 1)).expect("locked");
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
}

fn recorded() -> Config {
    Config {
        record_ops: true,
        ..Config::default()
    }
}

// ---- pins -------------------------------------------------------------

#[test]
fn ms_queue() {
    let r = explore(None, |s| mp(MsQueue::new, s), check_queue_consistent);
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
    let r = explore(
        None,
        |s| mp(buggy::relaxed_ms_queue, s),
        check_queue_consistent,
    );
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
        |s| mp_recorded(buggy::relaxed_ms_queue, s),
        check_queue_consistent,
    );
}

#[test]
fn hw_queue() {
    let r = explore(
        None,
        |s| mp(|ctx| HwQueue::new(ctx, 4), s),
        check_queue_consistent,
    );
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
    let make = |ctx: &mut ThreadCtx| buggy::relaxed_hw_queue(ctx, 4);
    let r = explore(None, |s| mp(make, s), check_queue_consistent);
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
        |s| mp_recorded(make, s),
        check_queue_consistent,
    );
}

#[test]
fn treiber_stack() {
    let cfg = Config::default();
    let r = explore(
        None,
        |s| treiber(&cfg, TreiberStack::new, s),
        check_stack_consistent,
    );
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
    let cfg = Config::default();
    let r = explore(
        None,
        |s| treiber(&cfg, buggy::relaxed_treiber, s),
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
    let cfg = recorded();
    assert_golden_bundle(
        "RelaxedTreiber",
        |s| treiber(&cfg, buggy::relaxed_treiber, s),
        check_stack_consistent,
    );
}

#[test]
fn model_arc() {
    let cfg = Config::default();
    let r = explore(None, |s| arc(&cfg, ModelArc::new, s), check_arc_consistent);
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
    let cfg = Config::default();
    let r = explore(
        None,
        |s| arc(&cfg, buggy::relaxed_arc, s),
        check_arc_consistent,
    );
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
    let cfg = recorded();
    assert_golden_bundle(
        "RelaxedArc",
        |s| arc(&cfg, buggy::relaxed_arc, s),
        check_arc_consistent,
    );
}

#[test]
fn model_tml() {
    let r = explore(None, tml, check_stm_consistent);
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
    let cfg = Config::default();
    let r = explore(None, |s| unvalidated_tml(&cfg, s), check_stm_consistent);
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
    let cfg = recorded();
    assert_golden_bundle(
        "UnvalidatedTml",
        |s| unvalidated_tml(&cfg, s),
        check_stm_consistent,
    );
}
