//! The mode-mutant sweep: which access sites do the specs need?
//!
//! For each of the five mode tables (Michael-Scott, Herlihy-Wing, Treiber,
//! Arc, TML), every access site is weakened one step at a time —
//! `AcqRel` to `Acquire` or `Release`, `Acquire` or `Release` to
//! `Relaxed`, an acquire fence dropped — and the library's pin client
//! (the clients of `tests/control_pins.rs`) is explored exhaustively with
//! plain DFS on one worker. A mutant is convicted by a clause, convicted
//! by the race detector, or survives. A weakening the model's own mode
//! checks (`Mode::check_*`) reject would be listed as illegal and not run;
//! none of the five tables has one. The whole table is pinned below and
//! reproduced, with a reason for every survivor, in EXPERIMENTS.md ("Mode
//! tables: which sites the specs need").

use compass::arc_spec::check_arc_consistent;
use compass::checker::{check_executions_with, CheckOptions, CheckTarget, Exploration};
use compass::queue_spec::check_queue_consistent;
use compass::spec::SpecResult;
use compass::stack_spec::check_stack_consistent;
use compass::stm_spec::check_stm_consistent;
use compass::CheckReport;
use orc11::{run_model, BodyFn, Config, FenceMode, Mode, RunOutcome, Strategy, ThreadCtx, Val};

use crate::arc::{self, ArcModes, ModelArc};
use crate::clients::run_mp;
use crate::queue::hw::{self, HwModes};
use crate::queue::ms::{self, MsModes};
use crate::queue::{HwQueue, MsQueue};
use crate::stack::treiber::{self, TreiberModes};
use crate::stack::{ModelStack, TreiberStack};
use crate::stm::{self, Aborted, ModelTml, TmlModes};
use crate::Rmw;

/// One access site of a mode table.
enum Site<'a> {
    Read(&'a mut Mode),
    Write(&'a mut Mode),
    /// A mode used for both reads and writes (a payload's accesses).
    Access(&'a mut Mode),
    /// A fetch-and-add: one mode for its read and its write (it never
    /// fails, so it has no failure mode).
    FetchAdd(&'a mut Mode),
    Rmw(&'a mut Rmw),
    Fence(&'a mut Option<FenceMode>),
}

/// One one-step weakening of a site.
#[derive(Clone, Copy)]
enum Step {
    /// The site's (only) mode becomes this.
    To(Mode),
    /// An RMW's success mode becomes this.
    Ok(Mode),
    /// An RMW's failure mode becomes this.
    Fail(Mode),
    /// The fence is dropped.
    NoFence,
}

fn weaker(m: Mode) -> &'static [Mode] {
    match m {
        Mode::AcqRel => &[Mode::Acquire, Mode::Release],
        Mode::Acquire | Mode::Release => &[Mode::Relaxed],
        Mode::Relaxed | Mode::NonAtomic => &[],
    }
}

/// Whether the model accepts a weakened site: `check` runs the
/// `Mode::check_*` calls the site's access makes, which panic on a mode
/// the model rejects.
fn accepted(check: impl FnOnce() + std::panic::UnwindSafe) -> bool {
    std::panic::catch_unwind(check).is_ok()
}

impl Site<'_> {
    fn steps(&self) -> Vec<Step> {
        let to = |m: &Mode| weaker(*m).iter().map(|&w| Step::To(w)).collect();
        match self {
            Site::Read(m) | Site::Write(m) | Site::Access(m) | Site::FetchAdd(m) => to(m),
            Site::Rmw(r) => weaker(r.ok)
                .iter()
                .map(|&w| Step::Ok(w))
                .chain(weaker(r.fail).iter().map(|&w| Step::Fail(w)))
                .collect(),
            Site::Fence(f) => match f {
                Some(FenceMode::Acquire) => vec![Step::NoFence],
                _ => Vec::new(),
            },
        }
    }

    /// Applies `step`; returns its description and whether the model
    /// accepts the weakened site.
    fn apply(self, step: Step) -> (String, bool) {
        fn set(slot: &mut Mode, w: Mode, what: &str, legal: bool) -> (String, bool) {
            let desc = format!("{what}{slot}→{w}");
            *slot = w;
            (desc, legal)
        }
        match (self, step) {
            (Site::Read(m), Step::To(w)) => set(m, w, "", accepted(|| w.check_read())),
            (Site::Write(m), Step::To(w)) => set(m, w, "", accepted(|| w.check_write())),
            (Site::Access(m), Step::To(w)) => {
                let legal = accepted(|| {
                    w.check_read();
                    w.check_write();
                });
                set(m, w, "", legal)
            }
            (Site::FetchAdd(m), Step::To(w)) => set(m, w, "", accepted(|| w.check_rmw())),
            (Site::Rmw(r), Step::Ok(w)) => set(&mut r.ok, w, "ok ", accepted(|| w.check_rmw())),
            (Site::Rmw(r), Step::Fail(w)) => {
                let legal = accepted(|| {
                    w.check_rmw();
                    w.check_read();
                });
                set(&mut r.fail, w, "fail ", legal)
            }
            (Site::Fence(f), Step::NoFence) => {
                let desc = format!("{} dropped", f.take().expect("a fence"));
                (desc, true)
            }
            _ => unreachable!("steps() only yields a site's own steps"),
        }
    }
}

/// A mode table's access sites, by field name.
trait Table: Copy {
    fn sites(&mut self) -> Vec<(&'static str, Site<'_>)>;
}

impl Table for MsModes {
    fn sites(&mut self) -> Vec<(&'static str, Site<'_>)> {
        vec![
            ("enq_tail", Site::Read(&mut self.enq_tail)),
            ("enq_next", Site::Read(&mut self.enq_next)),
            ("help", Site::Rmw(&mut self.help)),
            ("link", Site::Rmw(&mut self.link)),
            ("swing", Site::Rmw(&mut self.swing)),
            ("deq_head", Site::Read(&mut self.deq_head)),
            ("deq_next", Site::Read(&mut self.deq_next)),
            ("val", Site::Read(&mut self.val)),
            ("deq", Site::Rmw(&mut self.deq)),
        ]
    }
}

impl Table for HwModes {
    fn sites(&mut self) -> Vec<(&'static str, Site<'_>)> {
        vec![
            ("reserve", Site::FetchAdd(&mut self.reserve)),
            ("publish", Site::Write(&mut self.publish)),
            ("scan_tail", Site::Read(&mut self.scan_tail)),
            ("scan_slot", Site::Read(&mut self.scan_slot)),
            ("take", Site::Rmw(&mut self.take)),
        ]
    }
}

impl Table for TreiberModes {
    fn sites(&mut self) -> Vec<(&'static str, Site<'_>)> {
        vec![
            ("push_head", Site::Read(&mut self.push_head)),
            ("push", Site::Rmw(&mut self.push)),
            ("pop_head", Site::Read(&mut self.pop_head)),
            ("pop", Site::Rmw(&mut self.pop)),
            ("fields", Site::Access(&mut self.fields)),
        ]
    }
}

impl Table for ArcModes {
    fn sites(&mut self) -> Vec<(&'static str, Site<'_>)> {
        vec![
            ("clone_ref", Site::FetchAdd(&mut self.clone_ref)),
            ("drop_ref", Site::Rmw(&mut self.drop_ref)),
            ("drop_fence", Site::Fence(&mut self.drop_fence)),
            ("access", Site::Access(&mut self.access)),
            ("downgrade", Site::FetchAdd(&mut self.downgrade)),
            ("drop_weak", Site::Rmw(&mut self.drop_weak)),
            ("drop_weak_fence", Site::Fence(&mut self.drop_weak_fence)),
            ("upgrade_read", Site::Read(&mut self.upgrade_read)),
            ("upgrade", Site::Rmw(&mut self.upgrade)),
        ]
    }
}

impl Table for TmlModes {
    fn sites(&mut self) -> Vec<(&'static str, Site<'_>)> {
        vec![
            ("begin", Site::Read(&mut self.begin)),
            ("read_locked", Site::Read(&mut self.read_locked)),
            ("read", Site::Read(&mut self.read)),
            ("validate_read", Site::Read(&mut self.validate_read)),
            ("lock", Site::Rmw(&mut self.lock)),
            ("write", Site::Write(&mut self.write)),
            ("unlock", Site::Write(&mut self.unlock)),
            ("commit_read", Site::Read(&mut self.commit_read)),
        ]
    }
}

/// Exhaustive plain DFS on one worker, whatever `COMPASS_*` says.
fn explore<G: CheckTarget>(
    program: impl Fn(Box<dyn Strategy>) -> RunOutcome<G> + Send + Sync,
    check: impl Fn(&G) -> SpecResult + Sync,
) -> CheckReport {
    let opts = CheckOptions {
        threads: 1,
        dpor: Some(false),
        ..CheckOptions::default()
    };
    let r = check_executions_with(
        &Exploration::Dfs { budget: 1_000_000 },
        &opts,
        program,
        check,
    );
    assert!(r.exhausted, "a pin client must exhaust");
    r
}

/// One line per mutant of `paper`: `<site> <step>: <outcome>`.
fn sweep<T: Table>(paper: T, run: impl Fn(T) -> CheckReport) -> Vec<String> {
    let mut lines = Vec::new();
    let mut probe = paper;
    let sites: Vec<(&str, Vec<Step>)> = probe
        .sites()
        .into_iter()
        .map(|(name, site)| (name, site.steps()))
        .collect();
    for (i, (name, steps)) in sites.into_iter().enumerate() {
        for step in steps {
            let mut mutant = paper;
            let (desc, legal) = mutant.sites().swap_remove(i).1.apply(step);
            let outcome = if legal {
                outcome(&run(mutant))
            } else {
                "illegal".to_string()
            };
            lines.push(format!("{name} {desc}: {outcome}"));
        }
    }
    lines
}

/// `survives of N`, or the convicting clauses, races and other model
/// errors with their counts, `of N` executions.
fn outcome(r: &CheckReport) -> String {
    let mut parts: Vec<String> = r
        .violations
        .iter()
        .map(|(rule, n)| format!("{rule} {n}"))
        .collect();
    if r.stats.races > 0 {
        parts.push(format!("race {}", r.stats.races));
    }
    if r.model_errors > r.stats.races {
        parts.push(format!("error {}", r.model_errors - r.stats.races));
    }
    if parts.is_empty() {
        parts.push("survives".to_string());
    }
    format!("{} of {}", parts.join(", "), r.execs)
}

fn assert_table(library: &str, got: &[String], want: &[&str]) {
    assert!(
        got == want,
        "{library}: mutant outcomes changed; the sweep now reads:\n{}",
        got.iter()
            .map(|l| format!("    \"{l}\",\n"))
            .collect::<String>()
    );
}

// ---- the pin clients ---------------------------------------------------

fn mp<Q: crate::queue::ModelQueue>(
    make: impl Fn(&mut ThreadCtx) -> Q + Send + Sync,
) -> CheckReport {
    explore(
        |strategy| {
            let out = run_mp(&make, true, strategy);
            RunOutcome {
                result: out.result.map(|r| r.graph),
                steps: out.steps,
                trace: out.trace,
                ops: out.ops,
                stats: out.stats,
                accesses: out.accesses,
            }
        },
        check_queue_consistent,
    )
}

/// `(push; pop) ∥ push`.
fn treiber(m: TreiberModes) -> CheckReport {
    explore(
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| TreiberStack::with_modes(ctx, m),
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
        },
        check_stack_consistent,
    )
}

/// `clone; (load; drop) ∥ (load; drop)`.
fn arc(m: ArcModes) -> CheckReport {
    let body = || {
        Box::new(|ctx: &mut ThreadCtx, a: &ModelArc| {
            a.load(ctx);
            a.drop_ref(ctx);
        }) as BodyFn<'_, _, ()>
    };
    explore(
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| {
                    let a = ModelArc::with_modes(ctx, Val::Int(42), m);
                    a.clone_ref(ctx);
                    a
                },
                vec![body(), body()],
                |_, a, _| a.obj().snapshot(),
            )
        },
        check_arc_consistent,
    )
}

/// One writer attempt incrementing both keys ∥ one read-only snapshot.
fn tml(m: TmlModes) -> CheckReport {
    explore(
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| ModelTml::with_modes(ctx, 2, m),
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
                        if tm.read(ctx, &mut txn, 0).is_err() || tm.read(ctx, &mut txn, 1).is_err()
                        {
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

// ---- the pinned table ---------------------------------------------------

#[test]
fn ms_queue_mutants() {
    let got = sweep(ms::PAPER, |m| mp(|ctx| MsQueue::with_modes(ctx, m)));
    assert_table(
        "MsQueue",
        &got,
        &[
            "enq_tail acq→rlx: survives of 4949",
            "enq_next acq→rlx: survives of 4949",
            "help ok rel→rlx: survives of 4949",
            "link ok rel→rlx: race 819 of 973",
            "swing ok rel→rlx: survives of 4949",
            "deq_head acq→rlx: survives of 4950",
            "deq_next acq→rlx: race 819 of 973",
            "deq ok acq-rel→acq: survives of 5769",
            "deq ok acq-rel→rel: survives of 4949",
            "deq fail acq→rlx: survives of 4949",
        ],
    );
}

#[test]
fn hw_queue_mutants() {
    let got = sweep(hw::PAPER, |m| mp(|ctx| HwQueue::with_modes(ctx, 4, m)));
    assert_table(
        "HwQueue",
        &got,
        &[
            "reserve acq-rel→acq: QUEUE-FIFO 120 of 745",
            "reserve acq-rel→rel: survives of 458",
            "publish rel→rlx: QUEUE-SO-LHB 224 of 458",
            "scan_tail acq→rlx: QUEUE-FIFO 120 of 745",
            "scan_slot acq→rlx: survives of 458",
            "take ok acq→rlx: survives of 458",
            "take fail acq→rlx: survives of 458",
        ],
    );
}

#[test]
fn treiber_mutants() {
    let got = sweep(treiber::PAPER, treiber);
    assert_table(
        "TreiberStack",
        &got,
        &[
            "push ok rel→rlx: race 1871 of 4424",
            "pop_head acq→rlx: race 1871 of 4424",
            "pop ok acq→rlx: survives of 4424",
        ],
    );
}

#[test]
fn arc_mutants() {
    let got = sweep(arc::PAPER, arc);
    assert_table(
        "ModelArc",
        &got,
        &[
            "drop_ref ok rel→rlx: race 6 of 6",
            "drop_fence fence(acq) dropped: race 6 of 6",
            "drop_weak ok rel→rlx: survives of 6",
            "drop_weak_fence fence(acq) dropped: survives of 6",
            "upgrade ok acq→rlx: survives of 6",
        ],
    );
}

#[test]
fn tml_mutants() {
    let got = sweep(stm::PAPER, tml);
    assert_table(
        "ModelTml",
        &got,
        &[
            "begin acq→rlx: STM-HB-VER 1, STM-RO 1 of 9917",
            "read_locked acq→rlx: survives of 9916",
            "read acq→rlx: STM-ABORT 626, STM-RO 2944 of 13486",
            "validate_read acq→rlx: survives of 9916",
            "lock ok acq-rel→acq: survives of 9916",
            "lock ok acq-rel→rel: survives of 9916",
            "write rel→rlx: STM-ABORT 626, STM-RO 2944 of 13486",
            "unlock rel→rlx: STM-HB-VER 1, STM-RO 3 of 9919",
            "commit_read acq→rlx: survives of 9916",
        ],
    );
}
