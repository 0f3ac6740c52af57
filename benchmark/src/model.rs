//! The two model-rail workloads: exhaustive exploration of checked
//! clients on the ORC11 simulator, serial plain DFS and parallel DPOR.
//!
//! Every subject goes through `compass::checker::check_executions_with`
//! — the entry point every `cargo test` user takes — with the
//! benchmark's own `program` and `check` closures, which is where the
//! traced run hangs its spans.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use compass::checker::{check_executions_with, CheckOptions, CheckTarget, Exploration};
use compass::queue_spec::check_queue_consistent;
use compass::spec::{SpecResult, Violation};
use compass::stack_spec::check_stack_consistent;
use compass::stm_spec::check_stm_consistent;
use compass::CheckReport;
use compass_structures::buggy::UnvalidatedTml;
use compass_structures::clients::{check_mp, run_mp, MpResult};
use compass_structures::queue::{HwQueue, ModelQueue, MsQueue};
use compass_structures::stack::{ModelStack, TreiberStack};
use compass_structures::stm::{Aborted, ModelTml};
use orc11::rng::SmallRng;
use orc11::{run_model, BodyFn, Config, OpRecord, RunOutcome, Strategy, ThreadCtx, Val};

use crate::answers::{judge_model, Expect, ModelAnswer};
use crate::spans::{self, Span, SpanId};
use crate::workload::{Layers, Pass, Workload};
use crate::{guard, params, probes};

/// Far above every subject's tree: exhaustion, never the budget, ends a
/// subject (a truncated run is a wrong verdict).
const BUDGET: u64 = 2_000_000;

/// What a subject's `run` needs from the pass driving it.
pub struct Cx {
    opts: CheckOptions,
    parent: SpanId,
    /// Seed-derived element values for the queue/stack clients.
    vals: [i64; 3],
}

/// Runs one subject to its verdict with the benchmark's closures around
/// the subject's own.
fn drive<G: CheckTarget>(
    cx: &Cx,
    program: impl Fn(Box<dyn Strategy>) -> RunOutcome<G> + Send + Sync,
    check: impl Fn(&G) -> SpecResult + Sync,
) -> CheckReport {
    let call = spans::enter("compass.check_executions", cx.parent);
    let id = call.id();
    // End of the latest `check` closure: the checker replays the first
    // failure (program, then check) and writes the bundle right after,
    // so the bundle write runs from this instant to the call's return.
    let last_check_end = AtomicU64::new(0);
    let report = guard::call(|| {
        check_executions_with(
            &Exploration::Dfs { budget: BUDGET },
            &cx.opts,
            |strategy| {
                let _s = spans::enter("orc11.run_model", id);
                program(strategy)
            },
            |g| {
                let s = spans::enter("compass.check", id);
                let r = check(g);
                drop(s);
                if spans::on() {
                    last_check_end.store(spans::now_ns(), Ordering::Relaxed);
                }
                r
            },
        )
    });
    if report.bundle.is_some() {
        spans::record_interval(
            "compass.bundle.write",
            id,
            last_check_end.load(Ordering::Relaxed),
            spans::now_ns(),
        );
    }
    report
}

/// The MP client's result as a check target: the queue's graph decides
/// size and renderings, the client postcondition joins the check.
struct Mp(MpResult);

impl CheckTarget for Mp {
    fn event_count(&self) -> usize {
        self.0.graph.event_count()
    }
    fn failure_report(&self, violation: &Violation, ops: &[OpRecord]) -> String {
        self.0.graph.failure_report(violation, ops)
    }
    fn dot(&self) -> String {
        self.0.graph.dot()
    }
}

fn mp<Q: ModelQueue>(cx: &Cx, make: impl Fn(&mut ThreadCtx) -> Q + Send + Sync) -> CheckReport {
    drive(
        cx,
        |strategy| {
            let out = run_mp(&make, true, strategy);
            RunOutcome {
                result: out.result.map(Mp),
                steps: out.steps,
                trace: out.trace,
                ops: out.ops,
                stats: out.stats,
                accesses: out.accesses,
            }
        },
        |r| check_mp(&r.0, true).map_err(|m| Violation::new("MP-CLIENT", m, Vec::new())),
    )
}

/// `(enq; deq) || (enq; deq)` on the Michael-Scott queue.
fn ms_pairs(cx: &Cx) -> CheckReport {
    let [a, b, _] = cx.vals;
    let body = |v: i64| {
        Box::new(move |ctx: &mut ThreadCtx, q: &MsQueue| {
            q.enqueue(ctx, Val::Int(v));
            q.try_dequeue(ctx);
        }) as BodyFn<'_, _, ()>
    };
    drive(
        cx,
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                MsQueue::new,
                vec![body(a), body(b)],
                |_, q, _| q.obj().snapshot(),
            )
        },
        check_queue_consistent,
    )
}

/// `enq || enq || deq` on the Michael-Scott queue.
fn ms_enq_enq_deq(cx: &Cx) -> CheckReport {
    let [a, b, _] = cx.vals;
    let enq = |v: i64| {
        Box::new(move |ctx: &mut ThreadCtx, q: &MsQueue| {
            q.enqueue(ctx, Val::Int(v));
        }) as BodyFn<'_, _, ()>
    };
    drive(
        cx,
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                MsQueue::new,
                vec![
                    enq(a),
                    enq(b),
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

/// `(push; pop) || (push; pop)` on the Treiber stack.
fn treiber_pairs(cx: &Cx) -> CheckReport {
    let [a, b, _] = cx.vals;
    let body = |v: i64| {
        Box::new(move |ctx: &mut ThreadCtx, s: &TreiberStack| {
            s.push(ctx, Val::Int(v));
            s.pop(ctx);
        }) as BodyFn<'_, _, ()>
    };
    drive(
        cx,
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                TreiberStack::new,
                vec![body(a), body(b)],
                |_, s, _| s.obj().snapshot(),
            )
        },
        check_stack_consistent,
    )
}

/// The TML space of Dalvandi & Dongol: one writer attempt incrementing
/// both keys, one read-only snapshot of both.
fn model_tml(cx: &Cx) -> CheckReport {
    drive(
        cx,
        |strategy| {
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
                        let b = tm
                            .read(ctx, &mut txn, 1)
                            .expect("locked reads cannot abort")
                            .expect_int();
                        tm.write(ctx, &mut txn, 1, Val::Int(b + 1))
                            .expect("locked writes cannot abort");
                        tm.commit(ctx, txn);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, tm: &ModelTml| {
                        let mut txn = tm.begin(ctx, 10);
                        if tm.read(ctx, &mut txn, 0).is_err() {
                            return;
                        }
                        if tm.read(ctx, &mut txn, 1).is_err() {
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

/// The seeded-bug control: TML whose reads skip version validation, so a
/// doomed reader returns torn state (`STM-RO`). One writer attempt
/// incrementing every key races one read-only transaction that reads
/// every key and then the first `rereads` keys again. Two keys read
/// once give the 1203-schedule space of `e14_arc_stm`; three keys with
/// one re-read size the timed conviction above a quarter second on
/// both model workloads (four keys would be 94 420 schedules, six times
/// the rest of the `dfs-serial` pass).
fn unvalidated_tml(cx: &Cx, keys: usize, rereads: usize) -> CheckReport {
    drive(
        cx,
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| UnvalidatedTml::new(ctx, keys),
                vec![
                    Box::new(move |ctx: &mut ThreadCtx, tm: &UnvalidatedTml| {
                        let mut txn = tm.begin(ctx, 1);
                        let a = tm.read(ctx, &mut txn, 0).expect_int();
                        if tm.write(ctx, &mut txn, 0, Val::Int(a + 1)).is_ok() {
                            for k in 1..keys {
                                let b = tm.read(ctx, &mut txn, k).expect_int();
                                tm.write(ctx, &mut txn, k, Val::Int(b + 1))
                                    .expect("locked writes cannot abort");
                            }
                            tm.commit(ctx, txn);
                        }
                    }) as BodyFn<'_, _, ()>,
                    Box::new(move |ctx: &mut ThreadCtx, tm: &UnvalidatedTml| {
                        let mut txn = tm.begin(ctx, 10);
                        for k in (0..keys).chain(0..rereads) {
                            tm.read(ctx, &mut txn, k);
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

/// One checked client with its known answers.
struct Subject {
    name: &'static str,
    /// Known answer under plain DFS, where the subject is small enough
    /// to enumerate (it also gives DPOR's reduction its numerator).
    dfs: Option<ModelAnswer>,
    /// Known answer under DPOR.
    dpor: ModelAnswer,
    /// The seeded-bug control timed as `convict_s`.
    control: bool,
    run: fn(&Cx) -> CheckReport,
}

const STM_RO: &str = "STM-RO";

/// Every subject, with execution counts as exact known answers.
const SUBJECTS: &[Subject] = &[
    Subject {
        name: "MsQueue-MP",
        dfs: Some(ModelAnswer::clean(4949)),
        dpor: ModelAnswer::clean(90),
        control: false,
        run: |cx| mp(cx, MsQueue::new),
    },
    Subject {
        name: "HwQueue-MP",
        dfs: Some(ModelAnswer::clean(458)),
        dpor: ModelAnswer::clean(159),
        control: false,
        run: |cx| mp(cx, |ctx| HwQueue::new(ctx, 4)),
    },
    Subject {
        name: "MsQueue-pairs",
        dfs: None,
        dpor: ModelAnswer::clean(24_901),
        control: false,
        run: ms_pairs,
    },
    Subject {
        name: "Treiber-pairs",
        dfs: None,
        dpor: ModelAnswer::clean(10_648),
        control: false,
        run: treiber_pairs,
    },
    Subject {
        name: "MsQueue-enq-enq-deq",
        dfs: None,
        dpor: ModelAnswer::clean(8155),
        control: false,
        run: ms_enq_enq_deq,
    },
    Subject {
        name: "ModelTml",
        dfs: Some(ModelAnswer::clean(9916)),
        dpor: ModelAnswer::clean(3016),
        control: false,
        run: model_tml,
    },
    Subject {
        name: "UnvalidatedTml-2key",
        dfs: Some(ModelAnswer::convict(1203, STM_RO, 437)),
        dpor: ModelAnswer::convict(1092, STM_RO, 422),
        control: false,
        run: |cx| unvalidated_tml(cx, 2, 0),
    },
    Subject {
        name: "UnvalidatedTml-3key-reread",
        dfs: Some(ModelAnswer::convict(27_410, STM_RO, 15_425)),
        dpor: ModelAnswer::convict(23_226, STM_RO, 13_265),
        control: true,
        run: |cx| unvalidated_tml(cx, 3, 1),
    },
];

/// `dfs-serial` or `dpor-parallel`: the same checker, two regimes.
pub struct ModelWorkload {
    dpor: bool,
    threads: usize,
    /// Indices into [`SUBJECTS`], in this seed's order.
    order: Vec<usize>,
    vals: [i64; 3],
    bundles: PathBuf,
}

impl ModelWorkload {
    /// The inputs are fixed programs; the seed picks the element values
    /// the queue/stack clients move and the order the subjects run in.
    pub fn new(seed: u64, dpor: bool, bundles: PathBuf) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = rng.gen_i64(1, 1_000_000) * 4;
        let mut order: Vec<usize> = (0..SUBJECTS.len())
            .filter(|&i| dpor || SUBJECTS[i].dfs.is_some())
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_index(i + 1));
        }
        let threads = if dpor {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(params::MAX_DPOR_THREADS)
        } else {
            1
        };
        ModelWorkload {
            dpor,
            threads,
            order,
            vals: [base + 1, base + 2, base + 3],
            bundles,
        }
    }

    fn answer(&self, s: &Subject) -> ModelAnswer {
        if self.dpor {
            s.dpor
        } else {
            s.dfs.expect("plain-DFS subjects have a plain-DFS answer")
        }
    }
}

impl Workload for ModelWorkload {
    fn pass(&mut self, parent: SpanId) -> Pass {
        // One pass's bundles at a time: the directory must not grow with
        // the pass count.
        let _ = std::fs::remove_dir_all(&self.bundles);
        let mut pass = Pass::default();
        let mut events = 0.0;
        let mut plain_execs = 0u64;
        let mut reduced_execs = 0u64;
        for &i in &self.order {
            let subject = &SUBJECTS[i];
            let answer = self.answer(subject);
            let convicts = matches!(answer.expect, Expect::Convict(_));
            let cx = Cx {
                opts: CheckOptions {
                    bundle_dir: convicts.then(|| self.bundles.clone()),
                    threads: self.threads,
                    dpor: Some(self.dpor),
                    ..CheckOptions::default()
                },
                parent,
                vals: self.vals,
            };
            let t0 = Instant::now();
            let r = (subject.run)(&cx);
            let secs = t0.elapsed().as_secs_f64();
            pass.subject_s.push((subject.name.to_string(), secs));
            if subject.control {
                pass.convict_s = secs;
            }
            pass.judge(subject.name, judge_model(&answer, &r));

            let exact = &mut pass.exact;
            *exact.entry("orc11.execs").or_default() += r.execs;
            *exact.entry("orc11.steps").or_default() += r.stats.steps;
            let d = r.dpor.unwrap_or_default();
            *exact.entry("orc11.dpor.backtrack_points").or_default() += d.backtrack_points;
            *exact.entry("orc11.dpor.sleep_hits").or_default() += d.sleep_hits;
            *exact.entry("orc11.dpor.pruned_subtrees").or_default() += d.pruned_subtrees;
            if let (true, Some(plain)) = (self.dpor, subject.dfs) {
                plain_execs += plain.execs;
                reduced_execs += r.execs;
            }
            events += r.graph_sizes.mean() * r.graph_sizes.count() as f64;

            let layers = &mut pass.layers;
            let mut add = |name: &'static str, by: f64| *layers.entry(name).or_default() += by;
            add(
                "orc11.checkpoint.restored",
                r.reuse.checkpoints_restored as f64,
            );
            add(
                "orc11.checkpoint.steps_saved",
                r.reuse.prefix_steps_saved as f64,
            );
            // `phase_ns` is averaged per worker; busy time is its total.
            add(
                "orc11.dpor.busy_s",
                r.phase_ns.dpor as f64 * self.threads as f64 / 1e9,
            );
            for w in &r.workers {
                add("orc11.work.stolen", w.stolen as f64);
                add("orc11.work.idle_wait_s", w.idle_wait_ns as f64 / 1e9);
            }
        }
        let execs = pass.exact["orc11.execs"] as f64;
        pass.layers
            .insert("compass.graph.events_per_exec", events / execs.max(1.0));
        if reduced_execs > 0 {
            pass.layers.insert(
                "orc11.dpor.reduction_x",
                plain_execs as f64 / reduced_execs as f64,
            );
        }
        pass
    }

    fn fold(&self, spans: &[Span], layers: &mut Layers) {
        let busy = spans::busy_by_name(spans);
        let secs = |name: &str| busy.get(name).map_or(0.0, |b| b.1);
        let execs = layers["orc11.execs"];
        let steps = layers["orc11.steps"];
        let calls = secs("compass.check_executions");
        let run_model = secs("orc11.run_model");
        let check = secs("compass.check");
        layers.insert("orc11.execs_per_s", execs / calls.max(1e-9));
        layers.insert("orc11.run_model.busy_s", run_model);
        layers.insert(
            "orc11.run_model.ns_per_step",
            run_model * 1e9 / steps.max(1.0),
        );
        // Worker time inside the subject calls that is neither model
        // execution nor clause checking: frontier, DPOR analysis, report
        // recording, worker spawn/join.
        layers.insert(
            "orc11.engine.self_s",
            (self.threads as f64 * calls - run_model - check).max(0.0),
        );
        layers.insert("compass.check.busy_s", check);
        layers.insert("compass.check.ns_per_exec", check * 1e9 / execs.max(1.0));
        layers.insert("compass.bundle.write_s", secs("compass.bundle.write"));
    }

    fn probes(&mut self, scale: f64, layers: &mut Layers) {
        probes::orc11(scale, layers);
    }
}
