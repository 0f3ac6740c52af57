//! The two native-rail workloads: generated histories streamed through
//! the soak engine's online conformance check.
//!
//! A pass drives three engine sessions to their verdicts — a clean queue
//! stream, a clean stack stream, and the control stream carrying one
//! duplicate take — each through the public engine path
//! `SoakEngine::{start, submit, mutators_done, finish}` with one checker.
//! The traced run additionally feeds the same epochs to the public
//! pieces beneath the engine (`History::to_graph`, `ConformEvent::check`,
//! `bundle::write_conform_bundle`, `conform::recheck`), because the
//! engine runs its checks on its own thread where the benchmark can hang
//! no span and read no search counter.

use std::path::{Path, PathBuf};
use std::time::Instant;

use compass::bundle::write_conform_bundle;
use compass::conform::{History, RoundSpec};
use compass::history::{take_search_stats, SearchStats};
use compass::queue_spec::QueueEvent;
use compass::soak::{SoakEngine, SoakOp, SoakOptions};
use compass::stack_spec::StackEvent;
use orc11::rng::SmallRng;

use crate::answers::{judge_recheck, judge_session, Expect, SessionAnswer};
use crate::gen::{generate, Stream, Vocab};
use crate::params::{Regime, MAX_EPOCH_SHARE};
use crate::spans::{self, Span, SpanId};
use crate::workload::{Layers, Pass, Workload};
use crate::{guard, probes, stats};

/// What the direct calls of one traced pass add up to.
#[derive(Default)]
struct Direct {
    events: u64,
    /// Milliseconds of each epoch's `check` call.
    epoch_ms: Vec<f64>,
    search: SearchStats,
}

/// One engine session over a generated stream, with its known answer.
struct Session<E: Vocab> {
    name: String,
    seed: u64,
    threads: usize,
    stream: Stream<E>,
    slices: Vec<Vec<SoakOp<E>>>,
    answer: SessionAnswer,
}

/// Object-safe face of [`Session`], so one workload can hold queue and
/// stack sessions side by side.
trait Run {
    fn name(&self) -> &str;
    fn control(&self) -> bool;
    /// Events the stream submits to the engine.
    fn events_in(&self) -> u64;
    /// Drives the stream through a fresh engine and judges the report.
    /// Returns the session's wall seconds.
    fn run(&self, bundles: &Path, parent: SpanId, pass: &mut Pass) -> f64;
    /// The same epochs through the public pieces beneath the engine.
    fn direct(&self, bundles: &Path, parent: SpanId, acc: &mut Direct) -> Result<(), String>;
}

impl<E: Vocab> Session<E> {
    /// `shape` is xored into the regime's shape seed, so the sessions
    /// of one workload get different streams.
    fn new(seed: u64, regime: &Regime, shape: u64, control: bool) -> Self {
        let mut gen = regime.gen;
        if control {
            gen.epochs = regime.control_epochs;
        }
        let stream = generate::<E>(regime.shape_seed ^ shape, seed, &gen, control);
        let slices = stream.slices();
        let answer = SessionAnswer {
            epochs: stream.epochs.len() as u64,
            events: slices.iter().map(|s| s.len() as u64).sum(),
            expect: if control {
                Expect::Convict(E::DUP_RULE)
            } else {
                Expect::Clean
            },
        };
        Session {
            name: format!("{}{}", E::NAME, if control { "-dup" } else { "" }),
            seed,
            threads: gen.threads + usize::from(control),
            stream,
            slices,
            answer,
        }
    }
}

impl<E: Vocab> Run for Session<E> {
    fn name(&self) -> &str {
        &self.name
    }

    fn control(&self) -> bool {
        matches!(self.answer.expect, Expect::Convict(_))
    }

    fn events_in(&self) -> u64 {
        self.stream.epochs.iter().map(Vec::len).sum::<usize>() as u64
    }

    fn run(&self, bundles: &Path, parent: SpanId, pass: &mut Pass) -> f64 {
        let id = parent;
        let opts = SoakOptions {
            checkers: 1,
            // Room for every epoch plus the flush: nothing may be shed.
            queue_cap: self.stream.epochs.len() + 1,
            sample_per_mille: 1000,
            seed: self.seed,
            threads: self.threads,
            bundle_dir: Some(bundles.to_path_buf()),
            ..SoakOptions::default()
        };
        let t0 = Instant::now();
        let report = guard::call(|| {
            let mut engine = {
                let _s = spans::enter("compass.soak.start", id);
                SoakEngine::<E>::start(&self.name, opts)
            };
            for (epoch, batch) in self.stream.batches() {
                let _s = spans::enter("compass.soak.submit", id);
                engine.submit(epoch, batch);
            }
            {
                let _s = spans::enter("compass.soak.mutators_done", id);
                engine.mutators_done();
            }
            let _s = spans::enter("compass.soak.finish", id);
            engine.finish()
        });
        let secs = t0.elapsed().as_secs_f64();
        pass.judge(&self.name, judge_session::<E>(&self.answer, &report));
        *pass
            .layers
            .entry("compass.soak.epochs_checked")
            .or_default() += report.epochs_checked as f64;
        *pass.layers.entry("compass.soak.epochs_shed").or_default() += report.epochs_shed as f64;
        *pass.exact.entry("compass.soak.events_checked").or_default() += report.events_checked;
        secs
    }

    fn direct(&self, bundles: &Path, parent: SpanId, acc: &mut Direct) -> Result<(), String> {
        let mut convicted = None;
        for slice in &self.slices {
            let rows_needed = slice.iter().map(|o| o.thread + 1).max().unwrap_or(0);
            let mut rows = vec![Vec::new(); rows_needed];
            for op in slice {
                rows[op.thread].push((op.op, op.inv, op.resp));
            }
            acc.events += slice.len() as u64;
            let (hist, g) = guard::call(|| {
                let _s = spans::enter("compass.conform.to_graph", parent);
                let hist = History::from_tuples(rows);
                let g = hist.to_graph();
                (hist, g)
            });
            let t0 = Instant::now();
            let result = guard::call(|| {
                let _s = spans::enter("compass.conform.check", parent);
                E::check(&g)
            });
            acc.epoch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            acc.search.merge(&take_search_stats());
            if let Err(v) = result {
                if convicted.is_some() {
                    return Err(format!("{}: a second epoch violates {}", self.name, v.rule));
                }
                let spec = RoundSpec {
                    seed: self.seed,
                    threads: self.threads,
                    ops_per_thread: slice.len().div_ceil(rows_needed.max(1)),
                };
                let dir = guard::call(|| {
                    let _s = spans::enter("compass.bundle.write", parent);
                    write_conform_bundle(bundles, &self.name, &hist, &g, &v, &spec)
                })
                .map_err(|e| format!("{}: cannot write bundle: {e}", self.name))?;
                let rechecked = guard::call(|| {
                    let _s = spans::enter("compass.conform.recheck", parent);
                    judge_recheck::<E>(&dir, v.rule)
                });
                convicted = Some((v.rule, rechecked));
            }
        }
        match (self.answer.expect, convicted) {
            (Expect::Clean, None) => Ok(()),
            (Expect::Convict(rule), Some((got, rechecked))) if got == rule => {
                rechecked.map_err(|e| format!("{}: {e}", self.name))
            }
            (expect, got) => Err(format!(
                "{}: direct check expected {expect:?}, got {:?}",
                self.name,
                got.map(|g| g.0)
            )),
        }
    }
}

pub struct ConformWorkload {
    sessions: Vec<Box<dyn Run>>,
    bundles: PathBuf,
    /// `conform-sparse` hosts the live native probes.
    native_probes: bool,
    direct: Direct,
    /// Events submitted per pass (denominator of the assembly cost).
    events_in: u64,
}

impl ConformWorkload {
    /// Generates the three streams of `regime`; `seed` labels them and
    /// picks the order the sessions run in. The control alternates its
    /// vocabulary with the regime so both `*-DUP` clauses are exercised
    /// across the two workloads.
    pub fn new(seed: u64, regime: &Regime, sparse: bool, bundles: PathBuf) -> Self {
        let queue = Session::<QueueEvent>::new(seed, regime, 0x51, false);
        let stack = Session::<StackEvent>::new(seed, regime, 0x57, false);
        let control: Box<dyn Run> = if sparse {
            Box::new(Session::<StackEvent>::new(seed, regime, 0xC7, true))
        } else {
            Box::new(Session::<QueueEvent>::new(seed, regime, 0xC1, true))
        };
        let mut sessions: Vec<Box<dyn Run>> = vec![Box::new(queue), Box::new(stack), control];
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..sessions.len()).rev() {
            sessions.swap(i, rng.gen_index(i + 1));
        }
        ConformWorkload {
            events_in: sessions.iter().map(|s| s.events_in()).sum(),
            sessions,
            bundles,
            native_probes: sparse,
            direct: Direct::default(),
        }
    }
}

impl Workload for ConformWorkload {
    fn pass(&mut self, parent: SpanId) -> Pass {
        // One conviction's bundle at a time: the directory must not grow
        // with the pass count.
        let _ = std::fs::remove_dir_all(&self.bundles);
        let mut pass = Pass::default();
        for s in &self.sessions {
            let secs = s.run(&self.bundles, parent, &mut pass);
            pass.subject_s.push((s.name().to_string(), secs));
            if s.control() {
                pass.convict_s = secs;
            }
        }
        pass
    }

    fn direct(&mut self, parent: SpanId, pass: &mut Pass) {
        self.direct = Direct::default();
        for s in &self.sessions {
            let verdict = s.direct(&self.bundles, parent, &mut self.direct);
            pass.judge(s.name(), verdict);
        }
        pass.exact
            .insert("compass.history.search_nodes", self.direct.search.nodes);
        // Guard rail on the exponential tail: no single epoch may be a
        // quarter of the check time.
        let total: f64 = self.direct.epoch_ms.iter().sum();
        let worst = stats::quantile(&self.direct.epoch_ms, 1.0);
        let share = worst / total.max(f64::MIN_POSITIVE);
        pass.judge(
            "guard-rail",
            if share <= MAX_EPOCH_SHARE {
                Ok(())
            } else {
                Err(format!(
                    "one epoch check took {worst:.1} ms, {:.0} % of the pass's {total:.1} ms",
                    100.0 * share
                ))
            },
        );
    }

    fn fold(&self, spans: &[Span], layers: &mut Layers) {
        let busy = spans::busy_by_name(spans);
        let secs = |name: &str| busy.get(name).map_or(0.0, |b| b.1);
        let d = &self.direct;
        let submit = secs("compass.soak.submit");
        layers.insert("compass.soak.submit.busy_s", submit);
        // `submit` is slice assembly plus one queue push.
        layers.insert(
            "compass.soak.assemble.ns_per_event",
            submit * 1e9 / self.events_in.max(1) as f64,
        );
        layers.insert("compass.soak.drain_s", secs("compass.soak.finish"));
        let to_graph = secs("compass.conform.to_graph");
        let check = secs("compass.conform.check");
        let per_event = 1e9 / d.events.max(1) as f64;
        layers.insert("compass.conform.to_graph.busy_s", to_graph);
        layers.insert(
            "compass.conform.to_graph.ns_per_event",
            to_graph * per_event,
        );
        layers.insert("compass.conform.check.busy_s", check);
        layers.insert("compass.conform.check.ns_per_event", check * per_event);
        layers.insert(
            "compass.conform.check.epoch_p50_ms",
            stats::quantile(&d.epoch_ms, 0.50),
        );
        layers.insert(
            "compass.conform.check.epoch_p99_ms",
            stats::quantile(&d.epoch_ms, 0.99),
        );
        layers.insert(
            "compass.conform.check.epoch_max_ms",
            stats::quantile(&d.epoch_ms, 1.0),
        );
        layers.insert("compass.history.memo_prunes", d.search.memo_prunes as f64);
        layers.insert(
            "compass.history.nodes_per_s",
            d.search.nodes as f64 / check.max(1e-9),
        );
        layers.insert("compass.bundle.write_s", secs("compass.bundle.write"));
        layers.insert("compass.conform.recheck_s", secs("compass.conform.recheck"));
    }

    fn probes(&mut self, scale: f64, layers: &mut Layers) {
        if self.native_probes {
            probes::native(scale, layers);
        }
    }
}
