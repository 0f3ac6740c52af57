//! # Runtime conformance: checking *native* executions against the specs
//!
//! The model checker (`compass::checker`) explores the paper's
//! structures on the orc11 *model* semantics. This module closes the
//! loop on the other side: it takes timestamped invocation/response
//! histories recorded from the **real** implementations
//! (`compass-native` with `feature = "recorder"`) running on real
//! threads, reconstructs a Compass event graph, and checks the same
//! style of consistency clauses the model checker uses — reporting
//! through the same [`CheckReport`] shape and serializing failures to
//! replay bundles (`compass::bundle`, schema v3) that re-check offline.
//!
//! ## Soundness
//!
//! The model checker knows the true happens-before of each execution;
//! at runtime we only observe wall-clock intervals on one shared
//! monotonic clock. The harness uses the **real-time interval order**:
//! `a → b` iff `a` *responded strictly before* `b` was *invoked*
//! ([`History::to_graph`]). Timestamps alone do not make that edge a
//! happens-before edge: an operation's last release store can still sit
//! in its core's store buffer when the response time is read, so an
//! operation invoked tens of nanoseconds *later* may legally miss it (a
//! thief reading the old `bottom` right after a recorded `Push`). The
//! recorder therefore puts a `SeqCst` fence between the invocation
//! timestamp and the operation and between the operation and the
//! response timestamp (`compass_native::recorder::Clock::{inv, resp}`):
//! every store of `a` is globally visible before `resp(a)` is read, and
//! no access of `b` is performed before `inv(b)` is read, so
//! `resp(a) < inv(b)` implies `b` observes all of `a` — a true
//! happens-before edge. The reconstructed order thus
//! **under-approximates** `lhb`. Fewer order constraints can only make
//! *more* candidate linearizations admissible, therefore:
//!
//! * a violation this harness reports is a **true violation** — no
//!   consistent explanation of the observed values and order exists;
//! * absence of violations is **not a proof** — a weak behavior may hide
//!   inside overlapping intervals (and scheduling only samples the
//!   behavior space). That is the model checker's job; the harness's job
//!   is catching real-world divergence from the verified model, with a
//!   deterministic artefact when it does.
//!
//! Timestamp ties (`resp(a) == inv(b)`) are treated as concurrent —
//! again the sound direction.
//!
//! ## Shape
//!
//! * [`ConformSubject`] — a structure under test: names itself and runs
//!   one recorded round for a [`RoundSpec`].
//! * [`run_conformance`] — runs seeded rounds, reconstructs and checks
//!   each, aggregates a [`CheckReport`], writes a
//!   [`crate::bundle::write_conform_bundle`] for the first violation.
//! * [`ConformEvent`] — ties a library's event vocabulary
//!   ([`crate::queue_spec::QueueEvent`] & friends — the harness reuses
//!   the model's event types, it defines none of its own) to its
//!   conformance check and `history.txt` codec.
//! * [`recheck`] — loads a bundle's `history.txt` and re-runs the check
//!   offline; deterministic, so it reproduces the violated clause.
//!
//! The batch harness here checks short recorded rounds after the fact
//! (`e11_conform`); [`crate::soak`] layers *continuous* checking on the
//! same clauses and bundle format — epoch-sealed histories from a
//! long-running saturated workload, checked concurrently with the
//! mutators (`e13_soak`; DESIGN.md §11). Soak violation bundles replay
//! through the same [`recheck`] entry point.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::bundle::write_conform_bundle;
use crate::checker::{CheckReport, ExecOrigin, PASS_RULE};
use crate::event::EventId;
use crate::graph::Graph;
use crate::history::take_search_stats;
use crate::spec::SpecResult;

mod check;
mod record;

pub use check::{
    check_conform_arc, check_conform_deque, check_conform_exchanger, check_conform_queue,
    check_conform_stack, check_conform_stm, ConformEvent,
};
pub use record::{History, TimedOp};

/// Cap on [`CheckReport::samples`] kept by [`run_conformance`].
const SAMPLE_CAP: usize = 8;

/// How to drive a conformance run.
#[derive(Clone, Debug)]
pub struct ConformOptions {
    /// Number of recorded rounds (each with a fresh structure instance).
    pub rounds: u64,
    /// Worker threads per round.
    pub threads: usize,
    /// Operations each thread attempts per round.
    pub ops_per_thread: usize,
    /// Seed of the first round; round `i` uses `seed0 + i`.
    pub seed0: u64,
    /// Stop at the first violating round (positive controls want the
    /// witness, not the tally).
    pub stop_on_violation: bool,
    /// Where to write the first violation's replay bundle, if anywhere.
    pub bundle_dir: Option<PathBuf>,
}

impl Default for ConformOptions {
    fn default() -> Self {
        ConformOptions {
            rounds: 64,
            threads: 4,
            ops_per_thread: 256,
            seed0: 1,
            stop_on_violation: false,
            bundle_dir: None,
        }
    }
}

/// One round's parameters, handed to the subject's driver.
#[derive(Clone, Copy, Debug)]
pub struct RoundSpec {
    /// Seed for the round's yield/backoff jitter (and any driver
    /// randomness).
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Operations each thread attempts.
    pub ops_per_thread: usize,
}

/// A native structure wired up for conformance checking: runs one
/// recorded round on real threads and returns the history.
pub trait ConformSubject {
    /// The event vocabulary (decides which consistency check applies).
    type Ev: ConformEvent;

    /// Display name (used in reports and bundle directory names).
    fn name(&self) -> &str;

    /// Runs one round — fresh structure instance, `spec.threads` real
    /// threads, recorded timestamps — and returns the history.
    fn round(&self, spec: &RoundSpec) -> History<Self::Ev>;
}

/// Stress-runs `subject` and checks every recorded round, aggregating a
/// [`CheckReport`] (execs = rounds; `graph_sizes`, `search`, `check_ns*`
/// filled; exploration-only fields left at their defaults). The round
/// seed is reported as [`ExecOrigin::Random`] in samples and the bundle.
pub fn run_conformance<S: ConformSubject>(subject: &S, opts: &ConformOptions) -> CheckReport {
    let mut report = CheckReport::default();
    let phase_mark = orc11::trace::thread_phases();
    for i in 0..opts.rounds {
        let spec = RoundSpec {
            seed: opts.seed0 + i,
            threads: opts.threads,
            ops_per_thread: opts.ops_per_thread,
        };
        let (hist, g) = {
            let _span = orc11::trace::span(orc11::trace::Phase::Conform, "conform-round");
            let hist = subject.round(&spec);
            let g = hist.to_graph();
            (hist, g)
        };
        report.execs += 1;
        report.graph_sizes.record(g.len() as u64);
        let t0 = Instant::now();
        let result = {
            let _span = orc11::trace::span(orc11::trace::Phase::Check, "conform-check");
            S::Ev::check(&g)
        };
        let ns = t0.elapsed().as_nanos() as u64;
        report.search.merge(&take_search_stats());
        report.check_ns += ns;
        match result {
            Ok(()) => {
                report.consistent += 1;
                *report.check_ns_by_rule.entry(PASS_RULE).or_insert(0) += ns;
            }
            Err(v) => {
                *report.check_ns_by_rule.entry(v.rule).or_insert(0) += ns;
                *report.violations.entry(v.rule).or_insert(0) += 1;
                let origin = ExecOrigin::Random { seed: spec.seed };
                if report.bundle.is_none() {
                    if let Some(root) = &opts.bundle_dir {
                        report.bundle =
                            write_conform_bundle(root, subject.name(), &hist, &g, &v, &spec).ok();
                    }
                }
                if report.samples.len() < SAMPLE_CAP {
                    report.samples.push((origin, v));
                }
                if opts.stop_on_violation {
                    break;
                }
            }
        }
    }
    report
        .phase_ns
        .merge(&orc11::trace::thread_phases().delta_since(&phase_mark));
    report
}

/// A witness order for a conforming graph (see
/// [`ConformEvent::linearize`] for what "order" means per library).
pub fn linearize<E: ConformEvent>(g: &Graph<E>) -> Option<Vec<EventId>> {
    E::linearize(g)
}

/// Re-checks a conformance bundle offline: loads `<dir>/history.txt`,
/// reconstructs the graph, and re-runs the consistency check. The
/// reconstruction and check are deterministic, so a violation bundle
/// re-checks to the same violated clause.
///
/// # Errors
///
/// Propagates filesystem errors and history-parse failures.
pub fn recheck<E: ConformEvent>(dir: &Path) -> io::Result<(Graph<E>, SpecResult)> {
    let text = std::fs::read_to_string(dir.join("history.txt"))?;
    let hist: History<E> = History::parse(&text)?;
    let g = hist.to_graph();
    let result = E::check(&g);
    Ok((g, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue_spec::QueueEvent::{self, Deq, EmpDeq, Enq};
    use orc11::Val;

    /// A scripted "subject" replaying canned histories — exercises the
    /// runner itself without real threads.
    struct Scripted {
        rounds: Vec<History<QueueEvent>>,
    }

    impl ConformSubject for Scripted {
        type Ev = QueueEvent;

        fn name(&self) -> &str {
            "scripted"
        }

        fn round(&self, spec: &RoundSpec) -> History<QueueEvent> {
            self.rounds[(spec.seed % self.rounds.len() as u64) as usize].clone()
        }
    }

    fn int(i: i64) -> Val {
        Val::Int(i)
    }

    fn good() -> History<QueueEvent> {
        History::from_tuples(vec![
            vec![(Enq(int(1)), 0, 1), (Enq(int(2)), 2, 3)],
            vec![
                (Deq(int(1)), 10, 11),
                (Deq(int(2)), 12, 13),
                (EmpDeq, 14, 15),
            ],
        ])
    }

    fn dup() -> History<QueueEvent> {
        History::from_tuples(vec![
            vec![(Enq(int(7)), 0, 1)],
            vec![(Deq(int(7)), 2, 3)],
            vec![(Deq(int(7)), 2, 3)],
        ])
    }

    #[test]
    fn clean_run_aggregates_passes() {
        let subject = Scripted {
            rounds: vec![good()],
        };
        let report = run_conformance(
            &subject,
            &ConformOptions {
                rounds: 5,
                ..ConformOptions::default()
            },
        );
        report.assert_clean();
        assert_eq!(report.execs, 5);
        assert_eq!(report.graph_sizes.count(), 5);
        assert!(report.search.searches > 0, "order stages ran");
        assert!(report.check_ns_by_rule.contains_key(PASS_RULE));
    }

    #[test]
    fn violating_run_samples_and_bundles() {
        // Seeds 0..4 alternate good (even) / duplicated (odd).
        let subject = Scripted {
            rounds: vec![good(), dup()],
        };
        let root =
            std::env::temp_dir().join(format!("compass-conform-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let report = run_conformance(
            &subject,
            &ConformOptions {
                rounds: 4,
                seed0: 0,
                bundle_dir: Some(root.clone()),
                ..ConformOptions::default()
            },
        );
        assert_eq!(report.execs, 4);
        assert_eq!(report.consistent, 2);
        assert_eq!(report.violations.get("CONFORM-QUEUE-DUP"), Some(&2));
        assert_eq!(report.samples.len(), 2);
        assert!(matches!(
            report.samples[0].0,
            ExecOrigin::Random { seed: 1 }
        ));

        // The bundle re-checks offline to the same clause.
        let dir = report.bundle.as_ref().expect("bundle written");
        let (g, result) = recheck::<QueueEvent>(dir).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(result.unwrap_err().rule, "CONFORM-QUEUE-DUP");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stop_on_violation_short_circuits() {
        let subject = Scripted {
            rounds: vec![dup()],
        };
        let report = run_conformance(
            &subject,
            &ConformOptions {
                rounds: 100,
                stop_on_violation: true,
                ..ConformOptions::default()
            },
        );
        assert_eq!(report.execs, 1);
        assert_eq!(report.consistent, 0);
    }
}
