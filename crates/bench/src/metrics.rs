//! Machine-readable experiment metrics.
//!
//! Every `e*` experiment binary emits, next to its human-readable tables,
//! one JSON file `experiment-results/<id>.json` (override the directory
//! with `COMPASS_RESULTS_DIR`). The schema is stable and snapshot-tested
//! (`tests/metrics_schema.rs`):
//!
//! ```json
//! {
//!   "schema_version": 10,
//!   "experiment": "<id>",
//!   "threads": 4,         // exploration worker threads for this run
//!   "dpor": false,        // whether COMPASS_DPOR pruned DFS runs
//!   "conform": false,     // runtime-conformance run (real threads)?
//!   "wall_ns": 12345678,  // wall-clock from Metrics::new() to to_json()
//!   "phase_ns": { ... },  // per-phase busy time (orc11::trace)
//!   "workers": [ ... ],   // per-worker load-balance counters
//!   "reuse": { ... },     // arena reuse (orc11::ReuseStats)
//!   "perf": null,         // performance measurements (e12_perf only)
//!   "soak": null,         // soak run reports (e13_soak only)
//!   "arc": null,          // refcount-spec results (e14_arc_stm only)
//!   "stm": null,          // TM-opacity results (e14_arc_stm only)
//!   "params": { ... },    // run parameters (seed counts, budgets, ...)
//!   "data": { ... }       // the experiment's measurements
//! }
//! ```
//!
//! Schema v2 adds `threads` (the resolved exploration worker count — see
//! [`orc11::default_threads`] — so `BENCH_*` trajectories can attribute
//! throughput to parallelism) and `wall_ns` (wall-clock nanoseconds from
//! [`Metrics::new`] to serialization, the denominator of any speedup
//! claim). Schema v3 adds `dpor` (whether the `COMPASS_DPOR` environment
//! variable switched the run's environment-sensitive DFS explorations to
//! DPOR pruning — see `orc11::dpor`), resolved at [`Metrics::new`] like
//! `threads`. Schema v4 adds `conform` ([`Metrics::mark_conform`]):
//! `true` for runtime-conformance experiments (`e11_conform`), whose
//! numbers come from real threads on real hardware — `threads` and
//! `dpor` describe the model-exploration environment and do not apply to
//! them, and consumers must not average conformance counts with
//! model-exploration counts. Schema v5 adds `phase_ns` (the per-phase
//! busy-time breakdown from `orc11::trace` — explore/dpor/check/
//! linearize/conform/io, averaged per worker so the six values sum to at
//! most `wall_ns`; all zero when the experiment recorded no reports) and
//! `workers` (per-worker executed/stolen/idle-wait counters, sorted by
//! worker index; empty for serial or conformance runs). Both accumulate
//! over every report fed via [`Metrics::add_phases`] /
//! [`Metrics::add_workers`]. Schema v6 adds `perf`
//! ([`Metrics::set_perf`]): latency histograms, throughput-vs-threads
//! curves, and explorer execs/sec from the performance experiments —
//! `null` for every experiment except `e12_perf`, whose `perf` shape is
//! pinned by `tests/perf_schema.rs` and documented in
//! [`crate::perf`]. Schema v7 adds `reuse` ([`Metrics::add_reuse`]):
//! execution-arena reuse counters (see `orc11::ReuseStats`),
//! accumulated over every report the experiment feeds in. Only
//! `arena_execs` is live; `checkpoints_taken` / `checkpoints_restored`
//! / `prefix_steps_saved` counted setup-prefix checkpointing, which
//! was removed, and stay in the object as constant zeros until the
//! schema drops them.
//! Schema v8 adds `soak` ([`Metrics::set_soak`]): per-structure
//! [`compass::soak::SoakReport`] objects (epochs sealed/checked/shed,
//! sampling-governor trajectory, overhead estimate, violation clauses)
//! from the online-conformance soak runs — `null` for every experiment
//! except `e13_soak`, whose runs also set `conform` since their numbers
//! come from real threads.
//! Schema v9 adds `arc` and `stm` ([`Metrics::set_arc`] /
//! [`Metrics::set_stm`]): model-checking and conformance outcomes for
//! the Arc-style refcount library (`compass::arc_spec`) and the TML
//! software transactional memory (`compass::stm_spec`) — `null` for
//! every experiment except `e14_arc_stm`.
//! Schema v10 carries the state-space estimator through the reports it
//! touches: exploration/check report objects embedded in `data` gain an
//! `estimate` key (`{paths, est_total_execs, percent_complete}` for
//! exhausted DFS runs, `null` otherwise — see `orc11::Estimate`), and
//! the live-telemetry stream those same counters feed is documented in
//! `orc11::telemetry` (JSONL, its own `schema` field, validated by
//! `trace_check --telemetry`).
//! `params` and `data` are
//! experiment-specific but always objects; every count is a JSON
//! integer, every ratio a JSON float (the in-tree emitter guarantees
//! floats stay float-shaped — see [`orc11::Json`]).
//! `scripts/run_experiments.sh` collects the per-experiment files into
//! `experiment-results/summary.json`.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use orc11::{Json, PhaseNs, ReuseStats, WorkerStats};

/// The metrics schema version emitted by this crate.
pub const SCHEMA_VERSION: u64 = 10;

/// Builder for one experiment's metrics file.
#[derive(Clone, Debug)]
pub struct Metrics {
    id: String,
    threads: u64,
    dpor: bool,
    conform: bool,
    start: Instant,
    phase_ns: PhaseNs,
    workers: Vec<WorkerStats>,
    reuse: ReuseStats,
    perf: Json,
    soak: Json,
    arc: Json,
    stm: Json,
    params: Json,
    data: Json,
}

impl Metrics {
    /// Starts metrics for the experiment `id` (the file stem, e.g.
    /// `"e2_spec_matrix"`). The wall clock starts here, and the
    /// `threads` field is resolved here (`COMPASS_THREADS` / available
    /// parallelism), so construct this before the measured work.
    pub fn new(id: &str) -> Self {
        Metrics {
            id: id.to_string(),
            threads: orc11::default_threads() as u64,
            dpor: orc11::dpor_from_env(),
            conform: false,
            start: Instant::now(),
            phase_ns: PhaseNs::ZERO,
            workers: Vec::new(),
            reuse: ReuseStats::ZERO,
            perf: Json::Null,
            soak: Json::Null,
            arc: Json::Null,
            stm: Json::Null,
            params: Json::obj(),
            data: Json::obj(),
        }
    }

    /// Accumulates a report's per-phase busy-time breakdown into the
    /// document's `phase_ns` (e.g. `m.add_phases(&report.phase_ns)` once
    /// per exploration the experiment ran).
    pub fn add_phases(&mut self, phases: &PhaseNs) {
        self.phase_ns.merge(phases);
    }

    /// Accumulates per-worker load-balance counters into the document's
    /// `workers` array (index-wise, growing it as needed).
    pub fn add_workers(&mut self, workers: &[WorkerStats]) {
        if self.workers.len() < workers.len() {
            self.workers.resize(workers.len(), WorkerStats::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(workers) {
            mine.merge(theirs);
        }
    }

    /// Accumulates a report's arena reuse counters into the
    /// document's schema-v7 `reuse` object (e.g.
    /// `m.add_reuse(&report.reuse)` once per exploration).
    pub fn add_reuse(&mut self, reuse: &ReuseStats) {
        self.reuse.merge(reuse);
    }

    /// Marks this document as a runtime-conformance run (real threads on
    /// real hardware, `compass::conform`): sets the `conform` field, so
    /// consumers never average these counts with model-exploration ones.
    pub fn mark_conform(&mut self) {
        self.conform = true;
    }

    /// Sets the schema-v6 `perf` object (latency histograms, throughput
    /// curves, explorer execs/sec — see [`crate::perf`]). Experiments
    /// that measure nothing leave it `null`.
    pub fn set_perf(&mut self, perf: Json) {
        self.perf = perf;
    }

    /// Sets the schema-v8 `soak` object (per-structure soak reports —
    /// see `compass::soak::SoakReport::to_json`). Experiments that do
    /// not soak leave it `null`.
    pub fn set_soak(&mut self, soak: Json) {
        self.soak = soak;
    }

    /// Sets the schema-v9 `arc` object (refcount-consistency checking
    /// outcomes — model exploration plus conformance — from
    /// `e14_arc_stm`). Other experiments leave it `null`.
    pub fn set_arc(&mut self, arc: Json) {
        self.arc = arc;
    }

    /// Sets the schema-v9 `stm` object (TM-opacity checking outcomes —
    /// model exploration plus conformance — from `e14_arc_stm`). Other
    /// experiments leave it `null`.
    pub fn set_stm(&mut self, stm: Json) {
        self.stm = stm;
    }

    /// Records a run parameter (seed count, budget, ...).
    pub fn param(&mut self, key: &str, value: impl Into<Json>) {
        let params = std::mem::replace(&mut self.params, Json::Null);
        self.params = params.set(key, value);
    }

    /// Records a measurement under `data`.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        let data = std::mem::replace(&mut self.data, Json::Null);
        self.data = data.set(key, value);
    }

    /// The complete document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema_version", SCHEMA_VERSION)
            .set("experiment", self.id.as_str())
            .set("threads", self.threads)
            .set("dpor", self.dpor)
            .set("conform", self.conform)
            .set("wall_ns", self.start.elapsed().as_nanos() as u64)
            .set("phase_ns", self.phase_ns.to_json())
            .set("workers", orc11::workers_to_json(&self.workers))
            .set("reuse", self.reuse.to_json())
            .set("perf", self.perf.clone())
            .set("soak", self.soak.clone())
            .set("arc", self.arc.clone())
            .set("stm", self.stm.clone())
            .set("params", self.params.clone())
            .set("data", self.data.clone())
    }

    /// The output directory: `COMPASS_RESULTS_DIR`, or
    /// `experiment-results` under the current directory.
    pub fn results_dir() -> PathBuf {
        std::env::var_os("COMPASS_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("experiment-results"))
    }

    /// Where an experiment binary writes replay bundles:
    /// `COMPASS_BUNDLE_DIR`, or `default_subdir` under
    /// [`Metrics::results_dir`].
    pub fn bundle_dir(default_subdir: &str) -> PathBuf {
        std::env::var_os("COMPASS_BUNDLE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Self::results_dir().join(default_subdir))
    }

    /// Writes `<results_dir>/<id>.json` (pretty-rendered) and returns the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self) -> io::Result<PathBuf> {
        let dir = Self::results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json().render_pretty())?;
        Ok(path)
    }

    /// [`Metrics::write`], reporting the outcome on stderr instead of
    /// failing — experiment binaries should still print their tables on a
    /// read-only filesystem.
    pub fn write_or_warn(&self) {
        match self.write() {
            Ok(path) => eprintln!("metrics: wrote {}", path.display()),
            Err(e) => eprintln!("metrics: cannot write {}.json: {e}", self.id),
        }
    }
}

/// An experiment binary's live sessions: the `COMPASS_TRACE` timeline
/// and the `COMPASS_TELEMETRY` stream. [`Sessions::from_env`] starts
/// whichever the environment asks for; dropping the value finishes both
/// (telemetry first, so its `final` sample covers the whole run). Not
/// `Clone`: exactly one value ends the sessions.
#[derive(Debug)]
pub struct Sessions(());

impl Sessions {
    /// Starts the sessions the environment asks for. Bind the result to
    /// a named local (`let _sessions = ...`) so it lives to the end of
    /// `main`.
    pub fn from_env() -> Self {
        orc11::trace::init_from_env();
        orc11::telemetry::init_from_env();
        Sessions(())
    }
}

impl Drop for Sessions {
    fn drop(&mut self) {
        orc11::telemetry::finish_or_warn();
        orc11::trace::finish_or_warn();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_shape() {
        let mut m = Metrics::new("e0_test");
        m.param("seeds", 100u64);
        m.set("consistent", 100u64);
        m.set("rate", 1.0f64);
        let j = m.to_json();
        assert_eq!(j.get("schema_version"), Some(&Json::Int(10)));
        // v6: the perf field exists and defaults to null.
        assert_eq!(j.get("perf"), Some(&Json::Null));
        // v8: the soak field exists and defaults to null.
        assert_eq!(j.get("soak"), Some(&Json::Null));
        // v9: the arc/stm fields exist and default to null.
        assert_eq!(j.get("arc"), Some(&Json::Null));
        assert_eq!(j.get("stm"), Some(&Json::Null));
        // v7: the reuse object exists and defaults to all-zero.
        assert_eq!(
            j.get("reuse").and_then(|r| r.get("checkpoints_restored")),
            Some(&Json::Int(0))
        );
        assert_eq!(j.get("experiment"), Some(&Json::Str("e0_test".into())));
        // The environment-dependent fields exist and are sane.
        assert!(matches!(j.get("threads"), Some(&Json::Int(n)) if n >= 1));
        assert!(matches!(j.get("dpor"), Some(&Json::Bool(_))));
        assert_eq!(j.get("conform"), Some(&Json::Bool(false)));
        let mut conform = Metrics::new("e11_conform");
        conform.mark_conform();
        assert_eq!(conform.to_json().get("conform"), Some(&Json::Bool(true)));
        assert!(matches!(j.get("wall_ns"), Some(&Json::Int(_))));
        // v5: phase/worker fields exist even when nothing was recorded.
        assert_eq!(
            j.get("phase_ns").and_then(|p| p.get("explore")),
            Some(&Json::Int(0))
        );
        assert_eq!(j.get("workers"), Some(&Json::Arr(vec![])));
        let mut fed = Metrics::new("e0_fed");
        fed.add_phases(&PhaseNs {
            explore: 7,
            ..PhaseNs::ZERO
        });
        fed.add_workers(&[WorkerStats {
            executed: 3,
            ..WorkerStats::default()
        }]);
        fed.add_reuse(&ReuseStats {
            arena_execs: 4,
            checkpoints_taken: 1,
            checkpoints_restored: 3,
            prefix_steps_saved: 30,
        });
        let fj = fed.to_json();
        assert_eq!(
            fj.get("reuse").and_then(|r| r.get("prefix_steps_saved")),
            Some(&Json::Int(30))
        );
        assert_eq!(
            fj.get("phase_ns").and_then(|p| p.get("explore")),
            Some(&Json::Int(7))
        );
        let workers = match fj.get("workers") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("workers is not an array: {other:?}"),
        };
        assert_eq!(workers[0].get("executed"), Some(&Json::Int(3)));
        assert_eq!(
            j.get("params").and_then(|p| p.get("seeds")),
            Some(&Json::Int(100))
        );
        assert_eq!(
            j.get("data").and_then(|d| d.get("rate")),
            Some(&Json::Float(1.0))
        );
    }

    #[test]
    fn write_respects_results_dir_env() {
        // Not a great idea to mutate env in parallel tests; write directly
        // through the path logic instead.
        let mut m = Metrics::new("e0_write_test");
        m.set("x", 1u64);
        let dir = std::env::temp_dir().join(format!("compass-metrics-{}", std::process::id()));
        // Emulate write() against an explicit dir.
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e0_write_test.json");
        std::fs::write(&path, m.to_json().render_pretty()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\n  \"schema_version\": 10,\n"));
        assert!(text.ends_with("\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
