//! Live telemetry bus: a process-wide snapshot registry of relaxed
//! atomic gauges, a sampler thread that appends schema-versioned JSONL
//! time-series samples (`COMPASS_TELEMETRY=<path>`).
//!
//! Where [`crate::trace`] records *what happened when* (a post-hoc
//! timeline), this module answers *how far along are we right now*: the
//! exploration engine and the soak engine publish counters into the
//! registry as they run — executions completed, DFS frontier depth,
//! DPOR sleep hits, arena reuse, per-worker load balance, the
//! online state-space [`crate::stats::Estimate`], soak epochs sealed/
//! checked/shed and the sampling governor — and one read-only consumer
//! turns the registry into output: the sampler thread ([`start`], or
//! `COMPASS_TELEMETRY=<path>` via [`init_from_env`]). Every
//! [`DEFAULT_INTERVAL_MS`] milliseconds it snapshots the registry and
//! appends one JSON object per line to the session file — a `meta`
//! header first, then `sample` lines, then one `final` line written by
//! [`finish`]. The stream is the time-series counterpart of the one-shot
//! metrics JSON and is structurally validated by
//! [`validate_telemetry_text`] (and by the `trace_check --telemetry` CLI
//! in CI).
//!
//! ## Determinism quarantine
//!
//! Like tracing, the whole bus sits *outside* the determinism envelope.
//! Publication is relaxed atomic stores (and, for the estimate, reads
//! of state the work source already maintains under its lock); nothing
//! here is ever read back by an exploration decision, a report field,
//! or a bundle writer. Reports and bundles are therefore byte-identical
//! with telemetry on or off at any thread count — pinned by
//! `tests/telemetry_quarantine.rs`.

use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::stats::{Estimate, ReuseStats, WorkerStats};

/// Schema version stamped on the stream's `meta` line; bump when the
/// sample shape changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// The sampler's interval, in milliseconds.
pub const DEFAULT_INTERVAL_MS: u64 = 250;

/// Registry slots for per-worker load-balance stats. Explorations are
/// capped at min(cores, 8) workers (`crate::parallel`), so 64 leaves
/// generous headroom; higher indices are silently not published.
const MAX_WORKER_SLOTS: usize = 64;

// ---------------------------------------------------------------------
// The snapshot registry: process-wide relaxed gauges. Always on — a
// handful of relaxed stores per execution is far below measurement
// noise, and keeping publication unconditional means a sampler session
// started at any point sees the counters accumulated so far.

static EXPLORE_EXECS: AtomicU64 = AtomicU64::new(0);
static FRONTIER_DEPTH: AtomicU64 = AtomicU64::new(0);
static SLEEP_HITS: AtomicU64 = AtomicU64::new(0);
static EST_PATHS: AtomicU64 = AtomicU64::new(0);
static EST_TOTAL: AtomicU64 = AtomicU64::new(0);
static EST_PERCENT_X1000: AtomicU64 = AtomicU64::new(0);
static SOAK_SEALED: AtomicU64 = AtomicU64::new(0);
static SOAK_CHECKED: AtomicU64 = AtomicU64::new(0);
static SOAK_SHED: AtomicU64 = AtomicU64::new(0);
static SOAK_PER_MILLE: AtomicU64 = AtomicU64::new(0);
static SOAK_OPS: AtomicU64 = AtomicU64::new(0);

struct WorkerSlot {
    executed: AtomicU64,
    stolen: AtomicU64,
    idle_waits: AtomicU64,
    idle_wait_ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // const used only as an array initializer
const EMPTY_SLOT: WorkerSlot = WorkerSlot {
    executed: AtomicU64::new(0),
    stolen: AtomicU64::new(0),
    idle_waits: AtomicU64::new(0),
    idle_wait_ns: AtomicU64::new(0),
};
static WORKER_SLOTS: [WorkerSlot; MAX_WORKER_SLOTS] = [EMPTY_SLOT; MAX_WORKER_SLOTS];
static WORKER_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Bumps the process-wide completed-execution counter (one relaxed add
/// per execution, called by the exploration driver).
pub fn count_exec() {
    EXPLORE_EXECS.fetch_add(1, Ordering::Relaxed);
}

/// Publishes the current DFS frontier depth (also sampled as the
/// `frontier_depth` counter track when tracing is on).
pub fn gauge_frontier_depth(depth: u64) {
    FRONTIER_DEPTH.store(depth, Ordering::Relaxed);
    crate::trace::counter("frontier_depth", depth);
}

/// Publishes the running DPOR sleep-set hit total (also sampled as the
/// `sleep_set_hits` counter track when tracing is on).
pub fn gauge_sleep_hits(total: u64) {
    SLEEP_HITS.store(total, Ordering::Relaxed);
    crate::trace::counter("sleep_set_hits", total);
}

/// Publishes the current state-space estimate (called by the work
/// source as each DFS/DPOR execution completes).
pub fn gauge_estimate(est: &Estimate) {
    EST_PATHS.store(est.paths, Ordering::Relaxed);
    EST_TOTAL.store(est.est_total_execs(), Ordering::Relaxed);
    EST_PERCENT_X1000.store(est.percent_x1000(), Ordering::Relaxed);
}

/// Publishes worker `index`'s load-balance counters into its registry
/// slot (field-for-field the same numbers `workers_to_json` reports at
/// the end of the run, so live samples and final metrics agree).
pub fn gauge_worker(index: usize, w: &WorkerStats) {
    if index >= MAX_WORKER_SLOTS {
        return;
    }
    let slot = &WORKER_SLOTS[index];
    slot.executed.store(w.executed, Ordering::Relaxed);
    slot.stolen.store(w.stolen, Ordering::Relaxed);
    slot.idle_waits.store(w.idle_waits, Ordering::Relaxed);
    slot.idle_wait_ns.store(w.idle_wait_ns, Ordering::Relaxed);
    WORKER_COUNT.fetch_max(index + 1, Ordering::Relaxed);
}

/// Publishes the soak engine's epoch accounting, governor state and
/// cumulative recorded-operation total.
pub fn gauge_soak(sealed: u64, checked: u64, shed: u64, per_mille: u64, ops: u64) {
    SOAK_SEALED.store(sealed, Ordering::Relaxed);
    SOAK_CHECKED.store(checked, Ordering::Relaxed);
    SOAK_SHED.store(shed, Ordering::Relaxed);
    SOAK_PER_MILLE.store(per_mille, Ordering::Relaxed);
    SOAK_OPS.store(ops, Ordering::Relaxed);
}

/// One coherent-enough picture of the registry (each gauge is read
/// relaxed; cross-gauge skew of a few operations is fine for telemetry).
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Executions completed by the exploration engine.
    pub execs: u64,
    /// Current DFS frontier depth (best-effort under concurrent
    /// explorations).
    pub frontier_depth: u64,
    /// Running DPOR sleep-set hit total of the current exploration.
    pub sleep_hits: u64,
    /// Completed estimator paths.
    pub est_paths: u64,
    /// Estimated total executions in the current tree.
    pub est_total_execs: u64,
    /// Percent of the tree's probability mass visited, ×1000.
    pub percent_x1000: u64,
    /// Arena reuse counters ([`crate::global_reuse`]).
    pub reuse: ReuseStats,
    /// Per-worker load-balance counters, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Soak epochs sealed.
    pub soak_sealed: u64,
    /// Soak epochs checked.
    pub soak_checked: u64,
    /// Soak epochs shed unchecked.
    pub soak_shed: u64,
    /// Soak sampling-governor duty cycle (per mille).
    pub soak_per_mille: u64,
    /// Soak operations recorded.
    pub soak_ops: u64,
}

/// Reads the whole registry (plus [`crate::global_reuse`]) into a
/// [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let n = WORKER_COUNT.load(Ordering::Relaxed).min(MAX_WORKER_SLOTS);
    let workers = WORKER_SLOTS[..n]
        .iter()
        .map(|s| WorkerStats {
            executed: s.executed.load(Ordering::Relaxed),
            stolen: s.stolen.load(Ordering::Relaxed),
            idle_waits: s.idle_waits.load(Ordering::Relaxed),
            idle_wait_ns: s.idle_wait_ns.load(Ordering::Relaxed),
        })
        .collect();
    Snapshot {
        execs: EXPLORE_EXECS.load(Ordering::Relaxed),
        frontier_depth: FRONTIER_DEPTH.load(Ordering::Relaxed),
        sleep_hits: SLEEP_HITS.load(Ordering::Relaxed),
        est_paths: EST_PATHS.load(Ordering::Relaxed),
        est_total_execs: EST_TOTAL.load(Ordering::Relaxed),
        percent_x1000: EST_PERCENT_X1000.load(Ordering::Relaxed),
        reuse: crate::global_reuse(),
        workers,
        soak_sealed: SOAK_SEALED.load(Ordering::Relaxed),
        soak_checked: SOAK_CHECKED.load(Ordering::Relaxed),
        soak_shed: SOAK_SHED.load(Ordering::Relaxed),
        soak_per_mille: SOAK_PER_MILLE.load(Ordering::Relaxed),
        soak_ops: SOAK_OPS.load(Ordering::Relaxed),
    }
}

/// One sample line. `prev` supplies the interval deltas (`execs_delta`,
/// `ops_delta`); the first sample reports deltas from zero.
fn sample_json(kind: &str, seq: u64, t_ms: u64, snap: &Snapshot, prev: Option<&Snapshot>) -> Json {
    let execs_delta = snap.execs - prev.map_or(0, |p| p.execs.min(snap.execs));
    let ops_delta = snap.soak_ops - prev.map_or(0, |p| p.soak_ops.min(snap.soak_ops));
    Json::obj()
        .set("kind", kind)
        .set("seq", seq)
        .set("t_ms", t_ms)
        .set(
            "explore",
            Json::obj()
                .set("execs", snap.execs)
                .set("execs_delta", execs_delta)
                .set("frontier_depth", snap.frontier_depth)
                .set("sleep_hits", snap.sleep_hits)
                .set(
                    "est",
                    Json::obj()
                        .set("paths", snap.est_paths)
                        .set("est_total_execs", snap.est_total_execs)
                        .set("percent_complete", snap.percent_x1000 as f64 / 1000.0),
                ),
        )
        .set("reuse", snap.reuse.to_json())
        .set("workers", crate::stats::workers_to_json(&snap.workers))
        .set(
            "soak",
            Json::obj()
                .set("epochs_sealed", snap.soak_sealed)
                .set("epochs_checked", snap.soak_checked)
                .set("epochs_shed", snap.soak_shed)
                .set("governor_per_mille", snap.soak_per_mille)
                .set("ops", snap.soak_ops)
                .set("ops_delta", ops_delta),
        )
}

// ---------------------------------------------------------------------
// The sampler session.

struct StopFlag {
    stopped: Mutex<bool>,
    cv: Condvar,
}

struct Session {
    path: PathBuf,
    stop: Arc<StopFlag>,
    join: std::thread::JoinHandle<io::Result<u64>>,
}

static SESSION: Mutex<Option<Session>> = Mutex::new(None);

fn lock_session() -> std::sync::MutexGuard<'static, Option<Session>> {
    SESSION.lock().unwrap_or_else(PoisonError::into_inner)
}

fn sampler(file: std::fs::File, interval: Duration, stop: Arc<StopFlag>) -> io::Result<u64> {
    let mut w = io::BufWriter::new(file);
    let epoch = Instant::now();
    let meta = Json::obj()
        .set("kind", "meta")
        .set("schema", SCHEMA_VERSION)
        .set("interval_ms", interval.as_millis() as u64)
        .set("t_ms", 0u64);
    writeln!(w, "{}", meta.render())?;
    let mut seq = 0u64;
    let mut lines = 1u64;
    let mut prev: Option<Snapshot> = None;
    loop {
        let stopped = {
            let guard = stop.stopped.lock().unwrap_or_else(PoisonError::into_inner);
            if *guard {
                true
            } else {
                let (guard, _) = stop
                    .cv
                    .wait_timeout(guard, interval)
                    .unwrap_or_else(PoisonError::into_inner);
                *guard
            }
        };
        let snap = snapshot();
        let t_ms = epoch.elapsed().as_millis() as u64;
        let kind = if stopped { "final" } else { "sample" };
        writeln!(
            w,
            "{}",
            sample_json(kind, seq, t_ms, &snap, prev.as_ref()).render()
        )?;
        seq += 1;
        lines += 1;
        prev = Some(snap);
        if stopped {
            break;
        }
    }
    w.flush()?;
    Ok(lines)
}

/// What [`finish`] wrote.
#[derive(Clone, Debug)]
pub struct Summary {
    /// The JSONL stream.
    pub path: PathBuf,
    /// Lines written (meta + samples + final).
    pub lines: u64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} lines -> {}", self.lines, self.path.display())
    }
}

/// Starts a telemetry session sampling into `path` until [`finish`].
///
/// # Errors
///
/// `AlreadyExists` if a session is already active; filesystem errors
/// from creating the stream file.
pub fn start(path: impl Into<PathBuf>) -> io::Result<()> {
    let interval = Duration::from_millis(DEFAULT_INTERVAL_MS);
    let path = path.into();
    let mut session = lock_session();
    if session.is_some() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "a telemetry session is already active",
        ));
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = std::fs::File::create(&path)?;
    let stop = Arc::new(StopFlag {
        stopped: Mutex::new(false),
        cv: Condvar::new(),
    });
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("compass-telemetry".to_string())
        .spawn(move || sampler(file, interval, stop2))?;
    *session = Some(Session { path, stop, join });
    Ok(())
}

/// Starts a sampler session if `COMPASS_TELEMETRY=<path>` is set (the
/// hook every `e*` binary calls first thing, next to
/// [`crate::trace::init_from_env`], through `compass_bench`'s
/// `Sessions`). Returns whether it started.
pub fn init_from_env() -> bool {
    match std::env::var_os("COMPASS_TELEMETRY") {
        Some(path) if !path.is_empty() => match start(PathBuf::from(path)) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("orc11: cannot start telemetry session: {e}");
                false
            }
        },
        _ => false,
    }
}

/// Ends the active session: wakes the sampler for one `final` sample
/// and joins it. Returns `Ok(None)` when no session was active.
///
/// # Errors
///
/// Propagates filesystem errors from the sampler's writes.
pub fn finish() -> io::Result<Option<Summary>> {
    let session = lock_session().take();
    let Some(s) = session else {
        return Ok(None);
    };
    {
        let mut stopped = s
            .stop
            .stopped
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *stopped = true;
        s.stop.cv.notify_all();
    }
    let lines = s
        .join
        .join()
        .map_err(|_| io::Error::other("telemetry sampler panicked"))??;
    Ok(Some(Summary {
        path: s.path,
        lines,
    }))
}

/// [`finish`], reporting the outcome on stderr instead of failing.
pub fn finish_or_warn() {
    match finish() {
        Ok(Some(summary)) => eprintln!("telemetry: wrote {summary}"),
        Ok(None) => {}
        Err(e) => eprintln!("telemetry: cannot write stream: {e}"),
    }
}

// ---------------------------------------------------------------------
// Structural validation (shared by tests and the CI telemetry-smoke
// step — deliberately not behind #[cfg(test)], like
// `trace::validate_trace_text`).

/// What [`validate_telemetry_text`] found in a structurally valid
/// stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryCheck {
    /// Total lines (meta + samples + final).
    pub lines: usize,
    /// `sample` + `final` lines.
    pub samples: usize,
    /// Samples whose estimator had folded at least one path (i.e. a
    /// DFS/DPOR phase was live or had completed when sampled).
    pub est_samples: usize,
    /// The last timestamp, in milliseconds since the session epoch.
    pub max_t_ms: u64,
}

/// Structurally validates a JSONL telemetry stream produced by this
/// module: every line parses, the first line is a `meta` header with
/// this module's schema version, sample kinds are known, timestamps are
/// monotone, sequence numbers are gapless, and every sample carries the
/// estimator fields (`explore.est.{paths,est_total_execs,
/// percent_complete}`).
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_telemetry_text(text: &str) -> Result<TelemetryCheck, String> {
    let mut check = TelemetryCheck::default();
    let mut last_t: u64 = 0;
    let mut next_seq: u64 = 0;
    let mut saw_meta = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("line {i}: not valid JSON: {e}"))?;
        let kind = match j.get("kind") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(format!("line {i}: missing kind")),
        };
        let t_ms = match j.get("t_ms") {
            Some(Json::Int(n)) if *n >= 0 => *n as u64,
            _ => return Err(format!("line {i}: missing or negative t_ms")),
        };
        if t_ms < last_t {
            return Err(format!("line {i}: t_ms went backwards ({t_ms} < {last_t})"));
        }
        last_t = t_ms;
        check.lines += 1;
        check.max_t_ms = t_ms;
        match kind.as_str() {
            "meta" => {
                if check.lines != 1 {
                    return Err(format!("line {i}: meta must be the first line"));
                }
                match j.get("schema") {
                    Some(Json::Int(v)) if *v == SCHEMA_VERSION as i64 => {}
                    other => {
                        return Err(format!(
                            "line {i}: schema version is not {SCHEMA_VERSION}: {other:?}"
                        ))
                    }
                }
                saw_meta = true;
            }
            "sample" | "final" => {
                if !saw_meta {
                    return Err(format!("line {i}: {kind} before the meta header"));
                }
                match j.get("seq") {
                    Some(Json::Int(n)) if *n >= 0 && *n as u64 == next_seq => next_seq += 1,
                    other => {
                        return Err(format!("line {i}: seq is not {next_seq}: {other:?}"));
                    }
                }
                let est = j
                    .get("explore")
                    .and_then(|e| e.get("est"))
                    .ok_or_else(|| format!("line {i}: missing explore.est"))?;
                for key in ["paths", "est_total_execs", "percent_complete"] {
                    if est.get(key).is_none() {
                        return Err(format!("line {i}: explore.est missing {key}"));
                    }
                }
                check.samples += 1;
                if matches!(est.get("paths"), Some(Json::Int(p)) if *p > 0) {
                    check.est_samples += 1;
                }
            }
            other => return Err(format!("line {i}: unknown sample kind {other:?}")),
        }
    }
    if !saw_meta {
        return Err("empty telemetry stream (no meta line)".to_string());
    }
    Ok(check)
}

/// [`validate_telemetry_text`] over a file on disk.
///
/// # Errors
///
/// Read failures and structural violations, as a readable string.
pub fn validate_telemetry_file(path: &Path) -> Result<TelemetryCheck, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    validate_telemetry_text(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Session-lifecycle tests live in `tests/telemetry_quarantine.rs`
    // (their own process), because the registry and session are
    // process-wide and unit tests in this binary run concurrently.

    #[test]
    fn sample_json_has_the_documented_shape_and_deltas() {
        let a = Snapshot {
            execs: 10,
            soak_ops: 100,
            ..Snapshot::default()
        };
        let mut b = a.clone();
        b.execs = 25;
        b.soak_ops = 160;
        b.est_paths = 4;
        b.est_total_execs = 40;
        b.percent_x1000 = 12_500;
        b.workers = vec![WorkerStats {
            executed: 25,
            stolen: 3,
            idle_waits: 1,
            idle_wait_ns: 500,
        }];
        let j = sample_json("sample", 7, 1234, &b, Some(&a));
        assert_eq!(j.get("kind"), Some(&Json::Str("sample".to_string())));
        assert_eq!(j.get("seq"), Some(&Json::Int(7)));
        assert_eq!(j.get("t_ms"), Some(&Json::Int(1234)));
        let explore = j.get("explore").unwrap();
        assert_eq!(explore.get("execs"), Some(&Json::Int(25)));
        assert_eq!(explore.get("execs_delta"), Some(&Json::Int(15)));
        let est = explore.get("est").unwrap();
        assert_eq!(est.get("paths"), Some(&Json::Int(4)));
        assert_eq!(est.get("est_total_execs"), Some(&Json::Int(40)));
        assert_eq!(est.get("percent_complete"), Some(&Json::Float(12.5)));
        let soak = j.get("soak").unwrap();
        assert_eq!(soak.get("ops_delta"), Some(&Json::Int(60)));
        // The workers array uses the same field names as workers_to_json.
        let rendered = j.get("workers").unwrap().render();
        assert!(rendered.contains(r#""worker":0"#), "{rendered}");
        assert!(rendered.contains(r#""executed":25"#), "{rendered}");
        assert!(rendered.contains(r#""idle_wait_ns":500"#), "{rendered}");
    }

    #[test]
    fn validator_accepts_a_stream_and_rejects_broken_ones() {
        let mk_sample = |kind: &str, seq: u64, t: u64, paths: u64| {
            let s = Snapshot {
                est_paths: paths,
                ..Snapshot::default()
            };
            sample_json(kind, seq, t, &s, None).render()
        };
        let meta =
            format!(r#"{{"kind":"meta","schema":{SCHEMA_VERSION},"interval_ms":250,"t_ms":0}}"#);
        let good = format!(
            "{meta}\n{}\n{}\n{}\n",
            mk_sample("sample", 0, 250, 0),
            mk_sample("sample", 1, 500, 3),
            mk_sample("final", 2, 620, 5),
        );
        let c = validate_telemetry_text(&good).unwrap();
        assert_eq!((c.lines, c.samples, c.est_samples), (4, 3, 2));
        assert_eq!(c.max_t_ms, 620);

        // Backwards time.
        let backwards = good.replace(r#""t_ms":620"#, r#""t_ms":100"#);
        assert!(validate_telemetry_text(&backwards)
            .unwrap_err()
            .contains("backwards"));
        // Gapped sequence numbers.
        let gapped = good.replace(r#""seq":2"#, r#""seq":9"#);
        assert!(validate_telemetry_text(&gapped)
            .unwrap_err()
            .contains("seq"));
        // Wrong schema version.
        let wrong = good.replace(&format!(r#""schema":{SCHEMA_VERSION}"#), r#""schema":999"#);
        assert!(validate_telemetry_text(&wrong)
            .unwrap_err()
            .contains("schema"));
        // Missing meta header.
        let headless = good.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(validate_telemetry_text(&headless)
            .unwrap_err()
            .contains("meta"));
        // Unknown kind.
        let odd = good.replace(r#""kind":"final""#, r#""kind":"mystery""#);
        assert!(validate_telemetry_text(&odd)
            .unwrap_err()
            .contains("unknown sample kind"));
        // Not JSON at all.
        assert!(validate_telemetry_text("{\"kind\":\"meta\"\n")
            .unwrap_err()
            .contains("JSON"));
        assert!(validate_telemetry_text("").unwrap_err().contains("empty"));
    }
}
