//! Structured tracing: spans, counter tracks, per-phase time
//! accounting, and Chrome trace-event export.
//!
//! The exploration stack is instrumented with lightweight *spans*
//! ([`span`]) classified by [`Phase`] (model execution, DPOR analysis,
//! clause checking, linearization search, conformance rounds, soak
//! epochs, bundle I/O) and *counters* ([`counter`]) for gauges like the DFS frontier
//! depth. Two consumers share the instrumentation:
//!
//! 1. **Per-phase time profiling** — always on. Every span adds its
//!    *exclusive* wall time (elapsed minus the time spent in nested
//!    spans) to a thread-local [`PhaseNs`] accumulator, so the seven
//!    phases are disjoint and their sum never exceeds the thread's busy
//!    time. Drivers snapshot the accumulator ([`thread_phases`]) around
//!    their work and surface the delta on `ExploreReport`/`CheckReport`
//!    and in the metrics documents (since schema v5). Cost: two
//!    `Instant::now` calls per span,
//!    at coarse (per-execution / per-check) granularity — far below the
//!    cost of the work the spans delimit.
//!
//! 2. **Timeline tracing** — off by default. When a session is active
//!    ([`start`], or `COMPASS_TRACE=<path>` via [`init_from_env`]),
//!    spans and counters additionally append timestamped events to a
//!    bounded per-thread buffer (one `Vec` per worker, no locks on the
//!    hot path); [`finish`] merges the buffers and writes Chrome
//!    trace-event JSON viewable in [Perfetto](https://ui.perfetto.dev)
//!    or `chrome://tracing`. When no session is active the event path is
//!    a single relaxed atomic load ([`enabled`]), so disabled overhead
//!    is unmeasurable.
//!
//! ## Determinism quarantine
//!
//! Timestamps exist *only* inside the trace file. The deterministic
//! outputs (reports, bundles, violation samples) never embed trace
//! data; the per-phase totals are wall-clock measurements and are
//! therefore — like `check_ns` — excluded from the byte-identical
//! cross-thread-count guarantee and normalized by the determinism
//! tests. Tracing on or off changes no exploration decision, so reports
//! and bundles are byte-identical either way (pinned in
//! `tests/parallel_determinism.rs`).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::json::Json;

/// Cap on buffered events per thread (a bounded ring guard, not
/// a hard functional limit — see [`TraceSummary::dropped`]).
const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// Anonymous (unregistered) threads get tids from this base so they
/// never collide with worker tids.
const ANON_TID_BASE: u32 = 1000;

/// The phase a span's time is attributed to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Running the model under a strategy (execution batches).
    Explore,
    /// DPOR race analysis and backtrack computation.
    Dpor,
    /// Consistency-clause evaluation.
    Check,
    /// Linearization search inside the checks.
    Linearize,
    /// Runtime-conformance rounds (real threads).
    Conform,
    /// Soak-engine work: epoch seal/assembly, online checks, shedding.
    Soak,
    /// Bundle and metrics file writes.
    Io,
}

/// Number of distinct [`Phase`]s.
pub const PHASE_COUNT: usize = 7;

impl Phase {
    /// The phase's stable lowercase name (JSON key, trace category).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Explore => "explore",
            Phase::Dpor => "dpor",
            Phase::Check => "check",
            Phase::Linearize => "linearize",
            Phase::Conform => "conform",
            Phase::Soak => "soak",
            Phase::Io => "io",
        }
    }
}

/// Exclusive (self) wall time per [`Phase`], in nanoseconds.
///
/// Exclusivity means nested spans do not double-count: a `check` span
/// containing a `linearize` span contributes only its own time to
/// `check`. On one thread the seven entries are disjoint slices of busy
/// time; exploration drivers average the per-worker breakdowns
/// (`ExploreReport::phase_ns`), so the total stays bounded by wall time.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseNs {
    /// Model execution ([`Phase::Explore`]).
    pub explore: u64,
    /// DPOR analysis ([`Phase::Dpor`]).
    pub dpor: u64,
    /// Clause checking ([`Phase::Check`]).
    pub check: u64,
    /// Linearization search ([`Phase::Linearize`]).
    pub linearize: u64,
    /// Conformance rounds ([`Phase::Conform`]).
    pub conform: u64,
    /// Soak epoch seal/check/shed work ([`Phase::Soak`]).
    pub soak: u64,
    /// Bundle/metrics writes ([`Phase::Io`]).
    pub io: u64,
}

impl PhaseNs {
    /// The all-zero breakdown (`const`, for thread-local init).
    pub const ZERO: PhaseNs = PhaseNs {
        explore: 0,
        dpor: 0,
        check: 0,
        linearize: 0,
        conform: 0,
        soak: 0,
        io: 0,
    };

    /// The entry for `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Explore => self.explore,
            Phase::Dpor => self.dpor,
            Phase::Check => self.check,
            Phase::Linearize => self.linearize,
            Phase::Conform => self.conform,
            Phase::Soak => self.soak,
            Phase::Io => self.io,
        }
    }

    fn entry_mut(&mut self, phase: Phase) -> &mut u64 {
        match phase {
            Phase::Explore => &mut self.explore,
            Phase::Dpor => &mut self.dpor,
            Phase::Check => &mut self.check,
            Phase::Linearize => &mut self.linearize,
            Phase::Conform => &mut self.conform,
            Phase::Soak => &mut self.soak,
            Phase::Io => &mut self.io,
        }
    }

    /// `(name, nanoseconds)` pairs in the fixed schema order.
    pub fn entries(&self) -> [(&'static str, u64); PHASE_COUNT] {
        [
            ("explore", self.explore),
            ("dpor", self.dpor),
            ("check", self.check),
            ("linearize", self.linearize),
            ("conform", self.conform),
            ("soak", self.soak),
            ("io", self.io),
        ]
    }

    /// Sum over all phases.
    pub fn total(&self) -> u64 {
        self.entries().iter().map(|&(_, ns)| ns).sum()
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &PhaseNs) {
        self.explore += other.explore;
        self.dpor += other.dpor;
        self.check += other.check;
        self.linearize += other.linearize;
        self.conform += other.conform;
        self.soak += other.soak;
        self.io += other.io;
    }

    /// The per-phase increase since `earlier` (a snapshot of the same
    /// monotone accumulator; saturating, so an unrelated snapshot cannot
    /// underflow).
    #[must_use]
    pub fn delta_since(&self, earlier: &PhaseNs) -> PhaseNs {
        PhaseNs {
            explore: self.explore.saturating_sub(earlier.explore),
            dpor: self.dpor.saturating_sub(earlier.dpor),
            check: self.check.saturating_sub(earlier.check),
            linearize: self.linearize.saturating_sub(earlier.linearize),
            conform: self.conform.saturating_sub(earlier.conform),
            soak: self.soak.saturating_sub(earlier.soak),
            io: self.io.saturating_sub(earlier.io),
        }
    }

    /// Divides every entry by `n` (per-worker averaging; `n == 0` is
    /// treated as 1).
    #[must_use]
    pub fn div_by(self, n: u64) -> PhaseNs {
        let n = n.max(1);
        PhaseNs {
            explore: self.explore / n,
            dpor: self.dpor / n,
            check: self.check / n,
            linearize: self.linearize / n,
            conform: self.conform / n,
            soak: self.soak / n,
            io: self.io / n,
        }
    }

    /// Machine-readable form: one key per phase, fixed order.
    pub fn to_json(&self) -> Json {
        self.entries()
            .iter()
            .fold(Json::obj(), |j, &(k, ns)| j.set(k, ns))
    }
}

impl fmt::Display for PhaseNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, ns) in self.entries() {
            if ns == 0 {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{name} {:.1}ms", ns as f64 / 1e6)?;
        }
        if first {
            write!(f, "(no phase data)")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Per-thread phase accounting (always on).

thread_local! {
    /// Exclusive time per phase accumulated on this thread.
    static PHASE_ACC: RefCell<PhaseNs> = const { RefCell::new(PhaseNs::ZERO) };
    /// Total (inclusive) span time this thread has closed so far — each
    /// span snapshots it at open to learn how much child time elapsed
    /// under it.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of this thread's monotone per-phase accumulator. Pair two
/// snapshots with [`PhaseNs::delta_since`] to attribute a region of
/// work.
pub fn thread_phases() -> PhaseNs {
    PHASE_ACC.with(|acc| *acc.borrow())
}

/// An open span: attributes its exclusive time to `phase` on drop, and
/// (when a trace session is active) records begin/end timeline events.
#[derive(Debug)]
pub struct Span {
    phase: Phase,
    name: &'static str,
    start: Instant,
    child_mark: u64,
    traced: bool,
}

/// Opens a span; close it by dropping the returned guard.
pub fn span(phase: Phase, name: &'static str) -> Span {
    let traced = enabled();
    if traced {
        record_event(EventKind::Begin, phase.name(), name, 0);
    }
    Span {
        phase,
        name,
        start: Instant::now(),
        child_mark: CHILD_NS.with(Cell::get),
        traced,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let total = self.start.elapsed().as_nanos() as u64;
        let children = CHILD_NS.with(Cell::get).saturating_sub(self.child_mark);
        PHASE_ACC.with(|acc| {
            *acc.borrow_mut().entry_mut(self.phase) += total.saturating_sub(children);
        });
        // This span's whole duration is child time for its parent.
        CHILD_NS.with(|c| c.set(self.child_mark.saturating_add(total)));
        if self.traced {
            record_event(EventKind::End, self.phase.name(), self.name, 0);
        }
    }
}

// ---------------------------------------------------------------------
// Counter tracks.

/// Records a counter sample on this thread's track (no-op when no
/// session is active).
pub fn counter(name: &'static str, value: u64) {
    if enabled() {
        record_event(EventKind::Counter, "counter", name, value);
    }
}

// ---------------------------------------------------------------------
// Session and per-thread event buffers.

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static SESSION: Mutex<Option<Session>> = Mutex::new(None);

/// Whether a trace session is active (one relaxed load — the only cost
/// tracing adds to span opens when off).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum EventKind {
    Begin,
    End,
    Counter,
}

#[derive(Clone, Debug)]
struct Event {
    kind: EventKind,
    /// Nanoseconds since the session epoch.
    ts_ns: u64,
    /// Trace category (the phase name, or `"counter"`).
    cat: &'static str,
    name: &'static str,
    value: u64,
}

#[derive(Debug)]
struct Track {
    tid: u32,
    name: String,
    events: Vec<Event>,
    dropped: u64,
}

#[derive(Debug)]
struct Session {
    path: PathBuf,
    epoch: Instant,
    generation: u64,
    flushed: Vec<Track>,
    next_anon: u32,
}

struct LocalTrack {
    generation: u64,
    epoch: Instant,
    /// Open Begin events whose buffer slot was dropped (cap hit): their
    /// matching Ends must be dropped too, or nesting breaks.
    drop_depth: u32,
    track: Track,
}

/// Thread-local buffer slot whose drop flushes into the session, so
/// worker-thread events survive thread exit.
struct TrackSlot(RefCell<Option<LocalTrack>>);

impl Drop for TrackSlot {
    fn drop(&mut self) {
        if let Some(local) = self.0.borrow_mut().take() {
            flush_local(local);
        }
    }
}

thread_local! {
    static TRACK: TrackSlot = const { TrackSlot(RefCell::new(None)) };
}

fn lock_session() -> std::sync::MutexGuard<'static, Option<Session>> {
    SESSION.lock().unwrap_or_else(PoisonError::into_inner)
}

fn flush_local(local: LocalTrack) {
    let mut session = lock_session();
    if let Some(s) = session.as_mut() {
        if s.generation == local.generation {
            s.flushed.push(local.track);
        }
    }
}

/// Registers the current thread as exploration worker `index` (tid
/// `index + 1`, track name `worker-<index>`). No-op when no session is
/// active. The main thread is registered as tid 0 by [`start`].
pub fn register_worker(index: usize) {
    register_current(index as u32 + 1, format!("worker-{index}"));
}

fn register_current(tid: u32, name: String) {
    if !enabled() {
        return;
    }
    let (generation, epoch) = {
        let session = lock_session();
        match session.as_ref() {
            Some(s) => (s.generation, s.epoch),
            None => return,
        }
    };
    TRACK.with(|slot| {
        let mut b = slot.0.borrow_mut();
        if let Some(old) = b.take() {
            flush_local(old);
        }
        *b = Some(LocalTrack {
            generation,
            epoch,
            drop_depth: 0,
            track: Track {
                tid,
                name,
                events: Vec::new(),
                dropped: 0,
            },
        });
    });
}

fn record_event(kind: EventKind, cat: &'static str, name: &'static str, value: u64) {
    TRACK.with(|slot| {
        let mut b = slot.0.borrow_mut();
        let generation = GENERATION.load(Ordering::Relaxed);
        let stale = !matches!(&*b, Some(l) if l.generation == generation);
        if stale {
            // Unregistered (or left over from an ended session): adopt an
            // anonymous tid so the events still land somewhere sensible.
            let mut session = lock_session();
            let Some(s) = session.as_mut() else { return };
            if let Some(old) = b.take() {
                if s.generation == old.generation {
                    s.flushed.push(old.track);
                }
            }
            let tid = ANON_TID_BASE + s.next_anon;
            s.next_anon += 1;
            *b = Some(LocalTrack {
                generation: s.generation,
                epoch: s.epoch,
                drop_depth: 0,
                track: Track {
                    tid,
                    name: format!("thread-{tid}"),
                    events: Vec::new(),
                    dropped: 0,
                },
            });
        }
        let Some(local) = b.as_mut() else { return };
        let ts_ns = local.epoch.elapsed().as_nanos() as u64;
        let event = Event {
            kind,
            ts_ns,
            cat,
            name,
            value,
        };
        match kind {
            EventKind::Begin => {
                if local.track.events.len() >= DEFAULT_EVENT_CAP {
                    local.track.dropped += 1;
                    local.drop_depth += 1;
                } else {
                    local.track.events.push(event);
                }
            }
            // Ends always push once their Begin did, even past the cap
            // (bounded by the open-span depth), so tracks stay
            // well-nested.
            EventKind::End => {
                if local.drop_depth > 0 {
                    local.drop_depth -= 1;
                    local.track.dropped += 1;
                } else {
                    local.track.events.push(event);
                }
            }
            EventKind::Counter => {
                if local.track.events.len() >= DEFAULT_EVENT_CAP {
                    local.track.dropped += 1;
                } else {
                    local.track.events.push(event);
                }
            }
        }
    });
}

/// What [`finish`] wrote.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// The trace file.
    pub path: PathBuf,
    /// Events written.
    pub events: usize,
    /// Thread tracks written.
    pub tracks: usize,
    /// Events dropped by the per-thread buffer cap.
    pub dropped: u64,
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events on {} tracks -> {}",
            self.events,
            self.tracks,
            self.path.display()
        )?;
        if self.dropped > 0 {
            write!(f, " ({} dropped at buffer cap)", self.dropped)?;
        }
        Ok(())
    }
}

/// Starts a trace session writing to `path` on [`finish`]. The calling
/// thread is registered as tid 0 (`main`). Each thread buffers at most
/// `DEFAULT_EVENT_CAP` events; the rest are counted as dropped.
///
/// # Errors
///
/// `AlreadyExists` if a session is already active.
pub fn start(path: impl Into<PathBuf>) -> io::Result<()> {
    {
        let mut session = lock_session();
        if session.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "a trace session is already active",
            ));
        }
        let generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
        *session = Some(Session {
            path: path.into(),
            epoch: Instant::now(),
            generation,
            flushed: Vec::new(),
            next_anon: 0,
        });
        ENABLED.store(true, Ordering::Relaxed);
    }
    register_current(0, "main".to_string());
    Ok(())
}

/// Starts a session from `COMPASS_TRACE=<path>` if set (the hook every
/// `e*` binary calls first thing, through `compass_bench`'s
/// `Sessions`). Returns whether a session started.
pub fn init_from_env() -> bool {
    let Some(path) = std::env::var_os("COMPASS_TRACE") else {
        return false;
    };
    if path.is_empty() {
        return false;
    }
    match start(PathBuf::from(path)) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("orc11: cannot start trace session: {e}");
            false
        }
    }
}

/// Ends the active session and writes the Chrome trace-event file.
/// Returns `Ok(None)` when no session was active.
///
/// Buffers of still-live threads other than the caller are not
/// collected (their events are discarded when those threads exit);
/// exploration workers always exit before their driver returns, so in
/// practice only the calling thread's buffer needs the explicit flush
/// done here.
///
/// # Errors
///
/// Propagates filesystem errors from writing the trace file.
pub fn finish() -> io::Result<Option<TraceSummary>> {
    ENABLED.store(false, Ordering::Relaxed);
    // Flush the calling thread's buffer into the session first.
    TRACK.with(|slot| {
        if let Some(local) = slot.0.borrow_mut().take() {
            flush_local(local);
        }
    });
    let session = lock_session().take();
    match session {
        None => Ok(None),
        Some(s) => export(s).map(Some),
    }
}

/// [`finish`], reporting the outcome on stderr instead of failing.
pub fn finish_or_warn() {
    match finish() {
        Ok(Some(summary)) => eprintln!("trace: wrote {summary}"),
        Ok(None) => {}
        Err(e) => eprintln!("trace: cannot write trace file: {e}"),
    }
}

/// One timestamp as fractional microseconds (Chrome's `ts` unit) with
/// nanosecond precision.
fn ts_us(ts_ns: u64) -> Json {
    Json::Float(ts_ns as f64 / 1000.0)
}

fn export(session: Session) -> io::Result<TraceSummary> {
    // Group per tid; concatenation order (thread exit order) breaks ts
    // ties, and a stable sort by timestamp preserves push order within
    // a buffer — so every track stays monotone and well-nested.
    let mut tracks: BTreeMap<u32, (String, Vec<Event>)> = BTreeMap::new();
    let mut dropped = 0;
    for track in session.flushed {
        dropped += track.dropped;
        let entry = tracks
            .entry(track.tid)
            .or_insert_with(|| (track.name.clone(), Vec::new()));
        entry.1.extend(track.events);
    }
    let mut events = Json::arr();
    events = events.push(
        Json::obj()
            .set("name", "process_name")
            .set("ph", "M")
            .set("pid", 0u64)
            .set("tid", 0u64)
            .set("args", Json::obj().set("name", "compass")),
    );
    let mut n_events = 0usize;
    let mut n_tracks = 0usize;
    for (tid, (name, mut track_events)) in tracks {
        // A registered thread that recorded nothing (e.g. the caller of
        // a fully parallel exploration) would be an empty Perfetto row;
        // skip it so the summary agrees with validate_trace_text.
        if track_events.is_empty() {
            continue;
        }
        n_tracks += 1;
        events = events.push(
            Json::obj()
                .set("name", "thread_name")
                .set("ph", "M")
                .set("pid", 0u64)
                .set("tid", tid)
                .set("args", Json::obj().set("name", name)),
        );
        events = events.push(
            Json::obj()
                .set("name", "thread_sort_index")
                .set("ph", "M")
                .set("pid", 0u64)
                .set("tid", tid)
                .set("args", Json::obj().set("sort_index", tid)),
        );
        track_events.sort_by_key(|e| e.ts_ns);
        for e in track_events {
            n_events += 1;
            let mut j = Json::obj()
                .set("name", e.name)
                .set("cat", e.cat)
                .set(
                    "ph",
                    match e.kind {
                        EventKind::Begin => "B",
                        EventKind::End => "E",
                        EventKind::Counter => "C",
                    },
                )
                .set("pid", 0u64)
                .set("tid", tid)
                .set("ts", ts_us(e.ts_ns));
            if e.kind == EventKind::Counter {
                j = j.set("args", Json::obj().set("value", e.value));
            }
            events = events.push(j);
        }
    }
    let doc = Json::obj()
        .set("traceEvents", events)
        .set("displayTimeUnit", "ms")
        .set(
            "otherData",
            Json::obj()
                .set("tool", "compass")
                .set("dropped_events", dropped),
        );
    if let Some(parent) = session.path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&session.path, doc.render_pretty())?;
    Ok(TraceSummary {
        path: session.path,
        events: n_events,
        tracks: n_tracks,
        dropped,
    })
}

// ---------------------------------------------------------------------
// Structural validation (shared by tests and the CI trace-smoke step —
// deliberately not behind #[cfg(test)]).

/// What [`validate_trace_text`] found in a structurally valid trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total non-metadata events.
    pub events: usize,
    /// Completed `B`/`E` span pairs.
    pub spans: usize,
    /// Counter samples.
    pub counters: usize,
    /// Distinct `(pid, tid)` tracks with non-metadata events.
    pub tracks: usize,
    /// Largest tid seen (0 when no events).
    pub max_tid: u32,
}

/// Structurally validates Chrome trace-event JSON produced by this
/// module: parseable, required fields present, `pid` 0 throughout,
/// timestamps monotone per track, and `B`/`E` events well-nested per
/// tid with matching names.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_trace_text(text: &str) -> Result<TraceCheck, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };
    let mut check = TraceCheck::default();
    // Per (pid, tid): last timestamp and the open-span name stack.
    let mut per_track: BTreeMap<(i64, i64), (f64, Vec<String>)> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let field = |k: &str| e.get(k).ok_or_else(|| format!("event {i}: missing {k}"));
        let str_field = |k: &str| match field(k)? {
            Json::Str(s) => Ok(s.clone()),
            other => Err(format!("event {i}: {k} is not a string ({other:?})")),
        };
        let int_field = |k: &str| match field(k)? {
            Json::Int(n) => Ok(*n),
            other => Err(format!("event {i}: {k} is not an integer ({other:?})")),
        };
        let ph = str_field("ph")?;
        let name = str_field("name")?;
        let pid = int_field("pid")?;
        let tid = int_field("tid")?;
        if pid != 0 {
            return Err(format!("event {i}: pid {pid} != 0"));
        }
        if !(0..=u32::MAX as i64).contains(&tid) {
            return Err(format!("event {i}: tid {tid} out of range"));
        }
        if ph == "M" {
            continue;
        }
        let ts = match field("ts")? {
            Json::Float(x) => *x,
            Json::Int(n) => *n as f64,
            other => return Err(format!("event {i}: ts is not a number ({other:?})")),
        };
        check.events += 1;
        check.max_tid = check.max_tid.max(tid as u32);
        let track = per_track
            .entry((pid, tid))
            .or_insert((f64::MIN, Vec::new()));
        if ts < track.0 {
            return Err(format!(
                "event {i}: tid {tid} timestamp went backwards ({ts} < {})",
                track.0
            ));
        }
        track.0 = ts;
        match ph.as_str() {
            "B" => track.1.push(name),
            "E" => match track.1.pop() {
                Some(open) if open == name => check.spans += 1,
                Some(open) => {
                    return Err(format!(
                        "event {i}: tid {tid} E \"{name}\" does not match open B \"{open}\""
                    ));
                }
                None => {
                    return Err(format!("event {i}: tid {tid} E \"{name}\" with no open B"));
                }
            },
            "C" => {
                let ok = matches!(
                    e.get("args").and_then(|a| a.get("value")),
                    Some(Json::Int(_) | Json::Float(_))
                );
                if !ok {
                    return Err(format!("event {i}: counter without numeric args.value"));
                }
                check.counters += 1;
            }
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    for ((_, tid), (_, stack)) in &per_track {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid}: {} unclosed B events: {stack:?}",
                stack.len()
            ));
        }
    }
    check.tracks = per_track.len();
    Ok(check)
}

/// [`validate_trace_text`] over a file on disk.
///
/// # Errors
///
/// Read failures and structural violations, as a readable string.
pub fn validate_trace_file(path: &Path) -> Result<TraceCheck, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    validate_trace_text(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Session-lifecycle tests live in `tests/trace_format.rs` (their own
    // process), because a live session would also capture spans from
    // unrelated unit tests running concurrently in this binary. The
    // phase accounting below needs no session.

    #[test]
    fn exclusive_time_subtracts_children() {
        let before = thread_phases();
        {
            let _outer = span(Phase::Check, "outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = span(Phase::Linearize, "inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let d = thread_phases().delta_since(&before);
        assert!(d.check >= 3_000_000, "outer self time recorded: {d:?}");
        assert!(d.linearize >= 3_000_000, "inner time recorded: {d:?}");
        // The inner 4ms is attributed to linearize only, never to check:
        // check's exclusive time is roughly half the 8ms total.
        assert!(
            d.check < d.check + d.linearize && d.total() >= 6_000_000,
            "phases are disjoint slices: {d:?}"
        );
    }

    #[test]
    fn sibling_spans_accumulate_independently() {
        let before = thread_phases();
        for _ in 0..3 {
            let _s = span(Phase::Io, "w");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let d = thread_phases().delta_since(&before);
        assert!(d.io >= 2_000_000);
        assert_eq!(d.explore, 0);
    }

    #[test]
    fn phase_ns_arithmetic_and_json() {
        let mut a = PhaseNs {
            explore: 10,
            dpor: 1,
            check: 5,
            linearize: 2,
            conform: 0,
            soak: 0,
            io: 3,
        };
        let b = PhaseNs {
            explore: 5,
            ..PhaseNs::ZERO
        };
        a.merge(&b);
        assert_eq!(a.explore, 15);
        assert_eq!(a.total(), 26);
        assert_eq!(a.delta_since(&b).explore, 10);
        assert_eq!(a.div_by(2).explore, 7);
        let j = a.to_json();
        assert_eq!(
            j.render(),
            r#"{"explore":15,"dpor":1,"check":5,"linearize":2,"conform":0,"soak":0,"io":3}"#
        );
        assert_eq!(a.get(Phase::Check), 5);
        assert!(format!("{a}").contains("explore"));
        assert!(format!("{}", PhaseNs::ZERO).contains("no phase data"));
    }

    #[test]
    fn validator_accepts_well_formed_and_rejects_broken_traces() {
        let good = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"compass"}},
            {"name":"a","cat":"check","ph":"B","pid":0,"tid":1,"ts":1.0},
            {"name":"b","cat":"linearize","ph":"B","pid":0,"tid":1,"ts":2.0},
            {"name":"b","cat":"linearize","ph":"E","pid":0,"tid":1,"ts":3.0},
            {"name":"n","cat":"counter","ph":"C","pid":0,"tid":1,"ts":3.5,"args":{"value":7}},
            {"name":"a","cat":"check","ph":"E","pid":0,"tid":1,"ts":4.0}
        ]}"#;
        let c = validate_trace_text(good).unwrap();
        assert_eq!((c.events, c.spans, c.counters, c.tracks), (5, 2, 1, 1));
        assert_eq!(c.max_tid, 1);

        let crossed = good.replace(
            r#"{"name":"b","cat":"linearize","ph":"E","pid":0,"tid":1,"ts":3.0}"#,
            r#"{"name":"a","cat":"check","ph":"E","pid":0,"tid":1,"ts":3.0}"#,
        );
        assert!(validate_trace_text(&crossed)
            .unwrap_err()
            .contains("does not match"));

        let backwards = good.replace("\"ts\":4.0", "\"ts\":0.5");
        assert!(validate_trace_text(&backwards)
            .unwrap_err()
            .contains("went backwards"));

        assert!(validate_trace_text("{").unwrap_err().contains("JSON"));
        assert!(validate_trace_text("{}")
            .unwrap_err()
            .contains("traceEvents"));

        let unclosed = r#"{"traceEvents":[
            {"name":"a","cat":"check","ph":"B","pid":0,"tid":2,"ts":1.0}
        ]}"#;
        assert!(validate_trace_text(unclosed)
            .unwrap_err()
            .contains("unclosed"));

        let bad_pid = good.replace(
            "\"pid\":0,\"tid\":1,\"ts\":1.0",
            "\"pid\":9,\"tid\":1,\"ts\":1.0",
        );
        assert!(validate_trace_text(&bad_pid).unwrap_err().contains("pid"));
    }
}
