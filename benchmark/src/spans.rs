//! The benchmark's own span recorder (traced runs only).
//!
//! A span is recorded around every call the benchmark makes into a
//! product crate: name, start, end, parent, pass id and the lane (OS
//! thread) it ran on. Spans are kept in memory and written out once, at
//! exit. Parents are passed explicitly because the `program`/`check`
//! closures of a model subject run on the explorer's worker threads,
//! where a thread-local parent stack would be empty.
//!
//! With recording off (every untraced run) [`enter`] is one relaxed load
//! and the guard's drop is a no-op, so the untraced path carries no
//! timers at all.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use orc11::Json;

pub type SpanId = u32;

/// Parent of top-level spans.
pub const ROOT: SpanId = 0;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub pass: u32,
    pub lane: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// More shards than threads the benchmark ever runs at once (main +
/// at most 4 explorer workers or 1 checker), so pushes do not contend.
const SHARDS: usize = 16;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static PASS: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static STORE: [Mutex<Vec<Span>>; SHARDS] = [const { Mutex::new(Vec::new()) }; SHARDS];

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// Nanoseconds since the recorder's epoch (first use in the process).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Switches recording on or off; spans opened while off record nothing.
pub fn set_on(on: bool) {
    now_ns();
    ON.store(on, Ordering::Relaxed);
}

/// Stamps every span opened from now on with `pass`.
pub fn set_pass(pass: u32) {
    PASS.store(pass, Ordering::Relaxed);
}

fn push(span: Span) {
    STORE[span.lane as usize % SHARDS]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(span);
}

/// An open span; records itself on drop.
pub struct Guard(Option<(SpanId, SpanId, &'static str, u64)>);

/// Opens a span under `parent`. A no-op while recording is off.
pub fn enter(name: &'static str, parent: SpanId) -> Guard {
    if !on() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    Guard(Some((id, parent, name, now_ns())))
}

impl Guard {
    /// This span's id, for its children ([`ROOT`] while recording is off).
    pub fn id(&self) -> SpanId {
        self.0.map_or(ROOT, |(id, ..)| id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start_ns)) = self.0 {
            record(id, name, parent, start_ns, now_ns());
        }
    }
}

fn record(id: SpanId, name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) {
    push(Span {
        id,
        parent,
        pass: PASS.load(Ordering::Relaxed),
        lane: LANE.with(|l| *l),
        name,
        start_ns,
        end_ns: end_ns.max(start_ns),
    });
}

/// Records a span whose bounds were observed rather than bracketed (the
/// bundle write, which happens inside a product call after the last
/// `check` closure returns).
pub fn record_interval(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) {
    if on() {
        record(
            NEXT_ID.fetch_add(1, Ordering::Relaxed),
            name,
            parent,
            start_ns,
            end_ns,
        );
    }
}

/// Removes and returns every recorded span, ordered by start time.
pub fn drain() -> Vec<Span> {
    let mut all: Vec<Span> = Vec::new();
    for shard in &STORE {
        all.append(&mut shard.lock().unwrap_or_else(PoisonError::into_inner));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Count and busy (inclusive) seconds per span name.
pub fn busy_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += s.secs();
    }
    out
}

/// Seconds of `root` that none of its direct children cover: the time
/// the benchmark itself spent between its calls into the product. The
/// children of a pass run one after another on the main thread, so their
/// durations simply add.
pub fn uncovered_s(spans: &[Span], root: &Span) -> f64 {
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == root.id)
        .map(Span::secs)
        .sum();
    (root.secs() - covered).max(0.0)
}

/// The trace document: one object per span.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::obj()
                .set("id", s.id)
                .set("parent", s.parent)
                .set("pass", s.pass)
                .set("lane", s.lane)
                .set("name", s.name)
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns)
        })
        .collect();
    Json::obj()
        .set("workload", workload)
        .set("seed", seed)
        .set("spans", Json::Arr(rows))
}
