//! Online streaming conformance checking for long-running soak runs.
//!
//! The conformance harness ([`crate::conform`]) proves short recorded
//! rounds after the fact; this module turns it into *continuous*
//! correctness monitoring: mutator threads drive a native structure at
//! saturation while their sampled op logs are sealed into epochs, each
//! epoch is assembled into a self-contained history
//! (the `assemble` module), and a bounded pool of checker threads runs the same
//! staged `CONFORM-*` checks on sealed epochs concurrently with the
//! live workload.
//!
//! The engine is deliberately native-agnostic: drivers (in the bench
//! crate) submit [`SoakOp`] batches per epoch; everything from slice
//! assembly to violation bundles happens here. Three invariants shape
//! the design:
//!
//! 1. **Mutators are never blocked.** The check queue is bounded; when
//!    it is full the epoch is *shed* (dropped unchecked) and the
//!    sampling [`Governor`] halves the recording fraction, so overload
//!    costs observations rather than throughput.
//! 2. **Accounting balances.** Every sealed epoch is either checked or
//!    shed: `epochs_checked + epochs_shed == epochs_sealed` in the
//!    final [`SoakReport`].
//! 3. **No false positives.** Epoch slices are faithful sub-histories
//!    (see the `assemble` module and DESIGN.md §11); anything that cannot be
//!    made faithful is dropped and counted.
//!
//! Violating epochs are written as standard re-checkable replay
//! bundles via [`crate::bundle::write_conform_bundle`], so an online
//! soak failure replays through `conform::recheck` exactly like an
//! offline round failure.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use orc11::trace::{self, Phase, PhaseNs};
use orc11::Json;

use crate::bundle::write_conform_bundle;
use crate::conform::{History, RoundSpec};

mod assemble;
mod governor;

pub use assemble::{AssemblyStats, SoakEvent};
pub use governor::{Governor, LoopMode, OpMix, Pacer};

use assemble::AssemblerKind;

/// Bit set in sampled ("tracked") values so takers can tell in O(1)
/// whether a dequeued value's produce was recorded.
pub const TRACKED_BIT: i64 = 1 << 62;

/// Builds a session-unique workload value for `thread`'s `seq`-th
/// produce, marking it tracked (recorded) or not.
pub fn soak_value(thread: usize, seq: u64, tracked: bool) -> i64 {
    let base = ((thread as i64 + 1) << 40) | (seq as i64 & ((1 << 40) - 1));
    if tracked {
        base | TRACKED_BIT
    } else {
        base
    }
}

/// Whether a workload value was produced with recording on.
pub fn is_tracked(v: i64) -> bool {
    v & TRACKED_BIT != 0
}

/// One recorded operation as submitted by a soak driver: the event plus
/// its invocation/response timestamps from the shared session clock.
#[derive(Clone, Copy, Debug)]
pub struct SoakOp<E> {
    /// Zero-based mutator index (becomes the history row).
    pub thread: usize,
    /// The conformance event.
    pub op: E,
    /// Invocation timestamp (ns on the session clock).
    pub inv: u64,
    /// Response timestamp (`>= inv`).
    pub resp: u64,
}

/// Configuration for a [`SoakEngine`].
#[derive(Clone, Debug)]
pub struct SoakOptions {
    /// Checker worker threads (min 1).
    pub checkers: usize,
    /// Sealed-epoch queue depth before epochs are shed.
    pub queue_cap: usize,
    /// Starting recording fraction in per-mille.
    pub sample_per_mille: u32,
    /// Session seed (recorded in reports and bundles so failures
    /// reproduce; see `COMPASS_SEED`).
    pub seed: u64,
    /// Mutator thread count (report metadata).
    pub threads: usize,
    /// Bound on the assembler's open-set / matched-memory maps.
    pub assembler_memory: usize,
    /// Where to write violation bundles (`None` = don't).
    pub bundle_dir: Option<PathBuf>,
    /// Stop checking after the first violation (subsequent epochs count
    /// as shed).
    pub stop_on_violation: bool,
    /// Debug: simulated extra cost per epoch check, for driving the
    /// governor deterministically in tests.
    pub check_delay_ns: u64,
    /// Hard bound on assembled slice size: a sealed epoch whose slice
    /// exceeds this many events is shed (and the governor degrades
    /// sampling) instead of checked. The polynomial part of the staged
    /// checks is `|lhb| · ⌈n/64⌉` word operations (DESIGN.md §7: about
    /// a millisecond at 512 near-sequential events, under half a second
    /// at 4096); what the bound guards against is the linearization
    /// search, whose node count grows exponentially with the number of
    /// *overlapping* operations, and more events per epoch means more
    /// of them. This bound keeps per-epoch check cost predictable no
    /// matter how the adaptive sampling was sized.
    pub max_epoch_events: usize,
    /// Checker CPU duty budget in per-mille (1000 = unthrottled). Below
    /// 1000, each worker sleeps after a check so its busy fraction stays
    /// at `duty/1000`: a check costing `c` ns is followed by an idle
    /// stretch of `c * (1000 - duty) / duty` ns. On machines where
    /// checkers share cores with mutators, this converts check cost
    /// into queue latency, and the existing shed → governor feedback
    /// then finds the sampling fraction whose per-epoch check cost fits
    /// the budget — mutator throughput loss stays bounded by the duty
    /// fraction instead of whatever the checks happen to cost.
    pub check_duty_per_mille: u32,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            checkers: 2,
            queue_cap: 8,
            sample_per_mille: 250,
            seed: 0,
            threads: 0,
            assembler_memory: 1 << 16,
            bundle_dir: None,
            stop_on_violation: false,
            check_delay_ns: 0,
            max_epoch_events: 4096,
            check_duty_per_mille: 1000,
        }
    }
}

/// Shared mutator-facing state: the sampling governor plus the stop
/// flag. Cloned ([`SoakHandle`]) into mutator threads, which only ever
/// do relaxed loads on it.
#[derive(Debug)]
pub struct SoakControl {
    governor: Governor,
    stop: AtomicBool,
    live: AtomicBool,
}

impl SoakControl {
    /// Current recording fraction in per-mille (one relaxed load).
    pub fn sample_per_mille(&self) -> u32 {
        self.governor.per_mille()
    }

    /// Whether a violation has requested the run to stop.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Cheap cloneable handle mutators poll for the sampling fraction and
/// the stop flag.
pub type SoakHandle = Arc<SoakControl>;

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct QueueState<E> {
    items: VecDeque<(u64, Vec<SoakOp<E>>)>,
    in_flight: usize,
    closed: bool,
}

struct CheckerStats {
    checked: u64,
    checked_live: u64,
    events_checked: u64,
    violations: BTreeMap<&'static str, u64>,
    bundle: Option<PathBuf>,
    phase: PhaseNs,
}

struct Shared<E> {
    control: SoakHandle,
    queue: Mutex<QueueState<E>>,
    ready: Condvar,
    drained: Condvar,
    stats: Mutex<CheckerStats>,
    name: String,
    seed: u64,
    threads: usize,
    queue_cap: usize,
    max_epoch_events: usize,
    bundle_dir: Option<PathBuf>,
    stop_on_violation: bool,
    check_delay_ns: u64,
    check_duty_per_mille: u32,
}

fn check_epoch<E: SoakEvent>(shared: &Shared<E>, slice: Vec<SoakOp<E>>, live: bool) {
    let _span = trace::span(Phase::Soak, "epoch-check");
    if shared.check_delay_ns > 0 {
        std::thread::sleep(Duration::from_nanos(shared.check_delay_ns));
    }
    let events = slice.len() as u64;
    let rows_needed = slice.iter().map(|o| o.thread + 1).max().unwrap_or(0);
    let mut rows: Vec<Vec<(E, u64, u64)>> = vec![Vec::new(); rows_needed];
    for op in slice {
        rows[op.thread].push((op.op, op.inv, op.resp));
    }
    let hist = History::from_tuples(rows);
    let g = hist.to_graph();
    let result = E::check(&g);

    let mut stats = lock(&shared.stats);
    stats.checked += 1;
    if live {
        stats.checked_live += 1;
    }
    stats.events_checked += events;
    if let Err(v) = result {
        *stats.violations.entry(v.rule).or_insert(0) += 1;
        if stats.bundle.is_none() {
            if let Some(dir) = &shared.bundle_dir {
                let per_thread = (events as usize).div_ceil(rows_needed.max(1));
                let spec = RoundSpec {
                    seed: shared.seed,
                    threads: shared.threads.max(rows_needed),
                    ops_per_thread: per_thread,
                };
                if let Ok(p) = write_conform_bundle(dir, &shared.name, &hist, &g, &v, &spec) {
                    stats.bundle = Some(p);
                }
            }
        }
        if shared.stop_on_violation {
            shared.control.stop.store(true, Ordering::SeqCst);
            shared.ready.notify_all();
        }
    }
}

fn worker<E: SoakEvent>(shared: Arc<Shared<E>>) {
    loop {
        let item = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.control.stop_requested() {
                    break None;
                }
                if let Some(it) = q.items.pop_front() {
                    q.in_flight += 1;
                    break Some(it);
                }
                if q.closed {
                    break None;
                }
                q = shared.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((_epoch, slice)) = item else { break };
        let live = shared.control.live.load(Ordering::Relaxed);
        let started = std::time::Instant::now();
        check_epoch(&shared, slice, live);
        let busy_ns = started.elapsed().as_nanos() as u64;
        let depth = {
            let mut q = lock(&shared.queue);
            q.in_flight -= 1;
            shared.drained.notify_all();
            q.items.len()
        };
        // The pipeline is keeping pace: let the governor claw sampling
        // back toward its configured fraction.
        if depth * 2 <= shared.queue_cap {
            shared.control.governor.recover();
        }
        // Duty-cycle throttle: pay back the CPU the check just burned so
        // this worker's busy fraction stays at `duty/1000`. Only while
        // mutators are live — the final drain should run flat out.
        let duty = u64::from(shared.check_duty_per_mille);
        if duty < 1000 && live && !shared.control.stop_requested() {
            let idle_ns = busy_ns.saturating_mul(1000 - duty) / duty;
            if idle_ns > 0 {
                std::thread::sleep(Duration::from_nanos(idle_ns.min(1_000_000_000)));
            }
        }
    }
    // Attribute this worker's soak/check time and wake anyone waiting
    // for drain (a violation stop abandons the queue).
    let worker_phase = trace::thread_phases();
    let _q = lock(&shared.queue);
    lock(&shared.stats).phase.merge(&worker_phase);
    shared.drained.notify_all();
}

/// The streaming check pipeline: owns the sealed-epoch queue, the
/// assembler, the checker worker pool, and the accounting that becomes
/// the final [`SoakReport`].
pub struct SoakEngine<E: SoakEvent> {
    shared: Arc<Shared<E>>,
    workers: Vec<JoinHandle<()>>,
    assembler: AssemblerKind<E>,
    sealed: u64,
    shed: u64,
    oversize: u64,
    ops_recorded: u64,
    last_epoch: u64,
    opts: SoakOptions,
}

impl<E: SoakEvent> std::fmt::Debug for SoakEngine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoakEngine")
            .field("subject", &self.shared.name)
            .field("sealed", &self.sealed)
            .field("shed", &self.shed)
            .finish()
    }
}

impl<E: SoakEvent> SoakEngine<E> {
    /// Starts the checker pool for subject `name`.
    pub fn start(name: &str, opts: SoakOptions) -> Self {
        let control: SoakHandle = Arc::new(SoakControl {
            governor: Governor::new(opts.sample_per_mille),
            stop: AtomicBool::new(false),
            live: AtomicBool::new(true),
        });
        let shared = Arc::new(Shared {
            control,
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                in_flight: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            drained: Condvar::new(),
            stats: Mutex::new(CheckerStats {
                checked: 0,
                checked_live: 0,
                events_checked: 0,
                violations: BTreeMap::new(),
                bundle: None,
                phase: PhaseNs::ZERO,
            }),
            name: name.to_string(),
            seed: opts.seed,
            threads: opts.threads,
            queue_cap: opts.queue_cap.max(1),
            max_epoch_events: opts.max_epoch_events.max(1),
            bundle_dir: opts.bundle_dir.clone(),
            stop_on_violation: opts.stop_on_violation,
            check_delay_ns: opts.check_delay_ns,
            check_duty_per_mille: opts.check_duty_per_mille.clamp(1, 1000),
        });
        let workers = (0..opts.checkers.max(1))
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || worker(s))
            })
            .collect();
        SoakEngine {
            shared,
            workers,
            assembler: AssemblerKind::new(opts.assembler_memory),
            sealed: 0,
            shed: 0,
            oversize: 0,
            ops_recorded: 0,
            last_epoch: 0,
            opts,
        }
    }

    /// The mutator-facing handle (sampling fraction + stop flag).
    pub fn handle(&self) -> SoakHandle {
        Arc::clone(&self.shared.control)
    }

    /// Seals one epoch: assembles the sampled batch into a checkable
    /// slice and enqueues it for the worker pool, shedding instead of
    /// blocking when the queue is full.
    pub fn submit(&mut self, epoch: u64, batch: Vec<SoakOp<E>>) {
        let _span = trace::span(Phase::Soak, "epoch-seal");
        self.sealed += 1;
        self.last_epoch = self.last_epoch.max(epoch);
        self.ops_recorded += batch.len() as u64;
        let slice = self.assembler.assemble(epoch, batch);
        self.enqueue(epoch, slice);
        self.gauge_telemetry();
    }

    /// Publishes the engine's accounting into the telemetry registry
    /// (read by the sampler thread; stores only, never read back — see
    /// `orc11::telemetry`).
    fn gauge_telemetry(&self) {
        let checked = lock(&self.shared.stats).checked;
        orc11::telemetry::gauge_soak(
            self.sealed,
            checked,
            self.shed,
            u64::from(self.shared.control.governor.per_mille()),
            self.ops_recorded,
        );
    }

    fn enqueue(&mut self, epoch: u64, slice: Vec<SoakOp<E>>) {
        let control = &self.shared.control;
        if control.stop_requested() {
            // Post-violation epochs are shed so accounting balances.
            self.shed += 1;
            return;
        }
        if slice.len() > self.shared.max_epoch_events {
            // The search's tail grows with the overlap an epoch holds
            // (see `max_epoch_events`). Shed the oversized epoch and
            // degrade sampling so the next one fits the budget.
            let _shed = trace::span(Phase::Soak, "epoch-shed");
            control.governor.shed();
            self.shed += 1;
            self.oversize += 1;
            trace::counter(
                "soak_sample_per_mille",
                u64::from(control.governor.per_mille()),
            );
            return;
        }
        let depth = {
            let mut q = lock(&self.shared.queue);
            if q.items.len() >= self.shared.queue_cap {
                None
            } else {
                q.items.push_back((epoch, slice));
                Some(q.items.len())
            }
        };
        match depth {
            Some(d) => {
                self.shared.ready.notify_one();
                trace::counter("soak_queue_depth", d as u64);
            }
            None => {
                let _shed = trace::span(Phase::Soak, "epoch-shed");
                control.governor.shed();
                self.shed += 1;
            }
        }
        trace::counter(
            "soak_sample_per_mille",
            u64::from(control.governor.per_mille()),
        );
    }

    /// Marks the live workload as finished: epochs checked after this
    /// no longer count toward `epochs_checked_live`.
    pub fn mutators_done(&self) {
        self.shared.control.live.store(false, Ordering::SeqCst);
    }

    /// Drains the queue, joins the workers, and returns the report.
    /// Throughput fields (`ops_total`, rates, overhead) are zero; the
    /// driver that measured them fills them in.
    pub fn finish(mut self) -> SoakReport {
        // Force-resolve assembler stragglers as one final sealed epoch.
        let flush = self.assembler.flush();
        if !flush.is_empty() {
            self.sealed += 1;
            let epoch = self.last_epoch + 1;
            self.enqueue(epoch, flush);
        }
        {
            let mut q = lock(&self.shared.queue);
            while !(self.shared.control.stop_requested() || q.items.is_empty() && q.in_flight == 0)
            {
                q = self
                    .shared
                    .drained
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // A violation stop abandons whatever is still queued; count
            // it as shed so checked + shed == sealed still holds.
            self.shed += q.items.len() as u64;
            q.items.clear();
            q.closed = true;
        }
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.gauge_telemetry();
        let stats = lock(&self.shared.stats);
        SoakReport {
            subject: self.shared.name.clone(),
            seed: self.opts.seed,
            threads: self.opts.threads,
            checkers: self.opts.checkers.max(1),
            epochs_sealed: self.sealed,
            epochs_checked: stats.checked,
            epochs_shed: self.shed,
            epochs_oversize: self.oversize,
            epochs_checked_live: stats.checked_live,
            ops_total: 0,
            ops_recorded: self.ops_recorded,
            events_checked: stats.events_checked,
            sample_per_mille_initial: self.shared.control.governor.initial_per_mille(),
            sample_per_mille_final: self.shared.control.governor.per_mille(),
            sample_per_mille_min: self.shared.control.governor.min_per_mille(),
            assembly: self.assembler.stats(),
            violations: stats.violations.clone(),
            bundle: stats.bundle.clone(),
            wall_ns: 0,
            baseline_ops_per_sec: 0.0,
            soak_ops_per_sec: 0.0,
            overhead_pct: 0.0,
            checker_phase: stats.phase,
        }
    }
}

impl<E: SoakEvent> Drop for SoakEngine<E> {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        {
            let mut q = lock(&self.shared.queue);
            q.closed = true;
        }
        self.shared.control.stop.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Final accounting for a soak run: what was driven, what was observed,
/// what was checked, and what it cost. Serialized into metrics schema
/// v8 (`soak` field) and printed as the `e13_soak` report header.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Subject (structure) name.
    pub subject: String,
    /// Session seed (set `COMPASS_SEED` to this value to reproduce).
    pub seed: u64,
    /// Mutator threads.
    pub threads: usize,
    /// Checker worker threads.
    pub checkers: usize,
    /// Epochs sealed (submitted) in total.
    pub epochs_sealed: u64,
    /// Epochs whose slices were conformance-checked.
    pub epochs_checked: u64,
    /// Epochs dropped unchecked under backpressure (or after a
    /// violation stop).
    pub epochs_shed: u64,
    /// Subset of `epochs_shed` dropped because the assembled slice
    /// exceeded [`SoakOptions::max_epoch_events`].
    pub epochs_oversize: u64,
    /// Epochs checked while mutators were still running — the "online"
    /// in online checking.
    pub epochs_checked_live: u64,
    /// Operations performed by the workload (recorded or not);
    /// driver-filled.
    pub ops_total: u64,
    /// Operations recorded into epochs (the sampled fraction).
    pub ops_recorded: u64,
    /// Events across all checked slices (includes carried-over
    /// re-presentations).
    pub events_checked: u64,
    /// Configured starting sampling fraction (per-mille).
    pub sample_per_mille_initial: u32,
    /// Sampling fraction when the run ended.
    pub sample_per_mille_final: u32,
    /// Lowest fraction the governor reached.
    pub sample_per_mille_min: u32,
    /// Drop/eviction counters from slice assembly.
    pub assembly: AssemblyStats,
    /// Violations by clause.
    pub violations: BTreeMap<&'static str, u64>,
    /// First violation's replay bundle, if one was written.
    pub bundle: Option<PathBuf>,
    /// Wall-clock duration of the recorded soak segment (ns);
    /// driver-filled.
    pub wall_ns: u64,
    /// Unrecorded throughput (ops/sec); driver-filled. Under A/B epoch
    /// interleaving this is the off-epoch rate, measured with the same
    /// thread count and checker activity as the recording epochs.
    pub baseline_ops_per_sec: f64,
    /// Recorded throughput (ops/sec); driver-filled — the
    /// recording-epoch rate under A/B interleaving.
    pub soak_ops_per_sec: f64,
    /// Recording overhead versus baseline, percent; driver-filled.
    pub overhead_pct: f64,
    /// Exclusive per-phase time accumulated by the checker workers.
    pub checker_phase: PhaseNs,
}

impl SoakReport {
    /// Whether every sealed epoch is accounted for:
    /// `checked + shed == sealed`.
    pub fn balanced(&self) -> bool {
        self.epochs_checked + self.epochs_shed == self.epochs_sealed
    }

    /// Whether the run observed no violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fills the driver-side throughput fields and derives the
    /// overhead estimate.
    pub fn set_throughput(&mut self, baseline_ops_per_sec: f64, soak_ops_per_sec: f64) {
        self.baseline_ops_per_sec = baseline_ops_per_sec;
        self.soak_ops_per_sec = soak_ops_per_sec;
        self.overhead_pct = if baseline_ops_per_sec > 0.0 {
            ((baseline_ops_per_sec - soak_ops_per_sec) / baseline_ops_per_sec * 100.0).max(0.0)
        } else {
            0.0
        };
    }

    /// Serializes the report (metrics schema v8 `soak` shape).
    pub fn to_json(&self) -> Json {
        let mut violations = Json::obj();
        for (rule, n) in &self.violations {
            violations = violations.set(rule, *n);
        }
        let epochs = Json::obj()
            .set("sealed", self.epochs_sealed)
            .set("checked", self.epochs_checked)
            .set("checked_live", self.epochs_checked_live)
            .set("shed", self.epochs_shed)
            .set("oversize", self.epochs_oversize);
        let sampling = Json::obj()
            .set("initial_per_mille", self.sample_per_mille_initial)
            .set("final_per_mille", self.sample_per_mille_final)
            .set("min_per_mille", self.sample_per_mille_min);
        let dropped = Json::obj()
            .set("unmatched", self.assembly.dropped_unmatched)
            .set("empties", self.assembly.dropped_empties)
            .set("unpaired", self.assembly.dropped_unpaired)
            .set("unconsumed", self.assembly.dropped_unconsumed)
            .set("evictions", self.assembly.evictions);
        let bundle = match &self.bundle {
            Some(p) => Json::from(p.display().to_string()),
            None => Json::Null,
        };
        Json::obj()
            .set("subject", self.subject.as_str())
            .set("seed", self.seed)
            .set("threads", self.threads)
            .set("checkers", self.checkers)
            .set("epochs", epochs)
            .set("ops_total", self.ops_total)
            .set("ops_recorded", self.ops_recorded)
            .set("events_checked", self.events_checked)
            .set("sampling", sampling)
            .set("dropped", dropped)
            .set("violations", violations)
            .set("bundle", bundle)
            .set("wall_ns", self.wall_ns)
            .set("baseline_ops_per_sec", self.baseline_ops_per_sec)
            .set("soak_ops_per_sec", self.soak_ops_per_sec)
            .set("overhead_pct", self.overhead_pct)
            .set("checker_phase_ns", self.checker_phase.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conform;
    use crate::queue_spec::QueueEvent;
    use orc11::Val;
    use std::time::Instant;

    fn int(i: i64) -> Val {
        Val::Int(i)
    }

    fn op(thread: usize, ev: QueueEvent, inv: u64, resp: u64) -> SoakOp<QueueEvent> {
        SoakOp {
            thread,
            op: ev,
            inv,
            resp,
        }
    }

    fn quiet_opts() -> SoakOptions {
        SoakOptions {
            checkers: 2,
            queue_cap: 8,
            seed: 42,
            threads: 2,
            ..SoakOptions::default()
        }
    }

    #[test]
    fn clean_epochs_check_clean_and_balance() {
        let mut eng = SoakEngine::<QueueEvent>::start("unit-queue", quiet_opts());
        // FIFO traffic split across epochs: every epoch's deq consumes
        // the previous epoch's enq.
        for e in 0..32u64 {
            let base = e * 100;
            let mut batch = vec![op(0, QueueEvent::Enq(int(e as i64)), base + 1, base + 2)];
            if e > 0 {
                batch.push(op(
                    1,
                    QueueEvent::Deq(int(e as i64 - 1)),
                    base + 3,
                    base + 4,
                ));
            }
            eng.submit(e, batch);
        }
        eng.mutators_done();
        let report = eng.finish();
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert!(report.balanced());
        assert_eq!(report.epochs_sealed, 32);
        assert_eq!(report.epochs_checked + report.epochs_shed, 32);
        assert!(report.events_checked > 0);
        let json = report.to_json().render();
        assert!(json.contains("\"sealed\": 32") || json.contains("\"sealed\":32"));
    }

    #[test]
    fn oversized_epochs_are_shed_not_checked() {
        let mut eng = SoakEngine::<QueueEvent>::start(
            "unit-oversize",
            SoakOptions {
                max_epoch_events: 4,
                ..quiet_opts()
            },
        );
        // Epoch 0 fits the budget; epoch 1 (6 events) exceeds it.
        eng.submit(
            0,
            vec![
                op(0, QueueEvent::Enq(int(1)), 1, 2),
                op(1, QueueEvent::Deq(int(1)), 3, 4),
            ],
        );
        let mut big = Vec::new();
        for i in 0..3i64 {
            let base = 100 + i as u64 * 10;
            big.push(op(0, QueueEvent::Enq(int(10 + i)), base, base + 1));
            big.push(op(1, QueueEvent::Deq(int(10 + i)), base + 2, base + 3));
        }
        eng.submit(1, big);
        eng.mutators_done();
        let report = eng.finish();
        assert!(report.balanced(), "{report:?}");
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert_eq!(report.epochs_oversize, 1, "{report:?}");
        assert!(report.epochs_shed >= 1);
        // The governor degraded sampling in response.
        assert!(report.sample_per_mille_min < report.sample_per_mille_initial);
    }

    #[test]
    fn cross_epoch_duplicate_take_is_flagged_and_bundle_rechecks() {
        let dir = std::env::temp_dir().join(format!(
            "compass-soak-unit-{}-{:x}",
            std::process::id(),
            Instant::now().elapsed().as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut eng = SoakEngine::<QueueEvent>::start(
            "unit-weak-queue",
            SoakOptions {
                bundle_dir: Some(dir.clone()),
                stop_on_violation: true,
                ..quiet_opts()
            },
        );
        eng.submit(
            0,
            vec![
                op(0, QueueEvent::Enq(int(7)), 0, 1),
                op(1, QueueEvent::Deq(int(7)), 2, 3),
            ],
        );
        // The duplicate pop of 7 arrives an epoch later — the online
        // weak-queue signature.
        eng.submit(1, vec![op(1, QueueEvent::Deq(int(7)), 10, 11)]);
        eng.mutators_done();
        let report = eng.finish();
        assert_eq!(report.violations.get("CONFORM-QUEUE-DUP"), Some(&1));
        assert!(report.balanced());
        let bundle = report.bundle.clone().expect("bundle written");
        let (g, res) = conform::recheck::<QueueEvent>(&bundle).unwrap();
        assert!(g.len() >= 3);
        assert_eq!(res.unwrap_err().rule, "CONFORM-QUEUE-DUP");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overload_sheds_without_blocking_and_accounting_balances() {
        // One deliberately slow checker and a tiny queue: submissions
        // outrun checking, so epochs must shed and the governor must
        // degrade — all without submit() ever blocking.
        let mut eng = SoakEngine::<QueueEvent>::start(
            "unit-overload",
            SoakOptions {
                checkers: 1,
                queue_cap: 2,
                sample_per_mille: 800,
                check_delay_ns: 3_000_000, // 3ms per epoch
                seed: 1,
                threads: 1,
                ..SoakOptions::default()
            },
        );
        let handle = eng.handle();
        let submit_start = Instant::now();
        for e in 0..64u64 {
            let base = e * 10;
            eng.submit(
                e,
                vec![op(0, QueueEvent::Enq(int(e as i64)), base, base + 1)],
            );
        }
        let submit_elapsed = submit_start.elapsed();
        // 64 submissions against a 3ms-per-check worker: if submit
        // blocked on the checker we'd be near 192ms. Generous bound to
        // stay robust on loaded CI machines.
        assert!(
            submit_elapsed < Duration::from_millis(100),
            "mutator-side submit was blocked: {submit_elapsed:?}"
        );
        assert!(handle.sample_per_mille() < 800, "governor never shed");
        eng.mutators_done();
        let report = eng.finish();
        assert!(report.epochs_shed > 0, "overload never shed an epoch");
        assert!(report.balanced(), "checked+shed != sealed: {report:?}");
        assert_eq!(report.epochs_sealed, 64);
        assert!(report.sample_per_mille_min < 800);
        assert!(report.clean());
    }

    #[test]
    fn duty_throttle_converts_check_cost_into_shedding() {
        // duty = 100‰ with 2ms checks: each check owes ~18ms of idle,
        // so a burst of sealed epochs must overflow the tiny queue and
        // shed — the feedback path the governor needs on machines where
        // checkers share cores with mutators.
        let mut eng = SoakEngine::<QueueEvent>::start(
            "unit-duty",
            SoakOptions {
                checkers: 1,
                queue_cap: 2,
                sample_per_mille: 800,
                check_delay_ns: 2_000_000,
                check_duty_per_mille: 100,
                seed: 1,
                threads: 1,
                ..SoakOptions::default()
            },
        );
        for e in 0..24u64 {
            let base = e * 10;
            eng.submit(
                e,
                vec![op(0, QueueEvent::Enq(int(e as i64)), base, base + 1)],
            );
        }
        eng.mutators_done();
        let drain_start = Instant::now();
        let report = eng.finish();
        // The final drain runs unthrottled (mutators are done): at most
        // queue_cap + in-flight epochs at 2ms each, nowhere near the
        // ~18ms-per-epoch throttled rate.
        assert!(drain_start.elapsed() < Duration::from_millis(500));
        assert!(report.balanced(), "{report:?}");
        assert!(report.epochs_shed > 0, "duty throttle never shed");
        assert!(report.sample_per_mille_min < 800, "governor never degraded");
        assert!(report.clean());
    }

    #[test]
    fn tracked_values_round_trip() {
        let v = soak_value(3, 1234, true);
        assert!(is_tracked(v));
        assert!(!is_tracked(soak_value(3, 1234, false)));
        // Distinct threads/seqs give distinct values.
        assert_ne!(soak_value(1, 7, true), soak_value(2, 7, true));
        assert_ne!(soak_value(1, 7, true), soak_value(1, 8, true));
    }
}
