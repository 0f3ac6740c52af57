//! The soak driver: a native library's roles ([`crate::roles`]) driven
//! at saturation on real OS threads, with sharded epoch recording
//! feeding the streaming check pipeline (`compass::soak`; DESIGN.md
//! §11).
//!
//! [`soak`] runs two segments on *fresh* instances of the library:
//!
//! 1. an **unrecorded baseline** — the same mutator loop with recording
//!    off (no epoch ticks, no timestamps, no sampling) — used only to
//!    size the initial sampling fraction, and
//! 2. the **recorded soak** — mutators sample operations into
//!    [`ShardWriter`]s while the main thread rotates the epoch on a
//!    fixed interval, collects sealed shards, and submits each epoch to
//!    a [`SoakEngine`] whose checker pool runs the `CONFORM-*` checks
//!    concurrently with the live workload.
//!
//! The reported recording overhead comes from **A/B epoch
//! interleaving** inside the recorded segment: a seeded per-epoch coin
//! flip (see [`recording_epoch`]) decides whether an epoch samples, and
//! the overhead estimate is the median throughput ratio over matched
//! adjacent opposite-class epoch pairs after transient trimming (see
//! [`ab_rates`]). Both classes see
//! the identical thread count, checker activity, scheduler regime, and
//! structure aging, so the difference isolates the recording
//! instrumentation — a separate unrecorded segment cannot do that on a
//! machine where mutators and checkers share cores, because the
//! scheduler noise between two runs dwarfs the recording cost. (Takes
//! of tracked values still record during off epochs so cross-epoch
//! pairs complete; at a few per-mille sampling that is a handful of
//! events per epoch.)
//!
//! The overhead (target: < 10%) is controlled from
//! both ends: the *initial* sampling fraction is sized from the
//! measured baseline so early epoch slices stay small enough for the
//! staged checks (see [`SoakRunOptions::target_events_per_epoch`] and
//! [`slice_budget`]), and the engine's governor degrades the fraction
//! further if the check pipeline falls behind. Only the *produce* side
//! draws from the sampler: consumers record a take exactly when the
//! value they pulled out is tracked (its produce was recorded), using a
//! conservatively widened invocation timestamp since the decision is
//! made after the fact (sound — widening only removes real-time
//! precedence edges; DESIGN.md §11). Every tracked produce therefore
//! yields a whole checkable pair, so the observed-event rate is
//! *linear* in the sampling fraction and nothing is recorded only to
//! be dropped as unconsumed. Unsampled operations do **zero** clock
//! reads and **zero** RNG divisions: the sampling decision is a stride
//! countdown (one decrement + branch per op), the op-mix draw is a
//! threshold compare on a raw `u64`, the tracked-value test is a single
//! AND, and the epoch tick runs every 16 operations rather than every
//! one. These loops run on nanosecond-scale structures where a single
//! 64-bit modulo (~25 cycles) shows up as double-digit "overhead".
//!
//! There is one mutator loop (`Segment::mutate`) for every library and both
//! segments. What varies is read off the role and the vocabulary: a
//! role's [`Ops`] decide whether it draws from the op mix, a take is
//! recorded when `SoakEvent::taken` yields a tracked value, and a
//! `PAIRWISE` vocabulary (the exchanger) is recorded in full — a
//! sampled-out partner would make its counterpart look unpaired — so it
//! skips the baseline and relies on pacing (`opts.mode`) plus the
//! engine's epoch shedding to bound the check load.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use compass::conform::ConformEvent;
use compass::soak::{
    is_tracked, soak_value, LoopMode, OpMix, Pacer, SoakEngine, SoakEvent, SoakHandle, SoakOp,
    SoakOptions, SoakReport,
};
use compass_native::perf::LatencyHist;
use compass_native::recorder::{Clock, EpochCounter, Jitter, Shard, ShardWriter};
use orc11::{Json, Val};

use crate::perf::hist_json;
use crate::roles::{is_pipeline, run_roles, Library, Ops, Role, Subject};

/// Configuration for one soak run (both segments).
#[derive(Clone, Debug)]
pub struct SoakRunOptions {
    /// Mutator threads (a library may adjust it: the SPSC ring always
    /// runs 2).
    pub threads: usize,
    /// Epoch rotations in the recorded segment (its wall time is
    /// roughly `epochs * rotate_ms`).
    pub epochs: u64,
    /// Epoch rotation interval in milliseconds.
    pub rotate_ms: u64,
    /// Closed-loop saturation or open-loop fixed arrival rate.
    pub mode: LoopMode,
    /// Produce/consume mix for the symmetric drivers.
    pub mix: OpMix,
    /// *Cap* on the recording fraction in per-mille; the measured
    /// baseline may start the governor lower (see
    /// [`SoakRunOptions::target_events_per_epoch`]).
    pub sample_per_mille: u32,
    /// Size the initial sampling fraction so one epoch slice holds
    /// about this many events (0 disables the adaptation). The staged
    /// conformance checks build real-time-order graphs, so slices must
    /// stay in the small-thousands range regardless of how fast the
    /// structure runs.
    pub target_events_per_epoch: u64,
    /// Checker worker threads.
    pub checkers: usize,
    /// Sealed-epoch queue depth before shedding.
    pub queue_cap: usize,
    /// Session seed (see `COMPASS_SEED` / `recorder::seed_from_env`).
    pub seed: u64,
    /// Where violation bundles are written (`None` = don't).
    pub bundle_dir: Option<PathBuf>,
    /// Stop the run at the first violation.
    pub stop_on_violation: bool,
    /// Duration of the unrecorded baseline segment, used only to size
    /// the initial sampling fraction (0 skips it; sampling then starts
    /// at the cap). The overhead estimate does not use it — that comes
    /// from A/B epoch interleaving inside the recorded segment.
    pub baseline_ms: u64,
    /// Checker CPU duty budget in per-mille (1000 = unthrottled); see
    /// `SoakOptions::check_duty_per_mille`. `e13_soak` throttles when
    /// the machine has no spare cores for the checker pool.
    pub check_duty_per_mille: u32,
}

impl Default for SoakRunOptions {
    fn default() -> Self {
        SoakRunOptions {
            threads: 4,
            epochs: 24,
            rotate_ms: 20,
            mode: LoopMode::Closed,
            mix: OpMix::balanced(),
            sample_per_mille: 250,
            target_events_per_epoch: slice_budget(4),
            checkers: 2,
            queue_cap: 8,
            seed: 0,
            bundle_dir: None,
            stop_on_violation: false,
            baseline_ms: 120,
            check_duty_per_mille: 1000,
        }
    }
}

/// A per-epoch slice-size budget that keeps the streaming checks
/// comfortably cheaper than the rotation interval.
///
/// The linearization search's node count grows exponentially with the
/// number of overlapping operations, which grows with the thread count,
/// so the budget scales as `1/threads²`. (The numbers were sized when
/// the polynomial part of the check was still cubic in slice size; on
/// dense `lhb` rows that part is about a millisecond at 512 events —
/// DESIGN.md §7 — so the budget is now conservative for the
/// near-sequential histories sampling produces.) Drivers feed this into
/// [`SoakRunOptions::target_events_per_epoch`]; the engine's
/// `max_epoch_events` guard (sized from the same number) sheds any
/// epoch that overshoots it anyway.
pub fn slice_budget(threads: usize) -> u64 {
    let t = threads.max(1) as u64;
    (1_200 / (t * t)).clamp(64, 1_200)
}

impl SoakRunOptions {
    /// The initial sampling fraction: the configured cap, lowered so a
    /// rotation interval of baseline-rate traffic yields about
    /// [`SoakRunOptions::target_events_per_epoch`] checkable events.
    ///
    /// Only produces draw from the sampler; consumers record a take
    /// whenever the value is tracked, so every tracked produce yields a
    /// whole pair and events scale *linearly*: with a balanced mix,
    /// `events ≈ ops · pm/1000` per epoch, and the fraction solves
    /// `pm = 1000 · target/ops`.
    fn effective_sample(&self, baseline_ops_per_sec: f64) -> u32 {
        if self.target_events_per_epoch == 0 || baseline_ops_per_sec <= 0.0 {
            return self.sample_per_mille;
        }
        let per_epoch = baseline_ops_per_sec * self.rotate_ms as f64 / 1_000.0;
        if per_epoch <= 0.0 {
            return self.sample_per_mille;
        }
        let ratio = (self.target_events_per_epoch as f64 / per_epoch).min(1.0);
        let ideal = (1_000.0 * ratio).ceil() as u32;
        ideal.clamp(1, self.sample_per_mille.max(1))
    }

    fn engine_opts(&self, sample_per_mille: u32) -> SoakOptions {
        // The oversize guard sits well above the target so ordinary
        // jitter passes, but a mis-sized epoch (sampling adapted against
        // a cold baseline, say) is shed instead of stalling a checker.
        let max_epoch_events = if self.target_events_per_epoch > 0 {
            (self.target_events_per_epoch as usize * 4).clamp(256, 4096)
        } else {
            4096
        };
        SoakOptions {
            checkers: self.checkers,
            queue_cap: self.queue_cap,
            sample_per_mille,
            seed: self.seed,
            threads: self.threads,
            bundle_dir: self.bundle_dir.clone(),
            stop_on_violation: self.stop_on_violation,
            max_epoch_events,
            check_duty_per_mille: self.check_duty_per_mille,
            ..SoakOptions::default()
        }
    }
}

/// Amortized sampling decision: instead of an RNG draw plus a governor
/// load per operation, one jittered stride is drawn whenever an op
/// records and counted down through the unrecorded ones — the steady-
/// state cost is a decrement and a branch. The stride mean is
/// `1000 / per_mille - 1`, so the recorded fraction tracks the
/// governor's per-mille (quantized to `1/⌈1000/pm⌉`, exact at full
/// sampling); divisions happen only on the rare recording path.
struct Sampler {
    gap_left: u64,
}

impl Sampler {
    fn new() -> Self {
        Sampler { gap_left: 0 }
    }

    /// Whether the current operation should be recorded.
    #[inline]
    fn due(&mut self, handle: &SoakHandle, jitter: &mut Jitter) -> bool {
        if self.gap_left > 0 {
            self.gap_left -= 1;
            return false;
        }
        let pm = u64::from(handle.sample_per_mille()).clamp(1, 1000);
        let gap = 1000 / pm;
        if gap > 1 {
            // Uniform in [0, 2·gap − 2]: mean gap − 1, so one op in
            // `gap` records; the jitter avoids phase-locking with any
            // structure-internal periodicity.
            self.gap_left = jitter.below(2 * gap - 1);
        }
        true
    }
}

/// Brief pause after an unsuccessful consume (empty pop / failed
/// steal). Both segments use it identically, so it cancels out of the
/// overhead estimate; without it an empty-spinning consumer issues
/// ~1.5ns no-op "operations" that drown the throughput numbers in
/// spin-rate noise.
#[inline]
fn empty_backoff() {
    for _ in 0..16 {
        std::hint::spin_loop();
    }
}

/// Everything a soak run produced: the engine's accounting plus the
/// driver-side latency histograms (exact-interval recorded ops only —
/// sampled produces, and every exchange in the exchanger driver;
/// widened take intervals are not latencies and are excluded).
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// Final accounting (throughput fields filled in by the driver).
    pub report: SoakReport,
    /// Merged latency histogram over all sampled operations.
    pub hist: LatencyHist,
    /// Per-epoch latency histograms, ascending by epoch.
    pub per_epoch: Vec<(u64, LatencyHist)>,
}

/// Serializes an outcome for the metrics-v8 `soak` field: the report
/// plus the overall histogram and a bounded per-epoch latency series.
pub fn outcome_json(o: &SoakOutcome) -> Json {
    let mut per_epoch = Json::arr();
    for (epoch, h) in o.per_epoch.iter().take(64) {
        per_epoch = per_epoch.push(
            Json::obj()
                .set("epoch", *epoch)
                .set("count", h.count())
                .set("p50_ns", h.p50())
                .set("p99_ns", h.p99()),
        );
    }
    o.report
        .to_json()
        .set("latency", hist_json(&o.hist))
        .set("latency_per_epoch", per_epoch)
}

/// Collects every shard's sealed buffers for all *complete* epochs and
/// submits them (in epoch order, empty epochs included) to the engine.
///
/// An epoch is complete once every shard's watermark has passed it; a
/// finished writer publishes watermark `u64::MAX`, in which case the
/// bound is the counter's current epoch.
fn collect_epochs<Ev: SoakEvent>(
    shards: &[Shard<Ev>],
    epochs: &EpochCounter,
    engine: &mut SoakEngine<Ev>,
    next: &mut u64,
) {
    let min_wm = shards.iter().map(|s| s.watermark()).min().unwrap_or(0);
    if min_wm == 0 {
        return;
    }
    let bound = if min_wm == u64::MAX {
        epochs.current()
    } else {
        min_wm - 1
    };
    if bound < *next {
        return;
    }
    let mut buckets: BTreeMap<u64, Vec<SoakOp<Ev>>> = BTreeMap::new();
    for (thread, shard) in shards.iter().enumerate() {
        for (epoch, ops) in shard.take_upto(bound) {
            buckets
                .entry(epoch)
                .or_default()
                .extend(ops.into_iter().map(|t| SoakOp {
                    thread,
                    op: t.op,
                    inv: t.inv,
                    resp: t.resp,
                }));
        }
    }
    for epoch in *next..=bound {
        engine.submit(epoch, buckets.remove(&epoch).unwrap_or_default());
    }
    *next = bound + 1;
}

/// Busy-waits (with epoch ticks and stop checks) until the open-loop
/// deadline, if the pacer has one. Returns `false` if the run stopped.
fn pace_until(
    pacer: &mut Pacer,
    clock_now: impl Fn() -> u64,
    stop: &AtomicBool,
    mut tick: impl FnMut(),
) -> bool {
    if let Some(due) = pacer.next_due_ns() {
        loop {
            let now = clock_now();
            if now >= due {
                break;
            }
            if stop.load(Ordering::Relaxed) {
                return false;
            }
            tick();
            // Spin near the deadline (keeps sub-100µs arrival jitter
            // tight and the thread hot); sleep when it is far away so
            // slow-rate open-loop workers do not burn a core waiting.
            if due - now > 200_000 {
                std::thread::sleep(Duration::from_nanos(due - now - 100_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
    true
}

/// Whether `epoch` is a recording ("A") epoch in the A/B interleave.
///
/// The assignment is a seeded hash of the epoch number, not a simple
/// even/odd split, and that is load-bearing: checker CPU burn is
/// *phase-locked* to recording epochs (only they seal event-bearing
/// slices, and each slice's check burns CPU in the epochs right after
/// it seals), so any deterministic periodic pattern lets that burn land
/// systematically on one class — with even/odd, whether it hit the ON
/// or OFF class depended on check duration and duty-throttle sleep,
/// which fabricated overhead contrasts of either sign that moved
/// between runs and subjects. A per-epoch coin flip decorrelates the
/// burn from the class, so contamination hits both classes alike and
/// the high-quantile estimator in [`ab_rates`] discards it. Epoch 0
/// always records: the cold-start transient then biases *against*
/// recording for drivers too short to trim it (conservative).
fn recording_epoch(seed: u64, epoch: u64) -> bool {
    if epoch == 0 {
        return true;
    }
    // splitmix64-style finalizer: cheap, stateless, balanced.
    let mut z = seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 0
}

/// The (recording-epoch, off-epoch) throughputs from the per-epoch op
/// counts, as **matched adjacent-epoch pairs**: for every pair of
/// neighbouring steady-state epochs in opposite classes, take the
/// on/off throughput ratio, and report the median ratio applied to the
/// overall median epoch rate.
///
/// Why pairs, not per-class summaries: per-epoch throughput on a
/// core-shared box is not just noisy, it is *multi-modal* — a stolen
/// timeslice eats half a 20ms window, a sleeping checker pool hands
/// the mutators a free core, and some structures flip between regimes
/// 20× apart that persist for many epochs. Any per-class statistic
/// (mean, median, high quantile — all were tried) then measures the
/// accidental difference in mixture weights between two ~20-sample
/// classes, fabricating overheads up to 90%. Neighbouring epochs,
/// by contrast, almost always sit in the *same* regime, so each pair's
/// ratio isolates the recording cost under that regime; the
/// interquartile mean over ~20 pairs discards the few that straddle a
/// regime switch while averaging down the per-pair scheduler noise
/// (a plain median of so few ratios still wobbles several percent).
/// The randomized class assignment ([`recording_epoch`]) is what makes
/// neighbouring opposite-class pairs exist and keeps periodic checker
/// burn from landing on one side of every pair.
///
/// Transient epochs are excluded: the first two (a cold structure with
/// no checker running yet can be an order of magnitude faster than
/// steady state) and the last (once the coordinator stops rotating,
/// mutators sprint checker-free until they observe the stop flag, and
/// those ops are all attributed to the final epoch). Epochs past the
/// configured count (the straggler flush) are dropped for the same
/// reason.
fn ab_rates(opts: &SoakRunOptions, ops_by_epoch: Vec<(u64, u64)>) -> (f64, f64) {
    let mut per_epoch: BTreeMap<u64, u64> = BTreeMap::new();
    for (epoch, ops) in ops_by_epoch {
        if epoch >= 2 && epoch + 1 < opts.epochs {
            *per_epoch.entry(epoch).or_insert(0) += ops;
        }
    }
    let mut all: Vec<u64> = per_epoch.values().copied().collect();
    if all.is_empty() {
        return (0.0, 0.0);
    }
    all.sort_unstable();
    let overall = all[all.len() / 2] as f64 * 1_000.0 / opts.rotate_ms as f64;

    let mut ratios: Vec<f64> = per_epoch
        .iter()
        .filter_map(|(&e, &ops)| {
            let next = *per_epoch.get(&(e + 1))?;
            let (on, off) = if recording_epoch(opts.seed, e) {
                if recording_epoch(opts.seed, e + 1) {
                    return None;
                }
                (ops, next)
            } else {
                if !recording_epoch(opts.seed, e + 1) {
                    return None;
                }
                (next, ops)
            };
            (off > 0).then(|| on as f64 / off as f64)
        })
        .collect();
    if ratios.is_empty() {
        // Too few epochs to pair (tiny smoke presets): no estimate.
        return (overall, overall);
    }
    ratios.sort_unstable_by(|a, b| a.total_cmp(b));
    let (lo, hi) = (ratios.len() / 4, ratios.len() - ratios.len() / 4);
    let mid = &ratios[lo..hi];
    let ratio = mid.iter().sum::<f64>() / mid.len() as f64;
    (overall * ratio, overall)
}

/// Merges the per-thread `(epoch, hist)` mailbox into ascending
/// per-epoch histograms plus one grand total.
fn merge_epoch_hists(entries: Vec<(u64, LatencyHist)>) -> (Vec<(u64, LatencyHist)>, LatencyHist) {
    let mut by_epoch: BTreeMap<u64, LatencyHist> = BTreeMap::new();
    let mut total = LatencyHist::new();
    for (epoch, h) in entries {
        total.merge(&h);
        by_epoch.entry(epoch).or_default().merge(&h);
    }
    (by_epoch.into_iter().collect(), total)
}

/// What a recording mutator carries besides its role: its shard writer
/// and the per-epoch latency / op-count series it hands back when the
/// run stops (the op counts are the A/B throughput samples for
/// [`ab_rates`]).
struct Recording<'a, E> {
    writer: ShardWriter<'a, E>,
    handle: &'a SoakHandle,
    /// The session seed the A/B class of each epoch is drawn from.
    seed: u64,
    sampler: Sampler,
    /// Whether the current epoch is a recording ("A") epoch.
    on: bool,
    /// Lower bound for widened take intervals: a timestamp known to
    /// precede the next operation's true invocation (refreshed on
    /// every exact record and every 64th op).
    last_inv: u64,
    /// The epoch `hist` and `ops` are accumulating for.
    epoch: u64,
    hist: LatencyHist,
    ops: u64,
    filed: Series,
}

/// The per-epoch latency histograms and op counts of finished epochs.
#[derive(Default)]
struct Series {
    hists: Vec<(u64, LatencyHist)>,
    epoch_ops: Vec<(u64, u64)>,
}

impl<'a, E> Recording<'a, E> {
    fn new(
        shard: &'a Shard<E>,
        epochs: &'a EpochCounter,
        handle: &'a SoakHandle,
        clock: &Clock,
        seed: u64,
    ) -> Self {
        let writer = ShardWriter::new(shard, epochs, 4096);
        Recording {
            handle,
            seed,
            sampler: Sampler::new(),
            on: recording_epoch(seed, writer.epoch()),
            last_inv: clock.inv(),
            epoch: writer.epoch(),
            writer,
            hist: LatencyHist::new(),
            ops: 0,
            filed: Series::default(),
        }
    }

    /// Rolls the writer to the current epoch; on a flip, files the
    /// finished epoch's histogram and op count and re-draws the A/B
    /// class.
    fn tick(&mut self) {
        self.writer.tick();
        if self.writer.epoch() != self.epoch {
            self.file_epoch();
            self.epoch = self.writer.epoch();
        }
        self.on = recording_epoch(self.seed, self.epoch);
    }

    fn file_epoch(&mut self) {
        if !self.hist.is_empty() {
            let full = std::mem::replace(&mut self.hist, LatencyHist::new());
            self.filed.hists.push((self.epoch, full));
        }
        if self.ops > 0 {
            let ops = std::mem::take(&mut self.ops);
            self.filed.epoch_ops.push((self.epoch, ops));
        }
    }

    /// Seals the writer and hands back the per-epoch series.
    fn finish(mut self) -> Series {
        self.file_epoch();
        self.writer.finish();
        self.filed
    }
}

/// What the mutators of one segment share. Each segment runs on a
/// *fresh* instance of the library, so bounded structures (e.g.
/// [`compass_native::HwQueue`]) size their capacity per segment, and the
/// baseline's leftovers cannot skew the recorded run.
struct Segment<'a> {
    opts: &'a SoakRunOptions,
    /// Jitter seed (the baseline draws its own stream).
    seed: u64,
    produce_cap: u64,
    /// See [`is_pipeline`]: the two ends pace each other, so they skip
    /// the periodic stagger.
    pipeline: bool,
    clock: Clock,
    stop: AtomicBool,
}

impl<'a> Segment<'a> {
    /// A fresh instance's roles, and the context their threads share.
    fn new<R: Role>(lib: &Library<R>, opts: &'a SoakRunOptions, seed: u64) -> (Vec<R>, Self) {
        let roles = lib.roles(opts.threads, (lib.sizing.soak)(opts.threads));
        let segment = Segment {
            opts,
            seed,
            produce_cap: lib.sizing.soak_produce_cap,
            pipeline: is_pipeline(&roles),
            clock: Clock::new(),
            stop: AtomicBool::new(false),
        };
        (roles, segment)
    }

    /// One mutator's loop — the only copy; returns its op count. The
    /// unrecorded baseline runs it with `rec = None`; the recorded
    /// segment hands it a [`Recording`], and then stride-samples produces
    /// (every produce of a recording epoch for pairwise vocabularies),
    /// records a take exactly when the value it pulled out is tracked —
    /// under a widened invocation timestamp, since that is only known
    /// after the fact — and ticks the epoch every 16 operations. Pairwise
    /// vocabularies
    /// tick every operation: all threads then see an epoch flip within
    /// one op, so a cross-parity exchange is a rare boundary case — and
    /// one left unrecorded (see below), since its orphan half would sit
    /// in the assembler until the final flush and be flagged there.
    fn mutate<R: Role>(
        &self,
        mut role: R,
        index: usize,
        mut rec: Option<&mut Recording<'_, R::Ev>>,
    ) -> u64 {
        let (opts, clock, stop) = (self.opts, &self.clock, &self.stop);
        let ops = role.ops();
        // Only a role that takes reads `last_inv`; a pure producer is
        // spared the fenced clock reads that keep it fresh.
        let takes = ops != Ops::Produce;
        let pairwise = R::Ev::PAIRWISE;
        let tracked = |v: Val| matches!(v, Val::Int(w) if is_tracked(w));
        let tick_mask = if pairwise { 0 } else { 15 };
        let mut jitter = Jitter::for_thread(self.seed, index);
        let mut pacer = Pacer::new(opts.mode);
        let mut seq = 0u64;
        let mut local = 0u64;
        while !stop.load(Ordering::Relaxed) {
            if let Some(r) = rec.as_deref_mut().filter(|_| local & tick_mask == 0) {
                r.tick();
            }
            let idle_tick = || {
                if let Some(r) = rec.as_deref_mut() {
                    r.writer.tick();
                }
            };
            if !pace_until(&mut pacer, || clock.now(), stop, idle_tick) {
                break;
            }
            let produce = match ops {
                Ops::Both => opts.mix.is_produce(jitter.next_u64()) && seq < self.produce_cap,
                Ops::Produce => true,
                Ops::Consume => false,
            };
            if produce {
                let sampled = rec
                    .as_deref_mut()
                    .is_some_and(|r| r.on && (pairwise || r.sampler.due(r.handle, &mut jitter)));
                let v = soak_value(index, seq, sampled);
                seq += 1;
                match rec.as_deref_mut() {
                    Some(r) if sampled => {
                        // A pairwise success whose partner offered an
                        // untracked value met a thread in an off epoch:
                        // the partner did not record, the pair can never
                        // complete, so recording our half would only hand
                        // the checker an orphan at the final flush.
                        let (_, inv, resp) = r.writer.record_timed(
                            clock,
                            || role.produce(v),
                            |ev| ev.filter(|e| e.received().is_none_or(tracked)),
                        );
                        r.hist.record(resp - inv);
                        if takes {
                            r.last_inv = clock.inv();
                        }
                    }
                    _ => {
                        role.produce(v);
                    }
                }
            } else {
                let taken = role.consume().and_then(|ev| Some((ev, ev.taken()?)));
                match (taken, rec.as_deref_mut()) {
                    (Some((ev, w)), Some(r)) if tracked(w) => {
                        let resp = clock.resp();
                        r.writer.record_at(ev, r.last_inv, resp);
                        r.last_inv = clock.inv();
                    }
                    (Some(_), _) => {}
                    (None, _) => empty_backoff(),
                }
            }
            local += 1;
            if local & 63 == 0 && !self.pipeline {
                jitter.stagger();
            }
            if let Some(r) = rec.as_deref_mut() {
                r.ops += 1;
                if local & 63 == 0 && takes {
                    r.last_inv = clock.inv();
                }
            }
        }
        local
    }
}

/// Drives a library through both soak segments.
pub fn soak<R: Role>(lib: &Library<R>, opts: &SoakRunOptions) -> SoakOutcome {
    let threads = lib.threads(opts.threads);
    let opts = &SoakRunOptions {
        threads,
        ..opts.clone()
    };

    // Segment 1: unrecorded baseline. Pairwise vocabularies skip it:
    // full recording needs no sampling-fraction sizing, and the overhead
    // estimate comes from A/B interleaving.
    let pairwise = R::Ev::PAIRWISE;
    let baseline_rate = if pairwise || opts.baseline_ms == 0 {
        0.0
    } else {
        let (roles, seg) = Segment::new(lib, opts, opts.seed ^ 0xBA5E);
        let (ops, wall) = run_roles(
            roles,
            |index, role| seg.mutate(role, index, None),
            || {
                std::thread::sleep(Duration::from_millis(opts.baseline_ms));
                seg.stop.store(true, Ordering::SeqCst);
            },
        );
        ops.iter().sum::<u64>() as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE)
    };

    // Segment 2: recorded soak. The main thread rotates epochs
    // `opts.epochs` times, collecting and submitting sealed shards after
    // every rotation, then drains stragglers and finishes the engine.
    let sample = if pairwise {
        1000
    } else {
        opts.effective_sample(baseline_rate)
    };
    let mut engine = SoakEngine::<R::Ev>::start(lib.name, opts.engine_opts(sample));
    let handle = engine.handle();
    let epochs = EpochCounter::new();
    let shards: Vec<Shard<R::Ev>> = (0..threads).map(|_| Shard::new()).collect();
    let mut next = 0u64;
    let (roles, seg) = Segment::new(lib, opts, opts.seed);
    let (tallies, wall) = run_roles(
        roles,
        |index, role| {
            let mut rec = Recording::new(&shards[index], &epochs, &handle, &seg.clock, opts.seed);
            (seg.mutate(role, index, Some(&mut rec)), rec.finish())
        },
        || {
            for _ in 0..opts.epochs {
                std::thread::sleep(Duration::from_millis(opts.rotate_ms));
                epochs.advance();
                collect_epochs(&shards, &epochs, &mut engine, &mut next);
                if opts.stop_on_violation && handle.stop_requested() {
                    break;
                }
            }
            seg.stop.store(true, Ordering::SeqCst);
        },
    );
    engine.mutators_done();
    collect_epochs(&shards, &epochs, &mut engine, &mut next);
    let mut report = engine.finish();

    let mut hists = Vec::new();
    let mut epoch_ops = Vec::new();
    for (ops, series) in tallies {
        report.ops_total += ops;
        hists.extend(series.hists);
        epoch_ops.extend(series.epoch_ops);
    }
    report.wall_ns = wall.as_nanos() as u64;
    let (rate_on, rate_off) = ab_rates(opts, epoch_ops);
    report.set_throughput(rate_off, rate_on);
    let (per_epoch, hist) = merge_epoch_hists(hists);
    SoakOutcome {
        report,
        hist,
        per_epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::{queue, Sizing};
    use compass_native::MsQueue;

    fn quick() -> SoakRunOptions {
        SoakRunOptions {
            threads: 2,
            epochs: 6,
            rotate_ms: 5,
            baseline_ms: 20,
            seed: 7,
            ..SoakRunOptions::default()
        }
    }

    #[test]
    fn msqueue_smoke_soaks_clean_and_balances() {
        let lib = queue("msqueue-smoke", Sizing::FREE, |_| MsQueue::new());
        let out = soak(&lib, &quick());
        let r = &out.report;
        assert!(r.clean(), "violations: {:?}", r.violations);
        assert!(r.balanced(), "checked+shed != sealed: {r:?}");
        assert!(r.epochs_sealed >= 6, "too few epochs sealed: {r:?}");
        assert!(r.ops_total > 0);
        assert!(r.ops_recorded > 0, "nothing was recorded: {r:?}");
        assert!(!out.hist.is_empty());
    }

    #[test]
    fn effective_sample_targets_epoch_size() {
        let opts = SoakRunOptions {
            rotate_ms: 20,
            target_events_per_epoch: 1_000,
            sample_per_mille: 250,
            ..SoakRunOptions::default()
        };
        // 10 Mops/s * 20ms = 200k ops/epoch; takes record conditionally
        // on tracked values, so the model is linear: 1000·1000/200k = 5.
        assert_eq!(opts.effective_sample(10_000_000.0), 5);
        // Slow subject: cap applies.
        assert_eq!(opts.effective_sample(10_000.0), 250);
        // No baseline: cap applies.
        assert_eq!(opts.effective_sample(0.0), 250);
    }
}
