//! Invocation/response recording for the runtime conformance harness
//! (`feature = "recorder"`).
//!
//! `compass::conform` checks the *native* structures in this crate
//! against the paper's consistency specifications by stress-running them
//! on real threads and reconstructing a Compass event graph from the
//! real-time order of the operations. This module provides the
//! instrumentation side of that pipeline, kept deliberately tiny and
//! dependency-free:
//!
//! * [`Clock`] — one shared monotonic clock (nanoseconds since the round
//!   epoch) so invocation/response timestamps from different threads are
//!   comparable;
//! * [`OpLog`] — a thread-*owned* append buffer of [`TimedOp`]s. Each
//!   thread writes only its own log and the logs are handed back when the
//!   round joins, so recording needs no synchronization at all (the
//!   "lock-free thread-local buffer" is just a `Vec` the thread owns);
//! * [`Jitter`] — a seeded splitmix64 RNG for reproducible randomized
//!   yields/delays that perturb the schedule between operations;
//! * [`run_round`] — a barrier-started round: `threads` worker threads
//!   all block on one barrier, then run the workload closure, then join;
//! * [`EpochCounter`] / [`Shard`] / [`ShardWriter`] — sharded *epoch*
//!   capture for the soak engine: each mutator thread owns a
//!   [`ShardWriter`] appending to a plain `Vec` exactly like [`OpLog`],
//!   but a coordinator periodically advances the global epoch and the
//!   writer seals its buffer into the shard's mailbox at the next
//!   operation, so a long-running workload is captured as a stream of
//!   bounded epoch slices instead of one unbounded log. The mailbox
//!   `Mutex` is touched only at epoch boundaries — the per-operation
//!   hot path stays an unsynchronized `Vec::push` plus one relaxed
//!   atomic load of the epoch.
//!
//! Seeding is explicit throughout: every randomized component takes a
//! `u64` seed, and the drivers resolve theirs via [`seed_from_env`]
//! (`COMPASS_SEED`) and print it in their report headers, so a failing
//! soak or conformance run reproduces from the header alone.
//!
//! The op payload type `O` is chosen by the caller — the conformance
//! harness instantiates it with the event enums already defined in
//! `compass` (`QueueEvent`, `StackEvent`, …), so no operation vocabulary
//! is duplicated here.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};
use std::time::Instant;

/// Resolves a round seed: `COMPASS_SEED` if set (decimal, or hex with a
/// `0x`/`0X` prefix), otherwise `default`. Unparseable values warn on
/// stderr and fall back to `default` rather than silently changing the
/// run. Drivers print the resolved seed in their report header so any
/// failure reproduces with `COMPASS_SEED=<printed value>`.
pub fn seed_from_env(default: u64) -> u64 {
    let Ok(raw) = std::env::var("COMPASS_SEED") else {
        return default;
    };
    let raw = raw.trim();
    if raw.is_empty() {
        return default;
    }
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse::<u64>(),
    };
    match parsed {
        Ok(seed) => seed,
        Err(_) => {
            eprintln!("recorder: ignoring unparseable COMPASS_SEED={raw:?} (using {default})");
            default
        }
    }
}

/// A monotonic clock shared by every thread of a round.
///
/// Timestamps are nanoseconds since the clock's creation. `Instant` is
/// monotonic per the standard library's contract, and a single `Clock`
/// is shared by all threads, so timestamps are mutually comparable.
///
/// Comparable timestamps alone do **not** order the operations' memory
/// effects: an operation's last release store can still sit in the
/// core's store buffer when a bare [`Clock::now`] reads its "response"
/// time, so another thread invoked tens of nanoseconds *later* may
/// legally miss it. Operation intervals are therefore bracketed with
/// [`Clock::inv`] / [`Clock::resp`], whose `SeqCst` fences make
/// `a.resp < b.inv` imply that every effect of `a` is visible to `b`
/// (DESIGN.md §7).
#[derive(Debug)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// Starts a fresh clock; its epoch is "now".
    pub fn new() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// An invocation timestamp: the clock read, *then* a `SeqCst` fence,
    /// so none of the operation's accesses is performed before the time
    /// it claims to start at.
    pub fn inv(&self) -> u64 {
        let t = self.now();
        fence(Ordering::SeqCst);
        t
    }

    /// A response timestamp: a `SeqCst` fence, *then* the clock read, so
    /// every store of the operation has left the store buffer (is
    /// globally visible) by the time it claims to have ended at.
    pub fn resp(&self) -> u64 {
        fence(Ordering::SeqCst);
        self.now()
    }

    /// Runs `action` between an [`inv`](Clock::inv) and a
    /// [`resp`](Clock::resp) timestamp; returns `(result, inv, resp)`
    /// with `inv <= resp`.
    pub fn bracket<R>(&self, action: impl FnOnce() -> R) -> (R, u64, u64) {
        let inv = self.inv();
        let result = action();
        let resp = self.resp().max(inv);
        (result, inv, resp)
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// One recorded operation: the op payload plus its invocation and
/// response timestamps (from the round's [`Clock`], `inv <= resp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOp<O> {
    /// What the operation was (and returned), in the caller's vocabulary.
    pub op: O,
    /// Timestamp taken immediately before the call.
    pub inv: u64,
    /// Timestamp taken immediately after the call returned.
    pub resp: u64,
}

/// A thread-owned invocation/response log.
///
/// Exactly one thread appends to a given `OpLog`; ownership moves back
/// to the coordinator when the round joins. No shared state, no locks —
/// the recording hot path is a fenced timestamp read ([`Clock::inv`]),
/// the operation itself, a second fenced read ([`Clock::resp`]), and a
/// `Vec::push`.
#[derive(Debug)]
pub struct OpLog<O> {
    ops: Vec<TimedOp<O>>,
}

impl<O> OpLog<O> {
    /// An empty log with room for `cap` operations (so recording does
    /// not reallocate mid-round).
    pub fn with_capacity(cap: usize) -> Self {
        OpLog {
            ops: Vec::with_capacity(cap),
        }
    }

    /// Runs `action`, timestamping around it, and records the op that
    /// `op_of` derives from the result. Returning `None` records
    /// nothing — used for outcomes that are not events (e.g. a lost
    /// `Steal::Retry` race).
    pub fn record<R>(
        &mut self,
        clock: &Clock,
        action: impl FnOnce() -> R,
        op_of: impl FnOnce(&R) -> Option<O>,
    ) -> R {
        let (result, inv, resp) = clock.bracket(action);
        if let Some(op) = op_of(&result) {
            self.ops.push(TimedOp { op, inv, resp });
        }
        result
    }

    /// Like [`OpLog::record`], but `ops_of` may derive *several* events
    /// from one call — a compound operation such as a deallocating
    /// refcount drop (drop-to-zero, reclamation, implicit weak release)
    /// — all sharing the call's invocation window. Identical intervals
    /// add no real-time edges between the split events, so a downstream
    /// linearization search is free to order them within the window.
    pub fn record_split<R, I>(
        &mut self,
        clock: &Clock,
        action: impl FnOnce() -> R,
        ops_of: impl FnOnce(&R) -> I,
    ) -> R
    where
        I: IntoIterator<Item = O>,
    {
        let (result, inv, resp) = clock.bracket(action);
        for op in ops_of(&result) {
            self.ops.push(TimedOp { op, inv, resp });
        }
        result
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Consumes the log into its operations, in recording order.
    pub fn into_ops(self) -> Vec<TimedOp<O>> {
        self.ops
    }
}

/// A seeded splitmix64 RNG driving reproducible schedule perturbation.
///
/// Deliberately independent of `orc11::SmallRng`: the recorder must not
/// depend on the model-checking substrate. splitmix64 is tiny, full
/// period, and plenty for choosing yields and op mixes.
///
/// Seeding is always explicit: there is no entropy fallback anywhere in
/// the recorder. A `Jitter` is constructed from a caller-supplied seed
/// ([`Jitter::seed`]) or derived deterministically from a round seed and
/// a thread index ([`Jitter::for_thread`]); drivers obtain the round
/// seed via [`seed_from_env`] and print it, so every randomized run —
/// conformance rounds and soak sessions alike — replays exactly from
/// `COMPASS_SEED=<header value>`.
#[derive(Debug, Clone)]
pub struct Jitter {
    state: u64,
}

impl Jitter {
    /// An RNG seeded with `seed` (same seed ⇒ same sequence).
    pub fn seed(seed: u64) -> Self {
        Jitter { state: seed }
    }

    /// A per-thread RNG derived from a round seed: distinct threads get
    /// decorrelated streams, deterministically.
    pub fn for_thread(round_seed: u64, thread_index: usize) -> Self {
        let mut j =
            Jitter::seed(round_seed ^ (thread_index as u64).wrapping_mul(0x9e3779b97f4a7c15));
        j.next_u64(); // discard one output to decouple nearby seeds
        j
    }

    /// The next raw 64-bit output (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num / denom`.
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.below(denom) < num
    }

    /// Randomly perturbs the schedule: sometimes an OS yield, sometimes
    /// a short busy spin, often nothing. Call between operations to
    /// shake out interleavings while keeping rounds fast.
    pub fn stagger(&mut self) {
        match self.below(8) {
            0 => std::thread::yield_now(),
            1 | 2 => {
                for _ in 0..self.below(64) {
                    std::hint::spin_loop();
                }
            }
            _ => {}
        }
    }
}

/// Per-thread context handed to a round's workload closure.
#[derive(Debug)]
pub struct ThreadCtx<'a> {
    /// This thread's index in `0..threads`.
    pub index: usize,
    /// Total number of threads in the round.
    pub threads: usize,
    /// The round's shared clock.
    pub clock: &'a Clock,
    /// This thread's deterministic jitter stream.
    pub jitter: Jitter,
}

/// Runs one barrier-started round of `threads` workers and returns the
/// per-thread op logs (indexed by thread).
///
/// Every worker seeds its [`Jitter`] from `(seed, index)`, blocks on a
/// shared [`Barrier`] so the race window opens simultaneously for all
/// threads, then runs `body` with a fresh [`OpLog`]. Timestamps come
/// from one shared [`Clock`] created before the threads start.
pub fn run_round<O, F>(threads: usize, seed: u64, body: F) -> Vec<Vec<TimedOp<O>>>
where
    O: Send,
    F: Fn(&mut ThreadCtx<'_>, &mut OpLog<O>) + Sync,
{
    assert!(threads > 0, "a round needs at least one thread");
    let clock = Clock::new();
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|index| {
                let clock = &clock;
                let barrier = &barrier;
                let body = &body;
                scope.spawn(move || {
                    let mut ctx = ThreadCtx {
                        index,
                        threads,
                        clock,
                        jitter: Jitter::for_thread(seed, index),
                    };
                    let mut log = OpLog::with_capacity(64);
                    barrier.wait();
                    body(&mut ctx, &mut log);
                    log.into_ops()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

// ---------------------------------------------------------------------
// Sharded epoch capture (soak engine substrate).

/// The global epoch of a soak session, advanced by one coordinator
/// thread on a rotation interval and read (relaxed) by every mutator
/// before each operation.
///
/// Epochs start at 0. The counter itself carries no data: the sealed
/// operation buffers travel through each [`Shard`]'s mailbox, whose
/// `Mutex` provides the actual synchronization.
#[derive(Debug, Default)]
pub struct EpochCounter {
    epoch: AtomicU64,
}

impl EpochCounter {
    /// A counter at epoch 0.
    pub fn new() -> Self {
        EpochCounter::default()
    }

    /// The current epoch (relaxed — a writer observing it one op late
    /// just seals that op into the previous epoch, which is fine: epoch
    /// membership is a bucketing choice, not a correctness boundary).
    pub fn current(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Advances to the next epoch and returns it.
    pub fn advance(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One mutator thread's mailbox of sealed epoch buffers.
///
/// The shard is shared between exactly one [`ShardWriter`] (the mutator)
/// and the coordinator that collects sealed epochs. The watermark tells
/// the coordinator how far the writer has sealed: epoch `e` is complete
/// for this shard once `watermark() > e`.
#[derive(Debug)]
pub struct Shard<O> {
    /// Everything below this epoch has been sealed into the mailbox.
    watermark: AtomicU64,
    /// Sealed `(epoch, ops)` buffers awaiting collection.
    sealed: Mutex<Vec<(u64, Vec<TimedOp<O>>)>>,
}

impl<O> Default for Shard<O> {
    fn default() -> Self {
        Shard {
            watermark: AtomicU64::new(0),
            sealed: Mutex::new(Vec::new()),
        }
    }
}

impl<O> Shard<O> {
    /// An empty shard at watermark 0 (nothing sealed yet).
    pub fn new() -> Self {
        Shard::default()
    }

    /// The epoch below which this shard's writer has sealed everything.
    /// `u64::MAX` once the writer has finished.
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Removes and returns the sealed buffers for epochs `<= epoch`.
    /// Call only when [`Shard::watermark`] exceeds `epoch`, otherwise
    /// the writer may still seal more operations into those epochs.
    pub fn take_upto(&self, epoch: u64) -> Vec<(u64, Vec<TimedOp<O>>)> {
        let mut sealed = lock_ignore_poison(&self.sealed);
        let mut taken = Vec::new();
        let mut i = 0;
        while i < sealed.len() {
            if sealed[i].0 <= epoch {
                taken.push(sealed.swap_remove(i));
            } else {
                i += 1;
            }
        }
        taken
    }
}

/// The mutator-side handle of a [`Shard`]: an append buffer exactly like
/// [`OpLog`], plus the epoch-roll check.
///
/// The hot path ([`ShardWriter::record`]) is: one relaxed epoch load,
/// two fenced clock reads, the operation, and a `Vec::push`. The mailbox
/// lock is taken only when the epoch has advanced since the last
/// operation.
#[derive(Debug)]
pub struct ShardWriter<'a, O> {
    shard: &'a Shard<O>,
    epochs: &'a EpochCounter,
    epoch: u64,
    buf: Vec<TimedOp<O>>,
}

impl<'a, O> ShardWriter<'a, O> {
    /// A writer for `shard` starting at the counter's current epoch,
    /// with buffer room for `cap` operations per epoch.
    pub fn new(shard: &'a Shard<O>, epochs: &'a EpochCounter, cap: usize) -> Self {
        ShardWriter {
            shard,
            epochs,
            epoch: epochs.current(),
            buf: Vec::with_capacity(cap),
        }
    }

    /// The epoch this writer is currently bucketing operations into.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rolls to the current global epoch, sealing the buffer if it
    /// advanced. Called automatically by [`ShardWriter::record`]; call
    /// it directly from loop iterations that perform no operation (an
    /// open-loop generator waiting out its arrival schedule), so an idle
    /// mutator cannot stall epoch collection.
    pub fn tick(&mut self) {
        let now = self.epochs.current();
        if now != self.epoch {
            self.seal(now);
        }
    }

    fn seal(&mut self, next: u64) {
        if !self.buf.is_empty() {
            let cap = self.buf.capacity();
            let full = std::mem::replace(&mut self.buf, Vec::with_capacity(cap));
            lock_ignore_poison(&self.shard.sealed).push((self.epoch, full));
        }
        // Release pairs with `watermark()`'s acquire: a coordinator that
        // sees the new watermark also sees the mailbox push above.
        self.shard.watermark.store(next, Ordering::Release);
        self.epoch = next;
    }

    /// Runs `action`, timestamping around it, and records the op that
    /// `op_of` derives from the result into the current epoch
    /// (`None` records nothing — unsampled ops and non-events).
    pub fn record<R>(
        &mut self,
        clock: &Clock,
        action: impl FnOnce() -> R,
        op_of: impl FnOnce(&R) -> Option<O>,
    ) -> R {
        self.record_timed(clock, action, op_of).0
    }

    /// [`ShardWriter::record`], additionally returning the
    /// `(inv, resp)` timestamps taken around the action — so callers
    /// that also feed latency histograms reuse the recorder's clock
    /// reads instead of paying for two more.
    pub fn record_timed<R>(
        &mut self,
        clock: &Clock,
        action: impl FnOnce() -> R,
        op_of: impl FnOnce(&R) -> Option<O>,
    ) -> (R, u64, u64) {
        self.tick();
        let (result, inv, resp) = clock.bracket(action);
        if let Some(op) = op_of(&result) {
            self.buf.push(TimedOp { op, inv, resp });
        }
        (result, inv, resp)
    }

    /// Records an operation whose timestamps the caller already holds.
    ///
    /// For recording decisions made *after* the operation ran (a soak
    /// consumer that only discovers a value is tracked once it holds
    /// it), the caller supplies a conservatively *widened* interval —
    /// `inv` no later than the true invocation, `resp` no earlier than
    /// the true response. Widening only removes real-time precedence
    /// edges, so checks stay sound (see DESIGN.md §11). `resp` is
    /// clamped to `>= inv`. Both ends must come from [`Clock::inv`] /
    /// [`Clock::resp`]: widening moves the timestamps, it does not
    /// replace the fences that make them mean anything.
    pub fn record_at(&mut self, op: O, inv: u64, resp: u64) {
        self.tick();
        self.buf.push(TimedOp {
            op,
            inv,
            resp: resp.max(inv),
        });
    }

    /// Seals the remaining buffer and marks the shard finished
    /// (watermark `u64::MAX`), letting the coordinator collect every
    /// outstanding epoch.
    pub fn finish(mut self) {
        if !self.buf.is_empty() {
            let full = std::mem::take(&mut self.buf);
            lock_ignore_poison(&self.shard.sealed).push((self.epoch, full));
        }
        self.shard.watermark.store(u64::MAX, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_decorrelated() {
        let a: Vec<u64> = {
            let mut j = Jitter::seed(42);
            (0..8).map(|_| j.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut j = Jitter::seed(42);
            (0..8).map(|_| j.next_u64()).collect()
        };
        assert_eq!(a, b);
        let t0 = Jitter::for_thread(7, 0).next_u64();
        let t1 = Jitter::for_thread(7, 1).next_u64();
        assert_ne!(t0, t1);
        let mut j = Jitter::seed(1);
        for _ in 0..100 {
            assert!(j.below(10) < 10);
        }
        assert!((0..1000).filter(|_| j.chance(1, 2)).count() > 300);
    }

    #[test]
    fn record_timestamps_bracket_the_call() {
        let clock = Clock::new();
        let mut log = OpLog::with_capacity(4);
        let r = log.record(&clock, || 41 + 1, |r| Some(*r));
        assert_eq!(r, 42);
        let skipped = log.record(&clock, || 7, |_| None::<i32>);
        assert_eq!(skipped, 7);
        let ops = log.into_ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].op, 42);
        assert!(ops[0].inv <= ops[0].resp);
    }

    #[test]
    fn run_round_collects_per_thread_logs_in_order() {
        let logs = run_round(4, 99, |ctx, log| {
            for k in 0..5u64 {
                ctx.jitter.stagger();
                let clock = ctx.clock;
                log.record(clock, || ctx.index as u64 * 100 + k, |r| Some(*r));
            }
        });
        assert_eq!(logs.len(), 4);
        for (i, ops) in logs.iter().enumerate() {
            assert_eq!(ops.len(), 5);
            for (k, t) in ops.iter().enumerate() {
                assert_eq!(t.op, i as u64 * 100 + k as u64);
                assert!(t.inv <= t.resp);
            }
            // Within a thread, operations are sequential.
            for w in ops.windows(2) {
                assert!(w[0].resp <= w[1].inv);
            }
        }
    }

    #[test]
    fn seed_from_env_parses_and_falls_back() {
        // Env mutation: keep to one test (cargo runs tests concurrently
        // in one process, but no other test touches COMPASS_SEED).
        std::env::remove_var("COMPASS_SEED");
        assert_eq!(seed_from_env(7), 7);
        std::env::set_var("COMPASS_SEED", "1234");
        assert_eq!(seed_from_env(7), 1234);
        std::env::set_var("COMPASS_SEED", "0xABcd");
        assert_eq!(seed_from_env(7), 0xabcd);
        std::env::set_var("COMPASS_SEED", " 99 ");
        assert_eq!(seed_from_env(7), 99);
        std::env::set_var("COMPASS_SEED", "not-a-seed");
        assert_eq!(seed_from_env(7), 7);
        std::env::set_var("COMPASS_SEED", "");
        assert_eq!(seed_from_env(7), 7);
        std::env::remove_var("COMPASS_SEED");
    }

    #[test]
    fn shard_writer_buckets_ops_by_epoch() {
        let clock = Clock::new();
        let epochs = EpochCounter::new();
        let shard: Shard<u64> = Shard::new();
        let mut w = ShardWriter::new(&shard, &epochs, 16);
        for k in 0..5u64 {
            w.record(&clock, || k, |r| Some(*r));
        }
        assert_eq!(epochs.advance(), 1);
        // Nothing is sealed until the writer's next operation notices.
        assert_eq!(shard.watermark(), 0);
        for k in 5..8u64 {
            w.record(&clock, || k, |r| Some(*r));
        }
        assert_eq!(shard.watermark(), 1);
        let first = shard.take_upto(0);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].0, 0);
        let vals: Vec<u64> = first[0].1.iter().map(|t| t.op).collect();
        assert_eq!(vals, vec![0, 1, 2, 3, 4]);
        // Epoch 1 is still open: take_upto must not be called for it yet
        // (watermark is exactly 1), and finish() closes it out.
        w.finish();
        assert_eq!(shard.watermark(), u64::MAX);
        let rest = shard.take_upto(u64::MAX - 1);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].0, 1);
        assert_eq!(rest[0].1.len(), 3);
        assert!(shard.take_upto(u64::MAX - 1).is_empty());
    }

    #[test]
    fn shard_tick_rolls_idle_writers_forward() {
        let epochs = EpochCounter::new();
        let shard: Shard<u64> = Shard::new();
        let mut w = ShardWriter::new(&shard, &epochs, 4);
        epochs.advance();
        epochs.advance();
        w.tick();
        // An idle writer seals nothing but still publishes the watermark
        // so the coordinator can complete the skipped epochs.
        assert_eq!(shard.watermark(), 2);
        assert!(shard.take_upto(1).is_empty());
        assert_eq!(w.epoch(), 2);
        w.finish();
    }

    #[test]
    fn sharded_capture_across_threads_loses_nothing() {
        const WRITERS: usize = 3;
        const OPS: u64 = 400;
        let clock = Clock::new();
        let epochs = EpochCounter::new();
        let shards: Vec<Shard<u64>> = (0..WRITERS).map(|_| Shard::new()).collect();
        std::thread::scope(|scope| {
            for (i, shard) in shards.iter().enumerate() {
                let clock = &clock;
                let epochs = &epochs;
                scope.spawn(move || {
                    let mut w = ShardWriter::new(shard, epochs, 32);
                    for k in 0..OPS {
                        w.record(clock, || i as u64 * OPS + k, |r| Some(*r));
                        if k % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    w.finish();
                });
            }
            for _ in 0..10 {
                std::thread::yield_now();
                epochs.advance();
            }
        });
        let mut seen = Vec::new();
        for shard in &shards {
            assert_eq!(shard.watermark(), u64::MAX);
            for (epoch, ops) in shard.take_upto(u64::MAX - 1) {
                assert!(epoch <= epochs.current());
                seen.extend(ops.iter().map(|t| t.op));
            }
        }
        seen.sort_unstable();
        let expect: Vec<u64> = (0..WRITERS as u64 * OPS).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn run_round_is_reproducible_modulo_time() {
        // Same seed ⇒ same op sequence (timestamps differ, ops do not).
        let run = || {
            run_round(2, 5, |ctx, log| {
                for _ in 0..10 {
                    let v = ctx.jitter.below(1000);
                    log.record(ctx.clock, || v, |r| Some(*r));
                }
            })
            .into_iter()
            .map(|ops| ops.into_iter().map(|t| t.op).collect::<Vec<_>>())
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
