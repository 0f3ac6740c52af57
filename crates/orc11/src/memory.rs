//! The global store: per-location histories, coherence, and race detection.

use std::fmt;

use crate::error::RaceInfo;
use crate::frontier::{Frontier, FrontierRef};
use crate::mode::Mode;
use crate::tview::ThreadView;
use crate::val::{Loc, ThreadId, Val};
use crate::view::Timestamp;

/// Per-thread access epoch used for race detection: the thread's clock at
/// its last access of a given kind, plus whether that access was atomic.
/// Clock 0 is "no access": a thread's clock is at least 1 once it has
/// executed an instruction.
#[derive(Clone, Copy, Debug, Default)]
struct Epoch {
    clock: u64,
    atomic: bool,
}

/// Where a message's frontier lives in [`Memory::frontiers`]: `view_len`
/// view words from `start`, then `vc_len` clock words.
#[derive(Clone, Copy, Debug)]
struct FrontierSlot {
    start: u32,
    view_len: u32,
    vc_len: u32,
}

/// A write message in a location's history (§2.3: the atomic points-to
/// assertion `ℓ ↦ h` maps timestamps to `(value, view)` pairs — here the
/// view is generalized to a full [`Frontier`], released by the write and
/// joined by acquire readers).
#[derive(Clone, Copy, Debug)]
struct Msg {
    val: Val,
    frontier: FrontierSlot,
}

/// The state of one memory location.
#[derive(Debug, Default)]
struct LocState {
    name: String,
    history: Vec<Msg>,
    /// Indexed by thread id.
    write_epochs: Vec<Epoch>,
    /// Indexed by thread id.
    read_epochs: Vec<Epoch>,
}

/// Records `tid`'s latest access in a per-thread epoch array.
fn note(epochs: &mut Vec<Epoch>, tid: ThreadId, e: Epoch) {
    if epochs.len() <= tid {
        epochs.resize(tid + 1, Epoch::default());
    }
    epochs[tid] = e;
}

/// The outcome of the read half of an RMW, handed to the commit
/// continuation before the write half is published.
#[derive(Debug)]
pub(crate) struct RmwPre {
    /// The value read (always the latest message — RMW atomicity).
    pub old: Val,
    /// The value about to be written, or `None` if the RMW failed (CAS
    /// whose expectation was not met).
    pub new: Option<Val>,
}

/// The simulated global memory.
///
/// All methods are called with the execution state borrowed (the
/// scheduler serializes model instructions), so each method is one *physically
/// atomic* step of the machine.
///
/// Every buffer is kept across [`Memory::reset`], so once an arena's
/// memory has grown to an execution's size, a memory step allocates
/// nothing: views and clocks are dense word vectors joined in place, and
/// a message's frontier is a slice of one shared pool.
#[derive(Debug, Default)]
pub struct Memory {
    /// Location slots. Only the first `live` are allocated in the current
    /// execution; the rest are retired slots kept so their buffers (history
    /// vector, epoch tables, name string) can be reused by the next
    /// execution's allocations (see [`Memory::reset`]).
    locs: Vec<LocState>,
    live: usize,
    /// Every message frontier of the execution, back to back.
    frontiers: Vec<u64>,
    /// Where a published frontier is assembled when it is not just the
    /// writer's `cur`.
    scratch: Frontier,
}

/// Appends `f` to the frontier pool.
fn push_frontier(pool: &mut Vec<u64>, f: &Frontier) -> FrontierSlot {
    let (view, vc) = (f.view.words(), f.vc.words());
    let start = u32::try_from(pool.len()).expect("frontier pool outgrew u32 indices");
    pool.extend_from_slice(view);
    pool.extend_from_slice(vc);
    FrontierSlot {
        start,
        view_len: view.len() as u32,
        vc_len: vc.len() as u32,
    }
}

/// The frontier stored at `slot`.
fn frontier_at(pool: &[u64], slot: FrontierSlot) -> FrontierRef<'_> {
    let (start, mid) = (slot.start as usize, (slot.start + slot.view_len) as usize);
    FrontierRef {
        view: &pool[start..mid],
        vc: &pool[mid..mid + slot.vc_len as usize],
    }
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of allocated locations.
    pub fn num_locs(&self) -> usize {
        self.live
    }

    /// Forgets all allocations while retaining every underlying buffer, so
    /// the next execution's allocations reuse them instead of hitting the
    /// allocator. Part of the arena reset path (see [`crate::run_model`]).
    pub fn reset(&mut self) {
        self.live = 0;
        self.frontiers.clear();
    }

    /// Capacity of the location-slot vector — used by the debug-only
    /// assertion that the arena reset path never rebuilds it.
    #[cfg(debug_assertions)]
    pub(crate) fn locs_capacity(&self) -> usize {
        self.locs.capacity()
    }

    /// The debug name given to `loc` at allocation.
    pub fn loc_name(&self, loc: Loc) -> &str {
        &self.locs[loc.index()].name
    }

    /// The latest value in `loc`'s history, without any synchronization.
    ///
    /// Intended for single-threaded inspection (setup/finish phases and
    /// tests); it bypasses the race detector.
    pub fn peek_latest(&self, loc: Loc) -> Val {
        debug_assert!(loc.index() < self.live, "location from a past execution");
        let st = &self.locs[loc.index()];
        st.history
            .last()
            .expect("location has an initial write")
            .val
    }

    /// Number of writes (messages) in `loc`'s history, including the
    /// initializing write.
    pub fn history_len(&self, loc: Loc) -> usize {
        self.locs[loc.index()].history.len()
    }

    fn state(&mut self, loc: Loc) -> &mut LocState {
        debug_assert!(loc.index() < self.live, "location from a past execution");
        &mut self.locs[loc.index()]
    }

    /// Ticks the thread's clock (maintaining `cur ⊑ acq`) and returns the
    /// new epoch clock.
    fn tick(tv: &mut ThreadView, tid: ThreadId) -> u64 {
        let c = tv.cur.vc.tick(tid);
        tv.acq.vc.bump(tid, c);
        c
    }

    /// The first access in `epochs` by another thread that conflicts with
    /// ours (not both atomic) and does not happen before us, in thread-id
    /// order.
    fn unordered(
        epochs: &[Epoch],
        tid: ThreadId,
        atomic: bool,
        tv: &ThreadView,
    ) -> Option<(ThreadId, Epoch)> {
        epochs
            .iter()
            .copied()
            .enumerate()
            .find(|&(t, e)| t != tid && (!atomic || !e.atomic) && tv.cur.vc.get(t) < e.clock)
    }

    fn race(
        st: &LocState,
        loc: Loc,
        tid: ThreadId,
        (is_write, atomic): (bool, bool),
        (other_tid, other): (ThreadId, Epoch),
        other_is_write: bool,
    ) -> RaceInfo {
        RaceInfo {
            loc,
            loc_name: st.name.clone(),
            current_thread: tid,
            current_is_write: is_write,
            current_atomic: atomic,
            other_thread: other_tid,
            other_is_write,
            other_atomic: other.atomic,
        }
    }

    /// Race check for a read at `loc`: every earlier *write* by another
    /// thread must happen-before us, unless both accesses are atomic.
    fn check_read_race(
        st: &LocState,
        loc: Loc,
        tid: ThreadId,
        atomic: bool,
        tv: &ThreadView,
    ) -> Result<(), RaceInfo> {
        match Self::unordered(&st.write_epochs, tid, atomic, tv) {
            Some(other) => Err(Self::race(st, loc, tid, (false, atomic), other, true)),
            None => Ok(()),
        }
    }

    /// Race check for a write at `loc`: every earlier access by another
    /// thread must happen-before us, unless both accesses are atomic.
    fn check_write_race(
        st: &LocState,
        loc: Loc,
        tid: ThreadId,
        atomic: bool,
        tv: &ThreadView,
    ) -> Result<(), RaceInfo> {
        if let Some(other) = Self::unordered(&st.write_epochs, tid, atomic, tv) {
            return Err(Self::race(st, loc, tid, (true, atomic), other, true));
        }
        match Self::unordered(&st.read_epochs, tid, atomic, tv) {
            Some(other) => Err(Self::race(st, loc, tid, (true, atomic), other, false)),
            None => Ok(()),
        }
    }

    /// Allocates a fresh location with an initializing write of `init`.
    pub fn alloc(
        &mut self,
        name: impl fmt::Display,
        init: Val,
        tv: &mut ThreadView,
        tid: ThreadId,
    ) -> Loc {
        self.alloc_block_mode(&name, &[init], false, tv, tid)
    }

    /// Allocates `inits.len()` contiguous locations; `Loc::field` addresses
    /// the block members. The initializing writes are non-atomic.
    ///
    /// # Panics
    ///
    /// Panics if `inits` is empty.
    pub fn alloc_block(
        &mut self,
        name: impl fmt::Display,
        inits: &[Val],
        tv: &mut ThreadView,
        tid: ThreadId,
    ) -> Loc {
        self.alloc_block_mode(&name, inits, false, tv, tid)
    }

    /// Like [`Memory::alloc_block`], but the initializing writes are
    /// marked atomic — for locations that will only ever be accessed
    /// atomically (so that unsynchronized atomic readers do not race with
    /// the initialization).
    ///
    /// # Panics
    ///
    /// Panics if `inits` is empty.
    pub fn alloc_block_atomic(
        &mut self,
        name: impl fmt::Display,
        inits: &[Val],
        tv: &mut ThreadView,
        tid: ThreadId,
    ) -> Loc {
        self.alloc_block_mode(&name, inits, true, tv, tid)
    }

    fn alloc_block_mode(
        &mut self,
        name: &dyn fmt::Display,
        inits: &[Val],
        atomic: bool,
        tv: &mut ThreadView,
        tid: ThreadId,
    ) -> Loc {
        assert!(!inits.is_empty(), "cannot allocate an empty block");
        use std::fmt::Write as _;
        let base = Loc::from_raw(self.live as u32);
        for (i, &init) in inits.iter().enumerate() {
            let loc = base.field(i as u32);
            let c = Self::tick(tv, tid);
            tv.cur.view.bump(loc, 0);
            tv.acq.view.bump(loc, 0);
            let msg = Msg {
                val: init,
                frontier: push_frontier(&mut self.frontiers, &tv.cur),
            };
            // Reuse a retired slot (and its buffers) when one is available;
            // only grow the slot vector when the execution allocates more
            // locations than any previous one on this arena.
            if self.live == self.locs.len() {
                self.locs.push(LocState::default());
            }
            let slot = &mut self.locs[self.live];
            slot.name.clear();
            if inits.len() == 1 {
                let _ = write!(slot.name, "{name}");
            } else {
                let _ = write!(slot.name, "{name}[{i}]");
            }
            slot.history.clear();
            slot.history.push(msg);
            slot.write_epochs.clear();
            note(&mut slot.write_epochs, tid, Epoch { clock: c, atomic });
            slot.read_epochs.clear();
            self.live += 1;
        }
        base
    }

    /// The readable timestamps for a thread with view `tv` at `loc`,
    /// oldest first, optionally filtered by a predicate on the message
    /// value.
    ///
    /// Readable means: not older than the thread's current view of `loc`.
    pub(crate) fn candidates<'a>(
        &'a self,
        tv: &ThreadView,
        loc: Loc,
        pred: Option<&'a dyn Fn(Val) -> bool>,
    ) -> impl Iterator<Item = Timestamp> + 'a {
        let st = &self.locs[loc.index()];
        let lower = tv.cur.view.get(loc).unwrap_or(0);
        (lower..st.history.len() as u64).filter(move |&t| match pred {
            Some(p) => p(st.history[t as usize].val),
            None => true,
        })
    }

    /// Performs a read at `loc`.
    ///
    /// `choose` picks among the readable candidates (it is given the
    /// candidate count and must return an index below it); the scheduler's
    /// strategy provides it. For non-atomic reads there is exactly one
    /// candidate (the latest message) — anything else is a race, which is
    /// reported.
    ///
    /// If `pred` is `Some`, candidates are filtered by it, and `Ok(None)`
    /// is returned when no candidate exists (caller blocks — this is the
    /// `read_await` path). Non-atomic reads do not support predicates.
    pub(crate) fn read(
        &mut self,
        tid: ThreadId,
        tv: &mut ThreadView,
        loc: Loc,
        mode: Mode,
        pred: Option<&dyn Fn(Val) -> bool>,
        choose: impl FnOnce(usize) -> usize,
    ) -> Result<Option<(Val, Timestamp)>, RaceInfo> {
        mode.check_read();
        assert!(
            pred.is_none() || mode.is_atomic(),
            "read_await requires an atomic mode"
        );
        let atomic = mode.is_atomic();
        let c = Self::tick(tv, tid);
        Self::check_read_race(&self.locs[loc.index()], loc, tid, atomic, tv)?;
        let ts = if atomic {
            let n = self.candidates(tv, loc, pred).count();
            if n == 0 {
                // Only possible with a predicate: without one, the latest
                // message is always a candidate.
                return Ok(None);
            }
            let idx = choose(n);
            self.candidates(tv, loc, pred)
                .nth(idx)
                .expect("strategy returned out-of-range candidate")
        } else {
            let st = &self.locs[loc.index()];
            let latest = st.history.len() as u64 - 1;
            debug_assert_eq!(
                tv.cur.view.get(loc).unwrap_or(0),
                latest,
                "race-free non-atomic read must have observed the latest write to {}",
                st.name
            );
            latest
        };
        let st = &mut self.locs[loc.index()];
        note(&mut st.read_epochs, tid, Epoch { clock: c, atomic });
        let msg = st.history[ts as usize];
        tv.cur.view.bump(loc, ts);
        tv.acq.view.bump(loc, ts);
        if atomic {
            let fr = frontier_at(&self.frontiers, msg.frontier);
            if mode.acquires() {
                tv.acquire(fr);
            } else {
                tv.acquire_relaxed(fr);
            }
        }
        Ok(Some((msg.val, ts)))
    }

    /// Performs a write of `val` at `loc`.
    ///
    /// The continuation `k` runs after the thread's view has been advanced
    /// past the new write but *before* the message is published: what it
    /// commits happens before everything the message synchronizes with
    /// (this is how commit events enter logical views).
    pub(crate) fn write<R>(
        &mut self,
        tid: ThreadId,
        tv: &mut ThreadView,
        loc: Loc,
        val: Val,
        mode: Mode,
        k: impl FnOnce(&mut ThreadView) -> R,
    ) -> Result<(Timestamp, R), RaceInfo> {
        mode.check_write();
        let atomic = mode.is_atomic();
        let c = Self::tick(tv, tid);
        Self::check_write_race(&self.locs[loc.index()], loc, tid, atomic, tv)?;
        let ts = self.locs[loc.index()].history.len() as u64;
        tv.cur.view.bump(loc, ts);
        tv.acq.view.bump(loc, ts);
        let r = k(tv);
        let frontier = self.publish(tv, loc, ts, mode, None);
        let st = self.state(loc);
        note(&mut st.write_epochs, tid, Epoch { clock: c, atomic });
        st.history.push(Msg { val, frontier });
        Ok((ts, r))
    }

    /// Stores the frontier a write publishes on its message.
    ///
    /// Release (and non-atomic, see module docs) writes publish the
    /// thread's `cur`; relaxed writes publish the last release-fence
    /// snapshot plus the write itself. RMWs additionally join the read
    /// message's frontier, implementing RC11 release sequences.
    fn publish(
        &mut self,
        tv: &ThreadView,
        loc: Loc,
        ts: Timestamp,
        mode: Mode,
        release_seq: Option<FrontierSlot>,
    ) -> FrontierSlot {
        let Memory {
            frontiers, scratch, ..
        } = self;
        let relaxed = mode.is_atomic() && !mode.releases();
        if !relaxed && release_seq.is_none() {
            return push_frontier(frontiers, &tv.cur);
        }
        if relaxed {
            // The writer's own clock is deliberately *not* bumped here:
            // our epoch entering another thread's clock through a relaxed
            // write would be RC11's "rf edge without sw", which must not
            // count as hb. The reader still gets the write's timestamp.
            scratch.clone_from(&tv.rel);
            scratch.view.bump(loc, ts);
        } else {
            scratch.clone_from(&tv.cur);
        }
        if let Some(seq) = release_seq {
            scratch.join_ref(frontier_at(frontiers, seq));
        }
        push_frontier(frontiers, scratch)
    }

    /// Performs a read-modify-write at `loc`.
    ///
    /// `compute` inspects the current (latest) value and returns the value
    /// to write, or `None` to fail (a failed CAS). The continuation `k`
    /// observes the decision and runs after the read half's view transfer
    /// but before the write half publishes — the commit-point window.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rmw<R>(
        &mut self,
        tid: ThreadId,
        tv: &mut ThreadView,
        loc: Loc,
        compute: impl FnOnce(Val) -> Option<Val>,
        ok_mode: Mode,
        fail_mode: Mode,
        k: impl FnOnce(&RmwPre, &mut ThreadView) -> R,
    ) -> Result<(Val, Option<Timestamp>, R), RaceInfo> {
        ok_mode.check_rmw();
        fail_mode.check_rmw();
        fail_mode.check_read();
        let c = Self::tick(tv, tid);
        let st = &self.locs[loc.index()];
        Self::check_read_race(st, loc, tid, true, tv)?;
        let read_ts = st.history.len() as u64 - 1;
        let read = st.history[read_ts as usize];
        let new = compute(read.val);
        if new.is_some() {
            Self::check_write_race(&self.locs[loc.index()], loc, tid, true, tv)?;
        }
        // Read-half view transfer.
        let mode = if new.is_some() { ok_mode } else { fail_mode };
        tv.cur.view.bump(loc, read_ts);
        tv.acq.view.bump(loc, read_ts);
        let fr = frontier_at(&self.frontiers, read.frontier);
        if mode.acquires() {
            tv.acquire(fr);
        } else {
            tv.acquire_relaxed(fr);
        }
        let atomic = true;
        note(
            &mut self.state(loc).read_epochs,
            tid,
            Epoch { clock: c, atomic },
        );
        let old = read.val;
        let Some(new_val) = new else {
            let r = k(&RmwPre { old, new: None }, tv);
            return Ok((old, None, r));
        };
        let ts = read_ts + 1;
        tv.cur.view.bump(loc, ts);
        tv.acq.view.bump(loc, ts);
        let r = k(
            &RmwPre {
                old,
                new: Some(new_val),
            },
            tv,
        );
        let frontier = self.publish(tv, loc, ts, ok_mode, Some(read.frontier));
        let st = self.state(loc);
        note(&mut st.write_epochs, tid, Epoch { clock: c, atomic });
        st.history.push(Msg {
            val: new_val,
            frontier,
        });
        Ok((old, Some(ts), r))
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, st) in self.locs[..self.live].iter().enumerate() {
            writeln!(
                f,
                "ℓ{} {:12} history: {:?}",
                i,
                st.name,
                st.history.iter().map(|m| m.val).collect::<Vec<_>>()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Memory, ThreadView) {
        (Memory::new(), ThreadView::new())
    }

    #[test]
    fn alloc_and_peek() {
        let (mut mem, mut tv) = setup();
        let l = mem.alloc("x", Val::Int(7), &mut tv, 0);
        assert_eq!(mem.peek_latest(l), Val::Int(7));
        assert_eq!(mem.loc_name(l), "x");
        assert_eq!(mem.history_len(l), 1);
    }

    #[test]
    fn block_alloc_names_fields() {
        let (mut mem, mut tv) = setup();
        let b = mem.alloc_block("node", &[Val::Int(1), Val::Null], &mut tv, 0);
        assert_eq!(mem.loc_name(b), "node[0]");
        assert_eq!(mem.loc_name(b.field(1)), "node[1]");
        assert_eq!(mem.peek_latest(b.field(1)), Val::Null);
    }

    #[test]
    fn same_thread_na_rw_is_race_free() {
        let (mut mem, mut tv) = setup();
        let l = mem.alloc("x", Val::Int(0), &mut tv, 0);
        mem.write(0, &mut tv, l, Val::Int(1), Mode::NonAtomic, |_| ())
            .unwrap();
        let got = mem
            .read(0, &mut tv, l, Mode::NonAtomic, None, |_| 0)
            .unwrap()
            .unwrap();
        assert_eq!(got.0, Val::Int(1));
    }

    #[test]
    fn unsynchronized_na_write_write_races() {
        let (mut mem, mut tv0) = setup();
        let l = mem.alloc("x", Val::Int(0), &mut tv0, 0);
        // Thread 1 inherits the allocation (spawn edge)...
        let mut tv1 = ThreadView::inherit(&tv0.cur);
        let mut tv2 = ThreadView::inherit(&tv0.cur);
        // ...then both write non-atomically without synchronizing.
        mem.write(1, &mut tv1, l, Val::Int(1), Mode::NonAtomic, |_| ())
            .unwrap();
        let res = mem.write(2, &mut tv2, l, Val::Int(2), Mode::NonAtomic, |_| ());
        let race = res.unwrap_err();
        assert_eq!(race.other_thread, 1);
        assert!(race.current_is_write && race.other_is_write);
    }

    #[test]
    fn atomic_accesses_do_not_race() {
        let (mut mem, mut tv0) = setup();
        let l = mem.alloc("x", Val::Int(0), &mut tv0, 0);
        let mut tv1 = ThreadView::inherit(&tv0.cur);
        let mut tv2 = ThreadView::inherit(&tv0.cur);
        mem.write(1, &mut tv1, l, Val::Int(1), Mode::Relaxed, |_| ())
            .unwrap();
        mem.write(2, &mut tv2, l, Val::Int(2), Mode::Relaxed, |_| ())
            .unwrap();
        let r = mem.read(1, &mut tv1, l, Mode::Relaxed, None, |n| n - 1);
        assert!(r.is_ok());
    }

    #[test]
    fn na_read_of_unsynchronized_atomic_write_races() {
        let (mut mem, mut tv0) = setup();
        let l = mem.alloc("x", Val::Int(0), &mut tv0, 0);
        let mut tv1 = ThreadView::inherit(&tv0.cur);
        let mut tv2 = ThreadView::inherit(&tv0.cur);
        mem.write(1, &mut tv1, l, Val::Int(1), Mode::Release, |_| ())
            .unwrap();
        let res = mem.read(2, &mut tv2, l, Mode::NonAtomic, None, |_| 0);
        assert!(res.is_err());
    }

    #[test]
    fn release_acquire_transfers_view_and_clock() {
        let (mut mem, mut tv0) = setup();
        let data = mem.alloc("data", Val::Int(0), &mut tv0, 0);
        let flag = mem.alloc("flag", Val::Int(0), &mut tv0, 0);
        let mut tv1 = ThreadView::inherit(&tv0.cur);
        let mut tv2 = ThreadView::inherit(&tv0.cur);
        mem.write(1, &mut tv1, data, Val::Int(42), Mode::NonAtomic, |_| ())
            .unwrap();
        mem.write(1, &mut tv1, flag, Val::Int(1), Mode::Release, |_| ())
            .unwrap();
        // Read the flag=1 message (candidate index 1) with acquire.
        let (v, _) = mem
            .read(2, &mut tv2, flag, Mode::Acquire, None, |n| n - 1)
            .unwrap()
            .unwrap();
        assert_eq!(v, Val::Int(1));
        // Now the non-atomic read of data is race-free and sees 42.
        let (d, _) = mem
            .read(2, &mut tv2, data, Mode::NonAtomic, None, |_| 0)
            .unwrap()
            .unwrap();
        assert_eq!(d, Val::Int(42));
    }

    #[test]
    fn relaxed_read_does_not_synchronize() {
        let (mut mem, mut tv0) = setup();
        let data = mem.alloc("data", Val::Int(0), &mut tv0, 0);
        let flag = mem.alloc("flag", Val::Int(0), &mut tv0, 0);
        let mut tv1 = ThreadView::inherit(&tv0.cur);
        let mut tv2 = ThreadView::inherit(&tv0.cur);
        mem.write(1, &mut tv1, data, Val::Int(42), Mode::NonAtomic, |_| ())
            .unwrap();
        mem.write(1, &mut tv1, flag, Val::Int(1), Mode::Release, |_| ())
            .unwrap();
        // Relaxed read of flag=1: no synchronization...
        let (v, _) = mem
            .read(2, &mut tv2, flag, Mode::Relaxed, None, |n| n - 1)
            .unwrap()
            .unwrap();
        assert_eq!(v, Val::Int(1));
        // ...so the non-atomic read of data is a race.
        assert!(mem
            .read(2, &mut tv2, data, Mode::NonAtomic, None, |_| 0)
            .is_err());
    }

    #[test]
    fn acquire_fence_promotes_relaxed_read() {
        use crate::mode::FenceMode;
        let (mut mem, mut tv0) = setup();
        let data = mem.alloc("data", Val::Int(0), &mut tv0, 0);
        let flag = mem.alloc("flag", Val::Int(0), &mut tv0, 0);
        let mut tv1 = ThreadView::inherit(&tv0.cur);
        let mut tv2 = ThreadView::inherit(&tv0.cur);
        mem.write(1, &mut tv1, data, Val::Int(42), Mode::NonAtomic, |_| ())
            .unwrap();
        mem.write(1, &mut tv1, flag, Val::Int(1), Mode::Release, |_| ())
            .unwrap();
        mem.read(2, &mut tv2, flag, Mode::Relaxed, None, |n| n - 1)
            .unwrap()
            .unwrap();
        tv2.fence(FenceMode::Acquire);
        let (d, _) = mem
            .read(2, &mut tv2, data, Mode::NonAtomic, None, |_| 0)
            .unwrap()
            .unwrap();
        assert_eq!(d, Val::Int(42));
    }

    #[test]
    fn release_fence_plus_relaxed_write_synchronizes() {
        use crate::mode::FenceMode;
        let (mut mem, mut tv0) = setup();
        let data = mem.alloc("data", Val::Int(0), &mut tv0, 0);
        let flag = mem.alloc("flag", Val::Int(0), &mut tv0, 0);
        let mut tv1 = ThreadView::inherit(&tv0.cur);
        let mut tv2 = ThreadView::inherit(&tv0.cur);
        mem.write(1, &mut tv1, data, Val::Int(42), Mode::NonAtomic, |_| ())
            .unwrap();
        tv1.fence(FenceMode::Release);
        mem.write(1, &mut tv1, flag, Val::Int(1), Mode::Relaxed, |_| ())
            .unwrap();
        let (v, _) = mem
            .read(2, &mut tv2, flag, Mode::Acquire, None, |n| n - 1)
            .unwrap()
            .unwrap();
        assert_eq!(v, Val::Int(1));
        let (d, _) = mem
            .read(2, &mut tv2, data, Mode::NonAtomic, None, |_| 0)
            .unwrap()
            .unwrap();
        assert_eq!(d, Val::Int(42));
    }

    #[test]
    fn plain_relaxed_write_does_not_release() {
        let (mut mem, mut tv0) = setup();
        let data = mem.alloc("data", Val::Int(0), &mut tv0, 0);
        let flag = mem.alloc("flag", Val::Int(0), &mut tv0, 0);
        let mut tv1 = ThreadView::inherit(&tv0.cur);
        let mut tv2 = ThreadView::inherit(&tv0.cur);
        mem.write(1, &mut tv1, data, Val::Int(42), Mode::NonAtomic, |_| ())
            .unwrap();
        // No release fence, relaxed write: acquiring readers get nothing.
        mem.write(1, &mut tv1, flag, Val::Int(1), Mode::Relaxed, |_| ())
            .unwrap();
        mem.read(2, &mut tv2, flag, Mode::Acquire, None, |n| n - 1)
            .unwrap()
            .unwrap();
        assert!(mem
            .read(2, &mut tv2, data, Mode::NonAtomic, None, |_| 0)
            .is_err());
    }

    #[test]
    fn rmw_reads_latest_and_appends() {
        let (mut mem, mut tv) = setup();
        let l = mem.alloc("c", Val::Int(5), &mut tv, 0);
        let (old, ts, ()) = mem
            .rmw(
                0,
                &mut tv,
                l,
                |v| Some(Val::Int(v.expect_int() + 1)),
                Mode::AcqRel,
                Mode::Relaxed,
                |_, _| (),
            )
            .unwrap();
        assert_eq!(old, Val::Int(5));
        assert!(ts.is_some());
        assert_eq!(mem.peek_latest(l), Val::Int(6));
    }

    #[test]
    fn failed_cas_is_a_read() {
        let (mut mem, mut tv) = setup();
        let l = mem.alloc("c", Val::Int(5), &mut tv, 0);
        let (old, ts, pre_new) = mem
            .rmw(
                0,
                &mut tv,
                l,
                |v| {
                    if v == Val::Int(9) {
                        Some(Val::Int(1))
                    } else {
                        None
                    }
                },
                Mode::AcqRel,
                Mode::Acquire,
                |pre, _| pre.new,
            )
            .unwrap();
        assert_eq!(old, Val::Int(5));
        assert!(ts.is_none());
        assert!(pre_new.is_none());
        assert_eq!(mem.history_len(l), 1);
    }

    #[test]
    fn release_sequence_through_rmw() {
        // T1: data = 42 (na); x :=rel 1.  T2: CAS_rlx(x, 1 -> 2).
        // T3: acq-read x == 2 synchronizes with T1's release write through
        // the RMW (release sequence), so reading data is race-free.
        let (mut mem, mut tv0) = setup();
        let data = mem.alloc("data", Val::Int(0), &mut tv0, 0);
        let x = mem.alloc("x", Val::Int(0), &mut tv0, 0);
        let mut tv1 = ThreadView::inherit(&tv0.cur);
        let mut tv2 = ThreadView::inherit(&tv0.cur);
        let mut tv3 = ThreadView::inherit(&tv0.cur);
        mem.write(1, &mut tv1, data, Val::Int(42), Mode::NonAtomic, |_| ())
            .unwrap();
        mem.write(1, &mut tv1, x, Val::Int(1), Mode::Release, |_| ())
            .unwrap();
        mem.rmw(
            2,
            &mut tv2,
            x,
            |v| {
                if v == Val::Int(1) {
                    Some(Val::Int(2))
                } else {
                    None
                }
            },
            Mode::Relaxed,
            Mode::Relaxed,
            |_, _| (),
        )
        .unwrap();
        let (v, _) = mem
            .read(3, &mut tv3, x, Mode::Acquire, None, |n| n - 1)
            .unwrap()
            .unwrap();
        assert_eq!(v, Val::Int(2));
        let (d, _) = mem
            .read(3, &mut tv3, data, Mode::NonAtomic, None, |_| 0)
            .unwrap()
            .unwrap();
        assert_eq!(d, Val::Int(42));
    }

    #[test]
    fn candidates_respect_view_lower_bound() {
        let (mut mem, mut tv) = setup();
        let l = mem.alloc("x", Val::Int(0), &mut tv, 0);
        mem.write(0, &mut tv, l, Val::Int(1), Mode::Relaxed, |_| ())
            .unwrap();
        // The writer itself can only read its latest write.
        let cands = mem.candidates(&tv, l, None).collect::<Vec<_>>();
        assert_eq!(cands, vec![1]);
        // A fresh thread (no view of l) can read both.
        let fresh = ThreadView::new();
        assert_eq!(
            mem.candidates(&fresh, l, None).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn reset_reuses_slots() {
        let (mut mem, mut tv) = setup();
        let l = mem.alloc("x", Val::Int(1), &mut tv, 0);
        mem.write(0, &mut tv, l, Val::Int(2), Mode::Relaxed, |_| ())
            .unwrap();
        // Reset retires the slot; the next allocation reuses it in place.
        mem.reset();
        assert_eq!(mem.num_locs(), 0);
        let mut tv2 = ThreadView::new();
        let l2 = mem.alloc("y", Val::Int(9), &mut tv2, 0);
        assert_eq!(l2.index(), l.index());
        assert_eq!(mem.loc_name(l2), "y");
        assert_eq!(mem.history_len(l2), 1);
        assert_eq!(mem.peek_latest(l2), Val::Int(9));
    }

    #[test]
    fn commit_epoch_travels_on_release_acquire_only() {
        let (mut mem, mut tv0) = setup();
        let flag = mem.alloc("flag", Val::Int(0), &mut tv0, 0);
        let mut tv1 = ThreadView::inherit(&tv0.cur);
        let mut tv2 = ThreadView::inherit(&tv0.cur);
        let mut tv3 = ThreadView::inherit(&tv0.cur);
        // The commit continuation sees the write's own epoch.
        let (_, epoch) = mem
            .write(1, &mut tv1, flag, Val::Int(1), Mode::Release, |tv| {
                tv.cur.vc.get(1)
            })
            .unwrap();
        assert_eq!(epoch, 1);
        mem.read(2, &mut tv2, flag, Mode::Acquire, None, |n| n - 1)
            .unwrap()
            .unwrap();
        assert_eq!(tv2.cur.vc.get(1), epoch);
        mem.read(3, &mut tv3, flag, Mode::Relaxed, None, |n| n - 1)
            .unwrap()
            .unwrap();
        assert_eq!(tv3.cur.vc.get(1), 0, "a relaxed read does not synchronize");
        assert_eq!(tv3.acq.vc.get(1), epoch, "until an acquire fence");
    }

    #[test]
    fn messages_keep_their_frontiers_in_the_pool() {
        let (mut mem, mut tv) = setup();
        let a = mem.alloc("a", Val::Int(0), &mut tv, 0);
        let b = mem.alloc("b", Val::Int(0), &mut tv, 0);
        mem.write(0, &mut tv, b, Val::Int(1), Mode::Release, |_| ())
            .unwrap();
        let slot = mem.locs[b.index()].history[1].frontier;
        let fr = frontier_at(&mem.frontiers, slot);
        assert_eq!(fr.view, tv.cur.view.words());
        assert_eq!(fr.vc, tv.cur.vc.words());
        assert_eq!(fr.view.len(), 2, "{a:?} and {b:?}");
        // Reset empties the pool but keeps its buffer.
        let cap = mem.frontiers.capacity();
        mem.reset();
        assert!(mem.frontiers.is_empty());
        assert_eq!(mem.frontiers.capacity(), cap);
    }
}

#[cfg(test)]
mod coherence_tests {
    use super::*;
    use crate::mode::FenceMode;

    fn setup() -> (Memory, ThreadView) {
        (Memory::new(), ThreadView::new())
    }

    #[test]
    fn reads_never_go_backwards_per_location() {
        // Once a thread has read timestamp t, it can never read < t.
        let (mut mem, mut tv0) = setup();
        let l = mem.alloc("x", Val::Int(0), &mut tv0, 0);
        let mut w = ThreadView::inherit(&tv0.cur);
        for i in 1..=3 {
            mem.write(1, &mut w, l, Val::Int(i), Mode::Relaxed, |_| ())
                .unwrap();
        }
        let mut r = ThreadView::inherit(&tv0.cur);
        // Read the message at ts 2 (candidates [0..=3], pick index 2).
        let (v, _) = mem
            .read(2, &mut r, l, Mode::Relaxed, None, |_| 2)
            .unwrap()
            .unwrap();
        assert_eq!(v, Val::Int(2));
        // Candidates now exclude ts 0 and 1.
        assert_eq!(mem.candidates(&r, l, None).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn own_writes_are_immediately_visible() {
        let (mut mem, mut tv) = setup();
        let l = mem.alloc("x", Val::Int(0), &mut tv, 0);
        mem.write(0, &mut tv, l, Val::Int(9), Mode::Relaxed, |_| ())
            .unwrap();
        // The writer can only read its own (latest) write.
        assert_eq!(mem.candidates(&tv, l, None).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn rmw_success_requires_latest() {
        // A CAS expecting a stale value fails even if some thread's view
        // is behind: RMWs always read the latest message.
        let (mut mem, mut tv0) = setup();
        let l = mem.alloc("x", Val::Int(0), &mut tv0, 0);
        let mut a = ThreadView::inherit(&tv0.cur);
        let mut b = ThreadView::inherit(&tv0.cur);
        mem.write(1, &mut a, l, Val::Int(1), Mode::Relaxed, |_| ())
            .unwrap();
        // b's view still allows reading 0, but its CAS sees 1.
        let (old, ts, ()) = mem
            .rmw(
                2,
                &mut b,
                l,
                |v| (v == Val::Int(0)).then_some(Val::Int(7)),
                Mode::AcqRel,
                Mode::Relaxed,
                |_, _| (),
            )
            .unwrap();
        assert_eq!(old, Val::Int(1));
        assert!(ts.is_none(), "stale expectation fails");
    }

    #[test]
    fn acquire_fence_needed_even_after_rmw_relaxed() {
        // Relaxed RMW acquires nothing into cur; an acquire fence promotes.
        let (mut mem, mut tv0) = setup();
        let data = mem.alloc("data", Val::Int(0), &mut tv0, 0);
        let x = mem.alloc("x", Val::Int(0), &mut tv0, 0);
        let mut w = ThreadView::inherit(&tv0.cur);
        let mut r = ThreadView::inherit(&tv0.cur);
        mem.write(1, &mut w, data, Val::Int(5), Mode::NonAtomic, |_| ())
            .unwrap();
        mem.write(1, &mut w, x, Val::Int(1), Mode::Release, |_| ())
            .unwrap();
        // Relaxed RMW reads the release write but does not acquire.
        mem.rmw(
            2,
            &mut r,
            x,
            |v| Some(Val::Int(v.expect_int() + 1)),
            Mode::Relaxed,
            Mode::Relaxed,
            |_, _| (),
        )
        .unwrap();
        assert!(
            mem.read(2, &mut r, data, Mode::NonAtomic, None, |_| 0)
                .is_err(),
            "relaxed RMW must not synchronize by itself"
        );
        // After the fence the pending acquisition lands.
        r.fence(FenceMode::Acquire);
        let (d, _) = mem
            .read(2, &mut r, data, Mode::NonAtomic, None, |_| 0)
            .unwrap()
            .unwrap();
        assert_eq!(d, Val::Int(5));
    }

    #[test]
    fn write_write_coherence_within_thread() {
        // A thread's writes to one location are totally ordered; a fresh
        // reader may read either, but never observes them out of order.
        let (mut mem, mut tv) = setup();
        let l = mem.alloc("x", Val::Int(0), &mut tv, 0);
        mem.write(0, &mut tv, l, Val::Int(1), Mode::Relaxed, |_| ())
            .unwrap();
        mem.write(0, &mut tv, l, Val::Int(2), Mode::Relaxed, |_| ())
            .unwrap();
        let mut r = ThreadView::new();
        let (first, _) = mem
            .read(1, &mut r, l, Mode::Relaxed, None, |_| 1)
            .unwrap()
            .unwrap();
        assert_eq!(first, Val::Int(1));
        let cands = mem.candidates(&r, l, None).collect::<Vec<_>>();
        assert!(!cands.contains(&0), "initial write no longer readable");
    }

    #[test]
    fn read_epochs_tracked_for_race_detection() {
        // An atomic read does not hide a later racy na write.
        let (mut mem, mut tv0) = setup();
        let l = mem.alloc("x", Val::Int(0), &mut tv0, 0);
        let mut a = ThreadView::inherit(&tv0.cur);
        let mut b = ThreadView::inherit(&tv0.cur);
        mem.read(1, &mut a, l, Mode::Acquire, None, |_| 0).unwrap();
        // b's na write conflicts with a's atomic read (mixed access).
        assert!(mem
            .write(2, &mut b, l, Val::Int(1), Mode::NonAtomic, |_| ())
            .is_err());
    }

    #[test]
    fn display_lists_histories() {
        let (mut mem, mut tv) = setup();
        let l = mem.alloc("counter", Val::Int(0), &mut tv, 0);
        mem.write(0, &mut tv, l, Val::Int(1), Mode::Relaxed, |_| ())
            .unwrap();
        let s = mem.to_string();
        assert!(s.contains("counter"));
        assert!(s.contains('1'));
    }
}
