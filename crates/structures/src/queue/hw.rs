//! A relaxed Herlihy-Wing queue.
//!
//! The bounded array-based queue of Herlihy & Wing [1990], in the relaxed
//! variant the paper verifies (§3.1–3.2, "similar to the weak version in
//! Yacovet"): *enqueues use release operations and dequeues use acquire
//! ones*, and nothing synchronizes enqueues with enqueues or dequeues with
//! dequeues beyond that.
//!
//! The paper's point (§3.2) is that this implementation satisfies the
//! graph-based `LAT_hb` specs — including QUEUE-FIFO and QUEUE-EMPDEQ —
//! but constructing the abstract state *at commit points* is extremely
//! hard ("would require delicate reordering of commit points on the fly
//! ... prophecy variables"). Executable analogue: on some executions
//! [`compass::abs::replay_commit_order`] fails while
//! [`compass::queue_spec::check_queue_consistent`] passes (experiment E2).
//!
//! Commit points:
//! * **enqueue** — the release write of the value into its slot;
//! * **dequeue** — the successful acquire-release CAS marking the slot
//!   [`TAKEN`](crate::TAKEN);
//! * **empty dequeue** — the final read of the scan (or the initial
//!   acquire read of `tail` when the range is empty).

use orc11::sync::Mutex;
use std::collections::HashMap;

use compass::queue_spec::QueueEvent;
use compass::{EventId, LibObj};
use orc11::{Loc, Mode, ThreadCtx, Val};

use super::ModelQueue;
use crate::{check_element, Rmw, TAKEN};

/// The queue's mode table: the mode of each access site (its locations
/// are all atomic).
#[derive(Clone, Copy, Debug)]
pub(crate) struct HwModes {
    pub(crate) reserve: Mode,   // enqueue: FAA on `tail` (read and write)
    pub(crate) publish: Mode,   // enqueue: write of the value (commit)
    pub(crate) scan_tail: Mode, // dequeue: read of `tail`
    pub(crate) scan_slot: Mode, // dequeue: read of each scanned slot
    pub(crate) take: Rmw,       // dequeue: CAS marking the slot taken
}

/// The paper's modes (§3.1): release enqueues, acquire dequeues, and an
/// acquire-release reservation.
pub(crate) const PAPER: HwModes = HwModes {
    reserve: Mode::AcqRel,
    publish: Mode::Release,
    scan_tail: Mode::Acquire,
    scan_slot: Mode::Acquire,
    // Acquire, NOT AcqRel — "dequeues use acquire ones" (§3.1). A
    // releasing TAKEN write would publish the dequeuer's ghost (its M₀
    // may mention enqueues outside a stale scan range), and a later
    // scanner reading TAKEN would inherit them into its logview and
    // violate QUEUE-EMPDEQ. The Compass checker caught exactly this when
    // this CAS was AcqRel.
    take: Rmw::new(Mode::Acquire, Mode::Acquire),
};

/// A bounded Herlihy-Wing queue on the model (see module docs).
#[derive(Debug)]
pub struct HwQueue {
    tail: Loc,
    slots: Loc,
    capacity: u32,
    obj: LibObj<QueueEvent>,
    /// Ghost map: slot index → the enqueue event that filled it.
    enq_events: Mutex<HashMap<u32, EventId>>,
    m: HwModes,
}

impl HwQueue {
    /// Allocates an empty queue with room for `capacity` enqueues in
    /// total (the array is not recycled, as in the original algorithm).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, and (at enqueue time) if more than
    /// `capacity` enqueues are attempted.
    pub fn new(ctx: &mut ThreadCtx, capacity: u32) -> Self {
        Self::with_modes(ctx, capacity, PAPER)
    }

    /// [`HwQueue::new`] with the access modes of `m`.
    pub(crate) fn with_modes(ctx: &mut ThreadCtx, capacity: u32, m: HwModes) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let inits = vec![Val::Null; capacity as usize];
        let slots = ctx.alloc_block_atomic("hw.slots", &inits);
        let tail = ctx.alloc_atomic("hw.tail", Val::Int(0));
        HwQueue {
            tail,
            slots,
            capacity,
            obj: LibObj::new("hw-queue"),
            enq_events: Mutex::new(HashMap::new()),
            m,
        }
    }

    fn slot(&self, i: u32) -> Loc {
        self.slots.field(i)
    }

    fn enq_event_of(&self, i: u32) -> EventId {
        *self
            .enq_events
            .lock()
            .get(&i)
            .expect("written slot has a recorded enqueue event")
    }
}

impl ModelQueue for HwQueue {
    fn enqueue(&self, ctx: &mut ThreadCtx, v: Val) -> EventId {
        check_element(v);
        // Reserve a slot. In the paper's table the FAA is an
        // acquire-release RMW: its release half (plus RMW release
        // sequences) is what lets a dequeuer that acquire-reads `tail` see
        // every slot filled by enqueues that happen-before its call — the
        // synchronization QUEUE-FIFO needs.
        let t = ctx.fetch_add(self.tail, 1, self.m.reserve).expect_int();
        assert!(
            (t as u64) < self.capacity as u64,
            "HwQueue capacity {} exceeded",
            self.capacity
        );
        let i = t as u32;
        // Commit point: the write of the value.
        ctx.write_with(self.slot(i), v, self.m.publish, |gh| {
            let id = self.obj.commit(gh, QueueEvent::Enq(v));
            self.enq_events.lock().insert(i, id);
            id
        })
    }

    fn try_dequeue(&self, ctx: &mut ThreadCtx) -> (Option<Val>, EventId) {
        // Read the scan range; when it is empty this read is the
        // empty-dequeue commit point.
        let (n_val, emp) = ctx.read_with(self.tail, self.m.scan_tail, |v, gh| {
            (v == Val::Int(0)).then(|| self.obj.commit(gh, QueueEvent::EmpDeq))
        });
        if let Some(ev) = emp {
            return (None, ev);
        }
        let n = (n_val.expect_int() as u64).min(self.capacity as u64) as u32;
        for i in 0..n {
            let last = i + 1 == n;
            // Read the slot; if the scan ends here empty, this read is the
            // empty-dequeue commit point.
            let (v, emp) = ctx.read_with(self.slot(i), self.m.scan_slot, |v, gh| {
                ((v.is_null() || v == TAKEN) && last)
                    .then(|| self.obj.commit(gh, QueueEvent::EmpDeq))
            });
            if v.is_null() || v == TAKEN {
                if let Some(ev) = emp {
                    return (None, ev);
                }
                continue;
            }
            // Take it: the successful CAS is the dequeue commit point; a
            // failed CAS on the last slot means everything was taken and
            // is the empty-dequeue commit point.
            let source = self.enq_event_of(i);
            let (res, ev) = ctx.cas_with(
                self.slot(i),
                v,
                TAKEN,
                self.m.take.ok,
                self.m.take.fail,
                |r, gh| {
                    if r.new.is_some() {
                        Some(self.obj.commit_matched(gh, QueueEvent::Deq(v), source))
                    } else if last {
                        Some(self.obj.commit(gh, QueueEvent::EmpDeq))
                    } else {
                        None
                    }
                },
            );
            match res {
                Ok(_) => return (Some(v), ev.expect("committed")),
                Err(_) if last => return (None, ev.expect("committed")),
                Err(_) => {}
            }
        }
        unreachable!("scan always returns at the last slot");
    }

    fn obj(&self) -> &LibObj<QueueEvent> {
        &self.obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::queue_spec::check_queue_consistent;
    use orc11::{random_strategy, run_model, BodyFn, Config};

    use crate::clients::{run_client, PRODUCERS_CONSUMER};

    #[test]
    fn sequential_fifo() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| HwQueue::new(ctx, 8),
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, q, _| {
                assert_eq!(q.try_dequeue(ctx).0, None);
                q.enqueue(ctx, Val::Int(1));
                q.enqueue(ctx, Val::Int(2));
                assert_eq!(q.try_dequeue(ctx).0, Some(Val::Int(1)));
                assert_eq!(q.try_dequeue(ctx).0, Some(Val::Int(2)));
                assert_eq!(q.try_dequeue(ctx).0, None);
                let g = q.obj().snapshot();
                check_queue_consistent(&g).unwrap();
                g.len()
            },
        );
        // EmpDeq + Enq + Enq + Deq + Deq + EmpDeq.
        assert_eq!(out.result.unwrap(), 6);
    }

    #[test]
    fn concurrent_runs_satisfy_lat_hb() {
        for seed in 0..60 {
            let make = |ctx: &mut ThreadCtx| HwQueue::new(ctx, 8);
            let out = run_client(
                &Config::default(),
                make,
                &PRODUCERS_CONSUMER,
                random_strategy(seed),
            );
            let g = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_queue_consistent(&g).expect("QueueConsistent");
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_overflow_panics() {
        let _ = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| HwQueue::new(ctx, 1),
            Vec::<BodyFn<'_, _, ()>>::new(),
            |ctx, q, _| {
                q.enqueue(ctx, Val::Int(1));
                q.enqueue(ctx, Val::Int(2));
            },
        )
        .result
        .map_err(|e| panic!("{e}"));
    }
}
