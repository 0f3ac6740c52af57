//! The paper's client programs as reusable model programs.
//!
//! * [`run_mp`] — the Message-Passing client of Figure 1/3: the
//!   flag-synchronized dequeuer can never observe the queue as empty.
//! * [`run_spsc`] — the single-producer single-consumer client of §3.2:
//!   the consumer's array ends up equal to the producer's.

use compass::queue_spec::{check_queue_consistent, QueueEvent};
#[allow(unused_imports)]
use compass::spsc_spec;
use compass::{EventId, Graph};
use orc11::{run_model, BodyFn, Config, Loc, Mode, RunOutcome, Strategy, ThreadCtx, Val};

use crate::queue::{ModelQueue, MsQueue};

/// Result of one MP-client execution.
#[derive(Clone, Debug)]
pub struct MpResult {
    /// What the flag-synchronized (right-most) thread dequeued.
    pub right_value: Option<Val>,
    /// What the unsynchronized (middle) thread dequeued.
    pub middle_value: Option<Val>,
    /// The queue's final event graph.
    pub graph: Graph<QueueEvent>,
}

/// Runs the Message-Passing client of Figure 1 once.
///
/// Three threads share a queue `q` and a `flag`:
///
/// * thread 1: `enq(q, 41); enq(q, 42); flag :=ʳᵉˡ 1`,
/// * thread 2: `deq(q)` (may legitimately observe empty),
/// * thread 3: `while (*ᵃᶜ𝑞 flag == 0) {}; deq(q)`.
///
/// When `release_flag` is true (the paper's client), thread 3 has
/// synchronized with both enqueues, and by QUEUE-EMPDEQ its dequeue cannot
/// return empty — it returns 41 or 42. With a relaxed flag write (the
/// ablation), the external synchronization is gone and an empty dequeue
/// becomes a *consistent* outcome: the guarantee genuinely came from
/// combining the queue's spec with the client's release/acquire transfer.
pub fn run_mp<Q: ModelQueue>(
    make: impl FnOnce(&mut ThreadCtx) -> Q,
    release_flag: bool,
    strategy: Box<dyn Strategy>,
) -> RunOutcome<MpResult> {
    let flag_mode = if release_flag {
        Mode::Release
    } else {
        Mode::Relaxed
    };
    run_model(
        &Config::default(),
        strategy,
        |ctx| {
            let q = make(ctx);
            let flag = ctx.alloc("mp.flag", Val::Int(0));
            (q, flag)
        },
        vec![
            Box::new(move |ctx: &mut ThreadCtx, (q, flag): &(Q, Loc)| {
                q.enqueue(ctx, Val::Int(41));
                q.enqueue(ctx, Val::Int(42));
                ctx.write(*flag, Val::Int(1), flag_mode);
                None
            }) as BodyFn<'_, _, Option<Val>>,
            Box::new(|ctx: &mut ThreadCtx, (q, _): &(Q, Loc)| q.try_dequeue(ctx).0),
            Box::new(|ctx: &mut ThreadCtx, (q, flag): &(Q, Loc)| {
                ctx.read_await(*flag, Mode::Acquire, |v| v == Val::Int(1));
                q.try_dequeue(ctx).0
            }),
        ],
        |_, (q, _), outs| MpResult {
            right_value: outs[2],
            middle_value: outs[1],
            graph: q.obj().snapshot(),
        },
    )
}

/// Checks the MP postcondition on one execution result: queue consistency
/// always, and — for the release-flag client — that the right thread got
/// 41 or 42.
///
/// Returns a description of the failure, if any.
pub fn check_mp(res: &MpResult, release_flag: bool) -> Result<(), String> {
    check_queue_consistent(&res.graph).map_err(|v| format!("queue inconsistent: {v}"))?;
    if release_flag {
        match res.right_value {
            Some(v) if v == Val::Int(41) || v == Val::Int(42) => Ok(()),
            Some(v) => Err(format!("right thread dequeued unexpected {v}")),
            None => Err("right thread observed an empty queue".to_string()),
        }
    } else {
        Ok(())
    }
}

/// Result of one SPSC-client execution.
#[derive(Clone, Debug)]
pub struct SpscResult {
    /// The values the consumer wrote into its array, in order.
    pub consumed: Vec<Val>,
    /// The enqueue/dequeue event ids, for graph assertions.
    pub events: Vec<EventId>,
    /// The final graph.
    pub graph: Graph<QueueEvent>,
}

/// Runs the SPSC client of §3.2 once on a Michael-Scott queue: a producer
/// enqueues `a_p[0..n]` in order, a consumer dequeues `n` elements into
/// `a_c[0..n]` in order. FIFO end-to-end means `a_c == a_p`.
pub fn run_spsc(n: usize, strategy: Box<dyn Strategy>) -> RunOutcome<SpscResult> {
    run_model(
        &Config::default(),
        strategy,
        |ctx| {
            let q = MsQueue::new(ctx);
            // The producer's source array (non-atomic, thread-local use).
            let inits: Vec<Val> = (0..n as i64).map(|i| Val::Int(100 + i)).collect();
            let a_p = ctx.alloc_block("spsc.a_p", &inits);
            // The consumer's destination array.
            let zeros: Vec<Val> = vec![Val::Int(0); n];
            let a_c = ctx.alloc_block("spsc.a_c", &zeros);
            (q, a_p, a_c, n)
        },
        vec![
            Box::new(
                |ctx: &mut ThreadCtx, (q, a_p, _, n): &(MsQueue, Loc, Loc, usize)| {
                    let mut evs = Vec::new();
                    for i in 0..*n {
                        let v = ctx.read(a_p.field(i as u32), Mode::NonAtomic);
                        evs.push(q.enqueue(ctx, v));
                    }
                    evs
                },
            ) as BodyFn<'_, _, Vec<EventId>>,
            Box::new(
                |ctx: &mut ThreadCtx, (q, _, a_c, n): &(MsQueue, Loc, Loc, usize)| {
                    let mut evs = Vec::new();
                    for i in 0..*n {
                        let (v, ev) = q.dequeue_await(ctx);
                        ctx.write(a_c.field(i as u32), v, Mode::NonAtomic);
                        evs.push(ev);
                    }
                    evs
                },
            ),
        ],
        |ctx, (q, _, a_c, n), outs| {
            let consumed: Vec<Val> = (0..*n)
                .map(|i| ctx.read(a_c.field(i as u32), Mode::NonAtomic))
                .collect();
            let mut events = outs[0].clone();
            events.extend(outs[1].iter().copied());
            SpscResult {
                consumed,
                events,
                graph: q.obj().snapshot(),
            }
        },
    )
}

/// Checks the SPSC postcondition: the §3.2 *derived* SPSC spec (general
/// consistency + role discipline ⇒ total index-aligned FIFO), plus the
/// client-visible property that the consumer received exactly
/// `100..100+n` in order.
pub fn check_spsc(res: &SpscResult, n: usize) -> Result<(), String> {
    compass::spsc_spec::derive_spsc(&res.graph).map_err(|v| format!("queue inconsistent: {v}"))?;
    let expected: Vec<Val> = (0..n as i64).map(|i| Val::Int(100 + i)).collect();
    if res.consumed != expected {
        return Err(format!(
            "consumer array {:?} differs from producer array {:?}",
            res.consumed, expected
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buggy::relaxed_ms_queue;
    use crate::queue::HwQueue;
    use orc11::random_strategy;

    #[test]
    fn mp_holds_for_ms_queue() {
        for seed in 0..150 {
            let out = run_mp(MsQueue::new, true, random_strategy(seed));
            let res = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_mp(&res, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn mp_holds_for_hw_queue() {
        for seed in 0..150 {
            let out = run_mp(|ctx| HwQueue::new(ctx, 4), true, random_strategy(seed));
            let res = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_mp(&res, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn mp_ablation_relaxed_flag_allows_empty() {
        // With a relaxed flag write, the queue stays consistent but the
        // right thread can observe empty — the MP guarantee really came
        // from the client's release/acquire synchronization.
        let mut empties = 0;
        for seed in 0..300 {
            let out = run_mp(MsQueue::new, false, random_strategy(seed));
            let res = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_mp(&res, false).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            if res.right_value.is_none() {
                empties += 1;
            }
        }
        assert!(
            empties > 0,
            "relaxed-flag ablation should exhibit empty dequeues"
        );
    }

    #[test]
    fn mp_fails_for_relaxed_ms_queue() {
        // The buggy queue breaks the MP property (or consistency) in some
        // interleaving, even with the release flag.
        let mut failures = 0;
        for seed in 0..300 {
            let out = run_mp(relaxed_ms_queue, true, random_strategy(seed));
            let res = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            if check_mp(&res, true).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "relaxed queue should break the MP client");
    }

    #[test]
    fn spsc_transfers_array_in_order() {
        for seed in 0..100 {
            let out = run_spsc(4, random_strategy(seed));
            let res = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_spsc(&res, 4).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
