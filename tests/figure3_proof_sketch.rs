//! Integration: Figure 3's proof sketch of the MP client, replayed as
//! executable assertions.
//!
//! The paper's proof outline annotates each program point with
//! `SeenQueue(q, G, M)` assertions and a `deqPerm`-counting invariant.
//! This test runs the same client and checks each annotation *as data* on
//! every explored execution:
//!
//! * all threads start with `SeenQueue(q, ∅, ∅)`;
//! * after its enqueues, the left thread holds
//!   `SeenQueue(q, G₁, {e₁, e₂})`;
//! * the release write of `flag` transfers that assertion: after the
//!   acquire loop, the right thread's `Seen` contains `{e₁, e₂}`;
//! * the invariant `deqPerm(size(G.so)) ∧ size(G.so) ≤ 2` holds at every
//!   commit (checked on the final graph and every prefix);
//! * the right thread's dequeue yields `v ∈ {41, 42}` with
//!   `SeenQueue(q, G₃, {e₁, e₂, d₃})`.

use compass::queue_spec::{check_queue_consistent_prefixes, QueueEvent};
use compass::{EventId, Seen};
use compass_repro::structures::queue::{ModelQueue, MsQueue};
use orc11::{random_strategy, run_model, BodyFn, Config, Loc, Mode, ThreadCtx, Val};

#[test]
fn figure3_annotations_hold() {
    for seed in 0..200 {
        let out = run_model(
            &Config::default(),
            random_strategy(seed),
            |ctx| {
                let q = MsQueue::new(ctx);
                let flag = ctx.alloc("flag", Val::Int(0));
                (q, flag)
            },
            vec![
                // Left thread: { SeenQueue(q, ∅, ∅) } enq; enq; flag :=ʳᵉˡ 1.
                Box::new(|ctx: &mut ThreadCtx, (q, flag): &(MsQueue, Loc)| {
                    let s_init = Seen::capture(q.obj(), ctx);
                    assert!(s_init.logview().is_empty(), "starts with M = ∅");
                    let e1 = q.enqueue(ctx, Val::Int(41));
                    let e2 = q.enqueue(ctx, Val::Int(42));
                    // { SeenQueue(q, G₁, {e₁, e₂}) }
                    let s1 = Seen::capture(q.obj(), ctx);
                    assert!(s1.observed(e1) && s1.observed(e2));
                    assert!(s_init.le(&s1), "Seen is monotone");
                    ctx.write(*flag, Val::Int(1), Mode::Release);
                    (Some((e1, e2)), None)
                })
                    as BodyFn<'_, _, (Option<(EventId, EventId)>, Option<(Val, Seen)>)>,
                // Middle thread: one dequeue, no flag.
                Box::new(|ctx: &mut ThreadCtx, (q, _): &(MsQueue, Loc)| {
                    q.try_dequeue(ctx);
                    (None, None)
                }),
                // Right thread: await flag, then dequeue.
                Box::new(|ctx: &mut ThreadCtx, (q, flag): &(MsQueue, Loc)| {
                    ctx.read_await(*flag, Mode::Acquire, |v| v == Val::Int(1));
                    // { SeenQueue(q, G₁, {e₁, e₂}) } — received through the flag.
                    let s = Seen::capture(q.obj(), ctx);
                    assert!(s.graph_len >= 2, "snapshot G₁ contains both enqueues");
                    let (v, d3) = q.try_dequeue(ctx);
                    // { v ∈ {41, 42} ∧ SeenQueue(q, G₃, {e₁, e₂, d₃}) }
                    let v = v.expect("Figure 3: cannot be empty");
                    assert!(v == Val::Int(41) || v == Val::Int(42));
                    let s3 = Seen::capture(q.obj(), ctx);
                    assert!(s3.observed(d3), "own dequeue is observed");
                    assert!(s.le(&s3));
                    (None, Some((v, s3)))
                }),
            ],
            |_, (q, _), outs| {
                let g = q.obj().snapshot();
                // The client invariant: at most two successful dequeues ever
                // (deqPerm(2) in the whole system), at every prefix.
                check_queue_consistent_prefixes(&g).unwrap();
                assert!(g.so().len() <= 2, "size(G.so) ≤ 2");
                // The left thread's enqueue events are observed by the
                // right thread.
                let (e1, e2) = outs[0].0.expect("left thread ids");
                let (v, s3) = outs[2].1.clone().expect("right thread result");
                assert!(s3.observed(e1) && s3.observed(e2), "M₀ ⊇ {{e₁, e₂}}");
                s3.still_valid(&g).unwrap();
                // And the value the right thread got matches an enqueue
                // it has observed.
                let matches_observed = g
                    .iter()
                    .any(|(id, ev)| s3.observed(id) && ev.ty == QueueEvent::Enq(v));
                assert!(matches_observed);
            },
        );
        out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn figure3_contradiction_branch_is_unreachable() {
    // The proof's final step derives a contradiction from "d₃ is an empty
    // dequeue": with ≤ 1 other dequeue and 2 observed enqueues, some
    // observed enqueue is un-dequeued, contradicting QUEUE-EMPDEQ. Here:
    // the empty case simply never occurs, over many seeds, while the graph
    // invariants that power the contradiction always hold.
    let mut right_values = std::collections::BTreeSet::new();
    for seed in 0..200 {
        let out = run_model(
            &Config::default(),
            random_strategy(seed),
            |ctx| {
                let q = MsQueue::new(ctx);
                let flag = ctx.alloc("flag", Val::Int(0));
                (q, flag)
            },
            vec![
                Box::new(|ctx: &mut ThreadCtx, (q, flag): &(MsQueue, Loc)| {
                    q.enqueue(ctx, Val::Int(41));
                    q.enqueue(ctx, Val::Int(42));
                    ctx.write(*flag, Val::Int(1), Mode::Release);
                    None
                }) as BodyFn<'_, _, Option<Val>>,
                Box::new(|ctx: &mut ThreadCtx, (q, _): &(MsQueue, Loc)| q.try_dequeue(ctx).0),
                Box::new(|ctx: &mut ThreadCtx, (q, flag): &(MsQueue, Loc)| {
                    ctx.read_await(*flag, Mode::Acquire, |v| v == Val::Int(1));
                    q.try_dequeue(ctx).0
                }),
            ],
            |_, _, outs| outs[2],
        );
        let right = out.result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let v = right.unwrap_or_else(|| panic!("seed {seed}: empty dequeue reached"));
        right_values.insert(v);
    }
    // Both branches of "41 or 42" are exercised.
    assert!(right_values.contains(&Val::Int(41)));
    assert!(right_values.contains(&Val::Int(42)));
}
