//! Integration: compositional verification of the elimination stack (§4)
//! — the ES graph is consistent, built only from the base stack's and
//! exchanger's hooked commits, and eliminated pairs are atomic.

use compass::exchanger_spec::check_exchanger_consistent;
use compass::history::{check_linearizable, StackInterp};
use compass::stack_spec::{check_stack_consistent, StackEvent};
use compass_repro::structures::clients::{run_client, ELIM_MIXED};
use compass_repro::structures::stack::{ElimStack, TryPop};
use orc11::{random_strategy, run_model, BodyFn, Config, ThreadCtx, Val};

type Graphs = (
    compass::Graph<StackEvent>,
    compass::Graph<StackEvent>,
    compass::Graph<compass::exchanger_spec::ExchangeEvent>,
);

fn run_es(seed: u64, patience: u32) -> Graphs {
    let make = |ctx: &mut ThreadCtx| ElimStack::new(ctx, patience);
    run_client(&Config::default(), make, &ELIM_MIXED, random_strategy(seed))
        .result
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

#[test]
fn es_and_sublibraries_consistent_across_seeds() {
    for seed in 0..150 {
        let (es, base, ex) = run_es(seed, 3);
        check_stack_consistent(&es).unwrap_or_else(|v| panic!("seed {seed} ES: {v}"));
        check_linearizable(&es, &StackInterp).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        check_stack_consistent(&base).unwrap_or_else(|v| panic!("seed {seed} base: {v}"));
        check_exchanger_consistent(&ex).unwrap_or_else(|v| panic!("seed {seed} ex: {v}"));
    }
}

#[test]
fn eliminated_pairs_are_atomic_and_matched() {
    let mut eliminated_total = 0u64;
    for seed in 0..250 {
        let (es, base, _) = run_es(seed, 4);
        // ES events beyond the base-born ones come from eliminations, in
        // (push, pop) pairs sharing a commit step.
        let base_count = base.len();
        let es_events: Vec<_> = es.iter().collect();
        assert!(es_events.len() >= base_count);
        let extra = es_events.len() - base_count;
        assert_eq!(extra % 2, 0, "eliminations commit in pairs");
        eliminated_total += (extra / 2) as u64;
        for &(a, b) in es.so() {
            let (pa, ob) = (es.event(a), es.event(b));
            if pa.step == ob.step {
                // An eliminated pair: same instruction, mutual logviews,
                // matching values.
                assert!(es.lhb(b, a) && es.lhb(a, b));
                match (&pa.ty, &ob.ty) {
                    (StackEvent::Push(v), StackEvent::Pop(w)) => assert_eq!(v, w),
                    other => panic!("bad eliminated pair {other:?}"),
                }
            }
        }
    }
    assert!(
        eliminated_total > 0,
        "the elimination path should trigger across 250 seeds"
    );
}

#[test]
fn es_sequential_behaviour() {
    let out = run_model(
        &Config::default(),
        random_strategy(0),
        |ctx| ElimStack::new(ctx, 2),
        Vec::<BodyFn<'_, _, ()>>::new(),
        |ctx, s, _| {
            assert!(matches!(s.try_pop(ctx), TryPop::Empty(_)));
            assert!(s.try_push(ctx, Val::Int(1)).is_some());
            assert!(s.try_push(ctx, Val::Int(2)).is_some());
            match s.try_pop(ctx) {
                TryPop::Popped(v, _) => assert_eq!(v, Val::Int(2)),
                other => panic!("{other:?}"),
            }
            match s.try_pop(ctx) {
                TryPop::Popped(v, _) => assert_eq!(v, Val::Int(1)),
                other => panic!("{other:?}"),
            }
        },
    );
    out.result.unwrap();
}
