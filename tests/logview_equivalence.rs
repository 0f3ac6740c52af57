//! The graph stores each logview as a bit row and derives the set; these
//! tests pin that the derived sets are the ones the commit clocks
//! produced when every event stored its set, and that `{:?}` and `==`
//! still mean what they meant then.
//!
//! The reference is recorded: every shared client of
//! `structures::clients` runs under plain DFS on one worker (the budgets
//! of `tests/control_pins.rs`: exhaustive for the small clients, a
//! 2 000-execution prefix for the large ones; the elimination stack's
//! prefix holds no elimination, so it also runs 400 seeded random
//! schedules), and each execution's graph is printed with `{:?}` — every event's type, thread, step and
//! logview. The pinned digests are the wrapping sums of the FNV-1a
//! hashes of those strings, computed by the implementation that built
//! each logview as the set of events whose commit epoch the committing
//! instruction's vector clock covers and stored it in the event. A
//! derived logview that differs from that set in any execution changes
//! its client's digest.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use compass::{EventId, Graph};
use compass_repro::structures::arc::ModelArc;
use compass_repro::structures::buggy::{self, SplitExchanger, UnvalidatedTml};
use compass_repro::structures::clients::*;
use compass_repro::structures::deque::ChaseLevDeque;
use compass_repro::structures::exchanger::{Exchanger, ExchangerArray};
use compass_repro::structures::queue::{HwQueue, LockQueue, MsQueue};
use compass_repro::structures::stack::{ElimStack, TreiberStack};
use compass_repro::structures::stm::ModelTml;
use orc11::{Config, Explorer, ThreadCtx, Val, WorkSpec};

/// Large clients run this many executions of their DFS order.
const PREFIX: u64 = 2_000;

/// Seeded random schedules of the elimination client, whose DFS prefix
/// holds no elimination.
const SEEDS: WorkSpec = WorkSpec::Random {
    iters: 400,
    seed0: 0,
};

fn dfs(budget: u64) -> WorkSpec {
    WorkSpec::Dfs { budget }
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Executions and the digest of their printed graphs.
fn digest<O: Object>(
    spec: WorkSpec,
    make: impl Fn(&mut ThreadCtx) -> O + Send + Sync,
    client: &Client,
) -> (u64, u64)
where
    O::Graph: std::fmt::Debug,
{
    let sum = AtomicU64::new(0);
    let program = |s| run_client(&Config::default(), &make, client, s);
    let r = Explorer::serial().explore(&spec, &program, |_, out| {
        let g = out.result.as_ref().expect("no model error");
        sum.fetch_add(fnv1a(&format!("{g:?}")), Ordering::Relaxed);
    });
    (r.execs, sum.into_inner())
}

fn new_arc(ctx: &mut ThreadCtx) -> ModelArc {
    ModelArc::new(ctx, Val::Int(42))
}

#[test]
fn derived_logviews_equal_the_stored_sets_on_every_shared_client() {
    let all = 1_000_000;
    let got = [
        ("MP on MsQueue", digest(dfs(all), MsQueue::new, &MP)),
        (
            "MP on HwQueue(4)",
            digest(dfs(all), |ctx| HwQueue::new(ctx, 4), &MP),
        ),
        (
            "relaxed-flag MP on MsQueue",
            digest(dfs(all), MsQueue::new, &MP_RELAXED_FLAG),
        ),
        (
            "enq ∥ deq on RelaxedMsQueue",
            digest(dfs(all), buggy::relaxed_ms_queue, &ENQ_DEQ),
        ),
        (
            "enq ∥ deq ∥ deq on HwQueue(2)",
            digest(dfs(all), |ctx| HwQueue::new(ctx, 2), &ENQ_DEQ_DEQ),
        ),
        (
            "producers ∥ consumer on HwQueue(8)",
            digest(dfs(PREFIX), |ctx| HwQueue::new(ctx, 8), &PRODUCERS_CONSUMER),
        ),
        (
            "flag-ordered FIFO client on RelaxedHwQueue(4)",
            digest(
                dfs(all),
                |ctx| buggy::relaxed_hw_queue(ctx, 4),
                &FLAG_ORDERED_ENQS,
            ),
        ),
        (
            "spec-hierarchy client on RelaxedHwQueue(8)",
            digest(
                dfs(PREFIX),
                |ctx| buggy::relaxed_hw_queue(ctx, 8),
                &QUEUE_MIXED,
            ),
        ),
        (
            "lock-queue client on LockQueue",
            digest(dfs(PREFIX), LockQueue::new, &LOCK_QUEUE_MIXED),
        ),
        ("MPMC on MsQueue", digest(dfs(PREFIX), MsQueue::new, &MPMC)),
        (
            "(push; pop) ∥ push on TreiberStack",
            digest(dfs(all), TreiberStack::new, &PUSH_POP_PUSH),
        ),
        (
            "push ∥ pop on RelaxedTreiber",
            digest(dfs(all), buggy::relaxed_treiber, &PUSH_POP),
        ),
        (
            "mixed stack client on TreiberStack",
            digest(dfs(PREFIX), TreiberStack::new, &STACK_MIXED),
        ),
        (
            "elimination client on ElimStack(3)",
            digest(dfs(PREFIX), |ctx| ElimStack::new(ctx, 3), &ELIM_MIXED),
        ),
        (
            "elimination client on ElimStack(4), 400 random schedules",
            digest(SEEDS, |ctx| ElimStack::new(ctx, 4), &ELIM_MIXED),
        ),
        (
            "exchange pair (patience 1)",
            digest(dfs(all), Exchanger::new, &EXCHANGE_PAIR),
        ),
        (
            "exchange pair (patience 3) on SplitExchanger",
            digest(dfs(all), SplitExchanger::new, &PATIENT_PAIR),
        ),
        (
            "three-way exchange (patience 2)",
            digest(dfs(PREFIX), Exchanger::new, &EXCHANGE_THREE),
        ),
        (
            "four-way exchange on ExchangerArray(2)",
            digest(
                dfs(PREFIX),
                |ctx| ExchangerArray::new(ctx, 2),
                &EXCHANGE_FOUR,
            ),
        ),
        (
            "same-slot exchange on ExchangerArray(2)",
            digest(
                dfs(PREFIX),
                |ctx| ExchangerArray::new(ctx, 2),
                &SAME_SLOT_PAIR,
            ),
        ),
        (
            "(push; pop) ∥ steal on ChaseLevDeque(2)",
            digest(dfs(all), |ctx| ChaseLevDeque::new(ctx, 2), &PUSH_POP_STEAL),
        ),
        (
            "owner ∥ thieves on weak-fence ChaseLevDeque(8)",
            digest(
                dfs(PREFIX),
                |ctx| ChaseLevDeque::new_weak_fences(ctx, 8),
                &OWNER_THIEVES,
            ),
        ),
        (
            "clone; (load; drop) ∥ (load; drop) on ModelArc",
            digest(dfs(all), new_arc, &ARC_TWO_DROPS),
        ),
        (
            "clone; (load; drop) ∥ (clone; drop; drop) on ModelArc",
            digest(dfs(all), new_arc, &ARC_CLONE_DROPS),
        ),
        (
            "writer ∥ reader on ModelTml(2)",
            digest(dfs(all), |ctx| ModelTml::new(ctx, 2), &TML_WRITER_READER),
        ),
        (
            "writer ∥ reader on UnvalidatedTml(2)",
            digest(
                dfs(all),
                |ctx| UnvalidatedTml::new(ctx, 2),
                &TML_WRITER_READER,
            ),
        ),
    ];
    let got: Vec<String> = got
        .iter()
        .map(|(name, (execs, sum))| format!("{name}: {execs} execs, digest {sum:016x}"))
        .collect();
    let want = [
        "MP on MsQueue: 4949 execs, digest 353375144b19632b",
        "MP on HwQueue(4): 458 execs, digest 644a6d7047e7a9c7",
        "relaxed-flag MP on MsQueue: 12010 execs, digest 61968109a30635e0",
        "enq ∥ deq on RelaxedMsQueue: 42 execs, digest ef05c6719df335b9",
        "enq ∥ deq ∥ deq on HwQueue(2): 228 execs, digest 3b5a717e451dfcce",
        "producers ∥ consumer on HwQueue(8): 2000 execs, digest da920e56e1be0c03",
        "flag-ordered FIFO client on RelaxedHwQueue(4): 89 execs, digest 4bcc5ddee93de862",
        "spec-hierarchy client on RelaxedHwQueue(8): 2000 execs, digest 5ccf2f5f761bf00e",
        "lock-queue client on LockQueue: 2000 execs, digest e9aa1e4c3619a5fb",
        "MPMC on MsQueue: 2000 execs, digest 2f384ec682467a4c",
        "(push; pop) ∥ push on TreiberStack: 4424 execs, digest 8b4f7f90910194ec",
        "push ∥ pop on RelaxedTreiber: 7 execs, digest 48cc6958db7b9cfa",
        "mixed stack client on TreiberStack: 2000 execs, digest 5466fff246822bf1",
        "elimination client on ElimStack(3): 2000 execs, digest fba2de72a5b221cd",
        "elimination client on ElimStack(4), 400 random schedules: 400 execs, digest cd3d9bf57d1d0605",
        "exchange pair (patience 1): 382 execs, digest aa7877d011552e34",
        "exchange pair (patience 3) on SplitExchanger: 1350 execs, digest a37785863b17acba",
        "three-way exchange (patience 2): 2000 execs, digest a977fc5f93332bf5",
        "four-way exchange on ExchangerArray(2): 2000 execs, digest a61ed89b0517b21a",
        "same-slot exchange on ExchangerArray(2): 2000 execs, digest 213c2c9756bdc993",
        "(push; pop) ∥ steal on ChaseLevDeque(2): 2715 execs, digest 3b827af388dbe8db",
        "owner ∥ thieves on weak-fence ChaseLevDeque(8): 2000 execs, digest 7264198e82a21594",
        "clone; (load; drop) ∥ (load; drop) on ModelArc: 6 execs, digest 688720b8d17bcffe",
        "clone; (load; drop) ∥ (clone; drop; drop) on ModelArc: 10 execs, digest 4ca5f48c5100459f",
        "writer ∥ reader on ModelTml(2): 9916 execs, digest d4a643adbdd09ef0",
        "writer ∥ reader on UnvalidatedTml(2): 1203 execs, digest b454130f8db16c0d",
    ];
    assert!(
        got == want,
        "digests changed; they now read:\n{}",
        got.iter()
            .map(|l| format!("        \"{l}\",\n"))
            .collect::<String>()
    );
}

fn lv(ids: &[u64]) -> BTreeSet<EventId> {
    ids.iter().map(|&i| EventId::from_raw(i)).collect()
}

/// A plain event, a helping pair whose first logview names the second
/// before it exists, and an event whose logview names an id that never
/// becomes an event (`extra`), across the 64-event row boundary when
/// `wide`.
fn hand_built(extra: u64, wide: bool) -> Graph<&'static str> {
    let mut g = Graph::new();
    g.add_event("a", 1, 1, lv(&[0]));
    g.add_event("x1", 2, 5, lv(&[0, 1, 2]));
    g.add_event("x2", 3, 5, lv(&[0, 1, 2]));
    g.add_event("bad", 1, 6, lv(&[0, 3, extra]));
    g.add_so(EventId::from_raw(1), EventId::from_raw(2));
    g.add_so(EventId::from_raw(2), EventId::from_raw(1));
    if wide {
        for i in 4..70 {
            g.add_event(
                "w",
                4,
                10 + i,
                (0..=i).map(EventId::from_raw).collect::<BTreeSet<_>>(),
            );
        }
    }
    g
}

#[test]
fn debug_prints_the_logview_sets() {
    let g = hand_built(9, false);
    assert_eq!(
        format!("{g:?}"),
        "Graph { events: [Event { ty: \"a\", tid: 1, step: 1, logview: {e0} }, \
         Event { ty: \"x1\", tid: 2, step: 5, logview: {e0, e1, e2} }, \
         Event { ty: \"x2\", tid: 3, step: 5, logview: {e0, e1, e2} }, \
         Event { ty: \"bad\", tid: 1, step: 6, logview: {e0, e3, e9} }], \
         so: {(e1, e2), (e2, e1)} }"
    );
    let pretty = fnv1a(&format!("{g:#?}"));
    let wide = fnv1a(&format!("{:?}", hand_built(9, true)));
    assert_eq!(
        (pretty, wide),
        (1_589_077_989_595_683_219, 5_925_766_625_371_749_745)
    );
}

#[test]
fn equality_compares_the_logview_sets() {
    assert_eq!(hand_built(9, false), hand_built(9, false));
    assert_eq!(hand_built(9, true), hand_built(9, true));
    assert_ne!(hand_built(9, false), hand_built(8, false));
    assert_ne!(hand_built(9, false), hand_built(9, true));
    let mut missing = Graph::new();
    missing.add_event("a", 1, 1, lv(&[0]));
    missing.add_event("x1", 2, 5, lv(&[0, 1, 2]));
    missing.add_event("x2", 3, 5, lv(&[0, 1, 2]));
    missing.add_event("bad", 1, 6, lv(&[3, 9]));
    missing.add_so(EventId::from_raw(1), EventId::from_raw(2));
    missing.add_so(EventId::from_raw(2), EventId::from_raw(1));
    assert_ne!(missing, hand_built(9, false));
    // A bit past the first word.
    let mut a = hand_built(9, true);
    let mut b = hand_built(9, true);
    a.add_event(
        "z",
        5,
        99,
        (0..=70).map(EventId::from_raw).collect::<BTreeSet<_>>(),
    );
    b.add_event(
        "z",
        5,
        99,
        (0..=70)
            .filter(|&i| i != 66)
            .map(EventId::from_raw)
            .collect::<BTreeSet<_>>(),
    );
    assert_ne!(a, b);
}

/// Executions of `spec` whose graph, as `pick` projects it, holds a
/// helping pair: two events committed by one instruction.
fn with_pairs<O: Object, T>(
    spec: WorkSpec,
    make: impl Fn(&mut ThreadCtx) -> O + Send + Sync,
    client: &Client,
    pick: impl Fn(&O::Graph) -> &Graph<T> + Sync,
) -> u64 {
    let n = AtomicU64::new(0);
    let program = |s| run_client(&Config::default(), &make, client, s);
    Explorer::serial().explore(&spec, &program, |_, out| {
        let g = pick(out.result.as_ref().expect("no model error"));
        let paired = g.iter().any(|(a, ea)| {
            g.iter()
                .any(|(b, eb)| a != b && ea.step == eb.step && g.lhb(a, b) && g.lhb(b, a))
        });
        n.fetch_add(u64::from(paired), Ordering::Relaxed);
    });
    n.into_inner()
}

#[test]
fn the_digests_cover_helping_pairs() {
    // `commit_pair`: the exchanger's matched exchanges and the
    // elimination stack's eliminated push/pop pairs.
    let exchanged = with_pairs(dfs(1_000_000), Exchanger::new, &EXCHANGE_PAIR, |g| g);
    let eliminated = with_pairs(
        dfs(PREFIX),
        |ctx| ElimStack::new(ctx, 3),
        &ELIM_MIXED,
        |g| &g.0,
    );
    let random = with_pairs(SEEDS, |ctx| ElimStack::new(ctx, 4), &ELIM_MIXED, |g| &g.0);
    assert_eq!((exchanged, eliminated, random), (102, 0, 21));
}

#[test]
fn any_id_order_makes_the_same_logview() {
    let mut g = Graph::new();
    let id = EventId::from_raw;
    g.add_event("a", 1, 1, [id(0), id(0)]);
    g.add_event("x1", 2, 5, [id(2), id(1), id(0), id(2)]);
    g.add_event("x2", 3, 5, vec![id(1), id(2), id(0)]);
    g.add_event("bad", 1, 6, [id(9), id(3), id(0)]);
    g.add_so(id(1), id(2));
    g.add_so(id(2), id(1));
    assert_eq!(g, hand_built(9, false));
    assert_eq!(g.logview(id(3)), lv(&[0, 3, 9]));
    assert!(g.in_logview(id(9), id(3)) && !g.in_logview(id(8), id(3)));
    assert!(g.lhb(id(2), id(1)) && g.lhb(id(1), id(2)) && g.same_logview(id(1), id(2)));
    assert!(!g.lhb(id(3), id(3)) && g.in_logview(id(3), id(3)));
    assert!(!g.same_logview(id(0), id(1)));
}
