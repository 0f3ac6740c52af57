//! Seeded history generator for the two conform workloads.
//!
//! Simulates `threads` virtual threads driving one *sequential* queue or
//! stack under a virtual clock: every operation has an invocation, a
//! linearization point inside its interval, and a response, and takes
//! effect on the sequential structure at its linearization point. The
//! resulting history is linearizable by construction, so a clean verdict
//! is the known answer; the control stream adds one duplicate take.
//!
//! Nothing here touches wall-clock time or real threads: the same seeds
//! give byte-identical epochs, which is what lets the exact-repeat
//! counters (`compass.soak.events_checked`, `compass.history.search_nodes`)
//! be asserted identical across passes and run sets.
//!
//! A stream has two seeds. Its *shape* seed is fixed per regime in
//! `params.rs`; the run's `--seed` is its *label* seed. The linearization
//! search has an exponential tail, so two shapes of the same size differ
//! in check cost by tens of percent (sizing: 535-841 ms over ten shapes
//! of the dense regime) — were `--seed` to pick the shape, the seed, not
//! the code, would decide `verdict_s`.

use std::collections::{HashMap, VecDeque};

use compass::queue_spec::QueueEvent;
use compass::soak::{SoakEvent, SoakOp};
use compass::stack_spec::StackEvent;
use orc11::rng::SmallRng;
use orc11::Val;

/// The produce/take vocabulary of one sequential structure.
pub trait Vocab: SoakEvent {
    /// Subject label (`"queue"` / `"stack"`).
    const NAME: &'static str;
    /// The clause a duplicate take must be convicted of.
    const DUP_RULE: &'static str;
    fn produce(v: Val) -> Self;
    fn take(v: Val) -> Self;
    /// Removes the element the sequential semantics takes next.
    fn remove(held: &mut VecDeque<Val>) -> Option<Val>;
}

impl Vocab for QueueEvent {
    const NAME: &'static str = "queue";
    const DUP_RULE: &'static str = "CONFORM-QUEUE-DUP";
    fn produce(v: Val) -> Self {
        QueueEvent::Enq(v)
    }
    fn take(v: Val) -> Self {
        QueueEvent::Deq(v)
    }
    fn remove(held: &mut VecDeque<Val>) -> Option<Val> {
        held.pop_front()
    }
}

impl Vocab for StackEvent {
    const NAME: &'static str = "stack";
    const DUP_RULE: &'static str = "CONFORM-STACK-DUP";
    fn produce(v: Val) -> Self {
        StackEvent::Push(v)
    }
    fn take(v: Val) -> Self {
        StackEvent::Pop(v)
    }
    fn remove(held: &mut VecDeque<Val>) -> Option<Val> {
        held.pop_back()
    }
}

/// Generator parameters; the two regimes are fixed in `params.rs`.
#[derive(Clone, Copy, Debug)]
pub struct GenParams {
    /// Virtual mutator threads.
    pub threads: usize,
    /// Operation duration range in virtual ns (inclusive bounds).
    pub op_ns: (u64, u64),
    /// Think time between a thread's operations, as a multiple of the
    /// mean operation duration, in eighths (`8` = think as long as an
    /// op takes, `2048` = 256 ops' worth: near-sequential).
    pub think_eighths: u64,
    /// Events per epoch (inclusive bounds), drawn per epoch.
    pub epoch_events: (usize, usize),
    /// Epochs per stream.
    pub epochs: usize,
    /// Bound on elements held by the structure: above it the next
    /// operation is a take. This is the guard rail on the linearization
    /// search's exponential tail — a wrong guess among concurrent
    /// produces is only refuted when their takes arrive, so the refuting
    /// distance (and with it the wasted subtree) grows with the depth.
    pub max_depth: usize,
    /// Where the control's duplicate take lands, in per-mille of the
    /// stream's takes.
    pub dup_per_mille: u64,
}

/// One generated stream, cut into epochs in invocation order.
pub struct Stream<E> {
    pub epochs: Vec<Vec<SoakOp<E>>>,
}

impl<E: Vocab> Stream<E> {
    /// The batches in submission order (cloned: a pass consumes them).
    pub fn batches(&self) -> impl Iterator<Item = (u64, Vec<SoakOp<E>>)> + '_ {
        self.epochs
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u64, b.clone()))
    }

    /// The slices the soak engine's assembler makes of these batches,
    /// worked out from the generator's own knowledge of the matching: a
    /// value's produce and take travel together into the later of their
    /// two batches (slices hold whole values only), and a duplicate take
    /// stays in its own batch, joined by a re-presented copy of the pair
    /// it duplicates if that pair was emitted earlier. The traced run
    /// feeds these to the public check pieces directly, and the oracle
    /// holds the engine to their event total.
    pub fn slices(&self) -> Vec<Vec<SoakOp<E>>> {
        let value = |o: &SoakOp<E>| o.op.produced().or(o.op.taken()).expect("produce or take");
        // value -> (batch of produce, batch of first take)
        let mut home: HashMap<Val, (usize, Option<usize>)> = HashMap::new();
        for (k, batch) in self.epochs.iter().enumerate() {
            for o in batch.iter().filter(|o| o.op.produced().is_some()) {
                home.insert(value(o), (k, None));
            }
        }
        for (k, batch) in self.epochs.iter().enumerate() {
            for o in batch.iter().filter(|o| o.op.taken().is_some()) {
                let h = home.get_mut(&value(o)).expect("every take has a produce");
                h.1.get_or_insert(k);
            }
        }
        let pair_slice = |v: Val| {
            let (p, t) = home[&v];
            p.max(t.expect("every produce is taken"))
        };
        let mut out: Vec<Vec<SoakOp<E>>> = vec![Vec::new(); self.epochs.len()];
        let mut taken: HashMap<Val, SoakOp<E>> = HashMap::new();
        let mut dups: Vec<(usize, SoakOp<E>)> = Vec::new();
        for (k, batch) in self.epochs.iter().enumerate() {
            for o in batch {
                let v = value(o);
                if o.op.taken().is_some() {
                    if taken.contains_key(&v) {
                        dups.push((k, *o));
                        continue;
                    }
                    taken.insert(v, *o);
                }
                out[pair_slice(v)].push(*o);
            }
        }
        for (k, dup) in dups {
            let v = value(&dup);
            if pair_slice(v) != k {
                let pair: Vec<SoakOp<E>> = out[pair_slice(v)]
                    .iter()
                    .filter(|o| value(o) == v)
                    .copied()
                    .collect();
                out[k].extend(pair);
            }
            out[k].push(dup);
        }
        out
    }
}

struct VThread {
    inv: u64,
    lin: u64,
    resp: u64,
}

fn next_op(rng: &mut SmallRng, p: &GenParams, after: u64) -> VThread {
    let mean_op = (p.op_ns.0 + p.op_ns.1) / 2;
    let think_mean = mean_op * p.think_eighths / 8;
    // Think time is uniform in [mean/2, 3*mean/2], never zero so a
    // thread's consecutive operations stay strictly ordered.
    let think = 1 + think_mean / 2 + rng.gen_range(0, think_mean.max(1) + 1);
    let inv = after + think;
    let dur = rng.gen_range(p.op_ns.0, p.op_ns.1 + 1);
    VThread {
        inv,
        lin: inv + rng.gen_range(0, dur + 1),
        resp: inv + dur,
    }
}

/// Generates one stream. With `dup`, one take (at `dup_per_mille` of the
/// takes) is issued a second time by an extra virtual thread strictly
/// after the original responded — the weak-structure signature the
/// `*-DUP` clause convicts.
///
/// `shape` decides everything the check's cost depends on: epoch sizes,
/// overlaps, the produce/take sequence. `label` only names things — the
/// first element value and the virtual clock's origin — so streams of
/// one shape cost the same to check under every label (the search-node
/// count repeats exactly across them).
pub fn generate<E: Vocab>(shape: u64, label: u64, p: &GenParams, dup: bool) -> Stream<E> {
    let mut names = SmallRng::seed_from_u64(label);
    let first_val = names.gen_i64(1, 1_000_000) * 1000;
    let origin = names.gen_range(0, 1_000_000_000);
    let mut rng = SmallRng::seed_from_u64(shape);
    let sizes: Vec<usize> = (0..p.epochs)
        .map(|_| rng.gen_range(p.epoch_events.0 as u64, p.epoch_events.1 as u64 + 1) as usize)
        .collect();
    // Every produce is eventually taken, so the stream has an even
    // number of events.
    let total = sizes.iter().sum::<usize>() & !1;

    let mut threads: Vec<VThread> = (0..p.threads)
        .map(|_| next_op(&mut rng, p, origin))
        .collect();
    let mut held: VecDeque<Val> = VecDeque::new();
    let mut ops: Vec<SoakOp<E>> = Vec::with_capacity(total + 1);
    let mut produced = 0usize;
    let mut next_val = first_val;
    while ops.len() < total {
        // The thread whose pending operation linearizes first.
        let t = (0..p.threads)
            .min_by_key(|&t| (threads[t].lin, t))
            .expect("at least one thread");
        let remaining_produces = total / 2 - produced;
        let want_produce = if held.is_empty() {
            true
        } else if remaining_produces == 0 || held.len() >= p.max_depth {
            false
        } else {
            rng.gen_bool()
        };
        let op = if want_produce {
            let v = Val::Int(next_val);
            next_val += 1;
            produced += 1;
            held.push_back(v);
            E::produce(v)
        } else {
            E::take(E::remove(&mut held).expect("nonempty"))
        };
        let VThread { inv, resp, .. } = threads[t];
        ops.push(SoakOp {
            thread: t,
            op,
            inv,
            resp,
        });
        threads[t] = next_op(&mut rng, p, resp);
    }
    debug_assert!(held.is_empty());

    if dup {
        let takes: Vec<usize> = (0..ops.len())
            .filter(|&i| ops[i].op.taken().is_some())
            .collect();
        let orig = ops[takes[(takes.len() as u64 * p.dup_per_mille / 1000) as usize]];
        ops.push(SoakOp {
            thread: p.threads,
            op: orig.op,
            inv: orig.resp + 1,
            resp: orig.resp + 1 + p.op_ns.0,
        });
    }

    ops.sort_by_key(|o| (o.inv, o.resp, o.thread));
    let mut epochs = Vec::with_capacity(sizes.len());
    let mut rest = ops.as_slice();
    for (i, &n) in sizes.iter().enumerate() {
        let n = if i + 1 == sizes.len() {
            rest.len()
        } else {
            n.min(rest.len())
        };
        let (head, tail) = rest.split_at(n);
        epochs.push(head.to_vec());
        rest = tail;
    }
    Stream { epochs }
}
