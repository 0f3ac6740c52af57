//! Epoch-slice assembly: turning sampled per-epoch op batches into
//! self-contained histories the `CONFORM-*` checks accept.
//!
//! An epoch slice is checked in isolation, so it may only contain
//! *whole values*: a produce alone would poison the slice (`Enq(a)`,
//! `Enq(b)`, `Deq(b)` with `a` never taken in-slice is not
//! FIFO-linearizable even on a correct queue — `a` blocks the front),
//! and a take alone would read as an invented value. The assembler
//! therefore *withholds* every produce in the *open set* and injects it
//! (with its original timestamps) only into the slice where its take
//! resolves — same epoch or later; a bounded *matched memory*
//! additionally remembers consumed pairs so a later duplicate take —
//! the weak-queue signature — assembles into produce + take + take and
//! trips `CONFORM-*-DUP` online. Produces whose take never surfaces
//! (unsampled consume, or still in the structure at shutdown) are
//! dropped and counted, never emitted.
//!
//! Soundness is one-directional by design: everything the assembler
//! *emits* is a faithful sub-history (value projection, under which the
//! queue/stack/deque sequential specs are closed — see DESIGN.md §11),
//! so a violation in a slice is a violation of the full history. Where
//! faithfulness cannot be guaranteed (a take whose produce was evicted
//! from bounded memory, an empty observation whose witness may live in
//! another slice) the op is dropped and counted instead of checked:
//! coverage shrinks, false positives never appear.

use std::collections::{HashMap, HashSet, VecDeque};

use orc11::Val;

use crate::conform::ConformEvent;
use crate::deque_spec::DequeEvent;
use crate::exchanger_spec::ExchangeEvent;
use crate::queue_spec::QueueEvent;
use crate::stack_spec::StackEvent;

use super::SoakOp;

/// How many epochs an unresolved take (or unpaired exchange) is held
/// before being force-resolved: the produce/partner can land in a later
/// epoch than its consumer because writers read the epoch counter
/// before invoking the operation.
const HOLDOVER_EPOCHS: u64 = 2;

/// Cap on held unpaired exchanges (safety valve; in a correct run
/// partners land within an epoch or two of each other).
const PAIR_HOLD_CAP: usize = 4096;

/// Event vocabulary the soak assembler understands, layered on
/// [`ConformEvent`]. Produce/take vocabularies (queue, stack, deque)
/// use value-level sampling, driven by [`ConformEvent`]'s
/// `produced` / `taken` / `is_empty_observation` classification (empty
/// observations are *not checkable* under epoch slicing — their
/// refutation may live in another slice — so the assembler counts and
/// drops them); pairwise vocabularies (exchanger) set
/// [`PAIRWISE`](SoakEvent::PAIRWISE) and are recorded in full.
pub trait SoakEvent: ConformEvent {
    /// Whether slices must be assembled pairwise (exchanger-style):
    /// value sampling is unsound because both sides of a match must be
    /// present, so drivers record every op and the assembler holds
    /// unpaired successes for their partner instead of tracking values.
    const PAIRWISE: bool = false;

    /// The value offered, for pairwise vocabularies.
    fn offered(&self) -> Option<Val> {
        None
    }

    /// The value received, for pairwise vocabularies (`None` = failed).
    fn received(&self) -> Option<Val> {
        None
    }
}

impl SoakEvent for QueueEvent {}
impl SoakEvent for StackEvent {}
impl SoakEvent for DequeEvent {}

impl SoakEvent for ExchangeEvent {
    const PAIRWISE: bool = true;

    fn offered(&self) -> Option<Val> {
        Some(self.give)
    }

    fn received(&self) -> Option<Val> {
        self.got
    }
}

/// Counters for ops the assembler dropped or evicted rather than
/// checked. Dropping loses coverage, never soundness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssemblyStats {
    /// Takes of values absent from both the open set and the matched
    /// memory after eviction started (the produce may have been
    /// evicted, so flagging would be unsound).
    pub dropped_unmatched: u64,
    /// Empty observations (uncheckable under epoch slicing).
    pub dropped_empties: u64,
    /// Successful exchanges whose partner never surfaced within the
    /// hold window.
    pub dropped_unpaired: u64,
    /// Produces whose take never surfaced (unsampled consume, or value
    /// still inside the structure at shutdown) — withheld from every
    /// slice, counted at flush.
    pub dropped_unconsumed: u64,
    /// Evictions from the bounded open-set / matched-memory maps.
    pub evictions: u64,
}

/// Value-projection assembler for produce/take vocabularies.
pub(crate) struct Assembler<E> {
    /// Tracked values produced but not yet taken. Withheld from slices
    /// until their take resolves (whole values only — see module docs).
    open: HashMap<Val, SoakOp<E>>,
    open_order: VecDeque<Val>,
    /// Consumed pairs remembered for duplicate-take detection:
    /// value → (producer, first take, epoch they were matched).
    matched: HashMap<Val, (SoakOp<E>, SoakOp<E>, u64)>,
    matched_order: VecDeque<Val>,
    /// Takes whose value is not (yet) known, held for the produce to
    /// land in a later epoch: (op, epoch first seen).
    pending: Vec<(SoakOp<E>, u64)>,
    cap: usize,
    /// Sticky: once anything has been evicted, unknown takes can no
    /// longer be trusted as MATCH violations.
    evicted: bool,
    stats: AssemblyStats,
}

impl<E: SoakEvent> Assembler<E> {
    pub(crate) fn new(cap: usize) -> Self {
        Assembler {
            open: HashMap::new(),
            open_order: VecDeque::new(),
            matched: HashMap::new(),
            matched_order: VecDeque::new(),
            pending: Vec::new(),
            cap: cap.max(1),
            evicted: false,
            stats: AssemblyStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> AssemblyStats {
        self.stats
    }

    /// Resolves one take against the open set / matched memory,
    /// injecting carried-over ops into `slice` as needed. Returns
    /// `false` if the value is unknown (caller decides to hold or
    /// resolve).
    fn resolve_take(
        &mut self,
        op: SoakOp<E>,
        v: Val,
        epoch: u64,
        slice: &mut Vec<SoakOp<E>>,
        injected: &mut HashSet<Val>,
    ) -> bool {
        if let Some(prod) = self.open.remove(&v) {
            // The producer was withheld until now: emit the whole value.
            slice.push(prod);
            self.matched.insert(v, (prod, op, epoch));
            self.matched_order.push_back(v);
            self.evict_matched();
            slice.push(op);
            true
        } else if let Some(&(prod, take0, match_epoch)) = self.matched.get(&v) {
            // Duplicate take: re-present the original pair so the
            // checker sees produce + take + take and fires `*-DUP`.
            if match_epoch != epoch && injected.insert(v) {
                slice.push(prod);
                slice.push(take0);
            }
            slice.push(op);
            true
        } else {
            false
        }
    }

    /// Folds one epoch's sampled batch into a checkable slice.
    pub(crate) fn assemble(&mut self, epoch: u64, batch: Vec<SoakOp<E>>) -> Vec<SoakOp<E>> {
        let mut slice = Vec::with_capacity(batch.len());
        let mut injected: HashSet<Val> = HashSet::new();

        // Register this batch's produces first (withheld, not emitted)
        // so pending takes from earlier epochs and same-epoch takes can
        // resolve against them. Tracked values are unique per session,
        // so each value is produced at most once.
        for op in &batch {
            if let Some(v) = op.op.produced() {
                self.open.insert(v, *op);
                self.open_order.push_back(v);
                self.evict_open();
            }
        }

        // Retry takes held from earlier epochs; age out stragglers.
        let pending = std::mem::take(&mut self.pending);
        for (op, first_seen) in pending {
            let v = op.op.taken().expect("only takes are held");
            if self.resolve_take(op, v, epoch, &mut slice, &mut injected) {
                continue;
            }
            if epoch.saturating_sub(first_seen) < HOLDOVER_EPOCHS {
                self.pending.push((op, first_seen));
            } else if self.evicted {
                self.stats.dropped_unmatched += 1;
            } else {
                // Nothing evicted and the produce never surfaced: a
                // genuine invented value — let the checker flag it.
                slice.push(op);
            }
        }

        for op in batch {
            if op.op.is_empty_observation() {
                self.stats.dropped_empties += 1;
                continue;
            }
            if let Some(v) = op.op.taken() {
                if !self.resolve_take(op, v, epoch, &mut slice, &mut injected) {
                    self.pending.push((op, epoch));
                }
            } else if op.op.produced().is_none() {
                slice.push(op);
            }
        }
        slice
    }

    /// Force-resolves everything still pending at shutdown (mutators
    /// have joined, so all produces have been submitted). Produces
    /// still open — their takes were unsampled or never happened — are
    /// dropped and counted, since emitting a produce without its take
    /// would poison the slice (see module docs).
    pub(crate) fn flush(&mut self) -> Vec<SoakOp<E>> {
        let mut slice = Vec::new();
        for (op, _) in std::mem::take(&mut self.pending) {
            if self.evicted {
                self.stats.dropped_unmatched += 1;
            } else {
                slice.push(op);
            }
        }
        self.stats.dropped_unconsumed += self.open.len() as u64;
        self.open.clear();
        self.open_order.clear();
        slice
    }

    fn evict_open(&mut self) {
        while self.open.len() > self.cap {
            // `open_order` may lead with values already matched away;
            // skip those stale entries lazily.
            while let Some(v) = self.open_order.pop_front() {
                if self.open.remove(&v).is_some() {
                    self.evicted = true;
                    self.stats.evictions += 1;
                    break;
                }
            }
        }
    }

    fn evict_matched(&mut self) {
        while self.matched.len() > self.cap {
            while let Some(v) = self.matched_order.pop_front() {
                if self.matched.remove(&v).is_some() {
                    self.evicted = true;
                    self.stats.evictions += 1;
                    break;
                }
            }
        }
    }
}

/// Pairwise assembler for exchanger-style vocabularies: an epoch slice
/// must contain both sides of every match, so successful exchanges
/// whose partner has not surfaced yet are held over to the next epoch.
pub(crate) struct PairAssembler<E> {
    hold: Vec<SoakOp<E>>,
    stats: AssemblyStats,
}

impl<E: SoakEvent> PairAssembler<E> {
    pub(crate) fn new() -> Self {
        PairAssembler {
            hold: Vec::new(),
            stats: AssemblyStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> AssemblyStats {
        self.stats
    }

    pub(crate) fn assemble(&mut self, _epoch: u64, batch: Vec<SoakOp<E>>) -> Vec<SoakOp<E>> {
        let mut pool = std::mem::take(&mut self.hold);
        pool.extend(batch);

        let mut offers: HashMap<Val, Vec<usize>> = HashMap::new();
        for (i, op) in pool.iter().enumerate() {
            if let Some(v) = op.op.offered() {
                offers.entry(v).or_default().push(i);
            }
        }

        let mut emit = vec![false; pool.len()];
        for i in 0..pool.len() {
            match pool[i].op.received() {
                // Failed exchanges stand alone.
                None => emit[i] = true,
                Some(got) => {
                    if pool[i].op.offered() == Some(got) {
                        // Self-match: emit and let the checker flag it.
                        emit[i] = true;
                        continue;
                    }
                    let partners: Vec<usize> = offers
                        .get(&got)
                        .map(|idxs| idxs.iter().copied().filter(|&j| j != i).collect())
                        .unwrap_or_default();
                    if !partners.is_empty() {
                        emit[i] = true;
                        // Pull the candidate partner(s) into the same
                        // slice so the symmetry check can see them.
                        for j in partners {
                            emit[j] = true;
                        }
                    }
                }
            }
        }

        let mut slice = Vec::new();
        let mut hold = Vec::new();
        for (i, op) in pool.into_iter().enumerate() {
            if emit[i] {
                slice.push(op);
            } else {
                hold.push(op);
            }
        }
        if hold.len() > PAIR_HOLD_CAP {
            let excess = hold.len() - PAIR_HOLD_CAP;
            hold.drain(..excess);
            self.stats.dropped_unpaired += excess as u64;
        }
        self.hold = hold;
        slice
    }

    /// Emits everything still held at shutdown: with all mutators
    /// joined every op has been submitted, so a still-unpaired success
    /// is a genuine asymmetry for the checker to flag.
    pub(crate) fn flush(&mut self) -> Vec<SoakOp<E>> {
        std::mem::take(&mut self.hold)
    }
}

/// Either assembler, chosen by the vocabulary's `PAIRWISE` flag.
pub(crate) enum AssemblerKind<E> {
    Value(Assembler<E>),
    Pair(PairAssembler<E>),
}

impl<E: SoakEvent> AssemblerKind<E> {
    pub(crate) fn new(cap: usize) -> Self {
        if E::PAIRWISE {
            AssemblerKind::Pair(PairAssembler::new())
        } else {
            AssemblerKind::Value(Assembler::new(cap))
        }
    }

    pub(crate) fn assemble(&mut self, epoch: u64, batch: Vec<SoakOp<E>>) -> Vec<SoakOp<E>> {
        match self {
            AssemblerKind::Value(a) => a.assemble(epoch, batch),
            AssemblerKind::Pair(a) => a.assemble(epoch, batch),
        }
    }

    pub(crate) fn flush(&mut self) -> Vec<SoakOp<E>> {
        match self {
            AssemblerKind::Value(a) => a.flush(),
            AssemblerKind::Pair(a) => a.flush(),
        }
    }

    pub(crate) fn stats(&self) -> AssemblyStats {
        match self {
            AssemblerKind::Value(a) => a.stats(),
            AssemblerKind::Pair(a) => a.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orc11::Val;

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

    #[test]
    fn cross_epoch_take_pulls_in_its_producer() {
        let mut a = Assembler::<QueueEvent>::new(64);
        let s0 = a.assemble(0, vec![op(0, QueueEvent::Enq(int(7)), 0, 1)]);
        assert!(s0.is_empty(), "a produce is withheld until its take");
        let s1 = a.assemble(1, vec![op(1, QueueEvent::Deq(int(7)), 10, 11)]);
        // The epoch-0 producer is presented alongside the take.
        assert_eq!(s1.len(), 2);
        assert!(s1.iter().any(|o| o.op == QueueEvent::Enq(int(7))));
        assert!(s1.iter().any(|o| o.op == QueueEvent::Deq(int(7))));
    }

    #[test]
    fn unconsumed_produce_never_poisons_a_slice() {
        // Regression: Enq(a), Enq(b), Deq(b) with `a` untaken in-slice
        // is not FIFO-linearizable on a *correct* queue (`a` blocks the
        // front). The slice must contain only whole values.
        let mut a = Assembler::<QueueEvent>::new(64);
        let s = a.assemble(
            0,
            vec![
                op(0, QueueEvent::Enq(int(1)), 0, 1),
                op(0, QueueEvent::Enq(int(2)), 2, 3),
                op(1, QueueEvent::Deq(int(2)), 4, 5),
            ],
        );
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|o| o.op != QueueEvent::Enq(int(1))));
        // At shutdown the withheld produce is dropped and counted.
        assert!(a.flush().is_empty());
        assert_eq!(a.stats().dropped_unconsumed, 1);
    }

    #[test]
    fn cross_epoch_duplicate_take_assembles_the_dup_witness() {
        let mut a = Assembler::<QueueEvent>::new(64);
        a.assemble(
            0,
            vec![
                op(0, QueueEvent::Enq(int(7)), 0, 1),
                op(1, QueueEvent::Deq(int(7)), 2, 3),
            ],
        );
        // Epochs later, the same value is taken again (weak-queue
        // signature): the slice must contain Enq + both Deqs.
        let s = a.assemble(3, vec![op(2, QueueEvent::Deq(int(7)), 30, 31)]);
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.iter().filter(|o| o.op == QueueEvent::Deq(int(7))).count(),
            2
        );
        assert_eq!(
            s.iter().filter(|o| o.op == QueueEvent::Enq(int(7))).count(),
            1
        );
    }

    #[test]
    fn late_produce_resolves_a_held_take() {
        // The taker read the epoch counter before the producer did:
        // the take lands in epoch 1, its produce in epoch 2.
        let mut a = Assembler::<QueueEvent>::new(64);
        let s1 = a.assemble(1, vec![op(0, QueueEvent::Deq(int(9)), 20, 21)]);
        assert!(s1.is_empty(), "unknown take must be held, not flagged");
        let s2 = a.assemble(2, vec![op(1, QueueEvent::Enq(int(9)), 18, 19)]);
        assert_eq!(s2.len(), 2);
    }

    #[test]
    fn invented_value_survives_holdover_and_is_emitted() {
        let mut a = Assembler::<QueueEvent>::new(64);
        assert!(a
            .assemble(0, vec![op(0, QueueEvent::Deq(int(42)), 0, 1)])
            .is_empty());
        assert!(a.assemble(1, vec![]).is_empty());
        // Two epochs with no matching produce: emitted for the checker
        // to flag as CONFORM-QUEUE-MATCH.
        let s = a.assemble(2, vec![]);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].op, QueueEvent::Deq(int(42)));
    }

    #[test]
    fn empties_are_counted_not_checked() {
        let mut a = Assembler::<QueueEvent>::new(64);
        let s = a.assemble(0, vec![op(0, QueueEvent::EmpDeq, 0, 1)]);
        assert!(s.is_empty());
        assert_eq!(a.stats().dropped_empties, 1);
    }

    #[test]
    fn eviction_disables_match_flagging() {
        let mut a = Assembler::<QueueEvent>::new(2);
        let batch: Vec<_> = (0..5)
            .map(|i| op(0, QueueEvent::Enq(int(i)), i as u64, i as u64 + 1))
            .collect();
        a.assemble(0, batch);
        assert!(a.stats().evictions > 0);
        // An unknown take after eviction is dropped, never flagged.
        a.assemble(1, vec![op(1, QueueEvent::Deq(int(0)), 10, 11)]);
        a.assemble(2, vec![]);
        let s = a.assemble(3, vec![]);
        assert!(s.is_empty());
        assert_eq!(a.stats().dropped_unmatched, 1);
    }

    #[test]
    fn pairwise_holds_until_the_partner_lands() {
        let mut a = PairAssembler::<ExchangeEvent>::new();
        let give = |t: usize, g: i64, got: i64, inv: u64| SoakOp {
            thread: t,
            op: ExchangeEvent {
                give: int(g),
                got: Some(int(got)),
            },
            inv,
            resp: inv + 1,
        };
        let s0 = a.assemble(0, vec![give(0, 1, 2, 0)]);
        assert!(s0.is_empty(), "unpaired success must be held");
        let s1 = a.assemble(1, vec![give(1, 2, 1, 0)]);
        assert_eq!(s1.len(), 2, "pair emitted together once partner lands");
    }

    #[test]
    fn pairwise_failures_and_flush_pass_through() {
        let mut a = PairAssembler::<ExchangeEvent>::new();
        let fail = SoakOp {
            thread: 0,
            op: ExchangeEvent {
                give: int(5),
                got: None,
            },
            inv: 0,
            resp: 1,
        };
        let orphan = SoakOp {
            thread: 1,
            op: ExchangeEvent {
                give: int(6),
                got: Some(int(99)),
            },
            inv: 0,
            resp: 1,
        };
        let s = a.assemble(0, vec![fail, orphan]);
        assert_eq!(s.len(), 1, "failure emitted, orphan success held");
        let flushed = a.flush();
        assert_eq!(flushed.len(), 1, "orphan emitted at shutdown");
        assert_eq!(flushed[0].op.got, Some(int(99)));
    }
}
