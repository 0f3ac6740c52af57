//! Library objects: shared graphs plus the commit-point API.

use std::fmt;
use std::ops::{Deref, DerefMut};

use orc11::sync::{Mutex, MutexGuard};

use orc11::{GhostHandle, ThreadCtx, ThreadId, VecClock};

use crate::event::EventId;
use crate::graph::Graph;

/// A library object: the shared event graph of one data-structure
/// instance, together with the commit epoch of each of its events.
///
/// This plays the role of the paper's *atomically shared ownership*
/// assertion (`Queue(q, G)`, `Stack(s, G)`, `Exchanger(x, G)`): the graph
/// is the abstract state guarded by the (objective) invariant, and
/// [`LibObj::commit`] is the logically atomic update at the commit point.
/// Because the model serializes instructions and `commit` is called from
/// inside a commit window ([`GhostHandle`]), the graph extension is atomic
/// with the memory instruction — the operational content of a logically
/// atomic triple.
///
/// Logical views are read off the model's vector clocks (§3.1: a logical
/// view is the set of events that happen before a point). Every event
/// records the *epoch* of the instruction that committed it — the
/// committing thread and its clock there — and the events a thread has
/// synchronized with are exactly those whose epoch its clock covers. So a
/// thread's logical view of the object (the `M₀` of a
/// `SeenQueue(q, G₀, M₀)` assertion) travels between threads along
/// release/acquire synchronization with no state of its own.
pub struct LibObj<T> {
    name: String,
    state: Mutex<State<T>>,
}

/// The graph and its events' epochs, locked together.
struct State<T> {
    graph: Graph<T>,
    /// Entry `i` is event `i`'s commit epoch.
    epochs: Vec<(ThreadId, u64)>,
}

/// Sets in `row` the bits of the events whose commit epoch (`epochs[e]`)
/// `clock` covers, one word per 64 events.
fn fill_row(epochs: &[(ThreadId, u64)], clock: &VecClock, row: &mut [u64]) {
    for (word, epochs) in row.iter_mut().zip(epochs.chunks(64)) {
        *word |= (0..)
            .zip(epochs)
            .filter(|&(_, &(t, c))| clock.get(t) >= c)
            .fold(0, |w, (i, _)| w | 1 << i);
    }
}

/// [`LibObj::graph`]'s lock guard.
struct GraphGuard<'a, T>(MutexGuard<'a, State<T>>);

impl<T> Deref for GraphGuard<'_, T> {
    type Target = Graph<T>;

    fn deref(&self) -> &Graph<T> {
        &self.0.graph
    }
}

impl<T> DerefMut for GraphGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut Graph<T> {
        &mut self.0.graph
    }
}

impl<T> fmt::Debug for LibObj<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LibObj").field("name", &self.name).finish()
    }
}

impl<T> LibObj<T> {
    /// Creates a fresh object with an empty graph.
    pub fn new(name: &str) -> Self {
        LibObj {
            name: name.to_string(),
            state: Mutex::new(State {
                graph: Graph::new(),
                epochs: Vec::new(),
            }),
        }
    }

    /// The object's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Locks and returns the graph.
    ///
    /// Safe to call from commit windows (the model's turnstile already
    /// serializes them) and from the finish phase.
    pub fn graph(&self) -> impl DerefMut<Target = Graph<T>> + '_ {
        GraphGuard(self.state.lock())
    }

    /// A clone of the current graph.
    pub fn snapshot(&self) -> Graph<T>
    where
        T: Clone,
    {
        self.state.lock().graph.clone()
    }

    /// The calling thread's logical view of this object (its `M₀`) as a
    /// bit row: bit `e` is set iff event `e` happens before the thread's
    /// current point.
    pub(crate) fn seen_row(&self, ctx: &ThreadCtx) -> Vec<u64> {
        let st = self.state.lock();
        let mut row = vec![0; st.epochs.len().div_ceil(64)];
        fill_row(&st.epochs, &ctx.clock(), &mut row);
        row
    }

    /// Commits `events` in one commit window. They share one logical view
    /// — everything that happens before the window, plus all of them — and
    /// the committing thread's epoch, whoever's operations they represent.
    fn commit_all<const N: usize>(
        &self,
        gh: &GhostHandle<'_>,
        events: [(ThreadId, T); N],
    ) -> [EventId; N] {
        let clock = gh.clock();
        let epoch = (gh.tid(), clock.get(gh.tid()));
        let step = gh.step_index();
        let mut st = self.state.lock();
        let State { graph, epochs } = &mut *st;
        let ids = graph.add_group(step, events, |row| fill_row(epochs, clock, row));
        epochs.extend([epoch; N]);
        ids
    }

    /// Commits one event at the current commit window.
    ///
    /// The event's logical view is everything of this object that
    /// happens before the commit, plus the event itself; it enters the
    /// logical views of the operations the committing instruction
    /// happens before (through the message a write or RMW window
    /// publishes, and the thread's own later instructions).
    pub fn commit(&self, gh: &mut GhostHandle<'_>, ty: T) -> EventId {
        let [id] = self.commit_all(gh, [(gh.tid(), ty)]);
        id
    }

    /// Commits an event on behalf of another thread (helping with a
    /// *split* commit — used by deliberately buggy implementations; a
    /// correct helper uses [`LibObj::commit_pair`]).
    pub fn commit_as(&self, gh: &mut GhostHandle<'_>, tid: ThreadId, ty: T) -> EventId {
        let [id] = self.commit_all(gh, [(tid, ty)]);
        id
    }

    /// Commits a matched event: like [`LibObj::commit`], plus an `so` edge
    /// from `source` (e.g. the enqueue a dequeue takes its value from).
    pub fn commit_matched(&self, gh: &mut GhostHandle<'_>, ty: T, source: EventId) -> EventId {
        let id = self.commit(gh, ty);
        self.graph().add_so(source, id);
        id
    }

    /// Commits a *helping pair* atomically (§4.2): the helper's single
    /// commit instruction performs the helpee's commit and then its own.
    ///
    /// Both events share the same logical view `M' = M ∪ {e₁, e₂}` (as in
    /// the paper's HB-EXCHANGE, where the completed graph has
    /// `G(e₁).logview = G(e₂).logview = M'`), and both share the step index
    /// of the helper's instruction — no other operation can observe the
    /// intermediate state between the two commits.
    ///
    /// Each side is given as `(tid, type)` — the first is the helpee's
    /// event, the second the helper's (committed by the calling thread on
    /// the helpee's behalf, so the tids need not be the caller's).
    /// `so_edges` lists edges among the pair as `(from, to)` indices into
    /// `[first, second]` — e.g. `&[(0, 1), (1, 0)]` for the exchanger's
    /// symmetric so, or `&[(0, 1)]` for an elimination push→pop edge.
    ///
    /// Returns `(first_id, second_id)`.
    pub fn commit_pair(
        &self,
        gh: &mut GhostHandle<'_>,
        first: (ThreadId, T),
        second: (ThreadId, T),
        so_edges: &[(usize, usize)],
    ) -> (EventId, EventId) {
        let ids = self.commit_all(gh, [first, second]);
        let mut g = self.graph();
        for &(a, b) in so_edges {
            g.add_so(ids[a], ids[b]);
        }
        (ids[0], ids[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seen;
    use orc11::{random_strategy, run_model, BodyFn, Config, Loc, Mode, Val};

    #[test]
    fn commit_inside_release_write_flows_to_acquirer() {
        let out = run_model(
            &Config::default(),
            random_strategy(1),
            |ctx| {
                let flag = ctx.alloc("flag", Val::Int(0));
                (flag, LibObj::<&'static str>::new("q"))
            },
            vec![
                Box::new(
                    |ctx: &mut orc11::ThreadCtx, (flag, obj): &(Loc, LibObj<&str>)| {
                        ctx.write_with(*flag, Val::Int(1), Mode::Release, |gh| {
                            obj.commit(gh, "enq");
                        });
                        None
                    },
                ) as BodyFn<'_, _, Option<Seen>>,
                Box::new(
                    |ctx: &mut orc11::ThreadCtx, (flag, obj): &(Loc, LibObj<&str>)| {
                        ctx.read_await(*flag, Mode::Acquire, |v| v == Val::Int(1));
                        Some(Seen::capture(obj, ctx))
                    },
                ),
            ],
            |_, (_, obj), outs| {
                let g = obj.snapshot();
                g.check_well_formed().unwrap();
                assert_eq!(g.len(), 1);
                // The acquiring thread has the event in its logical view.
                assert!(outs[1].as_ref().unwrap().observed(EventId::from_raw(0)));
                g.event(EventId::from_raw(0)).ty
            },
        );
        assert_eq!(out.result.unwrap(), "enq");
    }

    #[test]
    fn commit_logview_contains_self_and_priors() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| {
                let l = ctx.alloc("x", Val::Int(0));
                (l, LibObj::<u32>::new("s"))
            },
            vec![Box::new(
                |ctx: &mut orc11::ThreadCtx, (l, obj): &(Loc, LibObj<u32>)| {
                    ctx.write_with(*l, Val::Int(1), Mode::Release, |gh| {
                        obj.commit(gh, 1);
                    });
                    ctx.write_with(*l, Val::Int(2), Mode::Release, |gh| {
                        obj.commit(gh, 2);
                    });
                },
            ) as BodyFn<'_, _, ()>],
            |_, (_, obj), _| {
                let g = obj.snapshot();
                g.check_well_formed().unwrap();
                // po: first event is in the logview of the second.
                assert!(g.lhb(EventId::from_raw(0), EventId::from_raw(1)));
                assert!(!g.lhb(EventId::from_raw(1), EventId::from_raw(0)));
                g.len()
            },
        );
        assert_eq!(out.result.unwrap(), 2);
    }

    #[test]
    fn commit_pair_is_atomic_and_symmetric() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| {
                let l = ctx.alloc("slot", Val::Int(0));
                (l, LibObj::<&'static str>::new("x"))
            },
            vec![Box::new(
                |ctx: &mut orc11::ThreadCtx, (l, obj): &(Loc, LibObj<&str>)| {
                    let _ = ctx.cas_with(
                        *l,
                        Val::Int(0),
                        Val::Int(1),
                        Mode::AcqRel,
                        Mode::Relaxed,
                        |res, gh| {
                            assert!(res.new.is_some());
                            let helper_tid = gh.tid();
                            obj.commit_pair(
                                gh,
                                (7, "helpee"),
                                (helper_tid, "helper"),
                                &[(0, 1), (1, 0)],
                            );
                        },
                    );
                },
            ) as BodyFn<'_, _, ()>],
            |_, (_, obj), _| {
                let g = obj.snapshot();
                g.check_well_formed().unwrap();
                let (a, b) = (EventId::from_raw(0), EventId::from_raw(1));
                assert_eq!(g.event(a).step, g.event(b).step);
                assert_eq!(g.event(a).tid, 7);
                assert!(g.so().contains(&(a, b)) && g.so().contains(&(b, a)));
                // Mutual logviews.
                assert!(g.lhb(b, a) && g.lhb(a, b) && g.same_logview(a, b));
                g.len()
            },
        );
        assert_eq!(out.result.unwrap(), 2);
    }
}
