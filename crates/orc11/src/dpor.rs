//! Dynamic partial-order reduction (DPOR) for the DFS exploration
//! engine.
//!
//! Plain DFS ([`crate::WorkSpec::Dfs`]) enumerates *every* interleaving
//! of the model's instructions — including the combinatorial mass of
//! schedules that differ only in the order of non-conflicting
//! instructions and are therefore observationally identical. This module
//! implements classic DPOR (Flanagan & Godefroid, POPL 2005) with sleep
//! sets, adapted to the engine's choice-trace formulation:
//!
//! * every executed body instruction carries an access summary
//!   ([`StepAccess`], recorded by `orc11::exec` into
//!   [`crate::RunOutcome::accesses`]) naming the location it touched,
//!   whether it read/wrote/RMW'd/fenced, and whether its commit
//!   continuation made it a commit point;
//! * when an execution completes, every pair of *conflicting*
//!   instructions by different threads ([`conflicts`]) demands a
//!   *backtrack point*: the scheduling decision that ran the earlier
//!   instruction must also try the later instruction's thread
//!   (`DporState::on_complete`);
//! * demanded alternatives feed the same shared DFS prefix frontier the
//!   work-stealing workers drain ([`crate::WorkSource`]); a per-decision
//!   *sleep set* (the `explored` map) keeps each alternative from being
//!   scheduled twice.
//!
//! Thread-choice siblings that no conflict ever demands are simply never
//! pushed — that is the reduction. Read choices (which message an atomic
//! read returns) are always fully enumerated: each candidate message is
//! a genuinely different outcome, not a reordering.
//!
//! ## Why this stays deterministic under work stealing
//!
//! An execution's demands are a pure function of that execution (its
//! trace and access list), and an execution is a pure function of its
//! claimed prefix. The set of explored prefixes is therefore the least
//! fixpoint of "root, plus everything some explored execution demands" —
//! a property of the *model*, not of how many workers drained the
//! frontier. The pruning counters ([`DporStats`]) are defined so each is
//! a function of that fixpoint too, which is what keeps DPOR reports
//! byte-identical at any thread count (pinned by
//! `tests/dpor_soundness.rs` and `tests/parallel_determinism.rs`).
//!
//! ## Conservative conflict relation
//!
//! When in doubt, two accesses conflict (= explore both orders). In
//! particular any two commit points conflict regardless of location —
//! commit continuations observe the global step index and the clock,
//! and extend the event graphs the `compass` specs consume, so their
//! relative order is observable even when their physical locations are
//! disjoint. See `DESIGN.md`, "Dynamic partial-order reduction".

use std::collections::{BTreeSet, HashMap};

use crate::sched::{Choice, ChoiceKind};
use crate::stats::DporStats;
use crate::val::{Loc, ThreadId};

/// What one model instruction did to shared state, for conflict
/// detection.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Not summarized — conservatively conflicts with everything.
    Other,
    /// A location allocation (conflicts with other allocations: the
    /// allocator assigns addresses in program order).
    Alloc,
    /// A read of `loc`.
    Read {
        /// The location read.
        loc: Loc,
        /// Whether the read was atomic.
        atomic: bool,
    },
    /// A write to `loc`.
    Write {
        /// The location written.
        loc: Loc,
        /// Whether the write was atomic.
        atomic: bool,
    },
    /// A read-modify-write of `loc` (successful or failed — a failed CAS
    /// still reads the latest message).
    Rmw {
        /// The location updated.
        loc: Loc,
    },
    /// A fence.
    Fence {
        /// Whether the fence was sequentially consistent (SC fences
        /// join a global frontier and so conflict with each other;
        /// weaker fences are thread-local).
        sc: bool,
    },
}

/// One instruction's access summary.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// The executing thread.
    pub tid: ThreadId,
    /// What it did.
    pub kind: AccessKind,
    /// Whether it is a commit point: its commit continuation read the
    /// clock ([`crate::GhostHandle::clock`]) or the global step index.
    pub ghost: bool,
}

/// Sentinel for [`StepAccess::candidates`] when a selectable thread id
/// did not fit the bitmask: treat every thread as "was not selectable",
/// i.e. demand all alternatives.
pub const CANDIDATES_UNKNOWN: u64 = u64::MAX;

/// One executed body instruction, as recorded in
/// [`crate::RunOutcome::accesses`] (setup/finish instructions are not
/// scheduling-relevant and are not recorded).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StepAccess {
    /// The access summary.
    pub access: Access,
    /// Index into the choice trace of the [`ChoiceKind::Thread`] decision
    /// that scheduled this instruction, or `None` if only one thread was
    /// selectable (forced decisions are not recorded in the trace).
    pub decision: Option<u32>,
    /// Bitmask of the thread ids that were selectable at that decision
    /// (bit `t` = thread `t`), or [`CANDIDATES_UNKNOWN`]. Meaningful only
    /// when `decision` is `Some`.
    pub candidates: u64,
    /// Length of the choice trace when this instruction started running:
    /// every choice the instruction itself recorded (its read decision,
    /// if any) has a trace index `>= trace_start`, and every choice of
    /// every earlier instruction has a smaller one. This is what lets the
    /// sleep check cut an execution's expansions *from an instruction
    /// onward* (see `analyze`).
    pub trace_start: u32,
}

/// Whether two instruction summaries *conflict* — whether their relative
/// execution order may be observable. Only conflicting pairs by
/// different threads force both schedules to be explored.
///
/// The relation is conservative: [`AccessKind::Other`] conflicts with
/// everything, RMWs conflict with every same-location access, and any
/// two commit points conflict regardless of location.
pub fn conflicts(a: &Access, b: &Access) -> bool {
    // Commits are ordered by the global step index and feed the
    // specification layer's event graphs; never reorder them silently.
    if a.ghost && b.ghost {
        return true;
    }
    use AccessKind::*;
    match (a.kind, b.kind) {
        (Other, _) | (_, Other) => true,
        (Alloc, Alloc) => true,
        (Alloc, _) | (_, Alloc) => false,
        (Fence { sc: sa }, Fence { sc: sb }) => sa && sb,
        (Fence { .. }, _) | (_, Fence { .. }) => false,
        (Read { loc: la, .. }, Read { loc: lb, .. }) => {
            // Two reads never conflict — they commute even on the same
            // location (both observe messages, neither publishes one).
            let _ = (la, lb);
            false
        }
        (Read { loc: la, .. }, Write { loc: lb, .. })
        | (Write { loc: la, .. }, Read { loc: lb, .. })
        | (Write { loc: la, .. }, Write { loc: lb, .. })
        | (Rmw { loc: la }, Read { loc: lb, .. })
        | (Read { loc: la, .. }, Rmw { loc: lb })
        | (Rmw { loc: la }, Write { loc: lb, .. })
        | (Write { loc: la, .. }, Rmw { loc: lb })
        | (Rmw { loc: la }, Rmw { loc: lb }) => la == lb,
    }
}

/// Whether `COMPASS_DPOR` asks for DPOR (set and not `0`). The engine's
/// environment-sensitive DFS entry points ([`crate::WorkSpec::dfs`],
/// and everything built on it) consult this.
pub fn dpor_from_env() -> bool {
    std::env::var_os("COMPASS_DPOR").is_some_and(|v| v != *"0")
}

/// The shared DPOR state riding on a DFS [`crate::WorkSource`]: the
/// per-decision sleep sets and the pruning counters.
///
/// Keys are decision-tree nodes (the path of recorded choices leading to
/// a [`ChoiceKind::Thread`] decision); values are the alternatives at
/// that node that have been scheduled — by the visiting execution itself
/// or by an accepted backtrack demand.
#[derive(Debug, Default)]
pub(crate) struct DporState {
    explored: HashMap<Vec<u32>, BTreeSet<u32>>,
    pub(crate) stats: DporStats,
}

/// What one completed execution contributes to the shared DPOR state —
/// a pure function of the execution (its trace and access list), which
/// both the determinism argument and the lock-free call site in
/// [`crate::WorkSource::complete`] rely on.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Analysis {
    /// Backtrack demands, as `(decision trace index, alternative)`
    /// pairs: at that decision, that alternative must (also) be
    /// explored.
    pub(crate) demands: BTreeSet<(usize, u32)>,
    /// `Some(c)` when the execution violated a sleep set: from trace
    /// index `c` onward it is a redundant replay of an interleaving
    /// covered by an earlier-ranked sibling subtree, so fresh read
    /// expansions at indices `>= c` must not be pushed.
    pub(crate) cutoff: Option<u32>,
}

/// Analyzes one completed execution: its backtrack demands and its
/// sleep-set cutoff.
///
/// **Demands.** A demand is raised for every *immediate race* `(j, i)`:
/// instructions by different threads that conflict and are not already
/// ordered through an intermediate instruction (Flanagan–Godefroid's
/// "last dependent transition" condition, computed here with
/// per-instruction vector clocks over the conservative [`conflicts`]
/// relation). Demanding only immediate races is what keeps the
/// enumeration near-optimal: transitively-ordered conflicts would
/// re-derive interleavings the recursion discovers anyway, once per
/// path. The reversals a non-immediate race *does* need are rediscovered
/// recursively — every execution re-analyses its whole trace, including
/// the claimed prefix, so a race that becomes immediate in a reversed
/// execution is demanded there.
///
/// **Sleep check.** A demanded reversal's *free continuation* (fresh
/// decisions default to alternative 0) may schedule exactly the move a
/// lower-ranked sibling subtree already explores — classic sleep sets
/// block that schedule before it runs; this demand-driven formulation
/// detects it after the fact, entirely from the execution itself: at a
/// thread decision `d` that chose alternative `a`, the move of each
/// skipped alternative `b < a` is thread `t_b`'s *next instruction*,
/// which (if `t_b` runs again at all) appears in this very trace as
/// `t_b`'s first access `k` after `d`. If nothing between `d` and `k`
/// conflicts with `k`, the continuation from `k` onward commutes back to
/// the `b` subtree: the execution is redundant from `k` on. We then (1)
/// demand `(d, b)` so the covering subtree is really explored, and (2)
/// report `k`'s [`StepAccess::trace_start`] as the cutoff so the
/// execution's read expansions beyond it are pruned. Restricting the
/// check to `b < a` keeps it antisymmetric — the covering subtree can
/// never symmetrically prune in favour of this one, so the recursion is
/// well-founded and bottoms out at alternative 0.
pub(crate) fn analyze(trace: &[Choice], accesses: &[StepAccess]) -> Analysis {
    let mut out = demands(trace, accesses);
    sleep_check(trace, accesses, &mut out);
    out
}

/// The immediate-race demands of [`analyze`].
fn demands(trace: &[Choice], accesses: &[StepAccess]) -> Analysis {
    let n = accesses.len();
    let n_tids = accesses.iter().map(|a| a.access.tid + 1).max().unwrap_or(0);
    // clocks[i][t] = 1 + the highest instruction index by thread `t`
    // that happens before instruction `i` (0 = none), where
    // happens-before = program order ∪ conflict order.
    let mut clocks: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut last_of: Vec<Option<usize>> = vec![None; n_tids];
    let mut direct = Vec::new();
    let mut demands: BTreeSet<(usize, u32)> = BTreeSet::new();
    for (i, ai) in accesses.iter().enumerate() {
        let tid = ai.access.tid;
        let mut clock = match last_of[tid] {
            Some(p) => clocks[p].clone(),
            None => vec![0; n_tids],
        };
        direct.clear();
        direct.extend((0..i).filter(|&j| {
            accesses[j].access.tid != tid && conflicts(&accesses[j].access, &ai.access)
        }));
        for &j in &direct {
            let tj = accesses[j].access.tid;
            // (j, i) is an immediate race iff none of i's *other*
            // predecessors already carries j in its clock.
            let mut covered = clock[tj] as usize > j;
            for &k in &direct {
                covered = covered || (k != j && clocks[k][tj] as usize > j);
            }
            if !covered {
                demand_reversal(trace, &accesses[j], tid, &mut demands);
            }
        }
        for &j in &direct {
            for (c, jc) in clock.iter_mut().zip(&clocks[j]) {
                *c = (*c).max(*jc);
            }
        }
        clock[tid] = i as u32 + 1;
        clocks.push(clock);
        last_of[tid] = Some(i);
    }
    Analysis {
        demands,
        cutoff: None,
    }
}

/// The sleep-set pass of [`analyze`]: finds every sleep violation,
/// demands the covering subtree for each, and records the earliest
/// violating instruction's trace position as the cutoff.
fn sleep_check(trace: &[Choice], accesses: &[StepAccess], out: &mut Analysis) {
    for (i, ai) in accesses.iter().enumerate() {
        let Some(d) = ai.decision else { continue };
        let chosen = trace[d as usize].chosen;
        if chosen == 0 || ai.candidates == CANDIDATES_UNKNOWN {
            continue;
        }
        // The b-th selectable thread, for each alternative b below the
        // chosen one.
        let mut mask = ai.candidates;
        for b in 0..chosen {
            let t_b = mask.trailing_zeros() as ThreadId;
            mask &= mask - 1;
            // Thread t_b did not run between this decision and its next
            // access, so that access is exactly the move alternative `b`
            // would have scheduled here.
            let Some(k) = (i + 1..accesses.len()).find(|&k| accesses[k].access.tid == t_b) else {
                continue;
            };
            let asleep = accesses[i..k]
                .iter()
                .all(|aj| !conflicts(&aj.access, &accesses[k].access));
            if asleep {
                // Redundant from k onward: the moves in i..k all commute
                // with k's, so this continuation is equivalent to one in
                // the (lower-ranked) subtree that runs t_b at `d` — make
                // sure that subtree exists, and stop expanding this one.
                out.demands.insert((d as usize, b));
                out.cutoff = Some(match out.cutoff {
                    Some(c) => c.min(accesses[k].trace_start),
                    None => accesses[k].trace_start,
                });
            }
        }
    }
}

/// Adds the demand reversing instruction `j` (summarized by `aj`)
/// against a later conflicting instruction by thread `p`: at the
/// decision that scheduled `j`, schedule `p` instead — or every
/// alternative, when `p` was not selectable there (classic DPOR's "add
/// all enabled" fallback).
fn demand_reversal(
    trace: &[Choice],
    aj: &StepAccess,
    p: ThreadId,
    demands: &mut BTreeSet<(usize, u32)>,
) {
    let Some(d) = aj.decision else {
        // Only one thread was selectable when j ran: the decision tree
        // has no branch there, so there is no alternative to demand.
        return;
    };
    let d = d as usize;
    let chosen = trace[d].chosen;
    let alt = (p < 64 && aj.candidates != CANDIDATES_UNKNOWN && aj.candidates & (1 << p) != 0)
        .then(|| (aj.candidates & ((1 << p) - 1)).count_ones());
    match alt {
        // p was selectable at that decision: demand exactly its
        // alternative (its rank among the selectable threads).
        Some(a) if a != chosen => {
            demands.insert((d, a));
        }
        Some(_) => {}
        // p was not selectable there (blocked, or the mask overflowed):
        // demand every alternative.
        None => {
            for a in 0..trace[d].arity {
                if a != chosen {
                    demands.insert((d, a));
                }
            }
        }
    }
}

impl DporState {
    /// Applies one completed execution to the shared state: expands
    /// fresh read decisions exactly like plain DFS (up to the sleep
    /// cutoff, when the analysis found one), marks fresh thread
    /// decisions' taken alternative, and pushes the not-yet-explored
    /// demands of `analysis` (from [`analyze`]) onto `frontier`.
    ///
    /// `prefix_len` is the length of the execution's claimed forced
    /// prefix; `trace` is the recorded outcome. An aborted execution's
    /// trace may be *shorter* than its claimed prefix — every loop below
    /// ranges over the trace, never the prefix.
    pub(crate) fn on_complete(
        &mut self,
        prefix_len: usize,
        trace: &[Choice],
        analysis: &Analysis,
        frontier: &mut Vec<Vec<u32>>,
    ) {
        let path: Vec<u32> = trace.iter().map(|c| c.chosen).collect();
        let cutoff = analysis.cutoff.map_or(usize::MAX, |c| c as usize);

        // Fresh decisions (beyond the claimed prefix; the strategy chose
        // alternative 0 there). Read decisions expand fully — every
        // candidate message is a distinct outcome — unless the sleep
        // cutoff says the execution is redundant from there on. Thread
        // decisions are only *marked*; their siblings wait for a
        // conflict to demand them.
        for d in prefix_len..trace.len() {
            let c = trace[d];
            match c.kind {
                ChoiceKind::Read => {
                    if d >= cutoff {
                        self.stats.pruned_subtrees += u64::from(c.arity - c.chosen) - 1;
                        continue;
                    }
                    for a in (c.chosen + 1..c.arity).rev() {
                        let mut p = path[..d].to_vec();
                        p.push(a);
                        frontier.push(p);
                    }
                }
                ChoiceKind::Thread => {
                    self.explored
                        .entry(path[..d].to_vec())
                        .or_default()
                        .insert(c.chosen);
                    // Until demanded, every sibling counts as pruned;
                    // accepted demands below decrement this.
                    self.stats.pruned_subtrees += u64::from(c.arity) - 1;
                }
            }
        }

        for &(d, a) in &analysis.demands {
            let key = &path[..d];
            // Every thread decision on an explored path was marked by
            // the execution that first visited it (ordered before any
            // demand can target it — see the module docs), so the entry
            // exists.
            let entry = self.explored.entry(key.to_vec()).or_default();
            if entry.insert(a) {
                let mut p = key.to_vec();
                p.push(a);
                frontier.push(p);
                self.stats.backtrack_points += 1;
                self.stats.pruned_subtrees -= 1;
            } else {
                self.stats.sleep_hits += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(tid: ThreadId, loc: u32) -> Access {
        Access {
            tid,
            kind: AccessKind::Read {
                loc: Loc::from_raw(loc),
                atomic: true,
            },
            ghost: false,
        }
    }

    fn write(tid: ThreadId, loc: u32) -> Access {
        Access {
            tid,
            kind: AccessKind::Write {
                loc: Loc::from_raw(loc),
                atomic: true,
            },
            ghost: false,
        }
    }

    #[test]
    fn conflict_relation_basics() {
        // Same location: write/read, write/write, rmw/anything conflict.
        assert!(conflicts(&write(1, 0), &read(2, 0)));
        assert!(conflicts(&write(1, 0), &write(2, 0)));
        let rmw = Access {
            tid: 1,
            kind: AccessKind::Rmw {
                loc: Loc::from_raw(0),
            },
            ghost: false,
        };
        assert!(conflicts(&rmw, &read(2, 0)));
        assert!(conflicts(&rmw, &rmw));
        // Reads never conflict; different locations never conflict.
        assert!(!conflicts(&read(1, 0), &read(2, 0)));
        assert!(!conflicts(&write(1, 0), &write(2, 1)));
        assert!(!conflicts(&rmw, &write(2, 1)));
    }

    #[test]
    fn ghost_commits_always_conflict() {
        let mut a = read(1, 0);
        let mut b = write(2, 1);
        assert!(!conflicts(&a, &b), "distinct locations");
        a.ghost = true;
        assert!(!conflicts(&a, &b), "one ghost side is not enough");
        b.ghost = true;
        assert!(conflicts(&a, &b), "two ghost commits always conflict");
    }

    #[test]
    fn fences_and_allocs() {
        let sc = |tid| Access {
            tid,
            kind: AccessKind::Fence { sc: true },
            ghost: false,
        };
        let acq = |tid| Access {
            tid,
            kind: AccessKind::Fence { sc: false },
            ghost: false,
        };
        let alloc = |tid| Access {
            tid,
            kind: AccessKind::Alloc,
            ghost: false,
        };
        assert!(conflicts(&sc(1), &sc(2)), "SC fences join a global view");
        assert!(!conflicts(&acq(1), &acq(2)), "weak fences are thread-local");
        assert!(!conflicts(&sc(1), &write(2, 0)));
        assert!(conflicts(&alloc(1), &alloc(2)), "allocation order matters");
        assert!(!conflicts(&alloc(1), &write(2, 0)));
    }

    #[test]
    fn other_conflicts_with_everything() {
        let other = Access {
            tid: 1,
            kind: AccessKind::Other,
            ghost: false,
        };
        assert!(conflicts(&other, &read(2, 0)));
        assert!(conflicts(&other, &other));
    }

    /// Two threads touching disjoint locations: the second thread-choice
    /// subtree must be pruned entirely.
    #[test]
    fn independent_instructions_generate_no_demands() {
        let trace = [Choice {
            kind: ChoiceKind::Thread,
            chosen: 0,
            arity: 2,
        }];
        let accesses = [
            StepAccess {
                access: write(1, 0),
                decision: Some(0),
                candidates: 0b110,
                trace_start: 1,
            },
            StepAccess {
                access: write(2, 1),
                decision: None,
                candidates: 0,
                trace_start: 1,
            },
        ];
        let mut st = DporState::default();
        let mut frontier = Vec::new();
        st.on_complete(0, &trace, &analyze(&trace, &accesses), &mut frontier);
        assert!(frontier.is_empty(), "no conflict, no backtrack point");
        assert_eq!(st.stats.pruned_subtrees, 1);
        assert_eq!(st.stats.backtrack_points, 0);
    }

    /// Same-location writes demand the reversal exactly once; the second
    /// completion's identical demand is a sleep-set hit.
    #[test]
    fn conflicting_instructions_demand_the_reversal_once() {
        let trace = [Choice {
            kind: ChoiceKind::Thread,
            chosen: 0,
            arity: 2,
        }];
        let accesses = [
            StepAccess {
                access: write(1, 0),
                decision: Some(0),
                candidates: 0b110,
                trace_start: 1,
            },
            StepAccess {
                access: write(2, 0),
                decision: None,
                candidates: 0,
                trace_start: 1,
            },
        ];
        let mut st = DporState::default();
        let mut frontier = Vec::new();
        st.on_complete(0, &trace, &analyze(&trace, &accesses), &mut frontier);
        // Thread 2's rank among selectable {1, 2} is 1.
        assert_eq!(frontier, vec![vec![1]]);
        assert_eq!(st.stats.backtrack_points, 1);
        assert_eq!(st.stats.pruned_subtrees, 0);
        assert_eq!(st.stats.sleep_hits, 0);

        // The demanded execution re-demands the (now explored) pair.
        let trace2 = [Choice {
            kind: ChoiceKind::Thread,
            chosen: 1,
            arity: 2,
        }];
        let accesses2 = [
            StepAccess {
                access: write(2, 0),
                decision: Some(0),
                candidates: 0b110,
                trace_start: 1,
            },
            StepAccess {
                access: write(1, 0),
                decision: None,
                candidates: 0,
                trace_start: 1,
            },
        ];
        let mut frontier2 = Vec::new();
        st.on_complete(1, &trace2, &analyze(&trace2, &accesses2), &mut frontier2);
        assert!(frontier2.is_empty());
        assert_eq!(st.stats.sleep_hits, 1);
    }

    /// A conflicting thread that was not selectable at the earlier
    /// decision demands every alternative.
    #[test]
    fn unselectable_thread_demands_all_alternatives() {
        let trace = [Choice {
            kind: ChoiceKind::Thread,
            chosen: 0,
            arity: 3,
        }];
        let accesses = [
            StepAccess {
                access: write(1, 0),
                decision: Some(0),
                // Thread 3 was blocked at the decision.
                candidates: 0b0110,
                trace_start: 1,
            },
            StepAccess {
                access: write(3, 0),
                decision: None,
                candidates: 0,
                trace_start: 1,
            },
        ];
        let mut st = DporState::default();
        let mut frontier = Vec::new();
        st.on_complete(0, &trace, &analyze(&trace, &accesses), &mut frontier);
        let mut got: Vec<Vec<u32>> = frontier;
        got.sort();
        assert_eq!(got, vec![vec![1], vec![2]]);
        assert_eq!(st.stats.backtrack_points, 2);
    }

    #[test]
    fn read_decisions_expand_like_plain_dfs() {
        let trace = [Choice {
            kind: ChoiceKind::Read,
            chosen: 0,
            arity: 3,
        }];
        let mut st = DporState::default();
        let mut frontier = Vec::new();
        st.on_complete(0, &trace, &analyze(&trace, &[]), &mut frontier);
        assert_eq!(frontier, vec![vec![2], vec![1]], "deepest-last LIFO order");
        assert_eq!(st.stats.pruned_subtrees, 0);
    }

    #[test]
    fn env_toggle_parses() {
        // Not set in the test environment by default; the parser itself
        // is what we can check without mutating the process env.
        let on = |v: &str| v != "0";
        assert!(on("1"));
        assert!(on("true"));
        assert!(!on("0"));
    }
}
