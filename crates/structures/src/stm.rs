//! A release-acquire software transactional memory on the model, with
//! ghost commit points (Dalvandi & Dongol, arXiv:2208.00315).
//!
//! The algorithm is a **transactional mutex lock** (TML), the simplest
//! member of the versioned-TM family the Dalvandi–Dongol construction
//! treats: one global version counter `glb`, even when unlocked, odd
//! while a writer holds it.
//!
//! * `begin` — acquire-read `glb` until even; that version is the
//!   transaction's snapshot. The acquire synchronizes with the unlock of
//!   the writer that produced it (`STM-HB-VER`).
//! * `read` — acquire-read the key, then *validate*: re-read `glb` and
//!   abort unless it still equals the begin version. The validation read
//!   is the commit point ([`StmEvent::Read`] on success,
//!   [`StmEvent::Abort`] on failure). A writer that already holds the
//!   lock skips validation — nobody else can write — and commits the
//!   read at the key's acquire read itself.
//! * `write` — on first write, CAS `glb` from the begin version to
//!   begin + 1 (acquire the lock; [`StmEvent::Abort`] if the CAS fails).
//!   Writes then go to the keys in place, each a release write
//!   committing [`StmEvent::Write`].
//! * `commit` — a writer release-writes `glb = begin + 2` (the unlock is
//!   the commit point, [`StmEvent::Commit`] with the new version); a
//!   read-only transaction commits at a final read of `glb`, reporting
//!   its begin version.
//!
//! Why the validated reads suffice on the model: key writes are Release
//! and key reads Acquire, so a reader that observes a locked writer's
//! in-place store also acquires the writer's view of `glb` — including
//! the odd lock CAS — and the subsequent validation read of `glb` is
//! then coherence-bound to return a version ≥ the odd one, forcing the
//! abort. Skipping that validation (the
//! [`crate::buggy::UnvalidatedTml`] control: the same TML with its
//! mode table's validation off) lets a doomed transaction return torn
//! state, which [`compass::stm_spec`] flags as `STM-RO`.
//!
//! The access modes above are stated once, in the TML's mode table.

use compass::stm_spec::StmEvent;
use compass::LibObj;
use orc11::{Loc, Mode, ThreadCtx, Val};

use crate::Rmw;

/// The transaction aborted; its terminal [`StmEvent::Abort`] is already
/// committed and the handle is dead.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Aborted;

/// The TML's mode table: the mode of each access site, whether reads
/// validate, and the labels of its library object and locations (all
/// atomic; key `k` is labelled `data` followed by `k`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct TmlModes {
    pub(crate) obj: &'static str,
    pub(crate) glb: &'static str,
    pub(crate) data: &'static str,
    /// Whether a read outside the lock validates against `glb`; without
    /// validation every read takes the locked-read path.
    pub(crate) validate: bool,
    pub(crate) begin: Mode,         // awaited read of an even `glb`
    pub(crate) read_locked: Mode,   // key read under the lock
    pub(crate) read: Mode,          // key read before validating
    pub(crate) validate_read: Mode, // validating read of `glb`
    pub(crate) lock: Rmw,           // CAS taking the lock
    pub(crate) write: Mode,         // key write
    pub(crate) unlock: Mode,        // a writer's commit: write of `glb`
    pub(crate) commit_read: Mode,   // a reader's commit: read of `glb`
}

/// The release-acquire TML's modes (see module docs).
pub(crate) const PAPER: TmlModes = TmlModes {
    obj: "tml",
    glb: "tml.glb",
    data: "tml.data",
    validate: true,
    begin: Mode::Acquire,
    read_locked: Mode::Acquire,
    read: Mode::Acquire,
    validate_read: Mode::Acquire,
    lock: Rmw::new(Mode::AcqRel, Mode::Relaxed),
    write: Mode::Release,
    unlock: Mode::Release,
    commit_read: Mode::Acquire,
};

/// The model TML instance: a global version/lock word and a fixed set of
/// transactional keys.
#[derive(Debug)]
pub struct ModelTml {
    glb: Loc,
    data: Vec<Loc>,
    obj: LibObj<StmEvent>,
    m: TmlModes,
}

/// A live transaction handle. Obtain with [`ModelTml::begin`]; consume
/// with [`ModelTml::commit`] (or implicitly by an [`Aborted`] return).
#[derive(Debug)]
pub struct TmlTxn {
    tx: i64,
    ver: i64,
    locked: bool,
}

impl ModelTml {
    /// Allocates a TM with `n_keys` transactional locations, all `0`.
    pub fn new(ctx: &mut ThreadCtx, n_keys: usize) -> Self {
        Self::with_modes(ctx, n_keys, PAPER)
    }

    /// [`ModelTml::new`] with the access modes of `m`.
    pub(crate) fn with_modes(ctx: &mut ThreadCtx, n_keys: usize, m: TmlModes) -> Self {
        ModelTml {
            glb: ctx.alloc_atomic(m.glb, Val::Int(0)),
            data: (0..n_keys)
                .map(|k| ctx.alloc_atomic(format_args!("{}{k}", m.data), Val::Int(0)))
                .collect(),
            obj: LibObj::new(m.obj),
            m,
        }
    }

    /// The library object (for graph snapshots).
    pub fn obj(&self) -> &LibObj<StmEvent> {
        &self.obj
    }

    /// Number of transactional keys.
    pub fn n_keys(&self) -> usize {
        self.data.len()
    }

    /// Starts transaction `tx` (ids must be globally unique across the
    /// run): waits for an even (unlocked) version and snapshots it.
    pub fn begin(&self, ctx: &mut ThreadCtx, tx: i64) -> TmlTxn {
        let (v, _) = ctx.read_await_with(
            self.glb,
            self.m.begin,
            |v| v.expect_int() % 2 == 0,
            |v, gh| {
                self.obj.commit(
                    gh,
                    StmEvent::Begin {
                        tx,
                        ver: v.expect_int(),
                    },
                )
            },
        );
        TmlTxn {
            tx,
            ver: v.expect_int(),
            locked: false,
        }
    }

    /// Transactional read of `key`.
    pub fn read(&self, ctx: &mut ThreadCtx, txn: &mut TmlTxn, key: usize) -> Result<Val, Aborted> {
        let tx = txn.tx;
        let k = key as i64;
        if txn.locked || !self.m.validate {
            // We hold the lock: no concurrent writer, the read is final.
            // (Without validation every read is final.)
            let (v, _) = ctx.read_with(self.data[key], self.m.read_locked, |v, gh| {
                self.obj.commit(gh, StmEvent::Read { tx, key: k, v })
            });
            return Ok(v);
        }
        let v = ctx.read(self.data[key], self.m.read);
        // Validate: the commit point of the read (or of the abort).
        let ver = txn.ver;
        let (_, ok) = ctx.read_with(self.glb, self.m.validate_read, |g, gh| {
            if g == Val::Int(ver) {
                self.obj.commit(gh, StmEvent::Read { tx, key: k, v });
                true
            } else {
                self.obj.commit(gh, StmEvent::Abort { tx });
                false
            }
        });
        if ok {
            Ok(v)
        } else {
            Err(Aborted)
        }
    }

    /// Transactional write of `v` to `key`. The first write acquires the
    /// global lock (aborting if another writer got there first).
    pub fn write(
        &self,
        ctx: &mut ThreadCtx,
        txn: &mut TmlTxn,
        key: usize,
        v: Val,
    ) -> Result<(), Aborted> {
        let tx = txn.tx;
        if !txn.locked {
            let ver = txn.ver;
            let (res, _) = ctx.cas_with(
                self.glb,
                Val::Int(ver),
                Val::Int(ver + 1),
                self.m.lock.ok,
                self.m.lock.fail,
                |r, gh| {
                    if r.new.is_none() {
                        self.obj.commit(gh, StmEvent::Abort { tx });
                    }
                },
            );
            if res.is_err() {
                return Err(Aborted);
            }
            txn.locked = true;
        }
        ctx.write_with(self.data[key], v, self.m.write, |gh| {
            self.obj.commit(
                gh,
                StmEvent::Write {
                    tx,
                    key: key as i64,
                    v,
                },
            )
        });
        Ok(())
    }

    /// Commits the transaction. Writers unlock by publishing
    /// `begin + 2`; read-only transactions are already consistent (every
    /// read was validated) and just report their begin version.
    pub fn commit(&self, ctx: &mut ThreadCtx, txn: TmlTxn) {
        let tx = txn.tx;
        if txn.locked {
            let ver = txn.ver + 2;
            ctx.write_with(self.glb, Val::Int(ver), self.m.unlock, |gh| {
                self.obj.commit(gh, StmEvent::Commit { tx, ver })
            });
        } else {
            let ver = txn.ver;
            ctx.read_with(self.glb, self.m.commit_read, |_, gh| {
                self.obj.commit(gh, StmEvent::Commit { tx, ver })
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::stm_spec::{check_stm_consistent, check_stm_consistent_prefixes};
    use orc11::{random_strategy, run_model, BodyFn, Config};

    /// A writer transaction that increments both keys; retries on abort.
    fn incr_both(ctx: &mut ThreadCtx, tm: &ModelTml, tx0: i64) {
        for attempt in 0..3 {
            let mut txn = tm.begin(ctx, tx0 + attempt);
            let a = match tm.read(ctx, &mut txn, 0) {
                Ok(v) => v.expect_int(),
                Err(Aborted) => continue,
            };
            if tm.write(ctx, &mut txn, 0, Val::Int(a + 1)).is_err() {
                continue;
            }
            let b = match tm.read(ctx, &mut txn, 1) {
                Ok(v) => v.expect_int(),
                Err(Aborted) => unreachable!("locked reads cannot abort"),
            };
            tm.write(ctx, &mut txn, 1, Val::Int(b + 1))
                .expect("locked writes cannot abort");
            tm.commit(ctx, txn);
            return;
        }
    }

    /// A read-only transaction observing both keys; returns the pair if
    /// it commits.
    fn read_both(ctx: &mut ThreadCtx, tm: &ModelTml, tx: i64) -> Option<(i64, i64)> {
        let mut txn = tm.begin(ctx, tx);
        let a = tm.read(ctx, &mut txn, 0).ok()?.expect_int();
        let b = tm.read(ctx, &mut txn, 1).ok()?.expect_int();
        tm.commit(ctx, txn);
        Some((a, b))
    }

    #[test]
    fn writers_and_readers_are_opaque() {
        for seed in 0..60 {
            let out = run_model(
                &Config::default(),
                random_strategy(seed),
                |ctx| ModelTml::new(ctx, 2),
                vec![
                    Box::new(|ctx: &mut ThreadCtx, tm: &ModelTml| {
                        incr_both(ctx, tm, 10);
                        None
                    }) as BodyFn<'_, _, Option<(i64, i64)>>,
                    Box::new(|ctx: &mut ThreadCtx, tm: &ModelTml| {
                        incr_both(ctx, tm, 20);
                        read_both(ctx, tm, 25)
                    }),
                    Box::new(|ctx: &mut ThreadCtx, tm: &ModelTml| read_both(ctx, tm, 30)),
                ],
                |_, tm, outs| (tm.obj().snapshot(), outs),
            );
            let (g, outs) = out.result.unwrap();
            check_stm_consistent(&g).unwrap();
            check_stm_consistent_prefixes(&g).unwrap();
            // Committed read-only snapshots always see both increments of
            // one writer together or not at all.
            for (a, b) in outs.into_iter().flatten() {
                assert_eq!(a, b, "torn read-only snapshot");
            }
        }
    }

    #[test]
    fn single_thread_sequential_transactions() {
        let out = run_model(
            &Config::default(),
            random_strategy(0),
            |ctx| ModelTml::new(ctx, 2),
            vec![Box::new(|ctx: &mut ThreadCtx, tm: &ModelTml| {
                incr_both(ctx, tm, 1);
                incr_both(ctx, tm, 5);
                read_both(ctx, tm, 9)
            }) as BodyFn<'_, _, Option<(i64, i64)>>],
            |_, tm, outs| (tm.obj().snapshot(), outs),
        );
        let (g, outs) = out.result.unwrap();
        check_stm_consistent(&g).unwrap();
        assert_eq!(outs[0], Some((2, 2)));
    }
}
