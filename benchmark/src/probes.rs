//! Micro-probes of single layers (traced runs only).
//!
//! The orc11 probes run one-body `run_model` programs, so the cost of a
//! memory-model step is measured without any thread handoff, and then a
//! two-body program forced to alternate on every step, whose surplus
//! over the same steps in one body is the handoff. The native probes
//! time the real structures and the recorder on one mutator thread; on a
//! shared box their numbers do not repeat (identical code measured
//! 8.95-21.55 Mops/s back to back during sizing), which is why they are
//! per-layer readings flagged noisy and never an end-to-end metric.

use std::hint::black_box;
use std::time::Instant;

use compass_native::recorder::{Clock, EpochCounter, Shard, ShardWriter};
use compass_native::{MsQueue, TreiberStack};
use orc11::{
    dfs_strategy, replay_strategy, run_model, BodyFn, Choice, ChoiceKind, Config, FenceMode, Loc,
    Mode, ThreadCtx, Val,
};

use crate::params::{NATIVE_PROBE_S, NATIVE_WINDOW_S, ORC11_PROBE_S};
use crate::stats::median;
use crate::workload::Layers;

/// Model steps per probe execution (well under `Config::max_steps`).
const STEPS: u64 = 4_000;

/// Seconds per execution of `exec`, repeated for at least `min_s`.
fn per_exec_s(min_s: f64, mut exec: impl FnMut()) -> f64 {
    exec();
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed().as_secs_f64() < min_s {
        for _ in 0..16 {
            exec();
        }
        n += 16;
    }
    t0.elapsed().as_secs_f64() / n as f64
}

/// One execution of `bodies` copies of `step` repeated `steps` times
/// each, on a location pair set up per execution.
fn exec(bodies: usize, steps: u64, forced: &[Choice], step: fn(&mut ThreadCtx, &(Loc, Loc), u64)) {
    let body = || {
        Box::new(move |ctx: &mut ThreadCtx, locs: &(Loc, Loc)| {
            for i in 0..steps {
                step(ctx, locs, i);
            }
        }) as BodyFn<'_, _, ()>
    };
    let strategy = if forced.is_empty() {
        dfs_strategy(Vec::new())
    } else {
        replay_strategy(forced)
    };
    let out = run_model(
        &Config::default(),
        strategy,
        |ctx| {
            (
                ctx.alloc_atomic("probe.a", Val::Int(0)),
                ctx.alloc("probe.na", Val::Int(0)),
            )
        },
        (0..bodies).map(|_| body()).collect(),
        |_, _, _| (),
    );
    black_box(out.steps);
    assert!(
        out.result.is_ok(),
        "probe program aborted: {:?}",
        out.result
    );
}

fn step_na(ctx: &mut ThreadCtx, l: &(Loc, Loc), i: u64) {
    if i.is_multiple_of(2) {
        ctx.write(l.1, Val::Int(i as i64), Mode::NonAtomic);
    } else {
        black_box(ctx.read(l.1, Mode::NonAtomic));
    }
}

fn step_rlx(ctx: &mut ThreadCtx, l: &(Loc, Loc), i: u64) {
    if i.is_multiple_of(2) {
        ctx.write(l.0, Val::Int(i as i64), Mode::Relaxed);
    } else {
        black_box(ctx.read(l.0, Mode::Relaxed));
    }
}

fn step_rel(ctx: &mut ThreadCtx, l: &(Loc, Loc), i: u64) {
    ctx.write(l.0, Val::Int(i as i64), Mode::Release);
}

fn step_acq(ctx: &mut ThreadCtx, l: &(Loc, Loc), _: u64) {
    black_box(ctx.read(l.0, Mode::Acquire));
}

fn step_rmw(ctx: &mut ThreadCtx, l: &(Loc, Loc), _: u64) {
    black_box(ctx.fetch_add(l.0, 1, Mode::AcqRel));
}

fn step_fence(ctx: &mut ThreadCtx, _: &(Loc, Loc), _: u64) {
    ctx.fence(FenceMode::AcqRel);
}

fn step_none(_: &mut ThreadCtx, _: &(Loc, Loc), _: u64) {}

/// The orc11 probes, each measuring for `scale` x [`ORC11_PROBE_S`].
pub fn orc11(scale: f64, layers: &mut Layers) {
    let min_s = ORC11_PROBE_S * scale;
    let empty = per_exec_s(min_s, || exec(1, 0, &[], step_none));
    layers.insert("orc11.exec.empty_exec_ns", empty * 1e9);

    let step_ns = |step| {
        let full = per_exec_s(min_s, || exec(1, STEPS, &[], step));
        (full - empty).max(0.0) * 1e9 / STEPS as f64
    };
    layers.insert("orc11.memory.step_ns.na", step_ns(step_na));
    layers.insert("orc11.memory.step_ns.rlx", step_ns(step_rlx));
    layers.insert("orc11.memory.step_ns.rel", step_ns(step_rel));
    layers.insert("orc11.memory.step_ns.acq", step_ns(step_acq));
    layers.insert("orc11.memory.step_ns.rmw", step_ns(step_rmw));
    layers.insert("orc11.memory.fence_ns", step_ns(step_fence));

    // Two bodies of STEPS/2 fences each, the scheduler forced to switch
    // thread at every decision (candidate index 0, 1, 0, 1, ...), against
    // the same STEPS fences in one body. Fences touch no location, so the
    // surplus is the turnstile handoff alone.
    let alternate: Vec<Choice> = (0..STEPS)
        .map(|i| Choice {
            kind: ChoiceKind::Thread,
            chosen: (i % 2) as u32,
            arity: 2,
        })
        .collect();
    let one = per_exec_s(min_s, || exec(1, STEPS, &[], step_fence));
    let two = per_exec_s(min_s, || exec(2, STEPS / 2, &alternate, step_fence));
    layers.insert(
        "orc11.exec.handoff_ns",
        (two - one).max(0.0) * 1e9 / STEPS as f64,
    );
}

/// Median over [`NATIVE_WINDOW_S`] windows of the per-operation cost of
/// `batch` (which performs `ops` operations per call), for at least
/// `min_s` seconds on this one thread.
fn windowed_op_ns(min_s: f64, ops: u64, mut batch: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut windows = Vec::new();
    while t0.elapsed().as_secs_f64() < min_s {
        let w0 = Instant::now();
        let mut n = 0u64;
        while w0.elapsed().as_secs_f64() < NATIVE_WINDOW_S {
            batch();
            n += ops;
        }
        windows.push(w0.elapsed().as_secs_f64() * 1e9 / n as f64);
    }
    median(&windows)
}

/// The live native probes, each measuring for `scale` x
/// [`NATIVE_PROBE_S`] on one mutator thread.
pub fn native(scale: f64, layers: &mut Layers) {
    let min_s = NATIVE_PROBE_S * scale;
    const BATCH: u64 = 1024;

    let q = MsQueue::new();
    let queue_ns = windowed_op_ns(min_s, 2 * BATCH, || {
        for i in 0..BATCH {
            q.push(i);
            black_box(q.pop());
        }
    });
    layers.insert("native.msqueue.op_ns", queue_ns);

    let s = TreiberStack::new();
    let stack_ns = windowed_op_ns(min_s, 2 * BATCH, || {
        for i in 0..BATCH {
            s.push(i);
            black_box(s.pop());
        }
    });
    layers.insert("native.treiber.op_ns", stack_ns);

    // The recorder around an empty action: two clock reads, one relaxed
    // epoch load, one `Vec::push`.
    let clock = Clock::new();
    let epochs = EpochCounter::new();
    let shard: Shard<u64> = Shard::new();
    let mut writer = ShardWriter::new(&shard, &epochs, BATCH as usize);
    let record_ns = windowed_op_ns(min_s, BATCH, || {
        for i in 0..BATCH {
            writer.record(&clock, || black_box(i), |&i| Some(i));
        }
        epochs.advance();
        black_box(shard.take_upto(epochs.current()));
    });
    // The same with the epoch advanced before every record, so every
    // record also seals a one-op buffer into the shard's mailbox.
    let sealing_ns = windowed_op_ns(min_s, BATCH, || {
        for i in 0..BATCH {
            epochs.advance();
            writer.record(&clock, || black_box(i), |&i| Some(i));
        }
        black_box(shard.take_upto(epochs.current()));
    });
    writer.finish();
    layers.insert("native.recorder.record_ns", record_ns);
    layers.insert("native.recorder.seal_ns", (sealing_ns - record_ns).max(0.0));
}
