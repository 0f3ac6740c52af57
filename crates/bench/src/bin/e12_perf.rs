//! E12 — the performance trajectory (DESIGN.md §9, ROADMAP item 4).
//!
//! Drives every native structure — MsQueue, HwQueue, TreiberStack,
//! ElimStack, exchanger, SPSC ring, Chase-Lev deque, the ArcCell
//! refcount and the Tml software transactional lock — plus the mutex
//! baselines through closed-loop mixed workloads at thread counts
//! {1,2,4,8}, recording per-operation latency histograms
//! (`compass_native::perf`, thread-local, merged at round end) and
//! throughput-vs-threads curves; then times the explorer itself
//! (execs/sec, plain and DPOR DFS) over the e8 litmus gallery so
//! exploration speed is tracked in the same document. One sweep of the
//! gallery is ~10 ms, short enough for a single descheduling to decide
//! it, so the gallery is swept repeatedly and the median sweep reported.
//!
//! Usage: `e12_perf [ops_per_thread=50000] [litmus_budget=200000]`
//!
//! Environment:
//! * `COMPASS_PERF_TCOUNTS` — comma-separated thread counts (default
//!   `1,2,4,8`; the SPSC ring always runs at exactly 2, the exchanger
//!   skips 1).
//! * `COMPASS_BENCH_OUT` — also write a `BENCH_<n>.json` trajectory
//!   document to this path, stamped with `COMPASS_BENCH_REV` /
//!   `COMPASS_BENCH_DATE` / `COMPASS_BENCH_PRESET` (the binary never
//!   reads the wall clock or the git state itself — provenance comes
//!   from the environment, see `scripts/run_bench.sh`).
//!
//! Latency percentiles live here and in the trajectory documents, not
//! in replay bundles: bundles are byte-deterministic artifacts, and
//! wall-clock-derived numbers would break that (DESIGN.md §9).

use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use compass_bench::metrics::{Metrics, Sessions};
use compass_bench::perf::{curve_point_json, perf_json, structure_json};
use compass_bench::roles::{registry, Body};
use compass_bench::table::{format_ns, Table};
use compass_native::perf::{self as nperf, LatencyHist};
use compass_native::{ArcCell, Tml};
use orc11::litmus::{gallery, Litmus};
use orc11::Json;

/// Runs one closed-loop round: `bodies.len()` threads, barrier-started,
/// each performing `per_thread` ops. Returns the slowest thread's wall
/// time in nanoseconds (the round's makespan); each thread flushes its
/// perf histograms before returning.
fn round(per_thread: u64, bodies: Vec<Body>) -> u64 {
    let barrier = Barrier::new(bodies.len());
    let walls: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .into_iter()
            .map(|mut body| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let t0 = Instant::now();
                    body(0..per_thread);
                    let wall = t0.elapsed().as_nanos() as u64;
                    nperf::flush_thread();
                    wall
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    walls.into_iter().max().unwrap_or(0)
}

/// Recorded rounds per curve point; the median round (by makespan) is
/// the one reported. A single round's wall clock and tail percentiles
/// are at the mercy of one scheduler hiccup on a shared box; the median
/// of three is stable enough for the trajectory comparator's gate
/// while still charging nothing a real regression could hide behind.
const REPS: usize = 3;

/// Measures one curve point: an untimed warm-up round (fresh structure,
/// recording off), then [`REPS`] recorded rounds, each on another fresh
/// structure, keeping the median round. `make` builds the structure,
/// prefills it, and returns the per-thread bodies — all before
/// recording starts, so setup ops are never sampled.
fn point(threads: usize, per_thread: u64, make: &dyn Fn(usize, u64) -> Vec<Body>) -> Json {
    let warmup_ops = (per_thread / 4).max(256);
    round(warmup_ops, make(threads, warmup_ops));
    let mut reps: Vec<(u64, Vec<(nperf::OpKind, LatencyHist)>)> = (0..REPS)
        .map(|_| {
            let bodies = make(threads, per_thread);
            nperf::start();
            let wall_ns = round(per_thread, bodies);
            (wall_ns, nperf::finish())
        })
        .collect();
    reps.sort_by_key(|(wall_ns, _)| *wall_ns);
    let (wall_ns, by_kind) = reps.swap_remove(REPS / 2);
    let mut merged = LatencyHist::new();
    let mut by_op = Vec::new();
    for (kind, hist) in by_kind {
        merged.merge(&hist);
        by_op.push((kind.name().to_string(), hist));
    }
    curve_point_json(
        threads as u64,
        per_thread * threads as u64,
        wall_ns,
        &merged,
        &by_op,
    )
}

/// Refcount churn on one shared [`ArcCell`]: clones, load+drop pairs,
/// and every fourth op a weak downgrade/upgrade cycle. Each thread's
/// drops only ever release references it cloned itself, so the strong
/// count never reaches zero mid-round.
fn arc_bodies(threads: usize, _per_thread: u64) -> Vec<Body> {
    let a = Arc::new(ArcCell::new(7));
    (0..threads)
        .map(|_| {
            let a = a.clone();
            Box::new(move |range: Range<u64>| {
                for i in range {
                    if i & 3 == 3 {
                        a.downgrade();
                        if a.try_upgrade().is_some() {
                            a.drop_ref();
                        }
                        a.drop_weak();
                    } else if i & 1 == 0 {
                        a.clone_ref();
                    } else {
                        std::hint::black_box(a.load());
                        a.drop_ref();
                    }
                }
            }) as Body
        })
        .collect()
}

/// Transactions on one shared [`Tml`] store (8 keys): even op indices
/// run a single-key writer, odd a two-key read-only transaction; each
/// `atomically` span (retries included) is one `stm_txn` sample.
fn stm_bodies(threads: usize, _per_thread: u64) -> Vec<Body> {
    let t = Arc::new(Tml::new(8));
    (0..threads)
        .map(|tid| {
            let t = t.clone();
            Box::new(move |range: Range<u64>| {
                for i in range {
                    let key = ((i + tid as u64) & 7) as usize;
                    if i & 1 == 0 {
                        t.atomically(tid as i64, |t, txn| t.write(txn, key, i as i64));
                    } else {
                        std::hint::black_box(t.atomically(tid as i64, |t, txn| {
                            let a = t.read(txn, key)?;
                            let b = t.read(txn, (key + 1) & 7)?;
                            Ok(a + b)
                        }));
                    }
                }
            }) as Body
        })
        .collect()
}

/// Thread counts from `COMPASS_PERF_TCOUNTS`, default {1,2,4,8}.
fn thread_counts() -> Vec<usize> {
    let parsed = std::env::var("COMPASS_PERF_TCOUNTS").ok().map(|s| {
        s.split(',')
            .filter_map(|t| t.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .collect::<Vec<_>>()
    });
    match parsed {
        Some(counts) if !counts.is_empty() => counts,
        _ => vec![1, 2, 4, 8],
    }
}

/// The explorer row sweeps the gallery at least this many times …
const MIN_SWEEPS: usize = 9;
/// … and for at least this long.
const MIN_SWEEP_TIME: Duration = Duration::from_millis(300);

/// One timed pass over the litmus gallery.
struct Sweep {
    /// One row per shape, in gallery order.
    tests: Vec<Json>,
    /// Plain plus DPOR executions over all shapes (the same every sweep:
    /// every shape is exhausted).
    execs: u64,
    ns: u64,
}

/// Times one litmus shape under plain and DPOR DFS; `m`, when given,
/// takes both explorations' phase and reuse counters.
fn shape_speed<S: Sync + 'static>(
    lit: &Litmus<S>,
    budget: u64,
    m: Option<&mut Metrics>,
    sweep: &mut Sweep,
) {
    let t0 = Instant::now();
    let plain = lit.dfs_plain(budget);
    let plain_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let dpor = lit.dfs_dpor(budget);
    let dpor_ns = t1.elapsed().as_nanos() as u64;
    if let Some(m) = m {
        m.add_phases(&plain.report.phase_ns);
        m.add_phases(&dpor.report.phase_ns);
        m.add_reuse(&plain.report.reuse);
        m.add_reuse(&dpor.report.reuse);
    }
    let rate = |execs: u64, ns: u64| execs as f64 * 1e9 / (ns.max(1)) as f64;
    let row = Json::obj()
        .set("name", lit.name())
        .set("plain_execs", plain.report.execs)
        .set("plain_execs_per_sec", rate(plain.report.execs, plain_ns))
        .set("dpor_execs", dpor.report.execs)
        .set("dpor_execs_per_sec", rate(dpor.report.execs, dpor_ns));
    sweep.tests.push(row);
    sweep.execs += plain.report.execs + dpor.report.execs;
}

fn sweep_gallery(budget: u64, mut m: Option<&mut Metrics>) -> Sweep {
    let mut sweep = Sweep {
        tests: Vec::new(),
        execs: 0,
        ns: 0,
    };
    let t0 = Instant::now();
    macro_rules! shapes {
        ($($f:ident),+ $(,)?) => {
            $(shape_speed(&gallery::$f(), budget, m.as_deref_mut(), &mut sweep);)+
        };
    }
    shapes!(
        mp_rel_acq,
        mp_relaxed,
        mp_fences,
        sb,
        sb_sc_fences,
        corr,
        iriw_acq,
        lb,
        two_plus_two_w,
        cowr,
        release_sequence,
        rmw_atomicity,
    );
    sweep.ns = t0.elapsed().as_nanos() as u64;
    sweep
}

fn main() {
    let _sessions = Sessions::from_env();
    let mut m = Metrics::new("e12_perf");
    let per_thread: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);
    let budget: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let tcounts = thread_counts();

    m.param("ops_per_thread", per_thread);
    m.param("litmus_budget", budget);
    m.param(
        "thread_counts",
        tcounts.iter().fold(Json::arr(), |j, &t| j.push(t as u64)),
    );

    println!("E12 — performance trajectory ({per_thread} ops/thread, litmus budget {budget})\n");

    // name, kind, baseline, thread counts, body factory: the registry's
    // produce/take libraries (each at the distinct thread counts it
    // actually runs — the SPSC ring always 2, the exchanger never 1),
    // then the refcount and the transactional store.
    type Spec<'a> = (
        &'a str,
        &'a str,
        bool,
        Vec<usize>,
        Box<dyn Fn(usize, u64) -> Vec<Body> + 'a>,
    );
    let libraries = registry();
    let mut structures: Vec<Spec> = libraries
        .iter()
        .map(|lib| {
            let mut counts: Vec<usize> = tcounts.iter().map(|&t| lib.threads(t)).collect();
            counts.dedup();
            let make = Box::new(move |t, n| lib.perf_bodies(t, n));
            (lib.name(), lib.kind(), lib.is_baseline(), counts, make as _)
        })
        .collect();
    structures.push((
        "ArcCell",
        "arc",
        false,
        tcounts.clone(),
        Box::new(arc_bodies),
    ));
    structures.push(("Tml", "stm", false, tcounts.clone(), Box::new(stm_bodies)));

    let mut table = Table::new(&["structure", "threads", "Mops/s", "p50", "p99", "p999"]);
    let mut structures_json = Json::arr();
    for (name, kind, baseline, counts, make) in &structures {
        // HwQueue used to cap its rounds at 4 000 ops/thread because
        // every dequeue rescanned from slot 0 (quadratic rounds); the
        // cached head hint removed the rescan, so it now runs the full
        // preset like everything else.
        let ops = per_thread;
        let mut curve = Json::arr();
        for &threads in counts {
            let p = point(threads, ops, make.as_ref());
            let tp = match p.get("throughput_ops_per_sec") {
                Some(Json::Float(f)) => *f,
                _ => 0.0,
            };
            let pct = |key: &str| {
                p.get("latency")
                    .and_then(|l| l.get(key))
                    .and_then(|v| match v {
                        Json::Int(i) => Some(*i as u64),
                        _ => None,
                    })
                    .unwrap_or(0)
            };
            table.row(&[
                name.to_string(),
                threads.to_string(),
                format!("{:.2}", tp / 1e6),
                format_ns(pct("p50_ns")),
                format_ns(pct("p99_ns")),
                format_ns(pct("p999_ns")),
            ]);
            curve = curve.push(p);
        }
        structures_json = structures_json.push(structure_json(name, kind, *baseline, curve));
    }
    println!("{}", table.render());

    println!("explorer speed (litmus gallery, budget {budget}):");
    // Phase and reuse counters come from the first sweep alone, so the
    // metrics describe one pass however many are timed.
    let explorer_t0 = Instant::now();
    let mut sweeps = vec![sweep_gallery(budget, Some(&mut m))];
    while sweeps.len() < MIN_SWEEPS || explorer_t0.elapsed() < MIN_SWEEP_TIME {
        sweeps.push(sweep_gallery(budget, None));
    }
    sweeps.sort_by_key(|s| s.ns);
    let n_sweeps = sweeps.len();
    let Sweep {
        tests,
        execs: total_execs,
        ns: explorer_ns,
    } = sweeps.swap_remove(n_sweeps / 2);
    let execs_per_sec = total_execs as f64 * 1e9 / explorer_ns.max(1) as f64;
    println!(
        "  {total_execs} execs in {} ({execs_per_sec:.0} execs/s; median of {n_sweeps} sweeps)\n",
        format_ns(explorer_ns)
    );
    let explorer = Json::obj()
        .set("budget", budget)
        .set("tests", Json::Arr(tests))
        .set("total_execs", total_execs)
        .set("execs_per_sec", execs_per_sec);

    m.set_perf(perf_json(structures_json, explorer));
    m.set("total_execs", total_execs);
    m.write_or_warn();

    if let Some(out) = std::env::var_os("COMPASS_BENCH_OUT") {
        let get = |k: &str, default: &str| std::env::var(k).unwrap_or_else(|_| default.to_string());
        let doc = compass_bench::perf::bench_document(
            &m.to_json(),
            &get("COMPASS_BENCH_REV", "unknown"),
            &get("COMPASS_BENCH_DATE", "unknown"),
            &get("COMPASS_BENCH_PRESET", "default"),
        )
        .expect("e12_perf metrics make a valid BENCH document");
        let out = std::path::PathBuf::from(out);
        if let Some(parent) = out.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&out, doc.render_pretty()) {
            Ok(()) => eprintln!("bench: wrote {}", out.display()),
            Err(e) => eprintln!("bench: cannot write {}: {e}", out.display()),
        }
    }
}
