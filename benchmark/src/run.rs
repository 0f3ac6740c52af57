//! One run: one workload, one seed, one fresh process.
//!
//! Set-up (input generation plus a warm-up pass) is repeated and its
//! median reported; then full passes are timed for `--seconds`. An
//! untraced run carries no timers inside the pass and yields the
//! end-to-end metrics. A traced run alternates untraced and traced
//! passes, so the tracing overhead is measured inside one process,
//! calls the public pieces beneath the verdict path directly, runs the
//! micro-probes, and yields the per-layer metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use orc11::Json;

use crate::conform::ConformWorkload;
use crate::metrics::{self, END_TO_END, EXACT, NOISY, PER_LAYER};
use crate::model::ModelWorkload;
use crate::spans::Span;
use crate::workload::{Layers, Pass, Workload};
use crate::{affinity, guard, params, spans, stats, Args};

/// Where runs leave their artefacts, relative to the repository root
/// (`run.sh` changes there before it starts the binary).
pub const OUT_DIR: &str = "benchmark/out";

/// Verdicts attempted / failed so far; statics so the watchdog thread
/// can report them when a guard rail trips.
static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

fn make(name: &str, seed: u64, bundles: PathBuf) -> Box<dyn Workload> {
    match name {
        "dfs-serial" => Box::new(ModelWorkload::new(seed, false, bundles)),
        "dpor-parallel" => Box::new(ModelWorkload::new(seed, true, bundles)),
        "conform-dense" => Box::new(ConformWorkload::new(seed, &params::DENSE, false, bundles)),
        "conform-sparse" => Box::new(ConformWorkload::new(seed, &params::SPARSE, true, bundles)),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

/// One timing over the passes of a run: the median is the reported
/// value; minimum, maximum and sample count are printed beside it.
struct Timing {
    median: f64,
    min: f64,
    max: f64,
    n: usize,
}

impl Timing {
    fn of(samples: &[f64]) -> Self {
        Timing {
            median: stats::median(samples),
            min: stats::quantile(samples, 0.0),
            max: stats::quantile(samples, 1.0),
            n: samples.len(),
        }
    }

    fn json(&self, unit: &str) -> Json {
        metric(self.median, unit)
            .set("min", self.min)
            .set("max", self.max)
            .set("n", self.n)
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj().set("value", value).set("unit", unit)
}

fn array(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
}

/// The result object the driver reads off the last line of stdout.
fn result_line(metrics: Json) -> String {
    let failed = FAILED.load(Ordering::Relaxed);
    Json::obj()
        .set("correct", failed == 0)
        .set("attempted", ATTEMPTED.load(Ordering::Relaxed).max(1))
        .set("failed", failed)
        .set("metrics", metrics)
        .render()
}

/// Counts one failed verdict that no pass attempted.
fn count_failure() {
    ATTEMPTED.fetch_add(1, Ordering::Relaxed);
    FAILED.fetch_add(1, Ordering::Relaxed);
}

/// A wrong verdict outside the passes: a soft guard rail, an
/// exact-repeat counter that moved.
fn fail(why: String, wrong: &mut Vec<String>) {
    eprintln!("WRONG VERDICT {why}");
    count_failure();
    wrong.push(why);
}

/// Folds a pass's verdicts into the run's tally; prints the wrong ones.
fn tally(pass: &Pass, wrong: &mut Vec<String>) {
    ATTEMPTED.fetch_add(pass.attempted, Ordering::Relaxed);
    FAILED.fetch_add(pass.wrong.len() as u64, Ordering::Relaxed);
    for w in &pass.wrong {
        eprintln!("WRONG VERDICT {w}");
    }
    wrong.extend(pass.wrong.iter().cloned());
}

/// A tripped guard rail ends the run as a wrong verdict: every timing
/// reads the time spent so far, every per-layer metric 0.
fn install_guard(trace: bool) {
    let started = Instant::now();
    guard::install(move |reason| {
        eprintln!("GUARD RAIL TRIPPED: {reason}");
        count_failure();
        let spent = started.elapsed().as_secs_f64();
        let mut m = Json::obj();
        if trace {
            for (name, unit, _) in PER_LAYER {
                m = m.set(name, metric(0.0, unit));
            }
        } else {
            for (name, unit, _) in END_TO_END {
                let v = if name == "peak_rss_mb" {
                    guard::peak_rss_mb()
                } else {
                    spent
                };
                m = m.set(name, metric(v, unit));
            }
        }
        println!("{}", result_line(m));
    });
}

/// What the timed passes of a run leave behind.
#[derive(Default)]
struct Timed {
    /// Wall seconds of each untraced pass, and of its control.
    verdict_s: Vec<f64>,
    convict_s: Vec<f64>,
    /// Wall seconds of each traced pass.
    traced_verdict_s: Vec<f64>,
    /// Exact-repeat counters, as the first pass read them.
    exact: BTreeMap<&'static str, u64>,
    /// Per-layer values, one sample per traced pass.
    layers: BTreeMap<&'static str, Vec<f64>>,
    /// Share of each traced pass no span covers, in percent.
    gap_pct: Vec<f64>,
    /// Wall seconds per subject, one sample per pass.
    subject_s: BTreeMap<String, Vec<f64>>,
    /// The first traced pass's spans, for the trace file.
    spans: Vec<Span>,
}

/// Times passes for `seconds` (and at least `min_passes` of them). With
/// `trace`, every second pass is traced and followed by the direct
/// calls.
fn timed_passes(
    w: &mut dyn Workload,
    trace: bool,
    min_passes: usize,
    seconds: f64,
    wrong: &mut Vec<String>,
) -> Timed {
    let mut t = Timed::default();
    let started = Instant::now();
    let mut n = 0;
    while n < min_passes || started.elapsed().as_secs_f64() < seconds {
        let traced = trace && n % 2 == 1;
        spans::set_pass(n as u32);
        spans::set_on(traced);
        let t0 = Instant::now();
        let mut pass = {
            let root = spans::enter("pass", spans::ROOT);
            w.pass(root.id())
        };
        let wall_s = t0.elapsed().as_secs_f64();
        if traced {
            let root = spans::enter("direct", spans::ROOT);
            w.direct(root.id(), &mut pass);
        }
        spans::set_on(false);
        tally(&pass, wrong);
        for (subject, secs) in &pass.subject_s {
            t.subject_s.entry(subject.clone()).or_default().push(*secs);
        }
        for (&k, &v) in &pass.exact {
            let first = *t.exact.entry(k).or_insert(v);
            if first != v {
                fail(
                    format!("exact-repeat counter {k} read {first}, then {v}"),
                    wrong,
                );
            }
        }
        if traced {
            let spans = spans::drain();
            let mut layers: Layers = pass.layers.clone();
            for (&k, &v) in &pass.exact {
                layers.insert(k, v as f64);
            }
            w.fold(&spans, &mut layers);
            for (k, v) in layers {
                t.layers.entry(k).or_default().push(v);
            }
            let root = spans
                .iter()
                .find(|s| s.name == "pass")
                .expect("a traced pass records its root span");
            t.gap_pct
                .push(100.0 * spans::uncovered_s(&spans, root) / root.secs().max(1e-9));
            if t.spans.is_empty() {
                t.spans = spans;
            }
        }
        if traced {
            t.traced_verdict_s.push(wall_s);
        } else {
            t.verdict_s.push(wall_s);
            t.convict_s.push(pass.convict_s);
        }
        n += 1;
    }
    t
}

pub fn single(args: &Args) -> ExitCode {
    let name = args.workload.as_deref().expect("single run has a workload");
    if let Err(why) = metrics::check_manifest() {
        eprintln!("BENCHMARK.json does not match the benchmark: {why}");
        return ExitCode::FAILURE;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = (name == "dfs-serial")
        .then(affinity::pin_to_one_cpu)
        .flatten();
    let out = Path::new(OUT_DIR);
    let bundles = out.join("bundles").join(name);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let trace = args.trace;
    install_guard(trace);
    let mut wrong: Vec<String> = Vec::new();

    // Set-up: input generation plus the warm-up pass, several times.
    let reps = if args.smoke { 1 } else { params::SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut w = loop {
        let t0 = Instant::now();
        let mut w = make(name, args.seed, bundles.clone());
        let warm = w.pass(spans::ROOT);
        setup_s.push(t0.elapsed().as_secs_f64());
        tally(&warm, &mut wrong);
        if setup_s.len() >= reps || setup_s.iter().sum::<f64>() >= params::SETUP_BUDGET_S {
            break w;
        }
    };

    // Every second pass of a traced run is traced: one more pass gives
    // as many of each kind.
    let (min_passes, seconds) = match (args.smoke, trace) {
        (true, _) => (2, 0.0),
        (false, false) => (params::MIN_PASSES, args.seconds),
        (false, true) => (params::MIN_PASSES + 1, args.seconds),
    };
    let timed = timed_passes(w.as_mut(), trace, min_passes, seconds, &mut wrong);
    let verdict = Timing::of(&timed.verdict_s);
    let convict = Timing::of(&timed.convict_s);

    println!(
        "== {name}: seed {}, {} run, nproc {nproc}{}",
        args.seed,
        if trace { "traced" } else { "untraced" },
        pinned.map_or(String::new(), |c| format!(", pinned to cpu {c}")),
    );
    let mut detail = Json::obj()
        .set("workload", name)
        .set("seed", args.seed)
        .set("trace", trace)
        .set("smoke", args.smoke)
        .set("nproc", nproc)
        .set(
            "pinned_cpu",
            pinned.map_or(Json::Null, |c| Json::from(c as u64)),
        );

    // `out_metrics` goes on the result line, `all_metrics` (with the
    // minimum, maximum and sample count) into the detail file.
    let mut out_metrics = Json::obj();
    let mut all_metrics = Json::obj();
    if trace {
        let traced_verdict = Timing::of(&timed.traced_verdict_s);
        let mut layers: Layers = timed
            .layers
            .iter()
            .map(|(&k, v)| (k, stats::median(v)))
            .collect();
        w.probes(if args.smoke { 0.05 } else { 1.0 }, &mut layers);
        layers.insert(
            "bench.trace_overhead_pct",
            100.0 * (traced_verdict.median - verdict.median) / verdict.median.max(1e-9),
        );
        layers.insert("bench.layer_sum_gap_pct", stats::median(&timed.gap_pct));
        layers.insert("bench.cpu_s", stats::cpu_s());
        layers.insert(
            "bench.pass_spread_pct",
            100.0 * (verdict.max - verdict.min) / verdict.median.max(1e-9),
        );
        layers.insert("bench.verdict_traced_s", traced_verdict.median);
        layers.insert(
            "bench.wrong_verdict_share",
            FAILED.load(Ordering::Relaxed) as f64 / ATTEMPTED.load(Ordering::Relaxed).max(1) as f64,
        );
        for (metric_name, unit, _) in PER_LAYER {
            let v = layers.get(metric_name).copied().unwrap_or(0.0);
            let tag = if EXACT.contains(&metric_name) {
                "  [exact]"
            } else if NOISY.contains(&metric_name) {
                "  [noisy]"
            } else {
                ""
            };
            println!("  {metric_name:<42} {v:>16.4} {unit}{tag}");
            out_metrics = out_metrics.set(metric_name, metric(v, unit));
        }
        all_metrics = out_metrics.clone();
        let path = out.join(format!("trace-{name}.json"));
        let doc = spans::to_json(name, args.seed, &timed.spans).render();
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    } else {
        let peak = guard::peak_rss_mb();
        if !args.smoke && peak > params::MAX_PEAK_RSS_MB {
            fail(
                format!(
                    "peak RSS {peak:.0} MiB over the {} MiB guard rail",
                    params::MAX_PEAK_RSS_MB
                ),
                &mut wrong,
            );
        }
        let setup = stats::median(&setup_s);
        for (metric_name, unit, _) in END_TO_END {
            let (v, timing) = match metric_name {
                "verdict_s" => (verdict.median, Some(&verdict)),
                "convict_s" => (convict.median, Some(&convict)),
                "setup_s" => (setup, None),
                _ => (peak, None),
            };
            match timing {
                Some(t) => println!(
                    "  {metric_name:<20} {v:>12.6} {unit}   (median; min {:.6}, max {:.6}, n={})",
                    t.min, t.max, t.n
                ),
                None => println!("  {metric_name:<20} {v:>12.6} {unit}"),
            }
            out_metrics = out_metrics.set(metric_name, metric(v, unit));
            all_metrics = all_metrics.set(
                metric_name,
                timing.map_or_else(|| metric(v, unit), |t| t.json(unit)),
            );
        }
        let mut subjects = Json::obj();
        for (s, v) in &timed.subject_s {
            println!("    subject {s:<28} {:>10.6} s", stats::median(v));
            subjects = subjects.set(s, stats::median(v));
        }
        detail = detail
            .set("subject_s", subjects)
            .set("setup_samples_s", array(&setup_s))
            .set("verdict_samples_s", array(&timed.verdict_s))
            .set("convict_samples_s", array(&timed.convict_s));
    }

    let attempted = ATTEMPTED.load(Ordering::Relaxed);
    let failed = FAILED.load(Ordering::Relaxed);
    println!(
        "  wrong_verdict_share  {} ({failed} of {attempted} verdicts)",
        failed as f64 / attempted.max(1) as f64
    );
    print!("  exact-repeat counters:");
    let mut exact_json = Json::obj();
    for k in EXACT {
        if let Some(&v) = timed.exact.get(k) {
            print!(" {k}={v}");
            exact_json = exact_json.set(k, v);
        }
    }
    println!();
    if let Some(b) = args.build_s {
        println!("  build_s              {b:.3} s (not part of setup_s)");
    }

    detail = detail
        .set("metrics", all_metrics)
        .set("exact", exact_json)
        .set("attempted", attempted)
        .set("failed", failed)
        .set(
            "wrong",
            Json::Arr(wrong.iter().map(|w| Json::from(w.as_str())).collect()),
        );
    let path = out.join(format!("run-{name}-trace{}.json", u8::from(trace)));
    if let Err(e) = std::fs::write(&path, detail.render_pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
    }

    println!("{}", result_line(out_metrics));
    ExitCode::SUCCESS
}
