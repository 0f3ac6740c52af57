//! Performance-trajectory documents: the schema-v6 `perf` object, the
//! `BENCH_<n>.json` trajectory format, and the regression comparator.
//!
//! The `e12_perf` experiment measures the native structures
//! (per-operation latency histograms from [`compass_native::perf`],
//! throughput-vs-threads curves) and the explorer (execs/sec over the
//! litmus gallery). This module owns everything JSON about those
//! measurements — `compass-native` stays dependency-free, so histograms
//! cross the crate boundary as [`LatencyHist`] values and are serialized
//! here:
//!
//! * the `perf` object embedded in `e12_perf`'s metrics file
//!   ([`perf_json`], [`structure_json`], [`curve_point_json`],
//!   [`hist_json`]);
//! * the standalone trajectory document `BENCH_<n>.json`
//!   ([`bench_document`]) written by `scripts/run_bench.sh` — one file
//!   per recorded run, with the git revision and date passed in via
//!   environment (the documents themselves never read the wall clock,
//!   consistent with the repo's timestamp quarantine);
//! * validation ([`check_bench_doc`]) and regression comparison
//!   ([`compare_bench_docs`]) between two trajectory entries, fronted by
//!   [`compare_cli`] for the `bench_compare` binary.
//!
//! `tests/perf_schema.rs` pins all of these shapes.

use std::path::{Path, PathBuf};

use compass_native::perf::LatencyHist;
use orc11::Json;

/// Version of the `BENCH_<n>.json` trajectory document format.
pub const BENCH_SCHEMA: u64 = 1;

/// The structures every complete `perf` object must cover — the seven
/// native structures of the paper's benchmark suite. Baselines
/// (`MutexQueue`, `MutexStack`) ride along but are not required.
pub const REQUIRED_STRUCTURES: [&str; 7] = [
    "MsQueue",
    "HwQueue",
    "TreiberStack",
    "ElimStack",
    "exchanger",
    "spsc_ring",
    "chase_lev",
];

/// Serializes a [`LatencyHist`]: summary percentiles plus the non-empty
/// buckets (so trajectory consumers can re-derive any quantile).
pub fn hist_json(h: &LatencyHist) -> Json {
    let mut buckets = Json::arr();
    for (lo, hi, count) in h.nonzero_buckets() {
        buckets = buckets.push(Json::obj().set("lo", lo).set("hi", hi).set("count", count));
    }
    Json::obj()
        .set("count", h.count())
        .set("p50_ns", h.p50())
        .set("p90_ns", h.p90())
        .set("p99_ns", h.p99())
        .set("p999_ns", h.p999())
        .set("max_ns", h.max_ns())
        .set("mean_ns", h.mean_ns())
        .set("buckets", buckets)
}

/// One point of a throughput-vs-threads curve: a closed-loop round at
/// `threads` workers that completed `ops` operations in `wall_ns`.
/// `latency` is the merge of every op kind's histogram; `by_op` keeps
/// the per-kind split (`enqueue`, `dequeue`, `steal`, ...).
pub fn curve_point_json(
    threads: u64,
    ops: u64,
    wall_ns: u64,
    latency: &LatencyHist,
    by_op: &[(String, LatencyHist)],
) -> Json {
    let throughput = if wall_ns == 0 {
        0.0
    } else {
        ops as f64 * 1e9 / wall_ns as f64
    };
    let mut by = Json::obj();
    for (name, h) in by_op {
        by = by.set(name, hist_json(h));
    }
    Json::obj()
        .set("threads", threads)
        .set("ops", ops)
        .set("wall_ns", wall_ns)
        .set("throughput_ops_per_sec", throughput)
        .set("latency", hist_json(latency))
        .set("by_op", by)
}

/// One benchmarked structure: its curve across thread counts. `kind` is
/// the workload shape (`"queue"`, `"stack"`, `"deque"`, ...); baselines
/// set `baseline` so consumers never chart them as paper structures.
pub fn structure_json(name: &str, kind: &str, baseline: bool, curve: Json) -> Json {
    Json::obj()
        .set("name", name)
        .set("kind", kind)
        .set("baseline", baseline)
        .set("curve", curve)
}

/// The complete schema-v6 `perf` object: structure curves plus explorer
/// speed.
pub fn perf_json(structures: Json, explorer: Json) -> Json {
    Json::obj()
        .set("structures", structures)
        .set("explorer", explorer)
}

/// Builds a `BENCH_<n>.json` trajectory document from an `e12_perf`
/// metrics document. `rev`/`date`/`preset` come from the environment
/// (`scripts/run_bench.sh` passes `git rev-parse` and `date -u` output):
/// the document never reads the wall clock itself.
///
/// # Errors
///
/// Fails when `metrics` is not a schema-v6 `e12_perf` document with a
/// `perf` object.
pub fn bench_document(metrics: &Json, rev: &str, date: &str, preset: &str) -> Result<Json, String> {
    let version = metrics
        .get("schema_version")
        .and_then(as_u64)
        .ok_or("metrics document has no schema_version")?;
    if version != crate::metrics::SCHEMA_VERSION {
        return Err(format!(
            "metrics schema_version {version} (need {})",
            crate::metrics::SCHEMA_VERSION
        ));
    }
    let perf = metrics.get("perf").ok_or("metrics document has no perf")?;
    if matches!(perf, Json::Null) {
        return Err("metrics perf object is null (not an e12_perf document?)".to_string());
    }
    let threads = metrics
        .get("threads")
        .and_then(as_u64)
        .ok_or("metrics document has no threads")?;
    Ok(Json::obj()
        .set("bench_schema", BENCH_SCHEMA)
        .set("metrics_schema_version", version)
        .set("rev", rev)
        .set("date", date)
        .set("preset", preset)
        .set("threads", threads)
        .set("perf", perf.clone()))
}

fn as_u64(j: &Json) -> Option<u64> {
    match j {
        Json::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

fn as_str(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn as_arr(j: &Json) -> Option<&[Json]> {
    match j {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

/// Validates a `BENCH_<n>.json` document: schema tag, provenance
/// fields, all seven [`REQUIRED_STRUCTURES`] with non-empty curves
/// whose points carry throughput and p50/p99/p999 latency, and the
/// explorer section with per-test and total execs/sec.
///
/// # Errors
///
/// The first problem found, as a human-readable message.
pub fn check_bench_doc(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("bench_schema")
        .and_then(as_u64)
        .ok_or("missing bench_schema")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("bench_schema {schema} (expected {BENCH_SCHEMA})"));
    }
    for key in ["rev", "date", "preset"] {
        doc.get(key)
            .and_then(as_str)
            .ok_or(format!("missing string field {key:?}"))?;
    }
    doc.get("metrics_schema_version")
        .and_then(as_u64)
        .ok_or("missing metrics_schema_version")?;
    let perf = doc.get("perf").ok_or("missing perf object")?;
    let structures = perf
        .get("structures")
        .and_then(as_arr)
        .ok_or("perf.structures is not an array")?;
    let mut names = Vec::new();
    for s in structures {
        let name = s
            .get("name")
            .and_then(as_str)
            .ok_or("structure entry without a name")?;
        names.push(name.to_string());
        s.get("kind")
            .and_then(as_str)
            .ok_or(format!("{name}: missing kind"))?;
        let curve = s
            .get("curve")
            .and_then(as_arr)
            .ok_or(format!("{name}: curve is not an array"))?;
        if curve.is_empty() {
            return Err(format!("{name}: empty curve"));
        }
        for point in curve {
            let threads = point
                .get("threads")
                .and_then(as_u64)
                .ok_or(format!("{name}: curve point without threads"))?;
            if threads == 0 {
                return Err(format!("{name}: curve point with threads = 0"));
            }
            point
                .get("throughput_ops_per_sec")
                .and_then(as_f64)
                .ok_or(format!("{name}@{threads}: missing throughput_ops_per_sec"))?;
            let latency = point
                .get("latency")
                .ok_or(format!("{name}@{threads}: missing latency"))?;
            for key in ["count", "p50_ns", "p99_ns", "p999_ns", "max_ns"] {
                latency
                    .get(key)
                    .and_then(as_u64)
                    .ok_or(format!("{name}@{threads}: latency missing {key}"))?;
            }
            if latency.get("count").and_then(as_u64) == Some(0) {
                return Err(format!("{name}@{threads}: empty latency histogram"));
            }
        }
    }
    for required in REQUIRED_STRUCTURES {
        if !names.iter().any(|n| n == required) {
            return Err(format!("required structure {required:?} missing"));
        }
    }
    let explorer = perf.get("explorer").ok_or("perf.explorer missing")?;
    explorer
        .get("execs_per_sec")
        .and_then(as_f64)
        .ok_or("explorer.execs_per_sec missing")?;
    let tests = explorer
        .get("tests")
        .and_then(as_arr)
        .ok_or("explorer.tests is not an array")?;
    if tests.is_empty() {
        return Err("explorer.tests is empty".to_string());
    }
    for t in tests {
        let name = t
            .get("name")
            .and_then(as_str)
            .ok_or("explorer test without a name")?;
        for key in ["plain_execs_per_sec", "dpor_execs_per_sec"] {
            t.get(key)
                .and_then(as_f64)
                .ok_or(format!("explorer test {name}: missing {key}"))?;
        }
    }
    Ok(())
}

/// Collects each structure's curve as `(name, threads) -> (throughput,
/// p50_ns)`.
fn curve_points(doc: &Json) -> Vec<(String, u64, f64, u64)> {
    let mut out = Vec::new();
    let Some(structures) = doc
        .get("perf")
        .and_then(|p| p.get("structures"))
        .and_then(as_arr)
    else {
        return out;
    };
    for s in structures {
        let Some(name) = s.get("name").and_then(as_str) else {
            continue;
        };
        for point in s.get("curve").and_then(as_arr).unwrap_or(&[]) {
            let (Some(threads), Some(tp), Some(p50)) = (
                point.get("threads").and_then(as_u64),
                point.get("throughput_ops_per_sec").and_then(as_f64),
                point
                    .get("latency")
                    .and_then(|l| l.get("p50_ns"))
                    .and_then(as_u64),
            ) else {
                continue;
            };
            out.push((name.to_string(), threads, tp, p50));
        }
    }
    out
}

fn explorer_rate(doc: &Json) -> Option<f64> {
    doc.get("perf")
        .and_then(|p| p.get("explorer"))
        .and_then(|e| e.get("execs_per_sec"))
        .and_then(as_f64)
}

/// Compares two trajectory documents (`old` first). A regression is a
/// throughput drop of more than `threshold` (fraction, e.g. `0.35`), a
/// **median** (p50) latency rise of more than `threshold`, at any
/// `(structure, threads)` point present in both — or the same drop in
/// explorer execs/sec. Points present in only one document are skipped
/// (presets may differ across machines). Returns one message per
/// regression.
///
/// The latency gate uses p50, not p99: on shared runners the tail
/// percentiles of a microbenchmark round measure the host's scheduler
/// (recorded swings of 5-6x between recordings of *identical* code),
/// while the median tracks the operation's hot path and stays within a
/// few percent run to run. p99/p999 remain in the documents for human
/// inspection on quiet hardware.
///
/// # Errors
///
/// Fails when either document fails [`check_bench_doc`].
pub fn compare_bench_docs(old: &Json, new: &Json, threshold: f64) -> Result<Vec<String>, String> {
    check_bench_doc(old).map_err(|e| format!("old document invalid: {e}"))?;
    check_bench_doc(new).map_err(|e| format!("new document invalid: {e}"))?;
    let mut regressions = Vec::new();
    let old_points = curve_points(old);
    for (name, threads, new_tp, new_p50) in curve_points(new) {
        let Some((_, _, old_tp, old_p50)) = old_points
            .iter()
            .find(|(n, t, _, _)| *n == name && *t == threads)
        else {
            continue;
        };
        if new_tp < old_tp * (1.0 - threshold) {
            regressions.push(format!(
                "{name}@{threads}t throughput: {old_tp:.0} -> {new_tp:.0} ops/s ({:+.1}%, limit -{:.0}%)",
                100.0 * (new_tp / old_tp - 1.0),
                100.0 * threshold
            ));
        }
        if *old_p50 > 0 && new_p50 as f64 > *old_p50 as f64 * (1.0 + threshold) {
            regressions.push(format!(
                "{name}@{threads}t p50 latency: {old_p50} -> {new_p50} ns ({:+.1}%, limit +{:.0}%)",
                100.0 * (new_p50 as f64 / *old_p50 as f64 - 1.0),
                100.0 * threshold
            ));
        }
    }
    if let (Some(old_rate), Some(new_rate)) = (explorer_rate(old), explorer_rate(new)) {
        if new_rate < old_rate * (1.0 - threshold) {
            regressions.push(format!(
                "explorer execs/sec: {old_rate:.0} -> {new_rate:.0} ({:+.1}%, limit -{:.0}%)",
                100.0 * (new_rate / old_rate - 1.0),
                100.0 * threshold
            ));
        }
    }
    Ok(regressions)
}

/// The `BENCH_<n>.json` files in `dir`, sorted by index.
pub fn trajectory_entries(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(idx) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            out.push((idx, entry.path()));
        }
    }
    out.sort();
    out
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The `bench_compare` command-line: returns the process exit code.
///
/// ```text
/// bench_compare --check FILE                 # validate one document
/// bench_compare [--threshold PCT] OLD NEW    # compare two documents
/// bench_compare [--threshold PCT] DIR        # compare newest two in DIR
/// bench_compare --assert-explorer-faster OLD NEW
///                                            # require explorer speedup
/// ```
///
/// `--assert-explorer-faster` is the perf-smoke mode: instead of the
/// regression sweep it requires the *new* document's explorer execs/sec
/// to strictly exceed the old one's (CI uses it to assert the execution
/// arena actually pays off against the `BENCH_0.json` baseline).
///
/// Exit codes: 0 = ok, 1 = regression found (or explorer not faster),
/// 2 = usage/parse/validation error.
///
/// The default threshold (35%) sits above the variance this harness
/// actually measures on shared boxes: rebuilding *unchanged* structure
/// code after edits elsewhere in the workspace shifts the binary layout
/// enough to move alloc-heavy microloop throughput by ±25%, and
/// run-to-run scheduler interference adds ±20% on top of the
/// median-of-reps damping. The default gate is therefore for
/// step-function regressions (an accidental O(n²), a lost fast path);
/// tighten with `--threshold` on dedicated, pinned hardware.
pub fn compare_cli(args: &[String]) -> i32 {
    let mut threshold = 0.35f64;
    let mut check: Option<String> = None;
    let mut assert_faster = false;
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => {
                i += 1;
                match args.get(i) {
                    Some(f) => check = Some(f.clone()),
                    None => return usage("--check needs a file"),
                }
            }
            "--assert-explorer-faster" => assert_faster = true,
            "--threshold" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(pct) if pct > 0.0 => threshold = pct / 100.0,
                    _ => return usage("--threshold needs a positive percentage"),
                }
            }
            flag if flag.starts_with("--") => return usage(&format!("unknown flag {flag}")),
            _ => positional.push(args[i].clone()),
        }
        i += 1;
    }
    if let Some(path) = check {
        if !positional.is_empty() {
            return usage("--check takes exactly one file");
        }
        return match load(&path).and_then(|doc| check_bench_doc(&doc)) {
            Ok(()) => {
                println!("ok: {path} is a valid BENCH document");
                0
            }
            Err(e) => {
                eprintln!("bench_compare: {path}: {e}");
                2
            }
        };
    }
    let (old_path, new_path) = match positional.as_slice() {
        [old, new] => (old.clone(), new.clone()),
        [dir] => {
            let entries = trajectory_entries(Path::new(dir));
            match entries.as_slice() {
                [.., (_, old), (_, new)] => (
                    old.to_string_lossy().into_owned(),
                    new.to_string_lossy().into_owned(),
                ),
                _ => {
                    eprintln!("bench_compare: {dir}: need at least two BENCH_<n>.json files");
                    return 2;
                }
            }
        }
        _ => return usage("expected OLD NEW, a trajectory DIR, or --check FILE"),
    };
    let (old, new) = match (load(&old_path), load(&new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_compare: {e}");
            return 2;
        }
    };
    if assert_faster {
        let (Some(old_rate), Some(new_rate)) = (explorer_rate(&old), explorer_rate(&new)) else {
            eprintln!("bench_compare: explorer.execs_per_sec missing from a document");
            return 2;
        };
        return if new_rate > old_rate {
            println!(
                "ok: explorer execs/sec {old_rate:.0} -> {new_rate:.0} ({:.2}x)",
                new_rate / old_rate
            );
            0
        } else {
            eprintln!(
                "bench_compare: explorer execs/sec did not improve: \
                 {old_rate:.0} -> {new_rate:.0} ({old_path} -> {new_path})"
            );
            1
        };
    }
    match compare_bench_docs(&old, &new, threshold) {
        Ok(regressions) if regressions.is_empty() => {
            println!(
                "ok: no regressions beyond {:.0}% ({old_path} -> {new_path})",
                100.0 * threshold
            );
            0
        }
        Ok(regressions) => {
            eprintln!(
                "bench_compare: {} regression(s) ({old_path} -> {new_path}):",
                regressions.len()
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            1
        }
        Err(e) => {
            eprintln!("bench_compare: {e}");
            2
        }
    }
}

fn usage(problem: &str) -> i32 {
    eprintln!(
        "bench_compare: {problem}\n\
         usage: bench_compare --check FILE\n\
         \x20      bench_compare [--threshold PCT] OLD NEW\n\
         \x20      bench_compare [--threshold PCT] DIR\n\
         \x20      bench_compare --assert-explorer-faster OLD NEW"
    );
    2
}
