//! Pins the schema-v6 `perf` object, the `BENCH_<n>.json` trajectory
//! document, and the regression comparator's verdicts.
//!
//! Like `metrics_schema.rs`, the exact rendered JSON is frozen so
//! downstream trajectory tooling can rely on key order and number
//! formatting; `bench_compare` behaviour is pinned against synthetic
//! documents, including the acceptance-criteria case of an injected
//! regression making it exit nonzero.

use compass_bench::metrics::Metrics;
use compass_bench::perf::{
    bench_document, check_bench_doc, compare_bench_docs, compare_cli, curve_point_json, hist_json,
    perf_json, structure_json, trajectory_entries, BENCH_SCHEMA, REQUIRED_STRUCTURES,
};
use compass_native::perf::LatencyHist;
use orc11::Json;

fn hist(values: &[u64]) -> LatencyHist {
    let mut h = LatencyHist::new();
    for &v in values {
        h.record(v);
    }
    h
}

#[test]
fn hist_json_render_is_pinned() {
    let h = hist(&[10, 100]);
    let expected = r#"{
  "count": 2,
  "p50_ns": 10,
  "p90_ns": 100,
  "p99_ns": 100,
  "p999_ns": 100,
  "max_ns": 100,
  "mean_ns": 55.0,
  "buckets": [
    {
      "lo": 10,
      "hi": 10,
      "count": 1
    },
    {
      "lo": 100,
      "hi": 101,
      "count": 1
    }
  ]
}
"#;
    assert_eq!(hist_json(&h).render_pretty(), expected);
}

#[test]
fn curve_point_shape_is_pinned() {
    let h = hist(&[50, 60, 70]);
    let p = curve_point_json(
        4,
        1_000,
        2_000_000,
        &h,
        &[("enqueue".to_string(), h.clone())],
    );
    // 1000 ops in 2ms = 500k ops/s.
    assert_eq!(p.get("threads"), Some(&Json::Int(4)));
    assert_eq!(p.get("ops"), Some(&Json::Int(1_000)));
    assert_eq!(p.get("wall_ns"), Some(&Json::Int(2_000_000)));
    assert_eq!(
        p.get("throughput_ops_per_sec"),
        Some(&Json::Float(500_000.0))
    );
    assert_eq!(
        p.get("latency").and_then(|l| l.get("count")),
        Some(&Json::Int(3))
    );
    assert!(p.get("by_op").and_then(|b| b.get("enqueue")).is_some());
    // Key order is part of the schema.
    let keys = match &p {
        Json::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        other => panic!("curve point is not an object: {other:?}"),
    };
    assert_eq!(
        keys,
        [
            "threads",
            "ops",
            "wall_ns",
            "throughput_ops_per_sec",
            "latency",
            "by_op"
        ]
    );
}

/// A synthetic but schema-complete `perf` object. `wall_scale`
/// stretches every round's wall time (lowering throughput) and
/// `lat_scale` multiplies every latency sample — the knobs the
/// regression tests turn.
fn synthetic_perf(wall_scale: u64, lat_scale: u64, execs_per_sec: f64) -> Json {
    let mut structures = Json::arr();
    for name in REQUIRED_STRUCTURES {
        let mut curve = Json::arr();
        for threads in [1u64, 2] {
            let h = hist(&[40 * lat_scale, 55 * lat_scale, 900 * lat_scale]);
            curve = curve.push(curve_point_json(
                threads,
                1_000,
                1_000_000 * wall_scale,
                &h,
                &[("enqueue".to_string(), h.clone())],
            ));
        }
        structures = structures.push(structure_json(name, "queue", false, curve));
    }
    let tests = Json::arr().push(
        Json::obj()
            .set("name", "sb")
            .set("plain_execs", 100u64)
            .set("plain_execs_per_sec", execs_per_sec)
            .set("dpor_execs", 40u64)
            .set("dpor_execs_per_sec", execs_per_sec),
    );
    let explorer = Json::obj()
        .set("budget", 1_000u64)
        .set("tests", tests)
        .set("total_execs", 140u64)
        .set("execs_per_sec", execs_per_sec);
    perf_json(structures, explorer)
}

fn synthetic_metrics(perf: Json) -> Json {
    let mut m = Metrics::new("e12_perf");
    m.set_perf(perf);
    m.to_json()
}

#[test]
fn bench_document_shape_is_pinned() {
    let doc = bench_document(
        &synthetic_metrics(synthetic_perf(1, 1, 5_000.0)),
        "abc1234",
        "2026-08-09",
        "smoke",
    )
    .expect("synthetic metrics make a valid document");
    let keys = match &doc {
        Json::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        other => panic!("BENCH document is not an object: {other:?}"),
    };
    assert_eq!(
        keys,
        [
            "bench_schema",
            "metrics_schema_version",
            "rev",
            "date",
            "preset",
            "threads",
            "perf"
        ]
    );
    assert_eq!(
        doc.get("bench_schema"),
        Some(&Json::Int(BENCH_SCHEMA as i64))
    );
    assert_eq!(doc.get("metrics_schema_version"), Some(&Json::Int(10)));
    assert_eq!(doc.get("rev"), Some(&Json::Str("abc1234".into())));
    assert_eq!(doc.get("date"), Some(&Json::Str("2026-08-09".into())));
    assert_eq!(doc.get("preset"), Some(&Json::Str("smoke".into())));
    check_bench_doc(&doc).expect("document validates");
}

#[test]
fn bench_document_rejects_non_perf_metrics() {
    // Any other experiment's metrics (perf: null) cannot seed a
    // trajectory entry.
    let m = Metrics::new("e8_litmus");
    let err = bench_document(&m.to_json(), "abc", "2026-08-09", "smoke").unwrap_err();
    assert!(err.contains("perf"), "unexpected error: {err}");
}

#[test]
fn check_rejects_missing_required_structure() {
    let full = bench_document(
        &synthetic_metrics(synthetic_perf(1, 1, 5_000.0)),
        "abc",
        "2026-08-09",
        "smoke",
    )
    .unwrap();
    check_bench_doc(&full).expect("full document is valid");
    // Drop one required structure.
    let perf = full.get("perf").unwrap();
    let structures = match perf.get("structures") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("structures not an array: {other:?}"),
    };
    let pruned = structures
        .into_iter()
        .filter(|s| s.get("name") != Some(&Json::Str("chase_lev".into())))
        .fold(Json::arr(), |j, s| j.push(s));
    let broken = full
        .clone()
        .set("perf", perf.clone().set("structures", pruned));
    let err = check_bench_doc(&broken).unwrap_err();
    assert!(err.contains("chase_lev"), "unexpected error: {err}");
}

#[test]
fn compare_accepts_identical_and_flags_injected_regressions() {
    let base = bench_document(
        &synthetic_metrics(synthetic_perf(1, 1, 5_000.0)),
        "old",
        "2026-08-08",
        "smoke",
    )
    .unwrap();
    assert_eq!(
        compare_bench_docs(&base, &base, 0.20).expect("valid docs"),
        Vec::<String>::new()
    );
    // Injected throughput regression: every round takes 2x the wall
    // time, so throughput halves (-50% > 20%).
    let slow = bench_document(
        &synthetic_metrics(synthetic_perf(2, 1, 5_000.0)),
        "new",
        "2026-08-09",
        "smoke",
    )
    .unwrap();
    let regressions = compare_bench_docs(&base, &slow, 0.20).unwrap();
    assert!(
        regressions.iter().any(|r| r.contains("throughput")),
        "throughput regression not flagged: {regressions:?}"
    );
    // Injected latency regression: every sample doubles, so the median
    // gate trips.
    let spiky = bench_document(
        &synthetic_metrics(synthetic_perf(1, 2, 5_000.0)),
        "new",
        "2026-08-09",
        "smoke",
    )
    .unwrap();
    let regressions = compare_bench_docs(&base, &spiky, 0.20).unwrap();
    assert!(
        regressions.iter().any(|r| r.contains("p50")),
        "p50 regression not flagged: {regressions:?}"
    );
    // Injected explorer slowdown.
    let slow_explorer = bench_document(
        &synthetic_metrics(synthetic_perf(1, 1, 2_000.0)),
        "new",
        "2026-08-09",
        "smoke",
    )
    .unwrap();
    let regressions = compare_bench_docs(&base, &slow_explorer, 0.20).unwrap();
    assert!(
        regressions.iter().any(|r| r.contains("explorer")),
        "explorer regression not flagged: {regressions:?}"
    );
    // A wide threshold tolerates the same documents.
    assert_eq!(
        compare_bench_docs(&base, &slow, 0.60).unwrap(),
        Vec::<String>::new()
    );
}

#[test]
fn compare_cli_exit_codes_match_the_contract() {
    let dir = std::env::temp_dir().join(format!("compass-bench-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, doc: &Json| {
        let path = dir.join(name);
        std::fs::write(&path, doc.render_pretty()).unwrap();
        path.to_string_lossy().into_owned()
    };
    let base = bench_document(
        &synthetic_metrics(synthetic_perf(1, 1, 5_000.0)),
        "old",
        "2026-08-08",
        "smoke",
    )
    .unwrap();
    let slow = bench_document(
        &synthetic_metrics(synthetic_perf(2, 1, 5_000.0)),
        "new",
        "2026-08-09",
        "smoke",
    )
    .unwrap();
    let base_path = write("BENCH_0.json", &base);
    let slow_path = write("BENCH_1.json", &slow);

    let run = |args: &[&str]| compare_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    // Valid document: --check passes.
    assert_eq!(run(&["--check", &base_path]), 0);
    // Identical comparison: clean.
    assert_eq!(run(&[&base_path, &base_path]), 0);
    // The injected regression makes the comparator exit nonzero.
    assert_eq!(run(&[&base_path, &slow_path]), 1);
    // Directory mode picks the newest two (BENCH_0 vs BENCH_1).
    assert_eq!(run(&[dir.to_str().unwrap()]), 1);
    // A generous threshold accepts the same pair.
    assert_eq!(run(&["--threshold", "60", &base_path, &slow_path]), 0);
    // Perf-smoke mode: explorer must get strictly faster.
    let fast = bench_document(
        &synthetic_metrics(synthetic_perf(1, 1, 9_000.0)),
        "new",
        "2026-08-09",
        "smoke",
    )
    .unwrap();
    let fast_path = write("BENCH_2.json", &fast);
    assert_eq!(
        run(&["--assert-explorer-faster", &base_path, &fast_path]),
        0
    );
    assert_eq!(
        run(&["--assert-explorer-faster", &fast_path, &base_path]),
        1
    );
    assert_eq!(
        run(&["--assert-explorer-faster", &base_path, &base_path]),
        1
    );
    // Garbage input is a usage/parse error, not a regression.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json").unwrap();
    assert_eq!(run(&["--check", garbage.to_str().unwrap()]), 2);
    assert_eq!(run(&["--frobnicate"]), 2);
    assert_eq!(run(&[]), 2);

    let entries = trajectory_entries(&dir);
    assert_eq!(entries.len(), 3);
    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    let _ = std::fs::remove_dir_all(&dir);
}

// --- LatencyHist unit coverage -------------------------------------

#[test]
fn latency_hist_percentiles_track_a_sorted_vector_oracle() {
    let mut state = 42u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut h = LatencyHist::new();
    let mut samples: Vec<u64> = (0..20_000).map(|_| next() % 10_000_000).collect();
    for &s in &samples {
        h.record(s);
    }
    samples.sort_unstable();
    for q in [0.5, 0.9, 0.99, 0.999] {
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let oracle = samples[rank - 1];
        let got = h.percentile(q);
        assert!(got >= oracle, "p{q}: {got} under-reports oracle {oracle}");
        let slack = oracle / 16 + 1;
        assert!(got <= oracle + slack, "p{q}: {got} > {oracle} + {slack}");
    }
    assert_eq!(h.max_ns(), *samples.last().unwrap());
}

#[test]
fn latency_hist_merge_commutes_and_bucket_bounds_are_monotone() {
    let a = hist(&[3, 700, 12_000, 44]);
    let b = hist(&[9, 9, 2_000_000]);
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba);
    assert_eq!(ab.count(), 7);
    let buckets = ab.nonzero_buckets();
    assert!(
        buckets.windows(2).all(|w| w[0].1 < w[1].0),
        "bucket ranges overlap or disorder: {buckets:?}"
    );
    assert_eq!(buckets.iter().map(|b| b.2).sum::<u64>(), 7);
}
