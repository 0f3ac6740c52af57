//! The metric tables: every name the benchmark prints, with its unit
//! and the direction that is better.
//!
//! `BENCHMARK.json` lists the same names, and every run checks the two
//! agree before it measures anything. A traced run reports every
//! per-layer metric on every workload — a layer the workload bypasses
//! reads 0, which is itself the prediction a later change is held to
//! ("no move on the workload that bypasses the mechanism").

use orc11::Json;

use crate::params;

/// End-to-end metrics (untraced runs). `wrong_verdict_share` is printed
/// too, but travels as `failed / attempted` in the result line: it must
/// be 0, and the contract asks for bounded metrics that are never 0.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("verdict_s", "s", "lower"),
    ("convict_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Counters that must repeat exactly across passes and run sets; they
/// are reported apart from the timings.
pub const EXACT: [&str; 7] = [
    "orc11.execs",
    "orc11.steps",
    "orc11.dpor.backtrack_points",
    "orc11.dpor.sleep_hits",
    "orc11.dpor.pruned_subtrees",
    "compass.history.search_nodes",
    "compass.soak.events_checked",
];

/// The live native probes: their numbers do not repeat on a shared box.
pub const NOISY: [&str; 4] = [
    "native.msqueue.op_ns",
    "native.treiber.op_ns",
    "native.recorder.record_ns",
    "native.recorder.seal_ns",
];

/// Per-layer metrics (traced runs), grouped by the layer they belong to.
pub const PER_LAYER: [(&str, &str, &str); 54] = [
    // orc11, from the benchmark's closures and public report fields.
    ("orc11.execs", "count", "lower"),
    ("orc11.steps", "count", "lower"),
    ("orc11.execs_per_s", "1/s", "higher"),
    ("orc11.run_model.busy_s", "s", "lower"),
    ("orc11.run_model.ns_per_step", "ns", "lower"),
    ("orc11.engine.self_s", "s", "lower"),
    ("orc11.dpor.busy_s", "s", "lower"),
    ("orc11.dpor.backtrack_points", "count", "lower"),
    ("orc11.dpor.sleep_hits", "count", "higher"),
    ("orc11.dpor.pruned_subtrees", "count", "higher"),
    ("orc11.dpor.reduction_x", "x", "higher"),
    ("orc11.checkpoint.restored", "count", "higher"),
    ("orc11.checkpoint.steps_saved", "count", "higher"),
    ("orc11.work.stolen", "count", "higher"),
    ("orc11.work.idle_wait_s", "s", "lower"),
    // orc11 micro-probes.
    ("orc11.memory.step_ns.na", "ns", "lower"),
    ("orc11.memory.step_ns.rlx", "ns", "lower"),
    ("orc11.memory.step_ns.rel", "ns", "lower"),
    ("orc11.memory.step_ns.acq", "ns", "lower"),
    ("orc11.memory.step_ns.rmw", "ns", "lower"),
    ("orc11.memory.fence_ns", "ns", "lower"),
    ("orc11.exec.handoff_ns", "ns", "lower"),
    ("orc11.exec.empty_exec_ns", "ns", "lower"),
    // compass, model side.
    ("compass.check.busy_s", "s", "lower"),
    ("compass.check.ns_per_exec", "ns", "lower"),
    ("compass.graph.events_per_exec", "count", "lower"),
    ("compass.bundle.write_s", "s", "lower"),
    // compass, native side: the engine path.
    ("compass.soak.submit.busy_s", "s", "lower"),
    ("compass.soak.assemble.ns_per_event", "ns", "lower"),
    ("compass.soak.drain_s", "s", "lower"),
    ("compass.soak.epochs_checked", "count", "higher"),
    ("compass.soak.epochs_shed", "count", "lower"),
    ("compass.soak.events_checked", "count", "higher"),
    // compass, native side: the public pieces called directly.
    ("compass.conform.to_graph.busy_s", "s", "lower"),
    ("compass.conform.to_graph.ns_per_event", "ns", "lower"),
    ("compass.conform.check.busy_s", "s", "lower"),
    ("compass.conform.check.ns_per_event", "ns", "lower"),
    ("compass.conform.check.epoch_p50_ms", "ms", "lower"),
    ("compass.conform.check.epoch_p99_ms", "ms", "lower"),
    ("compass.conform.check.epoch_max_ms", "ms", "lower"),
    ("compass.history.search_nodes", "count", "lower"),
    ("compass.history.memo_prunes", "count", "higher"),
    ("compass.history.nodes_per_s", "1/s", "higher"),
    ("compass.conform.recheck_s", "s", "lower"),
    // native live probes (noisy).
    ("native.msqueue.op_ns", "ns", "lower"),
    ("native.treiber.op_ns", "ns", "lower"),
    ("native.recorder.record_ns", "ns", "lower"),
    ("native.recorder.seal_ns", "ns", "lower"),
    // the benchmark itself.
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.layer_sum_gap_pct", "%", "lower"),
    ("bench.cpu_s", "s", "lower"),
    ("bench.pass_spread_pct", "%", "lower"),
    ("bench.verdict_traced_s", "s", "lower"),
    ("bench.wrong_verdict_share", "share", "lower"),
];

/// `BENCHMARK.json` (in the working directory, the repository root)
/// must name exactly the workloads, the run length and the metrics —
/// with their units and directions — this binary reports: the driver
/// refuses a run that lacks a listed metric.
pub fn check_manifest() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
    let doc = Json::parse(&text)?;
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("no `{key}` list")),
    };
    let text_of = |item: &Json, key: &str| match item.get(key) {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let workloads: Vec<String> = list("workloads")?
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    if workloads != params::WORKLOADS {
        return Err(format!("workloads {workloads:?}"));
    }
    if !matches!(doc.get("run_seconds"), Some(Json::Int(s)) if *s as f64 == params::DEFAULT_SECONDS)
    {
        return Err(format!("run_seconds is not {}", params::DEFAULT_SECONDS));
    }
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String, String)> = list(key)?
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        if listed != ours {
            let odd = listed
                .iter()
                .zip(&ours)
                .find(|(l, o)| l != o)
                .map_or("a different count".to_string(), |(l, o)| {
                    format!("{l:?} where the benchmark has {o:?}")
                });
            return Err(format!("`{key}`: {odd}"));
        }
    }
    Ok(())
}
