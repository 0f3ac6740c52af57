//! The whole suite: every workload, untraced then traced, each run in a
//! fresh process, `--repeat` sets of them.
//!
//! Prints every metric by name with its unit, the spread of every
//! metric x workload when there are several sets, and checks that the
//! exact-repeat counters are identical across sets. Everything lands in
//! `benchmark/out/results.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use orc11::Json;

use crate::metrics::{END_TO_END, EXACT, NOISY, PER_LAYER};
use crate::run::OUT_DIR;
use crate::{params, stats, Args};

/// The `metrics` object of a child's result line as `(name, value)`s,
/// plus its `correct` flag.
fn read_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let doc = Json::parse(line).ok()?;
    let correct = matches!(doc.get("correct")?, Json::Bool(true));
    let Json::Obj(entries) = doc.get("metrics")? else {
        return None;
    };
    let mut out = Vec::new();
    for (name, m) in entries {
        let value = match m.get("value")? {
            Json::Int(i) => *i as f64,
            Json::Float(f) => *f,
            _ => return None,
        };
        out.push((name.clone(), value));
    }
    Some((correct, out))
}

/// The `exact` object of the detail file a child run leaves behind.
fn read_exact(workload: &str, trace: bool) -> BTreeMap<String, i64> {
    let path = Path::new(OUT_DIR).join(format!("run-{workload}-trace{}.json", u8::from(trace)));
    let doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok());
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(entries)) = doc.as_ref().and_then(|d| d.get("exact")) {
        for (k, v) in entries {
            if let Json::Int(i) = v {
                out.insert(k.clone(), *i);
            }
        }
    }
    out
}

pub fn run(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    // (workload, metric) -> one value per set.
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut exact: BTreeMap<(&str, String), i64> = BTreeMap::new();
    let mut ok = true;

    for set in 0..args.repeat {
        for workload in params::WORKLOADS {
            for trace in [false, true] {
                if args.repeat > 1 {
                    println!("-- set {} of {}", set + 1, args.repeat);
                }
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stdout(Stdio::piped());
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let out = match cmd.output() {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("cannot start {workload}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let text = String::from_utf8_lossy(&out.stdout);
                let mut lines: Vec<&str> = text.lines().collect();
                let last = lines.pop().unwrap_or_default();
                for l in &lines {
                    println!("{l}");
                }
                let Some((correct, metrics)) = read_result(last).filter(|_| out.status.success())
                else {
                    eprintln!("{workload} (trace {}) printed no result", u8::from(trace));
                    ok = false;
                    continue;
                };
                if !correct {
                    eprintln!("{workload} (trace {}): WRONG VERDICTS", u8::from(trace));
                    ok = false;
                }
                for (name, v) in metrics {
                    values.entry((workload, name)).or_default().push(v);
                }
                // Exact-repeat counters: identical across run sets too.
                for (k, v) in read_exact(workload, trace) {
                    let first = *exact.entry((workload, k.clone())).or_insert(v);
                    if first != v {
                        eprintln!("{workload}: exact-repeat counter {k} read {first}, then {v}");
                        ok = false;
                    }
                }
            }
        }
    }

    println!();
    println!("== results (seed {}, {} set(s))", args.seed, args.repeat);
    let mut results = Json::obj()
        .set("seed", args.seed)
        .set("sets", args.repeat)
        .set("smoke", args.smoke)
        .set("build_s", args.build_s.map_or(Json::Null, Json::from));
    if let Some(b) = args.build_s {
        println!("build_s {b:.3} s");
    }
    let units = END_TO_END.iter().chain(PER_LAYER.iter());
    for workload in params::WORKLOADS {
        let mut w = Json::obj();
        for (name, unit, _) in units.clone() {
            let Some(v) = values.get(&(workload, name.to_string())) else {
                continue;
            };
            let median = stats::median(v);
            // With four or more sets the spread is the interquartile
            // range over the median, as the benchmark's driver computes
            // it; with fewer, the full range over the median.
            let spread = if v.len() >= 4 {
                stats::iqr_pct(v)
            } else {
                100.0 * (stats::quantile(v, 1.0) - stats::quantile(v, 0.0))
                    / median.abs().max(f64::MIN_POSITIVE)
            };
            let tag = if EXACT.contains(name) {
                " [exact]"
            } else if NOISY.contains(name) {
                " [noisy]"
            } else {
                ""
            };
            if args.repeat > 1 {
                println!("{workload:<15} {name:<42} {median:>16.6} {unit:<6} spread {spread:>6.2} %{tag}");
            } else {
                println!("{workload:<15} {name:<42} {median:>16.6} {unit}{tag}");
            }
            w = w.set(
                name,
                Json::obj()
                    .set("value", median)
                    .set("unit", *unit)
                    .set("spread_pct", spread)
                    .set(
                        "runs",
                        Json::Arr(v.iter().map(|&x| Json::from(x)).collect()),
                    ),
            );
        }
        results = results.set(workload, w);
    }
    let path = Path::new(OUT_DIR).join("results.json");
    if let Err(e) = std::fs::write(&path, results.render_pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        ok = false;
    }
    println!("wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
