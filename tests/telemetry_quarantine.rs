//! Integration: the telemetry bus lives outside the determinism
//! envelope, and its estimator tells the truth at exhaustion.
//!
//! `orc11::telemetry` publishes counters, samples them to JSONL, and
//! serves them over HTTP — and none of that may perturb what the
//! checker computes. These tests pin the whole contract end to end:
//! reports and replay bundles byte-identical with a telemetry session
//! (and the `/metrics` endpoint) on versus off at 1 and 4 threads; the
//! sampler stream structurally valid with estimator samples present;
//! and the state-space estimate exact on exhausted plain-DFS litmus
//! explorations.
//!
//! The telemetry session, the stats endpoint, and the estimate gauges
//! are process-wide, so every test that uses them serializes on
//! [`TELEMETRY_LOCK`].

use std::io::{Read as _, Write as _};
use std::sync::{Mutex, PoisonError};

use compass::checker::{check_executions_with, CheckOptions, Exploration};
use compass::queue_spec::check_queue_consistent;
use compass_repro::structures::buggy::relaxed_ms_queue;
use compass_repro::structures::queue::{ModelQueue, MsQueue};
use orc11::litmus::{gallery, Litmus};
use orc11::{run_model, telemetry, BodyFn, Config, Explorer, Json, Mode, ThreadCtx, Val, WorkSpec};

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The checker report with its wall-clock fields pinned; everything
/// else must be identical with telemetry on or off.
fn normalized(report: &compass::checker::CheckReport) -> String {
    report
        .to_json()
        .set("check_ns", 0u64)
        .set("check_ns_by_rule", Json::obj())
        .set("phase_ns", orc11::PhaseNs::ZERO.to_json())
        .render_pretty()
}

/// Reads every file under `dir` (recursively), as `(relative path,
/// bytes)` sorted by path — the comparable form of a replay bundle.
fn dir_contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("readable bundle dir") {
            let p = entry.expect("dir entry").path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let rel = p
                    .strip_prefix(dir)
                    .expect("path under root")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&p).expect("readable bundle file")));
            }
        }
    }
    out.sort();
    out
}

fn buggy_queue_run(
    threads: usize,
    bundle_root: &std::path::Path,
) -> (String, Vec<(String, Vec<u8>)>) {
    let opts = CheckOptions {
        threads,
        bundle_dir: Some(bundle_root.to_path_buf()),
        ..CheckOptions::default()
    };
    let report = check_executions_with(
        &Exploration::Random {
            iters: 120,
            seed0: 0,
        },
        &opts,
        |strategy| {
            run_model(
                &Config::default(),
                strategy,
                relaxed_ms_queue,
                vec![
                    Box::new(|ctx: &mut ThreadCtx, q: &MsQueue| {
                        q.enqueue(ctx, Val::Int(1));
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, q: &MsQueue| {
                        q.try_dequeue(ctx);
                    }),
                ],
                |_, q, _| q.obj().snapshot(),
            )
        },
        check_queue_consistent,
    );
    let bundle = report.bundle.clone().expect("buggy queue writes a bundle");
    (normalized(&report), dir_contents(&bundle))
}

/// Telemetry must not perturb determinism: with a sampler session AND
/// the `/metrics` endpoint active, the (wall-clock-normalized) checker
/// report and the replay bundle — narrative.txt and flagged graph.dot
/// included — are byte-identical to a telemetry-off run, at 1 and 4
/// threads. An exhausted-DFS exploration report (which embeds the
/// estimate) is compared the same way.
#[test]
fn telemetry_on_and_off_runs_are_byte_identical() {
    let _guard = serialize();
    let tmp = std::env::temp_dir().join(format!("compass-telemetry-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("temp root");

    let sb = |strategy: Box<dyn orc11::Strategy>| {
        run_model(
            &Config::default(),
            strategy,
            |ctx| (ctx.alloc("x", Val::Int(0)), ctx.alloc("y", Val::Int(0))),
            vec![
                Box::new(|ctx: &mut ThreadCtx, &(x, y): &(orc11::Loc, orc11::Loc)| {
                    ctx.write(x, Val::Int(1), Mode::Relaxed);
                    ctx.read(y, Mode::Relaxed).expect_int()
                }) as BodyFn<'_, _, i64>,
                Box::new(|ctx: &mut ThreadCtx, &(x, y): &(orc11::Loc, orc11::Loc)| {
                    ctx.write(y, Val::Int(1), Mode::Relaxed);
                    ctx.read(x, Mode::Relaxed).expect_int()
                }),
            ],
            |_, _, outs| (outs[0], outs[1]),
        )
    };
    let dfs_json = |threads: usize| {
        Explorer::with_threads(threads)
            .explore(&WorkSpec::DfsDpor { budget: 10_000 }, &sb, |_, _| {})
            .to_json()
            .set("phase_ns", orc11::PhaseNs::ZERO.to_json())
            .render()
    };

    for threads in [1usize, 4] {
        let off_root = tmp.join(format!("off-{threads}"));
        let (off_report, off_bundle) = buggy_queue_run(threads, &off_root);
        let off_dfs = dfs_json(threads);

        let stream = tmp.join(format!("telemetry-{threads}.jsonl"));
        telemetry::start(&stream).expect("no other telemetry session active");
        let addr = telemetry::start_stats("127.0.0.1:0").expect("bind stats endpoint");
        let on_root = tmp.join(format!("on-{threads}"));
        let (on_report, on_bundle) = buggy_queue_run(threads, &on_root);
        let on_dfs = dfs_json(threads);
        // Scrape the endpoint mid-session; the response must expose the
        // execution counter the runs just bumped.
        let metrics = http_get(&addr.to_string(), "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("compass_explore_execs"), "{metrics}");
        let summary = telemetry::finish()
            .expect("telemetry file writable")
            .expect("session was active");
        assert!(summary.lines >= 2, "meta + final at minimum");

        assert_eq!(
            off_report, on_report,
            "telemetry changed the report at {threads} threads"
        );
        assert_eq!(
            off_bundle, on_bundle,
            "telemetry changed the replay bundle at {threads} threads"
        );
        assert_eq!(
            off_dfs, on_dfs,
            "telemetry changed the exhausted-DFS report (estimate included) \
             at {threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// One plain HTTP/1.1 GET against the stats endpoint, returning the raw
/// response text.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to stats endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// The sampler stream validates structurally and carries estimator
/// samples once a DFS phase has run; non-GET and unknown paths answer
/// per the exposition contract.
#[test]
fn sampler_stream_validates_with_estimator_samples() {
    let _guard = serialize();
    let tmp = std::env::temp_dir().join(format!(
        "compass-telemetry-stream-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&tmp);
    telemetry::start(&tmp).expect("no other telemetry session active");
    // An exhausted DFS run feeds the estimate gauges; the final sample
    // written by finish() then carries paths > 0 whatever the sampling
    // interval was.
    let report = Explorer::serial().explore(
        &WorkSpec::Dfs { budget: 10_000 },
        &|strategy: Box<dyn orc11::Strategy>| {
            run_model(
                &Config::default(),
                strategy,
                |ctx| ctx.alloc("x", Val::Int(0)),
                vec![
                    Box::new(|ctx: &mut ThreadCtx, &x: &orc11::Loc| {
                        ctx.write(x, Val::Int(1), Mode::Relaxed);
                    }) as BodyFn<'_, _, ()>,
                    Box::new(|ctx: &mut ThreadCtx, &x: &orc11::Loc| {
                        ctx.write(x, Val::Int(2), Mode::Relaxed);
                    }),
                ],
                |_, _, _| (),
            )
        },
        |_, _| {},
    );
    assert!(report.exhausted);
    let summary = telemetry::finish()
        .expect("telemetry file writable")
        .expect("session was active");
    let check = telemetry::validate_telemetry_file(&tmp).expect("stream validates");
    assert_eq!(check.lines as u64, summary.lines);
    assert!(check.samples >= 1, "at least the final sample: {check:?}");
    assert!(
        check.est_samples >= 1,
        "the post-DFS sample must carry estimator paths: {check:?}"
    );
    // Double-start is refused while a session is active; after finish a
    // new session may start.
    telemetry::start(&tmp).expect("session finished, restart allowed");
    telemetry::start(&tmp).expect_err("second concurrent session refused");
    telemetry::finish()
        .expect("second session stops cleanly")
        .expect("was active");
    let _ = std::fs::remove_file(&tmp);
}

/// The exposition endpoint follows its GET-only contract over a real
/// socket: /metrics 200, other paths 404, other methods 405.
#[test]
fn metrics_endpoint_follows_the_http_contract() {
    let _guard = serialize();
    let addr = telemetry::start_stats("127.0.0.1:0")
        .expect("bind stats endpoint")
        .to_string();
    let ok = http_get(&addr, "/metrics");
    assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
    assert!(ok.contains("# TYPE compass_explore_execs gauge"), "{ok}");
    assert!(ok.contains("compass_soak_epochs_sealed"), "{ok}");
    let missing = http_get(&addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /metrics HTTP/1.1\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    telemetry::stop_stats();
    // Idempotent, and a new endpoint can bind afterwards.
    telemetry::stop_stats();
    let again = telemetry::start_stats("127.0.0.1:0").expect("rebind after stop");
    assert_ne!(again.port(), 0);
    telemetry::stop_stats();
}

/// At plain-DFS exhaustion the mass-based estimator is *exact*: every
/// leaf contributed its probability mass, so `est_total_execs` equals
/// the true execution count on every litmus shape — comfortably inside
/// the 2× accuracy budget the estimator promises mid-run. (DPOR runs
/// read as the unpruned tree size — an upper bound — which is why the
/// reports only embed the estimate alongside the `dpor` stats that
/// explain it.)
#[test]
fn estimator_is_exact_on_exhausted_plain_dfs_gallery() {
    let _guard = serialize();
    const BUDGET: u64 = 500_000;
    fn assert_exact<S: Sync + 'static>(t: &Litmus<S>) {
        let r = t.dfs_plain(BUDGET);
        assert!(r.report.exhausted, "{} must exhaust", t.name());
        let est = r
            .report
            .estimate
            .expect("exhausted DFS reports an estimate");
        assert_eq!(
            est.est_total_execs(),
            r.report.execs,
            "{}: estimate must be exact at exhaustion",
            t.name()
        );
        assert_eq!(est.paths, r.report.execs, "{}", t.name());
        assert!(
            est.percent_x1000() >= 99_000,
            "{}: visited mass must read ~100% ({})",
            t.name(),
            est.percent_x1000()
        );
    }
    assert_exact(&gallery::mp_rel_acq());
    assert_exact(&gallery::sb());
    assert_exact(&gallery::corr());
    assert_exact(&gallery::lb());

    // A single-threaded write-only program has exactly one path: the
    // estimate is exact (1) the moment that path completes, and the
    // visited mass is a full 100.0%.
    let single = Litmus::new("single-path", |ctx| ctx.alloc("x", Val::Int(0))).thread(|ctx, &x| {
        ctx.write(x, Val::Int(1), Mode::Relaxed);
        0
    });
    let r = single.dfs_plain(16);
    assert!(r.report.exhausted);
    let est = r.report.estimate.expect("estimate present");
    assert_eq!(r.report.execs, 1);
    assert_eq!(est.est_total_execs(), 1);
    assert_eq!(est.percent_x1000(), 100_000);
    assert_eq!(est.percent_complete(), 100.0);
}
