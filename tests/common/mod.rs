//! Helpers shared by the determinism tests.

#![allow(dead_code)]

use std::path::Path;

use compass::checker::{check_executions_with, CheckOptions, CheckReport, Exploration};
use compass::queue_spec::check_queue_consistent;
use compass_repro::structures::buggy::relaxed_ms_queue;
use compass_repro::structures::clients::{run_client, ENQ_DEQ};
use orc11::{Config, Json};

/// The checker report with its wall-clock fields pinned (`check_ns`,
/// `check_ns_by_rule`, and the per-phase `phase_ns` breakdown);
/// everything else — violation counts, per-clause attribution, samples,
/// search stats, coverage — must be reproducible.
pub fn normalized(report: &CheckReport) -> String {
    report
        .to_json()
        .set("check_ns", 0u64)
        .set("check_ns_by_rule", Json::obj())
        .set("phase_ns", orc11::PhaseNs::ZERO.to_json())
        .render_pretty()
}

/// Reads every file under `dir` (recursively), as `(relative path,
/// bytes)` sorted by path — the comparable form of a replay bundle.
pub fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
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

/// The seeded random schedules of the with/without bundle comparisons.
pub const SEEDED: Exploration = Exploration::Random {
    iters: 120,
    seed0: 0,
};

/// Checks `enq 1 ∥ deq` on the all-relaxed Michael-Scott queue under
/// `exploration` at `threads` workers; returns the normalized report and,
/// with a bundle root, the files of the bundle written under it.
pub fn relaxed_queue_run(
    exploration: &Exploration,
    threads: usize,
    bundle_root: Option<&Path>,
) -> (String, Vec<(String, Vec<u8>)>) {
    let opts = CheckOptions {
        threads,
        bundle_dir: bundle_root.map(Path::to_path_buf),
        ..CheckOptions::default()
    };
    let report = check_executions_with(
        exploration,
        &opts,
        |strategy| run_client(&Config::default(), relaxed_ms_queue, &ENQ_DEQ, strategy),
        check_queue_consistent,
    );
    let bundle = match bundle_root {
        Some(_) => dir_contents(&report.bundle.clone().expect("buggy queue writes a bundle")),
        None => Vec::new(),
    };
    (normalized(&report), bundle)
}
