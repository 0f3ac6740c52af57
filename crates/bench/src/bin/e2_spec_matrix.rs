//! E2 — the spec-strength hierarchy of Figure 2, measured.
//!
//! For each queue implementation × spec style, the percentage of explored
//! executions whose event graph satisfies that style:
//!
//! * `LAT_hb`   — QueueConsistent (graph-only, §3.2),
//! * `LAT_so`   — so ⊆ lhb (the Cosmo-style view transfer, §2.3),
//! * `LAT_abs`  — the commit order replays sequentially (§3.1),
//! * `LAT_hist` — some linearization `to ⊇ lhb` exists (§3.3).
//!
//! Expected shape: the Michael-Scott queue (release/acquire) satisfies
//! everything; the relaxed Herlihy-Wing queue satisfies the graph styles
//! but *not* always `LAT_abs` (the paper's reason for introducing
//! `LAT_hb`, §3.2); the deliberately weakened variants fall off the
//! hierarchy.

use compass_bench::metrics::Metrics;
use compass_bench::table::Table;
use compass_bench::workloads::queue_spec_stats;
use compass_structures::buggy::{relaxed_hw_queue, relaxed_ms_queue};
use compass_structures::queue::{HwQueue, LockQueue, MsQueue};
use orc11::Json;

fn main() {
    orc11::trace::init_from_env();
    let mut m = Metrics::new("e2_spec_matrix");
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    println!("E2 — spec-style satisfaction matrix (Figure 2 hierarchy), {seeds} seeds each\n");
    let mut t = Table::new(&[
        "implementation",
        "LAT_hb",
        "LAT_so",
        "LAT_hb^abs",
        "LAT_hb^hist",
        "model errors",
    ]);
    let mut matrix = Json::obj();
    let mut phases = orc11::PhaseNs::ZERO;
    let mut workers: Vec<orc11::WorkerStats> = Vec::new();
    let mut add = |name: &str, s: compass_bench::workloads::QueueSpecStats| {
        let [hb, so, abs, hist] = s.percentages();
        t.row(&[
            name.to_string(),
            hb,
            so,
            abs,
            hist,
            s.model_errors.to_string(),
        ]);
        phases.merge(&s.phase_ns);
        if workers.len() < s.workers.len() {
            workers.resize(s.workers.len(), orc11::WorkerStats::default());
        }
        for (mine, theirs) in workers.iter_mut().zip(&s.workers) {
            mine.merge(theirs);
        }
        let m = std::mem::replace(&mut matrix, Json::Null);
        matrix = m.set(name, s.to_json());
    };
    add(
        "coarse-grained (lock)",
        queue_spec_stats(LockQueue::new, 0..seeds),
    );
    add(
        "Michael-Scott (rel/acq)",
        queue_spec_stats(MsQueue::new, 0..seeds),
    );
    add(
        "Herlihy-Wing (relaxed)",
        queue_spec_stats(|ctx| HwQueue::new(ctx, 8), 0..seeds),
    );
    add(
        "buggy: MS all-relaxed",
        queue_spec_stats(relaxed_ms_queue, 0..seeds),
    );
    add(
        "buggy: HW relaxed tail",
        queue_spec_stats(|ctx| relaxed_hw_queue(ctx, 8), 0..seeds),
    );
    println!("{t}");
    println!(
        "\nExpected shape (paper §3.1–3.2): MS = 100% everywhere; HW = 100% on the \
         graph styles but < 100%\non LAT_hb^abs (constructing the abstract state at \
         commit points needs reordering the paper avoids\nby weakening to LAT_hb); \
         the buggy variants drop below 100% on LAT_hb / LAT_so."
    );
    m.param("seeds", seeds);
    m.set("implementations", matrix);
    m.add_phases(&phases);
    m.add_workers(&workers);
    m.write_or_warn();
    orc11::trace::finish_or_warn();
}
