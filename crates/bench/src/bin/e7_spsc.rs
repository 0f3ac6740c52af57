//! E7 — the single-producer single-consumer client of §3.2.
//!
//! The producer enqueues `a_p[0..n]` in order; the consumer dequeues `n`
//! elements into `a_c[0..n]`. End-to-end FIFO means the arrays are equal
//! at the end — in the paper this is derived from the `LAT_hb` queue
//! specs by building an SPSC protocol; here it is checked over explored
//! executions (together with `QueueConsistent`).

use compass_bench::metrics::{Metrics, Sessions};
use compass_bench::table::Table;
use compass_structures::clients::{check_spsc, run_spsc};
use orc11::{random_strategy, Json};

fn main() {
    let _sessions = Sessions::from_env();
    let mut m = Metrics::new("e7_spsc");
    let phase_mark = orc11::trace::thread_phases();
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    println!("E7 — SPSC client (§3.2), {seeds} seeds per size\n");
    let mut t = Table::new(&[
        "n",
        "runs",
        "array mismatches",
        "spec violations",
        "model errors",
    ]);
    let mut by_size = Json::arr();
    for n in [1usize, 2, 4, 8, 16] {
        let mut mismatches = 0u64;
        let mut violations = 0u64;
        let mut errors = 0u64;
        for seed in 0..seeds {
            match run_spsc(n, random_strategy(seed)).result {
                Err(_) => errors += 1,
                Ok(res) => {
                    if let Err(e) = check_spsc(&res, n) {
                        if e.contains("inconsistent") {
                            violations += 1;
                        } else {
                            mismatches += 1;
                        }
                    }
                }
            }
        }
        t.row(&[
            n.to_string(),
            seeds.to_string(),
            mismatches.to_string(),
            violations.to_string(),
            errors.to_string(),
        ]);
        by_size = by_size.push(
            Json::obj()
                .set("n", n)
                .set("runs", seeds)
                .set("mismatches", mismatches)
                .set("violations", violations)
                .set("model_errors", errors),
        );
    }
    println!("{t}");
    println!("\nExpected shape (paper §3.2): all failure columns are 0 at every size.");
    m.param("seeds", seeds);
    m.set("by_size", by_size);
    // The whole run is serial on this thread, so the thread-local phase
    // delta is exactly the run's breakdown.
    m.add_phases(&orc11::trace::thread_phases().delta_since(&phase_mark));
    m.write_or_warn();
}
