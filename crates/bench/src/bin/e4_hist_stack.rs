//! E4 — `LAT_hb^hist` for the Treiber stack (Figure 4, §3.3).
//!
//! Every explored execution of the relaxed Treiber stack must admit a
//! linearization `to` that respects lhb and interprets as a sequential
//! LIFO history. The paper constructs `to` from the modification order of
//! the head CASes; in this framework that order *is* the commit order, so
//! we also report how often the commit order is directly a witness
//! (executions with stale empty-pop reads need the reordering freedom the
//! `to ⊇ lhb` formulation grants).

use compass_bench::metrics::{Metrics, Sessions};
use compass_bench::table::Table;
use compass_bench::workloads::treiber_hist_stats;

fn main() {
    let _sessions = Sessions::from_env();
    let mut m = Metrics::new("e4_hist_stack");
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);
    println!(
        "E4 — linearizable histories for the relaxed Treiber stack (Figure 4), {seeds} seeds\n"
    );
    let s = treiber_hist_stats(0..seeds);
    let mut t = Table::new(&["metric", "count", "of runs"]);
    let row = |t: &mut Table, name: &str, n: u64| {
        t.row(&[name.to_string(), n.to_string(), s.runs.to_string()]);
    };
    row(&mut t, "StackConsistent (LAT_hb)", s.consistent);
    row(&mut t, "linearization exists (LAT_hb^hist)", s.hist_ok);
    row(
        &mut t,
        "commit (mo) order is itself a witness",
        s.commit_order_witness,
    );
    row(&mut t, "runs containing empty pops", s.with_emp_pops);
    row(&mut t, "model errors", s.model_errors);
    println!("{t}");
    println!(
        "\nExpected shape (paper §3.3): both consistency and linearizability hold on \
         100% of runs; the\nraw commit order is a witness for most runs but not those \
         where an empty pop read a stale\nnull head — exactly the reordering \
         (`to ⊇ lhb`, not `to = mo`) the spec permits."
    );
    m.param("seeds", seeds);
    m.add_phases(&s.phase_ns);
    m.add_workers(&s.workers);
    m.set("treiber", s.to_json());
    m.write_or_warn();
}
