//! E5 — the exchanger and the compositional elimination stack
//! (Figure 5, §4).
//!
//! Checks, over explored executions: the exchanger's consistency
//! (symmetric so, value crossover, atomic helping pairs); the elimination
//! stack's `StackConsistent` built compositionally from the base stack's
//! and exchanger's events; and that eliminations actually occur.

use compass_bench::metrics::{Metrics, Sessions};
use compass_bench::table::Table;
use compass_bench::workloads::elim_stats;
use orc11::Json;

fn main() {
    let _sessions = Sessions::from_env();
    let mut m = Metrics::new("e5_elimination");
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    println!("E5 — exchanger + elimination stack (Figure 5 / §4), {seeds} seeds\n");
    let mut by_patience = Json::arr();
    for patience in [1, 3, 6] {
        let s = elim_stats(0..seeds, patience);
        m.add_phases(&s.phase_ns);
        m.add_workers(&s.workers);
        by_patience = by_patience.push(
            Json::obj()
                .set("patience", u64::from(patience))
                .set("stats", s.to_json()),
        );
        let mut t = Table::new(&[&format!("patience = {patience}"), "count", "of runs"]);
        let row = |t: &mut Table, name: &str, n: u64| {
            t.row(&[name.to_string(), n.to_string(), s.runs.to_string()]);
        };
        row(&mut t, "ES StackConsistent", s.es_consistent);
        row(&mut t, "ES linearizable (LAT_hb^hist)", s.es_hist_ok);
        row(&mut t, "base stack StackConsistent", s.base_consistent);
        row(&mut t, "exchanger ExchangerConsistent", s.ex_consistent);
        row(&mut t, "model errors", s.model_errors);
        t.row(&[
            "eliminated pairs (total)".to_string(),
            s.eliminations.to_string(),
            String::new(),
        ]);
        t.row(&[
            "successful exchanges (total)".to_string(),
            s.exchanges.to_string(),
            String::new(),
        ]);
        println!("{t}\n");
    }
    println!(
        "Expected shape (paper §4): all consistency rows = 100% of runs at every \
         patience; eliminated\npairs grow with patience (more time in the exchanger \
         ⇒ more matches); each eliminated pair is\ntwo successful exchanges committed \
         atomically together."
    );
    m.param("seeds", seeds);
    m.set("by_patience", by_patience);
    m.write_or_warn();
}
