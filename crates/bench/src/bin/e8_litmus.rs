//! E8 — litmus gallery validating the ORC11-style substrate (§2.3/§5).
//!
//! Exhaustively explores the classic shapes and prints outcome
//! histograms, asserting allowed outcomes appear and forbidden ones never
//! do. Every test runs twice — plain DFS and DPOR-pruned DFS — and the
//! two must agree on the outcome set; the final table shows how many
//! executions the partial-order reduction saved on each shape.

use compass_bench::metrics::{Metrics, Sessions};
use orc11::litmus::{gallery, Litmus, LitmusReport};
use orc11::Json;

/// One gallery entry explored both ways, outcome sets already checked
/// equal.
struct Row {
    name: String,
    plain: LitmusReport,
    dpor: LitmusReport,
}

impl Row {
    /// Runs `t` under plain and DPOR DFS; the reduction is only
    /// meaningful (and the comparison only fair) if both exhaust.
    fn run<S: Sync + 'static>(t: &Litmus<S>, budget: u64) -> Row {
        let plain = t.dfs_plain(budget);
        let dpor = t.dfs_dpor(budget);
        assert!(
            plain.report.exhausted && dpor.report.exhausted,
            "{}: both explorations must exhaust within budget {budget}",
            t.name()
        );
        let plain_keys: Vec<_> = plain.histogram.keys().collect();
        let dpor_keys: Vec<_> = dpor.histogram.keys().collect();
        assert_eq!(
            plain_keys,
            dpor_keys,
            "{}: DPOR changed the outcome set",
            t.name()
        );
        Row {
            name: t.name().to_string(),
            plain,
            dpor,
        }
    }

    fn to_json(&self) -> Json {
        let histogram = self
            .plain
            .histogram
            .iter()
            .fold(Json::arr(), |j, (outcome, count)| {
                j.push(
                    Json::obj()
                        .set("outcome", outcome.clone())
                        .set("count", *count),
                )
            });
        let stats = self.dpor.report.dpor.as_ref().expect("DPOR run has stats");
        Json::obj()
            .set("histogram", histogram)
            .set("plain_execs", self.plain.report.execs)
            .set("dpor_execs", self.dpor.report.execs)
            .set("dpor_backtrack_points", stats.backtrack_points)
            .set("dpor_sleep_hits", stats.sleep_hits)
            .set("dpor_pruned_subtrees", stats.pruned_subtrees)
            .set("report", self.plain.report.to_json())
    }
}

fn main() {
    let _sessions = Sessions::from_env();
    let mut m = Metrics::new("e8_litmus");
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500_000);

    println!("E8 — litmus gallery (exhaustive DFS, budget {budget} executions per test)\n");
    let mut rows: Vec<Row> = Vec::new();
    let mut tests = Json::obj();
    let add = |rows: &mut Vec<Row>, tests: &mut Json, row: Row| {
        let t = std::mem::replace(tests, Json::Null);
        *tests = t.set(row.name.as_str(), row.to_json());
        rows.push(row);
    };

    let mp = Row::run(&gallery::mp_rel_acq(), budget);
    mp.plain.assert_never(&[0, 0]);
    mp.plain.assert_observable(&[0, 1]);
    println!("{}  ⇒ stale read FORBIDDEN (release/acquire) ✓\n", mp.plain);
    add(&mut rows, &mut tests, mp);

    let mpr = Row::run(&gallery::mp_relaxed(), budget);
    mpr.plain.assert_observable(&[0, 0]);
    println!("{}  ⇒ stale read ALLOWED (relaxed flag) ✓\n", mpr.plain);
    add(&mut rows, &mut tests, mpr);

    let mpf = Row::run(&gallery::mp_fences(), budget);
    mpf.plain.assert_never(&[0, 0]);
    println!("{}  ⇒ stale read FORBIDDEN (rel/acq fences) ✓\n", mpf.plain);
    add(&mut rows, &mut tests, mpf);

    let sb = Row::run(&gallery::sb(), budget);
    sb.plain.assert_observable(&[0, 0]);
    println!("{}  ⇒ store buffering ALLOWED ✓\n", sb.plain);
    add(&mut rows, &mut tests, sb);

    let sbf = Row::run(&gallery::sb_sc_fences(), budget);
    sbf.plain.assert_never(&[0, 0]);
    println!("{}  ⇒ store buffering FORBIDDEN (SC fences) ✓\n", sbf.plain);
    add(&mut rows, &mut tests, sbf);

    let corr = Row::run(&gallery::corr(), budget);
    corr.plain.report.assert_all_ok();
    println!("{}  ⇒ coherence respected ✓\n", corr.plain);
    add(&mut rows, &mut tests, corr);

    let iriw = Row::run(&gallery::iriw_acq(), budget);
    iriw.plain.assert_observable(&[0, 0, 10, 10]);
    println!(
        "{}  ⇒ IRIW disagreement ALLOWED under acquire reads (RC11, unlike SC) ✓\n",
        iriw.plain
    );
    add(&mut rows, &mut tests, iriw);

    let lb = Row::run(&gallery::lb(), budget);
    lb.plain.assert_never(&[1, 1]);
    println!(
        "{}  ⇒ load buffering FORBIDDEN (po ∪ rf acyclic, the ORC11 restriction) ✓\n",
        lb.plain
    );
    add(&mut rows, &mut tests, lb);

    let ttw = Row::run(&gallery::two_plus_two_w(), budget);
    assert!(!ttw.plain.observed(&[0, 0, 1, 1]));
    println!(
        "{}  ⇒ 2+2W weak outcome absent (append-only mo — documented model limitation) ✓\n",
        ttw.plain
    );
    add(&mut rows, &mut tests, ttw);

    let cowr = Row::run(&gallery::cowr(), budget);
    cowr.plain.assert_never(&[0, 0]);
    println!("{}  ⇒ coherence write-read ✓\n", cowr.plain);
    add(&mut rows, &mut tests, cowr);

    let rs = Row::run(&gallery::release_sequence(), budget);
    rs.plain.assert_never(&[0, 0, 0]);
    println!("{}  ⇒ release sequences through relaxed RMWs ✓\n", rs.plain);
    add(&mut rows, &mut tests, rs);

    let rmw = Row::run(&gallery::rmw_atomicity(), budget);
    for outcome in rmw.plain.histogram.keys() {
        assert_ne!(outcome.as_slice(), &[1, 1], "RMWs must not duplicate");
    }
    println!("{}  ⇒ RMW atomicity ✓\n", rmw.plain);
    add(&mut rows, &mut tests, rmw);

    println!("Partial-order reduction (identical outcome sets, fewer executions):\n");
    println!(
        "  {:<18} {:>10} {:>10} {:>9}",
        "test", "plain DFS", "DPOR DFS", "reduction"
    );
    for row in &rows {
        let (p, d) = (row.plain.report.execs, row.dpor.report.execs);
        println!(
            "  {:<18} {:>10} {:>10} {:>8.2}x",
            row.name,
            p,
            d,
            p as f64 / d as f64
        );
    }

    for row in &rows {
        m.add_phases(&row.plain.report.phase_ns);
        m.add_phases(&row.dpor.report.phase_ns);
        m.add_workers(&row.plain.report.workers);
        m.add_workers(&row.dpor.report.workers);
        m.add_reuse(&row.plain.report.reuse);
        m.add_reuse(&row.dpor.report.reuse);
    }
    m.param("budget", budget);
    m.set("tests", tests);
    m.write_or_warn();
}
