//! E9 — the Chase-Lev work-stealing deque (the paper's §6 future work),
//! checked on the framework, with the SC-fence ablation.
//!
//! For the correctly fenced deque, every explored execution satisfies
//! `DequeConsistent` and admits a linearization. Replacing the SC fences
//! with acquire-release ones reintroduces the famous double-take bug,
//! which `DEQUE-INJ`/`DEQUE-MATCHES` catch.

use compass::deque_spec::{check_deque_consistent, mutator_subgraph, DequeInterp};
use compass::history::find_linearization;
use compass_bench::metrics::{Metrics, Sessions};
use compass_bench::table::Table;
use compass_structures::clients::{run_client, OWNER_THIEVES};
use compass_structures::deque::ChaseLevDeque;
use orc11::{random_strategy, Config, Json, ThreadCtx};

struct Row {
    consistent: u64,
    hist_ok: u64,
    violations: u64,
    errors: u64,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("consistent", self.consistent)
            .set("hist_ok", self.hist_ok)
            .set("violations", self.violations)
            .set("model_errors", self.errors)
    }
}

fn run(make: impl Fn(&mut ThreadCtx, u32) -> ChaseLevDeque + Sync, seeds: u64) -> Row {
    let mut row = Row {
        consistent: 0,
        hist_ok: 0,
        violations: 0,
        errors: 0,
    };
    for seed in 0..seeds {
        let deque = |ctx: &mut ThreadCtx| make(ctx, 8);
        let out = run_client(
            &Config::default(),
            deque,
            &OWNER_THIEVES,
            random_strategy(seed),
        );
        match out.result {
            Err(_) => row.errors += 1,
            Ok(g) => {
                if check_deque_consistent(&g).is_ok() {
                    row.consistent += 1;
                } else {
                    row.violations += 1;
                }
                if find_linearization(&mutator_subgraph(&g), &DequeInterp, &[]).is_some() {
                    row.hist_ok += 1;
                }
            }
        }
    }
    row
}

fn main() {
    let _sessions = Sessions::from_env();
    let mut m = Metrics::new("e9_deque");
    let phase_mark = orc11::trace::thread_phases();
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2500);
    println!("E9 — Chase-Lev work-stealing deque (§6 future work), {seeds} seeds each\n");
    let mut t = Table::new(&[
        "variant",
        "DequeConsistent",
        "mutators linearizable",
        "violations",
        "model errors",
    ]);
    let strong = run(ChaseLevDeque::new, seeds);
    t.row(&[
        "SC fences (correct)".into(),
        format!("{}/{seeds}", strong.consistent),
        format!("{}/{seeds}", strong.hist_ok),
        strong.violations.to_string(),
        strong.errors.to_string(),
    ]);
    let weak = run(ChaseLevDeque::new_weak_fences, seeds);
    t.row(&[
        "acq-rel fences (ablation)".into(),
        format!("{}/{seeds}", weak.consistent),
        format!("{}/{seeds}", weak.hist_ok),
        weak.violations.to_string(),
        weak.errors.to_string(),
    ]);
    println!("{t}");
    println!(
        "\nExpected shape: the SC-fenced deque is consistent and linearizable on every \
         run; the\nacquire-release ablation exhibits the classic double-take bug \
         (violations > 0) — the checker\ncatches the exact defect the SC fences exist \
         to prevent (Lê et al., PPoPP 2013)."
    );
    m.param("seeds", seeds);
    m.set("sc_fences", strong.to_json());
    m.set("acq_rel_fences", weak.to_json());
    // Serial run: the thread-local phase delta is the run's breakdown.
    m.add_phases(&orc11::trace::thread_phases().delta_since(&phase_mark));
    m.write_or_warn();
}
