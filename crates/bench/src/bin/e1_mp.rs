//! E1 — the Message-Passing client of Figure 1/3.
//!
//! Reproduces: with a release flag write, the flag-synchronized dequeuer
//! returns 41 or 42, never empty (paper: "return 41 or 42, not empty");
//! queue consistency holds throughout. Ablation: a relaxed flag write
//! makes empty a consistent outcome — the guarantee comes from combining
//! QUEUE-EMPDEQ with the client's external synchronization.

use compass_bench::metrics::{Metrics, Sessions};
use compass_bench::table::Table;
use compass_structures::clients::{check_mp, run_mp};
use compass_structures::queue::{HwQueue, MsQueue};
use orc11::{sync::Mutex, Explorer, Json, Val, WorkSpec};

#[derive(Default)]
struct Tally {
    v41: u64,
    v42: u64,
    empty: u64,
    violations: u64,
    errors: u64,
}

fn tally<Q: compass_structures::queue::ModelQueue>(
    make: impl Fn(&mut orc11::ThreadCtx) -> Q + Copy + Send + Sync,
    release_flag: bool,
    seeds: u64,
) -> (Tally, orc11::ExploreReport) {
    let tl = Mutex::new(Tally::default());
    let report = Explorer::default().explore(
        &WorkSpec::Random {
            iters: seeds,
            seed0: 0,
        },
        &|strategy| run_mp(make, release_flag, strategy),
        |_, out| {
            let mut tl = tl.lock();
            match &out.result {
                Err(_) => tl.errors += 1,
                Ok(res) => {
                    match res.right_value {
                        Some(Val::Int(41)) => tl.v41 += 1,
                        Some(Val::Int(42)) => tl.v42 += 1,
                        Some(_) => tl.violations += 1,
                        None => tl.empty += 1,
                    }
                    if check_mp(res, release_flag).is_err() {
                        tl.violations += 1;
                    }
                }
            }
        },
    );
    (tl.into_inner(), report)
}

fn main() {
    let _sessions = Sessions::from_env();
    let mut m = Metrics::new("e1_mp");
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);
    println!("E1 — Message-Passing client of queues (Figure 1/3), {seeds} seeds each\n");
    let mut t = Table::new(&[
        "queue",
        "flag write",
        "got 41",
        "got 42",
        "empty",
        "violations",
        "model errors",
    ]);
    let mut rows = Json::arr();
    let mut add = |t: &mut Table, name: &str, release_flag: bool, tl: Tally| {
        let flag = if release_flag {
            "release"
        } else {
            "relaxed (ablation)"
        };
        t.row(&[
            name.to_string(),
            flag.to_string(),
            tl.v41.to_string(),
            tl.v42.to_string(),
            tl.empty.to_string(),
            tl.violations.to_string(),
            tl.errors.to_string(),
        ]);
        let row = Json::obj()
            .set("queue", name)
            .set(
                "flag_write",
                if release_flag { "release" } else { "relaxed" },
            )
            .set("got_41", tl.v41)
            .set("got_42", tl.v42)
            .set("empty", tl.empty)
            .set("violations", tl.violations)
            .set("model_errors", tl.errors);
        let r = std::mem::replace(&mut rows, Json::Null);
        rows = r.push(row);
    };
    for release in [true, false] {
        let (tl, report) = tally(MsQueue::new, release, seeds);
        m.add_phases(&report.phase_ns);
        m.add_workers(&report.workers);
        add(&mut t, "Michael-Scott (rel/acq)", release, tl);
    }
    for release in [true, false] {
        let (tl, report) = tally(|ctx| HwQueue::new(ctx, 4), release, seeds);
        m.add_phases(&report.phase_ns);
        m.add_workers(&report.workers);
        add(&mut t, "Herlihy-Wing (relaxed)", release, tl);
    }
    println!("{t}");
    println!(
        "\nExpected shape (paper): with the release flag, `empty` and `violations` \
         are 0 — the right-most\nthread always gets 41 or 42. With the relaxed-flag \
         ablation, `empty` appears but `violations`\nstays 0: the outcome is allowed \
         once the external synchronization is gone."
    );
    m.param("seeds", seeds);
    m.set("configurations", rows);
    m.write_or_warn();
}
