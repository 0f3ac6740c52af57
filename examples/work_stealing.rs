//! Work stealing: the §6 future-work structure, checked and run.
//!
//! ```text
//! cargo run --release --example work_stealing
//! ```
//!
//! Part 1 model-checks the Chase-Lev deque's consistency (and shows that
//! removing the SC fences breaks it). Part 2 uses the native deque to
//! distribute a parallel sum across thieves.

use compass::deque_spec::{check_deque_consistent, mutator_subgraph, DequeInterp};
use compass::history::find_linearization;
use compass_repro::native::{chase_lev, Steal};
use compass_repro::structures::clients::{run_client, OWNER_THIEVES};
use compass_repro::structures::deque::ChaseLevDeque;
use orc11::{pct_strategy, Config, ThreadCtx};

fn check_model(weak: bool, seeds: u64) -> (u64, u64) {
    let mut consistent = 0;
    let mut violations = 0;
    for seed in 0..seeds {
        let make = |ctx: &mut ThreadCtx| {
            if weak {
                ChaseLevDeque::new_weak_fences(ctx, 8)
            } else {
                ChaseLevDeque::new(ctx, 8)
            }
        };
        let out = run_client(
            &Config::default(),
            make,
            &OWNER_THIEVES,
            pct_strategy(seed, 3, 40),
        );
        if let Ok(g) = out.result {
            if check_deque_consistent(&g).is_ok()
                && find_linearization(&mutator_subgraph(&g), &DequeInterp, &[]).is_some()
            {
                consistent += 1;
            } else {
                violations += 1;
            }
        }
    }
    (consistent, violations)
}

fn main() {
    println!("Part 1 — model checking (PCT, 600 schedules each):");
    let (ok, bad) = check_model(false, 600);
    println!("  SC fences:      {ok} consistent, {bad} violations");
    let (ok, bad) = check_model(true, 600);
    println!("  acq-rel fences: {ok} consistent, {bad} violations  ← the classic fence bug");

    println!("\nPart 2 — native work distribution:");
    const TASKS: u64 = 200_000;
    let (worker, stealer) = chase_lev::<u64>(TASKS as usize);
    let start = std::time::Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let s = stealer.clone();
                scope.spawn(move || {
                    let mut sum = 0u64;
                    let mut dry = 0;
                    while dry < 10_000 {
                        match s.steal() {
                            Steal::Stolen(v) => {
                                sum += v;
                                dry = 0;
                            }
                            _ => dry += 1,
                        }
                    }
                    sum
                })
            })
            .collect();
        let mut owner_sum = 0u64;
        for i in 1..=TASKS {
            worker.push(i);
            if i % 4 == 0 {
                if let Some(v) = worker.pop() {
                    owner_sum += v;
                }
            }
        }
        while let Some(v) = worker.pop() {
            owner_sum += v;
        }
        owner_sum + thieves.into_iter().map(|t| t.join().unwrap()).sum::<u64>()
    });
    let expect = TASKS * (TASKS + 1) / 2;
    assert_eq!(total, expect, "work lost or duplicated");
    println!(
        "  {TASKS} tasks summed to {total} (exact) across 1 owner + 3 thieves in {:?}",
        start.elapsed()
    );
}
