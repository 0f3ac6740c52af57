//! E6 — the mechanization-size table of §1.2, reproduced in this
//! artifact's terms.
//!
//! The paper reports: "our library verifications are between 1.5KLOC and
//! 3.0KLOC long, with a median of 2.1KLOC, while our client verifications
//! are between 0.1KLOC and 0.5KLOC long, with a median of 0.2KLOC" (Coq).
//! The analogue here is the size of each library's executable
//! implementation + instrumentation, and of each client program — which
//! shows the same qualitative gap: libraries are an order of magnitude
//! bigger than clients.

use std::path::{Path, PathBuf};

use compass_bench::metrics::{Metrics, Sessions};
use compass_bench::table::Table;
use orc11::Json;

fn loc(path: &Path) -> u64 {
    match std::fs::read_to_string(path) {
        Ok(s) => s
            .lines()
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with("//")
            })
            .count() as u64,
        Err(_) => 0,
    }
}

/// Non-blank, non-comment lines of the items of `path` whose first line
/// starts with one of `items` (at column 0), each through its closing
/// `}` or `};` line.
fn items_loc(path: &Path, items: &[&str]) -> u64 {
    let src = std::fs::read_to_string(path).unwrap_or_default();
    let mut n = 0;
    let mut inside = false;
    for l in src.lines() {
        inside = inside || items.iter().any(|i| l.starts_with(i));
        if inside {
            let t = l.trim();
            if !t.is_empty() && !t.starts_with("//") {
                n += 1;
            }
            inside = !(l == "}" || l == "};");
        }
    }
    n
}

fn repo_root() -> PathBuf {
    // crates/bench → repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives under crates/")
        .to_path_buf()
}

fn main() {
    let _sessions = Sessions::from_env();
    let mut m = Metrics::new("e6_sizes");
    let root = repo_root();
    let f = |rel: &str| loc(&root.join(rel));
    println!("E6 — per-library and per-client sizes (the §1.2 table, in this artifact's terms)\n");

    let libraries = [
        (
            "Michael-Scott queue",
            f("crates/structures/src/queue/ms.rs") + f("crates/compass/src/queue_spec.rs"),
        ),
        (
            "Herlihy-Wing queue",
            f("crates/structures/src/queue/hw.rs") + f("crates/compass/src/queue_spec.rs"),
        ),
        (
            "Treiber stack",
            f("crates/structures/src/stack/treiber.rs")
                + f("crates/compass/src/stack_spec.rs")
                + f("crates/compass/src/history.rs"),
        ),
        (
            "Exchanger",
            f("crates/structures/src/exchanger.rs") + f("crates/compass/src/exchanger_spec.rs"),
        ),
        (
            "Elimination stack",
            f("crates/structures/src/stack/elimination.rs") + f("crates/compass/src/stack_spec.rs"),
        ),
        (
            "Chase-Lev deque (§6 future work)",
            f("crates/structures/src/deque.rs") + f("crates/compass/src/deque_spec.rs"),
        ),
        (
            "SPSC ring (Cosmo's subject)",
            f("crates/structures/src/queue/spsc.rs") + f("crates/compass/src/queue_spec.rs"),
        ),
        ("Spinlock", f("crates/structures/src/lock.rs")),
    ];
    // Each client from its own definition: the program, its result and
    // its postcondition check.
    let clients_rs = root.join("crates/structures/src/clients.rs");
    let clients = [
        (
            "MP client (Fig. 1/3)",
            items_loc(
                &clients_rs,
                &[
                    "pub const MP:",
                    "pub const MP_RELAXED_FLAG:",
                    "pub struct MpResult",
                    "pub fn run_mp",
                    "pub fn check_mp",
                ],
            ),
        ),
        (
            "SPSC client (§3.2)",
            items_loc(
                &clients_rs,
                &[
                    "pub struct SpscResult",
                    "pub fn run_spsc",
                    "pub fn check_spsc",
                ],
            ),
        ),
    ];

    let mut t = Table::new(&[
        "artifact",
        "kind",
        "LoC (impl + checkers)",
        "paper (Coq proof)",
    ]);
    for (name, n) in &libraries {
        t.row(&[
            name.to_string(),
            "library".to_string(),
            n.to_string(),
            "1.5–3.0 KLOC".to_string(),
        ]);
    }
    for (name, n) in &clients {
        t.row(&[
            name.to_string(),
            "client".to_string(),
            n.to_string(),
            "0.1–0.5 KLOC".to_string(),
        ]);
    }
    println!("{t}");

    let mut lib_sizes: Vec<u64> = libraries.iter().map(|&(_, n)| n).collect();
    lib_sizes.sort_unstable();
    let median = lib_sizes[lib_sizes.len() / 2];
    println!(
        "\nLibrary sizes: {}–{} LoC, median {} (paper: 1.5–3.0 KLOC, median 2.1 KLOC).",
        lib_sizes.first().unwrap(),
        lib_sizes.last().unwrap(),
        median
    );
    println!(
        "Shape preserved: libraries cost roughly an order of magnitude more than \
         clients, and checking\n(this artifact) costs roughly an order of magnitude \
         less than proving (the paper's Coq)."
    );

    // Whole-repo inventory, for EXPERIMENTS.md.
    let mut t2 = Table::new(&["crate", "LoC (non-blank, non-comment)"]);
    let mut crate_loc = Json::obj();
    for c in ["orc11", "compass", "structures", "native", "bench"] {
        let dir = root.join("crates").join(c).join("src");
        let mut total = 0;
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            if let Ok(rd) = std::fs::read_dir(&d) {
                for e in rd.flatten() {
                    let p = e.path();
                    if p.is_dir() {
                        stack.push(p);
                    } else if p.extension().is_some_and(|x| x == "rs") {
                        total += loc(&p);
                    }
                }
            }
        }
        t2.row(&[format!("crates/{c}"), total.to_string()]);
        crate_loc = crate_loc.set(c, total);
    }
    println!("\n{t2}");

    let to_obj = |entries: &[(&str, u64)]| {
        entries
            .iter()
            .fold(Json::obj(), |j, &(name, n)| j.set(name, n))
    };
    m.set("libraries_loc", to_obj(&libraries));
    m.set("clients_loc", to_obj(&clients));
    m.set("library_median_loc", median);
    m.set("crates_loc", crate_loc);
    m.write_or_warn();
}
