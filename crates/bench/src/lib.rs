//! # compass-bench — experiment regenerators and benchmark workloads
//!
//! One executable per evaluation artefact of the paper (see `DESIGN.md`
//! §4 for the experiment index):
//!
//! | binary | paper artefact |
//! |---|---|
//! | `e1_mp` | Figure 1/3 — Message-Passing client (with ablation) |
//! | `e2_spec_matrix` | Figure 2 — the spec-strength hierarchy, measured |
//! | `e4_hist_stack` | Figure 4 — `LAT_hb^hist` for the Treiber stack |
//! | `e5_elimination` | Figure 5 / §4 — exchanger + elimination stack |
//! | `e6_sizes` | §1.2 — mechanization-size table analogue |
//! | `e7_spsc` | §3.2 — SPSC client |
//! | `e8_litmus` | §2.3/§5 — substrate litmus gallery |
//! | `e11_conform` | runtime conformance: native structures vs. the specs ([`roles`]; DESIGN.md §7) |
//! | `e12_perf` | performance trajectory: latency/throughput curves + explorer speed ([`roles::Subject::perf_bodies`]; DESIGN.md §9) |
//! | `e13_soak` | soak: online streaming conformance at saturation ([`soak`]; DESIGN.md §11) |
//! | `e14_arc_stm` | refcount & TM specs on both rails: model DFS/DPOR + conformance ([`arc_stm`]; DESIGN.md §12) |
//!
//! The native rail states each produce/take library **once**, as roles
//! plus a [`roles::registry`] row; `e11`'s recorded rounds, `e12`'s
//! perf bodies and `e13`'s soak loop are generic drivers over that one
//! description.
//!
//! `e12_perf`'s trajectory documents (`BENCH_<n>.json`, written by
//! `scripts/run_bench.sh`) and their regression comparator
//! (`bench_compare`) live in [`perf`].

#![warn(missing_docs)]

pub mod arc_stm;
pub mod metrics;
pub mod perf;
pub mod roles;
pub mod soak;
pub mod table;
pub mod workloads;
