//! Guard rails: a product call that runs away is a wrong verdict, not a
//! hang or an OOM kill.
//!
//! The conform checks have an exponential tail (one 4-thread x 192-event
//! slice exhausted 4 GB during sizing), and a refactor of the explorer
//! could in principle stop terminating. A watchdog thread therefore
//! polls two limits while the benchmark runs: the time the current
//! product call has been in flight, and the process's resident set. On
//! either trip it reports the workload as failed through the callback
//! installed by `main` and ends the process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::spans;

/// Longest a single call into a product crate may take.
pub const MAX_CALL_S: f64 = 30.0;
/// Resident-set ceiling.
pub const MAX_RSS_MB: f64 = 2048.0;

/// Start (recorder clock, ns) of the product call in flight; 0 = none.
static CALL_START: AtomicU64 = AtomicU64::new(0);

/// Runs one call into a product crate under the time limit.
pub fn call<R>(f: impl FnOnce() -> R) -> R {
    CALL_START.store(spans::now_ns().max(1), Ordering::Relaxed);
    let r = f();
    CALL_START.store(0, Ordering::Relaxed);
    r
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Starts the watchdog. `on_trip` receives the reason, must report the
/// run as failed, and the process exits right after it returns. The
/// thread is never joined: it watches until the process ends.
pub fn install(on_trip: impl Fn(&str) + Send + 'static) {
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(100));
        let start = CALL_START.load(Ordering::Relaxed);
        let in_flight = if start == 0 {
            0.0
        } else {
            spans::now_ns().saturating_sub(start) as f64 / 1e9
        };
        let rss = status_mb("VmRSS:");
        let reason = if in_flight > MAX_CALL_S {
            format!("a product call has been running for {in_flight:.1} s (limit {MAX_CALL_S} s)")
        } else if rss > MAX_RSS_MB {
            format!("resident set {rss:.0} MiB exceeds {MAX_RSS_MB} MiB")
        } else {
            continue;
        };
        on_trip(&reason);
        std::process::exit(0);
    });
}
