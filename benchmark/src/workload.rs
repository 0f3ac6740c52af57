//! What the runner needs from a workload.

use std::collections::BTreeMap;

use crate::spans::{Span, SpanId};

/// Per-layer values by metric name (see `metrics::PER_LAYER`).
pub type Layers = BTreeMap<&'static str, f64>;

/// The outcome of one pass: every subject driven to its verdict.
#[derive(Default)]
pub struct Pass {
    /// Wall seconds of the seeded-bug control, from the call that starts
    /// checking it to that call returning with the bundle on disk.
    pub convict_s: f64,
    /// Wall seconds of each subject, in the order they ran.
    pub subject_s: Vec<(String, f64)>,
    /// Verdicts attempted.
    pub attempted: u64,
    /// One line per verdict that differs from the known answer.
    pub wrong: Vec<String>,
    /// Counters that must repeat exactly, pass after pass and run after
    /// run (reported apart from the timings).
    pub exact: BTreeMap<&'static str, u64>,
    /// Per-layer values read off public report fields during this pass.
    pub layers: Layers,
}

impl Pass {
    pub fn judge(&mut self, subject: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.wrong.push(format!("{subject}: {why}"));
        }
    }
}

pub trait Workload {
    /// Drives every subject to its verdict once. Spans go under `parent`.
    fn pass(&mut self, parent: SpanId) -> Pass;

    /// Traced runs only: calls the public pieces beneath the verdict
    /// path directly on the same inputs, outside the timed pass, and
    /// judges what they return into `pass`.
    fn direct(&mut self, _parent: SpanId, _pass: &mut Pass) {}

    /// Traced runs only: folds one traced pass's spans (the pass and
    /// the direct calls after it) into per-layer values. `layers`
    /// already holds the pass's own layer values and exact counters.
    fn fold(&self, spans: &[Span], layers: &mut Layers);

    /// Traced runs only: micro-probes of single layers. `scale` shortens
    /// them for `--smoke`.
    fn probes(&mut self, scale: f64, layers: &mut Layers);
}
