//! Known-answer oracle: what each subject's verdict must be.
//!
//! Every verdict the benchmark times is judged here, and anything that
//! differs from the known answer counts toward `wrong_verdict_share` —
//! a faster wrong checker must not read as a gain. The execution counts
//! are exact: plain DFS enumerates a fixed tree, and the DPOR tree is the
//! least fixpoint of the backtrack demands, byte-identical at any worker
//! count (see `orc11::DporStats`).

use std::collections::BTreeSet;
use std::path::Path;

use compass::conform::{recheck, ConformEvent};
use compass::soak::SoakReport;
use compass::CheckReport;

/// The expected clause outcome of one subject.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// Every execution (or epoch) satisfies the spec.
    Clean,
    /// Exactly this clause is violated — the seeded-bug control.
    Convict(&'static str),
}

/// Known answer for one model subject under one exploration mode.
#[derive(Clone, Copy, Debug)]
pub struct ModelAnswer {
    /// Executions the exhaustive enumeration performs.
    pub execs: u64,
    /// Executions violating the convicted clause (0 for clean subjects).
    pub violating: u64,
    pub expect: Expect,
}

impl ModelAnswer {
    pub const fn clean(execs: u64) -> Self {
        ModelAnswer {
            execs,
            violating: 0,
            expect: Expect::Clean,
        }
    }

    pub const fn convict(execs: u64, rule: &'static str, violating: u64) -> Self {
        ModelAnswer {
            execs,
            violating,
            expect: Expect::Convict(rule),
        }
    }
}

/// Judges one model verdict. `Err` describes the first difference.
pub fn judge_model(a: &ModelAnswer, r: &CheckReport) -> Result<(), String> {
    if !r.exhausted || r.truncated {
        return Err(format!(
            "not exhausted (exhausted={}, truncated={})",
            r.exhausted, r.truncated
        ));
    }
    if r.model_errors != 0 {
        return Err(format!("{} model errors", r.model_errors));
    }
    if r.execs != a.execs {
        return Err(format!("{} executions, expected {}", r.execs, a.execs));
    }
    let got: BTreeSet<&str> = r.violations.keys().copied().collect();
    match a.expect {
        Expect::Clean => {
            if !got.is_empty() || r.consistent != r.execs {
                return Err(format!(
                    "expected clean, got {:?} ({}/{} consistent)",
                    r.violations, r.consistent, r.execs
                ));
            }
        }
        Expect::Convict(rule) => {
            if got != BTreeSet::from([rule]) {
                return Err(format!("expected exactly {rule}, got {:?}", r.violations));
            }
            if r.violations[rule] != a.violating || r.consistent != r.execs - a.violating {
                return Err(format!(
                    "{} executions violate {rule}, expected {}",
                    r.violations[rule], a.violating
                ));
            }
            let Some(dir) = &r.bundle else {
                return Err("control convicted but no replay bundle was written".into());
            };
            for file in ["bundle.json", "trace.txt", "report.txt"] {
                if !dir.join(file).is_file() {
                    return Err(format!("bundle {} lacks {file}", dir.display()));
                }
            }
        }
    }
    Ok(())
}

/// Known answer for one engine session over a generated stream.
#[derive(Clone, Copy, Debug)]
pub struct SessionAnswer {
    /// Epochs the stream is cut into (all non-empty, so all sealed).
    pub epochs: u64,
    /// Events across all checked slices.
    pub events: u64,
    pub expect: Expect,
}

/// Judges one engine session: the accounting balances with nothing shed,
/// nothing was dropped by the assembler, and the clause outcome is the
/// known one — for the control, down to the bundle re-checking offline
/// to the same clause.
pub fn judge_session<E: ConformEvent>(a: &SessionAnswer, r: &SoakReport) -> Result<(), String> {
    if r.epochs_checked + r.epochs_shed != r.epochs_sealed {
        return Err(format!(
            "unbalanced: {} checked + {} shed != {} sealed",
            r.epochs_checked, r.epochs_shed, r.epochs_sealed
        ));
    }
    if r.epochs_shed != 0 {
        return Err(format!("{} epochs shed", r.epochs_shed));
    }
    if r.epochs_sealed != a.epochs {
        return Err(format!(
            "{} epochs sealed, expected {}",
            r.epochs_sealed, a.epochs
        ));
    }
    if r.events_checked != a.events {
        return Err(format!(
            "{} events checked, expected {}",
            r.events_checked, a.events
        ));
    }
    if r.assembly != Default::default() {
        return Err(format!("assembler dropped ops: {:?}", r.assembly));
    }
    let got: BTreeSet<&str> = r.violations.keys().copied().collect();
    match a.expect {
        Expect::Clean => {
            if !got.is_empty() {
                return Err(format!("expected clean, got {:?}", r.violations));
            }
        }
        Expect::Convict(rule) => {
            if got != BTreeSet::from([rule]) || r.violations[rule] != 1 {
                return Err(format!(
                    "expected exactly one {rule}, got {:?}",
                    r.violations
                ));
            }
            let Some(dir) = &r.bundle else {
                return Err("control convicted but no replay bundle was written".into());
            };
            judge_recheck::<E>(dir, rule)?;
        }
    }
    Ok(())
}

/// The control's bundle must pass `conform::recheck` to the same clause.
pub fn judge_recheck<E: ConformEvent>(dir: &Path, rule: &str) -> Result<(), String> {
    match recheck::<E>(dir) {
        Err(e) => Err(format!("bundle {} does not re-check: {e}", dir.display())),
        Ok((_, Ok(()))) => Err(format!("bundle {} re-checks clean", dir.display())),
        Ok((_, Err(v))) if v.rule != rule => Err(format!(
            "bundle {} re-checks to {}, expected {rule}",
            dir.display(),
            v.rule
        )),
        Ok(_) => Ok(()),
    }
}
