//! Post-hoc schedule auditing.
//!
//! The simulator's correctness claims (never exceed the machine, never
//! start before release, grant exactly `min(p, p̃)` seconds) are re-checked
//! here from the outcome records alone, independently of the engine's
//! internal book-keeping. The property tests fuzz workloads through every
//! scheduler and assert a clean audit.

use crate::outcome::{JobOutcome, SimResult};

/// A violated invariant found by [`audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// A job started before its submission.
    StartBeforeSubmit {
        /// SWF job number of the offending job.
        swf_id: u64,
    },
    /// A job's recorded span does not equal its granted run time.
    WrongDuration {
        /// SWF job number of the offending job.
        swf_id: u64,
        /// The granted run time the span should equal.
        expected: i64,
        /// The span actually recorded.
        got: i64,
    },
    /// Instantaneous processor usage exceeded the machine size.
    CapacityExceeded {
        /// Instant of the overflow.
        at: i64,
        /// Processors in use at that instant.
        used: u64,
        /// Machine size.
        machine: u32,
    },
    /// A job was granted more than its requested time.
    OverranRequest {
        /// SWF job number of the offending job.
        swf_id: u64,
    },
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditViolation::StartBeforeSubmit { swf_id } => {
                write!(f, "job {swf_id} started before submission")
            }
            AuditViolation::WrongDuration {
                swf_id,
                expected,
                got,
            } => {
                write!(f, "job {swf_id} ran {got}s, expected {expected}s")
            }
            AuditViolation::CapacityExceeded { at, used, machine } => {
                write!(f, "capacity exceeded at t={at}: {used} > {machine}")
            }
            AuditViolation::OverranRequest { swf_id } => {
                write!(f, "job {swf_id} overran its requested time")
            }
        }
    }
}

/// Summary of a clean audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditReport {
    /// Number of jobs checked.
    pub jobs: usize,
    /// Peak simultaneous processor usage observed.
    pub peak_usage: u64,
    /// Peak number of simultaneously running jobs.
    pub peak_running: usize,
}

/// Verifies all schedule invariants of `result`. Returns the first
/// violation found, or a report on success.
pub fn audit(result: &SimResult) -> Result<AuditReport, AuditViolation> {
    audit_outcomes(&result.outcomes, result.machine_size)
}

/// [`audit`] on a raw outcome slice.
fn audit_outcomes(
    outcomes: &[JobOutcome],
    machine_size: u32,
) -> Result<AuditReport, AuditViolation> {
    // Per-job checks.
    for o in outcomes {
        if o.start < o.submit {
            return Err(AuditViolation::StartBeforeSubmit { swf_id: o.swf_id });
        }
        let span = o.end.since(o.start);
        if span != o.run {
            return Err(AuditViolation::WrongDuration {
                swf_id: o.swf_id,
                expected: o.run,
                got: span,
            });
        }
        if o.run > o.requested {
            return Err(AuditViolation::OverranRequest { swf_id: o.swf_id });
        }
    }

    // Capacity sweep: +procs at start, -procs at end; ends processed
    // before starts at equal instants (a freed processor is reusable in
    // the same second, matching the engine's event ordering).
    let mut deltas: Vec<(i64, i8, u32)> = Vec::with_capacity(outcomes.len() * 2);
    for o in outcomes {
        deltas.push((o.start.0, 1, o.procs));
        deltas.push((o.end.0, 0, o.procs));
    }
    deltas.sort_unstable_by_key(|&(t, kind, _)| (t, kind));
    let mut used: u64 = 0;
    let mut running: isize = 0;
    let mut peak_usage: u64 = 0;
    let mut peak_running: usize = 0;
    for (t, kind, procs) in deltas {
        if kind == 0 {
            used -= procs as u64;
            running -= 1;
        } else {
            used += procs as u64;
            running += 1;
            if used > machine_size as u64 {
                return Err(AuditViolation::CapacityExceeded {
                    at: t,
                    used,
                    machine: machine_size,
                });
            }
            peak_usage = peak_usage.max(used);
            peak_running = peak_running.max(running.max(0) as usize);
        }
    }

    Ok(AuditReport {
        jobs: outcomes.len(),
        peak_usage,
        peak_running,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::time::Time;

    fn outcome(id: u32, submit: i64, start: i64, run: i64, procs: u32) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            swf_id: id as u64,
            user: 0,
            procs,
            submit: Time(submit),
            start: Time(start),
            end: Time(start + run),
            run,
            requested: run,
            initial_prediction: run,
            corrections: 0,
            killed: false,
            partition: 0,
        }
    }

    #[test]
    fn clean_schedule_passes() {
        let outcomes = vec![outcome(0, 0, 0, 100, 4), outcome(1, 0, 100, 50, 8)];
        let report = audit_outcomes(&outcomes, 8).unwrap();
        assert_eq!(report.jobs, 2);
        assert_eq!(report.peak_usage, 8);
        assert_eq!(report.peak_running, 1);
    }

    #[test]
    fn detects_start_before_submit() {
        let outcomes = vec![outcome(0, 50, 10, 100, 1)];
        assert!(matches!(
            audit_outcomes(&outcomes, 8),
            Err(AuditViolation::StartBeforeSubmit { swf_id: 0 })
        ));
    }

    #[test]
    fn detects_capacity_overflow() {
        let outcomes = vec![outcome(0, 0, 0, 100, 5), outcome(1, 0, 50, 100, 5)];
        assert!(matches!(
            audit_outcomes(&outcomes, 8),
            Err(AuditViolation::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn back_to_back_jobs_reuse_processors() {
        // Second job starts exactly when the first ends: fine.
        let outcomes = vec![outcome(0, 0, 0, 100, 8), outcome(1, 0, 100, 100, 8)];
        assert!(audit_outcomes(&outcomes, 8).is_ok());
    }

    #[test]
    fn detects_wrong_duration() {
        let mut o = outcome(0, 0, 0, 100, 1);
        o.end = Time(250);
        assert!(matches!(
            audit_outcomes(&[o], 8),
            Err(AuditViolation::WrongDuration { .. })
        ));
    }

    #[test]
    fn detects_overrun_request() {
        let mut o = outcome(0, 0, 0, 100, 1);
        o.requested = 50;
        assert!(matches!(
            audit_outcomes(&[o], 8),
            Err(AuditViolation::OverranRequest { swf_id: 0 })
        ));
    }

    #[test]
    fn empty_schedule_is_clean() {
        let report = audit_outcomes(&[], 8).unwrap();
        assert_eq!(report.jobs, 0);
        assert_eq!(report.peak_usage, 0);
    }
}
