//! Jobs as the simulator sees them (§2.3 of the paper).
//!
//! A job `j` is described by its submission date `r_j`, resource
//! requirement `q_j`, actual running time `p_j` (known only a posteriori),
//! and requested running time `p̃_j` (the user's upper bound, after which
//! the job is killed). The user id links the job to the per-user history
//! features of Table 2.

use predictsim_swf::SwfRecord;

use crate::time::Time;

/// Dense job identifier: the index of the job in the simulation's job
/// vector. Distinct from the (sparse, 1-based) SWF job number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// The index as `usize` for vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// A rigid parallel job (§2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Dense simulation id.
    pub id: JobId,
    /// Submission (release) date `r_j`.
    pub submit: Time,
    /// Actual running time `p_j`, seconds (> 0).
    pub run: i64,
    /// Requested running time `p̃_j`, seconds — the kill bound (≥ 1).
    pub requested: i64,
    /// Resource requirement `q_j` (processor count, ≥ 1).
    pub procs: u32,
    /// Submitting user, for the per-user features of Table 2.
    ///
    /// This is the *raw* id from the source trace (SWF user id + 1, a
    /// hash for cloud traces, …) — arbitrary and possibly sparse. It is
    /// what appears in outcomes and SWF round trips.
    pub user: u32,
    /// Dense interned user index in `0..U`, assigned once at load time
    /// by [`intern_users`] in first-appearance order. Every per-event
    /// user lookup (running index, prediction histories) indexes flat
    /// slabs with this, never hashing `user`.
    pub user_ix: u32,
    /// Original SWF job number, for traceability back to the log.
    pub swf_id: u64,
}

impl Job {
    /// The running time the platform will actually grant: `min(p, p̃)` —
    /// jobs exceeding their request are killed at the request (§2.1).
    #[inline]
    pub fn granted_run(&self) -> i64 {
        self.run.min(self.requested)
    }

    /// Job *area* `p · q`, the quantity the Table 3 weighting factors and
    /// the E-Loss weight are built from.
    #[inline]
    pub fn area(&self) -> f64 {
        self.run as f64 * self.procs as f64
    }

    /// Validates the structural invariants the engine relies on.
    pub fn validate(&self) -> Result<(), String> {
        if self.run <= 0 {
            return Err(format!("{}: non-positive run time {}", self.id, self.run));
        }
        if self.requested <= 0 {
            return Err(format!(
                "{}: non-positive requested time {}",
                self.id, self.requested
            ));
        }
        if self.procs == 0 {
            return Err(format!("{}: zero processors", self.id));
        }
        Ok(())
    }
}

/// Error converting an SWF record into a [`Job`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobConversionError {
    /// The SWF job number of the offending record.
    pub swf_id: u64,
    /// What was missing or invalid.
    pub reason: String,
}

impl std::fmt::Display for JobConversionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF job {}: {}", self.swf_id, self.reason)
    }
}

impl std::error::Error for JobConversionError {}

/// Converts a cleaned SWF record into a simulator job with dense id `id`.
///
/// Requires the record to be runnable (positive run time and processor
/// count — the loader, `predictsim_experiments::SwfSource`,
/// drops the rest); a missing requested time falls back to the run time,
/// and a missing user id maps to a synthetic "unknown" user 0 shared by
/// all such records. A processor count or user id the engine's `u32`s
/// cannot hold is an error, never a wrapped or aliased value.
pub fn job_from_swf(id: JobId, r: &SwfRecord) -> Result<Job, JobConversionError> {
    let run = r.run_time_opt().ok_or_else(|| JobConversionError {
        swf_id: r.job_id,
        reason: "missing run time".into(),
    })?;
    let procs = r.effective_procs().ok_or_else(|| JobConversionError {
        swf_id: r.job_id,
        reason: "missing processor count".into(),
    })?;
    let procs = u32::try_from(procs).map_err(|_| JobConversionError {
        swf_id: r.job_id,
        reason: format!("processor count {procs} exceeds the engine's u32"),
    })?;
    let user = swf_user(r)?;
    let requested = r.effective_requested_time().unwrap_or(run).max(run);
    Ok(Job {
        id,
        submit: Time(r.submit_time),
        run,
        requested,
        procs,
        user,
        user_ix: 0, // assigned by `intern_users` once the full set is known
        swf_id: r.job_id,
    })
}

/// The engine's raw user id for an SWF record: the SWF user id + 1, so
/// that 0 stays the shared "unknown" user of records without one. An id
/// whose shifted value does not fit a `u32` is an error — it would
/// otherwise alias another user's history.
pub fn swf_user(r: &SwfRecord) -> Result<u32, JobConversionError> {
    match r.user_id_opt() {
        None => Ok(0),
        Some(u) => (u32::try_from(u).ok())
            .and_then(|u| u.checked_add(1))
            .ok_or_else(|| JobConversionError {
                swf_id: r.job_id,
                reason: format!("user id {u} exceeds the engine's u32"),
            }),
    }
}

/// Interns the (arbitrary, possibly sparse) raw `user` ids of `jobs`
/// into dense `user_ix` indices `0..U`, assigned in first-appearance
/// order, and returns `U` (the number of distinct users).
///
/// Every workload loader calls this exactly once after the final job
/// order is fixed, so equal job sequences always get equal interned
/// indices regardless of which source produced them.
pub fn intern_users(jobs: &mut [Job]) -> u32 {
    let mut interned = std::collections::HashMap::<u32, u32>::with_capacity(1024);
    for job in jobs.iter_mut() {
        let next = interned.len() as u32;
        job.user_ix = *interned.entry(job.user).or_insert(next);
    }
    interned.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictsim_swf::MISSING;

    fn swf(run: i64, req_procs: i64, req_time: i64, user: i64) -> SwfRecord {
        let mut r = SwfRecord::empty(77);
        r.submit_time = 500;
        r.run_time = run;
        r.requested_procs = req_procs;
        r.requested_time = req_time;
        r.user_id = user;
        r
    }

    #[test]
    fn conversion_maps_fields() {
        let j = job_from_swf(JobId(3), &swf(100, 8, 200, 4)).unwrap();
        assert_eq!(j.id, JobId(3));
        assert_eq!(j.submit, Time(500));
        assert_eq!(j.run, 100);
        assert_eq!(j.requested, 200);
        assert_eq!(j.procs, 8);
        assert_eq!(j.user, 5); // user ids are shifted by one
        assert_eq!(j.swf_id, 77);
    }

    #[test]
    fn missing_requested_time_falls_back_to_run() {
        let j = job_from_swf(JobId(0), &swf(100, 8, MISSING, 4)).unwrap();
        assert_eq!(j.requested, 100);
    }

    #[test]
    fn inverted_estimate_is_raised() {
        let j = job_from_swf(JobId(0), &swf(100, 8, 10, 4)).unwrap();
        assert_eq!(j.requested, 100);
    }

    #[test]
    fn missing_user_becomes_zero() {
        let j = job_from_swf(JobId(0), &swf(100, 8, 200, MISSING)).unwrap();
        assert_eq!(j.user, 0);
    }

    #[test]
    fn values_beyond_u32_are_errors_not_wrapped() {
        for (procs, user) in [
            (1 << 32, 4),
            (8, u32::MAX.into()),
            (8, 1 << 32),
            (8, i64::MAX),
        ] {
            let err = job_from_swf(JobId(0), &swf(100, procs, 200, user)).unwrap_err();
            assert!(err.reason.contains("exceeds the engine's u32"), "{err}");
        }
        let last = job_from_swf(JobId(0), &swf(100, u32::MAX.into(), 200, 4_294_967_294));
        assert_eq!(last.map(|j| (j.procs, j.user)), Ok((u32::MAX, u32::MAX)));
    }

    #[test]
    fn missing_run_time_is_an_error() {
        let err = job_from_swf(JobId(0), &swf(MISSING, 8, 200, 4)).unwrap_err();
        assert!(err.reason.contains("run time"));
        assert_eq!(err.swf_id, 77);
    }

    #[test]
    fn granted_run_and_kill_flag() {
        let mut j = job_from_swf(JobId(0), &swf(100, 1, 200, 1)).unwrap();
        assert_eq!(j.granted_run(), 100);
        j.run = 500; // exceeds requested=200
        assert_eq!(j.granted_run(), 200);
    }

    #[test]
    fn validate_rejects_degenerate_jobs() {
        let mut j = job_from_swf(JobId(0), &swf(100, 8, 200, 4)).unwrap();
        assert!(j.validate().is_ok());
        j.procs = 0;
        assert!(j.validate().is_err());
        j.procs = 1;
        j.run = 0;
        assert!(j.validate().is_err());
    }

    /// Converts `records` with dense ids in order and interns their
    /// users, as a loader does.
    fn convert(records: &[SwfRecord]) -> Vec<Job> {
        let mut jobs: Vec<Job> = (0u32..)
            .zip(records)
            .map(|(i, r)| job_from_swf(JobId(i), r).unwrap())
            .collect();
        intern_users(&mut jobs);
        jobs
    }

    #[test]
    fn batch_conversion_assigns_dense_ids() {
        let records = vec![swf(10, 1, 20, 1), swf(30, 2, 40, 2)];
        let jobs = convert(&records);
        assert_eq!(jobs[0].id, JobId(0));
        assert_eq!(jobs[1].id, JobId(1));
        assert_eq!(jobs[1].run, 30);
    }

    #[test]
    fn interning_is_first_appearance_dense() {
        let records = vec![
            swf(10, 1, 20, 900_000),
            swf(10, 1, 20, 3),
            swf(10, 1, 20, 900_000),
            swf(10, 1, 20, MISSING),
            swf(10, 1, 20, 3),
        ];
        let jobs = convert(&records);
        let ixs: Vec<u32> = jobs.iter().map(|j| j.user_ix).collect();
        assert_eq!(ixs, [0, 1, 0, 2, 1]);
        assert_eq!(jobs[0].user, 900_001, "raw ids survive interning");
        assert_eq!(jobs[3].user, 0, "missing user keeps the sentinel");
    }

    #[test]
    fn intern_users_returns_distinct_count() {
        let records = vec![swf(10, 1, 20, 5), swf(10, 1, 20, 5), swf(10, 1, 20, 9)];
        let mut jobs = convert(&records);
        assert_eq!(intern_users(&mut jobs), 2);
        assert_eq!(intern_users(&mut []), 0);
    }

    #[test]
    fn area() {
        let j = job_from_swf(JobId(0), &swf(100, 8, 200, 4)).unwrap();
        assert_eq!(j.area(), 800.0);
    }
}
