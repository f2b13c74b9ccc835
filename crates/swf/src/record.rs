//! The 18-field SWF job record.
//!
//! Field order and semantics follow the Standard Workload Format
//! specification of the Parallel Workloads Archive. Missing values are
//! encoded as `-1` in the on-disk format; this module keeps the sentinel
//! (as [`MISSING`]) in integer fields so that round-tripping a log is exact,
//! and offers accessor helpers that translate sentinels into `Option`s.

/// The SWF sentinel for "value not available" (`-1`).
pub const MISSING: i64 = -1;

/// One SWF job record (one line of an SWF file).
///
/// All times are in seconds. `-1` ([`MISSING`]) denotes a missing value,
/// following the SWF convention; the `*_opt` accessors decode the sentinel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SwfRecord {
    /// Field 1: job number, a unique identifier (1-based in PWA logs).
    pub job_id: u64,
    /// Field 2: submit time in seconds relative to the log start.
    pub submit_time: i64,
    /// Field 3: wait time in seconds (as recorded by the original
    /// scheduler; the simulator recomputes its own waits and ignores this).
    pub wait_time: i64,
    /// Field 4: actual run time in seconds (`p_j` in the paper).
    pub run_time: i64,
    /// Field 5: number of allocated processors.
    pub allocated_procs: i64,
    /// Field 6: average CPU time used per processor.
    pub avg_cpu_time: i64,
    /// Field 7: used memory (KB per processor).
    pub used_memory: i64,
    /// Field 8: requested number of processors (`q_j` in the paper).
    pub requested_procs: i64,
    /// Field 9: requested (user-estimated) run time in seconds
    /// (`p̃_j` in the paper — the upper bound after which the job is killed).
    pub requested_time: i64,
    /// Field 10: requested memory (KB per processor).
    pub requested_memory: i64,
    /// Field 11: completion status code.
    pub status: i64,
    /// Field 12: user id (`k` in the paper's per-user features).
    pub user_id: i64,
    /// Field 13: group id.
    pub group_id: i64,
    /// Field 14: executable (application) number.
    pub executable: i64,
    /// Field 15: queue number.
    pub queue: i64,
    /// Field 16: partition number.
    pub partition: i64,
    /// Field 17: preceding job number (dependency), or -1.
    pub preceding_job: i64,
    /// Field 18: think time from preceding job, in seconds, or -1.
    pub think_time: i64,
}

impl SwfRecord {
    /// A record with every optional field missing, useful as a builder base.
    pub fn empty(job_id: u64) -> Self {
        Self {
            job_id,
            submit_time: 0,
            wait_time: MISSING,
            run_time: MISSING,
            allocated_procs: MISSING,
            avg_cpu_time: MISSING,
            used_memory: MISSING,
            requested_procs: MISSING,
            requested_time: MISSING,
            requested_memory: MISSING,
            status: MISSING,
            user_id: MISSING,
            group_id: MISSING,
            executable: MISSING,
            queue: MISSING,
            partition: MISSING,
            preceding_job: MISSING,
            think_time: MISSING,
        }
    }

    /// Actual run time, if recorded.
    pub fn run_time_opt(&self) -> Option<i64> {
        positive_opt(self.run_time)
    }

    /// Requested run time, if recorded.
    pub fn requested_time_opt(&self) -> Option<i64> {
        positive_opt(self.requested_time)
    }

    /// Processor count the simulator should use: the requested count when
    /// present, otherwise the allocated count (the PWA convention — some
    /// logs only record one of the two).
    pub fn effective_procs(&self) -> Option<i64> {
        positive_opt(self.requested_procs).or_else(|| positive_opt(self.allocated_procs))
    }

    /// Requested time the simulator should use: the user estimate when
    /// present, otherwise the actual run time (clairvoyant fallback used by
    /// the literature when a log lacks estimates).
    pub fn effective_requested_time(&self) -> Option<i64> {
        self.requested_time_opt().or_else(|| self.run_time_opt())
    }

    /// User id, if recorded.
    pub fn user_id_opt(&self) -> Option<i64> {
        non_negative_opt(self.user_id)
    }
}

fn positive_opt(v: i64) -> Option<i64> {
    (v > 0).then_some(v)
}

fn non_negative_opt(v: i64) -> Option<i64> {
    (v >= 0).then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SwfRecord {
        SwfRecord {
            job_id: 42,
            submit_time: 1000,
            wait_time: 5,
            run_time: 3600,
            allocated_procs: 16,
            avg_cpu_time: MISSING,
            used_memory: MISSING,
            requested_procs: 32,
            requested_time: 7200,
            requested_memory: MISSING,
            status: 1,
            user_id: 7,
            group_id: 1,
            executable: 12,
            queue: 0,
            partition: 0,
            preceding_job: MISSING,
            think_time: MISSING,
        }
    }

    #[test]
    fn accessors_decode_sentinels() {
        let r = sample();
        assert_eq!(r.run_time_opt(), Some(3600));
        assert_eq!(r.requested_time_opt(), Some(7200));
        assert_eq!(r.user_id_opt(), Some(7));

        let mut r = sample();
        r.run_time = MISSING;
        r.requested_time = MISSING;
        r.user_id = MISSING;
        assert_eq!(r.run_time_opt(), None);
        assert_eq!(r.requested_time_opt(), None);
        assert_eq!(r.user_id_opt(), None);
    }

    #[test]
    fn effective_procs_prefers_requested() {
        let r = sample();
        assert_eq!(r.effective_procs(), Some(32));
        let mut r = sample();
        r.requested_procs = MISSING;
        assert_eq!(r.effective_procs(), Some(16));
        r.allocated_procs = 0; // zero procs is not usable
        assert_eq!(r.effective_procs(), None);
    }

    #[test]
    fn effective_requested_time_falls_back_to_actual() {
        let mut r = sample();
        r.requested_time = MISSING;
        assert_eq!(r.effective_requested_time(), Some(3600));
    }

    /// A record is simulatable iff it has a positive run time and a
    /// positive processor count (the loader's unrunnable rule).
    fn simulatable(r: &SwfRecord) -> bool {
        r.run_time_opt().is_some() && r.effective_procs().is_some()
    }

    #[test]
    fn simulatable_requires_run_and_procs() {
        assert!(simulatable(&sample()));
        let mut r = sample();
        r.run_time = 0;
        assert!(!simulatable(&r));
        let mut r = sample();
        r.requested_procs = MISSING;
        r.allocated_procs = MISSING;
        assert!(!simulatable(&r));
    }

    #[test]
    fn empty_record_is_not_simulatable() {
        assert!(!simulatable(&SwfRecord::empty(1)));
    }

    #[test]
    fn user_id_zero_is_valid() {
        let mut r = sample();
        r.user_id = 0;
        assert_eq!(r.user_id_opt(), Some(0));
    }
}
