//! Synthetic counterparts of the paper's six production logs (Table 4).
//!
//! | Name        | Year | CPUs   | Jobs | Duration  |
//! |-------------|------|--------|------|-----------|
//! | KTH-SP2     | 1996 | 100    | 28k  | 11 months |
//! | CTC-SP2     | 1996 | 338    | 77k  | 11 months |
//! | SDSC-SP2    | 2000 | 128    | 59k  | 24 months |
//! | SDSC-BLUE   | 2003 | 1 152  | 243k | 32 months |
//! | Curie       | 2012 | 80 640 | 312k | 3 months  |
//! | Metacentrum | 2013 | 3 356  | 495k | 6 months  |
//!
//! Machine sizes, job counts and durations are taken from Table 4
//! verbatim; utilization targets and behavioral knobs approximate the
//! published characteristics of each log (all six were "selected for
//! their high resource utilization"). The *real* logs remain fully
//! usable through `predictsim-swf` — these presets are the
//! redistributable stand-ins (README § "Where we read the paper
//! differently" has the substitution argument).

use crate::spec::WorkloadSpec;

const MONTH: i64 = 30 * 86_400;

fn base(
    name: &str,
    machine: u32,
    jobs: usize,
    months: i64,
    utilization: f64,
    users: usize,
) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        machine_size: machine,
        jobs,
        duration: months * MONTH,
        utilization,
        users,
        session_len_mean: 3.0,
        session_repeat_prob: 0.85,
        crash_rate: 0.12,
        overestimate_median: 3.0,
        overestimate_sigma: 0.7,
        modal_round_prob: 0.8,
        procs_mean_log2: 2.0,
        procs_sigma_log2: 1.3,
        classes_per_user: 3,
    }
}

/// KTH-SP2: the 100-node IBM SP2 at KTH, Stockholm (1996).
fn kth_sp2() -> WorkloadSpec {
    let mut s = base("KTH-SP2", 100, 28_000, 11, 0.88, 200);
    s.procs_mean_log2 = 1.8;
    s
}

/// CTC-SP2: the 338-node Cornell Theory Center SP2 (1996).
fn ctc_sp2() -> WorkloadSpec {
    let mut s = base("CTC-SP2", 338, 77_000, 11, 0.84, 250);
    s.procs_mean_log2 = 2.2;
    s
}

/// SDSC-SP2: the 128-node San Diego SP2 (2000) — a long, heavily loaded
/// trace.
fn sdsc_sp2() -> WorkloadSpec {
    let mut s = base("SDSC-SP2", 128, 59_000, 24, 0.87, 430);
    s.procs_mean_log2 = 2.0;
    s
}

/// SDSC-BLUE: the 1 152-processor Blue Horizon (2003).
fn sdsc_blue() -> WorkloadSpec {
    let mut s = base("SDSC-BLUE", 1_152, 243_000, 32, 0.84, 470);
    s.procs_mean_log2 = 3.5;
    s
}

/// Curie: the 80 640-core Bull/CEA petascale machine (2012). Very wide
/// jobs, short trace, bursty — the log on which the paper's approach
/// shines most (86% AVEbsld reduction).
fn curie() -> WorkloadSpec {
    let mut s = base("Curie", 80_640, 312_000, 3, 0.80, 580);
    s.procs_mean_log2 = 7.0;
    s.procs_sigma_log2 = 2.2;
    s.session_len_mean = 4.0;
    s.crash_rate = 0.16; // young machine, noisy jobs
    s
}

/// Metacentrum: the Czech national grid (2013) — many users, mixed
/// hardware, moderate utilization.
fn metacentrum() -> WorkloadSpec {
    let mut s = base("Metacentrum", 3_356, 495_000, 6, 0.75, 800);
    s.procs_mean_log2 = 3.2;
    s.procs_sigma_log2 = 1.7;
    s.session_len_mean = 4.0;
    s
}

/// `millions-of-users`: the cloud-scale stressor, not a Table 4 log. A
/// million jobs from a 400 000-user population (heavy-tail activity,
/// short bursty sessions) on a 65 536-processor machine — the shape of
/// the Alibaba/Google cluster traces, scaled to what the offline build
/// environment can generate. Exercises the streaming ingestion path and
/// the dense-interned per-user slabs at ≥ 10^5 *active* users; not part
/// of [`all_six`], so no paper experiment is affected.
fn millions_of_users() -> WorkloadSpec {
    let mut s = base("millions-of-users", 65_536, 1_000_000, 1, 0.70, 400_000);
    s.session_len_mean = 2.0; // short sessions → many distinct submitters
    s.session_repeat_prob = 0.8;
    s.procs_mean_log2 = 3.0;
    s.procs_sigma_log2 = 1.8;
    s.classes_per_user = 2;
    s
}

/// All six Table 4 presets in the paper's order.
pub fn all_six() -> Vec<WorkloadSpec> {
    vec![
        kth_sp2(),
        ctc_sp2(),
        sdsc_sp2(),
        sdsc_blue(),
        curie(),
        metacentrum(),
    ]
}

/// Looks a preset up by its (case-insensitive) Table 4 name.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    let lower = name.to_ascii_lowercase();
    all_six()
        .into_iter()
        .find(|s| s.name.to_ascii_lowercase() == lower)
        .or_else(|| (lower == "toy").then(WorkloadSpec::toy))
        .or_else(|| (lower == "millions-of-users").then(millions_of_users))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millions_of_users_is_cloud_scale() {
        let s = millions_of_users();
        assert!(s.validate().is_ok());
        assert_eq!(s.jobs, 1_000_000);
        assert_eq!(s.users, 400_000);
        assert_eq!(by_name("Millions-Of-Users"), Some(s));
        // A stressor, not a Table 4 log.
        assert!(all_six().iter().all(|s| s.name != "millions-of-users"));
    }

    #[test]
    fn millions_of_users_generates_many_distinct_users_when_scaled() {
        // The full preset is exercised in release by the ingest bench
        // and CI smoke; here a 1% scale checks the population shape:
        // nearly every session comes from a distinct user.
        let w = crate::generate(&millions_of_users().scaled(0.01), 1);
        assert_eq!(w.jobs.len(), 10_000);
        assert!(
            w.stats.active_users > 2_000,
            "only {} distinct users — population not heavy enough",
            w.stats.active_users
        );
        assert_eq!(w.stats.active_users as u32, {
            let mut users: Vec<u32> = w.jobs.iter().map(|j| j.user_ix).collect();
            users.sort_unstable();
            users.dedup();
            users.len() as u32
        });
    }

    #[test]
    fn table4_shapes() {
        let six = all_six();
        assert_eq!(six.len(), 6);
        let names: Vec<&str> = six.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "KTH-SP2",
                "CTC-SP2",
                "SDSC-SP2",
                "SDSC-BLUE",
                "Curie",
                "Metacentrum"
            ]
        );
        // Table 4 numbers.
        assert_eq!(six[0].machine_size, 100);
        assert_eq!(six[1].machine_size, 338);
        assert_eq!(six[2].machine_size, 128);
        assert_eq!(six[3].machine_size, 1_152);
        assert_eq!(six[4].machine_size, 80_640);
        assert_eq!(six[5].machine_size, 3_356);
        assert_eq!(six[4].jobs, 312_000);
        assert_eq!(six[5].jobs, 495_000);
        for s in &six {
            assert!(s.validate().is_ok(), "{} invalid", s.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("curie").unwrap().machine_size, 80_640);
        assert_eq!(by_name("KTH-SP2").unwrap().jobs, 28_000);
        assert_eq!(by_name("toy").unwrap().name, "toy");
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn scaled_presets_stay_valid() {
        for s in all_six().into_iter().map(|s| s.scaled(0.02)) {
            assert!(s.validate().is_ok(), "{} invalid", s.name);
            assert!(s.jobs >= 50);
        }
    }
}
