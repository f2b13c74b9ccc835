//! Property tests of the dense user-interning seam.
//!
//! The engine and the learning stack index every per-user structure
//! (the running index, the feature extractor's user histories) by the
//! *interned* `Job::user_ix`, never by the raw user id. The contract
//! that makes this safe: simulation output must depend only on the
//! interning *structure* — which jobs share a user — and never on the
//! raw id values. So relabeling raw users through any injective map
//! must leave every outcome byte-identical except the reported raw
//! `user` field, whatever the id space looks like (dense, sparse, or
//! huge-wraparound).

use proptest::prelude::*;

use predictsim_core::{IncrementalCorrection, MlPredictor};
use predictsim_sim::{
    intern_users, simulate_in, EasyScheduler, Job, JobId, NullObserver, SimArena, SimConfig, Time,
};

const MACHINE: u32 = 16;

fn arb_jobs(n: usize) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec(
        (
            0i64..400,      // interarrival gap
            1i64..3_000,    // run time
            1.0f64..8.0,    // over-estimation factor
            1u32..=MACHINE, // procs
            0u32..5,        // raw user (colliding space)
        ),
        1..n,
    )
    .prop_map(|specs| {
        let mut t = 0;
        let mut jobs: Vec<Job> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (gap, run, over, procs, user))| {
                t += gap;
                Job {
                    id: JobId(i as u32),
                    submit: Time(t),
                    run,
                    requested: ((run as f64 * over) as i64).max(run),
                    procs,
                    user,
                    user_ix: 0,
                    swf_id: i as u64 + 1,
                }
            })
            .collect();
        intern_users(&mut jobs);
        jobs
    })
}

/// Injective raw-user relabelings covering the id spaces the readers
/// produce: dense, sparse (large strides), and huge (wraparound
/// multiplier, injective because the multiplier is odd).
fn relabel(user: u32, mode: u8) -> u32 {
    match mode {
        0 => user,                              // dense
        1 => user * 100_000_003 % u32::MAX + 7, // sparse
        _ => user.wrapping_mul(2_654_435_761),  // huge, hash-like
    }
}

fn run(jobs: &[Job]) -> Vec<predictsim_sim::JobOutcome> {
    let mut predictor = MlPredictor::e_loss();
    let correction = IncrementalCorrection::new();
    simulate_in(
        &mut SimArena::new(),
        jobs,
        SimConfig::single(MACHINE),
        &mut EasyScheduler::sjbf(),
        &mut predictor,
        Some(&correction),
        &mut NullObserver,
    )
    .expect("simulation succeeds")
    .outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulation output is invariant under injective relabeling of the
    /// raw user-id space: the full learning pipeline (EASY-SJBF + NAG
    /// predictor + incremental correction) sees only interned indices.
    #[test]
    fn outcomes_invariant_under_user_relabeling(
        jobs in arb_jobs(60),
        mode in 1u8..3,
    ) {
        let base = run(&jobs);

        let mut relabeled: Vec<Job> = jobs
            .iter()
            .map(|j| Job {
                user: relabel(j.user, mode),
                user_ix: 0,
                ..j.clone()
            })
            .collect();
        let users = intern_users(&mut relabeled);
        // Injective relabeling preserves the interning structure …
        prop_assert!(relabeled
            .iter()
            .zip(&jobs)
            .all(|(r, b)| r.user_ix == b.user_ix));
        let expected_users = {
            let mut raw: Vec<u32> = jobs.iter().map(|j| j.user).collect();
            raw.sort_unstable();
            raw.dedup();
            raw.len() as u32
        };
        prop_assert_eq!(users, expected_users);

        // … and therefore every outcome, modulo the raw user label.
        let out = run(&relabeled);
        prop_assert_eq!(base.len(), out.len());
        for (b, o) in base.iter().zip(&out) {
            prop_assert_eq!(o.user, relabel(b.user, mode));
            let mut o = o.clone();
            o.user = b.user;
            prop_assert_eq!(&o, b);
        }
    }
}
