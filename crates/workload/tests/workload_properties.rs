//! Property-based tests of the workload generator: every generated
//! workload must satisfy the structural contracts the simulator relies
//! on, for arbitrary (valid) spec knobs and seeds.

use proptest::prelude::*;

use predictsim_workload::{generate, WorkloadSpec};

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        16u32..256,   // machine size
        60usize..300, // jobs
        1i64..8,      // duration (days)
        0.3f64..1.0,  // utilization
        1usize..40,   // users
        0.0f64..0.3,  // crash rate
        1.0f64..8.0,  // overestimate median
        0.0f64..1.0,  // modal prob
        1usize..5,    // classes per user
    )
        .prop_map(
            |(m, jobs, days, util, users, crash, over, modal, classes)| WorkloadSpec {
                name: "prop".into(),
                machine_size: m,
                jobs,
                duration: days * 86_400,
                utilization: util,
                users,
                session_len_mean: 3.0,
                session_repeat_prob: 0.85,
                crash_rate: crash,
                overestimate_median: over,
                overestimate_sigma: 0.7,
                modal_round_prob: modal,
                procs_mean_log2: 1.5,
                procs_sigma_log2: 1.0,
                classes_per_user: classes,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structural contract: sorted, densely numbered, validated jobs that
    /// fit the machine, with requests bounding runtimes.
    #[test]
    fn generated_jobs_satisfy_simulator_contract(spec in arb_spec(), seed in 0u64..1000) {
        let w = generate(&spec, seed);
        prop_assert_eq!(w.jobs.len(), spec.jobs);
        for (i, j) in w.jobs.iter().enumerate() {
            prop_assert_eq!(j.id.index(), i);
            prop_assert!(j.validate().is_ok());
            prop_assert!(j.procs <= spec.machine_size);
            prop_assert!(j.requested >= j.run);
            prop_assert!(j.submit.0 >= 0 && j.submit.0 < spec.duration);
        }
        for pair in w.jobs.windows(2) {
            prop_assert!(pair[0].submit <= pair[1].submit);
        }
    }

    /// The generated stream simulates cleanly end to end (EASY) and
    /// passes the schedule audit.
    #[test]
    fn generated_workloads_simulate_cleanly(spec in arb_spec(), seed in 0u64..50) {
        let w = generate(&spec, seed);
        let mut sched = predictsim_sim::EasyScheduler::new();
        let mut pred = predictsim_sim::RequestedTimePredictor;
        let res = predictsim_sim::simulate_in(
            &mut predictsim_sim::SimArena::new(),
            &w.jobs,
            w.sim_config(),
            &mut sched,
            &mut pred,
            None,
            &mut predictsim_sim::NullObserver,
        ).expect("simulation");
        prop_assert_eq!(res.outcomes.len(), w.jobs.len());
        prop_assert!(predictsim_sim::audit(&res).is_ok());
    }

    /// SWF export of any generated workload re-parses to the same jobs.
    #[test]
    fn swf_export_is_lossless(spec in arb_spec(), seed in 0u64..50) {
        let w = generate(&spec, seed);
        let text = predictsim_swf::write_log(&w.to_swf());
        let log = predictsim_swf::parse_log(&text).expect("reparse");
        let mut jobs: Vec<_> = (0u32..)
            .zip(&log.records)
            .map(|(i, r)| predictsim_sim::job_from_swf(predictsim_sim::JobId(i), r).expect("convert"))
            .collect();
        predictsim_sim::intern_users(&mut jobs);
        prop_assert_eq!(jobs.len(), w.jobs.len());
        for (a, b) in jobs.iter().zip(&w.jobs) {
            prop_assert_eq!(a.run, b.run);
            prop_assert_eq!(a.requested, b.requested);
            prop_assert_eq!(a.procs, b.procs);
            prop_assert_eq!(a.submit, b.submit);
            // `to_swf` writes the exact inverse of `job_from_swf`'s
            // user mapping, so the round trip preserves user ids and a
            // replay from the exported file is byte-identical.
            prop_assert_eq!(a.user, b.user);
        }
    }

    /// Statistics reported by the generator are internally consistent.
    #[test]
    fn stats_consistency(spec in arb_spec(), seed in 0u64..50) {
        let w = generate(&spec, seed);
        let work: f64 = w.jobs.iter().map(|j| j.run as f64 * j.procs as f64).sum();
        prop_assert!((work - w.stats.total_work).abs() < 1e-6);
        prop_assert!(w.stats.active_users <= spec.users);
        prop_assert!(w.stats.crashed_jobs <= spec.jobs);
        prop_assert!(w.stats.mean_overestimate >= 1.0);
    }
}
