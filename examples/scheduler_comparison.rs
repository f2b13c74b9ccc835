//! Compare the four scheduling policies under perfect information on a
//! congested workload — the pure-scheduling ablation (no prediction error
//! in the picture).
//!
//! ```text
//! cargo run --release --example scheduler_comparison
//! ```

use predictsim::prelude::*;
use predictsim::sim::{audit, ConservativeScheduler};

fn main() {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 4_000;
    spec.duration = 28 * 86_400;
    spec.utilization = 0.85;
    let workload = generate(&spec, 2024);
    let cfg = workload.sim_config();
    println!(
        "workload: {} jobs on {} processors, {:.0}% offered utilization\n",
        workload.jobs.len(),
        workload.machine_size,
        100.0 * workload.stats.offered_utilization
    );

    println!(
        "{:<16} {:>9} {:>11} {:>12} {:>10}",
        "scheduler", "AVEbsld", "mean wait", "utilization", "makespan"
    );

    // FCFS (no backfilling), EASY, EASY-SJBF as trait objects...
    let mut schedulers: Vec<Box<dyn predictsim::sim::Scheduler>> = vec![
        Box::new(FcfsScheduler),
        Box::new(EasyScheduler::new()),
        Box::new(EasyScheduler::sjbf()),
        Box::new(ConservativeScheduler::new()),
    ];

    // One engine arena serves every run: it keeps capacity, never state.
    let mut arena = SimArena::new();
    for scheduler in schedulers.iter_mut() {
        let mut predictor = ClairvoyantPredictor;
        let res = simulate_in(
            &mut arena,
            &workload.jobs,
            cfg,
            scheduler.as_mut(),
            &mut predictor,
            None,
            &mut NullObserver,
        )
        .expect("simulation failed");
        // Every schedule must pass the independent invariant audit.
        let report = audit(&res).expect("audit failed");
        assert_eq!(report.jobs, workload.jobs.len());
        println!(
            "{:<16} {:>9.2} {:>10.0}s {:>11.1}% {:>10}",
            scheduler.name(),
            res.ave_bsld(),
            res.mean_wait(),
            100.0 * res.utilization(),
            predictsim::sim::format_duration(res.makespan()),
        );
    }

    println!(
        "\nbackfilling (EASY) should dominate FCFS; SJBF ordering further \
         improves the average bounded slowdown (§5.1 of the paper); \
         conservative backfilling trades packing for its no-starvation \
         guarantee (§2.1)."
    );
}
