//! The quick-scale logs as oracle cases: the six workloads `repro all`
//! generates by default (`ExperimentSetup::quick()`, 1 400–24 750 jobs)
//! replayed through `simulate_in` and the whole-run reference engine
//! (`crates/sim/tests/support/reference.rs`), whose every `JobOutcome`
//! must be equal, under the settings `reference_engine.rs` uses: three
//! predictors × four correction settings per scheduler.
//!
//! The random cases of `reference_engine.rs` stay below 300 jobs; these
//! logs reach the depth where a queue holds hundreds of jobs and a plan
//! lives through thousands of passes. FCFS, EASY and EASY-SJBF run on all
//! six logs. Conservative runs on the four where the brute-force planner
//! takes 0.05–2 s a setting; on Curie and Metacentrum it takes 20 s to
//! minutes. Run with
//! `cargo test --release -p predictsim --test reference_replay -- --ignored`.

#[path = "../crates/sim/tests/support/reference.rs"]
mod reference;
#[path = "../crates/sim/tests/support/settings.rs"]
mod settings;

use predictsim_experiments::ExperimentSetup;
use predictsim_sim::{ClusterSpec, SimArena};
use settings::{both, settings, Sched};

/// Replays every quick-scale log accepted by `logs` under every setting
/// accepted by `schedulers`, and names each setting that diverged.
fn replay(logs: impl Fn(&str) -> bool, schedulers: impl Fn(Sched) -> bool) {
    let mut arena = SimArena::new();
    let mut diverged = Vec::new();
    let mut replayed = 0;
    for workload in ExperimentSetup::quick().workloads() {
        if !logs(&workload.name) {
            continue;
        }
        let cluster = ClusterSpec::single(workload.machine_size);
        for setting in settings().filter(|&(sched, _, _)| schedulers(sched)) {
            let (engine, reference) = both(&mut arena, &workload.jobs, cluster, setting);
            if engine != reference {
                let first = (engine.iter().zip(&reference)).position(|(e, r)| e != r);
                diverged.push(format!("{} {setting:?}: first at {first:?}", workload.name));
            }
            replayed += 1;
        }
    }
    assert!(replayed > 0, "no setting replayed");
    assert!(
        diverged.is_empty(),
        "diverged from the reference: {diverged:#?}"
    );
}

#[test]
#[ignore]
fn queue_policies_replay_every_quick_log_like_the_reference() {
    replay(|_| true, |sched| sched != Sched::Conservative);
}

#[test]
#[ignore]
fn conservative_replays_four_quick_logs_like_the_reference() {
    const FAST: [&str; 4] = ["KTH", "CTC", "SDSC-SP2", "SDSC-BLUE"];
    replay(
        |name| FAST.iter().any(|log| name.starts_with(log)),
        |sched| sched == Sched::Conservative,
    );
}
