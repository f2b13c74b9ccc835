//! Replay a Standard Workload Format (SWF) log through the simulator.
//!
//! This is the workflow for evaluating the paper's method on *real*
//! production traces from the Parallel Workloads Archive:
//!
//! ```text
//! cargo run --release --example swf_replay -- path/to/LOG.swf
//! ```
//!
//! Without an argument, the example writes a synthetic SWF file to a
//! temporary directory first and replays that — demonstrating the full
//! round trip (generate → write SWF → load → simulate).

use std::path::PathBuf;

use predictsim::prelude::*;
use predictsim::swf::write_log;

fn main() {
    let path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // No log supplied: fabricate one so the example is self-contained.
            let spec = WorkloadSpec::toy();
            let workload = generate(&spec, 7);
            let text = write_log(&workload.to_swf());
            let path = std::env::temp_dir().join("predictsim_quickstart.swf");
            std::fs::write(&path, text).expect("write temporary SWF");
            println!("no log given; wrote synthetic log to {}", path.display());
            path
        });

    // 1. Load: parse, clean and convert in one streaming pass, reporting
    //    what the cleaning conventions dropped/repaired (silent cleaning
    //    is a reproducibility hazard — Frachtenberg & Feitelson [6]).
    let loaded = SwfSource::new(&path)
        .load()
        .unwrap_or_else(|e| panic!("load {}: {e}", path.display()));
    let report = loaded.cleaning.as_ref().expect("SWF path reports cleaning");
    println!(
        "loaded {}: {} jobs, MaxProcs {}",
        path.display(),
        loaded.jobs.len(),
        loaded.machine_size
    );
    println!(
        "cleaned: kept {} | dropped {} unrunnable, {} oversize | repaired {} estimates, {} inversions",
        report.kept,
        report.dropped_unrunnable,
        report.dropped_oversize,
        report.repaired_estimates,
        report.repaired_inversions,
    );

    // 2. Simulate under three schedulers.
    for triple in [
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
    ] {
        let res = triple
            .run(&loaded.jobs, loaded.sim_config())
            .expect("simulation failed");
        // Re-verify the schedule invariants independently of the engine.
        predictsim::sim::audit(&res).expect("schedule audit failed");
        println!(
            "{:<46} AVEbsld {:>8.2}   utilization {:>5.1}%   makespan {}",
            triple.name(),
            res.ave_bsld(),
            100.0 * res.utilization(),
            predictsim::sim::format_duration(res.makespan()),
        );
    }
}
