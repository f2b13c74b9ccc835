//! The tracing decorators must not change what they trace: a decorated
//! `simulate_in` returns a `SimResult` byte-identical to the undecorated
//! engine call, and the counts it records repeat exactly.

use std::time::Instant;

use predictsim_experiments::{ExperimentSetup, HeuristicTriple, LoadedWorkload};
use predictsim_perfbench::decor::{run_traced_cell, simulate_decorated};
use predictsim_perfbench::workloads::serve_mix::request_schedule;
use predictsim_sim::{ClusterSpec, SimConfig};
use predictsim_workload::generate;

fn workload() -> LoadedWorkload {
    let setup = ExperimentSetup {
        scale: 0.02,
        seed: 7,
    };
    generate(&setup.spec("KTH").expect("KTH preset"), 7).into()
}

/// An EASY-SJBF + ML cell, an EASY + requested-time cell and a
/// conservative cell: every decorator on the path of at least one.
const CELLS: [&str; 3] = [
    "ml(u=lin,o=sq,g=area)+incremental+easy-sjbf",
    "requested+easy",
    "requested+conservative",
];

#[test]
fn decorated_simulation_is_byte_identical() {
    let workload = workload();
    let cluster = ClusterSpec::single(workload.machine_size);
    for name in CELLS {
        let triple: HeuristicTriple = name.parse().expect("registry name");
        let plain = triple
            .run(&workload.jobs, SimConfig { cluster })
            .expect("plain run");
        let (decorated, trace) =
            simulate_decorated(Instant::now(), &triple, &workload.jobs, cluster)
                .expect("decorated run");
        assert_eq!(decorated, plain, "{name}: decorated result differs");
        assert_eq!(
            format!("{decorated:?}"),
            format!("{plain:?}"),
            "{name}: not byte-identical"
        );
        let jobs = workload.jobs.len() as u64;
        assert_eq!(trace.predict.count, jobs, "{name}: one prediction per job");
        assert_eq!(trace.observe.count, jobs, "{name}: one observation per job");
        assert_eq!(trace.events.starts, jobs, "{name}: one start per job");
        assert!(trace.scheduler.count > 0 && trace.passes.useful <= trace.scheduler.count);
        assert_eq!(
            trace.correct.count,
            plain.total_corrections(),
            "{name}: every correction crossed the decorator"
        );
        assert!(trace.scheduler.busy_ns <= trace.end_ns - trace.start_ns);
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    let workload = workload();
    let cluster = ClusterSpec::single(workload.machine_size);
    let triple: HeuristicTriple = CELLS[0].parse().expect("registry name");
    let run = || run_traced_cell(Instant::now(), &triple, &workload.jobs, cluster).expect("cell");
    let (a, b) = (run(), run());
    assert!(a.verified && b.verified);
    assert_eq!(a.result, b.result);
    assert_eq!(a.sim.scheduler.count, b.sim.scheduler.count);
    assert_eq!(a.sim.passes, b.sim.passes);
    assert_eq!(a.sim.events, b.sim.events);
    assert_eq!(a.sim.correct.count, b.sim.correct.count);
}

#[test]
fn request_schedule_is_a_function_of_the_seed() {
    let presets = [("KTH", 0.25), ("CTC", 0.1)];
    let a = request_schedule(20150101, 16, &presets);
    assert_eq!(a, request_schedule(20150101, 16, &presets));
    assert_eq!(a.len(), 32, "16 triples x 2 presets");
    let distinct: std::collections::BTreeSet<String> = a.iter().map(|s| format!("{s:?}")).collect();
    assert_eq!(distinct.len(), 32, "no cell is requested twice in a pass");
    let other = request_schedule(20150102, 16, &presets);
    assert_ne!(a, other, "another seed samples other triples");
}
