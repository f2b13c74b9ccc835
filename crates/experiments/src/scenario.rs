//! A scenario is one resolved policy triple — the paper's unit of
//! experiment (§6.2: prediction technique × correction × backfilling
//! variant) — run on a workload loaded elsewhere.
//!
//! Names resolve through the registry (`"…".parse()` for a campaign
//! triple name, [`crate::parse_triple`] for three separate policy
//! names); workloads load through [`crate::WorkloadSource`].
//! Predictor and correction state is rebuilt fresh per run, so a
//! scenario can be rerun.
//!
//! ```
//! use predictsim_experiments::{HeuristicTriple, Scenario, SyntheticSource, WorkloadSource};
//! use predictsim_workload::WorkloadSpec;
//!
//! let workload = SyntheticSource::new(WorkloadSpec::toy(), 42).load().unwrap();
//! let triple: HeuristicTriple = "ml(u=lin,o=sq,g=area)+incremental+easy-sjbf"
//!     .parse()
//!     .unwrap();
//! let result = Scenario::from_triple(&triple)
//!     .run_on(&workload.jobs, workload.sim_config())
//!     .unwrap();
//! assert_eq!(result.outcomes.len(), 2000);
//! println!("AVEbsld = {:.1}", result.ave_bsld());
//! ```
//!
//! Everything in the experiment layer — the §6.2 campaign, the tables,
//! the figures, the ablations, and the `repro` binary — reaches the
//! engine through this module's per-thread scratch, either via
//! [`Scenario::run_on`] or via the cache's miss path.

use std::cell::RefCell;

use predictsim_sim::{
    simulate_in, Job, JobOutcome, NullObserver, Scheduler, SimArena, SimConfig, SimError,
    SimObserver, SimResult,
};

use crate::triple::{HeuristicTriple, Variant};

/// Per-worker scratch kept across the simulations a pool worker
/// executes: the engine's [`SimArena`] plus one reusable scheduler
/// instance per variant (schedulers decide each pass from the context
/// alone — see [`Scheduler::schedule_into`] — so reusing an instance
/// reuses its warm scratch buffers without carrying any decision state
/// between runs). Predictors and corrections hold *learning* state and
/// are always rebuilt fresh.
#[derive(Default)]
struct WorkerScratch {
    sim: SimArena,
    schedulers: Vec<(Variant, Box<dyn Scheduler + Send>)>,
}

/// The cached scheduler instance for `variant`, building (and caching)
/// one on first use. A free function over the vector so callers can
/// split-borrow the arena alongside it.
fn scheduler_for(
    schedulers: &mut Vec<(Variant, Box<dyn Scheduler + Send>)>,
    variant: Variant,
) -> &mut (dyn Scheduler + Send) {
    let index = match schedulers.iter().position(|(v, _)| *v == variant) {
        Some(i) => i,
        None => {
            schedulers.push((variant, variant.build()));
            schedulers.len() - 1
        }
    };
    schedulers[index].1.as_mut()
}

thread_local! {
    /// One [`WorkerScratch`] per OS thread. Pool workers process many
    /// simulations per bulk operation (and with `--threads 1`, the whole
    /// pipeline runs on one thread), so everything after the first run
    /// on each thread executes against warm buffers.
    static WORKER_SCRATCH: RefCell<WorkerScratch> = RefCell::new(WorkerScratch::default());
}

/// Runs `triple` on `jobs` against the calling thread's
/// [`WorkerScratch`] with a borrowed observer — the one engine-call
/// seam, behind [`Scenario::run_on`] and the cache's miss path
/// ([`crate::cache::SimCache::run_cell_observed_traced`]).
pub(crate) fn run_triple_with_scratch(
    triple: &HeuristicTriple,
    jobs: &[Job],
    config: SimConfig,
    observer: &mut dyn SimObserver,
) -> Result<SimResult, SimError> {
    let mut predictor = triple.prediction.build();
    let correction = triple.correction.as_ref().map(|c| c.build());
    let variant = triple.variant;
    let mut run = |scratch: &mut WorkerScratch| {
        let WorkerScratch { sim, schedulers } = scratch;
        simulate_in(
            sim,
            jobs,
            config,
            scheduler_for(schedulers, variant),
            predictor.as_mut(),
            correction
                .as_deref()
                .map(|c| c as &dyn predictsim_sim::CorrectionPolicy),
            observer,
        )
    };
    WORKER_SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut scratch) => run(&mut scratch),
        // Reentrant call (an observer running a nested scenario): fall
        // back to cold buffers rather than panicking.
        Err(_) => run(&mut WorkerScratch::default()),
    })
}

/// Hands a finished run's outcome vector back to the calling thread's
/// [`WorkerScratch`], so the thread's next run sizes none (see
/// [`SimArena::reclaim`]). Inside a reentrant call the vector is dropped.
pub(crate) fn reclaim_outcomes(outcomes: Vec<JobOutcome>) {
    WORKER_SCRATCH.with(|scratch| {
        if let Ok(mut scratch) = scratch.try_borrow_mut() {
            scratch.sim.reclaim(outcomes);
        }
    });
}

/// Why a cell simulation failed.
#[derive(Debug)]
pub enum ScenarioError {
    /// The simulation itself rejected the workload or a policy misbehaved.
    Sim(SimError),
    /// A worker panicked while simulating the cell and every bounded
    /// retry panicked too (a genuinely poisoned cell). The payload is
    /// the final panic message. Isolation — not an engine error: the
    /// panic was caught, the cache lease withdrawn, and coalesced
    /// waiters released before this surfaced.
    CellPanicked(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Sim(e) => write!(f, "{e}"),
            ScenarioError::CellPanicked(msg) => {
                write!(f, "cell simulation panicked (all retries): {msg}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<SimError> for ScenarioError {
    fn from(e: SimError) -> Self {
        ScenarioError::Sim(e)
    }
}

/// A resolved policy triple, runnable on any workload — see the module
/// docs.
#[derive(Debug)]
pub struct Scenario {
    triple: HeuristicTriple,
}

impl Scenario {
    /// The scenario for `triple`; run it with [`Scenario::run_on`].
    pub fn from_triple(triple: &HeuristicTriple) -> Self {
        Self {
            triple: triple.clone(),
        }
    }

    /// Runs the policy triple on externally managed jobs (already
    /// validated, submit-ordered, densely numbered).
    ///
    /// Runs execute against the calling thread's `WorkerScratch` — the
    /// engine arena and the scheduler's scratch buffers are reused
    /// across simulations (behavior-identical: only capacity survives a
    /// run, never state), which is what lets a campaign worker simulate
    /// hundreds of triples while allocating, once warm, only each run's
    /// result (counted in `tests/cache_and_arena.rs`).
    pub fn run_on(&self, jobs: &[Job], config: SimConfig) -> Result<SimResult, SimError> {
        run_triple_with_scratch(&self.triple, jobs, config, &mut NullObserver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{parse_cluster, parse_triple};
    use crate::source::{LoadedWorkload, SyntheticSource, WorkloadSource};
    use predictsim_sim::{ClusterSpec, CorrectionPolicy, MetricsObserver};
    use predictsim_workload::WorkloadSpec;

    fn tiny(seed: u64) -> LoadedWorkload {
        let mut spec = WorkloadSpec::toy();
        spec.jobs = 250;
        spec.duration = 3 * 86_400;
        SyntheticSource::new(spec, seed).load().unwrap()
    }

    #[test]
    fn observer_receives_the_run() {
        let w = tiny(3);
        let triple = parse_triple(Some("easy"), Some("ave2"), Some("incremental")).unwrap();
        let mut metrics = MetricsObserver::new();
        let result =
            run_triple_with_scratch(&triple, &w.jobs, w.sim_config(), &mut metrics).unwrap();
        assert_eq!(metrics.finished(), result.outcomes.len());
        assert!((metrics.ave_bsld() - result.ave_bsld()).abs() < 1e-9);
        assert_eq!(metrics.corrections(), result.total_corrections());
        let unobserved = Scenario::from_triple(&triple)
            .run_on(&w.jobs, w.sim_config())
            .unwrap();
        assert_eq!(result, unobserved, "observation must not perturb the run");
    }

    #[test]
    fn rerunning_a_scenario_is_deterministic() {
        let w = tiny(5);
        let triple = parse_triple(
            Some("easy-sjbf"),
            Some("ml:u=sq,o=sq,g=q/p"),
            Some("req-time"),
        )
        .unwrap();
        let scenario = Scenario::from_triple(&triple);
        let a = scenario.run_on(&w.jobs, w.sim_config()).unwrap();
        let b = scenario.run_on(&w.jobs, w.sim_config()).unwrap();
        assert_eq!(a, b, "policy state must be rebuilt per run");
    }

    #[test]
    fn explicit_legacy_cluster_is_byte_identical_to_default() {
        // `--cluster 64` on a 64-processor workload must be the exact
        // legacy single-machine run, byte for byte.
        let w = tiny(13);
        let pinned = parse_cluster("64").unwrap();
        assert_eq!(pinned, ClusterSpec::single(64));
        let scenario = Scenario::from_triple(&HeuristicTriple::easy_plus_plus());
        assert_eq!(
            scenario.run_on(&w.jobs, w.sim_config()).unwrap(),
            scenario
                .run_on(&w.jobs, SimConfig { cluster: pinned })
                .unwrap()
        );
    }

    #[test]
    fn heterogeneous_cluster_runs_and_places_on_both_partitions() {
        let w = tiny(17);
        let triple = parse_triple(Some("easy-sjbf"), Some("requested"), None).unwrap();
        let scenario = Scenario::from_triple(&triple);
        let config = SimConfig {
            cluster: parse_cluster("cluster:64x1+32x0.5").unwrap(),
        };
        let a = scenario.run_on(&w.jobs, config).unwrap();
        let b = scenario.run_on(&w.jobs, config).unwrap();
        assert_eq!(a, b, "hetero runs must be deterministic");
        assert_eq!(a.machine_size, 96, "total processors across partitions");
        assert!(a.outcomes.iter().all(|o| o.partition <= 1));
        assert!(
            a.outcomes.iter().any(|o| o.partition == 1),
            "a loaded toy workload must spill onto the second partition"
        );
    }

    /// The thread's warm scratch is behavior-identical to a cold arena
    /// and fresh policies.
    #[test]
    fn from_triple_runs_on_shared_jobs() {
        let w = tiny(8);
        let triple = HeuristicTriple::easy_plus_plus();
        let scenario = Scenario::from_triple(&triple);
        let warm_up = scenario.run_on(&w.jobs, w.sim_config()).unwrap();
        let via_scenario = scenario.run_on(&w.jobs, w.sim_config()).unwrap();
        let correction = triple.correction.map(|c| c.build());
        let cold = simulate_in(
            &mut SimArena::new(),
            &w.jobs,
            w.sim_config(),
            triple.variant.build().as_mut(),
            triple.prediction.build().as_mut(),
            correction.as_deref().map(|c| c as &dyn CorrectionPolicy),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(warm_up, cold);
        assert_eq!(via_scenario, cold);
    }
}
