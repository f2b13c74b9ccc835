//! The `Scenario` builder: the single public entry point for running
//! simulations.
//!
//! A scenario is a workload (any [`WorkloadSource`]) crossed with a
//! policy triple — scheduler × predictor × correction, each addressed
//! by its registry name ([`crate::registry`]) — plus an optional
//! per-event [`SimObserver`]. The builder defers all
//! resolution to [`ScenarioBuilder::build`], so misspelled policy names
//! surface as typed [`ScenarioError`]s instead of panics, and the same
//! `Scenario` can be rerun (predictor and scheduler state is rebuilt
//! fresh per run).
//!
//! ```
//! use predictsim_experiments::scenario::Scenario;
//! use predictsim_experiments::source::SyntheticSource;
//! use predictsim_workload::WorkloadSpec;
//!
//! let mut scenario = Scenario::builder()
//!     .workload(SyntheticSource::new(WorkloadSpec::toy(), 42))
//!     .scheduler("easy-sjbf")
//!     .predictor("ml:u=lin,o=sq,g=area")
//!     .correction("incremental")
//!     .build()
//!     .unwrap();
//! let result = scenario.run().unwrap();
//! assert_eq!(result.outcomes.len(), 2000);
//! println!("AVEbsld = {:.1}", result.ave_bsld());
//! ```
//!
//! Everything in the experiment layer — the §6.2 campaign, the tables,
//! the figures, the ablations, and the `repro` binary — runs through
//! this API; `HeuristicTriple::run` is a thin veneer over it.

use std::cell::RefCell;

use predictsim_sim::observe::{NullObserver, SimObserver};
use predictsim_sim::scheduler::Scheduler;
use predictsim_sim::{
    simulate_in, ArenaStats, ClusterSpec, Job, SimArena, SimConfig, SimError, SimResult,
};

use crate::registry::RegistryError;
use crate::source::{LoadedWorkload, SourceError, WorkloadSource};
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
/// ([`crate::cache::SimCache::run_cell_observed_traced`], whose callers
/// read their observer back afterwards, so they cannot hand it to a
/// `Scenario`).
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

/// The calling thread's cross-simulation scratch accounting (see
/// [`ArenaStats`]): how many simulations this thread has run through its
/// reusable arena, and how many of them grew any buffer.
pub fn thread_arena_stats() -> ArenaStats {
    WORKER_SCRATCH.with(|s| s.borrow().sim.stats())
}

/// Resets the calling thread's [`thread_arena_stats`] accounting
/// (buffers stay warm).
pub fn reset_thread_arena_stats() {
    WORKER_SCRATCH.with(|s| s.borrow_mut().sim.reset_stats());
}

/// Why a scenario could not be built or run.
#[derive(Debug)]
pub enum ScenarioError {
    /// A policy name did not resolve against the registry.
    Registry(RegistryError),
    /// The workload source failed to load.
    Source(SourceError),
    /// The builder was finalized without a workload.
    MissingWorkload,
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
            ScenarioError::Registry(e) => write!(f, "{e}"),
            ScenarioError::Source(e) => write!(f, "{e}"),
            ScenarioError::MissingWorkload => {
                write!(
                    f,
                    "scenario has no workload: call .workload(..) before .build()"
                )
            }
            ScenarioError::Sim(e) => write!(f, "{e}"),
            ScenarioError::CellPanicked(msg) => {
                write!(f, "cell simulation panicked (all retries): {msg}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<RegistryError> for ScenarioError {
    fn from(e: RegistryError) -> Self {
        ScenarioError::Registry(e)
    }
}

impl From<SourceError> for ScenarioError {
    fn from(e: SourceError) -> Self {
        ScenarioError::Source(e)
    }
}

impl From<SimError> for ScenarioError {
    fn from(e: SimError) -> Self {
        ScenarioError::Sim(e)
    }
}

/// Fluent constructor for [`Scenario`]s — see the module docs.
#[derive(Default)]
pub struct ScenarioBuilder {
    workload: Option<Box<dyn WorkloadSource + Send>>,
    scheduler: Option<String>,
    predictor: Option<String>,
    correction: Option<String>,
    cluster: Option<String>,
    observer: Option<Box<dyn SimObserver + Send>>,
}

impl ScenarioBuilder {
    /// Sets the workload source (synthetic spec, SWF log, or an already
    /// loaded workload).
    pub fn workload(mut self, source: impl WorkloadSource + Send + 'static) -> Self {
        self.workload = Some(Box::new(source));
        self
    }

    /// Selects the scheduler by registry name (e.g. `"easy-sjbf"`).
    pub fn scheduler(mut self, name: &str) -> Self {
        self.scheduler = Some(name.to_string());
        self
    }

    /// Selects the prediction technique by registry name (e.g. `"ave2"`,
    /// `"ml:u=lin,o=sq,g=area"`).
    pub fn predictor(mut self, name: &str) -> Self {
        self.predictor = Some(name.to_string());
        self
    }

    /// Selects the correction mechanism by registry name
    /// (e.g. `"incremental"`). Omit for techniques that never
    /// under-predict.
    pub fn correction(mut self, name: &str) -> Self {
        self.correction = Some(name.to_string());
        self
    }

    /// Places the workload on an explicit cluster, given as a spec
    /// string — the legacy `"64"` shorthand or the
    /// `"cluster:64x1+32x0.5"` grammar (see
    /// [`crate::registry::parse_cluster`]). Omit to run on the
    /// workload's own single homogeneous machine.
    pub fn cluster(mut self, spec: &str) -> Self {
        self.cluster = Some(spec.to_string());
        self
    }

    /// Installs a per-event observer (see `predictsim_sim::observe`).
    /// Use `MetricsObserver::shared()` to keep a readable handle.
    pub fn observer(mut self, observer: Box<dyn SimObserver + Send>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Resolves every registry name and finalizes the scenario.
    ///
    /// Unset policies take [`crate::registry::parse_triple`]'s
    /// defaults.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let workload = self.workload.ok_or(ScenarioError::MissingWorkload)?;
        let triple = crate::registry::parse_triple(
            self.scheduler.as_deref(),
            self.predictor.as_deref(),
            self.correction.as_deref(),
        )?;
        let cluster = self
            .cluster
            .map(|spec| crate::registry::parse_cluster(&spec))
            .transpose()?;
        Ok(Scenario {
            workload: Some(workload),
            triple,
            cluster,
            observer: self.observer,
        })
    }
}

impl std::fmt::Debug for ScenarioBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioBuilder")
            .field("workload", &self.workload.as_ref().map(|w| w.describe()))
            .field("scheduler", &self.scheduler)
            .field("predictor", &self.predictor)
            .field("correction", &self.correction)
            .field("cluster", &self.cluster)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

/// A runnable scenario: workload × policy triple × observer.
pub struct Scenario {
    workload: Option<Box<dyn WorkloadSource + Send>>,
    triple: HeuristicTriple,
    cluster: Option<ClusterSpec>,
    observer: Option<Box<dyn SimObserver + Send>>,
}

impl Scenario {
    /// Starts a fresh builder.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// A workload-less scenario carrying only the policy triple; run it
    /// with [`Scenario::run_on`] against externally managed jobs (the
    /// campaign runner shares one workload across 128 of these).
    pub fn from_triple(triple: &HeuristicTriple) -> Self {
        Self {
            workload: None,
            triple: triple.clone(),
            cluster: None,
            observer: None,
        }
    }

    /// The resolved policy triple.
    pub fn triple(&self) -> &HeuristicTriple {
        &self.triple
    }

    /// The cluster override, if one was set (`None` runs on the
    /// workload's own single homogeneous machine).
    pub fn cluster(&self) -> Option<ClusterSpec> {
        self.cluster
    }

    /// The campaign-style display name, e.g.
    /// `"ml(u=lin,o=sq,g=area)+incremental+easy-sjbf"`.
    pub fn name(&self) -> String {
        self.triple.name()
    }

    /// Loads the workload source without simulating (to inspect cleaning
    /// reports or job counts).
    pub fn load_workload(&self) -> Result<LoadedWorkload, ScenarioError> {
        self.workload
            .as_ref()
            .ok_or(ScenarioError::MissingWorkload)?
            .load()
            .map_err(ScenarioError::from)
    }

    /// Loads the workload and runs the simulation, reporting events to
    /// the installed observer (if any). Policies are rebuilt fresh, so
    /// repeated runs are independent and deterministic.
    pub fn run(&mut self) -> Result<SimResult, ScenarioError> {
        let loaded = self.load_workload()?;
        let config = match self.cluster {
            Some(cluster) => SimConfig { cluster },
            None => loaded.sim_config(),
        };
        self.run_on(&loaded.jobs, config)
    }

    /// Runs the policy triple on externally managed jobs (already
    /// validated, submit-ordered, densely numbered).
    ///
    /// Runs execute against the calling thread's `WorkerScratch` — the
    /// engine arena and the scheduler's scratch buffers are reused
    /// across simulations (behavior-identical: only capacity survives a
    /// run, never state), which is what lets a campaign worker simulate
    /// hundreds of triples while allocating ~nothing after warm-up.
    pub fn run_on(&mut self, jobs: &[Job], config: SimConfig) -> Result<SimResult, ScenarioError> {
        let mut null = NullObserver;
        let observer: &mut dyn SimObserver = match self.observer.as_mut() {
            Some(o) => o.as_mut(),
            None => &mut null,
        };
        run_triple_with_scratch(&self.triple, jobs, config, observer).map_err(ScenarioError::from)
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("workload", &self.workload.as_ref().map(|w| w.describe()))
            .field("triple", &self.triple.name())
            .field("cluster", &self.cluster)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SyntheticSource;
    use predictsim_sim::observe::MetricsObserver;
    use predictsim_workload::{generate, WorkloadSpec};

    fn tiny_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::toy();
        spec.jobs = 250;
        spec.duration = 3 * 86_400;
        spec
    }

    #[test]
    fn builder_matches_legacy_triple_run() {
        let w = generate(&tiny_spec(), 7);
        let legacy = HeuristicTriple::paper_winner()
            .run(&w.jobs, w.sim_config())
            .unwrap();
        let via_builder = Scenario::builder()
            .workload(SyntheticSource::new(tiny_spec(), 7))
            .scheduler("easy-sjbf")
            .predictor("ml(u=lin,o=sq,g=area)")
            .correction("incremental")
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            legacy, via_builder,
            "scenario path must be behavior-preserving"
        );
    }

    #[test]
    fn defaults_are_standard_easy() {
        let mut scenario = Scenario::builder()
            .workload(SyntheticSource::new(tiny_spec(), 9))
            .build()
            .unwrap();
        assert_eq!(scenario.name(), "requested+easy");
        let result = scenario.run().unwrap();
        let w = generate(&tiny_spec(), 9);
        let legacy = HeuristicTriple::standard_easy()
            .run(&w.jobs, w.sim_config())
            .unwrap();
        assert_eq!(result, legacy);
    }

    #[test]
    fn unknown_policy_names_fail_at_build_time() {
        let err = Scenario::builder()
            .workload(SyntheticSource::new(tiny_spec(), 1))
            .scheduler("round-robin")
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Registry(RegistryError::UnknownScheduler(_))
        ));
        let err = Scenario::builder().build().unwrap_err();
        assert!(matches!(err, ScenarioError::MissingWorkload));
    }

    #[test]
    fn observer_receives_the_run() {
        let (metrics, observer) = MetricsObserver::shared(64);
        let mut scenario = Scenario::builder()
            .workload(SyntheticSource::new(tiny_spec(), 3))
            .scheduler("easy")
            .predictor("ave2")
            .correction("incremental")
            .observer(observer)
            .build()
            .unwrap();
        let result = scenario.run().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.finished(), result.outcomes.len());
        assert!((snap.ave_bsld() - result.ave_bsld()).abs() < 1e-9);
        assert_eq!(snap.corrections(), result.total_corrections());
    }

    #[test]
    fn rerunning_a_scenario_is_deterministic() {
        let mut scenario = Scenario::builder()
            .workload(SyntheticSource::new(tiny_spec(), 5))
            .scheduler("easy-sjbf")
            .predictor("ml:u=sq,o=sq,g=q/p")
            .correction("req-time")
            .build()
            .unwrap();
        let a = scenario.run().unwrap();
        let b = scenario.run().unwrap();
        assert_eq!(a, b, "policy state must be rebuilt per run");
    }

    #[test]
    fn typed_setters_mirror_names() {
        let mut by_name = Scenario::builder()
            .workload(SyntheticSource::new(tiny_spec(), 6))
            .scheduler("conservative")
            .predictor("clairvoyant")
            .build()
            .unwrap();
        let mut typed = Scenario::from_triple(&HeuristicTriple::clairvoyant(Variant::Conservative));
        assert_eq!(by_name.name(), typed.name());
        let w = generate(&tiny_spec(), 6);
        assert_eq!(
            by_name.run().unwrap(),
            typed.run_on(&w.jobs, w.sim_config()).unwrap()
        );
    }

    #[test]
    fn explicit_legacy_cluster_is_byte_identical_to_default() {
        // `--cluster 64` on a 64-processor workload must be the exact
        // legacy single-machine run, byte for byte.
        let mut plain = Scenario::builder()
            .workload(SyntheticSource::new(tiny_spec(), 13))
            .scheduler("easy-sjbf")
            .predictor("ave2")
            .correction("incremental")
            .build()
            .unwrap();
        let mut pinned = Scenario::builder()
            .workload(SyntheticSource::new(tiny_spec(), 13))
            .scheduler("easy-sjbf")
            .predictor("ave2")
            .correction("incremental")
            .cluster("64")
            .build()
            .unwrap();
        assert_eq!(
            pinned.cluster(),
            Some(predictsim_sim::ClusterSpec::single(64))
        );
        assert_eq!(plain.run().unwrap(), pinned.run().unwrap());
    }

    #[test]
    fn heterogeneous_cluster_runs_and_places_on_both_partitions() {
        let mut scenario = Scenario::builder()
            .workload(SyntheticSource::new(tiny_spec(), 17))
            .scheduler("easy-sjbf")
            .predictor("requested")
            .cluster("cluster:64x1+32x0.5")
            .build()
            .unwrap();
        let a = scenario.run().unwrap();
        let b = scenario.run().unwrap();
        assert_eq!(a, b, "hetero runs must be deterministic");
        assert_eq!(a.machine_size, 96, "total processors across partitions");
        assert!(a.outcomes.iter().all(|o| o.partition <= 1));
        assert!(
            a.outcomes.iter().any(|o| o.partition == 1),
            "a loaded toy workload must spill onto the second partition"
        );
    }

    #[test]
    fn malformed_cluster_fails_at_build_time() {
        let err = Scenario::builder()
            .workload(SyntheticSource::new(tiny_spec(), 1))
            .cluster("cluster:8xturbo")
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Registry(RegistryError::MalformedCluster { .. })
        ));
    }

    #[test]
    fn from_triple_runs_on_shared_jobs() {
        let w = generate(&tiny_spec(), 8);
        let triple = HeuristicTriple::easy_plus_plus();
        let mut scenario = Scenario::from_triple(&triple);
        let via_scenario = scenario.run_on(&w.jobs, w.sim_config()).unwrap();
        let legacy = triple.run(&w.jobs, w.sim_config()).unwrap();
        assert_eq!(via_scenario, legacy);
        assert!(matches!(
            scenario.run().unwrap_err(),
            ScenarioError::MissingWorkload
        ));
    }
}
