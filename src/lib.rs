//! # predictsim
//!
//! A production-quality Rust reproduction of **Gaussier, Glesser, Reis &
//! Trystram, *"Improving Backfilling by using Machine Learning to predict
//! Running Times"*, SuperComputing 2015** — on-line machine-learned
//! running-time prediction integrated into EASY backfilling, evaluated by
//! full scheduling simulation.
//!
//! This crate is the façade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `predictsim-core` | the paper's contribution: Table 2 features, Eq. 1 polynomial model, the §4.2 asymmetric weighted loss family, NAG training, §5.2 corrections, Table 8's MAE and mean E-Loss |
//! | [`sim`] | `predictsim-sim` | event-driven batch simulator, EASY / EASY-SJBF / FCFS / conservative schedulers, prediction + correction interfaces, audit |
//! | [`swf`] | `predictsim-swf` | Standard Workload Format parsing and writing (the cleaning rules live in [`experiments::SwfSource`]) |
//! | [`workload`] | `predictsim-workload` | synthetic stand-ins for the six Table 4 logs |
//! | [`metrics`] | `predictsim-metrics` | bounded slowdown, ECDF, Pearson, under-prediction rate |
//! | [`experiments`] | `predictsim-experiments` | the §6 campaign: 128 heuristic triples/log, cross-validation, every table and figure |
//!
//! ## Quickstart: the `Scenario` API
//!
//! A [`experiments::Scenario`] is one heuristic triple — parsed from its
//! registry name (run `repro --list` for the full inventory) — run on a
//! loaded workload.
//!
//! ```
//! use predictsim::prelude::*;
//!
//! // 1. A workload: synthetic here; `SwfSource::new("log.swf").load()`
//! //    reads a real Parallel Workloads Archive trace the same way.
//! let workload = SyntheticSource::new(WorkloadSpec::toy(), 42).load()?;
//!
//! // 2. Standard EASY (user-requested times) ...
//! let easy: HeuristicTriple = "requested+easy".parse()?;
//! let easy = Scenario::from_triple(&easy).run_on(&workload.jobs, workload.sim_config())?;
//!
//! // 3. ... versus the paper's prediction-augmented scheduler:
//! //    E-Loss-trained NAG regression + incremental correction + SJBF.
//! let ml: HeuristicTriple = "ml(u=lin,o=sq,g=area)+incremental+easy-sjbf".parse()?;
//! let ml = Scenario::from_triple(&ml).run_on(&workload.jobs, workload.sim_config())?;
//!
//! println!("EASY AVEbsld = {:.1}", easy.ave_bsld());
//! println!("ML   AVEbsld = {:.1}", ml.ave_bsld());
//! assert_eq!(easy.outcomes.len(), ml.outcomes.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Reproducing the paper
//!
//! ```text
//! cargo run --release -p predictsim --bin repro -- all
//! ```
//!
//! regenerates Tables 1, 6, 7, 8 and Figures 3, 4, 5 (see EXPERIMENTS.md
//! for the recorded paper-vs-measured comparison); `bench/` (its own
//! package, see `bench/README.md`) is the performance ledger over the
//! same entry points. `repro serve` keeps the process (and its warm
//! [`serve`] simulation cache) resident as a local daemon.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use predictsim_core as core;
pub use predictsim_experiments as experiments;
pub use predictsim_metrics as metrics;
pub use predictsim_serve as serve;
pub use predictsim_sim as sim;
pub use predictsim_swf as swf;
pub use predictsim_workload as workload;

/// The most common imports, for examples and quick scripts.
pub mod prelude {
    pub use predictsim_core::{
        AsymmetricLoss, Ave2Predictor, IncrementalCorrection, MlConfig, MlPredictor,
        RecursiveDoublingCorrection, WeightingScheme,
    };
    pub use predictsim_experiments::{
        campaign_triples, cross_validate, run_campaign_cluster, run_campaign_loaded,
        CleaningReport, CorrectionKind, ExperimentSetup, HeuristicTriple, LoadedWorkload,
        PredictionTechnique, RegistryError, Scenario, ScenarioError, SourceError, SwfSource,
        SyntheticSource, Variant, WorkloadSource,
    };
    pub use predictsim_metrics::{bounded_slowdown, Ecdf, DEFAULT_TAU};
    pub use predictsim_sim::{
        simulate_in, ClairvoyantPredictor, EasyScheduler, FcfsScheduler, Job, JobId,
        MetricsObserver, NullObserver, RequestedTimeCorrection, RequestedTimePredictor, SimArena,
        SimConfig, SimEvent, SimObserver, Time,
    };
    pub use predictsim_workload::{generate, GeneratedWorkload, WorkloadSpec};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let spec = WorkloadSpec::toy();
        assert_eq!(spec.machine_size, 64);
        assert_eq!(DEFAULT_TAU, 10.0);
    }
}
