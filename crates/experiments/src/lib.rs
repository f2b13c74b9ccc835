//! # predictsim-experiments
//!
//! The experiment campaign of §6 of Gaussier et al. (SC '15), end to end:
//!
//! * [`scenario`] — a `Scenario` is one resolved policy triple, run on
//!   a loaded workload;
//! * [`registry`] — the string-keyed policy registry (`"easy-sjbf"`,
//!   `"ave2"`, `"ml(u=lin,o=sq,g=area)"`, …) with parse/display
//!   round-tripping and typed errors;
//! * [`source`] — `WorkloadSource::load`: synthetic generation and real
//!   SWF logs into one `LoadedWorkload`;
//! * [`triple`] — the heuristic-triple space (prediction × correction ×
//!   backfilling variant), exactly 128 per log as in §6.2;
//! * [`campaign`] — the parallel campaign runner;
//! * [`cv`] — leave-one-out cross-validated triple selection (§6.3.3);
//! * [`tables`] — regenerators for Tables 1, 6, 7 and 8;
//! * [`figures`] — regenerators for Figures 3, 4 and 5;
//! * [`ablation`] — additional ablations (scheduler, correction,
//!   optimizer, basis, loss shape);
//! * [`context`] — workload setup shared by the `repro` binary, tests
//!   and `bench/`;
//! * [`timing`] — per-phase wall-clock accounting for `repro --timing`;
//! * [`progress`] — opt-in per-cell progress lines for long runs
//!   (`repro --progress`, implied by `--full`).
//!
//! Every fan-out site (campaign triples, CV folds, ablation grids,
//! per-log table loops, figure simulations) runs on the `vendor/rayon`
//! thread pool; `RAYON_NUM_THREADS` (or `repro --threads N`) pins the
//! width, and results are bit-identical at any width.
//!
//! The `repro` binary regenerates any table or figure:
//!
//! ```text
//! cargo run --release -p predictsim --bin repro -- all
//! cargo run --release -p predictsim --bin repro -- table6 --scale 0.1
//! cargo run --release -p predictsim --bin repro -- fig4 --full
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cache;
pub mod campaign;
pub mod context;
pub mod cv;
pub mod figures;
pub mod progress;
pub mod registry;
pub mod scenario;
pub mod source;
pub mod tables;
pub mod timing;
pub mod triple;

pub use cache::{CacheStats, CachedCell, CellSource, SimCache};

pub use campaign::{run_campaign_cluster, run_campaign_loaded, CampaignResult, TripleResult};
pub use context::{ExperimentSetup, DEFAULT_SEED, QUICK_SCALE};
pub use cv::{cross_validate, CvOutcome, CvRow};
/// The deterministic fault-injection layer (`REPRO_FAULTS`, chaos
/// tests) — re-exported so experiment consumers and integration tests
/// reach it without a separate dependency edge.
pub use predictsim_faultline as faultline;
pub use registry::{
    registered_corrections, registered_predictors, registered_schedulers, render_registry,
    PolicyEntry, RegistryError,
};
pub use scenario::{Scenario, ScenarioError};
pub use source::{
    CleaningReport, JobArena, LoadStats, LoadedWorkload, SourceError, SwfSource, SyntheticSource,
    WorkloadSource,
};
pub use triple::{
    campaign_triples, reference_triples, CorrectionKind, HeuristicTriple, PredictionTechnique,
    Variant,
};
