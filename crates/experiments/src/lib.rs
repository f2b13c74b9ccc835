//! # predictsim-experiments
//!
//! The experiment campaign of §6 of Gaussier et al. (SC '15), end to end:
//!
//! * [`Scenario`] — one resolved policy triple, run on a loaded
//!   workload;
//! * [`parse_triple`], [`parse_ml`], [`parse_cluster`] and
//!   [`render_registry`] — the string-keyed policy registry
//!   (`"easy-sjbf"`, `"ave2"`, `"ml(u=lin,o=sq,g=area)"`, …) with
//!   parse/display round-tripping and typed [`RegistryError`]s;
//! * [`WorkloadSource::load`] — synthetic generation
//!   ([`SyntheticSource`]) and real SWF logs ([`SwfSource`]) into one
//!   [`LoadedWorkload`];
//! * [`HeuristicTriple`] — the heuristic-triple space (prediction ×
//!   correction × backfilling variant), exactly 128 per log as in §6.2
//!   ([`campaign_triples`]);
//! * [`run_campaign_loaded`] — the parallel campaign runner, every cell
//!   through the process-wide [`SimCache`];
//! * [`cross_validate`] — leave-one-out cross-validated triple
//!   selection (§6.3.3);
//! * [`table1`], [`table6`], [`table7`], [`table8`] — regenerators for
//!   Tables 1, 6, 7 and 8;
//! * [`fig3`], [`fig4_fig5`] — regenerators for Figures 3, 4 and 5;
//! * [`ablate_scheduler`] and its siblings — additional ablations
//!   (scheduler, correction, optimizer, basis, loss shape);
//! * [`ExperimentSetup`] — workload setup shared by the `repro` binary,
//!   tests and `bench/`;
//! * [`PhaseTimer`] — per-phase wall-clock accounting for
//!   `repro --timing`;
//! * [`set_progress`] — opt-in per-cell progress lines for long runs
//!   (`repro --progress`, implied by `--full`).
//!
//! The crate root is the whole API; the modules behind it are private:
//!
//! ```compile_fail
//! use predictsim_experiments::cache::SimCache;
//! ```
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
#![warn(unreachable_pub)]

mod ablation;
mod cache;
mod campaign;
mod context;
mod cv;
mod figures;
mod progress;
mod registry;
mod scenario;
mod source;
mod tables;
mod timing;
mod triple;

pub use ablation::{
    ablate_basis, ablate_correction, ablate_loss, ablate_optimizer, ablate_scheduler,
    render_ablation, AblationRow,
};
pub use cache::{CacheStats, CachedCell, CellSource, SimCache};
pub use campaign::{run_campaign_cluster, run_campaign_loaded, CampaignResult, TripleResult};
pub use context::{ExperimentSetup, DEFAULT_SEED, QUICK_SCALE};
pub use cv::{cross_validate, CvOutcome, CvRow};
pub use figures::{
    fig3, fig4_fig5, render_ecdf_series, render_fig3, EcdfSeries, Fig3, Fig3Point, Fig45,
};
pub use progress::set_progress;
pub use registry::{
    parse_cluster, parse_ml, parse_triple, registered_corrections, registered_predictors,
    registered_schedulers, render_registry, PolicyEntry, RegistryError,
};
pub use scenario::{Scenario, ScenarioError};
pub use source::{
    CleaningReport, JobArena, LoadStats, LoadedWorkload, SourceError, SwfSource, SyntheticSource,
    WorkloadSource,
};
pub use tables::{
    render_table1, render_table6, render_table7, render_table8, table1, table6, table7, table8,
    Table1Row, Table6Row, Table8Row,
};
pub use timing::PhaseTimer;
pub use triple::{
    campaign_triples, reference_triples, CorrectionKind, HeuristicTriple, PredictionTechnique,
    Variant,
};
