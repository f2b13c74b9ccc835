//! # predictsim-core
//!
//! The primary contribution of Gaussier, Glesser, Reis & Trystram,
//! *"Improving Backfilling by using Machine Learning to predict Running
//! Times"* (SC '15): **on-line machine-learned running-time prediction
//! engineered for backfilling**, plus the correction mechanisms that make
//! the predictions safe to schedule with.
//!
//! ## The method (§4 of the paper)
//!
//! 1. Each job is represented by the minimal-information feature vector
//!    of Table 2 ([`FeatureExtractor`]): the user's requested time and
//!    resource count, per-user running-time history, the user's
//!    currently-running jobs, and periodic encodings of the submission
//!    instant.
//! 2. Features pass through a degree-2 polynomial basis
//!    ([`PolynomialBasis`]) — the regression function of Equation (1),
//!    `f(w,x) = wᵀΦ(x)`.
//! 3. The weights minimize a cumulative **asymmetric, per-job-weighted
//!    loss** ([`AsymmetricLoss`], [`WeightingScheme`]) with ℓ2
//!    regularization (Equation 2): under- and over-prediction get
//!    different basis losses (linear or squared), and jobs get weights
//!    γ_j reflecting how much their misprediction hurts backfilling
//!    (Table 3).
//! 4. Learning is on-line via the Normalized Adaptive Gradient algorithm
//!    ([`NagOptimizer`], reference \[19\]), robust to the wild feature
//!    scales of HPC logs.
//! 5. At scheduling time, under-predicted jobs are repaired by a simple
//!    correction policy (§5.2: [`IncrementalCorrection`],
//!    [`RecursiveDoublingCorrection`],
//!    [`predictsim_sim::RequestedTimeCorrection`])
//!    rather than by re-querying the model.
//!
//! The winning *heuristic triple* of §6.3.3 is [`MlPredictor::e_loss`]
//! (E-Loss: squared over-prediction branch, linear under-prediction
//! branch, large-area weight `log(q·p)`) combined with
//! [`IncrementalCorrection`] and EASY-SJBF (in `predictsim-sim`).
//!
//! The crate root is the whole API; the modules behind it are private:
//!
//! ```compile_fail
//! use predictsim_core::basis::Basis;
//! ```
//!
//! ## Quick example
//!
//! ```
//! use predictsim_core::{IncrementalCorrection, MlPredictor};
//! use predictsim_sim::{
//!     simulate_in, EasyScheduler, Job, JobId, NullObserver, SimArena, SimConfig, Time,
//! };
//!
//! // A user whose jobs always run ~900s but request 10h.
//! let jobs: Vec<Job> = (0..200)
//!     .map(|i| Job {
//!         id: JobId(i),
//!         submit: Time(i as i64 * 600),
//!         run: 880 + (i as i64 % 5) * 10,
//!         requested: 36_000,
//!         procs: 4,
//!         user: 0,
//!         user_ix: 0,
//!         swf_id: i as u64,
//!     })
//!     .collect();
//!
//! let mut predictor = MlPredictor::e_loss();
//! let correction = IncrementalCorrection::new();
//! let result = simulate_in(
//!     &mut SimArena::new(),
//!     &jobs,
//!     SimConfig::single(16),
//!     &mut EasyScheduler::sjbf(),
//!     &mut predictor,
//!     Some(&correction),
//!     &mut NullObserver,
//! )
//! .unwrap();
//! assert_eq!(result.outcomes.len(), 200);
//! // The model has learned on-line from every completion.
//! assert_eq!(predictor.examples(), 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod basis;
mod correction;
mod eloss;
mod features;
mod loss;
mod model;
mod optimizer;
mod predictor;
mod weighting;

pub use basis::{Basis, LinearBasis, PolynomialBasis};
pub use correction::{IncrementalCorrection, RecursiveDoublingCorrection};
pub use eloss::{eloss, mae_of_outcomes, mean_eloss_of_outcomes};
pub use features::{FeatureExtractor, FEATURE_NAMES, N_FEATURES};
pub use loss::{loss_shapes, AsymmetricLoss, BasisLoss};
pub use model::{LearnRecord, OnlineRegression, DEFAULT_ETA, DEFAULT_L2};
pub use optimizer::{AdaGradOptimizer, NagOptimizer, OnlineOptimizer, SgdOptimizer};
pub use predictor::{ml_grid, Ave2Predictor, BasisKind, MlConfig, MlPredictor, OptimizerKind};
pub use weighting::WeightingScheme;
