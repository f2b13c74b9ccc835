//! # predictsim-metrics
//!
//! Scheduling and prediction quality metrics used throughout the
//! *predictsim-rs* reproduction of Gaussier et al., *"Improving Backfilling by
//! using Machine Learning to predict Running Times"* (SC '15).
//!
//! The crate is dependency-free and purely numerical. It provides:
//!
//! * [`bounded_slowdown`] — the per-job *bounded slowdown* (paper §5.3),
//!   whose average over a schedule, AVEbsld, is the objective of
//!   Tables 1, 6 and 7;
//! * [`Ecdf`] — empirical cumulative distribution functions (Figures 4
//!   and 5);
//! * [`pearson_correlation`], [`pairwise_correlation_summary`] —
//!   Pearson's correlation coefficient (Figure 3's inter-log correlation
//!   analysis, §6.3.2);
//! * [`underprediction_rate`] — the under-prediction rate of §2.2 / §6.4.
//!
//! All functions operate on plain `f64` values and slices so they can be
//! used on any simulator output without conversion glue. The crate root
//! is the whole API:
//!
//! ```
//! use predictsim_metrics::underprediction_rate;
//!
//! assert_eq!(underprediction_rate(&[90.0, 200.0], &[100.0, 100.0]), 0.5);
//! ```
//!
//! and the modules behind it are private:
//!
//! ```compile_fail
//! use predictsim_metrics::error::underprediction_rate;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bsld;
mod ecdf;
mod error;
mod pearson;

pub use bsld::{bounded_slowdown, DEFAULT_TAU};
pub use ecdf::Ecdf;
pub use error::underprediction_rate;
pub use pearson::{pairwise_correlation_summary, pearson_correlation};
