//! # predictsim-metrics
//!
//! Scheduling and prediction quality metrics used throughout the
//! *predictsim-rs* reproduction of Gaussier et al., *"Improving Backfilling by
//! using Machine Learning to predict Running Times"* (SC '15).
//!
//! The crate is dependency-free and purely numerical. It provides:
//!
//! * [`bsld`] — the per-job *bounded slowdown* (paper §5.3), whose average
//!   over a schedule, AVEbsld, is the objective of Tables 1, 6 and 7;
//! * [`ecdf`] — empirical cumulative distribution functions (Figures 4 and 5);
//! * [`pearson`] — Pearson's correlation coefficient (Figure 3's inter-log
//!   correlation analysis, §6.3.2);
//! * [`error`] — the under-prediction rate of §2.2 / §6.4.
//!
//! All functions operate on plain `f64` values and slices so they can be
//! used on any simulator output without conversion glue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bsld;
pub mod ecdf;
pub mod error;
pub mod pearson;

pub use bsld::{bounded_slowdown, DEFAULT_TAU};
pub use ecdf::Ecdf;
pub use pearson::pearson_correlation;
