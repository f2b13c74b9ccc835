//! # predictsim-metrics
//!
//! Scheduling and prediction quality metrics used throughout the
//! *predictsim-rs* reproduction of Gaussier et al., *"Improving Backfilling by
//! using Machine Learning to predict Running Times"* (SC '15).
//!
//! The crate is dependency-free and purely numerical. It provides:
//!
//! * [`bsld`] — the *bounded slowdown* objective (paper §5.3) and its average
//!   [`bsld::ave_bsld`], the single objective function used in every table of
//!   the paper's evaluation;
//! * [`ecdf`] — empirical cumulative distribution functions (Figures 4 and 5);
//! * [`pearson`] — Pearson's correlation coefficient (Figure 3's inter-log
//!   correlation analysis, §6.3.2);
//! * [`error`] — the under-prediction rate of §2.2 / §6.4.
//!
//! All functions operate on plain `f64` slices so they can be used on any
//! simulator output without conversion glue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bsld;
pub mod ecdf;
pub mod error;
pub mod pearson;

pub use bsld::{ave_bsld, bounded_slowdown, BsldRecord, DEFAULT_TAU};
pub use ecdf::Ecdf;
pub use pearson::pearson_correlation;
