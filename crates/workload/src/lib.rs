//! # predictsim-workload
//!
//! Synthetic HPC workload models for the *predictsim-rs* reproduction of
//! Gaussier et al. (SC '15).
//!
//! The paper's evaluation runs on six production logs from the Parallel
//! Workloads Archive and Metacentrum (Table 4). Those logs cannot be
//! redistributed with this repository, so this crate generates synthetic
//! stand-ins that reproduce — explicitly and controllably — the workload
//! phenomena the paper's method depends on:
//!
//! * **per-user running-time locality**: users resubmit the same
//!   applications in sessions, so consecutive running times correlate
//!   (the signal behind AVE₂ \[24\] and the Table 2 history features);
//! * **requested-time over-estimation**: per-user padding factors and
//!   modal rounding ("users tend to significantly increase the duration
//!   estimates", §2.1, after \[23\]);
//! * **diurnal and weekly cycles** feeding the periodic features;
//! * **crash noise**: jobs that die early with huge requests — the
//!   robustness hazard of §4.1;
//! * **high utilization**, which is what makes backfilling quality matter
//!   (§6.2).
//!
//! Real SWF logs remain first-class citizens: everything downstream
//! consumes `Vec<Job>`, which `predictsim-swf` produces from any PWA log.
//!
//! ```
//! use predictsim_workload::{generate, WorkloadSpec};
//!
//! let w = generate(&WorkloadSpec::toy(), 42);
//! assert_eq!(w.jobs.len(), 2000);
//! // Deterministic: the same seed always yields the same workload.
//! assert_eq!(generate(&WorkloadSpec::toy(), 42).jobs, w.jobs);
//! ```
//!
//! The crate root is the whole API; the modules behind it are private:
//!
//! ```compile_fail
//! use predictsim_workload::presets::by_name;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod generator;
mod presets;
mod sampling;
mod spec;
mod users;

pub use generator::{generate, GeneratedWorkload, WorkloadStats};
pub use presets::{all_six, by_name};
pub use spec::WorkloadSpec;
