//! # predictsim-sim
//!
//! An event-driven batch-scheduling simulator — the Rust substrate
//! replacing the *pyss* fork used by Gaussier, Glesser, Reis & Trystram,
//! *"Improving Backfilling by using Machine Learning to predict Running
//! Times"* (SC '15).
//!
//! The platform model follows §2.3 of the paper: a pool of `m` identical
//! processors, rigid jobs submitted on-line, no preemption, and jobs
//! killed when they exceed their requested running time. Scheduling
//! policies ([`Scheduler`]) see running times only through *predictions*,
//! supplied by a [`RuntimePredictor`] and repaired on under-prediction
//! by a [`CorrectionPolicy`] (§5.2) — the exact interface the paper's
//! heuristic triples plug into.
//!
//! ## Architecture
//!
//! ```text
//!  Vec<Job> ──► simulate_in ──► SimResult (JobOutcome per job)
//!                 │        ▲
//!      Scheduler ─┘        └─ RuntimePredictor + CorrectionPolicy
//!      (EASY, EASY-SJBF,      (clairvoyant/requested here;
//!       FCFS, conservative)    learning-based in predictsim-core)
//! ```
//!
//! The crate root is the whole API (the one public module is [`hash`]):
//!
//! * [`Job`], [`JobId`], [`job_from_swf`] — the rigid-job model and SWF
//!   conversion;
//! * [`ClusterSpec`] — the partition model: ordered partitions with
//!   per-partition size and speed factor, first-fit routing; a
//!   1-partition/speed-1.0 spec *is* the paper's machine;
//! * [`Scheduler`] — FCFS, EASY, EASY-SJBF, conservative backfilling
//!   (allocation-free `schedule_into` passes over a [`SchedulerContext`]);
//! * [`RuntimePredictor`], [`CorrectionPolicy`] — the predictor and
//!   correction traits, with trivial baselines;
//! * [`simulate_in`] — the simulation driver over a reusable
//!   [`SimArena`]: arrivals read from the job slice, a deterministic
//!   order at each instant (finish ≺ expiry ≺ submit), batched events,
//!   outcomes written once in place and provably-idle pass skipping,
//!   over an indexed state (slot map, incremental release set and
//!   shortest-first view) that stays inside the crate;
//! * [`SimObserver`] — per-event observer hook, with incremental metrics
//!   in [`MetricsObserver`];
//! * [`SimResult`], [`JobOutcome`] — per-job outcomes and aggregate
//!   objectives (AVEbsld);
//! * [`audit()`] — independent re-verification of schedule invariants.
//!
//! The engine's machinery is not exported, so it can change without
//! changing a public name:
//!
//! ```compile_fail
//! use predictsim_sim::state::SimState;
//! ```
//!
//! The specification lives in the tests: `tests/support/reference.rs`
//! holds brute-force oracles for every scheduler pass and a whole-run
//! reference engine, and `tests/reference_engine.rs` asserts that
//! [`simulate_in`] reproduces its every [`JobOutcome`].
//!
//! ## Example: EASY vs clairvoyant EASY (the Table 1 experiment, in
//! miniature)
//!
//! ```
//! use predictsim_sim::{
//!     simulate_in, ClairvoyantPredictor, EasyScheduler, Job, JobId, NullObserver,
//!     RequestedTimePredictor, SimArena, SimConfig, Time,
//! };
//!
//! let jobs: Vec<Job> = (0..20)
//!     .map(|i| Job {
//!         id: JobId(i),
//!         submit: Time(i as i64 * 30),
//!         run: 300 + (i as i64 % 7) * 120,
//!         requested: 3600, // heavy over-estimation, as users do
//!         procs: 1 + (i % 4),
//!         user: i % 3,
//!         user_ix: i % 3,
//!         swf_id: i as u64,
//!     })
//!     .collect();
//! let cfg = SimConfig::single(8);
//! // One arena serves both runs: it keeps capacity, never state.
//! let mut arena = SimArena::new();
//!
//! let easy = simulate_in(&mut arena, &jobs, cfg, &mut EasyScheduler::new(),
//!                        &mut RequestedTimePredictor, None, &mut NullObserver).unwrap();
//! let clair = simulate_in(&mut arena, &jobs, cfg, &mut EasyScheduler::new(),
//!                         &mut ClairvoyantPredictor, None, &mut NullObserver).unwrap();
//! assert_eq!(easy.outcomes.len(), 20);
//! assert_eq!(clair.outcomes.len(), 20);
//! println!("EASY AVEbsld = {:.2}, clairvoyant = {:.2}",
//!          easy.ave_bsld(), clair.ave_bsld());
//! ```
//!
//! (On full-size workloads clairvoyance improves AVEbsld substantially —
//! Table 1 of the paper, regenerated by `repro table1` — but the gain is a
//! statistical property, not a per-instance guarantee.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

// The oracle unit tests include `tests/support/reference.rs`, which
// names this crate by its package name.
#[cfg(test)]
extern crate self as predictsim_sim;

mod arena;
mod audit;
mod cluster;
mod engine;
mod event;
/// The one public module: the benchmark package's `campaign_cold`
/// workload and the CLI tests reach `hash::fnv1a64` by this path.
pub mod hash;
mod job;
mod observe;
#[cfg(test)]
mod oracles;
mod outcome;
mod predict;
mod scheduler;
mod state;
mod time;

pub use arena::SimArena;
pub use audit::{audit, AuditReport, AuditViolation};
pub use cluster::{ClusterSpec, ClusterSpecError, Partition, MAX_PARTITIONS};
pub use engine::{simulate_in, SimConfig, SimError};
pub use job::{intern_users, job_from_swf, swf_user, Job, JobConversionError, JobId};
pub use observe::{MetricsObserver, NullObserver, SimEvent, SimObserver, UtilizationObserver};
pub use outcome::{JobOutcome, SimResult};
pub use predict::{
    ClairvoyantPredictor, CorrectionPolicy, RequestedTimeCorrection, RequestedTimePredictor,
    RuntimePredictor,
};
// `ReleaseSet`, `ReleasePoint` and `sorted_shortest_first` are exported
// because `SchedulerContext`'s public `releases` and `shortest_first`
// fields expose them: a policy reads them, and a test that builds a
// context by hand needs them.
pub use scheduler::{
    BackfillOrder, ConservativeScheduler, EasyScheduler, FcfsScheduler, ReleasePoint, ReleaseSet,
    Scheduler,
};
pub use state::{sorted_shortest_first, RunningJob, SchedulerContext, SystemView, WaitingJob};
pub use time::{format_duration, Time, DAY, HOUR, MINUTE, WEEK};
