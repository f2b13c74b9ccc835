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
//! policies ([`scheduler`]) see running times only through *predictions*,
//! supplied by a [`predict::RuntimePredictor`] and repaired on
//! under-prediction by a [`predict::CorrectionPolicy`] (§5.2) — the exact
//! interface the paper's heuristic triples plug into.
//!
//! ## Architecture
//!
//! ```text
//!  Vec<Job> ──► engine::simulate_in ──► SimResult (JobOutcome per job)
//!                 │        ▲
//!      Scheduler ─┘        └─ RuntimePredictor + CorrectionPolicy
//!      (EASY, EASY-SJBF,      (clairvoyant/requested here;
//!       FCFS, conservative)    learning-based in predictsim-core)
//! ```
//!
//! * [`job`] — the rigid-job model and SWF conversion;
//! * [`cluster`] — the [`cluster::ClusterSpec`] partition model: ordered
//!   partitions with per-partition size and speed factor, first-fit
//!   routing; a 1-partition/speed-1.0 spec *is* the paper's machine;
//! * [`event`] — deterministic event queue (finish ≺ expiry ≺ submit);
//! * [`state`] — the indexed [`state::SimState`] (slot map, incremental
//!   release set and shortest-first view) plus the read-only snapshots
//!   handed to policies;
//! * [`scheduler`] — FCFS, EASY, EASY-SJBF, conservative backfilling
//!   (allocation-free `schedule_into` passes);
//! * [`predict`] — predictor/correction traits and trivial baselines;
//! * [`engine`] — the simulation driver (pre-sorted submit schedule,
//!   batched events, provably-idle pass skipping);
//! * [`observe`] — per-event observer hook and incremental metrics;
//! * [`outcome`] — per-job outcomes and aggregate objectives (AVEbsld);
//! * [`mod@audit`] — independent re-verification of schedule invariants.
//!
//! The specification lives in the tests: `tests/support/reference.rs`
//! holds brute-force oracles for every scheduler pass and a whole-run
//! reference engine, and `tests/reference_engine.rs` asserts that
//! [`engine::simulate_in`] reproduces its every [`outcome::JobOutcome`].
//!
//! ## Example: EASY vs clairvoyant EASY (the Table 1 experiment, in
//! miniature)
//!
//! ```
//! use predictsim_sim::arena::SimArena;
//! use predictsim_sim::engine::{simulate_in, SimConfig};
//! use predictsim_sim::job::{Job, JobId};
//! use predictsim_sim::observe::NullObserver;
//! use predictsim_sim::predict::{ClairvoyantPredictor, RequestedTimePredictor};
//! use predictsim_sim::scheduler::EasyScheduler;
//! use predictsim_sim::time::Time;
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

pub mod arena;
pub mod audit;
pub mod cluster;
pub mod engine;
pub mod event;
pub mod hash;
pub mod job;
pub mod observe;
pub mod outcome;
pub mod predict;
pub mod scheduler;
pub mod state;
pub mod time;

pub use arena::SimArena;
pub use audit::{audit, AuditReport, AuditViolation};
pub use cluster::{ClusterSpec, ClusterSpecError, Partition, MAX_PARTITIONS};
pub use engine::{simulate_in, SimConfig, SimError};
pub use job::{intern_users, job_from_swf, swf_user, Job, JobId};
pub use observe::{MetricsObserver, NullObserver, SimEvent, SimObserver, UtilizationObserver};
pub use outcome::{JobOutcome, SimResult};
pub use predict::{
    ClairvoyantPredictor, CorrectionPolicy, RequestedTimeCorrection, RequestedTimePredictor,
    RuntimePredictor,
};
pub use scheduler::{
    BackfillOrder, ConservativeScheduler, EasyScheduler, FcfsScheduler, ReleasePoint, ReleaseSet,
    Scheduler,
};
pub use state::{RunningJob, SchedulerContext, SimState, SystemView, WaitingJob};
pub use time::Time;
