//! Simulation-as-a-service: a long-running daemon over the shared
//! [`SimCache`](predictsim_experiments::SimCache).
//!
//! Batch `repro` pays process startup, workload generation, and cache
//! attach on every invocation. `repro serve` starts this daemon once:
//! it listens on a local `127.0.0.1` TCP socket speaking
//! newline-delimited JSON (no network dependencies — framing is
//! hand-rolled over `std::net`), accepts scenario submissions in the
//! registry grammar, runs them on a bounded worker pool against the
//! process-wide [`SimCache`](predictsim_experiments::SimCache),
//! and streams per-job frames back:
//!
//! 1. `ack` — job id, resolved triple, resolved workload;
//! 2. `metrics` — every N simulated events: incremental AVEbsld, jobs
//!    started/finished
//!    ([`MetricsObserver`](predictsim_sim::MetricsObserver)), and a
//!    per-partition utilization time series on simulated-time buckets
//!    ([`UtilizationObserver`](predictsim_sim::UtilizationObserver)),
//!    both fed by the job's own observer;
//! 3. `result` — the exact `TripleResult` JSON batch mode produces
//!    (byte-identical to `repro scenario`'s `scenario.json`).
//!
//! Robustness is part of the protocol: per-request timeouts cancel
//! cooperatively through `SimObserver::keep_running`, the submission
//! queue is bounded (`busy` rejection, not OOM) and so is the size of
//! one requested workload, malformed requests get typed `error` frames
//! instead of disconnects, and shutdown drains — queued jobs are
//! rejected and in-flight simulations cancel.
//!
//! ```no_run
//! use predictsim_serve::{Client, Frame, ServeConfig, Server, Submission, WorkloadRequest};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! client
//!     .submit(&Submission::new(WorkloadRequest::Preset {
//!         log: "KTH".into(),
//!         scale: 0.05,
//!         seed: 20150101,
//!     }))
//!     .unwrap();
//! while let Some(Ok(frame)) = client.next_frame().unwrap() {
//!     if let Frame::Result { source, .. } = frame {
//!         println!("served from {source}");
//!         break;
//!     }
//! }
//! server.shutdown();
//! ```
//!
//! The crate root is the whole API; the modules behind it are private:
//!
//! ```compile_fail
//! use predictsim_serve::protocol::Frame;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod client;
mod protocol;
mod server;

pub use client::Client;
pub use protocol::{
    ErrorCode, Frame, Line, LineReader, ProtoError, Request, Submission, WorkloadRequest,
    DEFAULT_METRICS_EVERY, MAX_LINE_BYTES,
};
pub use server::{batch_result_json, build_workload, ServeConfig, Server};
