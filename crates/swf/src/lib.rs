//! # predictsim-swf
//!
//! A toolkit for the **Standard Workload Format** (SWF) of the Parallel
//! Workloads Archive (Feitelson, Tsafrir & Krakov, *"Experience with using
//! the parallel workloads archive"*, JPDC 2014 — reference \[5\] of the
//! reproduced paper).
//!
//! The SC '15 paper evaluates its prediction-augmented backfilling on six
//! production logs distributed in SWF (Table 4). This crate handles the
//! format only — reading and writing such logs, or the synthetic
//! equivalents produced by `predictsim-workload`:
//!
//! * [`SwfRecord`] — the 18-field SWF job record;
//! * [`SwfHeader`] — the `;`-prefixed header metadata (`MaxProcs`,
//!   `UnixStartTime`, …);
//! * [`parse_log`] / [`SwfStream`] / [`write_log`] — whole-text and
//!   streaming parse, and serialization.
//!
//! What makes a log *clean* enough to simulate (dropping canceled and
//! oversize jobs, repairing requested times, submit-time ordering) is
//! decided in one place, the loader that feeds the simulator:
//! `predictsim_experiments::SwfSource`.
//!
//! The crate root is the whole API; the modules behind it are private:
//!
//! ```compile_fail
//! use predictsim_swf::reader::parse_log;
//! ```
//!
//! ## Quick example
//!
//! ```
//! use predictsim_swf::{parse_log, write_log};
//!
//! let text = "\
//! ; MaxProcs: 4
//! 1 0 10 100 2 -1 -1 2 200 -1 1 7 1 3 1 -1 -1 -1
//! 2 5 -1 50 1 -1 -1 1 100 -1 1 8 1 3 1 -1 -1 -1
//! ";
//! let log = parse_log(text).unwrap();
//! assert_eq!(log.header.max_procs, Some(4));
//! assert_eq!(log.records.len(), 2);
//! assert_eq!(log.records[0].run_time, 100);
//! let round_trip = parse_log(&write_log(&log)).unwrap();
//! assert_eq!(round_trip.records, log.records);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod header;
mod reader;
mod record;
mod writer;

pub use header::SwfHeader;
pub use reader::{parse_log, ParseError, SwfLog, SwfStream};
pub use record::{SwfRecord, MISSING};
pub use writer::write_log;
