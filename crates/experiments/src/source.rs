//! Unified workload sources: synthetic generation and real SWF logs.
//!
//! Everything downstream of the engine consumes a [`LoadedWorkload`] — a
//! validated, submit-ordered, densely numbered job vector plus the
//! machine size to simulate on. A [`WorkloadSource`] is anything that can
//! produce one:
//!
//! * [`SyntheticSource`] wraps `predictsim_workload::generate` (the
//!   Table 4 synthetic stand-ins, or any custom [`WorkloadSpec`]);
//! * [`SwfSource`] reads a Standard Workload Format log — from a file or
//!   from in-memory text — through `predictsim_swf`'s parser, cleans it
//!   (this module is the one place that says what a clean log is), and
//!   converts the records into engine jobs.
//!
//! An already-generated [`GeneratedWorkload`] converts with
//! `LoadedWorkload::from`. Whichever way the jobs arrive, the same
//! campaign runs on a synthetic log one day and a Parallel Workloads
//! Archive trace the next.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use predictsim_sim::hash::fnv1a64;
use predictsim_sim::{
    intern_users, job_from_swf, swf_user, Job, JobConversionError, JobId, SimConfig,
};
use predictsim_swf::{ParseError, SwfStream};
use predictsim_workload::{generate, GeneratedWorkload, WorkloadSpec};

/// Why a workload source failed to produce simulator-ready jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The backing file could not be read.
    Io {
        /// Path that failed.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// The SWF text did not parse.
    Parse(ParseError),
    /// The machine size is unknown: no `MaxProcs`/`MaxNodes` header and
    /// no record with a processor count.
    UnknownMachineSize,
    /// A cleaned record still could not be converted into an engine job.
    Conversion(JobConversionError),
    /// The produced jobs failed structural validation.
    Invalid(String),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Io { path, message } => {
                write!(f, "cannot read {}: {message}", path.display())
            }
            SourceError::Parse(e) => write!(f, "{e}"),
            SourceError::UnknownMachineSize => write!(
                f,
                "machine size unknown: no MaxProcs header and no record with a processor count"
            ),
            SourceError::Conversion(e) => write!(f, "{e}"),
            SourceError::Invalid(message) => write!(f, "invalid workload: {message}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<ParseError> for SourceError {
    fn from(e: ParseError) -> Self {
        SourceError::Parse(e)
    }
}

impl From<JobConversionError> for SourceError {
    fn from(e: JobConversionError) -> Self {
        SourceError::Conversion(e)
    }
}

/// An immutable, shareable job vector with a content fingerprint.
///
/// The experiment layer fans one workload out to hundreds of
/// simulations (128 triples per log, re-read by cross-validation,
/// tables, figures and ablations). The arena makes that sharing free —
/// cloning is an `Arc` bump, never a copy of the jobs — and carries a
/// stable content [fingerprint](JobArena::fingerprint), computed once
/// per load, that keys the simulation cache
/// ([`crate::cache::SimCache`]) within and across processes.
///
/// Derefs to `[Job]`, so any `&[Job]` consumer takes `&arena`.
#[derive(Debug, Clone)]
pub struct JobArena {
    inner: Arc<ArenaInner>,
}

#[derive(Debug)]
struct ArenaInner {
    jobs: Vec<Job>,
    fingerprint: u64,
    user_count: u32,
}

impl JobArena {
    /// Takes ownership of `jobs`, fingerprinting them once.
    pub fn new(jobs: Vec<Job>) -> Self {
        let fingerprint = fingerprint_jobs(&jobs);
        let user_count = jobs.iter().map(|j| j.user_ix + 1).max().unwrap_or(0);
        Self {
            inner: Arc::new(ArenaInner {
                jobs,
                fingerprint,
                user_count,
            }),
        }
    }

    /// The jobs as a slice.
    pub fn jobs(&self) -> &[Job] {
        &self.inner.jobs
    }

    /// Number of distinct (interned) users: `user_ix` spans
    /// `0..user_count`. Sized once at arena construction so per-user
    /// slabs can be pre-allocated without scanning.
    pub fn user_count(&self) -> u32 {
        self.inner.user_count
    }

    /// A stable 64-bit content fingerprint (FNV-1a over every job
    /// field, in job order). Two arenas with equal fingerprints hold, up
    /// to hash collision, the same workload — the identity the
    /// simulation cache keys on. The encoding is fixed, so fingerprints
    /// are comparable across processes and platforms (the persistent
    /// `--cache` layer relies on this).
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint
    }
}

impl Deref for JobArena {
    type Target = [Job];

    fn deref(&self) -> &[Job] {
        &self.inner.jobs
    }
}

impl From<Vec<Job>> for JobArena {
    fn from(jobs: Vec<Job>) -> Self {
        Self::new(jobs)
    }
}

impl PartialEq for JobArena {
    fn eq(&self, other: &Self) -> bool {
        // Arc identity or fingerprint short-circuit; fall back to the
        // full comparison so equality stays exact under collisions.
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.fingerprint == other.inner.fingerprint
                && self.inner.jobs == other.inner.jobs)
    }
}

/// [`fnv1a64`] over a canonical little-endian encoding of every job
/// field (length-prefixed).
fn fingerprint_jobs(jobs: &[Job]) -> u64 {
    let words = std::iter::once(jobs.len() as u64).chain(jobs.iter().flat_map(|job| {
        [
            job.id.0 as u64,
            job.submit.0 as u64,
            job.run as u64,
            job.requested as u64,
            job.procs as u64,
            job.user as u64,
            job.swf_id,
        ]
    }));
    fnv1a64(words.flat_map(u64::to_le_bytes))
}

/// How a workload was materialized — the perf-accounting side channel
/// for the streaming ingestion path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Whether the streaming (single-pass, no intermediate record
    /// vector) SWF path produced this workload.
    pub streamed: bool,
    /// SWF records held in an intermediate `Vec<SwfRecord>` before job
    /// conversion. `0` on the streaming path — records become engine
    /// jobs as they are parsed — and the full pre-clean record count on
    /// the buffered test oracle.
    pub buffered_records: usize,
}

/// What cleaning did to an SWF log (see [`SwfSource`] for the rules).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CleaningReport {
    /// Records dropped because they had no positive run time or
    /// processor count.
    pub dropped_unrunnable: usize,
    /// Records dropped because they exceeded the machine size.
    pub dropped_oversize: usize,
    /// Kept records whose missing requested time was repaired from the
    /// run time.
    pub repaired_estimates: usize,
    /// Kept records whose requested time was raised to the run time.
    pub repaired_inversions: usize,
    /// Whether a submit-time sort actually changed the order.
    pub reordered: bool,
    /// Records remaining after cleaning.
    pub kept: usize,
}

/// A simulator-ready workload, whatever it was loaded from.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedWorkload {
    /// Display name (log name or spec name).
    pub name: String,
    /// Machine size to simulate on.
    pub machine_size: u32,
    /// Jobs sorted by submission with dense ids `0..n`, in a shared
    /// fingerprinted arena (cloning a loaded workload never copies the
    /// jobs).
    pub jobs: JobArena,
    /// What cleaning did, when the workload came through the SWF path.
    pub cleaning: Option<CleaningReport>,
    /// How the jobs were materialized (streaming vs buffered).
    pub stats: LoadStats,
}

impl LoadedWorkload {
    /// The `SimConfig` for this workload's machine.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::single(self.machine_size)
    }
}

impl From<GeneratedWorkload> for LoadedWorkload {
    fn from(w: GeneratedWorkload) -> Self {
        Self {
            name: w.name,
            machine_size: w.machine_size,
            jobs: JobArena::new(w.jobs),
            cleaning: None,
            stats: LoadStats::default(),
        }
    }
}

impl From<&GeneratedWorkload> for LoadedWorkload {
    fn from(w: &GeneratedWorkload) -> Self {
        Self {
            name: w.name.clone(),
            machine_size: w.machine_size,
            jobs: JobArena::new(w.jobs.clone()),
            cleaning: None,
            stats: LoadStats::default(),
        }
    }
}

/// Anything that can produce a simulator-ready workload.
pub trait WorkloadSource {
    /// Loads the workload.
    fn load(&self) -> Result<LoadedWorkload, SourceError>;
}

/// Synthetic workload generation as a source: a [`WorkloadSpec`] plus a
/// seed, deferred until [`WorkloadSource::load`].
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSource {
    /// The generating spec.
    pub spec: WorkloadSpec,
    /// Generation seed.
    pub seed: u64,
}

impl SyntheticSource {
    /// A source for `spec` at `seed`.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        Self { spec, seed }
    }
}

impl WorkloadSource for SyntheticSource {
    fn load(&self) -> Result<LoadedWorkload, SourceError> {
        self.spec.validate().map_err(SourceError::Invalid)?;
        Ok(generate(&self.spec, self.seed).into())
    }
}

/// Where an [`SwfSource`] reads its text from.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SwfInput {
    /// A file on disk.
    File(PathBuf),
    /// In-memory text under a display name (fixtures, tests, pipes).
    Text {
        /// Display name for the loaded workload.
        name: String,
        /// The SWF document.
        text: String,
    },
}

/// A Standard Workload Format log as a source: parse, clean, convert,
/// validate.
///
/// Production logs hold records that cannot be simulated, and the
/// scheduling literature (and the pyss simulator the paper forked)
/// cleans them first. Silent cleaning is a classic source of
/// non-reproducibility (Frachtenberg & Feitelson, "Pitfalls in parallel
/// job scheduling evaluation" — reference \[6\] of the paper), so these
/// are the rules, all always on, and [`LoadedWorkload::cleaning`]
/// reports what each did:
///
/// * a record without a positive run time or processor count (canceled
///   before start, truncated logging) is dropped as *unrunnable*;
/// * a record asking for more processors than the machine has is
///   dropped as *oversize* — the machine is the header's `MaxProcs`
///   (else `MaxNodes`), or for a headerless log the largest request of
///   any record, dropped ones included;
/// * a kept record's missing requested time is *repaired* to its run
///   time, and one below its run time is raised to it: the engine kills
///   a job at its request (§2.1), which needs `p ≤ p̃`;
/// * an out-of-order log is sorted stably by `(submit, job number)`.
///
/// A processor count or user id the engine's `u32`s cannot hold is a
/// typed error ([`SourceError::Conversion`]), except that a count wider
/// than any `u32` machine is simply oversize.
///
/// ```
/// use predictsim_experiments::{SwfSource, WorkloadSource};
///
/// let text = "\
/// ; MaxProcs: 4
/// 1 0 -1 100 2 -1 -1 2 200 -1 1 7 1 3 1 -1 -1 -1
/// 2 5 -1 50 1 -1 -1 1 100 -1 1 8 1 3 1 -1 -1 -1
/// ";
/// let w = SwfSource::from_text("mini", text).load().unwrap();
/// assert_eq!(w.machine_size, 4);
/// assert_eq!(w.jobs.len(), 2);
/// assert_eq!(w.cleaning.unwrap().kept, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SwfSource {
    input: SwfInput,
}

impl SwfSource {
    /// A source reading `path`.
    pub fn new(path: impl AsRef<Path>) -> Self {
        Self {
            input: SwfInput::File(path.as_ref().to_path_buf()),
        }
    }

    /// A source over in-memory SWF text (fixtures, tests).
    pub fn from_text(name: impl Into<String>, text: impl Into<String>) -> Self {
        Self {
            input: SwfInput::Text {
                name: name.into(),
                text: text.into(),
            },
        }
    }

    fn name(&self) -> String {
        match &self.input {
            SwfInput::File(path) => path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
            SwfInput::Text { name, .. } => name.clone(),
        }
    }
}

/// Repair-intent bits tracked per kept record on the streaming path.
/// Job conversion clamps `requested` to `max(effective requested, run)`,
/// which makes both estimate repairs value-neutral on converted jobs —
/// only the *counters* must survive, and only for records that also
/// survive the (deferred) oversize drop.
const WANT_ESTIMATE: u8 = 1 << 0;
const WANT_INVERSION: u8 = 1 << 1;

impl SwfSource {
    /// Single-pass load: records become engine jobs as they stream off
    /// the parser; no intermediate record vector is ever built. Applies
    /// the rules of [`SwfSource`] and produces bit-for-bit the same
    /// `LoadedWorkload` (jobs, machine size, cleaning report), or the
    /// same error, as parsing the whole log, cleaning it and converting —
    /// the test module's `load_eager` oracle.
    fn load_streaming<R: std::io::BufRead>(
        &self,
        mut stream: SwfStream<R>,
    ) -> Result<LoadedWorkload, SourceError> {
        let mut report = CleaningReport::default();
        let mut jobs: Vec<Job> = Vec::new();
        let mut repairs: Vec<u8> = Vec::new();
        // The first runnable record the engine cannot represent, reported
        // once the whole log has parsed (a parse error comes first).
        let mut unconvertible = None;
        // Largest processor request over *all* parsed records (including
        // dropped ones) — the headerless machine-size fallback.
        let mut max_procs: u64 = 0;
        for record in stream.by_ref() {
            let r = record?;
            let procs = r.effective_procs();
            if let Some(q) = procs {
                max_procs = max_procs.max(q as u64);
            }
            let (Some(p), Some(q)) = (r.run_time_opt(), procs) else {
                report.dropped_unrunnable += 1;
                continue;
            };
            if u32::try_from(q).is_err() {
                // Wider than any machine a `LoadedWorkload` describes:
                // oversize whatever the header says, and never converted
                // — but its user is checked like every runnable record's.
                report.dropped_oversize += 1;
                if let Err(e) = swf_user(&r) {
                    unconvertible.get_or_insert(e);
                }
                continue;
            }
            let mut want = 0u8;
            match r.requested_time_opt() {
                None => want |= WANT_ESTIMATE,
                Some(pt) if pt < p => want |= WANT_INVERSION,
                _ => {}
            }
            match job_from_swf(JobId(jobs.len() as u32), &r) {
                Ok(job) => {
                    jobs.push(job);
                    repairs.push(want);
                }
                Err(e) => {
                    unconvertible.get_or_insert(e);
                }
            }
        }
        if let Some(e) = unconvertible {
            return Err(e.into());
        }
        let machine_size = stream
            .into_header()
            .machine_size()
            .or((max_procs > 0).then_some(max_procs))
            .ok_or(SourceError::UnknownMachineSize)?;
        let machine_size = machine_u32(machine_size)?;
        // Stable in-place compaction, keeping the repair sidecar in
        // tandem so repairs on oversize records are not counted.
        let mut keep = 0;
        for i in 0..jobs.len() {
            if jobs[i].procs > machine_size {
                report.dropped_oversize += 1;
            } else {
                jobs.swap(keep, i);
                repairs.swap(keep, i);
                keep += 1;
            }
        }
        jobs.truncate(keep);
        repairs.truncate(keep);
        report.repaired_estimates = repairs.iter().filter(|w| **w & WANT_ESTIMATE != 0).count();
        report.repaired_inversions = repairs.iter().filter(|w| **w & WANT_INVERSION != 0).count();
        drop(repairs);
        let sorted = jobs.windows(2).all(|w| w[0].submit <= w[1].submit);
        if !sorted {
            report.reordered = true;
            jobs.sort_by_key(|j| (j.submit, j.swf_id));
        }
        for (i, job) in jobs.iter_mut().enumerate() {
            job.id = JobId(i as u32);
        }
        intern_users(&mut jobs);
        report.kept = jobs.len();
        self.finish(
            jobs,
            machine_size,
            report,
            LoadStats {
                streamed: true,
                buffered_records: 0,
            },
        )
    }

    /// Shared tail: validate and assemble the `LoadedWorkload`.
    fn finish(
        &self,
        jobs: Vec<Job>,
        machine_size: u32,
        report: CleaningReport,
        stats: LoadStats,
    ) -> Result<LoadedWorkload, SourceError> {
        for job in &jobs {
            job.validate().map_err(SourceError::Invalid)?;
            if job.procs > machine_size {
                return Err(SourceError::Invalid(format!(
                    "{} requests {} procs on a {machine_size}-proc machine",
                    job.id, job.procs
                )));
            }
        }
        Ok(LoadedWorkload {
            name: self.name(),
            machine_size,
            jobs: JobArena::new(jobs),
            cleaning: Some(report),
            stats,
        })
    }
}

/// The machine size as a `LoadedWorkload` holds it.
fn machine_u32(machine_size: u64) -> Result<u32, SourceError> {
    u32::try_from(machine_size)
        .map_err(|_| SourceError::Invalid(format!("machine size {machine_size} exceeds u32")))
}

impl WorkloadSource for SwfSource {
    fn load(&self) -> Result<LoadedWorkload, SourceError> {
        match &self.input {
            SwfInput::File(path) => {
                let file = std::fs::File::open(path).map_err(|e| SourceError::Io {
                    path: path.clone(),
                    message: e.to_string(),
                })?;
                // `swf.read` fault site: transient fires vanish inside
                // `BufReader` (which retries `Interrupted`), hard fires
                // truncate the stream mid-record — both exercised by
                // the chaos suite. Passthrough when no plan is active.
                let faulty = predictsim_faultline::FaultyRead::new(file, "swf.read");
                self.load_streaming(SwfStream::new(std::io::BufReader::new(faulty)))
            }
            SwfInput::Text { text, .. } => {
                self.load_streaming(SwfStream::new(std::io::Cursor::new(text.as_bytes())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeuristicTriple, Scenario};
    use predictsim_swf::{parse_log, write_log, SwfHeader, SwfLog, SwfRecord, MISSING};
    use proptest::prelude::*;

    /// What a clean log is, restated over a parsed record vector with
    /// every rule on and no option: drop unrunnable records (checking
    /// the user of each runnable one), then records wider than
    /// `machine_size` by their own `i64` count; count repairs over the
    /// kept records; sort stably by `(submit, job number)` when the log
    /// is out of order.
    fn clean(
        records: &mut Vec<SwfRecord>,
        machine_size: u64,
    ) -> Result<CleaningReport, SourceError> {
        let mut report = CleaningReport::default();
        let before = records.len();
        records.retain(|r| r.run_time_opt().is_some() && r.effective_procs().is_some());
        report.dropped_unrunnable = before - records.len();
        if let Some(e) = records.iter().find_map(|r| swf_user(r).err()) {
            return Err(e.into());
        }
        let before = records.len();
        records.retain(|r| {
            r.effective_procs()
                .is_some_and(|q| q as u64 <= machine_size)
        });
        report.dropped_oversize = before - records.len();
        for r in records.iter_mut() {
            match r.requested_time_opt() {
                None => report.repaired_estimates += 1,
                Some(requested) if requested < r.run_time => report.repaired_inversions += 1,
                Some(_) => continue,
            }
            r.requested_time = r.run_time;
        }
        if !records
            .windows(2)
            .all(|w| w[0].submit_time <= w[1].submit_time)
        {
            report.reordered = true;
            records.sort_by_key(|r| (r.submit_time, r.job_id));
        }
        report.kept = records.len();
        Ok(report)
    }

    impl SwfSource {
        /// The buffered reference path — parse the whole log, [`clean`]
        /// it, then convert: the oracle that states what
        /// [`SwfSource::load`]'s streaming pass means.
        fn load_eager(&self) -> Result<LoadedWorkload, SourceError> {
            let mut log = match &self.input {
                SwfInput::File(path) => {
                    let text = std::fs::read_to_string(path).map_err(|e| SourceError::Io {
                        path: path.clone(),
                        message: e.to_string(),
                    })?;
                    parse_log(&text)?
                }
                SwfInput::Text { text, .. } => parse_log(text)?,
            };
            let buffered_records = log.records.len();
            let largest = log.records.iter().filter_map(|r| r.effective_procs()).max();
            let machine_size = (log.header.machine_size())
                .or(largest.map(|q| q as u64))
                .ok_or(SourceError::UnknownMachineSize)?;
            let report = clean(&mut log.records, machine_size)?;
            let machine_size = machine_u32(machine_size)?;
            let mut jobs = (0u32..)
                .zip(&log.records)
                .map(|(i, r)| job_from_swf(JobId(i), r))
                .collect::<Result<Vec<_>, _>>()?;
            intern_users(&mut jobs);
            self.finish(
                jobs,
                machine_size,
                report,
                LoadStats {
                    streamed: false,
                    buffered_records,
                },
            )
        }
    }

    /// A user-1 record with every optional field missing but these.
    fn record(id: u64, submit: i64, run: i64, req_procs: i64, req_time: i64) -> SwfRecord {
        SwfRecord {
            submit_time: submit,
            run_time: run,
            requested_procs: req_procs,
            requested_time: req_time,
            user_id: 1,
            ..SwfRecord::empty(id)
        }
    }

    /// `records` under a `MaxProcs: 64` header.
    fn source(records: Vec<SwfRecord>) -> SwfSource {
        let header = SwfHeader::synthetic(64, "records");
        SwfSource::from_text("records", write_log(&SwfLog { header, records }))
    }

    const MINI: &str = "\
; MaxProcs: 8
1 0 -1 100 2 -1 -1 2 200 -1 1 3 1 1 1 -1 -1 -1
2 10 -1 50 1 -1 -1 1 100 -1 1 4 1 1 1 -1 -1 -1
3 20 -1 -1 1 -1 -1 1 100 -1 0 4 1 1 1 -1 -1 -1
";

    /// Exercises every cleaning-report field at once: out-of-order
    /// submits, an unrunnable record (each of the two ways), an oversize
    /// job, a missing estimate, an estimate inversion, and a trailing
    /// header comment (late `into_header` ingestion).
    const NASTY: &str = "\
; MaxProcs: 8
5 40 -1 60 1 -1 -1 1 120 -1 1 9 1 1 1 -1 -1 -1
1 0 -1 100 2 -1 -1 2 -1 -1 1 3 1 1 1 -1 -1 -1
2 10 -1 100 1 -1 -1 1 50 -1 1 4 1 1 1 -1 -1 -1
3 20 -1 -1 1 -1 -1 1 100 -1 0 4 1 1 1 -1 -1 -1
4 30 -1 10 16 -1 -1 16 100 -1 1 5 1 1 1 -1 -1 -1
6 50 -1 10 -1 -1 -1 -1 100 -1 1 9 1 1 1 -1 -1 -1
; Computer: nasty-cluster
";

    /// Streaming and buffered loads of the same source must agree: on
    /// the error, or on everything except the `stats` accounting.
    fn assert_stream_eager_identical(
        source: SwfSource,
        parsed_records: usize,
    ) -> Result<LoadedWorkload, SourceError> {
        let (streamed, eager) = match (source.load(), source.load_eager()) {
            (Ok(streamed), Ok(eager)) => (streamed, eager),
            (streamed, eager) => {
                assert_eq!(streamed.as_ref().err(), eager.as_ref().err());
                return Err(streamed.unwrap_err());
            }
        };
        assert_eq!(streamed.name, eager.name);
        assert_eq!(streamed.machine_size, eager.machine_size);
        assert_eq!(streamed.cleaning, eager.cleaning);
        assert_eq!(
            &streamed.jobs[..],
            &eager.jobs[..],
            "streaming load must be byte-identical to the buffered one"
        );
        assert_eq!(streamed.jobs.fingerprint(), eager.jobs.fingerprint());
        assert_eq!(streamed.jobs.user_count(), eager.jobs.user_count());
        assert_eq!(
            streamed.stats,
            LoadStats {
                streamed: true,
                buffered_records: 0
            }
        );
        assert_eq!(
            eager.stats,
            LoadStats {
                streamed: false,
                buffered_records: parsed_records
            }
        );
        Ok(streamed)
    }

    #[test]
    fn synthetic_source_matches_direct_generation() {
        let spec = WorkloadSpec::toy();
        let direct = generate(&spec, 11);
        let loaded = SyntheticSource::new(spec, 11).load().unwrap();
        assert_eq!(&loaded.jobs[..], &direct.jobs[..]);
        assert_eq!(loaded.machine_size, direct.machine_size);
        assert_eq!(loaded.name, direct.name);
        assert!(loaded.cleaning.is_none());
        assert_eq!(loaded.sim_config().machine_size(), direct.machine_size);
    }

    #[test]
    fn invalid_spec_is_a_typed_error() {
        let mut spec = WorkloadSpec::toy();
        spec.jobs = 0;
        let err = SyntheticSource::new(spec, 1).load().unwrap_err();
        assert!(matches!(err, SourceError::Invalid(_)));
    }

    #[test]
    fn swf_text_source_cleans_and_converts() {
        let w = SwfSource::from_text("mini", MINI).load().unwrap();
        assert_eq!(w.machine_size, 8);
        // Record 3 has no run time and is dropped by the cleaning rules.
        assert_eq!(w.jobs.len(), 2);
        let report = w.cleaning.expect("SWF path reports cleaning");
        assert_eq!(report.dropped_unrunnable, 1);
        assert_eq!(w.jobs[0].run, 100);
        assert_eq!(w.jobs[1].procs, 1);
    }

    #[test]
    fn swf_file_source_round_trips_a_generated_workload() {
        let w = generate(&WorkloadSpec::toy(), 3);
        let dir = std::env::temp_dir();
        let path = dir.join("predictsim_source_test.swf");
        std::fs::write(&path, write_log(&w.to_swf())).unwrap();
        let loaded = SwfSource::new(&path).load().unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.machine_size, w.machine_size);
        assert_eq!(
            &loaded.jobs[..],
            &w.jobs[..],
            "SWF round trip must be lossless"
        );
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = SwfSource::new("/nonexistent/never.swf").load().unwrap_err();
        assert!(matches!(err, SourceError::Io { .. }));
        assert!(err.to_string().contains("never.swf"));
    }

    #[test]
    fn unparseable_text_is_a_parse_error() {
        let err = SwfSource::from_text("bad", "1 2 three\n")
            .load()
            .unwrap_err();
        assert!(matches!(err, SourceError::Parse(_)));
    }

    #[test]
    fn headerless_log_needs_an_override() {
        // Headerless with records: falls back to max procs observed.
        let headerless = "1 0 -1 100 2 -1 -1 2 200 -1 1 3 1 1 1 -1 -1 -1\n";
        let w = SwfSource::from_text("frag", headerless).load().unwrap();
        assert_eq!(w.machine_size, 2);
        // Empty log: no way to infer.
        let err = SwfSource::from_text("empty", "").load().unwrap_err();
        assert_eq!(err, SourceError::UnknownMachineSize);
    }

    #[test]
    fn machine_size_inferred_without_header() {
        let line = "3 120 30 600 8 -1 -1 8 900 -1 1 4 2 17 1 0 -1 -1\n";
        let w = SwfSource::from_text("frag", line).load().unwrap();
        assert_eq!(w.machine_size, 8);
    }

    #[test]
    fn drops_unrunnable_and_oversize() {
        let w = source(vec![
            record(1, 0, 100, 4, 200),
            record(2, 1, MISSING, 4, 200),   // no run time
            record(3, 2, 100, 9999, 200),    // oversize
            record(4, 3, 100, MISSING, 200), // no procs
        ]);
        let w = w.load().unwrap();
        let report = w.cleaning.unwrap();
        assert_eq!(report.dropped_unrunnable, 2);
        assert_eq!(report.dropped_oversize, 1);
        assert_eq!(report.kept, 1);
        assert_eq!(w.jobs[0].swf_id, 1);
    }

    #[test]
    fn repairs_missing_and_inverted_estimates() {
        let w = source(vec![
            record(1, 0, 100, 4, MISSING), // missing estimate
            record(2, 1, 100, 4, 50),      // inverted estimate
        ]);
        let w = w.load().unwrap();
        let report = w.cleaning.unwrap();
        assert_eq!(report.repaired_estimates, 1);
        assert_eq!(report.repaired_inversions, 1);
        assert_eq!(w.jobs[0].requested, 100);
        assert_eq!(w.jobs[1].requested, 100);
    }

    #[test]
    fn sorts_by_submit_time() {
        let w = source(vec![record(1, 50, 10, 1, 20), record(2, 10, 10, 1, 20)]);
        let w = w.load().unwrap();
        assert!(w.cleaning.unwrap().reordered);
        assert_eq!(w.jobs[0].swf_id, 2);
        // Already-sorted logs report no reorder.
        let w = source(vec![record(2, 10, 10, 1, 20), record(1, 50, 10, 1, 20)]);
        assert!(!w.load().unwrap().cleaning.unwrap().reordered);
    }

    #[test]
    fn clean_default_uses_header_size() {
        let text = "; MaxProcs: 8\n1 0 0 10 1 -1 -1 16 20 -1 1 0 0 0 0 0 -1 -1\n2 0 0 10 1 -1 -1 4 20 -1 1 0 0 0 0 0 -1 -1\n";
        let report = SwfSource::from_text("sized", text).load().unwrap().cleaning;
        let report = report.unwrap();
        assert_eq!(report.dropped_oversize, 1);
        assert_eq!(report.kept, 1);
    }

    #[test]
    fn streaming_matches_eager_on_every_fixture() {
        assert_stream_eager_identical(SwfSource::from_text("mini", MINI), 3).unwrap();
        let nasty = assert_stream_eager_identical(SwfSource::from_text("nasty", NASTY), 6).unwrap();
        let report = nasty.cleaning.unwrap();
        assert_eq!(report.dropped_unrunnable, 2);
        assert_eq!(report.dropped_oversize, 1);
        assert_eq!(report.repaired_estimates, 1);
        assert_eq!(report.repaired_inversions, 1);
        assert!(report.reordered);
        assert_eq!(report.kept, 3);
        // Jobs come out submit-sorted, densely renumbered, interned in
        // first-appearance order.
        let submits: Vec<i64> = nasty.jobs.iter().map(|j| j.submit.0).collect();
        assert_eq!(submits, vec![0, 10, 40]);
        assert_eq!(
            nasty.jobs.iter().map(|j| j.id.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(
            nasty.jobs.iter().map(|j| j.user_ix).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // The inversion/missing-estimate repairs are value-identical.
        assert_eq!(nasty.jobs[0].requested, 100);
        assert_eq!(nasty.jobs[1].requested, 100);
        // Headerless fragment: machine size inferred from records on
        // both paths.
        let headerless = "1 0 -1 100 2 -1 -1 2 200 -1 1 3 1 1 1 -1 -1 -1\n";
        let frag =
            assert_stream_eager_identical(SwfSource::from_text("frag", headerless), 1).unwrap();
        assert_eq!(frag.machine_size, 2);
        // A smaller header machine drops oversize jobs identically.
        let small = assert_stream_eager_identical(
            SwfSource::from_text("mini-small", MINI.replace("MaxProcs: 8", "MaxProcs: 1")),
            3,
        )
        .unwrap();
        assert_eq!(small.machine_size, 1);
        assert_eq!(small.cleaning.unwrap().dropped_oversize, 1);
    }

    #[test]
    fn streaming_matches_eager_on_a_generated_round_trip() {
        let w = generate(&WorkloadSpec::toy(), 9);
        let dir = std::env::temp_dir();
        let path = dir.join("predictsim_stream_eager_test.swf");
        std::fs::write(&path, write_log(&w.to_swf())).unwrap();
        let loaded = assert_stream_eager_identical(SwfSource::new(&path), w.jobs.len()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(&loaded.jobs[..], &w.jobs[..]);
    }

    #[test]
    fn streaming_error_parity_with_eager() {
        let bad = SwfSource::from_text("bad", "1 2 three\n");
        let err = assert_stream_eager_identical(bad, 0).unwrap_err();
        assert!(matches!(err, SourceError::Parse(_)));
        let empty = SwfSource::from_text("empty", "; Note: nothing\n");
        let err = assert_stream_eager_identical(empty, 0).unwrap_err();
        assert_eq!(err, SourceError::UnknownMachineSize);
    }

    #[test]
    fn unrepresentable_values_are_typed() {
        let user = |user_id| SwfRecord {
            user_id,
            ..record(1, 0, 10, 1, 20)
        };
        // A request wider than any `u32` is oversize, not 1 processor.
        let wide = source(vec![record(1, 0, 10, (1 << 32) + 1, 20)]);
        let wide = assert_stream_eager_identical(wide, 1).unwrap();
        assert_eq!(
            (wide.cleaning.unwrap().dropped_oversize, wide.jobs.len()),
            (1, 0)
        );
        // A user id + 1 beyond `u32` is an error, not user 0 or 4.
        for id in [i64::from(u32::MAX), 1 << 32, (1 << 32) + 4] {
            let err = assert_stream_eager_identical(source(vec![user(id)]), 1).unwrap_err();
            assert!(matches!(err, SourceError::Conversion(_)), "{err}");
        }
        // ... but a parse error anywhere in the log comes first.
        let text = write_log(&SwfLog {
            header: SwfHeader::default(),
            records: vec![user(1 << 32)],
        });
        let bad = SwfSource::from_text("bad", text + "not a record\n");
        let err = assert_stream_eager_identical(bad, 0).unwrap_err();
        assert!(matches!(err, SourceError::Parse(_)), "{err}");
        // Submits at the end of the clock load; the engine runs a job that
        // ends by `i64::MAX` and refuses one that would not.
        let easy = |run| {
            let end = 9_223_372_036_854_775_000;
            let w = assert_stream_eager_identical(source(vec![record(1, end, run, 1, run)]), 1);
            let w = w.unwrap();
            Scenario::from_triple(&HeuristicTriple::standard_easy()).run_on(&w.jobs, w.sim_config())
        };
        assert!(easy(20).is_ok());
        let err = easy(1_000).unwrap_err();
        assert!(
            matches!(err, predictsim_sim::SimError::InvalidJob { .. }),
            "{err}"
        );
    }

    /// One dirty field value: mostly the SWF "missing" sentinel, zero, a
    /// small value, or one larger than [`DIRTY_MACHINE`]; sometimes the
    /// largest `u32` or a value beyond it.
    fn dirty() -> impl Strategy<Value = i64> {
        const BEYOND: i64 = (1 << 32) + 3;
        (0usize..20).prop_map(|i| match i {
            18 => i64::from(u32::MAX),
            19 => BEYOND,
            _ => [-1, 0, 3, 500][i % 4],
        })
    }

    const DIRTY_MACHINE: u64 = 8;

    /// A dirty log as SWF text, with its record count: any field of any
    /// record may be missing, zero, oversize or beyond `u32`, submits tie
    /// and run backwards, and the machine size may have to be inferred.
    fn dirty_log() -> impl Strategy<Value = (String, usize)> {
        let fields = prop::collection::vec(
            (dirty(), dirty(), dirty(), dirty(), dirty(), dirty()),
            0..41,
        );
        (fields, 0u8..2, 0u8..2).prop_map(|(fields, sorted, headerless)| {
            let mut records: Vec<SwfRecord> = fields
                .iter()
                .enumerate()
                .map(
                    |(i, &(submit, run, procs, req_procs, req_time, user))| SwfRecord {
                        submit_time: submit,
                        run_time: run,
                        allocated_procs: procs,
                        requested_procs: req_procs,
                        requested_time: req_time,
                        user_id: user,
                        // Distinct ids, not in file order: submit ties are
                        // broken by id, so the tie-break must be observable.
                        ..SwfRecord::empty((i as u64 * 7) % 41 + 1)
                    },
                )
                .collect();
            if sorted == 1 {
                records.sort_by_key(|r| r.submit_time);
            }
            let header = if headerless == 1 {
                SwfHeader::default()
            } else {
                SwfHeader::synthetic(DIRTY_MACHINE, "dirty")
            };
            let parsed = records.len();
            (write_log(&SwfLog { header, records }), parsed)
        })
    }

    proptest! {
        /// The oracle is the only statement of what cleaning means: on
        /// dirty logs the streaming loader returns what parse → `clean` →
        /// convert returns, or the same error.
        #[test]
        fn streaming_matches_eager_on_dirty_random_logs(log in dirty_log()) {
            let (text, parsed) = log;
            // Panics on any divergence; either outcome is fine if shared.
            let _ = assert_stream_eager_identical(SwfSource::from_text("dirty", text), parsed);
        }

        /// Every dirty log either fails to load with a typed error, or
        /// loads and simulates to a result or a typed error.
        #[test]
        fn dirty_logs_load_and_simulate_or_fail_typed(log in dirty_log()) {
            if let Ok(w) = SwfSource::from_text("dirty", log.0).load() {
                let easy = Scenario::from_triple(&HeuristicTriple::standard_easy());
                let _ = easy.run_on(&w.jobs, w.sim_config());
            }
        }
    }
}
