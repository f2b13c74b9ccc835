//! The wire protocol: newline-delimited JSON over a local socket.
//!
//! Every line in either direction is one JSON object. Requests carry a
//! `"type"` of `"submit"`, `"ping"`, or `"stats"`; every server line
//! carries a `"type"` of `"ack"`, `"metrics"`, `"result"`, `"error"`,
//! `"pong"`, or `"stats"`. The vendored `serde_derive` handles only
//! flat structs and unit enums, so frames are built and parsed by hand
//! over the [`serde::Value`] tree — which is also what makes the
//! `result` frame's payload *byte-identical* to batch output: the
//! daemon embeds `TripleResult::to_value()` and the client re-serializes
//! that subtree with the same writer `repro scenario` uses for
//! `scenario.json`.
//!
//! A submit request:
//!
//! ```json
//! {"type":"submit",
//!  "workload":{"log":"KTH-SP2","scale":0.05,"seed":20150101},
//!  "scheduler":"easy-sjbf","predictor":"ave2","correction":"incremental",
//!  "cluster":"cluster:100x1","timeout_ms":60000,"metrics_every":200000}
//! ```
//!
//! `workload` is one of the three source shapes of the registry
//! grammar: a Table 4 preset by name prefix (`{"log":..,"scale":..,
//! "seed":..}`), an SWF file on the daemon's filesystem
//! (`{"swf":"/path"}`), or an inline synthetic spec
//! (`{"toy":{"name":..,"jobs":..,"duration":..,"utilization":..},
//! "seed":..}`). Everything but `workload` is optional and defaults
//! like the `repro scenario` flags (easy / requested / none / the
//! workload's own machine).

use std::io::{BufRead, ErrorKind};

use serde::Value;

/// Cap on one request line, bytes; a longer line is rejected with
/// `oversized`. A submit request is a few hundred bytes; anything near
/// this cap is garbage or abuse.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Default event cadence of streamed `metrics` frames.
pub const DEFAULT_METRICS_EVERY: u64 = 200_000;

/// Typed error codes carried by `error` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON, or not a known request shape.
    Malformed,
    /// The line exceeded the server's size cap and was discarded.
    Oversized,
    /// Scheduler/predictor/correction/cluster name the registry rejects.
    UnknownPolicy,
    /// The workload could not be built (missing preset, bad SWF path,
    /// invalid toy spec) or asks for more jobs than one request may
    /// generate.
    BadWorkload,
    /// The submission queue is full; resubmit later.
    Busy,
    /// The request's `timeout_ms` elapsed; the simulation was cancelled
    /// through `SimObserver::keep_running`.
    Timeout,
    /// The server is draining; no new work is accepted and queued or
    /// in-flight jobs may be cancelled.
    Shutdown,
    /// Anything else.
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownPolicy => "unknown-policy",
            ErrorCode::BadWorkload => "bad-workload",
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A protocol-level failure: a typed code plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The typed code, echoed on the wire.
    pub code: ErrorCode,
    /// What went wrong.
    pub message: String,
}

impl ProtoError {
    /// Builds an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

/// The workload half of a submission — the three source shapes of the
/// registry grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadRequest {
    /// A Table 4 preset by case-insensitive name prefix, generated at
    /// `scale` with `seed`.
    Preset {
        /// Log name prefix, e.g. `"KTH"`.
        log: String,
        /// Scale factor (1.0 = the paper's full size).
        scale: f64,
        /// Generation seed.
        seed: u64,
    },
    /// An SWF log on the daemon's filesystem.
    Swf {
        /// Path to the `.swf` file.
        path: String,
    },
    /// An inline synthetic spec over [`predictsim_workload`]'s toy
    /// defaults.
    Toy {
        /// Display name (also part of the workload's cache identity via
        /// the generated jobs, not the name).
        name: String,
        /// Number of jobs.
        jobs: usize,
        /// Trace duration, seconds.
        duration: i64,
        /// Target utilization in `(0, 1.5)`.
        utilization: f64,
        /// Generation seed.
        seed: u64,
    },
}

impl WorkloadRequest {
    /// A canonical description: displayed in acks and used as the
    /// daemon's workload-memo key.
    pub fn describe(&self) -> String {
        match self {
            WorkloadRequest::Preset { log, scale, seed } => {
                format!("preset {log} @{scale} seed {seed}")
            }
            WorkloadRequest::Swf { path } => format!("swf {path}"),
            WorkloadRequest::Toy {
                name,
                jobs,
                duration,
                utilization,
                seed,
            } => {
                format!("toy {name} jobs={jobs} duration={duration} util={utilization} seed={seed}")
            }
        }
    }

    fn from_value(v: &Value) -> Result<Self, ProtoError> {
        let malformed = |m: String| ProtoError::new(ErrorCode::Malformed, m);
        let Value::Map(_) = v else {
            return Err(malformed("workload must be an object".into()));
        };
        if let Ok(path) = serde::get_field::<String>(v, "swf") {
            return Ok(WorkloadRequest::Swf { path });
        }
        if let Ok(log) = serde::get_field::<String>(v, "log") {
            let scale = field::<Option<f64>>(v, "scale")?.unwrap_or(1.0);
            let seed = field::<Option<u64>>(v, "seed")?;
            let seed = seed.unwrap_or(predictsim_experiments::DEFAULT_SEED);
            return Ok(WorkloadRequest::Preset { log, scale, seed });
        }
        if let Ok(toy) = serde::get_field::<Value>(v, "toy") {
            if !matches!(toy, Value::Null) {
                // A count: the casts below would silently turn -5, NaN
                // or 2.5 into some other workload.
                let count = |name: &str| match field::<f64>(&toy, name)? {
                    n if n.is_finite() && n >= 0.0 && n.fract() == 0.0 => Ok(n),
                    n => Err(ProtoError::new(
                        ErrorCode::BadWorkload,
                        format!("toy {name} must be a non-negative integer, got {n}"),
                    )),
                };
                let name: String =
                    serde::get_field(&toy, "name").unwrap_or_else(|_| "toy".to_string());
                let jobs = count("jobs")? as usize;
                let duration = count("duration")? as i64;
                let utilization = field(&toy, "utilization")?;
                let seed = field::<Option<u64>>(v, "seed")?;
                let seed = seed.unwrap_or(predictsim_experiments::DEFAULT_SEED);
                return Ok(WorkloadRequest::Toy {
                    name,
                    jobs,
                    duration,
                    utilization,
                    seed,
                });
            }
        }
        Err(malformed(
            "workload needs one of: {\"log\":..}, {\"swf\":..}, {\"toy\":{..}}".into(),
        ))
    }

    fn to_value(&self) -> Value {
        match self {
            WorkloadRequest::Preset { log, scale, seed } => Value::Map(vec![
                ("log".into(), Value::Str(log.clone())),
                ("scale".into(), Value::Float(*scale)),
                ("seed".into(), Value::UInt(*seed)),
            ]),
            WorkloadRequest::Swf { path } => {
                Value::Map(vec![("swf".into(), Value::Str(path.clone()))])
            }
            WorkloadRequest::Toy {
                name,
                jobs,
                duration,
                utilization,
                seed,
            } => Value::Map(vec![
                (
                    "toy".into(),
                    Value::Map(vec![
                        ("name".into(), Value::Str(name.clone())),
                        ("jobs".into(), Value::UInt(*jobs as u64)),
                        ("duration".into(), Value::Int(*duration)),
                        ("utilization".into(), Value::Float(*utilization)),
                    ]),
                ),
                ("seed".into(), Value::UInt(*seed)),
            ]),
        }
    }
}

/// One scenario submission: a workload plus the (optional) policy
/// triple, cluster, timeout and metrics cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// What to simulate.
    pub workload: WorkloadRequest,
    /// Scheduler registry name (default `easy`).
    pub scheduler: Option<String>,
    /// Predictor registry name (default `requested`).
    pub predictor: Option<String>,
    /// Correction registry name (default none).
    pub correction: Option<String>,
    /// Cluster spec string (default: the workload's own machine).
    pub cluster: Option<String>,
    /// Cancel the simulation after this many wall-clock milliseconds.
    pub timeout_ms: Option<u64>,
    /// Stream a `metrics` frame every this many simulated events
    /// (default [`DEFAULT_METRICS_EVERY`]).
    pub metrics_every: Option<u64>,
}

impl Submission {
    /// A submission of `workload` with every knob defaulted.
    pub fn new(workload: WorkloadRequest) -> Self {
        Self {
            workload,
            scheduler: None,
            predictor: None,
            correction: None,
            cluster: None,
            timeout_ms: None,
            metrics_every: None,
        }
    }

    /// The request line (without trailing newline).
    pub fn to_value(&self) -> Value {
        let mut entries = vec![
            ("type".into(), Value::Str("submit".into())),
            ("workload".into(), self.workload.to_value()),
        ];
        let mut opt = |name: &str, v: &Option<String>| {
            if let Some(v) = v {
                entries.push((name.into(), Value::Str(v.clone())));
            }
        };
        opt("scheduler", &self.scheduler);
        opt("predictor", &self.predictor);
        opt("correction", &self.correction);
        opt("cluster", &self.cluster);
        if let Some(ms) = self.timeout_ms {
            entries.push(("timeout_ms".into(), Value::UInt(ms)));
        }
        if let Some(every) = self.metrics_every {
            entries.push(("metrics_every".into(), Value::UInt(every)));
        }
        Value::Map(entries)
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with `pong`.
    Ping,
    /// Cache/queue counters; answered with a `stats` frame.
    Stats,
    /// A scenario submission; answered with `ack`, then `metrics`
    /// frames, then `result` (or a job-tagged `error`).
    Submit(Box<Submission>),
}

impl Request {
    /// Parses one request line (already known to be valid JSON).
    fn from_value(v: &Value) -> Result<Self, ProtoError> {
        let kind: String = serde::get_field(v, "type").map_err(|_| {
            ProtoError::new(ErrorCode::Malformed, "request needs a string `type` field")
        })?;
        match kind.as_str() {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "submit" => {
                let workload: Value = field(v, "workload")?;
                if matches!(workload, Value::Null) {
                    return Err(ProtoError::new(
                        ErrorCode::Malformed,
                        "submit needs a `workload` object",
                    ));
                }
                Ok(Request::Submit(Box::new(Submission {
                    workload: WorkloadRequest::from_value(&workload)?,
                    scheduler: field(v, "scheduler")?,
                    predictor: field(v, "predictor")?,
                    correction: field(v, "correction")?,
                    cluster: field(v, "cluster")?,
                    timeout_ms: field(v, "timeout_ms")?,
                    metrics_every: field(v, "metrics_every")?,
                })))
            }
            other => Err(ProtoError::new(
                ErrorCode::Malformed,
                format!("unknown request type `{other}`"),
            )),
        }
    }

    /// Parses one raw request line.
    pub fn parse(line: &str) -> Result<Self, ProtoError> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| ProtoError::new(ErrorCode::Malformed, e.0))?;
        Self::from_value(&value)
    }
}

/// Field `name` of a request or frame object (`Option<_>` for an
/// optional one); missing or mistyped is `malformed`.
fn field<T: serde::Deserialize>(v: &Value, name: &str) -> Result<T, ProtoError> {
    serde::get_field(v, name).map_err(|e| ProtoError::new(ErrorCode::Malformed, e.0))
}

/// Builds the `ack` frame.
pub(crate) fn ack_frame(job: u64, triple: &str, workload: &str) -> Value {
    Value::Map(vec![
        ("type".into(), Value::Str("ack".into())),
        ("job".into(), Value::UInt(job)),
        ("triple".into(), Value::Str(triple.into())),
        ("workload".into(), Value::Str(workload.into())),
    ])
}

/// Builds a `metrics` frame from a running job's live view.
pub(crate) fn metrics_frame(
    job: u64,
    metrics: &predictsim_sim::MetricsObserver,
    util: &predictsim_sim::UtilizationObserver,
) -> Value {
    let partitions: Vec<Value> = (0..util.partitions())
        .map(|p| {
            let series: Vec<Value> = util
                .compressed(p)
                .into_iter()
                .map(|(value, repeat)| {
                    Value::Seq(vec![Value::Float(value), Value::UInt(repeat as u64)])
                })
                .collect();
            Value::Map(vec![
                ("partition".into(), Value::UInt(p as u64)),
                ("bucket_seconds".into(), Value::Int(util.bucket_seconds())),
                ("series".into(), Value::Seq(series)),
            ])
        })
        .collect();
    Value::Map(vec![
        ("type".into(), Value::Str("metrics".into())),
        ("job".into(), Value::UInt(job)),
        ("events".into(), Value::UInt(metrics.events())),
        ("submitted".into(), Value::UInt(metrics.submitted() as u64)),
        ("started".into(), Value::UInt(metrics.started() as u64)),
        ("finished".into(), Value::UInt(metrics.finished() as u64)),
        ("killed".into(), Value::UInt(metrics.killed() as u64)),
        ("corrections".into(), Value::UInt(metrics.corrections())),
        ("ave_bsld".into(), Value::Float(metrics.ave_bsld())),
        ("max_bsld".into(), Value::Float(metrics.max_bsld())),
        ("mean_wait".into(), Value::Float(metrics.mean_wait())),
        ("utilization".into(), Value::Seq(partitions)),
    ])
}

/// Builds the final `result` frame. `result` is the cell's
/// `TripleResult::to_value()` — re-serializing that subtree pretty
/// reproduces batch `scenario.json` byte-for-byte.
pub(crate) fn result_frame(job: u64, source: &str, result: Value) -> Value {
    Value::Map(vec![
        ("type".into(), Value::Str("result".into())),
        ("job".into(), Value::UInt(job)),
        ("source".into(), Value::Str(source.into())),
        ("result".into(), result),
    ])
}

/// Builds an `error` frame (`job` is absent for pre-ack failures).
pub(crate) fn error_frame(job: Option<u64>, error: &ProtoError) -> Value {
    Value::Map(vec![
        ("type".into(), Value::Str("error".into())),
        ("job".into(), job.map_or(Value::Null, Value::UInt)),
        ("code".into(), Value::Str(error.code.as_str().into())),
        ("message".into(), Value::Str(error.message.clone())),
    ])
}

/// Builds the `pong` frame.
pub(crate) fn pong_frame() -> Value {
    Value::Map(vec![("type".into(), Value::Str("pong".into()))])
}

/// A parsed server frame, as seen by clients.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// The submission was accepted under `job`.
    Ack {
        /// Assigned job id.
        job: u64,
        /// The resolved triple's canonical name.
        triple: String,
        /// The resolved workload description.
        workload: String,
    },
    /// An in-flight progress snapshot.
    Metrics {
        /// The job this frame belongs to.
        job: u64,
        /// Raw engine events so far.
        events: u64,
        /// Jobs finished so far.
        finished: u64,
        /// Jobs submitted so far.
        submitted: u64,
        /// Incremental mean bounded slowdown.
        ave_bsld: f64,
        /// The whole frame, for consumers that want the utilization
        /// series and the remaining counters.
        raw: Value,
    },
    /// The final result.
    Result {
        /// The job this frame belongs to.
        job: u64,
        /// Which cache layer served it (`simulated`, `memory`, `disk`,
        /// `coalesced`).
        source: String,
        /// The `TripleResult` subtree, byte-identical to batch output
        /// when pretty-printed.
        result: Value,
    },
    /// A typed failure.
    Error {
        /// The job it belongs to, when past the ack.
        job: Option<u64>,
        /// The typed code (see [`ErrorCode`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Liveness reply.
    Pong,
    /// Cache/queue counters.
    Stats(Value),
}

impl Frame {
    /// Parses one server line.
    pub fn parse(line: &str) -> Result<Self, ProtoError> {
        let v: Value =
            serde_json::from_str(line).map_err(|e| ProtoError::new(ErrorCode::Malformed, e.0))?;
        let kind: String = field(&v, "type")?;
        match kind.as_str() {
            "ack" => Ok(Frame::Ack {
                job: field(&v, "job")?,
                triple: field(&v, "triple")?,
                workload: field(&v, "workload")?,
            }),
            "metrics" => Ok(Frame::Metrics {
                job: field(&v, "job")?,
                events: field(&v, "events")?,
                finished: field(&v, "finished")?,
                submitted: field(&v, "submitted")?,
                ave_bsld: field(&v, "ave_bsld")?,
                raw: v.clone(),
            }),
            "result" => Ok(Frame::Result {
                job: field(&v, "job")?,
                source: field(&v, "source")?,
                result: field(&v, "result")?,
            }),
            "error" => Ok(Frame::Error {
                job: field(&v, "job")?,
                code: field(&v, "code")?,
                message: field(&v, "message")?,
            }),
            "pong" => Ok(Frame::Pong),
            "stats" => Ok(Frame::Stats(v)),
            other => Err(ProtoError::new(
                ErrorCode::Malformed,
                format!("unknown frame type `{other}`"),
            )),
        }
    }
}

/// What [`LineReader::next_line`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Line {
    /// A complete line (without the newline).
    Text(String),
    /// A line that exceeded the cap; it was consumed and discarded.
    Oversized,
}

/// A newline-delimited reader with a hard per-line byte cap. An error
/// from the underlying stream (an `Interrupted` read, say) preserves
/// the partial line: call again.
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    overflowing: bool,
    max: usize,
}

impl<R: BufRead> LineReader<R> {
    /// Wraps `inner`, capping lines at `max` bytes (`usize::MAX` for no
    /// cap).
    pub fn new(inner: R, max: usize) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            overflowing: false,
            max,
        }
    }

    /// Reads the next line: `Ok(None)` at EOF after a whole line (or on
    /// an empty stream), an `UnexpectedEof` error when the stream ends
    /// inside a line (the peer never finished it), and any other `Err`
    /// from the stream itself.
    pub fn next_line(&mut self) -> std::io::Result<Option<Line>> {
        loop {
            let available = self.inner.fill_buf()?;
            if available.is_empty() {
                if self.buf.is_empty() && !self.overflowing {
                    return Ok(None);
                }
                self.buf.clear();
                self.overflowing = false;
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "the stream ended inside an unterminated line",
                ));
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(newline) => {
                    let overflowed = self.overflowing || self.buf.len() + newline > self.max;
                    if !overflowed {
                        self.buf.extend_from_slice(&available[..newline]);
                    }
                    self.inner.consume(newline + 1);
                    self.overflowing = false;
                    if overflowed {
                        self.buf.clear();
                        return Ok(Some(Line::Oversized));
                    }
                    let line = String::from_utf8_lossy(&self.buf).into_owned();
                    self.buf.clear();
                    return Ok(Some(Line::Text(line)));
                }
                None => {
                    let len = available.len();
                    if !self.overflowing {
                        self.buf.extend_from_slice(available);
                        if self.buf.len() > self.max {
                            self.buf.clear();
                            self.overflowing = true;
                        }
                    }
                    self.inner.consume(len);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_through_its_value() {
        let submission = Submission {
            workload: WorkloadRequest::Toy {
                name: "G1".into(),
                jobs: 260,
                duration: 259_200,
                utilization: 0.8,
                seed: 20_150_101,
            },
            scheduler: Some("easy-sjbf".into()),
            predictor: Some("ave2".into()),
            correction: Some("incremental".into()),
            cluster: Some("cluster:64x1".into()),
            timeout_ms: Some(5_000),
            metrics_every: Some(100),
        };
        let line = serde_json::to_string(&submission.to_value()).unwrap();
        match Request::parse(&line).unwrap() {
            Request::Submit(parsed) => assert_eq!(*parsed, submission),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn preset_and_swf_workloads_parse() {
        let req =
            Request::parse(r#"{"type":"submit","workload":{"log":"KTH","scale":0.05,"seed":7}}"#)
                .unwrap();
        match req {
            Request::Submit(s) => {
                assert_eq!(
                    s.workload,
                    WorkloadRequest::Preset {
                        log: "KTH".into(),
                        scale: 0.05,
                        seed: 7
                    }
                );
                assert_eq!(s.scheduler, None);
            }
            other => panic!("{other:?}"),
        }
        let req = Request::parse(r#"{"type":"submit","workload":{"swf":"/tmp/x.swf"}}"#).unwrap();
        match req {
            Request::Submit(s) => assert_eq!(
                s.workload,
                WorkloadRequest::Swf {
                    path: "/tmp/x.swf".into()
                }
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_typed_not_fatal() {
        for line in [
            "{not json}",
            r#"{"type":"launch"}"#,
            r#"{"type":"submit"}"#,
            r#"{"type":"submit","workload":{}}"#,
            r#"[1,2,3]"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::Malformed, "line {line}: {err}");
        }
        assert_eq!(Request::parse(r#"{"type":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            Request::parse(r#"{"type":"stats"}"#).unwrap(),
            Request::Stats
        );
    }

    #[test]
    fn frames_parse_back() {
        let ack = serde_json::to_string(&ack_frame(3, "ave2+easy", "toy g")).unwrap();
        assert_eq!(
            Frame::parse(&ack).unwrap(),
            Frame::Ack {
                job: 3,
                triple: "ave2+easy".into(),
                workload: "toy g".into()
            }
        );
        let err = serde_json::to_string(&error_frame(
            None,
            &ProtoError::new(ErrorCode::Busy, "queue full"),
        ))
        .unwrap();
        match Frame::parse(&err).unwrap() {
            Frame::Error { job, code, message } => {
                assert_eq!(job, None);
                assert_eq!(code, "busy");
                assert_eq!(message, "queue full");
            }
            other => panic!("{other:?}"),
        }
        let pong = serde_json::to_string(&pong_frame()).unwrap();
        assert_eq!(Frame::parse(&pong).unwrap(), Frame::Pong);
    }

    #[test]
    fn metrics_frame_carries_utilization_series() {
        use predictsim_sim::{ClusterSpec, MetricsObserver, UtilizationObserver};
        let util = UtilizationObserver::new(ClusterSpec::single(4), 100);
        let frame = metrics_frame(9, &MetricsObserver::new(), &util);
        let line = serde_json::to_string(&frame).unwrap();
        match Frame::parse(&line).unwrap() {
            Frame::Metrics {
                job, events, raw, ..
            } => {
                assert_eq!((job, events), (9, 0));
                let util: Vec<Value> = serde::get_field(&raw, "utilization").unwrap();
                assert_eq!(util.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn line_reader_caps_and_recovers() {
        let input = format!("short\n{}\nafter\n", "x".repeat(64));
        let mut reader =
            LineReader::new(std::io::BufReader::with_capacity(8, input.as_bytes()), 16);
        assert_eq!(
            reader.next_line().unwrap(),
            Some(Line::Text("short".into()))
        );
        assert_eq!(reader.next_line().unwrap(), Some(Line::Oversized));
        assert_eq!(
            reader.next_line().unwrap(),
            Some(Line::Text("after".into()))
        );
        assert_eq!(reader.next_line().unwrap(), None);
    }

    #[test]
    fn a_line_cut_off_by_the_end_of_the_stream_is_a_torn_frame() {
        let read_all = |input: &'static [u8], max: usize| {
            let mut reader = LineReader::new(std::io::BufReader::with_capacity(4, input), max);
            let mut lines = Vec::new();
            let end = loop {
                match reader.next_line() {
                    Ok(Some(line)) => lines.push(line),
                    Ok(None) => break None,
                    Err(e) => break Some(e.kind()),
                }
            };
            // Whatever ended the stream, it stays ended.
            assert_eq!(reader.next_line().unwrap(), None);
            (lines, end)
        };
        let pong = || Line::Text(r#"{"type":"pong"}"#.into());
        let torn = Some(ErrorKind::UnexpectedEof);
        let two = b"{\"type\":\"pong\"}\n{\"type\":\"po";
        assert_eq!(read_all(two, usize::MAX), (vec![pong()], torn));
        assert_eq!(read_all(&two[..16], usize::MAX), (vec![pong()], None));
        // An unterminated tail past the cap is torn too, not oversized.
        assert_eq!(read_all(two, 8), (vec![Line::Oversized], torn));
        assert_eq!(read_all(b"", 8), (vec![], None), "an empty stream is clean");
    }
}
