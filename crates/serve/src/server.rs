//! The daemon: accept loop, per-connection readers, a bounded
//! submission queue, and a worker pool running cells through the
//! process-wide [`SimCache`].
//!
//! Threading model (all `std`, no async runtime). No thread polls:
//! each blocks on the one event it serves, and drain wakes each one.
//!
//! - one **accept** thread blocks in `accept`, spawns a reader thread
//!   per connection, and at each accept forgets the threads that have
//!   ended, so only live connections are kept. Only a failure to take a
//!   connection on (`EMFILE`, say) makes it sleep before the next try;
//! - **connection** threads block in `read`, answer `ping`/`stats`
//!   inline, validate submissions, and enqueue them. A request line the
//!   stream ends inside gets a `malformed` frame;
//! - **worker** threads wait on the queue's condvar and run each job
//!   through [`SimCache::run_cell_observed_traced`] with the job's own
//!   observer: a [`MetricsObserver`] and a [`UtilizationObserver`] whose
//!   live view streams back as `metrics` frames over the submitting
//!   connection, and whose `keep_running` cancels the simulation on the
//!   deadline, shutdown, or the client going away.
//!
//! Every frame is one `write_all` of the line and its newline on a
//! socket with Nagle's algorithm off, so a request/response round trip
//! never waits for the peer's delayed ACK.
//!
//! Drain sets the shutdown flag, wakes the workers, wakes `accept` with
//! one loopback connection, and joins them (the workers answer each job
//! still queued with `shutdown`); then it shuts down each live
//! connection, which ends its reader's `read`, and joins its thread.
//!
//! Locks: a connection's write lock is taken before the queue lock,
//! never after, and no socket write happens under the queue lock. The
//! shutdown flag is set under the queue lock, and workers and
//! submissions read it under that lock: no worker misses the wake-up,
//! and no job is queued once the workers have gone. A submission takes
//! its connection's lock, then the queue lock just to check the flag and
//! the depth, assign the id and enqueue, drops the queue lock, and
//! writes its `ack` (or `shutdown`, or `busy`) frame. The worker that
//! pops the job blocks on the same connection lock until the ack is
//! out, so the ack still precedes the job's frames. A client that stops
//! reading can therefore hold up only its own connection: a write that
//! finds no room in the socket's send buffer for `WRITE_TIMEOUT` fails,
//! the connection is shut down and marked dead, and its jobs cancel as
//! on a disconnect.
//!
//! Because every worker goes through the shared cache's single-flight
//! layer, two clients submitting the same cold cell coalesce: exactly
//! one simulation runs, the other client's `result` frame reports
//! `"source":"coalesced"` (and streams no metrics — only the leader
//! observes events).

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use predictsim_experiments::{
    parse_cluster, parse_triple, CellSource, ExperimentSetup, HeuristicTriple, LoadedWorkload,
    Scenario, ScenarioError, SimCache, SwfSource, SyntheticSource, WorkloadSource,
};
use predictsim_sim::{
    ClusterSpec, MetricsObserver, SimError, SimEvent, SimObserver, UtilizationObserver,
};
use predictsim_workload::WorkloadSpec;
use serde::{Serialize, Value};

use crate::protocol::{
    ack_frame, error_frame, metrics_frame, pong_frame, result_frame, ErrorCode, Line, LineReader,
    ProtoError, Request, Submission, WorkloadRequest, DEFAULT_METRICS_EVERY, MAX_LINE_BYTES,
};

/// Server tunables. `Default` suits interactive use; tests shrink the
/// queue to force the `busy` path.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Maximum queued (accepted but not yet running) submissions;
    /// beyond it submissions are rejected with `busy`.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 16,
        }
    }
}

/// How long the accept loop waits after failing to take on a
/// connection (out of descriptors, or of threads) before it accepts
/// again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long one write may wait for room in the socket's send buffer
/// (`SO_SNDTIMEO`) before the peer counts as stalled and its connection
/// is dropped. The kernel makes room each time a share of the buffer
/// drains, so a reader that keeps taking frames does not wait this long;
/// one that stops is dropped after one to two timeouts (a `write_all`
/// that moved part of a frame gets that part back after one, and its
/// next write fails after another).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Socket options of an accepted connection: Nagle off (each frame is
/// one write, sent at once) and a bounded write to a stalled peer.
fn configure_accepted(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))
}

/// One connection's write half, shared between its reader thread and
/// any worker streaming frames for its jobs. Writes are line-atomic
/// under the lock; a failed write marks the connection dead and shuts
/// its socket down, which cancels its in-flight jobs. A dead connection
/// is never written to again.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    alive: AtomicBool,
}

/// A [`ConnWriter`] held locked: frames sent through it go out in order
/// with no other frame between them.
struct LockedConn<'a> {
    conn: &'a ConnWriter,
    stream: MutexGuard<'a, TcpStream>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream: Mutex::new(stream),
            alive: AtomicBool::new(true),
        }
    }

    fn alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    /// Takes the write lock; `None` once the connection is dead.
    fn lock(&self) -> Option<LockedConn<'_>> {
        if !self.alive() {
            return None;
        }
        // A thread that panicked mid-write poisons the lock, and the
        // stream position is then unknowable — a torn frame may already
        // be on the wire. Recover the guard (the data is fine, only the
        // panicking writer was interrupted) but mark the connection
        // dead instead of interleaving more bytes into a corrupt frame
        // stream; its in-flight jobs cancel through the alive flag.
        let stream = match self.stream.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.alive.store(false, Ordering::Relaxed);
                drop(poisoned.into_inner());
                return None;
            }
        };
        // The writer this one waited for may have found the peer gone.
        self.alive().then_some(LockedConn { conn: self, stream })
    }

    fn send(&self, frame: &Value) -> bool {
        // Serialized outside the lock: a large frame does not hold up
        // the connection's other writers while it is built.
        let Some(line) = encode(frame) else {
            return false;
        };
        self.lock()
            .is_some_and(|mut locked| locked.write_line(&line))
    }
}

/// One frame as its wire line, newline included.
fn encode(frame: &Value) -> Option<String> {
    let mut line = serde_json::to_string(frame).ok()?;
    line.push('\n');
    Some(line)
}

impl LockedConn<'_> {
    fn send(&mut self, frame: &Value) -> bool {
        encode(frame).is_some_and(|line| self.write_line(&line))
    }

    fn write_line(&mut self, line: &str) -> bool {
        let ok = match predictsim_faultline::io_fault("serve.write") {
            // An injected socket fault of either kind models the frame
            // never reaching the peer: the connection is done.
            Some(_) => false,
            None => self.stream.write_all(line.as_bytes()).is_ok(),
        };
        if !ok {
            // Failed, or timed out on a stalled peer: a torn frame may be
            // on the wire. End the stream both ways so the peer sees an
            // end after its last whole frame, the reader thread sees EOF,
            // and no later frame waits out another timeout.
            self.conn.alive.store(false, Ordering::Relaxed);
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        ok
    }
}

/// A validated submission waiting for a worker, with the policies
/// [`validate`] resolved for its ack.
struct Pending {
    id: u64,
    submission: Submission,
    triple: HeuristicTriple,
    cluster: Option<ClusterSpec>,
    conn: Arc<ConnWriter>,
}

/// A connection whose reader thread may still run. The writer is weak:
/// the socket closes once the reader and the connection's jobs are
/// done with it, and `drain` closes it earlier if it is still open.
struct Conn {
    thread: JoinHandle<()>,
    writer: Weak<ConnWriter>,
}

struct Shared {
    cfg: ServeConfig,
    /// Set only under the `queue` lock (see the module docs).
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<Pending>>,
    wake: Condvar,
    next_job: AtomicU64,
    active: AtomicUsize,
    conns: Mutex<Vec<Conn>>,
    workloads: Mutex<HashMap<String, LoadedWorkload>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// A running daemon. [`Server::start`] binds and spawns the threads;
/// [`Server::shutdown`] drains gracefully; dropping without shutdown
/// also shuts down (so tests cannot leak threads).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr` and spawns the accept loop plus `cfg.workers`
    /// simulation workers.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            next_job: AtomicU64::new(1),
            active: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            workloads: Mutex::new(HashMap::new()),
        });
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        let workers = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs currently being simulated.
    pub fn active_jobs(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, reject everything still queued
    /// with `shutdown` errors, cancel in-flight simulations through
    /// their observers' `keep_running`, join every thread, and sweep this
    /// process's temp files out of the persistent cache directory.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        {
            let _queue = self.shared.queue.lock().expect("queue lock");
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.wake.notify_all();
        if let Some(accept) = self.accept.take() {
            // The accept loop sees the flag once `accept` returns.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        for conn in conns {
            // Its reader's `read` returns, and the peer sees an end after
            // its last whole frame.
            if let Some(writer) = conn.writer.upgrade() {
                let stream = writer.stream.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = stream.shutdown(Shutdown::Both);
            }
            let _ = conn.thread.join();
        }
        SimCache::global().flush_persistent();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.shutting_down() {
            self.drain();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutting_down() {
            return;
        }
        if accepted
            .and_then(|(stream, _peer)| add_conn(stream, &shared))
            .is_err()
        {
            std::thread::sleep(ACCEPT_BACKOFF);
        }
    }
}

/// Spawns the reader thread of an accepted connection and records it,
/// dropping the records of connections that have ended (which releases
/// their threads).
fn add_conn(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    configure_accepted(&stream)?;
    let writer = Arc::new(ConnWriter::new(stream.try_clone()?));
    let conn_writer = Arc::downgrade(&writer);
    let shared_conn = shared.clone();
    let thread =
        std::thread::Builder::new().spawn(move || handle_conn(stream, &writer, &shared_conn))?;
    let mut conns = shared.conns.lock().expect("conns lock");
    conns.retain(|conn| !conn.thread.is_finished());
    conns.push(Conn {
        thread,
        writer: conn_writer,
    });
    Ok(())
}

fn handle_conn(stream: TcpStream, writer: &Arc<ConnWriter>, shared: &Arc<Shared>) {
    let mut reader = LineReader::new(BufReader::new(stream), MAX_LINE_BYTES);
    loop {
        // Fault site for the socket's read half: a transient fire is an
        // `Interrupted` read, a hard fire a connection-fatal error.
        let next = match predictsim_faultline::io_fault("serve.read") {
            Some(injected) => Err(injected),
            None => reader.next_line(),
        };
        match next {
            Ok(None) => return, // EOF: client closed its write half and everything was read
            Ok(Some(Line::Oversized)) => {
                let err = ProtoError::new(
                    ErrorCode::Oversized,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                if !writer.send(&error_frame(None, &err)) {
                    return;
                }
            }
            Ok(Some(Line::Text(line))) => {
                if line.trim().is_empty() {
                    continue;
                }
                if !handle_request(&line, writer, shared) {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {
                // A transient read hiccup (signal, injected fault): the
                // partial line survives inside the reader; just retry.
            }
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                let err = ProtoError::new(
                    ErrorCode::Malformed,
                    "the connection ended inside a request line (no newline)",
                );
                writer.send(&error_frame(None, &err));
                return;
            }
            Err(_) => return,
        }
    }
}

/// Handles one request line; `false` ends the connection (write side
/// dead).
fn handle_request(line: &str, writer: &Arc<ConnWriter>, shared: &Arc<Shared>) -> bool {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(err) => return writer.send(&error_frame(None, &err)),
    };
    match request {
        Request::Ping => writer.send(&pong_frame()),
        Request::Stats => writer.send(&stats_frame(shared)),
        Request::Submit(submission) => {
            // Validate the policy names, cluster spec and preset scale
            // up front so a bad request fails fast, before queueing.
            let (triple, cluster) = match validate(&submission) {
                Ok(resolved) => resolved,
                Err(err) => return writer.send(&error_frame(None, &err)),
            };
            // Connection lock, then queue lock (see the module docs):
            // the ack is written after the queue lock is dropped but
            // before any worker can stream this job's frames, and
            // concurrent submitters cannot overshoot the bound.
            let Some(mut out) = writer.lock() else {
                return false;
            };
            let mut queue = shared.queue.lock().expect("queue lock");
            let depth = shared.cfg.queue_depth;
            let refusal = if shared.shutting_down() {
                ProtoError::new(ErrorCode::Shutdown, "server is draining")
            } else if queue.len() >= depth {
                let why = format!("submission queue full ({depth} pending); resubmit later");
                ProtoError::new(ErrorCode::Busy, why)
            } else {
                let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
                let ack = ack_frame(id, &triple.name(), &submission.workload.describe());
                queue.push_back(Pending {
                    id,
                    submission: *submission,
                    triple,
                    cluster,
                    conn: writer.clone(),
                });
                drop(queue);
                shared.wake.notify_one();
                return out.send(&ack);
            };
            drop(queue);
            out.send(&error_frame(None, &refusal))
        }
    }
}

fn stats_frame(shared: &Arc<Shared>) -> Value {
    let stats = SimCache::global().stats();
    let queued = shared.queue.lock().expect("queue lock").len();
    let active = shared.active.load(Ordering::Relaxed);
    let mut frame = vec![("type".into(), Value::Str("stats".into()))];
    frame.extend(
        stats
            .fields()
            .map(|(name, value)| (name.into(), Value::UInt(value))),
    );
    frame.push(("queued".into(), Value::UInt(queued as u64)));
    frame.push(("active".into(), Value::UInt(active as u64)));
    Value::Map(frame)
}

/// Most jobs one request may ask the daemon to generate: ten times the
/// largest registered preset (`millions-of-users@1.0`). Generation
/// allocates per job, and a failed allocation aborts the process — it
/// does not unwind into `worker_loop`'s `catch_unwind`. It also bounds
/// the workload memo, which would otherwise keep one workload per
/// distinct request (a client varying `seed`) for the daemon's life.
const MAX_REQUEST_JOBS: usize = 10_000_000;

/// Fewest bytes one SWF record takes: 18 fields of at least one
/// character, with a separator between each two.
const MIN_SWF_RECORD_BYTES: u64 = 35;

/// Most jobs the SWF file at `path` can hold, from its length alone; 0
/// when it has no length to read (the load then reports why).
fn swf_job_bound(path: &str) -> usize {
    std::fs::metadata(path).map_or(0, |meta| {
        usize::try_from(meta.len() / MIN_SWF_RECORD_BYTES).unwrap_or(usize::MAX)
    })
}

/// Resolves the submission's policy strings against the registry and
/// range-checks what workload generation would otherwise assert or
/// abort on (without loading the workload: an SWF file is bounded by
/// its length).
fn validate(submission: &Submission) -> Result<(HeuristicTriple, Option<ClusterSpec>), ProtoError> {
    let bad = |m: String| ProtoError::new(ErrorCode::BadWorkload, m);
    let jobs = match &submission.workload {
        WorkloadRequest::Preset { log, scale, seed } => {
            if !(scale.is_finite() && *scale > 0.0) {
                return Err(bad(format!("scale must be a positive number, got {scale}")));
            }
            let setup = ExperimentSetup {
                scale: *scale,
                seed: *seed,
            };
            // An unknown preset is reported by the load, as before.
            setup.spec(log).map_or(0, |spec| spec.jobs)
        }
        WorkloadRequest::Toy { jobs, .. } => *jobs,
        WorkloadRequest::Swf { path } => swf_job_bound(path),
    };
    if jobs > MAX_REQUEST_JOBS {
        return Err(bad(format!(
            "{jobs} jobs requested; one request may generate at most {MAX_REQUEST_JOBS}"
        )));
    }
    let registry = |e: predictsim_experiments::RegistryError| {
        ProtoError::new(ErrorCode::UnknownPolicy, e.to_string())
    };
    let triple = parse_triple(
        submission.scheduler.as_deref(),
        submission.predictor.as_deref(),
        submission.correction.as_deref(),
    )
    .map_err(registry)?;
    let cluster = match &submission.cluster {
        Some(spec) => Some(parse_cluster(spec).map_err(registry)?),
        None => None,
    };
    Ok((triple, cluster))
}

/// Loads (or recalls from `memo`) the submission's workload. The memo
/// holds at most `budget` jobs: a load that would pass it empties the
/// memo first, and a workload larger than `budget` is not kept.
fn memoized_workload(
    request: &WorkloadRequest,
    memo: &Mutex<HashMap<String, LoadedWorkload>>,
    budget: usize,
) -> Result<LoadedWorkload, ProtoError> {
    let memo_key = request.describe();
    if let Some(hit) = memo.lock().expect("workloads lock").get(&memo_key) {
        return Ok(hit.clone());
    }
    let loaded = build_workload(request)?;
    let mut memo = memo.lock().expect("workloads lock");
    let held: usize = memo.values().map(|w| w.jobs.len()).sum();
    if held + loaded.jobs.len() > budget {
        memo.clear();
    }
    if loaded.jobs.len() <= budget {
        memo.insert(memo_key, loaded.clone());
    }
    Ok(loaded)
}

/// Resolves and loads a workload request (no memoization).
pub fn build_workload(request: &WorkloadRequest) -> Result<LoadedWorkload, ProtoError> {
    let bad = |m: String| ProtoError::new(ErrorCode::BadWorkload, m);
    let loaded = match request {
        WorkloadRequest::Preset { log, scale, seed } => {
            let setup = ExperimentSetup {
                scale: *scale,
                seed: *seed,
            };
            let spec = setup
                .spec(log)
                .ok_or_else(|| bad(format!("no Table 4 preset matches `{log}`")))?;
            SyntheticSource::new(spec, *seed)
                .load()
                .map_err(|e| bad(e.to_string()))?
        }
        WorkloadRequest::Swf { path } => SwfSource::new(path)
            .load()
            .map_err(|e| bad(e.to_string()))?,
        WorkloadRequest::Toy {
            name,
            jobs,
            duration,
            utilization,
            seed,
        } => {
            let mut spec = WorkloadSpec::toy();
            spec.name = name.clone();
            spec.jobs = *jobs;
            spec.duration = *duration;
            spec.utilization = *utilization;
            SyntheticSource::new(spec, *seed)
                .load()
                .map_err(|e| bad(e.to_string()))?
        }
    };
    Ok(loaded)
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let queue = shared.queue.lock().expect("queue lock");
        let pending = shared
            .wake
            .wait_while(queue, |queue| queue.is_empty() && !shared.shutting_down())
            .expect("queue lock poisoned")
            .pop_front();
        // Empty, so shutting down: every queued job has been answered.
        let Some(pending) = pending else { return };
        if shared.shutting_down() {
            // Drain semantics: work that never started is rejected, not
            // silently dropped.
            let err = ProtoError::new(ErrorCode::Shutdown, "server is draining");
            pending.conn.send(&error_frame(Some(pending.id), &err));
            continue;
        }
        shared.active.fetch_add(1, Ordering::Relaxed);
        // Panic isolation: the cache already catches panics inside the
        // cell simulation, so this guards the rest of the job path
        // (workload build, frame serialization, the job observer). A
        // poisoned job becomes a typed `internal` frame; the worker —
        // and the daemon — keep serving.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(&pending, &shared)));
        shared.active.fetch_sub(1, Ordering::Relaxed);
        if outcome.is_err() {
            let err = ProtoError::new(
                ErrorCode::Internal,
                "internal error: worker panicked while running the job",
            );
            pending.conn.send(&error_frame(Some(pending.id), &err));
        }
    }
}

/// One running job's observer: it streams a `metrics` frame over the
/// submitting connection every `every` events, and the engine polls it
/// for cancellation (server drain, the client gone, or the deadline).
struct JobObserver<'a> {
    id: u64,
    metrics: MetricsObserver,
    utilization: UtilizationObserver,
    every: u64,
    conn: &'a ConnWriter,
    shared: &'a Shared,
    deadline: Option<Instant>,
}

impl SimObserver for JobObserver<'_> {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        self.metrics.on_event(event);
        self.utilization.on_event(event);
        if self.metrics.events().is_multiple_of(self.every) {
            self.conn
                .send(&metrics_frame(self.id, &self.metrics, &self.utilization));
        }
    }

    fn keep_running(&self) -> bool {
        !self.shared.shutting_down()
            && self.conn.alive()
            && self.deadline.is_none_or(|d| Instant::now() < d)
    }
}

/// Runs one submission to its `result` (or job-tagged `error`) frame.
fn run_job(pending: &Pending, shared: &Arc<Shared>) {
    let id = pending.id;
    let submission = &pending.submission;
    let conn = &pending.conn;
    let fail = |err: ProtoError| {
        conn.send(&error_frame(Some(id), &err));
    };
    let workload =
        match memoized_workload(&submission.workload, &shared.workloads, MAX_REQUEST_JOBS) {
            Ok(w) => w,
            Err(err) => return fail(err),
        };
    let cluster = pending
        .cluster
        .unwrap_or_else(|| ClusterSpec::single(workload.machine_size));

    let deadline = submission
        .timeout_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut observer = JobObserver {
        id,
        metrics: MetricsObserver::new(),
        utilization: UtilizationObserver::new(cluster, UtilizationObserver::DEFAULT_BUCKET_SECONDS),
        // `metrics_every: 0` means every event, not a division by zero.
        every: submission
            .metrics_every
            .unwrap_or(DEFAULT_METRICS_EVERY)
            .max(1),
        conn,
        shared,
        deadline,
    };
    let run = SimCache::global().run_cell_observed_traced(
        &workload.jobs,
        cluster,
        &pending.triple,
        &mut observer,
    );
    match run {
        Ok((cell, source)) => {
            let source = match source {
                CellSource::Simulated => "simulated",
                CellSource::Memory => "memory",
                CellSource::Disk => "disk",
                CellSource::Coalesced => "coalesced",
            };
            conn.send(&result_frame(id, source, cell.result.to_value()));
        }
        Err(ScenarioError::Sim(SimError::Aborted { .. })) => {
            let err = if shared.shutting_down() {
                ProtoError::new(ErrorCode::Shutdown, "cancelled: server draining")
            } else if deadline.is_some_and(|d| Instant::now() >= d) {
                ProtoError::new(
                    ErrorCode::Timeout,
                    format!(
                        "cancelled after {} ms",
                        submission.timeout_ms.unwrap_or_default()
                    ),
                )
            } else {
                ProtoError::new(ErrorCode::Internal, "cancelled: client disconnected")
            };
            fail(err);
        }
        Err(other) => fail(ProtoError::new(ErrorCode::Internal, other.to_string())),
    }
}

/// A convenience wrapper for tests: the batch-identical `TripleResult`
/// JSON for a submission, computed in-process without a socket (what
/// `repro scenario` writes as `scenario.json`).
pub fn batch_result_json(submission: &Submission) -> Result<String, ProtoError> {
    let (triple, cluster_override) = validate(submission)?;
    let workload = build_workload(&submission.workload)?;
    let cluster = cluster_override.unwrap_or_else(|| ClusterSpec::single(workload.machine_size));
    let result = Scenario::from_triple(&triple)
        .run_on(&workload.jobs, predictsim_sim::SimConfig { cluster })
        .map_err(|e| ProtoError::new(ErrorCode::Internal, e.to_string()))?;
    let summary = predictsim_experiments::TripleResult::from_sim(&triple, &result);
    serde_json::to_string_pretty(&summary).map_err(|e| ProtoError::new(ErrorCode::Internal, e.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn workload_memo_holds_at_most_its_job_budget() {
        let memo = Mutex::new(HashMap::new());
        let toy = |seed| WorkloadRequest::Toy {
            name: "memo".into(),
            jobs: 200,
            duration: 86_400,
            utilization: 0.8,
            seed,
        };
        for seed in 0..5 {
            memoized_workload(&toy(seed), &memo, 500).expect("toy loads");
            let memo = memo.lock().unwrap();
            let held: usize = memo.values().map(|w| w.jobs.len()).sum();
            assert!(held <= 500, "memo holds {held} jobs after seed {seed}");
            assert!(memo.contains_key(&toy(seed).describe()), "latest load kept");
        }
    }

    #[test]
    fn swf_files_too_long_for_the_job_cap_are_refused_before_loading() {
        let dir = std::env::temp_dir().join(format!("predictsim-serve-swf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let submit = |path: &std::path::Path| {
            validate(&Submission::new(WorkloadRequest::Swf {
                path: path.to_string_lossy().into_owned(),
            }))
        };
        let sized = |name: &str, records: u64| {
            let path = dir.join(name);
            // Sparse: setting the length writes no data.
            let file = std::fs::File::create(&path).expect("create");
            file.set_len(records * MIN_SWF_RECORD_BYTES)
                .expect("set_len");
            path
        };
        let too_long = sized("too-long.swf", MAX_REQUEST_JOBS as u64 + 1);
        let err = submit(&too_long).expect_err("a file that could hold too many jobs");
        assert_eq!(err.code, ErrorCode::BadWorkload);
        assert!(err.message.contains("jobs requested"), "{}", err.message);
        let at_cap = sized("at-cap.swf", MAX_REQUEST_JOBS as u64);
        assert!(submit(&at_cap).is_ok(), "a file at the cap passes");
        // A missing file passes validation; its load reports it.
        assert!(submit(&dir.join("missing.swf")).is_ok());
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn conn_writer_survives_a_poisoned_stream_lock() {
        let (stream, _peer) = socket_pair();
        let writer = Arc::new(ConnWriter::new(stream));
        let poisoner = writer.clone();
        let outcome = std::thread::spawn(move || {
            let _guard = poisoner.stream.lock().expect("first lock is clean");
            panic!("writer thread dies mid-frame");
        })
        .join();
        assert!(outcome.is_err(), "the writer thread must have panicked");
        assert!(
            writer.alive(),
            "the panic alone does not kill the connection"
        );
        // The next send must recover the poisoned guard instead of
        // panicking, report failure, and mark the connection dead so
        // its in-flight jobs cancel.
        let frame = Value::Map(vec![("type".into(), Value::Str("pong".into()))]);
        assert!(
            !writer.send(&frame),
            "send on a poisoned writer reports failure"
        );
        assert!(!writer.alive(), "the connection is marked dead");
        assert!(!writer.send(&frame), "and stays dead");
    }

    #[test]
    fn accepted_streams_send_at_once_and_bound_their_writes() {
        let (_client, server) = socket_pair();
        configure_accepted(&server).expect("configure");
        assert!(server.nodelay().expect("read TCP_NODELAY"));
        assert_eq!(
            server.write_timeout().expect("read SO_SNDTIMEO"),
            Some(WRITE_TIMEOUT)
        );
    }

    #[test]
    fn closed_connections_leave_the_live_list() {
        use std::io::Read;
        // The empty plan keeps this test's frames from consuming another
        // test's injected write fault.
        let plan = predictsim_faultline::FaultPlan::parse("").expect("empty plan");
        predictsim_faultline::with_plan(plan, || {
            let server = Server::start(ServeConfig::default()).expect("daemon starts");
            let ping = || {
                let mut stream = TcpStream::connect(server.addr()).expect("connect");
                stream.write_all(b"{\"type\":\"ping\"}\n").expect("ping");
                stream.shutdown(Shutdown::Write).expect("half-close");
                let mut reply = String::new();
                stream
                    .read_to_string(&mut reply)
                    .expect("pong, then the end");
                assert_eq!(reply, "{\"type\":\"pong\"}\n");
            };
            for _ in 0..50 {
                ping();
            }
            // Ended connections are forgotten at the next accept, and the
            // last one or two may still be ending then: more pings settle it.
            let live = || server.shared.conns.lock().expect("conns lock").len();
            let settled = (0..20).any(|_| {
                ping();
                live() <= 2
            });
            assert!(settled, "{} connections kept after 50 closed", live());
            server.shutdown();
        });
    }

    #[test]
    fn a_failed_write_ends_the_stream_and_the_connection_stays_dead() {
        use std::io::Read;
        let (mut client, server) = socket_pair();
        let writer = ConnWriter::new(server);
        let frame = Value::Map(vec![("type".into(), Value::Str("pong".into()))]);
        assert!(writer.send(&frame), "a healthy connection writes");
        let plan = predictsim_faultline::FaultPlan::parse("serve.write:max=1").expect("plan");
        predictsim_faultline::with_plan(plan, || {
            assert!(!writer.send(&frame), "the injected write fails");
        });
        assert!(!writer.alive(), "the connection is marked dead");
        assert!(writer.lock().is_none(), "and cannot be locked for a write");
        assert!(!writer.send(&frame), "so later frames are refused at once");
        // The peer sees the whole frame written before the failure, then
        // the end the shutdown sent.
        let mut seen = String::new();
        client.read_to_string(&mut seen).expect("read to the end");
        assert_eq!(seen, "{\"type\":\"pong\"}\n");
    }
}
