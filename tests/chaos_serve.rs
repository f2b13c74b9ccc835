//! The serve daemon under faults, end to end over a real socket.
//!
//! - Panic isolation: a cell whose simulation panics on every bounded
//!   retry surfaces as a **typed `internal` error frame** — the worker
//!   thread survives, the connection stays open, and the very next
//!   submission (the injected fault budget spent) simulates normally.
//! - A stalled client: one that submits a cell streaming a frame per
//!   event and never reads holds up only its own connection. Another
//!   client is answered meanwhile, the stalled write times out and
//!   cancels the cell, the daemon drains, and the stalled client reads
//!   whole frames and then an end.
//! - Round trips on one kept-open connection cost no delayed-ACK wait.
//!
//! A wedged daemon, a dropped connection, or an unmarked silence here
//! fails a test. Every test reads its frames under a bound, so a
//! daemon that wedges fails it instead of hanging the binary.
//!
//! The fault plan is process-global, so these tests live in their own
//! binary; each runs under [`faultline::with_plan`] (an empty plan for
//! the fault-free ones), which serializes them and uninstalls the plan
//! even on panic.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use predictsim::experiments::SimCache;
use predictsim::serve::{Client, Frame, ServeConfig, Server, Submission, WorkloadRequest};
use predictsim_faultline::{self as faultline, FaultPlan};

/// The daemon's write timeout: a write that finds no room in the
/// socket's send buffer for this long drops the connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Runs `f` on its own thread and waits at most `limit` for its value,
/// so a daemon that wedges fails the test instead of hanging it.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::sync_channel(1);
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            waiter.join().expect("the value was sent");
            value
        }
        // The waiter is left blocked; the failed test ends with it.
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: nothing within {limit:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(waiter.join().expect_err("no value: `f` panicked"))
        }
    }
}

fn toy(name: &str, seed: u64) -> Submission {
    let mut submission = Submission::new(WorkloadRequest::Toy {
        name: name.into(),
        jobs: 60,
        duration: 14 * 86_400,
        utilization: 0.8,
        seed,
    });
    submission.scheduler = Some("easy-sjbf".into());
    submission.predictor = Some("ave2".into());
    submission.correction = Some("incremental".into());
    submission
}

fn next_ok(client: &mut Client) -> Frame {
    match client.next_frame().expect("read frame") {
        Some(Ok(frame)) => frame,
        Some(Err(e)) => panic!("unparsable frame: {e}"),
        None => panic!("server closed the connection early"),
    }
}

fn await_ack(client: &mut Client) -> u64 {
    match next_ok(client) {
        Frame::Ack { job, .. } => job,
        other => panic!("expected an ack, got {other:?}"),
    }
}

#[test]
fn poisoned_cell_answers_a_typed_internal_error_and_the_daemon_keeps_serving() {
    // Exactly enough injected panics to exhaust one cell's bounded
    // retries; after that the site is spent and the daemon is healthy.
    let plan = FaultPlan::parse(&format!("cell.panic:max={}", SimCache::PANIC_RETRIES))
        .expect("valid fault plan");
    faultline::with_plan(plan, || {
        let daemon = Daemon(Some(
            Server::start(ServeConfig::default()).expect("daemon starts"),
        ));
        let mut client = Client::connect(daemon.server().addr()).expect("connect");
        within(
            Duration::from_secs(30),
            "the poisoned cell, the next cell and a ping",
            move || {
                client
                    .submit(&toy("chaos-poisoned", 77_001))
                    .expect("submit");
                let job = await_ack(&mut client);
                let (tagged, code, message) = loop {
                    if let Frame::Error { job, code, message } = next_ok(&mut client) {
                        break (job, code, message);
                    }
                };
                assert_eq!(tagged, Some(job), "the failure is tagged to its job");
                assert_eq!(
                    code, "internal",
                    "a poisoned cell is a typed internal error"
                );
                assert!(
                    message.contains("panicked"),
                    "the panic is named, not euphemized: {message}"
                );

                // Same connection, next submission: the fault budget is
                // spent, the worker pool is intact, and the cell
                // simulates normally.
                client
                    .submit(&toy("chaos-recovered", 77_002))
                    .expect("submit");
                let job2 = await_ack(&mut client);
                loop {
                    match next_ok(&mut client) {
                        Frame::Result { job, .. } => {
                            assert_eq!(job, job2);
                            break;
                        }
                        Frame::Error { message, .. } => {
                            panic!("recovery submission failed: {message}")
                        }
                        _ => {} // metrics frames interleave freely
                    }
                }

                // And the control plane never blinked.
                client.ping().expect("ping");
                assert!(matches!(next_ok(&mut client), Frame::Pong));
            },
        );
    });
}

/// The daemon under test. Dropping it drains it under a bound, so a
/// failed assertion neither hangs on a wedged drain nor leaves a live
/// daemon running jobs beside the next test (whose fault plan they
/// would consume).
struct Daemon(Option<Server>);

impl Daemon {
    fn server(&self) -> &Server {
        self.0.as_ref().expect("the daemon is running")
    }

    /// Drains the daemon; `false` if that takes longer than `limit`.
    fn shutdown(&mut self, limit: Duration) -> bool {
        let Some(server) = self.0.take() else {
            return true;
        };
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            server.shutdown();
            let _ = tx.send(());
        });
        let drained = rx.recv_timeout(limit).is_ok();
        if drained {
            let _ = drain.join();
        }
        drained
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(10));
    }
}

/// Reads frames until `job`'s `result`; any `error` frame fails.
fn await_result(client: &mut Client, job: u64) {
    loop {
        match next_ok(client) {
            Frame::Result { job: done, .. } if done == job => return,
            Frame::Error { message, .. } => panic!("job {job} failed: {message}"),
            _ => {} // metrics frames
        }
    }
}

#[test]
fn a_client_that_stops_reading_stalls_only_its_own_connection() {
    faultline::with_plan(FaultPlan::parse("").expect("empty plan"), || {
        // Three workers: the stalled cell pins one in its write, a
        // second cell of the stalled client may wait on the same
        // connection, and the third is the bystander's.
        let cfg = ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        };
        let mut daemon = Daemon(Some(Server::start(cfg).expect("daemon starts")));
        let addr = daemon.server().addr();

        // A: a long cell with a metrics frame per event, never read. A
        // failed assertion drops A before the daemon, which frees a
        // worker stuck writing to it.
        let mut stalled = Client::connect(addr).expect("connect");
        let mut flood = toy("chaos-stalled", 77_003);
        if let WorkloadRequest::Toy { jobs, .. } = &mut flood.workload {
            *jobs = 200_000;
        }
        flood.metrics_every = Some(1);
        stalled.submit(&flood).expect("submit");
        // Its frames fill both socket buffers (megabytes on loopback)
        // within this, leaving its worker blocked in a write that holds
        // A's connection lock. Nothing outside the daemon can see that
        // moment, hence a sleep. The verdict does not hang on it: were A's
        // second submission to beat the stall, a daemon without a bounded
        // write would still fail the `active_jobs` checks below. The
        // sleep is kept short of the write timeout, which must not have
        // fired by the time B is answered.
        std::thread::sleep(Duration::from_millis(1500));
        let stalled_at = Instant::now();
        // A submits again: its reader thread now waits for that lock.
        stalled
            .submit(&toy("chaos-stalled-again", 77_004))
            .expect("submit");
        std::thread::sleep(Duration::from_millis(100));

        // B is answered while A is stalled.
        within(
            Duration::from_secs(2),
            "a second client's cell while the first is stalled",
            move || {
                let mut bystander = Client::connect(addr).expect("connect");
                bystander
                    .submit(&toy("chaos-bystander", 77_005))
                    .expect("submit");
                let job = await_ack(&mut bystander);
                await_result(&mut bystander, job);
            },
        );
        assert!(
            daemon.server().active_jobs() > 0,
            "the stalled cell still holds its worker"
        );

        // The stalled write times out and A's cell cancels as on a
        // disconnect. A write that had moved part of a frame before the
        // stall returns that part only after one timeout, and the next
        // write fails after another, so this takes up to two.
        let deadline = stalled_at + 2 * WRITE_TIMEOUT + Duration::from_secs(2);
        while daemon.server().active_jobs() > 0 {
            assert!(
                Instant::now() < deadline,
                "{} job(s) still running after the write timeout",
                daemon.server().active_jobs()
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        // The daemon drains while A is still connected.
        assert!(
            daemon.shutdown(Duration::from_secs(5)),
            "the daemon drains while the stalled client is connected"
        );

        // A reads whole frames, then an end: EOF, or a typed error for
        // the frame the timeout cut short.
        let (frames, end) = within(
            Duration::from_secs(5),
            "the stalled client's backlog",
            move || {
                let mut frames = Vec::new();
                let end = loop {
                    match stalled.next_frame() {
                        Ok(None) => break None,
                        Ok(Some(Ok(frame))) => frames.push(frame),
                        Ok(Some(Err(e))) => {
                            panic!("frame {} reads as malformed: {e}", frames.len())
                        }
                        Err(e) => break Some(e.kind()),
                    }
                };
                (frames, end)
            },
        );
        assert!(
            matches!(frames.first(), Some(Frame::Ack { job: 1, .. })),
            "the stalled cell's ack comes first"
        );
        // The second cell is in the backlog only if it beat the stall.
        assert!(
            frames.iter().all(|f| matches!(
                f,
                Frame::Ack { .. } | Frame::Metrics { .. } | Frame::Result { .. }
            )),
            "only the two cells' frames"
        );
        assert!(
            frames.len() > 100,
            "{} frames before the stall",
            frames.len()
        );
        assert!(
            matches!(
                end,
                None | Some(
                    std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
                )
            ),
            "the stream ends with EOF or a torn frame, not {end:?}"
        );
    });
}

#[test]
fn round_trips_on_one_connection_wait_for_no_delayed_ack() {
    faultline::with_plan(FaultPlan::parse("").expect("empty plan"), || {
        let server = Server::start(ServeConfig::default()).expect("daemon starts");
        let mut client = Client::connect(server.addr()).expect("connect");
        // A delayed ACK costs 40 ms or more per round trip: fifty of
        // them would take two seconds.
        let elapsed = within(Duration::from_secs(10), "50 pings", move || {
            let start = Instant::now();
            for _ in 0..50 {
                client.ping().expect("ping");
                assert!(matches!(next_ok(&mut client), Frame::Pong));
            }
            start.elapsed()
        });
        assert!(
            elapsed < Duration::from_secs(1),
            "50 pings on one connection took {elapsed:?}"
        );
        server.shutdown();
    });
}
