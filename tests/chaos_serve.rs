//! Panic isolation in the serve daemon, end to end over a real socket:
//! a cell whose simulation panics on every bounded retry surfaces as a
//! **typed `internal` error frame** — the worker thread survives, the
//! connection stays open, and the very next submission (the injected
//! fault budget spent) simulates normally. A wedged daemon, a dropped
//! connection, or an unmarked silence here would all fail this test.
//!
//! The fault plan is process-global, so this test lives in its own
//! binary; [`faultline::with_plan`] serializes it against any future
//! sibling and uninstalls the plan even on panic.

use predictsim::experiments::SimCache;
use predictsim::serve::{Client, Frame, ServeConfig, Server, Submission, WorkloadRequest};
use predictsim_faultline::{self as faultline, FaultPlan};

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
        let server = Server::start(ServeConfig::default()).expect("daemon starts");
        let mut client = Client::connect(server.addr()).expect("connect");

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

        // Same connection, next submission: the fault budget is spent,
        // the worker pool is intact, and the cell simulates normally.
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
                Frame::Error { message, .. } => panic!("recovery submission failed: {message}"),
                _ => {} // metrics frames interleave freely
            }
        }

        // And the control plane never blinked.
        client.ping().expect("ping");
        assert!(matches!(next_ok(&mut client), Frame::Pong));
        server.shutdown();
    });
}
