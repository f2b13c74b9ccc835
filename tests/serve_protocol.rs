//! Wire-protocol robustness for the `serve` daemon, over real
//! sockets: malformed and oversized requests get typed `error` frames
//! (not disconnects), unknown registry names, non-positive scales and
//! workloads too large to generate are rejected before queueing, half-closed connections still stream
//! their results, a request line cut off by a half-close gets a
//! `malformed` frame, per-request timeouts cancel cooperatively, a full
//! queue answers `busy`, concurrent cold submissions of the same cell
//! coalesce into exactly one simulation, shutdown drains instead of
//! dropping work (and ends idle connections at once, whatever address
//! the daemon is bound to), and `metrics` progress frames stream ahead
//! of a job's result. Off the socket, the parse surfaces survive
//! arbitrary bytes.
//!
//! Every test starts its own daemon on an ephemeral port; workload
//! seeds are test-unique so the process-wide `SimCache` cannot turn an
//! intended cold cell into a cross-test hit.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use predictsim::serve::{
    Client, ErrorCode, Frame, Line, LineReader, Request, ServeConfig, Server, Submission,
    WorkloadRequest, MAX_LINE_BYTES,
};
use proptest::prelude::*;
use serde::Value;

/// A test-unique toy workload: `seed` keys the cache identity.
fn toy(name: &str, jobs: usize, seed: u64) -> Submission {
    let mut submission = Submission::new(WorkloadRequest::Toy {
        name: name.into(),
        jobs,
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

/// Skips interleaved frames (metrics, other jobs) until an `error`
/// frame arrives; returns its `(job, code, message)`.
fn await_error(client: &mut Client) -> (Option<u64>, String, String) {
    loop {
        if let Frame::Error { job, code, message } = next_ok(client) {
            return (job, code, message);
        }
    }
}

#[test]
fn malformed_requests_get_typed_errors_and_the_session_survives() {
    let server = Server::start(ServeConfig::default()).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    client.send_line("this is not json").expect("send");
    let (job, code, _) = await_error(&mut client);
    assert_eq!(job, None);
    assert_eq!(code, "malformed");

    // A JSON line that is not a request object is malformed too.
    client.send_line("[1,2,3]").expect("send");
    let (_, code, _) = await_error(&mut client);
    assert_eq!(code, "malformed");

    // The connection is still usable.
    client.ping().expect("ping");
    assert!(matches!(next_ok(&mut client), Frame::Pong));
    server.shutdown();
}

/// The daemon reads only JSON (RFC 8259): a request that spells a
/// number or a string in a form the RFC forbids is `malformed`, whatever
/// value a laxer parser would have read from it.
#[test]
fn requests_in_non_json_spellings_are_malformed() {
    let submit = |workload: &str| format!(r#"{{"type":"submit","workload":{{{workload}}}}}"#);
    assert!(Request::parse(&submit(r#""log":"KTH-SP2","scale":0.5,"seed":7"#)).is_ok());
    let mut lines = vec![submit(r#""log":"KTH-SP2","seed":007"#)];
    for number in ["007", "-01", "00", "01.5", "+1", ".5", "-.5", "1.", "1.e5"] {
        lines.push(submit(&format!(r#""log":"KTH-SP2","scale":{number}"#)));
    }
    for log in [r"KTH-\u+041", "KTH-\u{1}", "KTH\tSP2"] {
        lines.push(submit(&format!(r#""log":"{log}""#)));
    }
    for line in &lines {
        let err = Request::parse(line).expect_err(line);
        assert_eq!(err.code, ErrorCode::Malformed, "{line}: {err}");
    }
}

/// A surrogate-pair escape is valid JSON: a toy whose `name` spells
/// U+1F600 as `\ud83d\ude00` is accepted, and the `ack` echoes the
/// decoded name.
#[test]
fn a_surrogate_pair_escape_in_a_name_is_accepted_and_echoed() {
    let server = Server::start(ServeConfig::default()).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    let line = serde_json::to_string(&toy("NAME", 40, 9_111).to_value())
        .expect("a submission prints")
        .replace("NAME", r"\ud83d\ude00");
    client.send_line(&line).expect("send");
    match next_ok(&mut client) {
        Frame::Ack { workload, .. } => {
            assert!(workload.starts_with("toy \u{1F600} jobs=40"), "{workload}")
        }
        other => panic!("expected an ack, got {other:?}"),
    }
    server.shutdown();
}

/// A line nested deeper than a connection thread's stack could parse
/// by recursion, yet well under the line cap, gets a `malformed` frame
/// and the session survives.
#[test]
fn deeply_nested_lines_are_malformed_and_the_session_survives() {
    let server = Server::start(ServeConfig::default()).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    client.send_line(&"[".repeat(20_000)).expect("send");
    let (job, code, message) = await_error(&mut client);
    assert_eq!(job, None);
    assert_eq!(code, "malformed");
    assert!(message.contains("recursion limit"), "{message}");

    client.ping().expect("ping");
    assert!(matches!(next_ok(&mut client), Frame::Pong));
    server.shutdown();
}

/// One request must not be able to take the daemon down: a workload
/// too large to generate (a failed allocation aborts the process, it
/// does not unwind) or a toy count that is not a count is refused
/// before the ack, and the connection keeps working.
#[test]
fn oversized_and_misshapen_workloads_are_rejected_before_queueing() {
    let server = Server::start(ServeConfig::default()).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    let toy = |jobs: &str, duration: &str| {
        format!(r#"{{"toy":{{"jobs":{jobs},"duration":{duration},"utilization":0.8}}}}"#)
    };
    for workload in [
        toy("3000000000", "7776000"),
        r#"{"log":"KTH","scale":1e6}"#.to_string(),
        toy("2.5", "86400"),
        toy("100", "-86400"),
    ] {
        client
            .send_line(&format!(r#"{{"type":"submit","workload":{workload}}}"#))
            .expect("send");
        // The very next frame: no ack came first.
        match next_ok(&mut client) {
            Frame::Error { job, code, .. } => {
                assert_eq!((job, code.as_str()), (None, "bad-workload"), "{workload}")
            }
            other => panic!("{workload}: expected a bad-workload error, got {other:?}"),
        }
    }
    client.ping().expect("ping");
    assert!(matches!(next_ok(&mut client), Frame::Pong));
    server.shutdown();
}

#[test]
fn unknown_policy_names_are_rejected_before_queueing() {
    let server = Server::start(ServeConfig::default()).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut submission = toy("unknown-policy", 40, 9_101);
    submission.scheduler = Some("warp-drive".into());
    client.submit(&submission).expect("submit");
    let (job, code, message) = await_error(&mut client);
    assert_eq!(job, None, "rejected before a job id is assigned");
    assert_eq!(code, "unknown-policy");
    assert!(
        message.contains("warp-drive"),
        "the offending name is echoed: {message}"
    );

    // So is a non-positive preset scale, which used to be acked and then
    // panic the worker in workload generation (an `internal` frame).
    for scale in ["0", "-1"] {
        let workload = format!(r#"{{"log":"KTH","scale":{scale}}}"#);
        client
            .send_line(&format!(r#"{{"type":"submit","workload":{workload}}}"#))
            .expect("send");
        // The very next frame: no ack came first.
        match next_ok(&mut client) {
            Frame::Error { job, code, .. } => {
                assert_eq!((job, code.as_str()), (None, "bad-workload"))
            }
            other => panic!("expected a bad-workload error, got {other:?}"),
        }
    }
    client.ping().expect("ping");
    assert!(matches!(next_ok(&mut client), Frame::Pong));

    // A workload that only fails at load time is discovered after the
    // ack — so that error is job-tagged.
    client
        .submit(&Submission::new(WorkloadRequest::Preset {
            log: "NO-SUCH-LOG".into(),
            scale: 0.01,
            seed: 9_102,
        }))
        .expect("submit");
    let job = await_ack(&mut client);
    let (tagged, code, _) = await_error(&mut client);
    assert_eq!(tagged, Some(job));
    assert_eq!(code, "bad-workload");
    server.shutdown();
}

#[test]
fn oversized_lines_are_rejected_but_the_session_continues() {
    let server = Server::start(ServeConfig::default()).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Just over the cap: the padding alone fills it.
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(MAX_LINE_BYTES));
    client.send_line(&huge).expect("send");
    let (job, code, _) = await_error(&mut client);
    assert_eq!(job, None);
    assert_eq!(code, "oversized");

    client.ping().expect("ping");
    assert!(matches!(next_ok(&mut client), Frame::Pong));
    server.shutdown();
}

#[test]
fn half_closed_connections_still_stream_their_results() {
    let server = Server::start(ServeConfig::default()).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    client
        .submit(&toy("half-closed", 60, 9_103))
        .expect("submit");
    // Close the write half immediately: the daemon sees EOF on its
    // reader but must keep streaming the submitted job's frames.
    client.finish_writing().expect("half-close");

    let job = await_ack(&mut client);
    let frames = client.drain_job(job).expect("frames stream back");
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, Frame::Result { job: j, .. } if *j == job)),
        "result frame arrives after the half-close: {frames:?}"
    );
    // With the job done and the read side at EOF, the daemon closes.
    assert!(client.next_frame().expect("clean close").is_none());
    server.shutdown();
}

#[test]
fn a_request_line_cut_off_by_a_half_close_gets_a_malformed_frame() {
    let server = Server::start(ServeConfig::default()).expect("daemon starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(br#"{"type":"ping"}"#).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut seen = String::new();
    let limit = Some(Duration::from_secs(5));
    stream.set_read_timeout(limit).expect("bound the read");
    stream.read_to_string(&mut seen).expect("read to the end");
    let (line, rest) = seen.split_once('\n').expect("a whole frame");
    assert_eq!(rest, "", "one frame, then the end");
    let frame = Frame::parse(line).expect("a frame");
    assert!(
        matches!(&frame, Frame::Error { job: None, code, .. } if code == "malformed"),
        "{frame:?}"
    );
    server.shutdown();
}

#[test]
fn shutdown_ends_idle_connections_on_an_unspecified_address_at_once() {
    let cfg = ServeConfig {
        addr: "0.0.0.0:0".into(),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("daemon starts");
    let port = server.addr().port();
    // After one round trip each, the daemon has accepted all three and
    // their reader threads block in `read`.
    let idle: Vec<Client> = (0..3)
        .map(|_| {
            let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
            client.ping().expect("ping");
            assert_eq!(next_ok(&mut client), Frame::Pong);
            client
        })
        .collect();

    let (done, drained) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    drained
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown returns within 1 s");
    for mut client in idle {
        assert!(client.next_frame().expect("EOF").is_none());
    }
}

#[test]
fn per_request_timeouts_cancel_cooperatively() {
    let server = Server::start(ServeConfig::default()).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Big enough that the engine is still mid-simulation when the
    // 1 ms deadline passes; the cancel hook aborts it between event
    // batches.
    let mut submission = toy("timeout", 40_000, 9_104);
    submission.timeout_ms = Some(1);
    client.submit(&submission).expect("submit");
    let job = await_ack(&mut client);
    let (tagged, code, message) = await_error(&mut client);
    assert_eq!(tagged, Some(job));
    assert_eq!(code, "timeout");
    assert!(message.contains("1 ms"), "deadline echoed: {message}");
    server.shutdown();
}

#[test]
fn full_queues_reject_with_busy() {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A occupies the single worker...
    client
        .submit(&toy("busy-a", 150_000, 9_105))
        .expect("submit");
    await_ack(&mut client);
    std::thread::sleep(Duration::from_millis(200));
    // ...B fills the single queue slot...
    client.submit(&toy("busy-b", 60, 9_106)).expect("submit");
    await_ack(&mut client);
    // ...so C bounces with `busy` instead of queueing unboundedly.
    client.submit(&toy("busy-c", 60, 9_107)).expect("submit");
    let (job, code, message) = await_error(&mut client);
    assert_eq!(job, None, "rejected before a job id is assigned");
    assert_eq!(code, "busy");
    assert!(
        message.contains("resubmit"),
        "actionable message: {message}"
    );
    // Dropping the server drains: A cancels cooperatively, B is
    // rejected with `shutdown` — nothing hangs.
    server.shutdown();
}

#[test]
fn concurrent_cold_submissions_coalesce_into_one_simulation() {
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("daemon starts");
    let addr = server.addr();

    // Two clients race the same cold cell; the cache's single-flight
    // layer must run exactly one simulation.
    let submit = move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .submit(&toy("coalesce", 20_000, 9_108))
            .expect("submit");
        let job = await_ack(&mut client);
        let frames = client.drain_job(job).expect("frames stream back");
        frames
            .into_iter()
            .find_map(|f| match f {
                Frame::Result { source, result, .. } => {
                    let json = serde_json::to_string_pretty(&result).expect("result json");
                    Some((source, json))
                }
                _ => None,
            })
            .expect("a result frame arrives")
    };
    let racer = std::thread::spawn(submit);
    let (source_a, json_a) = submit();
    let (source_b, json_b) = racer.join().expect("client thread");

    let simulated = [&source_a, &source_b]
        .iter()
        .filter(|s| s.as_str() == "simulated")
        .count();
    assert_eq!(
        simulated, 1,
        "exactly one client simulates (got {source_a} / {source_b})"
    );
    assert_eq!(json_a, json_b, "both clients get byte-identical results");
    server.shutdown();
}

#[test]
fn shutdown_drains_queued_and_in_flight_work() {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A is in flight when the drain starts; B never leaves the queue.
    client
        .submit(&toy("drain-a", 150_000, 9_109))
        .expect("submit");
    let job_a = await_ack(&mut client);
    client.submit(&toy("drain-b", 60, 9_110)).expect("submit");
    let job_b = await_ack(&mut client);
    std::thread::sleep(Duration::from_millis(200));

    let reader = std::thread::spawn(move || {
        let mut outcomes = Vec::new();
        while let Some(frame) = client.next_frame().expect("read") {
            match frame.expect("parsable frame") {
                Frame::Result { job, .. } => outcomes.push((job, "result".to_string())),
                Frame::Error { job, code, .. } => outcomes.push((job.expect("job-tagged"), code)),
                _ => {}
            }
            if outcomes.len() == 2 {
                break;
            }
        }
        outcomes
    });
    server.shutdown();
    let outcomes = reader.join().expect("reader thread");

    let of = |job: u64| {
        outcomes
            .iter()
            .find(|(j, _)| *j == job)
            .map(|(_, o)| o.as_str())
            .unwrap_or_else(|| panic!("no terminal frame for job {job}: {outcomes:?}"))
    };
    // The in-flight job either finished just before the flag was seen
    // or was cancelled; the queued one must be rejected, not dropped.
    assert!(
        of(job_a) == "shutdown" || of(job_a) == "result",
        "in-flight job resolves on drain: {outcomes:?}"
    );
    assert_eq!(of(job_b), "shutdown", "queued job is rejected on drain");
}

/// A cold cell streams consistent `metrics` frames — one every
/// `metrics_every` events (`0` means every event: 1, 2, 3, …, not a
/// division by zero in the worker), bounded job counts, a live AVEbsld
/// and one hourly utilization series — before its `result`.
#[test]
fn metrics_frames_stream_ahead_of_the_result() {
    let server = Server::start(ServeConfig::default()).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    for (every, jobs, seed) in [(64, 300, 9_111), (0, 20, 9_112)] {
        let mut submission = toy("metrics", jobs, seed);
        submission.metrics_every = Some(every);
        client.submit(&submission).expect("submit");
        let job = await_ack(&mut client);
        let frames = client.drain_job(job).expect("frames stream back");

        let (last, progress) = frames.split_last().expect("a terminal frame");
        match last {
            Frame::Result { source, .. } => assert_eq!(source, "simulated", "a cold cell"),
            other => panic!("expected the result last, got {other:?}"),
        }
        let mut previous_events = 0;
        for frame in progress {
            let Frame::Metrics {
                job: tagged,
                events,
                finished,
                submitted,
                ave_bsld,
                raw,
            } = frame
            else {
                panic!("only metrics frames precede the result, got {frame:?}");
            };
            assert_eq!(*tagged, job);
            assert_eq!(*events, previous_events + every.max(1), "every {every}");
            previous_events = *events;
            assert!(
                finished <= submitted && *submitted <= jobs as u64,
                "{frame:?}"
            );
            if *finished > 0 {
                assert!(*ave_bsld >= 1.0, "{frame:?}");
            }
            let utilization: Vec<Value> = serde::get_field(raw, "utilization").expect("series");
            assert_eq!(utilization.len(), 1, "one partition");
            let bucket: u64 = serde::get_field(&utilization[0], "bucket_seconds").expect("bucket");
            assert_eq!(bucket, 3_600);
        }
        // At least a submission, a start and a completion per job.
        assert!(
            previous_events + every >= 3 * jobs as u64,
            "every {every}: {frames:?}"
        );
    }
    server.shutdown();
}

/// The protocol's own tokens: whole requests and frames, the opening
/// of a toy submission, field names, JSON punctuation and literals, and
/// line breaks.
const TOKENS: &[&str] = &[
    r#"{"type":"ping"}"#,
    r#"{"type":"stats"}"#,
    r#"{"type":"pong"}"#,
    r#"{"type":"ack","job":1,"triple":"t","workload":"w"}"#,
    r#"{"type":"error","job":null,"code":"busy","message":"m"}"#,
    r#"{"type":"result","job":2,"source":"memory","result":{}}"#,
    r#"{"type":"metrics","job":3,"events":4,"finished":1,"submitted":2,"ave_bsld":1.5}"#,
    r#"{"type":"submit","workload":{"log":"KTH","scale":0.02,"seed":1}}"#,
    r#"{"type":"submit","workload":{"swf":"x.swf"},"scheduler":"easy","timeout_ms":5}"#,
    r#"{"type":"submit","workload":{"toy":{"#,
    r#""jobs":"#,
    r#""duration":"#,
    r#""utilization":"#,
    r#""name":"t""#,
    r#""seed":"#,
    r#""scale":"#,
    r#""log":"KTH""#,
    r#""job":"#,
    r#""metrics_every":"#,
    r#""cluster":"#,
    "}}}",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "0",
    "7",
    "-1",
    "2.5",
    "1e400",
    "18446744073709551616",
    "true",
    "null",
    " ",
    "\n",
    "\r\n",
];

/// Up to 4 KiB of chunks — any byte (invalid UTF-8 included) or a
/// protocol token — read back lossily, as the daemon reads its lines.
/// Half the cases keep at most a dozen chunks, short enough to often
/// parse.
fn arbitrary_text() -> impl Strategy<Value = String> {
    let chunk = prop_oneof![
        (0u8..=255).prop_map(|b| vec![b]),
        (0..TOKENS.len()).prop_map(|i| TOKENS[i].as_bytes().to_vec())
    ];
    let keep = prop_oneof![1usize..13, Just(usize::MAX)];
    (prop::collection::vec(chunk, 0..1_500), keep).prop_map(|(mut chunks, keep)| {
        chunks.truncate(keep);
        let mut bytes = chunks.concat();
        bytes.truncate(4096);
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Both parsers answer every line (and the whole text) with a value or
/// a parse-time error code, and a 64-byte [`LineReader`] turns each
/// newline-terminated segment into `Text` (≤ 64 bytes) or `Oversized`,
/// then reports a clean EOF when the text is empty or ends in `\n`, and
/// `UnexpectedEof` for an unterminated tail.
fn parse_surfaces_are_total(text: &str, capacity: usize) -> Result<(), TestCaseError> {
    for line in std::iter::once(text).chain(text.split('\n')) {
        if let Err(e) = Request::parse(line) {
            prop_assert!(
                matches!(e.code, ErrorCode::Malformed | ErrorCode::BadWorkload),
                "request error {e}"
            );
        }
        if let Err(e) = Frame::parse(line) {
            prop_assert_eq!(e.code, ErrorCode::Malformed, "frame error {}", e);
        }
    }

    let mut segments: Vec<&str> = text.split('\n').collect();
    let tail = segments.pop().expect("split yields at least one segment");
    let inner = std::io::BufReader::with_capacity(capacity, text.as_bytes());
    let mut reader = LineReader::new(inner, 64);
    for segment in segments {
        let expected = if segment.len() > 64 {
            Line::Oversized
        } else {
            Line::Text(segment.to_string())
        };
        prop_assert_eq!(reader.next_line().expect("in-memory read"), Some(expected));
    }
    match reader.next_line() {
        Ok(end) => prop_assert!(end.is_none() && tail.is_empty(), "{:?} at the end", end),
        Err(e) => prop_assert!(
            e.kind() == ErrorKind::UnexpectedEof && !tail.is_empty(),
            "{} at the end of {:?}",
            e,
            tail
        ),
    }
    Ok(())
}

proptest! {
    #[test]
    fn parse_surfaces_survive_arbitrary_bytes(text in arbitrary_text(), capacity in 1usize..128) {
        parse_surfaces_are_total(&text, capacity)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The deep variant, for release builds: `cargo test --release -p
    /// predictsim --test serve_protocol -- --ignored`.
    #[test]
    #[ignore]
    fn parse_surfaces_survive_arbitrary_bytes_deep(
        text in arbitrary_text(),
        capacity in 1usize..128,
    ) {
        parse_surfaces_are_total(&text, capacity)?;
    }
}
