//! The serve `stats` frame over a real socket. Alone in its test binary
//! on purpose: `simulated` is a process-wide count, so "moves by
//! exactly 1" holds only while no other test submits cells to the same
//! process's cache.

use predictsim::experiments::CacheStats;
use predictsim::serve::{Client, Frame, ServeConfig, Server, Submission, WorkloadRequest};
use serde::Value;

fn stats(client: &mut Client) -> Vec<(String, Value)> {
    client.stats().expect("send stats");
    match client.next_frame().expect("read frame") {
        Some(Ok(Frame::Stats(Value::Map(entries)))) => entries,
        other => panic!("expected a stats frame, got {other:?}"),
    }
}

fn count(frame: &[(String, Value)], name: &str) -> i64 {
    match frame.iter().find(|(key, _)| key == name) {
        Some((_, Value::Int(n))) => *n,
        other => panic!("{name}: expected a count, got {other:?}"),
    }
}

#[test]
fn stats_frame_renders_the_cache_fields_in_pinned_order() {
    let server = Server::start(ServeConfig::default()).expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    // `type`, then `CacheStats::fields()`, then the daemon's own two.
    let before = stats(&mut client);
    let keys: Vec<&str> = before.iter().map(|(key, _)| key.as_str()).collect();
    let mut expected = vec!["type"];
    expected.extend(CacheStats::default().fields().map(|(name, _)| name));
    expected.extend(["queued", "active"]);
    assert_eq!(keys, expected);

    // One cold cell: exactly one simulation, no hit of either kind.
    client
        .submit(&Submission::new(WorkloadRequest::Toy {
            name: "stats".into(),
            jobs: 60,
            duration: 14 * 86_400,
            utilization: 0.8,
            seed: 9_201,
        }))
        .expect("submit");
    client.drain_job(1).expect("result streams back");
    let after = stats(&mut client);
    for (name, moved) in [("simulated", 1), ("memory_hits", 0), ("disk_hits", 0)] {
        assert_eq!(count(&after, name) - count(&before, name), moved, "{name}");
    }
    assert_eq!((count(&after, "queued"), count(&after, "active")), (0, 0));
    server.shutdown();
}
