//! Serializing [`SwfLog`]s back to SWF text.
//!
//! The writer produces canonical single-space-separated records; parsing
//! the output reproduces the same records and header values (round-trip
//! property, tested with proptest in `tests/roundtrip.rs`).

use std::fmt::Write as _;

use crate::reader::SwfLog;
use crate::record::SwfRecord;

/// Serializes one record as a canonical SWF data line (no newline).
fn format_record(r: &SwfRecord) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        r.job_id,
        r.submit_time,
        r.wait_time,
        r.run_time,
        r.allocated_procs,
        r.avg_cpu_time,
        r.used_memory,
        r.requested_procs,
        r.requested_time,
        r.requested_memory,
        r.status,
        r.user_id,
        r.group_id,
        r.executable,
        r.queue,
        r.partition,
        r.preceding_job,
        r.think_time
    )
}

/// Serializes records only (no header).
fn write_records(records: &[SwfRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 64);
    for r in records {
        out.push_str(&format_record(r));
        out.push('\n');
    }
    out
}

/// Serializes a full log: header comment lines first, then records.
pub fn write_log(log: &SwfLog) -> String {
    let mut out = String::new();
    for line in &log.header.raw_lines {
        writeln!(out, "; {line}").expect("string write cannot fail");
    }
    out.push_str(&write_records(&log.records));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse_log;
    use crate::record::MISSING;

    fn sample() -> SwfRecord {
        SwfRecord {
            job_id: 9,
            submit_time: 100,
            wait_time: 3,
            run_time: 42,
            allocated_procs: 4,
            avg_cpu_time: MISSING,
            used_memory: MISSING,
            requested_procs: 4,
            requested_time: 60,
            requested_memory: MISSING,
            status: 1,
            user_id: 2,
            group_id: 1,
            executable: 5,
            queue: 0,
            partition: 0,
            preceding_job: MISSING,
            think_time: MISSING,
        }
    }

    #[test]
    fn format_has_18_fields() {
        let line = format_record(&sample());
        assert_eq!(line.split_ascii_whitespace().count(), 18);
    }

    #[test]
    fn record_round_trip() {
        let original = sample();
        let text = write_records(std::slice::from_ref(&original));
        let log = parse_log(&text).unwrap();
        assert_eq!(log.records, vec![original]);
    }

    #[test]
    fn log_round_trip_keeps_header() {
        let text =
            "; MaxProcs: 128\n; Computer: Test\n1 0 0 10 1 -1 -1 1 20 -1 1 0 0 0 0 0 -1 -1\n";
        let log = parse_log(text).unwrap();
        let rewritten = write_log(&log);
        let reparsed = parse_log(&rewritten).unwrap();
        assert_eq!(reparsed.header.max_procs, Some(128));
        assert_eq!(reparsed.header.computer.as_deref(), Some("Test"));
        assert_eq!(reparsed.records, log.records);
    }

    #[test]
    fn empty_log_writes_empty_string() {
        assert_eq!(write_records(&[]), "");
    }
}
