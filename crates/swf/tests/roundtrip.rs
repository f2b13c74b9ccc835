//! Property-based tests for the SWF toolkit: the writer/parser round
//! trip, and a reader that gives records or a typed error on any bytes.

use proptest::prelude::*;

use predictsim_swf::{parse_log, write_log, SwfRecord, SwfStream, MISSING};

/// Strategy producing an arbitrary but structurally valid SWF record.
fn arb_record() -> impl Strategy<Value = SwfRecord> {
    (
        0u64..1_000_000,
        0i64..10_000_000,
        prop_oneof![Just(MISSING), 0i64..1_000_000],
        prop_oneof![Just(MISSING), 0i64..1_000_000],
        prop_oneof![Just(MISSING), 1i64..100_000],
        prop_oneof![Just(MISSING), 1i64..100_000],
        prop_oneof![Just(MISSING), 1i64..2_000_000],
        prop_oneof![Just(MISSING), Just(0i64), Just(1i64), Just(5i64)],
        prop_oneof![Just(MISSING), 0i64..10_000],
    )
        .prop_map(
            |(job_id, submit, wait, run, alloc, req_procs, req_time, status, user)| SwfRecord {
                job_id,
                submit_time: submit,
                wait_time: wait,
                run_time: run,
                allocated_procs: alloc,
                avg_cpu_time: MISSING,
                used_memory: MISSING,
                requested_procs: req_procs,
                requested_time: req_time,
                requested_memory: MISSING,
                status,
                user_id: user,
                group_id: MISSING,
                executable: MISSING,
                queue: MISSING,
                partition: MISSING,
                preceding_job: MISSING,
                think_time: MISSING,
            },
        )
}

proptest! {
    /// write ∘ parse = identity on records.
    #[test]
    fn records_round_trip(records in prop::collection::vec(arb_record(), 0..50)) {
        let log = predictsim_swf::SwfLog { records: records.clone(), ..Default::default() };
        let text = write_log(&log);
        let reparsed = parse_log(&text).unwrap();
        prop_assert_eq!(reparsed.records, records);
    }

    /// A line of random whitespace-delimited numbers is a record iff it
    /// has exactly 18 fields and a non-negative job id, and a typed
    /// error otherwise — never a panic.
    #[test]
    fn parser_never_panics_on_numeric_lines(
        nums in prop::collection::vec(-1000i64..1_000_000, 0..25)
    ) {
        let line: Vec<String> = nums.iter().map(|n| n.to_string()).collect();
        let items: Vec<_> = SwfStream::new(line.join(" ").as_bytes()).collect();
        prop_assert_eq!(items.len(), usize::from(!nums.is_empty()));
        if let Some(item) = items.first() {
            prop_assert_eq!(item.is_ok(), nums.len() == 18 && nums[0] >= 0);
        }
    }

    /// Arbitrary bytes, 0–4 KiB: the stream yields records, then at most
    /// one typed error, then fuses.
    #[test]
    fn stream_survives_arbitrary_bytes(bytes in arbitrary_bytes()) {
        stream_is_total(&bytes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The deep variant, for release builds: `cargo test --release -p
    /// predictsim-swf --test roundtrip -- --ignored`.
    #[test]
    #[ignore]
    fn stream_survives_arbitrary_bytes_deep(bytes in arbitrary_bytes()) {
        stream_is_total(&bytes)?;
    }
}

/// The format's own bytes: digits, signs, separators, the header
/// marker, both line ends and NUL.
const ALPHABET: &[u8] = b"0123456789 -+.eE;:\t\n\r\0";

/// Up to 4 KiB built from chunks: any byte (invalid UTF-8 included), a
/// byte of [`ALPHABET`], a `MaxProcs` header line, or a well-formed
/// 18-field line (weighted up, so streams reach records before their
/// first stray byte) — records, header lines and every kind of error.
fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    let line = || {
        prop::collection::vec(-2i64..100, 18..19).prop_map(|fields| {
            let line: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
            format!("{}\n", line.join(" ")).into_bytes()
        })
    };
    let chunk = prop_oneof![
        (0u8..=255).prop_map(|b| vec![b]),
        (0..ALPHABET.len()).prop_map(|i| vec![ALPHABET[i]]),
        (-2i64..1_000).prop_map(|m| format!("; MaxProcs: {m}\n").into_bytes()),
        line(),
        line(),
        line(),
    ];
    prop::collection::vec(chunk, 0..300).prop_map(|chunks| {
        let mut bytes = chunks.concat();
        bytes.truncate(4096);
        bytes
    })
}

/// Drives a [`SwfStream`] over `bytes` to its end: no more items than
/// lines, an error names a line of the input, and nothing follows it.
fn stream_is_total(bytes: &[u8]) -> Result<(), TestCaseError> {
    let lines = bytes.split(|&b| b == b'\n').count();
    let mut stream = SwfStream::new(bytes);
    let mut items = 0;
    for item in stream.by_ref() {
        items += 1;
        prop_assert!(items <= lines, "{items} items from {lines} lines");
        if let Err(e) = item {
            prop_assert!((1..=lines).contains(&e.line), "error at line {}", e.line);
            break;
        }
    }
    prop_assert!(stream.next().is_none(), "the stream fuses");
    Ok(())
}
