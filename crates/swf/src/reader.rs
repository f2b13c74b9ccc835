//! Parsing SWF text into [`SwfLog`]s.
//!
//! The reader is line-oriented and tolerant in the ways the PWA logs demand
//! (variable whitespace, blank lines, header comments interleaved at the
//! top) but strict about data lines: a malformed field aborts the parse
//! with a [`ParseError`] naming the line, since silently skipping jobs
//! would bias every downstream experiment.

use std::io::BufRead;

use crate::header::SwfHeader;
use crate::record::SwfRecord;

/// A fully parsed SWF log: header metadata plus job records in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwfLog {
    /// Header metadata (machine size, time origin, …).
    pub header: SwfHeader,
    /// Job records in the order they appear in the file.
    pub records: Vec<SwfRecord>,
}

/// Error produced when an SWF line cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses an in-memory SWF document.
pub fn parse_log(text: &str) -> Result<SwfLog, ParseError> {
    read_log(std::io::Cursor::new(text))
}

/// Reads an SWF document from any buffered reader (e.g. a file) into a
/// fully materialized [`SwfLog`].
///
/// I/O errors are converted into [`ParseError`]s carrying the line number
/// reached, so callers have a single error channel. Callers that do not
/// need the whole record vector at once should iterate a [`SwfStream`]
/// instead.
fn read_log<R: BufRead>(reader: R) -> Result<SwfLog, ParseError> {
    let mut stream = SwfStream::new(reader);
    let mut records = Vec::new();
    for record in &mut stream {
        records.push(record?);
    }
    Ok(SwfLog {
        header: stream.into_header(),
        records,
    })
}

/// Streaming SWF record source: an iterator of parsed [`SwfRecord`]s that
/// never materializes the whole log.
///
/// Header (`;`-prefixed) and blank lines are consumed transparently and
/// folded into [`SwfStream::header`]; every other line is parsed as an
/// 18-field data record and yielded. One line buffer is reused across the
/// whole file, so streaming a multi-million-job trace allocates O(1)
/// beyond what the caller keeps. A parse or I/O error ends the stream
/// (the erroring item is yielded, then the iterator fuses).
///
/// Note that SWF permits comment lines after data lines; the header is
/// only complete once the iterator has been driven to its end.
#[derive(Debug)]
pub struct SwfStream<R> {
    reader: R,
    header: SwfHeader,
    line: String,
    lineno: usize,
    done: bool,
}

impl<R: BufRead> SwfStream<R> {
    /// Starts streaming records from `reader`.
    pub fn new(reader: R) -> Self {
        SwfStream {
            reader,
            header: SwfHeader::default(),
            line: String::new(),
            lineno: 0,
            done: false,
        }
    }

    /// The header metadata accumulated so far (complete at end of input).
    pub fn header(&self) -> &SwfHeader {
        &self.header
    }

    /// Consumes the stream, returning the accumulated header.
    pub fn into_header(self) -> SwfHeader {
        self.header
    }
}

impl<R: BufRead> Iterator for SwfStream<R> {
    type Item = Result<SwfRecord, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            self.line.clear();
            let read = loop {
                match self.reader.read_line(&mut self.line) {
                    // Transient interrupts (signals, injected faults)
                    // are retried, not fused: `BufReader` absorbs them
                    // itself, but an exotic `BufRead` may surface them,
                    // and a multi-GB ingest must not die to a hiccup.
                    // No clear before the retry — the implementation
                    // may already have appended part of the line.
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    other => break other,
                }
            };
            match read {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(ParseError {
                        line: self.lineno + 1,
                        message: format!("I/O error: {e}"),
                    }));
                }
            }
            self.lineno += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(rest) = trimmed.strip_prefix(';') {
                self.header.ingest_line(rest);
                continue;
            }
            return match parse_record(self.lineno, trimmed) {
                Ok(record) => Some(Ok(record)),
                Err(e) => {
                    self.done = true;
                    Some(Err(e))
                }
            };
        }
    }
}

/// Parses a single 18-field SWF data line.
fn parse_record(lineno: usize, line: &str) -> Result<SwfRecord, ParseError> {
    let mut fields = [0i64; 18];
    let mut count = 0;
    for tok in line.split_ascii_whitespace() {
        if count == 18 {
            return Err(ParseError {
                line: lineno,
                message: format!("expected 18 fields, found extra token {tok:?}"),
            });
        }
        // Some logs write times with a fractional part (e.g. "12.0");
        // accept a float syntax but require an integral value.
        fields[count] = parse_int_field(tok).ok_or_else(|| ParseError {
            line: lineno,
            message: format!("field {} is not a number: {tok:?}", count + 1),
        })?;
        count += 1;
    }
    if count != 18 {
        return Err(ParseError {
            line: lineno,
            message: format!("expected 18 fields, found {count}"),
        });
    }
    if fields[0] < 0 {
        return Err(ParseError {
            line: lineno,
            message: format!("job id must be non-negative, got {}", fields[0]),
        });
    }
    Ok(SwfRecord {
        job_id: fields[0] as u64,
        submit_time: fields[1],
        wait_time: fields[2],
        run_time: fields[3],
        allocated_procs: fields[4],
        avg_cpu_time: fields[5],
        used_memory: fields[6],
        requested_procs: fields[7],
        requested_time: fields[8],
        requested_memory: fields[9],
        status: fields[10],
        user_id: fields[11],
        group_id: fields[12],
        executable: fields[13],
        queue: fields[14],
        partition: fields[15],
        preceding_job: fields[16],
        think_time: fields[17],
    })
}

fn parse_int_field(tok: &str) -> Option<i64> {
    if let Ok(v) = tok.parse::<i64>() {
        return Some(v);
    }
    // Fall back to float syntax with integral value ("3600.0").
    let f = tok.parse::<f64>().ok()?;
    if f.fract() == 0.0 && f.abs() < 9.2e18 {
        Some(f as i64)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "3 120 30 600 8 -1 -1 8 900 -1 1 4 2 17 1 0 -1 -1";

    #[test]
    fn parses_data_line() {
        let r = parse_record(1, LINE).unwrap();
        assert_eq!(r.job_id, 3);
        assert_eq!(r.submit_time, 120);
        assert_eq!(r.wait_time, 30);
        assert_eq!(r.run_time, 600);
        assert_eq!(r.requested_procs, 8);
        assert_eq!(r.requested_time, 900);
        assert_eq!(r.user_id, 4);
        assert_eq!(r.think_time, -1);
    }

    /// A `BufRead` that surfaces `Interrupted` on every other
    /// `read_line` call — the shape of a signal-interrupted read that
    /// `BufReader` would normally absorb but a custom source may leak.
    struct InterruptingReader<'a> {
        inner: std::io::BufReader<&'a [u8]>,
        calls: usize,
    }

    impl std::io::Read for InterruptingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            std::io::Read::read(&mut self.inner, buf)
        }
    }

    impl std::io::BufRead for InterruptingReader<'_> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.inner.fill_buf()
        }
        fn consume(&mut self, amt: usize) {
            self.inner.consume(amt)
        }
        fn read_line(&mut self, line: &mut String) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "spurious interrupt",
                ));
            }
            self.inner.read_line(line)
        }
    }

    #[test]
    fn transient_interrupts_do_not_fuse_the_stream() {
        let text = format!(
            "; MaxProcs: 8\n{LINE}\n{}\n",
            LINE.replace("3 120", "4 180")
        );
        let reader = InterruptingReader {
            inner: std::io::BufReader::new(text.as_bytes()),
            calls: 0,
        };
        let mut stream = SwfStream::new(reader);
        let records: Vec<_> = stream
            .by_ref()
            .collect::<Result<_, _>>()
            .expect("clean parse");
        assert_eq!(records.len(), 2, "every record survives the interrupts");
        assert_eq!(records[0].job_id, 3);
        assert_eq!(records[1].job_id, 4);
        assert_eq!(stream.header().max_procs, Some(8));
    }

    #[test]
    fn accepts_tabs_and_multiple_spaces() {
        let line = LINE.replace(' ', "\t  ");
        let r = parse_record(1, &line).unwrap();
        assert_eq!(r.run_time, 600);
    }

    #[test]
    fn accepts_float_syntax_with_integral_value() {
        let line = LINE.replace("600", "600.0");
        let r = parse_record(1, &line).unwrap();
        assert_eq!(r.run_time, 600);
    }

    #[test]
    fn rejects_wrong_field_count() {
        let err = parse_record(7, "1 2 3").unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.message.contains("expected 18 fields"));
        let err = parse_record(8, &format!("{LINE} 99")).unwrap_err();
        assert!(err.message.contains("extra token"));
    }

    #[test]
    fn rejects_garbage_field() {
        let line = LINE.replace("600", "six-hundred");
        let err = parse_record(3, &line).unwrap_err();
        assert!(err.message.contains("not a number"));
    }

    #[test]
    fn rejects_negative_job_id() {
        let line = LINE.replacen('3', "-3", 1);
        let err = parse_record(1, &line).unwrap_err();
        assert!(err.message.contains("job id"));
    }

    #[test]
    fn parse_log_splits_header_and_records() {
        let text = format!("; MaxProcs: 64\n\n{LINE}\n; trailing comment\n{LINE}\n");
        let log = parse_log(&text).unwrap();
        assert_eq!(log.header.max_procs, Some(64));
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.header.machine_size(), Some(64));
    }

    #[test]
    fn read_log_from_bufread() {
        let text = format!("; MaxProcs: 16\n{LINE}\n");
        let log = read_log(std::io::Cursor::new(text)).unwrap();
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.header.max_procs, Some(16));
    }

    #[test]
    fn stream_yields_records_and_accumulates_header() {
        let text = format!("; MaxProcs: 64\n\n{LINE}\n; trailing comment\n{LINE}\n");
        let mut stream = SwfStream::new(std::io::Cursor::new(text));
        assert_eq!(stream.header().max_procs, None, "header not read yet");
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.run_time, 600);
        assert_eq!(stream.header().max_procs, Some(64));
        let second = stream.next().unwrap().unwrap();
        assert_eq!(second.job_id, 3);
        assert!(stream.next().is_none());
        assert!(stream.next().is_none(), "stream is fused");
        assert_eq!(stream.lineno, 5);
    }

    #[test]
    fn stream_fuses_after_a_parse_error() {
        let text = format!("{LINE}\nbad line\n{LINE}\n");
        let mut stream = SwfStream::new(std::io::Cursor::new(text));
        assert!(stream.next().unwrap().is_ok());
        let err = stream.next().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            stream.next().is_none(),
            "no records are yielded past an error"
        );
    }

    #[test]
    fn error_reports_line_number() {
        let text = format!("{LINE}\nbad line here\n");
        let err = parse_log(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(format!("{err}").contains("line 2"));
    }
}
