//! A blocking reference client for the serve protocol.
//!
//! Wraps one connection: write request lines, read frames. Used by the
//! `serve_client` example, the protocol tests, and the CI smoke job —
//! anything scriptable that should not hand-roll JSON over `nc`.

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::Value;

use crate::protocol::{Frame, Line, LineReader, ProtoError, Submission};

/// A connected client.
pub struct Client {
    writer: TcpStream,
    reader: LineReader<BufReader<TcpStream>>,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Each request is one write; send it at once instead of waiting
        // for the ACK of the last one.
        stream.set_nodelay(true)?;
        // No line cap: a `result` frame may legitimately pass the
        // daemon's request cap.
        let reader = LineReader::new(BufReader::new(stream.try_clone()?), usize::MAX);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Like [`Client::connect`], retrying for up to `patience` while the
    /// daemon comes up (the CI smoke job races daemon start).
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        patience: Duration,
    ) -> std::io::Result<Client> {
        let mut waited = Duration::ZERO;
        let step = Duration::from_millis(50);
        loop {
            match Self::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) if waited >= patience => return Err(e),
                Err(_) => {
                    std::thread::sleep(step);
                    waited += step;
                }
            }
        }
    }

    /// Sends one raw request line (no newline), in a single write.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame)
    }

    /// Sends one request value.
    fn send_value(&mut self, value: &Value) -> std::io::Result<()> {
        let line = serde_json::to_string(value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.0))?;
        self.send_line(&line)
    }

    /// Submits a scenario. Follow with [`Client::next_frame`] for the
    /// ack, metrics stream, and result.
    pub fn submit(&mut self, submission: &Submission) -> std::io::Result<()> {
        self.send_value(&submission.to_value())
    }

    /// Sends a `ping`.
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.send_line(r#"{"type":"ping"}"#)
    }

    /// Sends a `stats` request.
    pub fn stats(&mut self) -> std::io::Result<()> {
        self.send_line(r#"{"type":"stats"}"#)
    }

    /// Half-closes the write side: the server keeps streaming frames
    /// for jobs already submitted, then sees EOF.
    pub fn finish_writing(&mut self) -> std::io::Result<()> {
        self.writer.shutdown(Shutdown::Write)
    }

    /// Reads the next frame; `Ok(None)` when the server closed the
    /// connection after a whole frame, an `UnexpectedEof` error when it
    /// closed it mid-frame.
    pub fn next_frame(&mut self) -> std::io::Result<Option<Result<Frame, ProtoError>>> {
        match self.reader.next_line()? {
            None => Ok(None),
            Some(Line::Text(line)) => Ok(Some(Frame::parse(&line))),
            Some(Line::Oversized) => unreachable!("the client's reader has no line cap"),
        }
    }

    /// Reads frames until the final `result`/`error` for `job`,
    /// returning every frame seen (including other jobs' frames, for
    /// multi-submission connections).
    pub fn drain_job(&mut self, job: u64) -> std::io::Result<Vec<Frame>> {
        let mut frames = Vec::new();
        loop {
            match self.next_frame()? {
                None => return Ok(frames),
                Some(Ok(frame)) => {
                    let done = matches!(
                        &frame,
                        Frame::Result { job: j, .. } if *j == job
                    ) || matches!(
                        &frame,
                        Frame::Error { job: Some(j), .. } if *j == job
                    );
                    frames.push(frame);
                    if done {
                        return Ok(frames);
                    }
                }
                Some(Err(e)) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_turns_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
        assert!(client.writer.nodelay().expect("read TCP_NODELAY"));
    }
}
