//! Per-connection state machine: read framing and buffered writes.
//!
//! Reads accumulate into a growable buffer and are framed as
//! newline-terminated JSON lines with **partial-frame resumption**: a
//! frame split across any number of `read(2)` returns is reassembled,
//! and the scan for the terminator resumes where it left off instead
//! of re-scanning the buffer. A connection whose first line starts
//! with `GET ` / `HEAD ` flips into HTTP mode: headers are drained
//! until the blank line, then one [`Frame::Http`] is emitted and the
//! response closes the connection, so ordinary scrapers need no
//! special client.
//!
//! Writes go through a buffer with an explicit offset so a short
//! `write(2)` resumes mid-response; the event loop keeps `EPOLLOUT`
//! interest exactly while [`Conn::pending_write`] is non-zero. Fault
//! injection ([`crate::shim::ConnFaults`]) hooks both paths: swallowed
//! reads (slow-loris), truncated writes (torn responses), and dripped
//! writes (1 byte per readiness cycle).

use crate::shim::ConnFaults;
use cachemap_util::TimerId;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// One decoded inbound frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A newline-terminated JSON-lines request (terminator stripped).
    Line(String),
    /// An HTTP request line whose headers have been fully drained.
    Http(String),
}

/// What a readiness-driven read pass concluded.
#[derive(Debug)]
pub enum ReadOutcome {
    /// Consumed what was available; keep the connection.
    Continue,
    /// Orderly EOF from the peer.
    PeerClosed,
    /// A frame exceeded the configured maximum without a terminator.
    FrameTooLarge,
    /// Transport error; tear the connection down.
    Error(io::Error),
}

/// What a flush pass concluded.
#[derive(Debug)]
pub enum FlushOutcome {
    /// Write buffer fully drained; no write interest needed.
    Idle,
    /// Bytes remain; keep `EPOLLOUT` interest.
    Pending,
    /// The connection is done (close-after-write completed, peer gone,
    /// or a truncate fault fired) and should be torn down.
    Closed,
    /// Transport error; tear the connection down.
    Error(io::Error),
}

/// Cap on `read(2)` calls per readiness event so one fire-hose peer
/// cannot starve the rest of the loop; level-triggered epoll re-fires
/// while bytes remain buffered in the kernel.
const MAX_READS_PER_EVENT: usize = 8;

/// A registered connection.
pub struct Conn {
    /// The non-blocking socket.
    pub stream: TcpStream,
    /// Slot generation; completions carrying a stale generation are
    /// dropped instead of writing into a recycled slot.
    pub gen: u64,
    /// Monotonic accept sequence (fault-stream derivation key).
    pub seq: u64,
    read_buf: Vec<u8>,
    /// Resume point for the newline scan (no terminator before it).
    scan_from: usize,
    /// Set once the first line announced HTTP; headers drain until the
    /// blank line, then the request line is emitted as a frame.
    http_request_line: Option<String>,
    write_buf: Vec<u8>,
    write_off: usize,
    written_total: usize,
    /// Close the connection once the write buffer drains.
    pub close_after_write: bool,
    /// Clock reading at the last inbound byte (idle-deadline anchor).
    pub last_activity_ns: u64,
    /// The armed idle-deadline timer, if any.
    pub idle_timer: Option<TimerId>,
    /// Decided-at-accept fault behaviors.
    pub faults: ConnFaults,
    /// Reading paused by write-buffer backpressure.
    pub paused: bool,
    /// Current epoll write-interest (loop-managed, mirrors the kernel).
    pub want_write: bool,
    /// Requests decoded on this connection (loop stats; also the next
    /// frame's sequence number).
    pub frames_in: u64,
    /// Next completion sequence expected on the wire. Replies are sent
    /// strictly in frame order: with several dispatcher threads, frame
    /// N+1 can finish before frame N, and a pipelining client must
    /// still see its replies FIFO.
    pub next_write_seq: u64,
    /// Completions that arrived ahead of `next_write_seq`, parked until
    /// the gap fills.
    pub held: std::collections::BTreeMap<u64, HeldReply>,
}

/// A reply parked in [`Conn::held`] until its predecessors are written.
pub struct HeldReply {
    /// Wire bytes, including any trailing newline.
    pub bytes: Vec<u8>,
    /// Close the connection once the bytes drain.
    pub close_after: bool,
}

impl Conn {
    /// Wraps an accepted, already non-blocking stream. `read_buf` and
    /// `write_buf` typically come from a [`cachemap_util::BufferPool`].
    pub fn new(
        stream: TcpStream,
        gen: u64,
        seq: u64,
        now_ns: u64,
        faults: ConnFaults,
        read_buf: Vec<u8>,
        write_buf: Vec<u8>,
    ) -> Conn {
        Conn {
            stream,
            gen,
            seq,
            read_buf,
            scan_from: 0,
            http_request_line: None,
            write_buf,
            write_off: 0,
            written_total: 0,
            close_after_write: false,
            last_activity_ns: now_ns,
            idle_timer: None,
            faults,
            paused: false,
            want_write: false,
            frames_in: 0,
            next_write_seq: 0,
            held: std::collections::BTreeMap::new(),
        }
    }

    /// Reclaims the connection's buffers for pooling.
    pub fn into_buffers(self) -> (Vec<u8>, Vec<u8>) {
        (self.read_buf, self.write_buf)
    }

    /// Reads whatever the socket has (bounded per event), appending
    /// completed frames to `frames`. `now_ns` stamps activity for the
    /// idle deadline.
    pub fn read_ready(
        &mut self,
        scratch: &mut [u8],
        max_frame_bytes: usize,
        now_ns: u64,
        frames: &mut Vec<Frame>,
    ) -> (u64, ReadOutcome) {
        let mut bytes_read = 0u64;
        for _ in 0..MAX_READS_PER_EVENT {
            match self.stream.read(scratch) {
                Ok(0) => return (bytes_read, ReadOutcome::PeerClosed),
                Ok(n) => {
                    bytes_read += n as u64;
                    self.last_activity_ns = now_ns;
                    if self.faults.swallow_reads {
                        // Slow-loris shim: the bytes vanish before
                        // framing, so only the idle deadline can save
                        // this connection's slot.
                        continue;
                    }
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    self.extract_frames(frames);
                    // Whatever remains after extraction is one partial
                    // frame; cap its size.
                    if self.read_buf.len() > max_frame_bytes {
                        return (bytes_read, ReadOutcome::FrameTooLarge);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return (bytes_read, ReadOutcome::Continue)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return (bytes_read, ReadOutcome::Error(e)),
            }
        }
        (bytes_read, ReadOutcome::Continue)
    }

    /// Splits completed lines out of the read buffer, resuming the
    /// terminator scan at `scan_from`.
    fn extract_frames(&mut self, frames: &mut Vec<Frame>) {
        let mut consumed = 0usize;
        loop {
            let rest = &self.read_buf[consumed.max(self.scan_from)..];
            let Some(rel) = rest.iter().position(|b| *b == b'\n') else {
                break;
            };
            let line_end = consumed.max(self.scan_from) + rel;
            let raw = &self.read_buf[consumed..line_end];
            let line = String::from_utf8_lossy(raw);
            let trimmed = line.trim_end_matches('\r');
            if let Some(request_line) = self.http_request_line.take() {
                // HTTP mode: headers drain until the blank line.
                if trimmed.is_empty() {
                    self.frames_in += 1;
                    frames.push(Frame::Http(request_line));
                } else {
                    self.http_request_line = Some(request_line);
                }
            } else if trimmed.is_empty() {
                // Blank JSON-lines input is skipped.
            } else if trimmed.starts_with("GET ") || trimmed.starts_with("HEAD ") {
                self.http_request_line = Some(trimmed.to_string());
            } else {
                self.frames_in += 1;
                frames.push(Frame::Line(trimmed.to_string()));
            }
            consumed = line_end + 1;
            self.scan_from = consumed;
        }
        if consumed > 0 {
            self.read_buf.drain(..consumed);
        }
        // Everything left has been scanned without finding a terminator.
        self.scan_from = self.read_buf.len();
    }

    /// Queues reply bytes (a newline must already be included for
    /// JSON-lines replies).
    pub fn queue_write(&mut self, bytes: &[u8]) {
        self.write_buf.extend_from_slice(bytes);
    }

    /// Unsent bytes currently buffered.
    pub fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_off
    }

    /// Pushes buffered bytes to the socket, honoring truncate/drip
    /// faults. Call whenever bytes were queued or `EPOLLOUT` fired.
    pub fn flush(&mut self) -> (u64, FlushOutcome) {
        let mut bytes_written = 0u64;
        loop {
            if self.write_off == self.write_buf.len() {
                self.write_buf.clear();
                self.write_off = 0;
                let done = if self.close_after_write {
                    FlushOutcome::Closed
                } else {
                    FlushOutcome::Idle
                };
                return (bytes_written, done);
            }
            let mut end = self.write_buf.len();
            if let Some(cut) = self.faults.truncate_write_at {
                if self.written_total >= cut {
                    return (bytes_written, FlushOutcome::Closed);
                }
                end = end.min(self.write_off + (cut - self.written_total));
            }
            if self.faults.drip_write {
                end = end.min(self.write_off + 1);
            }
            match self.stream.write(&self.write_buf[self.write_off..end]) {
                Ok(0) => return (bytes_written, FlushOutcome::Closed),
                Ok(n) => {
                    self.write_off += n;
                    self.written_total += n;
                    bytes_written += n as u64;
                    if let Some(cut) = self.faults.truncate_write_at {
                        if self.written_total >= cut {
                            return (bytes_written, FlushOutcome::Closed);
                        }
                    }
                    if self.faults.drip_write {
                        // One byte per readiness cycle: report Pending
                        // so EPOLLOUT interest persists and the next
                        // cycle sends the next byte.
                        return (bytes_written, FlushOutcome::Pending);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return (bytes_written, FlushOutcome::Pending)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return (bytes_written, FlushOutcome::Error(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    fn read_all_frames(conn: &mut Conn) -> Vec<Frame> {
        let mut scratch = [0u8; 4096];
        let mut frames = Vec::new();
        let (_, out) = conn.read_ready(&mut scratch, 1 << 20, 0, &mut frames);
        assert!(matches!(
            out,
            ReadOutcome::Continue | ReadOutcome::PeerClosed
        ));
        frames
    }

    #[test]
    fn partial_frames_resume_across_reads() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(
            server,
            0,
            0,
            0,
            ConnFaults::default(),
            Vec::new(),
            Vec::new(),
        );
        client.write_all(b"{\"op\":\"pi").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(read_all_frames(&mut conn).is_empty(), "half a frame");
        client.write_all(b"ng\"}\n{\"op\":").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(
            read_all_frames(&mut conn),
            vec![Frame::Line("{\"op\":\"ping\"}".into())]
        );
        client.write_all(b"\"stats\"}\r\n").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(
            read_all_frames(&mut conn),
            vec![Frame::Line("{\"op\":\"stats\"}".into())],
            "CR is stripped"
        );
    }

    #[test]
    fn http_mode_drains_headers_then_emits_one_frame() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(
            server,
            0,
            0,
            0,
            ConnFaults::default(),
            Vec::new(),
            Vec::new(),
        );
        client
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(
            read_all_frames(&mut conn),
            vec![Frame::Http("GET /metrics HTTP/1.1".into())]
        );
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(
            server,
            0,
            0,
            0,
            ConnFaults::default(),
            Vec::new(),
            Vec::new(),
        );
        client.write_all(&[b'x'; 4096]).unwrap(); // no newline
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut scratch = [0u8; 4096];
        let mut frames = Vec::new();
        let (_, out) = conn.read_ready(&mut scratch, 1024, 0, &mut frames);
        assert!(matches!(out, ReadOutcome::FrameTooLarge), "{out:?}");
        assert!(frames.is_empty());
    }

    #[test]
    fn short_writes_resume_and_close_after_write_closes() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(
            server,
            0,
            0,
            0,
            ConnFaults::default(),
            Vec::new(),
            Vec::new(),
        );
        conn.queue_write(b"hello ");
        conn.queue_write(b"world\n");
        conn.close_after_write = true;
        loop {
            let (_, out) = conn.flush();
            match out {
                FlushOutcome::Closed => break,
                FlushOutcome::Pending => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        drop(conn);
        let mut got = String::new();
        client.read_to_string(&mut got).unwrap();
        assert_eq!(got, "hello world\n");
    }

    #[test]
    fn truncate_fault_cuts_the_stream() {
        let (mut client, server) = pair();
        let faults = ConnFaults {
            truncate_write_at: Some(4),
            ..ConnFaults::default()
        };
        let mut conn = Conn::new(server, 0, 0, 0, faults, Vec::new(), Vec::new());
        conn.queue_write(b"0123456789\n");
        let (n, out) = conn.flush();
        assert!(matches!(out, FlushOutcome::Closed), "{out:?}");
        assert_eq!(n, 4);
        drop(conn); // close delivers EOF after the 4 bytes
        let mut got = String::new();
        client.read_to_string(&mut got).unwrap();
        assert_eq!(got, "0123", "stream cut mid-frame");
    }

    #[test]
    fn drip_fault_sends_one_byte_per_cycle() {
        let (mut client, server) = pair();
        let faults = ConnFaults {
            drip_write: true,
            ..ConnFaults::default()
        };
        let mut conn = Conn::new(server, 0, 0, 0, faults, Vec::new(), Vec::new());
        conn.queue_write(b"abc\n");
        conn.close_after_write = true;
        let mut cycles = 0;
        loop {
            let (n, out) = conn.flush();
            cycles += 1;
            match out {
                FlushOutcome::Pending => assert!(n <= 1, "dripped {n} bytes in one cycle"),
                FlushOutcome::Closed => break,
                other => panic!("unexpected {other:?}"),
            }
            assert!(cycles < 100);
        }
        assert!(cycles >= 4, "took {cycles} cycles for 4 bytes");
        drop(conn);
        let mut got = String::new();
        client.read_to_string(&mut got).unwrap();
        assert_eq!(got, "abc\n");
    }
}
