//! # cachemap-aio — a dependency-free epoll front end
//!
//! A thread-per-connection server spends a stack and a context switch
//! per client; at the "millions of users" scale the ROADMAP aims for,
//! those dominate before the mapper ever runs. This crate is the
//! mapping service's only TCP substrate: **one** event-loop
//! thread owns every socket through a level-triggered epoll instance
//! (raw FFI, no `libc` crate — see [`sys`]), frames newline-delimited
//! JSON with partial-frame resumption ([`conn`]), enforces idle
//! deadlines through an ordered timer queue riding the workspace
//! [`cachemap_util::Clock`] (simulated in tests, so nothing sleeps),
//! and hands the frames each poll cycle decoded to a pluggable
//! [`Dispatch`] at the end of that cycle — no frame waits for company.
//! Replies come back in any order and are written to each connection
//! in request order.
//!
//! Layering (strictly one-directional):
//!
//! ```text
//! sys    raw syscalls (the only unsafe code)
//!  └─ poll    Poller (epoll) + Waker (eventfd)
//!      └─ conn    per-connection read framing / buffered writes
//!          └─ event_loop    accept, dispatch, complete, deadlines
//! ```
//!
//! The crate knows nothing about the mapping protocol: request
//! semantics live in `cachemap-service`'s `aserver`, which implements
//! [`Dispatch`] over the shared protocol module. Fault injection for
//! robustness tests ([`shim`]) is seeded, per-connection and ppm-rated.
//!
//! Linux-only (epoll, eventfd), which matches the workspace's CI and
//! the paper's storage-cluster setting.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod conn;
pub mod event_loop;
pub mod poll;
pub mod shim;
pub mod sys;

pub use conn::{Conn, Frame};
pub use event_loop::{
    spawn, Completion, CompletionQueue, Dispatch, EventLoopConfig, Handle, Inbound, LoopStats,
};
pub use poll::{Event, Poller, Waker};
pub use shim::{ConnFaults, FaultPlan};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    /// Echoes each line back uppercased; HTTP gets a fixed response.
    struct Echo;

    impl Dispatch for Echo {
        fn dispatch(&self, batch: Vec<Inbound>, done: &Arc<CompletionQueue>) {
            for inb in batch {
                let (bytes, close) = match inb.frame {
                    Frame::Line(l) => (format!("{}\n", l.to_uppercase()).into_bytes(), false),
                    Frame::Http(_) => (
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok"
                            .to_vec(),
                        true,
                    ),
                };
                done.complete(Completion {
                    token: inb.token,
                    gen: inb.gen,
                    seq: inb.seq,
                    bytes,
                    close_after: close,
                    shutdown: false,
                });
            }
        }
    }

    #[test]
    fn echo_round_trip_and_batching() {
        let handle = spawn(EventLoopConfig::default(), Arc::new(Echo)).unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        // Two pipelined frames, the second split across writes.
        c.write_all(b"hello\nwor").unwrap();
        c.write_all(b"ld\n").unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line, "HELLO\n");
        line.clear();
        r.read_line(&mut line).unwrap();
        assert_eq!(line, "WORLD\n");
        let stats = handle.stats();
        assert_eq!(
            stats
                .frames_total
                .load(std::sync::atomic::Ordering::Relaxed),
            2
        );
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn http_scrape_closes_after_response() {
        let handle = spawn(EventLoopConfig::default(), Arc::new(Echo)).unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        c.write_all(b"GET /x HTTP/1.1\r\nHost: y\r\n\r\n").unwrap();
        let mut body = String::new();
        std::io::Read::read_to_string(&mut c, &mut body).unwrap(); // EOF = closed
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn over_capacity_connection_gets_typed_line() {
        let cfg = EventLoopConfig {
            max_connections: 1,
            ..EventLoopConfig::default()
        };
        let handle = spawn(cfg, Arc::new(Echo)).unwrap();
        let _held = TcpStream::connect(handle.addr()).unwrap();
        // Give the loop a cycle to register the first connection.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let second = TcpStream::connect(handle.addr()).unwrap();
        let mut r = BufReader::new(second);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("conn_limit"), "{line}");
        assert_eq!(
            handle
                .stats()
                .rejected_capacity_total
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn idle_deadline_fires_on_simulated_clock_without_sleeping() {
        let clock = Arc::new(cachemap_util::Clock::simulated());
        let cfg = EventLoopConfig {
            idle_timeout_ms: 30_000,
            clock: Arc::clone(&clock),
            ..EventLoopConfig::default()
        };
        let handle = spawn(cfg, Arc::new(Echo)).unwrap();
        let c = TcpStream::connect(handle.addr()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50)); // let accept register
        let t0 = std::time::Instant::now();
        handle.advance_clock(31_000_000_000); // 31 virtual seconds
        let mut r = BufReader::new(c);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("read_timeout"), "{line}");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "virtual deadline must not need real waiting"
        );
        assert_eq!(
            handle
                .stats()
                .idle_timeouts_total
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn shutdown_via_completion_drains_pending_replies() {
        struct ShutdownEcho;
        impl Dispatch for ShutdownEcho {
            fn dispatch(&self, batch: Vec<Inbound>, done: &Arc<CompletionQueue>) {
                for inb in batch {
                    let Frame::Line(l) = inb.frame else { continue };
                    done.complete(Completion {
                        token: inb.token,
                        gen: inb.gen,
                        seq: inb.seq,
                        bytes: b"bye\n".to_vec(),
                        close_after: false,
                        shutdown: l == "stop",
                    });
                }
            }
        }
        let handle = spawn(EventLoopConfig::default(), Arc::new(ShutdownEcho)).unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        c.write_all(b"stop\n").unwrap();
        let mut r = BufReader::new(c);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line, "bye\n", "the shutdown request still gets its reply");
        handle.join(); // loop exits on its own
    }
}
