//! The event loop: accept, frame, dispatch, complete.
//!
//! One thread owns every socket. Each poll cycle it: (1) drains the
//! completion queue — replies produced by the caller's dispatcher
//! threads — into per-connection write buffers, (2) accepts pending
//! connections up to `max_connections`, (3) reads readable connections
//! and extracts frames, (4) fires passed idle deadlines (the connection
//! gets a typed timeout reply and is closed), and (5) hands every frame
//! the cycle decoded to [`Dispatch::dispatch`] in one call. No frame
//! waits for company: a lone request leaves the loop in the cycle that
//! read it.
//!
//! The loop itself never blocks on request work: [`Dispatch::dispatch`]
//! must only enqueue. Replies come back through the
//! [`CompletionQueue`], whose [`Waker`] makes a parked poll return.
//! Completions carry the connection's `(token, generation)`; a stale
//! generation (the slot was recycled) is dropped instead of writing
//! into someone else's connection. They also carry the frame's
//! per-connection `seq`: a reply that finishes ahead of an earlier
//! frame of its connection parks in [`Conn::held`](crate::Conn) until
//! the gap fills, so a pipelining client reads its replies in request
//! order whatever order the dispatchers finish in.
//!
//! Time comes from a [`Clock`]: with [`Clock::simulated`], deadlines
//! are driven by [`Handle::advance_clock`] and tests never sleep.

use crate::conn::{Conn, FlushOutcome, Frame, ReadOutcome};
use crate::poll::{Event, Poller, Waker, WAKE_TOKEN};
use crate::shim::FaultPlan;
use crate::sys;
use cachemap_util::{BufferPool, Clock, TimerQueue};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Token reserved for the listening socket.
const LISTEN_TOKEN: u64 = u64::MAX - 1;
/// Poll timeout cap: wake at least this often so stop flags and
/// simulated-clock changes are observed promptly.
const MAX_POLL_MS: i32 = 50;
/// Per-connection buffered-write cap; beyond it the connection's reads
/// pause (backpressure) until the buffer half-drains.
const WRITE_BUF_LIMIT: usize = 256 << 10;
/// A poll cycle overrunning its deadline by more than this many
/// milliseconds fires [`Dispatch::on_stall`].
const STALL_GRACE_MS: u64 = 250;

/// Event-loop tuning knobs.
#[derive(Debug, Clone)]
pub struct EventLoopConfig {
    /// Bind address (port 0 for ephemeral).
    pub bind: String,
    /// Connection slots; accepts beyond this get one
    /// `over_capacity_reply` line and are closed.
    pub max_connections: usize,
    /// Idle budget per connection in milliseconds (`0` disables): a
    /// connection sending nothing for this long gets one
    /// `idle_timeout_reply` line and is closed.
    pub idle_timeout_ms: u64,
    /// Maximum bytes of one frame (unterminated input beyond this is
    /// answered with `frame_too_large_reply` and closed).
    pub max_frame_bytes: usize,
    /// Time source for deadlines (share one simulated clock in tests).
    pub clock: Arc<Clock>,
    /// Connection-level fault injection (off by default).
    pub faults: FaultPlan,
    /// Reply line (no trailing newline) for over-capacity rejects.
    pub over_capacity_reply: String,
    /// Reply line for idle-deadline closes.
    pub idle_timeout_reply: String,
    /// Reply line for oversized-frame closes.
    pub frame_too_large_reply: String,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            bind: "127.0.0.1:0".into(),
            max_connections: 10_240,
            idle_timeout_ms: 30_000,
            max_frame_bytes: 1 << 20,
            clock: Arc::new(Clock::real()),
            faults: FaultPlan::none(),
            over_capacity_reply: r#"{"ok":false,"error":{"kind":"conn_limit"}}"#.into(),
            idle_timeout_reply: r#"{"ok":false,"error":{"kind":"read_timeout"}}"#.into(),
            frame_too_large_reply: r#"{"ok":false,"error":{"kind":"bad_request"}}"#.into(),
        }
    }
}

/// One decoded frame tagged with its connection's identity.
#[derive(Debug, Clone)]
pub struct Inbound {
    /// Connection slot.
    pub token: usize,
    /// Slot generation at decode time.
    pub gen: u64,
    /// Per-connection frame sequence (0-based). The matching
    /// [`Completion`] must echo it: replies are written in sequence
    /// order, so a multi-threaded dispatcher finishing frames out of
    /// order cannot reorder one connection's pipelined replies.
    pub seq: u64,
    /// The frame itself.
    pub frame: Frame,
}

/// A reply heading back to a connection.
#[derive(Debug)]
pub struct Completion {
    /// Connection slot (from the [`Inbound`]).
    pub token: usize,
    /// Slot generation (stale generations are dropped).
    pub gen: u64,
    /// The [`Inbound`]'s sequence number; the loop writes replies in
    /// this order, parking early arrivals until the gap fills.
    pub seq: u64,
    /// Wire bytes, including any trailing newline.
    pub bytes: Vec<u8>,
    /// Close the connection once the bytes are written (HTTP replies,
    /// policy closes).
    pub close_after: bool,
    /// The request asked the server to stop: after this reply is
    /// queued, the loop stops accepting and drains.
    pub shutdown: bool,
}

/// The dispatcher-to-loop reply channel.
pub struct CompletionQueue {
    queue: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl CompletionQueue {
    fn new(waker: Waker) -> CompletionQueue {
        CompletionQueue {
            queue: Mutex::new(Vec::new()),
            waker,
        }
    }

    /// Posts one reply and wakes the loop. Callable from any thread.
    pub fn complete(&self, c: Completion) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push(c);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }
}

/// Request handling plugged into the loop. Implementations must not
/// block in [`Dispatch::dispatch`] — hand the frames to worker threads
/// and return; replies go through the [`CompletionQueue`], one
/// [`Completion`] per frame, in any order.
pub trait Dispatch: Send + Sync + 'static {
    /// Every frame one poll cycle decoded, in arrival order (the
    /// loop's batch). Called at the end of the cycle that read them.
    fn dispatch(&self, batch: Vec<Inbound>, done: &Arc<CompletionQueue>);
    /// A poll cycle overran its deadline by `gap_ns`.
    fn on_stall(&self, gap_ns: u64) {
        let _ = gap_ns;
    }
    /// A connection was closed for idling past its read budget.
    fn on_idle_timeout(&self) {}
    /// A connection was refused at the door because every slot was
    /// taken.
    fn on_over_capacity(&self) {}
}

/// Loop-level counters, readable from any thread.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Currently open connections.
    pub connections: AtomicU64,
    /// Connections accepted since start.
    pub accepted_total: AtomicU64,
    /// Connections rejected at the door (capacity).
    pub rejected_capacity_total: AtomicU64,
    /// Frames decoded and dispatched.
    pub frames_total: AtomicU64,
    /// Batches handed to the dispatcher: one per poll cycle that
    /// decoded at least one frame.
    pub batches_total: AtomicU64,
    /// Poll returns (the loop's heartbeat).
    pub wakeups_total: AtomicU64,
    /// Times a connection's reads were paused by write backpressure.
    pub backpressure_total: AtomicU64,
    /// Connections closed by the idle deadline.
    pub idle_timeouts_total: AtomicU64,
    /// Connections closed for an oversized frame.
    pub frame_too_large_total: AtomicU64,
    /// Poll cycles that overran their deadline past the stall grace.
    pub stalls_total: AtomicU64,
    /// Bytes read off sockets.
    pub bytes_read_total: AtomicU64,
    /// Bytes written to sockets.
    pub bytes_written_total: AtomicU64,
}

/// Control handle for a running loop (cheap to share).
pub struct Handle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    waker: Waker,
    clock: Arc<Clock>,
    stats: Arc<LoopStats>,
    join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Handle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live loop counters.
    pub fn stats(&self) -> &Arc<LoopStats> {
        &self.stats
    }

    /// The loop's clock.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Graceful stop: no new connections, in-flight requests answered,
    /// write buffers drained, then the loop exits. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Immediate stop: the loop exits at the next cycle without
    /// draining; connections are torn down mid-write.
    pub fn kill(&self) {
        self.kill.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Advances a simulated clock and wakes the loop so deadlines are
    /// re-evaluated against the new time. No-op sleep-free driver for
    /// timeout tests.
    pub fn advance_clock(&self, ns: u64) {
        self.clock.advance_ns(ns);
        self.waker.wake();
    }

    /// Waits for the loop thread to exit.
    pub fn join(&self) {
        if let Some(h) = self.join.lock().expect("join handle poisoned").take() {
            let _ = h.join();
        }
    }
}

/// Timer token: a connection's idle deadline, by slot and generation.
#[derive(Debug, Clone, Copy)]
struct IdleTimer(usize, u64);

/// Binds the listener, spawns the loop thread, and returns its handle.
pub fn spawn(cfg: EventLoopConfig, dispatch: Arc<dyn Dispatch>) -> io::Result<Handle> {
    // One fd per connection: lift the soft fd limit to the hard one so
    // `max_connections` is a config decision, not an rlimit accident.
    let _ = sys::raise_nofile_limit();
    let listener = TcpListener::bind(&cfg.bind)?;
    listener.set_nonblocking(true)?;
    // std hardcodes listen(128); deepen the accept queue so a
    // thousands-strong connect storm doesn't see resets.
    let _ = sys::relisten(listener.as_raw_fd(), 4096);
    let addr = listener.local_addr()?;
    let poller = Poller::new(1024)?;
    poller.add(listener.as_raw_fd(), LISTEN_TOKEN, true, false)?;
    let waker = Waker::register(&poller)?;
    let completions = Arc::new(CompletionQueue::new(waker.clone()));
    let stop = Arc::new(AtomicBool::new(false));
    let kill = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(LoopStats::default());
    let clock = Arc::clone(&cfg.clock);
    let mut state = LoopState {
        slots: Vec::new(),
        free: Vec::new(),
        timers: TimerQueue::new(),
        batch: Vec::new(),
        in_flight: 0,
        seq: 0,
        gen: 0,
        pool: BufferPool::new(256, 1 << 20),
        scratch: vec![0u8; 64 << 10],
        tmp_frames: Vec::new(),
        accepting: true,
        draining: false,
        drain_started: None,
        poller,
        listener,
        waker: waker.clone(),
        completions: Arc::clone(&completions),
        dispatch,
        stats: Arc::clone(&stats),
        stop: Arc::clone(&stop),
        kill: Arc::clone(&kill),
        clock: Arc::clone(&clock),
        cfg,
    };
    let join = std::thread::Builder::new()
        .name("aio-loop".into())
        .spawn(move || state.run())?;
    Ok(Handle {
        addr,
        stop,
        kill,
        waker,
        clock,
        stats,
        join: Mutex::new(Some(join)),
    })
}

struct LoopState {
    cfg: EventLoopConfig,
    poller: Poller,
    listener: TcpListener,
    waker: Waker,
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    timers: TimerQueue<IdleTimer>,
    /// Frames decoded this poll cycle, dispatched at its end.
    batch: Vec<Inbound>,
    /// Frames dispatched whose completions have not yet drained.
    in_flight: usize,
    seq: u64,
    gen: u64,
    pool: BufferPool,
    scratch: Vec<u8>,
    tmp_frames: Vec<Frame>,
    accepting: bool,
    draining: bool,
    drain_started: Option<Instant>,
    completions: Arc<CompletionQueue>,
    dispatch: Arc<dyn Dispatch>,
    stats: Arc<LoopStats>,
    stop: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    clock: Arc<Clock>,
}

impl LoopState {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.kill.load(Ordering::SeqCst) {
                break;
            }
            if self.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.drained() {
                break;
            }
            let timeout_ms = self.poll_timeout_ms();
            let wait_t0 = Instant::now();
            events.clear();
            if self.poller.wait(&mut events, timeout_ms).is_err() {
                break;
            }
            self.stats.wakeups_total.fetch_add(1, Ordering::Relaxed);
            // Stall detection: a cycle that overslept its own deadline
            // by more than the grace means the loop thread was blocked
            // — exactly the regression the flight recorder should
            // capture while the evidence is fresh.
            let elapsed_ms = wait_t0.elapsed().as_millis() as u64;
            let overrun = elapsed_ms.saturating_sub(timeout_ms.max(0) as u64);
            if overrun > STALL_GRACE_MS {
                self.stats.stalls_total.fetch_add(1, Ordering::Relaxed);
                self.dispatch.on_stall(overrun * 1_000_000);
            }
            let now = self.clock.now_ns();
            for &ev in &events {
                match ev.token {
                    WAKE_TOKEN => {
                        self.waker.drain();
                        self.apply_completions();
                    }
                    LISTEN_TOKEN => self.accept_ready(now),
                    token => {
                        let slot = token as usize;
                        if ev.readable {
                            self.read_ready(slot, now);
                        }
                        if ev.writable {
                            self.flush_conn(slot);
                        }
                        if ev.closed {
                            // Full hang-up: nothing can be delivered
                            // either way.
                            self.close_conn(slot);
                        }
                    }
                }
            }
            // Completions may have arrived while we processed sockets;
            // cheap to check, and it shortens reply latency by a cycle.
            self.apply_completions();
            for IdleTimer(slot, gen) in self.timers.advance(now) {
                self.idle_fired(slot, gen, now);
            }
            self.flush_batch();
        }
        // Teardown: deregister and drop every socket.
        for slot in 0..self.slots.len() {
            self.close_conn(slot);
        }
        self.poller.remove(self.listener.as_raw_fd());
    }

    /// Milliseconds until the next deadline, capped at [`MAX_POLL_MS`].
    fn poll_timeout_ms(&self) -> i32 {
        if self.draining {
            return 5;
        }
        let now = self.clock.now_ns();
        match self.timers.next_deadline_ns() {
            Some(dl) => {
                let ms = dl.saturating_sub(now).div_ceil(1_000_000);
                (ms.min(MAX_POLL_MS as u64)) as i32
            }
            None => MAX_POLL_MS,
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_started = Some(Instant::now());
        if self.accepting {
            self.poller.remove(self.listener.as_raw_fd());
            self.accepting = false;
        }
    }

    /// Drain is complete when every dispatched frame has completed and
    /// every reply byte has left the process — or the bounded drain
    /// window lapsed (a wedged peer must not hold shutdown hostage).
    fn drained(&self) -> bool {
        let timed_out = self
            .drain_started
            .map(|t| t.elapsed() > std::time::Duration::from_secs(5))
            .unwrap_or(false);
        timed_out
            || (self.in_flight == 0 && self.slots.iter().flatten().all(|c| c.pending_write() == 0))
    }

    fn accept_ready(&mut self, now: u64) {
        if !self.accepting {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.seq += 1;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let active = self.stats.connections.load(Ordering::Relaxed) as usize;
                    if active >= self.cfg.max_connections {
                        self.stats
                            .rejected_capacity_total
                            .fetch_add(1, Ordering::Relaxed);
                        self.dispatch.on_over_capacity();
                        let mut s = stream;
                        let _ = s.write_all(self.cfg.over_capacity_reply.as_bytes());
                        let _ = s.write_all(b"\n");
                        continue;
                    }
                    self.register(stream, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failure (EMFILE and friends):
                // level-triggered epoll will retry next cycle.
                Err(_) => break,
            }
        }
    }

    fn register(&mut self, stream: TcpStream, now: u64) {
        self.gen += 1;
        let gen = self.gen;
        let faults = self.cfg.faults.decide(self.seq);
        let conn = Conn::new(
            stream,
            gen,
            self.seq,
            now,
            faults,
            self.pool.get(),
            self.pool.get(),
        );
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        if self
            .poller
            .add(conn.stream.as_raw_fd(), slot as u64, true, false)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.slots[slot] = Some(conn);
        if self.cfg.idle_timeout_ms > 0 {
            let dl = now + self.cfg.idle_timeout_ms * 1_000_000;
            let id = self.timers.schedule(dl, IdleTimer(slot, gen));
            if let Some(c) = self.slots[slot].as_mut() {
                c.idle_timer = Some(id);
            }
        }
        self.stats.accepted_total.fetch_add(1, Ordering::Relaxed);
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
    }

    fn read_ready(&mut self, slot: usize, now: u64) {
        let Some(conn) = self.slots.get_mut(slot).and_then(|s| s.as_mut()) else {
            return;
        };
        if conn.paused {
            return;
        }
        let gen = conn.gen;
        self.tmp_frames.clear();
        let (nread, outcome) = conn.read_ready(
            &mut self.scratch,
            self.cfg.max_frame_bytes,
            now,
            &mut self.tmp_frames,
        );
        self.stats
            .bytes_read_total
            .fetch_add(nread, Ordering::Relaxed);
        // `frames_in` already counts the frames just decoded; the k-th
        // of them carries sequence `frames_in - len + k`.
        let seq_base = conn.frames_in - self.tmp_frames.len() as u64;
        for (k, frame) in self.tmp_frames.drain(..).enumerate() {
            self.batch.push(Inbound {
                token: slot,
                gen,
                seq: seq_base + k as u64,
                frame,
            });
        }
        match outcome {
            // Backpressure is applied when replies queue up; reads
            // pausing is decided at flush time.
            ReadOutcome::Continue => {}
            ReadOutcome::PeerClosed => {
                let outstanding = self.outstanding_for(slot, gen);
                let pending = self.slots[slot]
                    .as_ref()
                    .map(|c| c.pending_write())
                    .unwrap_or(0);
                if outstanding == 0 && pending == 0 {
                    self.close_conn(slot);
                } else if let Some(c) = self.slots[slot].as_mut() {
                    // Half-closed peer still owed replies: deliver
                    // them, then close.
                    c.close_after_write = true;
                }
            }
            ReadOutcome::FrameTooLarge => {
                self.stats
                    .frame_too_large_total
                    .fetch_add(1, Ordering::Relaxed);
                self.reply_and_close(slot, self.cfg.frame_too_large_reply.clone());
            }
            ReadOutcome::Error(_) => self.close_conn(slot),
        }
    }

    /// Frames from `(slot, gen)` decoded this cycle or in flight.
    fn outstanding_for(&self, slot: usize, gen: u64) -> usize {
        // The batch is cheap to scan; in-flight frames are tracked on
        // the connection via its decode counter minus completions is
        // overkill — the batch scan plus the global in-flight bound is
        // a conservative proxy: when anything is in flight we keep the
        // connection until its writes drain.
        self.batch
            .iter()
            .filter(|i| i.token == slot && i.gen == gen)
            .count()
            + self.in_flight
    }

    fn idle_fired(&mut self, slot: usize, gen: u64, now: u64) {
        let idle_ns = self.cfg.idle_timeout_ms * 1_000_000;
        let Some(conn) = self.slots.get_mut(slot).and_then(|s| s.as_mut()) else {
            return;
        };
        if conn.gen != gen {
            return;
        }
        let deadline = conn.last_activity_ns + idle_ns;
        if now < deadline {
            // Lazy re-arm: bytes arrived since the timer was set, so
            // push the deadline out instead of cancelling per byte.
            let id = self.timers.schedule(deadline, IdleTimer(slot, gen));
            conn.idle_timer = Some(id);
            return;
        }
        self.stats
            .idle_timeouts_total
            .fetch_add(1, Ordering::Relaxed);
        self.dispatch.on_idle_timeout();
        self.reply_and_close(slot, self.cfg.idle_timeout_reply.clone());
    }

    /// Queues a final reply line and closes once it drains.
    fn reply_and_close(&mut self, slot: usize, line: String) {
        if let Some(conn) = self.slots.get_mut(slot).and_then(|s| s.as_mut()) {
            conn.queue_write(line.as_bytes());
            conn.queue_write(b"\n");
            conn.close_after_write = true;
        }
        self.flush_conn(slot);
    }

    /// Hands the frames decoded this cycle to the dispatcher.
    fn flush_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.batch);
        self.in_flight += batch.len();
        self.stats
            .frames_total
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.stats.batches_total.fetch_add(1, Ordering::Relaxed);
        self.dispatch.dispatch(batch, &self.completions);
    }

    fn apply_completions(&mut self) {
        let done = self.completions.drain();
        if done.is_empty() {
            return;
        }
        for c in done {
            self.in_flight = self.in_flight.saturating_sub(1);
            if c.shutdown {
                self.stop.store(true, Ordering::SeqCst);
            }
            let Some(conn) = self.slots.get_mut(c.token).and_then(|s| s.as_mut()) else {
                continue; // connection already gone
            };
            if conn.gen != c.gen {
                continue; // slot recycled: stale completion
            }
            // Strict reply order per connection: a completion ahead of
            // its predecessors (another dispatcher thread finished a
            // later frame first) parks until the gap fills.
            if c.seq != conn.next_write_seq {
                conn.held.insert(
                    c.seq,
                    crate::conn::HeldReply {
                        bytes: c.bytes,
                        close_after: c.close_after,
                    },
                );
                continue;
            }
            conn.queue_write(&c.bytes);
            if c.close_after {
                conn.close_after_write = true;
            }
            conn.next_write_seq += 1;
            while let Some(held) = conn.held.remove(&conn.next_write_seq) {
                conn.queue_write(&held.bytes);
                if held.close_after {
                    conn.close_after_write = true;
                }
                conn.next_write_seq += 1;
            }
            // Backpressure: a peer not draining replies stops being
            // read until the buffer half-empties.
            if !conn.paused && conn.pending_write() > WRITE_BUF_LIMIT {
                conn.paused = true;
                self.stats
                    .backpressure_total
                    .fetch_add(1, Ordering::Relaxed);
                self.update_interest(c.token);
            }
            self.flush_conn(c.token);
        }
        if self.stop.load(Ordering::SeqCst) && !self.draining {
            self.begin_drain();
        }
    }

    fn update_interest(&mut self, slot: usize) {
        if let Some(conn) = self.slots.get(slot).and_then(|s| s.as_ref()) {
            let _ = self.poller.modify(
                conn.stream.as_raw_fd(),
                slot as u64,
                !conn.paused,
                conn.want_write,
            );
        }
    }

    fn flush_conn(&mut self, slot: usize) {
        let Some(conn) = self.slots.get_mut(slot).and_then(|s| s.as_mut()) else {
            return;
        };
        let (nwritten, outcome) = conn.flush();
        self.stats
            .bytes_written_total
            .fetch_add(nwritten, Ordering::Relaxed);
        match outcome {
            FlushOutcome::Idle => {
                let mut changed = false;
                if conn.want_write {
                    conn.want_write = false;
                    changed = true;
                }
                if conn.paused {
                    conn.paused = false;
                    changed = true;
                }
                if changed {
                    self.update_interest(slot);
                }
            }
            FlushOutcome::Pending => {
                let mut changed = false;
                if !conn.want_write {
                    conn.want_write = true;
                    changed = true;
                }
                if conn.paused && conn.pending_write() <= WRITE_BUF_LIMIT / 2 {
                    conn.paused = false;
                    changed = true;
                }
                if changed {
                    self.update_interest(slot);
                }
            }
            FlushOutcome::Closed | FlushOutcome::Error(_) => self.close_conn(slot),
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.slots.get_mut(slot).and_then(|s| s.take()) else {
            return;
        };
        self.poller.remove(conn.stream.as_raw_fd());
        if let Some(id) = conn.idle_timer {
            self.timers.cancel(id);
        }
        let (rb, wb) = conn.into_buffers();
        self.pool.put(rb);
        self.pool.put(wb);
        self.free.push(slot);
        self.stats.connections.fetch_sub(1, Ordering::Relaxed);
    }
}
