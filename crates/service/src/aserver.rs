//! The TCP front end: [`AsyncServer`] serves the JSON-lines protocol
//! (plus `GET /metrics`) on a `cachemap-aio` event loop.
//!
//! One `aio` thread owns every socket (10k+ connections on a few MB
//! instead of 10k thread stacks). At the end of each poll cycle it
//! hands over the frames that cycle decoded; they join one FIFO, and a
//! small dispatcher pool takes them one at a time, each running the
//! [`crate::dispatch`] protocol module (which owns every reply byte)
//! and completing its own reply. A dispatcher that leads a cache miss
//! runs the mapping itself, so the pool's size bounds how many
//! mappings run at once. Identical requests are not merged here:
//! concurrent misses on one fingerprint meet in the service's
//! coalescer. Replies flow back through the loop's completion queue,
//! which writes each connection's replies in request order; a stale
//! connection generation drops the reply instead of writing into a
//! recycled slot.
//!
//! Loop-level health is exported on the *service's* metric registry
//! (`cachemap_aio_*`, preregistered at zero so the first scrape
//! carries the schema), and an accept-loop stall — the loop thread
//! overrunning its poll deadline past the grace — fires the service
//! flight recorder's `accept_stall` trigger while the evidence is
//! fresh.

use crate::dispatch;
use crate::MapService;
use cachemap_aio as aio;
use cachemap_aio::{Completion, CompletionQueue, Dispatch, Frame, Inbound, LoopStats};
use cachemap_util::{Clock, Json};
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Batch-size histogram buckets (frames per poll-cycle handoff).
const BATCH_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
/// Help text of the `cachemap_aio_batch_size` histogram.
const BATCH_HELP: &str = "Frames per poll-cycle handoff to the dispatcher pool";

/// Async front-end tuning knobs.
#[derive(Debug, Clone)]
pub struct AsyncServerConfig {
    /// Connection slots (10k-connection serving is the point).
    pub max_connections: usize,
    /// Idle read budget per connection, ms (`0` disables).
    pub idle_timeout_ms: u64,
    /// Dispatcher threads running protocol work. Each one computes the
    /// misses it leads and waits out the ones it follows, so this bounds
    /// how many mappings run at once.
    pub dispatchers: usize,
    /// Maximum bytes of a single request frame.
    pub max_frame_bytes: usize,
    /// Time source for deadlines (simulated in tests).
    pub clock: Arc<Clock>,
}

impl Default for AsyncServerConfig {
    fn default() -> Self {
        AsyncServerConfig {
            max_connections: 10_240,
            idle_timeout_ms: 30_000,
            dispatchers: 4,
            max_frame_bytes: 1 << 20,
            clock: Arc::new(Clock::real()),
        }
    }
}

/// Last-exported loop-counter values, for delta export into the
/// service registry (counters must only ever grow).
#[derive(Default)]
struct StatCursor {
    wakeups: u64,
    backpressure: u64,
    accepted: u64,
    rejected: u64,
    frames: u64,
    batches: u64,
    idle_timeouts: u64,
    stalls: u64,
}

/// The [`Dispatch`] implementation: a FIFO of frames feeding a small
/// worker pool, which takes them one at a time.
struct Batcher {
    service: Arc<MapService>,
    queue: Mutex<VecDeque<(Inbound, Arc<CompletionQueue>)>>,
    available: Condvar,
    stop: AtomicBool,
    /// Loop stats, wired after the loop spawns (the loop owns them).
    loop_stats: OnceLock<Arc<LoopStats>>,
    cursor: Mutex<StatCursor>,
}

impl Batcher {
    /// Folds the loop's atomic counters into the service registry as
    /// deltas (and the connection gauge as a level). Runs before each
    /// frame, so a `metrics`/`GET /metrics` request scrapes fresh
    /// values.
    fn sync_metrics(&self) {
        let Some(stats) = self.loop_stats.get() else {
            return;
        };
        let mut cur = self.cursor.lock().expect("stat cursor poisoned");
        let mut m = self.service.metrics.lock().expect("metrics poisoned");
        m.gauge_set(
            "cachemap_aio_connections",
            "Open connections on the async front end",
            &[],
            stats.connections.load(Ordering::Relaxed) as f64,
        );
        let counter =
            |m: &mut cachemap_obs::Registry, name: &str, help: &str, last: &mut u64, now: u64| {
                m.counter_add(name, help, &[], now.saturating_sub(*last));
                *last = now;
            };
        counter(
            &mut m,
            "cachemap_aio_wakeups_total",
            "Event-loop poll returns",
            &mut cur.wakeups,
            stats.wakeups_total.load(Ordering::Relaxed),
        );
        counter(
            &mut m,
            "cachemap_aio_backpressure_total",
            "Connections paused for unread reply backlog",
            &mut cur.backpressure,
            stats.backpressure_total.load(Ordering::Relaxed),
        );
        counter(
            &mut m,
            "cachemap_aio_accepted_total",
            "Connections accepted by the async front end",
            &mut cur.accepted,
            stats.accepted_total.load(Ordering::Relaxed),
        );
        counter(
            &mut m,
            "cachemap_aio_rejected_total",
            "Connections rejected at the async front end's capacity cap",
            &mut cur.rejected,
            stats.rejected_capacity_total.load(Ordering::Relaxed),
        );
        counter(
            &mut m,
            "cachemap_aio_frames_total",
            "Request frames decoded by the async front end",
            &mut cur.frames,
            stats.frames_total.load(Ordering::Relaxed),
        );
        counter(
            &mut m,
            "cachemap_aio_batches_total",
            "Poll cycles that handed frames to the dispatcher pool",
            &mut cur.batches,
            stats.batches_total.load(Ordering::Relaxed),
        );
        counter(
            &mut m,
            "cachemap_aio_idle_timeouts_total",
            "Connections closed at the idle read deadline",
            &mut cur.idle_timeouts,
            stats.idle_timeouts_total.load(Ordering::Relaxed),
        );
        counter(
            &mut m,
            "cachemap_aio_stalls_total",
            "Accept-loop poll cycles that overran the stall grace",
            &mut cur.stalls,
            stats.stalls_total.load(Ordering::Relaxed),
        );
    }

    /// Declares every `cachemap_aio_*` family at zero so the first
    /// scrape already carries the schema.
    fn preregister(&self) {
        let mut m = self.service.metrics.lock().expect("metrics poisoned");
        m.gauge_set(
            "cachemap_aio_connections",
            "Open connections on the async front end",
            &[],
            0.0,
        );
        for (name, help) in [
            ("cachemap_aio_wakeups_total", "Event-loop poll returns"),
            (
                "cachemap_aio_backpressure_total",
                "Connections paused for unread reply backlog",
            ),
            (
                "cachemap_aio_accepted_total",
                "Connections accepted by the async front end",
            ),
            (
                "cachemap_aio_rejected_total",
                "Connections rejected at the async front end's capacity cap",
            ),
            (
                "cachemap_aio_frames_total",
                "Request frames decoded by the async front end",
            ),
            (
                "cachemap_aio_batches_total",
                "Poll cycles that handed frames to the dispatcher pool",
            ),
            (
                "cachemap_aio_idle_timeouts_total",
                "Connections closed at the idle read deadline",
            ),
            (
                "cachemap_aio_stalls_total",
                "Accept-loop poll cycles that overran the stall grace",
            ),
        ] {
            m.counter_add(name, help, &[], 0);
        }
        m.histogram_declare("cachemap_aio_batch_size", BATCH_HELP, &BATCH_BUCKETS, &[]);
    }

    /// One dispatcher thread: take frames one at a time, run the
    /// shared protocol dispatch, complete each frame's reply.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().expect("frame queue poisoned");
                loop {
                    if let Some(job) = q.pop_front() {
                        break Some(job);
                    }
                    if self.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    let (guard, _) = self
                        .available
                        .wait_timeout(q, std::time::Duration::from_millis(100))
                        .expect("frame queue poisoned");
                    q = guard;
                }
            };
            let Some((inb, done)) = job else { return };
            self.sync_metrics();
            let (bytes, close_after, shutdown) = match inb.frame {
                Frame::Line(line) => {
                    let out = dispatch::dispatch_line(&self.service, &line);
                    let mut bytes = out.reply.into_bytes();
                    bytes.push(b'\n');
                    (bytes, false, out.shutdown)
                }
                Frame::Http(request_line) => {
                    let reply = dispatch::http_response(&self.service, &request_line);
                    (reply.into_bytes(), true, false)
                }
            };
            done.complete(Completion {
                token: inb.token,
                gen: inb.gen,
                seq: inb.seq,
                bytes,
                close_after,
                shutdown,
            });
        }
    }
}

impl Dispatch for Batcher {
    fn dispatch(&self, batch: Vec<Inbound>, done: &Arc<CompletionQueue>) {
        let frames = batch.len();
        self.service
            .metrics
            .lock()
            .expect("metrics poisoned")
            .histogram_observe(
                "cachemap_aio_batch_size",
                BATCH_HELP,
                &BATCH_BUCKETS,
                &[],
                frames as f64,
            );
        let mut q = self.queue.lock().expect("frame queue poisoned");
        q.extend(batch.into_iter().map(|inb| (inb, Arc::clone(done))));
        drop(q);
        for _ in 0..frames {
            self.available.notify_one();
        }
    }

    fn on_stall(&self, gap_ns: u64) {
        // The loop thread missed its own deadline: capture the service
        // state while the cause is still in the flight ring.
        self.service.flight_dump(
            "accept_stall",
            vec![("gap_ms", Json::UInt(gap_ns / 1_000_000))],
        );
    }

    fn on_idle_timeout(&self) {
        self.service.count_front_end_rejection("read_timeout");
    }

    fn on_over_capacity(&self) {
        self.service.count_front_end_rejection("conn_limit");
    }
}

/// A running async front end. Dropping it shuts it down and joins its
/// threads; the fronted [`MapService`] is left running.
pub struct AsyncServer {
    handle: aio::Handle,
    service: Arc<MapService>,
    batcher: Arc<Batcher>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl AsyncServer {
    /// Binds `bind` (port 0 for ephemeral) and starts the loop plus
    /// dispatcher pool with default tuning.
    pub fn spawn(bind: &str, service: Arc<MapService>) -> io::Result<AsyncServer> {
        Self::spawn_with(bind, service, AsyncServerConfig::default())
    }

    /// [`AsyncServer::spawn`] with explicit tuning.
    pub fn spawn_with(
        bind: &str,
        service: Arc<MapService>,
        cfg: AsyncServerConfig,
    ) -> io::Result<AsyncServer> {
        let batcher = Arc::new(Batcher {
            service: Arc::clone(&service),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            loop_stats: OnceLock::new(),
            cursor: Mutex::new(StatCursor::default()),
        });
        batcher.preregister();
        let loop_cfg = aio::EventLoopConfig {
            bind: bind.to_string(),
            max_connections: cfg.max_connections,
            idle_timeout_ms: cfg.idle_timeout_ms,
            max_frame_bytes: cfg.max_frame_bytes,
            clock: Arc::clone(&cfg.clock),
            over_capacity_reply: dispatch::conn_limit_reply(
                cfg.max_connections,
                cfg.max_connections,
            ),
            idle_timeout_reply: dispatch::read_timeout_reply(cfg.idle_timeout_ms),
            frame_too_large_reply: crate::proto::error_response_json(
                0,
                "read",
                &crate::ServiceError::BadRequest {
                    message: format!("frame exceeds {} bytes", cfg.max_frame_bytes),
                },
            )
            .to_string_compact(),
        };
        let handle = aio::spawn(loop_cfg, Arc::clone(&batcher) as Arc<dyn Dispatch>)?;
        let _ = batcher.loop_stats.set(Arc::clone(handle.stats()));
        let mut workers = Vec::with_capacity(cfg.dispatchers.max(1));
        for i in 0..cfg.dispatchers.max(1) {
            let b = Arc::clone(&batcher);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("aserver-dispatch-{i}"))
                    .spawn(move || b.worker_loop())?,
            );
        }
        Ok(AsyncServer {
            handle,
            service,
            batcher,
            workers: Mutex::new(workers),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The service this front end serves.
    pub fn service(&self) -> &Arc<MapService> {
        &self.service
    }

    /// Live loop counters (connections, frames, stalls…).
    pub fn loop_stats(&self) -> &Arc<LoopStats> {
        self.handle.stats()
    }

    /// Advances a simulated clock and re-evaluates deadlines; no-op on
    /// a real clock. Lets timeout tests run without sleeping.
    pub fn advance_clock(&self, ns: u64) {
        self.handle.advance_clock(ns);
    }

    /// Graceful stop: no new connections, in-flight requests answered
    /// and written, then threads exit. Idempotent; does not block.
    pub fn shutdown(&self) {
        self.handle.shutdown();
    }

    /// Blocks until the loop and dispatcher pool have exited (after a
    /// [`AsyncServer::shutdown`] or an in-protocol `shutdown` request).
    pub fn join(&self) {
        self.handle.join();
        self.batcher.stop.store(true, Ordering::SeqCst);
        self.batcher.available.notify_all();
        let mut workers = self.workers.lock().expect("workers poisoned");
        for w in workers.drain(..) {
            let _ = w.join();
        }
        // Export the final counter values so a post-shutdown scrape of
        // the service registry reflects everything the loop did.
        self.batcher.sync_metrics();
    }
}

impl Drop for AsyncServer {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}
