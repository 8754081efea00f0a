//! # cachemap-service — mapping as a service.
//!
//! The HPDC'10 pipeline computes one mapping per loop nest; the
//! production system this workspace grows toward must answer *repeated*
//! mapping queries from many tenants in microseconds. This crate turns
//! the mapper into a long-lived, concurrent, cache-fronted service:
//!
//! * [`MapService`] — the in-process engine: a fixed worker thread pool
//!   behind a **fair admission queue** (per-tenant quotas and
//!   round-robin lanes, reject-on-full backpressure, per-request
//!   deadlines, typed [`ServiceError`] rejections), fronted by a
//!   two-tier mapping cache keyed by the canonical content fingerprint
//!   of `(program, platform, params, version)`: a sharded in-memory
//!   LRU (L1) over an optional crash-durable disk store (L2, see
//!   `cachemap_storage::L2Store`).
//!   Concurrent misses on one fingerprint are **coalesced** (see
//!   `cachemap_util::CoalesceMap`): exactly one pipeline run, everyone
//!   inherits the result. Because the pipeline is deterministic, a
//!   cache hit at either tier returns a mapping byte-identical to a
//!   cold run — memoization is semantically invisible (property-tested
//!   in `tests/service.rs`).
//! * [`aserver::AsyncServer`] — the TCP front end: JSON-lines
//!   request/response (see [`proto`]) plus a plain-HTTP `GET /metrics`
//!   Prometheus endpoint on the same port, backed by an
//!   `obs::Registry`. One `cachemap-aio` event-loop thread owns every
//!   socket and hands each poll cycle's decoded frames to a small
//!   dispatcher pool, which takes them one at a time; [`dispatch`]
//!   turns each line into its reply bytes.
//!
//! When [`ServiceConfig::tracing`] is on, every request additionally
//! carries a deterministic per-request trace — stage-by-stage latency
//! attribution from wire parse to response serialization, with the
//! mapper's `Profile` span tree linked under the compute stage — and a
//! bounded flight recorder keeps the most recent traces in memory,
//! dumping them to `flight-*.json` on anomalies (slow request,
//! rejection burst, drain, crash recovery). Per-tenant SLO latency
//! histograms and burn-rate gauges ride on the same registry whether or
//! not tracing is enabled. Tracing is free when off: responses are
//! byte-identical (`tests/trace.rs`) and the instrumented paths cost one
//! branch each.
//!
//! Shutdown is a **graceful drain**: new submissions are rejected with
//! a typed `shutdown` error, queued work is finished (or
//! deadline-rejected) within `drain_limit_ms`, dirty L2 segments are
//! flushed and sealed, then workers are joined. [`MapService::kill`]
//! simulates a crash (no flush) for recovery testing.
//!
//! ```no_run
//! use cachemap_service::{aserver::AsyncServer, MapService, ServiceConfig};
//! use std::sync::Arc;
//!
//! let service = Arc::new(MapService::start(ServiceConfig::default()));
//! let server = AsyncServer::spawn("127.0.0.1:7411", Arc::clone(&service)).unwrap();
//! println!("serving mappings on {}", server.addr());
//! // Returns once a client sends `{"op":"shutdown"}` and the loop drains.
//! server.join();
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aserver;
pub mod dispatch;
pub mod error;
pub mod proto;
pub mod queue;

pub use error::ServiceError;
pub use proto::{MapRequest, MapResponse, Request};

use cachemap_obs::{FlightRecorder, Profile, Registry, TraceId, TraceRecord};
use cachemap_polyhedral::DataSpace;
use cachemap_storage::wire::mapped_program_from_json;
use cachemap_storage::{HierarchyTree, L2Config, L2Store, MappedProgram};
use cachemap_util::{fingerprint_json, CoalesceMap, Fingerprint, Json, ShardedLru, ToJson};
use queue::{FairQueue, PushError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Latency histogram bucket bounds, in seconds.
const LATENCY_BUCKETS: [f64; 14] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// Stage names of the request-trace taxonomy, in service-path order.
/// `parse` only appears when the front end reports an ingress duration;
/// `handoff` runs from the end of `compute` until the waiting submitter
/// resumes (the worker's cache inserts and metrics, then the reply
/// wake-up); `serialize` is appended at finalization by the front end.
pub const TRACE_STAGES: [&str; 10] = [
    "parse",
    "fingerprint",
    "l1",
    "l2",
    "l2_parse",
    "coalesce",
    "queue_wait",
    "compute",
    "handoff",
    "serialize",
];

/// Flight-recorder dump trigger names (the `trigger` metric label and
/// the `flight-<trigger>-*.json` file-name component). `accept_stall`
/// is fired by the [`aserver::AsyncServer`] when its event loop misses
/// a poll deadline by more than the stall grace.
pub const FLIGHT_TRIGGERS: [&str; 5] = [
    "slow_request",
    "rejection_burst",
    "drain",
    "recovery",
    "accept_stall",
];

/// Latency-path labels used on the per-tenant SLO histograms.
const LATENCY_PATHS: [&str; 5] = ["hit", "l2_hit", "computed", "coalesced", "rejected"];

/// L2 segment roll size in bytes.
const L2_SEGMENT_BYTES: u64 = 8 << 20;
/// Flight-recorder ring capacity (recent trace summaries held in memory
/// for `trace` lookups and anomaly dumps).
const FLIGHT_CAPACITY: usize = 256;
/// Fraction of requests allowed to miss the SLO; the burn-rate gauge is
/// `bad_fraction / SLO_ERROR_BUDGET` (1.0 = burning the budget exactly
/// as fast as allowed).
const SLO_ERROR_BUDGET: f64 = 0.01;

/// Service tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads draining the admission queue. `0` is permitted
    /// (admit but never serve) and exists for backpressure tests.
    pub workers: usize,
    /// Maximum queued (admitted, not yet dispatched) requests; beyond
    /// this, submissions are rejected with [`ServiceError::QueueFull`].
    pub queue_limit: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Entries per cache shard (total capacity = shards × this).
    pub cache_capacity_per_shard: usize,
    /// Default per-request deadline in milliseconds when the request
    /// does not carry one; `0` disables deadlines by default.
    pub default_deadline_ms: u64,
    /// Maximum queued requests per tenant; `0` disables the quota.
    /// A tenant at quota is rejected with a typed `quota_exceeded`
    /// even when the shared queue has room.
    pub tenant_quota: usize,
    /// Directory for the crash-durable L2 mapping store; `None`
    /// disables the disk tier entirely.
    pub l2_dir: Option<PathBuf>,
    /// L2 entry time-to-live in seconds; `0` disables expiry.
    pub l2_ttl_secs: u64,
    /// How long a graceful [`MapService::shutdown`] waits for queued
    /// work to finish before deadline-rejecting the remainder.
    pub drain_limit_ms: u64,
    /// Per-request tracing. When `false` (the default) no trace context
    /// is allocated, responses are byte-identical to an untraced build,
    /// and the instrumented paths cost one branch each.
    pub tracing: bool,
    /// Traced requests slower than this trigger a `slow_request` flight
    /// dump; `0` disables the trigger.
    pub slow_trace_ms: u64,
    /// Directory flight-recorder dumps are written into.
    pub flight_dir: PathBuf,
    /// Per-tenant SLO latency objective in milliseconds: requests over
    /// it (or rejected) count against the tenant's error budget.
    pub slo_latency_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_limit: 64,
            cache_shards: 8,
            cache_capacity_per_shard: 128,
            default_deadline_ms: 10_000,
            tenant_quota: 0,
            l2_dir: None,
            l2_ttl_secs: 86_400,
            drain_limit_ms: 5_000,
            tracing: false,
            slow_trace_ms: 1_000,
            flight_dir: PathBuf::from("reports"),
            slo_latency_ms: 250,
        }
    }
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// L1 mapping-cache hits (submit fast path + worker in-flight hits).
    pub hits: u64,
    /// Mapping-cache misses (requests that ran the pipeline).
    pub misses: u64,
    /// Requests that attached to an already in-flight computation of
    /// the same fingerprint instead of queueing their own.
    pub coalesced: u64,
    /// Disk-tier (L2) hits served without running the pipeline.
    pub l2_hits: u64,
    /// L2 entries promoted into the in-memory L1 on a hit.
    pub l2_promotions: u64,
    /// Requests rejected with [`ServiceError::QueueFull`].
    pub queue_full: u64,
    /// Requests rejected with [`ServiceError::QuotaExceeded`].
    pub quota_exceeded: u64,
    /// Requests rejected with [`ServiceError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Current mapping-cache entry count.
    pub cache_entries: u64,
    /// Current admission-queue depth.
    pub queue_depth: u64,
    /// Duration of the last graceful drain in seconds (`0` before one).
    pub drain_seconds: f64,
}

impl ServiceStats {
    /// Cache hit rate in `[0, 1]` over both tiers (`0` before any
    /// lookup). Coalesced waits count as neither hit nor miss: exactly
    /// one of the coalesced callers records the underlying outcome.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.l2_hits;
        let total = served + self.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }

    /// JSON body for the `stats` protocol op.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("hits", Json::UInt(self.hits)),
            ("misses", Json::UInt(self.misses)),
            ("coalesced", Json::UInt(self.coalesced)),
            ("l2_hits", Json::UInt(self.l2_hits)),
            ("l2_promotions", Json::UInt(self.l2_promotions)),
            ("queue_full", Json::UInt(self.queue_full)),
            ("quota_exceeded", Json::UInt(self.quota_exceeded)),
            ("deadline_exceeded", Json::UInt(self.deadline_exceeded)),
            ("cache_entries", Json::UInt(self.cache_entries)),
            ("queue_depth", Json::UInt(self.queue_depth)),
            ("drain_seconds", Json::Float(self.drain_seconds)),
            ("hit_rate", Json::Float(self.hit_rate())),
        ])
    }
}

/// An L1 entry: the mapping plus the platform/version scope fingerprint
/// it was computed under, so [`MapService::invalidate_scope`] can sweep
/// every mapping for a retired platform in one call.
#[derive(Clone)]
struct CachedEntry {
    scope: Fingerprint,
    mapping: Arc<MappedProgram>,
}

/// A request trace captured through `submit` but still missing its
/// final stage: response serialization happens in the caller (the TCP
/// front end), which times it and hands the duration to
/// [`MapService::finalize_trace`] — closing the chicken-and-egg between
/// "the trace rides in the response" and "serializing the response is
/// itself a traced stage".
#[derive(Debug, Clone)]
pub struct PendingTrace {
    record: TraceRecord,
    started: Instant,
    ingress_us: u64,
}

impl PendingTrace {
    /// Offset of `t0` from the (ingress-adjusted) request arrival.
    fn offset(&self, t0: Instant) -> u64 {
        self.ingress_us + t0.saturating_duration_since(self.started).as_micros() as u64
    }

    /// Records a stage that began at `t0` and ends now.
    fn stage(&mut self, name: &str, t0: Instant) {
        let off = self.offset(t0);
        self.record
            .push_stage(name, off, t0.elapsed().as_micros() as u64);
    }

    /// The deterministic trace id, in wire (hex) form.
    pub fn trace_id(&self) -> String {
        self.record.trace_id.to_hex()
    }
}

/// Worker-side timing for one queued job, returned over the reply
/// channel so the submitting thread can attribute queue wait and
/// compute time in its trace.
struct WorkerTrace {
    queue_wait_us: u64,
    compute_us: u64,
    profile: Option<Json>,
}

type JobReply = Result<(Arc<MappedProgram>, bool, Option<WorkerTrace>), ServiceError>;

struct Job {
    fp: Fingerprint,
    scope: Fingerprint,
    req: MapRequest,
    deadline: Option<Instant>,
    budget_ms: u64,
    /// Push timestamp, set only for traced requests: the worker
    /// measures queue wait from it.
    enqueued: Option<Instant>,
    reply: mpsc::SyncSender<JobReply>,
}

struct Inner {
    cfg: ServiceConfig,
    queue: Mutex<FairQueue<Job>>,
    available: Condvar,
    /// Signalled by the last worker to see the queue empty while
    /// draining; [`MapService::shutdown`] waits on it.
    drained: Condvar,
    cache: ShardedLru<Fingerprint, CachedEntry>,
    coalesce: CoalesceMap<Fingerprint, Arc<MappedProgram>, ServiceError>,
    l2: Option<Mutex<L2Store>>,
    metrics: Mutex<Registry>,
    /// Hard stop: workers exit even with queued work (kill / post-drain).
    stopping: AtomicBool,
    /// Soft stop: submissions rejected, workers finish the queue.
    draining: AtomicBool,
    /// Bit pattern of the last drain duration (f64), since the metric
    /// registry has no gauge read-back.
    drain_seconds_bits: AtomicU64,
    /// Admission sequence for deterministic trace ids.
    trace_seq: AtomicU64,
    /// Ring of recent trace summaries; `Some` iff tracing is enabled.
    flight: Option<FlightRecorder>,
    /// Per-tenant SLO accounting: tenant → (bad requests, total).
    slo: Mutex<BTreeMap<String, (u64, u64)>>,
}

/// Seconds since the Unix epoch, for L2 TTL bookkeeping.
fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The in-process mapping service: worker pool, fair admission queue
/// and two-tier fingerprint-keyed mapping cache. Cheap to share behind
/// an [`Arc`]; dropped services shut their workers down.
pub struct MapService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl MapService {
    /// Starts the worker pool (and, when configured, opens or recovers
    /// the L2 store) and returns the running service.
    ///
    /// An L2 directory that fails to open is a startup panic: a service
    /// silently running without its durable tier would violate the
    /// warm-restart contract.
    pub fn start(cfg: ServiceConfig) -> Self {
        let l2 = cfg.l2_dir.clone().map(|dir| {
            let l2cfg = L2Config {
                dir,
                ttl_secs: cfg.l2_ttl_secs,
                segment_bytes: L2_SEGMENT_BYTES,
            };
            Mutex::new(L2Store::open(l2cfg, unix_now()).expect("open L2 mapping store"))
        });
        let inner = Arc::new(Inner {
            queue: Mutex::new(FairQueue::new(cfg.queue_limit, cfg.tenant_quota)),
            available: Condvar::new(),
            drained: Condvar::new(),
            cache: ShardedLru::new(cfg.cache_shards.max(1), cfg.cache_capacity_per_shard.max(1)),
            coalesce: CoalesceMap::new(),
            l2,
            metrics: Mutex::new(Registry::new()),
            stopping: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            drain_seconds_bits: AtomicU64::new(0f64.to_bits()),
            trace_seq: AtomicU64::new(0),
            flight: cfg.tracing.then(|| FlightRecorder::new(FLIGHT_CAPACITY)),
            slo: Mutex::new(BTreeMap::new()),
            cfg,
        });
        inner.preregister_metrics();
        // Crash-recovery anomaly: a restart that had to truncate a torn
        // L2 tail (or replay segments) is itself a flight-worthy event —
        // dump the (empty) ring with the recovery stats attached so the
        // incident is on disk before the first request lands.
        if inner.flight.is_some() {
            if let Some(l2) = &inner.l2 {
                let rs = l2.lock().expect("l2 poisoned").recovery_stats();
                if rs.segments_truncated > 0 || rs.bytes_truncated > 0 {
                    inner.flight_dump(
                        "recovery",
                        vec![
                            ("records_replayed", Json::UInt(rs.records_replayed)),
                            ("segments_truncated", Json::UInt(rs.segments_truncated)),
                            ("bytes_truncated", Json::UInt(rs.bytes_truncated)),
                            ("entries_expired", Json::UInt(rs.entries_expired)),
                        ],
                    );
                }
            }
        }
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("map-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn mapping worker")
            })
            .collect();
        MapService {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }

    /// Submits one mapping request and blocks until it is served,
    /// rejected, or its deadline expires.
    ///
    /// Lookup order: L1 (O(hash + shard lookup), no queueing) → L2
    /// (one disk read + promotion to L1) → coalesce with any in-flight
    /// computation of the same fingerprint → admit to the fair
    /// queue (or reject typed) and compute on the worker pool.
    pub fn submit(&self, req: MapRequest) -> Result<MapResponse, ServiceError> {
        self.inner.submit(req, 0)
    }

    /// [`MapService::submit`] with the front end's ingress (read +
    /// parse) duration, so the trace timeline starts at the wire rather
    /// than at admission. With tracing disabled this is `submit`.
    pub fn submit_traced(
        &self,
        req: MapRequest,
        ingress_us: u64,
    ) -> Result<MapResponse, ServiceError> {
        self.inner.submit(req, ingress_us)
    }

    /// Closes a [`PendingTrace`] taken off a [`MapResponse`]: appends
    /// the `serialize` stage (measured by the caller), observes the
    /// per-stage latency metrics, records the trace into the flight
    /// recorder, fires any anomaly triggers, and returns the trace
    /// JSON for the wire.
    // Takes the box because that is what callers hold: the trace rides
    // `MapResponse` boxed so untraced responses stay pointer-sized.
    #[allow(clippy::boxed_local)]
    pub fn finalize_trace(&self, pending: Box<PendingTrace>, serialize: Duration) -> Json {
        self.inner.finalize_trace(*pending, serialize)
    }

    /// Looks a recent trace up in the flight recorder by hex id
    /// (`"last"` returns the most recent). `None` when tracing is off
    /// or the id fell out of the ring.
    pub fn trace_lookup(&self, trace_id: &str) -> Option<Json> {
        let fl = self.inner.flight.as_ref()?;
        if trace_id == "last" {
            fl.last()
        } else {
            fl.find(trace_id)
        }
    }

    /// Renders the metric registry in Prometheus text format, with the
    /// queue-depth and cache-entries gauges refreshed first.
    pub fn metrics_text(&self) -> String {
        self.inner.refresh_gauges();
        self.inner
            .metrics
            .lock()
            .expect("metrics poisoned")
            .to_prometheus()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// Drops one fingerprint from both cache tiers (durably in L2: a
    /// tombstone record survives restart).
    pub fn invalidate_fingerprint(&self, fp: Fingerprint) -> std::io::Result<()> {
        self.inner.cache.remove(&fp);
        if let Some(l2) = &self.inner.l2 {
            l2.lock().expect("l2 poisoned").invalidate(fp, unix_now())?;
        }
        Ok(())
    }

    /// Drops every cached mapping computed under `(platform, version)`
    /// — e.g. after a platform is reconfigured — from both tiers, with
    /// one durable scope tombstone in L2.
    pub fn invalidate_scope(&self, scope: Fingerprint) -> std::io::Result<()> {
        self.inner.cache.retain(|_, e| e.scope != scope);
        if let Some(l2) = &self.inner.l2 {
            l2.lock()
                .expect("l2 poisoned")
                .invalidate_scope(scope, unix_now())?;
        }
        Ok(())
    }

    /// The scope fingerprint for [`MapService::invalidate_scope`]: the
    /// canonical content fingerprint of `(platform, version)`.
    pub fn scope_fingerprint(
        platform: &cachemap_storage::PlatformConfig,
        version: cachemap_core::Version,
    ) -> Fingerprint {
        fingerprint_json(&Json::object(vec![
            ("platform", platform.to_json()),
            ("version", version.to_json()),
        ]))
    }

    /// Number of live entries in the durable L2 index (`None` when the
    /// disk tier is disabled) — recovery visibility for harnesses.
    pub fn l2_entries(&self) -> Option<usize> {
        self.inner
            .l2
            .as_ref()
            .map(|l2| l2.lock().expect("l2 poisoned").len())
    }

    /// Records a transport-level rejection by the TCP front end — a
    /// connection refused at the cap (`"conn_limit"`) or one that sat
    /// idle past the read timeout (`"read_timeout"`) — so `/metrics`
    /// shows drops that never became requests next to request outcomes.
    pub fn count_front_end_rejection(&self, reason: &str) {
        let mut m = self.inner.metrics.lock().expect("metrics poisoned");
        m.counter_add(
            "cachemap_service_front_end_rejections_total",
            "Connections rejected by the TCP front end",
            &[("reason", reason)],
            1,
        );
    }

    /// The current value of the front-end rejection counter for `reason`
    /// (`0` before any rejection).
    pub fn front_end_rejections(&self, reason: &str) -> u64 {
        let m = self.inner.metrics.lock().expect("metrics poisoned");
        m.counter(
            "cachemap_service_front_end_rejections_total",
            &[("reason", reason)],
        )
        .unwrap_or(0)
    }

    /// Gracefully drains and stops the service. Idempotent. In order:
    ///
    /// 1. new submissions are rejected with a typed `shutdown` error;
    /// 2. workers finish the queued backlog, up to `drain_limit_ms`;
    /// 3. anything still queued is answered typed (`deadline_exceeded`
    ///    if its deadline passed while queued, `shutdown` otherwise) —
    ///    never silently dropped;
    /// 4. workers are joined, dirty L2 segments are flushed and sealed;
    /// 5. the drain duration lands in `cachemap_service_drain_seconds`.
    pub fn shutdown(&self) {
        if self.inner.draining.swap(true, Ordering::SeqCst) {
            return; // already drained (or killed)
        }
        let start = Instant::now();
        self.inner.available.notify_all();

        // Let the workers finish the backlog, bounded by the drain
        // budget. With no workers there is nobody to wait for.
        if self.inner.cfg.workers > 0 {
            let limit = Duration::from_millis(self.inner.cfg.drain_limit_ms);
            let mut q = self.inner.queue.lock().expect("queue poisoned");
            while !q.is_empty() && start.elapsed() < limit {
                let left = limit.saturating_sub(start.elapsed());
                let (guard, _) = self
                    .inner
                    .drained
                    .wait_timeout(q, left)
                    .expect("queue poisoned");
                q = guard;
            }
        }

        // Hard stop: reject whatever the budget did not cover.
        self.inner.stopping.store(true, Ordering::SeqCst);
        let leftovers = {
            let mut q = self.inner.queue.lock().expect("queue poisoned");
            q.drain_all()
        };
        self.inner.available.notify_all();
        let now = Instant::now();
        for job in leftovers {
            let err = match job.deadline {
                Some(d) if now > d => ServiceError::DeadlineExceeded {
                    budget_ms: job.budget_ms,
                },
                _ => ServiceError::Shutdown,
            };
            self.inner.count_outcome(err.code());
            let _ = job.reply.try_send(Err(err));
        }
        self.join_workers();
        if let Some(l2) = &self.inner.l2 {
            let mut l2 = l2.lock().expect("l2 poisoned");
            let _ = l2.seal();
        }
        self.inner.record_drain(start.elapsed().as_secs_f64());
        // A drain is always flight-worthy: preserve the ring (what the
        // service was doing on its way out) next to the drain numbers.
        self.inner.flight_dump(
            "drain",
            vec![(
                "drain_seconds",
                Json::Float(f64::from_bits(
                    self.inner.drain_seconds_bits.load(Ordering::SeqCst),
                )),
            )],
        );
    }

    /// Simulates a crash for recovery testing: workers stop and queued
    /// work is rejected as on [`MapService::shutdown`], but the L2
    /// store is **not** flushed or sealed — exactly what a power cut
    /// after the last kernel write-back would leave on disk.
    pub fn kill(&self) {
        if self.inner.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.stopping.store(true, Ordering::SeqCst);
        let leftovers = {
            let mut q = self.inner.queue.lock().expect("queue poisoned");
            q.drain_all()
        };
        self.inner.available.notify_all();
        for job in leftovers {
            self.inner.count_outcome("shutdown");
            let _ = job.reply.try_send(Err(ServiceError::Shutdown));
        }
        self.join_workers();
    }

    fn join_workers(&self) {
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("workers poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for MapService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The tenant label for metrics: the request's tenant, or `anonymous`
/// for unlabelled (or empty-labelled) requests.
fn tenant_label(req: &MapRequest) -> &str {
    match req.tenant.as_deref() {
        Some(t) if !t.is_empty() => t,
        _ => "anonymous",
    }
}

impl Inner {
    fn submit(&self, req: MapRequest, ingress_us: u64) -> Result<MapResponse, ServiceError> {
        let start = Instant::now();
        if self.draining.load(Ordering::SeqCst) || self.stopping.load(Ordering::SeqCst) {
            self.count_outcome("shutdown");
            return Err(ServiceError::Shutdown);
        }
        req.platform
            .validate()
            .map_err(|e| self.reject_bad_request(format!("platform: {e}")))?;
        let fp = cachemap_core::fingerprint(&req.program, &req.platform, &req.mapper, req.version);
        let scope = MapService::scope_fingerprint(&req.platform, req.version);

        // Trace context: allocated only when tracing is on — the
        // disabled path costs this one branch. Validation and
        // fingerprinting ran since `start`, so they tile the timeline
        // as the `fingerprint` stage.
        let mut tctx: Option<PendingTrace> = if self.flight.is_some() {
            let seq = self.trace_seq.fetch_add(1, Ordering::SeqCst);
            let mut record = TraceRecord::new(
                TraceId::derive(fp.0, seq),
                seq,
                fp.to_hex(),
                tenant_label(&req).to_string(),
            );
            if ingress_us > 0 {
                record.push_stage("parse", 0, ingress_us);
            }
            record.push_stage(
                "fingerprint",
                ingress_us,
                start.elapsed().as_micros() as u64,
            );
            Some(PendingTrace {
                record,
                started: start,
                ingress_us,
            })
        } else {
            None
        };
        let tenant = tenant_label(&req).to_string();

        // L1: O(lookup) on the sharded cache, no queueing.
        let l1_t0 = tctx.as_ref().map(|_| Instant::now());
        let l1 = self.cache.get(&fp);
        if let (Some(t0), Some(t)) = (l1_t0, tctx.as_mut()) {
            t.stage("l1", t0);
        }
        if let Some(entry) = l1 {
            self.record_hit(&tenant, start);
            return Ok(self.respond(&req, fp, entry.mapping, true, start, tctx, "ok_cached"));
        }

        // L2: one disk read; a hit is promoted so the next lookup is L1.
        if let Some(mapping) = self.l2_lookup(&fp, scope, &mut tctx) {
            self.record_l2_hit(&tenant, start);
            return Ok(self.respond(&req, fp, mapping, true, start, tctx, "ok_l2"));
        }

        let budget_ms = req.deadline_ms.unwrap_or(self.cfg.default_deadline_ms);
        let deadline = if budget_ms == 0 && req.deadline_ms.is_some() {
            // An explicit zero budget is an already-expired deadline.
            self.count_outcome("deadline_exceeded");
            self.observe_latency("rejected", &tenant, start, true);
            self.finalize_rejected(tctx, "deadline_exceeded");
            return Err(ServiceError::DeadlineExceeded { budget_ms });
        } else if budget_ms == 0 {
            None
        } else {
            Some(start + Duration::from_millis(budget_ms))
        };

        // Coalesce: one computation per fingerprint, however many
        // concurrent callers miss on it. `inherited` marks followers,
        // whose responses report `cached: true` — they were served
        // without a pipeline run of their own. The rendezvous is a
        // trace stage tagged with this caller's role: the leader never
        // blocks here (its time goes to queue_wait/compute), followers
        // attribute their whole wait to the coalescing.
        let join_t0 = tctx.as_ref().map(|_| Instant::now());
        let (join, wait_ns) = self.coalesce.join_timed(fp, deadline);
        if let (Some(t0), Some(t)) = (join_t0, tctx.as_mut()) {
            let off = t.offset(t0);
            let role = if matches!(join, cachemap_util::coalesce::Join::Leader(_)) {
                "leader"
            } else {
                "follower"
            };
            t.record.push_tagged("coalesce", off, wait_ns / 1_000, role);
        }
        let (outcome, inherited) = match join {
            cachemap_util::coalesce::Join::Leader(leader) => {
                let outcome = self.queue_and_wait(fp, scope, &req, deadline, budget_ms, &mut tctx);
                leader.complete(outcome.clone());
                (outcome, false)
            }
            cachemap_util::coalesce::Join::Done(result) => {
                self.count_coalesced();
                (result, true)
            }
            cachemap_util::coalesce::Join::LeaderFailed => {
                self.count_coalesced();
                (
                    Err(ServiceError::Internal {
                        message: "coalesced computation failed without a result".into(),
                    }),
                    true,
                )
            }
            cachemap_util::coalesce::Join::TimedOut => {
                self.count_coalesced();
                (Err(ServiceError::DeadlineExceeded { budget_ms }), true)
            }
        };

        match outcome {
            Ok(mapping) => {
                let outcome_name = if inherited {
                    self.count_outcome("ok_coalesced");
                    self.observe_latency("coalesced", &tenant, start, false);
                    "ok_coalesced"
                } else {
                    self.count_outcome("ok_computed");
                    self.observe_latency("computed", &tenant, start, false);
                    "ok_computed"
                };
                Ok(self.respond(&req, fp, mapping, inherited, start, tctx, outcome_name))
            }
            Err(e) => {
                self.count_outcome(e.code());
                self.observe_latency("rejected", &tenant, start, true);
                self.finalize_rejected(tctx, e.code());
                Err(e)
            }
        }
    }

    fn count_coalesced(&self) {
        self.bump_counter(
            "cachemap_service_coalesced_total",
            "Requests coalesced onto an in-flight computation",
        );
    }

    /// The queue-admission + worker-wait leg of a cold miss (run only
    /// by the coalescing leader).
    fn queue_and_wait(
        &self,
        fp: Fingerprint,
        scope: Fingerprint,
        req: &MapRequest,
        deadline: Option<Instant>,
        budget_ms: u64,
        tctx: &mut Option<PendingTrace>,
    ) -> Result<Arc<MappedProgram>, ServiceError> {
        let tenant = req.tenant.clone().unwrap_or_default();
        let (tx, rx) = mpsc::sync_channel(1);
        let t_push = tctx.as_ref().map(|_| Instant::now());
        {
            let mut q = self.queue.lock().expect("queue poisoned");
            if self.draining.load(Ordering::SeqCst) || self.stopping.load(Ordering::SeqCst) {
                return Err(ServiceError::Shutdown);
            }
            let job = Job {
                fp,
                scope,
                req: req.clone(),
                deadline,
                budget_ms,
                enqueued: t_push,
                reply: tx,
            };
            q.push(&tenant, job).map_err(|e| match e {
                PushError::Full { depth, limit } => ServiceError::QueueFull { depth, limit },
                PushError::Quota { tenant, quota } => ServiceError::QuotaExceeded { tenant, quota },
            })?;
        }
        self.available.notify_one();

        // Wait for the worker (or the deadline, whichever first).
        let (mapping, _was_cached, wtrace) = match deadline {
            None => rx.recv().map_err(|_| ServiceError::Shutdown)?,
            Some(d) => {
                let budget = d.saturating_duration_since(Instant::now());
                match rx.recv_timeout(budget) {
                    Ok(res) => res,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        return Err(ServiceError::DeadlineExceeded { budget_ms })
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServiceError::Shutdown),
                }
            }
        }?;
        // Splice the worker-side measurements into this request's
        // timeline: queue wait from the push timestamp, then compute
        // (carrying the mapper's profile span tree as a child), then the
        // handoff from compute end until this thread resumed.
        if let (Some(t0), Some(t), Some(w)) = (t_push, tctx.as_mut(), wtrace) {
            let resumed = t.offset(Instant::now());
            let off = t.offset(t0);
            let computed = off + w.queue_wait_us + w.compute_us;
            t.record.push_stage("queue_wait", off, w.queue_wait_us);
            t.record
                .push_profiled("compute", off + w.queue_wait_us, w.compute_us, w.profile);
            t.record
                .push_stage("handoff", computed, resumed.saturating_sub(computed));
        }
        Ok(mapping)
    }

    /// Reads `fp` from the disk tier, re-hydrates the mapping, and
    /// promotes it into L1. Any L2 problem (disabled tier, expired or
    /// invalidated entry, checksum miss, parse failure) is a miss.
    fn l2_lookup(
        &self,
        fp: &Fingerprint,
        scope: Fingerprint,
        tctx: &mut Option<PendingTrace>,
    ) -> Option<Arc<MappedProgram>> {
        let l2 = self.l2.as_ref()?;
        // Traced path: `get_timed` reports the pure lookup cost (index
        // probe + disk read + checksum), recorded at the offset the leg
        // began — the mutex wait, if any, shows up as the gap.
        let bytes = if let Some(t) = tctx.as_mut() {
            let t0 = Instant::now();
            let (bytes, lookup_ns) = l2.lock().expect("l2 poisoned").get_timed(fp, unix_now());
            let off = t.offset(t0);
            t.record.push_stage("l2", off, lookup_ns / 1_000);
            bytes?
        } else {
            l2.lock().expect("l2 poisoned").get(fp, unix_now())?
        };
        let parse_t0 = tctx.as_ref().map(|_| Instant::now());
        let parsed = (|| {
            let text = std::str::from_utf8(&bytes).ok()?;
            let json = cachemap_util::json::parse(text).ok()?;
            Some(Arc::new(mapped_program_from_json(&json).ok()?))
        })();
        let mapping = match parsed {
            Some(m) => m,
            None => {
                if let (Some(t0), Some(t)) = (parse_t0, tctx.as_mut()) {
                    t.stage("l2_parse", t0);
                }
                return None;
            }
        };
        self.cache.insert(
            *fp,
            CachedEntry {
                scope,
                mapping: Arc::clone(&mapping),
            },
        );
        if let (Some(t0), Some(t)) = (parse_t0, tctx.as_mut()) {
            // Parse + promotion into L1, as one stage.
            t.stage("l2_parse", t0);
        }
        self.bump_counter(
            "cachemap_service_l2_promotions_total",
            "L2 entries promoted into the in-memory L1",
        );
        Some(mapping)
    }

    #[allow(clippy::too_many_arguments)]
    fn respond(
        &self,
        req: &MapRequest,
        fp: Fingerprint,
        mapping: Arc<MappedProgram>,
        cached: bool,
        start: Instant,
        tctx: Option<PendingTrace>,
        outcome: &str,
    ) -> MapResponse {
        let trace = tctx.map(|mut t| {
            t.record.outcome = outcome.to_string();
            t.record.cached = cached;
            Box::new(t)
        });
        MapResponse {
            id: req.id,
            cached,
            fingerprint: fp,
            mapping,
            service_us: start.elapsed().as_micros() as u64,
            trace,
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().expect("queue poisoned");
                loop {
                    if let Some(job) = q.pop() {
                        break job;
                    }
                    if self.stopping.load(Ordering::SeqCst) {
                        return;
                    }
                    if self.draining.load(Ordering::SeqCst) {
                        // Queue is empty and we are draining: the
                        // backlog is done, tell shutdown() so.
                        self.drained.notify_all();
                        return;
                    }
                    q = self.available.wait(q).expect("queue poisoned");
                }
            };

            // Late at dispatch: answer with the typed rejection rather
            // than burning a worker on a result nobody is waiting for.
            if let Some(d) = job.deadline {
                if Instant::now() > d {
                    let _ = job.reply.try_send(Err(ServiceError::DeadlineExceeded {
                        budget_ms: job.budget_ms,
                    }));
                    self.note_drain_progress();
                    continue;
                }
            }

            let queue_wait_us = job.enqueued.map(|t| t.elapsed().as_micros() as u64);

            // In-flight duplicate: another worker may have filled the
            // cache since admission.
            if let Some(entry) = self.cache.get(&job.fp) {
                self.bump_counter("cachemap_service_cache_hits_total", "Mapping cache hits");
                let wtrace = queue_wait_us.map(|q| WorkerTrace {
                    queue_wait_us: q,
                    compute_us: 0,
                    profile: None,
                });
                let _ = job.reply.try_send(Ok((entry.mapping, true, wtrace)));
                self.note_drain_progress();
                continue;
            }

            let computed_at = Instant::now();
            // Traced jobs run the pipeline with profiling enabled: the
            // span tree rides back as the compute stage's child. The
            // profile records wall-clock around the mapping, never into
            // it, so the mapping bytes are identical either way
            // (property-tested since the profiling PR).
            let mut prof = if queue_wait_us.is_some() {
                Profile::enabled()
            } else {
                Profile::disabled()
            };
            let result = self.compute(&job.req, &mut prof);
            let profile = prof.is_enabled().then(|| prof.to_json());
            let compute_us = computed_at.elapsed().as_micros() as u64;
            match result {
                Ok(mapping) => {
                    let mapping = Arc::new(mapping);
                    self.cache.insert(
                        job.fp,
                        CachedEntry {
                            scope: job.scope,
                            mapping: Arc::clone(&mapping),
                        },
                    );
                    self.l2_write(job.fp, job.scope, &mapping);
                    self.bump_counter(
                        "cachemap_service_cache_misses_total",
                        "Mapping cache misses (pipeline runs)",
                    );
                    {
                        let mut m = self.metrics.lock().expect("metrics poisoned");
                        m.histogram_observe(
                            "cachemap_service_map_compute_seconds",
                            "Cold mapping pipeline latency",
                            &LATENCY_BUCKETS,
                            &[],
                            computed_at.elapsed().as_secs_f64(),
                        );
                    }
                    let wtrace = queue_wait_us.map(|q| WorkerTrace {
                        queue_wait_us: q,
                        compute_us,
                        profile,
                    });
                    let _ = job.reply.try_send(Ok((mapping, false, wtrace)));
                }
                Err(e) => {
                    let _ = job.reply.try_send(Err(e));
                }
            }
            self.note_drain_progress();
        }
    }

    /// Wakes a draining `shutdown()` when the backlog empties.
    fn note_drain_progress(&self) {
        if self.draining.load(Ordering::SeqCst)
            && self.queue.lock().expect("queue poisoned").is_empty()
        {
            self.drained.notify_all();
        }
    }

    /// Appends a freshly computed mapping to the durable tier. Write
    /// errors are counted, not fatal: the mapping was already served
    /// and L1-cached; losing the disk copy only costs a warm restart.
    fn l2_write(&self, fp: Fingerprint, scope: Fingerprint, mapping: &MappedProgram) {
        let Some(l2) = &self.l2 else { return };
        let bytes = mapping.to_json().to_string_compact();
        let res = l2
            .lock()
            .expect("l2 poisoned")
            .put(fp, scope, bytes.as_bytes(), unix_now());
        if res.is_err() {
            self.bump_counter(
                "cachemap_service_l2_write_errors_total",
                "Failed appends to the L2 mapping store",
            );
        }
    }

    fn compute(&self, req: &MapRequest, prof: &mut Profile) -> Result<MappedProgram, ServiceError> {
        let tree =
            HierarchyTree::from_config(&req.platform).map_err(|e| ServiceError::BadRequest {
                message: format!("platform: {e}"),
            })?;
        let data = DataSpace::new(&req.program.arrays, req.platform.chunk_bytes);
        let mapper = cachemap_core::Mapper::new(req.mapper);
        Ok(mapper.map_profiled(&req.program, &data, &req.platform, &tree, req.version, prof))
    }

    fn reject_bad_request(&self, message: String) -> ServiceError {
        self.count_outcome("bad_request");
        ServiceError::BadRequest { message }
    }

    fn record_hit(&self, tenant: &str, start: Instant) {
        self.bump_counter("cachemap_service_cache_hits_total", "Mapping cache hits");
        self.count_outcome("ok_cached");
        self.observe_latency("hit", tenant, start, false);
    }

    fn record_l2_hit(&self, tenant: &str, start: Instant) {
        self.bump_counter(
            "cachemap_service_l2_hits_total",
            "Disk-tier (L2) mapping cache hits",
        );
        self.count_outcome("ok_l2");
        self.observe_latency("l2_hit", tenant, start, false);
    }

    fn record_drain(&self, seconds: f64) {
        self.drain_seconds_bits
            .store(seconds.to_bits(), Ordering::SeqCst);
        let mut m = self.metrics.lock().expect("metrics poisoned");
        m.gauge_set(
            "cachemap_service_drain_seconds",
            "Duration of the last graceful drain",
            &[],
            seconds,
        );
    }

    /// Registers the robustness, tracing, and SLO metric families at
    /// zero so the first scrape already carries the full schema.
    fn preregister_metrics(&self) {
        let mut m = self.metrics.lock().expect("metrics poisoned");
        // Per-tenant SLO families for the anonymous lane, across every
        // outcome path; named tenants appear with their first request.
        for path in LATENCY_PATHS {
            m.histogram_declare(
                "cachemap_service_tenant_latency_seconds",
                "Per-tenant end-to-end service latency by outcome path",
                &LATENCY_BUCKETS,
                &[("outcome", path), ("tenant", "anonymous")],
            );
        }
        m.gauge_set(
            "cachemap_service_slo_burn_rate",
            "Per-tenant SLO burn rate (bad-request fraction over error budget)",
            &[("tenant", "anonymous")],
            0.0,
        );
        // Tracing families, present whether or not tracing is enabled
        // so a scrape schema does not depend on the tracing knob.
        for stage in TRACE_STAGES {
            m.histogram_declare(
                "cachemap_service_stage_seconds",
                "Per-request time spent in each service-path stage",
                &LATENCY_BUCKETS,
                &[("stage", stage)],
            );
        }
        m.counter_add(
            "cachemap_service_traces_recorded_total",
            "Request traces recorded by the flight recorder",
            &[],
            0,
        );
        for trigger in FLIGHT_TRIGGERS {
            m.counter_add(
                "cachemap_service_flight_dumps_total",
                "Flight-recorder dumps by anomaly trigger",
                &[("trigger", trigger)],
                0,
            );
        }
        m.counter_add(
            "cachemap_service_coalesced_total",
            "Requests coalesced onto an in-flight computation",
            &[],
            0,
        );
        m.counter_add(
            "cachemap_service_l2_hits_total",
            "Disk-tier (L2) mapping cache hits",
            &[],
            0,
        );
        m.counter_add(
            "cachemap_service_l2_promotions_total",
            "L2 entries promoted into the in-memory L1",
            &[],
            0,
        );
        m.gauge_set(
            "cachemap_service_drain_seconds",
            "Duration of the last graceful drain",
            &[],
            0.0,
        );
    }

    fn bump_counter(&self, name: &str, help: &str) {
        let mut m = self.metrics.lock().expect("metrics poisoned");
        m.counter_add(name, help, &[], 1);
    }

    fn count_outcome(&self, outcome: &str) {
        let mut m = self.metrics.lock().expect("metrics poisoned");
        m.counter_add(
            "cachemap_service_requests_total",
            "Mapping requests by outcome",
            &[("op", "map"), ("outcome", outcome)],
            1,
        );
    }

    /// Observes one finished request's latency on the shared per-path
    /// histogram, the per-tenant SLO histogram, and the tenant's
    /// burn-rate gauge. A request is "bad" for SLO purposes when it was
    /// rejected or ran past `slo_latency_ms`.
    fn observe_latency(&self, path: &str, tenant: &str, start: Instant, rejected: bool) {
        let secs = start.elapsed().as_secs_f64();
        let bad = rejected || secs > self.cfg.slo_latency_ms as f64 / 1_000.0;
        let burn = {
            let mut slo = self.slo.lock().expect("slo poisoned");
            let entry = slo.entry(tenant.to_string()).or_insert((0, 0));
            entry.1 += 1;
            if bad {
                entry.0 += 1;
            }
            (entry.0 as f64 / entry.1 as f64) / SLO_ERROR_BUDGET
        };
        let mut m = self.metrics.lock().expect("metrics poisoned");
        m.histogram_observe(
            "cachemap_service_request_latency_seconds",
            "End-to-end service latency by path",
            &LATENCY_BUCKETS,
            &[("path", path)],
            secs,
        );
        m.histogram_observe(
            "cachemap_service_tenant_latency_seconds",
            "Per-tenant end-to-end service latency by outcome path",
            &LATENCY_BUCKETS,
            &[("outcome", path), ("tenant", tenant)],
            secs,
        );
        m.gauge_set(
            "cachemap_service_slo_burn_rate",
            "Per-tenant SLO burn rate (bad-request fraction over error budget)",
            &[("tenant", tenant)],
            burn,
        );
    }

    /// Closes a trace: appends the `serialize` stage (its duration is
    /// measured by the caller, ending now), stamps the total, observes
    /// the per-stage metrics, records the trace into the flight ring,
    /// and fires the slow-request / rejection-burst triggers.
    fn finalize_trace(&self, mut p: PendingTrace, serialize: Duration) -> Json {
        let ser_us = serialize.as_micros() as u64;
        let now_off = p.offset(Instant::now());
        if ser_us > 0 {
            p.record
                .push_stage("serialize", now_off.saturating_sub(ser_us), ser_us);
        }
        p.record.total_us = now_off;
        self.commit_trace(p.record)
    }

    /// Closes a rejected request's trace internally (errors carry no
    /// response for the front end to finalize): no serialize stage, the
    /// total ends now. With tracing off (`tctx` None) this is a no-op.
    fn finalize_rejected(&self, tctx: Option<PendingTrace>, code: &str) {
        if let Some(mut p) = tctx {
            p.record.outcome = code.to_string();
            p.record.total_us = p.offset(Instant::now());
            self.commit_trace(p.record);
        }
    }

    /// Metrics + ring + anomaly triggers for one finished trace.
    fn commit_trace(&self, record: TraceRecord) -> Json {
        {
            let mut m = self.metrics.lock().expect("metrics poisoned");
            for s in &record.stages {
                m.histogram_observe(
                    "cachemap_service_stage_seconds",
                    "Per-request time spent in each service-path stage",
                    &LATENCY_BUCKETS,
                    &[("stage", s.name.as_str())],
                    s.dur_us as f64 / 1e6,
                );
            }
            m.counter_add(
                "cachemap_service_traces_recorded_total",
                "Request traces recorded by the flight recorder",
                &[],
                1,
            );
        }
        let rejected = !record.outcome.starts_with("ok");
        let total_us = record.total_us;
        let json = record.to_json();
        if let Some(fl) = &self.flight {
            fl.record(json.clone(), rejected);
            if self.cfg.slow_trace_ms > 0 && total_us > self.cfg.slow_trace_ms.saturating_mul(1_000)
            {
                self.flight_dump(
                    "slow_request",
                    vec![("slow_total_us", Json::UInt(total_us))],
                );
            }
            if rejected && fl.rejection_burst(16, 8) {
                self.flight_dump("rejection_burst", Vec::new());
            }
        }
        json
    }

    /// Dumps the flight ring for `trigger` with queue context attached.
    /// Dump errors are counted, never fatal — losing a dump must not
    /// take a request down with it.
    fn flight_dump(&self, trigger: &str, mut extra: Vec<(&str, Json)>) {
        let Some(fl) = &self.flight else { return };
        let depths = {
            let q = self.queue.lock().expect("queue poisoned");
            (q.len(), q.depths())
        };
        extra.push(("queue_depth", Json::UInt(depths.0 as u64)));
        extra.push((
            "tenant_depths",
            Json::object(
                depths
                    .1
                    .iter()
                    .map(|(t, d)| (t.as_str(), Json::UInt(*d as u64)))
                    .collect(),
            ),
        ));
        let cooldown = FLIGHT_CAPACITY as u64 / 2;
        match fl.dump(&self.cfg.flight_dir, trigger, cooldown, extra) {
            Ok(Some(_)) => {
                let mut m = self.metrics.lock().expect("metrics poisoned");
                m.counter_add(
                    "cachemap_service_flight_dumps_total",
                    "Flight-recorder dumps by anomaly trigger",
                    &[("trigger", trigger)],
                    1,
                );
            }
            Ok(None) => {} // within the trigger's cooldown window
            Err(_) => {
                let mut m = self.metrics.lock().expect("metrics poisoned");
                m.counter_add(
                    "cachemap_service_flight_dump_errors_total",
                    "Flight-recorder dumps that failed to write",
                    &[("trigger", trigger)],
                    1,
                );
            }
        }
    }

    fn refresh_gauges(&self) {
        let depth = self.queue.lock().expect("queue poisoned").len();
        let entries = self.cache.len();
        let mut m = self.metrics.lock().expect("metrics poisoned");
        m.gauge_set(
            "cachemap_service_queue_depth",
            "Current admission-queue depth",
            &[],
            depth as f64,
        );
        m.gauge_set(
            "cachemap_service_cache_entries",
            "Current mapping-cache entry count",
            &[],
            entries as f64,
        );
    }

    fn stats(&self) -> ServiceStats {
        let m = self.metrics.lock().expect("metrics poisoned");
        let outcome = |o: &str| {
            m.counter(
                "cachemap_service_requests_total",
                &[("op", "map"), ("outcome", o)],
            )
            .unwrap_or(0)
        };
        let plain = |name: &str| m.counter(name, &[]).unwrap_or(0);
        ServiceStats {
            hits: plain("cachemap_service_cache_hits_total"),
            misses: plain("cachemap_service_cache_misses_total"),
            coalesced: plain("cachemap_service_coalesced_total"),
            l2_hits: plain("cachemap_service_l2_hits_total"),
            l2_promotions: plain("cachemap_service_l2_promotions_total"),
            queue_full: outcome("queue_full"),
            quota_exceeded: outcome("quota_exceeded"),
            deadline_exceeded: outcome("deadline_exceeded"),
            cache_entries: self.cache.len() as u64,
            queue_depth: self.queue.lock().expect("queue poisoned").len() as u64,
            drain_seconds: f64::from_bits(self.drain_seconds_bits.load(Ordering::SeqCst)),
        }
    }
}
