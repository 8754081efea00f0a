//! # cachemap-service — mapping as a service.
//!
//! The HPDC'10 pipeline computes one mapping per loop nest; the
//! production system this workspace grows toward must answer *repeated*
//! mapping queries from many clients in microseconds. This crate turns
//! the mapper into a long-lived, concurrent, cache-fronted service:
//!
//! * [`MapService`] — the in-process engine: a two-tier mapping cache
//!   keyed by the canonical content fingerprint of `(program, platform,
//!   params, version)` — a sharded in-memory LRU (L1) over an optional
//!   crash-durable disk store (L2, see `cachemap_storage::L2Store`) —
//!   with per-request deadlines and typed [`ServiceError`] rejections.
//!   Concurrent misses on one fingerprint are **coalesced** (see
//!   `cachemap_util::CoalesceMap`): the first caller leads and runs the
//!   pipeline on its own thread, everyone else inherits its result. The
//!   service starts no threads of its own, so its callers bound how
//!   many mappings run at once. Because the pipeline is deterministic,
//!   a cache hit at either tier returns a mapping byte-identical to a
//!   cold run — memoization is semantically invisible (property-tested
//!   in `tests/service.rs`).
//! * [`aserver::AsyncServer`] — the TCP front end: JSON-lines
//!   request/response (see [`proto`]) plus a plain-HTTP `GET /metrics`
//!   Prometheus endpoint on the same port, backed by an
//!   `obs::Registry`. One `cachemap-aio` event-loop thread owns every
//!   socket and hands each poll cycle's decoded frames to a small
//!   dispatcher pool, which takes them one at a time; [`dispatch`]
//!   turns each line into its reply bytes. A dispatcher that leads a
//!   miss computes it, so the pool's size is the service's concurrency.
//!
//! When [`ServiceConfig::tracing`] is on, every request additionally
//! carries a deterministic per-request trace — stage-by-stage latency
//! attribution from wire parse to response serialization, with the
//! mapper's `Profile` span tree linked under the compute stage — and a
//! bounded flight recorder keeps the most recent traces in memory,
//! dumping them to `flight-*.json` on anomalies (slow request,
//! rejection burst, drain, crash recovery). Tracing is free when off:
//! responses are byte-identical (`tests/trace.rs`) and the instrumented
//! paths cost one branch each.
//!
//! Shutdown is a **graceful drain**: new submissions are rejected with
//! a typed `shutdown` error, in-flight computations get up to
//! `drain_limit_ms` to finish, then the L2 store is sealed.
//! [`MapService::kill`] simulates a crash (admission stops, nothing is
//! sealed) for recovery testing.
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

pub use error::ServiceError;
pub use proto::{MapRequest, MapResponse, Request};

use cachemap_obs::{FlightRecorder, Profile, Registry, TraceId, TraceRecord};
use cachemap_polyhedral::DataSpace;
use cachemap_storage::wire::mapped_program_from_json;
use cachemap_storage::{HierarchyTree, L2Config, L2Store, MappedProgram};
use cachemap_util::coalesce::Join;
use cachemap_util::{fingerprint_json, CoalesceMap, Fingerprint, Json, ShardedLru, ToJson};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Latency histogram bucket bounds, in seconds.
const LATENCY_BUCKETS: [f64; 14] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// Stage names of the request-trace taxonomy, in service-path order.
/// `parse` only appears when the front end reports an ingress duration;
/// `compute` is a coalescing leader's miss (the mapping, the L1 and L2
/// fills, and waking the followers); `serialize` runs from the end of
/// the last service stage until the trace is closed (outcome metrics,
/// and for a served request the response assembly and serialization).
pub const TRACE_STAGES: [&str; 8] = [
    "parse",
    "fingerprint",
    "l1",
    "l2",
    "l2_parse",
    "coalesce",
    "compute",
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

/// L2 segment roll size in bytes.
const L2_SEGMENT_BYTES: u64 = 8 << 20;
/// Flight-recorder ring capacity (recent trace summaries held in memory
/// for `trace` lookups and anomaly dumps).
const FLIGHT_CAPACITY: usize = 256;

/// Service tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Entries per cache shard (total capacity = shards × this).
    pub cache_capacity_per_shard: usize,
    /// Default per-request deadline in milliseconds when the request
    /// does not carry one; `0` disables deadlines by default.
    pub default_deadline_ms: u64,
    /// Directory for the crash-durable L2 mapping store; `None`
    /// disables the disk tier entirely.
    pub l2_dir: Option<PathBuf>,
    /// L2 entry time-to-live in seconds; `0` disables expiry.
    pub l2_ttl_secs: u64,
    /// How long a graceful [`MapService::shutdown`] waits for in-flight
    /// computations to finish before it seals the L2 store.
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
    /// Reply-latency objective in milliseconds. The service reads it
    /// nowhere; perfbench's `serve-churn` counts only replies within it
    /// towards throughput.
    pub slo_latency_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_shards: 8,
            cache_capacity_per_shard: 128,
            default_deadline_ms: 10_000,
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
    /// L1 mapping-cache hits (the lookup, or a coalescing leader's
    /// re-check after it joined).
    pub hits: u64,
    /// Mapping-cache misses (requests that ran the pipeline).
    pub misses: u64,
    /// Requests that attached to an already in-flight computation of
    /// the same fingerprint instead of running their own.
    pub coalesced: u64,
    /// Disk-tier (L2) hits served without running the pipeline.
    pub l2_hits: u64,
    /// L2 entries promoted into the in-memory L1 on a hit.
    pub l2_promotions: u64,
    /// Always `0`: the service has no admission queue to fill. Not part
    /// of the `stats` reply; kept because perfbench's `serve-churn` sums
    /// it into its rejection count.
    pub queue_full: u64,
    /// Always `0`: the service has no per-tenant quota. Not part of the
    /// `stats` reply; kept because perfbench's `serve-churn` sums it
    /// into its rejection count.
    pub quota_exceeded: u64,
    /// Requests rejected with [`ServiceError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Current mapping-cache entry count.
    pub cache_entries: u64,
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
            ("deadline_exceeded", Json::UInt(self.deadline_exceeded)),
            ("cache_entries", Json::UInt(self.cache_entries)),
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
/// front end), which calls [`MapService::finalize_trace`] once the
/// response bytes are built, and the `serialize` stage runs up to that
/// call — closing the chicken-and-egg between "the trace rides in the
/// response" and "serializing the response is itself a traced stage".
///
/// The stages tile the request: each starts where the previous one
/// ended (`cursor`), so work between two stages (a metric update, a
/// lock wait, a deschedule) always lands in one.
#[derive(Debug, Clone)]
pub struct PendingTrace {
    record: TraceRecord,
    started: Instant,
    ingress_us: u64,
    /// When the last stage ended: the next stage starts here.
    cursor: Instant,
}

impl PendingTrace {
    /// Offset of `t` from the (ingress-adjusted) request arrival.
    fn offset(&self, t: Instant) -> u64 {
        self.ingress_us + t.saturating_duration_since(self.started).as_micros() as u64
    }

    /// Ends the current stage now: returns its `(offset, duration)` and
    /// moves the cursor here.
    fn close(&mut self) -> (u64, u64) {
        let now = Instant::now();
        let (from, to) = (self.offset(self.cursor), self.offset(now));
        self.cursor = now;
        (from, to.saturating_sub(from))
    }

    /// Records a stage that runs from the cursor to now.
    fn stage(&mut self, name: &str) {
        let (off, dur) = self.close();
        self.record.push_stage(name, off, dur);
    }

    /// Appends the closing `serialize` stage, from the cursor to now,
    /// and stamps the total at the same clock read.
    fn finish(mut self) -> TraceRecord {
        let (off, dur) = self.close();
        self.record.push_stage("serialize", off, dur);
        self.record.total_us = off + dur;
        self.record
    }

    /// The deterministic trace id, in wire (hex) form.
    pub fn trace_id(&self) -> String {
        self.record.trace_id.to_hex()
    }
}

/// Seconds since the Unix epoch, for L2 TTL bookkeeping.
fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The tenant label for the request's trace: the request's tenant, or
/// `anonymous` for unlabelled (or empty-labelled) requests.
fn tenant_label(req: &MapRequest) -> &str {
    match req.tenant.as_deref() {
        Some(t) if !t.is_empty() => t,
        _ => "anonymous",
    }
}

/// The in-process mapping service: the two-tier fingerprint-keyed
/// mapping cache with the coalescer in front of the pipeline. It starts
/// no threads: the caller that leads a miss computes it. Cheap to share
/// behind an [`Arc`]; a dropped service drains.
pub struct MapService {
    cfg: ServiceConfig,
    cache: ShardedLru<Fingerprint, CachedEntry>,
    coalesce: CoalesceMap<Fingerprint, Arc<MappedProgram>, ServiceError>,
    /// The durable tier, `None` when disabled. [`MapService::shutdown`]
    /// seals the store and takes it out, so a leader that outlives the
    /// drain appends nothing.
    l2: Option<Mutex<Option<L2Store>>>,
    metrics: Mutex<Registry>,
    /// Set by `shutdown` or `kill`: submissions are rejected.
    draining: AtomicBool,
    /// Bit pattern of the last drain duration (f64), since the metric
    /// registry has no gauge read-back.
    drain_seconds_bits: AtomicU64,
    /// Admission sequence for deterministic trace ids.
    trace_seq: AtomicU64,
    /// Ring of recent trace summaries; `Some` iff tracing is enabled.
    flight: Option<FlightRecorder>,
}

impl MapService {
    /// Opens or recovers the L2 store when one is configured and
    /// returns the running service.
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
            L2Store::open(l2cfg, unix_now()).expect("open L2 mapping store")
        });
        let recovery = l2.as_ref().map(L2Store::recovery_stats);
        let service = MapService {
            cache: ShardedLru::new(cfg.cache_shards.max(1), cfg.cache_capacity_per_shard.max(1)),
            coalesce: CoalesceMap::new(),
            l2: l2.map(|store| Mutex::new(Some(store))),
            metrics: Mutex::new(Registry::new()),
            draining: AtomicBool::new(false),
            drain_seconds_bits: AtomicU64::new(0f64.to_bits()),
            trace_seq: AtomicU64::new(0),
            flight: cfg.tracing.then(|| FlightRecorder::new(FLIGHT_CAPACITY)),
            cfg,
        };
        service.preregister_metrics();
        // Crash-recovery anomaly: a restart that had to truncate a torn
        // L2 tail is itself a flight-worthy event — dump the (empty)
        // ring with the recovery stats attached so the incident is on
        // disk before the first request lands.
        if let Some(rs) = recovery.filter(|rs| rs.segments_truncated > 0 || rs.bytes_truncated > 0)
        {
            service.flight_dump(
                "recovery",
                vec![
                    ("records_replayed", Json::UInt(rs.records_replayed)),
                    ("segments_truncated", Json::UInt(rs.segments_truncated)),
                    ("bytes_truncated", Json::UInt(rs.bytes_truncated)),
                    ("entries_expired", Json::UInt(rs.entries_expired)),
                ],
            );
        }
        service
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Submits one mapping request and returns once it is served or
    /// rejected.
    ///
    /// Lookup order: L1 (O(hash + shard lookup)) → L2 (one disk read +
    /// promotion to L1) → coalesce with any in-flight computation of
    /// the same fingerprint, or lead a new one and run the pipeline on
    /// this thread. A follower stops waiting at its deadline; a leader
    /// finishes its computation for its followers and the cache, then
    /// answers `deadline_exceeded` if it ran past its own.
    pub fn submit(&self, req: MapRequest) -> Result<MapResponse, ServiceError> {
        self.submit_traced(req, 0)
    }

    /// [`MapService::submit`] with the front end's ingress (read +
    /// parse) duration, so the trace timeline starts at the wire rather
    /// than at admission. With tracing disabled this is `submit`.
    pub fn submit_traced(
        &self,
        req: MapRequest,
        ingress_us: u64,
    ) -> Result<MapResponse, ServiceError> {
        let start = Instant::now();
        if self.draining.load(Ordering::SeqCst) {
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
        // fingerprinting ran since `start`, so they open the timeline
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
            let mut t = PendingTrace {
                record,
                started: start,
                ingress_us,
                cursor: start,
            };
            t.stage("fingerprint");
            Some(t)
        } else {
            None
        };

        // L1: O(lookup) on the sharded cache.
        let l1 = self.cache.get(&fp);
        if let Some(t) = tctx.as_mut() {
            t.stage("l1");
        }
        if let Some(entry) = l1 {
            self.record_hit(start);
            return Ok(self.respond(&req, fp, entry.mapping, true, start, tctx, "ok_cached"));
        }

        // L2: one disk read; a hit is promoted so the next lookup is L1.
        if let Some(mapping) = self.l2_lookup(&fp, scope, &mut tctx) {
            self.record_l2_hit(start);
            return Ok(self.respond(&req, fp, mapping, true, start, tctx, "ok_l2"));
        }

        let budget_ms = req.deadline_ms.unwrap_or(self.cfg.default_deadline_ms);
        let deadline = if budget_ms == 0 && req.deadline_ms.is_some() {
            // An explicit zero budget is an already-expired deadline.
            self.count_outcome("deadline_exceeded");
            self.observe_latency("rejected", start);
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
        // blocks here (its time goes to compute), followers attribute
        // their whole wait to the coalescing.
        let join = self.coalesce.join(fp, deadline);
        if let Some(t) = tctx.as_mut() {
            let role = if matches!(join, Join::Leader(_)) {
                "leader"
            } else {
                "follower"
            };
            let (off, dur) = t.close();
            t.record.push_tagged("coalesce", off, dur, role);
        }
        let (outcome, inherited) = match join {
            Join::Leader(leader) => {
                // A flight that settled between the L1 miss above and
                // this join left its mapping in L1: serve it as a hit
                // rather than computing it twice.
                if let Some(entry) = self.cache.get(&fp) {
                    leader.complete(Ok(Arc::clone(&entry.mapping)));
                    self.record_hit(start);
                    return Ok(self.respond(
                        &req,
                        fp,
                        entry.mapping,
                        true,
                        start,
                        tctx,
                        "ok_cached",
                    ));
                }
                let (outcome, profile) = self.compute(fp, scope, &req, tctx.is_some());
                leader.complete(outcome.clone());
                if let Some(t) = tctx.as_mut() {
                    let (off, dur) = t.close();
                    t.record.push_profiled("compute", off, dur, profile);
                }
                // A leader past its own deadline still answers
                // `deadline_exceeded`; its mapping is cached and went to
                // its followers all the same.
                match outcome {
                    Ok(_) if deadline.is_some_and(|d| Instant::now() > d) => {
                        (Err(ServiceError::DeadlineExceeded { budget_ms }), false)
                    }
                    outcome => (outcome, false),
                }
            }
            Join::Done(result) => {
                self.count_coalesced();
                (result, true)
            }
            Join::LeaderFailed => {
                self.count_coalesced();
                (
                    Err(ServiceError::Internal {
                        message: "coalesced computation failed without a result".into(),
                    }),
                    true,
                )
            }
            Join::TimedOut => {
                self.count_coalesced();
                (Err(ServiceError::DeadlineExceeded { budget_ms }), true)
            }
        };

        match outcome {
            Ok(mapping) => {
                let outcome_name = if inherited {
                    self.count_outcome("ok_coalesced");
                    self.observe_latency("coalesced", start);
                    "ok_coalesced"
                } else {
                    self.count_outcome("ok_computed");
                    self.observe_latency("computed", start);
                    "ok_computed"
                };
                Ok(self.respond(&req, fp, mapping, inherited, start, tctx, outcome_name))
            }
            Err(e) => {
                self.count_outcome(e.code());
                self.observe_latency("rejected", start);
                self.finalize_rejected(tctx, e.code());
                Err(e)
            }
        }
    }

    /// Closes a [`PendingTrace`] taken off a [`MapResponse`]: appends
    /// the `serialize` stage, which ends now, observes the per-stage
    /// latency metrics, records the trace into the flight recorder,
    /// fires any anomaly triggers, and returns the trace JSON for the
    /// wire. Call it once the response bytes are built.
    // Takes the box because that is what callers hold: the trace rides
    // `MapResponse` boxed so untraced responses stay pointer-sized.
    #[allow(clippy::boxed_local)]
    pub fn finalize_trace(&self, pending: Box<PendingTrace>) -> Json {
        self.commit_trace(pending.finish())
    }

    /// Looks a recent trace up in the flight recorder by hex id
    /// (`"last"` returns the most recent). `None` when tracing is off
    /// or the id fell out of the ring.
    pub fn trace_lookup(&self, trace_id: &str) -> Option<Json> {
        let fl = self.flight.as_ref()?;
        if trace_id == "last" {
            fl.last()
        } else {
            fl.find(trace_id)
        }
    }

    /// Renders the metric registry in Prometheus text format, with the
    /// cache-entries gauge refreshed first.
    pub fn metrics_text(&self) -> String {
        let entries = self.cache.len();
        let mut m = self.metrics.lock().expect("metrics poisoned");
        m.gauge_set(
            "cachemap_service_cache_entries",
            "Current mapping-cache entry count",
            &[],
            entries as f64,
        );
        m.to_prometheus()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
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
            queue_full: 0,
            quota_exceeded: 0,
            deadline_exceeded: outcome("deadline_exceeded"),
            cache_entries: self.cache.len() as u64,
            drain_seconds: f64::from_bits(self.drain_seconds_bits.load(Ordering::SeqCst)),
        }
    }

    /// Drops one fingerprint from both cache tiers (durably in L2: a
    /// tombstone record survives restart).
    pub fn invalidate_fingerprint(&self, fp: Fingerprint) -> std::io::Result<()> {
        self.cache.remove(&fp);
        if let Some(l2) = &self.l2 {
            if let Some(store) = l2.lock().expect("l2 poisoned").as_mut() {
                store.invalidate(fp, unix_now())?;
            }
        }
        Ok(())
    }

    /// Drops every cached mapping computed under `(platform, version)`
    /// — e.g. after a platform is reconfigured — from both tiers, with
    /// one durable scope tombstone in L2.
    pub fn invalidate_scope(&self, scope: Fingerprint) -> std::io::Result<()> {
        self.cache.retain(|_, e| e.scope != scope);
        if let Some(l2) = &self.l2 {
            if let Some(store) = l2.lock().expect("l2 poisoned").as_mut() {
                store.invalidate_scope(scope, unix_now())?;
            }
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
    /// disk tier is disabled, `0` once a drain has sealed it) — recovery
    /// visibility for harnesses.
    pub fn l2_entries(&self) -> Option<usize> {
        self.l2.as_ref().map(|l2| {
            l2.lock()
                .expect("l2 poisoned")
                .as_ref()
                .map_or(0, L2Store::len)
        })
    }

    /// Records a transport-level rejection by the TCP front end — a
    /// connection refused at the cap (`"conn_limit"`) or one that sat
    /// idle past the read timeout (`"read_timeout"`) — so `/metrics`
    /// shows drops that never became requests next to request outcomes.
    pub fn count_front_end_rejection(&self, reason: &str) {
        let mut m = self.metrics.lock().expect("metrics poisoned");
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
        let m = self.metrics.lock().expect("metrics poisoned");
        m.counter(
            "cachemap_service_front_end_rejections_total",
            &[("reason", reason)],
        )
        .unwrap_or(0)
    }

    /// Gracefully drains and stops the service. Idempotent. In order:
    ///
    /// 1. new submissions are rejected with a typed `shutdown` error;
    /// 2. in-flight computations get up to `drain_limit_ms` to finish
    ///    (each leader answers its own callers, so nothing is left over
    ///    to reject);
    /// 3. the L2 store is sealed and closed: a leader still computing
    ///    past the limit answers its callers but appends nothing;
    /// 4. the drain duration lands in `cachemap_service_drain_seconds`.
    pub fn shutdown(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return; // already drained (or killed)
        }
        let start = Instant::now();
        let limit = Duration::from_millis(self.cfg.drain_limit_ms);
        while self.coalesce.in_flight() > 0 && start.elapsed() < limit {
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Some(l2) = &self.l2 {
            if let Some(mut store) = l2.lock().expect("l2 poisoned").take() {
                let _ = store.seal();
            }
        }
        self.record_drain(start.elapsed().as_secs_f64());
        // A drain is always flight-worthy: preserve the ring (what the
        // service was doing on its way out) next to the drain numbers.
        self.flight_dump(
            "drain",
            vec![(
                "drain_seconds",
                Json::Float(f64::from_bits(
                    self.drain_seconds_bits.load(Ordering::SeqCst),
                )),
            )],
        );
    }

    /// Simulates a crash for recovery testing: submissions are rejected
    /// as after [`MapService::shutdown`], but nothing waits and the L2
    /// store is **not** sealed — exactly what a power cut after the
    /// last kernel write-back would leave on disk. Leaders already
    /// computing still answer their callers.
    pub fn kill(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn count_coalesced(&self) {
        self.bump_counter(
            "cachemap_service_coalesced_total",
            "Requests coalesced onto an in-flight computation",
        );
    }

    /// Reads `fp` from the disk tier, re-hydrates the mapping, and
    /// promotes it into L1. Any L2 problem (disabled or sealed tier,
    /// expired or invalidated entry, checksum miss, parse failure) is a
    /// miss.
    fn l2_lookup(
        &self,
        fp: &Fingerprint,
        scope: Fingerprint,
        tctx: &mut Option<PendingTrace>,
    ) -> Option<Arc<MappedProgram>> {
        let l2 = self.l2.as_ref()?;
        // The `l2` stage covers the mutex wait, index probe, disk read
        // and checksum.
        let bytes = l2
            .lock()
            .expect("l2 poisoned")
            .as_mut()
            .and_then(|store| store.get(fp, unix_now()));
        if let Some(t) = tctx.as_mut() {
            t.stage("l2");
        }
        let bytes = bytes?;
        let parsed = (|| {
            let text = std::str::from_utf8(&bytes).ok()?;
            let json = cachemap_util::json::parse(text).ok()?;
            Some(Arc::new(mapped_program_from_json(&json).ok()?))
        })();
        let mapping = match parsed {
            Some(m) => m,
            None => {
                if let Some(t) = tctx.as_mut() {
                    t.stage("l2_parse");
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
        if let Some(t) = tctx.as_mut() {
            // Parse + promotion into L1, as one stage.
            t.stage("l2_parse");
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

    /// Runs the pipeline for a miss this caller leads, then fills L1 and
    /// L2. A traced caller maps with profiling on and gets the mapper's
    /// span tree back for its `compute` stage; the profile records
    /// wall-clock around the mapping, never into it, so the mapping
    /// bytes are identical either way.
    fn compute(
        &self,
        fp: Fingerprint,
        scope: Fingerprint,
        req: &MapRequest,
        traced: bool,
    ) -> (Result<Arc<MappedProgram>, ServiceError>, Option<Json>) {
        let started = Instant::now();
        let mut prof = if traced {
            Profile::enabled()
        } else {
            Profile::disabled()
        };
        let tree =
            HierarchyTree::from_config(&req.platform).map_err(|e| ServiceError::BadRequest {
                message: format!("platform: {e}"),
            });
        let result = tree.map(|tree| {
            let data = DataSpace::new(&req.program.arrays, req.platform.chunk_bytes);
            let mapper = cachemap_core::Mapper::new(req.mapper);
            let mapping = Arc::new(mapper.map_profiled(
                &req.program,
                &data,
                &req.platform,
                &tree,
                req.version,
                &mut prof,
            ));
            self.cache.insert(
                fp,
                CachedEntry {
                    scope,
                    mapping: Arc::clone(&mapping),
                },
            );
            self.l2_write(fp, scope, &mapping);
            self.bump_counter(
                "cachemap_service_cache_misses_total",
                "Mapping cache misses (pipeline runs)",
            );
            let mut m = self.metrics.lock().expect("metrics poisoned");
            m.histogram_observe(
                "cachemap_service_map_compute_seconds",
                "Cold mapping pipeline latency",
                &LATENCY_BUCKETS,
                &[],
                started.elapsed().as_secs_f64(),
            );
            mapping
        });
        (result, prof.is_enabled().then(|| prof.to_json()))
    }

    /// Appends a freshly computed mapping to the durable tier. Write
    /// errors are counted, not fatal: the mapping was already L1-cached;
    /// losing the disk copy only costs a warm restart.
    fn l2_write(&self, fp: Fingerprint, scope: Fingerprint, mapping: &MappedProgram) {
        let Some(l2) = &self.l2 else { return };
        let bytes = mapping.to_json().to_string_compact();
        let res = match l2.lock().expect("l2 poisoned").as_mut() {
            Some(store) => store.put(fp, scope, bytes.as_bytes(), unix_now()),
            None => return, // sealed by a drain
        };
        if res.is_err() {
            self.bump_counter(
                "cachemap_service_l2_write_errors_total",
                "Failed appends to the L2 mapping store",
            );
        }
    }

    fn reject_bad_request(&self, message: String) -> ServiceError {
        self.count_outcome("bad_request");
        ServiceError::BadRequest { message }
    }

    fn record_hit(&self, start: Instant) {
        self.bump_counter("cachemap_service_cache_hits_total", "Mapping cache hits");
        self.count_outcome("ok_cached");
        self.observe_latency("hit", start);
    }

    fn record_l2_hit(&self, start: Instant) {
        self.bump_counter(
            "cachemap_service_l2_hits_total",
            "Disk-tier (L2) mapping cache hits",
        );
        self.count_outcome("ok_l2");
        self.observe_latency("l2_hit", start);
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

    /// Registers the robustness and tracing metric families at zero so
    /// the first scrape already carries the full schema.
    fn preregister_metrics(&self) {
        let mut m = self.metrics.lock().expect("metrics poisoned");
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

    /// Observes one finished request's latency on the per-path
    /// histogram.
    fn observe_latency(&self, path: &str, start: Instant) {
        let mut m = self.metrics.lock().expect("metrics poisoned");
        m.histogram_observe(
            "cachemap_service_request_latency_seconds",
            "End-to-end service latency by path",
            &LATENCY_BUCKETS,
            &[("path", path)],
            start.elapsed().as_secs_f64(),
        );
    }

    /// Closes a rejected request's trace the way a served one closes
    /// (errors carry no response for the front end to finalize): the
    /// `serialize` stage runs from the last stage to the clock read
    /// that stamps the total, so the outcome bookkeeping lands in it.
    /// With tracing off (`tctx` None) this is a no-op.
    fn finalize_rejected(&self, tctx: Option<PendingTrace>, code: &str) {
        if let Some(mut p) = tctx {
            p.record.outcome = code.to_string();
            self.commit_trace(p.finish());
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

    /// Dumps the flight ring for `trigger` with the trigger's context
    /// attached. Dump errors are counted, never fatal — losing a dump
    /// must not take a request down with it.
    fn flight_dump(&self, trigger: &str, extra: Vec<(&str, Json)>) {
        let Some(fl) = &self.flight else { return };
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
}

impl Drop for MapService {
    fn drop(&mut self) {
        self.shutdown();
    }
}
