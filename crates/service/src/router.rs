//! A failure-hardened consistent-hash router over a `MapService` fleet.
//!
//! The [`Router`] owns N replicas behind the [`Backend`] trait —
//! in-process [`LocalBackend`] handles, TCP [`TcpBackend`] clients, or
//! fault-injected wrappers (see [`crate::netfault`]) — and places each
//! request on the replica owning its **content fingerprint** on an FNV
//! consistent-hash ring (`cachemap_util::HashRing`, 64 virtual nodes
//! per replica by default). Identical fleets route identically, and the
//! replica that already computed a mapping is the replica asked again —
//! the paper's cache-affinity idea lifted to the fleet tier.
//!
//! The robustness contract is **no untyped client-visible errors**:
//! whatever fails underneath — a killed replica, a refused connection,
//! a truncated reply — the caller receives either a mapping or a typed
//! [`ServiceError`]. Three mechanisms enforce it:
//!
//! * **Active health checks** ([`crate::health`]): every
//!   [`Router::health_tick`] pings each backend (bounded by
//!   `HealthConfig::ping_deadline_ms`); replicas declared `Down` are
//!   skipped in ring order entirely, and the transition fires the
//!   flight recorder's `replica_down` trigger.
//! * **Retry budgets with jittered backoff**: transport-level failures
//!   are retried up to `RouterConfig::retries` times per backend, the
//!   delays drawn from a seeded full-jitter [`Backoff`] schedule. On a
//!   simulated [`Clock`] the delays advance virtual time and never
//!   sleep, keeping robustness runs deterministic and fast.
//! * **Circuit breakers** (`cachemap_util::CircuitBreaker`): each
//!   backend's recent failure rate trips a per-replica breaker; while
//!   open, the router sheds that replica and routes to its next ring
//!   successor, then re-admits it through a half-open single probe.
//!
//! Business-level rejections (`bad_request`, `queue_full`,
//! `deadline_exceeded`, `quota_exceeded`…) are answers from a *live*
//! replica: they return to the caller immediately, count as breaker
//! successes, and never trigger failover — only `shutdown`, `internal`,
//! and transport errors do.

use crate::error::ServiceError;
use crate::health::{HealthConfig, HealthState, HealthTracker};
use crate::proto::{MapRequest, MapResponse};
use crate::MapService;
use cachemap_obs::{FlightRecorder, Registry};
use cachemap_storage::wire::mapped_program_from_json;
use cachemap_util::{Backoff, BreakerConfig, BreakerState, CircuitBreaker};
use cachemap_util::{Fingerprint, HashRing, Json, ToJson};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How a backend call failed, as seen by the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// Transport-level failure: refused, stalled, truncated, torn down.
    /// Always failover-eligible.
    Unavailable(String),
    /// The backend answered with a typed service error. Failover
    /// eligibility depends on the variant (see module docs).
    Service(ServiceError),
}

impl BackendError {
    /// Stable code for metrics and reports.
    pub fn code(&self) -> &str {
        match self {
            BackendError::Unavailable(_) => "unavailable",
            BackendError::Service(e) => e.code(),
        }
    }
}

/// One replica as the router sees it.
pub trait Backend: Send + Sync {
    /// Stable replica name (metric label, error messages).
    fn name(&self) -> &str;
    /// One mapping call.
    fn call(&self, req: &MapRequest) -> Result<MapResponse, BackendError>;
    /// Liveness probe, bounded by `deadline_ms` where the transport
    /// supports it.
    fn ping(&self, deadline_ms: u64) -> bool;
}

/// Shared backends delegate: harnesses keep an `Arc<LocalBackend>`
/// handle for kill/restart while the router owns a clone as a
/// `Box<dyn Backend>`.
impl<B: Backend + ?Sized> Backend for Arc<B> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn call(&self, req: &MapRequest) -> Result<MapResponse, BackendError> {
        (**self).call(req)
    }

    fn ping(&self, deadline_ms: u64) -> bool {
        (**self).ping(deadline_ms)
    }
}

/// The router's clock — now the workspace-wide [`cachemap_util::Clock`]
/// (re-exported here so `crate::router::Clock` paths keep working);
/// real time, or a virtual nanosecond counter for deterministic
/// robustness harnesses.
pub use cachemap_util::Clock;

/// An in-process replica: an `Arc<MapService>` slot that [`kill`] can
/// empty (calls then fail like a refused connection) and [`restart`]
/// can refill — the unit the router-storm harness crashes and revives.
///
/// [`kill`]: LocalBackend::kill
/// [`restart`]: LocalBackend::restart
pub struct LocalBackend {
    name: String,
    slot: Mutex<Option<Arc<MapService>>>,
}

impl LocalBackend {
    /// Wraps a running service as a named backend.
    pub fn new(name: impl Into<String>, service: Arc<MapService>) -> LocalBackend {
        LocalBackend {
            name: name.into(),
            slot: Mutex::new(Some(service)),
        }
    }

    /// Crash-kills the replica: the service's workers stop as in
    /// [`MapService::kill`] and the slot empties, so subsequent calls
    /// and pings fail at the "transport".
    pub fn kill(&self) {
        let svc = self.slot.lock().expect("backend slot poisoned").take();
        if let Some(svc) = svc {
            svc.kill();
        }
    }

    /// Installs a fresh (typically cold) service in the slot.
    pub fn restart(&self, service: Arc<MapService>) {
        *self.slot.lock().expect("backend slot poisoned") = Some(service);
    }

    /// The current service, if the replica is up.
    pub fn service(&self) -> Option<Arc<MapService>> {
        self.slot.lock().expect("backend slot poisoned").clone()
    }
}

impl Backend for LocalBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn call(&self, req: &MapRequest) -> Result<MapResponse, BackendError> {
        let Some(svc) = self.service() else {
            return Err(BackendError::Unavailable("connection refused".into()));
        };
        match svc.submit(req.clone()) {
            Ok(mut resp) => {
                // The router is the front end here: close any pending
                // trace (zero serialize time — nothing is serialized on
                // the in-process path) so stage metrics still land.
                if let Some(pending) = resp.trace.take() {
                    let _ = svc.finalize_trace(pending, Duration::ZERO);
                }
                Ok(resp)
            }
            Err(e) => Err(BackendError::Service(e)),
        }
    }

    fn ping(&self, _deadline_ms: u64) -> bool {
        self.service().map(|svc| svc.ping()).unwrap_or(false)
    }
}

/// A ping-only backend whose calls always fail — test support for the
/// fault-injection and breaker paths.
pub struct NullBackend;

impl Backend for NullBackend {
    fn name(&self) -> &str {
        "null"
    }

    fn call(&self, _req: &MapRequest) -> Result<MapResponse, BackendError> {
        Err(BackendError::Unavailable("null backend".into()))
    }

    fn ping(&self, _deadline_ms: u64) -> bool {
        true
    }
}

/// A TCP replica speaking the JSON-lines protocol of
/// [`crate::aserver::AsyncServer`].
/// One persistent connection, re-established on demand; every I/O
/// failure tears the connection down and surfaces as
/// [`BackendError::Unavailable`].
pub struct TcpBackend {
    name: String,
    addr: SocketAddr,
    connect_timeout_ms: u64,
    read_timeout_ms: u64,
    conn: Mutex<Option<BufReader<TcpStream>>>,
}

impl TcpBackend {
    /// A backend for the server at `addr`.
    pub fn new(name: impl Into<String>, addr: SocketAddr) -> TcpBackend {
        TcpBackend {
            name: name.into(),
            addr,
            connect_timeout_ms: 500,
            read_timeout_ms: 5_000,
            conn: Mutex::new(None),
        }
    }

    fn connect(&self) -> std::io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect_timeout(
            &self.addr,
            Duration::from_millis(self.connect_timeout_ms.max(1)),
        )?;
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    /// Writes one request line and reads one reply line over the
    /// persistent connection, with `read_timeout_ms` as the read bound.
    fn round_trip(&self, line: &str, read_timeout_ms: u64) -> std::io::Result<String> {
        let mut guard = self.conn.lock().expect("tcp backend poisoned");
        if guard.is_none() {
            *guard = Some(self.connect()?);
        }
        let result = (|| {
            let reader = guard.as_mut().expect("just connected");
            reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(read_timeout_ms.max(1))))?;
            reader.get_mut().write_all(line.as_bytes())?;
            reader.get_mut().write_all(b"\n")?;
            reader.get_mut().flush()?;
            let mut reply = String::new();
            if reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                ));
            }
            Ok(reply)
        })();
        if result.is_err() {
            // Never reuse a connection in an unknown framing state.
            *guard = None;
        }
        result
    }
}

impl Backend for TcpBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn call(&self, req: &MapRequest) -> Result<MapResponse, BackendError> {
        let line = req.to_json().to_string_compact();
        let reply = self
            .round_trip(&line, self.read_timeout_ms)
            .map_err(|e| BackendError::Unavailable(e.to_string()))?;
        let v = cachemap_util::json::parse(reply.trim())
            .map_err(|e| BackendError::Unavailable(format!("unparseable reply: {e}")))?;
        match v.get("status").and_then(Json::as_str) {
            Some("ok") => {
                let parse = || -> Option<MapResponse> {
                    Some(MapResponse {
                        id: v.get("id")?.as_u64()?,
                        cached: matches!(v.get("cached"), Some(Json::Bool(true))),
                        fingerprint: Fingerprint::from_hex(v.get("fingerprint")?.as_str()?)?,
                        service_us: v.get("service_us")?.as_u64()?,
                        mapping: Arc::new(mapped_program_from_json(v.get("mapping")?).ok()?),
                        trace: None,
                    })
                };
                parse().ok_or_else(|| {
                    BackendError::Unavailable("malformed ok reply (truncated?)".into())
                })
            }
            Some("error") => {
                let err = v
                    .get("error")
                    .and_then(ServiceError::from_response_json)
                    .unwrap_or_else(|| ServiceError::Internal {
                        message: "unparseable error body".into(),
                    });
                Err(BackendError::Service(err))
            }
            _ => Err(BackendError::Unavailable("reply missing status".into())),
        }
    }

    fn ping(&self, deadline_ms: u64) -> bool {
        match self.round_trip("{\"op\":\"ping\",\"id\":0}", deadline_ms.max(1)) {
            Ok(reply) => reply.contains("\"pong\""),
            Err(_) => false,
        }
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Virtual nodes per replica on the consistent-hash ring.
    pub vnodes: usize,
    /// Extra attempts per backend after the first (0 = no retries).
    pub retries: u32,
    /// First retry delay, nanoseconds.
    pub backoff_base_ns: u64,
    /// Retry delay cap, nanoseconds.
    pub backoff_cap_ns: u64,
    /// Seed for the jittered backoff schedules (per-request streams are
    /// derived from this, the request sequence number, and the replica).
    pub seed: u64,
    /// Per-replica circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Health-check thresholds.
    pub health: HealthConfig,
    /// Background health-check cadence in milliseconds; `0` disables
    /// the thread (harnesses call [`Router::health_tick`] themselves).
    pub health_interval_ms: u64,
    /// Flight-recorder ring capacity; `0` disables the recorder.
    pub flight_capacity: usize,
    /// Directory for `flight-replica_down-*.json` dumps.
    pub flight_dir: PathBuf,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vnodes: 64,
            retries: 2,
            backoff_base_ns: 1_000_000,
            backoff_cap_ns: 16_000_000,
            seed: 0xC0FF_EE00,
            breaker: BreakerConfig::default(),
            health: HealthConfig::default(),
            health_interval_ms: 0,
            flight_capacity: 0,
            flight_dir: PathBuf::from("."),
        }
    }
}

/// Per-replica mutable state (breaker + health), one lock per replica
/// so a slow backend never serializes the whole fleet.
struct ReplicaState {
    breaker: CircuitBreaker,
    health: HealthTracker,
}

/// Aggregate counters for [`RouterStats`].
#[derive(Debug, Default, Clone)]
struct Totals {
    ok: u64,
    ok_failover: u64,
    errors: std::collections::BTreeMap<String, u64>,
    retries: u64,
    failovers: u64,
    shed_down: u64,
    shed_open: u64,
}

/// A point-in-time snapshot of the router's counters and fleet state.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// Requests answered with a mapping.
    pub ok: u64,
    /// Of those, answered by a non-primary replica.
    pub ok_failover: u64,
    /// Typed errors returned to callers, by code.
    pub errors: std::collections::BTreeMap<String, u64>,
    /// Retry attempts after a transport-level failure.
    pub retries: u64,
    /// Times the router moved past a replica after exhausting its
    /// retry budget.
    pub failovers: u64,
    /// Ring candidates skipped because health said `Down`.
    pub shed_down: u64,
    /// Ring candidates skipped because the breaker was open.
    pub shed_open: u64,
    /// Per-replica `(name, served, health, breaker)`.
    pub replicas: Vec<(String, u64, HealthState, BreakerState)>,
}

impl ToJson for RouterStats {
    fn to_json(&self) -> Json {
        let errors = Json::Object(
            self.errors
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        );
        let replicas = self
            .replicas
            .iter()
            .map(|(name, served, health, breaker)| {
                Json::object(vec![
                    ("name", Json::Str(name.clone())),
                    ("served", Json::UInt(*served)),
                    ("health", Json::Str(health.label().into())),
                    ("breaker", Json::Str(breaker.label().into())),
                ])
            })
            .collect();
        Json::object(vec![
            ("ok", Json::UInt(self.ok)),
            ("ok_failover", Json::UInt(self.ok_failover)),
            ("errors", errors),
            ("retries", Json::UInt(self.retries)),
            ("failovers", Json::UInt(self.failovers)),
            ("shed_down", Json::UInt(self.shed_down)),
            ("shed_open", Json::UInt(self.shed_open)),
            ("replicas", Json::Array(replicas)),
        ])
    }
}

/// Gate decision for one ring candidate.
enum Gate {
    /// Call with the full retry budget.
    Go,
    /// Breaker half-open: exactly one probe attempt.
    Probe,
    /// Health says down — skip without calling.
    Down,
    /// Breaker open — skip without calling.
    Open,
}

/// The consistent-hash front end over the replica fleet.
pub struct Router {
    backends: Vec<Box<dyn Backend>>,
    names: Vec<String>,
    ring: HashRing,
    clock: Arc<Clock>,
    cfg: RouterConfig,
    replicas: Vec<Mutex<ReplicaState>>,
    served: Vec<AtomicU64>,
    totals: Mutex<Totals>,
    metrics: Mutex<Registry>,
    flight: Option<FlightRecorder>,
    seq: AtomicU64,
    health_stop: Arc<AtomicBool>,
    health_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Router {
    /// Builds a router over `backends` with the given clock.
    ///
    /// # Panics
    /// When `backends` is empty — a router needs a fleet.
    pub fn new(backends: Vec<Box<dyn Backend>>, clock: Arc<Clock>, cfg: RouterConfig) -> Router {
        assert!(!backends.is_empty(), "router needs at least one backend");
        let names: Vec<String> = backends.iter().map(|b| b.name().to_string()).collect();
        let ring = HashRing::new(backends.len(), cfg.vnodes.max(1));
        let replicas = backends
            .iter()
            .map(|_| {
                Mutex::new(ReplicaState {
                    breaker: CircuitBreaker::new(cfg.breaker),
                    health: HealthTracker::new(cfg.health),
                })
            })
            .collect();
        let served = backends.iter().map(|_| AtomicU64::new(0)).collect();
        let flight = (cfg.flight_capacity > 0).then(|| FlightRecorder::new(cfg.flight_capacity));
        let mut metrics = Registry::new();
        for name in &names {
            metrics.gauge_set(
                "cachemap_router_replica_health",
                "Replica health (0 healthy, 1 suspect, 2 down, 3 probing)",
                &[("replica", name)],
                0.0,
            );
            metrics.gauge_set(
                "cachemap_router_replica_breaker",
                "Replica breaker state (0 closed, 1 open, 2 half-open)",
                &[("replica", name)],
                0.0,
            );
            metrics.counter_add(
                "cachemap_router_served_total",
                "Requests served, by replica",
                &[("replica", name)],
                0,
            );
        }
        for c in [
            "cachemap_router_retries_total",
            "cachemap_router_failovers_total",
        ] {
            metrics.counter_add(c, "Router retry/failover counters", &[], 0);
        }
        for reason in ["down", "breaker_open"] {
            metrics.counter_add(
                "cachemap_router_sheds_total",
                "Ring candidates skipped without a call, by reason",
                &[("reason", reason)],
                0,
            );
        }
        Router {
            backends,
            names,
            ring,
            clock,
            cfg,
            replicas,
            served,
            totals: Mutex::new(Totals::default()),
            metrics: Mutex::new(metrics),
            flight,
            seq: AtomicU64::new(0),
            health_stop: Arc::new(AtomicBool::new(false)),
            health_thread: Mutex::new(None),
        }
    }

    /// [`Router::new`] plus a background health-check thread at
    /// `cfg.health_interval_ms` (real-clock deployments; harnesses
    /// leave the interval at 0 and tick manually).
    pub fn start(
        backends: Vec<Box<dyn Backend>>,
        clock: Arc<Clock>,
        cfg: RouterConfig,
    ) -> Arc<Router> {
        let interval = cfg.health_interval_ms;
        let router = Arc::new(Router::new(backends, clock, cfg));
        if interval > 0 {
            let weak = Arc::downgrade(&router);
            let stop = Arc::clone(&router.health_stop);
            let handle = std::thread::Builder::new()
                .name("router-health".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(interval));
                        match weak.upgrade() {
                            Some(r) => {
                                r.health_tick();
                            }
                            None => break,
                        }
                    }
                })
                .expect("spawn router-health");
            *router.health_thread.lock().expect("health thread poisoned") = Some(handle);
        }
        router
    }

    /// Stops the background health checker, if one is running.
    pub fn stop_health_checks(&self) {
        self.health_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self
            .health_thread
            .lock()
            .expect("health thread poisoned")
            .take()
        {
            let _ = h.join();
        }
    }

    /// The router's clock (harnesses advance it between requests).
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Replica index that primarily owns `fingerprint` on the ring.
    pub fn primary_of(&self, fingerprint: Fingerprint) -> usize {
        self.ring.primary(HashRing::key_of(fingerprint.0))
    }

    /// Replica name by index.
    pub fn replica_name(&self, replica: usize) -> &str {
        &self.names[replica]
    }

    /// Number of replicas in the fleet.
    pub fn replicas(&self) -> usize {
        self.backends.len()
    }

    /// The backend at `replica` (harness access for kill/restart).
    pub fn backend(&self, replica: usize) -> &dyn Backend {
        self.backends[replica].as_ref()
    }

    /// Current health state of `replica`.
    pub fn health_state(&self, replica: usize) -> HealthState {
        self.replicas[replica]
            .lock()
            .expect("replica poisoned")
            .health
            .state()
    }

    /// Current breaker state of `replica` (time transitions applied).
    pub fn breaker_state(&self, replica: usize) -> BreakerState {
        let now = self.clock.now_ns();
        self.replicas[replica]
            .lock()
            .expect("replica poisoned")
            .breaker
            .poll(now)
    }

    /// The breaker transition history of `replica`, oldest first.
    pub fn breaker_history(&self, replica: usize) -> Vec<BreakerState> {
        self.replicas[replica]
            .lock()
            .expect("replica poisoned")
            .breaker
            .history()
            .collect()
    }

    /// Runs one round of active health checks: pings every backend and
    /// feeds the trackers. Returns the transitions that occurred.
    /// Declaring a replica `Down` fires the `replica_down` flight
    /// trigger.
    pub fn health_tick(&self) -> Vec<(usize, HealthState)> {
        let mut transitions = Vec::new();
        for r in 0..self.backends.len() {
            let ok = self.backends[r].ping(self.cfg.health.ping_deadline_ms);
            let change = {
                let mut st = self.replicas[r].lock().expect("replica poisoned");
                st.health.record_ping(ok)
            };
            if let Some(to) = change {
                transitions.push((r, to));
                let name = self.names[r].clone();
                {
                    let mut m = self.metrics.lock().expect("metrics poisoned");
                    m.counter_add(
                        "cachemap_router_health_transitions_total",
                        "Health state-machine transitions, by replica and target state",
                        &[("replica", &name), ("to", to.label())],
                        1,
                    );
                    let code = match to {
                        HealthState::Healthy => 0.0,
                        HealthState::Suspect => 1.0,
                        HealthState::Down => 2.0,
                        HealthState::Probing => 3.0,
                    };
                    m.gauge_set(
                        "cachemap_router_replica_health",
                        "Replica health (0 healthy, 1 suspect, 2 down, 3 probing)",
                        &[("replica", &name)],
                        code,
                    );
                }
                if to == HealthState::Down {
                    self.flight_dump_replica_down(&name);
                }
            }
        }
        transitions
    }

    fn flight_dump_replica_down(&self, name: &str) {
        let Some(flight) = &self.flight else { return };
        let extra = vec![("replica", Json::Str(name.to_string()))];
        if let Ok(Some(_)) = flight.dump(&self.cfg.flight_dir, "replica_down", 1, extra) {
            let mut m = self.metrics.lock().expect("metrics poisoned");
            m.counter_add(
                "cachemap_router_flight_dumps_total",
                "Router flight-recorder dumps by trigger",
                &[("trigger", "replica_down")],
                1,
            );
        }
    }

    /// Whether a typed service error from a replica should trigger
    /// failover (the replica is dying) rather than return to the caller
    /// (the replica answered).
    fn failover_eligible(err: &ServiceError) -> bool {
        matches!(err, ServiceError::Shutdown | ServiceError::Internal { .. })
    }

    fn count_breaker_transitions(&self, replica: usize, before: u64, st: &ReplicaState) {
        let after = st.breaker.transitions();
        if after > before {
            let to = st.breaker.state().label();
            let name = self.names[replica].clone();
            let mut m = self.metrics.lock().expect("metrics poisoned");
            m.counter_add(
                "cachemap_router_breaker_transitions_total",
                "Breaker state transitions, by replica and target state",
                &[("replica", &name), ("to", to)],
                after - before,
            );
            let code = match st.breaker.state() {
                BreakerState::Closed => 0.0,
                BreakerState::Open => 1.0,
                BreakerState::HalfOpen => 2.0,
            };
            m.gauge_set(
                "cachemap_router_replica_breaker",
                "Replica breaker state (0 closed, 1 open, 2 half-open)",
                &[("replica", &name)],
                code,
            );
        }
    }

    /// Routes one request: primary replica by fingerprint, ring
    /// successors on failure. Returns a mapping or a **typed** error —
    /// never panics on a dead replica, never surfaces a raw transport
    /// error.
    pub fn submit(&self, req: MapRequest) -> Result<MapResponse, ServiceError> {
        let fp =
            cachemap_core::wire::fingerprint(&req.program, &req.platform, &req.mapper, req.version);
        let key = HashRing::key_of(fp.0);
        let order = self.ring.successors(key);
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);

        let mut attempts = 0u32;
        let mut last_code = String::new();
        let mut shed_down = 0u64;
        let mut shed_open = 0u64;
        let mut failovers = 0u64;
        let mut retries = 0u64;

        for (pos, &r) in order.iter().enumerate() {
            let now = self.clock.now_ns();
            let gate = {
                let mut st = self.replicas[r].lock().expect("replica poisoned");
                if !st.health.state().takes_traffic() {
                    Gate::Down
                } else {
                    let before = st.breaker.transitions();
                    let state = st.breaker.poll(now);
                    let allowed = st.breaker.allow(now);
                    let gate = if !allowed {
                        Gate::Open
                    } else if state == BreakerState::HalfOpen {
                        Gate::Probe
                    } else {
                        Gate::Go
                    };
                    self.count_breaker_transitions(r, before, &st);
                    gate
                }
            };
            let budget = match gate {
                Gate::Down => {
                    shed_down += 1;
                    continue;
                }
                Gate::Open => {
                    shed_open += 1;
                    continue;
                }
                Gate::Probe => 1,
                Gate::Go => self.cfg.retries + 1,
            };

            let mut backoff =
                Backoff::exponential(self.cfg.backoff_base_ns, self.cfg.backoff_cap_ns)
                    .with_jitter(self.cfg.seed ^ seq.rotate_left(17) ^ (r as u64) << 56);

            for attempt in 0..budget {
                attempts += 1;
                let outcome = self.backends[r].call(&req);
                let now = self.clock.now_ns();
                match outcome {
                    Ok(resp) => {
                        {
                            let mut st = self.replicas[r].lock().expect("replica poisoned");
                            let before = st.breaker.transitions();
                            st.breaker.record_success(now);
                            self.count_breaker_transitions(r, before, &st);
                        }
                        self.served[r].fetch_add(1, Ordering::SeqCst);
                        self.finish(
                            seq, fp, r, pos, attempts, retries, failovers, shed_down, shed_open,
                            "ok",
                        );
                        return Ok(resp);
                    }
                    Err(e) => {
                        let failover = match &e {
                            BackendError::Unavailable(_) => true,
                            BackendError::Service(se) => Self::failover_eligible(se),
                        };
                        if !failover {
                            // A live replica answered with a business
                            // rejection: breaker success, caller's
                            // problem.
                            let BackendError::Service(se) = e else {
                                unreachable!("non-service errors always fail over")
                            };
                            {
                                let mut st = self.replicas[r].lock().expect("replica poisoned");
                                let before = st.breaker.transitions();
                                st.breaker.record_success(now);
                                self.count_breaker_transitions(r, before, &st);
                            }
                            self.finish(
                                seq,
                                fp,
                                r,
                                pos,
                                attempts,
                                retries,
                                failovers,
                                shed_down,
                                shed_open,
                                se.code(),
                            );
                            return Err(se);
                        }
                        last_code = e.code().to_string();
                        {
                            let mut st = self.replicas[r].lock().expect("replica poisoned");
                            let before = st.breaker.transitions();
                            st.breaker.record_failure(now);
                            self.count_breaker_transitions(r, before, &st);
                        }
                        if attempt + 1 < budget {
                            retries += 1;
                            let delay = backoff.next().unwrap_or(self.cfg.backoff_base_ns);
                            self.clock.sleep_ns(delay);
                        }
                    }
                }
            }
            failovers += 1;
        }

        // Exhausted the whole ring: answer typed.
        let primary = order.first().copied().unwrap_or(0);
        let err = if attempts > 0 {
            ServiceError::RetriesExhausted {
                attempts,
                last: if last_code.is_empty() {
                    "unavailable".into()
                } else {
                    last_code
                },
            }
        } else if shed_down >= shed_open {
            ServiceError::ReplicaDown {
                replica: self.names[primary].clone(),
            }
        } else {
            ServiceError::BreakerOpen {
                replica: self.names[primary].clone(),
            }
        };
        self.finish(
            seq,
            fp,
            primary,
            order.len(),
            attempts,
            retries,
            failovers,
            shed_down,
            shed_open,
            err.code(),
        );
        Err(err)
    }

    /// Books one finished request into totals, metrics, and the flight
    /// recorder.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        seq: u64,
        fp: Fingerprint,
        replica: usize,
        position: usize,
        attempts: u32,
        retries: u64,
        failovers: u64,
        shed_down: u64,
        shed_open: u64,
        outcome: &str,
    ) {
        {
            let mut t = self.totals.lock().expect("totals poisoned");
            if outcome == "ok" {
                t.ok += 1;
                if position > 0 {
                    t.ok_failover += 1;
                }
            } else {
                *t.errors.entry(outcome.to_string()).or_insert(0) += 1;
            }
            t.retries += retries;
            t.failovers += failovers;
            t.shed_down += shed_down;
            t.shed_open += shed_open;
        }
        {
            let name = self.names[replica].clone();
            let mut m = self.metrics.lock().expect("metrics poisoned");
            m.counter_add(
                "cachemap_router_requests_total",
                "Requests routed, by outcome code",
                &[("outcome", outcome)],
                1,
            );
            if outcome == "ok" {
                m.counter_add(
                    "cachemap_router_served_total",
                    "Requests served, by replica",
                    &[("replica", &name)],
                    1,
                );
                if position > 0 {
                    m.counter_add(
                        "cachemap_router_failover_served_total",
                        "Requests served by a non-primary replica",
                        &[],
                        1,
                    );
                }
            }
            m.counter_add("cachemap_router_retries_total", "", &[], retries);
            m.counter_add("cachemap_router_failovers_total", "", &[], failovers);
            m.counter_add(
                "cachemap_router_sheds_total",
                "",
                &[("reason", "down")],
                shed_down,
            );
            m.counter_add(
                "cachemap_router_sheds_total",
                "",
                &[("reason", "breaker_open")],
                shed_open,
            );
        }
        if let Some(flight) = &self.flight {
            let record = Json::object(vec![
                ("seq", Json::UInt(seq)),
                ("fingerprint", Json::Str(fp.to_hex())),
                ("replica", Json::Str(self.names[replica].clone())),
                ("attempts", Json::UInt(attempts as u64)),
                ("outcome", Json::Str(outcome.to_string())),
            ]);
            flight.record(record, outcome != "ok");
        }
    }

    /// A snapshot of the router's counters and fleet state.
    pub fn stats(&self) -> RouterStats {
        let t = self.totals.lock().expect("totals poisoned").clone();
        let now = self.clock.now_ns();
        let replicas = (0..self.backends.len())
            .map(|r| {
                let mut st = self.replicas[r].lock().expect("replica poisoned");
                (
                    self.names[r].clone(),
                    self.served[r].load(Ordering::SeqCst),
                    st.health.state(),
                    st.breaker.poll(now),
                )
            })
            .collect();
        RouterStats {
            ok: t.ok,
            ok_failover: t.ok_failover,
            errors: t.errors,
            retries: t.retries,
            failovers: t.failovers,
            shed_down: t.shed_down,
            shed_open: t.shed_open,
            replicas,
        }
    }

    /// Prometheus text exposition of the router registry.
    pub fn metrics_text(&self) -> String {
        self.metrics
            .lock()
            .expect("metrics poisoned")
            .to_prometheus()
    }

    /// Reads one router counter back (test support).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.metrics
            .lock()
            .expect("metrics poisoned")
            .counter(name, labels)
    }

    /// Reads one router gauge back (test support).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.metrics
            .lock()
            .expect("metrics poisoned")
            .gauge(name, labels)
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop_health_checks();
    }
}
