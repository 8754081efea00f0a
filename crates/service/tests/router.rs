//! Router-fleet integration tests: ring affinity, failover on kill,
//! breaker lifecycle, netfault determinism, and the TCP backend path.

use cachemap_core::Version;
use cachemap_service::aserver::AsyncServer;
use cachemap_service::netfault::FaultedBackend;
use cachemap_service::router::{Backend, BackendError, Clock, LocalBackend, Router, TcpBackend};
use cachemap_service::{
    HealthConfig, HealthState, MapRequest, MapService, NetFaultPlan, RouterConfig, ServiceConfig,
    ServiceError,
};
use cachemap_storage::PlatformConfig;
use cachemap_util::{BreakerConfig, BreakerState};
use cachemap_workloads::{suite, Scale};
use std::sync::Arc;

fn request(app_idx: usize, id: u64) -> MapRequest {
    let apps = suite(Scale::Test);
    let app = &apps[app_idx % apps.len()];
    MapRequest {
        id,
        program: app.program.clone(),
        platform: PlatformConfig::tiny(),
        mapper: Default::default(),
        version: Version::InterProcessor,
        deadline_ms: None,
        tenant: None,
    }
}

fn fingerprint_of(req: &MapRequest) -> cachemap_util::Fingerprint {
    cachemap_core::wire::fingerprint(&req.program, &req.platform, &req.mapper, req.version)
}

fn small_service() -> Arc<MapService> {
    Arc::new(MapService::start(ServiceConfig {
        workers: 2,
        queue_limit: 32,
        cache_shards: 4,
        cache_capacity_per_shard: 64,
        flight_capacity: 0,
        ..ServiceConfig::default()
    }))
}

/// A fleet of local replicas plus the handles the tests kill/restart.
fn fleet(n: usize) -> (Vec<Box<dyn Backend>>, Vec<Arc<LocalBackend>>) {
    let locals: Vec<Arc<LocalBackend>> = (0..n)
        .map(|i| Arc::new(LocalBackend::new(format!("replica-{i}"), small_service())))
        .collect();
    let backends = locals
        .iter()
        .map(|l| Box::new(Arc::clone(l)) as Box<dyn Backend>)
        .collect();
    (backends, locals)
}

fn test_router_config() -> RouterConfig {
    RouterConfig {
        retries: 1,
        breaker: BreakerConfig {
            window: 8,
            min_samples: 2,
            failure_ratio: 0.5,
            open_ns: 1_000_000,
        },
        health: HealthConfig {
            suspect_after: 1,
            down_after: 2,
            up_after: 1,
            ping_deadline_ms: 100,
        },
        ..RouterConfig::default()
    }
}

#[test]
fn ring_affinity_same_request_same_replica() {
    let (backends, _locals) = fleet(3);
    let router = Router::new(backends, Arc::new(Clock::simulated()), test_router_config());
    let owner = router.primary_of(fingerprint_of(&request(0, 0)));
    for i in 0..5u64 {
        let resp = router.submit(request(0, i)).expect("healthy fleet serves");
        assert_eq!(resp.cached, i > 0, "repeat hits the owner's cache");
    }
    let stats = router.stats();
    assert_eq!(stats.ok, 5);
    assert_eq!(stats.ok_failover, 0, "no failover on a healthy fleet");
    assert_eq!(
        stats.replicas[owner].1, 5,
        "all five land on the ring owner: {stats:?}"
    );
}

#[test]
fn killed_replica_fails_over_with_typed_outcomes_only() {
    let clock = Arc::new(Clock::simulated());
    let (backends, locals) = fleet(3);
    let router = Router::new(backends, Arc::clone(&clock), test_router_config());

    let victim = router.primary_of(fingerprint_of(&request(0, 0)));
    router.submit(request(0, 0)).expect("warm");
    locals[victim].kill();

    let mut served_after_kill = 0;
    for i in 0..10u64 {
        clock.advance_ns(2_000_000);
        match router.submit(request(0, 100 + i)) {
            Ok(_) => served_after_kill += 1,
            Err(e) => {
                assert!(!e.code().is_empty(), "error must be typed: {e}");
            }
        }
    }
    assert!(
        served_after_kill >= 8,
        "ring successors must absorb the dead primary's keys (served {served_after_kill}/10)"
    );
    let stats = router.stats();
    assert!(
        stats.ok_failover > 0,
        "failover path must have been exercised: {stats:?}"
    );
}

#[test]
fn breaker_opens_sheds_and_recovers_through_half_open() {
    let clock = Arc::new(Clock::simulated());
    let (backends, locals) = fleet(2);
    let cfg = test_router_config();
    let open_ns = cfg.breaker.open_ns;
    let router = Router::new(backends, Arc::clone(&clock), cfg);

    // Find an app whose primary is replica 0 so its failures hit the
    // breaker we watch.
    let app = (0..8)
        .find(|&a| router.primary_of(fingerprint_of(&request(a, 0))) == 0)
        .expect("some app must map to replica 0");

    router
        .submit(request(app, 0))
        .expect("warm through primary");
    locals[0].kill();

    // Drive failures until the breaker opens; with retries=1 each
    // submit records two failures.
    for i in 0..4u64 {
        clock.advance_ns(1_000);
        let _ = router.submit(request(app, 10 + i));
    }
    assert_eq!(
        router.breaker_state(0),
        BreakerState::Open,
        "failure rate must trip the breaker"
    );

    // While open, the primary is shed without calls.
    let sheds_before = router.stats().shed_open;
    let _ = router.submit(request(app, 50));
    assert!(
        router.stats().shed_open > sheds_before,
        "open breaker must shed to the ring successor"
    );

    // Restart the replica, wait out the cool-down: half-open probe then
    // closed.
    locals[0].restart(small_service());
    clock.advance_ns(open_ns + 1);
    router.submit(request(app, 60)).expect("probe succeeds");
    assert_eq!(router.breaker_state(0), BreakerState::Closed);
    let hist = router.breaker_history(0);
    assert!(
        hist.windows(3).any(|w| w
            == [
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed
            ]),
        "breaker must recover open → half-open → closed: {hist:?}"
    );
}

#[test]
fn health_checks_declare_down_and_reprobe() {
    let clock = Arc::new(Clock::simulated());
    let (backends, locals) = fleet(2);
    let router = Router::new(backends, clock, test_router_config());

    assert!(router.health_tick().is_empty(), "healthy fleet: no change");
    locals[1].kill();
    assert_eq!(router.health_tick(), vec![(1, HealthState::Suspect)]);
    assert_eq!(router.health_tick(), vec![(1, HealthState::Down)]);
    assert_eq!(router.health_state(1), HealthState::Down);

    locals[1].restart(small_service());
    assert_eq!(
        router.health_tick(),
        vec![(1, HealthState::Healthy)],
        "up_after=1 promotes straight back"
    );
}

#[test]
fn down_replica_is_skipped_without_calls() {
    let clock = Arc::new(Clock::simulated());
    let (backends, locals) = fleet(2);
    let router = Router::new(backends, clock, test_router_config());

    let app = (0..8)
        .find(|&a| router.primary_of(fingerprint_of(&request(a, 0))) == 0)
        .expect("some app must map to replica 0");
    locals[0].kill();
    router.health_tick();
    router.health_tick();
    assert_eq!(router.health_state(0), HealthState::Down);

    let resp = router.submit(request(app, 1)).expect("successor serves");
    assert!(!resp.cached);
    let stats = router.stats();
    assert!(stats.shed_down >= 1, "down primary shed: {stats:?}");
    assert_eq!(
        stats.retries, 0,
        "no retry burn on a health-skipped replica"
    );
}

#[test]
fn whole_fleet_down_answers_replica_down_typed() {
    let clock = Arc::new(Clock::simulated());
    let (backends, locals) = fleet(2);
    let router = Router::new(backends, clock, test_router_config());
    for l in &locals {
        l.kill();
    }
    router.health_tick();
    router.health_tick();

    match router.submit(request(0, 1)) {
        Err(ServiceError::ReplicaDown { replica }) => {
            assert!(replica.starts_with("replica-"), "names the primary");
        }
        other => panic!("expected replica_down, got {other:?}"),
    }
}

#[test]
fn netfault_runs_are_deterministic_and_typed() {
    let drive = |seed: u64| {
        let clock = Arc::new(Clock::simulated());
        let plan = NetFaultPlan {
            refuse_ppm: 120_000,
            stall_ppm: 60_000,
            slow_ppm: 60_000,
            truncate_ppm: 60_000,
            stall_ns: 3_000_000,
            slow_ns: 1_000_000,
            ..NetFaultPlan::quiet(seed)
        };
        let (backends, _locals) = fleet(3);
        let faulted: Vec<Box<dyn Backend>> = backends
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                Box::new(FaultedBackend::new(b, plan, i, Arc::clone(&clock))) as Box<dyn Backend>
            })
            .collect();
        let router = Router::new(faulted, Arc::clone(&clock), test_router_config());
        let mut outcomes = Vec::new();
        for i in 0..40u64 {
            clock.advance_ns(1_000_000);
            let code = match router.submit(request((i % 4) as usize, i)) {
                Ok(resp) => format!("ok:{}", resp.cached),
                Err(e) => {
                    assert!(
                        matches!(
                            e,
                            ServiceError::RetriesExhausted { .. }
                                | ServiceError::ReplicaDown { .. }
                                | ServiceError::BreakerOpen { .. }
                        ),
                        "only fleet-level typed errors expected, got {e}"
                    );
                    e.code().to_string()
                }
            };
            outcomes.push(code);
        }
        (outcomes, clock.now_ns())
    };
    let (a, ta) = drive(42);
    let (b, tb) = drive(42);
    assert_eq!(a, b, "same seed, same outcome sequence");
    assert_eq!(ta, tb, "same seed, same virtual-time trajectory");
}

#[test]
fn tcp_backend_round_trips_and_surfaces_typed_errors() {
    let svc = small_service();
    let server = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let addr = server.addr();

    let backend = TcpBackend::new("tcp-0", addr);
    assert!(backend.ping(500), "server answers pings");

    let resp = backend.call(&request(0, 7)).expect("wire map succeeds");
    assert_eq!(resp.id, 7);
    assert!(!resp.cached);
    let again = backend.call(&request(0, 8)).expect("second call");
    assert!(again.cached, "same content hits the replica cache");
    assert_eq!(
        resp.mapping, again.mapping,
        "cache is semantically invisible"
    );

    // An already-expired deadline surfaces as a typed service error,
    // not a transport error.
    let mut bad = request(1, 9);
    bad.deadline_ms = Some(0);
    match backend.call(&bad) {
        Err(BackendError::Service(e)) => assert_eq!(e.code(), "deadline_exceeded"),
        other => panic!("expected typed deadline error, got {other:?}"),
    }

    server.shutdown();
    drop(server);
    svc.shutdown();

    // With the server torn down the backend reports a transport failure
    // on its dead connection (or the service's typed shutdown, had a
    // reply still been in flight) — both are failover-eligible for the
    // router, never untyped.
    match backend.call(&request(0, 10)) {
        Err(BackendError::Unavailable(_)) => {}
        Err(BackendError::Service(ServiceError::Shutdown)) => {}
        other => panic!("expected unavailable/shutdown after teardown, got {other:?}"),
    }
    // A second call definitely finds the port closed.
    match backend.call(&request(0, 11)) {
        Err(BackendError::Unavailable(_)) => {}
        other => panic!("expected unavailable on a dead port, got {other:?}"),
    }
}

#[test]
fn router_metrics_expose_fleet_state() {
    let clock = Arc::new(Clock::simulated());
    let (backends, _locals) = fleet(2);
    let router = Router::new(backends, clock, test_router_config());
    router.submit(request(0, 1)).expect("serve");
    let text = router.metrics_text();
    for needle in [
        "cachemap_router_requests_total",
        "cachemap_router_replica_health",
        "cachemap_router_replica_breaker",
        "cachemap_router_served_total",
        "cachemap_router_sheds_total",
    ] {
        assert!(text.contains(needle), "metrics must expose {needle}");
    }
    assert_eq!(
        router.counter("cachemap_router_requests_total", &[("outcome", "ok")]),
        Some(1)
    );
    assert_eq!(
        router.gauge(
            "cachemap_router_replica_health",
            &[("replica", "replica-0")]
        ),
        Some(0.0)
    );
}
