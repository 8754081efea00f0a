//! Service-level property and integration tests: fingerprint stability,
//! cache byte-identity, typed rejections, and the TCP/HTTP front
//! end. Transport limits (connection cap, idle deadline) are tested in
//! `tests/aserver.rs`.

use cachemap_core::{Mapper, MapperConfig, Version};
use cachemap_polyhedral::DataSpace;
use cachemap_service::aserver::AsyncServer;
use cachemap_service::{MapRequest, MapService, ServiceConfig, ServiceError};
use cachemap_storage::{HierarchyTree, PlatformConfig};
use cachemap_util::json::{self, Json};
use cachemap_util::{check, fingerprint_json, ToJson};
use cachemap_workloads::{suite, Scale};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cachemap-svc-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(app_idx: usize, version: Version, id: u64) -> MapRequest {
    let apps = suite(Scale::Test);
    let app = &apps[app_idx % apps.len()];
    MapRequest {
        id,
        program: app.program.clone(),
        platform: PlatformConfig::tiny(),
        mapper: MapperConfig::default(),
        version,
        deadline_ms: None,
        tenant: None,
    }
}

fn cold_mapping_bytes(req: &MapRequest) -> String {
    let tree = HierarchyTree::from_config(&req.platform).unwrap();
    let data = DataSpace::new(&req.program.arrays, req.platform.chunk_bytes);
    Mapper::new(req.mapper)
        .map(&req.program, &data, &req.platform, &tree, req.version)
        .to_json()
        .to_string_compact()
}

/// Recursively shuffles the insertion order of every JSON object.
fn shuffle_json(v: &Json, g: &mut check::Gen) -> Json {
    match v {
        Json::Object(pairs) => {
            let mut shuffled: Vec<(String, Json)> = pairs
                .iter()
                .map(|(k, x)| (k.clone(), shuffle_json(x, g)))
                .collect();
            // Fisher–Yates with the deterministic generator.
            for i in (1..shuffled.len()).rev() {
                let j = g.usize_in(0, i);
                shuffled.swap(i, j);
            }
            Json::Object(shuffled)
        }
        Json::Array(items) => Json::Array(items.iter().map(|x| shuffle_json(x, g)).collect()),
        other => other.clone(),
    }
}

fn request_payload_json(req: &MapRequest) -> Json {
    Json::object(vec![
        ("program", req.program.to_json()),
        ("platform", req.platform.to_json()),
        ("mapper", req.mapper.to_json()),
        ("version", req.version.to_json()),
    ])
}

#[test]
fn fingerprint_invariant_under_field_order_and_reserialization() {
    let req = request(0, Version::InterProcessor, 1);
    let payload = request_payload_json(&req);
    let base = fingerprint_json(&payload);
    check::cases(0x5e_4f1ce, 50, |g| {
        let shuffled = shuffle_json(&payload, g);
        assert_eq!(fingerprint_json(&shuffled), base, "field order leaked");
        // Re-serialization: text → tree → text must not move the hash.
        let reparsed = json::parse(&shuffled.to_string_compact()).unwrap();
        assert_eq!(fingerprint_json(&reparsed), base, "reserialization leaked");
    });
}

#[test]
fn fingerprint_changes_under_any_single_field_perturbation() {
    let req = request(0, Version::InterProcessor, 1);
    let base = cachemap_core::fingerprint(&req.program, &req.platform, &req.mapper, req.version);

    let mut variants: Vec<(&str, MapRequest)> = Vec::new();

    // Nest perturbations.
    let mut r = req.clone();
    r.program.nests[0].compute_us += 1.0;
    variants.push(("nest compute_us", r));
    let mut r = req.clone();
    let mut loops = r.program.nests[0].space.loops().to_vec();
    loops[0].upper = loops[0]
        .upper
        .plus(&cachemap_polyhedral::AffineExpr::constant(-1));
    r.program.nests[0].space = cachemap_polyhedral::IterationSpace::new(loops);
    variants.push(("loop upper bound", r));
    let mut r = req.clone();
    r.program.arrays[0].elem_size += 4;
    variants.push(("array elem_size", r));

    // Topology perturbations.
    for (name, f) in [
        (
            "num_clients",
            (|p: &mut PlatformConfig| p.num_clients *= 2) as fn(&mut PlatformConfig),
        ),
        ("io_cache_chunks", |p| p.io_cache_chunks += 1),
        ("chunk_bytes", |p| p.chunk_bytes *= 2),
        ("net_hop_ns", |p| p.net_hop_ns += 1),
    ] {
        let mut r = req.clone();
        f(&mut r.platform);
        variants.push((name, r));
    }

    // Mapper-parameter perturbations.
    let mut r = req.clone();
    r.mapper.cluster.balance_threshold += 0.01;
    variants.push(("balance_threshold", r));
    let mut r = req.clone();
    r.mapper.schedule.alpha += 0.125;
    variants.push(("schedule alpha", r));
    let mut r = req.clone();
    r.mapper.refine_passes += 1;
    variants.push(("refine_passes", r));
    let mut r = req.clone();
    r.version = Version::InterProcessorScheduled;
    variants.push(("version", r));

    for (what, v) in &variants {
        let fp = cachemap_core::fingerprint(&v.program, &v.platform, &v.mapper, v.version);
        assert_ne!(fp, base, "perturbing {what} did not change the fingerprint");
    }
}

#[test]
fn cache_hit_is_byte_identical_to_cold_map() {
    let service = MapService::start(ServiceConfig::default());
    for (i, version) in [Version::InterProcessor, Version::InterProcessorScheduled]
        .into_iter()
        .enumerate()
    {
        let req = request(i, version, i as u64);
        let cold = cold_mapping_bytes(&req);

        let first = service.submit(req.clone()).unwrap();
        assert!(!first.cached, "first submission must miss");
        let second = service.submit(req.clone()).unwrap();
        assert!(second.cached, "second submission must hit");
        assert_eq!(first.fingerprint, second.fingerprint);

        for (path, resp) in [("miss", &first), ("hit", &second)] {
            assert_eq!(
                resp.mapping.to_json().to_string_compact(),
                cold,
                "{path} path diverged from the cold pipeline"
            );
        }
    }
    let stats = service.stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 2);
    service.shutdown();
}

#[test]
fn zero_deadline_is_rejected_at_admission() {
    let service = MapService::start(ServiceConfig::default());
    let mut req = request(0, Version::InterProcessor, 7);
    req.deadline_ms = Some(0);
    match service.submit(req) {
        Err(ServiceError::DeadlineExceeded { budget_ms: 0 }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(service.stats().deadline_exceeded, 1);
}

#[test]
fn shutdown_rejects_new_submissions() {
    let service = MapService::start(ServiceConfig::default());
    service.shutdown();
    match service.submit(request(0, Version::InterProcessor, 10)) {
        Err(ServiceError::Shutdown) => {}
        other => panic!("expected Shutdown, got {other:?}"),
    }
}

#[test]
fn invalid_platform_is_a_bad_request() {
    let service = MapService::start(ServiceConfig::default());
    let mut req = request(0, Version::InterProcessor, 11);
    req.platform.num_clients = 0;
    match service.submit(req) {
        Err(ServiceError::BadRequest { .. }) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    service.shutdown();
}

#[test]
fn concurrent_misses_coalesce_to_one_compute() {
    let service = Arc::new(MapService::start(ServiceConfig::default()));
    let req = request(0, Version::InterProcessor, 0);
    let cold = cold_mapping_bytes(&req);

    const STORM: usize = 64;
    let barrier = Arc::new(Barrier::new(STORM));
    let handles: Vec<_> = (0..STORM)
        .map(|i| {
            let svc = Arc::clone(&service);
            let b = Arc::clone(&barrier);
            let mut r = req.clone();
            r.id = i as u64;
            std::thread::spawn(move || {
                b.wait();
                svc.submit(r)
            })
        })
        .collect();
    for h in handles {
        let resp = h.join().unwrap().unwrap();
        assert_eq!(
            resp.mapping.to_json().to_string_compact(),
            cold,
            "a coalesced result diverged from the cold pipeline"
        );
    }

    let stats = service.stats();
    assert_eq!(
        stats.misses, 1,
        "{STORM} concurrent misses must run the pipeline exactly once"
    );
    // Every caller is accounted for: one leader (the miss), the rest
    // either coalesced onto its flight or hit the cache it filled.
    assert_eq!(stats.hits + stats.coalesced + stats.misses, STORM as u64);
    service.shutdown();
}

#[test]
fn tenant_labels_leave_no_trace_in_the_metrics() {
    // A tenant label is free-form client input: the service must not
    // grow a series per label. One miss plus L1 hits, each with a label
    // of its own, all render without any of those labels.
    let service = MapService::start(ServiceConfig::default());
    let labels: Vec<String> = (0..24).map(|i| format!("client-label-{i:02}")).collect();
    for (i, label) in labels.iter().enumerate() {
        let mut r = request(0, Version::InterProcessor, i as u64);
        r.tenant = Some(label.clone());
        let resp = service.submit(r).expect("request maps");
        assert_eq!(resp.cached, i > 0, "request {i}: one miss, then hits");
    }
    let stats = service.stats();
    assert_eq!((stats.misses, stats.hits), (1, labels.len() as u64 - 1));
    let text = service.metrics_text();
    for line in text.lines() {
        assert!(
            !line.contains("client-label-"),
            "metrics name a tenant label: {line}"
        );
    }
    service.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_work() {
    // A drain lets the leaders already computing finish.
    let service = Arc::new(MapService::start(ServiceConfig::default()));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let svc = Arc::clone(&service);
            std::thread::spawn(move || svc.submit(request(i, Version::InterProcessor, i as u64)))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    service.shutdown();
    for h in handles {
        match h.join().unwrap() {
            Ok(_) | Err(ServiceError::Shutdown) | Err(ServiceError::DeadlineExceeded { .. }) => {}
            other => panic!("drain produced an untyped outcome: {other:?}"),
        }
    }
}

#[test]
fn l2_store_survives_restart_and_promotes_to_l1() {
    let dir = temp_dir("warm");
    let cfg = ServiceConfig {
        l2_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let req = request(0, Version::InterProcessor, 1);
    let cold = cold_mapping_bytes(&req);

    {
        let service = MapService::start(cfg.clone());
        let first = service.submit(req.clone()).unwrap();
        assert!(!first.cached, "cold run must miss");
        service.shutdown(); // flushes and seals the L2 segments
    }

    let service = MapService::start(cfg);
    let warm = service.submit(req.clone()).unwrap();
    assert!(warm.cached, "a restarted service must hit its L2 store");
    assert_eq!(
        warm.mapping.to_json().to_string_compact(),
        cold,
        "the L2 round trip must be byte-identical to the cold pipeline"
    );
    let stats = service.stats();
    assert_eq!(stats.l2_hits, 1);
    assert_eq!(stats.l2_promotions, 1);

    // The promotion means the next lookup is a pure L1 hit.
    let l1 = service.submit(req).unwrap();
    assert!(l1.cached);
    assert_eq!(service.stats().hits, 1);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scope_invalidation_sweeps_both_tiers_durably() {
    let dir = temp_dir("scope");
    let cfg = ServiceConfig {
        l2_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let req = request(0, Version::InterProcessor, 1);
    let scope = MapService::scope_fingerprint(&req.platform, req.version);

    {
        let service = MapService::start(cfg.clone());
        assert!(!service.submit(req.clone()).unwrap().cached);
        service.invalidate_scope(scope).unwrap();
        // L1 was swept: the same request recomputes.
        assert!(
            !service.submit(req.clone()).unwrap().cached,
            "scope invalidation must evict the L1 entry"
        );
        // Invalidate again and shut down with the tombstone as the
        // last durable word.
        service.invalidate_scope(scope).unwrap();
        service.shutdown();
    }

    // The tombstone survives restart: no warm hit.
    let service = MapService::start(cfg);
    assert!(
        !service.submit(req).unwrap().cached,
        "a durable scope tombstone must survive restart"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn send_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    json::parse(&reply).unwrap()
}

#[test]
fn tcp_round_trip_and_http_metrics() {
    let service = Arc::new(MapService::start(ServiceConfig::default()));
    let server = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Liveness.
    let pong = send_line(&mut stream, &mut reader, "{\"op\":\"ping\",\"id\":1}");
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(pong.get("id").and_then(Json::as_u64), Some(1));

    // A mapping over the wire, twice: miss then hit, both byte-identical
    // to the cold pipeline.
    let req = request(0, Version::InterProcessor, 2);
    let cold = cold_mapping_bytes(&req);
    let line = req.to_json().to_string_compact();
    for (round, want_cached) in [("miss", false), ("hit", true)] {
        let resp = send_line(&mut stream, &mut reader, &line);
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "{round}"
        );
        assert_eq!(
            resp.get("cached"),
            Some(&Json::Bool(want_cached)),
            "{round}"
        );
        assert_eq!(
            resp.get("mapping").unwrap().to_string_compact(),
            cold,
            "{round} mapping bytes"
        );
    }

    // A malformed line and an already-expired deadline → typed errors,
    // connection stays usable.
    let mut late = request(1, Version::InterProcessor, 5);
    late.deadline_ms = Some(0);
    for (line, code) in [
        ("{\"op\":\"fly\"}".to_string(), "bad_request"),
        (late.to_json().to_string_compact(), "deadline_exceeded"),
    ] {
        let err = send_line(&mut stream, &mut reader, &line);
        assert_eq!(err.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(code)
        );
    }

    // In-protocol stats and metrics.
    let stats = send_line(&mut stream, &mut reader, "{\"op\":\"stats\",\"id\":3}");
    let hits = stats
        .get("stats")
        .and_then(|s| s.get("hits"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(hits >= 1, "expected at least one cache hit, got {hits}");
    let metrics = send_line(&mut stream, &mut reader, "{\"op\":\"metrics\",\"id\":4}");
    let text = metrics
        .get("prometheus")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(text.contains("cachemap_service_cache_hits_total"));
    drop(reader);
    drop(stream);

    // Plain HTTP scrape on the same port.
    let mut http = TcpStream::connect(addr).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    BufReader::new(http).read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    assert!(body.contains("# TYPE cachemap_service_requests_total counter"));
    assert!(body.contains("cachemap_service_requests_total{op=\"map\",outcome=\"ok_cached\"}"));
    assert!(body.contains("cachemap_service_request_latency_seconds_bucket"));

    server.shutdown();
    service.shutdown();
}

#[test]
fn map_in_flight_during_protocol_shutdown_gets_typed_reply() {
    // A map on one connection races a shutdown sent on another: the
    // loop's drain must still answer the map typed — never a closed
    // socket. (`in_protocol_shutdown_answers_then_drains` in
    // `tests/aserver.rs` pipelines both on one connection.)
    let service = Arc::new(MapService::start(ServiceConfig::default()));
    let server = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.addr();

    let mapper = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let req = request(2, Version::InterProcessor, 77);
        let line = req.to_json().to_string_compact();
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    });

    // Once the loop has decoded the map frame, a second client asks the
    // server to stop.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.loop_stats().frames_total.load(Ordering::Relaxed) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "map frame never arrived"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let bye = send_line(&mut stream, &mut reader, "{\"op\":\"shutdown\",\"id\":9}");
    assert_eq!(bye.get("status").and_then(Json::as_str), Some("ok"));

    // Blocks until the loop has stopped accepting, answered everything
    // in flight, and flushed every reply — the drain path under test.
    server.join();

    let reply = mapper.join().unwrap();
    assert!(
        !reply.trim().is_empty(),
        "in-flight map must get a reply line, not EOF"
    );
    let v = json::parse(reply.trim()).unwrap();
    match v.get("status").and_then(Json::as_str) {
        Some("ok") => {
            assert!(v.get("mapping").is_some(), "ok reply carries the mapping");
        }
        Some("error") => {
            let code = v
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .unwrap_or("");
            assert!(!code.is_empty(), "error reply must be typed: {reply}");
        }
        other => panic!("reply neither ok nor typed error: {other:?} in {reply}"),
    }
    service.shutdown();
}

use std::io::Read;
