//! Async front-end integration tests: wire identity with in-process
//! dispatch, pipelined reply order, write backpressure, a slow-loris
//! peer held to the idle deadline on a simulated clock, capacity
//! limits, and metric preregistration.

use cachemap_core::{Mapper, MapperConfig, Version};
use cachemap_polyhedral::DataSpace;
use cachemap_service::aserver::{AsyncServer, AsyncServerConfig};
use cachemap_service::{dispatch, MapRequest, MapService, ServiceConfig};
use cachemap_storage::{HierarchyTree, PlatformConfig};
use cachemap_util::{Clock, Json, ToJson};
use cachemap_workloads::{suite, Scale};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn service() -> Arc<MapService> {
    Arc::new(MapService::start(ServiceConfig::default()))
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

fn round_trip(addr: std::net::SocketAddr, line: &str) -> String {
    let mut c = TcpStream::connect(addr).unwrap();
    c.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut r = BufReader::new(c);
    let mut reply = String::new();
    r.read_line(&mut reply).unwrap();
    reply
}

#[test]
fn replies_are_byte_identical_to_the_threaded_server() {
    // The name is kept from the threaded server this test first
    // compared against. That server wrote exactly what
    // `dispatch::dispatch_line` returns, so in-process dispatch is the
    // reference the wire must match.
    let svc = service();
    let async_srv = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&svc)).unwrap();

    for (idx, version) in [(0, Version::InterProcessor), (1, Version::IntraProcessor)] {
        let req = request(idx, version, 7 + idx as u64);
        let line = req.to_json().to_string_compact();
        let wire = round_trip(async_srv.addr(), &line);
        let local = dispatch::dispatch_line(&svc, &line).reply;
        // Map replies embed per-submission fields (`service_us`,
        // `cached`), so whole-line equality cannot hold across two
        // submissions; the payload that must agree — byte for byte —
        // is the mapping itself, and both must match the cold oracle.
        let oracle = format!("\"mapping\":{}", cold_mapping_bytes(&req));
        assert!(wire.contains(&oracle), "wire reply lacks the cold mapping");
        assert!(
            local.contains(&oracle),
            "dispatched reply lacks the cold mapping"
        );
        for reply in [&wire, &local] {
            assert!(reply.contains("\"status\":\"ok\""), "{reply}");
            assert!(reply.contains(&format!("\"id\":{}", req.id)), "{reply}");
        }
    }
    // Control-plane ops agree byte for byte (ping here; stats/metrics
    // answers embed live counters that the wire request itself moves).
    let ping = "{\"id\":3,\"op\":\"ping\"}";
    assert_eq!(
        round_trip(async_srv.addr(), ping),
        format!("{}\n", dispatch::dispatch_line(&svc, ping).reply)
    );
}

#[test]
fn http_metrics_scrape_works_and_preregisters_aio_schema() {
    let svc = service();
    let async_srv = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    // Preregistration: the families exist (at zero) before any traffic.
    let text = svc.metrics_text();
    for family in [
        "cachemap_aio_connections",
        "cachemap_aio_wakeups_total",
        "cachemap_aio_batch_size",
        "cachemap_aio_backpressure_total",
        "cachemap_aio_rejected_total",
        "cachemap_aio_stalls_total",
    ] {
        assert!(text.contains(family), "missing preregistered {family}");
    }
    // Plain HTTP scrape against the async port.
    let mut c = TcpStream::connect(async_srv.addr()).unwrap();
    c.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    c.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    assert!(
        body.contains("cachemap_aio_connections"),
        "scrape lacks aio gauge"
    );
    assert!(body.contains("text/plain; version=0.0.4"));
}

/// A map reply without the fields that differ between a computed, a
/// coalesced and a cached answer to the same request (`cached`,
/// `service_us`).
fn without_submission_fields(reply: &str) -> String {
    match cachemap_util::json::parse(reply).unwrap() {
        Json::Object(pairs) => Json::Object(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "cached" && k != "service_us")
                .collect(),
        )
        .to_string_compact(),
        other => panic!("reply is not an object: {other:?}"),
    }
}

#[test]
fn pipelined_replies_come_back_in_request_order() {
    // One write: a cold map, pings that finish long before it, the same
    // map line again (it coalesces with or hits the first), and a second
    // cold map. The dispatchers finish these out of order; the loop
    // must still write the replies in request order.
    let svc = service();
    let async_srv = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let first = request(0, Version::InterProcessor, 1);
    let second = request(1, Version::IntraProcessor, 7);
    let first_line = first.to_json().to_string_compact();
    let mut lines = vec![first_line.clone()];
    lines.extend((2..=6).map(|id| format!("{{\"id\":{id},\"op\":\"ping\"}}")));
    lines.extend((0..4).map(|_| first_line.clone()));
    lines.push(second.to_json().to_string_compact());
    let ids = [1, 2, 3, 4, 5, 6, 1, 1, 1, 1, 7];
    let burst: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut c = TcpStream::connect(async_srv.addr()).unwrap();
    c.write_all(burst.as_bytes()).unwrap();
    let mut r = BufReader::new(c);
    let replies: Vec<String> = (0..lines.len())
        .map(|_| {
            let mut reply = String::new();
            r.read_line(&mut reply).unwrap();
            reply
        })
        .collect();
    for (reply, id) in replies.iter().zip(ids) {
        let parsed = cachemap_util::json::parse(reply).unwrap();
        assert_eq!(
            parsed.get("id").and_then(Json::as_u64),
            Some(id),
            "replies out of request order: {reply}"
        );
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
    }
    let first_oracle = format!("\"mapping\":{}", cold_mapping_bytes(&first));
    for k in [0, 6, 7, 8, 9] {
        assert!(
            replies[k].contains(&first_oracle),
            "reply {k} lacks the cold mapping"
        );
    }
    let second_oracle = format!("\"mapping\":{}", cold_mapping_bytes(&second));
    assert!(
        replies[10].contains(&second_oracle),
        "second map lacks its cold mapping"
    );
    let repeated: Vec<String> = [0, 6, 7, 8, 9]
        .iter()
        .map(|&k| without_submission_fields(&replies[k]))
        .collect();
    assert!(
        repeated.iter().all(|x| x == &repeated[0]),
        "answers to one repeated line differ"
    );
}

#[test]
fn slow_loris_hits_idle_deadline_with_typed_error_and_no_sleeping() {
    let svc = service();
    let clock = Arc::new(Clock::simulated());
    let cfg = AsyncServerConfig {
        idle_timeout_ms: 30_000,
        clock: Arc::clone(&clock),
        ..AsyncServerConfig::default()
    };
    let async_srv = AsyncServer::spawn_with("127.0.0.1:0", Arc::clone(&svc), cfg).unwrap();
    let mut c = TcpStream::connect(async_srv.addr()).unwrap();
    // A frame that never ends: no newline follows, so nothing reaches
    // the dispatchers and only the idle deadline can free the slot.
    let partial = b"{\"id\":1,\"op\":\"ping\"}";
    c.write_all(partial).unwrap();
    // The deadline runs from the last byte read, so let the loop read
    // the partial frame before the clock moves.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while async_srv
        .loop_stats()
        .bytes_read_total
        .load(Ordering::Relaxed)
        < partial.len() as u64
    {
        assert!(
            std::time::Instant::now() < deadline,
            "partial frame never read"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let t0 = std::time::Instant::now();
    async_srv.advance_clock(31_000_000_000);
    let mut r = BufReader::new(c);
    let mut reply = String::new();
    r.read_line(&mut reply).unwrap();
    assert!(reply.contains("read_timeout"), "{reply}");
    assert!(reply.contains("\"status\":\"error\""), "{reply}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "30 virtual seconds must not cost real time"
    );
    // And the stream really is closed (EOF, not a hang).
    reply.clear();
    assert_eq!(r.read_line(&mut reply).unwrap(), 0, "{reply}");
    assert_eq!(svc.front_end_rejections("read_timeout"), 1);
}

#[test]
fn unread_replies_pause_the_connection_then_all_arrive_in_order() {
    // A client that pipelines a burst of `metrics` requests (each reply
    // carries the whole Prometheus text, ~13 KB) and reads nothing: the
    // replies fill the socket buffers, then the connection's write
    // buffer passes its cap and the loop stops reading from it.
    const REQUESTS: u64 = 800;
    let svc = service();
    let async_srv = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let mut c = TcpStream::connect(async_srv.addr()).unwrap();
    let burst: String = (0..REQUESTS)
        .map(|id| format!("{{\"id\":{id},\"op\":\"metrics\"}}\n"))
        .collect();
    c.write_all(burst.as_bytes()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while async_srv
        .loop_stats()
        .backpressure_total
        .load(Ordering::Relaxed)
        == 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "an unread reply backlog never paused the connection"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Reading resumes the connection: every reply arrives, in order.
    let mut r = BufReader::new(c);
    for id in 0..REQUESTS {
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
        let parsed = cachemap_util::json::parse(&reply).unwrap();
        assert_eq!(
            parsed.get("id").and_then(Json::as_u64),
            Some(id),
            "replies out of request order"
        );
        assert!(
            parsed.get("prometheus").and_then(Json::as_str).is_some(),
            "reply {id} is not a metrics answer"
        );
    }
}

#[test]
fn over_capacity_connection_gets_typed_conn_limit() {
    let svc = service();
    let cfg = AsyncServerConfig {
        max_connections: 2,
        ..AsyncServerConfig::default()
    };
    let async_srv = AsyncServer::spawn_with("127.0.0.1:0", Arc::clone(&svc), cfg).unwrap();
    let a = TcpStream::connect(async_srv.addr()).unwrap();
    let _b = TcpStream::connect(async_srv.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(80)); // let both register
    let third = TcpStream::connect(async_srv.addr()).unwrap();
    let mut r = BufReader::new(third);
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(line.contains("conn_limit"), "{line}");
    assert!(line.contains("\"status\":\"error\""), "{line}");
    // The refusal never became a request, but `/metrics` still shows it.
    assert_eq!(svc.front_end_rejections("conn_limit"), 1);

    // Releasing a slot readmits new connections. The loop frees the
    // slot once it observes the close; poll briefly rather than race it.
    // A still-refused attempt may see its write or read reset, so
    // errors count as "not yet".
    drop(a);
    let admitted = (0..100).any(|_| {
        let pong = TcpStream::connect(async_srv.addr())
            .and_then(|mut c| {
                c.write_all(b"{\"id\":9,\"op\":\"ping\"}\n")?;
                let mut reply = String::new();
                BufReader::new(c).read_line(&mut reply)?;
                Ok(reply.contains("\"pong\":true"))
            })
            .unwrap_or(false);
        if !pong {
            std::thread::sleep(Duration::from_millis(10));
        }
        pong
    });
    assert!(admitted, "freed slot was never reused");
}

#[test]
fn idle_connection_fleet_is_held_under_the_cap() {
    let svc = service();
    let cfg = AsyncServerConfig {
        max_connections: 600,
        idle_timeout_ms: 0, // hold them open
        ..AsyncServerConfig::default()
    };
    let async_srv = AsyncServer::spawn_with("127.0.0.1:0", Arc::clone(&svc), cfg).unwrap();
    let mut held = Vec::new();
    for _ in 0..512 {
        held.push(TcpStream::connect(async_srv.addr()).unwrap());
    }
    // Wait for the loop to register all of them.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let n = async_srv
            .loop_stats()
            .connections
            .load(std::sync::atomic::Ordering::Relaxed);
        if n >= 512 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "only {n}/512 registered"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The fleet being parked must not break request service.
    let reply = round_trip(async_srv.addr(), "{\"id\":5,\"op\":\"ping\"}");
    assert!(reply.contains("\"pong\":true"), "{reply}");
}

#[test]
fn chunked_writes_reassemble_into_one_frame() {
    let svc = service();
    let async_srv = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let req = request(2, Version::InterProcessor, 11);
    let mut line = req.to_json().to_string_compact();
    line.push('\n');
    let mut c = TcpStream::connect(async_srv.addr()).unwrap();
    for chunk in line.as_bytes().chunks(7) {
        c.write_all(chunk).unwrap();
        c.flush().unwrap();
    }
    let mut r = BufReader::new(c);
    let mut reply = String::new();
    r.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");
    assert!(
        reply.contains(&format!("\"mapping\":{}", cold_mapping_bytes(&req))),
        "chunked request must map identically"
    );
}

#[test]
fn in_protocol_shutdown_answers_then_drains() {
    let svc = service();
    let async_srv = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let req = request(3, Version::IntraProcessor, 21);
    let mut c = TcpStream::connect(async_srv.addr()).unwrap();
    // A map and a shutdown pipelined together: the map in flight when
    // the shutdown lands must still get its reply.
    let burst = format!(
        "{}\n{{\"id\":22,\"op\":\"shutdown\"}}\n",
        req.to_json().to_string_compact()
    );
    c.write_all(burst.as_bytes()).unwrap();
    let mut r = BufReader::new(c);
    let mut map_reply = String::new();
    r.read_line(&mut map_reply).unwrap();
    let mut shutdown_reply = String::new();
    r.read_line(&mut shutdown_reply).unwrap();
    let both = format!("{map_reply}{shutdown_reply}");
    assert!(both.contains("\"mapping\":"), "map reply missing: {both}");
    assert!(both.contains("\"stopping\":true"), "{both}");
    async_srv.join(); // exits on its own from the in-protocol shutdown
                      // New connections are refused once the loop is gone.
    assert!(
        TcpStream::connect(async_srv.addr())
            .map(|mut s| {
                let mut buf = [0u8; 1];
                matches!(s.read(&mut buf), Ok(0) | Err(_))
            })
            .unwrap_or(true),
        "listener should be closed after shutdown"
    );
}

#[test]
fn frame_too_large_is_rejected_with_typed_error() {
    let svc = service();
    let cfg = AsyncServerConfig {
        max_frame_bytes: 1024,
        ..AsyncServerConfig::default()
    };
    let async_srv = AsyncServer::spawn_with("127.0.0.1:0", Arc::clone(&svc), cfg).unwrap();
    let mut c = TcpStream::connect(async_srv.addr()).unwrap();
    c.write_all(&vec![b'x'; 4096]).unwrap(); // no terminator
    let mut r = BufReader::new(c);
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(line.contains("bad_request"), "{line}");
}
