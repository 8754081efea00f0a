//! Request-tracing integration tests: deterministic trace identity,
//! the stage-sum ≈ total latency property, wire-level byte identity
//! with tracing off, the `trace` protocol op, and flight-recorder
//! dumps on anomaly triggers.

use cachemap_core::{MapperConfig, Version};
use cachemap_obs::{validate_flight_record, validate_trace};
use cachemap_service::aserver::AsyncServer;
use cachemap_service::{MapRequest, MapService, ServiceConfig};
use cachemap_util::json::{self, Json};
use cachemap_util::ToJson;
use cachemap_workloads::{suite, Scale};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under the system temp dir, removed again when the
/// guard drops: hold it for as long as a service may write into it.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "cachemap-trace-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn request(app_idx: usize, version: Version, id: u64) -> MapRequest {
    let apps = suite(Scale::Test);
    let app = &apps[app_idx % apps.len()];
    MapRequest {
        id,
        program: app.program.clone(),
        platform: cachemap_storage::PlatformConfig::tiny(),
        mapper: MapperConfig::default(),
        version,
        deadline_ms: None,
        tenant: None,
    }
}

fn traced_config(flight: &TempDir) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        tracing: true,
        // Debug-build computes can outlive the default 10 s budget;
        // these tests measure attribution, not deadline policing.
        default_deadline_ms: 0,
        // Anomaly dumps (e.g. on drain) stay out of the source tree.
        flight_dir: flight.0.clone(),
        ..ServiceConfig::default()
    }
}

/// Submits one request and returns its finalized trace JSON.
fn submit_and_finalize(service: &MapService, req: MapRequest) -> Json {
    let mut resp = service.submit_traced(req, 0).expect("request maps");
    let pending = resp.trace.take().expect("tracing on attaches a trace");
    service.finalize_trace(pending, Duration::ZERO)
}

#[test]
fn trace_ids_are_deterministic_across_fresh_services() {
    let (dir_a, dir_b) = (TempDir::new("traced"), TempDir::new("traced"));
    let a = MapService::start(traced_config(&dir_a));
    let b = MapService::start(traced_config(&dir_b));
    // Same submission sequence on both services → identical ids: the id
    // is derived from (content fingerprint, admission seq), never from
    // clocks or randomness.
    let mut ids_a = Vec::new();
    let mut ids_b = Vec::new();
    for (svc, ids) in [(&a, &mut ids_a), (&b, &mut ids_b)] {
        for k in 0..4u64 {
            let req = request(k as usize % 2, Version::InterProcessor, k);
            let trace = submit_and_finalize(svc, req);
            validate_trace(&trace).expect("trace schema");
            ids.push(
                trace
                    .get("trace_id")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
    }
    assert_eq!(ids_a, ids_b, "trace ids depend only on (fingerprint, seq)");
    // Distinct requests (different fingerprint or seq) get distinct ids.
    let distinct: std::collections::HashSet<&String> = ids_a.iter().collect();
    assert_eq!(distinct.len(), ids_a.len());
    for id in &ids_a {
        assert_eq!(id.len(), 16, "ids are 16 hex chars: {id}");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
    }
    a.shutdown();
    b.shutdown();
}

#[test]
fn stage_sum_tracks_end_to_end_latency() {
    // Property: over a random mix of programs, versions, and hit/miss
    // paths, the stage durations tile the request — their sum explains
    // the trace's own total within 10% (plus a 200 µs floor for the
    // sub-stage gaps: mutex handoffs, channel wakeups).
    let flight = TempDir::new("traced");
    let service = MapService::start(traced_config(&flight));
    let mut g = cachemap_util::check::Gen::from_seed(0x7ace);
    for case in 0..24 {
        let app = g.usize_in(0, 7);
        let version = if g.bool() {
            Version::InterProcessor
        } else {
            Version::InterProcessorScheduled
        };
        let trace = submit_and_finalize(&service, request(app, version, case));
        validate_trace(&trace).expect("trace schema");
        let total = trace.get("total_us").and_then(Json::as_u64).unwrap();
        let sum: u64 = trace
            .get("stages")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|s| s.get("dur_us").and_then(Json::as_u64).unwrap())
            .sum();
        let slack = total / 10 + 200;
        assert!(
            sum <= total + slack && total <= sum + slack,
            "case {case}: stage sum {sum} µs does not explain total {total} µs \
             (slack {slack} µs): {}",
            trace.to_string_compact()
        );
    }
    // Both cache outcomes were exercised (the pool is 16 templates over
    // 24 requests, so repeats must have hit).
    let stats = service.stats();
    assert!(stats.misses > 0 && stats.hits > 0);
    service.shutdown();
}

#[test]
fn compute_traces_link_the_mapper_profile() {
    let flight = TempDir::new("traced");
    let service = MapService::start(traced_config(&flight));
    let trace = submit_and_finalize(&service, request(0, Version::InterProcessor, 1));
    let stages = trace.get("stages").and_then(Json::as_array).unwrap();
    let compute = stages
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("compute"))
        .expect("a cold submission has a compute stage");
    let spans = compute
        .get("profile")
        .and_then(|p| p.get("spans"))
        .and_then(Json::as_array)
        .expect("the compute stage links the mapper profile");
    assert!(!spans.is_empty(), "profile must contain mapper phase spans");
    // The hit path carries no profile (nothing was computed).
    let hit = submit_and_finalize(&service, request(0, Version::InterProcessor, 2));
    let hit_stages = hit.get("stages").and_then(Json::as_array).unwrap();
    assert!(hit_stages
        .iter()
        .all(|s| s.get("name").and_then(Json::as_str) != Some("compute")));
    service.shutdown();
}

fn send_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply
}

fn keys(v: &Json) -> Vec<String> {
    match v {
        Json::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

#[test]
fn disabled_tracing_is_byte_identical_on_the_wire() {
    // One server with tracing off, one with tracing on, same request.
    let req_line = request(0, Version::InterProcessor, 7)
        .to_json()
        .to_string_compact();
    let mut replies = Vec::new();
    for tracing in [false, true] {
        let flight = TempDir::new("byteid");
        let service = Arc::new(MapService::start(ServiceConfig {
            workers: 2,
            tracing,
            flight_dir: flight.0.clone(),
            ..ServiceConfig::default()
        }));
        let server = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&service)).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let reply = send_line(&mut stream, &mut reader, &req_line);
        drop(reader);
        drop(stream);
        server.shutdown();
        service.shutdown();
        replies.push(reply);
    }
    let off = json::parse(&replies[0]).unwrap();
    let on = json::parse(&replies[1]).unwrap();

    // Tracing off: exactly the untraced wire format — no trace field,
    // and the line re-serializes to itself (no splicing artifacts).
    assert!(off.get("trace").is_none(), "{}", replies[0]);
    assert_eq!(replies[0].trim_end(), off.to_string_compact());

    // Tracing on: the same response plus exactly one trailing field.
    assert_eq!(replies[1].trim_end(), on.to_string_compact());
    let mut on_keys = keys(&on);
    assert_eq!(on_keys.pop().as_deref(), Some("trace"), "trace is last");
    assert_eq!(on_keys, keys(&off), "base response shape is unchanged");
    assert_eq!(
        on.get("mapping").unwrap().to_string_compact(),
        off.get("mapping").unwrap().to_string_compact(),
        "identical mapping bytes with and without tracing"
    );
    validate_trace(on.get("trace").unwrap()).expect("spliced trace schema");
}

#[test]
fn trace_op_round_trips_over_tcp() {
    let flight = TempDir::new("op");
    let service = Arc::new(MapService::start(ServiceConfig {
        workers: 2,
        tracing: true,
        flight_dir: flight.0.clone(),
        ..ServiceConfig::default()
    }));
    let server = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let req_line = request(1, Version::InterProcessor, 3)
        .to_json()
        .to_string_compact();
    let map_reply = json::parse(&send_line(&mut stream, &mut reader, &req_line)).unwrap();
    let id = map_reply
        .get("trace")
        .and_then(|t| t.get("trace_id"))
        .and_then(Json::as_str)
        .expect("map reply carries its trace id")
        .to_string();

    // Look the same trace up again by id.
    let by_id = json::parse(&send_line(
        &mut stream,
        &mut reader,
        &format!("{{\"op\":\"trace\",\"id\":4,\"trace_id\":\"{id}\"}}"),
    ))
    .unwrap();
    assert_eq!(by_id.get("status").and_then(Json::as_str), Some("ok"));
    let record = by_id.get("trace").unwrap();
    validate_trace(record).unwrap();
    assert_eq!(record.get("trace_id").and_then(Json::as_str), Some(&id[..]));

    // `last` (and the implicit default) return the most recent trace.
    let last = json::parse(&send_line(
        &mut stream,
        &mut reader,
        "{\"op\":\"trace\",\"id\":5}",
    ))
    .unwrap();
    assert_eq!(last.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        last.get("trace")
            .and_then(|t| t.get("trace_id"))
            .and_then(Json::as_str),
        Some(&id[..])
    );

    // An id that never entered the ring is a typed not_found.
    let missing = json::parse(&send_line(
        &mut stream,
        &mut reader,
        "{\"op\":\"trace\",\"id\":6,\"trace_id\":\"00ff00ff00ff00ff\"}",
    ))
    .unwrap();
    assert_eq!(missing.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        missing
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("not_found")
    );

    server.shutdown();
    service.shutdown();
}

#[test]
fn tracing_off_answers_trace_ops_not_found() {
    let service = Arc::new(MapService::start(ServiceConfig {
        workers: 2,
        tracing: false,
        ..ServiceConfig::default()
    }));
    let server = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let reply = json::parse(&send_line(
        &mut stream,
        &mut reader,
        "{\"op\":\"trace\",\"id\":1}",
    ))
    .unwrap();
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("not_found")
    );
    server.shutdown();
    service.shutdown();
}

#[test]
fn anomaly_triggers_dump_validating_flight_records() {
    let dir = TempDir::new("dumps");
    let service = MapService::start(ServiceConfig {
        // Every compute is "slow" at a 1 ms threshold, so the slow-
        // request trigger must fire on the first cold mapping.
        slow_trace_ms: 1,
        ..traced_config(&dir)
    });

    // Slow request: one cold compute takes well over 1 ms.
    let trace = submit_and_finalize(&service, request(0, Version::InterProcessor, 1));
    assert!(trace.get("total_us").and_then(Json::as_u64).unwrap() > 1_000);

    // Rejection burst: 8 rejected-of-last-16 traced records. The
    // expired-deadline gate sits past the cache lookups, so the burst
    // uses fingerprints that cannot be cached yet (scheduled version).
    for k in 0..8u64 {
        let mut r = request(k as usize, Version::InterProcessorScheduled, 10 + k);
        r.deadline_ms = Some(0); // expired at admission → traced rejection
        assert!(service.submit_traced(r, 0).is_err());
    }

    // Drain: the graceful shutdown dumps the remaining ring.
    service.shutdown();

    let mut seen = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(&dir.0).expect("flight dir was created") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        assert!(
            name.starts_with("flight-") && name.ends_with(".json"),
            "unexpected file {name}"
        );
        let parsed = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        validate_flight_record(&parsed).unwrap_or_else(|errs| {
            panic!("{name} violates the flight schema: {errs:?}");
        });
        let trigger = parsed
            .get("trigger")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        // Dump context carries the admission queue state.
        assert!(parsed.get("queue_depth").is_some(), "{name}: no context");
        seen.insert(trigger);
    }
    for trigger in ["slow_request", "rejection_burst", "drain"] {
        assert!(seen.contains(trigger), "missing a {trigger} dump: {seen:?}");
    }
}

#[test]
fn torn_l2_tail_dumps_a_recovery_flight_record() {
    let dir = TempDir::new("l2");
    let flight = TempDir::new("recovery");
    let cfg = ServiceConfig {
        l2_dir: Some(dir.0.clone()),
        ..traced_config(&flight)
    };
    {
        let service = MapService::start(cfg.clone());
        assert!(
            !service
                .submit(request(0, Version::InterProcessor, 1))
                .unwrap()
                .cached
        );
        service.shutdown();
    }
    // Tear the tail of the newest segment (a partial final write).
    let mut segs: Vec<_> = std::fs::read_dir(&dir.0)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    // The newest segment may be a freshly rotated empty one; tear the
    // newest segment that actually holds records.
    let seg = segs
        .into_iter()
        .rev()
        .find(|p| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
        .expect("the L2 store wrote a non-empty segment");
    let len = std::fs::metadata(&seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - len.min(17))
        .unwrap();

    // Restart on the torn directory: recovery truncates and dumps.
    let service = MapService::start(cfg);
    let dumps: Vec<_> = std::fs::read_dir(&flight.0)
        .expect("recovery dump dir")
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("flight-recovery-"))
        })
        .collect();
    assert_eq!(dumps.len(), 1, "torn tail must dump one recovery record");
    let parsed = json::parse(&std::fs::read_to_string(dumps[0].path()).unwrap()).unwrap();
    validate_flight_record(&parsed).unwrap();
    assert!(
        parsed.get("bytes_truncated").and_then(Json::as_u64) > Some(0)
            || parsed.get("segments_truncated").and_then(Json::as_u64) > Some(0),
        "recovery context records what was truncated: {}",
        parsed.to_string_compact()
    );
    service.shutdown();
}
