//! Robustness storm for the mapping service (`repro serve-storm`).
//!
//! This harness attacks the failure paths of the two-tier cache stack,
//! in four phases over one live [`AsyncServer`] + crash-durable L2
//! directory:
//!
//! 1. **Hot-fingerprint barrage** — many connections fire the *same*
//!    request simultaneously at a cold service. Exactly **one** reply
//!    may report `cached: false` (single pipeline run, asserted both on
//!    the wire and against the service's miss counter); every reply
//!    must be byte-identical to the cold oracle. Each barrage frame is
//!    its own service submission, and at least one request must attach
//!    to the in-flight computation, so the coalescer is really
//!    exercised.
//! 2. **Pre-kill zipf campaign** — closed-loop clients replay a seeded
//!    zipf mix; mid-campaign the service is **killed** (crash
//!    simulation: admission stops, nothing is sealed) and every request
//!    sent after the kill must come back with a typed error.
//! 3. **Torn-tail restart** — the tail of the active L2 segment is
//!    truncated (a partial final write), the service is restarted on
//!    the same directory, and the zipf campaign re-runs. Recovery must
//!    succeed and the warm hit rate must reach at least 80% of the
//!    pre-kill rate. Every served reply of this phase must carry a
//!    trace, and the per-stage durations around the median request
//!    (`parse_us`, `l1_us`, `serialize_us`, …) must sum to within 10%
//!    of the service-observed p50 — a standing check that the trace
//!    timeline tiles the latency it claims to explain.
//! 4. **Drain under load** — with clients still hammering, a graceful
//!    shutdown runs; every request is answered (a mapping, or a typed
//!    error once admission has stopped — zero untyped drops), and the
//!    drain duration lands in the stats.

use crate::serve::{
    build_templates, connect, frames, scrape_metrics, validate_prometheus, Template, Zipf,
};
use cachemap_service::aserver::AsyncServer;
use cachemap_service::{MapService, ServiceConfig, TRACE_STAGES};
use cachemap_util::check::Gen;
use cachemap_util::{json, Json, ToJson};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Storm-campaign knobs.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// RNG seed for the zipf phases.
    pub seed: u64,
    /// Simultaneous connections in the hot-fingerprint barrage.
    pub storm_connections: usize,
    /// Requests per zipf phase (pre-kill and post-restart).
    pub zipf_requests: usize,
    /// Closed-loop client threads per zipf phase.
    pub clients: usize,
    /// Workload applications in the template pool (`0` = all eight).
    pub apps: usize,
    /// L2 cache directory; `None` uses a per-run temp directory that is
    /// removed afterwards.
    pub l2_dir: Option<PathBuf>,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            seed: 42,
            storm_connections: 64,
            zipf_requests: 800,
            clients: 8,
            apps: 0,
            l2_dir: None,
        }
    }
}

impl StormConfig {
    /// A small configuration for CI smoke runs and debug-build tests.
    pub fn smoke(seed: u64) -> Self {
        StormConfig {
            seed,
            storm_connections: 16,
            zipf_requests: 120,
            clients: 4,
            apps: 2,
            l2_dir: None,
        }
    }
}

/// Aggregated storm results.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// The seed the campaign ran with.
    pub seed: u64,
    /// Connections in the hot-fingerprint barrage.
    pub storm_connections: usize,
    /// Replies in the barrage that reported `cached: false` (must be 1).
    pub storm_computes: u64,
    /// Requests that attached to the in-flight computation.
    pub storm_coalesced: u64,
    /// Barrage replies whose trace carried a `follower` coalesce span —
    /// must equal `storm_coalesced`: every waiter can point at the
    /// in-flight computation it waited on.
    pub storm_follower_spans: u64,
    /// `flight-slow_request-*.json` dumps left behind by the campaign.
    pub slow_dumps: u64,
    /// `flight-recovery-*.json` dumps from the torn-tail restart.
    pub recovery_dumps: u64,
    /// `flight-drain-*.json` dumps from the graceful shutdown.
    pub drain_dumps: u64,
    /// Successful zipf replies before the kill.
    pub prekill_served: u64,
    /// Typed rejections during the kill window.
    pub prekill_rejected: u64,
    /// Cache hit rate over the pre-kill zipf phase.
    pub prekill_hit_rate: f64,
    /// Bytes torn off the active L2 segment before restart.
    pub torn_bytes: u64,
    /// L2 index entries recovered at restart.
    pub recovered_entries: u64,
    /// Successful zipf replies after the restart.
    pub postrestart_served: u64,
    /// Cache hit rate over the post-restart zipf phase.
    pub postrestart_hit_rate: f64,
    /// `postrestart_hit_rate / prekill_hit_rate` (the ≥ 0.8 gate).
    pub warm_ratio: f64,
    /// Post-restart replies that carried a trace (must equal
    /// `postrestart_served`).
    pub traced: u64,
    /// Median post-restart trace total (µs) — the latency the service
    /// itself observed, parse through serialize.
    pub service_p50_us: u64,
    /// Per-stage latency attribution (µs), averaged over the
    /// post-restart traces whose total sits in the middle decile around
    /// the median — so the stage values sum to (about) the median
    /// request's timeline.
    pub stages: BTreeMap<String, u64>,
    /// Sum of the attribution columns (µs); gated within 10% of
    /// `service_p50_us`.
    pub stage_sum_us: u64,
    /// Requests issued during the drain-under-load phase.
    pub drain_requests: u64,
    /// Of those, served with a mapping.
    pub drain_served: u64,
    /// Of those, rejected with a typed error code.
    pub drain_rejected_typed: u64,
    /// Duration of the graceful drain in seconds.
    pub drain_seconds: f64,
    /// Campaign wall-clock (ms).
    pub elapsed_ms: f64,
    /// Scraped `/metrics` passed the Prometheus schema check.
    pub metrics_schema_ok: bool,
}

fn owned(pairs: Vec<(&str, Json)>) -> Vec<(String, Json)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

impl ToJson for StormReport {
    fn to_json(&self) -> Json {
        let mut pairs = owned(vec![
            ("bench", Json::Str("serve-storm".into())),
            ("seed", Json::UInt(self.seed)),
            (
                "storm_connections",
                Json::UInt(self.storm_connections as u64),
            ),
            ("storm_computes", Json::UInt(self.storm_computes)),
            ("storm_coalesced", Json::UInt(self.storm_coalesced)),
            (
                "storm_follower_spans",
                Json::UInt(self.storm_follower_spans),
            ),
            ("slow_dumps", Json::UInt(self.slow_dumps)),
            ("recovery_dumps", Json::UInt(self.recovery_dumps)),
            ("drain_dumps", Json::UInt(self.drain_dumps)),
            ("prekill_served", Json::UInt(self.prekill_served)),
            ("prekill_rejected", Json::UInt(self.prekill_rejected)),
            ("prekill_hit_rate", Json::Float(self.prekill_hit_rate)),
            ("torn_bytes", Json::UInt(self.torn_bytes)),
            ("recovered_entries", Json::UInt(self.recovered_entries)),
            ("postrestart_served", Json::UInt(self.postrestart_served)),
            (
                "postrestart_hit_rate",
                Json::Float(self.postrestart_hit_rate),
            ),
            ("warm_ratio", Json::Float(self.warm_ratio)),
            ("traced", Json::UInt(self.traced)),
            ("service_p50_us", Json::UInt(self.service_p50_us)),
        ]);
        // Per-stage attribution columns, one `<stage>_us` key each, in
        // the trace's stage order.
        for stage in TRACE_STAGES {
            if let Some(us) = self.stages.get(stage) {
                pairs.push((format!("{stage}_us"), Json::UInt(*us)));
            }
        }
        pairs.extend(owned(vec![
            ("stage_sum_us", Json::UInt(self.stage_sum_us)),
            ("drain_requests", Json::UInt(self.drain_requests)),
            ("drain_served", Json::UInt(self.drain_served)),
            (
                "drain_rejected_typed",
                Json::UInt(self.drain_rejected_typed),
            ),
            ("drain_seconds", Json::Float(self.drain_seconds)),
            ("elapsed_ms", Json::Float(self.elapsed_ms)),
            ("metrics_schema_ok", Json::Bool(self.metrics_schema_ok)),
        ]));
        Json::Object(pairs)
    }
}

fn service_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        l2_dir: Some(dir.to_path_buf()),
        drain_limit_ms: 10_000,
        // Tracing on with a 1 ms slow-request threshold: the storm is
        // built out of anomalies, so it must leave flight dumps behind
        // (slow coalesce waits, the torn-tail recovery, the drain).
        tracing: true,
        slow_trace_ms: 1,
        flight_dir: dir.join("flight"),
        ..ServiceConfig::default()
    }
}

/// Fronts `service` with a default async server on an ephemeral port.
fn spawn_server(service: &Arc<MapService>) -> Result<AsyncServer, String> {
    AsyncServer::spawn("127.0.0.1:0", Arc::clone(service)).map_err(|e| format!("bind: {e}"))
}

/// Counts `flight-<trigger>-*.json` dumps in the flight directory.
fn count_dumps(dir: &Path, trigger: &str) -> u64 {
    let prefix = format!("flight-{trigger}-");
    std::fs::read_dir(dir.join("flight"))
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".json"))
                })
                .count() as u64
        })
        .unwrap_or(0)
}

/// One barrage shooter: connect, wait for the barrier, fire the hot
/// frame once, parse the reply. Returns `(cached, follower)` — whether
/// the reply came from cache, and whether its trace carries a coalesce
/// span tagged `follower` (the request waited on the leader's compute).
fn fire_hot(
    addr: SocketAddr,
    barrier: &Barrier,
    frame: &[u8],
    cold_bytes: &str,
) -> Result<(bool, bool), String> {
    let mut stream = connect(addr)?;
    barrier.wait();
    stream.write_all(frame).map_err(|e| format!("write: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    let v = json::parse(&reply).map_err(|e| format!("bad reply json: {e}"))?;
    if v.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("storm reply was not ok: {}", reply.trim()));
    }
    let got = v
        .get("mapping")
        .ok_or("ok reply without a mapping")?
        .to_string_compact();
    if got != cold_bytes {
        return Err("storm mapping diverged from the cold oracle".into());
    }
    let follower = v
        .get("trace")
        .and_then(|t| t.get("stages"))
        .and_then(Json::as_array)
        .is_some_and(|stages| {
            stages.iter().any(|s| {
                s.get("name").and_then(Json::as_str) == Some("coalesce")
                    && s.get("role").and_then(Json::as_str) == Some("follower")
            })
        });
    Ok((v.get("cached") == Some(&Json::Bool(true)), follower))
}

struct ClientTally {
    hits: u64,
    computed: u64,
    rejections: BTreeMap<String, u64>,
    /// Per traced reply: `(trace total_us, per-stage duration sums)`.
    traces: Vec<(u64, BTreeMap<String, u64>)>,
}

/// Pulls `(total_us, per-stage sums)` out of a reply's `trace` object.
fn digest_trace(trace: &Json) -> Option<(u64, BTreeMap<String, u64>)> {
    let total = trace.get("total_us").and_then(Json::as_u64)?;
    let mut stages: BTreeMap<String, u64> = BTreeMap::new();
    for s in trace.get("stages").and_then(Json::as_array)? {
        let name = s.get("name").and_then(Json::as_str)?;
        let dur = s.get("dur_us").and_then(Json::as_u64)?;
        *stages.entry(name.to_string()).or_insert(0) += dur;
    }
    Some((total, stages))
}

/// One closed-loop client: `requests` zipf-picked templates over one
/// connection, each reply checked before the next request goes out.
/// Served mappings must match the cold oracle byte for byte, and
/// rejections must carry a typed code.
fn drive_client(
    addr: SocketAddr,
    templates: &[Template],
    zipf: &Zipf,
    seed: u64,
    requests: usize,
) -> Result<ClientTally, String> {
    let frames = frames(templates);
    let mut conn = BufReader::new(connect(addr)?);
    let mut g = Gen::from_seed(seed);
    let mut tally = ClientTally {
        hits: 0,
        computed: 0,
        rejections: BTreeMap::new(),
        traces: Vec::new(),
    };
    let mut reply = String::new();
    for k in 0..requests {
        let pick = zipf.sample(&mut g);
        conn.get_mut()
            .write_all(&frames[pick])
            .map_err(|e| format!("request {k}: write: {e}"))?;
        reply.clear();
        conn.read_line(&mut reply)
            .map_err(|e| format!("request {k}: read: {e}"))?;
        if reply.is_empty() {
            return Err(format!("request {k}: connection closed without a reply"));
        }
        let v = json::parse(&reply).map_err(|e| format!("request {k}: bad reply json: {e}"))?;
        match v.get("status").and_then(Json::as_str) {
            Some("ok") => {
                let mapping = v
                    .get("mapping")
                    .ok_or_else(|| format!("request {k}: ok reply without a mapping"))?;
                let got = mapping.to_string_compact();
                let want = &templates[pick].cold_bytes;
                if &got != want {
                    return Err(format!(
                        "request {k}: mapping diverged from the cold pipeline \
                         ({} vs {} bytes)",
                        got.len(),
                        want.len()
                    ));
                }
                if v.get("cached") == Some(&Json::Bool(true)) {
                    tally.hits += 1;
                } else {
                    tally.computed += 1;
                }
                if let Some(trace) = v.get("trace").and_then(digest_trace) {
                    tally.traces.push(trace);
                }
            }
            Some("error") => {
                let code = v
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("request {k}: error reply without a code"))?;
                *tally.rejections.entry(code.to_string()).or_insert(0) += 1;
            }
            other => return Err(format!("request {k}: unrecognized status {other:?}")),
        }
    }
    Ok(tally)
}

/// Per-stage latency attribution over one phase's traces.
struct Attribution {
    /// Median trace total (µs).
    service_p50_us: u64,
    /// Per-stage means (µs) over the middle decile around the median.
    stages: BTreeMap<String, u64>,
    /// Sum of `stages` (µs).
    stage_sum_us: u64,
}

/// Averages the traces whose total sits in the middle decile around the
/// median, so the columns describe the median request's timeline (and
/// therefore sum to ≈ the service-observed p50).
fn attribute(mut traces: Vec<(u64, BTreeMap<String, u64>)>) -> Attribution {
    traces.sort_by_key(|(total, _)| *total);
    let service_p50_us = traces.get(traces.len() / 2).map_or(0, |(t, _)| *t);
    if traces.is_empty() {
        return Attribution {
            service_p50_us,
            stages: BTreeMap::new(),
            stage_sum_us: 0,
        };
    }
    let lo = traces.len() * 45 / 100;
    let hi = (traces.len() * 55 / 100 + 1).min(traces.len());
    let window = &traces[lo..hi];
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    for (_, per_stage) in window {
        for (name, us) in per_stage {
            *sums.entry(name.clone()).or_insert(0) += us;
        }
    }
    let n = window.len() as u64;
    let stages: BTreeMap<String, u64> = sums.into_iter().map(|(k, v)| (k, v / n)).collect();
    let stage_sum_us = stages.values().sum();
    Attribution {
        service_p50_us,
        stages,
        stage_sum_us,
    }
}

/// The newest `seg-*.log` file in the L2 directory.
fn last_segment(dir: &Path) -> Option<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    segs.pop()
}

struct ZipfOutcome {
    served: u64,
    rejected: u64,
    hit_rate: f64,
    rejections: BTreeMap<String, u64>,
    traces: Vec<(u64, BTreeMap<String, u64>)>,
}

/// Answered-request total so far (all cache tiers + computes + waits).
fn answered(svc: &MapService) -> u64 {
    let s = svc.stats();
    s.hits + s.l2_hits + s.misses + s.coalesced
}

/// Runs one closed-loop zipf campaign; optionally kills `victim` once
/// roughly half the phase's requests have been answered.
fn zipf_phase(
    addr: SocketAddr,
    templates: &[Template],
    cfg: &StormConfig,
    phase_seed: u64,
    victim: Option<&Arc<MapService>>,
) -> Result<ZipfOutcome, String> {
    let zipf = Zipf::new(templates.len());
    let clients = cfg.clients.max(1);
    let killer = victim.map(|svc| {
        let svc = Arc::clone(svc);
        let half = (cfg.zipf_requests / 2) as u64;
        let baseline = answered(&svc);
        std::thread::spawn(move || {
            // Kill mid-campaign (or after a hard 10s backstop, so a
            // stall cannot hang the harness).
            let deadline = Instant::now() + Duration::from_secs(10);
            while answered(&svc) - baseline < half && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            svc.kill();
        })
    });

    // Scoped threads (not the shared pool): the kill must be able to
    // land while clients are mid-flight.
    let tallies: Vec<Result<ClientTally, String>> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..clients)
            .map(|c| {
                let share =
                    cfg.zipf_requests / clients + usize::from(c < cfg.zipf_requests % clients);
                let seed = phase_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (c as u64 + 1);
                let zipf = &zipf;
                s.spawn(move || drive_client(addr, templates, zipf, seed, share))
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err("zipf client panicked".into()))
            })
            .collect()
    });
    if let Some(k) = killer {
        let _ = k.join();
    }

    let mut served = 0u64;
    let mut hits = 0u64;
    let mut rejections: BTreeMap<String, u64> = BTreeMap::new();
    let mut traces = Vec::new();
    for tally in tallies {
        let tally = tally?;
        served += tally.hits + tally.computed;
        hits += tally.hits;
        for (code, n) in tally.rejections {
            *rejections.entry(code).or_insert(0) += n;
        }
        traces.extend(tally.traces);
    }
    let rejected: u64 = rejections.values().sum();
    // Zero untyped drops: every request in the phase is accounted for.
    if (served + rejected) as usize != cfg.zipf_requests {
        return Err(format!(
            "phase dropped requests silently: {served} served + {rejected} rejected != {}",
            cfg.zipf_requests
        ));
    }
    let hit_rate = if served == 0 {
        0.0
    } else {
        hits as f64 / served as f64
    };
    Ok(ZipfOutcome {
        served,
        rejected,
        hit_rate,
        rejections,
        traces,
    })
}

/// Runs the full storm. Panics (via `Err`) on any violated invariant.
pub fn run(cfg: &StormConfig) -> Result<StormReport, String> {
    let t0 = Instant::now();
    let own_dir = cfg.l2_dir.is_none();
    let dir = cfg.l2_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "cachemap-storm-{}-{}",
            cfg.seed,
            std::process::id()
        ))
    });
    if own_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let templates = build_templates(cfg.apps);

    // ---- Phase 1 + 2: cold service, hot barrage, then zipf + kill.
    let service = Arc::new(MapService::start(service_config(&dir)));
    let server = spawn_server(&service)?;
    let addr = server.addr();

    let shooters = cfg.storm_connections.max(2);
    let barrier = Arc::new(Barrier::new(shooters));
    let hot_frame = frames(&templates[..1]).remove(0);
    let hot_cold = templates[0].cold_bytes.clone();
    let storm_joins: Vec<_> = (0..shooters)
        .map(|_| {
            let b = Arc::clone(&barrier);
            let frame = hot_frame.clone();
            let cold = hot_cold.clone();
            std::thread::spawn(move || fire_hot(addr, &b, &frame, &cold))
        })
        .collect();
    let mut storm_computes = 0u64;
    let mut storm_follower_spans = 0u64;
    for j in storm_joins {
        let (cached, follower) = j.join().map_err(|_| "storm shooter panicked")??;
        if !cached {
            storm_computes += 1;
        }
        storm_follower_spans += u64::from(follower);
    }
    let storm_stats = service.stats();
    if storm_computes != 1 {
        return Err(format!(
            "hot barrage: expected exactly 1 computed reply, saw {storm_computes}"
        ));
    }
    if storm_stats.misses != 1 {
        return Err(format!(
            "hot barrage: {} pipeline runs for one fingerprint",
            storm_stats.misses
        ));
    }
    // Without an attach the follower-span check below is 0 == 0 and
    // proves nothing about the coalescer.
    if storm_stats.coalesced == 0 {
        return Err("hot barrage: no request attached to the in-flight compute".into());
    }
    // Attribution invariant: every coalesced waiter's trace points at
    // the computation it waited on — a `follower` span per attach.
    if storm_follower_spans != storm_stats.coalesced {
        return Err(format!(
            "hot barrage: {} follower spans but {} coalesce attaches",
            storm_follower_spans, storm_stats.coalesced
        ));
    }

    let prekill = zipf_phase(addr, &templates, cfg, cfg.seed, Some(&service))?;
    // The kill must not leave untyped wreckage: everything rejected
    // during the window carried a code (zipf_phase already summed it).
    // Dropping the server stops its loop and joins its threads.
    drop(server);
    drop(service);

    // ---- Phase 3: tear the tail of the last segment, restart, re-run.
    let torn_bytes = match last_segment(&dir) {
        Some(seg) => {
            let len = std::fs::metadata(&seg)
                .map_err(|e| format!("stat: {e}"))?
                .len();
            let cut = len.min(23); // mid-record: forces tail truncation
            std::fs::OpenOptions::new()
                .write(true)
                .open(&seg)
                .and_then(|f| f.set_len(len - cut))
                .map_err(|e| format!("tear: {e}"))?;
            cut
        }
        None => 0,
    };
    let service2 = Arc::new(MapService::start(service_config(&dir)));
    let recovered_entries = service2.l2_entries().unwrap_or(0) as u64;
    let server2 = spawn_server(&service2)?;
    let addr2 = server2.addr();

    let post = zipf_phase(addr2, &templates, cfg, cfg.seed ^ 0x5a5a, None)?;
    let warm_ratio = if prekill.hit_rate > 0.0 {
        post.hit_rate / prekill.hit_rate
    } else {
        1.0
    };
    if prekill.hit_rate > 0.0 && warm_ratio < 0.8 {
        return Err(format!(
            "warm restart regressed: post-restart hit rate {:.3} < 80% of pre-kill {:.3}",
            post.hit_rate, prekill.hit_rate
        ));
    }
    // Tracing coverage and attribution over the post-restart phase: the
    // stage columns must explain the service-side latency they claim
    // to. (Client latency is not the baseline — it also carries the
    // wire and the client's parse + byte-identity check, which no
    // server-side trace can see.)
    let traced = post.traces.len() as u64;
    if traced != post.served {
        return Err(format!(
            "tracing was on but {traced} of {} served replies carried a trace",
            post.served
        ));
    }
    let attribution = attribute(post.traces);
    let p50 = attribution.service_p50_us as f64;
    if (attribution.stage_sum_us as f64 - p50).abs() > 0.10 * p50.max(1.0) {
        return Err(format!(
            "stage attribution sum {} µs strays more than 10% from the service p50 {} µs",
            attribution.stage_sum_us, attribution.service_p50_us
        ));
    }

    // ---- Phase 4: graceful drain under live load.
    let drain_requests = (cfg.zipf_requests / 2).max(cfg.clients.max(1)) as u64;
    let drainer = {
        let svc = Arc::clone(&service2);
        let at_least = drain_requests / 4;
        let baseline = answered(&svc);
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while answered(&svc) - baseline < at_least && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            svc.shutdown();
        })
    };
    let drain_cfg = StormConfig {
        zipf_requests: drain_requests as usize,
        ..cfg.clone()
    };
    let drain = zipf_phase(addr2, &templates, &drain_cfg, cfg.seed ^ 0xd3a1, None)?;
    let _ = drainer.join();
    for code in drain.rejections.keys() {
        if code.is_empty() {
            return Err("drain produced an empty rejection code".into());
        }
    }
    let drain_seconds = service2.stats().drain_seconds;
    if drain_seconds <= 0.0 {
        return Err("graceful drain did not record its duration".into());
    }

    let metrics = scrape_metrics(addr2)?;
    validate_prometheus(&metrics)?;
    for required in [
        "cachemap_service_coalesced_total",
        "cachemap_service_l2_hits_total",
        "cachemap_service_l2_promotions_total",
        "cachemap_service_drain_seconds",
    ] {
        if !metrics.contains(required) {
            return Err(format!("metrics scrape is missing {required}"));
        }
    }

    drop(server2);
    drop(service2);

    // Anomaly forensics: the campaign must leave flight dumps behind —
    // slow coalesce waits during the phases, the torn-tail recovery at
    // restart, and the graceful drain.
    let slow_dumps = count_dumps(&dir, "slow_request");
    let recovery_dumps = count_dumps(&dir, "recovery");
    let drain_dumps = count_dumps(&dir, "drain");
    if slow_dumps == 0 {
        return Err("no slow_request flight dump despite coalesce waits over 1 ms".into());
    }
    if torn_bytes > 0 && recovery_dumps == 0 {
        return Err("torn-tail restart left no recovery flight dump".into());
    }
    if drain_dumps == 0 {
        return Err("graceful drain left no drain flight dump".into());
    }
    if own_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }

    Ok(StormReport {
        seed: cfg.seed,
        storm_connections: shooters,
        storm_computes,
        storm_coalesced: storm_stats.coalesced,
        storm_follower_spans,
        slow_dumps,
        recovery_dumps,
        drain_dumps,
        prekill_served: prekill.served,
        prekill_rejected: prekill.rejected,
        prekill_hit_rate: prekill.hit_rate,
        torn_bytes,
        recovered_entries,
        postrestart_served: post.served,
        postrestart_hit_rate: post.hit_rate,
        warm_ratio,
        traced,
        service_p50_us: attribution.service_p50_us,
        stages: attribution.stages,
        stage_sum_us: attribution.stage_sum_us,
        drain_requests,
        drain_served: drain.served,
        drain_rejected_typed: drain.rejected,
        drain_seconds,
        elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
        metrics_schema_ok: true,
    })
}

/// Renders the human-readable storm summary.
pub fn render(report: &StormReport) -> String {
    let cols: Vec<String> = TRACE_STAGES
        .iter()
        .filter_map(|s| report.stages.get(*s).map(|us| format!("{s} {us}")))
        .collect();
    format!(
        "== serve-storm — seed {} ==\n\
         barrage       {:>8} connections, {} compute, {} coalesced\n\
         followers     {:>8} follower spans (one per coalesce attach)\n\
         pre-kill      {:>8} served + {} typed rejections (hit rate {:.1}%)\n\
         torn tail     {:>8} bytes cut; {} L2 entries recovered\n\
         post-restart  {:>8} served, hit rate {:.1}%  (warm ratio {:.2}, gate ≥ 0.80)\n\
         attribution   {} µs  (Σ {} µs ≈ service p50 {} µs over {} traces)\n\
         drain         {:>8} requests: {} served, {} typed, 0 untyped drops\n\
         drain time    {:>8.3} s\n\
         flight dumps  {:>8} slow_request, {} recovery, {} drain\n\
         wall clock    {:>8.1} ms\n\
         metrics       Prometheus schema OK",
        report.seed,
        report.storm_connections,
        report.storm_computes,
        report.storm_coalesced,
        report.storm_follower_spans,
        report.prekill_served,
        report.prekill_rejected,
        report.prekill_hit_rate * 100.0,
        report.torn_bytes,
        report.recovered_entries,
        report.postrestart_served,
        report.postrestart_hit_rate * 100.0,
        report.warm_ratio,
        cols.join(" | "),
        report.stage_sum_us,
        report.service_p50_us,
        report.traced,
        report.drain_requests,
        report.drain_served,
        report.drain_rejected_typed,
        report.drain_seconds,
        report.slow_dumps,
        report.recovery_dumps,
        report.drain_dumps,
        report.elapsed_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_storm_meets_all_invariants() {
        let report = run(&StormConfig::smoke(7)).unwrap();
        assert_eq!(report.storm_computes, 1);
        assert!(
            report.storm_coalesced >= 1,
            "the coalescer was never reached"
        );
        assert_eq!(report.storm_follower_spans, report.storm_coalesced);
        assert_eq!(report.traced, report.postrestart_served);
        assert!(
            report.stages.contains_key("fingerprint"),
            "every trace starts with the fingerprint stage"
        );
        assert!(report.warm_ratio >= 0.8);
        assert!(report.drain_seconds > 0.0);
        assert!(report.slow_dumps >= 1);
        assert!(report.drain_dumps >= 1);
        assert!(report.torn_bytes == 0 || report.recovery_dumps >= 1);
        assert!(report.metrics_schema_ok);
    }
}
