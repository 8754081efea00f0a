//! Open-loop load harness for the mapping server (`repro serve-open`).
//!
//! A closed-loop client waits for each reply before sending again, so
//! its measured "throughput" is just `clients / round_trip` and
//! collapses to the server's latency — a slow server sees *less* load,
//! not a growing backlog. That is the classic coordinated-omission
//! bias. This harness removes it: requests are injected on a seeded
//! Poisson schedule at a configured **offered** rate regardless of how
//! fast replies come back, over a fixed fan of pipelined connections
//! against the epoll-based [`AsyncServer`]. What the server cannot
//! absorb shows up where it belongs — in the latency trajectory —
//! instead of silently deflating the arrival rate.
//!
//! Reported per run:
//!
//! - offered vs **achieved** RPS (completions over the injection
//!   window) and overall p50/p99/p99.9,
//! - a per-second trajectory (sent, completed, p50, p99 bucketed by
//!   *send* time, so a stall surfaces in the second that caused it),
//! - a typed tally of rejections; **any** untyped client-visible error
//!   fails the run,
//! - byte-identity of every served mapping against the cold
//!   `Mapper::map` oracle,
//! - an idle-fleet check: thousands of parked connections held open
//!   (by a child process, so the client fds do not eat this process's
//!   fd budget) while the load runs, proving request service is
//!   independent of connection count,
//! - a post-window `GET /metrics` scrape that must pass the Prometheus
//!   schema check and carry the cache-hit counter family.
//!
//! Determinism: the arrival schedule and template choice are fixed by
//! `(seed, offered_rps, duration_secs)`; only wall-clock timings vary.

use crate::serve::{build_templates, connect, frames, scrape_metrics, validate_prometheus, Zipf};
use cachemap_service::aserver::{AsyncServer, AsyncServerConfig};
use cachemap_service::{MapService, ServiceConfig};
use cachemap_util::check::Gen;
use cachemap_util::{Json, ToJson};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Open-loop campaign knobs.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// RNG seed for the arrival schedule and template sequence.
    pub seed: u64,
    /// Offered request rate (arrivals per second, Poisson).
    pub offered_rps: f64,
    /// Injection window in seconds.
    pub duration_secs: f64,
    /// Pipelined client connections carrying the load.
    pub conns: usize,
    /// Dispatcher threads in the async server.
    pub dispatchers: usize,
    /// Template-pool app limit (`0` = the full eight-app suite).
    pub apps: usize,
    /// Parked idle connections held open while the load runs.
    pub idle_conns: usize,
    /// Binary to spawn for the idle fleet (`repro idle-hold:…`);
    /// `None` holds the fleet in-process (tests, small fleets only —
    /// each held connection costs this process an fd).
    pub idle_hold_exe: Option<std::path::PathBuf>,
    /// Minimum achieved RPS to pass (`0.0` disables the gate).
    pub gate_min_rps: f64,
    /// Maximum overall p99 in µs to pass (`0` disables the gate).
    pub gate_p99_us: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            seed: 42,
            offered_rps: 1_200.0,
            duration_secs: 8.0,
            conns: 32,
            dispatchers: 4,
            apps: 0,
            idle_conns: 10_000,
            idle_hold_exe: None,
            // Two thirds of the offered rate must complete inside the
            // window. The p99 ceiling is about twice the worst p99 seen
            // at 1,200 RPS on a busy 2-vCPU host (44 ms): loose enough
            // for a shared machine, tight enough that a stalled loop or
            // a lost batch fails the run.
            gate_min_rps: 800.0,
            gate_p99_us: 87_000,
        }
    }
}

impl OpenLoopConfig {
    /// A seconds-scale smoke variant for CI: modest rate, small pools,
    /// in-process idle fleet, correctness gates only (no RPS floor —
    /// debug builds and loaded CI runners make absolute rates
    /// meaningless there).
    pub fn smoke(seed: u64) -> Self {
        OpenLoopConfig {
            seed,
            offered_rps: 150.0,
            duration_secs: 2.0,
            conns: 4,
            dispatchers: 2,
            apps: 1,
            idle_conns: 64,
            idle_hold_exe: None,
            gate_min_rps: 0.0,
            gate_p99_us: 0,
        }
    }
}

/// One second of the injection window, bucketed by send time.
#[derive(Debug, Clone)]
pub struct SecondSample {
    /// Second index from campaign start.
    pub sec: u64,
    /// Requests injected during this second.
    pub sent: u64,
    /// Of those, how many completed (at any later time).
    pub completed: u64,
    /// Median completion latency (µs) of this second's requests.
    pub p50_us: u64,
    /// 99th-percentile completion latency (µs).
    pub p99_us: u64,
}

/// Aggregated open-loop results.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The seed the campaign ran with.
    pub seed: u64,
    /// Configured offered rate.
    pub offered_rps: f64,
    /// Completions divided by the injection window.
    pub achieved_rps: f64,
    /// Injection window (s).
    pub duration_secs: f64,
    /// Requests injected.
    pub sent: u64,
    /// Requests answered (including typed rejections).
    pub completed: u64,
    /// Served with a mapping, from the fingerprint cache.
    pub cached: u64,
    /// Served with a mapping, computed by the pipeline.
    pub computed: u64,
    /// Typed rejections by `ServiceError` code.
    pub rejections: BTreeMap<String, u64>,
    /// Client-visible errors without a typed code (gate: must be 0).
    pub untyped_errors: u64,
    /// Served mappings that diverged from the cold oracle (gate: 0).
    pub mapping_mismatches: u64,
    /// Overall completion-latency percentiles (µs).
    pub p50_us: u64,
    /// 99th percentile (µs).
    pub p99_us: u64,
    /// 99.9th percentile (µs).
    pub p999_us: u64,
    /// Per-second trajectory over the injection window.
    pub trajectory: Vec<SecondSample>,
    /// Idle connections the fleet actually registered.
    pub idle_conns_held: u64,
    /// The parked fleet stayed registered and service still answered.
    pub idle_check_ok: bool,
    /// Batches the dispatcher drained (from the aio loop stats).
    pub batches: u64,
    /// Frames the loop decoded (≥ `completed`; includes prewarm).
    pub frames: u64,
    /// The post-window `GET /metrics` scrape passed the Prometheus
    /// schema check and carried the cache-hit counter family.
    pub metrics_schema_ok: bool,
    /// All gates passed (RPS floor, p99 ceiling, zero untyped errors,
    /// zero mapping mismatches, idle check, metrics schema).
    pub gates_ok: bool,
    /// Human-readable gate failures (empty when `gates_ok`).
    pub gate_failures: Vec<String>,
}

impl ToJson for OpenLoopReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("bench".into(), Json::Str("serve-open".into())),
            ("loop".into(), Json::Str("open".into())),
            ("seed".into(), Json::UInt(self.seed)),
            ("offered_rps".into(), Json::Float(self.offered_rps)),
            ("achieved_rps".into(), Json::Float(self.achieved_rps)),
            ("duration_secs".into(), Json::Float(self.duration_secs)),
            ("sent".into(), Json::UInt(self.sent)),
            ("completed".into(), Json::UInt(self.completed)),
            ("cached".into(), Json::UInt(self.cached)),
            ("computed".into(), Json::UInt(self.computed)),
            (
                "rejections".into(),
                Json::Object(
                    self.rejections
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            ("untyped_errors".into(), Json::UInt(self.untyped_errors)),
            (
                "mapping_mismatches".into(),
                Json::UInt(self.mapping_mismatches),
            ),
            ("p50_us".into(), Json::UInt(self.p50_us)),
            ("p99_us".into(), Json::UInt(self.p99_us)),
            ("p999_us".into(), Json::UInt(self.p999_us)),
            (
                "trajectory".into(),
                Json::Array(
                    self.trajectory
                        .iter()
                        .map(|s| {
                            Json::Object(vec![
                                ("sec".into(), Json::UInt(s.sec)),
                                ("sent".into(), Json::UInt(s.sent)),
                                ("completed".into(), Json::UInt(s.completed)),
                                ("p50_us".into(), Json::UInt(s.p50_us)),
                                ("p99_us".into(), Json::UInt(s.p99_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("idle_conns_held".into(), Json::UInt(self.idle_conns_held)),
            ("idle_check_ok".into(), Json::Bool(self.idle_check_ok)),
            ("batches".into(), Json::UInt(self.batches)),
            ("frames".into(), Json::UInt(self.frames)),
            (
                "metrics_schema_ok".into(),
                Json::Bool(self.metrics_schema_ok),
            ),
            ("gates_ok".into(), Json::Bool(self.gates_ok)),
            (
                "gate_failures".into(),
                Json::Array(
                    self.gate_failures
                        .iter()
                        .map(|f| Json::Str(f.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// What the sender recorded for one in-flight request; the reader pops
/// these FIFO (the async server preserves per-connection reply order).
struct InFlight {
    sent_at: Instant,
    sec: u64,
    template: usize,
}

/// Per-reader completion tally, merged after join.
#[derive(Default)]
struct ReaderTally {
    cached: u64,
    computed: u64,
    rejections: BTreeMap<String, u64>,
    untyped: u64,
    mismatches: u64,
    /// `(send-second, latency µs)` per completion.
    latencies: Vec<(u64, u64)>,
}

/// Pulls the typed error code out of an error reply, if any.
fn error_code(reply: &str) -> Option<&str> {
    let at = reply.find("\"code\":\"")? + "\"code\":\"".len();
    reply[at..].split('"').next()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The idle fleet, either a `repro idle-hold` child process or an
/// in-process `Vec<TcpStream>`; dropping releases the connections.
enum IdleFleet {
    Child(std::process::Child),
    Local(Vec<TcpStream>),
    None,
}

impl IdleFleet {
    fn release(&mut self) {
        match self {
            // Closing the child's stdin is its signal to exit.
            IdleFleet::Child(child) => {
                drop(child.stdin.take());
                let _ = child.wait();
            }
            IdleFleet::Local(conns) => conns.clear(),
            IdleFleet::None => {}
        }
    }
}

/// Holds `count` idle connections against `addr` until stdin reaches
/// EOF. This is the body of the hidden `repro idle-hold:<addr>:<count>`
/// subcommand: the parent campaign spawns it so the parked fds land in
/// a separate process (10k client + 10k server fds would exhaust one
/// process's `RLIMIT_NOFILE` otherwise). Prints `held <n>` once the
/// fleet is up so the parent knows when to start measuring.
pub fn idle_hold(addr: &str, count: usize) -> Result<(), String> {
    let mut held = Vec::with_capacity(count);
    for k in 0..count {
        match TcpStream::connect(addr) {
            Ok(s) => held.push(s),
            Err(e) => {
                println!("held {k}");
                return Err(format!("connect {k}/{count}: {e}"));
            }
        }
    }
    println!("held {count}");
    // Park until the parent drops our stdin.
    let mut sink = String::new();
    let _ = std::io::stdin().read_line(&mut sink);
    drop(held);
    Ok(())
}

/// Raises the idle fleet and waits until the server has registered it.
fn raise_idle_fleet(
    cfg: &OpenLoopConfig,
    server: &AsyncServer,
) -> Result<(IdleFleet, u64), String> {
    if cfg.idle_conns == 0 {
        return Ok((IdleFleet::None, 0));
    }
    let fleet = match &cfg.idle_hold_exe {
        Some(exe) => {
            let mut child = std::process::Command::new(exe)
                .arg(format!("idle-hold:{}:{}", server.addr(), cfg.idle_conns))
                .stdin(std::process::Stdio::piped())
                .stdout(std::process::Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn idle-hold child: {e}"))?;
            // Wait for its "held <n>" line before proceeding.
            let mut line = String::new();
            let mut out = BufReader::new(child.stdout.take().ok_or("no child stdout")?);
            out.read_line(&mut line)
                .map_err(|e| format!("idle-hold child: {e}"))?;
            if line.trim() != format!("held {}", cfg.idle_conns) {
                let _ = child.kill();
                return Err(format!("idle-hold child reported {:?}", line.trim()));
            }
            // Keep the pipe open: its EOF is the release signal.
            IdleFleet::Child(child)
        }
        None => {
            let mut held = Vec::with_capacity(cfg.idle_conns);
            for k in 0..cfg.idle_conns {
                held.push(
                    TcpStream::connect(server.addr()).map_err(|e| format!("idle conn {k}: {e}"))?,
                );
            }
            IdleFleet::Local(held)
        }
    };
    // The child's sockets are connected (in the accept queue); wait for
    // the loop to actually register them under its connection cap.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let n = server.loop_stats().connections.load(Ordering::Relaxed);
        if n >= cfg.idle_conns as u64 {
            return Ok((fleet, n));
        }
        if Instant::now() > deadline {
            return Err(format!(
                "idle fleet never registered: {n}/{} connections",
                cfg.idle_conns
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs the full campaign: spawn the async server, prewarm every
/// template (so the open-loop window measures serving, not first-touch
/// mapping), park the idle fleet, inject the Poisson schedule, drain,
/// and aggregate. Gate violations are reported in the returned
/// `gate_failures` rather than an `Err`, so callers can still archive
/// the numbers of a failing run.
pub fn run(cfg: &OpenLoopConfig) -> Result<OpenLoopReport, String> {
    let templates = Arc::new(build_templates(cfg.apps));
    // Per-template needle for the cheap byte-identity check: the reply
    // must embed exactly the cold mapping bytes. Substring check, not a
    // parse — the reader threads are on the measured path.
    let needles: Arc<Vec<String>> = Arc::new(
        templates
            .iter()
            .map(|t| format!("\"mapping\":{}", t.cold_bytes))
            .collect(),
    );
    let frames = frames(&templates);
    let zipf = Zipf::new(templates.len());

    let service = Arc::new(MapService::start(ServiceConfig {
        tracing: false,
        ..ServiceConfig::default()
    }));
    let server = AsyncServer::spawn_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        AsyncServerConfig {
            dispatchers: cfg.dispatchers,
            max_connections: (cfg.idle_conns + cfg.conns + 16).max(10_240),
            ..AsyncServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();

    // Prewarm: one sequential pass over the pool, so every template is
    // memoized before the clock starts.
    {
        let mut c = connect(addr).map_err(|e| format!("prewarm {e}"))?;
        let mut r = BufReader::new(c.try_clone().map_err(|e| format!("clone: {e}"))?);
        for (k, frame) in frames.iter().enumerate() {
            c.write_all(frame)
                .map_err(|e| format!("prewarm {k}: write: {e}"))?;
            let mut reply = String::new();
            r.read_line(&mut reply)
                .map_err(|e| format!("prewarm {k}: read: {e}"))?;
            if !reply.contains(&needles[k]) {
                return Err(format!(
                    "prewarm {k}: reply does not embed the cold mapping"
                ));
            }
        }
    }

    let (mut fleet, idle_conns_held) = raise_idle_fleet(cfg, &server)?;

    // The load connections: a shared FIFO of in-flight records per
    // connection (sender pushes, that connection's reader pops), plus a
    // reader thread each.
    let conns = cfg.conns.max(1);
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::with_capacity(conns);
    let mut queues: Vec<Arc<Mutex<VecDeque<InFlight>>>> = Vec::with_capacity(conns);
    let mut readers = Vec::with_capacity(conns);
    for k in 0..conns {
        let stream = connect(addr).map_err(|e| format!("conn {k}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| format!("conn {k}: {e}"))?;
        let queue: Arc<Mutex<VecDeque<InFlight>>> = Arc::new(Mutex::new(VecDeque::new()));
        writers.push(stream.try_clone().map_err(|e| format!("conn {k}: {e}"))?);
        queues.push(Arc::clone(&queue));
        let needles = Arc::clone(&needles);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut tally = ReaderTally::default();
            let mut r = BufReader::new(stream);
            let mut reply = String::new();
            loop {
                // A timed-out `read_line` leaves whatever it got so far
                // in `reply`; keep it and resume — clearing here would
                // tear replies that straddle a timeout.
                match r.read_line(&mut reply) {
                    Ok(0) => break, // server closed
                    Ok(_) if reply.ends_with('\n') => {}
                    Ok(_) => break, // EOF mid-line
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        continue;
                    }
                    Err(_) => break,
                }
                let Some(sent) = queue.lock().unwrap().pop_front() else {
                    tally.untyped += 1; // a reply nobody asked for
                    continue;
                };
                let latency_us = sent.sent_at.elapsed().as_micros() as u64;
                tally.latencies.push((sent.sec, latency_us));
                if reply.contains("\"status\":\"ok\"") {
                    if reply.contains(&needles[sent.template]) {
                        if reply.contains("\"cached\":true") {
                            tally.cached += 1;
                        } else {
                            tally.computed += 1;
                        }
                    } else {
                        tally.mismatches += 1;
                    }
                } else {
                    match error_code(&reply) {
                        Some(code) => {
                            *tally.rejections.entry(code.to_string()).or_insert(0) += 1;
                        }
                        None => tally.untyped += 1,
                    }
                }
                reply.clear();
            }
            tally
        }));
    }

    // The Poisson injection schedule: absolute deadlines from t0, so a
    // slow write on one connection does not stretch the whole schedule
    // (catch-up sends burst, as an open-loop generator must).
    let mut g = Gen::from_seed(cfg.seed);
    let t0 = Instant::now();
    let mut offset = Duration::ZERO;
    let window = Duration::from_secs_f64(cfg.duration_secs);
    let mut sent = 0u64;
    let mut next_conn = 0usize;
    while offset < window {
        let due = t0 + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let template = zipf.sample(&mut g);
        let k = next_conn;
        next_conn = (next_conn + 1) % conns;
        queues[k].lock().unwrap().push_back(InFlight {
            sent_at: Instant::now(),
            sec: offset.as_secs(),
            template,
        });
        writers[k]
            .write_all(&frames[template])
            .map_err(|e| format!("send {sent}: {e}"))?;
        sent += 1;
        // Next inter-arrival: Exp(offered_rps) via inverse transform.
        let u: f64 = g.f64();
        let gap = -(1.0 - u).ln() / cfg.offered_rps;
        offset += Duration::from_secs_f64(gap);
    }

    // Drain: everything injected must be answered. 30 s is far beyond
    // any sane backlog at these rates; hitting it means requests were
    // silently dropped, which the completion count will show.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while queues.iter().any(|q| !q.lock().unwrap().is_empty()) {
        if Instant::now() > drain_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);

    let mut tallies = ReaderTally::default();
    for reader in readers {
        let t = reader.join().map_err(|_| "reader thread panicked")?;
        tallies.cached += t.cached;
        tallies.computed += t.computed;
        tallies.untyped += t.untyped;
        tallies.mismatches += t.mismatches;
        for (code, n) in t.rejections {
            *tallies.rejections.entry(code).or_insert(0) += n;
        }
        tallies.latencies.extend(t.latencies);
    }

    // The idle fleet must still be parked (nothing reaped it mid-run)
    // and the service must still answer new traffic alongside it.
    let idle_check_ok = if cfg.idle_conns > 0 {
        let still = server.loop_stats().connections.load(Ordering::Relaxed);
        let mut probe = connect(addr).map_err(|e| format!("probe {e}"))?;
        probe
            .write_all(b"{\"id\":0,\"op\":\"ping\"}\n")
            .map_err(|e| format!("probe: {e}"))?;
        let mut reply = String::new();
        BufReader::new(probe)
            .read_line(&mut reply)
            .map_err(|e| format!("probe: {e}"))?;
        still >= cfg.idle_conns as u64 && reply.contains("\"pong\":true")
    } else {
        true
    };
    fleet.release();

    // The server's own view of the window: a schema-valid Prometheus
    // scrape that counted the cache hits the clients just observed.
    let metrics_schema_ok = scrape_metrics(addr)
        .and_then(|text| validate_prometheus(&text).map(|()| text))
        .is_ok_and(|text| text.contains("cachemap_service_cache_hits_total"));

    let loop_stats = server.loop_stats();
    let batches = loop_stats.batches_total.load(Ordering::Relaxed);
    let decoded_frames = loop_stats.frames_total.load(Ordering::Relaxed);
    server.shutdown();
    server.join();
    service.shutdown();

    // Aggregate: overall percentiles plus the per-second trajectory.
    let completed = tallies.latencies.len() as u64;
    let mut all: Vec<u64> = tallies.latencies.iter().map(|&(_, us)| us).collect();
    all.sort_unstable();
    let mut per_sec: BTreeMap<u64, (u64, Vec<u64>)> = BTreeMap::new();
    for s in 0..cfg.duration_secs.ceil() as u64 {
        per_sec.insert(s, (0, Vec::new()));
    }
    for &(sec, us) in &tallies.latencies {
        let slot = per_sec.entry(sec).or_default();
        slot.0 += 1;
        slot.1.push(us);
    }
    // Per-second *sent* counts come from the completion records plus
    // whatever never completed; reconstruct sent-per-second from the
    // deterministic schedule.
    let mut sent_per_sec: BTreeMap<u64, u64> = BTreeMap::new();
    {
        let mut g = Gen::from_seed(cfg.seed);
        let mut offset = Duration::ZERO;
        while offset < window {
            let _ = zipf.sample(&mut g);
            *sent_per_sec.entry(offset.as_secs()).or_insert(0) += 1;
            let u: f64 = g.f64();
            offset += Duration::from_secs_f64(-(1.0 - u).ln() / cfg.offered_rps);
        }
    }
    let trajectory: Vec<SecondSample> = per_sec
        .into_iter()
        .map(|(sec, (done, mut lats))| {
            lats.sort_unstable();
            SecondSample {
                sec,
                sent: sent_per_sec.get(&sec).copied().unwrap_or(0),
                completed: done,
                p50_us: percentile(&lats, 0.50),
                p99_us: percentile(&lats, 0.99),
            }
        })
        .collect();

    let achieved_rps = completed as f64 / cfg.duration_secs;
    let p99_us = percentile(&all, 0.99);
    let mut gate_failures = Vec::new();
    if tallies.untyped > 0 {
        gate_failures.push(format!("{} untyped client-visible errors", tallies.untyped));
    }
    if tallies.mismatches > 0 {
        gate_failures.push(format!(
            "{} mappings diverged from the cold oracle",
            tallies.mismatches
        ));
    }
    if completed < sent {
        gate_failures.push(format!(
            "{} of {sent} injected requests never completed",
            sent - completed
        ));
    }
    if cfg.gate_min_rps > 0.0 && achieved_rps < cfg.gate_min_rps {
        gate_failures.push(format!(
            "achieved {achieved_rps:.0} RPS below the {:.0} floor",
            cfg.gate_min_rps
        ));
    }
    if cfg.gate_p99_us > 0 && p99_us >= cfg.gate_p99_us {
        gate_failures.push(format!(
            "p99 {p99_us} µs at or above the {} µs ceiling",
            cfg.gate_p99_us
        ));
    }
    if !idle_check_ok {
        gate_failures.push("idle-fleet check failed".into());
    }
    if !metrics_schema_ok {
        gate_failures.push(
            "metrics scrape failed the Prometheus schema check or lacks the cache-hit family"
                .into(),
        );
    }

    Ok(OpenLoopReport {
        seed: cfg.seed,
        offered_rps: cfg.offered_rps,
        achieved_rps,
        duration_secs: cfg.duration_secs,
        sent,
        completed,
        cached: tallies.cached,
        computed: tallies.computed,
        rejections: tallies.rejections,
        untyped_errors: tallies.untyped,
        mapping_mismatches: tallies.mismatches,
        p50_us: percentile(&all, 0.50),
        p99_us,
        p999_us: percentile(&all, 0.999),
        trajectory,
        idle_conns_held,
        idle_check_ok,
        batches,
        frames: decoded_frames,
        metrics_schema_ok,
        gates_ok: gate_failures.is_empty(),
        gate_failures,
    })
}

/// Renders the human-readable campaign summary.
pub fn render(report: &OpenLoopReport) -> String {
    let rejected: u64 = report.rejections.values().sum();
    let mut out = format!(
        "== serve-open — seed {} ==\n\
         offered       {:>8.0} req/s for {:.0} s (open-loop Poisson, {} idle conns parked)\n\
         achieved      {:>8.0} req/s   ({} of {} completed; {} cached + {} computed, {} typed rejections)\n\
         latency       p50 {} µs, p99 {} µs, p99.9 {} µs\n\
         batching      {} frames drained in {} batches ({:.1} frames/batch)\n\
         trajectory    sec:  sent → completed   p50/p99 µs",
        report.seed,
        report.offered_rps,
        report.duration_secs,
        report.idle_conns_held,
        report.achieved_rps,
        report.completed,
        report.sent,
        report.cached,
        report.computed,
        rejected,
        report.p50_us,
        report.p99_us,
        report.p999_us,
        report.frames,
        report.batches,
        report.frames as f64 / report.batches.max(1) as f64,
    );
    for s in &report.trajectory {
        out.push_str(&format!(
            "\n              {:>3}: {:>5} → {:>5}       {}/{}",
            s.sec, s.sent, s.completed, s.p50_us, s.p99_us
        ));
    }
    if report.gates_ok {
        out.push_str("\ngates         all passed (RPS floor, p99 ceiling, 0 untyped, 0 mismatches, idle fleet, metrics schema)");
    } else {
        for f in &report.gate_failures {
            out.push_str(&format!("\ngate FAILED   {f}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_answers_everything_with_byte_identity() {
        let report = run(&OpenLoopConfig::smoke(7)).unwrap();
        assert!(report.sent > 0, "nothing injected");
        assert_eq!(report.completed, report.sent, "requests lost");
        assert_eq!(report.untyped_errors, 0);
        assert_eq!(report.mapping_mismatches, 0);
        assert!(report.idle_check_ok);
        assert_eq!(report.idle_conns_held, 64);
        assert!(report.metrics_schema_ok);
        assert!(report.gates_ok, "{:?}", report.gate_failures);
        assert!(!report.trajectory.is_empty());
        // Prewarm means the open window is all hits.
        assert!(report.cached >= report.computed);
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        // The reconstructed sent-per-second histogram must match what
        // the sender injects: same Gen stream, same arithmetic.
        let cfg = OpenLoopConfig::smoke(11);
        let mut g = Gen::from_seed(cfg.seed);
        let zipf = Zipf::new(4);
        let mut n = 0u64;
        let mut offset = Duration::ZERO;
        let window = Duration::from_secs_f64(cfg.duration_secs);
        while offset < window {
            let _ = zipf.sample(&mut g);
            n += 1;
            let u: f64 = g.f64();
            offset += Duration::from_secs_f64(-(1.0 - u).ln() / cfg.offered_rps);
        }
        // Expected count ≈ rate × window; Poisson keeps it in a wide
        // but bounded band.
        let expect = cfg.offered_rps * cfg.duration_secs;
        assert!(
            (n as f64) > expect * 0.5 && (n as f64) < expect * 1.5,
            "{n}"
        );
    }
}
