//! `serve-churn`: open-loop load against an in-process `AsyncServer`
//! with the default `AsyncServerConfig`, L2 on and an L1 far smaller
//! than the key space.
//!
//! The generator runs in this process. It sends seeded Poisson arrivals
//! over two persistent loopback connections with TCP_NODELAY, each
//! request in one write, and times every request from its *scheduled*
//! send instant to the last byte of its reply, so a stall is charged to
//! every request it delays. A reply counts towards throughput only when
//! it arrives within the service's own SLO latency (`slo_latency_ms`).
//! Every reply is checked byte for byte against the cold `Mapper::map`
//! oracle.
//!
//! The traced run replays the workload's request lines in-process,
//! with spans around `proto::parse_request`, `core::fingerprint`,
//! `MapService::submit`, reply serialization and `dispatch::dispatch_line`.

use crate::clock::Setups;
use crate::record::{available_parallelism, host_cpu_ticks, peak_rss_mb, Run};
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Tracer;
use cachemap_core::{Mapper, MapperConfig, Version};
use cachemap_par::Pool;
use cachemap_polyhedral::{DataSpace, Program};
use cachemap_service::aserver::AsyncServer;
use cachemap_service::proto::{self, Request};
use cachemap_service::{dispatch, MapRequest, MapService, ServiceConfig, ServiceStats};
use cachemap_storage::{
    HierarchyTree, L2Config, L2Store, MappedProgram, PlatformConfig, Simulator,
};
use cachemap_util::rng::XorShift64;
use cachemap_util::{Json, ToJson};
use cachemap_workloads::{suite, Scale};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Persistent client connections carrying the load.
const CONNS: usize = 2;
/// Zipf exponent of template popularity.
const ZIPF_S: f64 = 1.2;
/// How long a reader waits for outstanding replies after the last send.
const DRAIN: Duration = Duration::from_secs(30);
/// Requests replayed in-process by the traced run.
const REPLAY: usize = 1500;

/// serve-churn: offered rate.
const CHURN_RPS: f64 = 300.0;
/// serve-churn: distinct keys.
const CHURN_KEYS: usize = 512;
/// serve-churn: L1 shards × entries per shard (64 entries, 8× fewer than keys).
const CHURN_L1: (usize, usize) = (4, 16);
/// serve-churn: most popular keys computed before the clock starts.
const CHURN_PREWARM: usize = 64;
/// serve-churn: the app whose test-scale cold compute takes about a millisecond.
const CHURN_APP: &str = "madbench2";

/// One distinct request and what its reply must look like.
struct Key {
    /// The request line, newline included: sent in one write.
    line: Vec<u8>,
    /// Reply prefix up to the `cached` flag.
    head: Vec<u8>,
    /// `"fingerprint":"<hex>"`, right after the `cached` flag.
    fingerprint: Vec<u8>,
    /// Reply suffix: `"mapping":<cold oracle bytes>}`.
    tail: Arc<[u8]>,
}

impl Key {
    fn new(req: &MapRequest, oracle: &str) -> Key {
        let mut line = req.to_json().to_string_compact().into_bytes();
        line.push(b'\n');
        let fp = cachemap_core::fingerprint(&req.program, &req.platform, &req.mapper, req.version);
        Key {
            line,
            head: format!(
                "{{\"id\":{},\"status\":\"ok\",\"op\":\"map\",\"cached\":",
                req.id
            )
            .into_bytes(),
            fingerprint: format!("\"fingerprint\":\"{}\"", fp.to_hex()).into_bytes(),
            tail: format!("\"mapping\":{oracle}}}").into_bytes().into(),
        }
    }

    /// Whether `reply` is this request's mapping, byte-identical to the oracle.
    fn matches(&self, reply: &[u8]) -> bool {
        let Some(rest) = reply.strip_prefix(self.head.as_slice()) else {
            return false;
        };
        let rest = rest
            .strip_prefix(b"true,".as_slice())
            .or_else(|| rest.strip_prefix(b"false,".as_slice()));
        rest.is_some_and(|r| r.starts_with(&self.fingerprint)) && reply.ends_with(&self.tail)
    }

    fn line_str(&self) -> &str {
        std::str::from_utf8(&self.line).expect("request lines are UTF-8 JSON")
    }
}

/// A template: which app, which version, which mapper configuration.
struct Template {
    app: usize,
    version: Version,
    mapper: MapperConfig,
}

/// The oracle mappings of `templates`, on the pool; also returns the
/// summed wall time of the `Mapper::map` calls.
fn oracles(
    programs: &[(Program, DataSpace)],
    templates: &[Template],
    platform: &PlatformConfig,
    tree: &HierarchyTree,
) -> (Vec<MappedProgram>, f64) {
    let pool = Pool::new(available_parallelism());
    let out = pool.map(templates, |_, t| {
        let (program, data) = &programs[t.app];
        let start = Instant::now();
        let mp = Mapper::new(t.mapper).map(program, data, platform, tree, t.version);
        (mp, start.elapsed().as_secs_f64())
    });
    let secs = out.iter().map(|o| o.1).sum();
    (out.into_iter().map(|o| o.0).collect(), secs)
}

/// Inter-processor versions × mapper configurations, per app.
fn template_grid(apps: usize) -> Vec<Template> {
    let mut out = Vec::new();
    for app in 0..apps {
        for version in [Version::InterProcessor, Version::InterProcessorScheduled] {
            for refine_passes in [0, 1] {
                out.push(Template {
                    app,
                    version,
                    mapper: MapperConfig {
                        refine_passes,
                        ..MapperConfig::default()
                    },
                });
            }
        }
    }
    out
}

/// Mean simulated execution-time and I/O ratios of the served mappings
/// against each app's `original` version, on the serving platform.
fn served_quality(
    run: &mut Run,
    programs: &[(Program, DataSpace)],
    templates: &[Template],
    maps: &[MappedProgram],
    platform: &PlatformConfig,
    tree: &HierarchyTree,
) -> Result<(), String> {
    let sim = Simulator::new(platform.clone()).map_err(|e| e.to_string())?;
    let mut originals = Vec::new();
    for (program, data) in programs {
        let mp = Mapper::paper_defaults().map(program, data, platform, tree, Version::Original);
        originals.push(sim.run(&mp).map_err(|e| e.to_string())?);
    }
    let (mut exec, mut io) = (Vec::new(), Vec::new());
    for (t, mp) in templates.iter().zip(maps) {
        let r = sim.run(mp).map_err(|e| e.to_string())?;
        let o = &originals[t.app];
        exec.push(ratio(r.exec_time_ns as f64, o.exec_time_ns as f64));
        io.push(ratio(r.io_latency_ns as f64, o.io_latency_ns as f64));
    }
    run.set("exec_ratio", mean(&exec), "ratio", exec.len() as u64);
    run.set("io_ratio", mean(&io), "ratio", io.len() as u64);
    Ok(())
}

/// Zipf(s) sampler over `n` ranks.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Zipf {
            cdf: weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        }
    }

    fn sample(&self, rng: &mut XorShift64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Seeded Poisson arrivals at `rate` for `secs`: `(due offset ns, key)`.
fn schedule(rng: &mut XorShift64, rate: f64, secs: f64, zipf: &Zipf) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(((t * 1e9) as u64, zipf.sample(rng)));
    }
}

/// What one open-loop stretch measured.
#[derive(Default)]
struct Tally {
    /// Requests scheduled.
    sent: u64,
    /// Per request, ms from its due instant to its reply's last byte;
    /// failed, refused and unanswered requests are infinite.
    latency_ms: Vec<f64>,
    /// Per request (same order), its due offset from the stretch's start, s.
    due_s: Vec<f64>,
    /// Per request, ms the generator sent it after its due instant.
    late_ms: Vec<f64>,
    /// Replies byte-identical to the oracle.
    ok: u64,
    /// Typed error replies by code.
    typed: BTreeMap<String, u64>,
    /// Error replies without a typed code.
    untyped: u64,
    /// `ok` replies whose mapping differs from the oracle.
    mismatched: u64,
    /// Requests never answered (or never sent: the connection failed).
    unanswered: u64,
    /// Reply bytes received.
    reply_bytes: u64,
    /// Socket errors.
    errors: Vec<String>,
    /// Host `(offset s from the stretch's start, steal ticks, total ticks)` samples.
    host: Vec<(f64, u64, u64)>,
    /// Seconds from the stretch's start to its last reply.
    elapsed_s: f64,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.sent += o.sent;
        self.latency_ms.extend(o.latency_ms);
        self.due_s.extend(o.due_s);
        self.late_ms.extend(o.late_ms);
        self.ok += o.ok;
        for (k, v) in o.typed {
            *self.typed.entry(k).or_default() += v;
        }
        self.untyped += o.untyped;
        self.mismatched += o.mismatched;
        self.unanswered += o.unanswered;
        self.reply_bytes += o.reply_bytes;
        self.errors.extend(o.errors);
    }

    /// Requests answered correctly within `limit_ms`.
    fn within(&self, limit_ms: f64) -> u64 {
        self.latency_ms.iter().filter(|&&l| l <= limit_ms).count() as u64
    }

    fn failed(&self) -> u64 {
        self.sent - self.ok
    }

    /// The checks every stretch must pass: no untyped errors, no mapping
    /// that differs from the oracle, and an answer to every request.
    fn check(&self, run: &mut Run, what: &str) {
        run.check(self.untyped == 0, || {
            format!("{what}: {} untyped error replies", self.untyped)
        });
        run.check(self.mismatched == 0, || {
            format!(
                "{what}: {} replies differ from the cold oracle",
                self.mismatched
            )
        });
        run.check(self.unanswered == 0, || {
            format!("{what}: {} requests unanswered", self.unanswered)
        });
        for e in &self.errors {
            run.fail(format!("{what}: {e}"));
        }
    }
}

fn connect(addr: SocketAddr) -> Result<Vec<TcpStream>, String> {
    (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true)
                .and_then(|()| s.set_read_timeout(Some(Duration::from_millis(100))))
                .and_then(|()| s.set_write_timeout(Some(DRAIN)))
                .map_err(|e| format!("socket options: {e}"))?;
            Ok(s)
        })
        .collect()
}

/// How often the host's CPU counters are sampled during a stretch.
const HOST_SAMPLE: Duration = Duration::from_millis(100);

/// Sends `sched` (split across the connections) and collects the replies.
fn drive(conns: &[TcpStream], keys: &[Key], sched: &[(u64, usize)]) -> Tally {
    let start = Instant::now() + Duration::from_millis(2);
    let give_up = start + Duration::from_nanos(sched.last().map_or(0, |s| s.0)) + DRAIN;
    let mut total = Tally::default();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            loop {
                let stop = done.load(Ordering::SeqCst);
                let now = Instant::now();
                let offset = match now.checked_duration_since(start) {
                    Some(d) => d.as_secs_f64(),
                    None => -start.duration_since(now).as_secs_f64(),
                };
                if let Some((steal, all)) = host_cpu_ticks() {
                    samples.push((offset, steal, all));
                }
                if stop {
                    return samples;
                }
                std::thread::sleep(HOST_SAMPLE);
            }
        });
        let workers: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<(u64, usize)> =
                    sched.iter().skip(c).step_by(conns.len()).copied().collect();
                let (tx, rx) = mpsc::channel();
                let sender = s.spawn(move || send_loop(stream, keys, &mine, start, tx));
                let reader = s.spawn(move || read_loop(stream, keys, rx, give_up));
                (sender, reader)
            })
            .collect();
        for (sender, reader) in workers {
            let (scheduled, late, error) = sender.join().expect("sender thread panicked");
            let mut t = reader.join().expect("reader thread panicked");
            // Requests the sender never wrote are unanswered.
            let unsent = scheduled - late.len() as u64;
            t.unanswered += unsent;
            t.latency_ms
                .extend(std::iter::repeat_n(f64::INFINITY, unsent as usize));
            t.due_s
                .extend(std::iter::repeat_n(f64::INFINITY, unsent as usize));
            t.sent = scheduled;
            t.late_ms = late;
            t.errors.extend(error);
            total.merge(t);
        }
        total.elapsed_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        total.host = sampler.join().expect("sampler thread panicked");
    });
    total
}

/// Writes each request at its due instant; returns the scheduled count,
/// per-request lateness (ms) of the requests written, and any error.
fn send_loop(
    mut stream: &TcpStream,
    keys: &[Key],
    mine: &[(u64, usize)],
    start: Instant,
    tx: mpsc::Sender<(u64, Instant, usize)>,
) -> (u64, Vec<f64>, Option<String>) {
    let mut late = Vec::with_capacity(mine.len());
    for &(offset, k) in mine {
        let due = start + Duration::from_nanos(offset);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let lateness = due.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = stream.write_all(&keys[k].line) {
            return (mine.len() as u64, late, Some(format!("send: {e}")));
        }
        late.push(lateness);
        if tx.send((offset, due, k)).is_err() {
            break;
        }
    }
    (mine.len() as u64, late, None)
}

/// Reads one reply per request the sender wrote, in order.
fn read_loop(
    stream: &TcpStream,
    keys: &[Key],
    rx: mpsc::Receiver<(u64, Instant, usize)>,
    give_up: Instant,
) -> Tally {
    let mut t = Tally::default();
    let mut reader = BufReader::with_capacity(1 << 18, stream);
    let mut buf = Vec::with_capacity(1 << 18);
    let mut dead = false;
    for (offset, due, k) in rx {
        t.due_s.push(offset as f64 / 1e9);
        let got = !dead && {
            buf.clear();
            loop {
                match reader.read_until(b'\n', &mut buf) {
                    Ok(_) => break buf.last() == Some(&b'\n'),
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                        ) =>
                    {
                        if Instant::now() >= give_up {
                            break false;
                        }
                    }
                    Err(e) => {
                        t.errors.push(format!("receive: {e}"));
                        break false;
                    }
                }
            }
        };
        if !got {
            dead = true;
            t.unanswered += 1;
            t.latency_ms.push(f64::INFINITY);
            continue;
        }
        let latency = due.elapsed().as_secs_f64() * 1e3;
        t.reply_bytes += buf.len() as u64;
        let reply = &buf[..buf.len() - 1];
        if keys[k].matches(reply) {
            t.ok += 1;
            t.latency_ms.push(latency);
            continue;
        }
        t.latency_ms.push(f64::INFINITY);
        match error_code(reply) {
            Some(code) => *t.typed.entry(code).or_default() += 1,
            None if reply.windows(13).any(|w| w == b"\"status\":\"ok\"") => t.mismatched += 1,
            None => t.untyped += 1,
        }
    }
    t
}

/// The typed `ServiceError` code of an error reply.
fn error_code(reply: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(reply).ok()?;
    let at = text.find("\"code\":\"")? + "\"code\":\"".len();
    Some(text[at..].split('"').next()?.to_string())
}

/// The `aio` loop counters at one instant.
#[derive(Clone, Copy)]
struct LoopSnapshot {
    frames: u64,
    batches: u64,
    wakeups: u64,
    bytes_written: u64,
    backpressure: u64,
    stalls: u64,
}

impl LoopSnapshot {
    fn take(server: &AsyncServer) -> LoopSnapshot {
        let s = server.loop_stats();
        let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        LoopSnapshot {
            frames: get(&s.frames_total),
            batches: get(&s.batches_total),
            wakeups: get(&s.wakeups_total),
            bytes_written: get(&s.bytes_written_total),
            backpressure: get(&s.backpressure_total),
            stalls: get(&s.stalls_total),
        }
    }

    /// Sets the `aio.*` metrics for the stretch between `self` and `after`.
    fn report(self, after: LoopSnapshot, run: &mut Run) {
        let frames = (after.frames - self.frames) as f64;
        let n = after.frames - self.frames;
        run.set(
            "aio.frames_per_batch",
            ratio(frames, (after.batches - self.batches) as f64),
            "ratio",
            n,
        );
        run.set(
            "aio.wakeups_per_frame",
            ratio((after.wakeups - self.wakeups) as f64, frames),
            "ratio",
            n,
        );
        run.set(
            "aio.bytes_written_per_frame",
            ratio((after.bytes_written - self.bytes_written) as f64, frames),
            "B",
            n,
        );
        run.set(
            "aio.backpressure",
            (after.backpressure - self.backpressure) as f64,
            "count",
            n,
        );
        run.set(
            "aio.stalls",
            (after.stalls - self.stalls) as f64,
            "count",
            n,
        );
    }
}

/// Sets the `service.*` cache counters for the stretch between two snapshots.
fn report_service_stats(run: &mut Run, before: ServiceStats, after: ServiceStats) {
    let hits = (after.hits - before.hits) as f64;
    let l2 = (after.l2_hits - before.l2_hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    let lookups = hits + l2 + misses;
    let n = lookups as u64;
    run.set("service.l1_hit_frac", ratio(hits, lookups), "ratio", n);
    run.set("service.l2_hit_frac", ratio(l2, lookups), "ratio", n);
    run.set("service.compute_frac", ratio(misses, lookups), "ratio", n);
    run.set(
        "service.coalesced",
        (after.coalesced - before.coalesced) as f64,
        "count",
        n,
    );
    let rejected = |s: &ServiceStats| s.queue_full + s.quota_exceeded + s.deadline_exceeded;
    run.set(
        "service.rejected",
        (rejected(&after) - rejected(&before)) as f64,
        "count",
        n,
    );
}

/// Sets the open-loop latency metrics of `t`.
///
/// Other tenants of a shared host take CPU away in episodes, and the
/// latency tail follows them. `p50_ms` and `p99_ms` therefore pool the
/// requests due in the quieter half of the stretch's one-second
/// windows, ranked by the host's steal time; the all-window figures are
/// reported as `p50_ms_all` and `p99_ms_all`.
fn report_latency(run: &mut Run, t: &Tally, limit_ms: f64) {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (&due, &l) in t.due_s.iter().zip(&t.latency_ms) {
        windows.entry(due.min(1e9) as u64).or_default().push(l);
    }
    let steal_in = |w: u64| -> f64 {
        let (lo, hi) = (w as f64, w as f64 + 1.0);
        let a = t.host.iter().rev().find(|s| s.0 <= lo).or(t.host.first());
        let b = t.host.iter().find(|s| s.0 >= hi).or(t.host.last());
        match (a, b) {
            (Some(a), Some(b)) => ratio((b.1 - a.1) as f64, (b.2 - a.2) as f64),
            _ => 0.0,
        }
    };
    let mut ranked: Vec<(f64, u64)> = windows.keys().map(|&w| (steal_in(w), w)).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.truncate(ranked.len().div_ceil(2));
    let quiet: Vec<f64> = ranked
        .iter()
        .flat_map(|(_, w)| windows[w].iter().copied())
        .collect();
    let n = quiet.len() as u64;
    run.set("p50_ms", median(&quiet), "ms", n);
    run.set("p99_ms", quantile(&quiet, 0.99), "ms", n);
    let all = t.latency_ms.len() as u64;
    run.set("p50_ms_all", median(&t.latency_ms), "ms", all);
    run.set("p99_ms_all", quantile(&t.latency_ms, 0.99), "ms", all);
    run.set(
        "within_limit_frac",
        ratio(t.within(limit_ms) as f64, t.sent as f64),
        "ratio",
        all,
    );
    run.set(
        "bench.gen_late_p99_ms",
        quantile(&t.late_ms, 0.99),
        "ms",
        t.late_ms.len() as u64,
    );
    run.info(
        "reply_bytes_mean",
        Json::Float(ratio(t.reply_bytes as f64, t.ok as f64)),
    );
    run.info(
        "quiet_windows_steal",
        Json::Array(
            ranked
                .iter()
                .map(|&(f, w)| Json::Array(vec![Json::UInt(w), Json::Float(f)]))
                .collect(),
        ),
    );
    run.info(
        "p99_ms_by_second",
        Json::Array(
            windows
                .values()
                .map(|w| Json::Float(quantile(w, 0.99)))
                .collect(),
        ),
    );
}

/// Replays `lines` in-process: once without spans, then once with spans
/// around each public call. Returns `(untraced s, traced s)`; records
/// each submit's outcome (`true` = served from a cache) in `cached`.
fn replay(
    run: &mut Run,
    tr: &mut Tracer,
    service: &MapService,
    keys: &[Key],
    lines: &[usize],
    cached: &mut Vec<bool>,
) -> (f64, f64) {
    let mut timings = [0.0; 2];
    for (pass, timing) in timings.iter_mut().enumerate() {
        let traced = pass == 1;
        let mut off = Tracer::new(false);
        let t: &mut Tracer = if traced { &mut *tr } else { &mut off };
        let start = Instant::now();
        for (i, &k) in lines.iter().enumerate() {
            let key = &keys[k];
            let line = key.line_str();
            let id = i as u64;
            let reply = t.span("bench.request", id, |t| {
                let parsed = t.span("service.parse", id, |_| proto::parse_request(line));
                let Ok(Request::Map(req)) = parsed else {
                    return None;
                };
                t.span("core.fingerprint", id, |_| {
                    cachemap_core::fingerprint(
                        &req.program,
                        &req.platform,
                        &req.mapper,
                        req.version,
                    )
                });
                let resp = t
                    .span("service.submit", id, |_| service.submit(*req))
                    .ok()?;
                if traced {
                    cached.push(resp.cached);
                }
                Some(t.span("service.serialize", id, |_| {
                    resp.to_json().to_string_compact()
                }))
            });
            let dispatched = t.span("service.dispatch", id, |_| {
                dispatch::dispatch_line(service, line)
            });
            let ok = reply.is_some_and(|r| key.matches(r.as_bytes()))
                && key.matches(dispatched.reply.as_bytes());
            run.check(ok, || {
                format!("in-process replay of request {i} differs from the cold oracle")
            });
        }
        *timing = start.elapsed().as_secs_f64();
    }
    (timings[0], timings[1])
}

/// Sets the per-call `service.*` metrics from the replay's spans.
fn report_replay(run: &mut Run, tr: &Tracer, cached: &[bool], untraced_s: f64, traced_s: f64) {
    let us = |name: &str| -> (f64, u64) {
        let d = tr.durations_ms(name);
        (median(&d) * 1e3, d.len() as u64)
    };
    for (span, metric) in [
        ("service.parse", "service.parse_us"),
        ("core.fingerprint", "service.fingerprint_us"),
        ("service.serialize", "service.serialize_us"),
        ("service.dispatch", "service.dispatch_us"),
    ] {
        let (v, n) = us(span);
        run.set(metric, v, "us", n);
    }
    let submits = tr.durations_ms("service.submit");
    let hits: Vec<f64> = submits
        .iter()
        .zip(cached)
        .filter(|(_, &c)| c)
        .map(|(d, _)| d * 1e3)
        .collect();
    run.set(
        "service.submit_hit_us",
        median(&hits),
        "us",
        hits.len() as u64,
    );
    run.set("bench.trace_overhead", traced_s / untraced_s, "ratio", 1);
}

/// Stops the server and the service, waiting for their threads.
fn stop(server: AsyncServer, service: Arc<MapService>) {
    server.shutdown();
    server.join();
    drop(server);
    service.shutdown();
}

/// A scratch directory under the results directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(run: &Run) -> Result<Scratch, String> {
        let dir = run
            .results_dir()?
            .join(format!("scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// serve-churn's inputs: the base templates, their cold oracle mappings
/// and the seeded keys built on them.
struct Inputs {
    programs: Vec<(Program, DataSpace)>,
    bases: Vec<Template>,
    maps: Vec<MappedProgram>,
    /// Summed wall time of the oracle mappings.
    map_s: f64,
    oracle_bytes: Vec<String>,
    requests: Vec<MapRequest>,
    keys: Vec<Key>,
}

impl Inputs {
    /// Key k is base k mod B under a seeded program name: a distinct
    /// fingerprint whose mapping is the base's (names do not enter the
    /// mapping; `run_churn` checks that on two names per base).
    fn build(seed: u64, platform: &PlatformConfig, tree: &HierarchyTree) -> Inputs {
        let programs: Vec<(Program, DataSpace)> = suite(Scale::Test)
            .into_iter()
            .filter(|a| a.name == CHURN_APP)
            .map(|a| {
                let data = DataSpace::new(&a.program.arrays, platform.chunk_bytes);
                (a.program, data)
            })
            .collect();
        let bases = template_grid(programs.len());
        let (maps, map_s) = oracles(&programs, &bases, platform, tree);
        let oracle_bytes = maps
            .iter()
            .map(|m| m.to_json().to_string_compact())
            .collect();
        let mut inputs = Inputs {
            programs,
            bases,
            maps,
            map_s,
            oracle_bytes,
            requests: Vec::new(),
            keys: Vec::new(),
        };
        let mut rng = XorShift64::new(seed ^ 0xc4a2_0000_0000_0002);
        let requests: Vec<MapRequest> = (0..CHURN_KEYS)
            .map(|k| inputs.request(k, format!("{CHURN_APP}-{:016x}", rng.next_u64()), platform))
            .collect();
        inputs.keys = requests
            .iter()
            .enumerate()
            .map(|(k, r)| Key::new(r, inputs.oracle(k)))
            .collect();
        inputs.requests = requests;
        inputs
    }

    /// The request for key `k`: base `k mod B` under the program name `name`.
    fn request(&self, k: usize, name: String, platform: &PlatformConfig) -> MapRequest {
        let b = &self.bases[k % self.bases.len()];
        let mut program = self.programs[b.app].0.clone();
        program.name = name;
        MapRequest {
            id: k as u64,
            program,
            platform: platform.clone(),
            mapper: b.mapper,
            version: b.version,
            deadline_ms: None,
            tenant: None,
        }
    }

    /// The cold oracle's mapping bytes for key `k`.
    fn oracle(&self, k: usize) -> &str {
        &self.oracle_bytes[k % self.bases.len()]
    }
}

/// Runs `serve-churn`.
pub fn run_churn(run: &mut Run) -> Result<(), String> {
    let mut tr = Tracer::new(run.args.trace);
    let scratch = Scratch::new(run)?;
    let platform = PlatformConfig::tiny();
    let tree = HierarchyTree::from_config(&platform).map_err(|e| e.to_string())?;

    // Set-up — inputs and oracles, then a service with L2 in a fresh
    // directory, its server, and the prewarm — runs several times. Each
    // time the previous service is stopped first, so two are never up
    // together; the last one serves the measured stretch.
    let mut setups = Setups::new(run.args.trace);
    let mut up = None;
    while setups.again() {
        if let Some((_, server, service, conns)) = up.take() {
            drop(conns);
            stop(server, service);
        }
        let l2_dir = scratch.0.join(format!("l2-{}", setups.samples().len()));
        let (inputs, server, service, conns, warm) = setups.time(|| {
            let inputs = Inputs::build(run.args.seed, &platform, &tree);
            let cfg = ServiceConfig {
                cache_shards: CHURN_L1.0,
                cache_capacity_per_shard: CHURN_L1.1,
                l2_dir: Some(l2_dir),
                ..ServiceConfig::default()
            };
            let service = Arc::new(MapService::start(cfg));
            let server = AsyncServer::spawn("127.0.0.1:0", Arc::clone(&service))
                .map_err(|e| format!("bind: {e}"))?;
            let conns = connect(server.addr())?;
            let warm = drive(
                &conns,
                &inputs.keys,
                &(0..CHURN_PREWARM).map(|k| (0, k)).collect::<Vec<_>>(),
            );
            Ok::<_, String>((inputs, server, service, conns, warm))
        })?;
        warm.check(run, "prewarm");
        up = Some((inputs, server, service, conns));
    }
    let (inputs, server, service, conns) = up.ok_or("no set-up ran")?;
    let limit_ms = service.config().slo_latency_ms as f64;
    run.set_setup(setups.samples());
    // A final `peak_rss_mb` above this was reached in the measured stretch.
    run.info("peak_rss_mb_after_setup", Json::Float(peak_rss_mb()));
    run.set("map_s", inputs.map_s, "s", inputs.bases.len() as u64);
    run.info("keys", Json::UInt(CHURN_KEYS as u64));
    run.info("l1_capacity", Json::UInt((CHURN_L1.0 * CHURN_L1.1) as u64));
    run.info("offered_rps", Json::Float(CHURN_RPS));
    for (k, req) in inputs
        .requests
        .iter()
        .enumerate()
        .take(2 * inputs.bases.len())
    {
        let b = &inputs.bases[k % inputs.bases.len()];
        let data = &inputs.programs[b.app].1;
        let mp = Mapper::new(b.mapper).map(&req.program, data, &platform, &tree, b.version);
        run.check(mp.to_json().to_string_compact() == inputs.oracle(k), || {
            format!(
                "renamed program {} maps differently from its base",
                req.program.name
            )
        });
    }

    let mut rng = XorShift64::new(run.args.seed ^ 0xc4a2_0000_0000_0003);
    let zipf = Zipf::new(inputs.keys.len(), ZIPF_S);
    let sched = schedule(&mut rng, CHURN_RPS, run.args.seconds, &zipf);
    let before_loop = LoopSnapshot::take(&server);
    let before_stats = service.stats();
    let t = drive(&conns, &inputs.keys, &sched);
    t.check(run, "churn");
    report_latency(run, &t, limit_ms);
    run.attempted += t.sent;
    run.failed += t.failed();
    run.set(
        "throughput",
        ratio(t.within(limit_ms) as f64, t.elapsed_s),
        "1/s",
        t.sent,
    );
    run.set(
        "fail_frac",
        ratio(t.failed() as f64, t.sent as f64),
        "ratio",
        t.sent,
    );
    let after_stats = service.stats();
    run.info(
        "distinct_keys_requested",
        Json::UInt(
            sched
                .iter()
                .map(|s| s.1)
                .collect::<std::collections::BTreeSet<_>>()
                .len() as u64,
        ),
    );

    before_loop.report(LoopSnapshot::take(&server), run);
    report_service_stats(run, before_stats, after_stats);
    if run.args.trace {
        let lines: Vec<usize> = sched.iter().take(REPLAY).map(|s| s.1).collect();
        let mut cached = Vec::new();
        let (u, tt) = replay(run, &mut tr, &service, &inputs.keys, &lines, &mut cached);
        report_replay(run, &tr, &cached, u, tt);
        // Fresh keys: the compute path.
        let before = tr.durations_ms("service.submit").len();
        for b in 0..inputs.bases.len() {
            let req = inputs.request(b, format!("fresh-{b}-{:016x}", rng.next_u64()), &platform);
            let id = req.id;
            let resp = tr.span("service.submit", id, |_| service.submit(req));
            run.check(matches!(&resp, Ok(r) if !r.cached), || {
                format!("fresh key {b} was not computed")
            });
        }
        let miss = tr.durations_ms("service.submit")[before..].to_vec();
        run.set(
            "service.submit_miss_ms",
            median(&miss),
            "ms",
            miss.len() as u64,
        );
        l2store_probe(run, &mut tr, &scratch, &inputs)?;
    }
    drop(conns);
    stop(server, service);
    served_quality(
        run,
        &inputs.programs,
        &inputs.bases,
        &inputs.maps,
        &platform,
        &tree,
    )?;
    if run.args.trace {
        tr.report(run)?;
    }
    Ok(())
}

/// Times `L2Store::put` and `get` on the churn replies in a fresh store.
fn l2store_probe(
    run: &mut Run,
    tr: &mut Tracer,
    scratch: &Scratch,
    inputs: &Inputs,
) -> Result<(), String> {
    let dir = scratch.0.join("l2probe");
    let mut store =
        L2Store::open(L2Config::at(&dir), 0).map_err(|e| format!("open L2 store: {e}"))?;
    let mut payload_bytes = 0u64;
    for (k, req) in inputs.requests.iter().enumerate() {
        let fp = cachemap_core::fingerprint(&req.program, &req.platform, &req.mapper, req.version);
        let scope = MapService::scope_fingerprint(&req.platform, req.version);
        let payload = inputs.oracle(k).as_bytes();
        payload_bytes += payload.len() as u64;
        tr.span("storage.l2store.put", k as u64, |_| {
            store.put(fp, scope, payload, 0)
        })
        .map_err(|e| format!("L2 put: {e}"))?;
        let back = tr.span("storage.l2store.get", k as u64, |_| store.get(&fp, 0));
        run.check(back.as_deref() == Some(payload), || {
            format!("L2 store returned other bytes for key {k}")
        });
    }
    store.flush().map_err(|e| format!("L2 flush: {e}"))?;
    let log_bytes: u64 = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let us = |name: &str| median(&tr.durations_ms(name)) * 1e3;
    run.set(
        "storage.l2store.put_us",
        us("storage.l2store.put"),
        "us",
        inputs.keys.len() as u64,
    );
    run.set(
        "storage.l2store.get_us",
        us("storage.l2store.get"),
        "us",
        inputs.keys.len() as u64,
    );
    run.set(
        "storage.l2store.bytes_per_entry",
        ratio(log_bytes as f64, store.len() as f64),
        "B",
        store.len() as u64,
    );
    run.info(
        "l2store_payload_bytes_mean",
        Json::Float(ratio(payload_bytes as f64, inputs.requests.len() as f64)),
    );
    Ok(())
}
