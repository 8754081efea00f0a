//! Request-scoped tracing and the in-memory flight recorder.
//!
//! Where [`crate::span`] profiles the *inside* of one mapper pipeline
//! run, this module covers the *whole service path* of one request:
//! admission, cache tiers, coalescing, queueing, compute, and response
//! serialization, each as a flat [`Stage`] with a start offset and
//! duration relative to request arrival. The compute stage may carry
//! the mapper's [`crate::Profile`] span tree as a child, linking the
//! two layers.
//!
//! Design constraints, in the spirit of the rest of this crate:
//!
//! * **Deterministic identity** — a [`TraceId`] is derived from the
//!   request's content fingerprint and its admission sequence number
//!   (FNV-1a over both), never from the clock or a random source, so a
//!   replayed campaign produces the same ids in the same order.
//! * **Bounded memory** — the [`FlightRecorder`] keeps the most recent
//!   `capacity` trace summaries in a ring; recording is O(1) and never
//!   allocates beyond the slot being replaced.
//! * **Anomaly-triggered dumps** — the ring is written to disk only
//!   when something notable happens (a slow request, a rejection
//!   burst, a drain, a crash recovery), with a per-trigger cooldown so
//!   a sustained anomaly produces a handful of dumps, not thousands.
//!
//! [`validate_trace`] and [`validate_flight_record`] are the schema
//! checks for the wire `trace` field and the `flight-*.json` dump
//! artifacts, mirroring [`crate::schema::validate_artifact`]: they
//! collect *every* problem instead of stopping at the first.

use cachemap_util::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Schema tag written into every flight-recorder dump.
pub const FLIGHT_SCHEMA: &str = "flight-record/v1";

/// A deterministic per-request trace identifier.
///
/// Derived from the request's 128-bit content fingerprint and the
/// service's admission sequence number with FNV-1a/64 — no wall clock,
/// no randomness — so identical campaigns yield identical ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derives the id for the `seq`-th traced admission of the request
    /// whose content fingerprint is `fingerprint`.
    pub fn derive(fingerprint: u128, seq: u64) -> TraceId {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for b in fingerprint
            .to_le_bytes()
            .iter()
            .chain(seq.to_le_bytes().iter())
        {
            h ^= u64::from(*b);
            h = h.wrapping_mul(PRIME);
        }
        TraceId(h)
    }

    /// 16-hex-digit wire form.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the wire form back (`None` on malformed input).
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

/// One stage of a request's service-path timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name (`parse`, `fingerprint`, `l1`, `l2`, `l2_parse`,
    /// `coalesce`, `compute`, `serialize`).
    pub name: String,
    /// Offset from request arrival, in microseconds.
    pub start_us: u64,
    /// Stage duration in microseconds.
    pub dur_us: u64,
    /// Coalesce role tag: `leader` or `follower` (coalesce stage only).
    pub role: Option<String>,
    /// The mapper's profile span tree (compute stage only), as the
    /// `{"spans":[…]}` JSON a [`crate::Profile`] serializes to.
    pub profile: Option<Json>,
}

impl Stage {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("start_us", Json::UInt(self.start_us)),
            ("dur_us", Json::UInt(self.dur_us)),
        ];
        if let Some(r) = &self.role {
            pairs.push(("role", Json::Str(r.clone())));
        }
        if let Some(p) = &self.profile {
            pairs.push(("profile", p.clone()));
        }
        Json::object(pairs)
    }
}

/// One request's trace: identity, outcome, and its stage timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Deterministic trace id.
    pub trace_id: TraceId,
    /// Admission sequence number the id was derived with.
    pub seq: u64,
    /// Content fingerprint (hex) of the request.
    pub fingerprint: String,
    /// Tenant label (`anonymous` for unlabelled requests).
    pub tenant: String,
    /// Final outcome: an `ok_*` service outcome or a typed error code.
    pub outcome: String,
    /// Whether the response was served from a cache tier or coalesced.
    pub cached: bool,
    /// End-to-end service-side latency in microseconds.
    pub total_us: u64,
    /// The stage timeline, in the order stages were entered.
    pub stages: Vec<Stage>,
}

impl TraceRecord {
    /// A fresh record with no stages and a pending outcome.
    pub fn new(trace_id: TraceId, seq: u64, fingerprint: String, tenant: String) -> TraceRecord {
        TraceRecord {
            trace_id,
            seq,
            fingerprint,
            tenant,
            outcome: String::new(),
            cached: false,
            total_us: 0,
            stages: Vec::with_capacity(8),
        }
    }

    /// Appends a plain stage.
    pub fn push_stage(&mut self, name: &str, start_us: u64, dur_us: u64) {
        self.stages.push(Stage {
            name: name.to_string(),
            start_us,
            dur_us,
            role: None,
            profile: None,
        });
    }

    /// Appends a role-tagged stage (the coalesce rendezvous).
    pub fn push_tagged(&mut self, name: &str, start_us: u64, dur_us: u64, role: &str) {
        self.stages.push(Stage {
            name: name.to_string(),
            start_us,
            dur_us,
            role: Some(role.to_string()),
            profile: None,
        });
    }

    /// Appends the compute stage with the mapper's profile attached.
    pub fn push_profiled(&mut self, name: &str, start_us: u64, dur_us: u64, profile: Option<Json>) {
        self.stages.push(Stage {
            name: name.to_string(),
            start_us,
            dur_us,
            role: None,
            profile,
        });
    }

    /// Sum of all stage durations (the attribution total).
    pub fn stage_sum_us(&self) -> u64 {
        self.stages.iter().map(|s| s.dur_us).sum()
    }

    /// The wire/dump JSON form.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("trace_id", Json::Str(self.trace_id.to_hex())),
            ("seq", Json::UInt(self.seq)),
            ("fingerprint", Json::Str(self.fingerprint.clone())),
            ("tenant", Json::Str(self.tenant.clone())),
            ("outcome", Json::Str(self.outcome.clone())),
            ("cached", Json::Bool(self.cached)),
            ("total_us", Json::UInt(self.total_us)),
            (
                "stages",
                Json::Array(self.stages.iter().map(Stage::to_json).collect()),
            ),
        ])
    }
}

/// Validates one trace object (the `trace` response field or one entry
/// of a flight dump). Returns every violation found.
pub fn validate_trace(v: &Json) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let ctx = "trace";
    match v.get("trace_id").and_then(Json::as_str) {
        None => errs.push(format!("{ctx}: missing string \"trace_id\"")),
        Some(id) => {
            if TraceId::from_hex(id).is_none() {
                errs.push(format!("{ctx}: trace_id {id:?} is not 16 hex digits"));
            }
        }
    }
    for key in ["seq", "total_us"] {
        if v.get(key).and_then(Json::as_u64).is_none() {
            errs.push(format!("{ctx}: missing unsigned \"{key}\""));
        }
    }
    for key in ["fingerprint", "tenant", "outcome"] {
        match v.get(key).and_then(Json::as_str) {
            None => errs.push(format!("{ctx}: missing string \"{key}\"")),
            Some("") if key == "outcome" => {
                errs.push(format!("{ctx}: \"outcome\" must be non-empty"));
            }
            Some(_) => {}
        }
    }
    if !matches!(v.get("cached"), Some(Json::Bool(_))) {
        errs.push(format!("{ctx}: missing boolean \"cached\""));
    }
    match v.get("stages").and_then(Json::as_array) {
        None => errs.push(format!("{ctx}: missing array \"stages\"")),
        Some(stages) => {
            for (i, s) in stages.iter().enumerate() {
                match s.get("name").and_then(Json::as_str) {
                    None | Some("") => {
                        errs.push(format!("{ctx}: stage {i}: missing non-empty \"name\""));
                    }
                    Some(_) => {}
                }
                for key in ["start_us", "dur_us"] {
                    if s.get(key).and_then(Json::as_u64).is_none() {
                        errs.push(format!("{ctx}: stage {i}: missing unsigned \"{key}\""));
                    }
                }
                if let Some(role) = s.get("role") {
                    match role.as_str() {
                        Some("leader") | Some("follower") => {}
                        other => errs.push(format!(
                            "{ctx}: stage {i}: role must be leader|follower, got {other:?}"
                        )),
                    }
                }
                if let Some(profile) = s.get("profile") {
                    if profile.get("spans").and_then(Json::as_array).is_none() {
                        errs.push(format!(
                            "{ctx}: stage {i}: profile must carry a \"spans\" array"
                        ));
                    }
                }
            }
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Validates one `flight-*.json` dump artifact. Returns every
/// violation found, including per-trace problems.
pub fn validate_flight_record(v: &Json) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    match v.get("schema").and_then(Json::as_str) {
        Some(FLIGHT_SCHEMA) => {}
        other => errs.push(format!(
            "flight: schema must be {FLIGHT_SCHEMA:?}, got {other:?}"
        )),
    }
    match v.get("trigger").and_then(Json::as_str) {
        None | Some("") => errs.push("flight: missing non-empty string \"trigger\"".into()),
        Some(_) => {}
    }
    for key in ["dump_seq", "recorded_total"] {
        if v.get(key).and_then(Json::as_u64).is_none() {
            errs.push(format!("flight: missing unsigned \"{key}\""));
        }
    }
    match v.get("traces").and_then(Json::as_array) {
        None => errs.push("flight: missing array \"traces\"".into()),
        Some(traces) => {
            for (i, t) in traces.iter().enumerate() {
                if let Err(sub) = validate_trace(t) {
                    for e in sub {
                        errs.push(format!("flight: traces[{i}]: {e}"));
                    }
                }
            }
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

struct Ring {
    /// Most recent trace summaries, oldest first once full.
    slots: Vec<Json>,
    /// Rejection flags aligned with `slots` (same indices).
    rejected: Vec<bool>,
    /// Next write position.
    next: usize,
    /// Total records ever written.
    recorded: u64,
    /// Per-trigger `recorded` value at the last dump (cooldown state).
    last_dump: BTreeMap<String, u64>,
}

/// A bounded ring of recent trace summaries with anomaly-triggered
/// disk dumps (see module docs). All methods take `&self`; the ring is
/// guarded by one mutex, and recording is O(1).
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
    dump_seq: AtomicU64,
}

impl FlightRecorder {
    /// An empty recorder keeping the most recent `capacity` traces.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity),
                rejected: Vec::with_capacity(capacity),
                next: 0,
                recorded: 0,
                last_dump: BTreeMap::new(),
            }),
            dump_seq: AtomicU64::new(0),
        }
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one finished trace. `rejected` marks typed rejections
    /// for the burst detector.
    pub fn record(&self, trace: Json, rejected: bool) {
        let mut r = self.ring.lock().expect("flight ring poisoned");
        if r.slots.len() < self.capacity {
            r.slots.push(trace);
            r.rejected.push(rejected);
        } else {
            let next = r.next;
            r.slots[next] = trace;
            r.rejected[next] = rejected;
        }
        r.next = (r.next + 1) % self.capacity;
        r.recorded += 1;
    }

    /// Number of traces currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").slots.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total traces ever recorded (monotonic; exceeds `len` after the
    /// ring wraps).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().expect("flight ring poisoned").recorded
    }

    /// The held traces, oldest first.
    pub fn snapshot(&self) -> Vec<Json> {
        let r = self.ring.lock().expect("flight ring poisoned");
        self.ordered(&r)
    }

    fn ordered(&self, r: &Ring) -> Vec<Json> {
        if r.slots.len() < self.capacity {
            r.slots.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            for i in 0..self.capacity {
                out.push(r.slots[(r.next + i) % self.capacity].clone());
            }
            out
        }
    }

    /// The most recently recorded trace, if any.
    pub fn last(&self) -> Option<Json> {
        let r = self.ring.lock().expect("flight ring poisoned");
        if r.slots.is_empty() {
            return None;
        }
        let idx = (r.next + self.capacity - 1) % self.capacity.max(r.slots.len());
        Some(r.slots[idx.min(r.slots.len() - 1)].clone())
    }

    /// Finds a held trace by its hex id (most recent match wins).
    pub fn find(&self, trace_id: &str) -> Option<Json> {
        let r = self.ring.lock().expect("flight ring poisoned");
        self.ordered(&r)
            .into_iter()
            .rev()
            .find(|t| t.get("trace_id").and_then(Json::as_str) == Some(trace_id))
    }

    /// True when at least `min` of the most recent `window` records
    /// were rejections — the rejection-burst anomaly condition.
    pub fn rejection_burst(&self, window: usize, min: usize) -> bool {
        let r = self.ring.lock().expect("flight ring poisoned");
        let n = r.rejected.len();
        if n == 0 {
            return false;
        }
        let window = window.min(n);
        let mut hits = 0usize;
        for i in 0..window {
            // Until the ring is full, records live at 0..n in order and
            // the newest is at n-1; once full, the newest is just
            // behind the write cursor.
            let idx = if n < self.capacity {
                n - 1 - i
            } else {
                (r.next + n - 1 - i) % n
            };
            if r.rejected[idx] {
                hits += 1;
            }
        }
        hits >= min
    }

    /// Dumps the current ring to `dir/flight-<trigger>-<seq>.json`,
    /// unless fewer than `cooldown` records landed since the last dump
    /// for this trigger (returns `Ok(None)` when suppressed). The dump
    /// carries the trigger, sequence, totals, the full ring (oldest
    /// first), and any `extra` context pairs.
    pub fn dump(
        &self,
        dir: &Path,
        trigger: &str,
        cooldown: u64,
        extra: Vec<(&str, Json)>,
    ) -> std::io::Result<Option<PathBuf>> {
        let (traces, recorded) = {
            let mut r = self.ring.lock().expect("flight ring poisoned");
            let recorded = r.recorded;
            if let Some(&at) = r.last_dump.get(trigger) {
                if recorded.saturating_sub(at) < cooldown {
                    return Ok(None);
                }
            }
            r.last_dump.insert(trigger.to_string(), recorded);
            (self.ordered(&r), recorded)
        };
        let seq = self.dump_seq.fetch_add(1, Ordering::SeqCst);
        let mut pairs = vec![
            ("schema", Json::Str(FLIGHT_SCHEMA.into())),
            ("trigger", Json::Str(trigger.to_string())),
            ("dump_seq", Json::UInt(seq)),
            ("recorded_total", Json::UInt(recorded)),
        ];
        pairs.extend(extra);
        pairs.push(("traces", Json::Array(traces)));
        let body = Json::object(pairs).to_string_pretty();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("flight-{trigger}-{seq:04}.json"));
        std::fs::write(&path, body)?;
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn trace_json(seq: u64, outcome: &str) -> Json {
        let mut rec = TraceRecord::new(
            TraceId::derive(0xfeed, seq),
            seq,
            format!("{:032x}", 0xfeedu128),
            "anonymous".into(),
        );
        rec.push_stage("l1", 0, 3);
        rec.push_tagged("coalesce", 3, 40, "follower");
        rec.outcome = outcome.to_string();
        rec.cached = outcome.starts_with("ok");
        rec.total_us = 50;
        rec.to_json()
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = TraceId::derive(42, 0);
        let b = TraceId::derive(42, 0);
        let c = TraceId::derive(42, 1);
        let d = TraceId::derive(43, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(TraceId::from_hex(&a.to_hex()), Some(a));
        assert_eq!(TraceId::from_hex("xyz"), None);
    }

    #[test]
    fn trace_record_json_passes_its_own_schema() {
        let j = trace_json(7, "ok_cached");
        validate_trace(&j).unwrap();
        // Break it in several ways; every break must be reported.
        let bad = Json::object(vec![("trace_id", Json::Str("nope".into()))]);
        let errs = validate_trace(&bad).unwrap_err();
        assert!(errs.len() >= 5, "all violations reported: {errs:?}");
    }

    #[test]
    fn ring_wraps_and_keeps_the_most_recent() {
        let fl = FlightRecorder::new(4);
        for seq in 0..10 {
            fl.record(trace_json(seq, "ok_cached"), false);
        }
        assert_eq!(fl.len(), 4);
        assert_eq!(fl.recorded(), 10);
        let seqs: Vec<u64> = fl
            .snapshot()
            .iter()
            .map(|t| t.get("seq").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first, most recent kept");
        let last = fl.last().unwrap();
        assert_eq!(last.get("seq").and_then(Json::as_u64), Some(9));
        // find() locates by hex id.
        let id = TraceId::derive(0xfeed, 8).to_hex();
        assert!(fl.find(&id).is_some());
        assert!(fl.find(&TraceId::derive(0xfeed, 2).to_hex()).is_none());
    }

    #[test]
    fn concurrent_writers_never_lose_counts() {
        let fl = Arc::new(FlightRecorder::new(64));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let fl = Arc::clone(&fl);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        fl.record(trace_json(t * 50 + i, "ok_cached"), false);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fl.recorded(), 400);
        assert_eq!(fl.len(), 64);
        for t in fl.snapshot() {
            validate_trace(&t).unwrap();
        }
    }

    #[test]
    fn rejection_burst_detects_dense_windows_only() {
        let fl = FlightRecorder::new(32);
        for seq in 0..16 {
            fl.record(trace_json(seq, "ok_cached"), false);
        }
        assert!(!fl.rejection_burst(16, 8));
        for seq in 16..24 {
            fl.record(trace_json(seq, "queue_full"), true);
        }
        assert!(fl.rejection_burst(16, 8));
        assert!(!fl.rejection_burst(8, 9), "cannot exceed the window");
    }

    #[test]
    fn dump_writes_a_valid_artifact_and_respects_cooldown() {
        let dir = std::env::temp_dir().join(format!("cachemap-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fl = FlightRecorder::new(8);
        for seq in 0..5 {
            fl.record(trace_json(seq, "ok_cached"), false);
        }
        let path = fl
            .dump(
                &dir,
                "slow_request",
                4,
                vec![("queue_depth", Json::UInt(3))],
            )
            .unwrap()
            .expect("first dump always fires");
        let text = std::fs::read_to_string(&path).unwrap();
        let v = cachemap_util::json::parse(&text).unwrap();
        validate_flight_record(&v).unwrap();
        assert_eq!(
            v.get("trigger").and_then(Json::as_str),
            Some("slow_request")
        );
        assert_eq!(
            v.get("traces").and_then(Json::as_array).map(<[Json]>::len),
            Some(5)
        );
        // Within the cooldown: suppressed; after 4 more records: fires.
        assert!(fl.dump(&dir, "slow_request", 4, vec![]).unwrap().is_none());
        for seq in 5..9 {
            fl.record(trace_json(seq, "ok_cached"), false);
        }
        assert!(fl.dump(&dir, "slow_request", 4, vec![]).unwrap().is_some());
        // A different trigger has independent cooldown state.
        assert!(fl.dump(&dir, "drain", 4, vec![]).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
