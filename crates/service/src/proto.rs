//! The JSON-lines wire protocol.
//!
//! One request per line, one response per line, UTF-8, `\n`-terminated.
//! Every request is an object with an `"op"` discriminator:
//!
//! ```text
//! {"op":"map","id":7,"version":"inter-processor","deadline_ms":5000,
//!  "program":{…},"platform":{…},"mapper":{…}}          → mapping or error
//! {"op":"ping","id":1}                                  → liveness echo
//! {"op":"metrics","id":2}                               → Prometheus text
//! {"op":"stats","id":3}                                 → cache/queue counters
//! {"op":"trace","id":5,"trace_id":"9f2c…"}              → flight-recorder trace
//! {"op":"shutdown","id":4}                              → stop accepting
//! ```
//!
//! When request tracing is enabled (`ServiceConfig::tracing`), map
//! responses additionally carry a `"trace"` object — the per-stage
//! latency attribution of that request — and `trace` looks a recent
//! trace up again by id (`"last"`, the default, returns the most
//! recent). With tracing off, map responses are byte-identical to the
//! untraced protocol and `trace` answers `not_found`.
//!
//! `mapper` and `deadline_ms` are optional (paper defaults / the
//! service's default deadline). Responses always carry `id` (0 when the
//! request was too malformed to read one) and `"status"`: `"ok"` or
//! `"error"` with a typed [`ServiceError`] body. The same port also
//! answers plain `GET /metrics` HTTP requests for scrapers (see
//! [`crate::dispatch::http_response`]).

use crate::error::ServiceError;
use cachemap_core::wire::{mapper_config_from_json, version_from_json};
use cachemap_core::{MapperConfig, Version};
use cachemap_polyhedral::wire::program_from_json;
use cachemap_polyhedral::Program;
use cachemap_storage::wire::platform_from_json;
use cachemap_storage::{MappedProgram, PlatformConfig};
use cachemap_util::{Fingerprint, Json, ToJson};
use std::sync::Arc;

/// One mapping request: the pipeline inputs plus caller bookkeeping.
#[derive(Debug, Clone)]
pub struct MapRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The loop nests to map.
    pub program: Program,
    /// The storage hierarchy to map onto.
    pub platform: PlatformConfig,
    /// Mapper tuning knobs (paper defaults when omitted on the wire).
    pub mapper: MapperConfig,
    /// Which program version to generate.
    pub version: Version,
    /// Per-request deadline in milliseconds; `None` uses the service
    /// default, `Some(0)` is an already-expired deadline (rejected at
    /// admission — useful for probes and tests).
    pub deadline_ms: Option<u64>,
    /// Free-form caller label, copied into the request's trace
    /// (`anonymous` when absent or empty). The service keeps no state
    /// per label, and it is not part of the content fingerprint:
    /// identical problems coalesce and share cache entries whatever
    /// their label.
    pub tenant: Option<String>,
}

impl ToJson for MapRequest {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("op", Json::Str("map".into())),
            ("id", Json::UInt(self.id)),
            ("version", self.version.to_json()),
            ("program", self.program.to_json()),
            ("platform", self.platform.to_json()),
            ("mapper", self.mapper.to_json()),
        ];
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::UInt(ms)));
        }
        if let Some(t) = &self.tenant {
            pairs.push(("tenant", Json::Str(t.clone())));
        }
        Json::object(pairs)
    }
}

/// A parsed protocol request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compute (or recall) a mapping.
    Map(Box<MapRequest>),
    /// Liveness echo.
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Prometheus text exposition of the service registry.
    Metrics {
        /// Correlation id.
        id: u64,
    },
    /// Service counters as JSON (cache hits/misses, queue, rejections).
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Look up a recent request trace in the flight recorder.
    Trace {
        /// Correlation id.
        id: u64,
        /// Hex trace id, or `"last"` for the most recent trace.
        trace_id: String,
    },
    /// Ask the server to stop accepting connections.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let v = cachemap_util::json::parse(line.trim()).map_err(|e| ServiceError::BadRequest {
        message: e.to_string(),
    })?;
    request_from_json(&v)
}

/// Parses a request from an already-built JSON tree.
pub fn request_from_json(v: &Json) -> Result<Request, ServiceError> {
    let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::BadRequest {
            message: "missing string field 'op'".into(),
        })?;
    match op {
        "ping" => Ok(Request::Ping { id }),
        "metrics" => Ok(Request::Metrics { id }),
        "stats" => Ok(Request::Stats { id }),
        "trace" => {
            let trace_id = match v.get("trace_id") {
                None | Some(Json::Null) => "last".to_string(),
                Some(t) => t
                    .as_str()
                    .ok_or_else(|| ServiceError::BadRequest {
                        message: "trace_id: expected a string".into(),
                    })?
                    .to_string(),
            };
            Ok(Request::Trace { id, trace_id })
        }
        "shutdown" => Ok(Request::Shutdown { id }),
        "map" => {
            let program =
                program_from_json(v.get("program").ok_or_else(|| ServiceError::BadRequest {
                    message: "missing field 'program'".into(),
                })?)?;
            let platform =
                platform_from_json(v.get("platform").ok_or_else(|| ServiceError::BadRequest {
                    message: "missing field 'platform'".into(),
                })?)?;
            let mapper = match v.get("mapper") {
                None => MapperConfig::default(),
                Some(m) => mapper_config_from_json(m)?,
            };
            let version =
                version_from_json(v.get("version").ok_or_else(|| ServiceError::BadRequest {
                    message: "missing field 'version'".into(),
                })?)?;
            let deadline_ms = match v.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(d) => Some(d.as_u64().ok_or_else(|| ServiceError::BadRequest {
                    message: "deadline_ms: expected a non-negative integer".into(),
                })?),
            };
            let tenant = match v.get("tenant") {
                None | Some(Json::Null) => None,
                Some(t) => Some(
                    t.as_str()
                        .ok_or_else(|| ServiceError::BadRequest {
                            message: "tenant: expected a string".into(),
                        })?
                        .to_string(),
                ),
            };
            Ok(Request::Map(Box::new(MapRequest {
                id,
                program,
                platform,
                mapper,
                version,
                deadline_ms,
                tenant,
            })))
        }
        other => Err(ServiceError::BadRequest {
            message: format!("unknown op '{other}'"),
        }),
    }
}

/// A served mapping.
#[derive(Debug, Clone)]
pub struct MapResponse {
    /// Echo of the request id.
    pub id: u64,
    /// True when the mapping came from the fingerprint cache.
    pub cached: bool,
    /// The request's content fingerprint (hex on the wire).
    pub fingerprint: Fingerprint,
    /// The mapping itself (shared with the cache).
    pub mapping: Arc<MappedProgram>,
    /// Service-side latency in microseconds (admission to reply).
    pub service_us: u64,
    /// The request's trace, pending its serialization stage (`None`
    /// with tracing disabled). Not part of [`ToJson`]: the server
    /// serializes the base response first (timing it), then appends the
    /// finalized trace — see `MapService::finalize_trace`.
    pub trace: Option<Box<crate::PendingTrace>>,
}

impl ToJson for MapResponse {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("id", Json::UInt(self.id)),
            ("status", Json::Str("ok".into())),
            ("op", Json::Str("map".into())),
            ("cached", Json::Bool(self.cached)),
            ("fingerprint", Json::Str(self.fingerprint.to_hex())),
            ("service_us", Json::UInt(self.service_us)),
            ("mapping", self.mapping.to_json()),
        ])
    }
}

/// Builds the error response line body for `op`.
pub fn error_response_json(id: u64, op: &str, err: &ServiceError) -> Json {
    Json::object(vec![
        ("id", Json::UInt(id)),
        ("status", Json::Str("error".into())),
        ("op", Json::Str(op.to_string())),
        ("error", err.to_json()),
    ])
}

/// Builds a simple `status:ok` response with extra payload fields.
pub fn ok_response_json(id: u64, op: &str, extra: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("id", Json::UInt(id)),
        ("status", Json::Str("ok".into())),
        ("op", Json::Str(op.to_string())),
    ];
    pairs.extend(extra);
    Json::object(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemap_polyhedral::{AffineExpr, ArrayDecl, ArrayRef, IterationSpace, LoopNest};

    fn tiny_request() -> MapRequest {
        let a = ArrayDecl::new("A", vec![64], 8);
        let space = IterationSpace::rectangular(&[64]);
        let nest = LoopNest::new(
            "axpy",
            space,
            vec![
                ArrayRef::read(0, vec![AffineExpr::var(0)]),
                ArrayRef::write(0, vec![AffineExpr::var(0)]),
            ],
        );
        MapRequest {
            id: 42,
            program: Program::new("axpy", vec![a], vec![nest]),
            platform: PlatformConfig::tiny(),
            mapper: MapperConfig::default(),
            version: Version::InterProcessor,
            deadline_ms: Some(2000),
            tenant: Some("acme".into()),
        }
    }

    #[test]
    fn map_request_round_trips_through_a_line() {
        let req = tiny_request();
        let line = req.to_json().to_string_compact();
        match parse_request(&line).unwrap() {
            Request::Map(back) => {
                assert_eq!(back.id, 42);
                assert_eq!(back.program, req.program);
                assert_eq!(back.platform, req.platform);
                assert_eq!(back.mapper, req.mapper);
                assert_eq!(back.version, req.version);
                assert_eq!(back.deadline_ms, Some(2000));
                assert_eq!(back.tenant.as_deref(), Some("acme"));
            }
            other => panic!("expected a map request, got {other:?}"),
        }
    }

    #[test]
    fn control_ops_parse() {
        for (op, want) in [
            ("ping", "ping"),
            ("metrics", "metrics"),
            ("stats", "stats"),
            ("trace", "trace"),
            ("shutdown", "shutdown"),
        ] {
            let line = format!("{{\"op\":\"{op}\",\"id\":9}}");
            let req = parse_request(&line).unwrap();
            let got = match req {
                Request::Ping { id } => ("ping", id),
                Request::Metrics { id } => ("metrics", id),
                Request::Stats { id } => ("stats", id),
                Request::Trace { id, ref trace_id } => {
                    assert_eq!(trace_id, "last", "trace_id defaults to last");
                    ("trace", id)
                }
                Request::Shutdown { id } => ("shutdown", id),
                Request::Map(_) => panic!("not a map"),
            };
            assert_eq!(got, (want, 9));
        }
        // An explicit id is carried through.
        match parse_request("{\"op\":\"trace\",\"id\":1,\"trace_id\":\"00ff00ff00ff00ff\"}")
            .unwrap()
        {
            Request::Trace { trace_id, .. } => assert_eq!(trace_id, "00ff00ff00ff00ff"),
            other => panic!("expected trace, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_bad_requests() {
        for line in ["", "{", "{\"id\":1}", "{\"op\":\"fly\"}"] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code(), "bad_request", "line {line:?}");
        }
        // A removed eviction policy is a typed rejection, not a panic.
        let line = tiny_request().to_json().to_string_compact();
        let removed = line.replace("\"policy\":\"lru\"", "\"policy\":\"gdsf\"");
        assert_ne!(removed, line);
        let err = parse_request(&removed).unwrap_err();
        assert_eq!(err.code(), "bad_request", "line {removed:?}");
    }
}
