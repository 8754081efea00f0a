//! Protocol dispatch: a decoded line goes in, reply bytes come out.
//!
//! The wire protocol is JSON-lines requests ([`crate::proto`]) plus a
//! plain-HTTP `GET /metrics` escape hatch on the same port. The
//! [`crate::aserver::AsyncServer`] front end owns the sockets and the
//! framing; this module owns every reply byte: [`dispatch_line`] for
//! JSON frames, [`http_response`] for HTTP request lines, and the typed
//! rejection lines ([`conn_limit_reply`], [`read_timeout_reply`]) for
//! transport-level policy closes. Benchmarks and tests call
//! [`dispatch_line`] in-process to get the exact bytes the server
//! would write.
//!
//! Nothing here blocks on sockets — callers own all I/O. The only
//! blocking call is `MapService::submit_traced` inside a `map` op,
//! which parks the calling thread until the service's worker pool
//! answers; callers must therefore invoke [`dispatch_line`] from a
//! thread that is allowed to wait (the async server's dispatcher pool
//! — never the event loop itself).

use crate::proto::{self, Request};
use crate::{MapService, ServiceError};
use cachemap_util::ToJson;

/// The outcome of dispatching one JSON-lines request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dispatched {
    /// Reply bytes, without the trailing newline.
    pub reply: String,
    /// `true` when the request was an in-protocol `shutdown`: the reply
    /// must still be written, after which the front end should stop
    /// accepting and begin its drain sequence.
    pub shutdown: bool,
}

/// Parses and executes one JSON-lines request against `service`,
/// producing the reply line. Malformed input yields a typed
/// `bad_request` error reply — never a panic, never a dropped
/// connection.
pub fn dispatch_line(service: &MapService, line: &str) -> Dispatched {
    // Ingress timing: the parse duration is handed to the service so a
    // request's trace timeline starts at the wire, not at admission.
    let parse_t0 = std::time::Instant::now();
    let parsed = proto::parse_request(line);
    let ingress_us = parse_t0.elapsed().as_micros() as u64;
    let mut shutdown = false;
    let reply = match parsed {
        Err(e) => proto::error_response_json(0, "unknown", &e).to_string_compact(),
        Ok(Request::Ping { id }) => {
            proto::ok_response_json(id, "ping", vec![("pong", cachemap_util::Json::Bool(true))])
                .to_string_compact()
        }
        Ok(Request::Metrics { id }) => proto::ok_response_json(
            id,
            "metrics",
            vec![(
                "prometheus",
                cachemap_util::Json::Str(service.metrics_text()),
            )],
        )
        .to_string_compact(),
        Ok(Request::Stats { id }) => {
            proto::ok_response_json(id, "stats", vec![("stats", service.stats().to_json())])
                .to_string_compact()
        }
        Ok(Request::Shutdown { id }) => {
            shutdown = true;
            proto::ok_response_json(
                id,
                "shutdown",
                vec![("stopping", cachemap_util::Json::Bool(true))],
            )
            .to_string_compact()
        }
        Ok(Request::Trace { id, trace_id }) => match service.trace_lookup(&trace_id) {
            Some(trace) => {
                proto::ok_response_json(id, "trace", vec![("trace", trace)]).to_string_compact()
            }
            None => proto::error_response_json(
                id,
                "trace",
                &ServiceError::NotFound {
                    what: format!("trace {trace_id}"),
                },
            )
            .to_string_compact(),
        },
        Ok(Request::Map(req)) => {
            let id = req.id;
            match service.submit_traced(*req, ingress_us) {
                Ok(mut resp) => match resp.trace.take() {
                    // Tracing off: exactly the untraced wire bytes.
                    None => resp.to_json().to_string_compact(),
                    // Tracing on: serialize the base response (that IS
                    // the serialize stage), finalize the trace with the
                    // measured duration, and splice it in as the last
                    // field — the only way the serialize stage can
                    // describe the serialization it rides in.
                    Some(pending) => {
                        let ser_t0 = std::time::Instant::now();
                        let base = resp.to_json().to_string_compact();
                        let trace = service.finalize_trace(pending, ser_t0.elapsed());
                        format!(
                            "{},\"trace\":{}}}",
                            &base[..base.len() - 1],
                            trace.to_string_compact()
                        )
                    }
                },
                Err(e) => proto::error_response_json(id, "map", &e).to_string_compact(),
            }
        }
    };
    Dispatched { reply, shutdown }
}

/// Builds the complete HTTP response (status line, headers, body) for
/// an already-read request line whose headers have been drained.
/// `/metrics` serves the Prometheus text exposition; everything else
/// is a 404. The response always closes the connection.
pub fn http_response(service: &MapService, request_line: &str) -> String {
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = if path == "/metrics" {
        ("200 OK", service.metrics_text())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// The typed rejection line written to a connection refused at the
/// door because `active` connections already hold the `limit` slots.
pub fn conn_limit_reply(active: usize, limit: usize) -> String {
    let err = ServiceError::ConnLimit { active, limit };
    proto::error_response_json(0, "connect", &err).to_string_compact()
}

/// The typed rejection line written to a connection idle past its
/// read budget before it is closed.
pub fn read_timeout_reply(budget_ms: u64) -> String {
    let err = ServiceError::ReadTimeout { budget_ms };
    proto::error_response_json(0, "read", &err).to_string_compact()
}
