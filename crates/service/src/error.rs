//! Typed rejection and failure errors for the mapping service.
//!
//! Every request that the service does not answer with a mapping is
//! answered with a [`ServiceError`] — there is no silent drop path.
//! The variants mirror the request state machine (see DESIGN.md
//! "Service layer"): malformed input is rejected at parse time,
//! lateness when a follower's wait or a leader's compute outlives the
//! deadline, submissions after teardown began with
//! [`ServiceError::Shutdown`], and transport policy (connection cap,
//! idle read budget) at the front end.

use cachemap_polyhedral::wire::WireError;
use cachemap_util::Json;
use std::fmt;

/// Why a request was not served with a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request was structurally invalid (JSON shape, unknown
    /// version, inconsistent platform, dangling array reference…).
    BadRequest {
        /// Human-readable description, with a field path when known.
        message: String,
    },
    /// The request's deadline expired before its mapping was ready.
    DeadlineExceeded {
        /// The deadline budget the request ran with, in milliseconds.
        budget_ms: u64,
    },
    /// The TCP front end refused the connection at its concurrency cap.
    ConnLimit {
        /// Active connections observed at rejection.
        active: usize,
        /// The configured connection limit.
        limit: usize,
    },
    /// The connection sat idle past the front end's read timeout.
    ReadTimeout {
        /// The idle budget the connection ran with, in milliseconds.
        budget_ms: u64,
    },
    /// A lookup op referenced something the service does not hold
    /// (e.g. a `trace` id that fell out of the flight-recorder ring).
    NotFound {
        /// What was looked up, for the error message.
        what: String,
    },
    /// The service is shutting down and admits no new work.
    Shutdown,
    /// An unexpected internal failure (never the caller's fault).
    Internal {
        /// Description for the server log.
        message: String,
    },
}

impl ServiceError {
    /// Stable machine-readable code for the wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::BadRequest { .. } => "bad_request",
            ServiceError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServiceError::ConnLimit { .. } => "conn_limit",
            ServiceError::ReadTimeout { .. } => "read_timeout",
            ServiceError::NotFound { .. } => "not_found",
            ServiceError::Shutdown => "shutdown",
            ServiceError::Internal { .. } => "internal",
        }
    }

    /// The `{"code":…,"message":…}` wire body.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("code", Json::Str(self.code().to_string())),
            ("message", Json::Str(self.to_string())),
        ])
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadRequest { message } => write!(f, "bad request: {message}"),
            ServiceError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded ({budget_ms} ms budget)")
            }
            ServiceError::ConnLimit { active, limit } => {
                write!(f, "connection limit reached ({active}/{limit})")
            }
            ServiceError::ReadTimeout { budget_ms } => {
                write!(f, "connection idle past read timeout ({budget_ms} ms)")
            }
            ServiceError::NotFound { what } => write!(f, "not found: {what}"),
            ServiceError::Shutdown => write!(f, "service is shutting down"),
            ServiceError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::BadRequest {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_round_trip() {
        let errs = [
            ServiceError::BadRequest {
                message: "x".into(),
            },
            ServiceError::DeadlineExceeded { budget_ms: 5 },
            ServiceError::ConnLimit {
                active: 8,
                limit: 8,
            },
            ServiceError::ReadTimeout { budget_ms: 100 },
            ServiceError::NotFound {
                what: "trace feedbeef".into(),
            },
            ServiceError::Shutdown,
            ServiceError::Internal {
                message: "y".into(),
            },
        ];
        let codes: std::collections::HashSet<&str> = errs.iter().map(|e| e.code()).collect();
        assert_eq!(codes.len(), errs.len());
        for e in &errs {
            let body = e.to_json();
            assert_eq!(body.get("code").and_then(Json::as_str), Some(e.code()));
        }
    }
}
