//! Typed rejection and failure errors for the mapping service.
//!
//! Every request that the service does not answer with a mapping is
//! answered with a [`ServiceError`] — there is no silent drop path.
//! The variants mirror the admission state machine (see DESIGN.md
//! "Service layer"): malformed input is rejected at parse time, overload
//! at admission time, lateness at dispatch or wait time, and teardown
//! drains the queue with [`ServiceError::Shutdown`].

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
    /// The admission queue was full — backpressure, try again later.
    QueueFull {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The configured admission limit.
        limit: usize,
    },
    /// The request's deadline expired before a worker produced a result.
    DeadlineExceeded {
        /// The deadline budget the request ran with, in milliseconds.
        budget_ms: u64,
    },
    /// The tenant already has its full quota of requests queued.
    QuotaExceeded {
        /// The tenant that hit its quota (empty = the anonymous tenant).
        tenant: String,
        /// The configured per-tenant admission quota.
        quota: usize,
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
    /// The service is shutting down; queued work is drained with this.
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
            ServiceError::QueueFull { .. } => "queue_full",
            ServiceError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServiceError::QuotaExceeded { .. } => "quota_exceeded",
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
            ServiceError::QueueFull { depth, limit } => {
                write!(f, "admission queue full ({depth}/{limit})")
            }
            ServiceError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded ({budget_ms} ms budget)")
            }
            ServiceError::QuotaExceeded { tenant, quota } => {
                let name = if tenant.is_empty() {
                    "<anonymous>"
                } else {
                    tenant
                };
                write!(
                    f,
                    "tenant {name} is at its admission quota ({quota} queued)"
                )
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
            ServiceError::QueueFull { depth: 9, limit: 8 },
            ServiceError::DeadlineExceeded { budget_ms: 5 },
            ServiceError::QuotaExceeded {
                tenant: "acme".into(),
                quota: 4,
            },
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
