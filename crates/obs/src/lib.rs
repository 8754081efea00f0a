//! Deterministic observability for the cachemap reproduction.
//!
//! The paper's figures are aggregate numbers; this crate lets us see
//! *inside* a run without disturbing it:
//!
//! * [`span`] — hierarchical wall-clock phase profiles for the mapping
//!   pipeline (tagging → similarity graph → per-level clustering →
//!   balancing → scheduling). Wall-clock values are excluded from golden
//!   comparisons; the span *counters* are deterministic.
//! * [`series`] — a [`Recorder`] the simulation engine feeds with
//!   per-node per-level hit/miss/eviction/queue observations, folded
//!   into fixed-width buckets of *simulated* time, plus per-link byte
//!   tallies and a hot-chunk table. Fully reproducible for a fixed seed.
//! * [`metrics`] — a typed counter/gauge/histogram [`Registry`] with
//!   JSON and Prometheus text exposition (labels `level`, `node`,
//!   `client`).
//! * [`artifact`] — the `*.obs.json` container tying a mapper profile
//!   and an engine snapshot together; [`schema`] validates it in CI.
//! * [`trace`] — request-scoped service-path traces (deterministic ids,
//!   per-stage latency attribution) and a bounded flight recorder that
//!   dumps recent traces to disk on anomaly triggers.
//!
//! The default [`Recorder`] is disabled and drops everything through an
//! inlined `None` check, so instrumented code paths cost one branch per
//! observation when observability is off — runs with and without a
//! disabled recorder are bit-identical.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod metrics;
pub mod schema;
pub mod series;
pub mod span;
pub mod trace;

pub use artifact::{ArtifactMeta, ObsArtifact, SCHEMA_VERSION};
pub use metrics::{MetricKind, Registry};
pub use schema::validate_artifact;
pub use series::{
    BucketStats, ClientBucketStats, EngineObs, Level, LinkHop, Recorder, HOT_CHUNKS_CAP,
};
pub use span::{Profile, SpanNode};
pub use trace::{
    validate_flight_record, validate_trace, FlightRecorder, Stage, TraceId, TraceRecord,
    FLIGHT_SCHEMA,
};
