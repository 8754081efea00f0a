//! Spans the benchmark opens around the public calls it makes.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! request it belongs to. The name's first dotted component is the layer
//! (`core.cluster` belongs to `core`). Spans are kept in memory and
//! written out when the run ends. A disabled tracer runs the wrapped
//! call and records nothing, so traced and untraced runs share code.

use crate::record::{write_file, Run};
use cachemap_util::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call` name.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id (0 outside request-serving workloads).
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer when `on`, a pass-through one otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside the span `name`.
    pub fn span<R>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Durations in ms of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed duration in ms of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Self time per layer, ms: each span's duration minus its children's
    /// (children never overlap — spans open on one thread).
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or_default().to_string();
            *out.entry(layer).or_insert(0.0) += s.duration_ns().saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Reports self time per layer and writes the span dump next to the
    /// run's result record.
    pub fn report(&self, run: &mut Run) -> Result<(), String> {
        for (layer, ms) in self.self_ms_by_layer() {
            run.set(&format!("self_ms.{layer}"), ms, "ms", 1);
        }
        let name = format!("{}-seed{}-spans.json", run.args.workload, run.args.seed);
        write_file(
            &run.results_dir()?.join(name),
            &self.to_json().to_string_compact(),
        )
    }

    /// Every span as JSON, for the span dump.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::object(vec![
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::UInt(s.start_ns)),
                        ("end_ns", Json::UInt(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("request", Json::UInt(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("core.map", 0, |t| {
            t.span("core.tags", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let by_layer = t.self_ms_by_layer();
        let total = t.total_ms("core.map");
        let child = t.total_ms("core.tags");
        assert!(child >= 2.0);
        assert!(
            (by_layer["core"] - total).abs() < 1e-6,
            "self times sum to the root span"
        );
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core.map", 0, |_| 7), 7);
        assert!(t.durations_ms("core.map").is_empty());
    }
}
