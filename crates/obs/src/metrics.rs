//! Typed metric registry with JSON and Prometheus text exposition.
//!
//! Three metric kinds, mirroring the Prometheus data model:
//!
//! * **counter** — monotonically increasing `u64`;
//! * **gauge** — a point-in-time `f64`;
//! * **histogram** — cumulative-bucket observation counts with
//!   caller-supplied upper bounds (plus the implicit `+Inf` bucket),
//!   a sum, and a count.
//!
//! Every sample is keyed by `(metric name, sorted label set)`, stored in
//! `BTreeMap`s so both export formats are byte-deterministic. The engine
//! exporter uses the labels `level` (`l1`/`l2`/`l3`), `node`, and
//! `client`; see DESIGN.md "Observability".

use cachemap_util::{Json, ToJson};
use std::collections::BTreeMap;

/// Metric kind, for the Prometheus `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
}

impl MetricKind {
    fn label(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A histogram sample: bucket counts for the configured upper bounds
/// (the final implicit bucket is `+Inf`), plus sum and count.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries; the
    /// last is the `+Inf` overflow bucket). Non-cumulative internally.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub total: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.total += 1;
    }
}

/// One sample value.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(Histogram),
}

type LabelSet = Vec<(String, String)>;

/// One metric family: kind, help text, and its labelled samples.
#[derive(Debug, Clone)]
struct Family {
    kind: MetricKind,
    help: String,
    samples: BTreeMap<LabelSet, Sample>,
}

/// A registry of metric families with deterministic export.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: BTreeMap<String, Family>,
}

fn canon_labels(labels: &[(&str, &str)]) -> LabelSet {
    let mut out: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// True when no families are registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut Family {
        self.families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                kind,
                help: help.to_string(),
                samples: BTreeMap::new(),
            })
    }

    /// Adds `v` to the counter `name{labels}` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        let fam = self.family(name, help, MetricKind::Counter);
        let entry = fam
            .samples
            .entry(canon_labels(labels))
            .or_insert(Sample::Counter(0));
        if let Sample::Counter(c) = entry {
            *c += v;
        }
    }

    /// Sets the gauge `name{labels}` to `v`.
    pub fn gauge_set(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        let fam = self.family(name, help, MetricKind::Gauge);
        fam.samples.insert(canon_labels(labels), Sample::Gauge(v));
    }

    /// Observes `v` in the histogram `name{labels}` with the given finite
    /// bucket bounds (used on first touch; later calls reuse them).
    pub fn histogram_observe(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
        v: f64,
    ) {
        let fam = self.family(name, help, MetricKind::Histogram);
        let entry = fam
            .samples
            .entry(canon_labels(labels))
            .or_insert_with(|| Sample::Histogram(Histogram::new(bounds)));
        if let Sample::Histogram(h) = entry {
            h.observe(v);
        }
    }

    /// Preregisters the histogram `name{labels}` with all-zero buckets
    /// so the first scrape already exposes the full family schema
    /// (observations later reuse the declared bounds).
    pub fn histogram_declare(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) {
        let fam = self.family(name, help, MetricKind::Histogram);
        fam.samples
            .entry(canon_labels(labels))
            .or_insert_with(|| Sample::Histogram(Histogram::new(bounds)));
    }

    /// Reads a counter back (for tests and assertions).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let fam = self.families.get(name)?;
        match fam.samples.get(&canon_labels(labels))? {
            Sample::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (deterministic bytes: families and label sets in sorted order).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            out.push_str(&format!("# HELP {name} {}\n", fam.help));
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind.label()));
            for (labels, sample) in &fam.samples {
                match sample {
                    Sample::Counter(c) => {
                        out.push_str(&format!("{name}{} {c}\n", fmt_labels(labels, None)));
                    }
                    Sample::Gauge(g) => {
                        out.push_str(&format!("{name}{} {g}\n", fmt_labels(labels, None)));
                    }
                    Sample::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, &b) in h.bounds.iter().enumerate() {
                            cum += h.counts[i];
                            out.push_str(&format!(
                                "{name}_bucket{} {cum}\n",
                                fmt_labels(labels, Some(&fmt_f64(b)))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            fmt_labels(labels, Some("+Inf")),
                            h.total
                        ));
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            fmt_labels(labels, None),
                            fmt_f64(h.sum)
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            fmt_labels(labels, None),
                            h.total
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Formats a float the way Prometheus expects (no trailing `.0` noise for
/// integral values beyond what Rust's `Display` already avoids).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

fn fmt_labels(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

impl ToJson for Registry {
    fn to_json(&self) -> Json {
        Json::Object(
            self.families
                .iter()
                .map(|(name, fam)| {
                    let samples = Json::Array(
                        fam.samples
                            .iter()
                            .map(|(labels, sample)| {
                                let labels_json = Json::Object(
                                    labels
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                        .collect(),
                                );
                                let value = match sample {
                                    Sample::Counter(c) => Json::UInt(*c),
                                    Sample::Gauge(g) => Json::Float(*g),
                                    Sample::Histogram(h) => Json::object(vec![
                                        (
                                            "bounds",
                                            Json::Array(
                                                h.bounds.iter().map(|&b| Json::Float(b)).collect(),
                                            ),
                                        ),
                                        (
                                            "counts",
                                            Json::Array(
                                                h.counts.iter().map(|&c| Json::UInt(c)).collect(),
                                            ),
                                        ),
                                        ("sum", Json::Float(h.sum)),
                                        ("count", Json::UInt(h.total)),
                                    ]),
                                };
                                Json::object(vec![("labels", labels_json), ("value", value)])
                            })
                            .collect(),
                    );
                    (
                        name.clone(),
                        Json::object(vec![
                            ("kind", Json::Str(fam.kind.label().to_string())),
                            ("help", Json::Str(fam.help.clone())),
                            ("samples", samples),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut r = Registry::new();
        r.counter_add("hits", "h", &[("level", "l2"), ("node", "0")], 3);
        r.counter_add("hits", "h", &[("node", "0"), ("level", "l2")], 2);
        r.counter_add("hits", "h", &[("level", "l2"), ("node", "1")], 1);
        assert_eq!(
            r.counter("hits", &[("level", "l2"), ("node", "0")]),
            Some(5)
        );
        assert_eq!(
            r.counter("hits", &[("level", "l2"), ("node", "1")]),
            Some(1)
        );
    }

    #[test]
    fn prometheus_text_is_deterministic_and_labelled() {
        let mut r = Registry::new();
        r.counter_add(
            "cachemap_cache_hits_total",
            "hits",
            &[("level", "l1"), ("node", "2")],
            7,
        );
        r.gauge_set("cachemap_backlog", "backlog", &[("client", "0")], 1.5);
        let a = r.to_prometheus();
        let b = r.to_prometheus();
        assert_eq!(a, b);
        assert!(a.contains("# TYPE cachemap_cache_hits_total counter"));
        assert!(a.contains("cachemap_cache_hits_total{level=\"l1\",node=\"2\"} 7"));
        assert!(a.contains("cachemap_backlog{client=\"0\"} 1.5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let mut r = Registry::new();
        for v in [0.5, 1.0, 3.0, 100.0] {
            r.histogram_observe("lat", "latency", &[1.0, 10.0], &[], v);
        }
        let text = r.to_prometheus();
        assert!(text.contains("lat_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_bucket{le=\"10\"} 3"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("lat_count 4"));
    }

    #[test]
    fn json_export_contains_families_and_samples() {
        let mut r = Registry::new();
        r.counter_add("n", "count", &[("k", "v")], 1);
        let j = r.to_json();
        let fam = j.get("n").unwrap();
        assert_eq!(fam.get("kind").and_then(Json::as_str), Some("counter"));
        assert_eq!(
            fam.get("samples")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
    }
}
