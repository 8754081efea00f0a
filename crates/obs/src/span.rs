//! Hierarchical span profiles (wall-clock phase accounting).
//!
//! A [`Profile`] is a tree of named spans. Entering the same name twice
//! under the same parent *resumes* the existing span rather than opening
//! a sibling, so a recursive pipeline (e.g. one clustering call per
//! hierarchy-tree node) accumulates into one span per phase. Each span
//! carries wall-clock time plus named integer counters (merge counts,
//! dot-product totals, balance moves, …).
//!
//! Counters are fully deterministic for a fixed input; wall-clock
//! durations are not, and golden comparisons must exclude them (the
//! `wall_ns` fields). A disabled profile ([`Profile::disabled`]) makes
//! every method an early-returning no-op.

use cachemap_util::{Json, ToJson};
use std::time::Instant;

/// One node of the span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name (phase label).
    pub name: String,
    /// Accumulated wall-clock time, ns. Excluded from golden outputs.
    pub wall_ns: u64,
    /// Named counters, in first-touch order.
    pub counts: Vec<(String, u64)>,
    /// Child span indices into the profile's node table.
    pub children: Vec<usize>,
    started: Option<Instant>,
}

impl SpanNode {
    fn new(name: &str) -> Self {
        SpanNode {
            name: name.to_string(),
            wall_ns: 0,
            counts: Vec::new(),
            children: Vec::new(),
            started: None,
        }
    }

    /// Looks a counter up by name.
    pub fn count(&self, key: &str) -> Option<u64> {
        self.counts.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// A hierarchical phase profile.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    enabled: bool,
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
    stack: Vec<usize>,
}

impl Profile {
    /// A profile that records spans and counters.
    pub fn enabled() -> Self {
        Profile {
            enabled: true,
            ..Profile::default()
        }
    }

    /// A profile on which every method is a no-op.
    pub fn disabled() -> Self {
        Profile::default()
    }

    /// Whether this profile records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Root span indices (use [`Profile::node`] to resolve them).
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Resolves a span index.
    pub fn node(&self, idx: usize) -> &SpanNode {
        &self.nodes[idx]
    }

    /// Finds a root span by name.
    pub fn root_named(&self, name: &str) -> Option<&SpanNode> {
        self.roots
            .iter()
            .map(|&i| &self.nodes[i])
            .find(|n| n.name == name)
    }

    /// Opens (or resumes) the child span `name` under the current span.
    pub fn push(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let siblings = match self.stack.last() {
            Some(&p) => &self.nodes[p].children,
            None => &self.roots,
        };
        let existing = siblings
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        let idx = match existing {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(SpanNode::new(name));
                match self.stack.last() {
                    Some(&p) => self.nodes[p].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        };
        self.nodes[idx].started = Some(Instant::now());
        self.stack.push(idx);
    }

    /// Closes the current span, accumulating its wall-clock time.
    pub fn pop(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(idx) = self.stack.pop() {
            if let Some(start) = self.nodes[idx].started.take() {
                self.nodes[idx].wall_ns += start.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Runs `f` inside the span `name` (push/pop pair).
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Profile) -> R) -> R {
        self.push(name);
        let r = f(self);
        self.pop();
        r
    }

    /// Adds `delta` to the counter `key` of the current span.
    pub fn count(&mut self, key: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        let Some(&idx) = self.stack.last() else {
            return;
        };
        let counts = &mut self.nodes[idx].counts;
        match counts.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v += delta,
            None => counts.push((key.to_string(), delta)),
        }
    }

    fn span_json(&self, idx: usize) -> Json {
        let n = &self.nodes[idx];
        Json::object(vec![
            ("name", Json::Str(n.name.clone())),
            ("wall_ns", Json::UInt(n.wall_ns)),
            (
                "counts",
                Json::Object(
                    n.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "children",
                Json::Array(n.children.iter().map(|&c| self.span_json(c)).collect()),
            ),
        ])
    }

    /// Rebuilds a profile from its [`ToJson`] form (for the renderer).
    pub fn from_json(json: &Json) -> Result<Profile, String> {
        let spans = json
            .get("spans")
            .and_then(Json::as_array)
            .ok_or("profile: missing \"spans\" array")?;
        let mut p = Profile::enabled();
        for s in spans {
            let idx = p.load_span(s, None)?;
            p.roots.push(idx);
        }
        Ok(p)
    }

    fn load_span(&mut self, json: &Json, parent: Option<usize>) -> Result<usize, String> {
        let name = json
            .get("name")
            .and_then(Json::as_str)
            .ok_or("span: missing \"name\"")?;
        let wall_ns = json
            .get("wall_ns")
            .and_then(Json::as_u64)
            .ok_or("span: missing \"wall_ns\"")?;
        let mut node = SpanNode::new(name);
        node.wall_ns = wall_ns;
        if let Some(Json::Object(pairs)) = json.get("counts") {
            for (k, v) in pairs {
                let v = v
                    .as_u64()
                    .ok_or_else(|| format!("span count {k}: not a u64"))?;
                node.counts.push((k.clone(), v));
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(node);
        if let Some(p) = parent {
            self.nodes[p].children.push(idx);
        }
        if let Some(children) = json.get("children").and_then(Json::as_array) {
            for c in children {
                self.load_span(c, Some(idx))?;
            }
        }
        Ok(idx)
    }

    /// Renders the span tree as indented text: wall-clock, share of the
    /// parent span, and counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &r in &self.roots {
            self.render_span(&mut out, r, 0, self.nodes[r].wall_ns);
        }
        out
    }

    fn render_span(&self, out: &mut String, idx: usize, depth: usize, parent_ns: u64) {
        let n = &self.nodes[idx];
        let pct = if parent_ns == 0 {
            100.0
        } else {
            n.wall_ns as f64 * 100.0 / parent_ns as f64
        };
        let counts = n
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{:indent$}{:<24} {:>10.3} ms {:>5.1}%  {}\n",
            "",
            n.name,
            n.wall_ns as f64 / 1e6,
            pct,
            counts,
            indent = depth * 2
        ));
        for &c in &n.children {
            self.render_span(out, c, depth + 1, n.wall_ns);
        }
    }
}

impl ToJson for Profile {
    fn to_json(&self) -> Json {
        Json::object(vec![(
            "spans",
            Json::Array(self.roots.iter().map(|&r| self.span_json(r)).collect()),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_records_nothing() {
        let mut p = Profile::disabled();
        p.push("a");
        p.count("x", 3);
        p.pop();
        assert!(p.is_empty());
        assert!(!p.is_enabled());
    }

    #[test]
    fn repeated_push_resumes_the_same_span() {
        let mut p = Profile::enabled();
        for _ in 0..3 {
            p.push("cluster");
            p.push("level:io");
            p.count("merges", 2);
            p.pop();
            p.pop();
        }
        assert_eq!(p.roots().len(), 1);
        let root = p.node(p.roots()[0]);
        assert_eq!(root.name, "cluster");
        assert_eq!(root.children.len(), 1);
        let child = p.node(root.children[0]);
        assert_eq!(child.count("merges"), Some(6));
    }

    #[test]
    fn scope_is_push_pop() {
        let mut p = Profile::enabled();
        let v = p.scope("outer", |p| {
            p.count("n", 1);
            p.scope("inner", |p| p.count("n", 5));
            42
        });
        assert_eq!(v, 42);
        let outer = p.root_named("outer").unwrap();
        assert_eq!(outer.count("n"), Some(1));
    }

    #[test]
    fn json_round_trip_preserves_counts_and_structure() {
        let mut p = Profile::enabled();
        p.scope("map", |p| {
            p.count("chunks", 12);
            p.scope("tagging", |p| p.count("nests", 1));
            p.scope("cluster", |p| p.count("merges", 7));
        });
        let json = p.to_json();
        let q = Profile::from_json(&json).unwrap();
        let root = q.root_named("map").unwrap();
        assert_eq!(root.count("chunks"), Some(12));
        assert_eq!(root.children.len(), 2);
        assert_eq!(q.node(root.children[1]).count("merges"), Some(7));
        // Deterministic serialization of the reparsed profile.
        assert_eq!(json.to_string_compact(), q.to_json().to_string_compact());
    }

    #[test]
    fn render_lists_every_phase() {
        let mut p = Profile::enabled();
        p.scope("map", |p| {
            p.scope("tagging", |p| p.count("chunks", 3));
        });
        let text = p.render();
        assert!(text.contains("map"));
        assert!(text.contains("tagging"));
        assert!(text.contains("chunks=3"));
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Profile::from_json(&Json::object(vec![])).is_err());
        let bad = Json::object(vec![("spans", Json::Array(vec![Json::object(vec![])]))]);
        assert!(Profile::from_json(&bad).is_err());
    }
}
