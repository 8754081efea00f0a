//! The on-disk obs artifact: mapper profile + engine series + platform
//! metadata, with JSON round-tripping and a derived Prometheus view.

use crate::metrics::Registry;
use crate::series::EngineObs;
use crate::span::Profile;
use cachemap_util::{Json, ToJson};

/// Version stamp written into every artifact; bumped on schema changes.
pub const SCHEMA_VERSION: u64 = 2;

/// Platform shape recorded alongside the series so the renderer can lay
/// out heatmap tables without re-reading the run configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Artifact schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Free-form run label, e.g. `"contour/inter-scheduled"`.
    pub label: String,
    /// Number of client nodes (L1 caches).
    pub clients: usize,
    /// Number of I/O nodes (L2 caches).
    pub io_nodes: usize,
    /// Number of storage nodes (L3 caches).
    pub storage_nodes: usize,
    /// Chunk size in bytes.
    pub chunk_bytes: u64,
    /// Eviction-policy labels per cache level, indexed `[L1, L2, L3]`
    /// (e.g. `"lru"`, `"slru"`); stamps the per-level Prometheus series.
    pub policies: [String; 3],
}

impl ArtifactMeta {
    /// The paper's all-LRU policy vector (also the parse default for
    /// artifacts written before policies were recorded).
    pub fn lru_policies() -> [String; 3] {
        ["lru".to_string(), "lru".to_string(), "lru".to_string()]
    }

    /// The recorded policy label at one cache level.
    pub fn policy_for(&self, level: crate::series::Level) -> &str {
        match level {
            crate::series::Level::L1 => &self.policies[0],
            crate::series::Level::L2 => &self.policies[1],
            crate::series::Level::L3 => &self.policies[2],
        }
    }
}

impl ToJson for ArtifactMeta {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::UInt(self.schema_version)),
            ("label", Json::Str(self.label.clone())),
            ("clients", Json::UInt(self.clients as u64)),
            ("io_nodes", Json::UInt(self.io_nodes as u64)),
            ("storage_nodes", Json::UInt(self.storage_nodes as u64)),
            ("chunk_bytes", Json::UInt(self.chunk_bytes)),
            (
                "policies",
                Json::Array(self.policies.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
        ])
    }
}

impl ArtifactMeta {
    fn from_json(json: &Json) -> Result<ArtifactMeta, String> {
        let u = |k: &str| {
            json.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("meta: missing \"{k}\""))
        };
        // Pre-zoo artifacts carry no policy vector; they were all LRU.
        let policies = match json.get("policies") {
            None => ArtifactMeta::lru_policies(),
            Some(Json::Array(items)) if items.len() == 3 => {
                let mut out = ArtifactMeta::lru_policies();
                for (slot, item) in out.iter_mut().zip(items) {
                    *slot = item
                        .as_str()
                        .ok_or("meta: policies entries must be strings")?
                        .to_string();
                }
                out
            }
            Some(_) => return Err("meta: \"policies\" must be an array of 3 strings".into()),
        };
        Ok(ArtifactMeta {
            schema_version: u("schema_version")?,
            label: json
                .get("label")
                .and_then(Json::as_str)
                .ok_or("meta: missing \"label\"")?
                .to_string(),
            clients: u("clients")? as usize,
            io_nodes: u("io_nodes")? as usize,
            storage_nodes: u("storage_nodes")? as usize,
            chunk_bytes: u("chunk_bytes")?,
            policies,
        })
    }
}

/// A complete exported observation of one run.
#[derive(Debug, Clone)]
pub struct ObsArtifact {
    /// Platform metadata.
    pub meta: ArtifactMeta,
    /// Mapper phase profile (wall-clock; absent for engine-only runs).
    pub mapper: Option<Profile>,
    /// Engine metric series (absent for mapper-only runs).
    pub engine: Option<EngineObs>,
}

impl ObsArtifact {
    /// Parses an artifact from JSON text.
    pub fn parse(text: &str) -> Result<ObsArtifact, String> {
        let json = cachemap_util::json::parse(text).map_err(|e| format!("obs artifact: {e}"))?;
        ObsArtifact::from_json(&json)
    }

    /// Rebuilds an artifact from its [`ToJson`] form.
    pub fn from_json(json: &Json) -> Result<ObsArtifact, String> {
        let meta =
            ArtifactMeta::from_json(json.get("meta").ok_or("obs artifact: missing \"meta\"")?)?;
        if meta.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "obs artifact: schema version {} (expected {SCHEMA_VERSION})",
                meta.schema_version
            ));
        }
        let mapper = match json.get("mapper") {
            None | Some(Json::Null) => None,
            Some(m) => Some(Profile::from_json(m)?),
        };
        let engine = match json.get("engine") {
            None | Some(Json::Null) => None,
            Some(e) => Some(EngineObs::from_json(e)?),
        };
        Ok(ObsArtifact {
            meta,
            mapper,
            engine,
        })
    }

    /// Derives a metric registry (and hence a Prometheus exposition) from
    /// the engine series. Counter totals collapse the time dimension;
    /// the hot-chunk table becomes an access-count histogram.
    pub fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        let Some(engine) = &self.engine else {
            return reg;
        };
        for ((level, node), series) in &engine.nodes {
            let node_s = node.to_string();
            let labels = [("level", level.label()), ("node", node_s.as_str())];
            // Eviction-shaped series additionally carry the replacement
            // policy that produced them, so dashboards can split the
            // zoo without re-reading run configs.
            let policy_labels = [
                ("level", level.label()),
                ("node", node_s.as_str()),
                ("policy", self.meta.policy_for(*level)),
            ];
            let mut hits = 0u64;
            let mut misses = 0u64;
            let mut evictions = 0u64;
            let mut writebacks = 0u64;
            let mut queue_ns = 0u64;
            for s in series.values() {
                hits += s.hits;
                misses += s.misses;
                evictions += s.evictions;
                writebacks += s.writebacks;
                queue_ns += s.queue_ns;
            }
            reg.counter_add(
                "cachemap_cache_hits_total",
                "Cache hits per level and node",
                &labels,
                hits,
            );
            reg.counter_add(
                "cachemap_cache_misses_total",
                "Cache misses per level and node",
                &labels,
                misses,
            );
            reg.counter_add(
                "cachemap_cache_evictions_total",
                "Cache evictions (clean + dirty) per level, node, and policy",
                &policy_labels,
                evictions,
            );
            reg.counter_add(
                "cachemap_cache_writebacks_total",
                "Dirty-eviction writebacks per level, node, and policy",
                &policy_labels,
                writebacks,
            );
            reg.counter_add(
                "cachemap_queue_wait_ns_total",
                "Simulated ns requests spent queued per level and node",
                &labels,
                queue_ns,
            );
        }
        for (client, series) in &engine.clients {
            let client_s = client.to_string();
            let labels = [("client", client_s.as_str())];
            let mut io_ns = 0u64;
            let mut compute_ns = 0u64;
            let mut accesses = 0u64;
            for s in series.values() {
                io_ns += s.io_ns;
                compute_ns += s.compute_ns;
                accesses += s.accesses;
            }
            reg.counter_add(
                "cachemap_client_io_ns_total",
                "Simulated I/O ns per client",
                &labels,
                io_ns,
            );
            reg.counter_add(
                "cachemap_client_compute_ns_total",
                "Simulated compute ns per client",
                &labels,
                compute_ns,
            );
            reg.counter_add(
                "cachemap_client_accesses_total",
                "Chunk accesses issued per client",
                &labels,
                accesses,
            );
        }
        for ((hop, src, dst), bytes) in &engine.links {
            let src_s = src.to_string();
            let dst_s = dst.to_string();
            reg.counter_add(
                "cachemap_net_bytes_total",
                "Bytes transferred per network link",
                &[
                    ("hop", hop.label()),
                    ("src", src_s.as_str()),
                    ("dst", dst_s.as_str()),
                ],
                *bytes,
            );
        }
        for &(_, count) in &engine.hot_chunks {
            reg.histogram_observe(
                "cachemap_chunk_accesses",
                "Access-count distribution over the hot-chunk table",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
                &[],
                count as f64,
            );
        }
        reg
    }

    /// Prometheus text exposition of the derived registry.
    pub fn to_prometheus(&self) -> String {
        self.registry().to_prometheus()
    }
}

impl ToJson for ObsArtifact {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("meta", self.meta.to_json()),
            (
                "mapper",
                match &self.mapper {
                    Some(p) => p.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "engine",
                match &self.engine {
                    Some(e) => e.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{Level, LinkHop, Recorder};

    fn sample_artifact() -> ObsArtifact {
        let mut prof = Profile::enabled();
        prof.scope("map", |p| {
            p.scope("cluster", |p| p.count("merges", 9));
        });
        let mut rec = Recorder::enabled(1000);
        rec.cache_access(Level::L1, 0, 10, true);
        rec.cache_access(Level::L2, 1, 1200, false);
        rec.eviction(Level::L2, 1, 1300, true);
        rec.client_io(0, 10, 500);
        rec.link_transfer(LinkHop::ClientIo, 0, 1, 1024);
        rec.chunk_access(3);
        ObsArtifact {
            meta: ArtifactMeta {
                schema_version: SCHEMA_VERSION,
                label: "test/run".to_string(),
                clients: 4,
                io_nodes: 2,
                storage_nodes: 1,
                chunk_bytes: 1024,
                policies: ["slru".to_string(), "lru".to_string(), "lfuda".to_string()],
            },
            mapper: Some(prof),
            engine: rec.finish(),
        }
    }

    #[test]
    fn round_trip_through_text_is_stable() {
        let a = sample_artifact();
        let text = a.to_json().to_string_pretty();
        let b = ObsArtifact::parse(&text).unwrap();
        assert_eq!(text, b.to_json().to_string_pretty());
        assert_eq!(b.meta.label, "test/run");
        assert!(b.mapper.is_some());
        assert_eq!(b.engine.as_ref().unwrap().links.len(), 1);
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let mut a = sample_artifact();
        a.meta.schema_version = SCHEMA_VERSION + 1;
        let text = a.to_json().to_string_compact();
        assert!(ObsArtifact::parse(&text).is_err());
    }

    #[test]
    fn prometheus_export_has_documented_labels() {
        let text = sample_artifact().to_prometheus();
        assert!(text.contains("cachemap_cache_hits_total{level=\"l1\",node=\"0\"} 1"));
        assert!(text.contains("cachemap_cache_misses_total{level=\"l2\",node=\"1\"} 1"));
        // Eviction-shaped series carry the per-level policy label.
        assert!(text
            .contains("cachemap_cache_writebacks_total{level=\"l2\",node=\"1\",policy=\"lru\"} 1"));
        assert!(text
            .contains("cachemap_cache_evictions_total{level=\"l2\",node=\"1\",policy=\"lru\"} 1"));
        assert!(text.contains("cachemap_client_io_ns_total{client=\"0\"} 500"));
        assert!(
            text.contains("cachemap_net_bytes_total{dst=\"1\",hop=\"client-io\",src=\"0\"} 1024")
        );
        assert!(text.contains("cachemap_chunk_accesses_bucket{le=\"1\"} 1"));
    }

    #[test]
    fn policy_vector_roundtrips_and_defaults_to_lru() {
        let a = sample_artifact();
        let b = ObsArtifact::parse(&a.to_json().to_string_compact()).unwrap();
        assert_eq!(b.meta.policies, a.meta.policies);
        assert_eq!(b.meta.policy_for(Level::L1), "slru");
        assert_eq!(b.meta.policy_for(Level::L3), "lfuda");
        // A pre-zoo artifact (no policies key) parses as all-LRU.
        let mut json = a.to_json();
        if let Json::Object(pairs) = &mut json {
            if let Some((_, Json::Object(meta))) = pairs.iter_mut().find(|(k, _)| k == "meta") {
                meta.retain(|(k, _)| k != "policies");
            }
        }
        let legacy = ObsArtifact::from_json(&json).unwrap();
        assert_eq!(legacy.meta.policies, ArtifactMeta::lru_policies());
        // A malformed vector is rejected, not defaulted.
        let mut bad = a.to_json();
        if let Json::Object(pairs) = &mut bad {
            if let Some((_, Json::Object(meta))) = pairs.iter_mut().find(|(k, _)| k == "meta") {
                for (k, v) in meta.iter_mut() {
                    if k == "policies" {
                        *v = Json::Array(vec![Json::Str("lru".into())]);
                    }
                }
            }
        }
        assert!(ObsArtifact::from_json(&bad).is_err());
    }

    #[test]
    fn engine_only_artifact_roundtrips_with_null_mapper() {
        let mut a = sample_artifact();
        a.mapper = None;
        let text = a.to_json().to_string_compact();
        let b = ObsArtifact::parse(&text).unwrap();
        assert!(b.mapper.is_none());
        assert!(b.engine.is_some());
    }
}
