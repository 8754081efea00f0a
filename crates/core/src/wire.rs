//! JSON wire codec for mapper parameters, plus the request fingerprint.
//!
//! The mapping service identifies a request by the *content* of its
//! pipeline inputs: `(program, platform, mapper params, version)`. This
//! module provides the [`ToJson`]/parse pair for [`MapperConfig`] and
//! [`Version`], and [`fingerprint`] — the canonical content hash used as
//! the memoization key. Two requests with equal fingerprints run the
//! identical deterministic pipeline, so serving one from cache is
//! byte-for-byte indistinguishable from recomputing it (the
//! cache-coherence argument; see DESIGN.md "Service layer").
//!
//! The module also carries the `Send` audit for the worker-pool path:
//! every value a service worker thread owns or touches is statically
//! asserted `Send` here, so a future non-`Send` field (an `Rc`, a raw
//! pointer) fails the build, not the server at 2 a.m.

use crate::cluster::{ClusterParams, Linkage};
use crate::deps::DepStrategy;
use crate::mapper::{Mapper, MapperConfig, Version};
use crate::schedule::{ReuseMetric, ScheduleParams};
use cachemap_polyhedral::wire::WireError;
use cachemap_polyhedral::Program;
use cachemap_storage::{HierarchyTree, MappedProgram, PlatformConfig};
use cachemap_util::{fingerprint_json, Fingerprint, Json, ToJson};

// ---- Send audit -----------------------------------------------------------
// The service's worker threads move requests (program + platform + params)
// and results (mapped programs) across thread boundaries. Assert the whole
// surface is `Send + Sync` at compile time.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Mapper>();
    assert_send_sync::<MapperConfig>();
    assert_send_sync::<Version>();
    assert_send_sync::<Program>();
    assert_send_sync::<PlatformConfig>();
    assert_send_sync::<HierarchyTree>();
    assert_send_sync::<MappedProgram>();
    assert_send_sync::<cachemap_polyhedral::DataSpace>();
};

impl ToJson for Version {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_string())
    }
}

/// Parses a [`Version`] from its harness label.
pub fn version_from_json(v: &Json) -> Result<Version, WireError> {
    let s = v
        .as_str()
        .ok_or_else(|| WireError::new("version", "expected a string"))?;
    Version::ALL
        .iter()
        .copied()
        .find(|ver| ver.label() == s)
        .ok_or_else(|| {
            WireError::new(
                "version",
                format!(
                    "unknown version '{s}' (expected one of: {})",
                    Version::ALL.map(|v| v.label()).join(", ")
                ),
            )
        })
}

impl ToJson for MapperConfig {
    fn to_json(&self) -> Json {
        Json::object(vec![
            (
                "cluster",
                Json::object(vec![
                    (
                        "balance_threshold",
                        Json::Float(self.cluster.balance_threshold),
                    ),
                    (
                        "linkage",
                        Json::Str(
                            match self.cluster.linkage {
                                Linkage::Total => "total",
                                Linkage::Average => "average",
                                Linkage::Sqrt => "sqrt",
                            }
                            .to_string(),
                        ),
                    ),
                ]),
            ),
            (
                "schedule",
                Json::object(vec![
                    ("alpha", Json::Float(self.schedule.alpha)),
                    ("beta", Json::Float(self.schedule.beta)),
                    (
                        "metric",
                        Json::Str(
                            match self.schedule.metric {
                                ReuseMetric::DotProduct => "dot",
                                ReuseMetric::HammingDistance => "hamming",
                            }
                            .to_string(),
                        ),
                    ),
                ]),
            ),
            (
                "dep_strategy",
                Json::Str(
                    match self.dep_strategy {
                        DepStrategy::Ignore => "ignore",
                        DepStrategy::CoCluster => "co-cluster",
                        DepStrategy::SyncInsert => "sync-insert",
                    }
                    .to_string(),
                ),
            ),
            ("joint_nests", Json::Bool(self.joint_nests)),
            ("refine_passes", Json::UInt(self.refine_passes as u64)),
        ])
    }
}

fn get_f64(v: &Json, key: &str, path: &str) -> Result<f64, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::new(path, format!("missing field '{key}'")))?
        .as_f64()
        .ok_or_else(|| WireError::new(format!("{path}.{key}"), "expected a number"))
}

/// Parses a [`MapperConfig`]. Missing sections fall back to the paper
/// defaults, so `{}` is the default configuration.
pub fn mapper_config_from_json(v: &Json) -> Result<MapperConfig, WireError> {
    if !matches!(v, Json::Object(_)) {
        return Err(WireError::new("mapper", "expected an object"));
    }
    let mut cfg = MapperConfig::default();
    if let Some(c) = v.get("cluster") {
        let threshold = get_f64(c, "balance_threshold", "cluster")?;
        if threshold.is_nan() || threshold < 0.0 {
            return Err(WireError::new(
                "cluster.balance_threshold",
                "must be a non-negative number",
            ));
        }
        let linkage = match c.get("linkage").and_then(Json::as_str) {
            Some("total") => Linkage::Total,
            Some("average") | None => Linkage::Average,
            Some("sqrt") => Linkage::Sqrt,
            Some(other) => {
                return Err(WireError::new(
                    "cluster.linkage",
                    format!("unknown linkage '{other}'"),
                ))
            }
        };
        cfg.cluster = ClusterParams {
            balance_threshold: threshold,
            linkage,
        };
    }
    if let Some(s) = v.get("schedule") {
        let metric = match s.get("metric").and_then(Json::as_str) {
            Some("dot") | None => ReuseMetric::DotProduct,
            Some("hamming") => ReuseMetric::HammingDistance,
            Some(other) => {
                return Err(WireError::new(
                    "schedule.metric",
                    format!("unknown metric '{other}'"),
                ))
            }
        };
        cfg.schedule = ScheduleParams {
            alpha: get_f64(s, "alpha", "schedule")?,
            beta: get_f64(s, "beta", "schedule")?,
            metric,
        };
    }
    if let Some(d) = v.get("dep_strategy") {
        cfg.dep_strategy = match d.as_str() {
            Some("ignore") => DepStrategy::Ignore,
            Some("co-cluster") => DepStrategy::CoCluster,
            Some("sync-insert") => DepStrategy::SyncInsert,
            _ => {
                return Err(WireError::new(
                    "dep_strategy",
                    "expected \"ignore\", \"co-cluster\", or \"sync-insert\"",
                ))
            }
        };
    }
    if let Some(j) = v.get("joint_nests") {
        cfg.joint_nests = match j {
            Json::Bool(b) => *b,
            _ => return Err(WireError::new("joint_nests", "expected a boolean")),
        };
    }
    if let Some(r) = v.get("refine_passes") {
        cfg.refine_passes = r
            .as_u64()
            .ok_or_else(|| WireError::new("refine_passes", "expected a non-negative integer"))?
            as usize;
    }
    Ok(cfg)
}

impl ToJson for crate::cluster::Distribution {
    /// Canonical wire form of a distribution: one array per client, each
    /// item as `[chunk, start, end]`. Compact and deterministic, so two
    /// distributions are equal iff their serializations are
    /// byte-identical — the comparison the pool-independence tests in
    /// `tests/parallel.rs` rely on.
    fn to_json(&self) -> Json {
        Json::Array(
            self.per_client
                .iter()
                .map(|items| {
                    Json::Array(
                        items
                            .iter()
                            .map(|it| {
                                Json::Array(vec![
                                    Json::UInt(it.chunk as u64),
                                    Json::UInt(it.start as u64),
                                    Json::UInt(it.end as u64),
                                ])
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }
}

/// Parses the [`ToJson`] form of a [`crate::cluster::Distribution`].
pub fn distribution_from_json(v: &Json) -> Result<crate::cluster::Distribution, WireError> {
    let clients = v
        .as_array()
        .ok_or_else(|| WireError::new("distribution", "expected an array of client item lists"))?;
    let mut per_client = Vec::with_capacity(clients.len());
    for items in clients {
        let items = items
            .as_array()
            .ok_or_else(|| WireError::new("distribution", "client entry: expected an array"))?;
        let mut out = Vec::with_capacity(items.len());
        for it in items {
            let triple = it.as_array().filter(|a| a.len() == 3).ok_or_else(|| {
                WireError::new("distribution", "item: expected [chunk,start,end]")
            })?;
            let mut f = [0usize; 3];
            for (slot, x) in f.iter_mut().zip(triple) {
                *slot = x
                    .as_u64()
                    .ok_or_else(|| WireError::new("distribution", "item field: expected a u64"))?
                    as usize;
            }
            let item = crate::cluster::WorkItem {
                chunk: f[0],
                start: f[1],
                end: f[2],
            };
            if item.start > item.end {
                return Err(WireError::new("distribution", "item: start > end"));
            }
            out.push(item);
        }
        per_client.push(out);
    }
    Ok(crate::cluster::Distribution { per_client })
}

/// The canonical content fingerprint of one mapping request: the inputs
/// that fully determine the pipeline's output.
///
/// Stability contract (property-tested in `cachemap-service`): the
/// fingerprint is invariant under JSON field-insertion order and
/// serialize → parse round trips, and changes when any single input
/// field changes. Since the pipeline itself is deterministic, equal
/// fingerprints imply byte-identical mappings — which is exactly the
/// invariant the service's cache relies on.
pub fn fingerprint(
    program: &Program,
    platform: &PlatformConfig,
    mapper: &MapperConfig,
    version: Version,
) -> Fingerprint {
    let v = Json::object(vec![
        ("program", program.to_json()),
        ("platform", platform.to_json()),
        ("mapper", mapper.to_json()),
        ("version", version.to_json()),
    ]);
    fingerprint_json(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapper_config_round_trips() {
        let cfg = MapperConfig {
            cluster: ClusterParams {
                balance_threshold: 0.25,
                linkage: Linkage::Sqrt,
            },
            schedule: ScheduleParams {
                alpha: 0.3,
                beta: 0.7,
                metric: ReuseMetric::HammingDistance,
            },
            dep_strategy: DepStrategy::SyncInsert,
            joint_nests: true,
            refine_passes: 2,
        };
        let back = mapper_config_from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn empty_object_is_the_default_config() {
        let cfg = mapper_config_from_json(&Json::Object(Vec::new())).unwrap();
        assert_eq!(cfg, MapperConfig::default());
    }

    #[test]
    fn distribution_round_trips_byte_for_byte() {
        use crate::cluster::{Distribution, WorkItem};
        let dist = Distribution {
            per_client: vec![
                vec![
                    WorkItem {
                        chunk: 0,
                        start: 0,
                        end: 5,
                    },
                    WorkItem {
                        chunk: 3,
                        start: 2,
                        end: 4,
                    },
                ],
                vec![],
                vec![WorkItem {
                    chunk: 1,
                    start: 0,
                    end: 1,
                }],
            ],
        };
        let json = dist.to_json();
        let back = distribution_from_json(&json).unwrap();
        assert_eq!(back, dist);
        assert_eq!(json.to_string_compact(), back.to_json().to_string_compact());
        // Malformed shapes are rejected.
        assert!(distribution_from_json(&Json::Bool(true)).is_err());
        let bad = Json::Array(vec![Json::Array(vec![Json::Array(vec![
            Json::UInt(0),
            Json::UInt(9),
            Json::UInt(3),
        ])])]);
        assert!(distribution_from_json(&bad).is_err(), "start > end");
    }

    #[test]
    fn all_version_labels_round_trip() {
        for v in Version::ALL {
            assert_eq!(version_from_json(&v.to_json()).unwrap(), v);
        }
        assert!(version_from_json(&Json::Str("bogus".into())).is_err());
    }

    #[test]
    fn fingerprint_depends_on_every_component() {
        let (program, data) = crate::tags::tests::figure6_program(4);
        let _ = data;
        let platform = PlatformConfig::tiny();
        let base = fingerprint(
            &program,
            &platform,
            &MapperConfig::default(),
            Version::InterProcessor,
        );
        // Version change.
        assert_ne!(
            base,
            fingerprint(
                &program,
                &platform,
                &MapperConfig::default(),
                Version::Original
            )
        );
        // Params change.
        let cfg = MapperConfig {
            refine_passes: 1,
            ..MapperConfig::default()
        };
        assert_ne!(
            base,
            fingerprint(&program, &platform, &cfg, Version::InterProcessor)
        );
        // Platform change.
        let platform2 = platform.clone().with_cache_chunks(3, 3, 3);
        assert_ne!(
            base,
            fingerprint(
                &program,
                &platform2,
                &MapperConfig::default(),
                Version::InterProcessor
            )
        );
        // Stable across calls.
        assert_eq!(
            base,
            fingerprint(
                &program,
                &platform,
                &MapperConfig::default(),
                Version::InterProcessor
            )
        );
    }

    #[test]
    fn fingerprint_sees_every_levels_eviction_policy() {
        // Service-cache correctness for the policy zoo: flipping any
        // single level's policy must move the fingerprint, while the
        // uniform default must keep the exact pre-zoo fingerprint bytes
        // (its wire encoding is the legacy single string).
        use cachemap_storage::config::PolicyKind;
        let (program, _) = crate::tags::tests::figure6_program(4);
        let platform = PlatformConfig::tiny();
        let cfg = MapperConfig::default();
        let base = fingerprint(&program, &platform, &cfg, Version::InterProcessor);
        let mut seen = vec![base];
        for level in 0..3 {
            let mut p = platform.clone();
            p.policies[level] = PolicyKind::Slru;
            let fp = fingerprint(&program, &p, &cfg, Version::InterProcessor);
            assert!(
                !seen.contains(&fp),
                "changing level {level}'s policy must change the fingerprint"
            );
            seen.push(fp);
        }
        // Uniform sweeps change it too (each policy is distinct).
        for kind in PolicyKind::ALL {
            let p = platform.clone().with_policy(kind);
            let fp = fingerprint(&program, &p, &cfg, Version::InterProcessor);
            if kind == PolicyKind::Lru {
                assert_eq!(fp, base, "all-LRU is the default and must not move");
            } else {
                assert!(!seen.contains(&fp), "{kind:?}");
                seen.push(fp);
            }
        }
    }
}
