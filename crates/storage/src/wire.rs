//! JSON wire codec for platform configurations and mapped programs.
//!
//! The mapping service receives a [`PlatformConfig`] (the hierarchy the
//! request should be mapped onto) in each request and returns the
//! resulting [`MappedProgram`] (per-client op streams). Both round-trip
//! through the workspace's deterministic [`Json`] writer, which is what
//! makes "cache hits are byte-identical to cold runs" a checkable
//! property: two equal mappings serialize to equal bytes.
//!
//! [`ClientOp`] uses a compact tagged encoding, since op streams dominate
//! response size:
//!
//! ```text
//! Compute  {"t":"c","ns":n}
//! Access   {"t":"a","ch":chunk,"w":bool}
//! Signal   {"t":"s","tok":t}
//! Wait     {"t":"w","tok":t}
//! ```

use crate::config::{PlatformConfig, PolicyKind};
use crate::engine::{ClientOp, MappedProgram};
pub use cachemap_polyhedral::wire::WireError;
use cachemap_util::{Json, ToJson};

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::new(key, format!("missing field '{key}'")))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, WireError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| WireError::new(key, "expected a non-negative integer"))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, WireError> {
    Ok(get_u64(v, key)? as usize)
}

impl ToJson for PolicyKind {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_string())
    }
}

/// Parses a [`PolicyKind`] from its wire name.
pub fn policy_from_json(v: &Json) -> Result<PolicyKind, WireError> {
    match v.as_str() {
        Some("lru") => Ok(PolicyKind::Lru),
        Some("fifo") => Ok(PolicyKind::Fifo),
        Some("lfu") => Ok(PolicyKind::Lfu),
        Some("slru") => Ok(PolicyKind::Slru),
        Some("lfuda") => Ok(PolicyKind::Lfuda),
        _ => Err(WireError::new(
            "policy",
            "expected one of \"lru\", \"fifo\", \"lfu\", \"slru\", \"lfuda\"",
        )),
    }
}

/// Encodes a per-level policy vector: the single legacy string when all
/// levels agree (keeping uniform configs — notably the all-LRU default —
/// byte-identical to the pre-zoo wire format, which also keeps their
/// content fingerprints stable), a 3-element `[l1, l2, l3]` array
/// otherwise.
fn policies_to_json(policies: &[PolicyKind; 3]) -> Json {
    if policies[1] == policies[0] && policies[2] == policies[0] {
        policies[0].to_json()
    } else {
        Json::Array(policies.iter().map(ToJson::to_json).collect())
    }
}

/// Parses a per-level policy vector: either the legacy single name
/// (applied to every level) or a 3-element per-level array.
pub fn policies_from_json(v: &Json) -> Result<[PolicyKind; 3], WireError> {
    match v {
        Json::Array(levels) => {
            if levels.len() != 3 {
                return Err(WireError::new(
                    "policy",
                    format!("expected 3 per-level policies, got {}", levels.len()),
                ));
            }
            Ok([
                policy_from_json(&levels[0])?,
                policy_from_json(&levels[1])?,
                policy_from_json(&levels[2])?,
            ])
        }
        _ => Ok([policy_from_json(v)?; 3]),
    }
}

impl ToJson for PlatformConfig {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("num_clients", Json::UInt(self.num_clients as u64)),
            ("num_io_nodes", Json::UInt(self.num_io_nodes as u64)),
            (
                "num_storage_nodes",
                Json::UInt(self.num_storage_nodes as u64),
            ),
            ("chunk_bytes", Json::UInt(self.chunk_bytes)),
            (
                "client_cache_chunks",
                Json::UInt(self.client_cache_chunks as u64),
            ),
            ("io_cache_chunks", Json::UInt(self.io_cache_chunks as u64)),
            (
                "storage_cache_chunks",
                Json::UInt(self.storage_cache_chunks as u64),
            ),
            ("policy", policies_to_json(&self.policies)),
            ("disks_per_node", Json::UInt(self.disks_per_node as u64)),
            ("rpm", Json::UInt(self.rpm as u64)),
            ("seek_ns", Json::UInt(self.seek_ns)),
            ("disk_bw_bytes_per_s", Json::UInt(self.disk_bw_bytes_per_s)),
            ("net_hop_ns", Json::UInt(self.net_hop_ns)),
            ("net_bw_bytes_per_s", Json::UInt(self.net_bw_bytes_per_s)),
            ("readahead_chunks", Json::UInt(self.readahead_chunks as u64)),
            ("cache_access_ns", Json::UInt(self.cache_access_ns)),
            ("sync_ns", Json::UInt(self.sync_ns)),
        ])
    }
}

/// Parses a [`PlatformConfig`]. Structural validity (divisibility,
/// non-zero rates) is checked by [`PlatformConfig::validate`], which the
/// service runs on admission; this only checks shapes and ranges.
pub fn platform_from_json(v: &Json) -> Result<PlatformConfig, WireError> {
    if !matches!(v, Json::Object(_)) {
        return Err(WireError::new("platform", "expected an object"));
    }
    Ok(PlatformConfig {
        num_clients: get_usize(v, "num_clients")?,
        num_io_nodes: get_usize(v, "num_io_nodes")?,
        num_storage_nodes: get_usize(v, "num_storage_nodes")?,
        chunk_bytes: get_u64(v, "chunk_bytes")?,
        client_cache_chunks: get_usize(v, "client_cache_chunks")?,
        io_cache_chunks: get_usize(v, "io_cache_chunks")?,
        storage_cache_chunks: get_usize(v, "storage_cache_chunks")?,
        policies: policies_from_json(field(v, "policy")?)?,
        disks_per_node: get_usize(v, "disks_per_node")?,
        rpm: u32::try_from(get_u64(v, "rpm")?)
            .map_err(|_| WireError::new("rpm", "rpm out of range"))?,
        seek_ns: get_u64(v, "seek_ns")?,
        disk_bw_bytes_per_s: get_u64(v, "disk_bw_bytes_per_s")?,
        net_hop_ns: get_u64(v, "net_hop_ns")?,
        net_bw_bytes_per_s: get_u64(v, "net_bw_bytes_per_s")?,
        readahead_chunks: get_usize(v, "readahead_chunks")?,
        cache_access_ns: get_u64(v, "cache_access_ns")?,
        sync_ns: get_u64(v, "sync_ns")?,
    })
}

impl ToJson for ClientOp {
    fn to_json(&self) -> Json {
        match *self {
            ClientOp::Compute { ns } => {
                Json::object(vec![("t", Json::Str("c".into())), ("ns", Json::UInt(ns))])
            }
            ClientOp::Access { chunk, write } => Json::object(vec![
                ("t", Json::Str("a".into())),
                ("ch", Json::UInt(chunk as u64)),
                ("w", Json::Bool(write)),
            ]),
            ClientOp::Signal { token } => Json::object(vec![
                ("t", Json::Str("s".into())),
                ("tok", Json::UInt(token as u64)),
            ]),
            ClientOp::Wait { token } => Json::object(vec![
                ("t", Json::Str("w".into())),
                ("tok", Json::UInt(token as u64)),
            ]),
        }
    }
}

/// Parses a [`ClientOp`].
pub fn client_op_from_json(v: &Json) -> Result<ClientOp, WireError> {
    let tag = field(v, "t")?
        .as_str()
        .ok_or_else(|| WireError::new("t", "expected a string tag"))?;
    match tag {
        "c" => Ok(ClientOp::Compute {
            ns: get_u64(v, "ns")?,
        }),
        "a" => Ok(ClientOp::Access {
            chunk: get_usize(v, "ch")?,
            write: match field(v, "w")? {
                Json::Bool(b) => *b,
                _ => return Err(WireError::new("w", "expected a boolean")),
            },
        }),
        "s" => Ok(ClientOp::Signal {
            token: u32::try_from(get_u64(v, "tok")?)
                .map_err(|_| WireError::new("tok", "token out of range"))?,
        }),
        "w" => Ok(ClientOp::Wait {
            token: u32::try_from(get_u64(v, "tok")?)
                .map_err(|_| WireError::new("tok", "token out of range"))?,
        }),
        other => Err(WireError::new("t", format!("unknown op tag '{other}'"))),
    }
}

impl ToJson for MappedProgram {
    fn to_json(&self) -> Json {
        Json::object(vec![(
            "per_client",
            Json::Array(
                self.per_client
                    .iter()
                    .map(|ops| Json::Array(ops.iter().map(ToJson::to_json).collect()))
                    .collect(),
            ),
        )])
    }
}

/// Parses a [`MappedProgram`].
pub fn mapped_program_from_json(v: &Json) -> Result<MappedProgram, WireError> {
    let per_client = field(v, "per_client")?
        .as_array()
        .ok_or_else(|| WireError::new("per_client", "expected an array"))?
        .iter()
        .enumerate()
        .map(|(c, ops)| {
            ops.as_array()
                .ok_or_else(|| WireError::new(format!("per_client[{c}]"), "expected an array"))?
                .iter()
                .enumerate()
                .map(|(i, op)| {
                    client_op_from_json(op).map_err(|e| {
                        WireError::new(format!("per_client[{c}][{i}].{}", e.path), e.message)
                    })
                })
                .collect::<Result<Vec<ClientOp>, _>>()
        })
        .collect::<Result<Vec<Vec<ClientOp>>, _>>()?;
    Ok(MappedProgram { per_client })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_round_trips() {
        for cfg in [PlatformConfig::tiny(), PlatformConfig::paper_default()] {
            let back = platform_from_json(&cfg.to_json()).unwrap();
            assert_eq!(back, cfg);
            let reparsed = cachemap_util::json::parse(&cfg.to_json().to_string_compact()).unwrap();
            assert_eq!(platform_from_json(&reparsed).unwrap(), cfg);
        }
    }

    #[test]
    fn mapped_program_round_trips() {
        let mut mp = MappedProgram::new(2);
        mp.per_client[0] = vec![
            ClientOp::Compute { ns: 5 },
            ClientOp::Access {
                chunk: 7,
                write: true,
            },
            ClientOp::Signal { token: 3 },
        ];
        mp.per_client[1] = vec![
            ClientOp::Wait { token: 3 },
            ClientOp::Access {
                chunk: 7,
                write: false,
            },
        ];
        let j = mp.to_json();
        assert_eq!(mapped_program_from_json(&j).unwrap(), mp);
        // Byte-determinism: equal programs serialize to equal bytes.
        assert_eq!(
            j.to_string_compact(),
            mp.clone().to_json().to_string_compact()
        );
    }

    #[test]
    fn bad_policy_and_bad_op_are_typed_errors() {
        assert!(policy_from_json(&Json::Str("mru".into())).is_err());
        // A policy dropped from the zoo is a typed error, alone or as
        // one level of a per-level vector.
        let err = policy_from_json(&Json::Str("gdsf".into())).unwrap_err();
        assert_eq!(err.path, "policy");
        let text = PlatformConfig::tiny()
            .with_level_policies(PolicyKind::Lru, PolicyKind::Lru, PolicyKind::Lfuda)
            .to_json()
            .to_string_compact()
            .replace("[\"lru\",\"lru\",\"lfuda\"]", "[\"lru\",\"lru\",\"gdsf\"]");
        assert!(text.contains("\"gdsf\""), "{text}");
        let err = platform_from_json(&cachemap_util::json::parse(&text).unwrap()).unwrap_err();
        assert_eq!(err.path, "policy");
        let bad = Json::object(vec![("t", Json::Str("x".into()))]);
        assert!(client_op_from_json(&bad).is_err());
    }

    #[test]
    fn every_policy_kind_round_trips() {
        use crate::config::PolicyKind;
        for kind in PolicyKind::ALL {
            assert_eq!(policy_from_json(&kind.to_json()).unwrap(), kind);
        }
    }

    #[test]
    fn uniform_policy_keeps_the_legacy_string_encoding() {
        // The all-LRU default must serialize exactly as before the
        // per-level zoo existed — the content fingerprint hashes these
        // bytes, so service cache keys for existing configs must not
        // move.
        let cfg = PlatformConfig::paper_default();
        let text = cfg.to_json().to_string_compact();
        assert!(text.contains("\"policy\":\"lru\""), "{text}");
        assert!(!text.contains("\"policy\":["), "{text}");
        // Uniform non-default policies keep the string form too.
        let cfg = cfg.with_policy(crate::config::PolicyKind::Lfuda);
        assert!(cfg
            .to_json()
            .to_string_compact()
            .contains("\"policy\":\"lfuda\""));
    }

    #[test]
    fn per_level_policy_vectors_round_trip() {
        use crate::config::PolicyKind;
        let cfg = PlatformConfig::tiny().with_level_policies(
            PolicyKind::Slru,
            PolicyKind::Lru,
            PolicyKind::Lfuda,
        );
        let j = cfg.to_json();
        assert!(j
            .to_string_compact()
            .contains("\"policy\":[\"slru\",\"lru\",\"lfuda\"]"));
        let back = platform_from_json(&j).unwrap();
        assert_eq!(back, cfg);
        // And through actual bytes.
        let reparsed = cachemap_util::json::parse(&j.to_string_compact()).unwrap();
        assert_eq!(platform_from_json(&reparsed).unwrap(), cfg);
    }

    #[test]
    fn legacy_single_policy_string_parses_to_all_levels() {
        use crate::config::PolicyKind;
        let mut j = PlatformConfig::tiny().to_json();
        if let Json::Object(pairs) = &mut j {
            pairs
                .iter_mut()
                .find(|(k, _)| k == "policy")
                .expect("policy field")
                .1 = Json::Str("fifo".into());
        }
        let back = platform_from_json(&j).unwrap();
        assert_eq!(back.policies, [PolicyKind::Fifo; 3]);
    }

    #[test]
    fn wrong_arity_policy_vector_is_a_typed_error() {
        let two = Json::Array(vec![Json::Str("lru".into()), Json::Str("lfu".into())]);
        assert!(policies_from_json(&two).is_err());
    }
}
