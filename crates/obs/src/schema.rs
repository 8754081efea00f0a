//! Structural validation of exported obs artifacts.
//!
//! The artifact schema is small enough that a hand-rolled checker keeps
//! us dependency-free; CI runs [`validate_artifact`] against a freshly
//! exported run so schema drift fails the build instead of silently
//! breaking the renderer.

use cachemap_util::Json;

/// Validates an artifact JSON tree against schema version
/// [`crate::SCHEMA_VERSION`]. Returns every problem found, not just the
/// first, so CI output is actionable.
pub fn validate_artifact(json: &Json) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    match json.get("meta") {
        None => errs.push("missing \"meta\" object".to_string()),
        Some(meta) => {
            for key in [
                "schema_version",
                "clients",
                "io_nodes",
                "storage_nodes",
                "chunk_bytes",
            ] {
                if meta.get(key).and_then(Json::as_u64).is_none() {
                    errs.push(format!("meta.{key}: missing or not a u64"));
                }
            }
            if meta.get("label").and_then(Json::as_str).is_none() {
                errs.push("meta.label: missing or not a string".to_string());
            }
            match meta.get("policies").and_then(Json::as_array) {
                Some(policies) if policies.len() == 3 => {
                    for (i, p) in policies.iter().enumerate() {
                        if p.as_str().is_none() {
                            errs.push(format!("meta.policies[{i}]: not a string"));
                        }
                    }
                }
                Some(policies) => errs.push(format!(
                    "meta.policies: expected 3 entries (L1, L2, L3), got {}",
                    policies.len()
                )),
                None => errs.push("meta.policies: missing or not an array".to_string()),
            }
            if let Some(v) = meta.get("schema_version").and_then(Json::as_u64) {
                if v != crate::SCHEMA_VERSION {
                    errs.push(format!(
                        "meta.schema_version: {v} (expected {})",
                        crate::SCHEMA_VERSION
                    ));
                }
            }
        }
    }
    match json.get("mapper") {
        None => errs.push("missing \"mapper\" (object or null)".to_string()),
        Some(Json::Null) => {}
        Some(mapper) => validate_profile(mapper, &mut errs),
    }
    match json.get("engine") {
        None => errs.push("missing \"engine\" (object or null)".to_string()),
        Some(Json::Null) => {}
        Some(engine) => validate_engine(engine, &mut errs),
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn validate_profile(json: &Json, errs: &mut Vec<String>) {
    let Some(spans) = json.get("spans").and_then(Json::as_array) else {
        errs.push("mapper.spans: missing or not an array".to_string());
        return;
    };
    for (i, s) in spans.iter().enumerate() {
        validate_span(s, &format!("mapper.spans[{i}]"), errs);
    }
}

fn validate_span(json: &Json, path: &str, errs: &mut Vec<String>) {
    if json.get("name").and_then(Json::as_str).is_none() {
        errs.push(format!("{path}.name: missing or not a string"));
    }
    if json.get("wall_ns").and_then(Json::as_u64).is_none() {
        errs.push(format!("{path}.wall_ns: missing or not a u64"));
    }
    match json.get("counts") {
        Some(Json::Object(pairs)) => {
            for (k, v) in pairs {
                if v.as_u64().is_none() {
                    errs.push(format!("{path}.counts.{k}: not a u64"));
                }
            }
        }
        _ => errs.push(format!("{path}.counts: missing or not an object")),
    }
    match json.get("children").and_then(Json::as_array) {
        Some(children) => {
            for (i, c) in children.iter().enumerate() {
                validate_span(c, &format!("{path}.children[{i}]"), errs);
            }
        }
        None => errs.push(format!("{path}.children: missing or not an array")),
    }
}

fn validate_engine(json: &Json, errs: &mut Vec<String>) {
    if json.get("bucket_ns").and_then(Json::as_u64).is_none() {
        errs.push("engine.bucket_ns: missing or not a u64".to_string());
    }
    check_rows(json, "nodes", errs, |row, path, errs| {
        match row.get("level").and_then(Json::as_str) {
            Some("l1" | "l2" | "l3") => {}
            _ => errs.push(format!("{path}.level: not one of l1/l2/l3")),
        }
        require_u64(row, path, "node", errs);
        check_buckets(
            row,
            path,
            &["b", "hits", "misses", "evictions", "writebacks", "queue_ns"],
            errs,
        );
    });
    check_rows(json, "clients", errs, |row, path, errs| {
        require_u64(row, path, "client", errs);
        check_buckets(row, path, &["b", "io_ns", "compute_ns", "accesses"], errs);
    });
    check_rows(json, "links", errs, |row, path, errs| {
        match row.get("hop").and_then(Json::as_str) {
            Some("client-io" | "io-storage" | "storage-peer") => {}
            _ => errs.push(format!("{path}.hop: not a known hop label")),
        }
        for key in ["src", "dst", "bytes"] {
            require_u64(row, path, key, errs);
        }
    });
    check_rows(json, "hot_chunks", errs, |row, path, errs| {
        for key in ["chunk", "count"] {
            require_u64(row, path, key, errs);
        }
    });
}

fn check_rows(
    json: &Json,
    key: &str,
    errs: &mut Vec<String>,
    f: impl Fn(&Json, &str, &mut Vec<String>),
) {
    match json.get(key).and_then(Json::as_array) {
        Some(rows) => {
            for (i, row) in rows.iter().enumerate() {
                f(row, &format!("engine.{key}[{i}]"), errs);
            }
        }
        None => errs.push(format!("engine.{key}: missing or not an array")),
    }
}

fn check_buckets(row: &Json, path: &str, fields: &[&str], errs: &mut Vec<String>) {
    match row.get("buckets").and_then(Json::as_array) {
        Some(buckets) => {
            for (i, b) in buckets.iter().enumerate() {
                for key in fields {
                    require_u64(b, &format!("{path}.buckets[{i}]"), key, errs);
                }
            }
        }
        None => errs.push(format!("{path}.buckets: missing or not an array")),
    }
}

fn require_u64(json: &Json, path: &str, key: &str, errs: &mut Vec<String>) {
    if json.get(key).and_then(Json::as_u64).is_none() {
        errs.push(format!("{path}.{key}: missing or not a u64"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ArtifactMeta, ObsArtifact};
    use crate::series::{Level, Recorder};
    use crate::span::Profile;
    use cachemap_util::ToJson;

    fn valid_artifact_json() -> Json {
        let mut prof = Profile::enabled();
        prof.scope("map", |p| p.count("chunks", 2));
        let mut rec = Recorder::enabled(100);
        rec.cache_access(Level::L1, 0, 5, true);
        ObsArtifact {
            meta: ArtifactMeta {
                schema_version: crate::SCHEMA_VERSION,
                label: "t".to_string(),
                clients: 1,
                io_nodes: 1,
                storage_nodes: 1,
                chunk_bytes: 64,
                policies: ArtifactMeta::lru_policies(),
            },
            mapper: Some(prof),
            engine: rec.finish(),
        }
        .to_json()
    }

    #[test]
    fn valid_artifact_passes() {
        assert!(validate_artifact(&valid_artifact_json()).is_ok());
    }

    #[test]
    fn missing_sections_are_all_reported() {
        let errs = validate_artifact(&Json::object(vec![])).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("meta")));
        assert!(errs.iter().any(|e| e.contains("mapper")));
        assert!(errs.iter().any(|e| e.contains("engine")));
    }

    #[test]
    fn missing_policy_vector_is_caught() {
        let mut json = valid_artifact_json();
        if let Json::Object(pairs) = &mut json {
            let meta = pairs.iter_mut().find(|(k, _)| k == "meta").unwrap();
            if let Json::Object(mpairs) = &mut meta.1 {
                mpairs.retain(|(k, _)| k != "policies");
            }
        }
        let errs = validate_artifact(&json).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("meta.policies")));
        // Wrong arity is reported too.
        let mut json = valid_artifact_json();
        if let Json::Object(pairs) = &mut json {
            let meta = pairs.iter_mut().find(|(k, _)| k == "meta").unwrap();
            if let Json::Object(mpairs) = &mut meta.1 {
                for (k, v) in mpairs.iter_mut() {
                    if k == "policies" {
                        *v = Json::Array(vec![Json::Str("lru".into()), Json::Str("lru".into())]);
                    }
                }
            }
        }
        let errs = validate_artifact(&json).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("expected 3 entries")));
    }

    #[test]
    fn bad_level_label_is_caught() {
        let mut json = valid_artifact_json();
        // Corrupt the first node row's level in place.
        if let Json::Object(pairs) = &mut json {
            let engine = pairs.iter_mut().find(|(k, _)| k == "engine").unwrap();
            if let Json::Object(epairs) = &mut engine.1 {
                let nodes = epairs.iter_mut().find(|(k, _)| k == "nodes").unwrap();
                if let Json::Array(rows) = &mut nodes.1 {
                    if let Json::Object(row) = &mut rows[0] {
                        row.iter_mut().find(|(k, _)| k == "level").unwrap().1 =
                            Json::Str("l9".to_string());
                    }
                }
            }
        }
        let errs = validate_artifact(&json).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("level")));
    }
}
