//! Stable content fingerprints for memoization keys.
//!
//! The mapping service (`cachemap-service`) fronts the pipeline with a
//! cache keyed by the *content* of a request — the loop nest, the
//! platform topology, and the mapper parameters — so two requests that
//! describe the same problem must produce the same key regardless of how
//! their JSON was spelled. This module provides that key:
//!
//! 1. [`canonical`] rewrites a [`Json`] tree into canonical form (object
//!    keys sorted recursively; arrays keep their order, which is
//!    semantically significant for subscripts, dims, and op streams);
//! 2. [`fingerprint_json`] hashes the canonical compact serialization
//!    with FNV-1a/128, a fixed published constant-based hash that is
//!    stable across processes, platforms, and releases (unlike
//!    `DefaultHasher`, whose seeds are randomized).
//!
//! Because the workspace's JSON writer is byte-deterministic (sorted
//! canonical keys, shortest-round-trip floats), parse → re-serialize is
//! the identity on canonical bytes, so fingerprints survive
//! re-serialization and field-insertion-order changes by construction.

use crate::json::Json;
use std::fmt;

/// FNV-1a 128-bit offset basis (the published constant).
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime (the published constant).
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit stable content fingerprint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Hashes raw bytes with FNV-1a/128.
    pub fn of_bytes(bytes: &[u8]) -> Fingerprint {
        let mut state = FNV128_OFFSET;
        for &b in bytes {
            state ^= b as u128;
            state = state.wrapping_mul(FNV128_PRIME);
        }
        Fingerprint(state)
    }

    /// The fingerprint as a fixed-width 32-digit lowercase hex string.
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({})", self.to_hex())
    }
}

/// Returns the canonical form of a JSON tree: object keys sorted
/// (recursively, stable for duplicate keys), arrays left in order.
pub fn canonical(v: &Json) -> Json {
    match v {
        Json::Array(items) => Json::Array(items.iter().map(canonical).collect()),
        Json::Object(pairs) => {
            let mut out: Vec<(String, Json)> = pairs
                .iter()
                .map(|(k, v)| (k.clone(), canonical(v)))
                .collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Object(out)
        }
        other => other.clone(),
    }
}

/// Fingerprints a JSON value: canonicalize, serialize compactly, hash.
///
/// Invariants (property-tested in `cachemap-service`):
/// * insensitive to object field-insertion order;
/// * insensitive to serialize → parse round trips;
/// * sensitive to any value change (modulo hash collisions, 2⁻¹²⁸).
pub fn fingerprint_json(v: &Json) -> Fingerprint {
    Fingerprint::of_bytes(canonical(v).to_string_compact().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // FNV-1a/128 of the empty string is the offset basis.
        assert_eq!(Fingerprint::of_bytes(b"").0, FNV128_OFFSET);
        assert_ne!(Fingerprint::of_bytes(b"a"), Fingerprint::of_bytes(b"b"));
    }

    #[test]
    fn hex_round_trips() {
        let fp = Fingerprint::of_bytes(b"cachemap");
        assert_eq!(fp.to_hex().len(), 32);
        assert_eq!(u128::from_str_radix(&fp.to_hex(), 16), Ok(fp.0));
    }

    #[test]
    fn field_order_does_not_matter() {
        let a = Json::object(vec![
            ("x", Json::UInt(1)),
            (
                "y",
                Json::object(vec![("p", Json::Bool(true)), ("q", Json::Null)]),
            ),
        ]);
        let b = Json::object(vec![
            (
                "y",
                Json::object(vec![("q", Json::Null), ("p", Json::Bool(true))]),
            ),
            ("x", Json::UInt(1)),
        ]);
        assert_eq!(fingerprint_json(&a), fingerprint_json(&b));
    }

    #[test]
    fn array_order_does_matter() {
        let a = Json::Array(vec![Json::UInt(1), Json::UInt(2)]);
        let b = Json::Array(vec![Json::UInt(2), Json::UInt(1)]);
        assert_ne!(fingerprint_json(&a), fingerprint_json(&b));
    }

    #[test]
    fn reserialization_is_stable() {
        let v = Json::object(vec![
            ("f", Json::Float(0.1)),
            ("i", Json::Int(-3)),
            ("s", Json::Str("a\"b".into())),
            ("a", Json::Array(vec![Json::Float(1.0), Json::UInt(7)])),
        ]);
        let back = crate::json::parse(&v.to_string_pretty()).unwrap();
        assert_eq!(fingerprint_json(&v), fingerprint_json(&back));
    }

    #[test]
    fn value_changes_change_the_fingerprint() {
        let base = Json::object(vec![("k", Json::UInt(1))]);
        let other = Json::object(vec![("k", Json::UInt(2))]);
        let renamed = Json::object(vec![("j", Json::UInt(1))]);
        assert_ne!(fingerprint_json(&base), fingerprint_json(&other));
        assert_ne!(fingerprint_json(&base), fingerprint_json(&renamed));
    }
}
