//! Stable content hashing for cache keys and corpus dedup.
//!
//! The serve layer keys its compiled-index cache by a *content hash* of
//! the `(workflow, machine)` pair: two requests posting semantically
//! identical specs must land on the same cache entry, across processes,
//! platforms and serialization quirks. That pins three properties:
//!
//! * **Byte-order stability.** The hash is FNV-1a over an explicit byte
//!   stream; every multi-byte quantity is fed through a fixed
//!   little-endian encoding, so the result is identical on big- and
//!   little-endian hosts and across runs (no `RandomState`).
//! * **Key-order insensitivity.** JSON object keys are sorted before
//!   hashing, so `{"a":1,"b":2}` and `{"b":2,"a":1}` fingerprint
//!   identically — the vendored `serde` `Value` preserves insertion
//!   order, which a cache key must not depend on.
//! * **Structural framing.** Every node is prefixed with a type tag and
//!   strings/containers with their lengths, so concatenation ambiguities
//!   (`["ab","c"]` vs `["a","bc"]`) cannot collide by construction.
//!
//! The canonical serialization of a value is whatever its `Serialize`
//! impl produces as a `serde::value::Value` tree; [`fingerprint_value`]
//! hashes that tree canonically.

use serde::value::{Number, Value};

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher.
///
/// Deterministic across processes and platforms — unlike
/// `std::collections::hash_map::DefaultHasher`, which is seeded per
/// process and explicitly unstable across releases.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` in fixed little-endian encoding.
    pub fn update_u64(&mut self, n: u64) {
        self.update(&n.to_le_bytes());
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

// Type tags framing each canonical node. Chosen once; changing any of
// these changes every fingerprint, so they are part of the format.
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_ARR: u8 = 7;
const TAG_OBJ: u8 = 8;

fn hash_value(h: &mut Fnv1a, v: &Value) {
    match v {
        Value::Null => h.update(&[TAG_NULL]),
        Value::Bool(false) => h.update(&[TAG_FALSE]),
        Value::Bool(true) => h.update(&[TAG_TRUE]),
        Value::Number(n) => match *n {
            // Integer-valued floats hash as their integer identity so a
            // round-trip through JSON text ("2e3" vs "2000") cannot
            // split a cache entry; sign matters, NaN is normalized.
            Number::U64(u) => {
                h.update(&[TAG_U64]);
                h.update_u64(u);
            }
            Number::I64(i) => {
                if let Ok(u) = u64::try_from(i) {
                    h.update(&[TAG_U64]);
                    h.update_u64(u);
                } else {
                    h.update(&[TAG_I64]);
                    h.update_u64(i as u64);
                }
            }
            Number::F64(f) => {
                if f.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&f) && f.is_sign_positive()
                {
                    h.update(&[TAG_U64]);
                    h.update_u64(f as u64);
                } else if f.fract() == 0.0 && (i64::MIN as f64..0.0).contains(&f) {
                    h.update(&[TAG_I64]);
                    h.update_u64(f as i64 as u64);
                } else {
                    h.update(&[TAG_F64]);
                    let bits = if f.is_nan() {
                        f64::NAN.to_bits()
                    } else {
                        f.to_bits()
                    };
                    h.update_u64(bits);
                }
            }
        },
        Value::String(s) => {
            h.update(&[TAG_STR]);
            h.update_u64(s.len() as u64);
            h.update(s.as_bytes());
        }
        Value::Array(items) => {
            h.update(&[TAG_ARR]);
            h.update_u64(items.len() as u64);
            for item in items {
                hash_value(h, item);
            }
        }
        Value::Object(entries) => {
            // Sort keys (by byte value) so insertion order is
            // irrelevant. Duplicate keys keep their relative order —
            // a degenerate input, but still deterministic.
            let mut order: Vec<usize> = (0..entries.len()).collect();
            order.sort_by(|&a, &b| entries[a].0.as_bytes().cmp(entries[b].0.as_bytes()));
            h.update(&[TAG_OBJ]);
            h.update_u64(entries.len() as u64);
            for ix in order {
                let (k, v) = &entries[ix];
                h.update(&[TAG_STR]);
                h.update_u64(k.len() as u64);
                h.update(k.as_bytes());
                hash_value(h, v);
            }
        }
    }
}

/// Canonical content hash of a `Value` tree: hashed with sorted object
/// keys and fixed little-endian scalar encodings. Stable across runs,
/// processes and platforms.
#[must_use]
pub fn fingerprint_value(v: &Value) -> u64 {
    let mut h = Fnv1a::new();
    hash_value(&mut h, v);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.update(bytes);
        h.finish()
    }

    #[test]
    fn fnv1a_known_answers() {
        // Published FNV-1a 64-bit test vectors: the empty string hashes
        // to the offset basis, and "a"/"foobar" to their classic values.
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_order_is_irrelevant() {
        let ab = Value::Object(vec![
            ("alpha".into(), Value::Number(Number::U64(1))),
            ("beta".into(), Value::Number(Number::U64(2))),
        ]);
        let ba = Value::Object(vec![
            ("beta".into(), Value::Number(Number::U64(2))),
            ("alpha".into(), Value::Number(Number::U64(1))),
        ]);
        assert_eq!(fingerprint_value(&ab), fingerprint_value(&ba));
        // ...including in nested objects.
        let nested_ab = Value::Object(vec![("outer".into(), ab)]);
        let nested_ba = Value::Object(vec![("outer".into(), ba)]);
        assert_eq!(fingerprint_value(&nested_ab), fingerprint_value(&nested_ba));
    }

    #[test]
    fn framing_prevents_concatenation_collisions() {
        let a = Value::Array(vec![Value::String("ab".into()), Value::String("c".into())]);
        let b = Value::Array(vec![Value::String("a".into()), Value::String("bc".into())]);
        assert_ne!(fingerprint_value(&a), fingerprint_value(&b));
    }

    #[test]
    fn value_distinctions_matter() {
        let cases = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Number(Number::U64(0)),
            Value::String(String::new()),
            Value::Array(vec![]),
            Value::Object(vec![]),
            Value::String("0".into()),
            Value::Number(Number::F64(0.5)),
        ];
        for (i, a) in cases.iter().enumerate() {
            for (j, b) in cases.iter().enumerate() {
                if i != j {
                    assert_ne!(fingerprint_value(a), fingerprint_value(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn numeric_identity_survives_representation() {
        // The same mathematical integer fingerprints identically whether
        // it arrived as u64, i64 or a whole f64 (JSON text round-trips
        // may produce any of them).
        let u = Value::Number(Number::U64(2000));
        let i = Value::Number(Number::I64(2000));
        let f = Value::Number(Number::F64(2000.0));
        assert_eq!(fingerprint_value(&u), fingerprint_value(&i));
        assert_eq!(fingerprint_value(&u), fingerprint_value(&f));
        let ni = Value::Number(Number::I64(-3));
        let nf = Value::Number(Number::F64(-3.0));
        assert_eq!(fingerprint_value(&ni), fingerprint_value(&nf));
    }

    #[test]
    fn byte_order_stable_golden_values() {
        // Golden fingerprints: computed once with the explicit
        // little-endian encoding below; any change to the canonical
        // format (tags, lengths, endianness) fails this test. Because
        // every multi-byte scalar goes through `to_le_bytes`, these
        // values are identical on little- and big-endian hosts.
        let mut h = Fnv1a::new();
        h.update_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), {
            // Equivalent explicit byte feed: LE means 08 07 .. 01.
            let mut e = Fnv1a::new();
            e.update(&[8, 7, 6, 5, 4, 3, 2, 1]);
            e.finish()
        });
        let v = Value::Object(vec![
            ("name".into(), Value::String("wf".into())),
            ("tasks".into(), Value::Array(vec![])),
        ]);
        assert_eq!(fingerprint_value(&v), 0x33b3_d916_5f45_6dd1);
    }
}
