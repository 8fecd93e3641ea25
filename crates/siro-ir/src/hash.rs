//! The hash of names read from request text, shared by the reader's name
//! tables and the verifier's duplicate-name set.
//!
//! Names hash by multiply-and-fold under a per-process random key: several
//! times cheaper than SipHash on short names, and the key keeps request
//! text from choosing colliding names in advance.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by names.
pub(crate) type HashMap<K, V> = std::collections::HashMap<K, V, NameHash>;

/// A `HashSet` of names.
pub(crate) type HashSet<K> = std::collections::HashSet<K, NameHash>;

#[derive(Debug, Clone, Copy)]
pub(crate) struct NameHash(u64);

impl Default for NameHash {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        NameHash(*KEY.get_or_init(|| RandomState::new().build_hasher().finish() | 1))
    }
}

impl BuildHasher for NameHash {
    type Hasher = NameHasher;

    fn build_hasher(&self) -> NameHasher {
        NameHasher {
            acc: self.0,
            key: self.0,
        }
    }
}

pub(crate) struct NameHasher {
    acc: u64,
    key: u64,
}

/// The 128-bit product of `x` and `y`, its halves folded together.
fn fold_mul(x: u64, y: u64) -> u64 {
    let p = u128::from(x) * u128::from(y);
    (p as u64) ^ ((p >> 64) as u64)
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for &w in words {
            self.acc = fold_mul(self.acc ^ u64::from_le_bytes(w), self.key);
        }
        let tail = tail.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b));
        self.acc = fold_mul(self.acc ^ tail, self.key ^ bytes.len() as u64);
    }

    fn write_u8(&mut self, b: u8) {
        self.acc = fold_mul(self.acc ^ u64::from(b), self.key);
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(bytes: &[u8]) -> u64 {
        let mut h = NameHash(0x9E37_79B9_7F4A_7C15).build_hasher();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn every_byte_and_the_length_count() {
        let name = b"http-parser_fn_12";
        let base = hash(name);
        for i in 0..name.len() {
            let mut flipped = name.to_vec();
            flipped[i] ^= 1;
            assert_ne!(hash(&flipped), base, "byte {i}");
        }
        assert_ne!(hash(b"fn_1"), hash(b"fn_1\0"));
        assert_ne!(hash(b""), hash(b"\0"));
    }
}
