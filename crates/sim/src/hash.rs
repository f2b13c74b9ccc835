//! A deterministic, allocation-free hasher for the hot-path maps.
//!
//! The per-user history maps (`predictsim_core`'s `FeatureExtractor`) are
//! hit several times per simulated job; `std`'s default SipHash is
//! needlessly expensive for 4-byte integer keys there. [`FxHasher`] is
//! the classic Firefox/rustc multiply-xor hash: not DoS-resistant (keys
//! here are small trusted integers), but fast, stable across runs and
//! platforms, and — unlike `RandomState` — fully deterministic, which
//! keeps every simulation reproducible by construction even if map
//! iteration order ever leaked into results (it does not: these maps
//! are only ever probed by key).

use std::borrow::Borrow;
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (64-bit golden-ratio-derived odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `std` collections.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// FNV-1a over a byte stream (a slice, a `Vec`, or any iterator of
/// bytes) — the stable content-fingerprint hash used for identities
/// that must survive process boundaries:
/// [`crate::cluster::ClusterSpec::fingerprint`], the experiment layer's
/// workload fingerprints and its persistent cache's file names. Unlike
/// [`FxHasher`] it has a published fixed definition, so fingerprints
/// are comparable across builds.
pub fn fnv1a64<B: Borrow<u8>>(bytes: impl IntoIterator<Item = B>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.into_iter().fold(OFFSET, |hash, byte| {
        (hash ^ *byte.borrow() as u64).wrapping_mul(PRIME)
    })
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u32(0xdead_beef);
        b.write_u32(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hash = |n: u32| {
            let mut h = FxHasher::default();
            h.write_u32(n);
            h.finish()
        };
        let hashes: std::collections::HashSet<u64> = (0..10_000).map(hash).collect();
        assert_eq!(hashes.len(), 10_000, "small keys must not collide");
    }

    #[test]
    fn byte_stream_equivalence_is_chunked() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        b.write(&[9]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(b"foobar".iter().copied()), fnv1a64(b"foobar"));
    }

    #[test]
    fn map_probe_round_trip() {
        let mut map: FxHashMap<u32, &str> = FxHashMap::default();
        map.insert(7, "seven");
        map.insert(1_000_003, "big");
        assert_eq!(map.get(&7), Some(&"seven"));
        assert_eq!(map.get(&1_000_003), Some(&"big"));
        assert_eq!(map.get(&8), None);
    }
}
