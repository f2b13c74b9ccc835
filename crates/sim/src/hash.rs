//! The stable content-fingerprint hash.

use std::borrow::Borrow;

/// FNV-1a over a byte stream (a slice, a `Vec`, or any iterator of
/// bytes) — the stable content-fingerprint hash used for identities
/// that must survive process boundaries:
/// [`crate::cluster::ClusterSpec::fingerprint`], the experiment layer's
/// workload fingerprints and its persistent cache's file names. It has
/// a published fixed definition, so fingerprints are comparable across
/// builds.
pub fn fnv1a64<B: Borrow<u8>>(bytes: impl IntoIterator<Item = B>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.into_iter().fold(OFFSET, |hash, byte| {
        (hash ^ *byte.borrow() as u64).wrapping_mul(PRIME)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(b"foobar".iter().copied()), fnv1a64(b"foobar"));
    }
}
