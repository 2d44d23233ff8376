//! The one hash the workspace persists or compares across processes:
//! snapshot checksums, shard ownership of terms and query fingerprints are
//! all 64-bit FNV-1a, so its output must never change.

/// The 64-bit FNV-1a offset basis: the `init` of a fresh hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, continuing from `init` ([`FNV_OFFSET`] to
/// start; the result of a previous call to hash a concatenation piecewise).
pub fn fnv1a(init: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(init, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }
}
