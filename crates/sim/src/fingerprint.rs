//! Order-sensitive state fingerprinting for determinism checks.
//!
//! A [`Fingerprint64`] folds a stream of words into a 64-bit digest
//! (FNV-1a over the little-endian bytes of each word). Two state dumps
//! hash equal iff they pushed the same words in the same order, so the
//! machine layer can digest its architectural state at window boundaries
//! and a harness can compare same-seed runs *window by window* — pointing
//! at the first divergent window instead of a bare "outputs differ".
//!
//! The hash is not cryptographic; it only needs to make accidental
//! collisions between near-identical machine states vanishingly unlikely
//! while staying dependency-free and bit-stable across platforms.
//!
//! Machine-state words are mostly small (states, program counters, counts),
//! so most of a word's eight bytes are high-order zeros. FNV-1a folds a zero
//! byte as `state ^= 0; state *= PRIME`, a bare multiply, so a word's `k`
//! trailing zero bytes (little-endian order) fold as one multiply by
//! `PRIME^k`. [`Fingerprint64::push`] hashes only the significant bytes one
//! by one and the rest that way, and merges the last significant byte's own
//! multiply into that one: `(x · PRIME) · PRIME^k = x · PRIME^(k+1)` mod
//! 2⁶⁴, so a word with `s` significant bytes costs `s` serial multiplies,
//! the last by `PRIME^(9 − s)`. A zero word folds as one multiply by
//! `PRIME^8`. The digest is the byte-serial one.

/// Streaming 64-bit FNV-1a hasher over words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME_POW[k]` is `FNV_PRIME^k` (wrapping): folding `k` zero bytes.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

impl Fingerprint64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint64 { state: FNV_OFFSET }
    }

    /// Folds one unsigned word into the digest: FNV-1a over its eight
    /// little-endian bytes, with the last significant byte's multiply and
    /// the high-order zero bytes' folded into one (module docs).
    #[inline]
    pub fn push(&mut self, word: u64) {
        // A zero word counts one significant byte, the zero low byte: it
        // then folds as `^= 0` and one multiply by `PRIME^8`.
        let significant = 8 - ((word | 1).leading_zeros() / 8) as usize;
        let mut state = self.state;
        let mut rest = word;
        for _ in 1..significant {
            state ^= rest & 0xFF;
            state = state.wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        // `rest` is now the last significant byte alone.
        state ^= rest;
        self.state = state.wrapping_mul(FNV_PRIME_POW[9 - significant]);
    }

    /// Folds one signed word into the digest.
    pub fn push_i64(&mut self, word: i64) {
        self.push(word as u64);
    }

    /// Folds a length-prefixed byte string into the digest, so adjacent
    /// strings keep their boundary (`"ab" ++ "c"` differs from
    /// `"a" ++ "bc"`). This is what content-addressed job digests use to
    /// hash keys and config dumps.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.push(bytes.len() as u64);
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a length-prefixed sequence of words, so `[1, 2] ++ [3]`
    /// hashes differently from `[1] ++ [2, 3]`.
    pub fn push_seq(&mut self, words: impl ExactSizeIterator<Item = u64>) {
        self.push(words.len() as u64);
        for w in words {
            self.push(w);
        }
    }

    /// The digest of everything pushed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fingerprint64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Compares two per-window digest trails, returning the index of the
/// first window where they disagree (`None` when one is a prefix of the
/// other or they are identical — trail lengths may differ when one run
/// ended earlier).
pub fn first_divergence(a: &[u64], b: &[u64]) -> Option<usize> {
    a.iter().zip(b.iter()).position(|(x, y)| x != y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_offset_basis() {
        assert_eq!(Fingerprint64::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn order_sensitive() {
        let mut a = Fingerprint64::new();
        a.push(1);
        a.push(2);
        let mut b = Fingerprint64::new();
        b.push(2);
        b.push(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn deterministic_across_instances() {
        let digest = |words: &[u64]| {
            let mut f = Fingerprint64::new();
            for &w in words {
                f.push(w);
            }
            f.finish()
        };
        assert_eq!(digest(&[7, 8, 9]), digest(&[7, 8, 9]));
        assert_ne!(digest(&[7, 8, 9]), digest(&[7, 8, 10]));
    }

    #[test]
    fn length_prefix_separates_boundaries() {
        let mut a = Fingerprint64::new();
        a.push_seq([1u64, 2].into_iter());
        a.push_seq([3u64].into_iter());
        let mut b = Fingerprint64::new();
        b.push_seq([1u64].into_iter());
        b.push_seq([2u64, 3].into_iter());
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn signed_words_roundtrip_into_hash() {
        let mut a = Fingerprint64::new();
        a.push_i64(-1);
        let mut b = Fingerprint64::new();
        b.push(u64::MAX);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn byte_strings_keep_their_boundaries() {
        let digest = |parts: &[&str]| {
            let mut f = Fingerprint64::new();
            for p in parts {
                f.push_bytes(p.as_bytes());
            }
            f.finish()
        };
        assert_eq!(digest(&["ab", "c"]), digest(&["ab", "c"]));
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_ne!(digest(&["ab"]), digest(&["ba"]));
    }

    #[test]
    fn divergence_points_at_first_differing_window() {
        assert_eq!(first_divergence(&[1, 2, 3], &[1, 2, 3]), None);
        assert_eq!(first_divergence(&[1, 2, 3], &[1, 9, 3]), Some(1));
        assert_eq!(first_divergence(&[1, 2], &[1, 2, 3]), None);
        assert_eq!(first_divergence(&[], &[5]), None);
    }
}
