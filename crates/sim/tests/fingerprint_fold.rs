//! Pins [`Fingerprint64::push`], which folds a word's high-order zero
//! bytes into one multiply, to plain byte-serial FNV-1a over the word's
//! eight little-endian bytes. The reference loop below is the definition;
//! every digest golden in the repository was produced by it.

use awg_sim::Fingerprint64;
use proptest::prelude::*;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Byte-serial FNV-1a, one xor-multiply per byte.
fn reference(words: &[u64]) -> u64 {
    let mut state = FNV_OFFSET;
    for word in words {
        for byte in word.to_le_bytes() {
            state ^= u64::from(byte);
            state = state.wrapping_mul(FNV_PRIME);
        }
    }
    state
}

/// Pushes `words` one at a time, checking the digest after every prefix.
fn assert_matches_reference(words: &[u64]) {
    let mut f = Fingerprint64::new();
    for (i, &w) in words.iter().enumerate() {
        f.push(w);
        assert_eq!(
            f.finish(),
            reference(&words[..=i]),
            "digest diverged after word {i} ({w:#x})"
        );
    }
}

/// Words of every significant-byte count: a random word shifted right by
/// 0..=64 bits, so each length from eight bytes down to zero is drawn.
fn word() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..65).prop_map(|(w, shift)| w.checked_shr(shift).unwrap_or(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn push_matches_byte_serial_fnv(words in prop::collection::vec(word(), 0..48)) {
        assert_matches_reference(&words);
    }

    #[test]
    fn push_i64_matches_byte_serial_fnv(
        words in prop::collection::vec((any::<i64>(), 0u32..64), 0..48)
    ) {
        // Shifting a signed word keeps its sign, so negative words keep
        // their 0xFF high bytes and positive ones lose theirs.
        let words: Vec<i64> = words.into_iter().map(|(w, s)| w >> s).collect();
        let mut f = Fingerprint64::new();
        for &w in &words {
            f.push_i64(w);
        }
        let as_u64: Vec<u64> = words.iter().map(|&w| w as u64).collect();
        prop_assert_eq!(f.finish(), reference(&as_u64));
    }
}

#[test]
fn boundary_words_match_byte_serial_fnv() {
    let boundaries = [
        0,
        1,
        0xFF,
        0x100,
        0xFFFF,
        0x1_0000,
        0xFF_FFFF,
        0x100_0000,
        u64::from(u32::MAX),
        1 << 32,
        (1 << 56) - 1,
        1 << 56,
        u64::MAX,
    ];
    // Each word alone, from the offset basis, and the whole run in order.
    for &w in &boundaries {
        assert_matches_reference(&[w]);
    }
    assert_matches_reference(&boundaries);
    let mut reversed = boundaries;
    reversed.reverse();
    assert_matches_reference(&reversed);
}

#[test]
fn negative_i64_words_match_byte_serial_fnv() {
    let words = [
        -1i64,
        -2,
        -255,
        -256,
        -65_536,
        i64::from(i32::MIN),
        i64::MIN,
        i64::MAX,
    ];
    let mut f = Fingerprint64::new();
    for &w in &words {
        f.push_i64(w);
    }
    let as_u64: Vec<u64> = words.iter().map(|&w| w as u64).collect();
    assert_eq!(f.finish(), reference(&as_u64));
}
