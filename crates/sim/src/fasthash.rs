//! A small deterministic hasher for the simulator's internal maps.
//!
//! std's default `SipHash` is keyed per process and costs tens of
//! nanoseconds per lookup; the simulator hashes on every L2 access, value
//! peek and SyncMon notification. [`FastHasher`] is an unkeyed
//! multiply-rotate hash, so a map's layout depends only on the sequence of
//! keys inserted into it.
//!
//! The keys are mostly 8- and 64-byte-aligned addresses, whose low bits are
//! all zero. A plain multiply leaves those zeros in the low bits of the
//! product, and the hash table picks buckets from the low bits, so
//! [`FastHasher::finish`] folds the high half of a 128-bit product into the
//! low half.
//!
//! Use it only for keys the simulation generates (addresses, WG ids, metric
//! names). A key set chosen to collide makes lookups slow, which here can
//! only slow the run whose kernel chose those addresses.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier: 2⁶⁴ divided by the golden ratio.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Rotation applied to the running state before each word is mixed in.
const ROTATE: u32 = 26;

/// Unkeyed multiply-rotate hasher; see the module documentation.
///
/// # Example
///
/// ```
/// use std::hash::{BuildHasher, BuildHasherDefault};
/// use awg_sim::FastHasher;
///
/// let build = BuildHasherDefault::<FastHasher>::default();
/// // Unkeyed: equal keys hash equally in every process.
/// assert_eq!(build.hash_one(64u64), build.hash_one(64u64));
/// assert_ne!(build.hash_one(64u64), build.hash_one(128u64));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(MULTIPLIER);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.write_u64(u64::from(byte));
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(
                word.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let product = u128::from(self.state) * u128::from(MULTIPLIER);
        (product as u64) ^ ((product >> 64) as u64)
    }
}

/// A `HashMap` hashed by [`FastHasher`]. Build one with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(value)
    }

    /// Line-aligned keys must spread over the low bits the table indexes
    /// with. 4096 consecutive lines under a random hash fill about 63% of
    /// 4096 low-bit buckets; without the fold they would fill 64.
    #[test]
    fn aligned_keys_spread_over_low_bits() {
        let mut buckets: Vec<u64> = (0..4096u64).map(|i| hash(i * 64) & 4095).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() > 2048, "only {} buckets used", buckets.len());
    }

    #[test]
    fn strings_hash_by_content() {
        assert_eq!(
            hash("wait_episode_cycles"),
            hash(String::from("wait_episode_cycles"))
        );
        assert_ne!(hash("a"), hash("b"));
        assert_ne!(
            hash("awg_met_latency_cycles"),
            hash("awg_met_latency_cycleS")
        );
    }
}
