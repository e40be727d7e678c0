//! Counting Bloom filters for AWG's resume-count prediction.
//!
//! "The prediction mechanism counts the number of waiting WGs and uses one
//! counting Bloom filter per monitored address to count the number \[of\]
//! unique updates to the associated address" (§V.A). Each filter stores
//! 24 bits and uses 6 hash functions (§V.C), giving a ≈2.1 % false-positive
//! probability at the occupancies the benchmarks produce.

use crate::hash::UniversalHash;

/// Default filter width in bits (§V.C).
pub const BLOOM_BITS: usize = 24;

/// Default number of hash functions (§V.C).
pub const BLOOM_HASHES: usize = 6;

/// The hash functions every filter shares: members 101–106 of the family.
static HASHES: [UniversalHash; BLOOM_HASHES] = {
    let mut hashes = [UniversalHash::nth(0); BLOOM_HASHES];
    let mut i = 0;
    while i < BLOOM_HASHES {
        hashes[i] = UniversalHash::nth(i as u64 + 101);
        i += 1;
    }
    hashes
};

/// A small Bloom filter that counts *unique* values inserted into it.
///
/// An insert whose bits are already all set is considered a duplicate (this
/// is where the false-positive probability lives); otherwise the unique
/// counter increments. Every filter uses the same six hash functions, so a
/// filter holds only its bits, width and count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingBloom {
    bits: u32,
    nbits: u32,
    unique: u32,
}

impl CountingBloom {
    /// Creates an empty filter with the paper's geometry.
    pub fn new() -> Self {
        Self::with_bits(BLOOM_BITS as u32)
    }

    /// Creates an empty filter with a custom width (capacity studies).
    ///
    /// # Panics
    ///
    /// Panics if `nbits` is zero or exceeds 32.
    pub fn with_bits(nbits: u32) -> Self {
        assert!((1..=32).contains(&nbits), "width must be 1..=32 bits");
        CountingBloom {
            bits: 0,
            nbits,
            unique: 0,
        }
    }

    /// The bits `value` sets.
    fn mask(&self, value: i64) -> u32 {
        HASHES.iter().fold(0, |mask, h| {
            mask | (1 << h.hash(value as u64, u64::from(self.nbits)))
        })
    }

    /// Inserts `value`; returns `true` when it was (probably) new.
    pub fn insert(&mut self, value: i64) -> bool {
        let mask = self.mask(value);
        let novel = (self.bits & mask) != mask;
        self.bits |= mask;
        if novel {
            self.unique += 1;
        }
        novel
    }

    /// Whether `value` has (probably) been inserted.
    pub fn contains(&self, value: i64) -> bool {
        let mask = self.mask(value);
        (self.bits & mask) == mask
    }

    /// Number of unique values observed (modulo false positives).
    pub fn unique_count(&self) -> u32 {
        self.unique
    }

    /// Clears the filter ("once a condition has been met, all waiting WGs
    /// have resumed, and the address is not monitored, the associated Bloom
    /// filter is reset", §V.A).
    pub fn reset(&mut self) {
        self.bits = 0;
        self.unique = 0;
    }

    /// Whether no value has been inserted since the last reset.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }
}

impl Default for CountingBloom {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_unique_insertions() {
        let mut b = CountingBloom::new();
        assert!(b.insert(1));
        assert!(b.insert(2));
        assert!(!b.insert(1), "duplicate must not count");
        assert_eq!(b.unique_count(), 2);
    }

    #[test]
    fn contains_after_insert() {
        let mut b = CountingBloom::new();
        b.insert(-5);
        assert!(b.contains(-5));
    }

    #[test]
    fn reset_clears() {
        let mut b = CountingBloom::new();
        b.insert(7);
        b.reset();
        assert!(b.is_empty());
        assert_eq!(b.unique_count(), 0);
        assert!(!b.contains(7) || b.is_empty());
    }

    #[test]
    fn false_positive_rate_is_small() {
        // Insert the values barriers/mutexes actually produce (a handful),
        // then probe many others.
        let mut b = CountingBloom::new();
        for v in 0..3 {
            b.insert(v);
        }
        let fp = (1000..4000).filter(|&v| b.contains(v)).count();
        let rate = fp as f64 / 3000.0;
        assert!(rate < 0.10, "false positive rate {rate}");
    }

    #[test]
    fn barrier_vs_mutex_signature() {
        // A sense-reversal barrier address sees many unique arrivals
        // (counter values); a ticket-lock release slot sees {-1, 1}.
        let mut barrier = CountingBloom::new();
        for arrival in 1..=8 {
            barrier.insert(arrival);
        }
        let mut mutex = CountingBloom::new();
        mutex.insert(1);
        mutex.insert(-1);
        assert!(barrier.unique_count() > 2, "barrier looks multi-update");
        assert!(mutex.unique_count() <= 2, "mutex looks two-update");
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn zero_width_rejected() {
        CountingBloom::with_bits(0);
    }
}
