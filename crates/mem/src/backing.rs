//! The global-memory value store.
//!
//! Functional state of the simulated machine: every 8-byte word of global
//! memory that has ever been written. Timing is handled elsewhere; this is
//! purely the "what value lives at this address" half of the memory system.

use awg_sim::{CodecError, Dec, Enc, FastMap};

use crate::addr::{Addr, WORD_BYTES};

/// Word-addressed global memory (values are `i64`, matching the sync-variable
/// width used by the kernel ISA). Unwritten words read as zero, like freshly
/// allocated GPU memory in the benchmarks.
///
/// # Example
///
/// ```
/// let mut mem = awg_mem::Backing::new();
/// assert_eq!(mem.load(64), 0);
/// mem.store(64, -7);
/// assert_eq!(mem.load(64), -7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Backing {
    words: FastMap<Addr, i64>,
    writes: u64,
}

impl Backing {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn word_addr(addr: Addr) -> Addr {
        addr & !(WORD_BYTES - 1)
    }

    /// Loads the word containing `addr` (word-aligned internally).
    #[inline]
    pub fn load(&self, addr: Addr) -> i64 {
        *self.words.get(&Self::word_addr(addr)).unwrap_or(&0)
    }

    /// Stores `value` to the word containing `addr`.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: i64) {
        self.writes += 1;
        let key = Self::word_addr(addr);
        if value == 0 {
            // Keep the map sparse: zero is the default.
            self.words.remove(&key);
        } else {
            self.words.insert(key, value);
        }
    }

    /// Total number of stores ever performed, including stores of an
    /// unchanged value: a cheap "has global state changed?" clock. The
    /// MinResume oracle reads it to notice stores it was not told about.
    pub fn write_version(&self) -> u64 {
        self.writes
    }

    /// Number of words currently holding non-zero values.
    pub fn resident_words(&self) -> usize {
        self.words.len()
    }

    /// Iterates over `(addr, value)` for all non-zero words, in unspecified
    /// order. Useful to validators that check workload post-conditions.
    pub fn nonzero_words(&self) -> impl Iterator<Item = (Addr, i64)> + '_ {
        self.words.iter().map(|(&a, &v)| (a, v))
    }

    /// Serializes the full functional memory image. Words are written in
    /// ascending address order so identical memories always produce
    /// byte-identical encodings regardless of map iteration order.
    pub fn save_image(&self, enc: &mut Enc) {
        enc.u64(self.writes);
        let mut words: Vec<(Addr, i64)> = self.words.iter().map(|(&a, &v)| (a, v)).collect();
        words.sort_unstable_by_key(|&(a, _)| a);
        enc.usize(words.len());
        for (a, v) in words {
            enc.u64(a);
            enc.i64(v);
        }
    }

    /// Replaces this memory's contents with state written by
    /// [`Backing::save_image`]. Rejects zero-valued or unaligned words — the
    /// store path never produces either, so their presence means corruption.
    pub fn load_image(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        self.writes = dec.u64()?;
        let n = dec.count(16)?;
        let mut words = FastMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let a = dec.u64()?;
            let v = dec.i64()?;
            if v == 0 {
                return Err(CodecError::Invalid(format!(
                    "zero word at {a:#x} in backing snapshot"
                )));
            }
            if a != Self::word_addr(a) {
                return Err(CodecError::Invalid(format!(
                    "unaligned word address {a:#x} in backing snapshot"
                )));
            }
            words.insert(a, v);
        }
        self.words = words;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let mem = Backing::new();
        assert_eq!(mem.load(0), 0);
        assert_eq!(mem.load(12345678), 0);
    }

    #[test]
    fn store_load_roundtrip() {
        let mut mem = Backing::new();
        mem.store(128, 99);
        assert_eq!(mem.load(128), 99);
        mem.store(128, -1);
        assert_eq!(mem.load(128), -1);
    }

    #[test]
    fn subword_addresses_alias_the_word() {
        let mut mem = Backing::new();
        mem.store(64, 5);
        assert_eq!(mem.load(67), 5);
        mem.store(71, 9);
        assert_eq!(mem.load(64), 9);
    }

    #[test]
    fn zero_stores_keep_map_sparse() {
        let mut mem = Backing::new();
        mem.store(64, 1);
        mem.store(64, 0);
        assert_eq!(mem.resident_words(), 0);
        assert_eq!(mem.load(64), 0);
    }

    #[test]
    fn write_version_counts_all_stores() {
        let mut mem = Backing::new();
        mem.store(0, 1);
        mem.store(8, 0);
        assert_eq!(mem.write_version(), 2);
    }

    #[test]
    fn nonzero_iteration() {
        let mut mem = Backing::new();
        mem.store(64, 1);
        mem.store(128, 2);
        let mut items: Vec<_> = mem.nonzero_words().collect();
        items.sort_unstable();
        assert_eq!(items, vec![(64, 1), (128, 2)]);
    }
}
