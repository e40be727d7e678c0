//! The global-memory value store.
//!
//! Functional state of the simulated machine: every 8-byte word of global
//! memory that has ever been written. Timing is handled elsewhere; this is
//! purely the "what value lives at this address" half of the memory system.

use awg_sim::FastMap;

use crate::addr::{Addr, WORD_BYTES};

/// Bytes per page of the store.
const PAGE_BYTES: u64 = 4096;
/// Words per page.
const PAGE_WORDS: usize = (PAGE_BYTES / WORD_BYTES) as usize;

/// One 4 KB page of words, with a bitmap of the non-zero ones.
#[derive(Debug, Clone)]
struct Page {
    words: [i64; PAGE_WORDS],
    nonzero: [u64; PAGE_WORDS / 64],
}

impl Page {
    fn new() -> Box<Page> {
        Box::new(Page {
            words: [0; PAGE_WORDS],
            nonzero: [0; PAGE_WORDS / 64],
        })
    }
}

/// Word-addressed global memory (values are `i64`, matching the sync-variable
/// width used by the kernel ISA). Unwritten words read as zero, like freshly
/// allocated GPU memory in the benchmarks.
///
/// Words live in 4 KB pages keyed by page number. A page, once written, stays
/// (a zero store leaves its word in place); each page keeps a bitmap of its
/// non-zero words, and the store keeps their total, so iterating the
/// non-zero words costs O(pages + non-zero words).
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
    pages: FastMap<u64, Box<Page>>,
    /// Every key of `pages`, ascending.
    order: Vec<u64>,
    /// Non-zero words over all pages.
    nonzero: usize,
    writes: u64,
}

impl Backing {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(page number, word index in the page)` of `addr`.
    #[inline]
    fn split(addr: Addr) -> (u64, usize) {
        (addr / PAGE_BYTES, (addr % PAGE_BYTES / WORD_BYTES) as usize)
    }

    /// Loads the word containing `addr` (word-aligned internally).
    #[inline]
    pub fn load(&self, addr: Addr) -> i64 {
        let (page, i) = Self::split(addr);
        self.pages.get(&page).map_or(0, |p| p.words[i])
    }

    /// Stores `value` to the word containing `addr`.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: i64) {
        self.update(addr, |_| Some(value));
    }

    /// Reads the word containing `addr` and, when `f` maps its value to
    /// `Some(new)`, stores `new` there: a [`Backing::load`] and a
    /// conditional [`Backing::store`] with one page lookup. Returns the old
    /// value.
    #[inline]
    pub fn update(&mut self, addr: Addr, f: impl FnOnce(i64) -> Option<i64>) -> i64 {
        let (page, i) = Self::split(addr);
        let Some(p) = self.pages.get_mut(&page) else {
            // An absent page reads zero; only a non-zero store creates it.
            if let Some(new) = f(0) {
                self.writes += 1;
                if new != 0 {
                    let p = Self::new_page(&mut self.pages, &mut self.order, page);
                    Self::put(p, &mut self.nonzero, i, new);
                }
            }
            return 0;
        };
        let old = p.words[i];
        if let Some(new) = f(old) {
            self.writes += 1;
            Self::put(p, &mut self.nonzero, i, new);
        }
        old
    }

    /// Writes `new` to word `i` of `p`, keeping its bitmap and the non-zero
    /// total in step.
    #[inline]
    fn put(p: &mut Page, nonzero: &mut usize, i: usize, new: i64) {
        let bit = 1 << (i % 64);
        match (p.words[i] != 0, new != 0) {
            (false, true) => {
                p.nonzero[i / 64] |= bit;
                *nonzero += 1;
            }
            (true, false) => {
                p.nonzero[i / 64] &= !bit;
                *nonzero -= 1;
            }
            _ => {}
        }
        p.words[i] = new;
    }

    /// Adds the all-zero page `page`, not yet in `pages`, keeping `order`
    /// ascending.
    #[cold]
    fn new_page<'a>(
        pages: &'a mut FastMap<u64, Box<Page>>,
        order: &mut Vec<u64>,
        page: u64,
    ) -> &'a mut Page {
        let at = order.partition_point(|&p| p < page);
        order.insert(at, page);
        pages.entry(page).or_insert_with(Page::new)
    }

    /// Total number of stores ever performed, including stores of an
    /// unchanged value: a cheap "has global state changed?" clock. The
    /// MinResume oracle reads it to notice stores it was not told about.
    pub fn write_version(&self) -> u64 {
        self.writes
    }

    /// Number of words currently holding non-zero values, in O(1).
    pub fn resident_words(&self) -> usize {
        self.nonzero
    }

    /// Iterates over `(addr, value)` for all non-zero words, in ascending
    /// address order, in O(pages + non-zero words). Useful to validators
    /// that check workload post-conditions.
    pub fn nonzero_words(&self) -> impl Iterator<Item = (Addr, i64)> + '_ {
        self.order.iter().flat_map(move |&page| {
            let p = &self.pages[&page];
            p.nonzero.iter().enumerate().flat_map(move |(k, &bits)| {
                std::iter::successors((bits != 0).then_some(bits), |&b| {
                    let rest = b & (b - 1);
                    (rest != 0).then_some(rest)
                })
                .map(move |b| {
                    let i = k * 64 + b.trailing_zeros() as usize;
                    (page * PAGE_BYTES + i as u64 * WORD_BYTES, p.words[i])
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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

    #[test]
    fn nonzero_words_ascend_across_pages() {
        let mut mem = Backing::new();
        for a in [1 << 40, 8, 4096 + 504, 4096, 64 * 8, 63 * 8, u64::MAX - 7] {
            mem.store(a, a as i64 | 1);
        }
        mem.store(64 * 8, 0);
        let addrs: Vec<u64> = mem.nonzero_words().map(|(a, _)| a).collect();
        assert_eq!(addrs, [8, 63 * 8, 4096, 4096 + 504, 1 << 40, u64::MAX - 7]);
        assert_eq!(mem.resident_words(), 6);
    }

    /// Addresses in the first pages, any byte offset; in far-apart pages;
    /// and at the top of the address space.
    fn address() -> impl Strategy<Value = Addr> {
        prop_oneof![
            0u64..3 * PAGE_BYTES,
            (0u64..4, 0u64..PAGE_BYTES).prop_map(|(k, off)| (k << 40) + off),
            (0u64..PAGE_BYTES).prop_map(|off| u64::MAX - off),
        ]
    }

    fn value() -> impl Strategy<Value = i64> {
        prop_oneof![Just(0i64), Just(0i64), Just(1i64), -3i64..4, any::<i64>()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The paged store against a plain map of non-zero words.
        #[test]
        fn paged_store_matches_a_word_map(
            ops in prop::collection::vec((0u8..8, address(), value()), 1..200),
        ) {
            let mut mem = Backing::new();
            let mut words: FastMap<Addr, i64> = FastMap::default();
            let mut writes = 0u64;
            for &(kind, addr, v) in &ops {
                let key = addr & !(WORD_BYTES - 1);
                let old = words.get(&key).copied().unwrap_or(0);
                match kind {
                    0..=3 => {
                        mem.store(addr, v);
                        writes += 1;
                        if v == 0 {
                            words.remove(&key);
                        } else {
                            words.insert(key, v);
                        }
                    }
                    4 | 5 => {
                        // Store `v` only over an even word.
                        let got = mem.update(addr, |w| (w % 2 == 0).then_some(v));
                        prop_assert_eq!(got, old);
                        if old % 2 == 0 {
                            writes += 1;
                            if v == 0 {
                                words.remove(&key);
                            } else {
                                words.insert(key, v);
                            }
                        }
                    }
                    _ => prop_assert_eq!(mem.load(addr), old),
                }
                prop_assert_eq!(mem.resident_words(), words.len());
                prop_assert_eq!(mem.write_version(), writes);
            }
            let mut want: Vec<(Addr, i64)> = words.iter().map(|(&a, &v)| (a, v)).collect();
            want.sort_unstable();
            let got: Vec<(Addr, i64)> = mem.nonzero_words().collect();
            prop_assert_eq!(&got, &want, "non-zero words, ascending");

        }
    }
}
