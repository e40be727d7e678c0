//! Set-associative caches with LRU replacement.
//!
//! Used for the per-CU write-through L1s and for the shared L2. The L2 tags
//! carry the two bits AWG adds (§V.B): a **monitored** bit marking lines the
//! SyncMon watches, and a **pinned** bit so monitored lines "are not evicted".

use crate::addr::Addr;

/// Geometry and latency of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Paper Table 1: 32 KB, 16-way set assoc., 30 cycles, 64 B lines
    /// (per-CU vector L1).
    pub fn l1_isca2020() -> Self {
        CacheConfig {
            sets: 32 * 1024 / (16 * 64),
            ways: 16,
            line_bytes: 64,
            latency: 30,
        }
    }

    /// Paper Table 1: 512 KB shared, 16-way set assoc., 50 cycles.
    pub fn l2_isca2020() -> Self {
        CacheConfig {
            sets: 512 * 1024 / (16 * 64),
            ways: 16,
            line_bytes: 64,
            latency: 50,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line was present.
    Hit,
    /// Line was filled; `evicted` reports a replaced line's base address.
    Miss {
        /// Base address of the victim line, if a valid line was evicted.
        evicted: Option<Addr>,
    },
    /// Line could not be allocated because every way in the set is pinned.
    /// The access must bypass the cache.
    NoAllocate,
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// One way of a [`Cache`]'s tag array, as [`Cache::ways`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Way {
    /// The resident line's tag (0 for an invalid way).
    pub tag: u64,
    /// Whether the way holds a line.
    pub valid: bool,
    /// The SyncMon watches the line.
    pub monitored: bool,
    /// The line may not be chosen as a victim.
    pub pinned: bool,
    /// The access tick of the way's last use, which sets the LRU order.
    pub last_use: u64,
}

/// Tag-array flag bit: the SyncMon watches this line.
const MONITORED: u8 = 1;
/// Tag-array flag bit: the line may not be chosen as a victim.
const PINNED: u8 = 2;

/// A set-associative cache with LRU replacement and AWG's monitored/pinned
/// tag bits.
///
/// The tag array is three parallel per-way arrays: the stored tag
/// (`tag + 1`, with 0 marking an invalid way), the LRU stamp, and one byte
/// of monitored/pinned bits. A hit scans only the tags of one set. Set
/// and tag are shifts and masks of the address, so the set count must be
/// a power of two, like the line size.
///
/// # Example
///
/// ```
/// use awg_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { sets: 2, ways: 2, line_bytes: 64, latency: 1 });
/// assert!(!c.access(0).is_hit());   // cold miss
/// assert!(c.access(0).is_hit());    // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per way, `tag + 1`; 0 marks an invalid way.
    tags: Vec<u64>,
    /// Per way, the tick of the last access (LRU stamp).
    stamps: Vec<u64>,
    /// Per way, the [`MONITORED`] and [`PINNED`] bits.
    flags: Vec<u8>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
    bypasses: u64,
    /// Valid lines with the monitored bit set, kept at every flip.
    monitored: usize,
    /// The most `monitored` has been since construction.
    monitored_peak: usize,
    /// Moves whenever some line's monitored bit may have flipped.
    monitored_version: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways), if the set
    /// count or line size is not a power of two, or for 1-byte lines in a
    /// single set (a tag could then reach `u64::MAX` and not fit the
    /// stored `tag + 1`).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets > 0 && config.ways > 0, "degenerate geometry");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            config.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(
            config.line_bytes > 1 || config.sets > 1,
            "1-byte lines need more than one set"
        );
        let n = config.sets * config.ways;
        Cache {
            config,
            tags: vec![0; n],
            stamps: vec![0; n],
            flags: vec![0; n],
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: config.sets.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
            bypasses: 0,
            monitored: 0,
            monitored_peak: 0,
            monitored_version: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// `(set, stored tag)` of `addr`'s line.
    #[inline]
    fn locate(&self, addr: Addr) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & ((1 << self.set_shift) - 1)) as usize;
        (set, (line >> self.set_shift) + 1)
    }

    /// The way holding stored tag `key` in `set`, as an index into the
    /// per-way arrays.
    #[inline]
    fn find(&self, set: usize, key: u64) -> Option<usize> {
        let base = set * self.config.ways;
        self.tags[base..base + self.config.ways]
            .iter()
            .position(|&t| t == key)
            .map(|w| base + w)
    }

    /// The way holding `addr`'s line.
    #[inline]
    fn way_of(&self, addr: Addr) -> Option<usize> {
        let (set, key) = self.locate(addr);
        self.find(set, key)
    }

    /// The miss path of a ticked access: fills `key` into `set` in the
    /// first invalid way, else the least recently used unpinned way.
    /// Returns the outcome and the filled way.
    fn fill(&mut self, set: usize, key: u64) -> (AccessOutcome, Option<usize>) {
        let base = set * self.config.ways;
        let ways = base..base + self.config.ways;
        let victim = match self.tags[ways.clone()].iter().position(|&t| t == 0) {
            Some(w) => Some(base + w),
            None => {
                let mut best: Option<(usize, u64)> = None;
                for w in ways {
                    if self.flags[w] & PINNED != 0 {
                        continue;
                    }
                    if best.is_none_or(|(_, s)| self.stamps[w] < s) {
                        best = Some((w, self.stamps[w]));
                    }
                }
                best.map(|(w, _)| w)
            }
        };
        let Some(v) = victim else {
            self.bypasses += 1;
            return (AccessOutcome::NoAllocate, None);
        };
        let old = self.tags[v];
        let evicted =
            (old != 0).then(|| (((old - 1) << self.set_shift) | set as u64) << self.line_shift);
        self.tags[v] = key;
        self.stamps[v] = self.tick;
        self.flags[v] = 0;
        self.misses += 1;
        (AccessOutcome::Miss { evicted }, Some(v))
    }

    /// Accesses `addr`, allocating on miss (for both reads and writes: the
    /// GPU L1s are write-through/write-allocate in the baseline model, and
    /// the L2 allocates atomics so their lines can be monitored).
    pub fn access(&mut self, addr: Addr) -> AccessOutcome {
        self.access_monitored(addr).0
    }

    /// [`Cache::access`], also reporting what [`Cache::is_monitored`]
    /// would answer right after it, from the same tag scan: a hit reports
    /// the line's monitored bit, and a filled or bypassed line is never
    /// monitored.
    #[inline]
    pub(crate) fn access_monitored(&mut self, addr: Addr) -> (AccessOutcome, bool) {
        self.tick += 1;
        let (set, key) = self.locate(addr);
        if let Some(w) = self.find(set, key) {
            self.stamps[w] = self.tick;
            self.hits += 1;
            return (AccessOutcome::Hit, self.flags[w] & MONITORED != 0);
        }
        (self.fill(set, key).0, false)
    }

    /// Whether the line containing `addr` is resident.
    pub fn contains(&self, addr: Addr) -> bool {
        self.way_of(addr).is_some()
    }

    /// Sets way `w`'s monitored and pinned bits, counting a flip.
    fn monitor_way(&mut self, w: usize) {
        let flipped = self.flags[w] & MONITORED == 0;
        self.flags[w] = MONITORED | PINNED;
        if flipped {
            self.monitored += 1;
            self.monitored_peak = self.monitored_peak.max(self.monitored);
            self.monitored_version += 1;
        }
    }

    /// Sets the monitored bit (and pins the line) for the line containing
    /// `addr`. Returns `false` when the line is not resident — the caller
    /// must fill it first.
    pub fn set_monitored(&mut self, addr: Addr) -> bool {
        let Some(w) = self.way_of(addr) else {
            return false;
        };
        self.monitor_way(w);
        true
    }

    /// [`Cache::set_monitored`], filling the line first when it is not
    /// resident, in one tag scan. The fill is a ticked [`Cache::access`];
    /// a resident line is neither ticked nor counted. Returns `false` when
    /// every way of the set is pinned.
    pub(crate) fn fill_monitored(&mut self, addr: Addr) -> bool {
        let (set, key) = self.locate(addr);
        let way = match self.find(set, key) {
            Some(w) => Some(w),
            None => {
                self.tick += 1;
                self.fill(set, key).1
            }
        };
        let Some(w) = way else {
            return false;
        };
        self.monitor_way(w);
        true
    }

    /// Clears the monitored bit and unpins the line. Idempotent.
    pub fn clear_monitored(&mut self, addr: Addr) {
        let Some(w) = self.way_of(addr) else {
            return;
        };
        let flipped = self.flags[w] & MONITORED != 0;
        self.flags[w] = 0;
        if flipped {
            self.monitored -= 1;
            self.monitored_version += 1;
        }
    }

    /// Whether the line containing `addr` is resident with its monitored bit
    /// set.
    pub fn is_monitored(&self, addr: Addr) -> bool {
        self.way_of(addr)
            .is_some_and(|w| self.flags[w] & MONITORED != 0)
    }

    /// Number of monitored (pinned) lines currently resident, in O(1).
    pub fn monitored_lines(&self) -> usize {
        self.monitored
    }

    /// The most lines that were monitored at once since construction.
    pub fn monitored_peak(&self) -> usize {
        self.monitored_peak
    }

    /// A counter that moves whenever a monitored bit may have flipped: a
    /// set or clear that changes a bit, or a [`Cache::flush`]. An idempotent set or clear leaves it alone, and no
    /// miss evicts a monitored line (it is pinned), so while the counter
    /// holds still [`Cache::is_monitored`] answers as before for every
    /// address.
    pub fn monitored_version(&self) -> u64 {
        self.monitored_version
    }

    /// `(hits, misses, bypasses)` since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.bypasses)
    }

    /// The whole tag array, way by way in set order: every bit of
    /// replacement state, for comparing a cache with a reference model.
    pub fn ways(&self) -> impl Iterator<Item = Way> + '_ {
        (0..self.tags.len()).map(|w| Way {
            tag: self.tags[w].saturating_sub(1),
            valid: self.tags[w] != 0,
            monitored: self.flags[w] & MONITORED != 0,
            pinned: self.flags[w] & PINNED != 0,
            last_use: self.stamps[w],
        })
    }

    /// Invalidates every line (keeps statistics and the monitored peak).
    pub fn flush(&mut self) {
        self.tags.fill(0);
        self.stamps.fill(0);
        self.flags.fill(0);
        self.monitored = 0;
        self.monitored_version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(matches!(c.access(0), AccessOutcome::Miss { evicted: None }));
        assert!(c.access(0).is_hit());
        assert!(c.access(63).is_hit()); // same line
        assert!(!c.access(64).is_hit()); // next line, different set
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 128 (sets=2 => line/64 % 2).
        c.access(0);
        c.access(128);
        c.access(0); // 0 is now MRU
        match c.access(256) {
            AccessOutcome::Miss { evicted: Some(e) } => assert_eq!(e, 128),
            other => panic!("expected eviction of 128, got {other:?}"),
        }
        assert!(c.contains(0));
        assert!(!c.contains(128));
    }

    #[test]
    fn pinned_lines_survive_pressure() {
        let mut c = tiny();
        c.access(0);
        assert!(c.set_monitored(0));
        c.access(128);
        c.access(256); // must evict 128, not pinned 0
        assert!(c.contains(0));
        assert!(c.is_monitored(0));
        assert!(!c.contains(128));
    }

    #[test]
    fn all_pinned_set_reports_no_allocate() {
        let mut c = tiny();
        c.access(0);
        c.access(128);
        c.set_monitored(0);
        c.set_monitored(128);
        assert_eq!(c.access(256), AccessOutcome::NoAllocate);
        let (_, _, bypasses) = c.stats();
        assert_eq!(bypasses, 1);
    }

    #[test]
    fn monitored_requires_residency() {
        let mut c = tiny();
        assert!(!c.set_monitored(0));
        c.access(0);
        assert!(c.set_monitored(0));
        assert_eq!(c.monitored_lines(), 1);
        c.clear_monitored(0);
        assert!(!c.is_monitored(0));
        assert_eq!(c.monitored_lines(), 0);
    }

    #[test]
    fn clear_monitored_unpins() {
        let mut c = tiny();
        c.access(0);
        c.set_monitored(0);
        c.clear_monitored(0);
        c.access(128);
        c.access(256);
        // 0 must now be evictable.
        assert!(!c.contains(0) || !c.contains(128));
        let resident = [0u64, 128, 256].iter().filter(|&&a| c.contains(a)).count();
        assert_eq!(resident, 2);
    }

    #[test]
    fn table1_geometries() {
        assert_eq!(CacheConfig::l1_isca2020().capacity_bytes(), 32 * 1024);
        assert_eq!(CacheConfig::l2_isca2020().capacity_bytes(), 512 * 1024);
        assert_eq!(CacheConfig::l2_isca2020().latency, 50);
        assert_eq!(CacheConfig::l1_isca2020().latency, 30);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(!c.contains(0));
        assert!(!c.access(0).is_hit());
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_ways_rejected() {
        Cache::new(CacheConfig {
            sets: 1,
            ways: 0,
            line_bytes: 64,
            latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_sets_rejected() {
        Cache::new(CacheConfig {
            sets: 3,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn non_power_of_two_line_rejected() {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 48,
            latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "1-byte lines need more than one set")]
    fn one_byte_lines_in_one_set_rejected() {
        Cache::new(CacheConfig {
            sets: 1,
            ways: 2,
            line_bytes: 1,
            latency: 1,
        });
    }

    #[test]
    fn top_of_the_address_space_is_cacheable() {
        // The largest tag of the narrowest legal geometries still fits the
        // stored `tag + 1`, and evicting it recovers its line address.
        for (sets, line_bytes) in [(1, 2), (2, 1)] {
            let mut c = Cache::new(CacheConfig {
                sets,
                ways: 1,
                line_bytes,
                latency: 1,
            });
            let top = !(line_bytes - 1);
            assert!(!c.access(top).is_hit());
            assert!(c.access(u64::MAX).is_hit());
            let below = top - (sets as u64 * line_bytes);
            assert_eq!(c.access(below), AccessOutcome::Miss { evicted: Some(top) });
        }
    }
}
