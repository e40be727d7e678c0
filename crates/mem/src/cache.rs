//! Set-associative caches with LRU replacement.
//!
//! Used for the per-CU write-through L1s and for the shared L2. The L2 tags
//! carry the two bits AWG adds (§V.B): a **monitored** bit marking lines the
//! SyncMon watches, and a **pinned** bit so monitored lines "are not evicted".

use awg_sim::{CodecError, Dec, Enc};

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

    /// Paper Table 1: 16 KB scalar cache, 8-way, 4 cycles (1 per 4 CUs).
    pub fn scalar_isca2020() -> Self {
        CacheConfig {
            sets: 16 * 1024 / (8 * 64),
            ways: 8,
            line_bytes: 64,
            latency: 4,
        }
    }

    /// Paper Table 1: 32 KB instruction cache, 8-way, 4 cycles (1 per 4 CUs).
    pub fn icache_isca2020() -> Self {
        CacheConfig {
            sets: 32 * 1024 / (8 * 64),
            ways: 8,
            line_bytes: 64,
            latency: 4,
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

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    monitored: bool,
    pinned: bool,
    last_use: u64,
}

/// A set-associative cache with LRU replacement and AWG's monitored/pinned
/// tag bits.
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
    lines: Vec<Line>,
    tick: u64,
    hits: u64,
    misses: u64,
    bypasses: u64,
    /// Valid lines with the monitored bit set, kept at every flip.
    monitored: usize,
    /// The most `monitored` has been since construction or the last
    /// [`Cache::load`].
    monitored_peak: usize,
    /// Moves whenever some line's monitored bit may have flipped.
    monitored_version: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways or a
    /// non-power-of-two line size).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets > 0 && config.ways > 0, "degenerate geometry");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            config,
            lines: vec![Line::default(); config.sets * config.ways],
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

    #[inline]
    fn index_tag(&self, addr: Addr) -> (usize, u64) {
        let line = addr / self.config.line_bytes;
        let set = (line as usize) % self.config.sets;
        let tag = line / self.config.sets as u64;
        (set, tag)
    }

    fn set_slice(&mut self, set: usize) -> &mut [Line] {
        let w = self.config.ways;
        &mut self.lines[set * w..(set + 1) * w]
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
        let tick = self.tick;
        let (set, tag) = self.index_tag(addr);
        let line_bytes = self.config.line_bytes;
        let sets = self.config.sets as u64;
        let ways = self.config.ways;
        let slice = self.set_slice(set);

        for way in slice.iter_mut() {
            if way.valid && way.tag == tag {
                way.last_use = tick;
                let monitored = way.monitored;
                self.hits += 1;
                return (AccessOutcome::Hit, monitored);
            }
        }

        // Miss: pick invalid way, else LRU among unpinned.
        let mut victim: Option<usize> = None;
        for (i, way) in slice.iter().enumerate() {
            if !way.valid {
                victim = Some(i);
                break;
            }
        }
        if victim.is_none() {
            let mut best: Option<(usize, u64)> = None;
            for (i, way) in slice.iter().enumerate() {
                if way.pinned {
                    continue;
                }
                if best.is_none_or(|(_, lu)| way.last_use < lu) {
                    best = Some((i, way.last_use));
                }
            }
            victim = best.map(|(i, _)| i);
        }
        let Some(v) = victim else {
            debug_assert!(ways > 0);
            self.bypasses += 1;
            return (AccessOutcome::NoAllocate, false);
        };
        let evicted = if slice[v].valid {
            let old_tag = slice[v].tag;
            Some((old_tag * sets + set as u64) * line_bytes)
        } else {
            None
        };
        slice[v] = Line {
            tag,
            valid: true,
            monitored: false,
            pinned: false,
            last_use: tick,
        };
        self.misses += 1;
        (AccessOutcome::Miss { evicted }, false)
    }

    /// Whether the line containing `addr` is resident.
    pub fn contains(&self, addr: Addr) -> bool {
        let (set, tag) = self.index_tag(addr);
        let w = self.config.ways;
        self.lines[set * w..(set + 1) * w]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    fn line_mut(&mut self, addr: Addr) -> Option<&mut Line> {
        let (set, tag) = self.index_tag(addr);
        self.set_slice(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
    }

    /// Sets the monitored bit (and pins the line) for the line containing
    /// `addr`. Returns `false` when the line is not resident — the caller
    /// must fill it first.
    pub fn set_monitored(&mut self, addr: Addr) -> bool {
        let Some(l) = self.line_mut(addr) else {
            return false;
        };
        let flipped = !l.monitored;
        l.monitored = true;
        l.pinned = true;
        if flipped {
            self.monitored += 1;
            self.monitored_peak = self.monitored_peak.max(self.monitored);
            self.monitored_version += 1;
        }
        true
    }

    /// Clears the monitored bit and unpins the line. Idempotent.
    pub fn clear_monitored(&mut self, addr: Addr) {
        let Some(l) = self.line_mut(addr) else {
            return;
        };
        let flipped = l.monitored;
        l.monitored = false;
        l.pinned = false;
        if flipped {
            self.monitored -= 1;
            self.monitored_version += 1;
        }
    }

    /// Whether the line containing `addr` is resident with its monitored bit
    /// set.
    pub fn is_monitored(&self, addr: Addr) -> bool {
        let (set, tag) = self.index_tag(addr);
        let w = self.config.ways;
        self.lines[set * w..(set + 1) * w]
            .iter()
            .any(|l| l.valid && l.tag == tag && l.monitored)
    }

    /// Number of monitored (pinned) lines currently resident, in O(1).
    pub fn monitored_lines(&self) -> usize {
        self.monitored
    }

    /// The most lines that were monitored at once since construction or
    /// the last [`Cache::load`].
    pub fn monitored_peak(&self) -> usize {
        self.monitored_peak
    }

    /// A counter that moves whenever a monitored bit may have flipped: a
    /// set or clear that changes a bit, a [`Cache::flush`], a
    /// [`Cache::load`]. An idempotent set or clear leaves it alone, and no
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

    /// Invalidates every line (keeps statistics and the monitored peak).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
        self.monitored = 0;
        self.monitored_version += 1;
    }

    /// Serializes the mutable tag-array state (lines, LRU tick, counters).
    /// Geometry is identity, not state: [`Cache::load`] overlays onto a cache
    /// built from the same [`CacheConfig`].
    pub fn save(&self, enc: &mut Enc) {
        enc.u64(self.tick);
        enc.u64(self.hits);
        enc.u64(self.misses);
        enc.u64(self.bypasses);
        enc.usize(self.lines.len());
        for l in &self.lines {
            enc.u64(l.tag);
            enc.bool(l.valid);
            enc.bool(l.monitored);
            enc.bool(l.pinned);
            enc.u64(l.last_use);
        }
    }

    /// Overlays state written by [`Cache::save`] onto this cache. Fails if
    /// the saved geometry (line count) does not match this cache's.
    pub fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        self.tick = dec.u64()?;
        self.hits = dec.u64()?;
        self.misses = dec.u64()?;
        self.bypasses = dec.u64()?;
        let n = dec.count(11)?;
        if n != self.lines.len() {
            return Err(CodecError::Invalid(format!(
                "cache geometry mismatch: snapshot has {n} lines, config has {}",
                self.lines.len()
            )));
        }
        for l in &mut self.lines {
            l.tag = dec.u64()?;
            l.valid = dec.bool()?;
            l.monitored = dec.bool()?;
            l.pinned = dec.bool()?;
            l.last_use = dec.u64()?;
        }
        // The count is derived from the lines; the peak restarts from it.
        self.monitored = self.lines.iter().filter(|l| l.valid && l.monitored).count();
        self.monitored_peak = self.monitored;
        self.monitored_version += 1;
        Ok(())
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
        assert_eq!(CacheConfig::scalar_isca2020().capacity_bytes(), 16 * 1024);
        assert_eq!(CacheConfig::icache_isca2020().capacity_bytes(), 32 * 1024);
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
}
