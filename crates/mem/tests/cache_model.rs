//! The compact tag array against an array-of-structs reference model.
//!
//! `RefCache` below keeps one `Way` struct per way and finds set and tag
//! by division. `Cache` and `RefCache` see the same random sequence of
//! accesses, monitor flips, probes and flushes over small power-of-two
//! geometries, and must agree on every answer, every counter and, through
//! [`Cache::ways`], every way of the tag array (tag, valid, monitored,
//! pinned, last use). A second property drives `L2::set_monitored`, which
//! scans the set once, against a `contains`, an `access` and a
//! `set_monitored` on the reference.

use awg_mem::{AccessOutcome, Addr, Cache, CacheConfig, DramConfig, L2Config, Way, L2};
use proptest::prelude::*;

/// The reference model: one struct per way, division indexing.
struct RefCache {
    config: CacheConfig,
    lines: Vec<Way>,
    tick: u64,
    hits: u64,
    misses: u64,
    bypasses: u64,
    monitored: usize,
    monitored_peak: usize,
    monitored_version: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        RefCache {
            config,
            lines: vec![Way::default(); config.sets * config.ways],
            tick: 0,
            hits: 0,
            misses: 0,
            bypasses: 0,
            monitored: 0,
            monitored_peak: 0,
            monitored_version: 0,
        }
    }

    fn index_tag(&self, addr: Addr) -> (usize, u64) {
        let line = addr / self.config.line_bytes;
        let set = (line as usize) % self.config.sets;
        let tag = line / self.config.sets as u64;
        (set, tag)
    }

    fn set_slice(&mut self, set: usize) -> &mut [Way] {
        let w = self.config.ways;
        &mut self.lines[set * w..(set + 1) * w]
    }

    fn access(&mut self, addr: Addr) -> AccessOutcome {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index_tag(addr);
        let line_bytes = self.config.line_bytes;
        let sets = self.config.sets as u64;
        let slice = self.set_slice(set);
        for way in slice.iter_mut() {
            if way.valid && way.tag == tag {
                way.last_use = tick;
                self.hits += 1;
                return AccessOutcome::Hit;
            }
        }
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
            self.bypasses += 1;
            return AccessOutcome::NoAllocate;
        };
        let evicted = if slice[v].valid {
            Some((slice[v].tag * sets + set as u64) * line_bytes)
        } else {
            None
        };
        slice[v] = Way {
            tag,
            valid: true,
            monitored: false,
            pinned: false,
            last_use: tick,
        };
        self.misses += 1;
        AccessOutcome::Miss { evicted }
    }

    fn contains(&self, addr: Addr) -> bool {
        let (set, tag) = self.index_tag(addr);
        let w = self.config.ways;
        self.lines[set * w..(set + 1) * w]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    fn line_mut(&mut self, addr: Addr) -> Option<&mut Way> {
        let (set, tag) = self.index_tag(addr);
        self.set_slice(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
    }

    fn set_monitored(&mut self, addr: Addr) -> bool {
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

    fn clear_monitored(&mut self, addr: Addr) {
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

    fn is_monitored(&self, addr: Addr) -> bool {
        let (set, tag) = self.index_tag(addr);
        let w = self.config.ways;
        self.lines[set * w..(set + 1) * w]
            .iter()
            .any(|l| l.valid && l.tag == tag && l.monitored)
    }

    fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Way::default();
        }
        self.monitored = 0;
        self.monitored_version += 1;
    }

    /// What `L2::set_monitored` must do: fill the line unless resident,
    /// then flag it.
    fn l2_set_monitored(&mut self, addr: Addr) -> bool {
        if !self.contains(addr) && self.access(addr) == AccessOutcome::NoAllocate {
            return false;
        }
        self.set_monitored(addr)
    }
}

/// `(sets, ways, line_bytes)`: 1–16 sets, 1–8 ways, 1–128-byte lines,
/// never the rejected 1-byte-line, 1-set shape.
fn geometry() -> impl Strategy<Value = CacheConfig> {
    (0u32..5, 1usize..9, 0u32..8).prop_map(|(set_bits, ways, line_bits)| {
        let sets = if line_bits == 0 {
            1 << set_bits.max(1)
        } else {
            1 << set_bits
        };
        CacheConfig {
            sets,
            ways,
            line_bytes: 1 << line_bits,
            latency: 1,
        }
    })
}

/// An address over roughly four times the cache's lines, at the bottom of
/// the address space or at its top, at any offset in its line.
fn address(config: &CacheConfig, raw: u64, top: bool) -> Addr {
    let lines = (config.sets * config.ways * 4) as u64;
    let line = raw % lines;
    let offset = (raw >> 32) % config.line_bytes;
    if top {
        ((u64::MAX - line * config.line_bytes) & !(config.line_bytes - 1)) | offset
    } else {
        line * config.line_bytes + offset
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compact_tags_match_the_line_array(
        config in geometry(),
        ops in prop::collection::vec((0u8..30, any::<u64>(), 0u8..8), 1..300),
    ) {
        let mut fast = Cache::new(config);
        let mut slow = RefCache::new(config);
        for (step, &(kind, raw, top)) in ops.iter().enumerate() {
            let addr = address(&config, raw, top == 0);
            match kind {
                0..=15 => prop_assert_eq!(fast.access(addr), slow.access(addr), "access {step}"),
                16..=20 => prop_assert_eq!(
                    fast.set_monitored(addr),
                    slow.set_monitored(addr),
                    "set_monitored {step}"
                ),
                21..=24 => {
                    fast.clear_monitored(addr);
                    slow.clear_monitored(addr);
                }
                25 | 26 => prop_assert_eq!(fast.is_monitored(addr), slow.is_monitored(addr)),
                27 | 28 => prop_assert_eq!(fast.contains(addr), slow.contains(addr)),
                _ => {
                    fast.flush();
                    slow.flush();
                }
            }
            prop_assert_eq!(fast.stats(), (slow.hits, slow.misses, slow.bypasses));
            prop_assert_eq!(fast.monitored_lines(), slow.monitored);
            prop_assert_eq!(fast.monitored_peak(), slow.monitored_peak);
            prop_assert_eq!(fast.monitored_version(), slow.monitored_version);
            prop_assert_eq!(fast.ways().collect::<Vec<_>>(), slow.lines, "tag array {step}");
        }
    }

    #[test]
    fn l2_set_monitored_matches_contains_access_set(
        config in geometry(),
        ops in prop::collection::vec((0u8..4, any::<u64>()), 1..200),
    ) {
        let mut l2 = L2::with_dram(
            L2Config {
                cache: config,
                banks: 1,
                atomic_occupancy: 4,
                access_occupancy: 2,
            },
            DramConfig::isca2020(),
        );
        let mut slow = RefCache::new(config);
        for (step, &(kind, raw)) in ops.iter().enumerate() {
            let addr = address(&config, raw, false) & !7;
            match kind {
                0 | 1 => prop_assert_eq!(
                    l2.set_monitored(addr),
                    slow.l2_set_monitored(addr),
                    "set_monitored {step}"
                ),
                2 => {
                    l2.clear_monitored(addr);
                    slow.clear_monitored(addr);
                }
                _ => {
                    l2.read(step as u64 * 1000, addr);
                    slow.access(addr);
                }
            }
            prop_assert_eq!(l2.is_monitored(addr), slow.is_monitored(addr));
            prop_assert_eq!(l2.cache_stats(), (slow.hits, slow.misses, slow.bypasses));
            prop_assert_eq!(l2.monitored_lines(), slow.monitored);
            prop_assert_eq!(l2.monitored_peak(), slow.monitored_peak);
            prop_assert_eq!(l2.monitored_version(), slow.monitored_version);
        }
        prop_assert_eq!(l2.cache().ways().collect::<Vec<_>>(), slow.lines, "tag array");
    }
}
