//! The Synchronization Monitor (SyncMon) added to the GPU L2 (§V.A, Fig 12).
//!
//! The SyncMon caches *waiting conditions* — `(sync variable address,
//! waiting value)` pairs — in a 4-way, 256-set condition cache, and the WGs
//! waiting on each condition in a 512-entry waiting-WG list addressed by
//! per-condition head/tail pointers. A bank of counting Bloom filters
//! (one per monitored address, hash-indexed) records how many *unique*
//! values have been written to each address, which AWG's resume predictor
//! consumes. When either structure is full, registrations spill to the
//! [`crate::MonitorLog`].

use awg_gpu::{SyncCond, WgId};
use awg_mem::Addr;
use awg_sim::FastMap;

use crate::bloom::CountingBloom;
use crate::hash::{condition_key, UniversalHash};

/// SyncMon geometry (§V.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncMonConfig {
    /// Condition-cache sets.
    pub sets: usize,
    /// Condition-cache associativity.
    pub ways: usize,
    /// Waiting-WG list capacity.
    pub waiter_slots: usize,
    /// Number of counting Bloom filters.
    pub bloom_filters: usize,
}

impl SyncMonConfig {
    /// The paper's configuration: 4-way × 256 sets = 1024 conditions,
    /// 512 waiting-WG slots, 512 Bloom filters.
    pub fn isca2020() -> Self {
        SyncMonConfig {
            sets: 256,
            ways: 4,
            waiter_slots: 512,
            bloom_filters: 512,
        }
    }

    /// Total condition capacity.
    pub fn condition_capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Hardware size of the condition cache + waiting-WG list in bits, as
    /// §V.C accounts it (each condition entry holds two 9-bit list
    /// pointers; the paper's total is 26112 bits = 3.18 KB).
    pub fn condition_storage_bits(&self) -> usize {
        // Per entry: two 9-bit pointers + valid bit + tag (condition key,
        // engineered so the §V.C total matches: 1024 entries contribute
        // together with the 512 × 9-bit list slots).
        let list_bits = self.waiter_slots * 9;
        let per_entry_ptr_bits = 2 * 9 + 3;
        self.condition_capacity() * per_entry_ptr_bits + list_bits
    }

    /// Bloom-filter storage in bits (512 × 24 = 12288 bits = 1.5 KB).
    pub fn bloom_storage_bits(&self) -> usize {
        self.bloom_filters * crate::bloom::BLOOM_BITS
    }
}

/// Outcome of a condition registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterOutcome {
    /// Cached on chip.
    Registered,
    /// The condition cache set is full of other conditions — spill.
    CacheFull,
    /// The waiting-WG list is full — spill.
    WaitersFull,
}

#[derive(Debug, Clone, Copy)]
struct CondEntry {
    cond: SyncCond,
    head: Option<u16>,
    tail: Option<u16>,
    waiters: u16,
    /// Cycle-stamp of first registration (AWG's met-latency predictor).
    registered_at: u64,
}

#[derive(Debug, Clone, Copy)]
struct WaiterNode {
    wg: WgId,
    next: Option<u16>,
}

/// The SyncMon hardware state.
#[derive(Debug)]
pub struct SyncMon {
    config: SyncMonConfig,
    entries: Vec<Option<CondEntry>>,
    pool: Vec<Option<WaiterNode>>,
    free: Vec<u16>,
    addr_index: FastMap<Addr, Vec<usize>>,
    blooms: Vec<CountingBloom>,
    set_hash: UniversalHash,
    bloom_hash: UniversalHash,
    waiters_used: usize,
    /// Live entries in `entries`, kept in step by `register` and
    /// `remove_entry` so the per-registration high-water update is O(1).
    live_conditions: usize,
    // High-water marks for reporting.
    max_conditions: usize,
    max_waiters: usize,
    max_monitored_addrs: usize,
    spills: u64,
}

impl SyncMon {
    /// Creates an empty SyncMon.
    pub fn new(config: SyncMonConfig) -> Self {
        SyncMon {
            entries: vec![None; config.condition_capacity()],
            pool: vec![None; config.waiter_slots],
            free: (0..config.waiter_slots as u16).rev().collect(),
            addr_index: FastMap::default(),
            blooms: vec![CountingBloom::new(); config.bloom_filters],
            set_hash: UniversalHash::nth(11),
            bloom_hash: UniversalHash::nth(13),
            waiters_used: 0,
            live_conditions: 0,
            max_conditions: 0,
            max_waiters: 0,
            max_monitored_addrs: 0,
            spills: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SyncMonConfig {
        &self.config
    }

    fn set_of(&self, cond: &SyncCond) -> usize {
        let key = condition_key(
            cond.addr,
            cond.expected,
            self.config.condition_capacity() as u64,
            64,
        );
        self.set_hash.hash(key, self.config.sets as u64) as usize
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.config.ways..(set + 1) * self.config.ways
    }

    fn find_entry(&self, cond: &SyncCond) -> Option<usize> {
        self.find_in(self.set_of(cond), cond)
    }

    fn find_in(&self, set: usize, cond: &SyncCond) -> Option<usize> {
        self.slot_range(set)
            .find(|&i| self.entries[i].is_some_and(|e| e.cond == *cond))
    }

    /// Registers `wg` as waiting on `cond` at time `now`.
    pub fn register(&mut self, cond: SyncCond, wg: WgId, now: u64) -> RegisterOutcome {
        let set = self.set_of(&cond);
        let slot = match self.find_in(set, &cond) {
            Some(i) => i,
            None => {
                let Some(free_way) = self.slot_range(set).find(|&i| self.entries[i].is_none())
                else {
                    self.spills += 1;
                    return RegisterOutcome::CacheFull;
                };
                if self.free.is_empty() {
                    self.spills += 1;
                    return RegisterOutcome::WaitersFull;
                }
                self.entries[free_way] = Some(CondEntry {
                    cond,
                    head: None,
                    tail: None,
                    waiters: 0,
                    registered_at: now,
                });
                self.live_conditions += 1;
                self.addr_index.entry(cond.addr).or_default().push(free_way);
                free_way
            }
        };
        let Some(node) = self.free.pop() else {
            // Roll back an entry we just created with no waiters.
            if self.entries[slot].is_some_and(|e| e.waiters == 0) {
                self.remove_entry(slot);
            }
            self.spills += 1;
            return RegisterOutcome::WaitersFull;
        };
        self.pool[node as usize] = Some(WaiterNode { wg, next: None });
        self.waiters_used += 1;
        let entry = self.entries[slot].as_mut().expect("entry exists");
        match entry.tail {
            None => {
                entry.head = Some(node);
                entry.tail = Some(node);
            }
            Some(t) => {
                self.pool[t as usize].as_mut().expect("tail valid").next = Some(node);
                entry.tail = Some(node);
            }
        }
        entry.waiters += 1;
        self.max_waiters = self.max_waiters.max(self.waiters_used);
        self.max_conditions = self.max_conditions.max(self.live_conditions);
        self.max_monitored_addrs = self.max_monitored_addrs.max(self.addr_index.len());
        RegisterOutcome::Registered
    }

    fn remove_entry(&mut self, slot: usize) {
        if let Some(e) = self.entries[slot].take() {
            self.live_conditions -= 1;
            if let Some(list) = self.addr_index.get_mut(&e.cond.addr) {
                list.retain(|&s| s != slot);
                if list.is_empty() {
                    self.addr_index.remove(&e.cond.addr);
                }
            }
        }
    }

    /// Number of WGs currently waiting on `cond`.
    pub fn waiter_count(&self, cond: &SyncCond) -> usize {
        self.find_entry(cond)
            .and_then(|i| self.entries[i])
            .map_or(0, |e| e.waiters as usize)
    }

    /// The cycle `cond` was first registered, if cached.
    pub fn registered_at(&self, cond: &SyncCond) -> Option<u64> {
        self.find_entry(cond)
            .and_then(|i| self.entries[i])
            .map(|e| e.registered_at)
    }

    /// Pops up to `limit` waiters of `cond` (FIFO), handing each to
    /// `visit` in pop order, and returns how many it popped. The entry is
    /// freed when its last waiter leaves.
    pub(crate) fn take_waiters_with(
        &mut self,
        cond: &SyncCond,
        limit: usize,
        mut visit: impl FnMut(WgId),
    ) -> usize {
        let Some(slot) = self.find_entry(cond) else {
            return 0;
        };
        let mut taken = 0;
        while taken < limit {
            let entry = self.entries[slot].as_mut().expect("entry exists");
            let Some(h) = entry.head else { break };
            let node = self.pool[h as usize].take().expect("head valid");
            self.free.push(h);
            self.waiters_used -= 1;
            entry.head = node.next;
            if entry.head.is_none() {
                entry.tail = None;
            }
            entry.waiters -= 1;
            taken += 1;
            visit(node.wg);
        }
        if self.entries[slot].is_some_and(|e| e.waiters == 0) {
            self.remove_entry(slot);
        }
        taken
    }

    /// Pops up to `limit` waiters of `cond` (FIFO) and returns them. The
    /// entry is freed when its last waiter leaves.
    pub fn take_waiters(&mut self, cond: &SyncCond, limit: usize) -> Vec<WgId> {
        let mut out = Vec::new();
        self.take_waiters_with(cond, limit, |wg| out.push(wg));
        out
    }

    /// Appends to `out` the conditions cached for `addr` whose expected
    /// value equals `new_value` (the condition-checking monitor lookup,
    /// MonR/MonNR/AWG), in the address's registration order.
    pub(crate) fn conditions_met_into(&self, addr: Addr, new_value: i64, out: &mut Vec<SyncCond>) {
        out.extend(
            self.conditions_of(addr)
                .filter(|cond| cond.expected == new_value),
        );
    }

    /// The conditions cached for `addr` whose expected value equals
    /// `new_value`, in the address's registration order.
    pub fn conditions_met(&self, addr: Addr, new_value: i64) -> Vec<SyncCond> {
        let mut out = Vec::new();
        self.conditions_met_into(addr, new_value, &mut out);
        out
    }

    /// Appends to `out` every condition cached for `addr` (sporadic MonRS
    /// notifications resume every waiter on the address without checking
    /// values), in the address's registration order.
    pub(crate) fn conditions_on_addr_into(&self, addr: Addr, out: &mut Vec<SyncCond>) {
        out.extend(self.conditions_of(addr));
    }

    /// Every condition cached for `addr`, in the address's registration
    /// order.
    pub fn conditions_on_addr(&self, addr: Addr) -> Vec<SyncCond> {
        let mut out = Vec::new();
        self.conditions_on_addr_into(addr, &mut out);
        out
    }

    fn conditions_of(&self, addr: Addr) -> impl Iterator<Item = SyncCond> + '_ {
        self.addr_index
            .get(&addr)
            .into_iter()
            .flatten()
            .filter_map(|&slot| self.entries[slot])
            .map(|e| e.cond)
    }

    /// Whether any condition on `addr` remains cached (monitored-bit
    /// lifetime).
    pub fn addr_has_conditions(&self, addr: Addr) -> bool {
        self.addr_index.contains_key(&addr)
    }

    /// Removes a specific WG from a condition's waiter list (timeout wake).
    /// Returns `true` if it was found.
    pub fn remove_waiter(&mut self, cond: &SyncCond, wg: WgId) -> bool {
        let Some(slot) = self.find_entry(cond) else {
            return false;
        };
        let entry = self.entries[slot].as_ref().expect("entry exists");
        // Unlink from the singly-linked list.
        let mut prev: Option<u16> = None;
        let mut cur = entry.head;
        while let Some(c) = cur {
            let node = self.pool[c as usize].expect("node valid");
            if node.wg == wg {
                match prev {
                    None => self.entries[slot].as_mut().unwrap().head = node.next,
                    Some(p) => self.pool[p as usize].as_mut().unwrap().next = node.next,
                }
                if node.next.is_none() {
                    self.entries[slot].as_mut().unwrap().tail = prev;
                }
                self.pool[c as usize] = None;
                self.free.push(c);
                self.waiters_used -= 1;
                let e = self.entries[slot].as_mut().unwrap();
                e.waiters -= 1;
                if e.waiters == 0 {
                    self.remove_entry(slot);
                }
                return true;
            }
            prev = cur;
            cur = node.next;
        }
        false
    }

    /// Forcibly evicts up to `count` live condition entries in slot order
    /// (deterministic), unlinking their waiters, as if capacity pressure
    /// had victimized them. Returns the evicted conditions with the WGs
    /// that were parked on them — the caller decides how to rescue those.
    pub fn evict_conditions(&mut self, count: usize) -> Vec<(SyncCond, Vec<WgId>)> {
        let mut out = Vec::new();
        for slot in 0..self.entries.len() {
            if out.len() >= count {
                break;
            }
            let Some(entry) = self.entries[slot] else {
                continue;
            };
            let wgs = self.take_waiters(&entry.cond, usize::MAX);
            out.push((entry.cond, wgs));
        }
        out
    }

    /// Live condition entries `(condition, waiter count)` in slot order.
    pub fn snapshot(&self) -> Vec<(SyncCond, usize)> {
        self.entries
            .iter()
            .flatten()
            .map(|e| (e.cond, e.waiters as usize))
            .collect()
    }

    /// Pollutes the Bloom filter of every currently monitored address with
    /// `unique_values` synthetic distinct values (far outside workload
    /// ranges), forcing unique-count false positives. Addresses are visited
    /// in sorted order so the injection is deterministic. Returns the
    /// number of addresses polluted.
    pub fn pollute_blooms(&mut self, unique_values: usize) -> usize {
        let mut addrs: Vec<Addr> = self.addr_index.keys().copied().collect();
        addrs.sort_unstable();
        for &addr in &addrs {
            for k in 0..unique_values {
                self.record_update(addr, i64::MIN + 1 + k as i64);
            }
        }
        addrs.len()
    }

    /// Records an update value into the address's Bloom filter; returns the
    /// unique-update count afterwards.
    pub fn record_update(&mut self, addr: Addr, value: i64) -> u32 {
        let i = self.bloom_index(addr);
        self.blooms[i].insert(value);
        self.blooms[i].unique_count()
    }

    /// Unique updates observed for `addr`.
    pub fn unique_updates(&self, addr: Addr) -> u32 {
        self.blooms[self.bloom_index(addr)].unique_count()
    }

    /// Resets the Bloom filter of `addr`.
    pub fn reset_bloom(&mut self, addr: Addr) {
        let i = self.bloom_index(addr);
        self.blooms[i].reset();
    }

    fn bloom_index(&self, addr: Addr) -> usize {
        self.bloom_hash
            .hash(addr >> 3, self.config.bloom_filters as u64) as usize
    }

    /// `(cached conditions, waiters in the list)` right now.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.live_conditions, self.waiters_used)
    }

    /// High-water marks `(conditions, waiters, monitored addresses)`.
    pub fn high_water(&self) -> (usize, usize, usize) {
        (
            self.max_conditions,
            self.max_waiters,
            self.max_monitored_addrs,
        )
    }

    /// Registrations rejected for capacity (spilled to the Monitor Log).
    pub fn spill_count(&self) -> u64 {
        self.spills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(addr: Addr, expected: i64) -> SyncCond {
        SyncCond { addr, expected }
    }

    #[test]
    fn paper_capacities() {
        let c = SyncMonConfig::isca2020();
        assert_eq!(c.condition_capacity(), 1024);
        assert_eq!(c.bloom_storage_bits(), 12288); // 1.5 KB (§V.C)
                                                   // §V.C: condition cache + WG list total 26112 bits (3.18 KB).
        assert_eq!(c.condition_storage_bits(), 26112);
    }

    #[test]
    fn register_and_take_fifo() {
        let mut m = SyncMon::new(SyncMonConfig::isca2020());
        let c = cond(64, 1);
        for wg in 0..3 {
            assert_eq!(m.register(c, wg, 100), RegisterOutcome::Registered);
        }
        assert_eq!(m.waiter_count(&c), 3);
        assert_eq!(m.registered_at(&c), Some(100));
        assert_eq!(m.take_waiters(&c, 2), vec![0, 1]);
        assert_eq!(m.waiter_count(&c), 1);
        assert_eq!(m.take_waiters(&c, 10), vec![2]);
        assert_eq!(m.waiter_count(&c), 0);
        assert!(!m.addr_has_conditions(64));
    }

    #[test]
    fn conditions_met_matches_value() {
        let mut m = SyncMon::new(SyncMonConfig::isca2020());
        m.register(cond(64, 1), 0, 0);
        m.register(cond(64, 2), 1, 0);
        m.register(cond(128, 1), 2, 0);
        let met = m.conditions_met(64, 1);
        assert_eq!(met, vec![cond(64, 1)]);
        assert_eq!(m.conditions_on_addr(64).len(), 2);
        assert!(m.conditions_met(64, 9).is_empty());
    }

    #[test]
    fn buffer_and_visitor_forms_match_the_vec_forms() {
        let mut m = SyncMon::new(SyncMonConfig::isca2020());
        m.register(cond(64, 1), 0, 0);
        m.register(cond(64, 2), 1, 0);
        m.register(cond(64, 1), 2, 0);
        let mut out = vec![cond(8, 8)];
        m.conditions_met_into(64, 1, &mut out);
        assert_eq!(
            out,
            vec![cond(8, 8), cond(64, 1)],
            "appends, keeps what was there"
        );
        out.clear();
        m.conditions_on_addr_into(64, &mut out);
        assert_eq!(out, m.conditions_on_addr(64));
        let mut seen = Vec::new();
        assert_eq!(m.take_waiters_with(&cond(64, 1), 1, |wg| seen.push(wg)), 1);
        assert_eq!(seen, vec![0]);
        assert_eq!(m.take_waiters_with(&cond(64, 1), 9, |wg| seen.push(wg)), 1);
        assert_eq!(seen, vec![0, 2]);
        assert_eq!(m.take_waiters_with(&cond(64, 1), 9, |_| panic!("freed")), 0);
        assert_eq!(m.conditions_on_addr(64), vec![cond(64, 2)]);
    }

    #[test]
    fn waiter_pool_exhaustion_spills() {
        let mut m = SyncMon::new(SyncMonConfig {
            sets: 4,
            ways: 4,
            waiter_slots: 2,
            bloom_filters: 8,
        });
        assert_eq!(m.register(cond(64, 1), 0, 0), RegisterOutcome::Registered);
        assert_eq!(m.register(cond(64, 1), 1, 0), RegisterOutcome::Registered);
        assert_eq!(m.register(cond(64, 1), 2, 0), RegisterOutcome::WaitersFull);
        assert_eq!(m.spill_count(), 1);
        // Freeing a waiter frees a slot.
        m.take_waiters(&cond(64, 1), 1);
        assert_eq!(m.register(cond(64, 1), 2, 0), RegisterOutcome::Registered);
    }

    #[test]
    fn set_conflict_spills() {
        let mut m = SyncMon::new(SyncMonConfig {
            sets: 1,
            ways: 2,
            waiter_slots: 16,
            bloom_filters: 8,
        });
        assert_eq!(m.register(cond(64, 1), 0, 0), RegisterOutcome::Registered);
        assert_eq!(m.register(cond(128, 1), 1, 0), RegisterOutcome::Registered);
        assert_eq!(m.register(cond(192, 1), 2, 0), RegisterOutcome::CacheFull);
    }

    #[test]
    fn remove_waiter_unlinks_middle() {
        let mut m = SyncMon::new(SyncMonConfig::isca2020());
        let c = cond(64, 5);
        for wg in 0..4 {
            m.register(c, wg, 0);
        }
        assert!(m.remove_waiter(&c, 2));
        assert!(!m.remove_waiter(&c, 2));
        assert_eq!(m.take_waiters(&c, 10), vec![0, 1, 3]);
    }

    #[test]
    fn remove_last_waiter_frees_entry() {
        let mut m = SyncMon::new(SyncMonConfig::isca2020());
        let c = cond(64, 5);
        m.register(c, 9, 0);
        assert!(m.remove_waiter(&c, 9));
        assert!(!m.addr_has_conditions(64));
        let (conds, waiters) = m.occupancy();
        assert_eq!((conds, waiters), (0, 0));
    }

    #[test]
    fn bloom_tracks_per_address() {
        let mut m = SyncMon::new(SyncMonConfig::isca2020());
        m.record_update(64, 1);
        m.record_update(64, 1);
        m.record_update(64, 2);
        assert_eq!(m.unique_updates(64), 2);
        m.reset_bloom(64);
        assert_eq!(m.unique_updates(64), 0);
    }

    #[test]
    fn evict_conditions_cuts_waiters_loose() {
        let mut m = SyncMon::new(SyncMonConfig::isca2020());
        m.register(cond(64, 1), 0, 0);
        m.register(cond(64, 1), 1, 0);
        m.register(cond(128, 2), 2, 0);
        let evicted = m.evict_conditions(1);
        assert_eq!(evicted.len(), 1);
        let (c, wgs) = &evicted[0];
        assert_eq!(wgs.len(), if c.addr == 64 { 2 } else { 1 });
        // The evicted condition is gone; the other survives.
        assert_eq!(m.occupancy().0, 1);
        let evicted = m.evict_conditions(5);
        assert_eq!(evicted.len(), 1, "only one live entry remained");
        assert_eq!(m.occupancy(), (0, 0));
    }

    #[test]
    fn snapshot_lists_live_entries() {
        let mut m = SyncMon::new(SyncMonConfig::isca2020());
        m.register(cond(64, 1), 0, 0);
        m.register(cond(64, 1), 1, 0);
        m.register(cond(128, 2), 2, 0);
        let mut snap = m.snapshot();
        snap.sort_by_key(|(c, _)| c.addr);
        assert_eq!(snap, vec![(cond(64, 1), 2), (cond(128, 2), 1)]);
    }

    #[test]
    fn bloom_storm_inflates_unique_counts() {
        let mut m = SyncMon::new(SyncMonConfig::isca2020());
        m.register(cond(64, 1), 0, 0);
        m.record_update(64, 1);
        assert_eq!(m.unique_updates(64), 1);
        assert_eq!(m.pollute_blooms(4), 1);
        assert!(m.unique_updates(64) > 2, "storm must defeat the predictor");
        // Idempotent: the same synthetic values add nothing new.
        let before = m.unique_updates(64);
        m.pollute_blooms(4);
        assert_eq!(m.unique_updates(64), before);
    }

    #[test]
    fn high_water_marks_monotonic() {
        let mut m = SyncMon::new(SyncMonConfig::isca2020());
        m.register(cond(64, 1), 0, 0);
        m.register(cond(128, 1), 1, 0);
        m.take_waiters(&cond(64, 1), 1);
        m.take_waiters(&cond(128, 1), 1);
        let (c, w, a) = m.high_water();
        assert_eq!((c, w, a), (2, 2, 2));
        assert_eq!(m.occupancy(), (0, 0));
    }
}
