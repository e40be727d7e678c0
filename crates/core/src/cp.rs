//! The Command Processor firmware model (§V.A–B).
//!
//! The CP is "not on the critical path": it handles the slow operations —
//! draining the Monitor Log into "a more look-up efficient data structure",
//! periodically checking the waiting conditions of spilled sync variables
//! with timed global-memory reads, and tracking context-switched WGs. Its
//! in-memory data structures are the quantities Fig 13 sizes.

use std::collections::HashMap;

use awg_gpu::{SyncCond, WgId};
use awg_mem::{Addr, L2};
use awg_sim::Cycle;

use crate::monitorlog::LogEntry;

/// The order the CP visits tracked addresses during its periodic condition
/// checks. The paper notes that "the Monitor Log may contain younger
/// waiting conditions than the SyncMon Cache. This can lead to fairness
/// issues that can be addressed with different replacement policies. We
/// leave this study for future work" (§V.A) — this knob is that study's
/// handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckOrder {
    /// Deterministic address order (cheapest firmware loop).
    #[default]
    AddressSorted,
    /// Oldest spilled registration first (age fairness).
    OldestFirst,
}

/// Bytes per CP waiting-condition record (address + value).
pub const COND_ENTRY_BYTES: u64 = 16;
/// Bytes per monitored-address record.
pub const ADDR_ENTRY_BYTES: u64 = 8;
/// Bytes per waiting-WG record (id + state).
pub const WG_ENTRY_BYTES: u64 = 8;
/// Bytes per monitor-table row (condition + waiter-list head).
pub const TABLE_ENTRY_BYTES: u64 = 24;

/// Sizes of the CP's scheduling data structures (Fig 13), in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpFootprint {
    /// Waiting-condition records.
    pub waiting_conditions: u64,
    /// Monitored-address records.
    pub monitored_addresses: u64,
    /// Waiting-WG records.
    pub waiting_wgs: u64,
    /// The look-up-efficient monitor table.
    pub monitor_table: u64,
}

impl CpFootprint {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.waiting_conditions + self.monitored_addresses + self.waiting_wgs + self.monitor_table
    }

    /// Total in KB.
    pub fn total_kb(&self) -> f64 {
        self.total() as f64 / 1024.0
    }
}

/// The CP's spilled-condition tracker.
#[derive(Debug, Default)]
pub struct Cp {
    /// Spilled waiters grouped by address: `addr -> [(expected, wg, seq)]`.
    waiting: HashMap<Addr, Vec<(i64, WgId, u64)>>,
    waiting_count: usize,
    next_seq: u64,
    order: CheckOrder,
    max_conditions: usize,
    max_addresses: usize,
    max_wgs: usize,
    drained: u64,
    checks: u64,
}

impl Cp {
    /// Creates an idle CP with the default (address-sorted) check order.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a CP with an explicit condition-check order.
    pub fn with_order(order: CheckOrder) -> Self {
        Cp {
            order,
            ..Self::default()
        }
    }

    /// Changes the condition-check order (takes effect on the next tick).
    pub fn set_order(&mut self, order: CheckOrder) {
        self.order = order;
    }

    /// Absorbs drained Monitor Log entries into the monitor table.
    pub fn absorb(&mut self, entries: Vec<LogEntry>) {
        for e in entries {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.waiting
                .entry(e.cond.addr)
                .or_default()
                .push((e.cond.expected, e.wg, seq));
            self.waiting_count += 1;
            self.drained += 1;
        }
        self.update_high_water();
    }

    fn update_high_water(&mut self) {
        self.max_addresses = self.max_addresses.max(self.waiting.len());
        self.max_wgs = self.max_wgs.max(self.waiting_count);
        let conds: usize = self
            .waiting
            .values()
            .map(|v| {
                let mut exp: Vec<i64> = v.iter().map(|(e, _, _)| *e).collect();
                exp.sort_unstable();
                exp.dedup();
                exp.len()
            })
            .sum();
        self.max_conditions = self.max_conditions.max(conds);
    }

    /// Number of spilled waiters currently tracked.
    pub fn tracked_waiters(&self) -> usize {
        self.waiting_count
    }

    /// Periodically checks spilled conditions: one timed read per tracked
    /// address, returning the WGs whose condition now holds (they are
    /// removed from the table). The visit order is deterministic and
    /// governed by [`CheckOrder`]; with `OldestFirst` the met waiters are
    /// additionally released in spill order, so the oldest spilled WG is
    /// never overtaken by a younger one on the same tick.
    pub fn check_conditions(&mut self, l2: &mut L2, now: Cycle) -> Vec<(SyncCond, WgId)> {
        let mut addrs: Vec<(Addr, u64)> = self
            .waiting
            .iter()
            .map(|(&a, v)| {
                let oldest = v.iter().map(|&(_, _, s)| s).min().unwrap_or(u64::MAX);
                (a, oldest)
            })
            .collect();
        match self.order {
            CheckOrder::AddressSorted => addrs.sort_unstable_by_key(|&(a, _)| a),
            CheckOrder::OldestFirst => addrs.sort_unstable_by_key(|&(a, s)| (s, a)),
        }
        let mut met = Vec::new();
        for (addr, _) in addrs {
            self.checks += 1;
            let (value, _) = l2.read(now, addr);
            let entry = self.waiting.get_mut(&addr).expect("address tracked");
            let mut i = 0;
            while i < entry.len() {
                if entry[i].0 == value {
                    let (expected, wg, seq) = entry.swap_remove(i);
                    self.waiting_count -= 1;
                    met.push((SyncCond { addr, expected }, wg, seq));
                } else {
                    i += 1;
                }
            }
            if entry.is_empty() {
                self.waiting.remove(&addr);
            }
        }
        if self.order == CheckOrder::OldestFirst {
            met.sort_unstable_by_key(|&(_, _, seq)| seq);
        }
        met.into_iter().map(|(c, wg, _)| (c, wg)).collect()
    }

    /// Removes every registration of `wg` (it finished or was woken by
    /// another path). Returns how many were removed.
    pub fn remove_wg(&mut self, wg: WgId) -> usize {
        let mut removed = 0;
        self.waiting.retain(|_, v| {
            let before = v.len();
            v.retain(|&(_, w, _)| w != wg);
            removed += before - v.len();
            !v.is_empty()
        });
        self.waiting_count -= removed;
        removed
    }

    /// High-water footprint of the CP's data structures (Fig 13).
    pub fn footprint(&self) -> CpFootprint {
        CpFootprint {
            waiting_conditions: self.max_conditions as u64 * COND_ENTRY_BYTES,
            monitored_addresses: self.max_addresses as u64 * ADDR_ENTRY_BYTES,
            waiting_wgs: self.max_wgs as u64 * WG_ENTRY_BYTES,
            monitor_table: self.max_conditions as u64 * TABLE_ENTRY_BYTES,
        }
    }

    /// `(entries drained from the log, condition checks performed)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.drained, self.checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awg_mem::L2Config;

    #[test]
    fn oldest_first_releases_in_spill_order() {
        let mut cp = Cp::with_order(CheckOrder::OldestFirst);
        let mut l2 = L2::new(L2Config::isca2020());
        // Spill order: wg 5 on a high address first, then wg 1 on a low one.
        cp.absorb(vec![entry(0x2000, 1, 5), entry(0x1000, 1, 1)]);
        l2.backing_mut().store(0x1000, 1);
        l2.backing_mut().store(0x2000, 1);
        let met = cp.check_conditions(&mut l2, 0);
        let wgs: Vec<WgId> = met.iter().map(|m| m.1).collect();
        assert_eq!(wgs, vec![5, 1], "oldest spill first, not lowest address");

        // Address-sorted visits 0x1000 first.
        let mut cp = Cp::new();
        cp.absorb(vec![entry(0x2000, 1, 5), entry(0x1000, 1, 1)]);
        let met = cp.check_conditions(&mut l2, 0);
        let wgs: Vec<WgId> = met.iter().map(|m| m.1).collect();
        assert_eq!(wgs, vec![1, 5]);
    }

    fn entry(addr: Addr, expected: i64, wg: WgId) -> LogEntry {
        LogEntry {
            cond: SyncCond { addr, expected },
            wg,
        }
    }

    #[test]
    fn absorb_and_check() {
        let mut cp = Cp::new();
        let mut l2 = L2::new(L2Config::isca2020());
        cp.absorb(vec![entry(64, 1, 0), entry(64, 2, 1), entry(128, 1, 2)]);
        assert_eq!(cp.tracked_waiters(), 3);

        l2.backing_mut().store(64, 1);
        let met = cp.check_conditions(&mut l2, 1000);
        assert_eq!(met.len(), 1);
        assert_eq!(met[0].1, 0);
        assert_eq!(cp.tracked_waiters(), 2);

        l2.backing_mut().store(64, 2);
        l2.backing_mut().store(128, 1);
        let met = cp.check_conditions(&mut l2, 2000);
        let mut wgs: Vec<WgId> = met.iter().map(|m| m.1).collect();
        wgs.sort_unstable();
        assert_eq!(wgs, vec![1, 2]);
        assert_eq!(cp.tracked_waiters(), 0);
    }

    #[test]
    fn checks_cost_memory_reads() {
        let mut cp = Cp::new();
        let mut l2 = L2::new(L2Config::isca2020());
        cp.absorb(vec![entry(64, 1, 0), entry(128, 5, 1)]);
        let (_, reads_before, _) = l2.op_counts();
        cp.check_conditions(&mut l2, 0);
        let (_, reads_after, _) = l2.op_counts();
        assert_eq!(reads_after - reads_before, 2, "one read per address");
    }

    #[test]
    fn remove_wg_clears_registrations() {
        let mut cp = Cp::new();
        cp.absorb(vec![entry(64, 1, 7), entry(128, 2, 7), entry(128, 2, 8)]);
        assert_eq!(cp.remove_wg(7), 2);
        assert_eq!(cp.tracked_waiters(), 1);
        assert_eq!(cp.remove_wg(7), 0);
    }

    #[test]
    fn footprint_uses_high_water() {
        let mut cp = Cp::new();
        cp.absorb(vec![entry(64, 1, 0), entry(64, 1, 1), entry(128, 2, 2)]);
        let mut l2 = L2::new(L2Config::isca2020());
        l2.backing_mut().store(64, 1);
        l2.backing_mut().store(128, 2);
        cp.check_conditions(&mut l2, 0);
        assert_eq!(cp.tracked_waiters(), 0);
        let f = cp.footprint();
        // High-water: 2 conditions, 2 addresses, 3 WGs.
        assert_eq!(f.waiting_conditions, 2 * COND_ENTRY_BYTES);
        assert_eq!(f.monitored_addresses, 2 * ADDR_ENTRY_BYTES);
        assert_eq!(f.waiting_wgs, 3 * WG_ENTRY_BYTES);
        assert_eq!(f.monitor_table, 2 * TABLE_ENTRY_BYTES);
        assert!(f.total_kb() > 0.0);
    }
}
