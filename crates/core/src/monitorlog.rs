//! The Monitor Log: AWG's virtualization interface (§V.A).
//!
//! "The Monitor Log is a circular buffer residing in global memory that
//! stores entries composed of the monitored address, the waiting value, and
//! the waiting WG ID." The SyncMon appends entries when its on-chip
//! structures overflow; the CP drains them periodically. When the log
//! itself is full, the waiting atomic simply fails without entering the
//! waiting state and the WG retries (Mesa semantics) "until the CP
//! processes the Monitor Log and frees some entries".
//!
//! Functionally the entries are mirrored in host memory; every append and
//! drain is charged as real global-memory traffic against the simulated L2,
//! so the virtualization path has a timing cost.

use awg_gpu::{SyncCond, WgId};
use awg_mem::{Addr, L2};
use awg_sim::Cycle;

/// Base address of the Monitor Log's backing storage, above the context
/// save area.
pub const MONITOR_LOG_BASE: Addr = 1 << 41;

/// Bytes per log entry: monitored address (8) + waiting value (8) + WG id
/// with flags (8).
pub const LOG_ENTRY_BYTES: u64 = 24;

/// One spilled registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// The spilled waiting condition.
    pub cond: SyncCond,
    /// The waiting WG.
    pub wg: WgId,
}

/// The circular buffer plus its head/tail bookkeeping.
#[derive(Debug)]
pub struct MonitorLog {
    capacity: usize,
    entries: std::collections::VecDeque<LogEntry>,
    next_slot: u64,
    appends: u64,
    rejects: u64,
    high_water: usize,
}

impl MonitorLog {
    /// Creates an empty log holding up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "log capacity must be positive");
        MonitorLog {
            capacity,
            entries: std::collections::VecDeque::new(),
            next_slot: 0,
            appends: 0,
            rejects: 0,
            high_water: 0,
        }
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the log is at capacity (appends will be rejected).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Appends an entry at the tail, charging the write to global memory.
    /// Returns `false` (Mesa overflow) when the log is full.
    pub fn push(&mut self, l2: &mut L2, now: Cycle, entry: LogEntry) -> bool {
        if self.is_full() {
            self.rejects += 1;
            return false;
        }
        let slot = self.next_slot % self.capacity as u64;
        self.next_slot += 1;
        let base = MONITOR_LOG_BASE + slot * LOG_ENTRY_BYTES;
        // Three words of write-through traffic.
        l2.write(now, base, entry.cond.addr as i64);
        l2.write(now, base + 8, entry.cond.expected);
        l2.write(now, base + 16, entry.wg as i64);
        self.entries.push_back(entry);
        self.high_water = self.high_water.max(self.entries.len());
        self.appends += 1;
        true
    }

    /// Removes up to `max` entries from the head, charging the reads.
    pub fn drain(&mut self, l2: &mut L2, now: Cycle, max: usize) -> Vec<LogEntry> {
        let n = max.min(self.entries.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let e = self.entries.pop_front().expect("len checked");
            let slot = (self.next_slot - self.entries.len() as u64 - 1) % self.capacity as u64;
            let base = MONITOR_LOG_BASE + slot * LOG_ENTRY_BYTES;
            l2.read(now, base);
            out.push(e);
        }
        out
    }

    /// `(appends, Mesa rejections, high-water entries)`.
    pub fn stats(&self) -> (u64, u64, usize) {
        (self.appends, self.rejects, self.high_water)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awg_mem::L2Config;

    fn l2() -> L2 {
        L2::new(L2Config::isca2020())
    }

    fn entry(wg: WgId) -> LogEntry {
        LogEntry {
            cond: SyncCond {
                addr: 64,
                expected: 1,
            },
            wg,
        }
    }

    #[test]
    fn push_drain_fifo() {
        let mut log = MonitorLog::new(4);
        let mut l2 = l2();
        assert!(log.push(&mut l2, 0, entry(0)));
        assert!(log.push(&mut l2, 0, entry(1)));
        assert_eq!(log.len(), 2);
        let drained = log.drain(&mut l2, 10, 10);
        assert_eq!(drained.iter().map(|e| e.wg).collect::<Vec<_>>(), vec![0, 1]);
        assert!(log.is_empty());
    }

    #[test]
    fn full_log_rejects_mesa_style() {
        let mut log = MonitorLog::new(2);
        let mut l2 = l2();
        assert!(log.push(&mut l2, 0, entry(0)));
        assert!(log.push(&mut l2, 0, entry(1)));
        assert!(log.is_full());
        assert!(!log.push(&mut l2, 0, entry(2)));
        let (appends, rejects, high) = log.stats();
        assert_eq!((appends, rejects, high), (2, 1, 2));
        // Draining frees capacity again.
        log.drain(&mut l2, 5, 1);
        assert!(log.push(&mut l2, 5, entry(2)));
    }

    #[test]
    fn traffic_is_charged() {
        let mut log = MonitorLog::new(8);
        let mut l2 = l2();
        let (_, _, writes_before) = l2.op_counts();
        log.push(&mut l2, 0, entry(0));
        let (_, _, writes_after) = l2.op_counts();
        assert_eq!(writes_after - writes_before, 3);
        let (_, reads_before, _) = l2.op_counts();
        log.drain(&mut l2, 1, 1);
        let (_, reads_after, _) = l2.op_counts();
        assert_eq!(reads_after - reads_before, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        MonitorLog::new(0);
    }
}

#[cfg(test)]
mod wraparound_tests {
    use super::*;
    use awg_mem::L2Config;

    #[test]
    fn circular_buffer_survives_many_wraps() {
        let mut log = MonitorLog::new(3);
        let mut l2 = L2::new(L2Config::isca2020());
        let mut next_wg = 0u32;
        let mut expected_head = 0u32;
        for round in 0..50 {
            // Fill to capacity, drain a varying amount, FIFO must hold.
            while !log.is_full() {
                log.push(
                    &mut l2,
                    round,
                    LogEntry {
                        cond: SyncCond {
                            addr: 64,
                            expected: 1,
                        },
                        wg: next_wg,
                    },
                );
                next_wg += 1;
            }
            let take = 1 + (round as usize % 3);
            for e in log.drain(&mut l2, round, take) {
                assert_eq!(e.wg, expected_head, "round {round}");
                expected_head += 1;
            }
        }
        assert!(next_wg > 50, "the buffer cycled many times");
    }
}
