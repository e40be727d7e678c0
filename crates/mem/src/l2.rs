//! The shared, banked L2 — the synchronization point of the GPU.
//!
//! GPUs "use write-through caches and perform atomics at the shared
//! last-level cache" (§IV.C.iii). Every atomic in the simulator therefore
//! executes here: requests ride the interconnect (the Table 1 50-cycle L2
//! latency each way), serialize on their home bank's atomic ALU, fill the
//! line from DRAM on a miss, and answer back to the CU. Bank occupancy is
//! what turns synchronization contention into time — the effect Figures 7,
//! 9 and 11 of the paper measure.
//!
//! The L2 also hosts AWG's per-tag **monitored** bits: monitored lines are
//! pinned (never evicted) and any atomic touching one reports
//! `was_monitored = true` so the SyncMon can run its condition checks.

use awg_sim::Cycle;

use crate::addr::{line_of, Addr};
use crate::atomic::{self, AtomicRequest, AtomicResult};
use crate::backing::Backing;
use crate::cache::{AccessOutcome, Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};

/// L2 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Tag/data array geometry and pipeline latency (one way of the trip).
    pub cache: CacheConfig,
    /// Number of address-interleaved banks.
    pub banks: usize,
    /// Cycles a bank's ALU is occupied per atomic.
    pub atomic_occupancy: Cycle,
    /// Cycles a bank is occupied per plain read/write.
    pub access_occupancy: Cycle,
}

impl L2Config {
    /// The paper's baseline: 512 KB, 16-way, 50-cycle pipeline, sliced into
    /// 8 banks. An atomic occupies its bank for 32 cycles — a full
    /// read-modify-write of the data array through the bank ALU — which is
    /// what makes busy-wait retry storms on one sync variable expensive
    /// (the contention the paper's Figs 7/9/14 hinge on).
    pub fn isca2020() -> Self {
        L2Config {
            cache: CacheConfig::l2_isca2020(),
            banks: 8,
            atomic_occupancy: 32,
            access_occupancy: 2,
        }
    }
}

/// Completion record for an L2 operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Cycle at which the response arrives back at the requester.
    pub done: Cycle,
    /// Whether the access hit in the L2 tags.
    pub hit: bool,
}

/// Completion record for an atomic, including monitor information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicCompletion {
    /// Architectural outcome (old/new value, waiting-comparison result).
    pub result: AtomicResult,
    /// Cycle at which the response arrives back at the CU.
    pub done: Cycle,
    /// Cycle at which the operation committed at the bank (the point at
    /// which SyncMon condition checks logically run).
    pub committed: Cycle,
    /// Whether the target line's monitored bit was set when the atomic
    /// committed.
    pub was_monitored: bool,
}

/// The banked last-level cache plus the DRAM behind it and the functional
/// value store.
///
/// # Example
///
/// ```
/// use awg_mem::{AtomicOp, AtomicRequest, L2, L2Config};
///
/// let mut l2 = L2::new(L2Config::isca2020());
/// let c = l2.atomic(0, AtomicRequest { op: AtomicOp::Add, addr: 64, operand: 1, expected: None });
/// assert_eq!(c.result.new, 1);
/// assert!(c.done > 100); // pipeline + ALU + miss fill + return trip
/// ```
#[derive(Debug, Clone)]
pub struct L2 {
    config: L2Config,
    cache: Cache,
    /// `log2(line_bytes)`: a line address's bank is its line number
    /// masked by `banks - 1`.
    line_shift: u32,
    bank_free: Vec<Cycle>,
    dram: Dram,
    backing: Backing,
    atomics: u64,
    reads: u64,
    writes: u64,
}

impl L2 {
    /// Creates an idle L2 with the paper's DRAM behind it.
    pub fn new(config: L2Config) -> Self {
        Self::with_dram(config, DramConfig::isca2020())
    }

    /// Creates an idle L2 with a custom DRAM configuration.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or not a power of two, or if the cache
    /// geometry is one [`Cache::new`] rejects.
    pub fn with_dram(config: L2Config, dram: DramConfig) -> Self {
        assert!(
            config.banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        L2 {
            cache: Cache::new(config.cache),
            line_shift: config.cache.line_bytes.trailing_zeros(),
            bank_free: vec![0; config.banks],
            dram: Dram::new(dram),
            backing: Backing::new(),
            config,
            atomics: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &L2Config {
        &self.config
    }

    #[inline]
    fn bank_of(&self, addr: Addr) -> usize {
        (line_of(addr) >> self.line_shift) as usize & (self.config.banks - 1)
    }

    /// Common bank + tag timing. Returns `(commit_cycle, hit, monitored)`,
    /// `monitored` being the line's monitored bit at commit, read by the
    /// same tag scan.
    fn bank_access(&mut self, now: Cycle, addr: Addr, occupancy: Cycle) -> (Cycle, bool, bool) {
        let bank = self.bank_of(addr);
        let arrival = now + self.config.cache.latency;
        let start = arrival.max(self.bank_free[bank]);
        self.bank_free[bank] = start + occupancy;
        let (outcome, monitored) = self.cache.access_monitored(addr);
        let (commit, hit) = match outcome {
            AccessOutcome::Hit => (start + occupancy, true),
            AccessOutcome::Miss { .. } => {
                let fill = self.dram.access(start, line_of(addr));
                (fill.max(start + occupancy), false)
            }
            AccessOutcome::NoAllocate => {
                // Every way pinned by monitors: service uncached from DRAM.
                let fill = self.dram.access(start, line_of(addr));
                (fill.max(start + occupancy), false)
            }
        };
        (commit, hit, monitored)
    }

    /// Executes an atomic arriving from a CU at cycle `now`.
    pub fn atomic(&mut self, now: Cycle, req: AtomicRequest) -> AtomicCompletion {
        self.atomics += 1;
        let (committed, _hit, was_monitored) =
            self.bank_access(now, req.addr, self.config.atomic_occupancy);
        let result = atomic::execute(&mut self.backing, req);
        AtomicCompletion {
            result,
            done: committed + self.config.cache.latency,
            committed,
            was_monitored,
        }
    }

    /// Reads the word at `addr`, returning `(value, completion)`.
    pub fn read(&mut self, now: Cycle, addr: Addr) -> (i64, Completion) {
        self.reads += 1;
        let (commit, hit, _) = self.bank_access(now, addr, self.config.access_occupancy);
        (
            self.backing.load(addr),
            Completion {
                done: commit + self.config.cache.latency,
                hit,
            },
        )
    }

    /// Writes `value` to the word at `addr` (write-through traffic from the
    /// L1s lands here). Returns the completion, whether the line was
    /// monitored at commit time, and the word the write replaced.
    pub fn write(&mut self, now: Cycle, addr: Addr, value: i64) -> (Completion, bool, i64) {
        self.writes += 1;
        let (commit, hit, monitored) = self.bank_access(now, addr, self.config.access_occupancy);
        let old = self.backing.update(addr, |_| Some(value));
        (
            Completion {
                done: commit + self.config.cache.latency,
                hit,
            },
            monitored,
            old,
        )
    }

    /// Transfers `lines` cachelines between on-chip state and memory,
    /// bypassing the L2 arrays (context save/restore traffic). Returns the
    /// completion cycle of the last line.
    pub fn context_burst(&mut self, now: Cycle, base: Addr, lines: u64) -> Cycle {
        self.dram.access_burst(now, base, lines)
    }

    /// Marks the line containing `addr` monitored (filling it first if
    /// necessary). Returns `false` if the line cannot be pinned because
    /// every way in its set is already pinned — the caller must spill the
    /// condition to the Monitor Log instead (§V.A).
    pub fn set_monitored(&mut self, addr: Addr) -> bool {
        self.cache.fill_monitored(addr)
    }

    /// Clears the monitored bit of `addr`'s line. Idempotent.
    pub fn clear_monitored(&mut self, addr: Addr) {
        self.cache.clear_monitored(addr);
    }

    /// Whether `addr`'s line is currently monitored.
    pub fn is_monitored(&self, addr: Addr) -> bool {
        self.cache.is_monitored(addr)
    }

    /// Number of monitored lines currently pinned, in O(1): the count is
    /// kept at every monitored-bit flip.
    pub fn monitored_lines(&self) -> usize {
        self.cache.monitored_lines()
    }

    /// The most lines that were monitored at once since construction.
    pub fn monitored_peak(&self) -> usize {
        self.cache.monitored_peak()
    }

    /// A counter that moves only when some line's monitored bit flips.
    /// While it holds still, [`L2::is_monitored`] answers as before for
    /// every address, so a reader may cache its answers against it.
    pub fn monitored_version(&self) -> u64 {
        self.cache.monitored_version()
    }

    /// Read-only view of the functional value store.
    pub fn backing(&self) -> &Backing {
        &self.backing
    }

    /// Mutable view of the functional value store (workload initialization).
    pub fn backing_mut(&mut self) -> &mut Backing {
        &mut self.backing
    }

    /// Zero-time value peek (validators, oracles — not a timed access).
    pub fn peek(&self, addr: Addr) -> i64 {
        self.backing.load(addr)
    }

    /// `(atomics, reads, writes)` executed since construction.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.atomics, self.reads, self.writes)
    }

    /// Tag-array statistics `(hits, misses, bypasses)`.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        self.cache.stats()
    }

    /// The tag array, with its monitored and pinned bits.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// DRAM statistics `(accesses, queued_cycles)`.
    pub fn dram_stats(&self) -> (u64, u64) {
        self.dram.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicOp;

    fn add1(addr: Addr) -> AtomicRequest {
        AtomicRequest {
            op: AtomicOp::Add,
            addr,
            operand: 1,
            expected: None,
        }
    }

    #[test]
    fn atomic_hit_latency_is_pipeline_plus_alu() {
        let mut l2 = L2::new(L2Config::isca2020());
        // Warm the line.
        l2.atomic(0, add1(64));
        let warm = l2.atomic(10_000, add1(64));
        // 50 in + 4 ALU + 50 back.
        assert_eq!(warm.done - 10_000, 132); // 50 in + 32 ALU + 50 back
        assert_eq!(warm.result.old, 1);
    }

    #[test]
    fn atomic_miss_pays_dram() {
        let mut l2 = L2::new(L2Config::isca2020());
        let c = l2.atomic(0, add1(64));
        assert!(
            c.done >= 50 + 100 + 50,
            "miss must include DRAM: {}",
            c.done
        );
    }

    #[test]
    fn same_bank_atomics_serialize() {
        let mut l2 = L2::new(L2Config::isca2020());
        l2.atomic(0, add1(64)); // warm line + bank
        let a = l2.atomic(10_000, add1(64));
        let b = l2.atomic(10_000, add1(64));
        assert_eq!(b.committed - a.committed, 32, "ALU occupancy serializes");
    }

    #[test]
    fn different_banks_do_not_serialize() {
        let mut l2 = L2::new(L2Config::isca2020());
        l2.atomic(0, add1(64));
        l2.atomic(0, add1(128));
        let a = l2.atomic(10_000, add1(64));
        let b = l2.atomic(10_000, add1(128));
        assert_eq!(a.committed, b.committed);
    }

    #[test]
    fn monitored_bit_roundtrip() {
        let mut l2 = L2::new(L2Config::isca2020());
        assert!(l2.set_monitored(64));
        assert!(l2.is_monitored(64));
        let c = l2.atomic(0, add1(64));
        assert!(c.was_monitored);
        l2.clear_monitored(64);
        assert!(!l2.is_monitored(64));
        let c = l2.atomic(20_000, add1(64));
        assert!(!c.was_monitored);
    }

    #[test]
    fn monitored_lines_survive_conflict_pressure() {
        let mut l2 = L2::new(L2Config::isca2020());
        let cfg = *l2.config();
        assert!(l2.set_monitored(64));
        // Generate way-conflict pressure on the same set.
        let set_stride = cfg.cache.sets as u64 * cfg.cache.line_bytes;
        for i in 1..=(cfg.cache.ways as u64 * 2) {
            l2.read(i * 1000, 64 + i * set_stride);
        }
        assert!(l2.is_monitored(64));
    }

    #[test]
    fn write_reports_monitored() {
        let mut l2 = L2::new(L2Config::isca2020());
        l2.set_monitored(64);
        let (_, monitored, _) = l2.write(0, 64, 42);
        assert!(monitored);
        assert_eq!(l2.peek(64), 42);
    }

    #[test]
    fn write_returns_the_word_it_replaced() {
        let mut l2 = L2::new(L2Config::isca2020());
        // No page holds 64 yet: the old word reads zero.
        assert_eq!(l2.write(0, 64, 7).2, 0);
        assert_eq!(l2.write(100, 64, -3).2, 7);
        // An unaligned address inside the same word, and a same-value
        // overwrite, each report what was there.
        assert_eq!(l2.write(200, 68, 5).2, -3);
        assert_eq!(l2.write(300, 64, 5).2, 5);
        assert_eq!(l2.write(400, 64, 0).2, 5);
        assert_eq!(l2.peek(64), 0);
    }

    #[test]
    fn values_flow_through_backing() {
        let mut l2 = L2::new(L2Config::isca2020());
        l2.write(0, 64, 7);
        let (v, _) = l2.read(1000, 64);
        assert_eq!(v, 7);
        let c = l2.atomic(
            2000,
            AtomicRequest {
                op: AtomicOp::Cas,
                addr: 64,
                operand: 9,
                expected: Some(7),
            },
        );
        assert!(c.result.wrote);
        assert_eq!(l2.peek(64), 9);
    }

    #[test]
    fn context_burst_uses_dram_bandwidth() {
        let mut l2 = L2::new(L2Config::isca2020());
        // 10 KB context = 160 lines over 4 channels: 40 per channel.
        let done = l2.context_burst(0, 1 << 20, 160);
        // Last line starts at 39*16 = 624, +100 latency.
        assert_eq!(done, 724);
    }

    #[test]
    fn monitored_count_and_version_move_only_on_a_flip() {
        let mut l2 = L2::new(L2Config::isca2020());
        assert_eq!((l2.monitored_lines(), l2.monitored_peak()), (0, 0));
        let v0 = l2.monitored_version();
        assert!(l2.set_monitored(64));
        assert!(l2.set_monitored(128));
        let v1 = l2.monitored_version();
        assert!(v1 > v0);
        assert_eq!((l2.monitored_lines(), l2.monitored_peak()), (2, 2));
        // Idempotent set, a second address on a monitored line, and a
        // clear of a line that is not monitored: no flip, nothing moves.
        assert!(l2.set_monitored(64));
        assert!(l2.set_monitored(72));
        l2.clear_monitored(192);
        l2.clear_monitored(1 << 20);
        assert_eq!(l2.monitored_version(), v1);
        assert_eq!((l2.monitored_lines(), l2.monitored_peak()), (2, 2));
        // Plain traffic to monitored and unmonitored lines flips nothing.
        l2.atomic(0, add1(64));
        l2.read(100, 4096);
        l2.write(200, 8192, 1);
        assert_eq!(l2.monitored_version(), v1);
        // A real clear flips: the count falls, the peak stays.
        l2.clear_monitored(64);
        let v2 = l2.monitored_version();
        assert!(v2 > v1);
        assert_eq!((l2.monitored_lines(), l2.monitored_peak()), (1, 2));
        l2.clear_monitored(64);
        assert_eq!(l2.monitored_version(), v2);
        assert_eq!(l2.monitored_lines(), 1);
    }

    #[test]
    fn flush_drops_every_monitored_line_and_moves_the_version() {
        let mut c = Cache::new(CacheConfig::l2_isca2020());
        for addr in [0u64, 64, 1 << 16] {
            c.access(addr);
            assert!(c.set_monitored(addr));
        }
        let before = c.monitored_version();
        c.flush();
        assert!(c.monitored_version() > before);
        assert_eq!((c.monitored_lines(), c.monitored_peak()), (0, 3));
        assert!(!c.is_monitored(0));
        // Clearing after the flush finds no line: nothing moves.
        let after = c.monitored_version();
        c.clear_monitored(0);
        assert_eq!(c.monitored_version(), after);
        assert_eq!(c.monitored_lines(), 0);
    }

    #[test]
    #[should_panic(expected = "bank count must be a power of two")]
    fn non_power_of_two_banks_rejected() {
        let mut cfg = L2Config::isca2020();
        cfg.banks = 6;
        L2::with_dram(cfg, DramConfig::isca2020());
    }

    #[test]
    #[should_panic(expected = "bank count must be a power of two")]
    fn zero_banks_rejected() {
        let mut cfg = L2Config::isca2020();
        cfg.banks = 0;
        L2::with_dram(cfg, DramConfig::isca2020());
    }

    #[test]
    fn set_monitored_when_set_full_of_pins_fails() {
        let cfg = L2Config {
            cache: CacheConfig {
                sets: 1,
                ways: 2,
                line_bytes: 64,
                latency: 50,
            },
            banks: 1,
            atomic_occupancy: 4,
            access_occupancy: 2,
        };
        let mut l2 = L2::with_dram(cfg, DramConfig::isca2020());
        assert!(l2.set_monitored(0));
        assert!(l2.set_monitored(64));
        assert!(!l2.set_monitored(128), "third pin in a 2-way set must fail");
    }
}
