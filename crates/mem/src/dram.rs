//! Channel-interleaved DRAM model.
//!
//! Table 1: DDR3, 4 channels, 1 GHz (half the 2 GHz core clock). We model a
//! fixed access latency plus per-channel bandwidth: each channel services one
//! 64 B line per `service_interval` core cycles, so bursts of misses and
//! context-switch traffic queue up realistically.

use awg_sim::Cycle;

use crate::addr::{Addr, LINE_BYTES};

/// DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of channels (lines are channel-interleaved).
    pub channels: usize,
    /// Idle access latency in core cycles.
    pub latency: Cycle,
    /// Core cycles a channel is occupied per line transferred.
    pub service_interval: Cycle,
}

impl DramConfig {
    /// Table 1: DDR3, 4 channels @ 1 GHz. An idle access costs ~100 core
    /// cycles (50 ns at 2 GHz), and a channel moves one 64 B line every
    /// 16 core cycles (8 GB/s/channel at 2 GHz — DDR3-2000-class bandwidth).
    pub fn isca2020() -> Self {
        DramConfig {
            channels: 4,
            latency: 100,
            service_interval: 16,
        }
    }
}

/// The DRAM backend: answers "when does this line access complete?".
///
/// # Example
///
/// ```
/// use awg_mem::{Dram, DramConfig};
///
/// let mut dram = Dram::new(DramConfig::isca2020());
/// let done = dram.access(0, 0);
/// assert_eq!(done, 100); // idle latency
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dram {
    config: DramConfig,
    channel_free: Vec<Cycle>,
    accesses: u64,
    total_queue_cycles: u64,
}

impl Dram {
    /// Creates an idle DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.channels > 0, "need at least one channel");
        Dram {
            config,
            channel_free: vec![0; config.channels],
            accesses: 0,
            total_queue_cycles: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    #[inline]
    fn channel_of(&self, addr: Addr) -> usize {
        ((addr / LINE_BYTES) as usize) % self.config.channels
    }

    /// Issues a line access at cycle `now`; returns its completion cycle.
    /// The owning channel is occupied for `service_interval` cycles.
    pub fn access(&mut self, now: Cycle, addr: Addr) -> Cycle {
        let ch = self.channel_of(addr);
        let start = now.max(self.channel_free[ch]);
        self.total_queue_cycles += start - now;
        self.channel_free[ch] = start + self.config.service_interval;
        self.accesses += 1;
        start + self.config.latency
    }

    /// Issues a burst of `lines` consecutive line accesses starting at
    /// `base` (context save/restore traffic); returns the cycle when the
    /// last line completes.
    ///
    /// The result, the channel state and the counters equal `lines` calls
    /// of [`Dram::access`] at `now`, one per line, but cost O(channels):
    /// the `k` lines a channel receives start back to back at
    /// `s = max(now, channel_free)`, so the channel is busy until
    /// `s + k·service_interval`, its last line completes at
    /// `s + (k − 1)·service_interval + latency`, and the lines queue for
    /// `k·(s − now) + service_interval·k(k − 1)/2` cycles in total.
    pub fn access_burst(&mut self, now: Cycle, base: Addr, lines: u64) -> Cycle {
        let channels = self.config.channels as u64;
        let first = self.channel_of(base);
        let service = self.config.service_interval;
        let mut done = now;
        for (ch, free) in self.channel_free.iter_mut().enumerate() {
            // Line `i` of the burst lands on channel `(first + i) % channels`.
            let offset = (ch + self.config.channels - first) as u64 % channels;
            if offset >= lines {
                continue;
            }
            let k = (lines - offset).div_ceil(channels);
            let start = now.max(*free);
            *free = start + k * service;
            self.total_queue_cycles += k * (start - now) + service * (k * (k - 1) / 2);
            done = done.max(start + (k - 1) * service + self.config.latency);
        }
        self.accesses += lines;
        done
    }

    /// `(total accesses, total cycles spent queued)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.accesses, self.total_queue_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_access_is_pure_latency() {
        let mut d = Dram::new(DramConfig::isca2020());
        assert_eq!(d.access(1000, 64), 1100);
    }

    #[test]
    fn same_channel_queues() {
        let mut d = Dram::new(DramConfig::isca2020());
        // Lines 0 and 4 map to the same channel (4 channels, line-interleave).
        let a = d.access(0, 0);
        let b = d.access(0, 4 * LINE_BYTES);
        assert_eq!(a, 100);
        assert_eq!(b, 116); // queued behind the first line's 16-cycle service
        let (_, queued) = d.stats();
        assert_eq!(queued, 16);
    }

    #[test]
    fn different_channels_parallel() {
        let mut d = Dram::new(DramConfig::isca2020());
        let a = d.access(0, 0);
        let b = d.access(0, LINE_BYTES); // channel 1
        assert_eq!(a, b);
    }

    #[test]
    fn burst_spreads_across_channels() {
        let mut d = Dram::new(DramConfig::isca2020());
        // 8 lines over 4 channels: 2 per channel => last starts at +16.
        let done = d.access_burst(0, 0, 8);
        assert_eq!(done, 116);
    }

    #[test]
    fn empty_burst_is_a_no_op() {
        let mut d = Dram::new(DramConfig::isca2020());
        assert_eq!(d.access_burst(500, 0, 0), 500);
        assert_eq!(d.stats(), (0, 0));
        assert_eq!(d.access(0, 0), 100, "no channel was occupied");
    }

    #[test]
    fn channel_frees_over_time() {
        let mut d = Dram::new(DramConfig::isca2020());
        d.access(0, 0);
        // After the service interval the channel is idle again.
        assert_eq!(d.access(16, 0), 116);
        assert_eq!(d.access(1000, 0), 1100);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        Dram::new(DramConfig {
            channels: 0,
            latency: 1,
            service_interval: 1,
        });
    }
}
