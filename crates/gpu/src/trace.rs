//! Optional event tracing (used to regenerate the Fig 6 policy timelines
//! and to feed the Chrome-Trace-Format timeline exporter).

use std::collections::VecDeque;

use awg_sim::Cycle;

use crate::wg::WgId;

/// A traced scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// WG dispatched onto a CU.
    Dispatch {
        /// Target CU.
        cu: usize,
    },
    /// Atomic issued (dynamic atomic instruction).
    AtomicIssue {
        /// Target address.
        addr: u64,
    },
    /// Atomic completed at the shared point of coherence.
    AtomicDone {
        /// Target address.
        addr: u64,
    },
    /// Synchronization check failed.
    SyncFail {
        /// The sync variable.
        addr: u64,
        /// The value waited for.
        expected: i64,
    },
    /// WG began stalling while resident.
    Stall,
    /// WG began sleeping (`s_sleep` / fixed stall interval).
    Sleep {
        /// Sleep duration.
        cycles: Cycle,
    },
    /// Context switch out started.
    SwapOutStart,
    /// Context switch out finished; resources released.
    SwapOutDone,
    /// Context switch in started.
    SwapInStart {
        /// Destination CU.
        cu: usize,
    },
    /// WG resumed execution.
    Resume,
    /// WG's fallback timeout fired.
    Timeout,
    /// WG halted.
    Finish,
}

impl TraceEvent {
    /// Whether this event is a *schedule* event — a dispatch, context
    /// switch, resume, timeout, or finish — as opposed to per-instruction
    /// noise (atomics, sync polls, stalls, sleeps).
    pub fn is_schedule(&self) -> bool {
        matches!(
            self,
            TraceEvent::Dispatch { .. }
                | TraceEvent::SwapOutStart
                | TraceEvent::SwapOutDone
                | TraceEvent::SwapInStart { .. }
                | TraceEvent::Resume
                | TraceEvent::Timeout
                | TraceEvent::Finish
        )
    }
}

/// What a [`Trace`] retains.
///
/// The conformance lab's progress-model predicates only consume scheduling
/// events, but a deadlocked busy-wait run emits millions of per-instruction
/// atomic records before the quiescence detector fires — [`Schedule`]
/// filters those at record time, keeping adversary runs at a few hundred
/// records without a lossy ring bound.
///
/// [`Schedule`]: TraceFilter::Schedule
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFilter {
    /// Keep every event (the timeline exporter needs the full stream).
    #[default]
    All,
    /// Keep only events for which [`TraceEvent::is_schedule`] holds.
    Schedule,
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle of the event.
    pub cycle: Cycle,
    /// WG involved.
    pub wg: WgId,
    /// What happened.
    pub event: TraceEvent,
}

/// A trace buffer, optionally bounded as a ring.
///
/// With a capacity set, the buffer keeps only the newest records and counts
/// what it evicted, so long chaos runs with tracing enabled cannot grow
/// memory without limit.
#[derive(Debug, Default)]
pub struct Trace {
    records: VecDeque<TraceRecord>,
    enabled: bool,
    capacity: Option<usize>,
    filter: TraceFilter,
    dropped: u64,
}

impl Trace {
    /// Creates a disabled (zero-overhead) trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Bounds the buffer to the newest `capacity` records (`None` restores
    /// the unbounded default). Excess oldest records are evicted
    /// immediately.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
        self.evict();
    }

    /// The configured bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Selects which events [`Trace::record`] retains. Already-recorded
    /// records are kept; the filter applies from now on.
    pub fn set_filter(&mut self, filter: TraceFilter) {
        self.filter = filter;
    }

    /// The active record filter.
    pub fn filter(&self) -> TraceFilter {
        self.filter
    }

    /// Number of records evicted by the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn evict(&mut self) {
        if let Some(cap) = self.capacity {
            while self.records.len() > cap {
                self.records.pop_front();
                self.dropped += 1;
            }
        }
    }

    /// Records an event when enabled.
    #[inline]
    pub fn record(&mut self, cycle: Cycle, wg: WgId, event: TraceEvent) {
        if self.enabled {
            if self.filter == TraceFilter::Schedule && !event.is_schedule() {
                return;
            }
            self.records.push_back(TraceRecord { cycle, wg, event });
            if let Some(cap) = self.capacity {
                if self.records.len() > cap {
                    self.records.pop_front();
                    self.dropped += 1;
                }
            }
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Copies the retained records out, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_filter_drops_instruction_noise() {
        let mut t = Trace::new();
        t.enable();
        t.set_filter(TraceFilter::Schedule);
        t.record(1, 0, TraceEvent::AtomicIssue { addr: 64 });
        t.record(
            2,
            0,
            TraceEvent::SyncFail {
                addr: 64,
                expected: 1,
            },
        );
        t.record(3, 0, TraceEvent::Stall);
        t.record(4, 0, TraceEvent::Sleep { cycles: 100 });
        t.record(5, 0, TraceEvent::SwapOutStart);
        t.record(6, 0, TraceEvent::SwapOutDone);
        t.record(7, 0, TraceEvent::Dispatch { cu: 0 });
        t.record(8, 0, TraceEvent::Resume);
        t.record(9, 0, TraceEvent::Finish);
        let kept: Vec<_> = t.iter().map(|r| r.cycle).collect();
        assert_eq!(kept, vec![5, 6, 7, 8, 9]);
        // Filtered events are not "dropped" — that counter is the ring's.
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.record(5, 0, TraceEvent::Stall);
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_trace_appends() {
        let mut t = Trace::new();
        t.enable();
        t.record(5, 0, TraceEvent::Stall);
        t.record(9, 1, TraceEvent::Resume);
        let records = t.snapshot();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].cycle, 9);
        assert_eq!(records[1].event, TraceEvent::Resume);
    }

    #[test]
    fn ring_bound_keeps_newest_records() {
        let mut t = Trace::new();
        t.enable();
        t.set_capacity(Some(3));
        for cycle in 0..10 {
            t.record(cycle, 0, TraceEvent::Stall);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let cycles: Vec<_> = t.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let mut t = Trace::new();
        t.enable();
        for cycle in 0..5 {
            t.record(cycle, 0, TraceEvent::Resume);
        }
        t.set_capacity(Some(2));
        let cycles: Vec<_> = t.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![3, 4]);
        assert_eq!(t.dropped(), 3);
        // Restoring unbounded keeps what remains.
        t.set_capacity(None);
        assert_eq!(t.len(), 2);
    }
}
