//! A deterministic timed event queue.
//!
//! Events scheduled for the same cycle pop in the order they were scheduled
//! (FIFO tie-break via a monotonically increasing sequence number), which
//! makes the whole simulation reproducible: the same inputs always produce
//! the same interleaving of micro-architectural events.
//!
//! # Implementation
//!
//! The queue is a single-level calendar (timer wheel) backed by a binary
//! heap for the events the wheel cannot hold. GPU timing events
//! overwhelmingly land a few dozen to a few thousand cycles ahead of the
//! current cycle, so a wheel of 4096 flat buckets — one per cycle,
//! addressed by the cycle modulo the wheel width — turns both `schedule`
//! and `pop` into O(1) array operations with an occupancy bitmap scan
//! instead of O(log n) sift operations over a pointer-cold heap:
//!
//! * **Wheel** — every pending event whose cycle lies inside the horizon
//!   (the 4096 cycles starting at the cursor) sits in the bucket for its
//!   cycle. Because the horizon is exactly one wheel revolution, a bucket
//!   never mixes cycles; appending to a bucket therefore preserves the FIFO
//!   tie-break for free, with no per-entry comparisons at all. A bucket is
//!   a singly linked FIFO list threaded through the arena: the wheel holds
//!   only each bucket's `head` and `tail` slot index (32 KB in all), and
//!   each slot holds the index of the `next` one, so appending and popping
//!   touch the slot itself and no per-bucket buffer.
//! * **Overflow** — events beyond the horizon, and retro events scheduled
//!   behind the cursor (the machine does this when re-arming timeouts at
//!   `max(deadline, now)` boundaries and after restores), go to a binary
//!   min-heap of `(cycle, seq, slot)` keys. The heap holds plain 24-byte
//!   keys, not the events, so a far-future insert costs one sift and no
//!   allocation once the heap has grown. No migration pass is ever needed:
//!   `pop` compares the wheel's next cycle against the heap's minimum and
//!   drains the earlier one. When both tiers hold the same cycle, the
//!   overflow entries are always older (their seq is smaller — an event
//!   can only reach the overflow while the cycle is outside the horizon,
//!   i.e. strictly before any wheel entry for it could exist), so
//!   overflow-before-wheel preserves FIFO order exactly; within the heap,
//!   the `seq` field of the key keeps same-cycle entries FIFO.
//! * **Arena** — event payloads live in generation-tagged slots with a
//!   free list; bucket lists and the overflow heap refer to slots, not
//!   boxed events. Popping frees the slot for reuse, so a steady-state run
//!   allocates nothing after warmup, and
//!   [`with_capacity`](EventQueue::with_capacity) pre-sizes the arena from
//!   machine configuration.
//!
//! The public contract — FIFO tie-break, `snapshot`/`restore` wire
//! behaviour, `scheduled_total` monotonicity — is identical to the
//! original `BinaryHeap` implementation; `tests/queue_model.rs` drives
//! both against each other with seeded interleavings to prove it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, TryReserveError};

use crate::time::Cycle;

/// Width of the calendar wheel in cycles (one bucket per cycle). Must be a
/// power of two so bucket addressing is a mask. 4096 cycles comfortably
/// covers the paper machine's event latencies (issue 4, dispatch 200,
/// context switch 500, memory ~100s); only quiescence watchdogs, long
/// sleep backoffs, and far-future fault injections take the overflow path.
const WHEEL_CYCLES: usize = 4096;
const WHEEL_MASK: u64 = (WHEEL_CYCLES as u64) - 1;

/// The end of a bucket list, and an empty bucket's `head` and `tail`.
const NIL: u32 = u32::MAX;

/// A generation-tagged reference into the slot arena.
#[derive(Debug, Clone, Copy)]
struct SlotRef {
    idx: u32,
    gen: u32,
}

/// An overflow-tier entry. The derived order compares `(cycle, seq)`
/// first, which is the pop order; `seq` is unique, so the slot reference
/// behind it never decides a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OverflowKey {
    cycle: Cycle,
    seq: u64,
    idx: u32,
    gen: u32,
}

#[derive(Debug)]
struct Slot<E> {
    /// Bumped every time the slot is freed; a stale [`SlotRef`] can then be
    /// detected instead of silently resolving to a recycled event.
    gen: u32,
    /// The slot after this one in its wheel bucket, or [`NIL`].
    next: u32,
    cycle: Cycle,
    seq: u64,
    /// `None` while the slot sits on the free list.
    event: Option<E>,
}

/// One wheel bucket: a FIFO list of slot indices in scheduling (= seq)
/// order, linked through [`Slot::next`]. Both ends are [`NIL`] when empty.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A deterministic priority queue of `(cycle, event)` pairs.
///
/// Ordering is primarily by cycle, with FIFO tie-break for events scheduled
/// at the same cycle.
///
/// # Example
///
/// ```
/// let mut q = awg_sim::EventQueue::new();
/// q.schedule(7, "late");
/// q.schedule(7, "later"); // same cycle: FIFO order preserved
/// q.schedule(3, "early");
/// assert_eq!(q.pop(), Some((3, "early")));
/// assert_eq!(q.pop(), Some((7, "late")));
/// assert_eq!(q.pop(), Some((7, "later")));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    wheel: Vec<Bucket>,
    /// One bit per bucket: set iff the bucket holds unpopped entries.
    occupancy: [u64; WHEEL_CYCLES / 64],
    /// Lower edge of the wheel horizon. Monotone while events pop; every
    /// wheel entry's cycle lies in `[cursor, cursor + WHEEL_CYCLES)`.
    cursor: Cycle,
    /// Events outside the horizon (far future) or behind the cursor
    /// (retro), as a min-heap on `(cycle, seq)`.
    overflow: BinaryHeap<Reverse<OverflowKey>>,
    /// Pending entries on the wheel (`len` minus the overflow population);
    /// lets `pop`/`peek` skip the bitmap scan in overflow-only phases.
    wheel_len: usize,
    len: usize,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with `capacity` arena slots pre-allocated.
    ///
    /// The machine sizes this from its kernel (a few in-flight events per
    /// work-group plus stale-timeout residue) so steady-state runs never
    /// grow the arena mid-flight.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            wheel: vec![EMPTY_BUCKET; WHEEL_CYCLES],
            occupancy: [0; WHEEL_CYCLES / 64],
            cursor: 0,
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            len: 0,
            seq: 0,
        }
    }

    /// Fallible [`with_capacity`](Self::with_capacity): returns an error
    /// instead of aborting when the host cannot allocate the arena.
    pub fn try_with_capacity(capacity: usize) -> Result<Self, TryReserveError> {
        let mut q = Self::new();
        q.slots.try_reserve_exact(capacity)?;
        q.free.try_reserve_exact(capacity)?;
        Ok(q)
    }

    fn alloc_slot(&mut self, cycle: Cycle, seq: u64, event: E) -> SlotRef {
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.event.is_none(), "free list points at a live slot");
            slot.next = NIL;
            slot.cycle = cycle;
            slot.seq = seq;
            slot.event = Some(event);
            SlotRef { idx, gen: slot.gen }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                next: NIL,
                cycle,
                seq,
                event: Some(event),
            });
            SlotRef { idx, gen: 0 }
        }
    }

    fn free_slot(&mut self, r: SlotRef) -> (Cycle, E) {
        let slot = &mut self.slots[r.idx as usize];
        debug_assert_eq!(slot.gen, r.gen, "stale slot reference");
        let event = slot.event.take().expect("popping an empty slot");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        (slot.cycle, event)
    }

    fn bucket_index(&self, at: Cycle) -> usize {
        (at & WHEEL_MASK) as usize
    }

    fn set_bit(&mut self, bucket: usize) {
        self.occupancy[bucket / 64] |= 1 << (bucket % 64);
    }

    fn clear_bit(&mut self, bucket: usize) {
        self.occupancy[bucket / 64] &= !(1 << (bucket % 64));
    }

    /// The earliest cycle with a pending wheel entry, found by a circular
    /// occupancy-bitmap scan starting at the cursor's bucket.
    fn next_wheel_cycle(&self) -> Option<Cycle> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = self.bucket_index(self.cursor);
        let mut word_idx = start / 64;
        // First word: mask off bits below the cursor's position.
        let mut word = self.occupancy[word_idx] & (!0u64 << (start % 64));
        for step in 0..=self.occupancy.len() {
            if word != 0 {
                let bucket = word_idx * 64 + word.trailing_zeros() as usize;
                let distance = (bucket as u64).wrapping_sub(start as u64) & WHEEL_MASK;
                return Some(self.cursor + distance);
            }
            if step == self.occupancy.len() {
                break;
            }
            word_idx = (word_idx + 1) % self.occupancy.len();
            word = self.occupancy[word_idx];
            if word_idx == start / 64 {
                // Wrapped to the start word: only the bits below the cursor
                // remain unexamined (cycles near the top of the horizon).
                word &= !(!0u64 << (start % 64));
            }
        }
        None
    }

    fn insert_ref(&mut self, at: Cycle, seq: u64, r: SlotRef) {
        if at >= self.cursor && at - self.cursor < WHEEL_CYCLES as u64 {
            let bucket = self.bucket_index(at);
            let b = &mut self.wheel[bucket];
            if b.tail == NIL {
                b.head = r.idx;
            } else {
                debug_assert_eq!(
                    self.slots[b.head as usize].cycle, at,
                    "wheel bucket mixes cycles"
                );
                self.slots[b.tail as usize].next = r.idx;
            }
            b.tail = r.idx;
            self.set_bit(bucket);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(OverflowKey {
                cycle: at,
                seq,
                idx: r.idx,
                gen: r.gen,
            }));
        }
        self.len += 1;
    }

    /// Schedules `event` to fire at absolute cycle `at`.
    ///
    /// Events at the same cycle fire in scheduling order.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let r = self.alloc_slot(at, seq, event);
        self.insert_ref(at, seq, r);
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let wheel_next = self.next_wheel_cycle();
        let overflow_next = self.overflow.peek().map(|Reverse(k)| k.cycle);
        let (cycle, from_overflow) = match (wheel_next, overflow_next) {
            (None, None) => return None,
            (Some(w), None) => (w, false),
            (None, Some(o)) => (o, true),
            // Tie: overflow entries at a cycle are always older than wheel
            // entries at the same cycle (see module docs), so FIFO order
            // demands the overflow drains first.
            (Some(w), Some(o)) => (w.min(o), o <= w),
        };
        let r = if from_overflow {
            let Reverse(k) = self.overflow.pop().expect("overflow key");
            SlotRef {
                idx: k.idx,
                gen: k.gen,
            }
        } else {
            let bucket = self.bucket_index(cycle);
            let b = &mut self.wheel[bucket];
            let idx = b.head;
            let Slot { next, gen, .. } = self.slots[idx as usize];
            b.head = next;
            if next == NIL {
                b.tail = NIL;
                self.clear_bit(bucket);
            }
            self.wheel_len -= 1;
            SlotRef { idx, gen }
        };
        self.len -= 1;
        self.cursor = self.cursor.max(cycle);
        let (cycle, event) = self.free_slot(r);
        Some((cycle, event))
    }

    /// Returns the cycle of the earliest pending event without removing it.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        match (
            self.next_wheel_cycle(),
            self.overflow.peek().map(|Reverse(k)| k.cycle),
        ) {
            (None, None) => None,
            (Some(w), None) => Some(w),
            (None, Some(o)) => Some(o),
            (Some(w), Some(o)) => Some(w.min(o)),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pending events in the far-future/retro overflow tier
    /// (calendar diagnostics).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// `(arena slots, free-list holes)` (calendar diagnostics).
    pub fn arena_stats(&self) -> (usize, usize) {
        (self.slots.len(), self.free.len())
    }

    /// Discards all pending events (the sequence counter keeps advancing so
    /// determinism is preserved across clears).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            if slot.event.take().is_some() {
                slot.gen = slot.gen.wrapping_add(1);
            }
        }
        self.free.clear();
        self.free.extend((0..self.slots.len() as u32).rev());
        self.wheel.fill(EMPTY_BUCKET);
        self.occupancy = [0; WHEEL_CYCLES / 64];
        self.overflow.clear();
        self.wheel_len = 0;
        self.len = 0;
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// Visits every pending event in unspecified order (arena order).
    ///
    /// This is an inspection aid for invariant checkers that need to answer
    /// "is any event still scheduled for X?" without draining the queue.
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, &E)> {
        self.slots
            .iter()
            .filter_map(|s| s.event.as_ref().map(|e| (s.cycle, e)))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 'c');
        q.schedule(10, 'a');
        q.schedule(20, 'b');
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((20, 'b')));
        assert_eq!(q.pop(), Some((30, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(42, ());
        assert_eq!(q.peek_cycle(), Some(42));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((42, ())));
        assert!(q.is_empty());
        assert_eq!(q.peek_cycle(), None);
    }

    #[test]
    fn clear_preserves_sequence_monotonicity() {
        let mut q = EventQueue::new();
        q.schedule(1, 0);
        q.schedule(1, 1);
        let before = q.scheduled_total();
        q.clear();
        assert!(q.is_empty());
        q.schedule(1, 2);
        assert_eq!(q.scheduled_total(), before + 1);
    }

    #[test]
    fn iter_sees_all_pending_without_draining() {
        let mut q = EventQueue::new();
        q.schedule(3, 'a');
        q.schedule(1, 'b');
        q.schedule(2, 'c');
        let mut seen: Vec<_> = q.iter().map(|(c, &e)| (c, e)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 'b'), (2, 'c'), (3, 'a')]);
        assert_eq!(q.len(), 3, "iteration must not consume events");
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(10, "x");
        assert_eq!(q.pop(), Some((10, "x")));
        q.schedule(5, "y");
        q.schedule(15, "z");
        assert_eq!(q.pop(), Some((5, "y")));
        assert_eq!(q.pop(), Some((15, "z")));
    }

    #[test]
    fn far_future_overflow_pops_in_order() {
        let mut q = EventQueue::new();
        q.schedule(1_000_000, 'q'); // quiescence-style far event
        q.schedule(3, 'a');
        q.schedule(2_000_000, 'r');
        q.schedule(1_000_000, 's'); // same far cycle: FIFO
        assert!(q.overflow_len() >= 3, "far events must take the overflow");
        assert_eq!(q.pop(), Some((3, 'a')));
        assert_eq!(q.pop(), Some((1_000_000, 'q')));
        assert_eq!(q.pop(), Some((1_000_000, 's')));
        assert_eq!(q.pop(), Some((2_000_000, 'r')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_cycle_entering_the_horizon_keeps_fifo_against_new_ties() {
        let mut q = EventQueue::new();
        // 5000 is beyond the fresh horizon [0, 4096): overflow.
        q.schedule(5_000, "overflow-first");
        // Advance the cursor into [905, 5001): 5000 is now wheel-reachable.
        q.schedule(950, "advance");
        assert_eq!(q.pop(), Some((950, "advance")));
        q.schedule(5_000, "wheel-second");
        assert_eq!(q.pop(), Some((5_000, "overflow-first")));
        assert_eq!(q.pop(), Some((5_000, "wheel-second")));
    }

    #[test]
    fn retro_schedule_behind_the_cursor_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(10_000, "late");
        assert_eq!(q.pop(), Some((10_000, "late")));
        // The cursor now sits at 10_000; a retro event must still pop
        // before anything later, exactly as the heap behaved.
        q.schedule(400, "retro");
        q.schedule(10_001, "after");
        assert_eq!(q.peek_cycle(), Some(400));
        assert_eq!(q.pop(), Some((400, "retro")));
        assert_eq!(q.pop(), Some((10_001, "after")));
    }

    #[test]
    fn horizon_edge_cycles_land_correctly() {
        let mut q = EventQueue::new();
        q.schedule(WHEEL_CYCLES as u64 - 1, 'e'); // last wheel bucket
        q.schedule(WHEEL_CYCLES as u64, 'o'); // first overflow cycle
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.pop(), Some((WHEEL_CYCLES as u64 - 1, 'e')));
        assert_eq!(q.pop(), Some((WHEEL_CYCLES as u64, 'o')));
    }

    #[test]
    fn arena_reuses_freed_slots() {
        let mut q = EventQueue::with_capacity(4);
        for round in 0..10u64 {
            for i in 0..4u64 {
                q.schedule(round * 100 + i, i);
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        let (slots, holes) = q.arena_stats();
        assert_eq!(slots, 4, "steady-state churn must reuse freed slots");
        assert_eq!(holes, 4);
    }

    #[test]
    fn wraparound_keeps_order_across_many_revolutions() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for rev in 0..12u64 {
            let cycle = rev * (WHEEL_CYCLES as u64) + (rev * 37) % 1000;
            q.schedule(cycle, rev);
            expect.push((cycle, rev));
        }
        expect.sort_unstable();
        for (cycle, rev) in expect {
            assert_eq!(q.pop(), Some((cycle, rev)));
        }
        assert!(q.is_empty());
    }
}
