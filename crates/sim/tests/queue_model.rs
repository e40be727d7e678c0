//! Model-based battery for the calendar-queue [`EventQueue`].
//!
//! The production queue is a 4096-cycle timer wheel with a binary-heap
//! overflow tier and an arena/free-list slot store, each wheel bucket a
//! FIFO list linked through the arena's slots; the *model* here is
//! the data structure it replaced — a plain binary heap of
//! `(cycle, seq, payload)` with FIFO sequence tie-breaks. Every generated
//! interleaving drives both side by side and demands identical observable
//! behaviour: `pop` order (including same-cycle FIFO), `peek_cycle`,
//! `len`, and arena accounting.
//!
//! The op mix is tuned to hit the queue's structurally distinct regimes:
//! same-cycle bursts (a bucket list's `head`/`tail` and `next` links),
//! far-future schedules (the overflow tier beyond the 4096-cycle
//! horizon), retro schedules (behind the wheel cursor, also overflow),
//! same-cycle ties split across the two tiers (an overflow event whose
//! cycle later enters the horizon, then a wheel event at that cycle),
//! and wheel wraparound (popping across many revolutions).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use awg_sim::{Cycle, EventQueue};
use proptest::prelude::*;

/// Width of the production wheel's horizon, in cycles.
const HORIZON: u64 = 4096;

/// One step of a generated interleaving. Offsets are relative to the
/// latest popped cycle, so the same op list exercises the wheel wherever
/// the cursor happens to sit.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule one event `offset` cycles ahead (0..4096 stays on the
    /// wheel; an offset of 0 lands on the cursor's own bucket).
    Near(u64),
    /// Schedule a same-cycle burst of `count` events `offset` ahead,
    /// exercising FIFO order within one bucket.
    Burst(u8, u64),
    /// Schedule beyond the wheel horizon, into the overflow tier.
    Far(u64),
    /// Schedule behind the current cycle (also routed to overflow).
    Retro(u64),
    /// Schedule one event `offset` (at least the horizon) ahead, into the
    /// overflow tier; pop, checking each event, until a stepping-stone
    /// event brings that cycle inside the horizon; then schedule a second
    /// event at the same cycle, which lands on the wheel. The pair must
    /// still pop in schedule order: overflow before wheel.
    FarThenWheelTie(u64),
    /// Pop up to `count` events, checking each against the model.
    Pop(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4096).prop_map(Op::Near),
        (2u8..6, 0u64..64).prop_map(|(n, off)| Op::Burst(n, off)),
        (4096u64..300_000).prop_map(Op::Far),
        (1u64..10_000).prop_map(Op::Retro),
        (HORIZON..100_000).prop_map(Op::FarThenWheelTie),
        (1u8..12).prop_map(Op::Pop),
    ]
}

/// The reference model: exactly the semantics of the original
/// `BinaryHeap` engine — min by `(cycle, seq)`, seq assigned in schedule
/// order and monotonically increasing forever.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    seq: u64,
}

impl HeapModel {
    fn schedule(&mut self, at: Cycle, payload: u32) {
        self.heap.push(Reverse((at, self.seq, payload)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Cycle, u32)> {
        self.heap.pop().map(|Reverse((c, _, p))| (c, p))
    }

    fn peek_cycle(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse((c, _, _))| *c)
    }
}

/// Drives `ops` through the production queue and the heap model and
/// checks every observable after every step.
fn run_interleaving(ops: &[Op]) {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut model = HeapModel::default();
    let mut now: Cycle = 0;
    let mut next_payload: u32 = 0;
    let mut saw_overflow = false;
    let mut saw_cross_tier_tie = false;

    let schedule = |q: &mut EventQueue<u32>, model: &mut HeapModel, at, payload| {
        q.schedule(at, payload);
        model.schedule(at, payload);
    };

    for op in ops {
        match *op {
            Op::Near(off) | Op::Far(off) => {
                schedule(&mut q, &mut model, now + off, next_payload);
                next_payload += 1;
            }
            Op::Burst(count, off) => {
                for _ in 0..count {
                    schedule(&mut q, &mut model, now + off, next_payload);
                    next_payload += 1;
                }
            }
            Op::Retro(back) => {
                schedule(&mut q, &mut model, now.saturating_sub(back), next_payload);
                next_payload += 1;
            }
            Op::FarThenWheelTie(off) => {
                let at = now + off;
                let before = q.overflow_len();
                schedule(&mut q, &mut model, at, next_payload);
                next_payload += 1;
                let far_in_overflow = q.overflow_len() == before + 1;
                // Popping this stone moves the cursor to within one
                // horizon of `at`.
                let stone = next_payload;
                schedule(&mut q, &mut model, at - (HORIZON - 1), stone);
                next_payload += 1;
                loop {
                    let got = q.pop();
                    assert_eq!(got, model.pop(), "pop diverged from the heap model");
                    let (c, payload) = got.expect("the stepping stone is pending");
                    now = now.max(c);
                    if payload == stone {
                        break;
                    }
                }
                let before = q.overflow_len();
                schedule(&mut q, &mut model, at, next_payload);
                next_payload += 1;
                saw_cross_tier_tie |= far_in_overflow && q.overflow_len() == before;
            }
            Op::Pop(count) => {
                for _ in 0..count {
                    let got = q.pop();
                    let want = model.pop();
                    assert_eq!(got, want, "pop diverged from the heap model");
                    if let Some((c, _)) = got {
                        now = now.max(c);
                    }
                }
            }
        }

        // Step-wise observables.
        assert_eq!(q.len(), model.heap.len());
        assert_eq!(q.is_empty(), model.heap.is_empty());
        assert_eq!(q.peek_cycle(), model.peek_cycle());
        let (slots, holes) = q.arena_stats();
        assert_eq!(slots - holes, q.len(), "arena accounting leak");
        saw_overflow |= q.overflow_len() > 0;
        assert!(q.overflow_len() <= q.len());
    }

    // Drain whatever is left: total order must match to the last event.
    loop {
        let got = q.pop();
        let want = model.pop();
        assert_eq!(got, want, "drain diverged from the heap model");
        if got.is_none() {
            break;
        }
    }
    assert!(q.is_empty());

    // The op mix should actually reach the overflow tier in any run that
    // scheduled far-future work; if it scheduled none, this is vacuous.
    let scheduled_far = ops.iter().any(|o| matches!(o, Op::Far(_)));
    if scheduled_far {
        assert!(saw_overflow, "far-future ops never reached the overflow");
    }
    // The cursor is always the latest popped cycle, so every tie op splits
    // its pair across the tiers.
    let tie = ops.iter().any(|o| matches!(o, Op::FarThenWheelTie(_)));
    if tie {
        assert!(saw_cross_tier_tie, "tie ops never split across the tiers");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleavings across all regimes match the heap model.
    #[test]
    fn calendar_queue_matches_heap_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        run_interleaving(&ops);
    }

    /// Pure same-cycle bursts: FIFO within one bucket at any offset.
    #[test]
    fn same_cycle_bursts_stay_fifo(
        off in 0u64..4096,
        count in 1u8..40,
        pops in 1u8..40,
    ) {
        let ops = vec![Op::Burst(count, off), Op::Pop(pops), Op::Burst(count, off)];
        run_interleaving(&ops);
    }
}

/// An overflow event and a wheel event at one cycle pop in schedule
/// order, including behind other same-cycle work and after more pops.
#[test]
fn cross_tier_tie_pops_overflow_first() {
    run_interleaving(&[
        Op::Near(7),
        Op::FarThenWheelTie(HORIZON),
        Op::FarThenWheelTie(50_000),
        Op::Burst(3, 4095),
        Op::Pop(2),
        Op::FarThenWheelTie(HORIZON + 1),
        Op::Pop(u8::MAX),
    ]);
}

/// A long deterministic soak crossing the wheel many times over, with all
/// op kinds interleaved round-robin — catches wraparound bookkeeping that
/// short random runs might miss.
#[test]
fn deterministic_wheel_revolution_soak() {
    let mut ops = Vec::new();
    for i in 0u64..400 {
        ops.push(Op::Near((i * 37) % 4096));
        ops.push(Op::Far(4096 + (i * 911) % 40_000));
        ops.push(Op::Burst(3, i % 17));
        if i % 3 == 0 {
            ops.push(Op::Retro(1 + i % 257));
        }
        if i % 5 == 0 {
            ops.push(Op::FarThenWheelTie(HORIZON + (i * 131) % 20_000));
        }
        ops.push(Op::Pop(4));
    }
    ops.push(Op::Pop(u8::MAX));
    run_interleaving(&ops);
}
