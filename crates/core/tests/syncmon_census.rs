//! The SyncMon's incrementally kept condition count must always equal a
//! scan of its condition slots, and its condition high-water mark a
//! brute-force running maximum, across every operation that adds or
//! removes entries.

use awg_core::{SyncMon, SyncMonConfig};
use awg_gpu::SyncCond;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Register { cond: SyncCond, wg: u32 },
    Take { cond: SyncCond, limit: usize },
    Remove { cond: SyncCond, wg: u32 },
    Evict { count: usize },
}

/// A small monitor so both the condition sets and the waiter list fill.
fn config() -> SyncMonConfig {
    SyncMonConfig {
        sets: 4,
        ways: 2,
        waiter_slots: 6,
        bloom_filters: 8,
    }
}

fn cond() -> impl Strategy<Value = SyncCond> {
    (0u64..6, 0i64..3).prop_map(|(line, expected)| SyncCond {
        addr: 64 * line,
        expected,
    })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (cond(), 0u32..12).prop_map(|(cond, wg)| Op::Register { cond, wg }),
        (cond(), 0usize..3).prop_map(|(cond, limit)| Op::Take { cond, limit }),
        (cond(), 0u32..12).prop_map(|(cond, wg)| Op::Remove { cond, wg }),
        (0usize..3).prop_map(|count| Op::Evict { count }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn census_matches_slot_scan(ops in prop::collection::vec(op(), 1..80)) {
        let mut mon = SyncMon::new(config());
        let mut running_max = 0;
        for (now, op) in ops.into_iter().enumerate() {
            match op {
                Op::Register { cond, wg } => {
                    mon.register(cond, wg, now as u64);
                }
                Op::Take { cond, limit } => {
                    mon.take_waiters(&cond, limit);
                }
                Op::Remove { cond, wg } => {
                    mon.remove_waiter(&cond, wg);
                }
                Op::Evict { count } => {
                    mon.evict_conditions(count);
                }
            }
            let scanned = mon.snapshot().len();
            running_max = running_max.max(scanned);
            prop_assert_eq!(mon.occupancy().0, scanned, "after {:?}", op);
            prop_assert_eq!(mon.high_water().0, running_max, "after {:?}", op);
        }
    }
}
