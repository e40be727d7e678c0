//! Exponential backoff with `s_sleep` (§IV.C.i, Fig 7).
//!
//! "Sleep instructions have low hardware overhead … However, they support
//! limited timeout periods and do not wait for a specific event" — and
//! crucially they *do not release hardware resources*, so this policy
//! deadlocks in oversubscribed scenarios exactly like the Baseline.

use std::collections::HashMap;

use awg_gpu::{PolicyCtx, SchedPolicy, SyncCond, SyncFail, SyncStyle, WaitDirective, WgId};
use awg_sim::{Cycle, Stats};

/// Initial backoff interval in cycles (doubles per failed retry).
pub const BACKOFF_BASE: Cycle = 250;

/// Software exponential backoff: each failed check sleeps, doubling the
/// interval up to `max_interval` (the Fig 7 `Sleep-Xk` parameter).
#[derive(Debug, Clone)]
pub struct SleepBackoffPolicy {
    max_interval: Cycle,
    backoff: HashMap<WgId, (SyncCond, Cycle)>,
    sleeps: u64,
    slept_cycles: u64,
}

impl SleepBackoffPolicy {
    /// Creates the policy with the given maximum backoff interval.
    ///
    /// # Panics
    ///
    /// Panics if `max_interval == 0`.
    pub fn new(max_interval: Cycle) -> Self {
        assert!(max_interval > 0, "max interval must be positive");
        SleepBackoffPolicy {
            max_interval,
            backoff: HashMap::new(),
            sleeps: 0,
            slept_cycles: 0,
        }
    }

    /// The configured maximum interval.
    pub fn max_interval(&self) -> Cycle {
        self.max_interval
    }
}

impl SchedPolicy for SleepBackoffPolicy {
    fn name(&self) -> &str {
        "Sleep"
    }

    fn style(&self) -> SyncStyle {
        SyncStyle::WaitingAtomic
    }

    fn supports_wg_rescheduling(&self) -> bool {
        // `s_sleep` never releases hardware resources; like the Baseline,
        // this architecture cannot bring preempted WGs back.
        false
    }

    fn on_sync_fail(&mut self, _ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        let entry = self.backoff.entry(fail.wg).or_insert((fail.cond, 0));
        if entry.0 != fail.cond {
            // New synchronization episode: restart the backoff ladder.
            *entry = (fail.cond, 0);
        }
        let interval = if entry.1 == 0 {
            BACKOFF_BASE
        } else {
            (entry.1 * 2).min(self.max_interval)
        };
        entry.1 = interval;
        self.sleeps += 1;
        self.slept_cycles += interval;
        WaitDirective::SleepFor(interval)
    }

    fn on_wg_finished(&mut self, _ctx: &mut PolicyCtx<'_>, wg: WgId) {
        self.backoff.remove(&wg);
    }

    fn report(&self, stats: &mut Stats) {
        let c = stats.counter("sleep_backoff_sleeps");
        stats.add(c, self.sleeps);
        let c = stats.counter("sleep_backoff_slept_cycles");
        stats.add(c, self.slept_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awg_mem::{L2Config, L2};

    fn fail(wg: WgId, addr: u64, expected: i64) -> SyncFail {
        SyncFail {
            wg,
            cond: SyncCond { addr, expected },
            observed: 0,
            via_wait_inst: false,
        }
    }

    fn with_ctx<R>(f: impl FnOnce(&mut PolicyCtx<'_>) -> R) -> R {
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let mut ctx = PolicyCtx {
            now: 0,
            l2: &mut l2,
            stats: &mut stats,
            pending_wgs: 0,
            ready_wgs: 0,
            swapped_waiting_wgs: 0,
            total_wgs: 4,
            journal: None,
        };
        f(&mut ctx)
    }

    #[test]
    fn backoff_doubles_to_cap() {
        let mut p = SleepBackoffPolicy::new(1000);
        with_ctx(|ctx| {
            let mut intervals = Vec::new();
            for _ in 0..6 {
                match p.on_sync_fail(ctx, &fail(0, 64, 1)) {
                    WaitDirective::SleepFor(n) => intervals.push(n),
                    other => panic!("{other:?}"),
                }
            }
            assert_eq!(intervals, vec![250, 500, 1000, 1000, 1000, 1000]);
        });
    }

    #[test]
    fn new_condition_resets_ladder() {
        let mut p = SleepBackoffPolicy::new(100_000);
        with_ctx(|ctx| {
            p.on_sync_fail(ctx, &fail(0, 64, 1));
            p.on_sync_fail(ctx, &fail(0, 64, 1));
            match p.on_sync_fail(ctx, &fail(0, 128, 1)) {
                WaitDirective::SleepFor(n) => assert_eq!(n, BACKOFF_BASE),
                other => panic!("{other:?}"),
            }
        });
    }

    #[test]
    fn per_wg_independent_ladders() {
        let mut p = SleepBackoffPolicy::new(100_000);
        with_ctx(|ctx| {
            p.on_sync_fail(ctx, &fail(0, 64, 1));
            p.on_sync_fail(ctx, &fail(0, 64, 1));
            match p.on_sync_fail(ctx, &fail(1, 64, 1)) {
                WaitDirective::SleepFor(n) => assert_eq!(n, BACKOFF_BASE),
                other => panic!("{other:?}"),
            }
        });
    }

    #[test]
    fn reports_counters() {
        let mut p = SleepBackoffPolicy::new(1000);
        with_ctx(|ctx| {
            p.on_sync_fail(ctx, &fail(0, 64, 1));
        });
        let mut stats = Stats::new();
        p.report(&mut stats);
        assert_eq!(stats.get_by_name("sleep_backoff_sleeps"), Some(1));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_interval_rejected() {
        SleepBackoffPolicy::new(0);
    }
}
