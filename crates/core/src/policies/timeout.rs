//! The Timeout architecture (§IV.C.ii, Fig 8).
//!
//! "In the non-oversubscribed case, Timeout stalls a WG for a fixed
//! interval of time. … In the over-subscribed case, Timeout yields its
//! resources by context switching out for a fixed timeout interval." Simple
//! hardware, but "there is no single best static timeout interval".

use awg_gpu::{
    PolicyCtx, SchedPolicy, SyncCond, SyncFail, SyncStyle, TimeoutAction, WaitDirective, WgId,
};
use awg_sim::{Cycle, Stats};

/// Fixed-interval waiting, context switching when oversubscribed.
#[derive(Debug, Clone)]
pub struct TimeoutPolicy {
    interval: Cycle,
    stalls: u64,
    switches: u64,
    timeouts: u64,
}

impl TimeoutPolicy {
    /// Creates the policy with the given interval (the Fig 8 `Timeout-Xk`
    /// parameter).
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn new(interval: Cycle) -> Self {
        assert!(interval > 0, "interval must be positive");
        TimeoutPolicy {
            interval,
            stalls: 0,
            switches: 0,
            timeouts: 0,
        }
    }

    /// The configured interval.
    pub fn interval(&self) -> Cycle {
        self.interval
    }
}

impl SchedPolicy for TimeoutPolicy {
    fn name(&self) -> &str {
        "Timeout"
    }

    fn style(&self) -> SyncStyle {
        SyncStyle::WaitingAtomic
    }

    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, _fail: &SyncFail) -> WaitDirective {
        let release = ctx.oversubscribed();
        if release {
            self.switches += 1;
        } else {
            self.stalls += 1;
        }
        WaitDirective::Wait {
            release,
            timeout: Some(self.interval),
        }
    }

    fn on_wait_timeout(
        &mut self,
        _ctx: &mut PolicyCtx<'_>,
        _wg: WgId,
        _cond: &SyncCond,
    ) -> TimeoutAction {
        self.timeouts += 1;
        TimeoutAction::Wake
    }

    fn report(&self, stats: &mut Stats) {
        for (name, value) in [
            ("timeout_stalls", self.stalls),
            ("timeout_switches", self.switches),
            ("timeout_fires", self.timeouts),
        ] {
            let c = stats.counter(name);
            stats.add(c, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awg_mem::{L2Config, L2};

    fn fail(wg: WgId) -> SyncFail {
        SyncFail {
            wg,
            cond: SyncCond {
                addr: 64,
                expected: 1,
            },
            observed: 0,
            via_wait_inst: false,
        }
    }

    #[test]
    fn stalls_when_not_oversubscribed() {
        let mut p = TimeoutPolicy::new(20_000);
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
        assert_eq!(
            p.on_sync_fail(&mut ctx, &fail(0)),
            WaitDirective::Wait {
                release: false,
                timeout: Some(20_000)
            }
        );
    }

    #[test]
    fn switches_when_oversubscribed() {
        let mut p = TimeoutPolicy::new(10_000);
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let mut ctx = PolicyCtx {
            now: 0,
            l2: &mut l2,
            stats: &mut stats,
            pending_wgs: 3,
            ready_wgs: 0,
            swapped_waiting_wgs: 0,
            total_wgs: 8,
            journal: None,
        };
        assert_eq!(
            p.on_sync_fail(&mut ctx, &fail(0)),
            WaitDirective::Wait {
                release: true,
                timeout: Some(10_000)
            }
        );
    }

    #[test]
    fn timeout_always_wakes() {
        let mut p = TimeoutPolicy::new(10_000);
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
        let cond = SyncCond {
            addr: 64,
            expected: 1,
        };
        assert_eq!(p.on_wait_timeout(&mut ctx, 0, &cond), TimeoutAction::Wake);
        let mut stats = Stats::new();
        p.report(&mut stats);
        assert_eq!(stats.get_by_name("timeout_fires"), Some(1));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_interval_rejected() {
        TimeoutPolicy::new(0);
    }
}
