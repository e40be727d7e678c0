//! MonRS-All: relaxed hardware support with *sporadic* notifications
//! (§IV.C.iii).
//!
//! The WG arms the SyncMon with a separate `wait` instruction; the
//! "simplistic SyncMon observes memory accesses and if a monitored address
//! is accessed it will notify corresponding waiting WGs to resume, without
//! checking their waiting condition". Every poll of a hot sync variable
//! therefore wakes every waiter — the source of the up-to-100× extra
//! dynamic atomics in Fig 9. The `wait` arming races with updates (Fig 10),
//! so waiting carries a fallback timeout.

use awg_gpu::{
    MonitorEntrySnapshot, MonitoredUpdate, PolicyCtx, PolicyFault, SchedPolicy, SyncCond, SyncFail,
    SyncStyle, TimeoutAction, WaitDirective, WaiterRecord, Wake, WgId,
};
use awg_sim::{Cycle, Stats};

use super::monitor::{self, MonitorCore, TrackOutcome};
use super::{DEFAULT_CP_TICK, DEFAULT_FALLBACK_TIMEOUT};

/// Sporadic-notification monitor, resume-all.
#[derive(Debug)]
pub struct MonRsAllPolicy {
    core: MonitorCore,
    fallback: Cycle,
    sporadic_wakes: u64,
}

impl MonRsAllPolicy {
    /// Creates the policy with the default fallback timeout.
    pub fn new() -> Self {
        Self::with_fallback(DEFAULT_FALLBACK_TIMEOUT)
    }

    /// Creates the policy with a custom fallback timeout.
    pub fn with_fallback(fallback: Cycle) -> Self {
        MonRsAllPolicy {
            core: MonitorCore::new(),
            fallback,
            sporadic_wakes: 0,
        }
    }
}

#[cfg(test)]
impl MonRsAllPolicy {
    /// MonRS-All over a custom monitor stack.
    pub(crate) fn with_core(core: MonitorCore) -> Self {
        MonRsAllPolicy {
            core,
            ..Self::new()
        }
    }
}

impl Default for MonRsAllPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedPolicy for MonRsAllPolicy {
    fn name(&self) -> &str {
        "MonRS-All"
    }

    fn style(&self) -> SyncStyle {
        SyncStyle::WaitInst
    }

    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        debug_assert!(fail.via_wait_inst, "MonRS expects wait-instruction arming");
        match self.core.track(ctx, fail.cond, fail.wg) {
            TrackOutcome::MesaRetry => WaitDirective::Retry,
            _ => WaitDirective::Wait {
                release: ctx.oversubscribed(),
                timeout: Some(self.fallback),
            },
        }
    }

    fn on_monitored_update(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        update: &MonitoredUpdate,
        wakes: &mut Vec<Wake>,
    ) {
        // Sporadic: any access to a *monitored* address wakes every waiter
        // on it, values unchecked.
        if !update.monitored {
            return;
        }
        let woken = self
            .core
            .wake_conditions(ctx, update.addr, None, usize::MAX, wakes);
        self.sporadic_wakes += woken as u64;
    }

    fn on_wait_timeout(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        wg: WgId,
        _cond: &SyncCond,
    ) -> TimeoutAction {
        self.core.untrack(ctx, wg);
        TimeoutAction::Wake
    }

    fn on_wg_finished(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId) {
        self.core.untrack(ctx, wg);
    }

    fn cp_tick_period(&self) -> Option<Cycle> {
        Some(DEFAULT_CP_TICK)
    }

    fn on_cp_tick(&mut self, ctx: &mut PolicyCtx<'_>, wakes: &mut Vec<Wake>) {
        self.core.cp_tick(ctx, wakes);
    }

    fn on_fault(&mut self, ctx: &mut PolicyCtx<'_>, fault: &PolicyFault, _wakes: &mut Vec<Wake>) {
        self.core.inject_fault(ctx, fault);
    }

    fn monitor_snapshot(&self) -> Vec<MonitorEntrySnapshot> {
        self.core.snapshot()
    }

    fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
        self.core.for_each_waiter(visit);
    }

    fn journals_registry(&self) -> bool {
        true
    }

    fn for_each_record_of(&self, wg: WgId, visit: &mut dyn FnMut(WaiterRecord)) {
        self.core.for_each_record_of(wg, visit);
    }

    fn report(&self, stats: &mut Stats) {
        self.core.report(&monitor::MONRS_REPORT, stats);
        let c = stats.counter("monrs_sporadic_wakes");
        stats.add(c, self.sporadic_wakes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::CollectWakes;
    use awg_mem::{L2Config, L2};

    fn setup() -> (L2, Stats) {
        (L2::new(L2Config::isca2020()), Stats::new())
    }

    macro_rules! ctx {
        ($l2:expr, $stats:expr) => {
            PolicyCtx {
                now: 0,
                l2: &mut $l2,
                stats: &mut $stats,
                pending_wgs: 0,
                ready_wgs: 0,
                swapped_waiting_wgs: 0,
                total_wgs: 8,
                journal: None,
            }
        };
    }

    fn fail(wg: WgId, addr: u64, expected: i64) -> SyncFail {
        SyncFail {
            wg,
            cond: SyncCond { addr, expected },
            observed: 0,
            via_wait_inst: true,
        }
    }

    #[test]
    fn any_access_wakes_all_waiters() {
        let mut p = MonRsAllPolicy::new();
        let (mut l2, mut stats) = setup();
        let mut ctx = ctx!(l2, stats);
        p.on_sync_fail(&mut ctx, &fail(0, 64, 1));
        p.on_sync_fail(&mut ctx, &fail(1, 64, 2));
        // A read-only access (wrote=false, value unchanged) still wakes both.
        let wakes = p.update_wakes(
            &mut ctx,
            &MonitoredUpdate {
                addr: 64,
                old: 0,
                new: 0,
                wrote: false,
                monitored: true,
                by_wg: 5,
            },
        );
        let mut wgs: Vec<WgId> = wakes.iter().map(|w| w.wg).collect();
        wgs.sort_unstable();
        assert_eq!(wgs, vec![0, 1]);
        assert!(!ctx.l2.is_monitored(64), "no waiters left");
    }

    #[test]
    fn waits_with_fallback_timeout() {
        let mut p = MonRsAllPolicy::with_fallback(7777);
        let (mut l2, mut stats) = setup();
        let mut ctx = ctx!(l2, stats);
        match p.on_sync_fail(&mut ctx, &fail(0, 64, 1)) {
            WaitDirective::Wait { release, timeout } => {
                assert!(!release);
                assert_eq!(timeout, Some(7777));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn timeout_untracks_and_wakes() {
        let mut p = MonRsAllPolicy::new();
        let (mut l2, mut stats) = setup();
        let mut ctx = ctx!(l2, stats);
        let f = fail(0, 64, 1);
        p.on_sync_fail(&mut ctx, &f);
        assert_eq!(p.on_wait_timeout(&mut ctx, 0, &f.cond), TimeoutAction::Wake);
        // After untracking, updates wake nobody.
        let wakes = p.update_wakes(
            &mut ctx,
            &MonitoredUpdate {
                addr: 64,
                old: 0,
                new: 1,
                wrote: true,
                monitored: true,
                by_wg: 5,
            },
        );
        assert!(wakes.is_empty());
    }
}
