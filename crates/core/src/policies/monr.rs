//! MonR-All: enhanced hardware support — the SyncMon checks waiting
//! conditions as sync variables are updated, resuming all waiters of a met
//! condition (§IV.C.iv).
//!
//! Arming still happens via the separate `wait` instruction, so the Fig 10
//! window of vulnerability remains: an update that lands between the
//! program's condition check and the arming is missed, and only the
//! fallback timeout preserves forward progress.

use awg_gpu::{
    MonitorEntrySnapshot, MonitoredUpdate, PolicyCtx, PolicyFault, SchedPolicy, SyncCond, SyncFail,
    SyncStyle, TimeoutAction, WaitDirective, WaiterRecord, Wake, WgId,
};
use awg_sim::{Cycle, Stats};

use super::monitor::{self, MonitorCore, TrackOutcome};
use super::{DEFAULT_CP_TICK, DEFAULT_FALLBACK_TIMEOUT};

/// Condition-checking monitor armed by `wait`, resume-all.
#[derive(Debug)]
pub struct MonRAllPolicy {
    core: MonitorCore,
    fallback: Cycle,
    met_wakes: u64,
}

impl MonRAllPolicy {
    /// Creates the policy with the default fallback timeout.
    pub fn new() -> Self {
        Self::with_fallback(DEFAULT_FALLBACK_TIMEOUT)
    }

    /// Creates the policy with a custom fallback timeout.
    pub fn with_fallback(fallback: Cycle) -> Self {
        MonRAllPolicy {
            core: MonitorCore::new(),
            fallback,
            met_wakes: 0,
        }
    }
}

impl Default for MonRAllPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedPolicy for MonRAllPolicy {
    fn name(&self) -> &str {
        "MonR-All"
    }

    fn style(&self) -> SyncStyle {
        SyncStyle::WaitInst
    }

    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        debug_assert!(fail.via_wait_inst, "MonR expects wait-instruction arming");
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
        if !update.wrote || !update.monitored {
            return;
        }
        let woken =
            self.core
                .wake_conditions(ctx, update.addr, Some(update.new), usize::MAX, wakes);
        self.met_wakes += woken as u64;
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
        self.core.report(&monitor::MONR_REPORT, stats);
        let c = stats.counter("monr_met_wakes");
        stats.add(c, self.met_wakes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::CollectWakes;
    use awg_mem::{L2Config, L2};

    fn fail(wg: WgId, addr: u64, expected: i64) -> SyncFail {
        SyncFail {
            wg,
            cond: SyncCond { addr, expected },
            observed: 0,
            via_wait_inst: true,
        }
    }

    #[test]
    fn only_met_conditions_wake() {
        let mut p = MonRAllPolicy::new();
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let mut ctx = PolicyCtx {
            now: 0,
            l2: &mut l2,
            stats: &mut stats,
            pending_wgs: 0,
            ready_wgs: 0,
            swapped_waiting_wgs: 0,
            total_wgs: 8,
            journal: None,
        };
        p.on_sync_fail(&mut ctx, &fail(0, 64, 1));
        p.on_sync_fail(&mut ctx, &fail(1, 64, 2));
        p.on_sync_fail(&mut ctx, &fail(2, 64, 2));

        // Read access: no wakes (unlike MonRS).
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
        assert!(wakes.is_empty());

        // Write of 2 wakes exactly the two waiters expecting 2.
        let wakes = p.update_wakes(
            &mut ctx,
            &MonitoredUpdate {
                addr: 64,
                old: 0,
                new: 2,
                wrote: true,
                monitored: true,
                by_wg: 5,
            },
        );
        let mut wgs: Vec<WgId> = wakes.iter().map(|w| w.wg).collect();
        wgs.sort_unstable();
        assert_eq!(wgs, vec![1, 2]);
        assert!(ctx.l2.is_monitored(64), "waiter on value 1 remains");
    }
}
