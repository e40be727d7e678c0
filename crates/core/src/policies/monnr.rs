//! MonNR: waiting atomics close the window of vulnerability (§IV.D–E).
//!
//! The expected-value operand rides with the atomic, so the SyncMon
//! registers the waiter *atomically* with the failed comparison — "updates
//! will not be missed". Two resume flavours:
//!
//! * **MonNR-All** resumes every waiter of a met condition — great for
//!   barriers, wasteful for contended mutexes;
//! * **MonNR-One** resumes a single waiter and keeps monitoring — great for
//!   mutexes, but barrier waiters must fall back to timeouts ("the rest of
//!   the waiters are resumed when a different update to the monitored
//!   address meets the condition or after a fixed timeout interval").

use awg_gpu::{
    MonitorEntrySnapshot, MonitoredUpdate, PolicyCtx, PolicyFault, SchedPolicy, SyncCond, SyncFail,
    SyncStyle, TimeoutAction, WaitDirective, WaiterRecord, Wake, WgId,
};
use awg_sim::{Cycle, Stats};

use super::monitor::{self, MonitorCore, TrackOutcome};
use super::{DEFAULT_CP_TICK, DEFAULT_FALLBACK_TIMEOUT};

/// How many waiters a met condition resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResumeFlavor {
    All,
    One,
}

/// Shared implementation of both MonNR flavours.
#[derive(Debug)]
struct MonNr {
    core: MonitorCore,
    flavor: ResumeFlavor,
    fallback: Cycle,
    met_wakes: u64,
}

impl MonNr {
    fn new(flavor: ResumeFlavor, fallback: Cycle) -> Self {
        MonNr {
            core: MonitorCore::new(),
            flavor,
            fallback,
            met_wakes: 0,
        }
    }

    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        debug_assert!(
            !fail.via_wait_inst,
            "MonNR uses waiting atomics, not wait instructions"
        );
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
        let limit = match self.flavor {
            ResumeFlavor::All => usize::MAX,
            ResumeFlavor::One => 1,
        };
        let woken = self
            .core
            .wake_conditions(ctx, update.addr, Some(update.new), limit, wakes);
        self.met_wakes += woken as u64;
    }

    fn on_wait_timeout(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId) -> TimeoutAction {
        self.core.untrack(ctx, wg);
        TimeoutAction::Wake
    }
}

/// Waiting atomics, resume-all (§IV.D).
#[derive(Debug)]
pub struct MonNrAllPolicy(MonNr);

impl MonNrAllPolicy {
    /// Creates the policy with the default fallback timeout.
    pub fn new() -> Self {
        Self::with_fallback(DEFAULT_FALLBACK_TIMEOUT)
    }

    /// Creates the policy with a custom fallback timeout.
    pub fn with_fallback(fallback: Cycle) -> Self {
        MonNrAllPolicy(MonNr::new(ResumeFlavor::All, fallback))
    }
}

impl Default for MonNrAllPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedPolicy for MonNrAllPolicy {
    fn name(&self) -> &str {
        "MonNR-All"
    }

    fn style(&self) -> SyncStyle {
        SyncStyle::WaitingAtomic
    }

    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        self.0.on_sync_fail(ctx, fail)
    }

    fn on_monitored_update(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        update: &MonitoredUpdate,
        wakes: &mut Vec<Wake>,
    ) {
        self.0.on_monitored_update(ctx, update, wakes);
    }

    fn on_wait_timeout(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        wg: WgId,
        _cond: &SyncCond,
    ) -> TimeoutAction {
        self.0.on_wait_timeout(ctx, wg)
    }

    fn on_wg_finished(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId) {
        self.0.core.untrack(ctx, wg);
    }

    fn cp_tick_period(&self) -> Option<Cycle> {
        Some(DEFAULT_CP_TICK)
    }

    fn on_cp_tick(&mut self, ctx: &mut PolicyCtx<'_>, wakes: &mut Vec<Wake>) {
        self.0.core.cp_tick(ctx, wakes);
    }

    fn on_fault(&mut self, ctx: &mut PolicyCtx<'_>, fault: &PolicyFault, _wakes: &mut Vec<Wake>) {
        self.0.core.inject_fault(ctx, fault);
    }

    fn monitor_snapshot(&self) -> Vec<MonitorEntrySnapshot> {
        self.0.core.snapshot()
    }

    fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
        self.0.core.for_each_waiter(visit);
    }

    fn journals_registry(&self) -> bool {
        true
    }

    fn for_each_record_of(&self, wg: WgId, visit: &mut dyn FnMut(WaiterRecord)) {
        self.0.core.for_each_record_of(wg, visit);
    }

    fn report(&self, stats: &mut Stats) {
        self.0.core.report(&monitor::MONNR_ALL_REPORT, stats);
        let c = stats.counter("monnr_all_met_wakes");
        stats.add(c, self.0.met_wakes);
    }
}

/// Waiting atomics, resume-one (§IV.E).
#[derive(Debug)]
pub struct MonNrOnePolicy(MonNr);

impl MonNrOnePolicy {
    /// Creates the policy with the default fallback timeout.
    pub fn new() -> Self {
        Self::with_fallback(DEFAULT_FALLBACK_TIMEOUT)
    }

    /// Creates the policy with a custom fallback timeout.
    pub fn with_fallback(fallback: Cycle) -> Self {
        MonNrOnePolicy(MonNr::new(ResumeFlavor::One, fallback))
    }
}

#[cfg(test)]
impl MonNrOnePolicy {
    /// MonNR-One over a custom monitor stack.
    pub(crate) fn with_core(core: MonitorCore) -> Self {
        let mut policy = Self::new();
        policy.0.core = core;
        policy
    }
}

impl Default for MonNrOnePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedPolicy for MonNrOnePolicy {
    fn name(&self) -> &str {
        "MonNR-One"
    }

    fn style(&self) -> SyncStyle {
        SyncStyle::WaitingAtomic
    }

    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        self.0.on_sync_fail(ctx, fail)
    }

    fn on_monitored_update(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        update: &MonitoredUpdate,
        wakes: &mut Vec<Wake>,
    ) {
        self.0.on_monitored_update(ctx, update, wakes);
    }

    fn on_wait_timeout(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        wg: WgId,
        _cond: &SyncCond,
    ) -> TimeoutAction {
        self.0.on_wait_timeout(ctx, wg)
    }

    fn on_wg_finished(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId) {
        self.0.core.untrack(ctx, wg);
    }

    fn cp_tick_period(&self) -> Option<Cycle> {
        Some(DEFAULT_CP_TICK)
    }

    fn on_cp_tick(&mut self, ctx: &mut PolicyCtx<'_>, wakes: &mut Vec<Wake>) {
        self.0.core.cp_tick(ctx, wakes);
    }

    fn on_fault(&mut self, ctx: &mut PolicyCtx<'_>, fault: &PolicyFault, _wakes: &mut Vec<Wake>) {
        self.0.core.inject_fault(ctx, fault);
    }

    fn monitor_snapshot(&self) -> Vec<MonitorEntrySnapshot> {
        self.0.core.snapshot()
    }

    fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
        self.0.core.for_each_waiter(visit);
    }

    fn journals_registry(&self) -> bool {
        true
    }

    fn for_each_record_of(&self, wg: WgId, visit: &mut dyn FnMut(WaiterRecord)) {
        self.0.core.for_each_record_of(wg, visit);
    }

    fn report(&self, stats: &mut Stats) {
        self.0.core.report(&monitor::MONNR_ONE_REPORT, stats);
        let c = stats.counter("monnr_one_met_wakes");
        stats.add(c, self.0.met_wakes);
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
            via_wait_inst: false,
        }
    }

    fn update(addr: u64, new: i64) -> MonitoredUpdate {
        MonitoredUpdate {
            addr,
            old: 0,
            new,
            wrote: true,
            monitored: true,
            by_wg: 99,
        }
    }

    macro_rules! with_ctx {
        ($ctx:ident, $body:block) => {{
            let mut l2 = L2::new(L2Config::isca2020());
            let mut stats = Stats::new();
            let mut $ctx = PolicyCtx {
                now: 0,
                l2: &mut l2,
                stats: &mut stats,
                pending_wgs: 0,
                ready_wgs: 0,
                swapped_waiting_wgs: 0,
                total_wgs: 8,
                journal: None,
            };
            $body
        }};
    }

    #[test]
    fn all_flavor_wakes_every_waiter() {
        let mut p = MonNrAllPolicy::new();
        with_ctx!(ctx, {
            for wg in 0..4 {
                p.on_sync_fail(&mut ctx, &fail(wg, 64, 1));
            }
            let wakes = p.update_wakes(&mut ctx, &update(64, 1));
            assert_eq!(wakes.len(), 4);
            assert!(!ctx.l2.is_monitored(64));
        });
    }

    #[test]
    fn one_flavor_wakes_single_waiter_and_keeps_monitoring() {
        let mut p = MonNrOnePolicy::new();
        with_ctx!(ctx, {
            for wg in 0..4 {
                p.on_sync_fail(&mut ctx, &fail(wg, 64, 1));
            }
            let wakes = p.update_wakes(&mut ctx, &update(64, 1));
            assert_eq!(wakes.len(), 1);
            assert_eq!(wakes[0].wg, 0, "FIFO order");
            assert!(ctx.l2.is_monitored(64), "remaining waiters keep the bit");
            // A second met update wakes the next one.
            let wakes = p.update_wakes(&mut ctx, &update(64, 1));
            assert_eq!(wakes[0].wg, 1);
        });
    }

    #[test]
    fn non_matching_update_wakes_nobody() {
        let mut p = MonNrAllPolicy::new();
        with_ctx!(ctx, {
            p.on_sync_fail(&mut ctx, &fail(0, 64, 1));
            assert!(p.update_wakes(&mut ctx, &update(64, 7)).is_empty());
        });
    }

    #[test]
    fn leftover_waiters_time_out() {
        let mut p = MonNrOnePolicy::new();
        with_ctx!(ctx, {
            p.on_sync_fail(&mut ctx, &fail(0, 64, 1));
            p.on_sync_fail(&mut ctx, &fail(1, 64, 1));
            p.update_wakes(&mut ctx, &update(64, 1)); // wakes 0
            let cond = SyncCond {
                addr: 64,
                expected: 1,
            };
            assert_eq!(p.on_wait_timeout(&mut ctx, 1, &cond), TimeoutAction::Wake);
            assert!(!ctx.l2.is_monitored(64));
        });
    }
}
