//! Failure injection: a policy wrapper that perturbs resume notifications.
//!
//! AWG's liveness argument (§V.A) is that *every* waiting WG carries a
//! fallback timeout, so lost or misdirected SyncMon notifications degrade
//! performance, never forward progress. [`ChaosWrap`] makes that claim
//! testable: it deterministically perturbs every `n`-th wake the inner
//! policy issues — dropping, delaying, or duplicating it — emulating faulty
//! resume plumbing between the SyncMon, the dispatcher, and the CUs.
//! [`DropWakes`] is the historical drop-only alias.

use awg_gpu::{
    MonitorEntrySnapshot, MonitoredUpdate, PolicyCtx, PolicyFault, SchedPolicy, SyncCond, SyncFail,
    SyncStyle, TimeoutAction, WaitDirective, WaiterRecord, Wake, WgId,
};
use awg_sim::{Cycle, Stats};

/// What happens to each selected wake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// The wake is silently discarded (the lost-notification scenario).
    Drop,
    /// The wake is late by this many extra cycles.
    Delay(Cycle),
    /// The wake is delivered twice (the staleness tokens must absorb the
    /// duplicate).
    Duplicate,
}

impl ChaosMode {
    fn stat_name(&self) -> &'static str {
        match self {
            ChaosMode::Drop => "chaos_wakes_dropped",
            ChaosMode::Delay(_) => "chaos_wakes_delayed",
            ChaosMode::Duplicate => "chaos_wakes_duplicated",
        }
    }
}

/// Wraps a policy and perturbs every `n`-th wake it issues.
#[derive(Debug)]
pub struct ChaosWrap<P> {
    inner: P,
    every_nth: u64,
    mode: ChaosMode,
    seen: u64,
    perturbed: u64,
}

/// The drop-only wrapper, kept as a thin alias: `DropWakes::new(p, n)`
/// still drops every `n`-th wake.
pub type DropWakes<P> = ChaosWrap<P>;

impl<P: SchedPolicy> ChaosWrap<P> {
    /// Drops every `every_nth` wake (1 = drop all, 2 = drop half, …).
    ///
    /// # Panics
    ///
    /// Panics if `every_nth == 0`.
    pub fn new(inner: P, every_nth: u64) -> Self {
        Self::with_mode(inner, every_nth, ChaosMode::Drop)
    }

    /// Applies `mode` to every `every_nth` wake.
    ///
    /// # Panics
    ///
    /// Panics if `every_nth == 0`.
    pub fn with_mode(inner: P, every_nth: u64, mode: ChaosMode) -> Self {
        assert!(every_nth > 0, "perturbation period must be positive");
        ChaosWrap {
            inner,
            every_nth,
            mode,
            seen: 0,
            perturbed: 0,
        }
    }

    /// Number of wakes perturbed so far.
    pub fn perturbed(&self) -> u64 {
        self.perturbed
    }

    /// Number of wakes swallowed so far (the historical `DropWakes`
    /// accessor; counts perturbations of any mode).
    pub fn dropped(&self) -> u64 {
        self.perturbed
    }

    /// Perturbs, in place, the wakes the inner policy appended to `wakes`
    /// behind the first `start` entries.
    fn perturb(&mut self, wakes: &mut Vec<Wake>, start: usize) {
        let mut i = start;
        while i < wakes.len() {
            self.seen += 1;
            if !self.seen.is_multiple_of(self.every_nth) {
                i += 1;
                continue;
            }
            self.perturbed += 1;
            match self.mode {
                ChaosMode::Drop => {
                    wakes.remove(i);
                }
                ChaosMode::Delay(extra) => {
                    wakes[i].delay += extra;
                    i += 1;
                }
                ChaosMode::Duplicate => {
                    let w = wakes[i];
                    wakes.insert(i + 1, Wake::after(w.wg, w.delay + 13));
                    i += 2;
                }
            }
        }
    }
}

impl<P: SchedPolicy> SchedPolicy for ChaosWrap<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn style(&self) -> SyncStyle {
        self.inner.style()
    }

    fn supports_wg_rescheduling(&self) -> bool {
        self.inner.supports_wg_rescheduling()
    }

    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        let directive = self.inner.on_sync_fail(ctx, fail);
        // Safety net stays intact: never forward an unbounded wait.
        match directive {
            WaitDirective::Wait {
                release,
                timeout: None,
            } => WaitDirective::Wait {
                release,
                timeout: Some(200_000),
            },
            other => other,
        }
    }

    fn on_monitored_update(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        update: &MonitoredUpdate,
        wakes: &mut Vec<Wake>,
    ) {
        let start = wakes.len();
        self.inner.on_monitored_update(ctx, update, wakes);
        self.perturb(wakes, start);
    }

    fn observes_unmonitored_writes(&self) -> bool {
        self.inner.observes_unmonitored_writes()
    }

    fn on_wait_timeout(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        wg: WgId,
        cond: &SyncCond,
    ) -> TimeoutAction {
        // Timeouts are the liveness backstop: never perturbed.
        self.inner.on_wait_timeout(ctx, wg, cond)
    }

    fn on_wake_delivered(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId, cond: &SyncCond) {
        self.inner.on_wake_delivered(ctx, wg, cond);
    }

    fn on_wg_finished(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId) {
        self.inner.on_wg_finished(ctx, wg);
    }

    fn cp_tick_period(&self) -> Option<Cycle> {
        self.inner.cp_tick_period()
    }

    fn on_cp_tick(&mut self, ctx: &mut PolicyCtx<'_>, wakes: &mut Vec<Wake>) {
        let start = wakes.len();
        self.inner.on_cp_tick(ctx, wakes);
        self.perturb(wakes, start);
    }

    fn on_fault(&mut self, ctx: &mut PolicyCtx<'_>, fault: &PolicyFault, wakes: &mut Vec<Wake>) {
        // Faults target the inner policy's monitor hardware; the wakes it
        // issues in response travel the same faulty plumbing.
        let start = wakes.len();
        self.inner.on_fault(ctx, fault, wakes);
        self.perturb(wakes, start);
    }

    fn monitor_snapshot(&self) -> Vec<MonitorEntrySnapshot> {
        self.inner.monitor_snapshot()
    }

    fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
        self.inner.for_each_waiter(visit);
    }

    // The wrapper perturbs wakes, never registrations.
    fn journals_registry(&self) -> bool {
        self.inner.journals_registry()
    }

    fn for_each_record_of(&self, wg: WgId, visit: &mut dyn FnMut(WaiterRecord)) {
        self.inner.for_each_record_of(wg, visit);
    }

    fn report(&self, stats: &mut Stats) {
        self.inner.report(stats);
        let c = stats.counter(self.mode.stat_name());
        stats.add(c, self.perturbed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::CollectWakes;
    use crate::policies::MonNrAllPolicy;
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

    fn update() -> MonitoredUpdate {
        MonitoredUpdate {
            addr: 64,
            old: 0,
            new: 1,
            wrote: true,
            monitored: true,
            by_wg: 9,
        }
    }

    fn four_waiters(p: &mut dyn SchedPolicy, l2: &mut L2, stats: &mut Stats) -> Vec<Wake> {
        let mut ctx = PolicyCtx {
            now: 0,
            l2,
            stats,
            pending_wgs: 0,
            ready_wgs: 0,
            swapped_waiting_wgs: 0,
            total_wgs: 8,
            journal: None,
        };
        for wg in 0..4 {
            p.on_sync_fail(&mut ctx, &fail(wg));
        }
        p.update_wakes(&mut ctx, &update())
    }

    #[test]
    fn drops_every_nth_wake() {
        let mut p = DropWakes::new(MonNrAllPolicy::new(), 2);
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let wakes = four_waiters(&mut p, &mut l2, &mut stats);
        assert_eq!(wakes.len(), 2, "half of four wakes dropped");
        assert_eq!(p.dropped(), 2);
        let mut stats = Stats::new();
        p.report(&mut stats);
        assert_eq!(stats.get_by_name("chaos_wakes_dropped"), Some(2));
    }

    #[test]
    fn delay_mode_keeps_every_wake_but_late() {
        let mut p = ChaosWrap::with_mode(MonNrAllPolicy::new(), 2, ChaosMode::Delay(1_000));
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let wakes = four_waiters(&mut p, &mut l2, &mut stats);
        assert_eq!(wakes.len(), 4, "delay must not lose wakes");
        assert_eq!(wakes.iter().filter(|w| w.delay >= 1_000).count(), 2);
        assert_eq!(p.perturbed(), 2);
        let mut stats = Stats::new();
        p.report(&mut stats);
        assert_eq!(stats.get_by_name("chaos_wakes_delayed"), Some(2));
    }

    #[test]
    fn duplicate_mode_adds_copies() {
        let mut p = ChaosWrap::with_mode(MonNrAllPolicy::new(), 2, ChaosMode::Duplicate);
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let wakes = four_waiters(&mut p, &mut l2, &mut stats);
        assert_eq!(wakes.len(), 6, "two of four wakes doubled");
        let mut stats = Stats::new();
        p.report(&mut stats);
        assert_eq!(stats.get_by_name("chaos_wakes_duplicated"), Some(2));
    }

    #[test]
    fn unbounded_waits_get_a_safety_timeout() {
        // A hypothetical inner policy issuing Wait{timeout: None} must not
        // reach the machine without a backstop once wakes can be dropped.
        #[derive(Debug)]
        struct NoTimeout;
        impl SchedPolicy for NoTimeout {
            fn name(&self) -> &str {
                "NoTimeout"
            }
            fn style(&self) -> SyncStyle {
                SyncStyle::WaitingAtomic
            }
            fn on_sync_fail(&mut self, _: &mut PolicyCtx<'_>, _: &SyncFail) -> WaitDirective {
                WaitDirective::Wait {
                    release: false,
                    timeout: None,
                }
            }
        }
        let mut p = DropWakes::new(NoTimeout, 1);
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
        match p.on_sync_fail(&mut ctx, &fail(0)) {
            WaitDirective::Wait { timeout, .. } => assert!(timeout.is_some()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn forwards_faults_and_snapshots_to_inner() {
        let mut p = ChaosWrap::with_mode(MonNrAllPolicy::new(), 2, ChaosMode::Drop);
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
        for wg in 0..2 {
            p.on_sync_fail(&mut ctx, &fail(wg));
        }
        assert_eq!(p.monitor_snapshot().len(), 1, "inner entry visible");
        p.fault_wakes(&mut ctx, &PolicyFault::EvictConditions { count: 8 });
        assert!(p.monitor_snapshot().is_empty(), "eviction reached inner");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        DropWakes::new(MonNrAllPolicy::new(), 0);
    }
}
