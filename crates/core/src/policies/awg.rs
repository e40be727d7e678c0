//! AWG — Autonomous Work-Groups, the paper's final design (§IV.E, §V).
//!
//! AWG is MonNR plus two predictors:
//!
//! * **Resume-count prediction** (§V.A): per-address counting Bloom filters
//!   count unique updates. A met condition with multiple waiters resumes
//!   *all* of them when the address has seen more than two unique updates
//!   (global-barrier signature), and *one at a time* when it has seen at
//!   most two (mutex signature). Mispredictions are repaired by the stalled
//!   WGs' timeouts.
//! * **Stall-time prediction** (§IV.B): before context switching a waiting
//!   WG out, AWG stalls it for the predicted time to condition-met (an EWMA
//!   of observed met latencies per address) and only switches if the
//!   prediction expires unmet.

use awg_gpu::{
    MonitorEntrySnapshot, MonitoredUpdate, PolicyCtx, PolicyFault, SchedPolicy, SyncCond, SyncFail,
    SyncStyle, TimeoutAction, WaitDirective, WaiterRecord, Wake, WgId,
};
use awg_mem::Addr;
use awg_sim::{Cycle, DistId, Ewma, FastMap, HistId, Stats};

use super::monitor::{self, MonitorCore, TrackOutcome};
use super::{DEFAULT_CP_TICK, DEFAULT_FALLBACK_TIMEOUT};

/// Minimum predicted stall (floor for the EWMA-driven stall period).
const MIN_PREDICTED_STALL: Cycle = 500;

/// Default prediction before any condition-met sample exists.
const DEFAULT_PREDICTION: Cycle = 4_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Stalling for the predicted period; expiry escalates to a context
    /// switch.
    PredictStall,
    /// Final waiting phase; expiry wakes the WG (Mesa retry).
    Fallback,
}

/// The AWG policy.
#[derive(Debug)]
pub struct AwgPolicy {
    core: MonitorCore,
    fallback: Cycle,
    phases: FastMap<WgId, Phase>,
    met_latency: FastMap<Addr, Ewma>,
    global_latency: Ewma,
    resume_all_events: u64,
    resume_one_events: u64,
    escalations: u64,
    predict_enabled: bool,
    stall_predict_enabled: bool,
    /// Reused buffer for the conditions one update meets.
    met: Vec<SyncCond>,
    /// `awg_met_latency_cycles` and `awg_predicted_stall_cycles` in the
    /// run's registry, resolved at first use.
    met_latency_hist: Option<HistId>,
    predicted_stall_dist: Option<DistId>,
}

impl AwgPolicy {
    /// Creates AWG with the paper's configuration.
    pub fn new() -> Self {
        AwgPolicy {
            core: MonitorCore::new(),
            fallback: DEFAULT_FALLBACK_TIMEOUT,
            phases: FastMap::default(),
            met_latency: FastMap::default(),
            global_latency: Ewma::new(2),
            resume_all_events: 0,
            resume_one_events: 0,
            escalations: 0,
            predict_enabled: true,
            stall_predict_enabled: true,
            met: Vec::new(),
            met_latency_hist: None,
            predicted_stall_dist: None,
        }
    }

    /// Ablation: disable the Bloom resume-count predictor (always resume
    /// all, i.e. degrade toward MonNR-All).
    pub fn without_resume_prediction(mut self) -> Self {
        self.predict_enabled = false;
        self
    }

    /// Ablation: disable stall-time prediction (context switch immediately
    /// when oversubscribed).
    pub fn without_stall_prediction(mut self) -> Self {
        self.stall_predict_enabled = false;
        self
    }

    /// Custom fallback timeout.
    pub fn with_fallback(mut self, fallback: Cycle) -> Self {
        assert!(fallback > 0, "fallback must be positive");
        self.fallback = fallback;
        self
    }

    /// CP condition-check order (the §V.A fairness study).
    pub fn with_check_order(mut self, order: crate::cp::CheckOrder) -> Self {
        self.core.set_check_order(order);
        self
    }

    /// Custom SyncMon geometry and Monitor Log capacity (virtualization
    /// studies: a tiny SyncMon forces registrations through the Monitor
    /// Log and the CP's slow path; a tiny log forces Mesa retries).
    pub fn with_monitor_config(
        mut self,
        config: crate::syncmon::SyncMonConfig,
        log_capacity: usize,
    ) -> Self {
        self.core = MonitorCore::with_config(config, log_capacity);
        self
    }

    fn predicted_stall(&self, addr: Addr) -> Cycle {
        let raw = self
            .met_latency
            .get(&addr)
            .and_then(|e| e.value())
            .or_else(|| self.global_latency.value())
            .unwrap_or(DEFAULT_PREDICTION);
        raw.clamp(MIN_PREDICTED_STALL, self.fallback)
    }

    fn record_met_latency(&mut self, addr: Addr, latency: Cycle) {
        self.met_latency
            .entry(addr)
            .or_insert_with(|| Ewma::new(2))
            .record(latency);
        self.global_latency.record(latency);
    }
}

impl Default for AwgPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedPolicy for AwgPolicy {
    fn name(&self) -> &str {
        "AWG"
    }

    fn style(&self) -> SyncStyle {
        SyncStyle::WaitingAtomic
    }

    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        debug_assert!(!fail.via_wait_inst, "AWG uses waiting atomics");
        match self.core.track(ctx, fail.cond, fail.wg) {
            TrackOutcome::MesaRetry => WaitDirective::Retry,
            _ => {
                if ctx.oversubscribed() {
                    if self.stall_predict_enabled {
                        // Stall for the predicted met latency first; the
                        // timeout escalates to a context switch (§IV.B).
                        self.phases.insert(fail.wg, Phase::PredictStall);
                        let predicted = self.predicted_stall(fail.cond.addr);
                        let d = *self
                            .predicted_stall_dist
                            .get_or_insert_with(|| ctx.stats.dist("awg_predicted_stall_cycles"));
                        ctx.stats.sample(d, predicted);
                        WaitDirective::Wait {
                            release: false,
                            timeout: Some(predicted),
                        }
                    } else {
                        self.phases.insert(fail.wg, Phase::Fallback);
                        WaitDirective::Wait {
                            release: true,
                            timeout: Some(self.fallback),
                        }
                    }
                } else {
                    self.phases.insert(fail.wg, Phase::Fallback);
                    WaitDirective::Wait {
                        release: false,
                        timeout: Some(self.fallback),
                    }
                }
            }
        }
    }

    fn on_monitored_update(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        update: &MonitoredUpdate,
        wakes: &mut Vec<Wake>,
    ) {
        if !update.wrote {
            return;
        }
        // The SyncMon sees every bank access, so the Bloom filters record
        // update values whether or not the line is currently monitored —
        // synchronized arrival bursts (barriers) would otherwise commit
        // before the first waiter registers and starve the predictor.
        let unique = self.core.syncmon.record_update(update.addr, update.new);
        self.core
            .syncmon
            .conditions_met_into(update.addr, update.new, &mut self.met);
        for i in 0..self.met.len() {
            let cond = self.met[i];
            if let Some(registered_at) = self.core.syncmon.registered_at(&cond) {
                let latency = ctx.now.saturating_sub(registered_at);
                self.record_met_latency(update.addr, latency);
                let h = *self
                    .met_latency_hist
                    .get_or_insert_with(|| ctx.stats.hist("awg_met_latency_cycles"));
                ctx.stats.observe(h, latency);
            }
            let waiters = self.core.syncmon.waiter_count(&cond);
            let resume_all = !self.predict_enabled || waiters <= 1 || unique > 2;
            let limit = if resume_all { usize::MAX } else { 1 };
            if waiters > 1 {
                if resume_all {
                    self.resume_all_events += 1;
                } else {
                    self.resume_one_events += 1;
                }
            }
            let start = wakes.len();
            self.core.wake_cached(ctx, &cond, limit, wakes);
            for w in &wakes[start..] {
                self.phases.remove(&w.wg);
            }
        }
        self.met.clear();
    }

    fn observes_unmonitored_writes(&self) -> bool {
        // The Bloom filters record every write (see `on_monitored_update`).
        true
    }

    fn on_wait_timeout(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        wg: WgId,
        _cond: &SyncCond,
    ) -> TimeoutAction {
        match self.phases.get(&wg) {
            Some(Phase::PredictStall) => {
                self.phases.insert(wg, Phase::Fallback);
                self.escalations += 1;
                TimeoutAction::Escalate {
                    release: ctx.oversubscribed(),
                    timeout: Some(self.fallback),
                }
            }
            _ => {
                self.phases.remove(&wg);
                self.core.untrack(ctx, wg);
                TimeoutAction::Wake
            }
        }
    }

    fn on_wake_delivered(&mut self, _ctx: &mut PolicyCtx<'_>, wg: WgId, _cond: &SyncCond) {
        self.phases.remove(&wg);
    }

    fn on_wg_finished(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId) {
        self.phases.remove(&wg);
        self.core.untrack(ctx, wg);
    }

    fn cp_tick_period(&self) -> Option<Cycle> {
        Some(DEFAULT_CP_TICK)
    }

    fn on_cp_tick(&mut self, ctx: &mut PolicyCtx<'_>, wakes: &mut Vec<Wake>) {
        let start = wakes.len();
        self.core.cp_tick(ctx, wakes);
        for w in &wakes[start..] {
            self.phases.remove(&w.wg);
        }
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
        self.core.report(&monitor::AWG_REPORT, stats);
        for (name, value) in [
            ("awg_resume_all_events", self.resume_all_events),
            ("awg_resume_one_events", self.resume_one_events),
            ("awg_escalations", self.escalations),
            (
                "awg_predicted_stall_cycles",
                self.global_latency.value_or(DEFAULT_PREDICTION),
            ),
        ] {
            let c = stats.counter(name);
            stats.add(c, value);
        }
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
        ($ctx:ident, oversub = $over:expr, $body:block) => {{
            let mut l2 = L2::new(L2Config::isca2020());
            let mut stats = Stats::new();
            let mut $ctx = PolicyCtx {
                now: 0,
                l2: &mut l2,
                stats: &mut stats,
                pending_wgs: if $over { 4 } else { 0 },
                ready_wgs: 0,
                swapped_waiting_wgs: 0,
                total_wgs: 8,
                journal: None,
            };
            $body
        }};
    }

    #[test]
    fn barrier_signature_resumes_all() {
        let mut p = AwgPolicy::new();
        with_ctx!(ctx, oversub = false, {
            for wg in 0..4 {
                p.on_sync_fail(&mut ctx, &fail(wg, 64, 4));
            }
            // Barrier arrivals: many unique counter values.
            for v in 1..=3 {
                assert!(p.update_wakes(&mut ctx, &update(64, v)).is_empty());
            }
            let wakes = p.update_wakes(&mut ctx, &update(64, 4));
            assert_eq!(wakes.len(), 4, "barrier: resume all at once");
        });
    }

    #[test]
    fn mutex_signature_resumes_one() {
        let mut p = AwgPolicy::new();
        with_ctx!(ctx, oversub = false, {
            for wg in 0..4 {
                p.on_sync_fail(&mut ctx, &fail(wg, 64, 0));
            }
            // Mutex: at most two unique values (locked/unlocked).
            let wakes = p.update_wakes(&mut ctx, &update(64, 0));
            assert_eq!(wakes.len(), 1, "mutex: resume one");
            assert_eq!(wakes[0].wg, 0);
        });
    }

    #[test]
    fn resume_prediction_ablation_always_resumes_all() {
        let mut p = AwgPolicy::new().without_resume_prediction();
        with_ctx!(ctx, oversub = false, {
            for wg in 0..4 {
                p.on_sync_fail(&mut ctx, &fail(wg, 64, 0));
            }
            let wakes = p.update_wakes(&mut ctx, &update(64, 0));
            assert_eq!(wakes.len(), 4);
        });
    }

    #[test]
    fn oversubscribed_stalls_then_escalates() {
        let mut p = AwgPolicy::new();
        with_ctx!(ctx, oversub = true, {
            let d = p.on_sync_fail(&mut ctx, &fail(0, 64, 1));
            match d {
                WaitDirective::Wait { release, timeout } => {
                    assert!(!release, "predicted stall keeps residency first");
                    assert!(timeout.is_some());
                }
                other => panic!("{other:?}"),
            }
            let cond = SyncCond {
                addr: 64,
                expected: 1,
            };
            match p.on_wait_timeout(&mut ctx, 0, &cond) {
                TimeoutAction::Escalate { release, timeout } => {
                    assert!(release, "escalation context switches");
                    assert!(timeout.is_some());
                }
                other => panic!("{other:?}"),
            }
            // Second expiry wakes (Mesa retry).
            assert_eq!(p.on_wait_timeout(&mut ctx, 0, &cond), TimeoutAction::Wake);
        });
    }

    #[test]
    fn stall_prediction_ablation_switches_immediately() {
        let mut p = AwgPolicy::new().without_stall_prediction();
        with_ctx!(ctx, oversub = true, {
            match p.on_sync_fail(&mut ctx, &fail(0, 64, 1)) {
                WaitDirective::Wait { release, .. } => assert!(release),
                other => panic!("{other:?}"),
            }
        });
    }

    #[test]
    fn met_latency_feeds_prediction() {
        let mut p = AwgPolicy::new();
        with_ctx!(ctx, oversub = false, {
            p.on_sync_fail(&mut ctx, &fail(0, 64, 1));
            ctx.now = 9_000;
            p.update_wakes(&mut ctx, &update(64, 1));
        });
        assert_eq!(p.predicted_stall(64), 9_000.clamp(500, p.fallback));
        // Unknown addresses inherit the global EWMA.
        assert_eq!(p.predicted_stall(999_936), 9_000);
    }

    #[test]
    fn bloom_signature_persists_across_episodes() {
        // The predictor keeps an address's update signature between waiting
        // episodes: barrier waiters re-register in bursts that commit after
        // the arrivals, so a per-episode reset would starve the resume-all
        // prediction (observed as fallback-timeout stalls).
        let mut p = AwgPolicy::new();
        with_ctx!(ctx, oversub = false, {
            p.on_sync_fail(&mut ctx, &fail(0, 64, 3));
            for v in 1..=3 {
                p.update_wakes(&mut ctx, &update(64, v));
            }
            assert_eq!(p.core.syncmon.unique_updates(64), 3, "signature kept");
            // Next episode: the burst re-registers and immediately benefits.
            for wg in 0..4 {
                p.on_sync_fail(&mut ctx, &fail(wg, 64, 4));
            }
            let wakes = p.update_wakes(&mut ctx, &update(64, 4));
            assert_eq!(wakes.len(), 4, "resume-all from persistent signature");
        });
    }

    #[test]
    fn unmonitored_updates_still_feed_the_bloom() {
        let mut p = AwgPolicy::new();
        with_ctx!(ctx, oversub = false, {
            // No waiter registered yet: the update is unmonitored but the
            // SyncMon (sitting at the L2 banks) records it anyway.
            let u = MonitoredUpdate {
                monitored: false,
                ..update(64, 7)
            };
            p.update_wakes(&mut ctx, &u);
            assert_eq!(p.core.syncmon.unique_updates(64), 1);
        });
    }
}
