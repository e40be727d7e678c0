//! Shared plumbing for the monitor-based policies: SyncMon registration
//! with Monitor Log spill, CP draining, and monitored-bit lifetime.

use awg_gpu::{
    MonitorEntrySnapshot, PolicyCtx, PolicyFault, SyncCond, WaiterRecord, WaiterStructure, Wake,
    WgId,
};
use awg_mem::Addr;
use awg_sim::{FastMap, HistId, Stats};

use crate::cp::Cp;
use crate::monitorlog::{LogEntry, MonitorLog};
use crate::syncmon::{RegisterOutcome, SyncMon, SyncMonConfig};

/// Default Monitor Log capacity in entries.
pub const DEFAULT_LOG_CAPACITY: usize = 4096;

/// Entries the CP drains from the log per firmware tick.
pub const CP_DRAIN_PER_TICK: usize = 64;

/// How a registration ended up being tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackOutcome {
    /// Cached in the SyncMon (fast path).
    Cached,
    /// Spilled to the Monitor Log (CP slow path).
    Spilled,
    /// The Monitor Log was full: the WG must retry its atomic (Mesa).
    MesaRetry,
}

/// SyncMon + Monitor Log + CP, assembled the way every monitor policy uses
/// them (Fig 12).
#[derive(Debug)]
pub struct MonitorCore {
    /// The on-chip monitor.
    pub syncmon: SyncMon,
    /// The in-memory overflow log.
    pub log: MonitorLog,
    /// The CP firmware tables.
    pub cp: Cp,
    /// Where each waiting WG is tracked (for timeout/finish cleanup).
    /// Every insert and removal is journaled (`PolicyCtx::journal_change`).
    tracked: FastMap<WgId, (SyncCond, TrackOutcome)>,
    /// Reused buffer for the conditions one notification wakes.
    conds: Vec<SyncCond>,
    /// `monitor_wake_batch_size` in the run's registry, resolved at the
    /// first wake.
    batch_hist: Option<HistId>,
    mesa_retries: u64,
    wakes_issued: u64,
    chaos_evicted_waiters: u64,
    chaos_bloom_pollutions: u64,
}

impl MonitorCore {
    /// Creates the paper-sized monitor stack.
    pub fn new() -> Self {
        Self::with_config(SyncMonConfig::isca2020(), DEFAULT_LOG_CAPACITY)
    }

    /// Sets the CP's condition-check order (the §V.A fairness study).
    pub fn set_check_order(&mut self, order: crate::cp::CheckOrder) {
        self.cp.set_order(order);
    }

    /// Creates a custom-sized monitor stack (capacity ablations).
    pub fn with_config(config: SyncMonConfig, log_capacity: usize) -> Self {
        MonitorCore {
            syncmon: SyncMon::new(config),
            log: MonitorLog::new(log_capacity),
            cp: Cp::new(),
            tracked: FastMap::default(),
            conds: Vec::new(),
            batch_hist: None,
            mesa_retries: 0,
            wakes_issued: 0,
            chaos_evicted_waiters: 0,
            chaos_bloom_pollutions: 0,
        }
    }

    /// Registers `wg` waiting on `cond`, spilling as needed.
    pub fn track(&mut self, ctx: &mut PolicyCtx<'_>, cond: SyncCond, wg: WgId) -> TrackOutcome {
        match self.syncmon.register(cond, wg, ctx.now) {
            RegisterOutcome::Registered => {
                if ctx.l2.set_monitored(cond.addr) {
                    self.tracked.insert(wg, (cond, TrackOutcome::Cached));
                    ctx.journal_change(wg);
                    TrackOutcome::Cached
                } else {
                    // The L2 set is fully pinned: the SyncMon cannot observe
                    // this address, so fall back to the CP path.
                    self.syncmon.remove_waiter(&cond, wg);
                    self.spill(ctx, cond, wg)
                }
            }
            RegisterOutcome::CacheFull | RegisterOutcome::WaitersFull => self.spill(ctx, cond, wg),
        }
    }

    fn spill(&mut self, ctx: &mut PolicyCtx<'_>, cond: SyncCond, wg: WgId) -> TrackOutcome {
        if self.log.push(ctx.l2, ctx.now, LogEntry { cond, wg }) {
            self.tracked.insert(wg, (cond, TrackOutcome::Spilled));
            ctx.journal_change(wg);
            TrackOutcome::Spilled
        } else {
            self.mesa_retries += 1;
            TrackOutcome::MesaRetry
        }
    }

    /// Pops up to `limit` cached waiters of `cond`, appending them to
    /// `wakes` as immediate wakes, and maintains the monitored bit.
    /// Returns how many it woke.
    pub fn wake_cached(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        cond: &SyncCond,
        limit: usize,
        wakes: &mut Vec<Wake>,
    ) -> usize {
        let tracked = &mut self.tracked;
        let woken = self.syncmon.take_waiters_with(cond, limit, |wg| {
            tracked.remove(&wg);
            ctx.journal_change(wg);
            wakes.push(Wake::now(wg));
        });
        self.wakes_issued += woken as u64;
        if woken > 0 {
            let h = *self
                .batch_hist
                .get_or_insert_with(|| ctx.stats.hist("monitor_wake_batch_size"));
            ctx.stats.observe(h, woken as u64);
        }
        if !self.syncmon.addr_has_conditions(cond.addr) {
            ctx.l2.clear_monitored(cond.addr);
        }
        woken
    }

    /// Wakes up to `limit` cached waiters of each condition on `addr`:
    /// those `value` meets, or with `value == None` all of them (sporadic
    /// notification, values unchecked). Appends the wakes to `wakes` and
    /// returns how many it woke.
    pub(crate) fn wake_conditions(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        addr: Addr,
        value: Option<i64>,
        limit: usize,
        wakes: &mut Vec<Wake>,
    ) -> usize {
        let mut conds = std::mem::take(&mut self.conds);
        match value {
            Some(v) => self.syncmon.conditions_met_into(addr, v, &mut conds),
            None => self.syncmon.conditions_on_addr_into(addr, &mut conds),
        }
        let mut woken = 0;
        for cond in conds.drain(..) {
            woken += self.wake_cached(ctx, &cond, limit, wakes);
        }
        self.conds = conds;
        woken
    }

    /// Removes `wg`'s registration wherever it lives (timeout wake, finish).
    pub fn untrack(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId) {
        if let Some((cond, outcome)) = self.tracked.remove(&wg) {
            ctx.journal_change(wg);
            match outcome {
                TrackOutcome::Cached => {
                    self.syncmon.remove_waiter(&cond, wg);
                    if !self.syncmon.addr_has_conditions(cond.addr) {
                        ctx.l2.clear_monitored(cond.addr);
                    }
                }
                TrackOutcome::Spilled => {
                    // May still sit in the log; the CP drops stale entries
                    // when it drains them (the WG is no longer tracked).
                    self.cp.remove_wg(wg);
                }
                TrackOutcome::MesaRetry => {}
            }
        }
    }

    /// Where `wg` is currently tracked.
    pub fn tracking_of(&self, wg: WgId) -> Option<(SyncCond, TrackOutcome)> {
        self.tracked.get(&wg).copied()
    }

    /// Visits every tracked waiter with the structure holding its
    /// registration, in map order, for the invariant oracle.
    pub fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
        for (&wg, &(cond, outcome)) in &self.tracked {
            visit(wg, record(cond, outcome));
        }
    }

    /// Visits `wg`'s record, if it is tracked: the per-WG lookup of a
    /// journaling policy.
    pub fn for_each_record_of(&self, wg: WgId, visit: &mut dyn FnMut(WaiterRecord)) {
        if let Some((cond, outcome)) = self.tracking_of(wg) {
            visit(record(cond, outcome));
        }
    }

    /// The CP firmware tick: drain the log, check spilled conditions with
    /// timed reads, and append to `wakes` the WGs whose conditions hold.
    pub fn cp_tick(&mut self, ctx: &mut PolicyCtx<'_>, wakes: &mut Vec<Wake>) {
        let entries = self.log.drain(ctx.l2, ctx.now, CP_DRAIN_PER_TICK);
        // Drop entries whose WG is no longer waiting (timeout already woke it).
        let live: Vec<LogEntry> = entries
            .into_iter()
            .filter(|e| {
                self.tracked
                    .get(&e.wg)
                    .is_some_and(|(c, o)| *c == e.cond && *o == TrackOutcome::Spilled)
            })
            .collect();
        self.cp.absorb(live);
        let met = self.cp.check_conditions(ctx.l2, ctx.now);
        for (_, wg) in met {
            if self.tracked.remove(&wg).is_some() {
                ctx.journal_change(wg);
                self.wakes_issued += 1;
                wakes.push(Wake::now(wg));
            }
        }
    }

    /// Applies a chaos-engine fault to the monitor hardware. Eviction cuts
    /// waiters loose from every structure — they hold no registration
    /// anywhere afterwards, so only their fallback timeouts can rescue
    /// them, which is exactly the liveness property under test. Bloom
    /// storms inflate unique-update counts to force false positives in
    /// AWG's resume predictor. Wakes no one.
    pub fn inject_fault(&mut self, ctx: &mut PolicyCtx<'_>, fault: &PolicyFault) {
        match *fault {
            PolicyFault::EvictConditions { count } => {
                for (cond, wgs) in self.syncmon.evict_conditions(count) {
                    for wg in wgs {
                        self.tracked.remove(&wg);
                        ctx.journal_change(wg);
                        self.chaos_evicted_waiters += 1;
                    }
                    if !self.syncmon.addr_has_conditions(cond.addr) {
                        ctx.l2.clear_monitored(cond.addr);
                    }
                }
            }
            PolicyFault::BloomStorm { unique_values } => {
                self.chaos_bloom_pollutions += self.syncmon.pollute_blooms(unique_values) as u64;
            }
        }
    }

    /// Live SyncMon condition entries, for forensic hang reports.
    pub fn snapshot(&self) -> Vec<MonitorEntrySnapshot> {
        self.syncmon
            .snapshot()
            .into_iter()
            .map(|(cond, waiters)| MonitorEntrySnapshot {
                addr: cond.addr,
                expected: cond.expected,
                waiters,
            })
            .collect()
    }

    /// Dumps monitor counters into the run statistics, under `names`.
    pub fn report(&self, names: &ReportNames, stats: &mut Stats) {
        let (conds_hw, waiters_hw, addrs_hw) = self.syncmon.high_water();
        let (appends, rejects, log_hw) = self.log.stats();
        let (drained, checks) = self.cp.stats();
        let values = [
            conds_hw as u64,
            waiters_hw as u64,
            addrs_hw as u64,
            self.syncmon.spill_count(),
            appends,
            rejects,
            log_hw as u64,
            drained,
            checks,
            self.cp.footprint().total(),
            self.mesa_retries,
            self.wakes_issued,
            self.chaos_evicted_waiters,
            self.chaos_bloom_pollutions,
        ];
        for (&name, value) in names.iter().zip(values) {
            let c = stats.counter(name);
            stats.add(c, value);
        }
    }
}

/// The names [`MonitorCore::report`] writes its counters under, in the
/// order it writes them.
pub type ReportNames = [&'static str; 14];

/// [`ReportNames`] under `prefix`, built at compile time.
macro_rules! report_names {
    ($prefix:literal) => {
        [
            concat!($prefix, "_syncmon_max_conditions"),
            concat!($prefix, "_syncmon_max_waiters"),
            concat!($prefix, "_syncmon_max_monitored_addrs"),
            concat!($prefix, "_syncmon_spills"),
            concat!($prefix, "_monitor_log_appends"),
            concat!($prefix, "_monitor_log_rejects"),
            concat!($prefix, "_monitor_log_high_water"),
            concat!($prefix, "_cp_entries_drained"),
            concat!($prefix, "_cp_condition_checks"),
            concat!($prefix, "_cp_footprint_bytes"),
            concat!($prefix, "_mesa_retries"),
            concat!($prefix, "_wakes_issued"),
            concat!($prefix, "_chaos_evicted_waiters"),
            concat!($prefix, "_chaos_bloom_pollutions"),
        ]
    };
}

/// AWG's monitor counter names.
pub(crate) const AWG_REPORT: ReportNames = report_names!("awg");
/// MonR-All's monitor counter names.
pub(crate) const MONR_REPORT: ReportNames = report_names!("monr");
/// MonNR-All's monitor counter names.
pub(crate) const MONNR_ALL_REPORT: ReportNames = report_names!("monnr_all");
/// MonNR-One's monitor counter names.
pub(crate) const MONNR_ONE_REPORT: ReportNames = report_names!("monnr_one");
/// MonRS-All's monitor counter names.
pub(crate) const MONRS_REPORT: ReportNames = report_names!("monrs");

/// The registry record of a tracked waiter. `MesaRetry` outcomes never
/// enter the tracking map, so every record is Cached or Spilled.
fn record(cond: SyncCond, outcome: TrackOutcome) -> WaiterRecord {
    let structure = match outcome {
        TrackOutcome::Cached => WaiterStructure::SyncMon,
        TrackOutcome::Spilled | TrackOutcome::MesaRetry => WaiterStructure::MonitorLog,
    };
    WaiterRecord { cond, structure }
}

impl Default for MonitorCore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awg_mem::{L2Config, L2};

    fn ctx<'a>(l2: &'a mut L2, stats: &'a mut Stats) -> PolicyCtx<'a> {
        PolicyCtx {
            now: 100,
            l2,
            stats,
            pending_wgs: 0,
            ready_wgs: 0,
            swapped_waiting_wgs: 0,
            total_wgs: 8,
            journal: None,
        }
    }

    fn cond(addr: u64, expected: i64) -> SyncCond {
        SyncCond { addr, expected }
    }

    #[test]
    fn track_sets_monitored_bit() {
        let mut core = MonitorCore::new();
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let mut ctx = ctx(&mut l2, &mut stats);
        assert_eq!(core.track(&mut ctx, cond(64, 1), 0), TrackOutcome::Cached);
        assert!(ctx.l2.is_monitored(64));
        assert_eq!(
            core.tracking_of(0),
            Some((cond(64, 1), TrackOutcome::Cached))
        );
    }

    #[test]
    fn wake_cached_clears_bit_when_last() {
        let mut core = MonitorCore::new();
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let mut ctx = ctx(&mut l2, &mut stats);
        core.track(&mut ctx, cond(64, 1), 0);
        core.track(&mut ctx, cond(64, 1), 1);
        let mut wakes = Vec::new();
        assert_eq!(core.wake_cached(&mut ctx, &cond(64, 1), 1, &mut wakes), 1);
        assert_eq!(wakes, vec![Wake::now(0)]);
        assert!(ctx.l2.is_monitored(64), "still one waiter");
        assert_eq!(core.wake_cached(&mut ctx, &cond(64, 1), 8, &mut wakes), 1);
        assert_eq!(wakes, vec![Wake::now(0), Wake::now(1)], "appends");
        assert!(!ctx.l2.is_monitored(64), "last waiter clears the bit");
    }

    #[test]
    fn untrack_cached_waiter() {
        let mut core = MonitorCore::new();
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let mut ctx = ctx(&mut l2, &mut stats);
        core.track(&mut ctx, cond(64, 1), 0);
        core.untrack(&mut ctx, 0);
        assert!(core.tracking_of(0).is_none());
        assert!(!ctx.l2.is_monitored(64));
    }

    #[test]
    fn spill_path_flows_through_cp() {
        // Tiny SyncMon: one condition slot, so the second condition spills.
        let mut core = MonitorCore::with_config(
            SyncMonConfig {
                sets: 1,
                ways: 1,
                waiter_slots: 4,
                bloom_filters: 4,
            },
            16,
        );
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let mut ctx = ctx(&mut l2, &mut stats);
        assert_eq!(core.track(&mut ctx, cond(64, 1), 0), TrackOutcome::Cached);
        assert_eq!(core.track(&mut ctx, cond(128, 2), 1), TrackOutcome::Spilled);
        // CP tick with the condition unmet: no wakes.
        let mut wakes = Vec::new();
        core.cp_tick(&mut ctx, &mut wakes);
        assert!(wakes.is_empty());
        // Make it hold and tick again.
        ctx.l2.backing_mut().store(128, 2);
        core.cp_tick(&mut ctx, &mut wakes);
        assert_eq!(wakes, vec![Wake::now(1)]);
        assert!(core.tracking_of(1).is_none());
    }

    #[test]
    fn full_log_forces_mesa_retry() {
        let mut core = MonitorCore::with_config(
            SyncMonConfig {
                sets: 1,
                ways: 1,
                waiter_slots: 1,
                bloom_filters: 4,
            },
            1,
        );
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let mut ctx = ctx(&mut l2, &mut stats);
        assert_eq!(core.track(&mut ctx, cond(64, 1), 0), TrackOutcome::Cached);
        assert_eq!(core.track(&mut ctx, cond(128, 1), 1), TrackOutcome::Spilled);
        assert_eq!(
            core.track(&mut ctx, cond(192, 1), 2),
            TrackOutcome::MesaRetry
        );
    }

    #[test]
    fn stale_log_entries_dropped_after_untrack() {
        let mut core = MonitorCore::with_config(
            SyncMonConfig {
                sets: 1,
                ways: 1,
                waiter_slots: 1,
                bloom_filters: 4,
            },
            16,
        );
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let mut ctx = ctx(&mut l2, &mut stats);
        core.track(&mut ctx, cond(64, 1), 0);
        core.track(&mut ctx, cond(128, 2), 1); // spilled
        core.untrack(&mut ctx, 1); // timeout woke it first
        ctx.l2.backing_mut().store(128, 2);
        let mut wakes = Vec::new();
        core.cp_tick(&mut ctx, &mut wakes);
        assert!(wakes.is_empty(), "stale entry must not wake");
    }

    #[test]
    fn report_writes_counters() {
        let core = MonitorCore::new();
        let mut stats = Stats::new();
        core.report(&MONR_REPORT, &mut stats);
        assert_eq!(stats.get_by_name("monr_mesa_retries"), Some(0));
        assert!(stats.get_by_name("monr_cp_footprint_bytes").is_some());
    }

    /// The registry change journal, driven through whole policies.
    mod journal {
        use super::*;
        use crate::policies::{AwgPolicy, MonNrOnePolicy, MonRsAllPolicy};
        use awg_gpu::{MonitoredUpdate, SchedPolicy, SyncFail, SyncStyle};
        use proptest::prelude::*;

        /// Waited addresses: the first two share a line.
        const ADDRS: [Addr; 4] = [64, 72, 128, 192];
        const WGS: WgId = 6;

        /// A monitor stack small enough to spill and to reject: two
        /// condition slots and two waiter slots (with a one-entry log, the
        /// fourth waiter retries).
        fn tiny() -> SyncMonConfig {
            SyncMonConfig {
                sets: 1,
                ways: 2,
                waiter_slots: 2,
                bloom_filters: 4,
            }
        }

        /// One step of a generated interleaving; `usize` fields index
        /// `ADDRS`.
        #[derive(Debug, Clone)]
        enum Step {
            /// A WG that is not registered fails its check on
            /// `(addr, expected)`.
            Fail(WgId, usize, i64),
            /// A store of a value, reported: met wakes, and sporadic ones
            /// on a monitored line.
            Write(usize, i64),
            /// An access that writes nothing, reported: sporadic wakes on a
            /// monitored line.
            Access(usize),
            Tick,
            Timeout(WgId),
            Delivered(WgId),
            Finish(WgId),
            Evict(usize),
            Storm,
            /// Whether other WGs wait for resources (AWG's stall path).
            Oversubscribe(bool),
        }

        fn step_strategy() -> impl Strategy<Value = Step> {
            prop_oneof![
                (0..WGS, 0usize..4, 0i64..2).prop_map(|(wg, a, v)| Step::Fail(wg, a, v)),
                (0..WGS, 0usize..4, 0i64..2).prop_map(|(wg, a, v)| Step::Fail(wg, a, v)),
                (0..WGS, 0usize..4, 0i64..2).prop_map(|(wg, a, v)| Step::Fail(wg, a, v)),
                (0usize..4, 0i64..2).prop_map(|(a, v)| Step::Write(a, v)),
                (0usize..4).prop_map(Step::Access),
                Just(Step::Tick),
                (0..WGS).prop_map(Step::Timeout),
                (0..WGS).prop_map(Step::Delivered),
                (0..WGS).prop_map(Step::Finish),
                (1usize..3).prop_map(Step::Evict),
                Just(Step::Storm),
                any::<bool>().prop_map(Step::Oversubscribe),
            ]
        }

        fn records(p: &dyn SchedPolicy) -> Vec<(WgId, WaiterRecord)> {
            let mut all = Vec::new();
            p.for_each_waiter(&mut |wg, rec| all.push((wg, rec)));
            all
        }

        fn of(all: &[(WgId, WaiterRecord)], wg: WgId) -> Vec<WaiterRecord> {
            all.iter()
                .filter(|&&(w, _)| w == wg)
                .map(|&(_, rec)| rec)
                .collect()
        }

        /// Reports an access to `ADDRS[a]` that stores `value`, if any.
        fn report(
            p: &mut dyn SchedPolicy,
            ctx: &mut PolicyCtx<'_>,
            a: usize,
            value: Option<i64>,
            wakes: &mut Vec<Wake>,
        ) {
            let addr = ADDRS[a];
            let old = ctx.l2.peek(addr);
            if let Some(new) = value {
                ctx.l2.backing_mut().store(addr, new);
            }
            let update = MonitoredUpdate {
                addr,
                old,
                new: value.unwrap_or(old),
                wrote: value.is_some(),
                monitored: ctx.l2.is_monitored(addr),
                by_wg: WGS,
            };
            p.on_monitored_update(ctx, &update, wakes);
        }

        /// Drives `steps` through `p` and checks the journal contract after
        /// every step: each WG whose visited records changed is journaled,
        /// and each WG's lookup is its filtered visit.
        fn check_journal(mut p: Box<dyn SchedPolicy>, steps: &[Step]) {
            assert!(p.journals_registry(), "{}", p.name());
            let mut l2 = L2::new(L2Config::isca2020());
            let mut stats = Stats::new();
            let mut journal = Vec::new();
            let mut oversubscribed = false;
            for (now, step) in (1..).zip(steps) {
                let before = records(p.as_ref());
                journal.clear();
                let mut ctx = PolicyCtx {
                    now: now * 100,
                    l2: &mut l2,
                    stats: &mut stats,
                    pending_wgs: usize::from(oversubscribed),
                    ready_wgs: 0,
                    swapped_waiting_wgs: 0,
                    total_wgs: u64::from(WGS),
                    journal: Some(&mut journal),
                };
                let mut wakes = Vec::new();
                let cond = SyncCond {
                    addr: ADDRS[0],
                    expected: 0,
                };
                match *step {
                    Step::Fail(wg, a, expected) => {
                        if of(&before, wg).is_empty() {
                            let fail = SyncFail {
                                wg,
                                cond: SyncCond {
                                    addr: ADDRS[a],
                                    expected,
                                },
                                observed: ctx.l2.peek(ADDRS[a]),
                                via_wait_inst: p.style() == SyncStyle::WaitInst,
                            };
                            p.on_sync_fail(&mut ctx, &fail);
                        }
                    }
                    Step::Write(a, v) => report(p.as_mut(), &mut ctx, a, Some(v), &mut wakes),
                    Step::Access(a) => report(p.as_mut(), &mut ctx, a, None, &mut wakes),
                    Step::Tick => p.on_cp_tick(&mut ctx, &mut wakes),
                    Step::Timeout(wg) => {
                        p.on_wait_timeout(&mut ctx, wg, &cond);
                    }
                    Step::Delivered(wg) => p.on_wake_delivered(&mut ctx, wg, &cond),
                    Step::Finish(wg) => p.on_wg_finished(&mut ctx, wg),
                    Step::Evict(count) => {
                        p.on_fault(
                            &mut ctx,
                            &PolicyFault::EvictConditions { count },
                            &mut wakes,
                        );
                    }
                    Step::Storm => p.on_fault(
                        &mut ctx,
                        &PolicyFault::BloomStorm { unique_values: 3 },
                        &mut wakes,
                    ),
                    Step::Oversubscribe(on) => oversubscribed = on,
                }
                let after = records(p.as_ref());
                for wg in 0..WGS {
                    let mut looked_up = Vec::new();
                    p.for_each_record_of(wg, &mut |rec| looked_up.push(rec));
                    assert_eq!(looked_up, of(&after, wg), "WG {wg} after {step:?}");
                    if of(&before, wg) != looked_up {
                        assert!(journal.contains(&wg), "WG {wg} unjournaled after {step:?}");
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// MonNR-One: cached registrations, spills, Mesa retries, met
            /// wakes, CP ticks, timeouts, finishes, evictions.
            #[test]
            fn monnr_one_journals_every_registry_change(
                steps in prop::collection::vec(step_strategy(), 1..80)
            ) {
                let core = MonitorCore::with_config(tiny(), 1);
                check_journal(Box::new(MonNrOnePolicy::with_core(core)), &steps);
            }

            /// AWG: the same, plus predicted stalls that escalate instead
            /// of untracking.
            #[test]
            fn awg_journals_every_registry_change(
                steps in prop::collection::vec(step_strategy(), 1..80)
            ) {
                let awg = AwgPolicy::new().with_monitor_config(tiny(), 1);
                check_journal(Box::new(awg), &steps);
            }

            /// MonRS-All: sporadic wakes on any access to a monitored line.
            #[test]
            fn monrs_all_journals_every_registry_change(
                steps in prop::collection::vec(step_strategy(), 1..80)
            ) {
                let core = MonitorCore::with_config(tiny(), 1);
                check_journal(Box::new(MonRsAllPolicy::with_core(core)), &steps);
            }
        }
    }
}
