//! The scheduling-policy interface between the GPU core and the paper's
//! architecture family.
//!
//! Whenever a WG's synchronization check fails (a waiting atomic's
//! comparison misses, or a `wait` instruction arms the monitor), the machine
//! asks the installed [`SchedPolicy`] what to do. Whenever a store or atomic
//! commits on a *monitored* L2 line, the policy is notified and may wake
//! waiters; policies that opt in through
//! [`SchedPolicy::observes_unmonitored_writes`] see every access.
//!
//! Wakes travel through a buffer the machine owns and reuses: the hooks
//! that can wake WGs ([`SchedPolicy::on_monitored_update`],
//! [`SchedPolicy::on_cp_tick`], [`SchedPolicy::on_fault`]) append
//! [`Wake`]s to it, and the machine drains it right after the call, so a
//! steady-state notification allocates nothing.
//! All hardware state a policy needs — SyncMon condition caches, Bloom
//! filters, the Monitor Log — lives inside the policy implementation (crate
//! `awg-core`); the machine only executes its directives.

use awg_mem::{Addr, L2};
use awg_sim::{Cycle, Stats};

use crate::wg::WgId;

/// A synchronization waiting condition: "resume when `addr` holds
/// `expected`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyncCond {
    /// The synchronization variable's address.
    pub addr: Addr,
    /// The value the waiter needs to observe.
    pub expected: i64,
}

/// Which program variant a policy requires (§IV: different architectures
/// use different instructions at the synchronization points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncStyle {
    /// Plain atomics in a busy-wait loop (the paper's Baseline).
    Busy,
    /// Busy-wait with software exponential backoff via `s_sleep` (§IV.C.i).
    Backoff,
    /// Poll with a plain atomic, then arm the monitor with a separate
    /// `wait` instruction (MonRS-All / MonR-All; has the Fig 10 race).
    WaitInst,
    /// Waiting atomics carrying the expected value (Timeout, MonNR-*, AWG).
    WaitingAtomic,
}

/// Details of a failed synchronization check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncFail {
    /// The WG whose check failed.
    pub wg: WgId,
    /// The condition it now waits on.
    pub cond: SyncCond,
    /// The value the atomic actually observed (for `wait` instructions this
    /// is the value at arm time, which real hardware does not examine —
    /// monitor policies must ignore it).
    pub observed: i64,
    /// `true` when the condition arrived via a standalone `wait`
    /// instruction rather than a waiting atomic.
    pub via_wait_inst: bool,
}

/// An atomic or store that committed at the L2. The SyncMon physically
/// observes every bank access; `monitored` says whether the target line's
/// monitored bit was set (the condition-checking policies act only then,
/// but AWG's Bloom filters record update values regardless).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitoredUpdate {
    /// Word address accessed.
    pub addr: Addr,
    /// Value before the operation.
    pub old: i64,
    /// Value after the operation.
    pub new: i64,
    /// Whether memory was modified.
    pub wrote: bool,
    /// Whether the line's monitored bit was set at commit.
    pub monitored: bool,
    /// The WG that performed the access.
    pub by_wg: WgId,
}

/// What a waiting WG should do, decided at the failed check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitDirective {
    /// Deliver the failed value immediately; the program's loop retries
    /// (busy-waiting).
    Retry,
    /// Stall resident for exactly this many cycles, then deliver the failed
    /// value (software backoff, Timeout's non-oversubscribed stall).
    SleepFor(Cycle),
    /// Enter the hardware waiting state.
    Wait {
        /// `true`: context switch out, releasing CU resources.
        /// `false`: stall resident.
        release: bool,
        /// Fallback timeout; `None` waits indefinitely for a monitor
        /// notification (dangerous for racy `wait`-instruction policies).
        timeout: Option<Cycle>,
    },
}

/// What to do when a waiting WG's fallback timeout fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutAction {
    /// Wake the WG; its program rechecks the condition (Mesa semantics).
    Wake,
    /// Keep waiting, but escalate: optionally context switch out now, with
    /// a new fallback timeout (AWG's predicted-stall-then-switch, §IV.B).
    Escalate {
        /// Context switch the WG out if it is still resident.
        release: bool,
        /// New fallback timeout.
        timeout: Option<Cycle>,
    },
}

/// A wake directive issued by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wake {
    /// The WG to resume.
    pub wg: WgId,
    /// Extra delay before the resume signal reaches the WG (the MinResume
    /// oracle staggers wakes with this).
    pub delay: Cycle,
}

impl Wake {
    /// An immediate wake.
    pub fn now(wg: WgId) -> Self {
        Wake { wg, delay: 0 }
    }

    /// A wake delayed by `delay` cycles.
    pub fn after(wg: WgId, delay: Cycle) -> Self {
        Wake { wg, delay }
    }
}

/// A fault injected directly into a policy's hardware structures (SyncMon
/// condition cache, Bloom filters) by the chaos engine. The machine only
/// transports these; policies without monitor hardware ignore them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyFault {
    /// Forcibly evict up to `count` live SyncMon condition entries, as if
    /// capacity pressure had victimized them. Evicted waiters must be
    /// rescued by fallback timeouts — exactly the liveness property under
    /// test.
    EvictConditions {
        /// Maximum entries to evict.
        count: usize,
    },
    /// Pollute the update Bloom filters of every live condition with
    /// `unique_values` synthetic distinct values, forcing false positives
    /// (and, for AWG, pushing the resume-count predictor toward
    /// resume-all storms).
    BloomStorm {
        /// Distinct synthetic values inserted per filter.
        unique_values: usize,
    },
}

/// Which wait structure holds a registered waiter.
///
/// The invariant oracle uses this to prove the superset property: every
/// waiting WG must be reachable by *some* wake path — a SyncMon entry, a
/// spilled Monitor Log record, a policy-private queue, or (failing all of
/// those) a pending fallback timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaiterStructure {
    /// Cached in the SyncMon condition table; the waiter's address must
    /// still carry its L2 monitored bit or updates cannot notify it.
    SyncMon,
    /// Spilled to the Monitor Log; the CP's periodic tick rescues it.
    MonitorLog,
    /// Held in a policy-private software structure serviced by the CP.
    PolicyLocal,
}

/// One entry of a policy's waiter registry: which condition a WG waits on
/// and which structure is responsible for waking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaiterRecord {
    /// The condition the WG is parked on.
    pub cond: SyncCond,
    /// The structure that will deliver its wake.
    pub structure: WaiterStructure,
}

/// A point-in-time view of one live monitor (SyncMon) condition entry,
/// exported for forensic hang reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorEntrySnapshot {
    /// The monitored synchronization address.
    pub addr: Addr,
    /// The value the entry waits for.
    pub expected: i64,
    /// Number of WGs parked on this entry.
    pub waiters: usize,
}

/// Machine state a policy may inspect and (for its own hardware structures)
/// mutate while making decisions.
#[derive(Debug)]
pub struct PolicyCtx<'a> {
    /// Current cycle.
    pub now: Cycle,
    /// The shared L2 (monitored bits, timed condition-check reads, Monitor
    /// Log traffic).
    pub l2: &'a mut L2,
    /// The run's statistics registry.
    pub stats: &'a mut Stats,
    /// WGs that have never been dispatched.
    pub pending_wgs: usize,
    /// Swapped-out WGs that are ready to be swapped back in.
    pub ready_wgs: usize,
    /// Swapped-out WGs still waiting on conditions.
    pub swapped_waiting_wgs: usize,
    /// Total WGs in the kernel.
    pub total_wgs: u64,
    /// The registry change journal, present only while the invariant
    /// oracle runs: a policy that [journals its
    /// registry](SchedPolicy::journals_registry) appends, through
    /// [`PolicyCtx::journal_change`], each WG whose record it adds or
    /// removes.
    pub journal: Option<&'a mut Vec<WgId>>,
}

impl PolicyCtx<'_> {
    /// Whether yielding resources would let other WGs make progress — the
    /// paper's rule: "we context switch out a WG only if there are other
    /// WGs ready to be resumed or started" (§IV.B).
    pub fn oversubscribed(&self) -> bool {
        self.pending_wgs + self.ready_wgs > 0
    }

    /// Journals that `wg`'s records in the waiter registry changed, when
    /// the journal is on.
    pub fn journal_change(&mut self, wg: WgId) {
        if let Some(journal) = self.journal.as_mut() {
            journal.push(wg);
        }
    }
}

/// A work-group scheduling policy (one member of the paper's architecture
/// family).
pub trait SchedPolicy {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &str;

    /// Which program variant this policy requires at sync points.
    fn style(&self) -> SyncStyle;

    /// Whether the architecture can redispatch WGs that were context
    /// switched out (the WG-granularity rescheduling capability AWG adds).
    /// The paper's Baseline and Sleep lack it: when the kernel-level
    /// scheduler preempts a CU's WGs (§VI), those WGs never return, so the
    /// oversubscribed scenario deadlocks (Fig 15).
    fn supports_wg_rescheduling(&self) -> bool {
        true
    }

    /// A WG's synchronization check failed; decide how it waits.
    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective;

    /// A store or atomic committed at the L2; append the WGs to wake to
    /// `wakes`. The machine calls this only when the line was monitored,
    /// unless [`Self::observes_unmonitored_writes`] holds. `wakes` may
    /// already hold entries (a wrapper's own), which the policy must leave
    /// as they are. The default wakes no one.
    fn on_monitored_update(
        &mut self,
        _ctx: &mut PolicyCtx<'_>,
        _update: &MonitoredUpdate,
        _wakes: &mut Vec<Wake>,
    ) {
    }

    /// Whether [`Self::on_monitored_update`] must also see accesses to
    /// lines whose monitored bit is clear (AWG's Bloom filters count every
    /// write; MinResume releases on every write). Skipping the call for
    /// everyone else is the response path's main saving.
    fn observes_unmonitored_writes(&self) -> bool {
        false
    }

    /// A waiting WG's fallback timeout fired.
    fn on_wait_timeout(
        &mut self,
        _ctx: &mut PolicyCtx<'_>,
        _wg: WgId,
        _cond: &SyncCond,
    ) -> TimeoutAction {
        TimeoutAction::Wake
    }

    /// A previously-issued wake has been delivered to `wg` (its parked
    /// response released). Policies use this to drop bookkeeping.
    fn on_wake_delivered(&mut self, _ctx: &mut PolicyCtx<'_>, _wg: WgId, _cond: &SyncCond) {}

    /// A WG finished; drop any registrations it still holds.
    fn on_wg_finished(&mut self, _ctx: &mut PolicyCtx<'_>, _wg: WgId) {}

    /// Period of the CP's firmware tick, if this policy uses one.
    fn cp_tick_period(&self) -> Option<Cycle> {
        None
    }

    /// The CP's periodic firmware work (Monitor Log draining, spilled
    /// condition checks). Appends WGs to wake to `wakes`, as
    /// [`Self::on_monitored_update`] does.
    fn on_cp_tick(&mut self, _ctx: &mut PolicyCtx<'_>, _wakes: &mut Vec<Wake>) {}

    /// The chaos engine injected a fault into this policy's hardware
    /// structures. Appends to `wakes` the WGs the policy chooses to wake
    /// in response (e.g. waiters it can no longer track), as
    /// [`Self::on_monitored_update`] does. Policies without monitor
    /// hardware ignore faults.
    fn on_fault(&mut self, _ctx: &mut PolicyCtx<'_>, _fault: &PolicyFault, _wakes: &mut Vec<Wake>) {
    }

    /// Point-in-time view of the policy's live monitor entries, for
    /// forensic hang reports. Policies without monitor hardware return
    /// nothing.
    fn monitor_snapshot(&self) -> Vec<MonitorEntrySnapshot> {
        Vec::new()
    }

    /// Visits every waiter this policy currently holds a registration for,
    /// one call per record, in any order; a sound policy holds exactly one
    /// record per WG. The invariant oracle cross checks these against
    /// machine state (no waiter registered twice, no waiting WG unreachable
    /// by every wake path) and sorts them itself, so the visit allocates
    /// nothing. Policies whose waiters are rescued purely by machine-level
    /// timeouts visit nothing.
    fn for_each_waiter(&self, _visit: &mut dyn FnMut(WgId, WaiterRecord)) {}

    /// Whether the policy journals its registry, which lets the invariant
    /// oracle re-read only the WGs a policy call changed. A policy that
    /// returns `true` keeps two promises:
    ///
    /// * every hook that adds or removes a record of
    ///   [`Self::for_each_waiter`] passes the record's WG to
    ///   [`PolicyCtx::journal_change`] in that call;
    /// * [`Self::for_each_record_of`] answers for any WG.
    ///
    /// Journaling a WG whose records did not change is harmless. The
    /// oracle still reads the whole registry after a call that flipped an
    /// L2 monitored bit, since a flip can change any SyncMon record's
    /// verdict. Builds with debug assertions check both promises after
    /// every per-event read: a whole read must find each WG whose records
    /// changed in the journal, and agree with what the lookups gave. With
    /// `false`, the default, the oracle re-reads the whole registry after
    /// every policy call.
    fn journals_registry(&self) -> bool {
        false
    }

    /// Visits `wg`'s records: what [`Self::for_each_waiter`] visits,
    /// filtered to `wg`, in the same order. Only called when
    /// [`Self::journals_registry`] holds.
    fn for_each_record_of(&self, _wg: WgId, _visit: &mut dyn FnMut(WaiterRecord)) {}

    /// Dump policy-internal measurements into the run statistics.
    fn report(&self, _stats: &mut Stats) {}
}

/// The paper's **Baseline**: software busy-waiting, no hardware support.
/// Every failed check retries immediately; in oversubscribed scenarios this
/// deadlocks (Fig 15), which the machine's detector reports.
#[derive(Debug, Clone, Default)]
pub struct BusyWaitPolicy {
    fails: u64,
}

impl BusyWaitPolicy {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SchedPolicy for BusyWaitPolicy {
    fn name(&self) -> &str {
        "Baseline"
    }

    fn style(&self) -> SyncStyle {
        SyncStyle::Busy
    }

    fn supports_wg_rescheduling(&self) -> bool {
        false
    }

    fn on_sync_fail(&mut self, _ctx: &mut PolicyCtx<'_>, _fail: &SyncFail) -> WaitDirective {
        self.fails += 1;
        WaitDirective::Retry
    }

    fn report(&self, stats: &mut Stats) {
        let c = stats.counter("policy_sync_fails");
        stats.add(c, self.fails);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awg_mem::L2Config;

    #[test]
    fn oversubscription_rule() {
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let ctx = PolicyCtx {
            now: 0,
            l2: &mut l2,
            stats: &mut stats,
            pending_wgs: 0,
            ready_wgs: 0,
            swapped_waiting_wgs: 3,
            total_wgs: 8,
            journal: None,
        };
        // Swapped-waiting WGs don't need resources yet.
        assert!(!ctx.oversubscribed());

        let ctx = PolicyCtx {
            pending_wgs: 1,
            ..ctx
        };
        assert!(ctx.oversubscribed());
    }

    #[test]
    fn busy_wait_always_retries() {
        let mut p = BusyWaitPolicy::new();
        let mut l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let mut ctx = PolicyCtx {
            now: 0,
            l2: &mut l2,
            stats: &mut stats,
            pending_wgs: 5,
            ready_wgs: 0,
            swapped_waiting_wgs: 0,
            total_wgs: 8,
            journal: None,
        };
        let fail = SyncFail {
            wg: 0,
            cond: SyncCond {
                addr: 64,
                expected: 1,
            },
            observed: 0,
            via_wait_inst: false,
        };
        assert_eq!(p.on_sync_fail(&mut ctx, &fail), WaitDirective::Retry);
        let mut wakes = Vec::new();
        p.on_monitored_update(
            &mut ctx,
            &MonitoredUpdate {
                addr: 64,
                old: 0,
                new: 1,
                wrote: true,
                monitored: true,
                by_wg: 1,
            },
            &mut wakes,
        );
        assert!(wakes.is_empty());
        let mut stats = Stats::new();
        p.report(&mut stats);
        assert_eq!(stats.get_by_name("policy_sync_fails"), Some(1));
    }

    #[test]
    fn wake_constructors() {
        assert_eq!(Wake::now(3), Wake { wg: 3, delay: 0 });
        assert_eq!(Wake::after(3, 10), Wake { wg: 3, delay: 10 });
    }
}
