//! The invariant oracle must catch a corrupted policy *while the machine
//! runs*, at the event that corrupts it. A wrapper around MonNR-One plants
//! one bug per case on the 16-WG CAS mutex, and each case pins the whole
//! violation log: kind, cycle and detail.

use awg_core::policies::MonNrOnePolicy;
use awg_gpu::{
    Gpu, GpuConfig, InvariantKind, Kernel, MonitoredUpdate, PolicyCtx, SchedPolicy, SyncCond,
    SyncFail, SyncStyle, TimeoutAction, WaitDirective, WaiterRecord, WaiterStructure, Wake, WgId,
    WgResources,
};
use awg_isa::{Cond, Operand, ProgramBuilder, Reg, Special};
use awg_sim::{Cycle, Stats};
use std::cell::Cell;
use std::rc::Rc;

const LOCK: u64 = 0x1000;
const DATA: u64 = 0x8000;
const WGS: u64 = 16;
const ROUNDS: i64 = 4;

/// The waiter whose record the `Unreachable` plant hides.
const HIDDEN: WgId = 15;
/// The WG whose record the `Stale` plant keeps after it finishes.
const GHOST: WgId = 0;
/// Cycles after the hidden waiter's failed atomic before its record is
/// hidden: by then its response has returned and it is stalled, so the
/// record vanishes at an event of another WG.
const HIDE_AFTER: Cycle = 500;

/// Which bug the wrapper plants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plant {
    /// Hide [`HIDDEN`]'s record, once it is stalled without a fallback
    /// timeout, at a monitored update by another WG.
    Unreachable,
    /// List every record twice.
    Duplicate,
    /// Keep a record for [`GHOST`] after it finishes.
    Stale,
    /// Clear the lock line's monitored bit after the first waiter is cached.
    Hole,
}

/// MonNR-One with one planted bug.
#[derive(Debug)]
struct Planted {
    inner: MonNrOnePolicy,
    plant: Plant,
    /// Cycle of the hidden waiter's failed atomic, while its timeout is
    /// stripped and its record not yet hidden.
    armed_at: Option<Cycle>,
    hiding: bool,
    /// Cycle at which the hidden waiter's record vanished.
    hidden_at: Rc<Cell<Option<Cycle>>>,
    /// The plant has fired; it fires once.
    spent: bool,
    ghost: bool,
}

impl Planted {
    fn new(plant: Plant, hidden_at: Rc<Cell<Option<Cycle>>>) -> Self {
        Planted {
            inner: MonNrOnePolicy::new(),
            plant,
            armed_at: None,
            hiding: false,
            hidden_at,
            spent: false,
            ghost: false,
        }
    }
}

impl SchedPolicy for Planted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn style(&self) -> SyncStyle {
        self.inner.style()
    }
    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        let directive = self.inner.on_sync_fail(ctx, fail);
        match (self.plant, directive) {
            (Plant::Unreachable, WaitDirective::Wait { release, .. })
                if fail.wg == HIDDEN && !self.spent =>
            {
                self.armed_at = Some(ctx.now);
                WaitDirective::Wait {
                    release,
                    timeout: None,
                }
            }
            (Plant::Hole, WaitDirective::Wait { .. }) if !self.spent => {
                self.spent = true;
                ctx.l2.clear_monitored(fail.cond.addr);
                directive
            }
            _ => directive,
        }
    }
    fn on_monitored_update(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        update: &MonitoredUpdate,
        wakes: &mut Vec<Wake>,
    ) {
        if let Some(at) = self.armed_at {
            if update.by_wg != HIDDEN && ctx.now >= at + HIDE_AFTER {
                self.armed_at = None;
                self.hiding = true;
                self.hidden_at.set(Some(ctx.now));
                self.spent = true;
            }
        }
        self.inner.on_monitored_update(ctx, update, wakes);
    }
    fn on_wait_timeout(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        wg: WgId,
        cond: &SyncCond,
    ) -> TimeoutAction {
        self.inner.on_wait_timeout(ctx, wg, cond)
    }
    fn on_wake_delivered(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId, cond: &SyncCond) {
        if wg == HIDDEN {
            self.armed_at = None;
            self.hiding = false;
        }
        self.inner.on_wake_delivered(ctx, wg, cond);
    }
    fn on_wg_finished(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId) {
        if self.plant == Plant::Stale && wg == GHOST {
            self.ghost = true;
        }
        self.inner.on_wg_finished(ctx, wg);
    }
    fn cp_tick_period(&self) -> Option<Cycle> {
        self.inner.cp_tick_period()
    }
    fn on_cp_tick(&mut self, ctx: &mut PolicyCtx<'_>, wakes: &mut Vec<Wake>) {
        self.inner.on_cp_tick(ctx, wakes);
    }
    fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
        self.inner.for_each_waiter(&mut |wg, rec| {
            if self.hiding && wg == HIDDEN {
                return;
            }
            visit(wg, rec);
            if self.plant == Plant::Duplicate {
                visit(wg, rec);
            }
        });
        if self.ghost {
            visit(
                GHOST,
                WaiterRecord {
                    cond: SyncCond {
                        addr: LOCK,
                        expected: 0,
                    },
                    structure: WaiterStructure::PolicyLocal,
                },
            );
        }
    }
    fn report(&self, stats: &mut Stats) {
        self.inner.report(stats);
    }
}

/// A CAS spin mutex around a counter: the lock line is monitored while WGs
/// wait on it.
fn mutex_kernel() -> Kernel {
    let mut b = ProgramBuilder::new("cas_mutex");
    let round = b.new_label();
    let acquire = b.new_label();
    b.li(Reg::R3, 0);
    b.bind(round);
    b.bind(acquire);
    b.atom_cas(Reg::R2, LOCK, 1i64, 0i64);
    b.br(Cond::Ne, Reg::R2, Operand::Imm(0), acquire);
    b.ld(Reg::R4, DATA);
    b.add(Reg::R4, Reg::R4, 1i64);
    b.st(DATA, Reg::R4);
    b.atom_exch(Reg::R0, LOCK, 0i64);
    b.add(Reg::R3, Reg::R3, 1i64);
    b.br(Cond::Lt, Reg::R3, Operand::Imm(ROUNDS), round);
    b.halt();
    Kernel::new(b.build().unwrap(), WGS, WgResources::default())
}

type Log = Vec<(InvariantKind, Cycle, String)>;

/// Runs the mutex under `plant` with the oracle on and returns the
/// violation log as `(kind, cycle, detail)`, plus the cycle at which the
/// `Unreachable` plant hid its record.
fn planted_log(plant: Plant) -> (Log, Option<Cycle>) {
    let hidden_at = Rc::new(Cell::new(None));
    let mut gpu = Gpu::new(
        GpuConfig::isca2020_baseline(),
        mutex_kernel(),
        Box::new(Planted::new(plant, Rc::clone(&hidden_at))),
    );
    gpu.enable_invariant_oracle();
    let outcome = gpu.run();
    assert!(outcome.is_completed(), "{plant:?}: {outcome:?}");
    assert_eq!(gpu.backing().load(DATA), WGS as i64 * ROUNDS, "mutex held");
    let log = gpu
        .violations()
        .iter()
        .map(|v| (v.kind, v.at, v.detail.clone()))
        .collect();
    (log, hidden_at.get())
}

#[test]
fn waiter_hidden_by_another_wgs_event_is_unreachable_at_that_event() {
    let (log, hidden_at) = planted_log(Plant::Unreachable);
    assert_eq!(
        log,
        vec![(
            InvariantKind::UnreachableWaiter,
            920,
            "WG 15 waiting in state Stalled on Some(SyncCond { addr: 4096, expected: 0 }) \
             with no registration, no pending wake or timeout, and no landed wake"
                .to_string()
        )]
    );
    assert_eq!(hidden_at, Some(920), "reported at the hiding event");
}

#[test]
fn record_listed_twice_is_a_duplicate_registration() {
    let (log, _) = planted_log(Plant::Duplicate);
    let dup = |wg: WgId, at: Cycle| {
        (
            InvariantKind::DuplicateRegistration,
            at,
            format!("WG {wg} registered in more than one wait structure"),
        )
    };
    let mut expected: Log = (1..WGS as WgId).map(|wg| dup(wg, 200)).collect();
    expected.push(dup(0, 1064));
    assert_eq!(log, expected);
}

#[test]
fn record_kept_after_finish_is_stale() {
    let (log, _) = planted_log(Plant::Stale);
    assert_eq!(
        log,
        vec![(
            InvariantKind::StaleRegistration,
            12722,
            "WG 0 registered (PolicyLocal) but in state Finished".to_string()
        )]
    );
}

#[test]
fn cleared_monitored_bit_under_a_cached_waiter_is_a_superset_hole() {
    let (log, _) = planted_log(Plant::Hole);
    assert_eq!(
        log,
        vec![(
            InvariantKind::MonitorSupersetHole,
            200,
            "WG 1 cached in the SyncMon for 0x1000 but the monitored bit is clear".to_string()
        )]
    );
}

/// MonNR-One behind a wrapper that drops [`HIDDEN`]'s registration
/// without journaling it. The hidden waiter waits without a fallback
/// timeout. At the first monitored update by another WG at least
/// [`HIDE_AFTER`] cycles after its failed atomic, the wrapper untracks it
/// through a context that carries no journal: nothing can wake it any
/// more, and no journal entry tells the per-event check so.
#[derive(Debug)]
struct Unjournaled {
    inner: MonNrOnePolicy,
    /// Cycle of the hidden waiter's failed atomic, until its record goes.
    armed_at: Option<Cycle>,
    /// Cycle at which the hidden waiter's record went.
    hidden_at: Rc<Cell<Option<Cycle>>>,
    spent: bool,
}

impl SchedPolicy for Unjournaled {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn style(&self) -> SyncStyle {
        self.inner.style()
    }
    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        match self.inner.on_sync_fail(ctx, fail) {
            WaitDirective::Wait { release, .. } if fail.wg == HIDDEN && !self.spent => {
                self.spent = true;
                self.armed_at = Some(ctx.now);
                WaitDirective::Wait {
                    release,
                    timeout: None,
                }
            }
            directive => directive,
        }
    }
    fn on_monitored_update(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        update: &MonitoredUpdate,
        wakes: &mut Vec<Wake>,
    ) {
        if let Some(at) = self.armed_at {
            if update.by_wg != HIDDEN && ctx.now >= at + HIDE_AFTER {
                self.armed_at = None;
                self.hidden_at.set(Some(ctx.now));
                let mut unjournaled = PolicyCtx {
                    now: ctx.now,
                    l2: &mut *ctx.l2,
                    stats: &mut *ctx.stats,
                    pending_wgs: ctx.pending_wgs,
                    ready_wgs: ctx.ready_wgs,
                    swapped_waiting_wgs: ctx.swapped_waiting_wgs,
                    total_wgs: ctx.total_wgs,
                    journal: None,
                };
                self.inner.on_wg_finished(&mut unjournaled, HIDDEN);
            }
        }
        self.inner.on_monitored_update(ctx, update, wakes);
    }
    fn on_wait_timeout(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        wg: WgId,
        cond: &SyncCond,
    ) -> TimeoutAction {
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
        self.inner.on_cp_tick(ctx, wakes);
    }
    fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
        self.inner.for_each_waiter(visit);
    }
    fn journals_registry(&self) -> bool {
        self.inner.journals_registry()
    }
    fn for_each_record_of(&self, wg: WgId, visit: &mut dyn FnMut(WaiterRecord)) {
        self.inner.for_each_record_of(wg, visit);
    }
}

/// Runs the mutex under [`Unjournaled`] with the oracle on, and returns
/// the machine and the cycle at which the hidden waiter's record went.
fn run_unjournaled() -> (Gpu, Option<Cycle>) {
    let hidden_at = Rc::new(Cell::new(None));
    let mut gpu = Gpu::new(
        GpuConfig::isca2020_baseline(),
        mutex_kernel(),
        Box::new(Unjournaled {
            inner: MonNrOnePolicy::new(),
            armed_at: None,
            hidden_at: Rc::clone(&hidden_at),
            spent: false,
        }),
    );
    gpu.enable_invariant_oracle();
    gpu.run();
    (gpu, hidden_at.get())
}

/// The per-event check re-reads only the WGs the journal lists. In debug
/// builds it derives the whole registry after every read and compares,
/// so a policy that changes a record without journaling it fails loudly
/// instead of silently blinding the oracle.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "without journaling it")]
fn registry_change_without_a_journal_entry_trips_the_debug_cross_check() {
    run_unjournaled();
}

/// Release builds skip the cross-check: nothing reads the hidden waiter
/// until the next window sweep, which finds it waiting with no wake path.
#[cfg(not(debug_assertions))]
#[test]
fn registry_change_without_a_journal_entry_waits_for_the_next_window_sweep() {
    use awg_gpu::oracle::SWEEP_WINDOW;
    let (gpu, hidden_at) = run_unjournaled();
    let hidden_at = hidden_at.expect("the record was dropped");
    let boundary = (hidden_at / SWEEP_WINDOW + 1) * SWEEP_WINDOW;
    let v = gpu.violations();
    let first = v.first().unwrap_or_else(|| panic!("nothing reported"));
    assert_eq!(first.kind, InvariantKind::UnreachableWaiter, "{first}");
    assert!(
        first.detail.starts_with("WG 15 waiting in state Stalled"),
        "{first}"
    );
    assert!(
        (boundary..boundary + 100).contains(&first.at),
        "dropped at {hidden_at}, reported at {}",
        first.at
    );
}

/// MonNR-One, journaling, behind a wrapper that from the first WG finish
/// on lists the lowest WG then registered twice in its whole registry, and
/// journals nothing for it: a registry change only a whole read sees.
#[derive(Debug)]
struct Doubled {
    inner: MonNrOnePolicy,
    /// The WG listed twice, and the cycle it started.
    doubled: Rc<Cell<Option<(WgId, Cycle)>>>,
}

impl SchedPolicy for Doubled {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn style(&self) -> SyncStyle {
        self.inner.style()
    }
    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        self.inner.on_sync_fail(ctx, fail)
    }
    fn on_monitored_update(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        update: &MonitoredUpdate,
        wakes: &mut Vec<Wake>,
    ) {
        self.inner.on_monitored_update(ctx, update, wakes);
    }
    fn on_wait_timeout(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        wg: WgId,
        cond: &SyncCond,
    ) -> TimeoutAction {
        self.inner.on_wait_timeout(ctx, wg, cond)
    }
    fn on_wake_delivered(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId, cond: &SyncCond) {
        self.inner.on_wake_delivered(ctx, wg, cond);
    }
    fn on_wg_finished(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId) {
        if self.doubled.get().is_none() {
            let mut lowest = None;
            self.inner.for_each_waiter(&mut |w, _| {
                lowest = Some(lowest.map_or(w, |l: WgId| l.min(w)));
            });
            self.doubled.set(lowest.map(|w| (w, ctx.now)));
        }
        self.inner.on_wg_finished(ctx, wg);
    }
    fn cp_tick_period(&self) -> Option<Cycle> {
        self.inner.cp_tick_period()
    }
    fn on_cp_tick(&mut self, ctx: &mut PolicyCtx<'_>, wakes: &mut Vec<Wake>) {
        self.inner.on_cp_tick(ctx, wakes);
    }
    fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
        let doubled = self.doubled.get().map(|(wg, _)| wg);
        self.inner.for_each_waiter(&mut |wg, rec| {
            visit(wg, rec);
            if Some(wg) == doubled {
                visit(wg, rec);
            }
        });
    }
    fn journals_registry(&self) -> bool {
        self.inner.journals_registry()
    }
    fn for_each_record_of(&self, wg: WgId, visit: &mut dyn FnMut(WaiterRecord)) {
        self.inner.for_each_record_of(wg, visit);
    }
}

/// WG 0 computes until just before the 10k-cycle sweep boundary and
/// finishes; WG 1 waits on a flag that WG 2 raises at about 13k cycles,
/// computing in 100-cycle steps until then. Between WG 0's finish and
/// the raise, only the CP tick at 10k calls the policy.
fn late_flag_kernel() -> Kernel {
    const FLAG: u64 = 0x2000;
    let mut b = ProgramBuilder::new("late_flag");
    let waiter = b.new_label();
    let raiser = b.new_label();
    let step = b.new_label();
    b.special(Reg::R1, Special::WgId);
    b.br(Cond::Eq, Reg::R1, Operand::Imm(1), waiter);
    b.br(Cond::Eq, Reg::R1, Operand::Imm(2), raiser);
    b.compute(9_700);
    b.halt();
    b.bind(waiter);
    b.atom_cmp_wait(Reg::R0, FLAG, 1i64);
    b.br(Cond::Ne, Reg::R0, Operand::Imm(1), waiter);
    b.halt();
    b.bind(raiser);
    b.li(Reg::R2, 0);
    b.bind(step);
    b.compute(100);
    b.add(Reg::R2, Reg::R2, 1i64);
    b.br(Cond::Lt, Reg::R2, Operand::Imm(130), step);
    b.atom_exch(Reg::R0, FLAG, 1i64);
    b.halt();
    Kernel::new(b.build().unwrap(), 3, WgResources::default())
}

/// Runs [`late_flag_kernel`] under [`Doubled`] with the oracle on, and
/// returns the machine and the WG listed twice, with the cycle it started.
fn run_doubled() -> (Gpu, Option<(WgId, Cycle)>) {
    let doubled = Rc::new(Cell::new(None));
    let mut gpu = Gpu::new(
        GpuConfig::isca2020_baseline(),
        late_flag_kernel(),
        Box::new(Doubled {
            inner: MonNrOnePolicy::new(),
            doubled: Rc::clone(&doubled),
        }),
    );
    gpu.enable_invariant_oracle();
    assert!(gpu.run().is_completed());
    (gpu, doubled.get())
}

/// Debug builds compare every journaled read with a whole one, so the
/// unjournaled change fails at the event that makes it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "without journaling it")]
fn unjournaled_duplicate_trips_the_debug_cross_check() {
    run_doubled();
}

/// Release builds: a record listed twice that no journal names is seen
/// by the next window sweep's whole read, which reports it from a sorted
/// read of the registry, as the sweep always has. No per-event check
/// would: the waiter's record goes when it is woken, before any other
/// policy call.
#[cfg(not(debug_assertions))]
#[test]
fn unjournaled_duplicate_is_reported_by_the_next_window_sweep() {
    use awg_gpu::oracle::SWEEP_WINDOW;
    let (gpu, doubled) = run_doubled();
    let (wg, from) = doubled.expect("a WG was registered to double");
    assert_eq!(wg, 1);
    let boundary = (from / SWEEP_WINDOW + 1) * SWEEP_WINDOW;
    let v = gpu.violations();
    let first = v.first().unwrap_or_else(|| panic!("nothing reported"));
    assert_eq!(first.kind, InvariantKind::DuplicateRegistration, "{first}");
    assert_eq!(
        first.detail,
        "WG 1 registered in more than one wait structure"
    );
    assert!(
        (boundary..boundary + 100).contains(&first.at),
        "doubled at {from}, reported at {}",
        first.at
    );
}
