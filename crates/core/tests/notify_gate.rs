//! The machine reports a store or atomic to the policy only when the line
//! is monitored, unless the policy observes unmonitored writes. A counting
//! wrapper shows MonNR-One never sees an unmonitored update, while AWG,
//! whose Bloom filters count every write, still sees all of them.

use awg_core::policies::{AwgPolicy, MonNrOnePolicy};
use awg_gpu::{
    Gpu, GpuConfig, Kernel, MonitoredUpdate, PolicyCtx, RunSummary, SchedPolicy, SyncCond,
    SyncFail, SyncStyle, TimeoutAction, WaitDirective, Wake, WgId, WgResources,
};
use awg_isa::{Cond, Operand, ProgramBuilder, Reg};
use awg_sim::{Cycle, Stats};

const LOCK: u64 = 0x1000;
const DATA: u64 = 0x8000;
const WGS: u64 = 16;
const ROUNDS: i64 = 4;

/// Delegates to `inner` and counts the updates it is shown.
#[derive(Debug)]
struct Counting<P> {
    inner: P,
    monitored: u64,
    unmonitored: u64,
}

impl<P: SchedPolicy> SchedPolicy for Counting<P> {
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
        if update.monitored {
            self.monitored += 1;
        } else {
            self.unmonitored += 1;
        }
        self.inner.on_monitored_update(ctx, update, wakes);
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
    fn report(&self, stats: &mut Stats) {
        self.inner.report(stats);
        let c = stats.counter("updates_monitored");
        stats.add(c, self.monitored);
        let c = stats.counter("updates_unmonitored");
        stats.add(c, self.unmonitored);
    }
}

/// A CAS spin mutex: the lock line is monitored while WGs wait on it; the
/// counter it guards is written with plain stores to an unmonitored line.
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

fn run<P: SchedPolicy + 'static>(inner: P) -> RunSummary {
    let policy = Counting {
        inner,
        monitored: 0,
        unmonitored: 0,
    };
    let mut gpu = Gpu::new(
        GpuConfig::isca2020_baseline(),
        mutex_kernel(),
        Box::new(policy),
    );
    let outcome = gpu.run();
    assert!(outcome.is_completed(), "{outcome:?}");
    assert_eq!(gpu.backing().load(DATA), WGS as i64 * ROUNDS, "mutex held");
    outcome.summary().clone()
}

fn counts(summary: &RunSummary) -> (u64, u64) {
    let get = |name| summary.stats.get_by_name(name).expect("wrapper reported");
    (get("updates_monitored"), get("updates_unmonitored"))
}

#[test]
fn condition_checking_policy_sees_only_monitored_updates() {
    let summary = run(MonNrOnePolicy::new());
    let (monitored, unmonitored) = counts(&summary);
    assert_eq!(unmonitored, 0);
    assert!(monitored > 0, "releases of a waited-on lock are monitored");
    assert!(
        summary.resumes > 0,
        "waiters were woken through the monitor"
    );
}

#[test]
fn awg_still_sees_every_store_and_atomic() {
    let summary = run(AwgPolicy::new());
    let (monitored, unmonitored) = counts(&summary);
    let stores = WGS * ROUNDS as u64;
    assert_eq!(monitored + unmonitored, summary.atomics + stores);
    assert!(
        unmonitored >= stores,
        "the counter's line is never monitored"
    );
}
