//! MinResume: the oracular configuration Fig 9 normalizes against.
//!
//! "MinResume achieves this by spreading out when waiting WGs are resumed,
//! such that WGs will not contend when retrying to acquire sync variables."
//! It is allowed to peek at memory (it is an oracle, not hardware): a
//! waiter is released only while its condition actually holds, one waiter
//! per condition per release step, so nearly every retry succeeds and the
//! dynamic atomic count approaches the minimum.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;

use awg_gpu::{
    MonitoredUpdate, PolicyCtx, SchedPolicy, SyncCond, SyncFail, SyncStyle, TimeoutAction,
    WaitDirective, WaiterRecord, WaiterStructure, Wake, WgId,
};
use awg_mem::Addr;
use awg_sim::{CodecError, Cycle, Dec, Enc, Stats};

/// Interval between the oracle's staggered release steps.
const STAGGER_TICK: Cycle = 500;

/// Generous fallback so oracle bookkeeping can never deadlock a run.
const ORACLE_FALLBACK: Cycle = 200_000;

/// The Fig 9 oracle policy.
#[derive(Debug, Default)]
pub struct MinResumePolicy {
    /// FIFO waiters per condition, keyed `(addr, expected)`: the map's
    /// order is the release order, and one address's conditions sit
    /// together. A queue is never left empty.
    waiters: BTreeMap<(Addr, i64), VecDeque<WgId>>,
    /// Moves at every change to `waiters`: the registry version.
    version: u64,
    wakes: u64,
}

impl MinResumePolicy {
    /// Creates the oracle.
    pub fn new() -> Self {
        Self::default()
    }

    fn remove_wg(&mut self, wg: WgId) {
        let mut removed = false;
        self.waiters.retain(|_, q| {
            let before = q.len();
            q.retain(|&w| w != wg);
            removed |= q.len() != before;
            !q.is_empty()
        });
        self.version += u64::from(removed);
    }

    /// Releases up to `per_cond` waiters of every condition that holds
    /// now, appending them to `wakes` in `(addr, expected)` order. A word
    /// holds one value, so at most one condition per address holds: the
    /// walk looks up `(addr, value)` for each address in turn, then skips
    /// the address's other conditions. A line's monitored bit clears when
    /// the last condition on its address empties.
    fn release_satisfied(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        per_cond: usize,
        wakes: &mut Vec<Wake>,
    ) {
        let mut next = self.waiters.keys().next().map(|&(addr, _)| addr);
        while let Some(addr) = next {
            let key = (addr, ctx.l2.peek(addr));
            if let Some(q) = self.waiters.get_mut(&key) {
                for _ in 0..per_cond {
                    let Some(wg) = q.pop_front() else { break };
                    wakes.push(Wake::now(wg));
                    self.wakes += 1;
                    self.version += 1;
                }
                if q.is_empty() {
                    self.waiters.remove(&key);
                    if !self.has_conditions_on(addr) {
                        ctx.l2.clear_monitored(addr);
                    }
                }
            }
            next = self
                .waiters
                .range((Bound::Excluded((addr, i64::MAX)), Bound::Unbounded))
                .next()
                .map(|(&(addr, _), _)| addr);
        }
    }

    fn has_conditions_on(&self, addr: Addr) -> bool {
        self.waiters
            .range((addr, i64::MIN)..=(addr, i64::MAX))
            .next()
            .is_some()
    }
}

impl SchedPolicy for MinResumePolicy {
    fn name(&self) -> &str {
        "MinResume"
    }

    fn style(&self) -> SyncStyle {
        SyncStyle::WaitingAtomic
    }

    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        ctx.l2.set_monitored(fail.cond.addr);
        self.waiters
            .entry((fail.cond.addr, fail.cond.expected))
            .or_default()
            .push_back(fail.wg);
        self.version += 1;
        WaitDirective::Wait {
            release: ctx.oversubscribed(),
            timeout: Some(ORACLE_FALLBACK),
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
        // Release at most one waiter per now-satisfied condition; the
        // stagger tick trickles out the rest without contention.
        self.release_satisfied(ctx, 1, wakes);
    }

    fn observes_unmonitored_writes(&self) -> bool {
        // The oracle peeks memory on every write, monitored or not.
        true
    }

    fn on_wait_timeout(
        &mut self,
        _ctx: &mut PolicyCtx<'_>,
        wg: WgId,
        _cond: &SyncCond,
    ) -> TimeoutAction {
        self.remove_wg(wg);
        TimeoutAction::Wake
    }

    fn on_wg_finished(&mut self, _ctx: &mut PolicyCtx<'_>, wg: WgId) {
        self.remove_wg(wg);
    }

    fn cp_tick_period(&self) -> Option<Cycle> {
        Some(STAGGER_TICK)
    }

    fn on_cp_tick(&mut self, ctx: &mut PolicyCtx<'_>, wakes: &mut Vec<Wake>) {
        self.release_satisfied(ctx, 1, wakes);
    }

    fn registry_version(&self) -> Option<u64> {
        Some(self.version)
    }

    fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
        for (&(addr, expected), q) in &self.waiters {
            for &wg in q {
                visit(
                    wg,
                    WaiterRecord {
                        cond: SyncCond { addr, expected },
                        structure: WaiterStructure::PolicyLocal,
                    },
                );
            }
        }
    }

    fn report(&self, stats: &mut Stats) {
        let c = stats.counter("minresume_wakes");
        stats.add(c, self.wakes);
    }

    fn save_state(&self, enc: &mut Enc) {
        enc.usize(self.waiters.len());
        for (&(addr, expected), q) in &self.waiters {
            enc.u64(addr);
            enc.i64(expected);
            enc.usize(q.len());
            for &wg in q {
                enc.u32(wg);
            }
        }
        enc.u64(self.wakes);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        let n = dec.count(24)?;
        let mut waiters = BTreeMap::new();
        for _ in 0..n {
            let cond = SyncCond {
                addr: dec.u64()?,
                expected: dec.i64()?,
            };
            let m = dec.count(4)?;
            if m == 0 {
                return Err(CodecError::Invalid(format!(
                    "empty oracle waiter queue for {:#x}={}",
                    cond.addr, cond.expected
                )));
            }
            let mut q = VecDeque::with_capacity(m);
            for _ in 0..m {
                q.push_back(dec.u32()?);
            }
            if waiters.insert((cond.addr, cond.expected), q).is_some() {
                return Err(CodecError::Invalid(format!(
                    "duplicate oracle condition {:#x}={}",
                    cond.addr, cond.expected
                )));
            }
        }
        self.waiters = waiters;
        self.version += 1;
        self.wakes = dec.u64()?;
        Ok(())
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
            };
            $body
        }};
    }

    #[test]
    fn releases_only_while_condition_holds() {
        let mut p = MinResumePolicy::new();
        with_ctx!(ctx, {
            p.on_sync_fail(&mut ctx, &fail(0, 64, 1));
            p.on_sync_fail(&mut ctx, &fail(1, 64, 1));
            // Condition does not hold yet: updates to other values wake none.
            ctx.l2.backing_mut().store(64, 5);
            let wakes = p.update_wakes(
                &mut ctx,
                &MonitoredUpdate {
                    addr: 64,
                    old: 0,
                    new: 5,
                    wrote: true,
                    monitored: true,
                    by_wg: 9,
                },
            );
            assert!(wakes.is_empty());
            // Now it holds: one waiter per release step.
            ctx.l2.backing_mut().store(64, 1);
            let wakes = p.update_wakes(
                &mut ctx,
                &MonitoredUpdate {
                    addr: 64,
                    old: 5,
                    new: 1,
                    wrote: true,
                    monitored: true,
                    by_wg: 9,
                },
            );
            assert_eq!(wakes.len(), 1);
            // The stagger tick trickles the next one.
            let wakes = p.tick_wakes(&mut ctx);
            assert_eq!(wakes.len(), 1);
            assert!(p.tick_wakes(&mut ctx).is_empty(), "queue drained");
        });
    }

    #[test]
    fn a_write_releases_one_waiter_per_held_condition_in_key_order() {
        const A: u64 = 64;
        const B: u64 = 128;
        let mut p = MinResumePolicy::new();
        with_ctx!(ctx, {
            // Two expected values on each of two lines, registered out of
            // key order.
            for (wg, addr, expected) in [
                (10, B, 1),
                (11, B, 1),
                (12, B, 2),
                (1, A, 2),
                (2, A, 2),
                (0, A, 1),
            ] {
                p.on_sync_fail(&mut ctx, &fail(wg, addr, expected));
            }
            let mut write = |ctx: &mut PolicyCtx<'_>, a: i64, b: i64| {
                ctx.l2.backing_mut().store(A, a);
                ctx.l2.backing_mut().store(B, b);
                let update = MonitoredUpdate {
                    addr: A,
                    old: 0,
                    new: a,
                    wrote: true,
                    monitored: true,
                    by_wg: 99,
                };
                p.update_wakes(ctx, &update)
            };
            let wgs = |wakes: Vec<Wake>| wakes.into_iter().map(|w| w.wg).collect::<Vec<_>>();

            // (A,2) and (B,1) hold: one waiter each, A's first.
            assert_eq!(wgs(write(&mut ctx, 2, 1)), vec![1, 10]);
            assert!(ctx.l2.is_monitored(A) && ctx.l2.is_monitored(B));
            // (A,1) and (B,2) empty, but each line keeps a condition.
            assert_eq!(wgs(write(&mut ctx, 1, 2)), vec![0, 12]);
            assert!(ctx.l2.is_monitored(A), "(A,2) still waits");
            assert!(ctx.l2.is_monitored(B), "(B,1) still waits");
            // The last condition on each line empties: both bits clear.
            assert_eq!(wgs(write(&mut ctx, 2, 1)), vec![2, 11]);
            assert!(!ctx.l2.is_monitored(A) && !ctx.l2.is_monitored(B));
            assert!(write(&mut ctx, 1, 2).is_empty(), "nobody left");
        });
    }

    #[test]
    fn timeout_removes_registration() {
        let mut p = MinResumePolicy::new();
        with_ctx!(ctx, {
            let f = fail(0, 64, 1);
            p.on_sync_fail(&mut ctx, &f);
            assert_eq!(p.on_wait_timeout(&mut ctx, 0, &f.cond), TimeoutAction::Wake);
            ctx.l2.backing_mut().store(64, 1);
            assert!(p.tick_wakes(&mut ctx).is_empty());
        });
    }
}
