//! MinResume: the oracular configuration Fig 9 normalizes against.
//!
//! "MinResume achieves this by spreading out when waiting WGs are resumed,
//! such that WGs will not contend when retrying to acquire sync variables."
//! It is allowed to peek at memory (it is an oracle, not hardware): a
//! waiter is released only while its condition actually holds, one waiter
//! per condition per release step, so nearly every retry succeeds and the
//! dynamic atomic count approaches the minimum.

use std::collections::{HashMap, VecDeque};

use awg_gpu::{
    MonitoredUpdate, PolicyCtx, SchedPolicy, SyncCond, SyncFail, SyncStyle, TimeoutAction,
    WaitDirective, WaiterRecord, WaiterStructure, Wake, WgId,
};
use awg_sim::{CodecError, Cycle, Dec, Enc, Stats};

/// Interval between the oracle's staggered release steps.
const STAGGER_TICK: Cycle = 500;

/// Generous fallback so oracle bookkeeping can never deadlock a run.
const ORACLE_FALLBACK: Cycle = 200_000;

/// The Fig 9 oracle policy.
#[derive(Debug, Default)]
pub struct MinResumePolicy {
    waiters: HashMap<SyncCond, VecDeque<WgId>>,
    wakes: u64,
}

impl MinResumePolicy {
    /// Creates the oracle.
    pub fn new() -> Self {
        Self::default()
    }

    fn remove_wg(&mut self, wg: WgId) {
        self.waiters.retain(|_, q| {
            q.retain(|&w| w != wg);
            !q.is_empty()
        });
    }

    fn release_satisfied(&mut self, ctx: &mut PolicyCtx<'_>, per_cond: usize) -> Vec<Wake> {
        let mut conds: Vec<SyncCond> = self.waiters.keys().copied().collect();
        conds.sort_by_key(|c| (c.addr, c.expected));
        let mut wakes = Vec::new();
        for cond in conds {
            if ctx.l2.peek(cond.addr) != cond.expected {
                continue;
            }
            let q = self.waiters.get_mut(&cond).expect("cond present");
            for _ in 0..per_cond {
                let Some(wg) = q.pop_front() else { break };
                wakes.push(Wake::now(wg));
                self.wakes += 1;
            }
            if q.is_empty() {
                self.waiters.remove(&cond);
                if !self.waiters.keys().any(|c| c.addr == cond.addr) {
                    ctx.l2.clear_monitored(cond.addr);
                }
            }
        }
        wakes
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
            .entry(fail.cond)
            .or_default()
            .push_back(fail.wg);
        WaitDirective::Wait {
            release: ctx.oversubscribed(),
            timeout: Some(ORACLE_FALLBACK),
        }
    }

    fn on_monitored_update(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        update: &MonitoredUpdate,
    ) -> Vec<Wake> {
        if !update.wrote {
            return Vec::new();
        }
        // Release at most one waiter per now-satisfied condition; the
        // stagger tick trickles out the rest without contention.
        self.release_satisfied(ctx, 1)
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

    fn on_cp_tick(&mut self, ctx: &mut PolicyCtx<'_>) -> Vec<Wake> {
        self.release_satisfied(ctx, 1)
    }

    fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
        for (&cond, q) in &self.waiters {
            for &wg in q {
                visit(
                    wg,
                    WaiterRecord {
                        cond,
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
        let mut conds: Vec<SyncCond> = self.waiters.keys().copied().collect();
        conds.sort_by_key(|c| (c.addr, c.expected));
        enc.usize(conds.len());
        for cond in conds {
            enc.u64(cond.addr);
            enc.i64(cond.expected);
            let q = &self.waiters[&cond];
            enc.usize(q.len());
            for &wg in q {
                enc.u32(wg);
            }
        }
        enc.u64(self.wakes);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CodecError> {
        let n = dec.count(24)?;
        let mut waiters: HashMap<SyncCond, VecDeque<WgId>> = HashMap::with_capacity(n);
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
            if waiters.insert(cond, q).is_some() {
                return Err(CodecError::Invalid(format!(
                    "duplicate oracle condition {:#x}={}",
                    cond.addr, cond.expected
                )));
            }
        }
        self.waiters = waiters;
        self.wakes = dec.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let wakes = p.on_monitored_update(
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
            let wakes = p.on_monitored_update(
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
            let wakes = p.on_cp_tick(&mut ctx);
            assert_eq!(wakes.len(), 1);
            assert!(p.on_cp_tick(&mut ctx).is_empty(), "queue drained");
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
            assert!(p.on_cp_tick(&mut ctx).is_empty());
        });
    }
}
