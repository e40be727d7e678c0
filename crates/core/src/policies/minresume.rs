//! MinResume: the oracular configuration Fig 9 normalizes against.
//!
//! "MinResume achieves this by spreading out when waiting WGs are resumed,
//! such that WGs will not contend when retrying to acquire sync variables."
//! It is allowed to peek at memory (it is an oracle, not hardware): a
//! waiter is released only while its condition actually holds, one waiter
//! per condition per release step, so nearly every retry succeeds and the
//! dynamic atomic count approaches the minimum.
//!
//! A release step runs on every write in the machine, so the policy does
//! not walk its waited addresses to find the conditions that hold. It keeps
//! them as an index instead, which each registration, reported write and
//! emptied queue updates in place. A store it was never told about shows
//! as a jump in the backing store's write version, and the index is then
//! rebuilt by the full walk (DESIGN §4). A second index lists the
//! conditions each WG waits on, so removing a WG and the invariant
//! oracle's per-WG lookup read only that WG's queues.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;

use awg_gpu::{
    MonitoredUpdate, PolicyCtx, SchedPolicy, SyncCond, SyncFail, SyncStyle, TimeoutAction,
    WaitDirective, WaiterRecord, WaiterStructure, Wake, WgId,
};
use awg_mem::{Addr, L2};
use awg_sim::{Cycle, FastMap, Stats};

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
    /// The conditions that hold, sorted: every key `(addr, v)` of
    /// `waiters` whose word reads `v`. A word holds one value, so an
    /// address has at most one entry. Exact while the backing store's
    /// write version equals `synced`.
    held: Vec<(Addr, i64)>,
    /// The write version at which `held` was last exact; `None` until the
    /// first release.
    synced: Option<u64>,
    /// Per WG, the keys of the queues that hold it, sorted, one per queue
    /// entry: `waiters` indexed by WG. A WG that stops waiting keeps its
    /// emptied list, so the next wait episode allocates nothing.
    by_wg: FastMap<WgId, Vec<(Addr, i64)>>,
    wakes: u64,
}

impl MinResumePolicy {
    /// Creates the oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every entry of `wg` from the queues that hold it.
    fn remove_wg(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId) {
        let Some(keys) = self.by_wg.get_mut(&wg).filter(|keys| !keys.is_empty()) else {
            return;
        };
        keys.dedup();
        for &key in keys.iter() {
            let q = self.waiters.get_mut(&key).expect("an indexed WG is queued");
            q.retain(|&w| w != wg);
            if q.is_empty() {
                self.waiters.remove(&key);
                // An emptied condition no longer holds.
                if let Ok(i) = self.held.binary_search(&key) {
                    self.held.remove(i);
                }
            }
        }
        keys.clear();
        ctx.journal_change(wg);
    }

    /// Re-derives `addr`'s entry in `held` from the word's value now.
    fn refresh(&mut self, l2: &L2, addr: Addr) {
        let key = (addr, l2.peek(addr));
        let holds = self.waiters.contains_key(&key);
        match self.held.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) if holds => self.held[i] = key,
            Ok(i) => {
                self.held.remove(i);
            }
            Err(i) if holds => self.held.insert(i, key),
            Err(_) => {}
        }
    }

    /// The full walk: appends every held condition to `out` in address
    /// order. It looks up `(addr, value)` for each waited address in turn,
    /// then skips the address's other conditions.
    fn walk_held(&self, l2: &L2, out: &mut Vec<(Addr, i64)>) {
        let mut next = self.waiters.keys().next().map(|&(addr, _)| addr);
        while let Some(addr) = next {
            let key = (addr, l2.peek(addr));
            if self.waiters.contains_key(&key) {
                out.push(key);
            }
            next = self
                .waiters
                .range((Bound::Excluded((addr, i64::MAX)), Bound::Unbounded))
                .next()
                .map(|(&(addr, _), _)| addr);
        }
    }

    /// Makes `held` exact for memory as it reads now. `reported` is the
    /// write that prompted the release, if any. Between one release and
    /// the next, the backing store's write version moves by the stores
    /// made since: none leaves every word as it was, and one that a
    /// value-changing report accounts for touched only the reported word.
    /// Any other count includes a store the policy never saw, so the index
    /// is rebuilt by the full walk.
    fn sync(&mut self, l2: &L2, reported: Option<&MonitoredUpdate>) {
        let version = l2.backing().write_version();
        match (self.synced.map(|s| version.wrapping_sub(s)), reported) {
            (Some(0), _) => {}
            (Some(1), Some(update)) if update.old != update.new => self.refresh(l2, update.addr),
            _ => {
                let mut held = std::mem::take(&mut self.held);
                held.clear();
                self.walk_held(l2, &mut held);
                self.held = held;
            }
        }
        self.synced = Some(version);
    }

    /// Releases up to `per_cond` waiters of every condition that holds
    /// now, appending them to `wakes` in `(addr, expected)` order. A line's
    /// monitored bit clears when the last condition on its address
    /// empties. `held` must be in sync.
    fn release_satisfied(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        per_cond: usize,
        wakes: &mut Vec<Wake>,
    ) {
        if cfg!(debug_assertions) {
            let mut walked = Vec::new();
            self.walk_held(ctx.l2, &mut walked);
            assert_eq!(
                self.held, walked,
                "held-condition index diverged from the walk"
            );
        }
        let mut i = 0;
        while let Some(&key) = self.held.get(i) {
            let q = self
                .waiters
                .get_mut(&key)
                .expect("a held condition has waiters");
            for _ in 0..per_cond {
                let Some(wg) = q.pop_front() else { break };
                unindex(&mut self.by_wg, wg, key);
                ctx.journal_change(wg);
                wakes.push(Wake::now(wg));
                self.wakes += 1;
            }
            if q.is_empty() {
                self.waiters.remove(&key);
                self.held.remove(i);
                if !self.has_conditions_on(key.0) {
                    ctx.l2.clear_monitored(key.0);
                }
            } else {
                i += 1;
            }
        }
    }

    fn has_conditions_on(&self, addr: Addr) -> bool {
        self.waiters
            .range((addr, i64::MIN)..=(addr, i64::MAX))
            .next()
            .is_some()
    }
}

/// Adds one entry of `wg` in the queue `key` to the per-WG index.
fn index(by_wg: &mut FastMap<WgId, Vec<(Addr, i64)>>, wg: WgId, key: (Addr, i64)) {
    let keys = by_wg.entry(wg).or_default();
    let at = keys.partition_point(|&k| k <= key);
    keys.insert(at, key);
}

/// Removes one entry of `wg` in the queue `key` from the per-WG index.
fn unindex(by_wg: &mut FastMap<WgId, Vec<(Addr, i64)>>, wg: WgId, key: (Addr, i64)) {
    let keys = by_wg.get_mut(&wg).expect("a queued WG is indexed");
    let at = keys
        .iter()
        .position(|&k| k == key)
        .expect("a queued WG is indexed under its queue");
    keys.remove(at);
}

fn policy_local((addr, expected): (Addr, i64)) -> WaiterRecord {
    WaiterRecord {
        cond: SyncCond { addr, expected },
        structure: WaiterStructure::PolicyLocal,
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
        let key = (fail.cond.addr, fail.cond.expected);
        self.waiters.entry(key).or_default().push_back(fail.wg);
        index(&mut self.by_wg, fail.wg, key);
        ctx.journal_change(fail.wg);
        self.refresh(ctx.l2, fail.cond.addr);
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
        self.sync(ctx.l2, Some(update));
        self.release_satisfied(ctx, 1, wakes);
    }

    fn observes_unmonitored_writes(&self) -> bool {
        // The oracle peeks memory on every write, monitored or not.
        true
    }

    fn on_wait_timeout(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        wg: WgId,
        _cond: &SyncCond,
    ) -> TimeoutAction {
        self.remove_wg(ctx, wg);
        TimeoutAction::Wake
    }

    fn on_wg_finished(&mut self, ctx: &mut PolicyCtx<'_>, wg: WgId) {
        self.remove_wg(ctx, wg);
    }

    fn cp_tick_period(&self) -> Option<Cycle> {
        Some(STAGGER_TICK)
    }

    fn on_cp_tick(&mut self, ctx: &mut PolicyCtx<'_>, wakes: &mut Vec<Wake>) {
        self.sync(ctx.l2, None);
        self.release_satisfied(ctx, 1, wakes);
    }

    fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
        for (&key, q) in &self.waiters {
            for &wg in q {
                visit(wg, policy_local(key));
            }
        }
    }

    fn journals_registry(&self) -> bool {
        true
    }

    fn for_each_record_of(&self, wg: WgId, visit: &mut dyn FnMut(WaiterRecord)) {
        for &key in self.by_wg.get(&wg).into_iter().flatten() {
            visit(policy_local(key));
        }
    }

    fn report(&self, stats: &mut Stats) {
        let c = stats.counter("minresume_wakes");
        stats.add(c, self.wakes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::CollectWakes;
    use awg_mem::L2Config;
    use proptest::prelude::*;

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
                journal: None,
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

    /// MinResume without the held and per-WG indexes, the reference the
    /// policy must match: every release walks each waited address and
    /// peeks its word, and removing a WG walks every queue.
    #[derive(Default)]
    struct FullWalk {
        waiters: BTreeMap<(Addr, i64), VecDeque<WgId>>,
    }

    impl FullWalk {
        fn register(&mut self, l2: &mut L2, wg: WgId, addr: Addr, expected: i64) {
            l2.set_monitored(addr);
            self.waiters
                .entry((addr, expected))
                .or_default()
                .push_back(wg);
        }

        fn release(&mut self, l2: &mut L2) -> Vec<Wake> {
            let mut wakes = Vec::new();
            let mut next = self.waiters.keys().next().map(|&(addr, _)| addr);
            while let Some(addr) = next {
                let key = (addr, l2.peek(addr));
                if let Some(q) = self.waiters.get_mut(&key) {
                    wakes.push(Wake::now(q.pop_front().expect("queues are never empty")));
                    if q.is_empty() {
                        self.waiters.remove(&key);
                        if self
                            .waiters
                            .range((addr, i64::MIN)..=(addr, i64::MAX))
                            .next()
                            .is_none()
                        {
                            l2.clear_monitored(addr);
                        }
                    }
                }
                next = self
                    .waiters
                    .range((Bound::Excluded((addr, i64::MAX)), Bound::Unbounded))
                    .next()
                    .map(|(&(addr, _), _)| addr);
            }
            wakes
        }

        fn remove_wg(&mut self, wg: WgId) {
            self.waiters.retain(|_, q| {
                q.retain(|&w| w != wg);
                !q.is_empty()
            });
        }

        /// Every record, in the policy's visit order, as `(addr, v, wg)`.
        fn records(&self) -> Vec<(Addr, i64, WgId)> {
            self.waiters
                .iter()
                .flat_map(|(&(addr, v), q)| q.iter().map(move |&wg| (addr, v, wg)))
                .collect()
        }
    }

    /// Waited addresses: the first two share a line.
    const ADDRS: [Addr; 4] = [64, 72, 128, 192];

    /// One step of a generated interleaving; `usize` fields index `ADDRS`.
    #[derive(Debug, Clone)]
    enum Step {
        /// A WG's check fails and it registers `(addr, expected)`.
        Fail(WgId, usize, i64),
        /// A plain store, reported: the backing store counts it even when
        /// the value is unchanged.
        Store(usize, i64),
        /// A writing atomic, reported: it stores only a changed value.
        Atomic(usize, i64),
        /// An atomic that writes nothing (a load, a failed CAS), reported.
        AtomicNoWrite(usize),
        /// A store the policy never hears of.
        Unreported(usize, i64),
        Tick,
        Timeout(WgId),
        Finish(WgId),
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u32..6, 0usize..4, 0i64..3).prop_map(|(wg, a, v)| Step::Fail(wg, a, v)),
            (0u32..6, 0usize..4, 0i64..3).prop_map(|(wg, a, v)| Step::Fail(wg, a, v)),
            (0usize..4, 0i64..3).prop_map(|(a, v)| Step::Store(a, v)),
            (0usize..4, 0i64..3).prop_map(|(a, v)| Step::Atomic(a, v)),
            (0usize..4).prop_map(Step::AtomicNoWrite),
            (0usize..4, 0i64..3).prop_map(|(a, v)| Step::Unreported(a, v)),
            Just(Step::Tick),
            (0u32..6).prop_map(Step::Timeout),
            (0u32..6).prop_map(Step::Finish),
        ]
    }

    fn ctx<'a>(l2: &'a mut L2, stats: &'a mut Stats, journal: &'a mut Vec<WgId>) -> PolicyCtx<'a> {
        PolicyCtx {
            now: 0,
            l2,
            stats,
            pending_wgs: 0,
            ready_wgs: 0,
            swapped_waiting_wgs: 0,
            total_wgs: 8,
            journal: Some(journal),
        }
    }

    /// Drives `steps` through the policy and the full-walk reference, each
    /// on its own L2, and compares every observable after every step.
    fn run_against_full_walk(steps: &[Step]) {
        let mut p = MinResumePolicy::new();
        let mut reference = FullWalk::default();
        let mut l2 = L2::new(L2Config::isca2020());
        let mut ref_l2 = L2::new(L2Config::isca2020());
        let mut stats = Stats::new();
        let mut journal = Vec::new();
        for step in steps {
            let before = reference.records();
            journal.clear();
            // Applies a store to both memories and builds its report.
            let write = |l2: &mut L2, ref_l2: &mut L2, a: usize, new: i64, plain: bool| {
                let addr = ADDRS[a];
                let old = l2.peek(addr);
                if plain || new != old {
                    l2.backing_mut().store(addr, new);
                    ref_l2.backing_mut().store(addr, new);
                }
                MonitoredUpdate {
                    addr,
                    old,
                    new,
                    wrote: true,
                    monitored: l2.is_monitored(addr),
                    by_wg: 99,
                }
            };
            let (got, want) = match *step {
                Step::Fail(wg, a, expected) => {
                    p.on_sync_fail(
                        &mut ctx(&mut l2, &mut stats, &mut journal),
                        &fail(wg, ADDRS[a], expected),
                    );
                    reference.register(&mut ref_l2, wg, ADDRS[a], expected);
                    (Vec::new(), Vec::new())
                }
                Step::Store(a, v) | Step::Atomic(a, v) => {
                    let plain = matches!(step, Step::Store(..));
                    let update = write(&mut l2, &mut ref_l2, a, v, plain);
                    let got = p.update_wakes(&mut ctx(&mut l2, &mut stats, &mut journal), &update);
                    (got, reference.release(&mut ref_l2))
                }
                Step::AtomicNoWrite(a) => {
                    let addr = ADDRS[a];
                    let value = l2.peek(addr);
                    let update = MonitoredUpdate {
                        addr,
                        old: value,
                        new: value,
                        wrote: false,
                        monitored: l2.is_monitored(addr),
                        by_wg: 99,
                    };
                    let got = p.update_wakes(&mut ctx(&mut l2, &mut stats, &mut journal), &update);
                    (got, Vec::new())
                }
                Step::Unreported(a, v) => {
                    l2.backing_mut().store(ADDRS[a], v);
                    ref_l2.backing_mut().store(ADDRS[a], v);
                    (Vec::new(), Vec::new())
                }
                Step::Tick => {
                    let got = p.tick_wakes(&mut ctx(&mut l2, &mut stats, &mut journal));
                    (got, reference.release(&mut ref_l2))
                }
                Step::Timeout(wg) => {
                    let cond = SyncCond {
                        addr: ADDRS[0],
                        expected: 0,
                    };
                    let action =
                        p.on_wait_timeout(&mut ctx(&mut l2, &mut stats, &mut journal), wg, &cond);
                    assert_eq!(action, TimeoutAction::Wake);
                    reference.remove_wg(wg);
                    (Vec::new(), Vec::new())
                }
                Step::Finish(wg) => {
                    p.on_wg_finished(&mut ctx(&mut l2, &mut stats, &mut journal), wg);
                    reference.remove_wg(wg);
                    (Vec::new(), Vec::new())
                }
            };
            assert_eq!(got, want, "wake list after {step:?}");
            for addr in ADDRS {
                assert_eq!(
                    l2.is_monitored(addr),
                    ref_l2.is_monitored(addr),
                    "monitored bit of {addr:#x} after {step:?}"
                );
            }
            let mut visited = Vec::new();
            p.for_each_waiter(&mut |wg, rec| visited.push((rec.cond.addr, rec.cond.expected, wg)));
            let expected = reference.records();
            assert_eq!(visited, expected, "waiters after {step:?}");
            // Each WG's lookup is its filtered visit, and a WG whose records
            // changed is journaled.
            let of = |records: &[(Addr, i64, WgId)], wg: WgId| -> Vec<(Addr, i64)> {
                records
                    .iter()
                    .filter(|r| r.2 == wg)
                    .map(|&(addr, v, _)| (addr, v))
                    .collect()
            };
            for wg in 0..6 {
                let mut looked_up = Vec::new();
                p.for_each_record_of(wg, &mut |rec| {
                    looked_up.push((rec.cond.addr, rec.cond.expected));
                });
                assert_eq!(looked_up, of(&expected, wg), "WG {wg} after {step:?}");
                if of(&before, wg) != looked_up {
                    assert!(journal.contains(&wg), "WG {wg} unjournaled after {step:?}");
                }
            }
        }
    }

    /// One unreported store makes `(64, 1)` hold. The reported atomic then
    /// rewrites 128's value, so it stores nothing: the write version moved
    /// by one, but not at the reported word, and the index must be rebuilt.
    #[test]
    fn a_same_value_write_after_an_unreported_store_rebuilds_the_index() {
        run_against_full_walk(&[
            Step::Fail(0, 0, 1),
            Step::Tick,
            Step::Unreported(0, 1),
            Step::Atomic(2, 0),
        ]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of registrations, reported and unreported
        /// stores, ticks, timeouts and finishes release
        /// exactly what the full walk releases, and journal and look up
        /// each WG's records as its visit shows them.
        #[test]
        fn held_index_matches_the_full_walk(steps in prop::collection::vec(step_strategy(), 1..80)) {
            run_against_full_walk(&steps);
        }
    }
}
