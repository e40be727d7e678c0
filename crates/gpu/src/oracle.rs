//! The invariant oracle: machine-wide self-checks for the simulator.
//!
//! When enabled ([`Gpu::enable_invariant_oracle`]), the machine checks
//! these invariants as it runs:
//!
//! 1. **Registration** — every waiter a policy tracks is registered in
//!    exactly one wait structure, and only while the WG is actually in a
//!    state that can receive a wake.
//! 2. **Superset property** — a waiter cached in the SyncMon must still
//!    hold its L2 monitored bit (a cleared bit means updates can no longer
//!    notify it), and *every* waiting WG must be reachable by some wake
//!    path: a policy registration, a pending token-valid wake or fallback
//!    timeout, or a wake that already landed (`woke`).
//! 3. **Wake delivery** — wakes are never delivered to running or
//!    descheduled WGs (recorded at the delivery site in the machine).
//! 4. **WG conservation** — the work-group population is conserved across
//!    preemption and migration: every WG sits in exactly one scheduler
//!    home (pending queue, ready queue, a CU's resident list, swapped-out
//!    waiting, or finished) and the queues agree with per-WG state.
//! 5. **Occupancy** — no CU ever holds more WGs than its Table 1 resource
//!    limits admit, and its free-resource counters exactly mirror the
//!    residents' demands.
//!
//! # When the checks run
//!
//! The full sweep ([`Gpu::check_invariants`]) reads every WG, both queues,
//! every CU's resident list and the policy's whole waiter registry, and
//! walks the event calendar when some waiter has neither a registration
//! nor a landed wake. It is one pass over the WGs, one over the CUs and one
//! unsorted read of the registry that marks each WG registered or not and
//! counts the records that would report (a WG listed twice, a stale
//! record, a SyncMon record whose line lost its monitored bit). Only when
//! that count is not zero does a sorted read of the registry report them,
//! in WG order, with the text the sweep has always used. With the oracle
//! on, the machine runs it after the first event, after the first event at
//! or past every [`SWEEP_WINDOW`]-cycle boundary, and whenever
//! [`Gpu::run`] returns; the same passes then leave the **shadow** the
//! per-event check reads: each WG's state, each CU's resident list, and
//! the registration marks and counts. After every other event that is not
//! quiet (below) the machine runs the per-event check instead, over the
//! event's **touch set**: the event's own WG, every WG whose state the
//! event set, every WG the policy woke, and, on events that called the
//! policy, every WG whose registration vanished since the last read.
//!
//! * For each touched WG it runs the sweep's queue, residency,
//!   stale-registration and reachability checks. The two queues are read
//!   whole, so duplicates stay exact. The CUs' resident lists are read
//!   again (a **CU pass**) only when some CU's version moved since the
//!   last pass, or a touched WG is on more than one list, or on one that
//!   its placement or state does not match. The version rule is exact:
//!   [`Cu::admit`] and [`Cu::release`] are the only writers of a CU's
//!   resident list and free counters, and each bumps [`Cu::version`]. A
//!   CU whose version stands still holds the list and counters the last
//!   pass checked, so the pass could report nothing new but for those
//!   per-WG checks on touched WGs. In builds with debug assertions the
//!   last pass's lists and counters are kept, and every CU whose version
//!   stood still must equal them. A touched waiter with neither a
//!   registration nor a landed wake is looked up in per-WG **rescue
//!   counts** instead of the calendar: how many `WakeDeliver`/`WaitTimeout`
//!   events for its current token are pending. The machine counts each
//!   such event at the two sites that schedule them (`apply_wakes`,
//!   `rearm_timeout`); the oracle uncounts each one [`Gpu::run`] pops when
//!   the loop hands it that event, handled or cut off. The counts are
//!   rebuilt from the calendar only when the shadow is primed.
//! * On events that called the policy it brings its registration marks up
//!   to date and, if any record would report (a WG listed twice, a stale
//!   record, a SyncMon record whose line lost its monitored bit), runs the
//!   sweep's sorted duplicate, stale and monitored-bit checks over the whole
//!   registry. The marks say, per WG, whether it is registered and whether
//!   its records would report; with them come counts of both and of the
//!   stale records, kept between reads from the touched WGs' state changes.
//!   A policy that [journals its
//!   registry](crate::SchedPolicy::journals_registry) lists, in a buffer
//!   the machine hands it through [`PolicyCtx`](crate::PolicyCtx) only
//!   while the oracle is on, every WG whose record a call added or removed.
//!   The check then looks up only those WGs' records
//!   ([`for_each_record_of`](crate::SchedPolicy::for_each_record_of)). It
//!   reads the whole registry instead when the policy keeps no journal or
//!   when the L2's monitored-bit version moved since the last whole read,
//!   since a bit flip can change any SyncMon record's verdict. After a
//!   whole read a WG whose registration vanished is found among the
//!   journaled WGs, or, for a policy without a journal, among all WGs.
//! * Every event it checks the counts in O(#CUs): finished WGs and queue
//!   lengths against the census, the homes sum, each CU's occupancy
//!   against its limit and its resource balance, and the machine's
//!   incremental state census against one the oracle keeps itself from the
//!   touched WGs' previous states.
//!
//! The per-event check is exact — after each event it reports everything
//! the full sweep would newly report, in the sweep's order — as long as
//! every WG state change goes through the machine's one state setter
//! (`set_wg_state`), and every other write the checks read (queue
//! membership, CU residency, placement, the landed-wake flag, the wake
//! token) lands on the event's own WG or on a WG whose state the event
//! also set. DESIGN.md lists those mutation sites.
//!
//! An event is **quiet** when its touch set was still empty before its own
//! WG joined it (no `set_wg_state` ran and `apply_wakes` added no target),
//! it called no policy, and its own WG, if it has one, is neither `Stalled`
//! nor `SwappedWaiting`. The oracle skips the per-event check after a quiet
//! event; the popped event is still uncounted and the sweeps run as
//! before. The skip is exact too. A quiet event writes only its own WG's
//! pc, registers, token, condition, parked response and landed-wake flag,
//! and only while that WG is not waiting. No check reads any of these for
//! a WG that is not waiting and whose state, queue and CU did not change,
//! so the skipped check could only repeat what the last one found, and the
//! violation log already holds that.
//!
//! A write that bypasses the mutation sites, such as a test tampering with
//! WG state, is reported by the next window sweep or the run-end sweep.
//! That holds for a write to a quiet event's own WG as well: the per-event
//! check no longer runs at that WG's next event if the event is quiet.
//!
//! The window and run-end sweeps keep the whole registry read and the
//! calendar walk, and decide every verdict from the machine and generation
//! marks, never from what the shadow held before, so they stay the
//! references for the shortcuts. In builds
//! with debug assertions every per-event registry read of a journaling
//! policy is followed by a whole one, which must find every WG whose
//! records changed in the journal and agree with the marks and counts;
//! every count-based reachability answer is also derived the full way and
//! asserted equal; and the check each quiet event skips still runs and
//! must find nothing the violation log does not already hold. A change a
//! journaling policy leaves out of its journal is otherwise seen only by
//! the next window or run-end sweep.
//!
//! The oracle counts the registry reads it makes ([`RegistryReads`]), the
//! sorted reads made only to report among them, and its sweeps, per-event
//! checks, quiet skips and CU passes ([`OracleWork`]), which the hot
//! profile reports.
//!
//! Leave the oracle off for throughput experiments and on for the chaos
//! matrix, the conformance lab and CI, where catching a corrupted schedule
//! at the event that corrupts it is worth the slowdown.

use awg_sim::Cycle;

use crate::cu::Cu;
use crate::machine::{Event, Gpu};
use crate::policy::{WaiterRecord, WaiterStructure};
use crate::wg::{Wg, WgId, WgState};

/// Cycles between the full sweeps of a run with the oracle on. Equal to
/// the harness's digest window, so each digest window ends in a sweep.
pub const SWEEP_WINDOW: Cycle = 5_000;

/// Number of [`WgState`] census slots.
const STATES: usize = WgState::ALL.len();

/// Reusable generation-marked scratch buffers for the invariant checks.
///
/// Each check bumps `gen` once; a per-WG cell "contains" its mark iff it
/// equals the current generation, which resets every array in O(1)
/// without touching memory.
#[derive(Debug, Default)]
pub(crate) struct OracleScratch {
    gen: u64,
    /// Queue-membership marks (`gen * 2 + queue_index`), so the pending
    /// and ready queues get independent duplicate detection per check.
    queue_mark: Vec<u64>,
    /// CU-placement marks, for duplicate residency.
    placed_mark: Vec<u64>,
    /// Waiter-registration marks (duplicate registration detection).
    registered_mark: Vec<u64>,
    /// Waiters with no wake path *yet*: set while scanning WGs, cleared by
    /// the event-calendar scan when a pending token-valid rescue is found.
    rescue_mark: Vec<u64>,
    /// Buffer for sorted registry reads, which only the checks that
    /// report on records need.
    registry: Vec<(WgId, WaiterRecord)>,
}

impl OracleScratch {
    /// Starts a check over `n` WGs: bumps the generation and (once per
    /// machine size) grows the mark arrays.
    fn begin(&mut self, n: usize) -> u64 {
        self.gen += 1;
        if self.queue_mark.len() < n {
            self.queue_mark.resize(n, 0);
            self.placed_mark.resize(n, 0);
            self.registered_mark.resize(n, 0);
            self.rescue_mark.resize(n, 0);
        }
        self.gen
    }
}

/// What the per-event check knows of the machine as of the last check:
/// each WG's state and their census, who the registry held at its last
/// read, and a copy of the CUs. Every full sweep fills it as it checks the
/// machine; between sweeps only what the touch set changed is updated.
#[derive(Debug, Default)]
pub(crate) struct OracleShadow {
    /// Whether the shadow mirrors the machine: false until the first full
    /// sweep.
    primed: bool,
    /// The first event at or past this cycle runs the full sweep.
    next_sweep: Cycle,
    /// Id of the current event, the mark `touch_mark` compares against.
    event: u64,
    /// The current event's touch set, each WG once.
    touched: Vec<WgId>,
    touch_mark: Vec<u64>,
    /// Whether the current event called the policy.
    policy_called: bool,
    /// Each WG's state as of the last check, and the census of those.
    state: Vec<WgState>,
    census: [usize; STATES],
    /// Id of the last whole-registry read. A WG is registered iff its
    /// `read_mark` equals it, and dirty (listed twice, or cached in the
    /// SyncMon on an unmonitored line) iff its `dirty_mark` does. A
    /// journaled read rewrites the marks of the WGs it re-reads.
    read: u64,
    read_mark: Vec<u64>,
    dirty_mark: Vec<u64>,
    /// How many WGs are registered, and how many are dirty.
    listed: usize,
    dirty: usize,
    /// How many registered WGs are in a state that cannot wake, kept
    /// between reads from the touched WGs' state changes.
    stale: usize,
    /// The L2's monitored-bit version at the last whole-registry read.
    bits_version: u64,
    /// The registry change journal of the current event: the WGs whose
    /// records the policy calls added or removed (module docs).
    journal: Vec<WgId>,
    /// The registry reads made so far.
    reads: RegistryReads,
    /// The checks run and skipped so far.
    work: OracleWork,
    /// The sorted registry as of the last read, which the journal
    /// cross-check compares the next one with.
    #[cfg(debug_assertions)]
    registry: Vec<(WgId, WaiterRecord)>,
    /// Per WG, the pending token-valid wakes and timeouts (module docs).
    rescues: Rescues,
    /// The CUs as the last CU pass saw them.
    cus: CuCopy,
}

/// Every CU's version and occupancy limit and where the resident lists
/// place each WG, as the last CU pass ([`Gpu::check_cus`]) saw them.
#[derive(Debug, Default)]
struct CuCopy {
    /// Each CU's [`Cu::version`](crate::Cu::version).
    versions: Vec<u64>,
    /// The resident lists, flattened in CU order.
    resident: Vec<WgId>,
    /// Per WG, how many resident lists hold it and the last CU that does;
    /// `placed` counts the WGs some list holds.
    count: Vec<u32>,
    cu: Vec<u32>,
    placed: usize,
    /// Each CU's occupancy limit, refreshed by every full sweep.
    limits: Vec<u32>,
    /// Where each CU's list starts in `resident` (`start[i]..start[i + 1]`
    /// is CU `i`'s), and each CU's free resources: what the debug
    /// cross-check compares a CU whose version stood still with.
    #[cfg(debug_assertions)]
    start: Vec<usize>,
    #[cfg(debug_assertions)]
    free: Vec<(u32, u32, u32)>,
}

impl CuCopy {
    /// Empties the lists before a CU pass refills them.
    fn clear(&mut self) {
        for &wg in &self.resident {
            self.count[wg as usize] = 0;
        }
        self.versions.clear();
        self.resident.clear();
        self.placed = 0;
        #[cfg(debug_assertions)]
        {
            self.start.clear();
            self.free.clear();
        }
    }

    /// Begins the list of `cu`, the next CU in order.
    fn begin(&mut self, cu: &Cu) {
        self.versions.push(cu.version());
        #[cfg(debug_assertions)]
        {
            self.start.push(self.resident.len());
            self.free.push(cu.free_resources());
        }
    }

    /// Panics unless `cu`, whose version is the one recorded, holds the
    /// resident list and free resources recorded with it: something wrote
    /// them without going through `Cu::admit` or `Cu::release`.
    #[cfg(debug_assertions)]
    fn assert_copy_of(&self, cu: &Cu) {
        let i = cu.id();
        assert_eq!(
            (cu.resident(), cu.free_resources()),
            (
                &self.resident[self.start[i]..self.start[i + 1]],
                self.free[i]
            ),
            "CU {i} changed at version {}",
            cu.version()
        );
    }

    /// Appends `wg` to the list of CU `cu`, the last one begun.
    fn push(&mut self, wg: WgId, cu: usize) {
        let count = &mut self.count[wg as usize];
        if *count == 0 {
            self.placed += 1;
        }
        *count += 1;
        self.cu[wg as usize] = cu as u32;
        self.resident.push(wg);
    }
}

impl OracleShadow {
    /// Adds `wg` to the current event's touch set. Before the first full
    /// sweep sizes the marks there is nothing to add to: that sweep reads
    /// every WG.
    pub(crate) fn touch(&mut self, wg: WgId) {
        if let Some(mark) = self.touch_mark.get_mut(wg as usize) {
            if *mark != self.event {
                *mark = self.event;
                self.touched.push(wg);
            }
        }
    }

    /// Records that the current event called the policy, and returns the
    /// journal the call writes its registry changes to.
    pub(crate) fn note_policy_call(&mut self) -> &mut Vec<WgId> {
        self.policy_called = true;
        &mut self.journal
    }

    /// The registry reads made so far.
    pub(crate) fn registry_reads(&self) -> RegistryReads {
        self.reads
    }

    /// The checks run and skipped so far.
    pub(crate) fn work(&self) -> OracleWork {
        self.work
    }

    /// Records a `WakeDeliver` or `WaitTimeout` scheduled for `wg` with
    /// `token`, the WG's current token.
    pub(crate) fn note_rescue_scheduled(&mut self, wg: WgId, token: u64) {
        if self.primed {
            self.rescues.scheduled(wg, token);
        }
    }

    /// Records that the run loop popped `event` off the calendar.
    fn note_popped(&mut self, event: &Event) {
        if let (true, Event::WakeDeliver(wg, token) | Event::WaitTimeout(wg, token)) =
            (self.primed, *event)
        {
            self.rescues.popped(wg, token);
        }
    }

    fn end_event(&mut self) {
        self.touched.clear();
        self.journal.clear();
        self.policy_called = false;
        self.event += 1;
    }

    fn is_touched(&self, wg: WgId) -> bool {
        self.touch_mark[wg as usize] == self.event
    }

    fn is_registered(&self, wg: WgId) -> bool {
        self.read_mark[wg as usize] == self.read
    }

    /// Sets `wg`'s marks and the counts from a fresh look at its records:
    /// whether it has any and whether they are dirty. A WG whose
    /// registration vanished joins the touch set.
    fn set_registration(&mut self, wg: WgId, registered: bool, dirty: bool) {
        let w = wg as usize;
        let (was, was_dirty) = (self.is_registered(wg), self.dirty_mark[w] == self.read);
        self.read_mark[w] = if registered { self.read } else { 0 };
        self.dirty_mark[w] = if dirty { self.read } else { 0 };
        self.listed = self.listed + usize::from(registered) - usize::from(was);
        self.dirty = self.dirty + usize::from(dirty) - usize::from(was_dirty);
        if cannot_wake(self.state[w]) {
            self.stale = self.stale + usize::from(registered) - usize::from(was);
        }
        if was && !registered {
            self.touch(wg);
        }
    }

    /// Sizes the per-WG arrays for `n` WGs. The lists that grow with the
    /// machine are sized once, so the run never reallocates them: growing
    /// buffers between the machine's own allocations raised peak RSS.
    fn size(&mut self, n: usize) {
        self.touch_mark.resize(n, 0);
        self.read_mark.resize(n, 0);
        self.dirty_mark.resize(n, 0);
        self.cus.count.resize(n, 0);
        self.cus.cu.resize(n, 0);
        self.touched.reserve(n);
        self.cus.resident.reserve(n);
    }
}

/// How much of the policy's waiter registry the invariant oracle read:
/// whole-registry reads and the records they visited, by the full sweeps
/// and by per-event checks, journaled reads with the WGs they looked up and
/// the records those lookups visited, and the sorted reads made only to
/// report (module docs). The debug cross-checks are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryReads {
    /// Whole-registry reads by the full sweeps.
    pub sweep_reads: u64,
    /// Records those reads visited.
    pub sweep_records: u64,
    /// Whole-registry reads by per-event checks: the policy keeps no
    /// journal, or the L2's monitored-bit version moved.
    pub full_reads: u64,
    /// Records those reads visited.
    pub full_records: u64,
    /// Journaled reads by per-event checks.
    pub journal_reads: u64,
    /// Journal entries those reads looked up, one WG each.
    pub journal_wgs: u64,
    /// Records those lookups visited.
    pub journal_records: u64,
    /// Sorted whole-registry reads made only to report, after a read found
    /// a record that would report.
    pub report_reads: u64,
}

/// How often the invariant oracle checked the machine, and how (module
/// docs). The debug cross-checks are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleWork {
    /// Full sweeps: after the first event, after the first event at or past
    /// each window boundary, and as [`Gpu::run`] returns.
    pub sweeps: u64,
    /// Per-event checks run, after events that were not quiet.
    pub checks: u64,
    /// Per-event checks skipped after quiet events.
    pub quiet_skips: u64,
    /// CU passes the per-event checks ran: some CU's version moved, or a
    /// touched WG is on more than one resident list, or on one that its
    /// placement or state does not match. Each sweep runs one more.
    pub cu_passes: u64,
}

/// Per WG, how many `WakeDeliver`/`WaitTimeout` events carrying `token[wg]`
/// the calendar holds. Tokens only grow and both sites that schedule these
/// events stamp the WG's current token, so a schedule with a newer token
/// starts a fresh count, and a pop of an older token's event is ignored.
#[derive(Debug, Default)]
struct Rescues {
    token: Vec<u64>,
    count: Vec<u32>,
}

impl Rescues {
    fn scheduled(&mut self, wg: WgId, token: u64) {
        let wg = wg as usize;
        if self.token[wg] == token {
            self.count[wg] += 1;
        } else {
            self.token[wg] = token;
            self.count[wg] = 1;
        }
    }

    fn popped(&mut self, wg: WgId, token: u64) {
        let wg = wg as usize;
        if self.token[wg] == token {
            debug_assert!(self.count[wg] > 0, "rescue count of WG {wg} underflows");
            self.count[wg] -= 1;
        }
    }

    /// Whether the calendar holds a wake or timeout for `w`'s current
    /// token.
    fn pending(&self, w: &Wg) -> bool {
        let wg = w.id as usize;
        self.token[wg] == w.token && self.count[wg] > 0
    }
}

/// The oracle's host-side state: never serialized, never read by the
/// simulation itself.
#[derive(Debug, Default)]
pub(crate) struct OracleState {
    scratch: OracleScratch,
    pub(crate) shadow: OracleShadow,
}

/// Which machine-wide invariant was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// A WG is registered in more than one wait structure at once.
    DuplicateRegistration,
    /// A WG is registered although its state cannot receive a wake.
    StaleRegistration,
    /// A SyncMon-cached waiter's address lost its L2 monitored bit: updates
    /// can no longer notify it (the Bloom/monitored-bit superset property).
    MonitorSupersetHole,
    /// A waiting WG has no wake path at all — no registration, no pending
    /// wake or timeout for its current token, no landed wake.
    UnreachableWaiter,
    /// A wake was delivered to a WG that was not waiting.
    MisdeliveredWake,
    /// The WG population is not conserved: queues and per-WG states
    /// disagree, or the scheduler homes do not sum to the kernel size.
    WgAccounting,
    /// A CU's occupancy or resource counters violate its capacity limits.
    CuAccounting,
    /// A CU's resident list disagrees with per-WG state or placement.
    CuResidency,
}

/// One invariant violation, stamped with the cycle it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Cycle of the scheduling event after which the check fired.
    pub at: Cycle,
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Human-readable specifics (WG ids, addresses, counts).
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle {}: {:?}: {}", self.at, self.kind, self.detail)
    }
}

/// Whether a state occupies CU execution resources. This deliberately
/// includes `SwappingIn` (admitted before its context restore completes),
/// unlike [`WgState::is_resident`] which tracks context *ownership*.
fn holds_cu(state: WgState) -> bool {
    matches!(
        state,
        WgState::Dispatching
            | WgState::Running
            | WgState::Sleeping
            | WgState::Stalled
            | WgState::SwappingOut
            | WgState::SwappingIn
    )
}

/// Whether a WG in `state` cannot receive a wake, so holding a
/// registration is stale.
fn cannot_wake(state: WgState) -> bool {
    matches!(
        state,
        WgState::Pending | WgState::ReadySwapped | WgState::Finished
    )
}

/// `wg`'s records in a registry sorted by WG.
#[cfg(debug_assertions)]
fn records_of(registry: &[(WgId, WaiterRecord)], wg: WgId) -> &[(WgId, WaiterRecord)] {
    let start = registry.partition_point(|&(w, _)| w < wg);
    let end = registry.partition_point(|&(w, _)| w <= wg);
    &registry[start..end]
}

/// The report for a waiter with no wake path.
fn unreachable_detail(w: &Wg) -> String {
    format!(
        "WG {} waiting in state {:?} on {:?} with no registration, no pending wake or timeout, \
         and no landed wake",
        w.id, w.state, w.cond
    )
}

/// Violations found by one check, stamped with its cycle.
struct Reports {
    at: Cycle,
    out: Vec<InvariantViolation>,
}

impl Reports {
    fn new(at: Cycle) -> Self {
        Reports {
            at,
            out: Vec::new(),
        }
    }

    fn push(&mut self, kind: InvariantKind, detail: String) {
        self.out.push(InvariantViolation {
            at: self.at,
            kind,
            detail,
        });
    }
}

impl Gpu {
    /// Sweeps every machine-wide invariant against the current state and
    /// returns the violations found (empty when the machine is sound).
    ///
    /// This is the read-only core of the oracle; with
    /// [`enable_invariant_oracle`](Gpu::enable_invariant_oracle) the
    /// machine runs it at the points the [module docs](crate::oracle)
    /// list, runs the per-event check between them, and accumulates the
    /// findings in [`violations`](Gpu::violations).
    pub fn check_invariants(&self) -> Vec<InvariantViolation> {
        let mut state = self.oracle.borrow_mut();
        // A shadow of its own, so the run's shadow stays as it is.
        self.sweep(&mut state.scratch, &mut OracleShadow::default())
    }

    /// The sweep body, which fills `shadow` with the machine as it checks
    /// it. One pass over the WGs gives the census and the shadow's states,
    /// one pass over the CUs checks them and copies their lists, and one
    /// whole-registry read sets the shadow's marks and counts. Only when
    /// that read finds a record that would report does a sorted read
    /// report the registry's violations, in WG order. Membership sets are
    /// generation marks, so no verdict depends on what the shadow held
    /// before; the event-calendar scan for waiter reachability only runs
    /// when some waiter actually lacks a registration and a landed wake.
    /// The per-event check runs the same checks, in the same order, over
    /// its touch set.
    fn sweep(
        &self,
        scratch: &mut OracleScratch,
        shadow: &mut OracleShadow,
    ) -> Vec<InvariantViolation> {
        let mut r = Reports::new(self.now());
        let gen = scratch.begin(self.wgs.len());
        shadow.size(self.wgs.len());
        // The ground-truth census every later check reads (deliberately
        // *not* the machine's incremental `state_census`, which is itself
        // under test below).
        let mut counts = [0usize; STATES];
        shadow.state.clear();
        shadow.state.extend(self.wgs.iter().map(|w| {
            counts[w.state.census_index()] += 1;
            w.state
        }));
        shadow.census = counts;
        self.check_finished(&counts, &mut r);
        self.check_queues(scratch, gen, &counts, |_| true, &mut r);
        let req = &self.kernel.resources;
        shadow.cus.limits.clear();
        shadow
            .cus
            .limits
            .extend(self.cus.iter().map(|cu| cu.max_occupancy(req)));
        let placed = self.check_cus(scratch, gen, &mut shadow.cus, |_| true, &mut r);
        for w in &self.wgs {
            self.check_placed(w, scratch.placed_mark[w.id as usize] == gen, &mut r);
        }
        self.check_homes(&counts, placed, &mut r);
        shadow.reads.sweep_reads += 1;
        shadow.reads.sweep_records += self.read_marks(shadow);
        if shadow.dirty > 0 || shadow.stale > 0 {
            shadow.reads.report_reads += 1;
            self.check_registry(scratch, gen, &mut r);
        }
        #[cfg(debug_assertions)]
        self.read_registry(&mut shadow.registry);
        self.check_reachable(
            &mut scratch.rescue_mark,
            gen,
            self.wgs.iter().map(|w| w.id),
            |wg| shadow.is_registered(wg),
            None,
            &mut r,
        );
        self.check_census(&counts, &mut r);
        r.out
    }

    /// The full sweep of a run with the oracle on, into the run's shadow,
    /// which the per-event checks then read until the next sweep.
    fn sweep_in_run(
        &self,
        scratch: &mut OracleScratch,
        shadow: &mut OracleShadow,
    ) -> Vec<InvariantViolation> {
        shadow.work.sweeps += 1;
        let found = self.sweep(scratch, shadow);
        if !shadow.primed {
            self.count_rescues(&mut shadow.rescues);
        }
        shadow.next_sweep = (self.now() / SWEEP_WINDOW + 1) * SWEEP_WINDOW;
        shadow.primed = true;
        found
    }

    /// The per-event check over the shadow's touch set (module docs).
    fn check_touched(
        &self,
        scratch: &mut OracleScratch,
        shadow: &mut OracleShadow,
    ) -> Vec<InvariantViolation> {
        let mut r = Reports::new(self.now());
        let gen = scratch.begin(self.wgs.len());
        // Sorted, so per-WG reports come out in the sweep's WG order.
        shadow.touched.sort_unstable();
        for &wg in &shadow.touched {
            let now = self.wgs[wg as usize].state;
            let was = std::mem::replace(&mut shadow.state[wg as usize], now);
            shadow.census[was.census_index()] -= 1;
            shadow.census[now.census_index()] += 1;
            if shadow.is_registered(wg) {
                shadow.stale =
                    shadow.stale + usize::from(cannot_wake(now)) - usize::from(cannot_wake(was));
            }
        }
        let counts = shadow.census;
        self.check_finished(&counts, &mut r);
        self.check_queues(scratch, gen, &counts, |wg| shadow.is_touched(wg), &mut r);
        // While no CU's version moved, the CU checks can only report on a
        // touched WG that more than one list holds, or whose placement or
        // state no longer matches the one list holding it: the rest they
        // would report as the last pass did. Otherwise they run in full,
        // in the sweep's order.
        let cus_quiet = self.cus_unchanged(shadow)
            && shadow.touched.iter().all(|&wg| {
                let w = &self.wgs[wg as usize];
                match shadow.cus.count[wg as usize] {
                    0 => true,
                    1 => w.cu == Some(shadow.cus.cu[wg as usize] as usize) && holds_cu(w.state),
                    _ => false,
                }
            });
        if !cus_quiet {
            shadow.work.cu_passes += 1;
            let (touch_mark, event) = (&shadow.touch_mark, shadow.event);
            self.check_cus(
                scratch,
                gen,
                &mut shadow.cus,
                |wg| touch_mark[wg as usize] == event,
                &mut r,
            );
        }
        for &wg in &shadow.touched {
            let w = &self.wgs[wg as usize];
            self.check_placed(w, shadow.cus.count[wg as usize] > 0, &mut r);
        }
        self.check_homes(&counts, shadow.cus.placed, &mut r);
        if shadow.policy_called {
            // Only a policy call changes the registry or a monitored bit.
            // Waiters whose registration vanished join the touch set.
            let journaled = self.policy.journals_registry();
            if journaled && self.l2.monitored_version() == shadow.bits_version {
                self.read_journal(shadow);
            } else {
                self.reread_registry(shadow, journaled);
            }
            #[cfg(debug_assertions)]
            if journaled {
                self.assert_journal_matches_a_full_read(shadow);
            }
            if shadow.dirty > 0 || shadow.stale > 0 {
                shadow.reads.report_reads += 1;
                self.check_registry(scratch, gen, &mut r);
            }
            shadow.touched.sort_unstable();
        } else if shadow
            .touched
            .iter()
            .any(|&wg| shadow.is_registered(wg) && cannot_wake(self.wgs[wg as usize].state))
        {
            // A touched WG left the waiting states with its record in
            // place: report its stale registration from a sorted read.
            shadow.reads.report_reads += 1;
            let mut registry = std::mem::take(&mut scratch.registry);
            self.read_registry(&mut registry);
            for &wg in &shadow.touched {
                let first = registry.partition_point(|&(w, _)| w < wg);
                if let Some(&(w, rec)) = registry.get(first) {
                    if w == wg {
                        self.check_stale(wg, rec, &mut r);
                    }
                }
            }
            scratch.registry = registry;
        }
        self.check_reachable(
            &mut scratch.rescue_mark,
            gen,
            shadow.touched.iter().copied(),
            |wg| shadow.is_registered(wg),
            Some(&shadow.rescues),
            &mut r,
        );
        self.check_census(&counts, &mut r);
        r.out
    }

    /// Re-reads the records of each WG in the journal into the shadow's
    /// marks and counts. The journal lists every WG whose records changed,
    /// and no monitored bit moved, so every other WG's marks still hold.
    fn read_journal(&self, shadow: &mut OracleShadow) {
        shadow.reads.journal_reads += 1;
        for i in 0..shadow.journal.len() {
            let wg = shadow.journal[i];
            let (mut records, mut hole) = (0u64, false);
            self.policy.for_each_record_of(wg, &mut |rec| {
                records += 1;
                hole |= records == 1 && self.superset_hole(rec);
            });
            shadow.reads.journal_wgs += 1;
            shadow.reads.journal_records += records;
            shadow.set_registration(wg, records > 0, records > 1 || hole);
        }
    }

    /// The per-event whole-registry read, for a policy that keeps no
    /// journal or after a monitored bit moved. A WG the read before listed
    /// and this one did not still carries that read's mark: a journaling
    /// policy lists every such WG in its journal, and for any other policy
    /// every WG is looked at, unless the read before listed none.
    fn reread_registry(&self, shadow: &mut OracleShadow, journaled: bool) {
        let listed = shadow.listed;
        shadow.reads.full_reads += 1;
        shadow.reads.full_records += self.read_marks(shadow);
        let gone = shadow.read - 1;
        let vanished = |shadow: &mut OracleShadow, wg: WgId| {
            if shadow.read_mark[wg as usize] == gone {
                shadow.touch(wg);
            }
        };
        if journaled {
            for i in 0..shadow.journal.len() {
                let wg = shadow.journal[i];
                vanished(shadow, wg);
            }
        } else if listed > 0 {
            for wg in 0..self.wgs.len() as WgId {
                vanished(shadow, wg);
            }
        }
    }

    /// Derives the registry the full way and panics unless the journal
    /// held every WG whose records changed since the last read and the
    /// marks and counts are what a whole read makes of it: a journaling
    /// policy broke the
    /// [`journals_registry`](crate::SchedPolicy::journals_registry)
    /// contract.
    #[cfg(debug_assertions)]
    fn assert_journal_matches_a_full_read(&self, shadow: &mut OracleShadow) {
        let mut now = Vec::new();
        self.read_registry(&mut now);
        let before = std::mem::replace(&mut shadow.registry, now);
        let now = &shadow.registry;
        for &(wg, _) in before.iter().chain(now) {
            assert!(
                records_of(&before, wg) == records_of(now, wg) || shadow.journal.contains(&wg),
                "policy {} changed the waiter records of WG {wg} without journaling it",
                self.policy.name()
            );
        }
        let (mut listed, mut dirty, mut stale) = (Vec::new(), Vec::new(), 0usize);
        for records in now.chunk_by(|a, b| a.0 == b.0) {
            let (wg, rec) = records[0];
            listed.push(wg);
            if records.len() > 1 || self.superset_hole(rec) {
                dirty.push(wg);
            }
            stale += usize::from(cannot_wake(shadow.state[wg as usize]));
        }
        let marked = |marks: &[u64]| -> Vec<WgId> {
            (0..self.wgs.len() as WgId)
                .filter(|&wg| marks[wg as usize] == shadow.read)
                .collect()
        };
        assert_eq!(
            (&listed, &dirty, stale),
            (
                &marked(&shadow.read_mark),
                &marked(&shadow.dirty_mark),
                shadow.stale
            ),
            "policy {} journals its registry, but a full read differs from the journaled one",
            self.policy.name()
        );
        assert_eq!((listed.len(), dirty.len()), (shadow.listed, shadow.dirty));
    }

    /// Whether every CU's resident list and free resources are as the last
    /// CU pass saw them: its version is the one that pass recorded (module
    /// docs). Builds with debug assertions compare the lists and counters
    /// too.
    fn cus_unchanged(&self, shadow: &OracleShadow) -> bool {
        self.cus
            .iter()
            .zip(&shadow.cus.versions)
            .all(|(cu, &version)| {
                let unchanged = cu.version() == version;
                #[cfg(debug_assertions)]
                if unchanged {
                    shadow.cus.assert_copy_of(cu);
                }
                unchanged
            })
    }

    /// Reads the whole registry into the shadow's marks and counts and
    /// returns the number of records visited.
    fn read_marks(&self, shadow: &mut OracleShadow) -> u64 {
        shadow.read += 1;
        shadow.bits_version = self.l2.monitored_version();
        let read = shadow.read;
        let OracleShadow {
            read_mark,
            dirty_mark,
            state,
            ..
        } = shadow;
        let (mut records, mut listed, mut dirty, mut stale) = (0u64, 0usize, 0usize, 0usize);
        self.policy.for_each_waiter(&mut |wg, rec| {
            records += 1;
            let w = wg as usize;
            if read_mark[w] == read {
                // Listed twice.
                if dirty_mark[w] != read {
                    dirty_mark[w] = read;
                    dirty += 1;
                }
                return;
            }
            read_mark[w] = read;
            listed += 1;
            stale += usize::from(cannot_wake(state[w]));
            if self.superset_hole(rec) {
                dirty_mark[w] = read;
                dirty += 1;
            }
        });
        shadow.listed = listed;
        shadow.dirty = dirty;
        shadow.stale = stale;
        records
    }

    /// Rebuilds the rescue counts from the calendar.
    fn count_rescues(&self, rescues: &mut Rescues) {
        rescues.token.clear();
        rescues.token.extend(self.wgs.iter().map(|w| w.token));
        rescues.count.clear();
        rescues.count.resize(self.wgs.len(), 0);
        for (_, ev) in self.events.iter() {
            if let Event::WakeDeliver(wg, token) | Event::WaitTimeout(wg, token) = *ev {
                if rescues.token[wg as usize] == token {
                    rescues.count[wg as usize] += 1;
                }
            }
        }
    }

    /// The oracle's work after the run loop popped and handled `event`:
    /// the full sweep at the first event and at each window boundary, the
    /// per-event check after any other event that is not quiet.
    pub(crate) fn check_event(&self, event: Event) -> Vec<InvariantViolation> {
        let mut state = self.oracle.borrow_mut();
        let OracleState { scratch, shadow } = &mut *state;
        shadow.note_popped(&event);
        // Quiet: the event set no WG's state, applied no wake, called no
        // policy, and left its own WG out of the waiting states (module
        // docs).
        let quiet = shadow.touched.is_empty()
            && !shadow.policy_called
            && event.wg().is_none_or(|wg| {
                !matches!(
                    self.wgs[wg as usize].state,
                    WgState::Stalled | WgState::SwappedWaiting
                )
            });
        if let Some(wg) = event.wg() {
            shadow.touch(wg);
        }
        let found = if !shadow.primed || self.now() >= shadow.next_sweep {
            self.sweep_in_run(scratch, shadow)
        } else if quiet {
            shadow.work.quiet_skips += 1;
            #[cfg(debug_assertions)]
            self.assert_quiet_event_finds_nothing_new(scratch, shadow);
            Vec::new()
        } else {
            shadow.work.checks += 1;
            self.check_touched(scratch, shadow)
        };
        shadow.end_event();
        found
    }

    /// Runs the per-event check a quiet event skipped and panics if it
    /// finds anything the violation log would not already keep: a write
    /// bypassed the mutation sites the skip relies on (module docs). Its
    /// reads and passes are not counted.
    #[cfg(debug_assertions)]
    fn assert_quiet_event_finds_nothing_new(
        &self,
        scratch: &mut OracleScratch,
        shadow: &mut OracleShadow,
    ) {
        let counted = (shadow.reads, shadow.work);
        let found = self.check_touched(scratch, shadow);
        (shadow.reads, shadow.work) = counted;
        for v in found {
            assert!(
                self.violation_held(v.kind, &v.detail),
                "the per-event check a quiet event skipped finds {v}, which the violation log \
                 does not hold"
            );
        }
    }

    /// The full sweep as [`Gpu::run`] returns. A run stopped by the cycle
    /// cap or the watchdog has popped `unhandled`, an event it never
    /// handles; the last per-event check still counted it as a wake path,
    /// so this sweep does too.
    pub(crate) fn check_run_end(&self, unhandled: Option<Event>) -> Vec<InvariantViolation> {
        let mut state = self.oracle.borrow_mut();
        let OracleState { scratch, shadow } = &mut *state;
        if let Some(event) = &unhandled {
            shadow.note_popped(event);
        }
        let mut found = self.sweep_in_run(scratch, shadow);
        if let Some(Event::WakeDeliver(wg, token) | Event::WaitTimeout(wg, token)) = unhandled {
            let w = &self.wgs[wg as usize];
            if w.token == token {
                let rescued = unreachable_detail(w);
                found.retain(|v| {
                    !(v.kind == InvariantKind::UnreachableWaiter && v.detail == rescued)
                });
            }
        }
        shadow.end_event();
        found
    }

    /// Reads the policy's waiter registry into `into`, sorted by WG and
    /// then by record. Policies visit in their own maps' order (hash order
    /// for the monitor policies, `(addr, expected)` order for MinResume),
    /// so the sort is what puts a WG listed twice side by side and fixes
    /// the order in which violations are reported.
    fn read_registry(&self, into: &mut Vec<(WgId, WaiterRecord)>) {
        into.clear();
        self.policy
            .for_each_waiter(&mut |wg, rec| into.push((wg, rec)));
        into.sort_unstable_by_key(|&(wg, rec)| {
            (wg, rec.cond.addr, rec.cond.expected, rec.structure as u8)
        });
    }

    // -- WG conservation: queues agree with states ---------------------

    fn check_finished(&self, counts: &[usize; STATES], r: &mut Reports) {
        let finished_states = counts[WgState::Finished.census_index()];
        if finished_states != self.finished {
            r.push(
                InvariantKind::WgAccounting,
                format!(
                    "finished counter {} but {} WGs in Finished state",
                    self.finished, finished_states
                ),
            );
        }
    }

    /// Both queues in order. Every entry is marked, so duplicates and the
    /// distinct count are exact; only entries `focus` selects are checked
    /// against their WG.
    fn check_queues(
        &self,
        scratch: &mut OracleScratch,
        gen: u64,
        counts: &[usize; STATES],
        focus: impl Fn(WgId) -> bool,
        r: &mut Reports,
    ) {
        for (qi, (queue, name, state)) in [
            (&self.pending, "pending", WgState::Pending),
            (&self.ready, "ready", WgState::ReadySwapped),
        ]
        .into_iter()
        .enumerate()
        {
            // Marks are `gen * 2 + qi`, so each queue gets its own
            // duplicate-detection set without a second generation bump.
            let mark = gen * 2 + qi as u64;
            let mut distinct = 0usize;
            for &wg in queue {
                let seen = scratch.queue_mark[wg as usize] == mark;
                if !seen {
                    scratch.queue_mark[wg as usize] = mark;
                    distinct += 1;
                }
                if !focus(wg) {
                    continue;
                }
                if seen {
                    r.push(
                        InvariantKind::WgAccounting,
                        format!("WG {wg} queued twice in the {name} queue"),
                    );
                }
                let actual = self.wgs[wg as usize].state;
                if actual != state {
                    r.push(
                        InvariantKind::WgAccounting,
                        format!("WG {wg} in the {name} queue but in state {actual:?}"),
                    );
                }
            }
            let in_state = counts[state.census_index()];
            if in_state != distinct {
                r.push(
                    InvariantKind::WgAccounting,
                    format!(
                        "{} WGs in state {state:?} but {} in the {name} queue",
                        in_state, distinct
                    ),
                );
            }
        }
    }

    // -- CU residency and occupancy ------------------------------------

    /// Every CU's resident list and counters, recorded in `copy` (each
    /// CU's version and where the lists place each WG) as they are checked;
    /// returns the number of distinct resident WGs. Residents are marked
    /// like queue entries and checked against their WG when `focus` selects
    /// them. The limits are `copy`'s, which every full sweep refreshes.
    fn check_cus(
        &self,
        scratch: &mut OracleScratch,
        gen: u64,
        copy: &mut CuCopy,
        focus: impl Fn(WgId) -> bool,
        r: &mut Reports,
    ) -> usize {
        let req = &self.kernel.resources;
        let mut placed_count = 0usize;
        copy.clear();
        for (i, cu) in self.cus.iter().enumerate() {
            let (free_wf, free_lds, free_vgpr) = cu.free_resources();
            copy.begin(cu);
            for &wg in cu.resident() {
                let wgu = wg as usize;
                let seen = scratch.placed_mark[wgu] == gen;
                // Written by this pass whenever `seen` holds.
                let prev = copy.cu[wgu];
                if !seen {
                    scratch.placed_mark[wgu] = gen;
                    placed_count += 1;
                }
                copy.push(wg, cu.id());
                if !focus(wg) {
                    continue;
                }
                if seen {
                    r.push(
                        InvariantKind::CuResidency,
                        format!("WG {wg} resident on CU {prev} and CU {}", cu.id()),
                    );
                }
                let w = &self.wgs[wgu];
                if w.cu != Some(cu.id()) {
                    r.push(
                        InvariantKind::CuResidency,
                        format!(
                            "WG {wg} resident on CU {} but its placement says {:?}",
                            cu.id(),
                            w.cu
                        ),
                    );
                }
                if !holds_cu(w.state) {
                    r.push(
                        InvariantKind::CuResidency,
                        format!(
                            "WG {wg} resident on CU {} in non-resident state {:?}",
                            cu.id(),
                            w.state
                        ),
                    );
                }
            }
            let n = cu.resident().len() as u32;
            let limit = copy.limits[i];
            if n > limit {
                r.push(
                    InvariantKind::CuAccounting,
                    format!(
                        "CU {} holds {n} WGs, above its occupancy limit {limit}",
                        cu.id()
                    ),
                );
            }
            let (cap_wf, cap_lds, cap_vgpr) = cu.capacity();
            let used = (
                n * req.wavefronts,
                n * req.lds_bytes,
                n * req.wavefronts * req.vgprs_per_wavefront,
            );
            if (free_wf + used.0, free_lds + used.1, free_vgpr + used.2)
                != (cap_wf, cap_lds, cap_vgpr)
            {
                r.push(
                    InvariantKind::CuAccounting,
                    format!(
                        "CU {} resource leak: {n} residents, free ({free_wf}, {free_lds}, \
                         {free_vgpr}) + demand {used:?} != capacity ({cap_wf}, {cap_lds}, \
                         {cap_vgpr})",
                        cu.id()
                    ),
                );
            }
        }
        #[cfg(debug_assertions)]
        copy.start.push(copy.resident.len());
        placed_count
    }

    /// A WG holding CU resources must be on some CU's resident list.
    fn check_placed(&self, w: &Wg, listed: bool, r: &mut Reports) {
        if holds_cu(w.state) && !listed {
            r.push(
                InvariantKind::CuResidency,
                format!("WG {} in state {:?} but resident on no CU", w.id, w.state),
            );
        }
    }

    // -- WG conservation: homes sum to the kernel size -----------------

    fn check_homes(&self, counts: &[usize; STATES], placed_count: usize, r: &mut Reports) {
        let swapped_waiting = counts[WgState::SwappedWaiting.census_index()];
        let finished_states = counts[WgState::Finished.census_index()];
        let homes = self.pending.len()
            + self.ready.len()
            + placed_count
            + swapped_waiting
            + finished_states;
        if homes as u64 != self.kernel.num_wgs {
            r.push(
                InvariantKind::WgAccounting,
                format!(
                    "{} pending + {} ready + {} resident + {swapped_waiting} swapped-waiting + \
                     {finished_states} finished != {} WGs",
                    self.pending.len(),
                    self.ready.len(),
                    placed_count,
                    self.kernel.num_wgs
                ),
            );
        }
    }

    // -- Waiter registrations ------------------------------------------

    /// Duplicate, stale and monitored-bit checks over the whole registry,
    /// in WG order.
    fn check_registry(&self, scratch: &mut OracleScratch, gen: u64, r: &mut Reports) {
        let mut registry = std::mem::take(&mut scratch.registry);
        self.read_registry(&mut registry);
        for &(wg, rec) in &registry {
            if scratch.registered_mark[wg as usize] == gen {
                r.push(
                    InvariantKind::DuplicateRegistration,
                    format!("WG {wg} registered in more than one wait structure"),
                );
                continue;
            }
            scratch.registered_mark[wg as usize] = gen;
            self.check_stale(wg, rec, r);
            if self.superset_hole(rec) {
                r.push(
                    InvariantKind::MonitorSupersetHole,
                    format!(
                        "WG {wg} cached in the SyncMon for {:#x} but the monitored bit is clear",
                        rec.cond.addr
                    ),
                );
            }
        }
        scratch.registry = registry;
    }

    /// Whether `rec` is cached in the SyncMon on a line whose monitored
    /// bit is clear.
    fn superset_hole(&self, rec: WaiterRecord) -> bool {
        rec.structure == WaiterStructure::SyncMon && !self.l2.is_monitored(rec.cond.addr)
    }

    fn check_stale(&self, wg: WgId, rec: WaiterRecord, r: &mut Reports) {
        let state = self.wgs[wg as usize].state;
        if cannot_wake(state) {
            r.push(
                InvariantKind::StaleRegistration,
                format!(
                    "WG {wg} registered ({:?}) but in state {state:?}",
                    rec.structure
                ),
            );
        }
    }

    // -- Reachability: every waiter has some wake path -----------------

    /// Reports each waiter among `candidates` (ascending) with no
    /// registration, no landed wake and no token-valid wake or timeout in
    /// the calendar. Only a waiter that lacks the first two needs the
    /// calendar: looked up in `rescues` when given, else found by a walk,
    /// the only O(events) step.
    fn check_reachable(
        &self,
        rescue_mark: &mut [u64],
        gen: u64,
        candidates: impl Iterator<Item = WgId> + Clone,
        registered: impl Fn(WgId) -> bool,
        rescues: Option<&Rescues>,
        r: &mut Reports,
    ) {
        let mut needy = 0usize;
        for wg in candidates.clone() {
            let w = &self.wgs[wg as usize];
            if matches!(w.state, WgState::Stalled | WgState::SwappedWaiting)
                && !w.woke
                && !registered(wg)
            {
                rescue_mark[wg as usize] = gen;
                needy += 1;
            }
        }
        if needy == 0 {
            return;
        }
        match rescues {
            Some(rescues) => {
                for wg in candidates.clone() {
                    let w = &self.wgs[wg as usize];
                    if rescue_mark[wg as usize] != gen {
                        continue;
                    }
                    debug_assert_eq!(
                        rescues.pending(w),
                        self.events.iter().any(|(_, ev)| matches!(
                            *ev,
                            Event::WakeDeliver(e, t) | Event::WaitTimeout(e, t)
                                if e == wg && t == w.token
                        )),
                        "rescue count of WG {wg} disagrees with the calendar"
                    );
                    if rescues.pending(w) {
                        rescue_mark[wg as usize] = 0;
                    }
                }
            }
            None => {
                for (_, ev) in self.events.iter() {
                    if let Event::WakeDeliver(wg, token) | Event::WaitTimeout(wg, token) = *ev {
                        let wgu = wg as usize;
                        if rescue_mark[wgu] == gen && self.wgs[wgu].token == token {
                            rescue_mark[wgu] = 0;
                        }
                    }
                }
            }
        }
        for wg in candidates {
            if rescue_mark[wg as usize] == gen {
                r.push(
                    InvariantKind::UnreachableWaiter,
                    unreachable_detail(&self.wgs[wg as usize]),
                );
            }
        }
    }

    // -- SoA census cross-check ----------------------------------------

    /// The machine maintains `state_census` incrementally so hot paths can
    /// count states in O(1); verify it against `counts`. Checked last so
    /// sound machines emit the other checks' output first.
    fn check_census(&self, counts: &[usize; STATES], r: &mut Reports) {
        if self.state_census != *counts {
            r.push(
                InvariantKind::WgAccounting,
                format!(
                    "incremental state census {:?} disagrees with per-WG scan {:?}",
                    self.state_census, counts
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Kernel;
    use crate::config::WgResources;
    use crate::policy::{
        BusyWaitPolicy, PolicyCtx, SchedPolicy, SyncCond, SyncFail, SyncStyle, WaitDirective,
    };
    use crate::{GpuConfig, RunOutcome};
    use awg_isa::{Cond, Operand, ProgramBuilder, Reg, Special};

    fn mini_gpu(num_wgs: u64) -> Gpu {
        let mut b = ProgramBuilder::new("oracle");
        b.compute(50);
        b.halt();
        let kernel = Kernel::new(b.build().unwrap(), num_wgs, WgResources::default());
        Gpu::new(
            GpuConfig::isca2020_baseline(),
            kernel,
            Box::new(BusyWaitPolicy::new()),
        )
    }

    #[test]
    fn clean_run_has_no_violations() {
        let mut gpu = mini_gpu(4);
        gpu.enable_invariant_oracle();
        let outcome = gpu.run();
        assert!(outcome.is_completed(), "{outcome:?}");
        assert!(gpu.violations().is_empty(), "{:?}", gpu.violations());
    }

    #[test]
    fn tampered_waiter_is_unreachable() {
        let mut gpu = mini_gpu(2);
        assert!(gpu.run().is_completed());
        // Forge a waiter the scheduler has forgotten about: stalled, with a
        // condition, but no registration, event, or landed wake.
        gpu.wgs[0].state = WgState::Stalled;
        gpu.wgs[0].cond = Some(SyncCond {
            addr: 4096,
            expected: 1,
        });
        let kinds: Vec<InvariantKind> = gpu.check_invariants().iter().map(|v| v.kind).collect();
        assert!(
            kinds.contains(&InvariantKind::UnreachableWaiter),
            "{kinds:?}"
        );
        assert!(kinds.contains(&InvariantKind::WgAccounting), "{kinds:?}");
    }

    #[test]
    fn tampered_residency_is_caught() {
        let mut gpu = mini_gpu(2);
        assert!(gpu.run().is_completed());
        // Re-admit a finished WG behind the scheduler's back.
        let req = gpu.kernel.resources;
        gpu.cus[0].admit(0, &req);
        let kinds: Vec<InvariantKind> = gpu.check_invariants().iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&InvariantKind::CuResidency), "{kinds:?}");
    }

    /// WG 0 halts at once; the other three compute in 500-cycle steps for
    /// about 20k cycles, so a run crosses several sweep windows.
    fn staggered_gpu() -> Gpu {
        staggered_gpu_stepping(|b| {
            b.compute(500);
        })
    }

    /// `staggered_gpu` with `step_with` emitting each 500-cycle step.
    fn staggered_gpu_stepping(step_with: impl Fn(&mut ProgramBuilder)) -> Gpu {
        let mut b = ProgramBuilder::new("staggered");
        let step = b.new_label();
        let done = b.new_label();
        b.special(Reg::R1, Special::WgId);
        b.br(Cond::Eq, Reg::R1, Operand::Imm(0), done);
        b.li(Reg::R2, 0);
        b.bind(step);
        step_with(&mut b);
        b.add(Reg::R2, Reg::R2, 1i64);
        b.br(Cond::Lt, Reg::R2, Operand::Imm(40), step);
        b.bind(done);
        b.halt();
        let kernel = Kernel::new(b.build().unwrap(), 4, WgResources::default());
        let mut gpu = Gpu::new(
            GpuConfig::isca2020_baseline(),
            kernel,
            Box::new(BusyWaitPolicy::new()),
        );
        gpu.enable_invariant_oracle();
        gpu
    }

    /// Stops `gpu` mid-run before cycle `pause`. The cycle cap pops the
    /// first event past it without handling it, so a no-op CU restore is
    /// planted there to be that event.
    fn pause_before(gpu: &mut Gpu, pause: Cycle) {
        gpu.schedule_resource_restore(0, pause);
        gpu.config.max_cycles = pause - 1;
        assert!(matches!(gpu.run(), RunOutcome::CycleLimit { .. }));
        gpu.config.max_cycles = GpuConfig::isca2020_baseline().max_cycles;
        assert!(gpu.violations().is_empty(), "{:?}", gpu.violations());
    }

    /// Turns the finished WG 0 back into a stalled waiter by writing its
    /// state directly, past `set_wg_state`.
    fn forge_waiter(gpu: &mut Gpu) {
        assert_eq!(gpu.wgs[0].state, WgState::Finished);
        gpu.wgs[0].state = WgState::Stalled;
        gpu.wgs[0].cond = Some(SyncCond {
            addr: 4096,
            expected: 1,
        });
    }

    /// The cycle the forged waiter was first reported at. Nothing is
    /// reported before it; later events may add reports, as each WG that
    /// finishes moves the counts the forgery already skews.
    fn forgery_reported_at(gpu: &Gpu) -> Cycle {
        let v = gpu.violations();
        let unreachable = v
            .iter()
            .find(|v| v.kind == InvariantKind::UnreachableWaiter)
            .unwrap_or_else(|| panic!("{v:?}"));
        assert!(unreachable.detail.starts_with("WG 0 "), "{unreachable}");
        assert!(v.iter().all(|v| v.at >= unreachable.at), "{v:?}");
        unreachable.at
    }

    fn completion_cycle(outcome: RunOutcome) -> Cycle {
        match outcome {
            RunOutcome::Completed(summary) => summary.cycles,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn direct_state_write_waits_for_the_next_window_sweep() {
        let mut gpu = staggered_gpu();
        pause_before(&mut gpu, 7_000);
        forge_waiter(&mut gpu);
        let resumed_at = gpu.events.peek_cycle().unwrap();
        completion_cycle(gpu.run());
        // Per-event checks ran from the pause to the boundary at 10k; none
        // of them touched WG 0. The first event past the boundary (the
        // WGs step every ~500 cycles) sweeps in full and reports it.
        let boundary = 2 * SWEEP_WINDOW;
        assert!(resumed_at < boundary);
        let at = forgery_reported_at(&gpu);
        assert!(
            (boundary..boundary + 1_000).contains(&at),
            "reported at {at}"
        );
    }

    /// Clears WG 1's CU placement directly, past the mutation sites. In
    /// `staggered_gpu` WG 1 is running, and its next event, a `Continue`
    /// that computes on, is quiet: it sets no state, wakes nobody and calls
    /// no policy.
    fn unplace_wg_1(gpu: &mut Gpu, state: WgState) {
        assert_eq!(gpu.wgs[1].state, state);
        assert!(gpu.wgs[1].cu.take().is_some());
    }

    /// The first violation `gpu` recorded: WG 1's placement disagreeing
    /// with the CU list that holds it.
    fn unplaced_wg_1_reported_at(gpu: &Gpu) -> Cycle {
        let v = gpu.violations();
        let first = v.first().unwrap_or_else(|| panic!("nothing reported"));
        assert_eq!(first.kind, InvariantKind::CuResidency, "{first}");
        assert!(
            first.detail.starts_with("WG 1 resident on CU ")
                && first.detail.ends_with(" but its placement says None"),
            "{first}"
        );
        first.at
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the per-event check a quiet event skipped finds")]
    fn debug_builds_rerun_the_check_a_quiet_event_skips() {
        let mut gpu = staggered_gpu();
        pause_before(&mut gpu, 7_000);
        unplace_wg_1(&mut gpu, WgState::Running);
        gpu.run();
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn direct_write_to_a_quiet_events_wg_waits_for_the_next_window_sweep() {
        let mut gpu = staggered_gpu();
        pause_before(&mut gpu, 7_000);
        unplace_wg_1(&mut gpu, WgState::Running);
        let resumed_at = gpu.events.peek_cycle().unwrap();
        completion_cycle(gpu.run());
        // WG 1's events until the boundary at 10k were quiet, so no check
        // read its placement; the first event past the boundary sweeps in
        // full and reports it.
        let boundary = 2 * SWEEP_WINDOW;
        assert!(resumed_at < boundary);
        let at = unplaced_wg_1_reported_at(&gpu);
        assert!(
            (boundary..boundary + 1_000).contains(&at),
            "reported at {at}"
        );
    }

    #[test]
    fn direct_write_to_a_wg_whose_next_event_sets_its_state_is_reported_there() {
        // Each step sleeps, so every event of WG 1 sets its state twice
        // (Sleeping to Running, and back at the next sleep): none is quiet.
        let mut gpu = staggered_gpu_stepping(|b| {
            b.sleep(500i64);
        });
        pause_before(&mut gpu, 7_000);
        unplace_wg_1(&mut gpu, WgState::Sleeping);
        completion_cycle(gpu.run());
        let at = unplaced_wg_1_reported_at(&gpu);
        assert!((7_000..7_600).contains(&at), "reported at {at}");
    }

    #[test]
    fn cu_tampered_through_admit_is_reported_at_the_wgs_next_event() {
        // As above, every event of WG 1 sets its state: none is quiet.
        let mut gpu = staggered_gpu_stepping(|b| {
            b.sleep(500i64);
        });
        pause_before(&mut gpu, 7_000);
        // Admit the resident WG 1 to a second CU behind the scheduler's
        // back. The write bumps that CU's version, so the CU pass runs.
        let home = gpu.wgs[1].cu.expect("WG 1 is resident");
        let other = (home + 1) % gpu.cus.len();
        let req = gpu.kernel.resources;
        gpu.cus[other].admit(1, &req);
        completion_cycle(gpu.run());
        let v = gpu.violations();
        let first = v.first().unwrap_or_else(|| panic!("nothing reported"));
        assert_eq!(first.kind, InvariantKind::CuResidency, "{first}");
        assert!(first.detail.starts_with("WG 1 resident on CU "), "{first}");
        assert!(
            (7_000..7_600).contains(&first.at),
            "reported at {}",
            first.at
        );
    }

    #[test]
    fn wg_on_two_lists_is_reported_when_touched_after_the_pass_that_saw_it() {
        let mut gpu = staggered_gpu();
        pause_before(&mut gpu, 7_000);
        let home = gpu.wgs[1].cu.expect("WG 1 is resident");
        let other = (home + 1) % gpu.cus.len();
        let req = gpu.kernel.resources;
        gpu.cus[other].admit(1, &req);
        let now = gpu.now();
        // A check that touches WG 2 alone: the moved version sends it to
        // the CU pass, which records WG 1 on two lists but checks only
        // touched WGs.
        let state = gpu.wgs[2].state;
        gpu.set_wg_state(2, state, now);
        assert_eq!(gpu.check_event(Event::CpTick), Vec::new());
        // No version moves before WG 1 is touched, so its two lists alone
        // must send the check to the CU pass.
        let state = gpu.wgs[1].state;
        gpu.set_wg_state(1, state, now);
        let found = gpu.check_event(Event::CpTick);
        let first = found.first().unwrap_or_else(|| panic!("nothing reported"));
        assert_eq!(first.kind, InvariantKind::CuResidency, "{first}");
        assert!(first.detail.starts_with("WG 1 resident on CU "), "{first}");
    }

    #[test]
    fn state_set_that_leaves_a_wg_on_its_cu_is_reported_at_the_next_event() {
        let mut gpu = staggered_gpu();
        pause_before(&mut gpu, 7_000);
        // A planted machine bug: WG 1 leaves the CU-holding states through
        // the state setter, which touches it, but stays on its CU's list.
        // No CU's version moves, so only the touched WG's state sends the
        // check to the CU pass. The token bump turns WG 1's pending
        // `Continue` stale, so no handler runs on the planted state.
        let now = gpu.now();
        gpu.set_wg_state(1, WgState::SwappedWaiting, now);
        gpu.wgs[1].token += 1;
        let next = gpu.events.peek_cycle().unwrap();
        gpu.schedule_resource_restore(0, next + 1);
        gpu.config.max_cycles = next;
        assert!(matches!(gpu.run(), RunOutcome::CycleLimit { .. }));
        let v = gpu.violations();
        let first = v.first().unwrap_or_else(|| panic!("nothing reported"));
        assert_eq!((first.at, first.kind), (next, InvariantKind::CuResidency));
        assert!(
            first.detail.starts_with("WG 1 resident on CU ")
                && first
                    .detail
                    .ends_with(" in non-resident state SwappedWaiting"),
            "{first}"
        );
    }

    #[test]
    fn direct_state_write_after_the_last_window_waits_for_the_run_end_sweep() {
        let mut reference = staggered_gpu();
        let end = completion_cycle(reference.run());
        assert!(reference.violations().is_empty());
        let pause = end - 200;
        assert_eq!(pause / SWEEP_WINDOW, end / SWEEP_WINDOW, "no boundary left");
        let mut gpu = staggered_gpu();
        pause_before(&mut gpu, pause);
        forge_waiter(&mut gpu);
        assert_eq!(completion_cycle(gpu.run()), end);
        assert_eq!(forgery_reported_at(&gpu), end);
    }

    /// Parks every failed waiting atomic behind a 1,000-cycle fallback
    /// timeout and registers nothing: the calendar holds the only wake path.
    #[derive(Debug)]
    struct TimeoutOnly;

    impl SchedPolicy for TimeoutOnly {
        fn name(&self) -> &str {
            "TimeoutOnly"
        }
        fn style(&self) -> SyncStyle {
            SyncStyle::WaitingAtomic
        }
        fn on_sync_fail(&mut self, _ctx: &mut PolicyCtx<'_>, _fail: &SyncFail) -> WaitDirective {
            WaitDirective::Wait {
                release: false,
                timeout: Some(1_000),
            }
        }
    }

    /// One WG waits on a flag nobody sets, rescued only by timeouts.
    fn timeout_only_gpu() -> Gpu {
        let mut b = ProgramBuilder::new("forever");
        let retry = b.new_label();
        b.bind(retry);
        b.atom_cmp_wait(Reg::R0, 4096u64, 1i64);
        b.jmp(retry);
        let kernel = Kernel::new(b.build().unwrap(), 1, WgResources::default());
        let mut gpu = Gpu::new(
            GpuConfig::isca2020_baseline(),
            kernel,
            Box::new(TimeoutOnly),
        );
        gpu.enable_invariant_oracle();
        gpu
    }

    #[test]
    fn run_cut_at_the_cycle_cap_still_counts_its_unhandled_timeout() {
        let mut gpu = timeout_only_gpu();
        gpu.config.max_cycles = 5_500;
        assert!(matches!(gpu.run(), RunOutcome::CycleLimit { .. }));
        // The cap popped the stalled waiter's timeout without handling it,
        // so a sweep of the machine as returned finds no wake path...
        assert_eq!(gpu.wgs[0].state, WgState::Stalled);
        let kinds: Vec<InvariantKind> = gpu.check_invariants().iter().map(|v| v.kind).collect();
        assert_eq!(kinds, [InvariantKind::UnreachableWaiter]);
        // ...but the run-end sweep counted it, as the last event's check did.
        assert!(gpu.violations().is_empty(), "{:?}", gpu.violations());
    }

    #[test]
    fn direct_write_to_a_waiting_wgs_token_is_reported_at_its_next_event() {
        // Bumping the stalled waiter's token directly makes its pending
        // timeout stale, so it has no wake path left. Popping that timeout
        // changes nothing else, but the event's own WG is waiting, so the
        // event is not quiet: its check reports the waiter there, long
        // before the next sweep.
        let mut gpu = timeout_only_gpu();
        pause_before(&mut gpu, 3_000);
        assert_eq!(gpu.wgs[0].state, WgState::Stalled);
        let token = gpu.wgs[0].token;
        let stale_at = gpu
            .events
            .iter()
            .find_map(|(at, ev)| {
                matches!(*ev, Event::WaitTimeout(0, t) if t == token).then_some(at)
            })
            .expect("a pending timeout");
        gpu.wgs[0].token += 1;
        assert!(!gpu.run().is_completed());
        let v = gpu.violations();
        let first = v.first().unwrap_or_else(|| panic!("nothing reported"));
        assert_eq!(first.kind, InvariantKind::UnreachableWaiter, "{first}");
        assert!(first.detail.starts_with("WG 0 "), "{first}");
        assert_eq!(first.at, stale_at);
    }

    /// Registers each failed waiter once, journaling its record, and never
    /// drops a record: a waiter that retries and finishes leaves a stale
    /// one. Only its 1,000-cycle fallback timeout wakes a waiter.
    #[derive(Debug, Default)]
    struct Sticky {
        waiters: std::collections::BTreeMap<WgId, SyncCond>,
    }

    fn policy_local(cond: SyncCond) -> WaiterRecord {
        WaiterRecord {
            cond,
            structure: WaiterStructure::PolicyLocal,
        }
    }

    impl SchedPolicy for Sticky {
        fn name(&self) -> &str {
            "Sticky"
        }
        fn style(&self) -> SyncStyle {
            SyncStyle::WaitingAtomic
        }
        fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
            if self.waiters.insert(fail.wg, fail.cond).is_none() {
                ctx.journal_change(fail.wg);
            }
            WaitDirective::Wait {
                release: false,
                timeout: Some(1_000),
            }
        }
        fn for_each_waiter(&self, visit: &mut dyn FnMut(WgId, WaiterRecord)) {
            for (&wg, &cond) in &self.waiters {
                visit(wg, policy_local(cond));
            }
        }
        fn journals_registry(&self) -> bool {
            true
        }
        fn for_each_record_of(&self, wg: WgId, visit: &mut dyn FnMut(WaiterRecord)) {
            if let Some(&cond) = self.waiters.get(&wg) {
                visit(policy_local(cond));
            }
        }
    }

    #[test]
    fn record_kept_past_finish_is_stale_at_the_finish_under_an_empty_journal() {
        // WG 0 raises a flag at ~3k cycles and computes on to ~23k; WG 1
        // waits for the flag, then halts. Its finish calls the policy,
        // which keeps its record and journals nothing, so the journaled
        // read there looks up no WG: the stale count must still report it
        // then, not at the 5k-cycle sweep.
        const FLAG: u64 = 4096;
        let mut b = ProgramBuilder::new("sticky");
        let waiter = b.new_label();
        let retry = b.new_label();
        b.special(Reg::R1, Special::WgId);
        b.br(Cond::Ne, Reg::R1, Operand::Imm(0), waiter);
        b.compute(3_000);
        b.atom_exch(Reg::R0, FLAG, 1i64);
        b.compute(20_000);
        b.halt();
        b.bind(waiter);
        b.bind(retry);
        b.atom_cmp_wait(Reg::R0, FLAG, 1i64);
        b.br(Cond::Ne, Reg::R0, Operand::Imm(1), retry);
        b.halt();
        let kernel = Kernel::new(b.build().unwrap(), 2, WgResources::default());
        let mut gpu = Gpu::new(
            GpuConfig::isca2020_baseline(),
            kernel,
            Box::new(Sticky::default()),
        );
        gpu.enable_invariant_oracle();
        assert!(gpu.run().is_completed());
        let finished = gpu.wgs[1].finished_at.expect("WG 1 finished");
        assert!(finished < SWEEP_WINDOW, "WG 1 finished at {finished}");
        let v = gpu.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, InvariantKind::StaleRegistration);
        assert_eq!(
            v[0].detail,
            "WG 1 registered (PolicyLocal) but in state Finished"
        );
        // Stamped with the event whose interpreter batch ran the halt,
        // a few issue slots before the halt's own cycle.
        assert!(
            (finished - 100..=finished).contains(&v[0].at),
            "reported at {}, WG 1 finished at {finished}",
            v[0].at
        );
    }

    #[test]
    fn violation_renders_with_cycle_and_kind() {
        let v = InvariantViolation {
            at: 7,
            kind: InvariantKind::CuAccounting,
            detail: "CU 0 resource leak".into(),
        };
        let text = v.to_string();
        assert!(text.contains("cycle 7"), "{text}");
        assert!(text.contains("CuAccounting"), "{text}");
    }
}
