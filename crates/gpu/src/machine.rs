//! The event-driven GPU timing simulator.
//!
//! One [`Gpu`] simulates one kernel launch under one scheduling policy. The
//! main loop pops timed events (instruction batch continuations, memory
//! responses, wait timeouts, context-switch completions, CP firmware ticks,
//! the resource-loss event of the §VI oversubscribed experiment) and drives
//! the per-WG interpreters. All waiting decisions are delegated to the
//! installed [`SchedPolicy`].

use std::collections::{BTreeMap, VecDeque};

use std::time::{Duration, Instant};

use awg_isa::{Inst, Mem, Operand, RegFile, Special};
use awg_mem::{Addr, AtomicRequest, Backing, L2};
use awg_sim::telemetry::{
    AttributionCause, SnapshotSample, Subsystem, SwapDir, ATTRIBUTION_CAUSES, PROGRESS_STATES,
};
use awg_sim::{
    Cycle, EventQueue, Fingerprint64, HistId, ProfileReport, Stats, TelemetryConfig, TelemetryHub,
};

use crate::config::{GpuConfig, Kernel, CONTEXT_BASE};
use crate::cu::Cu;
use crate::error::SimError;
use crate::fault::{FaultKind, FaultPlan, WakeChaosMode};
use crate::hotprof::{HotProfile, HotReport};
use crate::oracle::{InvariantKind, InvariantViolation};
use crate::policy::{
    MonitoredUpdate, PolicyCtx, SchedPolicy, SyncCond, SyncFail, TimeoutAction, WaitDirective, Wake,
};
use crate::result::{HangReport, RunOutcome, RunSummary, WgWaitInfo};
use crate::trace::{Trace, TraceEvent, TraceRecord};
use crate::watchdog::Watchdog;
use crate::wg::{ParkedResponse, Wg, WgId, WgState};

/// Maximum instructions interpreted inline before yielding to the event
/// queue (guards against ALU-only infinite loops freezing simulated time).
const MAX_INLINE_STEPS: usize = 1024;

/// The value of `op` in the register file `regs`.
#[inline]
fn value_of(regs: &RegFile, op: Operand) -> i64 {
    match op {
        Operand::Imm(v) => v,
        Operand::Reg(r) => regs.get(r),
    }
}

/// Counters a run summary adds to its copy of the live registry, with
/// room to spare: 8 memory-system, 8 fault and up to 19 policy counters.
const SUMMARY_COUNTERS: usize = 40;

/// Fallback timeout forced onto `Wait { timeout: None }` directives while a
/// fault plan is installed: dropped wakes must never strand a waiter
/// forever, or every Drop window would read as a deadlock.
const CHAOS_BACKSTOP_TIMEOUT: Cycle = 200_000;

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// Resume batch execution (compute/sleep/barrier done, inline-step cap).
    Continue(WgId, u64),
    /// A memory/sync response reached the CU; deliver it (applying any
    /// pending wait directive), then continue.
    Response(WgId, u64),
    /// A policy wake reaches the WG.
    WakeDeliver(WgId, u64),
    /// A waiting WG's fallback timeout fired.
    WaitTimeout(WgId, u64),
    /// Context save traffic finished.
    SwapOutDone(WgId, u64),
    /// Context restore traffic finished.
    SwapInDone(WgId, u64),
    /// Dispatch latency elapsed.
    DispatchDone(WgId, u64),
    /// CP firmware tick.
    CpTick,
    /// Disable a CU and preempt its residents (oversubscribed experiment).
    ResourceLoss(usize),
    /// Re-enable a previously disabled CU (the preempting high-priority
    /// kernel finished; resources return).
    ResourceRestore(usize),
    /// Periodic deadlock/livelock check.
    ProgressCheck,
    /// The installed fault plan's event at this index fires.
    Fault(usize),
}

impl Event {
    /// Hot-profile lane index, matching [`crate::hotprof::LANE_NAMES`].
    fn lane(&self) -> usize {
        match self {
            Event::Continue(..) => 0,
            Event::Response(..) => 1,
            Event::WakeDeliver(..) => 2,
            Event::WaitTimeout(..) => 3,
            Event::SwapOutDone(..) => 4,
            Event::SwapInDone(..) => 5,
            Event::DispatchDone(..) => 6,
            Event::CpTick => 7,
            Event::ResourceLoss(_) => 8,
            Event::ResourceRestore(_) => 9,
            Event::ProgressCheck => 10,
            Event::Fault(_) => 11,
        }
    }

    /// The WG the event belongs to, if any.
    pub(crate) fn wg(&self) -> Option<WgId> {
        match *self {
            Event::Continue(wg, _)
            | Event::Response(wg, _)
            | Event::WakeDeliver(wg, _)
            | Event::WaitTimeout(wg, _)
            | Event::SwapOutDone(wg, _)
            | Event::SwapInDone(wg, _)
            | Event::DispatchDone(wg, _) => Some(wg),
            Event::CpTick
            | Event::ResourceLoss(_)
            | Event::ResourceRestore(_)
            | Event::ProgressCheck
            | Event::Fault(_) => None,
        }
    }
}

/// Running tallies of the chaos the fault plan actually inflicted.
#[derive(Debug, Clone, Copy, Default)]
struct ChaosCounters {
    cu_losses: u64,
    wake_windows: u64,
    wakes_dropped: u64,
    wakes_delayed: u64,
    wakes_duplicated: u64,
    wakes_reordered: u64,
    policy_injections: u64,
    ctx_stall_hits: u64,
}

/// The GPU simulator.
pub struct Gpu {
    pub(crate) config: GpuConfig,
    pub(crate) kernel: Kernel,
    pub(crate) l2: L2,
    pub(crate) cus: Vec<Cu>,
    pub(crate) wgs: Vec<Wg>,
    pub(crate) events: EventQueue<Event>,
    now: Cycle,
    pub(crate) policy: Box<dyn SchedPolicy>,
    stats: Stats,
    /// `wait_episode_cycles` in `stats`, resolved at the first wake
    /// delivery.
    wait_episode_hist: Option<HistId>,
    /// The wake buffer the policy hooks append to and
    /// [`Gpu::apply_wakes`] drains; kept between calls for its capacity.
    /// Always empty between events.
    wake_buf: Vec<Wake>,
    pub(crate) pending: VecDeque<WgId>,
    pub(crate) ready: VecDeque<WgId>,
    pub(crate) finished: usize,
    /// Struct-of-arrays census of WG scheduling states, indexed by
    /// [`WgState::census_index`]. Maintained incrementally by
    /// [`Gpu::set_wg_state`] so hot policy-context assembly (every store
    /// and atomic) reads a counter instead of scanning every WG; the
    /// invariant oracle cross-checks it against the per-WG ground truth.
    pub(crate) state_census: [usize; WgState::ALL.len()],
    /// The oracle's scratch buffers and the per-event check's shadow of
    /// the machine. Host-only, like `hotprof`: never read by the simulation
    /// itself.
    pub(crate) oracle: std::cell::RefCell<crate::oracle::OracleState>,
    last_progress: Cycle,
    resumes: u64,
    unnecessary_resumes: u64,
    switches_out: u64,
    switches_in: u64,
    resource_loss: Vec<(usize, Cycle)>,
    resource_restore: Vec<(usize, Cycle)>,
    trace: Trace,
    deadlocked: Option<Cycle>,
    fault_plan: Option<FaultPlan>,
    wake_chaos: Option<(WakeChaosMode, Cycle)>,
    ctx_stall_until: Cycle,
    ctx_stall_extra: Cycle,
    chaos: ChaosCounters,
    oracle_on: bool,
    violations: Vec<InvariantViolation>,
    digest_window: Option<Cycle>,
    digest_next: Cycle,
    digest_trail: Vec<u64>,
    telemetry: Option<TelemetryHub>,
    /// Host hot-path profiler. Like the hub's `SelfProfile`, this is
    /// host-only state, never fed back into simulation.
    hotprof: Option<Box<HotProfile>>,
    watchdog: Option<Watchdog>,
    run_started: Option<Instant>,
    run_wall: Duration,
    /// Whether [`Gpu::run`]'s one-time prologue (experiment events, CP tick,
    /// progress check, first dispatch) has executed. A run stopped at the
    /// cycle cap may be resumed by calling `run` again, and its calendar
    /// already holds those events.
    started: bool,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("now", &self.now)
            .field("policy", &self.policy.name())
            .field("num_wgs", &self.kernel.num_wgs)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl Gpu {
    /// Creates a simulator for `kernel` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel's WGs cannot fit on even one CU.
    pub fn new(config: GpuConfig, kernel: Kernel, policy: Box<dyn SchedPolicy>) -> Self {
        match Self::try_new(config, kernel, policy) {
            Ok(gpu) => gpu,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Gpu::new`] for user-supplied configurations.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the kernel's WGs cannot fit on even
    /// one CU, or if the host cannot allocate the per-WG state.
    pub fn try_new(
        config: GpuConfig,
        kernel: Kernel,
        policy: Box<dyn SchedPolicy>,
    ) -> Result<Self, SimError> {
        let cus: Vec<Cu> = (0..config.num_cus).map(|i| Cu::new(i, &config)).collect();
        if cus.is_empty() || cus[0].max_occupancy(&kernel.resources) < 1 {
            return Err(SimError::Config("a single WG must fit on a CU".into()));
        }
        let out_of_memory = |what: &str| {
            SimError::Config(format!("cannot allocate {what} for {} WGs", kernel.num_wgs))
        };
        let num_wgs = usize::try_from(kernel.num_wgs).map_err(|_| out_of_memory("WG state"))?;
        let mut wgs = Vec::new();
        wgs.try_reserve_exact(num_wgs)
            .map_err(|_| out_of_memory("WG state"))?;
        wgs.extend((0..kernel.num_wgs).map(|i| Wg::new(i as WgId)));
        let mut l2 = L2::with_dram(config.l2, config.dram);
        for &(addr, value) in &kernel.init_memory {
            l2.backing_mut().store(addr, value);
        }
        let mut pending = VecDeque::new();
        pending
            .try_reserve_exact(num_wgs)
            .map_err(|_| out_of_memory("the dispatch queue"))?;
        pending.extend(0..kernel.num_wgs as WgId);
        // Pre-size the event arena from the machine's shape: steady state
        // holds a few in-flight events per work-group (response, wake,
        // timeout) plus token-stale timeout residue, well under 8 per WG.
        let event_capacity = num_wgs.saturating_mul(8).saturating_add(64);
        let events = EventQueue::try_with_capacity(event_capacity)
            .map_err(|_| out_of_memory("the event calendar"))?;
        let mut state_census = [0usize; WgState::ALL.len()];
        state_census[WgState::Pending.census_index()] = num_wgs;
        Ok(Gpu {
            config,
            kernel,
            l2,
            cus,
            wgs,
            events,
            now: 0,
            policy,
            stats: Stats::new(),
            wait_episode_hist: None,
            wake_buf: Vec::new(),
            pending,
            ready: VecDeque::new(),
            finished: 0,
            state_census,
            oracle: std::cell::RefCell::new(Default::default()),
            last_progress: 0,
            resumes: 0,
            unnecessary_resumes: 0,
            switches_out: 0,
            switches_in: 0,
            resource_loss: Vec::new(),
            resource_restore: Vec::new(),
            trace: Trace::new(),
            deadlocked: None,
            fault_plan: None,
            wake_chaos: None,
            ctx_stall_until: 0,
            ctx_stall_extra: 0,
            chaos: ChaosCounters::default(),
            oracle_on: false,
            violations: Vec::new(),
            digest_window: None,
            digest_next: 0,
            digest_trail: Vec::new(),
            telemetry: None,
            hotprof: None,
            watchdog: None,
            run_started: None,
            run_wall: Duration::ZERO,
            started: false,
        })
    }

    /// Installs a cooperative-cancellation watchdog. The event loop polls
    /// it each iteration; when a limit fires the run ends with
    /// [`RunOutcome::Cancelled`], keeping the usual summary and forensic
    /// hang report.
    pub fn set_watchdog(&mut self, watchdog: Watchdog) -> &mut Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Installs a seeded fault plan; its timeline is injected while the
    /// kernel runs. Installing a plan also arms the chaos backstop: waits
    /// with no fallback timeout are clamped to a finite one, so dropped
    /// wakes stall a waiter but cannot strand it.
    ///
    /// # Panics
    ///
    /// Panics if the plan unplugs a CU this machine does not have.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        match self.try_install_fault_plan(plan) {
            Ok(gpu) => gpu,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`install_fault_plan`](Gpu::install_fault_plan)
    /// for plans loaded from user-supplied reproducer files.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the plan unplugs a CU this machine
    /// does not have.
    pub fn try_install_fault_plan(&mut self, plan: FaultPlan) -> Result<&mut Self, SimError> {
        if let Some(cu) = plan.max_cu() {
            if cu >= self.config.num_cus {
                return Err(SimError::Config(format!("fault plan unplugs CU {cu}")));
            }
        }
        self.fault_plan = Some(plan);
        Ok(self)
    }

    /// Enables the invariant oracle: after every scheduling event the
    /// machine cross-checks what the event touched against the machine-wide
    /// invariants, and sweeps them all once per
    /// [`SWEEP_WINDOW`](crate::oracle::SWEEP_WINDOW) and at run end (see
    /// [`crate::oracle`]); violations are recorded for
    /// [`violations`](Gpu::violations).
    pub fn enable_invariant_oracle(&mut self) -> &mut Self {
        self.oracle_on = true;
        self
    }

    /// Invariant violations the oracle has recorded so far (empty unless
    /// [`enable_invariant_oracle`](Gpu::enable_invariant_oracle) was called).
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Enables the cycle-windowed digest trail: at every multiple of
    /// `window` cycles the machine appends [`digest`](Gpu::digest) to a
    /// trail, so two same-seed runs can be compared window by window and
    /// the first divergent window identified.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn enable_digest_trail(&mut self, window: Cycle) -> &mut Self {
        assert!(window > 0, "digest window must be positive");
        self.digest_window = Some(window);
        self.digest_next = window;
        self
    }

    /// The per-window digest trail recorded so far.
    pub fn digest_trail(&self) -> &[u64] {
        &self.digest_trail
    }

    /// Order-sensitive digest of the machine's architectural state: queues,
    /// per-WG execution state, CU residency, and every non-zero memory
    /// word. Two same-seed runs must digest identically at identical event
    /// boundaries; any mismatch is a determinism bug.
    pub fn digest(&self) -> u64 {
        let mut f = Fingerprint64::new();
        f.push(self.now);
        f.push(self.finished as u64);
        f.push_seq(self.pending.iter().map(|&w| u64::from(w)));
        f.push_seq(self.ready.iter().map(|&w| u64::from(w)));
        for wg in &self.wgs {
            f.push(wg.state as u64);
            f.push(wg.pc as u64);
            f.push(wg.token);
            f.push(wg.insts);
            f.push(wg.atomics);
            match wg.cond {
                Some(c) => {
                    f.push(1);
                    f.push(c.addr);
                    f.push_i64(c.expected);
                }
                None => f.push(0),
            }
            f.push(wg.cu.map_or(u64::MAX, |c| c as u64));
        }
        let mut resident: Vec<WgId> = Vec::new();
        for cu in &self.cus {
            f.push(u64::from(cu.is_enabled()));
            // Residency order is scheduling-dependent scratch state; sort so
            // the digest reflects *which* WGs are resident, not swap order.
            resident.clear();
            resident.extend_from_slice(cu.resident());
            resident.sort_unstable();
            f.push_seq(resident.iter().map(|&wg| u64::from(wg)));
        }
        // The store yields its words in ascending address order.
        let backing = self.l2.backing();
        f.push(backing.resident_words() as u64);
        for (a, v) in backing.nonzero_words() {
            f.push(a);
            f.push_i64(v);
        }
        f.finish()
    }

    /// Whether recording `(kind, detail)` would leave the violation log as
    /// it is: the log is full, or already holds that report. One report per
    /// (kind, detail): a standing violation re-detected at every subsequent
    /// event would otherwise drown the first cause.
    pub(crate) fn violation_held(&self, kind: InvariantKind, detail: &str) -> bool {
        const MAX_RECORDED: usize = 64;
        self.violations.len() >= MAX_RECORDED
            || self
                .violations
                .iter()
                .any(|v| v.kind == kind && v.detail == detail)
    }

    fn record_violation(&mut self, kind: InvariantKind, detail: String) {
        if self.violation_held(kind, &detail) {
            return;
        }
        self.violations.push(InvariantViolation {
            at: self.now,
            kind,
            detail,
        });
    }

    /// Runs the oracle after the run loop popped and handled `event`, and
    /// records anything it finds.
    fn oracle_event(&mut self, event: Event) {
        for v in self.check_event(event) {
            self.record_violation(v.kind, v.detail);
        }
    }

    /// Runs the oracle's run-end sweep, when the oracle is on, and records
    /// anything it finds. `unhandled` is the event a cut-off run popped.
    fn oracle_run_end(&mut self, unhandled: Option<Event>) {
        if self.oracle_on {
            for v in self.check_run_end(unhandled) {
                self.record_violation(v.kind, v.detail);
            }
        }
    }

    /// Schedules the §VI resource-loss event: at `at` cycles, CU `cu` is
    /// disabled and its resident WGs are context switched out.
    pub fn schedule_resource_loss(&mut self, cu: usize, at: Cycle) -> &mut Self {
        assert!(cu < self.config.num_cus, "no such CU");
        self.resource_loss.push((cu, at));
        self
    }

    /// Schedules the return of CU `cu` at cycle `at` (e.g. the preempting
    /// high-priority kernel completed and its resources free up). Waiting
    /// and ready WGs can be dispatched onto it again.
    pub fn schedule_resource_restore(&mut self, cu: usize, at: Cycle) -> &mut Self {
        assert!(cu < self.config.num_cus, "no such CU");
        self.resource_restore.push((cu, at));
        self
    }

    /// Schedules a high-priority kernel burst: at `at`, `cus` CUs are
    /// preempted (their resident WGs context switch out) and they return
    /// after `duration` cycles. This is the §V.D scenario — "allows the GPU
    /// to be more responsive to high priority kernels while, at the same
    /// time, ensuring the IFP of lower priority kernels" — modeled at the
    /// same level as the paper's own oversubscribed experiment (CU-time
    /// occupancy, not the foreign kernel's instructions).
    pub fn schedule_priority_burst(&mut self, cus: usize, at: Cycle, duration: Cycle) -> &mut Self {
        assert!(cus <= self.config.num_cus, "burst wider than the machine");
        // Take the highest-numbered CUs (deterministic and disjoint from
        // dispatch's least-loaded preference for low indices).
        for cu in (self.config.num_cus - cus)..self.config.num_cus {
            self.schedule_resource_loss(cu, at);
            self.schedule_resource_restore(cu, at + duration);
        }
        self
    }

    /// Enables event tracing (Fig 6 timelines, Perfetto export).
    pub fn enable_trace(&mut self) -> &mut Self {
        self.trace.enable();
        self
    }

    /// Bounds the trace buffer to the newest `capacity` records (`None`
    /// restores the unbounded default). Long chaos runs with tracing on can
    /// then run indefinitely in constant memory.
    pub fn set_trace_capacity(&mut self, capacity: Option<usize>) -> &mut Self {
        self.trace.set_capacity(capacity);
        self
    }

    /// Selects which events the trace retains from now on. The conformance
    /// lab records [`crate::trace::TraceFilter::Schedule`] so deadlocked
    /// busy-wait adversary runs keep hundreds of records, not millions.
    pub fn set_trace_filter(&mut self, filter: crate::trace::TraceFilter) -> &mut Self {
        self.trace.set_filter(filter);
        self
    }

    /// Number of trace records evicted by the ring bound so far.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// A copy of the retained trace, oldest record first.
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.trace.snapshot()
    }

    /// Enables the telemetry hub: per-WG progress accounting, optional
    /// cycle-windowed metric snapshots, and optional host self-profiling.
    ///
    /// Off by default. The hub is a pure observer — enabling it never
    /// changes simulated behaviour, so digest trails stay bit-identical.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) -> &mut Self {
        let mut hub = TelemetryHub::new(config);
        hub.ensure_wgs(self.kernel.num_wgs as usize);
        self.telemetry = Some(hub);
        self
    }

    /// The telemetry hub, when enabled.
    pub fn telemetry(&self) -> Option<&TelemetryHub> {
        self.telemetry.as_ref()
    }

    /// The end-of-run self-profiling summary, when telemetry ran with
    /// profiling enabled.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.telemetry
            .as_ref()
            .filter(|h| h.profiling())
            .map(|h| h.profile_report(self.run_wall, self.now))
    }

    /// Enables the host hot-path profiler: event-loop pop/push counts,
    /// calendar depth high-water, per-event-type dispatch counts and
    /// wall-time, and wake/dispatch scan tallies.
    ///
    /// Off by default and zero-cost when off. Host-only — never visible to
    /// the digest trail.
    pub fn enable_hot_profile(&mut self) -> &mut Self {
        self.hotprof = Some(Box::new(HotProfile {
            sched_base: self.events.scheduled_total(),
            ..HotProfile::default()
        }));
        self
    }

    /// The end-of-run hot-path report, when the profiler was enabled.
    /// Call after [`Gpu::run`].
    pub fn hot_report(&self) -> Option<HotReport> {
        self.hotprof.as_ref().map(|p| {
            // The monitor probe counters, which the policy reports into a
            // run's summary; `summarize` never adds them to `self.stats`.
            let mut policy = Stats::new();
            self.policy.report(&mut policy);
            let log_cp_probes: u64 = policy
                .counters()
                .filter(|(name, _)| {
                    name.ends_with("cp_condition_checks") || name.ends_with("monitor_log_appends")
                })
                .map(|(_, v)| v)
                .sum();
            HotReport::assemble(
                p,
                self.now,
                self.run_wall,
                self.events.scheduled_total(),
                self.l2.op_counts(),
                self.l2.monitored_peak(),
                log_cp_probes,
                self.trace.len(),
                self.oracle.borrow().shadow.registry_reads(),
            )
        })
    }

    /// The functional memory (workload validation after a run).
    pub fn backing(&self) -> &Backing {
        self.l2.backing()
    }

    /// The current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    // ---------------------------------------------------------------------
    // Policy plumbing
    // ---------------------------------------------------------------------

    fn swapped_waiting_count(&self) -> usize {
        // O(1) via the SoA census — this runs on every store and atomic
        // (policy-context assembly), where the old per-WG scan dominated
        // the wake lane at fig15 grid sizes.
        self.state_census[WgState::SwappedWaiting.census_index()]
    }

    /// Runs `f` with a freshly assembled [`PolicyCtx`].
    fn with_policy<R>(
        &mut self,
        f: impl FnOnce(&mut dyn SchedPolicy, &mut PolicyCtx<'_>) -> R,
    ) -> R {
        let swapped = self.swapped_waiting_count();
        let journal = self
            .oracle_on
            .then(|| self.oracle.get_mut().shadow.note_policy_call());
        let mut ctx = PolicyCtx {
            now: self.now,
            l2: &mut self.l2,
            stats: &mut self.stats,
            pending_wgs: self.pending.len(),
            ready_wgs: self.ready.len(),
            swapped_waiting_wgs: swapped,
            total_wgs: self.kernel.num_wgs,
            journal,
        };
        f(self.policy.as_mut(), &mut ctx)
    }

    /// Applies the active wake-chaos window (if any) to a batch of policy
    /// wakes before they are scheduled for delivery.
    fn perturb_wakes(&mut self, wakes: &mut Vec<Wake>) {
        let Some((mode, until)) = self.wake_chaos else {
            return;
        };
        if self.now >= until {
            self.wake_chaos = None;
            return;
        }
        if wakes.is_empty() {
            return;
        }
        match mode {
            WakeChaosMode::Drop => {
                self.chaos.wakes_dropped += wakes.len() as u64;
                wakes.clear();
            }
            WakeChaosMode::Delay(extra) => {
                self.chaos.wakes_delayed += wakes.len() as u64;
                for w in wakes.iter_mut() {
                    w.delay += extra;
                }
            }
            WakeChaosMode::Duplicate => {
                self.chaos.wakes_duplicated += wakes.len() as u64;
                for i in 0..wakes.len() {
                    let w = wakes[i];
                    wakes.push(Wake::after(w.wg, w.delay + 13));
                }
            }
            WakeChaosMode::Reorder => {
                if wakes.len() > 1 {
                    self.chaos.wakes_reordered += wakes.len() as u64;
                }
                wakes.reverse();
                for (i, w) in wakes.iter_mut().enumerate() {
                    w.delay += 17 * i as Cycle;
                }
            }
        }
    }

    /// Runs a policy hook that may wake WGs, handing it the machine's wake
    /// buffer, then applies whatever it appended.
    fn policy_wakes(
        &mut self,
        f: impl FnOnce(&mut dyn SchedPolicy, &mut PolicyCtx<'_>, &mut Vec<Wake>),
    ) {
        let mut wakes = std::mem::take(&mut self.wake_buf);
        self.with_policy(|p, ctx| f(p, ctx, &mut wakes));
        self.apply_wakes(&mut wakes);
        self.wake_buf = wakes;
    }

    /// Schedules the deliveries of one policy call's `wakes`, draining the
    /// buffer.
    fn apply_wakes(&mut self, wakes: &mut Vec<Wake>) {
        if let Some(hot) = self.hotprof.as_mut() {
            hot.wake_scans += 1;
            hot.wakes_applied += wakes.len() as u64;
        }
        self.perturb_wakes(wakes);
        for wake in wakes.drain(..) {
            let wg = wake.wg as usize;
            if self.oracle_on {
                self.oracle.get_mut().shadow.touch(wake.wg);
            }
            match self.wgs[wg].state {
                WgState::Stalled | WgState::SwappedWaiting => {
                    let token = self.wgs[wg].token;
                    if let Some(hub) = self.telemetry.as_mut() {
                        hub.note_wake(wg, self.now);
                    }
                    self.events.schedule(
                        self.now + self.config.resume_latency + wake.delay,
                        Event::WakeDeliver(wake.wg, token),
                    );
                    if self.oracle_on {
                        self.oracle
                            .get_mut()
                            .shadow
                            .note_rescue_scheduled(wake.wg, token);
                    }
                }
                WgState::SwappingOut => {
                    if let Some(hub) = self.telemetry.as_mut() {
                        hub.note_wake(wg, self.now);
                    }
                    self.wgs[wg].woke = true;
                }
                WgState::Running
                    if matches!(
                        self.wgs[wg].pending_directive,
                        Some(WaitDirective::Wait { .. })
                    ) =>
                {
                    // The wake raced the WG's own wait entry: its failed
                    // sync response is still in flight. Cancel the wait so
                    // the response retries immediately (Mesa semantics)
                    // instead of stranding the WG until its fallback
                    // timeout.
                    self.wgs[wg].woke = true;
                }
                // Already woken (timeout raced the notification) — drop.
                _ => {}
            }
        }
    }

    /// With a fault plan installed, waits must carry a finite fallback
    /// timeout: a dropped wake then costs cycles, not the run.
    fn chaos_safe_directive(&self, directive: WaitDirective) -> WaitDirective {
        match directive {
            WaitDirective::Wait {
                release,
                timeout: None,
            } if self.fault_plan.is_some() => WaitDirective::Wait {
                release,
                timeout: Some(CHAOS_BACKSTOP_TIMEOUT),
            },
            other => other,
        }
    }

    /// Reports a committed store or atomic to the policy: always when the
    /// line was monitored, otherwise only to policies that observe every
    /// write. Every other policy ignores unmonitored updates, so skipping
    /// them changes nothing simulated.
    fn notify_monitored(&mut self, update: MonitoredUpdate) {
        if !update.monitored && !self.policy.observes_unmonitored_writes() {
            return;
        }
        self.policy_wakes(|p, ctx, wakes| p.on_monitored_update(ctx, &update, wakes));
    }

    // ---------------------------------------------------------------------
    // Dispatch and context switching
    // ---------------------------------------------------------------------

    fn pick_cu(&self) -> Option<usize> {
        // Least-loaded enabled CU that fits the kernel's WG shape.
        let req = &self.kernel.resources;
        self.cus
            .iter()
            .filter(|cu| cu.fits(req))
            .min_by_key(|cu| cu.resident().len())
            .map(|cu| cu.id())
    }

    fn try_dispatch(&mut self) {
        if let Some(hot) = self.hotprof.as_mut() {
            hot.dispatch_scans += 1;
        }
        loop {
            // Architectures without WG-granularity rescheduling (Baseline,
            // Sleep) cannot swap preempted WGs back in: their ready queue
            // is stranded and only fresh dispatches proceed.
            let from_ready = !self.ready.is_empty() && self.policy.supports_wg_rescheduling();
            let candidate = if from_ready {
                self.ready.front().copied()
            } else {
                self.pending.front().copied()
            };
            let Some(wg) = candidate else { return };
            let Some(cu) = self.pick_cu() else { return };
            if from_ready {
                self.ready.pop_front();
            } else {
                self.pending.pop_front();
            }
            let req = self.kernel.resources;
            self.cus[cu].admit(wg, &req);
            if let Some(hot) = self.hotprof.as_mut() {
                hot.dispatch_admissions += 1;
            }
            self.wgs[wg as usize].cu = Some(cu);
            let token = self.wgs[wg as usize].bump_token();
            if from_ready {
                let stall = self.ctx_stall_penalty();
                self.set_wg_state(wg, WgState::SwappingIn, self.now);
                self.switches_in += 1;
                let lines = self.kernel.context_bytes(&self.config).div_ceil(64);
                let burst_done = self.l2.context_burst(self.now, Self::ctx_addr(wg), lines);
                let done = burst_done + self.config.ctx_switch_overhead + stall;
                if let Some(hub) = self.telemetry.as_mut() {
                    hub.note_ctx_switch(
                        SwapDir::In,
                        burst_done.saturating_sub(self.now),
                        self.config.ctx_switch_overhead,
                        stall,
                    );
                }
                self.trace
                    .record(self.now, wg, TraceEvent::SwapInStart { cu });
                self.events.schedule(done, Event::SwapInDone(wg, token));
            } else {
                self.set_wg_state(wg, WgState::Dispatching, self.now);
                self.trace.record(self.now, wg, TraceEvent::Dispatch { cu });
                self.events.schedule(
                    self.now + self.config.dispatch_cycles,
                    Event::DispatchDone(wg, token),
                );
            }
        }
    }

    fn ctx_addr(wg: WgId) -> u64 {
        // 64 KB per context slot, far above workload allocations.
        CONTEXT_BASE + (wg as u64) * (64 * 1024)
    }

    fn begin_swap_out(&mut self, wg: WgId) {
        let stall = self.ctx_stall_penalty();
        debug_assert!(
            self.wgs[wg as usize].state.is_resident(),
            "swap-out of non-resident WG"
        );
        let token = self.wgs[wg as usize].bump_token();
        self.set_wg_state(wg, WgState::SwappingOut, self.now);
        self.switches_out += 1;
        let lines = self.kernel.context_bytes(&self.config).div_ceil(64);
        let burst_done = self.l2.context_burst(self.now, Self::ctx_addr(wg), lines);
        let done = burst_done + self.config.ctx_switch_overhead + stall;
        if let Some(hub) = self.telemetry.as_mut() {
            hub.note_ctx_switch(
                SwapDir::Out,
                burst_done.saturating_sub(self.now),
                self.config.ctx_switch_overhead,
                stall,
            );
        }
        self.trace.record(self.now, wg, TraceEvent::SwapOutStart);
        self.events.schedule(done, Event::SwapOutDone(wg, token));
    }

    /// Extra context-traffic cycles while a transient stall window is
    /// active (the switch loses arbitration and retries with backoff).
    fn ctx_stall_penalty(&mut self) -> Cycle {
        if self.now < self.ctx_stall_until {
            self.chaos.ctx_stall_hits += 1;
            self.ctx_stall_extra
        } else {
            0
        }
    }

    fn release_cu(&mut self, wg: WgId) {
        if let Some(cu) = self.wgs[wg as usize].cu.take() {
            self.cus[cu].release(wg, &self.kernel.resources);
        }
    }

    /// Classifies *why* a WG in `state` is spending its cycles there, for
    /// the attribution ledger. The split the paper cares about: a swap
    /// episode the scheduler chose is `Preempted`; the same episode forced
    /// by an injected CU loss is `FaultStall`; off-CU residence with a
    /// declared sync condition is `SyncWait` (the WG would not run even if
    /// resident).
    fn cause_for(&self, wg: usize, state: WgState) -> AttributionCause {
        let w = &self.wgs[wg];
        match state {
            WgState::Running => AttributionCause::Executing,
            WgState::Sleeping => AttributionCause::SleepWait,
            WgState::Stalled => AttributionCause::SyncWait,
            WgState::Finished => AttributionCause::Retired,
            WgState::Pending | WgState::Dispatching => {
                if w.fault_evicted {
                    AttributionCause::FaultStall
                } else {
                    AttributionCause::Queued
                }
            }
            WgState::SwappingOut | WgState::SwappingIn | WgState::ReadySwapped => {
                if w.fault_evicted {
                    AttributionCause::FaultStall
                } else {
                    AttributionCause::Preempted
                }
            }
            WgState::SwappedWaiting => {
                if w.fault_evicted {
                    AttributionCause::FaultStall
                } else if w.cond.is_some() {
                    AttributionCause::SyncWait
                } else {
                    AttributionCause::Preempted
                }
            }
        }
    }

    /// Transitions a WG's scheduling state, keeping the telemetry hub's
    /// time-in-state accounting and cycle-attribution ledger in step with
    /// the machine's own.
    fn set_wg_state(&mut self, wg: WgId, state: WgState, at: Cycle) {
        let wgu = wg as usize;
        self.state_census[self.wgs[wgu].state.census_index()] -= 1;
        self.state_census[state.census_index()] += 1;
        self.wgs[wgu].set_state(state, at);
        if self.oracle_on {
            self.oracle.get_mut().shadow.touch(wg);
        }
        if state == WgState::Running {
            // The fault's eviction episode ends when the WG runs again.
            self.wgs[wgu].fault_evicted = false;
        }
        if self.telemetry.is_some() {
            let cause = self.cause_for(wgu, state);
            if let Some(hub) = self.telemetry.as_mut() {
                hub.transition(wgu, state.progress_class(), at);
                hub.attribute(wgu, cause, at);
            }
        }
    }

    /// Re-arms a waiting WG's fallback timeout after a token-bumping
    /// transition (forced swap-out of a stalled WG, stall→switch escalation).
    fn rearm_timeout(&mut self, wg: WgId) {
        let w = &self.wgs[wg as usize];
        if let Some(deadline) = w.timeout_at {
            let at = deadline.max(self.now);
            let token = w.token;
            self.events.schedule(at, Event::WaitTimeout(wg, token));
            if self.oracle_on {
                self.oracle
                    .get_mut()
                    .shadow
                    .note_rescue_scheduled(wg, token);
            }
        }
    }

    // ---------------------------------------------------------------------
    // Instruction interpretation
    // ---------------------------------------------------------------------

    fn resolve(&self, wg: usize, mem: Mem) -> u64 {
        match mem.index {
            None => mem.base,
            Some(r) => mem
                .base
                .wrapping_add((self.wgs[wg].regs.get(r) as u64).wrapping_mul(mem.scale)),
        }
    }

    /// Runs `wgu`'s register-only instructions (`Li`, `Mov`, `Alu`,
    /// `Special`, `Jmp`, `Br`) against the WG alone, from its pc. Every
    /// fetched instruction counts one of `steps`, one inst and one issue
    /// slot in `t`, as in [`Gpu::advance`]. Returns the first instruction
    /// that touches the machine, with the WG's pc left on it, or `None`
    /// when the batch reaches [`MAX_INLINE_STEPS`] first.
    #[inline]
    fn run_registers(&mut self, wgu: usize, steps: &mut usize, t: &mut Cycle) -> Option<Inst> {
        let k = &self.kernel;
        let program = &*k.program;
        let w = &mut self.wgs[wgu];
        let budget = MAX_INLINE_STEPS - *steps;
        let mut fetched = 0;
        let mut pc = w.pc;
        let exit = loop {
            if fetched == budget {
                break None;
            }
            fetched += 1;
            let inst = program.inst(pc);
            match *inst {
                Inst::Li(d, v) => {
                    w.regs.set(d, v);
                    pc += 1;
                }
                Inst::Mov(d, s) => {
                    w.regs.set(d, w.regs.get(s));
                    pc += 1;
                }
                Inst::Alu(op, d, s, o) => {
                    let v = op.apply(w.regs.get(s), value_of(&w.regs, o));
                    w.regs.set(d, v);
                    pc += 1;
                }
                Inst::Special(d, s) => {
                    let v = match s {
                        Special::WgId => wgu as i64,
                        Special::NumWgs => k.num_wgs as i64,
                        Special::WgsPerCluster => k.wgs_per_cluster as i64,
                        Special::ClusterId => (wgu as u64 / k.wgs_per_cluster) as i64,
                        Special::NumClusters => k.num_wgs.div_ceil(k.wgs_per_cluster) as i64,
                    };
                    w.regs.set(d, v);
                    pc += 1;
                }
                Inst::Jmp(l) => pc = program.target(l),
                Inst::Br(c, r, o, l) => {
                    pc = if c.holds(w.regs.get(r), value_of(&w.regs, o)) {
                        program.target(l)
                    } else {
                        pc + 1
                    };
                }
                _ => break Some(*inst),
            }
        };
        w.pc = pc;
        w.insts += fetched as u64;
        *steps += fetched;
        *t += self.config.issue_cycles * fetched as Cycle;
        exit
    }

    /// Interprets instructions of `wg` starting at `self.now`, inline until
    /// the next timed operation. Register-only instructions run in
    /// [`Gpu::run_registers`]; a store issues and the batch goes on.
    fn advance(&mut self, wg: WgId) {
        let wgu = wg as usize;
        debug_assert_eq!(self.wgs[wgu].state, WgState::Running);
        let mut t: Cycle = 0;
        let mut steps = 0;
        loop {
            let Some(inst) = self.run_registers(wgu, &mut steps, &mut t) else {
                let token = self.wgs[wgu].bump_token();
                self.events
                    .schedule(self.now + t, Event::Continue(wg, token));
                return;
            };
            let pc = self.wgs[wgu].pc;
            match inst {
                Inst::Compute(c) => {
                    self.wgs[wgu].pc = pc + 1;
                    let token = self.wgs[wgu].bump_token();
                    self.events
                        .schedule(self.now + t + c as Cycle, Event::Continue(wg, token));
                    return;
                }
                Inst::Barrier => {
                    self.wgs[wgu].pc = pc + 1;
                    let cost = self.config.barrier_base_cycles
                        + self.config.barrier_per_wf_cycles
                            * self.kernel.resources.wavefronts as Cycle;
                    let token = self.wgs[wgu].bump_token();
                    self.events
                        .schedule(self.now + t + cost, Event::Continue(wg, token));
                    return;
                }
                Inst::Sleep(op) => {
                    let n = value_of(&self.wgs[wgu].regs, op).max(0) as Cycle;
                    self.wgs[wgu].pc = pc + 1;
                    let token = self.wgs[wgu].bump_token();
                    self.set_wg_state(wg, WgState::Sleeping, self.now + t);
                    self.trace
                        .record(self.now + t, wg, TraceEvent::Sleep { cycles: n });
                    self.events
                        .schedule(self.now + t + n, Event::Continue(wg, token));
                    return;
                }
                Inst::Ld(d, m) => {
                    let addr = self.resolve(wgu, m);
                    self.wgs[wgu].pc = pc + 1;
                    let cu = self.wgs[wgu].cu.expect("running WG has a CU");
                    let issue = self.now + t;
                    let l1 = self.cus[cu].l1_mut();
                    let (value, done) = if l1.access(addr).is_hit() {
                        (self.l2.peek(addr), issue + self.cus[cu].l1_latency())
                    } else {
                        let (v, comp) = self.l2.read(issue + self.cus[cu].l1_latency(), addr);
                        (v, comp.done)
                    };
                    self.wgs[wgu].parked = Some(ParkedResponse {
                        dst: Some(d),
                        value,
                    });
                    let token = self.wgs[wgu].bump_token();
                    self.events.schedule(done, Event::Response(wg, token));
                    return;
                }
                Inst::St(m, o) => {
                    let addr = self.resolve(wgu, m);
                    let value = value_of(&self.wgs[wgu].regs, o);
                    self.wgs[wgu].pc = pc + 1;
                    let cu = self.wgs[wgu].cu.expect("running WG has a CU");
                    // Write-through: update L1 timing state and send to L2;
                    // the wavefront does not wait for the write to land.
                    self.cus[cu].l1_mut().access(addr);
                    let (_, monitored, old) = self.l2.write(self.now + t, addr, value);
                    if old != value {
                        self.last_progress = self.now + t;
                    }
                    self.notify_monitored(MonitoredUpdate {
                        addr,
                        old,
                        new: value,
                        wrote: true,
                        monitored,
                        by_wg: wg,
                    });
                }
                Inst::Atom {
                    op,
                    dst,
                    mem,
                    operand,
                    expected,
                } => {
                    self.issue_atomic(wg, t, op, dst, mem, operand, expected);
                    return;
                }
                Inst::Wait { mem, expected } => {
                    self.issue_wait(wg, t, mem, expected);
                    return;
                }
                Inst::Halt => {
                    self.finish_wg(wg, self.now + t);
                    return;
                }
                Inst::Li(..)
                | Inst::Mov(..)
                | Inst::Alu(..)
                | Inst::Special(..)
                | Inst::Jmp(_)
                | Inst::Br(..) => unreachable!("register-only instructions run in run_registers"),
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_atomic(
        &mut self,
        wg: WgId,
        t: Cycle,
        op: awg_mem::AtomicOp,
        dst: awg_isa::Reg,
        mem: Mem,
        operand: Operand,
        expected: Option<Operand>,
    ) {
        let wgu = wg as usize;
        let addr = self.resolve(wgu, mem);
        let operand = value_of(&self.wgs[wgu].regs, operand);
        let expected = expected.map(|e| value_of(&self.wgs[wgu].regs, e));
        self.wgs[wgu].pc += 1;
        self.wgs[wgu].atomics += 1;
        if self.wgs[wgu].last_atomic == Some(addr) {
            self.wgs[wgu].atomic_streak += 1;
        } else {
            self.wgs[wgu].last_atomic = Some(addr);
            self.wgs[wgu].atomic_streak = 1;
        }
        self.trace
            .record(self.now + t, wg, TraceEvent::AtomicIssue { addr });
        let comp = self.l2.atomic(
            self.now + t,
            AtomicRequest {
                op,
                addr,
                operand,
                expected,
            },
        );
        if comp.result.wrote && comp.result.new != comp.result.old {
            self.last_progress = comp.committed;
        }
        self.notify_monitored(MonitoredUpdate {
            addr,
            old: comp.result.old,
            new: comp.result.new,
            wrote: comp.result.wrote,
            monitored: comp.was_monitored,
            by_wg: wg,
        });
        self.trace
            .record(comp.done, wg, TraceEvent::AtomicDone { addr });
        self.wgs[wgu].parked = Some(ParkedResponse {
            dst: Some(dst),
            value: comp.result.old,
        });
        if comp.result.satisfied {
            if self.wgs[wgu].wake_pending_check {
                self.wgs[wgu].wake_pending_check = false;
            }
            self.wgs[wgu].pending_directive = None;
            if expected.is_some() {
                // A waiting condition was met: that is forward progress.
                // (Plain atomic loads in a spin loop are not — the deadlock
                // detector must still see a stuck machine through them.)
                self.last_progress = comp.committed;
            }
        } else {
            let cond = SyncCond {
                addr,
                expected: expected.expect("unsatisfied atomic has an expectation"),
            };
            if self.wgs[wgu].wake_pending_check {
                self.wgs[wgu].wake_pending_check = false;
                self.unnecessary_resumes += 1;
            }
            self.trace.record(
                comp.committed,
                wg,
                TraceEvent::SyncFail {
                    addr,
                    expected: cond.expected,
                },
            );
            let fail = SyncFail {
                wg,
                cond,
                observed: comp.result.old,
                via_wait_inst: false,
            };
            let directive = self.with_policy(|p, ctx| p.on_sync_fail(ctx, &fail));
            self.wgs[wgu].cond = Some(cond);
            self.wgs[wgu].pending_directive = Some(directive);
        }
        let token = self.wgs[wgu].bump_token();
        self.events.schedule(comp.done, Event::Response(wg, token));
    }

    fn issue_wait(&mut self, wg: WgId, t: Cycle, mem: Mem, expected: Operand) {
        let wgu = wg as usize;
        let addr = self.resolve(wgu, mem);
        let expected = value_of(&self.wgs[wgu].regs, expected);
        self.wgs[wgu].pc += 1;
        // The arm request travels to the L2 like a light access.
        let (observed, comp) = self.l2.read(self.now + t, addr);
        let cond = SyncCond { addr, expected };
        self.trace
            .record(comp.done, wg, TraceEvent::SyncFail { addr, expected });
        let fail = SyncFail {
            wg,
            cond,
            observed,
            via_wait_inst: true,
        };
        let directive = self.with_policy(|p, ctx| p.on_sync_fail(ctx, &fail));
        let directive = self.chaos_safe_directive(directive);
        self.wgs[wgu].cond = Some(cond);
        self.wgs[wgu].pending_directive = Some(directive);
        self.wgs[wgu].parked = Some(ParkedResponse {
            dst: None,
            value: observed,
        });
        let token = self.wgs[wgu].bump_token();
        self.events.schedule(comp.done, Event::Response(wg, token));
    }

    fn finish_wg(&mut self, wg: WgId, at: Cycle) {
        let wgu = wg as usize;
        self.wgs[wgu].bump_token();
        self.set_wg_state(wg, WgState::Finished, at);
        self.wgs[wgu].finished_at = Some(at);
        self.release_cu(wg);
        self.finished += 1;
        self.last_progress = at;
        self.trace.record(at, wg, TraceEvent::Finish);
        self.with_policy(|p, ctx| p.on_wg_finished(ctx, wg));
        self.try_dispatch();
    }

    // ---------------------------------------------------------------------
    // Event handlers
    // ---------------------------------------------------------------------

    fn token_ok(&self, wg: WgId, token: u64) -> bool {
        self.wgs[wg as usize].token == token
    }

    /// Delivers the parked response into the register file and resumes
    /// interpretation.
    fn deliver_and_advance(&mut self, wg: WgId) {
        let wgu = wg as usize;
        if let Some(parked) = self.wgs[wgu].parked.take() {
            if let Some(dst) = parked.dst {
                self.wgs[wgu].regs.set(dst, parked.value);
            }
        }
        self.wgs[wgu].cond = None;
        self.wgs[wgu].timeout_at = None;
        if self.wgs[wgu].state != WgState::Running {
            self.set_wg_state(wg, WgState::Running, self.now);
        }
        if self.wgs[wgu].force_out && !self.cus[self.wgs[wgu].cu.expect("resident")].is_enabled() {
            // Preempted mid-flight by the resource-loss event: save context
            // and requeue as ready instead of continuing.
            self.wgs[wgu].force_out = false;
            self.wgs[wgu].woke = true;
            self.begin_swap_out(wg);
            return;
        }
        self.advance(wg);
    }

    fn enter_wait(&mut self, wg: WgId, release: bool, timeout: Option<Cycle>) {
        let wgu = wg as usize;
        self.wgs[wgu].timeout_at = timeout.map(|t| self.now + t);
        let force = self.wgs[wgu].force_out;
        if release || force {
            self.wgs[wgu].force_out = false;
            self.begin_swap_out(wg);
        } else {
            let _ = self.wgs[wgu].bump_token();
            self.set_wg_state(wg, WgState::Stalled, self.now);
            self.trace.record(self.now, wg, TraceEvent::Stall);
        }
        self.rearm_timeout(wg);
    }

    fn handle_response(&mut self, wg: WgId) {
        let wgu = wg as usize;
        match self.wgs[wgu].pending_directive.take() {
            None => self.deliver_and_advance(wg),
            Some(WaitDirective::Retry) => self.deliver_and_advance(wg),
            Some(WaitDirective::SleepFor(n)) => {
                let token = self.wgs[wgu].bump_token();
                self.set_wg_state(wg, WgState::Sleeping, self.now);
                self.trace
                    .record(self.now, wg, TraceEvent::Sleep { cycles: n });
                self.events
                    .schedule(self.now + n, Event::Continue(wg, token));
            }
            Some(WaitDirective::Wait { release, timeout }) => {
                if self.wgs[wgu].woke {
                    // A wake already arrived for this condition: retry now.
                    self.wgs[wgu].woke = false;
                    self.resumes += 1;
                    self.deliver_and_advance(wg);
                } else {
                    self.enter_wait(wg, release, timeout);
                }
            }
        }
    }

    fn handle_wake(&mut self, wg: WgId) {
        let wgu = wg as usize;
        if let Some(since) = self.wgs[wgu].wait_since {
            let h = *self
                .wait_episode_hist
                .get_or_insert_with(|| self.stats.hist("wait_episode_cycles"));
            self.stats.observe(h, self.now.saturating_sub(since));
        }
        let cond = self.wgs[wgu].cond;
        match self.wgs[wgu].state {
            WgState::Stalled => {
                self.resumes += 1;
                if let Some(c) = cond {
                    if self.l2.peek(c.addr) != c.expected {
                        // Condition does not hold at delivery: the retry
                        // will fail (MonRS-style sporadic resume).
                        self.wgs[wgu].wake_pending_check = true;
                    }
                    self.with_policy(|p, ctx| p.on_wake_delivered(ctx, wg, &c));
                }
                self.trace.record(self.now, wg, TraceEvent::Resume);
                self.deliver_and_advance(wg);
            }
            WgState::SwappedWaiting => {
                self.resumes += 1;
                if let Some(c) = cond {
                    if self.l2.peek(c.addr) != c.expected {
                        self.wgs[wgu].wake_pending_check = true;
                    }
                    self.with_policy(|p, ctx| p.on_wake_delivered(ctx, wg, &c));
                }
                let _ = self.wgs[wgu].bump_token();
                self.set_wg_state(wg, WgState::ReadySwapped, self.now);
                self.ready.push_back(wg);
                self.trace.record(self.now, wg, TraceEvent::Resume);
                self.try_dispatch();
            }
            state => {
                // A token-valid wake reached a WG that is not waiting. Every
                // legal transition out of a waiting state bumps the token,
                // so this delivery was aimed at a running or descheduled WG
                // — exactly the misdelivery the oracle exists to catch.
                if self.oracle_on {
                    self.record_violation(
                        InvariantKind::MisdeliveredWake,
                        format!("wake delivered to WG {wg} in state {state:?}"),
                    );
                }
            }
        }
    }

    fn handle_wait_timeout(&mut self, wg: WgId) {
        let wgu = wg as usize;
        if !matches!(
            self.wgs[wgu].state,
            WgState::Stalled | WgState::SwappedWaiting
        ) {
            return;
        }
        let Some(cond) = self.wgs[wgu].cond else {
            return;
        };
        self.trace.record(self.now, wg, TraceEvent::Timeout);
        let action = self.with_policy(|p, ctx| p.on_wait_timeout(ctx, wg, &cond));
        match action {
            TimeoutAction::Wake => {
                self.wgs[wgu].timeout_at = None;
                self.handle_wake(wg);
            }
            TimeoutAction::Escalate { release, timeout } => {
                let timeout = if self.fault_plan.is_some() && timeout.is_none() {
                    Some(CHAOS_BACKSTOP_TIMEOUT)
                } else {
                    timeout
                };
                self.wgs[wgu].timeout_at = timeout.map(|t| self.now + t);
                if release && self.wgs[wgu].state == WgState::Stalled {
                    self.begin_swap_out(wg);
                } else {
                    let _ = self.wgs[wgu].bump_token();
                }
                self.rearm_timeout(wg);
            }
        }
    }

    fn handle_swap_out_done(&mut self, wg: WgId) {
        let wgu = wg as usize;
        debug_assert_eq!(self.wgs[wgu].state, WgState::SwappingOut);
        self.release_cu(wg);
        self.trace.record(self.now, wg, TraceEvent::SwapOutDone);
        let token_bump = self.wgs[wgu].bump_token();
        let _ = token_bump;
        if self.wgs[wgu].woke || self.wgs[wgu].cond.is_none() {
            self.wgs[wgu].woke = false;
            self.set_wg_state(wg, WgState::ReadySwapped, self.now);
            self.ready.push_back(wg);
        } else {
            self.set_wg_state(wg, WgState::SwappedWaiting, self.now);
            self.rearm_timeout(wg);
        }
        self.try_dispatch();
    }

    fn handle_resource_loss(&mut self, cu: usize) {
        self.cus[cu].disable();
        let residents: Vec<WgId> = self.cus[cu].resident().to_vec();
        for wg in residents {
            let wgu = wg as usize;
            match self.wgs[wgu].state {
                WgState::Running | WgState::Sleeping => {
                    // Preempt at the next event boundary.
                    self.wgs[wgu].force_out = true;
                    self.wgs[wgu].fault_evicted = true;
                }
                WgState::Stalled => {
                    // Still waiting: save now; it stays a waiting WG.
                    self.wgs[wgu].fault_evicted = true;
                    self.begin_swap_out(wg);
                }
                WgState::Dispatching => {
                    // Cancel the dispatch and requeue at the front.
                    self.wgs[wgu].bump_token();
                    self.release_cu(wg);
                    self.wgs[wgu].fault_evicted = true;
                    self.set_wg_state(wg, WgState::Pending, self.now);
                    self.pending.push_front(wg);
                }
                WgState::SwappingIn => {
                    self.wgs[wgu].force_out = true;
                    self.wgs[wgu].fault_evicted = true;
                }
                _ => {}
            }
        }
        self.try_dispatch();
    }

    fn handle_fault(&mut self, idx: usize) {
        let Some(kind) = self.fault_plan.as_ref().map(|p| p.events[idx].kind) else {
            return;
        };
        match kind {
            FaultKind::CuLoss { cu } => {
                self.chaos.cu_losses += 1;
                self.handle_resource_loss(cu);
            }
            FaultKind::CuRestore { cu } => {
                self.cus[cu].enable();
                self.last_progress = self.now;
                self.try_dispatch();
            }
            FaultKind::WakeChaos { mode, window } => {
                self.chaos.wake_windows += 1;
                self.wake_chaos = Some((mode, self.now + window));
            }
            FaultKind::CtxStall { extra, window } => {
                self.ctx_stall_extra = extra;
                self.ctx_stall_until = self.now + window;
            }
            FaultKind::Policy(fault) => {
                self.chaos.policy_injections += 1;
                self.policy_wakes(|p, ctx, wakes| p.on_fault(ctx, &fault, wakes));
            }
        }
    }

    fn handle_cp_tick(&mut self) {
        self.policy_wakes(|p, ctx, wakes| p.on_cp_tick(ctx, wakes));
        if let Some(period) = self.policy.cp_tick_period() {
            if (self.finished as u64) < self.kernel.num_wgs {
                self.events.schedule(self.now + period, Event::CpTick);
            }
        }
    }

    /// Which subsystem the self-profiler attributes this event to.
    fn event_subsystem(event: &Event) -> Subsystem {
        match event {
            Event::Continue(..) | Event::Response(..) | Event::DispatchDone(..) => {
                Subsystem::Execute
            }
            Event::WakeDeliver(..) | Event::WaitTimeout(..) | Event::CpTick | Event::Fault(_) => {
                Subsystem::Wakeup
            }
            Event::SwapOutDone(..) | Event::SwapInDone(..) => Subsystem::ContextSwitch,
            Event::ResourceLoss(_) | Event::ResourceRestore(_) | Event::ProgressCheck => {
                Subsystem::Other
            }
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Continue(wg, token) => {
                if !self.token_ok(wg, token) {
                    return;
                }
                let wgu = wg as usize;
                if self.wgs[wgu].state == WgState::Sleeping {
                    self.set_wg_state(wg, WgState::Running, self.now);
                }
                if self.wgs[wgu].parked.is_some() {
                    // Sleep-then-deliver (backoff response).
                    self.deliver_and_advance(wg);
                } else if self.wgs[wgu].force_out
                    && !self.cus[self.wgs[wgu].cu.expect("resident")].is_enabled()
                {
                    self.wgs[wgu].force_out = false;
                    self.wgs[wgu].woke = true;
                    self.begin_swap_out(wg);
                } else {
                    self.advance(wg);
                }
            }
            Event::Response(wg, token) => {
                if self.token_ok(wg, token) {
                    self.handle_response(wg);
                }
            }
            Event::WakeDeliver(wg, token) => {
                if self.token_ok(wg, token) {
                    self.handle_wake(wg);
                }
            }
            Event::WaitTimeout(wg, token) => {
                if self.token_ok(wg, token) {
                    self.handle_wait_timeout(wg);
                }
            }
            Event::SwapOutDone(wg, token) => {
                if self.token_ok(wg, token) {
                    self.handle_swap_out_done(wg);
                }
            }
            Event::SwapInDone(wg, token) => {
                if self.token_ok(wg, token) {
                    let wgu = wg as usize;
                    debug_assert_eq!(self.wgs[wgu].state, WgState::SwappingIn);
                    self.deliver_and_advance(wg);
                }
            }
            Event::DispatchDone(wg, token) => {
                if self.token_ok(wg, token) {
                    let wgu = wg as usize;
                    debug_assert_eq!(self.wgs[wgu].state, WgState::Dispatching);
                    if self.wgs[wgu].dispatched_at.is_none() {
                        self.wgs[wgu].dispatched_at = Some(self.now);
                    }
                    self.last_progress = self.now;
                    self.set_wg_state(wg, WgState::Running, self.now);
                    self.advance(wg);
                }
            }
            Event::CpTick => self.handle_cp_tick(),
            Event::Fault(idx) => self.handle_fault(idx),
            Event::ResourceLoss(cu) => self.handle_resource_loss(cu),
            Event::ResourceRestore(cu) => {
                self.cus[cu].enable();
                self.last_progress = self.now;
                self.try_dispatch();
            }
            Event::ProgressCheck => {
                if (self.finished as u64) < self.kernel.num_wgs {
                    if self.now.saturating_sub(self.last_progress) > self.config.quiescence_cycles {
                        self.deadlocked = Some(self.now);
                    } else {
                        self.events.schedule(
                            self.now + self.config.quiescence_cycles / 2,
                            Event::ProgressCheck,
                        );
                    }
                }
            }
        }
    }

    // ---------------------------------------------------------------------
    // Run loop
    // ---------------------------------------------------------------------

    /// Forensic snapshot of every unfinished WG's wait situation, the
    /// policy's live monitor entries, and the waits-for summary.
    fn hang_report(&self) -> HangReport {
        let mut unfinished = Vec::new();
        let mut waits_for: BTreeMap<Addr, Vec<WgId>> = BTreeMap::new();
        // Below this many consecutive atomics to one address, a WG without
        // a declared condition is presumed computing, not spinning.
        const SPIN_STREAK: u64 = 8;
        for wg in &self.wgs {
            if wg.state == WgState::Finished {
                continue;
            }
            let spinning_on = match wg.cond {
                Some(_) => None,
                None => wg
                    .last_atomic
                    .filter(|_| wg.atomic_streak >= SPIN_STREAK)
                    .map(|a| (a, wg.atomic_streak)),
            };
            let blocked_addr = wg.cond.map(|c| c.addr).or(spinning_on.map(|(a, _)| a));
            unfinished.push(WgWaitInfo {
                wg: wg.id,
                state: wg.state,
                pc: wg.pc,
                cond: wg.cond,
                spinning_on,
                observed: blocked_addr.map(|a| self.l2.peek(a)),
                waited: wg.wait_since.map_or(0, |s| self.now.saturating_sub(s)),
                timeout_in: wg.timeout_at.map(|t| t.saturating_sub(self.now)),
            });
            if let Some(a) = blocked_addr {
                waits_for.entry(a).or_default().push(wg.id);
            }
        }
        HangReport {
            at: self.now,
            unfinished,
            monitor_entries: self.policy.monitor_snapshot(),
            waits_for: waits_for.into_iter().collect(),
        }
    }

    /// Absolute telemetry totals at `cycle` (the snapshot window boundary).
    fn snapshot_sample(&self, cycle: Cycle) -> SnapshotSample {
        let mut state_counts = [0u64; PROGRESS_STATES];
        let mut cause_counts = [0u64; ATTRIBUTION_CAUSES];
        for wg in &self.wgs {
            state_counts[wg.state.progress_class().index()] += 1;
            cause_counts[self.cause_for(wg.id as usize, wg.state).index()] += 1;
        }
        let (atomics, _, _) = self.l2.op_counts();
        SnapshotSample {
            cycle,
            occupancy: self.cus.iter().map(|c| c.occupancy()).collect(),
            state_counts,
            cause_counts,
            atomics_total: atomics,
            swap_outs_total: self.switches_out,
            swap_ins_total: self.switches_in,
        }
    }

    fn summarize(&mut self) -> RunSummary {
        let now = self.now;
        if let Some(start) = self.run_started {
            self.run_wall = start.elapsed();
        }
        let mut insts = 0;
        let mut atomics = 0;
        let mut running = 0;
        let mut waiting = 0;
        for wg in &self.wgs {
            insts += wg.insts;
            atomics += wg.atomics;
            running += wg.running_cycles(now);
            waiting += wg.waiting_cycles + wg.wait_since.map_or(0, |s| now.saturating_sub(s));
        }
        // The summary's registry is a copy of the live one with the
        // memory-system, fault, telemetry and policy counters folded in.
        // The live registry never holds them, so a second `run` on a
        // finished machine summarizes the same registry again.
        let mut stats = self.stats.clone();
        stats.reserve_counters(SUMMARY_COUNTERS);
        let (l2_atomics, l2_reads, l2_writes) = self.l2.op_counts();
        let (hits, misses, bypasses) = self.l2.cache_stats();
        let (dram_accesses, dram_queued) = self.l2.dram_stats();
        for (name, value) in [
            ("l2_atomics", l2_atomics),
            ("l2_reads", l2_reads),
            ("l2_writes", l2_writes),
            ("l2_hits", hits),
            ("l2_misses", misses),
            ("l2_bypasses", bypasses),
            ("dram_accesses", dram_accesses),
            ("dram_queued_cycles", dram_queued),
        ] {
            let c = stats.counter(name);
            stats.add(c, value);
        }
        if self.fault_plan.is_some() {
            for (name, value) in [
                ("fault_cu_losses", self.chaos.cu_losses),
                ("fault_wake_windows", self.chaos.wake_windows),
                ("fault_wakes_dropped", self.chaos.wakes_dropped),
                ("fault_wakes_delayed", self.chaos.wakes_delayed),
                ("fault_wakes_duplicated", self.chaos.wakes_duplicated),
                ("fault_wakes_reordered", self.chaos.wakes_reordered),
                ("fault_policy_injections", self.chaos.policy_injections),
                ("fault_ctx_stall_hits", self.chaos.ctx_stall_hits),
            ] {
                let c = stats.counter(name);
                stats.add(c, value);
            }
        }
        if let Some(hub) = self.telemetry.as_mut() {
            hub.finalize(now);
            stats.absorb(hub.stats());
        }
        self.policy.report(&mut stats);
        RunSummary {
            cycles: now,
            insts,
            atomics,
            running_cycles: running,
            waiting_cycles: waiting,
            switches_out: self.switches_out,
            switches_in: self.switches_in,
            resumes: self.resumes,
            unnecessary_resumes: self.unnecessary_resumes,
            stats,
        }
    }

    /// Runs the kernel to completion, deadlock, or the cycle cap.
    pub fn run(&mut self) -> RunOutcome {
        self.run_started = Some(Instant::now());
        // One-time prologue. A resumed run skips it: its calendar already
        // carries the experiment events, CP tick, and progress check, and
        // its WGs were dispatched by the first call.
        if !self.started {
            self.started = true;
            // Schedule experiment events.
            for &(cu, at) in &self.resource_loss.clone() {
                self.events.schedule(at, Event::ResourceLoss(cu));
            }
            for &(cu, at) in &self.resource_restore.clone() {
                self.events.schedule(at, Event::ResourceRestore(cu));
            }
            if let Some(plan) = &self.fault_plan {
                let times: Vec<(usize, Cycle)> = plan
                    .events
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (i, e.at))
                    .collect();
                for (i, at) in times {
                    self.events.schedule(at, Event::Fault(i));
                }
            }
            if let Some(period) = self.policy.cp_tick_period() {
                self.events.schedule(period, Event::CpTick);
            }
            self.events
                .schedule(self.config.quiescence_cycles / 2, Event::ProgressCheck);
            self.try_dispatch();
        }

        loop {
            if self.finished as u64 == self.kernel.num_wgs {
                self.oracle_run_end(None);
                return RunOutcome::Completed(self.summarize());
            }
            if let Some(at) = self.deadlocked {
                self.oracle_run_end(None);
                let unfinished = self.kernel.num_wgs as usize - self.finished;
                let hang = self.hang_report();
                return RunOutcome::Deadlocked {
                    at,
                    unfinished,
                    summary: self.summarize(),
                    hang,
                };
            }
            let Some((cycle, event)) = self.events.pop() else {
                // No pending events with unfinished WGs: every WG waits on a
                // notification that can never arrive.
                self.oracle_run_end(None);
                let at = self.now;
                let unfinished = self.kernel.num_wgs as usize - self.finished;
                let hang = self.hang_report();
                return RunOutcome::Deadlocked {
                    at,
                    unfinished,
                    summary: self.summarize(),
                    hang,
                };
            };
            if cycle > self.config.max_cycles {
                self.oracle_run_end(Some(event));
                let at = self.now;
                let unfinished = self.kernel.num_wgs as usize - self.finished;
                let hang = self.hang_report();
                return RunOutcome::CycleLimit {
                    at,
                    unfinished,
                    summary: self.summarize(),
                    hang,
                };
            }
            if let Some(cause) = self.watchdog.as_ref().and_then(|wd| wd.check(cycle)) {
                self.oracle_run_end(Some(event));
                let at = self.now;
                let unfinished = self.kernel.num_wgs as usize - self.finished;
                let hang = self.hang_report();
                return RunOutcome::Cancelled {
                    at,
                    unfinished,
                    cause,
                    summary: self.summarize(),
                    hang,
                };
            }
            if let Some(window) = self.digest_window {
                // Digest at each window boundary the machine is about to
                // cross: all events strictly before the boundary have been
                // handled, none at-or-after it have. Nothing changes between
                // the boundaries one event crosses, so they share a digest.
                if self.digest_next <= cycle {
                    let d = self.digest();
                    while self.digest_next <= cycle {
                        self.digest_trail.push(d);
                        self.digest_next += window;
                    }
                }
            }
            // Metric snapshots use the same boundary discipline as digests:
            // the sample reflects all events strictly before the boundary.
            while let Some(boundary) = self.telemetry.as_ref().and_then(|h| h.due_snapshot(cycle)) {
                let sample = self.snapshot_sample(boundary);
                if let Some(hub) = self.telemetry.as_mut() {
                    hub.push_snapshot(sample);
                }
            }
            self.now = cycle;
            let profiling = self.telemetry.as_ref().is_some_and(|h| h.profiling());
            if profiling || self.hotprof.is_some() {
                let subsystem = Self::event_subsystem(&event);
                let lane = event.lane();
                let t0 = Instant::now();
                self.handle(event);
                let wall = t0.elapsed();
                if profiling {
                    if let Some(hub) = self.telemetry.as_mut() {
                        hub.profile_note(subsystem, wall);
                    }
                }
                let depth = self.events.len();
                if let Some(hot) = self.hotprof.as_mut() {
                    hot.events_popped += 1;
                    hot.note_event(lane, wall);
                    hot.heap_high_water = hot.heap_high_water.max(depth);
                }
            } else {
                self.handle(event);
            }
            if self.oracle_on {
                if profiling {
                    let t0 = Instant::now();
                    self.oracle_event(event);
                    let wall = t0.elapsed();
                    if let Some(hub) = self.telemetry.as_mut() {
                        hub.profile_note(Subsystem::Check, wall);
                    }
                } else {
                    self.oracle_event(event);
                }
            }
        }
    }

    /// Per-WG `(running, waiting)` cycle breakdown at the current time
    /// (Fig 11).
    pub fn wg_breakdown(&self) -> Vec<(u64, u64)> {
        self.wgs
            .iter()
            .map(|w| {
                let waiting =
                    w.waiting_cycles + w.wait_since.map_or(0, |s| self.now.saturating_sub(s));
                (w.running_cycles(self.now), waiting)
            })
            .collect()
    }
}
