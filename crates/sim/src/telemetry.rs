//! Telemetry hub: per-WG progress accounting, windowed metric snapshots,
//! host-side self-profiling, and a Chrome-Trace-Format builder.
//!
//! The paper's claims are about *forward progress under contention* —
//! wake-to-resume latency, context-switch overhead, CU occupancy. This
//! module gives those quantities first-class observation points:
//!
//! * [`TelemetryHub`] — the per-run aggregation point the machine layer
//!   threads through its state transitions. It owns a private [`Stats`]
//!   registry that the run summary absorbs at report time.
//! * [`ProgressState`] — the telemetry-level classification of a WG's
//!   scheduling state (coarser than the machine's internal state enum so
//!   the accounting is policy-agnostic).
//! * [`MetricSnapshot`] — one cycle-window worth of deltas (occupancy per
//!   CU, atomics, swap traffic), serializable as a JSONL line.
//! * [`SelfProfile`] / [`ProfileReport`] — host wall-clock per subsystem
//!   plus simulated-cycles/sec and events/sec throughput.
//! * [`chrome`] — a small builder for Chrome-Trace-Format / Perfetto
//!   `trace_event` JSON (slices, counters, metadata).
//!
//! The hub is strictly an *observer*: it never feeds back into simulation
//! decisions, so enabling it cannot perturb the deterministic digest trail.

use std::time::Duration;

use crate::stats::{DistId, HistId, Stats};
use crate::time::Cycle;

/// Number of [`ProgressState`] classes.
pub const PROGRESS_STATES: usize = 8;

/// Telemetry-level classification of a work-group's scheduling state.
///
/// This is intentionally coarser than the machine layer's internal state
/// enum: several internal states collapse into one accounting class (e.g.
/// both "swapped waiting" and "ready to swap back in" count as
/// [`ProgressState::SwappedOut`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgressState {
    /// Not yet dispatched (pending or mid-dispatch).
    Queued,
    /// Resident on a CU and making forward progress.
    Running,
    /// Resident but blocked on a synchronization condition.
    Stalled,
    /// Resident but voluntarily descheduled (S_SLEEP).
    Sleeping,
    /// Context state is being written out to memory.
    SwapOut,
    /// Fully swapped out of the CU (waiting or ready to return).
    SwappedOut,
    /// Context state is being read back into a CU.
    SwapIn,
    /// Retired.
    Finished,
}

impl ProgressState {
    /// All states in a fixed order (matches each state's [`index`](Self::index)).
    pub const ALL: [ProgressState; PROGRESS_STATES] = [
        ProgressState::Queued,
        ProgressState::Running,
        ProgressState::Stalled,
        ProgressState::Sleeping,
        ProgressState::SwapOut,
        ProgressState::SwappedOut,
        ProgressState::SwapIn,
        ProgressState::Finished,
    ];

    /// Stable index of this state in `[0, PROGRESS_STATES)`.
    pub fn index(self) -> usize {
        match self {
            ProgressState::Queued => 0,
            ProgressState::Running => 1,
            ProgressState::Stalled => 2,
            ProgressState::Sleeping => 3,
            ProgressState::SwapOut => 4,
            ProgressState::SwappedOut => 5,
            ProgressState::SwapIn => 6,
            ProgressState::Finished => 7,
        }
    }

    /// Lower-case identifier used in stat names and JSONL keys.
    pub fn name(self) -> &'static str {
        match self {
            ProgressState::Queued => "queued",
            ProgressState::Running => "running",
            ProgressState::Stalled => "stalled",
            ProgressState::Sleeping => "sleeping",
            ProgressState::SwapOut => "swap_out",
            ProgressState::SwappedOut => "swapped_out",
            ProgressState::SwapIn => "swap_in",
            ProgressState::Finished => "finished",
        }
    }
}

/// Number of [`AttributionCause`] classes.
pub const ATTRIBUTION_CAUSES: usize = 7;

/// *Why* a work-group's cycles went where they went.
///
/// [`ProgressState`] answers "what was the WG doing"; the attribution
/// ledger answers "whose fault was it". The machine layer classifies each
/// state transition into one of these causes (e.g. a swap-out forced by a
/// CU loss is [`FaultStall`](Self::FaultStall), the same swap-out chosen
/// by the scheduler under oversubscription is
/// [`Preempted`](Self::Preempted)). Per WG, the per-cause cycle totals sum
/// to the run's elapsed cycles — the same invariant the state accounting
/// satisfies. A WG that never executed a single cycle spent its whole run
/// in [`Queued`](Self::Queued): that is the "never dispatched" signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributionCause {
    /// Waiting for first (or repeat) dispatch; no blame assignable yet.
    Queued,
    /// Resident and retiring instructions — the only productive cause.
    Executing,
    /// Blocked on a synchronization dependency (lock holder, barrier
    /// peers, monitored line).
    SyncWait,
    /// Voluntarily descheduled (S_SLEEP backoff).
    SleepWait,
    /// Scheduler-induced preemption: swap traffic and off-CU residence
    /// chosen by the policy, not forced by a fault.
    Preempted,
    /// Stall caused by an injected fault (CU loss eviction and the swap
    /// traffic it forces).
    FaultStall,
    /// Retired; cycles after the WG finished.
    Retired,
}

impl AttributionCause {
    /// All causes in a fixed order (matches each cause's
    /// [`index`](Self::index)).
    pub const ALL: [AttributionCause; ATTRIBUTION_CAUSES] = [
        AttributionCause::Queued,
        AttributionCause::Executing,
        AttributionCause::SyncWait,
        AttributionCause::SleepWait,
        AttributionCause::Preempted,
        AttributionCause::FaultStall,
        AttributionCause::Retired,
    ];

    /// Stable index of this cause in `[0, ATTRIBUTION_CAUSES)`.
    pub fn index(self) -> usize {
        match self {
            AttributionCause::Queued => 0,
            AttributionCause::Executing => 1,
            AttributionCause::SyncWait => 2,
            AttributionCause::SleepWait => 3,
            AttributionCause::Preempted => 4,
            AttributionCause::FaultStall => 5,
            AttributionCause::Retired => 6,
        }
    }

    /// Lower-case identifier used in stat names, JSONL keys, and counter
    /// track series.
    pub fn name(self) -> &'static str {
        match self {
            AttributionCause::Queued => "queued",
            AttributionCause::Executing => "executing",
            AttributionCause::SyncWait => "sync_wait",
            AttributionCause::SleepWait => "sleep_wait",
            AttributionCause::Preempted => "preempted",
            AttributionCause::FaultStall => "fault_stall",
            AttributionCause::Retired => "retired",
        }
    }
}

/// Direction of a context switch, for overhead attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapDir {
    /// Context is leaving a CU.
    Out,
    /// Context is returning to a CU.
    In,
}

impl SwapDir {
    fn name(self) -> &'static str {
        match self {
            SwapDir::Out => "out",
            SwapDir::In => "in",
        }
    }

    fn index(self) -> usize {
        match self {
            SwapDir::Out => 0,
            SwapDir::In => 1,
        }
    }
}

/// One swap direction's context-switch measurements in the hub's
/// registry.
#[derive(Debug, Clone, Copy)]
struct CtxSwitchIds {
    traffic: DistId,
    fixed: DistId,
    stall: DistId,
    total: HistId,
}

/// Configuration for a run's telemetry collection.
///
/// Telemetry is off by default; construct one of these and hand it to the
/// machine to opt in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Emit a [`MetricSnapshot`] every this many cycles (`None` disables
    /// snapshotting).
    pub snapshot_window: Option<Cycle>,
    /// Measure host wall-clock per subsystem while the run executes.
    pub profiling: bool,
}

/// Per-WG accounting record.
#[derive(Debug, Clone)]
struct WgAccount {
    state: ProgressState,
    since: Cycle,
    time: [Cycle; PROGRESS_STATES],
    cause: AttributionCause,
    cause_since: Cycle,
    cause_time: [Cycle; ATTRIBUTION_CAUSES],
    /// Cycle of the earliest wake notification not yet consumed by a
    /// transition back to `Running`.
    wake_pending: Option<Cycle>,
}

impl WgAccount {
    fn new() -> Self {
        WgAccount {
            state: ProgressState::Queued,
            since: 0,
            time: [0; PROGRESS_STATES],
            cause: AttributionCause::Queued,
            cause_since: 0,
            cause_time: [0; ATTRIBUTION_CAUSES],
            wake_pending: None,
        }
    }
}

/// Absolute totals sampled by the machine layer at a snapshot boundary.
///
/// The hub turns consecutive samples into per-window deltas; the machine
/// only ever reports cumulative values, which keeps the sampling code
/// trivial and the delta logic in one place.
#[derive(Debug, Clone, Default)]
pub struct SnapshotSample {
    /// Cycle at which the sample was taken (the window's end boundary).
    pub cycle: Cycle,
    /// Number of resident WGs per CU.
    pub occupancy: Vec<u32>,
    /// Number of WGs currently in each [`ProgressState`] (indexed by
    /// [`ProgressState::index`]).
    pub state_counts: [u64; PROGRESS_STATES],
    /// Number of WGs currently attributed to each [`AttributionCause`]
    /// (indexed by [`AttributionCause::index`]).
    pub cause_counts: [u64; ATTRIBUTION_CAUSES],
    /// Cumulative atomic operations executed since the start of the run.
    pub atomics_total: u64,
    /// Cumulative swap-outs initiated since the start of the run.
    pub swap_outs_total: u64,
    /// Cumulative swap-ins initiated since the start of the run.
    pub swap_ins_total: u64,
}

/// One cycle-window worth of metrics, derived from two consecutive
/// [`SnapshotSample`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// End boundary of the window (cycles).
    pub cycle: Cycle,
    /// Width of the window (cycles).
    pub window: Cycle,
    /// Resident WGs per CU at the window boundary.
    pub occupancy: Vec<u32>,
    /// WGs in each [`ProgressState`] at the window boundary (indexed by
    /// [`ProgressState::index`]).
    pub state_counts: [u64; PROGRESS_STATES],
    /// WGs attributed to each [`AttributionCause`] at the window boundary
    /// (indexed by [`AttributionCause::index`]).
    pub cause_counts: [u64; ATTRIBUTION_CAUSES],
    /// Atomic operations executed during the window.
    pub atomics: u64,
    /// Swap-outs initiated during the window.
    pub swap_outs: u64,
    /// Swap-ins initiated during the window.
    pub swap_ins: u64,
}

impl MetricSnapshot {
    /// Renders this snapshot as a single JSONL line (no trailing newline).
    ///
    /// Schema: `{"cycle":C,"window":W,"occupancy":[..],"states":{"queued":N,
    /// ...},"attribution":{"executing":N,...},"atomics":A,"swap_outs":O,
    /// "swap_ins":I}` (the `attribution` object is additive over the PR 3
    /// schema, so old consumers keep parsing).
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"cycle\":{},\"window\":{},\"occupancy\":[",
            self.cycle, self.window
        );
        for (i, occ) in self.occupancy.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{occ}");
        }
        out.push_str("],\"states\":{");
        for (i, state) in ProgressState::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", state.name(), self.state_counts[i]);
        }
        out.push_str("},\"attribution\":{");
        for (i, cause) in AttributionCause::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", cause.name(), self.cause_counts[i]);
        }
        let _ = write!(
            out,
            "}},\"atomics\":{},\"swap_outs\":{},\"swap_ins\":{}}}",
            self.atomics, self.swap_outs, self.swap_ins
        );
        out
    }
}

/// Number of [`Subsystem`] classes the self-profiler attributes time to.
pub const SUBSYSTEMS: usize = 5;

/// Host-side subsystem classification for self-profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsystem {
    /// Instruction execution and dispatch events.
    Execute,
    /// Wake delivery, timeouts, and policy ticks.
    Wakeup,
    /// Context swap-out / swap-in completion.
    ContextSwitch,
    /// Invariant oracle sweeps and digest hashing.
    Check,
    /// Everything else.
    Other,
}

impl Subsystem {
    /// All subsystems in index order.
    pub const ALL: [Subsystem; SUBSYSTEMS] = [
        Subsystem::Execute,
        Subsystem::Wakeup,
        Subsystem::ContextSwitch,
        Subsystem::Check,
        Subsystem::Other,
    ];

    fn index(self) -> usize {
        match self {
            Subsystem::Execute => 0,
            Subsystem::Wakeup => 1,
            Subsystem::ContextSwitch => 2,
            Subsystem::Check => 3,
            Subsystem::Other => 4,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Execute => "execute",
            Subsystem::Wakeup => "wakeup",
            Subsystem::ContextSwitch => "context-switch",
            Subsystem::Check => "check",
            Subsystem::Other => "other",
        }
    }
}

/// Accumulated host wall-clock and event counts per subsystem.
#[derive(Debug, Clone, Default)]
pub struct SelfProfile {
    wall: [Duration; SUBSYSTEMS],
    events: [u64; SUBSYSTEMS],
}

impl SelfProfile {
    /// Attributes one handled event's host wall-clock to `subsystem`.
    pub fn note(&mut self, subsystem: Subsystem, wall: Duration) {
        let i = subsystem.index();
        self.wall[i] += wall;
        self.events[i] += 1;
    }

    /// Total number of events attributed so far.
    pub fn events(&self) -> u64 {
        self.events.iter().sum()
    }
}

/// End-of-run self-profiling summary.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Total host wall-clock for the run.
    pub total_wall: Duration,
    /// Simulated cycles elapsed.
    pub sim_cycles: Cycle,
    /// Total events handled.
    pub events: u64,
    /// Per-subsystem `(name, wall, events)` rows, in [`Subsystem::ALL`]
    /// order.
    pub per_subsystem: Vec<(&'static str, Duration, u64)>,
}

impl ProfileReport {
    /// Simulated cycles per host second (0.0 when wall time is zero).
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.total_wall.as_secs_f64();
        if secs > 0.0 {
            self.sim_cycles as f64 / secs
        } else {
            0.0
        }
    }

    /// Events handled per host second (0.0 when wall time is zero).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.total_wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "self-profile: {:.3} s wall, {} cycles ({:.0} cycles/s), {} events ({:.0} events/s)",
            self.total_wall.as_secs_f64(),
            self.sim_cycles,
            self.cycles_per_sec(),
            self.events,
            self.events_per_sec(),
        )?;
        for (name, wall, events) in &self.per_subsystem {
            writeln!(
                f,
                "  {name:<16} {:>9.3} ms  {events} events",
                wall.as_secs_f64() * 1e3
            )?;
        }
        Ok(())
    }
}

/// The per-run telemetry aggregation point.
///
/// The machine layer reports WG state transitions, wake notifications,
/// context-switch cost breakdowns, and windowed [`SnapshotSample`]s; the
/// hub folds them into a private [`Stats`] registry plus retained snapshot
/// records. Call [`finalize`](Self::finalize) once at end of run to close
/// open state intervals and publish the per-WG time-in-state
/// distributions.
#[derive(Debug, Clone)]
pub struct TelemetryHub {
    config: TelemetryConfig,
    stats: Stats,
    /// Handles into `stats` for the per-event measurements, resolved at
    /// first use so registration order is unchanged; `load` replaces
    /// `stats` and clears them.
    wake_to_resume: Option<HistId>,
    ctx_switch: [Option<CtxSwitchIds>; 2],
    wgs: Vec<WgAccount>,
    snapshot_next: Option<Cycle>,
    prev_atomics: u64,
    prev_swap_outs: u64,
    prev_swap_ins: u64,
    snapshots: Vec<MetricSnapshot>,
    profile: SelfProfile,
    latest: Cycle,
    end_cycle: Option<Cycle>,
}

impl TelemetryHub {
    /// Creates a hub with the given configuration.
    pub fn new(config: TelemetryConfig) -> Self {
        TelemetryHub {
            config,
            stats: Stats::new(),
            wake_to_resume: None,
            ctx_switch: [None; 2],
            wgs: Vec::new(),
            snapshot_next: config.snapshot_window,
            prev_atomics: 0,
            prev_swap_outs: 0,
            prev_swap_ins: 0,
            snapshots: Vec::new(),
            profile: SelfProfile::default(),
            latest: 0,
            end_cycle: None,
        }
    }

    /// The configuration this hub was created with.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Whether host self-profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.config.profiling
    }

    fn account(&mut self, wg: usize) -> &mut WgAccount {
        if wg >= self.wgs.len() {
            self.wgs.resize_with(wg + 1, WgAccount::new);
        }
        &mut self.wgs[wg]
    }

    /// Pre-registers `n` WGs so that WGs which never transition (e.g. a
    /// never-dispatched WG in a deadlocked run) are still accounted from
    /// cycle 0 in [`ProgressState::Queued`].
    pub fn ensure_wgs(&mut self, n: usize) {
        if n > self.wgs.len() {
            self.wgs.resize_with(n, WgAccount::new);
        }
    }

    /// Records that work-group `wg` entered `state` at cycle `at`.
    ///
    /// The first transition for a WG implicitly opens a
    /// [`ProgressState::Queued`] interval starting at cycle 0, so the
    /// per-WG state times always sum to the run's elapsed cycles.
    pub fn transition(&mut self, wg: usize, state: ProgressState, at: Cycle) {
        self.latest = self.latest.max(at);
        let a = self.account(wg);
        let idx = a.state.index();
        a.time[idx] += at.saturating_sub(a.since);
        a.state = state;
        a.since = at;
        if state == ProgressState::Running {
            if let Some(woke) = a.wake_pending.take() {
                let h = *self
                    .wake_to_resume
                    .get_or_insert_with(|| self.stats.hist("telemetry_wake_to_resume_cycles"));
                self.stats.observe(h, at.saturating_sub(woke));
            }
        } else if state == ProgressState::Finished {
            a.wake_pending = None;
        }
    }

    /// Attributes work-group `wg`'s cycles to `cause` from cycle `at`
    /// onward, closing the previously open cause interval.
    ///
    /// Like [`transition`](Self::transition), the first call implicitly
    /// opens an [`AttributionCause::Queued`] interval at cycle 0, so the
    /// per-WG cause times always sum to the run's elapsed cycles.
    pub fn attribute(&mut self, wg: usize, cause: AttributionCause, at: Cycle) {
        self.latest = self.latest.max(at);
        let a = self.account(wg);
        let idx = a.cause.index();
        a.cause_time[idx] += at.saturating_sub(a.cause_since);
        a.cause = cause;
        a.cause_since = at;
    }

    /// Records that a wake notification for `wg` fired at cycle `at`.
    ///
    /// Only the earliest un-consumed wake is kept; the latency is observed
    /// when the WG next transitions back to [`ProgressState::Running`].
    pub fn note_wake(&mut self, wg: usize, at: Cycle) {
        let a = self.account(wg);
        if a.wake_pending.is_none() {
            a.wake_pending = Some(at);
        }
    }

    /// Records one context switch's cost breakdown: memory traffic cycles,
    /// fixed pipeline overhead, and scheduler stall.
    pub fn note_ctx_switch(&mut self, dir: SwapDir, traffic: Cycle, fixed: Cycle, stall: Cycle) {
        let stats = &mut self.stats;
        let ids = *self.ctx_switch[dir.index()].get_or_insert_with(|| {
            let name = dir.name();
            CtxSwitchIds {
                traffic: stats.dist(format!("telemetry_ctx_{name}_traffic_cycles")),
                fixed: stats.dist(format!("telemetry_ctx_{name}_fixed_cycles")),
                stall: stats.dist(format!("telemetry_ctx_{name}_stall_cycles")),
                total: stats.hist(format!("telemetry_ctx_{name}_total_cycles")),
            }
        });
        self.stats.sample(ids.traffic, traffic);
        self.stats.sample(ids.fixed, fixed);
        self.stats.sample(ids.stall, stall);
        self.stats.observe(ids.total, traffic + fixed + stall);
    }

    /// If a snapshot boundary is due at or before `cycle`, returns that
    /// boundary so the caller can take a [`SnapshotSample`] there.
    pub fn due_snapshot(&self, cycle: Cycle) -> Option<Cycle> {
        self.snapshot_next.filter(|&next| next <= cycle)
    }

    /// Folds an absolute sample into a per-window [`MetricSnapshot`] and
    /// schedules the next boundary.
    pub fn push_snapshot(&mut self, sample: SnapshotSample) {
        let window = self.config.snapshot_window.unwrap_or(0);
        self.snapshots.push(MetricSnapshot {
            cycle: sample.cycle,
            window,
            occupancy: sample.occupancy,
            state_counts: sample.state_counts,
            cause_counts: sample.cause_counts,
            atomics: sample.atomics_total.saturating_sub(self.prev_atomics),
            swap_outs: sample.swap_outs_total.saturating_sub(self.prev_swap_outs),
            swap_ins: sample.swap_ins_total.saturating_sub(self.prev_swap_ins),
        });
        self.prev_atomics = sample.atomics_total;
        self.prev_swap_outs = sample.swap_outs_total;
        self.prev_swap_ins = sample.swap_ins_total;
        if let (Some(next), Some(window)) = (self.snapshot_next, self.config.snapshot_window) {
            self.snapshot_next = Some(next + window);
        }
    }

    /// The windowed snapshots recorded so far, oldest first.
    pub fn snapshots(&self) -> &[MetricSnapshot] {
        &self.snapshots
    }

    /// Attributes one handled event's host wall-clock to `subsystem`.
    pub fn profile_note(&mut self, subsystem: Subsystem, wall: Duration) {
        self.profile.note(subsystem, wall);
    }

    /// Builds the end-of-run self-profiling summary.
    pub fn profile_report(&self, total_wall: Duration, sim_cycles: Cycle) -> ProfileReport {
        ProfileReport {
            total_wall,
            sim_cycles,
            events: self.profile.events(),
            per_subsystem: Subsystem::ALL
                .iter()
                .map(|&s| {
                    let i = s.index();
                    (s.name(), self.profile.wall[i], self.profile.events[i])
                })
                .collect(),
        }
    }

    /// Closes every open state interval and publishes the per-WG
    /// time-in-state distributions into the hub's registry.
    ///
    /// Intervals close at `max(end, latest transition timestamp)`: the
    /// machine stamps some transitions at instruction-retire time, which
    /// can sit a few cycles past the last scheduled event. The cycle the
    /// hub actually closed at is [`TelemetryHub::end_cycle`].
    ///
    /// Idempotent: only the first call has an effect.
    pub fn finalize(&mut self, end: Cycle) {
        if self.end_cycle.is_some() {
            return;
        }
        let end = end.max(self.latest);
        self.end_cycle = Some(end);
        for wg in 0..self.wgs.len() {
            let a = &mut self.wgs[wg];
            let idx = a.state.index();
            a.time[idx] += end.saturating_sub(a.since);
            a.since = end;
            let idx = a.cause.index();
            a.cause_time[idx] += end.saturating_sub(a.cause_since);
            a.cause_since = end;
        }
        for state in ProgressState::ALL {
            let d = self
                .stats
                .dist(format!("telemetry_wg_cycles_{}", state.name()));
            for wg in 0..self.wgs.len() {
                let t = self.wgs[wg].time[state.index()];
                self.stats.sample(d, t);
            }
        }
        for cause in AttributionCause::ALL {
            let d = self
                .stats
                .dist(format!("telemetry_wg_attr_{}", cause.name()));
            for wg in 0..self.wgs.len() {
                let t = self.wgs[wg].cause_time[cause.index()];
                self.stats.sample(d, t);
            }
        }
    }

    /// The cycle [`TelemetryHub::finalize`] closed every interval at
    /// (`None` until finalized). Every WG's state times sum to exactly
    /// this value.
    pub fn end_cycle(&self) -> Option<Cycle> {
        self.end_cycle
    }

    /// Per-WG time-in-state totals (indexed by [`ProgressState::index`]),
    /// if the hub has seen that WG.
    pub fn wg_state_times(&self, wg: usize) -> Option<[Cycle; PROGRESS_STATES]> {
        self.wgs.get(wg).map(|a| a.time)
    }

    /// Per-WG cycle-attribution totals (indexed by
    /// [`AttributionCause::index`]), if the hub has seen that WG.
    pub fn wg_cause_times(&self, wg: usize) -> Option<[Cycle; ATTRIBUTION_CAUSES]> {
        self.wgs.get(wg).map(|a| a.cause_time)
    }

    /// Machine-wide cycle-attribution totals: the per-cause sums across
    /// every accounted WG. After [`finalize`](Self::finalize) the grand
    /// total equals `wg_count() * end_cycle`.
    pub fn cause_totals(&self) -> [Cycle; ATTRIBUTION_CAUSES] {
        let mut totals = [0; ATTRIBUTION_CAUSES];
        for a in &self.wgs {
            for (t, &c) in totals.iter_mut().zip(a.cause_time.iter()) {
                *t += c;
            }
        }
        totals
    }

    /// Number of WGs the hub has accounted.
    pub fn wg_count(&self) -> usize {
        self.wgs.len()
    }

    /// The hub's private measurement registry (absorb into the run summary
    /// with [`Stats::absorb`]).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }
}

/// Chrome-Trace-Format (`trace_event`) JSON builder.
///
/// Produces the JSON-object flavour (`{"traceEvents": [...]}`) that both
/// `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
/// accept. Timestamps are microseconds (fractional values are allowed and
/// used, since one cycle at the paper's 2 GHz clock is 0.0005 µs).
pub mod chrome {
    use crate::json::escape;
    use std::fmt::Write as _;

    /// Incremental builder for a Chrome-Trace-Format JSON document.
    #[derive(Debug, Default)]
    pub struct TraceBuilder {
        events: Vec<String>,
    }

    impl TraceBuilder {
        /// Creates an empty trace.
        pub fn new() -> Self {
            Self::default()
        }

        /// Number of events recorded so far.
        pub fn len(&self) -> usize {
            self.events.len()
        }

        /// Whether no events have been recorded.
        pub fn is_empty(&self) -> bool {
            self.events.is_empty()
        }

        /// Names a process track (`ph:"M"`, `process_name`).
        pub fn process_name(&mut self, pid: u64, name: &str) {
            self.events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                escape(name)
            ));
        }

        /// Names a thread track (`ph:"M"`, `thread_name`).
        pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
            self.events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                escape(name)
            ));
        }

        /// Adds a complete slice (`ph:"X"`) with optional string args.
        #[allow(clippy::too_many_arguments)] // mirrors the trace_event fields
        pub fn complete_slice(
            &mut self,
            pid: u64,
            tid: u64,
            name: &str,
            cat: &str,
            ts_us: f64,
            dur_us: f64,
            args: &[(&str, String)],
        ) {
            let mut ev = format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":{},\"cat\":{},\
                 \"ts\":{ts_us},\"dur\":{dur_us}",
                escape(name),
                escape(cat),
            );
            push_args(&mut ev, args);
            ev.push('}');
            self.events.push(ev);
        }

        /// Adds a counter sample (`ph:"C"`) with one or more series.
        pub fn counter(&mut self, pid: u64, name: &str, ts_us: f64, series: &[(&str, f64)]) {
            let mut ev = format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"name\":{},\"ts\":{ts_us},\"args\":{{",
                escape(name)
            );
            for (i, (key, value)) in series.iter().enumerate() {
                if i > 0 {
                    ev.push(',');
                }
                let _ = write!(ev, "{}:{value}", escape(key));
            }
            ev.push_str("}}");
            self.events.push(ev);
        }

        /// Adds an instant event (`ph:"i"`, thread scope) with optional
        /// string args.
        pub fn instant(
            &mut self,
            pid: u64,
            tid: u64,
            name: &str,
            cat: &str,
            ts_us: f64,
            args: &[(&str, String)],
        ) {
            let mut ev = format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"name\":{},\"cat\":{},\
                 \"ts\":{ts_us},\"s\":\"t\"",
                escape(name),
                escape(cat),
            );
            push_args(&mut ev, args);
            ev.push('}');
            self.events.push(ev);
        }

        /// Serializes the trace as a `{"traceEvents": [...]}` document.
        pub fn finish(self) -> String {
            let mut out = String::from("{\"traceEvents\":[\n");
            for (i, ev) in self.events.iter().enumerate() {
                out.push_str(ev);
                if i + 1 < self.events.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
            out
        }
    }

    fn push_args(ev: &mut String, args: &[(&str, String)]) {
        if args.is_empty() {
            return;
        }
        ev.push_str(",\"args\":{");
        for (i, (key, value)) in args.iter().enumerate() {
            if i > 0 {
                ev.push(',');
            }
            let _ = write!(ev, "{}:{}", escape(key), escape(value));
        }
        ev.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn state_times_sum_to_elapsed() {
        let mut hub = TelemetryHub::new(TelemetryConfig::default());
        hub.transition(0, ProgressState::Running, 100);
        hub.transition(0, ProgressState::Stalled, 250);
        hub.transition(0, ProgressState::Running, 400);
        hub.transition(0, ProgressState::Finished, 900);
        hub.transition(1, ProgressState::Running, 50);
        hub.finalize(1000);
        for wg in 0..hub.wg_count() {
            let times = hub.wg_state_times(wg).unwrap();
            let total: Cycle = times.iter().sum();
            assert_eq!(total, 1000, "wg {wg} state times must sum to elapsed");
        }
        let times = hub.wg_state_times(0).unwrap();
        assert_eq!(times[ProgressState::Queued.index()], 100);
        assert_eq!(times[ProgressState::Running.index()], 150 + 500);
        assert_eq!(times[ProgressState::Stalled.index()], 150);
        assert_eq!(times[ProgressState::Finished.index()], 100);
    }

    #[test]
    fn wake_to_resume_latency_is_observed() {
        let mut hub = TelemetryHub::new(TelemetryConfig::default());
        hub.transition(0, ProgressState::Sleeping, 10);
        hub.note_wake(0, 100);
        // A later duplicate wake must not overwrite the earliest one.
        hub.note_wake(0, 150);
        hub.transition(0, ProgressState::Running, 180);
        hub.finalize(200);
        let buckets = hub
            .stats()
            .hist_buckets_by_name("telemetry_wake_to_resume_cycles")
            .unwrap();
        // One observation of 80 cycles → bucket [64, 128).
        assert_eq!(buckets, vec![(64, 1)]);
    }

    #[test]
    fn snapshots_are_window_deltas() {
        let mut hub = TelemetryHub::new(TelemetryConfig {
            snapshot_window: Some(100),
            profiling: false,
        });
        assert_eq!(hub.due_snapshot(99), None);
        assert_eq!(hub.due_snapshot(100), Some(100));
        hub.push_snapshot(SnapshotSample {
            cycle: 100,
            occupancy: vec![2, 1],
            atomics_total: 40,
            swap_outs_total: 1,
            swap_ins_total: 0,
            ..SnapshotSample::default()
        });
        assert_eq!(hub.due_snapshot(150), None);
        assert_eq!(hub.due_snapshot(230), Some(200));
        hub.push_snapshot(SnapshotSample {
            cycle: 200,
            occupancy: vec![2, 2],
            cause_counts: [1, 2, 0, 0, 0, 0, 1],
            atomics_total: 90,
            swap_outs_total: 3,
            swap_ins_total: 2,
            ..SnapshotSample::default()
        });
        let snaps = hub.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].atomics, 40);
        assert_eq!(snaps[1].atomics, 50);
        assert_eq!(snaps[1].swap_outs, 2);
        assert_eq!(snaps[1].swap_ins, 2);
        let line = snaps[1].to_jsonl();
        let parsed = json::parse(&line).expect("snapshot line must be valid JSON");
        assert_eq!(parsed.get("cycle").unwrap().as_f64(), Some(200.0));
        assert_eq!(parsed.get("atomics").unwrap().as_f64(), Some(50.0));
        let states = parsed.get("states").unwrap();
        assert_eq!(states.get("running").unwrap().as_f64(), Some(0.0));
        let attr = parsed.get("attribution").unwrap();
        assert_eq!(attr.get("executing").unwrap().as_f64(), Some(2.0));
        assert_eq!(attr.get("retired").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn cause_times_sum_to_elapsed() {
        let mut hub = TelemetryHub::new(TelemetryConfig::default());
        hub.ensure_wgs(3);
        hub.attribute(0, AttributionCause::Executing, 100);
        hub.attribute(0, AttributionCause::SyncWait, 250);
        hub.attribute(0, AttributionCause::Executing, 400);
        hub.attribute(0, AttributionCause::Retired, 900);
        hub.attribute(1, AttributionCause::Executing, 50);
        hub.attribute(1, AttributionCause::FaultStall, 300);
        // WG 2 never dispatches: all cycles stay Queued.
        hub.finalize(1000);
        for wg in 0..hub.wg_count() {
            let times = hub.wg_cause_times(wg).unwrap();
            let total: Cycle = times.iter().sum();
            assert_eq!(total, 1000, "wg {wg} cause times must sum to elapsed");
        }
        let t0 = hub.wg_cause_times(0).unwrap();
        assert_eq!(t0[AttributionCause::Queued.index()], 100);
        assert_eq!(t0[AttributionCause::Executing.index()], 150 + 500);
        assert_eq!(t0[AttributionCause::SyncWait.index()], 150);
        assert_eq!(t0[AttributionCause::Retired.index()], 100);
        let t1 = hub.wg_cause_times(1).unwrap();
        assert_eq!(t1[AttributionCause::FaultStall.index()], 700);
        let t2 = hub.wg_cause_times(2).unwrap();
        assert_eq!(t2[AttributionCause::Queued.index()], 1000);
        assert_eq!(
            t2[AttributionCause::Executing.index()],
            0,
            "never dispatched"
        );
        let totals = hub.cause_totals();
        assert_eq!(totals.iter().sum::<Cycle>(), 3 * 1000);
        // finalize publishes per-cause distributions.
        assert!(hub
            .stats()
            .dist_summary_by_name("telemetry_wg_attr_executing")
            .is_some());
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut hub = TelemetryHub::new(TelemetryConfig::default());
        hub.transition(0, ProgressState::Running, 10);
        hub.finalize(100);
        hub.finalize(500);
        let times = hub.wg_state_times(0).unwrap();
        assert_eq!(times.iter().sum::<Cycle>(), 100);
    }

    #[test]
    fn ctx_switch_breakdown_lands_in_stats() {
        let mut hub = TelemetryHub::new(TelemetryConfig::default());
        hub.note_ctx_switch(SwapDir::Out, 120, 30, 5);
        hub.note_ctx_switch(SwapDir::In, 90, 30, 0);
        let s = hub.stats();
        let d = s
            .dist_summary_by_name("telemetry_ctx_out_traffic_cycles")
            .unwrap();
        assert_eq!((d.count, d.sum), (1, 120));
        let d = s
            .dist_summary_by_name("telemetry_ctx_in_fixed_cycles")
            .unwrap();
        assert_eq!((d.count, d.sum), (1, 30));
        assert!(s
            .hist_buckets_by_name("telemetry_ctx_out_total_cycles")
            .is_some());
    }

    #[test]
    fn profile_report_computes_rates() {
        let mut hub = TelemetryHub::new(TelemetryConfig {
            snapshot_window: None,
            profiling: true,
        });
        hub.profile_note(Subsystem::Execute, Duration::from_millis(10));
        hub.profile_note(Subsystem::Wakeup, Duration::from_millis(5));
        let report = hub.profile_report(Duration::from_secs(1), 2_000_000);
        assert_eq!(report.events, 2);
        assert!((report.cycles_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert!((report.events_per_sec() - 2.0).abs() < 1e-9);
        let text = report.to_string();
        assert!(text.contains("execute"));
        assert!(text.contains("cycles/s"));
    }

    #[test]
    fn chrome_builder_emits_valid_json() {
        let mut b = chrome::TraceBuilder::new();
        b.process_name(0, "GPU");
        b.thread_name(0, 1, "CU 1");
        b.complete_slice(0, 1, "WG 3", "residency", 0.5, 12.25, &[("wg", "3".into())]);
        b.counter(0, "occupancy cu1", 0.5, &[("resident", 2.0)]);
        b.instant(0, 1, "timeout", "sched", 3.0, &[]);
        assert_eq!(b.len(), 5);
        let doc = b.finish();
        let parsed = json::parse(&doc).expect("chrome trace must parse");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 5);
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(slice.get("ts").unwrap().as_f64(), Some(0.5));
        assert_eq!(slice.get("dur").unwrap().as_f64(), Some(12.25));
        assert_eq!(slice.get("tid").unwrap().as_f64(), Some(1.0));
    }
}
