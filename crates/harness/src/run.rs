//! The experiment runner: one benchmark × one policy × one scenario.

use awg_core::policies::{build_policy, PolicyKind};
use awg_gpu::{FaultPlan, Gpu, HotReport, InvariantViolation, RunOutcome, Watchdog};
use awg_sim::{Cycle, MetricSnapshot, ProfileReport, TelemetryConfig, ATTRIBUTION_CAUSES};
use awg_workloads::BenchmarkKind;

use crate::scale::Scale;

/// Self-checking and observability knobs for a run: the invariant oracle,
/// the per-window state-digest trail, and the telemetry hub.
/// [`Instrumentation::none`] is the plain timing run; the chaos harness
/// runs everything under [`Instrumentation::checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Instrumentation {
    /// Validate machine-wide invariants as the run goes (see
    /// [`awg_gpu::oracle`]).
    pub oracle: bool,
    /// Record a state digest every this-many cycles (for same-seed
    /// divergence localization).
    pub digest_window: Option<Cycle>,
    /// Enable the telemetry hub (per-WG progress accounting, windowed
    /// metric snapshots, host self-profiling).
    pub telemetry: Option<TelemetryConfig>,
    /// Enable the event-loop hot profile (per-lane dispatch counts and
    /// wall time, calendar high-water, wake/dispatch scan counts). Like the
    /// telemetry hub it is a pure observer: digest trails and outcomes
    /// are unchanged.
    pub hot_profile: bool,
}

/// The digest window the chaos harness records at: fine enough to pin a
/// divergence to a few scheduling events, coarse enough to stay cheap.
pub const DIGEST_WINDOW: Cycle = 5_000;

impl Instrumentation {
    /// No self-checking (the plain timing configuration).
    pub fn none() -> Self {
        Self::default()
    }

    /// Oracle on, digests every [`DIGEST_WINDOW`] cycles.
    pub fn checked() -> Self {
        Instrumentation {
            oracle: true,
            digest_window: Some(DIGEST_WINDOW),
            telemetry: None,
            hot_profile: false,
        }
    }

    /// Everything [`checked`](Self::checked) records plus host
    /// self-profiling (no windowed snapshots): campaigns run under this so
    /// the CLI can report aggregate simulated-cycles-per-host-second
    /// across jobs. Telemetry is a pure observer, so the digest trail and
    /// oracle verdicts are identical to `checked`.
    pub fn profiled() -> Self {
        Instrumentation {
            oracle: true,
            digest_window: Some(DIGEST_WINDOW),
            telemetry: Some(TelemetryConfig {
                snapshot_window: None,
                profiling: true,
            }),
            hot_profile: false,
        }
    }

    /// Telemetry only: progress accounting, snapshots every
    /// [`DIGEST_WINDOW`] cycles, and self-profiling.
    pub fn observed() -> Self {
        Instrumentation {
            oracle: false,
            digest_window: None,
            telemetry: Some(TelemetryConfig {
                snapshot_window: Some(DIGEST_WINDOW),
                profiling: true,
            }),
            hot_profile: false,
        }
    }

    /// The performance-observatory configuration: everything
    /// [`observed`](Self::observed) records plus the event-loop hot
    /// profile. `awg-repro profile` runs under this so a single run
    /// yields both the ranked host hotspot table and the per-WG
    /// cycle-attribution ledger.
    pub fn hotspot() -> Self {
        Instrumentation {
            hot_profile: true,
            ..Self::observed()
        }
    }
}

/// A scenario: constant resources, or the §VI mid-kernel resource loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentConfig {
    /// Resources constant for the kernel's lifetime (Fig 14).
    NonOversubscribed,
    /// One CU is removed mid-run (Fig 15).
    Oversubscribed,
}

/// The outcome of one experiment run.
#[derive(Debug)]
pub struct ExpResult {
    /// Which benchmark ran.
    pub kind: BenchmarkKind,
    /// Which policy scheduled it.
    pub policy: PolicyKind,
    /// The raw simulation outcome.
    pub outcome: RunOutcome,
    /// Post-condition validation against the final memory. Runs even for
    /// aborted runs, distinguishing "stalled but memory consistent" from
    /// silent corruption (incomplete runs may legitimately fail
    /// completion-counting checks).
    pub validated: Result<(), String>,
    /// Per-WG `(running, waiting)` cycles at the end of the run.
    pub wg_breakdown: Vec<(u64, u64)>,
    /// Invariant violations the oracle recorded (empty when the oracle was
    /// off — or when the machine really is self-consistent).
    pub violations: Vec<InvariantViolation>,
    /// Per-window state digests (empty unless a digest window was set).
    pub digest_trail: Vec<u64>,
    /// Windowed metric snapshots (empty unless telemetry snapshots were on).
    pub snapshots: Vec<MetricSnapshot>,
    /// Host self-profiling summary (present only when telemetry profiling
    /// was on).
    pub profile: Option<ProfileReport>,
    /// Event-loop hot profile (present only when
    /// [`Instrumentation::hot_profile`] was set).
    pub hot: Option<HotReport>,
    /// Per-WG cycle-attribution ledger, indexed by WG id then
    /// [`AttributionCause`](awg_sim::AttributionCause) index (empty unless
    /// telemetry was on). Each row sums to the run's elapsed cycles.
    pub attribution: Vec<[Cycle; ATTRIBUTION_CAUSES]>,
}

impl ExpResult {
    /// Completion cycles, if the kernel completed.
    pub fn cycles(&self) -> Option<Cycle> {
        self.outcome.completed_cycles()
    }

    /// Whether the run deadlocked.
    pub fn deadlocked(&self) -> bool {
        self.outcome.is_deadlocked()
    }

    /// Dynamic atomic instruction count (the Fig 9 metric).
    pub fn atomics(&self) -> u64 {
        self.outcome.summary().atomics
    }

    /// `(running, waiting)` cycles summed over WGs (the Fig 11 metric).
    pub fn breakdown(&self) -> (u64, u64) {
        let s = self.outcome.summary();
        (s.running_cycles, s.waiting_cycles)
    }

    /// Whether the run completed *and* its post-conditions held.
    pub fn is_valid_completion(&self) -> bool {
        self.outcome.is_completed() && self.validated.is_ok()
    }

    /// Column sums of the attribution ledger: total cycles spent in each
    /// [`AttributionCause`](awg_sim::AttributionCause) across all WGs.
    pub fn attribution_totals(&self) -> [Cycle; ATTRIBUTION_CAUSES] {
        let mut totals = [0; ATTRIBUTION_CAUSES];
        for row in &self.attribution {
            for (t, c) in totals.iter_mut().zip(row) {
                *t += c;
            }
        }
        totals
    }
}

/// Runs `kind` under `policy` at the given scale and scenario.
///
/// The benchmark is emitted in the policy's required sync style, executed
/// on the timing simulator, and its post-conditions (mutual exclusion,
/// barrier ordering, money conservation, …) are validated against the
/// final memory.
pub fn run_experiment(
    kind: BenchmarkKind,
    policy: PolicyKind,
    scale: &Scale,
    config: ExperimentConfig,
) -> ExpResult {
    run_with_policy(kind, policy, build_policy(policy), scale, config)
}

/// Like [`run_experiment`], but with an explicitly constructed policy
/// instance (ablations, custom SyncMon geometries, chaos wrappers). The
/// `label` is only used in the result.
pub fn run_with_policy(
    kind: BenchmarkKind,
    label: PolicyKind,
    policy_box: Box<dyn awg_gpu::SchedPolicy>,
    scale: &Scale,
    config: ExperimentConfig,
) -> ExpResult {
    run_with_policy_under_plan(kind, label, policy_box, scale, config, None)
}

/// Like [`run_with_policy`], but optionally installing a seeded
/// [`FaultPlan`] the machine injects while the kernel runs (the chaos
/// harness's faulted arm).
pub fn run_with_policy_under_plan(
    kind: BenchmarkKind,
    label: PolicyKind,
    policy_box: Box<dyn awg_gpu::SchedPolicy>,
    scale: &Scale,
    config: ExperimentConfig,
    plan: Option<FaultPlan>,
) -> ExpResult {
    run_instrumented(
        kind,
        label,
        policy_box,
        scale,
        config,
        plan,
        Instrumentation::none(),
    )
}

/// Like [`run_instrumented`], with no watchdog.
pub fn run_instrumented(
    kind: BenchmarkKind,
    label: PolicyKind,
    policy_box: Box<dyn awg_gpu::SchedPolicy>,
    scale: &Scale,
    config: ExperimentConfig,
    plan: Option<FaultPlan>,
    instr: Instrumentation,
) -> ExpResult {
    run_watched(kind, label, policy_box, scale, config, plan, instr, None)
}

/// The fully-general runner: scenario, optional fault plan, self-checking
/// instrumentation, and an optional cooperative-cancellation watchdog (the
/// supervisor arms one per job).
#[allow(clippy::too_many_arguments)]
pub fn run_watched(
    kind: BenchmarkKind,
    label: PolicyKind,
    policy_box: Box<dyn awg_gpu::SchedPolicy>,
    scale: &Scale,
    config: ExperimentConfig,
    plan: Option<FaultPlan>,
    instr: Instrumentation,
    watchdog: Option<Watchdog>,
) -> ExpResult {
    let mut params = scale.params;
    params.iterations = params.iterations.saturating_mul(kind.episode_weight());
    let built = kind.build(&params, policy_box.style());
    let mut gpu = Gpu::new(scale.gpu.clone(), built.kernel(), policy_box);
    if config == ExperimentConfig::Oversubscribed {
        gpu.schedule_resource_loss(scale.lost_cu, scale.resource_loss_at);
    }
    if let Some(plan) = plan {
        gpu.install_fault_plan(plan);
    }
    if instr.oracle {
        gpu.enable_invariant_oracle();
    }
    if let Some(window) = instr.digest_window {
        gpu.enable_digest_trail(window);
    }
    if let Some(config) = instr.telemetry {
        gpu.enable_telemetry(config);
    }
    if instr.hot_profile {
        gpu.enable_hot_profile();
    }
    if let Some(watchdog) = watchdog {
        gpu.set_watchdog(watchdog);
    }
    let outcome = gpu.run();

    let validated = built.validate(gpu.backing());
    let wg_breakdown = gpu.wg_breakdown();
    let attribution = gpu
        .telemetry()
        .map(|h| {
            (0..wg_breakdown.len())
                .map(|wg| h.wg_cause_times(wg).unwrap_or([0; ATTRIBUTION_CAUSES]))
                .collect()
        })
        .unwrap_or_default();
    ExpResult {
        kind,
        policy: label,
        outcome,
        validated,
        wg_breakdown,
        violations: gpu.violations().to_vec(),
        digest_trail: gpu.digest_trail().to_vec(),
        snapshots: gpu
            .telemetry()
            .map(|h| h.snapshots().to_vec())
            .unwrap_or_default(),
        profile: gpu.profile_report(),
        hot: gpu.hot_report(),
        attribution,
    }
}

/// Geometric mean of strictly positive values (empty input → 1.0).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_sweeps_once_per_digest_window() {
        assert_eq!(awg_gpu::oracle::SWEEP_WINDOW, DIGEST_WINDOW);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn baseline_completes_spin_mutex_quick() {
        let scale = Scale::quick();
        let r = run_experiment(
            BenchmarkKind::SpinMutexGlobal,
            PolicyKind::Baseline,
            &scale,
            ExperimentConfig::NonOversubscribed,
        );
        assert!(
            r.is_valid_completion(),
            "{:?} / {:?}",
            r.outcome,
            r.validated
        );
        assert!(r.atomics() > 0);
    }

    #[test]
    fn awg_completes_and_validates_quick() {
        let scale = Scale::quick();
        for kind in [
            BenchmarkKind::SpinMutexGlobal,
            BenchmarkKind::FaMutexGlobal,
            BenchmarkKind::TreeBarrier,
        ] {
            let r = run_experiment(
                kind,
                PolicyKind::Awg,
                &scale,
                ExperimentConfig::NonOversubscribed,
            );
            assert!(
                r.is_valid_completion(),
                "{kind}: {:?} / {:?}",
                r.outcome,
                r.validated
            );
        }
    }

    #[test]
    fn baseline_deadlocks_oversubscribed_quick() {
        let scale = Scale::quick();
        let r = run_experiment(
            BenchmarkKind::SpinMutexGlobal,
            PolicyKind::Baseline,
            &scale,
            ExperimentConfig::Oversubscribed,
        );
        assert!(r.deadlocked(), "expected deadlock, got {:?}", r.outcome);
    }

    #[test]
    fn aborted_runs_still_validate_memory() {
        let scale = Scale::quick();
        let r = run_experiment(
            BenchmarkKind::SpinMutexGlobal,
            PolicyKind::Baseline,
            &scale,
            ExperimentConfig::Oversubscribed,
        );
        assert!(r.deadlocked(), "{}", r.outcome);
        assert!(
            r.validated.is_err(),
            "a deadlocked mutex run leaves its counters short; validation must say so"
        );
        assert!(!r.is_valid_completion());
    }

    #[test]
    fn awg_survives_oversubscription_quick() {
        let scale = Scale::quick();
        let r = run_experiment(
            BenchmarkKind::SpinMutexGlobal,
            PolicyKind::Awg,
            &scale,
            ExperimentConfig::Oversubscribed,
        );
        assert!(
            r.is_valid_completion(),
            "{:?} / {:?}",
            r.outcome,
            r.validated
        );
    }
}
