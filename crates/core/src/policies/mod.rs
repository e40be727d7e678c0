//! The paper's cooperative WG-scheduling policy family (§IV, Fig 6).
//!
//! | Policy | Instructions | Notification | Resume | Race-free? |
//! |---|---|---|---|---|
//! | Baseline (`awg_gpu::BusyWaitPolicy`) | plain atomics | — | — | n/a (deadlocks oversubscribed) |
//! | [`SleepBackoffPolicy`] | waiting atomics → `s_sleep` | — | timer | n/a (deadlocks oversubscribed) |
//! | [`TimeoutPolicy`] | waiting atomics | — | fixed timer | yes (timer) |
//! | [`MonRsAllPolicy`] | `wait` instruction | sporadic (any access) | all | **no** (Fig 10) |
//! | [`MonRAllPolicy`] | `wait` instruction | condition check on write | all | **no** (Fig 10) |
//! | [`MonNrAllPolicy`] | waiting atomics | condition check on write | all | yes |
//! | [`MonNrOnePolicy`] | waiting atomics | condition check on write | one | yes |
//! | [`AwgPolicy`] | waiting atomics | condition check on write | predicted | yes |
//! | [`MinResumePolicy`] | waiting atomics | oracle (peeks memory) | minimal | oracle |

mod awg;
pub mod chaos;
mod minresume;
mod monitor;
mod monnr;
mod monr;
mod monrs;
mod sleep;
mod timeout;

pub use awg::AwgPolicy;
pub use chaos::{ChaosMode, ChaosWrap, DropWakes};
pub use minresume::MinResumePolicy;
pub use monitor::{MonitorCore, ReportNames};
pub use monnr::{MonNrAllPolicy, MonNrOnePolicy};
pub use monr::MonRAllPolicy;
pub use monrs::MonRsAllPolicy;
pub use sleep::SleepBackoffPolicy;
pub use timeout::TimeoutPolicy;

use awg_gpu::SchedPolicy;

/// Test shorthand for the hooks that append wakes to the machine's buffer:
/// each runs the hook on a fresh buffer and returns it.
#[cfg(test)]
pub(crate) trait CollectWakes: SchedPolicy {
    fn update_wakes(
        &mut self,
        ctx: &mut awg_gpu::PolicyCtx<'_>,
        update: &awg_gpu::MonitoredUpdate,
    ) -> Vec<awg_gpu::Wake> {
        let mut wakes = Vec::new();
        self.on_monitored_update(ctx, update, &mut wakes);
        wakes
    }

    fn tick_wakes(&mut self, ctx: &mut awg_gpu::PolicyCtx<'_>) -> Vec<awg_gpu::Wake> {
        let mut wakes = Vec::new();
        self.on_cp_tick(ctx, &mut wakes);
        wakes
    }

    fn fault_wakes(
        &mut self,
        ctx: &mut awg_gpu::PolicyCtx<'_>,
        fault: &awg_gpu::PolicyFault,
    ) -> Vec<awg_gpu::Wake> {
        let mut wakes = Vec::new();
        self.on_fault(ctx, fault, &mut wakes);
        wakes
    }
}

#[cfg(test)]
impl<P: SchedPolicy + ?Sized> CollectWakes for P {}

/// Fallback timeout used by the monitor policies when a notification may
/// never arrive (racy `wait` instructions; MonNR-One leftover waiters).
pub const DEFAULT_FALLBACK_TIMEOUT: u64 = 50_000;

/// Default CP firmware tick period (Monitor Log draining, spilled-condition
/// checks).
pub const DEFAULT_CP_TICK: u64 = 10_000;

/// The progress guarantee a policy *claims*, in the vocabulary of
/// Sorensen et al., "Specifying and Testing GPU Workgroup Progress Models"
/// (arXiv 2109.06132).
///
/// This is the policy's contract surface: what its design promises, which
/// the conformance lab then tests against the observed behaviour under an
/// adversarial scheduler. The ladder is `Fair ⊐ LOBE ⊐ OBE`: fair progress
/// implies linear occupancy-bound execution, which implies plain
/// occupancy-bound execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProgressClaim {
    /// HSA occupancy-bound execution only: WGs that become resident keep
    /// making progress, but nothing forces a blocked resident WG to yield —
    /// oversubscribed cross-WG waits may deadlock.
    OccupancyBound,
    /// Linear occupancy-bound execution: additionally, WG `i` may rely on
    /// every WG `j < i` making progress (dispatch order is id-linear).
    LinearOccupancyBound,
    /// Fair: every WG eventually makes progress regardless of residency —
    /// the paper's independent-forward-progress guarantee.
    Fair,
}

impl ProgressClaim {
    /// Short display name used in the conformance matrix.
    pub fn label(&self) -> &'static str {
        match self {
            ProgressClaim::OccupancyBound => "OBE",
            ProgressClaim::LinearOccupancyBound => "LOBE",
            ProgressClaim::Fair => "Fair",
        }
    }
}

/// The members of the policy family, for harness sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Software busy-waiting (deadlocks when oversubscribed).
    Baseline,
    /// Exponential backoff with `s_sleep` (§IV.C.i), default 16k max.
    Sleep,
    /// Exponential backoff with a specific maximum interval (Fig 7 sweep).
    SleepMax(u64),
    /// Fixed-interval stall / context switch (§IV.C.ii), default 20k.
    Timeout,
    /// Fixed-interval with a specific interval (Fig 8 sweep).
    TimeoutInterval(u64),
    /// Sporadic monitor, resume all (§IV.C.iii).
    MonRsAll,
    /// Condition-checking monitor armed by `wait`, resume all (§IV.C.iv).
    MonRAll,
    /// Waiting atomics, resume all (§IV.D).
    MonNrAll,
    /// Waiting atomics, resume one (§IV.E).
    MonNrOne,
    /// The final design with prediction (§V).
    Awg,
    /// The Fig 9 oracle.
    MinResume,
}

impl PolicyKind {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Baseline => "Baseline".into(),
            PolicyKind::Sleep => "Sleep".into(),
            PolicyKind::SleepMax(m) => format!("Sleep-{}k", m / 1000),
            PolicyKind::Timeout => "Timeout".into(),
            PolicyKind::TimeoutInterval(i) => format!("Timeout-{}k", i / 1000),
            PolicyKind::MonRsAll => "MonRS-All".into(),
            PolicyKind::MonRAll => "MonR-All".into(),
            PolicyKind::MonNrAll => "MonNR-All".into(),
            PolicyKind::MonNrOne => "MonNR-One".into(),
            PolicyKind::Awg => "AWG".into(),
            PolicyKind::MinResume => "MinResume".into(),
        }
    }

    /// The progress model this policy's design claims to satisfy.
    ///
    /// Busy-waiting and sleep-backoff never yield a blocked WG's slot, so
    /// they claim only occupancy-bound execution; every design with
    /// WG-granularity rescheduling (a fallback timer guarantees eventual
    /// eviction even when notifications race or drop) claims fairness.
    pub fn progress_claim(&self) -> ProgressClaim {
        match self {
            PolicyKind::Baseline | PolicyKind::Sleep | PolicyKind::SleepMax(_) => {
                ProgressClaim::OccupancyBound
            }
            PolicyKind::Timeout
            | PolicyKind::TimeoutInterval(_)
            | PolicyKind::MonRsAll
            | PolicyKind::MonRAll
            | PolicyKind::MonNrAll
            | PolicyKind::MonNrOne
            | PolicyKind::Awg
            | PolicyKind::MinResume => ProgressClaim::Fair,
        }
    }
}

/// Builds a fresh policy instance.
pub fn build_policy(kind: PolicyKind) -> Box<dyn SchedPolicy> {
    match kind {
        PolicyKind::Baseline => Box::new(awg_gpu::BusyWaitPolicy::new()),
        PolicyKind::Sleep => Box::new(SleepBackoffPolicy::new(16_000)),
        PolicyKind::SleepMax(m) => Box::new(SleepBackoffPolicy::new(m)),
        PolicyKind::Timeout => Box::new(TimeoutPolicy::new(20_000)),
        PolicyKind::TimeoutInterval(i) => Box::new(TimeoutPolicy::new(i)),
        PolicyKind::MonRsAll => Box::new(MonRsAllPolicy::new()),
        PolicyKind::MonRAll => Box::new(MonRAllPolicy::new()),
        PolicyKind::MonNrAll => Box::new(MonNrAllPolicy::new()),
        PolicyKind::MonNrOne => Box::new(MonNrOnePolicy::new()),
        PolicyKind::Awg => Box::new(AwgPolicy::new()),
        PolicyKind::MinResume => Box::new(MinResumePolicy::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awg_gpu::SyncStyle;

    #[test]
    fn labels_match_paper() {
        assert_eq!(PolicyKind::SleepMax(16_000).label(), "Sleep-16k");
        assert_eq!(PolicyKind::TimeoutInterval(50_000).label(), "Timeout-50k");
        assert_eq!(PolicyKind::Awg.label(), "AWG");
        assert_eq!(PolicyKind::MonRsAll.label(), "MonRS-All");
    }

    #[test]
    fn claims_follow_the_rescheduling_divide() {
        assert_eq!(
            PolicyKind::Baseline.progress_claim(),
            ProgressClaim::OccupancyBound
        );
        assert_eq!(
            PolicyKind::SleepMax(4_000).progress_claim(),
            ProgressClaim::OccupancyBound
        );
        for kind in [
            PolicyKind::Timeout,
            PolicyKind::MonRsAll,
            PolicyKind::MonNrOne,
            PolicyKind::Awg,
            PolicyKind::MinResume,
        ] {
            assert_eq!(kind.progress_claim(), ProgressClaim::Fair, "{kind:?}");
        }
        // The ladder is ordered: Fair ⊐ LOBE ⊐ OBE.
        assert!(ProgressClaim::Fair > ProgressClaim::LinearOccupancyBound);
        assert!(ProgressClaim::LinearOccupancyBound > ProgressClaim::OccupancyBound);
    }

    #[test]
    fn build_produces_expected_names_and_styles() {
        let cases = [
            (PolicyKind::Baseline, "Baseline", SyncStyle::Busy),
            (PolicyKind::Sleep, "Sleep", SyncStyle::WaitingAtomic),
            (PolicyKind::Timeout, "Timeout", SyncStyle::WaitingAtomic),
            (PolicyKind::MonRsAll, "MonRS-All", SyncStyle::WaitInst),
            (PolicyKind::MonRAll, "MonR-All", SyncStyle::WaitInst),
            (PolicyKind::MonNrAll, "MonNR-All", SyncStyle::WaitingAtomic),
            (PolicyKind::MonNrOne, "MonNR-One", SyncStyle::WaitingAtomic),
            (PolicyKind::Awg, "AWG", SyncStyle::WaitingAtomic),
            (PolicyKind::MinResume, "MinResume", SyncStyle::WaitingAtomic),
        ];
        for (kind, name, style) in cases {
            let p = build_policy(kind);
            assert_eq!(p.name(), name);
            assert_eq!(p.style(), style, "{name}");
        }
    }
}
