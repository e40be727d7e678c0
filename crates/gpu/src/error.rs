//! Typed errors for user-reachable simulator failures.
//!
//! Library-internal bugs still panic (they indicate a broken simulator, not
//! broken input), but everything a CLI user can trigger — malformed
//! configurations, unparsable fault plans, invariant-oracle violations —
//! surfaces as a [`SimError`] so front ends can map each class to a
//! distinct exit code instead of a backtrace.

use awg_sim::Cycle;

use crate::oracle::InvariantViolation;
use crate::watchdog::CancelCause;

/// A user-reachable simulator failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A kernel, machine, or fault-plan configuration is invalid
    /// (e.g. zero work-groups, a WG too large for any CU, a plan that
    /// unplugs a CU the machine does not have).
    Config(String),
    /// A serialized fault plan could not be parsed.
    PlanFormat(String),
    /// The invariant oracle caught the machine violating a machine-wide
    /// invariant mid-run.
    Invariant(InvariantViolation),
    /// A campaign job panicked. The sweep pool catches the panic so one bad
    /// run becomes a typed row in the report instead of killing the whole
    /// campaign.
    JobPanic {
        /// Stable key of the job that panicked (e.g. `fig14/SPM_G/AWG`).
        job: String,
        /// The panic payload, when it carried a message.
        message: String,
    },
    /// A campaign job exceeded its watchdog limit (wall-clock deadline or
    /// simulated-cycle budget). The supervisor turns wedged jobs into this
    /// typed row so the rest of the campaign can finish.
    JobTimeout {
        /// Stable key of the job that timed out.
        job: String,
        /// Simulated cycle at which the run was cancelled.
        at: Cycle,
        /// Which watchdog limit fired.
        cause: CancelCause,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(msg) => write!(f, "{msg}"),
            SimError::PlanFormat(msg) => write!(f, "fault plan parse error: {msg}"),
            SimError::Invariant(v) => write!(f, "invariant violation: {v}"),
            SimError::JobPanic { job, message } => {
                write!(f, "job '{job}' panicked: {message}")
            }
            SimError::JobTimeout { job, at, cause } => {
                write!(f, "job '{job}' timed out at cycle {at}: {cause}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::InvariantKind;

    #[test]
    fn display_is_actionable() {
        let e = SimError::Config("kernel needs at least one WG".into());
        assert_eq!(e.to_string(), "kernel needs at least one WG");
        let e = SimError::PlanFormat("expected '{'".into());
        assert!(e.to_string().contains("parse error"));
        let e = SimError::Invariant(InvariantViolation {
            at: 42,
            kind: InvariantKind::UnreachableWaiter,
            detail: "WG 3 stalled with no wake path".into(),
        });
        let text = e.to_string();
        assert!(text.contains("cycle 42"), "{text}");
        assert!(text.contains("WG 3"), "{text}");
        let e = SimError::JobPanic {
            job: "fig14/SPM_G/AWG".into(),
            message: "index out of bounds".into(),
        };
        let text = e.to_string();
        assert!(text.contains("fig14/SPM_G/AWG"), "{text}");
        assert!(text.contains("panicked"), "{text}");
        assert!(text.contains("index out of bounds"), "{text}");
    }

    #[test]
    fn timeout_displays_the_job_key() {
        let e = SimError::JobTimeout {
            job: "chaos/TB_LG/Baseline".into(),
            at: 123_456,
            cause: CancelCause::CycleBudget(100_000),
        };
        let text = e.to_string();
        assert!(text.contains("chaos/TB_LG/Baseline"), "{text}");
        assert!(text.contains("timed out at cycle 123456"), "{text}");
        assert!(text.contains("budget 100000"), "{text}");
    }
}
