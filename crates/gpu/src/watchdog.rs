//! Cooperative cancellation for simulation runs.
//!
//! A campaign job that wedges — a genuine scheduler bug spinning the event
//! loop forever, or a chaos plan that strands every waiter below the
//! deadlock detector's radar — must become a typed row in the report, not a
//! hung campaign. The supervisor arms each job with a [`Watchdog`] carrying
//! a wall-clock deadline and/or a simulated-cycle budget; the machine's
//! event loop polls it and aborts the run with
//! [`RunOutcome::Cancelled`](crate::RunOutcome::Cancelled) when a limit is
//! exceeded, preserving the usual forensic hang report.

use std::cell::Cell;
use std::fmt;
use std::time::{Duration, Instant};

use awg_sim::Cycle;

/// Why a run was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// The job's host wall-clock deadline elapsed.
    WallDeadline(Duration),
    /// The job's simulated-cycle budget was exhausted.
    CycleBudget(Cycle),
}

impl fmt::Display for CancelCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelCause::WallDeadline(limit) => {
                write!(f, "wall-clock deadline {limit:.2?} exceeded")
            }
            CancelCause::CycleBudget(budget) => {
                write!(f, "simulated-cycle budget {budget} exhausted")
            }
        }
    }
}

/// How many watchdog polls elapse between (comparatively costly)
/// `Instant::now()` reads. The cycle budget is checked on every poll, a
/// handful of nanoseconds.
const WALL_POLL_PERIOD: u32 = 1024;

/// Per-run cancellation limits, polled by the machine's event loop.
///
/// An unarmed watchdog (no deadline, no budget) never fires.
#[derive(Debug, Clone)]
pub struct Watchdog {
    wall_limit: Option<Duration>,
    deadline: Option<Instant>,
    cycle_budget: Option<Cycle>,
    polls: Cell<u32>,
}

impl Watchdog {
    /// A watchdog with the given wall-clock and simulated-cycle limits.
    /// The wall-clock deadline starts counting immediately.
    pub fn new(wall_limit: Option<Duration>, cycle_budget: Option<Cycle>) -> Self {
        Watchdog {
            wall_limit,
            deadline: wall_limit.map(|d| Instant::now() + d),
            cycle_budget,
            polls: Cell::new(0),
        }
    }

    /// A watchdog with no deadline and no budget: it never fires.
    pub fn unarmed() -> Self {
        Watchdog::new(None, None)
    }

    /// The simulated-cycle budget this watchdog enforces, if any.
    pub fn cycle_budget(&self) -> Option<Cycle> {
        self.cycle_budget
    }

    /// The wall-clock limit this watchdog enforces, if any.
    pub fn wall_limit(&self) -> Option<Duration> {
        self.wall_limit
    }

    /// Polls the watchdog at simulated time `cycle`. Returns the cancel
    /// cause when a limit is exceeded.
    ///
    /// Cheap by construction: the cycle comparison runs on every call;
    /// `Instant::now()` only every `WALL_POLL_PERIOD` (1024) calls.
    pub fn check(&self, cycle: Cycle) -> Option<CancelCause> {
        if let Some(budget) = self.cycle_budget {
            if cycle > budget {
                return Some(CancelCause::CycleBudget(budget));
            }
        }
        let polls = self.polls.get().wrapping_add(1);
        self.polls.set(polls);
        if polls.is_multiple_of(WALL_POLL_PERIOD) {
            if let (Some(deadline), Some(limit)) = (self.deadline, self.wall_limit) {
                if Instant::now() >= deadline {
                    return Some(CancelCause::WallDeadline(limit));
                }
            }
        }
        None
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::unarmed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_watchdog_never_fires() {
        let wd = Watchdog::unarmed();
        for cycle in [0, 1_000_000, u64::MAX] {
            assert_eq!(wd.check(cycle), None);
        }
    }

    #[test]
    fn cycle_budget_fires_past_the_budget() {
        let wd = Watchdog::new(None, Some(500));
        assert_eq!(wd.check(0), None);
        assert_eq!(wd.check(500), None, "the budget cycle itself is allowed");
        assert_eq!(wd.check(501), Some(CancelCause::CycleBudget(500)));
    }

    #[test]
    fn zero_wall_deadline_fires_within_a_poll_period() {
        let wd = Watchdog::new(Some(Duration::ZERO), None);
        let mut fired = None;
        for _ in 0..=WALL_POLL_PERIOD {
            if let Some(cause) = wd.check(1) {
                fired = Some(cause);
                break;
            }
        }
        assert_eq!(fired, Some(CancelCause::WallDeadline(Duration::ZERO)));
    }

    #[test]
    fn causes_display_their_limits() {
        let wall = CancelCause::WallDeadline(Duration::from_secs(30)).to_string();
        assert!(wall.contains("30"), "{wall}");
        let budget = CancelCause::CycleBudget(1_000_000).to_string();
        assert!(budget.contains("1000000"), "{budget}");
    }
}
