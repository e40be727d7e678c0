//! Work-group contexts and the WG state machine.

use awg_isa::RegFile;
use awg_mem::Addr;
use awg_sim::Cycle;

use crate::policy::{SyncCond, WaitDirective};

/// A work-group identifier (flat index within the grid).
pub type WgId = u32;

/// The WG scheduling states tracked by the CP (§V.A: "stalled, context
/// switching out, waiting, ready, or context switching in").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WgState {
    /// Not yet dispatched.
    Pending,
    /// Resources reserved, dispatch latency in flight.
    Dispatching,
    /// Resident and executing (or blocked on an in-flight memory op).
    Running,
    /// Resident but idle for a software-visible duration (`s_sleep`,
    /// backoff, Timeout's non-oversubscribed stall).
    Sleeping,
    /// Resident, waiting on a synchronization condition while holding its
    /// resources.
    Stalled,
    /// Context save traffic in flight.
    SwappingOut,
    /// Context switched out, still waiting on its condition.
    SwappedWaiting,
    /// Context switched out and eligible to be swapped back in.
    ReadySwapped,
    /// Context restore traffic in flight.
    SwappingIn,
    /// Halted.
    Finished,
}

impl WgState {
    /// All states, in census order.
    pub const ALL: [WgState; 10] = [
        WgState::Pending,
        WgState::Dispatching,
        WgState::Running,
        WgState::Sleeping,
        WgState::Stalled,
        WgState::SwappingOut,
        WgState::SwappedWaiting,
        WgState::ReadySwapped,
        WgState::SwappingIn,
        WgState::Finished,
    ];

    /// This state's position in [`ALL`](Self::ALL) — the row index used by
    /// the machine's struct-of-arrays state census. A direct match, not a linear search: the census is
    /// updated on every WG transition, squarely on the wake/dispatch path.
    pub(crate) fn census_index(self) -> usize {
        match self {
            WgState::Pending => 0,
            WgState::Dispatching => 1,
            WgState::Running => 2,
            WgState::Sleeping => 3,
            WgState::Stalled => 4,
            WgState::SwappingOut => 5,
            WgState::SwappedWaiting => 6,
            WgState::ReadySwapped => 7,
            WgState::SwappingIn => 8,
            WgState::Finished => 9,
        }
    }

    /// Whether the WG currently holds CU resources.
    pub fn is_resident(self) -> bool {
        matches!(
            self,
            WgState::Dispatching
                | WgState::Running
                | WgState::Sleeping
                | WgState::Stalled
                | WgState::SwappingOut
        )
    }

    /// Whether the WG counts as *waiting* for the Fig 11 breakdown.
    pub fn is_waiting(self) -> bool {
        matches!(
            self,
            WgState::Sleeping
                | WgState::Stalled
                | WgState::SwappingOut
                | WgState::SwappedWaiting
                | WgState::ReadySwapped
                | WgState::SwappingIn
        )
    }

    /// The telemetry-level accounting class for this state.
    ///
    /// Collapses the CP's internal distinctions into the coarser classes
    /// the telemetry hub reports time-in-state for.
    pub fn progress_class(self) -> awg_sim::telemetry::ProgressState {
        use awg_sim::telemetry::ProgressState;
        match self {
            WgState::Pending | WgState::Dispatching => ProgressState::Queued,
            WgState::Running => ProgressState::Running,
            WgState::Stalled => ProgressState::Stalled,
            WgState::Sleeping => ProgressState::Sleeping,
            WgState::SwappingOut => ProgressState::SwapOut,
            WgState::SwappedWaiting | WgState::ReadySwapped => ProgressState::SwappedOut,
            WgState::SwappingIn => ProgressState::SwapIn,
            WgState::Finished => ProgressState::Finished,
        }
    }
}

/// The response of a completed sync-sensitive operation, parked until the
/// WG is allowed to observe it (Mesa semantics: the program rechecks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkedResponse {
    /// Destination register, if any (`wait` instructions have none).
    pub dst: Option<awg_isa::Reg>,
    /// Value to deliver.
    pub value: i64,
}

/// One work-group's full simulation context.
#[derive(Debug)]
pub struct Wg {
    /// Flat id.
    pub id: WgId,
    /// Scheduling state.
    pub state: WgState,
    /// CU the WG is resident on, when resident.
    pub cu: Option<usize>,
    /// Program counter.
    pub pc: usize,
    /// Architectural registers.
    pub regs: RegFile,
    /// Event-staleness token: bumped whenever the WG changes state so that
    /// in-flight events for the old state are ignored.
    pub token: u64,
    /// Parked response to deliver on wake.
    pub parked: Option<ParkedResponse>,
    /// Condition the WG is waiting on, when waiting.
    pub cond: Option<SyncCond>,
    /// Policy directive to apply when the in-flight sync response arrives.
    pub pending_directive: Option<WaitDirective>,
    /// Absolute deadline of the current fallback timeout, if any (kept so a
    /// forced context switch can re-arm the timeout after the transition).
    pub timeout_at: Option<Cycle>,
    /// A wake arrived while the WG was mid-swap-out; it becomes ready as
    /// soon as the save completes.
    pub woke: bool,
    /// The resource-loss event wants this WG preempted as soon as its
    /// in-flight operation completes.
    pub force_out: bool,
    /// Cycle the WG was first dispatched.
    pub dispatched_at: Option<Cycle>,
    /// Cycle the WG finished.
    pub finished_at: Option<Cycle>,
    /// Cycle the current waiting episode began.
    pub wait_since: Option<Cycle>,
    /// Accumulated cycles in waiting states.
    pub waiting_cycles: u64,
    /// Dynamic instruction count.
    pub insts: u64,
    /// Dynamic atomic instruction count (the Fig 9 metric).
    pub atomics: u64,
    /// Number of context switches out.
    pub switches_out: u32,
    /// A wake was delivered and the next sync check has not yet succeeded
    /// (used to count unnecessary resumes).
    pub wake_pending_check: bool,
    /// Address of the most recent atomic (spin detection for busy-wait
    /// architectures that never declare a wait condition).
    pub last_atomic: Option<Addr>,
    /// Consecutive atomics issued to `last_atomic`.
    pub atomic_streak: u64,
    /// The WG's current off-CU episode was forced by an injected fault
    /// (CU loss) rather than chosen by the scheduler. Cleared on the next
    /// return to `Running`; drives the telemetry attribution ledger's
    /// fault-stall vs. preempted split.
    pub fault_evicted: bool,
}

impl Wg {
    /// Creates a pending WG.
    pub fn new(id: WgId) -> Self {
        Wg {
            id,
            state: WgState::Pending,
            cu: None,
            pc: 0,
            regs: RegFile::new(),
            token: 0,
            parked: None,
            cond: None,
            pending_directive: None,
            timeout_at: None,
            woke: false,
            force_out: false,
            dispatched_at: None,
            finished_at: None,
            wait_since: None,
            waiting_cycles: 0,
            insts: 0,
            atomics: 0,
            switches_out: 0,
            wake_pending_check: false,
            last_atomic: None,
            atomic_streak: 0,
            fault_evicted: false,
        }
    }

    /// Bumps the staleness token and returns the new value.
    pub fn bump_token(&mut self) -> u64 {
        self.token += 1;
        self.token
    }

    /// Transitions to `state`, maintaining the waiting-time accounting.
    pub fn set_state(&mut self, state: WgState, now: Cycle) {
        let was_waiting = self.state.is_waiting();
        let is_waiting = state.is_waiting();
        if !was_waiting && is_waiting {
            self.wait_since = Some(now);
        } else if was_waiting && !is_waiting {
            if let Some(since) = self.wait_since.take() {
                self.waiting_cycles += now - since;
            }
        }
        self.state = state;
    }

    /// Total cycles between dispatch and finish (or `now` if unfinished).
    pub fn lifetime(&self, now: Cycle) -> u64 {
        match (self.dispatched_at, self.finished_at) {
            (Some(d), Some(f)) => f - d,
            (Some(d), None) => now - d,
            _ => 0,
        }
    }

    /// Cycles spent running (lifetime minus waiting).
    pub fn running_cycles(&self, now: Cycle) -> u64 {
        let waiting = self.waiting_cycles + self.wait_since.map_or(0, |s| now.saturating_sub(s));
        self.lifetime(now).saturating_sub(waiting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_classification() {
        assert!(WgState::Running.is_resident());
        assert!(WgState::Stalled.is_resident());
        assert!(WgState::SwappingOut.is_resident());
        assert!(!WgState::SwappedWaiting.is_resident());
        assert!(!WgState::Pending.is_resident());
        assert!(!WgState::Finished.is_resident());
    }

    #[test]
    fn waiting_classification() {
        assert!(WgState::Stalled.is_waiting());
        assert!(WgState::Sleeping.is_waiting());
        assert!(WgState::SwappedWaiting.is_waiting());
        assert!(!WgState::Running.is_waiting());
        assert!(!WgState::Pending.is_waiting());
    }

    #[test]
    fn waiting_accounting_across_transitions() {
        let mut wg = Wg::new(0);
        wg.dispatched_at = Some(100);
        wg.set_state(WgState::Running, 100);
        wg.set_state(WgState::Stalled, 200);
        wg.set_state(WgState::Running, 500);
        wg.set_state(WgState::Finished, 700);
        wg.finished_at = Some(700);
        assert_eq!(wg.waiting_cycles, 300);
        assert_eq!(wg.lifetime(700), 600);
        assert_eq!(wg.running_cycles(700), 300);
    }

    #[test]
    fn waiting_chain_counts_once() {
        let mut wg = Wg::new(0);
        wg.dispatched_at = Some(0);
        wg.set_state(WgState::Running, 0);
        wg.set_state(WgState::Stalled, 100);
        // Stalled -> SwappingOut -> SwappedWaiting are all waiting states;
        // the episode must be accounted exactly once.
        wg.set_state(WgState::SwappingOut, 150);
        wg.set_state(WgState::SwappedWaiting, 300);
        wg.set_state(WgState::ReadySwapped, 400);
        wg.set_state(WgState::SwappingIn, 450);
        wg.set_state(WgState::Running, 600);
        assert_eq!(wg.waiting_cycles, 500);
    }

    #[test]
    fn token_invalidates_monotonically() {
        let mut wg = Wg::new(0);
        let a = wg.bump_token();
        let b = wg.bump_token();
        assert!(b > a);
    }

    #[test]
    fn unfinished_running_cycles_use_now() {
        let mut wg = Wg::new(0);
        wg.dispatched_at = Some(0);
        wg.set_state(WgState::Running, 0);
        wg.set_state(WgState::Stalled, 60);
        assert_eq!(wg.running_cycles(100), 60);
        assert_eq!(wg.lifetime(100), 100);
    }
}
