//! GPU machine model and timing simulator for the AWG reproduction.
//!
//! This crate is the simulator the paper built in gem5 (§III): a
//! tightly-coupled APU with the Table 1 configuration. It executes kernel
//! programs (crate `awg-isa`) over the memory hierarchy (crate `awg-mem`)
//! with full event-driven timing, and delegates every *waiting* decision to
//! a pluggable [`SchedPolicy`] — the policy family itself (Baseline, Sleep,
//! Timeout, MonRS/MonR/MonNR, AWG) lives in crate `awg-core`.
//!
//! The machine models what the paper depends on:
//!
//! * work-group dispatch limited by per-CU wavefront/LDS/VGPR budgets,
//! * atomics performed at the banked shared L2 (contention serializes),
//! * waiting atomics and the separate `wait` instruction (with its
//!   window-of-vulnerability race, Fig 10),
//! * WG context save/restore as real DRAM traffic proportional to the
//!   context size (Fig 5),
//! * mid-kernel resource loss (the §VI oversubscribed experiment),
//! * deadlock/livelock detection so the Fig 15 "DEADLOCK" outcomes are
//!   reported rather than hanging the host.
//!
//! # Example
//!
//! ```
//! use awg_gpu::{BusyWaitPolicy, Gpu, GpuConfig, Kernel, RunOutcome, WgResources};
//! use awg_isa::{ProgramBuilder, Reg};
//!
//! // Every WG atomically increments a counter once, then halts.
//! let mut b = ProgramBuilder::new("count");
//! b.atom_add(Reg::R0, 4096u64, 1i64);
//! b.halt();
//! let kernel = Kernel::new(b.build().unwrap(), 16, WgResources::default());
//!
//! let mut gpu = Gpu::new(GpuConfig::isca2020_baseline(), kernel, Box::new(BusyWaitPolicy::new()));
//! match gpu.run() {
//!     RunOutcome::Completed(summary) => {
//!         assert_eq!(gpu.backing().load(4096), 16);
//!         assert!(summary.cycles > 0);
//!     }
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cu;
pub mod error;
pub mod fault;
pub mod hotprof;
pub mod machine;
pub mod oracle;
pub mod policy;
pub mod result;
pub mod timeline;
pub mod trace;
pub mod watchdog;
pub mod wg;

pub use config::{GpuConfig, Kernel, WgResources, CONTEXT_BASE};
pub use cu::Cu;
pub use error::SimError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, WakeChaosMode};
pub use hotprof::{HotLane, HotProfile, HotReport, EVENT_LANES, LANE_NAMES};
pub use machine::Gpu;
pub use oracle::{InvariantKind, InvariantViolation, RegistryReads};
pub use policy::{
    BusyWaitPolicy, MonitorEntrySnapshot, MonitoredUpdate, PolicyCtx, PolicyFault, SchedPolicy,
    SyncCond, SyncFail, SyncStyle, TimeoutAction, WaitDirective, WaiterRecord, WaiterStructure,
    Wake,
};
pub use result::{HangReport, RunOutcome, RunSummary, WgWaitInfo};
pub use timeline::{chrome_trace, chrome_trace_builder, expected_counts, TimelineCounts};
pub use trace::{Trace, TraceEvent, TraceFilter, TraceRecord};
pub use watchdog::{CancelCause, Watchdog};
pub use wg::{WgId, WgState};
