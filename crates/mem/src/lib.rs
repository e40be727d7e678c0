//! Memory-hierarchy substrate for the AWG GPU simulator.
//!
//! The paper's baseline (Table 1) is a tightly-coupled APU with write-through
//! GPU L1 caches, a shared, banked 512 KB L2 where **all atomics are
//! performed** (§V.A: "AWG relies on current GPU abilities to perform atomic
//! operations at its last level cache"), and a 4-channel DDR3 DRAM. This
//! crate models exactly those pieces:
//!
//! * [`AddressSpace`] — a bump allocator laying out sync variables and data
//!   structures in the simulated global address space,
//! * [`Backing`] — the value store (word-addressed `i64` global memory),
//! * [`atomic`] — atomic-operation semantics, including the *waiting atomic*
//!   comparison the paper adds (§IV.D),
//! * [`Cache`] — set-associative LRU caches with the per-tag *monitored* and
//!   *pinned* bits AWG adds to the L2 (§V.B),
//! * [`L2`] — the banked last-level cache with an atomic ALU per bank and
//!   bank-occupancy queuing (this is where synchronization contention
//!   becomes visible in time),
//! * [`Dram`] — the channel-interleaved memory backend.
//!
//! Timing is computed, not executed: components answer "at what cycle does
//! this access complete?", and the GPU core (crate `awg-gpu`) schedules
//! events accordingly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod atomic;
pub mod backing;
pub mod cache;
pub mod dram;
pub mod l2;

pub use addr::{Addr, AddressSpace, LINE_BYTES, WORD_BYTES};
pub use atomic::{AtomicOp, AtomicRequest, AtomicResult};
pub use backing::Backing;
pub use cache::{AccessOutcome, Cache, CacheConfig, Way};
pub use dram::{Dram, DramConfig};
pub use l2::{L2Config, L2};
