//! Deterministic discrete-event simulation engine for the AWG GPU simulator.
//!
//! This crate is the lowest layer of the reproduction of *Independent Forward
//! Progress of Work-groups* (ISCA 2020). It provides:
//!
//! * [`EventQueue`] — a deterministic, tie-break-stable priority queue of
//!   timed events (the heart of the simulator's main loop),
//! * [`Stats`] — a registry of named counters, distributions and log₂
//!   histograms used by every other crate to record measurements,
//! * [`rng`] — a small, dependency-free deterministic PRNG
//!   (SplitMix64 / Xoshiro256**) so that identical seeds produce
//!   bit-identical simulations,
//! * [`Ewma`] — the exponentially-weighted moving average used by AWG's
//!   stall-time predictor (§IV.B of the paper),
//! * [`Fingerprint64`] — an order-sensitive state hasher for the
//!   machine-layer digests the determinism harness compares,
//! * [`FastMap`] — a `HashMap` under an unkeyed multiply-rotate hasher
//!   for the hot-path maps keyed by addresses and WG ids,
//! * cycle/time conversion helpers for the paper's 2 GHz baseline clock.
//!
//! # Example
//!
//! ```
//! use awg_sim::EventQueue;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick, Tock }
//!
//! let mut q = EventQueue::new();
//! q.schedule(10, Ev::Tock);
//! q.schedule(5, Ev::Tick);
//! assert_eq!(q.pop(), Some((5, Ev::Tick)));
//! assert_eq!(q.pop(), Some((10, Ev::Tock)));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod ewma;
pub mod fasthash;
pub mod fingerprint;
pub mod json;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use event::EventQueue;
pub use ewma::Ewma;
pub use fasthash::{FastHasher, FastMap};
pub use fingerprint::{first_divergence, Fingerprint64};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{CounterId, DistId, DistSummary, HistId, Stats};
pub use telemetry::{
    AttributionCause, MetricSnapshot, ProfileReport, ProgressState, SnapshotSample, Subsystem,
    TelemetryConfig, TelemetryHub, ATTRIBUTION_CAUSES,
};
pub use time::{cycles_to_ns, cycles_to_us, us_to_cycles, Cycle, BASELINE_CLOCK_GHZ};
