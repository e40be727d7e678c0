//! Host-load correction for the end-to-end times.
//!
//! Other tenants of a shared host slow every run down, by 1.3–2× for
//! minutes at a time, and no amount of repetition inside one run removes
//! a slowdown that lasts longer than the run. So between runs the
//! benchmark times a fixed reference computation, the probe, and divides
//! each run's host time by how much slower than [`REFERENCE_S`] the probe
//! ran around it, to the power [`SENSITIVITY`]. The probe is a miniature
//! event loop — a binary heap of timed events over a 1 MiB table, with
//! data-dependent branches — so load slows it when it slows the
//! simulator's own event loop, though less. It is the
//! benchmark's code, not the simulator's: a change to the simulator
//! cannot speed it up, and a faster simulator reads faster.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Table words (1 MiB).
const TABLE: usize = 1 << 17;

/// Events in flight.
const EVENTS: u32 = 4096;

/// Events popped and rescheduled per sub-chunk.
const STEPS: usize = 1500;

/// Sub-chunks per reading; the reading is their minimum, so a single
/// preemption does not count as load.
const SUBCHUNKS: usize = 3;

/// A reading on a lightly loaded host (an Intel Xeon vCPU): corrected
/// times are host times as they would read at this probe speed.
pub const REFERENCE_S: f64 = 150e-6;

/// How much harder load hits the simulator than the probe: a run's host
/// time is divided by the probe's slowdown raised to this power. Measured
/// on a shared 2-vCPU Xeon host, where, under the same load, the
/// simulator's slowdown was the probe's to a power of about 2 on `paper`
/// and about 1–1.3 on `checked`. 1.5 kept both workloads' corrected
/// `wall_s` within 8% of its unloaded level at a probe slowdown of 1.25;
/// 1 let `paper` drift 19%.
pub const SENSITIVITY: f64 = 1.5;

/// Least host time between two readings, so the probe costs a few
/// percent of a run.
pub const READ_EVERY: Duration = Duration::from_millis(10);

/// The reference computation and its state.
pub struct Probe {
    table: Vec<u64>,
    events: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A probe with its table and event heap filled.
    pub fn new() -> Self {
        Probe {
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            events: (0..EVENTS).map(|i| Reverse((u64::from(i), i))).collect(),
        }
    }

    fn sub_chunk(&mut self) {
        for _ in 0..STEPS {
            let Some(Reverse((when, id))) = self.events.pop() else {
                unreachable!("the heap keeps EVENTS entries");
            };
            let slot = ((id as usize).wrapping_mul(2_654_435_761) ^ when as usize) & (TABLE - 1);
            let v = self.table[slot];
            let delay = match v % 8 {
                0 => 1,
                1 => v & 15,
                2 => (v >> 3) % 97,
                3 => {
                    self.table[slot] = v.rotate_left(7) ^ when;
                    4
                }
                4 => 2 + 298 * (when & 1),
                5 => {
                    self.table[(slot + 64) & (TABLE - 1)] ^= v;
                    5000
                }
                6 => u64::from(v.count_ones()) * 3,
                _ => {
                    self.table[slot] = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    17
                }
            };
            self.events.push(Reverse((when + delay, id)));
        }
        black_box(&self.table);
    }

    /// Host seconds of one reading: the fastest of a few fixed sub-chunks.
    pub fn read(&mut self) -> f64 {
        (0..SUBCHUNKS)
            .map(|_| {
                let start = Instant::now();
                self.sub_chunk();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}
