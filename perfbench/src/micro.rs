//! Layer microbenchmarks, called through each crate's public API and
//! sized from the workload's own counts. Each reports the minimum over
//! [`REPS`] repetitions: on a small, shared host the minimum is the
//! sample least disturbed by other tenants.

use std::hint::black_box;
use std::time::{Duration, Instant};

use awg_core::{SyncMon, SyncMonConfig};
use awg_gpu::{Gpu, SyncCond, CONTEXT_BASE};
use awg_mem::{AtomicOp, AtomicRequest, L2Config, L2, LINE_BYTES};
use awg_sim::{EventQueue, SplitMix64};
use awg_workloads::BenchmarkKind;

/// Repetitions per microbenchmark.
pub const REPS: usize = 7;

/// Per-run means of the workload's counts, which size each microbenchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sizes {
    /// Events popped per run.
    pub events: u64,
    /// Largest calendar population seen.
    pub calendar_high_water: u64,
    /// L2 atomics per run.
    pub l2_atomics: u64,
    /// L2 reads per run.
    pub l2_reads: u64,
    /// L2 writes per run.
    pub l2_writes: u64,
    /// Context switches per run.
    pub switches: u64,
    /// Wakes per run.
    pub resumes: u64,
}

/// Microbenchmark results.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    /// `EventQueue::schedule` + `pop`, ns per event.
    pub calendar_ns_per_event: f64,
    /// `L2::atomic` on one contended line, ns per atomic.
    pub l2_atomic_ns: f64,
    /// `L2::read`, ns per read.
    pub l2_read_ns: f64,
    /// `L2::write`, ns per write.
    pub l2_write_ns: f64,
    /// `L2::context_burst` at the suite's context sizes, ns per KB moved.
    pub context_burst_ns_per_kb: f64,
    /// `SyncMon::register`, ns per registration.
    pub syncmon_register_ns: f64,
    /// `SyncMon::conditions_met` + `take_waiters` on a hit, ns per notify.
    pub syncmon_notify_ns: f64,
    /// `Gpu::digest` of a finished machine, µs per digest.
    pub digest_us: f64,
}

fn min_ns_per_op(ops: u64, mut rep: impl FnMut() -> Duration) -> f64 {
    let best = (0..REPS).map(|_| rep()).min().expect("REPS > 0");
    best.as_nanos() as f64 / ops.max(1) as f64
}

/// Delay mix of the calendar benchmark: a fifth same-cycle, most within
/// the 4096-cycle wheel, a tenth in the overflow tier.
fn delay(rng: &mut SplitMix64) -> u64 {
    let r = rng.next_u64();
    match r % 100 {
        0..=19 => 0,
        20..=89 => 1 + (r >> 8) % 4095,
        _ => 4096 + (r >> 8) % 60_000,
    }
}

/// Steady-state `schedule` + `pop` at the workload's calendar population.
fn calendar(population: u64, ops: u64) -> f64 {
    min_ns_per_op(ops, || {
        let mut rng = SplitMix64::new(0xca1e);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..population {
            q.schedule(delay(&mut rng), i);
        }
        let start = Instant::now();
        for _ in 0..ops {
            let (now, e) = q.pop().expect("population is replenished every pop");
            q.schedule(now + delay(&mut rng), black_box(e));
        }
        start.elapsed()
    })
}

fn atomic_on_one_line(ops: u64) -> f64 {
    min_ns_per_op(ops, || {
        let mut l2 = L2::new(L2Config::isca2020());
        let req = AtomicRequest {
            op: AtomicOp::Add,
            addr: 0x4000,
            operand: 1,
            expected: None,
        };
        let start = Instant::now();
        for now in 0..ops {
            black_box(l2.atomic(now, black_box(req)));
        }
        start.elapsed()
    })
}

/// Word addresses cycling through a 4096-line working set.
fn working_set_addr(i: u64) -> u64 {
    0x10_0000 + (i % 4096) * LINE_BYTES
}

fn reads(ops: u64) -> f64 {
    min_ns_per_op(ops, || {
        let mut l2 = L2::new(L2Config::isca2020());
        let start = Instant::now();
        for i in 0..ops {
            black_box(l2.read(i, working_set_addr(i)));
        }
        start.elapsed()
    })
}

fn writes(ops: u64) -> f64 {
    min_ns_per_op(ops, || {
        let mut l2 = L2::new(L2Config::isca2020());
        let start = Instant::now();
        for i in 0..ops {
            black_box(l2.write(i, working_set_addr(i), i as i64));
        }
        start.elapsed()
    })
}

/// Context save/restore bursts at every distinct suite context size
/// (Fig 5's 2–10 KB), ns per KB moved.
fn context_burst(rounds: u64) -> f64 {
    let mut sizes: Vec<u64> = BenchmarkKind::all()
        .iter()
        .map(|k| k.resources().context_bytes(64))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    let kb_per_round: f64 = sizes.iter().map(|&b| b as f64 / 1024.0).sum();
    let ns_per_round = min_ns_per_op(rounds, || {
        let mut l2 = L2::new(L2Config::isca2020());
        let mut now = 0;
        let start = Instant::now();
        for _ in 0..rounds {
            for &bytes in &sizes {
                now = l2.context_burst(now, CONTEXT_BASE, bytes.div_ceil(LINE_BYTES));
            }
        }
        black_box(now);
        start.elapsed()
    });
    ns_per_round / kb_per_round
}

/// `SyncMon::register` for a batch of waiters, then a met notification
/// (`conditions_met` + `take_waiters`) for each. Returns ns per register
/// and ns per notify.
fn syncmon(ops: u64) -> (f64, f64) {
    let config = SyncMonConfig::isca2020();
    let batch = (config.condition_capacity() as u64 / 2).clamp(1, 64);
    let rounds = ops.div_ceil(batch);
    let cond = |j: u64| SyncCond {
        addr: 0x8000 + j * LINE_BYTES,
        expected: 1,
    };
    let mut register = Duration::MAX;
    let mut notify = Duration::MAX;
    for _ in 0..REPS {
        let mut mon = SyncMon::new(config);
        let (mut reg, mut met) = (Duration::ZERO, Duration::ZERO);
        for round in 0..rounds {
            let start = Instant::now();
            for j in 0..batch {
                black_box(mon.register(cond(j), j as u32, round));
            }
            let mid = Instant::now();
            for j in 0..batch {
                let c = cond(j);
                for hit in mon.conditions_met(c.addr, c.expected) {
                    black_box(mon.take_waiters(&hit, usize::MAX));
                }
            }
            met += mid.elapsed();
            reg += mid - start;
        }
        register = register.min(reg);
        notify = notify.min(met);
    }
    let n = (rounds * batch) as f64;
    (register.as_nanos() as f64 / n, notify.as_nanos() as f64 / n)
}

fn digest(gpu: &Gpu) -> f64 {
    let calls = 200;
    min_ns_per_op(calls, || {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(gpu.digest());
        }
        start.elapsed()
    }) / 1000.0
}

/// Runs every microbenchmark, sized from `sizes`, with `gpu` a machine
/// the workload finished.
pub fn run_all(sizes: &Sizes, gpu: &Gpu) -> Micro {
    let (syncmon_register_ns, syncmon_notify_ns) = syncmon(sizes.resumes.clamp(4_096, 65_536));
    Micro {
        calendar_ns_per_event: calendar(
            sizes.calendar_high_water.clamp(16, 65_536),
            sizes.events.clamp(20_000, 200_000),
        ),
        l2_atomic_ns: atomic_on_one_line(sizes.l2_atomics.clamp(10_000, 100_000)),
        l2_read_ns: reads(sizes.l2_reads.clamp(10_000, 100_000)),
        l2_write_ns: writes(sizes.l2_writes.clamp(10_000, 100_000)),
        context_burst_ns_per_kb: context_burst(sizes.switches.clamp(100, 2_000)),
        syncmon_register_ns,
        syncmon_notify_ns,
        digest_us: digest(gpu),
    }
}
