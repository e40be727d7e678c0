//! Work-stealing job pool for sweep campaigns.
//!
//! Every figure in the paper is a sweep over (benchmark × policy × seed)
//! triples; each triple is an independent, deterministic simulation. This
//! module runs those triples as jobs on a pool of std threads — no external
//! dependencies — with three guarantees the campaigns rely on:
//!
//! 1. **Deterministic merge.** Jobs carry stable keys (their enumeration
//!    order); the merge sorts results by key, so a campaign's report — and
//!    hence its CSV — is byte-identical to the serial run regardless of
//!    `--jobs` and of which worker ran which job.
//! 2. **Panic isolation.** A panicking job becomes a typed
//!    [`SimError::JobPanic`] result instead of killing the whole campaign;
//!    the remaining jobs still run and merge.
//! 3. **No shared simulator state.** Each job builds its own policy,
//!    kernel, and [`Gpu`](awg_gpu::Gpu), so a run's `Fingerprint64` digest
//!    trail and invariant-oracle verdict are identical whether it executed
//!    on one worker or sixteen.
//!
//! Campaigns submit through the [`Supervisor`](crate::supervisor::Supervisor),
//! which adds a per-job watchdog, an optional job journal for `--resume`,
//! and a count of the jobs that panicked or timed out.
//!
//! Scheduling is work-stealing: jobs are dealt round-robin into per-worker
//! deques; a worker pops from the front of its own deque and, when empty,
//! steals from the back of its neighbours'. Campaign cells have wildly
//! different costs (a deadlock detection runs ~600k cycles of spinning;
//! a Fig 5 row is pure arithmetic), so stealing keeps all cores busy
//! without any cost model.
//!
//! # Example
//!
//! ```
//! use awg_harness::pool::{self, Pool};
//!
//! let pool = Pool::new(4);
//! let outputs = pool.run(vec![
//!     pool::job("double/21", || 21 * 2),
//!     pool::job("double/0", || 0),
//! ]);
//! // Results come back in job order, not completion order.
//! assert_eq!(*outputs[0].result.as_ref().unwrap(), 42);
//! assert_eq!(outputs[0].key, "double/21");
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use awg_gpu::SimError;
use awg_sim::Stats;

use crate::report::Cell;
use crate::run::ExpResult;

/// A boxed campaign task: one independent simulation (or computation).
pub type Task<'scope, T> = Box<dyn FnOnce() -> T + Send + 'scope>;

/// A worker's deque of `(enumeration index, job)` pairs.
type JobQueue<'scope, T> = Mutex<VecDeque<(usize, Job<'scope, T>)>>;

/// One keyed unit of campaign work.
pub struct Job<'scope, T> {
    key: String,
    task: Task<'scope, T>,
}

/// Creates a [`Job`] with a stable key.
///
/// The key names the job in panic rows and per-job timing reports; result
/// *ordering* is by enumeration position, so two distinct jobs may share a
/// key without ambiguity in the merge.
pub fn job<'scope, T>(
    key: impl Into<String>,
    task: impl FnOnce() -> T + Send + 'scope,
) -> Job<'scope, T> {
    Job {
        key: key.into(),
        task: Box::new(task),
    }
}

/// The outcome of one job: its key, host wall-clock, and either the task's
/// value or the typed panic.
#[derive(Debug)]
pub struct JobOutput<T> {
    /// The job's stable key.
    pub key: String,
    /// Host wall-clock the job took on its worker.
    pub wall: Duration,
    /// The task's value, or [`SimError::JobPanic`] if it panicked.
    pub result: Result<T, SimError>,
}

/// Renders a failed job as a report cell (the typed `JobPanic` row).
pub fn error_cell(e: &SimError) -> Cell {
    Cell::Text(format!("ERROR: {e}"))
}

/// A bounded-concurrency job pool.
///
/// `jobs == 1` is the serial path: tasks run inline on the caller's thread,
/// in order, with the same panic isolation and output type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool running at most `jobs` tasks concurrently (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        Pool { jobs: jobs.max(1) }
    }

    /// The serial pool: tasks run inline, in order.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// A pool sized to the host (`std::thread::available_parallelism`),
    /// falling back to serial when the host won't say.
    pub fn auto() -> Self {
        Pool::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Maximum concurrency of this pool.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every job and returns the outputs **in job order** (the stable
    /// keys are the enumeration positions; the merge sorts by them).
    ///
    /// A panicking job yields `Err(SimError::JobPanic)` in its slot; the
    /// remaining jobs are unaffected.
    pub fn run<'scope, T: Send>(&self, jobs: Vec<Job<'scope, T>>) -> Vec<JobOutput<T>> {
        let n = jobs.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return jobs.into_iter().map(execute).collect();
        }

        // Deal jobs round-robin into per-worker deques. Workers pop their
        // own front (cache-warm, in enumeration order) and steal from a
        // neighbour's back when idle.
        let queues: Vec<JobQueue<'scope, T>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (index, job) in jobs.into_iter().enumerate() {
            queues[index % workers]
                .lock()
                .expect("job queue poisoned")
                .push_back((index, job));
        }

        let (tx, rx) = mpsc::channel::<(usize, JobOutput<T>)>();
        let queues = &queues;
        let mut slots: Vec<Option<JobOutput<T>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            for me in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    // Pop the own queue in a statement of its own: its guard
                    // must drop before a neighbour's lock is taken, or two
                    // idle workers stealing from each other deadlock.
                    let own = queues[me].lock().expect("job queue poisoned").pop_front();
                    let claimed = own.or_else(|| {
                        (1..workers).find_map(|d| {
                            queues[(me + d) % workers]
                                .lock()
                                .expect("job queue poisoned")
                                .pop_back()
                        })
                    });
                    let Some((index, job)) = claimed else { break };
                    if tx.send((index, execute(job))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Collect inside the scope so result reception overlaps
            // execution; the channel closes when the last worker exits.
            for (index, output) in rx {
                slots[index] = Some(output);
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every claimed job reports exactly once"))
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::auto()
    }
}

fn execute<T>(job: Job<'_, T>) -> JobOutput<T> {
    let Job { key, task } = job;
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(task)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        SimError::JobPanic {
            job: key.clone(),
            message,
        }
    });
    JobOutput {
        key,
        wall: start.elapsed(),
        result,
    }
}

/// Aggregate host-side accounting for a campaign: per-job wall-clock plus
/// the telemetry hub's self-profile, absorbed across workers with the
/// existing [`Stats::absorb`] (bucketwise, name-sorted, so the merged
/// registry is independent of worker scheduling).
#[derive(Debug, Clone, Default)]
pub struct CampaignProfile {
    /// `(key, wall)` per job, in job order.
    pub timings: Vec<(String, Duration)>,
    /// Simulated cycles summed over jobs that carried a self-profile.
    pub sim_cycles: u64,
    /// Host wall-clock summed over the jobs' self-profiles.
    pub profiled_wall: Duration,
    /// Events handled, summed over the jobs' self-profiles.
    pub events: u64,
    /// Every job's run-level [`Stats`] registry, absorbed.
    pub stats: Stats,
}

impl CampaignProfile {
    /// Folds one job's timing and (when present) self-profile into the
    /// campaign totals.
    pub fn absorb_job(&mut self, output: &JobOutput<ExpResult>) {
        self.timings.push((output.key.clone(), output.wall));
        let Ok(res) = &output.result else { return };
        if let Some(p) = &res.profile {
            self.sim_cycles += p.sim_cycles;
            self.profiled_wall += p.total_wall;
            self.events += p.events;
        }
        self.stats.absorb(&res.outcome.summary().stats);
    }

    /// Sum of all per-job wall-clocks (CPU time, not elapsed time).
    pub fn total_wall(&self) -> Duration {
        self.timings.iter().map(|&(_, w)| w).sum()
    }

    /// Aggregate simulated cycles per host-second across the campaign's
    /// self-profiled jobs (0.0 when nothing was profiled).
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.profiled_wall.as_secs_f64();
        if secs > 0.0 {
            self.sim_cycles as f64 / secs
        } else {
            0.0
        }
    }

    /// Aggregate events per host-second (0.0 when nothing was profiled).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.profiled_wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }

    /// One-line summary for the CLI's stderr reporting.
    pub fn summary_line(&self, workers: usize) -> String {
        format!(
            "{} job(s) on {} worker(s): {:.2?} total job wall-clock{}",
            self.timings.len(),
            workers,
            self.total_wall(),
            if self.sim_cycles > 0 {
                format!(
                    ", {} simulated cycles at {:.2} Mcycles/s aggregate ({:.0} events/s)",
                    self.sim_cycles,
                    self.cycles_per_sec() / 1e6,
                    self.events_per_sec()
                )
            } else {
                String::new()
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_come_back_in_job_order() {
        let pool = Pool::new(4);
        // Uneven costs force out-of-order completion; the merge re-sorts.
        let jobs: Vec<Job<'_, usize>> = (0..32)
            .map(|i| {
                job(format!("j{i}"), move || {
                    if i % 3 == 0 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    i * i
                })
            })
            .collect();
        let outputs = pool.run(jobs);
        assert_eq!(outputs.len(), 32);
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(out.key, format!("j{i}"));
            assert_eq!(*out.result.as_ref().unwrap(), i * i);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let tasks = || {
            (0..17)
                .map(|i| job(format!("t{i}"), move || i * 7))
                .collect()
        };
        let serial: Vec<i32> = Pool::serial()
            .run(tasks())
            .into_iter()
            .map(|o| o.result.unwrap())
            .collect();
        let parallel: Vec<i32> = Pool::new(8)
            .run(tasks())
            .into_iter()
            .map(|o| o.result.unwrap())
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let outputs: Vec<JobOutput<u8>> = Pool::new(8).run(Vec::new());
        assert!(outputs.is_empty());
    }

    #[test]
    fn panicking_job_is_isolated() {
        let pool = Pool::new(2);
        let outputs = pool.run(vec![
            job("fine", || 1u32),
            job("boom", || panic!("deliberate pool test panic")),
            job("also-fine", || 3u32),
        ]);
        assert_eq!(*outputs[0].result.as_ref().unwrap(), 1);
        match &outputs[1].result {
            Err(SimError::JobPanic { job, message }) => {
                assert_eq!(job, "boom");
                assert!(message.contains("deliberate"), "{message}");
            }
            other => panic!("expected JobPanic, got {other:?}"),
        }
        assert_eq!(*outputs[2].result.as_ref().unwrap(), 3);
    }

    #[test]
    fn error_cell_renders_typed_panic() {
        let e = SimError::JobPanic {
            job: "fig14/SPM_G/AWG".into(),
            message: "index out of bounds".into(),
        };
        match error_cell(&e) {
            Cell::Text(t) => {
                assert!(t.starts_with("ERROR: "), "{t}");
                assert!(t.contains("fig14/SPM_G/AWG"), "{t}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Regression: idle workers stealing from each other must not deadlock.
    /// Each pool's jobs meet at a barrier, so all workers go idle and start
    /// stealing at once. The pools run on a helper thread so a deadlock
    /// fails the test at the deadline instead of hanging the suite.
    #[test]
    fn idle_workers_stealing_at_once_never_deadlock() {
        const WORKERS: usize = 4;
        const POOLS: usize = 5_000;
        let (done_tx, done_rx) = mpsc::channel();
        // Not joined: after a deadlock the helper never returns.
        std::thread::spawn(move || {
            for _ in 0..POOLS {
                let barrier = std::sync::Barrier::new(WORKERS);
                let barrier = &barrier;
                let jobs: Vec<Job<'_, usize>> = (0..WORKERS)
                    .map(|i| {
                        job(format!("j{i}"), move || {
                            barrier.wait();
                            i
                        })
                    })
                    .collect();
                assert_eq!(Pool::new(WORKERS).run(jobs).len(), WORKERS);
            }
            done_tx.send(()).expect("test thread is waiting");
        });
        match done_rx.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("{POOLS} pools of {WORKERS} did not finish in 60 s: workers deadlocked")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the pool helper thread panicked"),
        }
    }

    #[test]
    fn auto_pool_is_at_least_serial() {
        assert!(Pool::auto().jobs() >= 1);
        assert_eq!(Pool::new(0).jobs(), 1, "zero clamps to serial");
    }
}
