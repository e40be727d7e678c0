//! The campaign supervisor: durable, deadline-bounded job execution on
//! top of the work-stealing [`Pool`].
//!
//! Every campaign (fig05–fig15, the tables, ablations, fairness, sweep,
//! priority, chaos, conformance) submits its jobs through a [`Supervisor`]
//! instead of the raw pool, gaining four guarantees:
//!
//! 1. **Panic isolation.** A job that panics becomes a typed
//!    [`SimError::JobPanic`] row (the pool catches the unwind); the rest of
//!    the campaign still runs and merges.
//! 2. **Deadlines.** Each job runs under a [`Watchdog`] (wall-clock
//!    deadline and/or simulated-cycle budget); a wedged simulation becomes
//!    a typed [`SimError::JobTimeout`] row instead of a hung campaign.
//! 3. **Durability.** With a journal attached, each finished job is
//!    appended (and flushed) to a JSONL file keyed by the content digest of
//!    its full identity. `--resume` decodes completed jobs from the journal
//!    and re-merges them in enumeration order, so the resumed CSV is
//!    byte-identical to an uninterrupted run.
//! 4. **Partial-completion accounting.** Jobs that panicked or timed out
//!    are counted ([`Supervisor::incomplete`]) so the front end can exit
//!    with the partial-completion code.
//!
//! Each job runs once. A simulation is deterministic, so a job that
//! panicked or timed out would only do so again under the same limits; a
//! resumed campaign runs every job that has no completed record afresh.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use awg_core::policies::{build_policy, PolicyKind};
use awg_gpu::{FaultPlan, SimError, Watchdog};
use awg_sim::Fingerprint64;
use awg_workloads::BenchmarkKind;

use crate::journal::{JobStatus, Journal, JournalRecord};
use crate::pool::{self, JobOutput, Pool};
use crate::run::{self, ExpResult, ExperimentConfig, Instrumentation};
use crate::{Artifact, Scale};

/// Per-job execution limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobLimits {
    /// Host wall-clock deadline per job (`None` = unbounded).
    pub deadline: Option<Duration>,
    /// Simulated-cycle budget per job (`None` = unbounded).
    pub cycle_budget: Option<u64>,
}

/// Computes a job's content digest from its stable key, the scale (which
/// carries the full machine configuration and workload parameters), and any
/// extra identity strings (e.g. a serialized fault plan).
///
/// The digest is what the journal is keyed by: two jobs collide only if
/// they would simulate the same thing, which is exactly when reusing the
/// cached result is correct. The key itself participates so that two arms
/// of a determinism comparison (same computation, different keys) journal
/// separately.
pub fn job_digest(key: &str, scale: &Scale, extras: &[&str]) -> u64 {
    let mut f = Fingerprint64::new();
    f.push_bytes(key.as_bytes());
    f.push_bytes(format!("{scale:?}").as_bytes());
    for extra in extras {
        f.push_bytes(extra.as_bytes());
    }
    f.finish()
}

/// A supervised task, handed a [`JobCtl`] to thread the job's watchdog into
/// its simulations.
pub type SimTask<'scope, T> = Box<dyn FnOnce(&JobCtl) -> T + Send + 'scope>;

/// One supervised unit of campaign work.
pub struct SimJob<'scope, T> {
    key: String,
    digest: u64,
    task: SimTask<'scope, T>,
}

/// Creates a supervised job with a stable key (see [`pool::job`]).
/// `digest` should come from [`job_digest`].
pub fn sim_job<'scope, T>(
    key: impl Into<String>,
    digest: u64,
    task: impl FnOnce(&JobCtl) -> T + Send + 'scope,
) -> SimJob<'scope, T> {
    SimJob {
        key: key.into(),
        digest,
        task: Box::new(task),
    }
}

/// Handle a supervised task receives: carries the job's watchdog and
/// mirrors the `run` module's entry points with the watchdog threaded
/// through.
#[derive(Debug)]
pub struct JobCtl {
    watchdog: Watchdog,
}

impl JobCtl {
    /// A control block with the given watchdog (tests; campaigns get theirs
    /// from the supervisor).
    pub fn with_watchdog(watchdog: Watchdog) -> Self {
        JobCtl { watchdog }
    }

    /// A fresh clone of this job's watchdog, for driving a
    /// [`Gpu`](awg_gpu::Gpu) directly.
    pub fn watchdog(&self) -> Watchdog {
        self.watchdog.clone()
    }

    /// [`run::run_experiment`] with this job's watchdog.
    pub fn run_experiment(
        &self,
        kind: BenchmarkKind,
        policy: PolicyKind,
        scale: &Scale,
        config: ExperimentConfig,
    ) -> ExpResult {
        self.run_instrumented(
            kind,
            policy,
            build_policy(policy),
            scale,
            config,
            None,
            Instrumentation::none(),
        )
    }

    /// [`run::run_with_policy`] with this job's watchdog.
    pub fn run_with_policy(
        &self,
        kind: BenchmarkKind,
        label: PolicyKind,
        policy_box: Box<dyn awg_gpu::SchedPolicy>,
        scale: &Scale,
        config: ExperimentConfig,
    ) -> ExpResult {
        self.run_instrumented(
            kind,
            label,
            policy_box,
            scale,
            config,
            None,
            Instrumentation::none(),
        )
    }

    /// [`run::run_instrumented`] with this job's watchdog.
    #[allow(clippy::too_many_arguments)]
    pub fn run_instrumented(
        &self,
        kind: BenchmarkKind,
        label: PolicyKind,
        policy_box: Box<dyn awg_gpu::SchedPolicy>,
        scale: &Scale,
        config: ExperimentConfig,
        plan: Option<FaultPlan>,
        instr: Instrumentation,
    ) -> ExpResult {
        run::run_watched(
            kind,
            label,
            policy_box,
            scale,
            config,
            plan,
            instr,
            Some(self.watchdog()),
        )
    }
}

/// The resilience layer around the pool. See the module docs.
pub struct Supervisor {
    pool: Pool,
    limits: JobLimits,
    journal: Option<Mutex<Journal>>,
    resumed: HashMap<u64, JournalRecord>,
    incomplete: AtomicUsize,
    resumed_hits: AtomicUsize,
}

impl Supervisor {
    /// A supervisor with no journal and no limits: the bare pool plus
    /// typed rows.
    pub fn bare(pool: Pool) -> Self {
        Supervisor::new(pool, JobLimits::default())
    }

    /// A supervisor with no journal and the given limits.
    pub fn new(pool: Pool, limits: JobLimits) -> Self {
        Supervisor {
            pool,
            limits,
            journal: None,
            resumed: HashMap::new(),
            incomplete: AtomicUsize::new(0),
            resumed_hits: AtomicUsize::new(0),
        }
    }

    /// A supervisor journaling to `path`. With `resume` set, an existing
    /// journal is loaded first: its completed jobs are served from the
    /// journal instead of re-running, and new results are appended to the
    /// same file. Without `resume`, the file is created fresh (truncated).
    ///
    /// `command` is recorded in the journal's header.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O and corruption errors.
    pub fn with_journal(
        pool: Pool,
        limits: JobLimits,
        path: &Path,
        resume: bool,
        command: &str,
    ) -> std::io::Result<Self> {
        let mut sup = Supervisor::new(pool, limits);
        if resume && path.exists() {
            let (journal, state) = Journal::open_resume(path)?;
            for record in state.records {
                // Only completed jobs short-circuit; timed-out jobs get a
                // fresh run on resume.
                if record.status == JobStatus::Ok {
                    sup.resumed.insert(record.digest, record);
                }
            }
            sup.journal = Some(Mutex::new(journal));
        } else {
            sup.journal = Some(Mutex::new(Journal::create(path, command)?));
        }
        Ok(sup)
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The configured per-job limits.
    pub fn limits(&self) -> &JobLimits {
        &self.limits
    }

    /// Number of jobs that panicked or timed out so far. Non-zero means
    /// the campaign's report is partial and the front end should exit with
    /// the partial-completion code.
    pub fn incomplete(&self) -> usize {
        self.incomplete.load(Ordering::Relaxed)
    }

    /// Number of jobs served from the resume journal instead of re-run.
    pub fn resumed_jobs(&self) -> usize {
        self.resumed_hits.load(Ordering::Relaxed)
    }

    /// Number of completed records loaded from the resume journal (an
    /// upper bound on [`Supervisor::resumed_jobs`]: a loaded record only
    /// counts as a hit when a matching job is actually enumerated).
    pub fn resumed_records(&self) -> usize {
        self.resumed.len()
    }

    /// Runs every job under its own watchdog and returns outputs in job
    /// order (same merge contract as [`Pool::run`]).
    pub fn run<'scope, T>(&'scope self, jobs: Vec<SimJob<'scope, T>>) -> Vec<JobOutput<T>>
    where
        T: Artifact + Send,
    {
        let pool_jobs = jobs
            .into_iter()
            .map(|job| {
                let key = job.key.clone();
                pool::job(key, move || self.run_one(job))
            })
            .collect();
        self.pool
            .run(pool_jobs)
            .into_iter()
            .map(|out| {
                // The outer Err is the pool's panic row, the inner one the
                // watchdog's timeout row. A job served from the journal
                // reports the wall-clock it was recorded with.
                let (wall, result) = match out.result {
                    Ok(verdict) => (verdict.wall.unwrap_or(out.wall), verdict.result),
                    Err(e) => (out.wall, Err(e)),
                };
                if result.is_err() {
                    self.incomplete.fetch_add(1, Ordering::Relaxed);
                }
                JobOutput {
                    key: out.key,
                    wall,
                    result,
                }
            })
            .collect()
    }

    fn run_one<T: Artifact>(&self, job: SimJob<'_, T>) -> Verdict<T> {
        let SimJob { key, digest, task } = job;
        // Resume cache: a journaled ok record for this digest is served
        // instead of running the job (and is not re-journaled).
        if let Some(record) = self.resumed.get(&digest) {
            let stored = record.value.as_ref().expect("ok records carry a value");
            match T::from_json(stored) {
                Ok(value) => {
                    self.resumed_hits.fetch_add(1, Ordering::Relaxed);
                    return Verdict {
                        wall: Some(Duration::from_nanos(record.wall_ns)),
                        result: Ok(value),
                    };
                }
                Err(e) => {
                    eprintln!(
                        "warning: journaled result for '{key}' is undecodable ({e}); re-running"
                    );
                }
            }
        }

        let started = Instant::now();
        let ctl = JobCtl::with_watchdog(Watchdog::new(
            self.limits.deadline,
            self.limits.cycle_budget,
        ));
        let value = task(&ctl);
        let result = match value.cancelled() {
            None => Ok(value),
            Some((at, cause)) => Err(SimError::JobTimeout {
                job: key.clone(),
                at,
                cause,
            }),
        };
        self.journal_append(&key, digest, started.elapsed(), &result);
        Verdict { wall: None, result }
    }

    /// Appends a finished job's record. Panics never get here: the pool
    /// turns them into rows after the unwind, and a resumed campaign runs
    /// an unjournaled job afresh anyway.
    fn journal_append<T: Artifact>(
        &self,
        key: &str,
        digest: u64,
        wall: Duration,
        result: &Result<T, SimError>,
    ) {
        let Some(journal) = &self.journal else { return };
        let (status, value, error) = match result {
            Ok(value) => (JobStatus::Ok, Some(value.to_json()), None),
            Err(e) => (JobStatus::Timeout, None, Some(e.to_string())),
        };
        let record = JournalRecord {
            key: key.to_owned(),
            digest,
            wall_ns: wall.as_nanos() as u64,
            status,
            value,
            error,
        };
        let mut journal = journal.lock().expect("journal lock poisoned");
        if let Err(e) = journal.append(&record) {
            eprintln!(
                "warning: failed to journal job '{key}' to {}: {e}",
                journal.path().display()
            );
        }
    }
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("pool", &self.pool)
            .field("limits", &self.limits)
            .field("journaled", &self.journal.is_some())
            .field("resumed", &self.resumed.len())
            .finish()
    }
}

/// One job's outcome inside the pool task: the timeout row or value, and
/// the recorded wall-clock when the journal served it.
struct Verdict<T> {
    wall: Option<Duration>,
    result: Result<T, SimError>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    use awg_gpu::CancelCause;
    use awg_sim::json::Value;
    use awg_sim::Cycle;

    use crate::report::Cell;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("awg-supervisor-{tag}-{}.jsonl", std::process::id()))
    }

    /// A tiny artifact whose cancellation status is scripted, for driving
    /// the supervisor without real simulations.
    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        n: u64,
        cancelled_at: Option<u64>,
    }

    impl Artifact for Probe {
        fn to_json(&self) -> Value {
            Value::Num(self.n as f64)
        }
        fn from_json(value: &Value) -> Result<Self, String> {
            value
                .as_f64()
                .map(|n| Probe {
                    n: n as u64,
                    cancelled_at: None,
                })
                .ok_or_else(|| "not a probe".to_owned())
        }
        fn cancelled(&self) -> Option<(Cycle, CancelCause)> {
            self.cancelled_at
                .map(|at| (at, CancelCause::CycleBudget(at)))
        }
    }

    #[test]
    fn digest_separates_key_scale_and_extras() {
        let quick = Scale::quick();
        let paper = Scale::paper();
        let d = |key, scale, extras| job_digest(key, scale, extras);
        assert_eq!(d("a", &quick, &[]), d("a", &quick, &[]));
        assert_ne!(d("a", &quick, &[]), d("b", &quick, &[]));
        assert_ne!(d("a", &quick, &[]), d("a", &paper, &[]));
        assert_ne!(d("a", &quick, &["plan1"]), d("a", &quick, &["plan2"]));
    }

    #[test]
    fn exhausted_panics_become_typed_rows_and_count_incomplete() {
        let sup = Supervisor::bare(Pool::serial());
        let calls = AtomicUsize::new(0);
        let outputs = sup.run(vec![sim_job("doomed", 2, |_ctl| -> Probe {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("permanent failure");
        })]);
        match &outputs[0].result {
            Err(SimError::JobPanic { job, message }) => {
                assert_eq!(job, "doomed");
                assert!(message.contains("permanent"), "{message}");
            }
            other => panic!("expected JobPanic, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1, "a job runs once");
        assert_eq!(sup.incomplete(), 1);
    }

    #[test]
    fn cancelled_value_becomes_a_job_timeout_row() {
        let limits = JobLimits {
            cycle_budget: Some(100),
            ..JobLimits::default()
        };
        let sup = Supervisor::new(Pool::serial(), limits);
        let outputs = sup.run(vec![
            sim_job("steady", 1, |_ctl| Probe {
                n: 1,
                cancelled_at: None,
            }),
            sim_job("wedged", 3, |ctl: &JobCtl| {
                let budget = ctl.watchdog().cycle_budget().unwrap();
                // Simulate a run that exceeds its budget.
                Probe {
                    n: 0,
                    cancelled_at: Some(budget),
                }
            }),
        ]);
        assert!(outputs[0].result.is_ok());
        match &outputs[1].result {
            Err(SimError::JobTimeout { job, at, cause }) => {
                assert_eq!(job, "wedged");
                assert_eq!(*at, 100);
                assert_eq!(*cause, CancelCause::CycleBudget(100));
            }
            other => panic!("expected JobTimeout, got {other:?}"),
        }
        assert_eq!(sup.incomplete(), 1);
    }

    #[test]
    fn resume_serves_ok_records_without_rerunning() {
        let path = temp_path("resume");
        {
            let sup = Supervisor::with_journal(
                Pool::serial(),
                JobLimits::default(),
                &path,
                false,
                "test-cmd",
            )
            .unwrap();
            sup.run(vec![sim_job("done", 42, |_ctl| {
                vec![Cell::Num(8.0), Cell::Text("x".into())]
            })]);
        }
        let sup = Supervisor::with_journal(
            Pool::serial(),
            JobLimits::default(),
            &path,
            true,
            "test-cmd",
        )
        .unwrap();
        let ran = AtomicUsize::new(0);
        let outputs = sup.run(vec![
            sim_job("done", 42, |_ctl| {
                ran.fetch_add(1, Ordering::Relaxed);
                vec![Cell::Num(8.0), Cell::Text("x".into())]
            }),
            sim_job("new", 43, |_ctl| vec![Cell::Deadlock]),
        ]);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "cached job must not re-run");
        assert_eq!(sup.resumed_jobs(), 1);
        assert_eq!(
            outputs[0].result.as_ref().unwrap(),
            &vec![Cell::Num(8.0), Cell::Text("x".into())]
        );
        assert_eq!(outputs[1].result.as_ref().unwrap(), &vec![Cell::Deadlock]);
        // The journal now also holds the new job.
        let (_j, state) = Journal::open_resume(&path).unwrap();
        assert_eq!(state.command.as_deref(), Some("test-cmd"));
        assert_eq!(state.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_records_rerun_on_resume() {
        let path = temp_path("failed-rerun");
        let limits = JobLimits {
            cycle_budget: Some(100),
            ..JobLimits::default()
        };
        {
            let sup =
                Supervisor::with_journal(Pool::serial(), limits, &path, false, "test-cmd").unwrap();
            sup.run(vec![sim_job("wedged", 5, |_ctl| Probe {
                n: 0,
                cancelled_at: Some(100),
            })]);
            assert_eq!(sup.incomplete(), 1);
        }
        let (_j, state) = Journal::open_resume(&path).unwrap();
        assert_eq!(state.records.len(), 1);
        assert_eq!(state.records[0].status, JobStatus::Timeout);
        assert!(state.records[0]
            .error
            .as_deref()
            .unwrap()
            .contains("timed out"));

        let sup =
            Supervisor::with_journal(Pool::serial(), limits, &path, true, "test-cmd").unwrap();
        let outputs = sup.run(vec![sim_job("wedged", 5, |_ctl| Probe {
            n: 9,
            cancelled_at: None,
        })]);
        assert_eq!(outputs[0].result.as_ref().unwrap().n, 9, "got a fresh run");
        assert_eq!(sup.resumed_jobs(), 0);
        assert_eq!(sup.incomplete(), 0);
        std::fs::remove_file(&path).ok();
    }
}
