//! The supervisor's headline guarantees, end to end: a campaign killed at
//! any journal length resumes to a byte-identical report, a torn journal
//! tail is tolerated, and a wedged job becomes a typed `JobTimeout` row
//! while the rest of the campaign completes.

use std::path::PathBuf;
use std::time::Duration;

use awg_core::policies::PolicyKind;
use awg_gpu::{CancelCause, SimError};
use awg_harness::pool::Pool;
use awg_harness::run::ExperimentConfig;
use awg_harness::supervisor::{job_digest, sim_job, JobCtl, JobLimits, Supervisor};
use awg_harness::{chaos, fig05, Scale};
use awg_workloads::BenchmarkKind;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("awg-resume-{tag}-{}.jsonl", std::process::id()))
}

/// Splits a journal into its header line and record lines.
fn journal_lines(text: &str) -> (String, Vec<String>) {
    let mut lines = text.lines().map(str::to_owned);
    let header = lines.next().expect("journal has a header");
    (header, lines.collect())
}

/// Writes `header` plus the first `keep` records — the on-disk state after
/// a kill that landed between record `keep` and record `keep + 1`.
fn write_prefix(path: &PathBuf, header: &str, records: &[String], keep: usize) {
    let mut text = format!("{header}\n");
    for record in &records[..keep] {
        text.push_str(record);
        text.push('\n');
    }
    std::fs::write(path, text).unwrap();
}

#[test]
fn fig05_resumes_byte_identical_from_any_kill_point() {
    let scale = Scale::quick();
    let uninterrupted = fig05::run_supervised(&scale, &Supervisor::bare(Pool::serial())).to_csv();

    // One full journaled run stands in for the campaign we are about to
    // "kill": every prefix of its journal is a state a real kill could
    // have left behind.
    let full = temp_path("fig05-full");
    let sup = Supervisor::with_journal(
        Pool::serial(),
        JobLimits::default(),
        &full,
        false,
        "awg-repro --quick --resume J fig5",
    )
    .unwrap();
    let journaled = fig05::run_supervised(&scale, &sup).to_csv();
    drop(sup);
    assert_eq!(journaled, uninterrupted);
    let text = std::fs::read_to_string(&full).unwrap();
    let (header, records) = journal_lines(&text);
    assert_eq!(records.len(), BenchmarkKind::all().len());

    let part = temp_path("fig05-part");
    for keep in [0, 1, records.len() / 2, records.len() - 1, records.len()] {
        write_prefix(&part, &header, &records, keep);
        let sup = Supervisor::with_journal(
            Pool::serial(),
            JobLimits::default(),
            &part,
            true,
            "awg-repro --quick --resume J fig5",
        )
        .unwrap();
        let resumed = fig05::run_supervised(&scale, &sup).to_csv();
        assert_eq!(resumed, uninterrupted, "kill point {keep}");
        assert_eq!(sup.resumed_jobs(), keep, "kill point {keep}");
        assert_eq!(sup.incomplete(), 0);
        drop(sup);
        // The resumed journal is complete again: a second resume serves
        // every job from it.
        let (_, records_after) = journal_lines(&std::fs::read_to_string(&part).unwrap());
        assert_eq!(records_after.len(), records.len(), "kill point {keep}");
    }
    std::fs::remove_file(&full).ok();
    std::fs::remove_file(&part).ok();
}

#[test]
fn chaos_matrix_resumes_byte_identical_mid_campaign() {
    let scale = Scale::quick();
    let (clean, v_clean, _) =
        chaos::run_checked_supervised(&scale, &[101], &Supervisor::bare(Pool::serial()));
    let uninterrupted = clean.to_csv();

    let full = temp_path("chaos-full");
    let sup = Supervisor::with_journal(
        Pool::serial(),
        JobLimits::default(),
        &full,
        false,
        "awg-repro --quick --resume J chaos",
    )
    .unwrap();
    let (journaled, v_journaled, _) = chaos::run_checked_supervised(&scale, &[101], &sup);
    drop(sup);
    assert_eq!(journaled.to_csv(), uninterrupted);
    assert_eq!(v_journaled, v_clean);

    let text = std::fs::read_to_string(&full).unwrap();
    let (header, records) = journal_lines(&text);
    assert!(records.len() > 2, "chaos journals one record per run");

    let part = temp_path("chaos-part");
    for keep in [1, records.len() / 2] {
        write_prefix(&part, &header, &records, keep);
        let sup = Supervisor::with_journal(
            Pool::serial(),
            JobLimits::default(),
            &part,
            true,
            "awg-repro --quick --resume J chaos",
        )
        .unwrap();
        let (resumed, v_resumed, _) = chaos::run_checked_supervised(&scale, &[101], &sup);
        assert_eq!(resumed.to_csv(), uninterrupted, "kill point {keep}");
        assert_eq!(v_resumed, v_clean);
        assert_eq!(sup.resumed_jobs(), keep, "kill point {keep}");
    }
    std::fs::remove_file(&full).ok();
    std::fs::remove_file(&part).ok();
}

#[test]
fn torn_journal_tail_is_discarded_and_rewritten() {
    let scale = Scale::quick();
    let uninterrupted = fig05::run_supervised(&scale, &Supervisor::bare(Pool::serial())).to_csv();

    let path = temp_path("torn");
    let sup = Supervisor::with_journal(Pool::serial(), JobLimits::default(), &path, false, "cmd")
        .unwrap();
    fig05::run_supervised(&scale, &sup);
    drop(sup);

    // A kill mid-write leaves half a record and no newline at the tail.
    let text = std::fs::read_to_string(&path).unwrap();
    let (header, records) = journal_lines(&text);
    let mut torn = format!("{header}\n");
    for record in &records[..records.len() - 1] {
        torn.push_str(record);
        torn.push('\n');
    }
    let last = records.last().unwrap();
    torn.push_str(&last[..last.len() / 2]);
    std::fs::write(&path, torn).unwrap();

    let sup =
        Supervisor::with_journal(Pool::serial(), JobLimits::default(), &path, true, "cmd").unwrap();
    let resumed = fig05::run_supervised(&scale, &sup).to_csv();
    assert_eq!(resumed, uninterrupted);
    assert_eq!(sup.resumed_jobs(), records.len() - 1);
    drop(sup);
    std::fs::remove_file(&path).ok();
}

/// The issue's acceptance scenario: a deliberately wedged job (Baseline
/// spinning under oversubscription, cancelled long before the quiescence
/// detector would fire) converts into a typed `JobTimeout` row within its
/// budget while the rest of the campaign completes, and the supervisor
/// reports the campaign as partial.
#[test]
fn wedged_job_becomes_a_timeout_row_while_the_rest_completes() {
    let scale = Scale::quick();
    // Calibrate: how long does the healthy arm take uncancelled? The
    // budget must sit above that but below the quiescence detector, so
    // the wedged Baseline arm is cancelled while it is still spinning.
    let healthy = |ctl: &JobCtl| {
        ctl.run_experiment(
            BenchmarkKind::FaMutexGlobal,
            PolicyKind::Awg,
            &scale,
            ExperimentConfig::Oversubscribed,
        )
    };
    let probe = Supervisor::bare(Pool::serial());
    let probe_out = probe.run(vec![sim_job("calibrate", 0, healthy)]);
    let healthy_cycles = probe_out[0]
        .result
        .as_ref()
        .unwrap()
        .cycles()
        .expect("healthy arm completes");
    let budget = (healthy_cycles * 3).min(scale.gpu.quiescence_cycles / 2);
    assert!(
        healthy_cycles < budget,
        "quick-scale healthy run ({healthy_cycles}) must fit the budget ({budget})"
    );

    let limits = JobLimits {
        cycle_budget: Some(budget),
        ..JobLimits::default()
    };
    let sup = Supervisor::new(Pool::serial(), limits);
    let jobs = vec![
        sim_job("resilience/healthy", 1, healthy),
        sim_job("resilience/wedged", 2, |ctl: &JobCtl| {
            ctl.run_experiment(
                BenchmarkKind::FaMutexGlobal,
                PolicyKind::Baseline,
                &scale,
                ExperimentConfig::Oversubscribed,
            )
        }),
    ];
    let outputs = sup.run(jobs);
    assert_eq!(outputs.len(), 2);
    let ok = outputs[0].result.as_ref().unwrap();
    assert_eq!(
        ok.cycles(),
        Some(healthy_cycles),
        "healthy jobs must complete alongside the wedge"
    );
    match outputs[1].result.as_ref().unwrap_err() {
        SimError::JobTimeout { job, at, cause } => {
            assert_eq!(job, "resilience/wedged");
            assert_eq!(*cause, CancelCause::CycleBudget(budget));
            assert!(
                *at < scale.gpu.quiescence_cycles,
                "cancelled before quiescence, got {at}"
            );
        }
        other => panic!("expected JobTimeout, got {other:?}"),
    }
    assert_eq!(sup.incomplete(), 1, "campaign must be marked partial");
}

#[test]
fn wall_deadline_converts_a_wedge_to_a_typed_row() {
    let scale = Scale::quick();
    let limits = JobLimits {
        deadline: Some(Duration::from_nanos(1)),
        ..JobLimits::default()
    };
    let sup = Supervisor::new(Pool::serial(), limits);
    let jobs = vec![sim_job(
        "resilience/deadline",
        job_digest("resilience/deadline", &scale, &[]),
        |ctl: &JobCtl| {
            ctl.run_experiment(
                BenchmarkKind::FaMutexGlobal,
                PolicyKind::Baseline,
                &scale,
                ExperimentConfig::Oversubscribed,
            )
        },
    )];
    let outputs = sup.run(jobs);
    match outputs[0].result.as_ref().unwrap_err() {
        SimError::JobTimeout { cause, .. } => {
            assert_eq!(*cause, CancelCause::WallDeadline(Duration::from_nanos(1)));
        }
        other => panic!("expected JobTimeout, got {other:?}"),
    }
    assert_eq!(sup.incomplete(), 1);
}
