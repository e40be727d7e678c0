//! The differential chaos harness: clean vs seeded-fault runs.
//!
//! The paper's §V.A liveness argument says IFP policies guarantee forward
//! progress *under adversity*. This module makes that claim falsifiable:
//! every (benchmark × IFP policy) pair runs once clean and twice under each
//! seeded [`FaultPlan`], asserting that
//!
//! 1. completion and memory-state validation are fault-invariant,
//! 2. the same seed reproduces a bit-identical run, and
//! 3. Baseline still deadlocks when oversubscribed — now with a forensic
//!    hang report naming the stuck WGs instead of a bare cycle count.
//!
//! Any reported hang is reproducible from its `(benchmark, policy, seed)`
//! triple alone.

use awg_core::policies::{build_policy, PolicyKind};
use awg_gpu::{FaultPlan, FaultPlanConfig};
use awg_sim::first_divergence;
use awg_workloads::BenchmarkKind;

use crate::pool::{self, CampaignProfile, Pool};
use crate::run::{run_instrumented, ExpResult, ExperimentConfig, Instrumentation, DIGEST_WINDOW};
use crate::supervisor::{job_digest, sim_job, JobCtl, Supervisor};
use crate::{Cell, Report, Row, Scale};

/// The default seeds of the chaos matrix (CI and the `chaos` subcommand).
pub const DEFAULT_SEEDS: [u64; 3] = [101, 202, 303];

/// The policy arm of the matrix: every design that claims forward progress
/// (plus Sleep, which only claims it while all WGs stay resident).
pub fn policies() -> [PolicyKind; 5] {
    [
        PolicyKind::Awg,
        PolicyKind::MonNrOne,
        PolicyKind::MonNrAll,
        PolicyKind::Sleep,
        PolicyKind::Timeout,
    ]
}

/// The benchmark arm: one spin lock, one ticket lock, one barrier.
pub fn benchmarks() -> [BenchmarkKind; 3] {
    [
        BenchmarkKind::SpinMutexGlobal,
        BenchmarkKind::FaMutexGlobal,
        BenchmarkKind::TreeBarrier,
    ]
}

/// The seeded plan used for `policy` at `scale`. The injection window is
/// anchored to the scale's mid-run marker (`resource_loss_at`) so faults
/// land while kernels are actually executing at any machine size.
/// Architectures that cannot reschedule a preempted WG (Sleep) get the
/// resident-safe mix: a stranded resident is an architectural limitation
/// already covered by Fig 15, not a chaos finding.
pub fn plan_for(policy: PolicyKind, scale: &Scale, seed: u64) -> FaultPlan {
    let mut cfg = FaultPlanConfig::standard(scale.gpu.num_cus);
    cfg.start = scale.resource_loss_at / 3;
    cfg.horizon = scale.resource_loss_at * 6;
    if !build_policy(policy).supports_wg_rescheduling() {
        cfg = cfg.resident_safe();
    }
    FaultPlan::generate(seed, &cfg)
}

/// Runs `kind` under `policy` with the seeded fault plan installed, the
/// invariant oracle on, a per-window digest trail recorded, and the host
/// self-profile collected (telemetry is a pure observer, so the digests
/// and oracle verdicts are identical to an unprofiled run).
pub fn run_faulted(kind: BenchmarkKind, policy: PolicyKind, scale: &Scale, seed: u64) -> ExpResult {
    run_instrumented(
        kind,
        policy,
        build_policy(policy),
        scale,
        ExperimentConfig::NonOversubscribed,
        Some(plan_for(policy, scale, seed)),
        Instrumentation::profiled(),
    )
}

/// A bit-exact digest of a run, for same-seed determinism checks.
pub fn fingerprint(r: &ExpResult) -> Vec<u64> {
    let s = r.outcome.summary();
    vec![
        s.cycles,
        s.insts,
        s.atomics,
        s.running_cycles,
        s.waiting_cycles,
        s.switches_out,
        s.switches_in,
        s.resumes,
        s.unnecessary_resumes,
    ]
}

/// Runs the full differential matrix, returning the report and the number
/// of violated invariants (0 = pass; the `chaos` subcommand exits non-zero
/// otherwise).
pub fn run_checked(scale: &Scale, seeds: &[u64]) -> (Report, usize) {
    let (report, violations, _) =
        run_checked_supervised(scale, seeds, &Supervisor::bare(Pool::serial()));
    (report, violations)
}

/// Runs the full differential matrix under `sup`: one supervised job per
/// run — clean, and two per seed for the same-seed comparison — merged
/// back in strict matrix order, so the report (cells *and* notes) is
/// byte-identical to the serial run at any concurrency (and to a
/// `--resume`d run). Faulted-job digests additionally cover the serialized
/// fault plan, so a plan-generation change invalidates journaled results
/// instead of silently resuming stale ones. Also returns the campaign's
/// host-side accounting (per-job wall-clock, absorbed run stats, and the
/// aggregate self-profile).
pub fn run_checked_supervised(
    scale: &Scale,
    seeds: &[u64],
    sup: &Supervisor,
) -> (Report, usize, CampaignProfile) {
    let mut columns: Vec<String> = vec!["clean".into()];
    for s in seeds {
        columns.push(format!("seed {s}"));
    }
    columns.push("worst ×".into());
    columns.push("deterministic".into());
    let mut report = Report {
        title: "Chaos matrix: clean vs seeded fault plans".into(),
        columns,
        rows: Vec::new(),
        notes: Vec::new(),
    };
    let mut violations = 0usize;

    let mut jobs = Vec::new();
    for kind in benchmarks() {
        for policy in policies() {
            let label = format!("chaos/{}/{}", kind.abbreviation(), policy.label());
            let key = format!("{label}/clean");
            let digest = job_digest(&key, scale, &[]);
            jobs.push(sim_job(key, digest, move |ctl: &JobCtl| {
                ctl.run_instrumented(
                    kind,
                    policy,
                    build_policy(policy),
                    scale,
                    ExperimentConfig::NonOversubscribed,
                    None,
                    Instrumentation::profiled(),
                )
            }));
            for &seed in seeds {
                for arm in ["a", "b"] {
                    let key = format!("{label}/seed-{seed}/{arm}");
                    let plan = plan_for(policy, scale, seed);
                    let digest = job_digest(&key, scale, &[plan.to_json().as_str()]);
                    jobs.push(sim_job(key, digest, move |ctl: &JobCtl| {
                        ctl.run_instrumented(
                            kind,
                            policy,
                            build_policy(policy),
                            scale,
                            ExperimentConfig::NonOversubscribed,
                            Some(plan),
                            Instrumentation::profiled(),
                        )
                    }));
                }
            }
        }
    }
    {
        let key = "chaos/control/TB_LG/Baseline";
        let digest = job_digest(key, scale, &[]);
        jobs.push(sim_job(key, digest, move |ctl: &JobCtl| {
            ctl.run_instrumented(
                BenchmarkKind::TreeBarrier,
                PolicyKind::Baseline,
                build_policy(PolicyKind::Baseline),
                scale,
                ExperimentConfig::Oversubscribed,
                None,
                Instrumentation::profiled(),
            )
        }));
    }
    let mut profile = CampaignProfile::default();
    let mut outputs = sup.run(jobs).into_iter();
    // Timings and stats absorb in job order (the same order the report
    // consumes), so the campaign profile is deterministic too.
    let mut next = move |profile: &mut CampaignProfile| {
        let out = outputs.next().expect("one output per enumerated job");
        profile.absorb_job(&out);
        out
    };

    // Any oracle finding is an invariant violation in its own right,
    // independent of whether the run still completed.
    let oracle_check = |report: &mut Report, label: &str, r: &ExpResult| -> usize {
        if r.violations.is_empty() {
            return 0;
        }
        report.note(format!(
            "{label}: ORACLE: {} invariant violation(s), first: {}",
            r.violations.len(),
            r.violations[0]
        ));
        1
    };

    for kind in benchmarks() {
        for policy in policies() {
            let label = format!("{}/{}", kind.abbreviation(), policy.label());
            let clean_out = next(&mut profile);
            let mut cells = Vec::new();
            let clean = match &clean_out.result {
                Ok(res) => Some(res),
                Err(e) => {
                    violations += 1;
                    report.note(format!("{label}: clean run panicked: {e}"));
                    cells.push(pool::error_cell(e));
                    None
                }
            };
            if let Some(clean) = clean {
                violations += oracle_check(&mut report, &label, clean);
                if clean.is_valid_completion() {
                    cells.push(Cell::Num(clean.cycles().unwrap() as f64));
                } else {
                    violations += 1;
                    report.note(format!(
                        "{label}: clean run failed: {} / {:?}",
                        clean.outcome, clean.validated
                    ));
                    cells.push(Cell::Text("FAIL".into()));
                }
            }
            let mut worst = 1.0f64;
            let mut deterministic = true;
            for &seed in seeds {
                let a_out = next(&mut profile);
                let b_out = next(&mut profile);
                let (a, b) = match (&a_out.result, &b_out.result) {
                    (Ok(a), Ok(b)) => (a, b),
                    (r_a, r_b) => {
                        let e = r_a
                            .as_ref()
                            .err()
                            .or(r_b.as_ref().err())
                            .expect("one arm erred");
                        violations += 1;
                        report.note(format!("{label} seed {seed}: job panicked: {e}"));
                        cells.push(pool::error_cell(e));
                        continue;
                    }
                };
                violations += oracle_check(&mut report, &format!("{label} seed {seed}"), a);
                if fingerprint(a) != fingerprint(b) || a.digest_trail != b.digest_trail {
                    deterministic = false;
                    violations += 1;
                    let window = first_divergence(&a.digest_trail, &b.digest_trail);
                    let locus = match window {
                        Some(w) => format!(
                            "first divergent window {w} (cycles {}..{})",
                            w as u64 * DIGEST_WINDOW,
                            (w as u64 + 1) * DIGEST_WINDOW
                        ),
                        None => format!(
                            "digest trails agree on their common prefix \
                             ({} vs {} windows); runs diverged after the shorter trail ended",
                            a.digest_trail.len(),
                            b.digest_trail.len()
                        ),
                    };
                    report.note(format!(
                        "{label} seed {seed}: same seed, divergent runs ({} vs {}); {locus}",
                        a.outcome, b.outcome
                    ));
                }
                if a.is_valid_completion() {
                    let c = a.cycles().unwrap();
                    if let Some(base) = clean.and_then(|clean| clean.cycles()) {
                        worst = worst.max(c as f64 / base as f64);
                    }
                    cells.push(Cell::Num(c as f64));
                } else {
                    violations += 1;
                    report.note(format!(
                        "{label} seed {seed}: {} / {:?}",
                        a.outcome, a.validated
                    ));
                    if let Some(hang) = a.outcome.hang_report() {
                        for line in hang.to_string().lines() {
                            report.note(line.to_string());
                        }
                    }
                    cells.push(if a.outcome.is_deadlocked() {
                        Cell::Deadlock
                    } else {
                        Cell::Text("FAIL".into())
                    });
                }
            }
            cells.push(Cell::Num(worst));
            cells.push(Cell::Text(if deterministic { "yes" } else { "NO" }.into()));
            report.push(Row::new(label, cells));
        }
    }

    // Control arm: Baseline must still deadlock when oversubscribed, and
    // the watchdog must say who is stuck and on which address. TreeBarrier
    // guarantees resident waiters: the surviving CU's WGs spin on barrier
    // flags the stranded WGs will never set.
    let baseline_out = next(&mut profile);
    match &baseline_out.result {
        Ok(baseline) => {
            violations += oracle_check(&mut report, "control arm Baseline/TB_LG", baseline);
            let forensic = baseline
                .outcome
                .hang_report()
                .is_some_and(|h| h.blocked_on_sync().count() > 0);
            if baseline.deadlocked() && forensic {
                report.note(format!(
                    "control arm — Baseline/{} oversubscribed: {}",
                    BenchmarkKind::TreeBarrier.abbreviation(),
                    baseline.outcome
                ));
                for line in baseline.outcome.hang_report().unwrap().to_string().lines() {
                    report.note(line.to_string());
                }
            } else {
                violations += 1;
                report.note(format!(
                    "control arm FAILED: expected a forensic Baseline deadlock, got {}",
                    baseline.outcome
                ));
            }
        }
        Err(e) => {
            violations += 1;
            report.note(format!("control arm FAILED: {e}"));
        }
    }

    report.note(if violations == 0 {
        "PASS: completion, validation, and determinism are fault-invariant.".into()
    } else {
        format!("{violations} invariant violation(s).")
    });
    (report, violations, profile)
}

/// Runner-compatible entry: the matrix at [`DEFAULT_SEEDS`].
pub fn run(scale: &Scale) -> Report {
    run_checked(scale, &DEFAULT_SEEDS).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_instrumented;
    use awg_gpu::RegistryReads;

    #[test]
    fn plans_respect_rescheduling_support() {
        let scale = Scale::quick();
        assert!(plan_for(PolicyKind::Awg, &scale, 1).max_cu().is_some());
        assert!(plan_for(PolicyKind::Timeout, &scale, 1).max_cu().is_some());
        assert!(
            plan_for(PolicyKind::Sleep, &scale, 1).max_cu().is_none(),
            "Sleep cannot reschedule preempted WGs; its plans must not unplug CUs"
        );
    }

    /// The oracle's registry reads on one quick-scale chaos cell, exactly:
    /// the journaled read's algorithmic claim (ROADMAP item 11). Whole
    /// reads by events follow only a monitored-bit flip; every other
    /// policy call looks up just the WGs its journal lists. The cell is
    /// clean, so no read sorts the registry to report: each of the 13
    /// sweeps used to.
    #[test]
    fn oracle_registry_reads_of_a_chaos_cell_are_pinned() {
        let scale = Scale::quick();
        let policy = PolicyKind::Awg;
        let r = run_instrumented(
            BenchmarkKind::FaMutexGlobal,
            policy,
            build_policy(policy),
            &scale,
            ExperimentConfig::NonOversubscribed,
            Some(plan_for(policy, &scale, 1)),
            Instrumentation {
                hot_profile: true,
                ..Instrumentation::checked()
            },
        );
        assert!(r.is_valid_completion(), "{} / {:?}", r.outcome, r.validated);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let reads = r.hot.expect("the hot profile was on").registry_reads;
        assert_eq!(
            reads,
            RegistryReads {
                sweep_reads: 13,
                sweep_records: 77,
                full_reads: 2,
                full_records: 1,
                journal_reads: 276,
                journal_wgs: 76,
                journal_records: 38,
                report_reads: 0,
            }
        );
    }

    #[test]
    fn single_cell_differential_quick() {
        let scale = Scale::quick();
        let a = run_faulted(BenchmarkKind::SpinMutexGlobal, PolicyKind::Awg, &scale, 101);
        let b = run_faulted(BenchmarkKind::SpinMutexGlobal, PolicyKind::Awg, &scale, 101);
        assert!(a.is_valid_completion(), "{} / {:?}", a.outcome, a.validated);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "same seed must be bit-identical"
        );
        assert!(!a.digest_trail.is_empty(), "checked runs record digests");
        assert_eq!(
            a.digest_trail, b.digest_trail,
            "same seed must digest identically window by window"
        );
        assert!(
            a.violations.is_empty(),
            "oracle must stay quiet on a passing run: {:?}",
            a.violations
        );
    }
}
