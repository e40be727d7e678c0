//! The three workloads: what each enumerates from the seed, how one cell
//! is built, run and checked, and which outcome it is expected to reach.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use awg_conformance::{
    adversary_plan, anchor_specs, check_obligations, generate_batch, LitmusSpec, ProgressModel,
    ALL_MODELS,
};
use awg_core::policies::{build_policy, PolicyKind};
use awg_gpu::{FaultPlan, Gpu, HotReport, Kernel, RunOutcome, TraceFilter, WgResources};
use awg_harness::run::DIGEST_WINDOW;
use awg_harness::{chaos, Scale};
use awg_sim::{Fingerprint64, SplitMix64};
use awg_workloads::litmus::{self, Litmus, LitmusBuilder};
use awg_workloads::BenchmarkKind;

use crate::spans::Tracer;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 14 + Fig 15: every kernel × every policy, steady and with a CU
    /// lost mid-run; no self-checking.
    Paper,
    /// The chaos matrix under seeded fault plans, oracle and digest trail on.
    Checked,
    /// The conformance lab: policies × progress-model adversaries over
    /// anchor, hand-written and seeded litmus kernels.
    Litmus,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Checked, Workload::Litmus];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Checked => "checked",
            Workload::Litmus => "litmus",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The self-checking the workload runs with.
    pub fn checks(self) -> Checks {
        match self {
            Workload::Paper => Checks::NONE,
            Workload::Checked => Checks::FULL,
            Workload::Litmus => Checks::ORACLE,
        }
    }

    /// The span that times input generation for one pass.
    pub fn generate_span(self) -> &'static str {
        match self {
            Workload::Paper => "paper.enumerate",
            Workload::Checked => "chaos.plan_for",
            Workload::Litmus => "conformance.generate",
        }
    }
}

/// The nine fixed policies, baseline and IFP designs alike.
pub const POLICIES: [PolicyKind; 9] = [
    PolicyKind::Baseline,
    PolicyKind::Sleep,
    PolicyKind::Timeout,
    PolicyKind::MonRsAll,
    PolicyKind::MonRAll,
    PolicyKind::MonNrAll,
    PolicyKind::MonNrOne,
    PolicyKind::Awg,
    PolicyKind::MinResume,
];

/// Fault plans per checked cell, on top of its clean run.
pub const CHECKED_PLANS: usize = 6;

/// Seeded litmus specs per pass of the litmus workload (paper size).
pub const LITMUS_COUNT: usize = 1200;

/// Seeded litmus specs per pass at quick size.
pub const LITMUS_COUNT_QUICK: usize = 12;

/// Which self-checking a run has armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// The invariant oracle sweeps after every event.
    pub oracle: bool,
    /// A state digest is recorded every [`DIGEST_WINDOW`] cycles.
    pub digest: bool,
}

impl Checks {
    /// No self-checking.
    pub const NONE: Checks = Checks {
        oracle: false,
        digest: false,
    };
    /// The oracle alone.
    pub const ORACLE: Checks = Checks {
        oracle: true,
        digest: false,
    };
    /// Oracle and digest trail: the chaos harness's checked mode.
    pub const FULL: Checks = Checks {
        oracle: true,
        digest: true,
    };
}

/// The outcome class a cell must reach for its run to count as correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Completes with its post-conditions intact.
    Completes,
    /// Is declared deadlocked by the quiescence detector.
    Deadlocks,
    /// Reaches a verdict: completes (post-conditions intact) or deadlocks.
    Verdict,
}

impl Expect {
    /// The opposite expectation (the benchmark's own tests flip one cell
    /// to prove a wrong outcome counts as a failure).
    pub fn flipped(self) -> Expect {
        match self {
            Expect::Completes => Expect::Deadlocks,
            Expect::Deadlocks | Expect::Verdict => Expect::Completes,
        }
    }
}

/// One litmus in a progress model's test set.
#[derive(Clone, Copy)]
pub enum Case {
    /// An anchor or seeded spec from the generator.
    Generated(LitmusSpec),
    /// One of the hand-written litmus kernels.
    Hand(&'static str, LitmusBuilder),
}

impl Case {
    fn name(&self) -> String {
        match self {
            Case::Generated(spec) => spec.name(),
            Case::Hand(name, _) => (*name).to_owned(),
        }
    }

    /// The per-litmus adversary seed the conformance campaign uses.
    fn adversary_seed(&self) -> u64 {
        match self {
            Case::Generated(spec) => spec.seed,
            Case::Hand(name, _) => {
                let mut f = Fingerprint64::new();
                f.push_bytes(name.as_bytes());
                f.finish()
            }
        }
    }

    fn build(&self, policy: PolicyKind) -> (Litmus, u64) {
        let style = build_policy(policy).style();
        match self {
            Case::Generated(spec) => (spec.build(style), spec.num_wgs),
            Case::Hand(_, builder) => (builder(style), litmus::NUM_WGS),
        }
    }
}

/// What one cell runs.
#[derive(Clone)]
pub enum Job {
    /// A suite kernel on the scale's machine.
    Kernel {
        /// The benchmark.
        kind: BenchmarkKind,
        /// The scheduling policy.
        policy: PolicyKind,
        /// Whether the scale's CU is lost mid-run.
        oversubscribed: bool,
        /// The seeded fault plan, if any.
        plan: Option<FaultPlan>,
    },
    /// A litmus on the 1-CU lab machine under a model's adversary.
    Litmus {
        /// The scheduling policy.
        policy: PolicyKind,
        /// The progress model whose obligation is checked.
        model: ProgressModel,
        /// The litmus.
        case: Case,
        /// The model's adversary.
        plan: FaultPlan,
    },
}

/// One run of the workload: a job and its expected outcome.
#[derive(Clone)]
pub struct Cell {
    /// What runs.
    pub job: Job,
    /// The outcome class it must reach.
    pub expect: Expect,
}

impl Cell {
    /// A human-readable name for failure messages.
    pub fn label(&self) -> String {
        match &self.job {
            Job::Kernel {
                kind,
                policy,
                oversubscribed,
                plan,
            } => format!(
                "{kind}/{}/{}{}",
                policy.label(),
                if *oversubscribed { "oversub" } else { "steady" },
                plan.as_ref()
                    .map_or(String::new(), |p| format!("/plan-{:#x}", p.seed))
            ),
            Job::Litmus {
                policy,
                model,
                case,
                ..
            } => {
                format!("{}/{}/{}", policy.label(), model.label(), case.name())
            }
        }
    }
}

/// The outcome `policy` running `kind` must reach when a CU is lost
/// mid-run. Baseline and Sleep cannot reschedule a preempted WG. MonRS-All
/// strands waiters whose sporadic wake never comes: on the kernels whose
/// access pattern follows the seed (HT, BANK) that depends on the seed, and
/// on the others on the machine, so the quick scale has its own set.
pub fn oversubscribed_expect(kind: BenchmarkKind, policy: PolicyKind, quick: bool) -> Expect {
    use BenchmarkKind::*;
    match policy {
        PolicyKind::Baseline | PolicyKind::Sleep => Expect::Deadlocks,
        PolicyKind::MonRsAll => match kind {
            HashTable | BankAccount => Expect::Verdict,
            FaMutexGlobal | FaMutexLocal | ReaderWriter => Expect::Deadlocks,
            TreeBarrier if quick => Expect::Deadlocks,
            _ => Expect::Completes,
        },
        _ => Expect::Completes,
    }
}

/// The machine and kernel size a workload runs at, with the workload seed
/// folded into the kernels' own pseudo-random access patterns.
pub fn scale_for(quick: bool, seed: u64) -> Scale {
    let mut scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    scale.params.seed = SplitMix64::new(seed).next_u64();
    scale
}

/// Enumerates the cells of one pass of `workload` from `seed`.
pub fn cells(workload: Workload, seed: u64, quick: bool, scale: &Scale) -> Vec<Cell> {
    match workload {
        Workload::Paper => {
            let mut out = Vec::new();
            for oversubscribed in [false, true] {
                for kind in BenchmarkKind::all() {
                    for policy in POLICIES {
                        out.push(Cell {
                            job: Job::Kernel {
                                kind,
                                policy,
                                oversubscribed,
                                plan: None,
                            },
                            expect: if oversubscribed {
                                oversubscribed_expect(kind, policy, quick)
                            } else {
                                Expect::Completes
                            },
                        });
                    }
                }
            }
            out
        }
        Workload::Checked => {
            let mut stream = SplitMix64::new(seed ^ 0xc4a0_5eed);
            let plan_seeds: Vec<u64> = (0..CHECKED_PLANS).map(|_| stream.next_u64()).collect();
            let mut out = Vec::new();
            for kind in chaos::benchmarks() {
                for policy in chaos::policies() {
                    let plans = std::iter::once(None).chain(
                        plan_seeds
                            .iter()
                            .map(|&s| Some(chaos::plan_for(policy, scale, s))),
                    );
                    for plan in plans {
                        out.push(Cell {
                            job: Job::Kernel {
                                kind,
                                policy,
                                oversubscribed: false,
                                plan,
                            },
                            expect: Expect::Completes,
                        });
                    }
                }
            }
            out
        }
        Workload::Litmus => {
            let count = if quick {
                LITMUS_COUNT_QUICK
            } else {
                LITMUS_COUNT
            };
            let generated = generate_batch(seed, count);
            let sets: Vec<(ProgressModel, Vec<Case>)> = ALL_MODELS
                .iter()
                .map(|&m| (m, cases_for(m, &generated)))
                .collect();
            let mut out = Vec::new();
            for policy in POLICIES {
                for (model, cases) in &sets {
                    for case in cases {
                        out.push(Cell {
                            job: Job::Litmus {
                                policy,
                                model: *model,
                                case: *case,
                                plan: adversary_plan(*model, case.adversary_seed()),
                            },
                            expect: Expect::Verdict,
                        });
                    }
                }
            }
            out
        }
    }
}

/// `model`'s litmus set: anchors and generated specs demanding exactly
/// `model`, plus the hand-written kernels for Fair.
fn cases_for(model: ProgressModel, generated: &[LitmusSpec]) -> Vec<Case> {
    let mut cases = Vec::new();
    if model == ProgressModel::Fair {
        cases.extend(
            litmus::all()
                .into_iter()
                .map(|(name, b)| Case::Hand(name, b)),
        );
    }
    for spec in anchor_specs().into_iter().chain(generated.iter().copied()) {
        if spec.demand() == model {
            cases.push(Case::Generated(spec));
        }
    }
    cases
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Every WG finished.
    Completed,
    /// The quiescence detector declared deadlock.
    Deadlocked,
    /// The simulated-cycle cap was hit.
    CycleLimit,
    /// A watchdog cancelled the run.
    Cancelled,
    /// The run panicked.
    Panicked,
}

impl Class {
    fn of(outcome: &RunOutcome) -> Class {
        match outcome {
            RunOutcome::Completed(_) => Class::Completed,
            RunOutcome::Deadlocked { .. } => Class::Deadlocked,
            RunOutcome::CycleLimit { .. } => Class::CycleLimit,
            RunOutcome::Cancelled { .. } => Class::Cancelled,
        }
    }
}

/// Everything the benchmark keeps from one run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Host time to build the program and construct the armed machine.
    pub setup: Duration,
    /// Host time inside `Gpu::run`.
    pub run: Duration,
    /// How the run ended.
    pub class: Class,
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions.
    pub insts: u64,
    /// Dynamic atomics.
    pub atomics: u64,
    /// Context switches, out plus in.
    pub switches: u64,
    /// Wakes delivered.
    pub resumes: u64,
    /// Wakes whose next check failed again.
    pub unnecessary_resumes: u64,
    /// Fingerprint of the digest trail (of an empty trail when off).
    pub trail: u64,
    /// Conformance verdict for litmus cells: satisfied or not.
    pub sat: bool,
    /// Why the run counts as failed, if it does.
    pub failure: Option<String>,
    /// The engine's hot profile, when it was enabled.
    pub hot: Option<HotReport>,
}

impl RunRecord {
    fn panicked(msg: String) -> Self {
        RunRecord {
            setup: Duration::ZERO,
            run: Duration::ZERO,
            class: Class::Panicked,
            cycles: 0,
            insts: 0,
            atomics: 0,
            switches: 0,
            resumes: 0,
            unnecessary_resumes: 0,
            trail: 0,
            sat: false,
            failure: Some(msg),
            hot: None,
        }
    }

    /// The simulated statistics two runs of one cell must agree on,
    /// whatever observers were armed.
    pub fn sim_identity(&self) -> [u64; 6] {
        [
            self.class as u64,
            self.cycles,
            self.insts,
            self.atomics,
            self.switches,
            self.sat as u64,
        ]
    }

    /// Folds this run into a workload fingerprint.
    pub fn push_identity(&self, f: &mut Fingerprint64) {
        for word in self.sim_identity() {
            f.push(word);
        }
        f.push(self.trail);
    }
}

/// What a cell run leaves behind: its record and, unless it panicked,
/// the finished machine.
pub type Finished = (RunRecord, Option<Gpu>);

/// Runs `cell` under `checks`, optionally with the engine's hot profile,
/// timing build + `Gpu::new`, `Gpu::run` and validation through `t`.
/// A panic is caught and recorded as a failed run.
pub fn run_cell(cell: &Cell, scale: &Scale, checks: Checks, hot: bool, t: &mut Tracer) -> Finished {
    let depth = t.depth();
    let result = catch_unwind(AssertUnwindSafe(|| match &cell.job {
        Job::Kernel {
            kind,
            policy,
            oversubscribed,
            plan,
        } => run_kernel(
            *kind,
            *policy,
            *oversubscribed,
            plan.as_ref(),
            scale,
            checks,
            hot,
            t,
        ),
        Job::Litmus {
            policy,
            model,
            case,
            plan,
        } => run_litmus(*policy, *model, case, plan, checks, hot, t),
    }));
    match result {
        Ok((mut rec, gpu)) => {
            rec.failure = judge(cell, &rec, &gpu);
            (rec, Some(gpu))
        }
        Err(payload) => {
            t.unwind_to(depth);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_owned());
            (
                RunRecord::panicked(format!("{}: panicked: {msg}", cell.label())),
                None,
            )
        }
    }
}

/// Why a finished run is a failure, if it is.
fn judge(cell: &Cell, rec: &RunRecord, gpu: &Gpu) -> Option<String> {
    let label = cell.label();
    if let Some(v) = gpu.violations().first() {
        return Some(format!(
            "{label}: {} invariant violation(s), first: {v}",
            gpu.violations().len()
        ));
    }
    if let Some(why) = &rec.failure {
        return Some(format!("{label}: {why}"));
    }
    let ok = match cell.expect {
        Expect::Completes => rec.class == Class::Completed,
        Expect::Deadlocks => rec.class == Class::Deadlocked,
        Expect::Verdict => matches!(rec.class, Class::Completed | Class::Deadlocked),
    };
    (!ok).then(|| format!("{label}: expected {:?}, ended {:?}", cell.expect, rec.class))
}

fn trail_fingerprint(trail: &[u64]) -> u64 {
    let mut f = Fingerprint64::new();
    f.push_seq(trail.iter().copied());
    f.finish()
}

fn record(outcome: &RunOutcome, gpu: &Gpu, setup: Duration, run: Duration) -> RunRecord {
    let s = outcome.summary();
    RunRecord {
        setup,
        run,
        class: Class::of(outcome),
        cycles: s.cycles,
        insts: s.insts,
        atomics: s.atomics,
        switches: s.switches_out + s.switches_in,
        resumes: s.resumes,
        unnecessary_resumes: s.unnecessary_resumes,
        trail: trail_fingerprint(gpu.digest_trail()),
        sat: false,
        failure: None,
        hot: gpu.hot_report(),
    }
}

fn arm(gpu: &mut Gpu, checks: Checks, hot: bool) {
    if checks.oracle {
        gpu.enable_invariant_oracle();
    }
    if checks.digest {
        gpu.enable_digest_trail(DIGEST_WINDOW);
    }
    if hot {
        gpu.enable_hot_profile();
    }
}

#[allow(clippy::too_many_arguments)]
fn run_kernel(
    kind: BenchmarkKind,
    policy: PolicyKind,
    oversubscribed: bool,
    plan: Option<&FaultPlan>,
    scale: &Scale,
    checks: Checks,
    hot: bool,
    t: &mut Tracer,
) -> (RunRecord, Gpu) {
    let policy_box = build_policy(policy);
    let mut params = scale.params;
    params.iterations = params.iterations.saturating_mul(kind.episode_weight());
    let (built, t_build) = t.time("workloads.build", |_| {
        kind.build(&params, policy_box.style())
    });
    let (mut gpu, t_new) = t.time("gpu.new", |_| {
        let mut gpu = Gpu::new(scale.gpu.clone(), built.kernel(), policy_box);
        if oversubscribed {
            gpu.schedule_resource_loss(scale.lost_cu, scale.resource_loss_at);
        }
        if let Some(plan) = plan {
            gpu.install_fault_plan(plan.clone());
        }
        arm(&mut gpu, checks, hot);
        gpu
    });
    let (outcome, t_run) = t.time("gpu.run", |_| gpu.run());
    let (validated, _) = t.time("workloads.validate", |_| built.validate(gpu.backing()));
    let mut rec = record(&outcome, &gpu, t_build + t_new, t_run);
    if outcome.is_completed() {
        rec.failure = validated
            .err()
            .map(|e| format!("post-condition failed: {e}"));
    }
    (rec, gpu)
}

fn run_litmus(
    policy: PolicyKind,
    model: ProgressModel,
    case: &Case,
    plan: &FaultPlan,
    checks: Checks,
    hot: bool,
    t: &mut Tracer,
) -> (RunRecord, Gpu) {
    let ((litmus, num_wgs), t_build) = t.time("workloads.build", |_| case.build(policy));
    let (mut gpu, t_new) = t.time("gpu.new", |_| {
        let kernel = Kernel::new(litmus.program.clone(), num_wgs, WgResources::default());
        let mut gpu = Gpu::new(litmus::lab_gpu_config(), kernel, build_policy(policy));
        gpu.enable_trace();
        gpu.set_trace_filter(TraceFilter::Schedule);
        gpu.install_fault_plan(plan.clone());
        arm(&mut gpu, checks, hot);
        gpu
    });
    let (outcome, t_run) = t.time("gpu.run", |_| gpu.run());
    let (sat, _) = t.time("workloads.validate", |_| {
        outcome.is_completed()
            && gpu.violations().is_empty()
            && litmus
                .finals
                .iter()
                .all(|&(addr, want)| gpu.backing().load(addr) == want)
            && check_obligations(model, &gpu.trace_records(), num_wgs).ok()
    });
    let mut rec = record(&outcome, &gpu, t_build + t_new, t_run);
    rec.sat = sat;
    (rec, gpu)
}

/// Cross-checks one litmus record against the conformance crate's own
/// cell runner: same outcome class, cycles and verdict.
pub fn conformance_agrees(cell: &Cell, rec: &RunRecord) -> Result<(), String> {
    let Job::Litmus {
        policy,
        model,
        case,
        plan,
    } = &cell.job
    else {
        return Ok(());
    };
    let (litmus, num_wgs) = case.build(*policy);
    let out = awg_conformance::run_cell(*policy, *model, &litmus, num_wgs, plan.clone(), None);
    let ours = (
        rec.class == Class::Completed,
        rec.class == Class::Deadlocked,
        rec.cycles,
        rec.sat,
    );
    let theirs = (out.completed, out.deadlocked, out.cycles, out.sat());
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "{}: benchmark saw {ours:?}, run_cell saw {theirs:?}",
            cell.label()
        ))
    }
}
