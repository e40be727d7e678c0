//! The conformance campaign: every policy × progress model × litmus cell
//! under the supervised pool, aggregated into the classification matrix.
//!
//! Cells enumerate in strict matrix order (policy → model → litmus) with
//! stable keys, so the merged report — and the regression CSV — is
//! byte-identical at any `--jobs` and across a killed-and-`--resume`d
//! campaign. Each cell's journal digest covers the serialized litmus spec
//! and adversary plan, so a generator or adversary change invalidates
//! journaled verdicts instead of silently resuming stale ones.
//!
//! The litmus set per model is the fixed per-pattern anchors plus a
//! seeded batch ([`ConformanceConfig::count`], `--count`), filtered to
//! the litmuses whose termination *demands* that model; the Fair set
//! additionally carries the three hand-written litmus kernels from
//! `awg_workloads::litmus`. The committed golden matrix lives at
//! `results/conformance_expected.csv`; [`run_supervised`] returns the
//! diff against whatever expected text the caller loaded.

use awg_conformance::generator::{anchor_specs, generate_batch, LitmusSpec};
use awg_conformance::matrix::ConformanceMatrix;
use awg_conformance::model::{adversary_plan, ProgressModel, ALL_MODELS};
use awg_conformance::{run_cell, CellOutcome};
use awg_core::policies::{build_policy, PolicyKind};
use awg_gpu::CancelCause;
use awg_sim::json::Value;
use awg_sim::{Cycle, Fingerprint64};
use awg_workloads::litmus::{self, Litmus, LitmusBuilder};

use crate::artifact::{
    as_u64, cause_from_json, cause_to_json, field, get_arr, get_u64, num, obj, Artifact,
};
use crate::pool;
use crate::supervisor::{job_digest, sim_job, JobCtl, Supervisor};
use crate::{Cell, Report, Row, Scale};

/// Default size of the seeded litmus batch (`--count`).
pub const DEFAULT_COUNT: usize = 8;

/// Default master seed of the batch (`--gen-seed`).
pub const DEFAULT_GEN_SEED: u64 = 0xC04F;

/// Campaign knobs, filled from `conformance` subcommand flags.
#[derive(Debug, Clone, Copy)]
pub struct ConformanceConfig {
    /// Seeded litmuses generated on top of the fixed anchors.
    pub count: usize,
    /// Master seed of the generated batch.
    pub gen_seed: u64,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            count: DEFAULT_COUNT,
            gen_seed: DEFAULT_GEN_SEED,
        }
    }
}

/// The policy arm: every fixed [`PolicyKind`], baseline and IFP designs
/// alike — the matrix is exactly about *not* assuming who conforms.
pub fn policies() -> [PolicyKind; 9] {
    [
        PolicyKind::Baseline,
        PolicyKind::Sleep,
        PolicyKind::Timeout,
        PolicyKind::MonRsAll,
        PolicyKind::MonRAll,
        PolicyKind::MonNrAll,
        PolicyKind::MonNrOne,
        PolicyKind::Awg,
        PolicyKind::MinResume,
    ]
}

/// One litmus in a model's test set: a generated spec or one of the
/// hand-written kernels.
#[derive(Clone)]
enum Case {
    Generated(LitmusSpec),
    Hand(&'static str, LitmusBuilder),
}

impl Case {
    fn name(&self) -> String {
        match self {
            Case::Generated(spec) => spec.name(),
            Case::Hand(name, _) => (*name).to_owned(),
        }
    }

    /// The serialized identity that participates in the job digest.
    fn identity(&self) -> String {
        match self {
            Case::Generated(spec) => spec.to_json(),
            Case::Hand(name, _) => format!("hand:{name}"),
        }
    }

    /// A stable per-litmus adversary seed ([`adversary_plan`] already
    /// salts per model).
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

/// The litmus test set for `model`: anchors and generated specs whose
/// demand is exactly `model`, plus (for Fair) the hand-written kernels.
fn cases_for(model: ProgressModel, generated: &[LitmusSpec]) -> Vec<Case> {
    let mut cases = Vec::new();
    if model == ProgressModel::Fair {
        for (name, builder) in litmus::all() {
            cases.push(Case::Hand(name, builder));
        }
    }
    for spec in anchor_specs().into_iter().chain(generated.iter().copied()) {
        if spec.demand() == model {
            cases.push(Case::Generated(spec));
        }
    }
    cases
}

/// A journaled cell verdict: the observations [`run_cell`] distilled.
impl Artifact for CellOutcome {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("completed", num(self.completed as u64)),
            ("deadlocked", num(self.deadlocked as u64)),
            ("cycles", num(self.cycles)),
            ("switches_out", num(self.switches_out)),
            ("oracle_violations", num(self.oracle_violations)),
            ("post_failures", num(self.post_failures)),
            ("obligation_ok", num(self.obligation_ok as u64)),
            (
                "notes",
                Value::Array(self.notes.iter().map(|n| Value::Str(n.clone())).collect()),
            ),
        ];
        if let Some((at, cause)) = self.cancelled {
            fields.push(("cancelled_at", num(at)));
            fields.push(("cancel_cause", cause_to_json(cause)));
        }
        obj(fields)
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let flag = |key: &str| -> Result<bool, String> { Ok(get_u64(value, key)? != 0) };
        let cancelled = match value.get("cancelled_at") {
            None | Some(Value::Null) => None,
            Some(at) => Some((
                as_u64(at, "cancelled_at")?,
                cause_from_json(field(value, "cancel_cause")?)?,
            )),
        };
        let notes = get_arr(value, "notes")?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| "note is not a string".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CellOutcome {
            completed: flag("completed")?,
            deadlocked: flag("deadlocked")?,
            cancelled,
            cycles: get_u64(value, "cycles")?,
            switches_out: get_u64(value, "switches_out")?,
            oracle_violations: get_u64(value, "oracle_violations")?,
            post_failures: get_u64(value, "post_failures")?,
            obligation_ok: flag("obligation_ok")?,
            notes,
        })
    }

    fn cancelled(&self) -> Option<(Cycle, CancelCause)> {
        self.cancelled
    }
}

/// The assembled campaign result.
#[derive(Debug)]
pub struct ConformanceOutcome {
    /// The human-facing matrix report (markdown + notes).
    pub report: Report,
    /// The machine-facing matrix ([`ConformanceMatrix::to_csv`] is the
    /// golden regression surface).
    pub matrix: ConformanceMatrix,
    /// Campaign-health failures: job panics, watchdog cancellations, and
    /// invariant-oracle violations. A deadlocking Baseline cell is a
    /// matrix *verdict*, not a failure; a cell that cannot produce a
    /// verdict is.
    pub failures: usize,
    /// Distinct litmus names per model set, for the report footer.
    pub litmus_counts: [usize; 3],
}

/// Runs the full conformance matrix under `sup`. Deterministic at any
/// pool width: jobs enumerate and merge in strict (policy, model, litmus)
/// order.
pub fn run_supervised(
    scale: &Scale,
    cfg: &ConformanceConfig,
    sup: &Supervisor,
) -> ConformanceOutcome {
    let generated = generate_batch(cfg.gen_seed, cfg.count);
    let sets: Vec<(ProgressModel, Vec<Case>)> = ALL_MODELS
        .iter()
        .map(|&m| (m, cases_for(m, &generated)))
        .collect();

    let mut jobs = Vec::new();
    for policy in policies() {
        for (model, cases) in &sets {
            let model = *model;
            for case in cases {
                let key = format!(
                    "conformance/{}/{}/{}",
                    policy.label(),
                    model.label(),
                    case.name()
                );
                let plan = adversary_plan(model, case.adversary_seed());
                let digest = job_digest(&key, scale, &[&case.identity(), &plan.to_json()]);
                let case = case.clone();
                jobs.push(sim_job(key, digest, move |ctl: &JobCtl| {
                    let (litmus, num_wgs) = case.build(policy);
                    run_cell(policy, model, &litmus, num_wgs, plan, Some(ctl.watchdog()))
                }));
            }
        }
    }

    let mut outputs = sup.run(jobs).into_iter();
    let mut report = Report {
        title: "Conformance matrix: policy × progress model".into(),
        columns: vec![
            "claimed".into(),
            "OBE".into(),
            "LOBE".into(),
            "Fair".into(),
            "classified".into(),
        ],
        rows: Vec::new(),
        notes: Vec::new(),
    };
    let mut matrix = ConformanceMatrix::new(&policies());
    let mut failures = 0usize;

    for policy in policies() {
        for (model, cases) in &sets {
            for case in cases {
                let out = outputs.next().expect("one output per enumerated job");
                let label = format!("{}/{}/{}", policy.label(), model.label(), case.name());
                let o = match &out.result {
                    Ok(o) => o,
                    Err(e) => {
                        failures += 1;
                        report.note(format!("{label}: job failed: {e}"));
                        matrix
                            .row_mut(policy)
                            .verdict_mut(*model)
                            .record(false, false);
                        continue;
                    }
                };
                if o.oracle_violations > 0 {
                    failures += 1;
                    report.note(format!(
                        "{label}: ORACLE: {} invariant violation(s)",
                        o.oracle_violations
                    ));
                }
                if let Some((at, cause)) = o.cancelled {
                    failures += 1;
                    report.note(format!("{label}: cancelled at cycle {at} ({cause})"));
                }
                matrix
                    .row_mut(policy)
                    .verdict_mut(*model)
                    .record(o.sat(), o.deadlocked);
                // Expected failures (Baseline stranded by the CU flap) are
                // matrix content; note only the *diagnosis* for unsat
                // cells so the report explains every non-sat verdict.
                if !o.sat() {
                    let why = if o.deadlocked {
                        "deadlocked".to_owned()
                    } else if !o.completed {
                        "did not complete".to_owned()
                    } else if o.post_failures > 0 {
                        format!("{} post-condition failure(s)", o.post_failures)
                    } else if !o.obligation_ok {
                        "schedule obligation violated".to_owned()
                    } else {
                        "oracle violation".to_owned()
                    };
                    let detail = o
                        .notes
                        .first()
                        .map(|n| format!("; {n}"))
                        .unwrap_or_default();
                    report.note(format!("{label}: {why}{detail}"));
                }
            }
        }
    }

    for row in &matrix.rows {
        let claimed = row.policy.progress_claim();
        let classified = row.classified();
        let mut cells = vec![Cell::Text(claimed.label().into())];
        for v in &row.verdicts {
            cells.push(match v.word() {
                "deadlock" => Cell::Deadlock,
                word => Cell::Text(word.into()),
            });
        }
        cells.push(Cell::Text(row.classified_label().into()));
        report.push(Row::new(row.policy.label(), cells));
        if classified.is_none_or(|c| c < claimed) {
            report.note(format!(
                "{}: claims {} but classified {} (informational)",
                row.policy.label(),
                claimed.label(),
                row.classified().map_or("none", |c| c.label()),
            ));
        }
    }
    let litmus_counts = [sets[0].1.len(), sets[1].1.len(), sets[2].1.len()];
    report.note(format!(
        "test sets: {} OBE, {} LOBE, {} Fair litmus(es); gen seed {:#x}, count {}",
        litmus_counts[0], litmus_counts[1], litmus_counts[2], cfg.gen_seed, cfg.count
    ));
    report.note(if failures == 0 {
        "campaign healthy: no panics, cancellations, or oracle violations.".into()
    } else {
        format!("{failures} campaign failure(s).")
    });

    ConformanceOutcome {
        report,
        matrix,
        failures,
        litmus_counts,
    }
}

/// Serial, unjournaled entry point (tests and quick scripting).
pub fn run_checked(scale: &Scale, cfg: &ConformanceConfig) -> ConformanceOutcome {
    run_supervised(scale, cfg, &Supervisor::bare(pool::Pool::serial()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ConformanceConfig {
        ConformanceConfig {
            count: 0, // anchors + hand-written only
            gen_seed: DEFAULT_GEN_SEED,
        }
    }

    #[test]
    fn cell_run_round_trips_through_the_journal_codec() {
        let run = CellOutcome {
            completed: true,
            deadlocked: false,
            cancelled: Some((1234, CancelCause::CycleBudget(5000))),
            cycles: 9876,
            switches_out: 4,
            oracle_violations: 0,
            post_failures: 1,
            obligation_ok: true,
            notes: vec!["post-state 0x40: expected 7, got 0".into()],
        };
        let text = Artifact::to_json(&run).to_json();
        let back = CellOutcome::from_json(&awg_sim::json::parse(&text).unwrap()).unwrap();
        assert_eq!(run.completed, back.completed);
        assert_eq!(run.deadlocked, back.deadlocked);
        assert_eq!(run.cancelled, back.cancelled);
        assert_eq!(run.cycles, back.cycles);
        assert_eq!(run.switches_out, back.switches_out);
        assert_eq!(run.oracle_violations, back.oracle_violations);
        assert_eq!(run.post_failures, back.post_failures);
        assert_eq!(run.obligation_ok, back.obligation_ok);
        assert_eq!(run.notes, back.notes);
        assert_eq!(Artifact::cancelled(&run), Artifact::cancelled(&back));
    }

    #[test]
    fn every_model_has_a_non_empty_test_set_at_count_zero() {
        for model in ALL_MODELS {
            let cases = cases_for(model, &[]);
            assert!(!cases.is_empty(), "{model:?} set is empty");
            let names: std::collections::HashSet<_> = cases.iter().map(Case::name).collect();
            assert_eq!(names.len(), cases.len(), "{model:?} set has duplicates");
        }
    }

    #[test]
    fn anchors_only_matrix_classifies_baseline_none_and_awg_fair() {
        let scale = Scale::quick();
        let out = run_checked(&scale, &tiny());
        assert_eq!(out.failures, 0, "notes: {:?}", out.report.notes);
        let csv = out.matrix.to_csv();
        let row = |p: &str| -> String {
            csv.lines()
                .find(|l| l.starts_with(&format!("{p},")))
                .unwrap_or_else(|| panic!("no row for {p} in:\n{csv}"))
                .to_owned()
        };
        assert!(
            row("Baseline").ends_with(",none"),
            "Baseline must satisfy no model:\n{csv}\nnotes: {:?}",
            out.report.notes
        );
        assert!(
            row("AWG").ends_with(",Fair"),
            "AWG must classify Fair:\n{csv}\nnotes: {:?}",
            out.report.notes
        );
    }
}
