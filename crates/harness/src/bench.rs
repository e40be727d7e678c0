//! Host-performance campaign: how fast does the simulator itself run?
//!
//! Runs a (benchmark × policy) matrix with the telemetry hub's
//! self-profiling on and reports, per job, the simulated cycle count, the
//! job's host wall-clock, and the resulting simulation rate — plus the
//! campaign aggregate via [`CampaignProfile`]. This is the `awg-repro
//! bench` subcommand: the number to watch when changing the event loop or
//! the sweep pool's scheduling.
//!
//! Wall-clocks vary run to run, so this report is *not* byte-deterministic
//! across invocations — only its row/column structure and the simulated
//! cycle counts are.

use std::path::{Path, PathBuf};

use awg_core::policies::{build_policy, PolicyKind};
use awg_sim::json::Value;
use awg_workloads::BenchmarkKind;

use crate::pool::{self, CampaignProfile};
use crate::run::{ExperimentConfig, Instrumentation};
use crate::supervisor::{job_digest, sim_job, JobCtl, Supervisor};
use crate::{Cell, Report, Row, Scale};

/// The benchmark arm (one spin lock, one ticket lock, one barrier — the
/// chaos matrix's suite, so `bench` and `chaos` numbers are comparable).
pub fn benchmarks() -> [BenchmarkKind; 3] {
    crate::chaos::benchmarks()
}

/// The policy arm (the chaos matrix's IFP designs).
pub fn policies() -> [PolicyKind; 5] {
    crate::chaos::policies()
}

/// Runs the host-performance matrix under `sup`. Returns the per-job
/// report and the campaign aggregate (total wall-clock, absorbed run
/// stats, and simulated cycles per host-second).
pub fn run_supervised(scale: &Scale, sup: &Supervisor) -> (Report, CampaignProfile) {
    let mut r = Report::new(
        "Bench: simulator host performance (self-profile per job)",
        vec!["sim Mcycles", "host ms", "Mcycles/s"],
    );
    let mut jobs = Vec::new();
    for kind in benchmarks() {
        for policy in policies() {
            let key = format!("bench/{}/{}", kind.abbreviation(), policy.label());
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
        }
    }
    let mut profile = CampaignProfile::default();
    let mut outputs = sup.run(jobs).into_iter();
    for kind in benchmarks() {
        for policy in policies() {
            let out = outputs.next().expect("one job per matrix cell");
            profile.absorb_job(&out);
            let label = format!("{}/{}", kind.abbreviation(), policy.label());
            let cells = match &out.result {
                Ok(res) => match &res.profile {
                    Some(p) => {
                        let secs = p.total_wall.as_secs_f64();
                        vec![
                            Cell::Num(p.sim_cycles as f64 / 1e6),
                            Cell::Num(secs * 1e3),
                            Cell::Num(if secs > 0.0 {
                                p.sim_cycles as f64 / secs / 1e6
                            } else {
                                0.0
                            }),
                        ]
                    }
                    None => vec![Cell::Missing; 3],
                },
                Err(e) => vec![pool::error_cell(e); 3],
            };
            r.push(Row::new(label, cells));
        }
    }
    r.note(format!(
        "Aggregate: {}",
        profile.summary_line(sup.pool().jobs())
    ));
    r.note("Host wall-clocks vary run to run; only the simulated cycle counts are deterministic.");
    (r, profile)
}

/// Host provenance recorded in a bench snapshot, so a trajectory of
/// `BENCH_*.json` files can be read without guessing what machine and
/// build produced each point. Absent from snapshots written before the
/// field existed (they still parse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchMeta {
    /// Logical cores available to the host process.
    pub host_cores: usize,
    /// Short git revision of the working tree (`"unknown"` outside a
    /// checkout).
    pub git_rev: String,
    /// `"release"` or `"debug"` — comparing across profiles is
    /// meaningless, and the trajectory table makes that visible.
    pub cargo_profile: String,
    /// Number of jobs in the campaign matrix.
    pub jobs: usize,
}

impl BenchMeta {
    /// Captures the current host/build environment for a `jobs`-cell
    /// campaign.
    pub fn capture(jobs: usize) -> Self {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        BenchMeta {
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev,
            cargo_profile: if cfg!(debug_assertions) {
                "debug".to_owned()
            } else {
                "release".to_owned()
            },
            jobs,
        }
    }

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("host_cores".to_owned(), Value::Num(self.host_cores as f64)),
            ("git_rev".to_owned(), Value::Str(self.git_rev.clone())),
            (
                "cargo_profile".to_owned(),
                Value::Str(self.cargo_profile.clone()),
            ),
            ("jobs".to_owned(), Value::Num(self.jobs as f64)),
        ])
    }

    fn from_json(v: &Value) -> Option<Self> {
        Some(BenchMeta {
            host_cores: v.get("host_cores")?.as_f64()? as usize,
            git_rev: v.get("git_rev")?.as_str()?.to_owned(),
            cargo_profile: v.get("cargo_profile")?.as_str()?.to_owned(),
            jobs: v.get("jobs")?.as_f64()? as usize,
        })
    }
}

/// Serializes a bench campaign's aggregate as a machine-readable snapshot:
/// the job list with per-job wall-clocks, the campaign totals, the
/// aggregate simulation rate, and the host provenance [`BenchMeta`].
pub fn profile_to_json(profile: &CampaignProfile, workers: usize) -> Value {
    let jobs: Vec<Value> = profile
        .timings
        .iter()
        .map(|(key, wall)| {
            Value::Object(vec![
                ("key".to_owned(), Value::Str(key.clone())),
                ("wall_ns".to_owned(), Value::Num(wall.as_nanos() as f64)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("bench".to_owned(), Value::Str("awg-sim".to_owned())),
        ("workers".to_owned(), Value::Num(workers as f64)),
        (
            "meta".to_owned(),
            BenchMeta::capture(profile.timings.len()).to_json(),
        ),
        ("jobs".to_owned(), Value::Array(jobs)),
        (
            "total_wall_ns".to_owned(),
            Value::Num(profile.total_wall().as_nanos() as f64),
        ),
        (
            "sim_cycles".to_owned(),
            Value::Num(profile.sim_cycles as f64),
        ),
        ("events".to_owned(), Value::Num(profile.events as f64)),
        (
            "mcycles_per_sec".to_owned(),
            Value::Num(profile.cycles_per_sec() / 1e6),
        ),
        (
            "events_per_sec".to_owned(),
            Value::Num(profile.events_per_sec()),
        ),
    ])
}

/// Writes the bench snapshot to `dir/BENCH_<timestamp>.json` (the timestamp
/// is seconds since the Unix epoch) and returns the path.
///
/// # Errors
///
/// Propagates directory-creation and write errors.
pub fn write_bench_json(
    profile: &CampaignProfile,
    workers: usize,
    dir: &Path,
) -> std::io::Result<PathBuf> {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{stamp}.json"));
    let mut text = profile_to_json(profile, workers).to_json();
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

/// A parsed `BENCH_*.json` snapshot — the subset of the document the
/// trajectory tools need. Snapshots written before [`BenchMeta`] existed
/// parse with `meta: None`.
#[derive(Debug, Clone)]
pub struct BenchSnapshot {
    /// Worker-thread count of the campaign pool.
    pub workers: usize,
    /// Per-job `(key, wall_ns)` timings.
    pub jobs: Vec<(String, f64)>,
    /// Campaign wall-clock, nanoseconds.
    pub total_wall_ns: f64,
    /// Total simulated cycles across jobs.
    pub sim_cycles: f64,
    /// Total scheduled events across jobs.
    pub events: f64,
    /// The headline aggregate: simulated megacycles per host second.
    pub mcycles_per_sec: f64,
    /// Host provenance, when the snapshot recorded it.
    pub meta: Option<BenchMeta>,
}

impl BenchSnapshot {
    /// Parses a snapshot document produced by [`profile_to_json`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        if v.get("bench").and_then(Value::as_str) != Some("awg-sim") {
            return Err("not an awg-sim bench snapshot (missing bench:\"awg-sim\")".into());
        }
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("snapshot field {key:?} missing or non-numeric"))
        };
        let jobs = v
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or("snapshot field \"jobs\" missing")?
            .iter()
            .map(|j| {
                let key = j
                    .get("key")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_owned();
                let wall = j.get("wall_ns").and_then(Value::as_f64).unwrap_or(0.0);
                (key, wall)
            })
            .collect();
        Ok(BenchSnapshot {
            workers: num("workers")? as usize,
            jobs,
            total_wall_ns: num("total_wall_ns")?,
            sim_cycles: num("sim_cycles")?,
            events: num("events")?,
            mcycles_per_sec: num("mcycles_per_sec")?,
            meta: v.get("meta").and_then(BenchMeta::from_json),
        })
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    ///
    /// Reports unreadable files, invalid JSON, and schema mismatches, each
    /// prefixed with the path.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = awg_sim::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&v).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The verdict of `bench --compare`: the current aggregate rate against a
/// baseline snapshot under a regression budget.
#[derive(Debug, Clone)]
pub struct CompareVerdict {
    /// Aggregate Mcycles/s of the run being judged.
    pub current_mcps: f64,
    /// Aggregate Mcycles/s of the baseline snapshot.
    pub baseline_mcps: f64,
    /// Relative delta in percent (positive = faster than baseline).
    pub delta_pct: f64,
    /// The regression budget the comparison ran under, in percent.
    pub max_regress_pct: f64,
    /// Whether the current rate fell below
    /// `baseline * (1 - max_regress_pct/100)`.
    pub regressed: bool,
}

impl CompareVerdict {
    /// One-line human rendering (the CLI prints this verbatim).
    pub fn summary_line(&self) -> String {
        let verdict = if self.regressed { "REGRESSION" } else { "ok" };
        if self.max_regress_pct < 0.0 {
            // A negative budget is an inverted gate: the run must *beat*
            // the baseline by at least |budget| percent.
            format!(
                "compare: {:.2} Mcycles/s vs baseline {:.2} Mcycles/s ({:+.1}%, required \
                 speedup {:.2}x): {verdict}",
                self.current_mcps,
                self.baseline_mcps,
                self.delta_pct,
                1.0 - self.max_regress_pct / 100.0,
            )
        } else {
            format!(
                "compare: {:.2} Mcycles/s vs baseline {:.2} Mcycles/s ({:+.1}%, budget \
                 -{:.1}%): {verdict}",
                self.current_mcps, self.baseline_mcps, self.delta_pct, self.max_regress_pct,
            )
        }
    }
}

/// Judges `current_mcps` against `baseline` with a `max_regress_pct`
/// budget. A run is a regression iff it is more than `max_regress_pct`
/// percent slower than the baseline aggregate; being faster never trips.
///
/// A *negative* budget inverts the gate into a required speedup: with
/// `max_regress_pct = -200` the run must reach at least
/// `baseline * 3.0` (that is, `1 - (-200)/100`) to pass. CI uses this to
/// pin a deliberate optimisation so it cannot silently erode back to the
/// old engine's rate.
pub fn compare(
    current_mcps: f64,
    baseline: &BenchSnapshot,
    max_regress_pct: f64,
) -> CompareVerdict {
    let baseline_mcps = baseline.mcycles_per_sec;
    let delta_pct = if baseline_mcps > 0.0 {
        (current_mcps - baseline_mcps) / baseline_mcps * 100.0
    } else {
        0.0
    };
    CompareVerdict {
        current_mcps,
        baseline_mcps,
        delta_pct,
        max_regress_pct,
        regressed: current_mcps < baseline_mcps * (1.0 - max_regress_pct / 100.0),
    }
}

/// Lists `BENCH_*.json` files under `dir`, sorted by filename — the epoch
/// timestamp in the name makes that chronological order.
pub fn snapshot_paths(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

/// Renders the host-performance trajectory under `dir` as a markdown
/// table, one row per `BENCH_*.json` snapshot in chronological order.
/// Unparseable snapshots become a row noting the error rather than
/// aborting the whole table.
///
/// # Errors
///
/// Reports an unreadable directory or an empty trajectory.
pub fn history_table(dir: &Path) -> Result<String, String> {
    let paths = snapshot_paths(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if paths.is_empty() {
        return Err(format!("{}: no BENCH_*.json snapshots", dir.display()));
    }
    let mut out = String::from(
        "| snapshot | Mcycles/s | sim Mcycles | wall ms | workers | jobs | rev | profile |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for path in &paths {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        match BenchSnapshot::read(path) {
            Ok(s) => {
                let (rev, profile) = match &s.meta {
                    Some(m) => (m.git_rev.clone(), m.cargo_profile.clone()),
                    None => ("-".to_owned(), "-".to_owned()),
                };
                out.push_str(&format!(
                    "| {name} | {:.2} | {:.2} | {:.1} | {} | {} | {rev} | {profile} |\n",
                    s.mcycles_per_sec,
                    s.sim_cycles / 1e6,
                    s.total_wall_ns / 1e6,
                    s.workers,
                    s.jobs.len(),
                ));
            }
            Err(e) => out.push_str(&format!("| {name} | unparseable: {e} | | | | | | |\n")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;

    #[test]
    fn bench_matrix_profiles_every_cell() {
        let (r, profile) = run_supervised(&Scale::quick(), &Supervisor::bare(Pool::new(2)));
        assert_eq!(r.rows.len(), benchmarks().len() * policies().len());
        for row in &r.rows {
            let mcycles = row.cells[0].as_num().unwrap_or(0.0);
            assert!(mcycles > 0.0, "{}: {:?}", row.label, row.cells);
        }
        assert_eq!(profile.timings.len(), r.rows.len());
        assert!(profile.sim_cycles > 0);
        assert!(profile.cycles_per_sec() > 0.0);
        assert!(
            profile.stats.counters().count() > 0,
            "absorbed run stats must be non-empty"
        );
    }

    #[test]
    fn bench_snapshot_serializes_and_writes() {
        let mut profile = CampaignProfile::default();
        profile.timings.push((
            "bench/SPM_G/AWG".into(),
            std::time::Duration::from_millis(3),
        ));
        profile.sim_cycles = 1_000_000;
        profile.profiled_wall = std::time::Duration::from_millis(2);
        profile.events = 500;
        let v = profile_to_json(&profile, 4);
        let text = v.to_json();
        assert!(text.contains("\"bench\":\"awg-sim\""), "{text}");
        assert!(text.contains("\"workers\":4"), "{text}");
        assert!(text.contains("bench/SPM_G/AWG"), "{text}");
        let parsed = awg_sim::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("sim_cycles").and_then(Value::as_f64),
            Some(1_000_000.0)
        );

        let dir = std::env::temp_dir().join(format!("awg-bench-{}", std::process::id()));
        let path = write_bench_json(&profile, 4, &dir).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("BENCH_") && name.ends_with(".json"),
            "{name}"
        );
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(on_disk.ends_with('\n'));
        awg_sim::json::parse(&on_disk).expect("written snapshot parses");

        let snap = BenchSnapshot::read(&path).expect("snapshot round-trips");
        assert_eq!(snap.workers, 4);
        assert_eq!(snap.jobs.len(), 1);
        assert_eq!(snap.sim_cycles, 1_000_000.0);
        let meta = snap.meta.expect("fresh snapshots carry host meta");
        assert!(meta.host_cores >= 1);
        assert_eq!(meta.jobs, 1);
        assert!(meta.cargo_profile == "debug" || meta.cargo_profile == "release");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_meta_snapshots_still_parse() {
        // The schema before this PR: no "meta" object.
        let text = r#"{"bench":"awg-sim","workers":2,"jobs":[{"key":"bench/SPM_G/AWG","wall_ns":3000000}],"total_wall_ns":3000000,"sim_cycles":1000000,"events":500,"mcycles_per_sec":333.3,"events_per_sec":166666.0}"#;
        let v = awg_sim::json::parse(text).unwrap();
        let snap = BenchSnapshot::from_json(&v).expect("old snapshots stay parseable");
        assert!(snap.meta.is_none());
        assert_eq!(snap.workers, 2);
        assert!((snap.mcycles_per_sec - 333.3).abs() < 1e-9);
    }

    #[test]
    fn compare_trips_only_past_the_budget() {
        let baseline = BenchSnapshot {
            workers: 2,
            jobs: Vec::new(),
            total_wall_ns: 1e9,
            sim_cycles: 1e9,
            events: 1e6,
            mcycles_per_sec: 100.0,
            meta: None,
        };
        // 5% slower under a 10% budget: fine.
        let v = compare(95.0, &baseline, 10.0);
        assert!(!v.regressed, "{}", v.summary_line());
        assert!((v.delta_pct + 5.0).abs() < 1e-9);
        // 20% slower under a 10% budget: regression.
        let v = compare(80.0, &baseline, 10.0);
        assert!(v.regressed, "{}", v.summary_line());
        assert!(v.summary_line().contains("REGRESSION"));
        // Faster never trips, even with a zero budget.
        assert!(!compare(150.0, &baseline, 0.0).regressed);
    }

    #[test]
    fn negative_budget_is_a_required_speedup_gate() {
        let baseline = BenchSnapshot {
            workers: 1,
            jobs: Vec::new(),
            total_wall_ns: 1e9,
            sim_cycles: 1e9,
            events: 1e6,
            mcycles_per_sec: 100.0,
            meta: None,
        };
        // -200% budget demands current >= 3x baseline.
        let v = compare(299.0, &baseline, -200.0);
        assert!(
            v.regressed,
            "2.99x must fail the 3x gate: {}",
            v.summary_line()
        );
        assert!(v.summary_line().contains("required speedup 3.00x"));
        let v = compare(301.0, &baseline, -200.0);
        assert!(
            !v.regressed,
            "3.01x must pass the 3x gate: {}",
            v.summary_line()
        );
        // Merely matching the baseline is a regression under any
        // negative budget.
        assert!(compare(100.0, &baseline, -0.5).regressed);
    }

    #[test]
    fn history_table_orders_snapshots_and_tolerates_junk() {
        let dir = std::env::temp_dir().join(format!("awg-hist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (stamp, rate) in [(100u64, 10.0), (200, 20.0)] {
            let text = format!(
                r#"{{"bench":"awg-sim","workers":1,"jobs":[],"total_wall_ns":1.0,"sim_cycles":1.0,"events":1.0,"mcycles_per_sec":{rate},"events_per_sec":1.0}}"#
            );
            std::fs::write(dir.join(format!("BENCH_{stamp}.json")), text).unwrap();
        }
        std::fs::write(dir.join("BENCH_150.json"), "not json at all").unwrap();
        std::fs::write(dir.join("unrelated.txt"), "ignored").unwrap();
        let table = history_table(&dir).unwrap();
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 2 + 3, "header + separator + three snapshots");
        assert!(rows[2].contains("BENCH_100.json") && rows[2].contains("10.00"));
        assert!(rows[3].contains("BENCH_150.json") && rows[3].contains("unparseable"));
        assert!(rows[4].contains("BENCH_200.json") && rows[4].contains("20.00"));
        std::fs::remove_dir_all(&dir).ok();

        assert!(history_table(Path::new("/nonexistent-awg")).is_err());
    }
}
