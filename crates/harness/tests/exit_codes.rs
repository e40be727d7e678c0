//! The front end's exit-code contract, asserted through the real binary:
//! every code in `awg_harness::exit`'s table is reachable and means what
//! the table says.

use std::path::PathBuf;
use std::process::{Command, Output};

use awg_harness::exit::{
    EXIT_CONFORMANCE, EXIT_FAIL, EXIT_PARTIAL, EXIT_PLAN, EXIT_REGRESSION, EXIT_USAGE,
};

fn awg_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_awg-repro"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("awg-exit-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bare_invocation_prints_help_with_the_exit_table_and_succeeds() {
    let out = awg_repro(&[]);
    assert!(out.status.success(), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("Exit codes:"), "{stderr}");
    // The table documents the new partial-completion code.
    assert!(stderr.contains("partial"), "{stderr}");
}

#[test]
fn unknown_command_is_a_usage_error() {
    // Unknown names, stray operands, and subcommands and flags this binary
    // does not have (`checkpoint`, `restore`, `--retries`,
    // `--checkpoint-*`), before or after the command: each is refused
    // before anything runs.
    for args in [
        &["no-such-figure"][..],
        &["--quick", "chaos", "--checkpoint-every", "2000"][..],
        &["--quick", "all", "--retries", "1"][..],
        &[
            "--quick",
            "checkpoint",
            "spm_g",
            "awg",
            "--snapshot",
            "run.ckpt",
        ][..],
        &["--quick", "restore", "run.ckpt", "spm_g", "awg", "--verify"][..],
        &["--retries", "1", "fig5"][..],
        &["--checkpoint-dir", "ckpt", "fig5"][..],
        &["--checkpoint-every", "2000", "fig5"][..],
    ] {
        let out = awg_repro(args);
        assert_eq!(out.status.code(), Some(EXIT_USAGE as i32), "{args:?}");
    }
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    for args in [
        &["--journal"][..],
        &["--resume"][..],
        &["--job-deadline"][..],
        &["--job-cycle-budget"][..],
        &["--job-deadline", "0", "fig5"][..],
        &["--job-cycle-budget", "0", "fig5"][..],
    ] {
        let out = awg_repro(args);
        assert_eq!(out.status.code(), Some(EXIT_USAGE as i32), "{args:?}");
    }
}

#[test]
fn journal_and_resume_are_mutually_exclusive() {
    let out = awg_repro(&["--journal", "a.jsonl", "--resume", "b.jsonl", "fig5"]);
    assert_eq!(out.status.code(), Some(EXIT_USAGE as i32));
}

#[test]
fn successful_campaign_exits_zero() {
    let out = awg_repro(&["--quick", "fig5"]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stdout).contains("Fig 5"));
}

#[test]
fn asm_with_more_wgs_than_wg_ids_fails_with_a_message() {
    let kernel = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../kernels/ticket_lock.s");
    let out = awg_repro(&["asm", kernel.to_str().unwrap(), "--wgs", "5000000000"]);
    assert_eq!(out.status.code(), Some(EXIT_FAIL as i32), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("5000000000 WGs"), "{stderr}");
}

#[test]
fn malformed_fault_plan_exits_with_the_plan_code() {
    let dir = temp_dir("plan");
    let plan = dir.join("bad-plan.json");
    std::fs::write(&plan, "{this is not a fault plan").unwrap();
    let out = awg_repro(&["replay", plan.to_str().unwrap(), "TB_LG", "baseline"]);
    assert_eq!(out.status.code(), Some(EXIT_PLAN as i32));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_event_cu_loss_plan_replays_the_what_if() {
    // The §VI what-if "CU n dies at cycle 7000" on quick SPM_G under AWG,
    // which completes at cycle 18,104 unperturbed.
    let dir = temp_dir("what-if");
    for (cu, cycles) in [(1, 23_318), (0, 70_709)] {
        let plan = dir.join(format!("cu{cu}-at-7000.json"));
        std::fs::write(
            &plan,
            format!(r#"{{"seed": 0, "events": [{{"at": 7000, "kind": "cu_loss", "cu": {cu}}}]}}"#),
        )
        .unwrap();
        let out = awg_repro(&["--quick", "replay", plan.to_str().unwrap(), "spm_g", "awg"]);
        assert_eq!(out.status.code(), Some(0), "CU {cu}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!(
                "completed and validated: completed in {cycles} cycles"
            )),
            "CU {cu}: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_jobs_emit_a_partial_report_and_the_partial_code() {
    // A wall deadline no job can meet turns every simulated job into a
    // typed timeout row; the campaign still emits its report but must
    // signal partial completion. (`priority` renders per-cell typed
    // errors, and its runs are long enough to hit the wall-clock poll.)
    let out = awg_repro(&["--quick", "--job-deadline", "0.000000001", "priority"]);
    assert_eq!(out.status.code(), Some(EXIT_PARTIAL as i32), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ERROR"), "typed rows in report: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("INCOMPLETE"), "{stderr}");
}

#[test]
fn conformance_regression_exits_with_the_conformance_code() {
    let dir = temp_dir("conformance");
    let golden = dir.join("expected.csv");

    // No committed golden at the given path: the matrix cannot be checked,
    // which is itself a conformance failure (CI must not silently pass).
    let missing = awg_repro(&[
        "--quick",
        "conformance",
        "--count",
        "0",
        "--expected",
        golden.to_str().unwrap(),
    ]);
    assert_eq!(
        missing.status.code(),
        Some(EXIT_CONFORMANCE as i32),
        "{missing:?}"
    );
    assert!(
        String::from_utf8_lossy(&missing.stderr).contains("BLESS=1"),
        "the failure must say how to bless: {missing:?}"
    );

    // A golden that disagrees in one cell is a regression with a precise
    // diff; a blessed golden matches and exits zero.
    let bless = Command::new(env!("CARGO_BIN_EXE_awg-repro"))
        .args([
            "--quick",
            "conformance",
            "--count",
            "0",
            "--expected",
            golden.to_str().unwrap(),
        ])
        .env("BLESS", "1")
        .output()
        .expect("binary runs");
    assert_eq!(bless.status.code(), Some(0), "{bless:?}");

    let text = std::fs::read_to_string(&golden).unwrap();
    assert!(text.contains("Baseline,OBE,deadlock"), "{text}");
    std::fs::write(
        &golden,
        text.replace("AWG,Fair,sat,sat,sat,Fair", "AWG,Fair,sat,sat,sat,LOBE"),
    )
    .unwrap();
    let regressed = awg_repro(&[
        "--quick",
        "conformance",
        "--count",
        "0",
        "--expected",
        golden.to_str().unwrap(),
    ]);
    assert_eq!(
        regressed.status.code(),
        Some(EXIT_CONFORMANCE as i32),
        "{regressed:?}"
    );
    assert!(
        String::from_utf8_lossy(&regressed.stderr).contains("REGRESSION"),
        "{regressed:?}"
    );

    std::fs::write(&golden, text).unwrap();
    let matching = awg_repro(&[
        "--quick",
        "conformance",
        "--count",
        "0",
        "--expected",
        golden.to_str().unwrap(),
    ]);
    assert_eq!(matching.status.code(), Some(0), "{matching:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A hand-written baseline snapshot claiming `mcycles_per_sec`, in the
/// pre-meta schema (the compare path must accept old snapshots).
fn synthetic_baseline(dir: &std::path::Path, name: &str, mcycles_per_sec: f64) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(
        &path,
        format!(
            r#"{{"bench":"awg-sim","workers":1,"jobs":[],"total_wall_ns":1.0,"sim_cycles":1.0,"events":1.0,"mcycles_per_sec":{mcycles_per_sec},"events_per_sec":1.0}}"#
        ),
    )
    .unwrap();
    path
}

#[test]
fn bench_compare_exits_nine_on_regression_and_zero_within_budget() {
    let dir = temp_dir("bench-compare");
    // A baseline no container can fail to beat: compare passes, exit 0.
    let slow = synthetic_baseline(&dir, "slow.json", 1e-6);
    let out = awg_repro(&[
        "--quick",
        "--jobs",
        "2",
        "--out",
        dir.to_str().unwrap(),
        "bench",
        "--compare",
        slow.to_str().unwrap(),
        "--max-regress",
        "95",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("compare:") && stderr.contains(": ok"),
        "{stderr}"
    );

    // A baseline no machine can reach: the same campaign is a regression.
    let fast = synthetic_baseline(&dir, "fast.json", 1e12);
    let out = awg_repro(&[
        "--quick",
        "--jobs",
        "2",
        "--out",
        dir.to_str().unwrap(),
        "bench",
        "--compare",
        fast.to_str().unwrap(),
        "--max-regress",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_REGRESSION as i32), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("REGRESSION"),
        "{out:?}"
    );

    // An unreadable baseline is a plain failure, not a regression verdict.
    let out = awg_repro(&[
        "--quick",
        "--jobs",
        "2",
        "--out",
        dir.to_str().unwrap(),
        "bench",
        "--compare",
        dir.join("absent.json").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_compare_negative_budget_is_a_speedup_floor() {
    let dir = temp_dir("bench-speedup");
    // A tiny baseline: any container clears the 3x floor, exit 0.
    let slow = synthetic_baseline(&dir, "slow.json", 1e-6);
    let out = awg_repro(&[
        "--quick",
        "--jobs",
        "2",
        "--out",
        dir.to_str().unwrap(),
        "bench",
        "--compare",
        slow.to_str().unwrap(),
        "--max-regress",
        "-200",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("required speedup 3.00x"),
        "{out:?}"
    );

    // An unreachable 3x floor: merely matching the baseline is a
    // regression under an inverted gate.
    let fast = synthetic_baseline(&dir, "fast.json", 1e12);
    let out = awg_repro(&[
        "--quick",
        "--jobs",
        "2",
        "--out",
        dir.to_str().unwrap(),
        "bench",
        "--compare",
        fast.to_str().unwrap(),
        "--max-regress",
        "-200",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_REGRESSION as i32), "{out:?}");

    // Budgets past 100% would make the threshold negative (nothing
    // could ever regress): rejected as a usage error.
    let out = awg_repro(&[
        "--quick",
        "bench",
        "--compare",
        slow.to_str().unwrap(),
        "--max-regress",
        "150",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_history_renders_the_trajectory_without_running_a_campaign() {
    let dir = temp_dir("bench-history");
    synthetic_baseline(&dir, "BENCH_100.json", 10.0);
    synthetic_baseline(&dir, "BENCH_200.json", 20.0);
    let out = awg_repro(&["bench", "--out", dir.to_str().unwrap(), "--history"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| snapshot |"), "{stdout}");
    let i100 = stdout.find("BENCH_100.json").expect("first snapshot row");
    let i200 = stdout.find("BENCH_200.json").expect("second snapshot row");
    assert!(i100 < i200, "chronological order: {stdout}");
    std::fs::remove_dir_all(&dir).ok();

    // An empty trajectory is an error, not an empty table.
    let empty = temp_dir("bench-history-empty");
    let out = awg_repro(&["bench", "--out", empty.to_str().unwrap(), "--history"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    std::fs::remove_dir_all(&empty).ok();
}

#[test]
fn profile_writes_a_parseable_observatory_document() {
    let dir = temp_dir("profile-json");
    let json_path = dir.join("observatory.json");
    let out = awg_repro(&[
        "--quick",
        "profile",
        "--bench",
        "SPM_G",
        "--policy",
        "awg",
        "--out",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hot-profile:"), "{stdout}");
    assert!(stdout.contains("cycle attribution:"), "{stdout}");

    let text = std::fs::read_to_string(&json_path).unwrap();
    let doc = awg_sim::json::parse(&text).expect("profile document parses");
    assert_eq!(
        doc.get("profile").and_then(|v| v.as_str()),
        Some("awg-profile")
    );
    // The ranked hotspot shares sum to ~100%.
    let lanes = doc
        .get("hotspot")
        .and_then(|h| h.get("lanes"))
        .and_then(|l| l.as_array())
        .expect("hotspot lanes");
    let share: f64 = lanes
        .iter()
        .filter_map(|l| l.get("fraction").and_then(|f| f.as_f64()))
        .sum();
    assert!((share - 1.0).abs() < 1e-9, "shares sum to {share}");
    // The attribution ledger's grand total is exactly wgs * elapsed.
    let attr = doc.get("attribution").expect("attribution object");
    let elapsed = attr.get("elapsed_cycles").and_then(|v| v.as_f64()).unwrap();
    let wgs = attr.get("wgs").and_then(|v| v.as_f64()).unwrap();
    let totals = attr.get("totals").expect("totals object");
    let sum: f64 = [
        "queued",
        "executing",
        "sync_wait",
        "sleep_wait",
        "preempted",
        "fault_stall",
        "retired",
    ]
    .iter()
    .filter_map(|c| totals.get(c).and_then(|v| v.as_f64()))
    .sum();
    assert!(elapsed > 0.0 && wgs > 0.0);
    assert_eq!(sum, elapsed * wgs, "sum-to-elapsed through the binary");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_journal_then_resume_reproduces_the_csv_byte_for_byte() {
    let dir = temp_dir("cli-resume");
    let journal = dir.join("fig5.jsonl");
    let clean_dir = dir.join("clean");
    let resumed_dir = dir.join("resumed");

    let first = awg_repro(&[
        "--quick",
        "--journal",
        journal.to_str().unwrap(),
        "--out",
        clean_dir.to_str().unwrap(),
        "fig5",
    ]);
    assert_eq!(first.status.code(), Some(0), "{:?}", first);

    let second = awg_repro(&[
        "--quick",
        "--resume",
        journal.to_str().unwrap(),
        "--out",
        resumed_dir.to_str().unwrap(),
        "fig5",
    ]);
    assert_eq!(second.status.code(), Some(0), "{:?}", second);
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        stderr.contains("served from the resume journal"),
        "{stderr}"
    );

    let clean = std::fs::read(clean_dir.join("fig5.csv")).unwrap();
    let resumed = std::fs::read(resumed_dir.join("fig5.csv")).unwrap();
    assert_eq!(clean, resumed, "resumed CSV must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}
