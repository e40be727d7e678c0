//! `awg-repro` — regenerate the tables and figures of *Independent Forward
//! Progress of Work-groups* (ISCA 2020).
//!
//! ```text
//! awg-repro [--quick] [--jobs N] [--out DIR] [resilience flags] <command>
//!
//! commands:
//!   table1 table2 fig5 fig7 fig8 fig9 fig11 fig13 fig14 fig15
//!   ablations fairness  extension studies beyond the paper's figures
//!   chaos             differential clean-vs-faulted matrix with the
//!                     invariant oracle on (exits 1 on any violation);
//!                     reports per-job wall-clock and the aggregate
//!                     simulation rate on stderr
//!   bench [--compare FILE [--max-regress PCT]] [--history]
//!                     simulator host-performance matrix: per-job
//!                     wall-clock and aggregate cycles/s from the
//!                     telemetry self-profile; also writes a
//!                     machine-readable BENCH_<timestamp>.json snapshot.
//!                     --compare judges the aggregate Mcycles/s against a
//!                     baseline snapshot and exits 9 if it fell more than
//!                     PCT percent below it (default 10). --history skips
//!                     the campaign and prints the BENCH_*.json trajectory
//!                     under the snapshot directory as a markdown table
//!   profile --bench B --policy P [--out FILE]
//!                     one run under the full performance observatory:
//!                     ranked event-loop hotspot table (per-event-type
//!                     wall-time shares summing to 100%) plus the per-WG
//!                     cycle-attribution ledger; --out writes the
//!                     machine-readable JSON document
//!   conformance [--count N] [--gen-seed S] [--expected FILE]
//!                     classify every policy against the OBE/LOBE/Fair
//!                     progress models: fixed anchor litmuses plus N
//!                     generated ones (default 8) per model, each run
//!                     under the model's seeded adversary with the
//!                     invariant oracle on. Writes the matrix CSV (via
//!                     --out) and diffs it against FILE (default
//!                     results/conformance_expected.csv): exit 8 on
//!                     regression. BLESS=1 rewrites FILE instead
//!   shrink <bench> <policy> <seed> [--plan FILE]
//!                     delta-debug the seeded chaos plan of a hanging
//!                     triple down to a minimal JSON reproducer
//!   replay <plan.json> <bench> <policy>
//!                     re-run a saved reproducer (exit 3 = still hangs);
//!                     a one-event `cu_loss` plan asks what-if questions
//!                     such as "what if CU 1 dies at cycle 7000?"
//!   trace [policy]    Fig 6-style timeline (policy: baseline|timeout|
//!                     monrs|monr|monnr-all|monnr-one|awg|minresume)
//!   timeline --bench B --policy P --out FILE [--snapshots FILE]
//!                     [--trace-cap N]
//!                     Perfetto/Chrome-Trace JSON export of a traced run
//!                     (load FILE in ui.perfetto.dev), with windowed metric
//!                     snapshots as JSONL and a host self-profile on stderr
//!   asm <file.s> [--policy P] [--wgs N]
//!                     assemble and run a custom kernel
//!   all               every table and figure, in order
//!
//! options:
//!   --quick           scaled-down machine (2 CUs, 20 WGs) for smoke runs
//!   --jobs N          run campaign cells on N worker threads (default:
//!                     available parallelism; 1 = serial). Reports are
//!                     byte-identical at any N: jobs carry stable keys and
//!                     merge in enumeration order
//!   --out DIR         also write each report as CSV into DIR
//!
//! resilience flags (campaign commands):
//!   --journal FILE    append a durable JSONL record per finished job
//!   --resume FILE     load FILE first: journaled jobs are served from it
//!                     instead of re-running, new results are appended, and
//!                     the merged report is byte-identical to an
//!                     uninterrupted run
//!   --job-deadline SECS
//!                     per-job host wall-clock deadline (fractional
//!                     seconds); a wedged job becomes a typed JobTimeout
//!                     row instead of hanging the campaign
//!   --job-cycle-budget N
//!                     per-job simulated-cycle budget, with the same
//!                     typed row when exceeded
//!
//! Exit codes are listed by `awg-repro` with no arguments (see also the
//! `awg_harness::exit` module); campaigns whose jobs panicked or timed
//! out still emit the report — with typed error rows — and exit with the
//! partial-completion code.
//! ```

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use awg_core::policies::{build_policy, PolicyKind};
use awg_gpu::FaultPlan;
use awg_harness::{
    ablations, bench, chaos, conformance,
    exit::{
        exit_table_text, EXIT_CONFORMANCE, EXIT_FAIL, EXIT_HANG, EXIT_INVARIANT, EXIT_PARTIAL,
        EXIT_PLAN, EXIT_REGRESSION, EXIT_USAGE,
    },
    fairness, fig05, fig07, fig08, fig09, fig11, fig13, fig14, fig15,
    pool::{CampaignProfile, Pool},
    priority, profile,
    run::{run_instrumented, ExperimentConfig, Instrumentation},
    shrink,
    supervisor::{JobLimits, Supervisor},
    sweep, table1, table2, timeline, tracefig, Report, Scale,
};
use awg_workloads::BenchmarkKind;

fn print_usage() {
    eprintln!(
        "usage: awg-repro [--quick] [--jobs N] [--out DIR] [--journal FILE | --resume FILE] \
         [--job-deadline SECS] [--job-cycle-budget N] \
         <table1|table2|fig5|fig7|fig8|fig9|fig11|fig13|fig14|fig15|ablations|fairness|sweep|priority|chaos\
         |bench [--compare FILE [--max-regress PCT]] [--history]\
         |profile --bench B --policy P [--out FILE]\
         |conformance [--count N] [--gen-seed S] [--expected FILE]\
         |shrink <bench> <policy> <seed> [--plan FILE]\
         |replay <plan.json> <bench> <policy>\
         |trace [policy]\
         |timeline --bench B --policy P --out FILE [--snapshots FILE] [--trace-cap N]\
         |asm <file.s>|all>"
    );
    eprint!("{}", exit_table_text());
}

fn usage() -> ExitCode {
    print_usage();
    ExitCode::from(EXIT_USAGE)
}

/// Refuses operands after a command that takes none, so a misspelled or
/// unsupported flag fails loudly instead of being ignored.
fn no_operands(args: &[String]) -> Result<(), ExitCode> {
    match args.get(1) {
        Some(extra) => {
            eprintln!("unexpected argument '{extra}'");
            Err(usage())
        }
        None => Ok(()),
    }
}

fn parse_policy(name: &str) -> Result<PolicyKind, ExitCode> {
    Ok(match name {
        "baseline" => PolicyKind::Baseline,
        "sleep" => PolicyKind::Sleep,
        "timeout" => PolicyKind::Timeout,
        "monrs" => PolicyKind::MonRsAll,
        "monr" => PolicyKind::MonRAll,
        "monnr-all" => PolicyKind::MonNrAll,
        "monnr-one" => PolicyKind::MonNrOne,
        "awg" => PolicyKind::Awg,
        "minresume" => PolicyKind::MinResume,
        other => {
            eprintln!("unknown policy '{other}'");
            return Err(usage());
        }
    })
}

/// Accepts a Table 2 abbreviation (`TB_LG`, `spm_g`, …) case-insensitively.
fn parse_benchmark(name: &str) -> Result<BenchmarkKind, ExitCode> {
    BenchmarkKind::all()
        .into_iter()
        .find(|k| k.abbreviation().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<&str> = BenchmarkKind::all()
                .into_iter()
                .map(|k| k.abbreviation())
                .collect();
            eprintln!("unknown benchmark '{name}'; one of: {}", names.join(" "));
            usage()
        })
}

/// Assembles and runs a user kernel on the simulator under `policy`.
fn run_asm(path: &str, policy: PolicyKind, wgs: u64, scale: &Scale) -> ExitCode {
    use awg_gpu::{Gpu, Kernel, RunOutcome, WgResources};

    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read '{path}': {e}");
            return ExitCode::from(EXIT_FAIL);
        }
    };
    let program = match awg_isa::assemble(&source, path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(EXIT_FAIL);
        }
    };
    println!("{}", program.disassemble());
    let kernel = match Kernel::try_new(program, wgs, WgResources::default()) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(EXIT_FAIL);
        }
    };
    let mut gpu = match Gpu::try_new(scale.gpu.clone(), kernel, build_policy(policy)) {
        Ok(gpu) => gpu,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(EXIT_FAIL);
        }
    };
    match gpu.run() {
        RunOutcome::Completed(s) => {
            println!(
                "completed: {} cycles, {} insts, {} atomics, {} resumes, {} swaps out",
                s.cycles, s.insts, s.atomics, s.resumes, s.switches_out
            );
            let words: Vec<(u64, i64)> = gpu.backing().nonzero_words().collect();
            println!("\nfinal non-zero memory ({} words):", words.len());
            for (addr, value) in words.iter().take(32) {
                println!("  {addr:#8x}: {value}");
            }
            if words.len() > 32 {
                println!("  ... {} more", words.len() - 32);
            }
            ExitCode::SUCCESS
        }
        aborted => {
            eprintln!("{aborted}");
            if let Some(hang) = aborted.hang_report() {
                eprintln!("{hang}");
            }
            ExitCode::from(EXIT_HANG)
        }
    }
}

/// Minimizes the seeded chaos plan of a hanging triple and writes the
/// reproducer JSON to `--plan FILE` (or stdout).
fn run_shrink(
    bench: BenchmarkKind,
    policy: PolicyKind,
    seed: u64,
    plan_out: Option<PathBuf>,
    scale: &Scale,
) -> ExitCode {
    let res = match shrink::shrink(bench, policy, scale, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("shrink: {e}");
            return ExitCode::from(EXIT_FAIL);
        }
    };
    eprintln!(
        "shrink {}/{} seed {seed}: {} fault(s) -> {} (in {} runs)",
        bench.abbreviation(),
        policy.label(),
        res.original.events.len(),
        res.minimized.events.len(),
        res.runs
    );
    let json = res.minimized.to_json();
    match plan_out {
        Some(path) => match std::fs::write(&path, &json) {
            Ok(()) => {
                eprintln!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write '{}': {e}", path.display());
                ExitCode::from(EXIT_FAIL)
            }
        },
        None => {
            print!("{json}");
            ExitCode::SUCCESS
        }
    }
}

/// Replays a saved reproducer with the oracle on. Exit 3 means the plan
/// still hangs the triple (a shrunk reproducer is *expected* to exit 3).
fn run_replay(path: &str, bench: BenchmarkKind, policy: PolicyKind, scale: &Scale) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read '{path}': {e}");
            return ExitCode::from(EXIT_FAIL);
        }
    };
    let plan = match FaultPlan::from_json(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: fault plan parse error: {e}");
            return ExitCode::from(EXIT_PLAN);
        }
    };
    eprintln!(
        "replaying {} fault(s) against {}/{}",
        plan.events.len(),
        bench.abbreviation(),
        policy.label()
    );
    let r = run_instrumented(
        bench,
        policy,
        build_policy(policy),
        scale,
        ExperimentConfig::NonOversubscribed,
        Some(plan),
        Instrumentation::checked(),
    );
    if !r.violations.is_empty() {
        eprintln!("{} invariant violation(s):", r.violations.len());
        for v in &r.violations {
            eprintln!("  {v}");
        }
        return ExitCode::from(EXIT_INVARIANT);
    }
    if r.is_valid_completion() {
        println!("completed and validated: {}", r.outcome);
        ExitCode::SUCCESS
    } else {
        eprintln!("reproduced: {} / {:?}", r.outcome, r.validated);
        if let Some(hang) = r.outcome.hang_report() {
            eprintln!("{hang}");
        }
        ExitCode::from(EXIT_HANG)
    }
}

/// Runs a traced+telemetry run and writes the Perfetto JSON (and optional
/// snapshot JSONL). The export is validated before it is written: it must
/// parse as JSON and its slice/counter/instant counts must account for the
/// in-memory trace.
fn run_timeline_cmd(
    bench: BenchmarkKind,
    policy: PolicyKind,
    out_path: &Path,
    snapshots_path: Option<PathBuf>,
    trace_cap: Option<usize>,
    scale: &Scale,
) -> ExitCode {
    let t = timeline::run_timeline(bench, policy, scale, trace_cap);

    let doc = match awg_sim::json::parse(&t.json) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("timeline: exported document is not valid JSON: {e}");
            return ExitCode::from(EXIT_FAIL);
        }
    };
    let count_ph = |ph: &str| -> u64 {
        doc.get("traceEvents")
            .and_then(|e| e.as_array())
            .map_or(0, |events| {
                events
                    .iter()
                    .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                    .count() as u64
            })
    };
    let (slices, counters, instants) = (count_ph("X"), count_ph("C"), count_ph("i"));
    if (slices, counters, instants) != (t.counts.slices, t.counts.counters, t.counts.instants) {
        eprintln!(
            "timeline: export does not account for the trace: \
             got {slices} slices / {counters} counters / {instants} instants, \
             expected {} / {} / {}",
            t.counts.slices, t.counts.counters, t.counts.instants
        );
        return ExitCode::from(EXIT_FAIL);
    }

    if let Err(e) = std::fs::write(out_path, &t.json) {
        eprintln!("cannot write '{}': {e}", out_path.display());
        return ExitCode::from(EXIT_FAIL);
    }
    eprintln!(
        "wrote {} ({} trace events from {} records{}; load in ui.perfetto.dev)",
        out_path.display(),
        slices + counters + instants,
        t.records,
        if t.dropped > 0 {
            format!(", {} evicted by the ring buffer", t.dropped)
        } else {
            String::new()
        }
    );
    if let Some(path) = snapshots_path {
        if let Err(e) = std::fs::write(&path, format!("{}\n", t.snapshots_jsonl)) {
            eprintln!("cannot write '{}': {e}", path.display());
            return ExitCode::from(EXIT_FAIL);
        }
        eprintln!(
            "wrote {} ({} snapshot windows)",
            path.display(),
            t.snapshots_jsonl.lines().count()
        );
    }

    println!("{}/{}: {}", bench.abbreviation(), policy.label(), t.outcome);
    if let Some(buckets) = t
        .stats
        .hist_buckets_by_name("telemetry_wake_to_resume_cycles")
    {
        let rendered: Vec<String> = buckets.iter().map(|(lo, c)| format!("{lo}:{c}")).collect();
        println!(
            "wake-to-resume latency (log2 cycles): {}",
            rendered.join(" ")
        );
    }
    if let Some(profile) = &t.profile {
        println!("{profile}");
    }
    if t.outcome.is_completed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_HANG)
    }
}

fn emit(report: &Report, out: &Option<PathBuf>, slug: &str) -> Result<(), ExitCode> {
    println!("{}", report.to_markdown());
    if let Some(dir) = out {
        let io_fail = |what: &str, e: std::io::Error| {
            eprintln!("cannot {what}: {e}");
            ExitCode::from(EXIT_FAIL)
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| io_fail(&format!("create '{}'", dir.display()), e))?;
        let path = dir.join(format!("{slug}.csv"));
        let mut f = std::fs::File::create(&path)
            .map_err(|e| io_fail(&format!("create CSV '{}'", path.display()), e))?;
        f.write_all(report.to_csv().as_bytes())
            .map_err(|e| io_fail(&format!("write CSV '{}'", path.display()), e))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// Prints a campaign's per-job wall-clocks and the aggregate simulation
/// rate (from the telemetry self-profile) to stderr, keeping stdout clean
/// for the report itself.
fn report_campaign_profile(
    slug: &str,
    profile: &CampaignProfile,
    workers: usize,
    elapsed: std::time::Duration,
) {
    for (key, wall) in &profile.timings {
        eprintln!("[{slug}] {key}: {wall:.2?}");
    }
    eprintln!("[{slug}] {}", profile.summary_line(workers));
    eprintln!("[{slug}] campaign wall-clock: {elapsed:.2?}");
}

/// Per-campaign epilogue shared by every report command: resume-hit and
/// partial-completion accounting on stderr (stdout carries only the report,
/// so journaled reruns stay byte-identical).
fn report_supervised_epilogue(slug: &str, sup: &Supervisor) {
    if sup.resumed_jobs() > 0 {
        eprintln!(
            "[{slug}] {} job(s) served from the resume journal",
            sup.resumed_jobs()
        );
    }
    if sup.incomplete() > 0 {
        eprintln!(
            "[{slug}] INCOMPLETE: {} job(s) panicked or timed out; \
             the report carries typed error rows for them",
            sup.incomplete()
        );
    }
}

fn main() -> ExitCode {
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = raw_args.clone();
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut pool = Pool::auto();
    let mut limits = JobLimits::default();
    let mut journal: Option<PathBuf> = None;
    let mut resume = false;
    let mut command_seen: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        // Removes the current flag and yields its value operand.
        macro_rules! take_value {
            () => {{
                args.remove(i);
                if i >= args.len() {
                    return usage();
                }
                args.remove(i)
            }};
        }
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                args.remove(i);
            }
            "--jobs" => {
                let value = take_value!();
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => pool = Pool::new(n),
                    _ => {
                        eprintln!("--jobs must be a positive integer, got '{value}'");
                        return usage();
                    }
                }
            }
            "--journal" | "--resume" => {
                let is_resume = args[i] == "--resume";
                if journal.is_some() {
                    eprintln!("--journal and --resume are mutually exclusive");
                    return usage();
                }
                journal = Some(PathBuf::from(take_value!()));
                resume = is_resume;
            }
            "--job-deadline" => {
                let value = take_value!();
                match value.parse::<f64>() {
                    Ok(secs) if secs > 0.0 && secs.is_finite() => {
                        limits.deadline = Some(std::time::Duration::from_secs_f64(secs));
                    }
                    _ => {
                        eprintln!(
                            "--job-deadline must be a positive number of seconds, got '{value}'"
                        );
                        return usage();
                    }
                }
            }
            "--job-cycle-budget" => {
                let value = take_value!();
                match value.parse::<u64>() {
                    Ok(n) if n >= 1 => limits.cycle_budget = Some(n),
                    _ => {
                        eprintln!("--job-cycle-budget must be a positive integer, got '{value}'");
                        return usage();
                    }
                }
            }
            // `timeline` and `profile` own their `--out FILE`; the global
            // flag is the CSV directory for report commands.
            "--out"
                if command_seen.as_deref() != Some("timeline")
                    && command_seen.as_deref() != Some("profile") =>
            {
                out = Some(PathBuf::from(take_value!()));
            }
            other => {
                if command_seen.is_none() && !other.starts_with("--") {
                    command_seen = Some(other.to_string());
                }
                i += 1;
            }
        }
    }
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    let Some(command) = args.first().map(String::as_str) else {
        // Bare invocation is a help request, not a usage error.
        print_usage();
        return ExitCode::SUCCESS;
    };

    let sup = match &journal {
        Some(path) => {
            let cmd = format!("awg-repro {}", raw_args.join(" "));
            match Supervisor::with_journal(pool, limits, path, resume, &cmd) {
                Ok(s) => {
                    if resume {
                        eprintln!(
                            "resuming from {}: {} completed job(s) on file",
                            path.display(),
                            s.resumed_records()
                        );
                    }
                    s
                }
                Err(e) => {
                    eprintln!("cannot open journal '{}': {e}", path.display());
                    return ExitCode::from(EXIT_FAIL);
                }
            }
        }
        None => Supervisor::new(pool, limits),
    };

    type Runner = fn(&Scale, &Supervisor) -> Report;
    let all: [(&str, Runner); 14] = [
        ("table1", table1::run_supervised),
        ("table2", table2::run_supervised),
        ("fig5", fig05::run_supervised),
        ("fig7", fig07::run_supervised),
        ("fig8", fig08::run_supervised),
        ("fig9", fig09::run_supervised),
        ("fig11", fig11::run_supervised),
        ("fig13", fig13::run_supervised),
        ("fig14", fig14::run_supervised),
        ("fig15", fig15::run_supervised),
        ("ablations", ablations::run_supervised),
        ("fairness", fairness::run_supervised),
        ("sweep", sweep::run_supervised),
        ("priority", priority::run_supervised),
    ];

    match command {
        "all" => {
            if let Err(code) = no_operands(&args) {
                return code;
            }
            for (slug, runner) in all {
                let t0 = std::time::Instant::now();
                let report = runner(&scale, &sup);
                if let Err(code) = emit(&report, &out, slug) {
                    return code;
                }
                eprintln!("[{slug}] {:.2?}", t0.elapsed());
            }
            report_supervised_epilogue("all", &sup);
            if sup.incomplete() > 0 {
                return ExitCode::from(EXIT_PARTIAL);
            }
            ExitCode::SUCCESS
        }
        "chaos" => {
            if let Err(code) = no_operands(&args) {
                return code;
            }
            let t0 = std::time::Instant::now();
            let (report, violations, profile) =
                chaos::run_checked_supervised(&scale, &chaos::DEFAULT_SEEDS, &sup);
            let elapsed = t0.elapsed();
            if let Err(code) = emit(&report, &out, "chaos") {
                return code;
            }
            report_campaign_profile("chaos", &profile, sup.pool().jobs(), elapsed);
            report_supervised_epilogue("chaos", &sup);
            if violations > 0 {
                eprintln!("chaos: {violations} invariant violation(s)");
                return ExitCode::from(EXIT_FAIL);
            }
            if sup.incomplete() > 0 {
                return ExitCode::from(EXIT_PARTIAL);
            }
            ExitCode::SUCCESS
        }
        "bench" => {
            // awg-repro bench [--compare FILE [--max-regress PCT]]
            //                 [--history]
            let mut compare_path: Option<PathBuf> = None;
            let mut max_regress: f64 = 10.0;
            let mut history = false;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--history" => history = true,
                    "--compare" => {
                        i += 1;
                        let Some(value) = args.get(i) else {
                            return usage();
                        };
                        compare_path = Some(PathBuf::from(value));
                    }
                    "--max-regress" => {
                        i += 1;
                        let Some(value) = args.get(i) else {
                            return usage();
                        };
                        // Negative budgets are an inverted gate: the run
                        // must beat the baseline by |PCT| percent (e.g.
                        // -200 demands a 3x speedup). Above 100% the
                        // threshold goes negative and nothing could ever
                        // regress, so that is rejected as a config error.
                        max_regress = match value.parse::<f64>() {
                            Ok(p) if p.is_finite() && p <= 100.0 => p,
                            _ => {
                                eprintln!(
                                    "--max-regress must be a finite percentage at most 100, \
                                     got '{value}'"
                                );
                                return usage();
                            }
                        };
                    }
                    _ => return usage(),
                }
                i += 1;
            }
            let snapshot_dir = out.clone().unwrap_or_else(|| PathBuf::from("results"));
            if history {
                // Trajectory only: no campaign, just the snapshots on disk.
                return match bench::history_table(&snapshot_dir) {
                    Ok(table) => {
                        print!("{table}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("bench --history: {e}");
                        ExitCode::from(EXIT_FAIL)
                    }
                };
            }
            let t0 = std::time::Instant::now();
            let (report, profile) = bench::run_supervised(&scale, &sup);
            let elapsed = t0.elapsed();
            if let Err(code) = emit(&report, &out, "bench") {
                return code;
            }
            report_campaign_profile("bench", &profile, sup.pool().jobs(), elapsed);
            match bench::write_bench_json(&profile, sup.pool().jobs(), &snapshot_dir) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!(
                        "cannot write bench snapshot in '{}': {e}",
                        snapshot_dir.display()
                    );
                    return ExitCode::from(EXIT_FAIL);
                }
            }
            report_supervised_epilogue("bench", &sup);
            if sup.incomplete() > 0 {
                return ExitCode::from(EXIT_PARTIAL);
            }
            if let Some(path) = compare_path {
                let baseline = match bench::BenchSnapshot::read(&path) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("bench --compare: {e}");
                        return ExitCode::from(EXIT_FAIL);
                    }
                };
                let verdict =
                    bench::compare(profile.cycles_per_sec() / 1e6, &baseline, max_regress);
                eprintln!("[bench] {}", verdict.summary_line());
                if verdict.regressed {
                    return ExitCode::from(EXIT_REGRESSION);
                }
            }
            ExitCode::SUCCESS
        }
        "profile" => {
            // awg-repro profile --bench B --policy P [--out FILE]
            let mut bench_kind = None;
            let mut policy = PolicyKind::Awg;
            let mut out_path = None;
            let mut i = 1;
            while i < args.len() {
                let flag = args[i].clone();
                i += 1;
                let Some(value) = args.get(i) else {
                    return usage();
                };
                match flag.as_str() {
                    "--bench" => {
                        bench_kind = Some(match parse_benchmark(value) {
                            Ok(b) => b,
                            Err(code) => return code,
                        });
                    }
                    "--policy" => {
                        policy = match parse_policy(value) {
                            Ok(p) => p,
                            Err(code) => return code,
                        };
                    }
                    "--out" => out_path = Some(PathBuf::from(value)),
                    _ => return usage(),
                }
                i += 1;
            }
            let Some(bench_kind) = bench_kind else {
                eprintln!("profile requires --bench");
                return usage();
            };
            let p = profile::run_profile(bench_kind, policy, &scale);
            print!("{}", p.text);
            if let Some(path) = out_path {
                let mut text = p.json.to_json();
                text.push('\n');
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("cannot write '{}': {e}", path.display());
                    return ExitCode::from(EXIT_FAIL);
                }
                eprintln!("wrote {}", path.display());
            }
            if p.result.is_valid_completion() {
                ExitCode::SUCCESS
            } else {
                eprintln!("{} / {:?}", p.result.outcome, p.result.validated);
                ExitCode::from(EXIT_HANG)
            }
        }
        "conformance" => {
            // awg-repro conformance [--count N] [--gen-seed S]
            //                       [--expected FILE]
            let mut cfg = conformance::ConformanceConfig::default();
            let mut expected_path = PathBuf::from("results/conformance_expected.csv");
            let mut i = 1;
            while i < args.len() {
                let flag = args[i].clone();
                i += 1;
                let Some(value) = args.get(i) else {
                    return usage();
                };
                match flag.as_str() {
                    "--count" => {
                        cfg.count = match value.parse::<usize>() {
                            Ok(n) => n,
                            Err(_) => {
                                eprintln!("--count must be an unsigned integer, got '{value}'");
                                return usage();
                            }
                        };
                    }
                    "--gen-seed" => {
                        let parsed = match value.strip_prefix("0x") {
                            Some(hex) => u64::from_str_radix(hex, 16),
                            None => value.parse::<u64>(),
                        };
                        cfg.gen_seed = match parsed {
                            Ok(s) => s,
                            Err(_) => {
                                eprintln!(
                                    "--gen-seed must be an unsigned integer \
                                     (decimal or 0x-hex), got '{value}'"
                                );
                                return usage();
                            }
                        };
                    }
                    "--expected" => expected_path = PathBuf::from(value),
                    _ => return usage(),
                }
                i += 1;
            }
            let t0 = std::time::Instant::now();
            let run = conformance::run_supervised(&scale, &cfg, &sup);
            if let Err(code) = emit(&run.report, &out, "conformance") {
                return code;
            }
            eprintln!("[conformance] {:.2?}", t0.elapsed());
            report_supervised_epilogue("conformance", &sup);
            let csv = run.matrix.to_csv();
            if let Some(dir) = &out {
                let path = dir.join("conformance_matrix.csv");
                if let Err(e) = std::fs::write(&path, &csv) {
                    eprintln!("cannot write '{}': {e}", path.display());
                    return ExitCode::from(EXIT_FAIL);
                }
                eprintln!("wrote {}", path.display());
            }
            if run.failures > 0 {
                eprintln!("conformance: {} campaign failure(s)", run.failures);
                return ExitCode::from(EXIT_FAIL);
            }
            if sup.incomplete() > 0 {
                return ExitCode::from(EXIT_PARTIAL);
            }
            if std::env::var("BLESS").ok().as_deref() == Some("1") {
                if let Some(parent) = expected_path.parent() {
                    if let Err(e) = std::fs::create_dir_all(parent) {
                        eprintln!("cannot create '{}': {e}", parent.display());
                        return ExitCode::from(EXIT_FAIL);
                    }
                }
                if let Err(e) = std::fs::write(&expected_path, &csv) {
                    eprintln!("cannot write '{}': {e}", expected_path.display());
                    return ExitCode::from(EXIT_FAIL);
                }
                eprintln!("blessed {}", expected_path.display());
                return ExitCode::SUCCESS;
            }
            let expected = match std::fs::read_to_string(&expected_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!(
                        "cannot read expected matrix '{}': {e}\n\
                         (bless a golden with: BLESS=1 awg-repro conformance ...)",
                        expected_path.display()
                    );
                    return ExitCode::from(EXIT_CONFORMANCE);
                }
            };
            let diffs = run.matrix.diff_against(&expected);
            if diffs.is_empty() {
                eprintln!("conformance: matrix matches {}", expected_path.display());
                ExitCode::SUCCESS
            } else {
                eprintln!("conformance REGRESSION vs {}:", expected_path.display());
                for d in &diffs {
                    eprintln!("  {d}");
                }
                eprint!("observed matrix:\n{csv}");
                ExitCode::from(EXIT_CONFORMANCE)
            }
        }
        "shrink" => {
            // awg-repro shrink <bench> <policy> <seed> [--plan FILE]
            let (Some(bench), Some(policy), Some(seed)) = (args.get(1), args.get(2), args.get(3))
            else {
                return usage();
            };
            let bench = match parse_benchmark(bench) {
                Ok(b) => b,
                Err(code) => return code,
            };
            let policy = match parse_policy(policy) {
                Ok(p) => p,
                Err(code) => return code,
            };
            let Ok(seed) = seed.parse::<u64>() else {
                eprintln!("seed must be an unsigned integer, got '{seed}'");
                return usage();
            };
            let mut plan_out = None;
            match args.get(4).map(String::as_str) {
                Some("--plan") => match args.get(5) {
                    Some(p) => plan_out = Some(PathBuf::from(p)),
                    None => return usage(),
                },
                Some(_) => return usage(),
                None => {}
            }
            run_shrink(bench, policy, seed, plan_out, &scale)
        }
        "replay" => {
            // awg-repro replay <plan.json> <bench> <policy>
            let (Some(path), Some(bench), Some(policy)) = (args.get(1), args.get(2), args.get(3))
            else {
                return usage();
            };
            let bench = match parse_benchmark(bench) {
                Ok(b) => b,
                Err(code) => return code,
            };
            let policy = match parse_policy(policy) {
                Ok(p) => p,
                Err(code) => return code,
            };
            run_replay(&path.clone(), bench, policy, &scale)
        }
        "trace" => {
            let policy = match args.get(1) {
                Some(s) => match parse_policy(s) {
                    Ok(p) => p,
                    Err(code) => return code,
                },
                None => PolicyKind::Awg,
            };
            println!("{}", tracefig::gantt_for(&scale, policy));
            match emit(&tracefig::run_policy(&scale, policy), &out, "trace") {
                Ok(()) => ExitCode::SUCCESS,
                Err(code) => code,
            }
        }
        "timeline" => {
            // awg-repro timeline --bench B --policy P --out FILE
            //                    [--snapshots FILE] [--trace-cap N]
            let mut bench = None;
            let mut policy = PolicyKind::Awg;
            let mut out_path = None;
            let mut snapshots_path = None;
            let mut trace_cap = None;
            let mut i = 1;
            while i < args.len() {
                let flag = args[i].clone();
                i += 1;
                let Some(value) = args.get(i) else {
                    return usage();
                };
                match flag.as_str() {
                    "--bench" => {
                        bench = Some(match parse_benchmark(value) {
                            Ok(b) => b,
                            Err(code) => return code,
                        });
                    }
                    "--policy" => {
                        policy = match parse_policy(value) {
                            Ok(p) => p,
                            Err(code) => return code,
                        };
                    }
                    "--out" => out_path = Some(PathBuf::from(value)),
                    "--snapshots" => snapshots_path = Some(PathBuf::from(value)),
                    "--trace-cap" => {
                        trace_cap = match value.parse::<usize>() {
                            Ok(n) => Some(n),
                            Err(_) => {
                                eprintln!("--trace-cap must be an unsigned integer, got '{value}'");
                                return usage();
                            }
                        };
                    }
                    _ => return usage(),
                }
                i += 1;
            }
            let (Some(bench), Some(out_path)) = (bench, out_path) else {
                eprintln!("timeline requires --bench and --out");
                return usage();
            };
            run_timeline_cmd(bench, policy, &out_path, snapshots_path, trace_cap, &scale)
        }
        "asm" => {
            // awg-repro asm <file.s> [--policy P] [--wgs N]
            let Some(path) = args.get(1).cloned() else {
                return usage();
            };
            let mut policy = PolicyKind::Awg;
            let mut wgs: u64 = 16;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--policy" => {
                        i += 1;
                        policy = match parse_policy(args.get(i).map(String::as_str).unwrap_or("")) {
                            Ok(p) => p,
                            Err(code) => return code,
                        };
                    }
                    "--wgs" => {
                        i += 1;
                        wgs = match args.get(i).and_then(|s| s.parse().ok()) {
                            Some(n) => n,
                            None => return usage(),
                        };
                    }
                    _ => return usage(),
                }
                i += 1;
            }
            run_asm(&path, policy, wgs, &scale)
        }
        name => match all.iter().find(|(slug, _)| *slug == name) {
            Some((slug, runner)) => {
                if let Err(code) = no_operands(&args) {
                    return code;
                }
                let t0 = std::time::Instant::now();
                let report = runner(&scale, &sup);
                match emit(&report, &out, slug) {
                    Ok(()) => {
                        eprintln!("[{slug}] {:.2?}", t0.elapsed());
                        report_supervised_epilogue(slug, &sup);
                        if sup.incomplete() > 0 {
                            return ExitCode::from(EXIT_PARTIAL);
                        }
                        ExitCode::SUCCESS
                    }
                    Err(code) => code,
                }
            }
            None => usage(),
        },
    }
}
