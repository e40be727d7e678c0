//! End-to-end and per-layer benchmark of the AWG simulator.
//!
//! One process runs one workload ([`Workload`]) on one thread, driving the
//! simulator only through the public API of its crates. The untraced run
//! repeats whole passes of the workload for the requested time, corrects
//! each run's host time for host load ([`probe`]) and reports per-cell
//! minima; the traced run adds one pass with spans and
//! the engine's hot profile, differential runs that price the oracle and
//! digest trail, and layer microbenchmarks. See `BENCHMARK.json` at the
//! repository root for the metric list and bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
pub mod probe;
pub mod spans;
pub mod workload;

use std::time::{Duration, Instant};

use awg_gpu::Gpu;
use awg_harness::Scale;
use awg_sim::Fingerprint64;

use crate::micro::{Micro, Sizes};
use crate::probe::{Probe, READ_EVERY, REFERENCE_S, SENSITIVITY};
use crate::spans::Tracer;
use crate::workload::{
    cells, conformance_agrees, run_cell, scale_for, Cell, Checks, RunRecord, Workload,
};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's generated inputs.
    pub seed: u64,
    /// Host seconds to keep repeating untraced passes for.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead.
    pub trace: bool,
    /// Use the small machine and litmus batch (the benchmark's own tests).
    pub quick: bool,
    /// Invert the expected outcome of this cell index (to prove a wrong
    /// outcome is counted as a failure).
    pub flip_expected: Option<usize>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Human-readable lines, printed before the result.
    pub lines: Vec<String>,
    /// Every run passed and every cross-check agreed.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The traced run's spans as JSON lines.
    pub spans_jsonl: Option<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One pass over every cell of the workload.
struct Pass {
    cells: Vec<Cell>,
    generate: Duration,
    records: Vec<RunRecord>,
    /// Per record, the divisor of its host times: how many times slower
    /// than [`REFERENCE_S`] the probe read around it, to the power
    /// [`SENSITIVITY`] (1 when the pass was not probed).
    load: Vec<f64>,
    fingerprint: u64,
    last: Option<Gpu>,
}

impl Pass {
    fn run_total(&self) -> f64 {
        self.records.iter().map(|r| r.run.as_secs_f64()).sum()
    }

    fn failures(&self) -> impl Iterator<Item = &String> {
        self.records.iter().filter_map(|r| r.failure.as_ref())
    }

    /// The pass's load-corrected host times: all that later passes keep,
    /// so memory (and `peak_rss_mb`) does not grow with the number of
    /// passes. Generation runs before the first reading and is corrected
    /// by the first cell's load.
    fn timings(&self) -> Timings {
        let secs = |f: fn(&RunRecord) -> Duration| {
            self.records
                .iter()
                .zip(&self.load)
                .map(|(r, load)| f(r).as_secs_f64() / load)
                .collect()
        };
        Timings {
            generate_s: self.generate.as_secs_f64() / self.load.first().copied().unwrap_or(1.0),
            run_s: secs(|r| r.run),
            setup_s: secs(|r| r.setup),
            raw_run_s: self.run_total(),
            load: self.load.clone(),
        }
    }
}

/// Per-cell host times of one pass, corrected for host load.
struct Timings {
    generate_s: f64,
    run_s: Vec<f64>,
    setup_s: Vec<f64>,
    /// Uncorrected summed `Gpu::run` time.
    raw_run_s: f64,
    load: Vec<f64>,
}

/// Reads the probe between runs and gives each run the divisor for the
/// load around it, from the mean of the readings just before and after.
struct LoadTrack<'a> {
    probe: &'a mut Probe,
    before: f64,
    read_at: Instant,
}

impl<'a> LoadTrack<'a> {
    fn start(probe: &'a mut Probe) -> Self {
        let before = probe.read();
        LoadTrack {
            probe,
            before,
            read_at: Instant::now(),
        }
    }

    /// After a run: reads the probe if [`READ_EVERY`] has passed (or
    /// `force`), and then fills `load` up to `runs` entries.
    fn after_run(&mut self, load: &mut Vec<f64>, runs: usize, force: bool) {
        if !force && self.read_at.elapsed() < READ_EVERY {
            return;
        }
        let after = self.probe.read();
        let factor = ((self.before + after) / 2.0 / REFERENCE_S).powf(SENSITIVITY);
        load.resize(runs, factor);
        self.before = after;
        self.read_at = Instant::now();
    }
}

/// Runs one pass; `probe`, when given, measures the host load around
/// every run (the traced pass goes unprobed, with load 1).
fn run_pass(
    opts: &Options,
    scale: &Scale,
    checks: Checks,
    hot: bool,
    probe: Option<&mut Probe>,
    t: &mut Tracer,
) -> Pass {
    let w = opts.workload;
    let mut track = probe.map(LoadTrack::start);
    let (mut cells, generate) = t.time(w.generate_span(), |_| {
        cells(w, opts.seed, opts.quick, scale)
    });
    if let Some(cell) = opts.flip_expected.and_then(|i| cells.get_mut(i)) {
        cell.expect = cell.expect.flipped();
    }
    let mut records = Vec::with_capacity(cells.len());
    let mut load = Vec::with_capacity(cells.len());
    let mut last = None;
    let mut f = Fingerprint64::new();
    t.time("pass", |t| {
        for (i, cell) in cells.iter().enumerate() {
            let ((rec, gpu), _) = t.time("cell", |t| run_cell(cell, scale, checks, hot, t));
            rec.push_identity(&mut f);
            records.push(rec);
            last = gpu.or(last.take());
            if let Some(track) = &mut track {
                track.after_run(&mut load, records.len(), i + 1 == cells.len());
            }
        }
    });
    load.resize(records.len(), 1.0);
    Pass {
        cells,
        generate,
        records,
        load,
        fingerprint: f.finish(),
        last,
    }
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-cell minimum across passes of the times `f` picks. The probe
/// corrects for load that lasts longer than a probe reading; what it
/// misses only ever slows a run down, so the fastest of a cell's samples,
/// taken seconds apart, is the estimate it disturbs least.
fn cell_minima(passes: &[Timings], f: impl Fn(&Timings) -> &[f64]) -> Vec<f64> {
    (0..f(&passes[0]).len())
        .map(|i| passes.iter().map(|p| f(p)[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the workload as `opts` asks and assembles the report.
pub fn run(opts: &Options) -> Report {
    let scale = scale_for(opts.quick, opts.seed);
    let checks = opts.workload.checks();
    let mut quiet = Tracer::new(false);
    let mut probe = Probe::new();
    let started = Instant::now();
    let first = run_pass(opts, &scale, checks, false, Some(&mut probe), &mut quiet);
    let mut problems: Vec<String> = Vec::new();
    let mut failures: Vec<String> = first.failures().cloned().collect();
    let mut attempted = first.records.len() as u64;
    let mut passes = vec![first.timings()];
    while !opts.trace && started.elapsed().as_secs_f64() < opts.seconds {
        let pass = run_pass(opts, &scale, checks, false, Some(&mut probe), &mut quiet);
        if pass.fingerprint != first.fingerprint {
            problems.push(format!(
                "pass {} fingerprint {:#018x} differs from pass 0",
                passes.len(),
                pass.fingerprint
            ));
        }
        failures.extend(pass.failures().cloned());
        attempted += pass.records.len() as u64;
        passes.push(pass.timings());
    }
    let rss = peak_rss_mb();
    let failed = failures.len() as u64;

    let runs = first.records.len();
    let run_s = cell_minima(&passes, |p| &p.run_s);
    let setup_s = cell_minima(&passes, |p| &p.setup_s);
    let generate_s = passes
        .iter()
        .map(|p| p.generate_s)
        .fold(f64::INFINITY, f64::min);
    let wall_s: f64 = run_s.iter().sum();
    let sim_cycles: u64 = first.records.iter().map(|r| r.cycles).sum();
    let mut run_ms: Vec<f64> = run_s.iter().map(|s| s * 1e3).collect();
    run_ms.sort_by(f64::total_cmp);

    let e2e = vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new(
            "sim_mcycles_per_s",
            sim_cycles as f64 / wall_s / 1e6,
            "Mcycles/s",
        ),
        Metric::new("run_ms_p50", percentile(&run_ms, 50.0), "ms"),
        Metric::new("run_ms_p90", percentile(&run_ms, 90.0), "ms"),
        Metric::new("setup_s", setup_s.iter().sum::<f64>() + generate_s, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];

    let mut lines = vec![
        format!(
            "workload: {} seed: {} scale: {} passes: {} runs/pass: {runs} threads: 1",
            opts.workload.name(),
            opts.seed,
            if opts.quick { "quick" } else { "paper" },
            passes.len()
        ),
        format!(
            "identity: runs={runs} sim_cycles={sim_cycles} fingerprint={:#018x}",
            first.fingerprint
        ),
    ];
    for m in &e2e {
        let extra = match m.name {
            "run_ms_p50" => format!(" (n={runs})"),
            "run_ms_p90" => format!(" (n={runs}, {} beyond)", runs - (runs * 9).div_ceil(10)),
            _ => String::new(),
        };
        lines.push(format!("{}: {} {}{extra}", m.name, m.value, m.unit));
    }
    let mut loads: Vec<f64> = passes.iter().flat_map(|p| p.load.iter().copied()).collect();
    loads.sort_by(f64::total_cmp);
    let raw_wall: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.raw_run_s))
        .collect();
    lines.push(format!(
        "host load divisor ((probe time / {:.0} us)^{SENSITIVITY}): p10 {:.3} p50 {:.3} p90 {:.3}; uncorrected wall_s per pass: {}",
        REFERENCE_S * 1e6,
        percentile(&loads, 10.0),
        percentile(&loads, 50.0),
        percentile(&loads, 90.0),
        raw_wall.join(" ")
    ));
    lines.push(format!(
        "failed_frac: {} ({failed}/{attempted})",
        failed as f64 / attempted.max(1) as f64
    ));
    for f in failures.iter().take(10) {
        lines.push(format!("FAILED {f}"));
    }

    let (metrics, spans_jsonl) = if opts.trace {
        let (layers, spans) = traced_layers(opts, &scale, &first, &mut problems, &mut lines);
        (layers, Some(spans))
    } else {
        (e2e, None)
    };
    for p in &problems {
        lines.push(format!("PROBLEM {p}"));
    }
    Report {
        lines,
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics,
        spans_jsonl,
    }
}

/// The traced run: one pass with spans and the hot profile, the
/// differential arms, the conformance cross-check and the microbenchmarks.
/// Returns the per-layer metrics and the spans.
fn traced_layers(
    opts: &Options,
    scale: &Scale,
    untraced: &Pass,
    problems: &mut Vec<String>,
    lines: &mut Vec<String>,
) -> (Vec<Metric>, String) {
    let w = opts.workload;
    let checks = w.checks();
    let mut t = Tracer::new(true);
    let traced = run_pass(opts, scale, checks, true, None, &mut t);
    if traced.fingerprint != untraced.fingerprint {
        problems.push(format!(
            "traced fingerprint {:#018x} differs from untraced {:#018x}",
            traced.fingerprint, untraced.fingerprint
        ));
    }

    // Differential arms: the same cells with less self-checking. Only the
    // simulated statistics must agree; the digest trail is absent when off.
    let mut quiet = Tracer::new(false);
    let mut arm_total = |arm: Checks, problems: &mut Vec<String>| -> f64 {
        let mut total = 0.0;
        for (cell, want) in untraced.cells.iter().zip(&untraced.records) {
            let (rec, _) = run_cell(cell, scale, arm, false, &mut quiet);
            if rec.sim_identity() != want.sim_identity() {
                problems.push(format!(
                    "{}: {arm:?} arm diverged from the workload's run",
                    cell.label()
                ));
            }
            total += rec.run.as_secs_f64();
        }
        total
    };
    let full_s = untraced.run_total();
    let (oracle_s, digest_s, unchecked_s) = match (checks.oracle, checks.digest) {
        (true, true) => {
            let oracle_only = arm_total(Checks::ORACLE, problems);
            let none = arm_total(Checks::NONE, problems);
            (oracle_only - none, full_s - oracle_only, none)
        }
        (true, false) => {
            let none = arm_total(Checks::NONE, problems);
            (full_s - none, 0.0, none)
        }
        _ => (0.0, 0.0, full_s),
    };

    if w == Workload::Litmus {
        for (cell, rec) in traced.cells.iter().zip(&traced.records) {
            if let (Err(e), _) = t.time("conformance.run_cell", |_| conformance_agrees(cell, rec)) {
                problems.push(e);
            }
        }
    }

    let n = traced.records.len().max(1) as u64;
    let hot = traced.records.iter().filter_map(|r| r.hot.as_ref());
    let sum = |f: &dyn Fn(&RunRecord) -> u64| -> u64 { traced.records.iter().map(f).sum() };
    let events: u64 = hot.clone().map(|h| h.events_popped).sum();
    let (l2_atomics, l2_reads, l2_writes) = hot.clone().fold((0, 0, 0), |a, h| {
        (a.0 + h.l2_ops.0, a.1 + h.l2_ops.1, a.2 + h.l2_ops.2)
    });
    let wake_scans: u64 = hot.clone().map(|h| h.wake_scans).sum();
    let dispatch_scans: u64 = hot.clone().map(|h| h.dispatch_scans).sum();
    let admissions: u64 = hot.clone().map(|h| h.dispatch_admissions).sum();
    let high_water = hot.map(|h| h.heap_high_water as u64).max().unwrap_or(0);
    let resumes = sum(&|r| r.resumes);
    let useless = sum(&|r| r.unnecessary_resumes);
    let switches = sum(&|r| r.switches);

    let sizes = Sizes {
        events: events / n,
        calendar_high_water: high_water,
        l2_atomics: l2_atomics / n,
        l2_reads: l2_reads / n,
        l2_writes: l2_writes / n,
        switches: switches / n,
        resumes: resumes / n,
    };
    let micro = match &traced.last {
        Some(gpu) => t.time("micro", |_| micro::run_all(&sizes, gpu)).0,
        None => {
            problems.push("no run finished; microbenchmarks skipped".to_owned());
            Micro::default()
        }
    };

    let gpu_run_s = t.total_s("gpu.run");
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let metrics = vec![
        Metric::new("gpu.run_s", gpu_run_s, "s"),
        Metric::new("sim.events", events as f64, "count"),
        Metric::new("sim.events_per_s", events as f64 / gpu_run_s, "1/s"),
        Metric::new("mem.l2_atomic_ns", micro.l2_atomic_ns, "ns"),
        Metric::new("mem.l2_read_ns", micro.l2_read_ns, "ns"),
        Metric::new("mem.l2_write_ns", micro.l2_write_ns, "ns"),
        Metric::new(
            "mem.l2_ops",
            (l2_atomics + l2_reads + l2_writes) as f64,
            "count",
        ),
        Metric::new("core.syncmon_register_ns", micro.syncmon_register_ns, "ns"),
        Metric::new("core.syncmon_notify_ns", micro.syncmon_notify_ns, "ns"),
        Metric::new("core.resumes", resumes as f64, "count"),
        Metric::new(
            "core.useful_resume_ratio",
            ratio(resumes - useless, resumes),
            "ratio",
        ),
        Metric::new("gpu.insts", sum(&|r| r.insts) as f64, "count"),
        Metric::new("gpu.atomics", sum(&|r| r.atomics) as f64, "count"),
        Metric::new("gpu.wake_scans", wake_scans as f64, "count"),
        Metric::new(
            "gpu.dispatch_admit_ratio",
            ratio(admissions, dispatch_scans),
            "ratio",
        ),
        Metric::new("gpu.switches", switches as f64, "count"),
        Metric::new(
            "mem.context_burst_ns_per_kb",
            micro.context_burst_ns_per_kb,
            "ns/KB",
        ),
        Metric::new(
            "sim.calendar_ns_per_event",
            micro.calendar_ns_per_event,
            "ns",
        ),
        Metric::new("sim.calendar_high_water", high_water as f64, "count"),
        Metric::new("gpu.oracle_s", oracle_s, "s"),
        Metric::new("gpu.digest_trail_s", digest_s, "s"),
        Metric::new("gpu.digest_us", micro.digest_us, "us"),
        Metric::new("gpu.checked_tax", full_s / unchecked_s, "ratio"),
        Metric::new("workloads.build_s", t.total_s("workloads.build"), "s"),
        Metric::new("gpu.new_s", t.total_s("gpu.new"), "s"),
        Metric::new(
            "conformance.generate_s",
            t.total_s("conformance.generate"),
            "s",
        ),
        Metric::new("workloads.validate_s", t.total_s("workloads.validate"), "s"),
        Metric::new("conformance.cell_s", t.total_s("conformance.run_cell"), "s"),
    ];

    lines.push(format!(
        "traced identity: runs={} sim_cycles={} events={events} fingerprint={:#018x}",
        traced.records.len(),
        sum(&|r| r.cycles),
        traced.fingerprint
    ));
    for m in &metrics {
        lines.push(format!("{}: {} {}", m.name, m.value, m.unit));
    }
    lines.push("layer self time (span: count, total_s, self_s):".to_owned());
    for (name, lt) in t.layer_times() {
        lines.push(format!(
            "  {name}: {} {:.6} {:.6}",
            lt.count, lt.total_s, lt.self_s
        ));
    }
    let traced_wall = traced.run_total();
    lines.push(format!(
        "trace overhead: traced wall_s {traced_wall:.6} - untraced wall_s {full_s:.6} = {:.6} s ({:+.1}%)",
        traced_wall - full_s,
        (traced_wall / full_s - 1.0) * 100.0
    ));
    (metrics, t.to_jsonl())
}
