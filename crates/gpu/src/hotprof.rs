//! Host-side hot-path profiler for the event core.
//!
//! [`HotProfile`] counts the event loop's *real work* — events popped and
//! pushed, calendar depth high-water, per-event-type dispatch counts and
//! wall-time, wake-scan and dispatch-scan passes — so that the planned
//! event-core rewrite (ROADMAP item 1) is gated on measurements, not
//! guesses. The machine folds memory-system and policy counters in at end
//! of run, producing a [`HotReport`] with a ranked hotspot table whose
//! wall-time fractions sum to 100% by construction.
//!
//! Zero-cost-when-off: the machine holds an `Option<Box<HotProfile>>` and
//! every hook is behind an `if let`. Like the telemetry hub's
//! `SelfProfile`, the profiler is host-only state — it never feeds the
//! digest trail, so enabling it cannot perturb simulated behaviour.

use std::time::Duration;

use awg_sim::json::Value;
use awg_sim::Cycle;

use crate::oracle::{OracleWork, RegistryReads};

/// Number of event-type lanes (one per [`Event`](crate::machine) variant,
/// in save-tag order).
pub const EVENT_LANES: usize = 12;

/// Lane names, indexed by the event's stable save tag.
pub const LANE_NAMES: [&str; EVENT_LANES] = [
    "continue",
    "response",
    "wake-deliver",
    "wait-timeout",
    "swap-out-done",
    "swap-in-done",
    "dispatch-done",
    "cp-tick",
    "resource-loss",
    "resource-restore",
    "progress-check",
    "fault",
];

/// Live hot-path counters, updated from inside the event loop.
#[derive(Debug, Clone, Default)]
pub struct HotProfile {
    /// Events popped from the calendar.
    pub events_popped: u64,
    /// Calendar length high-water mark (heap depth after each handle).
    pub heap_high_water: usize,
    /// Per-event-type handled counts, indexed by save tag.
    pub lane_counts: [u64; EVENT_LANES],
    /// Per-event-type handler wall-clock, indexed by save tag.
    pub lane_wall: [Duration; EVENT_LANES],
    /// Wake-scan passes (`apply_wakes` invocations).
    pub wake_scans: u64,
    /// Wakes carried by those passes (before chaos perturbation).
    pub wakes_applied: u64,
    /// Dispatch-scan passes (`try_dispatch` invocations).
    pub dispatch_scans: u64,
    /// WG admissions those passes produced (dispatches + swap-ins).
    pub dispatch_admissions: u64,
    /// `EventQueue::scheduled_total()` when profiling was enabled, so the
    /// report can derive pushes that happened while the profiler watched.
    pub sched_base: u64,
}

impl HotProfile {
    /// Attributes one handled event to its lane.
    #[inline]
    pub fn note_event(&mut self, lane: usize, wall: Duration) {
        self.lane_counts[lane] += 1;
        self.lane_wall[lane] += wall;
    }
}

/// One ranked hotspot row: where the host's time inside `handle()` went.
#[derive(Debug, Clone)]
pub struct HotLane {
    /// Event-type name (see [`LANE_NAMES`]).
    pub name: &'static str,
    /// Events of this type handled.
    pub count: u64,
    /// Wall-clock spent handling them.
    pub wall: Duration,
    /// Share of the total attributed wall-clock, in `[0, 1]`.
    pub fraction: f64,
}

/// End-of-run hot-path summary: the ranked per-event-type table plus the
/// event-loop, wake/dispatch-scan, memory-system, and allocation-proxy
/// counters the rewrite must not regress.
#[derive(Debug, Clone)]
pub struct HotReport {
    /// Simulated cycles the profiled run covered.
    pub sim_cycles: Cycle,
    /// Host wall-clock of the whole run.
    pub total_wall: Duration,
    /// Events popped from the calendar.
    pub events_popped: u64,
    /// Events pushed into the calendar while profiling.
    pub events_pushed: u64,
    /// Calendar length high-water mark.
    pub heap_high_water: usize,
    /// Per-event-type rows, sorted by wall-clock descending.
    pub lanes: Vec<HotLane>,
    /// Wake-scan passes.
    pub wake_scans: u64,
    /// Wakes carried by those passes.
    pub wakes_applied: u64,
    /// Dispatch-scan passes.
    pub dispatch_scans: u64,
    /// WG admissions those passes produced.
    pub dispatch_admissions: u64,
    /// L2 `(atomics, reads, writes)` — bank-queue operations.
    pub l2_ops: (u64, u64, u64),
    /// The most L2 lines monitored at once during the run (a high-water
    /// mark: at the end of a completed run no line is monitored).
    pub peak_monitored_lines: usize,
    /// Monitor Log appends plus CP condition checks: the probes of the
    /// slow path a waiter takes when it spills out of the SyncMon (zero
    /// when nothing spilled, and for policies without a monitor).
    pub log_cp_probes: u64,
    /// Retained trace records — the run's dominant allocation proxy.
    pub trace_records: usize,
    /// The invariant oracle's registry reads (all zero with the oracle
    /// off).
    pub registry_reads: RegistryReads,
    /// The invariant oracle's sweeps, per-event checks, quiet skips and CU
    /// passes (all zero with the oracle off).
    pub oracle_work: OracleWork,
}

impl HotReport {
    /// Builds the ranked report from live counters plus machine-side
    /// context. `lane_wall` fractions are normalized over the sum of all
    /// lanes, so they total 100% (up to rounding) whenever any wall time
    /// was attributed.
    #[allow(clippy::too_many_arguments)] // one-shot assembly from the machine
    pub(crate) fn assemble(
        prof: &HotProfile,
        sim_cycles: Cycle,
        total_wall: Duration,
        sched_total: u64,
        l2_ops: (u64, u64, u64),
        peak_monitored_lines: usize,
        log_cp_probes: u64,
        trace_records: usize,
        registry_reads: RegistryReads,
        oracle_work: OracleWork,
    ) -> Self {
        let attributed: Duration = prof.lane_wall.iter().sum();
        let mut lanes: Vec<HotLane> = (0..EVENT_LANES)
            .map(|i| HotLane {
                name: LANE_NAMES[i],
                count: prof.lane_counts[i],
                wall: prof.lane_wall[i],
                fraction: if attributed > Duration::ZERO {
                    prof.lane_wall[i].as_secs_f64() / attributed.as_secs_f64()
                } else {
                    0.0
                },
            })
            .collect();
        lanes.sort_by(|a, b| b.wall.cmp(&a.wall).then(a.name.cmp(b.name)));
        HotReport {
            sim_cycles,
            total_wall,
            events_popped: prof.events_popped,
            events_pushed: sched_total.saturating_sub(prof.sched_base),
            heap_high_water: prof.heap_high_water,
            lanes,
            wake_scans: prof.wake_scans,
            wakes_applied: prof.wakes_applied,
            dispatch_scans: prof.dispatch_scans,
            dispatch_admissions: prof.dispatch_admissions,
            l2_ops,
            peak_monitored_lines,
            log_cp_probes,
            trace_records,
            registry_reads,
            oracle_work,
        }
    }

    /// Simulated cycles per host second (0.0 when wall time is zero).
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.total_wall.as_secs_f64();
        if secs > 0.0 {
            self.sim_cycles as f64 / secs
        } else {
            0.0
        }
    }

    /// Serializes the report with the hand-rolled JSON codec.
    pub fn to_json(&self) -> Value {
        let lanes: Vec<Value> = self
            .lanes
            .iter()
            .map(|l| {
                Value::Object(vec![
                    ("name".to_owned(), Value::Str(l.name.to_owned())),
                    ("count".to_owned(), Value::Num(l.count as f64)),
                    ("wall_ns".to_owned(), Value::Num(l.wall.as_nanos() as f64)),
                    ("fraction".to_owned(), Value::Num(l.fraction)),
                ])
            })
            .collect();
        let (atomics, reads, writes) = self.l2_ops;
        let counts = |counts: &[(&str, u64)]| {
            Value::Object(
                counts
                    .iter()
                    .map(|&(name, n)| (name.to_owned(), Value::Num(n as f64)))
                    .collect(),
            )
        };
        let r = &self.registry_reads;
        let registry = counts(&[
            ("sweep_reads", r.sweep_reads),
            ("sweep_records", r.sweep_records),
            ("full_reads", r.full_reads),
            ("full_records", r.full_records),
            ("journal_reads", r.journal_reads),
            ("journal_wgs", r.journal_wgs),
            ("journal_records", r.journal_records),
            ("report_reads", r.report_reads),
        ]);
        let w = &self.oracle_work;
        let work = counts(&[
            ("sweeps", w.sweeps),
            ("checks", w.checks),
            ("quiet_skips", w.quiet_skips),
            ("cu_passes", w.cu_passes),
        ]);
        Value::Object(vec![
            ("profile".to_owned(), Value::Str("awg-hotspot".to_owned())),
            ("sim_cycles".to_owned(), Value::Num(self.sim_cycles as f64)),
            (
                "total_wall_ns".to_owned(),
                Value::Num(self.total_wall.as_nanos() as f64),
            ),
            (
                "mcycles_per_sec".to_owned(),
                Value::Num(self.cycles_per_sec() / 1e6),
            ),
            (
                "events_popped".to_owned(),
                Value::Num(self.events_popped as f64),
            ),
            (
                "events_pushed".to_owned(),
                Value::Num(self.events_pushed as f64),
            ),
            (
                "heap_high_water".to_owned(),
                Value::Num(self.heap_high_water as f64),
            ),
            ("lanes".to_owned(), Value::Array(lanes)),
            ("wake_scans".to_owned(), Value::Num(self.wake_scans as f64)),
            (
                "wakes_applied".to_owned(),
                Value::Num(self.wakes_applied as f64),
            ),
            (
                "dispatch_scans".to_owned(),
                Value::Num(self.dispatch_scans as f64),
            ),
            (
                "dispatch_admissions".to_owned(),
                Value::Num(self.dispatch_admissions as f64),
            ),
            ("l2_atomics".to_owned(), Value::Num(atomics as f64)),
            ("l2_reads".to_owned(), Value::Num(reads as f64)),
            ("l2_writes".to_owned(), Value::Num(writes as f64)),
            (
                "peak_monitored_lines".to_owned(),
                Value::Num(self.peak_monitored_lines as f64),
            ),
            (
                "log_cp_probes".to_owned(),
                Value::Num(self.log_cp_probes as f64),
            ),
            (
                "trace_records".to_owned(),
                Value::Num(self.trace_records as f64),
            ),
            ("oracle_registry_reads".to_owned(), registry),
            ("oracle_work".to_owned(), work),
        ])
    }
}

impl std::fmt::Display for HotReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "hot-profile: {:.3} s wall, {} cycles ({:.2} Mcycles/s)",
            self.total_wall.as_secs_f64(),
            self.sim_cycles,
            self.cycles_per_sec() / 1e6,
        )?;
        writeln!(
            f,
            "  event loop: {} popped, {} pushed, calendar high-water {}",
            self.events_popped, self.events_pushed, self.heap_high_water
        )?;
        writeln!(
            f,
            "  scans: {} wake passes ({} wakes), {} dispatch passes ({} admissions)",
            self.wake_scans, self.wakes_applied, self.dispatch_scans, self.dispatch_admissions
        )?;
        let (atomics, reads, writes) = self.l2_ops;
        writeln!(
            f,
            "  l2 bank ops: {atomics} atomics, {reads} reads, {writes} writes; \
             {} peak monitored lines, {} log/CP probes",
            self.peak_monitored_lines, self.log_cp_probes
        )?;
        writeln!(f, "  alloc proxy: {} trace records", self.trace_records)?;
        let r = &self.registry_reads;
        writeln!(
            f,
            "  oracle registry reads: {} by sweeps ({} records), {} whole by events ({} \
             records), {} journaled ({} WGs, {} records), {} sorted to report",
            r.sweep_reads,
            r.sweep_records,
            r.full_reads,
            r.full_records,
            r.journal_reads,
            r.journal_wgs,
            r.journal_records,
            r.report_reads
        )?;
        let w = &self.oracle_work;
        writeln!(
            f,
            "  oracle work: {} sweeps, {} per-event checks ({} CU passes), {} quiet skips",
            w.sweeps, w.checks, w.cu_passes, w.quiet_skips
        )?;
        writeln!(
            f,
            "  {:<18} {:>10} {:>12} {:>7}",
            "hotspot", "events", "wall ms", "share"
        )?;
        for lane in &self.lanes {
            writeln!(
                f,
                "  {:<18} {:>10} {:>12.3} {:>6.1}%",
                lane.name,
                lane.count,
                lane.wall.as_secs_f64() * 1e3,
                lane.fraction * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one_and_rank_descending() {
        let mut prof = HotProfile {
            sched_base: 10,
            ..HotProfile::default()
        };
        prof.note_event(0, Duration::from_micros(300));
        prof.note_event(0, Duration::from_micros(200));
        prof.note_event(1, Duration::from_micros(400));
        prof.note_event(7, Duration::from_micros(100));
        prof.events_popped = 4;
        prof.heap_high_water = 9;
        let report = HotReport::assemble(
            &prof,
            50_000,
            Duration::from_millis(2),
            25,
            (5, 6, 7),
            3,
            11,
            42,
            RegistryReads::default(),
            OracleWork::default(),
        );
        let total: f64 = report.lanes.iter().map(|l| l.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to 100%: {total}");
        assert!(
            report.lanes.windows(2).all(|w| w[0].wall >= w[1].wall),
            "ranked by wall descending"
        );
        assert_eq!(report.lanes[0].name, "continue");
        assert_eq!(report.lanes[0].count, 2);
        assert_eq!(report.events_pushed, 15);
        assert_eq!(report.heap_high_water, 9);
    }

    #[test]
    fn report_json_round_trips() {
        let mut prof = HotProfile::default();
        prof.note_event(2, Duration::from_micros(50));
        let report = HotReport::assemble(
            &prof,
            1_000,
            Duration::from_micros(80),
            7,
            (1, 2, 3),
            0,
            0,
            5,
            RegistryReads::default(),
            OracleWork::default(),
        );
        let text = report.to_json().to_json();
        let parsed = awg_sim::json::parse(&text).expect("profile JSON parses");
        assert_eq!(
            parsed.get("profile").and_then(|v| v.as_str()),
            Some("awg-hotspot")
        );
        assert_eq!(
            parsed.get("events_pushed").and_then(Value::as_f64),
            Some(7.0)
        );
        let lanes = parsed.get("lanes").and_then(|v| v.as_array()).unwrap();
        assert_eq!(lanes.len(), EVENT_LANES);
        assert_eq!(
            lanes[0].get("name").and_then(|v| v.as_str()),
            Some("wake-deliver")
        );
        let text2 = report.to_json().to_json();
        assert_eq!(text, text2, "serialization is deterministic");
    }

    #[test]
    fn display_renders_every_lane_and_counter() {
        let mut prof = HotProfile::default();
        prof.note_event(6, Duration::from_micros(10));
        let report = HotReport::assemble(
            &prof,
            100,
            Duration::from_micros(20),
            1,
            (0, 0, 0),
            0,
            0,
            0,
            RegistryReads {
                journal_wgs: 17,
                report_reads: 2,
                ..RegistryReads::default()
            },
            OracleWork {
                sweeps: 3,
                checks: 40,
                quiet_skips: 9,
                cu_passes: 5,
            },
        );
        let text = report.to_string();
        for name in LANE_NAMES {
            assert!(text.contains(name), "{text}");
        }
        assert!(text.contains("calendar high-water"), "{text}");
        assert!(text.contains("share"), "{text}");
        assert!(
            text.contains("0 journaled (17 WGs, 0 records), 2 sorted to report"),
            "{text}"
        );
        assert!(
            text.contains("3 sweeps, 40 per-event checks (5 CU passes), 9 quiet skips"),
            "{text}"
        );
    }
}
