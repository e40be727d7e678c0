//! JSON codecs for journaled job results.
//!
//! The durable job journal stores each completed job's *value* so a resumed
//! campaign can re-merge it without re-simulating. [`Artifact`] is the
//! contract a job's return type must satisfy: serialize to the hand-rolled
//! [`awg_sim::json::Value`], deserialize back, and (for supervision) expose
//! whether the run was watchdog-cancelled.
//!
//! Two widths of u64 need care: JSON numbers are `f64`, whose 53-bit
//! mantissa silently corrupts full-width words. Cycle counts, instruction
//! counts, and stat values are bounded far below 2⁵³ by the machine's cycle
//! cap and encode as numbers; **digests** (`Fingerprint64` outputs) use the
//! full 64 bits and encode as `"0x…"` hex strings.
//!
//! One deliberate omission: windowed telemetry snapshots
//! ([`ExpResult::snapshots`]) are not journaled — they are bulky, no
//! campaign report consumes them, and the timeline command that does runs
//! single jobs without a journal. A decoded result has an empty snapshot
//! list.

use std::time::Duration;

use awg_core::policies::PolicyKind;
use awg_gpu::{
    CancelCause, HangReport, InvariantKind, InvariantViolation, MonitorEntrySnapshot, RunOutcome,
    RunSummary, SyncCond, WgState, WgWaitInfo,
};
use awg_sim::json::Value;
use awg_sim::telemetry::{ProfileReport, Subsystem};
use awg_sim::{Cycle, Stats};
use awg_workloads::BenchmarkKind;

use crate::report::Cell;
use crate::run::ExpResult;

/// A job result the journal can persist and restore.
pub trait Artifact: Sized {
    /// Serializes the result for the journal.
    fn to_json(&self) -> Value;
    /// Restores a result from its journaled form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch; the
    /// supervisor treats an undecodable record as a cache miss and re-runs
    /// the job.
    fn from_json(value: &Value) -> Result<Self, String>;
    /// The cancellation point and cause, when the underlying run was
    /// watchdog-cancelled. The supervisor reports such a result as a
    /// [`SimError::JobTimeout`](awg_gpu::SimError::JobTimeout) row instead
    /// of journaling it as complete.
    fn cancelled(&self) -> Option<(Cycle, CancelCause)> {
        None
    }
}

// ---------------------------------------------------------------------------
// Small building blocks.

pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

pub(crate) fn num(n: u64) -> Value {
    debug_assert!(n < (1 << 53), "{n} does not fit an f64 mantissa; use hex()");
    Value::Num(n as f64)
}

pub(crate) fn hex(word: u64) -> Value {
    Value::Str(format!("{word:#018x}"))
}

pub(crate) fn field<'v>(value: &'v Value, key: &str) -> Result<&'v Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))
}

pub(crate) fn get_f64(value: &Value, key: &str) -> Result<f64, String> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

pub(crate) fn get_u64(value: &Value, key: &str) -> Result<u64, String> {
    let n = get_f64(value, key)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("field {key:?} is not an unsigned integer: {n}"));
    }
    Ok(n as u64)
}

pub(crate) fn get_str<'v>(value: &'v Value, key: &str) -> Result<&'v str, String> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

pub(crate) fn get_arr<'v>(value: &'v Value, key: &str) -> Result<&'v [Value], String> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| format!("field {key:?} is not an array"))
}

pub(crate) fn parse_hex(text: &str) -> Result<u64, String> {
    let digits = text
        .strip_prefix("0x")
        .ok_or_else(|| format!("expected 0x-prefixed hex word, got {text:?}"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad hex word {text:?}: {e}"))
}

pub(crate) fn as_u64(value: &Value, what: &str) -> Result<u64, String> {
    let n = value
        .as_f64()
        .ok_or_else(|| format!("{what} is not a number"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("{what} is not an unsigned integer: {n}"));
    }
    Ok(n as u64)
}

fn pair_u64(value: &Value, what: &str) -> Result<(u64, u64), String> {
    let items = value
        .as_array()
        .ok_or_else(|| format!("{what} is not an array"))?;
    if items.len() != 2 {
        return Err(format!("{what} is not a pair"));
    }
    Ok((as_u64(&items[0], what)?, as_u64(&items[1], what)?))
}

// ---------------------------------------------------------------------------
// Leaf codecs.

fn kind_to_json(kind: BenchmarkKind) -> Value {
    Value::Str(kind.abbreviation().to_owned())
}

fn kind_from_json(value: &Value) -> Result<BenchmarkKind, String> {
    let abbrev = value
        .as_str()
        .ok_or_else(|| "benchmark kind is not a string".to_owned())?;
    BenchmarkKind::all()
        .into_iter()
        .find(|k| k.abbreviation() == abbrev)
        .ok_or_else(|| format!("unknown benchmark abbreviation {abbrev:?}"))
}

fn policy_to_json(policy: PolicyKind) -> Value {
    let (name, param) = match policy {
        PolicyKind::Baseline => ("Baseline", None),
        PolicyKind::Sleep => ("Sleep", None),
        PolicyKind::SleepMax(m) => ("SleepMax", Some(m)),
        PolicyKind::Timeout => ("Timeout", None),
        PolicyKind::TimeoutInterval(i) => ("TimeoutInterval", Some(i)),
        PolicyKind::MonRsAll => ("MonRsAll", None),
        PolicyKind::MonRAll => ("MonRAll", None),
        PolicyKind::MonNrAll => ("MonNrAll", None),
        PolicyKind::MonNrOne => ("MonNrOne", None),
        PolicyKind::Awg => ("Awg", None),
        PolicyKind::MinResume => ("MinResume", None),
    };
    let mut fields = vec![("name", Value::Str(name.to_owned()))];
    if let Some(p) = param {
        fields.push(("param", num(p)));
    }
    obj(fields)
}

fn policy_from_json(value: &Value) -> Result<PolicyKind, String> {
    let name = get_str(value, "name")?;
    let param = || get_u64(value, "param");
    Ok(match name {
        "Baseline" => PolicyKind::Baseline,
        "Sleep" => PolicyKind::Sleep,
        "SleepMax" => PolicyKind::SleepMax(param()?),
        "Timeout" => PolicyKind::Timeout,
        "TimeoutInterval" => PolicyKind::TimeoutInterval(param()?),
        "MonRsAll" => PolicyKind::MonRsAll,
        "MonRAll" => PolicyKind::MonRAll,
        "MonNrAll" => PolicyKind::MonNrAll,
        "MonNrOne" => PolicyKind::MonNrOne,
        "Awg" => PolicyKind::Awg,
        "MinResume" => PolicyKind::MinResume,
        other => return Err(format!("unknown policy {other:?}")),
    })
}

const WG_STATES: [(WgState, &str); 10] = [
    (WgState::Pending, "Pending"),
    (WgState::Dispatching, "Dispatching"),
    (WgState::Running, "Running"),
    (WgState::Sleeping, "Sleeping"),
    (WgState::Stalled, "Stalled"),
    (WgState::SwappingOut, "SwappingOut"),
    (WgState::SwappedWaiting, "SwappedWaiting"),
    (WgState::ReadySwapped, "ReadySwapped"),
    (WgState::SwappingIn, "SwappingIn"),
    (WgState::Finished, "Finished"),
];

fn wg_state_to_json(state: WgState) -> Value {
    let (_, name) = WG_STATES
        .iter()
        .find(|(s, _)| *s == state)
        .expect("every WgState is in the table");
    Value::Str((*name).to_owned())
}

fn wg_state_from_json(value: &Value) -> Result<WgState, String> {
    let name = value
        .as_str()
        .ok_or_else(|| "WG state is not a string".to_owned())?;
    WG_STATES
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(s, _)| *s)
        .ok_or_else(|| format!("unknown WG state {name:?}"))
}

const INVARIANT_KINDS: [(InvariantKind, &str); 8] = [
    (
        InvariantKind::DuplicateRegistration,
        "DuplicateRegistration",
    ),
    (InvariantKind::StaleRegistration, "StaleRegistration"),
    (InvariantKind::MonitorSupersetHole, "MonitorSupersetHole"),
    (InvariantKind::UnreachableWaiter, "UnreachableWaiter"),
    (InvariantKind::MisdeliveredWake, "MisdeliveredWake"),
    (InvariantKind::WgAccounting, "WgAccounting"),
    (InvariantKind::CuAccounting, "CuAccounting"),
    (InvariantKind::CuResidency, "CuResidency"),
];

fn violation_to_json(v: &InvariantViolation) -> Value {
    let (_, name) = INVARIANT_KINDS
        .iter()
        .find(|(k, _)| *k == v.kind)
        .expect("every InvariantKind is in the table");
    obj(vec![
        ("at", num(v.at)),
        ("kind", Value::Str((*name).to_owned())),
        ("detail", Value::Str(v.detail.clone())),
    ])
}

fn violation_from_json(value: &Value) -> Result<InvariantViolation, String> {
    let name = get_str(value, "kind")?;
    let kind = INVARIANT_KINDS
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(k, _)| *k)
        .ok_or_else(|| format!("unknown invariant kind {name:?}"))?;
    Ok(InvariantViolation {
        at: get_u64(value, "at")?,
        kind,
        detail: get_str(value, "detail")?.to_owned(),
    })
}

pub(crate) fn cause_to_json(cause: CancelCause) -> Value {
    match cause {
        CancelCause::WallDeadline(limit) => obj(vec![
            ("cause", Value::Str("wall-deadline".into())),
            ("nanos", num(limit.as_nanos() as u64)),
        ]),
        CancelCause::CycleBudget(budget) => obj(vec![
            ("cause", Value::Str("cycle-budget".into())),
            ("budget", num(budget)),
        ]),
    }
}

pub(crate) fn cause_from_json(value: &Value) -> Result<CancelCause, String> {
    Ok(match get_str(value, "cause")? {
        "wall-deadline" => {
            CancelCause::WallDeadline(Duration::from_nanos(get_u64(value, "nanos")?))
        }
        "cycle-budget" => CancelCause::CycleBudget(get_u64(value, "budget")?),
        other => return Err(format!("unknown cancel cause {other:?}")),
    })
}

// ---------------------------------------------------------------------------
// Stats.

fn stats_to_json(stats: &Stats) -> Value {
    let counters = stats
        .counters()
        .map(|(name, value)| Value::Array(vec![Value::Str(name.to_owned()), num(value)]))
        .collect();
    let dists = stats
        .dists()
        .map(|(name, s)| {
            Value::Array(vec![
                Value::Str(name.to_owned()),
                num(s.count),
                num(s.sum),
                num(s.min),
                num(s.max),
            ])
        })
        .collect();
    let hists = stats
        .hists()
        .map(|(name, buckets)| {
            Value::Array(vec![
                Value::Str(name.to_owned()),
                Value::Array(
                    buckets
                        .into_iter()
                        .map(|(lo, c)| Value::Array(vec![num(lo), num(c)]))
                        .collect(),
                ),
            ])
        })
        .collect();
    obj(vec![
        ("counters", Value::Array(counters)),
        ("dists", Value::Array(dists)),
        ("hists", Value::Array(hists)),
    ])
}

fn stats_from_json(value: &Value) -> Result<Stats, String> {
    let mut stats = Stats::new();
    for entry in get_arr(value, "counters")? {
        let items = entry
            .as_array()
            .ok_or_else(|| "counter entry is not an array".to_owned())?;
        if items.len() != 2 {
            return Err("counter entry is not a [name, value] pair".into());
        }
        let name = items[0]
            .as_str()
            .ok_or_else(|| "counter name is not a string".to_owned())?;
        let id = stats.counter(name.to_owned());
        stats.add(id, as_u64(&items[1], "counter value")?);
    }
    for entry in get_arr(value, "dists")? {
        let items = entry
            .as_array()
            .ok_or_else(|| "dist entry is not an array".to_owned())?;
        if items.len() != 5 {
            return Err("dist entry is not [name, count, sum, min, max]".into());
        }
        let name = items[0]
            .as_str()
            .ok_or_else(|| "dist name is not a string".to_owned())?;
        stats.restore_dist(
            name,
            awg_sim::DistSummary {
                count: as_u64(&items[1], "dist count")?,
                sum: as_u64(&items[2], "dist sum")?,
                min: as_u64(&items[3], "dist min")?,
                max: as_u64(&items[4], "dist max")?,
            },
        );
    }
    for entry in get_arr(value, "hists")? {
        let items = entry
            .as_array()
            .ok_or_else(|| "hist entry is not an array".to_owned())?;
        if items.len() != 2 {
            return Err("hist entry is not [name, buckets]".into());
        }
        let name = items[0]
            .as_str()
            .ok_or_else(|| "hist name is not a string".to_owned())?;
        // Register the name even when every bucket is empty.
        stats.hist(name.to_owned());
        let buckets = items[1]
            .as_array()
            .ok_or_else(|| "hist buckets are not an array".to_owned())?;
        for bucket in buckets {
            let (lo, count) = pair_u64(bucket, "hist bucket")?;
            stats.restore_hist_bucket(name, lo, count);
        }
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Summaries, hang reports, outcomes.

fn summary_to_json(s: &RunSummary) -> Value {
    obj(vec![
        ("cycles", num(s.cycles)),
        ("insts", num(s.insts)),
        ("atomics", num(s.atomics)),
        ("running_cycles", num(s.running_cycles)),
        ("waiting_cycles", num(s.waiting_cycles)),
        ("switches_out", num(s.switches_out)),
        ("switches_in", num(s.switches_in)),
        ("resumes", num(s.resumes)),
        ("unnecessary_resumes", num(s.unnecessary_resumes)),
        ("stats", stats_to_json(&s.stats)),
    ])
}

fn summary_from_json(value: &Value) -> Result<RunSummary, String> {
    Ok(RunSummary {
        cycles: get_u64(value, "cycles")?,
        insts: get_u64(value, "insts")?,
        atomics: get_u64(value, "atomics")?,
        running_cycles: get_u64(value, "running_cycles")?,
        waiting_cycles: get_u64(value, "waiting_cycles")?,
        switches_out: get_u64(value, "switches_out")?,
        switches_in: get_u64(value, "switches_in")?,
        resumes: get_u64(value, "resumes")?,
        unnecessary_resumes: get_u64(value, "unnecessary_resumes")?,
        stats: stats_from_json(field(value, "stats")?)?,
    })
}

fn get_i64(value: &Value, key: &str) -> Result<i64, String> {
    let n = get_f64(value, key)?;
    if n.fract() != 0.0 {
        return Err(format!("field {key:?} is not an integer: {n}"));
    }
    Ok(n as i64)
}

fn opt_u64(value: &Value, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(_) => Ok(Some(get_u64(value, key)?)),
    }
}

fn wait_info_to_json(w: &WgWaitInfo) -> Value {
    let mut fields = vec![
        ("wg", num(u64::from(w.wg))),
        ("state", wg_state_to_json(w.state)),
        ("pc", num(w.pc as u64)),
    ];
    if let Some(cond) = w.cond {
        fields.push((
            "cond",
            obj(vec![
                ("addr", num(cond.addr)),
                ("expected", Value::Num(cond.expected as f64)),
            ]),
        ));
    }
    if let Some((addr, streak)) = w.spinning_on {
        fields.push(("spinning_on", Value::Array(vec![num(addr), num(streak)])));
    }
    if let Some(observed) = w.observed {
        fields.push(("observed", Value::Num(observed as f64)));
    }
    fields.push(("waited", num(w.waited)));
    if let Some(t) = w.timeout_in {
        fields.push(("timeout_in", num(t)));
    }
    obj(fields)
}

fn wait_info_from_json(value: &Value) -> Result<WgWaitInfo, String> {
    let cond = match value.get("cond") {
        None | Some(Value::Null) => None,
        Some(c) => Some(SyncCond {
            addr: get_u64(c, "addr")?,
            expected: get_i64(c, "expected")?,
        }),
    };
    let spinning_on = match value.get("spinning_on") {
        None | Some(Value::Null) => None,
        Some(s) => Some(pair_u64(s, "spinning_on")?),
    };
    let observed = match value.get("observed") {
        None | Some(Value::Null) => None,
        Some(_) => Some(get_i64(value, "observed")?),
    };
    Ok(WgWaitInfo {
        wg: u32::try_from(get_u64(value, "wg")?).map_err(|_| "WG id overflows u32".to_owned())?,
        state: wg_state_from_json(field(value, "state")?)?,
        pc: get_u64(value, "pc")? as usize,
        cond,
        spinning_on,
        observed,
        waited: get_u64(value, "waited")?,
        timeout_in: opt_u64(value, "timeout_in")?,
    })
}

fn hang_to_json(h: &HangReport) -> Value {
    obj(vec![
        ("at", num(h.at)),
        (
            "unfinished",
            Value::Array(h.unfinished.iter().map(wait_info_to_json).collect()),
        ),
        (
            "monitor_entries",
            Value::Array(
                h.monitor_entries
                    .iter()
                    .map(|e| {
                        obj(vec![
                            ("addr", num(e.addr)),
                            ("expected", Value::Num(e.expected as f64)),
                            ("waiters", num(e.waiters as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "waits_for",
            Value::Array(
                h.waits_for
                    .iter()
                    .map(|(addr, wgs)| {
                        Value::Array(vec![
                            num(*addr),
                            Value::Array(wgs.iter().map(|&wg| num(u64::from(wg))).collect()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn hang_from_json(value: &Value) -> Result<HangReport, String> {
    let unfinished = get_arr(value, "unfinished")?
        .iter()
        .map(wait_info_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let monitor_entries = get_arr(value, "monitor_entries")?
        .iter()
        .map(|e| {
            Ok(MonitorEntrySnapshot {
                addr: get_u64(e, "addr")?,
                expected: get_i64(e, "expected")?,
                waiters: get_u64(e, "waiters")? as usize,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let waits_for = get_arr(value, "waits_for")?
        .iter()
        .map(|entry| {
            let items = entry
                .as_array()
                .ok_or_else(|| "waits_for entry is not an array".to_owned())?;
            if items.len() != 2 {
                return Err("waits_for entry is not [addr, wgs]".to_owned());
            }
            let addr = as_u64(&items[0], "waits_for addr")?;
            let wgs = items[1]
                .as_array()
                .ok_or_else(|| "waits_for wgs is not an array".to_owned())?
                .iter()
                .map(|w| {
                    as_u64(w, "waits_for wg").and_then(|n| {
                        u32::try_from(n).map_err(|_| "WG id overflows u32".to_owned())
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((addr, wgs))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(HangReport {
        at: get_u64(value, "at")?,
        unfinished,
        monitor_entries,
        waits_for,
    })
}

fn outcome_to_json(outcome: &RunOutcome) -> Value {
    match outcome {
        RunOutcome::Completed(s) => obj(vec![
            ("ended", Value::Str("completed".into())),
            ("summary", summary_to_json(s)),
        ]),
        RunOutcome::Deadlocked {
            at,
            unfinished,
            summary,
            hang,
        } => obj(vec![
            ("ended", Value::Str("deadlocked".into())),
            ("at", num(*at)),
            ("unfinished", num(*unfinished as u64)),
            ("summary", summary_to_json(summary)),
            ("hang", hang_to_json(hang)),
        ]),
        RunOutcome::CycleLimit {
            at,
            unfinished,
            summary,
            hang,
        } => obj(vec![
            ("ended", Value::Str("cycle-limit".into())),
            ("at", num(*at)),
            ("unfinished", num(*unfinished as u64)),
            ("summary", summary_to_json(summary)),
            ("hang", hang_to_json(hang)),
        ]),
        RunOutcome::Cancelled {
            at,
            unfinished,
            cause,
            summary,
            hang,
        } => obj(vec![
            ("ended", Value::Str("cancelled".into())),
            ("at", num(*at)),
            ("unfinished", num(*unfinished as u64)),
            ("cause", cause_to_json(*cause)),
            ("summary", summary_to_json(summary)),
            ("hang", hang_to_json(hang)),
        ]),
    }
}

fn outcome_from_json(value: &Value) -> Result<RunOutcome, String> {
    let summary = summary_from_json(field(value, "summary")?)?;
    Ok(match get_str(value, "ended")? {
        "completed" => RunOutcome::Completed(summary),
        "deadlocked" => RunOutcome::Deadlocked {
            at: get_u64(value, "at")?,
            unfinished: get_u64(value, "unfinished")? as usize,
            summary,
            hang: hang_from_json(field(value, "hang")?)?,
        },
        "cycle-limit" => RunOutcome::CycleLimit {
            at: get_u64(value, "at")?,
            unfinished: get_u64(value, "unfinished")? as usize,
            summary,
            hang: hang_from_json(field(value, "hang")?)?,
        },
        "cancelled" => RunOutcome::Cancelled {
            at: get_u64(value, "at")?,
            unfinished: get_u64(value, "unfinished")? as usize,
            cause: cause_from_json(field(value, "cause")?)?,
            summary,
            hang: hang_from_json(field(value, "hang")?)?,
        },
        other => return Err(format!("unknown outcome {other:?}")),
    })
}

fn profile_to_json(p: &ProfileReport) -> Value {
    obj(vec![
        ("total_wall_ns", num(p.total_wall.as_nanos() as u64)),
        ("sim_cycles", num(p.sim_cycles)),
        ("events", num(p.events)),
        (
            "per_subsystem",
            Value::Array(
                p.per_subsystem
                    .iter()
                    .map(|(name, wall, events)| {
                        Value::Array(vec![
                            Value::Str((*name).to_owned()),
                            num(wall.as_nanos() as u64),
                            num(*events),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn profile_from_json(value: &Value) -> Result<ProfileReport, String> {
    let per_subsystem = get_arr(value, "per_subsystem")?
        .iter()
        .map(|entry| {
            let items = entry
                .as_array()
                .ok_or_else(|| "subsystem entry is not an array".to_owned())?;
            if items.len() != 3 {
                return Err("subsystem entry is not [name, wall_ns, events]".to_owned());
            }
            let name = items[0]
                .as_str()
                .ok_or_else(|| "subsystem name is not a string".to_owned())?;
            // Intern to the 'static names so the decoded report matches the
            // live type.
            let interned = Subsystem::ALL
                .iter()
                .map(|s| s.name())
                .find(|n| *n == name)
                .ok_or_else(|| format!("unknown subsystem {name:?}"))?;
            Ok((
                interned,
                Duration::from_nanos(as_u64(&items[1], "subsystem wall")?),
                as_u64(&items[2], "subsystem events")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ProfileReport {
        total_wall: Duration::from_nanos(get_u64(value, "total_wall_ns")?),
        sim_cycles: get_u64(value, "sim_cycles")?,
        events: get_u64(value, "events")?,
        per_subsystem,
    })
}

// ---------------------------------------------------------------------------
// Artifact impls.

impl Artifact for ExpResult {
    fn to_json(&self) -> Value {
        let validated = match &self.validated {
            Ok(()) => Value::Null,
            Err(msg) => Value::Str(msg.clone()),
        };
        let profile = match &self.profile {
            Some(p) => profile_to_json(p),
            None => Value::Null,
        };
        obj(vec![
            ("kind", kind_to_json(self.kind)),
            ("policy", policy_to_json(self.policy)),
            ("outcome", outcome_to_json(&self.outcome)),
            ("validated", validated),
            (
                "wg_breakdown",
                Value::Array(
                    self.wg_breakdown
                        .iter()
                        .map(|&(r, w)| Value::Array(vec![num(r), num(w)]))
                        .collect(),
                ),
            ),
            (
                "violations",
                Value::Array(self.violations.iter().map(violation_to_json).collect()),
            ),
            (
                "digest_trail",
                Value::Array(self.digest_trail.iter().map(|&d| hex(d)).collect()),
            ),
            ("profile", profile),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        let validated = match field(value, "validated")? {
            Value::Null => Ok(()),
            Value::Str(msg) => Err(msg.clone()),
            _ => return Err("field \"validated\" is neither null nor a string".into()),
        };
        let profile = match field(value, "profile")? {
            Value::Null => None,
            p => Some(profile_from_json(p)?),
        };
        let wg_breakdown = get_arr(value, "wg_breakdown")?
            .iter()
            .map(|p| pair_u64(p, "wg_breakdown entry"))
            .collect::<Result<Vec<_>, _>>()?;
        let violations = get_arr(value, "violations")?
            .iter()
            .map(violation_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let digest_trail = get_arr(value, "digest_trail")?
            .iter()
            .map(|d| {
                d.as_str()
                    .ok_or_else(|| "digest is not a string".to_owned())
                    .and_then(parse_hex)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ExpResult {
            kind: kind_from_json(field(value, "kind")?)?,
            policy: policy_from_json(field(value, "policy")?)?,
            outcome: outcome_from_json(field(value, "outcome")?)?,
            validated,
            wg_breakdown,
            violations,
            digest_trail,
            snapshots: Vec::new(),
            profile,
            hot: None,
            attribution: Vec::new(),
        })
    }

    fn cancelled(&self) -> Option<(Cycle, CancelCause)> {
        self.outcome.cancelled()
    }
}

impl Artifact for Vec<Cell> {
    fn to_json(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|cell| match cell {
                    Cell::Num(n) => obj(vec![("num", Value::Num(*n))]),
                    Cell::Text(t) => obj(vec![("text", Value::Str(t.clone()))]),
                    Cell::Deadlock => Value::Str("deadlock".into()),
                    Cell::Missing => Value::Str("missing".into()),
                })
                .collect(),
        )
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        value
            .as_array()
            .ok_or_else(|| "cell row is not an array".to_owned())?
            .iter()
            .map(|item| match item {
                Value::Str(s) if s == "deadlock" => Ok(Cell::Deadlock),
                Value::Str(s) if s == "missing" => Ok(Cell::Missing),
                Value::Object(_) => {
                    if let Some(n) = item.get("num").and_then(Value::as_f64) {
                        Ok(Cell::Num(n))
                    } else if let Some(t) = item.get("text").and_then(Value::as_str) {
                        Ok(Cell::Text(t.to_owned()))
                    } else {
                        Err("cell object has neither \"num\" nor \"text\"".into())
                    }
                }
                other => Err(format!("unrecognized cell {other:?}")),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_instrumented, Instrumentation};
    use crate::scale::Scale;
    use awg_core::policies::build_policy;

    fn assert_result_round_trips(r: &ExpResult) {
        let encoded = r.to_json();
        // Through text, as the journal stores it.
        let text = encoded.to_json();
        let reparsed = awg_sim::json::parse(&text).expect("codec output parses");
        let back = ExpResult::from_json(&reparsed).expect("codec round-trips");
        assert_eq!(back.kind, r.kind);
        assert_eq!(back.policy, r.policy);
        assert_eq!(back.validated, r.validated);
        assert_eq!(back.wg_breakdown, r.wg_breakdown);
        assert_eq!(back.violations, r.violations);
        assert_eq!(back.digest_trail, r.digest_trail);
        assert_eq!(back.cycles(), r.cycles());
        assert_eq!(back.deadlocked(), r.deadlocked());
        assert_eq!(back.atomics(), r.atomics());
        assert_eq!(back.breakdown(), r.breakdown());
        assert_eq!(back.cancelled(), r.cancelled());
        // Stats re-render identically (same names, same values, same order).
        assert_eq!(
            back.outcome.summary().stats.to_string(),
            r.outcome.summary().stats.to_string()
        );
        match (&back.outcome.hang_report(), &r.outcome.hang_report()) {
            (Some(b), Some(o)) => assert_eq!(b.to_string(), o.to_string()),
            (None, None) => {}
            other => panic!("hang report presence diverged: {other:?}"),
        }
        match (&back.profile, &r.profile) {
            (Some(b), Some(o)) => {
                assert_eq!(b.sim_cycles, o.sim_cycles);
                assert_eq!(b.events, o.events);
                assert_eq!(b.total_wall, o.total_wall);
                assert_eq!(b.per_subsystem, o.per_subsystem);
            }
            (None, None) => {}
            other => panic!("profile presence diverged: {other:?}"),
        }
    }

    #[test]
    fn completed_profiled_result_round_trips() {
        let scale = Scale::quick();
        let r = run_instrumented(
            BenchmarkKind::SpinMutexGlobal,
            PolicyKind::Awg,
            build_policy(PolicyKind::Awg),
            &scale,
            crate::run::ExperimentConfig::NonOversubscribed,
            None,
            Instrumentation::profiled(),
        );
        assert!(r.is_valid_completion());
        assert!(!r.digest_trail.is_empty() || r.cycles().unwrap() < crate::run::DIGEST_WINDOW);
        assert_result_round_trips(&r);
    }

    #[test]
    fn deadlocked_result_round_trips_with_hang_report() {
        let scale = Scale::quick();
        let r = run_instrumented(
            BenchmarkKind::SpinMutexGlobal,
            PolicyKind::Baseline,
            build_policy(PolicyKind::Baseline),
            &scale,
            crate::run::ExperimentConfig::Oversubscribed,
            None,
            Instrumentation::checked(),
        );
        assert!(r.deadlocked());
        assert!(r.outcome.hang_report().is_some());
        assert_result_round_trips(&r);
    }

    #[test]
    fn cancelled_result_round_trips_with_cause() {
        use awg_gpu::Watchdog;
        let scale = Scale::quick();
        let r = crate::run::run_watched(
            BenchmarkKind::SpinMutexGlobal,
            PolicyKind::Baseline,
            build_policy(PolicyKind::Baseline),
            &scale,
            crate::run::ExperimentConfig::Oversubscribed,
            None,
            Instrumentation::none(),
            Some(Watchdog::new(None, Some(500))),
        );
        let (at, cause) = r.cancelled().expect("watchdog must cancel the spin");
        assert!(at <= 501 + 1_000, "cancelled late: {at}");
        assert_eq!(cause, CancelCause::CycleBudget(500));
        assert_result_round_trips(&r);
    }

    #[test]
    fn cell_rows_round_trip() {
        let row = vec![
            Cell::Num(1234.5),
            Cell::Num(-0.25),
            Cell::Text("AWG".into()),
            Cell::Deadlock,
            Cell::Missing,
        ];
        let text = Artifact::to_json(&row).to_json();
        let back = Vec::<Cell>::from_json(&awg_sim::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn policy_codec_covers_parameterized_kinds() {
        for kind in [
            PolicyKind::Baseline,
            PolicyKind::Sleep,
            PolicyKind::SleepMax(64_000),
            PolicyKind::Timeout,
            PolicyKind::TimeoutInterval(5_000),
            PolicyKind::MonRsAll,
            PolicyKind::MonRAll,
            PolicyKind::MonNrAll,
            PolicyKind::MonNrOne,
            PolicyKind::Awg,
            PolicyKind::MinResume,
        ] {
            let back = policy_from_json(&policy_to_json(kind)).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn digests_survive_full_64_bits() {
        let word = 0xDEAD_BEEF_CAFE_F00Du64;
        let text = hex(word).to_json();
        let back = awg_sim::json::parse(&text).unwrap();
        assert_eq!(parse_hex(back.as_str().unwrap()).unwrap(), word);
    }

    #[test]
    fn decode_rejects_structural_garbage() {
        for bad in [
            "null",
            "{}",
            r#"{"kind":"NOPE","policy":{"name":"Awg"}}"#,
            r#"{"kind":"SPM_G","policy":{"name":"Warp9"}}"#,
        ] {
            let v = awg_sim::json::parse(bad).unwrap();
            assert!(ExpResult::from_json(&v).is_err(), "accepted {bad}");
        }
    }
}
