//! Mid-run checkpoint/restore determinism for the real policy family.
//!
//! The gpu-crate tests prove digest-identical resume for the busy-wait
//! baseline; these prove it for the monitor policies, whose mutable state
//! (SyncMon linked lists, Monitor Log, CP tables, predictor EWMAs, backoff
//! ladders) lives in `awg-core` and is serialized via the `SchedPolicy`
//! `save_state`/`load_state` hooks. Every policy runs a contended
//! test-and-set mutex so snapshots land with waiters parked in the monitor
//! structures, then a resumed run must replay to the same digest trail and
//! cycle count as an uninterrupted one.

use std::path::PathBuf;

use awg_core::policies::{build_policy, ChaosMode, ChaosWrap, MonNrAllPolicy, PolicyKind};
use awg_gpu::{
    read_checkpoint, restore_into, CheckpointSpec, Gpu, GpuConfig, Kernel, RunOutcome, SchedPolicy,
    SimError, SyncStyle, TraceEvent, WgResources,
};
use awg_isa::{Cond, Operand, ProgramBuilder, Reg};
use awg_mem::AtomicOp;
use awg_sim::{Stats, TelemetryConfig};

const LOCK: u64 = 4096;
const COUNTER: u64 = 8192;
const WGS: u64 = 24;
const ITERS: i64 = 6;
const DIGEST_WINDOW: u64 = 500;
const IDENTITY: u64 = 0xC0DE_5EED;

/// A contended test-and-set mutex in the instruction style the policy
/// expects (plain atomics, `wait`-armed polls, or waiting atomics).
fn mutex_kernel(style: SyncStyle) -> Kernel {
    let mut b = ProgramBuilder::new("ckpt-mutex");
    b.li(Reg::R3, 0);
    let iter = b.new_label();
    b.bind(iter);
    let retry = b.new_label();
    let acquired = b.new_label();
    b.bind(retry);
    match style {
        SyncStyle::Busy | SyncStyle::Backoff => {
            b.atom_exch(Reg::R0, LOCK, 1i64);
            b.br(Cond::Eq, Reg::R0, Operand::Imm(0), acquired);
        }
        SyncStyle::WaitInst => {
            b.atom_exch(Reg::R0, LOCK, 1i64);
            b.br(Cond::Eq, Reg::R0, Operand::Imm(0), acquired);
            b.wait(LOCK, 0i64);
        }
        SyncStyle::WaitingAtomic => {
            b.atom_wait(AtomicOp::Exch, Reg::R0, LOCK, 1i64, 0i64);
            b.br(Cond::Eq, Reg::R0, Operand::Imm(0), acquired);
        }
    }
    b.jmp(retry);
    b.bind(acquired);
    b.ld(Reg::R1, COUNTER);
    b.add(Reg::R1, Reg::R1, 1i64);
    b.st(COUNTER, Reg::R1);
    b.compute(20);
    b.atom_exch(Reg::R2, LOCK, 0i64);
    b.add(Reg::R3, Reg::R3, 1i64);
    b.br(Cond::Lt, Reg::R3, Operand::Imm(ITERS), iter);
    b.halt();
    Kernel::new(b.build().unwrap(), WGS, WgResources::default())
}

fn fresh(make: &dyn Fn() -> Box<dyn SchedPolicy>) -> Gpu {
    let style = make().style();
    let mut gpu = Gpu::new(GpuConfig::isca2020_baseline(), mutex_kernel(style), make());
    gpu.enable_digest_trail(DIGEST_WINDOW);
    gpu.enable_invariant_oracle();
    gpu
}

fn ckpt_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("awg_ckpt_policy_{}_{name}", std::process::id()));
    p
}

fn assert_resumed_matches(name: &str, make: &dyn Fn() -> Box<dyn SchedPolicy>) {
    let mut reference = fresh(make);
    let outcome = reference.run();
    assert!(outcome.is_completed(), "{name} reference: {outcome:?}");
    let ref_trail = reference.digest_trail().to_vec();
    let ref_cycles = outcome.summary().cycles;
    assert_eq!(
        reference.backing().load(COUNTER),
        WGS as i64 * ITERS,
        "{name}"
    );

    // A checkpointing twin must not perturb the simulation, and its last
    // snapshot must land while waiters still sit in the policy structures.
    let every = (ref_cycles / 8).max(500);
    let path = ckpt_path(name);
    let spec = || CheckpointSpec {
        path: path.clone(),
        every,
        identity: IDENTITY,
        kill_after: None,
    };
    let mut writer = fresh(make);
    writer.set_checkpoint(spec());
    let outcome = writer.run();
    assert!(outcome.is_completed(), "{name} writer: {outcome:?}");
    assert!(
        writer.checkpoint_error().is_none(),
        "{name}: {:?}",
        writer.checkpoint_error()
    );
    assert!(
        writer.checkpoints_written() >= 2,
        "{name}: only {} snapshots",
        writer.checkpoints_written()
    );
    assert_eq!(
        writer.digest_trail(),
        ref_trail.as_slice(),
        "{name}: snapshots perturbed the run"
    );
    assert_eq!(outcome.summary().cycles, ref_cycles, "{name}");

    let image = read_checkpoint(&path).unwrap();
    assert!(
        image.cycle > 0 && image.cycle < ref_cycles,
        "{name}: snapshot not mid-run"
    );
    let mut resumed = fresh(make);
    resumed.set_checkpoint(spec());
    restore_into(&mut resumed, &image, IDENTITY).unwrap_or_else(|e| panic!("{name}: {e}"));
    let outcome = resumed.run();
    assert!(outcome.is_completed(), "{name} resumed: {outcome:?}");
    assert_eq!(
        resumed.digest_trail(),
        ref_trail.as_slice(),
        "{name}: resumed trail diverged"
    );
    assert_eq!(
        outcome.summary().cycles,
        ref_cycles,
        "{name}: resumed cycles diverged"
    );
    assert_eq!(
        resumed.backing().load(COUNTER),
        WGS as i64 * ITERS,
        "{name}"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn timer_policies_resume_exactly() {
    for kind in [PolicyKind::Timeout, PolicyKind::Sleep] {
        assert_resumed_matches(&kind.label(), &move || build_policy(kind));
    }
}

#[test]
fn monitor_policies_resume_exactly() {
    for kind in [
        PolicyKind::MonNrAll,
        PolicyKind::MonNrOne,
        PolicyKind::MonRAll,
        PolicyKind::MonRsAll,
    ] {
        assert_resumed_matches(&kind.label(), &move || build_policy(kind));
    }
}

#[test]
fn awg_and_oracle_resume_exactly() {
    for kind in [PolicyKind::Awg, PolicyKind::MinResume] {
        assert_resumed_matches(&kind.label(), &move || build_policy(kind));
    }
}

#[test]
fn chaos_wrapped_policy_resumes_exactly() {
    // The wake-perturbation cursor (`seen`) is part of the machine: losing
    // it would shift which wakes get dropped after a resume.
    assert_resumed_matches("ChaosWrap", &|| {
        Box::new(ChaosWrap::with_mode(
            MonNrAllPolicy::new(),
            3,
            ChaosMode::Delay(750),
        ))
    });
}

#[test]
fn snapshot_refused_by_different_policy() {
    let make: &dyn Fn() -> Box<dyn SchedPolicy> = &|| build_policy(PolicyKind::MonNrAll);
    let path = ckpt_path("xpolicy");
    let mut writer = fresh(make);
    writer.set_checkpoint(CheckpointSpec {
        path: path.clone(),
        every: 2_000,
        identity: IDENTITY,
        kill_after: None,
    });
    assert!(writer.run().is_completed());
    let image = read_checkpoint(&path).unwrap();

    // Same kernel shape, same claimed identity, but a Timeout machine: the
    // policy-name cross-check must fail closed.
    let mut wrong = Gpu::new(
        GpuConfig::isca2020_baseline(),
        mutex_kernel(SyncStyle::WaitingAtomic),
        build_policy(PolicyKind::Timeout),
    );
    let err = restore_into(&mut wrong, &image, IDENTITY).unwrap_err();
    assert!(matches!(err, SimError::CorruptCheckpoint(_)), "{err}");
    std::fs::remove_file(&path).unwrap();
}

/// AWG on `mutex_kernel` with two WGs per CU, so the 24 WGs oversubscribe
/// the 8 CUs: waiters stall on the predicted latency, then switch out.
/// Telemetry is on, so its hub records into a registry of its own.
fn oversubscribed_awg(config: GpuConfig) -> Gpu {
    let mut kernel = mutex_kernel(SyncStyle::WaitingAtomic);
    kernel.resources.wavefronts = 20;
    let mut gpu = Gpu::new(config, kernel, build_policy(PolicyKind::Awg));
    gpu.enable_telemetry(TelemetryConfig {
        snapshot_window: None,
        profiling: false,
    });
    gpu
}

/// Every counter, distribution and histogram, in registration order.
fn stat_lines(stats: &Stats) -> Vec<String> {
    let mut lines: Vec<String> = stats.counters().map(|(n, v)| format!("{n} {v}")).collect();
    lines.extend(stats.dists().map(|(n, d)| format!("{n} {d:?}")));
    lines.extend(stats.hists().map(|(n, b)| format!("{n} {b:?}")));
    lines
}

#[test]
fn restore_into_a_machine_that_ran_re_resolves_stat_handles() {
    // Per-event paths (the machine, the monitor, AWG, the telemetry hub)
    // keep handles into the registry they record into. Restoring a
    // snapshot swaps the registry, so handles resolved by an earlier run
    // of the same machine must not survive it.
    let baseline = GpuConfig::isca2020_baseline();
    let mut traced = oversubscribed_awg(baseline.clone());
    traced.enable_trace();
    assert!(traced.run().is_completed());
    let records = traced.trace_records();
    let count = |kind: fn(&TraceEvent) -> bool| records.iter().filter(|r| kind(&r.event)).count();
    assert!(
        count(|e| matches!(e, TraceEvent::Resume)) >= 5,
        "several wakes"
    );
    assert!(
        count(|e| matches!(e, TraceEvent::SwapOutStart)) >= 1,
        "a switch"
    );
    let first_wait = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::Stall))
        .expect("a WG waits")
        .cycle;

    let mut reference = oversubscribed_awg(baseline.clone());
    let want = reference.run();
    assert!(want.is_completed(), "{want:?}");
    let want_lines = stat_lines(&want.summary().stats);
    for name in [
        "wait_episode_cycles",
        "monitor_wake_batch_size",
        "awg_met_latency_cycles",
        "awg_predicted_stall_cycles",
        "telemetry_wake_to_resume_cycles",
        "telemetry_ctx_out_total_cycles",
        "telemetry_ctx_in_total_cycles",
    ] {
        let recorded = want_lines
            .iter()
            .any(|l| l.starts_with(&format!("{name} ")));
        assert!(recorded, "{name} is recorded per event");
    }

    // Snapshot before the first wait: the first event at or past it
    // triggers the checkpoint, then trips the cycle cap unhandled.
    let path = ckpt_path("before_first_wait");
    let mut capped = baseline.clone();
    capped.max_cycles = first_wait - 1;
    let mut writer = oversubscribed_awg(capped);
    writer.set_checkpoint(CheckpointSpec {
        path: path.clone(),
        every: first_wait,
        identity: IDENTITY,
        kill_after: None,
    });
    assert!(matches!(writer.run(), RunOutcome::CycleLimit { .. }));
    assert_eq!(writer.checkpoints_written(), 1);
    let image = read_checkpoint(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(image.cycle < first_wait);

    // This machine resolved every per-event handle in its first run; the
    // early registry it then restores has none of those names yet.
    let mut gpu = oversubscribed_awg(baseline);
    assert!(gpu.run().is_completed());
    restore_into(&mut gpu, &image, IDENTITY).unwrap();
    let got = gpu.run();
    assert!(got.is_completed(), "{got:?}");
    assert_eq!(got.summary().cycles, want.summary().cycles);
    assert_eq!(stat_lines(&got.summary().stats), want_lines);
}
