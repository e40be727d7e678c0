//! Integration tests for the GPU timing machine with the baseline policy.

use awg_gpu::{
    BusyWaitPolicy, Gpu, GpuConfig, Kernel, PolicyCtx, RunOutcome, SchedPolicy, SyncFail,
    SyncStyle, TraceEvent, WaitDirective, WgResources,
};
use awg_isa::{Cond, Operand, ProgramBuilder, Reg, Special};
use awg_sim::{Stats, TelemetryConfig};

fn config() -> GpuConfig {
    GpuConfig::isca2020_baseline()
}

fn run(kernel: Kernel) -> (Gpu, RunOutcome) {
    let mut gpu = Gpu::new(config(), kernel, Box::new(BusyWaitPolicy::new()));
    let outcome = gpu.run();
    (gpu, outcome)
}

#[test]
fn single_wg_halts() {
    let mut b = ProgramBuilder::new("nop");
    b.compute(100);
    b.halt();
    let (_, outcome) = run(Kernel::new(b.build().unwrap(), 1, WgResources::default()));
    let summary = match outcome {
        RunOutcome::Completed(s) => s,
        other => panic!("{other:?}"),
    };
    // Dispatch (200) + compute (100) + issue overheads.
    assert!(summary.cycles >= 300, "cycles = {}", summary.cycles);
    assert!(summary.cycles < 1000, "cycles = {}", summary.cycles);
}

#[test]
fn atomic_counter_sums_all_wgs() {
    let mut b = ProgramBuilder::new("count");
    b.atom_add(Reg::R0, 4096u64, 1i64);
    b.halt();
    let (gpu, outcome) = run(Kernel::new(b.build().unwrap(), 64, WgResources::default()));
    assert!(outcome.is_completed());
    assert_eq!(gpu.backing().load(4096), 64);
    assert_eq!(outcome.summary().atomics, 64);
}

#[test]
fn contended_atomics_serialize_on_the_bank() {
    // 64 WGs hammering one address must take longer than 64 spread lines.
    let hot_loop = |name: &str, spread: bool| {
        let mut b = ProgramBuilder::new(name);
        b.special(Reg::R1, Special::WgId);
        if !spread {
            b.li(Reg::R1, 0);
        }
        b.li(Reg::R2, 0);
        let head = b.new_label();
        b.bind(head);
        b.raw(awg_isa::Inst::Atom {
            op: awg_mem::AtomicOp::Add,
            dst: Reg::R0,
            mem: awg_isa::Mem::indexed(1 << 20, Reg::R1, 64),
            operand: Operand::Imm(1),
            expected: None,
        });
        b.add(Reg::R2, Reg::R2, 1i64);
        b.br(Cond::Lt, Reg::R2, Operand::Imm(32), head);
        b.halt();
        Kernel::new(b.build().unwrap(), 64, WgResources::default())
    };
    let (_, hot) = run(hot_loop("hot", false));
    let (_, cold) = run(hot_loop("cold", true));

    let hot_c = hot.completed_cycles().unwrap();
    let cold_c = cold.completed_cycles().unwrap();
    assert!(
        hot_c > cold_c,
        "hot {hot_c} should exceed spread {cold_c} (bank serialization)"
    );
}

#[test]
fn occupancy_waves_when_oversubscribed() {
    // 160 WGs, 80 slots: two dispatch waves of pure compute.
    let mut b = ProgramBuilder::new("waves");
    b.compute(10_000);
    b.halt();
    let (_, one) = run(Kernel::new(b.build().unwrap(), 80, WgResources::default()));
    let mut b = ProgramBuilder::new("waves2");
    b.compute(10_000);
    b.halt();
    let (_, two) = run(Kernel::new(b.build().unwrap(), 160, WgResources::default()));
    let c1 = one.completed_cycles().unwrap();
    let c2 = two.completed_cycles().unwrap();
    assert!(c2 >= c1 + 10_000, "two waves ({c2}) ≈ 2× one wave ({c1})");
    assert!(c2 <= 3 * c1, "not more than ~2 waves: {c2} vs {c1}");
}

#[test]
fn producer_consumer_busy_wait_completes_when_resident() {
    // WG1 spins on a flag WG0 sets after some compute.
    let flag = 4096u64;
    let mut b = ProgramBuilder::new("prodcons");
    b.special(Reg::R1, Special::WgId);
    let produce = b.new_label();
    let spin = b.new_label();
    let done = b.new_label();
    b.br(Cond::Eq, Reg::R1, Operand::Imm(0), produce);
    b.bind(spin);
    b.atom_load(Reg::R2, flag);
    b.br(Cond::Ne, Reg::R2, Operand::Imm(1), spin);
    b.jmp(done);
    b.bind(produce);
    b.compute(5_000);
    b.atom_exch(Reg::R0, flag, 1i64);
    b.bind(done);
    b.halt();
    let (gpu, outcome) = run(Kernel::new(b.build().unwrap(), 2, WgResources::default()));
    assert!(outcome.is_completed(), "{outcome:?}");
    assert_eq!(gpu.backing().load(flag), 1);
    // The consumer retried many times while the producer computed.
    assert!(outcome.summary().atomics > 10);
}

#[test]
fn unsatisfiable_spin_deadlocks() {
    let mut b = ProgramBuilder::new("hang");
    let spin = b.new_label();
    b.bind(spin);
    b.atom_load(Reg::R0, 4096u64);
    b.br(Cond::Ne, Reg::R0, Operand::Imm(1), spin);
    b.halt();
    let mut cfg = config();
    cfg.quiescence_cycles = 50_000; // fail fast in tests
    let kernel = Kernel::new(b.build().unwrap(), 1, WgResources::default());
    let mut gpu = Gpu::new(cfg, kernel, Box::new(BusyWaitPolicy::new()));
    let outcome = gpu.run();
    match outcome {
        RunOutcome::Deadlocked { unfinished, .. } => assert_eq!(unfinished, 1),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn oversubscribed_busy_wait_deadlocks_like_the_paper() {
    // One WG per CU (40 wavefronts each). 9 WGs on 8 CUs: the eight resident
    // WGs spin on a flag only WG8 writes, and WG8 can never be dispatched.
    let flag = 4096u64;
    let fat = WgResources {
        wavefronts: 40,
        lds_bytes: 0,
        vgprs_per_wavefront: 8,
    };
    let mut b = ProgramBuilder::new("oversub");
    b.special(Reg::R1, Special::WgId);
    let producer = b.new_label();
    let spin = b.new_label();
    let done = b.new_label();
    b.br(Cond::Eq, Reg::R1, Operand::Imm(8), producer);
    b.bind(spin);
    b.atom_load(Reg::R2, flag);
    b.br(Cond::Ne, Reg::R2, Operand::Imm(1), spin);
    b.jmp(done);
    b.bind(producer);
    b.atom_exch(Reg::R0, flag, 1i64);
    b.bind(done);
    b.halt();
    let mut cfg = config();
    cfg.quiescence_cycles = 100_000;
    let kernel = Kernel::new(b.build().unwrap(), 9, fat);
    let mut gpu = Gpu::new(cfg, kernel, Box::new(BusyWaitPolicy::new()));
    let outcome = gpu.run();
    match outcome {
        RunOutcome::Deadlocked { unfinished, .. } => assert_eq!(unfinished, 9),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// A busy-wait policy that *can* reschedule preempted WGs (isolates the
/// machine's swap-in path from the Baseline's missing capability).
#[derive(Debug, Default)]
struct ReschedulingBusyWait(BusyWaitPolicy);

impl awg_gpu::SchedPolicy for ReschedulingBusyWait {
    fn name(&self) -> &str {
        "BusyWait+Resched"
    }
    fn style(&self) -> awg_gpu::SyncStyle {
        awg_gpu::SyncStyle::Busy
    }
    fn on_sync_fail(
        &mut self,
        ctx: &mut awg_gpu::PolicyCtx<'_>,
        fail: &awg_gpu::SyncFail,
    ) -> awg_gpu::WaitDirective {
        self.0.on_sync_fail(ctx, fail)
    }
}

#[test]
fn resource_loss_preempts_and_work_completes() {
    // Independent compute WGs; losing a CU mid-run must still complete, with
    // the preempted WGs redispatched elsewhere (the policy supports it).
    let mut b = ProgramBuilder::new("loss");
    b.compute(50_000);
    b.halt();
    let kernel = Kernel::new(b.build().unwrap(), 8, WgResources::default());
    let mut gpu = Gpu::new(config(), kernel, Box::new(ReschedulingBusyWait::default()));
    gpu.schedule_resource_loss(0, 10_000);
    let outcome = gpu.run();
    let summary = match outcome {
        RunOutcome::Completed(s) => s,
        other => panic!("{other:?}"),
    };
    assert!(summary.switches_out >= 1, "lost CU's WG must swap out");
    assert!(summary.switches_in >= 1, "and swap back in elsewhere");
}

#[test]
fn resource_loss_without_rescheduling_strands_wgs() {
    // Under the Baseline the preempted WGs never return: even pure-compute
    // kernels hang once a CU is lost, which the detector reports.
    let mut b = ProgramBuilder::new("stranded");
    b.compute(50_000);
    b.halt();
    let mut cfg = config();
    cfg.quiescence_cycles = 100_000;
    let kernel = Kernel::new(b.build().unwrap(), 8, WgResources::default());
    let mut gpu = Gpu::new(cfg, kernel, Box::new(BusyWaitPolicy::new()));
    gpu.schedule_resource_loss(0, 10_000);
    match gpu.run() {
        RunOutcome::Deadlocked { unfinished, .. } => assert_eq!(unfinished, 1),
        other => panic!("expected stranded WG, got {other:?}"),
    }
}

#[test]
fn sleep_instruction_stalls_for_requested_cycles() {
    let mut b = ProgramBuilder::new("sleepy");
    b.sleep(20_000i64);
    b.halt();
    let (_, outcome) = run(Kernel::new(b.build().unwrap(), 1, WgResources::default()));
    let s = match outcome {
        RunOutcome::Completed(s) => s,
        other => panic!("{other:?}"),
    };
    assert!(s.cycles >= 20_000);
    assert!(s.waiting_cycles >= 20_000, "sleep counts as waiting");
}

#[test]
fn trace_records_dispatch_and_finish() {
    let mut b = ProgramBuilder::new("traced");
    b.compute(10);
    b.halt();
    let kernel = Kernel::new(b.build().unwrap(), 2, WgResources::default());
    let mut gpu = Gpu::new(config(), kernel, Box::new(BusyWaitPolicy::new()));
    gpu.enable_trace();
    assert!(gpu.run().is_completed());
    let records = gpu.trace_records();
    let dispatches = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Dispatch { .. }))
        .count();
    let finishes = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Finish))
        .count();
    assert_eq!(dispatches, 2);
    assert_eq!(finishes, 2);
}

#[test]
fn identical_runs_are_deterministic() {
    let build = || {
        let mut b = ProgramBuilder::new("det");
        b.atom_add(Reg::R0, 4096u64, 1i64);
        let spin = b.new_label();
        b.bind(spin);
        b.atom_load(Reg::R1, 4096u64);
        b.br(Cond::Lt, Reg::R1, Operand::Imm(32), spin);
        b.halt();
        Kernel::new(b.build().unwrap(), 32, WgResources::default())
    };
    let (_, a) = run(build());
    let (_, b_) = run(build());
    assert_eq!(a.completed_cycles(), b_.completed_cycles());
    assert_eq!(a.summary().atomics, b_.summary().atomics);
    assert_eq!(a.summary().insts, b_.summary().insts);
}

#[test]
fn barrier_and_store_paths_work() {
    let mut b = ProgramBuilder::new("barst");
    b.barrier();
    b.special(Reg::R1, Special::WgId);
    b.raw(awg_isa::Inst::St(
        awg_isa::Mem::indexed(1 << 20, Reg::R1, 8),
        Operand::Imm(7),
    ));
    b.ld(Reg::R2, (1 << 20) as u64);
    b.halt();
    let (gpu, outcome) = run(Kernel::new(b.build().unwrap(), 4, WgResources::default()));
    assert!(outcome.is_completed());
    for wg in 0..4u64 {
        assert_eq!(gpu.backing().load((1 << 20) + wg * 8), 7);
    }
}

/// The baseline policy, which also reports its failed checks under a name
/// the hot profile's log/CP-probe gauge sums.
#[derive(Debug, Default)]
struct ProbedBusyWait {
    inner: BusyWaitPolicy,
    fails: u64,
}

impl SchedPolicy for ProbedBusyWait {
    fn name(&self) -> &str {
        "ProbedBusyWait"
    }
    fn style(&self) -> SyncStyle {
        self.inner.style()
    }
    fn supports_wg_rescheduling(&self) -> bool {
        false
    }
    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        self.fails += 1;
        self.inner.on_sync_fail(ctx, fail)
    }
    fn report(&self, stats: &mut Stats) {
        self.inner.report(stats);
        let c = stats.counter("probe_cp_condition_checks");
        stats.add(c, self.fails);
    }
}

/// Calling `run` again on a machine that returned summarizes the same
/// registry: the policy, telemetry and memory-system counters are folded
/// into the summary's copy of the registry, never into the machine's own.
#[test]
fn a_second_run_summarizes_the_same_registry() {
    // WGs 1..8 spin with a waiting atomic on a flag WG 0 raises at ~3k
    // cycles; the cap of the second machine falls before that.
    let flag = 4096u64;
    let mut b = ProgramBuilder::new("flag");
    let raise = b.new_label();
    let spin = b.new_label();
    b.special(Reg::R1, Special::WgId);
    b.br(Cond::Eq, Reg::R1, Operand::Imm(0), raise);
    b.bind(spin);
    b.atom_cmp_wait(Reg::R0, flag, 1i64);
    b.br(Cond::Ne, Reg::R0, Operand::Imm(1), spin);
    b.halt();
    b.bind(raise);
    b.compute(3_000);
    b.atom_exch(Reg::R0, flag, 1i64);
    b.halt();
    let program = b.build().unwrap();
    for max_cycles in [config().max_cycles, 2_000] {
        let cfg = GpuConfig {
            max_cycles,
            ..config()
        };
        let kernel = Kernel::new(program.clone(), 8, WgResources::default());
        let mut gpu = Gpu::new(cfg, kernel, Box::<ProbedBusyWait>::default());
        gpu.enable_invariant_oracle()
            .enable_telemetry(TelemetryConfig::default())
            .enable_hot_profile();
        let first = gpu.run();
        let probes = gpu.hot_report().unwrap().log_cp_probes;
        let second = gpu.run();
        let label = format!("cap {max_cycles}: {first}");
        assert_eq!(first.is_completed(), max_cycles > 2_000, "{label}");
        assert_eq!(second.is_completed(), first.is_completed(), "{label}");
        let (a, b) = (first.summary(), second.summary());
        assert_eq!(a.cycles, b.cycles, "{label}");
        assert!(
            a.stats.get_by_name("policy_sync_fails") > Some(0),
            "{label}"
        );
        assert_eq!(a.stats.to_string(), b.stats.to_string(), "{label}");
        // The gauge reads the policy's own counters: one run's worth.
        assert_eq!(
            a.stats.get_by_name("probe_cp_condition_checks"),
            Some(probes),
            "{label}"
        );
        assert_eq!(gpu.hot_report().unwrap().log_cp_probes, probes, "{label}");
        assert!(
            gpu.violations().is_empty(),
            "{label}: {:?}",
            gpu.violations()
        );
    }
}
