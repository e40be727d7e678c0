//! Edge cases of the timing machine: inline interpretation caps, L1
//! timing, barrier costs, launch-environment registers, and the per-WG
//! breakdown accounting.

use awg_gpu::{BusyWaitPolicy, Gpu, GpuConfig, Kernel, RunOutcome, WgResources};
use awg_isa::{AluOp, Cond, Mem, Operand, ProgramBuilder, Reg, Special};

fn config() -> GpuConfig {
    GpuConfig::isca2020_baseline()
}

fn run_one(kernel: Kernel) -> (Gpu, RunOutcome) {
    let mut gpu = Gpu::new(config(), kernel, Box::new(BusyWaitPolicy::new()));
    let outcome = gpu.run();
    (gpu, outcome)
}

/// Busy-waiting but with the WG-rescheduling capability enabled, to
/// exercise the machine's swap-in paths in isolation.
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
fn long_alu_only_loops_advance_simulated_time() {
    // A 100k-iteration pure-ALU loop must neither freeze simulated time nor
    // blow the inline-step budget: each instruction costs issue cycles.
    let mut b = ProgramBuilder::new("alu_loop");
    b.li(Reg::R1, 0);
    let head = b.new_label();
    b.bind(head);
    b.add(Reg::R1, Reg::R1, 1i64);
    b.br(Cond::Lt, Reg::R1, Operand::Imm(100_000), head);
    b.halt();
    let (_, outcome) = run_one(Kernel::new(b.build().unwrap(), 1, WgResources::default()));
    let s = match outcome {
        RunOutcome::Completed(s) => s,
        other => panic!("{other:?}"),
    };
    // ~200k instructions at 4 issue cycles each (the loop is two insts per
    // iteration; the exact figure includes dispatch and the halt).
    assert!(
        s.cycles >= 100_000 * 2 * 4 - 10_000,
        "cycles = {}",
        s.cycles
    );
    assert!(s.insts >= 200_000, "insts = {}", s.insts);
}

#[test]
fn repeated_loads_hit_the_l1() {
    // First load misses to L2/DRAM; subsequent loads of the same line hit
    // the 30-cycle L1. 100 loads must therefore cost far less than 100
    // L2 round trips.
    let mut b = ProgramBuilder::new("l1");
    b.li(Reg::R1, 0);
    let head = b.new_label();
    b.bind(head);
    b.ld(Reg::R2, 4096u64);
    b.add(Reg::R1, Reg::R1, 1i64);
    b.br(Cond::Lt, Reg::R1, Operand::Imm(100), head);
    b.halt();
    let (_, outcome) = run_one(Kernel::new(b.build().unwrap(), 1, WgResources::default()));
    let cycles = outcome.completed_cycles().unwrap();
    // 100 loads * (3 issue + 30 L1) ≈ 3.5k, plus one miss and dispatch.
    assert!(cycles < 10_000, "L1 path too slow: {cycles}");
}

#[test]
fn barrier_cost_scales_with_wavefronts() {
    let run_with_wf = |wavefronts: u32| {
        let mut b = ProgramBuilder::new("bar");
        for _ in 0..50 {
            b.barrier();
        }
        b.halt();
        let res = WgResources {
            wavefronts,
            lds_bytes: 0,
            vgprs_per_wavefront: 4,
        };
        let (_, outcome) = run_one(Kernel::new(b.build().unwrap(), 1, res));
        outcome.completed_cycles().unwrap()
    };
    let narrow = run_with_wf(1);
    let wide = run_with_wf(8);
    assert!(wide > narrow, "8-wavefront joins ({wide}) > 1 ({narrow})");
}

#[test]
fn special_registers_match_launch_environment() {
    let mut b = ProgramBuilder::new("spec");
    b.special(Reg::R1, Special::WgId);
    b.special(Reg::R2, Special::NumWgs);
    b.special(Reg::R3, Special::ClusterId);
    b.special(Reg::R4, Special::WgsPerCluster);
    b.special(Reg::R5, Special::NumClusters);
    // out[wg*5 + k] = value, so the final memory witnesses every WG's view.
    b.alu(AluOp::Mul, Reg::R6, Reg::R1, 5i64);
    for (k, reg) in [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5]
        .into_iter()
        .enumerate()
    {
        let slot = Reg::R7;
        b.alu(AluOp::Add, slot, Reg::R6, k as i64);
        b.raw(awg_isa::Inst::St(
            Mem::indexed(1 << 20, slot, 8),
            Operand::Reg(reg),
        ));
    }
    b.halt();
    let kernel = Kernel::new(b.build().unwrap(), 6, WgResources::default()).with_cluster(2);
    let (gpu, outcome) = run_one(kernel);
    assert!(outcome.is_completed());
    for wg in 0..6i64 {
        let base = (1u64 << 20) + (wg as u64) * 5 * 8;
        assert_eq!(gpu.backing().load(base), wg);
        assert_eq!(gpu.backing().load(base + 8), 6);
        assert_eq!(gpu.backing().load(base + 16), wg / 2);
        assert_eq!(gpu.backing().load(base + 24), 2);
        assert_eq!(gpu.backing().load(base + 32), 3);
    }
}

#[test]
fn breakdown_accounts_all_wg_time() {
    // compute + sleep: running ≈ compute share, waiting ≈ sleep share.
    let mut b = ProgramBuilder::new("split");
    b.compute(10_000);
    b.sleep(30_000i64);
    b.compute(10_000);
    b.halt();
    let kernel = Kernel::new(b.build().unwrap(), 2, WgResources::default());
    let mut gpu = Gpu::new(config(), kernel, Box::new(BusyWaitPolicy::new()));
    let outcome = gpu.run();
    let s = match outcome {
        RunOutcome::Completed(s) => s,
        other => panic!("{other:?}"),
    };
    assert!(
        (s.waiting_cycles as i64 - 60_000).abs() < 2_000,
        "waiting = {}",
        s.waiting_cycles
    );
    assert!(
        s.running_cycles >= 40_000 && s.running_cycles < 50_000,
        "running = {}",
        s.running_cycles
    );
    let breakdown = gpu.wg_breakdown();
    assert_eq!(breakdown.len(), 2);
    let sum: u64 = breakdown.iter().map(|(r, w)| r + w).sum();
    assert_eq!(sum, s.running_cycles + s.waiting_cycles);
}

#[test]
fn resource_loss_on_idle_cu_is_harmless() {
    // Losing a CU that holds nothing must not disturb the rest.
    let mut b = ProgramBuilder::new("idle_loss");
    b.compute(5_000);
    b.halt();
    // 4 WGs fit on the first CU(s); CU 7 is idle.
    let kernel = Kernel::new(b.build().unwrap(), 4, WgResources::default());
    let mut gpu = Gpu::new(config(), kernel, Box::new(BusyWaitPolicy::new()));
    gpu.schedule_resource_loss(7, 1_000);
    assert!(gpu.run().is_completed());
}

#[test]
fn losing_multiple_cus_still_detected_or_completed() {
    // Pure compute with rescheduling-incapable policy: strands the WGs on
    // two CUs, deadlock detected.
    let mut b = ProgramBuilder::new("two_losses");
    b.compute(80_000);
    b.halt();
    let mut cfg = config();
    cfg.quiescence_cycles = 120_000;
    let kernel = Kernel::new(b.build().unwrap(), 16, WgResources::default());
    let mut gpu = Gpu::new(cfg, kernel, Box::new(BusyWaitPolicy::new()));
    gpu.schedule_resource_loss(0, 10_000);
    gpu.schedule_resource_loss(1, 20_000);
    match gpu.run() {
        RunOutcome::Deadlocked { unfinished, .. } => {
            assert!(unfinished >= 2, "stranded WGs: {unfinished}")
        }
        RunOutcome::Completed(_) => panic!("WGs on two lost CUs cannot be rescheduled"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn store_heavy_kernel_is_write_through() {
    // Stores do not block the WG; a store storm should cost ~issue time.
    let mut b = ProgramBuilder::new("stores");
    b.li(Reg::R1, 0);
    let head = b.new_label();
    b.bind(head);
    b.raw(awg_isa::Inst::St(
        Mem::indexed(1 << 20, Reg::R1, 8),
        Operand::Reg(Reg::R1),
    ));
    b.add(Reg::R1, Reg::R1, 1i64);
    b.br(Cond::Lt, Reg::R1, Operand::Imm(200), head);
    b.halt();
    let (gpu, outcome) = run_one(Kernel::new(b.build().unwrap(), 1, WgResources::default()));
    let cycles = outcome.completed_cycles().unwrap();
    assert!(
        cycles < 10_000,
        "write-through stores must not stall: {cycles}"
    );
    assert_eq!(gpu.backing().load((1 << 20) + 8 * 199), 199);
}

#[test]
fn restored_cu_takes_work_again() {
    // Lose a CU mid-run under the Baseline (no WG rescheduling): the
    // preempted WG is stranded… until the CU comes back, when the pending
    // dispatch path is irrelevant but the *stranded ready* WG still cannot
    // return (Baseline). With a rescheduling-capable policy it must return
    // to the restored CU and complete.
    let mut b = ProgramBuilder::new("restore");
    b.compute(60_000);
    b.halt();
    // 16 WGs exactly fill a 2-CU machine slice: force tight occupancy by
    // using 8 CUs but 80 WGs (full machine).
    let kernel = Kernel::new(b.build().unwrap(), 80, WgResources::default());
    let mut gpu = Gpu::new(config(), kernel, Box::new(ReschedulingBusyWait::default()));
    gpu.schedule_resource_loss(3, 10_000);
    // The machine preempts lazily at instruction boundaries: the residents'
    // 60k-cycle compute ends after the loss, so they swap out then; the CU
    // returns shortly after and can take them back.
    gpu.schedule_resource_restore(3, 80_000);
    let outcome = gpu.run();
    let s = match outcome {
        RunOutcome::Completed(s) => s,
        other => panic!("{other:?}"),
    };
    assert!(s.switches_out >= 10, "the lost CU's residents swapped out");
    assert!(s.switches_in >= 1, "some returned after the restore");
}

#[test]
fn baseline_stranded_wgs_return_when_cu_restored_is_still_deadlock() {
    // Without WG rescheduling the stranded WGs cannot use the restored CU:
    // the ready queue never drains under the Baseline.
    let mut b = ProgramBuilder::new("restore_baseline");
    b.compute(60_000);
    b.halt();
    let mut cfg = config();
    cfg.quiescence_cycles = 100_000;
    let kernel = Kernel::new(b.build().unwrap(), 80, WgResources::default());
    let mut gpu = Gpu::new(cfg, kernel, Box::new(BusyWaitPolicy::new()));
    gpu.schedule_resource_loss(3, 10_000);
    // Restore long after the preempted WGs were saved: they are already in
    // the stranded ready queue, which the Baseline can never drain.
    gpu.schedule_resource_restore(3, 200_000);
    match gpu.run() {
        RunOutcome::Deadlocked { unfinished, .. } => assert!(unfinished >= 1),
        other => panic!("Baseline cannot reschedule: {other:?}"),
    }
}

#[test]
fn wait_episode_histogram_is_recorded() {
    // A producer/consumer pair under a waiting policy records the
    // consumer's hardware-wait episode length.
    #[derive(Debug, Default)]
    struct StallUntilWake;
    impl awg_gpu::SchedPolicy for StallUntilWake {
        fn name(&self) -> &str {
            "StallUntilWake"
        }
        fn style(&self) -> awg_gpu::SyncStyle {
            awg_gpu::SyncStyle::WaitingAtomic
        }
        fn on_sync_fail(
            &mut self,
            _: &mut awg_gpu::PolicyCtx<'_>,
            _: &awg_gpu::SyncFail,
        ) -> awg_gpu::WaitDirective {
            awg_gpu::WaitDirective::Wait {
                release: false,
                timeout: Some(5_000),
            }
        }
    }
    let flag = 4096u64;
    let mut b = ProgramBuilder::new("hist");
    b.special(Reg::R1, Special::WgId);
    let produce = b.new_label();
    let spin = b.new_label();
    let done = b.new_label();
    b.br(Cond::Eq, Reg::R1, Operand::Imm(0), produce);
    b.bind(spin);
    b.atom_cmp_wait(Reg::R2, flag, 1i64);
    b.br(Cond::Ne, Reg::R2, Operand::Imm(1), spin);
    b.jmp(done);
    b.bind(produce);
    b.compute(12_000);
    b.atom_exch(Reg::R0, flag, 1i64);
    b.bind(done);
    b.halt();
    let kernel = Kernel::new(b.build().unwrap(), 2, WgResources::default());
    let mut gpu = Gpu::new(config(), kernel, Box::new(StallUntilWake));
    let outcome = gpu.run();
    let summary = match outcome {
        RunOutcome::Completed(s) => s,
        other => panic!("{other:?}"),
    };
    let buckets = summary
        .stats
        .hist_buckets_by_name("wait_episode_cycles")
        .expect("histogram registered");
    let episodes: u64 = buckets.iter().map(|&(_, c)| c).sum();
    // The consumer waited across at least two 5k timeouts plus the final
    // wake; each resumption is one recorded episode.
    assert!(
        episodes >= 2,
        "episodes = {episodes}, buckets = {buckets:?}"
    );
}
