//! Timing of the response path, pinned to the machine configuration
//! (Table 1): an atomic's issue-to-response time on a warm L2 line, the
//! bank ALU serializing atomics that contend for one line, a load's
//! issue-to-response time on an L1 hit and on an L1 miss that hits the L2,
//! and a context save's DRAM traffic (Fig 5). Each expected figure is
//! derived from `GpuConfig`, not measured.

use awg_gpu::{
    BusyWaitPolicy, Gpu, GpuConfig, Kernel, PolicyCtx, SchedPolicy, SyncFail, SyncStyle,
    TraceEvent, TraceRecord, WaitDirective, WgResources,
};
use awg_isa::{Cond, Operand, ProgramBuilder, Reg, Special};
use awg_sim::Cycle;

/// The contended sync variable.
const LINE: u64 = 0x4000;

/// `(issue, response)` cycles of every atomic, per WG in program order.
fn atomic_round_trips(records: &[TraceRecord], wg: u32) -> Vec<(Cycle, Cycle)> {
    let issues = records
        .iter()
        .filter(|r| r.wg == wg && matches!(r.event, TraceEvent::AtomicIssue { .. }));
    let dones = records
        .iter()
        .filter(|r| r.wg == wg && matches!(r.event, TraceEvent::AtomicDone { .. }));
    issues.zip(dones).map(|(i, d)| (i.cycle, d.cycle)).collect()
}

fn run_traced(kernel: Kernel) -> Vec<TraceRecord> {
    let mut gpu = Gpu::new(
        GpuConfig::isca2020_baseline(),
        kernel,
        Box::new(BusyWaitPolicy::new()),
    );
    gpu.enable_trace();
    assert!(gpu.run().is_completed());
    gpu.trace_records()
}

/// L1→L2 trip, one bank-ALU occupancy, L2→L1 trip.
fn warm_atomic_cycles(config: &GpuConfig) -> Cycle {
    2 * config.l2.cache.latency + config.l2.atomic_occupancy
}

#[test]
fn warm_line_atomic_round_trip_is_trip_alu_trip() {
    let config = GpuConfig::isca2020_baseline();
    assert_eq!(warm_atomic_cycles(&config), 50 + 32 + 50);

    // The first atomic misses and fills the line; after the compute gap the
    // bank is idle and the second one hits.
    let mut b = ProgramBuilder::new("warm_atomic");
    b.atom_add(Reg::R0, LINE, 1i64);
    b.compute(1_000);
    b.atom_add(Reg::R0, LINE, 1i64);
    b.halt();
    let records = run_traced(Kernel::new(b.build().unwrap(), 1, WgResources::default()));

    let trips = atomic_round_trips(&records, 0);
    assert_eq!(trips.len(), 2);
    let (cold_issue, cold_done) = trips[0];
    assert!(
        cold_done - cold_issue > warm_atomic_cycles(&config),
        "a cold line pays the DRAM fill"
    );
    let (issue, done) = trips[1];
    assert_eq!(done - issue, warm_atomic_cycles(&config));
}

#[test]
fn contending_atomics_commit_one_alu_occupancy_apart() {
    const CONTENDERS: u32 = 6;
    let config = GpuConfig::isca2020_baseline();

    // WG 0 warms the line and leaves. Every other WG runs the same
    // instructions, so all their atomics reach the bank in one cycle.
    let mut b = ProgramBuilder::new("contend");
    let contend = b.new_label();
    b.special(Reg::R1, Special::WgId);
    b.br(Cond::Ne, Reg::R1, Operand::Imm(0), contend);
    b.atom_add(Reg::R0, LINE, 1i64);
    b.halt();
    b.bind(contend);
    b.compute(5_000);
    b.atom_add(Reg::R0, LINE, 1i64);
    b.halt();
    let kernel = Kernel::new(
        b.build().unwrap(),
        u64::from(CONTENDERS) + 1,
        WgResources::default(),
    );
    let records = run_traced(kernel);

    let mut trips: Vec<(Cycle, Cycle)> = (1..=CONTENDERS)
        .flat_map(|wg| atomic_round_trips(&records, wg))
        .collect();
    assert_eq!(trips.len(), CONTENDERS as usize);
    let issue = trips[0].0;
    assert!(
        trips.iter().all(|&(i, _)| i == issue),
        "contenders issue together: {trips:?}"
    );
    trips.sort_unstable_by_key(|&(_, done)| done);
    for (k, &(_, done)) in trips.iter().enumerate() {
        assert_eq!(
            done - issue,
            warm_atomic_cycles(&config) + k as Cycle * config.l2.atomic_occupancy,
            "atomic {k} of {CONTENDERS}: {trips:?}"
        );
    }
}

/// A load's L1 lookup; on a hit the value comes back from the L1.
fn l1_hit_load_cycles(config: &GpuConfig) -> Cycle {
    config.l1.latency
}

/// A load that misses the L1 looks it up, then reads the L2 on an idle
/// bank: L1→L2 trip, one bank access, L2→L1 trip.
fn l2_hit_load_cycles(config: &GpuConfig) -> Cycle {
    config.l1.latency + 2 * config.l2.cache.latency + config.l2.access_occupancy
}

/// Issue-to-response cycles of a load from `addr`. `warm` runs
/// first, then an atomic on a marker line brackets the load on each side:
/// the load issues one issue slot after the first marker's response, and
/// the second marker one slot after the load's response.
fn load_latency(warm: impl FnOnce(&mut ProgramBuilder), addr: u64) -> Cycle {
    const MARK: u64 = 0x2040;
    let config = GpuConfig::isca2020_baseline();
    let mut b = ProgramBuilder::new("load_latency");
    warm(&mut b);
    b.compute(1_000);
    b.atom_add(Reg::R0, MARK, 1i64);
    b.ld(Reg::R5, addr);
    b.atom_add(Reg::R0, MARK, 1i64);
    b.halt();
    let records = run_traced(Kernel::new(b.build().unwrap(), 1, WgResources::default()));
    let marks: Vec<(Cycle, Cycle)> = atomic_round_trips(&records, 0)
        .into_iter()
        .rev()
        .take(2)
        .collect();
    let ((second_issue, _), (_, first_done)) = (marks[0], marks[1]);
    second_issue - first_done - 2 * config.issue_cycles
}

#[test]
fn l1_hit_load_responds_after_the_l1_latency() {
    let config = GpuConfig::isca2020_baseline();
    assert_eq!(l1_hit_load_cycles(&config), 30);
    // A first load fills the line in the CU's L1.
    let cycles = load_latency(
        |b| {
            b.ld(Reg::R4, LINE);
        },
        LINE,
    );
    assert_eq!(cycles, l1_hit_load_cycles(&config));
}

#[test]
fn l1_miss_load_responds_when_the_l2_read_completes() {
    let config = GpuConfig::isca2020_baseline();
    assert_eq!(l2_hit_load_cycles(&config), 30 + 50 + 2 + 50);
    // Atomics execute at the L2 and leave the L1 alone: the line is warm
    // in the L2 and cold in the L1.
    let cycles = load_latency(
        |b| {
            b.atom_add(Reg::R4, LINE, 1i64);
        },
        LINE,
    );
    assert_eq!(cycles, l2_hit_load_cycles(&config));
}

/// Busy-waiting that can redispatch a preempted WG, so a run that loses a
/// CU still completes.
#[derive(Debug, Default)]
struct Rescheduling(BusyWaitPolicy);

impl SchedPolicy for Rescheduling {
    fn name(&self) -> &str {
        "BusyWait+Resched"
    }
    fn style(&self) -> SyncStyle {
        SyncStyle::Busy
    }
    fn on_sync_fail(&mut self, ctx: &mut PolicyCtx<'_>, fail: &SyncFail) -> WaitDirective {
        self.0.on_sync_fail(ctx, fail)
    }
}

/// Context lines go out back to back on every channel at once: the first
/// channel carries `ceil(lines / channels)` of them, one per service
/// interval, and the last pays the idle latency; then the fixed switch
/// overhead.
fn swap_out_cycles(config: &GpuConfig, context_bytes: u64) -> Cycle {
    let lines = context_bytes.div_ceil(64);
    let per_channel = lines.div_ceil(config.dram.channels as u64);
    (per_channel - 1) * config.dram.service_interval
        + config.dram.latency
        + config.ctx_switch_overhead
}

#[test]
fn context_save_on_idle_dram_costs_its_line_traffic() {
    let config = GpuConfig::isca2020_baseline();
    // Fig 5's range: the default footprint, and one whose line count
    // leaves the channels unevenly loaded.
    let default = WgResources::default();
    let uneven = WgResources {
        lds_bytes: 5 * 64,
        ..default
    };
    for resources in [default, uneven] {
        // One WG computing, no memory traffic: losing its CU mid-compute
        // saves the context at the end of the compute, on idle DRAM.
        let mut b = ProgramBuilder::new("swap_out");
        b.compute(5_000);
        b.halt();
        let kernel = Kernel::new(b.build().unwrap(), 1, resources);
        let bytes = kernel.context_bytes(&config);
        let mut gpu = Gpu::new(config.clone(), kernel, Box::new(Rescheduling::default()));
        gpu.schedule_resource_loss(0, 1_000);
        gpu.enable_trace();
        assert!(gpu.run().is_completed());
        let records = gpu.trace_records();
        let at = |event: TraceEvent| {
            let hits: Vec<Cycle> = records
                .iter()
                .filter(|r| r.event == event)
                .map(|r| r.cycle)
                .collect();
            assert_eq!(hits.len(), 1, "{event:?}: {records:?}");
            hits[0]
        };
        let (start, done) = (at(TraceEvent::SwapOutStart), at(TraceEvent::SwapOutDone));
        assert_eq!(
            done - start,
            swap_out_cycles(&config, bytes),
            "{bytes} B context"
        );
    }
    assert_eq!(
        swap_out_cycles(
            &config,
            WgResources::default().context_bytes(config.simd_width)
        ),
        (136 / 4 - 1) * 16 + 100 + 500,
        "8.5 KB: 136 lines, 34 per channel"
    );
}
