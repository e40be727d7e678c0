//! GPU configuration (Table 1) and kernel descriptors.

use std::sync::Arc;

use awg_mem::{Addr, CacheConfig, DramConfig, L2Config};
use awg_sim::Cycle;

use awg_isa::Program;

/// Base address of the per-WG context save area, far above any workload
/// allocation.
pub const CONTEXT_BASE: Addr = 1 << 40;

/// The machine configuration.
///
/// Defaults mirror the paper's Table 1 via [`GpuConfig::isca2020_baseline`].
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Number of compute units (Table 1: 8).
    pub num_cus: usize,
    /// SIMD units per CU (Table 1: 2).
    pub simds_per_cu: usize,
    /// Lanes per SIMD (Table 1: 64).
    pub simd_width: usize,
    /// Wavefront slots per SIMD (Table 1: 20).
    pub wavefronts_per_simd: usize,
    /// LDS (scratchpad) bytes per CU (GCN: 64 KB).
    pub lds_per_cu: u32,
    /// Vector registers per SIMD, in per-wavefront allocation units
    /// (GCN: 256 VGPRs × 64 lanes per SIMD).
    pub vgprs_per_simd: u32,
    /// Per-CU L1 configuration.
    pub l1: CacheConfig,
    /// Shared L2 configuration.
    pub l2: L2Config,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Cycles to issue one instruction from a wavefront.
    pub issue_cycles: Cycle,
    /// Fixed cost of an intra-WG barrier join…
    pub barrier_base_cycles: Cycle,
    /// …plus this much per wavefront in the WG.
    pub barrier_per_wf_cycles: Cycle,
    /// WG dispatch latency (resources reserved → first instruction).
    pub dispatch_cycles: Cycle,
    /// Fixed context-switch overhead on top of the context memory traffic
    /// (CP firmware work, pipeline drain).
    pub ctx_switch_overhead: Cycle,
    /// Latency from a SyncMon condition-met detection at the L2 to a stalled
    /// WG restarting on its CU (the resume message, step ❺–❻ in Fig 12).
    pub resume_latency: Cycle,
    /// Declare deadlock after this many cycles without global progress.
    pub quiescence_cycles: Cycle,
    /// Hard simulation cap.
    pub max_cycles: Cycle,
}

impl GpuConfig {
    /// The paper's baseline GPU model (Table 1).
    pub fn isca2020_baseline() -> Self {
        GpuConfig {
            num_cus: 8,
            simds_per_cu: 2,
            simd_width: 64,
            wavefronts_per_simd: 20,
            lds_per_cu: 64 * 1024,
            vgprs_per_simd: 256,
            l1: CacheConfig::l1_isca2020(),
            l2: L2Config::isca2020(),
            dram: DramConfig::isca2020(),
            issue_cycles: 4,
            barrier_base_cycles: 16,
            barrier_per_wf_cycles: 4,
            dispatch_cycles: 200,
            ctx_switch_overhead: 500,
            resume_latency: 50,
            quiescence_cycles: 1_000_000,
            max_cycles: 2_000_000_000,
        }
    }

    /// Wavefront slots per CU.
    pub fn wf_slots_per_cu(&self) -> u32 {
        (self.simds_per_cu * self.wavefronts_per_simd) as u32
    }

    /// VGPR budget per CU (per-wavefront allocation units).
    pub fn vgprs_per_cu(&self) -> u32 {
        self.vgprs_per_simd * self.simds_per_cu as u32
    }
}

/// Per-WG resource requirements, as declared at kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WgResources {
    /// Wavefronts per WG (`ceil(work-items / simd_width)`).
    pub wavefronts: u32,
    /// LDS bytes per WG.
    pub lds_bytes: u32,
    /// VGPRs per wavefront (allocation units; GCN allocates in blocks).
    pub vgprs_per_wavefront: u32,
}

impl WgResources {
    /// A 256-work-item WG (4 wavefronts) with a typical HeteroSync register
    /// footprint and no LDS.
    pub fn default_heterosync() -> Self {
        WgResources {
            wavefronts: 4,
            lds_bytes: 0,
            vgprs_per_wavefront: 8,
        }
    }

    /// Architectural context bytes: vector registers (4 B × lanes per VGPR)
    /// plus LDS plus scalar state per wavefront. This is the Fig 5 quantity
    /// and the amount of save/restore traffic a context switch generates.
    pub fn context_bytes(&self, simd_width: usize) -> u64 {
        let vgpr_bytes =
            self.wavefronts as u64 * self.vgprs_per_wavefront as u64 * 4 * simd_width as u64;
        // 128 B of scalar registers + hardware state per wavefront.
        let scalar_bytes = self.wavefronts as u64 * 128;
        vgpr_bytes + self.lds_bytes as u64 + scalar_bytes
    }
}

impl Default for WgResources {
    fn default() -> Self {
        Self::default_heterosync()
    }
}

/// A kernel launch: program, grid size, resources.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The kernel program.
    pub program: Arc<Program>,
    /// Number of WGs in the grid (the paper's `G`).
    pub num_wgs: u64,
    /// WGs per scheduling cluster (the paper's `L`), exposed to programs as
    /// `Special::WgsPerCluster` for locally-scoped sync variables.
    pub wgs_per_cluster: u64,
    /// Per-WG resource declaration.
    pub resources: WgResources,
    /// Initial global-memory state `(addr, value)` applied before cycle 0.
    pub init_memory: Vec<(Addr, i64)>,
}

impl Kernel {
    /// Creates a kernel with `wgs_per_cluster` defaulted to
    /// `ceil(num_wgs / 8)` (8 CUs in the baseline).
    ///
    /// # Panics
    ///
    /// Panics if `num_wgs == 0` or the program fails verification.
    pub fn new(program: Program, num_wgs: u64, resources: WgResources) -> Self {
        match Self::try_new(program, num_wgs, resources) {
            Ok(kernel) => kernel,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Kernel::new`] for user-supplied programs
    /// (e.g. assembled from a `.s` file on the command line).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::Config`] if `num_wgs` is 0 or exceeds
    /// [`crate::WgId::MAX`], or if the program fails verification.
    pub fn try_new(
        program: Program,
        num_wgs: u64,
        resources: WgResources,
    ) -> Result<Self, crate::SimError> {
        if num_wgs == 0 {
            return Err(crate::SimError::Config(
                "kernel needs at least one WG".into(),
            ));
        }
        if num_wgs > u64::from(crate::WgId::MAX) {
            return Err(crate::SimError::Config(format!(
                "kernel has {num_wgs} WGs; WG ids allow at most {}",
                crate::WgId::MAX
            )));
        }
        if let Err(e) = program.verify() {
            return Err(crate::SimError::Config(format!(
                "kernel program must verify: {e}"
            )));
        }
        let wgs_per_cluster = num_wgs.div_ceil(8).max(1);
        Ok(Kernel {
            program: Arc::new(program),
            num_wgs,
            wgs_per_cluster,
            resources,
            init_memory: Vec::new(),
        })
    }

    /// Sets the cluster width (the paper's `L`).
    pub fn with_cluster(mut self, wgs_per_cluster: u64) -> Self {
        assert!(wgs_per_cluster > 0, "cluster width must be positive");
        self.wgs_per_cluster = wgs_per_cluster;
        self
    }

    /// Adds initial memory state.
    pub fn with_init_memory(mut self, init: Vec<(Addr, i64)>) -> Self {
        self.init_memory = init;
        self
    }

    /// Context size of one WG of this kernel, in bytes (Fig 5).
    pub fn context_bytes(&self, config: &GpuConfig) -> u64 {
        self.resources.context_bytes(config.simd_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awg_isa::ProgramBuilder;

    fn halt_program() -> Program {
        let mut b = ProgramBuilder::new("halt");
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn baseline_matches_table1() {
        let c = GpuConfig::isca2020_baseline();
        assert_eq!(c.num_cus, 8);
        assert_eq!(c.simds_per_cu, 2);
        assert_eq!(c.simd_width, 64);
        assert_eq!(c.wavefronts_per_simd, 20);
        assert_eq!(c.wf_slots_per_cu(), 40);
        assert_eq!(c.l1.capacity_bytes(), 32 * 1024);
        assert_eq!(c.l2.cache.capacity_bytes(), 512 * 1024);
        assert_eq!(c.dram.channels, 4);
    }

    #[test]
    fn context_bytes_in_paper_range() {
        // Fig 5: contexts range from 2 to 10 KB.
        let small = WgResources {
            wavefronts: 2,
            lds_bytes: 0,
            vgprs_per_wavefront: 4,
        };
        let big = WgResources {
            wavefronts: 4,
            lds_bytes: 1024,
            vgprs_per_wavefront: 8,
        };
        let s = small.context_bytes(64);
        let b = big.context_bytes(64);
        assert!((2 * 1024..=4 * 1024).contains(&s), "small context {s}");
        assert!((8 * 1024..=10 * 1024).contains(&b), "big context {b}");
    }

    #[test]
    fn kernel_rejects_more_wgs_than_wg_ids() {
        let err = Kernel::try_new(halt_program(), 1 << 33, WgResources::default()).unwrap_err();
        assert!(matches!(err, crate::SimError::Config(_)), "{err}");
        assert!(Kernel::try_new(
            halt_program(),
            u64::from(crate::WgId::MAX),
            WgResources::default()
        )
        .is_ok());
    }

    #[test]
    fn kernel_defaults_cluster_to_g_over_8() {
        let k = Kernel::new(halt_program(), 64, WgResources::default());
        assert_eq!(k.wgs_per_cluster, 8);
        let k = Kernel::new(halt_program(), 5, WgResources::default());
        assert_eq!(k.wgs_per_cluster, 1);
    }

    #[test]
    fn kernel_builder_setters() {
        let k = Kernel::new(halt_program(), 8, WgResources::default())
            .with_cluster(2)
            .with_init_memory(vec![(64, 1)]);
        assert_eq!(k.wgs_per_cluster, 2);
        assert_eq!(k.init_memory, vec![(64, 1)]);
    }

    #[test]
    #[should_panic(expected = "at least one WG")]
    fn zero_wg_kernel_rejected() {
        Kernel::new(halt_program(), 0, WgResources::default());
    }
}
