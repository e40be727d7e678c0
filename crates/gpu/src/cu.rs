//! Compute-unit resource accounting.
//!
//! A CU accepts WGs while it has free wavefront slots, LDS, and VGPRs —
//! exactly the dispatch rule the paper relies on (§II.D: "WGs within a
//! kernel are sequentially dispatched until execution resources … and memory
//! resources … are saturated").

use awg_mem::Cache;

use crate::config::{GpuConfig, WgResources};
use crate::wg::WgId;

/// One compute unit: occupancy bookkeeping plus its private L1.
#[derive(Debug)]
pub struct Cu {
    id: usize,
    wf_slots: u32,
    lds_bytes: u32,
    vgprs: u32,
    free_wf: u32,
    free_lds: u32,
    free_vgprs: u32,
    resident: Vec<WgId>,
    /// Bumped by every [`Cu::admit`] and [`Cu::release`], the only writers
    /// of `resident` and the free counters.
    version: u64,
    enabled: bool,
    l1: Cache,
}

impl Cu {
    /// Creates an idle, enabled CU per `config`.
    pub fn new(id: usize, config: &GpuConfig) -> Self {
        let wf = config.wf_slots_per_cu();
        let lds = config.lds_per_cu;
        let vgprs = config.vgprs_per_cu();
        Cu {
            id,
            wf_slots: wf,
            lds_bytes: lds,
            vgprs,
            free_wf: wf,
            free_lds: lds,
            free_vgprs: vgprs,
            resident: Vec::new(),
            version: 0,
            enabled: true,
            l1: Cache::new(config.l1),
        }
    }

    /// The CU's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the CU currently accepts work (disabled by the resource-loss
    /// experiment).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Disables the CU (the §VI oversubscription event). Resident WGs must
    /// be preempted by the caller.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Re-enables the CU.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether a WG with requirements `req` fits right now.
    pub fn fits(&self, req: &WgResources) -> bool {
        self.enabled
            && self.free_wf >= req.wavefronts
            && self.free_lds >= req.lds_bytes
            && self.free_vgprs >= req.wavefronts * req.vgprs_per_wavefront
    }

    /// Reserves resources for `wg`.
    ///
    /// # Panics
    ///
    /// Panics if the WG does not fit (callers must check [`Cu::fits`]).
    pub fn admit(&mut self, wg: WgId, req: &WgResources) {
        assert!(self.fits(req), "CU {} cannot admit WG {}", self.id, wg);
        self.free_wf -= req.wavefronts;
        self.free_lds -= req.lds_bytes;
        self.free_vgprs -= req.wavefronts * req.vgprs_per_wavefront;
        self.resident.push(wg);
        self.version += 1;
    }

    /// Releases the resources of `wg`.
    ///
    /// # Panics
    ///
    /// Panics if `wg` is not resident.
    pub fn release(&mut self, wg: WgId, req: &WgResources) {
        let pos = self
            .resident
            .iter()
            .position(|&w| w == wg)
            .unwrap_or_else(|| panic!("WG {} not resident on CU {}", wg, self.id));
        self.resident.swap_remove(pos);
        self.free_wf += req.wavefronts;
        self.free_lds += req.lds_bytes;
        self.free_vgprs += req.wavefronts * req.vgprs_per_wavefront;
        self.version += 1;
        debug_assert!(self.free_wf <= self.wf_slots);
        debug_assert!(self.free_lds <= self.lds_bytes);
        debug_assert!(self.free_vgprs <= self.vgprs);
    }

    /// WGs currently resident, in admission order (mutations may reorder).
    pub fn resident(&self) -> &[WgId] {
        &self.resident
    }

    /// How many times [`Cu::admit`] and [`Cu::release`] have run on this
    /// CU. They alone change the resident list and the free counters, so
    /// while the version stands still, both are as they were: the
    /// invariant oracle compares versions instead of copies.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of WGs currently resident (the telemetry occupancy metric).
    pub fn occupancy(&self) -> u32 {
        self.resident.len() as u32
    }

    /// Maximum number of WGs with requirements `req` this CU can hold.
    pub fn max_occupancy(&self, req: &WgResources) -> u32 {
        let by_wf = self.wf_slots / req.wavefronts.max(1);
        let by_lds = self
            .lds_bytes
            .checked_div(req.lds_bytes)
            .unwrap_or(u32::MAX);
        let vg = req.wavefronts * req.vgprs_per_wavefront;
        let by_vgpr = self.vgprs.checked_div(vg).unwrap_or(u32::MAX);
        by_wf.min(by_lds).min(by_vgpr)
    }

    /// Total `(wavefront slots, LDS bytes, VGPRs)` capacity (Table 1).
    pub fn capacity(&self) -> (u32, u32, u32) {
        (self.wf_slots, self.lds_bytes, self.vgprs)
    }

    /// Currently free `(wavefront slots, LDS bytes, VGPRs)`.
    ///
    /// The invariant oracle cross-checks these against the resident list:
    /// the resources the residents demand plus the free amounts must equal
    /// the capacity exactly, or admission/release bookkeeping has leaked.
    pub fn free_resources(&self) -> (u32, u32, u32) {
        (self.free_wf, self.free_lds, self.free_vgprs)
    }

    /// The CU's private L1 cache.
    pub fn l1_mut(&mut self) -> &mut Cache {
        &mut self.l1
    }

    /// L1 latency in cycles.
    pub fn l1_latency(&self) -> u64 {
        self.l1.config().latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::isca2020_baseline()
    }

    #[test]
    fn admits_until_wavefront_slots_exhausted() {
        let c = cfg();
        let mut cu = Cu::new(0, &c);
        let req = WgResources::default_heterosync(); // 4 wavefronts
        assert_eq!(cu.max_occupancy(&req), 10); // 40 slots / 4
        let mut admitted = 0;
        while cu.fits(&req) {
            cu.admit(admitted, &req);
            admitted += 1;
        }
        assert_eq!(admitted, 10);
    }

    #[test]
    fn lds_limits_occupancy() {
        let c = cfg();
        let cu = Cu::new(0, &c);
        let req = WgResources {
            wavefronts: 1,
            lds_bytes: 20 * 1024,
            vgprs_per_wavefront: 1,
        };
        assert_eq!(cu.max_occupancy(&req), 3); // 64 KB / 20 KB
    }

    #[test]
    fn release_restores_capacity() {
        let c = cfg();
        let mut cu = Cu::new(0, &c);
        let req = WgResources::default_heterosync();
        cu.admit(7, &req);
        assert_eq!(cu.resident(), &[7]);
        cu.release(7, &req);
        assert!(cu.resident().is_empty());
        assert_eq!(cu.max_occupancy(&req), 10);
        assert!(cu.fits(&req));
    }

    #[test]
    fn admit_and_release_each_bump_the_version_once() {
        let c = cfg();
        let mut cu = Cu::new(0, &c);
        let req = WgResources::default_heterosync();
        assert_eq!(cu.version(), 0);
        cu.admit(3, &req);
        assert_eq!(cu.version(), 1);
        cu.admit(4, &req);
        assert_eq!(cu.version(), 2);
        cu.release(3, &req);
        assert_eq!(cu.version(), 3);
    }

    #[test]
    fn readers_and_enable_leave_the_version() {
        let c = cfg();
        let mut cu = Cu::new(0, &c);
        let req = WgResources::default_heterosync();
        cu.admit(3, &req);
        let version = cu.version();
        let _ = (cu.resident(), cu.occupancy(), cu.free_resources());
        let _ = (cu.fits(&req), cu.max_occupancy(&req), cu.capacity());
        let _ = (cu.id(), cu.is_enabled(), cu.l1_latency());
        cu.l1_mut();
        cu.disable();
        cu.enable();
        assert_eq!(cu.version(), version);
    }

    #[test]
    fn disabled_cu_rejects_work() {
        let c = cfg();
        let mut cu = Cu::new(0, &c);
        let req = WgResources::default_heterosync();
        cu.disable();
        assert!(!cu.fits(&req));
        assert!(!cu.is_enabled());
        cu.enable();
        assert!(cu.fits(&req));
    }

    #[test]
    #[should_panic(expected = "cannot admit")]
    fn over_admission_panics() {
        let c = cfg();
        let mut cu = Cu::new(0, &c);
        let req = WgResources {
            wavefronts: 40,
            lds_bytes: 0,
            vgprs_per_wavefront: 1,
        };
        cu.admit(0, &req);
        cu.admit(1, &req);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn release_of_foreign_wg_panics() {
        let c = cfg();
        let mut cu = Cu::new(0, &c);
        cu.release(3, &WgResources::default_heterosync());
    }
}
