//! The assembled GPU device: command processor front door, copy engines,
//! compute engine, HBM, and GMMU (paper Fig. 2's GPU half).

use hcc_trace::causal::{CausalEdge, EdgeKind, EventId};
use hcc_trace::metrics::{Counter, MetricsSet};
use hcc_types::calib::{dispatch_latency, GpuCalib};
use hcc_types::{
    ByteSize, CcMode, CopyKind, FaultInjector, FaultSite, Recovery, SimDuration, SimTime,
};

use crate::cp::{CommandProcessor, Submission};
use crate::engine::{MultiSlot, Resource, Slot};
use crate::gmmu::Gmmu;
use crate::memory::DeviceMemory;

/// Schedule of one kernel through the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSchedule {
    /// Ring/command-processor leg.
    pub submission: Submission,
    /// Compute-engine occupancy (KET span).
    pub exec: Slot,
}

impl KernelSchedule {
    /// Kernel queuing time relative to a given launch-completion instant.
    pub(crate) fn kqt_since(&self, launch_end: SimTime) -> SimDuration {
        self.exec.start.saturating_since(launch_end)
    }

    /// The causal edge this schedule implies: the launch (ending at
    /// `launch_end`) gates execution through the ring/CP/dispatch leg,
    /// and the carried wait is exactly the KQT the device imposed. The
    /// device — not the trace consumer — types this dependency, so the
    /// DAG is built from scheduling decisions rather than inferred from
    /// timestamps.
    pub fn causal_edge(&self, launch: EventId, kernel: EventId, launch_end: SimTime) -> CausalEdge {
        CausalEdge::new(launch, kernel, EdgeKind::LaunchToExec)
            .with_wait(self.kqt_since(launch_end))
    }
}

/// Schedule of one copy command through the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopySchedule {
    /// Ring/command-processor leg.
    pub submission: Submission,
    /// Copy-engine occupancy (transfer span).
    pub xfer: Slot,
}

impl CopySchedule {
    /// The causal edge from the event that produced the copy's data
    /// (crypto staging, a prior stream operation) to the transfer itself;
    /// the wait is the engine-side delay past `data_ready`.
    pub fn causal_edge(
        &self,
        producer: EventId,
        copy: EventId,
        kind: EdgeKind,
        data_ready: SimTime,
    ) -> CausalEdge {
        CausalEdge::new(producer, copy, kind)
            .with_wait(self.xfer.start.saturating_since(data_ready))
    }
}

/// The simulated GPU.
///
/// Engines mirror the paper's architecture: every command enters through
/// the [`CommandProcessor`]; copies are serviced by direction-specific copy
/// engines; kernels run on a multi-slot compute engine. HBM contents are
/// functional (and unencrypted, per the threat model).
///
/// ```
/// use hcc_gpu::GpuDevice;
/// use hcc_types::calib::GpuCalib;
/// use hcc_types::{
///     ByteSize, CcMode, FaultInjector, FaultPlan, RecoveryPolicy, SimDuration, SimTime,
/// };
///
/// let mut gpu = GpuDevice::new(&GpuCalib::default(), CcMode::Off, ByteSize::gib(94));
/// let mut quiet = FaultInjector::new(FaultPlan::none(), RecoveryPolicy::default(), 0);
/// let (k, _) = gpu.submit_kernel_with_faults(
///     SimTime::ZERO,
///     SimDuration::ZERO,
///     SimTime::ZERO,
///     SimDuration::millis(1),
///     &mut quiet,
/// );
/// let k = k.expect("no fault is planned");
/// assert!(k.exec.start > SimTime::ZERO); // CP service + dispatch first
/// assert_eq!(k.exec.end - k.exec.start, SimDuration::millis(1));
/// ```
#[derive(Debug, Clone)]
pub struct GpuDevice {
    cp: CommandProcessor,
    compute: MultiSlot,
    ce_h2d: Resource,
    ce_d2h: Resource,
    ce_d2d: Resource,
    hbm: DeviceMemory,
    gmmu: Gmmu,
    dispatch: SimDuration,
    cc: CcMode,
    copied_bytes: [Counter; 3],
}

impl GpuDevice {
    /// Creates a device with the paper's H100-NVL-like configuration.
    pub fn new(calib: &GpuCalib, cc: CcMode, hbm_capacity: ByteSize) -> Self {
        GpuDevice {
            cp: CommandProcessor::new(calib, cc),
            compute: MultiSlot::new("compute", calib.compute_slots),
            ce_h2d: Resource::new("copy-h2d"),
            ce_d2h: Resource::new("copy-d2h"),
            ce_d2d: Resource::new("copy-d2d"),
            hbm: DeviceMemory::new(hbm_capacity),
            gmmu: Gmmu::new(),
            dispatch: dispatch_latency(calib, cc),
            cc,
            copied_bytes: Default::default(),
        }
    }

    /// Enables metrics recording on every engine: ring occupancy and CP
    /// service gauges, per-direction copy-engine queue/busy gauges, the
    /// compute engine's queue/busy gauges, and per-direction byte
    /// counters (for achieved-vs-ceiling bandwidth).
    pub fn enable_metrics(&mut self) {
        self.cp.enable_metrics();
        self.compute.enable_metrics();
        self.ce_h2d.enable_metrics();
        self.ce_d2h.enable_metrics();
        self.ce_d2d.enable_metrics();
        for c in &mut self.copied_bytes {
            c.enable();
        }
    }

    /// Records `bytes` moved by a copy in direction `kind` — the caller
    /// (which knows payload sizes the device model does not) reports them
    /// so achieved copy-engine bandwidth can be compared to the PCIe /
    /// NVLink ceiling.
    pub fn note_copy_bytes(&mut self, kind: CopyKind, bytes: ByteSize) {
        self.copied_bytes[kind as usize].add(bytes.as_u64());
    }

    /// Snapshots every device-side instrument under the `gpu.` prefix
    /// (no-op while metrics are disabled).
    pub fn export_metrics(&self, set: &mut MetricsSet) {
        self.cp.export_metrics(set);
        self.compute.export_metrics("gpu.compute", set);
        self.ce_h2d.export_metrics("gpu.copy-h2d", set);
        self.ce_d2h.export_metrics("gpu.copy-d2h", set);
        self.ce_d2d.export_metrics("gpu.copy-d2d", set);
        set.counter(
            "gpu.copy-h2d.bytes",
            &self.copied_bytes[CopyKind::H2D as usize],
        );
        set.counter(
            "gpu.copy-d2h.bytes",
            &self.copied_bytes[CopyKind::D2H as usize],
        );
        set.counter(
            "gpu.copy-d2d.bytes",
            &self.copied_bytes[CopyKind::D2D as usize],
        );
    }

    /// The CC mode the device was bound in.
    pub fn cc_mode(&self) -> CcMode {
        self.cc
    }

    /// Engine-dispatch latency in effect (the KQT floor).
    pub fn dispatch_latency(&self) -> SimDuration {
        self.dispatch
    }

    /// Command processor (read access for queue statistics).
    pub fn command_processor(&self) -> &CommandProcessor {
        &self.cp
    }

    /// Device memory.
    pub fn hbm(&self) -> &DeviceMemory {
        &self.hbm
    }

    /// Device memory, mutable.
    pub fn hbm_mut(&mut self) -> &mut DeviceMemory {
        &mut self.hbm
    }

    /// GMMU.
    pub fn gmmu(&self) -> &Gmmu {
        &self.gmmu
    }

    /// GMMU, mutable.
    pub fn gmmu_mut(&mut self) -> &mut Gmmu {
        &mut self.gmmu
    }

    /// Submits a kernel: the host asks for a ring slot at `want`, performs
    /// `doorbell_offset` of driver work (the KLO span) before ringing the
    /// doorbell, and the kernel — occupying the compute engine for `ket` —
    /// may not start before `earliest_exec` (stream ordering). The fault
    /// injector is consulted for a [`FaultSite::RingDoorbell`] drop first.
    /// A retried drop stalls the submission by the recovery backoff (the
    /// host re-rings after each wait) and reports the stall as extra
    /// `ring_wait`, so it surfaces as LQT; an aborted recovery returns
    /// `None` without touching ring state, and the caller raises its typed
    /// error.
    pub fn submit_kernel_with_faults(
        &mut self,
        want: SimTime,
        doorbell_offset: SimDuration,
        earliest_exec: SimTime,
        ket: SimDuration,
        faults: &mut FaultInjector,
    ) -> (Option<KernelSchedule>, Recovery) {
        let recovery = faults.recover(FaultSite::RingDoorbell);
        let stall = recovery.stall();
        if matches!(recovery, Recovery::Aborted { .. }) {
            return (None, recovery);
        }
        let mut submission = self.cp.submit_after(want + stall, doorbell_offset);
        submission.ring_wait += stall;
        let ready = (submission.service_end + self.dispatch).max(earliest_exec);
        let exec = self.compute.schedule(ready, ket);
        (Some(KernelSchedule { submission, exec }), recovery)
    }

    /// Submits a copy command of `duration` on the engine for `kind`: ring
    /// slot requested at `want`, doorbell after `doorbell_offset` of driver
    /// work, transfer not starting before `data_ready` (e.g. after
    /// host-side staging/encryption or stream ordering).
    pub fn submit_copy(
        &mut self,
        want: SimTime,
        doorbell_offset: SimDuration,
        data_ready: SimTime,
        kind: CopyKind,
        duration: SimDuration,
    ) -> CopySchedule {
        let submission = self.cp.submit_after(want, doorbell_offset);
        let ready = (submission.service_end + self.dispatch).max(data_ready);
        let engine = match kind {
            CopyKind::H2D => &mut self.ce_h2d,
            CopyKind::D2H => &mut self.ce_d2h,
            CopyKind::D2D => &mut self.ce_d2d,
        };
        let xfer = engine.schedule(ready, duration);
        CopySchedule { submission, xfer }
    }

    /// Ring wait accumulated by the command processor (device-side ΣLQT).
    pub fn total_ring_wait(&self) -> SimDuration {
        self.cp.total_ring_wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::{FaultPlan, RecoveryPolicy};

    fn gpu(cc: CcMode) -> GpuDevice {
        GpuDevice::new(&GpuCalib::default(), cc, ByteSize::gib(4))
    }

    /// Submits a kernel of `ket` at time zero with no fault planned.
    fn kernel(g: &mut GpuDevice, ket: SimDuration) -> KernelSchedule {
        let mut quiet = FaultInjector::new(FaultPlan::none(), RecoveryPolicy::default(), 0);
        let (k, _) = g.submit_kernel_with_faults(
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::ZERO,
            ket,
            &mut quiet,
        );
        k.expect("no fault is planned")
    }

    #[test]
    fn kernel_path_orders_cp_then_dispatch_then_exec() {
        let mut g = gpu(CcMode::Off);
        let k = kernel(&mut g, SimDuration::micros(100));
        assert!(k.submission.service_end > SimTime::ZERO);
        assert_eq!(
            k.exec.start,
            k.submission.service_end + g.dispatch_latency()
        );
        assert_eq!(k.exec.end - k.exec.start, SimDuration::micros(100));
        // KQT relative to a launch that ended when the doorbell rang.
        let kqt = k.kqt_since(SimTime::ZERO);
        assert_eq!(kqt, k.exec.start - SimTime::ZERO);
    }

    #[test]
    fn cc_dispatch_amplifies_kqt_floor() {
        let base = gpu(CcMode::Off);
        let cc = gpu(CcMode::On);
        let ratio = cc.dispatch_latency() / base.dispatch_latency();
        assert!(ratio > 2.0, "ratio {ratio}");
        assert_eq!(cc.cc_mode(), CcMode::On);
    }

    #[test]
    fn concurrent_kernels_use_slots() {
        let mut g = gpu(CcMode::Off);
        let a = kernel(&mut g, SimDuration::millis(10));
        let b = kernel(&mut g, SimDuration::millis(10));
        // Different slots: b starts right after its own CP service, not
        // after a's 10ms execution.
        assert!(b.exec.start < a.exec.end);
    }

    #[test]
    fn copies_serialize_per_direction_engine() {
        let mut g = gpu(CcMode::Off);
        let c1 = g.submit_copy(
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::ZERO,
            CopyKind::H2D,
            SimDuration::millis(5),
        );
        let c2 = g.submit_copy(
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::ZERO,
            CopyKind::H2D,
            SimDuration::millis(5),
        );
        assert_eq!(c2.xfer.start, c1.xfer.end);
        // Opposite direction rides its own engine.
        let c3 = g.submit_copy(
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::ZERO,
            CopyKind::D2H,
            SimDuration::millis(5),
        );
        assert!(c3.xfer.start < c2.xfer.end);
    }

    #[test]
    fn data_ready_gates_transfer_start() {
        let mut g = gpu(CcMode::On);
        let ready = SimTime::from_nanos(5_000_000);
        let c = g.submit_copy(
            SimTime::ZERO,
            SimDuration::ZERO,
            ready,
            CopyKind::H2D,
            SimDuration::millis(1),
        );
        assert!(c.xfer.start >= ready);
    }

    #[test]
    fn metrics_cover_every_engine() {
        let mut g = gpu(CcMode::On);
        g.enable_metrics();
        g.submit_copy(
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::ZERO,
            CopyKind::H2D,
            SimDuration::millis(2),
        );
        g.note_copy_bytes(CopyKind::H2D, ByteSize::mib(64));
        kernel(&mut g, SimDuration::millis(4));

        let mut set = MetricsSet::new();
        g.export_metrics(&mut set);
        for track in [
            "gpu.ring.occupancy",
            "gpu.cp.busy",
            "gpu.compute.queue",
            "gpu.compute.busy",
            "gpu.copy-h2d.busy",
            "gpu.copy-d2h.queue",
        ] {
            assert!(set.gauge_series(track).is_some(), "missing {track}");
        }
        assert_eq!(
            set.gauge_integral("gpu.compute.busy"),
            Some(SimDuration::millis(4))
        );
        assert_eq!(
            set.counter_total("gpu.copy-h2d.bytes"),
            Some(ByteSize::mib(64).as_u64())
        );
        assert!(set.total_samples() > 0);
    }

    #[test]
    fn hbm_and_gmmu_accessible() {
        let mut g = gpu(CcMode::Off);
        let ptr = g.hbm_mut().alloc(ByteSize::mib(1)).unwrap();
        assert_eq!(g.hbm().used(), ByteSize::mib(1));
        g.hbm_mut().free(ptr).unwrap();
        let id = crate::ManagedId(1);
        g.gmmu_mut()
            .register(id, ByteSize::kib(64), ByteSize::kib(64));
        assert_eq!(g.gmmu().peek_fault_count(id, 0, 1).unwrap(), 1);
    }

    #[test]
    fn faulty_submit_matches_clean_submit_under_empty_plan() {
        let mut inj = FaultInjector::new(FaultPlan::none(), RecoveryPolicy::default(), 1);
        let mut a = gpu(CcMode::On);
        let mut b = gpu(CcMode::On);
        // The clean schedule, composed from the device's parts.
        let submission = a.cp.submit_after(SimTime::ZERO, SimDuration::ZERO);
        let exec = a.compute.schedule(
            submission.service_end + a.dispatch,
            SimDuration::micros(100),
        );
        let clean = KernelSchedule { submission, exec };
        let (faulty, rec) = b.submit_kernel_with_faults(
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::ZERO,
            SimDuration::micros(100),
            &mut inj,
        );
        assert!(rec.is_clean());
        assert_eq!(clean, faulty.unwrap());
    }

    #[test]
    fn doorbell_drop_stalls_or_aborts() {
        let plan = FaultPlan::none().with_rate(FaultSite::RingDoorbell, 1.0);
        let mut abort = FaultInjector::new(plan.clone(), RecoveryPolicy::Abort, 1);
        let mut g = gpu(CcMode::On);
        let (sched, rec) = g.submit_kernel_with_faults(
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::ZERO,
            SimDuration::micros(100),
            &mut abort,
        );
        assert!(sched.is_none());
        assert!(matches!(rec, Recovery::Aborted { .. }));

        // Rate 1.0 with a one-fault cap: the first retry succeeds, and the
        // backoff surfaces as ring wait.
        let capped = plan.with_max_per_site(1);
        let mut inj = FaultInjector::new(capped, RecoveryPolicy::default(), 1);
        let (sched, rec) = g.submit_kernel_with_faults(
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::ZERO,
            SimDuration::micros(100),
            &mut inj,
        );
        let sched = sched.unwrap();
        assert!(matches!(rec, Recovery::Retried { .. }));
        assert_eq!(sched.submission.ring_wait, rec.stall());
        assert!(!rec.stall().is_zero());
    }
}
