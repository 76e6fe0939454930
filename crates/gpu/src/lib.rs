//! # hcc-gpu
//!
//! A discrete-event model of the H100-class GPU the paper characterizes
//! (Fig. 2, Sec. II-A): a [`CommandProcessor`] with a finite channel ring
//! (the origin of launch queuing), direction-specific copy engines, a
//! multi-slot compute engine, functional [`DeviceMemory`] (HBM, plaintext
//! per the threat model), and a [`Gmmu`] tracking managed-page residency
//! for the UVM driver.
//!
//! The model is queueing-level on purpose: the paper's findings concern
//! *where commands wait* (KLO / LQT / KQT) and bandwidth ceilings, not SM
//! microarchitecture, so calibrated service times reproduce the behaviour.
//!
//! ```
//! use hcc_gpu::GpuDevice;
//! use hcc_types::calib::GpuCalib;
//! use hcc_types::{
//!     ByteSize, CcMode, CopyKind, FaultInjector, FaultPlan, RecoveryPolicy, SimDuration, SimTime,
//! };
//!
//! let mut gpu = GpuDevice::new(&GpuCalib::default(), CcMode::On, ByteSize::gib(94));
//! let copy = gpu.submit_copy(
//!     SimTime::ZERO,
//!     SimDuration::ZERO,
//!     SimTime::ZERO,
//!     CopyKind::H2D,
//!     SimDuration::millis(3),
//! );
//! let mut quiet = FaultInjector::new(FaultPlan::none(), RecoveryPolicy::default(), 0);
//! let (kernel, _) = gpu.submit_kernel_with_faults(
//!     copy.xfer.end,
//!     SimDuration::ZERO,
//!     copy.xfer.end,
//!     SimDuration::millis(1),
//!     &mut quiet,
//! );
//! let kernel = kernel.expect("no fault is planned");
//! assert!(kernel.exec.start >= copy.xfer.end);
//! ```

mod cp;
mod device;
mod engine;
mod gmmu;
mod memory;

pub use cp::{CommandProcessor, Submission};
pub use device::{CopySchedule, GpuDevice, KernelSchedule};
pub use engine::{EngineMetrics, MultiSlot, Resource, Slot};
pub use gmmu::{Gmmu, GmmuError, ManagedId, Residency};
pub use memory::{DeviceMemError, DeviceMemory, DevicePtr};

#[cfg(test)]
mod proptests {
    use super::*;
    use hcc_check::strategy::{bools, u64s, usizes, vecs};
    use hcc_check::{ensure, ensure_eq, forall, Config};
    use hcc_types::calib::GpuCalib;
    use hcc_types::{ByteSize, CcMode, SimDuration, SimTime};

    /// The virtual clock never runs backwards on any engine: each
    /// operation starts at or after its ready time, and ends after it
    /// starts.
    #[test]
    fn engine_clock_monotone() {
        forall!(
            Config::new(0x690_0001),
            ops in vecs((u64s(0..1_000_000), u64s(1..100_000)), 1..200) => {
                let mut r = Resource::new("x");
                for (ready, dur) in ops {
                    let slot = r.schedule(
                        SimTime::from_nanos(ready),
                        SimDuration::from_nanos(dur),
                    );
                    ensure!(slot.start >= SimTime::from_nanos(ready));
                    ensure!(slot.end > slot.start);
                    ensure!(r.next_free() == slot.end);
                }
            }
        );
    }

    /// A serial resource's total busy time equals the sum of services,
    /// and intervals never overlap.
    #[test]
    fn serial_intervals_disjoint() {
        forall!(
            Config::new(0x690_0002),
            ops in vecs((u64s(0..100_000), u64s(1..10_000)), 1..100) => {
                let mut r = Resource::new("x");
                let mut intervals = Vec::new();
                let mut total = SimDuration::ZERO;
                for (ready, dur) in ops {
                    let d = SimDuration::from_nanos(dur);
                    let slot = r.schedule(SimTime::from_nanos(ready), d);
                    intervals.push((slot.start, slot.end));
                    total += d;
                }
                // Busy over the horizon the last op ends at.
                let horizon = r.next_free();
                let busy = total.as_nanos() as f64 / horizon.as_nanos() as f64;
                ensure!((r.utilization(horizon) - busy).abs() < 1e-12);
                intervals.sort();
                for w in intervals.windows(2) {
                    ensure!(w[0].1 <= w[1].0);
                }
            }
        );
    }

    /// Ring waits are only incurred when more than `depth` commands
    /// are in flight; with huge rings, LQT is always zero.
    #[test]
    fn deep_ring_never_waits() {
        forall!(Config::new(0x690_0003), n in usizes(1..200) => {
            let calib = GpuCalib { ring_depth: 10_000, ..GpuCalib::default() };
            let mut cp = CommandProcessor::new(&calib, CcMode::On);
            for _ in 0..n {
                let s = cp.submit(SimTime::ZERO);
                ensure!(s.ring_wait.is_zero());
            }
            ensure!(cp.total_ring_wait().is_zero());
        });
    }

    /// Device memory conserves bytes: used equals the sum of live
    /// allocation sizes at every step.
    #[test]
    fn hbm_conserves_bytes() {
        forall!(
            Config::new(0x690_0004),
            ops in vecs((u64s(1..64), bools()), 1..100) => {
                let mut hbm = DeviceMemory::new(ByteSize::mib(1024));
                let mut live: Vec<(DevicePtr, ByteSize)> = Vec::new();
                for (mib, drop_one) in ops {
                    if drop_one && !live.is_empty() {
                        let (ptr, _) = live.swap_remove(0);
                        hbm.free(ptr).unwrap();
                    } else if let Ok(ptr) = hbm.alloc(ByteSize::mib(mib)) {
                        live.push((ptr, ByteSize::mib(mib)));
                    }
                    let expected: ByteSize = live.iter().map(|(_, s)| *s).sum();
                    ensure_eq!(hbm.used(), expected);
                }
            }
        );
    }

    /// GMMU faults are idempotent once marked resident.
    #[test]
    fn faults_clear_after_migration() {
        forall!(
            Config::new(0x690_0005),
            (pages, touch) in (u64s(1..64), u64s(1..64)) => {
                let mut g = Gmmu::new();
                let id = ManagedId(0);
                g.register(id, ByteSize::kib(64 * pages), ByteSize::kib(64));
                let touch = touch.min(pages);
                ensure_eq!(g.claim_faults(id, 0, touch).unwrap(), touch);
                ensure_eq!(g.peek_fault_count(id, 0, touch).unwrap(), 0);
                ensure_eq!(g.claim_faults(id, 0, touch).unwrap(), 0);
            }
        );
    }
}
