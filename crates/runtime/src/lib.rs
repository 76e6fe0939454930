//! # hcc-runtime
//!
//! A CUDA-flavoured runtime over the `hcc` substrates: device/host/managed
//! allocation, blocking and asynchronous transfers, kernel launches with
//! the full CC launch path (LQT → KLO with hypercalls → command processor
//! → dispatch → KQT → KET), streams, and synchronization — every
//! call recorded as Nsight-style trace events.
//!
//! Flip [`SimConfig`]'s `CcMode` and the *same* workload code pays the
//! paper's confidential-computing taxes: encrypted bounce-buffer
//! transfers, `tdx_hypercall` launch overhead, pinned-memory demotion, and
//! UVM encrypted paging.
//!
//! ```
//! use hcc_runtime::{CudaContext, KernelDesc, SimConfig};
//! use hcc_trace::KernelId;
//! use hcc_types::{ByteSize, CcMode, HostMemKind, SimDuration};
//!
//! let mut ctx = CudaContext::new(SimConfig::new(CcMode::On));
//! let h = ctx.malloc_host(ByteSize::mib(4), HostMemKind::Pageable).unwrap();
//! let d = ctx.malloc_device(ByteSize::mib(4)).unwrap();
//! ctx.memcpy_h2d(d, h, ByteSize::mib(4)).unwrap();
//! ctx.launch_kernel(
//!     &KernelDesc::new(KernelId(0), SimDuration::millis(2)),
//!     ctx.default_stream(),
//! )
//! .unwrap();
//! ctx.synchronize();
//! let metrics = ctx.timeline().launch_metrics();
//! assert_eq!(metrics.launch_count(), 1);
//! ```

mod audit;
mod config;
mod context;
mod handles;

pub use audit::LeakAudit;
pub use config::SimConfig;
pub use context::{CudaContext, Result, RuntimeError};
pub use handles::{HostPtr, KernelDesc, ManagedAccess, ManagedPtr};
pub use hcc_gpu::DevicePtr;
pub use hcc_tee::TdCounters;
pub use hcc_uvm::UvmStats;

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_trace::{EventKind, KernelId};
    use hcc_types::{ByteSize, CcMode, CopyKind, HostMemKind, SimDuration};

    fn ctx(cc: CcMode) -> CudaContext {
        CudaContext::new(SimConfig::new(cc))
    }

    #[test]
    fn blocking_copy_cc_much_slower() {
        let size = ByteSize::mib(256);
        let time = |cc: CcMode| {
            let mut c = ctx(cc);
            let h = c.malloc_host(size, HostMemKind::Pinned).unwrap();
            let d = c.malloc_device(size).unwrap();
            c.memcpy_h2d(d, h, size).unwrap()
        };
        let base = time(CcMode::Off);
        let cc = time(CcMode::On);
        let ratio = cc / base;
        // Pinned 52 GB/s vs ~3 GB/s encrypted path: ~17x on large copies.
        assert!(ratio > 10.0 && ratio < 25.0, "ratio {ratio}");
    }

    #[test]
    fn cc_bandwidth_near_published_peak() {
        let size = ByteSize::gib(1);
        let mut c = ctx(CcMode::On);
        let h = c.malloc_host(size, HostMemKind::Pinned).unwrap();
        let d = c.malloc_device(size).unwrap();
        let t = c.memcpy_h2d(d, h, size).unwrap();
        let bw = size.as_gb_f64() / t.as_secs_f64();
        assert!((bw - 3.03).abs() < 0.35, "bw {bw} GB/s");
    }

    #[test]
    fn pinned_faster_than_pageable_only_without_cc() {
        let size = ByteSize::mib(128);
        let run = |cc: CcMode, kind: HostMemKind| {
            let mut c = ctx(cc);
            let h = c.malloc_host(size, kind).unwrap();
            let d = c.malloc_device(size).unwrap();
            c.memcpy_h2d(d, h, size).unwrap()
        };
        let base_pin = run(CcMode::Off, HostMemKind::Pinned);
        let base_page = run(CcMode::Off, HostMemKind::Pageable);
        assert!(base_pin < base_page, "pinned should win in base mode");
        let cc_pin = run(CcMode::On, HostMemKind::Pinned);
        let cc_page = run(CcMode::On, HostMemKind::Pageable);
        let gap = (cc_pin / cc_page - 1.0).abs();
        assert!(gap < 0.05, "CC erases the pinned advantage (gap {gap})");
    }

    #[test]
    fn cc_pinned_copies_relabelled_managed_d2d() {
        let size = ByteSize::mib(8);
        let mut c = ctx(CcMode::On);
        let h = c.malloc_host(size, HostMemKind::Pinned).unwrap();
        let d = c.malloc_device(size).unwrap();
        c.memcpy_h2d(d, h, size).unwrap();
        let managed_copy = c.timeline().events().iter().any(|e| {
            matches!(
                e.kind,
                EventKind::Memcpy {
                    kind: CopyKind::D2D,
                    managed: true,
                    ..
                }
            )
        });
        assert!(
            managed_copy,
            "pinned CC copy must be Nsight-labelled Managed D2D"
        );
    }

    #[test]
    fn alloc_slowdowns_match_fig6() {
        let size = ByteSize::mib(64);
        let n = 40;
        let collect = |cc: CcMode| {
            let mut c = ctx(cc);
            let mut times = (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO);
            for _ in 0..n {
                let t0 = c.now();
                let d = c.malloc_device(size).unwrap();
                times.0 += c.now() - t0;
                let t1 = c.now();
                let h = c.malloc_host(size, HostMemKind::Pinned).unwrap();
                times.1 += c.now() - t1;
                let t2 = c.now();
                c.free_device(d).unwrap();
                times.2 += c.now() - t2;
                c.free_host(h).unwrap();
            }
            times
        };
        let base = collect(CcMode::Off);
        let cc = collect(CcMode::On);
        let dmalloc = cc.0 / base.0;
        let hmalloc = cc.1 / base.1;
        let free = cc.2 / base.2;
        assert!((dmalloc - 5.67).abs() < 0.6, "dmalloc {dmalloc}");
        assert!((hmalloc - 5.72).abs() < 0.6, "hmalloc {hmalloc}");
        assert!((free - 10.54).abs() < 1.0, "free {free}");
    }

    #[test]
    fn uvm_kernel_pays_fault_service_and_cc_amplifies_it() {
        let size = ByteSize::mib(64);
        let ket = |cc: CcMode| {
            let mut c = ctx(cc);
            let m = c.malloc_managed(size).unwrap();
            let desc = KernelDesc::new(KernelId(0), SimDuration::millis(1))
                .with_managed(ManagedAccess::all(m));
            c.launch_kernel(&desc, c.default_stream()).unwrap();
            c.synchronize();
            let lm = c.timeline().launch_metrics();
            lm.kernels[0].ket
        };
        let base_uvm = ket(CcMode::Off);
        let cc_uvm = ket(CcMode::On);
        assert!(
            base_uvm > SimDuration::millis(2),
            "faults inflate KET: {base_uvm}"
        );
        let ratio = cc_uvm / base_uvm;
        assert!(ratio > 4.0, "encrypted paging ratio {ratio}");
    }

    #[test]
    fn non_uvm_ket_nearly_unaffected_by_cc() {
        let run = |cc: CcMode| {
            let mut c = CudaContext::new(SimConfig::new(cc).with_seed(1));
            let desc = KernelDesc::new(KernelId(0), SimDuration::millis(10));
            let mut total = SimDuration::ZERO;
            for _ in 0..50 {
                c.launch_kernel(&desc, c.default_stream()).unwrap();
            }
            c.synchronize();
            for k in c.timeline().launch_metrics().kernels {
                total += k.ket;
            }
            total
        };
        let ratio = run(CcMode::On) / run(CcMode::Off);
        assert!((ratio - 1.0048).abs() < 0.01, "KET ratio {ratio}");
    }

    #[test]
    fn second_touch_of_managed_range_is_fault_free() {
        let mut c = ctx(CcMode::Off);
        let m = c.malloc_managed(ByteSize::mib(8)).unwrap();
        let desc = KernelDesc::new(KernelId(0), SimDuration::micros(100))
            .with_managed(ManagedAccess::all(m));
        c.launch_kernel(&desc, c.default_stream()).unwrap();
        c.synchronize();
        let faults_after_first = c.uvm_stats().faults;
        assert!(faults_after_first > 0);
        c.launch_kernel(&desc, c.default_stream()).unwrap();
        c.synchronize();
        assert_eq!(c.uvm_stats().faults, faults_after_first);
    }

    #[test]
    fn launches_have_klo_lqt_kqt_structure() {
        let mut c = ctx(CcMode::On);
        let desc = KernelDesc::new(KernelId(3), SimDuration::micros(20));
        for _ in 0..200 {
            c.launch_kernel(&desc, c.default_stream()).unwrap();
        }
        c.synchronize();
        let lm = c.timeline().launch_metrics();
        assert_eq!(lm.launch_count(), 200);
        assert_eq!(lm.kernels.len(), 200);
        assert!(lm.launches[0].first);
        assert!(!lm.launches[1].first);
        // First launch pays module upload: clearly larger KLO.
        assert!(lm.launches[0].klo > lm.launches[50].klo * 3);
        // KQT present for every kernel.
        assert!(lm.kernels.iter().all(|k| k.kqt > SimDuration::ZERO));
    }

    #[test]
    fn streams_overlap_independent_work() {
        // Two independent kernels on two streams overlap; on one stream
        // they serialize.
        let run = |two_streams: bool| {
            let mut c = CudaContext::new(SimConfig::new(CcMode::Off).with_seed(5));
            let s1 = c.default_stream();
            let s2 = if two_streams { c.create_stream() } else { s1 };
            let desc = KernelDesc::new(KernelId(0), SimDuration::millis(50));
            c.launch_kernel(&desc, s1).unwrap();
            c.launch_kernel(&desc, s2).unwrap();
            c.synchronize();
            c.now()
        };
        let serial = run(false);
        let parallel = run(true);
        assert!(
            parallel.as_secs_f64() < serial.as_secs_f64() * 0.7,
            "parallel {parallel} vs serial {serial}"
        );
    }

    #[test]
    fn async_copies_overlap_with_compute_in_base_mode() {
        let size = ByteSize::mib(64);
        let mut c = ctx(CcMode::Off);
        let h = c.malloc_host(size, HostMemKind::Pinned).unwrap();
        let d = c.malloc_device(size).unwrap();
        let s1 = c.create_stream();
        let s2 = c.create_stream();
        let t0 = c.now();
        c.memcpy_async(d, h, size, CopyKind::H2D, s1).unwrap();
        let desc = KernelDesc::new(KernelId(0), SimDuration::millis(5));
        c.launch_kernel(&desc, s2).unwrap();
        c.synchronize();
        let span = c.now() - t0;
        // Total should be close to max(copy, kernel), not their sum.
        let copy_alone = {
            let mut c2 = ctx(CcMode::Off);
            let h2 = c2.malloc_host(size, HostMemKind::Pinned).unwrap();
            let d2 = c2.malloc_device(size).unwrap();
            c2.memcpy_h2d(d2, h2, size).unwrap()
        };
        assert!(
            span < copy_alone + SimDuration::millis(5),
            "span {span} vs copy {copy_alone} + 5ms kernel"
        );
    }

    #[test]
    fn functional_upload_roundtrips_through_encryption() {
        let mut c = ctx(CcMode::On);
        let d = c.malloc_device(ByteSize::kib(4)).unwrap();
        let payload: Vec<u8> = (0..=255).cycle().take(4096).map(|x: u16| x as u8).collect();
        c.upload_bytes(d, &payload).unwrap();
        // HBM holds plaintext (unencrypted per the threat model).
        assert_eq!(c.gpu().hbm().read(d, 0, 4096).unwrap(), payload);
        let back = c.download_bytes(d, 4096).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn error_paths() {
        let mut c = ctx(CcMode::Off);
        let h = c
            .malloc_host(ByteSize::kib(4), HostMemKind::Pageable)
            .unwrap();
        let d = c.malloc_device(ByteSize::kib(4)).unwrap();
        assert!(matches!(
            c.memcpy_h2d(d, h, ByteSize::kib(8)),
            Err(RuntimeError::CopyTooLarge { .. })
        ));
        c.free_host(h).unwrap();
        assert!(matches!(
            c.memcpy_h2d(d, h, ByteSize::kib(1)),
            Err(RuntimeError::UnknownHostPtr(_))
        ));
        assert!(matches!(
            c.free_managed(ManagedPtr(99)),
            Err(RuntimeError::UnknownManagedPtr(_))
        ));
        let desc = KernelDesc::new(KernelId(0), SimDuration::micros(1));
        assert!(matches!(
            c.launch_kernel(&desc, hcc_trace::StreamId(42)),
            Err(RuntimeError::UnknownStream(_))
        ));
    }

    #[test]
    fn attestation_charges_cold_start_once() {
        let cold = CudaContext::new(SimConfig::new(CcMode::On).with_attestation());
        // SPDM handshake: several milliseconds before the first CUDA call.
        assert!(
            cold.now() > hcc_types::SimTime::from_nanos(5_000_000),
            "{}",
            cold.now()
        );
        let warm = CudaContext::new(SimConfig::new(CcMode::On));
        assert_eq!(warm.now(), hcc_types::SimTime::ZERO);
        // No session (and no cost) without CC.
        let vm = CudaContext::new(SimConfig::new(CcMode::Off).with_attestation());
        assert_eq!(vm.now(), hcc_types::SimTime::ZERO);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut c = CudaContext::new(SimConfig::new(CcMode::On).with_seed(77));
            let h = c
                .malloc_host(ByteSize::mib(4), HostMemKind::Pageable)
                .unwrap();
            let d = c.malloc_device(ByteSize::mib(4)).unwrap();
            c.memcpy_h2d(d, h, ByteSize::mib(4)).unwrap();
            let desc = KernelDesc::new(KernelId(0), SimDuration::micros(300));
            for _ in 0..20 {
                c.launch_kernel(&desc, c.default_stream()).unwrap();
            }
            c.synchronize();
            c.into_timeline()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seeded_fault_plan_attributes_t_fault() {
        use hcc_types::{FaultPlan, FaultSite};
        let plan = FaultPlan::uniform(7, 1.0).with_max_per_site(2);
        let mut c = CudaContext::new(
            SimConfig::new(CcMode::On)
                .with_seed(3)
                .with_fault_plan(plan),
        );
        let h = c
            .malloc_host(ByteSize::mib(8), HostMemKind::Pageable)
            .unwrap();
        let d = c.malloc_device(ByteSize::mib(8)).unwrap();
        c.memcpy_h2d(d, h, ByteSize::mib(8)).unwrap();
        c.synchronize();
        let mm = c.timeline().mem_metrics();
        assert!(mm.faults_injected > 0, "no faults injected");
        assert!(mm.fault_retries > 0, "no retries recorded");
        assert!(!mm.fault_time.is_zero(), "T_fault must be nonzero");
        let totals = c.timeline().phase_totals();
        assert_eq!(totals.t_fault, mm.fault_time);
        let counts = c.fault_counts();
        assert!(counts.injected > 0 && counts.recovered > 0);
        // The GCM site fired, so the functional round-trip must still
        // deliver the bytes (recovery never loses data).
        let plan2 = FaultPlan::none().with_rate(FaultSite::GcmTagH2D, 1.0);
        let mut c2 = CudaContext::new(
            SimConfig::new(CcMode::On).with_fault_plan(plan2.with_max_per_site(1)),
        );
        let dev = c2.malloc_device(ByteSize::kib(4)).unwrap();
        let payload: Vec<u8> = (0..4096).map(|x| (x % 251) as u8).collect();
        c2.upload_bytes(dev, &payload).unwrap();
        assert_eq!(c2.download_bytes(dev, 4096).unwrap(), payload);
    }

    #[test]
    fn abort_policy_surfaces_typed_errors() {
        use hcc_types::{FaultPlan, FaultSite, RecoveryPolicy};
        let mk = |site: FaultSite| {
            SimConfig::new(CcMode::On)
                .with_fault_plan(FaultPlan::none().with_rate(site, 1.0))
                .with_recovery(RecoveryPolicy::Abort)
        };
        let mut c = CudaContext::new(mk(FaultSite::GcmTagH2D));
        let h = c
            .malloc_host(ByteSize::mib(1), HostMemKind::Pageable)
            .unwrap();
        let d = c.malloc_device(ByteSize::mib(1)).unwrap();
        assert!(matches!(
            c.memcpy_h2d(d, h, ByteSize::mib(1)),
            Err(RuntimeError::Integrity)
        ));
        let mut c = CudaContext::new(mk(FaultSite::BounceExhausted));
        let h = c
            .malloc_host(ByteSize::mib(1), HostMemKind::Pageable)
            .unwrap();
        let d = c.malloc_device(ByteSize::mib(1)).unwrap();
        assert!(matches!(
            c.memcpy_h2d(d, h, ByteSize::mib(1)),
            Err(RuntimeError::Bounce(_))
        ));
        let mut c = CudaContext::new(mk(FaultSite::RingDoorbell));
        let desc = KernelDesc::new(KernelId(0), SimDuration::micros(50));
        assert!(matches!(
            c.launch_kernel(&desc, c.default_stream()),
            Err(RuntimeError::Unrecoverable {
                site: FaultSite::RingDoorbell,
                ..
            })
        ));
        let mut c = CudaContext::new(mk(FaultSite::UvmMigration));
        let m = c.malloc_managed(ByteSize::mib(1)).unwrap();
        let desc = KernelDesc::new(KernelId(1), SimDuration::micros(50))
            .with_managed(ManagedAccess::all(m));
        assert!(matches!(
            c.launch_kernel(&desc, c.default_stream()),
            Err(RuntimeError::Uvm(_))
        ));
    }

    #[test]
    fn fault_runs_replay_deterministically() {
        use hcc_types::FaultPlan;
        let run = || {
            let plan = FaultPlan::uniform(11, 0.5).with_max_per_site(4);
            let mut c = CudaContext::new(
                SimConfig::new(CcMode::On)
                    .with_seed(9)
                    .with_fault_plan(plan),
            );
            let h = c
                .malloc_host(ByteSize::mib(4), HostMemKind::Pageable)
                .unwrap();
            let d = c.malloc_device(ByteSize::mib(4)).unwrap();
            c.memcpy_h2d(d, h, ByteSize::mib(4)).unwrap();
            let m = c.malloc_managed(ByteSize::mib(4)).unwrap();
            let desc = KernelDesc::new(KernelId(0), SimDuration::micros(200))
                .with_managed(ManagedAccess::all(m));
            for _ in 0..10 {
                c.launch_kernel(&desc, c.default_stream()).unwrap();
            }
            c.synchronize();
            c.into_timeline()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn metrics_plane_observes_without_perturbing() {
        let size = ByteSize::mib(16);
        let run = |metrics: bool| {
            let mut c = CudaContext::new(
                SimConfig::new(CcMode::On)
                    .with_seed(42)
                    .with_metrics(metrics),
            );
            let h = c.malloc_host(size, HostMemKind::Pageable).unwrap();
            let d = c.malloc_device(size).unwrap();
            c.memcpy_h2d(d, h, size).unwrap();
            let m = c.malloc_managed(ByteSize::mib(4)).unwrap();
            let desc = KernelDesc::new(KernelId(0), SimDuration::micros(300))
                .with_managed(ManagedAccess::all(m));
            for _ in 0..8 {
                c.launch_kernel(&desc, c.default_stream()).unwrap();
            }
            c.synchronize();
            let snap = c.metrics_snapshot();
            (c.into_timeline(), snap)
        };
        let (trace_off, snap_off) = run(false);
        let (trace_on, snap_on) = run(true);
        // Observation must never shift the simulation.
        assert_eq!(trace_off, trace_on);
        assert!(snap_off.is_none());
        let set = snap_on.expect("metrics enabled");
        // Every layer shows up in the snapshot.
        for name in [
            "gpu.compute.queue",
            "gpu.copy-d2d.queue",
            "gpu.ring.occupancy",
            "tee.bounce.occupancy",
            "tee.crypto.queue",
            "uvm.outstanding_faults",
            "runtime.launch_queue",
            "runtime.kernel_queue",
        ] {
            assert!(set.gauge_series(name).is_some(), "missing gauge {name}");
        }
        // Derived queue gauges integrate to the paper's phase totals.
        let lm = trace_on.launch_metrics();
        assert_eq!(
            set.gauge_integral("runtime.launch_queue").unwrap(),
            lm.total_lqt()
        );
        assert_eq!(
            set.gauge_integral("runtime.kernel_queue").unwrap(),
            lm.total_kqt()
        );
        assert_eq!(
            set.gauge_integral("runtime.kernel_active").unwrap(),
            lm.total_ket()
        );
        assert!(set.counter_total("gpu.copy-h2d.bytes").unwrap_or(0) > 0);
    }

    #[test]
    fn crypto_workers_speed_up_cc_transfers() {
        let size = ByteSize::mib(256);
        let run = |workers: u32| {
            let mut c = CudaContext::new(SimConfig::new(CcMode::On).with_crypto_workers(workers));
            let h = c.malloc_host(size, HostMemKind::Pageable).unwrap();
            let d = c.malloc_device(size).unwrap();
            c.memcpy_h2d(d, h, size).unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four.as_secs_f64() < one.as_secs_f64() * 0.5,
            "{four} vs {one}"
        );
    }
}
