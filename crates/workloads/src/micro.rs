//! Microbenchmarks of Sec. VII-A: the PTX-`nanosleep` fixed-duration
//! kernel (Listing 1), back-to-back launch trains, the fusion sweep, and
//! the stream-overlap harness (Listing 2).

use hcc_runtime::{CudaContext, KernelDesc, RuntimeError, SimConfig};
use hcc_trace::{KernelId, LaunchRecord};
use hcc_types::{ByteSize, CopyKind, HostMemKind, SimDuration};

/// Builds the Listing-1 microbenchmark kernel: a kernel that runs for a
/// fixed `duration` regardless of input (PTX `nanosleep` loop).
pub(crate) fn sleep_kernel(id: u32, duration: SimDuration) -> KernelDesc {
    KernelDesc::new(KernelId(id), duration)
}

/// Fig. 12a: launches kernel `K0` `n0` times, then `K1` `n1` times,
/// back-to-back, and returns the per-launch records (KLO per launch
/// index). The first launch of each kernel pays image upload.
///
/// # Panics
/// Panics if the runtime rejects a launch (cannot happen with valid
/// configs).
pub fn run_back_to_back(cfg: SimConfig, n0: u32, n1: u32, ket: SimDuration) -> Vec<LaunchRecord> {
    let mut ctx = CudaContext::new(cfg);
    let stream = ctx.default_stream();
    let k0 = sleep_kernel(0, ket);
    let k1 = sleep_kernel(1, ket);
    for _ in 0..n0 {
        ctx.launch_kernel(&k0, stream).expect("valid launch");
    }
    for _ in 0..n1 {
        ctx.launch_kernel(&k1, stream).expect("valid launch");
    }
    ctx.synchronize();
    ctx.timeline().launch_metrics().launches
}

/// One point of the Fig. 12b fusion sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionPoint {
    /// Number of launches the fixed total KET was split into.
    pub launches: u32,
    /// Σ KLO across the launches.
    pub total_klo: SimDuration,
    /// Σ LQT across the launches.
    pub total_lqt: SimDuration,
    /// End-to-end completion time.
    pub span: SimDuration,
}

/// Fig. 12b: keeps total kernel execution time constant (`total_ket`) and
/// splits it across `launches` equal kernels, measuring how KLO and LQT
/// move as fusion level changes.
///
/// # Panics
/// Panics if `launches` is zero.
pub fn run_fusion_sweep(cfg: SimConfig, total_ket: SimDuration, launches: u32) -> FusionPoint {
    assert!(launches > 0, "need at least one launch");
    let mut ctx = CudaContext::new(cfg);
    let stream = ctx.default_stream();
    let per = total_ket / u64::from(launches);
    let desc = sleep_kernel(0, per);
    for _ in 0..launches {
        ctx.launch_kernel(&desc, stream).expect("valid launch");
    }
    ctx.synchronize();
    let span = ctx.now() - hcc_types::SimTime::ZERO;
    let lm = ctx.timeline().launch_metrics();
    FusionPoint {
        launches,
        total_klo: lm.total_klo(),
        total_lqt: lm.total_lqt(),
        span,
    }
}

/// Result of one Fig. 12c overlap experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapResult {
    /// End-to-end time with streams + async copies.
    pub overlapped: SimDuration,
    /// End-to-end time of the same copies and kernels executed serially
    /// (blocking copies, one stream) — the no-overlap reference.
    pub serial: SimDuration,
}

impl OverlapResult {
    /// Speedup the overlapping achieved over serial execution (≥ ~1).
    pub fn speedup(&self) -> f64 {
        self.serial / self.overlapped
    }
}

/// Fig. 12c: the Listing-2 overlap harness. Splits `total_bytes` across
/// `streams`; each stream issues an async H2D chunk followed by an
/// independent kernel of `ket`. Also runs the identical operation list
/// serially (blocking copies on one stream) as the no-overlap baseline.
///
/// # Errors
/// Returns [`RuntimeError`] if allocation fails (e.g. exceeding HBM).
///
/// # Panics
/// Panics if `streams` is zero.
pub fn run_overlap(
    cfg: SimConfig,
    streams: u32,
    total_bytes: ByteSize,
    ket: SimDuration,
) -> Result<OverlapResult, RuntimeError> {
    assert!(streams > 0, "need at least one stream");
    let chunk = total_bytes / u64::from(streams);

    // Overlapped: one stream per chunk, async copy + kernel.
    let overlapped = {
        let mut ctx = CudaContext::new(cfg.clone());
        let host = ctx.malloc_host(total_bytes, HostMemKind::Pinned)?;
        let dev = ctx.malloc_device(total_bytes)?;
        let ids: Vec<_> = (0..streams).map(|_| ctx.create_stream()).collect();
        let t0 = ctx.now();
        for (i, s) in ids.iter().enumerate() {
            ctx.memcpy_async(dev, host, chunk, CopyKind::H2D, *s)?;
            ctx.launch_kernel(&sleep_kernel(i as u32, ket), *s)?;
        }
        ctx.synchronize();
        ctx.now() - t0
    };

    // Serial reference: same chunks and kernels, blocking, one stream.
    let serial = {
        let mut ctx = CudaContext::new(cfg);
        let host = ctx.malloc_host(total_bytes, HostMemKind::Pinned)?;
        let dev = ctx.malloc_device(total_bytes)?;
        let stream = ctx.default_stream();
        let t0 = ctx.now();
        for i in 0..streams {
            ctx.memcpy_h2d(dev, host, chunk)?;
            ctx.launch_kernel(&sleep_kernel(i, ket), stream)?;
            ctx.synchronize();
        }
        ctx.now() - t0
    };

    Ok(OverlapResult { overlapped, serial })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::CcMode;

    #[test]
    fn first_launches_spike() {
        let recs = run_back_to_back(SimConfig::new(CcMode::On), 100, 100, SimDuration::millis(1));
        assert_eq!(recs.len(), 200);
        // First launch of each kernel is the expensive one.
        assert!(recs[0].first);
        assert!(recs[100].first);
        let steady: SimDuration = recs[10..90].iter().map(|r| r.klo).sum::<SimDuration>() / 80;
        assert!(recs[0].klo > steady * 5, "{} vs {steady}", recs[0].klo);
        assert!(recs[100].klo > steady * 5);
    }

    #[test]
    fn fusion_sweep_tradeoff() {
        let total = SimDuration::millis(100);
        let cfg = || SimConfig::new(CcMode::On);
        let few = run_fusion_sweep(cfg(), total, 1);
        let some = run_fusion_sweep(cfg(), total, 16);
        let many = run_fusion_sweep(cfg(), total, 256);
        // KLO total grows with launch count.
        assert!(many.total_klo > some.total_klo);
        assert!(some.total_klo > few.total_klo);
        // Fully-fused pays the single first-launch upload; heavily split
        // pays per-launch overheads. The sweep must not be monotone in
        // span: a middle point beats at least one extreme.
        let best_mid = some.span.min(few.span).min(many.span);
        assert!(best_mid <= some.span);
    }

    #[test]
    fn overlap_improves_with_streams_in_base_mode() {
        let total = ByteSize::mib(512);
        let speedup = |streams: u32| {
            run_overlap(
                SimConfig::new(CcMode::Off),
                streams,
                total,
                SimDuration::millis(100),
            )
            .unwrap()
            .speedup()
        };
        let one = speedup(1);
        let many = speedup(16);
        assert!(many > one * 2.0, "16 streams {many}x vs 1 stream {one}x");
    }

    #[test]
    fn overlap_gains_limited_under_cc() {
        // Observation 8: with short kernels the encrypted transfer
        // dominates; the single CPU crypto engine serializes every
        // stream's copy, so CC gains far less from overlap than base.
        let total = ByteSize::mib(512);
        let ket = SimDuration::millis(1); // short KET: copy-bound
        let gain = |cc: CcMode| {
            run_overlap(SimConfig::new(cc), 64, total, ket)
                .unwrap()
                .speedup()
        };
        let base_gain = gain(CcMode::Off);
        let cc_gain = gain(CcMode::On);
        assert!(
            cc_gain < base_gain * 0.6,
            "cc gain {cc_gain} should trail base gain {base_gain}"
        );
    }

    #[test]
    fn longer_ket_improves_cc_overlap() {
        // Observation 8: raising the compute-to-IO ratio hides the
        // encrypted transfer.
        let total = ByteSize::mib(512);
        let speedup = |ket_ms: u64| {
            run_overlap(
                SimConfig::new(CcMode::On),
                16,
                total,
                SimDuration::millis(ket_ms),
            )
            .unwrap()
            .speedup()
        };
        assert!(speedup(100) > speedup(1) * 2.0);
    }
}
