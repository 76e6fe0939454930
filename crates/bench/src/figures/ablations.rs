//! DESIGN.md §6's ablations in virtual time: bounce-pool reuse, UVM
//! fault batching and prefetch, the transfer cipher, channel ring depth
//! and the Sec. VIII crypto workers, then the component paths no row of
//! `figures all` prints (launch, cold UVM access, alloc+free; the
//! 64 MiB copy is Fig. 4a's `64.0MiB` row). Each row is one
//! deterministic model computation that touches no engine, so
//! `tests/golden/ablations.txt` freezes the text and
//! `tests/docs_drift.rs` holds EXPERIMENTS.md's ablation table to it.
//! `figures all` leaves this figure out: it ablates the lab's design,
//! not the paper's evaluation.

use std::fmt::Write;

use hcc_crypto::{CryptoAlgorithm, SoftCryptoModel};
use hcc_gpu::{CommandProcessor, Gmmu, ManagedId};
use hcc_runtime::{CudaContext, KernelDesc, ManagedAccess, SimConfig};
use hcc_tee::{BounceBufferPool, TdContext};
use hcc_trace::KernelId;
use hcc_types::calib::{Calibration, GpuCalib, TdxCalib, UvmCalib};
use hcc_types::{Bandwidth, ByteSize, CcMode, CpuModel, SimDuration, SimTime};
use hcc_uvm::UvmDriver;

use super::Computed;
use crate::report;

/// The bounce reservation every pool row makes.
const RESERVATION: ByteSize = ByteSize::mib(4);
/// The UVM fault-batch sizes (pages) the figure sweeps, prefetch on.
pub const UVM_BATCHES: [u64; 3] = [8, 32, 128];
/// The channel ring depths the figure sweeps.
pub const RING_DEPTHS: [usize; 3] = [4, 32, 256];
/// Commands in the ring-depth burst, all submitted at time zero.
pub const BURST: u32 = 2000;
/// The crypto worker counts the figure sweeps.
const WORKERS: [u32; 4] = [1, 2, 4, 8];
/// Calls each mean-of component row times: launches after the warm-up
/// launch, or `cudaMalloc` + `cudaFree` pairs on one context. The calls
/// do not all cost the same, so the mean depends on the count and the
/// label says it.
pub const CALLS: u64 = 8;

/// The first and then the second reservation's cost on a fresh CC pool
/// of `capacity`, the first released before the second is made.
pub fn reservations(capacity: ByteSize) -> [SimDuration; 2] {
    let mut td = TdContext::new(CcMode::On, TdxCalib::default());
    let mut pool = BounceBufferPool::new(capacity);
    [(); 2].map(|()| {
        let reservation = pool.reserve(&mut td, RESERVATION).expect("fits the pool");
        pool.release(RESERVATION);
        reservation.cost
    })
}

/// Time to service a cold 64 MiB managed range with CC off.
pub fn uvm(batch_pages: u64, prefetch: bool) -> SimDuration {
    let calib = UvmCalib {
        batch_pages,
        prefetch,
        ..UvmCalib::default()
    };
    let mut gmmu = Gmmu::new();
    gmmu.register(ManagedId(0), ByteSize::mib(64), calib.page);
    let mut td = TdContext::new(CcMode::Off, TdxCalib::default());
    let pages = ByteSize::mib(64).pages(calib.page);
    let mut driver = UvmDriver::new(calib, CcMode::Off);
    let service = driver.service_access(&mut gmmu, &mut td, ManagedId(0), 0, pages);
    service.expect("a registered range").total_time
}

/// Time to seal 64 MiB for DMA with `alg` on one Emerald Rapids core.
pub fn cipher(alg: CryptoAlgorithm) -> SimDuration {
    SoftCryptoModel::new(CpuModel::EmeraldRapids).time_for(alg, ByteSize::mib(64))
}

/// Total ring wait (LQT) of a [`BURST`] on a CC ring of `depth` slots.
pub fn ring_wait(depth: usize) -> SimDuration {
    let calib = GpuCalib {
        ring_depth: depth,
        ..GpuCalib::default()
    };
    let mut cp = CommandProcessor::new(&calib, CcMode::On);
    for _ in 0..BURST {
        cp.submit(SimTime::ZERO);
    }
    cp.total_ring_wait()
}

/// One 1 GiB CC transfer: AES-GCM-128 sealing on `workers` CPU workers,
/// then the bounce copy, the DMA and the GPU decrypt as one pipeline.
pub fn pipeline(workers: u32) -> SimDuration {
    let pcie = Calibration::paper().pcie;
    let model = SoftCryptoModel::new(CpuModel::EmeraldRapids);
    let crypto = model.time_for_parallel(CryptoAlgorithm::AesGcm128, ByteSize::gib(1), workers);
    let rest = Bandwidth::serial_pipeline(&[pcie.bounce_copy, pcie.pinned_h2d, pcie.gpu_crypto]);
    crypto + rest.time_for(ByteSize::gib(1))
}

/// Mean seconds per 5 µs kernel launch over [`CALLS`] launches made
/// after a warm-up launch (KLO plus queuing).
pub fn launch(cc: CcMode) -> f64 {
    let mut ctx = CudaContext::new(SimConfig::new(cc));
    let desc = KernelDesc::new(KernelId(0), SimDuration::micros(5));
    ctx.launch_kernel(&desc, ctx.default_stream())
        .expect("warm-up");
    let t0 = ctx.now();
    for _ in 0..CALLS {
        ctx.launch_kernel(&desc, ctx.default_stream())
            .expect("launch");
    }
    (ctx.now() - t0).as_secs_f64() / CALLS as f64
}

/// A 10 µs kernel's first access to a cold 64 MiB managed range, to
/// its synchronize.
pub(crate) fn uvm_cold(cc: CcMode) -> SimDuration {
    let mut ctx = CudaContext::new(SimConfig::new(cc));
    let range = ctx.malloc_managed(ByteSize::mib(64)).expect("managed");
    let desc = KernelDesc::new(KernelId(0), SimDuration::micros(10))
        .with_managed(ManagedAccess::all(range));
    let t0 = ctx.now();
    ctx.launch_kernel(&desc, ctx.default_stream())
        .expect("launch");
    ctx.synchronize();
    ctx.now() - t0
}

/// Mean seconds per 16 MiB `cudaMalloc` + `cudaFree` pair over
/// [`CALLS`] pairs on one fresh context.
pub(crate) fn alloc_free(cc: CcMode) -> f64 {
    let mut ctx = CudaContext::new(SimConfig::new(cc));
    let t0 = ctx.now();
    for _ in 0..CALLS {
        let buffer = ctx.malloc_device(ByteSize::mib(16)).expect("alloc");
        ctx.free_device(buffer).expect("free");
    }
    (ctx.now() - t0).as_secs_f64() / CALLS as f64
}

/// `secs` in the unit that keeps it short: ns, µs, ms or s.
fn time(secs: f64) -> String {
    match secs {
        s if s < 1e-6 => format!("{:.0} ns", s * 1e9),
        s if s < 1e-3 => format!("{:.2} µs", s * 1e6),
        s if s < 1.0 => format!("{:.3} ms", s * 1e3),
        s => format!("{s:.3} s"),
    }
}

/// One `  label  value` row.
fn row(out: &mut String, label: &str, value: String) {
    let _ = writeln!(out, "  {label:<46} {value:>10}");
}

/// One virtual-time row.
fn timed(out: &mut String, label: &str, duration: SimDuration) {
    row(out, label, time(duration.as_secs_f64()));
}

/// The five ablation groups and the component paths.
pub fn render() -> Computed<String> {
    let mut out = report::section("Ablations — DESIGN.md §6 design choices (virtual time)");
    out.push_str("bounce pool, cost of one 4 MiB reservation (CC)\n");
    let [thrash, _] = reservations(ByteSize::mib(4));
    let [first, steady] = reservations(ByteSize::mib(64));
    timed(
        &mut out,
        "thrash: 4 MiB pool, reclaimed each transfer",
        thrash,
    );
    timed(&mut out, "warm 64 MiB pool, first reservation", first);
    timed(&mut out, "warm 64 MiB pool, steady state", steady);
    let ratio = first.as_secs_f64() / steady.as_secs_f64();
    row(&mut out, "first / steady state", format!("{ratio:.2}×"));

    out.push_str("UVM, service a cold 64 MiB managed range (CC off)\n");
    for batch in UVM_BATCHES {
        timed(
            &mut out,
            &format!("batch {batch} + prefetch"),
            uvm(batch, true),
        );
    }
    timed(&mut out, "batch 32, no prefetch", uvm(32, false));

    out.push_str("transfer cipher, seal 64 MiB on one Emerald Rapids core\n");
    for alg in CryptoAlgorithm::ALL {
        timed(&mut out, &alg.to_string(), cipher(alg));
    }

    let _ = writeln!(
        out,
        "ring depth, total ring wait of a {BURST}-command burst (CC)"
    );
    for depth in RING_DEPTHS {
        timed(&mut out, &format!("depth {depth}"), ring_wait(depth));
    }

    out.push_str("crypto workers, one 1 GiB CC transfer (AES-GCM-128 + copy + DMA)\n");
    for workers in WORKERS {
        let label = format!("{workers} worker{}", if workers == 1 { "" } else { "s" });
        timed(&mut out, &label, pipeline(workers));
    }
    let speedup = pipeline(1).as_secs_f64() / pipeline(8).as_secs_f64();
    row(&mut out, "1 → 8 workers speedup", format!("{speedup:.2}×"));

    out.push_str("component paths\n");
    for cc in CcMode::ALL {
        let label = format!("5 µs launch, mean of {CALLS} after warm-up, {cc}");
        row(&mut out, &label, time(launch(cc)));
    }
    for cc in CcMode::ALL {
        timed(
            &mut out,
            &format!("cold 64 MiB managed access, {cc}"),
            uvm_cold(cc),
        );
    }
    for cc in CcMode::ALL {
        let label = format!("16 MiB cudaMalloc + cudaFree, mean of {CALLS}, {cc}");
        row(&mut out, &label, time(alloc_free(cc)));
    }
    Computed::clean(out)
}

#[cfg(test)]
mod tests {
    use super::time;

    #[test]
    fn time_picks_units() {
        assert_eq!(time(220e-9), "220 ns");
        assert_eq!(time(2.5e-6), "2.50 µs");
        assert_eq!(time(0.012), "12.000 ms");
        assert_eq!(time(2.0), "2.000 s");
    }
}
