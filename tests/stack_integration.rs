//! Cross-crate integration tests: determinism, model validation, the
//! functional crypto path through the full runtime, and figure-harness
//! shape checks.

use hcc::prelude::*;
use hcc::workloads::{runner, suites};
use hcc_bench::figures::{fig01, fig03, fig04b, fig06, fig11, fig13, fig14, Computed};
use hcc_bench::lab::Lab;

/// A figure computation's payload, asserting every scenario contributed:
/// a partial population fails the test instead of passing on fewer rows.
fn complete<T>(computed: Computed<T>) -> T {
    assert!(computed.failures.is_empty(), "{:?}", computed.failures);
    computed.data
}

/// The trace's UVM totals, folded from `UvmFault` events that keep only
/// a page count and the page size, equal what the UVM driver counted
/// itself, for every managed-memory app and UVM variant in both modes.
#[test]
fn trace_uvm_totals_equal_the_driver_stats() {
    let specs: Vec<_> = suites::all()
        .into_iter()
        .filter(|s| s.uvm)
        .chain(
            suites::UVM_VARIANT_APPS
                .iter()
                .map(|n| suites::uvm_variant(n).expect("known variant")),
        )
        .collect();
    assert!(specs.len() >= 15, "{} UVM apps", specs.len());
    for spec in &specs {
        for cc in CcMode::ALL {
            let r = runner::run(spec, SimConfig::new(cc)).expect("run");
            let mm = r.timeline.mem_metrics();
            assert!(
                r.uvm.pages_migrated > 0,
                "{} [{cc}] migrated nothing",
                spec.name
            );
            assert_eq!(mm.uvm_pages, r.uvm.pages_migrated, "{} [{cc}]", spec.name);
            assert_eq!(mm.uvm_bytes, r.uvm.bytes_migrated, "{} [{cc}]", spec.name);
        }
    }
}

#[test]
fn identical_seeds_reproduce_identical_traces_across_the_suite() {
    for name in ["sc", "gemm", "dwt2d", "cnn"] {
        let spec = suites::by_name(name).expect("known app");
        for cc in CcMode::ALL {
            let a = runner::run(&spec, SimConfig::new(cc).with_seed(42)).expect("run");
            let b = runner::run(&spec, SimConfig::new(cc).with_seed(42)).expect("run");
            assert_eq!(a.timeline, b.timeline, "{name} [{cc}]");
        }
    }
}

#[test]
fn different_seeds_differ_but_preserve_structure() {
    let spec = suites::by_name("hotspot").expect("known app");
    let a = runner::run(&spec, SimConfig::new(CcMode::On).with_seed(1)).expect("run");
    let b = runner::run(&spec, SimConfig::new(CcMode::On).with_seed(2)).expect("run");
    assert_ne!(a.end, b.end);
    assert_eq!(
        a.timeline.launch_metrics().launch_count(),
        b.timeline.launch_metrics().launch_count()
    );
}

#[test]
fn model_explains_every_app_within_tolerance() {
    for row in complete(fig03::try_rows(&Lab::new(2))) {
        assert!(
            row.error < 0.15,
            "{} [{}]: model error {:.1}%",
            row.app,
            row.cc,
            row.error * 100.0
        );
    }
}

#[test]
fn overview_breakdown_ranks_scenarios() {
    let rows = complete(fig01::try_rows(&Lab::new(2)));
    assert_eq!(rows.len(), 3);
    // CC-on is slower than CC-off; CC+UVM kernel phase dwarfs both.
    assert!(rows[1].breakdown.span > rows[0].breakdown.span);
    assert!(rows[2].breakdown.kernel > rows[1].breakdown.kernel);
}

#[test]
fn fig04b_table_is_complete_and_ordered() {
    let entries = fig04b::entries(false);
    // 2 CPUs x 6 algorithms.
    assert_eq!(entries.len(), 12);
    for cpu in hcc::types::CpuModel::ALL {
        let ghash = entries
            .iter()
            .find(|e| e.cpu == cpu && e.alg == hcc::crypto::CryptoAlgorithm::Ghash)
            .expect("ghash entry");
        let gcm = entries
            .iter()
            .find(|e| e.cpu == cpu && e.alg == hcc::crypto::CryptoAlgorithm::AesGcm128)
            .expect("gcm entry");
        assert!(ghash.modeled_gbs > gcm.modeled_gbs);
    }
}

#[test]
fn fig06_ratios_track_the_paper() {
    let r = complete(fig06::try_ratios(&Lab::new(2), ByteSize::mib(64), 30));
    let targets = [5.72, 5.67, 10.54, 5.43, 3.35];
    for (got, want) in r.iter().zip(targets.iter()) {
        assert!(
            (got - want).abs() / want < 0.15,
            "management ratio {got:.2} vs paper {want}"
        );
    }
}

#[test]
fn fig11_cdfs_shift_right_under_cc() {
    let (klo, ket) = complete(fig11::try_klo_and_ket(&Lab::new(2)));
    // KLO distribution shifts right under CC...
    assert!(klo.cc.quantile(0.5) > klo.base.quantile(0.5));
    assert!(klo.cc.mean() > klo.base.mean());
    // ...while KET stays put (within 1%).
    let ket_ratio = ket.cc.mean() / ket.base.mean();
    assert!((ket_ratio - 1.0).abs() < 0.01, "KET mean ratio {ket_ratio}");
}

#[test]
fn fig13_grid_covers_models_and_shows_cc_drop() {
    let rows = fig13::rows();
    assert!(rows.len() >= 6 * 2 * 2 * 2);
    for m in hcc::ml::MODELS {
        let base = rows
            .iter()
            .find(|r| {
                r.model == m.name
                    && r.batch == 64
                    && r.cc == CcMode::Off
                    && r.precision == hcc::core::Precision::Fp32
            })
            .expect("base cell");
        let cc = rows
            .iter()
            .find(|r| {
                r.model == m.name
                    && r.batch == 64
                    && r.cc == CcMode::On
                    && r.precision == hcc::core::Precision::Fp32
            })
            .expect("cc cell");
        assert!(cc.throughput < base.throughput, "{}", m.name);
        assert!(cc.norm_time > base.norm_time, "{}", m.name);
    }
}

#[test]
fn fig14_grid_is_all_above_one() {
    for cell in fig14::grid() {
        assert!(
            cell.speedup > 1.0,
            "batch {} {:?}",
            cell.batch,
            cell.precision
        );
    }
}

#[test]
fn functional_cc_path_preserves_data_and_detects_growth() {
    let mut ctx = CudaContext::new(SimConfig::new(CcMode::On));
    let dev = ctx.malloc_device(ByteSize::kib(64)).expect("alloc");
    let payload: Vec<u8> = (0..65536u32).map(|i| (i % 251) as u8).collect();
    ctx.upload_bytes(dev, &payload).expect("upload");
    let back = ctx
        .download_bytes(dev, payload.len() as u64)
        .expect("download");
    assert_eq!(back, payload);
    // The TD paid real transition costs for this.
    assert!(ctx.td_counters().hypercalls > 0);
    assert!(ctx.td_counters().transition_time > SimDuration::ZERO);
}

#[test]
fn crypto_workers_restore_most_of_the_lost_bandwidth() {
    // The PipeLLM-style optimization: parallel transfer encryption.
    let size = ByteSize::mib(512);
    let measure = |workers: u32| {
        let mut ctx = CudaContext::new(SimConfig::new(CcMode::On).with_crypto_workers(workers));
        let h = ctx.malloc_host(size, HostMemKind::Pageable).expect("host");
        let d = ctx.malloc_device(size).expect("device");
        let t = ctx.memcpy_h2d(d, h, size).expect("copy");
        size.as_gb_f64() / t.as_secs_f64()
    };
    let one = measure(1);
    let eight = measure(8);
    assert!(one < 3.5, "stock CC bandwidth {one} GB/s");
    assert!(eight > 8.0, "8-worker CC bandwidth {eight} GB/s");
}
