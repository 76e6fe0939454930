//! End-to-end reproduction checks: every published observation (1–9) is
//! regenerated from the full stack and scored with the predicates in
//! `hcc_core::observations`.

use hcc::core::observations as obs;
use hcc::ml::cnn::CnnEstimator;
use hcc::ml::llm::{Backend, LlmConfig, LlmEstimator, LlmPrecision};
use hcc::trace::geomean;
use hcc::types::calib::paper;
use hcc::types::{ByteSize, CcMode, CpuModel, HostMemKind, SimDuration};
use hcc_bench::figures::{fig04a, fig05, fig07, fig09, fig12, Computed};

/// A figure computation's payload, asserting every scenario contributed:
/// a partial population fails the test instead of passing on fewer rows.
fn complete<T>(computed: Computed<T>) -> T {
    assert!(computed.failures.is_empty(), "{:?}", computed.failures);
    computed.data
}

#[test]
fn observation_1_bandwidth_collapse_and_pinned_demotion() {
    let pts = complete(fig04a::try_series());
    let check = obs::obs1_bandwidth(
        fig04a::peak(&pts, CcMode::Off, HostMemKind::Pinned),
        fig04a::peak(&pts, CcMode::Off, HostMemKind::Pageable),
        fig04a::peak(&pts, CcMode::On, HostMemKind::Pinned),
        fig04a::peak(&pts, CcMode::On, HostMemKind::Pageable),
    );
    assert!(check.holds, "{check}");
    // CC peak must land near the published 3.03 GB/s.
    let cc_peak = fig04a::peak(&pts, CcMode::On, HostMemKind::Pinned);
    assert!(
        (cc_peak - paper::CC_PEAK_H2D_GBS).abs() < 0.4,
        "cc peak {cc_peak} GB/s"
    );
}

#[test]
fn observation_2_crypto_cannot_feed_the_link() {
    let emr = hcc::crypto::SoftCryptoModel::new(CpuModel::EmeraldRapids);
    let gcm = emr
        .throughput(hcc::crypto::CryptoAlgorithm::AesGcm128)
        .as_gb_per_s();
    let ghash = emr
        .throughput(hcc::crypto::CryptoAlgorithm::Ghash)
        .as_gb_per_s();
    let pts = complete(fig04a::try_series());
    let base_pcie = fig04a::peak(&pts, CcMode::Off, HostMemKind::Pinned);
    let check = obs::obs2_crypto(gcm, ghash, base_pcie);
    assert!(check.holds, "{check}");
}

#[test]
fn observation_3_copy_slowdowns() {
    let rows = complete(fig05::try_rows());
    let ratios: Vec<f64> = rows.iter().map(fig05::Row::slowdown).collect();
    let check = obs::obs3_copy(&ratios);
    assert!(check.holds, "{check}");
}

#[test]
fn observation_4_launch_path_slowdowns() {
    let rows = complete(fig07::try_rows());
    let (klo, lqt, kqt) = fig07::means(&rows);
    let check = obs::obs4_launch(klo, lqt, kqt);
    assert!(check.holds, "{check}");
}

#[test]
fn observation_5_ket_split() {
    let rows = complete(fig09::try_rows());
    let nonuvm: Vec<f64> = rows.iter().map(fig09::Row::nonuvm_ratio).collect();
    let uvm_cc: Vec<f64> = rows.iter().map(fig09::Row::uvm_cc_slowdown).collect();
    let check = obs::obs5_ket(hcc::trace::mean_ratio(&nonuvm), geomean(&uvm_cc));
    assert!(check.holds, "{check}");
    // The base-UVM slowdown should sit near the paper's 5.29x.
    let uvm_base: Vec<f64> = rows.iter().map(fig09::Row::uvm_base_slowdown).collect();
    let mean = hcc::trace::mean_ratio(&uvm_base);
    assert!(
        (paper::UVM_BASE_SLOWDOWN * 0.5..=paper::UVM_BASE_SLOWDOWN * 1.6).contains(&mean),
        "base UVM mean {mean}"
    );
}

#[test]
fn observation_6_klr_determines_sensitivity() {
    let points = complete(fig07::try_klr_points());
    let check = obs::obs6_klr(&points);
    assert!(check.holds, "{check} — points {points:?}");
}

#[test]
fn observation_7_fusion_tradeoff() {
    let recs = fig12::launch_train(CcMode::On, 100, 100);
    let steady: SimDuration = recs[10..90].iter().map(|r| r.klo).sum::<SimDuration>() / 80;
    let first_ratio = recs[0].klo / steady;

    // Short kernels: splitting far past the optimum makes the run
    // launch-bound, so the maximal split must lose to the best point by
    // a clear margin while KLO and LQT totals move in opposite ways.
    let sweep = fig12::fusion_sweep(CcMode::On, SimDuration::millis(5), 1024);
    let spans: Vec<_> = sweep.iter().map(|p| p.span).collect();
    let min_span = *spans.iter().min().expect("non-empty");
    let last = *spans.last().expect("non-empty");
    let over_splitting_hurts = last.as_secs_f64() > min_span.as_secs_f64() * 1.2;
    let klo_rises = sweep.last().expect("non-empty").total_klo > sweep[0].total_klo;
    let tradeoff = over_splitting_hurts && klo_rises;

    let check = obs::obs7_fusion(first_ratio, tradeoff);
    assert!(check.holds, "{check} — spans {spans:?}");
}

#[test]
fn observation_8_overlap() {
    let total = ByteSize::mib(512);
    let short = SimDuration::millis(1);
    let long = SimDuration::millis(100);
    let base = fig12::overlap_series(CcMode::Off, total, short, &[64])[0]
        .1
        .speedup();
    let cc_short = fig12::overlap_series(CcMode::On, total, short, &[64])[0]
        .1
        .speedup();
    let cc_long = fig12::overlap_series(CcMode::On, total, long, &[64])[0]
        .1
        .speedup();
    let check = obs::obs8_overlap(base, cc_short, cc_long);
    assert!(check.holds, "{check}");
}

#[test]
fn observation_9_quantization() {
    // FP16 training-time cut at batch 1024 under CC.
    let est = CnnEstimator::default();
    let cuts: Vec<f64> = hcc::ml::MODELS
        .iter()
        .map(|m| {
            let fp32 = est.estimate(
                m,
                hcc::ml::TrainConfig {
                    batch: 1024,
                    precision: hcc::core::Precision::Fp32,
                    cc: CcMode::On,
                },
            );
            let fp16 = est.estimate(
                m,
                hcc::ml::TrainConfig {
                    batch: 1024,
                    precision: hcc::core::Precision::Fp16,
                    cc: CcMode::On,
                },
            );
            (1.0 - fp16.total_time.as_secs_f64() / fp32.total_time.as_secs_f64()) * 100.0
        })
        .collect();
    let fp16_cut = cuts.iter().sum::<f64>() / cuts.len() as f64;

    // vLLM vs HF and the AWQ/BF16 crossover.
    let llm = LlmEstimator::default();
    let mut vllm_beats_hf = true;
    for batch in hcc::ml::FIG14_BATCHES {
        for cc in CcMode::ALL {
            for precision in [LlmPrecision::Bf16, LlmPrecision::Awq] {
                if llm.vllm_speedup(precision, batch, cc) <= 1.0 {
                    vllm_beats_hf = false;
                }
            }
        }
    }
    let t = |precision, batch, cc| {
        llm.throughput(LlmConfig {
            backend: Backend::Vllm,
            precision,
            batch,
            cc,
        })
    };
    let awq_small = t(LlmPrecision::Awq, 4, CcMode::On) > t(LlmPrecision::Bf16, 4, CcMode::On);
    let bf16_large = t(LlmPrecision::Bf16, 128, CcMode::On) > t(LlmPrecision::Awq, 128, CcMode::On);

    let check = obs::obs9_quant(fp16_cut, vllm_beats_hf, awq_small, bf16_large);
    assert!(check.holds, "{check}");
}
