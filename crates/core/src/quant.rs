//! The quantization advisor (Sec. VII-B): estimates how precision choices
//! (FP32 / AMP / FP16 / AWQ-int4) move a workload's transfer volume and
//! compute time, and whether they pay off under CC.

use hcc_types::{ByteSize, SimDuration};

/// Precision/quantization schemes the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit floats (the baseline).
    Fp32,
    /// Automatic mixed precision: tensor-core compute, FP32 transfers,
    /// extra cast kernels.
    Amp,
    /// Full FP16: halves both transfer volume and compute time.
    Fp16,
    /// Activation-aware 4-bit weight quantization (LLM weights only).
    Awq,
}

impl Precision {
    /// All schemes in the paper's order.
    pub const ALL: [Precision; 4] = [
        Precision::Fp32,
        Precision::Amp,
        Precision::Fp16,
        Precision::Awq,
    ];

    /// Multiplier on bytes transferred per step relative to FP32.
    pub fn transfer_factor(self) -> f64 {
        match self {
            Precision::Fp32 => 1.0,
            // AMP keeps FP32 master weights/inputs on the wire — the
            // paper's reason it does not cut CPU↔GPU traffic.
            Precision::Amp => 1.0,
            Precision::Fp16 => 0.5,
            // AWQ quantizes *resident* weights; the per-step activation
            // traffic is unchanged (its wins come from memory-bound
            // compute, not PCIe volume).
            Precision::Awq => 1.0,
        }
    }

    /// Multiplier on compute time relative to FP32 at a given batch
    /// size. AMP's cast overhead swamps its tensor-core gains at small
    /// batches (the paper's batch-64 regression) and wins at large ones.
    pub fn compute_factor(self, batch: u32) -> f64 {
        match self {
            Precision::Fp32 => 1.0,
            Precision::Amp => {
                if batch >= 512 {
                    0.62
                } else {
                    1.25
                }
            }
            Precision::Fp16 => {
                if batch >= 512 {
                    0.60
                } else {
                    0.85
                }
            }
            // Dequantization overhead: wins when memory-bound (small
            // batch), loses when compute-bound (large batch).
            Precision::Awq => {
                if batch >= 64 {
                    1.08
                } else {
                    0.50
                }
            }
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Precision::Fp32 => "FP32",
            Precision::Amp => "AMP",
            Precision::Fp16 => "FP16",
            Precision::Awq => "AWQ",
        };
        f.write_str(s)
    }
}

/// A per-step workload profile the advisor reasons over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepProfile {
    /// Bytes moved host↔device per step at FP32.
    pub bytes_per_step: ByteSize,
    /// GPU compute time per step at FP32.
    pub compute_per_step: SimDuration,
    /// Batch size.
    pub batch: u32,
    /// Effective transfer rate in the current mode (e.g. 3.03 GB/s CC).
    pub transfer_rate: hcc_types::Bandwidth,
}

/// The advisor's estimate for one precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantEstimate {
    /// Scheme evaluated.
    pub precision: Precision,
    /// Estimated step time.
    pub step_time: SimDuration,
    /// Speedup over FP32 in the same mode.
    pub speedup_vs_fp32: f64,
}

/// Recommends a precision for a step profile in a mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantizationAdvisor;

impl QuantizationAdvisor {
    /// Creates the advisor.
    pub fn new() -> Self {
        QuantizationAdvisor
    }

    /// Estimated step time for one precision (transfer + compute, no
    /// overlap — the conservative CC assumption).
    pub fn estimate(&self, profile: StepProfile, precision: Precision) -> QuantEstimate {
        let bytes =
            ByteSize::bytes((profile.bytes_per_step.as_f64() * precision.transfer_factor()) as u64);
        let transfer = profile.transfer_rate.time_for(bytes);
        let compute = profile
            .compute_per_step
            .scale(precision.compute_factor(profile.batch));
        let step_time = transfer + compute;
        let fp32 =
            profile.transfer_rate.time_for(profile.bytes_per_step) + profile.compute_per_step;
        QuantEstimate {
            precision,
            step_time,
            speedup_vs_fp32: fp32 / step_time,
        }
    }

    /// Evaluates all schemes and returns them best-first.
    pub fn rank(&self, profile: StepProfile) -> Vec<QuantEstimate> {
        let mut v: Vec<QuantEstimate> = Precision::ALL
            .iter()
            .map(|p| self.estimate(profile, *p))
            .collect();
        v.sort_by(|a, b| {
            b.speedup_vs_fp32
                .partial_cmp(&a.speedup_vs_fp32)
                .expect("finite")
        });
        v
    }
}

hcc_types::impl_to_json!(display: Precision);

hcc_types::impl_to_json!(StepProfile {
    bytes_per_step,
    compute_per_step,
    batch,
    transfer_rate,
});
hcc_types::impl_to_json!(QuantEstimate {
    precision,
    step_time,
    speedup_vs_fp32
});

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::Bandwidth;

    fn profile(batch: u32, rate_gbs: f64) -> StepProfile {
        StepProfile {
            bytes_per_step: ByteSize::mib(256),
            compute_per_step: SimDuration::millis(40),
            batch,
            transfer_rate: Bandwidth::gb_per_s(rate_gbs),
        }
    }

    #[test]
    fn fp16_halves_transfers_and_wins_under_cc() {
        let adv = QuantizationAdvisor::new();
        let est = adv.estimate(profile(1024, 3.03), Precision::Fp16);
        assert!(est.speedup_vs_fp32 > 1.3, "{}", est.speedup_vs_fp32);
    }

    #[test]
    fn amp_hurts_small_batches() {
        let adv = QuantizationAdvisor::new();
        let small = adv.estimate(profile(64, 3.03), Precision::Amp);
        assert!(small.speedup_vs_fp32 < 1.0, "{}", small.speedup_vs_fp32);
        let large = adv.estimate(profile(1024, 3.03), Precision::Amp);
        assert!(large.speedup_vs_fp32 > 1.0);
    }

    #[test]
    fn awq_wins_small_batch_loses_large_batch() {
        let adv = QuantizationAdvisor::new();
        // Memory-bound small-batch decode: AWQ's 4x weight shrink halves
        // compute time — a clear win over FP32.
        let small = adv.estimate(profile(8, 3.03), Precision::Awq);
        // Compute-bound large batch: dequant overhead flips the ordering
        // vs 16-bit (the paper's batch 64/128 observation).
        let large_awq = adv.estimate(profile(128, 3.03), Precision::Awq);
        let large_fp16 = adv.estimate(profile(128, 3.03), Precision::Fp16);
        assert!(small.speedup_vs_fp32 > 1.1, "{}", small.speedup_vs_fp32);
        assert!(large_fp16.speedup_vs_fp32 > large_awq.speedup_vs_fp32);
        assert!(large_awq.speedup_vs_fp32 < 1.0);
    }

    #[test]
    fn quantization_pays_more_under_cc() {
        let adv = QuantizationAdvisor::new();
        // Quantization's value grows with transfer cost, so the slow
        // encrypted CC rate benefits more than the base rate.
        let speedup = |gbs| {
            adv.estimate(profile(1024, gbs), Precision::Fp16)
                .speedup_vs_fp32
        };
        let ratio = speedup(3.03) / speedup(26.0);
        assert!(ratio > 1.05, "CC benefit ratio {ratio}");
    }

    #[test]
    fn rank_orders_by_speedup() {
        let adv = QuantizationAdvisor::new();
        let ranked = adv.rank(profile(1024, 3.03));
        assert_eq!(ranked.len(), 4);
        for pair in ranked.windows(2) {
            assert!(pair[0].speedup_vs_fp32 >= pair[1].speedup_vs_fp32);
        }
        // FP32 is the 1.0x reference, so it can never rank first here.
        assert_ne!(ranked[0].precision, Precision::Fp32);
    }
}
