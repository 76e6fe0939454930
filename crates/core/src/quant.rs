//! Precision choices (Sec. VII-B): how FP32 / AMP / FP16 / AWQ-int4 move
//! a workload's transfer volume and compute time, the factors the CNN
//! estimator's Fig. 13 rows apply.

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

hcc_types::impl_to_json!(display: Precision);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_halves_transfers_and_wins_under_cc() {
        assert_eq!(Precision::Fp16.transfer_factor(), 0.5);
        for batch in [64, 1024] {
            assert!(Precision::Fp16.compute_factor(batch) < 1.0, "batch {batch}");
        }
    }

    #[test]
    fn amp_hurts_small_batches() {
        // AMP keeps FP32 on the wire, so only compute moves: its casts
        // cost more than tensor cores save at batch 64, not at 1024.
        assert_eq!(Precision::Amp.transfer_factor(), 1.0);
        assert!(Precision::Amp.compute_factor(64) > 1.0);
        assert!(Precision::Amp.compute_factor(1024) < 1.0);
    }

    #[test]
    fn awq_wins_small_batch_loses_large_batch() {
        // Memory-bound small-batch decode: AWQ's weight shrink halves
        // compute time. Compute-bound large batch: dequant overhead flips
        // the ordering vs 16-bit (the paper's batch 64/128 observation).
        assert!(Precision::Awq.compute_factor(8) < 1.0);
        assert!(Precision::Awq.compute_factor(128) > 1.0);
        assert!(Precision::Awq.compute_factor(128) > Precision::Fp16.compute_factor(128));
    }
}
