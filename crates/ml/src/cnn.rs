//! CNN training under CC (Sec. VII-B, Fig. 13): six CIFAR-100 models,
//! batch sizes 64 and 1024, FP32 / AMP / FP16 precision.
//!
//! The model is analytic but component-faithful: a training step pays
//! input upload (at the mode's transfer rate), per-kernel launch costs
//! (with the CC hypercall tax), host-side framework/dataloader work (with
//! the TD syscall tax) and GPU compute (scaled by batch efficiency and
//! precision). Constants are chosen so the aggregate lands on the paper's
//! reported means: ~24 % throughput drop at batch 64, ~7.3 % at 1024,
//! and a further FP16 training-time cut near 27.7 %.

use hcc_core::Precision;
use hcc_types::calib::Calibration;
use hcc_types::{Bandwidth, ByteSize, CcMode, SimDuration};

/// One of the six evaluated CNNs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnnModel {
    /// Model name as in Fig. 13.
    pub name: &'static str,
    /// GPU compute per image at ideal utilization, FP32.
    pub per_image_us: f64,
    /// Kernel launches per training step (fwd + bwd + optimizer).
    pub kernels_per_step: u32,
    /// Parameter size (MiB) — reported for context.
    pub params_mib: u64,
}

/// The Fig. 13 model zoo.
pub const MODELS: [CnnModel; 6] = [
    CnnModel {
        name: "VGG16",
        per_image_us: 55.0,
        kernels_per_step: 120,
        params_mib: 528,
    },
    CnnModel {
        name: "ResNet50",
        per_image_us: 60.0,
        kernels_per_step: 180,
        params_mib: 98,
    },
    CnnModel {
        name: "MobileNetv2",
        per_image_us: 28.0,
        kernels_per_step: 160,
        params_mib: 14,
    },
    CnnModel {
        name: "SqueezeNet",
        per_image_us: 16.0,
        kernels_per_step: 90,
        params_mib: 5,
    },
    CnnModel {
        name: "Attention92",
        per_image_us: 85.0,
        kernels_per_step: 220,
        params_mib: 210,
    },
    CnnModel {
        name: "Inceptionv4",
        per_image_us: 95.0,
        kernels_per_step: 300,
        params_mib: 163,
    },
];

/// CIFAR-100 training-set size.
pub const DATASET_IMAGES: u64 = 50_000;
/// CIFAR-100 image payload (3x32x32 FP32).
pub const IMAGE_BYTES: ByteSize = ByteSize::bytes(3 * 32 * 32 * 4);
/// Epochs trained in the paper.
pub const EPOCHS: u64 = 200;

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Batch size (the paper uses 64 and 1024).
    pub batch: u32,
    /// Precision scheme.
    pub precision: Precision,
    /// Confidential-computing mode.
    pub cc: CcMode,
}

/// Estimated training performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainEstimate {
    /// Time per training step.
    pub step_time: SimDuration,
    /// Steps per epoch.
    pub steps_per_epoch: u64,
    /// Throughput in images per second.
    pub throughput: f64,
    /// Total training time for the full run.
    pub total_time: SimDuration,
}

/// The CNN training-time estimator.
#[derive(Debug, Clone)]
pub struct CnnEstimator {
    calib: Calibration,
    /// Host-side framework + dataloader work per step.
    host_per_step: SimDuration,
    /// Multiplier on host work inside a TD (syscall/dataloader tax).
    cc_host_mult: f64,
}

impl CnnEstimator {
    /// Creates an estimator with the paper calibration.
    pub(crate) fn new(calib: Calibration) -> Self {
        CnnEstimator {
            calib,
            host_per_step: SimDuration::from_micros_f64(1200.0),
            cc_host_mult: 2.2,
        }
    }

    /// Overrides the per-step host/framework cost (zero isolates the
    /// GPU-side CC taxes — used for cross-validation against the
    /// event-level simulator, which runs no Python).
    #[cfg(test)]
    pub(crate) fn with_host_per_step(mut self, host: SimDuration) -> Self {
        self.host_per_step = host;
        self
    }

    /// Effective input-upload rate for a mode (pageable staging vs the
    /// encrypted bounce path).
    fn transfer_rate(&self, cc: CcMode) -> Bandwidth {
        let p = &self.calib.pcie;
        match cc {
            CcMode::Off => Bandwidth::serial_pipeline(&[p.host_staging, p.pinned_h2d]),
            CcMode::On => Bandwidth::serial_pipeline(&[
                Bandwidth::gb_per_s(hcc_types::calib::paper::AES_GCM_EMR_GBS),
                p.bounce_copy,
                p.pinned_h2d,
                p.gpu_crypto,
            ]),
        }
    }

    /// Per-launch cost for a mode (steady-state KLO incl. hypercall tax).
    fn launch_cost(&self, cc: CcMode) -> SimDuration {
        let lc = &self.calib.launch;
        let trap = match cc {
            CcMode::Off => self.calib.tdx.vmexit,
            CcMode::On => self.calib.tdx.hypercall(),
        };
        lc.klo_base + trap.scale(lc.doorbell_trap_prob)
    }

    /// GPU efficiency factor: small batches under-utilize the device.
    fn batch_factor(batch: u32) -> f64 {
        1.0 + 2.4 / (f64::from(batch)).sqrt()
    }

    /// Estimates one step and the whole training run.
    pub fn estimate(&self, model: &CnnModel, cfg: TrainConfig) -> TrainEstimate {
        let batch = f64::from(cfg.batch);
        // Compute.
        let compute_us = model.per_image_us
            * batch
            * Self::batch_factor(cfg.batch)
            * cfg.precision.compute_factor(cfg.batch);
        let compute = SimDuration::from_micros_f64(compute_us);
        // Input upload.
        let step_bytes = ByteSize::bytes(
            (IMAGE_BYTES.as_f64() * batch * cfg.precision.transfer_factor()) as u64,
        );
        let transfer = self.transfer_rate(cfg.cc).time_for(step_bytes);
        // Launches (AMP adds cast kernels).
        let kernels = match cfg.precision {
            Precision::Amp => (f64::from(model.kernels_per_step) * 1.35) as u64,
            _ => u64::from(model.kernels_per_step),
        };
        let launches = self.launch_cost(cfg.cc) * kernels;
        // Host-side framework work.
        let host = match cfg.cc {
            CcMode::Off => self.host_per_step,
            CcMode::On => self.host_per_step.scale(self.cc_host_mult),
        };
        let ket_factor = match cfg.cc {
            CcMode::Off => 1.0,
            CcMode::On => self.calib.gpu.cc_ket_factor,
        };
        let step_time = compute.scale(ket_factor) + transfer + launches + host;

        let steps_per_epoch = DATASET_IMAGES.div_ceil(u64::from(cfg.batch));
        let throughput = batch / step_time.as_secs_f64();
        let total_time = step_time * (steps_per_epoch * EPOCHS);
        TrainEstimate {
            step_time,
            steps_per_epoch,
            throughput,
            total_time,
        }
    }

    /// Mean CC throughput drop (fraction) across the model zoo for a
    /// batch size and precision.
    pub fn mean_cc_drop(&self, batch: u32, precision: Precision) -> f64 {
        let drops: Vec<f64> = MODELS
            .iter()
            .map(|m| {
                let base = self.estimate(
                    m,
                    TrainConfig {
                        batch,
                        precision,
                        cc: CcMode::Off,
                    },
                );
                let cc = self.estimate(
                    m,
                    TrainConfig {
                        batch,
                        precision,
                        cc: CcMode::On,
                    },
                );
                1.0 - cc.throughput / base.throughput
            })
            .collect();
        drops.iter().sum::<f64>() / drops.len() as f64
    }
}

impl Default for CnnEstimator {
    fn default() -> Self {
        CnnEstimator::new(Calibration::paper())
    }
}

hcc_types::impl_to_json!(CnnModel {
    name,
    per_image_us,
    kernels_per_step,
    params_mib,
});
hcc_types::impl_to_json!(TrainConfig {
    batch,
    precision,
    cc
});
hcc_types::impl_to_json!(TrainEstimate {
    step_time,
    steps_per_epoch,
    throughput,
    total_time,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> CnnEstimator {
        CnnEstimator::default()
    }

    #[test]
    fn batch64_drop_matches_paper_mean() {
        let drop = est().mean_cc_drop(64, Precision::Fp32);
        assert!((0.15..=0.33).contains(&drop), "batch-64 mean drop {drop}");
    }

    #[test]
    fn batch1024_drop_shrinks_toward_paper_mean() {
        let e = est();
        let d64 = e.mean_cc_drop(64, Precision::Fp32);
        let d1024 = e.mean_cc_drop(1024, Precision::Fp32);
        assert!(d1024 < d64 * 0.6, "1024 drop {d1024} vs 64 drop {d64}");
        assert!(
            (0.03..=0.14).contains(&d1024),
            "batch-1024 mean drop {d1024}"
        );
    }

    #[test]
    fn per_model_drops_span_a_range() {
        let e = est();
        let drops: Vec<f64> = MODELS
            .iter()
            .map(|m| {
                let base = e.estimate(
                    m,
                    TrainConfig {
                        batch: 64,
                        precision: Precision::Fp32,
                        cc: CcMode::Off,
                    },
                );
                let cc = e.estimate(
                    m,
                    TrainConfig {
                        batch: 64,
                        precision: Precision::Fp32,
                        cc: CcMode::On,
                    },
                );
                1.0 - cc.throughput / base.throughput
            })
            .collect();
        let max = drops.iter().copied().fold(0.0, f64::max);
        let min = drops.iter().copied().fold(1.0, f64::min);
        assert!(max > 0.25, "max drop {max}");
        assert!(min < 0.20, "min drop {min}");
    }

    #[test]
    fn amp_hurts_small_batch_helps_large_batch() {
        let e = est();
        let m = &MODELS[1]; // ResNet50
        let fp32_64 = e.estimate(
            m,
            TrainConfig {
                batch: 64,
                precision: Precision::Fp32,
                cc: CcMode::On,
            },
        );
        let amp_64 = e.estimate(
            m,
            TrainConfig {
                batch: 64,
                precision: Precision::Amp,
                cc: CcMode::On,
            },
        );
        assert!(
            amp_64.throughput < fp32_64.throughput,
            "AMP must regress at batch 64"
        );
        let fp32_1024 = e.estimate(
            m,
            TrainConfig {
                batch: 1024,
                precision: Precision::Fp32,
                cc: CcMode::On,
            },
        );
        let amp_1024 = e.estimate(
            m,
            TrainConfig {
                batch: 1024,
                precision: Precision::Amp,
                cc: CcMode::On,
            },
        );
        assert!(
            amp_1024.throughput > fp32_1024.throughput,
            "AMP must help at batch 1024"
        );
    }

    #[test]
    fn fp16_cuts_training_time_at_large_batch() {
        let e = est();
        let cuts: Vec<f64> = MODELS
            .iter()
            .map(|m| {
                let fp32 = e.estimate(
                    m,
                    TrainConfig {
                        batch: 1024,
                        precision: Precision::Fp32,
                        cc: CcMode::On,
                    },
                );
                let fp16 = e.estimate(
                    m,
                    TrainConfig {
                        batch: 1024,
                        precision: Precision::Fp16,
                        cc: CcMode::On,
                    },
                );
                1.0 - fp16.total_time.as_secs_f64() / fp32.total_time.as_secs_f64()
            })
            .collect();
        let mean = cuts.iter().sum::<f64>() / cuts.len() as f64;
        assert!((0.18..=0.40).contains(&mean), "FP16 mean time cut {mean}");
    }

    #[test]
    fn training_time_scales_with_epochs_and_dataset() {
        let e = est();
        let m = &MODELS[0];
        let r = e.estimate(
            m,
            TrainConfig {
                batch: 64,
                precision: Precision::Fp32,
                cc: CcMode::Off,
            },
        );
        assert_eq!(r.steps_per_epoch, DATASET_IMAGES.div_ceil(64));
        let expected = r.step_time * (r.steps_per_epoch * EPOCHS);
        assert_eq!(r.total_time, expected);
        assert!(r.throughput > 1000.0, "CIFAR throughput {}", r.throughput);
    }
}
