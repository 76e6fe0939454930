//! Cross-validation (test-only): drive a real [`CudaContext`] through CNN
//! training steps and check the event-level simulator agrees with the
//! analytic estimator of [`crate::cnn`]. This is the lab's internal
//! consistency proof — two independently built models of the same system
//! must tell the same story.

use hcc_core::Precision;
use hcc_runtime::{CudaContext, KernelDesc, SimConfig};
use hcc_trace::KernelId;
use hcc_types::{ByteSize, SimDuration};

use crate::cnn::{CnnModel, TrainConfig, IMAGE_BYTES};

/// Result of simulating training steps through the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SimulatedTraining {
    /// Steps simulated.
    pub(crate) steps: u32,
    /// Mean time per step (warm steps only; the first step pays
    /// first-launch costs and is excluded, as profilers do).
    pub(crate) step_time: SimDuration,
    /// Total time including the warm-up step.
    pub(crate) total: SimDuration,
}

/// Drives `steps + 1` training steps of `model` through the event-level
/// simulator (one warm-up step, then `steps` measured).
///
/// Each step uploads the batch, launches the model's kernel train
/// (compute split evenly across `kernels_per_step`), and synchronizes —
/// the copy-then-execute loop every framework runs.
///
/// # Panics
/// Panics if `steps` is zero or allocation fails (sizes here are far
/// below HBM capacity).
pub(crate) fn simulate_training_steps(
    model: &CnnModel,
    cfg: TrainConfig,
    steps: u32,
) -> SimulatedTraining {
    assert!(steps > 0, "need at least one measured step");
    let mut ctx = CudaContext::new(SimConfig::new(cfg.cc));
    let stream = ctx.default_stream();
    let batch_bytes = ByteSize::bytes(
        (IMAGE_BYTES.as_f64() * f64::from(cfg.batch) * cfg.precision.transfer_factor()) as u64,
    );
    let host = ctx
        .malloc_host(
            batch_bytes.max(ByteSize::kib(4)),
            hcc_types::HostMemKind::Pageable,
        )
        .expect("host staging buffer");
    let dev = ctx
        .malloc_device(batch_bytes.max(ByteSize::kib(4)))
        .expect("device batch buffer");

    let kernels = match cfg.precision {
        Precision::Amp => (f64::from(model.kernels_per_step) * 1.35) as u32,
        _ => model.kernels_per_step,
    };
    let compute_us = model.per_image_us
        * f64::from(cfg.batch)
        * (1.0 + 2.4 / f64::from(cfg.batch).sqrt())
        * cfg.precision.compute_factor(cfg.batch);
    let per_kernel = SimDuration::from_micros_f64(compute_us / f64::from(kernels));

    let mut step_starts = Vec::with_capacity(steps as usize + 2);
    for step in 0..=steps {
        step_starts.push(ctx.now());
        ctx.memcpy_h2d(dev, host, batch_bytes)
            .expect("batch upload");
        for k in 0..kernels {
            let desc = KernelDesc::new(KernelId(k), per_kernel);
            ctx.launch_kernel(&desc, stream).expect("layer kernel");
        }
        ctx.synchronize();
        let _ = step;
    }
    step_starts.push(ctx.now());
    // Mean over warm steps (skip step 0).
    let warm_total = *step_starts.last().expect("pushed") - step_starts[1];
    SimulatedTraining {
        steps,
        step_time: warm_total / u64::from(steps),
        total: ctx.now().saturating_since(hcc_types::SimTime::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnn::{CnnEstimator, MODELS};
    use hcc_types::CcMode;

    /// The event-level simulator and the analytic estimator must agree on
    /// the *CC throughput drop* — the quantity Fig. 13 reports — within a
    /// modest tolerance, for every model.
    ///
    /// The estimator's host/framework term (dataloader, Python) is zeroed
    /// here: the bare runtime loop executes no framework code, so the
    /// comparison isolates the GPU-side taxes both models share
    /// (encrypted transfer + hypercall-laden launches).
    #[test]
    fn simulated_and_analytic_cc_drops_agree() {
        let est = CnnEstimator::default().with_host_per_step(hcc_types::SimDuration::ZERO);
        for m in &MODELS {
            let sim_drop = {
                let base = simulate_training_steps(
                    m,
                    TrainConfig {
                        batch: 64,
                        precision: Precision::Fp32,
                        cc: CcMode::Off,
                    },
                    8,
                );
                let cc = simulate_training_steps(
                    m,
                    TrainConfig {
                        batch: 64,
                        precision: Precision::Fp32,
                        cc: CcMode::On,
                    },
                    8,
                );
                1.0 - base.step_time.as_secs_f64() / cc.step_time.as_secs_f64()
            };
            let ana_drop = {
                let base = est.estimate(
                    m,
                    TrainConfig {
                        batch: 64,
                        precision: Precision::Fp32,
                        cc: CcMode::Off,
                    },
                );
                let cc = est.estimate(
                    m,
                    TrainConfig {
                        batch: 64,
                        precision: Precision::Fp32,
                        cc: CcMode::On,
                    },
                );
                1.0 - base.step_time.as_secs_f64() / cc.step_time.as_secs_f64()
            };
            // Same direction, same order of magnitude.
            assert!(sim_drop > 0.0, "{}: simulator shows no CC drop", m.name);
            assert!(
                (sim_drop - ana_drop).abs() < 0.15,
                "{}: simulated drop {sim_drop:.3} vs analytic {ana_drop:.3}",
                m.name
            );
        }
    }

    #[test]
    fn warm_steps_are_cheaper_than_cold() {
        let m = &MODELS[1];
        let r = simulate_training_steps(
            m,
            TrainConfig {
                batch: 64,
                precision: Precision::Fp32,
                cc: CcMode::On,
            },
            4,
        );
        // Total includes the cold step; 5 steps at warm rate would be less.
        assert!(r.total > r.step_time * 5);
        assert_eq!(r.steps, 4);
    }

    #[test]
    fn larger_batches_raise_simulated_throughput() {
        let m = &MODELS[0];
        let tput = |batch: u32| {
            let r = simulate_training_steps(
                m,
                TrainConfig {
                    batch,
                    precision: Precision::Fp32,
                    cc: CcMode::On,
                },
                4,
            );
            f64::from(batch) / r.step_time.as_secs_f64()
        };
        assert!(tput(1024) > tput(64));
    }
}
