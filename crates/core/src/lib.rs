//! # hcc-core
//!
//! The paper's primary contribution, as a library:
//!
//! * [`PerfModel`] — the Fig. 3 performance model
//!   `P = (1−α)·T_mem + Σ(KLO+LQT) + (1−β)·Σ(KET+KQT) + T_other`,
//!   with fitting of `α`/`β` from recorded traces,
//! * [`PhaseBreakdown`] / [`ModeComparison`] — Fig. 1-style end-to-end
//!   attribution and CC-vs-base phase slowdowns,
//! * [`KlrAnalysis`] — the Kernel-to-Launch-Ratio case study
//!   (Observation 6),
//! * [`FusionPlanner`] / [`OverlapPlanner`] — the Sec. VII-A
//!   optimizations as analytic planners,
//! * [`Precision`] — the Sec. VII-B precision trade-offs,
//! * [`observations`] — the nine published observations as checkable
//!   predicates the test suite scores the reproduction against.
//!
//! ```
//! use hcc_core::PerfModel;
//! use hcc_runtime::{CudaContext, KernelDesc, SimConfig};
//! use hcc_trace::KernelId;
//! use hcc_types::{CcMode, SimDuration};
//!
//! let mut ctx = CudaContext::new(SimConfig::new(CcMode::On));
//! let desc = KernelDesc::new(KernelId(0), SimDuration::millis(1));
//! for _ in 0..10 {
//!     ctx.launch_kernel(&desc, ctx.default_stream()).unwrap();
//! }
//! ctx.synchronize();
//! let fitted = PerfModel::fit(ctx.timeline());
//! assert!(fitted.error() < 0.15);
//! ```

mod breakdown;
mod fusion;
mod klr;
mod model;
pub mod observations;
mod overlap;
mod quant;
mod report;

pub use breakdown::{ModeComparison, PhaseBreakdown};
pub use fusion::{FusionEstimate, FusionPlan, FusionPlanner};
pub use klr::{KlrAnalysis, KlrClass, KLR_THRESHOLD};
pub use model::{FittedModel, PerfModel};
pub use observations::ObservationCheck;
pub use overlap::{OverlapEstimate, OverlapPlan, OverlapPlanner};
pub use quant::Precision;
pub use report::{CcReport, Recommendation};

#[cfg(test)]
mod model_vs_simulator {
    use super::*;
    use hcc_runtime::SimConfig;
    use hcc_types::CcMode;
    use hcc_workloads::{runner, suites};

    /// The model must explain the simulator's end-to-end times for
    /// serial copy-then-execute apps: fitted error stays small, and the
    /// serial (α=β=0) prediction is an upper bound on the observed span
    /// modulo queueing estimation noise.
    #[test]
    fn fitted_model_explains_standard_apps() {
        for name in ["gemm", "hotspot", "3dconv", "sc", "2mm"] {
            let spec = suites::by_name(name).expect("known app");
            for cc in CcMode::ALL {
                let r = runner::run(&spec, SimConfig::new(cc)).unwrap();
                let fitted = PerfModel::fit(&r.timeline);
                assert!(
                    fitted.error() < 0.12,
                    "{name} [{cc}]: fitted error {:.3}",
                    fitted.error()
                );
            }
        }
    }

    #[test]
    fn serial_prediction_upper_bounds_span_for_serial_apps() {
        let spec = suites::by_name("gemm").unwrap();
        let r = runner::run(&spec, SimConfig::new(CcMode::On)).unwrap();
        let phases = r.timeline.phase_totals();
        let serial = phases.t_mem + phases.t_launch + phases.t_kernel + phases.t_other;
        // gemm is fully serial (one kernel, blocking copies): the serial
        // sum must land close to the observed span from above-ish.
        let ratio = serial / phases.span;
        assert!((0.9..=1.15).contains(&ratio), "serial/span {ratio}");
    }

    #[test]
    fn klr_separates_sc_from_2mm() {
        let low = {
            let r =
                runner::run(&suites::by_name("sc").unwrap(), SimConfig::new(CcMode::Off)).unwrap();
            KlrAnalysis::of(&r.timeline.launch_metrics())
        };
        let high = {
            let r = runner::run(
                &suites::by_name("2mm").unwrap(),
                SimConfig::new(CcMode::Off),
            )
            .unwrap();
            KlrAnalysis::of(&r.timeline.launch_metrics())
        };
        assert_eq!(low.class, KlrClass::Low, "sc klr {}", low.klr);
        assert_eq!(high.class, KlrClass::High, "2mm klr {}", high.klr);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hcc_check::strategy::{u64s, u8s, vecs};
    use hcc_check::{ensure, forall, Config};
    use hcc_runtime::{CudaContext, KernelDesc, SimConfig};
    use hcc_trace::KernelId;
    use hcc_types::{ByteSize, CcMode, HostMemKind, SimDuration};

    /// Runs a random op mix through the simulator and returns its trace.
    fn random_timeline(ops: &[u8], seed: u64, cc: CcMode) -> hcc_trace::Timeline {
        let mut ctx = CudaContext::new(SimConfig::new(cc).with_seed(seed));
        let size = ByteSize::mib(4);
        let h = ctx.malloc_host(size, HostMemKind::Pageable).unwrap();
        let d = ctx.malloc_device(size).unwrap();
        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => {
                    ctx.memcpy_h2d(d, h, size).unwrap();
                }
                1 => {
                    ctx.memcpy_d2h(h, d, size).unwrap();
                }
                _ => {
                    ctx.launch_kernel(
                        &KernelDesc::new(KernelId(i as u32), SimDuration::micros(40)),
                        ctx.default_stream(),
                    )
                    .unwrap();
                }
            }
        }
        ctx.synchronize();
        ctx.timeline().clone()
    }

    /// Fitted overlap factors are probabilities: `0 <= alpha, beta <= 1`
    /// for any trace the simulator can produce, in either mode.
    #[test]
    fn fitted_overlap_factors_are_bounded() {
        forall!(
            Config::new(0xC0DE_0001).with_cases(24),
            (ops, seed) in (vecs(u8s(0..3), 1..24), u64s(0..u64::MAX)) => {
                for cc in CcMode::ALL {
                    let tl = random_timeline(&ops, seed, cc);
                    let fitted = PerfModel::fit(&tl);
                    let (a, b) = (fitted.model.alpha, fitted.model.beta);
                    ensure!((0.0..=1.0).contains(&a), "alpha out of bounds: {a}");
                    ensure!((0.0..=1.0).contains(&b), "beta out of bounds: {b}");
                }
            }
        );
    }

    /// The serial model (`alpha = beta = 0`) predicts exactly the sum of
    /// the four phase totals, and the breakdown's shares partition that
    /// sum: Fig. 3's decomposition loses no time.
    #[test]
    fn breakdown_sums_to_total() {
        forall!(
            Config::new(0xC0DE_0002).with_cases(24),
            (ops, seed) in (vecs(u8s(0..3), 1..24), u64s(0..u64::MAX)) => {
                let tl = random_timeline(&ops, seed, CcMode::On);
                let phases = tl.phase_totals();
                let serial = PerfModel {
                    t_mem: phases.t_mem,
                    t_launch: phases.t_launch,
                    t_kernel: phases.t_kernel,
                    t_other: phases.t_other,
                    alpha: 0.0,
                    beta: 0.0,
                }
                .predict();
                let sum = phases.t_mem + phases.t_launch + phases.t_kernel + phases.t_other;
                // Scaling by (1 - 0.0) must be lossless nanosecond-wise.
                let drift = serial.saturating_sub(sum).max(sum.saturating_sub(serial));
                ensure!(
                    drift <= SimDuration::from_nanos(4),
                    "serial prediction {serial} != phase sum {sum}"
                );
                let shares = PhaseBreakdown::from_timeline(&tl).shares();
                let share_sum: f64 = shares.iter().sum();
                ensure!(
                    (share_sum - 1.0).abs() < 1e-9 || share_sum == 0.0,
                    "shares sum to {share_sum}"
                );
                ensure!(shares.iter().all(|s| (0.0..=1.0).contains(s)));
            }
        );
    }

    /// Fitting is exact whenever beta's clamp does not engage: the fitted
    /// model reproduces the observed span.
    #[test]
    fn fit_reproduces_span_within_clamp() {
        forall!(
            Config::new(0xC0DE_0003).with_cases(24),
            (ops, seed) in (vecs(u8s(0..3), 2..24), u64s(0..u64::MAX)) => {
                let tl = random_timeline(&ops, seed, CcMode::Off);
                let fitted = PerfModel::fit(&tl);
                let b = fitted.model.beta;
                if b > 0.0 && b < 1.0 {
                    ensure!(
                        fitted.error() < 1e-6,
                        "unclamped fit error {} (beta {b})",
                        fitted.error()
                    );
                }
            }
        );
    }
}
