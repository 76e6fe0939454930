//! The Fig. 3 performance model:
//!
//! `P = (1 − α)·T_mem + Σ(KLO + LQT) + (1 − β)·Σ(KET + KQT) + T_other`
//!
//! `α` is the fraction of data-transfer time hidden under other work;
//! `β` is the (aggregate) fraction of kernel time hidden under launch
//! activity. Both are 0 for fully serial apps and approach 1 with perfect
//! overlap.

use hcc_trace::{EventKind, PhaseTotals, Timeline};
use hcc_types::{SimDuration, SimTime};

/// The performance model instance for one application run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Part A: total data-transfer time (`T_mem`).
    pub t_mem: SimDuration,
    /// Part B: `Σ(KLO + LQT)`.
    pub t_launch: SimDuration,
    /// Part C: `Σ(KET + KQT)`.
    pub t_kernel: SimDuration,
    /// Part D: `T_other` (alloc/free/non-overlapped sync).
    pub t_other: SimDuration,
    /// Copy-overlap factor `α ∈ [0, 1]`.
    pub alpha: f64,
    /// Kernel-overlap factor `β ∈ [0, 1]`.
    pub beta: f64,
}

impl PerfModel {
    /// Builds a fully-serial model (`α = β = 0`) from phase totals.
    pub fn serial(phases: PhaseTotals) -> Self {
        PerfModel {
            t_mem: phases.t_mem,
            t_launch: phases.t_launch,
            t_kernel: phases.t_kernel,
            t_other: phases.t_other,
            alpha: 0.0,
            beta: 0.0,
        }
    }

    /// Predicted end-to-end time `P`.
    pub fn predict(&self) -> SimDuration {
        self.t_mem.scale(1.0 - self.alpha)
            + self.t_launch
            + self.t_kernel.scale(1.0 - self.beta)
            + self.t_other
    }

    /// Relative prediction error against an observed span.
    pub(crate) fn error_vs(&self, observed: SimDuration) -> f64 {
        if observed.is_zero() {
            return 0.0;
        }
        let p = self.predict().as_secs_f64();
        let o = observed.as_secs_f64();
        (p - o).abs() / o
    }

    /// Fits `α` and `β` to a recorded timeline.
    ///
    /// `α` is measured directly: the fraction of copy time that
    /// chronologically overlaps kernel execution. `β` is then solved so
    /// the model reproduces the observed span, clamped to `[0, 1]` — the
    /// same procedure the paper applies when explaining Fig. 10's traces.
    pub fn fit(timeline: &Timeline) -> FittedModel {
        let phases = timeline.phase_totals();
        let alpha = measure_copy_overlap(timeline);
        let observed = timeline.span();
        let fixed = phases.t_mem.scale(1.0 - alpha) + phases.t_launch + phases.t_other;
        let beta = if phases.t_kernel.is_zero() {
            0.0
        } else {
            let residual = observed.saturating_sub(fixed);
            (1.0 - residual / phases.t_kernel).clamp(0.0, 1.0)
        };
        let model = PerfModel {
            t_mem: phases.t_mem,
            t_launch: phases.t_launch,
            t_kernel: phases.t_kernel,
            t_other: phases.t_other,
            alpha,
            beta,
        };
        FittedModel { model, observed }
    }
}

/// A model fitted to a trace, with the span it was fitted against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedModel {
    /// The fitted model.
    pub model: PerfModel,
    /// The observed end-to-end span.
    pub observed: SimDuration,
}

impl FittedModel {
    /// Relative error of the fitted model (small by construction unless
    /// clamping bit).
    pub fn error(&self) -> f64 {
        self.model.error_vs(self.observed)
    }
}

/// Fraction of total copy time that overlaps kernel-execution intervals.
fn measure_copy_overlap(timeline: &Timeline) -> f64 {
    let mut copies: Vec<(SimTime, SimTime)> = Vec::new();
    let mut kernels: Vec<(SimTime, SimTime)> = Vec::new();
    for e in timeline.events() {
        match e.kind {
            EventKind::Memcpy { .. } => copies.push((e.start, e.end)),
            EventKind::Kernel { .. } => kernels.push((e.start, e.end)),
            _ => {}
        }
    }
    let total_copy: SimDuration = copies.iter().map(|(s, e)| e.saturating_since(*s)).sum();
    if total_copy.is_zero() {
        return 0.0;
    }
    kernels.sort_unstable();
    let mut overlapped = SimDuration::ZERO;
    for (cs, ce) in &copies {
        for (ks, ke) in &kernels {
            let start = (*cs).max(*ks);
            let end = (*ce).min(*ke);
            if end > start {
                overlapped += end - start;
            }
        }
    }
    (overlapped / total_copy).clamp(0.0, 1.0)
}

hcc_types::impl_to_json!(PerfModel {
    t_mem,
    t_launch,
    t_kernel,
    t_other,
    alpha,
    beta,
});
hcc_types::impl_to_json!(FittedModel { model, observed });

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_trace::{KernelId, TraceEvent};

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn us(v: u64) -> SimDuration {
        SimDuration::micros(v)
    }

    #[test]
    fn serial_prediction_is_phase_sum() {
        let phases = PhaseTotals {
            t_mem: us(30),
            t_launch: us(10),
            t_kernel: us(100),
            t_other: us(20),
            t_fault: SimDuration::ZERO,
            span: us(160),
        };
        let m = PerfModel::serial(phases);
        assert_eq!(m.predict(), us(160));
        assert!(m.error_vs(us(160)) < 1e-12);
    }

    #[test]
    fn overlap_factors_shrink_prediction() {
        let phases = PhaseTotals {
            t_mem: us(100),
            t_launch: us(10),
            t_kernel: us(100),
            t_other: us(0),
            t_fault: SimDuration::ZERO,
            span: us(120),
        };
        let mut m = PerfModel::serial(phases);
        m.alpha = 1.0;
        m.beta = 0.5;
        assert_eq!(m.predict(), us(10) + us(50));
    }

    #[test]
    fn fit_recovers_serial_trace_exactly() {
        // Build a perfectly serial trace: copy, launch, kernel, nothing
        // overlapping.
        let mut tl = Timeline::new();
        tl.push(TraceEvent::new(
            EventKind::Memcpy {
                kind: hcc_types::CopyKind::H2D,
                bytes: hcc_types::ByteSize::mib(1),
                mem: hcc_types::HostMemKind::Pageable,
                managed: false,
            },
            t(0),
            t(30),
        ));
        tl.push(
            TraceEvent::new(
                EventKind::Launch {
                    kernel: KernelId(0),
                    queue_wait: SimDuration::ZERO,
                    first: true,
                },
                t(30),
                t(36),
            )
            .with_correlation(1),
        );
        tl.push(
            TraceEvent::new(
                EventKind::Kernel {
                    kernel: KernelId(0),
                    uvm: false,
                },
                t(36),
                t(136),
            )
            .with_correlation(1),
        );
        let fitted = PerfModel::fit(&tl);
        assert!(fitted.model.alpha < 1e-9);
        // Serial trace: β ≈ 0, prediction ≈ observed.
        assert!(fitted.model.beta < 0.05, "beta {}", fitted.model.beta);
        assert!(fitted.error() < 0.05, "error {}", fitted.error());
    }

    #[test]
    fn fit_detects_copy_kernel_overlap() {
        let mut tl = Timeline::new();
        // Copy 0..100 fully overlapped by kernel 0..200.
        tl.push(TraceEvent::new(
            EventKind::Memcpy {
                kind: hcc_types::CopyKind::H2D,
                bytes: hcc_types::ByteSize::mib(1),
                mem: hcc_types::HostMemKind::Pinned,
                managed: false,
            },
            t(0),
            t(100),
        ));
        tl.push(
            TraceEvent::new(
                EventKind::Kernel {
                    kernel: KernelId(0),
                    uvm: false,
                },
                t(0),
                t(200),
            )
            .with_correlation(1),
        );
        let fitted = PerfModel::fit(&tl);
        assert!((fitted.model.alpha - 1.0).abs() < 1e-9);
    }

    #[test]
    fn error_vs_zero_span_is_zero() {
        let m = PerfModel::serial(PhaseTotals::default());
        assert_eq!(m.error_vs(SimDuration::ZERO), 0.0);
    }

    /// Golden snapshot of the Fig. 3 decomposition on a fixed scenario
    /// (seeded sim, 16 MiB H2D + 32 kernels + 16 MiB D2H). Any change to
    /// the calibration defaults, the runtime's event emission, or the
    /// fitting math shows up here as an intentional diff, not a silent
    /// drift in the reproduced figure.
    #[test]
    fn fig3_fixed_scenario_snapshot() {
        use crate::PhaseBreakdown;
        use hcc_runtime::{CudaContext, KernelDesc, SimConfig};
        use hcc_types::{ByteSize, CcMode, HostMemKind};

        fn decompose(cc: CcMode) -> (PhaseBreakdown, FittedModel) {
            let mut ctx = CudaContext::new(SimConfig::new(cc).with_seed(0xF163));
            let h = ctx
                .malloc_host(ByteSize::mib(16), HostMemKind::Pageable)
                .expect("host");
            let d = ctx.malloc_device(ByteSize::mib(16)).expect("device");
            ctx.memcpy_h2d(d, h, ByteSize::mib(16)).expect("h2d");
            for _ in 0..32 {
                ctx.launch_kernel(
                    &KernelDesc::new(KernelId(1), SimDuration::micros(50)),
                    ctx.default_stream(),
                )
                .expect("launch");
            }
            ctx.synchronize();
            ctx.memcpy_d2h(h, d, ByteSize::mib(16)).expect("d2h");
            ctx.synchronize();
            let tl = ctx.timeline().clone();
            let fitted = PerfModel::fit(&tl);
            (PhaseBreakdown::from_timeline(&tl), fitted)
        }

        let (base, base_fit) = decompose(CcMode::Off);
        assert_eq!(base.span.as_nanos(), 4_022_692);
        assert_eq!(base.mem.as_nanos(), 2_244_163);
        assert_eq!(base.launch.as_nanos(), 338_554);
        assert_eq!(base.other.as_nanos(), 102_458);
        assert_eq!(base_fit.model.alpha, 0.0);
        assert!((base_fit.model.beta - 0.939_977_816_082_788).abs() < 1e-12);
        assert_eq!(base_fit.model.predict().as_nanos(), 4_022_692);
        assert_eq!(base_fit.error(), 0.0);

        let (cc, cc_fit) = decompose(CcMode::On);
        assert_eq!(cc.span.as_nanos(), 14_770_112);
        assert_eq!(cc.mem.as_nanos(), 12_434_111);
        assert_eq!(cc.launch.as_nanos(), 524_774);
        assert_eq!(cc.other.as_nanos(), 612_638);
        assert_eq!(cc_fit.model.alpha, 0.0);
        assert!((cc_fit.model.beta - 0.941_492_461_630_373_9).abs() < 1e-12);
        assert_eq!(cc_fit.model.predict().as_nanos(), 14_770_112);
        assert_eq!(cc_fit.error(), 0.0);

        // The headline Fig. 3 story: CC inflates the memory phase far
        // more than the kernel phase, and the model reproduces the span.
        let mem_blowup = cc.mem.as_secs_f64() / base.mem.as_secs_f64();
        let span_blowup = cc.span.as_secs_f64() / base.span.as_secs_f64();
        assert!(mem_blowup > 5.0, "mem blowup {mem_blowup}");
        assert!(span_blowup > 3.0 && span_blowup < mem_blowup);
    }
}
