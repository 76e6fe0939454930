//! Kernel-to-Launch-Ratio analysis (Observation 6): classifies apps into
//! launch-bound and compute-bound regimes and predicts CC sensitivity.

use hcc_trace::LaunchMetrics;

/// KLR regime of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KlrClass {
    /// `KET ≫ KLO + LQT`: launch overhead hides under execution; CC's
    /// launch taxes barely move end-to-end time.
    High,
    /// `KET ≲ KLO + LQT`: launch activity dominates (`β → 1`); CC launch
    /// taxes translate directly into end-to-end slowdown.
    Low,
}

/// KLR analysis of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KlrAnalysis {
    /// The ratio `ΣKET / Σ(KLO + LQT)`.
    pub klr: f64,
    /// Number of launches observed.
    pub launches: usize,
    /// Classification.
    pub class: KlrClass,
}

/// Threshold between regimes. The case study's launch-bound apps (`sc`,
/// `3dconv`) sit well below this; compute-bound apps sit far above.
pub const KLR_THRESHOLD: f64 = 10.0;

impl KlrAnalysis {
    /// Analyzes a run's launch metrics.
    pub fn of(metrics: &LaunchMetrics) -> Self {
        let klr = metrics.klr();
        KlrAnalysis {
            klr,
            launches: metrics.launch_count(),
            class: if klr >= KLR_THRESHOLD {
                KlrClass::High
            } else {
                KlrClass::Low
            },
        }
    }

    /// Predicted end-to-end slowdown if launch costs scale by
    /// `launch_factor` while kernel costs stay fixed — the Observation 6
    /// sensitivity estimate. Apps with high KLR absorb the launch tax;
    /// low-KLR apps pay it in full.
    pub fn predicted_slowdown(&self, launch_factor: f64) -> f64 {
        if !self.klr.is_finite() || self.launches == 0 {
            return 1.0;
        }
        // Per launch period the critical path is max(KET, KLO + LQT):
        // launch work hides under execution when KLR ≥ 1 and dominates
        // otherwise. Scaling launch cost by `f` gives
        // max(KLR, f) / max(KLR, 1) in normalized units.
        let klr = self.klr.max(1e-9);
        klr.max(launch_factor) / klr.max(1.0)
    }
}

impl hcc_types::json::ToJson for KlrClass {
    fn write_json(&self, out: &mut hcc_types::json::JsonOut<'_>) {
        out.str(match self {
            KlrClass::High => "high",
            KlrClass::Low => "low",
        });
    }
}

hcc_types::impl_to_json!(KlrAnalysis {
    klr,
    launches,
    class
});

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_trace::{KernelId, KernelRecord, LaunchRecord};
    use hcc_types::{SimDuration, SimTime};

    fn metrics(n: usize, ket_us: u64, klo_us: u64) -> LaunchMetrics {
        let launches = (0..n)
            .map(|i| LaunchRecord {
                kernel: KernelId(0),
                start: SimTime::from_nanos(i as u64 * 1000),
                klo: SimDuration::micros(klo_us),
                lqt: SimDuration::ZERO,
                first: i == 0,
                correlation: i as u32,
            })
            .collect();
        let kernels = (0..n)
            .map(|i| KernelRecord {
                kernel: KernelId(0),
                start: SimTime::from_nanos(i as u64 * 1000 + 500),
                ket: SimDuration::micros(ket_us),
                kqt: SimDuration::ZERO,
                uvm: false,
                correlation: i as u32,
            })
            .collect();
        LaunchMetrics { launches, kernels }
    }

    #[test]
    fn classification() {
        let compute_bound = KlrAnalysis::of(&metrics(10, 5_000, 6));
        assert_eq!(compute_bound.class, KlrClass::High);
        let launch_bound = KlrAnalysis::of(&metrics(1000, 10, 6));
        assert_eq!(launch_bound.class, KlrClass::Low);
        assert!(compute_bound.klr > launch_bound.klr);
    }

    #[test]
    fn low_klr_apps_predicted_more_sensitive() {
        let high = KlrAnalysis::of(&metrics(10, 5_000, 6));
        let low = KlrAnalysis::of(&metrics(1000, 2, 6));
        let factor = 1.42; // the paper's mean KLO slowdown
        assert!(low.predicted_slowdown(factor) > high.predicted_slowdown(factor));
        assert!(high.predicted_slowdown(factor) < 1.01);
    }

    #[test]
    fn no_launches_is_neutral() {
        let empty = LaunchMetrics::default();
        let a = KlrAnalysis::of(&empty);
        assert_eq!(a.predicted_slowdown(2.0), 1.0);
    }
}
