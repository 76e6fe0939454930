//! Fig. 1-style end-to-end breakdowns: where the time goes in one run,
//! and how two runs (base vs CC) compare phase by phase.

use hcc_trace::Timeline;
use hcc_types::SimDuration;

/// One run's time split into the model's four phases plus the observed
/// span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseBreakdown {
    /// Data transfer (`T_mem`).
    pub mem: SimDuration,
    /// Launch path (`Σ(KLO + LQT)`).
    pub launch: SimDuration,
    /// Kernel path (`Σ(KET + KQT)`).
    pub kernel: SimDuration,
    /// Management + sync (`T_other`).
    pub other: SimDuration,
    /// Fault-recovery attribution (`T_fault`) — an overlay on the four
    /// phases, not a fifth serial term. Zero when the fault plan is empty.
    pub fault: SimDuration,
    /// Observed end-to-end span.
    pub span: SimDuration,
}

impl PhaseBreakdown {
    /// Extracts the breakdown from a trace.
    pub fn from_timeline(timeline: &Timeline) -> Self {
        let p = timeline.phase_totals();
        PhaseBreakdown {
            mem: p.t_mem,
            launch: p.t_launch,
            kernel: p.t_kernel,
            other: p.t_other,
            fault: p.t_fault,
            span: p.span,
        }
    }

    /// Phase shares of the serial phase sum, in `[0, 1]`, ordered
    /// (mem, launch, kernel, other).
    pub(crate) fn shares(&self) -> [f64; 4] {
        let total = (self.mem + self.launch + self.kernel + self.other).as_secs_f64();
        if total <= 0.0 {
            return [0.0; 4];
        }
        [
            self.mem.as_secs_f64() / total,
            self.launch.as_secs_f64() / total,
            self.kernel.as_secs_f64() / total,
            self.other.as_secs_f64() / total,
        ]
    }

    /// Renders an ASCII bar chart row (Fig. 1 flavour) with `width`
    /// characters: `M` = mem, `L` = launch, `K` = kernel, `O` = other.
    pub fn render_bar(&self, width: usize) -> String {
        let shares = self.shares();
        let mut bar = String::with_capacity(width);
        let chars = ['M', 'L', 'K', 'O'];
        for (share, ch) in shares.iter().zip(chars.iter()) {
            let n = (share * width as f64).round() as usize;
            for _ in 0..n {
                bar.push(*ch);
            }
        }
        bar
    }
}

impl std::fmt::Display for PhaseBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mem={} launch={} kernel={} other={} span={}",
            self.mem, self.launch, self.kernel, self.other, self.span
        )?;
        // Only surface the overlay when faults were actually recovered, so
        // no-fault renderings stay unchanged.
        if !self.fault.is_zero() {
            write!(f, " fault={}", self.fault)?;
        }
        Ok(())
    }
}

/// Phase-by-phase comparison of a CC run against its base run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeComparison {
    /// Base (CC-off) breakdown.
    pub base: PhaseBreakdown,
    /// CC-on breakdown.
    pub cc: PhaseBreakdown,
}

impl ModeComparison {
    /// Builds the comparison from two traces of the same workload.
    pub(crate) fn new(base: &Timeline, cc: &Timeline) -> Self {
        ModeComparison {
            base: PhaseBreakdown::from_timeline(base),
            cc: PhaseBreakdown::from_timeline(cc),
        }
    }

    /// CC/base slowdown of the end-to-end span.
    pub(crate) fn span_slowdown(&self) -> f64 {
        self.cc.span / self.base.span
    }
}

hcc_types::impl_to_json!(PhaseBreakdown {
    mem,
    launch,
    kernel,
    other,
    fault,
    span
});
hcc_types::impl_to_json!(ModeComparison { base, cc });

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_trace::{EventKind, KernelId, TraceEvent};
    use hcc_types::{ByteSize, CopyKind, HostMemKind, MemSpace, SimTime};

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn make_timeline(scale: u64) -> Timeline {
        let mut tl = Timeline::new();
        tl.push(TraceEvent::new(
            EventKind::Alloc {
                space: MemSpace::Device,
                bytes: ByteSize::mib(1),
            },
            t(0),
            t(10 * scale),
        ));
        tl.push(TraceEvent::new(
            EventKind::Memcpy {
                kind: CopyKind::H2D,
                bytes: ByteSize::mib(1),
                mem: HostMemKind::Pageable,
                managed: false,
            },
            t(10 * scale),
            t(40 * scale),
        ));
        tl.push(
            TraceEvent::new(
                EventKind::Launch {
                    kernel: KernelId(0),
                    queue_wait: SimDuration::ZERO,
                    first: true,
                },
                t(40 * scale),
                t(46 * scale),
            )
            .with_correlation(1),
        );
        tl.push(
            TraceEvent::new(
                EventKind::Kernel {
                    kernel: KernelId(0),
                    uvm: false,
                },
                t(48 * scale),
                t(148 * scale),
            )
            .with_correlation(1),
        );
        tl
    }

    #[test]
    fn shares_sum_to_one() {
        let b = PhaseBreakdown::from_timeline(&make_timeline(1));
        let s: f64 = b.shares().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert!(b.kernel > b.mem);
    }

    #[test]
    fn empty_timeline_shares_are_zero() {
        let b = PhaseBreakdown::from_timeline(&Timeline::new());
        assert_eq!(b.shares(), [0.0; 4]);
        assert_eq!(b.render_bar(10), "");
    }

    #[test]
    fn bar_length_tracks_width() {
        let b = PhaseBreakdown::from_timeline(&make_timeline(1));
        let bar = b.render_bar(50);
        assert!((45..=55).contains(&bar.len()), "bar len {}", bar.len());
        assert!(bar.contains('K'));
        assert!(bar.contains('M'));
    }

    #[test]
    fn comparison_slowdowns() {
        let base = make_timeline(1);
        let cc = make_timeline(3);
        let cmp = ModeComparison::new(&base, &cc);
        assert!((cmp.span_slowdown() - 3.0).abs() < 1e-9);
        let (cc, base) = (&cmp.cc, &cmp.base);
        for s in [
            cc.mem / base.mem,
            cc.launch / base.launch,
            cc.kernel / base.kernel,
            cc.other / base.other,
        ] {
            assert!((s - 3.0).abs() < 0.2, "phase slowdown {s}");
        }
    }
}
