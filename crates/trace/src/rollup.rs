//! Streaming virtual-time rollups: tumbling/sliding windows over request
//! completions and gauge change-point series.
//!
//! The metrics plane ([`crate::metrics`]) answers whole-run questions
//! (peak depth, total occupancy); this module slices the same virtual
//! clock into windows so a 30-day soak becomes a time-resolved sequence
//! of per-window tail latencies, throughputs, and rejection fractions —
//! the substrate the `hcc_bench::watch` burn-rate alerter consumes.
//!
//! Determinism contract (shared with the metrics plane):
//!
//! - **Virtual-time only.** A [`CompletionSample`] carries the settle
//!   instant on the sim clock; window boundaries are pure arithmetic on
//!   it. No wall-clock read anywhere.
//! - **Order-independence.** Every rollup reads samples in canonical
//!   `(at, req)` order, so it depends only on the *set* of settled
//!   requests. The serving layer builds that sorted set from a finished
//!   cluster run's outcomes; the drain itself records nothing.

use hcc_types::{SimDuration, SimTime};

/// One settled request: either a completion (with its end-to-end
/// latency) or an admission-control rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionSample {
    /// Index of the request in the driving soak's arrival order.
    pub req: u32,
    /// Tenant index (into the soak's tenant table).
    pub tenant: u32,
    /// Virtual instant the request settled (completion or rejection).
    pub at: SimTime,
    /// End-to-end latency (arrival → completion); zero for rejections.
    pub latency: SimDuration,
    /// True when admission control turned the request away.
    pub rejected: bool,
}

/// One half-open rollup window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Position in the generating sequence.
    pub index: usize,
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

impl Window {
    /// Window width.
    pub fn width(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Midpoint instant (used to correlate a window against a storm
    /// calendar).
    pub fn mid(&self) -> SimTime {
        SimTime::from_nanos((self.start.as_nanos() + self.end.as_nanos()) / 2)
    }

    /// Whether `t` falls inside `[start, end)`.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Non-overlapping windows of `width` tiling `[0, horizon)`; the last
/// window is clipped short only if the horizon is not a multiple of the
/// width — boundaries are exact integer arithmetic, never floats. A zero
/// width or zero horizon yields no windows.
pub fn tumbling(horizon: SimTime, width: SimDuration) -> Vec<Window> {
    sliding(horizon, width, width)
}

/// Overlapping windows of `width` whose starts advance by `stride`,
/// covering `[0, horizon)`. Windows are clipped to the horizon. Zero
/// stride, zero width, or a zero horizon yields no windows.
pub fn sliding(horizon: SimTime, width: SimDuration, stride: SimDuration) -> Vec<Window> {
    let horizon_ns = horizon.as_nanos();
    let (width_ns, stride_ns) = (width.as_nanos(), stride.as_nanos());
    if horizon_ns == 0 || width_ns == 0 || stride_ns == 0 {
        return Vec::new();
    }
    let mut windows = Vec::new();
    let mut start = 0u64;
    while start < horizon_ns {
        let end = start.saturating_add(width_ns).min(horizon_ns);
        windows.push(Window {
            index: windows.len(),
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        });
        start = start.saturating_add(stride_ns);
    }
    windows
}

/// The contiguous slice of `samples` (sorted by `at`) settling inside
/// `window` — the primitive per-tenant consumers filter further.
pub fn window_range<'a>(
    samples: &'a [CompletionSample],
    window: &Window,
) -> &'a [CompletionSample] {
    let lo = samples.partition_point(|s| s.at < window.start);
    let hi = samples.partition_point(|s| s.at < window.end);
    &samples[lo..hi]
}

/// Per-window rollup of settled requests: counts, tail latencies, and
/// throughput for one [`Window`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowStats {
    /// The window these figures cover.
    pub window: Window,
    /// Requests that completed inside the window.
    pub completed: u64,
    /// Requests rejected inside the window.
    pub rejected: u64,
    /// Nearest-rank completion-latency quantiles (ZERO when nothing
    /// completed in the window).
    pub p50: SimDuration,
    /// 99th-percentile completion latency.
    pub p99: SimDuration,
    /// 99.9th-percentile completion latency.
    pub p999: SimDuration,
    /// Sum of completion latencies (for exact window means).
    pub latency_sum: SimDuration,
}

impl WindowStats {
    /// Completed plus rejected.
    pub fn total(&self) -> u64 {
        self.completed + self.rejected
    }

    /// Rejected fraction of everything that settled, in parts per
    /// million (0 for an empty window).
    pub fn reject_ppm(&self) -> u64 {
        if self.total() == 0 {
            0
        } else {
            self.rejected * 1_000_000 / self.total()
        }
    }

    /// Completions per virtual second over the window width.
    pub fn throughput_per_sec(&self) -> f64 {
        let w = self.window.width().as_secs_f64();
        if w <= 0.0 {
            0.0
        } else {
            self.completed as f64 / w
        }
    }
}

/// Rolls `samples` (sorted by `(at, req)`) into one [`WindowStats`] per
/// window. Each window's tails are selected
/// ([`crate::quantile::nearest_ranks`]) from one scratch buffer reused
/// across windows, not sorted.
pub fn window_stats(samples: &[CompletionSample], windows: &[Window]) -> Vec<WindowStats> {
    let mut latencies: Vec<SimDuration> = Vec::new();
    windows
        .iter()
        .map(|w| {
            let slice = window_range(samples, w);
            latencies.clear();
            latencies.extend(slice.iter().filter(|s| !s.rejected).map(|s| s.latency));
            let latency_sum: SimDuration = latencies.iter().copied().sum();
            let [p50, p99, p999] =
                crate::quantile::nearest_ranks(&mut latencies, [0.50, 0.99, 0.999]);
            WindowStats {
                window: *w,
                completed: latencies.len() as u64,
                rejected: (slice.len() - latencies.len()) as u64,
                p50,
                p99,
                p999,
                latency_sum,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(SimDuration::millis(ms).as_nanos())
    }

    fn sample(req: u32, at_ms: u64, lat_ms: u64, rejected: bool) -> CompletionSample {
        CompletionSample {
            req,
            tenant: req % 2,
            at: t(at_ms),
            latency: SimDuration::millis(lat_ms),
            rejected,
        }
    }

    #[test]
    fn tumbling_tiles_horizon_exactly() {
        let ws = tumbling(t(95), SimDuration::millis(10));
        assert_eq!(ws.len(), 10);
        assert_eq!(ws[0].start, SimTime::ZERO);
        for pair in ws.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "gap or overlap");
        }
        assert_eq!(ws[9].end, t(95), "last window clipped to horizon");
        assert_eq!(ws[9].width(), SimDuration::millis(5));
        assert!(ws[3].contains(t(35)));
        assert!(!ws[3].contains(t(40)));
        assert_eq!(ws[3].mid(), t(35));
    }

    #[test]
    fn sliding_windows_overlap_by_stride() {
        let ws = sliding(t(30), SimDuration::millis(10), SimDuration::millis(5));
        assert_eq!(ws.len(), 6);
        assert_eq!(ws[1].start, t(5));
        assert_eq!(ws[1].end, t(15));
        assert_eq!(ws[5].start, t(25));
        assert_eq!(ws[5].end, t(30));
    }

    #[test]
    fn degenerate_window_generation_is_empty() {
        assert!(tumbling(SimTime::ZERO, SimDuration::millis(10)).is_empty());
        assert!(tumbling(t(10), SimDuration::ZERO).is_empty());
        assert!(sliding(t(10), SimDuration::millis(5), SimDuration::ZERO).is_empty());
    }

    #[test]
    fn window_stats_count_and_rank_correctly() {
        let samples = [
            // Window [0,10): three completions 1/2/100ms, one rejection.
            sample(0, 1, 1, false),
            sample(1, 2, 2, false),
            sample(2, 3, 100, false),
            sample(3, 4, 0, true),
            // Window [10,20): empty. Window [20,30): one rejection only.
            sample(4, 25, 0, true),
        ];
        let ws = tumbling(t(30), SimDuration::millis(10));
        let stats = window_stats(&samples, &ws);
        assert_eq!(stats.len(), 3);

        assert_eq!(stats[0].completed, 3);
        assert_eq!(stats[0].rejected, 1);
        assert_eq!(stats[0].total(), 4);
        assert_eq!(stats[0].reject_ppm(), 250_000);
        assert_eq!(stats[0].p50, SimDuration::millis(2));
        assert_eq!(stats[0].p99, SimDuration::millis(100));
        assert_eq!(stats[0].p999, SimDuration::millis(100));
        assert_eq!(stats[0].latency_sum, SimDuration::millis(103));
        assert!((stats[0].throughput_per_sec() - 300.0).abs() < 1e-9);

        assert_eq!(stats[1].total(), 0);
        assert_eq!(stats[1].p999, SimDuration::ZERO);
        assert_eq!(stats[1].reject_ppm(), 0);

        assert_eq!(stats[2].completed, 0);
        assert_eq!(stats[2].rejected, 1);
        assert_eq!(stats[2].reject_ppm(), 1_000_000);
    }

    #[test]
    fn window_range_is_half_open() {
        let samples = vec![
            sample(0, 9, 1, false),
            sample(1, 10, 1, false),
            sample(2, 19, 1, false),
            sample(3, 20, 1, false),
        ];
        let w = Window {
            index: 1,
            start: t(10),
            end: t(20),
        };
        let slice = window_range(&samples, &w);
        assert_eq!(slice.len(), 2);
        assert_eq!(slice[0].req, 1);
        assert_eq!(slice[1].req, 2);
    }

    /// A window large enough that p50, p99 and p999 are three different
    /// ranks, with its latencies in scrambled order.
    #[test]
    fn window_tails_are_the_nearest_ranks() {
        let samples: Vec<CompletionSample> = (0..1000u32)
            .map(|i| sample(i, 1, 1 + u64::from(i * 7919 % 1000), false))
            .collect();
        let stats = window_stats(&samples, &tumbling(t(10), SimDuration::millis(10)));
        let ms = SimDuration::millis;
        assert_eq!(
            [stats[0].p50, stats[0].p99, stats[0].p999],
            [ms(500), ms(990), ms(999)]
        );
        assert_eq!(stats[0].latency_sum, ms(500_500));
    }

    #[test]
    fn single_completion_is_every_window_quantile() {
        let samples = [sample(0, 5, 7, false), sample(1, 6, 0, true)];
        let ws = tumbling(t(20), SimDuration::millis(10));
        let stats = window_stats(&samples, &ws);
        assert_eq!((stats[0].completed, stats[0].rejected), (1, 1));
        let ms7 = SimDuration::millis(7);
        assert_eq!([stats[0].p50, stats[0].p99, stats[0].p999], [ms7; 3]);
        assert_eq!(
            [stats[1].p50, stats[1].p99, stats[1].p999],
            [SimDuration::ZERO; 3]
        );
    }
}
