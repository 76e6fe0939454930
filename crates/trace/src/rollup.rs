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
//! - **Order-independence.** A [`WindowIndex`] groups settled requests
//!   by window with a counting sort, and every rollup over a window is
//!   a count, a sum or a nearest-rank selection, so it depends only on
//!   the *set* of settled requests, never on the order they are listed
//!   in. The serving layer indexes a finished cluster run's outcome log
//!   in place; nothing is copied per request.
//! - **Folded, not recorded.** A [`WindowIntegrals`] folds a step
//!   function's per-window integrals as it steps, so the drain can hand
//!   the watch its queue-depth integrals without recording the series.

use hcc_types::{SimDuration, SimTime};

/// One settled request: either a completion (with its end-to-end
/// latency) or an admission-control rejection. The rollups read one at
/// a time, built on the fly from wherever the soak keeps its outcomes.
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
pub(crate) fn sliding(horizon: SimTime, width: SimDuration, stride: SimDuration) -> Vec<Window> {
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

/// Settled requests grouped by tumbling window: a counting sort of
/// request ids by `settle / width` into a compressed offset table. It
/// holds 4 B per indexed request plus 4 B per window, and within a
/// window the ids ascend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowIndex {
    /// Window `k`'s ids are `ids[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl WindowIndex {
    /// Indexes requests `0..n`, request `i` settling at `settle(i)`,
    /// into the tumbling windows of `width` over `[0, horizon)` (those
    /// [`tumbling`] generates). A request settling at or past `horizon`
    /// is left out.
    ///
    /// # Panics
    /// If `n` exceeds `u32::MAX`: ids are `u32`.
    pub fn build(
        horizon: SimTime,
        width: SimDuration,
        n: usize,
        settle: impl Fn(usize) -> SimTime,
    ) -> Self {
        assert!(n as u64 <= u64::from(u32::MAX), "request ids are u32");
        let width = width.as_nanos();
        let windows = match width {
            0 => 0,
            w => horizon.as_nanos().div_ceil(w) as usize,
        };
        let slot = |i: usize| {
            let at = settle(i);
            (at < horizon && width > 0).then(|| (at.as_nanos() / width) as usize)
        };
        // Count per window, turn the counts into each window's end, then
        // place ids from the back so each end walks down to its start.
        let mut offsets = vec![0u32; windows + 1];
        for k in (0..n).filter_map(slot) {
            offsets[k] += 1;
        }
        let mut end = 0u32;
        for slot_end in &mut offsets[..windows] {
            end += *slot_end;
            *slot_end = end;
        }
        offsets[windows] = end;
        let mut ids = vec![0u32; end as usize];
        for i in (0..n).rev() {
            if let Some(k) = slot(i) {
                offsets[k] -= 1;
                ids[offsets[k] as usize] = i as u32;
            }
        }
        WindowIndex { offsets, ids }
    }

    /// Windows indexed.
    pub fn windows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The ids settling in window `k`, ascending.
    pub fn window(&self, k: usize) -> &[u32] {
        self.span(k, k)
    }

    /// The ids settling in windows `first..=last`: window by window,
    /// each ascending.
    pub fn span(&self, first: usize, last: usize) -> &[u32] {
        &self.ids[self.offsets[first] as usize..self.offsets[last + 1] as usize]
    }
}

/// A step function's integral over each tumbling window of one width,
/// folded as the function steps. Per window, it gives what a recorded
/// change-point series' [`Series::integral_between`] gives, without the
/// series: only windows the function held a positive value in take a
/// slot.
///
/// [`Series::integral_between`]: crate::Series::integral_between
#[derive(Debug, Clone)]
pub struct WindowIntegrals {
    width: u64,
    /// `sums[k]`: integral over window `k` up to `at`, in value·ns.
    sums: Vec<u64>,
    /// The last step; the function holds `value` from here on.
    at: SimTime,
    value: u64,
    /// `at`'s window, or an earlier one if the function held zero since,
    /// and its end (saturating): a step from inside it divides nothing.
    win: usize,
    win_end: u64,
}

/// The window cache records where the steps went, not what they folded:
/// two folds are equal when their integrals and last step are.
impl PartialEq for WindowIntegrals {
    fn eq(&self, other: &Self) -> bool {
        (self.width, &self.sums, self.at, self.value)
            == (other.width, &other.sums, other.at, other.value)
    }
}

impl Eq for WindowIntegrals {}

impl WindowIntegrals {
    /// A function that holds 0 from time zero, over windows of `width`
    /// (at least 1 ns).
    pub fn new(width: SimDuration) -> Self {
        let width = width.as_nanos().max(1);
        WindowIntegrals {
            width,
            sums: Vec::new(),
            at: SimTime::ZERO,
            value: 0,
            win: 0,
            win_end: width,
        }
    }

    /// The window width.
    pub fn width(&self) -> SimDuration {
        SimDuration::from_nanos(self.width)
    }

    /// The function steps to `value` at `at`, which is no earlier than
    /// its last step: the value it held since is folded into the
    /// windows it covered.
    pub fn step(&mut self, at: SimTime, value: u64) {
        debug_assert!(at >= self.at, "steps run forward");
        let (mut t, end) = (self.at.as_nanos(), at.as_nanos());
        if self.value > 0 && t < end {
            // The cached window starts at or before `t`, since `at` only
            // runs forward. It is `t`'s unless zero-valued steps moved
            // `at` past it; then one division finds `t`'s, and each
            // later window is the next one.
            if t >= self.win_end {
                let k = t / self.width;
                self.win = k as usize;
                self.win_end = (k + 1).saturating_mul(self.width);
            }
            loop {
                let stop = end.min(self.win_end);
                if self.sums.len() <= self.win {
                    self.sums.resize(self.win + 1, 0);
                }
                let sum = &mut self.sums[self.win];
                *sum = sum.saturating_add(self.value.saturating_mul(stop - t));
                t = stop;
                if t == self.win_end {
                    self.win += 1;
                    self.win_end = self.win_end.saturating_add(self.width);
                }
                if t == end {
                    break;
                }
            }
        }
        self.at = self.at.max(at);
        self.value = value;
    }

    /// The integral over `window`, one of the windows [`tumbling`]
    /// generates at this width up to a horizon at or past the last
    /// step. The value of the last step extends to the window's end.
    pub fn over(&self, window: &Window) -> SimDuration {
        let k = (window.start.as_nanos() / self.width) as usize;
        let folded = self.sums.get(k).copied().unwrap_or(0);
        let from = window.start.max(self.at);
        let tail = self
            .value
            .saturating_mul(window.end.saturating_since(from).as_nanos());
        SimDuration::from_nanos(folded.saturating_add(tail))
    }
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

/// Rolls the settled requests into one [`WindowStats`] per window:
/// window `k`'s members are `index.window(k)`, each read through
/// `sample`. Each window's tails are selected
/// ([`crate::quantile::nearest_ranks`]) from one scratch buffer reused
/// across windows, not sorted.
pub fn window_stats(
    windows: &[Window],
    index: &WindowIndex,
    sample: impl Fn(u32) -> CompletionSample,
) -> Vec<WindowStats> {
    let mut latencies: Vec<SimDuration> = Vec::new();
    windows
        .iter()
        .enumerate()
        .map(|(k, w)| {
            let members = index.window(k);
            latencies.clear();
            latencies.extend(
                members
                    .iter()
                    .map(|&i| sample(i))
                    .filter(|s| !s.rejected)
                    .map(|s| s.latency),
            );
            let latency_sum: SimDuration = latencies.iter().copied().sum();
            let [p50, p99, p999] =
                crate::quantile::nearest_ranks(&mut latencies, [0.50, 0.99, 0.999]);
            WindowStats {
                window: *w,
                completed: latencies.len() as u64,
                rejected: (members.len() - latencies.len()) as u64,
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

    /// `samples` indexed into `windows` and rolled up.
    fn stats_of(samples: &[CompletionSample], windows: &[Window]) -> Vec<WindowStats> {
        let (horizon, width) = (
            windows.last().map_or(SimTime::ZERO, |w| w.end),
            windows[0].width(),
        );
        let index = WindowIndex::build(horizon, width, samples.len(), |i| samples[i].at);
        window_stats(windows, &index, |i| samples[i as usize])
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
        let stats = stats_of(&samples, &ws);
        assert_eq!(stats.len(), 3);

        assert_eq!(stats[0].completed, 3);
        assert_eq!(stats[0].rejected, 1);
        assert_eq!(stats[0].total(), 4);
        assert_eq!(stats[0].p50, SimDuration::millis(2));
        assert_eq!(stats[0].p99, SimDuration::millis(100));
        assert_eq!(stats[0].p999, SimDuration::millis(100));
        assert_eq!(stats[0].latency_sum, SimDuration::millis(103));
        assert!((stats[0].throughput_per_sec() - 300.0).abs() < 1e-9);

        assert_eq!(stats[1].total(), 0);
        assert_eq!(stats[1].p999, SimDuration::ZERO);

        assert_eq!(stats[2].completed, 0);
        assert_eq!(stats[2].rejected, 1);
    }

    #[test]
    fn window_index_is_half_open() {
        // Listed out of settle order: the index still groups by window
        // and lists each window's ids ascending.
        let at = [20, 19, 9, 10, 25, 10];
        let index = WindowIndex::build(t(30), SimDuration::millis(10), at.len(), |i| t(at[i]));
        assert_eq!(index.windows(), 3);
        assert_eq!(index.window(0), &[2]);
        assert_eq!(index.window(1), &[1, 3, 5]);
        assert_eq!(index.window(2), &[0, 4]);
        assert_eq!(index.span(1, 2), &[1, 3, 5, 0, 4]);
        // At or past the horizon: left out, even inside a clipped window.
        let short = WindowIndex::build(t(20), SimDuration::millis(10), at.len(), |i| t(at[i]));
        assert_eq!(short.span(0, 1), &[2, 1, 3, 5]);
        let clipped = WindowIndex::build(t(25), SimDuration::millis(10), at.len(), |i| t(at[i]));
        assert_eq!((clipped.windows(), clipped.window(2)), (3, &[0][..]));
        assert_eq!(
            WindowIndex::build(t(5), SimDuration::ZERO, 4, |_| t(0)).windows(),
            0
        );
    }

    /// Folded integrals match the series a gauge records for the same
    /// steps, window by window, including the final value's extension.
    #[test]
    fn window_integrals_match_the_recorded_series() {
        let steps = [(0, 0), (3, 2), (7, 0), (12, 5), (12, 1), (26, 3)];
        let width = SimDuration::millis(10);
        let mut folded = WindowIntegrals::new(width);
        let mut gauge = crate::OrderedGauge::new();
        let mut last = 0;
        for &(at_ms, v) in &steps {
            folded.step(t(at_ms), v);
            gauge.add(t(at_ms), v as i64 - last);
            last = v as i64;
        }
        let series = gauge.finish("q");
        let ws = tumbling(t(45), width);
        for w in &ws {
            assert_eq!(
                folded.over(w),
                series.integral_between(w.start, w.end),
                "{w:?}"
            );
        }
        assert_eq!(folded.over(&ws[0]), SimDuration::millis(8));
        assert_eq!(folded.over(&ws[2]), SimDuration::millis(6 + 12));
        assert_eq!(folded.width(), width);
    }

    /// The cached-window fold equals one that divides for every window
    /// it touches, bit for bit: random widths (1 ns included), steps
    /// that cross many windows or stay inside one, repeated instants,
    /// and zero values between positive ones.
    #[test]
    fn window_integrals_match_a_dividing_reference() {
        use hcc_check::strategy::{u64s, vecs};
        use hcc_check::{ensure_eq, forall, Config};

        /// The fold before the window cache: `t / width` per window.
        fn reference(width: u64, steps: &[(u64, u64)]) -> Vec<u64> {
            let (mut sums, mut at, mut value) = (Vec::<u64>::new(), 0u64, 0u64);
            for &(next, v) in steps {
                let mut t = at;
                if value > 0 {
                    while t < next {
                        let k = (t / width) as usize;
                        let stop = next.min((t / width + 1).saturating_mul(width));
                        if sums.len() <= k {
                            sums.resize(k + 1, 0);
                        }
                        sums[k] = sums[k].saturating_add(value.saturating_mul(stop - t));
                        t = stop;
                    }
                }
                at = at.max(next);
                value = v;
            }
            sums
        }

        forall!(
            Config::new(0x2011_0B32).with_cases(256),
            (width, gaps, values, zeros) in (
                u64s(0..40),
                vecs(u64s(0..200), 1..60),
                vecs(u64s(0..1_000), 1..60),
                u64s(0..4)
            ) => {
                // Width 0 asks for the 1-ns floor; otherwise 1..40 ns,
                // so a 200-ns gap crosses up to 200 windows.
                let width = width.max(1);
                let mut at = 0u64;
                let steps: Vec<(u64, u64)> = gaps
                    .iter()
                    .enumerate()
                    .map(|(i, &gap)| {
                        at += gap;
                        let v = values[i % values.len()];
                        // One step in `zeros + 1` drops to zero.
                        (at, if (i as u64).is_multiple_of(zeros + 1) { 0 } else { v })
                    })
                    .collect();
                let mut folded = WindowIntegrals::new(SimDuration::from_nanos(width));
                for &(next, v) in &steps {
                    folded.step(SimTime::from_nanos(next), v);
                }
                ensure_eq!(folded.sums, reference(width, &steps));
                ensure_eq!(folded.at, SimTime::from_nanos(at));
            }
        );
    }

    /// A window whose end passes `u64::MAX` is cut at the top of the
    /// clock, as the dividing fold cut it.
    #[test]
    fn window_integrals_saturate_at_the_top_of_the_clock() {
        let width = u64::MAX / 2 + 1;
        let mut folded = WindowIntegrals::new(SimDuration::from_nanos(width));
        folded.step(SimTime::from_nanos(width - 1), 1);
        folded.step(SimTime::from_nanos(u64::MAX), 0);
        assert_eq!(folded.sums, vec![1, u64::MAX - width]);
    }

    /// A window large enough that p50, p99 and p999 are three different
    /// ranks, with its latencies in scrambled order.
    #[test]
    fn window_tails_are_the_nearest_ranks() {
        let samples: Vec<CompletionSample> = (0..1000u32)
            .map(|i| sample(i, 1, 1 + u64::from(i * 7919 % 1000), false))
            .collect();
        let stats = stats_of(&samples, &tumbling(t(10), SimDuration::millis(10)));
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
        let stats = stats_of(&samples, &ws);
        assert_eq!((stats[0].completed, stats[0].rejected), (1, 1));
        let ms7 = SimDuration::millis(7);
        assert_eq!([stats[0].p50, stats[0].p99, stats[0].p999], [ms7; 3]);
        assert_eq!(
            [stats[1].p50, stats[1].p99, stats[1].p999],
            [SimDuration::ZERO; 3]
        );
    }
}
