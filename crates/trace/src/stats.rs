//! Distribution statistics: CDFs, summaries, and slowdown helpers used by
//! the figure harnesses (Fig. 11's KLO/KET CDFs and every "×N" the paper
//! reports).

use hcc_types::json::{JsonOut, ToJson};
use hcc_types::SimDuration;

/// An empirical cumulative distribution over durations.
///
/// ```
/// use hcc_trace::Cdf;
/// use hcc_types::SimDuration;
/// let cdf = Cdf::from_durations(
///     (1..=100).map(SimDuration::micros).collect::<Vec<_>>(),
/// );
/// assert_eq!(cdf.quantile(0.5), SimDuration::micros(50));
/// assert!(cdf.mean().as_micros_f64() > 50.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cdf {
    sorted: Vec<SimDuration>,
}

impl Cdf {
    /// Builds a CDF from unsorted samples.
    pub fn from_durations(mut samples: Vec<SimDuration>) -> Self {
        samples.sort_unstable();
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sorted samples (ascending).
    pub fn samples(&self) -> &[SimDuration] {
        &self.sorted
    }

    /// The `p`-quantile (nearest-rank), `p` clamped to `[0, 1]`.
    ///
    /// Total on every input: an empty CDF yields `SimDuration::ZERO`
    /// (there is no latency to report, not a programming error — a tenant
    /// whose every request was rejected still gets a defined row), and a
    /// single-sample CDF yields that sample for every `p`. The serving
    /// p50/p99/p999 tables lean on this.
    pub fn quantile(&self, p: f64) -> SimDuration {
        crate::quantile::nearest_rank(&self.sorted, p)
    }

    /// Arithmetic mean over **all** samples. Fig. 11 computes the average
    /// "over all data points, without any removals" even when the plot
    /// trims the tail.
    pub fn mean(&self) -> SimDuration {
        if self.sorted.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.sorted.iter().map(|d| u128::from(d.as_nanos())).sum();
        SimDuration::from_nanos((total / self.sorted.len() as u128) as u64)
    }

    /// A copy with the `n` largest samples removed — Fig. 11a removes the
    /// top 5 launch durations to keep the plot on one scale.
    pub fn trim_top(&self, n: usize) -> Cdf {
        let keep = self.sorted.len().saturating_sub(n);
        Cdf {
            sorted: self.sorted[..keep].to_vec(),
        }
    }

    /// Evaluates the CDF as `(duration, cumulative fraction)` pairs, one
    /// per sample — the series a figure plots.
    pub fn points(&self) -> Vec<(SimDuration, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, d)| (*d, (i + 1) as f64 / n))
            .collect()
    }

    /// The CDF's [`Tail`]: its count, mean and tail quantiles.
    pub fn tail(&self) -> Tail {
        let [p50, p90, p99, p999] = Tail::QUANTILES.map(|p| self.quantile(p));
        Tail {
            count: self.len() as u64,
            mean: self.mean(),
            p50,
            p90,
            p99,
            p999,
        }
    }
}

impl ToJson for Cdf {
    /// The CDF's [`Tail`] export. Raw samples are deliberately omitted —
    /// a 10⁵-request serving run would otherwise dump 10⁵ numbers per
    /// tenant; use [`Cdf::points`] directly when the full curve is
    /// wanted.
    fn write_json(&self, out: &mut JsonOut<'_>) {
        self.tail().write_json(out);
    }
}

/// The fixed-size summary a serving report keeps of a latency
/// population: sample count, exact mean and the nearest-rank
/// p50/p90/p99/p999 — the same figures [`Cdf`] reports, without keeping
/// the samples.
///
/// ```
/// use hcc_trace::Tail;
/// use hcc_types::SimDuration;
/// let mut samples: Vec<SimDuration> = (1..=100).rev().map(SimDuration::micros).collect();
/// let tail = Tail::of(&mut samples);
/// assert_eq!((tail.count, tail.p50, tail.p99), (100, SimDuration::micros(50), SimDuration::micros(99)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean over every sample (ZERO when empty).
    pub mean: SimDuration,
    /// Nearest-rank median (ZERO when empty).
    pub p50: SimDuration,
    /// Nearest-rank 90th percentile.
    pub p90: SimDuration,
    /// Nearest-rank 99th percentile.
    pub p99: SimDuration,
    /// Nearest-rank 99.9th percentile.
    pub p999: SimDuration,
}

impl Tail {
    /// The quantiles a tail keeps, ascending.
    pub const QUANTILES: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

    /// Summarizes `samples` by selection, in linear time; the slice is
    /// left reordered. Equal to `Cdf::from_durations(samples).tail()`.
    pub fn of(samples: &mut [SimDuration]) -> Tail {
        let total: u128 = samples.iter().map(|d| u128::from(d.as_nanos())).sum();
        let mean = total.checked_div(samples.len() as u128).unwrap_or(0);
        let [p50, p90, p99, p999] = crate::quantile::nearest_ranks(samples, Tail::QUANTILES);
        Tail {
            count: samples.len() as u64,
            mean: SimDuration::from_nanos(mean as u64),
            p50,
            p90,
            p99,
            p999,
        }
    }

    /// `true` when the population was empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl ToJson for Tail {
    /// Sample count, mean and the four tail quantiles, all in
    /// nanoseconds.
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("count", self.count);
            o.field("mean_ns", self.mean);
            o.field("p50_ns", self.p50);
            o.field("p90_ns", self.p90);
            o.field("p99_ns", self.p99);
            o.field("p999_ns", self.p999);
        });
    }
}

/// Five-number-style summary of a duration sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median (p50).
    pub median: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// Minimum.
    pub min: SimDuration,
    /// Maximum.
    pub max: SimDuration,
    /// Sum of all samples.
    pub total: SimDuration,
}

impl Summary {
    /// Summarizes `samples`; returns `None` when empty.
    pub fn of(samples: &[SimDuration]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let cdf = Cdf::from_durations(samples.to_vec());
        Some(Summary {
            count: cdf.len(),
            mean: cdf.mean(),
            median: cdf.quantile(0.5),
            p95: cdf.quantile(0.95),
            min: cdf.samples()[0],
            max: *cdf.samples().last().expect("non-empty"),
            total: samples.iter().copied().sum(),
        })
    }
}

/// Geometric mean of slowdown ratios — used when averaging per-app
/// slowdowns whose spread covers orders of magnitude (e.g. UVM-CC KET).
/// Non-finite and non-positive ratios are skipped.
pub fn geomean(ratios: &[f64]) -> f64 {
    let logs: Vec<f64> = ratios
        .iter()
        .copied()
        .filter(|r| r.is_finite() && *r > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        return f64::NAN;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Arithmetic mean of ratios (the paper's default "on average ×N" metric).
/// Non-finite entries are skipped.
pub fn mean_ratio(ratios: &[f64]) -> f64 {
    let vals: Vec<f64> = ratios.iter().copied().filter(|r| r.is_finite()).collect();
    if vals.is_empty() {
        return f64::NAN;
    }
    vals.iter().sum::<f64>() / vals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::json::Json;

    fn us(v: u64) -> SimDuration {
        SimDuration::micros(v)
    }

    #[test]
    fn quantiles_nearest_rank() {
        let cdf = Cdf::from_durations(vec![us(4), us(1), us(3), us(2)]);
        assert_eq!(cdf.quantile(0.0), us(1));
        assert_eq!(cdf.quantile(0.25), us(1));
        assert_eq!(cdf.quantile(0.5), us(2));
        assert_eq!(cdf.quantile(1.0), us(4));
    }

    #[test]
    fn mean_includes_all_points_trim_does_not() {
        let cdf = Cdf::from_durations(vec![us(1), us(1), us(1), us(1), us(1000)]);
        assert!(cdf.mean() > us(200));
        let trimmed = cdf.trim_top(1);
        assert_eq!(trimmed.len(), 4);
        assert_eq!(*trimmed.samples().last().unwrap(), us(1));
        // The paper's Fig. 11 note: averages are over untrimmed data.
        assert!(cdf.mean() > trimmed.mean());
    }

    #[test]
    fn points_are_monotone_in_both_axes() {
        let cdf = Cdf::from_durations((0..50).rev().map(us).collect());
        let pts = cdf.points();
        for pair in pts.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 < pair[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[us(1), us(2), us(3), us(4), us(90)]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.median, us(3));
        assert_eq!(s.min, us(1));
        assert_eq!(s.max, us(90));
        assert_eq!(s.total, us(100));
        assert_eq!(s.mean, us(20));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn geomean_handles_wide_spreads() {
        let g = geomean(&[1.0, 100.0]);
        assert!((g - 10.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!((geomean(&[2.0, f64::INFINITY, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mean_ratio_skips_nonfinite() {
        assert!((mean_ratio(&[1.0, 2.0, f64::NAN, 3.0]) - 2.0).abs() < 1e-12);
        assert!(mean_ratio(&[f64::NAN]).is_nan());
    }

    #[test]
    fn empty_quantile_is_defined() {
        let cdf = Cdf::from_durations(vec![]);
        for p in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(cdf.quantile(p), SimDuration::ZERO);
        }
        assert_eq!(cdf.mean(), SimDuration::ZERO);
    }

    #[test]
    fn single_sample_quantiles_are_that_sample() {
        let cdf = Cdf::from_durations(vec![us(7)]);
        for p in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(cdf.quantile(p), us(7), "p={p}");
        }
    }

    #[test]
    fn tail_quantiles_on_small_samples() {
        // 1000 samples 1..=1000 µs: nearest-rank p99 = 990, p999 = 999.
        let cdf = Cdf::from_durations((1..=1000).map(us).collect());
        assert_eq!(cdf.quantile(0.5), us(500));
        assert_eq!(cdf.quantile(0.99), us(990));
        assert_eq!(cdf.quantile(0.999), us(999));
        // Two samples: every p > 0.5 lands on the larger one.
        let two = Cdf::from_durations(vec![us(1), us(9)]);
        assert_eq!(two.quantile(0.99), us(9));
        assert_eq!(two.quantile(0.999), us(9));
        assert_eq!(two.quantile(0.5), us(1));
    }

    #[test]
    fn cdf_json_summarizes_quantiles() {
        let cdf = Cdf::from_durations((1..=100).map(us).collect());
        let doc = Json::parse(&cdf.to_json_string()).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(100));
        assert_eq!(doc.get("p50_ns").and_then(Json::as_u64), Some(50_000));
        assert_eq!(doc.get("p90_ns").and_then(Json::as_u64), Some(90_000));
        assert_eq!(doc.get("p99_ns").and_then(Json::as_u64), Some(99_000));
        assert_eq!(doc.get("p999_ns").and_then(Json::as_u64), Some(100_000));
        // Empty CDFs export zeros, not errors.
        let empty = Json::parse(&Cdf::from_durations(vec![]).to_json_string()).unwrap();
        assert_eq!(empty.get("count").and_then(Json::as_u64), Some(0));
        assert_eq!(empty.get("p999_ns").and_then(Json::as_u64), Some(0));
    }
}
