//! Log-scale duration histograms — compact summaries of KLO/KET
//! distributions for terminal output (the textual cousin of Fig. 11).

use hcc_types::SimDuration;

/// A base-2 log-scale histogram over durations.
///
/// Bucket `i` covers `[2^i, 2^(i+1))` nanoseconds; bucket 0 additionally
/// absorbs zero-length samples.
///
/// ```
/// use hcc_trace::Histogram;
/// use hcc_types::SimDuration;
///
/// let mut h = Histogram::new();
/// h.record(SimDuration::micros(5));
/// h.record(SimDuration::micros(6));
/// h.record(SimDuration::millis(1));
/// assert_eq!(h.count(), 3);
/// assert!(h.render(20).contains('#'));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    total: SimDuration,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Builds a histogram from samples.
    pub fn from_durations<I: IntoIterator<Item = SimDuration>>(samples: I) -> Self {
        let mut h = Histogram::new();
        for s in samples {
            h.record(s);
        }
        h
    }

    fn bucket_of(d: SimDuration) -> usize {
        let ns = d.as_nanos();
        if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros()) as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        let idx = Self::bucket_of(d);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.total += d;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of every recorded sample (not bucket-quantized) — what
    /// a Prometheus `_sum` line must carry for rate math to be honest.
    pub(crate) fn total(&self) -> SimDuration {
        self.total
    }

    /// Mean sample.
    pub(crate) fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.total / self.count
        }
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub(crate) fn buckets(&self) -> Vec<(SimDuration, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (SimDuration::from_nanos(1u64 << i), *c))
            .collect()
    }

    /// Renders an ASCII histogram with bars up to `width` characters.
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let max = self.buckets.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return "(empty)\n".to_string();
        }
        for (lower, count) in self.buckets() {
            let bar_len = ((count as f64 / max as f64) * width as f64).ceil() as usize;
            let _ = writeln!(
                out,
                "{:>10} | {:<width$} {}",
                lower.to_string(),
                "#".repeat(bar_len),
                count,
                width = width
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(1));
        h.record(SimDuration::from_nanos(1023));
        h.record(SimDuration::from_nanos(1024));
        h.record(SimDuration::from_nanos(2047));
        let buckets = h.buckets();
        // 1ns -> bucket 0; 1023 -> bucket 9 (512..1024); 1024+2047 -> bucket 10.
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[2], (SimDuration::from_nanos(1024), 2));
    }

    #[test]
    fn zero_goes_to_bucket_zero() {
        let mut h = Histogram::new();
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.buckets()[0].0, SimDuration::from_nanos(1));
    }

    #[test]
    fn mean_and_count() {
        let h = Histogram::from_durations([SimDuration::micros(2), SimDuration::micros(4)]);
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), SimDuration::micros(3));
        assert_eq!(Histogram::new().mean(), SimDuration::ZERO);
    }

    #[test]
    fn render_scales_bars() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(SimDuration::micros(1));
        }
        h.record(SimDuration::millis(1));
        let text = h.render(20);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let hashes = |l: &str| l.matches('#').count();
        assert!(hashes(lines[0]) > hashes(lines[1]));
        assert_eq!(Histogram::new().render(10), "(empty)\n");
    }
}
