//! Order statistics over a run's samples.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so the spreads this benchmark
//! reports are the ones an outside script recomputes from the same
//! samples. Tail percentiles use nearest rank.

/// Median, quartiles and the reportable tail of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// The highest of p50/p90/p95/p99 with at least [`TAIL_DEPTH`]
    /// samples beyond it, as `(permille, value)`.
    pub tail: Option<(u32, f64)>,
}

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_DEPTH: usize = 10;

/// Candidate tail percentiles, in permille, highest first.
const TAILS: [u32; 4] = [990, 950, 900, 500];

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        let tail = tail_permille(sorted.len()).map(|p| (p, nearest_rank(&sorted, p)));
        Some(Summary {
            median: median(&sorted),
            q1,
            q3,
            n: sorted.len(),
            tail,
        })
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The highest candidate percentile with at least [`TAIL_DEPTH`] of `n`
/// samples strictly beyond its nearest-rank position.
pub fn tail_permille(n: usize) -> Option<u32> {
    TAILS
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= TAIL_DEPTH)
}

/// 1-based nearest-rank position of permille `p` among `n` samples,
/// in exact integer arithmetic (no float rounding at p95 × 200).
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(1000).max(1)
}

fn nearest_rank(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles, Python `statistics.quantiles` exclusive
/// method; a single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The median of `samples` (0 when empty).
pub fn median_of(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_deepest_percentile_with_ten_beyond() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
    }

    #[test]
    fn tail_value_is_the_nearest_rank_sample() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.tail, Some((950, 190.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().tail, Some((500, 10.0)));
    }
}
