//! The one nearest-rank quantile used everywhere in the trace crate.
//!
//! [`crate::Cdf::quantile`], [`crate::Histogram::quantile`], the
//! rollup windows and [`crate::Tail`] all take their ranks from here, so
//! the rank math can never drift between the views of the same latency
//! population. [`nearest_ranks`] reads the same ranks off an unsorted
//! population by selection, for callers that want a few quantiles and
//! not the sorted samples.

use hcc_types::SimDuration;

/// Zero-based index of the nearest-rank `p`-quantile in an
/// ascending-sorted population of `len` samples, or `None` when the
/// population is empty.
///
/// `p` is clamped to `[0, 1]`; the rank is `ceil(p * len)` clamped to
/// `[1, len]`, so `p = 0` selects the minimum and `p = 1` the maximum.
/// Integer rank math, no interpolation — quantiles are always a member
/// of the population, which keeps every tail figure bit-stable.
pub(crate) fn nearest_rank_index(len: usize, p: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let p = p.clamp(0.0, 1.0);
    let rank = ((p * len as f64).ceil() as usize).clamp(1, len);
    Some(rank - 1)
}

/// Nearest-rank `p`-quantile over an ascending-sorted duration slice;
/// `SimDuration::ZERO` when empty (no latency to report is data, not an
/// error).
pub fn nearest_rank(sorted: &[SimDuration], p: f64) -> SimDuration {
    nearest_rank_index(sorted.len(), p)
        .map(|i| sorted[i])
        .unwrap_or(SimDuration::ZERO)
}

/// Nearest-rank quantiles at each of `ps` (ascending) of an unsorted
/// duration population, by selection instead of a full sort: each rank
/// is selected from the sub-slice above the previous one, so `samples`
/// ends up partitioned around every selected rank. Every entry is
/// `SimDuration::ZERO` when `samples` is empty, exactly as
/// [`nearest_rank`] on the sorted population.
pub(crate) fn nearest_ranks<const N: usize>(
    samples: &mut [SimDuration],
    ps: [f64; N],
) -> [SimDuration; N] {
    let mut out = [SimDuration::ZERO; N];
    let mut lo = 0;
    for (slot, p) in out.iter_mut().zip(ps) {
        let Some(i) = nearest_rank_index(samples.len(), p) else {
            break;
        };
        debug_assert!(i + 1 >= lo, "quantiles must be ascending");
        if i < lo {
            // Same rank as the previous quantile: already in place.
            *slot = samples[i];
            continue;
        }
        *slot = *samples[lo..].select_nth_unstable(i - lo).1;
        lo = i + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_population_has_no_rank() {
        assert_eq!(nearest_rank_index(0, 0.5), None);
        assert_eq!(nearest_rank(&[], 0.999), SimDuration::ZERO);
    }

    #[test]
    fn rank_formula_matches_nearest_rank_definition() {
        // 4 samples: p=0.25 is the 1st, p=0.5 the 2nd, p=1.0 the 4th.
        assert_eq!(nearest_rank_index(4, 0.0), Some(0));
        assert_eq!(nearest_rank_index(4, 0.25), Some(0));
        assert_eq!(nearest_rank_index(4, 0.5), Some(1));
        assert_eq!(nearest_rank_index(4, 0.75), Some(2));
        assert_eq!(nearest_rank_index(4, 1.0), Some(3));
        // 1000 samples: p99 is rank 990, p999 rank 999.
        assert_eq!(nearest_rank_index(1000, 0.99), Some(989));
        assert_eq!(nearest_rank_index(1000, 0.999), Some(998));
    }

    #[test]
    fn out_of_range_p_clamps() {
        assert_eq!(nearest_rank_index(10, -3.0), Some(0));
        assert_eq!(nearest_rank_index(10, 7.5), Some(9));
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let one = [SimDuration::millis(7)];
        for p in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(nearest_rank(&one, p), SimDuration::millis(7), "p={p}");
        }
    }

    #[test]
    fn selection_matches_the_sorted_ranks() {
        let ps = [0.0, 0.5, 0.5, 0.9, 0.99, 0.999, 1.0];
        assert_eq!(nearest_ranks(&mut [], ps), [SimDuration::ZERO; 7]);
        for len in [1u64, 2, 7, 999, 1000, 1001] {
            // A scrambled population with ties: values repeat every 37.
            let mut samples: Vec<SimDuration> = (0..len)
                .map(|i| SimDuration::from_nanos(i * 7919 % len % 37))
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let want = ps.map(|p| nearest_rank(&sorted, p));
            assert_eq!(nearest_ranks(&mut samples, ps), want, "len {len}");
        }
    }

    #[test]
    fn two_samples_split_at_the_median() {
        let two = [SimDuration::micros(1), SimDuration::micros(9)];
        assert_eq!(nearest_rank(&two, 0.5), SimDuration::micros(1));
        assert_eq!(nearest_rank(&two, 0.51), SimDuration::micros(9));
        assert_eq!(nearest_rank(&two, 0.999), SimDuration::micros(9));
    }
}
