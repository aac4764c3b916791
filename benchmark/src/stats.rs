//! Medians, quartiles, the tail-percentile rule, and timing a call.

use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: always an observed
/// sample, never interpolated.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one operation.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance run computes spreads with. Fewer than two samples have no
/// spread: all three are the sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = v.len();
    let cut = |i: usize| -> f64 {
        // Position i * (n + 1) / 4, 1-based; the neighbours are clamped
        // to the samples but the weight is not, so two samples
        // extrapolate exactly as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Percentiles a tail may be reported at, highest first, in tenths of a
/// percent so that ranks are whole-number arithmetic (99.9 % of 10 000 is
/// rank 9 990, not 9 990.000000000002 rounded up).
const TAIL_LADDER_PER_MILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of the ladder that still has ten samples beyond
/// it, and its nearest-rank value: `p99` needs a thousand samples. With
/// fewer than twenty samples not even the median qualifies and the median
/// is returned, named as `50`.
pub fn tail_percentile(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    assert!(!v.is_empty(), "tail of no samples");
    for p in TAIL_LADDER_PER_MILLE {
        let rank = (p * v.len()).div_ceil(1000).clamp(1, v.len());
        if v.len() - rank >= 10 {
            return (p as f64 / 10.0, v[rank - 1]);
        }
    }
    (50.0, nearest_rank(&v, 50.0))
}

/// Nearest-rank median of latencies (an observed sample).
pub fn p50(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 50.0)
}

/// Median seconds of `f` over `iters` calls.
pub fn time_median<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Seconds per call of `f`, timing `batch` calls at a time (for calls too
/// short for one clock read each), median over `iters` batches.
pub fn time_batched<T>(iters: usize, batch: usize, mut f: impl FnMut() -> T) -> f64 {
    time_median(iters, || {
        for _ in 0..batch {
            black_box(f());
        }
    }) / batch as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q2 - 5.5).abs() < 1e-12, "{q2}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 1000 samples: p99 is rank 990, ten beyond it.
        assert_eq!(tail_percentile(&ramp(1000)), (99.0, 990.0));
        // 999 samples: p99 is rank 990 of 999, nine beyond -> p95.
        assert_eq!(tail_percentile(&ramp(999)).0, 95.0);
        // 10000 samples: p99.9 has ten beyond.
        assert_eq!(tail_percentile(&ramp(10_000)), (99.9, 9990.0));
        // 200 samples: p95 is rank 190, ten beyond.
        assert_eq!(tail_percentile(&ramp(200)), (95.0, 190.0));
        // 100 samples: p90 is rank 90, ten beyond.
        assert_eq!(tail_percentile(&ramp(100)), (90.0, 90.0));
        // 40 samples: p75 is rank 30, ten beyond.
        assert_eq!(tail_percentile(&ramp(40)), (75.0, 30.0));
        // 20 samples: the median is rank 10, ten beyond.
        assert_eq!(tail_percentile(&ramp(20)), (50.0, 10.0));
        // Fewer: nothing qualifies; the median is reported as such.
        assert_eq!(tail_percentile(&ramp(5)), (50.0, 3.0));
    }
}
