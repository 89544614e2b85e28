//! Order statistics for the reported timings.

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Each job's smallest sample. `samples` holds whole passes one after
/// another, `jobs` samples each, job `j` at offset `j` of every pass.
///
/// # Panics
///
/// Panics when `jobs` is 0, `samples` is not a whole number of passes, or
/// a sample is NaN.
pub fn fastest_per_job(samples: &[f64], jobs: usize) -> Vec<f64> {
    assert!(
        jobs > 0 && samples.len().is_multiple_of(jobs),
        "{} samples are not whole passes of {jobs} jobs",
        samples.len()
    );
    assert!(samples.iter().all(|v| !v.is_nan()), "NaN sample");
    let mut passes = samples.chunks(jobs);
    let mut fastest = passes.next().map_or_else(Vec::new, <[f64]>::to_vec);
    for pass in passes {
        for (best, &v) in fastest.iter_mut().zip(pass) {
            *best = best.min(v);
        }
    }
    fastest
}

/// `hits / (hits + misses)`, or 0 when nothing was looked up.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples: the smallest
/// rank with at least `p`% of the samples at or below it. The slack keeps
/// binary rounding (99.9% of 10000 is 9990.000000000002) off the next rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100) of `values`: always one of the
/// samples, never an interpolation between two.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of `candidates` that still has at least `min_beyond`
/// samples beyond it among `n` samples, i.e. the highest tail percentile
/// the data can support.
pub fn highest_supported(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= min_beyond)
        .max_by(|a, b| a.partial_cmp(b).expect("NaN percentile"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fastest_per_job_takes_each_jobs_minimum_across_passes() {
        // Three passes of two jobs.
        let samples = [5.0, 9.0, 4.0, 11.0, 6.0, 8.0];
        assert_eq!(fastest_per_job(&samples, 2), [4.0, 8.0]);
        assert_eq!(fastest_per_job(&samples, 6), samples);
        assert!(fastest_per_job(&[], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "whole passes")]
    fn fastest_per_job_rejects_a_partial_pass() {
        fastest_per_job(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn nearest_rank_percentiles_pick_samples() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        // Five samples: p50 is rank ceil(2.5) = 3, p99 is rank 5.
        let five = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(percentile(&five, 50.0), 30.0);
        assert_eq!(percentile(&five, 99.0), 50.0);
        assert_eq!(percentile(&five, 20.0), 10.0);
        assert_eq!(percentile(&five, 21.0), 20.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9); // rank ceil(989.01) = 990
        assert_eq!(samples_beyond(100, 50.0), 50);
        assert_eq!(samples_beyond(0, 50.0), 0);
        assert_eq!(samples_beyond(3, 100.0), 0);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_beyond() {
        let candidates = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(10_000, &candidates, 10), Some(99.9));
        assert_eq!(highest_supported(9_999, &candidates, 10), Some(99.0));
        assert_eq!(highest_supported(1_000, &candidates, 10), Some(99.0));
        assert_eq!(highest_supported(990, &candidates, 10), Some(90.0));
        assert_eq!(highest_supported(20, &candidates, 10), Some(50.0));
        assert_eq!(highest_supported(19, &candidates, 10), None);
    }
}
