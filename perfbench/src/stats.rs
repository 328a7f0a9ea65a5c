//! The benchmark's own arithmetic: order statistics, the reportable
//! percentile and the error-rate base. Span arithmetic lives in
//! `spans.rs`.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over the non-empty `groups` of `f` of each; `None` when all
/// are empty.
pub fn median_over<T>(groups: &[Vec<T>], f: impl Fn(&[T]) -> f64) -> Option<f64> {
    let per: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| f(g))
        .collect();
    (!per.is_empty()).then(|| median(&per))
}

/// First and third quartile, as Python's `statistics.quantiles(xs, n=4)`
/// computes them (its default "exclusive" method). With one value both
/// quartiles are that value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of an ascending slice; `pm` is the percentile
/// in per-ten-thousand (9900 = p99).
pub fn percentile(sorted: &[u64], pm: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    sorted[rank(sorted.len() as u64, pm).max(1) as usize - 1]
}

/// 1-based nearest rank of percentile `pm` (per ten thousand) among `n`.
fn rank(n: u64, pm: u64) -> u64 {
    (pm * n).div_ceil(10_000)
}

/// Percentiles the benchmark may report, highest first, per ten thousand.
const LADDER: [u64; 5] = [9999, 9990, 9900, 9000, 5000];

/// The highest percentile on [`LADDER`] that keeps at least ten samples
/// beyond it among `n`, in per-ten-thousand; `None` when not even the
/// median does.
pub fn highest_supported(n: u64) -> Option<u64> {
    LADDER.into_iter().find(|&pm| n - rank(n, pm) >= 10)
}

/// Whether a repeated timing wants another sample: always below `min`
/// samples, never at `max`, and in between while the samples so far
/// took less than `budget_s` in total (cheap timings get more samples,
/// so their median steadies; costly ones stop at `min`).
pub fn want_more(samples: &[f64], min: usize, max: usize, budget_s: f64) -> bool {
    let n = samples.len();
    n < min || (n < max && samples.iter().sum::<f64>() < budget_s)
}

/// Median of the values measured in the quieter half of the samples:
/// `samples` are `(value, noise)` pairs (here a timing and the host
/// steal time during it); the values whose noise is at most the median
/// noise are kept.
pub fn quiet_median(samples: &[(f64, f64)]) -> f64 {
    let noise: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let cut = median(&noise);
    let quiet: Vec<f64> = samples.iter().filter(|s| s.1 <= cut).map(|s| s.0).collect();
    median(&quiet)
}

/// Indices of the `keep` least noisy samples, plus every sample tied
/// with the noisiest of them, in index order. Noise is counted in whole
/// ticks, so ties are common; keeping all of them means a noise-free run
/// uses every sample instead of the first `keep`.
pub fn quietest(noise: &[u64], keep: usize) -> Vec<usize> {
    let mut sorted = noise.to_vec();
    sorted.sort_unstable();
    let Some(&cut) = sorted.get(keep.min(sorted.len()).saturating_sub(1)) else {
        return Vec::new();
    };
    (0..noise.len()).filter(|&k| noise[k] <= cut).collect()
}

/// Failed requests over every request attempted. The base is what was
/// attempted, not what was answered, so a request that never got a reply
/// counts against the rate instead of vanishing from it.
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    assert!(failed <= attempted, "more failures than attempts");
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_over_groups_ignores_a_stretched_minority() {
        let p90 = |v: &[u64]| percentile(v, 9000) as f64;
        let calm: Vec<u64> = (1..=100).collect();
        let stretched: Vec<u64> = (1..=100).map(|x| x * 10).collect();
        let mut groups = vec![calm.clone(); 7];
        groups.extend(vec![stretched; 3]);
        groups.push(Vec::new());
        assert_eq!(median_over(&groups, p90), Some(90.0));
        // Pooling the same samples lets the stretched groups pull p90 up.
        let mut pooled: Vec<u64> = groups.concat();
        pooled.sort_unstable();
        assert!(percentile(&pooled, 9000) > 90);
        assert_eq!(median_over(&[Vec::<u64>::new()], p90), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 5000), 50);
        assert_eq!(percentile(&xs, 9900), 99);
        assert_eq!(percentile(&xs, 10_000), 100);
        assert_eq!(percentile(&[42], 9900), 42);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(5000));
        assert_eq!(highest_supported(100), Some(9000));
        assert_eq!(highest_supported(999), Some(9000));
        assert_eq!(highest_supported(1000), Some(9900));
        assert_eq!(highest_supported(9_999), Some(9900));
        assert_eq!(highest_supported(10_000), Some(9990));
        assert_eq!(highest_supported(100_000), Some(9999));
        // The definition itself: at least ten samples strictly beyond.
        for n in [20u64, 57, 1000, 4321, 123_456] {
            let pm = highest_supported(n).unwrap();
            assert!(n - rank(n, pm) >= 10, "n={n} pm={pm}");
        }
    }

    #[test]
    fn want_more_repeats_cheap_timings_up_to_the_cap() {
        assert!(want_more(&[], 3, 25, 1.0));
        assert!(want_more(&[5.0, 5.0], 3, 25, 1.0), "below the minimum");
        assert!(
            !want_more(&[5.0, 5.0, 5.0], 3, 25, 1.0),
            "over budget at the minimum"
        );
        assert!(want_more(&[0.01; 3], 3, 25, 1.0), "cheap: keep going");
        assert!(!want_more(&[0.01; 25], 3, 25, 1.0), "capped");
    }

    #[test]
    fn quiet_median_keeps_the_less_disturbed_half() {
        // The two samples taken under heavy steal are ignored.
        let s = [(1.0, 0.0), (9.0, 0.5), (1.2, 0.01), (8.0, 0.4), (1.1, 0.0)];
        assert_eq!(quiet_median(&s), 1.1);
        // Without noise every sample counts.
        assert_eq!(quiet_median(&[(3.0, 0.0), (1.0, 0.0), (2.0, 0.0)]), 2.0);
    }

    #[test]
    fn quietest_keeps_every_tie() {
        assert_eq!(quietest(&[5, 0, 3, 0, 9], 2), vec![1, 3]);
        // The third-quietest is tied three ways: all three stay.
        assert_eq!(quietest(&[2, 1, 2, 0, 2, 7], 3), vec![0, 1, 2, 3, 4]);
        // No noise at all: every sample is kept, not the first `keep`.
        assert_eq!(quietest(&[0; 6], 2), (0..6).collect::<Vec<_>>());
        assert_eq!(quietest(&[4, 1], 5), vec![0, 1]);
        assert!(quietest(&[], 3).is_empty());
    }

    #[test]
    fn error_rate_counts_against_attempts_not_replies() {
        // 1000 sent, 990 answered Ok, 6 errors and 4 never answered:
        // all 10 count, over the 1000 attempted.
        assert_eq!(error_rate(10, 1000), 0.01);
        assert_eq!(error_rate(0, 5), 0.0);
        assert_eq!(error_rate(5, 5), 1.0);
    }
}
