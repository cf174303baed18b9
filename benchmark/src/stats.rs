//! Order statistics for timing samples: median, quartiles, and the
//! "highest percentile with at least ten samples beyond it" tail rule.

/// The `p`-th percentile (0–100) of `samples`, linearly interpolated
/// between closest ranks. `None` on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples`; `None` on an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The arithmetic mean of `samples`; `None` on an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The mean of what is left after dropping the lowest and the highest
/// `trim` share of `samples` (each rounded down to whole samples). Smooth
/// like a mean where values are quantised, robust like a median where a few
/// are far out. `None` on an empty slice.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim.clamp(0.0, 0.49)).floor() as usize;
    mean(&sorted[cut..sorted.len() - cut])
}

/// The tail percentile a sample of size `n` supports: the highest of
/// p99.9 / p99 / p95 / p90 / p75 that leaves at least ten samples beyond
/// it. `None` when even p75 does not (fewer than 40 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per-mille, so that "ten beyond p99.9 of 10 000" is exact arithmetic.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10_000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Distance between the first and third quartile as a share of the median
/// (Python's `statistics.quantiles(values, n=4)` exclusive method, which is
/// what the acceptance driver computes). `None` below two samples or on a
/// zero median.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let med = median(&sorted)?;
    (med != 0.0).then(|| (quantile(3) - quantile(1)) / med.abs())
}
