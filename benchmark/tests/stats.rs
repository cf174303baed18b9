//! The percentile rule and the spread the acceptance driver computes.

use dr_benchmark::stats::{median, percentile, quartile_spread, tail_percentile};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    // 200 lifecycle rounds support p95, 100 fan-out ticks p90.
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(39), None, "fewer than ten samples beyond p75");
    assert_eq!(tail_percentile(0), None);
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let samples = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(median(&samples), Some(2.5));
    assert_eq!(percentile(&samples, 0.0), Some(1.0));
    assert_eq!(percentile(&samples, 100.0), Some(4.0));
    assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartile_spread_matches_pythons_exclusive_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let spread = quartile_spread(&ten).expect("ten samples");
    assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "got {spread}");
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: two samples
    // extrapolate, as Python does.
    let two = quartile_spread(&[10.0, 20.0]).expect("two samples");
    assert!((two - 15.0 / 15.0).abs() < 1e-12, "got {two}");
    assert_eq!(quartile_spread(&[1.0]), None);
    assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None, "a zero median has no relative spread");
}
