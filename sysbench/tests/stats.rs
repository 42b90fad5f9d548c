//! The percentile rule: median plus the highest percentile with at least
//! ten samples beyond it, with the sample count; and the quartiles `aa`
//! judges spread by.

use squatphi_sysbench::stats::{
    median, percentile, quartiles, spread, summarize, tail_for, MIN_BEYOND,
};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_for(0), None);
    assert_eq!(tail_for(99), None, "p90 of 99 leaves 9 beyond");
    assert_eq!(tail_for(100).map(|t| t.1), Some("p90"));
    assert_eq!(tail_for(999).map(|t| t.1), Some("p90"));
    assert_eq!(tail_for(1_000).map(|t| t.1), Some("p99"));
    assert_eq!(tail_for(8_000).map(|t| t.1), Some("p99"));
    assert_eq!(tail_for(10_000).map(|t| t.1), Some("p99.9"));
    assert_eq!(tail_for(100_000).map(|t| t.1), Some("p99.99"));
}

#[test]
fn summary_reports_count_median_and_supported_tail() {
    let values: Vec<f64> = (1..=1_000).map(f64::from).collect();
    let s = summarize(&values);
    assert_eq!(s.n, 1_000);
    assert_eq!(s.p50, 500.5);
    let (label, p99) = s.tail.expect("1000 samples support p99");
    assert_eq!(label, "p99");
    assert_eq!(p99, 990.0);
    assert!(values.iter().filter(|v| **v > p99).count() >= MIN_BEYOND);

    let few = summarize(&[3.0, 1.0, 2.0]);
    assert_eq!((few.n, few.p50, few.tail), (3, 2.0, None));
}

#[test]
fn median_and_percentile_on_small_inputs() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[4.0]), 4.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert_eq!(percentile(&sorted, 0.5), 3.0);
    assert_eq!(percentile(&sorted, 1.0), 5.0);
    assert_eq!(percentile(&sorted, 0.0), 1.0);
}

/// Reference values from Python:
/// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` is
/// `[2.75, 5.5, 8.25]` and `quantiles([10, 12], n=4)` is `[9.5, 11.0, 12.5]`.
#[test]
fn quartiles_match_python_statistics_quantiles() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[12.0, 10.0]), [9.5, 11.0, 12.5]);
    assert_eq!(spread(&ten), 1.0);
    assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
}
