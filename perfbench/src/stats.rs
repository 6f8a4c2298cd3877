//! Order statistics, the tail-percentile rule, and the metric-name rule.

/// A percentile is only reported when at least this many samples lie
/// beyond it, so one outlier cannot be the whole tail.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `xs` for `q` in `[0, 1]` (`q = 0.5` is the
/// lower median); NaN for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// Median of `xs` (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// One-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// True when `n` samples support reporting the `q` percentile.
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_TAIL
}

/// Metric names are 1–64 characters of `[A-Za-z0-9_.-]`, starting with
/// a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_name_rule() {
        for good in [
            "rounds_per_s",
            "nn.0.conv2d.fwd_us",
            "tensor.gemm_gflops",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".lead", "_lead", "sp ace", "slash/no", "unit%", &long] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
