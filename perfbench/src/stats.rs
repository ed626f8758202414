//! Quantiles over exact samples and over the simulator's log-linear
//! histograms.

use ps2::simnet::metrics::{bucket_upper_bound, VtHistogram};

/// Quantile `q` of `vals` with linear interpolation between order
/// statistics (the common "type 7" definition). Zero when empty.
pub fn quantile(vals: &[f64], q: f64) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    let mut v = vals.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(vals: &[f64]) -> f64 {
    quantile(vals, 0.5)
}

/// Quantile `q` of a histogram in nanoseconds, interpolated linearly inside
/// the bucket that holds the target rank and clamped to the observed range.
///
/// The library's own `quantile_ns` reports the bucket's upper bound, which
/// snaps every run whose tail lands in the same ~3% bucket to one value;
/// interpolating keeps the estimate inside that bucket but lets it follow
/// the sample counts. Zero for an absent or empty histogram.
pub fn hist_quantile_ns(h: Option<&VtHistogram>, q: f64) -> f64 {
    let Some(h) = h else { return 0.0 };
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * count as f64).max(1.0);
    let mut seen = 0u64;
    for (k, c) in h.sparse_buckets() {
        let k = k as usize;
        if (seen + c) as f64 >= rank {
            let lo = if k == 0 {
                0.0
            } else {
                bucket_upper_bound(k - 1) as f64 + 1.0
            };
            let hi = bucket_upper_bound(k) as f64 + 1.0;
            let v = lo + (hi - lo) * (rank - seen as f64) / c as f64;
            return v.clamp(h.min_ns() as f64, h.max_ns() as f64);
        }
        seen += c;
    }
    h.max_ns() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2::SimTime;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn hist_quantile_stays_inside_the_bucket_and_range() {
        let mut h = VtHistogram::default();
        for ns in [1000u64, 1010, 1020, 5000] {
            h.observe(SimTime(ns));
        }
        let p50 = hist_quantile_ns(Some(&h), 0.5);
        assert!((1000.0..=1031.0).contains(&p50), "{p50}");
        assert_eq!(hist_quantile_ns(Some(&h), 1.0), 5000.0);
        assert_eq!(hist_quantile_ns(None, 0.5), 0.0);
    }
}
