//! Order statistics over timing samples. Deliberately not
//! `canal_sim::stats`: the instrument must not change when the program under
//! test does.

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`);
/// 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile of an unsorted slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The host this runs on is shared: a neighbour slows everything by a
/// quarter to a third for seconds at a time, and never speeds anything up.
/// With noise that only adds, the chunks least disturbed say most about the
/// program, so rates are reported as the 90th percentile over chunks and
/// times as the 10th; a run needs only a tenth of its chunks undisturbed.
pub fn quiet_high(values: &[f64]) -> f64 {
    quantile(values, 0.9)
}

/// See [`quiet_high`].
pub fn quiet_low(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

/// `(p50, p90)` of one chunk of per-op nanosecond samples. Reorders `ns`.
pub fn chunk_percentiles(ns: &mut [u32]) -> (f64, f64) {
    if ns.is_empty() {
        return (0.0, 0.0);
    }
    let n = ns.len();
    let i90 = (n - 1) * 9 / 10;
    let (below, p90, _) = ns.select_nth_unstable(i90);
    let p90 = f64::from(*p90);
    if below.is_empty() {
        return (p90, p90);
    }
    let i50 = ((n - 1) / 2).min(below.len() - 1);
    let (_, p50, _) = below.select_nth_unstable(i50);
    (f64::from(*p50), p90)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn chunk_percentiles_match_a_full_sort() {
        let mut ns: Vec<u32> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let (p50, p90) = chunk_percentiles(&mut ns);
        assert_eq!((p50, p90), (499.0, 899.0));
    }
}
