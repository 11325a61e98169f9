//! Small exact-statistics helpers for experiment post-processing.
//!
//! Unlike [`crate::metrics::Histogram`] (bounded-memory, bucketed), these
//! operate on full sample vectors and are exact — used where an experiment
//! keeps every sample anyway (e.g. CDFs for Fig. 17).

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Exact percentile with linear interpolation, `q` in `[0,1]`.
/// Returns 0 for empty input.
///
/// The two order statistics it interpolates between are found by selection,
/// not by sorting: rank `lo` by `select_nth_unstable_by`, and rank `lo + 1`
/// as the least of what selection left above it. Both are the values a full
/// sort under `total_cmp` puts at those ranks, bit for bit.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut scratch = xs.to_vec();
    let q = q.clamp(0.0, 1.0);
    let pos = q * (scratch.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut at_lo, above) = scratch.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return at_lo;
    }
    // `hi == lo + 1 <= len - 1`, so `above` is never empty.
    let at_hi = above.iter().copied().min_by(f64::total_cmp).unwrap_or(at_lo);
    let frac = pos - lo as f64;
    at_lo * (1.0 - frac) + at_hi * frac
}

/// Pearson correlation coefficient of two equal-length series
/// (0 if degenerate). Used by the hop trend localizer and Fig. 20.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx <= f64::EPSILON || vy <= f64::EPSILON {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_averages_and_is_zero_when_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert!((percentile(&xs, 0.25) - 2.0).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// The sort-based percentile `percentile` replaced: the reference it is
    /// held to bit for bit.
    fn percentile_by_sort(xs: &[f64], q: f64) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q = q.clamp(0.0, 1.0);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    #[test]
    fn percentile_by_selection_matches_the_sort_bit_for_bit() {
        let mut rng = crate::rng::SimRng::seed(0x5e1ec7);
        // Few distinct values, so duplicates are common, and every special
        // value `total_cmp` orders: both zeros, both infinities, both NaNs.
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN, 1.5, -1.5];
        let qs = [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0, f64::NAN];
        let mut cases = 0;
        for len in 1..=64 {
            for round in 0..8 {
                let xs: Vec<f64> = (0..len)
                    .map(|_| match round % 4 {
                        0 => rng.normal(0.0, 1e3),
                        1 => rng.index(4) as f64,
                        2 => specials[rng.index(specials.len())],
                        _ if rng.chance(0.3) => specials[rng.index(specials.len())],
                        _ => rng.lognormal(2.0, 1.0),
                    })
                    .collect();
                for q in qs.into_iter().chain([rng.f64()]) {
                    let (got, want) = (percentile(&xs, q), percentile_by_sort(&xs, q));
                    assert_eq!(got.to_bits(), want.to_bits(), "q {q} of {xs:?}: {got} vs {want}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 64 * 8 * 9);
    }

    #[test]
    fn pearson_detects_correlation() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-9);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-9);
        let flat = vec![3.0; 50];
        assert_eq!(pearson(&xs, &flat), 0.0);
    }
}
