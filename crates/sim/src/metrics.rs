//! Metrics primitives used throughout the workspace.
//!
//! * [`Histogram`] — log-bucketed value distribution with quantile queries;
//!   resolution is ~4.6% per bucket (16 buckets per octave), bounded memory.

use crate::invariant::Fold;
use std::collections::BTreeMap;
use std::fmt;

const BUCKETS_PER_OCTAVE: usize = 16;
const SUB_ONE_BUCKET: usize = 0;

/// A concrete observation attached to a histogram bucket, linking an
/// aggregate cell (say, a P999 latency) back to the trace that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// The recorded value.
    pub value: f64,
    /// Trace id of the request that produced it.
    pub trace_id: u64,
}

/// Log-bucketed histogram over non-negative f64 values.
///
/// Values below 1.0 land in a single underflow bucket; above that, each
/// octave is split into 16 geometric sub-buckets (≈4.4% relative error),
/// which is ample for latency distributions spanning ns..minutes when the
/// caller feeds nanoseconds or microseconds.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: BTreeMap<usize, u64>,
    exemplars: BTreeMap<usize, Exemplar>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: BTreeMap::new(),
            exemplars: BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(v: f64) -> usize {
        if v < 1.0 {
            return SUB_ONE_BUCKET;
        }
        // log2(v) * 16, +1 so bucket 0 stays the underflow bucket.
        (v.log2() * BUCKETS_PER_OCTAVE as f64).floor() as usize + 1
    }

    fn bucket_upper(idx: usize) -> f64 {
        if idx == SUB_ONE_BUCKET {
            1.0
        } else {
            2f64.powf(idx as f64 / BUCKETS_PER_OCTAVE as f64)
        }
    }

    /// Record one observation. Negative values are clamped to zero.
    pub fn record(&mut self, v: f64) {
        self.record_with_exemplar(v, None);
    }

    /// Record one observation, optionally tagged with the trace that
    /// produced it. Each bucket keeps its largest tagged observation as the
    /// exemplar (largest, so tail cells point at genuinely slow traces; and
    /// a deterministic choice, so digests stay stable).
    pub fn record_with_exemplar(&mut self, v: f64, trace_id: Option<u64>) {
        let v = v.max(0.0);
        let idx = Self::bucket_of(v);
        *self.buckets.entry(idx).or_insert(0) += 1;
        if let Some(trace_id) = trace_id {
            let candidate = Exemplar { value: v, trace_id };
            let keep = self
                .exemplars
                .get(&idx)
                .is_none_or(|cur| v > cur.value || (v == cur.value && trace_id < cur.trace_id));
            if keep {
                self.exemplars.insert(idx, candidate);
            }
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 for an empty histogram.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Quantile in `[0,1]`, e.g. `0.99` for P99. Returns the upper bound of
    /// the bucket containing the requested rank (clamped to observed max),
    /// or 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        match self.quantile_bucket(q) {
            None => 0.0,
            Some(idx) => Self::bucket_upper(idx).min(self.max).max(self.min),
        }
    }

    /// The bucket index holding the quantile-`q` rank (None if empty).
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&idx, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Some(idx);
            }
        }
        self.buckets.keys().next_back().copied()
    }

    /// Exemplar for the quantile-`q` cell: the tagged observation from the
    /// bucket holding that rank, or failing that from the nearest higher
    /// bucket (tail cells should link to a genuinely slow trace), then the
    /// nearest lower one. None if no observation was ever tagged.
    pub fn exemplar_at(&self, q: f64) -> Option<Exemplar> {
        let idx = self.quantile_bucket(q)?;
        if let Some(e) = self.exemplars.get(&idx) {
            return Some(*e);
        }
        if let Some((_, e)) = self.exemplars.range(idx..).next() {
            return Some(*e);
        }
        self.exemplars.range(..idx).next_back().map(|(_, e)| *e)
    }

    /// Fold the full distribution state into a digest: `count`, `sum`,
    /// raw `min`/`max` (bit patterns, including the empty-histogram
    /// infinities), every `buckets` cell and every `exemplars` entry.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { buckets, exemplars, count, sum, min, max } = self;
        f.count("count", *count)
            .write_f64(*sum)
            .write_f64(*min)
            .write_f64(*max)
            .write_u64(buckets.len() as u64);
        for (&idx, &c) in buckets {
            f.write_u64(idx as u64).write_u64(c);
        }
        f.write_u64(exemplars.len() as u64);
        for (&idx, e) in exemplars {
            f.write_u64(idx as u64).write_f64(e.value).write_u64(e.trace_id);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} p50={:.2} p90={:.2} p99={:.2} max={:.2}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.9),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_error() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Bucket resolution is ~4.4%; allow 6%.
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.06, "p50 {p50}");
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.06, "p99 {p99}");
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 10_000.0);
        assert!((h.mean() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_empty_and_edge_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);

        let mut h = Histogram::new();
        h.record(42.0);
        assert_eq!(h.quantile(0.0), h.quantile(1.0));
        assert!(h.quantile(0.5) >= 42.0 * 0.95 && h.quantile(0.5) <= 42.0 * 1.05);
    }

    #[test]
    fn histogram_sub_one_values() {
        let mut h = Histogram::new();
        h.record(0.25);
        h.record(0.5);
        h.record(-3.0); // clamps to 0
        assert_eq!(h.count(), 3);
        assert!(h.quantile(0.5) <= 1.0);
    }

    #[test]
    fn exemplar_links_quantile_cell_to_trace() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record_with_exemplar(i as f64, Some(i));
        }
        let p999 = h.exemplar_at(0.999).expect("tagged observations exist");
        // The P999 cell's exemplar is a genuinely slow trace.
        assert!(p999.value >= 950.0, "p999 exemplar {p999:?}");
        assert_eq!(p999.trace_id, p999.value as u64);
        // Bucket lookup by value round-trips.
        let e = h.exemplars.get(&Histogram::bucket_of(p999.value)).copied().expect("bucket has exemplar");
        assert_eq!(e.trace_id, p999.trace_id);
    }

    #[test]
    fn untagged_observations_leave_no_exemplar() {
        let mut h = Histogram::new();
        h.record(5.0);
        h.record_with_exemplar(7.0, None);
        assert!(h.exemplar_at(0.5).is_none());
        // One tagged value serves every cell via nearest-bucket fallback.
        h.record_with_exemplar(100.0, Some(42));
        assert_eq!(h.exemplar_at(0.0).map(|e| e.trace_id), Some(42));
        assert_eq!(h.exemplar_at(1.0).map(|e| e.trace_id), Some(42));
    }

    #[test]
    fn bucket_keeps_largest_exemplar() {
        let mut h = Histogram::new();
        // Same bucket (values within ~4.4%): the larger value wins.
        h.record_with_exemplar(100.0, Some(1));
        h.record_with_exemplar(101.0, Some(2));
        h.record_with_exemplar(99.0, Some(3));
        let e = h.exemplars.get(&Histogram::bucket_of(100.0)).copied().expect("exemplar");
        assert_eq!((e.value, e.trace_id), (101.0, 2));
    }
}
