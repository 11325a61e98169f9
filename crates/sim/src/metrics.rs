//! Metrics primitives used throughout the workspace.
//!
//! * [`Counter`] — monotonically increasing event count.
//! * [`Gauge`] — last-written value (e.g. instantaneous CPU utilization).
//! * [`Histogram`] — log-bucketed value distribution with quantile queries;
//!   resolution is ~4.6% per bucket (16 buckets per octave), bounded memory.
//! * [`TimeSeries`] — (time, value) samples for the timeline figures.

use crate::invariant::Digest;
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// Monotonic event counter.
#[derive(Debug, Default, Clone)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Add `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Fold the count (`value`) into a digest.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.value);
    }
}

/// Last-value gauge.
#[derive(Debug, Default, Clone)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    pub fn set(&mut self, v: f64) {
        self.value = v;
    }

    /// Add a delta (may be negative).
    pub fn adjust(&mut self, dv: f64) {
        self.value += dv;
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value
    }

    /// Fold the gauge (`value`, by bit pattern) into a digest.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_f64(self.value);
    }
}

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

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
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

    /// Exemplar attached to the bucket containing value `v`, if any.
    pub fn exemplar_for(&self, v: f64) -> Option<Exemplar> {
        self.exemplars.get(&Self::bucket_of(v.max(0.0))).copied()
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

    /// Merge another histogram into this one. Per bucket, the
    /// larger-valued exemplar survives.
    pub fn merge(&mut self, other: &Histogram) {
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
        for (&idx, e) in &other.exemplars {
            let keep = self.exemplars.get(&idx).is_none_or(|cur| {
                e.value > cur.value || (e.value == cur.value && e.trace_id < cur.trace_id)
            });
            if keep {
                self.exemplars.insert(idx, *e);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Fold the full distribution state into a digest: `count`, `sum`,
    /// raw `min`/`max` (bit patterns, including the empty-histogram
    /// infinities), every `buckets` cell and every `exemplars` entry.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.count)
            .write_f64(self.sum)
            .write_f64(self.min)
            .write_f64(self.max)
            .write_u64(self.buckets.len() as u64);
        for (&idx, &c) in &self.buckets {
            d.write_u64(idx as u64).write_u64(c);
        }
        d.write_u64(self.exemplars.len() as u64);
        for (&idx, e) in &self.exemplars {
            d.write_u64(idx as u64).write_f64(e.value).write_u64(e.trace_id);
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

/// (time, value) samples for timeline plots (Figs. 16, 18, 20).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    // lint:allow(bounded-state) reason=one sample per sampling period; the run horizon bounds the series
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// New empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample; samples must arrive in non-decreasing time order.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(last, _)| t >= last),
            "time series must be appended in order"
        );
        self.points.push((t, v));
    }

    /// All samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Largest value over the window `[from, to]` (None if no samples there).
    pub fn max_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        self.points
            .iter()
            .filter(|&&(t, _)| t >= from && t <= to)
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean value over the window `[from, to]` (None if no samples there).
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= from && t <= to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// First time at which the value satisfies `pred`, at or after `from`.
    pub fn first_time<F: Fn(f64) -> bool>(&self, from: SimTime, pred: F) -> Option<SimTime> {
        self.points
            .iter()
            .find(|&&(t, v)| t >= from && pred(v))
            .map(|&(t, _)| t)
    }

    /// Fold every sample in `points` into a digest (time then value).
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.points.len() as u64);
        for &(t, v) in &self.points {
            d.write_u64(t.as_nanos()).write_f64(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::new();
        g.set(3.5);
        g.adjust(-1.0);
        assert!((g.get() - 2.5).abs() < 1e-12);
    }

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
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..1000 {
            let v = (i * 7 % 503) as f64;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.quantile(0.9), whole.quantile(0.9));
        assert_eq!(a.max(), whole.max());
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
        let e = h.exemplar_for(p999.value).expect("bucket has exemplar");
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
    fn bucket_keeps_largest_exemplar_and_merge_prefers_larger() {
        let mut h = Histogram::new();
        // Same bucket (values within ~4.4%): the larger value wins.
        h.record_with_exemplar(100.0, Some(1));
        h.record_with_exemplar(101.0, Some(2));
        h.record_with_exemplar(99.0, Some(3));
        let e = h.exemplar_for(100.0).expect("exemplar");
        assert_eq!((e.value, e.trace_id), (101.0, 2));

        let mut other = Histogram::new();
        other.record_with_exemplar(102.0, Some(9));
        h.merge(&other);
        let e = h.exemplar_for(100.0).expect("exemplar");
        assert_eq!((e.value, e.trace_id), (102.0, 9));
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn timeseries_window_queries() {
        let mut s = TimeSeries::new();
        for i in 0..10u64 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(
            s.max_in(SimTime::from_secs(2), SimTime::from_secs(5)),
            Some(5.0)
        );
        assert_eq!(
            s.mean_in(SimTime::from_secs(0), SimTime::from_secs(3)),
            Some(1.5)
        );
        assert_eq!(
            s.first_time(SimTime::from_secs(4), |v| v > 6.0),
            Some(SimTime::from_secs(7))
        );
        assert_eq!(s.max_in(SimTime::from_secs(20), SimTime::from_secs(30)), None);
        assert_eq!(s.last(), Some(9.0));
    }
}
