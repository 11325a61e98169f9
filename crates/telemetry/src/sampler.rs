//! Head and tail sampling decisions.
//!
//! **Head sampling** is decided once per trace at the root and propagated in
//! the [`TraceContext`](canal_net::TraceContext): a keyed hash of the trace
//! id against the configured rate. Hashing (rather than a per-site coin
//! flip) means every recording site — and a second run with the same salt —
//! reaches the same decision, which is both how real tracers behave and what
//! the digest-stability contract requires. The salt comes from a
//! *caller-supplied* [`SimRng`] (the `seed-dataflow` lint rule polices the
//! seeding dataflow): the sampler never seeds its own generator.
//!
//! **Tail sampling** runs at the collector after a trace completes: error
//! traces and the slowest percentile are always kept, whatever the head
//! decision, by retrieving their spans from the per-site ring buffers. The
//! slowness threshold is a running quantile of completed-trace latency, so
//! it needs no a-priori SLO.
//!
//! The gateway's brownout controller can *shed* head sampling entirely
//! ([`HeadSampler::set_shed`]); while shed, decisions are forced negative
//! and the per-span recording cost is refunded to the request path (see
//! [`TelemetryMeter`](crate::TelemetryMeter)).

use canal_sim::{Fold, Histogram, SimDuration, SimRng};

/// Deterministic, propagation-consistent head sampler.
#[derive(Debug, Clone)]
pub struct HeadSampler {
    rate: f64,
    salt: u64,
    shed: bool,
    offered: u64,
    kept: u64,
    shed_refused: u64,
}

impl HeadSampler {
    /// Sampler keeping ~`rate` of traces. The hash salt is drawn from the
    /// caller's `rng` so the whole run is reproducible from one seed.
    pub fn new(rate: f64, rng: &mut SimRng) -> Self {
        HeadSampler {
            rate: rate.clamp(0.0, 1.0),
            salt: rng.u64(),
            shed: false,
            offered: 0,
            kept: 0,
            shed_refused: 0,
        }
    }

    /// splitmix64 finalizer: maps (salt, trace id) to a uniform-ish u64.
    fn mix(salt: u64, trace_id: u64) -> u64 {
        let mut z = salt ^ trace_id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The pure decision: would this trace be head-sampled (ignoring shed)?
    /// Every site carrying the same salt agrees.
    pub(crate) fn would_sample(&self, trace_id: u64) -> bool {
        // Top 53 bits → uniform in [0,1); compare against the rate.
        let u = (Self::mix(self.salt, trace_id) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.rate
    }

    /// Record a root-level decision for `trace_id`. While shed, decisions
    /// are forced negative and counted separately.
    pub fn decide(&mut self, trace_id: u64) -> bool {
        self.offered += 1;
        if self.shed {
            self.shed_refused += 1;
            return false;
        }
        let keep = self.would_sample(trace_id);
        if keep {
            self.kept += 1;
        }
        keep
    }

    /// Enter/leave observability shedding (brownout integration).
    pub fn set_shed(&mut self, shed: bool) {
        self.shed = shed;
    }

    /// Whether sampling is currently shed.
    pub fn is_shed(&self) -> bool {
        self.shed
    }

    /// Achieved head-sampling rate over non-shed decisions.
    pub fn achieved_rate(&self) -> f64 {
        let eligible = self.offered - self.shed_refused;
        if eligible == 0 {
            0.0
        } else {
            self.kept as f64 / eligible as f64
        }
    }

    /// Fold the sampler: its `rate` and `salt`, whether it is `shed`, and
    /// the `offered`, `kept` and `shed_refused` decision counters.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { rate, salt, shed, offered, kept, shed_refused } = self;
        f.write_f64(*rate).write_u64(*salt).write_u64(u64::from(*shed));
        f.count("offered", *offered).count("kept", *kept).count("shed_refused", *shed_refused);
    }
}

/// Collector-side tail policy: keep errors and the slowest percentile.
#[derive(Debug, Clone)]
pub struct TailPolicy {
    slow_quantile: f64,
    warmup: u64,
    totals_ms: Histogram,
    kept_error: u64,
    kept_slow: u64,
    kept_warmup: u64,
    dropped: u64,
}

impl TailPolicy {
    /// Keep traces at or above `slow_quantile` of the running completed-trace
    /// latency distribution (plus all errors). Until `warmup` traces have
    /// completed the quantile estimate is untrusted and everything is kept.
    pub fn new(slow_quantile: f64, warmup: u64) -> Self {
        TailPolicy {
            slow_quantile: slow_quantile.clamp(0.0, 1.0),
            warmup,
            totals_ms: Histogram::new(),
            kept_error: 0,
            kept_slow: 0,
            kept_warmup: 0,
            dropped: 0,
        }
    }

    /// Decide whether a completed trace (end-to-end `total`, error flag)
    /// must be retained by the tail stage. Also feeds the running latency
    /// distribution.
    pub fn keep(&mut self, total: SimDuration, error: bool) -> bool {
        let ms = total.as_millis_f64();
        // Threshold from traces completed *before* this one.
        let verdict = if error {
            self.kept_error += 1;
            true
        } else if self.totals_ms.count() < self.warmup {
            self.kept_warmup += 1;
            true
        } else if ms >= self.totals_ms.quantile(self.slow_quantile) {
            self.kept_slow += 1;
            true
        } else {
            self.dropped += 1;
            false
        };
        self.totals_ms.record(ms);
        verdict
    }

    /// Fold the policy state into a digest: the configuration, the running
    /// `totals_ms` latency distribution, and the
    /// `kept_error`/`kept_slow`/`kept_warmup`/`dropped` verdict counters.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { slow_quantile, warmup, totals_ms, kept_error, kept_slow, kept_warmup, dropped } =
            self;
        f.write_f64(*slow_quantile).write_u64(*warmup);
        f.scope("totals_ms", |f| totals_ms.fold(f));
        f.count("kept_error", *kept_error)
            .count("kept_slow", *kept_slow)
            .count("kept_warmup", *kept_warmup)
            .count("dropped", *dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_sim::Stats;

    #[test]
    fn head_decisions_are_salt_deterministic_and_site_consistent() {
        let mut rng = SimRng::seed(7);
        let a = HeadSampler::new(0.02, &mut rng);
        let mut rng2 = SimRng::seed(7);
        let b = HeadSampler::new(0.02, &mut rng2);
        for id in 1..2000u64 {
            assert_eq!(a.would_sample(id), b.would_sample(id));
        }
    }

    #[test]
    fn head_rate_is_close_to_configured() {
        let mut rng = SimRng::seed(11);
        let mut s = HeadSampler::new(0.02, &mut rng);
        for id in 1..=50_000u64 {
            s.decide(id);
        }
        let rate = s.achieved_rate();
        assert!(rate > 0.015 && rate < 0.025, "rate {rate}");
    }

    #[test]
    fn shed_forces_negative_and_counts() {
        let mut rng = SimRng::seed(3);
        let mut s = HeadSampler::new(1.0, &mut rng);
        assert!(s.decide(1));
        s.set_shed(true);
        assert!(!s.decide(2));
        assert!(s.is_shed());
        s.set_shed(false);
        assert!(s.decide(3));
        let stats = Stats::of(|f| s.fold(f));
        assert_eq!(stats.get("shed_refused"), Some(1));
        assert_eq!(stats.get("kept"), Some(2));
        assert_eq!(stats.get("offered"), Some(3));
    }

    #[test]
    fn tail_keeps_errors_and_slowest() {
        let mut tail = TailPolicy::new(0.99, 100);
        // Warmup: everything kept.
        for i in 0..100u64 {
            assert!(tail.keep(SimDuration::from_millis(1 + i % 100), false));
        }
        // Steady state: fast+clean traces dropped, errors kept, slow kept.
        let mut dropped = 0;
        for i in 0..1000u64 {
            if !tail.keep(SimDuration::from_millis(1 + i % 100), false) {
                dropped += 1;
            }
        }
        assert!(dropped > 900, "fast clean traces mostly dropped: {dropped}");
        assert!(tail.keep(SimDuration::from_millis(1), true), "error kept");
        assert!(tail.keep(SimDuration::from_millis(500), false), "slow kept");
        assert_eq!(tail.kept_error, 1);
        assert!(tail.kept_slow >= 1);
    }
}
