//! Hop-level root-cause localization from assembled traces, the two
//! localizers the `trace` experiment compares head to head:
//!
//! * **Span evidence** ([`SpanEvidenceRca`]) — compare each hop's mean
//!   *exclusive* latency (from assembled traces' critical paths) against a
//!   calm-period baseline; the first window where a hop inflates past a
//!   multiplicative threshold names that hop directly. Because the baseline
//!   stands ready before the fault, one bad window suffices.
//! * **Trend correlation** ([`TrendHopRca`]) — correlate each hop's
//!   per-window exclusive-latency series with the end-to-end series. It
//!   must accumulate several post-onset windows before a Pearson
//!   correlation over hop series is even defined, let alone strong.
//!
//! The service-level pinpoint of the precise-scaling loop (§4.3) is not
//! here: [`crate::monitor::WaterLevelMonitor::ingest`] names the alerting
//! backend's top service.

use canal_sim::stats::pearson;
use canal_telemetry::HopSite;
use std::collections::BTreeMap;

/// Per-window hop evidence distilled from assembled traces: mean exclusive
/// milliseconds spent at each hop over the traces collected in one
/// monitoring window (the output of critical-path extraction).
#[derive(Debug, Clone, Default)]
pub struct HopWindowStats {
    /// Mean exclusive latency per hop, in milliseconds.
    pub hops: BTreeMap<HopSite, f64>,
}

/// Outcome of hop-level localization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanRcaVerdict {
    /// A hop named, after consuming `windows` post-onset windows. `score`
    /// is the inflation ratio (span evidence) or the Pearson correlation
    /// (trend formulation).
    Localized {
        /// The hop whose exclusive latency explains the regression.
        hop: HopSite,
        /// Post-onset windows consumed before the verdict (time to detect).
        windows: usize,
        /// Evidence strength.
        score: f64,
    },
    /// No hop stands out.
    Inconclusive,
}

/// Trace-driven localizer: a hop whose mean exclusive latency inflates past
/// `inflation`× its standing baseline is the culprit. Detects on the first
/// bad window because the baseline predates the fault.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvidenceRca {
    /// Multiplicative inflation over baseline that names a hop.
    pub(crate) inflation: f64,
    /// Ignore hops below this absolute level (ms) — noise floor.
    pub(crate) min_ms: f64,
}

impl Default for SpanEvidenceRca {
    fn default() -> Self {
        SpanEvidenceRca {
            inflation: 3.0,
            min_ms: 0.2,
        }
    }
}

impl SpanEvidenceRca {
    /// Scan post-onset windows (oldest first) against the calm baseline;
    /// the first window with an inflated hop localizes. Ties go to the
    /// largest inflation ratio.
    pub fn detect(
        &self,
        baseline: &BTreeMap<HopSite, f64>,
        windows: &[HopWindowStats],
    ) -> SpanRcaVerdict {
        for (w, stats) in windows.iter().enumerate() {
            let mut best: Option<(HopSite, f64)> = None;
            for (&hop, &ms) in &stats.hops {
                if ms < self.min_ms {
                    continue;
                }
                let base = baseline.get(&hop).copied().unwrap_or(0.0).max(1e-6);
                let ratio = ms / base;
                if ratio >= self.inflation && best.is_none_or(|(_, b)| ratio > b) {
                    best = Some((hop, ratio));
                }
            }
            if let Some((hop, score)) = best {
                return SpanRcaVerdict::Localized {
                    hop,
                    windows: w + 1,
                    score,
                };
            }
        }
        SpanRcaVerdict::Inconclusive
    }
}

/// The trend-correlation formulation applied to hops instead of services:
/// correlate each hop's per-window exclusive-latency series against the
/// end-to-end latency series and accept the strongest correlation. Needs at
/// least `min_windows` post-onset windows before Pearson is defined — the
/// head-to-head handicap the trace experiment measures.
#[derive(Debug, Clone, Copy)]
pub struct TrendHopRca {
    /// Minimum Pearson correlation to accept a culprit hop.
    pub(crate) min_correlation: f64,
    /// Minimum number of windows before correlating at all.
    pub(crate) min_windows: usize,
}

impl Default for TrendHopRca {
    fn default() -> Self {
        TrendHopRca {
            min_correlation: 0.8,
            min_windows: 3,
        }
    }
}

impl TrendHopRca {
    /// Consume windows one at a time (as a live monitor would) and return
    /// the earliest verdict: for each prefix of ≥ `min_windows` windows,
    /// correlate every hop's series with the total-latency series.
    pub fn detect(&self, windows: &[HopWindowStats], totals: &[f64]) -> SpanRcaVerdict {
        let n = windows.len().min(totals.len());
        let mut hops: Vec<HopSite> = Vec::new();
        for w in windows.iter().take(n) {
            for &h in w.hops.keys() {
                if !hops.contains(&h) {
                    hops.push(h);
                }
            }
        }
        for k in self.min_windows..=n {
            let mut best: Option<(HopSite, f64)> = None;
            for &hop in &hops {
                let series: Vec<f64> = windows
                    .iter()
                    .take(k)
                    .map(|w| w.hops.get(&hop).copied().unwrap_or(0.0))
                    .collect();
                let r = pearson(&series, &totals[..k]);
                if r >= self.min_correlation && best.is_none_or(|(_, b)| r > b) {
                    best = Some((hop, r));
                }
            }
            if let Some((hop, score)) = best {
                return SpanRcaVerdict::Localized {
                    hop,
                    windows: k,
                    score,
                };
            }
        }
        SpanRcaVerdict::Inconclusive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> BTreeMap<HopSite, f64> {
        [
            (HopSite::ClientNodeProxy, 0.3),
            (HopSite::Gateway, 0.5),
            (HopSite::App, 1.0),
        ]
        .into_iter()
        .collect()
    }

    /// Post-onset windows where the App hop inflates ~6× and the others
    /// wobble around baseline, plus the matching end-to-end totals.
    fn app_fault_windows() -> (Vec<HopWindowStats>, Vec<f64>) {
        let windows: Vec<HopWindowStats> = [
            [0.31, 0.52, 5.9],
            [0.29, 0.48, 6.2],
            [0.30, 0.51, 6.0],
            [0.32, 0.49, 6.1],
        ]
        .iter()
        .map(|&[np, gw, app]| {
            HopWindowStats {
                hops: [(HopSite::ClientNodeProxy, np), (HopSite::Gateway, gw), (HopSite::App, app)]
                    .into_iter()
                    .collect(),
            }
        })
        .collect();
        let totals = windows
            .iter()
            .map(|w| w.hops.values().sum::<f64>())
            .collect();
        (windows, totals)
    }

    #[test]
    fn span_evidence_localizes_on_first_window() {
        let (windows, _) = app_fault_windows();
        let v = SpanEvidenceRca::default().detect(&baseline(), &windows);
        match v {
            SpanRcaVerdict::Localized { hop, windows, score } => {
                assert_eq!(hop, HopSite::App);
                assert_eq!(windows, 1, "standing baseline ⇒ one window suffices");
                assert!(score > 5.0);
            }
            SpanRcaVerdict::Inconclusive => panic!("expected localization"),
        }
    }

    #[test]
    fn span_evidence_ignores_calm_windows() {
        let calm = HopWindowStats {
            hops: [(HopSite::ClientNodeProxy, 0.31), (HopSite::Gateway, 0.49), (HopSite::App, 1.05)]
                .into_iter()
                .collect(),
        };
        assert_eq!(
            SpanEvidenceRca::default().detect(&baseline(), &[calm]),
            SpanRcaVerdict::Inconclusive
        );
    }

    #[test]
    fn trend_hop_needs_minimum_windows() {
        let (windows, totals) = app_fault_windows();
        let trend = TrendHopRca::default();
        assert_eq!(
            trend.detect(&windows[..2], &totals[..2]),
            SpanRcaVerdict::Inconclusive,
            "pearson undefined below min_windows"
        );
        match trend.detect(&windows, &totals) {
            SpanRcaVerdict::Localized { hop, windows, .. } => {
                assert_eq!(hop, HopSite::App);
                assert!(windows >= 3);
            }
            SpanRcaVerdict::Inconclusive => panic!("expected eventual localization"),
        }
    }

    #[test]
    fn span_evidence_beats_trend_head_to_head() {
        let (windows, totals) = app_fault_windows();
        let span = SpanEvidenceRca::default().detect(&baseline(), &windows);
        let trend = TrendHopRca::default().detect(&windows, &totals);
        let (SpanRcaVerdict::Localized { windows: ws, .. }, SpanRcaVerdict::Localized { windows: wt, .. }) =
            (span, trend)
        else {
            panic!("both must localize on this data");
        };
        assert!(ws < wt, "span evidence ({ws}) must detect before trend ({wt})");
    }
}
