//! Root-cause analysis for precise scaling (§4.3).
//!
//! Two algorithms from the paper:
//!
//! * **Basic** — on an alerting backend, sample per-service RPS trends and
//!   correlate each top service's trend with the backend's water-level
//!   trend; the best-correlated, sufficiently-strong match is the culprit.
//! * **Intersection speculation** — when several backends alert together
//!   (a service's load balancing raises all its backends), intersect the
//!   service sets of the alerting backends; a singleton intersection names
//!   the culprit immediately. The paper runs this *once* up front and falls
//!   back to the basic algorithm when it is inconclusive — so does
//!   [`RootCauseAnalyzer::analyze`].
//!
//! Plus a third, trace-driven localizer built on `canal-telemetry`:
//!
//! * **Span evidence** ([`SpanEvidenceRca`]) — compare each hop's mean
//!   *exclusive* latency (from assembled traces' critical paths) against a
//!   calm-period baseline; the first window where a hop inflates past a
//!   multiplicative threshold names that hop directly. Because the baseline
//!   stands ready before the fault, one bad window suffices — whereas the
//!   trend-correlation formulation ([`TrendHopRca`]) must accumulate
//!   several post-onset windows before a Pearson correlation over hop
//!   series is even defined, let alone strong.

use canal_gateway::gateway::BackendId;
use canal_net::GlobalServiceId;
use canal_sim::stats::pearson;
use canal_telemetry::HopSite;
use std::collections::BTreeMap;

/// Trend samples for one backend: its water level over the last windows and
/// each top service's RPS over the same windows.
#[derive(Debug, Clone)]
pub struct BackendTrends {
    /// Backend id.
    pub backend: BackendId,
    /// Water-level samples (oldest first).
    pub water_level: Vec<f64>,
    /// Per-service RPS samples aligned with `water_level`.
    pub service_rps: BTreeMap<GlobalServiceId, Vec<f64>>,
}

/// Outcome of root-cause analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum RcaVerdict {
    /// A single service pinpointed, with its correlation score.
    Pinpointed(GlobalServiceId, f64),
    /// No service's trend matches the water level strongly enough.
    Inconclusive,
}

/// The analyzer.
#[derive(Debug, Clone, Copy)]
pub struct RootCauseAnalyzer {
    /// Minimum Pearson correlation to accept a culprit.
    pub min_correlation: f64,
}

impl Default for RootCauseAnalyzer {
    fn default() -> Self {
        RootCauseAnalyzer {
            min_correlation: 0.8,
        }
    }
}

impl RootCauseAnalyzer {
    /// The basic algorithm on one backend.
    pub(crate) fn basic(&self, trends: &BackendTrends) -> RcaVerdict {
        let mut best: Option<(GlobalServiceId, f64)> = None;
        for (&svc, rps) in &trends.service_rps {
            if rps.len() != trends.water_level.len() || rps.len() < 3 {
                continue;
            }
            let r = pearson(rps, &trends.water_level);
            if r >= self.min_correlation && best.is_none_or(|(_, b)| r > b) {
                best = Some((svc, r));
            }
        }
        match best {
            Some((svc, r)) => RcaVerdict::Pinpointed(svc, r),
            None => RcaVerdict::Inconclusive,
        }
    }

    /// The intersection speculation across simultaneously alerting backends:
    /// conclusive only when exactly one service is on *all* of them.
    pub(crate) fn intersection(&self, alerting: &[&BackendTrends]) -> RcaVerdict {
        if alerting.len() < 2 {
            return RcaVerdict::Inconclusive;
        }
        let mut common: Vec<GlobalServiceId> =
            alerting[0].service_rps.keys().copied().collect();
        for t in &alerting[1..] {
            common.retain(|s| t.service_rps.contains_key(s));
        }
        if common.len() == 1 {
            RcaVerdict::Pinpointed(common[0], 1.0)
        } else {
            RcaVerdict::Inconclusive
        }
    }

    /// The paper's combined procedure: try the intersection speculation once
    /// when multiple backends alert; fall back to the basic algorithm on the
    /// hottest backend.
    pub fn analyze(&self, alerting: &[&BackendTrends]) -> RcaVerdict {
        if alerting.is_empty() {
            return RcaVerdict::Inconclusive;
        }
        if alerting.len() >= 2 {
            if let v @ RcaVerdict::Pinpointed(..) = self.intersection(alerting) {
                return v;
            }
        }
        let hottest = alerting.iter().max_by(|a, b| {
            let wa = a.water_level.last().copied().unwrap_or(0.0);
            let wb = b.water_level.last().copied().unwrap_or(0.0);
            wa.total_cmp(&wb)
        });
        match hottest {
            Some(h) => self.basic(h),
            None => RcaVerdict::Inconclusive,
        }
    }
}

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
    pub inflation: f64,
    /// Ignore hops below this absolute level (ms) — noise floor.
    pub min_ms: f64,
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
    pub min_correlation: f64,
    /// Minimum number of windows before correlating at all.
    pub min_windows: usize,
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
    use canal_net::{ServiceId, TenantId};

    fn svc(i: u32) -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(1), ServiceId(i))
    }

    fn trends(backend: BackendId, entries: &[(u32, Vec<f64>)], water: Vec<f64>) -> BackendTrends {
        BackendTrends {
            backend,
            water_level: water,
            service_rps: entries
                .iter()
                .map(|(id, rps)| (svc(*id), rps.clone()))
                .collect(),
        }
    }

    #[test]
    fn basic_pinpoints_the_growing_service() {
        // Water level follows service 2's ramp; service 1 is flat.
        let water = vec![0.2, 0.35, 0.5, 0.65, 0.8];
        let t = trends(
            1,
            &[
                (1, vec![100.0, 101.0, 99.0, 100.0, 100.5]),
                (2, vec![100.0, 400.0, 700.0, 1000.0, 1300.0]),
            ],
            water,
        );
        let v = RootCauseAnalyzer::default().basic(&t);
        match v {
            RcaVerdict::Pinpointed(s, r) => {
                assert_eq!(s, svc(2));
                assert!(r > 0.95);
            }
            _ => panic!("expected pinpoint"),
        }
    }

    #[test]
    fn basic_is_inconclusive_when_nothing_correlates() {
        let t = trends(
            1,
            &[(1, vec![100.0, 99.0, 101.0, 100.0])],
            vec![0.2, 0.5, 0.3, 0.9],
        );
        assert_eq!(RootCauseAnalyzer::default().basic(&t), RcaVerdict::Inconclusive);
    }

    #[test]
    fn intersection_identifies_the_shared_service() {
        // Service 5 is the only one on both alerting backends.
        let a = trends(1, &[(5, vec![1.0]), (2, vec![1.0])], vec![0.9]);
        let b = trends(2, &[(5, vec![1.0]), (3, vec![1.0])], vec![0.85]);
        let v = RootCauseAnalyzer::default().intersection(&[&a, &b]);
        assert!(matches!(v, RcaVerdict::Pinpointed(s, _) if s == svc(5)));
    }

    #[test]
    fn intersection_inconclusive_when_overlap_is_not_singleton() {
        let a = trends(1, &[(5, vec![1.0]), (6, vec![1.0])], vec![0.9]);
        let b = trends(2, &[(5, vec![1.0]), (6, vec![1.0])], vec![0.85]);
        assert_eq!(
            RootCauseAnalyzer::default().intersection(&[&a, &b]),
            RcaVerdict::Inconclusive
        );
    }

    #[test]
    fn analyze_falls_back_to_basic_on_hottest_backend() {
        // Intersection ambiguous (two shared services), but the hottest
        // backend's water level tracks service 6.
        let ramp = vec![100.0, 300.0, 500.0, 700.0];
        let flat = vec![100.0, 100.0, 101.0, 100.0];
        let a = trends(
            1,
            &[(5, flat.clone()), (6, ramp.clone())],
            vec![0.3, 0.5, 0.7, 0.9],
        );
        let b = trends(2, &[(5, flat.clone()), (6, flat)], vec![0.2, 0.2, 0.2, 0.2]);
        let v = RootCauseAnalyzer::default().analyze(&[&a, &b]);
        assert!(matches!(v, RcaVerdict::Pinpointed(s, _) if s == svc(6)));
    }

    #[test]
    fn analyze_single_backend_skips_intersection() {
        let t = trends(
            1,
            &[(9, vec![10.0, 20.0, 30.0])],
            vec![0.3, 0.6, 0.9],
        );
        let v = RootCauseAnalyzer::default().analyze(&[&t]);
        assert!(matches!(v, RcaVerdict::Pinpointed(s, _) if s == svc(9)));
        assert_eq!(
            RootCauseAnalyzer::default().analyze(&[]),
            RcaVerdict::Inconclusive
        );
    }

    #[test]
    fn mismatched_sample_lengths_are_skipped() {
        let t = trends(1, &[(1, vec![1.0, 2.0])], vec![0.1, 0.2, 0.3]);
        assert_eq!(RootCauseAnalyzer::default().basic(&t), RcaVerdict::Inconclusive);
    }

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
