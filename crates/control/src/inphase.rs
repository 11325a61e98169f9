//! Traffic-pattern monitoring and in-phase service migration (§4.2
//! "Traffic pattern monitoring", §6.3).
//!
//! Services sharing a backend whose daily peaks coincide defeat peak
//! shaving: CPU surges when they all peak together. The planner:
//!
//! 1. **Detects** phase synchronization by correlating services' 24-hour
//!    RPS series.
//! 2. **Selects services to migrate** — higher RPS first (fewer moves,
//!    HTTPS weighted 3× per the paper's resource observation), fewer
//!    long-lived sessions first (faster drain).
//! 3. **Selects target backends** by the paper's exact algorithm: take the
//!    service's HWHM window, sample it at 10 fixed points, sample candidate
//!    same-AZ backends at the same points (set `G`), take the 5 backends
//!    with the lowest sums, then compare their full-day sums (`G'`) and
//!    pick the lowest — a backend that is cold when this service is hot
//!    *and* not generally overloaded.

use canal_gateway::gateway::BackendId;
use canal_net::{AzId, GlobalServiceId};
use canal_sim::stats::{hwhm_window, pearson};

/// A service's daily traffic profile on some backend.
#[derive(Debug, Clone)]
pub struct ServiceProfile {
    /// The service.
    pub service: GlobalServiceId,
    /// 24-hour RPS series (fixed sampling, e.g. 96 points).
    pub series: Vec<f64>,
    /// Long-lived sessions currently open (migration drag).
    pub long_sessions: usize,
    /// Fraction of traffic that is HTTPS (≈3× resource weight, §6.3).
    pub https_fraction: f64,
}

impl ServiceProfile {
    /// Resource-weighted mean RPS: HTTPS counts 3×.
    pub(crate) fn weighted_rps(&self) -> f64 {
        let mean = if self.series.is_empty() {
            0.0
        } else {
            self.series.iter().sum::<f64>() / self.series.len() as f64
        };
        mean * (1.0 + 2.0 * self.https_fraction.clamp(0.0, 1.0))
    }
}

/// A candidate backend's daily load profile.
#[derive(Debug, Clone)]
pub struct BackendProfile {
    /// The backend.
    pub backend: BackendId,
    /// Its AZ.
    pub az: AzId,
    /// 24-hour load series aligned with the service series.
    pub series: Vec<f64>,
}

/// A planned set of moves.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPlan {
    /// `(service, destination backend)` pairs.
    pub moves: Vec<(GlobalServiceId, BackendId)>,
}

/// Pearson correlation above which two services count as in-phase.
const PHASE_THRESHOLD: f64 = 0.8;
/// HWHM sampling points (paper: 10).
const HWHM_SAMPLES: usize = 10;
/// Candidate short-list size before the `G'` comparison (paper: 5).
const SHORTLIST: usize = 5;

/// Pairs of in-phase services (correlation ≥ threshold) on one backend.
pub fn detect_in_phase(
    services: &[ServiceProfile],
) -> Vec<(GlobalServiceId, GlobalServiceId, f64)> {
    let mut out = Vec::new();
    for i in 0..services.len() {
        for j in (i + 1)..services.len() {
            let a = &services[i];
            let b = &services[j];
            if a.series.len() != b.series.len() || a.series.len() < 4 {
                continue;
            }
            let r = pearson(&a.series, &b.series);
            if r >= PHASE_THRESHOLD {
                out.push((a.service, b.service, r));
            }
        }
    }
    out
}

/// Order in-phase services by migration priority: resource-weighted RPS
/// descending (principle i), long-session count ascending as the
/// tiebreak (principle ii).
fn migration_order<'a>(group: &[&'a ServiceProfile]) -> Vec<&'a ServiceProfile> {
    let mut sorted: Vec<&ServiceProfile> = group.to_vec();
    sorted.sort_by(|a, b| {
        b.weighted_rps()
            .total_cmp(&a.weighted_rps())
            .then(a.long_sessions.cmp(&b.long_sessions))
    });
    sorted
}

/// The fixed sample indices inside the service's HWHM window.
fn hwhm_points(series: &[f64]) -> Vec<usize> {
    let Some((lo, hi)) = hwhm_window(series) else {
        return Vec::new();
    };
    let span = hi.saturating_sub(lo);
    (0..HWHM_SAMPLES)
        .map(|k| lo + (span * k) / HWHM_SAMPLES)
        .collect()
}

/// The paper's target-selection algorithm for one service.
fn select_target(
    service: &ServiceProfile,
    service_az: AzId,
    candidates: &[BackendProfile],
) -> Option<BackendId> {
    let points = hwhm_points(&service.series);
    if points.is_empty() {
        return None;
    }
    // G: candidate sums at the service's hot points, same AZ only.
    let mut g: Vec<(&BackendProfile, f64)> = candidates
        .iter()
        .filter(|c| c.az == service_az && c.series.len() == service.series.len())
        .map(|c| {
            let sum: f64 = points.iter().map(|&p| c.series[p]).sum();
            (c, sum)
        })
        .collect();
    g.sort_by(|a, b| a.1.total_cmp(&b.1));
    g.truncate(SHORTLIST);
    // G': compare the shortlist's full-day sums; lowest wins.
    g.iter()
        .min_by(|a, b| {
            let fa: f64 = a.0.series.iter().sum();
            let fb: f64 = b.0.series.iter().sum();
            fa.total_cmp(&fb)
        })
        .map(|(c, _)| c.backend)
}

/// Plan migrations for an overloaded backend: walk the in-phase group in
/// priority order, assigning each service a complementary target, until
/// `moves_needed` services are placed.
pub fn plan(
    group: &[&ServiceProfile],
    service_az: AzId,
    candidates: &[BackendProfile],
    moves_needed: usize,
) -> MigrationPlan {
    let mut moves = Vec::new();
    for svc in migration_order(group) {
        if moves.len() >= moves_needed {
            break;
        }
        if let Some(target) = select_target(svc, service_az, candidates) {
            moves.push((svc.service, target));
        }
    }
    MigrationPlan { moves }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{ServiceId, TenantId};

    fn svc(i: u32) -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(1), ServiceId(i))
    }

    /// A day curve peaking at `phase` (0..96), amplitude `amp`.
    fn day_curve(phase: usize, amp: f64) -> Vec<f64> {
        (0..96)
            .map(|i| {
                let x = (i as f64 - phase as f64) / 96.0 * std::f64::consts::TAU;
                amp * (1.0 + x.cos()) / 2.0 + 5.0
            })
            .collect()
    }

    fn profile(id: u32, phase: usize, amp: f64, long: usize, https: f64) -> ServiceProfile {
        ServiceProfile {
            service: svc(id),
            series: day_curve(phase, amp),
            long_sessions: long,
            https_fraction: https,
        }
    }

    #[test]
    fn detects_synchronized_peaks() {
        let services = vec![
            profile(1, 40, 100.0, 0, 0.0),
            profile(2, 40, 80.0, 0, 0.0),  // same phase as 1
            profile(3, 88, 120.0, 0, 0.0), // opposite phase
        ];
        let pairs = detect_in_phase(&services);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].0, pairs[0].1), (svc(1), svc(2)));
        assert!(pairs[0].2 > 0.95);
    }

    #[test]
    fn weighted_rps_triples_https() {
        let http = profile(1, 0, 100.0, 0, 0.0);
        let https = profile(2, 0, 100.0, 0, 1.0);
        assert!((https.weighted_rps() / http.weighted_rps() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn migration_order_prefers_high_rps_then_few_long_sessions() {
        let big = profile(1, 0, 200.0, 50, 0.0);
        let small = profile(2, 0, 50.0, 0, 0.0);
        let big_sticky = profile(3, 0, 200.0, 500, 0.0);
        let order = migration_order(&[&small, &big_sticky, &big]);
        let ids: Vec<GlobalServiceId> = order.iter().map(|p| p.service).collect();
        // big (same RPS as big_sticky but fewer long sessions) first.
        assert_eq!(ids, vec![svc(1), svc(3), svc(2)]);
    }

    #[test]
    fn target_is_complementary_and_same_az() {
        let service = profile(1, 40, 100.0, 0, 0.0);
        let candidates = vec![
            BackendProfile {
                backend: 10,
                az: AzId(0),
                series: day_curve(40, 500.0), // in-phase: hot when svc is hot
            },
            BackendProfile {
                backend: 11,
                az: AzId(0),
                series: day_curve(88, 500.0), // complementary
            },
            BackendProfile {
                backend: 12,
                az: AzId(1),
                series: vec![0.0; 96], // colder but wrong AZ
            },
        ];
        let target = select_target(&service, AzId(0), &candidates);
        assert_eq!(target, Some(11));
    }

    #[test]
    fn g_prime_breaks_ties_by_total_load() {
        // Two equally complementary backends at the hot window; the one with
        // the lower full-day load wins.
        let service = profile(1, 40, 100.0, 0, 0.0);
        let mut flat_low = vec![10.0; 96];
        let mut flat_high = vec![10.0; 96];
        // Same values inside the HWHM window of the service (≈ around 40).
        for i in 0..96 {
            if !(25..=55).contains(&i) {
                flat_high[i] = 400.0;
                flat_low[i] = 20.0;
            }
        }
        let candidates = vec![
            BackendProfile { backend: 20, az: AzId(0), series: flat_high },
            BackendProfile { backend: 21, az: AzId(0), series: flat_low },
        ];
        assert_eq!(select_target(&service, AzId(0), &candidates), Some(21));
    }

    #[test]
    fn plan_moves_at_most_requested() {
        let a = profile(1, 40, 100.0, 0, 0.0);
        let b = profile(2, 40, 90.0, 0, 0.0);
        let c = profile(3, 40, 80.0, 0, 0.0);
        let candidates = vec![BackendProfile {
            backend: 30,
            az: AzId(0),
            series: day_curve(88, 100.0),
        }];
        let plan = plan(&[&a, &b, &c], AzId(0), &candidates, 2);
        assert_eq!(plan.moves.len(), 2);
        // Highest-RPS services picked.
        assert_eq!(plan.moves[0].0, svc(1));
        assert_eq!(plan.moves[1].0, svc(2));
    }

    #[test]
    fn no_candidates_no_plan() {
        let a = profile(1, 40, 100.0, 0, 0.0);
        let plan = plan(&[&a], AzId(0), &[], 1);
        assert!(plan.moves.is_empty());
        assert_eq!(select_target(&a, AzId(0), &[]), None);
    }
}
