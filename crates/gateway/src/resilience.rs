//! Datapath resilience: deadlines, retries, hedging, outlier ejection,
//! DNS degradation (§4.2 / Fig. 8).
//!
//! The paper's availability story is that Canal's *datapath* masks faults
//! in O(retry) time while the control plane's detection/push loop is still
//! catching up. This module is that layer: a [`ResilientDispatcher`] wraps
//! a single dispatch attempt (normally `Gateway::handle_request_avoiding`)
//! in a per-request deadline, capped exponential backoff with
//! deterministic jitter, optional hedged retries steered away from the
//! backend that just failed, a per-backend outlier-ejection circuit
//! breaker ([`OutlierDetector`]), and graceful degradation onto the
//! `canal_cluster::dns` failover path when a whole backend is ejected.
//!
//! The knobs the sidecar/ambient baselines turn live in [`ResilienceConfig`],
//! so they run the *same fault plan* with their own policies; the rest are
//! constants every policy shares. All randomness
//! (jitter) comes from a caller-supplied `SimRng` — the dispatcher never
//! seeds its own, per the determinism contract.
//!
//! Retries happen in *virtual time*: the dispatcher advances a local
//! attempt clock by the backoff/hedge interval and hands it to the attempt
//! closure, so a chaos run can overlay ground-truth fault state at the
//! exact instant of each attempt.

use crate::certs::CertFault;
use crate::gateway::{BackendId, GatewayError, GatewayServed};
use canal_cluster::dns::DnsView;
use canal_net::VpcAddr;
use canal_sim::{Fold, SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Total per-request budget; attempts stop once it is exhausted.
const REQUEST_DEADLINE: SimDuration = SimDuration::from_secs(1);
/// First retry backoff; doubles each attempt.
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(10);
/// Backoff cap.
const BACKOFF_CEILING: SimDuration = SimDuration::from_millis(160);
/// Jitter fraction `j` in `[0, 1)`: each backoff is scaled by a
/// deterministic draw from `[1-j, 1]`.
const JITTER: f64 = 0.5;
/// Consecutive failures that trip ejection.
pub const EJECT_CONSECUTIVE_FAILURES: u32 = 5;
/// Size of the sliding outcome window per backend.
const EJECT_WINDOW: usize = 20;
/// Minimum success rate over a full window; below it the backend is
/// ejected even without a consecutive-failure burst.
const EJECT_MIN_SUCCESS_RATE: f64 = 0.5;

/// Resilience policy: the knobs in which the baselines differ, so they
/// compare under identical fault plans.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Maximum attempts per request (1 = no retries).
    pub(crate) max_attempts: u32,
    /// Hedge delay: when set and shorter than the backoff, the retry fires
    /// after this long instead (against a different backend), trading
    /// duplicate work for tail latency.
    pub(crate) hedge_after: Option<SimDuration>,
    /// Whether the per-backend outlier-ejection circuit breaker runs.
    pub(crate) outlier_ejection: bool,
    /// How long an ejected backend stays out before probing again.
    pub ejection_duration: SimDuration,
    /// Whether ejections are published to the DNS failover path
    /// ([`ResilientDispatcher::sync_dns`]).
    pub(crate) dns_failover: bool,
}

impl ResilienceConfig {
    /// Canal's paper-default policy: tight deadline, fast retries with
    /// hedging, ejection wired into DNS failover.
    pub fn paper_canal() -> Self {
        ResilienceConfig {
            max_attempts: 6,
            hedge_after: Some(SimDuration::from_millis(30)),
            outlier_ejection: true,
            ejection_duration: SimDuration::from_secs(10),
            dns_failover: true,
        }
    }

    /// Ambient-style baseline: retries with backoff but no hedging, no
    /// outlier ejection, no DNS degradation — recovery waits on the
    /// control plane.
    pub fn ambient_baseline() -> Self {
        ResilienceConfig {
            hedge_after: None,
            outlier_ejection: false,
            dns_failover: false,
            ..Self::paper_canal()
        }
    }

    /// Sidecar-style baseline: a single attempt per request; masking a
    /// fault requires the control plane to detect it and push new config.
    pub fn sidecar_baseline() -> Self {
        ResilienceConfig {
            max_attempts: 1,
            ..Self::ambient_baseline()
        }
    }
}

/// Per-backend sliding-window circuit breaker (consecutive-failure and
/// success-rate trips, timed ejection).
#[derive(Debug, Clone, Default)]
pub(crate) struct OutlierDetector {
    window: VecDeque<bool>,
    consecutive_failures: u32,
    ejected_until: Option<SimTime>,
    ejections: u64,
}

impl OutlierDetector {
    /// Whether the backend is currently ejected.
    pub(crate) fn is_ejected(&self, now: SimTime) -> bool {
        self.ejected_until.is_some_and(|until| now < until)
    }

    fn push_outcome(&mut self, ok: bool) {
        self.window.push_back(ok);
        while self.window.len() > EJECT_WINDOW {
            self.window.pop_front();
        }
    }

    fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.push_outcome(true);
    }

    /// Record a failure; returns true when this trips a fresh ejection.
    fn record_failure(&mut self, now: SimTime, cfg: &ResilienceConfig) -> bool {
        self.consecutive_failures += 1;
        self.push_outcome(false);
        if self.is_ejected(now) {
            return false;
        }
        let burst = self.consecutive_failures >= EJECT_CONSECUTIVE_FAILURES;
        let full = self.window.len() >= EJECT_WINDOW;
        let rate_ok = if full {
            let ok = self.window.iter().filter(|&&b| b).count() as f64;
            ok / self.window.len() as f64 >= EJECT_MIN_SUCCESS_RATE
        } else {
            true
        };
        if burst || !rate_ok {
            self.ejected_until = Some(now + cfg.ejection_duration);
            self.ejections += 1;
            self.consecutive_failures = 0;
            self.window.clear();
            true
        } else {
            false
        }
    }
}

/// Why one dispatch attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptError {
    /// The gateway refused the request outright (nothing reached a
    /// backend, so no breaker bookkeeping applies).
    Rejected(GatewayError),
    /// The attempt reached this backend and the backend failed it (crash,
    /// packet loss, timeout) — feeds the backend's outlier detector.
    BackendFailure(BackendId),
    /// The backend refused the connection because it is *draining* (planned
    /// failover, see [`crate::drain`]). Steered away exactly like a
    /// failure, but it is **not** outlier evidence: a planned drain is the
    /// operator's choice, and counting its refusals would let every
    /// maintenance window trip an ejection storm across the fleet.
    BackendDraining(BackendId),
    /// The mTLS handshake for the attempt failed on certificate lifecycle
    /// grounds (typed via [`CertFault::try_from`] on the `MtlsError`).
    /// Expiry is retryable-after-refresh — one retry, representing the
    /// workload re-fetching its cert; revocation is terminal and is *not*
    /// retry fuel.
    Handshake(CertFault),
}

impl From<CertFault> for AttemptError {
    fn from(f: CertFault) -> Self {
        AttemptError::Handshake(f)
    }
}

/// The result of a resilient dispatch: what was served (if anything) and
/// how hard the dispatcher had to work for it.
#[derive(Debug, Clone, Copy)]
pub struct DispatchOutcome {
    /// The successful attempt, if one landed before the deadline.
    pub served: Option<GatewayServed>,
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Virtual time at which the final attempt resolved.
    pub completed_at: SimTime,
}

/// Lifetime counters for the dispatcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilienceStats {
    /// Requests dispatched.
    pub requests: u64,
    /// Total attempts (≥ requests; the ratio is retry amplification).
    pub attempts: u64,
    /// Retries (attempts beyond the first per request).
    pub(crate) retries: u64,
    /// Hedged retries (fired early on the hedge timer).
    pub(crate) hedges: u64,
    /// Requests that ultimately succeeded.
    pub successes: u64,
    /// Requests that ultimately failed.
    pub failures: u64,
    /// Failures caused by deadline exhaustion.
    pub deadline_exceeded: u64,
    /// Circuit-breaker ejections tripped.
    pub ejections: u64,
    /// DNS health transitions published via [`ResilientDispatcher::sync_dns`].
    pub dns_flips: u64,
    /// Requests terminated by a retry-budget rejection from the overload
    /// layer (the rejection is terminal — no further retries fire).
    pub budget_rejected: u64,
    /// Expired-certificate handshake failures that triggered the single
    /// refresh-then-retry (each is one re-issuance round trip).
    pub(crate) cert_refreshes: u64,
    /// Requests terminated by a revoked certificate (terminal — revocation
    /// is not retry fuel).
    pub(crate) cert_revoked: u64,
    /// Connection refusals from *draining* backends. Steered around like
    /// failures but exempt from outlier-ejection evidence.
    pub(crate) drain_refusals: u64,
}

/// The resilient request path: wraps per-attempt dispatch in deadlines,
/// retries, hedging and outlier ejection.
pub struct ResilientDispatcher {
    cfg: ResilienceConfig,
    rng: SimRng,
    // lint:allow(bounded-state) reason=one detector per backend in the registered topology
    detectors: BTreeMap<BackendId, OutlierDetector>,
    // lint:allow(bounded-state) reason=one health bit per backend in the registered topology
    dns_health: BTreeMap<BackendId, bool>,
    /// Before this time `sync_dns` has nothing to publish: the last sync
    /// left every bit equal to its backend's breaker, and no ejection it saw
    /// expires sooner. A new trip or a failed `set_health` resets it to zero.
    dns_quiet_until: SimTime,
    stats: ResilienceStats,
}

/// Add `b` to a sorted backend set.
fn insert_sorted(set: &mut Vec<BackendId>, b: BackendId) {
    if let Err(i) = set.binary_search(&b) {
        set.insert(i, b);
    }
}

impl ResilientDispatcher {
    /// Build a dispatcher. `rng` is the caller's seeded stream (jitter
    /// draws); the dispatcher never constructs randomness of its own.
    pub fn new(cfg: ResilienceConfig, rng: SimRng) -> Self {
        ResilientDispatcher {
            cfg,
            rng,
            detectors: BTreeMap::new(),
            dns_health: BTreeMap::new(),
            dns_quiet_until: SimTime::ZERO,
            stats: ResilienceStats::default(),
        }
    }

    /// The active policy.
    pub fn config(&self) -> ResilienceConfig {
        self.cfg
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Whether a backend is currently ejected by its circuit breaker.
    pub fn is_ejected(&self, now: SimTime, backend: BackendId) -> bool {
        self.detectors
            .get(&backend)
            .is_some_and(|d| d.is_ejected(now))
    }

    /// All currently-ejected backends, in ascending order.
    fn ejected_backends(&self, now: SimTime) -> Vec<BackendId> {
        self.detectors
            .iter()
            .filter(|(_, d)| d.is_ejected(now))
            .map(|(&b, _)| b)
            .collect()
    }

    fn backoff_before_attempt(&mut self, attempt: u32) -> (SimDuration, bool) {
        // attempt is the index of the attempt about to be made (2nd, 3rd…).
        let exp = attempt.saturating_sub(2).min(16);
        let mut backoff = BASE_BACKOFF.times(1u64 << exp);
        if backoff > BACKOFF_CEILING {
            backoff = BACKOFF_CEILING;
        }
        let jittered = backoff.scale(self.rng.uniform(1.0 - JITTER, 1.0));
        match self.cfg.hedge_after {
            Some(h) if h < jittered => (h, true),
            _ => (jittered, false),
        }
    }

    /// Dispatch one request resiliently. `attempt` is called once per
    /// attempt with the virtual attempt time and the backends to avoid in
    /// ascending order (currently-ejected ones plus backends that already
    /// failed this request); it normally wraps
    /// `Gateway::handle_request_avoiding`, which takes the slice as it is.
    pub fn dispatch(
        &mut self,
        now: SimTime,
        mut attempt: impl FnMut(SimTime, &[BackendId]) -> Result<GatewayServed, AttemptError>,
    ) -> DispatchOutcome {
        self.stats.requests += 1;
        let deadline = now + REQUEST_DEADLINE;
        // Both sets are kept sorted, so membership is a binary search and
        // `attempt` sees the backends in ascending order.
        let mut avoid: Vec<BackendId> = if self.cfg.outlier_ejection {
            self.ejected_backends(now)
        } else {
            Vec::new()
        };
        let mut t = now;
        let mut attempts = 0u32;
        let mut refreshed_cert = false;
        let mut failed_here: Vec<BackendId> = Vec::new();
        loop {
            attempts += 1;
            self.stats.attempts += 1;
            if attempts > 1 {
                self.stats.retries += 1;
            }
            match attempt(t, &avoid) {
                Ok(served) => {
                    if self.cfg.outlier_ejection {
                        self.detectors
                            .entry(served.backend)
                            .or_default()
                            .record_success();
                    }
                    self.stats.successes += 1;
                    return DispatchOutcome {
                        served: Some(served),
                        attempts,
                        completed_at: t,
                    };
                }
                Err(AttemptError::BackendFailure(b)) => {
                    if self.cfg.outlier_ejection {
                        let det = self.detectors.entry(b).or_default();
                        if det.record_failure(t, &self.cfg) {
                            self.stats.ejections += 1;
                            self.dns_quiet_until = SimTime::ZERO;
                        }
                    }
                    let was_avoided = avoid.binary_search(&b).is_ok();
                    insert_sorted(&mut failed_here, b);
                    // Steer the next attempt elsewhere (different backend,
                    // and — since shards span zones — often a different AZ).
                    insert_sorted(&mut avoid, b);
                    if was_avoided {
                        // The balancer handed us a backend we were already
                        // avoiding: the avoid list covers its whole pool, so
                        // it has started ignoring it. Ejections must yield to
                        // availability — fall back to avoiding only what this
                        // request has actually seen fail, so the next attempt
                        // can reach pool members blocked solely by a stale
                        // ejection.
                        avoid.clone_from(&failed_here);
                    }
                }
                Err(AttemptError::BackendDraining(b)) => {
                    // Planned drain: steer away exactly like a failure, but
                    // feed *nothing* to the outlier detector — refusals the
                    // operator ordered are not evidence of a sick backend,
                    // and counting them would turn every planned failover
                    // into an ejection storm.
                    self.stats.drain_refusals += 1;
                    let was_avoided = avoid.binary_search(&b).is_ok();
                    insert_sorted(&mut failed_here, b);
                    insert_sorted(&mut avoid, b);
                    if was_avoided {
                        avoid.clone_from(&failed_here);
                    }
                }
                Err(AttemptError::Handshake(CertFault::Revoked)) => {
                    // Revocation is terminal by construction: the serial
                    // stays revoked no matter how often we retry, so the
                    // failure must not become retry fuel for the budget.
                    self.stats.failures += 1;
                    self.stats.cert_revoked += 1;
                    return DispatchOutcome {
                        served: None,
                        attempts,
                        completed_at: t,
                    };
                }
                Err(AttemptError::Handshake(CertFault::Expired)) => {
                    // Retryable-after-refresh: allow exactly one retry,
                    // standing in for the workload fetching a re-issued
                    // cert. A second expiry means re-issuance itself is
                    // broken — hammering the CA cannot fix that.
                    if refreshed_cert {
                        self.stats.failures += 1;
                        return DispatchOutcome {
                            served: None,
                            attempts,
                            completed_at: t,
                        };
                    }
                    refreshed_cert = true;
                    self.stats.cert_refreshes += 1;
                }
                Err(AttemptError::Rejected(GatewayError::UnknownService)) => {
                    // No placement anywhere: retrying cannot help.
                    self.stats.failures += 1;
                    return DispatchOutcome {
                        served: None,
                        attempts,
                        completed_at: t,
                    };
                }
                Err(AttemptError::Rejected(GatewayError::RetryBudgetExhausted)) => {
                    // The overload layer refused this attempt's *budget*:
                    // retrying is exactly what it forbade. The rejection
                    // counts against the request, not as fuel for more
                    // attempts — this is what kills retry storms.
                    self.stats.failures += 1;
                    self.stats.budget_rejected += 1;
                    return DispatchOutcome {
                        served: None,
                        attempts,
                        completed_at: t,
                    };
                }
                Err(AttemptError::Rejected(GatewayError::Unavailable)) if !avoid.is_empty() => {
                    // Every non-avoided backend is (detected) down: degrade
                    // gracefully — drop the steer and let the gateway
                    // fail-open over whatever it still considers alive.
                    avoid.clear();
                }
                Err(AttemptError::Rejected(_)) => {
                    // Throttled / exhausted / unavailable with nothing to
                    // un-avoid: back off and retry until the budget dies.
                }
            }
            if attempts >= self.cfg.max_attempts {
                break;
            }
            let (wait, is_hedge) = self.backoff_before_attempt(attempts + 1);
            let next = t + wait;
            if next > deadline {
                self.stats.failures += 1;
                self.stats.deadline_exceeded += 1;
                return DispatchOutcome {
                    served: None,
                    attempts,
                    completed_at: deadline,
                };
            }
            if is_hedge {
                self.stats.hedges += 1;
            }
            t = next;
        }
        self.stats.failures += 1;
        DispatchOutcome {
            served: None,
            attempts,
            completed_at: t,
        }
    }

    /// Publish breaker state onto the DNS failover path: for each backend
    /// with an address, flip its `DnsView` health record whenever its
    /// ejection state changed since the last sync. No-op unless
    /// `dns_failover` is enabled. Returns the number of flips.
    ///
    /// Calls pass the same `view`, `name` and `addr_of` each time, at
    /// non-decreasing `now`. Between a sync that published every change and
    /// the next ejection expiry or trip, no breaker changes state, so such a
    /// call returns at once.
    pub fn sync_dns(
        &mut self,
        now: SimTime,
        view: &mut DnsView,
        name: &str,
        addr_of: &BTreeMap<BackendId, VpcAddr>,
    ) -> u32 {
        if !self.cfg.dns_failover || now < self.dns_quiet_until {
            return 0;
        }
        let mut flips = 0;
        let mut published = true;
        for (&backend, &addr) in addr_of {
            let healthy = !self.is_ejected(now, backend);
            let prev = self.dns_health.get(&backend).copied().unwrap_or(true);
            if healthy != prev {
                if view.set_health(name, addr, healthy) {
                    self.dns_health.insert(backend, healthy);
                    self.stats.dns_flips += 1;
                    flips += 1;
                } else {
                    published = false;
                }
            }
        }
        self.dns_quiet_until = if published {
            self.detectors
                .values()
                .filter_map(|d| d.ejected_until.filter(|&until| until > now))
                .min()
                .unwrap_or(SimTime::MAX)
        } else {
            SimTime::ZERO
        };
        flips
    }

    /// Fold the dispatcher state into a digest: the jitter `rng` stream,
    /// every backend's `detectors` breaker (window, failure streak,
    /// ejection timer), the published `dns_health` bits, the
    /// `dns_quiet_until` of the last sync, and the lifetime `stats` counters.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self {
            rng, detectors, dns_health, dns_quiet_until, stats,
            cfg: _, // config: fixed at construction
        } = self;
        f.scope("rng", |f| rng.fold(f));
        f.write_u64(detectors.len() as u64);
        for (&b, det) in detectors {
            f.write_u64(b as u64).write_u64(det.window.len() as u64);
            for &ok in &det.window {
                f.write_u64(ok as u64);
            }
            f.write_u64(det.consecutive_failures as u64)
                .write_u64(det.ejected_until.map_or(u64::MAX, |t| t.as_nanos()))
                .count("detector_ejections", det.ejections);
        }
        f.write_u64(dns_health.len() as u64);
        for (&b, &healthy) in dns_health {
            f.write_u64(b as u64).write_u64(healthy as u64);
        }
        f.write_u64(dns_quiet_until.as_nanos());
        f.count("requests", stats.requests)
            .count("attempts", stats.attempts)
            .count("retries", stats.retries)
            .count("hedges", stats.hedges)
            .count("successes", stats.successes)
            .count("failures", stats.failures)
            .count("deadline_exceeded", stats.deadline_exceeded)
            .count("ejections", stats.ejections)
            .count("dns_flips", stats.dns_flips)
            .count("budget_rejected", stats.budget_rejected)
            .count("cert_refreshes", stats.cert_refreshes)
            .count("cert_revoked", stats.cert_revoked)
            .count("drain_refusals", stats.drain_refusals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(backend: BackendId, at: SimTime) -> GatewayServed {
        GatewayServed {
            backend,
            replica: 0,
            finish: at,
            redirect_hops: 0,
        }
    }

    fn dispatcher(cfg: ResilienceConfig) -> ResilientDispatcher {
        ResilientDispatcher::new(cfg, SimRng::seed(7))
    }

    #[test]
    fn first_attempt_success_is_zero_overhead() {
        let mut d = dispatcher(ResilienceConfig::paper_canal());
        let out = d.dispatch(SimTime::ZERO, |t, avoid| {
            assert!(avoid.is_empty());
            Ok(served(1, t))
        });
        assert_eq!(out.attempts, 1);
        assert!(out.served.is_some());
        assert_eq!(out.completed_at, SimTime::ZERO);
        assert_eq!(d.stats().retries, 0);
    }

    #[test]
    fn retry_steers_away_from_failed_backend() {
        let mut d = dispatcher(ResilienceConfig::paper_canal());
        let out = d.dispatch(SimTime::ZERO, |t, avoid| {
            if avoid.contains(&1) {
                Ok(served(2, t))
            } else {
                Err(AttemptError::BackendFailure(1))
            }
        });
        assert_eq!(out.attempts, 2);
        assert_eq!(out.served.unwrap().backend, 2);
        assert!(out.completed_at > SimTime::ZERO, "retry took virtual time");
        assert!(
            out.completed_at <= SimTime::ZERO + SimDuration::from_millis(30),
            "hedge caps the retry delay"
        );
    }

    #[test]
    fn sidecar_baseline_never_retries() {
        let mut d = dispatcher(ResilienceConfig::sidecar_baseline());
        let out = d.dispatch(SimTime::ZERO, |_, _| {
            Err(AttemptError::BackendFailure(1))
        });
        assert_eq!(out.attempts, 1);
        assert!(out.served.is_none());
        assert_eq!(d.stats().failures, 1);
    }

    #[test]
    fn consecutive_failures_trip_ejection_and_time_out() {
        let cfg = ResilienceConfig::paper_canal();
        let mut d = dispatcher(cfg);
        for i in 0..EJECT_CONSECUTIVE_FAILURES {
            let now = SimTime::from_millis(i as u64);
            // Single-attempt probe against backend 9 that always fails.
            let mut first = true;
            d.dispatch(now, |_, _| {
                if first {
                    first = false;
                    Err(AttemptError::BackendFailure(9))
                } else {
                    Ok(served(0, now))
                }
            });
        }
        let now = SimTime::from_millis(10);
        assert!(d.is_ejected(now, 9));
        assert_eq!(d.ejected_backends(now), vec![9]);
        assert_eq!(d.stats().ejections, 1);
        // After the ejection duration the backend is probe-able again.
        let later = now + cfg.ejection_duration + SimDuration::from_secs(1);
        assert!(!d.is_ejected(later, 9));
    }

    #[test]
    fn ejected_backends_prepopulate_avoid_set() {
        let cfg = ResilienceConfig::paper_canal();
        let mut d = dispatcher(cfg);
        for _ in 0..EJECT_CONSECUTIVE_FAILURES {
            d.dispatch(SimTime::ZERO, |_, avoid| {
                if avoid.contains(&3) {
                    Err(AttemptError::Rejected(GatewayError::Unavailable))
                } else {
                    Err(AttemptError::BackendFailure(3))
                }
            });
        }
        assert!(d.is_ejected(SimTime::ZERO, 3));
        let out = d.dispatch(SimTime::from_millis(1), |t, avoid| {
            assert!(avoid.contains(&3), "breaker pre-steers away");
            Ok(served(4, t))
        });
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn unavailable_with_steer_degrades_to_fail_open() {
        let mut d = dispatcher(ResilienceConfig::paper_canal());
        let mut cleared = false;
        let out = d.dispatch(SimTime::ZERO, |t, avoid| {
            if avoid.is_empty() && cleared {
                return Ok(served(5, t));
            }
            if avoid.is_empty() {
                return Err(AttemptError::BackendFailure(5));
            }
            cleared = true;
            Err(AttemptError::Rejected(GatewayError::Unavailable))
        });
        assert_eq!(
            out.served.unwrap().backend,
            5,
            "steer dropped, fail-open served"
        );
        assert_eq!(out.attempts, 3);
    }

    #[test]
    fn deadline_bounds_the_retry_budget() {
        let cfg = ResilienceConfig {
            max_attempts: 100,
            hedge_after: None,
            ..ResilienceConfig::paper_canal()
        };
        let mut d = dispatcher(cfg);
        let out = d.dispatch(SimTime::ZERO, |_, _| {
            Err(AttemptError::BackendFailure(1))
        });
        assert!(out.attempts < 100);
        assert_eq!(out.completed_at, SimTime::ZERO + REQUEST_DEADLINE);
        assert_eq!(d.stats().deadline_exceeded, 1);
    }

    #[test]
    fn unknown_service_is_terminal() {
        let mut d = dispatcher(ResilienceConfig::paper_canal());
        let out = d.dispatch(SimTime::ZERO, |_, _| {
            Err(AttemptError::Rejected(GatewayError::UnknownService))
        });
        assert_eq!(out.attempts, 1);
        assert_eq!(d.stats().deadline_exceeded, 0);
    }

    #[test]
    fn budget_rejection_is_terminal() {
        let mut d = dispatcher(ResilienceConfig::paper_canal());
        let mut calls = 0;
        let out = d.dispatch(SimTime::ZERO, |_, _| {
            calls += 1;
            if calls == 1 {
                Err(AttemptError::BackendFailure(1))
            } else {
                // The overload layer refuses the retry's budget: the
                // dispatcher must stop, not back off and hammer again.
                Err(AttemptError::Rejected(GatewayError::RetryBudgetExhausted))
            }
        });
        assert_eq!(out.attempts, 2);
        assert!(out.served.is_none());
        assert_eq!(d.stats().deadline_exceeded, 0);
        assert_eq!(d.stats().budget_rejected, 1);
    }

    #[test]
    fn revoked_cert_is_terminal_not_retry_fuel() {
        let mut d = dispatcher(ResilienceConfig::paper_canal());
        let out = d.dispatch(SimTime::ZERO, |_, _| {
            Err(AttemptError::Handshake(CertFault::Revoked))
        });
        assert_eq!(out.attempts, 1, "no retries on revocation");
        assert!(out.served.is_none());
        assert_eq!(d.stats().cert_revoked, 1);
        assert_eq!(d.stats().retries, 0);
        assert_eq!(d.stats().cert_revoked, 1);
    }

    #[test]
    fn expired_cert_retries_once_after_refresh() {
        let mut d = dispatcher(ResilienceConfig::paper_canal());
        let mut calls = 0;
        let out = d.dispatch(SimTime::ZERO, |t, _| {
            calls += 1;
            if calls == 1 {
                Err(AttemptError::Handshake(CertFault::Expired))
            } else {
                Ok(served(1, t))
            }
        });
        assert_eq!(out.attempts, 2, "one refresh retry");
        assert!(out.served.is_some());
        assert_eq!(d.stats().cert_refreshes, 1);

        // A second expiry after the refresh is terminal.
        let out = d.dispatch(SimTime::from_secs(1), |_, _| {
            Err(AttemptError::Handshake(CertFault::Expired))
        });
        assert_eq!(out.attempts, 2, "refresh retried once, then stopped");
        assert!(out.served.is_none());
        assert_eq!(d.stats().cert_refreshes, 2);
        assert_eq!(d.stats().cert_refreshes, 2);
    }

    #[test]
    fn draining_refusals_steer_away_without_outlier_evidence() {
        let cfg = ResilienceConfig::paper_canal();
        let mut d = dispatcher(cfg);
        // Far more drain refusals than the ejection threshold: backend 7 is
        // draining, every first attempt hits it, retries land on 8.
        for i in 0..(EJECT_CONSECUTIVE_FAILURES * 4) {
            let now = SimTime::from_millis(i as u64);
            let out = d.dispatch(now, |t, avoid| {
                if avoid.contains(&7) {
                    Ok(served(8, t))
                } else {
                    Err(AttemptError::BackendDraining(7))
                }
            });
            assert_eq!(out.served.unwrap().backend, 8, "steered to the replacement");
            assert_eq!(out.attempts, 2);
        }
        // The regression: planned-drain refusals must never trip ejection.
        assert!(!d.is_ejected(SimTime::from_secs(1), 7));
        assert_eq!(d.stats().ejections, 0);
        assert_eq!(
            d.stats().drain_refusals,
            (EJECT_CONSECUTIVE_FAILURES * 4) as u64
        );
        // Contrast: the same volume of *real* failures does trip it.
        let mut real = dispatcher(cfg);
        for i in 0..EJECT_CONSECUTIVE_FAILURES {
            let now = SimTime::from_millis(i as u64);
            real.dispatch(now, |t, avoid| {
                if avoid.contains(&7) {
                    Ok(served(8, t))
                } else {
                    Err(AttemptError::BackendFailure(7))
                }
            });
        }
        assert!(real.is_ejected(SimTime::from_millis(10), 7));
    }

    #[test]
    fn counters_count_requests_and_attempts() {
        let mut d = dispatcher(ResilienceConfig::paper_canal());
        d.dispatch(SimTime::ZERO, |t, _| Ok(served(1, t)));
        let snap = d.stats();
        assert_eq!((snap.requests, snap.attempts), (1, 1));
        let mut first = true;
        d.dispatch(SimTime::from_secs(1), |t, _| {
            if first {
                first = false;
                Err(AttemptError::BackendFailure(2))
            } else {
                Ok(served(3, t))
            }
        });
        let now = d.stats();
        assert_eq!((now.requests, now.attempts), (2, 3));
    }

    #[test]
    fn same_seed_same_backoff_schedule() {
        let run = |seed: u64| -> Vec<u64> {
            let mut d = ResilientDispatcher::new(
                ResilienceConfig {
                    hedge_after: None,
                    ..ResilienceConfig::paper_canal()
                },
                SimRng::seed(seed),
            );
            let mut times = Vec::new();
            d.dispatch(SimTime::ZERO, |t, _| {
                times.push(t.as_nanos());
                Err(AttemptError::BackendFailure(1))
            });
            times
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "jitter is seed-sensitive");
    }

    #[test]
    fn sync_dns_publishes_ejections_and_recovery() {
        use canal_net::{VpcAddr, VpcId};
        let cfg = ResilienceConfig::paper_canal();
        let mut d = dispatcher(cfg);
        let mut view = DnsView::new();
        let addr = VpcAddr::new(VpcId(1), 10, 0, 0, 1);
        view.add("svc", canal_net::AzId(0), addr);
        let addrs: BTreeMap<BackendId, VpcAddr> = [(3, addr)].into_iter().collect();
        for _ in 0..EJECT_CONSECUTIVE_FAILURES {
            d.dispatch(SimTime::ZERO, |_, _| Err(AttemptError::BackendFailure(3)));
        }
        let t1 = SimTime::from_millis(1);
        assert_eq!(d.sync_dns(t1, &mut view, "svc", &addrs), 1);
        assert!(view.resolve("svc", canal_net::AzId(0)).is_none(), "ejected");
        // Re-sync without change: no flip.
        assert_eq!(d.sync_dns(t1, &mut view, "svc", &addrs), 0);
        let t2 = t1 + cfg.ejection_duration + SimDuration::from_secs(1);
        assert_eq!(d.sync_dns(t2, &mut view, "svc", &addrs), 1);
        assert!(view.resolve("svc", canal_net::AzId(0)).is_some(), "recovered");
        assert_eq!(d.stats().dns_flips, 2);
    }
}
