//! Precise scaling: the `Reuse` / `New` strategies (§4.3, Fig. 17,
//! Table 4).
//!
//! After the monitor names the hot service (the alerting backend's top
//! service, [`crate::monitor::WaterLevelMonitor::ingest`]):
//!
//! * **Reuse** — extend the service onto an existing backend whose water
//!   level is below the reuse threshold (<20%). Fast: a config push and a
//!   bucket-table install, P50 ≈ 55 s end to end.
//! * **New** — no backend has headroom: create one. Slow: VM creation,
//!   image load, network setup, registration — P50 ≈ 17 min, which is why
//!   the paper pre-provisions (`New` "executed in advance").

use canal_gateway::gateway::{BackendId, Gateway};
use canal_net::{AzId, GlobalServiceId};
use canal_sim::{Fold, SimDuration, SimRng, SimTime};

/// Which scaling strategy was used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingKind {
    /// Extended the service to an existing low-water backend.
    Reuse,
    /// Created a new backend.
    New,
}

/// Timeline of one scaling operation (the Table 4 rows).
#[derive(Debug, Clone, Copy)]
pub struct ScalingRecord {
    /// Strategy chosen.
    pub kind: ScalingKind,
    /// Backend the service was extended onto / created.
    pub backend: BackendId,
    /// When the operation was issued.
    pub(crate) executed_at: SimTime,
    /// When the operation completes, per the Fig. 17 models; the gateway
    /// serves from the new placement at once.
    pub(crate) finished_at: SimTime,
}

impl ScalingRecord {
    /// Execute→finish duration.
    pub fn duration(&self) -> SimDuration {
        self.finished_at.since(self.executed_at)
    }
}

/// Completion-time models, calibrated to Fig. 17 / Table 4.
#[derive(Debug, Clone, Copy)]
pub struct ScalingLatencies {
    /// Median `Reuse` completion (config push + redirector update).
    pub(crate) reuse_median: SimDuration,
    /// Lognormal sigma for `Reuse`.
    pub(crate) reuse_sigma: f64,
    /// Median `New` completion (VM create + image + network + registration).
    pub(crate) new_median: SimDuration,
    /// Lognormal sigma for `New`.
    pub(crate) new_sigma: f64,
}

impl Default for ScalingLatencies {
    fn default() -> Self {
        ScalingLatencies {
            reuse_median: SimDuration::from_secs(55),
            reuse_sigma: 0.35,
            new_median: SimDuration::from_secs(17 * 60),
            new_sigma: 0.25,
        }
    }
}

impl ScalingLatencies {
    /// Draw a `Reuse` completion time.
    pub fn draw_reuse(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.lognormal(self.reuse_median.as_secs_f64(), self.reuse_sigma))
    }

    /// Draw a `New` completion time.
    pub fn draw_new(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.lognormal(self.new_median.as_secs_f64(), self.new_sigma))
    }
}

/// The scaling engine: applies the §4.3 strategy against a gateway.
#[derive(Debug)]
pub struct ScalingEngine {
    /// A backend below this window utilization is reusable.
    pub reuse_threshold: f64,
    /// Completion-time models.
    pub latencies: ScalingLatencies,
    /// `Reuse` operations executed.
    reuses: usize,
    /// `New` operations executed.
    news: usize,
}

impl Default for ScalingEngine {
    fn default() -> Self {
        ScalingEngine {
            reuse_threshold: 0.20,
            latencies: ScalingLatencies::default(),
            reuses: 0,
            news: 0,
        }
    }
}

impl ScalingEngine {
    /// Fresh engine with defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scale `service` in `az`: `Reuse` on the least-loaded low-water
    /// backend in `az` that is available and not already hosting the
    /// service, else `New` on a backend created for it. The service is
    /// extended onto the chosen backend at once; the record's `finished_at`
    /// is when the operation would complete, drawn from the Fig. 17 models.
    pub fn scale(
        &mut self,
        now: SimTime,
        gateway: &mut Gateway,
        service: GlobalServiceId,
        az: AzId,
        backend_utils: &[(BackendId, f64)],
        rng: &mut SimRng,
    ) -> ScalingRecord {
        let hosted = gateway.backends_of(service);
        let reusable = backend_utils
            .iter()
            .filter(|&&(b, util)| {
                util < self.reuse_threshold
                    && !hosted.contains(&b)
                    && gateway.placement().az_of(b) == Some(az)
                    && gateway.placement().backend_available(b)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(b, _)| b);

        let (kind, backend, took) = match reusable {
            Some(backend) => (ScalingKind::Reuse, backend, self.latencies.draw_reuse(rng)),
            None => {
                let backend = gateway.scale_new_backend(az);
                (ScalingKind::New, backend, self.latencies.draw_new(rng))
            }
        };
        gateway.extend_service(service, backend);
        let record = ScalingRecord {
            kind,
            backend,
            executed_at: now,
            finished_at: now + took,
        };
        match kind {
            ScalingKind::Reuse => self.reuses += 1,
            ScalingKind::New => self.news += 1,
        }
        record
    }

    /// Count of operations by kind: `(reuse, new)`.
    pub fn counts(&self) -> (usize, usize) {
        (self.reuses, self.news)
    }

    /// Fold the engine state into a digest: the `reuse_threshold`, the
    /// `latencies` model parameters, and the `reuses` and `news` counts.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { reuse_threshold, latencies, reuses, news } = self;
        f.write_f64(*reuse_threshold)
            .write_u64(latencies.reuse_median.as_nanos())
            .write_f64(latencies.reuse_sigma)
            .write_u64(latencies.new_median.as_nanos())
            .write_f64(latencies.new_sigma)
            .count("reuses", *reuses as u64)
            .count("news", *news as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_gateway::gateway::GatewayConfig;
    use canal_net::{ServiceId, TenantId};

    fn svc(i: u32) -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(1), ServiceId(i))
    }

    const T: fn(u64) -> SimTime = SimTime::from_secs;

    fn setup() -> (Gateway, GlobalServiceId, SimRng) {
        let mut gw = Gateway::new(GatewayConfig::default());
        let mut rng = SimRng::seed(7);
        let s = svc(1);
        gw.register_service(s, &mut rng);
        (gw, s, rng)
    }

    #[test]
    fn reuse_preferred_when_headroom_exists() {
        let (mut gw, s, mut rng) = setup();
        let mut eng = ScalingEngine::new();
        // Find an AZ0 backend not hosting the service, report it idle.
        let hosted = gw.backends_of(s);
        let utils: Vec<(BackendId, f64)> = gw
            .backends()
            .iter()
            .map(|&(b, _)| (b, if hosted.contains(&b) { 0.9 } else { 0.05 }))
            .collect();
        let r = eng.scale(T(100), &mut gw, s, AzId(0), &utils, &mut rng);
        assert_eq!(r.kind, ScalingKind::Reuse);
        assert!(gw.backends_of(s).contains(&r.backend));
        // Fig. 17 scale: around a minute, not tens of minutes.
        assert!(r.duration() < SimDuration::from_secs(240), "{}", r.duration());
    }

    #[test]
    fn new_when_all_backends_hot() {
        let (mut gw, s, mut rng) = setup();
        let mut eng = ScalingEngine::new();
        let utils: Vec<(BackendId, f64)> = gw
            .backends()
            .iter()
            .map(|&(b, _)| (b, 0.85))
            .collect();
        let before = gw.backends().len();
        let r = eng.scale(T(100), &mut gw, s, AzId(0), &utils, &mut rng);
        assert_eq!(r.kind, ScalingKind::New);
        assert_eq!(gw.backends().len(), before + 1);
        assert_eq!(gw.placement().az_of(r.backend), Some(AzId(0)));
        // New takes many minutes.
        assert!(r.duration() > SimDuration::from_secs(300), "{}", r.duration());
    }

    #[test]
    fn reuse_respects_the_az() {
        let (mut gw, s, mut rng) = setup();
        let mut eng = ScalingEngine::new();
        // All idle backends are in AZ1; scaling in AZ0 must go New.
        let utils: Vec<(BackendId, f64)> = gw
            .backends()
            .iter()
            .map(|&(b, az)| (b, if az == AzId(1) { 0.05 } else { 0.9 }))
            .collect();
        let r = eng.scale(T(0), &mut gw, s, AzId(0), &utils, &mut rng);
        assert_eq!(r.kind, ScalingKind::New);
    }

    #[test]
    fn completion_time_distributions_match_fig17() {
        let lat = ScalingLatencies::default();
        let mut rng = SimRng::seed(1);
        let reuse: Vec<f64> = (0..2000).map(|_| lat.draw_reuse(&mut rng).as_secs_f64()).collect();
        let news: Vec<f64> = (0..2000).map(|_| lat.draw_new(&mut rng).as_secs_f64()).collect();
        let p50_reuse = canal_sim::stats::percentile(&reuse, 0.5);
        let p50_new = canal_sim::stats::percentile(&news, 0.5);
        assert!((45.0..65.0).contains(&p50_reuse), "{p50_reuse}");
        assert!((15.0 * 60.0..19.0 * 60.0).contains(&p50_new), "{p50_new}");
    }

    #[test]
    fn counts_operations_by_kind() {
        let (mut gw, s, mut rng) = setup();
        let mut eng = ScalingEngine::new();
        let idle: Vec<(BackendId, f64)> = gw.backends().iter().map(|&(b, _)| (b, 0.01)).collect();
        let hot: Vec<(BackendId, f64)> = gw.backends().iter().map(|&(b, _)| (b, 0.99)).collect();
        eng.scale(T(0), &mut gw, s, AzId(0), &idle, &mut rng);
        eng.scale(T(10), &mut gw, svc(2), AzId(0), &hot, &mut rng);
        let (reuse, new) = eng.counts();
        assert_eq!((reuse, new), (1, 1));
    }
}
