//! Abnormal-traffic scenarios (§6.2).
//!
//! Each scenario generates the observable *signature* the paper's monitors
//! key on, so the monitor/classifier stack can be exercised end to end:
//!
//! * [`AttackScenario::session_flood`] — many new TCP sessions, flat
//!   request rate (Case #1's "#TCP sessions surged without a corresponding
//!   increase in RPS") → expect a lossy migration.
//! * [`AttackScenario::slow_growth`] — traffic creeping up over hours,
//!   steadily consuming auto-scaled resources (Case #2) → expect a lossless
//!   migration after confirmation.

use canal_sim::{SimDuration, SimRng, SimTime};

/// A generated abnormal-traffic timeline.
#[derive(Debug, Clone)]
pub struct AttackScenario {
    /// `(time, new_sessions_opened, requests_sent)` per second-long slot.
    pub(crate) timeline: Vec<(SimTime, u64, u64)>,
}

impl AttackScenario {
    /// A session flood starting at `onset`, opening `flood_sessions_per_s`
    /// new sessions per second while request rate stays at `base_rps`.
    pub fn session_flood(
        duration: SimDuration,
        onset: SimDuration,
        base_rps: u64,
        flood_sessions_per_s: u64,
        rng: &mut SimRng,
    ) -> Self {
        let secs = duration.as_secs_f64() as u64;
        let onset_s = onset.as_secs_f64() as u64;
        let timeline = (0..secs)
            .map(|s| {
                let jitter = |v: u64, rng: &mut SimRng| {
                    ((v as f64) * rng.uniform(0.9, 1.1)) as u64
                };
                let sessions = if s >= onset_s {
                    jitter(flood_sessions_per_s, rng)
                } else {
                    jitter(base_rps / 20, rng).max(1) // normal churn
                };
                (SimTime::from_secs(s), sessions, jitter(base_rps, rng))
            })
            .collect();
        AttackScenario { timeline }
    }

    /// A slow multiplicative ramp over `duration` reaching `final_factor`×
    /// the base rate.
    pub fn slow_growth(
        duration: SimDuration,
        base_rps: u64,
        final_factor: f64,
        rng: &mut SimRng,
    ) -> Self {
        let secs = duration.as_secs_f64() as u64;
        let timeline = (0..secs)
            .map(|s| {
                let frac = s as f64 / secs.max(1) as f64;
                let rate = base_rps as f64 * (1.0 + (final_factor - 1.0) * frac)
                    * rng.uniform(0.95, 1.05);
                (
                    SimTime::from_secs(s),
                    (rate / 20.0) as u64, // session churn proportional to rps
                    rate as u64,
                )
            })
            .collect();
        AttackScenario { timeline }
    }

    /// Peak sessions-per-second over the timeline.
    pub fn peak_sessions(&self) -> u64 {
        self.timeline.iter().map(|&(_, s, _)| s).max().unwrap_or(0)
    }

    /// Peak RPS over the timeline.
    pub fn peak_rps(&self) -> u64 {
        self.timeline.iter().map(|&(_, _, r)| r).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_flood_has_the_case1_signature() {
        let mut rng = SimRng::seed(1);
        let sc = AttackScenario::session_flood(
            SimDuration::from_secs(120),
            SimDuration::from_secs(60),
            1000,
            50_000,
            &mut rng,
        );
        // Sessions surge ~1000x; RPS stays flat.
        let early_sessions: u64 = sc.timeline[..60].iter().map(|&(_, s, _)| s).sum();
        let late_sessions: u64 = sc.timeline[60..].iter().map(|&(_, s, _)| s).sum();
        assert!(late_sessions > early_sessions * 100);
        let early_rps: u64 = sc.timeline[..60].iter().map(|&(_, _, r)| r).sum();
        let late_rps: u64 = sc.timeline[60..].iter().map(|&(_, _, r)| r).sum();
        let ratio = late_rps as f64 / early_rps as f64;
        assert!((0.8..1.25).contains(&ratio), "rps moved: {ratio}");
    }

    #[test]
    fn slow_growth_reaches_final_factor() {
        let mut rng = SimRng::seed(2);
        let sc = AttackScenario::slow_growth(SimDuration::from_secs(3600), 1000, 5.0, &mut rng);
        let first = sc.timeline[0].2 as f64;
        let last = sc.timeline.last().unwrap().2 as f64;
        let growth = last / first;
        assert!((3.8..6.3).contains(&growth), "{growth}");
        // Monotone-ish: second half clearly above first half. The linear
        // 1x→5x ramp makes the expected ratio exactly 2.0, so leave noise
        // headroom rather than asserting a knife-edge bound.
        let h1: u64 = sc.timeline[..1800].iter().map(|&(_, _, r)| r).sum();
        let h2: u64 = sc.timeline[1800..].iter().map(|&(_, _, r)| r).sum();
        assert!(h2 as f64 > h1 as f64 * 1.9, "{}", h2 as f64 / h1 as f64);
    }
}
