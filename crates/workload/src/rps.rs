//! Request-rate processes.

use canal_sim::SimTime;

/// A time-varying request rate (requests per second).
#[derive(Debug, Clone)]
pub enum RpsProcess {
    /// A daily sinusoid: `base + amplitude * (1 + cos(2π (t-phase)/period))/2`.
    Diurnal {
        /// Floor rate.
        base: f64,
        /// Peak-to-floor swing.
        amplitude: f64,
        /// Period (e.g. 24 h).
        period: f64,
        /// Peak offset in seconds.
        phase: f64,
    },
    /// A hotspot flash crowd: instant surge then exponential decay.
    FlashCrowd {
        /// Normal rate.
        base: f64,
        /// Event time (seconds).
        at: f64,
        /// Instant surge added on top of base.
        surge: f64,
        /// Decay time constant (seconds).
        decay: f64,
    },
}

impl RpsProcess {
    /// The instantaneous rate at time `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let s = t.as_secs_f64();
        match *self {
            RpsProcess::Diurnal {
                base,
                amplitude,
                period,
                phase,
            } => {
                let x = (s - phase) / period * std::f64::consts::TAU;
                base + amplitude * (1.0 + x.cos()) / 2.0
            }
            RpsProcess::FlashCrowd {
                base,
                at,
                surge,
                decay,
            } => {
                if s < at {
                    base
                } else {
                    base + surge * (-(s - at) / decay).exp()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_peaks_at_phase() {
        let p = RpsProcess::Diurnal {
            base: 10.0,
            amplitude: 100.0,
            period: 86_400.0,
            phase: 3600.0,
        };
        let at_peak = p.rate_at(SimTime::from_secs(3600));
        let off_peak = p.rate_at(SimTime::from_secs(3600 + 43_200));
        assert!((at_peak - 110.0).abs() < 1e-9);
        assert!((off_peak - 10.0).abs() < 1e-9);
    }

    #[test]
    fn flash_crowd_decays() {
        let p = RpsProcess::FlashCrowd {
            base: 100.0,
            at: 10.0,
            surge: 1000.0,
            decay: 30.0,
        };
        assert_eq!(p.rate_at(SimTime::from_secs(9)), 100.0);
        assert!((p.rate_at(SimTime::from_secs(10)) - 1100.0).abs() < 1.0);
        let later = p.rate_at(SimTime::from_secs(100));
        assert!(later < 150.0 && later > 100.0);
    }
}
