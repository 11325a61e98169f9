//! Production application service times (Fig. 24).
//!
//! The paper's production K8s cluster shows a bimodal end-to-end latency
//! distribution: most requests fall in 40–50 ms, a second population in
//! 100–200 ms. App processing dominates (which is why the 0.7 ms key-server
//! RTT and sub-millisecond hairpin are negligible in production, App. A).

use canal_sim::{SimDuration, SimRng};

/// Fraction of requests in the fast (40–50 ms) hump.
const FAST_FRACTION: f64 = 0.62;

/// Draw one production app service time.
pub(crate) fn production_service_time(rng: &mut SimRng) -> SimDuration {
    let ms = if rng.chance(FAST_FRACTION) {
        // Fast hump: 40–50 ms, centered at 45.
        rng.normal(45.0, 2.5).clamp(35.0, 60.0)
    } else {
        // Slow hump: 100–200 ms, lognormal-ish within the band.
        rng.lognormal(140.0, 0.18).clamp(90.0, 260.0)
    };
    SimDuration::from_millis_f64(ms)
}

/// Sample `n` service times in milliseconds (for CDF plotting).
pub fn sample_ms(n: usize, rng: &mut SimRng) -> Vec<f64> {
    (0..n)
        .map(|_| production_service_time(rng).as_millis_f64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_is_bimodal_in_the_paper_bands() {
        let mut rng = SimRng::seed(1);
        let samples = sample_ms(50_000, &mut rng);
        let fast = samples.iter().filter(|&&x| (40.0..=50.0).contains(&x)).count() as f64;
        let slow = samples.iter().filter(|&&x| (100.0..=200.0).contains(&x)).count() as f64;
        let n = samples.len() as f64;
        // "The majority of latencies fall within 40~50ms and 100~200ms".
        assert!(fast / n > 0.4, "fast {}", fast / n);
        assert!(slow / n > 0.25, "slow {}", slow / n);
        assert!((fast + slow) / n > 0.75);
        // The valley between the humps is sparse.
        let valley = samples.iter().filter(|&&x| (60.0..=90.0).contains(&x)).count() as f64;
        assert!(valley / n < 0.05, "valley {}", valley / n);
    }

    #[test]
    fn key_server_overhead_is_negligible_vs_app_time() {
        // App. A's argument: 0.7ms added by remote offloading is noise
        // against 40–200ms app time.
        let mut rng = SimRng::seed(2);
        let mean_ms = sample_ms(20_000, &mut rng).iter().sum::<f64>() / 20_000.0;
        assert!(0.7 / mean_ms < 0.01, "overhead fraction {}", 0.7 / mean_ms);
    }
}
