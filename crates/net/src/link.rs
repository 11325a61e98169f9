//! A degradable point-to-point link (inter-AZ path) for fault injection.
//!
//! A [`Link`] carries a base one-way latency and an injectable degradation
//! (packet-loss probability plus extra latency). Loss draws come from a
//! caller-supplied `SimRng`, so a chaos run replays bit-for-bit from its
//! seed; the link never constructs randomness of its own.

use canal_sim::{SimDuration, SimRng};

/// A point-to-point link with injectable loss and latency degradation.
#[derive(Debug, Clone)]
pub struct Link {
    base_latency: SimDuration,
    loss: f64,
    extra_latency: SimDuration,
    drops: u64,
    delivered: u64,
}

impl Link {
    /// A healthy link with the given base one-way latency.
    pub fn new(base_latency: SimDuration) -> Self {
        Link {
            base_latency,
            loss: 0.0,
            extra_latency: SimDuration::ZERO,
            drops: 0,
            delivered: 0,
        }
    }

    /// Inject degradation: packets drop with probability `loss` (clamped to
    /// `[0, 1]`) and surviving packets pay `extra` latency on top of base.
    pub fn degrade(&mut self, loss: f64, extra: SimDuration) {
        self.loss = loss.clamp(0.0, 1.0);
        self.extra_latency = extra;
    }

    /// Clear any injected degradation.
    pub fn restore(&mut self) {
        self.loss = 0.0;
        self.extra_latency = SimDuration::ZERO;
    }

    /// Fold the link into a digest: `base_latency`, the injected `loss` and
    /// `extra_latency`, and the `drops` / `delivered` counters.
    pub fn fold_digest(&self, d: &mut canal_sim::Digest) {
        d.write_u64(self.base_latency.as_nanos())
            .write_f64(self.loss)
            .write_u64(self.extra_latency.as_nanos())
            .write_u64(self.drops)
            .write_u64(self.delivered);
    }

    /// Whether degradation is currently injected.
    pub fn degraded(&self) -> bool {
        self.loss > 0.0 || self.extra_latency > SimDuration::ZERO
    }

    /// Attempt one transmission. Returns the one-way latency, or `None` if
    /// the packet was lost. The loss draw comes from the caller's `rng`.
    pub fn transmit(&mut self, rng: &mut SimRng) -> Option<SimDuration> {
        if self.loss > 0.0 && rng.chance(self.loss) {
            self.drops += 1;
            return None;
        }
        self.delivered += 1;
        Some(self.base_latency + self.extra_latency)
    }

    /// Base one-way latency (without degradation).
    pub fn base_latency(&self) -> SimDuration {
        self.base_latency
    }

    /// Packets dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_link_delivers_everything_at_base_latency() {
        let mut link = Link::new(SimDuration::from_micros(700));
        let mut rng = SimRng::seed(1);
        for _ in 0..100 {
            assert_eq!(link.transmit(&mut rng), Some(SimDuration::from_micros(700)));
        }
        assert_eq!(link.delivered(), 100);
        assert_eq!(link.drops(), 0);
        assert!(!link.degraded());
    }

    #[test]
    fn degraded_link_drops_and_slows_then_restores() {
        let mut link = Link::new(SimDuration::from_micros(700));
        link.degrade(0.5, SimDuration::from_millis(2));
        assert!(link.degraded());
        let mut rng = SimRng::seed(42);
        let mut delivered = 0u32;
        for _ in 0..1000 {
            if let Some(lat) = link.transmit(&mut rng) {
                assert_eq!(
                    lat,
                    SimDuration::from_micros(700) + SimDuration::from_millis(2)
                );
                delivered += 1;
            }
        }
        // 50% loss: well inside [350, 650] with overwhelming probability.
        assert!((350..=650).contains(&delivered), "delivered={delivered}");
        assert_eq!(link.drops() + link.delivered(), 1000);
        link.restore();
        assert!(!link.degraded());
        assert_eq!(link.transmit(&mut rng), Some(SimDuration::from_micros(700)));
    }

    #[test]
    fn loss_is_clamped_and_total_loss_drops_all() {
        let mut link = Link::new(SimDuration::ZERO);
        link.degrade(7.0, SimDuration::ZERO);
        let mut rng = SimRng::seed(3);
        for _ in 0..50 {
            assert_eq!(link.transmit(&mut rng), None);
        }
        assert_eq!(link.drops(), 50);
    }

    #[test]
    fn same_seed_same_drop_pattern() {
        let pattern = |seed: u64| -> Vec<bool> {
            let mut link = Link::new(SimDuration::ZERO);
            link.degrade(0.3, SimDuration::ZERO);
            let mut rng = SimRng::seed(seed);
            (0..64).map(|_| link.transmit(&mut rng).is_some()).collect()
        };
        assert_eq!(pattern(9), pattern(9));
        assert_ne!(pattern(9), pattern(10));
    }
}
