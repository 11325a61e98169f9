//! Token-bucket rate limiting.
//!
//! Used in two places: per-service rate limits in the L7 engine, and the
//! gateway-level throttling of §6.2 ("prioritize early rate limiting,
//! dropping packets that exceed the quota when they reach the redirector").

use canal_sim::SimTime;

/// A token bucket: `rate` tokens/s refill, up to `burst` capacity.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Bucket that admits `rate_per_sec` sustained with `burst` headroom.
    /// Starts full.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(rate_per_sec > 0.0 && burst > 0.0);
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            last_refill: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
        self.last_refill = now;
    }

    /// Try to admit one request at `now`.
    pub fn admit(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Change the sustained rate (throttling intensity adjustment, §6.2:
    /// "gradually relax the throttling").
    pub fn set_rate(&mut self, now: SimTime, rate_per_sec: f64) {
        assert!(rate_per_sec > 0.0);
        self.refill(now);
        self.rate_per_sec = rate_per_sec;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: fn(u64) -> SimTime = SimTime::from_millis;

    #[test]
    fn burst_then_starve() {
        let mut b = TokenBucket::new(10.0, 5.0);
        // Burst capacity admits 5 back-to-back...
        for _ in 0..5 {
            assert!(b.admit(T(0)));
        }
        // ...then the 6th is dropped.
        assert!(!b.admit(T(0)));
    }

    #[test]
    fn refills_at_rate() {
        let mut b = TokenBucket::new(10.0, 5.0);
        for _ in 0..5 {
            b.admit(T(0));
        }
        assert!(!b.admit(T(0)));
        // 100ms at 10/s = 1 token.
        assert!(b.admit(T(100)));
        assert!(!b.admit(T(100)));
    }

    #[test]
    fn sustained_rate_is_enforced() {
        let mut b = TokenBucket::new(100.0, 10.0);
        let mut admitted = 0;
        // Offer 1000 requests over 1 second (1 per ms).
        for ms in 0..1000u64 {
            if b.admit(T(ms)) {
                admitted += 1;
            }
        }
        // ~100 sustained + ~10 burst.
        assert!((100..=115).contains(&admitted), "{admitted}");
    }

    #[test]
    fn relaxing_the_throttle() {
        let mut b = TokenBucket::new(1.0, 1.0);
        assert!(b.admit(T(0)));
        assert!(!b.admit(T(1)));
        b.set_rate(T(1), 1000.0);
        // 10ms at 1000/s = 10 tokens (capped at burst 1).
        assert!(b.admit(T(11)));
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut b = TokenBucket::new(1000.0, 3.0);
        // Long idle: tokens cap at burst.
        let mut admitted = 0;
        for _ in 0..10 {
            if b.admit(T(60_000)) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 3);
    }
}
