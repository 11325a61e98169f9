//! Health-check probing with hysteresis.
//!
//! Every mesh proxy health-checks the app endpoints it may route to. The
//! §6.1 experience section is entirely about how *many* of these probes a
//! consolidated gateway generates; this module provides the per-target state
//! machine (k consecutive failures → unhealthy, m consecutive successes →
//! healthy) and a tracker over a set of targets.

use canal_sim::{Fold, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Health of a probed target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Passing probes.
    Healthy,
    /// Failing probes.
    Unhealthy,
}

/// Hysteresis thresholds.
#[derive(Debug, Clone, Copy)]
pub struct ProbePolicy {
    /// Consecutive failures before marking unhealthy.
    pub fail_threshold: u32,
    /// Consecutive successes before marking healthy again.
    pub rise_threshold: u32,
    /// Probe period.
    pub interval: SimDuration,
}

impl Default for ProbePolicy {
    fn default() -> Self {
        ProbePolicy {
            fail_threshold: 3,
            rise_threshold: 2,
            interval: SimDuration::from_secs(5),
        }
    }
}

#[derive(Debug, Clone)]
struct TargetState {
    state: HealthState,
    consecutive_fails: u32,
    consecutive_oks: u32,
    last_probe: Option<SimTime>,
}

/// Tracks probe state for a set of targets keyed by `K`.
#[derive(Debug)]
pub struct ProbeTracker<K: Ord + Clone> {
    policy: ProbePolicy,
    targets: BTreeMap<K, TargetState>,
}

impl<K: Ord + Clone> ProbeTracker<K> {
    /// New tracker with the given policy.
    pub(crate) fn new(policy: ProbePolicy) -> Self {
        ProbeTracker { policy, targets: BTreeMap::new() }
    }

    /// Register a target (initially healthy).
    pub(crate) fn add_target(&mut self, key: K) {
        self.targets.entry(key).or_insert(TargetState {
            state: HealthState::Healthy,
            consecutive_fails: 0,
            consecutive_oks: 0,
            last_probe: None,
        });
    }

    /// Whether a probe is due for the target at `now`.
    pub fn due(&self, key: &K, now: SimTime) -> bool {
        match self.targets.get(key) {
            Some(t) => t
                .last_probe
                .is_none_or(|last| now.since(last) >= self.policy.interval),
            None => false,
        }
    }

    /// Record one probe result. Returns the new state if it *changed*.
    pub(crate) fn record_probe(&mut self, key: &K, now: SimTime, success: bool) -> Option<HealthState> {
        let policy = self.policy;
        let t = self.targets.get_mut(key)?;
        t.last_probe = Some(now);
        if success {
            t.consecutive_oks += 1;
            t.consecutive_fails = 0;
        } else {
            t.consecutive_fails += 1;
            t.consecutive_oks = 0;
        }
        let new_state = match t.state {
            HealthState::Healthy if t.consecutive_fails >= policy.fail_threshold => {
                Some(HealthState::Unhealthy)
            }
            HealthState::Unhealthy if t.consecutive_oks >= policy.rise_threshold => {
                Some(HealthState::Healthy)
            }
            _ => None,
        };
        if let Some(s) = new_state {
            t.state = s;
        }
        new_state
    }

    /// Current state of a target.
    pub(crate) fn state(&self, key: &K) -> Option<HealthState> {
        self.targets.get(key).map(|t| t.state)
    }
}

impl<K: Ord + Copy + Into<u64>> ProbeTracker<K> {
    /// Fold every target's key, health, hysteresis counters and last probe
    /// time.
    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self {
            targets,
            policy: _, // config: fixed at construction
        } = self;
        f.write_u64(targets.len() as u64);
        for (&key, t) in targets {
            let TargetState { state, consecutive_fails, consecutive_oks, last_probe } = t;
            f.write_u64(key.into())
                .write_u64(*state as u64)
                .write_u64(u64::from(*consecutive_fails))
                .write_u64(u64::from(*consecutive_oks))
                .write_u64(last_probe.map_or(u64::MAX, |t| t.as_nanos()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: fn(u64) -> SimTime = SimTime::from_secs;

    fn tracker() -> ProbeTracker<u32> {
        let mut t = ProbeTracker::new(ProbePolicy::default());
        t.add_target(1);
        t
    }

    #[test]
    fn starts_healthy_and_needs_three_failures() {
        let mut t = tracker();
        assert_eq!(t.state(&1), Some(HealthState::Healthy));
        assert_eq!(t.record_probe(&1, T(0), false), None);
        assert_eq!(t.record_probe(&1, T(5), false), None);
        assert_eq!(
            t.record_probe(&1, T(10), false),
            Some(HealthState::Unhealthy)
        );
        assert_eq!(t.state(&1), Some(HealthState::Unhealthy));
    }

    #[test]
    fn recovery_needs_two_successes() {
        let mut t = tracker();
        for i in 0..3 {
            t.record_probe(&1, T(i * 5), false);
        }
        assert_eq!(t.record_probe(&1, T(15), true), None);
        assert_eq!(t.record_probe(&1, T(20), true), Some(HealthState::Healthy));
    }

    #[test]
    fn intermittent_failures_do_not_flap() {
        let mut t = tracker();
        // fail, fail, ok, fail, fail, ok ... never 3 consecutive.
        for i in 0..10u64 {
            let success = i % 3 == 2;
            assert_eq!(t.record_probe(&1, T(i * 5), success), None);
        }
        assert_eq!(t.state(&1), Some(HealthState::Healthy));
    }

    #[test]
    fn due_respects_interval() {
        let mut t = tracker();
        assert!(t.due(&1, T(0)));
        t.record_probe(&1, T(0), true);
        assert!(!t.due(&1, T(3)));
        assert!(t.due(&1, T(5)));
        assert!(!t.due(&2, T(100)), "unknown target never due");
    }

    #[test]
    fn sub_threshold_flapping_never_transitions() {
        // Gray-failure edge: a target that alternates hard between streaks
        // of (fail_threshold - 1) failures and (rise_threshold - 1)
        // successes looks awful on the wire but never crosses either
        // hysteresis edge — no transition may ever be recorded.
        let policy = ProbePolicy::default();
        let mut t = ProbeTracker::new(policy);
        t.add_target(1);
        let mut at = 0u64;
        for _ in 0..200 {
            for _ in 0..policy.fail_threshold - 1 {
                assert_eq!(t.record_probe(&1, T(at), false), None);
                at += 5;
            }
            // One success resets the failure streak; stay below the rise
            // threshold so an Unhealthy target (there is none) could not
            // recover either.
            for _ in 0..(policy.rise_threshold - 1).max(1) {
                assert_eq!(t.record_probe(&1, T(at), true), None);
                at += 5;
            }
        }
        assert_eq!(t.state(&1), Some(HealthState::Healthy));
    }
}
