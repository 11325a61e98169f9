//! Exception handling: sandbox migration and throttling (§6.2).
//!
//! Three tools, chosen by blast pattern:
//!
//! * **Lossy migration** — sessions reset; the service reconstructs in a
//!   sandbox within seconds. Used when abnormal traffic threatens the
//!   gateway (Case #1: TCP-session surge without an RPS surge).
//! * **Lossless migration** — new sessions land in the sandbox, existing
//!   sessions drain by flow timeout (median ≈20 min). Used when the backend
//!   is stable but the growth pattern is suspicious (Case #2).
//! * **Throttling** — early rate limiting at the redirector to protect the
//!   *user's* cluster (Case #3: hotspot events); intensity is relaxed as
//!   the customer scales.

use canal_net::{GlobalServiceId, TokenBucket};
use canal_sim::{Fold, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Which migration flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationKind {
    /// Reset all sessions, reconstruct in the sandbox within seconds.
    Lossy,
    /// New sessions to the sandbox; old sessions drain by timeout.
    Lossless,
}

/// Outcome of starting a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Migration flavour.
    pub kind: MigrationKind,
    /// When the service is fully served from the sandbox.
    pub completed_at: SimTime,
    /// Sessions reset (lossy only).
    pub sessions_reset: usize,
}

/// The sandbox: tracks migrated services and redirector-level throttles.
#[derive(Debug, Default)]
pub struct Sandbox {
    services: BTreeSet<GlobalServiceId>,
    throttles: BTreeMap<GlobalServiceId, TokenBucket>,
    /// Config-push plus session-rebuild time for a lossy move (seconds per
    /// the paper: "within seconds").
    lossy_setup: SimDuration,
}

impl Sandbox {
    /// Sandbox with the default 3 s lossy setup time.
    pub fn new() -> Self {
        Sandbox {
            services: BTreeSet::new(),
            throttles: BTreeMap::new(),
            lossy_setup: SimDuration::from_secs(3),
        }
    }

    /// Start a lossy migration: all sessions reset, service live in the
    /// sandbox after the setup time.
    pub fn migrate_lossy(
        &mut self,
        now: SimTime,
        service: GlobalServiceId,
        active_sessions: usize,
    ) -> MigrationReport {
        let completed_at = now + self.lossy_setup;
        self.services.insert(service);
        MigrationReport {
            kind: MigrationKind::Lossy,
            completed_at,
            sessions_reset: active_sessions,
        }
    }

    /// Start a lossless migration: completion waits for the last existing
    /// flow to drain (`session_remaining` are the remaining lifetimes of
    /// live flows). No session is reset.
    pub fn migrate_lossless(
        &mut self,
        now: SimTime,
        service: GlobalServiceId,
        session_remaining: &[SimDuration],
    ) -> MigrationReport {
        let drain = session_remaining
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO);
        let completed_at = now + drain;
        self.services.insert(service);
        MigrationReport {
            kind: MigrationKind::Lossless,
            completed_at,
            sessions_reset: 0,
        }
    }

    /// Release a service back to the main pool.
    pub fn release(&mut self, service: GlobalServiceId) -> bool {
        self.services.remove(&service)
    }

    /// Install a redirector-level throttle for a service ("early rate
    /// limiting, dropping packets ... when they reach the redirector").
    pub fn throttle(&mut self, service: GlobalServiceId, rps: f64, burst: f64) {
        self.throttles.insert(service, TokenBucket::new(rps, burst));
    }

    /// Relax (or tighten) an existing throttle as the customer scales.
    pub fn adjust_throttle(&mut self, now: SimTime, service: GlobalServiceId, rps: f64) -> bool {
        match self.throttles.get_mut(&service) {
            Some(b) => {
                b.set_rate(now, rps);
                true
            }
            None => false,
        }
    }

    /// Remove a throttle.
    pub fn unthrottle(&mut self, service: GlobalServiceId) -> bool {
        self.throttles.remove(&service).is_some()
    }

    /// Early admission check at the redirector: `true` = admit. Services
    /// without a throttle are always admitted.
    pub fn admit(&mut self, now: SimTime, service: GlobalServiceId) -> bool {
        match self.throttles.get_mut(&service) {
            Some(bucket) => bucket.admit(now),
            None => true,
        }
    }

    /// Fold the sandboxed `services`, the installed `throttles` (by keyed
    /// service — the bucket fill level is a `canal_net` implementation
    /// detail), and the `lossy_setup` knob into a digest.
    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self { services, throttles, lossy_setup } = self;
        f.write_u64(services.len() as u64);
        for svc in services {
            f.write_u64(svc.0);
        }
        f.write_u64(throttles.len() as u64);
        for svc in throttles.keys() {
            f.write_u64(svc.0);
        }
        f.write_u64(lossy_setup.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{ServiceId, TenantId};

    fn svc(i: u32) -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(1), ServiceId(i))
    }

    const T: fn(u64) -> SimTime = SimTime::from_secs;

    #[test]
    fn lossy_completes_within_seconds_but_resets_sessions() {
        let mut sb = Sandbox::new();
        let r = sb.migrate_lossy(T(100), svc(1), 5000);
        assert_eq!(r.kind, MigrationKind::Lossy);
        assert_eq!(r.sessions_reset, 5000);
        assert!(T(101) < r.completed_at && r.completed_at <= T(103));
        assert!(sb.services.contains(&svc(1)));
    }

    #[test]
    fn lossless_waits_for_drain_but_loses_nothing() {
        let mut sb = Sandbox::new();
        let lifetimes = [
            SimDuration::from_secs(60),
            SimDuration::from_secs(1200), // a 20-minute flow
            SimDuration::from_secs(5),
        ];
        let r = sb.migrate_lossless(T(0), svc(2), &lifetimes);
        assert_eq!(r.sessions_reset, 0);
        assert_eq!(r.completed_at, T(1200));
        assert!(sb.services.contains(&svc(2)));
    }

    #[test]
    fn lossless_with_no_sessions_is_instant() {
        let mut sb = Sandbox::new();
        let r = sb.migrate_lossless(T(7), svc(3), &[]);
        assert_eq!(r.completed_at, T(7));
    }

    #[test]
    fn release_returns_service_to_pool() {
        let mut sb = Sandbox::new();
        sb.migrate_lossy(T(0), svc(1), 10);
        assert!(sb.release(svc(1)));
        assert!(!sb.release(svc(1)));
        assert!(!sb.services.contains(&svc(1)));
    }

    #[test]
    fn throttle_drops_over_quota_and_relaxes() {
        let mut sb = Sandbox::new();
        sb.throttle(svc(1), 2.0, 2.0);
        assert!(sb.admit(T(0), svc(1)));
        assert!(sb.admit(T(0), svc(1)));
        assert!(!sb.admit(T(0), svc(1)), "burst exhausted");
        // Other services unaffected.
        assert!(sb.admit(T(0), svc(2)));
        // Customer scaled: relax to 1000 rps.
        assert!(sb.adjust_throttle(T(1), svc(1), 1000.0));
        assert!(sb.admit(T(2), svc(1)));
        assert!(sb.unthrottle(svc(1)));
        assert!(!sb.adjust_throttle(T(3), svc(1), 10.0));
    }
}
