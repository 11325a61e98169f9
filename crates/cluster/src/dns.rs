//! AZ-aware DNS resolution (§4.2, "Hierarchical failure recovery").
//!
//! The paper customizes DNS so requests resolve to *available backends in
//! the client's AZ* for latency, spilling to other AZs only when every local
//! backend is down. [`DnsView`] implements exactly that policy over a
//! name → [(az, address, healthy)] record set.

use canal_net::{AzId, VpcAddr};
use canal_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One A-record target with health status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsTarget {
    /// AZ where the backend runs.
    pub az: AzId,
    /// Backend address.
    pub addr: VpcAddr,
    /// Health as seen by the control plane.
    pub healthy: bool,
}

/// A resolver view: names to candidate backends.
#[derive(Debug, Clone, Default)]
pub struct DnsView {
    records: BTreeMap<String, Vec<DnsTarget>>,
}

impl DnsView {
    /// Empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a backend for a name.
    pub fn add(&mut self, name: &str, az: AzId, addr: VpcAddr) {
        self.records.entry(name.to_string()).or_default().push(DnsTarget {
            az,
            addr,
            healthy: true,
        });
    }

    /// Update a backend's health. Returns whether the target was found.
    pub fn set_health(&mut self, name: &str, addr: VpcAddr, healthy: bool) -> bool {
        if let Some(targets) = self.records.get_mut(name) {
            for t in targets.iter_mut() {
                if t.addr == addr {
                    t.healthy = healthy;
                    return true;
                }
            }
        }
        false
    }

    /// Resolve with AZ preference: healthy targets in `client_az` first;
    /// if none, healthy targets anywhere; if none at all, `None`.
    pub fn resolve(&self, name: &str, client_az: AzId) -> Option<DnsTarget> {
        let targets = self.records.get(name)?;
        targets
            .iter()
            .find(|t| t.healthy && t.az == client_az)
            .or_else(|| targets.iter().find(|t| t.healthy))
            .copied()
    }
}

#[derive(Debug, Clone, Copy)]
struct CachedAnswer {
    answer: Option<DnsTarget>,
    fetched: SimTime,
}

/// A TTL-bounded client-side resolver cache over a [`DnsView`].
///
/// During cascading failures this is what bounds failover speed: a health
/// flip published into the view only reaches a client once its cached
/// answer ages past the TTL — so recovery is observed "within the
/// configured TTL", never instantly.
#[derive(Debug, Clone)]
pub struct CachingResolver {
    ttl: SimDuration,
    cache: BTreeMap<(String, AzId), CachedAnswer>,
}

impl CachingResolver {
    /// A resolver caching answers for `ttl`.
    pub fn new(ttl: SimDuration) -> Self {
        CachingResolver {
            ttl,
            cache: BTreeMap::new(),
        }
    }

    /// Resolve through the cache: serve the cached answer while it is
    /// fresh (< TTL old), otherwise re-query `view` and re-cache. Negative
    /// answers are cached too.
    pub fn resolve(
        &mut self,
        now: SimTime,
        view: &DnsView,
        name: &str,
        client_az: AzId,
    ) -> Option<DnsTarget> {
        let key = (name.to_string(), client_az);
        if let Some(hit) = self.cache.get(&key) {
            if now.since(hit.fetched) < self.ttl {
                return hit.answer;
            }
        }
        let answer = view.resolve(name, client_az);
        self.cache.insert(key, CachedAnswer { answer, fetched: now });
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::VpcId;

    fn addr(last: u8) -> VpcAddr {
        VpcAddr::new(VpcId(0), 172, 16, 0, last)
    }

    fn two_az_view() -> DnsView {
        let mut v = DnsView::new();
        v.add("gw.mesh", AzId(0), addr(1));
        v.add("gw.mesh", AzId(0), addr(2));
        v.add("gw.mesh", AzId(1), addr(3));
        v
    }

    #[test]
    fn prefers_local_az() {
        let v = two_az_view();
        let t = v.resolve("gw.mesh", AzId(0)).unwrap();
        assert_eq!(t.az, AzId(0));
        let t1 = v.resolve("gw.mesh", AzId(1)).unwrap();
        assert_eq!(t1.addr, addr(3));
    }

    #[test]
    fn spills_to_other_az_only_when_local_down() {
        let mut v = two_az_view();
        v.set_health("gw.mesh", addr(1), false);
        // One local backend still healthy: stay local.
        assert_eq!(v.resolve("gw.mesh", AzId(0)).unwrap().addr, addr(2));
        v.set_health("gw.mesh", addr(2), false);
        // All local down: cross-AZ fallback.
        assert_eq!(v.resolve("gw.mesh", AzId(0)).unwrap().addr, addr(3));
        v.set_health("gw.mesh", addr(3), false);
        assert!(v.resolve("gw.mesh", AzId(0)).is_none());
    }

    #[test]
    fn recovery_restores_local_preference() {
        let mut v = two_az_view();
        v.set_health("gw.mesh", addr(1), false);
        v.set_health("gw.mesh", addr(2), false);
        assert_eq!(v.resolve("gw.mesh", AzId(0)).unwrap().az, AzId(1));
        v.set_health("gw.mesh", addr(1), true);
        assert_eq!(v.resolve("gw.mesh", AzId(0)).unwrap().addr, addr(1));
    }

    #[test]
    fn unknown_name_and_target() {
        let mut v = two_az_view();
        assert!(v.resolve("nope", AzId(0)).is_none());
        assert!(!v.set_health("gw.mesh", addr(99), false));
    }

    const TTL: SimDuration = SimDuration::from_secs(5);

    #[test]
    fn cache_serves_stale_answer_until_ttl() {
        let mut v = two_az_view();
        let mut r = CachingResolver::new(TTL);
        let t0 = SimTime::ZERO;
        assert_eq!(r.resolve(t0, &v, "gw.mesh", AzId(0)).unwrap().addr, addr(1));
        // Backend ejected: the view flips immediately, the client does not.
        v.set_health("gw.mesh", addr(1), false);
        let mid = t0 + SimDuration::from_secs(2);
        assert_eq!(
            r.resolve(mid, &v, "gw.mesh", AzId(0)).unwrap().addr,
            addr(1),
            "stale answer inside TTL"
        );
        // One TTL after the original fetch the flip is visible.
        let expired = t0 + TTL;
        assert_eq!(
            r.resolve(expired, &v, "gw.mesh", AzId(0)).unwrap().addr,
            addr(2),
            "failover observed within the configured TTL"
        );
    }

    #[test]
    fn cascading_failure_flips_cross_az_then_recovery_flips_back() {
        let mut v = two_az_view();
        let mut r = CachingResolver::new(TTL);
        let mut t = SimTime::ZERO;
        assert_eq!(r.resolve(t, &v, "gw.mesh", AzId(0)).unwrap().az, AzId(0));
        // Cascade: both local backends ejected in turn.
        v.set_health("gw.mesh", addr(1), false);
        t += TTL;
        assert_eq!(r.resolve(t, &v, "gw.mesh", AzId(0)).unwrap().addr, addr(2));
        v.set_health("gw.mesh", addr(2), false);
        t += TTL;
        let spilled = r.resolve(t, &v, "gw.mesh", AzId(0)).unwrap();
        assert_eq!(spilled.az, AzId(1), "whole local AZ ejected: cross-AZ spill");
        // Recovery: the answer flips back local within one TTL.
        v.set_health("gw.mesh", addr(1), true);
        assert_eq!(
            r.resolve(t + SimDuration::from_secs(1), &v, "gw.mesh", AzId(0))
                .unwrap()
                .az,
            AzId(1),
            "recovery not yet visible inside TTL"
        );
        t += TTL;
        assert_eq!(
            r.resolve(t, &v, "gw.mesh", AzId(0)).unwrap().addr,
            addr(1),
            "recovery flips back within the configured TTL"
        );
    }

    #[test]
    fn negative_answers_are_cached() {
        let mut v = two_az_view();
        for a in [1, 2, 3] {
            v.set_health("gw.mesh", addr(a), false);
        }
        let mut r = CachingResolver::new(TTL);
        let t0 = SimTime::ZERO;
        assert!(r.resolve(t0, &v, "gw.mesh", AzId(0)).is_none());
        v.set_health("gw.mesh", addr(1), true);
        assert!(
            r.resolve(t0 + SimDuration::from_secs(1), &v, "gw.mesh", AzId(0)).is_none(),
            "negative answer cached inside TTL"
        );
    }

    #[test]
    fn ttl_boundary_is_exclusive() {
        // Freshness is `age < ttl`: one nanosecond under the TTL still
        // serves the cached answer, exactly at the TTL re-queries.
        let mut v = two_az_view();
        let mut r = CachingResolver::new(TTL);
        let t0 = SimTime::ZERO;
        assert_eq!(r.resolve(t0, &v, "gw.mesh", AzId(0)).unwrap().addr, addr(1));
        v.set_health("gw.mesh", addr(1), false);
        let almost = t0 + TTL - SimDuration::from_nanos(1);
        assert_eq!(
            r.resolve(almost, &v, "gw.mesh", AzId(0)).unwrap().addr,
            addr(1),
            "ttl - 1ns: still the cached answer"
        );
        assert_eq!(
            r.resolve(t0 + TTL, &v, "gw.mesh", AzId(0)).unwrap().addr,
            addr(2),
            "exactly at ttl: the cache entry has expired"
        );
    }

    #[test]
    fn refresh_under_failed_upstream_caches_the_negative() {
        // A refresh that lands while every backend is down must not keep
        // serving the stale positive answer — and the negative result it
        // fetches is itself TTL-cached until the next refresh.
        let mut v = two_az_view();
        let mut r = CachingResolver::new(TTL);
        let t0 = SimTime::ZERO;
        assert!(r.resolve(t0, &v, "gw.mesh", AzId(0)).is_some());
        for a in [1, 2, 3] {
            v.set_health("gw.mesh", addr(a), false);
        }
        let refresh = t0 + TTL;
        assert!(
            r.resolve(refresh, &v, "gw.mesh", AzId(0)).is_none(),
            "refresh under a failed upstream replaces the stale positive"
        );
        v.set_health("gw.mesh", addr(1), true);
        assert!(
            r.resolve(refresh + SimDuration::from_secs(1), &v, "gw.mesh", AzId(0))
                .is_none(),
            "the negative answer ages like any other cache entry"
        );
        assert_eq!(
            r.resolve(refresh + TTL, &v, "gw.mesh", AzId(0)).unwrap().addr,
            addr(1),
            "recovery visible one TTL after the negative was cached"
        );
    }

    #[test]
    fn zero_ttl_never_caches() {
        // ttl = 0 means `age < 0` is never true: every resolve re-queries,
        // so health flips are visible instantly — even twice at one instant.
        let mut v = two_az_view();
        let mut r = CachingResolver::new(SimDuration::ZERO);
        let t0 = SimTime::ZERO;
        assert_eq!(r.resolve(t0, &v, "gw.mesh", AzId(0)).unwrap().addr, addr(1));
        v.set_health("gw.mesh", addr(1), false);
        assert_eq!(
            r.resolve(t0, &v, "gw.mesh", AzId(0)).unwrap().addr,
            addr(2),
            "zero TTL sees the flip at the same instant"
        );
        v.set_health("gw.mesh", addr(1), true);
        assert_eq!(
            r.resolve(t0, &v, "gw.mesh", AzId(0)).unwrap().addr,
            addr(1),
            "and the recovery too"
        );
    }

    #[test]
    fn per_az_cache_entries_are_independent() {
        let mut v = two_az_view();
        let mut r = CachingResolver::new(TTL);
        let t0 = SimTime::ZERO;
        assert_eq!(r.resolve(t0, &v, "gw.mesh", AzId(1)).unwrap().addr, addr(3));
        v.set_health("gw.mesh", addr(3), false);
        // AZ-0 clients never cached AZ-1's answer; their first lookup is
        // fresh even while AZ-1 clients still hold the stale record.
        assert_eq!(r.resolve(t0, &v, "gw.mesh", AzId(0)).unwrap().addr, addr(1));
        assert_eq!(r.resolve(t0, &v, "gw.mesh", AzId(1)).unwrap().addr, addr(3));
    }
}
