//! End-to-end resilience: the outlier-ejection breaker publishes backend
//! health onto the DNS failover path, clients observe the flip within their
//! resolver TTL, and the resilient dispatcher keeps serving as long as one
//! replica lives (§4.2's graceful-degradation chain).

use canal::cluster::{CachingResolver, DnsView};
use canal::gateway::gateway::{GatewayError, GatewayServed};
use canal::gateway::resilience::{
    AttemptError, ResilienceConfig, ResilientDispatcher, EJECT_CONSECUTIVE_FAILURES,
};
use canal::net::{AzId, VpcAddr, VpcId};
use canal::sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

const LOCAL: u32 = 1; // backend in the client's AZ
const REMOTE: u32 = 2; // backend in the other AZ
const TTL: SimDuration = SimDuration::from_secs(5);

fn addr(b: u32) -> VpcAddr {
    VpcAddr::new(VpcId(1), 10, 200, 0, b as u8)
}

fn served(backend: u32, at: SimTime) -> GatewayServed {
    GatewayServed {
        backend,
        replica: 0,
        finish: at,
        redirect_hops: 0,
    }
}

fn setup() -> (ResilientDispatcher, DnsView, BTreeMap<u32, VpcAddr>) {
    let dispatcher =
        ResilientDispatcher::new(ResilienceConfig::paper_canal(), SimRng::seed(0xE2E));
    let mut dns = DnsView::new();
    dns.add("svc.mesh", AzId(0), addr(LOCAL));
    dns.add("svc.mesh", AzId(1), addr(REMOTE));
    let addrs = [(LOCAL, addr(LOCAL)), (REMOTE, addr(REMOTE))]
        .into_iter()
        .collect();
    (dispatcher, dns, addrs)
}

/// Drive enough consecutive failures through the breaker to eject `LOCAL`,
/// with `REMOTE` absorbing the steered retries.
fn eject_local(dispatcher: &mut ResilientDispatcher, now: SimTime) {
    let trip = EJECT_CONSECUTIVE_FAILURES;
    for i in 0..trip {
        let at = now + SimDuration::from_millis(i as u64 * 10);
        let outcome = dispatcher.dispatch(at, |t, avoid| {
            if avoid.contains(&LOCAL) {
                Ok(served(REMOTE, t))
            } else {
                Err(AttemptError::BackendFailure(LOCAL))
            }
        });
        assert!(
            outcome.served.is_some(),
            "retries mask the failing backend while the breaker charges"
        );
    }
    assert!(dispatcher.is_ejected(now + SimDuration::from_secs(1), LOCAL));
}

#[test]
fn ejection_reaches_dns_and_clients_observe_within_ttl() {
    let (mut dispatcher, mut dns, addrs) = setup();
    let mut resolver = CachingResolver::new(TTL);
    let t0 = SimTime::ZERO;

    // A healthy client resolves to its local-AZ backend and caches it.
    let first = resolver.resolve(t0, &dns, "svc.mesh", AzId(0)).unwrap();
    assert_eq!(first.addr, addr(LOCAL));

    // The local backend starts failing; the breaker trips and publishes.
    eject_local(&mut dispatcher, t0);
    let flips = dispatcher.sync_dns(t0 + SimDuration::from_secs(1), &mut dns, "svc.mesh", &addrs);
    assert_eq!(flips, 1, "exactly the ejected backend flips unhealthy");
    assert_eq!(dispatcher.stats().ejections, 1);
    assert_eq!(dispatcher.stats().dns_flips, 1);

    // Inside the TTL the client still holds the stale local answer…
    let stale = resolver
        .resolve(t0 + SimDuration::from_secs(2), &dns, "svc.mesh", AzId(0))
        .unwrap();
    assert_eq!(stale.addr, addr(LOCAL), "failover is TTL-bounded, not instant");
    // …and one TTL later it fails over to the healthy cross-AZ backend.
    let failed_over = resolver.resolve(t0 + TTL, &dns, "svc.mesh", AzId(0)).unwrap();
    assert_eq!(failed_over.addr, addr(REMOTE));

    // After the ejection lapses the breaker publishes recovery, and the
    // client flips back to its local backend within another TTL.
    let healed = t0 + dispatcher.config().ejection_duration + SimDuration::from_secs(1);
    let flips_back = dispatcher.sync_dns(healed, &mut dns, "svc.mesh", &addrs);
    assert_eq!(flips_back, 1, "recovery is published symmetrically");
    let recovered = resolver
        .resolve(healed.max(t0 + TTL + TTL), &dns, "svc.mesh", AzId(0))
        .unwrap();
    assert_eq!(recovered.addr, addr(LOCAL));
}

#[test]
fn dispatcher_serves_as_long_as_one_backend_lives() {
    let (mut dispatcher, _, _) = setup();
    // LOCAL is hard-down for the whole run; REMOTE always serves. Every
    // request must land regardless of ejection state or attempt count.
    for i in 0..200u64 {
        let at = SimTime::from_millis(i * 25);
        let outcome = dispatcher.dispatch(at, |t, avoid| {
            if avoid.contains(&LOCAL) {
                Ok(served(REMOTE, t))
            } else {
                Err(AttemptError::BackendFailure(LOCAL))
            }
        });
        assert!(outcome.served.is_some(), "request {i} must be served");
        assert_eq!(outcome.served.unwrap().backend, REMOTE);
    }
    let stats = dispatcher.stats();
    assert_eq!(stats.successes, 200);
    assert_eq!(stats.failures, 0);
    assert!(stats.ejections >= 1, "the dead backend gets ejected");
    assert!(
        stats.attempts < 2 * stats.requests,
        "ejection pre-steering keeps amplification well under the retry cap"
    );
}

#[test]
fn breaker_yields_when_ejections_cover_the_whole_pool() {
    let (mut dispatcher, _, _) = setup();
    let t0 = SimTime::ZERO;
    eject_local(&mut dispatcher, t0);

    // Now REMOTE dies too (its AZ went down) while LOCAL comes back but is
    // still inside its ejection window. The balancer under both avoids
    // falls open onto LOCAL — dispatch must accept it rather than burn all
    // attempts re-asking for the avoided set.
    let later = t0 + SimDuration::from_secs(2);
    assert!(dispatcher.is_ejected(later, LOCAL));
    let outcome = dispatcher.dispatch(later, |t, avoid| {
        if avoid.contains(&REMOTE) {
            // Only LOCAL is truth-alive; the balancer fails open to it.
            Ok(served(LOCAL, t))
        } else {
            Err(AttemptError::BackendFailure(REMOTE))
        }
    });
    let got = outcome.served.expect("a live backend must not be refused");
    assert_eq!(got.backend, LOCAL, "stale ejection yields to availability");
}

#[test]
fn unknown_service_fails_fast_without_retry_burn() {
    let (mut dispatcher, _, _) = setup();
    let outcome = dispatcher.dispatch(SimTime::ZERO, |_, _| {
        Err(AttemptError::Rejected(GatewayError::UnknownService))
    });
    assert!(outcome.served.is_none());
    assert_eq!(outcome.attempts, 1, "no placement anywhere: retrying cannot help");
}

/// `sync_dns` may skip work between ejection expiries, but never what it
/// would have published: over a seeded run of backend failures and
/// recoveries, with clock steps that cross ejection expiries, every
/// backend's DNS health after every sync equals its breaker's verdict.
#[test]
fn dns_health_tracks_the_breakers_after_every_sync() {
    const BACKENDS: u32 = 5;
    let mut dispatcher =
        ResilientDispatcher::new(ResilienceConfig::paper_canal(), SimRng::seed(0xD15));
    // One backend per AZ, so a resolve from a backend's AZ returns it
    // exactly when its record is healthy.
    let mut dns = DnsView::new();
    for b in 1..=BACKENDS {
        dns.add("svc.mesh", AzId(b), addr(b));
    }
    let addrs: BTreeMap<u32, VpcAddr> = (1..=BACKENDS).map(|b| (b, addr(b))).collect();
    let published = |dns: &DnsView, b: u32| {
        dns.resolve("svc.mesh", AzId(b)).is_some_and(|t| t.addr == addr(b))
    };
    let mut rng = SimRng::seed(0x5EED_D115);
    let mut up = [true; BACKENDS as usize + 1];
    let mut now = SimTime::ZERO;
    let mut expiries_crossed = 0;
    for step in 0..3_000 {
        // Mostly short steps; now and then one past the 10 s ejection.
        let ejected_before: Vec<bool> =
            (1..=BACKENDS).map(|b| dispatcher.is_ejected(now, b)).collect();
        now += if rng.chance(0.05) {
            SimDuration::from_secs(rng.int_range(5, 15))
        } else {
            SimDuration::from_millis(rng.int_range(0, 200))
        };
        expiries_crossed += (1..=BACKENDS)
            .filter(|&b| ejected_before[b as usize - 1] && !dispatcher.is_ejected(now, b))
            .count();
        if rng.chance(0.03) {
            let b = 1 + rng.index(BACKENDS as usize);
            up[b] = !up[b];
        }
        for _ in 0..rng.index(3) {
            let first = 1 + rng.index(BACKENDS as usize) as u32;
            dispatcher.dispatch(now, |t, avoid| {
                let b = (0..BACKENDS)
                    .map(|i| 1 + (first - 1 + i) % BACKENDS)
                    .find(|b| !avoid.contains(b))
                    .ok_or(AttemptError::Rejected(GatewayError::Unavailable))?;
                if up[b as usize] {
                    Ok(served(b, t))
                } else {
                    Err(AttemptError::BackendFailure(b))
                }
            });
        }
        dispatcher.sync_dns(now, &mut dns, "svc.mesh", &addrs);
        for b in 1..=BACKENDS {
            assert_eq!(
                published(&dns, b),
                !dispatcher.is_ejected(now, b),
                "step {step}: backend {b}'s DNS record disagrees with its breaker"
            );
        }
    }
    let stats = dispatcher.stats();
    assert!(stats.ejections >= 20, "the run trips the breakers: {stats:?}");
    assert!(expiries_crossed >= 10, "the run crosses expiries: {expiries_crossed}");
    assert!(stats.dns_flips >= 20, "the run publishes flips both ways: {stats:?}");
}
