//! Golden trace of the assembled gateway.
//!
//! A seeded 50,000-request trace interleaved with replica / backend / AZ
//! failures and recoveries, `scale_new_backend` + `extend_service`,
//! rolling-upgrade steps, throttles, water-level reads and retry steers,
//! plus a seeded [`GatewayDrain`] lifecycle. The expected values were
//! captured from the commit *before* the gateway fast path was rebuilt on
//! flat tables (PR 12); any change to which backend / replica serves which
//! request, to a finish time, a redirect hop count, an error, or to the
//! sequence `Gateway::fold_digest` emits moves them.
//!
//! `GOLDEN_TRACE`, `GOLDEN_FINAL` and their `_7` twins were retaken in PR 15,
//! when `Gateway` lost three members no caller ever set (the embedded
//! overload pipeline, `known_services`, the config slot) and `fold_digest`
//! stopped emitting their words. With the members gone and `fold_digest`
//! still emitting what the empty ones did (`0` for the absent pipeline, the
//! service keys in ascending order, an empty slot's words) every constant
//! held; only dropping those words moved the four. `GOLDEN_STATS*` and the
//! drain vector are the PR 12 values.

use canal::gateway::drain::GatewayDrain;
use canal::gateway::failure::FailureDomain;
use canal::gateway::gateway::{Gateway, GatewayConfig, GatewayError, GatewayServed};
use canal::net::{AzId, Endpoint, FiveTuple, GlobalServiceId, ServiceId, TenantId, VpcAddr, VpcId};
use canal::sim::{Digest, SimDuration, SimRng, SimTime};

const REQUESTS: usize = 50_000;
const FLOWS: usize = 4096;
const SERVICES: u32 = 24;

fn svc(i: u32) -> GlobalServiceId {
    GlobalServiceId::compose(TenantId(1 + i / 6), ServiceId(i % 6))
}

fn flow(i: usize) -> FiveTuple {
    let vpc = VpcId(1 + (i % 3) as u32);
    FiveTuple::tcp(
        Endpoint::new(
            VpcAddr::new(vpc, 10, 5, (i >> 8) as u8, i as u8),
            1024 + (i % 60_000) as u16,
        ),
        Endpoint::new(VpcAddr::new(vpc, 10, 9, 1, 1), 8443),
    )
}

fn error_code(e: GatewayError) -> u64 {
    match e {
        GatewayError::UnknownService => 1,
        GatewayError::Unavailable => 2,
        GatewayError::Throttled => 3,
        GatewayError::SessionsExhausted => 4,
        GatewayError::OverloadShed => 5,
        GatewayError::RetryBudgetExhausted => 6,
    }
}

/// Fold one outcome into the trace and count it: `tally[0]` served,
/// `tally[1..=6]` by error code, `tally[7]` served after a chain redirect.
fn fold_result(d: &mut Digest, tally: &mut [u64; 8], r: &Result<GatewayServed, GatewayError>) {
    match r {
        Ok(s) => {
            tally[0] += 1;
            tally[7] += (s.redirect_hops > 0) as u64;
            d.write_u64(0)
                .write_u64(s.backend as u64)
                .write_u64(s.replica as u64)
                .write_u64(s.finish.as_nanos())
                .write_u64(s.redirect_hops as u64);
        }
        Err(e) => {
            tally[error_code(*e) as usize] += 1;
            d.write_u64(error_code(*e));
        }
    }
}

/// One control-plane operation between request bursts.
fn operate(gw: &mut Gateway, rng: &mut SimRng, now: SimTime, trace: &mut Digest) {
    let backends = gw.backends();
    let (b, _) = backends[rng.index(backends.len())];
    let replica = rng.index(gw.config().replicas_per_backend);
    match rng.index(12) {
        0 | 1 => {
            trace.write_u64(gw.fail(FailureDomain::Replica(b, replica)).is_ok() as u64);
        }
        2 => {
            trace.write_u64(gw.fail(FailureDomain::Backend(b)).is_ok() as u64);
        }
        3 => {
            let az = AzId(rng.index(3) as u32); // AZ 2 does not exist
            trace.write_u64(gw.fail(FailureDomain::Az(az)).is_ok() as u64);
        }
        4 | 5 => {
            // Heal broadly so the trace does not decay into all-errors.
            for az in 0..2 {
                let _ = gw.recover(FailureDomain::Az(AzId(az)));
            }
            for &(b, _) in &backends {
                let _ = gw.recover(FailureDomain::Backend(b));
            }
        }
        6 => {
            trace.write_u64(gw.recover(FailureDomain::Replica(b, replica)).is_ok() as u64);
        }
        7 => {
            if backends.len() < 14 {
                let nb = gw.scale_new_backend(AzId(rng.index(2) as u32));
                let s = svc(rng.index(SERVICES as usize) as u32);
                trace
                    .write_u64(nb as u64)
                    .write_u64(gw.extend_service(s, nb) as u64)
                    .write_u64(gw.extend_service(s, nb) as u64);
            }
        }
        8 => {
            let s = svc(rng.index(SERVICES as usize) as u32);
            trace.write_u64(gw.extend_service(s, b) as u64);
        }
        9 => {
            trace.write_u64(gw.rolling_upgrade_step(b, replica) as u64);
        }
        10 => {
            let s = svc(rng.index(SERVICES as usize) as u32);
            if rng.chance(0.5) {
                gw.sandbox.throttle(s, 200.0, 5.0);
            } else {
                trace.write_u64(gw.sandbox.unthrottle(s) as u64);
            }
        }
        _ => {
            for w in gw.water_levels(now) {
                trace
                    .write_u64(w.backend as u64)
                    .write_f64(w.utilization)
                    .write_f64(w.session_occupancy)
                    .write_u64(w.alert as u64)
                    .write_u64(w.top_services.len() as u64);
                for (s, n) in w.top_services {
                    trace.write_u64(s.0).write_u64(n);
                }
            }
        }
    }
    gw.fold_digest(trace);
}

fn run_trace(seed: u64) -> (u64, u64, [u64; 8]) {
    let cfg = GatewayConfig {
        azs: 2,
        backends_per_az: 4,
        replicas_per_backend: 3,
        shard_size: 2,
        sessions_per_replica: 60,
        session_idle_timeout: SimDuration::from_millis(400),
        buckets: 64,
        ..GatewayConfig::default()
    };
    let mut rng = SimRng::seed(seed);
    let mut gw = Gateway::new(cfg);
    for i in 0..SERVICES {
        gw.register_service(svc(i), &mut rng);
    }
    let mut opened = vec![false; FLOWS];
    let mut trace = Digest::new();
    let mut tally = [0u64; 8];
    let mut now = SimTime::ZERO;
    for i in 0..REQUESTS {
        now += SimDuration::from_micros(40);
        if i % 500 == 499 {
            operate(&mut gw, &mut rng, now, &mut trace);
        }
        // Skewed flow choice: a hot set that stays established and a long
        // tail that idles out and fills tables.
        let f = if rng.chance(0.7) { rng.index(256) } else { rng.index(FLOWS) };
        let tuple = flow(f);
        // A flow always talks to the same service; 1 request in 200 names
        // a service nobody registered.
        let service = if rng.chance(0.005) { svc(SERVICES + 3) } else { svc((f % SERVICES as usize) as u32) };
        let syn = !opened[f] || rng.chance(1.0 / 16.0);
        opened[f] = true;
        let res = if rng.chance(0.1) {
            let placed = gw.backends_of(service);
            let avoid: Vec<_> = placed.iter().copied().filter(|_| rng.chance(0.5)).collect();
            gw.handle_request_avoiding(now, service, &tuple, syn, &avoid)
        } else {
            gw.handle_request(now, service, &tuple, syn)
        };
        fold_result(&mut trace, &mut tally, &res);
    }
    let mut fin = Digest::new();
    gw.fold_digest(&mut fin);
    assert_eq!(gw.stats().0, tally[0]);
    (trace.value(), fin.value(), tally)
}

fn run_drain(seed: u64) -> (u64, (u64, u64, u64, u64, u64)) {
    let mut rng = SimRng::seed(seed);
    let mut d = GatewayDrain::new(64, &[0, 1, 2, 3], 4, 1_500);
    let mut trace = Digest::new();
    let mut open: Vec<usize> = Vec::new();
    for step in 0..20_000u64 {
        let now = SimTime::from_millis(step);
        match rng.index(10) {
            0..=3 => {
                let f = rng.index(FLOWS);
                match d.open(flow(f)) {
                    Ok(g) => {
                        open.push(f);
                        trace.write_u64(g as u64);
                    }
                    Err(_) => {
                        trace.write_u64(u64::MAX);
                    }
                }
            }
            4..=7 => {
                if !open.is_empty() {
                    let f = open[rng.index(open.len())];
                    match d.packet(&flow(f)) {
                        Some((owner, hops)) => trace.write_u64(owner as u64).write_u64(hops as u64),
                        None => trace.write_u64(u64::MAX - 1),
                    };
                }
            }
            8 => {
                if !open.is_empty() {
                    let f = open.swap_remove(rng.index(open.len()));
                    trace.write_u64(d.close(&flow(f)) as u64);
                }
            }
            _ => {
                if step % 1000 < 10 {
                    let (leaving, replacement) = (rng.index(4), rng.index(4));
                    let r = d.begin_drain(now, leaving, replacement, SimDuration::from_millis(700));
                    trace.write_u64(r.is_ok() as u64);
                }
                for g in d.tick(now) {
                    trace.write_u64(g as u64);
                }
            }
        }
        if step % 997 == 0 {
            d.fold_digest(&mut trace);
        }
    }
    d.fold_digest(&mut trace);
    (trace.value(), d.stats())
}

#[test]
fn gateway_trace_matches_the_golden_vector() {
    assert_eq!(
        run_trace(0xCA7A_1001),
        (GOLDEN_TRACE, GOLDEN_FINAL, GOLDEN_STATS),
        "served sequence, gateway digest or counters moved"
    );
    // A second seed, so a fix that happens to fit one trace does not pass.
    assert_eq!(run_trace(7), (GOLDEN_TRACE_7, GOLDEN_FINAL_7, GOLDEN_STATS_7));
}

#[test]
fn drain_trace_matches_the_golden_vector() {
    assert_eq!(run_drain(0xD4A1_0002), (GOLDEN_DRAIN, GOLDEN_DRAIN_STATS));
}

const GOLDEN_TRACE: u64 = 17055183965828527528;
const GOLDEN_FINAL: u64 = 17352986483615508093;
const GOLDEN_STATS: [u64; 8] = [35582, 270, 656, 7667, 5825, 0, 0, 0];
const GOLDEN_TRACE_7: u64 = 16762011193641914386;
const GOLDEN_FINAL_7: u64 = 1152771051416243030;
const GOLDEN_STATS_7: [u64; 8] = [36654, 305, 911, 5918, 6212, 0, 0, 0];
const GOLDEN_DRAIN: u64 = 2386345611976420293;
const GOLDEN_DRAIN_STATS: (u64, u64, u64, u64, u64) = (4617, 1717, 110, 197, 3369);
