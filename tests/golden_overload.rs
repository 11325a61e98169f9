//! Golden stream of the gateway overload pipeline.
//!
//! 20,000 seeded offers from 4 tenants (both priorities, one retry or hedge
//! in five) go through `OverloadControl` under three policies: the default
//! pipeline on 8 cores; one shared FIFO on 1 core with CoDel, brownout and
//! the retry budget off; and 8-slot queues on 2 cores.
//! The first 4,000 arrivals come at half the ingress stage's capacity and
//! the rest at twice it, with tenant 1 sending most of the surge and most of
//! that as bulk, so every stage acts: caps tail-drop, CoDel sheds, brownout
//! engages and budgets run dry.
//!
//! One digest folds, per policy, every offer's result, every pumped grant
//! (ticket, start, shed), the pipeline's `fold` every 97 offers and
//! its `signals()` every 1,000. The constants were captured before parked
//! requests moved from a side map into the fair queue; any change to what
//! is granted when, what is shed, what the pipeline holds or what it
//! reports moves them. `GOLDEN` was retaken when a parked request lost its
//! five-tuple, SYN flag and client, which only `fold` read; the tally held.

use canal::gateway::gateway::GatewayError;
use canal::gateway::overload::StartedRequest;
use canal::gateway::{AttemptKind, BrownoutLevel, OverloadConfig, OverloadControl, OverloadSignals};
use canal::net::{GlobalServiceId, Priority, ServiceId, TenantId};
use canal::sim::{Digest, Fold, SimDuration, SimRng, SimTime};

const OFFERS: usize = 20_000;
const TENANTS: usize = 4;
const STRETCH: usize = 2_000;
/// Offers `4,000..20,000` surge; the first 4,000 are calm.
const SURGE_STRETCHES: std::ops::Range<usize> = 2..10;
const DIGEST_EVERY: usize = 97;
const SIGNALS_EVERY: usize = 1_000;

const GOLDEN: u64 = 0xab79_3437_bdff_941c;
/// Summed over the three policies: granted, shed by CoDel, tail-dropped at
/// the caps, refused by the retry budget (the only other refusal, an
/// unknown class, cannot happen: `offer` registers the class first).
const GOLDEN_TALLY: [u64; 4] = [38_277, 1, 16_789, 4_933];

fn policies() -> [OverloadConfig; 3] {
    [
        OverloadConfig::default(),
        OverloadConfig {
            ingress_cores: 1,
            per_tenant: false,
            codel: false,
            brownout: false,
            retry_budget: false,
            ..OverloadConfig::default()
        },
        OverloadConfig {
            ingress_cores: 2,
            max_slots: 8,
            ..OverloadConfig::default()
        },
    ]
}

/// Pump `ov` at `now`, appending its grants to `out`.
fn pump(ov: &mut OverloadControl, now: SimTime, out: &mut Vec<StartedRequest>) {
    ov.pump(now, out);
}

fn fold_started(d: &mut Digest, tally: &mut [u64; 4], started: &mut Vec<StartedRequest>) {
    for s in started.drain(..) {
        d.write_u64(s.ticket)
            .write_u64(s.start.as_nanos())
            .write_u64(s.shed as u64);
        tally[usize::from(s.shed)] += 1;
    }
}

fn fold_signals(d: &mut Digest, s: &OverloadSignals) {
    d.write_u64(s.offered)
        .write_u64(s.started)
        .write_u64(s.shed_caps)
        .write_u64(s.shed_codel)
        .write_u64(s.budget_rejected)
        .write_u64(s.queue_depth as u64)
        .write_u64(s.queued_bytes)
        .write_f64(s.shed_rate)
        .write_u64(s.sojourn_p99.as_nanos())
        .write_u64(match s.brownout {
            BrownoutLevel::Normal => 0,
            BrownoutLevel::NoObservability => 1,
            BrownoutLevel::NoCanary => 2,
        });
}

fn run(cfg: OverloadConfig, seed: u64, d: &mut Digest, tally: &mut [u64; 4]) {
    let mut rng = SimRng::seed(seed);
    let mut ov = OverloadControl::new(cfg);
    let mut started = Vec::new();
    // The ingress stage serves one request per `service_gap` at full load.
    let service_gap = (cfg.base_cpu.as_nanos() / cfg.ingress_cores as u64) as f64;
    let mut now = SimTime::ZERO;
    for k in 0..OFFERS {
        let surge = SURGE_STRETCHES.contains(&(k / STRETCH));
        let mean_gap = if surge { service_gap / 2.0 } else { service_gap * 2.0 };
        now += SimDuration::from_nanos(rng.exponential(mean_gap) as u64);
        pump(&mut ov, now, &mut started);
        fold_started(d, tally, &mut started);

        let tenant = if surge && rng.chance(0.7) { 1 } else { 1 + rng.index(TENANTS) as u32 };
        // A surging tenant 1 sends mostly bulk, the class DRR serves last.
        let priority = if surge && tenant == 1 && rng.chance(0.8) {
            Priority::Bulk
        } else {
            Priority::ALL[rng.index(2)]
        };
        let client = u64::from(tenant) * 8 + rng.index(8) as u64;
        let kind = match rng.index(10) {
            0 => AttemptKind::Retry,
            1 => AttemptKind::Hedge,
            _ => AttemptKind::First,
        };
        // These draws feed nothing: they keep the stream `GOLDEN_TALLY`
        // was captured on.
        rng.chance(0.1);
        for n in [4, 256, 60_000] {
            rng.index(n);
        }
        let bytes = 64 + rng.index(32 << 10) as u64;
        let service = GlobalServiceId::compose(TenantId(tenant), ServiceId(1 + rng.index(3) as u32));
        match ov.offer(now, service, priority, client, kind, bytes) {
            Ok(ticket) => {
                d.write_u64(0).write_u64(ticket);
            }
            Err(e) => {
                d.write_u64(1).write_str(&format!("{e:?}"));
                tally[if e == GatewayError::OverloadShed { 2 } else { 3 }] += 1;
            }
        }
        if k % DIGEST_EVERY == DIGEST_EVERY - 1 {
            ov.fold(d);
        }
        if k % SIGNALS_EVERY == SIGNALS_EVERY - 1 {
            fold_signals(d, &ov.signals());
        }
    }
    // Drain: everything still parked is granted or shed.
    pump(&mut ov, now + SimDuration::from_secs(60), &mut started);
    fold_started(d, tally, &mut started);
    ov.fold(d);
    fold_signals(d, &ov.signals());
    assert_eq!(ov.queue_depth(), 0);
}

#[test]
fn overload_stream_matches_the_golden_value() {
    let mut d = Digest::new();
    let mut tally = [0u64; 4];
    for (i, cfg) in policies().into_iter().enumerate() {
        run(cfg, 0x00ad_0000 + i as u64, &mut d, &mut tally);
    }
    let digest = d.value();
    assert_eq!(tally.iter().sum::<u64>(), 3 * OFFERS as u64);
    assert_eq!(tally, GOLDEN_TALLY, "digest {digest:#018x}");
    assert_eq!(digest, GOLDEN, "{digest:#018x}");
}
