//! Golden histories of the rollout and cert-rotation controllers, and the
//! configuration plane's push prices.
//!
//! Seeded histories drive [`RolloutController`] through valid and refused
//! begins, acks, NACKs, health regressions, ack timeouts and an outcome
//! ring that evicts, with and without partitions, heals, quorum holds and
//! lease checks; through a crash at every journal prefix of multi-wave
//! rollouts, each followed by `recover` and the resumed wave; and drive
//! [`CertRotationController`] through compromise, clock skew, NACKs and
//! refused cuts past `HISTORY_CAP` and `BUNDLE_CAP`. Each history folds
//! every returned action's `deliveries()`, every ack / NACK verdict and the
//! controller's `fold` into one value. [`ConfigPlane`]'s full, wave
//! and incremental pushes fold, for every architecture at two cluster
//! shapes, into another.
//!
//! The controller constants were captured before the controllers were cut
//! down to one wave state machine with one journaled emitter per transition
//! kind, and the push-price constant before the full, wave and incremental
//! pushes shared one price function. Any change to what a controller sends,
//! to whom, when, or to the words its digest emits moves them, as does any
//! change to a push's price.

use std::collections::{BTreeMap, BTreeSet};

use canal::control::certrotation::{CertRotationController, RotationConfig};
use canal::control::configure::{ConfigPlane, PushReport};
use canal::control::journal::JournalRecord;
use canal::control::rollout::{HealthSample, RolloutAction, RolloutConfig, RolloutController};
use canal::gateway::certs::ActiveCertBundle;
use canal::mesh::arch::{Architecture, ClusterShape};
use canal::sim::{Digest, Fold, SimDuration, SimRng, SimTime, Stats};

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// Fold a batch of actions, delivery by delivery, with a separator after
/// each action so a split or merged action moves the value.
fn fold_actions(d: &mut Digest, actions: &[RolloutAction]) {
    d.write_u64(actions.len() as u64);
    for action in actions {
        for x in action.deliveries() {
            d.write_u64(u64::from(x.target))
                .write_u64(x.version)
                .write_u64(x.epoch)
                .write_u64(x.rollback as u64);
        }
        d.write_u64(u64::MAX);
    }
}

/// The pushes of a batch as `(target, version)` pairs; rollbacks are never
/// acknowledged.
fn pushes(actions: &[RolloutAction]) -> Vec<(u32, u64)> {
    let deliveries = actions.iter().flat_map(|a| a.deliveries());
    deliveries.filter(|x| !x.rollback).map(|x| (x.target, x.version)).collect()
}

/// Valid and refused begins, acks (stale, current and unissued), NACKs,
/// health regressions on both gates and unanswered waves, until more than
/// `ROLLOUT_OUTCOMES_RETAIN_CAP` outcomes were recorded. With `partitions`,
/// targets also partition and heal, a push to a partitioned target is
/// lost, and every target's lease is folded at every step. Returns the
/// digest and the controller's final [`Stats`].
fn rollout_history(seed: u64, partitions: bool) -> (u64, Stats) {
    let mut rng = SimRng::seed(seed);
    let cfg = RolloutConfig {
        canary_size: 2,
        wave_growth: 3,
        bake_time: secs(2),
        ack_timeout: secs(4),
        reachable_quorum: 0.6,
        lease_duration: secs(10),
        ..RolloutConfig::default()
    };
    const FLEET: u32 = 8;
    let mut ctl = RolloutController::new(cfg, SimDuration::from_millis(100));
    for g in 0..FLEET {
        ctl.add_target(g);
    }
    let (mut d, mut now) = (Digest::new(), SimTime::ZERO);
    let mut down: BTreeSet<u32> = BTreeSet::new();
    let mut outstanding: Vec<(u32, u64)> = Vec::new();
    let mut stats = Stats::default();
    while stats.get("outcomes_evicted").unwrap_or(0) < 24 {
        now += SimDuration::from_millis(500 + rng.index(1000) as u64);
        let mut actions = Vec::new();
        if partitions && rng.chance(0.15) {
            // Healing a reachable target, or partitioning a partitioned
            // one, is a no-op.
            let g = rng.index(FLEET as usize) as u32;
            let reachable = rng.chance(0.5);
            if reachable {
                down.remove(&g);
            } else {
                down.insert(g);
            }
            actions.extend(ctl.set_reachable(g, reachable, now));
        }
        if rng.chance(0.3) {
            // Refused outright while a rollout is in flight.
            let baseline = match rng.chance(0.5) {
                true => HealthSample::HEALTHY,
                false => HealthSample { error_rate: 0.01, p99: SimDuration::from_millis(20) },
            };
            actions.extend(ctl.begin(now, rng.chance(0.7), baseline, &mut rng));
        }
        let (error_rate, p99) = match rng.index(30) {
            0 => (0.3, 25),
            1 => (0.0, 50),
            _ => (0.005, 25),
        };
        let health = HealthSample { error_rate, p99: SimDuration::from_millis(p99) };
        actions.extend(ctl.tick(now, rng.chance(0.85).then_some(health)));
        fold_actions(&mut d, &actions);
        outstanding.extend(pushes(&actions).into_iter().filter(|(g, _)| !down.contains(g)));
        let mut i = 0;
        while i < outstanding.len() {
            if rng.chance(0.5) {
                let (target, version) = outstanding.swap_remove(i);
                let verdict = match rng.index(40) {
                    _ if down.contains(&target) => continue,
                    0..=2 => ctl.nack(target, version),
                    3 => ctl.ack(target, version.saturating_sub(1), now),
                    4 => ctl.ack(target, version + 5, now),
                    _ => ctl.ack(target, version, now),
                };
                d.write_u64(verdict as u64);
            } else {
                i += 1;
            }
        }
        if rng.chance(0.05) {
            outstanding.clear(); // the waves waiting on these time out
        }
        for g in 0..FLEET {
            d.write_u64(ctl.lease_valid(g, now) as u64);
        }
        stats = Stats::of(|s| ctl.fold(s));
        d.write_u64(stats.get("partition_holds").unwrap_or(0)).write_u64(stats.get("catch_up_pushes").unwrap_or(0));
        ctl.fold(&mut d);
    }
    for g in down {
        fold_actions(&mut d, &ctl.set_reachable(g, true, now));
    }
    d.write_u64(ctl.rollbacks());
    ctl.fold(&mut d);
    let stats = Stats::of(|s| ctl.fold(s));
    (d.value(), stats)
}

/// A converged v1, a multi-wave v2 that converges, a v3 whose canary NACKs
/// and a v4 NACKed in its third wave; then a crash at every prefix of that
/// journal. Each crash is followed by `recover` against a fleet report that
/// lost some pushes and some rollbacks, and by the resumed wave driven to
/// its end.
fn crash_history() -> u64 {
    let cfg = RolloutConfig {
        canary_size: 1,
        wave_growth: 2,
        bake_time: secs(2),
        ack_timeout: secs(5),
        ..RolloutConfig::default()
    };
    const FLEET: u32 = 9;
    let mut rng = SimRng::seed(0xC4A5_0001);
    let mut ctl = RolloutController::new(cfg, SimDuration::ZERO);
    for g in 0..FLEET {
        ctl.add_target(g);
    }
    let mut now = SimTime::ZERO;
    // `(v, nth)`: the nth push of version v is NACKed.
    for nack in [None, None, Some((3, 0)), Some((4, 3))] {
        now += secs(1);
        let mut actions = ctl.begin(now, true, HealthSample::HEALTHY, &mut rng);
        let mut sent = 0;
        while ctl.in_flight() {
            for (target, version) in pushes(&actions) {
                if nack == Some((version, sent)) {
                    ctl.nack(target, version);
                } else {
                    ctl.ack(target, version, now);
                }
                sent += (nack.map(|(v, _)| v) == Some(version)) as usize;
            }
            now += secs(1);
            actions = ctl.tick(now, Some(HealthSample::HEALTHY));
        }
    }
    let journal = ctl.journal().clone();
    let mut d = Digest::new();
    for keep in 0..=journal.len() {
        let crashed = journal.truncated(keep);
        // What each target runs: every journaled cut and rollback reached
        // it, except a share of each that the crash lost.
        let mut running: BTreeMap<u32, u64> = (0..FLEET).map(|g| (g, 0)).collect();
        for rec in crashed.records() {
            let (version, targets, lost_one_in) = match rec {
                JournalRecord::WaveCut { version, targets, .. } => (*version, targets, 4),
                JournalRecord::Rollback { to, targets, .. } => (*to, targets, 3),
                _ => continue,
            };
            for &g in targets {
                if !(g as usize + keep).is_multiple_of(lost_one_in) {
                    running.insert(g, version);
                }
            }
        }
        let mut at = now + secs(keep as u64);
        let (mut c, mut actions) =
            RolloutController::recover(cfg, SimDuration::ZERO, &crashed, &running, at);
        fold_actions(&mut d, &actions);
        c.fold(&mut d);
        for _ in 0..40 {
            for (target, version) in pushes(&actions) {
                d.write_u64(c.ack(target, version, at) as u64);
            }
            at += secs(1);
            actions = c.tick(at, None);
            fold_actions(&mut d, &actions);
            if !c.in_flight() && actions.is_empty() {
                break;
            }
        }
        c.fold(&mut d);
    }
    d.value()
}

/// Rotations of six tenants under compromise, clock skew, gateway NACKs and
/// health regressions, until more bundles were cut than `BUNDLE_CAP` keeps
/// and more waves recorded than `HISTORY_CAP` keeps. A zero `ttl` issues
/// certs that expire as they are cut, so controller-side validation
/// refuses every cut a skewed clock does not stretch to a nanosecond, and
/// each refusal must back off the tenant whose bundle it refused.
fn cert_history(seed: u64, ttl: SimDuration) -> u64 {
    let mut rng = SimRng::seed(seed);
    let rotation = RotationConfig {
        cert_ttl: ttl,
        lead_time: secs(60),
        retry_backoff: secs(30),
    };
    let rollout = RolloutConfig {
        canary_size: 1,
        wave_growth: 2,
        bake_time: secs(2),
        ack_timeout: secs(3),
        ..RolloutConfig::default()
    };
    let mut c = CertRotationController::new(rotation, rollout);
    for g in 0..5 {
        c.add_target(g);
    }
    for tenant in 1..=6u64 {
        c.register_tenant(tenant, tenant, SimTime::from_secs(10 + 15 * tenant));
    }
    let (mut d, mut now) = (Digest::new(), SimTime::ZERO);
    while c.rotations_started() < 300 {
        now += secs(1);
        if rng.chance(0.01) {
            // Tenant 7 was never registered.
            d.write_u64(c.flag_compromise(1 + rng.index(7) as u64) as u64);
        }
        let skew = rng.chance(0.05).then_some(secs(7200));
        let error_rate = if rng.chance(0.02) { 0.5 } else { 0.0 };
        let health = HealthSample { error_rate, p99: SimDuration::ZERO };
        let actions = c.tick(now, Some(health), skew, &mut rng);
        fold_actions(&mut d, &actions);
        for (target, version) in pushes(&actions) {
            // A gateway whose clock runs one second ahead refuses a bundle
            // the skewed issuer cut; a few refuse at random.
            let fresh = c.bundle(version).is_some_and(|spec| {
                ActiveCertBundle::validate(spec, now + secs(1), spec.trust.tenant, 0).is_ok()
            });
            let verdict = match fresh && !rng.chance(0.03) {
                true => c.ack(target, version, now),
                false => c.nack(target, version),
            };
            d.write_u64(verdict as u64);
        }
        c.fold(&mut d);
    }
    let stats = Stats::of(|s| c.fold(s));
    d.write_u64(stats.get("rotations_converged").unwrap_or(0)).write_u64(stats.get("rotations_rolled_back").unwrap_or(0));
    for r in c.history() {
        d.write_u64(r.tenant).write_u64(r.version).write_u64(r.ended_at.as_nanos());
    }
    for tenant in 1..=7 {
        d.write_u64(c.converged_version(tenant).unwrap_or(u64::MAX));
    }
    d.value()
}

/// Every push price [`ConfigPlane`] quotes: the full push, a canary, half
/// and all of the targets as one wave, and one- and three-entry incremental
/// pushes, for all four architectures on the paper's testbed and on a
/// production-ratio cluster.
fn push_prices() -> u64 {
    let fold = |d: &mut Digest, r: PushReport| {
        d.write_u64(r.targets as u64)
            .write_u64(r.southbound_bytes)
            .write_u64(r.build_cpu.as_nanos())
            .write_u64(r.push_time.as_nanos())
            .write_u64(r.total_time.as_nanos());
    };
    let mut d = Digest::new();
    for shape in [ClusterShape::paper_testbed(), ClusterShape::production(600)] {
        for arch in Architecture::ALL {
            let plane = ConfigPlane::new(arch);
            let full = plane.push_update(&shape);
            fold(&mut d, full);
            for wave in [1, full.targets / 2, full.targets] {
                fold(&mut d, plane.push_wave(&shape, wave));
            }
            for changed in [1, 3] {
                fold(&mut d, plane.push_incremental(&shape, changed));
            }
        }
    }
    d.value()
}

#[test]
fn push_prices_match_the_golden_value() {
    assert_eq!(push_prices(), GOLDEN_PUSH_PRICES);
}

#[test]
fn rollout_history_matches_the_golden_value() {
    assert_eq!(rollout_history(0x60_1DE0, false).0, GOLDEN_ROLLOUT);
    assert_eq!(rollout_history(7, false).0, GOLDEN_ROLLOUT_7);
}

#[test]
fn partition_history_matches_the_golden_value() {
    let (digest, stats) = rollout_history(0x9A27_0001, true);
    assert_eq!(digest, GOLDEN_PARTITION);
    // Every named count of the controller and its journal: a renamed or
    // dropped leaf moves this, though no digest moves.
    assert_eq!(stats.to_string(), GOLDEN_PARTITION_STATS);
    assert_eq!(rollout_history(7, true).0, GOLDEN_PARTITION_7);
}

#[test]
fn crash_at_every_journal_prefix_matches_the_golden_value() {
    assert_eq!(crash_history(), GOLDEN_CRASH);
}

#[test]
fn cert_history_matches_the_golden_value() {
    assert_eq!(cert_history(0xCE27_0001, secs(120)), GOLDEN_CERT);
    assert_eq!(cert_history(0xCE27_0002, SimDuration::ZERO), GOLDEN_REFUSED_CUT);
}

const GOLDEN_ROLLOUT: u64 = 17916307895593835880;
const GOLDEN_ROLLOUT_7: u64 = 10982522773771858670;
const GOLDEN_PARTITION: u64 = 202730596361911005;
const GOLDEN_PARTITION_7: u64 = 5655512504243074680;
const GOLDEN_PARTITION_STATS: &str = "\
catch_up_pushes 40
journal.appended 989
journal.evicted 0
outcomes_evicted 24
partition_holds 2506
rollbacks 200
";
const GOLDEN_CRASH: u64 = 3072231290890627611;
const GOLDEN_CERT: u64 = 10235040278344491551;
const GOLDEN_REFUSED_CUT: u64 = 11275890549243508422;
const GOLDEN_PUSH_PRICES: u64 = 10165587286627820945;
