//! Randomized (property-style) tests over the write-ahead rollout
//! [`Journal`]: the invariants crash recovery leans on (DESIGN.md §15).
//! Journals are produced organically by driving a real
//! [`RolloutController`] through random begin/ack/nack/tick interleavings
//! with a seeded `SimRng`, so every case is reproducible.
//!
//! * replay is idempotent — folding the record stream twice (or any
//!   truncated prefix twice) equals folding it once;
//! * write-ahead — a crash-truncated prefix never reconstructs a target
//!   as exposed unless the surviving journal recorded the wave cut that
//!   pushed it, and every push action the controller hands out is already
//!   covered by a journaled wave cut / rollback at the moment it leaves;
//! * truncating at the full length loses nothing.

use std::collections::BTreeSet;

use canal_control::journal::{Journal, JournalRecord};
use canal_control::rollout::{
    Delivery, HealthSample, RolloutAction, RolloutConfig, RolloutController,
};
use canal_sim::{Digest, SimDuration, SimRng, SimTime};

const CASES: usize = 64;

/// Drive a controller through a random rollout history and return its
/// journal. The driver acks/nacks targets at random, advances time in
/// random strides (so bakes, ack timeouts and promotions all fire), and
/// checks the write-ahead invariant on every action batch
/// ([`assert_write_ahead`]).
fn random_history(seed: u64) -> Journal {
    let mut rng = SimRng::seed(seed);
    let fleet = 3 + rng.index(6) as u32;
    let cfg = RolloutConfig {
        canary_size: 1 + rng.index(2),
        wave_growth: 2 + rng.index(3),
        bake_time: SimDuration::from_millis(200),
        ack_timeout: SimDuration::from_millis(800),
        ..RolloutConfig::default()
    };
    let mut ctl = RolloutController::new(cfg, SimDuration::ZERO);
    for g in 0..fleet {
        ctl.add_target(g);
    }
    let mut now = SimTime::ZERO;
    let mut outstanding: Vec<(u32, u64)> = Vec::new();
    for _ in 0..200 {
        now += SimDuration::from_millis(50 + rng.index(200) as u64);
        let mut actions = Vec::new();
        if !ctl.in_flight() && rng.chance(0.5) {
            actions.extend(ctl.begin(now, rng.chance(0.9), HealthSample::HEALTHY, &mut rng));
        }
        let health = if rng.chance(0.1) {
            HealthSample { error_rate: 0.3, p99: SimDuration::ZERO }
        } else {
            HealthSample::HEALTHY
        };
        actions.extend(ctl.tick(now, Some(health)));
        for action in &actions {
            assert_write_ahead(ctl.journal(), action, ctl.epoch(), seed);
            outstanding.extend(action.deliveries().map(|d| (d.target, d.version)));
        }
        // Deliver a random subset of outstanding pushes as acks or nacks;
        // the rest stay in flight (some will hit the ack timeout).
        let mut i = 0;
        while i < outstanding.len() {
            if rng.chance(0.6) {
                let (target, version) = outstanding.swap_remove(i);
                if rng.chance(0.9) {
                    ctl.ack(target, version, now);
                } else {
                    ctl.nack(target, version);
                }
            } else {
                i += 1;
            }
        }
    }
    ctl.journal().clone()
}

/// Write-ahead, through the delivery view of an action: at the moment an
/// action is handed south the journal already carries the record that
/// covers it, a `WaveCut` of the pushed version or a `Rollback` to the
/// restored one, and the action's deliveries are that record target for
/// target: each target once, in the record's order, all at the live epoch
/// with one version and one direction.
fn assert_write_ahead(journal: &Journal, action: &RolloutAction, epoch: u64, seed: u64) {
    let deliveries: Vec<Delivery> = action.deliveries().collect();
    let head = deliveries[0];
    assert_eq!(head.epoch, epoch, "seed {seed}: {head:?} left at a foreign epoch");
    let targets: Vec<u32> = deliveries.iter().map(|d| d.target).collect();
    assert_eq!(
        deliveries,
        targets.iter().map(|&target| Delivery { target, ..head }).collect::<Vec<_>>(),
        "seed {seed}: one action, one version, epoch and direction"
    );
    let distinct: BTreeSet<u32> = targets.iter().copied().collect();
    assert_eq!(distinct.len(), targets.len(), "seed {seed}: a target delivered twice in {targets:?}");
    let journaled = journal.records().any(|r| match r {
        JournalRecord::WaveCut { epoch: e, version, targets: cut, .. } => {
            !head.rollback && (*e, *version, cut) == (epoch, head.version, &targets)
        }
        JournalRecord::Rollback { epoch: e, to, targets: rolled, .. } => {
            head.rollback && (*e, *to, rolled) == (epoch, head.version, &targets)
        }
        _ => false,
    });
    assert!(journaled, "seed {seed}: {head:?} to {targets:?} left before it was journaled");
}

fn digest_of(state: &canal_control::journal::ReplayState) -> u64 {
    let mut d = Digest::new();
    state.fold_digest(&mut d);
    d.value()
}

/// Replaying a journal twice — re-applying every retained record on top of
/// a completed replay — must equal replaying it once, for the full journal
/// and for every crash-truncated prefix.
#[test]
fn replay_is_idempotent_for_every_truncated_prefix() {
    for case in 0..CASES {
        let journal = random_history(0x10_0E_17 + case as u64);
        // Check a spread of truncation points including the boundaries.
        let len = journal.len();
        let mut points: Vec<usize> = vec![0, len / 3, len / 2, len];
        points.dedup();
        for keep in points {
            let crashed = journal.truncated(keep);
            let once = crashed.replay();
            let mut twice = once.clone();
            for rec in crashed.records() {
                twice.apply(rec);
            }
            assert_eq!(
                once, twice,
                "case {case}: replaying prefix keep={keep} twice diverged from once"
            );
            assert_eq!(
                digest_of(&once),
                digest_of(&twice),
                "case {case}: prefix keep={keep} replay digests diverged"
            );
        }
    }
}

/// A crash-truncated prefix never reconstructs a target as exposed unless
/// the surviving journal recorded the wave cut that pushed it. (The
/// converse over-report — exposed per the journal but the push never left
/// the wire — is allowed and safe: recovery's re-push is idempotent.)
#[test]
fn truncated_prefix_never_invents_exposure() {
    for case in 0..CASES {
        let journal = random_history(0xE4_05_0E + case as u64);
        for keep in 0..=journal.len() {
            let crashed = journal.truncated(keep);
            // Every target a surviving WaveCut record covers, per version.
            let state = crashed.replay();
            let Some(fl) = state.in_flight.as_ref() else {
                continue;
            };
            let journaled: BTreeSet<u32> = crashed
                .records()
                .filter_map(|r| match r {
                    JournalRecord::WaveCut { version, targets, .. }
                        if *version == fl.version =>
                    {
                        Some(targets.iter().copied())
                    }
                    _ => None,
                })
                .flatten()
                .collect();
            for t in &fl.exposed {
                assert!(
                    journaled.contains(t),
                    "case {case} keep={keep}: target {t} reconstructed as exposed to v{} \
                     without a journaled wave cut",
                    fl.version
                );
            }
        }
    }
}

/// Truncating at the full retained length is the identity for replay: the
/// "crash" lost nothing, so recovery sees exactly the live state.
#[test]
fn truncation_at_full_length_loses_nothing() {
    for case in 0..CASES {
        let journal = random_history(0xF0_11 + case as u64);
        let full = journal.replay();
        let kept = journal.truncated(journal.len()).replay();
        assert_eq!(
            full, kept,
            "case {case}: full-length truncation changed the replay state"
        );
    }
}
