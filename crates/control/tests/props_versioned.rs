//! Randomized (property-style) tests over [`VersionedConfigStore`], the ack
//! ledger: the invariants the rollout controller leans on. Cases come from
//! a seeded `SimRng` so runs are reproducible.
//!
//! * acked version is monotone per target — no replay regresses a proxy;
//! * a NACK is cleared only by an ack of the same-or-later version;
//! * an ack or NACK of a version never issued, or by a target never
//!   registered, is refused;
//! * `converged()` ⇔ every target's acked version is at head.

use canal_control::versioned::VersionedConfigStore;
use canal_sim::SimRng;

const CASES: usize = 64;

/// Drive a random interleaving of new-version / ack / nack operations and
/// check the store's invariants after every step.
#[test]
fn acked_versions_are_monotone_and_nacks_clear_only_by_later_ack() {
    let mut meta = SimRng::seed(0x005E_ED11);
    for case in 0..CASES {
        let mut rng = SimRng::seed(0xACC0 + case as u64 + meta.u64() % 7);
        let targets = 2 + rng.index(6) as u32;
        let mut store = VersionedConfigStore::default();
        for tgt in 0..targets {
            store.add_target(tgt);
        }
        // One slot past the roster: a target that was never registered.
        let mut acked: Vec<u64> = vec![0; targets as usize + 1];
        let mut nacked: Vec<Option<u64>> = vec![None; targets as usize + 1];
        for _ in 0..200 {
            // A random target and a random version around head.
            let tgt = rng.index(targets as usize + 1) as u32;
            let v = rng.index(store.version() as usize + 2) as u64;
            let valid = tgt < targets && v <= store.version();
            match rng.index(3) {
                0 => {
                    store.next_version();
                }
                1 => {
                    let before = acked[tgt as usize];
                    let accepted = store.ack(tgt, v);
                    assert_eq!(accepted, valid, "case {case}: ack of v{v} by {tgt}");
                    if accepted && v > before {
                        // Monotone: only a strictly later ack advances, and
                        // only a same-or-later ack clears a NACK.
                        acked[tgt as usize] = v;
                        if nacked[tgt as usize].is_some_and(|n| n <= v) {
                            nacked[tgt as usize] = None;
                        }
                    }
                }
                _ => {
                    let accepted = store.nack(tgt, v);
                    assert_eq!(accepted, valid, "case {case}: NACK of v{v} by {tgt}");
                    if accepted {
                        nacked[tgt as usize] = Some(v);
                    }
                }
            }
            // Invariant: the store's per-target state matches the model.
            for tgt in 0..targets {
                let s = store.ack_state(tgt).unwrap();
                assert_eq!(
                    s.acked, acked[tgt as usize],
                    "case {case}: target {tgt} acked version drifted"
                );
                assert_eq!(
                    s.nacked, nacked[tgt as usize],
                    "case {case}: target {tgt} nack state drifted"
                );
            }
        }
    }
}

/// `converged()` must hold exactly when every registered target has acked
/// the store's head version.
#[test]
fn converged_iff_all_targets_at_head() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0xC0117 + case as u64);
        let targets = 1 + rng.index(8) as u32;
        let mut store = VersionedConfigStore::default();
        for tgt in 0..targets {
            store.add_target(tgt);
        }
        for _ in 0..100 {
            match rng.index(3) {
                0 => {
                    store.next_version();
                }
                _ => {
                    let tgt = rng.index(targets as usize) as u32;
                    let v = if rng.chance(0.8) {
                        store.version()
                    } else {
                        store.version().saturating_sub(1)
                    };
                    store.ack(tgt, v);
                }
            }
            let head = store.version();
            let all_at_head =
                (0..targets).all(|tgt| store.ack_state(tgt).unwrap().acked >= head);
            assert_eq!(
                store.converged(),
                all_at_head,
                "case {case}: converged() disagrees with per-target acks at head {head}"
            );
        }
    }
}
