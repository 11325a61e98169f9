//! Versioned configuration distribution with acknowledgement tracking.
//!
//! §2.2's control-plane pain is churn: "any sidecar configuration change
//! triggers a global pod update", at the Table 2 frequencies. This module
//! is the xDS-style bookkeeping that makes that churn observable and
//! bounded:
//!
//! * every config change bumps a monotonically increasing **version**;
//! * changes inside a **debounce window** coalesce into one push (the
//!   standard mitigation for update storms);
//! * each target (sidecar / proxy / gateway) tracks its **acked** version;
//!   the store answers "which targets are stale" and "has the fleet
//!   converged" — the signal behind Fig. 4's "update completion" time;
//! * NACKs (a target rejecting a config) are surfaced instead of silently
//!   retried, since a misconfigured proxy is §2.2's outage vector.

use canal_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Identifier of a configuration target (one proxy).
pub type TargetId = u32;

/// A target's acknowledgement state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckState {
    /// Highest version the target acknowledged.
    pub acked: u64,
    /// Version the target rejected, if any (cleared by a later ack).
    pub nacked: Option<u64>,
    /// When the last ack arrived.
    pub acked_at: SimTime,
}

/// The versioned store.
#[derive(Debug)]
pub struct VersionedConfigStore {
    version: u64,
    /// Version when the currently-open debounce window started, if any.
    pending_since: Option<SimTime>,
    debounce: SimDuration,
    targets: BTreeMap<TargetId, AckState>,
    pushes_issued: u64,
    updates_coalesced: u64,
}

impl VersionedConfigStore {
    /// Store with the given debounce window (0 disables coalescing).
    pub fn new(debounce: SimDuration) -> Self {
        VersionedConfigStore {
            version: 0,
            pending_since: None,
            debounce,
            targets: BTreeMap::new(),
            pushes_issued: 0,
            updates_coalesced: 0,
        }
    }

    /// Register a target at version 0 (nothing delivered yet).
    pub fn add_target(&mut self, target: TargetId) {
        self.targets.entry(target).or_insert(AckState {
            acked: 0,
            nacked: None,
            acked_at: SimTime::ZERO,
        });
    }

    /// Remove a target (proxy decommissioned).
    pub fn remove_target(&mut self, target: TargetId) -> bool {
        self.targets.remove(&target).is_some()
    }

    /// Fast-forward the version counter to at least `version` — crash
    /// recovery seeding: a store rebuilt by `RolloutController::recover`
    /// must accept acks for (and allocate versions after) everything the
    /// journal or the fleet has already seen. Never moves backward.
    pub fn restore_version(&mut self, version: u64) {
        self.version = self.version.max(version);
    }

    /// Record a configuration change at `now`. Returns the version the
    /// change landed in. Changes within the debounce window share a version
    /// (they will be pushed together).
    pub fn record_change(&mut self, now: SimTime) -> u64 {
        match self.pending_since {
            Some(since) if now.since(since) < self.debounce => {
                self.updates_coalesced += 1;
                self.version
            }
            _ => {
                self.version += 1;
                self.pending_since = Some(now);
                self.version
            }
        }
    }

    /// Close the current debounce window and mark the version pushed to all
    /// targets. Returns `(version, stale_target_count)` or `None` if there
    /// is nothing pending.
    pub fn flush_push(&mut self, _now: SimTime) -> Option<(u64, usize)> {
        self.pending_since.take()?;
        self.pushes_issued += 1;
        let stale = self
            .targets
            .values()
            .filter(|t| t.acked < self.version)
            .count();
        Some((self.version, stale))
    }

    /// A target acknowledges a version. Later versions clear earlier NACKs.
    /// Returns false for unknown targets or acks of unissued versions.
    pub fn ack(&mut self, target: TargetId, version: u64, now: SimTime) -> bool {
        if version > self.version {
            return false;
        }
        match self.targets.get_mut(&target) {
            Some(state) => {
                if version > state.acked {
                    state.acked = version;
                    state.acked_at = now;
                    if state.nacked.is_some_and(|n| n <= version) {
                        state.nacked = None;
                    }
                }
                true
            }
            None => false,
        }
    }

    /// A target rejects a version (config invalid for it).
    pub fn nack(&mut self, target: TargetId, version: u64) -> bool {
        match self.targets.get_mut(&target) {
            Some(state) => {
                state.nacked = Some(version);
                true
            }
            None => false,
        }
    }

    /// Current (latest) version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A target's acknowledgement state, if registered.
    pub fn ack_state(&self, target: TargetId) -> Option<AckState> {
        self.targets.get(&target).copied()
    }

    /// Targets behind the latest version.
    pub fn stale_targets(&self) -> Vec<TargetId> {
        self.targets
            .iter()
            .filter(|(_, s)| s.acked < self.version)
            .map(|(&t, _)| t)
            .collect()
    }

    /// Targets currently rejecting a config.
    pub fn nacked_targets(&self) -> Vec<TargetId> {
        self.targets
            .iter()
            .filter(|(_, s)| s.nacked.is_some())
            .map(|(&t, _)| t)
            .collect()
    }

    /// Whether every target runs the latest version (Fig. 4's "completion").
    pub fn converged(&self) -> bool {
        self.targets.values().all(|s| s.acked >= self.version)
    }

    /// Instant the fleet converged on the current version (max ack time),
    /// or `None` while still converging.
    pub fn converged_at(&self) -> Option<SimTime> {
        if !self.converged() || self.targets.is_empty() {
            return None;
        }
        self.targets.values().map(|s| s.acked_at).max()
    }

    /// Lifetime counters `(pushes_issued, updates_coalesced)` — how much
    /// southbound traffic the debounce window saved.
    pub fn stats(&self) -> (u64, u64) {
        (self.pushes_issued, self.updates_coalesced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: fn(u64) -> SimTime = SimTime::from_secs;

    fn store_with_targets(n: u32) -> VersionedConfigStore {
        let mut s = VersionedConfigStore::new(SimDuration::from_secs(2));
        for t in 0..n {
            s.add_target(t);
        }
        s
    }

    #[test]
    fn change_push_ack_converges() {
        let mut s = store_with_targets(3);
        let v = s.record_change(T(0));
        assert_eq!(v, 1);
        let (pushed, stale) = s.flush_push(T(0)).unwrap();
        assert_eq!((pushed, stale), (1, 3));
        assert!(!s.converged());
        for t in 0..3 {
            assert!(s.ack(t, 1, T(1 + t as u64)));
        }
        assert!(s.converged());
        assert_eq!(s.converged_at(), Some(T(3)));
        assert!(s.stale_targets().is_empty());
    }

    #[test]
    fn debounce_coalesces_update_storms() {
        // Table 2: 40–70 updates/min on big clusters. A 2s window turns a
        // burst of changes into one version.
        let mut s = store_with_targets(2);
        let v1 = s.record_change(T(0));
        let v2 = s.record_change(T(1)); // within the window
        assert_eq!(v1, v2);
        let (_, coalesced) = s.stats();
        assert_eq!(coalesced, 1);
        // After the window, a new change opens a new version.
        s.flush_push(T(2));
        let v3 = s.record_change(T(10));
        assert_eq!(v3, v1 + 1);
    }

    #[test]
    fn stale_targets_tracked_per_version() {
        let mut s = store_with_targets(3);
        s.record_change(T(0));
        s.flush_push(T(0));
        s.ack(0, 1, T(1));
        assert_eq!(s.stale_targets(), vec![1, 2]);
        // A second version leaves the early acker stale again.
        s.record_change(T(10));
        s.flush_push(T(10));
        assert_eq!(s.stale_targets(), vec![0, 1, 2]);
        assert!(!s.converged());
    }

    #[test]
    fn nack_surfaces_until_later_ack() {
        let mut s = store_with_targets(2);
        s.record_change(T(0));
        s.flush_push(T(0));
        assert!(s.nack(1, 1));
        assert_eq!(s.nacked_targets(), vec![1]);
        // Version 2 fixes it; the target acks and the NACK clears.
        s.record_change(T(5));
        s.flush_push(T(5));
        s.ack(1, 2, T(6));
        assert!(s.nacked_targets().is_empty());
    }

    #[test]
    fn invalid_acks_rejected() {
        let mut s = store_with_targets(1);
        s.record_change(T(0));
        assert!(!s.ack(0, 99, T(0)), "cannot ack an unissued version");
        assert!(!s.ack(42, 1, T(0)), "unknown target");
        assert!(!s.nack(42, 1));
        // Stale acks don't regress the state.
        s.flush_push(T(0));
        s.ack(0, 1, T(1));
        s.record_change(T(10));
        s.flush_push(T(10));
        s.ack(0, 2, T(11));
        assert!(s.ack(0, 1, T(12)), "stale ack accepted but ignored");
        assert!(s.converged());
    }

    #[test]
    fn target_lifecycle() {
        let mut s = store_with_targets(2);
        s.record_change(T(0));
        s.flush_push(T(0));
        s.ack(0, 1, T(1));
        // Removing the laggard makes the fleet converged.
        assert!(s.remove_target(1));
        assert!(s.converged());
        // New targets join stale.
        s.add_target(7);
        assert!(!s.converged());
        assert_eq!(s.stale_targets(), vec![7]);
        assert!(!s.remove_target(99));
    }

    #[test]
    fn empty_flush_is_none() {
        let mut s = store_with_targets(1);
        assert!(s.flush_push(T(0)).is_none());
        s.record_change(T(0));
        assert!(s.flush_push(T(0)).is_some());
        assert!(s.flush_push(T(1)).is_none(), "window consumed");
    }
}
