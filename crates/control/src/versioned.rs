//! The ack ledger of versioned configuration distribution.
//!
//! §2.2's control-plane pain is churn: "any sidecar configuration change
//! triggers a global pod update", at the Table 2 frequencies. This module
//! is the xDS-style bookkeeping that makes that churn observable:
//!
//! * every config change gets a monotonically increasing **version**;
//! * each target (sidecar / proxy / gateway) tracks its **acked** version;
//!   the ledger answers "has the fleet converged" — the signal behind
//!   Fig. 4's "update completion" time;
//! * NACKs (a target rejecting a config) are surfaced instead of silently
//!   retried, since a misconfigured proxy is §2.2's outage vector.

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
}

/// The ack ledger: the head version plus every target's [`AckState`].
#[derive(Debug, Default)]
pub struct VersionedConfigStore {
    version: u64,
    // lint:allow(bounded-state) reason=one entry per registered target; the fleet roster is registered at setup, never per push
    targets: BTreeMap<TargetId, AckState>,
}

impl VersionedConfigStore {
    /// Register a target at version 0 (nothing delivered yet).
    pub fn add_target(&mut self, target: TargetId) {
        self.targets.entry(target).or_insert(AckState { acked: 0, nacked: None });
    }

    /// Fast-forward the version counter to at least `version` — crash
    /// recovery seeding: a store rebuilt by `RolloutController::recover`
    /// must accept acks for (and allocate versions after) everything the
    /// journal or the fleet has already seen. Never moves backward.
    pub(crate) fn restore_version(&mut self, version: u64) {
        self.version = self.version.max(version);
    }

    /// Allocate the next version for a configuration change.
    pub fn next_version(&mut self) -> u64 {
        self.version += 1;
        self.version
    }

    /// A target acknowledges a version. Later versions clear earlier NACKs.
    /// Returns false for unknown targets or acks of unissued versions.
    pub fn ack(&mut self, target: TargetId, version: u64) -> bool {
        if version > self.version {
            return false;
        }
        match self.targets.get_mut(&target) {
            Some(state) => {
                if version > state.acked {
                    state.acked = version;
                    if state.nacked.is_some_and(|n| n <= version) {
                        state.nacked = None;
                    }
                }
                true
            }
            None => false,
        }
    }

    /// A target rejects a version (config invalid for it). Returns false
    /// for unknown targets or NACKs of unissued versions, like [`Self::ack`].
    pub fn nack(&mut self, target: TargetId, version: u64) -> bool {
        if version > self.version {
            return false;
        }
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

    /// The lowest target rejecting `version` or a later one, if any.
    pub(crate) fn nacking(&self, version: u64) -> Option<TargetId> {
        self.targets
            .iter()
            .find(|(_, s)| s.nacked.is_some_and(|n| n >= version))
            .map(|(&t, _)| t)
    }

    /// Whether every target runs the latest version (Fig. 4's "completion").
    pub fn converged(&self) -> bool {
        self.targets.values().all(|s| s.acked >= self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nacking_names_the_lowest_target_rejecting_a_version_or_later() {
        let mut s = VersionedConfigStore::default();
        for t in 0..3 {
            s.add_target(t);
        }
        s.next_version();
        s.next_version();
        assert!(s.nack(2, 1) && s.nack(1, 2));
        assert_eq!(s.nacking(1), Some(1));
        assert_eq!(s.nacking(2), Some(1));
        assert_eq!(s.nacking(3), None, "a NACK of v2 is not a NACK of v3");
        s.ack(1, 2);
        assert_eq!(s.nacking(2), None, "a same-or-later ack clears the NACK");
        s.restore_version(1);
        assert_eq!(s.version(), 2, "restore never moves the head backward");
    }
}
