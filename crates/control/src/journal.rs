//! Write-ahead rollout journal: the crash-recovery substrate for the
//! control plane (DESIGN.md §15).
//!
//! Every rollout intent — begin, wave cut, ack, nack, rollback, converge —
//! is appended to the [`Journal`] *before* the corresponding southbound
//! push leaves the controller. A controller incarnation that crashes
//! mid-wave can therefore be replaced by a new incarnation that replays
//! the journal ([`Journal::replay`]), reconciles the result against the
//! fleet's reported running versions (anti-entropy), and either resumes
//! the in-flight wave or aborts to `last_known_good`.
//!
//! Three properties the property tests pin down:
//!
//! * **Write-ahead**: a target can only be reconstructed as exposed if the
//!   journal recorded the wave cut that pushed it. Crash-truncated
//!   prefixes may *over*-report exposure relative to what actually left
//!   the wire (the record lands before the push), which is safe — the
//!   recovery re-push is idempotent — but never under-report.
//! * **Idempotent replay**: records fold into [`ReplayState`] with
//!   max/union semantics, so replaying a journal twice equals once.
//! * **Bounded**: the record ring holds at most [`JOURNAL_RETAIN_CAP`]
//!   entries. Eviction folds the oldest record into a checkpoint
//!   [`ReplayState`] first, so `replay()` is invariant under eviction,
//!   and bumps an eviction counter that the digest covers.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use canal_sim::invariant::Digest;
use canal_sim::time::SimTime;

use crate::versioned::TargetId;

/// Maximum journal records retained in memory. Older records are folded
/// into the checkpoint [`ReplayState`] and evicted; the retained window
/// comfortably covers any single in-flight rollout at region scale.
pub const JOURNAL_RETAIN_CAP: usize = 4096;

/// Which distribution plane a journaled rollout belongs to. The journal
/// itself is payload-agnostic — versions are opaque `u64`s — but recovery
/// needs to know which southbound store to reconcile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RolloutKind {
    /// Route/config table distribution (PR 5).
    Config,
    /// Certificate bundle rotation waves (PR 6).
    Cert,
    /// Compiled policy table cuts (PR 8).
    Policy,
}

impl RolloutKind {
    fn tag(self) -> u64 {
        match self {
            RolloutKind::Config => 1,
            RolloutKind::Cert => 2,
            RolloutKind::Policy => 3,
        }
    }
}

/// One journal entry. Every record carries the epoch of the controller
/// incarnation that wrote it and the sim time of the write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A new controller incarnation came up with this epoch.
    Epoch {
        /// The incarnation's fencing epoch (monotone across restarts).
        epoch: u64,
        /// When the incarnation started.
        at: SimTime,
    },
    /// A rollout began: version, fallback, and the full shuffled push
    /// order (the fleet roster at begin time).
    Begin {
        /// Writing incarnation.
        epoch: u64,
        /// Which distribution plane.
        kind: RolloutKind,
        /// Version being rolled out.
        version: u64,
        /// Converged fallback if this rollout aborts.
        last_known_good: u64,
        /// Seeded-shuffle push order over the whole fleet.
        order: Vec<TargetId>,
        /// Journal write time.
        at: SimTime,
    },
    /// A wave was cut: these targets are about to receive the push.
    /// Written *before* the push actions are handed south.
    WaveCut {
        /// Writing incarnation.
        epoch: u64,
        /// Version being pushed.
        version: u64,
        /// Wave ordinal within the rollout (0 = canary).
        wave: usize,
        /// Targets covered by this wave.
        targets: Vec<TargetId>,
        /// Journal write time.
        at: SimTime,
    },
    /// A target acknowledged a version.
    Ack {
        /// Writing incarnation.
        epoch: u64,
        /// Acking target.
        target: TargetId,
        /// Version acknowledged.
        version: u64,
        /// Journal write time.
        at: SimTime,
    },
    /// A target rejected a version.
    Nack {
        /// Writing incarnation.
        epoch: u64,
        /// Nacking target.
        target: TargetId,
        /// Version rejected.
        version: u64,
        /// Journal write time.
        at: SimTime,
    },
    /// The rollout of `version` was aborted; `targets` are being rolled
    /// back to `to`. Written *before* the rollback pushes leave.
    Rollback {
        /// Writing incarnation.
        epoch: u64,
        /// Version being abandoned.
        version: u64,
        /// Fallback version the fleet is being returned to.
        to: u64,
        /// Exposed targets that must be rolled back.
        targets: Vec<TargetId>,
        /// Journal write time.
        at: SimTime,
    },
    /// Every target acked `version`; it is the new `last_known_good`.
    Converge {
        /// Writing incarnation.
        epoch: u64,
        /// Newly converged version.
        version: u64,
        /// Journal write time.
        at: SimTime,
    },
}

impl JournalRecord {
    /// The epoch of the incarnation that wrote this record.
    pub fn epoch(&self) -> u64 {
        match self {
            JournalRecord::Epoch { epoch, .. }
            | JournalRecord::Begin { epoch, .. }
            | JournalRecord::WaveCut { epoch, .. }
            | JournalRecord::Ack { epoch, .. }
            | JournalRecord::Nack { epoch, .. }
            | JournalRecord::Rollback { epoch, .. }
            | JournalRecord::Converge { epoch, .. } => *epoch,
        }
    }

    /// Fold the record into a digest (order- and content-sensitive).
    pub fn fold_digest(&self, digest: &mut Digest) {
        match self {
            JournalRecord::Epoch { epoch, at } => {
                digest.write_u64(1).write_u64(*epoch).write_u64(at.as_nanos());
            }
            JournalRecord::Begin { epoch, kind, version, last_known_good, order, at } => {
                digest
                    .write_u64(2)
                    .write_u64(*epoch)
                    .write_u64(kind.tag())
                    .write_u64(*version)
                    .write_u64(*last_known_good)
                    .write_u64(at.as_nanos());
                for t in order {
                    digest.write_u64(u64::from(*t));
                }
            }
            JournalRecord::WaveCut { epoch, version, wave, targets, at } => {
                digest
                    .write_u64(3)
                    .write_u64(*epoch)
                    .write_u64(*version)
                    .write_u64(*wave as u64)
                    .write_u64(at.as_nanos());
                for t in targets {
                    digest.write_u64(u64::from(*t));
                }
            }
            JournalRecord::Ack { epoch, target, version, at } => {
                digest
                    .write_u64(4)
                    .write_u64(*epoch)
                    .write_u64(u64::from(*target))
                    .write_u64(*version)
                    .write_u64(at.as_nanos());
            }
            JournalRecord::Nack { epoch, target, version, at } => {
                digest
                    .write_u64(5)
                    .write_u64(*epoch)
                    .write_u64(u64::from(*target))
                    .write_u64(*version)
                    .write_u64(at.as_nanos());
            }
            JournalRecord::Rollback { epoch, version, to, targets, at } => {
                digest
                    .write_u64(6)
                    .write_u64(*epoch)
                    .write_u64(*version)
                    .write_u64(*to)
                    .write_u64(at.as_nanos());
                for t in targets {
                    digest.write_u64(u64::from(*t));
                }
            }
            JournalRecord::Converge { epoch, version, at } => {
                digest.write_u64(7).write_u64(*epoch).write_u64(*version).write_u64(at.as_nanos());
            }
        }
    }
}

/// The in-flight rollout reconstructed by replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayRollout {
    /// Which distribution plane the rollout belongs to.
    pub kind: Option<RolloutKind>,
    /// Version in flight.
    pub version: u64,
    /// Converged fallback recorded at begin.
    pub last_known_good: u64,
    /// Full push order (fleet roster at begin).
    pub order: Vec<TargetId>,
    /// Targets covered by a journaled wave cut (write-ahead: a superset
    /// of what actually left the wire before a crash).
    pub exposed: BTreeSet<TargetId>,
    /// Highest wave ordinal journaled.
    pub wave: usize,
    /// When the rollout began.
    pub started_at: SimTime,
}

/// A journaled rollback whose completion the old incarnation never
/// confirmed — the new incarnation must finish it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRollback {
    /// The abandoned version.
    pub version: u64,
    /// The version the fleet is being returned to.
    pub to: u64,
    /// Exposed targets that must end up running `to`.
    pub targets: Vec<TargetId>,
}

/// State reconstructed from a journal by [`Journal::replay`]. All record
/// application is idempotent (max/union semantics), so replaying a
/// journal — or any prefix twice — folds to the same state as once.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayState {
    /// Highest epoch any record carries.
    pub epoch: u64,
    /// Highest converged version.
    pub last_good: u64,
    /// Highest version any Begin record carries (used to discard
    /// superseded rollback records on re-application).
    pub latest_begun: u64,
    /// The non-terminal rollout, if the journal ends mid-flight.
    pub in_flight: Option<ReplayRollout>,
    /// A journaled rollback not yet superseded by a later begin/converge.
    pub pending_rollback: Option<PendingRollback>,
    /// Highest version each target acknowledged (per the journal).
    pub acked: BTreeMap<TargetId, u64>,
    /// Highest version each target rejected (per the journal).
    pub nacked: BTreeMap<TargetId, u64>,
}

impl ReplayState {
    /// Fold one record into the state. Idempotent: applying the same
    /// record again (in order) leaves the state unchanged.
    pub fn apply(&mut self, rec: &JournalRecord) {
        match rec {
            JournalRecord::Epoch { epoch, .. } => {
                self.epoch = self.epoch.max(*epoch);
            }
            JournalRecord::Begin { epoch, kind, version, last_known_good, order, at } => {
                self.epoch = self.epoch.max(*epoch);
                if *version < self.latest_begun {
                    return; // stale re-application of a superseded rollout
                }
                self.latest_begun = *version;
                if self.in_flight.as_ref().map(|r| r.version) != Some(*version) {
                    self.in_flight = Some(ReplayRollout {
                        kind: Some(*kind),
                        version: *version,
                        last_known_good: *last_known_good,
                        order: order.clone(),
                        exposed: BTreeSet::new(),
                        wave: 0,
                        started_at: *at,
                    });
                }
                if self.pending_rollback.as_ref().is_some_and(|p| p.version < *version) {
                    self.pending_rollback = None;
                }
            }
            JournalRecord::WaveCut { epoch, version, wave, targets, .. } => {
                self.epoch = self.epoch.max(*epoch);
                if let Some(fl) = self.in_flight.as_mut() {
                    if fl.version == *version {
                        fl.wave = fl.wave.max(*wave);
                        fl.exposed.extend(targets.iter().copied());
                    }
                }
            }
            JournalRecord::Ack { epoch, target, version, .. } => {
                self.epoch = self.epoch.max(*epoch);
                let e = self.acked.entry(*target).or_insert(0);
                *e = (*e).max(*version);
            }
            JournalRecord::Nack { epoch, target, version, .. } => {
                self.epoch = self.epoch.max(*epoch);
                let e = self.nacked.entry(*target).or_insert(0);
                *e = (*e).max(*version);
            }
            JournalRecord::Rollback { epoch, version, to, targets, .. } => {
                self.epoch = self.epoch.max(*epoch);
                if *version < self.latest_begun
                    && self.in_flight.as_ref().map(|r| r.version) != Some(*version)
                {
                    return; // superseded by a later rollout
                }
                if self.in_flight.as_ref().map(|r| r.version) == Some(*version) {
                    self.in_flight = None;
                }
                self.pending_rollback = Some(PendingRollback {
                    version: *version,
                    to: *to,
                    targets: targets.clone(),
                });
            }
            JournalRecord::Converge { epoch, version, .. } => {
                self.epoch = self.epoch.max(*epoch);
                self.last_good = self.last_good.max(*version);
                if self.in_flight.as_ref().map(|r| r.version) == Some(*version) {
                    self.in_flight = None;
                }
                if self.pending_rollback.as_ref().is_some_and(|p| p.version <= *version) {
                    self.pending_rollback = None;
                }
            }
        }
    }

    /// Fold the replay state into a digest.
    pub fn fold_digest(&self, digest: &mut Digest) {
        digest
            .write_u64(self.epoch)
            .write_u64(self.last_good)
            .write_u64(self.latest_begun);
        match &self.in_flight {
            None => {
                digest.write_u64(0);
            }
            Some(fl) => {
                digest
                    .write_u64(1)
                    .write_u64(fl.kind.map_or(0, RolloutKind::tag))
                    .write_u64(fl.version)
                    .write_u64(fl.last_known_good)
                    .write_u64(fl.wave as u64)
                    .write_u64(fl.started_at.as_nanos());
                for t in &fl.order {
                    digest.write_u64(u64::from(*t));
                }
                for t in &fl.exposed {
                    digest.write_u64(u64::from(*t));
                }
            }
        }
        match &self.pending_rollback {
            None => {
                digest.write_u64(0);
            }
            Some(p) => {
                digest.write_u64(1).write_u64(p.version).write_u64(p.to);
                for t in &p.targets {
                    digest.write_u64(u64::from(*t));
                }
            }
        }
        for (t, v) in &self.acked {
            digest.write_u64(u64::from(*t)).write_u64(*v);
        }
        for (t, v) in &self.nacked {
            digest.write_u64(u64::from(*t)).write_u64(*v);
        }
    }
}

/// The deterministic, digest-covered, bounded write-ahead journal.
///
/// Records are appended by the controller *before* the corresponding
/// southbound action is handed out; a chained digest covers every record
/// ever appended (including evicted ones), so two journals with the same
/// chain value saw the same record stream.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Retained record ring, newest at the back. Bounded by
    /// [`JOURNAL_RETAIN_CAP`]; overflow folds into `checkpoint`.
    records: VecDeque<JournalRecord>,
    /// Replay state of everything evicted from the ring.
    checkpoint: ReplayState,
    /// How many records have been evicted into the checkpoint.
    evicted: u64,
    /// Total records ever appended.
    appended: u64,
    /// Chained digest over every record ever appended, in order.
    chain: u64,
    /// Highest epoch any appended record carried.
    epoch: u64,
}

impl Journal {
    /// An empty journal at epoch 0 (no incarnation has started).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record; write-ahead callers do this before acting on it.
    pub fn append(&mut self, rec: JournalRecord) {
        let mut d = Digest::new();
        d.write_u64(self.chain);
        rec.fold_digest(&mut d);
        self.chain = d.value();
        self.epoch = self.epoch.max(rec.epoch());
        self.appended += 1;
        self.records.push_back(rec);
        while self.records.len() > JOURNAL_RETAIN_CAP {
            if let Some(old) = self.records.pop_front() {
                self.checkpoint.apply(&old);
                self.evicted += 1;
            }
        }
    }

    /// Start a new controller incarnation: bump the fencing epoch past
    /// everything journaled and record it. Returns the new epoch.
    pub fn begin_incarnation(&mut self, at: SimTime) -> u64 {
        let epoch = self.epoch + 1;
        self.append(JournalRecord::Epoch { epoch, at });
        epoch
    }

    /// Replay checkpoint + retained records into a [`ReplayState`].
    pub fn replay(&self) -> ReplayState {
        let mut state = self.checkpoint.clone();
        for rec in &self.records {
            state.apply(rec);
        }
        state
    }

    /// A copy of this journal as a crash at record boundary `keep` would
    /// leave it: the checkpoint plus only the first `keep` retained
    /// records survive; the tail (records the old incarnation appended
    /// but never flushed) is lost, and the chain is recomputed over the
    /// surviving stream.
    pub fn truncated(&self, keep: usize) -> Journal {
        let mut out = Journal {
            records: VecDeque::new(),
            checkpoint: self.checkpoint.clone(),
            evicted: self.evicted,
            appended: self.evicted,
            chain: 0,
            epoch: self.checkpoint.epoch,
        };
        for rec in self.records.iter().take(keep) {
            out.append(rec.clone());
        }
        out
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &JournalRecord> {
        self.records.iter()
    }

    /// Retained record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was ever appended or retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.appended == 0
    }

    /// Records evicted into the checkpoint so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total records ever appended.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Chained digest over every record ever appended.
    pub fn chain(&self) -> u64 {
        self.chain
    }

    /// Highest epoch any appended record carried.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Fold the journal — ring, checkpoint, counters, chain — into a
    /// digest.
    pub fn fold_digest(&self, digest: &mut Digest) {
        digest
            .write_u64(self.evicted)
            .write_u64(self.appended)
            .write_u64(self.chain)
            .write_u64(self.epoch)
            .write_u64(self.records.len() as u64);
        self.checkpoint.fold_digest(digest);
        for rec in &self.records {
            rec.fold_digest(digest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_sim::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn sample_stream() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Epoch { epoch: 1, at: t(0) },
            JournalRecord::Begin {
                epoch: 1,
                kind: RolloutKind::Config,
                version: 2,
                last_known_good: 1,
                order: vec![0, 1, 2, 3],
                at: t(1),
            },
            JournalRecord::WaveCut { epoch: 1, version: 2, wave: 0, targets: vec![0, 1], at: t(1) },
            JournalRecord::Ack { epoch: 1, target: 0, version: 2, at: t(2) },
            JournalRecord::Ack { epoch: 1, target: 1, version: 2, at: t(2) },
            JournalRecord::WaveCut { epoch: 1, version: 2, wave: 1, targets: vec![2, 3], at: t(3) },
            JournalRecord::Ack { epoch: 1, target: 2, version: 2, at: t(4) },
            JournalRecord::Ack { epoch: 1, target: 3, version: 2, at: t(4) },
            JournalRecord::Converge { epoch: 1, version: 2, at: t(5) },
        ]
    }

    #[test]
    fn replay_reconstructs_converged_rollout() {
        let mut j = Journal::new();
        for rec in sample_stream() {
            j.append(rec);
        }
        let state = j.replay();
        assert_eq!(state.epoch, 1);
        assert_eq!(state.last_good, 2);
        assert!(state.in_flight.is_none());
        assert!(state.pending_rollback.is_none());
        assert_eq!(state.acked.get(&3), Some(&2));
    }

    #[test]
    fn truncated_journal_reconstructs_in_flight_wave() {
        let mut j = Journal::new();
        for rec in sample_stream() {
            j.append(rec);
        }
        // Crash right after the second wave cut: targets 2,3 journaled as
        // exposed, their acks lost.
        let crashed = j.truncated(6);
        let state = crashed.replay();
        let fl = state.in_flight.as_ref().unwrap();
        assert_eq!(fl.version, 2);
        assert_eq!(fl.exposed, BTreeSet::from([0, 1, 2, 3]));
        assert_eq!(fl.wave, 1);
        assert_eq!(state.acked.get(&2), None);
        assert_eq!(state.last_good, 0);
    }

    #[test]
    fn rollback_record_survives_as_pending() {
        let mut j = Journal::new();
        j.append(JournalRecord::Epoch { epoch: 1, at: t(0) });
        j.append(JournalRecord::Begin {
            epoch: 1,
            kind: RolloutKind::Policy,
            version: 5,
            last_known_good: 4,
            order: vec![7, 8, 9],
            at: t(1),
        });
        j.append(JournalRecord::WaveCut {
            epoch: 1,
            version: 5,
            wave: 0,
            targets: vec![7],
            at: t(1),
        });
        j.append(JournalRecord::Nack { epoch: 1, target: 7, version: 5, at: t(2) });
        j.append(JournalRecord::Rollback {
            epoch: 1,
            version: 5,
            to: 4,
            targets: vec![7],
            at: t(2),
        });
        let state = j.replay();
        assert!(state.in_flight.is_none());
        let p = state.pending_rollback.as_ref().unwrap();
        assert_eq!((p.version, p.to), (5, 4));
        assert_eq!(p.targets, vec![7]);
        assert_eq!(state.nacked.get(&7), Some(&5));
    }

    #[test]
    fn begin_incarnation_is_monotone() {
        let mut j = Journal::new();
        let e1 = j.begin_incarnation(t(0));
        let e2 = j.begin_incarnation(t(9));
        assert_eq!((e1, e2), (1, 2));
        assert_eq!(j.epoch(), 2);
    }

    #[test]
    fn eviction_preserves_replay_and_counts() {
        let mut j = Journal::new();
        j.append(JournalRecord::Epoch { epoch: 1, at: t(0) });
        // Enough converged singleton rollouts to overflow the ring.
        let rounds = (JOURNAL_RETAIN_CAP as u64 / 2) + 8;
        for v in 1..=rounds {
            j.append(JournalRecord::Begin {
                epoch: 1,
                kind: RolloutKind::Config,
                version: v,
                last_known_good: v.saturating_sub(1),
                order: vec![0],
                at: t(v),
            });
            j.append(JournalRecord::Converge { epoch: 1, version: v, at: t(v) });
        }
        assert!(j.evicted() > 0, "ring should have overflowed");
        assert_eq!(j.len(), JOURNAL_RETAIN_CAP);
        let state = j.replay();
        assert_eq!(state.last_good, rounds);
        assert!(state.in_flight.is_none());
        assert_eq!(j.appended(), 1 + rounds * 2);
    }

    #[test]
    fn chain_digest_is_order_sensitive() {
        let mut a = Journal::new();
        let mut b = Journal::new();
        let r1 = JournalRecord::Ack { epoch: 1, target: 0, version: 1, at: t(1) };
        let r2 = JournalRecord::Ack { epoch: 1, target: 1, version: 1, at: t(1) };
        a.append(r1.clone());
        a.append(r2.clone());
        b.append(r2);
        b.append(r1);
        assert_ne!(a.chain(), b.chain());
    }
}
