//! Graceful gateway drain: planned failover that loses zero established
//! sessions.
//!
//! Consolidated gateways hold *session state* for every flow they serve, so
//! taking one out for maintenance is not "remove from DNS and wait": new
//! flows must move instantly while established flows keep landing where
//! their state lives. The protocol reuses the Beamer bucket table
//! ([`BucketTable`]):
//!
//! 1. **`begin_drain(leaving, replacement)`** — the leaving gateway stops
//!    accepting new sessions at once: [`BucketTable::replica_going_offline`]
//!    prepends the replacement in every bucket the leaver heads, so SYNs go
//!    to the new owner while non-SYN packets daisy-chain one hop back to the
//!    leaver's session state.
//! 2. **Drain window** — established sessions age out naturally (`close`).
//!    Each forwarded packet is counted as a hand-off; zero sessions are
//!    reset.
//! 3. **Deadline** — at `deadline` any stragglers are force-closed (counted,
//!    never silent) and [`BucketTable::replica_removed`] drops the leaver
//!    from every chain. A drain that finishes early completes as soon as the
//!    leaver's session count reaches zero.
//!
//! The planned-drain invariant the drill gates on: `force_closed == 0` when
//! the drain window exceeds the longest session, and every packet of every
//! established session reaches the session's owner throughout.

use crate::redirector::BucketTable;
use canal_net::{hash_five_tuple, FiveTuple};
use canal_sim::{Digest, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Lifecycle of one gateway in the drain protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainPhase {
    /// Serving new and established sessions.
    Active,
    /// No new sessions; established ones forwarded until `deadline`.
    Draining {
        /// When stragglers get force-closed.
        deadline: SimTime,
    },
    /// Fully out: no buckets reference it, no sessions remain.
    Drained,
}

/// Why a session open was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainReject {
    /// The session table is at capacity.
    AtCapacity,
    /// The chosen gateway is past `Draining` into `Drained` (a config race
    /// the caller should retry after the next table push).
    GatewayDrained,
}

/// Why a drain could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainError {
    /// The leaving gateway is unknown.
    UnknownGateway,
    /// The leaving gateway is already draining or drained.
    AlreadyDraining,
    /// The replacement is unknown, equals the leaver, or is itself not
    /// `Active`.
    BadReplacement,
}

/// Session-owning drain coordinator for one service's gateway fleet.
#[derive(Debug)]
pub struct GatewayDrain {
    table: BucketTable,
    sessions: BTreeMap<FiveTuple, usize>,
    max_sessions: usize,
    phases: BTreeMap<usize, DrainPhase>,
    opened: u64,
    closed: u64,
    handed_off: u64,
    force_closed: u64,
    rejected: u64,
}

impl GatewayDrain {
    /// Fleet over `gateways` (all `Active`), with a fixed `n_buckets` table,
    /// chains up to `max_chain`, and at most `max_sessions` concurrent
    /// sessions.
    pub fn new(n_buckets: usize, gateways: &[usize], max_chain: usize, max_sessions: usize) -> Self {
        GatewayDrain {
            table: BucketTable::new(n_buckets, gateways, max_chain),
            sessions: BTreeMap::new(),
            max_sessions,
            phases: gateways.iter().map(|&g| (g, DrainPhase::Active)).collect(),
            opened: 0,
            closed: 0,
            handed_off: 0,
            force_closed: 0,
            rejected: 0,
        }
    }

    /// Open a new session (SYN): dispatched to the bucket head, which the
    /// drain protocol guarantees is never a draining gateway.
    pub fn open(&mut self, tuple: FiveTuple) -> Result<usize, DrainReject> {
        if self.sessions.len() >= self.max_sessions {
            self.rejected += 1;
            return Err(DrainReject::AtCapacity);
        }
        let d = self.table.dispatch(&tuple, true, |_, _| false);
        if self.phases.get(&d.replica) == Some(&DrainPhase::Drained) {
            self.rejected += 1;
            return Err(DrainReject::GatewayDrained);
        }
        self.sessions.insert(tuple, d.replica);
        self.opened += 1;
        Ok(d.replica)
    }

    /// Route one packet of an established session: chain-walks to the
    /// session's owner, counting each daisy-chained forward as a hand-off.
    /// Returns `(owner, redirect_hops)`, or `None` for unknown sessions.
    pub fn packet(&mut self, tuple: &FiveTuple) -> Option<(usize, usize)> {
        let owner = *self.sessions.get(tuple)?;
        let d = self.table.dispatch(tuple, false, |replica, tpl| {
            self.sessions.get(tpl) == Some(&replica)
        });
        debug_assert_eq!(d.replica, owner, "chain walk must find the session owner");
        if d.redirect_hops > 0 {
            self.handed_off += 1;
        }
        Some((d.replica, d.redirect_hops))
    }

    /// Close a session normally.
    pub fn close(&mut self, tuple: &FiveTuple) -> bool {
        let existed = self.sessions.remove(tuple).is_some();
        if existed {
            self.closed += 1;
        }
        existed
    }

    /// Start draining `leaving` onto `replacement`: new sessions move
    /// immediately, established ones get forwarded until they close or the
    /// `grace` deadline force-closes them.
    pub fn begin_drain(
        &mut self,
        now: SimTime,
        leaving: usize,
        replacement: usize,
        grace: SimDuration,
    ) -> Result<(), DrainError> {
        match self.phases.get(&leaving) {
            None => return Err(DrainError::UnknownGateway),
            Some(DrainPhase::Active) => {}
            Some(_) => return Err(DrainError::AlreadyDraining),
        }
        if leaving == replacement || self.phases.get(&replacement) != Some(&DrainPhase::Active) {
            return Err(DrainError::BadReplacement);
        }
        self.table.replica_going_offline(leaving, replacement);
        self.phases.insert(leaving, DrainPhase::Draining { deadline: now + grace });
        Ok(())
    }

    /// Advance drains at `now`: a draining gateway with zero remaining
    /// sessions completes immediately; one past its deadline force-closes
    /// the stragglers first. Returns the gateways that reached `Drained`.
    pub fn tick(&mut self, now: SimTime) -> Vec<usize> {
        let draining: Vec<(usize, SimTime)> = self
            .phases
            .iter()
            .filter_map(|(&g, ph)| match ph {
                DrainPhase::Draining { deadline } => Some((g, *deadline)),
                _ => None,
            })
            .collect();
        let mut finished = Vec::new();
        for (g, deadline) in draining {
            let remaining = self.sessions.values().filter(|&&o| o == g).count();
            if remaining > 0 && now < deadline {
                continue;
            }
            if remaining > 0 {
                // Deadline passed: the stragglers lose their sessions — the
                // accounting the planned-drain invariant gates to zero.
                self.sessions.retain(|_, &mut o| o != g);
                self.force_closed += remaining as u64;
            }
            self.table.replica_removed(g);
            self.phases.insert(g, DrainPhase::Drained);
            finished.push(g);
        }
        finished
    }

    /// Current phase of a gateway.
    pub fn phase(&self, gateway: usize) -> Option<DrainPhase> {
        self.phases.get(&gateway).copied()
    }

    /// Whether a gateway is in its drain window (refusing new sessions
    /// while still owning established ones).
    pub fn is_draining(&self, gateway: usize) -> bool {
        matches!(self.phases.get(&gateway), Some(DrainPhase::Draining { .. }))
    }

    /// Established sessions currently owned by a gateway.
    pub fn sessions_on(&self, gateway: usize) -> usize {
        self.sessions.values().filter(|&&o| o == gateway).count()
    }

    /// The underlying bucket table (bucket-ownership assertions in tests).
    pub fn table(&self) -> &BucketTable {
        &self.table
    }

    /// Lifetime counters `(opened, closed, handed_off, force_closed,
    /// rejected)`.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        (self.opened, self.closed, self.handed_off, self.force_closed, self.rejected)
    }

    /// Fold the drain picture into a digest: the bucket `table`, every live
    /// session in `sessions`, per-gateway `phases`, and the lifetime
    /// counters (`opened`, `closed`, `handed_off`, `force_closed`,
    /// `rejected`).
    pub fn fold_digest(&self, d: &mut Digest) {
        self.table.fold_digest(d);
        d.write_u64(self.sessions.len() as u64);
        for (tuple, &owner) in &self.sessions {
            d.write_u64(hash_five_tuple(tuple)).write_u64(owner as u64);
        }
        d.write_u64(self.phases.len() as u64);
        for (&g, ph) in &self.phases {
            d.write_u64(g as u64);
            match ph {
                DrainPhase::Active => d.write_u64(0),
                DrainPhase::Draining { deadline } => d.write_u64(1).write_u64(deadline.as_nanos()),
                DrainPhase::Drained => d.write_u64(2),
            };
        }
        d.write_u64(self.opened)
            .write_u64(self.closed)
            .write_u64(self.handed_off)
            .write_u64(self.force_closed)
            .write_u64(self.rejected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{Endpoint, VpcAddr, VpcId};

    const T: fn(u64) -> SimTime = SimTime::from_secs;
    const S: fn(u64) -> SimDuration = SimDuration::from_secs;

    fn tuple(sport: u16) -> FiveTuple {
        FiveTuple::tcp(
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), sport),
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 9, 9), 443),
        )
    }

    fn fleet() -> GatewayDrain {
        GatewayDrain::new(64, &[0, 1, 2], 4, 10_000)
    }

    #[test]
    fn drain_moves_new_sessions_and_forwards_established() {
        let mut d = fleet();
        // Establish sessions across the fleet.
        let owners: Vec<(FiveTuple, usize)> = (0..200u16)
            .map(|i| {
                let t = tuple(1000 + i);
                let gw = d.open(t).unwrap();
                (t, gw)
            })
            .collect();
        let on_1: Vec<&(FiveTuple, usize)> = owners.iter().filter(|(_, g)| *g == 1).collect();
        assert!(!on_1.is_empty(), "hash spread should land sessions on gw 1");
        d.begin_drain(T(10), 1, 2, S(30)).unwrap();
        assert!(d.is_draining(1));
        // New sessions never land on the draining gateway.
        for i in 0..200u16 {
            let gw = d.open(tuple(5000 + i)).unwrap();
            assert_ne!(gw, 1, "draining gateway accepted a new session");
        }
        // Established sessions still reach their owner, daisy-chained.
        let before_handoffs = d.stats().2;
        for (t, gw) in &owners {
            let (owner, _) = d.packet(t).unwrap();
            assert_eq!(owner, *gw, "established session rerouted mid-drain");
        }
        let handed = d.stats().2 - before_handoffs;
        assert!(handed >= on_1.len() as u64, "gw-1 packets must daisy-chain");
    }

    #[test]
    fn drain_completes_early_when_sessions_close() {
        let mut d = fleet();
        let ts: Vec<FiveTuple> = (0..100u16).map(|i| tuple(1000 + i)).collect();
        for t in &ts {
            d.open(*t).unwrap();
        }
        d.begin_drain(T(0), 0, 1, S(60)).unwrap();
        assert!(d.tick(T(1)).is_empty(), "sessions still open");
        for t in &ts {
            d.close(t);
        }
        assert_eq!(d.tick(T(2)), vec![0], "zero sessions: drain completes early");
        assert_eq!(d.phase(0), Some(DrainPhase::Drained));
        assert_eq!(d.stats().3, 0, "no force-closes on a clean drain");
        // The drained gateway is out of every chain.
        for b in 0..d.table().len() {
            assert!(!d.table().chain(b).contains(&0));
        }
    }

    #[test]
    fn deadline_force_closes_stragglers_and_counts_them() {
        let mut d = fleet();
        let mut on_0 = 0u64;
        for i in 0..100u16 {
            if d.open(tuple(1000 + i)).unwrap() == 0 {
                on_0 += 1;
            }
        }
        assert!(on_0 > 0);
        d.begin_drain(T(0), 0, 2, S(30)).unwrap();
        assert!(d.tick(T(29)).is_empty(), "before deadline: keep waiting");
        assert_eq!(d.tick(T(30)), vec![0]);
        assert_eq!(d.stats().3, on_0, "every straggler accounted as force-closed");
        assert_eq!(d.sessions_on(0), 0);
    }

    #[test]
    fn drain_preconditions_are_enforced() {
        let mut d = fleet();
        assert_eq!(d.begin_drain(T(0), 9, 1, S(1)), Err(DrainError::UnknownGateway));
        assert_eq!(d.begin_drain(T(0), 0, 0, S(1)), Err(DrainError::BadReplacement));
        assert_eq!(d.begin_drain(T(0), 0, 9, S(1)), Err(DrainError::BadReplacement));
        d.begin_drain(T(0), 0, 1, S(1)).unwrap();
        assert_eq!(d.begin_drain(T(0), 0, 2, S(1)), Err(DrainError::AlreadyDraining));
        // Draining gateways are not valid replacements.
        assert_eq!(d.begin_drain(T(0), 1, 0, S(1)), Err(DrainError::BadReplacement));
        d.tick(T(1));
        assert_eq!(d.phase(0), Some(DrainPhase::Drained));
        assert_eq!(d.begin_drain(T(2), 1, 0, S(1)), Err(DrainError::BadReplacement));
    }

    #[test]
    fn session_cap_rejects_and_counts() {
        let mut d = GatewayDrain::new(8, &[0, 1], 4, 3);
        for i in 0..3u16 {
            d.open(tuple(i)).unwrap();
        }
        assert_eq!(d.open(tuple(99)), Err(DrainReject::AtCapacity));
        assert_eq!(d.stats().4, 1);
        d.close(&tuple(0));
        assert!(d.open(tuple(99)).is_ok());
    }

    #[test]
    fn digest_tracks_drain_lifecycle() {
        let mut d = fleet();
        for i in 0..50u16 {
            d.open(tuple(i)).unwrap();
        }
        let mut a = Digest::new();
        d.fold_digest(&mut a);
        d.begin_drain(T(0), 1, 2, S(10)).unwrap();
        let mut b = Digest::new();
        d.fold_digest(&mut b);
        assert_ne!(a.value(), b.value(), "begin_drain must move the digest");
        d.tick(T(10));
        let mut c = Digest::new();
        d.fold_digest(&mut c);
        assert_ne!(b.value(), c.value(), "completion must move the digest");
    }
}
