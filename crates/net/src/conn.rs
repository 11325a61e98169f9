//! TCP connection lifecycle state machine.
//!
//! The gateway's session semantics lean on TCP's: a SYN marks a new flow
//! (redirector chain-head insertion), established flows carry data, and a
//! lossless drain (§6.2) completes when the last flow FINs or ages out.
//! [`TcpConn`] is that lifecycle as an explicit state machine — invalid
//! transitions are errors, not panics, in the event-driven style of
//! embedded TCP stacks.

use canal_sim::{SimDuration, SimTime};

/// Connection states (the subset a middlebox tracks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Client sent SYN.
    SynSent,
    /// Server answered SYN+ACK.
    SynReceived,
    /// Three-way handshake complete.
    Established,
    /// One side sent FIN; awaiting the other.
    FinWait,
    /// Both FINs seen; draining the 2MSL timer.
    TimeWait,
    /// Fully closed (terminal).
    Closed,
}

/// Invalid transition attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadTransition {
    /// State the connection was in.
    pub from: TcpState,
    /// The event that does not apply there.
    pub event: &'static str,
}

impl std::fmt::Display for BadTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} invalid in {:?}", self.event, self.from)
    }
}

impl std::error::Error for BadTransition {}

/// The 2MSL TIME_WAIT duration.
pub const TIME_WAIT: SimDuration = SimDuration::from_secs(60);

/// One tracked TCP connection.
#[derive(Debug, Clone)]
pub struct TcpConn {
    state: TcpState,
    opened_at: SimTime,
    last_activity: SimTime,
    time_wait_until: Option<SimTime>,
    bytes_c2s: u64,
    bytes_s2c: u64,
}

impl TcpConn {
    /// A new connection: the client's SYN was just seen.
    pub fn syn(now: SimTime) -> Self {
        TcpConn {
            state: TcpState::SynSent,
            opened_at: now,
            last_activity: now,
            time_wait_until: None,
            bytes_c2s: 0,
            bytes_s2c: 0,
        }
    }

    /// Fold the connection into a digest: `state`, `opened_at`,
    /// `last_activity`, `time_wait_until` and the byte counters
    /// `bytes_c2s` / `bytes_s2c`.
    pub fn fold_digest(&self, d: &mut canal_sim::Digest) {
        d.write_u64(self.state as u64)
            .write_u64(self.opened_at.as_nanos())
            .write_u64(self.last_activity.as_nanos())
            .write_u64(self.time_wait_until.map_or(u64::MAX, SimTime::as_nanos))
            .write_u64(self.bytes_c2s)
            .write_u64(self.bytes_s2c);
    }

    /// Current state (after applying any due TIME_WAIT expiry).
    pub fn state_at(&mut self, now: SimTime) -> TcpState {
        if let Some(until) = self.time_wait_until {
            if now >= until {
                self.state = TcpState::Closed;
                self.time_wait_until = None;
            }
        }
        self.state
    }

    /// Raw state without timer evaluation.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Server's SYN+ACK observed.
    pub fn syn_ack(&mut self, now: SimTime) -> Result<(), BadTransition> {
        match self.state {
            TcpState::SynSent => {
                self.state = TcpState::SynReceived;
                self.last_activity = now;
                Ok(())
            }
            from => Err(BadTransition { from, event: "syn_ack" }),
        }
    }

    /// Client's final handshake ACK observed.
    pub fn establish(&mut self, now: SimTime) -> Result<(), BadTransition> {
        match self.state {
            TcpState::SynReceived => {
                self.state = TcpState::Established;
                self.last_activity = now;
                Ok(())
            }
            from => Err(BadTransition { from, event: "establish" }),
        }
    }

    /// Data observed on an established connection.
    pub fn data(&mut self, now: SimTime, bytes: u64, client_to_server: bool) -> Result<(), BadTransition> {
        match self.state {
            TcpState::Established | TcpState::FinWait => {
                if client_to_server {
                    self.bytes_c2s += bytes;
                } else {
                    self.bytes_s2c += bytes;
                }
                self.last_activity = now;
                Ok(())
            }
            from => Err(BadTransition { from, event: "data" }),
        }
    }

    /// A FIN observed (either side). The second FIN enters TIME_WAIT.
    pub fn fin(&mut self, now: SimTime) -> Result<(), BadTransition> {
        match self.state {
            TcpState::Established => {
                self.state = TcpState::FinWait;
                self.last_activity = now;
                Ok(())
            }
            TcpState::FinWait => {
                self.state = TcpState::TimeWait;
                self.time_wait_until = Some(now + TIME_WAIT);
                self.last_activity = now;
                Ok(())
            }
            from => Err(BadTransition { from, event: "fin" }),
        }
    }

    /// An RST aborts from any live state (lossy migration resets flows).
    pub fn reset(&mut self, now: SimTime) {
        self.state = TcpState::Closed;
        self.time_wait_until = None;
        self.last_activity = now;
    }

    /// Whether the connection still holds middlebox state at `now`.
    pub fn is_live(&mut self, now: SimTime) -> bool {
        !matches!(self.state_at(now), TcpState::Closed)
    }

    /// Idle time since last activity.
    pub fn idle(&self, now: SimTime) -> SimDuration {
        now.since(self.last_activity)
    }

    /// Connection age.
    pub fn age(&self, now: SimTime) -> SimDuration {
        now.since(self.opened_at)
    }

    /// Bytes transferred `(client→server, server→client)`.
    pub fn bytes(&self) -> (u64, u64) {
        (self.bytes_c2s, self.bytes_s2c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: fn(u64) -> SimTime = SimTime::from_secs;

    fn established() -> TcpConn {
        let mut c = TcpConn::syn(T(0));
        c.syn_ack(T(0)).unwrap();
        c.establish(T(0)).unwrap();
        c
    }

    #[test]
    fn happy_path_lifecycle() {
        let mut c = TcpConn::syn(T(0));
        assert_eq!(c.state(), TcpState::SynSent);
        c.syn_ack(T(0)).unwrap();
        c.establish(T(0)).unwrap();
        c.data(T(1), 512, true).unwrap();
        c.data(T(2), 4096, false).unwrap();
        c.fin(T(10)).unwrap();
        assert_eq!(c.state(), TcpState::FinWait);
        // Half-closed connections still carry data.
        c.data(T(11), 100, false).unwrap();
        c.fin(T(12)).unwrap();
        assert_eq!(c.state(), TcpState::TimeWait);
        assert!(c.is_live(T(13)), "TIME_WAIT still holds state");
        assert!(!c.is_live(T(12 + 61)), "2MSL expired");
        assert_eq!(c.bytes(), (512, 4196));
    }

    #[test]
    fn invalid_transitions_are_errors_not_panics() {
        let mut c = TcpConn::syn(T(0));
        assert!(c.data(T(1), 1, true).is_err(), "no data before handshake");
        assert!(c.establish(T(1)).is_err(), "no establish before syn_ack");
        assert!(c.fin(T(1)).is_err(), "no fin before establish");
        let mut e = established();
        assert!(e.syn_ack(T(1)).is_err());
        e.fin(T(2)).unwrap();
        e.fin(T(3)).unwrap();
        assert!(e.fin(T(4)).is_err(), "no third fin");
        assert!(e.data(T(4), 1, true).is_err(), "no data in TIME_WAIT");
    }

    #[test]
    fn reset_closes_from_any_state() {
        for setup in 0..4 {
            let mut c = TcpConn::syn(T(0));
            if setup >= 1 {
                c.syn_ack(T(0)).unwrap();
            }
            if setup >= 2 {
                c.establish(T(0)).unwrap();
            }
            if setup >= 3 {
                c.fin(T(1)).unwrap();
            }
            c.reset(T(5));
            assert_eq!(c.state(), TcpState::Closed);
            assert!(!c.is_live(T(5)));
            // Nothing works after close.
            assert!(c.data(T(6), 1, true).is_err());
            assert!(c.fin(T(6)).is_err());
        }
    }

    #[test]
    fn idle_and_age_accounting() {
        let mut c = established();
        c.data(T(100), 1, true).unwrap();
        assert_eq!(c.idle(T(130)), SimDuration::from_secs(30));
        assert_eq!(c.age(T(130)), SimDuration::from_secs(130));
    }
}

#[cfg(test)]
mod prop_tests {
    //! Seeded randomized tests (property-test style, driven by [`SimRng`]
    //! so the cases are reproducible without an external framework).
    use super::*;
    use canal_sim::SimRng;

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        SynAck,
        Establish,
        Data,
        Fin,
        Reset,
        Tick(u64),
    }

    fn random_events(rng: &mut SimRng) -> Vec<Ev> {
        let n = rng.index(40);
        (0..n)
            .map(|_| match rng.index(6) {
                0 => Ev::SynAck,
                1 => Ev::Establish,
                2 => Ev::Data,
                3 => Ev::Fin,
                4 => Ev::Reset,
                _ => Ev::Tick(rng.int_range(1, 120)),
            })
            .collect()
    }

    /// Fuzz the state machine: no event sequence panics, state stays
    /// in the alphabet, and Closed is absorbing (except nothing).
    #[test]
    fn random_event_sequences_are_safe() {
        let mut rng = SimRng::seed(0xC0FF_EE01);
        for _ in 0..256 {
            let evs = random_events(&mut rng);
            let mut c = TcpConn::syn(SimTime::ZERO);
            let mut now = 0u64;
            let mut was_closed = false;
            for ev in &evs {
                match *ev {
                    Ev::SynAck => {
                        let _ = c.syn_ack(SimTime::from_secs(now));
                    }
                    Ev::Establish => {
                        let _ = c.establish(SimTime::from_secs(now));
                    }
                    Ev::Data => {
                        let _ = c.data(SimTime::from_secs(now), 64, true);
                    }
                    Ev::Fin => {
                        let _ = c.fin(SimTime::from_secs(now));
                    }
                    Ev::Reset => c.reset(SimTime::from_secs(now)),
                    Ev::Tick(dt) => now += dt,
                }
                let st = c.state_at(SimTime::from_secs(now));
                if was_closed {
                    assert_eq!(st, TcpState::Closed, "Closed must be absorbing: {evs:?}");
                }
                was_closed = st == TcpState::Closed;
            }
        }
    }

    /// Byte counters only grow and only in Established/FinWait.
    #[test]
    fn byte_counters_monotone() {
        let mut rng = SimRng::seed(0xC0FF_EE02);
        for _ in 0..256 {
            let evs = random_events(&mut rng);
            let mut c = TcpConn::syn(SimTime::ZERO);
            let mut prev = (0u64, 0u64);
            for (i, ev) in evs.iter().enumerate() {
                let t = SimTime::from_secs(i as u64);
                match *ev {
                    Ev::SynAck => {
                        let _ = c.syn_ack(t);
                    }
                    Ev::Establish => {
                        let _ = c.establish(t);
                    }
                    Ev::Data => {
                        let _ = c.data(t, 10, i % 2 == 0);
                    }
                    Ev::Fin => {
                        let _ = c.fin(t);
                    }
                    Ev::Reset => c.reset(t),
                    Ev::Tick(_) => {}
                }
                let now = c.bytes();
                assert!(now.0 >= prev.0 && now.1 >= prev.1, "{evs:?}");
                prev = now;
            }
        }
    }
}
