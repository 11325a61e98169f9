//! Session aggregation via VXLAN tunneling (§4.4, Fig. 9).
//!
//! Replica session state lives in memory-constrained SmartNICs: hundreds of
//! thousands of sessions exhaust it while the CPU idles at ~20%. The fix:
//! the aggregator (on the router / programmable chip) encapsulates many user
//! sessions into a few VXLAN tunnels, so the underlying server only tracks
//! *tunnel* sessions. Tunnels are spread across replica cores by giving each
//! tunnel a distinct outer source port hashed by the vSwitch's RSS.
//!
//! This module does the real encapsulation with
//! [`canal_net::vxlan::VxlanFrame`] and accounts the before/after session
//! pressure that Table 5's tunneling savings derive from.

use canal_net::{ecmp::rss_core_for_sport, FiveTuple, FlatTable, FlowHash, Packet, VxlanFrame};
use canal_sim::Fold;
use std::num::NonZeroUsize;

/// Tunnel fan-out configuration.
#[derive(Debug, Clone, Copy)]
pub struct TunnelConfig {
    /// Number of tunnels per replica (paper: ≈10× the core count).
    pub tunnels_per_replica: usize,
    /// Replica core count (for RSS spreading checks); zero counts as one.
    pub replica_cores: usize,
    /// Base outer source port; tunnel `i` uses `base + i`, wrapping at
    /// `u16::MAX`.
    pub sport_base: u16,
    /// Router IP (outer source).
    pub router_ip: u32,
}

impl TunnelConfig {
    /// The paper's guidance: ~10 tunnels per core.
    pub fn for_cores(replica_cores: usize) -> Self {
        TunnelConfig {
            tunnels_per_replica: replica_cores * 10,
            replica_cores,
            sport_base: 40_000,
            router_ip: 0x0A63_0001, // 10.99.0.1
        }
    }
}

/// Aggregates sessions into tunnels toward one replica.
#[derive(Debug)]
pub struct SessionAggregator {
    cfg: TunnelConfig,
    /// `cfg.tunnels_per_replica`, or one tunnel for a zero config.
    tunnels: NonZeroUsize,
    replica_ip: u32,
    vni: u32,
    /// The tracked user sessions. A session's tunnel is a pure function of
    /// its flow hash (sticky by construction), so only membership is kept.
    sessions: FlatTable<FiveTuple, ()>,
    /// Tracked sessions per tunnel, kept in step with `sessions`.
    per_tunnel: Vec<u32>,
    /// Tunnels with at least one tracked session.
    in_use: usize,
    encapsulated: u64,
}

impl SessionAggregator {
    /// Aggregator toward `replica_ip` on tenant `vni`. A config of zero
    /// tunnels gets one.
    pub fn new(cfg: TunnelConfig, replica_ip: u32, vni: u32) -> Self {
        let tunnels = NonZeroUsize::new(cfg.tunnels_per_replica).unwrap_or(NonZeroUsize::MIN);
        SessionAggregator {
            cfg,
            tunnels,
            replica_ip,
            vni,
            sessions: FlatTable::new(),
            per_tunnel: vec![0; tunnels.get()],
            in_use: 0,
            encapsulated: 0,
        }
    }

    /// The session's tunnel; starts tracking the session on first sight.
    fn tunnel_of(&mut self, tuple: &FiveTuple) -> usize {
        let hash = FlowHash::of(tuple);
        let tunnel = hash.select(self.tunnels);
        if !self.sessions.contains(hash.value(), tuple) {
            self.sessions.insert_new(hash.value(), *tuple, ());
            self.per_tunnel[tunnel] += 1;
            self.in_use += (self.per_tunnel[tunnel] == 1) as usize;
        }
        tunnel
    }

    /// Encapsulate one packet into its session's tunnel. The returned frame
    /// is byte-encodable; the outer source port selects the RSS core.
    pub fn encapsulate(&mut self, pkt: &Packet) -> VxlanFrame {
        let tunnel = self.tunnel_of(&pkt.tuple);
        self.encapsulated += 1;
        let sport = self.cfg.sport_base.wrapping_add(tunnel as u16);
        // Inner bytes: the app payload (headers abstracted by Packet).
        VxlanFrame::new(
            self.cfg.router_ip,
            self.replica_ip,
            sport,
            self.vni,
            pkt.payload.clone(),
        )
    }

    /// Sessions currently tracked by the aggregator (user-visible sessions).
    pub fn user_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Distinct tunnels in use — what the underlying server's session table
    /// actually holds after aggregation.
    pub fn tunnels_in_use(&self) -> usize {
        self.in_use
    }

    /// The session-table reduction factor achieved so far.
    pub fn reduction_factor(&self) -> f64 {
        let t = self.tunnels_in_use();
        if t == 0 {
            1.0
        } else {
            self.user_sessions() as f64 / t as f64
        }
    }

    /// Which RSS core a tunnel's packets land on.
    pub fn core_of_tunnel(&self, tunnel: usize) -> usize {
        let cores = NonZeroUsize::new(self.cfg.replica_cores).unwrap_or(NonZeroUsize::MIN);
        rss_core_for_sport(self.cfg.sport_base.wrapping_add(tunnel as u16), cores)
    }

    /// Fold the aggregator state into a digest: the config, endpoints, the
    /// tracked `sessions` in ascending five-tuple order (each as its flow
    /// hash and the tunnel that hash selects), and the `encapsulated`
    /// counter.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self {
            cfg, tunnels, replica_ip, vni, sessions, encapsulated,
            per_tunnel: _, // derived: each folded session's tunnel, counted
            in_use: _,     // derived: the nonzero entries of `per_tunnel`
        } = self;
        f.write_u64(cfg.tunnels_per_replica as u64)
            .write_u64(cfg.replica_cores as u64)
            .write_u64(cfg.sport_base as u64)
            .write_u64(cfg.router_ip as u64)
            .write_u64(*replica_ip as u64)
            .write_u64(*vni as u64);
        sessions.fold(f, |f, tuple, ()| {
            let hash = FlowHash::of(tuple);
            f.write_u64(hash.value()).write_u64(hash.select(*tunnels) as u64);
        });
        f.count("encapsulated", *encapsulated);
    }
}

/// Replica-side disaggregation: decode the tunnel frame back into inner
/// bytes (placed before the redirector per §4.4).
pub fn disaggregate(frame_bytes: bytes::Bytes) -> Result<VxlanFrame, canal_net::vxlan::VxlanError> {
    VxlanFrame::decode(frame_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_sim::Digest;
    use canal_net::{Endpoint, VpcAddr, VpcId};

    fn pkt(sport: u16) -> Packet {
        Packet::data(
            FiveTuple::tcp(
                Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), sport),
                Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 5, 5), 443),
            ),
            format!("payload-{sport}").into_bytes(),
        )
    }

    fn agg() -> SessionAggregator {
        SessionAggregator::new(TunnelConfig::for_cores(4), 0x0A63_0002, 77)
    }

    #[test]
    fn many_sessions_few_tunnels() {
        let mut a = agg();
        for sport in 1000..6000u16 {
            a.encapsulate(&pkt(sport));
        }
        assert_eq!(a.user_sessions(), 5000);
        assert!(a.tunnels_in_use() <= 40, "{}", a.tunnels_in_use());
        assert!(a.reduction_factor() > 100.0);
    }

    #[test]
    fn session_sticks_to_its_tunnel() {
        let mut a = agg();
        let f1 = a.encapsulate(&pkt(1234));
        let f2 = a.encapsulate(&pkt(1234));
        assert_eq!(f1.outer_sport, f2.outer_sport);
        assert_eq!(a.user_sessions(), 1);
        assert_eq!(a.encapsulated, 2);
    }

    #[test]
    fn encapsulation_round_trips_through_real_bytes() {
        let mut a = agg();
        let p = pkt(4321);
        let frame = a.encapsulate(&p);
        let wire = frame.encode();
        let back = disaggregate(wire).unwrap();
        assert_eq!(back.inner, p.payload);
        assert_eq!(back.vni, 77);
        assert_eq!(back.outer_dst_ip, 0x0A63_0002);
    }

    #[test]
    fn tunnels_spread_across_cores() {
        let a = agg();
        let mut cores: Vec<usize> = (0..40).map(|t| a.core_of_tunnel(t)).collect();
        cores.sort_unstable();
        cores.dedup();
        // 40 tunnels over 4 cores must touch every core.
        assert_eq!(cores.len(), 4);
    }

    /// New and repeat sessions: the O(1) per-tunnel counts must give what
    /// the old implementation computed by collecting, sorting and
    /// deduplicating every tracked session's tunnel, and the digest must be
    /// what folding the old `BTreeMap<FiveTuple, usize>` gave.
    #[test]
    fn counts_equal_a_recount() {
        use canal_sim::SimRng;
        use std::collections::BTreeMap;

        let mut rng = SimRng::seed(0x7A11_0001);
        let mut a = agg();
        let mut model: BTreeMap<FiveTuple, usize> = BTreeMap::new();
        for step in 0..600 {
            let p = pkt(rng.index(300) as u16);
            let frame = a.encapsulate(&p);
            let tunnel = (canal_net::hash_five_tuple(&p.tuple) % 40) as usize;
            assert_eq!(frame.outer_sport, 40_000 + tunnel as u16);
            model.insert(p.tuple, tunnel);
            let mut used: Vec<usize> = model.values().copied().collect();
            used.sort_unstable();
            used.dedup();
            assert_eq!(a.tunnels_in_use(), used.len(), "step {step}");
            assert_eq!(a.user_sessions(), model.len());
            let expect = if used.is_empty() { 1.0 } else { model.len() as f64 / used.len() as f64 };
            assert_eq!(a.reduction_factor(), expect);
        }
        // The digest is the old map's fold, entry for entry.
        let mut model: BTreeMap<FiveTuple, usize> = BTreeMap::new();
        let mut b = agg();
        for sport in [900u16, 17, 4242, 17, 65_000, 3] {
            b.encapsulate(&pkt(sport));
            let t = pkt(sport).tuple;
            model.insert(t, (canal_net::hash_five_tuple(&t) % 40) as usize);
        }
        let got = Digest::of(|f| b.fold(f));
        let mut want = Digest::new();
        want.write_u64(40).write_u64(4).write_u64(40_000).write_u64(0x0A63_0001);
        want.write_u64(0x0A63_0002).write_u64(77).write_u64(model.len() as u64);
        for (t, &tunnel) in &model {
            want.write_u64(canal_net::hash_five_tuple(t)).write_u64(tunnel as u64);
        }
        want.write_u64(6);
        assert_eq!(got.value(), want.value());
    }

    #[test]
    fn a_zero_config_encapsulates_on_one_tunnel() {
        let cfg = TunnelConfig { tunnels_per_replica: 0, ..TunnelConfig::for_cores(4) };
        let mut a = SessionAggregator::new(cfg, 0x0A63_0002, 77);
        for sport in [1, 2, 3] {
            assert_eq!(a.encapsulate(&pkt(sport)).outer_sport, 40_000);
        }
        assert_eq!((a.user_sessions(), a.tunnels_in_use()), (3, 1));
    }

    /// No core and the top port: the ports wrap (as release builds always
    /// did) and every tunnel lands on the one core, in debug builds too.
    #[test]
    fn a_zero_core_config_at_the_top_port_does_not_panic() {
        let cfg = TunnelConfig { replica_cores: 0, sport_base: u16::MAX, ..TunnelConfig::for_cores(4) };
        let mut a = SessionAggregator::new(cfg, 0x0A63_0002, 77);
        let sports: Vec<u16> = (0..40).map(|sport| a.encapsulate(&pkt(sport)).outer_sport).collect();
        assert!(sports.iter().any(|&s| s < 40), "{sports:?}");
        assert!((0..40).all(|t| a.core_of_tunnel(t) == 0));
    }

    #[test]
    fn mtu_overhead_is_the_vxlan_constant() {
        let mut a = agg();
        let p = pkt(9);
        let frame = a.encapsulate(&p);
        assert_eq!(
            frame.encoded_len(),
            p.payload.len() + canal_net::VXLAN_OVERHEAD
        );
    }
}
