//! Randomized (property-style) tests over [`GatewayDrain`]: the bucket-table
//! hand-off invariants the planned-failover story rests on. Cases come from a
//! seeded `SimRng` so runs are reproducible.
//!
//! * every bucket has exactly one owner (a non-empty chain whose head is an
//!   `Active` gateway) at every step of any open/close/drain interleaving;
//! * no packet of an established session is ever routed to a fully-drained
//!   gateway — the chain walk always lands on the session's live owner.

use canal_gateway::{DrainPhase, GatewayDrain};
use canal_net::{Endpoint, FiveTuple, FlowHash, VpcAddr, VpcId};
use canal_sim::{SimDuration, SimRng, SimTime};

const CASES: usize = 48;

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// A session's five-tuple with its hash, computed once as a driver keeps
/// it beside the live session.
fn flow(sport: u16) -> (FlowHash, FiveTuple) {
    let tuple = FiveTuple::tcp(
        Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), sport),
        Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 9, 9), 443),
    );
    (FlowHash::of(&tuple), tuple)
}

/// Assert the per-step invariants: single live ownership of every bucket,
/// and every established session routable to a non-drained owner.
fn check_invariants(d: &mut GatewayDrain, gateways: &[usize], live: &[(FlowHash, FiveTuple)], case: usize) {
    for b in 0..d.table().len() {
        let chain = d.table().chain(b);
        assert!(
            !chain.is_empty(),
            "case {case}: bucket {b} lost all owners"
        );
        let head = chain[0];
        assert_eq!(
            d.phase(head),
            Some(DrainPhase::Active),
            "case {case}: bucket {b} is headed by non-active gateway {head}"
        );
    }
    // A drained gateway owns nothing, and every live session's packets land
    // on its (non-drained) owner.
    for &g in gateways {
        if d.phase(g) == Some(DrainPhase::Drained) {
            assert_eq!(
                d.sessions_on(g),
                0,
                "case {case}: drained gateway {g} still owns sessions"
            );
        }
    }
    for (hash, tpl) in live {
        let routed = d.packet(*hash, tpl);
        assert!(routed.is_some(), "case {case}: established session lost");
        let (owner, _) = routed.unwrap_or((usize::MAX, 0));
        assert_ne!(
            d.phase(owner),
            Some(DrainPhase::Drained),
            "case {case}: packet routed to a drained gateway"
        );
    }
}

/// Drive a random interleaving of opens, closes, packets, drains, and ticks,
/// checking bucket ownership and session routability after every step.
#[test]
fn every_bucket_has_one_live_owner_under_random_drains() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x0D12_A117 + case as u64);
        let n_gw = 3 + rng.index(3); // 3..=5 gateways
        let gateways: Vec<usize> = (0..n_gw).collect();
        let n_buckets = 16 << rng.index(3); // 16/32/64
        let mut d = GatewayDrain::new(n_buckets, &gateways, 4, 10_000);
        let mut live: Vec<(FlowHash, FiveTuple)> = Vec::new();
        let mut next_port = 1024u16;
        let mut now = 0u64;
        for _ in 0..120 {
            now += 1 + rng.index(3) as u64;
            match rng.index(6) {
                // Open a burst of sessions (drained heads are never chosen).
                0 | 1 => {
                    for _ in 0..rng.index(8) {
                        let (hash, tpl) = flow(next_port);
                        next_port = next_port.wrapping_add(1);
                        if d.open(hash, tpl).is_ok() {
                            live.push((hash, tpl));
                        }
                    }
                }
                // Close a random live session.
                2 => {
                    if !live.is_empty() {
                        let i = rng.index(live.len());
                        let (hash, tpl) = live.swap_remove(i);
                        assert!(d.close(hash, &tpl), "case {case}: live session unknown");
                    }
                }
                // Route packets for a few random live sessions.
                3 => {
                    for _ in 0..rng.index(4) {
                        if live.is_empty() {
                            break;
                        }
                        let (hash, tpl) = live[rng.index(live.len())];
                        assert!(d.packet(hash, &tpl).is_some());
                    }
                }
                // Start draining a random Active gateway onto another,
                // keeping at least two Active so a replacement exists.
                4 => {
                    let active: Vec<usize> = gateways
                        .iter()
                        .copied()
                        .filter(|&g| d.phase(g) == Some(DrainPhase::Active))
                        .collect();
                    if active.len() >= 3 {
                        let leaving = active[rng.index(active.len())];
                        let replacement = *active
                            .iter()
                            .find(|&&g| g != leaving)
                            .expect("two active gateways");
                        let grace = SimDuration::from_secs(5 + rng.index(20) as u64);
                        d.begin_drain(t(now), leaving, replacement, grace)
                            .expect("preconditions hold");
                    }
                }
                // Advance drains; deadline force-closes drop stragglers.
                _ => {
                    for g in d.tick(t(now)) {
                        live.retain(|(hash, tpl)| d.packet(*hash, tpl).is_some());
                        assert_eq!(d.phase(g), Some(DrainPhase::Drained));
                    }
                }
            }
            check_invariants(&mut d, &gateways, &live, case);
        }
        let (opened, closed, _, force_closed, _) = d.stats();
        assert_eq!(
            opened,
            closed + force_closed + live.len() as u64,
            "case {case}: session accounting must balance"
        );
    }
}

/// A drain whose grace window outlives every session loses nothing: all
/// established sessions keep reaching the leaver until they close normally,
/// and the leaver completes with zero force-closes.
#[test]
fn patient_drain_never_force_closes() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x60D_D12A + case as u64);
        let mut d = GatewayDrain::new(64, &[0, 1, 2, 3], 4, 10_000);
        let sessions: Vec<(FlowHash, FiveTuple)> = (0..150u16).map(|i| flow(2000 + i)).collect();
        let mut owners = Vec::new();
        for &(hash, tpl) in &sessions {
            owners.push(d.open(hash, tpl).expect("capacity"));
        }
        let leaving = rng.index(4);
        let replacement = (leaving + 1) % 4;
        d.begin_drain(t(0), leaving, replacement, SimDuration::from_secs(1_000))
            .expect("both active");
        // Close sessions in random order, routing a packet first: the owner
        // never changes mid-drain and is never the replacement by accident.
        let mut order: Vec<usize> = (0..sessions.len()).collect();
        rng.shuffle(&mut order);
        for (step, &i) in order.iter().enumerate() {
            let (hash, tpl) = sessions[i];
            let (owner, _) = d.packet(hash, &tpl).expect("still live");
            assert_eq!(owner, owners[i], "case {case}: session moved mid-drain");
            assert!(d.close(hash, &tpl));
            d.tick(t(1 + step as u64));
        }
        assert_eq!(d.phase(leaving), Some(DrainPhase::Drained));
        let (_, _, _, force_closed, _) = d.stats();
        assert_eq!(force_closed, 0, "case {case}: patient drain lost sessions");
    }
}
