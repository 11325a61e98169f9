//! Differential gray-failure detection.
//!
//! A *gray* gateway keeps answering health probes while real requests error
//! or crawl — the consolidated-proxy failure mode active probing is
//! structurally blind to. [`GrayDetector`] closes the gap by fusing two
//! evidence streams per target:
//!
//! * **Active** — the embedded [`ProbeTracker`] hysteresis state machine
//!   (a probe-visible outage is still the fastest signal when it fires).
//! * **Passive** — per-request outcomes rolled into fixed evidence windows:
//!   an EWMA error rate and a latency quantile, each judged *differentially*
//!   against the peer median, so a fleet-wide slowdown (overload, upstream
//!   dependency) does not read as one gateway's gray failure.
//!
//! Verdicts move `Healthy → Suspect → Quarantined` only after
//! `QUARANTINE_AFTER` *consecutive* bad windows (flap damping), a
//! quarantine must dwell through a cooloff before canary re-admission
//! ([`GrayDetector::allow_canary`]), and clearing needs `CLEAR_AFTER`
//! consecutive clean canary windows. A safety valve refuses to quarantine
//! more than `MAX_QUARANTINED_FRACTION` of the fleet: if "everyone looks
//! gray", the baseline is broken, not the peers.
//!
//! All retained state is bounded: the per-window latency ring holds at most
//! [`LAT_SAMPLE_CAP`] samples (overflow counted, not kept) and windows reset
//! every roll.

use crate::probe::{HealthState, ProbePolicy, ProbeTracker};
use canal_sim::invariant::Fold;
use canal_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Bound on latency samples retained per target per window. A 60s window at
/// production rps would otherwise hold millions of durations; the quantile
/// only needs a stable prefix (arrival order is deterministic, so the kept
/// prefix is too).
pub(crate) const LAT_SAMPLE_CAP: usize = 256;

/// Where the detector currently places a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GrayVerdict {
    /// No differential evidence against the target.
    Healthy,
    /// Bad windows accumulating, below the quarantine threshold.
    Suspect,
    /// Enough consecutive bad windows: route real traffic away.
    Quarantined,
}

impl GrayVerdict {
    fn tag(self) -> u64 {
        match self {
            GrayVerdict::Healthy => 0,
            GrayVerdict::Suspect => 1,
            GrayVerdict::Quarantined => 2,
        }
    }
}

/// EWMA weight of the newest window's error rate.
const EWMA_ALPHA: f64 = 0.5;
/// Minimum real requests in a window before passive evidence counts (tiny
/// samples are noise, not signal).
const MIN_REQUESTS: u64 = 5;
/// Absolute EWMA error-rate floor below which a target is never bad.
const ABS_ERROR_THRESHOLD: f64 = 0.2;
/// EWMA error rate must also exceed the peer median by this margin.
const PEER_ERROR_MARGIN: f64 = 0.1;
/// Window p90 latency must exceed the peer median p90 by this factor to
/// count as latency evidence.
const PEER_LATENCY_FACTOR: f64 = 3.0;
/// Consecutive bad windows before `Suspect` hardens to `Quarantined`.
const QUARANTINE_AFTER: u32 = 3;
/// Consecutive clean canary windows before a quarantine clears.
const CLEAR_AFTER: u32 = 3;
/// Refuse to quarantine above this fraction of registered targets.
const MAX_QUARANTINED_FRACTION: f64 = 0.34;

/// The detector's clock: how long a window is and how long a quarantine
/// dwells. Both scale with a scenario's time compression; every threshold
/// is a constant of this module.
#[derive(Debug, Clone, Copy)]
pub struct GrayPolicy {
    /// Evidence-window length (passive counters roll on this period).
    pub window: SimDuration,
    /// Minimum dwell in `Quarantined` before canary re-admission starts.
    pub cooloff: SimDuration,
}

/// Per-target passive evidence; window counters reset on every roll.
#[derive(Debug, Clone)]
struct Evidence {
    win_requests: u64,
    win_errors: u64,
    win_latencies: Vec<SimDuration>,
    lat_overflow: u64,
    ewma_error: f64,
    bad_windows: u32,
    good_windows: u32,
    verdict: GrayVerdict,
    quarantined_at: Option<SimTime>,
}

impl Evidence {
    fn new() -> Self {
        Evidence {
            win_requests: 0,
            win_errors: 0,
            win_latencies: Vec::new(),
            lat_overflow: 0,
            ewma_error: 0.0,
            bad_windows: 0,
            good_windows: 0,
            verdict: GrayVerdict::Healthy,
            quarantined_at: None,
        }
    }

    fn win_error_rate(&self) -> f64 {
        if self.win_requests == 0 {
            0.0
        } else {
            self.win_errors as f64 / self.win_requests as f64
        }
    }

    fn win_p90(&self) -> Option<SimDuration> {
        if self.win_latencies.is_empty() {
            return None;
        }
        let mut sorted = self.win_latencies.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * 0.9).round() as usize;
        sorted.get(idx).copied()
    }

    fn reset_window(&mut self) {
        self.win_requests = 0;
        self.win_errors = 0;
        self.win_latencies.clear();
    }
}

/// Fuses active probes and passive request evidence into per-target
/// [`GrayVerdict`]s. Keyed by `K` (gateway id in the drill).
#[derive(Debug)]
pub struct GrayDetector<K: Ord + Clone> {
    policy: GrayPolicy,
    probes: ProbeTracker<K>,
    targets: BTreeMap<K, Evidence>,
    last_roll: Option<SimTime>,
    quarantines: u64,
    clears: u64,
    safety_holds: u64,
}

impl<K: Ord + Clone> GrayDetector<K> {
    /// New detector; `probe_policy` drives the embedded active tracker.
    pub fn new(policy: GrayPolicy, probe_policy: ProbePolicy) -> Self {
        GrayDetector {
            policy,
            probes: ProbeTracker::new(probe_policy),
            targets: BTreeMap::new(),
            last_roll: None,
            quarantines: 0,
            clears: 0,
            safety_holds: 0,
        }
    }

    /// Register a target (initially `Healthy`) in both evidence streams.
    pub fn add_target(&mut self, key: K) {
        self.probes.add_target(key.clone());
        self.targets.entry(key).or_insert_with(Evidence::new);
    }

    /// Record one active probe outcome (delegates to the embedded
    /// [`ProbeTracker`], keeping its hysteresis + transition log semantics).
    pub fn record_probe(&mut self, key: &K, now: SimTime, success: bool) -> Option<HealthState> {
        self.probes.record_probe(key, now, success)
    }

    /// Record one *real* request outcome against a target.
    pub fn record_request(&mut self, key: &K, ok: bool, latency: SimDuration) {
        if let Some(ev) = self.targets.get_mut(key) {
            ev.win_requests += 1;
            if !ok {
                ev.win_errors += 1;
            }
            if ev.win_latencies.len() < LAT_SAMPLE_CAP {
                ev.win_latencies.push(latency);
            } else {
                ev.lat_overflow += 1;
            }
        }
    }

    /// Whether a window roll is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        self.last_roll
            .is_none_or(|last| now.since(last) >= self.policy.window)
    }

    /// Close the current evidence window: judge every target against its
    /// peers, advance verdicts, reset window counters. Returns the verdicts
    /// that *changed*, in key order.
    pub fn roll_window(&mut self, now: SimTime) -> Vec<(K, GrayVerdict)> {
        self.last_roll = Some(now);

        // Peer baseline: the median EWMA error and median window p90 over
        // non-quarantined targets that saw traffic. Median (not mean) so a
        // single gray outlier cannot drag the baseline toward itself.
        let mut peer_errs: Vec<f64> = Vec::new();
        let mut peer_p90s: Vec<SimDuration> = Vec::new();
        for ev in self.targets.values() {
            if ev.verdict != GrayVerdict::Quarantined && ev.win_requests > 0 {
                peer_errs
                    .push(EWMA_ALPHA * ev.win_error_rate() + (1.0 - EWMA_ALPHA) * ev.ewma_error);
                if let Some(q) = ev.win_p90() {
                    peer_p90s.push(q);
                }
            }
        }
        peer_errs.sort_by(f64::total_cmp);
        peer_p90s.sort_unstable();
        let peer_err_median = peer_errs.get(peer_errs.len() / 2).copied().unwrap_or(0.0);
        let peer_p90_median = peer_p90s.get(peer_p90s.len() / 2).copied();

        let quarantine_cap =
            ((self.targets.len() as f64) * MAX_QUARANTINED_FRACTION).floor() as usize;
        let mut quarantined_now = self
            .targets
            .values()
            .filter(|e| e.verdict == GrayVerdict::Quarantined)
            .count();

        let mut changed = Vec::new();
        for (key, ev) in &mut self.targets {
            let probe_bad = self.probes.state(key) == Some(HealthState::Unhealthy);
            let enough = ev.win_requests >= MIN_REQUESTS;
            let win_rate = ev.win_error_rate();

            match ev.verdict {
                GrayVerdict::Healthy | GrayVerdict::Suspect => {
                    // Fold the window into the EWMA only when it carried
                    // traffic; an idle window is no evidence either way.
                    if ev.win_requests > 0 {
                        ev.ewma_error = EWMA_ALPHA * win_rate + (1.0 - EWMA_ALPHA) * ev.ewma_error;
                    }
                    let error_bad = enough
                        && ev.ewma_error > ABS_ERROR_THRESHOLD
                        && ev.ewma_error >= peer_err_median + PEER_ERROR_MARGIN;
                    let lat_bad = enough
                        && match (ev.win_p90(), peer_p90_median) {
                            (Some(mine), Some(peers)) if peers > SimDuration::ZERO => {
                                mine.as_secs_f64() > peers.as_secs_f64() * PEER_LATENCY_FACTOR
                            }
                            _ => false,
                        };
                    if probe_bad || error_bad || lat_bad {
                        ev.bad_windows += 1;
                        ev.good_windows = 0;
                        if ev.bad_windows >= QUARANTINE_AFTER {
                            if quarantined_now < quarantine_cap.max(1) {
                                ev.verdict = GrayVerdict::Quarantined;
                                ev.quarantined_at = Some(now);
                                ev.good_windows = 0;
                                quarantined_now += 1;
                                self.quarantines += 1;
                                changed.push((key.clone(), ev.verdict));
                            } else {
                                // Fleet-wide badness: hold at Suspect.
                                self.safety_holds += 1;
                                if ev.verdict != GrayVerdict::Suspect {
                                    ev.verdict = GrayVerdict::Suspect;
                                    changed.push((key.clone(), ev.verdict));
                                }
                            }
                        } else if ev.verdict != GrayVerdict::Suspect {
                            ev.verdict = GrayVerdict::Suspect;
                            changed.push((key.clone(), ev.verdict));
                        }
                    } else {
                        ev.bad_windows = 0;
                        if ev.verdict == GrayVerdict::Suspect {
                            ev.verdict = GrayVerdict::Healthy;
                            changed.push((key.clone(), ev.verdict));
                        }
                    }
                }
                GrayVerdict::Quarantined => {
                    // Clearing needs *canary* evidence: real requests routed
                    // back after the cooloff, each window clean on its raw
                    // rate (the EWMA is poisoned by the pre-quarantine
                    // tail, so it restarts from the canary windows).
                    let past_cooloff = ev
                        .quarantined_at
                        .is_none_or(|at| now.since(at) >= self.policy.cooloff);
                    let clean = ev.win_requests > 0
                        && win_rate <= ABS_ERROR_THRESHOLD / 2.0
                        && !probe_bad;
                    if past_cooloff && clean {
                        ev.good_windows += 1;
                        if ev.good_windows >= CLEAR_AFTER {
                            ev.verdict = GrayVerdict::Healthy;
                            ev.bad_windows = 0;
                            ev.good_windows = 0;
                            ev.ewma_error = win_rate;
                            ev.quarantined_at = None;
                            quarantined_now = quarantined_now.saturating_sub(1);
                            self.clears += 1;
                            changed.push((key.clone(), ev.verdict));
                        }
                    } else if ev.win_requests > 0 {
                        // A dirty canary window restarts the clearing count.
                        ev.good_windows = 0;
                    }
                }
            }
            ev.reset_window();
        }
        changed
    }

    /// Current verdict for a target.
    pub(crate) fn verdict(&self, key: &K) -> Option<GrayVerdict> {
        self.targets.get(key).map(|e| e.verdict)
    }

    /// Whether real traffic should avoid this target.
    pub fn is_quarantined(&self, key: &K) -> bool {
        self.verdict(key) == Some(GrayVerdict::Quarantined)
    }

    /// Whether a quarantined target has dwelt through its cooloff and may
    /// receive canary traffic (the only way it can ever clear).
    pub fn allow_canary(&self, key: &K, now: SimTime) -> bool {
        self.targets.get(key).is_some_and(|e| {
            e.verdict == GrayVerdict::Quarantined
                && e.quarantined_at.is_none_or(|at| now.since(at) >= self.policy.cooloff)
        })
    }

    /// The embedded active-probe tracker (read access for `due` checks and
    /// probe accounting).
    pub fn probes(&self) -> &ProbeTracker<K> {
        &self.probes
    }

}

impl<K: Ord + Copy + Into<u64>> GrayDetector<K> {
    /// Fold detector state into a digest: the embedded `probes` tracker,
    /// then per target its key, verdict, EWMA bits, window counters
    /// (`win_requests`, `win_errors`, `win_latencies` via length,
    /// `lat_overflow`) and hysteresis counters (`bad_windows`,
    /// `good_windows`, `quarantined_at`), the roll clock (`last_roll`) and
    /// the lifetime counters (`quarantines`, `clears`, `safety_holds`).
    pub fn fold(&self, f: &mut impl Fold) {
        let Self {
            probes, targets, last_roll, quarantines, clears, safety_holds,
            policy: _, // config: fixed at construction
        } = self;
        f.scope("probes", |f| probes.fold(f));
        f.write_u64(targets.len() as u64);
        for (&key, ev) in targets {
            f.write_u64(key.into())
                .write_u64(ev.verdict.tag())
                .write_f64(ev.ewma_error)
                .write_u64(ev.win_requests)
                .write_u64(ev.win_errors)
                .write_u64(ev.win_latencies.len() as u64)
                .count("lat_overflow", ev.lat_overflow)
                .write_u64(ev.bad_windows as u64)
                .write_u64(ev.good_windows as u64)
                .write_u64(ev.quarantined_at.map(|t| t.as_nanos()).unwrap_or(u64::MAX));
        }
        f.write_u64(last_roll.map(|t| t.as_nanos()).unwrap_or(u64::MAX))
            .count("quarantines", *quarantines)
            .count("clears", *clears)
            .count("safety_holds", *safety_holds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_sim::Digest;

    const T: fn(u64) -> SimTime = SimTime::from_secs;
    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    fn detector() -> GrayDetector<u32> {
        let policy = GrayPolicy {
            window: SimDuration::from_secs(1),
            cooloff: SimDuration::from_secs(10),
        };
        let mut d = GrayDetector::new(policy, ProbePolicy::default());
        for g in 0..6u32 {
            d.add_target(g);
        }
        d
    }

    /// One window of traffic: `n` requests per target, target 0 erroring at
    /// `gray_rate` and 5x latency, peers clean at 1ms.
    fn drive_window(d: &mut GrayDetector<u32>, n: u64, gray_rate: f64) {
        for g in 0..6u32 {
            for i in 0..n {
                let ok = g != 0 || (i as f64 / n as f64) >= gray_rate;
                let lat = if g == 0 { MS(5) } else { MS(1) };
                d.record_request(&g, ok, lat);
            }
        }
    }

    #[test]
    fn gray_target_quarantined_healthy_peers_untouched() {
        let mut d = detector();
        let mut at = 0u64;
        // Probes stay green for everyone — the active stream sees nothing.
        loop {
            for g in 0..6u32 {
                d.record_probe(&g, T(at), true);
            }
            drive_window(&mut d, 20, 0.6);
            at += 1;
            let changed = d.roll_window(T(at));
            if changed.iter().any(|(k, v)| *k == 0 && *v == GrayVerdict::Quarantined) {
                break;
            }
            assert!(at < 10, "gray target must quarantine within bounded windows");
        }
        assert!(d.is_quarantined(&0));
        assert_eq!(d.quarantines, 1);
        for g in 1..6u32 {
            assert_eq!(d.verdict(&g), Some(GrayVerdict::Healthy), "peer {g} false-positived");
        }
    }

    #[test]
    fn latency_only_gray_failure_is_caught() {
        let mut d = detector();
        let mut at = 0u64;
        loop {
            for g in 0..6u32 {
                for _ in 0..20 {
                    // Zero errors anywhere; target 0 is 10x slower.
                    d.record_request(&g, true, if g == 0 { MS(10) } else { MS(1) });
                }
            }
            at += 1;
            d.roll_window(T(at));
            if d.is_quarantined(&0) {
                break;
            }
            assert!(at < 10, "latency-gray target must quarantine");
        }
        for g in 1..6u32 {
            assert_eq!(d.verdict(&g), Some(GrayVerdict::Healthy));
        }
    }

    #[test]
    fn fleet_wide_badness_does_not_quarantine() {
        let mut d = detector();
        // Everyone errors at 60% — an upstream outage, not a gray gateway.
        for w in 1..=6u64 {
            for g in 0..6u32 {
                for i in 0..20u64 {
                    d.record_request(&g, i >= 12, MS(1));
                }
            }
            d.roll_window(T(w));
        }
        // The differential margin keeps everyone off the error path (nobody
        // beats the peer median by the margin), so nothing quarantines.
        assert_eq!(d.quarantines, 0);
    }

    #[test]
    fn sub_threshold_windows_never_quarantine() {
        let mut d = detector();
        // Alternate one bad window / one clean window: consecutive-bad never
        // reaches QUARANTINE_AFTER.
        for w in 1..=20u64 {
            let bad = w % 2 == 0;
            for g in 0..6u32 {
                for i in 0..20u64 {
                    let ok = g != 0 || !bad || i >= 12;
                    let lat = if g == 0 && bad { MS(5) } else { MS(1) };
                    d.record_request(&g, ok, lat);
                }
            }
            d.roll_window(T(w));
        }
        assert!(!d.is_quarantined(&0), "flapping below threshold must not quarantine");
        assert_eq!(d.quarantines, 0);
    }

    #[test]
    fn quarantine_clears_only_via_cooloff_canary() {
        let mut d = detector();
        let mut at = 0u64;
        while !d.is_quarantined(&0) {
            drive_window(&mut d, 20, 1.0);
            at += 1;
            d.roll_window(T(at));
        }
        let quarantined_at = at;
        // Clean canary traffic *before* cooloff: must not clear.
        for _ in 0..3 {
            d.record_request(&0, true, MS(1));
            drive_window_peers(&mut d, 20);
            at += 1;
            d.roll_window(T(at));
        }
        assert!(d.is_quarantined(&0), "no clear inside cooloff");
        assert!(!d.allow_canary(&0, T(quarantined_at + 1)));
        // Jump past cooloff, then three clean canary windows clear it.
        at = quarantined_at + 10;
        assert!(d.allow_canary(&0, T(at)));
        for _ in 0..3 {
            for _ in 0..3 {
                d.record_request(&0, true, MS(1));
            }
            drive_window_peers(&mut d, 20);
            at += 1;
            d.roll_window(T(at));
        }
        assert_eq!(d.verdict(&0), Some(GrayVerdict::Healthy));
        assert_eq!(d.clears, 1);
        // An idle quarantine (no canary traffic at all) never clears.
        let mut idle = detector();
        let mut t = 0u64;
        while !idle.is_quarantined(&0) {
            drive_window(&mut idle, 20, 1.0);
            t += 1;
            idle.roll_window(T(t));
        }
        for _ in 0..50 {
            drive_window_peers(&mut idle, 20);
            t += 1;
            idle.roll_window(T(t));
        }
        assert!(idle.is_quarantined(&0), "clearing requires canary evidence");
    }

    fn drive_window_peers(d: &mut GrayDetector<u32>, n: u64) {
        for g in 1..6u32 {
            for _ in 0..n {
                d.record_request(&g, true, MS(1));
            }
        }
    }

    #[test]
    fn probe_visible_outage_still_fuses_in() {
        let mut d = detector();
        // Target 2 hard-fails probes (classic outage); no request traffic at
        // all. The active stream alone must drive it to quarantine.
        let mut at = 0u64;
        loop {
            for g in 0..6u32 {
                d.record_probe(&g, T(at), g != 2);
            }
            drive_window_peers(&mut d, 20);
            at += 1;
            d.roll_window(T(at));
            if d.is_quarantined(&2) {
                break;
            }
            assert!(at < 10, "probe-dead target must quarantine via fusion");
        }
    }

    #[test]
    fn latency_ring_is_bounded_and_digest_is_stable() {
        let mut d = detector();
        for _ in 0..(LAT_SAMPLE_CAP as u64 + 100) {
            d.record_request(&0, true, MS(1));
        }
        let (mut a, mut b) = (Digest::new(), Digest::new());
        d.fold(&mut a);
        d.fold(&mut b);
        assert_eq!(a.value(), b.value());
        d.roll_window(T(1));
        let c = Digest::of(|f| d.fold(f));
        assert_ne!(a.value(), c.value(), "roll must move the digest");
    }

    #[test]
    fn fold_tells_targets_and_probe_health_apart() {
        let policy = GrayPolicy {
            window: SimDuration::from_secs(1),
            cooloff: SimDuration::from_secs(10),
        };
        let fresh = |key: u32| {
            let mut d = GrayDetector::new(policy, ProbePolicy::default());
            d.add_target(key);
            d
        };
        let digest = |d: &GrayDetector<u32>| Digest::of(|f| d.fold(f)).value();
        // The same evidence, held for different targets.
        assert_ne!(digest(&fresh(1)), digest(&fresh(2)), "the fold must name each target");
        // The same evidence, one failed probe apart.
        let mut probed = fresh(1);
        probed.record_probe(&1, T(0), false);
        assert_ne!(digest(&fresh(1)), digest(&probed), "the fold must take the probe tracker");
    }
}
