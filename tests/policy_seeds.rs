//! The tenant policy experiment's invariant at every seed of a range, at
//! full scale: a healthy rollout converges, the poisoned cut never commits,
//! the wrong-scope deny-all stays in the canary wave. Background denies (the
//! baseline policy's own) must never read as a deny spike, whatever window
//! they bunch into.

use canal_bench::experiments::policy::{run_policy, PolicyParams};
use canal_bench::scenario::Scenario;

/// Runs seeds `0..end`, naming each seed whose invariant breaks and the
/// clauses it breaks.
fn policy_holds_at_every_seed(end: u64) {
    let params = PolicyParams::full();
    let broken: Vec<(u64, Vec<String>)> = (0..end)
        .map(|seed| (seed, run_policy(seed, &params).failures()))
        .filter(|(_, failures)| !failures.is_empty())
        .collect();
    assert!(broken.is_empty(), "policy invariant violated at {broken:?}");
}

#[test]
fn policy_holds_at_every_seed_of_0_to_256() {
    policy_holds_at_every_seed(256);
}

#[test]
#[ignore = "four times the tier-1 range; scripts/check.sh runs it in release"]
fn policy_holds_at_every_seed_of_0_to_1024() {
    policy_holds_at_every_seed(1024);
}
