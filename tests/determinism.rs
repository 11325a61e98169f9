//! The digest every double-run determinism check rests on: the scenario
//! `GOLDEN` table (`tests/scenarios.rs`) and the `tests/golden_*.rs`
//! values are all `canal_sim::invariant::Digest` values, so its algorithm
//! is pinned here once.

use canal::sim::invariant::{Digest, Fold};

/// The digest itself is stable across compilations and platforms for fixed
/// inputs (FNV-1a with fixed constants) — pin one value so accidental
/// algorithm changes surface here instead of silently rebaselining.
#[test]
fn digest_algorithm_is_pinned() {
    let mut d = Digest::new();
    d.write_u64(1).write_str("canal").write_f64(0.5);
    assert_eq!(d.value(), PINNED, "digest algorithm changed: {:#018x}", d.value());
}

const PINNED: u64 = 0xad1d_4fd6_f027_d2b9;
