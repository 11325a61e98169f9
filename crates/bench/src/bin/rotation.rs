//! CLI driver for the certificate-rotation handshake-storm experiment.
//!
//! ```text
//! rotation                          # full 110 s timeline, 100k certs
//! rotation --fast                   # compressed smoke run (scripts/check.sh)
//! rotation --seed 7                 # different seed
//! rotation --json target/rot.json   # also write a machine-readable report
//! ```
//!
//! Exit code is non-zero unless the cert-lifecycle invariant holds: the
//! rotating tenant fully re-keys with zero availability loss for everyone
//! else, the clock-skew-poisoned bundle is NACKed at the canary (zero
//! commits, automatic rollback, clean retry), the compromise revocation
//! floor sticks and swept tickets never resume, resumption keeps the
//! steady state in the accelerator's bubble regime while the storm fills
//! batches, and the key-server backlog fully drains. Double runs must be
//! bit-identical. At full scale every report check gates too.

use canal_bench::cli::{gate, gate_checks, report_json, take_flag, take_value, write_report};
use canal_bench::experiments::handshake::{report_for, run_handshake, HandshakeParams};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = take_value(&mut args, "--seed", "a u64").unwrap_or(42u64);
    let json_path: Option<String> = take_value(&mut args, "--json", "a path");
    let fast = take_flag(&mut args, "--fast");
    let params = if fast {
        HandshakeParams::fast()
    } else {
        HandshakeParams::full()
    };

    let report = report_for(seed, &params);
    println!("{}", report.render());

    let outcome = run_handshake(seed, &params);
    let rerun = run_handshake(seed, &params);
    println!("digest: {:#018x}", outcome.digest());

    if let Some(path) = json_path {
        write_report(&path, render_json(seed, fast, &outcome, &report));
    }

    gate(outcome.digest() == rerun.digest(), "double run diverged (determinism broken)");
    gate(outcome.rotation_ok(), "cert-lifecycle invariant violated (storm / rollback / revocation)");
    gate_checks(fast, &report, "handshake");
}

/// The CI-archived report: this bin's section inside the shared envelope.
fn render_json(
    seed: u64,
    fast: bool,
    outcome: &canal_bench::experiments::handshake::HandshakeOutcome,
    report: &canal_bench::ExperimentReport,
) -> String {
    let c = &outcome.canal;
    let mut s = String::new();
    s.push_str("  \"canal\": {\n");
    s.push_str(&format!("    \"rotated_certs\": {},\n", c.rotated_certs));
    s.push_str(&format!("    \"full_handshakes\": {},\n", c.full_handshakes));
    s.push_str(&format!("    \"resumed_handshakes\": {},\n", c.resumed_handshakes));
    s.push_str(&format!("    \"steady_occupancy\": {:.4},\n", c.steady_occupancy));
    s.push_str(&format!("    \"storm_occupancy\": {:.4},\n", c.storm_occupancy));
    s.push_str(&format!("    \"storm_full_p99_ms\": {:.3},\n", c.storm_full_p99_us / 1000.0));
    s.push_str(&format!("    \"peak_sojourn_s\": {:.3},\n", c.peak_sojourn_s));
    s.push_str(&format!("    \"nonrotating_errors\": {},\n", c.nonrotating_errors));
    s.push_str(&format!("    \"poison_exposed\": {},\n", c.poison_exposed));
    s.push_str(&format!("    \"poison_committed\": {},\n", c.poison_committed));
    s.push_str(&format!("    \"poison_rolled_back\": {},\n", c.poison_rolled_back));
    s.push_str(&format!("    \"tickets_swept\": {},\n", c.tickets_swept));
    s.push_str(&format!("    \"rotations_converged\": {},\n", c.rotations_converged));
    s.push_str(&format!("    \"rotations_rolled_back\": {}\n", c.rotations_rolled_back));
    s.push_str("  },\n");
    report_json("handshake", seed, fast, outcome.digest(), ("rotation_ok", outcome.rotation_ok()), &s, report)
}
