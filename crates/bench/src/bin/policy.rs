//! CLI driver for the policy-plane blast-radius experiment.
//!
//! ```text
//! policy                              # full 90 s timeline
//! policy --fast                       # 4x compressed smoke run (scripts/check.sh)
//! policy --seed 7                     # different seed
//! policy --json target/policy.json    # also write a machine-readable report
//! ```
//!
//! Exit code is non-zero unless the policy invariant holds: the poisoned
//! policy cut is NACKed at the canary and never committed anywhere
//! (blast radius 0, fail-static serving), the wrong-scope deny-all change
//! is contained to the canary wave and rolled back automatically off the
//! deny-spike health gate, the compiled match tables agree with the naive
//! reference bit-for-bit over the whole arrival stream, the two tenants
//! with overlapping VPC address spaces never cross-match, and the
//! compiled per-lookup cost beats the O(rules) scan. Double runs must be
//! bit-identical. At full scale every report check gates too.

use canal_bench::cli::{gate, gate_checks, report_json, take_flag, take_value, write_report};
use canal_bench::experiments::policy::{report_for, run_policy, PolicyParams};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = take_value(&mut args, "--seed", "a u64").unwrap_or(42u64);
    let json_path: Option<String> = take_value(&mut args, "--json", "a path");
    let fast = take_flag(&mut args, "--fast");
    let params = if fast { PolicyParams::fast() } else { PolicyParams::full() };

    let report = report_for(seed, &params);
    println!("{}", report.render());

    let outcome = run_policy(seed, &params);
    let rerun = run_policy(seed, &params);
    println!("digest: {:#018x}", outcome.digest());

    if let Some(path) = json_path {
        write_report(&path, render_json(seed, fast, &outcome, &report));
    }

    gate(outcome.digest() == rerun.digest(), "double run diverged (determinism broken)");
    gate(outcome.policy_ok(), "policy invariant violated (containment / isolation / differential / cost)");
    gate_checks(fast, &report, "policy");
}

/// The CI-archived report: this bin's section inside the shared envelope.
fn render_json(
    seed: u64,
    fast: bool,
    outcome: &canal_bench::experiments::policy::PolicyBlastOutcome,
    report: &canal_bench::ExperimentReport,
) -> String {
    let mut s = String::new();
    s.push_str("  \"canal\": {\n");
    s.push_str(&format!("    \"nacks\": {},\n", outcome.nacks));
    s.push_str(&format!("    \"rollbacks\": {},\n", outcome.rollbacks));
    s.push_str(&format!("    \"deny_exposed\": {},\n", outcome.deny_exposed));
    s.push_str(&format!("    \"canary_size\": {},\n", outcome.canary_size));
    s.push_str(&format!("    \"deny_errors\": {},\n", outcome.deny_errors));
    s.push_str(&format!("    \"policy_alerts\": {},\n", outcome.policy_alerts));
    s.push_str(&format!("    \"healthy_converged\": {},\n", outcome.healthy_converged));
    s.push_str(&format!("    \"node_allowed\": {},\n", outcome.node_allowed));
    s.push_str(&format!("    \"node_denied\": {},\n", outcome.node_denied));
    s.push_str(&format!("    \"node_deferred\": {},\n", outcome.node_deferred));
    s.push_str(&format!("    \"store_len\": {}\n", outcome.store_len));
    s.push_str("  },\n");
    s.push_str("  \"engine\": {\n");
    s.push_str(&format!("    \"isolation_probes\": {},\n", outcome.isolation_probes));
    s.push_str(&format!("    \"cross_tenant_matches\": {},\n", outcome.cross_tenant_matches));
    s.push_str(&format!(
        "    \"differential_equal\": {},\n",
        outcome.compiled_digest == outcome.reference_digest
    ));
    s.push_str(&format!("    \"compiled_ops\": {},\n", outcome.compiled_ops));
    s.push_str(&format!("    \"naive_ops\": {},\n", outcome.naive_ops));
    s.push_str(&format!("    \"cost_rules\": {}\n", outcome.cost_rules));
    s.push_str("  },\n");
    report_json("policy", seed, fast, outcome.digest(), ("policy_ok", outcome.policy_ok()), &s, report)
}
