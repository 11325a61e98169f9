//! CLI driver for the mesh-wide tracing experiment.
//!
//! ```text
//! traceview            # full 120 s fault timeline
//! traceview --fast     # compressed smoke run (scripts/check.sh)
//! traceview --seed 7   # different seed
//! ```
//!
//! Exit code is non-zero unless the tracing invariants hold: tail sampling
//! retains >=99% of error and global-P999 traces at a <=2% head rate,
//! telemetry CPU per request stays below the sidecar baseline under canal,
//! the span-evidence RCA localizes every fault episode at least as
//! accurately as trend correlation with strictly fewer windows, and two
//! runs with the same seed produce bit-identical outcome digests. At full
//! scale every report check gates too.

use canal_bench::cli::{gate, gate_checks, take_flag, take_value};
use canal_bench::experiments::trace::{report_for, run_trace, TraceParams};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = take_value(&mut args, "--seed", "a u64").unwrap_or(42u64);
    let fast = take_flag(&mut args, "--fast");
    let params = if fast {
        TraceParams::fast()
    } else {
        TraceParams::full()
    };

    let report = report_for(seed, &params);
    println!("{}", report.render());

    let outcome = run_trace(seed, &params);
    println!("digest: {:#018x}", outcome.digest());

    // Determinism gate: the same seed must reproduce the same outcome
    // bit for bit, including every sampling decision and RCA verdict.
    let again = run_trace(seed, &params);
    gate(
        again.digest() == outcome.digest(),
        &format!("double run diverged ({:#018x} vs {:#018x})", outcome.digest(), again.digest()),
    );

    let failures = outcome.invariant_failures();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    gate_checks(fast, &report, "trace");
}
