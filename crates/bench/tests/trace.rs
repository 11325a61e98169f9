//! Trace-run sampling/RCA-invariant tests (ISSUE acceptance
//! criteria for the mesh-wide tracing experiment).

use canal_bench::experiments::trace::{run_trace, TraceParams};

#[test]
fn retention_cost_and_rca_shape() {
    let outcome = run_trace(42, &TraceParams::fast());
    let canal = outcome.arch("canal").expect("canal runs");
    let sidecar = outcome.arch("istio-sidecar").expect("sidecar runs");

    // Tail sampling keeps every error and global-P999 trace while the head
    // rate stays inside the 2% budget.
    assert!(canal.errors > 0, "the fault plan must produce error traces");
    assert!(canal.error_retention() >= 0.99);
    assert!(canal.p999_retention() >= 0.99);
    assert!(canal.head_rate <= 0.025);
    // The exemplar satellite ties the P999 histogram cell to a kept trace.
    assert!(canal.exemplar_retained);

    // Cost model: sidecar pays two L7 records per request; canal pays
    // mostly L4 node records plus one L7 gateway record.
    assert!(
        canal.telemetry_cpu_us_per_req < sidecar.telemetry_cpu_us_per_req,
        "canal {} vs sidecar {} us/req",
        canal.telemetry_cpu_us_per_req,
        sidecar.telemetry_cpu_us_per_req
    );
    // Bounded rings really are bounded: long runs must overwrite.
    assert!(canal.spans_evicted > 0, "rings never evicted — cap too large");

    // Span-evidence RCA names the inflated hop in every episode and needs
    // strictly fewer windows than the trend-correlation formulation.
    assert_eq!(outcome.episodes.len(), 3);
    assert!(outcome.episodes.iter().all(|e| e.span_correct));
    assert!(outcome.span_windows_total() < outcome.trend_windows_total());
}
