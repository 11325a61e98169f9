//! The calibrated cost model.
//!
//! All timing/CPU constants used by the architectures live here, each
//! annotated with the paper artifact it is calibrated against. The
//! *structure* (which steps a request takes) is encoded in
//! [`crate::arch`]; this module only prices the steps.
//!
//! Calibration philosophy (DESIGN.md §4): constants are chosen so that the
//! published **ratios** emerge — Canal ≈1.7×/1.3× lower latency than
//! Istio/Ambient (Fig. 10), ≈12.3×/2.3× higher max RPS (Fig. 11),
//! ≈12–19×/4.6–7.2× lower CPU (Fig. 13) — from step counts and queueing,
//! not from hard-coded outputs.

use canal_sim::SimDuration;

/// All tunable costs. `Default` is the calibrated testbed model.
#[derive(Debug, Clone)]
pub struct CostModel {
    // ---- Generic kernel / network ----
    /// One kernel protocol-stack traversal (Fig. 21 decomposition).
    pub(crate) stack_traversal: SimDuration,
    /// One context switch (Fig. 22).
    pub(crate) context_switch: SimDuration,
    /// Memory copy per KiB.
    pub(crate) copy_per_kib: SimDuration,
    /// One-way network hop on the testbed (loopback/vSwitch scale).
    pub hop_one_way: SimDuration,

    // ---- Application ----
    /// Server app service time per request on the testbed echo workload
    /// (production apps are 40–200 ms, Fig. 24 — see `canal-workload`).
    pub app_service: SimDuration,

    // ---- Redirection (§4.1.2; iptables is derived, see `iptables_redirect`) ----
    /// eBPF socket redirect per crossing: one switch, no stack traversal.
    pub ebpf_redirect: SimDuration,

    // ---- Istio-like sidecar (per side: one sidecar handles the request
    //      out and the response back) ----
    /// Sidecar CPU per request direction (full Envoy-style filter chain).
    pub sidecar_cpu_request: SimDuration,
    /// Sidecar CPU per response direction.
    pub sidecar_cpu_response: SimDuration,
    /// Sidecar background CPU per pod, in cores (stats, health, config
    /// churn) — the idle burn behind Table 1 / Fig. 13.
    pub(crate) sidecar_background_cores_per_pod: f64,

    // ---- Ambient-like ----
    /// ztunnel (per-node L4 proxy) CPU per pass (one direction, one node).
    pub ztunnel_cpu_per_pass: SimDuration,
    /// Waypoint (per-service L7 proxy) CPU per request direction.
    pub waypoint_cpu_request: SimDuration,
    /// Waypoint CPU per response direction.
    pub waypoint_cpu_response: SimDuration,
    /// Non-CPU latency per waypoint pass (kernel I/O, HBONE framing).
    pub waypoint_pass_overhead: SimDuration,
    /// Background cores per ztunnel.
    pub(crate) ztunnel_background_cores: f64,
    /// Background cores per waypoint.
    pub(crate) waypoint_background_cores: f64,

    // ---- Canal ----
    /// On-node proxy CPU per pass (eBPF redirected, L4 observability +
    /// symmetric crypto).
    pub node_proxy_cpu_per_pass: SimDuration,
    /// Gateway backend CPU per request direction (purpose-built multi-tenant
    /// L7 engine).
    pub gateway_cpu_request: SimDuration,
    /// Gateway CPU per response direction.
    pub gateway_cpu_response: SimDuration,
    /// Non-CPU latency per gateway pass (vSwitch, tunnel decap, session
    /// lookup).
    pub gateway_pass_overhead: SimDuration,
    /// Background cores per on-node proxy.
    pub(crate) node_proxy_background_cores: f64,
    /// Background cores of the gateway share serving this tenant.
    pub(crate) gateway_background_cores: f64,
    /// Packet-pipeline ceiling of one gateway VM (requests/s). The paper's
    /// gateway rides VMs above a vSwitch; pps, not CPU, caps the testbed
    /// knee (this is why Fig. 11 shows 2.3× Ambient while Fig. 13 shows
    /// 4.6–7.2× less CPU).
    pub(crate) gateway_pipeline_rps_cap: f64,

    // ---- Crypto (priced via canal-crypto backends at call sites) ----
    /// Symmetric crypto CPU per KiB (ChaCha20 software).
    pub(crate) sym_crypto_per_kib: SimDuration,

    // ---- Telemetry (charged only when the request's trace is sampled;
    //      defaults mirror canal-telemetry's TelemetryCostModel) ----
    /// CPU to record a cheap L4 timing span (node proxy, ztunnel).
    pub(crate) telemetry_l4_span_cpu: SimDuration,
    /// CPU to record a rich L7 span (sidecar, waypoint, gateway).
    pub(crate) telemetry_l7_span_cpu: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            stack_traversal: SimDuration::from_micros(12),
            context_switch: SimDuration::from_micros(4),
            copy_per_kib: SimDuration::from_nanos(400),
            hop_one_way: SimDuration::from_micros(100),

            app_service: SimDuration::from_micros(100),

            ebpf_redirect: SimDuration::from_micros(5),

            sidecar_cpu_request: SimDuration::from_micros(290),
            sidecar_cpu_response: SimDuration::from_micros(147),
            sidecar_background_cores_per_pod: 0.04,

            ztunnel_cpu_per_pass: SimDuration::from_micros(15),
            waypoint_cpu_request: SimDuration::from_micros(68),
            waypoint_cpu_response: SimDuration::from_micros(34),
            waypoint_pass_overhead: SimDuration::from_micros(150),
            ztunnel_background_cores: 0.25,
            waypoint_background_cores: 0.045,

            node_proxy_cpu_per_pass: SimDuration::from_micros(6),
            gateway_cpu_request: SimDuration::from_micros(22),
            gateway_cpu_response: SimDuration::from_micros(12),
            gateway_pass_overhead: SimDuration::from_micros(75),
            node_proxy_background_cores: 0.04,
            gateway_background_cores: 0.02,
            gateway_pipeline_rps_cap: 50_000.0,

            sym_crypto_per_kib: SimDuration::from_micros(1),

            telemetry_l4_span_cpu: SimDuration::from_nanos(300),
            telemetry_l7_span_cpu: SimDuration::from_micros(4),
        }
    }
}

impl CostModel {
    /// Memory-copy cost for `bytes` of payload.
    pub(crate) fn copy_cost(&self, bytes: usize) -> SimDuration {
        self.copy_per_kib.scale(bytes as f64 / 1024.0)
    }

    /// Symmetric crypto cost for `bytes` of payload.
    pub(crate) fn sym_crypto_cost(&self, bytes: usize) -> SimDuration {
        self.sym_crypto_per_kib.scale(bytes as f64 / 1024.0)
    }

    /// Span-recording cost at an L7-rich (`true`) or L4 site. This is the
    /// §4.1.1 cost asymmetry: a sidecar mesh pays the rich price at two pods
    /// per request, canal once at the shared gateway.
    pub(crate) fn telemetry_record_cpu(&self, l7: bool) -> SimDuration {
        if l7 {
            self.telemetry_l7_span_cpu
        } else {
            self.telemetry_l4_span_cpu
        }
    }

    /// iptables redirect per boundary crossing: 2 extra stack traversals +
    /// 2 context switches (Fig. 21). Latency == CPU.
    pub fn iptables_redirect(&self) -> SimDuration {
        (self.stack_traversal + self.context_switch).times(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iptables_matches_its_decomposition() {
        let m = CostModel::default();
        // 2 stack traversals + 2 context switches (Fig. 21): 32 µs.
        assert_eq!(m.iptables_redirect(), SimDuration::from_micros(32));
    }

    #[test]
    fn byte_scaled_costs() {
        let m = CostModel::default();
        assert_eq!(m.copy_cost(1024), m.copy_per_kib);
        assert_eq!(m.copy_cost(0), SimDuration::ZERO);
        assert_eq!(m.sym_crypto_cost(2048), m.sym_crypto_per_kib.times(2));
    }
}
