//! Telemetry is not free: every recorded span charges CPU and bytes.
//!
//! Proxy-overhead studies (arXiv:2207.00592, arXiv:2306.15792) measure
//! observability collection as a first-order datapath cost, so this module
//! makes it explicit. Recording an L7-rich span (route, headers, status)
//! costs far more than stamping an L4 timing record, which is the mechanical
//! core of the §4.1.1 claim: a sidecar mesh pays the rich price at two pods
//! per request, canal pays it once at the shared gateway and L4 prices at
//! the node proxies.
//!
//! The [`TelemetryMeter`] also tracks *refunds*: when the gateway's brownout
//! controller sheds observability sampling, the span that would have been
//! recorded refunds its CPU to the request path instead of charging it —
//! the "drop observability before dropping requests" stage of the overload
//! pipeline, now actually connected to a modeled cost.

use canal_sim::SimDuration;

/// Per-span CPU and wire-byte prices.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryCostModel {
    /// CPU to record a cheap L4 timing span (node proxy, ztunnel).
    pub(crate) l4_record_cpu: SimDuration,
    /// CPU to record a rich L7 span (sidecar, waypoint, gateway).
    pub(crate) l7_record_cpu: SimDuration,
    /// CPU to serialize + export one span to the collector.
    pub(crate) export_cpu: SimDuration,
    /// Wire bytes of an L4 span record.
    pub(crate) l4_span_bytes: u64,
    /// Wire bytes of an L7 span record.
    pub(crate) l7_span_bytes: u64,
}

impl Default for TelemetryCostModel {
    fn default() -> Self {
        TelemetryCostModel {
            l4_record_cpu: SimDuration::from_nanos(300),
            l7_record_cpu: SimDuration::from_micros(4),
            export_cpu: SimDuration::from_micros(1),
            l4_span_bytes: 64,
            l7_span_bytes: 512,
        }
    }
}

impl TelemetryCostModel {
    /// Recording CPU for a span at an L7 (`true`) or L4 site.
    pub(crate) fn record_cpu(&self, l7: bool) -> SimDuration {
        if l7 {
            self.l7_record_cpu
        } else {
            self.l4_record_cpu
        }
    }

    /// Wire bytes for a span at an L7 (`true`) or L4 site.
    pub(crate) fn span_bytes(&self, l7: bool) -> u64 {
        if l7 {
            self.l7_span_bytes
        } else {
            self.l4_span_bytes
        }
    }
}

/// Running account of what telemetry cost — and what shedding refunded.
#[derive(Debug, Clone, Default)]
pub struct TelemetryMeter {
    cpu: SimDuration,
    bytes: u64,
    spans_recorded: u64,
    spans_exported: u64,
    refunded_cpu: SimDuration,
    refunded_spans: u64,
}

impl TelemetryMeter {
    /// New zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge the recording cost of one span at an L7/L4 site.
    pub fn charge_record(&mut self, l7: bool, cost: &TelemetryCostModel) {
        self.cpu += cost.record_cpu(l7);
        self.spans_recorded += 1;
    }

    /// Charge the export cost of one span (CPU + wire bytes).
    pub fn charge_export(&mut self, l7: bool, cost: &TelemetryCostModel) {
        self.cpu += cost.export_cpu;
        self.bytes += cost.span_bytes(l7);
        self.spans_exported += 1;
    }

    /// Refund the recording cost of a span that was shed by brownout: the
    /// CPU goes back to the request path instead of being spent here.
    pub fn refund_record(&mut self, l7: bool, cost: &TelemetryCostModel) {
        self.refunded_cpu += cost.record_cpu(l7);
        self.refunded_spans += 1;
    }

    /// Total telemetry CPU charged.
    pub fn cpu(&self) -> SimDuration {
        self.cpu
    }

    /// Total telemetry wire bytes charged.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Spans whose recording cost was charged.
    pub fn spans_recorded(&self) -> u64 {
        self.spans_recorded
    }

    /// Spans whose export cost was charged.
    pub fn spans_exported(&self) -> u64 {
        self.spans_exported
    }

    /// CPU handed back to the request path by shedding.
    pub fn refunded_cpu(&self) -> SimDuration {
        self.refunded_cpu
    }

    /// Spans shed (recording skipped, cost refunded).
    pub fn refunded_spans(&self) -> u64 {
        self.refunded_spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l7_spans_cost_more_than_l4() {
        let cost = TelemetryCostModel::default();
        assert!(cost.record_cpu(true) > cost.record_cpu(false));
        assert!(cost.span_bytes(true) > cost.span_bytes(false));
    }

    #[test]
    fn meter_charges_and_refunds_separately() {
        let cost = TelemetryCostModel::default();
        let mut m = TelemetryMeter::new();
        m.charge_record(true, &cost);
        m.charge_export(true, &cost);
        m.refund_record(true, &cost);
        assert_eq!(m.spans_recorded(), 1);
        assert_eq!(m.spans_exported(), 1);
        assert_eq!(m.refunded_spans(), 1);
        assert_eq!(m.cpu(), cost.l7_record_cpu + cost.export_cpu);
        assert_eq!(m.refunded_cpu(), cost.l7_record_cpu);
        assert_eq!(m.bytes(), cost.l7_span_bytes);
    }
}
