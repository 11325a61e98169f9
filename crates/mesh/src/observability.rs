//! Observability accounting the mesh layer owns: L4 per-pod labeling and
//! counters at the on-node proxy, and the gateway's L7 access log (§4.1.1).
//!
//! The paper's functional-equivalence analysis splits observability between
//! the on-node proxy (L4 only — bytes, connections, per-pod labeling) and
//! the mesh gateway (rich L7 — method, path, status, latency). What lives
//! here is the *accounting* side of that split, notably the per-pod labeling
//! overhead the appendix calls out (a per-node proxy must *label* traffic
//! per pod where a sidecar knew its pod implicitly).
//!
//! Distributed tracing — spans, sampling, assembly, critical paths — lives
//! in `canal-telemetry`; callers stamp a
//! [`TraceContext`](canal_net::TraceContext) on the request
//! ([`RequestCtx::trace`](crate::arch::RequestCtx::trace)) and feed spans
//! to that crate's collector.

use canal_http::StatusCode;
use canal_net::{FlatKey, FlatTable, GlobalServiceId, PodId};
use canal_sim::{SimDuration, SimTime};
use std::ops::Range;

/// L4 counters the on-node proxy keeps per pod.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L4PodStats {
    /// Bytes sent by the pod.
    pub(crate) bytes_out: u64,
    /// Bytes received by the pod.
    pub(crate) bytes_in: u64,
    /// Connections opened.
    pub(crate) connections: u64,
}

/// The on-node proxy's L4 observability: per-pod traffic labeling and
/// counters.
#[derive(Debug, Default)]
pub struct NodeObservability {
    /// Keyed by pod: one hashed probe a transfer.
    stats: FlatTable<PodId, L4PodStats>,
    /// Labeling operations performed (the App. A overhead: a sidecar knows
    /// its pod for free; the shared node proxy must label each flow).
    labeling_ops: u64,
}

impl NodeObservability {
    /// Fresh collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one pod-attributed transfer (one labeling operation).
    pub fn record_transfer(&mut self, pod: PodId, bytes_out: u64, bytes_in: u64, new_conn: bool) {
        let hash = pod.flat_hash();
        let connections = u64::from(new_conn);
        match self.stats.get_mut(hash, &pod) {
            Some(e) => {
                e.bytes_out += bytes_out;
                e.bytes_in += bytes_in;
                e.connections += connections;
            }
            None => self.stats.insert_new(hash, pod, L4PodStats { bytes_out, bytes_in, connections }),
        }
        self.labeling_ops += 1;
    }

    /// Counters of `pod`, if it has transferred anything.
    #[cfg(test)]
    fn pod_stats(&self, pod: PodId) -> Option<L4PodStats> {
        self.stats.get(pod.flat_hash(), &pod).copied()
    }

    /// Labeling operations performed so far.
    #[cfg(test)]
    fn labeling_ops(&self) -> u64 {
        self.labeling_ops
    }
}

/// One L7 access-log entry at the gateway.
#[derive(Debug, Clone)]
pub struct AccessLogEntry {
    /// When the request arrived.
    pub at: SimTime,
    /// Service it targeted.
    pub service: GlobalServiceId,
    /// Request method token.
    pub method: &'static str,
    /// Where the request path lies in the owning log's path text.
    pub path: Range<usize>,
    /// Response status.
    pub status: StatusCode,
    /// Gateway-side processing latency.
    pub latency: SimDuration,
}

/// The gateway's L7 observability: the access log. (The gateway's L7
/// *spans* go to the `canal-telemetry` collector, not here.)
#[derive(Debug, Default)]
pub struct GatewayObservability {
    log: Vec<AccessLogEntry>,
    /// Every entry's path, back to back: one growing buffer, not a
    /// `String` per request.
    paths: String,
}

impl GatewayObservability {
    /// Fresh collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one L7 request.
    pub fn record_request(
        &mut self,
        at: SimTime,
        service: GlobalServiceId,
        method: &'static str,
        path: &str,
        status: StatusCode,
        latency: SimDuration,
    ) {
        let start = self.paths.len();
        self.paths.push_str(path);
        self.log.push(AccessLogEntry {
            at,
            service,
            method,
            path: start..self.paths.len(),
            status,
            latency,
        });
    }

    /// Access log entries in arrival order, each with its request path.
    #[cfg(test)]
    fn entries(&self) -> impl Iterator<Item = (&AccessLogEntry, &str)> {
        self.log
            .iter()
            .map(|e| (e, self.paths.get(e.path.clone()).unwrap_or_default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{ServiceId, TenantId};
    use std::collections::BTreeMap;

    const T: fn(u64) -> SimTime = SimTime::from_micros;

    fn svc() -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(1), ServiceId(2))
    }

    fn stats(bytes_out: u64, bytes_in: u64, connections: u64) -> L4PodStats {
        L4PodStats { bytes_out, bytes_in, connections }
    }

    #[test]
    fn per_pod_labeling_and_counters() {
        let mut node = NodeObservability::new();
        node.record_transfer(PodId(1), 100, 2000, true);
        node.record_transfer(PodId(1), 50, 500, false);
        node.record_transfer(PodId(2), 10, 10, true);
        assert_eq!(node.pod_stats(PodId(1)), Some(stats(150, 2500, 1)));
        assert_eq!(node.pod_stats(PodId(2)), Some(stats(10, 10, 1)));
        assert_eq!(node.pod_stats(PodId(9)), None);
        // Every transfer costs one labeling op (the App. A overhead).
        assert_eq!(node.labeling_ops(), 3);
    }

    /// Seeded differential test against the `BTreeMap` the table replaced:
    /// random transfers over a pod space small enough to revisit and wide
    /// enough to grow the table, with both ends of the id range in it.
    #[test]
    fn pod_counters_match_a_btreemap_model() {
        let mut rng = canal_sim::SimRng::seed(0x0B5E_0001);
        for case in 0..16 {
            let mut node = NodeObservability::new();
            let mut model: BTreeMap<PodId, L4PodStats> = BTreeMap::new();
            let space = [4u32, 100, 5000][case % 3];
            for step in 1..=2000u64 {
                let pod = match rng.index(8) {
                    0 => PodId(0),
                    1 => PodId(u32::MAX),
                    _ => PodId(rng.index(space as usize) as u32),
                };
                let (out, inb, new_conn) = (rng.int_range(0, 1500), rng.int_range(0, 1500), rng.chance(0.3));
                node.record_transfer(pod, out, inb, new_conn);
                let e = model.entry(pod).or_default();
                e.bytes_out += out;
                e.bytes_in += inb;
                e.connections += u64::from(new_conn);
                assert_eq!(node.pod_stats(pod), model.get(&pod).copied(), "case {case}, step {step}");
                let probe = PodId(rng.index(space as usize + 2) as u32);
                assert_eq!(node.pod_stats(probe), model.get(&probe).copied(), "case {case}, step {step}");
                assert_eq!(node.labeling_ops(), step);
            }
            for (pod, want) in &model {
                assert_eq!(node.pod_stats(*pod), Some(*want));
            }
        }
    }

    #[test]
    fn gateway_access_log_keeps_arrival_order_and_paths() {
        let mut gw = GatewayObservability::new();
        gw.record_request(T(0), svc(), "GET", "/a", StatusCode::OK, SimDuration::from_micros(120));
        gw.record_request(T(10), svc(), "GET", "/b", StatusCode::SERVICE_UNAVAILABLE, SimDuration::from_micros(80));
        gw.record_request(T(20), svc(), "POST", "/c", StatusCode::OK, SimDuration::from_micros(100));
        let seen: Vec<(SimTime, &str, u16, &str)> =
            gw.entries().map(|(e, path)| (e.at, e.method, e.status.0, path)).collect();
        assert_eq!(seen, [(T(0), "GET", 200, "/a"), (T(10), "GET", 503, "/b"), (T(20), "POST", 200, "/c")]);
    }
}
