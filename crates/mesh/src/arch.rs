//! The three data-plane architectures as step-plan builders.
//!
//! Each architecture answers the same questions:
//!
//! * what [`Step`]s does one request-response traverse (→ latency, Figs.
//!   10/11, and emergent queueing knees),
//! * how much mesh CPU does one request burn and where (→ Fig. 13),
//! * how many cores of *background* burn does the proxy fleet cost (→
//!   Table 1, Fig. 13's low-RPS gap),
//! * how many proxies must the control plane configure (→ Figs. 4/14/15).
//!
//! Structural differences, straight from the paper:
//!
//! | | redirect | L4 passes | L7 passes | crypto | hops (one way) |
//! |---|---|---|---|---|---|
//! | Sidecar (Istio) | iptables ×2 | — | 2 (both sidecars) | software | 1 |
//! | Ambient | eBPF-ish ×2 | 2 ztunnels | 1 (waypoint) | software | 2 (via waypoint) |
//! | Canal | eBPF+Nagle ×2 | 2 on-node proxies | 1 (gateway) | key server | 2 (hairpin via gateway) |

use crate::costs::CostModel;
use crate::path::{StageId, Step};
use canal_crypto::accel::AsymmetricBackend;
use canal_net::{Priority, TraceContext};
use canal_sim::SimDuration;

/// Which architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// Direct client→server, no mesh (the Fig. 10 baseline).
    NoMesh,
    /// Per-pod sidecars (Istio-like).
    Sidecar,
    /// Per-node L4 + per-service L7 (Ambient-like).
    Ambient,
    /// On-node proxy + centralized multi-tenant gateway (Canal).
    Canal,
}

impl Architecture {
    /// All four, in presentation order.
    pub const ALL: [Architecture; 4] = [
        Architecture::NoMesh,
        Architecture::Sidecar,
        Architecture::Ambient,
        Architecture::Canal,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::NoMesh => "no-mesh",
            Architecture::Sidecar => "istio-sidecar",
            Architecture::Ambient => "ambient",
            Architecture::Canal => "canal",
        }
    }
}

/// Per-request context for step planning.
#[derive(Debug, Clone, Copy)]
pub struct RequestCtx {
    /// First request of a new connection (pays the mTLS handshake).
    pub new_connection: bool,
    /// The new connection resumes a cached session ticket: the handshake
    /// is symmetric-only, so the asymmetric completion step (batch wait /
    /// key-server RTT) is skipped entirely. Only meaningful with
    /// `new_connection`.
    pub resumed: bool,
    /// HTTPS (symmetric crypto on payloads; HTTPS costs ≈3× HTTP per §6.3).
    pub https: bool,
    /// Request payload bytes.
    pub req_bytes: usize,
    /// Response payload bytes.
    pub resp_bytes: usize,
    /// Concurrently arriving new connections (drives the Fig. 25 batch
    /// bubble for local acceleration).
    pub concurrent_new_connections: usize,
    /// Scheduling class the on-node proxy stamped on the request; the
    /// gateway's overload layer keys its fair queues on this.
    pub priority: Priority,
    /// Trace context stamped at the root, carried hop to hop. When present
    /// and sampled, every recording site on the path charges its
    /// span-recording CPU into the step plan (telemetry is not free).
    pub trace: Option<TraceContext>,
}

impl RequestCtx {
    /// An established-connection HTTP request with small payloads (the
    /// light-workload shape of Fig. 10).
    pub fn light() -> Self {
        RequestCtx {
            new_connection: false,
            resumed: false,
            https: false,
            req_bytes: 256,
            resp_bytes: 1024,
            concurrent_new_connections: 1,
            priority: Priority::Interactive,
            trace: None,
        }
    }

    /// A fresh HTTPS connection (pays the handshake).
    pub fn new_https(concurrent: usize) -> Self {
        RequestCtx {
            new_connection: true,
            resumed: false,
            https: true,
            req_bytes: 256,
            resp_bytes: 1024,
            concurrent_new_connections: concurrent,
            priority: Priority::Interactive,
            trace: None,
        }
    }

    /// A fresh HTTPS connection resuming a cached session ticket: it still
    /// opens a connection, but the handshake skips the asymmetric step.
    pub fn resumed_https(concurrent: usize) -> Self {
        let mut ctx = RequestCtx::new_https(concurrent);
        ctx.resumed = true;
        ctx
    }

    /// Whether the carried trace context asks sites to record spans.
    pub(crate) fn trace_sampled(&self) -> bool {
        self.trace.is_some_and(|t| t.sampled)
    }
}

/// Cluster shape for proxy-count and control-plane accounting: the pod,
/// node and service counts every experiment prices its proxies and pushes
/// by.
#[derive(Debug, Clone, Copy)]
pub struct ClusterShape {
    /// Pod count.
    pub pods: usize,
    /// Node count.
    pub nodes: usize,
    /// Service count.
    pub services: usize,
}

impl ClusterShape {
    /// The paper's production ratios (§2.2: pods:nodes ≈ 15:1,
    /// pods:services ≈ 2:1) applied to a pod count.
    pub fn production(pods: usize) -> Self {
        ClusterShape {
            pods,
            nodes: (pods / 15).max(1),
            services: (pods / 2).max(1),
        }
    }

    /// The paper's testbed (§5.1): 2 worker nodes, 15 pods each, 3
    /// services.
    pub fn paper_testbed() -> Self {
        ClusterShape {
            pods: 30,
            nodes: 2,
            services: 3,
        }
    }
}

/// A mesh data-plane architecture.
pub trait MeshArchitecture {
    /// Which variant this is.
    fn kind(&self) -> Architecture;

    /// The step plan of one request-response round trip.
    fn request_steps(&self, ctx: &RequestCtx) -> Vec<Step>;

    /// Testbed core allocation per stage (Fig. 13's “4 cores total” setup:
    /// 2+2 for Ambient and Canal, sidecars sharing 2+2).
    fn stage_cores(&self) -> Vec<(StageId, usize)>;

    /// Mesh CPU burned per request on an established connection: the CPU
    /// of every step of the plan except the app's and the gateway VM's
    /// packet pipeline (a pps budget, not cores), priced where the plan
    /// prices it.
    fn mesh_cpu_per_request(&self, ctx: &RequestCtx) -> SimDuration {
        let established = RequestCtx {
            new_connection: false,
            ..*ctx
        };
        self.request_steps(&established)
            .iter()
            .filter(|s| {
                s.stage
                    .is_some_and(|st| !matches!(st, StageId::App | StageId::GatewayPipeline))
            })
            .fold(SimDuration::ZERO, |acc, s| acc + s.cpu)
    }

    /// Idle/background cores the proxy fleet burns for a cluster.
    fn background_cores(&self, cluster: &ClusterShape) -> f64;

    /// Number of proxies the control plane must configure.
    fn config_targets(&self, cluster: &ClusterShape) -> usize;

    /// Architecture name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }
}

fn handshake_steps(
    ctx: &RequestCtx,
    backend: &dyn AsymmetricBackend,
    node_stage: StageId,
) -> Vec<Step> {
    if !ctx.new_connection {
        return Vec::new();
    }
    if ctx.resumed {
        // Session resumption: the ticket decrypt is symmetric node work;
        // no batch slot is consumed and no key-server round trip happens,
        // so the accelerator sees none of this handshake.
        return vec![Step::cpu(node_stage, backend.node_cpu_cost())];
    }
    vec![
        // Node CPU to drive the handshake (marshalling / software crypto).
        Step::cpu(node_stage, backend.node_cpu_cost()),
        // Completion latency of the asymmetric step (batch wait, RTT...).
        Step::wire(backend.completion(ctx.concurrent_new_connections)),
    ]
}

/// Sidecar recording sites: the rich L7 span price at *two* pods per request.
const SIDECAR_TELEMETRY_SITES: [(StageId, bool); 2] = [
    (StageId::ClientSidecar, true),
    (StageId::ServerSidecar, true),
];

/// Ambient recording sites: cheap L4 stamps at the ztunnels, one rich span
/// at the waypoint.
const AMBIENT_TELEMETRY_SITES: [(StageId, bool); 3] = [
    (StageId::ClientZtunnel, false),
    (StageId::ServerZtunnel, false),
    (StageId::Waypoint, true),
];

/// Canal recording sites: cheap L4 stamps at the node proxies, one rich span
/// at the shared gateway (§4.1.1: centralized observability).
const CANAL_TELEMETRY_SITES: [(StageId, bool); 3] = [
    (StageId::ClientNodeProxy, false),
    (StageId::ServerNodeProxy, false),
    (StageId::GatewayBackend, true),
];

/// Per-pod-sidecar architecture (Istio-like).
pub struct SidecarMesh {
    /// Cost constants.
    pub costs: CostModel,
    /// Asymmetric crypto backend (software, unless QAT-enabled nodes).
    pub asym: Box<dyn AsymmetricBackend + Send>,
}

impl SidecarMesh {
    /// Default: software crypto (the common case the paper measures).
    pub fn new(costs: CostModel) -> Self {
        SidecarMesh {
            costs,
            asym: Box::new(canal_crypto::accel::SoftwareBackend::default()),
        }
    }
}

fn sym_cost(costs: &CostModel, ctx: &RequestCtx, bytes: usize) -> SimDuration {
    if ctx.https {
        costs.sym_crypto_cost(bytes)
    } else {
        SimDuration::ZERO
    }
}

/// Span-recording CPU at each of the architecture's recording sites, charged
/// only when the propagated trace context says the trace is sampled. `sites`
/// lists (stage, records-rich-L7-span) pairs.
fn telemetry_steps(c: &CostModel, ctx: &RequestCtx, sites: &[(StageId, bool)]) -> Vec<Step> {
    if !ctx.trace_sampled() {
        return Vec::new();
    }
    sites
        .iter()
        .map(|&(stage, l7)| Step::cpu(stage, c.telemetry_record_cpu(l7)))
        .collect()
}

impl MeshArchitecture for SidecarMesh {
    fn kind(&self) -> Architecture {
        Architecture::Sidecar
    }

    fn request_steps(&self, ctx: &RequestCtx) -> Vec<Step> {
        let c = &self.costs;
        let mut steps = Vec::new();
        steps.extend(handshake_steps(ctx, self.asym.as_ref(), StageId::ClientSidecar));
        // --- request: app → iptables → client sidecar L7 → wire →
        //     iptables → server sidecar L7 → app ---
        steps.push(Step::cpu(StageId::ClientSidecar, c.iptables_redirect()));
        steps.push(Step::cpu(
            StageId::ClientSidecar,
            c.sidecar_cpu_request + c.copy_cost(ctx.req_bytes) + sym_cost(c, ctx, ctx.req_bytes),
        ));
        steps.push(Step::wire(c.hop_one_way));
        steps.push(Step::cpu(StageId::ServerSidecar, c.iptables_redirect()));
        steps.push(Step::cpu(
            StageId::ServerSidecar,
            c.sidecar_cpu_request + c.copy_cost(ctx.req_bytes) + sym_cost(c, ctx, ctx.req_bytes),
        ));
        steps.push(Step::cpu(StageId::App, c.app_service));
        // --- response: back through both sidecars ---
        steps.push(Step::cpu(
            StageId::ServerSidecar,
            c.sidecar_cpu_response + c.copy_cost(ctx.resp_bytes) + sym_cost(c, ctx, ctx.resp_bytes),
        ));
        steps.push(Step::wire(c.hop_one_way));
        steps.push(Step::cpu(
            StageId::ClientSidecar,
            c.sidecar_cpu_response + c.copy_cost(ctx.resp_bytes) + sym_cost(c, ctx, ctx.resp_bytes),
        ));
        steps.extend(telemetry_steps(c, ctx, &SIDECAR_TELEMETRY_SITES));
        steps
    }

    fn stage_cores(&self) -> Vec<(StageId, usize)> {
        vec![
            (StageId::ClientSidecar, 2),
            (StageId::ServerSidecar, 2),
            (StageId::App, 4),
        ]
    }

    fn background_cores(&self, cluster: &ClusterShape) -> f64 {
        cluster.pods as f64 * self.costs.sidecar_background_cores_per_pod
    }

    fn config_targets(&self, cluster: &ClusterShape) -> usize {
        cluster.pods // one sidecar per pod
    }
}

/// Ambient-like split-proxy architecture.
pub struct AmbientMesh {
    /// Cost constants.
    pub costs: CostModel,
    /// Asymmetric backend for ztunnel mTLS.
    pub asym: Box<dyn AsymmetricBackend + Send>,
}

impl AmbientMesh {
    /// Default: software crypto at the ztunnel.
    pub fn new(costs: CostModel) -> Self {
        AmbientMesh {
            costs,
            asym: Box::new(canal_crypto::accel::SoftwareBackend::default()),
        }
    }
}

impl MeshArchitecture for AmbientMesh {
    fn kind(&self) -> Architecture {
        Architecture::Ambient
    }

    fn request_steps(&self, ctx: &RequestCtx) -> Vec<Step> {
        let c = &self.costs;
        let mut steps = Vec::new();
        steps.extend(handshake_steps(ctx, self.asym.as_ref(), StageId::ClientZtunnel));
        // --- request: app → eBPF → ztunnel → wire → waypoint L7 → wire →
        //     ztunnel → app ---
        steps.push(Step::cpu(
            StageId::ClientZtunnel,
            c.ebpf_redirect + c.ztunnel_cpu_per_pass + sym_cost(c, ctx, ctx.req_bytes),
        ));
        steps.push(Step::wire(c.hop_one_way));
        steps.push(Step::cpu_with_overhead(
            StageId::Waypoint,
            c.waypoint_cpu_request + c.copy_cost(ctx.req_bytes),
            c.waypoint_pass_overhead,
        ));
        steps.push(Step::wire(c.hop_one_way));
        steps.push(Step::cpu(
            StageId::ServerZtunnel,
            c.ztunnel_cpu_per_pass + sym_cost(c, ctx, ctx.req_bytes),
        ));
        steps.push(Step::cpu(StageId::App, c.app_service));
        // --- response: back via the waypoint ---
        steps.push(Step::cpu(
            StageId::ServerZtunnel,
            c.ztunnel_cpu_per_pass + sym_cost(c, ctx, ctx.resp_bytes),
        ));
        steps.push(Step::wire(c.hop_one_way));
        steps.push(Step::cpu_with_overhead(
            StageId::Waypoint,
            c.waypoint_cpu_response + c.copy_cost(ctx.resp_bytes),
            c.waypoint_pass_overhead,
        ));
        steps.push(Step::wire(c.hop_one_way));
        steps.push(Step::cpu(
            StageId::ClientZtunnel,
            c.ebpf_redirect + c.ztunnel_cpu_per_pass + sym_cost(c, ctx, ctx.resp_bytes),
        ));
        steps.extend(telemetry_steps(c, ctx, &AMBIENT_TELEMETRY_SITES));
        steps
    }

    fn stage_cores(&self) -> Vec<(StageId, usize)> {
        // Fig. 13 setup: 2 cores for L4 proxies, 2 for L7.
        vec![
            (StageId::ClientZtunnel, 1),
            (StageId::ServerZtunnel, 1),
            (StageId::Waypoint, 2),
            (StageId::App, 4),
        ]
    }

    fn background_cores(&self, cluster: &ClusterShape) -> f64 {
        cluster.nodes as f64 * self.costs.ztunnel_background_cores
            + cluster.services as f64 * self.costs.waypoint_background_cores
    }

    fn config_targets(&self, cluster: &ClusterShape) -> usize {
        cluster.nodes + cluster.services // L4 per node + L7 per service
    }
}

/// The Canal architecture: on-node proxies + centralized multi-tenant
/// gateway + key server.
pub struct CanalMesh {
    /// Cost constants.
    pub costs: CostModel,
    /// Asymmetric backend (default: the remote key server, §4.1.3).
    pub asym: Box<dyn AsymmetricBackend + Send>,
}

impl CanalMesh {
    /// Default: remote key server in the local AZ.
    pub fn new(costs: CostModel) -> Self {
        CanalMesh {
            costs,
            asym: Box::new(canal_crypto::keyserver::RemoteKeyServerBackend::new(
                canal_crypto::keyserver::KeyServerPlacement::LocalAz,
            )),
        }
    }
}

impl MeshArchitecture for CanalMesh {
    fn kind(&self) -> Architecture {
        Architecture::Canal
    }

    fn request_steps(&self, ctx: &RequestCtx) -> Vec<Step> {
        let c = &self.costs;
        let mut steps = Vec::new();
        steps.extend(handshake_steps(ctx, self.asym.as_ref(), StageId::ClientNodeProxy));
        // --- request: app → eBPF(+Nagle) → on-node proxy → hairpin to the
        //     gateway → gateway L7 → server node proxy → app ---
        steps.push(Step::cpu(
            StageId::ClientNodeProxy,
            c.ebpf_redirect + c.node_proxy_cpu_per_pass + sym_cost(c, ctx, ctx.req_bytes),
        ));
        steps.push(Step::wire(c.hop_one_way));
        // The VM's packet pipeline is a serial pps budget in front of the
        // worker cores (what actually caps the Fig. 11 knee for Canal).
        steps.push(Step::cpu(
            StageId::GatewayPipeline,
            SimDuration::from_secs_f64(1.0 / c.gateway_pipeline_rps_cap),
        ));
        steps.push(Step::cpu_with_overhead(
            StageId::GatewayBackend,
            c.gateway_cpu_request + c.copy_cost(ctx.req_bytes),
            c.gateway_pass_overhead,
        ));
        steps.push(Step::wire(c.hop_one_way));
        steps.push(Step::cpu(
            StageId::ServerNodeProxy,
            c.node_proxy_cpu_per_pass + sym_cost(c, ctx, ctx.req_bytes),
        ));
        steps.push(Step::cpu(StageId::App, c.app_service));
        // --- response: hairpins back through the gateway ---
        steps.push(Step::cpu(
            StageId::ServerNodeProxy,
            c.node_proxy_cpu_per_pass + sym_cost(c, ctx, ctx.resp_bytes),
        ));
        steps.push(Step::wire(c.hop_one_way));
        steps.push(Step::cpu_with_overhead(
            StageId::GatewayBackend,
            c.gateway_cpu_response + c.copy_cost(ctx.resp_bytes),
            c.gateway_pass_overhead,
        ));
        steps.push(Step::wire(c.hop_one_way));
        steps.push(Step::cpu(
            StageId::ClientNodeProxy,
            c.ebpf_redirect + c.node_proxy_cpu_per_pass + sym_cost(c, ctx, ctx.resp_bytes),
        ));
        steps.extend(telemetry_steps(c, ctx, &CANAL_TELEMETRY_SITES));
        steps
    }

    fn stage_cores(&self) -> Vec<(StageId, usize)> {
        // Fig. 13 setup: 2 cores for on-node proxies, 2 for the gateway.
        vec![
            (StageId::ClientNodeProxy, 1),
            (StageId::ServerNodeProxy, 1),
            (StageId::GatewayBackend, 2),
            (StageId::GatewayPipeline, 1),
            (StageId::App, 4),
        ]
    }

    fn background_cores(&self, cluster: &ClusterShape) -> f64 {
        cluster.nodes as f64 * self.costs.node_proxy_background_cores
            + self.costs.gateway_background_cores
    }

    fn config_targets(&self, _cluster: &ClusterShape) -> usize {
        // Traffic-control config goes only to the centralized gateway; the
        // on-node proxies hold minimal security/observability config that
        // rarely changes (§4.1.1).
        1
    }
}

/// The no-mesh baseline.
pub(crate) struct NoMesh {
    /// Cost constants (hop + app only).
    pub costs: CostModel,
}

impl MeshArchitecture for NoMesh {
    fn kind(&self) -> Architecture {
        Architecture::NoMesh
    }

    fn request_steps(&self, ctx: &RequestCtx) -> Vec<Step> {
        let c = &self.costs;
        let _ = ctx;
        vec![
            Step::wire(c.hop_one_way),
            Step::cpu(StageId::App, c.app_service),
            Step::wire(c.hop_one_way),
        ]
    }

    fn stage_cores(&self) -> Vec<(StageId, usize)> {
        vec![(StageId::App, 4)]
    }

    fn background_cores(&self, _cluster: &ClusterShape) -> f64 {
        0.0
    }

    fn config_targets(&self, _cluster: &ClusterShape) -> usize {
        0
    }
}

/// Construct an architecture by kind with default crypto backends.
pub fn build(kind: Architecture, costs: CostModel) -> Box<dyn MeshArchitecture + Send> {
    match kind {
        Architecture::NoMesh => Box::new(NoMesh { costs }),
        Architecture::Sidecar => Box::new(SidecarMesh::new(costs)),
        Architecture::Ambient => Box::new(AmbientMesh::new(costs)),
        Architecture::Canal => Box::new(CanalMesh::new(costs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathExecutor;

    fn unloaded(kind: Architecture, ctx: &RequestCtx) -> f64 {
        let arch = build(kind, CostModel::default());
        PathExecutor::unloaded_latency(&arch.request_steps(ctx)).as_micros_f64()
    }

    #[test]
    fn fig10_latency_ordering_and_ratios() {
        let ctx = RequestCtx::light();
        let no_mesh = unloaded(Architecture::NoMesh, &ctx);
        let canal = unloaded(Architecture::Canal, &ctx);
        let ambient = unloaded(Architecture::Ambient, &ctx);
        let istio = unloaded(Architecture::Sidecar, &ctx);
        // Ordering: no-mesh < Canal < Ambient < Istio (Fig. 10).
        assert!(no_mesh < canal && canal < ambient && ambient < istio);
        // Ratios: Istio ≈1.7x Canal, Ambient ≈1.3x Canal.
        let r_istio = istio / canal;
        let r_ambient = ambient / canal;
        assert!((1.5..=1.9).contains(&r_istio), "istio/canal = {r_istio}");
        assert!((1.15..=1.45).contains(&r_ambient), "ambient/canal = {r_ambient}");
    }

    #[test]
    fn sidecar_visits_l7_twice_but_canal_once() {
        let ctx = RequestCtx::light();
        let sidecar = SidecarMesh::new(CostModel::default());
        let canal = CanalMesh::new(CostModel::default());
        let count = |steps: &[Step], stage: StageId| {
            steps.iter().filter(|s| s.stage == Some(stage)).count()
        };
        let s = sidecar.request_steps(&ctx);
        // Client sidecar: redirect + request pass + response pass.
        assert_eq!(count(&s, StageId::ClientSidecar), 3);
        assert_eq!(count(&s, StageId::ServerSidecar), 3);
        let c = canal.request_steps(&ctx);
        assert_eq!(count(&c, StageId::GatewayBackend), 2); // req + resp pass
    }

    #[test]
    fn new_https_connection_pays_handshake() {
        let arch = CanalMesh::new(CostModel::default());
        let light = PathExecutor::unloaded_latency(&arch.request_steps(&RequestCtx::light()));
        let fresh =
            PathExecutor::unloaded_latency(&arch.request_steps(&RequestCtx::new_https(8)));
        // Key-server handshake adds ≈1.7ms.
        let delta = (fresh - light).as_micros_f64();
        assert!((1600.0..2200.0).contains(&delta), "{delta}");
    }

    #[test]
    fn resumed_handshake_skips_the_asymmetric_step() {
        for kind in [Architecture::Sidecar, Architecture::Ambient, Architecture::Canal] {
            let arch = build(kind, CostModel::default());
            let established =
                PathExecutor::unloaded_latency(&arch.request_steps(&RequestCtx::light()));
            let full = PathExecutor::unloaded_latency(&arch.request_steps(&RequestCtx::new_https(8)));
            let resumed =
                PathExecutor::unloaded_latency(&arch.request_steps(&RequestCtx::resumed_https(8)));
            assert!(
                resumed < full,
                "{}: resumption must be cheaper than a full handshake",
                arch.name()
            );
            assert!(
                resumed > established,
                "{}: resumption still opens a connection (node CPU)",
                arch.name()
            );
        }
        // A resumed Canal handshake pays no key-server RTT at all: the gap
        // to an established connection is pure node CPU (≤ the software
        // handshake cost), nowhere near the ≈1.7ms key-server round trip.
        let canal = CanalMesh::new(CostModel::default());
        let established =
            PathExecutor::unloaded_latency(&canal.request_steps(&RequestCtx::light()));
        let resumed =
            PathExecutor::unloaded_latency(&canal.request_steps(&RequestCtx::resumed_https(64)));
        let delta = (resumed - established).as_micros_f64();
        assert!(delta < 500.0, "resumed handshake costs {delta}µs over established");
    }

    #[test]
    fn handshake_concurrency_matters_for_sidecar_but_not_canal() {
        // Canal's key server is flat; a QAT sidecar would batch-bubble.
        let canal = CanalMesh::new(CostModel::default());
        let lone = PathExecutor::unloaded_latency(&canal.request_steps(&RequestCtx::new_https(1)));
        let many = PathExecutor::unloaded_latency(&canal.request_steps(&RequestCtx::new_https(64)));
        assert_eq!(lone, many);
        // Sidecar with a local batch accelerator shows the bubble.
        let mut sc = SidecarMesh::new(CostModel::default());
        sc.asym = Box::new(canal_crypto::accel::LocalBatchBackend::default());
        let lone = PathExecutor::unloaded_latency(&sc.request_steps(&RequestCtx::new_https(1)));
        let many = PathExecutor::unloaded_latency(&sc.request_steps(&RequestCtx::new_https(64)));
        assert!(lone > many);
    }

    #[test]
    fn config_targets_shrink_down_the_decoupling_ladder() {
        let shape = ClusterShape::production(15_000);
        let istio = SidecarMesh::new(CostModel::default());
        let ambient = AmbientMesh::new(CostModel::default());
        let canal = CanalMesh::new(CostModel::default());
        assert_eq!(istio.config_targets(&shape), 15_000);
        assert_eq!(ambient.config_targets(&shape), 1000 + 7500);
        assert_eq!(canal.config_targets(&shape), 1);
        // §2.2: Ambient configures ≈43% fewer proxies than Istio.
        let reduction = 1.0 - ambient.config_targets(&shape) as f64 / 15_000.0;
        assert!((0.40..0.46).contains(&reduction), "{reduction}");
    }

    #[test]
    fn background_burn_ordering() {
        let shape = ClusterShape::production(450);
        let istio = SidecarMesh::new(CostModel::default()).background_cores(&shape);
        let ambient = AmbientMesh::new(CostModel::default()).background_cores(&shape);
        let canal = CanalMesh::new(CostModel::default()).background_cores(&shape);
        assert!(istio > ambient && ambient > canal);
    }

    #[test]
    fn per_request_cpu_ratios_land_in_paper_ranges() {
        // The proxies' own per-request CPU: a zero-byte HTTP request, so no
        // copy or cipher term is priced.
        let ctx = RequestCtx { req_bytes: 0, resp_bytes: 0, ..RequestCtx::light() };
        let cpu = |kind| {
            build(kind, CostModel::default()).mesh_cpu_per_request(&ctx).as_nanos() as f64
        };
        let istio = cpu(Architecture::Sidecar);
        let ambient = cpu(Architecture::Ambient);
        let canal = cpu(Architecture::Canal);
        // Fig. 13: Canal 12–19x below Istio, 4.6–7.2x below Ambient
        // (ranges include background burn; steady-state per-request ratios
        // must land close enough that background closes the gap).
        let istio_ratio = istio / canal;
        let ambient_ratio = ambient / canal;
        assert!(istio_ratio > 10.0 && istio_ratio < 22.0, "{istio_ratio}");
        assert!(ambient_ratio > 2.0 && ambient_ratio < 7.5, "{ambient_ratio}");
    }

    #[test]
    fn https_costs_more_than_http() {
        let arch = AmbientMesh::new(CostModel::default());
        let http = arch.mesh_cpu_per_request(&RequestCtx::light());
        let mut ctx = RequestCtx::light();
        ctx.https = true;
        ctx.req_bytes = 16 * 1024;
        ctx.resp_bytes = 64 * 1024;
        let https = arch.mesh_cpu_per_request(&ctx);
        assert!(https > http);
    }

    #[test]
    fn sampled_trace_charges_telemetry_and_canal_pays_less_than_sidecar() {
        use canal_net::TraceContext;
        let tc = TraceContext::root(99, true);
        let plain = RequestCtx::light();
        let traced = RequestCtx { trace: Some(tc), ..RequestCtx::light() };
        let unsampled = RequestCtx { trace: Some(TraceContext::root(99, false)), ..RequestCtx::light() };
        let mut extras = Vec::new();
        for kind in [Architecture::Sidecar, Architecture::Ambient, Architecture::Canal] {
            let arch = build(kind, CostModel::default());
            let base = arch.mesh_cpu_per_request(&plain);
            let with = arch.mesh_cpu_per_request(&traced);
            assert!(with > base, "{}: sampled trace must charge CPU", arch.name());
            assert_eq!(
                arch.mesh_cpu_per_request(&unsampled),
                base,
                "{}: unsampled trace is free",
                arch.name()
            );
            // The step plan carries the same charge.
            let step_extra = PathExecutor::unloaded_latency(&arch.request_steps(&traced))
                - PathExecutor::unloaded_latency(&arch.request_steps(&plain));
            assert_eq!(step_extra, with - base, "{}", arch.name());
            extras.push(with - base);
        }
        // §4.1.1: two rich sidecar spans cost more than canal's two L4
        // stamps + one gateway span.
        assert!(extras[2] < extras[0], "canal {:?} < sidecar {:?}", extras[2], extras[0]);
    }

    /// Every architecture's step plan and per-request mesh CPU over the
    /// request shapes the experiments use, folded into one value. Captured
    /// while each architecture still summed its mesh CPU by hand; any change
    /// to a step, its stage, its price or the CPU total moves it.
    const GOLDEN_PLANS: u64 = 0xc491_76d4_a856_fbe3;

    #[test]
    fn step_plans_and_mesh_cpu_match_the_golden_value() {
        use canal_net::TraceContext;
        use canal_sim::{Digest, Fold};
        let mut https_large = RequestCtx::light();
        https_large.https = true;
        https_large.req_bytes = 16 * 1024;
        https_large.resp_bytes = 64 * 1024;
        let contexts = [
            RequestCtx::light(),
            RequestCtx::new_https(1),
            RequestCtx::new_https(64),
            RequestCtx::resumed_https(8),
            https_large,
            RequestCtx { trace: Some(TraceContext::root(7, true)), ..RequestCtx::light() },
            RequestCtx { trace: Some(TraceContext::root(7, false)), ..RequestCtx::light() },
            RequestCtx { priority: Priority::Bulk, ..RequestCtx::light() },
        ];
        let mut d = Digest::new();
        for kind in Architecture::ALL {
            let arch = build(kind, CostModel::default());
            for ctx in &contexts {
                let steps = arch.request_steps(ctx);
                d.write_u64(steps.len() as u64);
                for s in &steps {
                    d.write_u64(s.stage.map_or(0, |stage| stage as u64 + 1));
                    d.write_u64(s.cpu.as_nanos()).write_u64(s.latency.as_nanos());
                }
                d.write_u64(arch.mesh_cpu_per_request(ctx).as_nanos());
            }
        }
        assert_eq!(d.value(), GOLDEN_PLANS, "{:#018x}", d.value());
    }

    #[test]
    fn build_covers_all_kinds() {
        for kind in Architecture::ALL {
            let arch = build(kind, CostModel::default());
            assert_eq!(arch.kind(), kind);
            assert!(!arch.request_steps(&RequestCtx::light()).is_empty());
        }
    }
}
