//! The four data-plane architectures as placements of the same work.
//!
//! An architecture is a `Placement`: which stage runs each hop of one
//! request-response (proxy passes, redirects, the gateway's packet
//! pipeline, the app), where spans are recorded, and how many testbed cores
//! each stage gets. One walker, [`Mesh::request_steps`], prices every hop
//! from the [`CostModel`], so the same placement answers:
//!
//! * what [`Step`]s does one request-response traverse (→ latency, Figs.
//!   10/11, and emergent queueing knees),
//! * how much mesh CPU does one request burn and where (→ Fig. 13),
//! * how many cores of *background* burn does the proxy fleet cost (→
//!   Table 1, Fig. 13's low-RPS gap).
//!
//! Structural differences, straight from the paper (redirects per round
//! trip; passes and hops per direction):
//!
//! | | redirect | L4 passes | L7 passes | crypto | hops (one way) |
//! |---|---|---|---|---|---|
//! | Sidecar (Istio) | iptables ×2 | — | 2 (both sidecars) | software | 1 |
//! | Ambient | eBPF-ish ×2 | 2 ztunnels | 1 (waypoint) | software | 2 (via waypoint) |
//! | Canal | eBPF+Nagle ×2 | 2 on-node proxies | 1 (gateway) | key server | 2 (hairpin via gateway) |
//! | No mesh | — | — | — | — | 1 |

use crate::costs::CostModel;
use crate::path::{StageId, Step};
use canal_crypto::accel::{AsymmetricBackend, SoftwareBackend};
use canal_crypto::keyserver::{KeyServerPlacement, RemoteKeyServerBackend};
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

/// What one hop of a request path does. An L4 pass with `ebpf` sits behind
/// an eBPF socket redirect on the client node.
#[derive(Debug, Clone, Copy)]
enum Work {
    /// The server application.
    App,
    /// An iptables redirect into a sidecar (Fig. 21).
    Iptables,
    /// One slot of the gateway VM's packet-pipeline pps budget: a serial
    /// resource in front of the worker cores, what caps Canal's Fig. 11 knee.
    Pipeline,
    /// An L7 pass through a per-pod sidecar, which also runs mTLS (Istio).
    Sidecar,
    /// An L4 pass through a per-node ztunnel, which runs mTLS (Ambient).
    Ztunnel { ebpf: bool },
    /// An L7 pass through a per-service waypoint (Ambient).
    Waypoint,
    /// An L4 pass through Canal's on-node proxy, which runs mTLS.
    NodeProxy { ebpf: bool },
    /// An L7 pass through Canal's shared multi-tenant gateway.
    Gateway,
}

/// One hop of a placement: a one-way network hop, or work on a CPU stage.
#[derive(Debug, Clone, Copy)]
enum Hop {
    Wire,
    On(StageId, Work),
}

/// Where an architecture runs each piece of one request-response's work.
struct Placement {
    /// Stage whose CPU drives a new connection's mTLS handshake.
    handshake: Option<StageId>,
    /// Hops from the client app up to and including the server app.
    request: &'static [Hop],
    /// Hops from the server app back to the client app.
    response: &'static [Hop],
    /// Span-recording sites, each with whether it records a rich L7 span.
    telemetry: &'static [(StageId, bool)],
    /// Testbed cores per stage (Fig. 13's "4 cores total" setup).
    cores: &'static [(StageId, usize)],
}

/// Istio: iptables into a sidecar on both ends, two L7 passes per direction,
/// and the rich span recorded at both pods. The sidecars share 2+2 cores.
const SIDECAR: Placement = Placement {
    handshake: Some(StageId::ClientSidecar),
    request: &[
        Hop::On(StageId::ClientSidecar, Work::Iptables),
        Hop::On(StageId::ClientSidecar, Work::Sidecar),
        Hop::Wire,
        Hop::On(StageId::ServerSidecar, Work::Iptables),
        Hop::On(StageId::ServerSidecar, Work::Sidecar),
        Hop::On(StageId::App, Work::App),
    ],
    response: &[
        Hop::On(StageId::ServerSidecar, Work::Sidecar),
        Hop::Wire,
        Hop::On(StageId::ClientSidecar, Work::Sidecar),
    ],
    telemetry: &[(StageId::ClientSidecar, true), (StageId::ServerSidecar, true)],
    cores: &[(StageId::ClientSidecar, 2), (StageId::ServerSidecar, 2), (StageId::App, 4)],
};

/// Ambient: eBPF into the client ztunnel, the waypoint's one L7 pass, the
/// server ztunnel; cheap L4 stamps at the ztunnels, one rich span at the
/// waypoint. 2 cores for the L4 proxies, 2 for L7.
const AMBIENT: Placement = Placement {
    handshake: Some(StageId::ClientZtunnel),
    request: &[
        Hop::On(StageId::ClientZtunnel, Work::Ztunnel { ebpf: true }),
        Hop::Wire,
        Hop::On(StageId::Waypoint, Work::Waypoint),
        Hop::Wire,
        Hop::On(StageId::ServerZtunnel, Work::Ztunnel { ebpf: false }),
        Hop::On(StageId::App, Work::App),
    ],
    response: &[
        Hop::On(StageId::ServerZtunnel, Work::Ztunnel { ebpf: false }),
        Hop::Wire,
        Hop::On(StageId::Waypoint, Work::Waypoint),
        Hop::Wire,
        Hop::On(StageId::ClientZtunnel, Work::Ztunnel { ebpf: true }),
    ],
    telemetry: &[
        (StageId::ClientZtunnel, false),
        (StageId::ServerZtunnel, false),
        (StageId::Waypoint, true),
    ],
    cores: &[
        (StageId::ClientZtunnel, 1),
        (StageId::ServerZtunnel, 1),
        (StageId::Waypoint, 2),
        (StageId::App, 4),
    ],
};

/// Canal: eBPF (+Nagle) into the on-node proxy, a hairpin through the shared
/// gateway's packet pipeline and its one L7 pass, the server's node proxy;
/// cheap L4 stamps at the node proxies, one rich span at the gateway (§4.1.1:
/// centralized observability). 2 cores for the node proxies, 2 for the
/// gateway.
const CANAL: Placement = Placement {
    handshake: Some(StageId::ClientNodeProxy),
    request: &[
        Hop::On(StageId::ClientNodeProxy, Work::NodeProxy { ebpf: true }),
        Hop::Wire,
        Hop::On(StageId::GatewayPipeline, Work::Pipeline),
        Hop::On(StageId::GatewayBackend, Work::Gateway),
        Hop::Wire,
        Hop::On(StageId::ServerNodeProxy, Work::NodeProxy { ebpf: false }),
        Hop::On(StageId::App, Work::App),
    ],
    response: &[
        Hop::On(StageId::ServerNodeProxy, Work::NodeProxy { ebpf: false }),
        Hop::Wire,
        Hop::On(StageId::GatewayBackend, Work::Gateway),
        Hop::Wire,
        Hop::On(StageId::ClientNodeProxy, Work::NodeProxy { ebpf: true }),
    ],
    telemetry: &[
        (StageId::ClientNodeProxy, false),
        (StageId::ServerNodeProxy, false),
        (StageId::GatewayBackend, true),
    ],
    cores: &[
        (StageId::ClientNodeProxy, 1),
        (StageId::ServerNodeProxy, 1),
        (StageId::GatewayBackend, 2),
        (StageId::GatewayPipeline, 1),
        (StageId::App, 4),
    ],
};

/// No mesh: one wire hop each way to the app, no handshake, no recording.
const NO_MESH: Placement = Placement {
    handshake: None,
    request: &[Hop::Wire, Hop::On(StageId::App, Work::App)],
    response: &[Hop::Wire],
    telemetry: &[],
    cores: &[(StageId::App, 4)],
};

fn placement(kind: Architecture) -> &'static Placement {
    match kind {
        Architecture::NoMesh => &NO_MESH,
        Architecture::Sidecar => &SIDECAR,
        Architecture::Ambient => &AMBIENT,
        Architecture::Canal => &CANAL,
    }
}

/// A mesh data plane: an architecture's placement priced by one cost model,
/// with the asymmetric backend its handshakes complete on.
pub struct Mesh {
    kind: Architecture,
    costs: CostModel,
    asym: Box<dyn AsymmetricBackend + Send>,
}

impl Mesh {
    /// Architecture name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The step plan of one request-response round trip: the handshake of
    /// a new connection, the request and response hops, then the span
    /// recording of a sampled trace.
    pub fn request_steps(&self, ctx: &RequestCtx) -> Vec<Step> {
        let p = placement(self.kind);
        let mut steps = Vec::new();
        if let Some(stage) = p.handshake.filter(|_| ctx.new_connection) {
            // Node CPU to drive the handshake (marshalling / software crypto,
            // or a resumed ticket's symmetric decrypt).
            steps.push(Step::cpu(stage, self.asym.node_cpu_cost()));
            // Completion latency of the asymmetric step (batch wait, RTT...).
            // A resumed session consumes no batch slot and no key-server
            // round trip, so the accelerator sees none of its handshake.
            if !ctx.resumed {
                steps.push(Step::wire(self.asym.completion(ctx.concurrent_new_connections)));
            }
        }
        let request = p.request.iter().map(|&hop| self.price(hop, ctx.https, ctx.req_bytes, false));
        let response = p.response.iter().map(|&hop| self.price(hop, ctx.https, ctx.resp_bytes, true));
        steps.extend(request.chain(response));
        // Telemetry is not free: a sampled trace charges span-recording CPU
        // at every recording site.
        if ctx.trace_sampled() {
            let sites = p.telemetry.iter();
            steps.extend(sites.map(|&(stage, l7)| Step::cpu(stage, self.costs.telemetry_record_cpu(l7))));
        }
        steps
    }

    /// One hop's step, carrying `bytes` of payload in the request or the
    /// response direction. mTLS ciphers the payload where the session ends
    /// (sidecar, ztunnel, node proxy); an L7 pass copies it.
    fn price(&self, hop: Hop, https: bool, bytes: usize, response: bool) -> Step {
        let c = &self.costs;
        let Hop::On(stage, work) = hop else {
            return Step::wire(c.hop_one_way);
        };
        let sym = if https { c.sym_crypto_cost(bytes) } else { SimDuration::ZERO };
        let redirect = |ebpf| if ebpf { c.ebpf_redirect } else { SimDuration::ZERO };
        let l7 = |request, resp| (if response { resp } else { request }) + c.copy_cost(bytes);
        match work {
            Work::App => Step::cpu(stage, c.app_service),
            Work::Iptables => Step::cpu(stage, c.iptables_redirect()),
            Work::Pipeline => Step::cpu(stage, SimDuration::from_secs_f64(1.0 / c.gateway_pipeline_rps_cap)),
            Work::Sidecar => Step::cpu(stage, l7(c.sidecar_cpu_request, c.sidecar_cpu_response) + sym),
            Work::Ztunnel { ebpf } => Step::cpu(stage, redirect(ebpf) + c.ztunnel_cpu_per_pass + sym),
            Work::NodeProxy { ebpf } => Step::cpu(stage, redirect(ebpf) + c.node_proxy_cpu_per_pass + sym),
            Work::Waypoint => {
                let cpu = l7(c.waypoint_cpu_request, c.waypoint_cpu_response);
                Step::cpu_with_overhead(stage, cpu, c.waypoint_pass_overhead)
            }
            Work::Gateway => {
                let cpu = l7(c.gateway_cpu_request, c.gateway_cpu_response);
                Step::cpu_with_overhead(stage, cpu, c.gateway_pass_overhead)
            }
        }
    }

    /// Testbed core allocation per stage (Fig. 13's "4 cores total" setup:
    /// 2+2 for Ambient and Canal, sidecars sharing 2+2).
    pub fn stage_cores(&self) -> &'static [(StageId, usize)] {
        placement(self.kind).cores
    }

    /// Mesh CPU burned per request on an established connection: the CPU
    /// of every step of the plan except the app's and the gateway VM's
    /// packet pipeline (a pps budget, not cores), priced where the plan
    /// prices it.
    pub fn mesh_cpu_per_request(&self, ctx: &RequestCtx) -> SimDuration {
        let established = RequestCtx { new_connection: false, ..*ctx };
        let mesh = |s: &&Step| s.stage.is_some_and(|st| !matches!(st, StageId::App | StageId::GatewayPipeline));
        let steps = self.request_steps(&established);
        steps.iter().filter(mesh).fold(SimDuration::ZERO, |acc, s| acc + s.cpu)
    }

    /// Idle/background cores the proxy fleet burns for a cluster: a sidecar
    /// per pod; a ztunnel per node and a waypoint per service; a node proxy
    /// per node and one shared gateway.
    pub fn background_cores(&self, cluster: &ClusterShape) -> f64 {
        let c = &self.costs;
        match self.kind {
            Architecture::NoMesh => 0.0,
            Architecture::Sidecar => cluster.pods as f64 * c.sidecar_background_cores_per_pod,
            Architecture::Ambient => {
                cluster.nodes as f64 * c.ztunnel_background_cores
                    + cluster.services as f64 * c.waypoint_background_cores
            }
            Architecture::Canal => {
                cluster.nodes as f64 * c.node_proxy_background_cores + c.gateway_background_cores
            }
        }
    }
}

/// Construct an architecture by kind with default crypto backends: software
/// asymmetric crypto at the sidecars and ztunnels, the remote key server in
/// the local AZ for Canal (§4.1.3).
pub fn build(kind: Architecture, costs: CostModel) -> Mesh {
    let asym: Box<dyn AsymmetricBackend + Send> = match kind {
        Architecture::Canal => Box::new(RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz)),
        _ => Box::new(SoftwareBackend::default()),
    };
    Mesh { kind, costs, asym }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathExecutor;
    use std::collections::BTreeSet;

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

    /// Every placement cores exactly the stages its hops and recording
    /// sites name (`PathExecutor::run` runs an uncored stage as
    /// uncontended, so a stray stage would pass unnoticed), and holds the
    /// module doc's structural table per direction.
    #[test]
    fn placements_core_the_stages_they_name_and_hold_the_structural_table() {
        // (architecture, L7 passes, L4 passes, one-way wire hops) per direction.
        for (kind, l7, l4, wires) in [
            (Architecture::Sidecar, 2, 0, 1),
            (Architecture::Ambient, 1, 2, 2),
            (Architecture::Canal, 1, 2, 2),
            (Architecture::NoMesh, 0, 0, 1),
        ] {
            let p = placement(kind);
            let mut named: BTreeSet<StageId> = p.handshake.into_iter().collect();
            named.extend(p.telemetry.iter().map(|&(stage, _)| stage));
            for hops in [p.request, p.response] {
                let count = |pick: fn(&Hop) -> bool| hops.iter().filter(|h| pick(h)).count();
                let l7_pass = |h: &Hop| matches!(h, Hop::On(_, Work::Sidecar | Work::Waypoint | Work::Gateway));
                let l4_pass = |h: &Hop| matches!(h, Hop::On(_, Work::Ztunnel { .. } | Work::NodeProxy { .. }));
                assert_eq!(count(l7_pass), l7, "{}: L7 passes", kind.name());
                assert_eq!(count(l4_pass), l4, "{}: L4 passes", kind.name());
                assert_eq!(count(|h| matches!(h, Hop::Wire)), wires, "{}: wire hops", kind.name());
                for &hop in hops {
                    let Hop::On(stage, _) = hop else { continue };
                    named.insert(stage);
                }
            }
            let cored: BTreeSet<StageId> = p.cores.iter().map(|&(stage, _)| stage).collect();
            assert_eq!(named, cored, "{}: named stages against cored stages", kind.name());
        }
    }

    #[test]
    fn new_https_connection_pays_handshake() {
        let arch = build(Architecture::Canal, CostModel::default());
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
        let canal = build(Architecture::Canal, CostModel::default());
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
        let canal = build(Architecture::Canal, CostModel::default());
        let lone = PathExecutor::unloaded_latency(&canal.request_steps(&RequestCtx::new_https(1)));
        let many = PathExecutor::unloaded_latency(&canal.request_steps(&RequestCtx::new_https(64)));
        assert_eq!(lone, many);
        // Sidecar with a local batch accelerator shows the bubble.
        let mut sc = build(Architecture::Sidecar, CostModel::default());
        sc.asym = Box::new(canal_crypto::accel::LocalBatchBackend::default());
        let lone = PathExecutor::unloaded_latency(&sc.request_steps(&RequestCtx::new_https(1)));
        let many = PathExecutor::unloaded_latency(&sc.request_steps(&RequestCtx::new_https(64)));
        assert!(lone > many);
    }

    #[test]
    fn background_burn_ordering() {
        let shape = ClusterShape::production(450);
        let cores = |kind| build(kind, CostModel::default()).background_cores(&shape);
        let istio = cores(Architecture::Sidecar);
        let ambient = cores(Architecture::Ambient);
        let canal = cores(Architecture::Canal);
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
        let arch = build(Architecture::Ambient, CostModel::default());
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

    #[test]
    fn build_covers_all_kinds() {
        for kind in Architecture::ALL {
            let arch = build(kind, CostModel::default());
            assert_eq!(arch.kind, kind);
            assert!(!arch.request_steps(&RequestCtx::light()).is_empty());
        }
    }
}
