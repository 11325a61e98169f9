//! The composed Canal request path: the one place the stage order is
//! written down.
//!
//! Stages 1-4 run on the client node, 5-12 at the gateway. Each numbered
//! stage is one call (or one short run of calls) into a layer's public
//! functions, wrapped in a [`Tracer`] span; everything between two spans is
//! glue this file needs to hand one layer's output to the next, and shows
//! up as the root span's self time.

use crate::trace::{Stage, Tracer};
use bytes::Bytes;
use canal_crypto::ChaCha20;
use canal_gateway::gateway::{Gateway, GatewayConfig, GatewayServed};
use canal_gateway::tunnel::{disaggregate, SessionAggregator, TunnelConfig};
use canal_gateway::ActivePolicy;
use canal_http::{RequestParser, StatusCode};
use canal_mesh::observability::{GatewayObservability, NodeObservability};
use canal_mesh::{L4Filter, L7Engine, L7Outcome};
use canal_net::{FiveTuple, GlobalServiceId, Packet, PodId, TraceContext, VxlanFrame};
use canal_policy::{L4Ctx, L4Verdict, L7Ctx, PolicyVerdict};
use canal_sim::{SimDuration, SimRng, SimTime};
use canal_telemetry::{Collector, HeadSampler, HopSite, SegmentKind, Span};

/// Simulated time between two ops (100k requests per simulated second).
const OP_INTERVAL: SimDuration = SimDuration::from_micros(10);
/// Gateway L7 latency written into access-log entries and gateway spans.
const L7_LATENCY: SimDuration = SimDuration::from_micros(120);
/// Share of traces the head sampler keeps.
pub const HEAD_SAMPLE_RATE: f64 = 0.01;
const NODE_IP: u32 = 0x0A00_0001;
const GATEWAY_VIP: u32 = 0x0A63_0001;

/// One client connection: what the node knows about a flow.
#[derive(Debug, Clone)]
pub struct Flow {
    pub tuple: FiveTuple,
    pub l4: L4Ctx,
    /// Index into [`World::services`].
    pub service: usize,
    pub pod: PodId,
}

/// What one op did, for the caller to check against what it expected.
#[derive(Debug)]
pub struct Outcome {
    /// Op sequence number (the cipher nonce of this op's records).
    pub seq: u64,
    pub l4: L4Verdict,
    /// Gateway policy verdict, when stage 7 ran.
    pub verdict: Option<PolicyVerdict>,
    pub status: StatusCode,
    /// `(rule, target)` when the L7 engine forwarded.
    pub route: Option<(String, String)>,
    pub served: Option<GatewayServed>,
    /// The encoded VXLAN frame sent toward the backend.
    pub frame: Option<Bytes>,
}

/// Every component one request passes through, assembled once in set-up.
pub struct World {
    pub l4: L4Filter,
    pub node_obs: NodeObservability,
    node_cipher: ChaCha20,
    backend_cipher: ChaCha20,
    pub gateway: Gateway,
    pub policy: ActivePolicy,
    /// One L7 engine per service, indexed like `services`.
    pub engines: Vec<L7Engine>,
    pub services: Vec<GlobalServiceId>,
    replicas_per_backend: usize,
    /// One tunnel aggregator per gateway replica, created on first use.
    pub aggregators: Vec<Option<SessionAggregator>>,
    pub gw_obs: GatewayObservability,
    pub sampler: HeadSampler,
    pub collector: Collector,
    rng: SimRng,
    now: SimTime,
    seq: u64,
}

fn nonce(seq: u64) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[..8].copy_from_slice(&seq.to_le_bytes());
    n
}

impl World {
    /// An empty world: a gateway of `cfg`, no services, no policy.
    pub fn new(cfg: GatewayConfig, mut rng: SimRng) -> Self {
        let backends = cfg.azs * cfg.backends_per_az;
        World {
            l4: L4Filter::new(),
            node_obs: NodeObservability::new(),
            node_cipher: ChaCha20::from_shared_secret(rng.u64()),
            backend_cipher: ChaCha20::from_shared_secret(rng.u64()),
            gateway: Gateway::new(cfg),
            policy: ActivePolicy::new(),
            engines: Vec::new(),
            services: Vec::new(),
            replicas_per_backend: cfg.replicas_per_backend,
            aggregators: (0..backends * cfg.replicas_per_backend)
                .map(|_| None)
                .collect(),
            gw_obs: GatewayObservability::new(),
            sampler: HeadSampler::new(HEAD_SAMPLE_RATE, &mut rng),
            collector: Collector::new(),
            rng,
            now: SimTime::ZERO,
            seq: 0,
        }
    }

    /// Register a service on the gateway with its L7 engine; returns its
    /// index.
    pub fn add_service(&mut self, gid: GlobalServiceId, engine: L7Engine) -> usize {
        self.gateway.register_service(gid, &mut self.rng);
        self.services.push(gid);
        self.engines.push(engine);
        self.services.len() - 1
    }

    /// Hand the access log and the collected traces to an exporter (here:
    /// drop them), as a gateway does every export interval. Both grow with
    /// every request, so a run of any length needs this.
    pub fn export_telemetry(&mut self) {
        drop(std::mem::take(&mut self.gw_obs));
        drop(std::mem::take(&mut self.collector));
    }

    fn begin_op(&mut self) -> u64 {
        self.now += OP_INTERVAL;
        self.seq += 1;
        self.seq
    }

    fn aggregator(&mut self, served: &GatewayServed) -> &mut SessionAggregator {
        let idx = served.backend as usize * self.replicas_per_backend + served.replica;
        self.aggregators[idx].get_or_insert_with(|| {
            SessionAggregator::new(
                TunnelConfig::for_cores(4),
                0x0AC8_0000 + idx as u32,
                idx as u32,
            )
        })
    }

    /// One HTTP request, stages 1-12. `wire` is the request as the client
    /// app wrote it.
    pub fn l7_request<T: Tracer>(
        &mut self,
        tracer: &mut T,
        flow: &Flow,
        syn: bool,
        wire: &[u8],
    ) -> Outcome {
        tracer.op(|t| self.l7_stages(t, flow, syn, wire))
    }

    fn l7_stages<T: Tracer>(&mut self, t: &mut T, flow: &Flow, syn: bool, wire: &[u8]) -> Outcome {
        let seq = self.begin_op();
        let now = self.now;
        let nonce = nonce(seq);
        let gid = self.services[flow.service];
        let mut out = Outcome {
            seq,
            l4: L4Verdict::Deny,
            verdict: None,
            status: StatusCode::FORBIDDEN,
            route: None,
            served: None,
            frame: None,
        };

        // --- client node ---
        // 1. L4 policy on the flow's context.
        out.l4 = t.span(Stage::L4Admit, || self.l4.admit(&flow.l4));
        if out.l4 == L4Verdict::Deny {
            return out;
        }
        // 2. Per-pod labeling.
        t.span(Stage::NodeRecord, || {
            self.node_obs
                .record_transfer(flow.pod, wire.len() as u64, 0, syn)
        });
        // 3. Encrypt toward the gateway.
        let sealed = t.span(Stage::EncryptNode, || {
            self.node_cipher.encrypt(0, &nonce, wire)
        });
        // 4. VXLAN toward the gateway.
        let on_wire = t.span(Stage::VxlanEncodeNode, || {
            VxlanFrame::new(
                NODE_IP,
                GATEWAY_VIP,
                flow.tuple.src.port,
                flow.l4.vpc.raw(),
                sealed,
            )
            .encode()
        });

        // --- gateway ---
        // 5. VXLAN decode, decrypt in place.
        let Ok(frame) = t.span(Stage::VxlanDecode, || disaggregate(on_wire)) else {
            out.status = StatusCode(400);
            return out;
        };
        let mut plain = frame.inner.to_vec();
        t.span(Stage::Decrypt, || {
            self.node_cipher.apply(0, &nonce, &mut plain)
        });
        // 6. HTTP parse.
        let Ok(Some(req)) = t.span(Stage::HttpParse, || RequestParser::new().feed(&plain)) else {
            out.status = StatusCode(400);
            return out;
        };
        // 7. Tenant policy on full request context.
        let verdict = t.span(Stage::PolicyVerdict, || match self.policy.compiled() {
            Some(set) => {
                set.l7_verdict(&flow.l4, &L7Ctx::new(req.method.as_str(), req.path_only()))
            }
            None => PolicyVerdict::Deny,
        });
        out.verdict = Some(verdict);
        if verdict == PolicyVerdict::Allow {
            // 8. Authz, route match, weighted split.
            let draw = self.rng.f64();
            let engine = &mut self.engines[flow.service];
            let routed = t.span(Stage::L7Process, || {
                engine.process(now, flow.l4.identity, &req, draw)
            });
            match routed {
                L7Outcome::Reject(code) => out.status = code,
                L7Outcome::Forward { rule, target } => {
                    out.route = Some((rule, target));
                    // 9. Sandbox admit, ECMP, bucket dispatch, session table, CPU.
                    let handled = t.span(Stage::GatewayHandle, || {
                        self.gateway.handle_request(now, gid, &flow.tuple, syn)
                    });
                    match handled {
                        Err(_) => out.status = StatusCode::SERVICE_UNAVAILABLE,
                        Ok(served) => {
                            out.status = StatusCode::OK;
                            out.served = Some(served);
                            // 10. Encrypt toward the backend.
                            let resealed = t.span(Stage::EncryptBackend, || {
                                self.backend_cipher.encrypt(0, &nonce, &plain)
                            });
                            // 11. Session aggregation and VXLAN toward the backend.
                            let pkt = Packet {
                                tuple: flow.tuple,
                                syn: false,
                                service_tag: Some(gid),
                                payload: Bytes::from(resealed),
                            };
                            let agg = self.aggregator(&served);
                            let tunnel = t.span(Stage::TunnelEncap, || agg.encapsulate(&pkt));
                            out.frame = Some(t.span(Stage::VxlanEncodeGateway, || tunnel.encode()));
                        }
                    }
                }
            }
        }
        // 12. Access log, and spans for head-sampled requests.
        t.span(Stage::GatewayRecord, || {
            self.gw_obs.record_request(
                now,
                gid,
                req.method.as_str(),
                req.path_only(),
                out.status,
                L7_LATENCY,
            )
        });
        if self.sampler.decide(seq) {
            let error = out.status.is_error();
            t.span(Stage::CollectorIngest, || {
                let tc = TraceContext::root(seq, true);
                let mut node = Span::from_ctx(tc, 0, HopSite::ClientNodeProxy, now);
                node.push_segment(SegmentKind::L4Forward, SimDuration::from_micros(20));
                let mut gw = Span::from_ctx(
                    tc.child_of(0),
                    1,
                    HopSite::Gateway,
                    now + SimDuration::from_micros(10),
                );
                gw.push_segment(SegmentKind::L7Parse, L7_LATENCY);
                gw.error = error;
                node.end = gw.end + SimDuration::from_micros(10);
                self.collector.ingest(node);
                self.collector.ingest(gw);
            });
        }
        out
    }

    /// One data packet that never leaves the fast path: stages 1, 2, 9 and
    /// 11 only.
    pub fn l4_packet<T: Tracer>(
        &mut self,
        tracer: &mut T,
        flow: &Flow,
        syn: bool,
        pkt: &Packet,
    ) -> Outcome {
        tracer.op(|t| {
            let seq = self.begin_op();
            let now = self.now;
            let gid = self.services[flow.service];
            let mut out = Outcome {
                seq,
                l4: L4Verdict::Deny,
                verdict: None,
                status: StatusCode::FORBIDDEN,
                route: None,
                served: None,
                frame: None,
            };
            out.l4 = t.span(Stage::L4Admit, || self.l4.admit(&flow.l4));
            if out.l4 != L4Verdict::Allow {
                return out;
            }
            t.span(Stage::NodeRecord, || {
                self.node_obs
                    .record_transfer(flow.pod, pkt.payload.len() as u64, 0, syn)
            });
            let handled = t.span(Stage::GatewayHandle, || {
                self.gateway.handle_request(now, gid, &flow.tuple, syn)
            });
            match handled {
                Err(_) => out.status = StatusCode::SERVICE_UNAVAILABLE,
                Ok(served) => {
                    out.status = StatusCode::OK;
                    out.served = Some(served);
                    let agg = self.aggregator(&served);
                    let tunnel = t.span(Stage::TunnelEncap, || agg.encapsulate(pkt));
                    out.frame = Some(t.span(Stage::VxlanEncodeGateway, || tunnel.encode()));
                }
            }
            out
        })
    }

    /// What the backend reads out of an [`Outcome::frame`] of an L7 op:
    /// VXLAN decode, then decrypt. Used to check that the path delivers the
    /// bytes the client wrote.
    pub fn open_backend_frame(&self, frame: Bytes, seq: u64) -> Option<Vec<u8>> {
        let mut plain = disaggregate(frame).ok()?.inner.to_vec();
        self.backend_cipher.apply(0, &nonce(seq), &mut plain);
        Some(plain)
    }

    /// User sessions and tunnels in use, summed over the aggregators.
    pub fn tunnel_sessions(&self) -> (usize, usize) {
        self.aggregators.iter().flatten().fold((0, 0), |(u, t), a| {
            (u + a.user_sessions(), t + a.tunnels_in_use())
        })
    }
}
