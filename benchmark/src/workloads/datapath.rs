//! `l7_small`, `l7_bulk` and `l4_fastpath`: a closed loop of one client on
//! one thread handing pre-generated ops to the composed request path.

use super::{peak_rss_mib, setup_seconds, timed, Budget};
use crate::gen::{self, DatapathParams, Inputs, Op, TARGETS};
use crate::path::{Outcome, World};
use crate::report::RunResult;
use crate::stats;
use crate::trace::{calibrate_timer_ns, Ledger, NoTrace, SpanTrace, Stage, Tracer};
use canal_gateway::gateway::BackendId;
use canal_gateway::tunnel::disaggregate;
use canal_policy::{L4Verdict, PolicyVerdict};
use std::path::Path;
use std::time::Instant;

/// One op in this many has the frame it sent toward the backend decoded and
/// decrypted again and compared with the bytes the client wrote.
const ROUND_TRIP_EVERY: u64 = 1024;
/// Mismatches printed in full before only the count is kept.
const MAX_PRINTED: u64 = 10;
/// Spans one op can record: 15 stages and the root.
const SPANS_PER_OP: usize = 16;
const MIB: f64 = (1 << 20) as f64;

/// 2,000,000 GETs of ~130 B at nominal scale.
pub const L7_SMALL: DatapathParams = DatapathParams {
    tenants: 64,
    services_per_tenant: 16,
    route_rules: 100,
    flows: 16_384,
    requests: 16_384,
    body_bytes: 0,
    pool_ops: 65_536,
    syn_every: 8,
    l4_only: false,
    chunk_ops: 4_000,
};

/// 100,000 POSTs of 16 KiB at nominal scale.
pub const L7_BULK: DatapathParams = DatapathParams {
    tenants: 4,
    services_per_tenant: 4,
    route_rules: 3,
    flows: 1_024,
    requests: 512,
    body_bytes: 16 * 1024,
    pool_ops: 4_096,
    syn_every: 8,
    l4_only: false,
    chunk_ops: 200,
};

/// 8,000,000 64 B packets at nominal scale.
pub const L4_FASTPATH: DatapathParams = DatapathParams {
    tenants: 64,
    services_per_tenant: 16,
    route_rules: 1,
    flows: 65_536,
    requests: 0,
    body_bytes: 0,
    pool_ops: 262_144,
    syn_every: 16,
    l4_only: true,
    chunk_ops: 10_000,
};

/// Compares each op's outcome with what the workload generated for it.
pub struct Checker {
    /// `(backend, replica)` that first served each flow: with no failure
    /// injected, every later packet of the flow must land there too.
    served: Vec<Option<(BackendId, usize)>>,
    /// Ops with at least one mismatch.
    pub failed: u64,
    /// Mismatches found; one op can have several.
    mismatches: u64,
    pub redirect_hops: u64,
}

impl Checker {
    fn new(flows: usize) -> Self {
        Checker {
            served: vec![None; flows],
            failed: 0,
            mismatches: 0,
            redirect_hops: 0,
        }
    }

    fn mismatch(&mut self, index: u64, what: &str, detail: String) {
        self.mismatches += 1;
        if self.mismatches <= MAX_PRINTED {
            eprintln!("FAIL op {index}: {what}: {detail}");
        }
    }

    /// Check one outcome. `index` counts ops since the run began.
    pub fn check(
        &mut self,
        p: &DatapathParams,
        world: &World,
        inputs: &Inputs,
        index: u64,
        op: &Op,
        out: Outcome,
    ) {
        let before = self.mismatches;
        self.compare(p, world, inputs, index, op, out);
        self.failed += u64::from(self.mismatches > before);
    }

    fn compare(
        &mut self,
        p: &DatapathParams,
        world: &World,
        inputs: &Inputs,
        index: u64,
        op: &Op,
        out: Outcome,
    ) {
        let before = self.mismatches;
        let flow = &inputs.flows[op.flow as usize];
        if out.status.0 != op.status {
            self.mismatch(
                index,
                "status",
                format!("got {}, expected {}", out.status.0, op.status),
            );
        }
        let (want_l4, want_verdict) = if p.l4_only {
            (L4Verdict::Allow, None)
        } else {
            (L4Verdict::NeedsL7, Some(PolicyVerdict::Allow))
        };
        if out.l4 != want_l4 || out.verdict != want_verdict {
            self.mismatch(
                index,
                "policy verdict",
                format!(
                    "got {:?}/{:?}, expected {want_l4:?}/{want_verdict:?}",
                    out.l4, out.verdict
                ),
            );
        }
        if op.status != 200 {
            if out.route.is_some() || out.served.is_some() {
                self.mismatch(
                    index,
                    "forwarded",
                    "a rejected request reached a backend".into(),
                );
            }
            return;
        }
        if !p.l4_only {
            let want_rule = inputs.requests[op.request as usize]
                .rule
                .map(|r| &inputs.rule_names[r]);
            let routed_right = match (&out.route, want_rule) {
                (Some((rule, target)), Some(want)) => {
                    rule == want && TARGETS.contains(&target.as_str())
                }
                _ => false,
            };
            if !routed_right {
                self.mismatch(
                    index,
                    "route target",
                    format!("got {:?}, expected rule {want_rule:?}", out.route),
                );
            }
        }
        match out.served {
            None => self.mismatch(index, "backend", "not served".into()),
            Some(s) => {
                self.redirect_hops += s.redirect_hops as u64;
                let at = (s.backend, s.replica);
                if !inputs.placement[flow.service].contains(&s.backend) {
                    self.mismatch(index, "backend", format!("{at:?} is outside the placement"));
                }
                match self.served[op.flow as usize] {
                    None => self.served[op.flow as usize] = Some(at),
                    Some(first) if first != at => {
                        self.mismatch(
                            index,
                            "backend",
                            format!("flow moved from {first:?} to {at:?}"),
                        );
                    }
                    Some(_) => {}
                }
            }
        }
        if index.is_multiple_of(ROUND_TRIP_EVERY) && self.mismatches == before {
            let delivered = match out.frame {
                None => None,
                Some(frame) if p.l4_only => disaggregate(frame).ok().map(|f| f.inner.to_vec()),
                Some(frame) => world.open_backend_frame(frame, out.seq),
            };
            let sent: &[u8] = if p.l4_only {
                &inputs.packets[op.flow as usize].payload
            } else {
                &inputs.requests[op.request as usize].wire
            };
            if delivered.as_deref() != Some(sent) {
                self.mismatch(
                    index,
                    "round trip",
                    "the backend did not read the bytes sent".into(),
                );
            }
        }
    }
}

/// World, inputs and checker after set-up, and where in the op pool the
/// next op comes from.
pub struct State {
    pub world: World,
    pub inputs: Inputs,
    pub checker: Checker,
    cursor: usize,
}

#[inline]
fn run_op<T: Tracer>(p: &DatapathParams, s: &mut State, tracer: &mut T, op: &Op) -> Outcome {
    let flow = &s.inputs.flows[op.flow as usize];
    if p.l4_only {
        s.world
            .l4_packet(tracer, flow, op.syn, &s.inputs.packets[op.flow as usize])
    } else {
        s.world.l7_request(
            tracer,
            flow,
            op.syn,
            &s.inputs.requests[op.request as usize].wire,
        )
    }
}

impl State {
    fn next_op(&mut self) -> Op {
        let op = self.inputs.ops[self.cursor];
        self.cursor = (self.cursor + 1) % self.inputs.ops.len();
        op
    }

    /// Run the next `n` ops untimed and untraced, checking each one's
    /// outcome (but never round-tripping its frame: the index is never a
    /// multiple of `ROUND_TRIP_EVERY`).
    pub fn drive(&mut self, p: &DatapathParams, n: usize) {
        for i in 0..n {
            let op = self.next_op();
            let out = run_op(p, self, &mut NoTrace, &op);
            self.checker.check(
                p,
                &self.world,
                &self.inputs,
                ROUND_TRIP_EVERY * i as u64 + 1,
                &op,
                out,
            );
        }
    }
}

/// Build everything from `seed` and run `warm_ops` ops untimed, so that
/// session tables, tunnel maps and per-pod counters are in steady state and
/// lazy allocation is done before the first timed op.
pub fn setup(p: &DatapathParams, seed: u64, warm_ops: usize) -> State {
    let (world, inputs) = gen::datapath(p, seed);
    let checker = Checker::new(inputs.flows.len());
    let mut s = State {
        world,
        inputs,
        checker,
        cursor: 0,
    };
    s.drive(p, warm_ops);
    s.world.export_telemetry();
    s
}

/// The untraced run: end-to-end metrics. Each segment sets up afresh from
/// the same seed, then runs chunks of `chunk_ops` ops that alternate
/// between a throughput chunk (one clock pair around the chunk, telemetry
/// export included) and a latency chunk (one clock pair per op).
pub fn run_untraced(p: &DatapathParams, seed: u64, budget: Budget, segments: usize) -> RunResult {
    let warm = match budget {
        Budget::Ops(n) => p.pool_ops.min(n as usize),
        Budget::Seconds(_) => p.pool_ops,
    };
    let mut setups = Vec::with_capacity(segments);
    let mut rates = Vec::new();
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let mut samples: Vec<u32> = Vec::with_capacity(p.chunk_ops);
    let (mut done, mut failed) = (0u64, 0u64);
    for segment in 0..segments {
        let (mut s, setup_s) = timed(|| setup(p, seed, warm));
        setups.push(setup_s);
        let budget = budget.segment(segments, segment);
        let chunk_ops = match budget {
            Budget::Ops(n) => (p.chunk_ops as u64).min(n.div_ceil(4)).max(1),
            Budget::Seconds(_) => p.chunk_ops as u64,
        };
        let started = Instant::now();
        let first = done;
        for chunk in 0u64.. {
            let n = match budget {
                Budget::Ops(total) => chunk_ops.min(total - (done - first)),
                Budget::Seconds(secs) if chunk >= 4 && started.elapsed().as_secs_f64() >= secs => 0,
                Budget::Seconds(_) => chunk_ops,
            };
            if n == 0 {
                break;
            }
            if chunk % 2 == 0 {
                let t = Instant::now();
                for i in 0..n {
                    let op = s.next_op();
                    let out = run_op(p, &mut s, &mut NoTrace, &op);
                    s.checker.check(p, &s.world, &s.inputs, done + i, &op, out);
                }
                s.world.export_telemetry();
                rates.push(n as f64 / t.elapsed().as_secs_f64());
            } else {
                samples.clear();
                for i in 0..n {
                    let op = s.next_op();
                    let t = Instant::now();
                    let out = run_op(p, &mut s, &mut NoTrace, &op);
                    samples.push(t.elapsed().as_nanos() as u32);
                    s.checker.check(p, &s.world, &s.inputs, done + i, &op, out);
                }
                s.world.export_telemetry();
                let (p50, p90) = stats::chunk_percentiles(&mut samples);
                p50s.push(p50);
                p90s.push(p90);
            }
            done += n;
        }
        failed += s.checker.failed;
    }

    let mut r = RunResult {
        attempted: done,
        failed,
        ..RunResult::default()
    };
    r.set("ops_per_s", stats::quiet_high(&rates));
    r.set("op_ns_p50", stats::quiet_low(&p50s));
    r.set("op_ns_p90", stats::quiet_low(&p90s));
    r.set("peak_rss_mib", peak_rss_mib());
    r.set("setup_s", setup_seconds(&setups));
    r
}

/// The traced run: per-layer metrics over exactly `ops` ops. The same ops
/// run twice from the same set-up, in two worlds: untraced with one clock
/// pair per op (tail percentiles, goodput, host noise, and the base of
/// `path.ledger_ratio` and `trace.overhead_ratio`), and with a span around
/// every stage call.
pub fn run_traced(p: &DatapathParams, seed: u64, ops: u64, spans_csv: &Path) -> RunResult {
    let timer_ns = calibrate_timer_ns();
    let warm = p.pool_ops.min(ops as usize);

    // Two identical worlds take turns, a twentieth of the ops at a time
    // (long enough to refill the caches the other world emptied), so that
    // whatever the neighbours do falls on both passes alike.
    let mut a = setup(p, seed, warm);
    let mut b = setup(p, seed, warm);
    let first = b.cursor;
    let mut plain_ns: Vec<f64> = Vec::with_capacity(ops as usize);
    let mut trace = SpanTrace::with_capacity(ops as usize * SPANS_PER_OP);
    let turn = (ops / 20).max(1);
    let mut done = 0;
    while done < ops {
        let n = turn.min(ops - done);
        for i in done..done + n {
            let op = a.next_op();
            let t = Instant::now();
            let out = run_op(p, &mut a, &mut NoTrace, &op);
            plain_ns.push(t.elapsed().as_nanos() as f64);
            a.checker.check(p, &a.world, &a.inputs, i, &op, out);
        }
        for i in done..done + n {
            let op = b.next_op();
            let out = run_op(p, &mut b, &mut trace, &op);
            b.checker.check(p, &b.world, &b.inputs, i, &op, out);
        }
        done += n;
    }
    let failed_untraced = a.checker.failed;
    drop(a);
    if let Err(e) = trace.write_csv(spans_csv) {
        eprintln!("warning: could not write {}: {e}", spans_csv.display());
    }
    let ledger = Ledger::fold(&trace, timer_ns);
    drop(trace);

    // Counts that follow from the op stream itself.
    let pool = &b.inputs.ops;
    let executed = (0..ops as usize).map(|i| &pool[(first + i) % pool.len()]);
    let (mut wire_bytes, mut delivered_bytes, mut forwarded, mut syns, mut lookup_ops) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for op in executed {
        let len = if p.l4_only {
            b.inputs.packets[op.flow as usize].payload.len()
        } else {
            b.inputs.requests[op.request as usize].wire.len()
        } as u64;
        wire_bytes += len;
        if op.status == 200 {
            delivered_bytes += len;
            forwarded += 1;
            syns += u64::from(op.syn);
        }
        if !p.l4_only {
            let tenant = b.inputs.flows[op.flow as usize].l4.tenant;
            lookup_ops += b
                .world
                .policy
                .compiled()
                .and_then(|c| c.tenant(tenant))
                .map_or(0, |t| t.lookup_ops());
        }
    }

    let n = ops as f64;
    let per_op = |x: u64| x as f64 / n;
    let mib_per_s = |bytes: u64, ns: f64| {
        if ns > 0.0 {
            bytes as f64 / MIB / (ns / 1e9)
        } else {
            0.0
        }
    };
    let pair = |x: Stage, y: Stage| {
        let (x, y) = (ledger.stage(x), ledger.stage(y));
        let calls = x.calls + y.calls;
        if calls == 0 {
            0.0
        } else {
            (x.self_ns + y.self_ns) / calls as f64
        }
    };
    // Every request is encrypted and decrypted once, forwarded ones twice.
    let crypto_bytes = if p.l4_only {
        0
    } else {
        2 * wire_bytes + delivered_bytes
    };

    let mut r = RunResult::per_layer_zeroed();
    r.attempted = ops;
    r.failed = failed_untraced + b.checker.failed;
    r.set(
        "mesh.l4_admit_ns",
        ledger.stage(Stage::L4Admit).ns_per_call(),
    );
    r.set(
        "mesh.l7_process_ns",
        ledger.stage(Stage::L7Process).ns_per_call(),
    );
    r.set("mesh.allocs_per_op", per_op(ledger.layer_allocs("mesh")));
    r.set(
        "http.parse_ns",
        ledger.stage(Stage::HttpParse).ns_per_call(),
    );
    r.set(
        "http.parse_mib_s",
        mib_per_s(wire_bytes * u64::from(!p.l4_only), ledger.layer_ns("http")),
    );
    r.set("http.allocs_per_op", per_op(ledger.layer_allocs("http")));
    r.set(
        "policy.l7_verdict_ns",
        ledger.stage(Stage::PolicyVerdict).ns_per_call(),
    );
    r.set("policy.lookup_ops_per_op", per_op(lookup_ops));
    r.set(
        "policy.allocs_per_op",
        per_op(ledger.layer_allocs("policy")),
    );
    r.set(
        "gateway.handle_request_ns",
        ledger.stage(Stage::GatewayHandle).ns_per_call(),
    );
    if forwarded > 0 {
        r.set(
            "gateway.redirect_hops_per_op",
            b.checker.redirect_hops as f64 / forwarded as f64,
        );
        r.set("gateway.syn_share", syns as f64 / forwarded as f64);
    }
    r.set(
        "gateway.tunnel_encap_ns",
        ledger.stage(Stage::TunnelEncap).ns_per_call(),
    );
    let (sessions, tunnels) = b.world.tunnel_sessions();
    if tunnels > 0 {
        r.set("gateway.tunnel_reduction", sessions as f64 / tunnels as f64);
    }
    r.set(
        "gateway.allocs_per_op",
        per_op(ledger.layer_allocs("gateway")),
    );
    r.set(
        "crypto.encrypt_ns",
        pair(Stage::EncryptNode, Stage::EncryptBackend),
    );
    r.set(
        "crypto.decrypt_ns",
        ledger.stage(Stage::Decrypt).ns_per_call(),
    );
    r.set(
        "crypto.mib_s",
        mib_per_s(crypto_bytes, ledger.layer_ns("crypto")),
    );
    r.set(
        "crypto.allocs_per_op",
        per_op(ledger.layer_allocs("crypto")),
    );
    r.set(
        "net.vxlan_encode_ns",
        pair(Stage::VxlanEncodeNode, Stage::VxlanEncodeGateway),
    );
    r.set(
        "net.vxlan_decode_ns",
        ledger.stage(Stage::VxlanDecode).ns_per_call(),
    );
    r.set("net.allocs_per_op", per_op(ledger.layer_allocs("net")));
    r.set(
        "telemetry.node_record_ns",
        ledger.stage(Stage::NodeRecord).ns_per_call(),
    );
    r.set(
        "telemetry.gateway_record_ns",
        ledger.stage(Stage::GatewayRecord).ns_per_call(),
    );
    r.set("telemetry.sampled_share", b.world.sampler.achieved_rate());
    r.set(
        "telemetry.allocs_per_op",
        per_op(ledger.layer_allocs("telemetry")),
    );
    // Each untraced sample holds one clock read of its own.
    let plain_total = plain_ns.iter().sum::<f64>() - n * timer_ns;
    r.set("path.ledger_ratio", ledger.staged_ns() / plain_total);
    r.set("path.allocs_per_op", per_op(ledger.total_allocs()));
    r.set(
        "path.alloc_bytes_per_op",
        per_op(ledger.total_alloc_bytes()),
    );
    r.set(
        "path.goodput_mib_s",
        mib_per_s(delivered_bytes, plain_total),
    );
    r.set(
        "trace.overhead_ratio",
        ledger.whole_ns() / plain_total - 1.0,
    );
    r.set("trace.timer_ns", timer_ns);
    let chunk = (plain_ns.len() / 100).max(1);
    let chunk_ns: Vec<f64> = plain_ns
        .chunks_exact(chunk)
        .map(|c| c.iter().sum())
        .collect();
    r.set(
        "host.noise_ratio",
        stats::quantile(&chunk_ns, 0.9) / stats::median(&chunk_ns),
    );
    plain_ns.sort_by(f64::total_cmp);
    r.set("path.op_ns_p99", stats::quantile_sorted(&plain_ns, 0.99));
    r.set("path.op_ns_p999", stats::quantile_sorted(&plain_ns, 0.999));

    eprintln!(
        "untraced {:.1} ns/op; traced {:.1} ns/op, of which the stages' self time is {:.1} ns ({:.1} ns of each span is timer)",
        plain_total / n,
        ledger.whole_ns() / n,
        ledger.staged_ns() / n,
        timer_ns
    );
    for stage in Stage::ALL {
        let t = ledger.stage(stage);
        if t.calls > 0 {
            eprintln!(
                "  {:<28} {:>9} calls {:>10.1} ns/call {:>6.2}% of untraced op {:>8.3} allocs/op",
                stage.name(),
                t.calls,
                t.ns_per_call(),
                100.0 * t.self_ns / plain_total,
                per_op(t.allocs)
            );
        }
    }
    r
}
