//! Engine and control-plane micro-benchmarks: event queue throughput, CPU
//! server submission, route matching, shuffle-shard assignment and the full
//! per-request step-plan execution of each architecture.

// Benchmark scaffolding, like tests, may assert via unwrap.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use canal_bench::microbench::{bench, black_box};
use canal_gateway::sharding::ShuffleShardPlanner;
use canal_http::{Request, RoutePredicate, RouteRule, RouteTable, WeightedTarget};
use canal_mesh::arch::{build, Architecture, RequestCtx};
use canal_mesh::path::PathExecutor;
use canal_mesh::CostModel;
use canal_net::{GlobalServiceId, ServiceId, TenantId};
use canal_sim::{CpuServer, Model, Scheduler, SimDuration, SimRng, SimTime, Simulation};

struct Nop;
impl Model for Nop {
    type Event = u32;
    fn handle(&mut self, _: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        if ev > 0 {
            sched.after(SimDuration::from_micros(1), ev - 1);
        }
    }
}

fn bench_event_queue() {
    bench("sim/10k_chained_events", || {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, 10_000u32);
        sim.run(&mut Nop);
        sim.events_fired()
    });
}

fn bench_cpu_server() {
    let mut s = CpuServer::new(8);
    let mut t = 0u64;
    bench("sim/cpu_server_submit", || {
        t += 10;
        s.submit(SimTime::from_micros(t), SimDuration::from_micros(25))
    });
}

fn bench_route_match() {
    let mut table = RouteTable::new();
    for i in 0..100 {
        table.push(RouteRule::new(
            &format!("rule{i}"),
            RoutePredicate::prefix(&format!("/svc{i}/")),
            vec![WeightedTarget::new("v1", 90), WeightedTarget::new("v2", 10)],
        ));
    }
    let req = Request::get("/svc73/items?limit=5").with_header("Host", "h");
    bench("route/match_100_rules", || table.route(black_box(&req), 0.5));

    // The same match over 1,024 such tables (~30 MB) visited in a scrambled
    // order: what a gateway serving 1,024 services pays, every table cold.
    // One cache-hot table cannot tell a flat index from a pointer-chasing
    // one; this can.
    let tables: Vec<RouteTable> = (0..1024).map(|_| table.clone()).collect();
    let reqs: Vec<Request> = (0..100)
        .map(|i| Request::get(&format!("/svc{i}/items?limit=5")).with_header("Host", "h"))
        .collect();
    let mut i = 0usize;
    bench("route/match_100_rules_cold_1k_tables", || {
        i = (i + 611) % tables.len(); // odd stride: a full cycle, no locality
        tables[i].route(black_box(&reqs[i % reqs.len()]), 0.5)
    });
}

fn bench_shuffle_shard() {
    bench("sharding/assign_100_services", || {
        let mut rng = SimRng::seed(7);
        let mut p = ShuffleShardPlanner::new(32, 4, 2);
        for i in 0..100u32 {
            p.assign(
                GlobalServiceId::compose(TenantId(i / 10), ServiceId(i % 10)),
                &mut rng,
            );
        }
        p.max_pairwise_overlap()
    });
}

fn bench_request_paths() {
    let ctx = RequestCtx::light();
    for kind in [Architecture::Sidecar, Architecture::Ambient, Architecture::Canal] {
        let arch = build(kind, CostModel::default());
        let steps = arch.request_steps(&ctx);
        let mut exec = PathExecutor::new(&arch.stage_cores());
        let mut t = 0u64;
        bench(&format!("path/{}_request", kind.name()), || {
            t += 1_000;
            exec.run(SimTime::from_micros(t), &steps)
        });
    }
}

fn main() {
    bench_event_queue();
    bench_cpu_server();
    bench_route_match();
    bench_shuffle_shard();
    bench_request_paths();
}
